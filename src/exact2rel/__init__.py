"""Graphs as the exact-path-weight relation on leaves of non-negative
integer edge-weighted trees: recognition, witness construction, the
rooted/oriented variant, and an exhaustive small-scale oracle.
"""

from ._kernel import USING_COMPILED
from .construct import (RecognitionOutcome, VerificationResult, blow_up,
                        construct_block_tree, join_components, recognize,
                        verify)
from .graphs import (BlockDecomposition, Graph, GraphFormatError,
                     OrientedGraph, QuotientResult, TwinPartition,
                     block_decomposition,
                     connected_components, directed_quotient,
                     directed_twin_partition, false_twin_partition,
                     find_cycle, format_graph, format_oriented,
                     from_arc_list, from_edge_list, induced_subgraph,
                     is_block_graph, is_forest, parse_graph, parse_oriented,
                     quotient, underlying_graph)
from .newick import TreeFormatError, format_newick, parse_newick, \
    parse_rooted_newick
from .oracle import (CharacterizationReport, EnumerationBudget,
                     ExplainableSet, RootedExplainableSet, all_witnesses,
                     check_characterization, enumerate_topologies,
                     explainable_set, format_report, rooted_explainable_set)
from .rooted import (OrientedOutcome, construct_oriented, directed_explain,
                     directed_relation_pairs, enumerate_rooted,
                     format_rooted_newick, recognize_oriented)
from .trees import (DistanceMatrix, LabeledTree, RootedLabeledTree,
                    canonicalize, explain, is_canonical, is_canonical_rooted,
                    is_zero_discrete, leaf_distance_matrix, restrict,
                    underlying_tree)

__version__ = "0.1.0"
