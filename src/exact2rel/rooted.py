"""The directed leaf relation of rooted weighted trees.

In a rooted tree (``trees.RootedLabeledTree``, re-exported here) an arc
(x, y) between leaves holds at level ``k`` when the weights from x up to
the meeting point (lowest common ancestor) sum to 0 and the weights from
there down to y sum to exactly ``k``.  This module provides that
relation, its text form, recognition and construction for the oriented
graphs it produces at k=2, and the enumeration of all rooted canonical
trees over a given unrooted canonical tree.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import (Graph, OrientedGraph, TwinPartition,
                     connected_components, directed_quotient, find_cycle,
                     from_arc_list, underlying_graph)
from .newick import subtree_text
from .trees import (LabeledTree, RootedLabeledTree, _Draft,
                    certify_relation, is_canonical, relation_pairs)


def format_rooted_newick(t: RootedLabeledTree) -> str:
    """Serialize; the written top-level node is the root."""
    return f"{subtree_text(t.adj, t.names, t.root)};"


# ======================================================================
# The directed relation
# ======================================================================

def directed_relation_pairs(t: RootedLabeledTree, k: int) -> set[tuple[str, str]]:
    """Ordered leaf-name pairs (x, y) with up-weight(x -> lca) = 0 and
    down-weight(lca -> y) = k, as ``relation_pairs`` lists them."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return {(t.names[x], t.names[y])
            for x, y in relation_pairs(t, t.root, k, directed=True)}


def directed_explain(t: RootedLabeledTree, k: int) -> OrientedGraph:
    """The oriented graph of the directed relation; graph vertex ``i`` is
    the i-th leaf name in sorted order.

    The result never contains a 2-cycle: opposite arcs would force both
    leaves at up-weight 0 from their meeting point and simultaneously at
    positive down-weight, which is impossible.
    """
    names = t.leaf_names
    idx = {s: i for i, s in enumerate(names)}
    arcs = [(idx[a], idx[b]) for a, b in directed_relation_pairs(t, k)]
    return from_arc_list(len(names), arcs)


# ======================================================================
# Enumeration of rooted canonical trees over an unrooted one
# ======================================================================

def enumerate_rooted(t: LabeledTree) -> set[RootedLabeledTree]:
    """All rooted canonical trees whose unrooted reduction is ``t``,
    generated by two moves: root at an interior vertex; split an edge of
    weight m > 0 into (j, m - j) at a new root, where a part may be 0
    only toward a leaf.

    Args:
        t: canonical tree with at least 2 vertices.

    Raises:
        ValueError: single-vertex tree, or a non-canonical input.

    Note: for the one degenerate canonical tree neither move applies
    to — two leaves joined by a weight-0 edge — this returns the empty
    set even though rooting mid-edge would be shape-valid; see the
    package tests for the precise boundary.
    """
    if t.nv < 2:
        raise ValueError("cannot root a single-vertex tree")
    if not is_canonical(t):
        raise ValueError("input tree must be canonical")

    base_edges = t.weighted_edges()
    out = {RootedLabeledTree.build(t.nv, base_edges, t.names, root=v)
           for v in t.interior_vertices()}

    r = t.nv  # id for the inserted root
    for i, (u, v, m) in enumerate(base_edges):
        if m == 0:
            continue
        rest = base_edges[:i] + base_edges[i + 1:]
        lo = 0 if u in t.names else 1
        hi = m if v in t.names else m - 1
        for j in range(lo, hi + 1):
            edges = rest + [(u, r, j), (r, v, m - j)]
            out.add(RootedLabeledTree.build(t.nv + 1, edges, t.names, root=r))

    return out


# ======================================================================
# Recognition and construction at k=2
# ======================================================================

@dataclass(frozen=True)
class OrientedOutcome:
    """Yes/no decision for an oriented graph, like ``RecognitionOutcome``.

    On yes, ``witness`` is a rooted tree whose level-2 directed relation
    is exactly the input.  On no, ``reason`` is ``"cycle"`` and the
    certificate the vertex set of a cycle in the underlying graph, or
    ``"in-star"`` and a triple (x, y, z) of original vertices whose
    twin-class representatives induce x -> z <- y in the quotient.
    """

    decision: bool
    witness: RootedLabeledTree | None
    certificate: tuple[int, ...] | None
    reason: str


def recognize_oriented(d: OrientedGraph) -> OrientedOutcome:
    """Decide whether some rooted tree produces ``d`` at level 2 and
    build a witness when one does, from one directed quotient and one
    underlying graph of it.

    Holds exactly when the directed twin quotient is a disjoint union of
    arborescences: its underlying graph is a forest and no quotient
    vertex has two in-neighbors (equivalently, every quotient component
    has a unique source).  Both conditions live on the quotient, not on
    ``d`` itself: merging twins can break underlying cycles, and e.g.
    ``{a->c, a->d, b->c, b->d}`` (underlying C4) collapses to a single
    arc and is produced by a root with children a, b at weight 0 and
    c, d at weight 2.

    The witness, per quotient component: vertices with out-arcs become
    interior tree vertices, each quotient arc an edge of weight 2;
    arc-less endpoints stay leaves at weight 2; every interior vertex
    receives its class members as pendant 0-edge leaves (members of
    arc-less classes attach at weight 2 instead); the component is
    rooted at its unique source.  Multiple components hang from a fresh
    root by weight-3 edges; a component that is a single unpaired
    vertex hangs as a bare weight-3 leaf, so no interior vertex is left
    with only one child.  The witness is checked before it is returned.

    Raises:
        ValueError: an empty graph.
    """
    if d.n == 0:
        raise ValueError("the empty graph has no tree: a tree needs a leaf")
    qres = directed_quotient(d)
    p, q = qres.partition, qres.graph
    reps = p.representatives
    u = underlying_graph(q)
    cyc = find_cycle(u)
    if cyc is not None:
        return OrientedOutcome(False, None,
                               tuple(sorted(reps[v] for v in cyc)), "cycle")
    for z in range(q.n):
        if len(q.in_adj[z]) >= 2:
            x, y = sorted(q.in_adj[z])[:2]
            return OrientedOutcome(False, None, (reps[x], reps[y], reps[z]),
                                   "in-star")
    return OrientedOutcome(True, _construct(d, p, q, u), None, "")


def construct_oriented(d: OrientedGraph) -> RootedLabeledTree:
    """``recognize_oriented``'s witness: a rooted tree whose level-2
    directed relation is ``d``.

    Raises:
        ValueError: an empty graph, or when recognition refuses ``d``.
    """
    outcome = recognize_oriented(d)
    if not outcome.decision:
        raise ValueError(f"not explainable ({outcome.reason}): "
                         f"certificate {outcome.certificate}")
    return outcome.witness


def _construct(d: OrientedGraph, p: TwinPartition, q: OrientedGraph,
               u: Graph) -> RootedLabeledTree:
    """``recognize_oriented``'s witness from the partition, the quotient
    and its underlying graph ``u`` that it accepted, self-checked."""
    members = p.classes  # by quotient vertex
    # quotient components, by smallest quotient vertex
    comps = [sorted(c) for c in connected_components(u)]
    draft = _Draft()

    def hang(x: int, v: int, w: int) -> int:
        """Hang class ``v``'s members from ``x`` on w-edges; returns ``x``."""
        for m in members[v]:
            draft.link(x, draft.vertex(str(m)), w)
        return x

    def build_component(comp: list[int], solo: bool) -> int:
        """Returns the component's root vertex id."""
        internal = [v for v in comp if q.out_adj[v]]
        if not internal:
            # a single arc-less quotient vertex
            (v,) = comp
            if len(members[v]) == 1 and not solo:
                # a lone vertex can hang straight off the shared root
                return draft.vertex(str(members[v][0]))
            return hang(draft.vertex(), v, 0)
        vert = {v: draft.vertex() for v in internal}
        for v in internal:
            hang(vert[v], v, 0)
            for y in q.out_adj[v]:
                if y in vert:
                    draft.link(vert[v], vert[y], 2)
                else:
                    hang(vert[v], y, 2)
        (source,) = [v for v in comp if not q.in_adj[v]]
        return vert[source]

    roots = [build_component(c, len(comps) == 1) for c in comps]
    if len(roots) == 1:
        root = roots[0]
    else:
        root = draft.vertex()
        for rc in roots:
            draft.link(root, rc, 3)

    t = draft.rooted(root)
    vertex = [t.vertex_of(str(v)) for v in range(d.n)]
    arcs = [(vertex[x], vertex[y]) for x, nbrs in enumerate(d.out_adj)
            for y in nbrs]
    if not certify_relation(t, t.root, arcs, 2, directed=True):
        raise AssertionError("internal error: constructed tree does not "
                             "reproduce the input relation")
    return t
