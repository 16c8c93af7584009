import random
import tracemalloc
from itertools import combinations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import (all_labeled_graphs, random_block_graph,
                      random_false_twin_blowup, random_graph, random_tree,
                      reference_verify)
from exact2rel import construct
from exact2rel.graphs import collector_paused
from exact2rel import (EnumerationBudget, Graph, LabeledTree, OrientedGraph,
                       VerificationResult, block_decomposition, blow_up,
                       canonicalize,
                       connected_components, construct_block_tree,
                       construct_oriented, explain, explainable_set,
                       format_newick, from_arc_list, from_edge_list,
                       induced_subgraph, is_canonical, is_zero_discrete,
                       join_components, leaf_distance_matrix, parse_newick,
                       quotient, recognize, recognize_oriented, verify)


def P(n, pairs):
    return from_edge_list(n, pairs)


def test_recognize_yes_pinned():
    cases = {
        "path4": P(4, [(0, 1), (1, 2), (2, 3)]),
        "cycle4": P(4, [(0, 1), (1, 2), (2, 3), (0, 3)]),
        "complete4": P(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]),
        "diamond": P(4, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)]),
        "bowtie": P(5, [(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)]),
        "star": P(5, [(0, 1), (0, 2), (0, 3), (0, 4)]),
        "two_edges": P(4, [(0, 1), (2, 3)]),
        "empty": P(3, []),
        "single": P(1, []),
    }
    for name, g in cases.items():
        out = recognize(g)
        assert out.decision, name
        assert out.certificate is None
        assert verify(out.witness, g, 2).ok, name
        if g.n >= 2:
            assert is_canonical(out.witness), name


def test_recognize_witness_strings_pinned():
    out = recognize(P(4, [(0, 1), (1, 2), (2, 3), (0, 3)]))
    assert format_newick(out.witness) == "(0:0,(1:0,3:0):2,2:0);"
    out = recognize(P(4, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)]))
    assert format_newick(out.witness) == "(0:0,(1:1,2:1):1,3:0);"


def test_recognize_no_pinned():
    c5 = P(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
    out = recognize(c5)
    assert not out.decision
    assert out.witness is None
    assert out.certificate == (0, 1, 2, 3, 4)

    # a twin blow-up of the 5-cycle still fails, and the certificate
    # names representatives of the offending quotient block
    blown = P(6, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (5, 1), (5, 4)])
    out = recognize(blown)
    assert not out.decision
    assert out.certificate == (0, 1, 2, 3, 4)


def test_recognize_rejects_other_levels():
    with pytest.raises(ValueError):
        recognize(P(2, [(0, 1)]), k=3)
    with pytest.raises(ValueError):
        recognize(P(0, []))


def test_recognize_matches_enumeration_small():
    es = explainable_set(EnumerationBudget(max_leaves=4), 2)
    for n in range(1, 5):
        for g in all_labeled_graphs(n):
            assert recognize(g).decision == es.contains(g)


def test_recognize_on_random_block_blowups():
    rng = random.Random(527)
    for _ in range(60):
        base = random_block_graph(rng, rng.randint(2, 6))
        g = random_false_twin_blowup(rng, base, max_n=12)
        out = recognize(g)
        assert out.decision
        assert verify(out.witness, g, 2).ok
        assert sorted(out.witness.names.values()) == sorted(
            str(v) for v in range(g.n))


def test_construct_block_tree_pinned():
    t = construct_block_tree(P(2, [(0, 1)]))
    assert format_newick(t) == "(1:2)0;"
    t = construct_block_tree(P(3, [(0, 1), (1, 2)]))
    assert format_newick(t) == "(0:2,1:0,2:2);"
    t = construct_block_tree(P(3, [(0, 1), (0, 2), (1, 2)]))
    assert format_newick(t) == "(0:1,1:1,2:1);"


def test_construct_block_tree_distances_are_exact():
    rng = random.Random(90)
    for _ in range(40):
        g = random_block_graph(rng, rng.randint(2, 9))
        if len(connected_components(g)) != 1:
            continue
        t = construct_block_tree(g)
        assert is_zero_discrete(t)
        dm = leaf_distance_matrix(t)
        for a in range(g.n):
            for b in range(a + 1, g.n):
                assert (dm.get(str(a), str(b)) == 2) == g.has_edge(a, b)


def test_construct_block_tree_rejects_bad_input():
    with pytest.raises(ValueError):
        construct_block_tree(P(4, [(0, 1), (1, 2), (2, 3), (0, 3)]))
    with pytest.raises(ValueError):
        construct_block_tree(P(4, [(0, 1), (2, 3)]))
    with pytest.raises(ValueError):
        construct_block_tree(P(1, []))


def test_join_components_keeps_pieces_apart():
    singles = [LabeledTree.build(1, [], {0: str(i)}) for i in range(3)]
    j = join_components(singles, 2)
    dm = leaf_distance_matrix(j)
    for a in range(3):
        for b in range(a + 1, 3):
            assert dm.get(str(a), str(b)) >= 3
    assert explain(canonicalize(j), 2).m == 0


def test_join_components_two_cherries():
    cherry = parse_newick("(1:2)0;")
    other = parse_newick("(3:2)2;")
    j = join_components([cherry, other], 2)
    g = explain(canonicalize(j), 2)
    assert sorted(g.edges) == [(0, 1), (2, 3)]


def test_blow_up_cycle4():
    c4 = P(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    q = quotient(c4)
    tstar = construct_block_tree(q.graph)
    t = canonicalize(blow_up(tstar, q.partition, 2))
    assert explain(t, 2) == c4
    assert format_newick(t) == "(0:0,(1:0,3:0):2,2:0);"


def test_blow_up_single_class_shapes():
    # an edgeless graph collapses to one class; 2 and 3 members take
    # different small-tree branches
    for n, expected in ((2, "(1:0)0;"), (3, "(0:0,1:0,2:0);")):
        g = P(n, [])
        out = recognize(g)
        assert format_newick(out.witness) == expected


def test_verify_reports_mismatches():
    g = P(4, [(0, 1), (1, 2), (2, 3)])
    good = parse_newick("(0:2,1:0,(2:0,3:2):2);")
    assert verify(good, g, 2).ok

    res = verify(good, P(4, [(0, 1), (1, 2)]), 2)
    assert not res.ok
    assert res.extra == ((2, 3),)
    assert res.missing == ()

    res = verify(good, P(4, [(0, 1), (0, 2), (1, 2), (2, 3)]), 2)
    assert not res.ok
    assert res.missing == ((0, 2),)

    res = verify(parse_newick("(a:2,b:0);"), P(2, [(0, 1)]), 2)
    assert not res.ok
    assert res.name_mismatch


@given(st.integers(1, 7), st.randoms(use_true_random=False))
def test_recognize_sound_with_valid_certificates(n, rng):
    g = random_graph(rng, n, rng.uniform(0.1, 0.9))
    out = recognize(g)
    if out.decision:
        assert verify(out.witness, g, 2).ok
    else:
        sub = induced_subgraph(g, sorted(out.certificate))
        assert not all(sub.has_edge(a, b)
                       for a, b in combinations(range(sub.n), 2))


def test_recognize_witness_is_least_weight_on_quotient_free_graphs():
    # for twin-free block graphs the constructed tree is exactly the
    # block tree, whose distances are forced
    g = P(5, [(0, 1), (1, 2), (1, 3), (3, 4)])
    out = recognize(g)
    dm = leaf_distance_matrix(out.witness)
    for a in range(5):
        for b in range(a + 1, 5):
            assert (dm.get(str(a), str(b)) == 2) == g.has_edge(a, b)


def weight_nudges(t):
    """``t`` with one edge weight moved by -1 or +1, for every edge."""
    edges = t.weighted_edges()
    for i, (u, v, w) in enumerate(edges):
        for nudged in (w - 1, w + 1):
            if nudged >= 0:
                yield LabeledTree.build(
                    t.nv, edges[:i] + [(u, v, nudged)] + edges[i + 1:],
                    t.names)


def test_verify_matches_all_pairs_on_small_witnesses():
    failed = 0
    for n in range(1, 6):
        for g in all_labeled_graphs(n):
            out = recognize(g)
            if not out.decision:
                continue
            assert verify(out.witness, g, 2).ok
            for t in weight_nudges(out.witness):
                got = verify(t, g, 2)
                assert got == reference_verify(t, g, 2)
                failed += not got.ok
    assert failed > 1000


@given(st.integers(1, 14), st.integers(1, 4), st.randoms(use_true_random=False))
def test_verify_matches_all_pairs_on_random_trees(nv, k, rng):
    t = random_tree(rng, nv)
    leaves = sorted(t.names)
    rng.shuffle(leaves)
    t = LabeledTree.build(t.nv, t.weighted_edges(),
                          {v: str(i) for i, v in enumerate(leaves)})
    dm = leaf_distance_matrix(t)
    related = {tuple(sorted((int(a), int(b))))
               for a, b in combinations(dm.names, 2) if dm.get(a, b) == k}
    pairs = list(combinations(range(len(leaves)), 2))
    graphs = [from_edge_list(len(leaves), related)]
    if pairs:
        flip = rng.choice(pairs)
        graphs.append(from_edge_list(len(leaves), related ^ {flip}))
    unrelated = sorted(set(pairs) - related)
    if related and unrelated:
        swap = {rng.choice(sorted(related)), rng.choice(unrelated)}
        graphs.append(from_edge_list(len(leaves), related ^ swap))
    for g in graphs:
        assert verify(t, g, k) == reference_verify(t, g, k)


def test_verify_lists_one_dropped_and_one_added_pair():
    rng = random.Random(1000)
    g = random_block_graph(rng, 1000)
    t = recognize(g).witness
    dropped = rng.choice(sorted(g.edges))
    while True:
        added = tuple(sorted(rng.sample(range(g.n), 2)))
        if added not in g.edges:
            break
    h = from_edge_list(g.n, (g.edges - {dropped}) | {added})
    assert verify(t, h, 2) == VerificationResult(False, (), (added,),
                                                 (dropped,))


def test_yes_paths_skip_the_all_pairs_comparison(monkeypatch):
    def refuse(*args):
        raise AssertionError("all-pairs comparison on a yes path")

    monkeypatch.setattr("exact2rel.trees.leaf_distance_matrix", refuse)
    monkeypatch.setattr("exact2rel.rooted.directed_relation_pairs", refuse)
    g = random_block_graph(random.Random(7), 10_000)
    assert recognize(g).decision
    path = from_arc_list(10_000, [(v, v + 1) for v in range(9_999)])
    assert construct_oriented(path).n_leaves == 10_000


def test_no_paths_never_build_the_edge_set(monkeypatch):
    def refuse(self):
        raise AssertionError("edge set built on a no path")

    monkeypatch.setattr(Graph, "edges", property(refuse))
    monkeypatch.setattr(OrientedGraph, "arcs", property(refuse))
    cycle = from_edge_list(2000, [(v, (v + 1) % 2000) for v in range(2000)])
    assert not recognize(cycle).decision
    # a chain whose last vertex also has an arc from an extra source
    in_star = from_arc_list(2001, [(v, v + 1) for v in range(1998)]
                            + [(2000, 1999), (1998, 1999)])
    out = recognize_oriented(in_star)
    assert (out.decision, out.reason) == (False, "in-star")


def test_recognize_decomposes_and_builds_once(monkeypatch):
    """Per call: one block decomposition and one validated tree build on
    a yes (none on a no), and no edge set built either way."""
    calls = {"blocks": 0, "build": 0}

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    blocks = counted("blocks", block_decomposition)
    monkeypatch.setattr("exact2rel.graphs.block_decomposition", blocks)
    monkeypatch.setattr("exact2rel.construct.block_decomposition", blocks)
    build = counted("build", LabeledTree.build.__func__)
    monkeypatch.setattr(LabeledTree, "build", classmethod(build))
    rng = random.Random(41)
    cases = [P(1, []), P(2, []), P(3, []), P(2, [(0, 1)]), P(5, [(0, 1)]),
             P(4, [(0, 1), (2, 3)]), P(5, [(0, 1), (1, 2), (2, 3), (3, 4)])]
    for _ in range(30):
        base = random_block_graph(rng, rng.randint(2, 12))
        cases.append(random_false_twin_blowup(rng, base, max_n=20))
    monkeypatch.setattr(Graph, "edges", property(
        lambda self: pytest.fail("edge set built during recognition")))
    for g in cases:
        calls.update(blocks=0, build=0)
        assert recognize(g).decision
        assert calls == {"blocks": 1, "build": 1}
    for g in (P(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)]),
              P(7, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (5, 6)])):
        calls.update(blocks=0, build=0)
        assert not recognize(g).decision
        assert calls == {"blocks": 1, "build": 0}


# ``recognize`` on P_5000, in MB above what was traced before the call:
# a peak of 5.9 and 3.07 retained by the outcome, as measured; keeping
# the draft whole, copying the quotient and keeping the blocks alive
# while the witness is built measures 12.1 and 3.3
PATH_PEAK_MB = 6.5
PATH_RETAINED_MB = 3.2


def traced_recognize(g):
    """``recognize(g)``'s peak and retained size in MB, as traced."""
    with collector_paused():
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            outcome = recognize(g)
            now, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert outcome.decision
    return (peak - before) / 2**20, (now - before) / 2**20


def within_the_memory_bounds(g):
    peak, retained = traced_recognize(g)
    return peak <= PATH_PEAK_MB and retained <= PATH_RETAINED_MB


def test_recognize_holds_each_structure_once(monkeypatch):
    """The draft streams into the witness and is gone as it is built,
    the path is its own quotient, and the blocks are freed before the
    draft is canonicalized.  Negative controls: keeping the draft's
    dicts or the block decomposition alive fails the bounds."""
    g = P(5000, [(v, v + 1) for v in range(4999)])
    assert within_the_memory_bounds(g)
    kept = []
    canonicalize_draft = construct._canonicalize
    monkeypatch.setattr(construct, "_canonicalize", lambda adj, names: (
        kept.append(list(adj.values())), canonicalize_draft(adj, names))[1])
    assert not within_the_memory_bounds(g)
    monkeypatch.undo()
    kept.clear()
    monkeypatch.setattr(construct, "block_decomposition", lambda q: (
        kept.append(block_decomposition(q)), kept[-1])[1])
    assert not within_the_memory_bounds(g)
