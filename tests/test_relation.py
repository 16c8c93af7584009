"""``relation_pairs``, the one listing of the level-k leaf relation, and
everything that reads it (``explain``, ``directed_explain``,
``directed_relation_pairs`` and ``relation_matches``, the one check of a
tree against a graph, behind ``verify`` and both self-checks), against
the all-pairs references: the leaf distance matrix, ``reference_verify``
and ``reference_directed_relation_pairs``.  ``is_zero_discrete`` walks
the 0-weight edges instead; it must agree with the level-0 matrix.
"""

import random
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (adjacency, numbered, reference_directed_relation_pairs,
                      reference_verify)
from exact2rel import (LabeledTree, RootedLabeledTree, construct_oriented,
                       directed_explain, directed_relation_pairs,
                       enumerate_rooted, enumerate_topologies, explain,
                       from_arc_list, from_edge_list, is_zero_discrete,
                       leaf_distance_matrix, recognize, verify)
from exact2rel.cli import main
from exact2rel.trees import relation_matches, relation_pairs


def matrix_pairs(t, k):
    """Leaf-name pairs (sorted within the pair) at path weight ``k``,
    from the all-pairs distance matrix."""
    dm = leaf_distance_matrix(t)
    return {(a, b) for a, b in combinations(dm.names, 2) if dm.get(a, b) == k}


def listed(t, root, k, directed=False):
    """``relation_pairs`` as leaf names, checked to list each pair once."""
    pairs = relation_pairs(t, root, k, directed)
    assert len(set(pairs)) == len(pairs)
    assert all(x in t.names and y in t.names and x != y for x, y in pairs)
    return [(t.names[x], t.names[y]) for x, y in pairs]


def check_undirected(t, rng):
    """Every reader of the undirected relation equals its reference at
    k = 0..4, from every root, and the relation check accepts the
    related pairs and refuses them with one dropped, one added, or one
    swapped for an unrelated pair."""
    index = {s: i for i, s in enumerate(t.leaf_names)}
    nt = numbered(t)
    n = nt.n_leaves
    for k in range(5):
        want = matrix_pairs(t, k)
        edges = sorted((index[a], index[b]) for a, b in want)
        others = sorted(set(combinations(range(n), 2)) - set(edges))
        for root in range(t.nv):
            got = listed(t, root, k)
            assert len(got) == len(want)
            assert {tuple(sorted(p)) for p in got} == want
            assert relation_matches(nt, root, k, adjacency(n, edges))
        for wrong in (edges[1:], edges + others[:1], edges[1:] + others[:1]):
            if wrong != edges:
                assert not relation_matches(nt, 0, k, adjacency(n, wrong))
        if k == 0:
            assert is_zero_discrete(t) == (not want)
            continue
        g = from_edge_list(n, edges)
        assert explain(t, k) == g
        toggled = [g]
        if n >= 2:
            u, v = sorted(rng.sample(range(n), 2))
            toggled.append(from_edge_list(n, g.edges ^ {(u, v)}))
            toggled.append(from_edge_list(n, set(combinations(range(n), 2))
                                          - g.edges))
        toggled.append(from_edge_list(n + 1, g.edges))
        for h in toggled:
            assert verify(nt, h, k) == reference_verify(nt, h, k)
        assert verify(nt, g, k).ok


def weightings(topo, rng, lows, count):
    """``count`` random weight vectors for ``topo``'s edges in 0..3,
    each at least its entry of ``lows``."""
    edges = topo.weighted_edges()
    for _ in range(count):
        ws = [rng.randint(lo, 3) for lo in lows]
        yield LabeledTree.build(
            topo.nv, [(u, v, w) for (u, v, _), w in zip(edges, ws)],
            topo.names)


def test_undirected_readers_match_the_matrix_on_small_shapes():
    rng = random.Random(14)
    for n in range(1, 6):
        for topo in enumerate_topologies(n):
            lows = [0] * len(topo.weighted_edges())
            for t in weightings(topo, rng, lows, 6):
                check_undirected(t, rng)


def test_directed_readers_match_the_reference_on_every_rooting():
    rng = random.Random(15)
    for n in range(2, 6):
        for topo in enumerate_topologies(n):
            lows = [int(u not in topo.names and v not in topo.names)
                    for u, v, _ in topo.weighted_edges()]
            for t in weightings(topo, rng, lows, 4):
                for rt in enumerate_rooted(t):
                    check_directed(rt)


def check_directed(rt):
    index = {s: i for i, s in enumerate(rt.leaf_names)}
    nrt = numbered(rt)
    n = rt.n_leaves
    for k in range(5):
        want = reference_directed_relation_pairs(rt, k)
        got = listed(rt, rt.root, k, directed=True)
        assert len(got) == len(want) and set(got) == want
        arcs = sorted((index[a], index[b]) for a, b in want)
        assert relation_matches(nrt, nrt.root, k, adjacency(n, arcs, True),
                                directed=True)
        if arcs and k:  # at k = 0 the relation is symmetric
            flipped = [(y, x) for x, y in arcs]
            assert not relation_matches(nrt, nrt.root, k,
                                        adjacency(n, flipped, True),
                                        directed=True)
        if k:
            assert directed_relation_pairs(rt, k) == want
            assert directed_explain(rt, k) == from_arc_list(n, arcs)


def zero_chain_tree(rng, nv):
    """A random tree on ``nv`` vertices where most edges weigh 0 and new
    vertices mostly extend the newest one, so long 0-chains and
    degree-2 runs are common."""
    edges = []
    for v in range(1, nv):
        u = v - 1 if rng.random() < 0.6 else rng.randrange(v)
        edges.append((u, v, 0 if rng.random() < 0.6 else rng.randint(1, 3)))
    adj = [[] for _ in range(nv)]
    for u, v, _ in edges:
        adj[u].append(v)
        adj[v].append(u)
    leaves = [v for v in range(nv) if len(adj[v]) <= 1]
    return LabeledTree.build(nv, edges, {v: f"x{v}" for v in leaves})


@settings(deadline=None, max_examples=60)
@given(st.integers(1, 30), st.integers(0, 2**32 - 1).map(random.Random))
def test_zero_chains_match_the_references(nv, rng):
    t = zero_chain_tree(rng, nv)
    check_undirected(t, rng)
    interior = [v for v in range(nv) if v not in t.names]
    if interior:
        rt = RootedLabeledTree.build(nv, t.weighted_edges(), t.names,
                                     root=rng.choice(interior))
        check_directed(rt)


def test_no_reader_walks_all_leaf_pairs(monkeypatch):
    def refuse(*args):
        raise AssertionError("all-pairs distance matrix")

    monkeypatch.setattr("exact2rel.trees.leaf_distance_matrix", refuse)
    g = from_edge_list(6, [(v, v + 1) for v in range(5)])
    t = recognize(g).witness
    assert explain(t, 2).m == 5
    assert is_zero_discrete(t)
    result = verify(t, from_edge_list(6, [(0, 1), (0, 5)]), 2)
    assert not result.ok and result.missing == ((0, 5),)
    path = from_arc_list(4, [(0, 1), (1, 2), (2, 3)])
    assert directed_explain(construct_oriented(path), 2).m == 3


def test_zero_discreteness_of_large_stars():
    # listing the weight-0 pairs of the first star would take
    # C(10^5, 2) pairs; the answer needs one walk
    n = 10**5
    names = {v: f"x{v}" for v in range(1, n + 1)}
    zero_spokes = [(0, v, 0) for v in names]
    assert not is_zero_discrete(LabeledTree.build(n + 1, zero_spokes, names))
    one_zero = zero_spokes[:1] + [(0, v, 1) for v in range(2, n + 1)]
    assert is_zero_discrete(LabeledTree.build(n + 1, one_zero, names))


def test_explain_lists_a_long_path_witness():
    n = 5000
    g = from_edge_list(n, [(v, v + 1) for v in range(n - 1)])
    t = recognize(g).witness
    index = {s: i for i, s in enumerate(t.leaf_names)}
    want = from_edge_list(n, [(index[str(u)], index[str(v)])
                              for u, v in g.edges])
    assert explain(t, 2) == want


# ----------------------------------------------------------------------
# negative controls: a witness nudged after it is built fails its check
# ----------------------------------------------------------------------

def nudge(edges, names):
    """``edges`` with the weight of the edge at leaf "0" raised by one."""
    (leaf,) = [v for v, s in names.items() if s == "0"]
    return [(u, v, w + (leaf in (u, v))) for u, v, w in edges]


def test_recognize_self_check_catches_a_nudged_witness(monkeypatch, tmp_path,
                                                      capsys):
    import exact2rel.construct as construct
    canonicalize = construct._canonicalize

    def nudged(adj, names):
        t = canonicalize(adj, names)
        return LabeledTree.build(t.nv, nudge(t.weighted_edges(), t.names),
                                 t.names)

    monkeypatch.setattr(construct, "_canonicalize", nudged)
    g = from_edge_list(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
    with pytest.raises(AssertionError, match="^internal error: witness "
                                             "failed verification"):
        recognize(g)
    path = tmp_path / "g.txt"
    path.write_text("5 4\n0 1\n1 2\n2 3\n3 4\n")
    assert main(["recognize", str(path)]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("internal error: AssertionError: internal error: "
                          "witness failed verification")


def test_oriented_self_check_catches_a_nudged_witness(monkeypatch, tmp_path,
                                                     capsys):
    build = RootedLabeledTree.build

    def nudged(cls, nv, edges, names, root):
        return build(nv, nudge(list(edges), names), names, root=root)

    monkeypatch.setattr(RootedLabeledTree, "build", classmethod(nudged))
    d = from_arc_list(4, [(0, 1), (1, 2), (1, 3)])
    with pytest.raises(AssertionError, match="^internal error: constructed "
                                             "tree does not reproduce"):
        construct_oriented(d)
    path = tmp_path / "d.txt"
    path.write_text("4 3\n0 1\n1 2\n1 3\n")
    assert main(["recognize", "--oriented", str(path)]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("internal error: AssertionError: internal error: "
                   "constructed tree does not reproduce the input "
                   "relation\n")

