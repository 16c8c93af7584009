import os
import random
import resource
import subprocess
import sys
from itertools import permutations, product
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import (adjacency, all_labeled_oriented, ancestors,
                      brute_force_rootings, lca, numbered, parents,
                      random_arborescence_forest, random_canonical_tree,
                      random_directed_twin_blowup, random_rooted_tree,
                      random_tree, reference_directed_relation_pairs,
                      reference_enumerate_rooted, reference_rootings,
                      up_weight)
from exact2rel import (LabeledTree, RootedLabeledTree, canonicalize, construct_oriented, directed_explain,
                       directed_relation_pairs, directed_twin_partition,
                       enumerate_rooted, enumerate_topologies, format_newick,
                       format_rooted_newick, from_arc_list,
                       is_canonical_rooted, is_zero_discrete, parse_newick,
                       parse_oriented, parse_rooted_newick, recognize_oriented,
                       underlying_tree)
from exact2rel.oracle import unlabeled_shapes
from exact2rel import rooted
from exact2rel.trees import relation_matches


def test_build_rejects_named_root():
    with pytest.raises(ValueError):
        RootedLabeledTree.build(2, [(0, 1, 2)], {0: "r", 1: "x"}, root=0)


def test_build_rejects_bare_root():
    with pytest.raises(ValueError):
        RootedLabeledTree.build(1, [], {}, root=0)


def test_build_rejects_missing_leaf_name():
    with pytest.raises(ValueError):
        RootedLabeledTree.build(3, [(0, 1, 1), (0, 2, 1)], {1: "a"}, root=0)


def test_build_rejects_empty_leaf_name():
    with pytest.raises(ValueError, match="^empty leaf name$"):
        RootedLabeledTree.build(3, [(0, 1, 0), (0, 2, 2)], {1: "", 2: "b"},
                                root=0)
    with pytest.raises(ValueError, match="^empty leaf name$"):
        LabeledTree.build(3, [(0, 1, 0), (0, 2, 2)], {1: "", 2: "b"})


def test_ancestor_queries():
    t = parse_rooted_newick("(a:1,(b:0,c:2):3);")
    a, b, c = (t.vertex_of(s) for s in "abc")
    assert lca(t, b, c) == parents(t)[b]
    assert lca(t, a, c) == t.root
    assert up_weight(t, c, t.root) == 5
    assert up_weight(t, b, lca(t, b, c)) == 0
    assert ancestors(t, a) == [a, t.root]


def test_directed_relation_chain():
    t = parse_rooted_newick("(0:0,(1:0,2:2):2);")
    assert directed_relation_pairs(t, 2) == {("0", "1"), ("1", "2")}
    assert directed_explain(t, 2) == from_arc_list(3, [(0, 1), (1, 2)])
    assert directed_relation_pairs(t, 4) == {("0", "2")}
    with pytest.raises(ValueError):
        directed_relation_pairs(t, 0)


def test_directed_relation_never_symmetric():
    rng = random.Random(31)
    for _ in range(60):
        t = random_rooted_tree(rng, rng.randint(2, 6))
        for k in (1, 2, 3):
            d = directed_explain(t, k)
            for u, v in d.arcs:
                assert not d.has_arc(v, u)


def test_enumerate_rooted_counts_pinned():
    counts = {
        "(b:2)a;": 3,
        "(a:1,b:1,c:1);": 4,
        "(a:1,b:1,c:1,d:1);": 5,
        "(a:2,b:0,(c:0,d:2):2);": 7,
    }
    for s, want in counts.items():
        assert len(list(enumerate_rooted(parse_newick(s)))) == want, s


def test_enumerate_rooted_strings_pinned():
    rs = enumerate_rooted(parse_newick("(b:2)a;"))
    assert sorted(format_rooted_newick(r) for r in rs) == [
        "(a:0,b:2);", "(a:1,b:1);", "(a:2,b:0);"]
    rs = enumerate_rooted(parse_newick("(a:1,b:1,c:1);"))
    assert sorted(format_rooted_newick(r) for r in rs) == [
        "((a:1,b:1):1,c:0);", "((a:1,c:1):1,b:0);",
        "(a:0,(b:1,c:1):1);", "(a:1,b:1,c:1);"]


def test_enumerate_rooted_streams_and_checks_at_the_call():
    rs = enumerate_rooted(parse_newick("(a:1,b:1,c:1);"))
    assert iter(rs) is rs
    # the interior root first, then one split of each leaf edge
    assert [r.nv for r in rs] == [4, 5, 5, 5] and list(rs) == []
    with pytest.raises(ValueError, match="single-vertex"):
        enumerate_rooted(parse_newick("a;"))
    with pytest.raises(ValueError, match="canonical"):
        enumerate_rooted(parse_newick("((a:1,b:1):0,c:1,d:1);"))


def test_rootings_build_no_name_map():
    """No rooting builds the name -> vertex map (``exact2rel roots``
    never reads it); writing and hashing a tree build none either, and
    ``vertex_of`` still answers afterwards."""
    t = canonicalize(random_tree(random.Random(46), 40))
    format_newick(t), hash(t)
    assert t._vertex == {}
    for r in enumerate_rooted(t):
        format_rooted_newick(r), hash(r)
        assert r._vertex == {}
        assert all(r.names[r.vertex_of(s)] == s for s in r.leaf_names)
    assert [t.vertex_of(s) for s in t.leaf_names] == sorted(
        t.names, key=t.names.get)


CYCLIC_WALKS = """
from exact2rel import (RootedLabeledTree, enumerate_rooted,
                       format_rooted_newick, parse_newick, rooted)
from exact2rel.trees import relation_pairs


def every_walk_stops(t):
    for walk in (lambda: relation_pairs(t, t.root, 2),
                 lambda: format_rooted_newick(t), lambda: hash(t)):
        try:
            walk()
        except ValueError as exc:
            assert "cycle" in str(exc), exc
        else:
            raise SystemExit("a walk ended on storage with a cycle")


# the triangle 0-1-2 under the root 0, hung without validation
adj = ({1: 1, 2: 1}, {0: 1, 2: 1, 3: 1}, {0: 1, 1: 1, 4: 1}, {1: 1}, {2: 1})
every_walk_stops(RootedLabeledTree._hung(5, adj, {3: "a", 4: "b"}, 0))

# a mutant edge split: the rooting keeps the edge it splits
real = rooted._split


def keeps_the_old_edge(t, u, v, m, j):
    r = real(t, u, v, m, j)
    r.adj[u][v] = r.adj[v][u] = m
    return r


rooted._split = keeps_the_old_edge
t = parse_newick("((a:1,b:2):1,c:1,(d:3,e:1):2);")
splits = [r for r in enumerate_rooted(t) if r.nv > t.nv]
assert len(splits) == 9
for r in splits:
    every_walk_stops(r)
"""

# the child's address space: a walk that never stops runs out here
CYCLIC_WALKS_ADDRESS_SPACE = 2**30


def test_walks_stop_on_storage_with_a_cycle():
    """Trees hung without validation whose storage holds a cycle, the
    triangle and each rooting of a mutant edge split that keeps the old
    edge: ``relation_pairs``, ``format_rooted_newick`` and ``hash`` end
    in ValueError.  A walk that never stopped would grow without bound,
    so this runs in a child process with a capped address space."""
    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (CYCLIC_WALKS_ADDRESS_SPACE,
                                                CYCLIC_WALKS_ADDRESS_SPACE))

    env = {**os.environ, "PYTHONPATH": str(Path(rooted.__file__).parents[1])}
    run = subprocess.run([sys.executable, "-c", CYCLIC_WALKS], env=env,
                         capture_output=True, text=True, timeout=120,
                         preexec_fn=cap)
    assert run.returncode == 0, run.stderr[-2000:]


def test_enumerate_rooted_zero_leaf_edges():
    # every leaf edge weight 0 blocks rooting inside those edges: only
    # the two interior placements survive
    rs = enumerate_rooted(parse_newick("(a:0,b:0,(c:0,d:0):1);"))
    assert sorted(format_rooted_newick(r) for r in rs) == [
        "((a:0,b:0):1,c:0,d:0);", "(a:0,b:0,(c:0,d:0):1);"]


def test_enumerate_rooted_outputs_are_valid():
    rng = random.Random(77)
    for _ in range(30):
        t = random_canonical_tree(rng, rng.randint(2, 5))
        for r in enumerate_rooted(t):
            assert is_canonical_rooted(r)
            assert canonicalize(underlying_tree(r)) == t


def test_enumerate_rooted_matches_brute_force():
    rng = random.Random(40)
    for _ in range(25):
        while True:
            t = random_canonical_tree(rng, rng.randint(2, 5))
            if not (t.n_leaves == 2 and t.total_weight() == 0):
                break
        assert set(enumerate_rooted(t)) == brute_force_rootings(t)


def test_enumerate_rooted_matches_the_three_moves():
    """The one split loop gives the rootings of the three moves it
    replaced, on every canonical weighting from {0, 1, 3} (interior
    edges {1, 3}) of every shape with 2-5 leaves.  An edge's splits
    depend only on its ends and on whether its weight is 0, 1 or more,
    so these weights reach every case of every edge."""
    trees = rootings = 0
    for n in range(2, 6):
        for shape in unlabeled_shapes(n):
            edges = shape.weighted_edges()
            choices = [(0, 1, 3) if u in shape.names or v in shape.names
                       else (1, 3) for u, v, _ in edges]
            for ws in product(*choices):
                t = LabeledTree.build(shape.nv, [
                    (u, v, w) for (u, v, _), w in zip(edges, ws)], shape.names)
                got = list(enumerate_rooted(t))
                assert set(got) == reference_enumerate_rooted(t), ws
                trees += 1
                rootings += len(got)
    assert (trees, rootings) == (1974, 19905)
    # the two 2-leaf cases: a 0-edge has no rooting, a weight-m edge m + 1
    assert list(enumerate_rooted(parse_newick("(b:0)a;"))) == []
    assert len(list(enumerate_rooted(parse_newick("(b:3)a;")))) == 4


def snapshot(t):
    """Everything a tree holds, dict order included."""
    return (t.nv, [list(a.items()) for a in t.adj], list(t.names.items()))


def assert_rootings_built_alike(t):
    """Each rooting has the storage and root of a validated build of the
    same placement, and walking them all leaves ``t`` as it was."""
    before = snapshot(t)
    got = list(enumerate_rooted(t))
    assert snapshot(t) == before
    want = list(reference_rootings(t))
    assert len(got) == len(want)
    for r, b in zip(got, want):
        assert (r.nv, r.adj, r.names, r.root) == (b.nv, b.adj, b.names, b.root)
        assert r == b


def test_rootings_share_the_input_and_are_built_alike(monkeypatch):
    """Every labeled shape with 2-5 leaves under random canonical
    weights: rootings equal validated builds of their placements, and
    ``enumerate_rooted`` builds none of them."""
    rng = random.Random(25)
    builds = []
    real = RootedLabeledTree.build.__func__

    def counted(cls, *args, **kwargs):
        builds.append(args)
        return real(cls, *args, **kwargs)

    for n in range(2, 6):
        for topo in enumerate_topologies(n):
            for _ in range(2):
                t = LabeledTree.build(topo.nv, [
                    (u, v, rng.randint(0 if u in topo.names
                                       or v in topo.names else 1, 3))
                    for u, v, _ in topo.weighted_edges()], topo.names)
                monkeypatch.setattr(RootedLabeledTree, "build",
                                    classmethod(counted))
                rootings = list(enumerate_rooted(t))
                monkeypatch.undo()
                assert builds == []
                if t.nv > 2:  # an interior rooting shares t's storage
                    assert rootings[0].adj is t.adj
                    assert rootings[0].names is t.names
                assert_rootings_built_alike(t)


@given(st.integers(3, 30), st.randoms(use_true_random=False),
       st.lists(st.text("abyzAZ09_.-", min_size=2, max_size=5),
                min_size=30, max_size=30, unique=True))
def test_rootings_are_built_alike_on_named_trees(nv, rng, labels):
    base = canonicalize(random_tree(rng, nv))
    name = dict(zip(base.leaf_names, labels))
    assert_rootings_built_alike(LabeledTree.build(
        base.nv, base.weighted_edges(),
        {v: name[s] for v, s in base.names.items()}))


def test_zero_weight_pair_divergence():
    # the one shape where the move-based enumeration and the placement
    # search disagree: a weight-0 pair admits a midpoint rooting that no
    # move generates
    t = parse_newick("(b:0)a;")
    assert list(enumerate_rooted(t)) == []
    brute = brute_force_rootings(t)
    assert len(brute) == 1
    assert format_rooted_newick(next(iter(brute))) == "(a:0,b:0);"


def test_brute_force_rootings_rejects_bad_input():
    with pytest.raises(ValueError):
        brute_force_rootings(parse_newick("a;"))
    noncanon = LabeledTree.build(3, [(0, 2, 1), (2, 1, 1)], {0: "a", 1: "b"})
    with pytest.raises(ValueError):
        brute_force_rootings(noncanon)


def test_recognize_oriented_yes():
    cases = [
        (3, [(0, 1), (1, 2)]),
        (3, [(0, 1), (0, 2)]),
        (3, [(0, 2), (1, 2)]),          # sources are directed twins
        (4, [(0, 2), (1, 2), (0, 3), (1, 3)]),
        (4, [(0, 1), (2, 3)]),
        (2, []),
    ]
    for n, arcs in cases:
        out = recognize_oriented(from_arc_list(n, arcs))
        assert out.decision, arcs
        assert out.certificate is None


def test_empty_oriented_graph_has_no_tree():
    empty = from_arc_list(0, [])
    for decide in (recognize_oriented, construct_oriented):
        with pytest.raises(ValueError, match="^the empty graph has no tree: "
                                             "a tree needs a leaf$"):
            decide(empty)


def test_recognize_oriented_no():
    out = recognize_oriented(from_arc_list(3, [(0, 1), (1, 2), (2, 0)]))
    assert (not out.decision and out.reason == "cycle"
            and out.certificate == (0, 1, 2))
    out = recognize_oriented(from_arc_list(3, [(0, 1), (0, 2), (1, 2)]))
    assert (not out.decision and out.reason == "cycle"
            and out.certificate == (0, 1, 2))
    # two non-twin in-neighbours: 0 and 2 both feed 1, but 2 also has an
    # in-arc, so the pair survives the quotient
    out = recognize_oriented(from_arc_list(4, [(0, 1), (2, 1), (3, 2)]))
    assert (not out.decision and out.reason == "in-star"
            and out.certificate == (0, 2, 1))


def test_construct_oriented_pinned():
    cases = {
        (3, ((0, 1), (1, 2))): "(0:0,(1:0,2:2):2);",
        (1, ()): "(0:0);",
        (2, ()): "(0:0,1:0);",
        (4, ((0, 1), (2, 3))): "((0:0,1:2):3,(2:0,3:2):3);",
        (5, ((0, 1), (2, 3))): "((0:0,1:2):3,(2:0,3:2):3,4:3);",
        (3, ((0, 1), (0, 2))): "(0:0,1:2,2:2);",
        (3, ((0, 2), (1, 2))): "(0:0,1:0,2:2);",
        (4, ((0, 2), (1, 2), (0, 3), (1, 3))): "(0:0,1:0,2:2,3:2);",
    }
    for (n, arcs), want in cases.items():
        rt = construct_oriented(from_arc_list(n, list(arcs)))
        assert format_rooted_newick(rt) == want


def test_construct_oriented_refuses_unexplainable():
    with pytest.raises(ValueError):
        construct_oriented(from_arc_list(3, [(0, 1), (1, 2), (2, 0)]))


def test_construct_oriented_round_trip():
    rng = random.Random(88)
    for _ in range(80):
        d = random_arborescence_forest(rng, rng.randint(1, 8))
        if rng.random() < 0.5:
            d = random_directed_twin_blowup(rng, d, max_n=10)
        rt = construct_oriented(d)
        # the lone unavoidable exception: one vertex forces a
        # single-child root
        assert is_canonical_rooted(rt) or d.n == 1
        assert directed_explain(rt, 2) == d
        assert sorted(rt.names.values()) == sorted(str(v) for v in range(d.n))


def test_construct_oriented_twin_free_is_zero_discrete():
    rng = random.Random(12)
    for _ in range(40):
        d = random_arborescence_forest(rng, rng.randint(2, 8))
        if any(len(c) > 1 for c in directed_twin_partition(d).classes):
            continue
        t = underlying_tree(construct_oriented(d))
        assert is_zero_discrete(t)


def test_directed_relation_pairs_match_reference_on_small_rootings():
    for n in range(2, 5):
        for topo in enumerate_topologies(n):
            edges = topo.weighted_edges()
            lows = [int(u not in topo.names and v not in topo.names)
                    for u, v, _ in edges]
            for ws in product(range(3), repeat=len(edges)):
                if any(w < lo for w, lo in zip(ws, lows)):
                    continue
                t = LabeledTree.build(
                    topo.nv, [(u, v, w) for (u, v, _), w in zip(edges, ws)],
                    topo.names)
                for rt in enumerate_rooted(t):
                    for k in (1, 2, 3):
                        assert (directed_relation_pairs(rt, k)
                                == reference_directed_relation_pairs(rt, k))


def arcs_of(pairs):
    """Leaf-name pairs of a numbered tree as sorted graph arcs."""
    return sorted((int(a), int(b)) for a, b in pairs)


def matches(t, k, arcs):
    """``relation_matches`` of the numbered rooted tree ``t`` against
    the oriented graph with arcs ``arcs``."""
    return relation_matches(t, t.root, k, adjacency(t.n_leaves, arcs, True),
                            directed=True)


@given(st.integers(3, 14), st.integers(1, 4), st.randoms(use_true_random=False))
def test_directed_certificate_matches_reference(nv, k, rng):
    base = random_tree(rng, nv)
    t = numbered(RootedLabeledTree.build(
        nv, base.weighted_edges(), base.names,
        root=rng.choice(base.interior_vertices())))
    related = reference_directed_relation_pairs(t, k)
    assert directed_relation_pairs(t, k) == related
    arcs = arcs_of(related)
    assert matches(t, k, arcs)
    unrelated = sorted(set(permutations(t.leaf_names, 2)) - related)
    added = arcs_of([rng.choice(unrelated)]) if unrelated else []
    if arcs:
        i = rng.randrange(len(arcs))
        for rest in (arcs[:i] + arcs[i + 1:], arcs[:i] + arcs[i + 1:] + added):
            assert not matches(t, k, rest)
    if added:
        assert not matches(t, k, arcs + added)


def test_construct_oriented_certificate_on_all_small_digraphs():
    for n in range(1, 5):
        for d in all_labeled_oriented(n):
            if not recognize_oriented(d).decision:
                continue
            t = construct_oriented(d)
            want = {(str(x), str(y)) for x, y in d.arcs}
            assert reference_directed_relation_pairs(t, 2) == want
            arcs = arcs_of(want)
            others = arcs_of(set(permutations(map(str, range(n)), 2)) - want)
            # drop an arc, add a non-arc, or swap one for the other
            for i in range(len(arcs) + 1):
                rest = arcs[:i] + arcs[i + 1:]
                if i < len(arcs):
                    assert not matches(t, 2, rest)
                for pair in others:
                    assert not matches(t, 2, rest + [pair])


def test_cycle_certificate_ignores_line_order():
    """Oriented graphs with several underlying cycles, read from their arc
    lines in sorted and in shuffled order: the same outcome every time."""
    rng = random.Random(2718)
    cycles = 0
    for _ in range(40):
        n = rng.randint(10, 300)
        arcs = set()
        while len(arcs) < n + rng.randint(2, 8):
            u, v = rng.sample(range(n), 2)
            if (v, u) not in arcs:
                arcs.add((u, v))
        lines = [f"{u} {v}\n" for u, v in sorted(arcs)]
        want = recognize_oriented(parse_oriented(f"{n} {len(arcs)}\n"
                                                 + "".join(lines)))
        cycles += want.reason == "cycle"
        for _ in range(5):
            rng.shuffle(lines)
            text = f"{n} {len(arcs)}\n" + "".join(lines)
            assert recognize_oriented(parse_oriented(text)) == want
    assert cycles >= 30
