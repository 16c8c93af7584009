import gc
import random
import time
from itertools import combinations, permutations

import pytest

from conftest import (all_labeled_graphs, count_topologies_reference,
                      random_graph, reference_all_witnesses,
                      reference_explainable_masks, reference_images,
                      reference_unlabeled_shapes)
from exact2rel import (EnumerationBudget, all_witnesses,
                       check_characterization, enumerate_topologies,
                       explainable_set, format_newick,
                       format_report, from_arc_list, from_edge_list,
                       induced_subgraph, is_canonical, recognize,
                       rooted_explainable_set, verify)
from exact2rel import oracle
from exact2rel._kernel import matching_weightings
from exact2rel.graphs import collector_paused
from exact2rel.oracle import (LETTERS, _labeled, _prepare, _shapes,
                              _topologies, all_graph_classes,
                              all_oriented_classes, canonical_mask_of,
                              graph_to_mask, mask_to_graph, unlabeled_shapes)
from exact2rel.trees import LabeledTree, canonical_form

C4 = from_edge_list(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
DIAMOND = from_edge_list(4, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)])


def test_topology_counts():
    expected = {1: 1, 2: 1, 3: 1, 4: 4, 5: 26, 6: 236, 7: 2752}
    for n, count in expected.items():
        assert len(enumerate_topologies(n)) == count
        assert count_topologies_reference(n) == count


def test_topology_shapes_are_well_formed():
    for n in range(2, 7):
        seen = set()
        for t in enumerate_topologies(n):
            assert t.n_leaves == n
            assert t.leaf_names == [chr(ord("a") + i) for i in range(n)]
            for v in t.interior_vertices():
                assert len(t.adj[v]) >= 3
            seen.add(t)
        assert len(seen) == len(enumerate_topologies(n))


def test_unlabeled_shape_counts():
    # series-reduced trees by leaf count (Harary and Prins, 1959)
    assert ([len(unlabeled_shapes(n)) for n in range(1, 8)]
            == [1, 1, 1, 2, 3, 7, 13])


def test_unlabeled_shapes_match_the_blank_name_reference():
    """The same representatives, in the same order, as the smallest
    recursive form with every leaf name blanked."""
    for n in range(1, 8):
        assert list(unlabeled_shapes(n)) == reference_unlabeled_shapes(n)


def test_unlabeled_shapes_are_distinct_and_complete():
    """No representative is a relabeling of another, and every labeled
    topology is a relabeling of one, by trying every leaf permutation."""
    for n in range(1, 6):
        names = enumerate_topologies(n)[0].leaf_names
        relabeled = []
        for t in unlabeled_shapes(n):
            forms = set()
            for perm in permutations(names):
                rename = dict(zip(names, perm))
                forms.add(canonical_form(LabeledTree.build(
                    t.nv, t.weighted_edges(),
                    {v: rename[s] for v, s in t.names.items()})))
            assert all(forms.isdisjoint(other) for other in relabeled)
            relabeled.append(forms)
        assert ({canonical_form(t) for t in enumerate_topologies(n)}
                <= set().union(*relabeled))


@pytest.mark.parametrize("k", [1, 2, 3])
def test_one_kernel_call_per_unlabeled_shape(k):
    """The explainable sets (5 leaves) and rooted explainable sets (4)
    equal a reference that calls the kernel on every labeled topology,
    at caps k+1 and k+2, canonical and free weights, with and without
    zero-discrete."""
    for cap in (k + 1, k + 2):
        for canonical in (True, False):
            for zd in (False, True):
                b5 = EnumerationBudget(5, cap, canonical, zd)
                b4 = EnumerationBudget(4, cap, canonical, zd)
                assert (explainable_set(b5, k).masks
                        == reference_explainable_masks(b5, k))
                assert (rooted_explainable_set(b4, k).masks
                        == reference_explainable_masks(b4, k, rooted=True))


def test_topology_bounds():
    with pytest.raises(ValueError):
        enumerate_topologies(0)
    with pytest.raises(ValueError):
        enumerate_topologies(8)


def test_budget_validation():
    with pytest.raises(ValueError):
        EnumerationBudget(max_leaves=0).validate()
    with pytest.raises(ValueError):
        EnumerationBudget(max_leaves=8).validate()
    assert EnumerationBudget().resolve_weight(2) == 3
    assert EnumerationBudget(max_weight=5).resolve_weight(2) == 5


def test_graph_mask_round_trip():
    rng = random.Random(2)
    for _ in range(50):
        n = rng.randint(1, 6)
        g = random_graph(rng, n)
        assert mask_to_graph(n, graph_to_mask(g)) == g


def test_canonical_mask_is_relabeling_invariant():
    rng = random.Random(3)
    for _ in range(40):
        n = rng.randint(2, 6)
        g = random_graph(rng, n)
        perm = list(range(n))
        rng.shuffle(perm)
        h = from_edge_list(n, [(perm[a], perm[b]) for a, b in g.edges])
        assert (canonical_mask_of(graph_to_mask(g), n)
                == canonical_mask_of(graph_to_mask(h), n))


def test_class_counts():
    """One mask per class (OEIS A000088, A001174), each the least of its
    own orbit under the bit loop, so each its class's minimum; oriented
    masks hold no 2-cycle."""
    for n, count in zip(range(1, 7), (1, 2, 4, 11, 34, 156)):
        classes, remaps = all_graph_classes(n), oracle._pair_maps(n)
        assert len(set(classes)) == len(classes) == count
        assert all(min(reference_images(m, remaps)) == m for m in classes)
    for n, count in zip(range(1, 5), (1, 2, 7, 42)):
        classes, remaps = all_oriented_classes(n), oracle._arc_maps(n)
        assert len(set(classes)) == len(classes) == count
        assert all(min(reference_images(m, remaps)) == m for m in classes)
        back = [sum(1 << y * n + x for x in range(n) for y in range(n)
                    if m >> x * n + y & 1) for m in classes]
        assert not any(m & b for m, b in zip(classes, back))
    # built once per n and shared, so immutable
    for classes in (all_graph_classes, all_oriented_classes):
        assert classes(4) is classes(4)
        assert isinstance(classes(4), tuple)


def test_image_tables_equal_the_bit_loop():
    """``_images`` gives each mask's images under every permutation in
    the order of the bit loop it replaced: every pair mask on up to 5
    vertices and every arc mask on 4; on 6 and 7 vertices every mask
    inside one 4-bit chunk, so every column entry, and a seeded sample.
    (Over all 2^15 masks on 6 vertices the bit loop takes about 30 s
    on one core of a 2-vCPU machine.)"""
    rng = random.Random(27)

    def agree(columns, remaps, masks):
        for mask in masks:
            assert (list(oracle._images(mask, columns))
                    == list(reference_images(mask, remaps))), mask

    for n in range(1, 6):
        agree(oracle._pair_columns(n), oracle._pair_maps(n),
              range(1 << n * (n - 1) // 2))
    diagonal = sum(1 << x * 5 for x in range(4))
    agree(oracle._arc_columns(4), oracle._arc_maps(4),
          [m for m in range(1 << 16) if not m & diagonal])
    for n, sample in ((6, 300), (7, 30)):
        bits = n * (n - 1) // 2
        chunks = [v << c for c in range(0, bits, 4) for v in range(1, 16)
                  if v << c < 1 << bits]
        agree(oracle._pair_columns(n), oracle._pair_maps(n),
              chunks + [rng.getrandbits(bits) for _ in range(sample)])


def test_explainable_counts():
    es = explainable_set(EnumerationBudget(max_leaves=5), 2)
    assert [len(es.masks[n]) for n in range(1, 6)] == [1, 2, 4, 11, 29]
    zd = explainable_set(EnumerationBudget(max_leaves=4,
                                           zero_discrete_only=True), 2)
    assert [len(zd.masks[n]) for n in range(1, 5)] == [1, 2, 4, 9]


def test_explainable_membership_pinned():
    es = explainable_set(EnumerationBudget(max_leaves=5), 2)
    zd = explainable_set(EnumerationBudget(max_leaves=4,
                                           zero_discrete_only=True), 2)
    c5 = from_edge_list(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
    assert es.contains(C4)
    assert es.contains(DIAMOND)
    assert not es.contains(c5)
    assert not zd.contains(C4)
    assert not zd.contains(DIAMOND)
    assert zd.contains(from_edge_list(4, [(0, 1), (1, 2), (2, 3)]))
    with pytest.raises(ValueError):
        es.contains(from_edge_list(6, []))


def test_weight_cap_is_saturated():
    # raising the weight bound beyond k+1 finds nothing new, for graphs
    # on 4 vertices and for oriented graphs on 5
    for zd in (False, True):
        small = explainable_set(
            EnumerationBudget(max_leaves=4, zero_discrete_only=zd), 2)
        large = explainable_set(
            EnumerationBudget(max_leaves=4, max_weight=4,
                              zero_discrete_only=zd), 2)
        assert small.masks == large.masks
        small = rooted_explainable_set(
            EnumerationBudget(max_leaves=5, zero_discrete_only=zd), 2)
        large = rooted_explainable_set(
            EnumerationBudget(max_leaves=5, max_weight=4,
                              zero_discrete_only=zd), 2)
        assert small.masks == large.masks


def test_a_huge_weight_cap_gives_the_counts_of_cap_four():
    """The mask kernels stop at weight k+1, so a cap of 10^9 gives the
    counts of cap 4 in about the same time."""
    start = time.perf_counter()
    huge = check_characterization(EnumerationBudget(4, max_weight=10**9), 2)
    assert time.perf_counter() - start < 2
    small = check_characterization(EnumerationBudget(4, max_weight=4), 2)
    assert huge.ok and small.ok
    assert huge.counts == small.counts
    assert huge.non_members == small.non_members


def test_explainable_set_is_hereditary():
    es = explainable_set(EnumerationBudget(max_leaves=5), 2)
    rng = random.Random(12)
    for mask in sorted(es.masks[5]):
        g = mask_to_graph(5, mask)
        keep = sorted(rng.sample(range(5), 4))
        assert es.contains(induced_subgraph(g, keep))


def test_explainable_set_closed_under_disjoint_union():
    es = explainable_set(EnumerationBudget(max_leaves=5), 2)
    for m2 in sorted(es.masks[2]):
        for m3 in sorted(es.masks[3]):
            a = mask_to_graph(2, m2)
            b = mask_to_graph(3, m3)
            u = from_edge_list(5, list(a.edges)
                               + [(x + 2, y + 2) for x, y in b.edges])
            assert es.contains(u)


def test_unique_witnesses_pinned():
    b = EnumerationBudget(max_leaves=5)
    cases = [
        (from_edge_list(3, [(0, 1), (0, 2), (1, 2)]), "(0:1,1:1,2:1);"),
        (from_edge_list(4, [(0, 1), (1, 2), (2, 3)]),
         "(0:2,1:0,(2:0,3:2):2);"),
        (from_edge_list(5, [(0, 1), (1, 2), (2, 3), (3, 4)]),
         "(0:2,1:0,(2:0,(3:0,4:2):2):2);"),
        (from_edge_list(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]),
         "(0:1,1:1,2:1,3:1);"),
    ]
    for g, expected in cases:
        ws = all_witnesses(g, b, 2)
        assert [format_newick(t) for t in ws] == [expected]


def test_no_witnesses_for_long_cycles():
    b5 = EnumerationBudget(max_leaves=5)
    b6 = EnumerationBudget(max_leaves=6)
    c5 = from_edge_list(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
    c6 = from_edge_list(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5)])
    assert all_witnesses(c5, b5, 2) == []
    assert all_witnesses(c6, b6, 2) == []


def recognition_graphs():
    """40 random graphs with 1-5 vertices; the second is edgeless on 5,
    whose 85 473 witnesses span every 5-leaf topology."""
    rng = random.Random(41)
    return [random_graph(rng, rng.randint(1, 5), rng.random())
            for _ in range(40)]


def test_witnesses_match_recognition():
    b = EnumerationBudget(max_leaves=5)
    for g in recognition_graphs():
        ws = all_witnesses(g, b, 2)
        assert bool(ws) == recognize(g).decision
        for t in ws:
            assert is_canonical(t)
            assert verify(t, g, 2).ok
        assert len({format_newick(t) for t in ws}) == len(ws)


def test_witnesses_are_listed_with_the_collector_paused(monkeypatch):
    """The listing runs with the collector paused and leaves no cyclic
    garbage: reference counting alone frees what it drops."""
    g, b = from_edge_list(4, []), EnumerationBudget(4)
    all_witnesses(g, b, 2)      # warm-up: fills the topology caches
    gc.collect()
    with collector_paused():
        assert len(all_witnesses(g, b, 2)) > 1000
        assert gc.collect() == 0
    real = oracle.matching_weightings
    during = []

    def watched(*args):
        during.append(gc.isenabled())
        return real(*args)

    monkeypatch.setattr(oracle, "matching_weightings", watched)
    enabled = gc.isenabled()
    all_witnesses(g, b, 2)
    assert during and not any(during) and gc.isenabled() == enabled


def test_sibling_pairs_are_the_leaves_on_one_vertex():
    for n in range(1, 7):
        pairs = list(combinations(range(n), 2))
        for t, lt in zip(_topologies(n), _labeled(n)):
            on = [t.adj[t.vertex_of(s)].keys() for s in LETTERS[:n]]
            assert lt.siblings == sum(1 << p for p, (x, y) in enumerate(pairs)
                                      if on[x] == on[y])


def test_pruned_topologies_have_no_witness():
    """Every topology that ``all_witnesses`` skips, on every class with
    1-5 vertices at k = 1, 2, 3 in all four configurations, has no
    matching weighting: two leaves on one vertex are related to the
    same other leaves or to disjoint sets of them."""
    skipped = 0
    for n in range(1, 6):
        for mask in all_graph_classes(n):
            split = oracle._split_pairs(mask_to_graph(n, mask))
            pruned = [lt.shape for lt in _labeled(n) if lt.siblings & split]
            skipped += len(pruned)
            for k in (1, 2, 3):
                for canonical in (True, False):
                    for zd in (False, True):
                        for sh in pruned:
                            min_w = (sh.min_w_canonical if canonical
                                     else sh.min_w_free)
                            assert matching_weightings(
                                len(sh.paths), sh.paths, min_w, k + 1, k,
                                zd, mask) == []
    assert skipped == 458  # of 935 (class, topology) pairs


@pytest.mark.parametrize("edges, searched", [
    ([(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)], 5),  # C5
    ([(0, 1), (1, 2), (2, 3), (3, 4)], 10),  # P5
    ([(0, 1), (0, 2), (0, 3), (0, 4)], 26),  # K1,4
    ([], 26),  # edgeless
    ([(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (1, 4), (2, 3)], 0),  # gem
])
def test_witness_search_skips_split_siblings(monkeypatch, edges, searched):
    """How many of the 26 labeled 5-leaf topologies reach the search
    (stubbed out here: only its calls are counted)."""
    calls = []
    monkeypatch.setattr(oracle, "matching_weightings",
                        lambda *args: calls.append(args) or [])
    assert all_witnesses(from_edge_list(5, edges), EnumerationBudget(5),
                         2) == []
    assert len(calls) == searched


def same_trees(xs, ys):
    """The same trees in the same order, vertex numbering included (a
    stricter test than ``==``, which compares canonical forms)."""
    return len(xs) == len(ys) and all(
        x.nv == y.nv and x.adj == y.adj and x.names == y.names
        for x, y in zip(xs, ys))


def test_witnesses_equal_the_reference_on_small_graphs():
    """Every labeled graph with at most 4 vertices, canonical and free
    weights, with and without zero-discrete: the same trees in the same
    order as the validated build sorted by ``canonical_form``."""
    for canonical in (True, False):
        for zd in (False, True):
            b = EnumerationBudget(4, None, canonical, zd)
            for n in range(5):
                for g in all_labeled_graphs(n):
                    assert same_trees(all_witnesses(g, b, 2),
                                      reference_all_witnesses(g, b, 2))


def test_witnesses_equal_the_reference_on_random_graphs():
    b = EnumerationBudget(max_leaves=5)
    graphs = recognition_graphs()
    assert (graphs[1].n, graphs[1].m) == (5, 0)
    for g in graphs:
        assert same_trees(all_witnesses(g, b, 2),
                          reference_all_witnesses(g, b, 2))


def test_prepared_shapes_are_immutable_and_stable():
    """The per-process caches hold tuples only, one entry per topology
    (or unlabeled shape) of their own leaf count, equal to a fresh
    ``_prepare``; calls leave them as they were and repeat their answer."""
    def tuples_only(x):
        return (isinstance(x, (int, str, type(None)))
                or isinstance(x, tuple) and all(map(tuples_only, x)))

    before = {n: [_prepare(t) for t in _topologies(n)] for n in range(1, 6)}
    b = EnumerationBudget(5, None, False, False)
    graphs = [from_edge_list(n, [(0, 1)] if n > 1 else [])
              for n in range(1, 6)]
    first = [all_witnesses(g, b, 2) for g in graphs]
    explainable_set(b, 2)
    rooted_explainable_set(EnumerationBudget(4), 2)
    for g, ws in zip(graphs, first):
        assert same_trees(all_witnesses(g, b, 2), ws)
    for n in range(1, 6):
        labeled = _labeled(n)
        assert [lt.shape for lt in labeled] == before[n]
        assert [_prepare(t) for t in _topologies(n)] == before[n]
        assert all(t.n_leaves == n for t in _topologies(n))
        assert list(_shapes(n)) == [_prepare(t) for t in unlabeled_shapes(n)]
        for lt in labeled:
            assert tuples_only((lt.names, lt.consts))
        for sh in [lt.shape for lt in labeled] + list(_shapes(n)):
            assert all(tuples_only(v) for v in vars(sh).values())


def test_rooted_set_counts_and_membership():
    rs = rooted_explainable_set(EnumerationBudget(max_leaves=4), 2)
    zd = rooted_explainable_set(
        EnumerationBudget(max_leaves=4, zero_discrete_only=True), 2)
    assert [len(rs.masks[n]) for n in range(1, 5)] == [1, 2, 5, 14]
    assert [len(zd.masks[n]) for n in range(1, 5)] == [1, 2, 4, 9]

    chain = from_arc_list(3, [(0, 1), (1, 2)])
    in_star = from_arc_list(3, [(0, 2), (1, 2)])
    doubled = from_arc_list(4, [(0, 2), (1, 2), (0, 3), (1, 3)])
    triangle = from_arc_list(3, [(0, 1), (1, 2), (2, 0)])
    assert rs.contains(chain) and zd.contains(chain)
    assert rs.contains(in_star) and not zd.contains(in_star)
    assert rs.contains(doubled) and not zd.contains(doubled)
    assert not rs.contains(triangle) and not zd.contains(triangle)
    with pytest.raises(ValueError):
        rs.contains(from_arc_list(5, []))


def test_check_characterization_passes():
    for zd in (False, True):
        rep = check_characterization(
            EnumerationBudget(max_leaves=4, zero_discrete_only=zd), 2)
        assert rep.ok
        assert rep.discrepancies == []
        assert "result: OK" in format_report(rep)


def test_check_characterization_level_one():
    rep = check_characterization(
        EnumerationBudget(max_leaves=4, zero_discrete_only=True), 1)
    assert rep.ok
    with pytest.raises(ValueError):
        check_characterization(EnumerationBudget(max_leaves=4), 1)
    with pytest.raises(ValueError):
        check_characterization(EnumerationBudget(max_leaves=4), 3)


def test_report_lists_non_members():
    rep = check_characterization(
        EnumerationBudget(max_leaves=4, zero_discrete_only=True), 2)
    text = format_report(rep)
    # the two smallest graphs outside the zero-discrete class
    assert "non-member" in text
