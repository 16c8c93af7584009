"""The ten acceptance checks, one test each.

Run ``pytest tests/test_acceptance.py -v`` for a one-line verdict per
criterion; each test also prints its own summary (visible with ``-s``).
Every check compares an implemented fast path against exhaustive or
randomized evidence with no shared logic.
"""

import random
from graphlib import CycleError, TopologicalSorter

import pytest

from conftest import (all_labeled_graphs, all_labeled_oriented,
                      brute_force_rootings, random_block_graph,
                      random_canonical_tree, random_false_twin_blowup,
                      random_tree)
from exact2rel import (EnumerationBudget, all_witnesses, canonicalize,
                       check_characterization, construct_oriented,
                       directed_quotient,
                       enumerate_rooted, explain, explainable_set,
                       format_newick, from_arc_list, from_edge_list,
                       induced_subgraph,
                       is_block_graph, is_canonical, is_forest, parse_newick,
                       quotient, recognize, recognize_oriented,
                       rooted_explainable_set, underlying_graph, verify)
from exact2rel.oracle import all_oriented_classes, mask_to_oriented

N_MAX = 5
C4 = from_edge_list(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
DIAMOND = from_edge_list(4, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)])


@pytest.fixture(scope="module")
def general_set():
    return explainable_set(EnumerationBudget(max_leaves=N_MAX), 2)


@pytest.fixture(scope="module")
def discrete_set():
    return explainable_set(
        EnumerationBudget(max_leaves=4, zero_discrete_only=True), 2)


def has_directed_cycle(d):
    try:
        TopologicalSorter(
            {v: list(d.in_adj[v]) for v in range(d.n)}).static_order()
    except CycleError:
        return True
    return False


def test_c01_recognizer_quotient_and_search_agree(general_set):
    """All 1099 labeled graphs on 1..5 vertices: the linear-time
    recognizer, the twin-quotient block-graph test, and the exhaustive
    witness search give the same verdict.  On 6 vertices the exhaustive
    search and the quotient criterion agree on every isomorphism
    class."""
    checked = 0
    for n in range(1, N_MAX + 1):
        for g in all_labeled_graphs(n):
            fast = recognize(g).decision
            q = quotient(g).graph
            assert fast == is_block_graph(q)
            assert fast == general_set.contains(g)
            checked += 1
    assert checked == 1099
    report = check_characterization(EnumerationBudget(max_leaves=6), 2)
    assert report.discrepancies == []
    assert report.counts[("graph", 6)] == (156, 90)
    print(f"criterion 1: PASS — three-way agreement on {checked} graphs; "
          "the oracle and the quotient criterion agree on all 156 "
          "classes with 6 vertices (90 realizable)")


def test_c02_every_witness_verifies():
    """Every yes-verdict from criterion 1 comes with a tree that
    reproduces the graph exactly."""
    yes = 0
    for n in range(1, N_MAX + 1):
        for g in all_labeled_graphs(n):
            out = recognize(g)
            if out.decision:
                assert verify(out.witness, g, 2).ok
                yes += 1
    print(f"criterion 2: PASS — {yes} witnesses verified")


def test_c03_zero_discrete_set_is_block_graphs(discrete_set):
    """Forbidding 0-distance leaf pairs shrinks the class to exactly the
    block graphs (n <= 4)."""
    for n in range(1, 5):
        for g in all_labeled_graphs(n):
            assert discrete_set.contains(g) == is_block_graph(g)
    assert not discrete_set.contains(C4)
    assert not discrete_set.contains(DIAMOND)
    for edges in ([(0, 1), (1, 2), (2, 3)],
                  [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)],
                  [(0, 1), (1, 2), (0, 2), (2, 3)],
                  [(0, 1), (0, 2), (0, 3)]):
        assert discrete_set.contains(from_edge_list(4, edges))
    print("criterion 3: PASS — zero-discrete class == block graphs (n<=4)")


def test_c04_forced_witnesses_are_unique():
    """Triangle, both small paths, and the 4-clique admit exactly one
    canonical tree each, with forced weights."""
    budget = EnumerationBudget(max_leaves=N_MAX)
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
        ws = all_witnesses(g, budget, 2)
        assert len(ws) == 1
        assert format_newick(ws[0]) == expected
    print("criterion 4: PASS — 4 uniquely-explained graphs pinned")


def test_c05_long_cycles_are_impossible():
    """5-, 6- and 7-cycles admit no witness at any weighting in budget,
    and the recognizer refuses them with a certificate."""
    for n in (5, 6, 7):
        cyc = from_edge_list(n, [(i, (i + 1) % n) for i in range(n)])
        assert all_witnesses(cyc, EnumerationBudget(max_leaves=n), 2) == []
        out = recognize(cyc)
        assert not out.decision
        assert out.certificate == tuple(range(n))
    print("criterion 5: PASS — C5, C6 and C7 impossible, certificates "
          "emitted")


def test_c06_oriented_class_is_quotient_arborescence_forests():
    """All 3^6 = 729 oriented graphs on <= 4 vertices and all 582
    oriented classes on 5: the enumerated realizable set equals {graphs
    whose directed-twin quotient is a forest with every in-degree <= 1}.

    The quotient placement matters: arcs {0->2, 1->2, 0->3, 1->3} have a
    4-cycle underneath yet are realizable because the twin classes
    {0,1} and {2,3} collapse to a single arc.  Members never contain a
    directed cycle, and with 0-distance pairs forbidden the class drops
    to {forests with every in-degree <= 1} outright, expelling the
    two-arc in-star.
    """
    rs = rooted_explainable_set(EnumerationBudget(max_leaves=5), 2)
    zd = rooted_explainable_set(
        EnumerationBudget(max_leaves=5, zero_discrete_only=True), 2)

    def check(d):
        q = directed_quotient(d).graph
        predicted = (is_forest(underlying_graph(q))
                     and all(len(q.in_adj[z]) <= 1 for z in range(q.n)))
        assert rs.contains(d) == predicted
        out = recognize_oriented(d)
        assert out.decision == predicted
        assert (out.witness is None) == (not predicted)
        if predicted:
            assert out.witness == construct_oriented(d)
        if predicted:
            assert not has_directed_cycle(d)
            assert recognize(underlying_graph(d)).decision
        flat = (is_forest(underlying_graph(d))
                and all(len(d.in_adj[z]) <= 1 for z in range(d.n)))
        assert zd.contains(d) == flat
        return predicted, flat

    for n in range(1, 5):
        for d in all_labeled_oriented(n):
            check(d)
    five = [check(mask_to_oriented(5, mask))
            for mask in all_oriented_classes(5)]
    assert len(five) == 582
    assert [sum(col) for col in zip(*five)] == [39, 20]
    in_star = from_arc_list(3, [(0, 2), (1, 2)])
    doubled = from_arc_list(4, [(0, 2), (1, 2), (0, 3), (1, 3)])
    assert rs.contains(in_star) and not zd.contains(in_star)
    assert rs.contains(doubled) and not zd.contains(doubled)
    print("criterion 6: PASS — oriented class == quotient arborescence "
          "forests (n<=5, both budgets; 39 and 20 of the 582 classes on "
          "5 vertices)")


def test_c07_rooting_moves_are_complete():
    """For 25 sampled canonical trees the three rooting moves generate
    exactly the rooted trees that direct placement finds.  The one known
    divergence (a weight-0 pair, where only placement finds the
    midpoint rooting) is excluded from sampling."""
    rng = random.Random(2026)
    done = 0
    while done < 25:
        t = random_canonical_tree(rng, rng.randint(2, 5))
        if t.n_leaves == 2 and t.total_weight() == 0:
            continue
        assert set(enumerate_rooted(t)) == brute_force_rootings(t)
        done += 1
    print("criterion 7: PASS — move enumeration == placement search "
          "(25 trees)")


def test_c08_class_is_hereditary_and_union_closed():
    """200 random members (block graphs fattened by twin copies,
    n <= 12): induced subgraphs stay members, disjoint unions stay
    members."""
    rng = random.Random(5150)
    members = []
    for _ in range(200):
        base = random_block_graph(rng, rng.randint(1, 7))
        g = random_false_twin_blowup(rng, base, max_n=12)
        assert recognize(g).decision
        members.append(g)
        keep = sorted(rng.sample(range(g.n), rng.randint(1, g.n)))
        assert recognize(induced_subgraph(g, keep)).decision
    for g1, g2 in zip(members[::2], members[1::2]):
        u = from_edge_list(
            g1.n + g2.n,
            list(g1.edges) + [(a + g1.n, b + g1.n) for a, b in g2.edges])
        assert recognize(u).decision
    print("criterion 8: PASS — 200 members, subgraphs and unions closed")


def test_c09_canonicalization_is_safe():
    """200 random trees (<= 8 leaves, weights <= 3): reduction keeps
    every relation level 1..3, is idempotent, and lands in canonical
    form."""
    rng = random.Random(360)
    for _ in range(200):
        t = random_tree(rng, rng.randint(2, 9))
        c = canonicalize(t)
        assert is_canonical(c)
        assert canonicalize(c) == c
        for k in (1, 2, 3):
            assert explain(c, k) == explain(t, k)
    print("criterion 9: PASS — 200 trees reduced safely")


def test_c10_level_one_discrete_class_is_forests():
    """At level 1 with 0-distance pairs forbidden, the realizable
    graphs on <= 4 vertices are exactly the forests.  Without that
    restriction the class is strictly larger: a star with weights
    1,0,1,0 realizes the 4-cycle at level 1."""
    es1 = explainable_set(
        EnumerationBudget(max_leaves=4, zero_discrete_only=True), 1)
    for n in range(1, 5):
        for g in all_labeled_graphs(n):
            assert es1.contains(g) == is_forest(g)
    star = parse_newick("(0:1,1:0,2:1,3:0);")
    assert explain(star, 1) == C4
    print("criterion 10: PASS — level-1 discrete class == forests (n<=4); "
          "4-cycle shows the unrestricted class is larger")
