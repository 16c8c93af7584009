import random
from itertools import combinations

import pytest
from hypothesis import given, strategies as st

from conftest import (all_labeled_graphs, naive_blocks, naive_cut_vertices,
                      random_graph)
from exact2rel import (GraphFormatError, are_isomorphic, block_decomposition,
                       connected_components, directed_quotient,
                       directed_twin_partition, false_twin_partition,
                       find_cycle, format_graph, format_oriented,
                       from_arc_list, from_edge_list, induced_subgraph,
                       is_block_graph, is_forest, parse_graph, parse_oriented,
                       quotient, underlying_graph)


def test_from_edge_list_basic():
    g = from_edge_list(4, [(0, 1), (1, 0), (2, 3)])
    assert g.n == 4
    assert g.m == 2
    assert g.has_edge(1, 0)
    assert not g.has_edge(0, 2)
    assert g.degree(1) == 1


def test_from_edge_list_rejects_bad_input():
    with pytest.raises(ValueError):
        from_edge_list(3, [(0, 3)])
    with pytest.raises(ValueError):
        from_edge_list(3, [(1, 1)])
    with pytest.raises(ValueError):
        from_edge_list(-1, [])


def test_oriented_rejects_two_cycles():
    with pytest.raises(ValueError):
        from_arc_list(2, [(0, 1), (1, 0)])


def test_parse_graph_round_trip():
    text = "4 3\n0 1\n1 2\n2 3\n"
    g = parse_graph(text)
    assert format_graph(g) == text
    # comments and blank lines are tolerated
    g2 = parse_graph("# path\n\n4 3\n0 1\n# middle\n1 2\n2 3\n")
    assert g2 == g


def test_parse_graph_errors_carry_line_numbers():
    with pytest.raises(GraphFormatError) as info:
        parse_graph("3 2\n0 1\n0 x\n")
    assert "line 3" in str(info.value)
    with pytest.raises(GraphFormatError):
        parse_graph("3 2\n0 1\n")          # fewer edges than announced
    with pytest.raises(GraphFormatError):
        parse_graph("3 1\n0 1\n1 2\n")     # more edges than announced
    with pytest.raises(GraphFormatError):
        parse_graph("")


def test_parse_oriented_round_trip():
    text = "3 2\n0 1\n2 1\n"
    d = parse_oriented(text)
    assert set(d.arcs) == {(0, 1), (2, 1)}
    assert format_oriented(d) == text


@given(st.integers(0, 6), st.randoms(use_true_random=False))
def test_format_parse_inverse(n, rng):
    g = random_graph(rng, n)
    assert parse_graph(format_graph(g)) == g


def test_false_twins_pinned():
    c4 = from_edge_list(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    assert false_twin_partition(c4).classes == ((0, 2), (1, 3))
    diamond = from_edge_list(4, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)])
    assert false_twin_partition(diamond).classes == ((0, 3), (1,), (2,))
    p4 = from_edge_list(4, [(0, 1), (1, 2), (2, 3)])
    assert false_twin_partition(p4).is_discrete


def test_quotient_of_quotient_is_discrete():
    # the quotient is always point-determining (twin-free)
    for n in range(1, 6):
        for g in all_labeled_graphs(n):
            q = quotient(g, false_twin_partition(g)).graph
            assert false_twin_partition(q).is_discrete


def test_quotient_rejects_foreign_partition():
    c4 = from_edge_list(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    p4 = from_edge_list(4, [(0, 1), (1, 2), (2, 3)])
    with pytest.raises(ValueError):
        quotient(c4, false_twin_partition(p4))


def test_quotient_identity_on_twin_free():
    p4 = from_edge_list(4, [(0, 1), (1, 2), (2, 3)])
    res = quotient(p4, false_twin_partition(p4))
    assert res.graph == p4
    assert res.vertex_to_new == {v: v for v in range(4)}


def test_directed_twins():
    d = from_arc_list(4, [(0, 2), (1, 2), (0, 3), (1, 3)])
    p = directed_twin_partition(d)
    assert p.classes == ((0, 1), (2, 3))
    q, mapping = directed_quotient(d, p)
    assert set(q.arcs) == {(0, 1)}
    assert mapping == {0: 0, 1: 0, 2: 1, 3: 1}
    # opposite arcs distinguish vertices that undirected twins would merge
    d2 = from_arc_list(3, [(0, 2), (2, 1)])
    assert directed_twin_partition(d2).is_discrete


def test_blocks_match_naive_exhaustively():
    for n in range(1, 6):
        for g in all_labeled_graphs(n):
            dec = block_decomposition(g)
            assert set(dec.blocks) == naive_blocks(g)
            assert set(dec.cut_vertices) == naive_cut_vertices(g)


def test_blocks_match_naive_sampled():
    rng = random.Random(1711)
    for n, trials in ((6, 150), (7, 80)):
        for _ in range(trials):
            g = random_graph(rng, n, rng.choice([0.25, 0.5, 0.75]))
            dec = block_decomposition(g)
            assert set(dec.blocks) == naive_blocks(g)
            assert set(dec.cut_vertices) == naive_cut_vertices(g)


def test_block_graph_predicate_matches_naive():
    def naive_is_block_graph(g):
        return all(
            all(g.has_edge(a, b) for a, b in combinations(sorted(body), 2))
            for body in naive_blocks(g))

    for g in all_labeled_graphs(5):
        assert is_block_graph(g) == naive_is_block_graph(g)
    rng = random.Random(23)
    for _ in range(120):
        g = random_graph(rng, 6, 0.4)
        assert is_block_graph(g) == naive_is_block_graph(g)


def test_block_graph_examples():
    assert is_block_graph(from_edge_list(1, []))
    assert is_block_graph(from_edge_list(4, [(0, 1), (1, 2), (2, 3)]))
    assert is_block_graph(from_edge_list(3, [(0, 1), (0, 2), (1, 2)]))
    # two triangles sharing a vertex
    bowtie = from_edge_list(5, [(0, 1), (0, 2), (1, 2), (2, 3), (2, 4),
                                (3, 4)])
    assert is_block_graph(bowtie)
    assert not is_block_graph(from_edge_list(4, [(0, 1), (1, 2), (2, 3),
                                                 (0, 3)]))
    diamond = from_edge_list(4, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)])
    assert not is_block_graph(diamond)


def test_connected_components():
    g = from_edge_list(6, [(1, 4), (2, 3), (3, 5)])
    assert connected_components(g) == [{0}, {1, 4}, {2, 3, 5}]


def test_induced_subgraph_relabels_in_order():
    g = from_edge_list(5, [(0, 2), (2, 4), (1, 3)])
    h = induced_subgraph(g, [4, 0, 2])
    assert h.n == 3
    assert set(h.edges) == {(0, 1), (1, 2)}       # 0->0, 2->1, 4->2


def test_forest_and_cycle_agree():
    for g in all_labeled_graphs(5):
        cyc = find_cycle(g)
        assert is_forest(g) == (cyc is None)
        if cyc is not None:
            assert len(cyc) >= 3
            assert len(set(cyc)) == len(cyc)
            for a, b in zip(cyc, cyc[1:] + [cyc[0]]):
                assert g.has_edge(a, b)


def test_underlying_graph():
    d = from_arc_list(4, [(0, 1), (2, 1), (2, 3)])
    assert set(underlying_graph(d).edges) == {(0, 1), (1, 2), (2, 3)}


def test_isomorphism_pinned():
    c4 = from_edge_list(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    also_c4 = from_edge_list(4, [(0, 2), (2, 1), (1, 3), (3, 0)])
    p4 = from_edge_list(4, [(0, 1), (1, 2), (2, 3)])
    assert are_isomorphic(c4, also_c4)
    assert not are_isomorphic(c4, p4)
    assert not are_isomorphic(c4, from_edge_list(5, []))


def test_isomorphism_under_random_relabeling():
    rng = random.Random(7)
    for _ in range(60):
        n = rng.randint(1, 7)
        g = random_graph(rng, n)
        perm = list(range(n))
        rng.shuffle(perm)
        h = from_edge_list(n, [(perm[a], perm[b]) for a, b in g.edges])
        assert are_isomorphic(g, h)


# Numbers stay small so that no fuzzed header asks for a huge graph.
TOKENS = st.sampled_from(["0", "1", "2", "3", "12", "-1", "1.5", "x", "#",
                          "0 1", "", "2 1\n0 1"])
SEPARATORS = st.sampled_from([" ", "\n", "\t", "  \n", "#c\n"])


@given(st.lists(st.tuples(TOKENS, SEPARATORS), max_size=14))
def test_parsers_raise_only_format_errors(parts):
    text = "".join(token + sep for token, sep in parts)
    for parse in (parse_graph, parse_oriented):
        try:
            parse(text)
        except GraphFormatError:
            pass
