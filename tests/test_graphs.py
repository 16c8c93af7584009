import inspect
import random
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (all_labeled_graphs, all_labeled_oriented,
                      are_isomorphic, assert_same_graph, assert_same_oriented,
                      naive_blocks, naive_cut_vertices, random_graph,
                      reference_directed_quotient, reference_from_arc_list,
                      reference_from_edge_list, reference_induced_subgraph,
                      reference_non_clique_block, reference_parse_graph,
                      reference_parse_oriented, reference_quotient,
                      reference_underlying_graph)
from exact2rel import (GraphFormatError, block_decomposition,
                       connected_components, directed_quotient,
                       directed_twin_partition, false_twin_partition,
                       find_cycle, format_graph, format_oriented,
                       from_arc_list, from_edge_list, induced_subgraph,
                       is_block_graph, is_forest, parse_graph, parse_oriented,
                       quotient, underlying_graph)
from exact2rel import graphs
from exact2rel.graphs import non_clique_block


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
            q = quotient(g).graph
            assert false_twin_partition(q).is_discrete


def test_partitions_with_twins_are_not_discrete():
    c4 = from_edge_list(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    diamond = from_edge_list(4, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)])
    d = from_arc_list(4, [(0, 2), (1, 2), (0, 3), (1, 3)])
    assert not false_twin_partition(c4).is_discrete
    assert not false_twin_partition(diamond).is_discrete
    assert not directed_twin_partition(d).is_discrete


def test_quotients_carry_their_twin_partition():
    for n in range(1, 6):
        for g in all_labeled_graphs(n):
            assert quotient(g).partition == false_twin_partition(g)
    for n in range(1, 5):
        for d in all_labeled_oriented(n):
            assert directed_quotient(d).partition == directed_twin_partition(d)


def class_map(p):
    """Each vertex's class index in the twin partition ``p``."""
    return {v: i for i, cls in enumerate(p.classes) for v in cls}


def test_quotient_identity_on_twin_free():
    p4 = from_edge_list(4, [(0, 1), (1, 2), (2, 3)])
    res = quotient(p4)
    assert res.graph is p4
    assert class_map(res.partition) == {v: v for v in range(4)}


def test_directed_twins():
    d = from_arc_list(4, [(0, 2), (1, 2), (0, 3), (1, 3)])
    p = directed_twin_partition(d)
    assert p.classes == ((0, 1), (2, 3))
    res = directed_quotient(d)
    assert set(res.graph.arcs) == {(0, 1)}
    assert class_map(res.partition) == {0: 0, 1: 0, 2: 1, 3: 1}
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


def _random_block_chain(rng):
    """2-4 pieces of 2-5 vertices, each a cycle (or an edge) plus random
    chords and sharing one vertex with the pieces before it: the pieces
    are the blocks, and often more than one is not a clique."""
    n, edges = 1, []
    for _ in range(rng.randint(2, 4)):
        size = rng.randint(2, 5)
        vs = [rng.randrange(n), *range(n, n + size - 1)]
        n += size - 1
        edges += zip(vs, vs[1:] + vs[:1]) if size > 2 else [vs]
        edges += [pr for pr in combinations(vs, 2) if rng.random() < 0.4]
    return from_edge_list(n, edges)


def _non_clique_gate_graphs():
    """Every labeled graph with <= 5 vertices and its quotient, then 300
    seeded block chains, where two blocks can both fail to be cliques."""
    for n in range(6):
        for g in all_labeled_graphs(n):
            yield g
            yield quotient(g).graph
    rng = random.Random(29)
    for _ in range(300):
        yield _random_block_chain(rng)


def _is_clique(g, blk):
    return all(g.has_edge(u, v) for u, v in combinations(sorted(blk), 2))


def _non_clique_disagreements(find):
    """The gate graphs on which ``find`` names another block than the
    pairwise reference, and how many have two non-clique blocks."""
    wrong, several = [], 0
    for g in _non_clique_gate_graphs():
        dec = block_decomposition(g)
        if find(g, dec) != reference_non_clique_block(g, dec):
            wrong.append(g)
        several += sum(not _is_clique(g, blk) for blk in dec.blocks) >= 2
    return wrong, several


def test_non_clique_block_matches_pairwise_reference():
    wrong, several = _non_clique_disagreements(non_clique_block)
    assert wrong == [] and several > 100


def test_non_clique_gate_tells_the_first_bad_block_from_the_last():
    def last_bad(g, dec):
        bad = [blk for blk in dec.blocks if not _is_clique(g, blk)]
        return bad[-1] if bad else None

    wrong, _ = _non_clique_disagreements(last_bad)
    assert wrong


@settings(deadline=None, max_examples=50)
@given(st.integers(1, 30), st.sampled_from([0.1, 0.2, 0.4, 0.7]),
       st.integers(0, 2**32 - 1).map(random.Random))
def test_non_clique_block_matches_pairwise_reference_on_random_graphs(
        n, density, rng):
    g = random_graph(rng, n, density)
    for h in (g, quotient(g).graph):
        dec = block_decomposition(h)
        assert non_clique_block(h, dec) == reference_non_clique_block(h, dec)


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


# ----------------------------------------------------------------------
# the builders, quotients and parser against the eager edge-set versions
# in conftest
# ----------------------------------------------------------------------

def _check_undirected(n, pairs, keeps):
    g = from_edge_list(n, pairs)
    ref = reference_from_edge_list(n, pairs)
    assert_same_graph(g, ref)
    p = false_twin_partition(g)
    res = quotient(g)
    ref_q, ref_map = reference_quotient(ref, p)
    assert_same_graph(res.graph, ref_q)
    assert class_map(res.partition) == ref_map
    # a twin-free graph is its own quotient, and only a twin-free one
    assert (res.graph is g) == p.is_discrete
    for keep in keeps:
        assert_same_graph(induced_subgraph(g, keep),
                          reference_induced_subgraph(ref, keep))


def _check_oriented(n, pairs):
    d = from_arc_list(n, pairs)
    ref = reference_from_arc_list(n, pairs)
    assert_same_oriented(d, ref)
    p = directed_twin_partition(d)
    res = directed_quotient(d)
    ref_q, ref_map = reference_directed_quotient(ref, p)
    assert_same_oriented(res.graph, ref_q)
    assert class_map(res.partition) == ref_map
    assert (res.graph is d) == p.is_discrete
    assert_same_graph(underlying_graph(d), reference_underlying_graph(ref))


def test_builders_match_reference_exhaustively():
    for n in range(6):
        subsets = [[v for v in range(n) if s >> v & 1] for s in range(1 << n)]
        for g in all_labeled_graphs(n):
            pairs = sorted(g.edges)
            # reversed duplicates must merge
            pairs += [(v, u) for u, v in pairs[::2]]
            _check_undirected(n, pairs, subsets)
    for n in range(5):
        for d in all_labeled_oriented(n):
            _check_oriented(n, sorted(d.arcs) + sorted(d.arcs)[::2])


def _twin_classes(rng, n_classes):
    """Shuffled vertex ids split into ``n_classes`` classes of 1-8."""
    sizes = [rng.randint(1, 8) for _ in range(n_classes)]
    ids = list(range(sum(sizes)))
    rng.shuffle(ids)
    out, at = [], 0
    for s in sizes:
        out.append(ids[at:at + s])
        at += s
    return out


@settings(deadline=None, max_examples=20)
@given(st.integers(1, 37), st.sampled_from([0.05, 0.2, 0.5]),
       st.integers(0, 2**32 - 1).map(random.Random))
def test_builders_match_reference_on_large_graphs(n_classes, density, rng):
    """Up to 296 vertices in twin classes, so the quotients contract."""
    classes = _twin_classes(rng, n_classes)
    n = sum(map(len, classes))
    pairs, arcs = [], []
    for a, b in combinations(range(n_classes), 2):
        if rng.random() < density:
            pairs += [(x, y) for x in classes[a] for y in classes[b]]
            if rng.random() < 0.5:
                a, b = b, a
            arcs += [(x, y) for x in classes[a] for y in classes[b]]
    rng.shuffle(pairs)
    rng.shuffle(arcs)
    keeps = [rng.sample(range(n), rng.randint(0, n)) for _ in range(3)]
    _check_undirected(n, pairs, keeps)
    _check_oriented(n, arcs)


@given(st.integers(-1, 6), st.lists(st.tuples(st.integers(-1, 6),
                                              st.integers(-1, 6)),
                                    max_size=12))
def test_builders_reject_like_reference(n, pairs):
    for build, reference, same in (
            (from_edge_list, reference_from_edge_list, assert_same_graph),
            (from_arc_list, reference_from_arc_list, assert_same_oriented)):
        try:
            want = reference(n, pairs)
        except ValueError as exc:
            with pytest.raises(ValueError) as info:
                build(n, pairs)
            assert str(info.value) == str(exc)
        else:
            same(build(n, pairs), want)


def test_two_cycle_named_like_reference_from_a_generator():
    rng = random.Random(5)
    for _ in range(50):
        n = rng.randint(5, 200)
        arcs = [(rng.randrange(n), rng.randrange(n)) for _ in range(3 * n)]
        arcs = [(u, v) for u, v in arcs if u != v]
        arcs += [(v, u) for u, v in rng.sample(arcs, 3)]
        with pytest.raises(ValueError) as want:
            reference_from_arc_list(n, (a for a in arcs))
        with pytest.raises(ValueError) as got:
            from_arc_list(n, (a for a in arcs))
        assert str(got.value) == str(want.value)


# Numbers stay small so that no fuzzed header asks for a huge graph.
TOKENS = st.sampled_from(["0", "1", "2", "3", "12", "-1", "1.5", "x", "#",
                          "0 1", "", "2 1\n0 1", "\r\n", "\x0c", "+1",
                          "1_0", "\u0661", "#x"])
SEPARATORS = st.sampled_from([" ", "\n", "\t", "  \n", "#c\n"])


@given(st.lists(st.tuples(TOKENS, SEPARATORS), max_size=14))
def test_parsers_raise_only_format_errors(parts):
    """Either the same graph as the reference parser or the same error."""
    text = "".join(token + sep for token, sep in parts)
    for parse, reference, same in (
            (parse_graph, reference_parse_graph, assert_same_graph),
            (parse_oriented, reference_parse_oriented, assert_same_oriented)):
        try:
            want = reference(text)
        except GraphFormatError as exc:
            with pytest.raises(GraphFormatError) as info:
                parse(text)
            assert str(info.value) == str(exc)
        else:
            same(parse(text), want)


# ----------------------------------------------------------------------
# the bulk reader of the plain layout, at its boundary: one mutation of
# a plain text each, read like the line-by-line reference
# ----------------------------------------------------------------------

MUTATIONS = ("none", "split", "drop_end", "no_final_newline", "two_spaces",
             "tab", "crlf", "blank_line", "leading_zero", "unicode_digit",
             "endpoint_n", "self_loop", "two_cycle", "duplicate", "count_off")


def random_pairs(rng, n):
    """The arcs of a random oriented graph on ``n`` vertices in random
    order; read as edges, a random graph."""
    pairs = [(u, v) if rng.random() < 0.5 else (v, u)
             for u, v in combinations(range(n), 2) if rng.random() < 0.4]
    rng.shuffle(pairs)
    return pairs


def plain_text(n, pairs):
    return f"{n} {len(pairs)}\n" + "".join(f"{u} {v}\n" for u, v in pairs)


def mutate(n, pairs, kind, rng):
    """The plain text of ``pairs`` with one mutation of ``kind``; the
    header is one of the lines it may hit."""
    body = [[str(u), str(v)] for u, v in pairs]
    m = len(body)
    j = rng.randrange(m) if body else None        # a body line
    if kind == "endpoint_n" and body:
        body[j][rng.randrange(2)] = str(n)
    elif kind == "self_loop" and body:
        body[j][1] = body[j][0]
    elif kind in ("two_cycle", "duplicate") and body:
        line = body[j][:] if kind == "duplicate" else body[j][::-1]
        body.insert(rng.randint(0, m), line)
        m += 1
    elif kind == "count_off":
        m += rng.choice((-1, 1))
    lines = [[str(n), str(m)]] + body
    i = rng.randrange(len(lines))                 # any line
    end = "\n"
    if kind == "split" and len(body) >= 2:        # 1 token and 3 tokens
        a, b = rng.sample(range(1, len(lines)), 2)
        lines[b].append(lines[a].pop())
    elif kind == "drop_end":                      # "u " or " v"
        lines[i][rng.randrange(2)] = ""
    elif kind == "no_final_newline":
        end = ""
    elif kind == "leading_zero":
        t = rng.randrange(2)
        lines[i][t] = "0" + lines[i][t]
    elif kind == "unicode_digit":                 # ARABIC-INDIC digits
        t = rng.randrange(2)
        lines[i][t] = "".join(chr(0x660 + int(c)) for c in lines[i][t])
    text = [" ".join(line) for line in lines]
    if kind == "two_spaces":
        text[i] = text[i].replace(" ", "  ")
    elif kind == "tab":
        text[i] = text[i].replace(" ", "\t")
    elif kind == "crlf":
        text[i] += "\r"
    elif kind == "blank_line":
        text.insert(i + rng.randint(0, 1), rng.choice(("", " ", "#", "# c")))
    return "\n".join(text) + end


def reading(parse, text):
    """What ``parse`` makes of ``text``: the graph, or the error."""
    try:
        g = parse(text)
    except Exception as exc:  # the type and the text of any error
        return type(exc).__name__, str(exc)
    if hasattr(g, "arcs"):
        return g.n, g.m, g.out_adj, g.in_adj, g.arcs
    return g.n, g.m, g.adj, g.edges


def bulk_disagreements(texts):
    """The texts that a parser reads otherwise than the reference."""
    return [text for text in texts
            for parse, reference in (
                (parse_graph, reference_parse_graph),
                (parse_oriented, reference_parse_oriented))
            if reading(parse, text) != reading(reference, text)]


@settings(deadline=None, max_examples=300)
@given(st.integers(0, 7), st.sampled_from(MUTATIONS),
       st.integers(0, 2**32 - 1).map(random.Random))
def test_bulk_reader_matches_the_reference_at_its_boundary(n, kind, rng):
    pairs = random_pairs(rng, n)
    assert graphs._plain_pairs(plain_text(n, pairs)) is not None
    assert bulk_disagreements([mutate(n, pairs, kind, rng)]) == []


PLAIN_PAIRS = inspect.getsource(graphs._plain_pairs)


def plain_pairs_with(old, new):
    """``_plain_pairs`` with one line of its source replaced."""
    assert PLAIN_PAIRS.count(old) == 1
    namespace = dict(vars(graphs))
    exec(PLAIN_PAIRS.replace(old, new), namespace)
    return namespace["_plain_pairs"]


def test_the_boundary_gate_catches_loose_shape_checks(monkeypatch):
    rng = random.Random(21)
    texts = []
    for kind in MUTATIONS:
        for _ in range(40):
            n = rng.randint(0, 7)
            texts.append(mutate(n, random_pairs(rng, n), kind, rng))
    assert bulk_disagreements(texts) == []
    for old, new in (
            # a check that counts lines and tokens, not their shape
            ('if len(shape) != 2 * m or shape != " \\n" * m:',
             'if shape.count("\\n") != m:'),
            # unpacks a "0 " header
            ("if len(parts) != 2 or head", "if head")):
        monkeypatch.setattr(graphs, "_plain_pairs", plain_pairs_with(old, new))
        assert bulk_disagreements(texts)


def test_a_huge_edge_count_is_refused_at_once():
    for parse in (parse_graph, parse_oriented):
        with pytest.raises(GraphFormatError, match="announces 10000000000000 "):
            parse("2 10000000000000\n0 1\n")
