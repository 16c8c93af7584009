import random
import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import (flat_form, random_canonical_tree, random_rooted_tree,
                      random_tree,
                      reference_canonical_form, reference_format_newick,
                      reference_format_rooted_newick,
                      reference_parse_newick, reference_parse_rooted_newick,
                      reference_rooted_canonical_form)
from exact2rel import (LabeledTree, RootedLabeledTree, TreeFormatError,
                       construct_oriented, enumerate_rooted,
                       enumerate_topologies, format_newick,
                       format_rooted_newick, from_arc_list, from_edge_list,
                       parse_newick, parse_rooted_newick, recognize, verify)
from exact2rel.trees import rooted_canonical_form
from exact2rel.trees import canonical_form, relation_matches


def test_parse_simple():
    t = parse_newick("(a:1,b:1,c:1);")
    assert t.n_leaves == 3
    assert t.leaf_names == ["a", "b", "c"]


def test_single_leaf_and_edge_forms():
    t = parse_newick("a;")
    assert t.nv == 1
    t2 = parse_newick("(b:2)a;")
    assert t2.nv == 2
    assert sorted(t2.names.values()) == ["a", "b"]
    assert t2.total_weight() == 2


def test_nested_with_whitespace():
    t = parse_newick(" ( a:2 , ( b:0 , c:2 ) : 2 ) ;\n")
    assert t.n_leaves == 3
    assert t.nv == 5


def test_interior_labels_are_ignored():
    a = parse_newick("((b:0,c:2)x:2,a:2);")
    b = parse_newick("((b:0,c:2):2,a:2);")
    assert a == b


@pytest.mark.parametrize("bad", [
    "",
    "(a:1,b:1)",          # missing semicolon
    "(a,b);",             # missing weight
    "(a:1.5,b:1);",       # fractional weight
    "(a:-1,b:1);",        # negative weight
    "(a:1,b:1);x",        # trailing text
    "(a:1,(b:1);",        # unbalanced
    "(a:1,:1);",          # unnamed leaf
    "(a:1,a:2);",         # duplicate name
    "(a:1,b:1,);",        # dangling comma
    "(a|b:1,c:1);",       # bad name character
])
def test_parse_errors(bad):
    with pytest.raises(TreeFormatError):
        parse_newick(bad)


def test_error_location_is_reported():
    with pytest.raises(TreeFormatError) as info:
        parse_newick("(a:1,\nb:x);")
    msg = str(info.value)
    assert "line 2" in msg


def test_overlong_weight_is_a_format_error():
    text = "(a:" + "1" * 5000 + ",b:1);"
    for parse in (parse_newick, parse_rooted_newick):
        with pytest.raises(TreeFormatError, match="line 1, column 5004: "
                           "weight has too many digits"):
            parse(text)


def test_round_trip_random_trees():
    rng = random.Random(4242)
    for _ in range(120):
        t = random_tree(rng, rng.randint(1, 9))
        assert parse_newick(format_newick(t)) == t


def test_round_trip_canonical_trees():
    rng = random.Random(77)
    for _ in range(60):
        t = random_canonical_tree(rng, rng.randint(2, 6))
        assert parse_newick(format_newick(t)) == t


def test_format_is_deterministic():
    rng = random.Random(11)
    t = random_canonical_tree(rng, 6)
    assert format_newick(t) == format_newick(parse_newick(format_newick(t)))


def test_rooted_parse_top_node_is_root():
    rt = parse_rooted_newick("(a:0,(b:0,c:2):2);")
    assert rt.adj[rt.root]            # root really has children
    assert rt.root not in rt.names
    assert sorted(rt.names.values()) == ["a", "b", "c"]


def test_rooted_single_child_root():
    rt = parse_rooted_newick("(a:2);")
    assert len(rt.adj[rt.root]) == 1
    (child,) = rt.adj[rt.root]
    assert rt.names[child] == "a"


def test_rooted_rejects_bare_leaf():
    with pytest.raises(TreeFormatError):
        parse_rooted_newick("a;")


def test_rooted_round_trip():
    rng = random.Random(314)
    for _ in range(60):
        rt = random_rooted_tree(rng, rng.randint(2, 5))
        assert parse_rooted_newick(format_rooted_newick(rt)) == rt


def test_rooted_vs_unrooted_reading_differs():
    # same text, different interpretation: in the two-leaf unrooted form
    # the written anchor is the second leaf, while the rooted reading
    # makes it an unnamed root above a single leaf
    unrooted = parse_newick("(b:1)a;")
    assert sorted(unrooted.names.values()) == ["a", "b"]
    rooted = parse_rooted_newick("(b:1)a;")
    assert sorted(rooted.names.values()) == ["b"]
    assert rooted.root not in rooted.names


# ----------------------------------------------------------------------
# the iterative reader and writers against the recursive references
# ----------------------------------------------------------------------

def outcome(parse, text):
    """What ``parse`` makes of ``text``, down to the vertex numbering,
    or the exact error message."""
    try:
        t = parse(text)
    except TreeFormatError as exc:
        return "error", str(exc)
    return (t.nv, t.weighted_edges(), list(t.names.items()),
            getattr(t, "root", None))


def assert_reads_like_reference(text):
    assert outcome(parse_newick, text) == outcome(reference_parse_newick, text)
    assert (outcome(parse_rooted_newick, text)
            == outcome(reference_parse_rooted_newick, text))


EDIT_CHARS = "(),:;ab01-+. \n|"


def test_reader_matches_recursive_reference():
    rng = random.Random(2718)
    texts = ["", ";", "a;", "(a:1);", "(b:2)a;", "((a:0)x:1,b:2)y;"]
    for _ in range(150):
        t = random_tree(rng, rng.randint(1, 10))
        texts.append(format_newick(t))
    for _ in range(40):
        texts.append(format_rooted_newick(random_rooted_tree(rng, rng.randint(2, 5))))
    malformed = []
    for text in texts:
        for _ in range(6):
            chars = list(text)
            for _ in range(rng.randint(1, 3)):
                i = rng.randint(0, len(chars))
                op = rng.randrange(3)
                if op == 0 and i < len(chars):
                    del chars[i]
                elif op == 1:
                    chars.insert(i, rng.choice(EDIT_CHARS))
                elif i < len(chars):
                    chars[i] = rng.choice(EDIT_CHARS)
            malformed.append("".join(chars))
    errors = 0
    for text in texts + malformed:
        assert_reads_like_reference(text)
        errors += outcome(parse_newick, text)[0] == "error"
    assert errors > len(malformed) // 2


@given(st.text(alphabet=EDIT_CHARS + "\t_x9", max_size=40))
def test_reader_raises_only_format_errors(text):
    assert_reads_like_reference(text)


def assert_writes_like_reference(t):
    assert format_newick(t) == reference_format_newick(t)
    assert canonical_form(t) == flat_form(reference_canonical_form(t))


def assert_rooted_writes_like_reference(rt):
    assert format_rooted_newick(rt) == reference_format_rooted_newick(rt)
    assert (rooted_canonical_form(rt)
            == flat_form(reference_rooted_canonical_form(rt)))


def test_writers_match_recursive_reference_on_small_shapes():
    rng = random.Random(99)
    rootings = 0
    for n in range(1, 6):
        for topo in enumerate_topologies(n):
            interior = set(topo.interior_vertices())
            for _ in range(3):
                edges = [(u, v, rng.randint(1 if {u, v} <= interior else 0, 3))
                         for u, v, _ in topo.weighted_edges()]
                t = LabeledTree.build(topo.nv, edges, topo.names)
                assert_writes_like_reference(t)
                if t.nv < 2:
                    continue
                for rt in enumerate_rooted(t):
                    assert_rooted_writes_like_reference(rt)
                    rootings += 1
    assert rootings > 1000


@given(st.integers(1, 14), st.randoms(use_true_random=False))
def test_writers_match_recursive_reference_on_random_trees(nv, rng):
    t = random_tree(rng, nv)
    assert_writes_like_reference(t)
    for root in t.interior_vertices()[:3]:
        rt = RootedLabeledTree.build(nv, t.weighted_edges(), t.names, root)
        assert_rooted_writes_like_reference(rt)


def test_unrooted_writer_refuses_names_the_reader_rejects():
    star = [(0, 1, 1), (0, 2, 2), (0, 3, 3)]
    bad_trees = [LabeledTree.build(3, [(0, 1, 1), (0, 2, 1)],
                                   {1: "a b", 2: "c"})]
    bad_trees += [LabeledTree.build(4, star, {1: "a", 2: "b", 3: bad})
                  for bad in ("c:3", "c)", "c;", "c,d", "c(", "c\n")]
    bad_trees += [LabeledTree.build(1, [], {0: "a;"}),
                  LabeledTree.build(2, [(0, 1, 2)], {0: "a", 1: "b b"})]
    for t in bad_trees:
        (bad,) = [s for s in t.leaf_names if s not in ("a", "b", "c")]
        with pytest.raises(ValueError, match=re.escape(repr(bad))):
            format_newick(t)
    # every character the reader takes in a name is written as it is
    t = LabeledTree.build(4, star, {1: "aZ9", 2: "_.-", 3: "x"})
    assert parse_newick(format_newick(t)) == t


def test_rooted_writer_refuses_names_the_reader_rejects():
    edges = [(0, 1, 1), (0, 2, 1)]
    rt = RootedLabeledTree.build(3, edges, {1: "a", 2: "b:1"}, root=0)
    with pytest.raises(ValueError, match="'b:1'"):
        format_rooted_newick(rt)
    rt = RootedLabeledTree.build(3, edges, {1: "a", 2: "_.-Z9"}, root=0)
    assert parse_rooted_newick(format_rooted_newick(rt)) == rt


# ----------------------------------------------------------------------
# inputs nested far deeper than the interpreter's recursion limit
# ----------------------------------------------------------------------

def test_long_path_witness_round_trip():
    n = 5000
    g = from_edge_list(n, [(i, i + 1) for i in range(n - 1)])
    witness = recognize(g).witness
    text = format_newick(witness)
    t = parse_newick(text)
    assert format_newick(t) == text
    assert verify(t, g, 2).ok
    assert t == witness and hash(t) == hash(witness)
    assert t != parse_newick(text.replace(":2);", ":3);"))


def test_long_caterpillar_round_trip():
    rng = random.Random(5)
    spine = 4998  # 5000 leaves; the smallest name sits at one end
    edges = [(v - 1, v, rng.randint(0, 3)) for v in range(1, spine)]
    hangs = [0] + list(range(spine)) + [spine - 1]
    edges += [(v, spine + i, rng.randint(0, 3)) for i, v in enumerate(hangs)]
    names = {spine + i: f"x{i:04d}" for i in range(len(hangs))}
    t = LabeledTree.build(spine + len(hangs), edges, names)
    text = format_newick(t)
    assert text.count("(") >= spine
    back = parse_newick(text)
    assert format_newick(back) == text
    assert back.total_weight() == t.total_weight()


def test_long_directed_path_round_trip():
    n = 5000
    d = from_arc_list(n, [(i, i + 1) for i in range(n - 1)])
    text = format_rooted_newick(construct_oriented(d))
    rt = parse_rooted_newick(text)
    assert format_rooted_newick(rt) == text
    assert rt == construct_oriented(d)
    assert rt != parse_rooted_newick(text.replace(":2);", ":3);"))
    assert relation_matches(rt, rt.root, 2, d.out_adj, directed=True)
