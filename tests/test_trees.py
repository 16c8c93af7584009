import ast
import inspect
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

from conftest import (flat_form, random_canonical_tree, random_rooted_tree,
                      random_tree, reference_canonical_form,
                      reference_canonicalize, reference_restrict,
                      reference_rooted_canonical_form,
                      reference_underlying_tree)
from exact2rel import (LabeledTree, RootedLabeledTree, canonicalize,
                       enumerate_rooted, enumerate_topologies, explain,
                       format_newick, is_canonical, is_zero_discrete,
                       leaf_distance_matrix, newick, parse_newick, restrict,
                       rooted, trees, underlying_tree)
from exact2rel import construct, graphs
from exact2rel.oracle import unlabeled_shapes
from exact2rel.trees import (canonical_form, rooted_canonical_form,
                             tree_layout)


def caterpillar_p4():
    # two cherries joined by a weight-2 edge: explains the 4-path at k=2
    return LabeledTree.build(
        6, [(4, 0, 2), (4, 1, 0), (5, 2, 0), (5, 3, 2), (4, 5, 2)],
        {0: "a", 1: "b", 2: "c", 3: "d"})


def test_build_rejects_malformed_trees():
    with pytest.raises(ValueError):
        LabeledTree.build(3, [(0, 1, 1)], {0: "a", 2: "c"})   # disconnected
    with pytest.raises(ValueError):
        LabeledTree.build(3, [(0, 1, 1), (1, 2, 1), (2, 0, 1)], {})  # cycle
    with pytest.raises(ValueError):
        LabeledTree.build(2, [(0, 1, -1)], {0: "a", 1: "b"})
    with pytest.raises(ValueError):
        LabeledTree.build(2, [(0, 1, True)], {0: "a", 1: "b"})
    with pytest.raises(ValueError):
        LabeledTree.build(2, [(0, 1, 1)], {0: "a"})           # unnamed leaf
    with pytest.raises(ValueError):
        LabeledTree.build(3, [(0, 1, 1), (1, 2, 1)],
                          {0: "a", 1: "b", 2: "c"})           # named interior
    with pytest.raises(ValueError):
        LabeledTree.build(2, [(0, 1, 1)], {0: "a", 1: "a"})   # duplicate name


def test_single_vertex_tree():
    t = LabeledTree.build(1, [], {0: "x"})
    assert t.n_leaves == 1
    assert t.leaf_names == ["x"]
    assert explain(t, 2).n == 1


def test_distances_pinned():
    t = caterpillar_p4()
    dm = leaf_distance_matrix(t)
    assert dm.names == ("a", "b", "c", "d")
    assert dm.get("a", "b") == 2
    assert dm.get("a", "c") == 4
    assert dm.get("a", "d") == 6
    assert dm.get("b", "c") == 2
    assert dm.get("c", "d") == 2
    assert dm.get("a", "a") == 0


def test_explain_levels():
    t = caterpillar_p4()
    assert sorted(explain(t, 2).edges) == [(0, 1), (1, 2), (2, 3)]
    assert explain(t, 1).m == 0
    assert sorted(explain(t, 4).edges) == [(0, 2), (1, 3)]
    with pytest.raises(ValueError):
        explain(t, 0)


def test_explain_star():
    star = parse_newick("(a:1,b:1,c:1,d:1);")
    assert explain(star, 2).m == 6
    assert explain(star, 1).m == 0
    assert explain(star, 3).m == 0


def test_canonicalize_suppresses_degree_two():
    # a -3- x -2- b with an unnamed degree-2 middle vertex
    t = LabeledTree.build(3, [(0, 2, 3), (2, 1, 2)], {0: "a", 1: "b"})
    c = canonicalize(t)
    assert c.nv == 2
    assert leaf_distance_matrix(c).get("a", "b") == 5
    assert is_canonical(c)


def test_canonicalize_merges_zero_interior_edges():
    # two hubs joined by a 0-edge collapse into one
    t = LabeledTree.build(6, [(4, 0, 1), (4, 1, 2), (5, 2, 3), (5, 3, 1),
                              (4, 5, 0)],
                          {0: "a", 1: "b", 2: "c", 3: "d"})
    c = canonicalize(t)
    assert c.nv == 5
    assert is_canonical(c)
    dm = leaf_distance_matrix(c)
    assert dm.get("a", "c") == 4
    assert dm.get("b", "d") == 3


def test_canonicalize_keeps_leaf_distances():
    rng = random.Random(99)
    for _ in range(150):
        t = random_tree(rng, rng.randint(2, 9))
        c = canonicalize(t)
        assert is_canonical(c)
        assert canonicalize(c) == c
        before = leaf_distance_matrix(t)
        after = leaf_distance_matrix(c)
        assert before.names == after.names
        assert before.dist == after.dist


def test_canonicalize_preserves_total_weight():
    # suppression adds weights, 0-edge contraction removes nothing
    rng = random.Random(5)
    for _ in range(60):
        t = random_tree(rng, rng.randint(2, 9))
        assert canonicalize(t).total_weight() == t.total_weight()


def test_canonical_trees_are_fixed_points():
    rng = random.Random(17)
    for _ in range(60):
        t = random_canonical_tree(rng, rng.randint(2, 6))
        assert is_canonical(t)
        assert canonicalize(t) == t


def test_restrict_keeps_distances():
    rng = random.Random(31)
    for _ in range(80):
        t = random_tree(rng, rng.randint(3, 9))
        names = t.leaf_names
        keep = sorted(rng.sample(names, rng.randint(1, len(names))))
        r = restrict(t, keep)
        assert r.leaf_names == keep
        dm_t = leaf_distance_matrix(t)
        dm_r = leaf_distance_matrix(r)
        for a in keep:
            for b in keep:
                assert dm_t.get(a, b) == dm_r.get(a, b)


def test_restrict_to_single_leaf():
    t = caterpillar_p4()
    r = restrict(t, ["c"])
    assert r.nv == 1
    assert r.leaf_names == ["c"]


def test_zero_discrete():
    assert is_zero_discrete(parse_newick("(a:1,b:1,c:1);"))
    assert not is_zero_discrete(parse_newick("(a:0,b:0,c:2);"))
    # 0-weight pendant edges are fine while all leaf distances stay positive
    assert is_zero_discrete(parse_newick("(a:0,b:1,c:2);"))


def test_is_canonical():
    assert is_canonical(parse_newick("(a:1,b:1,c:1);"))
    assert is_canonical(parse_newick("(b:0)a;"))        # 2-leaf, by definition
    bad_deg2 = LabeledTree.build(3, [(0, 2, 1), (2, 1, 1)],
                                 {0: "a", 1: "b"})
    assert not is_canonical(bad_deg2)
    zero_inner = LabeledTree.build(
        6, [(4, 0, 1), (4, 1, 1), (5, 2, 1), (5, 3, 1), (4, 5, 0)],
        {0: "a", 1: "b", 2: "c", 3: "d"})
    assert not is_canonical(zero_inner)


def test_tree_equality_ignores_vertex_numbering():
    a = LabeledTree.build(4, [(3, 0, 1), (3, 1, 2), (3, 2, 3)],
                          {0: "x", 1: "y", 2: "z"})
    b = LabeledTree.build(4, [(0, 1, 2), (0, 3, 1), (0, 2, 3)],
                          {1: "y", 2: "z", 3: "x"})
    assert a == b
    assert hash(a) == hash(b)
    c = LabeledTree.build(4, [(3, 0, 1), (3, 1, 2), (3, 2, 2)],
                          {0: "x", 1: "y", 2: "z"})
    assert a != c


def test_equality_is_equality_of_canonical_forms():
    rng = random.Random(8)
    trees_ = [random_tree(rng, rng.randint(1, 7), 2) for _ in range(60)]
    trees_ += [parse_newick(format_newick(t)) for t in trees_[:20]]
    for a in trees_:
        for b in trees_:
            assert (a == b) == (canonical_form(a) == canonical_form(b))


def length_prefixed(form):
    """Each tuple as ``None``, its length and its items: a flat encoding
    that is equal exactly for equal forms but sorts by length first."""
    out, stack = [], [form]
    while stack:
        x = stack.pop()
        if isinstance(x, tuple):
            out += (None, len(x))
            stack += reversed(x)
        else:
            out.append(x)
    return tuple(out)


def keys_follow_forms(encode, forms):
    """True when ``encode`` gives equal keys exactly for equal forms and
    sorts the forms as their nested tuples sort."""
    keys = [encode(f) for f in forms]
    if not (len(set(zip(keys, forms))) == len(set(keys)) == len(set(forms))):
        return False
    try:
        by_key = sorted(range(len(forms)), key=keys.__getitem__)
    except TypeError:  # the first difference met tokens of two types
        return False
    return [forms[i] for i in by_key] == sorted(forms)


def test_flat_keys_are_equal_and_sorted_as_the_forms():
    rng = random.Random(20)
    trees_ = []
    for n in range(1, 6):
        for topo in enumerate_topologies(n):
            edges = topo.weighted_edges()
            for ws in [[0] * len(edges)] + [
                    [rng.randint(0, 2) for _ in edges] for _ in range(3)]:
                trees_.append(LabeledTree.build(topo.nv, [
                    (u, v, w) for (u, v, _), w in zip(edges, ws)], topo.names))
    trees_ += [random_tree(rng, rng.randint(1, 30), 2) for _ in range(200)]
    rooted_ = [random_rooted_tree(rng, rng.randint(2, 5)) for _ in range(100)]
    forms = ([reference_canonical_form(t) for t in trees_]
             + [reference_rooted_canonical_form(rt) for rt in rooted_])
    # the package writes the flat key of the recursive reference's form
    assert ([canonical_form(t) for t in trees_]
            + [rooted_canonical_form(rt) for rt in rooted_]
            == [flat_form(f) for f in forms])
    assert keys_follow_forms(flat_form, forms)
    # a closer above the names, and the length-prefixed encoding, fail
    assert not keys_follow_forms(
        lambda f: tuple("\x7f" if x == "" else x for x in flat_form(f)), forms)
    assert not keys_follow_forms(length_prefixed, forms)


DEEP_CATERPILLAR = """
import time
from exact2rel import LabeledTree, format_newick, parse_newick
n = 100_000
m = n - 2  # spine vertices; leaf i hangs from hangs[i]
hangs = [0] + list(range(m)) + [m - 1]
edges = [(v - 1, v, 1) for v in range(1, m)]
edges += [(v, m + i, 1) for i, v in enumerate(hangs)]
t = LabeledTree.build(m + n, edges, {m + i: f"x{i}" for i in range(n)})
text = ("(x0:1,x1:1," + "".join(f"(x{i}:1," for i in range(2, n - 2))
        + f"(x{n - 2}:1,x{n - 1}:1)" + ":1)" * (m - 1) + ";")
back = parse_newick(text)
assert len({t, back}) == 1
start = time.perf_counter()
written = format_newick(t)
assert time.perf_counter() - start < 3, "format_newick is not linear"
again = parse_newick(written)
assert again == t and format_newick(again) == written
"""


def test_deep_trees_hash_and_compare():
    """A caterpillar with 10^5 leaves nests its canonical form 10^5 deep.
    Putting it in a set with its Newick reading hashes both and compares
    them with ``==``; a hash that recursed into the nested form would
    overflow the C stack and kill the interpreter, so this runs in a
    child process.  ``format_newick`` then writes it in under 3 s (a
    writer that rebuilds each subtree's text takes about 12 s here), and
    its text reads back to the tree and writes back unchanged."""
    env = {**os.environ, "PYTHONPATH": str(Path(trees.__file__).parents[1])}
    run = subprocess.run([sys.executable, "-c", DEEP_CATERPILLAR], env=env,
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr[-2000:]


def test_the_tree_key_is_built_once_per_tree(monkeypatch):
    """Two hashes and one ``==`` build one key per tree, unrooted and
    rooted: ``sibling_order`` runs once for each tree, not per call."""
    calls = []
    real = trees.sibling_order

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(trees, "sibling_order", counted)
    for read in (parse_newick, newick.parse_rooted_newick):
        text = "((a:1,b:2):1,c:0,(d:3,e:1):2);"
        a, b = read(text), read(text)
        calls.clear()
        hash(a), hash(a)
        assert a == b and hash(b) == hash(a)
        assert len(calls) == 2


def test_trees_with_same_shape_different_names_differ():
    a = parse_newick("(a:1,b:1,c:1);")
    b = parse_newick("(a:1,b:1,d:1);")
    assert a != b


def exact(t):
    """The tree down to its vertex numbering."""
    return t.nv, t.weighted_edges(), sorted(t.names.items())


def caterpillar(rng, leaves, max_weight=3):
    """A spine with one leaf per vertex (two at each end)."""
    spine = leaves - 2
    edges = [(v - 1, v, rng.randint(0, max_weight)) for v in range(1, spine)]
    hangs = [0] + list(range(spine)) + [spine - 1]
    edges += [(v, spine + i, rng.randint(0, max_weight))
              for i, v in enumerate(hangs)]
    return LabeledTree.build(spine + len(hangs), edges,
                             {spine + i: f"c{i}" for i in range(len(hangs))})


def test_canonicalize_matches_rescan_reference():
    rng = random.Random(31)
    for _ in range(400):
        t = random_tree(rng, rng.randint(3, 30), max_weight=rng.choice((1, 3)))
        assert exact(canonicalize(t)) == exact(reference_canonicalize(t))
    for leaves in (3, 4, 10, 300):
        for max_weight in (1, 3):
            t = caterpillar(rng, leaves, max_weight)
            assert exact(canonicalize(t)) == exact(reference_canonicalize(t))


def test_canonicalize_deep_caterpillar():
    rng = random.Random(8)
    t = caterpillar(rng, 5000, max_weight=1)
    c = canonicalize(t)
    assert is_canonical(c)
    assert c.total_weight() == t.total_weight()
    for a in rng.sample(t.leaf_names, 3):
        _, _, before = tree_layout(t.adj, t.vertex_of(a))
        _, _, after = tree_layout(c.adj, c.vertex_of(a))
        assert all(before[t.vertex_of(b)] == after[c.vertex_of(b)]
                   for b in t.leaf_names)


def test_leaf_distances_match_restriction():
    rng = random.Random(12)
    for _ in range(40):
        t = random_tree(rng, rng.randint(2, 12))
        dm = leaf_distance_matrix(t)
        for a in dm.names:
            for b in dm.names:
                want = 0 if a == b else restrict(t, [a, b]).total_weight()
                assert dm.get(a, b) == want


@pytest.mark.parametrize("module", [newick, trees, rooted, graphs, construct])
def test_tree_walks_do_not_recurse(module):
    for node in ast.walk(ast.parse(inspect.getsource(module))):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for call in ast.walk(node):
            if isinstance(call, ast.Call):
                f = call.func
                called = f.id if isinstance(f, ast.Name) else \
                    f.attr if isinstance(f, ast.Attribute) else None
                assert called != node.name, f"{node.name} calls itself"


def test_source_imports_only_at_module_level():
    for path in sorted(Path(trees.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for inner in ast.walk(node):
                assert not isinstance(inner, (ast.Import, ast.ImportFrom)), \
                    f"{path.name}: {node.name} imports inside its body"


def _imported(path):
    """(module, name) of every name that a source file imports."""
    out = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom):
            out += [(node.module or "", a.name) for a in node.names]
        elif isinstance(node, ast.Import):
            out += [(a.name, a.name) for a in node.names]
    return out


def test_cli_and_oracle_keep_to_public_entry_points():
    """``cli`` imports no underscore name; ``oracle`` decides the oriented
    side by its closed form and imports nothing from ``rooted``."""
    src = Path(trees.__file__).parent
    cli_names = [name for _, name in _imported(src / "cli.py")]
    assert "recognize_oriented" in cli_names
    assert [n for n in cli_names if n.startswith("_")] == []
    assert [(m, n) for m, n in _imported(src / "oracle.py")
            if "rooted" in (m.split(".")[-1], n)] == []


def test_restrict_matches_rescan_reference():
    rng = random.Random(17)
    cases = 0
    for _ in range(100):
        t = random_tree(rng, rng.randint(2, 20), max_weight=rng.choice((1, 3)))
        names = t.leaf_names
        for size in range(1, len(names) + 1):
            keep = rng.sample(names, size)
            assert exact(restrict(t, keep)) == exact(reference_restrict(t, keep))
            cases += 1
    assert cases > 300


def test_underlying_tree_matches_rescan_reference():
    rng = random.Random(18)
    cases = 0
    for shape in unlabeled_shapes(5):
        for _ in range(6):
            t = LabeledTree.build(shape.nv, [
                (u, v, rng.randint(int(u not in shape.names
                                       and v not in shape.names), 3))
                for u, v, _ in shape.weighted_edges()], shape.names)
            for rt in enumerate_rooted(t):
                assert exact(underlying_tree(rt)) == exact(
                    reference_underlying_tree(rt))
                cases += 1
    assert cases > 200


def test_restrict_long_caterpillar_to_its_ends():
    # 3 * 10^4 leaves: a rescan after every smoothing takes 6.3 s here
    # but only 0.8 s at 10^4; one pass takes 0.06 s (2 vCPUs, Python 3.11)
    n = 3 * 10**4
    t = caterpillar(random.Random(9), n)
    start = time.perf_counter()
    r = restrict(t, ["c0", f"c{n - 1}"])
    assert time.perf_counter() - start < 1
    _, _, depth = tree_layout(t.adj, t.vertex_of("c0"))
    assert r.nv == 2 and r.total_weight() == depth[t.vertex_of(f"c{n - 1}")]


def test_unrooted_and_rooted_readings_never_compare_equal():
    edges = [(0, 1, 1), (0, 2, 2), (0, 3, 0)]
    names = {1: "a", 2: "b", 3: "c"}
    t = LabeledTree.build(4, edges, names)
    rt = RootedLabeledTree.build(4, edges, names, root=0)
    assert t != rt and rt != t
    assert hash(t) == hash(canonical_form(t))
    assert hash(rt) == hash(rooted_canonical_form(rt))
