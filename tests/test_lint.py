"""Assertions in the tests that cannot fail.

``assert p.is_discrete`` passes whatever ``p`` holds when ``is_discrete``
is a method: a bound method is always true.  These tests read the
sources and flag every ``assert x.name`` or ``assert not x.name`` in
``tests/`` whose ``name`` is a zero-argument, undecorated method of a
class in ``exact2rel``.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import exact2rel

SRC = Path(exact2rel.__file__).parent
TESTS = Path(__file__).parent


def plain_methods(source):
    """Names of the methods in ``source`` that take only ``self`` and
    carry no decorator, so that reading one without a call is a slip."""
    out = set()
    for cls in ast.walk(ast.parse(source)):
        if isinstance(cls, ast.ClassDef):
            for f in cls.body:
                if isinstance(f, ast.FunctionDef) and not f.decorator_list:
                    a = f.args
                    if (len(a.posonlyargs + a.args) == 1
                            and not (a.vararg or a.kwonlyargs or a.kwarg)):
                        out.add(f.name)
    return out


def uncalled(source, methods):
    """(line, name) of each ``assert x.name`` or ``assert not x.name``
    in ``source`` with ``name`` in ``methods``."""
    hits = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Assert):
            test = node.test
            if isinstance(test, ast.UnaryOp) and isinstance(test.op, ast.Not):
                test = test.operand
            if isinstance(test, ast.Attribute) and test.attr in methods:
                hits.append((node.lineno, test.attr))
    return hits


def test_no_assertion_reads_a_method_without_calling_it():
    methods = set().union(*(plain_methods(p.read_text())
                            for p in SRC.glob("*.py")))
    assert "weighted_edges" in methods and "leaf_names" not in methods
    found = {p.name: uncalled(p.read_text(), methods)
             for p in sorted(TESTS.glob("*.py"))}
    assert {name: hits for name, hits in found.items() if hits} == {}


def test_the_lint_flags_the_slip():
    source = '''
class TwinPartition:
    def is_discrete(self):
        return True

    @property
    def representatives(self):
        return ()

    def classes_of(self, v):
        return ()
'''
    methods = plain_methods(source)
    assert methods == {"is_discrete"}
    tests = ("assert p.is_discrete\n"
             "assert not p.is_discrete\n"
             "assert p.is_discrete()\n"
             "assert p.representatives\n")
    assert uncalled(tests, methods) == [(1, "is_discrete"),
                                        (2, "is_discrete")]


# ----------------------------------------------------------------------
# one pause of the cyclic collector
# ----------------------------------------------------------------------

PAUSES = {"disable", "enable", "freeze", "set_threshold"}


def collector_calls(source):
    """(line, enclosing function) of each use of ``gc.disable``,
    ``gc.enable``, ``gc.freeze`` or ``gc.set_threshold`` in ``source``,
    under any name the module is imported as, and of each import of
    them from ``gc``."""
    tree = ast.parse(source)
    names = {a.asname or a.name for node in ast.walk(tree)
             if isinstance(node, ast.Import) for a in node.names
             if a.name == "gc"}
    hits = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if (isinstance(child, ast.Attribute) and child.attr in PAUSES
                    and isinstance(child.value, ast.Name)
                    and child.value.id in names):
                hits.append((child.lineno, function))
            if (isinstance(child, ast.ImportFrom) and child.module == "gc"
                    and any(a.name in PAUSES | {"*"} for a in child.names)):
                hits.append((child.lineno, function))
            inner = (child.name if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef)) else function)
            visit(child, inner)

    visit(tree, None)
    return hits


def test_only_the_one_helper_pauses_the_collector():
    found = {p.name: collector_calls(p.read_text())
             for p in sorted(SRC.glob("*.py"))}
    helper = [function for _, function in found.pop("graphs.py")]
    assert helper == ["collector_paused"] * 2
    assert {name: hits for name, hits in found.items() if hits} == {}


def test_the_lint_flags_a_second_pause():
    source = '''
import gc
import gc as collector
from gc import freeze


def collector_paused():
    gc.disable()
    gc.enable()


def fast_path():
    gc.disable()
    collector.set_threshold(0)
    gc.collect()
'''
    assert collector_calls(source) == [(4, None),
                                       (8, "collector_paused"),
                                       (9, "collector_paused"),
                                       (13, "fast_path"),
                                       (14, "fast_path")]


# every functools.cache in the two oracle modules, with its size, read in
# a fresh interpreter right after import and again after one canonical
# mask (which must fill ``_pair_columns``, so the probe can see a fill)
CACHE_SIZES = """
import json
import exact2rel
import exact2rel.cli
from exact2rel import _kernel, oracle


def sizes():
    return {f"{module.__name__}.{name}": f.cache_info().currsize
            for module in (_kernel, oracle)
            for name, f in sorted(vars(module).items())
            if hasattr(f, "cache_info")}


before = sizes()
oracle.canonical_mask_of(1, 3)
print(json.dumps([before, sizes()]))
"""


def test_import_builds_no_table():
    """Importing the package and the CLI fills no cache in ``_kernel``
    or ``oracle``: tables are built on first use, so a process that
    never asks the oracle never pays for them.  The caches found must be
    the ones named here."""
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    run = subprocess.run([sys.executable, "-c", CACHE_SIZES], env=env,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr[-2000:]
    before, after = json.loads(run.stdout)
    # every cache is named here, so a new one must be too: a cache of
    # kernel results would turn a timed loop into dictionary lookups
    kernel = {"_bounds", "_hang", "_cross_pairs"}
    tables = {"_topologies", "unlabeled_shapes", "_shapes", "_labeled",
              "_pair_columns", "_arc_columns", "all_graph_classes",
              "all_oriented_classes"}
    assert set(before) == ({f"exact2rel._kernel.{f}" for f in kernel}
                           | {f"exact2rel.oracle.{f}" for f in tables})
    assert {name: size for name, size in before.items() if size} == {}
    assert after["exact2rel.oracle._pair_columns"] == 1
