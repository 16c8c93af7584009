"""Assertions in the tests that cannot fail.

``assert p.is_discrete`` passes whatever ``p`` holds when ``is_discrete``
is a method: a bound method is always true.  These tests read the
sources and flag every ``assert x.name`` or ``assert not x.name`` in
``tests/`` whose ``name`` is a zero-argument, undecorated method of a
class in ``exact2rel``.
"""

import ast
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
