"""The names the benchmark's tracer binds stay bound.

``perfbench/spans.py`` wraps the functions listed in its ``SPECS`` by
module and name, and its kernel hooks read ``min_w`` and ``max_w`` by
argument position.  A renamed function or a moved argument would show
only when the benchmark runs with tracing on; this test reads the file
(loaded by path, not edited) and checks every binding here.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import exact2rel

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    specs = load_spans().SPECS
    assert specs
    for mod_name, qual, *_ in specs:
        home = importlib.import_module(f"exact2rel.{mod_name}")
        if "." in qual:
            cls_name, attr = qual.split(".")
            # the tracer rewraps the classmethod found in the class dict
            assert isinstance(vars(getattr(home, cls_name))[attr],
                              classmethod), qual
        else:
            assert callable(getattr(home, qual)), qual


def test_kernel_weight_bounds_keep_their_positions():
    kernel = importlib.import_module("exact2rel._kernel")
    for name, first in (("enumerate_relation_masks", 2),
                        ("matching_weightings", 2),
                        ("enumerate_rooted_arc_masks", 3)):
        params = list(inspect.signature(getattr(kernel, name)).parameters)
        assert params[first:first + 2] == ["min_w", "max_w"], name


def test_compiled_flag_is_exported():
    assert isinstance(exact2rel.USING_COMPILED, bool)
