import gc
import io
import os
import resource
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from exact2rel import cli, graphs, rooted
from exact2rel.cli import main

C4 = "4 4\n0 1\n0 3\n1 2\n2 3\n"
C5 = "5 5\n0 1\n0 4\n1 2\n2 3\n3 4\n"
P4 = "4 3\n0 1\n1 2\n2 3\n"
CHAIN = "3 2\n0 1\n1 2\n"
TRIANGLE = "3 3\n0 1\n1 2\n2 0\n"


@pytest.fixture
def write(tmp_path):
    def _write(name, text):
        p = tmp_path / name
        p.write_text(text)
        return str(p)
    return _write


def test_explain_unrooted(write, capsys):
    tree = write("t.nwk", "(0:2,1:0,2:2);\n")
    assert main(["explain", tree]) == 0
    out = capsys.readouterr().out
    assert out == "# 0 = 0\n# 1 = 1\n# 2 = 2\n3 2\n0 1\n1 2\n"


def test_explain_level_four(write, capsys):
    tree = write("t.nwk", "(0:2,1:0,2:2);\n")
    assert main(["explain", tree, "--k", "4"]) == 0
    assert capsys.readouterr().out.endswith("3 1\n0 2\n")


def test_explain_rooted(write, capsys):
    tree = write("t.nwk", "(0:0,(1:0,2:2):2);\n")
    assert main(["explain", tree, "--rooted"]) == 0
    assert capsys.readouterr().out.endswith(CHAIN)


def test_explain_dot_marks_zero_edges(write, capsys):
    tree = write("t.nwk", "(a:2,b:0,c:2);\n")
    assert main(["explain", tree, "--dot"]) == 0
    assert "--" in capsys.readouterr().out
    assert main(["canonicalize", tree, "--dot"]) == 0
    out = capsys.readouterr().out
    assert 'style=dashed' in out and '[label="2"]' in out
    rooted = write("r.nwk", "(0:0,(1:0,2:2):2);\n")
    assert main(["explain", rooted, "--rooted", "--dot"]) == 0
    assert "->" in capsys.readouterr().out


def test_tree_dot_ids_skip_leaf_names(write, capsys):
    """Unnamed vertices never take an id that a leaf already has."""
    tree = write("t.nwk", "(i0:1,i1:1,(c:1,d:2):1);\n")
    assert main(["canonicalize", tree, "--dot"]) == 0
    assert capsys.readouterr().out == (
        'graph tree {\n  "i0";\n  "i1";\n  "c";\n  "d";\n'
        '  "i2" [shape=point];\n  "i3" [shape=point];\n'
        '  "i2" -- "i0" [label="1"];\n  "i2" -- "i1" [label="1"];\n'
        '  "i2" -- "i3" [label="1"];\n  "i3" -- "c" [label="1"];\n'
        '  "i3" -- "d" [label="2"];\n}\n')


def test_recognize_yes_and_verify(write, capsys, tmp_path):
    graph = write("g.txt", C4)
    witness = str(tmp_path / "w.nwk")
    assert main(["recognize", graph, "--out", witness]) == 0
    with open(witness) as fh:
        assert fh.read() == "(0:0,(1:0,3:0):2,2:0);\n"
    assert main(["verify", witness, graph]) == 0
    assert capsys.readouterr().out == "OK\n"


def test_recognize_no(write, capsys):
    graph = write("g.txt", C5)
    assert main(["recognize", graph]) == 1
    out = capsys.readouterr().out
    assert out == "no\ncertificate: 0 1 2 3 4\n"


def test_recognize_oriented(write, capsys):
    arcs = write("d.txt", CHAIN)
    assert main(["recognize", arcs, "--oriented"]) == 0
    assert capsys.readouterr().out == "(0:0,(1:0,2:2):2);\n"
    cyc = write("c.txt", TRIANGLE)
    assert main(["recognize", cyc, "--oriented"]) == 1
    assert capsys.readouterr().out == "no (cycle)\ncertificate: 0 1 2\n"


def test_recognize_empty_graph_is_a_usage_error(write):
    empty = write("e.txt", "0 0\n")
    for extra in ([], ["--oriented"]):
        assert _run(["recognize", empty, *extra]) == (
            2, "", "error: the empty graph has no tree: a tree needs a leaf\n")


def test_verify_failure_lists_differences(write, capsys):
    tree = write("t.nwk", "(0:2,1:0,(2:0,3:2):2);\n")
    graph = write("g.txt", "4 2\n0 1\n1 2\n")
    assert main(["verify", tree, graph]) == 1
    out = capsys.readouterr().out
    assert out.startswith("FAIL\n")
    assert "extra pair: 2 3" in out


def test_canonicalize(write, capsys):
    tree = write("t.nwk", "(a:1,(b:2):3);\n")
    assert main(["canonicalize", tree]) == 0
    assert capsys.readouterr().out == "(b:6)a;\n"


def test_quotient(write, capsys):
    graph = write("g.txt", C4)
    assert main(["quotient", graph]) == 0
    out = capsys.readouterr().out
    assert out == "# class 0: 0 2\n# class 1: 1 3\n2 1\n0 1\n"


def test_quotient_oriented(write, capsys):
    arcs = write("d.txt", "4 4\n0 2\n0 3\n1 2\n1 3\n")
    assert main(["quotient", arcs, "--oriented"]) == 0
    out = capsys.readouterr().out
    assert out == "# class 0: 0 1\n# class 1: 2 3\n2 1\n0 1\n"


def test_roots(write, capsys):
    tree = write("t.nwk", "(b:2)a;\n")
    assert main(["roots", tree]) == 0
    assert capsys.readouterr().out == "(a:0,b:2);\n(a:1,b:1);\n(a:2,b:0);\n"


def test_oracle_smoke(write, capsys):
    assert main(["oracle", "--n", "3"]) == 0
    out = capsys.readouterr().out
    assert "ok" in out.lower()
    assert main(["oracle", "--n", "3", "--zero-discrete"]) == 0
    capsys.readouterr()


def test_usage_errors(write, capsys):
    bad_tree = write("t.nwk", "(a:x);\n")
    assert main(["explain", bad_tree]) == 2
    assert "error:" in capsys.readouterr().err
    bad_graph = write("g.txt", "2 1\n0 5\n")
    assert main(["recognize", bad_graph]) == 2
    assert main(["explain", str(write("ok.nwk", "(a:1,b:1);")), "--k", "0"]) == 2
    assert main(["explain", "/nonexistent/file.nwk"]) == 2
    capsys.readouterr()
    long_weight = write("w.nwk", "(a:" + "1" * 5000 + ",b:1);\n")
    assert main(["canonicalize", long_weight]) == 2
    assert "line 1, column 5004" in capsys.readouterr().err


def test_output_is_stable(write, capsys):
    graph = write("g.txt", P4)
    runs = []
    for _ in range(2):
        assert main(["recognize", graph]) == 0
        runs.append(capsys.readouterr().out)
    assert runs[0] == runs[1]


def test_internal_error_exit_code(write, capsys, monkeypatch):
    def broken(g):
        raise RuntimeError("broken on purpose")

    monkeypatch.setattr(cli, "recognize", broken)
    assert main(["recognize", write("g.txt", P4)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "internal error: RuntimeError: broken on purpose\n"


def test_deep_tree_through_every_tree_command(write, capsys):
    # leaf 2 on top, a chain of 1198 weight-0 edges, then leaves 0 and 1
    inner = "(0:0,1:2)"
    for _ in range(1198):
        inner = f"({inner}:0)"
    tree = write("t.nwk", f"({inner}:2)2;\n")
    assert main(["explain", tree]) == 0
    assert capsys.readouterr().out == "# 0 = 0\n# 1 = 1\n# 2 = 2\n3 2\n0 1\n0 2\n"
    assert main(["explain", tree, "--rooted"]) == 0
    assert capsys.readouterr().out == "# 0 = 0\n# 1 = 1\n2 1\n0 1\n"
    assert main(["canonicalize", tree]) == 0
    assert capsys.readouterr().out == "(0:0,1:2,2:2);\n"
    assert main(["verify", tree, write("g.txt", "3 2\n0 1\n0 2\n")]) == 0
    assert capsys.readouterr().out == "OK\n"


def test_recognize_long_path(write, capsys, tmp_path):
    n = 5000
    graph = write("g.txt", f"{n} {n - 1}\n"
                  + "".join(f"{i} {i + 1}\n" for i in range(n - 1)))
    witness = str(tmp_path / "w.nwk")
    assert main(["recognize", graph, "--out", witness]) == 0
    assert main(["verify", witness, graph]) == 0
    assert capsys.readouterr().out == "OK\n"


def _run(argv):
    """Exit code (or the SystemExit code), stdout and stderr of one call."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = ("SystemExit", exc.code)
    return code, out.getvalue(), err.getvalue()


def test_shared_parser_answers_like_a_fresh_one(write, monkeypatch):
    calls = [
        ["recognize", write("c4.txt", C4)],
        ["recognize", write("chain.txt", CHAIN), "--oriented"],
        ["verify", write("t.nwk", "(0:2,1:0,(2:0,3:2):2);\n"),
         write("g.txt", "4 2\n0 1\n1 2\n")],
        ["recognize"],
        ["recognize", write("bad.txt", "2 1\n0 5\n")],
        ["recognize", write("tri.txt", TRIANGLE), "--oriented"],
        ["recognize", write("c5.txt", C5)],
    ]
    shared = [_run(argv) for argv in calls + calls]
    assert cli.build_parser() is cli.build_parser()
    monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
    fresh = [_run(argv) for argv in calls]
    assert shared == fresh + fresh
    assert [code for code, _, _ in fresh] == [0, 0, 1, ("SystemExit", 2),
                                              2, 1, 1]
    assert fresh[3][2].startswith("usage: exact2rel recognize")


def test_oriented_recognize_decides_once(write, monkeypatch):
    """One ``recognize_oriented``, one directed quotient and one
    underlying graph per call, yes or no."""
    calls = {"quotient": 0, "underlying": 0, "recognize": 0}

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    for key, name in (("quotient", "directed_quotient"),
                      ("underlying", "underlying_graph")):
        wrapped = counted(key, getattr(graphs, name))
        for mod in (graphs, rooted):
            monkeypatch.setattr(mod, name, wrapped)
    wrapped = counted("recognize", rooted.recognize_oriented)
    for mod in (rooted, cli):
        monkeypatch.setattr(mod, "recognize_oriented", wrapped)
    for text, code in ((CHAIN, 0), ("4 3\n0 1\n0 2\n2 3\n", 0),
                       (TRIANGLE, 1), ("4 3\n0 1\n2 1\n3 2\n", 1)):
        calls.update(quotient=0, underlying=0, recognize=0)
        argv = ["recognize", write("d.txt", text), "--oriented"]
        assert _run(argv)[0] == code
        assert calls == {"quotient": 1, "underlying": 1, "recognize": 1}


# ----------------------------------------------------------------------
# the collector pause: no command leaves cyclic garbage behind
# ----------------------------------------------------------------------

GATE_FILES = {"c4.txt": C4, "c5.txt": C5, "chain.txt": CHAIN,
              "bad.txt": "3 1\n0 x\n", "t.nwk": "(0:2,1:0,2:2);\n",
              "r.nwk": "(0:0,(1:0,2:2):2);\n", "w.nwk": "(0:0,(1:0,3:0):2,2:0);\n",
              "root.nwk": "(b:2)a;\n"}


def cyclic_garbage(argv):
    """How many objects in reference cycles one call of ``main(argv)``
    leaves, run with the collector paused after a warm-up call (which
    fills the caches a process keeps)."""
    _run(argv)
    gc.collect()
    with graphs.collector_paused():
        _run(argv)
        return gc.collect()


@pytest.mark.parametrize("argv", [
    ["recognize", "c4.txt"],
    ["recognize", "c5.txt"],
    ["recognize", "chain.txt", "--oriented"],
    ["recognize", "bad.txt"],
    ["recognize", "missing.txt"],
    ["explain", "t.nwk"],
    ["explain", "r.nwk", "--rooted", "--dot"],
    ["canonicalize", "t.nwk"],
    ["quotient", "c4.txt"],
    ["verify", "w.nwk", "c4.txt"],
    ["roots", "root.nwk"],
    ["oracle", "--n", "4"],
], ids=" ".join)
def test_no_command_leaves_cyclic_garbage(argv, tmp_path):
    for name, text in GATE_FILES.items():
        (tmp_path / name).write_text(text)
    argv = [str(tmp_path / a) if "." in a else a for a in argv]
    assert cyclic_garbage(argv) == 0


def test_the_garbage_gate_catches_a_cycle(write, monkeypatch):
    real = cli.recognize

    def leaky(g):
        loop = []
        loop.append(loop)
        return real(g)

    monkeypatch.setattr(cli, "recognize", leaky)
    assert cyclic_garbage(["recognize", write("c4.txt", C4)]) > 0


@pytest.mark.parametrize("enabled", [True, False])
def test_main_leaves_the_collector_as_it_found_it(enabled, write, monkeypatch):
    argvs = [["recognize", write("c4.txt", C4)],
             ["recognize", write("bad.txt", "3 1\n0 x\n")],
             ["recognize"]]
    real = cli.recognize
    during = []

    def watched(g):
        during.append(gc.isenabled())
        return real(g)

    monkeypatch.setattr(cli, "recognize", watched)
    codes = []
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        for argv in argvs:
            codes.append(_run(argv)[0])
            assert gc.isenabled() == enabled
        monkeypatch.setattr(cli, "recognize", None)   # an internal error
        codes.append(_run(argvs[0])[0])
        assert gc.isenabled() == enabled
    finally:
        (gc.enable if was else gc.disable)()
    assert codes == [0, 2, ("SystemExit", 2), 3]
    assert during == [False]


# the child's address space: a reader that allocated for every declared
# vertex would run out here and exit 3, not exhaust the machine
CHILD_ADDRESS_SPACE = 512 * 2**20


def _capped_run(argv):
    """``exact2rel`` with ``argv`` in a child process whose address space
    is capped; the cap is set on the child only."""
    def cap():
        resource.setrlimit(resource.RLIMIT_AS,
                           (CHILD_ADDRESS_SPACE, CHILD_ADDRESS_SPACE))

    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    return subprocess.run([sys.executable, "-m", "exact2rel.cli", *argv],
                          env=env, capture_output=True, text=True,
                          timeout=120, preexec_fn=cap)


def test_headers_above_the_vertex_limit_are_refused(write):
    """A header above ``graphs.MAX_VERTICES`` is a format error (exit 2,
    the limit named) before anything is allocated, through the bulk
    reader and the line-by-line one, for every subcommand that reads a
    graph.  The limit keeps 10^5-vertex graphs readable."""
    assert graphs.MAX_VERTICES >= 10**5
    tree = write("t.nwk", "(0:2,1:2);\n")
    over = graphs.MAX_VERTICES + 1
    runs = [["recognize", write("a.txt", f"{10**12} 0\n")],
            ["recognize", write("b.txt", f"{over} 0\n")],
            ["recognize", "--oriented", write("c.txt", f"# x\n{10**12} 0\n")],
            ["recognize", "--oriented", write("d.txt", f"{over} 1\n0 1\n")],
            ["quotient", write("e.txt", f"{over} 0")],
            ["verify", tree, write("f.txt", f"{10**12} 1\n0 1\n")]]
    for argv in runs:
        run = _capped_run(argv)
        assert (run.returncode, run.stdout) == (2, ""), (argv, run.stderr)
        assert f"the limit of {graphs.MAX_VERTICES}" in run.stderr, argv
