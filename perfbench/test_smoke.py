"""Smoke test of the benchmark.

Run from the root of a checkout:

    python3 -m pytest -q perfbench/test_smoke.py

Each workload runs once untraced and once traced at minimal length (one
pass of its pool), and every metric named in ``BENCHMARK.json`` must be
printed with its unit.  Two negative controls feed the correctness gate
a witness with one edge weight changed and a certificate with one
vertex swapped; each must be counted as a failure.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import re
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import gate  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402

with open(os.path.join(run.ROOT, "BENCHMARK.json")) as _fh:
    BENCH = json.load(_fh)


def _run(workload: str, trace: int) -> tuple[int, list[str]]:
    """``run.main`` at minimal length: one pass, no sample floor."""
    saved = run.MIN_SAMPLES
    run.MIN_SAMPLES = 1
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            rc = run.main(["--workload", workload, "--seed", "3",
                           "--seconds", "0.01", "--trace", str(trace)])
    finally:
        run.MIN_SAMPLES = saved
    return rc, out.getvalue().splitlines()


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_every_metric_is_printed_with_its_unit(workload, trace):
    rc, lines = _run(workload, trace)
    assert rc == 0
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    want = {m["name"]: m["unit"]
            for m in BENCH["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    for name, unit in want.items():
        assert any(re.fullmatch(rf"{re.escape(name)} = \S+ {re.escape(unit)}",
                                line) for line in lines), name
    report = json.loads(lines[-2])["report"]
    assert report["why"] == next(w["why"] for w in BENCH["workloads"]
                                 if w["name"] == workload)
    assert set(report["environment"]) == {
        "python", "nproc", "using_compiled", "numpy", "git_commit", "seed",
        "recursion_limit"}
    assert any(line.startswith("error_rate = ") for line in lines)


def test_benchmark_json_lists_what_the_benchmark_measures():
    assert BENCH["command"] == ["python3", "perfbench/run.py"]
    assert [w["name"] for w in BENCH["workloads"]] == list(inputs.WORKLOADS)
    for w in BENCH["workloads"]:
        assert w["why"] == inputs.WHY[w["name"]]
    assert {m["name"]: m["unit"] for m in BENCH["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCH["per_layer"]} == \
        spans.metric_units()


def test_inputs_depend_on_the_seed_only(tmp_path):
    for workload in ("recognize_members", "oracle_5"):
        digests = [inputs.build_pool(workload, seed,
                                     str(tmp_path / f"{workload}-{k}"),
                                     gate.WITNESS_COUNTS)[1]
                   for k, seed in enumerate((5, 5, 6))]
        assert digests[0] == digests[1] != digests[2]
    probe = ("import sys; sys.path.insert(0, 'perfbench'); import inputs; "
             "print(any(m.startswith('exact2rel') for m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", probe], cwd=run.ROOT,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


class Canned:
    """Stands in for the program and returns a fixed output."""

    def __init__(self, result):
        self.result = result

    def run(self, op, graph=None):
        return self.result


def _counted_as_failure(op: dict, result) -> bool:
    loop = run.Loop(Canned(result), [op], {})
    _, ok, _ = loop.step(0)
    assert ok == (loop.wrong == 0) == (not loop.failures)
    return not ok


@pytest.fixture(scope="module")
def program():
    sys.path.insert(0, run.SRC)
    return run.Program()


def test_gate_counts_a_witness_with_one_weight_changed(program, tmp_path):
    rng = random.Random(11)
    n = 60
    edges = inputs.member_graph(rng, n)
    path = tmp_path / "member.txt"
    path.write_text(inputs.format_pairs(n, edges))
    op = {"kind": "member", "argv": ["recognize", str(path)], "n": n,
          "pairs": edges}
    rc, text = program.run(op)
    assert not _counted_as_failure(op, (rc, text))
    leaf = edges[0][0]
    bad = re.sub(rf"(?<=[(,]){leaf}:(\d+)",
                 lambda m: f"{leaf}:{int(m.group(1)) + 1}", text, count=1)
    assert bad != text
    assert _counted_as_failure(op, (rc, bad))


def test_gate_counts_a_certificate_with_one_vertex_swapped(program, tmp_path):
    rng = random.Random(12)
    n = 300
    edges, cert = inputs.nonmember_graph(rng, n)
    path = tmp_path / "nonmember.txt"
    path.write_text(inputs.format_pairs(n, edges))
    op = {"kind": "nonmember", "argv": ["recognize", str(path)], "n": n,
          "certificate": cert}
    rc, text = program.run(op)
    assert not _counted_as_failure(op, (rc, text))
    outsider = min(set(range(n)) - set(cert))
    swapped = " ".join(map(str, (outsider,) + cert[1:]))
    bad = text.replace(" ".join(map(str, cert)), swapped)
    assert bad != text
    assert _counted_as_failure(op, (rc, bad))
