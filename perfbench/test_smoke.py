"""Smoke test of the benchmark at tiny problem sizes.

    python3 -m pytest perfbench/test_smoke.py -q

Checks that every metric named in BENCHMARK.json is printed with its unit,
that the last line is the result object, that a deliberately perturbed
output is counted as a failure, and that the benchmark refuses to run
without helmscat's sources.
"""

from __future__ import annotations

import dataclasses
import json
import os
import re
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import run  # noqa: E402
import workloads as W  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)
NAMES = [w["name"] for w in SPEC["workloads"]]


def _bench(workload, trace=0, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.fixture(scope="module")
def sections():
    """Output of `--workload all`, split into one section per workload and
    trace setting, each ending with that run's JSON line."""
    proc = _bench("all")
    assert proc.returncode == 0, proc.stderr
    out, current = {}, None
    for line in proc.stdout.splitlines():
        head = re.match(r"^workload (\S+) seed \d+ size tiny trace ([01]):", line)
        if head:
            current = (head.group(1), int(head.group(2)))
            out[current] = []
        if current is not None:
            out[current].append(line)
        if line.startswith("{") and current is not None:
            current = None
    out["total"] = json.loads(proc.stdout.strip().splitlines()[-1])
    return out


@pytest.mark.parametrize("workload", NAMES)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_printed_with_unit(sections, workload, trace):
    lines = sections[(workload, trace)]
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1 and 0 <= result["failed"] <= result["attempted"]
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in spec}
    for m in spec:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
        pattern = rf"^{re.escape(m['name'])} = \S+ {re.escape(m['unit'])}\b"
        assert any(re.match(pattern, ln) for ln in lines), m["name"]
    assert any(re.match(r"^error_rate = \S+ ratio\b", ln) for ln in lines)
    assert any(ln.startswith("provenance {") for ln in lines)


def test_all_sums_the_workloads(sections):
    parts = [json.loads(sections[(w, t)][-1]) for w in NAMES for t in (0, 1)]
    total = sections["total"]
    assert total["attempted"] == sum(p["attempted"] for p in parts)
    assert total["failed"] == sum(p["failed"] for p in parts)
    assert len(total["metrics"]) == sum(len(p["metrics"]) for p in parts)


def _one(workload, workdir):
    """Set up a tiny workload and run its first operation in this process."""
    wl = W.WORKLOADS[workload](seed=7, size="tiny", workdir=str(workdir))
    wl.load()
    wl.build()
    inp = wl.prepare(1)
    return wl, inp, wl.run(inp)


def test_perturbed_solve_counts_as_failure(tmp_path):
    wl, inp, code = _one("solve-3d", tmp_path)
    assert wl.check(inp, code).failed == 0
    path = os.path.join(wl.out_dir, "solve_report.json")
    with open(path) as fh:
        report = json.load(fh)
    report["sup_norm"] *= 1.0 + 1e-6
    with open(path, "w") as fh:
        json.dump(report, fh)
    oc = wl.check(inp, code)
    assert oc.failed == 1 and not oc.correct


def test_perturbed_branch_point_counts_as_failure(tmp_path):
    wl, inp, (branch, probe, fields_at) = _one("branch-2d", tmp_path)
    before = wl.check(inp, (branch, probe, fields_at)).failed
    i = next(j for j, p in enumerate(branch.points) if p.lam > 0 and p.residual <= W.TOL)
    points = list(branch.points)
    points[i] = dataclasses.replace(points[i], residual=10 * W.TOL)
    bad = dataclasses.replace(branch, points=tuple(points))
    oc = wl.check(inp, (bad, probe, fields_at))
    assert oc.failed == before + 1 and not oc.correct
    # a branch that departs from the reference's amplitudes or ending is wrong
    short = dataclasses.replace(branch, points=branch.points[:-1])
    assert not wl.check(inp, (short, probe, fields_at)).correct
    ended = dataclasses.replace(branch, terminated_reason="reached_lambda_max")
    assert not wl.check(inp, (ended, probe, fields_at)).correct


def test_perturbed_certificate_counts_as_failure(tmp_path):
    wl, inp, out = _one("certify-sweep", tmp_path)
    assert wl.check(inp, out).failed == 0
    out["fourier"][0] = dataclasses.replace(out["fourier"][0], min_value=-1.0)
    assert wl.check(inp, out).failed == 1


def test_tail_has_ten_samples_beyond():
    value, pct = run.tail(list(range(1, 31)))
    assert value == 20 and pct == pytest.approx(100 * 20 / 30)
    assert run.tail([3.0, 1.0]) == (3.0, 100.0)


def test_refuses_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _bench(NAMES[0], 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
