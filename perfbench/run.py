"""The helmscat benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Runs one workload (solve-3d, branch-2d or certify-sweep) as a closed loop
with one client in this process for S seconds, checks every operation's
output, prints each metric as ``name = value unit`` and, as the last line,
one JSON object {"correct", "attempted", "failed", "metrics"}.

--trace 0 reports the end-to-end metrics: op_s.p50, op_s.tail, setup_s and
peak_rss_mb (error_rate is printed and equals failed / attempted).  Times
are corrected for the machine's drifting speed (speed.py); the raw wall
times are printed beside them.
--trace 1 wraps helmscat's public functions around alternate pairs of
operations and reports the per-layer metrics of the traced operations, plus
the tracing overhead: the median of the traced operations minus that of the
untraced ones in between.
Spans and the full result go to perfbench/out/.  --workload all runs every
workload untraced and then traced, each in a fresh process, and ends with
one JSON line that sums them.

helmscat is imported from src/ next to this directory; nothing is installed
and nothing under src/ is changed.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import subprocess
import sys
import time
from statistics import median

import speed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(HERE, "out")
SPEC_PATH = os.path.join(ROOT, "BENCHMARK.json")

# One computing thread: BLAS pools would otherwise add idle threads beyond
# nproc.  FFT workers stay at scipy's default.  An explicit setting wins.
THREAD_DEFAULTS = {"OPENBLAS_NUM_THREADS": "1"}

# setup_s is the median over this process and this many fresh ones.
SETUP_PROBES = 2
PROBE_TIMEOUT_S = 120

def parse_args(argv):
    ap = argparse.ArgumentParser(description="helmscat benchmark")
    ap.add_argument("--workload", required=True,
                    choices=("solve-3d", "branch-2d", "certify-sweep", "all"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="problem size; tiny is for the smoke test")
    ap.add_argument("--setup-probe", action="store_true",
                    help="only time set-up in this fresh process and print it")
    return ap.parse_args(argv)


def timed_setup(wl, probe, rec=None) -> tuple[float, float]:
    """Import helmscat and build the workload; the traced run records the
    build as operation 0.  Returns (wall seconds, corrected seconds)."""
    before = probe()
    t0 = time.perf_counter()
    wl.load()
    if not wl.hs.cli.__file__.startswith(SRC + os.sep):
        raise RuntimeError(f"helmscat imported from {wl.hs.cli.__file__}, not {SRC}")
    if rec is None:
        wl.build()
    else:
        with rec.recording(0):
            wl.build()
    dt = time.perf_counter() - t0
    return dt, probe.scale(dt, before, probe())


def run_ops(wl, W, probe, first: int, until: float, rec=None):
    """Closed loop: start operations, numbered from `first`, until the clock
    passes `until`, at least two.  With a recorder, operations are traced
    in alternate pairs (2-3, 6-7, ...) and the others run untraced, so both
    halves see the same machine and each half sees every wavenumber of
    certify-sweep's 6-k round robin; the first operation, which fills
    helmscat's zero-table cache, is untraced.
    The speed probe runs between operations.  Returns (wall seconds,
    corrected seconds, traced, Outcome) per operation."""
    done = []
    i = first
    before = probe()
    while len(done) < 2 or time.perf_counter() < until:
        inp = wl.prepare(i)
        traced = rec is not None and (i // 2) % 2 == 1
        with (rec.recording(i) if traced else contextlib.nullcontext()):
            t = time.perf_counter()
            try:
                out, exc = wl.run(inp), None
            except Exception as e:  # noqa: BLE001 - a raised operation is a failure
                out, exc = None, e
            dt = time.perf_counter() - t
        after = probe()
        try:
            oc = wl.check(inp, out) if exc is None else wl.on_exception(inp, exc)
        except Exception as e:  # noqa: BLE001 - an uncheckable output is wrong
            oc = W.Outcome(failed=1, correct=False,
                           notes=[f"check raised {type(e).__name__}: {e}"])
        done.append((dt, probe.scale(dt, before, after), traced, oc))
        before = after
        i += 1
    return done


def run_all(args, names) -> int:
    """Every workload untraced and then traced, each in a fresh process."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for name in names:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--workload", name,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(trace), "--size", args.size],
                capture_output=True, text=True, cwd=ROOT)
            print(proc.stdout, end="", flush=True)
            if proc.returncode:
                print(proc.stderr, end="", file=sys.stderr)
                code = code or proc.returncode
                continue
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            total["correct"] = total["correct"] and res["correct"]
            total["attempted"] += res["attempted"]
            total["failed"] += res["failed"]
            for metric, value in res["metrics"].items():
                total["metrics"][f"{name}/{metric}"] = value
    if code == 0:
        print(json.dumps(total))
    return code


def setup_probe(args) -> tuple[float, float]:
    """Set-up time in a fresh process, as timed_setup gives it."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--size", args.size, "--setup-probe"]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                          timeout=PROBE_TIMEOUT_S, check=True)
    return tuple(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])


def tail(samples):
    """The highest percentile with at least 10 samples beyond it, as
    (value, percentile); the maximum when there are 10 samples or fewer."""
    s = sorted(samples)
    n = len(s)
    if n <= 10:
        return s[-1], 100.0
    return s[n - 11], 100.0 * (n - 10) / n


def measure(args, W, tracing, workdir):
    """Set up, then measure for args.seconds.  The untraced run measures in
    SETUP_PROBES + 1 equal segments with one set-up probe between each, so
    the samples spread over a longer stretch of the machine's drifting
    speed."""
    wl = W.WORKLOADS[args.workload](args.seed, args.size, workdir)
    rec = tracing.SpanRecorder() if args.trace else None
    probe = speed.SpeedProbe()
    setup_s = [timed_setup(wl, probe, rec)]
    segments = 1 if args.trace else SETUP_PROBES + 1
    ops, wall = [], 0.0
    for seg in range(segments):
        if seg:
            setup_s.append(setup_probe(args))
        start = time.perf_counter()
        ops += run_ops(wl, W, probe, len(ops) + 1,
                       start + args.seconds / segments, rec)
        wall += time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    outcomes = [oc for *_, oc in ops]
    if wl.setup_outcome.attempted:
        outcomes.append(wl.setup_outcome)
    return {
        "wl": wl, "rec": rec, "wall_s": wall, "probe_s": probe.samples,
        "setup_s": [s for _, s in setup_s],
        "setup_wall_s": [w for w, _ in setup_s],
        "op_s": [s for _, s, traced, _ in ops if not traced],
        "op_s_traced": [s for _, s, traced, _ in ops if traced],
        "op_wall_s": [w for w, _, traced, _ in ops if not traced],
        "op_wall_s_traced": [w for w, _, traced, _ in ops if traced],
        "outcomes": outcomes, "peak_rss_mb": peak_rss_mb,
        "manifest_walls": [oc.extras["manifest_wall_s"] for _, _, traced, oc in ops
                           if traced and "manifest_wall_s" in oc.extras],
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "helmscat", "__init__.py")):
        print(f"run.py: no helmscat sources at {SRC}; run from a checkout of "
              "the repository", file=sys.stderr)
        return 2
    for var, value in THREAD_DEFAULTS.items():
        os.environ.setdefault(var, value)
    sys.path.insert(0, SRC)
    import provenance
    import tracing
    import workloads as W

    if args.workload == "all":
        return run_all(args, list(W.WORKLOADS))

    workdir = os.path.join(OUT_DIR, f"work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        if args.setup_probe:
            wl = W.WORKLOADS[args.workload](args.seed, args.size, workdir)
            probe = speed.SpeedProbe()
            print(json.dumps({"setup_s": timed_setup(wl, probe)}))
            return 0
        res = measure(args, W, tracing, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    wl = res["wl"]
    outcomes = res["outcomes"]
    attempted = sum(oc.attempted for oc in outcomes)
    failed = sum(oc.failed for oc in outcomes)
    correct = all(oc.correct for oc in outcomes)
    notes = [n for oc in outcomes for n in oc.notes]
    with open(SPEC_PATH) as fh:
        spec = json.load(fh)
    units = {m["name"]: m["unit"]
             for m in spec["end_to_end"] + spec["per_layer"]}
    prov = provenance.provenance(ROOT, args.seed, {
        w["name"]: w["why"] for w in spec["workloads"]})
    lines = [f"workload {args.workload} seed {args.seed} size {args.size} "
             f"trace {args.trace}: {len(res['op_s']) + len(res['op_s_traced'])} "
             f"operations in {res['wall_s']:.2f} s measured (closed loop, one client)"]
    metrics = {}

    def put(name, value, note=""):
        metrics[name] = {"value": value, "unit": units[name]}
        lines.append(f"{name} = {value:.6g} {units[name]}"
                     + (f"  ({note})" if note else ""))

    p50 = median(res["op_s"])
    if args.trace:
        values, counts = tracing.layer_metrics(
            res["rec"].spans, len(res["op_s_traced"]), res["manifest_walls"])
        traced_p50 = median(res["op_s_traced"])
        values["bench.trace_overhead_s"] = traced_p50 - p50
        for m in spec["per_layer"]:
            put(m["name"], values[m["name"]])
        lines.append(f"op_s.p50 traced {traced_p50:.6g} s over "
                     f"{len(res['op_s_traced'])} ops, untraced {p50:.6g} s over "
                     f"{len(res['op_s'])} ops")
        wall = sum(res["op_wall_s_traced"]) / len(res["op_wall_s_traced"])
        shares = sorted(((v / wall, k) for k, v in values.items()
                         if k.endswith(".self_s")), reverse=True)
        lines.append(f"self time as a share of the traced operations' mean wall "
                     f"time {wall:.6g} s: " + ", ".join(
                         f"{k} {100 * v:.1f}%" for v, k in shares[:5]))
        lines.append("exact counts over the traced operations (set-up: *_setup): "
                     + json.dumps(counts))
        lines.append("resolvent.fft_bytes_computed is computed from array sizes, "
                     "not measured")
        res["rec"].write(os.path.join(
            OUT_DIR, f"spans-{args.workload}-seed{args.seed}.jsonl"))
    else:
        n = len(res["op_s"])
        value, pct = tail(res["op_s"])
        put("op_s.p50", p50, f"median of {n} operations; wall "
            f"{median(res['op_wall_s']):.6g} s")
        put("op_s.tail", value, f"p{pct:.1f} of {n} samples, 10 beyond it"
            if n > 10 else f"maximum: only {n} samples")
        put("setup_s", median(res["setup_s"]), "median of fresh processes: "
            + ", ".join(f"{s:.4g}" for s in res["setup_s"]) + "; wall "
            + ", ".join(f"{s:.4g}" for s in res["setup_wall_s"]))
        put("peak_rss_mb", res["peak_rss_mb"])
        lines.append("times are corrected to the reference speed "
                     f"(kernel {speed.REFERENCE_S:g} s); the speed "
                     f"probe read {min(res['probe_s']):.4g} to "
                     f"{max(res['probe_s']):.4g} s")
    error_rate = failed / attempted if attempted else 0.0
    lines.append(f"error_rate = {error_rate:.6g} ratio  ({failed} failed of "
                 f"{attempted} attempted; unit: {wl.unit})")
    for note in notes[:8]:
        lines.append(f"  failure: {note}")
    if len(notes) > 8:
        lines.append(f"  ... {len(notes) - 8} more failure notes in the result file")
    lines.append(f"correct = {str(correct).lower()}")
    lines.append("provenance " + json.dumps(prov, sort_keys=True))

    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, f"result-{args.workload}-seed{args.seed}"
                                    f"-trace{args.trace}.json"), "w") as fh:
        json.dump({**result, "error_rate": error_rate, "unit": wl.unit,
                   "op_s": res["op_s"], "op_s_traced": res["op_s_traced"],
                   "op_wall_s": res["op_wall_s"], "setup_s": res["setup_s"],
                   "setup_wall_s": res["setup_wall_s"], "probe_s": res["probe_s"],
                   "notes": notes, "provenance": prov}, fh, indent=1)
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
