"""Write the reference values the benchmark checks outputs against.

    python3 perfbench/make_reference.py

For every workload, at both sizes, and for every input a seed can draw,
solve through helmscat's library functions (the benchmark's solve-3d
operations go through the CLI instead) and store the values in
``perfbench/reference/<workload>.json``.  Regenerate only when a
change is meant to alter these numbers, and say so where the change is
recorded.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import workloads as W  # noqa: E402


def _solve3d(size: str) -> dict:
    wl = W.Solve3D(seed=0, size=size, workdir=None)
    wl.load()
    hs = wl.hs
    _, rcfg, _, f = wl._bump_problem(3, wl.L, wl.params["M"], W.BUMP, wl.P)
    scfg = hs.solver.SolverConfig(tol=W.TOL)
    out = {}
    for di, d in enumerate(W.DIRECTIONS_3D):
        phi1 = hs.fields.make_incident(hs.fields.IncidentWave.plane(wl.K, d),
                                       rcfg.eval_grid)
        for ai, a in enumerate(W.AMPLITUDES):
            u, rep = hs.solver.picard_solve(f, phi1 * a, wl.K, scfg, rcfg)
            out[f"d{di}-a{ai}"] = {"sup_norm": u.sup_norm,
                                   "iterations": rep.iterations,
                                   "status": rep.status}
    return out


def _branch2d(size: str) -> dict:
    wl = W.Branch2D(seed=0, size=size)
    wl.load()
    wl.build()
    out = {}
    for j in range(len(W.ANGLES_2D)):
        inp = wl.make_input(j)
        branch, probe, _ = wl.run(inp)
        out[inp["key"]] = {
            "points": [[p.lam, p.sup_norm] for p in branch.points],
            "terminated_reason": branch.terminated_reason,
        }
    return out


def _certify(size: str) -> dict:
    wl = W.CertifySweep(seed=0, size=size)
    wl.load()
    wl.build(ks=list(range(len(W.WAVENUMBERS))))
    out = {}
    for i in range(len(wl.solutions)):
        inp = wl.prepare(i)
        summary = W.summarize_battery(wl.run(inp))
        summary["sup_norm"] = inp["u"].sup_norm
        summary["k"] = inp["k"]
        out[inp["key"]] = summary
    return out


MAKERS = {"solve-3d": _solve3d, "branch-2d": _branch2d, "certify-sweep": _certify}


def main() -> int:
    os.makedirs(W.REFERENCE_DIR, exist_ok=True)
    for name, make in sorted(MAKERS.items()):
        doc = {"workload": name, "params": W.SIZES[name], "sizes": {}}
        for size in ("full", "tiny"):
            doc["sizes"][size] = make(size)
            print(f"{name} {size}: {len(doc['sizes'][size])} inputs", flush=True)
        with open(os.path.join(W.REFERENCE_DIR, f"{name}.json"), "w") as fh:
            fh.write(_dumps(doc))
    return 0


def _dumps(doc: dict) -> str:
    """JSON with one line per input, so that a regenerated reference diffs
    line by line."""
    dump = lambda obj: json.dumps(obj, sort_keys=True)  # noqa: E731
    sizes = []
    for size in sorted(doc["sizes"]):
        rows = doc["sizes"][size]
        body = ",\n".join(f"   {dump(key)}: {dump(rows[key])}" for key in sorted(rows))
        sizes.append(f"  {dump(size)}: {{\n{body}\n  }}")
    return (f'{{\n "workload": {dump(doc["workload"])},\n'
            f' "params": {dump(doc["params"])},\n'
            f' "sizes": {{\n' + ",\n".join(sizes) + "\n }\n}\n")


if __name__ == "__main__":
    sys.exit(main())
