"""Span recording for the traced run, from outside helmscat.

Each public function is wrapped where the calling module binds it (for
example ``helmscat.solver.apply_resolvent``, which ``picard_solve`` calls),
so every call through that binding becomes a span: name, start, end, parent
span and operation id.  ``recording`` swaps the wrappers in around one
operation and puts the original functions back after it.  Spans stay in
memory and are written out once, when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import os
import time
from statistics import median


def _apply_shape(args, kwargs, out):
    cfg = args[1] if len(args) > 1 else kwargs["cfg"]
    g = cfg.eval_grid
    return (g.points_per_axis, g.dim)


def _points(args, kwargs, out):
    r = args[1] if len(args) > 1 else kwargs["r"]
    return int(getattr(r, "size", 1))


def _solve_report(args, kwargs, out):
    cfg = args[3] if len(args) > 3 else kwargs["cfg"]
    rep = out[1]
    false_converged = bool(rep.converged and rep.final_residual is not None
                           and rep.final_residual > cfg.tol)
    return (rep.iterations, false_converged)


def _branch(args, kwargs, out):
    return (len(out.points) - 1, out.points[-1].lam)


def _file_bytes(args, kwargs, out):
    path = args[0] if args else kwargs["path"]
    return os.path.getsize(path)


# (module, attribute, span name, annotate(args, kwargs, result) or None)
TARGETS = (
    ("helmscat.solver", "apply_resolvent", "resolvent.apply", _apply_shape),
    ("helmscat.resolvent", "apply_resolvent", "resolvent.apply", _apply_shape),
    ("helmscat.resolvent", "fundamental_solution", "specfun.fundamental_solution", _points),
    ("helmscat.resolvent", "hankel1", "specfun.bessel", None),
    ("helmscat.verify", "bessel_j", "specfun.bessel", None),
    ("helmscat.verify", "bessel_y", "specfun.bessel", None),
    ("helmscat.verify", "j_zeros", "specfun.zeros", None),
    ("helmscat.verify", "first_y_zero", "specfun.zeros", None),
    ("helmscat.resolvent", "estimate_kappa", "resolvent.kappa", None),
    ("helmscat.resolvent", "radiation_report", "resolvent.radiation", None),
    ("helmscat.solver", "radiation_report", "resolvent.radiation", None),
    ("helmscat.resolvent", "far_field", "resolvent.far_field", None),
    ("helmscat.solver", "apply_nonlinearity", "fields.nonlinearity", None),
    ("helmscat.solver", "restrict_field", "fields.restrict", None),
    ("helmscat.solver", "estimate_lipschitz", "fields.lipschitz", None),
    ("helmscat.cli", "save_field", "fields.io", _file_bytes),
    ("helmscat.solver", "picard_solve", "solver.picard_solve", _solve_report),
    ("helmscat.cli", "picard_solve", "solver.picard_solve", _solve_report),
    ("helmscat.continuation", "picard_solve", "solver.picard_solve", _solve_report),
    ("helmscat.solver", "contraction_certificate", "solver.contraction_certificate", None),
    ("helmscat.continuation", "continue_branch", "continuation.continue_branch", _branch),
    ("helmscat.continuation", "blowup_probe", "continuation.blowup_probe", None),
    ("helmscat.verify", "fourier_positivity", "verify.fourier", None),
    ("helmscat.verify", "sturm_check", "verify.sturm", None),
    ("helmscat.verify", "energy_identity", "verify.energy", None),
    ("helmscat.verify", "defocusing_inequalities", "verify.defocusing", None),
    ("helmscat.cli", "main", "cli.main", None),
)

# span fields
NAME, START, END, PARENT, OP, ATTRS = range(6)


class SpanRecorder:
    """In-memory spans of one process, each attributed to the operation
    being recorded (0 is set-up)."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.op = 0

    def call(self, name, fn, args, kwargs, annotate):
        sid = len(self.spans)
        span = [name, 0, 0, self._stack[-1] if self._stack else -1, self.op, None]
        self.spans.append(span)
        self._stack.append(sid)
        span[START] = time.perf_counter_ns()
        try:
            out = fn(*args, **kwargs)
        finally:
            span[END] = time.perf_counter_ns()
            self._stack.pop()
        if annotate is not None:
            span[ATTRS] = annotate(args, kwargs, out)
        return out

    def _wrap(self, fn, name, annotate):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, annotate)
        return traced

    @contextlib.contextmanager
    def recording(self, op: int):
        """Wrap every target for the duration of operation ``op``."""
        saved = []
        try:
            for module, attr, name, annotate in TARGETS:
                mod = importlib.import_module(module)
                original = getattr(mod, attr)
                saved.append((mod, attr, original))
                setattr(mod, attr, self._wrap(original, name, annotate))
            self.op = op
            yield self
        finally:
            for mod, attr, original in reversed(saved):
                setattr(mod, attr, original)

    def write(self, path: str):
        """One JSON array per line: name, start_ns, end_ns, parent, op,
        attributes; times count from the first span."""
        t0 = self.spans[0][START] if self.spans else 0
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps([s[NAME], s[START] - t0, s[END] - t0,
                                     s[PARENT], s[OP], s[ATTRS]]) + "\n")


def fft_bytes(m: int, dim: int) -> int:
    """Bytes of the three complex128 FFT arrays one fftconvolve apply
    transforms: the source and the kernel table, padded to the full linear
    convolution size next_fast_len(3m - 2) per axis, and their product.
    Computed from array sizes, not measured."""
    from scipy.fft import next_fast_len
    return 3 * 16 * next_fast_len(3 * m - 2, real=False) ** dim


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list, n_ops: int, manifest_walls: list) -> tuple[dict, dict]:
    """Per-layer metrics from the spans, and the exact counts behind them.

    Times are per traced operation and exclude set-up (op 0).  Counts are
    exact totals divided by the number of traced operations; the ``_setup``
    metrics count set-up alone.  Undefined ratios read 0.
    """
    n = len(spans)
    dur = [s[END] - s[START] for s in spans]
    covered = [0] * n
    for i, s in enumerate(spans):
        if s[PARENT] >= 0:
            covered[s[PARENT]] += dur[i]

    def ancestor(i, prefix):
        p = spans[i][PARENT]
        while p >= 0:
            if spans[p][NAME].startswith(prefix):
                return p
            p = spans[p][PARENT]
        return -1

    self_s = {}
    for i, s in enumerate(spans):
        if s[OP] > 0:
            self_s[s[NAME]] = self_s.get(s[NAME], 0) + dur[i] - covered[i]

    def per_op_s(*prefixes):
        total = sum(v for k, v in self_s.items() if k.startswith(prefixes))
        return _ratio(total * 1e-9, n_ops)

    builds = {s[PARENT] for s in spans if s[NAME] == "specfun.fundamental_solution"}
    c = dict.fromkeys((
        "applies", "builds", "builds_setup", "points", "points_setup",
        "solves", "iterations", "solver_applies", "false_converged",
        "branch_solves", "branch_applies", "accepted", "io_bytes"), 0)
    apply_ms, shapes, lambdas = [], [], []
    for i, s in enumerate(spans):
        name, in_op = s[NAME], s[OP] > 0
        if name == "resolvent.apply":
            built = i in builds
            if in_op:
                c["applies"] += 1
                c["builds"] += built
                apply_ms.append(dur[i] * 1e-6)
                shapes.append(s[ATTRS])
                if ancestor(i, "solver.picard_solve") >= 0:
                    c["solver_applies"] += 1
                if ancestor(i, "continuation.continue_branch") >= 0:
                    c["branch_applies"] += 1
            else:
                c["builds_setup"] += built
        elif name == "specfun.fundamental_solution":
            c["points" if in_op else "points_setup"] += s[ATTRS]
        elif not in_op:
            continue
        elif name == "solver.picard_solve":
            c["solves"] += 1
            c["iterations"] += s[ATTRS][0]
            c["false_converged"] += s[ATTRS][1]
            if ancestor(i, "continuation.continue_branch") >= 0:
                c["branch_solves"] += 1
        elif name == "continuation.continue_branch":
            c["accepted"] += s[ATTRS][0]
            lambdas.append(s[ATTRS][1])
        elif name == "fields.io":
            c["io_bytes"] += s[ATTRS]

    per_op = lambda key: _ratio(c[key], n_ops)  # noqa: E731
    values = {
        "resolvent.apply.calls": per_op("applies"),
        "resolvent.apply.self_s": per_op_s("resolvent.apply"),
        "resolvent.apply.ms_p50": median(apply_ms) if apply_ms else 0.0,
        "resolvent.fft_bytes_computed": _ratio(sum(fft_bytes(*sh) for sh in shapes),
                                               len(shapes)),
        "resolvent.table_builds": per_op("builds"),
        "resolvent.table_builds_setup": c["builds_setup"],
        "resolvent.cache_hit_ratio": _ratio(c["applies"] - c["builds"], c["applies"]),
        "resolvent.kappa.self_s": per_op_s("resolvent.kappa"),
        "resolvent.radiation.self_s": per_op_s("resolvent.radiation"),
        "resolvent.far_field.self_s": per_op_s("resolvent.far_field"),
        "specfun.fundamental_solution.points": per_op("points"),
        "specfun.fundamental_solution.points_setup": c["points_setup"],
        "specfun.fundamental_solution.self_s": per_op_s("specfun.fundamental_solution"),
        "specfun.zeros.self_s": per_op_s("specfun.zeros"),
        "specfun.bessel.self_s": per_op_s("specfun.bessel"),
        "fields.nonlinearity.self_s": per_op_s("fields.nonlinearity"),
        "fields.restrict.self_s": per_op_s("fields.restrict"),
        "fields.lipschitz.self_s": per_op_s("fields.lipschitz"),
        "fields.io.self_s": per_op_s("fields.io"),
        "fields.io.bytes": per_op("io_bytes"),
        "solver.solves": per_op("solves"),
        "solver.iterations": per_op("iterations"),
        "solver.applies_per_iteration": _ratio(c["solver_applies"], c["iterations"]),
        "solver.self_s": per_op_s("solver."),
        "solver.false_converged": per_op("false_converged"),
        "continuation.solves_attempted": per_op("branch_solves"),
        "continuation.points_accepted": per_op("accepted"),
        "continuation.accept_ratio": _ratio(c["accepted"], c["branch_solves"]),
        "continuation.applies_per_point": _ratio(c["branch_applies"], c["accepted"]),
        "continuation.lambda_reached": median(lambdas) if lambdas else 0.0,
        "continuation.self_s": per_op_s("continuation."),
        "verify.fourier.self_s": per_op_s("verify.fourier"),
        "verify.sturm.self_s": per_op_s("verify.sturm"),
        "verify.energy.self_s": per_op_s("verify.energy"),
        "verify.defocusing.self_s": per_op_s("verify.defocusing"),
        "cli.main.self_s": per_op_s("cli.main"),
        "cli.manifest_wall_s": _ratio(sum(manifest_walls), len(manifest_walls)),
        "bench.traced_ops": n_ops,
    }
    c["ops"] = n_ops
    return values, c
