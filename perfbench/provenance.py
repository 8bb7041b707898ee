"""Where and on what a benchmark result was measured."""

from __future__ import annotations

import glob
import hashlib
import os
import platform

THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "NUMEXPR_NUM_THREADS", "HELMSCAT_THREADS")


def _read(path: str) -> str:
    with open(path) as fh:
        return fh.read().strip()


def git_commit(root: str) -> str | None:
    """HEAD of the checkout, read from .git; None outside a git repository."""
    git = os.path.join(root, ".git")
    try:
        head = _read(os.path.join(git, "HEAD"))
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            return _read(path)
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return None


def source_digest(src: str) -> str:
    """sha256 over the package's Python sources, for checkouts without git."""
    h = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(src, "helmscat", "*.py"))):
        h.update(os.path.basename(path).encode() + b"\0")
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _caches() -> dict:
    out = {}
    for d in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        try:
            level, kind, size = (_read(os.path.join(d, f))
                                 for f in ("level", "type", "size"))
        except OSError:
            continue
        if level in ("2", "3"):
            out[f"L{level}"] = size if kind == "Unified" else f"{size} {kind}"
    return out


def os_threads() -> int | None:
    """Threads of this process as the kernel counts them."""
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("Threads:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return None


def provenance(root: str, seed: int, workloads: dict) -> dict:
    """Machine, software and input provenance of one run; call after
    helmscat (and so numpy and scipy) has been imported."""
    import numpy
    import scipy
    import scipy.fft

    return {
        "git_commit": git_commit(root),
        "source_sha256": source_digest(os.path.join(root, "src")),
        "seed": seed,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "caches": _caches(),
        "loadavg_1m": os.getloadavg()[0],
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "fft_workers": scipy.fft.get_workers(),
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
        "os_threads": os_threads(),
        "load_shape": "closed loop, one client, one process",
        "workloads": workloads,
    }
