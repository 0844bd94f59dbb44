"""Machine and environment record written with every result."""

from __future__ import annotations

import ctypes
import glob
import hashlib
import os
import platform
import subprocess
from importlib import metadata
from pathlib import Path

import numpy as np

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
_GET_THREADS = ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads")


def _read(path: str) -> str | None:
    try:
        with open(path) as fh:
            return fh.read().strip()
    except OSError:
        return None


def _cpu_model() -> str | None:
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or None


def _caches() -> dict[str, str]:
    out = {}
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        level, kind, size = (_read(f"{index}/{f}") for f in ("level", "type", "size"))
        if level and size:
            out[f"L{level}{'' if kind == 'Unified' else (kind or '?')[0].lower()}"] = size
    return out


def _blas_threads() -> int | None:
    """Threads the loaded OpenBLAS will use, asked of the library itself."""
    libs = {line.split()[-1] for line in (_read("/proc/self/maps") or "").splitlines() if "openblas" in line}
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in _GET_THREADS:
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def _blas() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        vendor, version = blas.get("name"), blas.get("version")
    except (KeyError, TypeError, ValueError):
        vendor = version = None
    return {
        "vendor": vendor,
        "version": version,
        "threads": _blas_threads(),
        "env": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
    }


def _git_commit(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def source_digest(root: Path) -> str:
    """SHA-256 over the program's sources, for checkouts without git."""
    h = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        h.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def record(root: Path) -> dict:
    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "caches": _caches(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": version("scipy"),
        "blas": _blas(),
        "git_commit": _git_commit(root),
        "source_sha256": source_digest(root),
    }
