"""The environment a result was measured in.

Results are comparable only when ``BACKEND_KEYS`` agree: the kernel backend
bac selected, the BLAS library and its thread count, and the core count.
"""

from __future__ import annotations

import ctypes
import glob
import hashlib
import os
import platform
import sys

import numpy as np

BACKEND_KEYS = ("kernel_backend", "blas", "blas_threads", "nproc")


def _git_commit(root: str) -> str:
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _source_digest(root: str) -> str:
    """SHA-256 over src/bac/*.py, so a checkout without git still names its code."""
    digest = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(root, "src", "bac", "*.py"))):
        digest.update(os.path.basename(path).encode())
        with open(path, "rb") as fh:
            digest.update(fh.read())
    return digest.hexdigest()


def _openblas() -> tuple[str, int]:
    """(config string, thread count) of the OpenBLAS numpy loaded, if found."""
    site = os.path.dirname(os.path.dirname(np.__file__))
    for path in glob.glob(os.path.join(site, "numpy.libs", "*openblas*")):
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("scipy_openblas_", "64_"), ("openblas_", "64_"), ("openblas_", "")):
            get_config = getattr(lib, f"{prefix}get_config{suffix}", None)
            get_threads = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
            if get_config is not None and get_threads is not None:
                get_config.argtypes, get_config.restype = [], ctypes.c_char_p
                get_threads.argtypes, get_threads.restype = [], ctypes.c_int
                return get_config().decode(), int(get_threads())
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(), -1


def kernel_backend() -> str:
    try:
        from bac import kernels
    except ImportError:
        return "numpy"
    active = getattr(kernels, "active_backend", None)
    return active() if active else "numpy"


def collect(root: str) -> dict:
    blas, threads = _openblas()
    return {
        "commit": _git_commit(root),
        "source_sha256": _source_digest(root),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": threads,
        "kernel_backend": kernel_backend(),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "executable": os.path.basename(sys.executable),
    }


def mismatched_backends(a: dict, b: dict) -> list[str]:
    return [f"{k}: {a.get(k)!r} != {b.get(k)!r}" for k in BACKEND_KEYS if a.get(k) != b.get(k)]
