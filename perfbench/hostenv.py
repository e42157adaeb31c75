"""Steady-host preamble shared by every benchmark process.

:func:`pin` must run before numpy is first imported: OpenBLAS reads its
thread count once, at library load.  With the default thread count three
identical ``train-wwt`` runs gave 20.3, 29.1 and 28.6 iterations/s on a
2-core host; with one BLAS thread they gave 27.7, 26.6 and 27.7.  The
pinned values live in the environment, so fleet replica processes (fork
or spawn) inherit them.

:func:`fingerprint` describes the host a result was measured on; every
result records it next to the metrics.
"""

from __future__ import annotations

import os
import platform
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
#: Scratch space for registries, checkpoints, spans and temp files; the
#: benchmark reads and writes nothing outside the checkout.
OUT = os.path.join(ROOT, ".perfbench_out")

PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    # Compiled plans and fused kernels are the defaults; pin them so an
    # inherited shell setting cannot silently change what is measured.
    "REPRO_PLAN": "1",
    "REPRO_FUSED": "1",
}


class HostError(RuntimeError):
    """The benchmark cannot run here (missing sources, numpy too early)."""


def pin() -> None:
    """Pin BLAS/OpenMP to one thread and put ``src/`` on the import path."""
    if "numpy" in sys.modules:
        raise HostError("hostenv.pin() must run before numpy is imported")
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise HostError(f"no repro sources under {SRC}; run the benchmark "
                        f"from the root of a full checkout")
    os.environ.update(PINNED_ENV)
    paths = [SRC] + [p for p in os.environ.get("PYTHONPATH", "").split(
        os.pathsep) if p and p != SRC]
    os.environ["PYTHONPATH"] = os.pathsep.join(paths)
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


def _blas_threads() -> int | None:
    """OpenBLAS's live thread count, read through its C API."""
    import ctypes
    import glob

    import numpy as np

    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def fingerprint() -> dict:
    """CPU count and affinity, BLAS name and threads, versions, mp start."""
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version', '')}".strip()
    except (KeyError, TypeError, ValueError):
        blas_name = "unknown"
    try:
        affinity = sorted(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        affinity = None
    return {
        "cpu_count": os.cpu_count(),
        "cpu_affinity": affinity,
        "blas": blas_name,
        "blas_threads": _blas_threads(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "repro_mp_start": os.environ.get("REPRO_MP_START"),
        "pinned_env": {k: os.environ.get(k) for k in sorted(PINNED_ENV)},
    }
