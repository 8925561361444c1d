"""Process environment for benchmark runs: thread pinning and provenance.

Import this module before numpy. It pins the BLAS and OpenMP thread
pools to an explicit count (at most the CPUs this process may use, and
at most two), and puts the checkout's ``src`` directory first on the
import path so the package is run from source.
"""

from __future__ import annotations

import os
import platform
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
)


def usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


BLAS_THREADS = min(2, usable_cpus())


def pin_threads(env=None):
    """Set every thread-pool variable to BLAS_THREADS in ``env``."""
    env = os.environ if env is None else env
    for var in THREAD_VARS:
        env[var] = str(BLAS_THREADS)
    return env


def source_present() -> bool:
    return os.path.isfile(os.path.join(SRC, "fiolab", "__init__.py"))


def use_source():
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


def _git_commit() -> str:
    # a checkout exported without .git has no commit to record; asking
    # git there could report an enclosing repository instead
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _blas_version() -> str:
    import numpy as np

    try:
        cfg = np.show_config(mode="dicts")
        blas = cfg["Build Dependencies"]["blas"]
        return f"{blas.get('name', '?')} {blas.get('version', '?')}"
    except Exception:  # older numpy has no dict mode
        return "unknown"


def environment_record(workload: str, seed: int) -> dict:
    import numpy as np

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas_version(),
        "blas_threads": BLAS_THREADS,
        "nproc": usable_cpus(),
        "git_commit": _git_commit(),
        "workload": workload,
        "seed": seed,
    }
