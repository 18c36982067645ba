"""Environment pinning, paths and the machine fingerprint.

Nothing here imports numpy or ``repro`` at module level: ``pin_threads``
must run before numpy loads, and the fingerprint is taken lazily.
"""

from __future__ import annotations

import json
import os
import platform
import sys
from pathlib import Path
from typing import Any

HARNESS_DIR = Path(__file__).resolve().parent
ROOT = HARNESS_DIR.parent.parent
SRC = ROOT / "src"
RESULTS_DIR = HARNESS_DIR / "results"
SCRATCH_PARENT = HARNESS_DIR / ".scratch"
ACCEL_CACHE = HARNESS_DIR / ".cache" / "accel"

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def pin_threads() -> None:
    """Force single-threaded BLAS/OpenMP and keep the compiled-kernel
    cache inside the checkout.  Must run before numpy is imported."""
    if "numpy" in sys.modules:
        raise RuntimeError("pin_threads() must run before numpy is imported")
    for var in THREAD_VARS:
        os.environ[var] = "1"
    os.environ["REPRO_ACCEL_CACHE"] = str(ACCEL_CACHE)


def add_src_to_path() -> None:
    """Make ``repro`` importable from the checkout's ``src/``.

    Exits non-zero (without printing a result) when the program under
    test is not there — the harness measures this checkout's code and
    never falls back to an installed copy."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.stderr.write(f"benchmark harness: no program to measure at {SRC}\n")
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))


def start(process_start: float) -> int:
    """What both entry points do: pin the environment before numpy loads,
    find the program, then hand over to the command line."""
    pin_threads()
    add_src_to_path()
    from .cli import main

    return main(process_start=process_start)


def child_env() -> dict[str, str]:
    """Environment of the ``repro serve`` subprocess: same pins, same src."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def load_spec() -> dict[str, Any]:
    """``BENCHMARK.json`` — the single list of workloads and metric names."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def fingerprint(backend_used: str) -> dict[str, Any]:
    """What two result files must share before they may be compared."""
    import numpy as np
    from repro import accel

    return {
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "accel_available": accel.available_backends(),
        "backend_used": backend_used,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }
