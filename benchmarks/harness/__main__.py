"""``python -m benchmarks.harness`` — same program as ``run.py``."""

from time import perf_counter

_PROCESS_START = perf_counter()

from . import env  # noqa: E402

raise SystemExit(env.start(_PROCESS_START))
