"""Entry script of the benchmark: ``python3 benchmarks/harness/run.py
--workload W --seed N --seconds S --trace 0|1`` (see README.md)."""

from time import perf_counter

_PROCESS_START = perf_counter()

if __name__ == "__main__":
    import sys
    from pathlib import Path

    sys.path.insert(0, str(Path(__file__).resolve().parent.parent.parent))

    from benchmarks.harness import env

    raise SystemExit(env.start(_PROCESS_START))
