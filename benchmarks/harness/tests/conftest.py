"""Make ``benchmarks.harness`` and ``repro`` importable, with the same
environment pins the entry script applies (pytest plugins may already
have imported numpy, so ``env.pin_threads`` itself cannot be used)."""

import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[3]))

from benchmarks.harness import env  # noqa: E402

for var in env.THREAD_VARS:
    os.environ[var] = "1"
os.environ["REPRO_ACCEL_CACHE"] = str(env.ACCEL_CACHE)
sys.path.insert(0, str(env.SRC))
