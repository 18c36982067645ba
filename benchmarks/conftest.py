"""Shared benchmark utilities.

Every bench regenerates one of the paper's quantitative claims.  The
experiment index is the table titles themselves: E1 G_net size, E2
greedy query cost, E3 construction time (Theorem 1.1), E4 tree and E5
block lower bounds (Theorem 1.2), E6/E7 the Euclidean separation
(Theorem 1.3), E8 builders against the Section 2.3 bounds, E9 geometry
facts (engine and build throughput are measured by ``harness/``, not
here).  Bench output goes two places: stdout
(visible with ``pytest benchmarks/ --benchmark-only -s``) and
``benchmarks/results/<name>.txt``, a reproducible artifact per table.

Conventions: seeds are fixed; sizes are laptop-scale (the goal is the
*shape* of each curve — who wins, what grows with what — not absolute
numbers from the authors' hardware).
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

RESULTS_DIR = Path(__file__).parent / "results"


@pytest.fixture
def bench_rng() -> np.random.Generator:
    return np.random.default_rng(2025)


def write_table(
    name: str,
    title: str,
    headers: list[str],
    rows: list[list],
    notes: str = "",
) -> str:
    """Format an aligned text table, print it, and persist it."""
    RESULTS_DIR.mkdir(exist_ok=True)
    str_rows = [[_fmt(c) for c in row] for row in rows]
    widths = [
        max(len(h), *(len(r[j]) for r in str_rows)) if str_rows else len(h)
        for j, h in enumerate(headers)
    ]
    lines = [title, "=" * len(title), ""]
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for r in str_rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(r, widths)))
    if notes:
        lines += ["", notes]
    text = "\n".join(lines) + "\n"
    (RESULTS_DIR / f"{name}.txt").write_text(text)
    print("\n" + text)
    return text


def _fmt(cell) -> str:
    if isinstance(cell, float):
        if cell == 0:
            return "0"
        if abs(cell) >= 1000 or abs(cell) < 0.01:
            return f"{cell:.3g}"
        return f"{cell:.3f}".rstrip("0").rstrip(".")
    return str(cell)


def loglog_slope(xs, ys) -> float:
    """Least-squares slope of log(y) against log(x) — the growth exponent
    benches assert on (e.g. ~1 for linear-in-n edge counts)."""
    lx, ly = np.log(np.asarray(xs, float)), np.log(np.asarray(ys, float))
    lx = lx - lx.mean()
    return float((lx @ (ly - ly.mean())) / (lx @ lx))
