"""Percentile, segment and spread arithmetic (numpy only, no ``repro``).

**How a timing is reported.**  Interference on a shared sandbox only
ever slows the program down, and it comes in episodes: an identical
25 ms unit of pure-Python work measured here ran in 22–23 ms at its best
in every 10 s stretch of a 10 minute trace, but in 25–36 ms (p10–p90)
overall.  A median over the timed window therefore follows the
sandbox's mood (run-to-run quartile spread 0.13–0.26 on that trace), the
undisturbed part of the window does not (0.03–0.05).  So a timed slice is
cut into short segments, the segments of all slices are ranked by
throughput, and the reported throughput is that of the calls of the
*quiet fifth* — the fastest 20 % of segments.  A real regression slows
every segment and moves it just the same.  The workload chooses the
segment length: as short as keeps a few dozen calls in a segment (short
quiet moments are then found even in a noisy run: over 8 disturbed runs
of ``query_disk`` the reported throughput ranged over 31 % of its median
with 0.5 s segments and 26 % with 0.1 s).

**The percentiles of the in-process loops.**  ``index.search`` is
deterministic — the same query does the same evaluations every time —
yet 30 repeats of one ``query_disk`` call spread by a factor of 1.44
(p90 over p10) on a quiet sandbox: the fastest repeat of each of 400
queries lay between 0.200 and 0.238 ms (p1–p99) while the p99 of all
their calls was 0.446 ms.  The p99 of single calls is therefore the
sandbox's tail, not the program's, and it follows the sandbox's mood
twice as far as the median does (within one set of ten runs the p50
drifted from 0.25 to 0.31 ms and the p99 from 0.34 to 0.52 ms, a
quartile spread of 0.25).  So those loops walk a pool small enough for
every distinct call to be repeated (about 15 times a run on
``query_disk``, 6 on ``query_batch``), and ``p50_ms`` and ``p99_ms`` are
percentiles, over the distinct calls, of each call's *fastest repeat*
(:func:`fastest_repeats`): the cost of the median and of the hardest
queries with the interference taken off — the p99 spread 0.05 where the
p99 of the quiet fifth's calls had 0.12 on the same runs.  A stall that
is not tied to a query (a pause every so many calls) does not show
there; it shows in ``ops_per_s``, which counts wall time.

**Where the quiet fifth does not hold.**  ``serve_mixed`` has work of
its own that comes and goes — the writer's ``/add`` holds the server for
about 0.25 s of every 0.36 s — so ranking its segments by throughput
ranks them by how much of the writer they caught: the quiet fifth's p99
hung on some ten mutations and its run-to-run quartile spread was
0.20–0.22 over two sets of ten runs (0.26 and 0.19 in the driver's own),
against 0.07–0.12 for the median of per-segment values on the same
request records, while throughput was no steadier for the ranking
(0.12–0.15 against 0.09–0.11).  That workload therefore reports the
median over *all* its segments (:func:`median_summary`), each long
enough to hold three writer cycles and over 1 000 requests, so that a
segment's p99 has ten samples beyond it.
"""

from __future__ import annotations

import math
import statistics
from typing import Any, NamedTuple, Sequence

import numpy as np

QUIET_SHARE = 0.2


def percentile(values: Any, q: float) -> float:
    """``q``-th percentile (0..100), linear interpolation between order
    statistics — the definition ``numpy.percentile`` defaults to."""
    arr = np.sort(np.asarray(values, dtype=np.float64))
    if arr.size == 0:
        raise ValueError("percentile of no samples")
    pos = (arr.size - 1) * q / 100.0
    lo = int(np.floor(pos))
    hi = min(lo + 1, arr.size - 1)
    return float(arr[lo] + (arr[hi] - arr[lo]) * (pos - lo))


class Segment(NamedTuple):
    ops: float  # operations of the calls completed in the segment
    span_s: float  # the time those calls took: last completion to last completion
    lat_ms: np.ndarray  # their latencies

    @property
    def ops_per_s(self) -> float:
        return self.ops / self.span_s


def cut_segments(
    ends: Any,
    latencies_ms: Any,
    ops: Any,
    t0: float,
    seconds: float,
    segment_s: float,
) -> list[Segment]:
    """Cut a timed slice ``[t0, t0 + seconds)`` into equal segments of about
    ``segment_s`` (at least one).

    A call belongs to the segment in which it *completed*.  A segment's
    span runs from the last completion before it to the last completion
    in it — exactly the time its calls took, so throughput is not
    quantised by the segment length.  A call that completes after the
    slice (the one in flight when the clock ran out) belongs to no
    segment; a segment in which nothing completed (a stall) is absorbed
    into the span of the next one.
    """
    segments = max(1, round(seconds / segment_s))
    ends = np.asarray(ends, dtype=np.float64)
    order = np.argsort(ends, kind="stable")
    ends = ends[order]
    lat = np.asarray(latencies_ms, dtype=np.float64)[order]
    ops = np.asarray(ops, dtype=np.float64)[order]
    which = np.floor((ends - t0) / (seconds / segments)).astype(np.int64)
    out: list[Segment] = []
    previous_end = t0
    for j in range(segments):
        mask = which == j
        if not mask.any():
            continue
        last_end = float(ends[mask][-1])
        out.append(Segment(float(ops[mask].sum()), last_end - previous_end, lat[mask]))
        previous_end = last_end
    if not out:
        raise ValueError("no call completed inside the timed slice")
    return out


def quiet_count(n: int) -> int:
    return max(1, math.ceil(QUIET_SHARE * n))


def quiet_ops_per_s(segments: Sequence[Segment]) -> float:
    """Throughput over the calls of the quiet fifth of the segments (see
    the module docstring)."""
    ranked = sorted(segments, key=lambda s: s.ops_per_s, reverse=True)
    quiet = ranked[: quiet_count(len(ranked))]
    return sum(s.ops for s in quiet) / sum(s.span_s for s in quiet)


def median_summary(segments: Sequence[Segment]) -> dict[str, float]:
    """The median over all segments of each segment's throughput, p50 and
    p99 (see the module docstring); ``samples`` is the size of the
    smallest segment, the one whose p99 has the fewest samples beyond it."""
    return {
        "ops_per_s": statistics.median(s.ops_per_s for s in segments),
        "p50_ms": statistics.median(percentile(s.lat_ms, 50) for s in segments),
        "p99_ms": statistics.median(percentile(s.lat_ms, 99) for s in segments),
        "samples": min(len(s.lat_ms) for s in segments),
    }


def fastest_repeats(rows: Any, latencies_ms: Any, n_rows: int) -> np.ndarray:
    """Per distinct call of a pool the latency of its fastest repeat
    (``rows[i]`` names the pool row that timed call ``i`` made); rows
    never called are left out."""
    best = np.full(n_rows, np.inf)
    np.minimum.at(best, np.asarray(rows, dtype=np.int64), np.asarray(latencies_ms, dtype=np.float64))
    return best[np.isfinite(best)]


def quiet_mean(seconds: Sequence[float]) -> float:
    """Mean of the quiet (fastest) fifth of repeated timings of one call."""
    ranked = sorted(seconds)
    return statistics.fmean(ranked[: quiet_count(len(ranked))])


def quartile_spread(values: Sequence[float]) -> float:
    """Distance between first and third quartile as a share of the median
    (``statistics.quantiles(values, n=4)``, as the driver computes it)."""
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return abs(q3 - q1) / abs(med) if med else float("inf")


def worse_by(first: float, second: float, better: str) -> float:
    """How much worse ``second`` is than ``first``, as a share of ``first``
    (negative when it is better)."""
    if first == 0:
        return 0.0 if second == 0 else float("inf")
    gap = (second - first) / abs(first)
    return gap if better == "lower" else -gap
