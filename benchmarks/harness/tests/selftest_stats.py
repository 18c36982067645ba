import statistics

import numpy as np
import pytest

from benchmarks.harness import stats


def test_percentile_matches_numpy_linear_interpolation():
    rng = np.random.default_rng(3)
    for size in (1, 2, 7, 100, 1001):
        values = rng.exponential(size=size)
        for q in (0, 1, 50, 90, 99, 100):
            assert stats.percentile(values, q) == pytest.approx(np.percentile(values, q), rel=1e-12)


def test_percentile_of_six_build_calls_is_the_middle_and_the_largest_size():
    calls = [400.0, 410.0, 1300.0, 1310.0, 3900.0, 3950.0]
    assert stats.percentile(calls, 50) == pytest.approx(1305.0)
    assert 3900.0 < stats.percentile(calls, 99) <= 3950.0


def test_percentile_refuses_no_samples():
    with pytest.raises(ValueError):
        stats.percentile([], 50)


def test_segments_assign_calls_by_completion():
    # 5 segments of 2 s; segment j completes 10 * (j + 1) single-op calls,
    # each of latency (j + 1) ms; one call ends after the window.
    ends, lat = [], []
    for j in range(5):
        count = 10 * (j + 1)
        ends += [100.0 + 2.0 * j + (i + 1) * 1.9 / count for i in range(count)]
        lat += [float(j + 1)] * count
    ends.append(110.5)
    lat.append(1000.0)
    segs = stats.cut_segments(ends, lat, np.ones(len(ends)), t0=100.0, seconds=10.0, segment_s=2.0)
    # A span runs from last completion to last completion: 2 s each,
    # except the first, which starts at t0 and spans 1.9 s.
    assert [s.ops for s in segs] == [10.0, 20.0, 30.0, 40.0, 50.0]
    assert [s.span_s for s in segs] == pytest.approx([1.9, 2.0, 2.0, 2.0, 2.0])
    assert [float(np.median(s.lat_ms)) for s in segs] == [1.0, 2.0, 3.0, 4.0, 5.0]
    assert sum(len(s.lat_ms) for s in segs) == 150  # the late call is in no segment


def test_segments_weigh_calls_by_their_operations():
    segs = stats.cut_segments([0.5, 1.5, 2.5], [1.0] * 3, [64] * 3, t0=0.0, seconds=3.0, segment_s=1.0)
    assert [s.ops_per_s for s in segs] == [128.0, 64.0, 64.0]


def test_a_stalled_segment_is_absorbed_by_the_next_one():
    segs = stats.cut_segments([0.5, 2.5], [1.0, 3.0], [1, 1], t0=0.0, seconds=3.0, segment_s=1.0)
    assert [(s.ops, s.span_s) for s in segs] == [(1.0, 0.5), (1.0, 2.0)]
    with pytest.raises(ValueError):
        stats.cut_segments([9.0], [1.0], [1], t0=0.0, seconds=5.0, segment_s=1.0)


def test_segments_are_about_half_a_second_and_at_least_one():
    ends = np.linspace(0.01, 0.19, 30)
    assert len(stats.cut_segments(ends, np.ones(30), np.ones(30), t0=0.0, seconds=0.2, segment_s=0.5)) == 1
    ends = np.linspace(0.01, 3.32, 2000)
    assert len(stats.cut_segments(ends, np.ones(2000), np.ones(2000), t0=0.0, seconds=10 / 3, segment_s=0.5)) == 7


def _segment(ops_per_s, lat_ms, calls=100):
    return stats.Segment(ops=float(ops_per_s), span_s=1.0, lat_ms=np.full(calls, float(lat_ms)))


def test_the_reported_throughput_comes_from_the_quiet_fifth_of_the_segments():
    # 20 segments; the 4 fastest run at 100 ops/s, the rest are disturbed
    # to various degrees.
    segs = [_segment(100, 10)] * 4 + [_segment(100 - 3 * i, 10 + i) for i in range(1, 17)]
    assert stats.quiet_ops_per_s(segs) == 100.0
    # Disturbing the other segments more changes nothing ...
    assert stats.quiet_ops_per_s(segs[:4] + [_segment(20, 80)] * 16) == 100.0
    # ... slowing every segment by a tenth moves the value.
    slowed = [_segment(s.ops * 0.9, s.lat_ms[0] / 0.9) for s in segs]
    assert stats.quiet_ops_per_s(slowed) == pytest.approx(90.0)


def test_quiet_fifth_is_at_least_one_and_rounds_up():
    assert [stats.quiet_count(n) for n in (1, 5, 6, 20, 21)] == [1, 1, 2, 4, 5]
    assert stats.quiet_mean([3.0, 1.0, 2.0]) == 1.0
    assert stats.quiet_mean([5.0, 1.0, 3.0, 2.0, 4.0, 6.0]) == 1.5


def test_median_summary_is_the_median_of_the_per_segment_values():
    # Nine segments; one of them holds a stall in 2 % of its calls.
    stalled = stats.Segment(80.0, 1.0, np.array([10.0] * 98 + [500.0] * 2))
    segs = [_segment(100 - i, 10 + i) for i in range(8)] + [stalled]
    out = stats.median_summary(segs)
    assert out == {"ops_per_s": 96.0, "p50_ms": 13.0, "p99_ms": 14.0, "samples": 100}
    # A stall in every segment is a tail of the program's own: it shows.
    everywhere = [stats.Segment(s.ops, s.span_s, np.append(s.lat_ms[:-2], [500.0, 500.0])) for s in segs]
    assert stats.median_summary(everywhere)["p99_ms"] == 500.0


def test_fastest_repeats_keeps_each_pool_call_at_its_best():
    # Three passes over a pool of four calls; call 3 is never reached in
    # the last pass and call 2 is disturbed once.
    rows = [0, 1, 2, 3, 0, 1, 2, 3, 0, 1, 2]
    lat = [1.0, 2.0, 3.0, 4.0, 1.5, 2.5, 30.0, 4.5, 1.2, 1.9, 3.5]
    assert stats.fastest_repeats(rows, lat, n_rows=6).tolist() == [1.0, 1.9, 3.0, 4.0]


def test_quartile_spread_is_the_drivers_formula():
    values = [10.0, 10.2, 9.9, 10.1, 10.4, 9.7, 10.0, 10.3, 9.8, 10.1]
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    assert stats.quartile_spread(values) == pytest.approx((q3 - q1) / statistics.median(values))


def test_worse_by_follows_the_direction():
    assert stats.worse_by(100.0, 110.0, "lower") == pytest.approx(0.10)
    assert stats.worse_by(100.0, 110.0, "higher") == pytest.approx(-0.10)
    assert stats.worse_by(100.0, 90.0, "higher") == pytest.approx(0.10)
