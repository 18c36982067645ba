"""Run one workload: set-up and timed slices in turn, checks, metrics.

A workload is a module of ``workloads/`` with these functions:

``prepare(ctx) -> inputs``
    The harness's side of set-up, done once: inputs generated from the
    seed, ground truth, pre-encoded requests.
``setup(ctx, inputs) -> state``
    The program's side of set-up: build, save, open, spawn, warm-up.
``measure(ctx, state, seconds, tracer=None) -> Slice``
    A closed-loop timed slice; only top-level public calls inside.
``verify(ctx, state, slice) -> Verdict``
    Correctness of what the slice returned.
``summarise(slices) -> Timed``
    The reported timing values of all slices together.
``install(ctx, state, tracer)`` / ``layers(ctx, plain, traced, tracer)``
    Traced run only: patch the wrappers in; derive the layer metrics.
``teardown(state)``
    Stop processes, drop references.

One run makes ``SETUP_REPEATS`` rounds of ``setup`` → ``measure`` →
``verify`` → ``teardown``.  ``setup_s`` is everything before the first
timed operation — start-up and imports, ``prepare``, and the median of
the repeated ``setup``.  The timed window (``--seconds``) is shared out
over the rounds, one slice after each set-up: the slices then sample the
sandbox's speed over the whole run instead of one stretch of it, which is
what makes its quiet fifth (see ``stats``) findable, at no cost in run
time.

The untraced run (``--trace 0``) reports the end-to-end metrics.  The
traced run (``--trace 1``) spends the first half of every slice untraced
and the second half with the wrappers installed, reports the per-layer
metrics and the gap between the halves as ``trace.overhead_share``, and
writes ``trace_<workload>.json``.
"""

from __future__ import annotations

import importlib
import resource
import shutil
import statistics
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Any

from . import env, stats
from .tracing import Tracer

SETUP_REPEATS = 3
SMOKE_SCALE = 1.0 / 50.0


class CheckFailed(Exception):
    """A correctness check did not hold; the run must not report a number."""


@dataclass
class RunContext:
    seed: int
    trace: bool
    scale: float  # 1.0, or SMOKE_SCALE under --smoke
    scratch: Path
    notes: list[str] = field(default_factory=list)

    def size(self, full: int, floor: int = 1) -> int:
        return max(floor, int(round(full * self.scale)))

    def note(self, text: str) -> None:
        if text not in self.notes:
            self.notes.append(text)


@dataclass
class Slice:
    """What one timed slice produced."""

    wall_s: float
    ops: int  # successful operations, as the workload defines them
    segments: list[stats.Segment] = field(default_factory=list)
    data: dict[str, Any] = field(default_factory=dict)  # raw outputs for verify/layers


@dataclass
class Timed:
    """The reported timing values of a run's slices together."""

    wall_s: float
    ops: int
    ops_per_s: float
    p50_ms: float
    p99_ms: float
    samples: int  # latency samples behind p50/p99
    slices: list[Slice]


@dataclass
class Verdict:
    recall: float
    attempted: int
    failed: int
    problems: list[str] = field(default_factory=list)


@dataclass
class RunResult:
    workload: str
    seed: int
    seconds: float
    trace: bool
    correct: bool
    attempted: int
    failed: int
    metrics: dict[str, dict[str, Any]]
    samples: dict[str, int]
    problems: list[str]
    notes: list[str]
    backend_used: str

    def detail_line(self) -> dict[str, Any]:
        """What the result line has no room for; printed just before it."""
        return {
            "fingerprint": env.fingerprint(self.backend_used),
            "samples": self.samples,
            "notes": self.notes,
            "problems": self.problems,
        }

    def last_line(self) -> dict[str, Any]:
        return {
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": self.metrics,
        }


def peak_rss_mb(_state: Any = None) -> float:
    """``peak_rss_mb`` of the workloads that run inside this process."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def dir_bytes(path: Path) -> int:
    if path.is_file():
        return path.stat().st_size
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def _merge(verdicts: list[Verdict]) -> Verdict:
    problems: list[str] = []
    for v in verdicts:
        problems += [p for p in v.problems if p not in problems]
    return Verdict(
        recall=statistics.fmean(v.recall for v in verdicts),
        attempted=sum(v.attempted for v in verdicts),
        failed=sum(v.failed for v in verdicts),
        problems=problems,
    )


def run(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    smoke: bool = False,
    process_start: float | None = None,
    corrupt: bool = False,
) -> RunResult:
    """Run one workload once and return its result.

    ``process_start`` is ``perf_counter()`` at the top of the entry
    script.  ``corrupt`` (self-tests only) alters one returned answer
    between a timed slice and ``verify``, to prove the checks can fail
    the run.
    """
    if process_start is None:
        process_start = perf_counter()
    spec = env.load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if workload not in names:
        raise SystemExit(f"unknown workload {workload!r}; BENCHMARK.json has {names}")
    module = importlib.import_module(f"{__package__}.workloads.{workload}")
    env.SCRATCH_PARENT.mkdir(parents=True, exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=env.SCRATCH_PARENT))
    ctx = RunContext(
        seed=seed, trace=trace, scale=SMOKE_SCALE if smoke else 1.0, scratch=scratch
    )
    tracer = Tracer()
    share = seconds / SETUP_REPEATS
    setup_times: list[float] = []
    setup_layers: list[dict[str, float]] = []
    plain_slices: list[Slice] = []
    traced_slices: list[Slice] = []
    verdicts: list[Verdict] = []
    try:
        inputs = module.prepare(ctx)
        prepared = perf_counter()
        for _ in range(SETUP_REPEATS):
            t0 = perf_counter()
            state = module.setup(ctx, inputs)
            setup_times.append(perf_counter() - t0)
            try:
                if trace:
                    plain_slices.append(module.measure(ctx, state, share / 2.0))
                    module.install(ctx, state, tracer)
                    try:
                        judged = module.measure(ctx, state, share / 2.0, tracer)
                    finally:
                        tracer.unwrap_all()
                    traced_slices.append(judged)
                else:
                    judged = module.measure(ctx, state, share)
                    plain_slices.append(judged)
                if corrupt and not verdicts:
                    module.corrupt(judged)
                verdicts.append(module.verify(ctx, state, judged))
                setup_layers.append(dict(state.setup_layers))
                footprint = {
                    "peak_rss_mb": module.peak_rss_mb(state),
                    "index_bytes_per_point": module.index_bytes_per_point(state),
                }
            finally:
                module.teardown(state)
        # Start-up, imports and prepare() happen once and cannot be
        # repeated; they are added to the median of the repeated part.
        setup_s = (prepared - process_start) + statistics.median(setup_times)
        verdict = _merge(verdicts)
        plain = module.summarise(plain_slices)

        if trace:
            traced = module.summarise(traced_slices)
            metrics = {
                name: statistics.median(rep[name] for rep in setup_layers)
                for name in setup_layers[0]
            }
            metrics.update(module.layers(ctx, plain, traced, tracer))
            metrics["trace.overhead_share"] = 1.0 - traced.ops_per_s / plain.ops_per_s
            samples = {"spans": len(tracer.spans), "latency_samples": traced.samples}
            wanted = spec["per_layer"]
            header = {
                "workload": workload,
                "seed": seed,
                "traced_seconds": seconds / 2.0,
                "traced_wall_s": traced.wall_s,
                "top_level_span": module.TOP_LEVEL_SPAN,
                # Self times of all spans add up to the time inside the
                # spans that have no parent; on the in-process workloads
                # that is the wall time of the top-level call.
                "self_time_sum_s": sum(tracer.self_times().values()),
                "root_duration_sum_s": sum(
                    s.duration for s in tracer.spans if s.parent is None
                ),
                "layers": {k: metrics[k] for k in sorted(metrics)},
            }
            tracer.dump(env.RESULTS_DIR / f"trace_{workload}.json", header)
        else:
            metrics = {
                "setup_s": setup_s,
                "ops_per_s": plain.ops_per_s,
                "p50_ms": plain.p50_ms,
                "p99_ms": plain.p99_ms,
                "recall": verdict.recall,
                **footprint,
            }
            samples = {"latency_samples": plain.samples, "setup_repeats": SETUP_REPEATS}
            wanted = spec["end_to_end"]

        unknown = set(metrics) - {m["name"] for m in wanted}
        if unknown:
            raise AssertionError(f"metrics not declared in BENCHMARK.json: {sorted(unknown)}")
        return RunResult(
            workload=workload,
            seed=seed,
            seconds=seconds,
            trace=trace,
            correct=not verdict.problems,
            attempted=verdict.attempted,
            failed=verdict.failed,
            # A layer the workload never enters reads 0: no time was
            # spent and no work was counted there.
            metrics={
                m["name"]: {"value": float(metrics.get(m["name"], 0.0)), "unit": m["unit"]}
                for m in wanted
            },
            samples=samples,
            problems=verdict.problems,
            notes=ctx.notes,
            backend_used=module.backend_used(inputs),
        )
    finally:
        tracer.unwrap_all()
        shutil.rmtree(scratch, ignore_errors=True)
