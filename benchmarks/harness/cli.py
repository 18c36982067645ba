"""Command line of the benchmark harness.

``--workload W``
    Run one workload once (the contract the driver uses).  The last
    line of stdout is one JSON object: ``correct``, ``attempted``,
    ``failed``, ``metrics`` — end-to-end metrics with ``--trace 0``,
    per-layer metrics with ``--trace 1``.  The line before it holds the
    fingerprint, sample counts, notes and failed checks.
no ``--workload``
    Run all workloads of ``BENCHMARK.json`` untraced (and traced too
    with ``--traced``), each in a fresh process exactly as the driver
    would, print every metric by name with its unit and sample count,
    and write one result file under ``results/``.
``--aa``
    Run the full set twice back to back and hold the two against each
    other with the benchmark's own bounds.
``--steady N``
    Run every workload N times, each time with another seed, and print
    per metric the quartile spread as a share of the median, against a
    third of its bound (what a benchmark PR must check before it lands).
``--compare A B``
    Diff two result files; refuses when their fingerprints differ.
``--smoke``
    1/50 size for a fraction of a second: checks the plumbing, records
    nothing.

Any failed correctness check makes the exit code non-zero.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from time import perf_counter
from typing import Any

from . import env, report, runner

SMOKE_SECONDS = 0.6


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="benchmarks.harness", description=__doc__.split("\n")[0])
    p.add_argument("--workload", default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=None,
                   help="timed length of one run (default: BENCHMARK.json run_seconds)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--traced", action="store_true",
                   help="full-set mode: also make the traced run of every workload")
    p.add_argument("--aa", action="store_true")
    p.add_argument("--steady", type=int, default=None, metavar="N")
    p.add_argument("--smoke", action="store_true")
    p.add_argument("--compare", nargs=2, metavar=("A", "B"), default=None)
    return p


def _run_child(
    workload: str, seed: int, seconds: float, trace: bool, smoke: bool, echo: bool = True
) -> dict[str, Any]:
    """One run in a fresh process (so ``peak_rss_mb`` is that run's own),
    through the same entry script and flags the driver uses."""
    cmd = [
        sys.executable, str(env.HARNESS_DIR / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", repr(seconds), "--trace", str(int(trace)),
    ] + (["--smoke"] if smoke else [])
    done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=env.ROOT)
    lines = done.stdout.strip().splitlines()
    if echo:
        print("\n".join(lines[:-2]))
        sys.stdout.flush()
    if done.returncode not in (0, 1) or len(lines) < 2:
        raise runner.CheckFailed(f"{' '.join(cmd)} exited with {done.returncode}")
    out = json.loads(lines[-1])
    out.update(json.loads(lines[-2]))
    return out


def _run_set(
    spec: dict[str, Any], seed: int, seconds: float, traced: bool, smoke: bool
) -> dict[str, Any]:
    """Every workload once (plus its traced run); one result document."""
    workloads: dict[str, Any] = {}
    fingerprint: dict[str, Any] = {}
    for w in spec["workloads"]:
        plain = _run_child(w["name"], seed, seconds, False, smoke)
        entry = report.entry_of(plain)
        # The fingerprint of the set names the compiled backend if any run used one.
        if not fingerprint or plain["fingerprint"]["backend_used"] != "numpy":
            fingerprint = plain["fingerprint"]
        if traced:
            layered = _run_child(w["name"], seed, seconds, True, smoke)
            entry["per_layer"] = layered["metrics"]
            entry["correct"] = entry["correct"] and layered["correct"]
            entry["problems"] += layered["problems"]
        workloads[w["name"]] = entry
    return {
        "schema": report.SCHEMA,
        "seed": seed,
        "seconds": seconds,
        "fingerprint": fingerprint,
        "workloads": workloads,
    }


def _all_correct(*docs: dict[str, Any]) -> bool:
    return all(e["correct"] for doc in docs for e in doc["workloads"].values())


def main(argv: list[str] | None = None, process_start: float | None = None) -> int:
    """Exit code 0 only when every run was made and every check held."""
    try:
        return _main(_parser().parse_args(argv), process_start)
    except runner.CheckFailed as exc:
        # No result line: a run that cannot be trusted reports no number.
        print(f"CHECK FAILED: {exc}", file=sys.stderr)
        return 1


def _main(args: argparse.Namespace, process_start: float | None) -> int:
    if args.compare:
        return report.compare_files(*args.compare)
    spec = env.load_spec()
    seconds = float(spec["run_seconds"]) if args.seconds is None else args.seconds
    if args.smoke:
        seconds = SMOKE_SECONDS

    if args.workload is not None:
        result = runner.run(
            args.workload, args.seed, seconds, trace=bool(args.trace),
            smoke=args.smoke, process_start=process_start,
        )
        report.print_run(result, spec)
        print(json.dumps(result.detail_line()))
        sys.stdout.flush()
        print(json.dumps(result.last_line()))
        return 0 if result.correct else 1

    if args.steady is not None:
        runs = {
            w["name"]: [
                _run_child(w["name"], args.seed + i, seconds, False, args.smoke, echo=False)
                for i in range(args.steady)
            ]
            for w in spec["workloads"]
        }
        steady = report.steady_table(spec, runs)
        correct = all(r["correct"] for rs in runs.values() for r in rs)
        return 0 if steady and correct else 1

    if args.aa:
        first = _run_set(spec, args.seed, seconds, traced=False, smoke=args.smoke)
        second = _run_set(spec, args.seed, seconds, traced=False, smoke=args.smoke)
        gaps, ok = report.aa_table(spec, first, second)
        if not args.smoke:
            report.write_json(
                env.RESULTS_DIR / f"aa_seed{args.seed}.json",
                {"schema": report.SCHEMA, "first": first, "second": second, "gaps": gaps},
            )
        return 0 if ok and _all_correct(first, second) else 1

    t0 = perf_counter()
    doc = _run_set(spec, args.seed, seconds, traced=args.traced, smoke=args.smoke)
    print(json.dumps(doc["fingerprint"]))
    print(f"# full set took {perf_counter() - t0:.1f} s")
    if not args.smoke:
        path = env.RESULTS_DIR / f"result_seed{args.seed}.json"
        report.write_json(path, doc)
        print(f"# wrote {path.relative_to(env.ROOT)}")
    return 0 if _all_correct(doc) else 1
