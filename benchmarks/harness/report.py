"""Printing, the one result schema, A/A tables and the comparison tool."""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import Any

from . import env, stats
from .runner import RunResult

SCHEMA = 1


def write_json(path: Path, doc: dict[str, Any]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


def entry_of(run: dict[str, Any]) -> dict[str, Any]:
    """One workload's block of the result schema, from the two JSON lines
    its untraced run printed."""
    return {
        "end_to_end": run["metrics"],
        "per_layer": {},
        "samples": run["samples"],
        "attempted": run["attempted"],
        "failed": run["failed"],
        "failed_share": run["failed"] / run["attempted"],
        "correct": run["correct"],
        "problems": list(run["problems"]),
        "notes": list(run["notes"]),
    }


def print_run(result: RunResult, spec: dict[str, Any]) -> None:
    kind = "per-layer (traced half window)" if result.trace else "end-to-end (untraced)"
    print(
        f"# {result.workload}  seed={result.seed}  seconds={result.seconds:g}  "
        f"backend={result.backend_used}  {kind}"
    )
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    for name, m in result.metrics.items():
        bound = bounds.get(name)
        tail = f"  bound={bound:g}" if bound is not None else ""
        print(f"  {name:<36} {m['value']:>16.6f} {m['unit']:<6}{tail}")
    print(
        f"  failed_share = {result.failed}/{result.attempted}  "
        + "  ".join(f"{k}={v}" for k, v in result.samples.items())
    )
    for note in result.notes:
        print(f"  note: {note}")
    for problem in result.problems:
        print(f"  CHECK FAILED: {problem}")
    sys.stdout.flush()


def _refuse_if_different(a: dict[str, Any], b: dict[str, Any]) -> str | None:
    if a.get("schema") != b.get("schema"):
        return f"schema {a.get('schema')} vs {b.get('schema')}"
    fa, fb = a["fingerprint"], b["fingerprint"]
    diff = [k for k in sorted(set(fa) | set(fb)) if fa.get(k) != fb.get(k)]
    if diff:
        return "fingerprints differ in " + ", ".join(
            f"{k} ({fa.get(k)!r} vs {fb.get(k)!r})" for k in diff
        )
    if a["seconds"] != b["seconds"]:
        return f"run length {a['seconds']} s vs {b['seconds']} s"
    return None


def _pairs(spec: dict[str, Any], a: dict[str, Any], b: dict[str, Any]):
    """Workload, metric and the two values, for every pairing both hold."""
    for w in spec["workloads"]:
        name = w["name"]
        if name in a["workloads"] and name in b["workloads"]:
            ea, eb = a["workloads"][name]["end_to_end"], b["workloads"][name]["end_to_end"]
            for m in spec["end_to_end"]:
                yield name, m, ea[m["name"]]["value"], eb[m["name"]]["value"]


def _row(name: str, m: dict[str, Any], va: float, vb: float, gap: float, flag: str) -> str:
    return (
        f"{name:<12} {m['name']:<22} {va:>14.5f} {vb:>14.5f} "
        f"{gap:>10.4f} {m['bound']:>6g}{flag}"
    )


def aa_table(
    spec: dict[str, Any], first: dict[str, Any], second: dict[str, Any]
) -> tuple[dict[str, dict[str, float]], bool]:
    """Print workload x metric: both values, the gap between them and the
    bound.  Returns the gaps and whether all are in bound."""
    gaps: dict[str, dict[str, float]] = {}
    ok = True
    print(f"{'workload':<12} {'metric':<22} {'first':>14} {'second':>14} {'gap':>10} {'bound':>6}")
    for name, m, va, vb in _pairs(spec, first, second):
        # Either order may be the worse one in an A/A pair.
        gap = abs(stats.worse_by(va, vb, m["better"]))
        gaps.setdefault(name, {})[m["name"]] = gap
        ok = ok and gap <= m["bound"]
        print(_row(name, m, va, vb, gap, "" if gap <= m["bound"] else "  EXCEEDS"))
    return gaps, ok


def steady_table(spec: dict[str, Any], runs: dict[str, list[dict[str, Any]]]) -> bool:
    """``--steady``: per workload x end-to-end metric over runs with
    different seeds, the quartile spread as a share of the median, held
    against a third of the bound (``setup_s`` is listed but not judged,
    as the driver does).  Returns whether every judged spread is inside."""
    ok = True
    print(f"{'workload':<12} {'metric':<22} {'median':>14} {'spread':>8} {'bound/3':>8} {'bound':>6}")
    for name, rows in runs.items():
        for m in spec["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in rows]
            spread = stats.quartile_spread(values)
            judged = m["name"] != "setup_s"
            flag = ""
            if judged and spread > m["bound"]:
                flag = "  OUTSIDE THE BOUND"
            elif judged and spread > m["bound"] / 3:
                flag = "  above a third"
            ok = ok and not (judged and spread > m["bound"] / 3)
            print(
                f"{name:<12} {m['name']:<22} {statistics.median(values):>14.5f} "
                f"{spread:>8.4f} {m['bound'] / 3:>8.4f} {m['bound']:>6g}{flag}"
            )
    return ok


def compare_files(path_a: str, path_b: str) -> int:
    """``--compare``: per workload x end-to-end metric, B against A."""
    with open(path_a, encoding="utf-8") as fh:
        a = json.load(fh)
    with open(path_b, encoding="utf-8") as fh:
        b = json.load(fh)
    reason = _refuse_if_different(a, b)
    if reason is not None:
        print(f"refusing to compare: {reason}")
        return 2
    spec = env.load_spec()
    missing = [n for n in a["workloads"] if n not in b["workloads"]]
    for name in missing:
        print(f"{name:<12} missing from B")
    worse = len(missing)
    print(f"{'workload':<12} {'metric':<22} {'A':>14} {'B':>14} {'B worse by':>10} {'bound':>6}")
    for name, m, va, vb in _pairs(spec, a, b):
        gap = stats.worse_by(va, vb, m["better"])
        worse += gap > m["bound"]
        print(_row(name, m, va, vb, gap, "  REGRESSION" if gap > m["bound"] else ""))
    return 1 if worse else 0
