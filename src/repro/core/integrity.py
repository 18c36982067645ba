"""Structural integrity checks for saved and live indexes.

``graphs/validate.py`` checks the *semantic* proximity-graph property
(greedy routing reaches a (1+eps)-ANN); this module checks the
*structural* invariants underneath it — the ones a truncated file, a
buggy migration, or a bad manual edit breaks first:

* CSR shape: ``offsets`` is ``(n+1,)``, starts at 0, is monotone
  non-decreasing, and spans ``targets`` exactly;
* every CSR target lies in ``[0, n)``;
* the tombstone mask covers every point and agrees with the index's
  own active/tombstone counters;
* external ids are one per point, non-negative, and unique (across
  *all* shards of a sharded index);
* the vector store holds exactly ``n`` codes/points;
* a sharded manifest's declared shard count agrees with the files it
  lists **and** with the files actually on disk;
* a v5 disk directory's ``header.json`` array manifest agrees with the
  raw files next to it — every declared file present, every file
  exactly ``dtype * prod(shape)`` bytes (a truncated ``vectors.bin``
  or hand-edited header fails here, by name, before anything attaches)
  — and the CSR arrays it maps pass the same structural checks a live
  graph would.

The two on-disk layout checks are :mod:`repro.core.persistence`'s own,
the very ones its loaders raise on, so a load and ``--validate`` can
never disagree about a directory; this module adds the deep CSR check
the mmap open skips.

Every violation names its invariant (``csr-offsets-monotone``,
``manifest-shard-count``, ...) so a failing ``repro index info
--validate`` run reads as a diagnosis, not a stack trace.  Like the
semantic validator, this one is tested by failure injection — a
validator that never fires is worse than none.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any

import numpy as np

from repro.core.persistence import (
    DISK_HEADER_NAME,
    _attach_array,
    _disk_layout,
    _manifest_layout,
    _unlisted_bins,
)

__all__ = [
    "IntegrityError",
    "check_index",
    "check_flat_index",
    "check_sharded_index",
    "check_sharded_manifest",
    "check_disk_layout",
    "integrity_report",
]


class IntegrityError(ValueError):
    """One or more structural invariants are violated; the message
    lists every violation by invariant name."""


def _check_csr(n: int, offsets: np.ndarray, targets: np.ndarray) -> list[str]:
    violations: list[str] = []
    if offsets.shape != (n + 1,):
        violations.append(
            f"csr-offsets-shape: offsets has shape {offsets.shape}, "
            f"expected ({n + 1},) for n={n} points"
        )
        return violations  # downstream checks would misread the array
    if int(offsets[0]) != 0:
        violations.append(
            f"csr-offsets-start: offsets[0] is {int(offsets[0])}, must be 0"
        )
    if len(offsets) > 1 and bool((np.diff(offsets) < 0).any()):
        at = int(np.flatnonzero(np.diff(offsets) < 0)[0])
        violations.append(
            "csr-offsets-monotone: offsets must be non-decreasing; "
            f"offsets[{at}]={int(offsets[at])} > "
            f"offsets[{at + 1}]={int(offsets[at + 1])}"
        )
    if int(offsets[-1]) != len(targets):
        violations.append(
            f"csr-offsets-span: offsets[-1]={int(offsets[-1])} must equal "
            f"len(targets)={len(targets)}"
        )
    if len(targets):
        lo, hi = int(targets.min()), int(targets.max())
        if lo < 0 or hi >= n:
            violations.append(
                f"csr-targets-range: targets span [{lo}, {hi}] but every "
                f"neighbor id must lie in [0, {n})"
            )
    return violations


def check_flat_index(index: Any, label: str = "") -> list[str]:
    """Structural violations of one flat index (empty list = clean)."""
    prefix = f"{label}: " if label else ""
    violations: list[str] = []
    n = int(index.n)
    offsets, targets = index.graph.csr()
    violations.extend(prefix + v for v in _check_csr(n, offsets, targets))

    tombstones = np.asarray(index._tombstones)
    if tombstones.shape != (n,):
        violations.append(
            f"{prefix}tombstone-shape: mask has shape {tombstones.shape}, "
            f"expected ({n},)"
        )
    else:
        active = int((~tombstones).sum())
        if active != int(index.active_count):
            violations.append(
                f"{prefix}tombstone-count: mask says {active} active "
                f"points but the index reports {index.active_count}"
            )

    externals = np.asarray(index.id_map.externals)
    if externals.shape != (n,):
        violations.append(
            f"{prefix}external-id-shape: {len(externals)} external ids "
            f"for {n} points — every point needs exactly one"
        )
    else:
        if len(externals) and int(externals.min()) < 0:
            violations.append(
                f"{prefix}external-id-negative: external ids must be "
                f"non-negative, found {int(externals.min())}"
            )
        if len(np.unique(externals)) != len(externals):
            uniq, counts = np.unique(externals, return_counts=True)
            dup = int(uniq[counts > 1][0])
            violations.append(
                f"{prefix}external-id-unique: external id {dup} is "
                "assigned to more than one point"
            )

    store_n = int(index.store.n)
    if store_n != n:
        violations.append(
            f"{prefix}storage-count: the vector store holds {store_n} "
            f"vectors but the graph has {n} vertices"
        )
    return violations


def check_sharded_index(index: Any) -> list[str]:
    """Per-shard structural checks plus the cross-shard id invariant."""
    violations: list[str] = []
    for j, shard in enumerate(index.shards):
        violations.extend(check_flat_index(shard, label=f"shard[{j}]"))
    seen: dict[int, int] = {}
    for j, shard in enumerate(index.shards):
        for e in np.asarray(shard.id_map.externals).tolist():
            if e in seen:
                violations.append(
                    "external-id-unique-across-shards: external id "
                    f"{e} appears in shard[{seen[e]}] and shard[{j}]"
                )
            else:
                seen[e] = j
    return violations


def check_sharded_manifest(path: str | Path) -> list[str]:
    """Does the manifest agree with itself and with the shard entries
    on disk?  The checks are the ones :func:`load_sharded_index
    <repro.core.persistence.load_sharded_index>` raises on."""
    return _manifest_layout(Path(path))[2]


def _disk_files(
    directory: Path,
) -> tuple[dict[str, Any], dict[str, Any], list[str]]:
    """:func:`_disk_layout` plus one check the loader skips: no ``.bin``
    file the header does not list (the loader ignores one).  Only a
    header the loader accepts says which files are stale: one it refuses
    is itself the fault to name."""
    header, arrays, violations = _disk_layout(directory)
    if not violations:
        violations.extend(
            f"disk-file-unlisted: {directory} holds {stale.name}, which "
            f"{DISK_HEADER_NAME} does not list (a stale array file)"
            for stale in _unlisted_bins(directory, header)
        )
    return header, arrays, violations


def check_disk_layout(path: str | Path) -> list[str]:
    """Structural violations of one v5 disk directory (pre-attach).

    The header and array-file checks :func:`load_index
    <repro.core.persistence.load_index>` raises on, plus two it skips:
    the stale-file check of :func:`_disk_files`, and the deep check its
    millisecond mmap open skips: when their sizes allow it, the mapped
    CSR arrays must satisfy the same shape/monotonicity/range invariants
    a live graph enforces.
    """
    header, arrays, violations = _disk_files(Path(path))
    if "csr_offsets" in arrays and "csr_targets" in arrays:
        offsets = _attach_array(*arrays["csr_offsets"], mmap=True)
        targets = _attach_array(*arrays["csr_targets"], mmap=True)
        violations.extend(_check_csr(int(header.get("n", -1)), offsets, targets))
    return violations


def check_index(index: Any, path: str | Path | None = None) -> list[str]:
    """Every applicable structural check for ``index`` (either kind),
    plus the on-disk layout at ``path`` it was loaded from."""
    # Shard lists only exist on sharded indexes; duck-typed so this
    # module needs no import of either index class.
    if hasattr(index, "shards"):
        violations = check_sharded_index(index)
        if path is not None:
            violations = check_sharded_manifest(path) + violations
    else:
        violations = check_flat_index(index)
        if path is not None and Path(path).is_dir():
            # A flat index loaded from a directory is the v5 disk
            # layout; validate the on-disk files against their header.
            # The deep CSR check is check_flat_index's: the index holds
            # those very arrays, mapped.
            violations = _disk_files(Path(path))[2] + violations
    return violations


def integrity_report(
    index: Any, path: str | Path | None = None, strict: bool = False
) -> dict[str, Any]:
    """JSON-safe report for ``repro index info --validate``.

    With ``strict=True`` raises :class:`IntegrityError` listing every
    violation instead of returning a failing report.
    """
    violations = check_index(index, path=path)
    report = {
        "ok": not violations,
        "violations": violations,
        "checks": [
            "csr-offsets (shape/start/monotone/span)",
            "csr-targets-range",
            "tombstone (shape/count)",
            "external-id (shape/negative/unique)",
            "storage-count",
        ]
        + (
            ["manifest (missing/unreadable/version)",
             "manifest-shard-count", "manifest-shard-files"]
            if hasattr(index, "shards")
            else []
        )
        + (
            [
                "disk-header (missing/unreadable/version)",
                "disk-array (missing/size/rows/dtype)",
                "disk-file-missing",
                "disk-file-unlisted",
            ]
            if path is not None and Path(path).is_dir()
            and not hasattr(index, "shards")
            else []
        ),
    }
    if strict and violations:
        raise IntegrityError(
            "index failed structural validation:\n  "
            + "\n  ".join(violations)
        )
    return report
