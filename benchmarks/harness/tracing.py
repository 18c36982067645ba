"""In-memory spans recorded from outside the program under test.

The tracer patches timing wrappers around public entry points of
``repro`` (``Tracer.wrap``) and offers a context manager for calls the
harness makes itself (``Tracer.span``).  One span is one call: name,
start, end, the span that caused it, and a request id shared by all
spans of one request.  Nothing is written until :meth:`Tracer.dump`.

Parenthood is the per-thread call stack: a span recorded on another
thread, or around an awaited future (:meth:`Tracer.open`), starts a tree
of its own.  A span's *self time* is its duration minus the part of its interval that
its children cover — the union of the child intervals, so overlapping
children on different threads are not subtracted twice.
"""

from __future__ import annotations

import itertools
import json
import threading
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Iterator, NamedTuple

FIELDS = ("id", "name", "start", "end", "parent", "rid", "count")
MAX_DUMPED_SPANS = 50_000


class Span(NamedTuple):
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    rid: Any
    count: int

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patched: list[tuple[Any, str, Any]] = []

    # -- the per-thread context ------------------------------------------

    def _stack(self) -> list[int]:
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            return self._local.stack

    def set_rid(self, rid: Any) -> None:
        """Request id stamped on every span this thread records next."""
        self._local.rid = rid

    def _rid(self) -> Any:
        return getattr(self._local, "rid", None)

    # -- recording ---------------------------------------------------------

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """A span around a call the harness makes itself."""
        stack = self._stack()
        sid = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(sid)
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            stack.pop()
            self.spans.append(Span(sid, name, start, end, parent, self._rid(), 0))

    def open(self, name: str, rid: Any) -> tuple:
        """Start a span that ends elsewhere (an awaited future); pass the
        token to :meth:`close`.  It never joins a thread's call stack and
        has no parent."""
        return (next(self._ids), name, perf_counter(), rid)

    def close(self, token: tuple) -> None:
        sid, name, start, rid = token
        self.spans.append(Span(sid, name, start, perf_counter(), None, rid, 0))

    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        rid_of: Callable[..., Any] | None = None,
        count_of: Callable[..., int] | None = None,
    ) -> None:
        """Replace ``owner.attr`` with a wrapper recording one span per call.

        ``rid_of(args, kwargs)`` overrides the thread's request id;
        ``count_of(args, kwargs, result)`` records a work count measured
        at the boundary.  :meth:`unwrap_all` restores the original.
        """
        fn = _original(owner, attr)
        spans, ids, stack_of, rid_now = self.spans, self._ids, self._stack, self._rid

        def traced(*args: Any, **kwargs: Any) -> Any:
            stack = stack_of()
            sid = next(ids)
            parent = stack[-1] if stack else None
            stack.append(sid)
            result = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = perf_counter()
                stack.pop()
                rid = rid_of(args, kwargs) if rid_of is not None else rid_now()
                count = count_of(args, kwargs, result) if count_of is not None else 0
                spans.append(Span(sid, name, start, end, parent, rid, count))

        traced.__name__ = getattr(fn, "__name__", attr)
        traced.__doc__ = getattr(fn, "__doc__", None)
        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        setattr(owner, attr, traced)
        self._patched.append((owner, attr, fn))

    def patch(self, owner: Any, attr: str, replacement: Any) -> None:
        """Install a hand-written replacement (for calls whose span ends in
        a callback); restored by :meth:`unwrap_all` like any wrapper."""
        self._patched.append((owner, attr, _original(owner, attr)))
        setattr(owner, attr, replacement)

    def unwrap_all(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- analysis ------------------------------------------------------------

    def self_times(self) -> dict[int, float]:
        """Self time of every span, by span id."""
        return self_times(self.spans)

    def by_name(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total duration, total self time, counts."""
        selfs = self.self_times()
        out: dict[str, dict[str, float]] = {}
        for s in self.spans:
            row = out.setdefault(
                s.name, {"calls": 0, "duration_s": 0.0, "self_s": 0.0, "count": 0}
            )
            row["calls"] += 1
            row["duration_s"] += s.duration
            row["self_s"] += selfs[s.id]
            row["count"] += s.count
        return out

    def dump(self, path: Path, header: dict[str, Any]) -> None:
        """Write the trace: header, per-name totals, and the raw spans
        (the first ``MAX_DUMPED_SPANS``; totals always cover all)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        spans = sorted(self.spans, key=lambda s: s.start)
        body = dict(header)
        body["fields"] = list(FIELDS)
        body["span_count"] = len(spans)
        body["truncated"] = len(spans) > MAX_DUMPED_SPANS
        body["by_name"] = self.by_name()
        body["spans"] = [
            [s.id, s.name, s.start, s.end, s.parent, _jsonable(s.rid), s.count]
            for s in spans[:MAX_DUMPED_SPANS]
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(body, fh)


def _original(owner: Any, attr: str) -> Any:
    """The plain function (or module attribute) about to be replaced."""
    original = vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)
    if isinstance(original, (staticmethod, classmethod)):
        raise TypeError(f"cannot wrap {attr}: static/class methods are not supported")
    return original


def _jsonable(rid: Any) -> Any:
    if rid is None or isinstance(rid, (int, str)):
        return rid
    if isinstance(rid, (list, tuple)):
        return [_jsonable(r) for r in rid]
    return str(rid)


def self_times(spans: list[Span]) -> dict[int, float]:
    """Duration minus the union of child intervals, clipped to the span."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out: dict[int, float] = {}
    for s in spans:
        covered = 0.0
        kids = children.get(s.id)
        if kids:
            kids.sort()
            cur_lo = cur_hi = None
            for lo, hi in kids:
                lo, hi = max(lo, s.start), min(hi, s.end)
                if hi <= lo:
                    continue
                if cur_hi is None or lo > cur_hi:
                    if cur_hi is not None:
                        covered += cur_hi - cur_lo
                    cur_lo, cur_hi = lo, hi
                elif hi > cur_hi:
                    cur_hi = hi
            if cur_hi is not None:
                covered += cur_hi - cur_lo
        out[s.id] = s.duration - covered
    return out
