import json
import threading
import time
import types

import pytest

from benchmarks.harness.tracing import Span, Tracer, self_times


def _span(sid, start, end, parent=None, name="x"):
    return Span(sid, name, start, end, parent, None, 0)


def test_self_time_subtracts_nested_children_once():
    spans = [
        _span(1, 0.0, 10.0),
        _span(2, 1.0, 4.0, parent=1),
        _span(3, 2.0, 3.0, parent=2),
        _span(4, 6.0, 9.0, parent=1),
    ]
    selfs = self_times(spans)
    assert selfs == {1: pytest.approx(4.0), 2: pytest.approx(2.0), 3: pytest.approx(1.0), 4: pytest.approx(3.0)}
    roots = sum(s.duration for s in spans if s.parent is None)
    assert sum(selfs.values()) == pytest.approx(roots)


def test_self_time_takes_the_union_of_overlapping_cross_thread_children():
    # Two children on other threads overlap each other and one outlives
    # the parent: only the covered part of the parent's interval counts.
    spans = [
        _span(1, 0.0, 10.0),
        _span(2, 2.0, 6.0, parent=1),
        _span(3, 4.0, 8.0, parent=1),
        _span(4, 9.0, 12.0, parent=1),
    ]
    assert self_times(spans)[1] == pytest.approx(10.0 - (6.0 + 1.0))


def test_wrappers_nest_by_call_stack_and_restore_the_original():
    mod = types.SimpleNamespace()

    def inner(x):
        time.sleep(0.002)
        return x + 1

    def outer(x):
        time.sleep(0.001)
        return mod.inner(x) * 2

    mod.inner, mod.outer = inner, outer
    tracer = Tracer()
    tracer.wrap(mod, "inner", "layer.inner", count_of=lambda a, k, r: r)
    tracer.wrap(mod, "outer", "layer.outer")
    tracer.set_rid(7)
    assert mod.outer(1) == 4
    tracer.unwrap_all()
    assert mod.inner is inner and mod.outer is outer

    by = {s.name: s for s in tracer.spans}
    assert by["layer.inner"].parent == by["layer.outer"].id
    assert by["layer.outer"].parent is None
    assert by["layer.inner"].rid == 7 and by["layer.inner"].count == 2
    selfs = tracer.self_times()
    assert selfs[by["layer.outer"].id] == pytest.approx(
        by["layer.outer"].duration - by["layer.inner"].duration
    )
    assert sum(selfs.values()) == pytest.approx(by["layer.outer"].duration)


def test_wrapping_a_method_on_a_class_and_a_raising_call():
    class Store:
        def rerank(self, rows):
            if not rows:
                raise ValueError("no rows")
            return len(rows)

    tracer = Tracer()
    tracer.wrap(Store, "rerank", "storage.rerank", count_of=lambda a, k, r: len(a[1]))
    assert Store().rerank([1, 2, 3]) == 3
    with pytest.raises(ValueError):
        Store().rerank([])
    tracer.unwrap_all()
    assert [s.count for s in tracer.spans] == [3, 0]
    assert "rerank" in vars(Store) and not hasattr(Store.rerank, "__wrapped__")


def test_spans_on_another_thread_have_their_own_stack():
    tracer = Tracer()

    def worker():
        with tracer.span("worker.call"):
            time.sleep(0.001)

    with tracer.span("main.call"):
        t = threading.Thread(target=worker)
        t.start()
        t.join(timeout=5)
        assert not t.is_alive()
    by = {s.name: s for s in tracer.spans}
    assert by["worker.call"].parent is None  # not a child of main's open span


def test_open_close_spans_and_dump(tmp_path):
    tracer = Tracer()
    token = tracer.open("async.wait", rid="r1")
    time.sleep(0.001)
    tracer.close(token)
    path = tmp_path / "trace.json"
    tracer.dump(path, {"workload": "w"})
    body = json.loads(path.read_text())
    assert body["workload"] == "w" and body["span_count"] == 1 and not body["truncated"]
    assert body["fields"] == ["id", "name", "start", "end", "parent", "rid", "count"]
    assert body["by_name"]["async.wait"]["calls"] == 1
    assert body["spans"][0][4] is None and body["spans"][0][5] == "r1"
