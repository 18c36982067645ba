"""``query_disk`` — in-process single-query reads off the v5 disk layout.

Operation: one ``index.search(q, k=10, beam_width=64)`` call.  The
queries walk a pool of 2 048, so each comes back about every 0.6 s and
some 15 times a run (what ``p99_ms`` needs, see ``stats``); nothing in
the library remembers a query, and the median call took the same
0.26–0.28 ms against a pool of 60 000 that never repeated.  The index is built with ``storage="sq8"``, saved as a v5
directory and reopened through ``load_any`` (mmap); set-up asserts the
mapped index answers bit-identically to the in-RAM one.  With one row
per call the front door (validation, start draw, rerank loop, id
mapping), dispatch planning and the exact rerank from the cold tier
carry most of the latency and the kernel little, so a kernel tuned for
wide batches that hurts single calls shows here.
"""

from __future__ import annotations

from functools import partial

from . import _query
from ._query import (  # noqa: F401 - the workload protocol
    TOP_LEVEL_SPAN,
    backend_used,
    corrupt,
    index_bytes_per_point,
    install,
    layers,
    measure,
    peak_rss_mb,
    setup,
    summarise,
    teardown,
    verify,
)

CONFIG = _query.Config(
    n=24_000,
    rows_per_call=1,
    pool=2_048,
    storage="sq8",
    from_disk=True,
    recall_floor=0.90,
    warm_calls=300,
)

prepare = partial(_query.prepare, config=CONFIG)
