"""``query_batch`` — in-process batched reads from RAM.

Operation: one query.  A vamana index over Gaussian clusters (flat
float64 store, best compiled backend) answers ``index.search(Q64, k=10,
beam_width=64)`` on consecutive 64-row batches.  Graph traversal does
most of the work and per-call overhead is amortised 64 times; serving
and quantised storage are bypassed, so a coalescer or rerank change
should not move this workload at all.
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
    n=20_000,
    rows_per_call=64,
    pool=20_032,  # 313 whole batches
    storage="flat",
    from_disk=False,
    recall_floor=0.95,
    warm_calls=20,
)

prepare = partial(_query.prepare, config=CONFIG)
