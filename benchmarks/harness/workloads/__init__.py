"""One module per workload named in ``BENCHMARK.json``; the protocol is
described in :mod:`benchmarks.harness.runner`."""
