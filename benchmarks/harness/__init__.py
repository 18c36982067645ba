"""The repo's one benchmark harness (see README.md beside this file).

Importing this package starts nothing; ``run.py`` / ``__main__.py`` pin
the thread-count environment variables before numpy loads and hand over
to :func:`benchmarks.harness.cli.main`.
"""
