"""Analysis tooling: empirical scaling-law fits, theory-vs-measured
accounting, and the project-contract linter behind ``repro lint``.

Two halves live here:

* the *empirical* toolkit (:mod:`~repro.analysis.fits`,
  :mod:`~repro.analysis.theory`, :mod:`~repro.analysis.traces`) used by
  benches and examples to fit scaling laws and compare measured hop
  counts against the paper's bounds;
* the *static* toolkit (:mod:`~repro.analysis.lint`) — an AST rule
  engine that checks the conventions the test suite can only catch
  after they break: seeded determinism, async/spawn safety, arena
  hygiene, and the strict-typing surface.
"""

from repro.analysis.fits import LinearFit, PowerLawFit, fit_linear, fit_power_law
from repro.analysis.lint import (
    ALL_RULES,
    Finding,
    LintConfig,
    LintReport,
    Severity,
    lint_paths,
    lint_source,
)
from repro.analysis.theory import TheoryReport, gnet_theory_report
from repro.analysis.traces import HopRecord, TraceReport, trace_report

__all__ = [
    "ALL_RULES",
    "Finding",
    "LinearFit",
    "LintConfig",
    "LintReport",
    "PowerLawFit",
    "HopRecord",
    "Severity",
    "TheoryReport",
    "TraceReport",
    "fit_linear",
    "fit_power_law",
    "gnet_theory_report",
    "lint_paths",
    "lint_source",
    "trace_report",
]
