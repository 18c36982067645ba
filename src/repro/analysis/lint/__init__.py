"""``repro lint`` — the project-contract linter.

The stack's correctness rests on conventions no general-purpose tool
checks: seeded determinism, a non-blocking event loop in ``serve/``,
spawn-safe process-pool payloads, shared-memory arena lifecycle, and a
fully annotated ``core``/``storage``/``serve``/``analysis`` surface.  This subpackage is
an AST rule engine (stdlib :mod:`ast` only) that turns each convention
into a named rule with line suppressions (``# repro: ignore[rule-id]``),
run by the ``repro lint`` CLI subcommand, which exits nonzero on any
unsuppressed finding.

See :mod:`repro.analysis.lint.engine` for the engine and
:mod:`repro.analysis.lint.rules` for the rules themselves.
"""

from __future__ import annotations

from repro.analysis.lint.engine import (
    FileContext,
    Finding,
    LintConfig,
    LintError,
    LintReport,
    Rule,
    Severity,
    format_findings,
    lint_paths,
    lint_source,
)
from repro.analysis.lint.rules import ALL_RULES, default_rules, rule_by_id

__all__ = [
    "ALL_RULES",
    "FileContext",
    "Finding",
    "LintConfig",
    "LintError",
    "LintReport",
    "Rule",
    "Severity",
    "default_rules",
    "format_findings",
    "lint_paths",
    "lint_source",
    "rule_by_id",
]
