"""simlint: AST-based invariant linting for the simulator.

The executor stack (PR 2) made correctness depend on properties no
runtime test can economically enforce -- determinism of timing-critical
code, completeness of the content-addressed cache key, coverage of the
serialized payload schema.  This package checks them statically:
``repro lint src/repro`` (or :func:`lint_paths` programmatically) runs
14 simulator-specific rules -- nine per-file (SL001-SL009) and five
whole-program (SL010-SL014) -- each with a stable ID, a severity, and a
fix-it message.  ``docs/static_analysis.md`` documents every rule.
"""

from __future__ import annotations

from repro.lint.base import Finding, Module, Rule
from repro.lint.engine import (
    lint_modules,
    lint_paths,
    render_json,
    render_rules,
    render_text,
)
from repro.lint.rules import ALL_RULES, RULES_BY_ID, TIMING_CRITICAL_PACKAGES

__all__ = [
    "ALL_RULES",
    "RULES_BY_ID",
    "TIMING_CRITICAL_PACKAGES",
    "Finding",
    "Module",
    "Rule",
    "lint_modules",
    "lint_paths",
    "render_json",
    "render_rules",
    "render_text",
]
