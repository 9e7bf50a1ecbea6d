"""simlint: AST-based invariant linting for the simulator.

The executor stack made correctness depend on properties of the code a
cell runs: determinism, stat registration, integer cycle arithmetic,
structured error context.  This package checks them statically:
``repro lint src/repro`` (or :func:`lint_paths` programmatically) runs
7 simulator-specific rules (SL001, SL004, SL006-SL009 and SL014), one
file at a time, each with a stable ID, a severity, and a fix-it message.
``docs/static_analysis.md`` documents every rule, and the runtime
checks that replaced the retired IDs.
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
