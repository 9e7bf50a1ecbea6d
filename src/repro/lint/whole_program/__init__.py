"""Whole-program analysis for simlint (v2).

simlint v1 rules see one file at a time (plus the two cross-file rules
that pattern-match a pair of modules).  The invariants PRs 2-5 rest on
-- what crosses the ``multiprocessing`` worker boundary, what
``simulate_cell`` may read, which stats actually reach the exported
namespace -- span the *call graph*, not a file.  This package builds
that view:

* :mod:`~repro.lint.whole_program.summaries` -- per-module extraction of
  function def/use summaries (calls, impurity facts, global writes,
  raise sites, worker spawns, stat registrations).
* :mod:`~repro.lint.whole_program.graph` -- the project index: import
  resolution, class hierarchy, instance-attribute types, and the
  resolved call graph (conservative on dynamic dispatch: an
  unresolvable ``obj.method()`` fans out to every first-party method of
  that name).
* :mod:`~repro.lint.whole_program.rules` -- the interprocedural rules
  SL010-SL014, each a normal :class:`~repro.lint.base.Rule` so they
  compose with the v1 engine, suppression, and renderers.

``repro lint --whole-program`` runs these on top of the v1 rules; see
``docs/static_analysis.md``.
"""

from __future__ import annotations

from repro.lint.whole_program.graph import ProjectIndex
from repro.lint.whole_program.rules import (
    WHOLE_PROGRAM_RULE_CLASSES,
    build_whole_program_rules,
)
from repro.lint.whole_program.summaries import ModuleSummary, extract_summary

__all__ = [
    "ModuleSummary",
    "ProjectIndex",
    "WHOLE_PROGRAM_RULE_CLASSES",
    "build_whole_program_rules",
    "extract_summary",
]
