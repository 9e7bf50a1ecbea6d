"""The simlint rule registry.

Rule IDs are stable and documented in ``docs/static_analysis.md``; new
rules append the next SLnnn, existing IDs are never reused (that file
also lists the retired IDs and the runtime checks that replaced them).
"""

from __future__ import annotations

from typing import Dict, List

from repro.lint.base import Rule
from repro.lint.rules.determinism import TIMING_CRITICAL_PACKAGES, NoNondeterminismRule
from repro.lint.rules.errors import ExceptionContextRule, NoBareExceptionsRule
from repro.lint.rules.hygiene import NoFloatCyclesRule, NoMutableDefaultsRule, NoPrintRule
from repro.lint.rules.stat_registration import StatRegistrationRule

#: Every shipped rule, in ID order.
ALL_RULES: List[Rule] = [
    NoNondeterminismRule(),
    StatRegistrationRule(),
    NoFloatCyclesRule(),
    NoPrintRule(),
    NoMutableDefaultsRule(),
    NoBareExceptionsRule(),
    ExceptionContextRule(),
]

RULES_BY_ID: Dict[str, Rule] = {rule.rule_id: rule for rule in ALL_RULES}

__all__ = ["ALL_RULES", "RULES_BY_ID", "TIMING_CRITICAL_PACKAGES"]
