"""The simlint rule registry.

Rule IDs are stable and documented in ``docs/static_analysis.md``; new
rules append the next SLnnn, existing IDs are never reused.
"""

from __future__ import annotations

from typing import Dict, List

from repro.lint.base import Rule
from repro.lint.rules.cache_key import CacheKeyCompletenessRule
from repro.lint.rules.determinism import TIMING_CRITICAL_PACKAGES, NoNondeterminismRule
from repro.lint.rules.errors import ExceptionContextRule, NoBareExceptionsRule
from repro.lint.rules.hygiene import (
    NoConfigMutationRule,
    NoFloatCyclesRule,
    NoMutableDefaultsRule,
    NoPrintRule,
)
from repro.lint.rules.schema_drift import SchemaDriftRule
from repro.lint.rules.stat_registration import StatRegistrationRule

#: Every shipped rule, in ID order.
ALL_RULES: List[Rule] = [
    NoNondeterminismRule(),
    CacheKeyCompletenessRule(),
    SchemaDriftRule(),
    StatRegistrationRule(),
    NoConfigMutationRule(),
    NoFloatCyclesRule(),
    NoPrintRule(),
    NoMutableDefaultsRule(),
    NoBareExceptionsRule(),
    ExceptionContextRule(),
]

RULES_BY_ID: Dict[str, Rule] = {rule.rule_id: rule for rule in ALL_RULES}

__all__ = ["ALL_RULES", "RULES_BY_ID", "TIMING_CRITICAL_PACKAGES"]
