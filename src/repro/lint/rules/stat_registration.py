"""SL004: stats must be born inside a StatGroup.

The MetricsRegistry (PR 1) flattens every :class:`StatGroup` in the
machine into ``SimulationResult.stats``.  That only works because
counters and histograms are *created through* their group
(``group.counter("hits")`` / ``group.histogram("latency")``, or the
hot-path handle factories ``group.counter_handle("hits")`` /
``group.histogram_handle("latency")``): a :class:`Counter` or
:class:`Histogram` constructed directly is invisible to the registry,
so its numbers never reach exported results -- the metric exists,
increments, and silently exports nothing.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.base import Finding, Module, Rule, dotted_name

#: The module that legitimately constructs the primitives (the
#: factory methods live there) -- plus lint's own fixtures in tests.
_ALLOWED_MODULES = ("repro.common.stats",)

_PRIMITIVES = ("Counter", "Histogram")


class StatRegistrationRule(Rule):
    rule_id = "SL004"
    name = "stat-registration"
    severity = "error"
    rationale = (
        "a Counter/Histogram constructed outside a StatGroup never "
        "reaches MetricsRegistry, so its measurements silently vanish "
        "from exported results"
    )
    fixit = (
        "create it through its owning group: group.counter(name) / "
        "group.histogram(name), or group.counter_handle(name) / "
        "group.histogram_handle(name) on a hot path "
        "(see repro.common.stats.StatGroup)"
    )

    def check_module(self, module: Module) -> Iterator[Finding]:
        if module.name in _ALLOWED_MODULES:
            return
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            name = dotted_name(node.func)
            if name is None:
                continue
            base = name.rsplit(".", 1)[-1]
            if base in _PRIMITIVES:
                yield self.finding(
                    module,
                    node,
                    "direct %s(...) construction bypasses StatGroup: the "
                    "metric will not appear in MetricsRegistry exports" % base,
                )
