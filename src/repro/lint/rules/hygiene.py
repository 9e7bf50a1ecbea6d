"""Hygiene rules: SL006 no-float-cycles, SL007 no-print, SL008
no-mutable-defaults.

These are the "makes the invariant rules moot" class of problems:

* floats leaking into cycle accumulators turn exact integer timing into
  platform-dependent rounding (SL006);
* ``print`` (or ``sys.stdout.write``) in library code corrupts
  machine-readable CLI output and bypasses the observability layer
  (SL007) -- interactive output belongs on stderr;
* mutable default arguments alias state across calls -- across *cells*,
  in executor code (SL008).

A write through a config object needs no rule: every config dataclass
in :mod:`repro.common.config` is frozen, so it raises at runtime.
"""

from __future__ import annotations

import ast
import re
from typing import Iterator, Optional

from repro.lint.base import Finding, Module, Rule, dotted_name
from repro.lint.rules.determinism import TIMING_CRITICAL_PACKAGES

#: Attribute/variable names treated as exact-integer time accumulators.
_CYCLE_NAME = re.compile(r"(^|_)(cycles?|ticks?|time)$")

#: Modules allowed to print: the user-facing surfaces.
_PRINT_ALLOWED = ("repro.cli", "repro.__main__")


class NoFloatCyclesRule(Rule):
    rule_id = "SL006"
    name = "no-float-cycles"
    severity = "error"
    rationale = (
        "cycle counts are exact integers; a float leaking in makes "
        "timing platform/rounding dependent and breaks bit-reproducible "
        "latency composition"
    )
    fixit = "use integer arithmetic (// not /, int literals not floats)"

    def check_module(self, module: Module) -> Iterator[Finding]:
        # Wall-clock floats in host-side code (obs profilers, bench) are
        # legitimate; only *simulated* time must stay integral.
        if not module.is_in_package(TIMING_CRITICAL_PACKAGES):
            return
        for node in ast.walk(module.tree):
            target: Optional[ast.AST] = None
            value: Optional[ast.AST] = None
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target, value = node.targets[0], node.value
            elif isinstance(node, ast.AugAssign):
                target, value = node.target, node.value
                if isinstance(node.op, ast.Div):
                    value = node  # ``x /= y`` taints regardless of RHS
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                target, value = node.target, node.value
            if target is None or value is None:
                continue
            name = _target_name(target)
            if name is None or not _CYCLE_NAME.search(name):
                continue
            taint = _float_taint(value)
            if taint is not None:
                yield self.finding(
                    module,
                    node,
                    "%s accumulates cycles but is assigned a float-tainted "
                    "expression (%s)" % (name, taint),
                )


def _target_name(target: ast.AST) -> Optional[str]:
    if isinstance(target, ast.Name):
        return target.id
    if isinstance(target, ast.Attribute):
        return target.attr
    return None


def _float_taint(value: ast.AST) -> Optional[str]:
    """A human-readable reason the expression produces floats, or None."""
    for node in ast.walk(value):
        if isinstance(node, ast.Constant) and isinstance(node.value, float):
            return "float literal %r" % node.value
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(
            node.op, ast.Div
        ):
            return "true division / (use //)"
        if isinstance(node, ast.Call):
            name = dotted_name(node.func)
            if name is not None and name.rsplit(".", 1)[-1] == "float":
                return "float() conversion"
    return None


class NoPrintRule(Rule):
    rule_id = "SL007"
    name = "no-print"
    severity = "error"
    rationale = (
        "print / sys.stdout.write in library code interleaves with "
        "machine-readable CLI output and bypasses the obs layer's "
        "structured exporters"
    )
    fixit = (
        "write to the caller-supplied stream (CLI), use stderr for "
        "interactive progress, or route through repro.obs "
        "(tracer/metrics/progress hooks)"
    )

    def check_module(self, module: Module) -> Iterator[Finding]:
        if module.name in _PRINT_ALLOWED:
            return
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            if isinstance(node.func, ast.Name) and node.func.id == "print":
                yield self.finding(module, node, "print() call in library code")
            elif dotted_name(node.func) == "sys.stdout.write":
                yield self.finding(
                    module,
                    node,
                    "sys.stdout.write() in library code (use the "
                    "caller-supplied stream, or stderr for progress)",
                )


class NoMutableDefaultsRule(Rule):
    rule_id = "SL008"
    name = "no-mutable-defaults"
    severity = "error"
    rationale = (
        "a mutable default argument is shared across every call -- and "
        "across cells in executor code, where it aliases state between "
        "supposedly pure runs"
    )
    fixit = "default to None and create the container inside the function"

    def check_module(self, module: Module) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            defaults = list(node.args.defaults) + [
                default for default in node.args.kw_defaults if default is not None
            ]
            for default in defaults:
                reason = _mutable_default(default)
                if reason is not None:
                    name = getattr(node, "name", "<lambda>")
                    yield self.finding(
                        module,
                        default,
                        "%s() has a mutable default argument (%s)" % (name, reason),
                    )


def _mutable_default(default: ast.AST) -> Optional[str]:
    if isinstance(default, (ast.List, ast.ListComp)):
        return "list"
    if isinstance(default, (ast.Dict, ast.DictComp)):
        return "dict"
    if isinstance(default, (ast.Set, ast.SetComp)):
        return "set"
    if isinstance(default, ast.Call):
        name = dotted_name(default.func)
        if name is not None and name.rsplit(".", 1)[-1] in (
            "list",
            "dict",
            "set",
            "bytearray",
            "defaultdict",
            "OrderedDict",
        ):
            return "%s()" % name
    return None
