"""SL009: no bare builtin exceptions in timing-critical packages.

The resilience layer classifies failures by exception type: a
:class:`~repro.common.errors.ReproError` subclass carries structured
``context`` for the crash report, an :class:`~repro.common.errors.
InvariantViolation` is terminal (quarantine, no retries), everything
else is treated as a transient host fault and retried.  A ``raise
ValueError(...)`` inside the simulated machine therefore does two bad
things at once: it loses the machine-state context the flight recorder
exists to surface, and it gets *retried* even though simulation is
deterministic -- the retry burns attempts reproducing the same bug.
Timing-critical code must raise from the :mod:`repro.common.errors`
hierarchy (``ConfigError`` for bad inputs, ``SimulationError`` for
internal inconsistency).

SL014: every ``raise`` of a ``ReproError`` subclass, anywhere in the
linted tree, passes ``context=``.  The flight recorder and the
quarantine report serialize that dict; without it a crash record names
an error but not the state that caused it.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, Optional, Sequence, Set

from repro.lint.base import Finding, Module, Rule, dotted_name
from repro.lint.rules.determinism import TIMING_CRITICAL_PACKAGES

#: Builtin exception types whose raise is banned in simulation code.
#: ``NotImplementedError`` stays legal (abstract-method stubs), and
#: re-raises (``raise`` with no exception) are untouched.
_BANNED_EXCEPTIONS = (
    "Exception",
    "BaseException",
    "ValueError",
    "TypeError",
    "RuntimeError",
    "AssertionError",
    "KeyError",
    "IndexError",
)


def _raised_type(node: ast.Raise) -> Optional[str]:
    """The name of the exception type a ``raise`` creates, if static."""
    exc = node.exc
    if exc is None:  # bare re-raise inside an except block
        return None
    if isinstance(exc, ast.Call):
        exc = exc.func
    name = dotted_name(exc)
    if name is None:
        return None
    return name.rsplit(".", 1)[-1]


class NoBareExceptionsRule(Rule):
    rule_id = "SL009"
    name = "no-bare-exceptions"
    severity = "error"
    rationale = (
        "the resilience layer keys retry/quarantine/crash-report "
        "behaviour off the ReproError hierarchy; a builtin exception "
        "from simulation code is retried as if transient and carries no "
        "machine-state context"
    )
    fixit = (
        "raise ConfigError (bad input) or SimulationError (internal "
        "inconsistency) from repro.common.errors, with a context dict"
    )

    def check_module(self, module: Module) -> Iterator[Finding]:
        if not module.is_in_package(TIMING_CRITICAL_PACKAGES):
            return
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Raise):
                continue
            name = _raised_type(node)
            if name in _BANNED_EXCEPTIONS:
                yield self.finding(
                    module,
                    node,
                    "raise of builtin %s in timing-critical code: the "
                    "executor would retry this deterministic failure and "
                    "the crash report gets no machine context" % name,
                )


def _error_classes(modules: Sequence[Module]) -> Set[str]:
    """Names of ``ReproError`` and of every class the linted modules
    derive from it, directly or through another such class."""
    bases: Dict[str, Set[str]] = {}
    for module in modules:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.ClassDef):
                names = (dotted_name(base) for base in node.bases)
                bases.setdefault(node.name, set()).update(
                    name.rsplit(".", 1)[-1] for name in names if name
                )
    errors = {"ReproError"}
    while True:
        found = {name for name, parents in bases.items() if parents & errors} - errors
        if not found:
            return errors
        errors |= found


class ExceptionContextRule(Rule):
    rule_id = "SL014"
    name = "exception-context-completeness"
    severity = "warning"
    rationale = (
        "repro.verify's flight recorder and the resilience quarantine "
        "report serialize the context dict of every failure; a raise "
        "without context= produces an unactionable crash record"
    )
    fixit = (
        "pass context={...} with the identifying state (addresses, "
        "sizes, config fields) to the ReproError constructor"
    )

    def check_project(self, modules: Sequence[Module]) -> Iterator[Finding]:
        errors = _error_classes(modules)
        for module in modules:
            for node in ast.walk(module.tree):
                if not isinstance(node, ast.Raise):
                    continue
                name = _raised_type(node)
                if name not in errors:
                    continue
                exc = node.exc
                if isinstance(exc, ast.Call) and any(
                    keyword.arg == "context" for keyword in exc.keywords
                ):
                    continue
                yield self.finding(
                    module,
                    node,
                    "raise %s without context=: its crash record will not "
                    "say which state failed" % name,
                )
