"""Core vocabulary of the simlint static analyser.

A :class:`Rule` inspects parsed modules and yields :class:`Finding`
objects.  Two rule shapes exist:

* **module rules** implement :meth:`Rule.check_module` and see one file
  at a time (most hygiene rules);
* **project rules** implement :meth:`Rule.check_project` and see every
  parsed module at once (SL014, which needs every ``ReproError``
  subclass in the tree).

Both shapes may be mixed in one rule class; the engine calls whichever
methods a rule overrides.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

#: Severity levels, most severe first.  ``error`` findings are invariant
#: violations that can corrupt results; ``warning`` findings are hygiene
#: problems that make violations likely later.
SEVERITIES = ("error", "warning")


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    rule_id: str
    severity: str
    path: str
    line: int
    col: int
    message: str
    #: Actionable remediation, rendered alongside the message.
    fixit: str

    def render(self) -> str:
        """``path:line:col: SLnnn severity: message (fix: ...)``"""
        return "%s:%d:%d: %s %s: %s [fix: %s]" % (
            self.path,
            self.line,
            self.col,
            self.rule_id,
            self.severity,
            self.message,
            self.fixit,
        )

    def as_dict(self) -> Dict[str, object]:
        return {
            "rule": self.rule_id,
            "severity": self.severity,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
            "fixit": self.fixit,
        }


@dataclass
class Module:
    """One parsed source file plus the context rules key off."""

    #: Path as given on the command line (rendered in findings).
    path: str
    #: Dotted module name, e.g. ``repro.sim.system`` (best effort: the
    #: path parts from the last ``repro`` directory down; bare stem when
    #: the file lives outside a ``repro`` tree, as lint fixtures do).
    name: str
    source: str
    tree: ast.AST
    lines: List[str] = field(default_factory=list)

    @property
    def package_parts(self) -> Tuple[str, ...]:
        return tuple(self.name.split("."))

    def is_in_package(self, packages: Iterable[str]) -> bool:
        """True when the module lives under ``repro.<pkg>`` for any of
        *packages* (e.g. the timing-critical set)."""
        parts = self.package_parts
        return len(parts) >= 2 and parts[0] == "repro" and parts[1] in set(packages)


class Rule:
    """Base class: subclasses set the class attributes and override
    :meth:`check_module` and/or :meth:`check_project`."""

    rule_id: str = "SL000"
    name: str = "abstract"
    severity: str = "error"
    #: One-line rationale shown by ``repro lint --list-rules``.
    rationale: str = ""
    #: Default remediation message attached to findings.
    fixit: str = ""

    def check_module(self, module: Module) -> Iterator[Finding]:
        """Yield findings for one module (default: none)."""
        return iter(())

    def check_project(self, modules: Sequence[Module]) -> Iterator[Finding]:
        """Yield findings that need the whole module set (default: none)."""
        return iter(())

    # ------------------------------------------------------------------

    def finding(
        self,
        module: Module,
        node: ast.AST,
        message: str,
        fixit: Optional[str] = None,
    ) -> Finding:
        """Build a :class:`Finding` anchored at *node* in *module*."""
        return Finding(
            rule_id=self.rule_id,
            severity=self.severity,
            path=module.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            message=message,
            fixit=fixit if fixit is not None else self.fixit,
        )


def dotted_name(node: ast.AST) -> Optional[str]:
    """Render ``a.b.c`` attribute/name chains; ``None`` for anything
    more complex (calls, subscripts)."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = dotted_name(node.value)
        if base is None:
            return None
        return "%s.%s" % (base, node.attr)
    return None
