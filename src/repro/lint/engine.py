"""The simlint engine: file discovery, parsing, rule dispatch,
suppression, and rendering.

Entry point: :func:`lint_paths` -> sorted ``List[Finding]``.

Suppression, narrowest to widest:

* inline pragma on the offending line --
  ``# simlint: disable=SL001,SL007`` (or a bare ``# simlint: disable``
  for every rule);
* rule-wide ``--disable SLnnn`` on the command line, which drops the
  rule from the list passed as *rules*.
"""

from __future__ import annotations

import ast
import json
import os
import re
from typing import List, Optional, Sequence, TextIO

from repro.lint.base import Finding, Module, Rule
from repro.lint.rules import ALL_RULES

_PRAGMA = re.compile(r"#\s*simlint:\s*disable(?:=(?P<rules>[A-Z0-9,\s]+))?")


def discover_files(paths: Sequence[str]) -> List[str]:
    """Expand files/directories into a sorted list of ``.py`` files."""
    files: List[str] = []
    for path in paths:
        if os.path.isdir(path):
            for root, dirnames, filenames in os.walk(path):
                dirnames.sort()
                dirnames[:] = [d for d in dirnames if d != "__pycache__"]
                for filename in sorted(filenames):
                    if filename.endswith(".py"):
                        files.append(os.path.join(root, filename))
        elif path.endswith(".py"):
            files.append(path)
    return sorted(dict.fromkeys(files))


def module_name_for(path: str) -> str:
    """Dotted name from the last ``repro`` directory down (fixture files
    outside a repro tree keep their bare stem)."""
    normalized = os.path.normpath(path)
    parts = normalized.split(os.sep)
    stem = parts[-1][:-3] if parts[-1].endswith(".py") else parts[-1]
    anchor = None
    for index, part in enumerate(parts[:-1]):
        if part == "repro":
            anchor = index
    if anchor is None:
        return stem
    package = parts[anchor:-1]
    if stem != "__init__":
        package = package + [stem]
    return ".".join(package)


def parse_module(path: str) -> Optional[Module]:
    """Parse one file; ``None`` (not a crash) on unreadable source --
    syntax errors are the compiler's job, not the linter's."""
    try:
        with open(path, encoding="utf-8") as stream:
            source = stream.read()
        tree = ast.parse(source, filename=path)
    except (OSError, SyntaxError, ValueError):
        return None
    return Module(
        path=path,
        name=module_name_for(path),
        source=source,
        tree=tree,
        lines=source.splitlines(),
    )


def _suppressed_inline(finding: Finding, module: Module) -> bool:
    if not 1 <= finding.line <= len(module.lines):
        return False
    match = _PRAGMA.search(module.lines[finding.line - 1])
    if match is None:
        return False
    rules = match.group("rules")
    if rules is None:
        return True
    return finding.rule_id in {rule.strip() for rule in rules.split(",")}


def lint_modules(
    modules: Sequence[Module],
    rules: Optional[Sequence[Rule]] = None,
) -> List[Finding]:
    """Run *rules* (default: ``ALL_RULES``) over the parsed *modules*."""
    by_path = {module.path: module for module in modules}
    findings: List[Finding] = []
    for rule in rules if rules is not None else ALL_RULES:
        for module in modules:
            findings.extend(rule.check_module(module))
        findings.extend(rule.check_project(modules))
    kept = []
    for finding in findings:
        module = by_path.get(finding.path)
        if module is not None and _suppressed_inline(finding, module):
            continue
        kept.append(finding)
    kept.sort(key=lambda f: (f.path, f.line, f.col, f.rule_id))
    return kept


def lint_paths(
    paths: Sequence[str],
    rules: Optional[Sequence[Rule]] = None,
) -> List[Finding]:
    """Discover, parse and lint *paths*; the one-call API."""
    modules = []
    for path in discover_files(paths):
        module = parse_module(path)
        if module is not None:
            modules.append(module)
    return lint_modules(modules, rules=rules)


# ----------------------------------------------------------------------


def render_text(findings: Sequence[Finding], out: TextIO) -> None:
    for finding in findings:
        out.write(finding.render() + "\n")
    errors = sum(1 for finding in findings if finding.severity == "error")
    warnings = len(findings) - errors
    if findings:
        out.write(
            "simlint: %d finding(s) (%d error, %d warning)\n"
            % (len(findings), errors, warnings)
        )
    else:
        out.write("simlint: no findings\n")


def render_json(findings: Sequence[Finding], out: TextIO) -> None:
    payload = {
        "tool": "simlint",
        "findings": [finding.as_dict() for finding in findings],
        "counts": {
            "total": len(findings),
            "error": sum(1 for finding in findings if finding.severity == "error"),
            "warning": sum(
                1 for finding in findings if finding.severity == "warning"
            ),
        },
    }
    json.dump(payload, out, indent=2, sort_keys=True)
    out.write("\n")


def render_rules(out: TextIO, rules: Optional[Sequence[Rule]] = None) -> None:
    """``--list-rules``: one block per rule."""
    for rule in rules if rules is not None else ALL_RULES:
        out.write(
            "%s %-24s [%s]\n    why: %s\n    fix: %s\n"
            % (rule.rule_id, rule.name, rule.severity, rule.rationale, rule.fixit)
        )
