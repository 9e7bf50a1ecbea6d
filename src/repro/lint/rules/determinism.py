"""SL001: no nondeterminism in the code a cell runs.

The executor's content-addressed cache assumes a cell's result is a pure
function of ``(config, trace identity, seed, version)``.  Any wall-clock
read, unseeded randomness, environment or working-directory read, or
unordered iteration inside the simulated machine silently breaks that
contract: the cache then serves results that a fresh run would not
reproduce.  All randomness must flow through
:class:`repro.common.rng.DeterministicRng` and all iteration over sets
must impose an order (``sorted``).  ``repro verify``'s determinism
oracle checks the same contract at run time, across processes.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.lint.base import Finding, Module, Rule, dotted_name

#: Packages whose code contributes to simulated timing and therefore to
#: cached results; ``obs``/``exec``/``analysis`` are host-side.
TIMING_CRITICAL_PACKAGES = (
    "sim",
    "mmu",
    "dram",
    "cache",
    "sched",
    "vm",
    "workloads",
    "core",
)

#: SL001's scope: the timing-critical packages plus the rest of what a
#: cell runs -- ``common`` (config, stats, errors) and ``verify`` (the
#: online auditors).  :mod:`repro.common.rng` is exempt: it is the one
#: module that may wrap :mod:`random`.
DETERMINISM_PACKAGES = TIMING_CRITICAL_PACKAGES + ("common", "verify")
_DETERMINISM_EXEMPT = ("repro.common.rng",)

#: Modules whose import alone is a red flag in simulation code.
_BANNED_MODULES = {
    "time": "wall-clock reads make cached results irreproducible",
    "random": "module-level random bypasses the experiment seed",
    "uuid": "uuid generation is host-entropy nondeterminism",
    "secrets": "secrets draws host entropy",
    "datetime": "wall-clock reads make cached results irreproducible",
}

#: Banned attribute calls even when the module import is indirect.
_BANNED_CALLS = {
    "os.urandom": "os.urandom draws host entropy",
    "os.getrandom": "os.getrandom draws host entropy",
    "time.time": "wall-clock read",
    "time.perf_counter": "wall-clock read",
    "time.monotonic": "wall-clock read",
    "os.getenv": "environment reads make results depend on the host",
    "os.getcwd": "working-directory reads make results depend on the host",
}

#: Banned attribute reads (any use, call or not).
_BANNED_ATTRIBUTES = {
    "os.environ": "environment reads make results depend on the host",
}


def _is_set_expression(node: ast.AST, set_locals: Set[str]) -> bool:
    """True when *node* statically looks set-valued: a set display or
    comprehension, a ``set(...)``/``frozenset(...)`` call, or a local
    name bound to one of those earlier in the same scope."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        name = dotted_name(node.func)
        if name in ("set", "frozenset"):
            return True
    if isinstance(node, ast.Name) and node.id in set_locals:
        return True
    return False


class NoNondeterminismRule(Rule):
    rule_id = "SL001"
    name = "no-nondeterminism"
    severity = "error"
    rationale = (
        "code a cell runs must be a pure function of (config, trace, "
        "seed): no wall clock, no unseeded randomness, no environment or "
        "cwd reads, no unordered-set iteration, or the result cache "
        "serves irreproducible results"
    )
    fixit = (
        "draw randomness from repro.common.rng.DeterministicRng, move "
        "wall-clock profiling to repro.obs, pass host settings in through "
        "SystemConfig, and iterate sets via sorted()"
    )

    def check_module(self, module: Module) -> Iterator[Finding]:
        if not module.is_in_package(DETERMINISM_PACKAGES):
            return
        if module.name in _DETERMINISM_EXEMPT:
            return
        set_scopes = _collect_set_locals(module.tree)
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    root = alias.name.split(".")[0]
                    if root in _BANNED_MODULES:
                        yield self.finding(
                            module,
                            node,
                            "import of %r in timing-critical package: %s"
                            % (alias.name, _BANNED_MODULES[root]),
                        )
            elif isinstance(node, ast.ImportFrom):
                root = (node.module or "").split(".")[0]
                if root in _BANNED_MODULES:
                    yield self.finding(
                        module,
                        node,
                        "import from %r in timing-critical package: %s"
                        % (node.module, _BANNED_MODULES[root]),
                    )
                elif node.module == "os":
                    for alias in node.names:
                        name = "os." + alias.name
                        reason = _BANNED_CALLS.get(name) or _BANNED_ATTRIBUTES.get(name)
                        if reason is not None:
                            yield self.finding(
                                module,
                                node,
                                "import of %s in timing-critical package: %s"
                                % (name, reason),
                            )
            elif isinstance(node, ast.Call):
                name = dotted_name(node.func)
                if name in _BANNED_CALLS:
                    yield self.finding(
                        module,
                        node,
                        "call to %s() in timing-critical package: %s"
                        % (name, _BANNED_CALLS[name]),
                    )
            elif isinstance(node, ast.Attribute):
                name = dotted_name(node)
                if name in _BANNED_ATTRIBUTES:
                    yield self.finding(
                        module,
                        node,
                        "read of %s in timing-critical package: %s"
                        % (name, _BANNED_ATTRIBUTES[name]),
                    )
            for iter_node in _iterations(node):
                if _is_set_expression(iter_node, set_scopes.get(id(node), set())):
                    yield self.finding(
                        module,
                        iter_node,
                        "iteration over an unordered set: element order is "
                        "hash-seed dependent and perturbs simulated timing",
                        "wrap the iterable in sorted(...) or use an ordered "
                        "container (dict keys keep insertion order)",
                    )


def _iterations(node: ast.AST) -> List[ast.AST]:
    """The iterable expressions consumed by *node*, if it iterates."""
    if isinstance(node, ast.For):
        return [node.iter]
    if isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
        return [generator.iter for generator in node.generators]
    return []


def _collect_set_locals(tree: ast.AST) -> Dict[int, Set[str]]:
    """Map ``id(iterating node)`` -> local names bound to set values in
    the enclosing function scope (single-assignment tracking only)."""
    scopes: Dict[int, Set[str]] = {}
    for scope in ast.walk(tree):
        if not isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Module)):
            continue
        bound: Set[str] = set()
        rebound_other: Set[str] = set()
        for node in ast.walk(scope):
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target = node.targets[0]
                if isinstance(target, ast.Name):
                    if _is_set_expression(node.value, set()):
                        bound.add(target.id)
                    else:
                        rebound_other.add(target.id)
        names = bound - rebound_other
        if not names:
            continue
        for node in ast.walk(scope):
            if _iterations(node):
                scopes.setdefault(id(node), set()).update(names)
    return scopes
