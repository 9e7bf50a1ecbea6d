"""Interprocedural rules SL010-SL014.

Each rule is a normal :class:`repro.lint.base.Rule` implementing
``check_project``, so the v1 engine, pragma suppression, ``--disable``
and the renderers all apply unchanged.  The expensive part -- the
summary extraction and call-graph fixpoint -- runs once per module set
and is shared by all five rules through :class:`_AnalysisProvider`.

These rules live in their own registry (``WHOLE_PROGRAM_RULE_CLASSES``,
instantiated by :func:`build_whole_program_rules`), not ``ALL_RULES``:
single-file runs keep v1 semantics, ``repro lint --whole-program`` adds
this set.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple, Type

from repro.lint.base import Finding, Module, Rule
from repro.lint.whole_program.graph import (
    LAMBDA_TARGET,
    ProjectIndex,
    Reachability,
)
from repro.lint.whole_program.summaries import (
    ModuleSummary,
    SpawnSite,
    ValueDesc,
    extract_summary,
)

#: Module prefixes whose impurity is sanctioned for SL012: observability
#: provenance (RunManifest wall-clock timings are excluded from
#: bit-identity comparisons) and the deterministic-RNG gateway.
PURITY_ALLOWLIST = ("repro.obs.", "repro.common.rng")

#: The cell-purity roots (SL012).
CELL_ROOT_NAMES = ("simulate_cell",)

#: Executor entry points for SL014 (beyond everything defined in the
#: ``repro.exec`` package itself).  ``_pool_worker`` is the persistent
#: pool-worker main loop -- the spawn site every pooled cell runs under.
EXECUTOR_ROOT_NAMES = (
    "run_cells",
    "execute_resilient",
    "execute_pooled",
    "simulate_cell",
    "_pool_worker",
)

#: Fact kinds SL012 reports, with readable labels.
PURITY_FACTS = {
    "clock": "reads the wall clock",
    "env": "reads environment variables",
    "cwd": "reads the working directory",
    "random": "draws host entropy",
    "set-iteration": "iterates an unordered set",
}

_MAX_CHAIN_HOPS = 5


class WholeProgramAnalysis:
    """Summaries + project index for one module set (built once)."""

    def __init__(self, modules: Sequence[Module]) -> None:
        self.modules = list(modules)
        summaries: Dict[str, ModuleSummary] = {}
        for module in modules:
            summary = extract_summary(module)
            name = summary.name
            while name in summaries:  # fixture stem collisions
                name += "_"
            summaries[name] = summary
        self.summaries = summaries
        self.index = ProjectIndex(summaries)
        self.index.analyze()

    # -- shared derived views ------------------------------------------

    def spawn_sites(self) -> List[Tuple[str, SpawnSite]]:
        sites: List[Tuple[str, SpawnSite]] = []
        for fid, (_, fn) in sorted(self.index.functions.items()):
            for spawn in fn.spawns:
                sites.append((fid, spawn))
        return sites

    def worker_roots(self) -> List[str]:
        """Function ids resolved as ``Process(target=...)`` entry points."""
        roots: Set[str] = set()
        for fid, spawn in self.spawn_sites():
            if spawn.target is None:
                continue
            for target in self.index.callable_targets(fid, spawn.target):
                if target != LAMBDA_TARGET:
                    roots.add(target)
        return sorted(roots)

    def describe_chain(self, reach: Reachability, fid: str) -> str:
        chain = [self.index.describe(hop) for hop in reach.chain(fid)]
        if len(chain) > _MAX_CHAIN_HOPS:
            chain = chain[:2] + ["..."] + chain[-2:]
        return " -> ".join(chain)

    def module_path(self, module_name: str) -> str:
        summary = self.summaries.get(module_name)
        return summary.path if summary is not None else module_name


class _AnalysisProvider:
    """Builds one :class:`WholeProgramAnalysis` per module set; the five
    rules hold the same provider so the graph is computed once."""

    def __init__(self) -> None:
        self._key: Optional[Tuple[Tuple[str, str], ...]] = None
        self._analysis: Optional[WholeProgramAnalysis] = None

    def get(self, modules: Sequence[Module]) -> WholeProgramAnalysis:
        key = tuple((m.path, m.source) for m in modules)
        if self._analysis is None or key != self._key:
            self._analysis = WholeProgramAnalysis(modules)
            self._key = key
        return self._analysis


class _WholeProgramRule(Rule):
    """Base: findings are built from (path, line) resolved through the
    graph, not from AST nodes."""

    def __init__(self, provider: _AnalysisProvider) -> None:
        self.provider = provider

    def make_finding(
        self, path: str, line: int, message: str, fixit: Optional[str] = None
    ) -> Finding:
        return Finding(
            rule_id=self.rule_id,
            severity=self.severity,
            path=path,
            line=line,
            col=0,
            message=message,
            fixit=fixit if fixit is not None else self.fixit,
        )


class WorkerBoundaryPicklability(_WholeProgramRule):
    """SL010: everything crossing ``Process(target=..., args=...)`` must
    be picklable *by construction*."""

    rule_id = "SL010"
    name = "worker-boundary-picklability"
    severity = "error"
    rationale = (
        "objects crossing the multiprocessing boundary are pickled; "
        "lambdas, closures, and open handles fail at spawn time (or "
        "silently fork unshared module state), so the boundary must be "
        "provably picklable from the call graph alone"
    )
    fixit = (
        "pass a module-level function as target= and plain data "
        "(dataclasses, primitives) in args=; hydrate handles inside the "
        "worker"
    )

    def check_project(self, modules: Sequence[Module]) -> Iterator[Finding]:
        analysis = self.provider.get(modules)
        index = analysis.index
        for fid, spawn in analysis.spawn_sites():
            mod, fn = index.functions[fid]
            path = analysis.module_path(mod)
            if spawn.target is None:
                yield self.make_finding(
                    path,
                    spawn.line,
                    "Process(...) without a resolvable target=: the worker "
                    "entry point cannot be proven picklable",
                )
            elif spawn.target.kind == "lambda":
                yield self.make_finding(
                    path,
                    spawn.line,
                    "lambda passed as Process target=: lambdas cannot be "
                    "pickled across the worker boundary",
                )
            else:
                targets = index.callable_targets(fid, spawn.target)
                if not targets:
                    yield self.make_finding(
                        path,
                        spawn.line,
                        "Process target %r does not resolve to a first-party "
                        "function: picklability cannot be proven by "
                        "construction" % (spawn.target.text,),
                    )
                for target in sorted(targets):
                    if target == LAMBDA_TARGET:
                        yield self.make_finding(
                            path,
                            spawn.line,
                            "Process target %r binds to a lambda: lambdas "
                            "cannot be pickled across the worker boundary"
                            % (spawn.target.text,),
                        )
                    elif ".<locals>." in target:
                        yield self.make_finding(
                            path,
                            spawn.line,
                            "Process target %r binds to nested function %s: "
                            "closures cannot be pickled across the worker "
                            "boundary"
                            % (spawn.target.text, index.describe(target)),
                        )
            yield from self._check_args(analysis, fid, spawn, path)

    def _check_args(
        self,
        analysis: WholeProgramAnalysis,
        fid: str,
        spawn: SpawnSite,
        path: str,
    ) -> Iterator[Finding]:
        index = analysis.index
        scan = spawn.args_scan
        if scan is None:
            return
        entry = index.functions[fid]
        fn = entry[1]
        for line in scan.lambda_lines:
            yield self.make_finding(
                path,
                line,
                "lambda inside Process args=: lambdas cannot be pickled "
                "across the worker boundary",
            )
        for line in scan.open_lines:
            yield self.make_finding(
                path,
                line,
                "open() handle inside Process args=: file objects cannot "
                "be pickled across the worker boundary",
            )
        mod_summary = analysis.summaries.get(entry[0])
        for name in sorted(set(scan.names)):
            if name in fn.local_lambdas:
                yield self.make_finding(
                    path,
                    spawn.line,
                    "local lambda %r flows into Process args=: lambdas "
                    "cannot be pickled across the worker boundary" % name,
                )
            elif name in fn.local_functions:
                yield self.make_finding(
                    path,
                    spawn.line,
                    "nested function %r flows into Process args=: closures "
                    "cannot be pickled across the worker boundary" % name,
                )
            elif mod_summary is not None and name in mod_summary.module_mutables:
                yield self.make_finding(
                    path,
                    spawn.line,
                    "module-level mutable %r flows into Process args=: "
                    "workers get an unshared copy, so mutations diverge "
                    "silently" % name,
                )
        # args built by a factory: audit the factory's return expression.
        for call_chain in sorted(set(scan.calls)):
            for target in sorted(
                index.callable_targets(
                    fid, _name_desc(call_chain)
                )
            ):
                if target == LAMBDA_TARGET:
                    yield self.make_finding(
                        path,
                        spawn.line,
                        "Process args= built by a lambda %r: the produced "
                        "values cannot be audited for picklability"
                        % call_chain,
                    )
                    continue
                factory_entry = index.functions.get(target)
                if factory_entry is None:
                    continue
                factory_mod, factory_fn = factory_entry
                factory_path = analysis.module_path(factory_mod)
                for line in factory_fn.returns.lambda_lines:
                    yield self.make_finding(
                        factory_path,
                        line,
                        "lambda in the return value of %s, which builds "
                        "Process args=: lambdas cannot be pickled across "
                        "the worker boundary" % index.describe(target),
                    )
                for line in factory_fn.returns.open_lines:
                    yield self.make_finding(
                        factory_path,
                        line,
                        "open() handle in the return value of %s, which "
                        "builds Process args=: file objects cannot be "
                        "pickled across the worker boundary"
                        % index.describe(target),
                    )
                for name in sorted(set(factory_fn.returns.names)):
                    if name in factory_fn.local_lambdas or (
                        name in factory_fn.local_functions
                    ):
                        yield self.make_finding(
                            factory_path,
                            factory_fn.lineno,
                            "%s returns callable %r into Process args=: "
                            "closures/lambdas cannot be pickled across the "
                            "worker boundary" % (index.describe(target), name),
                        )


class WorkerSharedStateMutation(_WholeProgramRule):
    """SL011: nothing reachable from a worker entry point may mutate
    shared module-level state."""

    rule_id = "SL011"
    name = "worker-shared-state-mutation"
    severity = "error"
    rationale = (
        "worker processes get copies of module state; a mutation that "
        "looks shared is silently process-local, so results differ "
        "between inline and isolated execution"
    )
    fixit = (
        "return the value from the worker (or send it over the result "
        "channel) instead of mutating module-level state"
    )

    def check_project(self, modules: Sequence[Module]) -> Iterator[Finding]:
        analysis = self.provider.get(modules)
        index = analysis.index
        roots = analysis.worker_roots()
        if not roots:
            return
        reach = index.reachable_from(roots)
        for fid in sorted(reach.reached):
            mod, fn = index.functions[fid]
            path = analysis.module_path(mod)
            for fact in fn.facts:
                if fact.kind != "global-write":
                    continue
                yield self.make_finding(
                    path,
                    fact.line,
                    "%s in %s, reachable from worker entry point (%s)"
                    % (
                        fact.detail,
                        index.describe(fid),
                        analysis.describe_chain(reach, fid),
                    ),
                )


class InterproceduralCellPurity(_WholeProgramRule):
    """SL012: nothing reachable from ``simulate_cell`` may read ambient
    host state (SL001 lifted from per-file to whole-program)."""

    rule_id = "SL012"
    name = "interprocedural-cell-purity"
    severity = "error"
    rationale = (
        "simulate_cell is the bit-identity root: any wall-clock, env, "
        "cwd, entropy, or set-order read anywhere below it makes cached "
        "and recomputed results diverge"
    )
    fixit = (
        "thread the value through SimCell/SystemConfig, or use the "
        "seeded repro.common.rng gateway; sort sets before iterating"
    )

    def check_project(self, modules: Sequence[Module]) -> Iterator[Finding]:
        analysis = self.provider.get(modules)
        index = analysis.index
        roots: List[str] = []
        for name in CELL_ROOT_NAMES:
            roots.extend(index.functions_named(name))
        if not roots:
            return
        reach = index.reachable_from(roots)
        for fid in sorted(reach.reached):
            mod, fn = index.functions[fid]
            if any(
                mod == prefix.rstrip(".") or mod.startswith(prefix)
                for prefix in PURITY_ALLOWLIST
            ):
                continue
            path = analysis.module_path(mod)
            for fact in fn.facts:
                label = PURITY_FACTS.get(fact.kind)
                if label is None:
                    continue
                yield self.make_finding(
                    path,
                    fact.line,
                    "%s %s (%s), reachable from simulate_cell (%s)"
                    % (
                        index.describe(fid),
                        label,
                        fact.detail,
                        analysis.describe_chain(reach, fid),
                    ),
                )


class DeadStatDetection(_WholeProgramRule):
    """SL013: stats created but never incremented, and incremented stats
    whose StatGroup never reaches the exported metrics namespace."""

    rule_id = "SL013"
    name = "dead-stat-detection"
    severity = "warning"
    rationale = (
        "a stat that is never incremented is dead weight in every "
        "payload; a stat that is incremented but whose group is never "
        "registered silently vanishes from results -- both mean the "
        "telemetry contract and the code disagree"
    )
    fixit = (
        "increment the stat on its event path, or register the owning "
        "StatGroup with the MetricsRegistry (and bump PAYLOAD_SCHEMA "
        "when the exported vocabulary changes); delete stats that lost "
        "their purpose"
    )

    def check_project(self, modules: Sequence[Module]) -> Iterator[Finding]:
        analysis = self.provider.get(modules)
        index = analysis.index
        incremented: Set[str] = set()
        for summary in analysis.summaries.values():
            incremented.update(summary.stat_increments)
        instantiated_names = {
            cid.split(":", 1)[1] for cid in index.instantiated
        }

        # (a) created, never incremented anywhere in the project.
        for mod_name, summary in sorted(analysis.summaries.items()):
            for site in summary.stat_creations:
                if site.stat in incremented:
                    continue
                if site.class_name and site.class_name not in instantiated_names:
                    continue  # never constructed in this tree: not live
                yield self.make_finding(
                    summary.path,
                    site.line,
                    "stat %r (%s) is created but never incremented anywhere "
                    "in the project" % (site.stat, site.kind),
                )

        # (b) incremented, but the owning group never reaches a registry.
        exported, wildcard = self._exported_classes(analysis)
        if wildcard:
            return  # an unresolvable registration may export anything
        creating_classes = set()
        for mod_name, summary in analysis.summaries.items():
            for site in summary.stat_creations:
                if site.class_name:
                    creating_classes.add("%s:%s" % (mod_name, site.class_name))
        for mod_name, summary in sorted(analysis.summaries.items()):
            for cls_name, cls in sorted(summary.classes.items()):
                if cls_name not in instantiated_names:
                    continue
                cid = "%s:%s" % (mod_name, cls_name)
                # Stats may be created by base-class methods (schedulers).
                creates_stats = any(
                    klass in creating_classes
                    for klass in index.class_mro(cid)
                )
                if not creates_stats:
                    continue
                own_groups = [
                    (attr, line)
                    for attr, (injected, line) in sorted(cls.group_attrs.items())
                    if not injected
                ]
                if not own_groups:
                    continue  # injected groups export via their parent
                if cid in exported:
                    continue
                attr, line = own_groups[0]
                yield self.make_finding(
                    summary.path,
                    line,
                    "StatGroup %r of %s holds stats that never reach the "
                    "exported metrics namespace: no MetricsRegistry "
                    "registration path covers it" % (attr, cls_name),
                )

    def _exported_classes(
        self, analysis: WholeProgramAnalysis
    ) -> Tuple[Set[str], bool]:
        """Classes whose groups are registered; ``wildcard`` True when a
        registration could not be resolved (rule degrades to no-op)."""
        index = analysis.index
        exported: Set[str] = set()
        wildcard = False
        for mod_name, summary in analysis.summaries.items():
            for reg in summary.registrations:
                fid = "%s:%s" % (mod_name, reg.func)
                reg_fn = summary.functions.get(reg.func)
                if (
                    reg.arg.kind == "name"
                    and reg_fn is not None
                    and (
                        reg.arg.text in reg_fn.params
                        or reg_fn.local_iters.get(reg.arg.text) in reg_fn.params
                    )
                ):
                    # Pass-through of the enclosing function's own
                    # parameter (or a loop over it) -- the registry's
                    # internals; the export is accounted at the concrete
                    # call site.
                    continue
                resolved_here = False
                if reg.arg.kind in ("attr", "name") and reg.arg.text:
                    chain = reg.arg.text
                    if "." in chain:
                        receiver, attr = chain.rsplit(".", 1)
                        for cid in index.chain_value_classes(fid, receiver):
                            if self._has_group_attr(analysis, cid, attr):
                                exported.add(cid)
                                resolved_here = True
                    else:
                        for cid in index.chain_value_classes(fid, chain):
                            exported.add(cid)
                            resolved_here = True
                elif reg.arg.kind == "call" and reg.arg.text:
                    receiver = reg.arg.text.rsplit(".", 1)[0]
                    if receiver != reg.arg.text:
                        for cid in index.chain_value_classes(fid, receiver):
                            exported.update(self._attr_closure(index, cid))
                            resolved_here = True
                if not resolved_here:
                    wildcard = True
        return exported, wildcard

    def _has_group_attr(
        self, analysis: WholeProgramAnalysis, cid: str, attr: str
    ) -> bool:
        for klass in analysis.index.class_mro(cid):
            mod = analysis.index.classes.get(klass)
            if mod is None:
                continue
            cls = analysis.summaries[mod].classes[klass.split(":", 1)[1]]
            if attr in cls.group_attrs:
                return True
        return False

    def _attr_closure(self, index: ProjectIndex, cid: str) -> Set[str]:
        """cid plus every class reachable through attribute types -- the
        conservative export set for ``register_all(x.stat_groups())``."""
        closure = {cid}
        queue = [cid]
        while queue:
            current = queue.pop()
            mod = index.classes.get(current)
            if mod is None:
                continue
            cls = index.summaries[mod].classes[current.split(":", 1)[1]]
            for attr in cls.attr_types:
                for nxt in index.attr_classes(current, attr):
                    if nxt not in closure:
                        closure.add(nxt)
                        queue.append(nxt)
        return closure


class ExceptionContextCompleteness(_WholeProgramRule):
    """SL014: ReproError raise sites reachable from the executor must
    pass a structured ``context`` dict."""

    rule_id = "SL014"
    name = "exception-context-completeness"
    severity = "warning"
    rationale = (
        "repro.verify's flight recorder and the resilience quarantine "
        "report serialize the context dict of every failure; a raise "
        "without context= produces an unactionable crash record"
    )
    fixit = (
        "pass context={...} with the identifying state (cell key, "
        "addresses, config fields) to the ReproError constructor"
    )

    def check_project(self, modules: Sequence[Module]) -> Iterator[Finding]:
        analysis = self.provider.get(modules)
        index = analysis.index
        error_classes = index.subclasses_of(("ReproError",))
        if not error_classes:
            return
        roots: List[str] = []
        for fid, (mod, _) in index.functions.items():
            if mod.startswith("repro.exec.") or mod == "repro.exec":
                roots.append(fid)
        for name in EXECUTOR_ROOT_NAMES:
            roots.extend(index.functions_named(name))
        if not roots:
            return
        reach = index.reachable_from(sorted(set(roots)))
        for fid in sorted(reach.reached):
            mod, fn = index.functions[fid]
            path = analysis.module_path(mod)
            for site in fn.raises:
                if site.has_context:
                    continue
                cid = index.resolve_class_chain(mod, site.exc)
                if cid is None or cid not in error_classes:
                    continue
                yield self.make_finding(
                    path,
                    site.line,
                    "raise %s(...) without context= in %s, reachable from "
                    "the executor (%s)"
                    % (
                        site.exc,
                        index.describe(fid),
                        analysis.describe_chain(reach, fid),
                    ),
                )


def _name_desc(chain: str) -> ValueDesc:
    if "." in chain or chain.endswith(("[]", "()")):
        return ValueDesc("attr", chain)
    return ValueDesc("name", chain)


#: Rule classes in ID order (the registry for docs/tests).
WHOLE_PROGRAM_RULE_CLASSES: Tuple[Type[_WholeProgramRule], ...] = (
    WorkerBoundaryPicklability,
    WorkerSharedStateMutation,
    InterproceduralCellPurity,
    DeadStatDetection,
    ExceptionContextCompleteness,
)


def build_whole_program_rules() -> List[Rule]:
    """Instantiate SL010-SL014 sharing one analysis provider (the call
    graph is built once per module set, not once per rule)."""
    provider = _AnalysisProvider()
    return [cls(provider) for cls in WHOLE_PROGRAM_RULE_CLASSES]
