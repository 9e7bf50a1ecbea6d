"""Project index and call graph for whole-program lint.

Built from the per-module summaries, the :class:`ProjectIndex` resolves
rendered chains (``self.controller.device.stats``) against first-party
symbols: import maps, class hierarchies, instance-attribute types
(including containers, factory returns, and constructor-parameter
inference), loop variables, and caller-to-callee parameter bindings.

Resolution is *conservative on dynamic dispatch*: an ``obj.method()``
call whose receiver cannot be typed fans out to every first-party
method named ``method`` -- except for a short list of ubiquitous
container/IO method names (``get``, ``items``, ``append``, ...), whose
fan-out would connect everything to everything and drown the graph in
false edges.  The trade is documented in ``docs/static_analysis.md``:
facts behind an excluded name are invisible to the engine, so
first-party code should not reuse those names for impure work.

Function ids are ``"<dotted.module>:<qualname>"``; class ids are
``"<dotted.module>:<ClassName>"``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.lint.whole_program.summaries import (
    CallSite,
    FunctionSummary,
    ModuleSummary,
    ValueDesc,
)

#: Receiver-less method names too generic for name-match fallback.
FALLBACK_EXCLUDED: FrozenSet[str] = frozenset(
    {
        "__init__",
        "add",
        "append",
        "as_dict",
        "clear",
        "close",
        "copy",
        "count",
        "decode",
        "discard",
        "encode",
        "endswith",
        "exists",
        "extend",
        "flat",
        "flush",
        "format",
        "from_dict",
        "get",
        "hexdigest",
        "index",
        "insert",
        "is_dir",
        "isoformat",
        "items",
        "join",
        "keys",
        "loads",
        "dumps",
        "mkdir",
        "open",
        "peek",
        "pop",
        "popitem",
        "put",
        "read",
        "read_text",
        "record",
        "register",
        "register_all",
        "remove",
        "resolve",
        "rsplit",
        "setdefault",
        "sort",
        "split",
        "startswith",
        "strip",
        "to_dict",
        "update",
        "values",
        "write",
        "write_text",
    }
)

#: Marker binding target for a lambda flowing into a parameter.
LAMBDA_TARGET = "<lambda>"

_MAX_IMPORT_HOPS = 8


@dataclass
class Resolution:
    """Outcome of resolving one call chain."""

    callees: Set[str] = field(default_factory=set)
    instantiated: Set[str] = field(default_factory=set)  # class ids
    resolved: bool = False  # any concrete target found


@dataclass
class Reachability:
    """BFS result from a set of roots over the resolved call graph."""

    reached: Set[str]
    parents: Dict[str, Tuple[str, int]]  # fid -> (caller fid, call line)

    def chain(self, fid: str) -> List[str]:
        """Call path root -> ... -> fid, as function ids."""
        path = [fid]
        seen = {fid}
        while fid in self.parents:
            fid = self.parents[fid][0]
            if fid in seen:
                break
            seen.add(fid)
            path.append(fid)
        path.reverse()
        return path


class ProjectIndex:
    """Whole-program symbol/type/call-graph index over module summaries."""

    def __init__(self, summaries: Dict[str, ModuleSummary]) -> None:
        self.summaries = summaries
        #: fid -> (module name, function summary)
        self.functions: Dict[str, Tuple[str, FunctionSummary]] = {}
        #: cid -> module name
        self.classes: Dict[str, str] = {}
        self.methods_by_name: Dict[str, List[str]] = {}
        self.module_symbols: Dict[str, Dict[str, Tuple[str, str]]] = {}
        for mod, summary in summaries.items():
            symbols: Dict[str, Tuple[str, str]] = {}
            for qual, fn in summary.functions.items():
                fid = "%s:%s" % (mod, qual)
                self.functions[fid] = (mod, fn)
                if fn.class_name and qual == "%s.%s" % (fn.class_name, fn.name):
                    self.methods_by_name.setdefault(fn.name, []).append(fid)
                elif not fn.class_name and not fn.nested and qual == fn.name:
                    symbols[fn.name] = ("func", fid)
            for cls_name in summary.classes:
                cid = "%s:%s" % (mod, cls_name)
                self.classes[cid] = mod
                symbols[cls_name] = ("class", cid)
            self.module_symbols[mod] = symbols

        # Lazy/memoized state.
        self._factory_memo: Dict[str, Set[str]] = {}
        self._attr_memo: Dict[Tuple[str, str], Set[str]] = {}
        self._attr_in_progress: Set[Tuple[str, str]] = set()
        self._constructor_sites: Optional[Dict[str, List[Tuple[str, CallSite]]]] = None

        # Populated by analyze().
        self.edges: Dict[str, List[Tuple[str, int]]] = {}
        self.bindings: Dict[str, Dict[str, Set[str]]] = {}
        self.instantiated: Set[str] = set()
        self._analyzed = False

    # ------------------------------------------------------------------
    # Symbols and imports
    # ------------------------------------------------------------------

    def resolve_symbol(self, mod: str, name: str) -> Optional[Tuple[str, str]]:
        """``("func"|"class"|"module", id)`` for *name* seen from *mod*,
        following first-party re-export chains; None for stdlib/unknown."""
        for _ in range(_MAX_IMPORT_HOPS):
            symbols = self.module_symbols.get(mod)
            if symbols is None:
                return None
            if name in symbols:
                return symbols[name]
            summary = self.summaries.get(mod)
            if summary is None or name not in summary.imports:
                return None
            target = summary.imports[name]
            if target in self.summaries:
                return ("module", target)
            if "." not in target:
                return None  # stdlib top-level import
            mod, name = target.rsplit(".", 1)
        return None

    def resolve_class_chain(self, mod: str, chain: str) -> Optional[str]:
        """Class id for a rendered chain like ``Cls`` or ``alias.Cls``."""
        parts = chain.split(".")
        if len(parts) == 1:
            resolved = self.resolve_symbol(mod, parts[0])
            if resolved is not None and resolved[0] == "class":
                return resolved[1]
            return None
        head = self.resolve_symbol(mod, parts[0])
        for part in parts[1:]:
            if head is None or head[0] != "module":
                return None
            head = self.resolve_symbol(head[1], part)
        if head is not None and head[0] == "class":
            return head[1]
        return None

    # ------------------------------------------------------------------
    # Class hierarchy
    # ------------------------------------------------------------------

    def class_bases(self, cid: str) -> List[str]:
        mod = self.classes.get(cid)
        if mod is None:
            return []
        summary = self.summaries[mod].classes[cid.split(":", 1)[1]]
        bases = []
        for base_chain in summary.bases:
            base_cid = self.resolve_class_chain(mod, base_chain)
            if base_cid is not None:
                bases.append(base_cid)
        return bases

    def class_mro(self, cid: str) -> List[str]:
        """Depth-first linearization (good enough for method lookup)."""
        order: List[str] = []
        seen: Set[str] = set()
        stack = [cid]
        while stack:
            current = stack.pop(0)
            if current in seen:
                continue
            seen.add(current)
            order.append(current)
            stack.extend(self.class_bases(current))
        return order

    def find_method(self, cid: str, name: str) -> Optional[str]:
        for klass in self.class_mro(cid):
            mod = self.classes.get(klass)
            if mod is None:
                continue
            cls_name = klass.split(":", 1)[1]
            summary = self.summaries[mod].classes[cls_name]
            if name in summary.methods:
                return "%s:%s.%s" % (mod, cls_name, name)
        return None

    def subclasses_of(self, root_names: Tuple[str, ...]) -> Set[str]:
        """All first-party classes deriving (transitively) from a class
        whose bare name is in *root_names* (e.g. ``("ReproError",)``)."""
        roots = {
            cid for cid in self.classes if cid.split(":", 1)[1] in root_names
        }
        changed = True
        members = set(roots)
        while changed:
            changed = False
            for cid in self.classes:
                if cid in members:
                    continue
                if any(base in members for base in self.class_bases(cid)):
                    members.add(cid)
                    changed = True
        return members

    # ------------------------------------------------------------------
    # Value typing
    # ------------------------------------------------------------------

    def factory_returns(self, fid: str) -> Set[str]:
        """Classes a factory function can return (constructor calls and
        class-bound locals visible in its return expressions)."""
        if fid in self._factory_memo:
            return self._factory_memo[fid]
        self._factory_memo[fid] = set()  # cycle guard
        entry = self.functions.get(fid)
        if entry is None:
            return set()
        mod, fn = entry
        classes: Set[str] = set()
        for chain in fn.returns.calls:
            cid = self.resolve_class_chain(mod, chain)
            if cid is not None:
                classes.add(cid)
                continue
            resolved = self._resolve_plain_callable(mod, fn, chain)
            if resolved is not None and resolved[0] == "func":
                classes.update(self.factory_returns(resolved[1]))
        for name in fn.returns.names:
            for chain in fn.local_classes.get(name, []):
                cid = self.resolve_class_chain(mod, chain)
                if cid is not None:
                    classes.add(cid)
        self._factory_memo[fid] = classes
        return classes

    def _resolve_plain_callable(
        self, mod: str, fn: FunctionSummary, chain: str
    ) -> Optional[Tuple[str, str]]:
        """Resolve a (possibly dotted) chain to a func/class without
        instance typing -- used for factory and constructor lookup."""
        parts = chain.split(".")
        head = parts[0]
        if head.endswith("[]") or head.endswith("()"):
            return None
        if len(parts) == 1:
            if head in fn.local_functions:
                return ("func", self._nested_fid(mod, fn, head))
            resolved = self.resolve_symbol(mod, head)
            if resolved is not None and resolved[0] in ("func", "class"):
                return resolved
            return None
        resolved = self.resolve_symbol(mod, head)
        for part in parts[1:]:
            if resolved is None or resolved[0] != "module":
                return None
            if part.endswith("[]") or part.endswith("()"):
                return None
            resolved = self.resolve_symbol(resolved[1], part)
        if resolved is not None and resolved[0] in ("func", "class"):
            return resolved
        return None

    def _nested_fid(self, mod: str, fn: FunctionSummary, name: str) -> str:
        return "%s:%s.<locals>.%s" % (mod, fn.qualname, name)

    def _constructor_call_sites(self) -> Dict[str, List[Tuple[str, CallSite]]]:
        """cid -> [(caller fid, call site)] for direct constructor calls."""
        if self._constructor_sites is not None:
            return self._constructor_sites
        sites: Dict[str, List[Tuple[str, CallSite]]] = {}
        for fid, (mod, fn) in self.functions.items():
            for call in fn.calls:
                resolved = self._resolve_plain_callable(mod, fn, call.callee)
                if resolved is not None and resolved[0] == "class":
                    sites.setdefault(resolved[1], []).append((fid, call))
        self._constructor_sites = sites
        return sites

    def attr_classes(self, cid: str, attr: str) -> Set[str]:
        """Candidate classes for ``<instance of cid>.attr`` (container
        attributes yield their *element* class)."""
        key = (cid, attr)
        if key in self._attr_memo:
            return self._attr_memo[key]
        if key in self._attr_in_progress:
            return set()
        self._attr_in_progress.add(key)
        try:
            result: Set[str] = set()
            for klass in self.class_mro(cid):
                mod = self.classes.get(klass)
                if mod is None:
                    continue
                summary = self.summaries[mod].classes[klass.split(":", 1)[1]]
                typed = summary.attr_types.get(attr)
                if typed is None:
                    continue
                kind, text = typed
                if kind in ("instance", "container"):
                    resolved = self.resolve_class_chain(mod, text)
                    if resolved is not None:
                        result.add(resolved)
                elif kind == "factory":
                    factory = self._resolve_plain_callable(
                        mod, self.summaries[mod].functions.get("<module>", _EMPTY_FN), text
                    )
                    if factory is not None and factory[0] == "func":
                        result.update(self.factory_returns(factory[1]))
                elif kind == "param":
                    result.update(self._param_attr_classes(klass, text))
                if result:
                    break
            self._attr_memo[key] = result
            return result
        finally:
            self._attr_in_progress.discard(key)

    def _param_attr_classes(self, cid: str, param: str) -> Set[str]:
        """Infer the classes flowing into constructor parameter *param*
        of *cid* from every direct constructor call site."""
        mod = self.classes.get(cid)
        if mod is None:
            return set()
        init_fid = self.find_method(cid, "__init__")
        if init_fid is None:
            return set()
        _, init_fn = self.functions[init_fid]
        params = [p for p in init_fn.params if p != "self"]
        try:
            position = params.index(param)
        except ValueError:
            return set()
        result: Set[str] = set()
        for caller_fid, call in self._constructor_call_sites().get(cid, []):
            desc: Optional[ValueDesc] = None
            if position < len(call.args):
                desc = call.args[position]
            elif param in call.kwargs:
                desc = call.kwargs[param]
            if desc is None:
                continue
            result.update(self.value_classes(caller_fid, desc))
        return result

    def value_classes(self, fid: str, desc: ValueDesc) -> Set[str]:
        """Candidate classes for an argument descriptor seen in *fid*."""
        entry = self.functions.get(fid)
        if entry is None:
            return set()
        mod, fn = entry
        if desc.kind == "name":
            return self._name_classes(mod, fn, desc.text)
        if desc.kind == "attr":
            return self.chain_value_classes(fid, desc.text)
        if desc.kind == "call":
            resolved = self._resolve_plain_callable(mod, fn, desc.text)
            if resolved is None:
                return set()
            if resolved[0] == "class":
                return {resolved[1]}
            return self.factory_returns(resolved[1])
        return set()

    def _name_classes(self, mod: str, fn: FunctionSummary, name: str) -> Set[str]:
        result: Set[str] = set()
        for chain in fn.local_classes.get(name, []):
            cid = self.resolve_class_chain(mod, chain)
            if cid is not None:
                result.add(cid)
        if result:
            return result
        if name in fn.local_iters:
            fid = "%s:%s" % (mod, fn.qualname)
            return self.chain_value_classes(fid, fn.local_iters[name] + "[]")
        return result

    def chain_value_classes(self, fid: str, chain: str) -> Set[str]:
        """Candidate classes for a *value* chain (``self.ctrl.device`` --
        no trailing method call) evaluated in *fid*'s scope."""
        entry = self.functions.get(fid)
        if entry is None:
            return set()
        mod, fn = entry
        parts = chain.split(".")
        states = self._head_states(mod, fn, parts[0])
        for part in parts[1:]:
            states = self._walk_segment(states, part)
            if not states:
                return set()
        return {cid for kind, cid in states if kind == "class"}

    def _head_states(
        self, mod: str, fn: FunctionSummary, seg: str
    ) -> Set[Tuple[str, str]]:
        """Resolve the first chain segment to typed states:
        ("class", cid) instance / ("classobj", cid) / ("module", mod)."""
        subscripted = seg.endswith("[]")
        called = seg.endswith("()")
        name = seg[:-2] if (subscripted or called) else seg
        states: Set[Tuple[str, str]] = set()
        if name == "self" and fn.class_name:
            cid = "%s:%s" % (mod, fn.class_name)
            if cid in self.classes:
                states.add(("class", cid))
            return states
        if name == "super" and called and fn.class_name:
            cid = "%s:%s" % (mod, fn.class_name)
            for base in self.class_bases(cid):
                states.add(("class", base))
            return states
        for chain in fn.local_classes.get(name, []):
            cid = self.resolve_class_chain(mod, chain)
            if cid is not None:
                states.add(("class", cid))
        if states:
            return states
        if name in fn.local_iters:
            fid = "%s:%s" % (mod, fn.qualname)
            for cid in self.chain_value_classes(fid, fn.local_iters[name] + "[]"):
                states.add(("class", cid))
            if states:
                return states
        resolved = self.resolve_symbol(mod, name)
        if resolved is not None:
            kind, ident = resolved
            if kind == "module":
                states.add(("module", ident))
            elif kind == "class":
                if called:
                    states.add(("class", ident))  # Ctor() is an instance
                else:
                    states.add(("classobj", ident))
            elif kind == "func" and called:
                for cid in self.factory_returns(ident):
                    states.add(("class", cid))
        if not states and name in self.summaries.get(mod, _EMPTY_MODULE).module_containers:
            if subscripted:
                container = self.summaries[mod].module_containers[name]
                cid = self.resolve_class_chain(mod, container)
                if cid is not None:
                    states.add(("class", cid))
        return states

    def _walk_segment(
        self, states: Set[Tuple[str, str]], seg: str
    ) -> Set[Tuple[str, str]]:
        subscripted = seg.endswith("[]")
        called = seg.endswith("()")
        name = seg[:-2] if (subscripted or called) else seg
        out: Set[Tuple[str, str]] = set()
        for kind, ident in states:
            if kind == "module":
                resolved = self.resolve_symbol(ident, name)
                if resolved is None:
                    continue
                sym_kind, sym_id = resolved
                if sym_kind == "module":
                    out.add(("module", sym_id))
                elif sym_kind == "class":
                    out.add(("class" if called else "classobj", sym_id))
                elif sym_kind == "func" and called:
                    for cid in self.factory_returns(sym_id):
                        out.add(("class", cid))
            elif kind == "class":
                if called:
                    method = self.find_method(ident, name)
                    if method is not None:
                        for cid in self.factory_returns(method):
                            out.add(("class", cid))
                    continue
                for cid in self.attr_classes(ident, name):
                    out.add(("class", cid))
        return out

    # ------------------------------------------------------------------
    # Call resolution
    # ------------------------------------------------------------------

    def resolve_call(self, fid: str, call: CallSite) -> Resolution:
        """Resolve one call site's callees in the scope of *fid*,
        consulting accumulated parameter bindings."""
        resolution = Resolution()
        entry = self.functions.get(fid)
        if entry is None:
            return resolution
        mod, fn = entry
        chain = call.callee
        parts = chain.split(".")
        head = parts[0]

        if len(parts) == 1:
            name = head[:-2] if head.endswith(("[]", "()")) else head
            if name in fn.local_functions:
                resolution.callees.add(self._nested_fid(mod, fn, name))
                resolution.resolved = True
                return resolution
            if name in fn.local_lambdas:
                resolution.resolved = True  # lambda body not modeled
                return resolution
            bound = self.bindings.get(fid, {}).get(name)
            if bound:
                for target in bound:
                    if target != LAMBDA_TARGET:
                        resolution.callees.add(target)
                resolution.resolved = True
                return resolution
            resolved = self.resolve_symbol(mod, name)
            if resolved is not None:
                if resolved[0] == "func":
                    resolution.callees.add(resolved[1])
                    resolution.resolved = True
                elif resolved[0] == "class":
                    resolution.instantiated.add(resolved[1])
                    init = self.find_method(resolved[1], "__init__")
                    if init is not None:
                        resolution.callees.add(init)
                    resolution.resolved = True
            return resolution

        # Dotted chain: type the receiver, then look up the final method.
        final = parts[-1]
        final_name = final[:-2] if final.endswith(("[]", "()")) else final
        states = self._head_states(mod, fn, head)
        for part in parts[1:-1]:
            states = self._walk_segment(states, part)
            if not states:
                break
        for kind, ident in states:
            if kind == "module":
                resolved = self.resolve_symbol(ident, final_name)
                if resolved is not None:
                    if resolved[0] == "func":
                        resolution.callees.add(resolved[1])
                        resolution.resolved = True
                    elif resolved[0] == "class":
                        resolution.instantiated.add(resolved[1])
                        init = self.find_method(resolved[1], "__init__")
                        if init is not None:
                            resolution.callees.add(init)
                        resolution.resolved = True
            elif kind in ("class", "classobj"):
                method = self.find_method(ident, final_name)
                if method is not None:
                    resolution.callees.add(method)
                    resolution.resolved = True
        if not resolution.resolved and final_name not in FALLBACK_EXCLUDED:
            # Conservative dynamic-dispatch fan-out by method name.
            resolution.callees.update(self.methods_by_name.get(final_name, []))
        return resolution

    def callable_targets(self, fid: str, desc: ValueDesc) -> Set[str]:
        """Function-valued targets an argument descriptor can carry
        (for parameter binding): fids plus the ``<lambda>`` marker."""
        entry = self.functions.get(fid)
        if entry is None:
            return set()
        mod, fn = entry
        if desc.kind == "lambda":
            return {LAMBDA_TARGET}
        if desc.kind == "name":
            name = desc.text
            if name in fn.local_functions:
                return {self._nested_fid(mod, fn, name)}
            if name in fn.local_lambdas:
                return {LAMBDA_TARGET}
            bound = self.bindings.get(fid, {}).get(name)
            if bound:
                return set(bound)
            resolved = self.resolve_symbol(mod, name)
            if resolved is not None and resolved[0] == "func":
                return {resolved[1]}
            return set()
        if desc.kind == "attr":
            resolved = self._resolve_plain_callable(mod, fn, desc.text)
            if resolved is not None and resolved[0] == "func":
                return {resolved[1]}
        return set()

    # ------------------------------------------------------------------
    # Whole-graph analysis
    # ------------------------------------------------------------------

    def analyze(self) -> None:
        """Resolve every call site to edges, propagating parameter
        bindings to a fixpoint (callable arguments re-resolve the
        callee's own calls when new bindings arrive)."""
        if self._analyzed:
            return
        worklist = list(self.functions)
        queued = set(worklist)
        while worklist:
            fid = worklist.pop()
            queued.discard(fid)
            mod, fn = self.functions[fid]
            edges: List[Tuple[str, int]] = []
            touched: Set[str] = set()
            for call in fn.calls:
                resolution = self.resolve_call(fid, call)
                self.instantiated.update(resolution.instantiated)
                for callee in resolution.callees:
                    edges.append((callee, call.line))
                    if self._bind_arguments(fid, callee, call):
                        touched.add(callee)
            self.edges[fid] = edges
            for callee in touched:
                if callee not in queued:
                    worklist.append(callee)
                    queued.add(callee)
        self._analyzed = True

    def _bind_arguments(self, caller: str, callee: str, call: CallSite) -> bool:
        """Record callable arguments flowing into *callee*'s parameters;
        True when a new binding appeared (callee needs re-resolution)."""
        entry = self.functions.get(callee)
        if entry is None:
            return False
        _, callee_fn = entry
        params = [p for p in callee_fn.params if p != "self"]
        changed = False
        pairs: List[Tuple[str, ValueDesc]] = []
        for position, desc in enumerate(call.args):
            if position < len(params):
                pairs.append((params[position], desc))
        for name, desc in call.kwargs.items():
            if name in params:
                pairs.append((name, desc))
        for param, desc in pairs:
            if desc.kind not in ("name", "attr", "lambda"):
                continue
            targets = self.callable_targets(caller, desc)
            if not targets:
                continue
            slot = self.bindings.setdefault(callee, {}).setdefault(param, set())
            before = len(slot)
            slot.update(targets)
            if len(slot) != before:
                changed = True
        return changed

    def reachable_from(self, roots: List[str]) -> Reachability:
        """BFS over the analyzed edges from *roots* (function ids)."""
        self.analyze()
        reached: Set[str] = set()
        parents: Dict[str, Tuple[str, int]] = {}
        queue = [fid for fid in roots if fid in self.functions]
        reached.update(queue)
        while queue:
            fid = queue.pop(0)
            for callee, line in self.edges.get(fid, []):
                if callee in reached or callee not in self.functions:
                    continue
                reached.add(callee)
                parents[callee] = (fid, line)
                queue.append(callee)
        return Reachability(reached=reached, parents=parents)

    def functions_named(self, name: str) -> List[str]:
        """All function ids whose bare name matches (methods included)."""
        return sorted(
            fid
            for fid, (_, fn) in self.functions.items()
            if fn.name == name
        )

    def describe(self, fid: str) -> str:
        """Human-readable ``module.qualname`` for messages."""
        if ":" not in fid:
            return fid
        mod, qual = fid.split(":", 1)
        return "%s.%s" % (mod, qual)


_EMPTY_FN = FunctionSummary(
    name="<empty>", qualname="<empty>", class_name="", lineno=1, nested=False
)
_EMPTY_MODULE = ModuleSummary(path="", name="")
