"""Per-module def/use summaries for whole-program lint.

One :class:`ModuleSummary` captures everything the interprocedural
rules need from one file -- call sites with rendered receiver chains,
impurity facts (clock/env/cwd/entropy reads, unordered-set iteration),
module-global writes, ``raise`` sites, ``multiprocessing`` spawn sites,
stat creation/increment/registration sites, class shapes and
instance-attribute types.  A summary holds only facts some rule or the
project index reads; a new fact is one more dataclass field.

Rendered chains use ``.`` for attributes, ``[]`` for any subscript and
``()`` for an embedded call, e.g. ``self.hierarchy.l1[].stats`` -- the
graph layer resolves them against instance-attribute types.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.lint.base import Module

#: Calls into these modules read the wall clock.
CLOCK_MODULES = ("time", "datetime")
#: Calls into these modules draw host entropy.
ENTROPY_MODULES = ("random", "uuid", "secrets")
#: Specific dotted calls mapped to a fact kind.
SPECIAL_CALLS = {
    "os.urandom": "random",
    "os.getrandom": "random",
    "os.getenv": "env",
    "os.getcwd": "cwd",
    "os.getcwdb": "cwd",
}
#: Any mention of these dotted chains (not only calls) is a fact.
SPECIAL_CHAINS = {"os.environ": "env"}

#: StatGroup factory method -> the kind of stat it creates.
STAT_FACTORIES = {
    "counter": "counter",
    "histogram": "histogram",
    "counter_handle": "counter",
    "histogram_handle": "histogram",
}

#: Method names that mutate their receiver in place.
MUTATOR_METHODS = frozenset(
    {
        "append",
        "extend",
        "add",
        "update",
        "setdefault",
        "pop",
        "popitem",
        "clear",
        "remove",
        "discard",
        "insert",
        "write",
    }
)


def render_chain(node: ast.AST) -> Optional[str]:
    """Render an attribute/subscript/call chain, ``None`` when the chain
    bottoms out in anything but a name (literals, operators, ...)."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = render_chain(node.value)
        return None if base is None else "%s.%s" % (base, node.attr)
    if isinstance(node, ast.Subscript):
        base = render_chain(node.value)
        return None if base is None else base + "[]"
    if isinstance(node, ast.Call):
        base = render_chain(node.func)
        return None if base is None else base + "()"
    return None


@dataclass
class ValueDesc:
    """One rendered argument value at a call site."""

    kind: str  # "name" | "attr" | "lambda" | "call" | "const" | "other"
    text: str


def describe_value(node: ast.AST) -> ValueDesc:
    if isinstance(node, ast.Lambda):
        return ValueDesc("lambda", "")
    if isinstance(node, ast.Name):
        return ValueDesc("name", node.id)
    if isinstance(node, (ast.Attribute, ast.Subscript)):
        chain = render_chain(node)
        return ValueDesc("attr", chain) if chain else ValueDesc("other", "")
    if isinstance(node, ast.Call):
        chain = render_chain(node.func)
        return ValueDesc("call", chain) if chain else ValueDesc("call", "")
    if isinstance(node, ast.Constant):
        return ValueDesc("const", "")
    return ValueDesc("other", "")


@dataclass
class ExprScan:
    """Pickle-hazard scan of one expression tree (spawn args, returns)."""

    lambda_lines: List[int] = field(default_factory=list)
    open_lines: List[int] = field(default_factory=list)
    names: List[str] = field(default_factory=list)
    calls: List[str] = field(default_factory=list)

    def merge(self, other: "ExprScan") -> None:
        self.lambda_lines.extend(other.lambda_lines)
        self.open_lines.extend(other.open_lines)
        self.names.extend(other.names)
        self.calls.extend(other.calls)


def scan_expression(node: ast.AST) -> ExprScan:
    scan = ExprScan()
    for child in ast.walk(node):
        if isinstance(child, ast.Lambda):
            scan.lambda_lines.append(child.lineno)
        elif isinstance(child, ast.Call):
            chain = render_chain(child.func)
            if chain == "open":
                scan.open_lines.append(child.lineno)
            if chain is not None:
                scan.calls.append(chain)
        elif isinstance(child, ast.Name) and isinstance(child.ctx, ast.Load):
            scan.names.append(child.id)
    return scan


@dataclass
class CallSite:
    callee: str
    line: int
    args: List[ValueDesc] = field(default_factory=list)
    kwargs: Dict[str, ValueDesc] = field(default_factory=dict)


@dataclass
class Fact:
    """One local impurity/global-write fact inside a function."""

    kind: str  # "clock" | "env" | "cwd" | "random" | "set-iteration" | "global-write"
    line: int
    detail: str


@dataclass
class RaiseSite:
    exc: str  # rendered exception constructor chain
    has_context: bool
    line: int


@dataclass
class SpawnSite:
    """A ``<ctx>.Process(target=..., args=...)`` construction."""

    line: int
    target: Optional[ValueDesc]
    args_scan: Optional[ExprScan]


@dataclass
class FunctionSummary:
    """Everything the dataflow engine needs from one function."""

    name: str
    qualname: str  # within the module: "Class.method", "func", "f.<locals>.g"
    class_name: str  # "" for free functions
    lineno: int
    nested: bool
    params: List[str] = field(default_factory=list)
    calls: List[CallSite] = field(default_factory=list)
    facts: List[Fact] = field(default_factory=list)
    raises: List[RaiseSite] = field(default_factory=list)
    spawns: List[SpawnSite] = field(default_factory=list)
    returns: ExprScan = field(default_factory=ExprScan)
    #: local name -> candidate class chains, from ``x = ClassName(...)``
    #: bindings (a list: factory helpers rebind across branches).
    local_classes: Dict[str, List[str]] = field(default_factory=dict)
    #: names of nested functions.
    local_functions: Set[str] = field(default_factory=set)
    #: local names bound by ``x = lambda ...``.
    local_lambdas: Set[str] = field(default_factory=set)
    #: loop variable -> rendered iterable chain (``for core in self.cores``).
    local_iters: Dict[str, str] = field(default_factory=dict)


@dataclass
class ClassSummary:
    bases: List[str] = field(default_factory=list)
    methods: List[str] = field(default_factory=list)
    #: attr -> (kind, text): ("instance", "ClassName") from
    #: ``self.x = ClassName(...)``, ("container", "ClassName") from
    #: list/tuple/dict displays, comprehensions, or ``.append`` of
    #: constructor calls, ("factory", "func_chain") from
    #: ``self.x = make_thing(...)``, ("param", "arg_name") from
    #: ``self.x = arg`` where *arg* is a method parameter (resolved at
    #: the graph layer through constructor call sites).
    attr_types: Dict[str, Tuple[str, str]] = field(default_factory=dict)
    #: attr -> (injected, lineno) for StatGroup-valued attributes;
    #: *injected* is True when the group may be supplied by the caller
    #: (constructor parameter or a parent group's ``.child()``).
    group_attrs: Dict[str, Tuple[bool, int]] = field(default_factory=dict)


@dataclass
class StatSite:
    """One ``group.counter("name")`` / ``group.histogram("name")`` site
    (the ``*_handle`` factories included)."""

    stat: str
    kind: str  # "counter" | "histogram"
    class_name: str
    line: int


@dataclass
class Registration:
    """One ``registry.register(...)`` / ``register_all(...)`` call."""

    arg: ValueDesc
    func: str  # qualname of the enclosing function (for loop-var context)


@dataclass
class ModuleSummary:
    path: str
    name: str  # dotted module name
    imports: Dict[str, str] = field(default_factory=dict)
    functions: Dict[str, FunctionSummary] = field(default_factory=dict)
    classes: Dict[str, ClassSummary] = field(default_factory=dict)
    #: module-level names bound to mutable containers.
    module_mutables: Set[str] = field(default_factory=set)
    #: module-level name -> element class chain for tuple/list displays
    #: of constructor calls (``WORKLOADS = (Workload(...), ...)``).
    module_containers: Dict[str, str] = field(default_factory=dict)
    stat_creations: List[StatSite] = field(default_factory=list)
    #: stat names incremented anywhere in this module.
    stat_increments: List[str] = field(default_factory=list)
    registrations: List[Registration] = field(default_factory=list)


# ----------------------------------------------------------------------
# Extraction
# ----------------------------------------------------------------------


def _import_map(tree: ast.AST, module_name: str) -> Dict[str, str]:
    """Local name -> fully qualified target for every import."""
    imports: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".")[0]
                target = alias.name if alias.asname else alias.name.split(".")[0]
                imports[local] = target
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                parts = module_name.split(".")
                anchor = parts[: len(parts) - node.level]
                base = ".".join(anchor + ([base] if base else []))
            for alias in node.names:
                local = alias.asname or alias.name
                imports[local] = "%s.%s" % (base, alias.name) if base else alias.name
    return imports


def _function_params(node: ast.AST) -> List[str]:
    if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        return []
    args = node.args
    names = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
    if args.vararg is not None:
        names.append(args.vararg.arg)
    if args.kwarg is not None:
        names.append(args.kwarg.arg)
    return names


def _is_set_expr(node: ast.AST, set_locals: Set[str]) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        chain = render_chain(node.func)
        if chain in ("set", "frozenset"):
            return True
    if isinstance(node, ast.Name) and node.id in set_locals:
        return True
    return False


def _iter_exprs(node: ast.AST) -> List[ast.AST]:
    if isinstance(node, ast.For):
        return [node.iter]
    if isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
        return [generator.iter for generator in node.generators]
    return []


def _direct_children(node: ast.AST) -> List[ast.AST]:
    """AST children, not descending into nested function/class scopes."""
    out: List[ast.AST] = []
    stack: List[ast.AST] = list(ast.iter_child_nodes(node))
    while stack:
        child = stack.pop()
        out.append(child)
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)):
            continue
        stack.extend(ast.iter_child_nodes(child))
    return out


class _Extractor:
    """Single-pass extraction of one module's summary."""

    def __init__(self, module: Module) -> None:
        self.module = module
        self.summary = ModuleSummary(path=module.path, name=module.name)
        self.summary.imports = _import_map(module.tree, module.name)
        self._module_level_names: Set[str] = set()
        #: module-level string constants (``KIND_X = "x"``), used to
        #: resolve constant-name stat arguments.
        self._string_constants: Dict[str, str] = {}
        self._stat_incremented: Set[str] = set()
        #: binding target chain ("self._hits" / "hits") -> stat names.
        self._stat_bindings: Dict[str, List[str]] = {}

    # -- helpers -------------------------------------------------------

    def _resolve_stat_name(self, node: ast.AST) -> Optional[str]:
        """The stat-name string of a counter()/histogram() argument:
        a literal, or a Name bound to a module-level string constant."""
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            return node.value
        if isinstance(node, ast.Name):
            return self._string_constants.get(node.id)
        return None

    def _stat_creation_call(self, node: ast.Call) -> Optional[Tuple[str, str]]:
        """``(stat_name, kind)`` when *node* is one of the group's stat
        factories (``counter``/``histogram`` or their ``*_handle``
        forms) with a resolvable name."""
        if not isinstance(node.func, ast.Attribute):
            return None
        kind = STAT_FACTORIES.get(node.func.attr)
        if kind is None:
            return None
        if not node.args:
            return None
        stat = self._resolve_stat_name(node.args[0])
        if stat is None:
            return None
        return stat, kind

    # -- module level --------------------------------------------------

    def run(self) -> ModuleSummary:
        tree = self.module.tree
        # Pass 1: module-level bindings (constants, mutables, containers).
        for node in ast.iter_child_nodes(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                self._module_level_names.add(node.name)
            elif isinstance(node, ast.Assign) and len(node.targets) == 1:
                target = node.targets[0]
                if not isinstance(target, ast.Name):
                    continue
                self._module_level_names.add(target.id)
                value = node.value
                if isinstance(value, ast.Constant) and isinstance(value.value, str):
                    self._string_constants[target.id] = value.value
                elif isinstance(
                    value, (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.SetComp, ast.ListComp)
                ):
                    self.summary.module_mutables.add(target.id)
                elif isinstance(value, ast.Call):
                    chain = render_chain(value.func)
                    if chain in ("dict", "list", "set", "defaultdict", "deque", "OrderedDict"):
                        self.summary.module_mutables.add(target.id)
                if isinstance(value, (ast.Tuple, ast.List)):
                    element_classes = {
                        render_chain(e.func)
                        for e in value.elts
                        if isinstance(e, ast.Call) and render_chain(e.func)
                    }
                    if len(element_classes) == 1:
                        element = element_classes.pop()
                        if element is not None:
                            self.summary.module_containers[target.id] = element

        # Pass 2: functions, classes, and module-level executable code.
        module_body = [
            node
            for node in ast.iter_child_nodes(tree)
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        ]
        self._extract_function_like(
            "<module>", "<module>", "", 1, False, [], module_body
        )
        for node in ast.iter_child_nodes(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._extract_function(node, prefix="", class_name="")
            elif isinstance(node, ast.ClassDef):
                self._extract_class(node)

        self.summary.stat_increments = sorted(self._stat_incremented)
        return self.summary

    # -- classes -------------------------------------------------------

    def _extract_class(self, node: ast.ClassDef) -> None:
        info = ClassSummary()
        info.bases = [
            chain
            for chain in (render_chain(base) for base in node.bases)
            if chain is not None
        ]
        for statement in node.body:
            if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef)):
                info.methods.append(statement.name)
        # Instance-attribute types from every method body.
        for statement in node.body:
            if not isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            params = set(_function_params(statement))
            for child in ast.walk(statement):
                if isinstance(child, ast.Assign) and len(child.targets) == 1:
                    target = child.targets[0]
                    if not (
                        isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"
                    ):
                        continue
                    attr = target.attr
                    value = child.value
                    self._record_attr_type(info, attr, value, params)
                    self._record_group_attr(info, attr, value, params, child.lineno)
                elif (
                    isinstance(child, ast.Call)
                    and isinstance(child.func, ast.Attribute)
                    and child.func.attr == "append"
                    and isinstance(child.func.value, ast.Attribute)
                    and isinstance(child.func.value.value, ast.Name)
                    and child.func.value.value.id == "self"
                    and len(child.args) == 1
                    and isinstance(child.args[0], ast.Call)
                ):
                    # self.xs.append(Ctor(...)) -> container-of-Ctor.
                    element = render_chain(child.args[0].func)
                    if element is not None:
                        info.attr_types.setdefault(
                            child.func.value.attr, ("container", element)
                        )
        self.summary.classes[node.name] = info
        for statement in node.body:
            if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._extract_function(statement, prefix="", class_name=node.name)

    @staticmethod
    def _set_attr_type(info: ClassSummary, attr: str, kind: str, text: str) -> None:
        # First evidence wins, except concrete type evidence (a
        # constructor/factory/container) beats a bare-parameter binding
        # -- the common ``x if x is not None else Ctor(...)`` default
        # pattern should resolve to the constructor branch.
        existing = info.attr_types.get(attr)
        if existing is None or (existing[0] == "param" and kind != "param"):
            info.attr_types[attr] = (kind, text)

    def _record_attr_type(
        self, info: ClassSummary, attr: str, value: ast.AST, params: Set[str]
    ) -> None:
        if isinstance(value, ast.IfExp):
            # self.x = Ctor(...) if cond else None -- take either branch.
            self._record_attr_type(info, attr, value.body, params)
            self._record_attr_type(info, attr, value.orelse, params)
            return
        if isinstance(value, ast.Name):
            if value.id in params and value.id != "self":
                self._set_attr_type(info, attr, "param", value.id)
            return
        if isinstance(value, ast.Call):
            chain = render_chain(value.func)
            if chain is None:
                return
            # Heuristic: capitalized final segment is a constructor.
            final = chain.rsplit(".", 1)[-1]
            kind = "instance" if final[:1].isupper() else "factory"
            self._set_attr_type(info, attr, kind, chain)
            return
        if isinstance(value, (ast.List, ast.Tuple, ast.Set)):
            elements = {
                render_chain(e.func)
                for e in value.elts
                if isinstance(e, ast.Call) and render_chain(e.func)
            }
            if len(elements) == 1:
                element = elements.pop()
                if element is not None:
                    self._set_attr_type(info, attr, "container", element)
            return
        if isinstance(value, ast.Dict):
            elements = {
                render_chain(v.func)
                for v in value.values
                if isinstance(v, ast.Call) and render_chain(v.func)
            }
            if len(elements) == 1 and len(value.values) > 0:
                element = elements.pop()
                if element is not None:
                    self._set_attr_type(info, attr, "container", element)
            return
        comp_elt: Optional[ast.AST] = None
        if isinstance(value, (ast.ListComp, ast.SetComp, ast.GeneratorExp)):
            comp_elt = value.elt
        elif isinstance(value, ast.DictComp):
            comp_elt = value.value
        if isinstance(comp_elt, ast.Call):
            chain = render_chain(comp_elt.func)
            if chain is not None:
                self._set_attr_type(info, attr, "container", chain)

    def _record_group_attr(
        self,
        info: ClassSummary,
        attr: str,
        value: ast.AST,
        params: Set[str],
        lineno: int,
    ) -> None:
        """Track StatGroup-valued attributes and whether the group may be
        injected by the caller (``stats if stats is not None else ...``)."""
        creates = any(
            isinstance(child, ast.Call) and render_chain(child.func) in ("StatGroup",)
            for child in ast.walk(value)
        )
        child_of = any(
            isinstance(child, ast.Call)
            and isinstance(child.func, ast.Attribute)
            and child.func.attr == "child"
            for child in ast.walk(value)
        )
        if not creates and not child_of:
            return

        def param_outside_ctor(node: ast.AST) -> bool:
            # A parameter *inside* StatGroup(...) arguments is just the
            # group's label; only a param at a value position means the
            # group object itself can be caller-supplied.
            if isinstance(node, ast.Call) and render_chain(node.func) == "StatGroup":
                return False
            if (
                isinstance(node, ast.Name)
                and node.id in params
                and node.id != "self"
            ):
                return True
            return any(param_outside_ctor(c) for c in ast.iter_child_nodes(node))

        injected = child_of or param_outside_ctor(value)
        previous, first_line = info.group_attrs.get(attr, (False, lineno))
        info.group_attrs[attr] = (previous or injected, first_line)

    # -- functions -----------------------------------------------------

    def _extract_function(
        self,
        node: ast.FunctionDef | ast.AsyncFunctionDef,
        prefix: str,
        class_name: str,
    ) -> None:
        if prefix:
            qualname = "%s.<locals>.%s" % (prefix, node.name)
            nested = True
        elif class_name:
            qualname = "%s.%s" % (class_name, node.name)
            nested = False
        else:
            qualname = node.name
            nested = False
        self._extract_function_like(
            node.name,
            qualname,
            class_name,
            node.lineno,
            nested,
            _function_params(node),
            list(ast.iter_child_nodes(node)),
        )
        # Recurse into nested functions.
        for child in _direct_children(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._extract_function(child, prefix=qualname, class_name=class_name)

    def _extract_function_like(
        self,
        name: str,
        qualname: str,
        class_name: str,
        lineno: int,
        nested: bool,
        params: List[str],
        body: List[ast.AST],
    ) -> None:
        info = FunctionSummary(
            name=name,
            qualname=qualname,
            class_name=class_name,
            lineno=lineno,
            nested=nested,
            params=params,
        )
        nodes: List[ast.AST] = []
        for statement in body:
            nodes.append(statement)
            nodes.extend(_direct_children(statement))

        declared_global: Set[str] = set()
        set_locals: Set[str] = set()
        rebound: Set[str] = set()
        for child in nodes:
            if isinstance(child, ast.Assign) and len(child.targets) == 1:
                target = child.targets[0]
                if isinstance(target, ast.Name):
                    if _is_set_expr(child.value, set()):
                        set_locals.add(target.id)
                    else:
                        rebound.add(target.id)
        set_locals -= rebound

        for child in nodes:
            self._extract_statement(info, child, declared_global, set_locals)

        self.summary.functions[qualname] = info

    def _extract_statement(
        self,
        info: FunctionSummary,
        child: ast.AST,
        declared_global: Set[str],
        set_locals: Set[str],
    ) -> None:
        summary = self.summary
        if isinstance(child, ast.Global):
            declared_global.update(child.names)
        elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            info.local_functions.add(child.name)
        elif isinstance(child, ast.Return) and child.value is not None:
            info.returns.merge(scan_expression(child.value))
        elif isinstance(child, ast.Raise):
            self._extract_raise(info, child)
        elif isinstance(child, ast.Assign) and len(child.targets) == 1:
            self._extract_assign(info, child, declared_global)
        elif isinstance(child, ast.AugAssign):
            self._extract_augassign(info, child, declared_global)
        elif isinstance(child, ast.Call):
            self._extract_call(info, child)
        elif isinstance(child, ast.Attribute):
            chain = render_chain(child)
            if chain is not None:
                base = chain.split(".", 1)[0]
                resolved = summary.imports.get(base)
                if resolved is not None:
                    qualified = chain.replace(base, resolved, 1)
                    kind = SPECIAL_CHAINS.get(qualified)
                    if kind is not None:
                        info.facts.append(Fact(kind, child.lineno, qualified))
        if isinstance(child, ast.For) and isinstance(child.target, ast.Name):
            iter_chain = render_chain(child.iter)
            if iter_chain is not None:
                info.local_iters.setdefault(child.target.id, iter_chain)
        elif isinstance(
            child, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
        ):
            for generator in child.generators:
                if isinstance(generator.target, ast.Name):
                    iter_chain = render_chain(generator.iter)
                    if iter_chain is not None:
                        info.local_iters.setdefault(generator.target.id, iter_chain)
        for iter_expr in _iter_exprs(child):
            if _is_set_expr(iter_expr, set_locals):
                info.facts.append(
                    Fact(
                        "set-iteration",
                        getattr(iter_expr, "lineno", getattr(child, "lineno", 1)),
                        "iteration over an unordered set",
                    )
                )

    def _extract_raise(self, info: FunctionSummary, node: ast.Raise) -> None:
        if not isinstance(node.exc, ast.Call):
            return
        chain = render_chain(node.exc.func)
        if chain is None:
            return
        has_context = any(keyword.arg == "context" for keyword in node.exc.keywords)
        info.raises.append(RaiseSite(exc=chain, has_context=has_context, line=node.lineno))

    def _extract_assign(
        self, info: FunctionSummary, node: ast.Assign, declared_global: Set[str]
    ) -> None:
        target = node.targets[0]
        value = node.value
        # global-write facts.
        if isinstance(target, ast.Name) and target.id in declared_global:
            info.facts.append(
                Fact("global-write", node.lineno, "assignment to global %r" % target.id)
            )
        self._flag_module_state_write(info, target, node.lineno)
        # local bindings for resolution.
        if isinstance(target, ast.Name):
            if isinstance(value, ast.Lambda):
                info.local_lambdas.add(target.id)
            else:
                candidates = [value]
                if isinstance(value, ast.IfExp):
                    candidates = [value.body, value.orelse]
                for candidate in candidates:
                    if not isinstance(candidate, ast.Call):
                        continue
                    chain = render_chain(candidate.func)
                    if chain is not None and chain.rsplit(".", 1)[-1][:1].isupper():
                        bucket = info.local_classes.setdefault(target.id, [])
                        if chain not in bucket:
                            bucket.append(chain)
        # stat bindings: <target> = group.counter("name").
        if isinstance(value, ast.Call):
            creation = self._stat_creation_call(value)
            if creation is not None:
                stat, kind = creation
                self.summary.stat_creations.append(
                    StatSite(stat, kind, info.class_name, node.lineno)
                )
                target_chain = render_chain(target)
                if target_chain is not None:
                    self._stat_bindings.setdefault(target_chain, []).append(stat)
        elif isinstance(value, ast.Dict):
            target_chain = render_chain(target)
            for dict_value in value.values:
                if isinstance(dict_value, ast.Call):
                    creation = self._stat_creation_call(dict_value)
                    if creation is not None:
                        stat, kind = creation
                        self.summary.stat_creations.append(
                            StatSite(stat, kind, info.class_name, node.lineno)
                        )
                        if target_chain is not None:
                            self._stat_bindings.setdefault(
                                target_chain + "[]", []
                            ).append(stat)
        # writes to a bound counter's .value: self._hits.value = n.
        if isinstance(target, ast.Attribute) and target.attr == "value":
            bound_chain = render_chain(target.value)
            if bound_chain is not None:
                self._mark_binding_incremented(bound_chain)

    def _extract_augassign(
        self, info: FunctionSummary, node: ast.AugAssign, declared_global: Set[str]
    ) -> None:
        target = node.target
        if isinstance(target, ast.Name) and target.id in declared_global:
            info.facts.append(
                Fact(
                    "global-write",
                    node.lineno,
                    "augmented assignment to global %r" % target.id,
                )
            )
        self._flag_module_state_write(info, target, node.lineno)
        if isinstance(target, ast.Attribute) and target.attr == "value":
            bound_chain = render_chain(target.value)
            if bound_chain is not None:
                self._mark_binding_incremented(bound_chain)

    def _flag_module_state_write(
        self, info: FunctionSummary, target: ast.AST, lineno: int
    ) -> None:
        """Subscript/attribute writes through a module-level binding."""
        if not isinstance(target, (ast.Subscript, ast.Attribute)):
            return
        base: ast.AST = target
        while isinstance(base, (ast.Subscript, ast.Attribute)):
            base = base.value
        if not isinstance(base, ast.Name):
            return
        if base.id in self.summary.module_mutables or (
            base.id in self._module_level_names
            and base.id in self.summary.classes
        ):
            info.facts.append(
                Fact(
                    "global-write",
                    lineno,
                    "write through module-level state %r" % base.id,
                )
            )

    def _mark_binding_incremented(self, chain: str) -> None:
        self._stat_incremented.update(self._stat_bindings.get(chain, ()))

    def _extract_call(self, info: FunctionSummary, node: ast.Call) -> None:
        summary = self.summary
        chain = render_chain(node.func)
        if chain is None:
            return
        line = node.lineno
        args = [describe_value(a) for a in node.args]
        kwargs = {
            keyword.arg: describe_value(keyword.value)
            for keyword in node.keywords
            if keyword.arg is not None
        }
        info.calls.append(CallSite(callee=chain, line=line, args=args, kwargs=kwargs))

        # Impurity facts from the import map.
        base = chain.split(".", 1)[0]
        resolved_base = summary.imports.get(base)
        if resolved_base is not None:
            qualified = chain.replace(base, resolved_base, 1)
            root = qualified.split(".", 1)[0]
            if root in CLOCK_MODULES:
                info.facts.append(Fact("clock", line, "call to %s()" % qualified))
            elif root in ENTROPY_MODULES:
                info.facts.append(Fact("random", line, "call to %s()" % qualified))
            else:
                kind = SPECIAL_CALLS.get(qualified)
                if kind is not None:
                    info.facts.append(Fact(kind, line, "call to %s()" % qualified))

        # Worker spawn sites: <ctx>.Process(target=..., args=...).
        if chain.rsplit(".", 1)[-1] == "Process":
            target_desc = kwargs.get("target")
            args_scan: Optional[ExprScan] = None
            for keyword in node.keywords:
                if keyword.arg == "args":
                    args_scan = scan_expression(keyword.value)
            info.spawns.append(SpawnSite(line=line, target=target_desc, args_scan=args_scan))

        # Mutating method calls on module-level state.
        if isinstance(node.func, ast.Attribute) and node.func.attr in MUTATOR_METHODS:
            receiver: ast.AST = node.func.value
            while isinstance(receiver, (ast.Subscript, ast.Attribute)):
                receiver = receiver.value
            if (
                isinstance(receiver, ast.Name)
                and receiver.id in summary.module_mutables
            ):
                info.facts.append(
                    Fact(
                        "global-write",
                        line,
                        "%s() on module-level state %r"
                        % (node.func.attr, receiver.id),
                    )
                )

        # Stat creation / immediate increments.
        creation = self._stat_creation_call(node)
        if creation is not None:
            stat, kind = creation
            summary.stat_creations.append(
                StatSite(stat, kind, info.class_name, line)
            )
        if (
            isinstance(node.func, ast.Attribute)
            and node.func.attr in ("add", "record")
        ):
            inner = node.func.value
            if isinstance(inner, ast.Call):
                inner_creation = self._stat_creation_call(inner)
                if inner_creation is not None:
                    self._stat_incremented.add(inner_creation[0])
            else:
                bound_chain = render_chain(inner)
                if bound_chain is not None:
                    self._mark_binding_incremented(bound_chain)

        # Metrics registrations.
        final = chain.rsplit(".", 1)[-1]
        if final in ("register", "register_all") and node.args:
            summary.registrations.append(
                Registration(arg=describe_value(node.args[0]), func=info.qualname)
            )


def extract_summary(module: Module) -> ModuleSummary:
    """Extract the whole-program summary for one parsed module."""
    return _Extractor(module).run()
