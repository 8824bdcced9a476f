"""Name resolution and evaluation of parsed specification modules.

Definitions are evaluated by name with memoization, so the resulting
environment does not depend on declaration order.  They come off an
explicit stack, not the Python call stack, so that holds at any depth of
reference: evaluating an expression is a generator that yields the
reference or sub-expression it needs next, and one loop (``_run``) holds
every pending evaluation.  Nodes are visited in the order a recursive
evaluation would visit them, which decides where an undeclared name is
first reported and through which name a cycle is reported.

A sum's elements are added straight into its running sum as
``(generator, coefficient)``: a plain sum stays a ``RunningSum`` until a
part with branches makes it a ``ConditionalSum``.  Name errors are
collected exhaustively rather than aborting at the first failure;
evaluation continues with the offending names treated as extern.
"""

from __future__ import annotations

from ..algebra import ALPHA_TF, GLOBAL, I64_MAX, Generator, Interface, RunningSum
from ..architecture import Architecture
from ..catalog import Catalog
from ..errors import ScopeError, SourcePosition, SpecError
from ..record import Record
from ..transform import (
    ConditionalInterface, ConditionalSum, ConditionLiteral, RefinementSpec, RenameMap,
    expand_motives, map_parts, refine, rename,
)
from .astnodes import (
    CheckDirective, CondExpr, EntityItem, GenExpr, InterfaceDef, NameItem, NegExpr, RefExpr,
    RefineDef, RenameDef, ScaleExpr, SpecModule, SumExpr, ZeroExpr,
)
from .parser import parse_expression


class Diagnostic(Record):
    __slots__ = ("severity", "message", "pos")

    def __init__(self, severity: str, message: str, pos: SourcePosition | None = None):
        self.severity = severity          # "error" or "warning"
        self.message = message
        self.pos = pos

    def render(self) -> str:
        if self.pos is None:
            return f"{self.severity}: {self.message}"
        return f"{self.pos}: {self.severity}: {self.message}"

    def sort_key(self):
        if self.pos is None:
            return ("", 0, 0, self.severity, self.message)
        return (self.pos.file or "", self.pos.line, self.pos.col, self.severity, self.message)


class Resolution(Record):
    __slots__ = ("module", "catalog", "interfaces", "architectures", "monoid_names",
                 "diagnostics", "looked_up")
    __hash__ = None

    def __init__(self, module: SpecModule, catalog: Catalog,
                 interfaces: dict[str, object] | None = None,
                 architectures: dict[str, Architecture] | None = None,
                 monoid_names: set[str] | None = None,
                 diagnostics: list[Diagnostic] | None = None,
                 looked_up: dict[str, set[str]] | None = None):
        self.module = module
        self.catalog = catalog
        # name -> Interface, or ConditionalInterface when a branch survives
        self.interfaces = {} if interfaces is None else interfaces
        self.architectures = {} if architectures is None else architectures
        self.monoid_names = set() if monoid_names is None else monoid_names
        self.diagnostics = [] if diagnostics is None else diagnostics
        # kind -> every name of that kind that evaluation looked up
        self.looked_up = {} if looked_up is None else looked_up

    @property
    def errors(self) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.severity == "error"]

    @property
    def warnings(self) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.severity == "warning"]

    @property
    def ok(self) -> bool:
        return not self.errors

    def directives(self) -> list[CheckDirective]:
        return self.module.directives()


class _Evaluator:
    def __init__(self, module: SpecModule, catalog: Catalog, allow_undeclared: bool):
        self.catalog = catalog
        self.tables = catalog.tables()
        self.looked_up: dict[str, set[str]] = {kind: set() for kind in self.tables}
        self.allow_undeclared = allow_undeclared
        self.diagnostics: list[Diagnostic] = []
        self.defs: dict[str, object] = {}
        for item in module.interface_defs() + module.derived_defs():
            if item.name in self.defs:
                self.error(f"duplicate interface definition: {item.name}", item.pos)
            else:
                self.defs[item.name] = item
        # a value is a ConditionalInterface only while one of its branches survives
        self.values: dict[str, Interface | ConditionalInterface] = {}
        self.in_progress: set[str] = set()
        self.reported_undeclared: set[tuple[str, str]] = set()

    def error(self, message: str, pos):
        self.diagnostics.append(Diagnostic("error", message, pos))

    def warning(self, message: str, pos):
        self.diagnostics.append(Diagnostic("warning", message, pos))

    # ------------------------------------------------------------ names

    def _check_name(self, kind: str, name: str, pos) -> None:
        self.looked_up[kind].add(name)
        if name in self.tables[kind]:
            return
        if self.allow_undeclared:
            # declared here, so a name is reported once
            self.warning(f"undeclared {kind} {name} treated as extern", pos)
            self.catalog.add_name(kind, name, extern=True)
        elif (kind, name) not in self.reported_undeclared:
            self.reported_undeclared.add((kind, name))
            self.error(f"undeclared {kind}: {name}", pos)

    def _generator(self, node: GenExpr) -> Generator:
        """The generator of an element, its names checked in order."""
        pos = node.pos
        self._check_name("entity", node.target, pos)
        if node.host is not None:
            self._check_name("entity", node.host, pos)
        self._check_name("action", node.action, pos)
        for atom in node.motive:
            self._check_name("motive", atom, pos)
        return Generator(node.target, node.action, node.motive, node.polarity, node.host,
                         node.alpha)

    def _element(self, node, sign: int) -> tuple[Generator, int] | None:
        """``sign`` times ``node`` as ``(generator, coefficient)`` when it is an
        element, negated or scaled or both (``g``, ``-g``, ``n x g``,
        ``-(n x g)``), else ``None``.  The element's names are checked, then
        ``n``'s 64-bit range, as evaluating its one-term interface would."""
        kind = type(node)
        leaf = node.inner if kind is NegExpr else node
        factor = 1
        if type(leaf) is ScaleExpr:
            factor = leaf.factor
            leaf = leaf.inner
        if type(leaf) is not GenExpr:
            return None
        gen = self._generator(leaf)
        if factor > I64_MAX:
            raise OverflowError(f"coefficient {factor} exceeds 64-bit signed range")
        return gen, -sign * factor if kind is NegExpr else sign * factor

    # ------------------------------------------------------- evaluation

    def resolve_name(self, name: str, pos) -> Interface | ConditionalInterface:
        """The value of interface ``name``, referenced at ``pos``."""
        value = self.values.get(name)
        return self._run((name, pos)) if value is None else value

    def eval(self, node) -> Interface | ConditionalInterface:
        return self._run(self._evaluation(node))

    def _run(self, request) -> Interface | ConditionalInterface:
        """The value of ``request``: a reference ``(name, pos)`` or an
        evaluation generator.  A generator yields what it needs next, one of
        the two, and is sent its value.  ``stack`` holds each generator not
        yet finished, with the name of the definition it evaluates (``None``
        for a sub-expression).  An error of the input unwinds to the innermost
        definition, which reports it and takes the value 0; with none left
        on the stack, it propagates."""
        values = self.values
        stack: list[tuple] = []
        while True:
            if type(request) is tuple:
                name, pos = request
                value = values.get(name)
                if value is None:
                    item = self.defs.get(name)
                    if item is None:
                        self.error(f"reference to undefined interface: {name}", pos)
                        value = Interface.zero()
                    elif name in self.in_progress:
                        self.error(f"cyclic interface reference through {name}", pos)
                        value = Interface.zero()
                    else:
                        self.in_progress.add(name)
                        stack.append((self._evaluation(item.expr) if type(item) is InterfaceDef
                                      else self._derived(item), name))
            else:
                stack.append((request, None))
                value = None
            while stack:
                gen, name = stack[-1]
                try:
                    request = gen.send(value)
                    break
                except StopIteration as done:
                    stack.pop()
                    value = done.value
                except (SpecError, OverflowError) as exc:
                    while stack[-1][1] is None:
                        stack.pop()
                        if not stack:
                            raise
                    name = stack.pop()[1]
                    self.error(f"in interface {name}: {exc}", self.defs[name].pos)
                    value = Interface.zero()
                if name is not None:
                    self._define(name, value)
            else:
                return value

    def _define(self, name: str, value: Interface | ConditionalInterface) -> None:
        """Records ``value`` as that of definition ``name``."""
        item = self.defs[name]
        scope = value.scope
        if type(item) is InterfaceDef and item.scope_annotation and scope \
                and item.scope_annotation != scope:
            self.error(f"interface {name} declared @{item.scope_annotation} "
                       f"but its elements are {scope}", item.pos)
        self.in_progress.discard(name)
        self.values[name] = value

    def _derived(self, item: RefineDef | RenameDef):
        """Evaluates a refinement or renaming (a generator, see ``_run``)."""
        source = yield item.source, item.pos
        if not isinstance(source, Interface):
            raise SpecError(f"{item.source} is conditional and cannot be transformed")
        if isinstance(item, RefineDef):
            return self._eval_refine(item, source)
        return self._eval_rename(item, source)

    def _eval_refine(self, item: RefineDef, source: Interface) -> Interface:
        self._check_name("entity", item.coarse, item.pos)
        for part in item.parts:
            if self.catalog.has_entity(part):
                self.warning(
                    f"refinement part {part} collides with an already declared entity",
                    item.pos)
            else:
                self.catalog.add_entity(part, extern=True)
        spec = RefinementSpec(item.coarse, item.parts)
        return refine(expand_motives(source), spec)

    def _eval_rename(self, item: RenameDef, source: Interface) -> Interface:
        for kind, pairs in (("entity", item.entity_map), ("action", item.action_map),
                            ("motive", item.motive_map)):
            for old, new in pairs:
                if old not in self.tables[kind]:
                    self.warning(f"rename of undeclared {kind} {old} has no effect", item.pos)
                self._check_name(kind, new, item.pos)
        mapping = RenameMap(dict(item.entity_map), dict(item.action_map),
                            dict(item.motive_map))
        return rename(source, mapping)

    def _evaluation(self, node):
        """The generator that evaluates ``node`` (see ``_run``)."""
        return self._sum(node) if type(node) is SumExpr else self._value(node)

    def _value(self, node):
        """Evaluates ``node``, which is not a sum (a generator, see ``_run``)."""
        kind = type(node)
        if kind is RefExpr:
            return (yield node.name, node.pos)
        if kind is ZeroExpr:
            return Interface.zero()
        if kind is CondExpr:
            self._check_name("condition", node.variable, node.pos)
            then = yield self._evaluation(node.then)
            otherwise = yield self._evaluation(node.otherwise)
            if not isinstance(then, Interface) or not isinstance(otherwise, Interface):
                self.error("conditional elements cannot nest", node.pos)
                return Interface.zero()
            branches = []
            if not then.is_zero:
                branches.append((ConditionLiteral(node.variable, node.negated), then))
            if not otherwise.is_zero:
                branches.append((ConditionLiteral(node.variable, not node.negated), otherwise))
            if not branches:
                return Interface.zero()
            return ConditionalInterface(branches=branches)
        element = self._element(node, 1)
        if element is not None:
            return Interface.term(*element)
        if kind is NegExpr:
            return _scaled((yield self._evaluation(node.inner)), -1)
        if kind is ScaleExpr:
            return _scaled((yield self._evaluation(node.inner)), node.factor)
        raise TypeError(f"unknown expression node: {kind.__name__}")

    def _sum(self, node: SumExpr):
        """Adds the parts of a sum in order.  An element, negated or scaled
        or both, goes straight into the running sum (see ``_element``)."""
        running = RunningSum()
        values = self.values
        for sign, part in node.parts:
            kind = type(part)
            if kind is RefExpr:
                value = values.get(part.name)
                if value is None:
                    value = yield part.name, part.pos
            elif kind is ZeroExpr:
                continue
            else:
                element = self._element(part, sign)
                if element is not None:
                    if element[1]:
                        running.add_term(*element)
                    continue
                value = yield self._evaluation(part)
            if sign < 0:
                value = _scaled(value, -1)
            if value.branches and type(running) is RunningSum:
                running = ConditionalSum((running.total(),))
            running.add(value)
        return running.total()


def _scaled(value: Interface | ConditionalInterface, n: int) -> Interface | ConditionalInterface:
    """``n`` times ``value``; branches that scaling by 0 cancels are dropped."""
    if isinstance(value, Interface):
        return n * value
    return map_parts(value, lambda i: n * i)


def _declare_entities(item: EntityItem, catalog: Catalog, diags: list):
    """Declares ``item`` and its descendants, parents first, in written order."""
    pending = [(item, None)]
    while pending:
        item, parent = pending.pop()
        try:
            catalog.add_entity(item.name, parent, item.extern)
        except SpecError as exc:
            diags.append(Diagnostic("error", str(exc), item.pos))
        pending.extend((child, item.name) for child in reversed(item.children))


def build_catalog(module: SpecModule) -> tuple[Catalog, list[Diagnostic]]:
    catalog = Catalog()
    diags: list[Diagnostic] = []
    for item in module.items:
        try:
            if isinstance(item, EntityItem):
                _declare_entities(item, catalog, diags)
            elif isinstance(item, NameItem):
                catalog.add_name(item.kind, item.name, item.extern)
        except SpecError as exc:
            diags.append(Diagnostic("error", str(exc), item.pos))
    return catalog, diags


def resolve(module: SpecModule, allow_undeclared: bool = False) -> Resolution:
    catalog, diags = build_catalog(module)
    evaluator = _Evaluator(module, catalog, allow_undeclared)
    for name in evaluator.defs:
        evaluator.resolve_name(name, evaluator.defs[name].pos)

    res = Resolution(module, catalog, looked_up=evaluator.looked_up)
    res.diagnostics.extend(diags)
    res.interfaces.update(evaluator.values)
    for item in module.interface_defs():
        if item.monoid:
            res.monoid_names.add(item.name)

    seen_archs: set[str] = set()
    for arch_def in module.architecture_defs():
        if arch_def.name in seen_archs:
            res.diagnostics.append(Diagnostic(
                "error", f"duplicate architecture definition: {arch_def.name}", arch_def.pos))
            continue
        seen_archs.add(arch_def.name)
        members = []
        broken = False
        for member in arch_def.members:
            evaluator._check_name("entity", member.entity, member.pos)
            try:
                value = evaluator.eval(member.expr)
            except (ScopeError, OverflowError) as exc:
                res.diagnostics.append(Diagnostic(
                    "error", f"in architecture {arch_def.name}: {exc}", member.pos))
                broken = True
                continue
            if value.scope == GLOBAL:
                res.diagnostics.append(Diagnostic(
                    "error",
                    f"architecture member {member.entity} must hold a local interface",
                    member.pos))
                broken = True
                continue
            members.append((member.entity, value, member.contained))
        if broken:
            continue
        try:  # merging an entity's repeated listings can overflow
            res.architectures[arch_def.name] = Architecture(arch_def.name, members)
        except (ScopeError, OverflowError) as exc:
            res.diagnostics.append(Diagnostic(
                "error", f"in architecture {arch_def.name}: {exc}", arch_def.pos))
    # architecture evaluation may have added more name diagnostics
    res.diagnostics.extend(evaluator.diagnostics)

    for directive in module.directives():
        if directive.target not in res.architectures:
            res.diagnostics.append(Diagnostic(
                "error", f"check {directive.kind} names unknown architecture {directive.target}",
                directive.pos))

    res.diagnostics.sort(key=Diagnostic.sort_key)
    return res


# ----------------------------------------------------------------- lint

def lint(res: Resolution) -> list[Diagnostic]:
    """Style and suspicion warnings on a resolved module (never errors).

    A declared name is unused when no expression, refinement or renaming
    names it.  Names in expressions are those evaluation looked up
    (``Resolution.looked_up``), so when resolution has errors, a name that
    appears only where evaluation stopped, such as a duplicate definition's
    body or the rest of an expression after an error, counts as unused.
    """
    diags: list[Diagnostic] = []

    used = {kind: set(res.looked_up.get(kind, ())) for kind in res.catalog.tables()}
    # refinement parts and the names a renaming replaces are never looked up
    for item in res.module.items:
        if isinstance(item, RefineDef):
            used["entity"].update(item.parts)
        elif isinstance(item, RenameDef):
            for kind, pairs in (("entity", item.entity_map), ("action", item.action_map),
                                ("motive", item.motive_map)):
                used[kind].update(old for old, _ in pairs)

    # ancestors of a used entity count as used (they exist to group it)
    for name in list(used["entity"]):
        if res.catalog.has_entity(name):
            used["entity"].update(res.catalog.entity_path(name))

    for item in res.module.interface_defs():
        value = res.interfaces.get(item.name)
        if value is None:
            continue
        parts = [value.unconditional, *(i for _, i in value.branches)]
        gens = [g for part in parts for g, _ in part]
        selfers = sorted({g.text() for g in gens if g.is_self_loop})
        for text in selfers:
            diags.append(Diagnostic(
                "warning", f"{item.name}: self-transfer {text} vanishes under reflection",
                item.pos))
        if item.name in res.monoid_names and not all(p.in_monoid() for p in parts):
            diags.append(Diagnostic(
                "warning",
                f"{item.name} is declared monoid but has a negative coefficient "
                f"or a non-TF reply constraint", item.pos))
        alphas = sorted({g.alpha for g in gens if g.alpha != ALPHA_TF})
        if alphas:
            diags.append(Diagnostic(
                "warning",
                f"{item.name} uses reply constraint(s) {', '.join('/' + a for a in alphas)}",
                item.pos))

    for arch in res.module.architecture_defs():
        value = res.architectures.get(arch.name)
        if value is None:
            continue
        for member in value.members:
            parts = [member.interface.unconditional] + \
                    [i for _, i in member.interface.branches]
            for part in parts:
                for gen, _ in part:
                    if gen.target == member.entity:
                        diags.append(Diagnostic(
                            "warning",
                            f"architecture {arch.name}: member {member.entity} transfers "
                            f"to itself via {gen.text()}", arch.pos))

    for kind, names in res.catalog.tables().items():
        for name in sorted(names):
            if name not in used[kind]:
                diags.append(Diagnostic("warning", f"unused {kind}: {name}", None))
    diags.sort(key=Diagnostic.sort_key)
    return diags


def evaluate_expression_text(text: str):
    """Parse and evaluate a standalone interface expression (no catalogs,
    no named references).  Returns an Interface, or a ConditionalInterface
    when a branch of a conditional element survives."""
    node = parse_expression(text)
    module = SpecModule()
    evaluator = _Evaluator(module, Catalog(), allow_undeclared=True)
    value = evaluator.eval(node)
    hard = [d for d in evaluator.diagnostics if d.severity == "error"]
    if hard:
        raise SpecError(hard[0].render())
    return value
