"""Name resolution and evaluation of parsed specification modules.

Definitions are evaluated by name with memoization, so the resulting
environment does not depend on declaration order.  Name errors are
collected exhaustively rather than aborting at the first failure;
evaluation continues with the offending names treated as extern.
"""

from __future__ import annotations

from ..algebra import ALPHA_TF, GLOBAL, Generator, Interface
from ..architecture import Architecture
from ..catalog import Catalog
from ..errors import ScopeError, SourcePosition, SpecError
from ..record import Record
from ..transform import (
    ConditionalInterface, ConditionalSum, ConditionLiteral, RefinementSpec, RenameMap,
    expand_motives, map_parts, refine, rename,
)
from .astnodes import (
    CheckDirective, CondExpr, EntityItem, GenExpr, NameItem, NegExpr, RefExpr,
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

    # ------------------------------------------------------- evaluation

    def resolve_name(self, name: str, pos) -> Interface | ConditionalInterface:
        if name in self.values:
            return self.values[name]
        if name not in self.defs:
            self.error(f"reference to undefined interface: {name}", pos)
            return Interface.zero()
        if name in self.in_progress:
            self.error(f"cyclic interface reference through {name}", pos)
            return Interface.zero()
        self.in_progress.add(name)
        item = self.defs[name]
        try:
            if isinstance(item, RefineDef):
                value = self._eval_refine(item)
            elif isinstance(item, RenameDef):
                value = self._eval_rename(item)
            else:
                value = self.eval(item.expr)
                scope = value.scope
                if item.scope_annotation and scope and item.scope_annotation != scope:
                    self.error(
                        f"interface {name} declared @{item.scope_annotation} "
                        f"but its elements are {scope}", item.pos)
        except (SpecError, OverflowError) as exc:
            self.error(f"in interface {name}: {exc}", item.pos)
            value = Interface.zero()
        finally:
            self.in_progress.discard(name)
        self.values[name] = value
        return value

    def _plain_source(self, item) -> Interface:
        source = self.resolve_name(item.source, item.pos)
        if not isinstance(source, Interface):
            raise SpecError(f"{item.source} is conditional and cannot be transformed")
        return source

    def _eval_refine(self, item: RefineDef) -> Interface:
        source = self._plain_source(item)
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

    def _eval_rename(self, item: RenameDef) -> Interface:
        source = self._plain_source(item)
        for kind, pairs in (("entity", item.entity_map), ("action", item.action_map),
                            ("motive", item.motive_map)):
            for old, new in pairs:
                if old not in self.tables[kind]:
                    self.warning(f"rename of undeclared {kind} {old} has no effect", item.pos)
                self._check_name(kind, new, item.pos)
        mapping = RenameMap(dict(item.entity_map), dict(item.action_map),
                            dict(item.motive_map))
        return rename(source, mapping)

    def _eval_signed(self, sign: int, node) -> Interface | ConditionalInterface:
        return _scaled(self.eval(node), -1) if sign < 0 else self.eval(node)

    def eval(self, node) -> Interface | ConditionalInterface:
        # the node types are disjoint; the most frequent are tested first
        if isinstance(node, GenExpr):
            self._check_name("entity", node.target, node.pos)
            if node.host is not None:
                self._check_name("entity", node.host, node.pos)
            self._check_name("action", node.action, node.pos)
            for atom in node.motive:
                self._check_name("motive", atom, node.pos)
            gen = Generator(node.target, node.action, node.motive, node.polarity,
                            node.host, node.alpha)
            return Interface.term(gen)
        if isinstance(node, SumExpr):
            return ConditionalSum(self._eval_signed(s, p) for s, p in node.parts).total()
        if isinstance(node, RefExpr):
            return self.resolve_name(node.name, node.pos)
        if isinstance(node, ZeroExpr):
            return Interface.zero()
        if isinstance(node, NegExpr):
            return _scaled(self.eval(node.inner), -1)
        if isinstance(node, ScaleExpr):
            return _scaled(self.eval(node.inner), node.factor)
        if isinstance(node, CondExpr):
            self._check_name("condition", node.variable, node.pos)
            then = self.eval(node.then)
            otherwise = self.eval(node.otherwise)
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
        raise TypeError(f"unknown expression node: {type(node).__name__}")


def _scaled(value: Interface | ConditionalInterface, n: int) -> Interface | ConditionalInterface:
    """``n`` times ``value``; branches that scaling by 0 cancels are dropped."""
    if isinstance(value, Interface):
        return n * value
    return map_parts(value, lambda i: n * i)


def _declare_entities(item: EntityItem, parent: str | None, catalog: Catalog, diags: list):
    try:
        catalog.add_entity(item.name, parent, item.extern)
    except SpecError as exc:
        diags.append(Diagnostic("error", str(exc), item.pos))
    for child in item.children:
        _declare_entities(child, item.name, catalog, diags)


def build_catalog(module: SpecModule) -> tuple[Catalog, list[Diagnostic]]:
    catalog = Catalog()
    diags: list[Diagnostic] = []
    for item in module.items:
        try:
            if isinstance(item, EntityItem):
                _declare_entities(item, None, catalog, diags)
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
