"""Verbatim copies of the evaluator that routed every value through the
conditional machinery, kept as the oracle for
``test_speclang.TestResolverOracle``.

``OldEvaluator`` overrides the evaluation methods of today's ``_Evaluator``
(``resolve_name``, ``_plain_source``, ``_eval_refine``, ``_eval_rename``,
``_eval_signed`` and ``eval``) with the copies, and keeps its constructor,
diagnostics and name checks.  ``resolve`` and ``evaluate_expression_text``
are the copies that turned plain results back into ``Interface`` at the end.
Only the imports and the evaluator's class name are changed, and each
``value.is_plain`` of the deleted ``ConditionalInterface`` property reads
``is_plain(value)``, a one-line helper below.  The ``ParenExpr`` branch of
``eval`` is gone with the node: today's parser never builds one.  ``resolve``
reports an overflow in merging an architecture's repeated listings as a
diagnostic, and hands the evaluator's record of looked-up names to its
``Resolution`` for ``lint``, as today's ``resolve`` does; the oracle is
about evaluation.
"""

from __future__ import annotations

from ftig.algebra import Generator, Interface
from ftig.architecture import Architecture
from ftig.catalog import Catalog
from ftig.errors import ScopeError
from ftig.speclang.astnodes import (
    CondExpr, GenExpr, NegExpr, RefExpr, RefineDef, RenameDef,
    ScaleExpr, SpecModule, SumExpr, ZeroExpr,
)
from ftig.speclang.parser import parse_expression
from ftig.speclang.resolver import Diagnostic, Resolution, _Evaluator, build_catalog
from ftig.transform import (
    ConditionalInterface, ConditionLiteral, RefinementSpec, RenameMap,
    conditional_sum, expand_motives, refine, rename,
)


def is_plain(value: ConditionalInterface) -> bool:
    return not value.branches


class OldEvaluator(_Evaluator):
    def resolve_name(self, name: str, pos) -> ConditionalInterface:
        if name in self.values:
            return self.values[name]
        if name not in self.defs:
            self.error(f"reference to undefined interface: {name}", pos)
            return ConditionalInterface()
        if name in self.in_progress:
            self.error(f"cyclic interface reference through {name}", pos)
            return ConditionalInterface()
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
        except (ScopeError, OverflowError, ValueError) as exc:
            self.error(f"in interface {name}: {exc}", item.pos)
            value = ConditionalInterface()
        finally:
            self.in_progress.discard(name)
        self.values[name] = value
        return value

    def _plain_source(self, item) -> Interface:
        source = self.resolve_name(item.source, item.pos)
        if not is_plain(source):
            raise ValueError(f"{item.source} is conditional and cannot be transformed")
        return source.unconditional

    def _eval_refine(self, item: RefineDef) -> ConditionalInterface:
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
        return ConditionalInterface(refine(expand_motives(source), spec))

    def _eval_rename(self, item: RenameDef) -> ConditionalInterface:
        source = self._plain_source(item)
        catalogs = {"entity": self.catalog.entities, "action": self.catalog.actions,
                    "motive": self.catalog.motives}
        for kind, pairs in (("entity", item.entity_map), ("action", item.action_map),
                            ("motive", item.motive_map)):
            for old, new in pairs:
                if old not in catalogs[kind]:
                    self.warning(f"rename of undeclared {kind} {old} has no effect", item.pos)
                self._check_name(kind, new, item.pos)
        mapping = RenameMap(dict(item.entity_map), dict(item.action_map),
                            dict(item.motive_map))
        return ConditionalInterface(rename(source, mapping))

    def _eval_signed(self, sign: int, node) -> ConditionalInterface:
        value = self.eval(node)
        return value.map_interfaces(lambda i: -i) if sign < 0 else value

    def eval(self, node) -> ConditionalInterface:
        if isinstance(node, ZeroExpr):
            return ConditionalInterface()
        if isinstance(node, RefExpr):
            return self.resolve_name(node.name, node.pos)
        if isinstance(node, GenExpr):
            self._check_name("entity", node.target, node.pos)
            if node.host is not None:
                self._check_name("entity", node.host, node.pos)
            self._check_name("action", node.action, node.pos)
            for atom in node.motive:
                self._check_name("motive", atom, node.pos)
            gen = Generator(node.target, node.action, node.motive, node.polarity,
                            node.host, node.alpha)
            return ConditionalInterface(Interface.term(gen))
        if isinstance(node, NegExpr):
            return self.eval(node.inner).map_interfaces(lambda i: -i)
        if isinstance(node, ScaleExpr):
            return self.eval(node.inner).map_interfaces(lambda i: node.factor * i)
        if isinstance(node, SumExpr):
            # a generator, so each part is evaluated just before it is added
            return conditional_sum(self._eval_signed(sign, part) for sign, part in node.parts)
        if isinstance(node, CondExpr):
            self._check_name("condition", node.variable, node.pos)
            then = self.eval(node.then)
            otherwise = self.eval(node.otherwise)
            if not is_plain(then) or not is_plain(otherwise):
                self.error("conditional elements cannot nest", node.pos)
                return ConditionalInterface()
            branches = []
            if not then.unconditional.is_zero:
                branches.append((ConditionLiteral(node.variable, node.negated),
                                 then.unconditional))
            if not otherwise.unconditional.is_zero:
                branches.append((ConditionLiteral(node.variable, not node.negated),
                                 otherwise.unconditional))
            return ConditionalInterface(branches=branches)
        raise TypeError(f"unknown expression node: {type(node).__name__}")


def resolve(module: SpecModule, allow_undeclared: bool = False) -> Resolution:
    catalog, diags = build_catalog(module)
    evaluator = OldEvaluator(module, catalog, allow_undeclared)
    for name in evaluator.defs:
        evaluator.resolve_name(name, evaluator.defs[name].pos)

    res = Resolution(module, catalog, looked_up=evaluator.looked_up)
    res.diagnostics.extend(diags)
    for name, value in evaluator.values.items():
        res.interfaces[name] = value.unconditional if is_plain(value) else value
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
            if value.scope == "global":
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


def evaluate_expression_text(text: str):
    """Parse and evaluate a standalone interface expression (no catalogs,
    no named references).  Returns an Interface, or a ConditionalInterface
    when conditional elements are present."""
    node = parse_expression(text)
    module = SpecModule()
    evaluator = OldEvaluator(module, Catalog(), allow_undeclared=True)
    value = evaluator.eval(node)
    hard = [d for d in evaluator.diagnostics if d.severity == "error"]
    if hard:
        raise ValueError(hard[0].render())
    return value.unconditional if is_plain(value) else value
