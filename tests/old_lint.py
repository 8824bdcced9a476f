"""Verbatim copy of ``_walk_exprs`` and ``lint`` from
``ftig.speclang.resolver`` as they stood when lint walked every expression
tree again to find the names in use, kept as the oracle for
``test_speclang.TestLintOracle``.

Only the imports are changed.
"""

from __future__ import annotations

from ftig.algebra import ALPHA_TF, Interface
from ftig.speclang.astnodes import (
    ArchitectureDef, CondExpr, GenExpr, InterfaceDef, RefineDef, RenameDef, SumExpr,
)
from ftig.speclang.resolver import Diagnostic, Resolution


def _walk_exprs(node, into):
    into.append(node)
    for attr in ("inner", "then", "otherwise"):
        child = getattr(node, attr, None)
        if child is not None:
            _walk_exprs(child, into)
    if isinstance(node, SumExpr):
        for _, part in node.parts:
            _walk_exprs(part, into)


def lint(res: Resolution) -> list[Diagnostic]:
    """Style and suspicion warnings on a resolved module (never errors)."""
    diags: list[Diagnostic] = []

    used_entities: set[str] = set()
    used_actions: set[str] = set()
    used_motives: set[str] = set()
    used_conditions: set[str] = set()
    exprs = []
    for item in res.module.items:
        if isinstance(item, InterfaceDef):
            _walk_exprs(item.expr, exprs)
        elif isinstance(item, ArchitectureDef):
            for member in item.members:
                used_entities.add(member.entity)
                _walk_exprs(member.expr, exprs)
        elif isinstance(item, RefineDef):
            used_entities.add(item.coarse)
            used_entities.update(item.parts)
        elif isinstance(item, RenameDef):
            for old, new in item.entity_map:
                used_entities.update((old, new))
            for old, new in item.action_map:
                used_actions.update((old, new))
            for old, new in item.motive_map:
                used_motives.update((old, new))
    for node in exprs:
        if isinstance(node, GenExpr):
            used_entities.add(node.target)
            if node.host is not None:
                used_entities.add(node.host)
            used_actions.add(node.action)
            used_motives.update(node.motive)
        elif isinstance(node, CondExpr):
            used_conditions.add(node.variable)

    # ancestors of a used entity count as used (they exist to group it)
    for name in list(used_entities):
        if res.catalog.has_entity(name):
            used_entities.update(res.catalog.entity_path(name))

    for item in res.module.interface_defs():
        value = res.interfaces.get(item.name)
        if value is None:
            continue
        parts = ([value] if isinstance(value, Interface)
                 else [value.unconditional] + [i for _, i in value.branches])
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

    def unused(kind, names, used):
        for name in sorted(names):
            if name not in used:
                diags.append(Diagnostic("warning", f"unused {kind}: {name}", None))

    unused("entity", res.catalog.entities, used_entities)
    unused("action", res.catalog.actions, used_actions)
    unused("motive", res.catalog.motives, used_motives)
    unused("condition", res.catalog.condition_vars, used_conditions)
    diags.sort(key=Diagnostic.sort_key)
    return diags
