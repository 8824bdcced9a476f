"""Syntax tree for the interface-specification language."""

from __future__ import annotations

from ..errors import SourcePosition
from ..record import Record


class ExprNode(Record):
    __slots__ = ("pos",)

    def __init__(self, pos: SourcePosition):
        self.pos = pos


class ZeroExpr(ExprNode):
    __slots__ = ()


class RefExpr(ExprNode):
    __slots__ = ("name",)

    def __init__(self, pos: SourcePosition, name: str):
        self.pos = pos
        self.name = name


class GenExpr(ExprNode):
    __slots__ = ("polarity", "target", "action", "motive", "host", "alpha")

    def __init__(self, pos: SourcePosition, polarity: str, target: str, action: str,
                 motive: tuple[str, ...], host: str | None, alpha: str):
        self.pos = pos
        self.polarity = polarity
        self.target = target
        self.action = action
        self.motive = motive      # atom names in written order; () is the zero motive
        self.host = host
        self.alpha = alpha


class NegExpr(ExprNode):
    __slots__ = ("inner",)

    def __init__(self, pos: SourcePosition, inner: ExprNode):
        self.pos = pos
        self.inner = inner


class ScaleExpr(ExprNode):
    __slots__ = ("factor", "inner")

    def __init__(self, pos: SourcePosition, factor: int, inner: ExprNode):
        self.pos = pos
        self.factor = factor
        self.inner = inner


class SumExpr(ExprNode):
    __slots__ = ("parts",)

    def __init__(self, pos: SourcePosition, parts: tuple[tuple[int, ExprNode], ...]):
        self.pos = pos
        # (sign, operand) pairs; the first sign is +1 unless the source had a leading minus
        self.parts = parts


class CondExpr(ExprNode):
    __slots__ = ("then", "variable", "negated", "otherwise")

    def __init__(self, pos: SourcePosition, then: ExprNode, variable: str, negated: bool,
                 otherwise: ExprNode):
        self.pos = pos
        self.then = then
        self.variable = variable
        self.negated = negated
        self.otherwise = otherwise


class Item(Record):
    __slots__ = ("pos",)

    def __init__(self, pos: SourcePosition):
        self.pos = pos


class EntityItem(Item):
    __slots__ = ("name", "children", "extern")

    def __init__(self, pos: SourcePosition, name: str, children: tuple[EntityItem, ...] = (),
                 extern: bool = False):
        self.pos = pos
        self.name = name
        self.children = children
        self.extern = extern


class NameItem(Item):
    __slots__ = ("kind", "name", "extern")

    def __init__(self, pos: SourcePosition, kind: str, name: str, extern: bool = False):
        self.pos = pos
        self.kind = kind          # "action", "motive" or "condition"; conditions are never extern
        self.name = name
        self.extern = extern


class InterfaceDef(Item):
    __slots__ = ("name", "scope_annotation", "monoid", "expr")

    def __init__(self, pos: SourcePosition, name: str, scope_annotation: str | None,
                 monoid: bool, expr: ExprNode):
        self.pos = pos
        self.name = name
        self.scope_annotation = scope_annotation   # "local", "global", or None to infer
        self.monoid = monoid
        self.expr = expr


class ArchMemberDef(Record):
    __slots__ = ("pos", "entity", "contained", "expr")

    def __init__(self, pos: SourcePosition, entity: str, contained: bool, expr: ExprNode):
        self.pos = pos
        self.entity = entity
        self.contained = contained
        self.expr = expr


class ArchitectureDef(Item):
    __slots__ = ("name", "members")

    def __init__(self, pos: SourcePosition, name: str, members: tuple[ArchMemberDef, ...]):
        self.pos = pos
        self.name = name
        self.members = members


class CheckDirective(Item):
    __slots__ = ("kind", "target")

    def __init__(self, pos: SourcePosition, kind: str, target: str):
        self.pos = pos
        self.kind = kind                  # currently only "closed"
        self.target = target


class RefineDef(Item):
    """``refine NEW = OLD expand COARSE into P1, P2``: a derived interface."""

    __slots__ = ("name", "source", "coarse", "parts")

    def __init__(self, pos: SourcePosition, name: str, source: str, coarse: str,
                 parts: tuple[str, ...]):
        self.pos = pos
        self.name = name
        self.source = source
        self.coarse = coarse
        self.parts = parts


class RenameDef(Item):
    """``rename NEW = OLD { entity A -> B, ... }``: a derived interface."""

    __slots__ = ("name", "source", "entity_map", "action_map", "motive_map")

    def __init__(self, pos: SourcePosition, name: str, source: str,
                 entity_map: tuple[tuple[str, str], ...],
                 action_map: tuple[tuple[str, str], ...],
                 motive_map: tuple[tuple[str, str], ...]):
        self.pos = pos
        self.name = name
        self.source = source
        self.entity_map = entity_map
        self.action_map = action_map
        self.motive_map = motive_map


class SpecModule(Record):
    """Parsed declarations of one or more concatenated source files."""

    __slots__ = ("items",)
    __hash__ = None

    def __init__(self, items: list[Item] | None = None):
        self.items = [] if items is None else items

    def interface_defs(self) -> list[InterfaceDef]:
        return [i for i in self.items if isinstance(i, InterfaceDef)]

    def derived_defs(self) -> list[Item]:
        return [i for i in self.items if isinstance(i, (RefineDef, RenameDef))]

    def architecture_defs(self) -> list[ArchitectureDef]:
        return [i for i in self.items if isinstance(i, ArchitectureDef)]

    def directives(self) -> list[CheckDirective]:
        return [i for i in self.items if isinstance(i, CheckDirective)]

    def extend(self, other: SpecModule):
        self.items.extend(other.items)
