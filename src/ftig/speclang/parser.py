"""Recursive-descent parser for the interface-specification language.

Binding strength follows the notation: ``.`` forms the element, ``~``
flips it to the incoming side, ``@`` attaches the host, ``/`` the reply
constraint; unary ``-`` inverts one element or group, and ``+``/``-``
combine loosest.  ``n x`` before an element or parenthesized group sets a
multiplicity.  A comment is dropped.  It may stand between declarations
and after any part of a sum, even when a ``+``/``-`` sign intervenes (as
in hand-written listings), but not directly after a bare, negated or
scaled ``0``; after ``(0)`` or a conditional's ``|> 0`` it may.

Nothing that nests recurses: an expression's open groups and an entity's
open children are kept on explicit stacks.  Within one expression, the
parentheses, prefix ``-`` signs, ``n x`` multiplicities and conditionals
open around a point may number at most ``MAX_NESTING``; one more is a
``SpecError``.
"""

from __future__ import annotations

from ..algebra import ALPHAS
from ..errors import ParseError, SpecError
from .astnodes import (
    ArchMemberDef, ArchitectureDef, CheckDirective, CondExpr, EntityItem, ExprNode,
    GenExpr, InterfaceDef, NameItem, NegExpr, RefExpr, RefineDef, RenameDef,
    ScaleExpr, SpecModule, SumExpr, ZeroExpr,
)
from .lexer import Tokens, tokenize

# what a bare declaration's keyword expects next
_NAME_WHAT = {"action": "action name", "motive": "motive name",
              "condition": "condition variable name"}

# the most constructs open around one point of an expression: above the
# deepest input a parser recursing on the Python stack took (980 prefix minus
# signs), so no expression that parsed before is too deep now
MAX_NESTING = 1000


def _deeper(depth: int) -> int:
    """``depth`` plus the construct being opened, within ``MAX_NESTING``."""
    if depth == MAX_NESTING:
        raise SpecError("expression nesting too deep")
    return depth + 1


class Parser:
    """Reads the token lists by index: ``i`` is the next token, and
    ``next``/``expect`` return the index they consumed.  A position is
    built only for a syntax-tree node or an error.  EOF is the last token
    and is never consumed, so the token after any other one exists."""

    def __init__(self, tokens: Tokens):
        self.kinds = tokens.kinds
        self.texts = tokens.texts
        self.pos = tokens.pos
        self.i = 0

    def peek(self) -> str:
        return self.kinds[self.i]

    def next(self) -> int:
        i = self.i
        if self.kinds[i] != "EOF":
            self.i = i + 1
        return i

    def expect(self, kind: str, what: str | None = None) -> int:
        i = self.i
        if self.kinds[i] != kind:
            raise self.error(f"expected {what or kind}, found {self.found(i)!r}", i)
        self.i = i + 1  # no caller expects EOF
        return i

    def found(self, i: int) -> str:
        return self.texts[i] or "end of input"

    def error(self, message: str, i: int) -> ParseError:
        return ParseError(message, self.pos(i))

    # ------------------------------------------------------------- items

    def parse_module(self) -> SpecModule:
        module = SpecModule()
        while self.peek() != "EOF":
            if self.peek() == "COMMENT":
                self.i += 1
            else:
                module.items.append(self.parse_item())
        return module

    def parse_item(self):
        i = self.i
        kind = self.kinds[i]
        if kind == "entity":
            return self.parse_entity(extern=False)
        if kind == "extern":
            return self.parse_extern()
        if kind in _NAME_WHAT:
            return self.parse_name_item(i)
        if kind == "interface":
            return self.parse_interface_def()
        if kind == "architecture":
            return self.parse_architecture_def()
        if kind == "check":
            return self.parse_check()
        if kind == "refine":
            return self.parse_refine_def()
        if kind == "rename":
            return self.parse_rename_def()
        raise self.error(f"expected a declaration, found {self.found(i)!r}", i)

    def parse_entity(self, extern: bool) -> EntityItem:
        """``entity NAME``, with ``{ ... }`` around its children; only the
        outermost entity can be ``extern``."""
        texts = self.texts
        open_: list[tuple[int, str, list[EntityItem]]] = []  # (start, name, children)
        while True:
            start = self.expect("entity")
            name = texts[self.expect("IDENT", "entity name")]
            if self.peek() == "LBRACE":
                if extern and not open_:
                    raise self.error("extern entities cannot declare children", self.i)
                self.next()
                open_.append((start, name, []))
            else:
                item = EntityItem(self.pos(start), name, (), extern and not open_)
                if not open_:
                    return item
                open_[-1][2].append(item)
            while open_ and self.peek() == "RBRACE":
                self.next()
                start, name, children = open_.pop()
                item = EntityItem(self.pos(start), name, tuple(children), extern and not open_)
                if not open_:
                    return item
                open_[-1][2].append(item)

    def parse_name_item(self, start: int, extern: bool = False) -> NameItem:
        """``action|motive|condition NAME``, placed at token ``start``."""
        kind = self.kinds[self.next()]
        name = self.texts[self.expect("IDENT", _NAME_WHAT[kind])]
        return NameItem(self.pos(start), kind, name, extern)

    def parse_extern(self):
        start = self.expect("extern")
        kind = self.peek()
        if kind == "entity":
            item = self.parse_entity(extern=True)
            return item.replace(pos=self.pos(start))
        if kind in ("action", "motive"):
            return self.parse_name_item(start, extern=True)
        raise self.error("extern expects entity, action or motive", self.i)

    def parse_interface_def(self) -> InterfaceDef:
        start = self.expect("interface")
        name = self.texts[self.expect("IDENT", "interface name")]
        scope = None
        monoid = False
        if self.peek() == "AT":
            self.next()
            word = self.expect("IDENT", "local or global")
            scope = self.texts[word]
            if scope not in ("local", "global"):
                raise self.error(f"expected local or global after @, found {scope!r}", word)
        if self.peek() == "monoid":
            self.next()
            monoid = True
        self.expect("LBRACE")
        expr = self.parse_expr()
        self.expect("RBRACE")
        return InterfaceDef(self.pos(start), name, scope, monoid, expr)

    def parse_architecture_def(self) -> ArchitectureDef:
        start = self.expect("architecture")
        name = self.texts[self.expect("IDENT", "architecture name")]
        self.expect("LBRACE")
        members: list[ArchMemberDef] = []
        while self.peek() != "RBRACE":
            members.append(self.parse_member())
            if self.peek() == "COMMA":
                self.next()
            elif self.peek() != "RBRACE":
                raise self.error("expected , or } after architecture member", self.i)
        self.expect("RBRACE")
        return ArchitectureDef(self.pos(start), name, tuple(members))

    def parse_member(self) -> ArchMemberDef:
        start = self.i
        contained = self.peek() == "contained"
        if contained:
            self.next()
        entity = self.texts[self.expect("IDENT", "member entity name")]
        self.expect("COLON", "':' after member entity")
        if self.peek() == "LBRACE":
            self.next()
            expr = self.parse_expr()
            self.expect("RBRACE")
        else:
            expr = self.parse_expr()
        return ArchMemberDef(self.pos(start), entity, contained, expr)

    def parse_check(self) -> CheckDirective:
        start = self.expect("check")
        word = self.expect("IDENT", "check kind")
        kind = self.texts[word]
        if kind != "closed":
            raise self.error(f"unknown check kind {kind!r} (expected closed)", word)
        target = self.texts[self.expect("IDENT", "architecture name")]
        return CheckDirective(self.pos(start), kind, target)

    def _expect_word(self, word: str) -> int:
        i = self.i
        if self.kinds[i] != "IDENT" or self.texts[i] != word:
            raise self.error(f"expected {word!r}, found {self.found(i)!r}", i)
        return self.next()

    def parse_refine_def(self) -> RefineDef:
        texts = self.texts
        start = self.expect("refine")
        name = texts[self.expect("IDENT", "derived interface name")]
        self.expect("EQUALS", "'='")
        source = texts[self.expect("IDENT", "source interface name")]
        self._expect_word("expand")
        coarse = texts[self.expect("IDENT", "entity to expand")]
        self._expect_word("into")
        parts = [texts[self.expect("IDENT", "part entity")]]
        while self.peek() == "COMMA":
            self.next()
            parts.append(texts[self.expect("IDENT", "part entity")])
        return RefineDef(self.pos(start), name, source, coarse, tuple(parts))

    def parse_rename_def(self) -> RenameDef:
        texts = self.texts
        start = self.expect("rename")
        name = texts[self.expect("IDENT", "derived interface name")]
        self.expect("EQUALS", "'='")
        source = texts[self.expect("IDENT", "source interface name")]
        self.expect("LBRACE")
        pairs = {"entity": [], "action": [], "motive": []}
        while self.peek() != "RBRACE":
            kind = self.peek()
            if kind not in pairs:
                raise self.error("rename pairs start with entity, action or motive", self.i)
            self.next()
            old = texts[self.expect("IDENT", "name to rename")]
            self.expect("ARROW", "'->'")
            new = texts[self.expect("IDENT", "replacement name")]
            pairs[kind].append((old, new))
            if self.peek() == "COMMA":
                self.next()
            elif self.peek() != "RBRACE":
                raise self.error("expected , or } after rename pair", self.i)
        self.expect("RBRACE")
        return RenameDef(self.pos(start), name, source,
                         tuple(pairs["entity"]), tuple(pairs["action"]), tuple(pairs["motive"]))

    # ------------------------------------------------------- expressions

    def parse_expr(self) -> ExprNode:
        """A sum of factors.  A factor is prefix ``-`` signs, then ``n x`` or a
        bare ``0``, then an atom, maybe followed by ``<| v |>`` and a second
        atom.  An atom that is a group opens a new sum; the enclosing sum and
        factor wait on ``groups`` until its ``)``."""
        kinds = self.kinds
        texts = self.texts
        pos = self.pos
        # per open group: its enclosing sum (start, parts, sign, level) and
        # factor (minus signs, atom, n x, pending conditional, depth)
        groups = []
        start, parts, sign, level = self.i, [], 1, 0
        while True:
            depth = level
            minus = i = self.i  # the minus signs are tokens minus to atom - 1
            while kinds[i] == "MINUS":
                depth = _deeper(depth)
                i += 1
            atom = i
            scale = None
            if kinds[i] == "INT":
                if kinds[i + 1] == "IDENT" and texts[i + 1] == "x":
                    depth = _deeper(depth)
                    scale = (i, int(texts[i]))
                    self.i = i + 2
                    node = self.parse_atom()
                elif texts[i] == "0":
                    self.i = i + 1
                    node = ZeroExpr(pos(i))
                else:
                    raise self.error("an integer must be followed by the multiplicity keyword x "
                                     "(or be the empty interface 0)", i)
            else:
                self.i = i
                node = self.parse_atom()
            cond = None
            while True:
                if node is None:  # a group opened: parse its sum first
                    groups.append((start, parts, sign, level, minus, atom, scale, cond, depth))
                    level = _deeper(depth)
                    start, parts, sign = self.i, [], 1
                    break
                if cond is not None:
                    cond_start, then, variable, negated = cond
                    node = CondExpr(pos(cond_start), then, variable, negated, node)
                elif kinds[self.i] == "CONDL":
                    cond_start = self.next()
                    negated = kinds[self.i] == "BANG"
                    if negated:
                        self.next()
                    variable = texts[self.expect("IDENT", "condition variable")]
                    self.expect("CONDR", "|>")
                    depth = _deeper(depth)
                    cond = (cond_start, node, variable, negated)
                    node = self.parse_atom()
                    continue
                if scale is not None:
                    node = ScaleExpr(pos(scale[0]), scale[1], node)
                if minus < atom:
                    for j in range(atom - 1, minus - 1, -1):
                        node = NegExpr(pos(j), node)
                parts.append((sign, node))
                end = self.i - 1
                if kinds[self.i] == "COMMENT":
                    self._skip_comments(end)
                if kinds[self.i] in ("PLUS", "MINUS"):
                    sign = 1 if kinds[self.next()] == "PLUS" else -1
                    if kinds[self.i] == "COMMENT":
                        self._skip_comments(end)
                    break
                if len(parts) == 1 and parts[0][0] == 1:
                    node = parts[0][1]
                else:
                    node = SumExpr(pos(start), tuple(parts))
                if not groups:
                    return node
                self.expect("RPAREN")
                start, parts, sign, level, minus, atom, scale, cond, depth = groups.pop()

    def _skip_comments(self, end: int):
        """Skips the comments, the next token first, after the factor whose
        last token is ``end``.  Only a bare, negated or scaled ``0`` ends in
        an ``INT`` that no ``|>`` precedes, and no comment may follow it."""
        kinds = self.kinds
        if kinds[end] == "INT" and kinds[end - 1] != "CONDR":
            raise self.error("comment does not follow an interface element", end)
        while kinds[self.i] == "COMMENT":
            self.i += 1

    def parse_atom(self) -> ExprNode | None:
        """The atom at the next token, or ``None`` after the ``(`` of a group."""
        i = self.i
        kind = self.kinds[i]
        if kind == "IDENT":
            self.i = i + 1
            if self.kinds[i + 1] == "DOT":
                return self.parse_generator("service", i)
            return RefExpr(self.pos(i), self.texts[i])
        if kind == "INT" and self.texts[i] == "0":
            self.i = i + 1
            return ZeroExpr(self.pos(i))
        if kind == "LPAREN":
            self.i = i + 1
            return None
        if kind == "TILDE":
            self.i = i + 1
            name = self.expect("IDENT", "entity name after ~")
            return self.parse_generator("client", name)
        raise self.error(f"expected an interface element, found {self.found(i)!r}", i)

    def parse_generator(self, polarity: str, target: int) -> GenExpr:
        """The rest of a generator whose target entity is token ``target``."""
        kinds = self.kinds
        texts = self.texts
        self.expect("DOT")
        action = texts[self.expect("IDENT", "action name")]
        self.expect("LPAREN", "'(' introducing the motive")
        motive: tuple[str, ...] = ()
        if kinds[self.i] == "INT" and texts[self.i] == "0":
            self.i += 1
        else:
            atoms = [texts[self.expect("IDENT", "motive atom")]]
            while kinds[self.i] == "PLUS":
                self.i += 1
                atoms.append(texts[self.expect("IDENT", "motive atom")])
            motive = tuple(atoms)
        self.expect("RPAREN", "')' closing the motive")
        host = None
        if kinds[self.i] == "AT":
            self.i += 1
            host = texts[self.expect("IDENT", "host entity name")]
        alpha = "TF"
        if kinds[self.i] == "SLASH":
            self.i += 1
            word = self.expect("IDENT", "reply constraint (TF, T, F or lambda)")
            alpha = texts[word]
            if alpha not in ALPHAS:
                raise self.error(f"unknown reply constraint /{alpha}", word)
        return GenExpr(self.pos(target), polarity, texts[target], action, motive, host, alpha)


def parse_module(text: str, filename: str | None = None) -> SpecModule:
    return Parser(tokenize(text, filename)).parse_module()


def parse_expression(text: str, filename: str | None = None) -> ExprNode:
    parser = Parser(tokenize(text, filename))
    expr = parser.parse_expr()
    tail = parser.i
    if parser.kinds[tail] != "EOF":
        raise parser.error(f"unexpected trailing input {parser.texts[tail]!r}", tail)
    return expr
