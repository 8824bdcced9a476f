"""Recursive-descent parser for the interface-specification language.

Binding strength follows the notation: ``.`` forms the element, ``~``
flips it to the incoming side, ``@`` attaches the host, ``/`` the reply
constraint; unary ``-`` inverts one element or group, and ``+``/``-``
combine loosest.  ``n x`` before an element or parenthesized group sets a
multiplicity.  A comment is dropped.  It may stand between declarations
and after any part of a sum, even when a ``+``/``-`` sign intervenes (as
in hand-written listings), but not directly after a bare, negated or
scaled ``0``; after ``(0)`` or a conditional's ``|> 0`` it may.
"""

from __future__ import annotations

from ..algebra import ALPHAS
from ..errors import ParseError
from .astnodes import (
    ArchMemberDef, ArchitectureDef, CheckDirective, CondExpr, EntityItem, ExprNode,
    GenExpr, InterfaceDef, NameItem, NegExpr, RefExpr, RefineDef, RenameDef,
    ScaleExpr, SpecModule, SumExpr, ZeroExpr,
)
from .lexer import Tokens, tokenize

# what a bare declaration's keyword expects next
_NAME_WHAT = {"action": "action name", "motive": "motive name",
              "condition": "condition variable name"}


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
        start = self.expect("entity")
        name = self.texts[self.expect("IDENT", "entity name")]
        children: list[EntityItem] = []
        if self.peek() == "LBRACE":
            if extern:
                raise self.error("extern entities cannot declare children", self.i)
            self.next()
            while self.peek() != "RBRACE":
                children.append(self.parse_entity(extern=False))
            self.expect("RBRACE")
        return EntityItem(self.pos(start), name, tuple(children), extern)

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
        kinds = self.kinds
        start = self.i
        parts: list[tuple[int, ExprNode]] = [(1, self.parse_factor())]
        end = self.i - 1
        self._skip_comments(end)
        while kinds[self.i] in ("PLUS", "MINUS"):
            sign = 1 if kinds[self.next()] == "PLUS" else -1
            self._skip_comments(end)
            parts.append((sign, self.parse_factor()))
            end = self.i - 1
            self._skip_comments(end)
        if len(parts) == 1 and parts[0][0] == 1:
            return parts[0][1]
        return SumExpr(self.pos(start), tuple(parts))

    def _skip_comments(self, end: int):
        """Skips the comments after the factor whose last token is ``end``.
        Only a bare, negated or scaled ``0`` ends in an ``INT`` that no
        ``|>`` precedes, and no comment may follow it."""
        kinds = self.kinds
        if kinds[self.i] != "COMMENT":
            return
        if kinds[end] == "INT" and kinds[end - 1] != "CONDR":
            raise self.error("comment does not follow an interface element", end)
        while kinds[self.i] == "COMMENT":
            self.i += 1

    def parse_factor(self) -> ExprNode:
        i = self.i
        kind = self.kinds[i]
        if kind == "MINUS":
            self.i = i + 1
            return NegExpr(self.pos(i), self.parse_factor())
        if kind == "INT":
            text = self.texts[i]
            if self.kinds[i + 1] == "IDENT" and self.texts[i + 1] == "x":
                self.i = i + 2
                return ScaleExpr(self.pos(i), int(text), self.parse_primary())
            if text == "0":
                self.i = i + 1
                return self._maybe_conditional(ZeroExpr(self.pos(i)))
            raise self.error("an integer must be followed by the multiplicity keyword x "
                             "(or be the empty interface 0)", i)
        return self.parse_primary()

    def parse_primary(self) -> ExprNode:
        return self._maybe_conditional(self.parse_atom())

    def _maybe_conditional(self, node: ExprNode) -> ExprNode:
        if self.peek() != "CONDL":
            return node
        start = self.next()
        negated = self.peek() == "BANG"
        if negated:
            self.next()
        variable = self.texts[self.expect("IDENT", "condition variable")]
        self.expect("CONDR", "|>")
        otherwise = self.parse_atom()
        return CondExpr(self.pos(start), node, variable, negated, otherwise)

    def parse_atom(self) -> ExprNode:
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
            inner = self.parse_expr()
            self.expect("RPAREN")
            return inner
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
