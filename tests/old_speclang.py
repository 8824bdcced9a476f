"""Verbatim copies of the tokenizer and parser that preceded the one-regex
tokenizer, kept as the oracle for ``test_speclang.TestFrontEndOracle``.

Only the imports and the four ``replace`` calls are changed: the imports
name the ``ftig`` modules absolutely, and the calls use the syntax-tree
nodes' own ``replace`` method in place of ``dataclasses.replace``.

Since bare name declarations became one ``NameItem`` node, the only other
change is three functions named after the deleted ``ActionItem``,
``MotiveItem`` and ``ConditionItem`` classes, taking the same arguments
and returning the matching ``NameItem``, so the parser below builds
today's nodes unchanged.

The syntax tree no longer keeps comments or parentheses, so the oracle
keeps local copies of the node shapes that held them: ``RefExpr``,
``GenExpr`` and ``CondExpr`` with their ``comments`` field, ``ParenExpr``
and ``StandaloneComment``.  ``TestFrontEndOracle`` compares today's tree
with this parser's once the comments, the parentheses and the
``StandaloneComment`` items are removed.
"""

from __future__ import annotations

from dataclasses import dataclass

from ftig.errors import ParseError, SourcePosition
from ftig.speclang.astnodes import (
    ArchMemberDef, ArchitectureDef, CheckDirective,
    EntityItem, ExprNode, InterfaceDef, Item, NameItem,
    NegExpr, RefineDef, RenameDef, ScaleExpr, SpecModule,
    SumExpr, ZeroExpr,
)


class RefExpr(ExprNode):
    __slots__ = ("name", "comments")

    def __init__(self, pos: SourcePosition, name: str, comments: tuple[str, ...] = ()):
        self.pos = pos
        self.name = name
        self.comments = comments


class GenExpr(ExprNode):
    __slots__ = ("polarity", "target", "action", "motive", "host", "alpha", "comments")

    def __init__(self, pos: SourcePosition, polarity: str, target: str, action: str,
                 motive: tuple[str, ...], host: str | None, alpha: str,
                 comments: tuple[str, ...] = ()):
        self.pos = pos
        self.polarity = polarity
        self.target = target
        self.action = action
        self.motive = motive      # atom names in written order; () is the zero motive
        self.host = host
        self.alpha = alpha
        self.comments = comments


class ParenExpr(ExprNode):
    __slots__ = ("inner", "comments")

    def __init__(self, pos: SourcePosition, inner: ExprNode, comments: tuple[str, ...] = ()):
        self.pos = pos
        self.inner = inner
        self.comments = comments


class CondExpr(ExprNode):
    __slots__ = ("then", "variable", "negated", "otherwise", "comments")

    def __init__(self, pos: SourcePosition, then: ExprNode, variable: str, negated: bool,
                 otherwise: ExprNode, comments: tuple[str, ...] = ()):
        self.pos = pos
        self.then = then
        self.variable = variable
        self.negated = negated
        self.otherwise = otherwise
        self.comments = comments


class StandaloneComment(Item):
    __slots__ = ("text",)

    def __init__(self, pos: SourcePosition, text: str):
        self.pos = pos
        self.text = text


def ActionItem(pos, name, extern=False):
    return NameItem(pos, "action", name, extern)


def MotiveItem(pos, name, extern=False):
    return NameItem(pos, "motive", name, extern)


def ConditionItem(pos, name):
    return NameItem(pos, "condition", name)

KEYWORDS = frozenset({
    "entity", "extern", "action", "motive", "condition",
    "interface", "architecture", "check", "contained", "monoid",
    "refine", "rename",
})

_PUNCT = {
    "+": "PLUS", "-": "MINUS", "~": "TILDE", ".": "DOT", "@": "AT",
    "/": "SLASH", "(": "LPAREN", ")": "RPAREN", "{": "LBRACE",
    "}": "RBRACE", ",": "COMMA", ":": "COLON", "!": "BANG", "=": "EQUALS",
}


@dataclass(frozen=True)
class Token:
    kind: str          # IDENT, INT, COMMENT, EOF, a keyword, or a punct kind
    text: str
    pos: SourcePosition


def _is_name_start(ch: str) -> bool:
    return ch.isascii() and (ch.isalpha() or ch == "_")


def _is_name_char(ch: str) -> bool:
    return ch.isascii() and (ch.isalnum() or ch == "_")


def tokenize(text: str, filename: str | None = None) -> list[Token]:
    tokens: list[Token] = []
    i = 0
    line = 1
    col = 1
    n = len(text)

    def pos() -> SourcePosition:
        return SourcePosition(line, col, filename)

    def advance(k: int = 1):
        nonlocal i, line, col
        for _ in range(k):
            if i < n and text[i] == "\n":
                line += 1
                col = 1
            else:
                col += 1
            i += 1

    while i < n:
        ch = text[i]
        if ch in " \t\r\n":
            advance()
            continue
        start = pos()
        if text.startswith("%[", i):
            advance(2)
            body_start = i
            while i < n and not text.startswith("%]", i):
                advance()
            if i >= n:
                raise ParseError("unterminated comment: missing %]", start)
            body = text[body_start:i]
            advance(2)
            tokens.append(Token("COMMENT", body, start))
            continue
        if ch == "%":
            raise ParseError("stray % (comments open with %[)", start)
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(Token("INT", text[i:j], start))
            advance(j - i)
            continue
        if _is_name_start(ch):
            j = i
            while j < n:
                if _is_name_char(text[j]):
                    j += 1
                elif text[j] == ":" and j + 1 < n and _is_name_char(text[j + 1]):
                    j += 2
                else:
                    break
            word = text[i:j]
            kind = word if word in KEYWORDS else "IDENT"
            tokens.append(Token(kind, word, start))
            advance(j - i)
            continue
        if ch == "λ":  # λ reply constraint, normalized to its ASCII spelling
            tokens.append(Token("IDENT", "lambda", start))
            advance()
            continue
        if text.startswith("->", i):
            tokens.append(Token("ARROW", "->", start))
            advance(2)
            continue
        if text.startswith("<|", i):
            tokens.append(Token("CONDL", "<|", start))
            advance(2)
            continue
        if text.startswith("|>", i):
            tokens.append(Token("CONDR", "|>", start))
            advance(2)
            continue
        if ch in _PUNCT:
            tokens.append(Token(_PUNCT[ch], ch, start))
            advance()
            continue
        raise ParseError(f"unexpected character {ch!r}", start)
    tokens.append(Token("EOF", "", pos()))
    return tokens


_ALPHA_WORDS = {"TF": "TF", "T": "T", "F": "F", "lambda": "lambda"}


def _attach_comment(node: ExprNode, text: str) -> ExprNode:
    if isinstance(node, (NegExpr, ScaleExpr)):
        return node.replace(inner=_attach_comment(node.inner, text))
    if isinstance(node, SumExpr):
        sign, last = node.parts[-1]
        parts = node.parts[:-1] + ((sign, _attach_comment(last, text)),)
        return node.replace(parts=parts)
    if hasattr(node, "comments"):
        return node.replace(comments=node.comments + (text,))
    raise ParseError("comment does not follow an interface element", node.pos)


class Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.i = 0

    def peek(self, ahead: int = 0) -> Token:
        return self.tokens[min(self.i + ahead, len(self.tokens) - 1)]

    def next(self) -> Token:
        tok = self.tokens[self.i]
        if tok.kind != "EOF":
            self.i += 1
        return tok

    def expect(self, kind: str, what: str | None = None) -> Token:
        tok = self.peek()
        if tok.kind != kind:
            want = what or kind
            raise ParseError(f"expected {want}, found {tok.text or 'end of input'!r}", tok.pos)
        return self.next()

    def expect_name(self, what: str) -> Token:
        tok = self.peek()
        if tok.kind != "IDENT":
            raise ParseError(f"expected {what}, found {tok.text or 'end of input'!r}", tok.pos)
        return self.next()

    # ------------------------------------------------------------- items

    def parse_module(self) -> SpecModule:
        module = SpecModule()
        while self.peek().kind != "EOF":
            module.items.append(self.parse_item())
        return module

    def parse_item(self):
        tok = self.peek()
        if tok.kind == "COMMENT":
            self.next()
            return StandaloneComment(tok.pos, tok.text)
        if tok.kind == "entity":
            return self.parse_entity(extern=False)
        if tok.kind == "extern":
            return self.parse_extern()
        if tok.kind == "action":
            self.next()
            name = self.expect_name("action name")
            return ActionItem(tok.pos, name.text)
        if tok.kind == "motive":
            self.next()
            name = self.expect_name("motive name")
            return MotiveItem(tok.pos, name.text)
        if tok.kind == "condition":
            self.next()
            name = self.expect_name("condition variable name")
            return ConditionItem(tok.pos, name.text)
        if tok.kind == "interface":
            return self.parse_interface_def()
        if tok.kind == "architecture":
            return self.parse_architecture_def()
        if tok.kind == "check":
            return self.parse_check()
        if tok.kind == "refine":
            return self.parse_refine_def()
        if tok.kind == "rename":
            return self.parse_rename_def()
        raise ParseError(f"expected a declaration, found {tok.text or 'end of input'!r}", tok.pos)

    def parse_entity(self, extern: bool) -> EntityItem:
        start = self.expect("entity")
        name = self.expect_name("entity name")
        children: list[EntityItem] = []
        if self.peek().kind == "LBRACE":
            if extern:
                raise ParseError("extern entities cannot declare children", self.peek().pos)
            self.next()
            while self.peek().kind != "RBRACE":
                children.append(self.parse_entity(extern=False))
            self.expect("RBRACE")
        return EntityItem(start.pos, name.text, tuple(children), extern)

    def parse_extern(self):
        start = self.expect("extern")
        kind = self.peek()
        if kind.kind == "entity":
            item = self.parse_entity(extern=True)
            return item.replace(pos=start.pos)
        if kind.kind == "action":
            self.next()
            name = self.expect_name("action name")
            return ActionItem(start.pos, name.text, extern=True)
        if kind.kind == "motive":
            self.next()
            name = self.expect_name("motive name")
            return MotiveItem(start.pos, name.text, extern=True)
        raise ParseError("extern expects entity, action or motive", kind.pos)

    def parse_interface_def(self) -> InterfaceDef:
        start = self.expect("interface")
        name = self.expect_name("interface name")
        scope = None
        monoid = False
        if self.peek().kind == "AT":
            self.next()
            word = self.expect_name("local or global")
            if word.text not in ("local", "global"):
                raise ParseError(f"expected local or global after @, found {word.text!r}", word.pos)
            scope = word.text
        if self.peek().kind == "monoid":
            self.next()
            monoid = True
        self.expect("LBRACE")
        expr = self.parse_expr()
        self.expect("RBRACE")
        return InterfaceDef(start.pos, name.text, scope, monoid, expr)

    def parse_architecture_def(self) -> ArchitectureDef:
        start = self.expect("architecture")
        name = self.expect_name("architecture name")
        self.expect("LBRACE")
        members: list[ArchMemberDef] = []
        while self.peek().kind != "RBRACE":
            members.append(self.parse_member())
            if self.peek().kind == "COMMA":
                self.next()
            elif self.peek().kind != "RBRACE":
                raise ParseError("expected , or } after architecture member", self.peek().pos)
        self.expect("RBRACE")
        return ArchitectureDef(start.pos, name.text, tuple(members))

    def parse_member(self) -> ArchMemberDef:
        contained = False
        start = self.peek()
        if start.kind == "contained":
            self.next()
            contained = True
        entity = self.expect_name("member entity name")
        self.expect("COLON", "':' after member entity")
        if self.peek().kind == "LBRACE":
            self.next()
            expr = self.parse_expr()
            self.expect("RBRACE")
        else:
            expr = self.parse_expr()
        return ArchMemberDef(start.pos, entity.text, contained, expr)

    def parse_check(self) -> CheckDirective:
        start = self.expect("check")
        kind = self.expect_name("check kind")
        if kind.text != "closed":
            raise ParseError(f"unknown check kind {kind.text!r} (expected closed)", kind.pos)
        target = self.expect_name("architecture name")
        return CheckDirective(start.pos, kind.text, target.text)

    def _expect_word(self, word: str) -> Token:
        tok = self.peek()
        if tok.kind != "IDENT" or tok.text != word:
            raise ParseError(f"expected {word!r}, found {tok.text or 'end of input'!r}", tok.pos)
        return self.next()

    def parse_refine_def(self) -> RefineDef:
        start = self.expect("refine")
        name = self.expect_name("derived interface name")
        self.expect("EQUALS", "'='")
        source = self.expect_name("source interface name")
        self._expect_word("expand")
        coarse = self.expect_name("entity to expand")
        self._expect_word("into")
        parts = [self.expect_name("part entity").text]
        while self.peek().kind == "COMMA":
            self.next()
            parts.append(self.expect_name("part entity").text)
        return RefineDef(start.pos, name.text, source.text, coarse.text, tuple(parts))

    def parse_rename_def(self) -> RenameDef:
        start = self.expect("rename")
        name = self.expect_name("derived interface name")
        self.expect("EQUALS", "'='")
        source = self.expect_name("source interface name")
        self.expect("LBRACE")
        pairs = {"entity": [], "action": [], "motive": []}
        while self.peek().kind != "RBRACE":
            kind = self.peek()
            if kind.kind not in ("entity", "action", "motive"):
                raise ParseError("rename pairs start with entity, action or motive", kind.pos)
            self.next()
            old = self.expect_name("name to rename")
            self.expect("ARROW", "'->'")
            new = self.expect_name("replacement name")
            pairs[kind.kind].append((old.text, new.text))
            if self.peek().kind == "COMMA":
                self.next()
            elif self.peek().kind != "RBRACE":
                raise ParseError("expected , or } after rename pair", self.peek().pos)
        self.expect("RBRACE")
        return RenameDef(start.pos, name.text, source.text,
                         tuple(pairs["entity"]), tuple(pairs["action"]), tuple(pairs["motive"]))

    # ------------------------------------------------------- expressions

    def parse_expr(self) -> ExprNode:
        start = self.peek()
        parts: list[tuple[int, ExprNode]] = [(1, self.parse_factor())]
        self._slurp_comments(parts)
        while self.peek().kind in ("PLUS", "MINUS"):
            sign = 1 if self.next().kind == "PLUS" else -1
            self._slurp_comments(parts)
            parts.append((sign, self.parse_factor()))
            self._slurp_comments(parts)
        if len(parts) == 1 and parts[0][0] == 1:
            return parts[0][1]
        return SumExpr(start.pos, tuple(parts))

    def _slurp_comments(self, parts: list[tuple[int, ExprNode]]):
        while self.peek().kind == "COMMENT":
            tok = self.next()
            sign, node = parts[-1]
            parts[-1] = (sign, _attach_comment(node, tok.text))

    def parse_factor(self) -> ExprNode:
        tok = self.peek()
        if tok.kind == "MINUS":
            self.next()
            return NegExpr(tok.pos, self.parse_factor())
        if tok.kind == "INT":
            follower = self.peek(1)
            if follower.kind == "IDENT" and follower.text == "x":
                self.next()
                self.next()
                return ScaleExpr(tok.pos, int(tok.text), self.parse_primary())
            if tok.text == "0":
                self.next()
                return self._maybe_conditional(ZeroExpr(tok.pos))
            raise ParseError("an integer must be followed by the multiplicity keyword x "
                             "(or be the empty interface 0)", tok.pos)
        return self.parse_primary()

    def parse_primary(self) -> ExprNode:
        return self._maybe_conditional(self.parse_atom())

    def _maybe_conditional(self, node: ExprNode) -> ExprNode:
        if self.peek().kind != "CONDL":
            return node
        start = self.next()
        negated = False
        if self.peek().kind == "BANG":
            self.next()
            negated = True
        variable = self.expect_name("condition variable")
        self.expect("CONDR", "|>")
        otherwise = self.parse_atom()
        return CondExpr(start.pos, node, variable.text, negated, otherwise)

    def parse_atom(self) -> ExprNode:
        tok = self.peek()
        if tok.kind == "INT" and tok.text == "0":
            self.next()
            return ZeroExpr(tok.pos)
        if tok.kind == "LPAREN":
            self.next()
            inner = self.parse_expr()
            self.expect("RPAREN")
            return ParenExpr(tok.pos, inner)
        if tok.kind == "TILDE":
            self.next()
            name = self.expect_name("entity name after ~")
            return self.parse_generator("client", name)
        if tok.kind == "IDENT":
            self.next()
            if self.peek().kind == "DOT":
                return self.parse_generator("service", tok)
            return RefExpr(tok.pos, tok.text)
        raise ParseError(f"expected an interface element, found {tok.text or 'end of input'!r}",
                         tok.pos)

    def parse_generator(self, polarity: str, target: Token) -> GenExpr:
        self.expect("DOT")
        action = self.expect_name("action name")
        self.expect("LPAREN", "'(' introducing the motive")
        motive: tuple[str, ...] = ()
        if self.peek().kind == "INT" and self.peek().text == "0":
            self.next()
        else:
            atoms = [self.expect_name("motive atom").text]
            while self.peek().kind == "PLUS":
                self.next()
                atoms.append(self.expect_name("motive atom").text)
            motive = tuple(atoms)
        self.expect("RPAREN", "')' closing the motive")
        host = None
        if self.peek().kind == "AT":
            self.next()
            host = self.expect_name("host entity name").text
        alpha = "TF"
        if self.peek().kind == "SLASH":
            self.next()
            word = self.expect_name("reply constraint (TF, T, F or lambda)")
            if word.text not in _ALPHA_WORDS:
                raise ParseError(f"unknown reply constraint /{word.text}", word.pos)
            alpha = _ALPHA_WORDS[word.text]
        return GenExpr(target.pos, polarity, target.text, action.text, motive, host, alpha)


def parse_module(text: str, filename: str | None = None) -> SpecModule:
    parser = Parser(tokenize(text, filename))
    return parser.parse_module()
