"""Tokenizer for the ``.fti`` interface-specification language.

Identifiers may contain ``:`` between name characters (``RIi:L:CSP:SE``,
``hmt:csla``); a ``:`` not directly followed by a name character is the
punctuation token used in architecture members.  Comments are written
``%[ ... %]`` and may span lines.  Whitespace is insignificant outside
comments.

Tokens keep their line and column as plain integers; the
``SourcePosition`` of a token is built only when ``Token.pos`` is read.
"""

from __future__ import annotations

import re

from ..errors import ParseError, SourcePosition

KEYWORDS = frozenset({
    "entity", "extern", "action", "motive", "condition",
    "interface", "architecture", "check", "contained", "monoid",
    "refine", "rename",
})

_PUNCT = {
    "+": "PLUS", "-": "MINUS", "~": "TILDE", ".": "DOT", "@": "AT",
    "/": "SLASH", "(": "LPAREN", ")": "RPAREN", "{": "LBRACE",
    "}": "RBRACE", ",": "COMMA", ":": "COLON", "!": "BANG", "=": "EQUALS",
    "->": "ARROW", "<|": "CONDL", "|>": "CONDR",
}

# the kind of every fixed spelling; any other name is an IDENT
_KINDS = {**{word: word for word in KEYWORDS}, **_PUNCT}

# one alternative per token class; a character no alternative matches is
# an error, and a comment's body is found with str.find, not by the regex
_TOKEN = re.compile(r"""
    (?P<space>[ \t\r\n]+)
  | (?P<comment>%\[)
  | (?P<word>[A-Za-z_][A-Za-z0-9_]*(?::[A-Za-z0-9_]+)*
      | ->|<\||\|>|[-+~.@/(){},:!=])
  | (?P<int>[0-9]+)
  | (?P<lambda>λ)
""", re.VERBOSE)


class Token:
    """One token: its kind (IDENT, INT, COMMENT, EOF, a keyword or a
    punctuation kind), its text, and the 1-based line and column where it
    starts."""

    __slots__ = ("kind", "text", "line", "col", "file")

    def __init__(self, kind: str, text: str, line: int, col: int, file: str | None = None):
        self.kind = kind
        self.text = text
        self.line = line
        self.col = col
        self.file = file

    @property
    def pos(self) -> SourcePosition:
        return SourcePosition(self.line, self.col, self.file)

    def __eq__(self, other):
        if not isinstance(other, Token):
            return NotImplemented
        return ((self.kind, self.text, self.line, self.col, self.file)
                == (other.kind, other.text, other.line, other.col, other.file))

    def __hash__(self):
        return hash((self.kind, self.text, self.line, self.col, self.file))

    def __repr__(self):
        return f"Token(kind={self.kind!r}, text={self.text!r}, pos={self.pos!r})"


def tokenize(text: str, filename: str | None = None) -> list[Token]:
    tokens: list[Token] = []
    append = tokens.append
    match = _TOKEN.match
    kinds = _KINDS
    n = len(text)
    i = 0
    line = 1
    line_start = 0  # offset of the first character of ``line``
    while i < n:
        m = match(text, i)
        if m is None:
            ch = text[i]
            pos = SourcePosition(line, i - line_start + 1, filename)
            if ch == "%":
                raise ParseError("stray % (comments open with %[)", pos)
            raise ParseError(f"unexpected character {ch!r}", pos)
        group = m.lastgroup
        end = m.end()
        if group == "word":
            word = m.group()
            append(Token(kinds.get(word, "IDENT"), word, line, i - line_start + 1, filename))
        elif group == "int":
            append(Token("INT", m.group(), line, i - line_start + 1, filename))
        elif group == "lambda":  # λ reply constraint, normalized to its ASCII spelling
            append(Token("IDENT", "lambda", line, i - line_start + 1, filename))
        else:  # whitespace or a comment: the only matches that can span lines
            if group == "comment":
                close = text.find("%]", end)
                if close < 0:
                    raise ParseError("unterminated comment: missing %]",
                                     SourcePosition(line, i - line_start + 1, filename))
                append(Token("COMMENT", text[end:close], line, i - line_start + 1, filename))
                end = close + 2
            newline = text.rfind("\n", i, end)
            if newline >= 0:
                line += text.count("\n", i, newline + 1)
                line_start = newline + 1
        i = end
    tokens.append(Token("EOF", "", line, n - line_start + 1, filename))
    return tokens
