"""Tokenizer for the ``.fti`` interface-specification language.

Identifiers may contain ``:`` between name characters (``RIi:L:CSP:SE``,
``hmt:csla``); a ``:`` not directly followed by a name character is the
punctuation token used in architecture members.  Comments are written
``%[ ... %]`` and may span lines.  Whitespace is insignificant outside
comments.

One ``re.split`` cuts the text into words and the whitespace between
them.  The kind and text of each distinct word come from a table built
once per text; a word no token class accepts (an unexpected character, a
stray ``%``, an unterminated comment) is an error, and the first one is
raised.  The token stream is three parallel lists: kinds, texts and start
offsets.  Line and column are found only when a position is asked for,
by a bisect over the line starts, which are built at the first request.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from itertools import accumulate

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

# one capturing group, so re.split returns separators and words in turn;
# its last alternative takes any other character, so every separator is
# whitespace.  An unterminated comment runs to the end of the text: with
# a bare %\[.*?%\] each unmatched %[ would rescan the rest of the text.
_SPLIT = re.compile(r"""(
    %\[.*?(?:%\]|\Z)
  | [A-Za-z_][A-Za-z0-9_]*(?::[A-Za-z0-9_]+)* | ->|<\||\|>|[-+~.@/(){},:!=]
  | [0-9]+
  | λ
  | [^ \t\r\n]
)""", re.VERBOSE | re.DOTALL)

# the kind of a word no token class accepts; its text is the message
_ERROR = "ERROR"


def _classify(word: str) -> tuple[str, str]:
    """The kind and text of one word of the split."""
    kind = _KINDS.get(word)
    if kind is not None:
        return kind, word
    first = word[0]
    if first == "%":
        if word[1:2] != "[":
            return _ERROR, "stray % (comments open with %[)"
        if word.endswith("%]"):
            return "COMMENT", word[2:-2]
        return _ERROR, "unterminated comment: missing %]"
    if first in "0123456789":
        return "INT", word
    if first == "λ":  # λ reply constraint, normalized to its ASCII spelling
        return "IDENT", "lambda"
    if first == "_" or first.isascii() and first.isalpha():
        return "IDENT", word
    return _ERROR, f"unexpected character {first!r}"


class Tokens:
    """The tokens of one text, EOF last, as the parallel lists ``kinds``,
    ``texts`` and ``starts`` (character offsets).  A kind is IDENT, INT,
    COMMENT, EOF, a keyword or a punctuation kind; ``pos(i)`` is where
    token ``i`` starts."""

    __slots__ = ("kinds", "texts", "starts", "_text", "_file", "_line_starts")

    def __init__(self, kinds: list[str], texts: list[str], starts: list[int],
                 text: str, file: str | None):
        self.kinds = kinds
        self.texts = texts
        self.starts = starts
        self._text = text
        self._file = file
        self._line_starts = None

    def __len__(self):
        return len(self.kinds)

    def pos(self, i: int) -> SourcePosition:
        """Where token ``i`` starts."""
        offset = self.starts[i]
        lines = self._line_starts
        if lines is None:
            # only "\n" ends a line; each line starts one past the end of the one before
            lengths = map((1).__add__, map(len, self._text.split("\n")))
            lines = self._line_starts = list(accumulate(lengths, initial=0))
        line = bisect_right(lines, offset)
        return SourcePosition(line, offset - lines[line - 1] + 1, self._file)


def tokenize(text: str, filename: str | None = None) -> Tokens:
    parts = _SPLIT.split(text)
    words = parts[1::2]
    kind_of = dict.fromkeys(words)
    text_of = {}
    for word in kind_of:
        kind_of[word], text_of[word] = _classify(word)
    kinds = list(map(kind_of.__getitem__, words))
    kinds.append("EOF")
    texts = list(map(text_of.__getitem__, words))
    texts.append("")
    # a word starts where the parts before it end; the last start is EOF's
    starts = list(accumulate(map(len, parts)))[::2]
    tokens = Tokens(kinds, texts, starts, text, filename)
    if _ERROR in kind_of.values():
        i = kinds.index(_ERROR)
        raise ParseError(texts[i], tokens.pos(i))
    return tokens
