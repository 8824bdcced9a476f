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
raised.  The token stream is two parallel lists, kinds and texts.

A position is resolved when it is read.  ``Tokens.pos(i)`` only records
the token's index; its line and column are found the first time one of
them, equality, the hash or the text is read.  So the start offsets are
not summed while tokenizing: the lexer keeps the offset of every
``BLOCK``-th token, and a read finds its token's offset by scanning
forward from the start of its block, then its line by a bisect over the
line starts, built at the first read.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from functools import partial
from itertools import accumulate, islice

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


# tokens per block of the offset table: a position read scans at most this many
BLOCK = 64


class _Source:
    """What the positions of one text need to find their lines and columns:
    the text, its file name and the start offset of every ``BLOCK``-th
    token.  Holding neither the token lists nor the split, it stays small
    while the syntax tree keeps it."""

    __slots__ = ("text", "file", "blocks", "_line_starts", "_found")

    def __init__(self, text: str, file: str | None, blocks: list[int]):
        self.text = text
        self.file = file
        self.blocks = blocks
        self._line_starts = None
        self._found: dict[int, tuple[int, int]] = {}

    def offset(self, i: int) -> int:
        """Where token ``i`` starts; EOF starts at the end of the text."""
        block, rest = divmod(i, BLOCK)
        # every word is one match of _SPLIT, so the matches from a token's
        # start are that token and those after it
        words = _SPLIT.finditer(self.text, self.blocks[block])
        match = next(islice(words, rest, None), None)
        return len(self.text) if match is None else match.start()

    def line_col(self, i: int) -> tuple[int, int]:
        """The line and column of token ``i``, both counted from 1."""
        found = self._found.get(i)
        if found is None:
            lines = self._line_starts
            if lines is None:
                # only "\n" ends a line; each line starts one past the end of the one before
                lengths = map((1).__add__, map(len, self.text.split("\n")))
                lines = self._line_starts = list(accumulate(lengths, initial=0))
            offset = self.offset(i)
            line = bisect_right(lines, offset)
            found = self._found[i] = (line, offset - lines[line - 1] + 1)
        return found


class _Position(SourcePosition):
    """The position of token ``index`` of ``source``: a ``SourcePosition``
    whose fields are looked up when read."""

    __slots__ = ("_source", "_index")

    def __init__(self, source: _Source, index: int):  # the fields are the properties below
        self._source = source
        self._index = index

    @property
    def file(self):
        return self._source.file

    @property
    def line(self):
        return self._source.line_col(self._index)[0]

    @property
    def col(self):
        return self._source.line_col(self._index)[1]


class Tokens:
    """The tokens of one text, EOF last, as the parallel lists ``kinds`` and
    ``texts``.  A kind is IDENT, INT, COMMENT, EOF, a keyword or a
    punctuation kind; ``pos(i)`` is where token ``i`` starts, and
    ``starts`` lists the start offsets of all of them."""

    __slots__ = ("kinds", "texts", "pos", "_source")

    def __init__(self, kinds: list[str], texts: list[str], source: _Source):
        self.kinds = kinds
        self.texts = texts
        # pos(i): where token i starts, found when first read
        self.pos = partial(_Position, source)
        self._source = source

    def __len__(self):
        return len(self.kinds)

    @property
    def starts(self) -> list[int]:
        """The character offset where each token starts, computed on each read."""
        # a word starts where the parts before it end; the last start is EOF's
        return list(accumulate(map(len, _SPLIT.split(self._source.text))))[::2]


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
    # the start of every BLOCK-th word: each slice holds BLOCK words and the
    # separators after them, so its joined length is the distance to the next
    step = 2 * BLOCK
    blocks = list(accumulate((len("".join(parts[j:j + step]))
                              for j in range(1, len(parts) + 1 - step, step)),
                             initial=len(parts[0])))
    tokens = Tokens(kinds, texts, _Source(text, filename, blocks))
    if _ERROR in kind_of.values():
        i = kinds.index(_ERROR)
        raise ParseError(texts[i], tokens.pos(i))
    return tokens
