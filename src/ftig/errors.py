"""Error types shared across the package.

``SpecError`` means the input is wrong: a specification, value, rename map
or event log that the toolchain rejects.  ``ScopeError``, ``ParseError``
and ``LogFormatError`` are its subclasses, and the command line reports
every ``SpecError`` as a static error (exit 2).  ``CapacityError`` and
``OverflowError`` are exit 3; any other exception is a fault in ftig.
"""


class SpecError(ValueError):
    """The input is wrong; the message says how."""


class ScopeError(SpecError):
    """Local and global interface values were mixed in one operation."""


class CapacityError(RuntimeError):
    """A check would enumerate more cases than the configured capacity."""


class SourcePosition:
    __slots__ = ("file", "line", "col")

    def __init__(self, line, col, file=None):
        self.line = line
        self.col = col
        self.file = file

    def __repr__(self):
        return f"SourcePosition({self.line}, {self.col}, {self.file!r})"

    def __str__(self):
        name = self.file if self.file is not None else "<input>"
        return f"{name}:{self.line}:{self.col}"

    def __eq__(self, other):
        if not isinstance(other, SourcePosition):
            return NotImplemented
        return (self.file, self.line, self.col) == (other.file, other.line, other.col)

    def __hash__(self):
        return hash((self.file, self.line, self.col))


class ParseError(SpecError):
    """Lexical or syntactic error, carrying a source position."""

    def __init__(self, message, pos):
        super().__init__(f"{pos}: {message}")
        self.message = message
        self.pos = pos


class LogFormatError(SpecError):
    """A transfer-event log row could not be ingested."""

    def __init__(self, message, row):
        super().__init__(f"event log row {row}: {message}")
        self.message = message
        self.row = row
