"""Error types shared across the package."""


class ScopeError(ValueError):
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


class ParseError(Exception):
    """Lexical or syntactic error, carrying a source position."""

    def __init__(self, message, pos):
        super().__init__(f"{pos}: {message}")
        self.message = message
        self.pos = pos


class LogFormatError(Exception):
    """A transfer-event log row could not be ingested."""

    def __init__(self, message, row):
        super().__init__(f"row {row}: {message}")
        self.message = message
        self.row = row
