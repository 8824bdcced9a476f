"""Machine-readable (JSON) report documents with a stable field layout.

Every document carries ``"schema": 1``; the field order is fixed, so
identical inputs give identical bytes.  Each shape has one template that
returns its JSON text, laid out as ``json.dumps(obj, indent=2)`` lays out
the equivalent object: two spaces per level, ``","`` and ``": "`` as
separators, ``[]`` and ``{}`` when empty, and every non-ASCII character
escaped as ``\\uXXXX``.

``depth`` is the nesting level of the line that closes the value.  An
element of an array field of the document is at depth 2, so that is the
default of the element templates.
"""

from __future__ import annotations

from functools import lru_cache

# the C escaper that json.dumps itself calls when ensure_ascii is set
from _json import encode_basestring_ascii as string

from .algebra import Generator, Interface

SCHEMA_VERSION = 1

_GENERATOR_KEYS = ("host", "polarity", "target", "action", "motive", "alpha")
_TERM_KEYS = (*_GENERATOR_KEYS, "coefficient")
_CASE_KEYS = ("assignment", "verdict", "residual")
_DIAGNOSTIC_KEYS = ("severity", "message")
_POSITIONED_KEYS = (*_DIAGNOSTIC_KEYS, "file", "line", "col")
_VIOLATION_KEYS = ("event", "kind", "side", "entity", "candidates")
_CHECK_KEYS = ("kind", "architecture", "verdict")
_PART_KEYS = ("entity", "rendered", "terms")
_BRANCH_KEYS = ("condition", "terms")


def _newline(depth: int) -> str:
    return "\n" + "  " * depth


@lru_cache(maxsize=64)
def _layout(keys: tuple[str, ...], depth: int) -> str:
    """``%``-template of an object with ``keys`` (one or more): one ``%s`` per
    value text, the values laid out at ``depth + 1``."""
    return ("{" + _newline(depth + 1)
            + ("," + _newline(depth + 1)).join(string(key).replace("%", "%%") + ": %s"
                                               for key in keys)
            + _newline(depth) + "}")


def _array(items, depth: int) -> str:
    """An array of element texts laid out at ``depth + 1``."""
    sep = _newline(depth + 1)
    body = ("," + sep).join(items)
    return f"[{sep}{body}{_newline(depth)}]" if body else "[]"


def _scalar(value) -> str:
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, str):
        return string(value)
    return int.__repr__(value)


def _verdict(closed: bool) -> str:
    return '"closed"' if closed else '"not-closed"'


def _generator_values(gen: Generator, depth: int) -> tuple[str, ...]:
    return ("null" if gen.host is None else string(gen.host), string(gen.polarity),
            string(gen.target), string(gen.action),
            _array(map(string, gen.motive), depth + 1), string(gen.alpha))


def generator_object(gen: Generator, depth: int = 2) -> str:
    return _layout(_GENERATOR_KEYS, depth) % _generator_values(gen, depth)


def term_object(gen: Generator, coefficient: int, depth: int = 2) -> str:
    return _layout(_TERM_KEYS, depth) % (*_generator_values(gen, depth),
                                         int.__repr__(coefficient))


def interface_terms(iface: Interface, depth: int = 2) -> list[str]:
    """The term objects of ``iface``, each at ``depth``."""
    layout = _layout(_TERM_KEYS, depth)
    return [layout % (*_generator_values(g, depth), int.__repr__(c)) for g, c in iface]


def diagnostic_object(diag, depth: int = 2) -> str:
    values = (string(diag.severity), string(diag.message))
    pos = diag.pos
    if pos is None:
        return _layout(_DIAGNOSTIC_KEYS, depth) % values
    return _layout(_POSITIONED_KEYS, depth) % (
        *values, _scalar(pos.file), _scalar(pos.line), _scalar(pos.col))


def violation_object(v, depth: int = 2) -> str:
    return _layout(_VIOLATION_KEYS, depth) % (
        _scalar(v.index), string(v.kind), string(v.side), string(v.entity),
        _array([generator_object(g, depth + 2) for g in v.candidates], depth + 1),
    )


def check_object(rep, depth: int = 2) -> str:
    """One ``check`` directive's verdict on an architecture."""
    return _layout(_CHECK_KEYS, depth) % (
        '"closed"', string(rep.architecture), _verdict(rep.closed))


def part_object(entity: str, iface: Interface, depth: int = 2) -> str:
    """One entity's part of a decomposition or a diff."""
    return _layout(_PART_KEYS, depth) % (
        string(entity), string(iface.render()),
        _array(interface_terms(iface, depth + 2), depth + 1),
    )


def branch_object(lit, iface: Interface, depth: int = 2) -> str:
    """One guarded branch of a conditional interface."""
    return _layout(_BRANCH_KEYS, depth) % (
        string(lit.text()), _array(interface_terms(iface, depth + 2), depth + 1))


def assignment_cases(cases, depth: int = 2):
    """The case objects of a conditional check, one per assignment, in order.

    ``cases`` is the sequence of (assignment, residual) pairs of an
    ``AssignmentReport``.  Cases that share one ``Residual`` share its
    rendered verdict and terms.
    """
    layout = _layout(_CASE_KEYS, depth)
    start, sep, end = "{" + _newline(depth + 2), "," + _newline(depth + 2), _newline(depth + 1) + "}"
    items = {item for assignment, _ in cases for item in assignment}
    entries = {item: string(item[0]) + (": true" if item[1] else ": false") for item in items}
    shared = {}  # id of a residual in ``cases``, which keeps it alive -> its texts
    for assignment, residual in cases:
        texts = shared.get(id(residual))
        if texts is None:
            texts = shared[id(residual)] = (
                _verdict(residual.closed),
                _array(interface_terms(residual.canonical, depth + 2), depth + 1),
            )
        body = sep.join(map(entries.__getitem__, assignment))
        yield layout % (start + body + end if body else "{}", *texts)


def document(command: str, **fields) -> str:
    """The document: ``schema``, ``command``, then ``fields`` in order.

    A field is ``None``, a bool, an int, a str, or else an iterable of
    element texts at depth 2, written as an array.
    """
    return _layout(("schema", "command", *fields), 0) % (
        int.__repr__(SCHEMA_VERSION), string(command),
        *(_scalar(value) if value is None or isinstance(value, (bool, int, str))
          else _array(value, 1) for value in fields.values()),
    )


def dumps(doc: str) -> str:
    """The text written to stdout for ``doc``."""
    return doc + "\n"
