import ast

import pytest

import ftig
from ftig.errors import LogFormatError, ParseError, ScopeError, SourcePosition, SpecError

from conftest import FTIG_SRC


def test_bad_input_errors_share_one_root():
    assert issubclass(SpecError, ValueError)
    for exc in (ScopeError("x"), ParseError("x", SourcePosition(1, 1)), LogFormatError("x", 1)):
        assert isinstance(exc, SpecError)
    assert str(LogFormatError("empty column", 3)) == "event log row 3: empty column"
    assert "SpecError" in ftig.__all__


def _names(node):
    """The names an ``except`` clause's type expression mentions."""
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)} if node else set()


@pytest.mark.parametrize("path", sorted((FTIG_SRC / "ftig").rglob("*.py")),
                         ids=lambda p: p.relative_to(FTIG_SRC).as_posix())
def test_no_bare_value_error(path):
    # bad input raises SpecError; a builtin ValueError is a fault and must
    # reach main as one, so no module raises or catches ValueError itself
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name) and exc.id == "ValueError":
                found.append(f"line {node.lineno}: raise ValueError")
        elif isinstance(node, ast.ExceptHandler) and "ValueError" in _names(node.type):
            found.append(f"line {node.lineno}: except ValueError")
    assert found == []


@pytest.mark.parametrize("path", sorted((FTIG_SRC / "ftig").rglob("*.py")),
                         ids=lambda p: p.relative_to(FTIG_SRC).as_posix())
def test_no_recursion_error_handler(path):
    # nothing that nests recurses, so a RecursionError is a fault and must
    # reach main as one: too deep an input is a SpecError where it is read
    found = [f"line {node.lineno}: except RecursionError"
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.ExceptHandler) and "RecursionError" in _names(node.type)]
    assert found == []
