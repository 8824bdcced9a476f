"""Specification-language front end: lexer, parser, resolver."""

from .astnodes import SpecModule
from .lexer import tokenize
from .parser import parse_expression, parse_module
from .resolver import (
    Diagnostic, Resolution, build_catalog, evaluate_expression_text, lint, resolve,
)

__all__ = [
    "Diagnostic", "Resolution", "SpecModule", "build_catalog",
    "evaluate_expression_text", "lint", "parse_expression", "parse_module",
    "resolve", "tokenize",
]
