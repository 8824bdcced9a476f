"""Verbatim copy of ``ftig.report`` and of the ``ftig.cli`` document builders
from when every JSON report was a dict tree serialized by
``json.dumps(doc, indent=2)``, kept as the oracle for ``test_report``.

Only the imports are changed, and ``report.`` is dropped from the calls
into this same module.  ``part_object``, ``branch_object`` and
``check_object`` wrap, in a ``def`` of their own, the dict expressions
that ``_emit_parts``, ``_conditional_doc`` and ``_cmd_check`` built
inline.
"""

from __future__ import annotations

import json

from ftig.algebra import Generator, Interface
from ftig.transform import ConditionalInterface

SCHEMA_VERSION = 1


def generator_object(gen: Generator) -> dict:
    return {
        "host": gen.host,
        "polarity": gen.polarity,
        "target": gen.target,
        "action": gen.action,
        "motive": list(gen.motive),
        "alpha": gen.alpha,
    }


def term_object(gen: Generator, coefficient: int) -> dict:
    obj = generator_object(gen)
    obj["coefficient"] = coefficient
    return obj


def interface_terms(iface: Interface) -> list[dict]:
    return [term_object(g, c) for g, c in iface]


def diagnostic_object(diag) -> dict:
    obj = {"severity": diag.severity, "message": diag.message}
    if diag.pos is not None:
        obj["file"] = diag.pos.file
        obj["line"] = diag.pos.line
        obj["col"] = diag.pos.col
    return obj


def document(command: str, **fields) -> dict:
    doc = {"schema": SCHEMA_VERSION, "command": command}
    doc.update(fields)
    return doc


def dumps(doc: dict) -> str:
    return json.dumps(doc, indent=2) + "\n"


def _closed_doc(rep) -> dict:
    fields = {
        "architecture": rep.architecture,
        "verdict": "closed" if rep.closed else "not-closed",
    }
    if rep.plain is not None:
        fields["residual"] = interface_terms(rep.plain.canonical)
        fields["non_cancellable"] = [generator_object(g)
                                     for g in rep.plain.non_cancellable]
        fields["assignments"] = None
    else:
        fields["residual"] = []
        fields["non_cancellable"] = []
        fields["assignments"] = [
            {
                "assignment": {var: value for var, value in assignment},
                "verdict": "closed" if case.closed else "not-closed",
                "residual": interface_terms(case.canonical),
            }
            for assignment, case in rep.conditional.cases
        ]
    return document("closed", **fields)


def _conditional_doc(value: ConditionalInterface) -> dict:
    return {
        "unconditional": interface_terms(value.unconditional),
        "branches": [
            {"condition": lit.text(), "terms": interface_terms(iface)}
            for lit, iface in value.branches
        ],
    }


def _violation_object(v) -> dict:
    return {
        "event": v.index,
        "kind": v.kind,
        "side": v.side,
        "entity": v.entity,
        "candidates": [generator_object(g) for g in v.candidates],
    }


def part_object(e, i) -> dict:
    return {"entity": e, "rendered": i.render(), "terms": interface_terms(i)}


def branch_object(lit, iface) -> dict:
    return {"condition": lit.text(), "terms": interface_terms(iface)}


def check_object(c) -> dict:
    return {"kind": "closed", "architecture": c.architecture,
            "verdict": "closed" if c.closed else "not-closed"}
