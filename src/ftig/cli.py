"""Command-line front end: parse, resolve, transform and check pipelines.

Exit status: 0 success (or closed / compliant), 1 failed check, 2 static
error (parse, resolution, unknown name, malformed or undecodable input:
any ``errors.SpecError``, whose subclasses include ``ScopeError``,
``ParseError`` and ``LogFormatError``), 3 capacity or arithmetic error,
4 internal error (any other exception, a builtin ``ValueError`` included,
reported by ``main`` on one line; ``run`` lets it propagate).  Results go
to stdout, diagnostics to stderr; set NO_COLOR to disable ANSI coloring of
diagnostics.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import report
from .algebra import Interface
from .architecture import (
    Architecture, check_closed, comply_events, diff, read_event_log,
)
from .errors import CapacityError, SpecError
from .locglob import decompose, globalize, localize
from .reflection import reduce_modulo_reflection
from .speclang import lint, parse_module, resolve
from .speclang.astnodes import SpecModule
from .transform import (
    ConditionalInterface, RefinementSpec, RenameMap, expand_motives, map_parts, refine, rename,
)


def _print_diagnostics(diags, stream=None):
    stream = stream if stream is not None else sys.stderr
    use_color = stream.isatty() and not os.environ.get("NO_COLOR")
    for d in diags:
        line = d.render()
        if use_color:
            color = "\x1b[31m" if d.severity == "error" else "\x1b[33m"
            line = f"{color}{line}\x1b[0m"
        print(line, file=stream)


def _read_text(path) -> str:
    try:
        with open(path, encoding="utf-8") as f:
            return f.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise SpecError(f"cannot read {path}: {exc}") from exc


def _load(args):
    module = SpecModule()
    for path in args.files:
        module.extend(parse_module(_read_text(path), filename=path))
    return resolve(module, allow_undeclared=args.allow_undeclared)


def _require_resolved(args):
    res = _load(args)
    _print_diagnostics(res.diagnostics)
    if not res.ok:
        raise SpecError(f"{len(res.errors)} resolution error(s)")
    return res


def _get_value(res, name):
    """The resolved ``Interface``, or ``ConditionalInterface`` when a branch survives."""
    if name not in res.interfaces:
        raise SpecError(f"unknown interface: {name}")
    return res.interfaces[name]


def _get_plain(res, name) -> Interface:
    value = _get_value(res, name)
    if not isinstance(value, Interface):
        raise SpecError(f"interface {name} is conditional; this command needs a plain interface")
    return value


def _get_architecture(res, name) -> Architecture:
    if name not in res.architectures:
        raise SpecError(f"unknown architecture: {name}")
    return res.architectures[name]


def _emit(args, doc, lines):
    """Write the JSON document ``doc()`` or the text ``lines()``, as ``--format``
    asks; only the one written is built."""
    if args.format == "json":
        sys.stdout.write(report.dumps(doc()))
    else:
        for line in lines():
            print(line)


def _emit_parts(args, command: str, key: str, parts, **fields) -> int:
    """Emit ``entity : rendered`` lines, or the same parts as JSON under ``key``."""
    fields[key] = (report.part_object(e, i) for e, i in parts)
    _emit(args, lambda: report.document(command, **fields),
          lambda: [f"{e} : {i.render()}" for e, i in parts])
    return 0


# ------------------------------------------------------------- handlers

def _cmd_check(args) -> int:
    res = _load(args)
    diags = list(res.diagnostics)
    if res.ok:
        diags += lint(res)
    _print_diagnostics(diags)
    checks = []
    failed = False
    if res.ok:
        for directive in res.directives():
            rep = check_closed(_get_architecture(res, directive.target), res.catalog)
            checks.append(rep)
            failed = failed or not rep.closed
    _emit(args, lambda: report.document(
        "check",
        ok=res.ok,
        checks=map(report.check_object, checks),
        diagnostics=map(report.diagnostic_object, diags),
    ), lambda: [
        *(f"closed {c.architecture}: {'CLOSED' if c.closed else 'NOT CLOSED'}" for c in checks),
        "OK" if res.ok and not failed else "FAILED",
    ])
    if not res.ok:
        return 2
    return 1 if failed else 0


def _closed_doc(rep) -> str:
    verdict = "closed" if rep.closed else "not-closed"
    if rep.plain is not None:
        residual = rep.plain.residual
        return report.document(
            "closed", architecture=rep.architecture, verdict=verdict,
            residual=report.interface_terms(residual.canonical),
            non_cancellable=map(report.generator_object, residual.non_cancellable),
            assignments=None,
        )
    return report.document(
        "closed", architecture=rep.architecture, verdict=verdict, residual=(),
        non_cancellable=(), assignments=report.assignment_cases(rep.conditional.cases),
    )


def _closed_lines(rep) -> list[str]:
    lines = ["CLOSED" if rep.closed else "NOT CLOSED"]
    if not rep.closed:
        lines.extend("  " + line for line in rep.residual_lines())
    return lines


def _cmd_closed(args) -> int:
    res = _require_resolved(args)
    rep = check_closed(_get_architecture(res, args.architecture), res.catalog)
    _emit(args, lambda: _closed_doc(rep), lambda: _closed_lines(rep))
    return 0 if rep.closed else 1


def _conditional_doc(value: ConditionalInterface) -> dict:
    return {
        "unconditional": report.interface_terms(value.unconditional),
        "branches": (report.branch_object(lit, iface) for lit, iface in value.branches),
    }


def _cmd_normalize(args) -> int:
    res = _require_resolved(args)
    value = _get_value(res, args.interface)
    if args.expand_motives:
        value = map_parts(value, expand_motives)
    if args.modulo_reflection:
        if value.branches:
            raise SpecError("cannot reduce a conditional interface modulo reflection")
        residual = reduce_modulo_reflection(value)
        for gen in residual.non_cancellable:
            print(f"warning: non-cancellable element {gen.text()}", file=sys.stderr)
        _emit(args, lambda: report.document(
            "normalize", interface=args.interface,
            rendered=residual.canonical.render(),
            terms=report.interface_terms(residual.canonical),
            non_cancellable=map(report.generator_object, residual.non_cancellable),
        ), lambda: [residual.canonical.render()])
        return 0

    def doc():
        fields = (_conditional_doc(value) if value.branches
                  else {"terms": report.interface_terms(value)})
        return report.document("normalize", interface=args.interface,
                               rendered=value.render(), **fields)

    _emit(args, doc, lambda: [value.render()])
    return 0


def _render_result(args, command: str, iface: Interface, **extra) -> int:
    _emit(args, lambda: report.document(command, rendered=iface.render(),
                                        terms=report.interface_terms(iface), **extra),
          lambda: [iface.render()])
    return 0


def _cmd_localize(args) -> int:
    res = _require_resolved(args)
    iface = localize(args.entity, _get_plain(res, args.interface))
    return _render_result(args, "localize", iface, entity=args.entity)


def _cmd_globalize(args) -> int:
    res = _require_resolved(args)
    iface = globalize(args.entity, _get_plain(res, args.interface), res.catalog)
    return _render_result(args, "globalize", iface, entity=args.entity)


def _cmd_decompose(args) -> int:
    res = _require_resolved(args)
    parts = decompose(_get_plain(res, args.interface)).parts
    return _emit_parts(args, "decompose", "parts", parts, interface=args.interface)


def _cmd_refine(args) -> int:
    res = _require_resolved(args)
    parts = tuple(p for p in args.into.split(",") if p)
    for part in parts:
        if res.catalog.has_entity(part):
            print(f"warning: refinement part {part} collides with a declared entity",
                  file=sys.stderr)
    spec = RefinementSpec(args.entity, parts)
    iface = refine(expand_motives(_get_plain(res, args.interface)), spec)
    return _render_result(args, "refine", iface, entity=args.entity,
                          into=map(report.string, parts))


def _read_rename_map(path: str) -> RenameMap:
    entity_map: dict[str, str] = {}
    action_map: dict[str, str] = {}
    motive_map: dict[str, str] = {}
    tables = {"entity": entity_map, "action": action_map, "motive": motive_map}
    for line_no, raw in enumerate(_read_text(path).splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        if len(fields) != 3 or fields[0] not in tables:
            raise SpecError(
                f"{path}:{line_no}: rename map lines are 'entity|action|motive OLD NEW'"
            )
        tables[fields[0]][fields[1]] = fields[2]
    return RenameMap(entity_map, action_map, motive_map)


def _cmd_rename(args) -> int:
    res = _require_resolved(args)
    mapping = _read_rename_map(args.map)
    iface = rename(_get_plain(res, args.interface), mapping)
    return _render_result(args, "rename", iface)


def _cmd_diff(args) -> int:
    res = _require_resolved(args)
    deltas = diff(_get_architecture(res, args.a), _get_architecture(res, args.b))
    return _emit_parts(args, "diff", "deltas", deltas, a=args.a, b=args.b)


def _violation_text(v) -> str:
    hint = ""
    if v.candidates:
        hint = " (closest: " + ", ".join(g.text() for g in v.candidates) + ")"
    return f"event {v.index}: {v.kind} at {v.entity}{hint}"


def _report_undeclared(unknown, allow_undeclared: bool):
    """Undeclared names are an error, or warnings under --allow-undeclared."""
    if not unknown:
        return
    if allow_undeclared:
        for line in unknown:
            print(f"warning: {line}", file=sys.stderr)
    else:
        raise SpecError("; ".join(unknown))


def _check_event_names(events, res, allow_undeclared: bool):
    tables = res.catalog.tables()
    unknown = []
    for index, ev in enumerate(events):
        for kind, name in (("entity", ev.source), ("entity", ev.destination),
                           ("action", ev.action), ("motive", ev.motive)):
            if name not in tables[kind]:
                unknown.append(f"event {index}: undeclared {kind} {name}")
    _report_undeclared(unknown, allow_undeclared)


def _parse_assignments(pairs, res, allow_undeclared: bool) -> dict | None:
    if not pairs:
        return None
    assignment = {}
    unknown = []
    for pair in pairs:
        var, eq, value = pair.partition("=")
        if not eq or value not in ("true", "false") or not var:
            raise SpecError(f"bad assignment {pair!r}; expected VAR=true or VAR=false")
        if var in assignment:
            raise SpecError(f"condition variable {var} assigned twice")
        if var not in res.catalog.condition_vars:
            unknown.append(f"assignment {pair}: undeclared condition {var}")
        assignment[var] = value == "true"
    _report_undeclared(unknown, allow_undeclared)
    return assignment


def _cmd_comply(args) -> int:
    res = _require_resolved(args)
    arch = _get_architecture(res, args.architecture)
    events = read_event_log(_read_text(args.log))
    _check_event_names(events, res, args.allow_undeclared)
    rep = comply_events(events, arch,
                        _parse_assignments(args.assign, res, args.allow_undeclared))
    for warning in rep.warnings:
        print(f"warning: {_violation_text(warning)}", file=sys.stderr)
    _emit(args, lambda: report.document(
        "comply", architecture=args.architecture, log=args.log,
        verdict="compliant" if rep.complies else "violations",
        violations=map(report.violation_object, rep.violations),
        warnings=map(report.violation_object, rep.warnings),
    ), lambda: [
        "COMPLIANT" if rep.complies else "NOT COMPLIANT",
        *(f"  {_violation_text(v)}" for v in rep.violations),
    ])
    return 0 if rep.complies else 1


# --------------------------------------------------------------- parser

def _add_common(sp):
    sp.add_argument("files", nargs="+", metavar="FILE",
                    help=".fti specification files, concatenated in order")
    sp.add_argument("--format", choices=("text", "json"), default="text",
                    help="output format (default: text)")
    sp.add_argument("--allow-undeclared", action="store_true",
                    help="treat undeclared names as extern declarations (warn only)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fti",
        description="Interface-group toolchain for financial-transfer architectures.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    sp = sub.add_parser("check", help="parse, resolve and lint; run check directives")
    _add_common(sp)
    sp.set_defaults(handler=_cmd_check)

    sp = sub.add_parser("closed", help="zero-sum closedness check of an architecture")
    sp.add_argument("architecture")
    _add_common(sp)
    sp.set_defaults(handler=_cmd_closed)

    sp = sub.add_parser("normalize", help="print the normal form of a named interface")
    sp.add_argument("interface")
    sp.add_argument("--modulo-reflection", action="store_true",
                    help="reduce to the canonical residual modulo reflection")
    sp.add_argument("--expand-motives", action="store_true",
                    help="distribute composite motives first")
    _add_common(sp)
    sp.set_defaults(handler=_cmd_normalize)

    sp = sub.add_parser("localize", help="project a global interface onto one entity")
    sp.add_argument("-e", "--entity", required=True)
    sp.add_argument("interface")
    _add_common(sp)
    sp.set_defaults(handler=_cmd_localize)

    sp = sub.add_parser("globalize", help="host a local interface at an entity")
    sp.add_argument("-e", "--entity", required=True)
    sp.add_argument("interface")
    _add_common(sp)
    sp.set_defaults(handler=_cmd_globalize)

    sp = sub.add_parser("decompose", help="split a global interface into per-entity parts")
    sp.add_argument("interface")
    _add_common(sp)
    sp.set_defaults(handler=_cmd_decompose)

    sp = sub.add_parser("refine", help="expand one entity into parallel parts")
    sp.add_argument("-f", "--entity", required=True, help="coarse entity to expand")
    sp.add_argument("--into", required=True, help="comma-separated part entities")
    sp.add_argument("interface")
    _add_common(sp)
    sp.set_defaults(handler=_cmd_refine)

    sp = sub.add_parser("rename", help="apply a catalog renaming to an interface")
    sp.add_argument("--map", required=True, help="rename map file")
    sp.add_argument("interface")
    _add_common(sp)
    sp.set_defaults(handler=_cmd_rename)

    sp = sub.add_parser("diff", help="per-entity deltas between two architectures")
    sp.add_argument("a")
    sp.add_argument("b")
    _add_common(sp)
    sp.set_defaults(handler=_cmd_diff)

    sp = sub.add_parser("comply", help="check a transfer-event log against an architecture")
    sp.add_argument("--log", required=True, help="CSV event log: source,destination,action,motive,reply")
    sp.add_argument("--assign", action="append", metavar="VAR=BOOL",
                    help="condition assignment for conditional members (repeatable)")
    sp.add_argument("architecture")
    _add_common(sp)
    sp.set_defaults(handler=_cmd_comply)

    return parser


def run(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except SpecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RecursionError:
        print("error: expression nesting too deep", file=sys.stderr)
        return 2
    except (CapacityError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


def main():
    try:
        code = run()
    except Exception as exc:  # a fault in ftig must not read as a verdict
        message = " ".join(str(exc).splitlines())
        print(f"internal error: {type(exc).__name__}: {message}", file=sys.stderr)
        code = 4
    sys.exit(code)


if __name__ == "__main__":
    main()
