"""Command-line front end: parse, resolve, transform and check pipelines.

Exit status: 0 success (or closed / compliant), 1 failed check, 2 static
error (parse, resolution, unknown name, malformed or undecodable input:
any ``errors.SpecError``, whose subclasses include ``ScopeError``,
``ParseError`` and ``LogFormatError``), 3 capacity or arithmetic error,
4 internal error (any other exception, a builtin ``ValueError`` included,
reported by ``main`` on one line; ``run`` lets it propagate).  A stdout that
cannot be written (a full disk, a pipe whose reader has gone) is an internal
error too: ``main`` flushes stdout before it exits, so the failure is exit 4
whether or not output is buffered.  A closed stdout is exit 4 in every
format, with ``internal error: OSError: stdout is closed``, once a command
has a result to write.  Results go to stdout, diagnostics and usage errors to
stderr, one line each with unprintable characters escaped; with stderr closed
they are dropped, never sent to stdout.  Set NO_COLOR to disable ANSI
coloring of diagnostics.

The commands are declared once, as data, in ``COMMANDS``; add a command
there and write its ``_cmd_NAME`` handler.  ``run`` reads the common forms
of argv with a small matcher over that table, and builds the ``argparse``
parser only for help, usage errors and the forms the matcher declines, so
argparse is the one source of help and usage text.
"""

from __future__ import annotations

import gc
import os
import sys
from types import SimpleNamespace

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


def _stderr(line: str, color: str = "") -> None:
    """Write ``line`` to stderr as one line.

    Each character that ``str.isprintable`` rejects is escaped as ``repr``
    escapes it, so text from the input cannot break the line or reach the
    terminal as a control sequence; then ``color``, an ANSI code, wraps the
    line when stderr is a terminal and NO_COLOR is unset.  With stderr
    closed nothing is written: ``print`` would fall back to stdout.
    """
    if sys.stderr is None:
        return
    if not line.isprintable():
        line = "".join(c if c.isprintable() else repr(c)[1:-1] for c in line)
    if color and sys.stderr.isatty() and not os.environ.get("NO_COLOR"):
        line = f"{color}{line}\x1b[0m"
    print(line, file=sys.stderr)


def _print_diagnostics(diags):
    for d in diags:
        _stderr(d.render(), "\x1b[31m" if d.severity == "error" else "\x1b[33m")


def _read_text(path) -> str:
    try:
        with open(path, encoding="utf-8-sig") as f:
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
    asks; only the one written is built.  A closed stdout is a fault."""
    if sys.stdout is None:
        raise OSError("stdout is closed")
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
        return report.document(
            "closed", architecture=rep.architecture, verdict=verdict,
            residual=report.interface_terms(rep.plain.canonical),
            non_cancellable=map(report.generator_object, rep.plain.non_cancellable),
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
            _stderr(f"warning: non-cancellable element {gen.text()}")
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
            _stderr(f"warning: refinement part {part} collides with a declared entity")
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
            _stderr(f"warning: {line}")
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
        _stderr(f"warning: {_violation_text(warning)}")
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

def _arg(*flags, **kwargs):
    """One ``add_argument`` call, as data: its name or flags and keywords."""
    return flags, kwargs


# every command's last arguments, in add_argument order
_COMMON = (
    _arg("files", nargs="+", metavar="FILE",
         help=".fti specification files, concatenated in order"),
    _arg("--format", choices=("text", "json"), default="text",
         help="output format (default: text)"),
    _arg("--allow-undeclared", action="store_true",
         help="treat undeclared names as extern declarations (warn only)"),
)

# name -> (help, the arguments before _COMMON, in add_argument order).  The
# order is argparse's too: it lists missing required arguments in it.  Command
# NAME runs _cmd_NAME, looked up when argv is parsed.  An option's long flag
# comes last; its dest is derived from it, as argparse derives it.
COMMANDS = {
    "check": ("parse, resolve and lint; run check directives", ()),
    "closed": ("zero-sum closedness check of an architecture", (_arg("architecture"),)),
    "normalize": ("print the normal form of a named interface", (
        _arg("interface"),
        _arg("--modulo-reflection", action="store_true",
             help="reduce to the canonical residual modulo reflection"),
        _arg("--expand-motives", action="store_true", help="distribute composite motives first"),
    )),
    "localize": ("project a global interface onto one entity", (
        _arg("-e", "--entity", required=True), _arg("interface"),
    )),
    "globalize": ("host a local interface at an entity", (
        _arg("-e", "--entity", required=True), _arg("interface"),
    )),
    "decompose": ("split a global interface into per-entity parts", (_arg("interface"),)),
    "refine": ("expand one entity into parallel parts", (
        _arg("-f", "--entity", required=True, help="coarse entity to expand"),
        _arg("--into", required=True, help="comma-separated part entities"),
        _arg("interface"),
    )),
    "rename": ("apply a catalog renaming to an interface", (
        _arg("--map", required=True, help="rename map file"), _arg("interface"),
    )),
    "diff": ("per-entity deltas between two architectures", (_arg("a"), _arg("b"))),
    "comply": ("check a transfer-event log against an architecture", (
        _arg("--log", required=True,
             help="CSV event log: source,destination,action,motive,reply"),
        _arg("--assign", action="append", metavar="VAR=BOOL",
             help="condition assignment for conditional members (repeatable)"),
        _arg("architecture"),
    )),
}


def build_parser():
    """The full ``argparse`` parser of ``COMMANDS``, which ``run`` uses for
    help and usage errors; argparse is imported only here."""
    import argparse

    class Parser(argparse.ArgumentParser):
        """Usage errors go through ``_stderr``, so argv text in them is
        escaped; subcommand parsers inherit the class."""

        def error(self, message):
            for line in self.format_usage().splitlines():
                _stderr(line)
            _stderr(f"{self.prog}: error: {message}")
            self.exit(2)

    parser = Parser(
        prog="fti",
        description="Interface-group toolchain for financial-transfer architectures.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")
    for name, (text, arguments) in COMMANDS.items():
        sp = sub.add_parser(name, help=text)
        for flags, kwargs in (*arguments, *_COMMON):
            sp.add_argument(*flags, **kwargs)
        sp.set_defaults(handler=globals()[f"_cmd_{name}"])
    return parser


def _match(argv):
    """The namespace ``build_parser().parse_args(argv)`` returns, or ``None``
    where argparse must read argv.

    It declines rather than emulates: a first word that is not a command,
    a word starting with ``-`` that is not exactly one of the command's
    flags (``-h``, ``--``, ``-``, ``--opt=value`` and abbreviations), a
    missing value, a value starting with ``-`` or outside its choices, a
    missing positional or required option, and a positional word after
    ``FILE...`` has taken its words.  As in argparse, each run of words
    between options fills the remaining positionals in order, and
    ``FILE...`` takes the rest of its run.
    """
    if not argv or argv[0] not in COMMANDS:
        return None
    name = argv[0]
    values = {"command": name, "handler": globals()[f"_cmd_{name}"]}
    options, positionals, required = {}, [], []
    for flags, kwargs in (*COMMANDS[name][1], *_COMMON):
        if not flags[0].startswith("-"):
            positionals.append(flags[0])
            continue
        dest = flags[-1][2:].replace("-", "_")
        action = kwargs.get("action")
        values[dest] = False if action == "store_true" else kwargs.get("default")
        if kwargs.get("required"):
            required.append(dest)
        options.update(dict.fromkeys(flags, (dest, action, kwargs.get("choices"))))
    groups = [[]]  # the runs of positional words between options
    words = iter(argv[1:])
    for word in words:
        if not word.startswith("-"):
            groups[-1].append(word)
            continue
        if word not in options:
            return None
        dest, action, choices = options[word]
        groups.append([])
        if action == "store_true":
            values[dest] = True
            continue
        value = next(words, "-")  # a missing value declines as a "-" one does
        if value.startswith("-") or (choices and value not in choices):
            return None
        values[dest] = [*(values[dest] or ()), value] if action == "append" else value
    for group in filter(None, groups):
        if not positionals:
            return None  # argparse: unrecognized arguments
        if len(group) < len(positionals):
            values.update(zip(positionals, group))
            positionals = positionals[len(group):]
        else:
            values.update(zip(positionals[:-1], group))
            values[positionals[-1]] = group[len(positionals) - 1:]
            positionals = []
    if positionals or any(values[dest] is None for dest in required):
        return None
    return SimpleNamespace(**values)


def run(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _match(argv) or build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except SpecError as exc:
        _stderr(f"error: {exc}")
        return 2
    except RecursionError:
        _stderr("error: expression nesting too deep")
        return 2
    except (CapacityError, OverflowError) as exc:
        _stderr(f"error: {exc}")
        return 3


def main():
    # ftig's values are acyclic (records, tuples and dicts), so on a one-shot
    # run the cyclic collector and the interpreter's teardown (a last full
    # collection, then clearing every module) only cost time: collect nothing,
    # and leave with os._exit once stdout and stderr are flushed.  run() and
    # the library keep the collector.
    gc.disable()
    try:
        try:
            code = run()
            if sys.stdout is not None:
                sys.stdout.flush()  # inside the try: an unwritable stdout is exit 4
        except Exception as exc:  # a fault in ftig must not read as a verdict
            message = " ".join(str(exc).splitlines())
            _stderr(f"internal error: {type(exc).__name__}: {message}")
            code = 4
        if sys.stderr is not None:
            sys.stderr.flush()
        os._exit(code)
    finally:  # reached only if os._exit is replaced, or on SystemExit or KeyboardInterrupt
        gc.enable()


if __name__ == "__main__":
    main()
