"""The JSON writer against ``json.dumps(obj, indent=2)`` of the dict trees
that the reports were built from before (``old_report``)."""

import json
import subprocess
import sys

from hypothesis import example, given, settings
from hypothesis import strategies as st

import old_report as old
from ftig import cli, report
from ftig.algebra import ALPHAS, CLIENT, I64_MAX, I64_MIN, SERVICE, Generator, Interface
from ftig.architecture import ArchitectureReport, Violation
from ftig.errors import SourcePosition
from ftig.reflection import Residual
from ftig.speclang.resolver import Diagnostic
from ftig.transform import AssignmentReport, ConditionalInterface, ConditionLiteral

from conftest import FIXTURES, cli_env
from test_acceptance import CLI_RUNS

# any code point, lone surrogates included: names, paths and messages come from argv
CODE_POINTS = st.one_of(st.integers(0, 0x7F), st.integers(0xD800, 0xDFFF),
                        st.integers(0, 0x10FFFF))
TEXT = st.lists(CODE_POINTS, max_size=6).map(lambda cps: "".join(map(chr, cps)))
NAMES = st.lists(CODE_POINTS, min_size=1, max_size=6).map(lambda cps: "".join(map(chr, cps)))
INTS = st.one_of(st.integers(I64_MIN, I64_MAX), st.sampled_from((I64_MIN, I64_MAX, -1, 0, 1)))
DEPTHS = st.integers(0, 4)


def old_text(obj, depth: int) -> str:
    """``json.dumps(obj, indent=2)`` laid out at ``depth``."""
    return json.dumps(obj, indent=2).replace("\n", "\n" + "  " * depth)


@st.composite
def generators(draw, local=None):
    if local is None:
        local = draw(st.booleans())
    return Generator(draw(NAMES), draw(NAMES), draw(st.lists(NAMES, max_size=3)),
                     draw(st.sampled_from((SERVICE, CLIENT))),
                     None if local else draw(NAMES), draw(st.sampled_from(ALPHAS)))


@st.composite
def interfaces(draw, local=None):
    if local is None:
        local = draw(st.booleans())
    return Interface(draw(st.dictionaries(generators(local), INTS, max_size=4)))


@st.composite
def diagnostics(draw):
    pos = draw(st.none() | st.builds(SourcePosition, st.integers(1, 10**6),
                                     st.integers(1, 10**3), st.none() | TEXT))
    return Diagnostic(draw(st.sampled_from(("error", "warning"))), draw(TEXT), pos)


VIOLATIONS = st.builds(Violation, st.integers(0, 10**9), TEXT,
                       st.sampled_from(("outgoing", "incoming")), NAMES,
                       st.lists(generators(), max_size=3).map(tuple))
LITERALS = st.builds(ConditionLiteral, NAMES, st.booleans())
RESIDUALS = interfaces().map(Residual)


@st.composite
def assignment_cases(draw):
    """Cases over a few variables; some cases share one residual."""
    variables = draw(st.lists(NAMES, max_size=3, unique=True))
    pool = draw(st.lists(RESIDUALS, min_size=1, max_size=3))
    return tuple(
        (tuple((var, draw(st.booleans())) for var in variables), draw(st.sampled_from(pool)))
        for _ in range(draw(st.integers(0, 5)))
    )


G1 = Generator("e2", "a", (), SERVICE, None)
G2 = Generator("é", "\udc80", ("m", "\U0001f4b0"), CLIENT, "e1", "T")


class TestTemplateOracle:
    """Each template's text equals ``json.dumps(old_object, indent=2)`` at
    every depth, and its element lists equal the old lists element by element."""

    @given(gen=generators(), depth=DEPTHS)
    @example(gen=G1, depth=2)
    @example(gen=G2, depth=0)
    @settings(max_examples=150, deadline=None)
    def test_generator(self, gen, depth):
        assert report.generator_object(gen, depth) == \
            old_text(old.generator_object(gen), depth)

    @given(gen=generators(), coefficient=INTS, depth=DEPTHS)
    @example(gen=G1, coefficient=I64_MAX, depth=2)
    @example(gen=G2, coefficient=I64_MIN, depth=4)
    @settings(max_examples=150, deadline=None)
    def test_term(self, gen, coefficient, depth):
        assert report.term_object(gen, coefficient, depth) == \
            old_text(old.term_object(gen, coefficient), depth)

    @given(iface=interfaces(), depth=DEPTHS)
    @example(iface=Interface(), depth=2)
    @settings(max_examples=150, deadline=None)
    def test_interface_terms(self, iface, depth):
        assert report.interface_terms(iface, depth) == \
            [old_text(obj, depth) for obj in old.interface_terms(iface)]

    @given(diag=diagnostics(), depth=DEPTHS)
    @example(diag=Diagnostic("error", "", None), depth=2)
    @example(diag=Diagnostic("warning", "ü\ud800", SourcePosition(3, 7, None)), depth=2)
    @settings(max_examples=150, deadline=None)
    def test_diagnostic(self, diag, depth):
        assert report.diagnostic_object(diag, depth) == \
            old_text(old.diagnostic_object(diag), depth)

    @given(v=VIOLATIONS, depth=DEPTHS)
    @settings(max_examples=150, deadline=None)
    def test_violation(self, v, depth):
        assert report.violation_object(v, depth) == old_text(old._violation_object(v), depth)

    @given(name=TEXT, residual=RESIDUALS, depth=DEPTHS)
    @settings(max_examples=100, deadline=None)
    def test_check(self, name, residual, depth):
        rep = ArchitectureReport(name, residual)
        assert report.check_object(rep, depth) == old_text(old.check_object(rep), depth)

    @given(entity=NAMES, iface=interfaces(), depth=DEPTHS)
    @settings(max_examples=150, deadline=None)
    def test_part(self, entity, iface, depth):
        assert report.part_object(entity, iface, depth) == \
            old_text(old.part_object(entity, iface), depth)

    @given(lit=LITERALS, iface=interfaces(), depth=DEPTHS)
    @settings(max_examples=150, deadline=None)
    def test_branch(self, lit, iface, depth):
        assert report.branch_object(lit, iface, depth) == \
            old_text(old.branch_object(lit, iface), depth)

    @given(cases=assignment_cases(), depth=DEPTHS)
    @settings(max_examples=100, deadline=None)
    def test_assignment_cases(self, cases, depth):
        rep = ArchitectureReport("A", conditional=AssignmentReport(cases))
        olds = old._closed_doc(rep)["assignments"]
        assert list(report.assignment_cases(cases, depth)) == \
            [old_text(obj, depth) for obj in olds]

    @given(command=TEXT,
           fields=st.dictionaries(TEXT, st.one_of(
               st.none(), st.booleans(), INTS, TEXT,
               st.lists(generators(), max_size=3), st.lists(NAMES, max_size=3),
           ), max_size=5))
    @settings(max_examples=150, deadline=None)
    def test_document(self, command, fields):
        def texts(value):
            if not isinstance(value, list):
                return value
            return [report.generator_object(v) if isinstance(v, Generator) else report.string(v)
                    for v in value]
        # the envelope's own keys are not fields
        fields.pop("schema", None)
        fields.pop("command", None)
        olds = {k: [old.generator_object(v) if isinstance(v, Generator) else v for v in value]
                if isinstance(value, list) else value for k, value in fields.items()}
        assert report.dumps(report.document(command, **{k: texts(v) for k, v in fields.items()})) \
            == old.dumps(old.document(command, **olds))


class TestDocumentOracle:
    """Whole documents from the CLI's builders equal the old ones."""

    @given(name=TEXT, residual=RESIDUALS)
    @settings(max_examples=100, deadline=None)
    def test_plain_closed(self, name, residual):
        rep = ArchitectureReport(name, residual)
        assert report.dumps(cli._closed_doc(rep)) == old.dumps(old._closed_doc(rep))

    @given(name=TEXT, cases=assignment_cases())
    @settings(max_examples=100, deadline=None)
    def test_conditional_closed(self, name, cases):
        rep = ArchitectureReport(name, conditional=AssignmentReport(cases))
        assert report.dumps(cli._closed_doc(rep)) == old.dumps(old._closed_doc(rep))

    @given(local=st.booleans(), data=st.data())
    @settings(max_examples=50, deadline=None)
    def test_conditional_normalize(self, local, data):
        value = ConditionalInterface(
            data.draw(interfaces(local)),
            data.draw(st.dictionaries(LITERALS, interfaces(local), max_size=3)))
        new = report.document("normalize", interface="I", rendered="r",
                              **cli._conditional_doc(value))
        assert report.dumps(new) == old.dumps(old.document(
            "normalize", interface="I", rendered="r", **old._conditional_doc(value)))


def test_cli_json_is_json_dumps_layout():
    """Every run of the acceptance corpus, in JSON, is laid out as json.dumps(indent=2)."""
    for code, argv in CLI_RUNS:
        if "--format" not in argv:
            argv = (*argv, "--format", "json")
        proc = subprocess.run([sys.executable, "-m", "ftig.cli", *argv], capture_output=True,
                              cwd=FIXTURES, env=cli_env(NO_COLOR="1"), text=True)
        out = proc.stdout
        assert proc.returncode == code, (argv, proc.stderr)
        assert out and json.dumps(json.loads(out), indent=2) + "\n" == out, argv
