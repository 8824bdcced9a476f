import gc
import importlib.util
import io
import json
import os
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ftig import cli
from ftig.cli import run

from conftest import FIXTURES, cli_env
from test_acceptance import CLI_RUNS


def fx(name):
    return str(FIXTURES / name)


CORPUS = [fx("catalog.fti"), fx("lfti_maeiis.fti")]


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestClosed:
    def test_two_entity_closed(self, capsys):
        code, out, err = invoke(capsys, "closed", "TwoEntity", fx("two_entity.fti"))
        assert code == 0
        assert out == "CLOSED\n"

    def test_dangling_not_closed(self, capsys):
        code, out, err = invoke(capsys, "closed", "Dangling", fx("two_entity.fti"))
        assert code == 1
        assert out == "NOT CLOSED\n  e1 -> e2 : a(m) x +1\n"
        assert err == ""

    def test_non_tf_residual_lines(self, capsys, tmp_path):
        # a non-TF element is listed as a residual term and again as
        # non-cancellable; client-polarity terms name their incoming side
        spec = tmp_path / "nontf.fti"
        spec.write_text("entity e1\nentity e2\naction a\naction b\nmotive m\n"
                        "architecture NonTF {\n  e1 : { e2.a(m)/T },\n"
                        "  e2 : { ~e1.b(m)/F }\n}\n")
        code, out, err = invoke(capsys, "closed", "NonTF", str(spec))
        assert code == 1
        assert out == ("NOT CLOSED\n"
                       "  e1 -> e2 : a(m)/T x +1\n"
                       "  e1 -> e2 (incoming side) : b(m)/F x +1\n"
                       "  non-cancellable reply constraint: e2.a(m)@e1/T\n"
                       "  non-cancellable reply constraint: ~e1.b(m)@e2/F\n")
        assert err == ""

    def test_conditional_not_closed_lists_each_open_assignment(self, capsys, tmp_path):
        spec = tmp_path / "cond.fti"
        spec.write_text("entity g\nentity f\naction a\naction b\nmotive m\ncondition c\n"
                        "architecture CondOpen {\n"
                        "  g : { (2 x f.a(m)) <| c |> f.b(m) },\n"
                        "  f : { ~g.a(m) <| c |> 0 }\n}\n")
        code, out, err = invoke(capsys, "closed", "CondOpen", str(spec))
        assert code == 1
        assert out == ("NOT CLOSED\n"
                       "  under c=false:\n"
                       "    g -> f : b(m) x +1\n"
                       "  under c=true:\n"
                       "    g -> f : a(m) x +1\n")
        assert err == ""

    def test_closed_json_schema(self, capsys):
        code, out, _ = invoke(capsys, "closed", "TwoEntity", fx("two_entity.fti"),
                              "--format", "json")
        doc = json.loads(out)
        assert code == 0
        assert doc["schema"] == 1
        assert doc["verdict"] == "closed"
        assert doc["residual"] == []

    def test_not_closed_json_residual_term(self, capsys):
        _, out, _ = invoke(capsys, "closed", "Dangling", fx("two_entity.fti"),
                           "--format", "json")
        doc = json.loads(out)
        assert doc["residual"] == [{
            "host": "e1", "polarity": "service", "target": "e2", "action": "a",
            "motive": ["m"], "alpha": "TF", "coefficient": 1,
        }]

    def test_conditional_architecture(self, capsys):
        code, out, _ = invoke(capsys, "closed", "CondPair", fx("conditional.fti"))
        assert code == 0 and out == "CLOSED\n"

    def test_unknown_architecture(self, capsys):
        code, _, err = invoke(capsys, "closed", "Nope", fx("two_entity.fti"))
        assert code == 2
        assert "Nope" in err

    def test_closed_fixture_corpus(self, capsys):
        code, out, _ = invoke(capsys, "closed", "ClosedMaEIis",
                              *CORPUS, fx("closed_arch.fti"))
        assert code == 0 and out == "CLOSED\n"

    @pytest.mark.parametrize("fmt, golden", [("json", "cond_open_closed.json"),
                                             ("text", "cond_open_closed.txt")])
    def test_conditional_report_golden(self, capsys, fmt, golden):
        # three variables, negated literals, a /T term and a TF self-loop
        code, out, err = invoke(capsys, "closed", "CondOpen", fx("cond_open.fti"),
                                "--format", fmt)
        assert code == 1 and err == ""
        assert out == (FIXTURES / "golden" / golden).read_text(encoding="utf-8")


class TestCheck:
    def test_corpus_checks_clean(self, capsys):
        code, out, err = invoke(capsys, "check", *CORPUS)
        assert code == 0
        assert out.endswith("OK\n")

    def test_undeclared_name_is_static_error_with_position(self, capsys, tmp_path):
        bad = tmp_path / "bad.fti"
        bad.write_text("action a\nmotive m\ninterface I { XYZ.a(m) }\n")
        code, _, err = invoke(capsys, "check", str(bad))
        assert code == 2
        assert f"{bad}:3:15: error: undeclared entity: XYZ" in err

    def test_allow_undeclared_downgrades(self, capsys, tmp_path):
        bad = tmp_path / "bad.fti"
        bad.write_text("action a\nmotive m\ninterface I { XYZ.a(m) }\n")
        code, out, err = invoke(capsys, "check", str(bad), "--allow-undeclared")
        assert code == 0
        assert "warning" in err

    def test_parse_error_position(self, capsys, tmp_path):
        bad = tmp_path / "broken.fti"
        bad.write_text("interface I {\n  2 f.a(m)\n}\n")
        code, _, err = invoke(capsys, "check", str(bad))
        assert code == 2
        assert f"{bad}:2:3" in err

    def test_directives_run_and_fail_with_exit_1(self, capsys, tmp_path):
        spec = tmp_path / "open.fti"
        spec.write_text("entity e1\nentity e2\naction a\nmotive m\n"
                        "architecture A { e1 : { e2.a(m) } }\ncheck closed A\n")
        code, out, _ = invoke(capsys, "check", str(spec))
        assert code == 1
        assert "closed A: NOT CLOSED" in out


class TestNormalize:
    def test_normalize_renders_normal_form(self, capsys):
        code, out, _ = invoke(capsys, "normalize", "I1", fx("two_entity.fti"))
        assert code == 0 and out == "e2.a(m)\n"

    def test_modulo_reflection_example(self, capsys, tmp_path):
        spec = tmp_path / "m.fti"
        spec.write_text("entity e1\nentity e2\naction a\nmotive m\n"
                        "interface N @global { ~e1.a(m)@e2 }\n")
        code, out, _ = invoke(capsys, "normalize", "N", "--modulo-reflection", str(spec))
        assert code == 0
        assert out == "-e2.a(m)@e1\n"

    def test_expand_motives_flag(self, capsys):
        code, out, _ = invoke(capsys, "normalize", "LFTI4MaEIis2", "--expand-motives",
                              *CORPUS)
        assert code == 0
        assert "(mbba + fbba + us)" not in out
        assert "SE.it(mbba)" in out

    def test_output_reparses_to_same_interface(self, capsys):
        from ftig.speclang import evaluate_expression_text
        code, out, _ = invoke(capsys, "normalize", "LFTI4MaEIis1", *CORPUS)
        assert code == 0
        reparsed = evaluate_expression_text(out.strip())
        assert reparsed.render() + "\n" == out


# K has one branch, which motive expansion empties; I is conditional, and B
# lists it twice with opposite signs, so the merged member has no branch
PLAIN_OR_CONDITIONAL = ("entity e\nentity f\naction a\nmotive m\ncondition c\n"
                        "interface K @local { f.a(0) <| c |> 0 }\n"
                        "interface I @local { f.a(m) <| c |> 0 }\n"
                        "architecture A { e : K, f : 0 }\n"
                        "architecture B { e : I, e : -I }\n")

CLOSED_ENVELOPE = ('{\n  "schema": 1,\n  "command": "closed",\n  "architecture": "%s",\n'
                   '  "verdict": "closed",\n  "residual": [],\n  "non_cancellable": [],\n')


class TestPlainOrConditional:
    """A value or member is plain unless a branch survives."""

    @pytest.mark.parametrize("argv, text, json_out", [
        (("normalize", "K", "--expand-motives"), "0\n",
         '{\n  "schema": 1,\n  "command": "normalize",\n  "interface": "K",\n'
         '  "rendered": "0",\n  "terms": []\n}\n'),
        (("normalize", "K", "--expand-motives", "--modulo-reflection"), "0\n",
         '{\n  "schema": 1,\n  "command": "normalize",\n  "interface": "K",\n'
         '  "rendered": "0",\n  "terms": [],\n  "non_cancellable": []\n}\n'),
        # A has a conditional member whose branch vanishes once hosted and expanded
        (("closed", "A"), "CLOSED\n",
         CLOSED_ENVELOPE % "A"
         + '  "assignments": [\n    {\n      "assignment": {},\n'
           '      "verdict": "closed",\n      "residual": []\n    }\n  ]\n}\n'),
        (("closed", "B"), "CLOSED\n", CLOSED_ENVELOPE % "B" + '  "assignments": null\n}\n'),
    ], ids=["normalize-expanded", "normalize-reduced", "closed-conditional", "closed-plain"])
    def test_output(self, capsys, tmp_path, argv, text, json_out):
        spec = tmp_path / "plain.fti"
        spec.write_text(PLAIN_OR_CONDITIONAL)
        for fmt, want in (("text", text), ("json", json_out)):
            assert invoke(capsys, *argv, str(spec), "--format", fmt) == (0, want, "")


class TestTransforms:
    def test_localize(self, capsys, tmp_path):
        spec = tmp_path / "g.fti"
        spec.write_text("entity e1\nentity e2\naction a\nmotive m\n"
                        "interface G @global { e2.a(m)@e1 + e1.a(m)@e2 }\n")
        code, out, _ = invoke(capsys, "localize", "-e", "e1", "G", str(spec))
        assert code == 0 and out == "e2.a(m)\n"

    def test_globalize(self, capsys):
        code, out, _ = invoke(capsys, "globalize", "-e", "e1", "I1", fx("two_entity.fti"))
        assert code == 0 and out == "e2.a(m)@e1\n"

    def test_globalize_unknown_entity(self, capsys):
        code, _, err = invoke(capsys, "globalize", "-e", "nowhere", "I1",
                              fx("two_entity.fti"))
        assert code == 2 and "nowhere" in err

    def test_decompose(self, capsys, tmp_path):
        spec = tmp_path / "g.fti"
        spec.write_text("entity e1\nentity e2\naction a\nmotive m\n"
                        "interface G @global { e2.a(m)@e1 + ~e1.a(m)@e2 }\n")
        code, out, _ = invoke(capsys, "decompose", "G", str(spec))
        assert code == 0
        assert out == "e1 : e2.a(m)\ne2 : ~e1.a(m)\n"

    def test_refine(self, capsys, tmp_path):
        spec = tmp_path / "r.fti"
        spec.write_text("entity f\nentity g\naction a\nmotive m\n"
                        "extern entity f1\nextern entity f2\n"
                        "interface G @global { g.a(m)@f }\n")
        code, out, _ = invoke(capsys, "refine", "-f", "f", "--into", "f1,f2", "G", str(spec))
        assert code == 0
        assert out == "g.a(m)@f1 + g.a(m)@f2\n"

    def test_rename_with_map_file(self, capsys):
        code, out, _ = invoke(capsys, "rename", "--map", fx("rename.map"),
                              "LFTI4MaEIis0", *CORPUS)
        assert code == 0
        assert "hmt:nsla" not in out
        assert "FSB" not in out

    def test_diff(self, capsys):
        code, out, _ = invoke(capsys, "diff", "TwoEntity", "Dangling", fx("two_entity.fti"))
        assert code == 0
        assert out == "e1 : 0\ne2 : -~e1.a(m)\n"

    def test_parts_json_fields(self, capsys):
        _, out, _ = invoke(capsys, "decompose", "Sum", fx("two_entity.fti"),
                           "--format", "json")
        parts = json.loads(out)["parts"]
        assert [list(p) for p in parts] == [["entity", "rendered", "terms"]] * 2
        assert [(p["entity"], p["rendered"]) for p in parts] == [("e1", "e2.a(m)"),
                                                                 ("e2", "~e1.a(m)")]
        _, out, _ = invoke(capsys, "diff", "TwoEntity", "Dangling", fx("two_entity.fti"),
                           "--format", "json")
        deltas = json.loads(out)["deltas"]
        assert [list(d) for d in deltas] == [["entity", "rendered", "terms"]] * 2
        assert [(d["entity"], d["rendered"]) for d in deltas] == [("e1", "0"),
                                                                  ("e2", "-~e1.a(m)")]

    def test_interface_outputs_reparse(self, capsys):
        from ftig.speclang import evaluate_expression_text
        for argv in (("localize", "-e", "e1", "Sum", fx("two_entity.fti")),
                     ("globalize", "-e", "e1", "I1", fx("two_entity.fti")),
                     ("decompose", "Sum", fx("two_entity.fti")),
                     ("diff", "TwoEntity", "Dangling", fx("two_entity.fti"))):
            code, out, _ = invoke(capsys, *argv)
            assert code == 0
            for line in out.splitlines():
                body = line.split(" : ", 1)[-1]
                evaluate_expression_text(body)  # must parse as an interface


class TestComply:
    def test_compliant_log(self, capsys):
        code, out, _ = invoke(capsys, "comply", "--log", fx("log_ok.csv"),
                              "TwoEntity", fx("two_entity.fti"))
        assert code == 0 and out == "COMPLIANT\n"

    def test_violating_log(self, capsys):
        code, out, err = invoke(capsys, "comply", "--log", fx("log_bad.csv"),
                                "TwoEntity", fx("two_entity.fti"))
        assert code == 1
        assert out == ("NOT COMPLIANT\n"
                       "  event 0: unmatched-outgoing at e2\n"
                       "  event 1: unmatched-outgoing at e1 (closest: e2.a(m))\n")
        assert err == ("warning: event 0: unmatched-incoming at e1\n"
                       "warning: event 1: unmatched-incoming at e2 (closest: ~e1.a(m))\n")

    def test_malformed_log_is_static_error(self, capsys, tmp_path):
        log = tmp_path / "log.csv"
        log.write_text("e1,e2,a\n")
        code, _, err = invoke(capsys, "comply", "--log", str(log),
                              "TwoEntity", fx("two_entity.fti"))
        assert code == 2
        assert "row 1" in err

    def test_unreadable_csv_is_static_error(self, capsys, tmp_path):
        log = tmp_path / "log.csv"
        log.write_text("e1,e2,a,m,T\n" + "x" * 131073 + ",e2,a,m,T\n")
        code, out, err = invoke(capsys, "comply", "--log", str(log),
                                "TwoEntity", fx("two_entity.fti"))
        assert (code, out) == (2, "")
        assert err == "error: event log row 2: field larger than field limit (131072)\n"

    def test_nul_byte_in_log_is_static_error(self, capsys, tmp_path):
        # csv rejects a NUL byte before Python 3.11; later versions read it
        # into the action name, which is then undeclared
        log = tmp_path / "log.csv"
        log.write_text("e1,e2,a\0,m,T\n")
        code, out, err = invoke(capsys, "comply", "--log", str(log),
                                "TwoEntity", fx("two_entity.fti"))
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_conditional_architecture_needs_assignment(self, capsys, tmp_path):
        log = tmp_path / "log.csv"
        log.write_text("g,f,a,m,T\n")
        code, out, err = invoke(capsys, "comply", "--log", str(log),
                                "CondPair", fx("conditional.fti"))
        assert (code, out) == (2, "")
        assert err == "error: member g is conditional; supply an assignment\n"
        code, out, _ = invoke(capsys, "comply", "--log", str(log), "--assign", "c=true",
                              "CondPair", fx("conditional.fti"))
        assert code == 0 and out == "COMPLIANT\n"
        code, out, _ = invoke(capsys, "comply", "--log", str(log), "--assign", "c=false",
                              "CondPair", fx("conditional.fti"))
        assert code == 1  # with c off, the transfer is not declared

    def test_bad_assignment_syntax(self, capsys, tmp_path):
        log = tmp_path / "log.csv"
        log.write_text("g,f,a,m,T\n")
        code, _, err = invoke(capsys, "comply", "--log", str(log), "--assign", "c=maybe",
                              "CondPair", fx("conditional.fti"))
        assert code == 2 and "VAR=true" in err

    def test_undeclared_assignment(self, capsys, tmp_path):
        log = tmp_path / "log.csv"
        log.write_text("g,f,a,m,T\n")
        argv = ("comply", "--log", str(log), "--assign", "c=true", "--assign", "zz=true",
                "CondPair", fx("conditional.fti"))
        code, out, err = invoke(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == "error: assignment zz=true: undeclared condition zz\n"
        code, out, err = invoke(capsys, *argv, "--allow-undeclared")
        assert (code, out) == (0, "COMPLIANT\n")
        assert err == "warning: assignment zz=true: undeclared condition zz\n"

    def test_repeated_assignment(self, capsys, tmp_path):
        log = tmp_path / "log.csv"
        log.write_text("g,f,a,m,T\n")
        for extra in ((), ("--allow-undeclared",)):
            code, out, err = invoke(capsys, "comply", "--log", str(log), "--assign", "c=false",
                                    "--assign", "c=true", "CondPair", fx("conditional.fti"),
                                    *extra)
            assert (code, out) == (2, "")
            assert err == "error: condition variable c assigned twice\n"

    def test_deep_nesting_is_a_static_error(self, capsys, tmp_path):
        spec = tmp_path / "deep.fti"
        spec.write_text("entity f\naction a\nmotive m\n"
                        "interface I { " + "(" * 50000 + "f.a(m)" + ")" * 50000 + " }\n")
        code, out, err = invoke(capsys, "check", str(spec))
        assert (code, out) == (2, "")
        assert err == "error: expression nesting too deep\n"

    def test_undeclared_event_names_rejected(self, capsys, tmp_path):
        log = tmp_path / "log.csv"
        log.write_text("e1,e2,zap,m,T\n")
        code, _, err = invoke(capsys, "comply", "--log", str(log),
                              "TwoEntity", fx("two_entity.fti"))
        assert code == 2
        assert "undeclared action zap" in err
        code, out, err = invoke(capsys, "comply", "--log", str(log), "TwoEntity",
                                fx("two_entity.fti"), "--allow-undeclared")
        assert code == 1  # still checked, now as a warning plus violations
        assert "warning" in err

    INCOMING_E2 = "warning: event 0: unmatched-incoming at e2 (closest: ~e1.a(m))\n"

    @pytest.mark.parametrize("row, allow, want_code, want_err", [
        ("e1,e2,a\x1b[31mRED,m,T", False, 2,
         "error: event 0: undeclared action a\\x1b[31mRED\n"),
        ("e1,e2,a\x1b[31mRED,m,T", True, 1,
         "warning: event 0: undeclared action a\\x1b[31mRED\n" + INCOMING_E2),
        ("x\x1b[2J,y\x07,a,m,T", False, 2,
         "error: event 0: undeclared entity x\\x1b[2J; event 0: undeclared entity y\\x07\n"),
        ("x\x1b[2J,y\x07,a,m,T", True, 2,
         "warning: event 0: undeclared entity x\\x1b[2J\n"
         "warning: event 0: undeclared entity y\\x07\n"
         "error: event 0: neither x\\x1b[2J nor y\\x07 is an architecture member\n"),
        ('"a\nb",e2,a,m,T', False, 2, "error: event 0: undeclared entity a\\nb\n"),
        ('"a\nb",e2,a,m,T', True, 0,
         "warning: event 0: undeclared entity a\\nb\n" + INCOMING_E2),
        ("é,e2,a,m,T", False, 2, "error: event 0: undeclared entity é\n"),
    ], ids=["ansi", "ansi-allowed", "clear-bell", "clear-bell-allowed", "newline",
            "newline-allowed", "printable-non-ascii"])
    def test_log_cells_are_escaped_on_stderr(self, capsys, tmp_path, row, allow,
                                             want_code, want_err):
        log = tmp_path / "log.csv"
        log.write_text(row + "\n", encoding="utf-8")
        code, _, err = invoke(capsys, "comply", "--log", str(log), "TwoEntity",
                              fx("two_entity.fti"), *(("--allow-undeclared",) if allow else ()))
        assert (code, err) == (want_code, want_err)


MAX = 9223372036854775807
HEADER = "entity e1\nentity e2\naction a\nmotive m\n"


class TestArithmeticContract:
    """Sums check every partial sum in input order, and the first error wins."""

    @pytest.mark.parametrize("argv", [("check",), ("normalize", "Big")])
    def test_partial_sum_overflow_in_an_interface(self, capsys, tmp_path, argv):
        spec = tmp_path / "big.fti"
        spec.write_text(HEADER + "interface Big @local "
                        f"{{ {MAX} x e2.a(m) + e2.a(m) - e2.a(m) }}\n")
        code, _, err = invoke(capsys, *argv, str(spec))
        assert code == 2
        assert (f"{spec}:5:1: error: in interface Big: "
                "coefficient 9223372036854775808 exceeds 64-bit signed range\n") in err

    # merging an entity's repeated listings is part of resolving the
    # architecture, so its overflow is a static error at the architecture
    def test_member_listed_twice_overflows_when_merged(self, capsys, tmp_path):
        spec = tmp_path / "twice.fti"
        spec.write_text(HEADER + f"architecture Twice {{\n  e1 : {{ {MAX} x e2.a(m) }},\n"
                        "  e1 : { e2.a(m) }\n}\n")
        code, out, err = invoke(capsys, "closed", "Twice", str(spec))
        assert code == 2 and out == ""
        assert err == (f"{spec}:5:1: error: in architecture Twice: "
                       "coefficient 9223372036854775808 exceeds 64-bit signed range\n"
                       "error: 1 resolution error(s)\n")

    def test_member_listed_twice_overflow_in_check(self, capsys, tmp_path):
        spec = tmp_path / "twice.fti"
        spec.write_text(HEADER + f"architecture A {{ e1 : {MAX} x e2.a(m), e1 : e2.a(m) }}\n")
        code, out, err = invoke(capsys, "check", str(spec))
        assert code == 2 and out == "FAILED\n"
        assert err == (f"{spec}:5:1: error: in architecture A: "
                       "coefficient 9223372036854775808 exceeds 64-bit signed range\n")

    def test_first_overflowing_listing_wins(self, capsys, tmp_path):
        # e2's second listing overflows before e1's does, in listing order
        spec = tmp_path / "twice.fti"
        spec.write_text(HEADER + f"architecture Twice {{\n  e1 : {{ {MAX} x e2.a(m) }},\n"
                        f"  e2 : {{ {MAX} x e1.a(m) }},\n  e2 : {{ e1.a(m) }},\n"
                        "  e1 : { 2 x e2.a(m) }\n}\n")
        code, out, err = invoke(capsys, "closed", "Twice", str(spec))
        assert code == 2 and out == ""
        assert err == (f"{spec}:5:1: error: in architecture Twice: "
                       "coefficient 9223372036854775808 exceeds 64-bit signed range\n"
                       "error: 1 resolution error(s)\n")

    def test_evaluated_conditional_sum_overflows(self, capsys, tmp_path):
        # under c=true the member evaluates to 2**63 x ~e1.a(m), which
        # overflows; reduced separately, the two parts would sum to -2**63
        spec = tmp_path / "cond.fti"
        spec.write_text(HEADER + "condition c\narchitecture Big {\n"
                        f"  e2 : {{ {2**62} x ~e1.a(m) + {2**62} x ~e1.a(m) <| c |> 0 }}\n}}\n")
        code, out, err = invoke(capsys, "closed", "Big", str(spec))
        assert code == 3 and out == ""
        assert err == "error: coefficient 9223372036854775808 exceeds 64-bit signed range\n"

    # the plain check adds every member's reduced terms in one pass only
    # while the magnitudes of all atom occurrences sum to at most MAX; above
    # that it runs the staged sum, expansion and reduction and their first error
    @pytest.mark.parametrize("members, code, out, err", [
        (f"e1 : {MAX} x e2.a(m + m)", 3, "",
         "error: coefficient 18446744073709551614 exceeds 64-bit signed range\n"),
        (f"e1 : {MAX} x e2.a(m), e2 : -{MAX} x ~e1.a(m)", 3, "",
         "error: coefficient 18446744073709551614 exceeds 64-bit signed range\n"),
        (f"e1 : {MAX} x e2.a(m + m), e2 : {MAX} x ~e1.a(m + m)", 3, "",
         "error: coefficient 18446744073709551614 exceeds 64-bit signed range\n"),
        (f"e1 : {MAX} x e2.a(m), e2 : {MAX} x ~e1.a(m)", 0, "CLOSED\n", ""),
    ], ids=["expansion", "reduction", "cancelling-after-overflow", "cancelling"])
    def test_plain_closed_overflow(self, capsys, tmp_path, members, code, out, err):
        spec = tmp_path / "big.fti"
        spec.write_text(HEADER + f"architecture A {{ {members} }}\n")
        assert invoke(capsys, "closed", "A", str(spec)) == (code, out, err)

    # comply tables a member in one pass only within the same bound; beyond
    # it the member's motives are expanded first, and that expansion's first
    # error is the one reported
    def test_comply_overflow(self, capsys, tmp_path):
        spec = tmp_path / "big.fti"
        spec.write_text(HEADER + f"architecture A {{ e1 : {MAX} x e2.a(m + m), "
                        f"e2 : {MAX} x ~e1.a(m + m) }}\n")
        log = tmp_path / "log.csv"
        log.write_text("e1,e2,a,m,T\n")
        assert invoke(capsys, "comply", "--log", str(log), "A", str(spec)) == (
            3, "", "error: coefficient 18446744073709551614 exceeds 64-bit signed range\n")

    @pytest.mark.parametrize("body, first, second", [
        ("e2.a(m) + e2.a(m)@e1", "local", "global"),
        ("e2.a(m)@e1 - e2.a(m)", "global", "local"),
    ])
    def test_scope_mixing_sum(self, capsys, tmp_path, body, first, second):
        spec = tmp_path / "mix.fti"
        spec.write_text(HEADER + f"interface Mix {{ {body} }}\n")
        code, out, err = invoke(capsys, "check", str(spec))
        assert code == 2 and out == "FAILED\n"
        assert err == (f"{spec}:5:1: error: in interface Mix: "
                       f"cannot combine a {first} interface with a {second} one\n")


class TestExitCodes:
    def test_missing_file(self, capsys):
        code, _, err = invoke(capsys, "check", "no_such_file.fti")
        assert code == 2

    def test_capacity_error_is_exit_3(self, capsys, tmp_path):
        lines = ["entity g", "entity f", "action a", "motive m"]
        lines += [f"condition c{k}" for k in range(17)]
        body = " + ".join(f"f.a(m) <| c{k} |> 0" for k in range(17))
        lines.append("architecture Big { g : { %s } }" % body)
        spec = tmp_path / "big.fti"
        spec.write_text("\n".join(lines) + "\n")
        code, _, err = invoke(capsys, "closed", "Big", str(spec))
        assert code == 3
        assert "condition variables" in err

    @pytest.mark.parametrize("argv", [
        ("check", "{bad}"),
        ("rename", "--map", "{bad}", "I1", fx("two_entity.fti")),
        ("comply", "--log", "{bad}", "TwoEntity", fx("two_entity.fti")),
    ], ids=["spec", "rename-map", "event-log"])
    def test_undecodable_input_is_exit_2(self, capsys, tmp_path, argv):
        bad = tmp_path / "bad"
        bad.write_bytes(b"\xff")
        code, out, err = invoke(capsys, *(a.format(bad=bad) for a in argv))
        assert code == 2 and out == ""
        assert err.startswith(f"error: cannot read {bad}: ")
        assert err.count("\n") == 1

    def test_utf8_byte_order_mark_is_read(self, capsys, tmp_path):
        # spreadsheets start CSV files with one; so may editors a .fti file
        spec = tmp_path / "bom.fti"
        spec.write_text("\ufeff" + (FIXTURES / "two_entity.fti").read_text(encoding="utf-8"),
                        encoding="utf-8")
        assert invoke(capsys, "closed", "TwoEntity", str(spec)) == (0, "CLOSED\n", "")
        log = tmp_path / "bom.csv"  # its first row is the header
        log.write_text("\ufeff" + (FIXTURES / "log_ok.csv").read_text(encoding="utf-8"),
                       encoding="utf-8")
        assert invoke(capsys, "comply", "--log", str(log), "TwoEntity",
                      fx("two_entity.fti")) == (0, "COMPLIANT\n", "")

    @pytest.mark.parametrize("argv, message", [
        (("localize", "-e", "e1", "I1", fx("two_entity.fti")),
         "localize expects a global interface"),
        (("decompose", "LFTI4MaEIis0", *CORPUS), "decompose expects a global interface"),
        (("diff", "CondPair", "CondPair", fx("conditional.fti")),
         "member f is conditional; evaluate it before diffing"),
        (("normalize", "LFTI4MaEIis1", "--modulo-reflection", *CORPUS),
         "cannot reduce a local interface modulo reflection"),
    ], ids=["localize-local", "decompose-local", "diff-conditional", "normalize-local"])
    def test_scope_and_conditional_misuse_is_exit_2(self, capsys, argv, message):
        code, out, err = invoke(capsys, *argv)
        assert code == 2 and out == ""
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize("digit", ["²", "٣"], ids=["superscript-two", "arabic-indic-three"])
    def test_non_ascii_digit_is_exit_2(self, capsys, tmp_path, digit):
        # docs/grammar.ebnf: INT = [0-9]+
        spec = tmp_path / "digit.fti"
        spec.write_text(f"entity e\naction a\nmotive m\ninterface I {{ {digit} x e.a(m) }}\n",
                        encoding="utf-8")
        code, out, err = invoke(capsys, "check", str(spec))
        assert code == 2 and out == ""
        assert err == f"error: {spec}:4:15: unexpected character {digit!r}\n"

    @pytest.fixture
    def exit_raises(self, monkeypatch):
        """``os._exit`` raises ``SystemExit``, so ``cli.main`` returns to the test."""
        def exit_(code):
            raise SystemExit(code)
        monkeypatch.setattr(os, "_exit", exit_)

    def test_internal_error_is_exit_4(self, capsys, monkeypatch, exit_raises):
        def broken(args):
            raise RuntimeError("two\nlines")
        monkeypatch.setattr(cli, "_cmd_closed", broken)
        with pytest.raises(RuntimeError):  # run() lets faults propagate
            run(["closed", "TwoEntity", fx("two_entity.fti")])
        assert gc.isenabled()  # run() leaves the collector alone
        monkeypatch.setattr(sys, "argv", ["fti", "closed", "TwoEntity", fx("two_entity.fti")])
        with pytest.raises(SystemExit) as exit_info:
            cli.main()
        assert exit_info.value.code == 4
        assert gc.isenabled()
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "internal error: RuntimeError: two lines\n"

    def test_recursion_error_is_exit_4(self, capsys, monkeypatch, exit_raises):
        # too deep an input is a SpecError where it is read, so a
        # RecursionError is a fault, not bad input
        def broken(args):
            raise RecursionError("maximum recursion depth exceeded")
        monkeypatch.setattr(cli, "_cmd_check", broken)
        monkeypatch.setattr(sys, "argv", ["fti", "check", fx("two_entity.fti")])
        with pytest.raises(SystemExit) as exit_info:
            cli.main()
        assert exit_info.value.code == 4
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "internal error: RecursionError: maximum recursion depth exceeded\n"

    @pytest.mark.parametrize("patched, argv", [
        ("localize", ("localize", "-e", "e1", "Sum", fx("two_entity.fti"))),
        ("comply_events", ("comply", "--log", fx("log_ok.csv"), "TwoEntity",
                           fx("two_entity.fti"))),
    ])
    def test_builtin_value_error_is_exit_4(self, capsys, monkeypatch, exit_raises, patched,
                                           argv):
        # a ValueError that is not a SpecError is a fault, not bad input
        def broken(*args, **kwargs):
            raise ValueError("too many values to unpack (expected 2)")
        monkeypatch.setattr(cli, patched, broken)
        monkeypatch.setattr(sys, "argv", ["fti", *argv])
        with pytest.raises(SystemExit) as exit_info:
            cli.main()
        assert exit_info.value.code == 4
        assert gc.isenabled()
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "internal error: ValueError: too many values to unpack (expected 2)\n"

    def test_console_script_entry_point(self):
        out = subprocess.run(
            [sys.executable, "-m", "ftig.cli", "closed", "TwoEntity", fx("two_entity.fti")],
            capture_output=True, text=True, env=cli_env())
        assert out.returncode == 0
        assert out.stdout == "CLOSED\n"

    def test_unreadable_paths_are_exit_2(self, capsys, tmp_path):
        missing = tmp_path / "no_such_file.fti"
        code, out, err = invoke(capsys, "check", str(missing))
        assert (code, out) == (2, "")
        assert err == (f"error: cannot read {missing}: "
                       f"[Errno 2] No such file or directory: '{missing}'\n")
        code, out, err = invoke(capsys, "check", str(tmp_path))
        assert (code, out) == (2, "")
        assert err == f"error: cannot read {tmp_path}: [Errno 21] Is a directory: '{tmp_path}'\n"

    def test_colour_wraps_the_escaped_line(self, monkeypatch):
        class Terminal(io.StringIO):
            def isatty(self):
                return True
        monkeypatch.delenv("NO_COLOR", raising=False)
        monkeypatch.setattr(sys, "stderr", Terminal())
        cli._stderr("error: a\x1b[2J\u00a0é", "\x1b[31m")
        cli._stderr("plain")
        assert sys.stderr.getvalue() == "\x1b[31merror: a\\x1b[2J\\xa0é\x1b[0m\nplain\n"
        monkeypatch.setenv("NO_COLOR", "1")
        sys.stderr.truncate(0)
        sys.stderr.seek(0)
        cli._stderr("error: b", "\x1b[31m")
        assert sys.stderr.getvalue() == "error: b\n"


def _benchmark_argv():
    """The argv of every ``perfbench`` workload's seed-1 instances."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_gen", FIXTURES.parents[1] / "perfbench" / "gen.py")
    gen = sys.modules[spec.name] = importlib.util.module_from_spec(spec)  # for @dataclass
    spec.loader.exec_module(gen)
    return [inst.argv for workload in sorted(gen.WORKLOADS)
            for inst in gen.generate(workload, 1)]


PARSER = cli.build_parser()


def _argparse_vars(argv):
    """``vars`` of argparse's namespace for ``argv``, or the exit status it
    leaves with (help or a usage error)."""
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        try:
            return vars(PARSER.parse_args(argv))
        except SystemExit as exc:
            return exc.code


FLAGS = sorted({flag for _, arguments in cli.COMMANDS.values()
                for flags, _ in (*arguments, *cli._COMMON) for flag in flags
                if flag.startswith("-")})

PLAIN_WORDS = st.sampled_from(["text", "json", "a", "b", "f.fti", "c=true", "e1,e2", ""])
ARGV_WORDS = st.one_of(
    st.sampled_from([*cli.COMMANDS, "nope"]),
    st.sampled_from(FLAGS),
    st.sampled_from(FLAGS).flatmap(lambda f: st.sampled_from([f[:n] for n in range(2, len(f))]
                                                              or ["-"])),
    st.sampled_from(FLAGS).map(lambda f: f + "=json"),
    st.sampled_from(["-h", "--help", "--", "-", "-x", "-1", "--x"]),
    PLAIN_WORDS,
)


@st.composite
def argvs(draw):
    """Mostly a command name, then pieces: mostly plain words and that
    command's options with a value, sometimes any word of ``ARGV_WORDS``."""
    first = draw(st.sampled_from(list(cli.COMMANDS)) if draw(st.integers(0, 7))
                 else ARGV_WORDS)
    arguments = (*cli.COMMANDS.get(first, ("", ()))[1], *cli._COMMON)
    options = [(flags, kwargs) for flags, kwargs in arguments if flags[0].startswith("-")]
    argv = [first]
    for _ in range(draw(st.integers(0, 7))):
        kind = draw(st.integers(0, 6))
        if kind < 3:
            argv.append(draw(PLAIN_WORDS))
        elif kind < 6:
            flags, kwargs = draw(st.sampled_from(options))
            argv.append(draw(st.sampled_from(flags)))
            if kwargs.get("action") != "store_true":
                argv.append(draw(st.sampled_from(kwargs["choices"]) if "choices" in kwargs
                                 else PLAIN_WORDS))
        else:
            argv.append(draw(ARGV_WORDS))
    return argv


class TestArgvMatcher:
    """``run`` reads argv with ``cli._match`` and falls back to argparse
    when it declines; where it does not decline it must agree with argparse."""

    @given(argvs())
    @settings(max_examples=400, deadline=None)
    def test_matcher_agrees_with_argparse(self, argv):
        got = cli._match(argv)
        if got is not None:
            assert vars(got) == _argparse_vars(argv)

    @pytest.mark.parametrize("argv", [argv for _, argv in CLI_RUNS] + _benchmark_argv(),
                             ids=" ".join)
    def test_common_argv_take_the_fast_path(self, argv):
        got = cli._match(list(argv))
        assert got is not None
        assert vars(got) == _argparse_vars(list(argv))

    def test_every_command_is_in_the_acceptance_runs(self):
        assert {argv[0] for _, argv in CLI_RUNS} == set(cli.COMMANDS)

    @pytest.mark.parametrize("argv", [
        ["check", "a.fti", "--format", "json", "b.fti"],  # FILE... has taken its words
        ["closed", "A", "f.fti", "--bogus"],
        ["closed", "--form", "json", "A", "f.fti"],  # an abbreviation
        ["closed", "--format=json", "A", "f.fti"],
        ["closed", "--format", "xml", "A", "f.fti"],
        ["closed", "A", "f.fti", "--format"],
        ["localize", "Sum", "f.fti"],  # a required option missing
        ["localize", "-e", "-x", "Sum", "f.fti"],
        ["closed", "A"],
        ["closed", "-h"],
        ["closed", "--", "A", "f.fti"],
        ["clos", "A", "f.fti"],
        [],
    ], ids=repr)
    def test_declines(self, argv):
        assert cli._match(argv) is None


class TestColdStart:
    # modules that start-up must not import: each costs milliseconds on every run
    UNWANTED = ("dataclasses", "inspect", "typing", "pathlib", "json", "csv")

    def test_cli_import_loads_no_heavy_modules(self):
        # -S keeps the interpreter's site hooks, which may import anything, out of the check
        code = ("import sys, ftig.cli; ftig.cli.build_parser(); "
                f"print(sorted(m for m in {self.UNWANTED!r} if m in sys.modules))")
        out = subprocess.run([sys.executable, "-S", "-c", code],
                             capture_output=True, text=True, env=cli_env())
        assert out.returncode == 0, out.stderr
        assert out.stdout == "[]\n"

    def test_commands_run_without_argparse(self):
        # every acceptance run (each command at least once), then a usage
        # error, all in one -S child
        code = ("import sys; from ftig import cli\n"
                f"codes = [cli.run(list(argv)) for _, argv in {CLI_RUNS!r}]\n"
                "print(codes, sorted(m for m in ('argparse', 'gettext', 'locale')"
                " if m in sys.modules))\n"
                "cli.run(['closed', 'TwoEntity'])\n")
        out = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True,
                             text=True, cwd=FIXTURES, env=cli_env(COLUMNS="80"))
        assert out.stdout.endswith(f"{[code for code, _ in CLI_RUNS]} []\n")
        assert out.returncode == 2
        assert out.stderr.endswith(
            "usage: fti closed [-h] [--format {text,json}] [--allow-undeclared]\n"
            "                  architecture FILE [FILE ...]\n"
            "fti closed: error: the following arguments are required: FILE\n")

    def test_library_keeps_the_collector(self):
        # only main() turns the cyclic collector off
        code = ("import gc, ftig; from ftig import cli; "
                f"cli.run(['closed', 'TwoEntity', {fx('two_entity.fti')!r}]); "
                "print(gc.isenabled())")
        out = subprocess.run([sys.executable, "-c", code],
                             capture_output=True, text=True, env=cli_env())
        assert (out.returncode, out.stdout, out.stderr) == (0, "CLOSED\nTrue\n", "")


def _buffered_env():
    """``cli_env()`` with ``PYTHONUNBUFFERED`` unset: the child's stdout is
    block-buffered, so output is lost unless ``main`` flushes it."""
    env = cli_env()
    env.pop("PYTHONUNBUFFERED", None)
    return env


def _fti(argv, **kwargs):
    return subprocess.run([sys.executable, "-m", "ftig.cli", *argv], **kwargs)


class TestProcessExit:
    """``main`` leaves through ``os._exit``: what it wrote must all arrive."""

    K = 12  # 2^12 assignments: each JSON report below is far over a 64 KiB pipe buffer

    @pytest.fixture(scope="class")
    def specs(self, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("large")
        cond = tmp / "cond.fti"
        terms = range(self.K)
        cond.write_text("entity g\nentity f\naction a\nmotive m\n"
                        + "".join(f"condition c{i}\n" for i in terms)
                        + "interface Out @local { "
                        + " + ".join(f"(f.a(m) <| c{i} |> 0)" for i in terms) + " }\n"
                        + "interface In @local { "
                        + " + ".join(f"(~g.a(m) <| c{i} |> 0)" for i in terms) + " }\n"
                        + "architecture Pair { g : Out, f : In }\n"
                        + "architecture Half { g : Out }\n")
        bad = tmp / "bad.fti"
        bad.write_text("interface Bad @local { "
                       + " + ".join(f"x{i}.a(m)" for i in range(2000)) + " }\n")
        return str(cond), str(bad)

    @pytest.mark.parametrize("fmt", ["text", "json"])
    @pytest.mark.parametrize("command, code", [
        (("closed", "Pair"), 0), (("closed", "Half"), 1), (("check",), 2),
    ], ids=["closed", "not-closed", "undeclared"])
    def test_hard_exit_loses_no_output(self, capsys, specs, command, code, fmt):
        argv = [*command, *(specs if code == 2 else specs[:1]), "--format", fmt]
        child = _fti(argv, capture_output=True, env=_buffered_env())
        assert run(argv) == code
        out, err = capsys.readouterr()
        assert fmt == "text" or len(out) > 64 * 1024
        assert child.returncode == code
        assert child.stdout == out.encode()
        assert child.stderr == err.encode()

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize("unbuffered", [None, "1"], ids=["buffered", "unbuffered"])
    def test_unwritable_stdout_is_exit_4(self, unbuffered):
        env = _buffered_env()
        if unbuffered:
            env["PYTHONUNBUFFERED"] = unbuffered
        with open("/dev/full", "w") as full:
            child = _fti(["closed", "TwoEntity", fx("two_entity.fti")],
                         stdout=full, stderr=subprocess.PIPE, env=env)
        assert child.returncode == 4
        assert child.stderr == b"internal error: OSError: [Errno 28] No space left on device\n"

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_closed_stdout_is_exit_4(self, fmt):
        child = _fti(["closed", "TwoEntity", fx("two_entity.fti"), "--format", fmt],
                     stderr=subprocess.PIPE, env=cli_env(), preexec_fn=lambda: os.close(1))
        assert child.returncode == 4
        assert child.stderr == b"internal error: OSError: stdout is closed\n"

    @pytest.mark.parametrize("argv", [["--help"], ["closed", "--help"]])
    def test_help_with_closed_stdout_is_exit_4(self, argv):
        # help is a result, so argparse's fallback to stderr does not apply
        child = _fti(argv, stderr=subprocess.PIPE, env=cli_env(),
                     preexec_fn=lambda: os.close(1))
        assert child.returncode == 4
        assert child.stderr == b"internal error: OSError: stdout is closed\n"

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize("argv", [["--help"], ["closed", "--help"]])
    def test_help_to_unwritable_stdout_is_exit_4(self, argv):
        with open("/dev/full", "w") as full:
            child = _fti(argv, stdout=full, stderr=subprocess.PIPE, env=cli_env())
        assert child.returncode == 4
        assert child.stderr == b"internal error: OSError: [Errno 28] No space left on device\n"

    def test_closed_stderr_keeps_diagnostics_off_stdout(self):
        child = _fti(["closed", "Nope", fx("two_entity.fti")], stdout=subprocess.PIPE,
                     env=cli_env(), preexec_fn=lambda: os.close(2))
        assert (child.returncode, child.stdout) == (2, b"")

    def test_usage_errors_and_help(self, capsys, monkeypatch):
        # argparse's messages go through _stderr, which escapes argv text
        child = _fti(["check", "--\x1b[2Jx", fx("two_entity.fti")],
                     capture_output=True, env=cli_env())
        assert (child.returncode, child.stdout) == (2, b"")
        assert child.stderr == (b"usage: fti [-h] COMMAND ...\n"
                                b"fti: error: unrecognized arguments: --\\x1b[2Jx\n")
        # main() prints what run() prints, and keeps argparse's exit status
        monkeypatch.setenv("COLUMNS", "80")
        for argv, code in ((["closed", "TwoEntity"], 2), (["--help"], 0)):
            child = _fti(argv, capture_output=True, env=cli_env(COLUMNS="80"))
            with pytest.raises(SystemExit) as exit_info:
                run(argv)
            out, err = capsys.readouterr()
            assert child.returncode == exit_info.value.code == code
            assert (child.stdout, child.stderr) == (out.encode(), err.encode())
        assert out.startswith("usage: fti [-h] COMMAND ...") and err == ""


SPEC_BYTES = (FIXTURES / "two_entity.fti").read_bytes()
LOG_BYTES = (FIXTURES / "log_bad.csv").read_bytes()


@st.composite
def mutated(draw, data: bytes) -> bytes:
    """``data`` with a few bytes replaced, inserted or deleted; any byte value,
    so the result need not be UTF-8."""
    buf = bytearray(data)
    for _ in range(draw(st.integers(1, 4))):
        pos = draw(st.integers(0, len(buf)))
        op = draw(st.sampled_from(("replace", "insert", "delete")))
        if op == "insert" or pos == len(buf):
            buf.insert(pos, draw(st.integers(0, 255)))
        elif op == "replace":
            buf[pos] = draw(st.integers(0, 255))
        else:
            del buf[pos]
    return bytes(buf)


class TestFuzz:
    @given(spec=mutated(SPEC_BYTES), log=mutated(LOG_BYTES))
    @example(spec=b"\xff" + SPEC_BYTES, log=b"\xff" + LOG_BYTES)
    @settings(max_examples=40, deadline=None)
    def test_mutated_inputs_exit_with_a_status(self, spec, log):
        # a tempdir, not tmp_path: Hypothesis reruns the body per example
        with tempfile.TemporaryDirectory() as tmp:
            spec_file, log_file = str(Path(tmp, "spec.fti")), str(Path(tmp, "log.csv"))
            Path(spec_file).write_bytes(spec)
            Path(log_file).write_bytes(log)
            runs = [
                ("check", spec_file),
                ("closed", "TwoEntity", spec_file),
                ("normalize", "Sum", "--modulo-reflection", spec_file),
                ("localize", "-e", "e1", "Sum", spec_file),
                ("globalize", "-e", "e1", "I1", spec_file),
                ("decompose", "Sum", spec_file),
                ("refine", "-f", "e2", "--into", "p,q", "Sum", spec_file),
                ("rename", "--map", fx("rename.map"), "I1", spec_file),
                ("diff", "TwoEntity", "Dangling", spec_file),
                ("comply", "--log", fx("log_bad.csv"), "TwoEntity", spec_file),
                ("comply", "--log", log_file, "TwoEntity", fx("two_entity.fti")),
                ("comply", "--log", log_file, "TwoEntity", fx("two_entity.fti"),
                 "--allow-undeclared"),
            ]
            for argv in runs:
                with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
                    code = run(list(argv))
                assert code in (0, 1, 2, 3), argv
