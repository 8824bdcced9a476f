import random
import time
from collections import Counter

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import old_lint
import old_resolver
import old_speclang
from conftest import FIXTURES

from ftig import transform
from ftig.algebra import I64_MAX, Interface, client, service
from ftig.errors import ParseError, SourcePosition
from ftig.speclang import (
    evaluate_expression_text, lint, parse_expression, parse_module, resolve,
    tokenize,
)
from ftig.speclang import astnodes
from ftig.speclang import parser as parser_module
from ftig.speclang import resolver as resolver_module
from ftig.speclang.astnodes import (
    ArchitectureDef, ArchMemberDef, CondExpr, ExprNode, GenExpr, Item, NameItem, NegExpr,
    RefExpr, RenameDef, ScaleExpr, SpecModule, SumExpr,
)


class TestLexer:
    def test_colon_identifiers(self):
        toks = tokenize("RIi:L:CSP:SE hmt:csla")
        kinds = list(zip(toks.kinds, toks.texts))
        assert kinds[:2] == [("IDENT", "RIi:L:CSP:SE"), ("IDENT", "hmt:csla")]

    def test_colon_as_separator_needs_boundary(self):
        # no space: one identifier; spaced: three tokens
        assert tokenize("SE:X").texts[:-1] == ["SE:X"]
        assert tokenize("SE : X").kinds[:-1] == ["IDENT", "COLON", "IDENT"]
        assert tokenize("SE :X").kinds[:-1] == ["IDENT", "COLON", "IDENT"]

    def test_comment_token(self):
        toks = tokenize("x %[a comment\nwith lines%] y")
        assert toks.kinds[:-1] == ["IDENT", "COMMENT", "IDENT"]
        assert toks.texts[1] == "a comment\nwith lines"

    def test_unterminated_comment(self):
        with pytest.raises(ParseError, match="%]"):
            tokenize("x %[oops")

    def test_stray_percent(self):
        with pytest.raises(ParseError, match="%"):
            tokenize("x % y")

    def test_positions(self):
        toks = tokenize("a\n  b")
        assert (toks.pos(0).line, toks.pos(0).col) == (1, 1)
        assert (toks.pos(1).line, toks.pos(1).col) == (2, 3)

    def test_lambda_letter(self):
        toks = tokenize("f.a(m)/λ")
        assert toks.texts[-2] == "lambda"

    def test_unexpected_character(self):
        with pytest.raises(ParseError):
            tokenize("a $ b")

    def test_unterminated_comments_lex_in_linear_time(self):
        # each unmatched %[ must not rescan the rest of the text
        started = time.perf_counter()
        with pytest.raises(ParseError) as caught:
            tokenize("a " + "%[" * 50_000)
        assert str(caught.value) == "<input>:1:3: unterminated comment: missing %]"
        assert time.perf_counter() - started < 5

    @pytest.mark.parametrize("text, message, line, col", [
        ("a $ %[ x", "unexpected character '$'", 1, 3),
        ("a %[ x %] b %[ y", "unterminated comment: missing %]", 1, 13),
        ("q\n  %[\n", "unterminated comment: missing %]", 2, 3),
        ("x %[]", "unterminated comment: missing %]", 1, 3),
        ("x %] %[", "stray % (comments open with %[)", 1, 3),
        ("a\tb\x0bc", "unexpected character '\\x0b'", 1, 4),
    ])
    def test_first_error_wins(self, text, message, line, col):
        with pytest.raises(ParseError) as caught:
            tokenize(text)
        assert (caught.value.message, caught.value.pos) == (message, SourcePosition(line, col))

    def test_token_sequence(self):
        text = "interface I { e.a(m) }"
        tokens = tokenize(text)
        assert len(tokens) == 11  # ten tokens and EOF
        assert len(tokens.kinds) == len(tokens.texts) == len(tokens.starts) == 11
        assert tokens.kinds[-1] == "EOF"
        assert tokens.kinds.count("EOF") == 1
        assert (tokens.texts[-1], tokens.starts[-1]) == ("", len(text))

    def test_parse_module_tokenizes_once_through_the_parser_namespace(self, monkeypatch):
        # perfbench/layers.py times the lexer by wrapping parser.tokenize
        # and counts len() of its result
        results = []

        def counting(text, filename=None):
            results.append(tokenize(text, filename))
            return results[-1]

        monkeypatch.setattr(parser_module, "tokenize", counting)
        parse_module("interface I { e.a(m) }")
        assert [len(result) for result in results] == [11]


FIXTURE_TEXTS = {p.name: p.read_text(encoding="utf-8") for p in sorted(FIXTURES.glob("*.fti"))}

# pieces that move token boundaries, lines or columns, start an error or
# place a whole comment
PIECES = ("%[", "%]", " %[c%] ", "%", ":", "->", "<|", "|>", "λ", "\r", "\t", "\n", " ",
          *"0123456789", "é", "Ω", "ж", "²", "x", "_", "(", ")", "{", "}")


@st.composite
def mutated_fixture(draw) -> str:
    """A fixture's text with a few pieces inserted, characters deleted or
    characters replaced by a piece."""
    text = FIXTURE_TEXTS[draw(st.sampled_from(sorted(FIXTURE_TEXTS)))]
    for _ in range(draw(st.integers(1, 5))):
        at = draw(st.integers(0, len(text)))
        op = draw(st.sampled_from(("insert", "delete", "replace")))
        piece = draw(st.sampled_from(PIECES))
        if op == "insert":
            text = text[:at] + piece + text[at:]
        elif op == "delete":
            text = text[:at] + text[at + 1:]
        else:
            text = text[:at] + piece + text[at + 1:]
    return text


def lexed(tokenize_fn, text):
    """``(kind, text, pos)`` of each token, or the message and position of
    the ``ParseError``.  ``tokenize`` returns parallel lists;
    ``old_speclang.tokenize`` returns a list of tokens."""
    try:
        tokens = tokenize_fn(text, "m.fti")
    except ParseError as exc:
        return ("ParseError", exc.message, exc.pos)
    if isinstance(tokens, list):
        return [(t.kind, t.text, t.pos) for t in tokens]
    return [(kind, word, tokens.pos(i))
            for i, (kind, word) in enumerate(zip(tokens.kinds, tokens.texts))]


def parsed(parse_fn, text):
    """The module, positions included, or the ``ParseError``'s message and
    position."""
    try:
        return parse_fn(text, "m.fti")
    except ParseError as exc:
        return ("ParseError", exc.message, exc.pos)


def today_tree(value):
    """The oracle parser's result as today's parser builds it: without
    comments, parentheses or ``StandaloneComment`` items."""
    if isinstance(value, old_speclang.ParenExpr):
        return today_tree(value.inner)
    if isinstance(value, (list, tuple)):
        return type(value)(today_tree(v) for v in value
                           if not isinstance(v, old_speclang.StandaloneComment))
    if isinstance(value, (ExprNode, Item, ArchMemberDef, SpecModule)):
        cls = getattr(astnodes, type(value).__name__)
        return cls(**{name: today_tree(getattr(value, name))
                      for name in value._fields if name != "comments"})
    return value


class TestFrontEndOracle:
    """The tokenizer and parser equal the character-stepping ones that
    preceded them (``old_speclang``): tokens, positions, trees and errors."""

    @pytest.mark.parametrize("name", sorted(FIXTURE_TEXTS))
    def test_fixtures(self, name):
        text = FIXTURE_TEXTS[name]
        assert lexed(tokenize, text) == lexed(old_speclang.tokenize, text)
        assert parsed(parse_module, text) == today_tree(parsed(old_speclang.parse_module, text))

    @given(text=mutated_fixture())
    @example(text="a\r\n\t%[x\n\ny%]  ->\tb:c :d <|!c|> 12 x λ %] é")
    @example(text="RIi:L:CSP:SE hmt:2x e:_ a: b::c d:%[c%]")
    @example(text="entity e\n%[ open\n\n")
    @example(text="interface I { e.a(m) } %")
    @example(text="")
    @example(text="interface I { 0 %[c%] }")
    @example(text="interface I { -0 %[c%] }")
    @example(text="interface I { 2 x 0 %[c%] }")
    @example(text="interface I { e.a(m) + 0 %[c%] }")
    @example(text="interface I { 0 + %[c%] e.a(m) }")
    @example(text="interface I { 0 - 0 %[c%] }")
    @example(text="interface I { (0) %[c%] }")
    @example(text="interface I { -(0) %[c%] }")
    @example(text="interface I { e.a(m) <| c |> 0 %[c%] }")
    @example(text="interface I { 0 <| c |> 0 %[c%] }")
    @example(text="interface I { e.a(m) + %[c%] 0 }")
    @settings(max_examples=300, deadline=None)
    def test_mutated_fixtures(self, text):
        # a non-ASCII digit was an INT to the old lexer; it is an error now
        # (test_cli.py::TestExitCodes::test_non_ascii_digit_is_exit_2)
        assume(not any(ch.isdigit() and not ch.isascii() for ch in text))
        assert lexed(tokenize, text) == lexed(old_speclang.tokenize, text)
        assert parsed(parse_module, text) == today_tree(parsed(old_speclang.parse_module, text))


# --------------------------------------------------- resolver oracle

# small pools, so that terms meet: sums cancel, overflow and mix scopes;
# the entity u, the condition v and the interfaces X and Y are never declared
FACTORS = (0, 1, 2, 3, I64_MAX, I64_MAX - 1, 2**62, 2**63, 2**64)
REFS = ("I0", "I1", "I2", "R", "N", "X")
GENERATOR_TEXTS = st.sampled_from(tuple(
    f"{tilde}{target}.{action}({motive}){host}{alpha}"
    for tilde in ("", "~") for target in ("e1", "e2", "u") for action in ("a", "a", "b")
    for motive in ("m", "m", "m + n", "0") for host in ("", "", "@e1", "@e2", "@u")
    for alpha in ("", "", "", "/T")))
LITERALS = st.sampled_from(("c", "!c", "d", "!v"))


def _join_sum(first_and_rest):
    first, rest = first_and_rest
    return " ".join([first] + [f"{sign} {factor}" for sign, factor in rest])


def scaled(primary):
    return st.tuples(st.sampled_from(FACTORS), primary).map("{0[0]} x {0[1]}".format)


def expression_strategies(depth):
    """Strategies for the text of a factor and of an expression whose
    groups nest at most ``depth`` deep.  Built once: nested composite draws
    would make generation, not resolution, the cost of each example."""
    atom = st.one_of(GENERATOR_TEXTS, st.sampled_from(REFS), st.just("0"))
    if depth == 0:
        primary = atom
        factor = st.one_of(primary, primary, primary, scaled(primary))
    else:
        inner_factor, inner = expression_strategies(depth - 1)
        # a group minus itself: its branches and terms cancel
        atom = st.one_of(atom, inner.map("({})".format),
                         inner.map(lambda text: f"({text} - ({text}))"))
        primary = st.one_of(atom, atom, st.tuples(atom, LITERALS, atom).map(
            lambda t: f"{t[0]} <| {t[1]} |> {t[2]}"))
        factor = st.one_of(primary, primary, primary, scaled(primary),
                           inner_factor.map("-{}".format))
    expression = st.tuples(
        factor, st.lists(st.tuples(st.sampled_from("+-"), factor), max_size=3)).map(_join_sum)
    return factor, expression


EXPRESSIONS = {depth: expression_strategies(depth)[1] for depth in (1, 2, 3)}


@st.composite
def module_text(draw):
    lines = ["entity e1", "entity e2", "entity e3", "action a", "action b",
             "motive m", "motive n", "condition c", "condition d"]
    names = ["I0", "I1", "I2"] + (["I1"] if draw(st.booleans()) else [])
    for name in names:
        scope = draw(st.sampled_from(("", "", " @local", " @global")))
        monoid = draw(st.sampled_from(("", "", " monoid")))
        lines.append(f"interface {name}{scope}{monoid} {{ {draw(EXPRESSIONS[2])} }}")
    source = draw(st.sampled_from(REFS[:3] + ("X", "N")))
    part = draw(st.sampled_from(("p1", "e2")))
    lines.append(f"refine R = {source} expand e1 into {part}, p2")
    source = draw(st.sampled_from(REFS[:3] + ("R", "Y")))
    target = draw(st.sampled_from(("e2", "z")))
    lines.append(f"rename N = {source} {{ entity e1 -> {target}, motive m -> n, "
                 f"action b -> a }}")
    for arch in ("A0", "A1"):
        members = []
        for _ in range(draw(st.integers(1, 3))):
            contained = draw(st.sampled_from(("", "contained ")))
            entity = draw(st.sampled_from(("e1", "e2", "u")))
            members.append(f"{contained}{entity} : {{ {draw(EXPRESSIONS[1])} }}")
        lines.append(f"architecture {arch} {{ {', '.join(members)} }}")
    lines.append(f"check closed {draw(st.sampled_from(('A0', 'A1', 'Z')))}")
    return "\n".join(lines) + "\n"


def resolution_of(resolve_fn, text, allow_undeclared):
    """Everything a resolution holds, with the type and scope of each value,
    or the type and text of what resolving raised."""
    try:
        res = resolve_fn(parse_module(text, "m.fti"), allow_undeclared=allow_undeclared)
    except (OverflowError, ValueError) as exc:
        return ("raised", type(exc), str(exc))
    return (
        [(name, type(v), v, v.scope) for name, v in res.interfaces.items()],
        {name: [(m.entity, m.interface, m.interface.scope, m.contained)
                for m in arch.members]
         for name, arch in res.architectures.items()},
        [(d.severity, d.message, d.pos) for d in res.diagnostics],
        res.monoid_names,
        res.catalog,
        [(d.severity, d.message, d.pos) for d in lint(res)],
    )


def expression_value(evaluate_fn, text):
    try:
        value = evaluate_fn(text)
    except (OverflowError, ValueError) as exc:
        return ("raised", type(exc), str(exc))
    return type(value), value, value.scope


class TestResolverOracle:
    """Resolution equals that of the evaluator that wrapped every value in a
    ConditionalInterface (``old_resolver``): values and their types,
    architectures, diagnostics with positions, and the first error."""

    @given(text=module_text(), allow_undeclared=st.booleans())
    @example(text="entity e\naction a\nmotive m\ncondition c\n"
                  "interface I { (e.a(m) <| c |> 0) - (e.a(m) <| c |> 0) + e.a(m) }\n"
                  "interface J { 0 x (e.a(m) <| c |> 0) + -I }\n"
                  "architecture A { e : I, e : J <| c |> 0 }\n", allow_undeclared=False)
    @example(text="entity e\naction a\nmotive m\ncondition c\n"
                  f"interface I {{ {I64_MAX} x e.a(m) + e.a(m) <| c |> 0 + X }}\n"
                  "interface J { e.a(m)@e + I }\n", allow_undeclared=False)
    # branches that scaling by 0 cancels, alone and inside a conditional
    @example(text="entity e\naction a\nmotive m\ncondition c\n"
                  "interface I { 0 x e.a(m) <| c |> 0 }\n"
                  "interface J { (0 x (e.a(m) <| c |> 0)) <| c |> 0 }\n"
                  "refine R = I expand e into p, q\n", allow_undeclared=True)
    # merging the repeated listings of e overflows
    @example(text="entity e\naction a\nmotive m\n"
                  f"architecture A {{ e : {I64_MAX} x e.a(m), e : e.a(m) }}\n",
             allow_undeclared=False)
    @settings(max_examples=300, deadline=None)
    def test_random_modules(self, text, allow_undeclared):
        assert resolution_of(resolve, text, allow_undeclared) == \
            resolution_of(old_resolver.resolve, text, allow_undeclared)

    @given(text=EXPRESSIONS[3])
    @example(text="0 x e.a(m) <| c |> 0")
    @example(text="-(2 x (e.a(m) <| c |> 0) - (e.a(m) <| c |> e.b(m)) + e.a(m) <| c |> 0)")
    @example(text="9223372036854775807 x e.a(m) + e.a(m) <| c |> 0 - e.a(m)@e")
    @settings(max_examples=300, deadline=None)
    def test_random_expressions(self, text):
        assert expression_value(evaluate_expression_text, text) == \
            expression_value(old_resolver.evaluate_expression_text, text)

    @pytest.mark.parametrize("name", sorted(FIXTURE_TEXTS))
    def test_fixtures(self, name):
        text = FIXTURE_TEXTS[name]
        if name == "closed_arch.fti":
            text = FIXTURE_TEXTS["catalog.fti"] + FIXTURE_TEXTS["lfti_maeiis.fti"] + text
        for allow_undeclared in (False, True):
            assert resolution_of(resolve, text, allow_undeclared) == \
                resolution_of(old_resolver.resolve, text, allow_undeclared)


# ------------------------------------------------------- lint oracle

# entities e4 and n, action c, motives k and a, and condition m are never
# used, and each but e4 and k shares its name with a name of another kind
# that is; e3 is nested two deep, so p and q are used through it
CLEAN_CATALOG = ("entity e1\nentity e2\nentity p { entity q { entity e3 } }\n"
                 "entity e4\nextern entity n\naction a\naction b\nextern action c\n"
                 "motive m\nmotive n\nextern motive k\nmotive a\n"
                 "condition c\ncondition d\ncondition m\n")
CLEAN_GENERATORS = {scope: st.sampled_from(tuple(
    f"{tilde}{target}.{action}({motive}){host}{alpha}"
    for tilde in ("", "~") for target in ("e1", "e2", "e3") for action in ("a", "b")
    for motive in ("m", "n", "m + n", "0") for host in hosts for alpha in ("", "", "/T")))
    for scope, hosts in (("local", ("",)), ("global", ("@e1", "@e2", "@e3")))}


@st.composite
def clean_expression(draw, scope, refs):
    """The text of a sum in ``scope`` over generators and the plain
    interfaces ``refs``, and whether it has a conditional element."""
    def atom():
        if refs and draw(st.booleans()):
            return draw(st.sampled_from(refs))
        return draw(CLEAN_GENERATORS[scope])

    parts, conditional = [], False
    for _ in range(draw(st.integers(1, 4))):
        shape = draw(st.sampled_from(("atom", "atom", "scaled", "conditional", "group")))
        if shape == "atom":
            parts.append(atom())
        elif shape == "scaled":
            parts.append(f"{draw(st.sampled_from((0, 2, 3)))} x {atom()}")
        elif shape == "conditional":
            literal = draw(st.sampled_from(("c", "!c", "d")))
            otherwise = atom() if draw(st.booleans()) else "0"
            parts.append(f"({atom()} <| {literal} |> {otherwise})")
            conditional = True
        else:
            parts.append(f"-({atom()} - {atom()})")
    signs = [draw(st.sampled_from("+-")) for _ in parts[1:]]
    return " ".join([parts[0], *(f"{sign} {part}" for sign, part in zip(signs, parts[1:]))]), \
        conditional


@st.composite
def clean_module_text(draw):
    """A module that resolves without errors: it declares every name it uses
    and some it never uses, references only earlier plain interfaces of the
    same scope, and scales by small factors only."""
    lines = [CLEAN_CATALOG]
    plain = {"local": [], "global": []}
    for i in range(draw(st.integers(1, 4))):
        scope = draw(st.sampled_from(("local", "global")))
        expr, conditional = draw(clean_expression(scope, plain[scope]))
        annotation = draw(st.sampled_from(("", f" @{scope}")))
        monoid = draw(st.sampled_from(("", " monoid")))
        lines.append(f"interface I{i}{annotation}{monoid} {{ {expr} }}")
        if not conditional:
            plain[scope].append(f"I{i}")
    if plain["global"] and draw(st.booleans()):
        source = draw(st.sampled_from(plain["global"]))
        coarse = draw(st.sampled_from(("e1", "e2", "e3")))
        lines.append(f"refine R = {source} expand {coarse} into r1, r2")
    if plain["local"] + plain["global"] and draw(st.booleans()):
        source = draw(st.sampled_from(plain["local"] + plain["global"]))
        old = draw(st.sampled_from(("e1", "e4")))
        lines.append(f"rename N = {source} {{ entity {old} -> e2, "
                     f"motive {draw(st.sampled_from(('m', 'k')))} -> n, "
                     f"action {draw(st.sampled_from(('b', 'c')))} -> a }}")
    for arch in range(draw(st.integers(0, 2))):
        members = []
        for _ in range(draw(st.integers(1, 3))):
            contained = draw(st.sampled_from(("", "contained ")))
            entity = draw(st.sampled_from(("e1", "e2", "e3")))
            expr, _ = draw(clean_expression("local", plain["local"]))
            members.append(f"{contained}{entity} : {{ {expr} }}")
        lines.append(f"architecture A{arch} {{ {', '.join(members)} }}")
        lines.append(f"check closed A{arch}")
    return "\n".join(lines) + "\n"


def lint_pair(text, allow_undeclared):
    """The resolution of ``text``, its lint, and the lint of the old walk."""
    res = resolve(parse_module(text, "m.fti"), allow_undeclared=allow_undeclared)
    return res, lint(res), old_lint.lint(res)


class TestLintOracle:
    """``lint`` takes the names in expressions from the resolver's record of
    looked-up names.  Without resolution errors it equals the lint that
    walked every expression again (``old_lint``); with errors, it may only
    add ``unused …`` warnings for names that evaluation never reached."""

    @given(text=clean_module_text(), allow_undeclared=st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_clean_modules(self, text, allow_undeclared):
        res, new, old = lint_pair(text, allow_undeclared)
        assert res.ok, [d.render() for d in res.errors]
        assert new == old

    @pytest.mark.parametrize("name", sorted(FIXTURE_TEXTS))
    @pytest.mark.parametrize("allow_undeclared", (False, True))
    def test_fixtures(self, name, allow_undeclared):
        text = FIXTURE_TEXTS[name]
        if name == "closed_arch.fti":
            text = FIXTURE_TEXTS["catalog.fti"] + FIXTURE_TEXTS["lfti_maeiis.fti"] + text
        _, new, old = lint_pair(text, allow_undeclared)
        assert new == old

    @given(text=module_text(), allow_undeclared=st.booleans())
    @settings(max_examples=100, deadline=None)
    def test_failing_modules_only_add_unused_warnings(self, text, allow_undeclared):
        res, new, old = lint_pair(text, allow_undeclared)
        if res.ok:
            assert new == old
            return
        assert not Counter(old) - Counter(new)
        extra = Counter(new) - Counter(old)
        assert all(d.severity == "warning" and d.pos is None
                   and d.message.startswith("unused ") for d in extra), extra


class TestParserPrecedence:
    def test_full_element_structure(self):
        node = parse_expression("~f.a(m)@g/TF")
        assert node == GenExpr(node.pos, "client", "f", "a", ("m",), "g", "TF")

    def test_subtraction_convention(self):
        node = parse_expression("I - ~f.a(m)@g - J")
        assert isinstance(node, SumExpr)
        signs = [sign for sign, _ in node.parts]
        assert signs == [1, -1, -1]
        assert isinstance(node.parts[0][1], RefExpr)
        assert isinstance(node.parts[1][1], GenExpr)
        assert node.parts[1][1].polarity == "client"

    def test_multiplicity_prefix(self):
        node = parse_expression("2 x OEEins.et(fp:fsla + fp:dsla)")
        assert isinstance(node, ScaleExpr) and node.factor == 2
        assert node.inner.motive == ("fp:fsla", "fp:dsla")

    def test_plus_followed_by_unary_minus(self):
        node = parse_expression("X + -Di.it(us)")
        assert isinstance(node.parts[1][1], NegExpr)

    def test_x_is_an_ordinary_name_elsewhere(self):
        node = parse_expression("x + 2 x x.a(m)")
        assert isinstance(node.parts[0][1], RefExpr)
        assert node.parts[0][1].name == "x"
        assert isinstance(node.parts[1][1], ScaleExpr)

    def test_integer_without_x_rejected(self):
        with pytest.raises(ParseError, match="multiplicity"):
            parse_expression("2 f.a(m)")

    def test_zero_atom(self):
        assert evaluate_expression_text("0").is_zero
        assert evaluate_expression_text("f.a(0)@g") == \
            Interface.term(service("f", "a", (), host="g"))

    def test_conditional_element(self):
        node = parse_expression("f.a(m) <| c |> 0")
        assert isinstance(node, CondExpr)
        assert (node.variable, node.negated) == ("c", False)
        negated = parse_expression("f.a(m) <| !c |> 0")
        assert negated.negated

    # blanks in place of the comment or the parentheses keep every position
    def test_comment_is_dropped(self):
        assert parse_expression("f.a(m)@g %[why%] + h.b(m)@g") == \
            parse_expression("f.a(m)@g         + h.b(m)@g")

    def test_comment_after_a_sign_is_dropped(self):
        assert parse_expression("f.a(m)@g + %[why%] h.b(m)@g") == \
            parse_expression("f.a(m)@g +         h.b(m)@g")

    def test_parentheses_are_dropped(self):
        assert parse_expression("(f.a(m))") == parse_expression(" f.a(m) ")

    # a comment may follow any factor but a bare, negated or scaled 0;
    # the error stands at that 0
    @pytest.mark.parametrize("text, zero_at", [
        ("interface I { 0 %[c%] }", "1:15"),
        ("interface I { -0 %[c%] }", "1:16"),
        ("interface I { 2 x 0 %[c%] }", "1:19"),
        ("interface I { e.a(m) + 0 %[c%] }", "1:24"),
        ("interface I { 0 + %[c%] e.a(m) }", "1:15"),
        ("interface I { 0 - 0 %[c%] }", "1:19"),
        ("interface I { (0) %[c%] }", None),
        ("interface I { -(0) %[c%] }", None),
        ("interface I { e.a(m) <| c |> 0 %[c%] }", None),
        ("interface I { 0 <| c |> 0 %[c%] }", None),
        ("interface I { e.a(m) + %[c%] 0 }", None),
    ])
    def test_comment_placement(self, text, zero_at):
        if zero_at is None:
            parse_module(text, "m.fti")
            return
        with pytest.raises(ParseError) as err:
            parse_module(text, "m.fti")
        assert str(err.value) == f"m.fti:{zero_at}: comment does not follow an interface element"

    def test_error_position(self):
        with pytest.raises(ParseError) as err:
            parse_expression("f.a(m) +\n+ g")
        assert err.value.pos.line == 2

    def test_unknown_reply_constraint(self):
        with pytest.raises(ParseError, match="reply"):
            parse_expression("f.a(m)@g/Q")


class TestDeclarations:
    """Each declaration error has this exact message and position, and the
    parser accepts the forms that ``docs/grammar.ebnf`` allows."""

    @pytest.mark.parametrize("text, error", [
        ("action", "1:7: expected action name, found 'end of input'"),
        ("motive 1", "1:8: expected motive name, found '1'"),
        ("condition +", "1:11: expected condition variable name, found '+'"),
        ("extern action", "1:14: expected action name, found 'end of input'"),
        ("extern motive", "1:14: expected motive name, found 'end of input'"),
        ("extern condition c", "1:8: extern expects entity, action or motive"),
        ("extern entity e { entity f }", "1:17: extern entities cannot declare children"),
        ("action a b", "1:10: expected a declaration, found 'b'"),
    ], ids=["action-eof", "motive-int", "condition-plus", "extern-action", "extern-motive",
            "extern-condition", "extern-entity-children", "two-names"])
    def test_parse_errors(self, text, error):
        with pytest.raises(ParseError) as err:
            parse_module(text, "m.fti")
        assert str(err.value) == "m.fti:" + error

    def test_extern_item_takes_the_extern_position(self):
        assert parse_module("  extern  action a\ncondition c", "m.fti").items == [
            NameItem(SourcePosition(1, 3, "m.fti"), "action", "a", extern=True),
            NameItem(SourcePosition(2, 1, "m.fti"), "condition", "c", extern=False),
        ]

    @pytest.mark.parametrize("text, item", [
        ("rename S = I { }", RenameDef(None, "S", "I", (), (), ())),
        ("rename R = I { entity a -> b, }", RenameDef(None, "R", "I", (("a", "b"),), (), ())),
        ("architecture A { }", ArchitectureDef(None, "A", ())),
    ], ids=["rename-empty", "rename-trailing-comma", "architecture-empty"])
    def test_empty_bodies_and_trailing_commas(self, text, item):
        (parsed_item,) = parse_module(text, "m.fti").items
        assert parsed_item == item.replace(pos=parsed_item.pos)


MODULE_TEXT = """
entity e1
entity e2 { entity inner }
action a
motive m
condition c

interface Plain @local monoid { e2.a(m) + 2 x inner.a(m) }
interface Hosted @global { e2.a(m)@e1 - ~e1.a(m)@e2 }
interface Maybe @local { e2.a(m) <| c |> 0 }

architecture Demo {
  e1 : Plain,
  contained e2 : { ~e1.a(m) },
}

check closed Demo
"""


def test_nodes_and_diagnostics_hash():
    text = "(f.a(m) <| c |> 0) + 2 x ~g.b(n)@h/T %[note%]"
    node = parse_expression(text)
    assert parse_expression(text) == node
    assert hash(parse_expression(text)) == hash(node)
    res = resolve(parse_module("entity f\naction a\nmotive m\n"
                               "interface I { f.a(m) + zz.a(m) + f.b(m) }\n"
                               "interface J { I + K }\n", filename="bad.fti"))
    assert len(res.diagnostics) == 3
    assert len(set(res.diagnostics)) == len(res.diagnostics)


class TestModules:
    def test_parse_and_resolve(self):
        res = resolve(parse_module(MODULE_TEXT))
        assert res.ok, [d.render() for d in res.errors]
        assert res.catalog.entity_path("inner") == ("e2", "inner")
        plain = res.interfaces["Plain"]
        assert isinstance(plain, Interface)
        assert plain.coefficient(service("inner", "a", "m")) == 2
        members = {m.entity: m for m in res.architectures["Demo"].members}
        assert members["e2"].contained
        assert res.directives()[0].target == "Demo"

    def test_conditional_definition(self):
        res = resolve(parse_module(MODULE_TEXT))
        maybe = res.interfaces["Maybe"]
        assert maybe.branches
        assert maybe.variables() == ("c",)

    def test_undeclared_entity_named_in_error(self):
        res = resolve(parse_module("action a\nmotive m\ninterface I { XYZ.a(m) }"))
        assert not res.ok
        assert any("XYZ" in d.message for d in res.errors)

    def test_errors_collected_exhaustively(self):
        text = "interface I { A.x(y) }\ninterface J { B.z(w) }"
        res = resolve(parse_module(text))
        missing = {d.message for d in res.errors}
        for name in ("A", "B", "x", "z", "y", "w"):
            assert any(name in m for m in missing), name

    def test_allow_undeclared_downgrades_to_warning(self):
        res = resolve(parse_module("interface I { A.x(y) }"), allow_undeclared=True)
        assert res.ok
        assert len(res.warnings) == 3
        assert res.catalog.entities["A"].extern

    def test_cyclic_reference(self):
        text = "interface A { B }\ninterface B { A }"
        res = resolve(parse_module(text), allow_undeclared=True)
        assert any("cyclic" in d.message for d in res.errors)

    def test_duplicate_definitions(self):
        text = "entity e\nentity e\naction a\ninterface I { 0 }\ninterface I { 0 }"
        res = resolve(parse_module(text))
        assert sum("duplicate" in d.message for d in res.errors) == 2

    def test_scope_annotation_mismatch(self):
        text = "entity e\nentity f\naction a\nmotive m\ninterface I @local { f.a(m)@e }"
        res = resolve(parse_module(text))
        assert any("@local" in d.message for d in res.errors)

    def test_scope_mixing_reported(self):
        text = "entity e\nentity f\naction a\nmotive m\ninterface I { f.a(m)@e + f.a(m) }"
        res = resolve(parse_module(text))
        assert any("cannot combine" in d.message and "I" in d.message for d in res.errors)

    def test_fault_in_evaluation_is_not_a_diagnostic(self, monkeypatch):
        # only a SpecError is a fault of the input; a builtin ValueError from
        # evaluation is a fault of ftig and must not become "in interface X: ..."
        def broken(self, node):
            raise ValueError("invalid literal for int() with base 10: 'x'")
        monkeypatch.setattr(resolver_module._Evaluator, "eval", broken)
        module = parse_module("entity e\naction a\nmotive m\ninterface I { e.a(m) }")
        with pytest.raises(ValueError) as caught:
            resolve(module)
        assert type(caught.value) is ValueError

    def test_global_member_rejected(self):
        text = ("entity e\nentity f\naction a\nmotive m\n"
                "architecture A { e : { f.a(m)@e } }")
        res = resolve(parse_module(text))
        assert any("local" in d.message for d in res.errors)

    def test_resolution_is_order_independent(self):
        module = parse_module(MODULE_TEXT)
        res = resolve(module)
        rng = random.Random(7)
        for _ in range(5):
            items = list(module.items)
            rng.shuffle(items)
            shuffled = SpecModule(items)
            res2 = resolve(shuffled)
            assert res2.ok
            assert res2.interfaces == res.interfaces

    def test_reference_to_undefined_interface(self):
        res = resolve(parse_module("interface I { Nowhere }"))
        assert any("undefined interface" in d.message for d in res.errors)


DERIVED_TEXT = """
entity f
entity g
entity h
action a
motive m
motive m2

interface G @global { f.a(m)@g + h.a(m2)@g }

refine Split = G expand f into f1, f2
rename Merged = G { motive m -> m2, entity h -> g }
"""


def resolve_fixtures(*names):
    module = SpecModule()
    for name in names:
        module.extend(parse_module(FIXTURE_TEXTS[name], filename=name))
    return resolve(module)


class TestPlainPath:
    """The resolver sends values without branches through no conditional_sum
    and resolves them to ``Interface`` values; only a surviving branch makes a
    ConditionalInterface."""

    def test_plain_module_skips_the_conditional_machinery(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("conditional machinery used for a plain value")

        monkeypatch.setattr(resolver_module, "conditional_sum", refuse)
        res = resolve_fixtures("catalog.fti", "lfti_maeiis.fti", "closed_arch.fti")
        assert res.ok, [d.render() for d in res.errors]
        assert res.interfaces and all(isinstance(v, Interface) for v in res.interfaces.values())
        assert not res.architectures["ClosedMaEIis"].has_conditionals
        assert evaluate_expression_text("2 x (f.a(m)@g - g.a(m)@f) + -f.a(m)@g") == \
            Interface([(service("f", "a", "m", host="g"), 1),
                       (service("g", "a", "m", host="f"), -2)])

    def test_conditional_module_reaches_conditional_sum(self, monkeypatch):
        calls = []

        def counted(parts):
            calls.append(parts)
            return transform.conditional_sum(parts)

        monkeypatch.setattr(resolver_module, "conditional_sum", counted)
        res = resolve_fixtures("cond_open.fti")
        assert res.ok, [d.render() for d in res.errors]
        assert calls
        assert res.architectures["CondOpen"].has_conditionals


class TestDerivedDefinitions:
    def test_refine_definition(self):
        res = resolve(parse_module(DERIVED_TEXT))
        assert res.ok, [d.render() for d in res.errors]
        split = res.interfaces["Split"]
        assert isinstance(split, Interface)
        assert split.coefficient(service("f1", "a", "m", host="g")) == 1
        assert split.coefficient(service("f2", "a", "m", host="g")) == 1
        assert split.coefficient(service("f", "a", "m", host="g")) == 0
        # parts become extern entities
        assert res.catalog.entities["f1"].extern

    def test_rename_definition(self):
        res = resolve(parse_module(DERIVED_TEXT))
        merged = res.interfaces["Merged"]
        assert isinstance(merged, Interface)
        assert merged.coefficient(service("f", "a", "m2", host="g")) == 1
        assert merged.coefficient(service("g", "a", "m2", host="g")) == 1

    def test_refine_part_collision_warns(self):
        text = DERIVED_TEXT + "\nrefine Bad = G expand h into g, hx\n"
        res = resolve(parse_module(text))
        assert any("collides" in d.message for d in res.warnings)

    def test_rename_target_must_be_declared(self):
        text = DERIVED_TEXT + "\nrename Bad = G { motive m -> nowhere }\n"
        res = resolve(parse_module(text))
        assert any("nowhere" in d.message for d in res.errors)

    def test_refine_of_local_source_fails(self):
        text = ("entity f\nentity g\naction a\nmotive m\n"
                "interface L @local { f.a(m) }\n"
                "refine R = L expand f into f1, f2\n")
        res = resolve(parse_module(text))
        assert any("R" in d.message for d in res.errors)


class TestRoundTrip:
    def test_resolved_interfaces_reparse(self, rng):
        from conftest import random_interface
        for _ in range(100):
            i = random_interface(rng, composite_motives=True)
            assert evaluate_expression_text(i.render()) == i


class TestLint:
    def test_self_transfer_warning(self):
        text = "entity f\naction a\nmotive m\ninterface I @global { f.a(m)@f }"
        res = resolve(parse_module(text))
        assert any("self-transfer" in d.message for d in lint(res))

    def test_member_self_transfer_warning(self):
        text = "entity f\naction a\nmotive m\narchitecture A { f : { f.a(m) } }"
        res = resolve(parse_module(text))
        assert any("transfers" in d.message and "itself" in d.message for d in lint(res))

    def test_monoid_with_negative_coefficient(self):
        text = "entity f\nentity g\naction a\nmotive m\n" \
            "interface I @local monoid { f.a(m) - g.a(m) }"
        res = resolve(parse_module(text))
        assert any("monoid" in d.message for d in lint(res))

    def test_non_tf_reply_warning(self):
        text = "entity f\naction a\nmotive m\ninterface I { f.a(m)/F }"
        res = resolve(parse_module(text))
        assert any("/F" in d.message for d in lint(res))

    def test_unused_declaration_warning(self):
        text = "entity f\nentity ghost\naction a\nmotive m\ninterface I { f.a(m) }"
        res = resolve(parse_module(text))
        assert any("unused entity: ghost" in d.message for d in lint(res))

    def test_clean_module_has_no_warnings(self):
        text = "entity f\naction a\nmotive m\ninterface I @local monoid { f.a(m) }"
        res = resolve(parse_module(text))
        assert lint(res) == []

    def test_duplicate_definition_body_is_not_looked_up(self):
        text = "entity e\naction a\nmotive m\nmotive n\n" \
            "interface I { e.a(m) }\ninterface I { e.a(n) }"
        res = resolve(parse_module(text))
        assert [d.message for d in res.errors] == ["duplicate interface definition: I"]
        assert [d.message for d in lint(res)] == ["unused motive: n"]

    def test_parent_of_used_entity_counts_as_used(self):
        text = "entity p { entity ch }\naction a\nmotive m\ninterface I { ch.a(m) }"
        res = resolve(parse_module(text))
        assert not any("unused entity: p" in d.message for d in lint(res))
