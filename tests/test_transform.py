import itertools
import operator

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import old_homomorphisms as old
from ftig.algebra import (
    ALPHA_TF, ALPHAS, I64_MAX, I64_MIN, Generator, Interface, client, service,
)
from ftig.catalog import Catalog
from ftig.errors import CapacityError, ScopeError
from ftig.locglob import globalize
from ftig.reflection import Residual, reduce_modulo_reflection, reflect_generator
from ftig.transform import (
    MAX_CONDITION_VARS, AssignmentReport, ConditionalInterface, ConditionLiteral,
    RefinementSpec, RenameMap, annihilate, closed_under_all_assignments, conditional_sum,
    eval_conditional, expand_motives, refine, rename,
)

from conftest import (
    COEFFS, interfaces, outcome, random_interface, random_monoid_interface, sum_parts,
)


class TestExpandMotives:
    def test_distributes_composite(self):
        i = Interface.term(service("f", "a", ("v", "w"), host="g"))
        assert expand_motives(i) == \
            Interface.term(service("f", "a", "v", host="g")) + \
            Interface.term(service("f", "a", "w", host="g"))

    def test_zero_motive_vanishes(self):
        assert expand_motives(Interface.term(service("f", "a", (), host="g"))).is_zero
        assert expand_motives(Interface.term(client("f", "a", (), host="g"))).is_zero

    def test_multiplicity_listing(self):
        i = 2 * Interface.term(service("OEEins", "et", ("fp:fsla", "fp:dsla")))
        assert expand_motives(i) == \
            2 * Interface.term(service("OEEins", "et", "fp:fsla")) + \
            2 * Interface.term(service("OEEins", "et", "fp:dsla"))

    def test_repeated_atom_multiplies_coefficient(self):
        i = Interface.term(service("f", "a", ("v", "v", "w"), host="g"))
        out = expand_motives(i)
        assert out.coefficient(service("f", "a", "v", host="g")) == 2
        assert out.coefficient(service("f", "a", "w", host="g")) == 1

    def test_idempotent(self, rng):
        for _ in range(200):
            x = random_interface(rng, composite_motives=True)
            once = expand_motives(x)
            assert expand_motives(once) == once

    def test_homomorphism(self, rng):
        for _ in range(200):
            a = random_interface(rng, composite_motives=True)
            b = random_interface(rng, composite_motives=True)
            assert expand_motives(a + b) == expand_motives(a) + expand_motives(b)
            assert expand_motives(-a) == -expand_motives(a)


SPEC_F12 = RefinementSpec("f", ("f1", "f2"))


class TestRefine:
    def test_both_sides_give_all_pairs(self):
        i = Interface.term(service("f", "a", "m", host="f"))
        expected = Interface([
            (service("f1", "a", "m", host="f1"), 1),
            (service("f1", "a", "m", host="f2"), 1),
            (service("f2", "a", "m", host="f1"), 1),
            (service("f2", "a", "m", host="f2"), 1),
        ])
        assert refine(i, SPEC_F12) == expected

    def test_host_only(self):
        i = Interface.term(service("g", "a", "m", host="f"))
        assert refine(i, SPEC_F12) == \
            Interface.term(service("g", "a", "m", host="f1")) + \
            Interface.term(service("g", "a", "m", host="f2"))

    def test_target_only(self):
        i = Interface.term(service("f", "a", "m", host="h"))
        assert refine(i, SPEC_F12) == \
            Interface.term(service("f1", "a", "m", host="h")) + \
            Interface.term(service("f2", "a", "m", host="h"))

    def test_untouched_elements_pass_through(self):
        i = Interface.term(service("g", "a", "m", host="h"))
        assert refine(i, SPEC_F12) == i

    def test_client_polarity_same_scheme(self):
        i = Interface.term(client("f", "a", "m", host="h"))
        assert refine(i, SPEC_F12) == \
            Interface.term(client("f1", "a", "m", host="h")) + \
            Interface.term(client("f2", "a", "m", host="h"))

    def test_coefficients_multiply_through(self):
        i = -3 * Interface.term(service("g", "a", "m", host="f"))
        out = refine(i, SPEC_F12)
        assert out.coefficient(service("g", "a", "m", host="f1")) == -3

    def test_composite_motive_rejected(self):
        i = Interface.term(service("f", "a", ("v", "w"), host="g"))
        with pytest.raises(ValueError, match="expand"):
            refine(i, SPEC_F12)

    def test_local_rejected(self):
        with pytest.raises(ScopeError):
            refine(Interface.term(service("f", "a", "m")), SPEC_F12)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            RefinementSpec("f", ("f1", "f1"))
        with pytest.raises(ValueError):
            RefinementSpec("f", ("f", "f2"))
        with pytest.raises(ValueError):
            RefinementSpec("f", ())

    def test_single_part_equals_rename(self, rng):
        spec = RefinementSpec("e1", ("z",))
        mapping = RenameMap(entity_map={"e1": "z"})
        for _ in range(100):
            x = random_interface(rng)
            assert refine(x, spec) == rename(x, mapping)

    def test_homomorphism(self, rng):
        for _ in range(200):
            a = random_interface(rng)
            b = random_interface(rng)
            assert refine(a + b, SPEC_F12) == refine(a, SPEC_F12) + refine(b, SPEC_F12)
            assert refine(-a, SPEC_F12) == -refine(a, SPEC_F12)

    def test_preserves_closedness(self, rng):
        spec = RefinementSpec("e1", ("e1a", "e1b"))
        for _ in range(100):
            x = random_monoid_interface(rng)
            matched = x + Interface((g.reflection_partner(), c) for g, c in x)
            assert reduce_modulo_reflection(matched).closed
            assert reduce_modulo_reflection(refine(matched, spec)).closed


class TestAnnihilate:
    def test_drops_listed_generators(self):
        x, y = service("f", "a", "m", host="g"), service("h", "b", "m", host="g")
        assert annihilate(Interface([(x, 1), (y, 1)]), {y}) == Interface.term(x)

    def test_empty_kill_set(self, rng):
        x = random_interface(rng)
        assert annihilate(x, set()) == x

    def test_composed_with_refine(self):
        # refine a self-transfer, then kill the two part self-transfers:
        # only the cross-part elements remain
        refined = refine(Interface.term(service("f", "a", "m", host="f")), SPEC_F12)
        out = annihilate(refined, {service("f1", "a", "m", host="f1"),
                                   service("f2", "a", "m", host="f2")})
        assert out == Interface.term(service("f1", "a", "m", host="f2")) + \
            Interface.term(service("f2", "a", "m", host="f1"))

    def test_homomorphism(self, rng):
        kill = {service("e1", "a", "m1", host="e2"), client("e2", "b", "m2", host="e1")}
        for _ in range(200):
            a = random_interface(rng)
            b = random_interface(rng)
            assert annihilate(a + b, kill) == annihilate(a, kill) + annihilate(b, kill)
            assert annihilate(-a, kill) == -annihilate(a, kill)


class TestRename:
    def test_motive_merge_creates_multiplicity(self):
        i = Interface.term(service("f", "a", "m1", host="g")) + \
            Interface.term(service("f", "a", "m2", host="g"))
        mapping = RenameMap(motive_map={"m1": "m", "m2": "m"})
        assert rename(i, mapping) == 2 * Interface.term(service("f", "a", "m", host="g"))

    def test_identity(self, rng):
        x = random_interface(rng, composite_motives=True)
        assert rename(x, RenameMap()) == x

    def test_maps_host_target_action_and_atoms(self):
        i = Interface.term(client("f", "a", ("m1", "m2"), host="g"))
        mapping = RenameMap(entity_map={"f": "F", "g": "G"},
                            action_map={"a": "A"}, motive_map={"m1": "M"})
        assert rename(i, mapping) == Interface.term(client("F", "A", ("M", "m2"), host="G"))

    def test_additive_on_random_pairs(self, rng):
        mapping = RenameMap(entity_map={"e1": "e2"}, motive_map={"m1": "m2"})
        for _ in range(500):
            a = random_interface(rng)
            b = random_interface(rng)
            assert rename(a + b, mapping) == rename(a, mapping) + rename(b, mapping)
            assert rename(-a, mapping) == -rename(a, mapping)


C = ConditionLiteral("c")
NOT_C = ConditionLiteral("c", negated=True)
F_AT_G = Interface.term(service("f", "a", "m", host="g"))


class TestConditional:
    def test_eval_true_includes_branch(self):
        cond = ConditionalInterface(branches={C: F_AT_G})
        assert eval_conditional(cond, {"c": True}) == F_AT_G

    def test_eval_false_drops_branch(self):
        cond = ConditionalInterface(branches={C: F_AT_G})
        assert eval_conditional(cond, {"c": False}).is_zero

    def test_negated_literal_mirrors(self):
        cond = ConditionalInterface(branches={NOT_C: F_AT_G})
        assert eval_conditional(cond, {"c": True}).is_zero
        assert eval_conditional(cond, {"c": False}) == F_AT_G

    def test_missing_variable_rejected(self):
        cond = ConditionalInterface(branches={C: F_AT_G})
        with pytest.raises(ValueError, match="c"):
            eval_conditional(cond, {})

    def test_unconditional_always_included(self):
        cond = ConditionalInterface(F_AT_G, {C: 2 * F_AT_G})
        assert eval_conditional(cond, {"c": False}) == F_AT_G
        assert eval_conditional(cond, {"c": True}) == 3 * F_AT_G

    def test_monotone_in_branch_inclusion(self, rng):
        for _ in range(100):
            base = random_interface(rng)
            extra = random_interface(rng)
            cond = ConditionalInterface(base)
            grown = ConditionalInterface(base, {ConditionLiteral("d"): extra})
            sigma = {"d": False}
            assert eval_conditional(grown, sigma) == eval_conditional(cond, {})

    def test_scope_mixing_rejected(self):
        with pytest.raises(ScopeError):
            ConditionalInterface(F_AT_G, {C: Interface.term(service("f", "a", "m"))})

    def test_matched_conditional_pair_closed_for_both_values(self):
        # at g: outgoing to f under c; at f: the matching incoming under c
        at_g = ConditionalInterface(branches={C: Interface.term(service("f", "a", "m"))})
        at_f = ConditionalInterface(branches={C: Interface.term(client("g", "a", "m"))})
        total = conditional_sum((at_g.map_interfaces(lambda i: globalize("g", i)),
                                 at_f.map_interfaces(lambda i: globalize("f", i))))
        report = closed_under_all_assignments(total)
        assert report.closed
        assert len(report.cases) == 2

    def test_no_conditionals_reduces_to_plain_check(self):
        pair = Interface.term(service("e2", "a", "m", host="e1")) + \
            Interface.term(client("e1", "a", "m", host="e2"))
        report = closed_under_all_assignments(ConditionalInterface(pair))
        assert report.closed and len(report.cases) == 1

    def test_mismatched_conditions_not_closed(self):
        at_g = ConditionalInterface(branches={C: Interface.term(service("f", "a", "m", host="g"))})
        at_f = ConditionalInterface(
            branches={ConditionLiteral("d"): Interface.term(client("g", "a", "m", host="f"))})
        report = closed_under_all_assignments(conditional_sum((at_g, at_f)))
        assert not report.closed
        failing = [dict(a) for a, rep in report.cases if not rep.closed]
        assert {"c": True, "d": False} in failing
        assert failing == [{"c": False, "d": True}, {"c": True, "d": False}]

    def test_capacity_limit(self):
        branches = {ConditionLiteral(f"v{k}"): Interface.term(service("f", "a", "m", host="g"))
                    for k in range(17)}
        with pytest.raises(CapacityError):
            closed_under_all_assignments(ConditionalInterface(branches=branches))

    def test_render_round_trip(self):
        from ftig.speclang import evaluate_expression_text
        cases = [
            ConditionalInterface(branches={C: F_AT_G}),
            ConditionalInterface(F_AT_G, {C: 2 * F_AT_G}),
            ConditionalInterface(branches={C: -F_AT_G}),
            ConditionalInterface(branches={
                NOT_C: F_AT_G + Interface.term(service("h", "b", "m", host="g"))}),
        ]
        for cond in cases:
            assert evaluate_expression_text(cond.render()) == cond


# ------------------------------------------------------- pairwise oracle

def pairwise_conditional_sum(parts):
    """Oracle: the left fold of ``ConditionalInterface.__add__`` as it stood
    before sums ran in one pass, as (unconditional, sorted branches)."""
    unconditional, branches = Interface.zero(), {}
    for part in parts:
        unconditional = unconditional + part.unconditional
        for lit, iface in part.branches:
            merged = branches.get(lit, Interface.zero()) + iface
            if merged.is_zero:
                branches.pop(lit, None)
            else:
                branches[lit] = merged
        scopes = {unconditional.scope} | {i.scope for i in branches.values()}
        scopes.discard(None)
        if len(scopes) > 1:
            raise ScopeError("conditional branches mix local and global interfaces")
    return unconditional, tuple(sorted(branches.items(), key=lambda t: t[0].sort_key()))


LITERALS = (C, NOT_C, ConditionLiteral("d"))


@st.composite
def conditional_interfaces(draw):
    local = draw(st.booleans())
    branches = draw(st.dictionaries(st.sampled_from(LITERALS), interfaces(local), max_size=3))
    return ConditionalInterface(draw(interfaces(local)), branches)


def parts_of(cond):
    return cond.unconditional, cond.branches


def negated(cond):
    return cond.map_interfaces(operator.neg)


LOCAL_F = Interface.term(service("f", "a", "m"))


class TestConditionalSumOracle:
    @given(sum_parts(conditional_interfaces(), negated, max_size=6))
    # the mix of a local branch and a global part is an error even though
    # the branch cancels later
    @example([ConditionalInterface(branches={C: LOCAL_F}), ConditionalInterface(F_AT_G),
              ConditionalInterface(branches={C: -LOCAL_F})])
    @settings(max_examples=100, deadline=None)
    def test_conditional_sum_equals_pairwise_fold(self, parts):
        want = outcome(pairwise_conditional_sum, parts)
        assert outcome(lambda: parts_of(conditional_sum(iter(parts)))) == want
        # a part without branches may be passed as its plain Interface
        unwrapped = [p if p.branches else p.unconditional for p in parts]
        assert outcome(lambda: parts_of(conditional_sum(iter(unwrapped)))) == want

    def test_branches_cancel_and_scope_frees(self):
        got = conditional_sum([
            ConditionalInterface(branches={C: LOCAL_F}),
            ConditionalInterface(branches={C: -LOCAL_F}),
            ConditionalInterface(F_AT_G),
        ])
        assert got == ConditionalInterface(F_AT_G)


# ------------------------------------------------ enumeration oracle

def enumerated_closedness(cond):
    """Oracle: ``closed_under_all_assignments`` as it stood before it reduced
    each part once: evaluate every assignment, then reduce the evaluation
    (with the reduction loop of that time)."""
    variables = cond.variables()
    if len(variables) > MAX_CONDITION_VARS:
        raise CapacityError(
            f"{len(variables)} condition variables exceed the limit of {MAX_CONDITION_VARS}"
        )
    cases = []
    for values in itertools.product((False, True), repeat=len(variables)):
        assignment = dict(zip(variables, values))
        iface = eval_conditional(cond, assignment)
        if iface.scope == "local":
            raise ScopeError("cannot reduce a local interface modulo reflection")
        acc, stuck = [], []
        for gen, coeff in iface:
            if gen.alpha != ALPHA_TF:
                stuck.append(gen)
            reflected = reflect_generator(gen)
            if reflected is not None:
                acc.append((reflected[0], reflected[1] * coeff))
        residual = Residual(Interface(acc))
        assert residual.non_cancellable == tuple(sorted(stuck, key=Generator.sort_key))
        cases.append((tuple(sorted(assignment.items())), residual))
    return AssignmentReport(tuple(cases))


GUARD_LITERALS = (C, NOT_C, ConditionLiteral("d"), ConditionLiteral("d", negated=True),
                  ConditionLiteral("e", negated=True))


def reflected(iface):
    """The reflection partner of each term of ``iface``, same coefficient."""
    return Interface((g.reflection_partner(), c) for g, c in iface)


@st.composite
def guarded_conditionals(draw):
    """Mostly global conditional interfaces whose branches are often the
    negation or the reflection of an earlier part, so that some
    assignments cancel; coefficients near the i64 limits."""
    local = draw(st.integers(0, 4)) == 0
    drawn = [draw(interfaces(local))]
    branches = []
    for lit in draw(st.lists(st.sampled_from(GUARD_LITERALS), unique=True, max_size=4)):
        how = draw(st.sampled_from(("fresh", "negate", "reflect")))
        source = draw(st.sampled_from(drawn))
        try:
            if how == "negate":
                iface = -source
            elif how == "reflect" and not local:
                iface = reflected(source)
            else:
                iface = draw(interfaces(local))
        except OverflowError:  # the negation of -2**63
            iface = draw(interfaces(local))
        drawn.append(iface)
        branches.append((lit, iface))
    return ConditionalInterface(drawn[0], branches)


HALF = 2**62
CLIENT_AT_E2 = client("e1", "a", "m", host="e2")
LOCAL_G = Interface.term(service("g", "a", "m"))


class TestAllAssignmentsOracle:
    @given(guarded_conditionals())
    # evaluated under c the sum overflows; the reduced parts sum to -2**63
    @example(ConditionalInterface(Interface.term(CLIENT_AT_E2, HALF),
                                  {C: Interface.term(CLIENT_AT_E2, HALF)}))
    # the same at exactly I64_MAX in magnitude: no overflow on either side
    @example(ConditionalInterface(Interface.term(CLIENT_AT_E2, HALF),
                                  {C: Interface.term(CLIENT_AT_E2, HALF - 1)}))
    # local parts whose every evaluation is zero: closed, never reduced
    @example(ConditionalInterface(LOCAL_G, {C: -LOCAL_G, NOT_C: -LOCAL_G}))
    # non-TF terms only in branches, one of them cancelled by another branch
    @example(ConditionalInterface(F_AT_G, {
        C: Interface.term(service("f", "a", "m", host="g", alpha="T")),
        ConditionLiteral("d"): Interface.term(service("f", "a", "m", host="g", alpha="T"), -1),
        ConditionLiteral("e", negated=True): Interface.term(client("g", "a", "m", host="f"))}))
    @settings(max_examples=300, deadline=None)
    def test_reduced_parts_equal_enumeration(self, cond):
        assert outcome(closed_under_all_assignments, cond) == \
            outcome(enumerated_closedness, cond)

    @pytest.mark.parametrize("coefficient", [1, HALF], ids=["reduced", "evaluated"])
    def test_cases_share_their_pairs(self, coefficient):
        # each case lists (variable, value) pairs in the parent's order; the 2^3
        # cases hold the same 6 pair objects between them
        terms = [Interface.term(service(t, a, "m", host="g"), coefficient)
                 for t in ("f", "h") for a in ("a", "b")]
        cond = ConditionalInterface(terms[0], {ConditionLiteral(v): iface
                                               for v, iface in zip("cde", terms[1:])})
        cases = [case for case, _ in closed_under_all_assignments(cond).cases]
        assert cases == [tuple(zip("cde", values))
                         for values in itertools.product((False, True), repeat=3)]
        assert len({id(pair) for case in cases for pair in case}) == 6


# ------------------------------------------------- homomorphism oracle

# small pools, so that image terms meet: merges cancel and overflow,
# hosts meet targets (self-loops), and motive atoms repeat
ATOMS = st.sampled_from(("m", "n"))


@st.composite
def oracle_interfaces(draw, local=None, atomic=False):
    """A small interface, local or global, with coefficients near ±2**63,
    every reply constraint and (unless ``atomic``) composite motives."""
    if local is None:
        local = draw(st.booleans())
    motives = st.tuples(ATOMS)
    if not atomic:
        motives = st.one_of(motives, st.lists(ATOMS, max_size=3))
    gens = st.builds(
        Generator,
        target=st.sampled_from(("e1", "e2")),
        action=st.sampled_from(("a", "b")),
        motive=motives,
        polarity=st.sampled_from(("service", "client")),
        host=st.just(None) if local else st.sampled_from(("e1", "e2")),
        alpha=st.sampled_from(ALPHAS),
    )
    return Interface(draw(st.dictionaries(gens, COEFFS, max_size=5)))


def image_outcome(fn, *args):
    """The value of ``fn(*args)`` with the terms and scope of its interface,
    or the type and text of what it raised."""
    try:
        value = fn(*args)
    except (OverflowError, ScopeError, ValueError) as exc:
        return ("raised", type(exc), str(exc))
    iface = value.canonical if isinstance(value, Residual) else value
    return ("value", value, iface.terms, iface.scope)


@st.composite
def refinement_specs(draw):
    coarse = draw(st.sampled_from(("e1", "e2")))
    parts = draw(st.lists(st.sampled_from(("e1", "e2", "p", "q")), min_size=1, max_size=3,
                          unique=True).filter(lambda ps: coarse not in ps))
    return RefinementSpec(coarse, parts)


RENAME_MAPS = st.builds(
    RenameMap,
    entity_map=st.dictionaries(st.sampled_from(("e1", "e2")), st.sampled_from(("e1", "e2", "z"))),
    action_map=st.dictionaries(st.just("b"), st.sampled_from(("a", "c"))),
    motive_map=st.dictionaries(st.sampled_from(("m", "n")), st.sampled_from(("m", "n", "k"))),
)
CATALOG_E1_E2 = Catalog()
CATALOG_E1_E2.add_entity("e1")
CATALOG_E1_E2.add_entity("e2")
E1_TO_E2 = client("e2", "a", "m", host="e1")


class TestInducedOracle:
    """Each homomorphism built by ``algebra.induced`` equals the copy that
    accumulated its own image terms (``old_homomorphisms``): the value, its
    term order and scope, or the type and text of the first error."""

    @given(entity=st.sampled_from(("e1", "e2", "p")), iface=oracle_interfaces(),
           catalog=st.sampled_from((None, CATALOG_E1_E2)))
    @example(entity="e1", iface=Interface.term(client("e2", "a", "m"), I64_MIN), catalog=None)
    @settings(max_examples=300, deadline=None)
    def test_globalize(self, entity, iface, catalog):
        assert image_outcome(globalize, entity, iface, catalog) == \
            image_outcome(old.globalize, entity, iface, catalog)

    @given(iface=oracle_interfaces())
    # a + a is twice a: the two images of 2**62 sum to 2**63
    @example(iface=Interface.term(service("e2", "a", ("m", "m"), host="e1"), 2**62))
    @example(iface=Interface([(service("e2", "a", ("m", "n")), I64_MAX),
                              (service("e2", "a", "m"), -1)]))
    @settings(max_examples=300, deadline=None)
    def test_expand_motives(self, iface):
        assert image_outcome(expand_motives, iface) == image_outcome(old.expand_motives, iface)

    @given(iface=st.one_of(oracle_interfaces(atomic=True), oracle_interfaces()),
           spec=refinement_specs())
    # the coarse entity as both, as target only and as host only, then a
    # non-atomic motive
    @example(iface=Interface([(service("e1", "a", "m", host="e1"), 1),
                              (service("e1", "a", "m", host="e2"), 2),
                              (client("e2", "a", "m", host="e1"), 3),
                              (service("e2", "b", ("m", "n"), host="e2"), 1)]),
             spec=RefinementSpec("e1", ("p", "q")))
    # a part that is an existing entity merges images until they overflow
    @example(iface=Interface([(service("e1", "a", "m", host="e2"), I64_MAX),
                              (service("e2", "a", "m", host="e2"), 1)]),
             spec=RefinementSpec("e1", ("e2", "p")))
    @settings(max_examples=300, deadline=None)
    def test_refine(self, iface, spec):
        assert image_outcome(refine, iface, spec) == image_outcome(old.refine, iface, spec)

    @given(iface=oracle_interfaces(), mapping=RENAME_MAPS)
    @example(iface=Interface([(service("e1", "a", "m", host="e2"), 1),
                              (service("e2", "a", "m", host="e2"), -1)]),
             mapping=RenameMap({"e1": "e2"}))
    @example(iface=Interface([(service("e2", "a", "m"), I64_MAX),
                              (service("e2", "a", "n"), 1)]),
             mapping=RenameMap(motive_map={"n": "m"}))
    @settings(max_examples=300, deadline=None)
    def test_rename(self, iface, mapping):
        assert image_outcome(rename, iface, mapping) == image_outcome(old.rename, iface, mapping)

    @given(iface=oracle_interfaces(), data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_annihilate(self, iface, data):
        # some generators of iface, and some drawn apart from it, mostly absent
        kill = [g for g, _ in iface if data.draw(st.booleans())]
        kill += [g for g, _ in data.draw(oracle_interfaces())]
        assert image_outcome(annihilate, iface, kill) == \
            image_outcome(old.annihilate, iface, kill)

    @given(iface=oracle_interfaces())
    # the client -> -partner rewrite of -2**63 overflows
    @example(iface=Interface.term(E1_TO_E2, I64_MIN))
    # a TF self-loop vanishes, a non-TF one stays
    @example(iface=Interface([(service("e1", "a", "m", host="e1"), I64_MIN),
                              (service("e1", "a", "m", host="e1", alpha="T"), I64_MAX),
                              (E1_TO_E2, I64_MIN + 1)]))
    @settings(max_examples=300, deadline=None)
    def test_reduce_modulo_reflection(self, iface):
        assert image_outcome(reduce_modulo_reflection, iface) == \
            image_outcome(old.reduce_modulo_reflection, iface)
