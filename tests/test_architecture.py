import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ftig.algebra import (
    ALPHA_F, ALPHA_NONE, ALPHA_T, ALPHA_TF, ALPHAS, CLIENT, I64_MAX, I64_MIN, SERVICE,
    Generator, Interface, client, service,
)
from ftig.architecture import (
    Architecture, TransferEvent, _Declared, check_closed, comply_events, diff,
    global_sum, read_event_log,
)
from ftig.catalog import Catalog
from ftig.errors import LogFormatError, ScopeError
from ftig.reflection import reduce_modulo_reflection
from ftig.transform import ConditionalInterface, ConditionLiteral, RefinementSpec, refine

import old_architecture as old
import old_compliance
from conftest import COEFFS, interfaces, outcome, random_monoid_interface
from test_transform import LITERALS, conditional_interfaces, negated


def arch(*members, name="A"):
    return Architecture(name, members)


I1 = Interface.term(service("e2", "a", "m"))
I2 = Interface.term(client("e1", "a", "m"))


class TestGlobalSum:
    def test_two_entity_example(self):
        a = arch(("e1", I1), ("e2", I2))
        assert global_sum(a) == \
            Interface.term(service("e2", "a", "m", host="e1")) + \
            Interface.term(client("e1", "a", "m", host="e2"))

    def test_empty(self):
        assert global_sum(arch()).is_zero

    def test_single_member(self):
        assert global_sum(arch(("e1", I1))) == \
            Interface.term(service("e2", "a", "m", host="e1"))

    def test_expands_motives(self):
        a = arch(("e1", Interface.term(service("e2", "a", ("v", "w")))))
        assert global_sum(a) == \
            Interface.term(service("e2", "a", "v", host="e1")) + \
            Interface.term(service("e2", "a", "w", host="e1"))

    def test_global_member_rejected(self):
        with pytest.raises(ScopeError):
            arch(("e1", Interface.term(service("e2", "a", "m", host="e1"))))


class TestCheckClosed:
    def test_two_entity_closed(self):
        rep = check_closed(arch(("e1", I1), ("e2", I2)))
        assert rep.closed
        assert rep.residual_lines() == []

    def test_dangling_member_not_closed(self):
        rep = check_closed(arch(("e1", I1)))
        assert not rep.closed
        assert any("e1 -> e2" in line for line in rep.residual_lines())

    def test_verdict_invariant_under_member_permutation(self, rng):
        members = [("e1", I1), ("e2", I2),
                   ("e3", Interface.term(service("e4", "b", "m2"))),
                   ("e4", Interface.term(client("e3", "b", "m2")))]
        base = check_closed(arch(*members)).closed
        for _ in range(5):
            rng.shuffle(members)
            assert check_closed(arch(*members)).closed == base

    def test_verdict_invariant_under_member_splitting(self):
        whole = arch(("e1", I1 + 2 * Interface.term(service("e3", "b", "m"))), ("e2", I2))
        split = arch(("e1", I1), ("e2", I2),
                     ("e1", 2 * Interface.term(service("e3", "b", "m"))))
        assert check_closed(whole).closed == check_closed(split).closed
        assert global_sum(whole) == global_sum(split)

    def test_conditional_members_checked_under_all_assignments(self):
        c = ConditionLiteral("c")
        rep = check_closed(arch(
            ("g", ConditionalInterface(branches={c: Interface.term(service("f", "a", "m"))})),
            ("f", ConditionalInterface(branches={c: Interface.term(client("g", "a", "m"))})),
        ))
        assert rep.closed
        assert rep.conditional is not None and len(rep.conditional.cases) == 2

    def test_conditional_mismatch_reports_assignment(self):
        c = ConditionLiteral("c")
        rep = check_closed(arch(
            ("g", ConditionalInterface(branches={c: Interface.term(service("f", "a", "m"))})),
            ("f", I2),
        ))
        assert not rep.closed
        assert any("c=true" in line for line in rep.residual_lines())

    def test_conditional_verdict_needs_every_assignment(self):
        c = ConditionLiteral("c")
        rep = check_closed(arch(
            ("g", ConditionalInterface(branches={c: Interface.term(service("f", "a", "m"))})),
            ("f", ConditionalInterface(branches={c: Interface.term(client("g", "a", "m"))})),
            ("h", ConditionalInterface(branches={ConditionLiteral("c", negated=True): I1})),
        ))
        assert [r.closed for _, r in rep.conditional.cases] == [False, True]
        assert not rep.closed
        assert not rep.conditional.closed

    def test_refinement_keeps_architecture_closed(self, rng):
        for _ in range(50):
            x = random_monoid_interface(rng)
            matched = x + Interface((g.reflection_partner(), c) for g, c in x)
            spec = RefinementSpec("e2", ("e2a", "e2b"))
            from ftig.reflection import reduce_modulo_reflection
            assert reduce_modulo_reflection(refine(matched, spec)).closed


ORACLE_ENTITIES = ("e1", "e2", "e3")

# local elements with zero, single and repeated-atom motives, mostly TF
LOCAL_ELEMENTS = st.builds(
    Generator,
    target=st.sampled_from(ORACLE_ENTITIES),
    action=st.just("a"),
    motive=st.lists(st.sampled_from(("m1", "m2")), max_size=3).map(tuple),
    polarity=st.sampled_from((SERVICE, CLIENT)),
    host=st.just(None),
    alpha=st.sampled_from((ALPHA_TF, ALPHA_TF, *ALPHAS)),
)


@st.composite
def plain_architectures(draw):
    """A plain architecture whose members may hold self-transfers and
    coefficients near the 64-bit limits; on a drawn flag, each TF element's
    reflection partner is added at its target, so that sums cancel."""
    members = draw(st.dictionaries(st.sampled_from(ORACLE_ENTITIES),
                                   st.dictionaries(LOCAL_ELEMENTS, COEFFS, max_size=4),
                                   max_size=3))
    if draw(st.booleans()):
        partners: dict[str, dict[Generator, int]] = {}
        for entity, terms in members.items():
            for g, c in terms.items():
                if g.alpha == ALPHA_TF and g.target != entity:
                    flipped = CLIENT if g.polarity == SERVICE else SERVICE
                    partner = Generator(entity, g.action, g.motive, flipped, None, g.alpha)
                    at = partners.setdefault(g.target, {})
                    at[partner] = at.get(partner, 0) + c
        for entity, terms in partners.items():
            at = members.setdefault(entity, {})
            for g, c in terms.items():
                at[g] = at.get(g, 0) + c
    return Architecture("A", [
        (entity, Interface({g: c for g, c in terms.items() if I64_MIN <= c <= I64_MAX}))
        for entity, terms in members.items()])


def plain_outcome(fn):
    """The value of ``fn()``, or the type and text of what it raised."""
    try:
        return ("value", fn())
    except (OverflowError, ValueError) as exc:
        return ("raised", type(exc), str(exc))


class TestPlainClosednessOracle:
    """The one-pass plain check against the staged globalize, sum, expand
    and reduce: equal reports, or the same first error."""

    @given(a=plain_architectures(),
           missing=st.sampled_from((None, "all", *ORACLE_ENTITIES)))
    @settings(max_examples=400, deadline=None)
    def test_plain_check_equals_staged_check(self, a, missing):
        catalog = None
        if missing is not None:
            catalog = Catalog()
            for entity in ORACLE_ENTITIES:
                if entity != missing:
                    catalog.add_entity(entity)
        fused = plain_outcome(lambda: check_closed(a, catalog).plain)
        staged = plain_outcome(lambda: reduce_modulo_reflection(global_sum(a, catalog=catalog)))
        assert fused == staged


class TestDiff:
    def test_diff_with_self_is_all_zero(self):
        a = arch(("e1", I1), ("e2", I2))
        deltas = diff(a, a)
        assert [e for e, _ in deltas] == ["e1", "e2"]
        assert all(d.is_zero for _, d in deltas)

    def test_diff_against_empty(self):
        b = arch(("e1", I1), ("e2", I2), name="B")
        deltas = dict(diff(Architecture("empty"), b))
        assert deltas == {"e1": I1, "e2": I2}

    def test_member_recomposition(self, rng):
        a = arch(("e1", I1), ("e3", random_monoid_interface(rng, local=True)))
        b = arch(("e1", 2 * I1), ("e2", I2), name="B")
        members_a = {m.entity: m for m in a.members}
        members_b = {m.entity: m for m in b.members}
        for entity, delta in diff(a, b):
            member_a = members_a.get(entity)
            member_b = members_b.get(entity)
            left = (member_a.interface.unconditional if member_a else Interface.zero()) + delta
            right = member_b.interface.unconditional if member_b else Interface.zero()
            assert left == right


class TestMemberValues:
    """A member holds an ``Interface`` unless a branch is present."""

    def test_branchless_conditional_member_is_held_plain(self):
        a = arch(("e1", ConditionalInterface(I1)), ("e2", I2))
        assert [(type(m.interface), m.interface) for m in a.members] == \
            [(Interface, I1), (Interface, I2)]
        assert not a.has_conditionals
        rep = check_closed(a)
        assert rep.closed
        assert rep.plain is not None and rep.conditional is None

    def test_branches_cancelled_by_a_repeated_listing_leave_a_plain_member(self):
        c = ConditionLiteral("c")
        guarded = Interface.term(service("e2", "b", "m"))
        a = arch(("e1", ConditionalInterface(I1, {c: guarded})),
                 ("e1", ConditionalInterface(branches={c: -guarded})), ("e2", I2))
        assert type(a.members[0].interface) is Interface
        assert a.members[0].interface == I1
        assert not a.has_conditionals
        assert check_closed(a).plain is not None

    def test_member_with_a_branch_stays_conditional(self):
        cond = ConditionalInterface(I1, {ConditionLiteral("c"): I1})
        a = arch(("e1", cond), ("e1", Interface.zero()))
        assert a.members[0].interface == cond
        assert a.has_conditionals

    @pytest.mark.parametrize("value, name", [(3, "int"), ("e2.a(m)", "str"),
                                             (None, "NoneType")])
    def test_member_of_another_type_is_a_type_error(self, value, name):
        with pytest.raises(TypeError) as caught:
            arch(("e1", I1), ("e2", value))
        assert str(caught.value) == f"expected Interface or ConditionalInterface, got {name}"

    def test_contained_in_a_later_listing_only(self):
        a = arch(("e1", I1), ("e2", I2), ("e1", I1, True), ("e1", -I1, False))
        assert [(m.entity, m.interface, m.contained) for m in a.members] == \
            [("e1", I1, True), ("e2", I2, False)]


MAX_E2 = Interface([(service("e2", "a", "m"), I64_MAX)])
MAX_E1 = Interface([(service("e1", "a", "m"), I64_MAX)])
E1 = Interface.term(service("e1", "a", "m"))
E2 = Interface.term(service("e2", "a", "m"))


@st.composite
def repeated_listings(draw):
    """Interleaved listings of 1-4 entities, 1-6 each, ``contained`` on some
    of them only.  Values are plain or conditional and local, except now and
    then a global one; some negate an earlier listing of the same entity, so
    its total, or a branch of it, cancels part-way through."""
    entities = ("e1", "e2", "e3", "e4")[:draw(st.integers(1, 4))]
    order = draw(st.permutations(
        [e for e in entities for _ in range(draw(st.integers(1, 6)))]))
    listing = []
    for entity in order:
        earlier = [item[1] for item in listing if item[0] == entity]
        kind = draw(st.integers(0, 59))
        value = None
        if earlier and kind < 18:
            try:
                value = draw(st.sampled_from(earlier))
                value = -value if isinstance(value, Interface) else negated(value)
            except OverflowError:  # the negation of -2**63
                pass
        if value is None:
            local = kind != 59
            value = draw(st.one_of(interfaces(local), conditional_interfaces(local)))
            if isinstance(value, Interface) and draw(st.booleans()):
                value = ConditionalInterface(value)  # a conditional value without branches
        listing.append((entity, value, *draw(st.sampled_from(((), (False,), (True,))))))
    return listing


def members_view(members):
    return [(m.entity, m.interface, type(m.interface), m.contained) for m in members]


class TestRepeatedListingOracle:
    """``Architecture``'s one-pass merge of repeated listings against the
    pairwise merge it replaced: equal members (order, value, term order,
    plain or conditional type, ``contained``), or the same first error."""

    @given(repeated_listings())
    # the repeated-listing cases of test_cli's TestArithmeticContract (two of
    # its three list these same members)
    @example([("e1", MAX_E2), ("e1", E2)])
    @example([("e1", MAX_E2), ("e2", MAX_E1), ("e2", E1), ("e1", 2 * E2)])
    # an entity contained only in its second listing
    @example([("e1", I1), ("e2", I2), ("e1", I1, True)])
    @settings(max_examples=100, deadline=None)
    def test_merge_equals_pairwise_merge(self, listing):
        want = outcome(lambda: members_view(old.merged_members(listing)))
        assert outcome(lambda: members_view(Architecture("A", listing).members)) == want


class TestEventLog:
    def test_reads_plain_rows(self):
        text = "e1,e2,a,m,T\ne2,e1,a,m,F\n"
        events = read_event_log(text)
        assert events == [TransferEvent("e1", "e2", "a", "m", "T"),
                          TransferEvent("e2", "e1", "a", "m", "F")]

    def test_header_skipped(self):
        text = "source,destination,action,motive,reply\ne1,e2,a,m,T\n"
        assert len(read_event_log(text)) == 1

    def test_malformed_row_number_reported(self):
        with pytest.raises(LogFormatError, match="row 2"):
            read_event_log("e1,e2,a,m,T\ne1,e2,a\n")

    def test_bad_reply_rejected(self):
        with pytest.raises(LogFormatError, match="reply"):
            read_event_log("e1,e2,a,m,yes\n")

    def test_unreadable_csv_row_is_a_format_error(self):
        # csv.Error names no row; it is raised while reading the next one
        with pytest.raises(LogFormatError) as caught:
            read_event_log("e1,e2,a,m,T\n\n" + "x" * 131073 + ",e2,a,m,T\n")
        assert str(caught.value) == "event log row 3: field larger than field limit (131072)"
        assert caught.value.row == 3


def two_entity_arch(alpha_out=ALPHA_TF, alpha_in=ALPHA_TF, contained=False):
    out = Interface.term(service("e2", "a", "m", alpha=alpha_out))
    inc = Interface.term(client("e1", "a", "m", alpha=alpha_in))
    return Architecture("A", [("e1", out), ("e2", inc, contained)])


class TestComply:
    def test_matching_event_has_no_violation(self):
        rep = comply_events([TransferEvent("e1", "e2", "a", "m", "T")], two_entity_arch())
        assert rep.complies and not rep.warnings

    def test_unknown_motive_is_unmatched_outgoing(self):
        rep = comply_events([TransferEvent("e1", "e2", "a", "m2", "T")], two_entity_arch())
        kinds = [v.kind for v in rep.violations]
        assert "unmatched-outgoing" in kinds
        # candidate hint: same target and action, different motive
        v = rep.violations[0]
        assert any(g.action == "a" for g in v.candidates)

    def test_unmatched_incoming_is_warning_by_default(self):
        a = Architecture("A", [("e1", Interface.term(service("e2", "a", "m"))),
                               ("e2", Interface.zero())])
        rep = comply_events([TransferEvent("e1", "e2", "a", "m", "T")], a)
        assert rep.complies
        assert [w.kind for w in rep.warnings] == ["unmatched-incoming"]

    def test_contained_member_makes_unmatched_incoming_an_error(self):
        a = Architecture("A", [("e1", Interface.term(service("e2", "a", "m"))),
                               ("e2", Interface.zero(), True)])
        rep = comply_events([TransferEvent("e1", "e2", "a", "m", "T")], a)
        assert not rep.complies
        assert rep.violations[0].kind == "unmatched-incoming"

    def test_reply_forbidden(self):
        rep = comply_events([TransferEvent("e1", "e2", "a", "m", "F")],
                            two_entity_arch(alpha_out=ALPHA_T))
        assert [v.kind for v in rep.violations] == ["reply-forbidden"]

    def test_alpha_semantics_table(self):
        for alpha, ok_replies in ((ALPHA_TF, {"T", "F"}), (ALPHA_T, {"T"}),
                                  (ALPHA_F, {"F"}), (ALPHA_NONE, {"T", "F"})):
            a = two_entity_arch(alpha_out=alpha, alpha_in=alpha)
            for reply in ("T", "F"):
                rep = comply_events([TransferEvent("e1", "e2", "a", "m", reply)], a)
                assert rep.complies == (reply in ok_replies), (alpha, reply)

    def test_event_between_strangers_rejected(self):
        with pytest.raises(ValueError, match="member"):
            comply_events([TransferEvent("x", "y", "a", "m", "T")], two_entity_arch())

    def test_external_source_checks_destination_only(self):
        a = Architecture("A", [("e2", Interface.term(client("outside", "a", "m")))])
        rep = comply_events([TransferEvent("outside", "e2", "a", "m", "T")], a)
        assert rep.complies

    def test_motive_expansion_applies(self):
        a = Architecture("A", [
            ("e1", Interface.term(service("e2", "a", ("m", "n")))),
            ("e2", Interface.term(client("e1", "a", ("m", "n")))),
        ])
        rep = comply_events([TransferEvent("e1", "e2", "a", "m", "T"),
                             TransferEvent("e1", "e2", "a", "n", "F")], a)
        assert rep.complies

    def test_outgoing_match_agrees_with_ordering_on_monoid_members(self, rng):
        # an event matches exactly when its single-element interface sits
        # below the member's expanded interface in the partial order
        from ftig.transform import expand_motives
        for _ in range(100):
            member = random_monoid_interface(rng, local=True, composite_motives=True)
            a = Architecture("A", [("e1", member), ("e2", Interface.zero())])
            dst, action, motive = "e2", "a", "m1"
            p = Interface.term(service(dst, action, motive))
            rep = comply_events([TransferEvent("e1", dst, action, motive, "T")], a)
            outgoing_ok = not any(v.kind == "unmatched-outgoing" for v in rep.violations)
            assert outgoing_ok == p.leq(expand_motives(member))


# --------------------------------------------------------------------------
# brute-force matcher: scan every expanded member element per event

def brute_force_matcher(events, architecture):
    expanded = {}
    for member in architecture.members:
        terms = []
        for gen, coeff in member.interface.unconditional:
            if coeff <= 0:
                continue
            for atom in gen.motive:
                terms.append(Generator(gen.target, gen.action, (atom,), gen.polarity,
                                       None, gen.alpha))
        expanded[member.entity] = (terms, member.contained)
    admits = {ALPHA_TF: "TF", ALPHA_T: "T", ALPHA_F: "F", ALPHA_NONE: "TF"}
    violations, warnings = [], []
    for index, ev in enumerate(events):
        if ev.source in expanded:
            terms, _ = expanded[ev.source]
            sharing = [g for g in terms if g.polarity == SERVICE and g.target == ev.destination
                       and g.action == ev.action and g.motive == (ev.motive,)]
            if not sharing:
                violations.append((index, "unmatched-outgoing", ev.source))
            elif not any(ev.reply in admits[g.alpha] for g in sharing):
                violations.append((index, "reply-forbidden", ev.source))
        if ev.destination in expanded:
            terms, is_contained = expanded[ev.destination]
            sharing = [g for g in terms if g.polarity == CLIENT and g.target == ev.source
                       and g.action == ev.action and g.motive == (ev.motive,)]
            if not sharing:
                hit = (index, "unmatched-incoming", ev.destination)
                (violations if is_contained else warnings).append(hit)
            elif not any(ev.reply in admits[g.alpha] for g in sharing):
                violations.append((index, "reply-forbidden", ev.destination))
    return violations, warnings


def random_compliance_architecture(rng):
    entities = ("e1", "e2", "e3")
    members = []
    for e in entities:
        terms = []
        for _ in range(rng.randint(1, 6)):
            other = rng.choice([x for x in entities if x != e] + ["outside"])
            terms.append((Generator(other, rng.choice(("a", "b")),
                                    (rng.choice(("m1", "m2")),),
                                    rng.choice((SERVICE, CLIENT)), None,
                                    rng.choice((ALPHA_TF, ALPHA_T, ALPHA_F, ALPHA_NONE))),
                          rng.randint(1, 2)))
        members.append((e, Interface(terms), rng.random() < 0.3))
    return Architecture("R", members)


def test_compliance_matches_brute_force_oracle(rng):
    for _ in range(20):
        architecture = random_compliance_architecture(rng)
        events = []
        for _ in range(200):
            src, dst = rng.sample(("e1", "e2", "e3", "outside"), 2)
            if src == "outside" and dst == "outside":
                continue
            events.append(TransferEvent(src, dst, rng.choice(("a", "b")),
                                        rng.choice(("m1", "m2")), rng.choice(("T", "F"))))
        rep = comply_events(events, architecture)
        got_violations = [(v.index, v.kind, v.entity) for v in rep.violations]
        got_warnings = [(w.index, w.kind, w.entity) for w in rep.warnings]
        want_violations, want_warnings = brute_force_matcher(events, architecture)
        assert sorted(got_violations) == sorted(want_violations)
        assert sorted(got_warnings) == sorted(want_warnings)


def coefficient_match(iface, polarity, target, action, motive, reply):
    """Oracle: the match of one event side as it stood before compliance
    looked coefficients up in a dict, with ``Interface.coefficient`` per
    reply constraint."""
    admits = {ALPHA_TF: "TF", ALPHA_T: "T", ALPHA_F: "F", ALPHA_NONE: "TF"}
    declared = [alpha for alpha in (ALPHA_TF, ALPHA_T, ALPHA_F, ALPHA_NONE)
                if iface.coefficient(Generator(target, action, (motive,), polarity,
                                               None, alpha)) > 0]
    if any(reply in admits[alpha] for alpha in declared):
        return "ok"
    return "reply-forbidden" if declared else "unmatched"


@given(iface=interfaces(local=True), polarity=st.sampled_from((SERVICE, CLIENT)),
       target=st.sampled_from(("e1", "e2")), motive=st.sampled_from(("m1", "m2")),
       reply=st.sampled_from(("T", "F")))
@settings(max_examples=200, deadline=None)
def test_match_by_dict_lookup_equals_coefficient_scan(iface, polarity, target, motive, reply):
    coefficients = dict(iface)
    for gen, _ in iface:
        assert coefficients.get(gen, 0) == iface.coefficient(gen)
    replies = _Declared(iface).replies.get((polarity, target, "a", motive))
    verdict = "unmatched" if replies is None else "ok" if reply in replies else "reply-forbidden"
    assert verdict == coefficient_match(iface, polarity, target, "a", motive, reply)


COMPLY_ENTITIES = ("e1", "e2", "e3")

# mostly small and positive, so that most logs get a report; now and then
# near the 64-bit limits
COMPLY_COEFFS = st.integers(0, 15).flatmap(
    lambda k: COEFFS if k == 0 else st.integers(-3, 3) if k < 6 else st.integers(1, 3))

# local elements towards members and strangers, with zero, single, composite
# and repeated-atom motives and every reply constraint
COMPLY_ELEMENTS = st.builds(
    Generator,
    target=st.sampled_from((*COMPLY_ENTITIES, "outside")),
    action=st.sampled_from(("a", "b")),
    motive=st.lists(st.sampled_from(("m1", "m2")), max_size=3).map(tuple),
    polarity=st.sampled_from((SERVICE, CLIENT)),
    host=st.just(None),
    alpha=st.sampled_from(ALPHAS),
)


@st.composite
def compliance_values(draw):
    """A local member value: terms with coefficients near the 64-bit limits;
    on a drawn flag, each composite-motive term has its first atom cancelled
    by a one-atom term; on another, branches under the literals of ``c``
    and ``d``."""
    terms = draw(st.dictionaries(COMPLY_ELEMENTS, COMPLY_COEFFS, max_size=8))
    if draw(st.booleans()):
        for g, c in list(terms.items()):
            if len(g.motive) > 1:
                single = g.replace(motive=g.motive[:1])
                terms[single] = terms.get(single, 0) - c
    value = Interface({g: c for g, c in terms.items() if I64_MIN <= c <= I64_MAX})
    if draw(st.integers(0, 2)):
        return value
    return ConditionalInterface(value, draw(st.dictionaries(
        st.sampled_from(LITERALS), interfaces(local=True), max_size=2)))


@st.composite
def compliance_cases(draw):
    """An architecture, an assignment (perhaps missing or partial) and a log.
    Its rows are taken from the members' elements (so they match, or are
    forbidden by their reply), taken so with the peer, action or motive
    changed, drawn at random with one end a member, between two strangers,
    or with an empty field."""
    members = [(entity, draw(compliance_values()), draw(st.booleans()))
               for entity in draw(st.lists(st.sampled_from(COMPLY_ENTITIES), unique=True,
                                           min_size=1, max_size=3))]
    declared = [(entity, g) for entity, value, _ in members
                for g, _ in value.unconditional if g.motive]
    names = st.sampled_from((*COMPLY_ENTITIES, "outside"))
    events = []
    for _ in range(draw(st.integers(0, 12))):
        kind = draw(st.integers(0, 19))
        reply = draw(st.sampled_from(("T", "F")))
        if kind < 13 and declared:
            entity, g = draw(st.sampled_from(declared))
            ends = (entity, g.target) if g.polarity == SERVICE else (g.target, entity)
            row = (*ends, g.action, draw(st.sampled_from(g.motive)))
            if kind >= 8:  # one field changed: unmatched, with candidates on that member
                i = draw(st.sampled_from((1 if g.polarity == SERVICE else 0, 2, 3)))
                row = tuple(draw(st.sampled_from(("e1", "outside", "b", "c", "m2", "m3")))
                            if j == i else f for j, f in enumerate(row))
        elif kind == 18:
            row = ("x", "y", "a", "m1")
        else:
            ends = (draw(st.sampled_from([entity for entity, _, _ in members])), draw(names))
            row = (*(ends if draw(st.booleans()) else ends[::-1]),
                   draw(st.sampled_from(("a", "b"))), draw(st.sampled_from(("m1", "m2", "m3"))))
            if kind == 19:
                blank = draw(st.integers(0, 3))
                row = tuple("" if i == blank else f for i, f in enumerate(row))
        events.append(TransferEvent(*row, reply))
    assignment = draw(st.sampled_from((None, {"c": True}, {"c": False, "d": True},
                                       {"c": True, "d": False}, {"c": False, "d": False})))
    return members, assignment, events


MAX = I64_MAX


class TestComplianceOracle:
    """The table lookup of ``comply_events`` against the expand-and-scan
    compliance it replaced: equal reports, candidate hints included, or the
    same exception type and text."""

    @given(compliance_cases())
    # a doubled atom whose expansion overflows, as in TestArithmeticContract
    @example(([("e1", Interface([(service("e2", "a", ("m1", "m1")), MAX)]), False),
               ("e2", Interface([(client("e1", "a", ("m1", "m1")), MAX)]), False)],
              None, [TransferEvent("e1", "e2", "a", "m1", "T")]))
    # beyond the bound without overflow: the expanded member is tabled
    @example(([("e1", Interface([(service("e2", "a", ("m1", "m2")), MAX)]), True)],
              None, [TransferEvent("e1", "e2", "a", "m1", "T"),
                     TransferEvent("e1", "e2", "b", "m1", "T")]))
    # more than three candidates, spread over the three buckets
    @example(([("e1", Interface([(service(t, a, m, alpha=alpha), 1)
                                 for t in ("e2", "e3") for a in ("a", "b")
                                 for m in ("m1", "m2") for alpha in (ALPHA_T, ALPHA_F)]),
                False)],
              None, [TransferEvent("e1", "e2", "a", "m3", "T"),
                     TransferEvent("e1", "e2", "c", "m1", "F"),
                     TransferEvent("e1", "x", "a", "m1", "F")]))
    # a bucket of four whose term order is not its sorted order: e2.a(m2)/T
    # sorts before the m2 atom of e2.a(m1 + m2)/F
    @example(([("e1", Interface([(service("e2", "a", "m1", alpha=ALPHA_T), 1),
                                 (service("e2", "a", ("m1", "m2"), alpha=ALPHA_F), 1),
                                 (service("e2", "a", "m2", alpha=ALPHA_T), 1)]), False)],
              None, [TransferEvent("e1", "e2", "a", "m3", "T")]))
    # hints from two buckets, where the (action, atom) one sorts first
    @example(([("e1", Interface.term(service("e3", "a", "m2"))
                + Interface.term(service("e2", "a", "m1")), False)],
              None, [TransferEvent("e1", "e3", "a", "m1", "T")]))
    @settings(max_examples=300, deadline=None)
    def test_lookup_equals_expand_and_scan(self, case):
        members, assignment, events = case
        a = Architecture("A", members)
        want = plain_outcome(lambda: old_compliance.comply_events(events, a, assignment))
        assert plain_outcome(lambda: comply_events(events, a, assignment)) == want
