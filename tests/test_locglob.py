import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ftig.algebra import (
    ALPHA_T, ALPHA_TF, CLIENT, I64_MAX, I64_MIN, SERVICE, Generator, Interface, client, service,
)
from ftig.catalog import Catalog
from ftig.errors import ScopeError
from ftig.locglob import Decomposition, decompose, globalize, localize, recompose
from ftig.reflection import reduce_modulo_reflection

from conftest import interfaces, outcome, random_interface, random_monoid_interface


class TestGlobalize:
    def test_stamps_host_on_every_element(self):
        local = Interface.term(service("f", "a", "m"))
        assert globalize("e", local) == Interface.term(service("f", "a", "m", host="e"))

    def test_zero(self):
        assert globalize("e", Interface.zero()).is_zero

    def test_termwise_with_mixed_polarity(self):
        local = Interface.term(service("RIll", "it", "hmt:csla")) + \
            Interface.term(client("FS", "it", "mbba"))
        expected = Interface.term(service("RIll", "it", "hmt:csla", host="SE")) + \
            Interface.term(client("FS", "it", "mbba", host="SE"))
        assert globalize("SE", local) == expected

    def test_rejects_global_input(self):
        with pytest.raises(ScopeError):
            globalize("e", Interface.term(service("f", "a", "m", host="g")))

    def test_catalog_membership_enforced_when_given(self):
        catalog = Catalog()
        catalog.add_entity("e")
        local = Interface.term(service("f", "a", "m"))
        assert globalize("e", local, catalog)
        with pytest.raises(ValueError):
            globalize("nope", local, catalog)

    def test_homomorphism(self, rng):
        for _ in range(200):
            a = random_interface(rng, local=True)
            b = random_interface(rng, local=True)
            assert globalize("e1", a + b) == globalize("e1", a) + globalize("e1", b)
            assert globalize("e1", -a) == -globalize("e1", a)


class TestLocalize:
    def test_other_host_projects_to_zero(self):
        assert localize("e", Interface.term(service("f", "a", "m", host="g"))).is_zero

    def test_matching_host_strips(self):
        i = Interface.term(service("f", "a", "m", host="e"))
        assert localize("e", i) == Interface.term(service("f", "a", "m"))

    def test_negative_element_surfaces_at_target(self):
        # a withdrawn outgoing transfer to e hosted at g appears at e as the
        # incoming element from g
        i = -Interface.term(service("e", "a", "m", host="g"))
        assert localize("e", i) == Interface.term(client("g", "a", "m"))

    def test_negative_client_surfaces_as_outgoing(self):
        i = -Interface.term(client("e", "a", "m", host="g"))
        assert localize("e", i) == Interface.term(service("g", "a", "m"))

    def test_negative_element_lost_at_its_host(self):
        # the conversion through the reflection law moves a negative element
        # away from its host: nothing remains at g
        i = -Interface.term(service("e", "a", "m", host="g"))
        assert localize("g", i).is_zero

    def test_negative_non_tf_projects_directly(self):
        gen = service("e", "a", "m", host="g", alpha=ALPHA_T)
        i = -Interface.term(gen)
        assert localize("g", i) == -Interface.term(service("e", "a", "m", alpha=ALPHA_T))
        assert localize("e", i).is_zero

    def test_rejects_local_input(self):
        with pytest.raises(ScopeError):
            localize("e", Interface.term(service("f", "a", "m")))

    def test_right_inverse_on_monoid_locals(self, rng):
        for _ in range(500):
            i = random_monoid_interface(rng, local=True)
            assert localize("e1", globalize("e1", i)) == i

    def test_right_inverse_fails_for_negative_locals(self):
        # known consequence of the reflection-based conversion: hosting a
        # negative local element and localizing again moves it elsewhere
        i = -Interface.term(service("f", "a", "m"))
        assert localize("e", globalize("e", i)).is_zero

    def test_additive_on_monoid_pairs(self, rng):
        for _ in range(200):
            a = random_monoid_interface(rng)
            b = random_monoid_interface(rng)
            assert localize("e1", a + b) == localize("e1", a) + localize("e1", b)


class TestDecompose:
    def test_groups_by_host(self):
        i = Interface.term(service("f", "a", "m1", host="g")) + \
            Interface.term(client("h", "b", "m1", host="g"))
        parts = dict(decompose(i).parts)
        assert parts == {
            "g": Interface.term(service("f", "a", "m1")) +
            Interface.term(client("h", "b", "m1"))
        }

    def test_zero_has_no_parts(self):
        assert decompose(Interface.zero()).parts == ()

    def test_recompose_empty(self):
        assert recompose(Decomposition(())).is_zero

    def test_identity_exact_on_monoid(self, rng):
        for _ in range(500):
            x = random_monoid_interface(rng)
            assert recompose(decompose(x)) == x

    def test_identity_modulo_reflection_in_general(self, rng):
        exact_failures = 0
        for _ in range(500):
            x = random_interface(rng)
            back = recompose(decompose(x))
            assert reduce_modulo_reflection(back - x).closed
            exact_failures += back != x
        # negative elements really do route through reflection
        assert exact_failures > 0


def old_localize(entity, iface):
    """``localize`` before the one-pass ``decompose`` (verbatim)."""
    if iface.scope == "local":
        raise ScopeError("localize expects a global interface")
    acc = []
    for gen, coeff in iface:
        if coeff > 0 or gen.alpha != ALPHA_TF:
            if gen.host == entity:
                acc.append((Generator(gen.target, gen.action, gen.motive, gen.polarity,
                                      None, gen.alpha), coeff))
        else:
            partner = gen.reflection_partner()
            if partner.host == entity:
                acc.append((Generator(partner.target, partner.action, partner.motive,
                                      partner.polarity, None, partner.alpha), -coeff))
    return Interface(acc)


def old_decompose(iface):
    """``decompose`` before the one-pass rewrite: one ``localize`` of the
    whole interface per candidate entity."""
    if iface.scope == "local":
        raise ScopeError("decompose expects a global interface")
    candidates = set()
    for gen, coeff in iface:
        candidates.add(gen.host)
        if coeff < 0 and gen.alpha == ALPHA_TF:
            candidates.add(gen.target)
    parts = []
    for entity in sorted(candidates):
        projected = old_localize(entity, iface)
        if not projected.is_zero:
            parts.append((entity, projected))
    return Decomposition(tuple(parts))


# both parts overflow: e1's by negating -2**63, e2's by a partial sum
TWO_OVERFLOWS = Interface([
    (client("e1", "a", "m1", host="e2"), I64_MIN),
    (service("e1", "a", "m2", host="e2"), I64_MAX),
    (client("e2", "a", "m2", host="e1"), -2),
])

monoid_elements = st.dictionaries(
    st.builds(Generator, target=st.sampled_from(("e1", "e2", "e3")), action=st.just("a"),
              motive=st.tuples(st.sampled_from(("m1", "m2"))),
              polarity=st.sampled_from((SERVICE, CLIENT)),
              host=st.sampled_from(("e1", "e2", "e3")), alpha=st.just(ALPHA_TF)),
    st.integers(1, I64_MAX), max_size=8,
).map(Interface)


class TestDecomposeOracle:
    @given(iface=interfaces())
    @example(iface=TWO_OVERFLOWS)
    @settings(max_examples=300, deadline=None)
    def test_equals_one_localize_per_entity(self, iface):
        assert outcome(decompose, iface) == outcome(old_decompose, iface)

    def test_first_entity_overflow_wins(self):
        assert outcome(decompose, TWO_OVERFLOWS) == (
            "raised", OverflowError, "coefficient 9223372036854775808 exceeds 64-bit signed range")

    @given(iface=monoid_elements)
    @settings(max_examples=200, deadline=None)
    def test_recompose_inverts_on_monoid(self, iface):
        assert recompose(decompose(iface)) == iface
