import itertools

import pytest

from ftig.algebra import ALPHA_T, ALPHA_TF, CLIENT, SERVICE, Generator, Interface, client, service
from ftig.errors import ScopeError
from ftig.reflection import reduce_modulo_reflection, reflect_generator

from conftest import TINY_ACTION, TINY_ENTITIES, TINY_MOTIVE, random_interface


class TestReflectGenerator:
    def test_client_maps_to_negated_partner(self):
        assert reflect_generator(client("e1", "a", "m", host="e2")) == \
            (service("e2", "a", "m", host="e1"), -1)

    def test_self_loop_vanishes(self):
        assert reflect_generator(service("f", "a", "m", host="f")) is None
        assert reflect_generator(client("f", "a", "m", host="f")) is None

    def test_service_already_canonical(self):
        g = service("g", "b", "m", host="h")
        assert reflect_generator(g) == (g, 1)

    def test_local_element_rejected(self):
        with pytest.raises(ScopeError):
            reflect_generator(service("f", "a", "m"))

    def test_non_tf_passes_through(self):
        g = client("f", "a", "m", host="g", alpha=ALPHA_T)
        assert reflect_generator(g) == (g, 1)
        # non-TF self-transfers do not vanish: the cancellation rule is TF-only
        loop = service("f", "a", "m", host="f", alpha=ALPHA_T)
        assert reflect_generator(loop) == (loop, 1)


class TestReduce:
    def test_matched_pair_vanishes(self):
        pair = Interface.term(service("e2", "a", "m", host="e1")) + \
            Interface.term(client("e1", "a", "m", host="e2"))
        assert reduce_modulo_reflection(pair).closed

    def test_zero(self):
        assert reduce_modulo_reflection(Interface.zero()).closed

    def test_local_rejected(self):
        with pytest.raises(ScopeError):
            reduce_modulo_reflection(Interface.term(service("f", "a", "m")))

    def test_non_tf_reported(self):
        g = service("f", "a", "m", host="g", alpha=ALPHA_T)
        residual = reduce_modulo_reflection(Interface.term(g))
        assert residual.non_cancellable == (g,)
        assert residual.canonical.coefficient(g) == 1
        assert not residual.closed

    def test_homomorphism(self, rng):
        for _ in range(300):
            x = random_interface(rng)
            y = random_interface(rng)
            rx = reduce_modulo_reflection(x).canonical
            ry = reduce_modulo_reflection(y).canonical
            rxy = reduce_modulo_reflection(x + y).canonical
            assert rxy == rx + ry
            assert reduce_modulo_reflection(-x).canonical == -rx

    def test_vanishes_on_every_reflector_generator(self):
        entities, actions, motives = ("e", "f", "g"), ("a", "b"), ("m", "n")
        for t, h, a, m in itertools.product(entities, entities, actions, motives):
            pair = Interface.term(service(t, a, m, host=h)) + \
                Interface.term(client(h, a, m, host=t))
            assert reduce_modulo_reflection(pair).closed, (t, h, a, m)
            # self-transfer elements are reflector members on their own,
            # not only as two-element sums
            loop_service = Interface.term(service(t, a, m, host=t))
            loop_client = Interface.term(client(t, a, m, host=t))
            assert reduce_modulo_reflection(loop_service).closed
            assert reduce_modulo_reflection(loop_client).closed

    def test_adding_reflector_generators_never_changes_residual(self, rng):
        entities, actions, motives = ("e1", "e2", "e3", "e4"), ("a", "b"), ("m1", "m2", "m3")
        for _ in range(200):
            x = random_interface(rng)
            t, h = rng.choice(entities), rng.choice(entities)
            a, m = rng.choice(actions), rng.choice(motives)
            r = Interface.term(service(t, a, m, host=h)) + \
                Interface.term(client(h, a, m, host=t))
            assert reduce_modulo_reflection(x + r).canonical == \
                reduce_modulo_reflection(x).canonical

    def test_idempotent_canonicalization(self, rng):
        for _ in range(200):
            x = random_interface(rng)
            once = reduce_modulo_reflection(x)
            twice = reduce_modulo_reflection(once.canonical)
            assert twice.canonical == once.canonical

    def test_canonical_form_structure(self, rng):
        # canonical residuals never contain an incoming TF element or a
        # TF self-transfer; only non-TF elements pass through unreduced
        for _ in range(200):
            x = random_interface(rng, alphas=(ALPHA_TF, ALPHA_T))
            residual = reduce_modulo_reflection(x)
            for gen, _ in residual.canonical:
                if gen.alpha == ALPHA_TF:
                    assert gen.polarity == "service"
                    assert not gen.is_self_loop
                else:
                    assert gen in residual.non_cancellable

    def test_verdict_and_non_cancellable_follow_the_input(self, rng):
        # non-TF terms pass through unchanged; the verdict is a zero residual
        for _ in range(200):
            x = random_interface(rng, alphas=(ALPHA_TF, ALPHA_T))
            residual = reduce_modulo_reflection(x)
            assert residual.non_cancellable == tuple(g for g, _ in x if g.alpha != ALPHA_TF)
            assert residual.closed == (residual.canonical == Interface.zero())


# --------------------------------------------------------------------------
# Brute-force oracle: coefficient vectors over the full generator basis of a
# tiny catalog, eliminated against explicit reflector basis vectors.

def tiny_basis():
    gens = []
    for polarity in (SERVICE, CLIENT):
        for target in TINY_ENTITIES:
            for host in TINY_ENTITIES:
                gens.append(Generator(target, TINY_ACTION, (TINY_MOTIVE,),
                                      polarity, host, ALPHA_TF))
    return gens


def reflector_vectors(gens):
    index = {g: k for k, g in enumerate(gens)}
    vectors = []
    # pair reflectors, pivot = the client coordinate
    for t in TINY_ENTITIES:
        for h in TINY_ENTITIES:
            vec = [0] * len(gens)
            vec[index[Generator(t, TINY_ACTION, (TINY_MOTIVE,), SERVICE, h, ALPHA_TF)]] += 1
            pivot = index[Generator(h, TINY_ACTION, (TINY_MOTIVE,), CLIENT, t, ALPHA_TF)]
            vec[pivot] += 1
            vectors.append((pivot, vec))
    # individual self-transfer reflectors, pivot = the element itself
    for t in TINY_ENTITIES:
        for polarity in (SERVICE, CLIENT):
            g = Generator(t, TINY_ACTION, (TINY_MOTIVE,), polarity, t, ALPHA_TF)
            vec = [0] * len(gens)
            vec[index[g]] = 1
            vectors.append((index[g], vec))
    return vectors


def oracle_reduce(iface, gens, vectors):
    index = {g: k for k, g in enumerate(gens)}
    v = [0] * len(gens)
    for g, c in iface:
        v[index[g]] = c
    # Gaussian-style elimination: each basis vector clears its pivot
    # coordinate; pivots are client or self-transfer coordinates, so the
    # result is supported on service non-self-transfer coordinates only.
    for pivot, vec in vectors:
        factor = v[pivot] // vec[pivot]
        if v[pivot] % vec[pivot]:
            raise AssertionError("non-integral elimination step")
        if factor:
            v = [a - factor * b for a, b in zip(v, vec)]
    return Interface((g, c) for g, c in zip(gens, v) if c)


def test_reduction_matches_vector_elimination_oracle(rng):
    gens = tiny_basis()
    vectors = reflector_vectors(gens)
    for _ in range(200):
        x = random_interface(rng, entities=TINY_ENTITIES, actions=(TINY_ACTION,),
                             motives=(TINY_MOTIVE,), max_terms=6, coeff_range=(-3, 3))
        expected = oracle_reduce(x, gens, vectors)
        assert reduce_modulo_reflection(x).canonical == expected


class TestIsClosed:
    def test_two_entity_example(self):
        pair = Interface.term(service("e2", "a", "m", host="e1")) + \
            Interface.term(client("e1", "a", "m", host="e2"))
        assert reduce_modulo_reflection(pair).closed

    def test_single_generator_reported(self):
        residual = reduce_modulo_reflection(Interface.term(service("e2", "a", "m", host="e1")))
        assert not residual.closed
        assert residual.canonical.coefficient(service("e2", "a", "m", host="e1")) == 1
        assert residual.residual_lines() == ["e1 -> e2 : a(m) x +1"]

    def test_self_transfer_closed(self):
        assert reduce_modulo_reflection(Interface.term(service("f", "a", "m", host="f"))).closed

    def test_negative_residual_reported_as_incoming(self):
        residual = reduce_modulo_reflection(Interface.term(client("e1", "a", "m", host="e2")))
        assert not residual.closed
        assert residual.residual_lines() == ["e1 -> e2 : a(m) x -1"]

    def test_non_tf_never_closed(self):
        i = Interface.term(service("f", "a", "m", host="g", alpha=ALPHA_T))
        residual = reduce_modulo_reflection(i)
        assert not residual.closed
        assert residual.residual_lines() == ["g -> f : a(m)/T x +1",
                                             "non-cancellable reply constraint: f.a(m)@g/T"]


def pairing_oracle(iface):
    """For monoid interfaces: every outgoing element must pair with the
    matching incoming element at swapped entities, in equal multiplicity
    (self-transfers drop out)."""
    need = {}
    for g, c in iface:
        if g.is_self_loop:
            continue
        if g.polarity == SERVICE:
            key = (g.host, g.target, g.action, g.motive)
            need[key] = need.get(key, 0) + c
        else:
            key = (g.target, g.host, g.action, g.motive)
            need[key] = need.get(key, 0) - c
    return all(v == 0 for v in need.values())


def test_monoid_closedness_matches_pairing_oracle(rng):
    from conftest import random_monoid_interface
    seen_closed = 0
    for k in range(400):
        x = random_monoid_interface(rng, max_terms=4)
        if k % 2:
            # make matched interfaces common: complete x with its partners
            x = x + Interface((g.reflection_partner(), c) for g, c in x)
        verdict = reduce_modulo_reflection(x).closed
        assert verdict == pairing_oracle(x)
        seen_closed += verdict
    assert seen_closed > 50
