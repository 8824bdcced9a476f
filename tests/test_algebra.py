import functools
import itertools
import operator

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ftig.algebra import (
    ALPHA_F, ALPHA_NONE, ALPHA_T, ALPHA_TF, I64_MAX, I64_MIN,
    Generator, Interface, client, service, interface_sum,
)
from ftig.errors import ScopeError
from ftig.speclang import evaluate_expression_text

from conftest import interfaces, outcome, random_interface, sum_parts

X = service("f", "a", "m", host="g")
Y = client("g", "a", "m", host="f")
Z = service("h", "b", "m", host="g")


def iface(*pairs):
    return Interface(pairs)


class TestConstruction:
    def test_zero_coefficients_dropped(self):
        assert iface((X, 2), (X, -2)).is_zero

    def test_duplicate_generators_merge(self):
        assert iface((X, 2), (X, 3)) == iface((X, 5))

    def test_scope_mixing_rejected(self):
        with pytest.raises(ScopeError):
            iface((X, 1), (service("f", "a", "m"), 1))

    def test_renormalization_is_identity(self):
        i = iface((X, 2), (Y, -1))
        assert Interface(i.terms) == i

    def test_motive_multiset_is_canonical(self):
        assert service("f", "a", ("w", "v")) == service("f", "a", ("v", "w"))
        assert service("f", "a", ("v", "v", "w")).motive == ("v", "v", "w")

    def test_zero_motive_spellings(self):
        assert service("f", "a", "0") == service("f", "a", ()) == service("f", "a", "")

    def test_plain_interface_reads_as_branchless(self):
        for i in (Interface.zero(), iface((X, 2), (Y, -1))):
            assert i.unconditional is i
            assert i.branches == ()


class TestGroupOps:
    def test_inverse_cancellation(self):
        assert (iface((X, 1)) + iface((X, -1))).is_zero

    def test_no_cancellation_across_polarity(self):
        two = Interface.term(service("e2", "a", "m", host="e1")) + \
            Interface.term(client("e1", "a", "m", host="e2"))
        assert len(two) == 2

    def test_coefficient_arithmetic(self):
        assert 2 * iface((X, 1)) + 3 * iface((X, 1)) == iface((X, 5))

    def test_negate(self):
        assert -Interface.zero() == Interface.zero()
        assert -iface((X, 1)) == iface((X, -1))
        assert -iface((X, 2), (Y, -1)) == iface((X, -2), (Y, 1))

    def test_subtract_is_add_of_negation(self):
        i = iface((X, 1))
        assert (i - i).is_zero
        assert (iface((X, 1), (Y, 1)) - iface((Y, 1))) == iface((X, 1))

    def test_scale(self):
        el = service("OEEins", "et", "fp:fsla")
        assert 2 * Interface.term(el) == iface((el, 2))
        assert 0 * iface((X, 3), (Y, -1)) == Interface.zero()
        assert -1 * iface((X, 2), (Y, -1)) == -iface((X, 2), (Y, -1))

    def test_scale_overflow(self):
        big = iface((X, I64_MAX))
        with pytest.raises(OverflowError):
            2 * big
        with pytest.raises(OverflowError):
            big + big
        with pytest.raises(OverflowError):
            iface((X, I64_MIN)) - iface((X, 1))

    def test_add_scope_mismatch(self):
        local = Interface.term(service("f", "a", "m"))
        with pytest.raises(ScopeError):
            local + iface((X, 1))
        # the empty interface is compatible with either scope
        assert local + Interface.zero() == local
        assert iface((X, 1)) + Interface.zero() == iface((X, 1))

    def test_partial_sums_run_in_input_order(self):
        # each partial sum is checked, so the order of the parts decides
        # whether a sum whose final value fits in 64 bits overflows
        g = Interface.term(X)
        big = I64_MAX * g
        with pytest.raises(OverflowError, match="coefficient 9223372036854775808 exceeds"):
            interface_sum([big, g, -g])
        assert interface_sum([-g, big, g]) == big

    def test_coefficient_lookup(self):
        i = iface((X, 2), (Y, -1))
        assert i.coefficient(X) == 2
        assert i.coefficient(Y) == -1
        assert Interface.zero().coefficient(X) == 0


class TestGroupLaws:
    def test_laws_randomized(self, rng):
        zero = Interface.zero()
        for _ in range(1000):
            a = random_interface(rng)
            b = random_interface(rng)
            c = random_interface(rng)
            assert a + b == b + a
            assert (a + b) + c == a + (b + c)
            assert a + zero == a
            assert (a + (-a)).is_zero

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_laws_hypothesis(self, data):
        gens = st.builds(
            Generator,
            target=st.sampled_from(("e1", "e2")),
            action=st.sampled_from(("a", "b")),
            motive=st.tuples(st.sampled_from(("m1", "m2"))),
            polarity=st.sampled_from(("service", "client")),
            host=st.sampled_from(("e1", "e2")),
            alpha=st.sampled_from((ALPHA_TF, ALPHA_T, ALPHA_F, ALPHA_NONE)),
        )
        terms = st.lists(st.tuples(gens, st.integers(-4, 4)), max_size=5)
        a = Interface(data.draw(terms))
        b = Interface(data.draw(terms))
        assert a + b == b + a
        assert a - a == Interface.zero()
        assert -(-a) == a


class TestLeq:
    def test_zero_below_every_element(self):
        assert Interface.zero().leq(iface((X, 1)))

    def test_grows_with_positive_addition(self):
        assert iface((X, 1)).leq(iface((X, 1), (Z, 1)))

    def test_negative_not_above_zero(self):
        assert not Interface.zero().leq(iface((X, -1)))

    def test_scope_mismatch(self):
        with pytest.raises(ScopeError):
            iface((X, 1)).leq(Interface.term(service("f", "a", "m")))

    def test_partial_order_laws(self, rng):
        sample = [random_interface(rng, max_terms=3, coeff_range=(-2, 2))
                  for _ in range(60)]
        for a in sample:
            assert a.leq(a)
        for a, b in itertools.product(sample, repeat=2):
            if a.leq(b) and b.leq(a):
                assert a == b
        for a, b, c in zip(sample, sample[1:], sample[2:]):
            if a.leq(b) and b.leq(c):
                assert a.leq(c)

    def test_nonnegativity_characterizes_leq_from_zero(self, rng):
        for _ in range(200):
            i = random_interface(rng)
            assert Interface.zero().leq(i) == all(c >= 0 for _, c in i)


def derive_order_oracle(generators, lo=-2, hi=2):
    """Exhaustive closure of the three ordering rules plus the partial-order
    axioms, over all interfaces on the given generators with coefficients in
    [lo, hi].  Independent of Interface.leq: works on raw coefficient tuples.
    """
    span = range(lo, hi + 1)
    universe = set(itertools.product(span, repeat=len(generators)))
    zero = tuple(0 for _ in generators)

    def neg(v):
        return tuple(-c for c in v)

    def add(u, v):
        return tuple(a + b for a, b in zip(u, v))

    below: dict[tuple, set] = {v: {v} for v in universe}   # reflexivity
    for k in range(len(generators)):                       # 0 <= p
        unit = tuple(1 if j == k else 0 for j in range(len(generators)))
        below[zero].add(unit)

    changed = True
    while changed:
        changed = False
        # rule: 0 <= X iff -X <= 0
        for x in list(below[zero]):
            if neg(x) in universe and zero not in below[neg(x)]:
                below[neg(x)].add(zero)
                changed = True
        for x in universe:
            if zero in below[x] and neg(x) in universe and neg(x) not in below[zero]:
                below[zero].add(neg(x))
                changed = True
        # rule: X <= X+Y iff 0 <= Y
        for y in list(below[zero]):
            for x in universe:
                xy = add(x, y)
                if xy in universe and xy not in below[x]:
                    below[x].add(xy)
                    changed = True
        for x in universe:
            for xy in list(below[x]):
                y = tuple(b - a for a, b in zip(x, xy))
                if y in universe and y not in below[zero]:
                    below[zero].add(y)
                    changed = True
        # transitivity
        for x in universe:
            extra = set()
            for y in below[x]:
                extra |= below[y]
            if not extra <= below[x]:
                below[x] |= extra
                changed = True
    return below


def test_leq_agrees_with_rule_derivation_oracle():
    generators = (X, Y, Z)
    below = derive_order_oracle(generators)
    span = range(-2, 3)
    for u in itertools.product(span, repeat=3):
        a = Interface(zip(generators, u))
        for v in itertools.product(span, repeat=3):
            b = Interface(zip(generators, v))
            assert a.leq(b) == (v in below[u]), (u, v)


class TestRender:
    def test_zero(self):
        assert Interface.zero().render() == "0"

    def test_two_entity_example_order(self):
        two = Interface.term(service("e2", "a", "m", host="e1")) + \
            Interface.term(client("e1", "a", "m", host="e2"))
        assert two.render() == "e2.a(m)@e1 + ~e1.a(m)@e2"

    def test_negative_multiplicity(self):
        assert iface((X, -2)).render() == "-2 x f.a(m)@g"

    def test_alpha_and_motive_forms(self):
        i = iface(
            (service("f", "a", ("v", "w"), host="g"), 1),
            (client("g", "b", "m", host="f", alpha=ALPHA_T), -1),
            (service("f", "a", (), host="g", alpha=ALPHA_NONE), 3),
        )
        # host is the primary sort key: the element hosted at f precedes those at g
        assert i.render() == "-~g.b(m)@f/T + 3 x f.a(0)@g/lambda + f.a(v + w)@g"

    def test_local_renders_without_host(self):
        assert Interface.term(client("f", "a", "m")).render() == "~f.a(m)"

    def test_parse_render_round_trip(self, rng):
        for _ in range(300):
            i = random_interface(rng, alphas=(ALPHA_TF, ALPHA_T, ALPHA_F, ALPHA_NONE),
                                 composite_motives=True, coeff_range=(-4, 4),
                                 local=rng.random() < 0.5)
            assert evaluate_expression_text(i.render()) == i


# ------------------------------------------------------- pairwise oracle

def _old_check_i64(n):
    if n < I64_MIN or n > I64_MAX:
        raise OverflowError(f"coefficient {n} exceeds 64-bit signed range")
    return n


def _old_normal_form(items):
    """The ``Interface`` constructor loop as it stood before sums ran in one
    pass: (sorted terms, scope)."""
    acc = {}
    for gen, coeff in items:
        if coeff == 0:
            continue
        acc[gen] = _old_check_i64(acc.get(gen, 0) + _old_check_i64(coeff))
        if acc[gen] == 0:
            del acc[gen]
    scope = None
    for gen in acc:
        gen_scope = "local" if gen.is_local else "global"
        if scope is None:
            scope = gen_scope
        elif scope != gen_scope:
            raise ScopeError("local and global elements mixed in one interface")
    return tuple(sorted(acc.items(), key=lambda t: t[0].sort_key())), scope


def pairwise_sum(parts):
    """Oracle: the left fold ``interface_sum`` used to be, one re-normalized
    running total per addition, with the scope check of ``+``."""
    terms, scope = (), None
    for part in parts:
        if scope is not None and part.scope is not None and scope != part.scope:
            raise ScopeError(f"cannot combine a {scope} interface with a {part.scope} one")
        terms, scope = _old_normal_form(terms + part.terms)
    return terms


class TestSumOracle:
    @given(sum_parts(interfaces(), operator.neg))
    @example([Interface.term(service("f", "a", "m")), -Interface.term(service("f", "a", "m")),
              Interface.term(X)])
    @settings(max_examples=200, deadline=None)
    def test_interface_sum_equals_pairwise_fold(self, parts):
        want = outcome(pairwise_sum, parts)
        got = outcome(lambda: interface_sum(iter(parts)).terms)
        assert got == want
        folded = outcome(lambda: functools.reduce(operator.add, parts, Interface.zero()).terms)
        assert folded == want

    @given(sum_parts(interfaces(local=False), operator.neg))
    @settings(max_examples=100, deadline=None)
    def test_one_scope_sums_equal_pairwise_fold(self, parts):
        # without scope errors, the overflow verdicts are what is compared
        assert outcome(lambda: interface_sum(parts).terms) == outcome(pairwise_sum, parts)


# ---------------------------------------------- normal-form constructors

def terms_and_scope(value):
    return value.terms, value.scope


def renormalized(terms):
    """``terms`` passed through the full ``Interface(...)`` normalization."""
    return terms_and_scope(Interface(terms))


def built(fn):
    """``outcome`` of ``fn()``, with the scope beside the terms."""
    return outcome(lambda: terms_and_scope(fn()))


OVERFLOW_2_63 = "coefficient 9223372036854775808 exceeds 64-bit signed range"


class TestNormalFormConstructors:
    """``term``, ``-i`` and ``n * i`` build their results from terms already
    in normal form; each must equal the value, scope and first error of the
    same terms passed through ``Interface(...)``."""

    def test_negating_i64_min_overflows(self):
        with pytest.raises(OverflowError, match=f"^{OVERFLOW_2_63}$"):
            -Interface.term(X, I64_MIN)
        assert built(lambda: -Interface.term(X, I64_MIN)) == \
            outcome(renormalized, [(X, -I64_MIN)])

    def test_term_out_of_range_overflows(self):
        with pytest.raises(OverflowError, match=f"^{OVERFLOW_2_63}$"):
            Interface.term(X, 2**63)
        assert built(lambda: Interface.term(X, 2**63)) == outcome(renormalized, [(X, 2**63)])

    def test_scaling_raises_on_the_first_term_in_order(self):
        both = iface((Y, I64_MAX), (X, I64_MAX))
        with pytest.raises(OverflowError, match=f"coefficient {2 * I64_MAX} exceeds"):
            2 * both
        # distinct coefficients show which term the error came from
        first, second = both.terms[0][0], both.terms[1][0]
        for low, high in ((first, second), (second, first)):
            i = iface((low, I64_MAX - 1), (high, I64_MAX))
            want = 2 * (I64_MAX - 1) if low is first else 2 * I64_MAX
            with pytest.raises(OverflowError, match=f"coefficient {want} exceeds"):
                2 * i
            assert built(lambda: 2 * i) == \
                outcome(renormalized, [(g, 2 * c) for g, c in i.terms])

    def test_zero_results(self):
        i = iface((X, 3), (Y, -1))
        for value in (0 * i, i * 0, Interface.term(X, 0), -Interface.zero(),
                      5 * Interface.zero()):
            assert value == Interface.zero()
            assert value.scope is None

    def test_term_of_non_generator(self):
        with pytest.raises(TypeError, match="^expected Generator, got str$"):
            Interface.term("x")
        with pytest.raises(TypeError, match="^expected Generator, got str$"):
            Interface.term("x", 0)

    @given(interfaces(), st.one_of(st.integers(-3, 3), st.sampled_from(
        (I64_MAX, I64_MIN, 2**62, -(2**62), 2**63, -(2**64)))))
    @settings(max_examples=300, deadline=None)
    def test_equal_to_renormalized(self, i, n):
        assert built(lambda: n * i) == outcome(renormalized, [(g, c * n) for g, c in i])
        assert built(lambda: i * n) == built(lambda: n * i)
        assert built(lambda: -i) == outcome(renormalized, [(g, -c) for g, c in i])
        for g, c in i:
            assert built(lambda: Interface.term(g, c * n)) == \
                outcome(renormalized, [(g, c * n)])
