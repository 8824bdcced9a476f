import os
import random
from pathlib import Path

import pytest
from hypothesis import strategies as st

import ftig
from ftig.algebra import (
    ALPHA_TF, ALPHAS, CLIENT, I64_MAX, I64_MIN, SERVICE, Generator, Interface,
)
from ftig.errors import ScopeError

FIXTURES = Path(__file__).parent / "fixtures"

# the directory holding the ftig package this suite imported
FTIG_SRC = Path(ftig.__file__).resolve().parents[1]


def cli_env(**extra):
    """Environment for a ``python -m ftig.cli`` child process.

    Puts ``FTIG_SRC`` first on ``PYTHONPATH`` (keeping any earlier entries
    after it), so the child runs the same ftig as the in-process tests,
    whatever its working directory and whatever copy is installed.
    """
    path = [str(FTIG_SRC)]
    if os.environ.get("PYTHONPATH"):
        path.append(os.environ["PYTHONPATH"])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(path), **extra)

ENTITIES = ("e1", "e2", "e3", "e4")
ACTIONS = ("a", "b")
MOTIVES = ("m1", "m2", "m3")

# tiny catalog for the reflection oracle: 2 entities x 1 action x 1 motive
TINY_ENTITIES = ("e", "f")
TINY_ACTION = "a"
TINY_MOTIVE = "m"


@pytest.fixture
def rng():
    return random.Random(20260810)


def random_generator(rng, entities=ENTITIES, actions=ACTIONS, motives=MOTIVES,
                     local=False, alphas=(ALPHA_TF,), composite_motives=False):
    polarity = rng.choice((SERVICE, CLIENT))
    if composite_motives:
        motive = tuple(rng.choice(motives) for _ in range(rng.randint(0, 3)))
    else:
        motive = (rng.choice(motives),)
    host = None if local else rng.choice(entities)
    return Generator(rng.choice(entities), rng.choice(actions), motive,
                     polarity, host, rng.choice(alphas))


def random_interface(rng, entities=ENTITIES, actions=ACTIONS, motives=MOTIVES,
                     local=False, alphas=(ALPHA_TF,), max_terms=5,
                     coeff_range=(-3, 3), composite_motives=False):
    terms = []
    for _ in range(rng.randint(0, max_terms)):
        coeff = 0
        while coeff == 0:
            coeff = rng.randint(*coeff_range)
        terms.append((random_generator(rng, entities, actions, motives, local,
                                       alphas, composite_motives), coeff))
    return Interface(terms)


def random_monoid_interface(rng, **kw):
    kw.setdefault("coeff_range", (1, 3))
    return random_interface(rng, **kw)


def outcome(fn, *args):
    """The value of ``fn(*args)``, or the type and text of what it raised."""
    try:
        return ("value", fn(*args))
    except (OverflowError, ScopeError) as exc:
        return ("raised", type(exc), str(exc))


# coefficients near the i64 limits, so partial sums overflow now and then
COEFFS = st.one_of(
    st.integers(-3, 3),
    st.sampled_from((I64_MAX, I64_MAX - 1, I64_MIN, I64_MIN + 1, 2**62, -(2**62))),
)


@st.composite
def interfaces(draw, local=None):
    """A small interface, all local or all global (drawn when ``local`` is None)."""
    if local is None:
        local = draw(st.booleans())
    gens = st.builds(
        Generator,
        target=st.sampled_from(("e1", "e2")),
        action=st.just("a"),
        motive=st.tuples(st.sampled_from(("m1", "m2"))),
        polarity=st.sampled_from(("service", "client")),
        host=st.just(None) if local else st.sampled_from(("e1", "e2")),
        alpha=st.sampled_from(ALPHAS),
    )
    return Interface(draw(st.dictionaries(gens, COEFFS, max_size=4)))


@st.composite
def sum_parts(draw, parts, negate, max_size=8):
    """A list of ``parts`` in which some entries negate an earlier one, so
    running totals cancel to zero part-way through."""
    out = []
    for _ in range(draw(st.integers(0, max_size))):
        if out and draw(st.integers(0, 3)) == 0:
            try:
                out.append(negate(draw(st.sampled_from(out))))
                continue
            except OverflowError:  # the negation of -2**63
                pass
        out.append(draw(parts))
    return out
