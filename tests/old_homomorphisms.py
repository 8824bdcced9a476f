"""Verbatim copies of the six homomorphisms as each accumulated its own
image terms, kept as the oracle for ``test_transform.TestInducedOracle``.

``globalize``, ``expand_motives``, ``refine``, ``annihilate``, ``rename``
and ``reduce_modulo_reflection`` are the copies from before they became
one ``algebra.induced`` call each.  Only the imports are changed, and
the two bad-input raises raise ``SpecError``, the class today's code
raises, where they raised ``ValueError``.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable

from ftig.algebra import Generator, Interface
from ftig.catalog import Catalog
from ftig.errors import ScopeError, SpecError
from ftig.reflection import Residual, reflect_generator
from ftig.transform import RefinementSpec, RenameMap


def globalize(entity: str, iface: Interface, catalog: Catalog | None = None) -> Interface:
    """Host every element of a local interface at ``entity``."""
    if iface.scope == "global":
        raise ScopeError("globalize expects a local interface")
    if catalog is not None and not catalog.has_entity(entity):
        raise SpecError(f"entity {entity} is not in the catalog")
    return Interface(
        tuple(
            (Generator(g.target, g.action, g.motive, g.polarity, entity, g.alpha), c)
            for g, c in iface
        )
    )


def expand_motives(iface: Interface) -> Interface:
    """Distribute composite motives into atomic-motive terms.

    A term with motive ``v + w`` splits into one term per atom occurrence
    (the coefficient multiplying through the multiset multiplicity); terms
    with the zero motive vanish.  Idempotent.
    """
    acc = []
    for gen, coeff in iface:
        for atom in gen.motive:
            acc.append(
                (Generator(gen.target, gen.action, (atom,), gen.polarity, gen.host, gen.alpha),
                 coeff)
            )
    return Interface(acc)


def refine(iface: Interface, spec: RefinementSpec) -> Interface:
    """Rewrite every element mentioning the coarse entity over its parts.

    Both target and host equal to the coarse entity produce the full grid
    of part pairs (self-transfers included); only the target or only the
    host produce one sum over parts; untouched elements pass through.
    Applies to both polarities; motives must already be atomic.
    """
    if iface.scope == "local":
        raise ScopeError("refine expects a global interface")
    acc = []
    for gen, coeff in iface:
        if not gen.has_atomic_motive:
            raise SpecError(
                f"refine needs atomic motives; expand first (offending element: {gen.text()})"
            )
        hits_target = gen.target == spec.coarse
        hits_host = gen.host == spec.coarse
        if hits_target and hits_host:
            for ti, hj in itertools.product(spec.parts, spec.parts):
                acc.append((Generator(ti, gen.action, gen.motive, gen.polarity, hj, gen.alpha),
                            coeff))
        elif hits_target:
            for ti in spec.parts:
                acc.append((Generator(ti, gen.action, gen.motive, gen.polarity, gen.host,
                                      gen.alpha), coeff))
        elif hits_host:
            for hj in spec.parts:
                acc.append((Generator(gen.target, gen.action, gen.motive, gen.polarity, hj,
                                      gen.alpha), coeff))
        else:
            acc.append((gen, coeff))
    return Interface(acc)


def annihilate(iface: Interface, kill: Iterable[Generator]) -> Interface:
    """Set the coefficient of each listed generator to zero."""
    doomed = set(kill)
    return Interface(tuple((g, c) for g, c in iface if g not in doomed))


def rename(iface: Interface, mapping: RenameMap) -> Interface:
    """Apply a catalog renaming to every element; identical images merge."""
    acc = []
    for gen, coeff in iface:
        acc.append(
            (Generator(
                mapping.entity(gen.target),
                mapping.action(gen.action),
                tuple(mapping.motive_atom(a) for a in gen.motive),
                gen.polarity,
                None if gen.host is None else mapping.entity(gen.host),
                gen.alpha,
            ), coeff)
        )
    return Interface(acc)


def reduce_modulo_reflection(iface: Interface) -> Residual:
    """Reduce a global interface to its canonical residual.

    A group homomorphism: applied term by term, its kernel is exactly the
    reflector subgroup.
    """
    if iface.scope == "local":
        raise ScopeError("cannot reduce a local interface modulo reflection")
    acc = []
    for gen, coeff in iface:
        reflected = reflect_generator(gen)
        if reflected is None:
            continue
        canon_gen, sign = reflected
        acc.append((canon_gen, sign * coeff))
    return Residual.of(Interface(acc))

