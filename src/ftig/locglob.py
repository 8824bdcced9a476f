"""Moving between entity-implicit local interfaces and explicit global ones.

Globalization stamps a host entity onto every element of a local
interface.  Localization projects a global interface onto one entity:
positively occurring elements hosted there are kept; a negatively
occurring element is first rewritten through the reflection law (minus an
outgoing transfer hosted elsewhere surfaces as the matching incoming
element at the target entity) and then projected.

Because the negative-element rewrite crosses the reflection law, the
decomposition identity recompose(decompose(x)) == x is exact only for
monoid elements; for arbitrary group elements it holds modulo reflection.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import ALPHA_TF, Generator, Interface, interface_sum
from .catalog import Catalog
from .errors import ScopeError


def globalize(entity: str, iface: Interface, catalog: Catalog | None = None) -> Interface:
    """Host every element of a local interface at ``entity``."""
    if iface.scope == "global":
        raise ScopeError("globalize expects a local interface")
    if catalog is not None and not catalog.has_entity(entity):
        raise ValueError(f"entity {entity} is not in the catalog")
    return Interface(
        tuple(
            (Generator(g.target, g.action, g.motive, g.polarity, entity, g.alpha), c)
            for g, c in iface
        )
    )


def _strip_host(gen: Generator) -> Generator:
    return Generator(gen.target, gen.action, gen.motive, gen.polarity, None, gen.alpha)


def localize(entity: str, iface: Interface) -> Interface:
    """Project a global interface onto ``entity``.

    Positive terms survive exactly when hosted at ``entity``.  Negative TF
    terms are first converted to their positive reflection partner, so a
    withdrawn outgoing transfer hosted elsewhere can surface here as an
    incoming element when this entity is its target.  Negative non-TF
    terms have no conversion rule and project directly.
    """
    if iface.scope == "local":
        raise ScopeError("localize expects a global interface")
    acc = []
    for gen, coeff in iface:
        if coeff > 0 or gen.alpha != ALPHA_TF:
            if gen.host == entity:
                acc.append((_strip_host(gen), coeff))
        else:
            partner = gen.reflection_partner()
            if partner.host == entity:
                acc.append((_strip_host(partner), -coeff))
    return Interface(acc)


@dataclass(frozen=True)
class Decomposition:
    """Per-entity localized parts of a global interface."""

    parts: tuple[tuple[str, Interface], ...]

    def as_dict(self) -> dict[str, Interface]:
        return dict(self.parts)


def decompose(iface: Interface) -> Decomposition:
    """Split a global interface into its nonzero per-entity projections."""
    if iface.scope == "local":
        raise ScopeError("decompose expects a global interface")
    candidates = set()
    for gen, coeff in iface:
        candidates.add(gen.host)
        if coeff < 0 and gen.alpha == ALPHA_TF:
            candidates.add(gen.target)
    parts = []
    for entity in sorted(candidates):
        projected = localize(entity, iface)
        if not projected.is_zero:
            parts.append((entity, projected))
    return Decomposition(tuple(parts))


def recompose(decomposition: Decomposition, catalog: Catalog | None = None) -> Interface:
    """Sum of the globalized parts."""
    return interface_sum(
        globalize(entity, part, catalog) for entity, part in decomposition.parts
    )
