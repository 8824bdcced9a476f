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

from .algebra import ALPHA_TF, GLOBAL, LOCAL, Generator, Interface, induced, interface_sum
from .catalog import Catalog
from .errors import ScopeError, SpecError
from .record import Record


def require_entity(entity: str, catalog: Catalog | None) -> None:
    """Raise unless ``catalog`` is ``None`` or declares ``entity``."""
    if catalog is not None and not catalog.has_entity(entity):
        raise SpecError(f"entity {entity} is not in the catalog")


def globalize(entity: str, iface: Interface, catalog: Catalog | None = None) -> Interface:
    """Host every element of a local interface at ``entity``."""
    if iface.scope == GLOBAL:
        raise ScopeError("globalize expects a local interface")
    require_entity(entity, catalog)
    return induced(iface, lambda g: (
        (Generator(g.target, g.action, g.motive, g.polarity, entity, g.alpha), 1),))


def _strip_host(gen: Generator) -> Generator:
    return Generator(gen.target, gen.action, gen.motive, gen.polarity, None, gen.alpha)


def _reflect_withdrawn(gen: Generator, coeff: int) -> tuple[Generator, int]:
    """A negative TF term as its positive reflection partner; others unchanged."""
    if coeff > 0 or gen.alpha != ALPHA_TF:
        return gen, coeff
    return gen.reflection_partner(), -coeff


def localize(entity: str, iface: Interface) -> Interface:
    """Project a global interface onto ``entity``.

    Positive terms survive exactly when hosted at ``entity``.  Negative TF
    terms are first converted to their positive reflection partner, so a
    withdrawn outgoing transfer hosted elsewhere can surface here as an
    incoming element when this entity is its target.  Negative non-TF
    terms have no conversion rule and project directly.
    """
    if iface.scope == LOCAL:
        raise ScopeError("localize expects a global interface")
    acc = []
    for term in iface:
        gen, coeff = _reflect_withdrawn(*term)
        if gen.host == entity:
            acc.append((_strip_host(gen), coeff))
    return Interface(acc)


class Decomposition(Record):
    """Per-entity localized parts of a global interface."""

    __slots__ = ("parts",)

    def __init__(self, parts: tuple[tuple[str, Interface], ...]):
        self.parts = parts


def decompose(iface: Interface) -> Decomposition:
    """Split a global interface into its nonzero per-entity projections.

    One pass puts each term, in input order, under the entity ``localize``
    projects it onto; the parts are then built in entity order, so each
    equals ``localize(entity, iface)``, overflow included.
    """
    if iface.scope == LOCAL:
        raise ScopeError("decompose expects a global interface")
    buckets: dict[str, list[tuple[Generator, int]]] = {}
    for term in iface:
        gen, coeff = _reflect_withdrawn(*term)
        buckets.setdefault(gen.host, []).append((_strip_host(gen), coeff))
    parts = ((entity, Interface(buckets[entity])) for entity in sorted(buckets))
    return Decomposition(tuple((entity, part) for entity, part in parts if not part.is_zero))


def recompose(decomposition: Decomposition, catalog: Catalog | None = None) -> Interface:
    """Sum of the globalized parts."""
    return interface_sum(
        globalize(entity, part, catalog) for entity, part in decomposition.parts
    )
