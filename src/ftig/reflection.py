"""Reduction modulo the reflection law and the zero-sum closedness check.

The reflection law pairs every outgoing transfer with its matching
incoming counterpart: a service element hosted at ``g`` targeting ``f``
cancels against the client element hosted at ``f`` targeting ``g`` (same
action, motive and TF reply constraint).  Self-transfer elements (host =
target, TF) vanish on their own.  Reducing a global interface against
these rules yields a canonical residual; the interface is closed exactly
when the residual is zero.

Elements with a reply constraint other than TF have no cancellation rule;
they pass through unchanged and are reported as non-cancellable.

``reflect_fields`` states these rules once, on an element's fields; both
``reflect_generator`` and ``reduce_hosted``, the one-pass reduction of an
architecture's hosted members, apply it.  ``reduce_hosted`` is one of two
passes on field tuples: the other is the compliance table of
``architecture.comply_events``, which splits motives into atoms the same
way and keeps the same magnitude bound (``algebra.fits_i64``).
"""

from __future__ import annotations

from collections.abc import Iterable

from .algebra import (
    ALPHA_TF, CLIENT, LOCAL, SERVICE, Generator, Interface, induced, render_motive,
)
from .errors import ScopeError
from .record import Record


def reflect_fields(target: str, polarity: str, host: str,
                   alpha: str) -> tuple[str, str, str, int] | None:
    """The reflection law on the fields of one global element.

    Returns the canonical element's ``(target, polarity, host)`` and the
    sign it carries, or ``None`` for a TF self-transfer, which vanishes.  A
    TF client element becomes minus its service partner (target and host
    swapped); every other element is already canonical.
    """
    if alpha != ALPHA_TF:
        return target, polarity, host, 1
    if target == host:
        return None
    if polarity == CLIENT:
        return host, SERVICE, target, -1
    return target, polarity, host, 1


def reflect_generator(gen: Generator) -> tuple[Generator, int] | None:
    """Canonical signed term for one global element.

    Service elements are already canonical (+1).  A client element maps to
    minus its reflection partner.  Self-transfer elements with TF map to
    zero (returned as ``None``).  Elements with a non-TF reply constraint
    have no rewrite rule and are returned unchanged; callers decide how to
    flag them.
    """
    if gen.is_local:
        raise ScopeError("reflection is defined on global elements only")
    fields = reflect_fields(gen.target, gen.polarity, gen.host, gen.alpha)
    if fields is None:
        return None
    target, polarity, host, sign = fields
    if sign == 1:
        return (gen, 1)
    return (Generator(target, gen.action, gen.motive, polarity, host, gen.alpha), -1)


class Residual(Record):
    """Image of an interface in the group modulo reflection.

    ``canonical`` holds only service-polarity, non-self-transfer TF
    elements plus any non-cancellable (non-TF) elements.  The interface is
    closed exactly when its residual is zero.
    """

    __slots__ = ("canonical",)

    def __init__(self, canonical: Interface):
        self.canonical = canonical

    @property
    def closed(self) -> bool:
        return self.canonical.is_zero

    @property
    def non_cancellable(self) -> tuple[Generator, ...]:
        """The non-TF terms of ``canonical``, in generator order.

        Reduction leaves non-TF terms as they are and maps no TF term onto
        one, so these are the non-TF elements the reduced interface held.
        """
        return tuple(g for g, _ in self.canonical if g.alpha != ALPHA_TF)

    def residual_lines(self) -> list[str]:
        """One line per residual term, then one per non-cancellable element."""
        lines = []
        for gen, coeff in self.canonical:
            direction = f"{gen.host} -> {gen.target}"
            if gen.polarity == CLIENT:
                direction = f"{gen.target} -> {gen.host} (incoming side)"
            alpha = "" if gen.alpha == ALPHA_TF else f"/{gen.alpha}"
            lines.append(
                f"{direction} : {gen.action}({render_motive(gen.motive)}){alpha} x {coeff:+d}"
            )
        for gen in self.non_cancellable:
            lines.append(f"non-cancellable reply constraint: {gen.text()}")
        return lines


def reduce_modulo_reflection(iface: Interface) -> Residual:
    """Reduce a global interface to its canonical residual.

    A group homomorphism: applied term by term, its kernel is exactly the
    reflector subgroup.
    """
    if iface.scope == LOCAL:
        raise ScopeError("cannot reduce a local interface modulo reflection")
    return Residual(induced(iface, _reflected))


def _reflected(gen: Generator) -> tuple[tuple[Generator, int], ...]:
    term = reflect_generator(gen)
    return () if term is None else (term,)


def reduce_hosted(members: Iterable[tuple[str, Interface]]) -> Residual:
    """The residual of the sum of local interfaces, each hosted at its
    entity, with motives split into atoms.

    Equal to ``reduce_modulo_reflection`` of ``expand_motives`` of the sum
    of ``globalize(entity, iface)``, but the three generator maps compose
    into one image per member term, the images add into one dict keyed by
    the field tuple in ``Generator``'s argument order, and a ``Generator``
    is built only for each nonzero residual term.  Partial sums are not
    range-checked: a caller that wants the staged path's first overflow
    error runs that path beyond the ``algebra.fits_i64`` bound.
    """
    acc: dict[tuple, int] = {}
    for entity, iface in members:
        for gen, coeff in iface:
            fields = reflect_fields(gen.target, gen.polarity, entity, gen.alpha)
            if fields is None:
                continue
            target, polarity, host, sign = fields
            action, alpha, coeff = gen.action, gen.alpha, sign * coeff
            for atom in gen.motive:
                key = (target, action, (atom,), polarity, host, alpha)
                acc[key] = acc.get(key, 0) + coeff
    return Residual(Interface({Generator(*key): c for key, c in acc.items() if c}))
