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
"""

from __future__ import annotations

from .algebra import ALPHA_TF, CLIENT, LOCAL, Generator, Interface, induced, render_motive
from .errors import ScopeError
from .record import Record


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
    if gen.alpha != ALPHA_TF:
        return (gen, 1)
    if gen.is_self_loop:
        return None
    if gen.polarity == CLIENT:
        return (gen.reflection_partner(), -1)
    return (gen, 1)


class Residual(Record):
    """Image of an interface in the group modulo reflection.

    ``canonical`` holds only service-polarity, non-self-transfer TF
    elements plus any non-cancellable (non-TF) elements.
    ``non_cancellable`` lists the non-TF generators that were present.
    """

    __slots__ = ("canonical", "non_cancellable")

    def __init__(self, canonical: Interface, non_cancellable: tuple[Generator, ...] = ()):
        self.canonical = canonical
        self.non_cancellable = non_cancellable

    @classmethod
    def of(cls, canonical: Interface) -> Residual:
        """The residual with this canonical form.

        Reduction leaves non-TF terms as they are and maps no TF term onto
        one, so the non-TF terms of ``canonical`` are the non-cancellable
        elements, in generator order.
        """
        return cls(canonical, tuple(g for g, _ in canonical if g.alpha != ALPHA_TF))

    @property
    def is_zero(self) -> bool:
        return self.canonical.is_zero and not self.non_cancellable


def reduce_modulo_reflection(iface: Interface) -> Residual:
    """Reduce a global interface to its canonical residual.

    A group homomorphism: applied term by term, its kernel is exactly the
    reflector subgroup.
    """
    if iface.scope == LOCAL:
        raise ScopeError("cannot reduce a local interface modulo reflection")
    return Residual.of(induced(iface, _reflected))


def _reflected(gen: Generator) -> tuple[tuple[Generator, int], ...]:
    term = reflect_generator(gen)
    return () if term is None else (term,)


class ClosednessReport(Record):
    __slots__ = ("closed", "residual")

    def __init__(self, closed: bool, residual: Residual):
        self.closed = closed
        self.residual = residual

    @classmethod
    def of(cls, residual: Residual) -> ClosednessReport:
        return cls(residual.is_zero, residual)

    def residual_lines(self) -> list[str]:
        """One line per residual term, then one per non-cancellable element."""
        lines = []
        for gen, coeff in self.residual.canonical:
            direction = f"{gen.host} -> {gen.target}"
            if gen.polarity == CLIENT:
                direction = f"{gen.target} -> {gen.host} (incoming side)"
            alpha = "" if gen.alpha == ALPHA_TF else f"/{gen.alpha}"
            lines.append(
                f"{direction} : {gen.action}({render_motive(gen.motive)}){alpha} x {coeff:+d}"
            )
        for gen in self.residual.non_cancellable:
            lines.append(f"non-cancellable reply constraint: {gen.text()}")
        return lines


def is_closed(iface: Interface) -> ClosednessReport:
    """Zero-sum integrity check: closed iff the residual vanishes entirely."""
    return ClosednessReport.of(reduce_modulo_reflection(iface))
