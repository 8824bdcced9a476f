"""Named components, architecture closedness checking, diffing, and
transfer-event-log compliance.

An architecture is a sequence of named local interfaces.  Its global sum
hosts each member interface at its entity; the architecture is closed when
that sum vanishes modulo reflection (under every condition assignment, if
members carry conditional branches).

The plain check reduces the members in one pass
(``reflection.reduce_hosted``); when the coefficients are large enough
that some partial sum could overflow, it runs hosting, the sum, motive
expansion and reduction one after another instead, so the first error is
theirs.
"""

from __future__ import annotations

import io

from .algebra import (
    ALPHA_F, ALPHA_NONE, ALPHA_T, ALPHA_TF, ALPHAS, CLIENT, GLOBAL, I64_MAX, SERVICE,
    Generator, Interface, interface_sum,
)
from .catalog import Catalog
from .errors import LogFormatError, ScopeError, SpecError
from .locglob import globalize, require_entity
from .record import Record
from .reflection import Residual, reduce_hosted, reduce_modulo_reflection
from .transform import (
    AssignmentReport, ConditionalInterface, closed_under_all_assignments, conditional_sum,
    eval_conditional, expand_motives, map_parts, plain_if_possible,
)


class ArchMember(Record):
    __slots__ = ("entity", "interface", "contained")

    def __init__(self, entity: str, interface: Interface | ConditionalInterface,
                 contained: bool = False):
        self.entity = entity
        self.interface = interface
        self.contained = contained


class Architecture:
    """Ordered members with distinct entities; duplicate listings for the
    same entity are merged additively at construction.  ``members`` holds
    ``(entity, interface)`` or ``(entity, interface, contained)`` tuples.
    A member's interface is a ConditionalInterface only while it has a
    branch."""

    def __init__(self, name: str, members=()):
        self.name = name
        merged: dict[str, ArchMember] = {}
        order: list[str] = []
        for item in members:
            entity, value = item[0], plain_if_possible(item[1])
            contained = item[2] if len(item) > 2 else False
            if value.scope == GLOBAL:
                raise ScopeError(f"member {entity} must hold a local interface")
            if entity in merged:
                prev = merged[entity]
                value = plain_if_possible(conditional_sum((prev.interface, value)))
                merged[entity] = ArchMember(entity, value, prev.contained or contained)
            else:
                merged[entity] = ArchMember(entity, value, contained)
                order.append(entity)
        self.members: tuple[ArchMember, ...] = tuple(merged[e] for e in order)

    @property
    def has_conditionals(self) -> bool:
        return any(m.interface.branches for m in self.members)

    def __repr__(self):
        return f"Architecture({self.name!r}, {len(self.members)} members)"


def _evaluate(member: ArchMember, assignment) -> Interface:
    """The member's interface, under ``assignment`` when it is conditional."""
    if not member.interface.branches:
        return member.interface
    if assignment is None:
        raise SpecError(f"member {member.entity} is conditional; supply an assignment")
    return eval_conditional(member.interface, assignment)


def global_sum(arch: Architecture, assignment=None, catalog: Catalog | None = None) -> Interface:
    """Sum of the globalized member interfaces, motives expanded.

    Architectures with conditional members need a truth assignment.
    """
    return expand_motives(interface_sum(
        globalize(member.entity, _evaluate(member, assignment), catalog)
        for member in arch.members
    ))


def _conditional_global_sum(arch: Architecture, catalog: Catalog | None) -> ConditionalInterface:
    return conditional_sum(
        map_parts(member.interface,
                  lambda i, e=member.entity: expand_motives(globalize(e, i, catalog)))
        for member in arch.members
    )


class ArchitectureReport(Record):
    """Closedness verdict for one architecture.

    ``plain`` is the residual of an unconditional architecture,
    ``conditional`` the all-assignments check that branches forced.
    """

    __slots__ = ("architecture", "plain", "conditional")

    def __init__(self, architecture: str, plain: Residual | None = None,
                 conditional: AssignmentReport | None = None):
        self.architecture = architecture
        self.plain = plain
        self.conditional = conditional

    @property
    def closed(self) -> bool:
        return (self.conditional if self.plain is None else self.plain).closed

    def residual_lines(self) -> list[str]:
        if self.plain is not None:
            return self.plain.residual_lines()
        lines = []
        for assignment, rep in self.conditional.cases:
            if rep.closed:
                continue
            label = ", ".join(f"{v}={'true' if b else 'false'}" for v, b in assignment)
            lines.append(f"under {label}:")
            lines.extend("  " + line for line in rep.residual_lines())
        return lines


def check_closed(arch: Architecture, catalog: Catalog | None = None) -> ArchitectureReport:
    """Zero-sum check; enumerates condition assignments when needed.

    A plain architecture is reduced in one pass by
    ``reflection.reduce_hosted``, with the value and first error of
    ``reduce_modulo_reflection(global_sum(arch, catalog=catalog))``: when
    the absolute coefficients, counted once per atom occurrence, sum to
    more than ``I64_MAX``, some partial sum could overflow, so that staged
    path runs instead and raises its first error.
    """
    if arch.has_conditionals:
        return ArchitectureReport(arch.name, conditional=closed_under_all_assignments(
            _conditional_global_sum(arch, catalog)))
    for member in arch.members:
        require_entity(member.entity, catalog)
    magnitude = sum(abs(c) * len(g.motive) for member in arch.members
                    for g, c in member.interface)
    if magnitude > I64_MAX:
        residual = reduce_modulo_reflection(global_sum(arch, catalog=catalog))
    else:
        residual = reduce_hosted((member.entity, member.interface) for member in arch.members)
    return ArchitectureReport(arch.name, plain=residual)


def diff(a: Architecture, b: Architecture) -> tuple[tuple[str, Interface], ...]:
    """Per-entity deltas turning ``a`` into ``b`` (zero deltas included)."""
    before = {m.entity: m for m in a.members}
    after = {m.entity: m for m in b.members}
    return tuple((entity, _plain_member(after.get(entity)) - _plain_member(before.get(entity)))
                 for entity in sorted(before.keys() | after.keys()))


def _plain_member(member: ArchMember | None) -> Interface:
    if member is None:
        return Interface.zero()
    if member.interface.branches:
        raise SpecError(f"member {member.entity} is conditional; evaluate it before diffing")
    return member.interface


# ---------------------------------------------------------------- event logs

_REPLY_VALUES = ("T", "F")
_ADMITS = {
    ALPHA_TF: frozenset(_REPLY_VALUES),
    ALPHA_T: frozenset({"T"}),
    ALPHA_F: frozenset({"F"}),
    ALPHA_NONE: frozenset(_REPLY_VALUES),
}

_LOG_HEADER = ("source", "destination", "action", "motive", "reply")


class TransferEvent(Record):
    __slots__ = ("source", "destination", "action", "motive", "reply")

    def __init__(self, source: str, destination: str, action: str, motive: str, reply: str):
        if reply not in _REPLY_VALUES:
            raise SpecError(f"reply must be T or F, got {reply!r}")
        self.source = source
        self.destination = destination
        self.action = action
        self.motive = motive          # one atomic motive
        self.reply = reply            # "T" or "F"


def read_event_log(text: str) -> list[TransferEvent]:
    """Ingest ``source,destination,action,motive,reply`` rows (header optional).

    A row that is malformed, or that the ``csv`` module cannot read (an
    over-long field, or a NUL byte before Python 3.11), raises
    ``LogFormatError`` naming the row."""
    import csv  # only ``comply`` reads a log; other runs skip the import

    events = []
    row_no = 0
    try:
        for row_no, row in enumerate(csv.reader(io.StringIO(text)), start=1):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            cells = [c.strip() for c in row]
            if row_no == 1 and tuple(c.lower() for c in cells) == _LOG_HEADER:
                continue
            if len(cells) != 5:
                raise LogFormatError(f"expected 5 columns, found {len(cells)}", row_no)
            if cells[4] not in _REPLY_VALUES:
                raise LogFormatError(f"reply must be T or F, got {cells[4]!r}", row_no)
            if not all(cells[:4]):
                raise LogFormatError("empty column", row_no)
            events.append(TransferEvent(*cells))
    except csv.Error as exc:  # raised while reading the row after row_no
        raise LogFormatError(str(exc), row_no + 1) from exc
    return events


class Violation(Record):
    __slots__ = ("index", "kind", "side", "entity", "candidates")

    def __init__(self, index: int, kind: str, side: str, entity: str,
                 candidates: tuple[Generator, ...] = ()):
        self.index = index            # position of the event in the checked log
        self.kind = kind
        self.side = side              # "outgoing" or "incoming"
        self.entity = entity
        self.candidates = candidates


class ComplianceReport(Record):
    __slots__ = ("violations", "warnings")

    def __init__(self, violations: tuple[Violation, ...], warnings: tuple[Violation, ...]):
        self.violations = violations
        self.warnings = warnings

    @property
    def complies(self) -> bool:
        return not self.violations


def _match(coefficients: dict[Generator, int], polarity: str, target: str, action: str,
           motive: str, reply: str) -> str:
    """Returns "ok", "reply-forbidden", or "unmatched".

    ``coefficients`` is ``dict(iface)`` of the member's interface.
    """
    declared = []
    for alpha in ALPHAS:
        gen = Generator(target, action, (motive,), polarity, None, alpha)
        if coefficients.get(gen, 0) > 0:
            declared.append(alpha)
    if any(reply in _ADMITS[alpha] for alpha in declared):
        return "ok"
    if declared:
        return "reply-forbidden"
    return "unmatched"


def _candidates(iface: Interface, polarity: str, target: str, action: str,
                motive: str) -> tuple[Generator, ...]:
    """Nearest-candidate hints: positive elements agreeing on at least two
    of target/action/motive."""
    hits = []
    for gen, coeff in iface:
        if coeff <= 0 or gen.polarity != polarity:
            continue
        score = sum((gen.target == target, gen.action == action, gen.motive == (motive,)))
        if score >= 2:
            hits.append(gen)
    return tuple(sorted(hits, key=Generator.sort_key)[:3])


def comply_events(events, arch: Architecture, assignment=None) -> ComplianceReport:
    """Check each logged transfer against the declared member interfaces.

    The source member must declare a positive outgoing element for the
    transfer whose reply constraint admits the observed reply; the
    destination member must declare the matching incoming element.  A
    missing incoming declaration is a warning unless the member is
    contained, in which case it is a violation.
    """
    members = {m.entity: expand_motives(_evaluate(m, assignment)) for m in arch.members}
    coefficients = {entity: dict(iface) for entity, iface in members.items()}
    contained = {m.entity: m.contained for m in arch.members}
    violations: list[Violation] = []
    warnings: list[Violation] = []
    for index, ev in enumerate(events):
        if ev.source not in members and ev.destination not in members:
            raise SpecError(
                f"event {index}: neither {ev.source} nor {ev.destination} "
                f"is an architecture member"
            )
        for side, member, polarity, peer in (("outgoing", ev.source, SERVICE, ev.destination),
                                             ("incoming", ev.destination, CLIENT, ev.source)):
            if member not in members:
                continue
            verdict = _match(coefficients[member], polarity, peer, ev.action, ev.motive,
                             ev.reply)
            if verdict == "reply-forbidden":
                violations.append(Violation(index, "reply-forbidden", side, member))
            elif verdict == "unmatched":
                hit = Violation(index, f"unmatched-{side}", side, member,
                                _candidates(members[member], polarity, peer, ev.action,
                                            ev.motive))
                if side == "outgoing" or contained[member]:
                    violations.append(hit)
                else:
                    warnings.append(hit)
    return ComplianceReport(tuple(violations), tuple(warnings))
