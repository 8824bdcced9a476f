"""Named components, architecture closedness checking, diffing, and
transfer-event-log compliance.

An architecture is a sequence of named local interfaces, the listings of a
repeated entity summed in order by one ``transform.ConditionalSum``.  Its
global sum hosts each member interface at its entity; the architecture is
closed when that sum vanishes modulo reflection (under every condition
assignment, if members carry conditional branches).

The plain check reduces the members in one pass
(``reflection.reduce_hosted``); when the coefficients are large enough
that some partial sum could overflow (``algebra.fits_i64``), it runs
hosting, the sum, motive expansion and reduction one after another
instead, so the first error is theirs.  Compliance is the other pass on
field tuples: ``comply_events`` tables each member's positive elements,
split into atoms as ``reduce_hosted`` splits them, and matches each event
side with one lookup; a member beyond the same bound is expanded by
``expand_motives`` first.
"""

from __future__ import annotations

import io

from .algebra import (
    ALPHA_F, ALPHA_NONE, ALPHA_T, ALPHA_TF, ALPHAS, CLIENT, GLOBAL, SERVICE,
    Generator, Interface, fits_i64, interface_sum,
)
from .catalog import Catalog
from .errors import LogFormatError, ScopeError, SpecError
from .locglob import globalize, require_entity
from .record import Record
from .reflection import Residual, reduce_hosted, reduce_modulo_reflection
from .transform import (
    AssignmentReport, ConditionalInterface, ConditionalSum, closed_under_all_assignments,
    conditional_sum, eval_conditional, expand_motives, map_parts, plain_if_possible,
)


class ArchMember(Record):
    __slots__ = ("entity", "interface", "contained")

    def __init__(self, entity: str, interface: Interface | ConditionalInterface,
                 contained: bool = False):
        self.entity = entity
        self.interface = interface
        self.contained = contained


class Architecture:
    """Ordered members with distinct entities, from ``(entity, interface)``
    or ``(entity, interface, contained)`` tuples.  A member's interface is a
    ConditionalInterface only while it has a branch."""

    def __init__(self, name: str, members=()):
        self.name = name
        merged: dict[str, list] = {}  # entity -> [value or ConditionalSum, contained]
        for item in members:
            entity, value = item[0], plain_if_possible(item[1])
            contained = item[2] if len(item) > 2 else False
            if value.scope == GLOBAL:
                raise ScopeError(f"member {entity} must hold a local interface")
            slot = merged.get(entity)
            if slot is None:
                merged[entity] = [value, contained]
                continue
            if not isinstance(slot[0], ConditionalSum):
                slot[0] = ConditionalSum((slot[0],))
            slot[0].add(value)
            slot[1] = slot[1] or contained
        self.members: tuple[ArchMember, ...] = tuple(
            ArchMember(entity, value.total() if isinstance(value, ConditionalSum) else value,
                       contained) for entity, (value, contained) in merged.items())

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
    ``reduce_modulo_reflection(global_sum(arch, catalog=catalog))``: beyond
    the ``algebra.fits_i64`` bound some partial sum could overflow, so that
    staged path runs instead and raises its first error.
    """
    if arch.has_conditionals:
        return ArchitectureReport(arch.name, conditional=closed_under_all_assignments(
            _conditional_global_sum(arch, catalog)))
    for member in arch.members:
        require_entity(member.entity, catalog)
    if not fits_i64(member.interface for member in arch.members):
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


class _Declared:
    """One member's positive elements as field tuples, for compliance.

    The member's coefficients are summed per ``(polarity, target, action,
    atom, alpha)``, each term's coefficient once per occurrence of an atom
    in its motive, as ``expand_motives`` sums them; a key whose sum is
    positive is a declared element, so terms that cancel hide it.
    ``replies`` maps each declared ``(polarity, target, action, atom)`` to
    the replies its alphas admit.
    """

    __slots__ = ("replies", "_declared", "_buckets")

    def __init__(self, iface: Interface):
        sums: dict[tuple, int] = {}
        for gen, coeff in iface:
            polarity, target, action, alpha = gen.polarity, gen.target, gen.action, gen.alpha
            for atom in gen.motive:
                key = (polarity, target, action, atom, alpha)
                sums[key] = sums.get(key, 0) + coeff
        self._declared = [key for key, c in sums.items() if c > 0]
        replies: dict[tuple, frozenset] = {}
        for polarity, target, action, atom, alpha in self._declared:
            key = (polarity, target, action, atom)
            replies[key] = replies.get(key, frozenset()) | _ADMITS[alpha]
        self.replies = replies
        self._buckets: dict[tuple, list] | None = None

    def candidates(self, polarity: str, target: str, action: str,
                   atom: str) -> tuple[Generator, ...]:
        """The first three declared elements of ``polarity``, in
        ``Generator.sort_key`` order, that agree with an unmatched event side
        on two of target, action and atom.

        Each pair of the three fields keys one bucket of elements, sorted
        as ``(target, action, atom, alpha rank)``: the sort key within one
        polarity and no host.  An element agreeing on all three fields would
        have matched, so the side's three buckets are disjoint, and the
        hints are the first three of their first threes.  The buckets are
        built on the member's first unmatched side.
        """
        if self._buckets is None:
            buckets: dict[tuple, list] = {}
            for p, t, a, m, rank in sorted([(p, t, a, m, ALPHAS.index(alpha))
                                            for p, t, a, m, alpha in self._declared]):
                entry = (t, a, m, rank)
                for key in ((p, t, a, None), (p, t, None, m), (p, None, a, m)):
                    buckets.setdefault(key, []).append(entry)
            self._buckets = buckets
        get = self._buckets.get
        hits = sorted([*get((polarity, target, action, None), ())[:3],
                       *get((polarity, target, None, atom), ())[:3],
                       *get((polarity, None, action, atom), ())[:3]])[:3]
        return tuple(Generator(t, a, (m,), polarity, None, ALPHAS[rank])
                     for t, a, m, rank in hits)


def comply_events(events, arch: Architecture, assignment=None) -> ComplianceReport:
    """Check each logged transfer against the declared member interfaces.

    The source member must declare a positive outgoing element for the
    transfer whose reply constraint admits the observed reply; the
    destination member must declare the matching incoming element.  A
    missing incoming declaration is a warning unless the member is
    contained, in which case it is a violation.

    Each member, under ``assignment``, is tabled once by ``_Declared``, so
    each event side is one dict lookup: no entry is ``unmatched-*`` and an
    entry that does not admit the reply is ``reply-forbidden``.  An
    unmatched side carries as hints the first three (in ``Generator``
    order) of the member's positive elements of its polarity that agree
    with it on two of target, action and motive.  A member beyond the
    ``fits_i64`` bound is first expanded by ``expand_motives``, so that any
    overflow is raised as that staged expansion raises it.
    """
    declared: dict[str, _Declared] = {}
    contained: dict[str, bool] = {}
    for member in arch.members:
        iface = _evaluate(member, assignment)
        if not fits_i64((iface,)):
            iface = expand_motives(iface)
        declared[member.entity] = _Declared(iface)
        contained[member.entity] = member.contained
    violations: list[Violation] = []
    warnings: list[Violation] = []
    for index, ev in enumerate(events):
        if ev.source not in declared and ev.destination not in declared:
            raise SpecError(
                f"event {index}: neither {ev.source} nor {ev.destination} "
                f"is an architecture member"
            )
        action, motive = ev.action, ev.motive
        for side, member, polarity, peer in (("outgoing", ev.source, SERVICE, ev.destination),
                                             ("incoming", ev.destination, CLIENT, ev.source)):
            table = declared.get(member)
            if table is None:
                continue
            if not (peer and action and motive):
                Generator(peer, action, (motive,), polarity)  # raises the element's error
            replies = table.replies.get((polarity, peer, action, motive))
            if replies is None:
                hit = Violation(index, f"unmatched-{side}", side, member,
                                table.candidates(polarity, peer, action, motive))
                if side == "outgoing" or contained[member]:
                    violations.append(hit)
                else:
                    warnings.append(hit)
            elif ev.reply not in replies:
                violations.append(Violation(index, "reply-forbidden", side, member))
    return ComplianceReport(tuple(violations), tuple(warnings))
