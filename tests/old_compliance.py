"""Verbatim copy of ``architecture.comply_events``, ``_match`` and
``_candidates`` from when compliance expanded every member with
``expand_motives``, built four ``Generator``s per event side to look its
coefficients up, and scanned the member's whole expanded interface for the
candidate hints of each unmatched side; kept as the oracle for
``test_architecture``.

``_ADMITS`` is copied with them; the records and ``_evaluate`` are the
current ones.
"""

from __future__ import annotations

from ftig.algebra import (
    ALPHA_F, ALPHA_NONE, ALPHA_T, ALPHA_TF, ALPHAS, CLIENT, SERVICE, Generator, Interface,
)
from ftig.architecture import (
    Architecture, ComplianceReport, Violation, _evaluate,
)
from ftig.errors import SpecError
from ftig.transform import expand_motives

_REPLY_VALUES = ("T", "F")
_ADMITS = {
    ALPHA_TF: frozenset(_REPLY_VALUES),
    ALPHA_T: frozenset({"T"}),
    ALPHA_F: frozenset({"F"}),
    ALPHA_NONE: frozenset(_REPLY_VALUES),
}


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
