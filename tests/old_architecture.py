"""Verbatim copy of ``Architecture.__init__``'s merge of repeated listings
from when each repeated listing was added to the entity's previous total by
a two-part ``conditional_sum``, kept as the oracle for ``test_architecture``.

``conditional_sum`` is the loop of that time, so the oracle does not run
``transform.ConditionalSum``.  The constructor body is wrapped in
``merged_members``, which returns the tuple it stored as ``self.members``.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable

from ftig.algebra import GLOBAL, LOCAL, Interface, RunningSum
from ftig.architecture import ArchMember
from ftig.errors import ScopeError
from ftig.transform import ConditionalInterface, ConditionLiteral, plain_if_possible

_MIXED_BRANCHES = "conditional branches mix local and global interfaces"


def conditional_sum(parts: Iterable[Interface | ConditionalInterface]) -> ConditionalInterface:
    """Sum of ``parts`` in one pass; equal, value and errors, to folding ``+``.

    A plain ``Interface`` part counts as an unconditional part with no branches.

    One running sum holds the unconditional parts and one per literal.  Each
    part adds its unconditional interface, then its branches in literal
    order; then the scopes of the nonzero sums are compared.
    """
    unconditional = RunningSum()
    branches: dict[ConditionLiteral, RunningSum] = {}
    nonzero = Counter()  # scope -> running sums of that scope with nonzero total
    for part in parts:
        for lit, iface in ((None, part.unconditional), *part.branches):
            running = unconditional if lit is None else branches.setdefault(lit, RunningSum())
            nonzero[running.scope] -= 1
            running.add(iface)
            nonzero[running.scope] += 1
        if nonzero[LOCAL] > 0 and nonzero[GLOBAL] > 0:
            raise ScopeError(_MIXED_BRANCHES)
    return ConditionalInterface(
        unconditional.total(),
        tuple((lit, running.total()) for lit, running in branches.items()),
    )


def merged_members(members=()) -> tuple[ArchMember, ...]:
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
    return tuple(merged[e] for e in order)
