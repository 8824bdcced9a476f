"""Structural homomorphisms on interfaces and conditional-interface evaluation.

All of these are group homomorphisms: motive expansion, entity refinement,
annihilation of designated elements, and catalog renaming.  A homomorphism
out of the free interface group is fixed by its image of each generator, and
``algebra.induced`` is the single way one is built from that image (here, and
for ``globalize`` and ``reduce_modulo_reflection``); only
``reflection.reduce_hosted``, the plain closedness check, composes hosting,
expansion and reduction by hand on field tuples, for speed.  Conditional
interfaces attach branches guarded by boolean condition literals.  The
all-assignments check reports closedness under every truth assignment.
Reduction modulo reflection is a homomorphism too, so it reduces the
unconditional part and each branch once and sums, per assignment, the
reduced parts that assignment selects.
"""

from __future__ import annotations

import itertools
from collections import Counter
from collections.abc import Callable, Iterable, Mapping

from .algebra import (
    GLOBAL, I64_MAX, LOCAL, Generator, Interface, RunningSum, induced, interface_sum,
)
from .errors import CapacityError, ScopeError, SpecError
from .record import Record
from .reflection import ClosednessReport, Residual, is_closed, reduce_modulo_reflection

MAX_CONDITION_VARS = 16

_MIXED_BRANCHES = "conditional branches mix local and global interfaces"


def expand_motives(iface: Interface) -> Interface:
    """Distribute composite motives into atomic-motive terms.

    A term with motive ``v + w`` splits into one term per atom occurrence
    (the coefficient multiplying through the multiset multiplicity); terms
    with the zero motive vanish.  Idempotent.
    """
    return induced(iface, lambda g: [
        (Generator(g.target, g.action, (atom,), g.polarity, g.host, g.alpha), 1)
        for atom in g.motive])


class RefinementSpec(Record):
    """Expansion of one coarse entity into finer parallel parts."""

    __slots__ = ("coarse", "parts")

    def __init__(self, coarse: str, parts: Iterable[str]):
        parts = tuple(parts)
        if not parts:
            raise SpecError("refinement needs at least one part")
        if len(set(parts)) != len(parts):
            raise SpecError("refinement parts must be pairwise distinct")
        if coarse in parts:
            raise SpecError("refined entity cannot be one of its own parts")
        self.coarse = coarse
        self.parts = parts


def refine(iface: Interface, spec: RefinementSpec) -> Interface:
    """Rewrite every element mentioning the coarse entity over its parts.

    Both target and host equal to the coarse entity produce the full grid
    of part pairs (self-transfers included); only the target or only the
    host produce one sum over parts; untouched elements pass through.
    Applies to both polarities; motives must already be atomic.
    """
    if iface.scope == LOCAL:
        raise ScopeError("refine expects a global interface")

    def image(g: Generator) -> list[tuple[Generator, int]]:
        if not g.has_atomic_motive:
            raise SpecError(
                f"refine needs atomic motives; expand first (offending element: {g.text()})"
            )
        targets = spec.parts if g.target == spec.coarse else (g.target,)
        hosts = spec.parts if g.host == spec.coarse else (g.host,)
        return [(Generator(t, g.action, g.motive, g.polarity, h, g.alpha), 1)
                for t, h in itertools.product(targets, hosts)]

    return induced(iface, image)


def annihilate(iface: Interface, kill: Iterable[Generator]) -> Interface:
    """Set the coefficient of each listed generator to zero."""
    doomed = set(kill)
    return induced(iface, lambda g: () if g in doomed else ((g, 1),))


class RenameMap(Record):
    """Catalog renaming (abstraction); unlisted names map to themselves.

    Merging previously distinct names is legal and produces element
    multiplicities.
    """

    __slots__ = ("entity_map", "action_map", "motive_map")

    def __init__(self, entity_map: Mapping[str, str] | None = None,
                 action_map: Mapping[str, str] | None = None,
                 motive_map: Mapping[str, str] | None = None):
        self.entity_map = {} if entity_map is None else entity_map
        self.action_map = {} if action_map is None else action_map
        self.motive_map = {} if motive_map is None else motive_map

    def entity(self, name: str) -> str:
        return self.entity_map.get(name, name)

    def action(self, name: str) -> str:
        return self.action_map.get(name, name)

    def motive_atom(self, name: str) -> str:
        return self.motive_map.get(name, name)


def rename(iface: Interface, mapping: RenameMap) -> Interface:
    """Apply a catalog renaming to every element; identical images merge."""
    return induced(iface, lambda g: ((Generator(
        mapping.entity(g.target),
        mapping.action(g.action),
        tuple(mapping.motive_atom(a) for a in g.motive),
        g.polarity,
        None if g.host is None else mapping.entity(g.host),
        g.alpha,
    ), 1),))


class ConditionLiteral(Record):
    """A boolean condition variable or its negation."""

    __slots__ = ("variable", "negated")

    def __init__(self, variable: str, negated: bool = False):
        self.variable = variable
        self.negated = negated

    def satisfied_by(self, assignment: Mapping[str, bool]) -> bool:
        return assignment[self.variable] != self.negated

    def text(self) -> str:
        return ("!" if self.negated else "") + self.variable

    def sort_key(self):
        return (self.variable, self.negated)


class ConditionalInterface:
    """An interface plus branches contributed only under satisfied literals."""

    __slots__ = ("_unconditional", "_branches")

    def __init__(self, unconditional: Interface = Interface.zero(),
                 branches: Mapping[ConditionLiteral, Interface] | Iterable[tuple[ConditionLiteral, Interface]] = ()):
        self._unconditional = unconditional
        if not branches:
            self._branches = ()
            return
        items = branches.items() if isinstance(branches, Mapping) else branches
        acc: dict[ConditionLiteral, Interface] = {}
        for lit, iface in items:
            merged = acc.get(lit, Interface.zero()) + iface
            if merged.is_zero:
                acc.pop(lit, None)
            else:
                acc[lit] = merged
        scopes = {unconditional.scope} | {i.scope for i in acc.values()}
        scopes.discard(None)
        if len(scopes) > 1:
            raise ScopeError(_MIXED_BRANCHES)
        self._branches = tuple(sorted(acc.items(), key=lambda t: t[0].sort_key()))

    @property
    def unconditional(self) -> Interface:
        return self._unconditional

    @property
    def branches(self) -> tuple[tuple[ConditionLiteral, Interface], ...]:
        return self._branches

    @property
    def scope(self) -> str | None:
        for scope in (self._unconditional.scope, *(i.scope for _, i in self._branches)):
            if scope is not None:
                return scope
        return None

    def variables(self) -> tuple[str, ...]:
        return tuple(sorted({lit.variable for lit, _ in self._branches}))

    def __eq__(self, other):
        if not isinstance(other, ConditionalInterface):
            return NotImplemented
        return (self._unconditional, self._branches) == (other._unconditional, other._branches)

    def __hash__(self):
        return hash((self._unconditional, self._branches))

    def map_interfaces(self, fn: Callable[[Interface], Interface]) -> ConditionalInterface:
        return ConditionalInterface(
            fn(self._unconditional),
            tuple((lit, fn(iface)) for lit, iface in self._branches),
        )

    def render(self) -> str:
        chunks = []
        if not self._unconditional.is_zero or not self._branches:
            chunks.append(self._unconditional.render())
        for lit, iface in self._branches:
            body = iface.render()
            if len(iface) > 1:
                body = f"({body})"
            chunks.append(f"{body} <| {lit.text()} |> 0")
        return " + ".join(chunks)

    def __repr__(self):
        return f"ConditionalInterface<{self.render()}>"


def plain_if_possible(value: Interface | ConditionalInterface) -> Interface | ConditionalInterface:
    """``value`` as its unconditional ``Interface`` when it has no branch.

    A value is a ConditionalInterface only while one of its branches survives.
    """
    if isinstance(value, ConditionalInterface):
        return value if value.branches else value.unconditional
    if isinstance(value, Interface):
        return value
    raise TypeError(f"expected Interface or ConditionalInterface, got {type(value).__name__}")


def map_parts(value: Interface | ConditionalInterface,
              fn: Callable[[Interface], Interface]) -> Interface | ConditionalInterface:
    """``fn`` applied to the unconditional part and to each branch of ``value``;
    plain unless a branch survives."""
    if not value.branches:
        return fn(value.unconditional)
    return plain_if_possible(value.map_interfaces(fn))


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


def eval_conditional(cond: ConditionalInterface, assignment: Mapping[str, bool]) -> Interface:
    """The unconditional part plus every branch whose literal is satisfied."""
    missing = [v for v in cond.variables() if v not in assignment]
    if missing:
        raise SpecError(f"assignment missing condition variables: {', '.join(missing)}")
    return cond.unconditional + interface_sum(
        iface for lit, iface in cond.branches if lit.satisfied_by(assignment)
    )


class AssignmentReport(Record):
    __slots__ = ("closed", "cases")

    def __init__(self, closed: bool,
                 cases: tuple[tuple[tuple[tuple[str, bool], ...], ClosednessReport], ...]):
        self.closed = closed
        self.cases = cases


def closed_under_all_assignments(cond: ConditionalInterface) -> AssignmentReport:
    """Closedness check under every assignment of the condition variables.

    The residual under an assignment is the reduced unconditional part plus
    the reduced branches whose literal the assignment satisfies, so each
    part is reduced once, and assignments that select the same nonzero
    reduced branches share one sum and one report.  Assignments run in
    ``itertools.product`` order, ``False`` first.
    """
    variables = cond.variables()
    if len(variables) > MAX_CONDITION_VARS:
        raise CapacityError(
            f"{len(variables)} condition variables exceed the limit of {MAX_CONDITION_VARS}"
        )
    rows = list(itertools.product((False, True), repeat=len(variables)))
    magnitude = sum(abs(c) for part in (cond.unconditional, *(i for _, i in cond.branches))
                    for _, c in part)
    # reducing first could hide an evaluation's overflow or local scope: evaluate those
    if cond.scope == LOCAL or magnitude > I64_MAX:
        reports = [is_closed(eval_conditional(cond, dict(zip(variables, values))))
                   for values in rows]
    else:
        base = reduce_modulo_reflection(cond.unconditional).canonical
        reduced = [(lit, reduce_modulo_reflection(iface).canonical)
                   for lit, iface in cond.branches]
        reduced = [(lit, r) for lit, r in reduced if r]  # branches in the kernel add nothing
        column = {var: i for i, var in enumerate(variables)}
        guards = [(column[lit.variable], lit.negated) for lit, _ in reduced]
        # assignments that select the same reduced branches share one report
        distinct: dict[tuple[int, ...], ClosednessReport] = {}
        reports = []
        for values in rows:
            selected = tuple(i for i, (j, negated) in enumerate(guards) if values[j] != negated)
            rep = distinct.get(selected)
            if rep is None:
                rep = distinct[selected] = ClosednessReport.of(Residual.of(interface_sum(
                    (base, *(reduced[i][1] for i in selected))
                )))
            reports.append(rep)
    cases = tuple((tuple(zip(variables, values)), rep) for values, rep in zip(rows, reports))
    return AssignmentReport(all(rep.closed for _, rep in cases), cases)
