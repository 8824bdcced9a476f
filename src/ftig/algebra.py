"""Free commutative group of financial-transfer interface elements.

A generator is one interface element: the permission of a host entity to
issue (service polarity) or receive (client polarity, written ``~``) a
transfer action with a motive towards/from a target entity, qualified by a
reply constraint.  An :class:`Interface` is a finitely supported map from
generators to signed integer coefficients, kept in canonical normal form
(sorted terms, no zero coefficients, no local/global mixing).

Coefficients are 64-bit signed with checked arithmetic: overflow raises
``OverflowError`` instead of silently corrupting a zero-sum check.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator, Mapping

from .errors import ScopeError
from .record import Record

I64_MIN = -(2**63)
I64_MAX = 2**63 - 1

SERVICE = "service"
CLIENT = "client"

ALPHA_TF = "TF"
ALPHA_T = "T"
ALPHA_F = "F"
ALPHA_NONE = "lambda"
ALPHAS = (ALPHA_TF, ALPHA_T, ALPHA_F, ALPHA_NONE)
_ALPHA_ORDER = {a: i for i, a in enumerate(ALPHAS)}

LOCAL = "local"
GLOBAL = "global"

def _check_i64(n: int) -> int:
    if n < I64_MIN or n > I64_MAX:
        raise OverflowError(f"coefficient {n} exceeds 64-bit signed range")
    return n


def as_motive(motive: str | Iterable[str]) -> tuple[str, ...]:
    """Normalize a motive to its canonical multiset form (a sorted tuple).

    Accepts a single atom name, an iterable of atom names, or the empty
    motive written as ``""``, ``"0"`` or ``()``.
    """
    if isinstance(motive, str):
        atoms = () if motive in ("", "0") else (motive,)
    else:
        atoms = tuple(motive)
    for atom in atoms:
        if not atom or not isinstance(atom, str):
            raise ValueError(f"bad motive atom: {atom!r}")
    return tuple(sorted(atoms))


def render_motive(atoms: tuple[str, ...]) -> str:
    return " + ".join(atoms) if atoms else "0"


class Generator(Record):
    """One interface element.

    ``host`` is the entity whose interface the element belongs to; ``None``
    marks a localized element (host left implicit).  ``motive`` is a
    multiset of motive atoms stored as a sorted tuple; the empty tuple is
    the zero motive.
    """

    __slots__ = ("target", "action", "motive", "polarity", "host", "alpha")

    def __init__(self, target: str, action: str, motive: str | Iterable[str] = (),
                 polarity: str = SERVICE, host: str | None = None, alpha: str = ALPHA_TF):
        if not target:
            raise ValueError("generator needs a target entity")
        if not action:
            raise ValueError("generator needs an action")
        if polarity not in (SERVICE, CLIENT):
            raise ValueError(f"bad polarity: {polarity!r}")
        if alpha not in ALPHAS:
            raise ValueError(f"bad reply constraint: {alpha!r}")
        if host is not None and not host:
            raise ValueError("empty host name")
        self.target = target
        self.action = action
        self.motive = as_motive(motive)
        self.polarity = polarity
        self.host = host
        self.alpha = alpha

    # written out, not inherited: every sum and coefficient lookup hashes generators
    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return ((self.target, self.action, self.motive, self.polarity, self.host, self.alpha)
                == (other.target, other.action, other.motive, other.polarity, other.host,
                    other.alpha))

    def __hash__(self):
        return hash((self.target, self.action, self.motive, self.polarity, self.host,
                     self.alpha))

    @property
    def is_local(self) -> bool:
        return self.host is None

    @property
    def is_self_loop(self) -> bool:
        return self.host is not None and self.host == self.target

    @property
    def has_atomic_motive(self) -> bool:
        return len(self.motive) == 1

    def sort_key(self):
        return (
            self.host or "",
            0 if self.polarity == SERVICE else 1,
            self.target,
            self.action,
            self.motive,
            _ALPHA_ORDER[self.alpha],
        )

    def reflection_partner(self) -> Generator:
        """The element whose sum with this one lies in the reflector group.

        Defined for global elements only: the partner of an outgoing
        transfer to ``f`` hosted at ``g`` is the matching incoming transfer
        from ``g`` hosted at ``f``, and vice versa.
        """
        if self.host is None:
            raise ScopeError("local elements have no reflection partner")
        flipped = CLIENT if self.polarity == SERVICE else SERVICE
        return Generator(
            target=self.host,
            action=self.action,
            motive=self.motive,
            polarity=flipped,
            host=self.target,
            alpha=self.alpha,
        )

    def text(self) -> str:
        """Canonical rendering without a coefficient."""
        tilde = "~" if self.polarity == CLIENT else ""
        s = f"{tilde}{self.target}.{self.action}({render_motive(self.motive)})"
        if self.host is not None:
            s += f"@{self.host}"
        if self.alpha != ALPHA_TF:
            s += f"/{self.alpha}"
        return s

    def __str__(self):
        return self.text()


def service(target: str, action: str, motive: str | Iterable[str] = (), host: str | None = None,
            alpha: str = ALPHA_TF) -> Generator:
    """Outgoing transfer element: permission to issue ``action(motive)`` to ``target``."""
    return Generator(target, action, motive, SERVICE, host, alpha)


def client(target: str, action: str, motive: str | Iterable[str] = (), host: str | None = None,
           alpha: str = ALPHA_TF) -> Generator:
    """Incoming transfer element: permission to receive ``action(motive)`` from ``target``."""
    return Generator(target, action, motive, CLIENT, host, alpha)


def _accumulate(acc: dict[Generator, int], items: Iterable[tuple[Generator, int]]) -> None:
    """Add ``(generator, coefficient)`` items into ``acc`` in order.

    Each coefficient and each partial sum is checked against the 64-bit
    range, so the order of the items decides where a sum overflows; terms
    that reach zero are dropped.
    """
    for gen, coeff in items:
        if not isinstance(gen, Generator):
            raise TypeError(f"expected Generator, got {type(gen).__name__}")
        if coeff == 0:
            continue
        total = _check_i64(acc.get(gen, 0) + _check_i64(coeff))
        if total:
            acc[gen] = total
        else:
            del acc[gen]


def _sorted_terms(acc: dict[Generator, int]) -> tuple[tuple[Generator, int], ...]:
    return tuple(sorted(acc.items(), key=lambda t: t[0].sort_key()))


class Interface:
    """An element of the free commutative interface group, in normal form.

    Immutable; all arithmetic returns new values.  Terms are stored sorted
    by the generator order so equality, hashing and rendering are
    canonical.  An interface is local or global according to its
    generators; the empty interface is compatible with either scope.
    """

    __slots__ = ("_terms", "_scope")

    def __init__(self, terms: Mapping[Generator, int] | Iterable[tuple[Generator, int]] = ()):
        acc: dict[Generator, int] = {}
        _accumulate(acc, terms.items() if isinstance(terms, Mapping) else terms)
        scope = None
        for gen in acc:
            gen_scope = LOCAL if gen.is_local else GLOBAL
            if scope is None:
                scope = gen_scope
            elif scope != gen_scope:
                raise ScopeError("local and global elements mixed in one interface")
        self._terms = _sorted_terms(acc)
        self._scope = scope

    @classmethod
    def zero(cls) -> Interface:
        return _ZERO

    @classmethod
    def term(cls, gen: Generator, coeff: int = 1) -> Interface:
        if not isinstance(gen, Generator):
            raise TypeError(f"expected Generator, got {type(gen).__name__}")
        if coeff == 0:
            return _ZERO
        return _normal(((gen, _check_i64(coeff)),), LOCAL if gen.host is None else GLOBAL)

    @property
    def terms(self) -> tuple[tuple[Generator, int], ...]:
        return self._terms

    @property
    def scope(self) -> str | None:
        """``"local"``, ``"global"``, or ``None`` for the empty interface."""
        return self._scope

    @property
    def is_zero(self) -> bool:
        return not self._terms

    @property
    def is_local(self) -> bool:
        return self._scope != GLOBAL

    # a plain interface reads as a conditional one with no branches
    @property
    def unconditional(self) -> Interface:
        return self

    @property
    def branches(self) -> tuple:
        return ()

    def in_monoid(self) -> bool:
        """True when every coefficient is positive and every reply constraint is TF."""
        return all(c > 0 and g.alpha == ALPHA_TF for g, c in self._terms)

    def coefficient(self, gen: Generator) -> int:
        for g, c in self._terms:
            if g == gen:
                return c
        return 0

    def __add__(self, other: Interface) -> Interface:
        if not isinstance(other, Interface):
            return NotImplemented
        return interface_sum((self, other))

    # negating or scaling by n != 0 keeps the terms' order and scope, so the
    # result is built directly; each coefficient is still range-checked
    def __neg__(self) -> Interface:
        if not self._terms:
            return _ZERO
        return _normal(tuple((g, _check_i64(-c)) for g, c in self._terms), self._scope)

    def __sub__(self, other: Interface) -> Interface:
        if not isinstance(other, Interface):
            return NotImplemented
        return self + (-other)

    def __mul__(self, n: int) -> Interface:
        if not isinstance(n, int):
            return NotImplemented
        if n == 0 or not self._terms:
            return _ZERO
        return _normal(tuple((g, _check_i64(c * n)) for g, c in self._terms), self._scope)

    __rmul__ = __mul__

    def leq(self, other: Interface) -> bool:
        """Partial ordering: true when ``other - self`` has no negative coefficient."""
        return all(c >= 0 for _, c in (other - self)._terms)

    def __eq__(self, other):
        if not isinstance(other, Interface):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        return hash(self._terms)

    def __bool__(self):
        return bool(self._terms)

    def __len__(self):
        return len(self._terms)

    def __iter__(self) -> Iterator[tuple[Generator, int]]:
        return iter(self._terms)

    def render(self) -> str:
        """Canonical text form; ``parse(render(i)) == i`` on normal forms.

        Terms sorted by (host, polarity, target, action, motive, alpha);
        coefficient magnitudes other than 1 printed as an ``n x `` prefix,
        negative terms joined with ``-``.
        """
        if not self._terms:
            return "0"
        parts = []
        for i, (gen, coeff) in enumerate(self._terms):
            mag = abs(coeff)
            body = ("" if mag == 1 else f"{mag} x ") + gen.text()
            if i == 0:
                parts.append(("-" if coeff < 0 else "") + body)
            else:
                parts.append(("- " if coeff < 0 else "+ ") + body)
        return " ".join(parts)

    def __str__(self):
        return self.render()

    def __repr__(self):
        return f"Interface<{self.render()}>"


_ZERO = Interface()


def _normal(terms: tuple[tuple[Generator, int], ...], scope: str | None) -> Interface:
    """An interface from ``terms`` already in normal form, all of ``scope``."""
    value = Interface.__new__(Interface)
    value._terms = terms
    value._scope = scope
    return value


class RunningSum:
    """A sum of interfaces built in one pass: one dict, sorted once.

    ``add`` runs the checks of ``total + part`` in the same order, so the
    value and the first error equal those of a left fold of ``+``: the scope
    check against the running total, then the checked accumulation of each
    term.  A running total that cancels to zero takes any scope again.
    """

    __slots__ = ("_acc", "_scope")

    def __init__(self):
        self._acc: dict[Generator, int] = {}
        self._scope: str | None = None

    @property
    def scope(self) -> str | None:
        """The scope of the total so far; ``None`` while it is zero."""
        return self._scope if self._acc else None

    def add(self, part: Interface) -> None:
        if not isinstance(part, Interface):
            raise TypeError(f"expected Interface, got {type(part).__name__}")
        if part.scope is not None:
            if not self._acc:
                self._scope = part.scope
            elif self._scope != part.scope:
                raise ScopeError(
                    f"cannot combine a {self._scope} interface with a {part.scope} one")
        # the terms of an Interface are Generators with nonzero 64-bit
        # coefficients, so only the partial sums need _accumulate's checks
        acc = self._acc
        for gen, coeff in part._terms:
            total = acc.get(gen, 0) + coeff
            if total:
                acc[gen] = _check_i64(total)
            else:
                del acc[gen]

    def total(self) -> Interface:
        if not self._acc:
            return _ZERO
        return _normal(_sorted_terms(self._acc), self._scope)


def interface_sum(parts: Iterable[Interface]) -> Interface:
    """Sum of ``parts`` in one pass; equal, value and errors, to folding ``+``."""
    running = RunningSum()
    for part in parts:
        running.add(part)
    return running.total()


def induced(iface: Interface,
            image: Callable[[Generator], Iterable[tuple[Generator, int]]]) -> Interface:
    """The homomorphism that sends each generator ``g`` to the sum of the
    ``(h, sign)`` terms in ``image(g)``, applied to ``iface``.

    The group is free, so the generator map fixes the homomorphism.  The
    image terms, coefficients multiplied through, are accumulated by
    ``Interface`` in term order, so the first overflow is that of the
    term-by-term sum.
    """
    return Interface([(h, sign * c) for g, c in iface.terms for h, sign in image(g)])
