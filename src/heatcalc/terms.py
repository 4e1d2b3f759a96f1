"""Exact algebra of derivative monomials.

A derivative monomial is a product of spatial density derivatives over a
density power,

    prod_m f_m^{k_m} / f^{K-1},        K = sum_m k_m,

where ``f_m`` is the m-th derivative (in y) of a smooth positive density
``f(y, t)`` and the empty product denotes ``f`` itself.  Linear
combinations of such monomials with exact rational coefficients are the
integrands that appear when differentiating the entropy of ``X + sqrt(t) Z``
in t, so the module provides the two derivations that generate them, both
one product rule (``_derive``) on the factors and the implied denominator:

* ``d_dy`` -- the spatial derivative, f_m -> f_{m+1}, and
* ``d_dt`` -- the time derivative under the heat flow, using
  ``f_t = f_yy / 2`` so every factor ``f_m`` turns into ``f_{m+2} / 2``.

All coefficients are ``fractions.Fraction``; nothing here ever rounds.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Iterable, Iterator, Mapping, Tuple, Union

from .records import FrozenRecord

CoeffLike = Union[int, Fraction]

# the default of every coefficient lookup; a fresh Fraction(0) per lookup
# was a tenth of the time of deriving C_12
_ZERO = Fraction(0)


class DerivMonomial(FrozenRecord):
    """One term ``prod_m f_m^{k_m} / f^{K-1}``.

    ``exps`` is a tuple of (order, exponent) pairs, strictly increasing in
    order; both entries are positive.  The denominator power is implied by
    the total degree, so two monomials are equal iff their exponent maps
    are equal.  The empty tuple is the density ``f``.
    """

    exps: Tuple[Tuple[int, int], ...]

    def __init__(self, exps: Tuple[Tuple[int, int], ...] = ()) -> None:
        last = 0
        for order, k in exps:
            if order <= 0 or k <= 0:
                raise ValueError(f"orders and exponents must be >= 1, got f_{order}^{k}")
            if order <= last:
                raise ValueError("exponent pairs must be strictly increasing in order")
            last = order
        # monomials key every dict of the reduction; hashing a tuple of
        # tuples walks it on every lookup, so hash once
        vars(self).update(exps=exps, _hash=hash(exps))

    # the base class's field-by-field comparison made deriving C_12 a quarter slower
    def __eq__(self, other):
        return self.exps == other.exps if other.__class__ is DerivMonomial else NotImplemented

    def __hash__(self) -> int:
        return self._hash

    @property
    def degree(self) -> int:
        """Total degree K = sum of exponents (the implied denominator is f^(K-1))."""
        return sum(k for _, k in self.exps)

    @property
    def weight(self) -> int:
        """The grading sum(order * exponent); invariant under IBP rewriting."""
        return sum(m * k for m, k in self.exps)

    @property
    def max_order(self) -> int:
        """Largest derivative order present, 0 for the bare density."""
        return self.exps[-1][0] if self.exps else 0

    def as_dict(self) -> Dict[int, int]:
        return dict(self.exps)

    def is_empty(self) -> bool:
        return not self.exps

    def sort_key(self) -> Tuple[int, int, Tuple[Tuple[int, int], ...]]:
        # Display/processing order: highest derivative order first, then
        # lower total degree, then the exponent map itself.
        return (-self.max_order, self.degree, self.exps)

    def numerator_str(self) -> str:
        if not self.exps:
            return "f"
        return " ".join(f"f{m}^{k}" if k > 1 else f"f{m}" for m, k in self.exps)

    def __str__(self) -> str:
        denom = self.degree - 1
        if denom <= 0:
            return self.numerator_str()
        return f"{self.numerator_str()}/f^{denom}"


def monomial(exponents: Mapping[int, int]) -> DerivMonomial:
    """Build a monomial from an order -> exponent mapping (zeros dropped)."""
    return DerivMonomial(tuple(sorted((m, k) for m, k in exponents.items() if k)))


def make_monomial(orders: Iterable[int]) -> DerivMonomial:
    """Build a monomial from a multiset of derivative orders.

    ``make_monomial([1, 1, 2])`` is ``f1^2 f2 / f^2``; the empty multiset
    gives the bare density ``f``.  Orders must be positive.
    """
    counts: Dict[int, int] = {}
    for m in orders:
        if m <= 0:
            raise ValueError(f"derivative orders must be >= 1, got {m}")
        counts[m] = counts.get(m, 0) + 1
    return monomial(counts)


def weight(mono: DerivMonomial) -> int:
    return mono.weight


def parse_monomial(text: str) -> DerivMonomial:
    """Parse the textual form, e.g. ``"f1^4 f2/f^4"``, ``"f2 f3^2/f^2"``, ``"f"``.

    The denominator part is optional and, when present, is checked against
    the implied power K-1.
    """
    text = text.strip()
    num, _, den = text.partition("/")
    counts: Dict[int, int] = {}
    for token in num.split():
        if token == "f":
            if len(num.split()) > 1:
                raise ValueError(f"bare 'f' cannot be mixed with factors: {text!r}")
            break
        base, _, exp = token.partition("^")
        if not (base[:1] == "f" and base[1:].isdecimal() and (exp.isdecimal() or not exp)):
            raise ValueError(f"bad factor {token!r} in {text!r}")
        order = int(base[1:])
        k = int(exp) if exp else 1
        if k == 0:  # it would drop its factor silently
            raise ValueError(f"bad factor {token!r} in {text!r}")
        if order == 0:
            raise ValueError(f"f0 is not a valid factor in {text!r}")
        counts[order] = counts.get(order, 0) + k
    mono = monomial(counts)
    if den:
        den = den.strip()
        if not (den == "f" or den[:2] == "f^" and den[2:].isdecimal()):
            raise ValueError(f"bad denominator {den!r} in {text!r}")
        power = int(den[2:]) if den != "f" else 1
        if power != max(mono.degree - 1, 0):
            raise ValueError(
                f"denominator f^{power} does not match implied f^{mono.degree - 1} in {text!r}"
            )
    return mono


class Combination:
    """A finite linear combination of derivative monomials over Q.

    Behaves as an immutable value: arithmetic returns new objects, zero
    coefficients are never stored, and equality is exact.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[DerivMonomial, CoeffLike] | None = None):
        # a mapping's keys are distinct, so no two terms merge
        self._terms: Dict[DerivMonomial, Fraction] = {}
        for mono, coeff in (terms or {}).items():
            c = coeff if isinstance(coeff, Fraction) else Fraction(coeff)
            if c:
                self._terms[mono] = c

    @staticmethod
    def zero() -> "Combination":
        return Combination()

    @staticmethod
    def term(mono: DerivMonomial, coeff: CoeffLike = 1) -> "Combination":
        return Combination({mono: coeff})

    def items(self) -> Iterator[Tuple[DerivMonomial, Fraction]]:
        return iter(sorted(self._terms.items(), key=lambda kv: kv[0].sort_key()))

    def monomials(self) -> Tuple[DerivMonomial, ...]:
        return tuple(m for m, _ in self.items())

    def coefficient(self, mono: DerivMonomial) -> Fraction:
        return self._terms.get(mono, _ZERO)

    def is_zero(self) -> bool:
        return not self._terms

    def __len__(self) -> int:
        return len(self._terms)

    def weights(self) -> Tuple[int, ...]:
        return tuple(sorted({m.weight for m in self._terms}))

    def __add__(self, other: "Combination") -> "Combination":
        out = dict(self._terms)
        for mono, coeff in other._terms.items():
            s = out.get(mono, _ZERO) + coeff
            if s:
                out[mono] = s
            else:
                out.pop(mono, None)
        result = Combination.__new__(Combination)
        result._terms = out
        return result

    def __sub__(self, other: "Combination") -> "Combination":
        return self + (-other)

    def __neg__(self) -> "Combination":
        result = Combination.__new__(Combination)
        result._terms = {m: -c for m, c in self._terms.items()}
        return result

    def scaled(self, factor: CoeffLike) -> "Combination":
        c = Fraction(factor)
        result = Combination.__new__(Combination)
        result._terms = {} if not c else {m: c * v for m, v in self._terms.items()}
        return result

    def __rmul__(self, factor: CoeffLike) -> "Combination":
        return self.scaled(factor)

    def __mul__(self, factor: CoeffLike) -> "Combination":
        return self.scaled(factor)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Combination):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        return hash(frozenset(self._terms.items()))

    def map_monomials(self, fn) -> "Combination":
        """Apply ``fn``, a monomial's image as a dict of exact terms, linearly to every term."""
        out: Dict[DerivMonomial, Fraction] = {}
        for mono, coeff in self._terms.items():
            for image, c in fn(mono).items():
                out[image] = out.get(image, _ZERO) + coeff * c
                if not out[image]:
                    del out[image]
        result = Combination.__new__(Combination)
        result._terms = out
        return result

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        parts = []
        for i, (mono, coeff) in enumerate(self.items()):
            mag = abs(coeff)
            body = str(mono) if mag == 1 else f"{mag} {mono}"
            if i == 0:
                parts.append(body if coeff > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if coeff > 0 else f"- {body}")
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"Combination({self!s})"

    def to_lines(self) -> str:
        """One ``coeff * monomial`` term per line, in canonical term order."""
        return "\n".join(f"{coeff} * {mono}" for mono, coeff in self.items())


def combination(terms: Mapping[DerivMonomial, CoeffLike]) -> Combination:
    return Combination(terms)


def _derive(mono: DerivMonomial, step: int, unit: Fraction) -> Dict[DerivMonomial, Fraction]:
    """The terms of ``unit`` times the derivation with f_m -> f_{m+step} on every factor.

    The product rule bumps each factor of the numerator, and the implied
    denominator f^(K-1) adds a factor f_step with weight -(K-1).  No two
    terms share a monomial.  The spatial derivative is ``(1, 1)``; the
    heat flow, ``f_t = f_yy/2``, is ``(2, 1/2)``.
    """
    exps = mono.as_dict()
    K = mono.degree
    terms: Dict[DerivMonomial, Fraction] = {}
    for m, k in exps.items():
        bumped = dict(exps)
        bumped[m] -= 1  # monomial() drops a zero exponent
        bumped[m + step] = bumped.get(m + step, 0) + 1
        terms[monomial(bumped)] = k * unit
    if K != 1:
        extra = dict(exps)
        extra[step] = extra.get(step, 0) + 1
        terms[monomial(extra)] = -(K - 1) * unit
    return terms


def _derivation(c: Combination | DerivMonomial, step: int, unit: Fraction) -> Combination:
    if isinstance(c, DerivMonomial):
        c = Combination.term(c)
    return c.map_monomials(lambda mono: _derive(mono, step, unit))


def d_dy(c: Combination | DerivMonomial) -> Combination:
    """Spatial derivative; raises every term's weight by exactly one."""
    return _derivation(c, 1, Fraction(1))


def d_dt(c: Combination | DerivMonomial) -> Combination:
    """Heat-flow time derivative (f_t = f_yy/2); raises weight by two."""
    return _derivation(c, 2, Fraction(1, 2))
