"""Exact algebra of derivative monomials.

A derivative monomial is a product of spatial density derivatives over a
density power,

    prod_m f_m^{k_m} / f^{K-1},        K = sum_m k_m,

where ``f_m`` is the m-th derivative (in y) of a smooth positive density
``f(y, t)`` and the empty product denotes ``f`` itself.  Linear
combinations of such monomials with exact rational coefficients are the
integrands that appear when differentiating the entropy of ``X + sqrt(t) Z``
in t, so the module provides the two derivations that generate them:

* ``d_dy`` -- the spatial derivative (quotient/product rule), and
* ``d_dt`` -- the time derivative under the heat flow, using
  ``f_t = f_yy / 2`` so every factor ``f_m`` turns into ``f_{m+2} / 2``.

All coefficients are ``fractions.Fraction``; nothing here ever rounds.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterable, Iterator, Mapping, Tuple, Union

CoeffLike = Union[int, Fraction]

# the default of every coefficient lookup; a fresh Fraction(0) per lookup
# was a tenth of the time of deriving C_12
_ZERO = Fraction(0)


@dataclass(frozen=True)
class DerivMonomial:
    """One term ``prod_m f_m^{k_m} / f^{K-1}``.

    ``exps`` is a tuple of (order, exponent) pairs, strictly increasing in
    order; both entries are positive.  The denominator power is implied by
    the total degree, so two monomials are equal iff their exponent maps
    are equal.  The empty tuple is the density ``f``.
    """

    exps: Tuple[Tuple[int, int], ...] = ()

    def __post_init__(self) -> None:
        last = 0
        for order, k in self.exps:
            if order <= 0 or k <= 0:
                raise ValueError(f"orders and exponents must be >= 1, got f_{order}^{k}")
            if order <= last:
                raise ValueError("exponent pairs must be strictly increasing in order")
            last = order
        # monomials key every dict of the reduction; hashing a tuple of
        # tuples walks it on every lookup, so hash once
        object.__setattr__(self, "_hash", hash(self.exps))

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

    def exponent(self, order: int) -> int:
        for m, k in self.exps:
            if m == order:
                return k
        return 0

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
        if not base.startswith("f") or not base[1:].isdigit():
            raise ValueError(f"bad factor {token!r} in {text!r}")
        order = int(base[1:])
        k = int(exp) if exp else 1
        if order == 0:
            raise ValueError(f"f0 is not a valid factor in {text!r}")
        counts[order] = counts.get(order, 0) + k
    mono = monomial(counts)
    if den:
        den = den.strip()
        if not den.startswith("f"):
            raise ValueError(f"bad denominator {den!r} in {text!r}")
        power = int(den[2:]) if den.startswith("f^") else 1
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
        clean: Dict[DerivMonomial, Fraction] = {}
        if terms:
            for mono, coeff in terms.items():
                c = coeff if isinstance(coeff, Fraction) else Fraction(coeff)
                if c:
                    clean[mono] = clean.get(mono, _ZERO) + c
                    if not clean[mono]:
                        del clean[mono]
        self._terms = clean

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

    def max_order(self) -> int:
        return max((m.max_order for m in self._terms), default=0)

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
        """Apply ``fn: DerivMonomial -> Combination`` linearly to every term."""
        out: Dict[DerivMonomial, Fraction] = {}
        for mono, coeff in self._terms.items():
            for image, c in fn(mono)._terms.items():
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


def _replace_factor(exps: Dict[int, int], old: int, new: int) -> DerivMonomial:
    out = dict(exps)
    out[old] -= 1
    if not out[old]:
        del out[old]
    out[new] = out.get(new, 0) + 1
    return monomial(out)


def _d_dy_monomial(mono: DerivMonomial) -> Combination:
    exps = mono.as_dict()
    K = mono.degree
    terms: Dict[DerivMonomial, Fraction] = {}
    for m, k in exps.items():
        bumped = _replace_factor(exps, m, m + 1)
        terms[bumped] = terms.get(bumped, _ZERO) + k
    # quotient rule on the implied denominator f^(K-1): adds an f1 factor
    if K != 1:
        extra = dict(exps)
        extra[1] = extra.get(1, 0) + 1
        down = monomial(extra)
        terms[down] = terms.get(down, _ZERO) - (K - 1)
    return Combination(terms)


def _d_dt_monomial(mono: DerivMonomial) -> Combination:
    exps = mono.as_dict()
    K = mono.degree
    half = Fraction(1, 2)
    terms: Dict[DerivMonomial, Fraction] = {}
    for m, k in exps.items():
        bumped = _replace_factor(exps, m, m + 2)
        terms[bumped] = terms.get(bumped, _ZERO) + k * half
    if K != 1:
        extra = dict(exps)
        extra[2] = extra.get(2, 0) + 1
        down = monomial(extra)
        terms[down] = terms.get(down, _ZERO) - (K - 1) * half
    return Combination(terms)


def d_dy(c: Combination | DerivMonomial) -> Combination:
    """Spatial derivative; raises every term's weight by exactly one."""
    if isinstance(c, DerivMonomial):
        return _d_dy_monomial(c)
    return c.map_monomials(_d_dy_monomial)


def d_dt(c: Combination | DerivMonomial) -> Combination:
    """Heat-flow time derivative (f_t = f_yy/2); raises weight by two."""
    if isinstance(c, DerivMonomial):
        return _d_dt_monomial(c)
    return c.map_monomials(_d_dt_monomial)
