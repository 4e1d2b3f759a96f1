"""Sum-of-squares sign certificates for the entropy derivatives.

The sign of ``2 d^n h / dt^n`` is certified by exhibiting its canonical
integrand (up to sign) as an integral of

    f * (sum of squared linear forms over the partition basis)
    + a remainder with manifestly nonnegative terms.

The partition basis at order n has one element per integer partition of n:
partition (l_1, ..., l_r) contributes the ratio product
``f_{l_1} ... f_{l_r} / f^r``, so ``f * (basis element)^2`` expands into
ordinary weight-2n derivative monomials, and verification is exact
rational arithmetic after IBP reduction.

Built-in certificates are provided for orders 2, 3 and 4 (families with
free rational parameters at orders 2 and 3), plus a numeric search that
tries to discover certificates for higher orders and only ever returns
one after exact re-verification.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .reduction import entropy_derivative, is_canonical, reduce
from .terms import (
    Combination,
    CoeffLike,
    DerivMonomial,
    make_monomial,
    monomial,
    parse_monomial,
)


def partitions(n: int) -> List[Tuple[int, ...]]:
    """Integer partitions of n as descending tuples, largest-part-first order."""
    if n < 0:
        raise ValueError("n must be >= 0")
    result: List[Tuple[int, ...]] = []

    def extend(prefix: Tuple[int, ...], remaining: int, cap: int) -> None:
        if remaining == 0:
            result.append(prefix)
            return
        for part in range(min(cap, remaining), 0, -1):
            extend(prefix + (part,), remaining - part, part)

    extend((), n, n)
    return sorted(result, reverse=True)


def square_basis(n: int) -> List[DerivMonomial]:
    """The partition basis at order n, e.g. n=3 -> [f3/f, f1 f2/f^2, f1^3/f^3].

    Each element is stored as the weight-n monomial of its partition; in a
    square context it stands for the ratio with one extra density power in
    the denominator, which ``expand_square`` accounts for.
    """
    if n < 1:
        raise ValueError("order must be >= 1")
    return [make_monomial(p) for p in partitions(n)]


@dataclass(frozen=True)
class SquareForm:
    """A linear form over the partition basis, denoting f * (form)^2."""

    order: int
    coeffs: Tuple[Tuple[DerivMonomial, Fraction], ...]

    @staticmethod
    def from_vector(n: int, values: Sequence[CoeffLike]) -> "SquareForm":
        basis = square_basis(n)
        if len(values) != len(basis):
            raise ValueError(f"expected {len(basis)} coefficients for order {n}")
        pairs = tuple(
            (b, Fraction(v)) for b, v in zip(basis, values) if Fraction(v)
        )
        return SquareForm(n, pairs)

    def vector(self) -> List[Fraction]:
        lookup = dict(self.coeffs)
        return [lookup.get(b, Fraction(0)) for b in square_basis(self.order)]

    def __post_init__(self):
        for mono, _ in self.coeffs:
            if mono.weight != self.order:
                raise ValueError(
                    f"basis monomial {mono} has weight {mono.weight}, expected {self.order}"
                )


def _merged(a: DerivMonomial, b: DerivMonomial) -> DerivMonomial:
    """f times the product of two partition-basis ratios: the merged partition."""
    merged = a.as_dict()
    for m, k in b.exps:
        merged[m] = merged.get(m, 0) + k
    return monomial(merged)


def expand_square(square: SquareForm) -> Combination:
    """Expand f * (sum c_i B_i)^2 into canonical weight-2n monomials.

    The product of two partition-basis ratios times f is the derivative
    monomial of the merged partition, so the expansion is a quadratic form
    over merged partitions, then one exact IBP reduction.
    """
    raw: Dict[DerivMonomial, Fraction] = {}
    pairs = list(square.coeffs)
    for (mono_a, ca), (mono_b, cb) in itertools.product(pairs, pairs):
        key = _merged(mono_a, mono_b)
        raw[key] = raw.get(key, Fraction(0)) + ca * cb
    return reduce(Combination(raw))


@dataclass(frozen=True)
class Certificate:
    """Signed square decomposition of the order-n entropy derivative.

    Denotes ``sign * (sum of squares + remainder) = C_n`` where C_n is the
    canonical integrand of ``2 d^n h/dt^n``; sign is +1 for odd n, -1 for
    even n.  The remainder must be pointwise nonnegative on its face:
    every exponent even and every coefficient >= 0.
    """

    order: int
    squares: Tuple[SquareForm, ...]
    remainder: Combination
    sign: int

    def validate(self) -> None:
        if self.sign != (-1) ** (self.order + 1):
            raise ValueError(f"sign must be {(-1) ** (self.order + 1)} for order {self.order}")
        for sq in self.squares:
            if sq.order != self.order:
                raise ValueError("square order mismatch")
        for mono, coeff in self.remainder.items():
            if coeff < 0:
                raise ValueError(f"remainder coefficient of {mono} is negative")
            if any(k % 2 for _, k in mono.exps):
                raise ValueError(f"remainder monomial {mono} has an odd exponent")
            if mono.weight != 2 * self.order:
                raise ValueError(f"remainder monomial {mono} has wrong weight")


def verify_certificate(cert: Certificate) -> Tuple[bool, Combination]:
    """Exact check; returns (ok, residual) with residual zero iff ok."""
    cert.validate()
    total = Combination.zero()
    for sq in cert.squares:
        total = total + expand_square(sq)
    total = total + reduce(cert.remainder)
    residual = total.scaled(cert.sign) - entropy_derivative(cert.order)
    return residual.is_zero(), residual


# ---------------------------------------------------------------------------
# Built-in certificates and parameter families
# ---------------------------------------------------------------------------


def order2_family(alpha: CoeffLike, beta: CoeffLike, gamma: CoeffLike) -> Certificate:
    """Certificate family for the (nonpositive) second derivative.

    2 h'' = -integral of f(alpha f2/f + beta f1^2/f^2)^2
            + f(gamma f1^2/f^2)^2 + (1 - alpha^2) f2^2/f
            + (-beta^2 - gamma^2 - 4 alpha beta/3 - 1/3) f1^4/f^3.

    The identity holds for every rational triple; it is a valid sign
    certificate exactly when both remainder coefficients are nonnegative.
    """
    a, b, g = Fraction(alpha), Fraction(beta), Fraction(gamma)
    squares = (
        SquareForm.from_vector(2, [a, b]),
        SquareForm.from_vector(2, [0, g]),
    )
    remainder = Combination(
        {
            make_monomial([2, 2]): 1 - a * a,
            make_monomial([1, 1, 1, 1]): -b * b - g * g - Fraction(4, 3) * a * b - Fraction(1, 3),
        }
    )
    return Certificate(2, squares, remainder, -1)


def check_order2_family(alpha: CoeffLike, beta: CoeffLike, gamma: CoeffLike) -> bool:
    """True iff (alpha, beta, gamma) gives nonnegative remainder coefficients."""
    a, b, g = Fraction(alpha), Fraction(beta), Fraction(gamma)
    return (
        1 - a * a >= 0
        and -b * b - g * g - Fraction(4, 3) * a * b - Fraction(1, 3) >= 0
    )


def order3_family(beta: CoeffLike) -> Certificate:
    """One-parameter certificate family for the (nonnegative) third derivative.

    2 h''' = integral of f(f3/f - f1 f2/f^2 + beta f1^3/f^3)^2
             + (6 beta - 2) f1^2 f2^2/f^3
             + (6/5 - 16 beta/5 - beta^2) f1^6/f^5.
    """
    b = Fraction(beta)
    squares = (SquareForm.from_vector(3, [1, -1, b]),)
    remainder = Combination(
        {
            make_monomial([1, 1, 2, 2]): 6 * b - 2,
            make_monomial([1] * 6): Fraction(6, 5) - Fraction(16, 5) * b - b * b,
        }
    )
    return Certificate(3, squares, remainder, 1)


def order3_family_coefficients(beta: CoeffLike) -> Tuple[Fraction, Fraction]:
    b = Fraction(beta)
    return (6 * b - 2, Fraction(6, 5) - Fraction(16, 5) * b - b * b)


def check_order3_family(beta: CoeffLike) -> Tuple[bool, Tuple[Fraction, Fraction]]:
    """Feasibility of the one-parameter family, with its remainder coefficients.

    beta = 1/3 collapses the remainder to (0, 1/45), the minimal built-in
    certificate for order 3.
    """
    coeffs = order3_family_coefficients(beta)
    return coeffs[0] >= 0 and coeffs[1] >= 0, coeffs


@dataclass(frozen=True)
class SqrtExtValue:
    """Exact element a + b*sqrt(d) of a real quadratic extension of Q."""

    a: Fraction
    b: Fraction
    d: int

    def __add__(self, other: "SqrtExtValue") -> "SqrtExtValue":
        self._check(other)
        return SqrtExtValue(self.a + other.a, self.b + other.b, self.d)

    def __sub__(self, other: "SqrtExtValue") -> "SqrtExtValue":
        self._check(other)
        return SqrtExtValue(self.a - other.a, self.b - other.b, self.d)

    def __mul__(self, other: "SqrtExtValue") -> "SqrtExtValue":
        self._check(other)
        return SqrtExtValue(
            self.a * other.a + self.d * self.b * other.b,
            self.a * other.b + self.b * other.a,
            self.d,
        )

    def _check(self, other: "SqrtExtValue") -> None:
        if self.d != other.d:
            raise ValueError("mixed radicands")

    def is_zero(self) -> bool:
        return not self.a and not self.b

    @staticmethod
    def rational(value: CoeffLike, d: int) -> "SqrtExtValue":
        return SqrtExtValue(Fraction(value), Fraction(0), d)

    def __float__(self) -> float:
        return float(self.a) + float(self.b) * float(self.d) ** 0.5


def order3_family_upper_endpoint() -> SqrtExtValue:
    """The largest feasible beta, (-8 + sqrt(94)) / 5, verified symbolically.

    Returns the exact value after checking it is a root of
    6/5 - 16 b/5 - b^2 and that the linear coefficient 6 b - 2 is positive
    there.
    """
    beta = SqrtExtValue(Fraction(-8, 5), Fraction(1, 5), 94)
    residual = (
        SqrtExtValue.rational(Fraction(6, 5), 94)
        - SqrtExtValue.rational(Fraction(16, 5), 94) * beta
        - beta * beta
    )
    if not residual.is_zero():
        raise AssertionError("endpoint does not solve the quadratic")
    linear = SqrtExtValue.rational(6, 94) * beta - SqrtExtValue.rational(2, 94)
    if float(linear) <= 0:
        raise AssertionError("endpoint violates the linear constraint")
    return beta


def order3_certificate() -> Certificate:
    """The minimal order-3 certificate: square (1, -1, 1/3), remainder f1^6/(45 f^5)."""
    return order3_family(Fraction(1, 3))


def order4_certificate() -> Certificate:
    """The built-in order-4 certificate (three ladder squares plus remainder)."""
    squares = (
        SquareForm.from_vector(
            4,
            [1, Fraction(-6, 5), Fraction(-7, 10), Fraction(8, 5), Fraction(-1, 2)],
        ),
        SquareForm.from_vector(
            4, [0, Fraction(2, 5), 0, Fraction(-1, 3), Fraction(9, 100)]
        ),
        SquareForm.from_vector(4, [0, 0, 0, Fraction(-4, 100), Fraction(4, 100)]),
    )
    remainder = Combination(
        {
            make_monomial([2] * 4): Fraction(1, 300),
            make_monomial([1, 1, 1, 1, 2, 2]): Fraction(56, 90000),
            make_monomial([1] * 8): Fraction(13, 70000),
        }
    )
    return Certificate(4, squares, remainder, -1)


def builtin_certificate(n: int) -> Certificate:
    if n == 2:
        return order2_family(1, -1, 0)
    if n == 3:
        return order3_certificate()
    if n == 4:
        return order4_certificate()
    raise ValueError(f"no built-in certificate for order {n}")


# ---------------------------------------------------------------------------
# Canonical coordinates and numeric certificate search
# ---------------------------------------------------------------------------


def canonical_basis(weight: int) -> List[DerivMonomial]:
    """All canonical monomials of a given weight, in display order."""
    basis = []
    for p in partitions(weight):
        mono = make_monomial(p)
        if not is_canonical(mono):
            continue
        basis.append(mono)
    return sorted(basis, key=lambda m: m.sort_key())


def _coeff_vector(c: Combination, basis: Sequence[DerivMonomial]) -> List[Fraction]:
    index = {m: i for i, m in enumerate(basis)}
    out = [Fraction(0)] * len(basis)
    for mono, coeff in c.items():
        if mono not in index:
            raise ValueError(f"{mono} is outside the canonical basis")
        out[index[mono]] = coeff
    return out


# A candidate is snapped only when its max residual is below _SNAP_TOL; each
# coefficient then becomes the simplest rational within _SNAP_TOL of it.
_SNAP_TOL = 1e-6
_MAX_DENOMINATOR = 10**6


@dataclass
class SearchConfig:
    """Knobs for the numeric certificate search."""

    starts: int = 64
    seed: int = 0
    seed_builtin: bool = True


@dataclass
class SearchOutcome:
    """Search report; ``certificate`` is set only after exact verification."""

    order: int
    certificate: Optional[Certificate]
    best_residual: float
    starts: int
    best_squares: List[List[float]] = field(default_factory=list)


def _gram_tensor(n: int, basis: Sequence[DerivMonomial]) -> np.ndarray:
    """The map A from Gram matrices to canonical coordinates, shape (p, p, K).

    ``P[a, b]`` is reduce(f B_a B_b) over ``basis`` for partition-basis
    elements B_a, B_b, so the squares f (F[j] . B)^2 sum to
    ``tensordot(F.T @ F, P, axes=2)``.  P is symmetric in its first two axes.
    """
    pb = square_basis(n)
    tensor = np.zeros((len(pb), len(pb), len(basis)))
    for i in range(len(pb)):
        for j in range(i, len(pb)):
            reduced = reduce(Combination.term(_merged(pb[i], pb[j])))
            tensor[i, j] = tensor[j, i] = [float(c) for c in _coeff_vector(reduced, basis)]
    return tensor


def _simplest_fraction(x: float) -> Fraction:
    """Smallest-denominator rational within _SNAP_TOL of x (continued fractions)."""
    best = Fraction(x).limit_denominator(_MAX_DENOMINATOR)
    d = 1
    while d <= _MAX_DENOMINATOR:
        cand = Fraction(x).limit_denominator(d)
        if abs(float(cand) - x) <= _SNAP_TOL:
            return cand
        d *= 10
    return best


class GramSystem:
    """The search's residual and its exact Jacobian at order n.

    The unknowns x are the upper triangle of a factor F (row-major, row j
    holds square j's coefficients over the partition basis) followed by the
    remainder roots u, one per even-exponent canonical slot.  The residual
    is ``tensordot(F^T F, P) + E u^2 - sign C_n`` with P the Gram tensor and
    E the remainder slots, so its Jacobian is exact: with respect to F[a, b]
    it is ``2 sum_j F[a, j] P[b, j, :]`` (P is symmetric in its first two
    axes), and with respect to u_s it is ``2 u_s`` at slot s.
    """

    def __init__(self, n: int):
        self.basis = tuple(canonical_basis(2 * n))
        self.gram = _gram_tensor(n, self.basis)
        target = _coeff_vector(entropy_derivative(n).scaled((-1) ** (n + 1)), self.basis)
        self.target = np.array([float(c) for c in target])
        self.remainder_slots = [
            i for i, m in enumerate(self.basis) if not any(k % 2 for _, k in m.exps)
        ]
        p = self.gram.shape[0]
        self.triu = np.triu_indices(p)
        self.n_factor = len(self.triu[0])
        self.size = self.n_factor + len(self.remainder_slots)

    def factor(self, x: np.ndarray) -> np.ndarray:
        p = self.gram.shape[0]
        full = np.zeros((p, p))
        full[self.triu] = x[: self.n_factor]
        return full

    def residual(self, x: np.ndarray) -> np.ndarray:
        full = self.factor(x)
        acc = np.tensordot(full.T @ full, self.gram, axes=2)
        acc[self.remainder_slots] += x[self.n_factor :] ** 2
        return acc - self.target

    def jacobian(self, x: np.ndarray) -> np.ndarray:
        p, _, k = self.gram.shape
        n_sq = self.n_factor
        # d_factor[a, b, :] = 2 sum_j F[a, j] P[j, b, :], one matrix product
        d_factor = 2.0 * (self.factor(x) @ self.gram.reshape(p, p * k)).reshape(p, p, k)
        jac = np.zeros((k, len(x)))
        jac[:, :n_sq] = d_factor[self.triu].T
        jac[self.remainder_slots, np.arange(n_sq, len(x))] = 2.0 * x[n_sq:]
        return jac


def search_certificate(n: int, config: SearchConfig | None = None) -> SearchOutcome:
    """Multi-start least-squares search for an order-n certificate.

    The unknowns are an upper-triangular factor F (row j is square j's
    coefficient vector, using basis positions j onward) and remainder roots
    u, so the Gram matrix Q = F^T F is PSD and the remainder u^2 is
    nonnegative by construction; ``GramSystem`` gives the residual
    A(Q) + E u^2 - sign C_n and its exact Jacobian.  The best numeric
    candidates are snapped to small rationals, the remainder is then
    re-derived exactly, and only a certificate that passes
    ``verify_certificate`` is returned.
    """
    from scipy.optimize import least_squares

    cfg = config or SearchConfig()
    if cfg.starts < 1:
        raise ValueError(f"starts must be >= 1, got {cfg.starts}")
    sign = (-1) ** (n + 1)
    system = GramSystem(n)
    pb_size = system.gram.shape[0]

    rng = np.random.default_rng(cfg.seed)
    seeds = []
    if cfg.seed_builtin and 2 <= n <= 4:
        builtin = builtin_certificate(n)
        full = np.zeros((pb_size, pb_size))
        for j, sq in enumerate(builtin.squares):
            full[j] = [float(v) for v in sq.vector()]
        rem_vec = _coeff_vector(builtin.remainder, system.basis)
        roots = [float(rem_vec[slot]) ** 0.5 for slot in system.remainder_slots]
        seeds.append(np.concatenate([full[system.triu], roots]))
    while len(seeds) < cfg.starts:
        seeds.append(rng.normal(scale=1.0, size=system.size))

    def polish(x0: np.ndarray):
        try:
            sol = least_squares(
                system.residual,
                x0,
                jac=system.jacobian,
                method="trf",
                max_nfev=4000,
                ftol=1e-14,
                xtol=1e-14,
            )
        except Exception:
            return None
        return float(np.max(np.abs(system.residual(sol.x)))), sol.x

    solved = [polish(x0) for x0 in seeds]
    candidates = sorted(
        ((norm, i, x) for i, item in enumerate(solved) if item for norm, x in [item]),
        key=lambda c: (c[0], c[1]),
    )

    best_norm = candidates[0][0] if candidates else np.inf
    best_x = candidates[0][2] if candidates else None
    for norm, _, x in candidates:
        if norm >= _SNAP_TOL:
            break
        # exact completion decides; a failed snap just means keep trying
        cert = _rationalize(n, sign, system.factor(x))
        if cert is not None:
            squares = [[float(v) for v in sq.vector()] for sq in cert.squares]
            return SearchOutcome(n, cert, norm, cfg.starts, squares)
    shaped = [] if best_x is None else system.factor(best_x).tolist()
    return SearchOutcome(n, None, best_norm, cfg.starts, shaped)


def _rationalize(n: int, sign: int, full: np.ndarray) -> Optional[Certificate]:
    """Snap the factor's rows to rationals and complete the remainder exactly."""
    vectors = [[_simplest_fraction(float(v)) for v in row] for row in full]
    squares = tuple(
        SquareForm.from_vector(n, vec) for vec in vectors if any(vec)
    )
    total = Combination.zero()
    for sq in squares:
        total = total + expand_square(sq)
    remainder = entropy_derivative(n).scaled(sign) - total
    for mono, coeff in remainder.items():
        if coeff < 0 or any(k % 2 for _, k in mono.exps):
            return None
    cert = Certificate(n, squares, remainder, sign)
    ok, _ = verify_certificate(cert)
    return cert if ok else None


# ---------------------------------------------------------------------------
# JSON serialization
# ---------------------------------------------------------------------------


def certificate_to_json(cert: Certificate) -> str:
    payload = {
        "order": cert.order,
        "sign": cert.sign,
        "squares": [
            [[mono.numerator_str(), str(coeff)] for mono, coeff in sq.coeffs]
            for sq in cert.squares
        ],
        "remainder": [[str(mono), str(coeff)] for mono, coeff in cert.remainder.items()],
    }
    return json.dumps(payload, indent=2)


def _json_terms(entries, where: str) -> List[Tuple[DerivMonomial, Fraction]]:
    """[[monomial, coefficient], ...] with string monomials and exact coefficients."""
    if not isinstance(entries, list):
        raise ValueError(
            f"certificate field {where}: expected a list of [monomial, coefficient] pairs"
        )
    terms = []
    for j, entry in enumerate(entries):
        if not (
            isinstance(entry, list)
            and len(entry) == 2
            and isinstance(entry[0], str)
            and isinstance(entry[1], (str, int, float))
            and not isinstance(entry[1], bool)
        ):
            raise ValueError(
                f"certificate field {where}[{j}]: expected a [monomial, coefficient] pair "
                "of a string and a string or number"
            )
        try:
            mono = parse_monomial(entry[0])
        except ValueError as exc:
            raise ValueError(f"certificate field {where}[{j}]: {exc}") from None
        try:
            coeff = Fraction(entry[1])
        except (ValueError, ZeroDivisionError, OverflowError):
            raise ValueError(
                f"certificate field {where}[{j}]: invalid coefficient {entry[1]!r}"
            ) from None
        terms.append((mono, coeff))
    return terms


def certificate_from_json(text: str) -> Certificate:
    """Parse ``certificate_to_json`` output; a ValueError names the bad field."""
    payload = json.loads(text)
    if not isinstance(payload, dict):
        raise ValueError("certificate JSON must be an object")
    for key in ("order", "sign", "squares", "remainder"):
        if key not in payload:
            raise ValueError(f"certificate field {key} is missing")
    for key in ("order", "sign"):
        if not isinstance(payload[key], int) or isinstance(payload[key], bool):
            raise ValueError(f"certificate field {key}: expected an integer")
    order = payload["order"]
    if not isinstance(payload["squares"], list):
        raise ValueError("certificate field squares: expected a list")
    squares = tuple(
        SquareForm(order, tuple(_json_terms(entries, f"squares[{i}]")))
        for i, entries in enumerate(payload["squares"])
    )
    remainder = Combination(dict(_json_terms(payload["remainder"], "remainder")))
    return Certificate(order, squares, remainder, payload["sign"])
