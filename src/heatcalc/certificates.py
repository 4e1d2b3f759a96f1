"""Sum-of-squares sign certificates for the entropy derivatives.

The sign of ``2 d^n h / dt^n`` is certified by exhibiting its canonical
integrand (up to sign) as an integral of

    f * (sum of weighted squared linear forms over the partition basis)
    + a remainder with manifestly nonnegative terms.

The partition basis at order n has one element per integer partition of n:
partition (l_1, ..., l_r) contributes the ratio product
``f_{l_1} ... f_{l_r} / f^r``, so ``f * (basis element)^2`` expands into
ordinary weight-2n derivative monomials, and verification is exact
rational arithmetic after IBP reduction.

Built-in certificates are provided for orders 2, 3 and 4 (families with
free rational parameters at orders 2 and 3).  ``search_certificate`` solves
one convex Gram problem and ends in an exactly verified certificate (orders
2-4) or an exact Farkas witness that none exists (orders 5 and 6).
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import TYPE_CHECKING, Dict, List, NamedTuple, Optional, Sequence, Tuple

from .records import FrozenRecord
from .reduction import entropy_derivative, is_canonical, reduce
from .terms import (
    Combination,
    CoeffLike,
    DerivMonomial,
    make_monomial,
    monomial,
    parse_monomial,
)

# numpy is imported by the search alone; verification and the JSON code run
# on Fraction, so ``certify`` without ``--search`` starts without it.
if TYPE_CHECKING:
    import numpy as np


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


class SquareForm(FrozenRecord):
    """A linear form over the partition basis, denoting weight * f * (form)^2.

    The exact weight >= 0 carries an LDL^T pivot, rarely a rational square.
    """

    order: int
    coeffs: Tuple[Tuple[DerivMonomial, Fraction], ...]
    weight: Fraction = Fraction(1)

    @staticmethod
    def from_vector(n: int, values: Sequence[CoeffLike], weight: CoeffLike = 1) -> "SquareForm":
        basis = square_basis(n)
        if len(values) != len(basis):
            raise ValueError(f"expected {len(basis)} coefficients for order {n}")
        pairs = tuple(
            (b, Fraction(v)) for b, v in zip(basis, values) if Fraction(v)
        )
        return SquareForm(n, pairs, Fraction(weight))

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
    """Expand weight * f * (sum c_i B_i)^2 into canonical weight-2n monomials.

    The product of two partition-basis ratios times f is the derivative
    monomial of the merged partition, so the expansion is a quadratic form
    over merged partitions, then one exact IBP reduction.
    """
    raw: Dict[DerivMonomial, Fraction] = {}
    pairs = list(square.coeffs)
    for (mono_a, ca), (mono_b, cb) in itertools.product(pairs, pairs):
        key = _merged(mono_a, mono_b)
        raw[key] = raw.get(key, Fraction(0)) + square.weight * ca * cb
    return reduce(Combination(raw))


class Certificate(NamedTuple):
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
        for i, sq in enumerate(self.squares):
            if sq.order != self.order:
                raise ValueError("square order mismatch")
            if sq.weight < 0:
                raise ValueError(f"square {i} has negative weight {sq.weight}")
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
    return all(c >= 0 for _, c in order2_family(alpha, beta, gamma).remainder.items())


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
    remainder = order3_family(beta).remainder
    return tuple(remainder.coefficient(make_monomial(m)) for m in ([1, 1, 2, 2], [1] * 6))


def check_order3_family(beta: CoeffLike) -> Tuple[bool, Tuple[Fraction, Fraction]]:
    """Feasibility of the one-parameter family, with its remainder coefficients.

    beta = 1/3 collapses the remainder to (0, 1/45), the minimal built-in
    certificate for order 3.
    """
    coeffs = order3_family_coefficients(beta)
    return coeffs[0] >= 0 and coeffs[1] >= 0, coeffs


class SqrtExtValue(NamedTuple):
    """The exact number a + b*sqrt(d), for an integer d > 0 that is not a square."""

    a: Fraction
    b: Fraction
    d: int

    def __float__(self) -> float:
        return float(self.a) + float(self.b) * float(self.d) ** 0.5


def order3_family_upper_endpoint() -> SqrtExtValue:
    """The largest feasible beta, (-8 + sqrt(94)) / 5, verified exactly.

    For beta = a + b sqrt(d), the quadratic 6/5 - 16 beta/5 - beta^2 is
    (6/5 - 16a/5 - a^2 - d b^2) + (-16b/5 - 2ab) sqrt(d), zero when both
    parts are; the linear coefficient 6 beta - 2 = (6a - 2) + 6b sqrt(d)
    is positive when b > 0 and (6b)^2 d > (6a - 2)^2.
    """
    a, b, d = Fraction(-8, 5), Fraction(1, 5), 94
    rational_part = Fraction(6, 5) - Fraction(16, 5) * a - a * a - d * b * b
    sqrt_part = -Fraction(16, 5) * b - 2 * a * b
    if rational_part or sqrt_part:
        raise AssertionError("endpoint does not solve the quadratic")
    if not (b > 0 and (6 * b) ** 2 * d > (6 * a - 2) ** 2):
        raise AssertionError("endpoint violates the linear constraint")
    return SqrtExtValue(a, b, d)


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


class SearchOutcome(NamedTuple):
    """Search report; ``certificate`` and ``witness`` are set only after exact checks.

    ``best_residual`` is max |A(Q) - sign C_n| at the final float Q; ``margin`` is its
    t, the phase-I optimum t* to within ``_GAP``.  If the central path broke down in
    float arithmetic, ``breakdown`` is its barrier weight mu there, ``margin`` its t,
    and ``best_residual`` nan.
    """

    order: int
    certificate: Optional[Certificate]
    best_residual: float
    margin: float
    witness: Optional[Tuple[Fraction, ...]] = None
    breakdown: Optional[float] = None


def _gram_problem(n: int):
    """The canonical basis, the exact map A and the target sign * C_n at order n.

    A's entry [a][b] is reduce(f B_a B_b) over the basis for partition-basis
    elements B_a, B_b, so A(Q) = sum_ab Q[a][b] [a][b]; as a float (p, p, K)
    array P that is ``tensordot(Q, P, axes=2)``.
    """
    basis = canonical_basis(2 * n)
    pb = square_basis(n)
    gram: List[List[List[Fraction]]] = [[[] for _ in pb] for _ in pb]
    for i in range(len(pb)):
        for j in range(i, len(pb)):
            reduced = reduce(Combination.term(_merged(pb[i], pb[j])))
            gram[i][j] = gram[j][i] = _coeff_vector(reduced, basis)
    target = _coeff_vector(entropy_derivative(n).scaled((-1) ** (n + 1)), basis)
    return basis, gram, target


# Phase I runs the barrier weight mu from _MU_START down by _MU_SHRINK per
# centring until the duality gap p * mu is below _GAP; a centring takes at
# most _NEWTON_CAP damped Newton steps and ends at Newton decrement
# _CENTRED.  Float Gram matrices and dual points are rounded to multiples
# of 1/_DENOMINATOR for the exact checks.
_MU_START = 1.0
_MU_SHRINK = 0.2
_GAP = 1e-10
_NEWTON_CAP = 100
_CENTRED = 1e-7
_DENOMINATOR = 10**6
# The highest order whose search stays near 2 GB.  With p = len(partitions(n)),
# K = len(canonical_basis(2 n)) and d = p (p + 1) / 2 - K + 1 directions,
# _central_path holds units, null and dirs, the two (d, p, p) products and
# the (d, d) normal matrix at once: 2.1 GB at order 13 (d = 4,674), 6.9 GB
# at order 14 (d = 8,473) and 20 GB at order 15 (d = 14,538).
SEARCH_MAX_ORDER = 13


def _central_path(gram: np.ndarray, target: np.ndarray):
    """Phase I: maximise t subject to Q - tI >= 0 and A(Q) = target (A of full row rank).

    For each barrier weight mu, damped Newton steps minimise -t/mu - log det(Q - tI)
    over Q = Q0 + sum_i z_i N_i and t, and (mu, t, Q) is yielded.  At the centre
    Y = mu (Q - tI)^-1 = A*(y) is dual feasible, and y . target = t + p mu >= t*.
    Where Q - tI or the Newton system is not numerically positive definite,
    the path breaks down: it yields (mu, t, None) there and stops.
    """
    import numpy as np

    p, _, k = gram.shape
    rows, cols = np.triu_indices(p)
    units = np.zeros((len(rows), p, p))  # a basis of the symmetric matrices
    units[np.arange(len(rows)), rows, cols] = units[np.arange(len(rows)), cols, rows] = 1.0
    amat = np.tensordot(units, gram, axes=2).T
    base = np.tensordot(np.linalg.lstsq(amat, target, rcond=None)[0], units, axes=1)
    null = np.tensordot(np.linalg.svd(amat)[2][k:], units, axes=1)
    dirs = np.concatenate([null, -np.eye(p)[None]])  # the last one moves t
    x = np.zeros(len(dirs))
    x[-1] = np.linalg.eigvalsh(base)[0] - 1.0
    mu = _MU_START
    while p * mu > _GAP:
        for _ in range(_NEWTON_CAP):
            try:
                inv = np.linalg.inv(np.linalg.cholesky(base + np.tensordot(x, dirs, axes=1)))
                scaled = (inv @ dirs @ inv.T).reshape(len(dirs), -1)
                grad = -scaled[:, :: p + 1].sum(axis=1)  # -trace((Q - tI)^-1 dir_i)
                grad[-1] -= 1.0 / mu
                step = -np.linalg.solve(scaled @ scaled.T, grad)
                squared = float(-grad @ step)
            except np.linalg.LinAlgError:
                squared = np.nan
            if not squared >= 0.0:  # not numerically definite: the path breaks down
                yield mu, float(x[-1]), None
                return
            decrement = float(np.sqrt(squared))
            x += step / (1.0 + decrement) if decrement > 0.25 else step
            if decrement < _CENTRED:
                break
        yield mu, float(x[-1]), base + np.tensordot(x[:-1], null, axes=1)
        mu *= _MU_SHRINK


def _rounded(value: float) -> Fraction:
    return Fraction(round(float(value) * _DENOMINATOR), _DENOMINATOR)


def _dot(u: Sequence[Fraction], v: Sequence[Fraction]) -> Fraction:
    return sum((a * b for a, b in zip(u, v)), Fraction(0))


def _ldl(matrix: Sequence[Sequence[Fraction]]):
    """Exact LDL^T of a symmetric rational matrix; None unless it is PSD.

    Returns (columns, pivots), matrix = sum_k pivots[k] columns[k] columns[k]^T,
    column k unit at k and zero above; a zero pivot needs a zero column.
    """
    a = [list(row) for row in matrix]
    p = len(a)
    columns, pivots = [], []
    for k in range(p):
        d = a[k][k]
        if d < 0 or (d == 0 and any(a[i][k] for i in range(k + 1, p))):
            return None
        col = [Fraction(0)] * k + [Fraction(1)] + [row[k] / d if d else 0 for row in a[k + 1 :]]
        for i in range(k + 1, p):
            for j in range(k + 1, p):
                a[i][j] -= col[i] * a[k][j]
        columns.append(col)
        pivots.append(d)
    return columns, pivots


def _exact_certificate(n: int, exact, target, gram_matrix: np.ndarray) -> Optional[Certificate]:
    """Round Q, project it exactly onto A(Q) = target, and read squares off its LDL^T."""
    p = len(exact)
    flat = [entry for row in exact for entry in row]  # A* of each coordinate, row-major
    amat = list(zip(*flat))
    q = [_rounded(v) for v in gram_matrix.ravel()]
    # the nearest point of the affine space is Q - A*(w), with A A*(w) = A(Q) - target
    w = [_dot(row, q) - c for row, c in zip(amat, target)]
    columns, pivots = _ldl([[_dot(r, u) for u in amat] for r in amat])  # A A* is definite
    for i, col in enumerate(columns):
        w[i + 1 :] = [wj - cj * w[i] for wj, cj in zip(w[i + 1 :], col[i + 1 :])]
    for i in reversed(range(len(w))):
        w[i] = w[i] / pivots[i] - _dot(columns[i][i + 1 :], w[i + 1 :])
    projected = [qi - _dot(w, entry) for qi, entry in zip(q, flat)]
    factored = _ldl([projected[a * p : (a + 1) * p] for a in range(p)])
    if factored is None:
        return None
    squares = tuple(SquareForm.from_vector(n, col, d) for col, d in zip(*factored) if d)
    cert = Certificate(n, squares, Combination.zero(), (-1) ** (n + 1))
    return cert if verify_certificate(cert)[0] else None


def verify_witness(n: int, witness: Sequence[CoeffLike]) -> bool:
    """Exact Farkas check of y over ``canonical_basis(2n)``: A*(y) >= 0, y . sign C_n < 0.

    It proves that no certificate exists at order n, because any Q >= 0 with
    A(Q) = sign C_n has y . sign C_n = <A*(y), Q> >= 0.
    """
    basis, exact, target = _gram_problem(n)
    if len(witness) != len(basis):
        raise ValueError(f"expected {len(basis)} witness coordinates for order {n}")
    return _is_witness(exact, target, [Fraction(v) for v in witness])


def _is_witness(exact, target, y: Sequence[Fraction]) -> bool:
    """y . target < 0 and A*(y) >= 0, exactly, for the Gram problem ``(exact, target)``."""
    return _dot(y, target) < 0 and _ldl([[_dot(y, e) for e in row] for row in exact]) is not None


def search_certificate(n: int) -> SearchOutcome:
    """Decide the order-n Gram problem: an exact certificate or an exact Farkas witness.

    A certificate is a Gram matrix Q >= 0 with A(Q) = sign C_n; the remainder
    needs no variable, since A maps the diagonal entry of an even-exponent
    slot's half partition to that slot alone.  If phase I ends with t > 0, Q
    is rounded, projected exactly onto the affine space (Peyrl & Parrilo) and
    split by exact LDL^T into weighted squares for ``verify_certificate``.
    From the first centred iterate with t + p mu < 0, the dual point y with
    A*(y) = mu (Q - tI)^-1 is rounded until one passes the exact Farkas check.
    A path that breaks down in float arithmetic ends the search there, with
    the witness found before it, if any.
    """
    import numpy as np

    _, exact, target = _gram_problem(n)
    gram, goal = np.array(exact, dtype=float), np.array(target, dtype=float)
    p = len(gram)
    witness = None
    for mu, t, q in _central_path(gram, goal):
        if q is None:
            return SearchOutcome(n, None, np.nan, t, witness, mu)
        if witness is None and t + p * mu < 0:
            dual = mu * np.linalg.inv(q - t * np.eye(p))
            y = np.linalg.lstsq(gram.reshape(p * p, -1), dual.ravel(), rcond=None)[0]
            candidate = tuple(_rounded(v) for v in y)
            witness = candidate if _is_witness(exact, target, candidate) else None
    cert = _exact_certificate(n, exact, target, q) if t > 0 else None
    residual = float(np.max(np.abs(np.tensordot(q, gram, axes=2) - goal)))
    return SearchOutcome(n, cert, residual, t, witness)


# ---------------------------------------------------------------------------
# JSON serialization
# ---------------------------------------------------------------------------


def certificate_to_json(cert: Certificate) -> str:
    """JSON text; the ``weights`` list is written only when some weight is not 1."""
    import json

    payload = {
        "order": cert.order,
        "sign": cert.sign,
        "squares": [
            [[mono.numerator_str(), str(coeff)] for mono, coeff in sq.coeffs]
            for sq in cert.squares
        ],
    }
    if any(sq.weight != 1 for sq in cert.squares):
        payload["weights"] = [str(sq.weight) for sq in cert.squares]
    payload["remainder"] = [[str(mono), str(coeff)] for mono, coeff in cert.remainder.items()]
    return json.dumps(payload, indent=2)


def _json_number(value, where: str, what: str) -> Fraction:
    """An exact JSON string or number; booleans are not numbers."""
    if not isinstance(value, (str, int, float)) or isinstance(value, bool):
        raise ValueError(f"certificate field {where}: expected a string or number")
    try:
        return Fraction(value)
    except (ValueError, ZeroDivisionError, OverflowError):
        raise ValueError(f"certificate field {where}: invalid {what} {value!r}") from None


def _json_terms(
    entries, where: str, weight: Optional[int] = None
) -> Dict[DerivMonomial, Fraction]:
    """[[monomial, coefficient], ...] with distinct string monomials and exact coefficients.

    Every monomial must have ``weight``, when one is given.
    """
    if not isinstance(entries, list):
        raise ValueError(
            f"certificate field {where}: expected a list of [monomial, coefficient] pairs"
        )
    terms: Dict[DerivMonomial, Fraction] = {}
    for j, entry in enumerate(entries):
        if not (
            isinstance(entry, list)
            and len(entry) == 2
            and isinstance(entry[0], str)
        ):
            raise ValueError(
                f"certificate field {where}[{j}]: expected a [monomial, coefficient] pair"
            )
        try:
            mono = parse_monomial(entry[0])
        except ValueError as exc:
            raise ValueError(f"certificate field {where}[{j}]: {exc}") from None
        if mono in terms:
            raise ValueError(f"certificate field {where}[{j}]: monomial {mono} is repeated")
        if weight is not None and mono.weight != weight:
            raise ValueError(
                f"certificate field {where}[{j}]: monomial {mono} has weight {mono.weight}, "
                f"expected {weight}"
            )
        terms[mono] = _json_number(entry[1], f"{where}[{j}]", "coefficient")
    return terms


def certificate_from_json(text: str) -> Certificate:
    """Parse ``certificate_to_json`` output; a ValueError names the bad field."""
    import json

    try:
        payload = json.loads(text)
    except RecursionError as exc:  # arrays or objects nested too deep
        raise ValueError(f"invalid JSON: {exc}") from None
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
    count = len(payload["squares"])
    weights = payload.get("weights", [1] * count)
    if not isinstance(weights, list) or len(weights) != count:
        raise ValueError(f"certificate field weights: expected a list of {count} weights")
    squares = []
    for i, (entries, value) in enumerate(zip(payload["squares"], weights)):
        weight = _json_number(value, f"weights[{i}]", "weight")
        if weight < 0:
            raise ValueError(f"certificate field weights[{i}]: weight {value!r} is negative")
        terms = _json_terms(entries, f"squares[{i}]", order)
        squares.append(SquareForm(order, tuple(terms.items()), weight))
    remainder = Combination(_json_terms(payload["remainder"], "remainder"))
    return Certificate(order, tuple(squares), remainder, payload["sign"])
