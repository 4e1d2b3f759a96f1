"""Numerical oracle: entropy, Fisher information, and conjecture scans.

Everything here evaluates closed-form Gaussian-mixture densities under
the heat flow, so the symbolic canonical forms can be cross-checked two
independent ways:

* ``functional_result`` integrates a derivative-monomial combination directly;
* ``fd_entropy_deriv`` integrates the Taylor jet of -f log f in t, from
  the heat equation f_t = f_yy/2 alone, never touching the symbolic
  calculus: f(y, t + e) = f (1 + G), G = sum_k e^k r_2k / (2^k k!) with
  r_m = f_m/f, so h^(n) = -int f (log f r_2n / 2^n + P_n) dy, with P_n
  exact in the ratios: the sum over partitions l of n into k >= 2 parts,
  m_j their multiplicities, of n! (-1)^k (k-2)! / (2^n prod l_i! prod m_j!)
  times r_2l_1 ... r_2l_k (``_jet_remainder``).  Order 0 is h itself.

Scans sweep a t-grid and record both routes together with the quantities
the sign conjectures speak about (log J and 1/J curvature, the entropy
power, the interpolation W_t = sqrt(t) X + sqrt(1-t) Z).  Every pass/fail
verdict follows one rule, ``_sign_status``: a check passes or fails only
when the value clears its own stated error by a factor of three and both
are finite; otherwise it is reported as inconclusive rather than asserted.
Errors are propagated from the integrals' own, never padded.

A scan refines its flow times in batches, each batch one bisection
forest: per flow time one tree on which the jet orders 0..max_order and
C_1..C_4 each accept their own panels; ``wt_checks`` reads these rows
at max_order 0, at s = 1/t - 1, and a forest sees the mixture in its
own frame (``_flow_forest``).  A row whose terms cancel carries a
magnitude row, f times the sum of its terms' absolute values, that sets
its roundoff floor.  Every density evaluation is one ``mixtures.map_flow``
call, one flow time per job, and ``_flow_rows`` turns each block of nodes
that it yields into those nodes' columns of the rows.  A
quantity whose tree stops short of the tolerance has no error bound, so
its quadrature reports an infinite error, which every error derived from
it, on the row or in a grid difference, inherits: each verdict that
rests on it is inconclusive.
"""

from __future__ import annotations

import math
import sys
import warnings
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from .mixtures import WINDOW_SIGMAS, GaussianMixture, map_flow
from .quadrature import DEFAULT_TOL, INITIAL_NODES, Forest, QuadResult, refine
from .reduction import entropy_derivative
from .terms import Combination, make_monomial, partitions

_EPS = sys.float_info.epsilon

# a quantity of ``_flow_rows``: its name, and a combination, or the order
# n of the jet row that integrates to h^(n) (0 for h itself)
Quantity = Tuple[str, Union[Combination, int]]

# the factor log f of a compiled term, beside the ratio powers (m, k)
_LOG_F = "log f"


class FdAccuracyWarning(UserWarning):
    """A jet entropy derivative carries more than 10% estimated error."""


class FlowRangeError(ValueError):
    """An input that the scan cannot evaluate in float64.

    ``t`` is the grid time where it fails; ``component`` is the index of
    the mixture component at fault, or None when the flow time is, and
    ``parameter`` names that component's parameter at fault, "mu" or "var".
    """

    def __init__(
        self, message: str, t: float, component: Optional[int] = None, parameter: str = "var"
    ):
        super().__init__(message)
        self.t = t
        self.component = component
        self.parameter = parameter


# ---------------------------------------------------------------------------
# Integrands and basic functionals
# ---------------------------------------------------------------------------


def _jet(n: int) -> Quantity:
    """The quantity whose integral is h^(n), h itself at n = 0."""
    return ("h" if n == 0 else f"h^({n})", n)


@lru_cache(maxsize=None)
def _jet_remainder(n: int) -> Combination:
    """f P_n, with P_n = n! [e^n] of sum_{k>=2} (-1)^k G^k / (k (k-1)).

    F log F = f log f (1 + G) + f (1 + G) log(1 + G) for F = f (1 + G), and
    (1 + G) log(1 + G) = G + sum_{k>=2} (-1)^k G^k / (k (k-1)); G's own
    term f_2n / 2^n integrates to zero.  Each of the k!/prod m_j! orderings
    of a partition l of n into k parts, m_j its part multiplicities, adds
    prod 1/(2^l_i l_i!) to [e^n] G^k, and k!/(k (k-1)) = (k-2)!: f P_n is the
    sum over l with k >= 2 of n! (-1)^k (k-2)! / (2^n prod l_i! prod m_j!)
    times f r_2l_1 ... r_2l_k, a derivative monomial, exact in f_2..f_{2n-2}.
    """
    terms = {}
    for parts in partitions(n)[1:]:  # every partition but the first, (n,), has 2 parts or more
        k = len(parts)
        repeats = math.prod(math.factorial(parts.count(p)) for p in set(parts))
        denominator = 2**n * math.prod(map(math.factorial, parts)) * repeats
        numerator = (-1) ** k * math.factorial(k - 2) * math.factorial(n)
        terms[make_monomial(2 * p for p in parts)] = Fraction(numerator, denominator)
    return Combination(terms)


def _compiled(spec: Union[Combination, int]) -> Tuple[Tuple[float, tuple], ...]:
    """A quantity's terms as (coefficient, factors); a factor is a ratio power (m, k) or log f.

    A combination's terms are its monomials'; jet order n's are
    -log f r_2n / 2^n and the terms of -P_n.
    """
    if isinstance(spec, Combination):
        terms = [(float(coeff), mono.exps) for mono, coeff in spec.items()]
    else:
        ratio = ((2 * spec, 1),) if spec else ()
        terms = [(-(0.5**spec), (_LOG_F,) + ratio)]
        terms += [(float(-coeff), mono.exps) for mono, coeff in _jet_remainder(spec).items()]
    # a zero combination is one term, 0 times the density
    return tuple(terms) or ((0.0, ()),)


class _Layout(NamedTuple):
    """The rows of ``_flow_rows`` for a list of quantities, and what their terms reach."""

    terms: Tuple[Tuple[Tuple[float, tuple], ...], ...]  # per quantity, ``_compiled``
    tops: Dict[int, int]  # per ratio row m, the highest power k that a term takes
    magnitudes: Tuple[int, ...]  # per quantity, the row that holds its magnitude
    size: int  # the quantities' rows and the magnitude rows after them
    max_m: int  # the top ratio row, 0 for none
    weight: int  # the largest term weight m1 k1 + m2 k2 + ..., 0 for none


@lru_cache(maxsize=None)
def _layout(quantities: Tuple[Quantity, ...]) -> _Layout:
    """The quantities' ``_Layout``, built once per process: every forest of a scan reads the same.

    A quantity of two terms or more cancels between its terms, so its
    magnitude is a row of its own after the quantities'; a one-term
    quantity names its own row, and its floor comes from the absolute
    values of its own rule sums.
    """
    terms = tuple(_compiled(spec) for _, spec in quantities)
    tops: Dict[int, int] = {}
    magnitudes, size, weight = [], len(terms), 0
    for q, items in enumerate(terms):
        for _, factors in items:
            pairs = [pair for pair in factors if pair != _LOG_F]
            for m, k in pairs:
                tops[m] = max(tops.get(m, 0), k)
            weight = max(weight, sum(m * k for m, k in pairs))
        magnitudes.append(size if len(items) > 1 else q)
        size += len(items) > 1
    return _Layout(terms, tops, tuple(magnitudes), size, max(tops, default=0), weight)


def _flow_rows(
    mix: GaussianMixture,
    ts: Sequence,
    quantities: Sequence[Quantity],
) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
    """One row per named quantity, node i at flow time ``ts[jobs[i]]``, from one kernel call.

    A quantity's row is f times the sum of its ``_compiled`` terms.  The
    magnitude rows that ``_layout`` names follow the quantities' rows: per
    quantity of two terms or more, f times the sum of its terms' absolute
    values.

    Per block of nodes, the powers of the ratios r_m = f_m/f come from a
    table built by multiplication, r_m^k = r_m^(k-1) r_m: ``**`` with an
    exponent of 3 or more calls libm ``pow``, about a hundred multiplies
    per element.  The table holds log f too.  A term is its coefficient
    times its factors in order, and a quantity adds its terms, and its
    magnitude their absolute values, one after another, elementwise.  So
    every value is computed per node, exactly as it would be on its own,
    and sharing the kernel call, the block or the forest changes no bit.
    """
    layout = _layout(tuple(quantities))
    times = np.array(ts, dtype=float)
    # per quantity, the output row of its magnitude, if it has a row of its own
    mag_rows = [None if row == q else row for q, row in enumerate(layout.magnitudes)]

    def fn(y: np.ndarray, jobs: np.ndarray) -> np.ndarray:
        out = np.empty((layout.size, y.size))
        for part, lf, ratios in map_flow(mix, times, y, jobs, layout.max_m):
            table = {_LOG_F: lf}
            for m, top in layout.tops.items():
                table[m, 1] = ratios[m]
                for k in range(2, top + 1):
                    table[m, k] = table[m, k - 1] * ratios[m]
            block, term = out[:, part], np.empty_like(lf)
            for row, items, mag in zip(block, layout.terms, mag_rows):
                _term(items[0], table, row)
                if mag is not None:
                    mag = np.abs(row, out=block[mag])
                for item in items[1:]:
                    row += _term(item, table, term)
                    if mag is not None:
                        mag += np.abs(term, out=term)
            block *= np.exp(lf)
            # freed before map_flow resumes for the next block, so only one block's powers live
            del table, term, lf
        return out

    return fn


def _term(item, table, out: np.ndarray) -> np.ndarray:
    """coeff * the product of the factors of one compiled term, written to ``out``."""
    coeff, factors = item
    if not factors:
        out.fill(coeff)
        return out
    np.multiply(coeff, table[factors[0]], out=out)
    for factor in factors[1:]:
        out *= table[factor]
    return out


def _window(mix: GaussianMixture, t: float) -> Tuple[float, ...]:
    """``support_interval`` at t as breakpoints, with the ``WINDOW_SIGMAS`` edges
    of each component narrower than the mean spacing of the initial nodes,
    which could fall between all of them and read as zero."""
    a, b = mix.support_interval(t)
    spacing = (b - a) / INITIAL_NODES
    edges = [
        mu + side * WINDOW_SIGMAS * math.sqrt(v + t)
        for _, mu, v in mix.components
        if 2.0 * WINDOW_SIGMAS * math.sqrt(v + t) < spacing
        for side in (-1.0, 1.0)
    ]
    return (a, *sorted(edges), b)


def _check_kernel(
    mix: GaussianMixture,
    windows: Sequence[Tuple[float, ...]],
    ts,
    quantities: Sequence[Quantity],
):
    """Raise ``FlowRangeError`` if an integrand of ``quantities`` leaves float64 on ``windows[j]``.

    Node y at flow time ``ts[j]`` has z = (y - mu)/sqrt(s), s = v + ts[j],
    largest at a window's ends, and ratio row m raises z to the m-th power,
    up to the top row m of the quantities' terms, 2 at least.  Where
    |z|**m overflows, the means are at fault, the largest |mu|, when they
    lie farther apart than the window's padding; otherwise the variance of
    the component whose z overflows.  A term f r_m1^k1 r_m2^k2 ... of
    weight W = m1 k1 + m2 k2 + ... scales like s**(-(W + 1)/2), largest,
    or where every component is wide smallest, at the narrowest
    component's s.  At the largest weight, 2 at least, that power must
    stay within 2**1000 of 1, leaving 2**24 for the Hermite values,
    coefficients and log f; outside it, the larger of that v and the flow
    time is at fault, as in ``_check_fisher``.
    """
    layout = _layout(tuple(quantities))
    power, weight = max(2, layout.max_m), max(2, layout.weight)
    ends = np.array([(w[0], w[-1]) for w in windows])
    times = np.asarray(ts, dtype=float)
    narrowest = int(np.argmin(mix.variances))
    with np.errstate(over="ignore"):
        reach = np.abs(ends[:, :, None] - mix.means).max(axis=1)  # (job, component)
        z = reach / np.sqrt(times[:, None] + mix.variances)
        s = times + mix.variances[narrowest]
    bad = np.argwhere(~(z < 2.0 ** (1024 / power)))
    if bad.size:
        j, k = bad[0]
        spread = np.ptp(mix.means) > ends[j, 1] - mix.means.max()
        raise FlowRangeError(
            f"|z| of component {k} reaches {z[j, k]:.3g} at flow time {float(ts[j])!r}: "
            f"|z|**{power} overflows float64",
            float(ts[j]),
            int(np.argmax(np.abs(mix.means))) if spread else int(k),
            "mu" if spread else "var",
        )
    scale = (weight + 1) / 2.0
    bad = np.flatnonzero(~(np.abs(np.log2(s)) * scale < 1000.0))
    if bad.size:
        j = bad[0]
        raise FlowRangeError(
            f"flowed variance {float(s[j])!r} of component {narrowest} at flow time "
            f"{float(ts[j])!r}: s**{-scale:g} leaves float64's range",
            float(ts[j]),
            narrowest if mix.variances[narrowest] >= times[j] else None,
        )


def _flow_forest(
    mix: GaussianMixture,
    ts: Sequence[float],
    quantities: Sequence[Quantity],
) -> Forest:
    """One bisection tree per flow time t > 0 and quantity; each accepts its own panels.

    A combination's roundoff floor is keyed to the integral of its terms'
    absolute values, not of its own absolute value, which cancels below it.

    h, J and every C_n ignore a translation, so the windows, the range
    check and the kernel see the mixture shifted by c, 0 when the means
    straddle 0 and else the mean nearest 0, where y - mu keeps its digits.
    A tree that stops short is named by its quantity and flow time.
    """
    if not mix.means.min() <= 0.0 <= mix.means.max():
        c = float(min(mix.means, key=abs))
        mix = GaussianMixture(tuple((w, mu - c, v) for w, mu, v in mix.components))
    windows = [_window(mix, t) for t in ts]
    _check_kernel(mix, windows, ts, quantities)
    return Forest(
        _flow_rows(mix, ts, quantities),
        windows,
        lambda job, row: f"{quantities[row][0]} at t={float(ts[job])!r}",
        _layout(tuple(quantities)).magnitudes,
    )


def _flow_results(
    mix: GaussianMixture, t: float, quantities: Sequence[Quantity], tol: float
) -> List[QuadResult]:
    """Each quantity's integral at flow time t > 0, from one bisection forest."""
    if t <= 0:
        raise ValueError("quantities along the flow need t > 0")
    (results,) = refine(_flow_forest(mix, [t], quantities), tol)
    return results


def entropy_result(mix: GaussianMixture, t: float, tol: float = DEFAULT_TOL) -> QuadResult:
    """Differential entropy (natural log) of the mixture flowed to time t."""
    return _flow_results(mix, t, [_jet(0)], tol)[0]


def fisher_result(mix: GaussianMixture, t: float, tol: float = DEFAULT_TOL) -> QuadResult:
    """J(t) as the integral of C_1 = f1^2/f."""
    return _flow_results(mix, t, [("C_1", entropy_derivative(1))], tol)[0]


def functional_result(
    comb: Combination, mix: GaussianMixture, t: float, tol: float = DEFAULT_TOL
) -> QuadResult:
    """Integral over y of the combination evaluated on the flowed density.

    Monomials are evaluated as f * prod (f_m/f)^k with stable ratio
    averaging, so high powers like f1^8/f^7 stay finite in the tails.
    """
    return _flow_results(mix, t, [("functional", comb)], tol)[0]


# ---------------------------------------------------------------------------
# Entropy derivatives by the Taylor jet in t
# ---------------------------------------------------------------------------


def fd_entropy_deriv_result(
    mix: GaussianMixture, t: float, n: int, tol: float = DEFAULT_TOL
) -> Tuple[float, float]:
    """h^(n)(t) as the integral of its jet row; returns (value, error).

    The row is ``_jet(n)``'s, refined alone on its own tree, so it has the
    bits that the scan's ``d_fd`` gives it at t.  It rests on the heat
    equation and the kernel's ratios only, never on the symbolic calculus.
    """
    if n < 1:
        raise ValueError("derivative order must be >= 1")
    (result,) = _flow_results(mix, t, [_jet(n)], tol)
    return result.value, result.error


def fd_entropy_deriv(mix: GaussianMixture, t: float, n: int, tol: float = DEFAULT_TOL) -> float:
    """n-th t-derivative of entropy from the Taylor jet (symbolic-free oracle)."""
    value, error = fd_entropy_deriv_result(mix, t, n, tol)
    if abs(value) > 0 and error > 0.1 * abs(value):
        warnings.warn(
            f"order-{n} jet derivative at t={t} has estimated error "
            f"{error:.2e} (> 10% of value {value:.2e})",
            FdAccuracyWarning,
            stacklevel=2,
        )
    return value


# ---------------------------------------------------------------------------
# Grids and second differences
# ---------------------------------------------------------------------------


def time_grid(start: float, stop: float, points: int, spacing: str = "linear") -> np.ndarray:
    if start <= 0 or stop <= start or points < 3:
        raise ValueError("grid needs 0 < start < stop and at least 3 points")
    if spacing == "linear":
        return np.linspace(start, stop, points)
    if spacing == "log":
        return np.geomspace(start, stop, points)
    raise ValueError(f"unknown spacing {spacing!r}")


def second_difference(
    ts: Sequence[float], values: Sequence[float], errors: Optional[Sequence[float]] = None
) -> Tuple[np.ndarray, np.ndarray]:
    """Three-point second-derivative estimates on a possibly non-uniform grid.

    Endpoints are nan.  The error output propagates per-point value errors
    through the stencil; for a genuinely convex (concave) function the
    estimate is nonnegative (nonpositive) up to exactly this noise, with
    no truncation term.  A point with an infinite error, one whose tree
    stopped short, gives every estimate that uses it an infinite error.
    """
    ts = np.asarray(ts, dtype=float)
    vals = np.asarray(values, dtype=float)
    errs = np.zeros_like(vals) if errors is None else np.asarray(errors, dtype=float)
    hp, hm = ts[2:] - ts[1:-1], ts[1:-1] - ts[:-2]
    out = np.full_like(vals, np.nan)
    out_err = np.full_like(vals, np.nan)
    out[1:-1] = 2.0 * ((vals[2:] - vals[1:-1]) / hp - (vals[1:-1] - vals[:-2]) / hm) / (hp + hm)
    noise = errs[2:] / hp + errs[1:-1] * (1.0 / hp + 1.0 / hm) + errs[:-2] / hm
    out_err[1:-1] = 2.0 * noise / (hp + hm)
    return out, out_err


def _has_both_signs(values: Iterable[Tuple[float, float]]) -> bool:
    """Among (value, error) pairs, one above 3 errors and one below -3 errors."""
    return {"pass", "fail"} <= {_sign_status(value, error, 1) for value, error in values}


def _sign_status(value: float, error: float, wanted: int) -> str:
    """The one verdict rule: "pass" or "fail" only for a finite value beyond 3 finite errors.

    A value that rests on a tree that stopped short has an infinite error,
    so its verdict is "inconclusive".
    """
    if not (math.isfinite(value) and abs(value) > 3.0 * error):
        return "inconclusive"
    return "pass" if math.copysign(1.0, value) == wanted else "fail"


def _withheld(*pairs: Tuple[float, float]) -> bool:
    """Numerical trouble: a value or error is not finite, as where a tree stopped short."""
    return not all(math.isfinite(x) for pair in pairs for x in pair)


# ---------------------------------------------------------------------------
# Conjecture scan
# ---------------------------------------------------------------------------


class ScanRow(NamedTuple):
    """Per-t record of the scan."""

    t: float
    h: float
    h_err: float
    J: float
    J_err: float
    Jp: float  # J' as the integral of C_2
    Jp_err: float
    d_fd: Tuple[Tuple[float, float], ...]  # jet (value, error) for n = 1..max_order
    d_sym: Tuple[Tuple[float, float], ...]  # symbolic (value, error) for n = 1..min(4, max_order)
    costa_margin: float  # -J' - J^2, zero for a single Gaussian
    costa_margin_err: float  # 2 J J_err + J'_err + eps (|J'| + J^2)
    logJ_dd: float = math.nan
    logJ_dd_err: float = math.nan
    invJ_dd: float = math.nan
    invJ_dd_err: float = math.nan
    e2h_dd: float = math.nan
    e2h_dd_err: float = math.nan

    # each verdict is read from the row's own values, never stored beside them
    @property
    def sign_status(self) -> Tuple[str, ...]:
        """Per jet order, then per symbolic order: the signs alternate, starting positive."""
        return tuple(
            _sign_status(value, error, 1 if n % 2 else -1)
            for derivs in (self.d_fd, self.d_sym)
            for n, (value, error) in enumerate(derivs, start=1)
        )

    @property
    def signs_ok(self) -> bool:
        return "fail" not in self.sign_status

    @property
    def costa_status(self) -> str:
        # (e^{2h})'' = e^{2h} (J^2 + J') makes -J' >= J^2 the entropy-power
        # concavity too, and e2h_dd, its grid cross-check, gets no verdict
        return _sign_status(self.costa_margin, self.costa_margin_err, 1)

    @property
    def withheld(self) -> bool:  # a number is not finite, as where a tree stopped short
        pairs = [(self.h, self.h_err), (self.J, self.J_err), *self.d_fd, *self.d_sym]
        return _withheld((self.costa_margin, self.costa_margin_err), *pairs)


class ScanResult(NamedTuple):
    """Scan output plus the grid-level verdicts."""

    rows: List[ScanRow]

    def ts(self) -> np.ndarray:
        return np.array([r.t for r in self.rows])

    def column(self, name: str) -> np.ndarray:
        return np.array([getattr(r, name) for r in self.rows])

    def all_signs_ok(self) -> bool:
        return all(r.signs_ok for r in self.rows)

    def all_costa_ok(self) -> bool:
        return all(r.costa_status != "fail" for r in self.rows)

    def invJ_dd_has_both_signs(self) -> bool:
        """Both curvature signs present, each clearing its noise estimate."""
        return _has_both_signs((r.invJ_dd, r.invJ_dd_err) for r in self.rows)

    def inconclusive_rows(self) -> int:
        """Rows with a verdict withheld by a tree that stopped short or a non-finite number."""
        return sum(r.withheld for r in self.rows)

    def logJ_convexity_violations(self) -> int:
        return sum(_sign_status(r.logJ_dd, r.logJ_dd_err, 1) == "fail" for r in self.rows)


_SYM_ORDERS = 4


# Flow times refined as one forest.  A forest holds every tree of its
# times until they all end, so a long grid is refined this many times at a
# time and its memory stays that of one forest.
_FOREST_TIMES = 40


def _scan_rows(
    mix: GaussianMixture, ts: Sequence[float], max_order: int, tol: float
) -> List[ScanRow]:
    """The rows at flow times ``ts`` before the grid-level verdicts, one forest per batch.

    Each flow time has one tree on which the jet orders 0..max_order (h
    first) and C_1..C_4 each accept their own panels.  At max_order 0 the
    quantities are h, C_1 and C_2, the rows that ``wt_checks`` reads.  A
    tree that stopped short has an infinite error, which its row keeps.
    """
    if max_order < 0:
        raise ValueError(f"max_order must be >= 0, not {max_order}")
    sym_orders = min(_SYM_ORDERS, max_order)
    # the jet; C_1 and C_2 (which integrate to J and J') always; C_3, C_4 as the orders ask
    quantities = [_jet(n) for n in range(max_order + 1)] + [
        (f"C_{n}", entropy_derivative(n)) for n in range(1, max(sym_orders, 2) + 1)
    ]
    rows = []
    for i in range(0, len(ts), _FOREST_TIMES):
        batch = ts[i : i + _FOREST_TIMES]
        for t, flow in zip(batch, refine(_flow_forest(mix, batch, quantities), tol)):
            pairs = [(r.value, r.error) for r in flow]
            (h, h_err), jet, sym = pairs[0], pairs[1 : max_order + 1], pairs[max_order + 1 :]
            (j, j_err), (jp, jp_err) = sym[0], sym[1]
            _check_fisher(mix, j, t)
            # the integrals' errors to first order, and the margin's own rounding
            costa_err = 2.0 * j * j_err + jp_err + _EPS * (abs(jp) + j * j)
            rows.append(
                ScanRow(
                    t=t,
                    h=h,
                    h_err=h_err,
                    J=j,
                    J_err=j_err,
                    Jp=jp,
                    Jp_err=jp_err,
                    d_fd=tuple(jet),
                    d_sym=tuple((0.5 * v, 0.5 * e) for v, e in sym[:sym_orders]),
                    costa_margin=-jp - j * j,
                    costa_margin_err=costa_err,
                )
            )
    return rows


def _check_fisher(mix: GaussianMixture, j: float, s: float) -> None:
    """Raise ``FlowRangeError`` at flow time s if J there cannot be squared.

    The verdicts square J and divide by it.  J is about 1/(v + s) for the
    widest variance v, so the larger of the two is at fault.
    """
    if not sys.float_info.min <= j * j < math.inf:
        widest = int(np.argmax(mix.variances))
        raise FlowRangeError(
            f"J = {j!r} at flow time {s!r}: J**2 leaves float64's normal range",
            s,
            widest if mix.variances[widest] >= s else None,
        )


def _scan_row_core(mix: GaussianMixture, t: float, max_order: int, tol: float) -> ScanRow:
    """The scan row of one flow time, before the grid-level verdicts."""
    return _scan_rows(mix, [t], max_order, tol)[0]


def scan_conjectures(
    mix: GaussianMixture,
    t_grid: Sequence[float],
    max_order: int = 4,
    tol: float = DEFAULT_TOL,
) -> ScanResult:
    """Evaluate the sign conjectures on a t-grid.

    Asserted per row (never on inconclusive data): the derivative signs
    alternate starting positive, and -J' >= J^2, which is also the
    concavity of the entropy power, since (e^{2h})'' = e^{2h} (J^2 + J').
    The curvatures of log J, 1/J and e^{2h} along the grid are recorded
    without a verdict; 1/J is expected to show both signs for
    well-separated mixtures.
    """
    ts = [float(t) for t in t_grid]
    if any(t <= 0 for t in ts) or any(not a < b for a, b in zip(ts, ts[1:])):
        raise ValueError("grid must be positive and strictly increasing")
    rows = _scan_rows(mix, ts, max_order, tol)

    j_vals = [r.J for r in rows]
    j_errs = [r.J_err for r in rows]
    e2h = [math.exp(2.0 * r.h) for r in rows]
    logj_errs = [e / v for v, e in zip(j_vals, j_errs)]
    logj_dd, logj_err = second_difference(ts, np.log(j_vals), logj_errs)
    invj_errs = [e / (v * v) for v, e in zip(j_vals, j_errs)]
    invj_dd, invj_err = second_difference(ts, [1.0 / v for v in j_vals], invj_errs)
    e2h_dd, e2h_err = second_difference(ts, e2h, [2.0 * p * r.h_err for p, r in zip(e2h, rows)])
    # the grid curvatures are a row's last six fields, which _scan_rows leaves NaN
    grid = np.column_stack([logj_dd, logj_err, invj_dd, invj_err, e2h_dd, e2h_err]).tolist()
    return ScanResult([ScanRow(*row[:-6], *dd) for row, dd in zip(rows, grid)])


CSV_HEADER = (
    "t,h,J,d1_fd,d2_fd,d3_fd,d4_fd,d1_sym,d2_sym,d3_sym,d4_sym,"
    "logJ_dd,invJ_dd,e2h_dd,costa_ok,signs_ok"
)


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def scan_to_csv(result: ScanResult) -> str:
    """Render the scan in the stable CSV schema (first four orders)."""
    lines = [CSV_HEADER]
    for row in result.rows:
        d_fd = [row.d_fd[i][0] if i < len(row.d_fd) else math.nan for i in range(4)]
        d_sym = [row.d_sym[i][0] if i < len(row.d_sym) else math.nan for i in range(4)]
        values = [row.t, row.h, row.J, *d_fd, *d_sym, row.logJ_dd, row.invJ_dd, row.e2h_dd]
        flags = [str(int(row.costa_status != "fail")), str(int(row.signs_ok))]
        lines.append(",".join([*map(_fmt, values), *flags]))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# The covariance-preserving interpolation W_t = sqrt(t) X + sqrt(1-t) Z
# ---------------------------------------------------------------------------


class WtRow(NamedTuple):
    t: float
    s: float  # 1/t - 1, the equivalent flow time
    hW: float
    hW_err: float
    JW: float
    JW_err: float  # J(Y_s)'s quadrature error / t
    txz_margin: float  # -J'(Y_s) + t^2 - 2 t J(Y_s)
    txz_err: float  # 2 t J_err + J'_err + eps (|J'| + t^2 + 2 t J), of Y_s
    hW_dd: float = math.nan
    hW_dd_err: float = math.nan
    JW_dd: float = math.nan
    JW_dd_err: float = math.nan

    @property
    def txz_status(self) -> str:  # the interpolation inequality's verdict
        return _sign_status(self.txz_margin, self.txz_err, 1)

    @property
    def withheld(self) -> bool:  # a number is not finite, as where a tree stopped short
        margin = (self.txz_margin, self.txz_err)
        return _withheld((self.hW, self.hW_err), (self.JW, self.JW_err), margin)


class WtReport(NamedTuple):
    rows: List[WtRow]

    def concavity_ok(self) -> bool:
        return all(_sign_status(r.hW_dd, r.hW_dd_err, -1) != "fail" for r in self.rows)

    def txz_ok(self) -> bool:
        return all(r.txz_status != "fail" for r in self.rows)

    def inconclusive_rows(self) -> int:
        """Rows with a verdict withheld by a tree that stopped short or a non-finite number."""
        return sum(r.withheld for r in self.rows)

    def jw_dd_has_both_signs(self) -> bool:
        """Both curvature signs present, each clearing its noise estimate."""
        return _has_both_signs((r.JW_dd, r.JW_dd_err) for r in self.rows)


def wt_checks(mix: GaussianMixture, t_grid: Sequence[float], tol: float = DEFAULT_TOL) -> WtReport:
    """Concavity/convexity checks for the interpolation on 0 < t < 1.

    Uses the scaling identity h(W_t) = h(X + sqrt(1/t - 1) Z) + log(t)/2
    and J(W_t) = J(X + sqrt(1/t - 1) Z) / t, so each row is the scan's
    row at flow time s = 1/t - 1 and max_order 0.  A t whose s, kernel
    values or J(Y_s)**2 leave float64's range raises ``FlowRangeError``
    at that t, as the scan does.
    """
    ts = [float(t) for t in t_grid]
    if any(not 0 < t < 1 for t in ts) or any(not a < b for a, b in zip(ts, ts[1:])):
        raise ValueError("grid must lie strictly inside (0, 1) and increase")

    flow_times = [1.0 / t - 1.0 for t in ts]
    for t, s in zip(ts, flow_times):
        if not math.isfinite(s):
            raise FlowRangeError(f"s = 1/t - 1 at t = {t!r} overflows float64", t)
    try:
        flows = _scan_rows(mix, flow_times, 0, tol)
    except FlowRangeError as exc:
        exc.t = ts[flow_times.index(exc.t)]  # the grid time of the flow time at fault
        raise
    rows = []
    for t, flow in zip(ts, flows):
        j, jp = flow.J, flow.Jp
        rows.append(
            WtRow(
                t=t,
                s=flow.t,
                hW=flow.h + 0.5 * math.log(t),
                hW_err=flow.h_err,
                JW=j / t,
                JW_err=flow.J_err / t,
                txz_margin=-jp + t * t - 2.0 * t * j,
                # the integrals' errors to first order, and the margin's own rounding
                txz_err=2.0 * t * flow.J_err + flow.Jp_err
                + _EPS * (abs(jp) + t * t + 2.0 * t * j),
            )
        )

    hw_dd, hw_err = second_difference(ts, [r.hW for r in rows], [r.hW_err for r in rows])
    jw_dd, jw_err = second_difference(ts, [r.JW for r in rows], [r.JW_err for r in rows])
    # the grid curvatures are a row's last four fields, left NaN above
    grid = np.column_stack([hw_dd, hw_err, jw_dd, jw_err]).tolist()
    return WtReport([WtRow(*row[:-4], *dd) for row, dd in zip(rows, grid)])


WT_CSV_HEADER = "t,s,hW,JW,hW_dd,JW_dd,txz_margin,txz_ok"


def wt_to_csv(report: WtReport) -> str:
    lines = [WT_CSV_HEADER]
    for r in report.rows:
        values = [r.t, r.s, r.hW, r.JW, r.hW_dd, r.JW_dd, r.txz_margin]
        lines.append(",".join([*map(_fmt, values), str(int(r.txz_status != "fail"))]))
    return "\n".join(lines) + "\n"
