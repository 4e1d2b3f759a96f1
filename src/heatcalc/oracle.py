"""Numerical oracle: entropy, Fisher information, and conjecture scans.

Everything here evaluates closed-form Gaussian-mixture densities under
the heat flow, so the symbolic canonical forms can be cross-checked two
independent ways:

* ``functional`` integrates a derivative-monomial combination directly;
* ``fd_entropy_deriv`` differences the entropy in t, never touching the
  symbolic calculus.

Scans sweep a t-grid and record both routes together with the quantities
the sign conjectures speak about (log J and 1/J curvature, the entropy
power, the interpolation W_t = sqrt(t) X + sqrt(1-t) Z).  Sign verdicts
are three-sigma style: a check passes or fails only when the value clears
the estimated numeric error by a factor of three, and is otherwise
reported as inconclusive rather than asserted.

A scan refines its flow times in batches, each batch one bisection
forest: per flow time one tree on which h and C_1..C_4 each accept their
own panels.  C_2..C_4 cancel between their terms, so each carries a
magnitude row, f times the sum of its terms' absolute values, that sets
its roundoff floor.  The panels h accepts are its mesh, and they serve
the finite differences too: every fd stencil time of that flow time is a
job integrated on them, and a batch's stencil times take one
``quadrature.integrate`` call.  Every density evaluation is one
``mixtures.map_flow`` call, one flow time per job, with an epilogue from
``_flow_rows``, so h and the fd entropies share one -f log f.  A quantity whose tree stops short of the tolerance leaves
every sign verdict that rests on it inconclusive.
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .mixtures import GaussianMixture, map_flow
from .quadrature import INITIAL_NODES, Forest, QuadResult, integrate, refine
from .reduction import entropy_derivative
from .terms import Combination

DEFAULT_TOL = 1e-11

# the entropy integrand -f log f as a quantity of ``_flow_rows``
_ENTROPY = [("h", None)]


class FdAccuracyWarning(UserWarning):
    """A finite-difference estimate carries more than 10% estimated error."""


class FlowRangeError(ValueError):
    """An input that the scan cannot evaluate in float64.

    ``t`` is the flow time where it fails; ``component`` is the index of
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


def _flow_rows(
    mix: GaussianMixture,
    ts: Sequence,
    quantities: Sequence[Tuple[str, Optional[Combination]]],
) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
    """One row per named quantity, node i at flow time ``ts[jobs[i]]``, from one kernel call.

    A quantity without a combination is the entropy integrand -f log f;
    the others are their combination evaluated on the flowed density.
    The magnitude rows that ``_magnitude_rows`` names follow the
    quantities' rows: per combination of two terms or more, f times the
    sum of its terms' absolute values.

    Each combination is compiled once into its terms, a coefficient and
    the (order, exponent) pairs of its factors.  Per block of nodes, the
    powers of the ratios r_m = f_m/f come from a table built by
    multiplication, r_m^k = r_m^(k-1) r_m: ``**`` with an exponent of 3
    or more calls libm ``pow``, about a hundred multiplies per element.
    A term is its coefficient times its factors in order, and a quantity
    adds its terms, and its magnitude their absolute values, one after
    another, elementwise.  So every value is computed per node, exactly as
    it would be on its own, and sharing the kernel call, the block or the
    forest changes no bit.
    """
    combs = [
        None
        if comb is None
        # a zero combination is one term, 0 times the density
        else [(float(coeff), mono.exps) for mono, coeff in comb.items()] or [(0.0, ())]
        for _, comb in quantities
    ]
    tops: Dict[int, int] = {}  # per ratio row, the highest power a term takes
    for items in combs:
        for _, exps in items or ():
            for m, k in exps:
                tops[m] = max(tops.get(m, 0), k)
    max_m = max(tops, default=0)
    times = np.array(ts, dtype=float)
    # per quantity, the output row of its magnitude, if it has a row of its own
    mag_rows = [None if row == q else row for q, row in enumerate(_magnitude_rows(quantities))]
    size = len(combs) + sum(row is not None for row in mag_rows)

    def rows(lf: np.ndarray, ratios: np.ndarray) -> np.ndarray:
        f = np.exp(lf)
        table = {}
        for m, top in tops.items():
            power = table[m, 1] = ratios[m]
            for k in range(2, top + 1):
                power = table[m, k] = power * ratios[m]
        out = np.empty((size, lf.size))
        term = np.empty_like(lf)
        for row, items, mag in zip(out, combs, mag_rows):
            if items is None:
                np.multiply(-f, lf, out=row)
                continue
            _term(items[0], table, row)
            if mag is not None:
                mag = np.abs(row, out=out[mag])
            for item in items[1:]:
                row += _term(item, table, term)
                if mag is not None:
                    mag += np.abs(term, out=term)
            row *= f
            if mag is not None:
                mag *= f
        return out

    def fn(y: np.ndarray, jobs: np.ndarray) -> np.ndarray:
        return map_flow(mix, times, y, jobs, max_m, rows)

    return fn


def _magnitude_rows(quantities: Sequence[Tuple[str, Optional[Combination]]]) -> Tuple[int, ...]:
    """Per quantity, the row of ``_flow_rows`` that holds its magnitude.

    A combination of two terms or more cancels between its terms, so its
    magnitude is a row of its own after the quantities'; -f log f and a
    one-term combination name their own row, and their floor comes from
    the absolute values of their own rule sums.
    """
    out, extra = [], len(quantities)
    for q, (_, comb) in enumerate(quantities):
        if comb is not None and len(comb) > 1:
            out.append(extra)
            extra += 1
        else:
            out.append(q)
    return tuple(out)


def _term(item, table, out: np.ndarray) -> np.ndarray:
    """coeff * prod r_m^k of one compiled term, written to ``out``."""
    coeff, exps = item
    if not exps:
        out.fill(coeff)
        return out
    np.multiply(coeff, table[exps[0]], out=out)
    for pair in exps[1:]:
        out *= table[pair]
    return out


def _flow_labels(t: float, quantities) -> Tuple[str, ...]:
    return tuple(f"{name} at t={float(t)!r}" for name, _ in quantities)


def _window(mix: GaussianMixture, t: float) -> Tuple[float, ...]:
    """``support_interval`` at t as breakpoints, with the 12-sigma edges of each
    component narrower than the mean spacing of the initial nodes, which
    could fall between all of them and read as zero."""
    a, b = mix.support_interval(t)
    spacing = (b - a) / INITIAL_NODES
    edges = [
        mu + side * 12.0 * math.sqrt(v + t)
        for _, mu, v in mix.components
        if 24.0 * math.sqrt(v + t) < spacing
        for side in (-1.0, 1.0)
    ]
    return (a, *sorted(edges), b)


def _check_z(mix: GaussianMixture, windows: Sequence[Tuple[float, ...]], ts, power: int) -> None:
    """Raise ``FlowRangeError`` if a component's z on ``windows[j]`` overflows at ``power``.

    Node y at flow time ``ts[j]`` has z = (y - mu)/sqrt(v + ts[j]), largest
    at a window's ends.  The kernel squares z, and ratio row m raises it to
    the m-th power in the Hermite recurrence.  The means are at fault, the
    largest |mu|, when they lie farther apart than the window's padding;
    otherwise the variance of the component whose z overflows.
    """
    ends = np.array([(w[0], w[-1]) for w in windows])
    with np.errstate(over="ignore"):
        reach = np.abs(ends[:, :, None] - mix.means).max(axis=1)  # (job, component)
        z = reach / np.sqrt(np.asarray(ts, dtype=float)[:, None] + mix.variances)
    bad = np.argwhere(~(z < 2.0 ** (1024 / power)))
    if bad.size:
        j, k = bad[0]
        means = [mu for _, mu, _ in mix.components]
        spread = max(means) - min(means) > ends[j, 1] - max(means)
        raise FlowRangeError(
            f"|z| of component {k} reaches {z[j, k]:.3g} at flow time {float(ts[j])!r}: "
            f"|z|**{power} overflows float64",
            float(ts[j]),
            int(np.argmax(np.abs(mix.means))) if spread else int(k),
            "mu" if spread else "var",
        )


def _flow_forest(
    mix: GaussianMixture,
    ts: Sequence[float],
    quantities: Sequence[Tuple[str, Optional[Combination]]],
) -> Forest:
    """One bisection tree per flow time t > 0 and quantity; each accepts its own panels.

    A combination's roundoff floor is keyed to the integral of its terms'
    absolute values, not of its own absolute value, which cancels below it.
    """
    windows = [_window(mix, t) for t in ts]
    top = max((comb.max_order() for _, comb in quantities if comb is not None), default=0)
    _check_z(mix, windows, ts, max(2, top))
    return Forest(
        _flow_rows(mix, ts, quantities),
        windows,
        [_flow_labels(t, quantities) for t in ts],
        _magnitude_rows(quantities),
    )


def _flow_results(
    mix: GaussianMixture,
    t: float,
    quantities: Sequence[Tuple[str, Optional[Combination]]],
    tol: float,
) -> List[QuadResult]:
    """Each quantity's integral at flow time t > 0, from one bisection forest."""
    (results,) = refine(_flow_forest(mix, [t], quantities), tol, stacklevel=3)
    return results


def entropy_result(mix: GaussianMixture, t: float, tol: float = DEFAULT_TOL) -> QuadResult:
    if t <= 0:
        raise ValueError("entropy along the flow needs t > 0")
    return _flow_results(mix, t, [("h", None)], tol)[0]


def entropy(mix: GaussianMixture, t: float, tol: float = DEFAULT_TOL) -> float:
    """Differential entropy of the mixture flowed to time t (natural log)."""
    return entropy_result(mix, t, tol).value


def fisher_result(
    mix: GaussianMixture, t: float, tol: float = DEFAULT_TOL
) -> QuadResult:
    """J(t) as the integral of C_1 = f1^2/f."""
    if t <= 0:
        raise ValueError("functionals along the flow need t > 0")
    return _flow_results(mix, t, [("C_1", entropy_derivative(1))], tol)[0]


def fisher(mix: GaussianMixture, t: float, tol: float = DEFAULT_TOL) -> float:
    """Fisher information (second moment of the score) at time t."""
    return fisher_result(mix, t, tol).value


def functional_result(
    comb: Combination, mix: GaussianMixture, t: float, tol: float = DEFAULT_TOL
) -> QuadResult:
    if t <= 0:
        raise ValueError("functionals along the flow need t > 0")
    if comb.is_zero():
        return QuadResult(0.0, 0.0)
    return _flow_results(mix, t, [("functional", comb)], tol)[0]


def functional(
    comb: Combination, mix: GaussianMixture, t: float, tol: float = DEFAULT_TOL
) -> float:
    """Integral over y of the combination evaluated on the flowed density.

    Monomials are evaluated as f * prod (f_m/f)^k with stable ratio
    averaging, so high powers like f1^8/f^7 stay finite in the tails.
    """
    return functional_result(comb, mix, t, tol).value


# ---------------------------------------------------------------------------
# Finite differences in t
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _central_stencil(n: int) -> Tuple[Tuple[int, float], ...]:
    """Centered stencil (offset, coefficient) with f^(n) ~ sum c f(t+k h) / h^n.

    Even orders use the plain binomial stencil; odd orders convolve the
    next-lower even stencil with the centered first difference, which
    keeps every point on the integer grid (2 ceil(n/2) + 1 points).
    """
    if n < 1:
        raise ValueError("derivative order must be >= 1")
    m = n if n % 2 == 0 else n - 1
    coeffs: Dict[int, float] = {}
    for k in range(m + 1):
        off = m // 2 - k
        coeffs[off] = coeffs.get(off, 0.0) + (-1.0) ** k * math.comb(m, k)
    if n % 2:
        odd: Dict[int, float] = {}
        for off, c in coeffs.items():
            odd[off + 1] = odd.get(off + 1, 0.0) + 0.5 * c
            odd[off - 1] = odd.get(off - 1, 0.0) - 0.5 * c
        coeffs = odd
    return tuple(sorted((off, c) for off, c in coeffs.items() if c))


@lru_cache(maxsize=None)
def _stencil_offsets(n: int) -> Tuple[int, ...]:
    """The stencil's points at steps h and h/2, in units of h/2."""
    stencil = _central_stencil(n)
    return tuple(sorted({2 * off for off, _ in stencil} | {off for off, _ in stencil}))


def _stencil_reach(n: int) -> int:
    return max(abs(off) for off, _ in _central_stencil(n))


def default_fd_step(mix: GaussianMixture, t: float, n: int) -> float:
    """Step scaled by the local smoothness scale of h, clamped inside (0, t).

    The entropy varies on the scale of the smallest flowed variance, so
    the step follows t + min variance; a pure-t step would be far too
    small when the mixture is much wider than t.
    """
    scale = t + min(v for _, _, v in mix.components)
    step = max(1e-3, 0.02 * scale)
    reach = _stencil_reach(n)
    return min(step, 0.9 * t / reach)


def fd_entropy_deriv_result(
    mix: GaussianMixture,
    t: float,
    n: int,
    step: Optional[float] = None,
    tol: float = DEFAULT_TOL,
) -> Tuple[float, float]:
    """Richardson-extrapolated central difference of entropy; returns (value, error).

    Both step levels (h and h/2) are evaluated on one shared quadrature
    mesh so the quadrature error varies smoothly across the stencil and
    cancels in the differences.  The error estimate combines the
    Richardson correction with a roundoff/quadrature floor.
    """
    return fd_entropy_derivs(mix, t, [n], step, tol)[n]


def fd_entropy_derivs(
    mix: GaussianMixture,
    t: float,
    orders: Sequence[int],
    step: Optional[float] = None,
    tol: float = DEFAULT_TOL,
) -> Dict[int, Tuple[float, float]]:
    """``fd_entropy_deriv_result`` of several orders, sharing their evaluations.

    Every stencil entropy is integrated on the panels that h(t)'s own tree
    accepts, as in the scan row at t.  An order's step depends only on its
    stencil's reach, so the orders of one reach share their stencil
    entropies, and each order's result is bit for bit what it gives alone
    and what the scan gives at t.
    """
    stencils = _fd_stencils(mix, t, orders, step)
    (h,) = _flow_results(mix, t, _ENTROPY, tol)
    return _fd_finish(mix, [t], [stencils], [h.panels], tol)[0]


def _fd_stencils(
    mix: GaussianMixture, t: float, orders: Sequence[int], step: Optional[float]
) -> List[Tuple[float, Tuple[int, ...], Tuple[int, ...]]]:
    """The fd stencils of flow time t: per distinct step h, its orders and their offsets.

    ``default_fd_step`` depends on the order only through its stencil
    reach, and it clamps a larger reach's step only when t is small, so at
    most flow times every order shares one step (7 stencil times for
    orders 1-4).  A stencil's offsets, in units of h/2, are the union of
    its orders', and those include the offsets of every stencil of smaller
    reach, so orders of several reaches that share a step share one set of
    stencil entropies.
    """
    by_reach: Dict[int, List[int]] = {}
    for n in orders:
        if n < 1:
            raise ValueError("derivative order must be >= 1")
        by_reach.setdefault(_stencil_reach(n), []).append(n)
    by_step: Dict[float, List[int]] = {}
    for reach, ns in by_reach.items():
        h = default_fd_step(mix, t, ns[0]) if step is None else float(step)
        if h <= 0 or t - reach * h <= 0:
            raise ValueError(f"step {h} reaches t <= 0 for order {ns[0]} at t = {t}")
        # _richardson divides by h**n and (h/2)**n: both must be normal floats
        n = max(ns)
        if not (-1022 <= n * math.log2(h / 2.0) and n * math.log2(h) < 1024):
            raise FlowRangeError(f"fd step {h} at t = {t}: h**{n} leaves float64's normal range", t)
        by_step.setdefault(h, []).extend(ns)
    return [
        (h, tuple(ns), tuple(sorted({off for n in ns for off in _stencil_offsets(n)})))
        for h, ns in by_step.items()
    ]


def _fd_finish(
    mix: GaussianMixture,
    ts: Sequence[float],
    stencils: Sequence[Sequence[Tuple[float, Tuple[int, ...], Tuple[int, ...]]]],
    panels: Sequence[np.ndarray],
    tol: float,
) -> List[Dict[int, Tuple[float, float]]]:
    """Each flow time's fd results from its ``_fd_stencils``, on the panels its h accepted.

    Every stencil time of every flow time is a job of its own, integrated
    on its flow time's panels, so the quadrature rule is the same at every
    stencil point and its error cancels in the differences; all of them
    take one ``integrate`` call.  Stencil times that round to the same
    float get the same bits.
    """
    jobs = [
        (i, t + off * (h / 2.0))
        for i, (t, steps) in enumerate(zip(ts, stencils))
        for h, _, offsets in steps
        for off in offsets
    ]
    windows = [mix.support_interval(t) for t in ts]
    _check_z(mix, [windows[i] for i, _ in jobs], [time for _, time in jobs], 2)
    rows = _flow_rows(mix, [time for _, time in jobs], _ENTROPY)
    entropies = iter(integrate([panels[i] for i, _ in jobs], rows))
    results = []
    for steps in stencils:
        fd = {}
        for h, orders, offsets in steps:
            h_at = {off: next(entropies)[0] for off in offsets}
            for n in orders:
                fd[n] = _richardson(n, h, h_at, tol)
        results.append(fd)
    return results


def _richardson(n: int, h: float, h_at: Dict[int, float], tol: float) -> Tuple[float, float]:
    """Order n's (value, error) from the entropies at its stencil offsets, in units of h/2."""
    stencil = _central_stencil(n)
    half = h / 2.0
    coarse = sum(c * h_at[2 * off] for off, c in stencil) / h**n
    fine = sum(c * h_at[off] for off, c in stencil) / half**n
    value = (4.0 * fine - coarse) / 3.0

    coeff_l1 = sum(abs(c) for _, c in stencil)
    eval_noise = tol + 1e-15 * max(abs(h_at[off]) for off in _stencil_offsets(n))
    roundoff = coeff_l1 * eval_noise * (1.0 / h**n + 4.0 / half**n) / 3.0
    error = abs(fine - coarse) / 3.0 + roundoff
    return value, error


def fd_entropy_deriv(
    mix: GaussianMixture,
    t: float,
    n: int,
    step: Optional[float] = None,
    tol: float = DEFAULT_TOL,
) -> float:
    """n-th t-derivative of entropy by central differences (symbolic-free oracle)."""
    value, error = fd_entropy_deriv_result(mix, t, n, step, tol)
    if abs(value) > 0 and error > 0.1 * abs(value):
        warnings.warn(
            f"order-{n} finite difference at t={t} has estimated error "
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
    no truncation term.
    """
    ts = np.asarray(ts, dtype=float)
    vals = np.asarray(values, dtype=float)
    errs = np.zeros_like(vals) if errors is None else np.asarray(errors, dtype=float)
    out = np.full_like(vals, np.nan)
    out_err = np.full_like(vals, np.nan)
    for i in range(1, len(ts) - 1):
        hp = ts[i + 1] - ts[i]
        hm = ts[i] - ts[i - 1]
        slope_up = (vals[i + 1] - vals[i]) / hp
        slope_dn = (vals[i] - vals[i - 1]) / hm
        out[i] = 2.0 * (slope_up - slope_dn) / (hp + hm)
        noise = (
            errs[i + 1] / hp + errs[i] * (1.0 / hp + 1.0 / hm) + errs[i - 1] / hm
        )
        out_err[i] = 2.0 * noise / (hp + hm)
    return out, out_err


def _has_both_signs(values: Iterable[Tuple[float, float]]) -> bool:
    """Among finite (value, error) pairs, one above 3 errors and one below -3 errors."""
    pos = neg = False
    for value, error in values:
        if not math.isfinite(value):
            continue
        if value > 3.0 * error:
            pos = True
        elif value < -3.0 * error:
            neg = True
    return pos and neg


def _sign_status(value: float, error: float, wanted: int) -> str:
    if abs(value) <= 3.0 * error:
        return "inconclusive"
    return "pass" if math.copysign(1.0, value) == wanted else "fail"


# ---------------------------------------------------------------------------
# Conjecture scan
# ---------------------------------------------------------------------------


@dataclass
class ScanRow:
    """Per-t record of the scan."""

    t: float
    h: float
    h_err: float
    J: float
    J_err: float
    d_fd: Tuple[Tuple[float, float], ...]  # (value, error) for n = 1..max_order
    d_sym: Tuple[float, ...]  # symbolic d^n h for n = 1..min(4, max_order)
    costa_margin: float  # -J' - J^2, zero for a single Gaussian
    costa_margin_err: float
    # per quadrature tree, h then C_1..C_k: False where it stopped short
    converged: Tuple[bool, ...]
    logJ_dd: float = math.nan
    logJ_dd_err: float = math.nan
    invJ_dd: float = math.nan
    invJ_dd_err: float = math.nan
    e2h_dd: float = math.nan
    e2h_dd_err: float = math.nan
    sign_status: Tuple[str, ...] = ()
    signs_ok: bool = True
    costa_ok: bool = True


@dataclass
class ScanResult:
    """Scan output plus the grid-level verdicts."""

    mixture: GaussianMixture
    max_order: int
    rows: List[ScanRow] = field(default_factory=list)

    def ts(self) -> np.ndarray:
        return np.array([r.t for r in self.rows])

    def column(self, name: str) -> np.ndarray:
        return np.array([getattr(r, name) for r in self.rows])

    def all_signs_ok(self) -> bool:
        return all(r.signs_ok for r in self.rows)

    def all_costa_ok(self) -> bool:
        return all(r.costa_ok for r in self.rows)

    def invJ_dd_has_both_signs(self) -> bool:
        """Both curvature signs present, each clearing its noise estimate."""
        return _has_both_signs((r.invJ_dd, r.invJ_dd_err) for r in self.rows)

    def stopped_short_rows(self) -> int:
        """Rows with a sign verdict left inconclusive by a tree that stopped short."""
        return sum(1 for r in self.rows if not all(r.converged))

    def logJ_convexity_violations(self) -> int:
        return sum(
            1 for r in self.rows if math.isfinite(r.logJ_dd) and r.logJ_dd < -3.0 * r.logJ_dd_err
        )


_SYM_ORDERS = 4


# Flow times refined as one forest.  A forest holds every tree of its
# times until they all end, so a long grid is refined this many times at a
# time and its memory stays that of one forest.
_FOREST_TIMES = 40


def _flow_batches(
    mix: GaussianMixture,
    ts: Sequence[float],
    quantities: Sequence[Tuple[str, Optional[Combination]]],
    tol: float,
) -> Iterator[Tuple[Sequence[float], List[List[QuadResult]]]]:
    """Each batch of ``_FOREST_TIMES`` flow times, with each quantity's result per time.

    A batch is one forest: every level of all its trees is refined together.
    """
    for i in range(0, len(ts), _FOREST_TIMES):
        batch = ts[i : i + _FOREST_TIMES]
        yield batch, refine(_flow_forest(mix, batch, quantities), tol, stacklevel=3)


def _scan_rows(
    mix: GaussianMixture, ts: Sequence[float], max_order: int, tol: float
) -> List[ScanRow]:
    """The scan's rows before the grid-level verdicts, from one forest per batch.

    Each flow time has one tree on which h and C_1..C_4 each accept their
    own panels.  The panels h accepts are its mesh: every fd stencil
    entropy of that time is integrated on it, all of the batch's in one
    ``integrate`` call.
    """
    sym_orders = min(_SYM_ORDERS, max_order)
    # h; C_1 and C_2 (which integrate to J and J') always; C_3, C_4 as the orders ask
    quantities = _ENTROPY + [
        (f"C_{n}", entropy_derivative(n)) for n in range(1, max(sym_orders, 2) + 1)
    ]
    fd_orders = range(1, max_order + 1)
    rows = []
    for batch, flows in _flow_batches(mix, ts, quantities, tol):
        stencils = [_fd_stencils(mix, t, fd_orders, None) for t in batch]
        fds = _fd_finish(mix, batch, stencils, [flow[0].panels for flow in flows], tol)
        for t, (h_res, *sym), fd in zip(batch, flows, fds):
            j_res = sym[0]
            _check_fisher(mix, j_res.value, t, t)
            d_sym = tuple(0.5 * r.value for r in sym[:sym_orders])
            jp = sym[1]
            costa_margin = -jp.value - j_res.value * j_res.value
            costa_err = 2.0 * tol + 2.0 * j_res.value * j_res.error + 1e-12 * abs(jp.value)
            costa_err += jp.error
            rows.append(
                ScanRow(
                    t=t,
                    h=h_res.value,
                    h_err=h_res.error,
                    J=j_res.value,
                    J_err=j_res.error,
                    d_fd=tuple(fd[n] for n in range(1, max_order + 1)),
                    d_sym=d_sym,
                    costa_margin=costa_margin,
                    costa_margin_err=costa_err,
                    converged=(h_res.converged, *(r.converged for r in sym)),
                )
            )
    return rows


def _check_fisher(mix: GaussianMixture, j: float, s: float, t: float) -> None:
    """Raise ``FlowRangeError`` at the grid's t if J at flow time s cannot be squared.

    The verdicts square J and divide by it.  J is about 1/(v + s) for the
    widest variance v, so the larger of the two is at fault.
    """
    if not sys.float_info.min <= j * j < math.inf:
        widest = int(np.argmax(mix.variances))
        raise FlowRangeError(
            f"J = {j!r} at t = {t!r}: J**2 leaves float64's normal range",
            t,
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
    if any(t <= 0 for t in ts) or sorted(ts) != ts:
        raise ValueError("grid must be positive and strictly increasing")
    rows = _scan_rows(mix, ts, max_order, tol)

    h_vals = [r.h for r in rows]
    h_errs = [r.h_err for r in rows]
    j_vals = [r.J for r in rows]
    j_errs = [r.J_err for r in rows]

    # per-point noise floors include one ulp of the stored value, which
    # dominates when the quadrature is machine-exact
    logj_dd, logj_err = second_difference(
        ts, np.log(j_vals), [max(e / v, 3e-16) for v, e in zip(j_vals, j_errs)]
    )
    invj_dd, invj_err = second_difference(
        ts,
        [1.0 / v for v in j_vals],
        [max(e / (v * v), 3e-16 / v) for v, e in zip(j_vals, j_errs)],
    )
    e2h = [math.exp(2.0 * v) for v in h_vals]
    e2h_dd, e2h_err = second_difference(
        ts, e2h, [2.0 * p * e for p, e in zip(e2h, h_errs)]
    )

    for i, row in enumerate(rows):
        row.logJ_dd = float(logj_dd[i])
        row.logJ_dd_err = float(logj_err[i])
        row.invJ_dd = float(invj_dd[i])
        row.invJ_dd_err = float(invj_err[i])
        row.e2h_dd = float(e2h_dd[i])
        row.e2h_dd_err = float(e2h_err[i])

        # a verdict rests on one tree: the fd orders' on h's, d_sym's order n on C_n's
        checks = [(n, v, e, row.converged[0]) for n, (v, e) in enumerate(row.d_fd, start=1)]
        checks += [(n, v, tol * 3, row.converged[n]) for n, v in enumerate(row.d_sym, start=1)]
        row.sign_status = tuple(
            _sign_status(value, error, 1 if n % 2 else -1) if done else "inconclusive"
            for n, value, error, done in checks
        )
        row.signs_ok = "fail" not in row.sign_status

        # (e^{2h})'' = e^{2h} (J^2 + J') makes this the entropy-power
        # concavity too; e2h_dd is its grid cross-check and gets no verdict
        row.costa_ok = row.costa_margin >= -3.0 * row.costa_margin_err

    return ScanResult(mix, max_order, rows)


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
        d_sym = [row.d_sym[i] if i < len(row.d_sym) else math.nan for i in range(4)]
        fields = (
            [_fmt(row.t), _fmt(row.h), _fmt(row.J)]
            + [_fmt(v) for v in d_fd]
            + [_fmt(v) for v in d_sym]
            + [_fmt(row.logJ_dd), _fmt(row.invJ_dd), _fmt(row.e2h_dd)]
            + [str(int(row.costa_ok)), str(int(row.signs_ok))]
        )
        lines.append(",".join(fields))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# The covariance-preserving interpolation W_t = sqrt(t) X + sqrt(1-t) Z
# ---------------------------------------------------------------------------


@dataclass
class WtRow:
    t: float
    s: float  # 1/t - 1, the equivalent flow time
    hW: float
    hW_err: float
    JW: float
    JW_err: float  # J(Y_s)'s quadrature error / t
    txz_margin: float  # -J'(Y_s) + t^2 - 2 t J(Y_s)
    txz_err: float
    hW_dd: float = math.nan
    hW_dd_err: float = math.nan
    JW_dd: float = math.nan
    JW_dd_err: float = math.nan

    @property
    def txz_ok(self) -> bool:  # the interpolation inequality, within 3 errors
        return self.txz_margin >= -3.0 * self.txz_err


@dataclass
class WtReport:
    mixture: GaussianMixture
    rows: List[WtRow]

    def concavity_ok(self) -> bool:
        return all(
            not math.isfinite(r.hW_dd) or r.hW_dd <= 1e-8 + 3.0 * r.hW_dd_err for r in self.rows
        )

    def txz_ok(self) -> bool:
        return all(r.txz_ok for r in self.rows)

    def jw_dd_has_both_signs(self) -> bool:
        """Both curvature signs present, each clearing its noise estimate."""
        return _has_both_signs((r.JW_dd, r.JW_dd_err) for r in self.rows)


def wt_checks(
    mix: GaussianMixture,
    t_grid: Sequence[float],
    tol: float = DEFAULT_TOL,
) -> WtReport:
    """Concavity/convexity checks for the interpolation on 0 < t < 1.

    Uses the scaling identity h(W_t) = h(X + sqrt(1/t - 1) Z) + log(t)/2
    and J(W_t) = J(X + sqrt(1/t - 1) Z) / t, so everything reduces to flow
    quantities at s = 1/t - 1.  A t whose s or J(Y_s)**2 leaves float64's
    range raises ``FlowRangeError`` at that t, as the scan does.
    """
    ts = [float(t) for t in t_grid]
    if any(not 0 < t < 1 for t in ts) or sorted(ts) != ts:
        raise ValueError("grid must lie strictly inside (0, 1) and increase")

    quantities = _ENTROPY + [("C_1", entropy_derivative(1)), ("C_2", entropy_derivative(2))]
    flow_times = [1.0 / t - 1.0 for t in ts]
    for t, s in zip(ts, flow_times):
        if not math.isfinite(s):
            raise FlowRangeError(f"s = 1/t - 1 at t = {t!r} overflows float64", t)
    flows = [flow for _, batch in _flow_batches(mix, flow_times, quantities, tol) for flow in batch]
    rows = []
    for t, s, (h_res, j_res, c2_res) in zip(ts, flow_times, flows):
        _check_fisher(mix, j_res.value, s, t)
        jprime = c2_res.value
        margin = -jprime + t * t - 2.0 * t * j_res.value
        margin_err = 2.0 * tol + 2.0 * t * j_res.error + c2_res.error
        rows.append(
            WtRow(
                t=t,
                s=s,
                hW=h_res.value + 0.5 * math.log(t),
                hW_err=h_res.error,
                JW=j_res.value / t,
                JW_err=j_res.error / t,
                txz_margin=margin,
                txz_err=margin_err,
            )
        )

    hw_dd, hw_err = second_difference(
        ts, [r.hW for r in rows], [r.hW_err for r in rows]
    )
    jw_dd, jw_err = second_difference(ts, [r.JW for r in rows], [r.JW_err for r in rows])
    for i, row in enumerate(rows):
        row.hW_dd = float(hw_dd[i])
        row.hW_dd_err = float(hw_err[i])
        row.JW_dd = float(jw_dd[i])
        row.JW_dd_err = float(jw_err[i])
    return WtReport(mix, rows)


WT_CSV_HEADER = "t,s,hW,JW,hW_dd,JW_dd,txz_margin,txz_ok"


def wt_to_csv(report: WtReport) -> str:
    lines = [WT_CSV_HEADER]
    for r in report.rows:
        lines.append(
            ",".join(
                [
                    _fmt(r.t),
                    _fmt(r.s),
                    _fmt(r.hW),
                    _fmt(r.JW),
                    _fmt(r.hW_dd),
                    _fmt(r.JW_dd),
                    _fmt(r.txz_margin),
                    str(int(r.txz_ok)),
                ]
            )
        )
    return "\n".join(lines) + "\n"
