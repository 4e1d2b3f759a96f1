"""Adaptive Gauss-Legendre quadrature on panel meshes, refined as forests.

All integrands here decay like Gaussians, so fixed-order Gauss-Legendre
panels with adaptive bisection converge fast.

Bisection runs on forests: a ``Forest`` is one integrand of k rows that
share their evaluation, such as several quantities at one flow time, over
many intervals, one job per interval.  Every row of every job is a tree
that accepts its panels by its own test.  A row whose terms cancel can
name a magnitude row of the same integrand, the sum of its terms'
absolute values, that sets its roundoff floor; the magnitude rows get no
result, and any other row's floor is the absolute values of its own rule
sums.  ``refine`` bisects every tree of the forest together, one level at
a time, so a level costs one integrand call for the whole forest, not one
per job or row.  A level is evaluated in chunks of at most
``_CHUNK_NODES`` abscissae, so the memory of a call does not grow with
the forest.  Each ``QuadResult`` keeps the panels its row accepted, so a
row's own mesh comes with its integral.  A tree that stops short of the
tolerance, at the constant limits ``_MAX_DEPTH`` and ``_MAX_PANELS`` or
on a value that is not finite, has an infinite error and warns
``QuadratureNonConvergence``.

``adaptive_quad``, ``build_mesh`` and ``Mesh.integrate`` take one plain
integrand, which maps N abscissae to N values, and refuse a (k, N) array
of rows.

No bit depends on which panels, rows or jobs share a call: every value is
computed per abscissa; each panel's rule sum is one ``ddot`` of its own
contiguous row of values, batched by ``np.matmul`` (whose vector-vector
case is that same ``ddot``); the accept tests compare those sums
elementwise; and every total adds its panels strictly left to right.
"""

from __future__ import annotations

import warnings
from typing import Callable, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .records import FrozenRecord

Integrand = Callable[[np.ndarray], np.ndarray]
# maps abscissae and the job index of each to a (rows, N) array
JobIntegrand = Callable[[np.ndarray, np.ndarray], np.ndarray]


class QuadratureNonConvergence(UserWarning):
    """Adaptive refinement stopped short of the tolerance.

    It hit its depth or panel limit, or a panel whose rule sums are not finite.
    """


# the tolerance of every integral that is not given one
DEFAULT_TOL = 1e-11
# Gauss-Legendre nodes per panel, and the panels of a tree before bisection
_ORDER = 24
_INITIAL_PANELS = 8
# the abscissae of those panels: a tree's first nodes are spaced by its
# width over this many on average
INITIAL_NODES = _INITIAL_PANELS * _ORDER
# the rule of every panel, on [-1, 1]
_NODES, _WEIGHTS = np.polynomial.legendre.leggauss(_ORDER)
# a panel whose rules agree within this share of its magnitude is
# accepted: refining further would only chase roundoff
_REL_FLOOR = 5e-15
# a panel at least this deep whose discrepancy is within _NOISE_FLOORS
# roundoff floors and shrank by less than _NOISE_SHRINK on halving has
# reached its rounding noise, and is accepted too
_NOISE_DEPTH = 5
_NOISE_FLOORS = 64
_NOISE_SHRINK = 16
# every tree's limits, read when a forest is refined
_MAX_DEPTH = 24
_MAX_PANELS = 16384
# abscissae per integrand call; a level of a forest takes as many calls as
# it has chunks, and a call's temporaries stay at a few MiB
_CHUNK_NODES = 16384


def _rule_sums(radii: np.ndarray, vals: np.ndarray) -> np.ndarray:
    """Each panel's rule sum from a (rows, panels, order) array of node values.

    The vector-vector case of ``np.matmul`` calls one ``ddot`` per panel
    and row, as ``np.dot`` does, so each sum has the bits of its own
    ``np.dot`` whatever else shares the call.  The rows must be contiguous:
    a strided ``ddot`` sums in another order.
    """
    vals = np.ascontiguousarray(vals)
    return radii * np.matmul(vals[..., None, :], _WEIGHTS[:, None])[..., 0, 0]


def _evaluate(fn: JobIntegrand, lo: np.ndarray, hi: np.ndarray, jobs: np.ndarray) -> np.ndarray:
    """Every row's rule sum on each panel, a (rows, panels) array."""
    mids = 0.5 * (lo + hi)
    radii = 0.5 * (hi - lo)
    step = max(1, _CHUNK_NODES // _ORDER)
    sums = []
    for start in range(0, lo.size, step):
        part = slice(start, start + step)
        y = (mids[part, None] + radii[part, None] * _NODES).ravel()
        vals = np.asarray(fn(y, np.repeat(jobs[part], _ORDER)), dtype=float)
        sums.append(_rule_sums(radii[part], vals.reshape(-1, y.size // _ORDER, _ORDER)))
        del vals  # before the next chunk's values exist
    return np.concatenate(sums, axis=1)


def _sequential_sums(values: np.ndarray, segments: np.ndarray, count: int) -> np.ndarray:
    """Each segment's sum, adding its values from 0.0 in the order given.

    ``np.add.at`` adds unbuffered, one value at a time in index order, so
    each segment gets the bits of a plain loop of ``+=`` (not of ``sum()``,
    which compensates its rounding from Python 3.12 on).
    """
    totals = np.zeros(count)
    np.add.at(totals, segments, values)
    return totals


class Forest(NamedTuple):
    """One integrand's bisection trees over many intervals, one job per interval.

    ``fn(y, jobs)`` gets abscissae and the job index of each and returns a
    new (rows, len(y)) array, which bisection may overwrite; every job has
    the same rows, and each row accepts its panels by its own test, as if
    integrated alone.  A job's span is its breakpoints ``(a, ..., b)``: its
    trees start from ``_INITIAL_PANELS`` equal panels of [a, b], split at
    every interior breakpoint.  ``label(job, row)``, if given, names a
    tree in its non-convergence warning; it is called only for a tree
    that stops short.

    ``magnitudes`` holds, per result row, the row of ``fn`` that holds its
    magnitude, a nonnegative integrand at least as large as the row's
    absolute value, such as the sum of its terms' absolute values when the
    row is a sum that cancels.  Its integral sets the row's roundoff floor;
    a row that names itself takes the absolute values of its own
    half-panel rule sums.  The result rows are the first
    ``len(magnitudes)`` rows of ``fn``, and the rows after them are
    magnitude rows only, with no result.  By default every row is a result
    row and names itself.
    """

    fn: JobIntegrand
    spans: Sequence[Sequence[float]]
    label: Optional[Callable[[int, int], str]] = None
    magnitudes: Sequence[int] = ()


def _initial_panels(spans) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Every job's initial panels (lo, hi, job) and its width b - a."""
    ends = np.array([(span[0], span[-1]) for span in spans], dtype=float).reshape(-1, 2)
    width = ends[:, 1] - ends[:, 0]
    edges = ends[:, :1] + width[:, None] * np.arange(_INITIAL_PANELS + 1) / _INITIAL_PANELS
    edges = [
        np.union1d(row, span[1:-1]) if len(span) > 2 else row for row, span in zip(edges, spans)
    ]
    job = np.repeat(np.arange(len(edges)), [row.size - 1 for row in edges])
    lo = np.concatenate([row[:-1] for row in edges])
    return lo, np.concatenate([row[1:] for row in edges]), job, width


def _bisect(forest: Forest, tol: float) -> List[List[QuadResult]]:
    """Bisect every tree of every job of the forest, one level at a time; see ``refine``.

    A row accepts a panel when its whole-panel rule and its two half-panel
    rules agree within the panel's share of ``tol`` or within the roundoff
    floor, ``_REL_FLOOR`` of the panel's magnitude -- a sum that cancels
    stops refining at the rounding of its terms instead of chasing an
    absolute target below it.  From depth ``_NOISE_DEPTH`` on, a row also
    accepts a panel that has reached its rounding noise: its discrepancy
    is within ``_NOISE_FLOORS`` floors and shrank by less than
    ``_NOISE_SHRINK`` times from its parent's, where a smooth integrand's
    would shrink by orders of magnitude (QUADPACK's roundoff detection).
    Such a panel keeps its discrepancy as its error.  Every abscissa is
    evaluated once: a child panel's whole-panel value is its parent's
    half-panel value.

    Each level evaluates the halves of every panel that some row still
    refines.  A row's decisions rest on its own values and job only, so it
    accepts exactly the panels it would accept refined alone.  A level
    whose splits would take a tree past ``_MAX_PANELS`` accepts its open
    panels as they are instead, so no tree has more than ``_MAX_PANELS``
    panels, or its initial panels if those are more; a panel at depth
    ``_MAX_DEPTH`` is accepted as it is.
    """
    lo, hi, job, width = _initial_panels(forest.spans)
    count = width.size
    sums = _evaluate(forest.fn, lo, hi, job)
    rows = len(forest.magnitudes) or len(sums)
    wholes = sums[:rows]
    magnitudes = np.array(forest.magnitudes or range(rows), dtype=np.intp)
    open_ = np.ones((rows, lo.size), dtype=bool)
    # each open panel's parent discrepancy, none at the first level
    parent = np.full((rows, lo.size), np.inf)
    # each tree's accepted panels plus its open ones
    sizes = np.tile(np.bincount(job, minlength=count), (rows, 1))
    accepted = []
    depth = 0
    while lo.size:
        mid = 0.5 * (lo + hi)
        half_lo, half_hi = np.stack([lo, mid], 1).ravel(), np.stack([mid, hi], 1).ravel()
        sums = _evaluate(forest.fn, half_lo, half_hi, np.repeat(job, 2))
        # a magnitude row is nonnegative, so abs leaves its rule sums as they
        # are; a row that names itself takes the absolute values of its own
        mags = np.abs(sums[magnitudes])
        sums = sums[:rows]
        halves = sums[:, 0::2] + sums[:, 1::2]
        # at least |halves|: a magnitude row is at least its row's absolute
        # value at every node, and rounding keeps |s0 + s1| <= |s0| + |s1|
        magnitude = mags[:, 0::2] + mags[:, 1::2]
        floor = _REL_FLOOR * np.maximum(np.abs(wholes), magnitude)
        local_tol = tol * (hi - lo) / width[job]
        # a panel whose rule sums are not finite stops at once, short of
        # tol: bisecting it can only find more of the same
        finite = np.isfinite(wholes) & np.isfinite(halves)
        with np.errstate(invalid="ignore"):
            discrepancy = np.abs(wholes - halves)
        ok = finite & ~(discrepancy > np.maximum(np.maximum(local_tol, floor), 1e-300))
        if depth >= _NOISE_DEPTH:
            noise = (discrepancy <= _NOISE_FLOORS * floor) & (_NOISE_SHRINK * discrepancy > parent)
            ok |= finite & noise
        # a panel's value is known no better than its roundoff floor; one that
        # stops short of its test has no bound, and neither has its tree
        error = np.where(ok, np.maximum(discrepancy, floor), np.inf)
        deeper = open_ & ~ok & finite & (depth < _MAX_DEPTH)
        # each split adds one panel to its tree; a tree that would pass
        # _MAX_PANELS splits none
        trees = np.arange(rows)[:, None] * count + job
        grown = sizes + np.bincount(trees[deeper], minlength=rows * count).reshape(rows, count)
        capped = grown > _MAX_PANELS
        deeper &= ~capped[:, job]
        sizes = np.where(capped, sizes, grown)
        r, p = np.nonzero(open_ & ~deeper)
        accepted.append((job[p], r, lo[p], hi[p], error[r, p], halves[r, p]))
        # the next level holds the halves of every panel some row refines
        split = np.flatnonzero(deeper.any(axis=0))
        children = np.stack([2 * split, 2 * split + 1], 1).ravel()
        lo, hi, job = half_lo[children], half_hi[children], job[children // 2]
        wholes = sums[:, children]
        open_ = np.repeat(deeper[:, split], 2, axis=1)
        parent = np.repeat(discrepancy[:, split], 2, axis=1)
        depth += 1
    job, row, lo, hi, error, halves = [np.concatenate(column) for column in zip(*accepted)]
    # the trees by job, then row, and each tree's panels left to right
    sort = np.lexsort((lo, row, job))
    segments = (job * rows + row)[sort]
    values = _sequential_sums(halves[sort], segments, count * rows)
    errors = _sequential_sums(error[sort], segments, count * rows)
    # adding n panel values rounds by at most n eps times their magnitudes
    sizes = sizes.T.ravel()
    absolute = _sequential_sums(np.abs(halves[sort]), segments, count * rows)
    errors += sizes * np.finfo(float).eps * absolute
    # rule sums that are not finite can make a tree's sum nan: no bound either
    errors[np.isnan(errors)] = np.inf
    panels = np.stack([lo, hi], axis=1)[sort]
    panels.flags.writeable = False
    ends = np.cumsum(sizes).tolist()
    results = [
        QuadResult(total, err, panels[end - n : end])
        for total, err, n, end in zip(values.tolist(), errors.tolist(), sizes.tolist(), ends)
    ]
    return [results[j * rows : (j + 1) * rows] for j in range(count)]


def _warn_exhausted(forest: Forest, results: List[List[QuadResult]], tol: float) -> None:
    """One warning per tree whose error is infinite, job by job and, within a job, row by row."""
    for j, (span, rows) in enumerate(zip(forest.spans, results)):
        for row, result in enumerate(rows):
            if result.error != np.inf:
                continue
            name = f" for {forest.label(j, row)}" if forest.label else ""
            # the quantity, interval and panel count make each event's
            # text distinct, so the default warning filter shows every
            # one, not one per call site
            warnings.warn(
                f"mesh refinement{name} on "
                f"[{span[0]:.17g}, {span[-1]:.17g}] stopped at {len(result.panels)} panels "
                f"on its depth or panel limit or a value that is not finite; "
                f"result may miss tol {tol:.3g}",
                QuadratureNonConvergence,
                stacklevel=3,  # at the line that called refine
            )


def _one_row(fn: Integrand) -> JobIntegrand:
    """The plain integrand ``fn`` as a forest integrand of one row; rows raise ``ValueError``."""

    def row(y, jobs):
        out = np.asarray(fn(y), dtype=float)
        if out.ndim > 1:
            raise ValueError(f"one integrand row, not {len(out)}: values of shape {out.shape}")
        return out[None]

    return row


class Mesh(NamedTuple):
    """A fixed list of panels; integration on a mesh is non-adaptive.

    ``integrate`` sums whole-panel values, the same rule for every integrand.
    """

    panels: Tuple[Tuple[float, float], ...]
    # Gauss-Legendre nodes per panel: a class attribute, the same for every
    # mesh, and not a field; perfbench's tracer reads it
    order = _ORDER

    def integrate(self, fn: Integrand) -> float:
        """The integral of the one row of ``fn`` on the mesh."""
        bounds = np.array(self.panels, dtype=float).reshape(-1, 2)
        jobs = np.zeros(len(bounds), np.intp)
        (sums,) = _evaluate(_one_row(fn), bounds[:, 0], bounds[:, 1], jobs)
        return float(_sequential_sums(sums, np.zeros(sums.size, np.intp), 1)[0])


class QuadResult(FrozenRecord):
    value: float
    # inf when refinement stopped short of the tolerance: at its depth or
    # panel limit, or on a panel whose rule sums are not finite
    error: float
    # the panels the row accepted, left to right, as read-only (lo, hi)
    # rows; none when no bisection computed the value
    panels: np.ndarray
    _uncompared = ("panels",)

    # a scan builds one per tree: the base class's binding would take about 4 times as long
    def __init__(self, value: float, error: float, panels: Optional[np.ndarray] = None) -> None:
        panels = np.empty((0, 2)) if panels is None else panels
        vars(self).update(value=value, error=error, panels=panels)

    def mesh(self) -> Mesh:
        """The row's own mesh: the panels it accepted."""
        return Mesh(tuple(map(tuple, self.panels.tolist())))


def refine(forest: Forest, tol: float = DEFAULT_TOL) -> List[List[QuadResult]]:
    """Bisect every tree of the forest; per job, one ``QuadResult`` per row.

    A row's ``QuadResult`` sums its half-panel values over its accepted
    panels.  Its error adds, per panel, the half-panel refinement
    discrepancy (a conservative proxy for the truncation error of smooth
    integrands) or the panel's roundoff floor where that is larger, and
    n eps times the sum of the n panel values' magnitudes for the rounding
    of their total.  A tree that stops short of ``tol`` has an infinite
    error and warns ``QuadratureNonConvergence``, in the order in which
    refining each job alone would warn.
    """
    results = _bisect(forest, tol)
    _warn_exhausted(forest, results, tol)
    return results


def build_mesh(integrands: Sequence[Integrand], a: float, b: float) -> Mesh:
    """The panels on which ``adaptive_quad`` of the one integrand in ``integrands`` sums."""
    # each row has a mesh of its own
    if len(integrands) != 1:
        raise ValueError(f"build_mesh takes one integrand row, not {len(integrands)}")
    return adaptive_quad(integrands[0], a, b).mesh()


def adaptive_quad(fn: Integrand, a: float, b: float) -> QuadResult:
    """Integrate the one row of ``fn`` on [a, b] with an error estimate."""
    ((result,),) = refine(Forest(_one_row(fn), [(a, b)]))
    return result
