"""Adaptive Gauss-Legendre quadrature on panel meshes, refined as forests.

All integrands here decay like Gaussians, so fixed-order Gauss-Legendre
panels with adaptive bisection converge fast.

An integrand maps an array of N abscissae to N values, or to a (k, N)
array: k rows that share their evaluation, such as several quantities at
one flow time.  An integrand may carry a ``labels`` attribute, one name
per row, that non-convergence warnings quote.

Bisection runs on forests: a ``Forest`` is one integrand over many
intervals, one job per interval, such as one flow time per job of a
scan.  Every row of every job is a tree that accepts its panels by its
own test.  A row whose terms cancel can name a magnitude row of the same
integrand, the sum of its terms' absolute values, that sets its roundoff
floor; the magnitude rows get no result, and any other row's floor is
the absolute values of its own rule sums.  ``refine`` bisects every tree
of the forest together, one level at a time, so a level costs one
integrand call for the whole forest, not one per job or row.  A level is
evaluated in chunks of at most ``_CHUNK_NODES`` abscissae, so the memory
of a call does not grow with the forest.  Each ``QuadResult`` keeps the
panels its row accepted, so a row's own mesh comes with its integral.
``adaptive_quad`` and ``build_mesh`` are forests of one job, and
``Mesh.integrate`` sums an integrand's whole-panel values on fixed panels.

No bit depends on which panels, rows or jobs share a call: every value is
computed per abscissa; each panel's rule sum is one ``ddot`` of its own
contiguous row of values, batched by ``np.matmul`` (whose vector-vector
case is that same ``ddot``); the accept tests compare those sums
elementwise; and every total adds its panels strictly left to right.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Callable, ClassVar, List, Sequence, Tuple, Union

import numpy as np

Integrand = Callable[[np.ndarray], np.ndarray]
# maps abscissae and the job index of each to a (rows, N) array
JobIntegrand = Callable[[np.ndarray, np.ndarray], np.ndarray]


class QuadratureNonConvergence(UserWarning):
    """Adaptive refinement hit its depth or panel limit before the tolerance."""


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
# a tree's limits by default (adaptive_quad always uses _MAX_PANELS)
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


@dataclass(frozen=True)
class Forest:
    """One integrand's bisection trees over many intervals, one job per interval.

    ``fn(y, jobs)`` gets abscissae and the job index of each and returns a
    new (rows, len(y)) array, which bisection may overwrite; every job has
    the same rows, and each row accepts its panels by its own test, as if
    integrated alone.  A job's span is its breakpoints ``(a, ..., b)``: its
    trees start from ``_INITIAL_PANELS`` equal panels of [a, b], split at
    every interior breakpoint.  ``labels`` holds, per job, one name per
    row for the non-convergence warnings.

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
    labels: Sequence[Sequence[str]] = ()
    magnitudes: Sequence[int] = ()


def _per_tree(mask: np.ndarray, jobs: np.ndarray, count: int) -> np.ndarray:
    """The number of set entries of a (rows, panels) mask per row and job."""
    trees = np.arange(mask.shape[0])[:, None] * count + jobs
    return np.bincount(trees[mask], minlength=mask.shape[0] * count).reshape(-1, count)


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


def _bisect(forest: Forest, tol: float, max_depth: int, max_panels: int) -> List[List[QuadResult]]:
    """Bisect every tree of every job of the forest, one level at a time; see ``refine``.

    A row accepts a panel when its whole-panel rule and its two half-panel
    rules agree within the panel's share of ``tol`` or within the roundoff
    floor, ``_REL_FLOOR`` of the panel's magnitude -- a sum that cancels
    stops refining at the rounding of its terms instead of chasing an
    absolute target below it.  Every abscissa is evaluated once: a child
    panel's whole-panel value is its parent's half-panel value.

    Each level evaluates the halves of every panel that some row still
    refines.  A row's decisions rest on its own values and job only, so it
    accepts exactly the panels it would accept refined alone.  A level
    whose splits would take a tree past ``max_panels`` accepts its open
    panels unconverged instead, so no tree has more than ``max_panels``
    panels, or its initial panels if those are more.
    """
    lo, hi, job, width = _initial_panels(forest.spans)
    count = width.size
    sums = _evaluate(forest.fn, lo, hi, job)
    rows = len(forest.magnitudes) or len(sums)
    wholes = sums[:rows]
    magnitudes = np.array(forest.magnitudes or range(rows), dtype=np.intp)
    open_ = np.ones((rows, lo.size), dtype=bool)
    counts = np.zeros((rows, count), dtype=np.intp)
    exhausted = np.zeros((rows, count), dtype=bool)
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
        discrepancy = np.abs(wholes - halves)
        ok = ~(discrepancy > np.maximum(np.maximum(local_tol, floor), 1e-300))
        # a panel's value is known no better than its roundoff floor
        error = np.maximum(discrepancy, floor)
        stop = open_ if depth >= max_depth else open_ & ok
        deeper = open_ & ~stop
        capped = counts + _per_tree(stop, job, count) + 2 * _per_tree(deeper, job, count)
        capped = (capped > max_panels)[:, job]
        stop |= deeper & capped
        deeper &= ~capped
        exhausted |= _per_tree(stop & ~ok, job, count) > 0
        counts += _per_tree(stop, job, count)
        r, p = np.nonzero(stop)
        accepted.append((job[p], r, lo[p], hi[p], error[r, p], halves[r, p]))
        # the next level holds the halves of every panel some row refines
        split = np.flatnonzero(deeper.any(axis=0))
        children = np.stack([2 * split, 2 * split + 1], 1).ravel()
        lo, hi, job = half_lo[children], half_hi[children], job[children // 2]
        wholes = sums[:, children]
        open_ = np.repeat(deeper[:, split], 2, axis=1)
        depth += 1
    job, row, lo, hi, error, halves = [np.concatenate(column) for column in zip(*accepted)]
    # the trees by job, then row, and each tree's panels left to right
    sort = np.lexsort((lo, row, job))
    segments = (job * rows + row)[sort]
    values = _sequential_sums(halves[sort], segments, count * rows)
    errors = _sequential_sums(error[sort], segments, count * rows)
    # adding n panel values rounds by at most n eps times their magnitudes
    sizes = counts.T.ravel()
    absolute = _sequential_sums(np.abs(halves[sort]), segments, count * rows)
    errors += sizes * np.finfo(float).eps * absolute
    panels = np.stack([lo, hi], axis=1)[sort]
    panels.flags.writeable = False
    ends = np.cumsum(sizes).tolist()
    results = [
        QuadResult(total, err, not stopped, panels[end - n : end])
        for total, err, stopped, n, end in zip(
            values.tolist(), errors.tolist(), exhausted.T.ravel().tolist(), sizes.tolist(), ends
        )
    ]
    return [results[j * rows : (j + 1) * rows] for j in range(count)]


def _warn_exhausted(
    forest: Forest, results: List[List[QuadResult]], tol: float, stacklevel: int
) -> None:
    """One warning per tree that stopped short, job by job and, within a job, row by row."""
    for j, (span, rows) in enumerate(zip(forest.spans, results)):
        labels = forest.labels[j] if len(forest.labels) > j else ()
        for row, result in enumerate(rows):
            if result.converged:
                continue
            name = labels[row] if len(labels) == len(rows) else ""
            # the quantity, interval and panel count make each event's
            # text distinct, so the default warning filter shows every
            # one, not one per call site
            warnings.warn(
                f"mesh refinement{' for ' + name if name else ''} on "
                f"[{span[0]:.17g}, {span[-1]:.17g}] hit its depth or panel limit at "
                f"{len(result.panels)} panels; result may miss tol {tol:.3g}",
                QuadratureNonConvergence,
                stacklevel=stacklevel,
            )


@dataclass(frozen=True)
class Mesh:
    """A fixed list of panels; integration on a mesh is non-adaptive.

    ``integrate`` sums whole-panel values, the same rule for every integrand.
    """

    panels: Tuple[Tuple[float, float], ...]
    # Gauss-Legendre nodes per panel, the same for every mesh; perfbench's
    # tracer reads it
    order: ClassVar[int] = _ORDER

    def integrate(self, fn: Integrand) -> Union[float, Tuple[float, ...]]:
        """The integral of ``fn`` on the mesh; a tuple, one per row, for an integrand of rows."""
        rows, ndims = _job_rows([fn])
        bounds = np.array(self.panels, dtype=float).reshape(-1, 2)
        sums = _evaluate(rows, bounds[:, 0], bounds[:, 1], np.zeros(len(bounds), np.intp))
        segments = np.repeat(np.arange(len(sums)), sums.shape[1])
        totals = tuple(_sequential_sums(sums.ravel(), segments, len(sums)).tolist())
        return totals if max(ndims) > 1 else totals[0]


@dataclass(frozen=True)
class QuadResult:
    value: float
    error: float
    # False when refinement hit its depth or panel limit before the tolerance
    converged: bool = True
    # the panels the row accepted, left to right, as read-only (lo, hi)
    # rows; none when no bisection computed the value
    panels: np.ndarray = field(default_factory=lambda: np.empty((0, 2)), compare=False, repr=False)

    def mesh(self) -> Mesh:
        """The row's own mesh: the panels it accepted."""
        return Mesh(tuple(map(tuple, self.panels.tolist())))


def refine(
    forest: Forest,
    tol: float = 1e-11,
    max_depth: int = _MAX_DEPTH,
    max_panels: int = _MAX_PANELS,
    stacklevel: int = 2,
) -> List[List[QuadResult]]:
    """Bisect every tree of the forest; per job, one ``QuadResult`` per row.

    A row's ``QuadResult`` sums its half-panel values over its accepted
    panels.  Its error adds, per panel, the half-panel refinement
    discrepancy (a conservative proxy for the truncation error of smooth
    integrands) or the panel's roundoff floor where that is larger, and
    n eps times the sum of the n panel values' magnitudes for the rounding
    of their total.  Every tree that stops short of ``tol`` warns
    ``QuadratureNonConvergence``, in the order in which refining each job
    alone would warn.
    """
    results = _bisect(forest, tol, max_depth, max_panels)
    _warn_exhausted(forest, results, tol, stacklevel + 1)
    return results


def _job_rows(fns: Sequence[Integrand]) -> Tuple[JobIntegrand, List[int]]:
    """A one-job integrand whose rows are those of the plain integrands ``fns``.

    The list fills with the number of dimensions of each value they return.
    """
    ndims = []

    def rows(y, jobs):
        outs = [np.asarray(fn(y), dtype=float) for fn in fns]
        ndims.extend(out.ndim for out in outs)
        return np.concatenate([out.reshape(-1, y.size) for out in outs])

    return rows, ndims


def _one_job(fns: Sequence[Integrand], a: float, b: float) -> Tuple[Forest, list]:
    """A forest of one job whose rows are those of the plain integrands ``fns``."""
    rows, ndims = _job_rows(fns)
    labels = (tuple(label for fn in fns for label in getattr(fn, "labels", ())),)
    return Forest(rows, [(a, b)], labels), ndims


def build_mesh(
    integrands: Sequence[Integrand],
    a: float,
    b: float,
    tol: float = 1e-11,
    max_depth: int = _MAX_DEPTH,
    max_panels: int = _MAX_PANELS,
) -> Mesh:
    """The mesh of the one row of ``integrands``: the panels its bisection accepts.

    These are the panels on which ``adaptive_quad`` of that row sums its
    result.  Integrands with more than one row raise ``ValueError``: each
    row has a mesh of its own.
    """
    forest, _ = _one_job(integrands, a, b)
    (results,) = refine(forest, tol, max_depth, max_panels, stacklevel=3)
    if len(results) != 1:
        raise ValueError(f"build_mesh takes one integrand row, not {len(results)}")
    return results[0].mesh()


def adaptive_quad(
    fn: Integrand,
    a: float,
    b: float,
    tol: float = 1e-11,
    max_depth: int = _MAX_DEPTH,
) -> Union[QuadResult, List[QuadResult]]:
    """Integrate ``fn`` on [a, b] with an error estimate.

    For an integrand of rows the result is a list with one ``QuadResult``
    per row: all rows share one bisection forest, but each row accepts its
    panels by its own test, so each result, and each non-convergence
    warning, is exactly that of the row integrated alone.
    """
    forest, ndims = _one_job([fn], a, b)
    (results,) = refine(forest, tol, max_depth, stacklevel=3)
    return results if max(ndims) > 1 else results[0]
