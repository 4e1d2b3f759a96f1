"""Adaptive Gauss-Legendre quadrature on panel meshes, refined as forests.

All integrands here decay like Gaussians, so fixed-order Gauss-Legendre
panels with adaptive bisection converge fast.  Meshes are first-class:
callers that difference an integral in a parameter evaluate every shifted
integrand on one shared mesh, so quadrature error varies smoothly with
the parameter and cancels in the differences.

An integrand maps an array of N abscissae to N values, or to a (k, N)
array: k rows that share their evaluation, such as several quantities at
one flow time or one quantity at several times.  An integrand may carry a
``labels`` attribute, one name per row, that non-convergence warnings
quote.

Bisection runs on forests: a ``Forest`` is one integrand over many
intervals, one job per interval, such as one flow time per job of a
scan.  ``refine`` bisects every tree of every job together, one level at
a time, so a level costs one integrand call for the whole forest, not one
per job.  A level is evaluated in chunks of at most ``_CHUNK_NODES``
abscissae, so the memory of a call does not grow with the forest.
``adaptive_quad`` and ``build_mesh`` are forests of one job, and
``integrate`` sums integrands on many meshes in one call per chunk.

No bit depends on which panels or jobs share a call: every value is
computed per abscissa; each panel's rule sum is one ``ddot`` of its own
contiguous row of values, batched by ``np.matmul`` (whose vector-vector
case is that same ``ddot``); the accept tests compare those sums
elementwise; and every total adds its panels strictly left to right.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, List, Sequence, Tuple, Union

import numpy as np

Integrand = Callable[[np.ndarray], np.ndarray]
# maps abscissae and the job index of each to a (rows, N) array
JobIntegrand = Callable[[np.ndarray, np.ndarray], np.ndarray]


class QuadratureNonConvergence(UserWarning):
    """Adaptive refinement hit its depth or panel limit before the tolerance."""


# Gauss-Legendre nodes per panel, and the panels of a tree before bisection
_ORDER = 24
_INITIAL_PANELS = 8
# a panel whose rules agree within this share of its own magnitude is
# accepted: refining further would only chase roundoff
_REL_FLOOR = 5e-15
# a tree's limits by default (adaptive_quad always uses _MAX_PANELS)
_MAX_DEPTH = 24
_MAX_PANELS = 16384
# abscissae per integrand call; a level of a forest takes as many calls as
# it has chunks, and a call's temporaries stay at a few MiB
_CHUNK_NODES = 16384


@lru_cache(maxsize=None)
def _gl_rule(order: int) -> Tuple[np.ndarray, np.ndarray]:
    nodes, weights = np.polynomial.legendre.leggauss(order)
    return nodes, weights


def _rule_sums(radii: np.ndarray, vals: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Each panel's rule sum from a (rows, panels, order) array of node values.

    The vector-vector case of ``np.matmul`` calls one ``ddot`` per panel
    and row, as ``np.dot`` does, so each sum has the bits of its own
    ``np.dot`` whatever else shares the call.  The rows must be contiguous:
    a strided ``ddot`` sums in another order.
    """
    vals = np.ascontiguousarray(vals)
    return radii * np.matmul(vals[..., None, :], weights[:, None])[..., 0, 0]


def _evaluate(
    fn: JobIntegrand,
    lo: np.ndarray,
    hi: np.ndarray,
    jobs: np.ndarray,
    order: int,
    magnitudes: bool = True,
) -> Tuple[np.ndarray, np.ndarray]:
    """Every row's rule sum on each panel and, if asked, the rule sum of its magnitude."""
    nodes, weights = _gl_rule(order)
    mids = 0.5 * (lo + hi)
    radii = 0.5 * (hi - lo)
    step = max(1, _CHUNK_NODES // order)
    sums, mags = [], []
    for start in range(0, lo.size, step):
        part = slice(start, start + step)
        y = (mids[part, None] + radii[part, None] * nodes).ravel()
        vals = np.asarray(fn(y, np.repeat(jobs[part], order)), dtype=float)
        vals = vals.reshape(-1, y.size // order, order)
        sums.append(_rule_sums(radii[part], vals, weights))
        if magnitudes:
            mags.append(_rule_sums(radii[part], np.abs(vals, out=vals), weights))
        del vals  # before the next chunk's values exist
    return np.concatenate(sums, axis=1), np.concatenate(mags, axis=1) if magnitudes else None


def _sequential_sums(values: np.ndarray, segments: np.ndarray, count: int) -> np.ndarray:
    """Each segment's sum, adding its values from 0.0 in the order given.

    ``np.add.at`` adds unbuffered, one value at a time in index order, so
    each segment gets the bits of ``_plain_sum``.
    """
    totals = np.zeros(count)
    np.add.at(totals, segments, values)
    return totals


def _plain_sum(values: Sequence[float]) -> float:
    # a plain loop, not sum(): sum() compensates its rounding from
    # Python 3.12 on, which would change the last bits of the total
    total = 0.0
    for value in values:
        total += value
    return total


@dataclass(frozen=True)
class Forest:
    """One integrand's bisection trees over many intervals, one job per interval.

    ``fn(y, jobs)`` gets abscissae and the job index of each and returns a
    new (rows, len(y)) array, which bisection may overwrite; every job has
    the same rows.  With ``joint`` a
    job's rows accept a panel together and share one mesh, and ``refine``
    returns a ``Mesh`` per job; otherwise each row accepts its panels by
    its own test, as if integrated alone, and ``refine`` returns a list of
    ``QuadResult``, one per row, per job.  ``labels`` holds, per job, one
    name per row for the non-convergence warnings.
    """

    fn: JobIntegrand
    spans: Sequence[Tuple[float, float]]
    joint: bool = False
    labels: Sequence[Sequence[str]] = ()


@dataclass
class _Bisected:
    """The accepted panels of a forest, one entry per (row, panel).

    ``counts`` and ``exhausted`` hold, per tree (a row, or all rows of a
    joint job) and job, the accepted panels and whether refinement stopped
    before the tolerance.
    """

    rows: int
    job: np.ndarray
    row: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    whole: np.ndarray
    halves: np.ndarray
    counts: np.ndarray
    exhausted: np.ndarray


def _per_tree(mask: np.ndarray, jobs: np.ndarray, count: int) -> np.ndarray:
    """The number of set entries of a (trees, panels) mask per tree and job."""
    trees = np.arange(mask.shape[0])[:, None] * count + jobs
    return np.bincount(trees[mask], minlength=mask.shape[0] * count).reshape(-1, count)


def _bisect(forest: Forest, tol: float, max_depth: int, max_panels: int) -> _Bisected:
    """Bisect every tree of every job of the forest, one level at a time.

    A tree accepts a panel when, for each of its rows, the whole-panel
    rule and the two half-panel rules agree within the panel's share of
    ``tol`` or within ``_REL_FLOOR`` of the panel's own magnitude -- large
    integrals stop refining at machine precision instead of chasing an
    absolute target below roundoff.  Every abscissa is evaluated once: a
    child panel's whole-panel value is its parent's half-panel value.

    Each level evaluates the halves of every panel that some tree still
    refines.  A tree's decisions rest on its own rows and job only, so it
    accepts exactly the panels it would accept refined alone.  A level
    whose splits would take a tree past ``max_panels`` accepts its open
    panels unconverged instead, so no tree has more than
    ``max(max_panels, _INITIAL_PANELS)`` panels.
    """
    spans = np.array(forest.spans, dtype=float).reshape(-1, 2)
    count = len(spans)
    a, width = spans[:, 0], spans[:, 1] - spans[:, 0]
    edges = a[:, None] + width[:, None] * np.arange(_INITIAL_PANELS + 1) / _INITIAL_PANELS
    lo, hi = edges[:, :-1].ravel(), edges[:, 1:].ravel()
    job = np.repeat(np.arange(count), _INITIAL_PANELS)
    wholes, _ = _evaluate(forest.fn, lo, hi, job, _ORDER, magnitudes=False)
    rows = len(wholes)
    trees = 1 if forest.joint else rows
    open_ = np.ones((trees, lo.size), dtype=bool)
    counts = np.zeros((trees, count), dtype=np.intp)
    exhausted = np.zeros((trees, count), dtype=bool)
    accepted = []
    depth = 0
    while lo.size:
        mid = 0.5 * (lo + hi)
        half_lo, half_hi = np.stack([lo, mid], 1).ravel(), np.stack([mid, hi], 1).ravel()
        sums, mags = _evaluate(forest.fn, half_lo, half_hi, np.repeat(job, 2), _ORDER)
        halves = sums[:, 0::2] + sums[:, 1::2]
        # the L1 magnitude sets the roundoff floor: when the integrand
        # cancels within a panel, refinement below eps * magnitude only
        # chases noise
        magnitude = mags[:, 0::2] + mags[:, 1::2]
        floor = _REL_FLOOR * np.maximum(np.maximum(np.abs(wholes), np.abs(halves)), magnitude)
        local_tol = tol * (hi - lo) / width[job]
        bad = np.abs(wholes - halves) > np.maximum(np.maximum(local_tol, floor), 1e-300)
        ok = ~bad.any(axis=0, keepdims=True) if forest.joint else ~bad
        stop = open_ if depth >= max_depth else open_ & ok
        deeper = open_ & ~stop
        capped = counts + _per_tree(stop, job, count) + 2 * _per_tree(deeper, job, count)
        capped = (capped > max_panels)[:, job]
        stop |= deeper & capped
        deeper &= ~capped
        exhausted |= _per_tree(stop & ~ok, job, count) > 0
        counts += _per_tree(stop, job, count)
        r, p = np.nonzero(np.broadcast_to(stop, wholes.shape) if forest.joint else stop)
        accepted.append((job[p], r, lo[p], hi[p], wholes[r, p], halves[r, p]))
        # the next level holds the halves of every panel some tree refines
        split = np.flatnonzero(deeper.any(axis=0))
        children = np.stack([2 * split, 2 * split + 1], 1).ravel()
        lo, hi, job = half_lo[children], half_hi[children], job[children // 2]
        wholes = sums[:, children]
        open_ = np.repeat(deeper[:, split], 2, axis=1)
        depth += 1
    fields_ = [np.concatenate(column) for column in zip(*accepted)]
    # each tree's panels left to right
    sort = np.lexsort((fields_[2], fields_[1], fields_[0]))
    return _Bisected(rows, *(column[sort] for column in fields_), counts, exhausted)


def _warn_exhausted(forests, bisected, tol, stacklevel) -> None:
    """One warning per tree that stopped short, job by job and, within a job, forest by forest."""
    for j in range(max(len(f.spans) for f in forests)):
        for forest, done in zip(forests, bisected):
            if j >= len(forest.spans):
                continue
            labels = forest.labels[j] if len(forest.labels) > j else ()
            named = len(labels) == done.rows
            a, b = forest.spans[j]
            for tree in np.flatnonzero(done.exhausted[:, j]):
                rows = range(done.rows) if forest.joint else [tree]
                names = ", ".join(dict.fromkeys(labels[r] for r in rows)) if named else ""
                # the quantity, interval and panel count make each event's
                # text distinct, so the default warning filter shows every
                # one, not one per call site
                warnings.warn(
                    f"mesh refinement{' for ' + names if names else ''} on "
                    f"[{a:.17g}, {b:.17g}] hit its depth or panel limit at "
                    f"{done.counts[tree, j]} panels; result may miss tol {tol:.3g}",
                    QuadratureNonConvergence,
                    stacklevel=stacklevel,
                )


@dataclass(frozen=True)
class Mesh:
    """A fixed list of panels; integration on a mesh is non-adaptive.

    A mesh from ``build_mesh`` or a joint ``Forest`` also keeps what
    bisection computed, so no panel is evaluated again: ``results`` holds
    each integrand row's ``QuadResult`` (see ``refine``); a one-row mesh's
    is ``adaptive_quad`` of that row, bit for bit.  ``integrate`` sums
    whole-panel values, the same rule for every integrand.
    """

    panels: Tuple[Tuple[float, float], ...]
    order: int = _ORDER
    results: Tuple[QuadResult, ...] = field(default=(), compare=False, repr=False)

    def integrate(self, fn: Integrand) -> Union[float, Tuple[float, ...]]:
        """The integral of ``fn`` on the mesh; a tuple, one per row, for an integrand of rows."""
        rows, ndims = _job_rows([fn])
        (totals,) = integrate([self], rows)
        return totals if max(ndims) > 1 else totals[0]


def integrate(meshes: Sequence[Mesh], fn: JobIntegrand) -> List[Tuple[float, ...]]:
    """Each row's integral on each mesh, as ``Mesh.integrate`` gives it.

    ``fn(y, jobs)`` gets the abscissae of all meshes, with the index of the
    mesh each belongs to, in one call per chunk; the meshes must share
    their rule order.
    """
    if not meshes:
        return []
    order = meshes[0].order
    if any(mesh.order != order for mesh in meshes):
        raise ValueError("meshes must share their rule order")
    bounds = np.array([p for mesh in meshes for p in mesh.panels], dtype=float).reshape(-1, 2)
    jobs = np.repeat(np.arange(len(meshes)), [len(mesh.panels) for mesh in meshes])
    sums, _ = _evaluate(fn, bounds[:, 0], bounds[:, 1], jobs, order, magnitudes=False)
    rows = len(sums)
    segments = (jobs * rows + np.arange(rows)[:, None]).ravel()
    totals = _sequential_sums(sums.ravel(), segments, len(meshes) * rows)
    return [tuple(part) for part in totals.reshape(len(meshes), rows).tolist()]


@dataclass(frozen=True)
class QuadResult:
    value: float
    error: float
    # False when refinement hit its depth or panel limit before the tolerance
    converged: bool = True


def refine(
    forests: Sequence[Forest],
    tol: float = 1e-11,
    max_depth: int = _MAX_DEPTH,
    max_panels: int = _MAX_PANELS,
    stacklevel: int = 2,
) -> List[List[Union[Mesh, List[QuadResult]]]]:
    """Bisect every forest; per forest, one result per job (see ``Forest``).

    A row's ``QuadResult`` sums its half-panel values over its accepted
    panels; the error estimate is the half-panel refinement discrepancy
    summed over them (a conservative proxy for the true error of smooth
    integrands).  Every tree that stops short of ``tol`` warns
    ``QuadratureNonConvergence``, in the order in which refining each job
    alone, forest by forest, would warn.
    """
    bisected = [_bisect(f, tol, max_depth, max_panels) for f in forests]
    _warn_exhausted(forests, bisected, tol, stacklevel + 1)
    return [_results(f, b) for f, b in zip(forests, bisected)]


def _results(forest: Forest, trees: _Bisected) -> List[Union[Mesh, List[QuadResult]]]:
    jobs = len(forest.spans)
    segments = trees.job * trees.rows + trees.row
    values = _sequential_sums(trees.halves, segments, jobs * trees.rows)
    errors = _sequential_sums(np.abs(trees.whole - trees.halves), segments, jobs * trees.rows)
    # a joint job has one tree for all its rows
    short = np.broadcast_to(trees.exhausted, (trees.rows, jobs)).T.ravel()
    results = [
        QuadResult(total, max(err, 1e-16 * abs(total)), not stopped)
        for total, err, stopped in zip(values.tolist(), errors.tolist(), short.tolist())
    ]
    by_job = [results[j * trees.rows : (j + 1) * trees.rows] for j in range(jobs)]
    if not forest.joint:
        return by_job
    first = trees.row == 0
    ends = np.cumsum(trees.counts[0]).tolist()
    panels = list(zip(trees.lo[first].tolist(), trees.hi[first].tolist()))
    return [
        Mesh(tuple(panels[end - n : end]), _ORDER, tuple(job))
        for n, end, job in zip(trees.counts[0].tolist(), ends, by_job)
    ]


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


def _one_job(fns: Sequence[Integrand], a: float, b: float, joint: bool) -> Tuple[Forest, list]:
    """A forest of one job whose rows are those of the plain integrands ``fns``."""
    rows, ndims = _job_rows(fns)
    labels = (tuple(label for fn in fns for label in getattr(fn, "labels", ())),)
    return Forest(rows, [(a, b)], joint, labels), ndims


def build_mesh(
    integrands: Sequence[Integrand],
    a: float,
    b: float,
    tol: float = 1e-11,
    max_depth: int = _MAX_DEPTH,
    max_panels: int = _MAX_PANELS,
) -> Mesh:
    """Bisect panels until every row of every integrand is locally converged.

    The test is joint: a panel is accepted only when every row accepts it,
    so all rows share one mesh (see ``_bisect`` for the test).
    """
    forest, _ = _one_job(integrands, a, b, True)
    ((mesh,),) = refine([forest], tol, max_depth, max_panels, stacklevel=3)
    return mesh


def adaptive_quad(
    fn: Integrand,
    a: float,
    b: float,
    tol: float = 1e-11,
    max_depth: int = _MAX_DEPTH,
) -> Union[QuadResult, List[QuadResult]]:
    """Integrate ``fn`` on [a, b] with an error estimate.

    For an integrand of rows the result is a list with one ``QuadResult``
    per row: all rows share one bisection tree, but each row accepts its
    panels by its own test, so each result, and each non-convergence
    warning, is exactly that of the row integrated alone.
    """
    forest, ndims = _one_job([fn], a, b, False)
    ((results,),) = refine([forest], tol, max_depth, stacklevel=3)
    return results if max(ndims) > 1 else results[0]
