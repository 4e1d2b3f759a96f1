"""Adaptive Gauss-Legendre quadrature on panel meshes.

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
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, List, Sequence, Tuple, Union

import numpy as np

Integrand = Callable[[np.ndarray], np.ndarray]


class QuadratureNonConvergence(UserWarning):
    """Adaptive refinement hit its depth or panel limit before the tolerance."""


# the defaults of build_mesh, and what adaptive_quad uses
_REL_FLOOR = 5e-15
_MAX_PANELS = 16384


@lru_cache(maxsize=None)
def _gl_rule(order: int) -> Tuple[np.ndarray, np.ndarray]:
    nodes, weights = np.polynomial.legendre.leggauss(order)
    return nodes, weights


def _panel_values(
    fns: Sequence[Integrand], panels: Sequence[Tuple[float, float]], order: int
) -> Tuple[np.ndarray, np.ndarray, bool]:
    """Each panel's half-width and every integrand row at its nodes.

    Each integrand is called once; the rows of all integrands are stacked
    into a (rows, panels, order) array.  The flag says whether some
    integrand returned rows rather than a single array of values.
    """
    nodes, _ = _gl_rule(order)
    bounds = np.array(panels, dtype=float)
    mids = 0.5 * (bounds[:, 0] + bounds[:, 1])
    radii = 0.5 * (bounds[:, 1] - bounds[:, 0])
    y = (mids[:, None] + radii[:, None] * nodes).ravel()
    outs = [np.asarray(fn(y), dtype=float) for fn in fns]
    vals = [out.reshape(-1, len(bounds), order) for out in outs]
    stacked = any(out.ndim > 1 for out in outs)
    return radii, vals[0] if len(vals) == 1 else np.concatenate(vals), stacked


def _panel_sums(radii: np.ndarray, vals: np.ndarray, order: int) -> List[float]:
    """Each panel's rule sum from its row of node values.

    Each panel is summed by its own ``np.dot`` so its value does not depend
    on which panels share the call; a matrix product reorders the sums and
    changes the last bits, which finite differences in t amplify.
    """
    dot = _gl_rule(order)[1].dot
    return [r * float(dot(row)) for r, row in zip(radii.tolist(), vals)]


def _plain_sum(values: Sequence[float]) -> float:
    # a plain loop, not sum(): sum() compensates its rounding from
    # Python 3.12 on, which would change the last bits of the total
    total = 0.0
    for value in values:
        total += value
    return total


@dataclass
class _Tree:
    """The panels that one group of integrand rows accepts by its own test.

    ``open`` indexes the panels of the current level that the group still
    refines, and ``wholes`` holds each row's whole-panel value on them.
    ``accepted`` holds (lo, hi, per row (whole-panel value, half-panel
    sum)).
    """

    rows: List[int]
    open: List[int]
    wholes: List[List[float]]
    accepted: List[Tuple[float, float, Tuple[Tuple[float, float], ...]]] = field(
        default_factory=list
    )
    exhausted: bool = False


def _bisect(
    fns: Sequence[Integrand],
    joint: bool,
    a: float,
    b: float,
    tol: float,
    order: int,
    initial_panels: int,
    max_depth: int,
    rel_floor: float,
    max_panels: int,
) -> Tuple[List[_Tree], bool]:
    """One bisection tree on which each row accepts its own panels, or all rows jointly.

    A group of rows accepts a panel when, for each of its rows, the
    whole-panel rule and the two half-panel rules agree within the panel's
    share of ``tol`` or within ``rel_floor`` of the panel's own magnitude --
    large integrals stop refining at machine precision instead of chasing
    an absolute target below roundoff.  Every abscissa is evaluated once: a
    child panel's whole-panel value is its parent's half-panel value.

    Bisection runs level by level: the halves of every panel that some
    group still refines go to one call per integrand.  A group's decisions
    rest on its own rows only, so it accepts exactly the panels it would
    accept refined alone.  A level whose splits would take a group past
    ``max_panels`` accepts its open panels unconverged instead, so no group
    has more than ``max(max_panels, initial_panels)`` panels.  Returns the
    groups' trees and whether the integrands returned rows.
    """
    width = b - a
    edges = [a + width * i / initial_panels for i in range(initial_panels + 1)]
    level = list(zip(edges[:-1], edges[1:]))
    radii, vals, stacked = _panel_values(fns, level, order)
    first = [_panel_sums(radii, row, order) for row in vals]
    rows = len(vals)
    groups = [range(rows)] if joint else [[r] for r in range(rows)]
    trees = [_Tree(list(g), list(range(len(level))), [first[r] for r in g]) for g in groups]
    depth = 0
    while level:
        halves = []
        for lo, hi in level:
            mid = 0.5 * (lo + hi)
            halves += [(lo, mid), (mid, hi)]
        radii, vals, _ = _panel_values(fns, halves, order)
        for tree in trees:
            if not tree.open:
                continue
            picks = [2 * i + k for i in tree.open for k in (0, 1)]
            own = picks if len(picks) < len(halves) else slice(None)
            own_radii = radii[own]
            # the L1 magnitude sets the roundoff floor: when the integrand
            # cancels within a panel, refinement below eps * magnitude
            # only chases noise
            split = []
            for r in tree.rows:
                row = vals[r][own]
                split.append(
                    (_panel_sums(own_radii, row, order), _panel_sums(own_radii, np.abs(row), order))
                )
            keep, refine = [], []
            for j, i in enumerate(tree.open):
                lo, hi = level[i]
                local_tol = tol * (hi - lo) / width
                ok = True
                for w, (sums, mags) in zip(tree.wholes, split):
                    halves_sum = sums[2 * j] + sums[2 * j + 1]
                    magnitude = mags[2 * j] + mags[2 * j + 1]
                    floor = rel_floor * max(abs(w[j]), abs(halves_sum), magnitude)
                    if abs(w[j] - halves_sum) > max(local_tol, floor, 1e-300):
                        ok = False
                if ok or depth >= max_depth:
                    tree.exhausted = tree.exhausted or not ok
                    keep.append(j)
                else:
                    refine.append(j)
            if len(tree.accepted) + len(keep) + 2 * len(refine) > max_panels:
                tree.exhausted = tree.exhausted or bool(refine)
                keep += refine
                refine = []
            for j in keep:
                records = tuple(
                    (w[j], sums[2 * j] + sums[2 * j + 1])
                    for w, (sums, _) in zip(tree.wholes, split)
                )
                tree.accepted.append((*level[tree.open[j]], records))
            tree.wholes = [[sums[2 * j + k] for j in refine for k in (0, 1)] for sums, _ in split]
            tree.open = [tree.open[j] for j in refine]
        # the next level holds the halves of every panel some group refines
        refined = sorted({i for tree in trees for i in tree.open})
        position = {i: p for p, i in enumerate(refined)}
        level = [halves[2 * i + k] for i in refined for k in (0, 1)]
        for tree in trees:
            tree.open = [2 * position[i] + k for i in tree.open for k in (0, 1)]
        depth += 1
    labels = [label for fn in fns for label in getattr(fn, "labels", ())]
    for tree in trees:
        tree.accepted.sort(key=lambda p: p[:2])
        if tree.exhausted:
            named = len(labels) == rows
            names = ", ".join(dict.fromkeys(labels[r] for r in tree.rows)) if named else ""
            # the quantity, interval and panel count make each event's text
            # distinct, so the default warning filter shows every one, not
            # one per call site
            warnings.warn(
                f"mesh refinement{' for ' + names if names else ''} on [{a:.17g}, {b:.17g}] "
                f"hit its depth or panel limit at {len(tree.accepted)} panels; "
                f"result may miss tol {tol:.3g}",
                QuadratureNonConvergence,
                stacklevel=3,
            )
    return trees, stacked


@dataclass(frozen=True)
class Mesh:
    """A fixed list of panels; integration on a mesh is non-adaptive.

    A mesh from ``build_mesh`` also keeps what bisection computed, so no
    panel is evaluated again: ``totals`` holds each integrand row's sum of
    whole-panel values, equal to ``integrate`` of that row.
    """

    panels: Tuple[Tuple[float, float], ...]
    order: int = 24
    totals: Tuple[float, ...] = field(default=(), compare=False, repr=False)

    def integrate(self, fn: Integrand) -> Union[float, Tuple[float, ...]]:
        """The integral of ``fn`` on the mesh; a tuple, one per row, for an integrand of rows."""
        radii, vals, stacked = _panel_values([fn], self.panels, self.order)
        totals = tuple(_plain_sum(_panel_sums(radii, row, self.order)) for row in vals)
        return totals if stacked else totals[0]


def build_mesh(
    integrands: Sequence[Integrand],
    a: float,
    b: float,
    tol: float = 1e-11,
    order: int = 24,
    initial_panels: int = 8,
    max_depth: int = 24,
    rel_floor: float = _REL_FLOOR,
    max_panels: int = _MAX_PANELS,
) -> Mesh:
    """Bisect panels until every row of every integrand is locally converged.

    The test is joint: a panel is accepted only when every row accepts it,
    so all rows share one mesh (see ``_bisect`` for the test).
    """
    (tree,), _ = _bisect(
        integrands, True, a, b, tol, order, initial_panels, max_depth, rel_floor, max_panels
    )
    wholes = zip(*((w for w, _ in records) for _, _, records in tree.accepted))
    return Mesh(tuple(p[:2] for p in tree.accepted), order, tuple(map(_plain_sum, wholes)))


@dataclass(frozen=True)
class QuadResult:
    value: float
    error: float


def adaptive_quad(
    fn: Integrand,
    a: float,
    b: float,
    tol: float = 1e-11,
    order: int = 24,
    initial_panels: int = 8,
    max_depth: int = 24,
) -> Union[QuadResult, List[QuadResult]]:
    """Integrate ``fn`` on [a, b] with an error estimate.

    The estimate is the half-panel refinement discrepancy summed over the
    accepted panels (a conservative proxy for the true error of smooth
    integrands).  For an integrand of rows the result is a list with one
    ``QuadResult`` per row: all rows share one bisection tree, but each
    row accepts its panels by its own test, so each result, and each
    non-convergence warning, is exactly that of the row integrated alone.
    """
    trees, stacked = _bisect(
        [fn], False, a, b, tol, order, initial_panels, max_depth, _REL_FLOOR, _MAX_PANELS
    )
    results = []
    for tree in trees:
        total = 0.0
        err = 0.0
        for _, _, ((whole, halves),) in tree.accepted:
            total += halves
            err += abs(whole - halves)
        results.append(QuadResult(total, max(err, 1e-16 * abs(total))))
    return results if stacked else results[0]
