"""Adaptive Gauss-Legendre quadrature on panel meshes.

All integrands here decay like Gaussians, so fixed-order Gauss-Legendre
panels with adaptive bisection converge fast.  Meshes are first-class:
callers that difference an integral in a parameter evaluate every shifted
integrand on one shared mesh, so quadrature error varies smoothly with
the parameter and cancels in the differences.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, List, Sequence, Tuple

import numpy as np

Integrand = Callable[[np.ndarray], np.ndarray]


class QuadratureNonConvergence(UserWarning):
    """Adaptive refinement hit its depth or panel limit before the tolerance."""


@lru_cache(maxsize=None)
def _gl_rule(order: int) -> Tuple[np.ndarray, np.ndarray]:
    nodes, weights = np.polynomial.legendre.leggauss(order)
    return nodes, weights


def _panel_values(
    fn: Integrand, panels: Sequence[Tuple[float, float]], order: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Each panel's half-width and ``fn`` at its nodes, from one call of ``fn``."""
    nodes, _ = _gl_rule(order)
    bounds = np.array(panels, dtype=float)
    mids = 0.5 * (bounds[:, 0] + bounds[:, 1])
    radii = 0.5 * (bounds[:, 1] - bounds[:, 0])
    vals = fn((mids[:, None] + radii[:, None] * nodes).ravel()).reshape(len(bounds), order)
    return radii, vals


def _panel_sums(radii: np.ndarray, vals: np.ndarray, order: int) -> List[float]:
    """Each panel's rule sum from its row of node values.

    Each panel is summed by its own ``np.dot`` so its value does not depend
    on which panels share the call; a matrix product reorders the sums and
    changes the last bits, which finite differences in t amplify.
    """
    _, weights = _gl_rule(order)
    return [float(r * np.dot(weights, row)) for r, row in zip(radii, vals)]


def _plain_sum(values: Sequence[float]) -> float:
    # a plain loop, not sum(): sum() compensates its rounding from
    # Python 3.12 on, which would change the last bits of the total
    total = 0.0
    for value in values:
        total += value
    return total


@dataclass(frozen=True)
class Mesh:
    """A fixed list of panels; integration on a mesh is non-adaptive.

    A mesh from ``build_mesh`` also keeps what bisection computed, so no
    panel is evaluated again: ``estimates`` holds, per panel, the first
    integrand's half-panel sum and its whole-panel value minus that sum
    (``adaptive_quad`` sums these), and ``totals`` holds each integrand's
    sum of whole-panel values, equal to ``integrate`` of that integrand.
    """

    panels: Tuple[Tuple[float, float], ...]
    order: int = 24
    estimates: Tuple[Tuple[float, float], ...] = field(default=(), compare=False, repr=False)
    totals: Tuple[float, ...] = field(default=(), compare=False, repr=False)

    def integrate(self, fn: Integrand) -> float:
        radii, vals = _panel_values(fn, self.panels, self.order)
        return _plain_sum(_panel_sums(radii, vals, self.order))


def build_mesh(
    integrands: Sequence[Integrand],
    a: float,
    b: float,
    tol: float = 1e-11,
    order: int = 24,
    initial_panels: int = 8,
    max_depth: int = 24,
    rel_floor: float = 5e-15,
    max_panels: int = 16384,
) -> Mesh:
    """Bisect panels until every integrand is locally converged.

    A panel is accepted when, for each integrand, the whole-panel rule and
    the two half-panel rules agree within the panel's share of ``tol`` or
    within ``rel_floor`` of the panel's own magnitude -- large integrals
    stop refining at machine precision instead of chasing an absolute
    target below roundoff.  Every abscissa is evaluated once: a child
    panel's whole-panel value is its parent's half-panel value.

    Bisection runs level by level: the halves of every panel open at one
    depth go to one call per integrand.  A level whose splits would take
    the mesh past ``max_panels`` accepts its open panels unconverged
    instead, so the mesh never has more than ``max(max_panels,
    initial_panels)`` panels.
    """
    width = b - a
    edges = [a + width * i / initial_panels for i in range(initial_panels + 1)]
    level = list(zip(edges[:-1], edges[1:]))
    # each integrand's whole-panel value on every panel of the level
    wholes = [_panel_sums(*_panel_values(fn, level, order), order) for fn in integrands]
    # (lo, hi, half-panel sum and whole minus halves of the first integrand,
    # whole-panel value of each integrand)
    accepted: List[Tuple[float, float, float, float, Tuple[float, ...]]] = []
    exhausted = False
    depth = 0
    while level:
        halves = []
        for lo, hi in level:
            mid = 0.5 * (lo + hi)
            halves += [(lo, mid), (mid, hi)]
        split = []
        for fn in integrands:
            radii, vals = _panel_values(fn, halves, order)
            # the L1 magnitude sets the roundoff floor: when the integrand
            # cancels within a panel, refinement below eps * magnitude
            # only chases noise
            split.append((_panel_sums(radii, vals, order), _panel_sums(radii, np.abs(vals), order)))
        keep, refine = [], []
        for i, (lo, hi) in enumerate(level):
            local_tol = tol * (hi - lo) / width
            ok = True
            for w, (vals, mags) in zip(wholes, split):
                halves_sum = vals[2 * i] + vals[2 * i + 1]
                floor = rel_floor * max(abs(w[i]), abs(halves_sum), mags[2 * i] + mags[2 * i + 1])
                if abs(w[i] - halves_sum) > max(local_tol, floor, 1e-300):
                    ok = False
            if ok or depth >= max_depth:
                exhausted = exhausted or not ok
                keep.append(i)
            else:
                refine.append(i)
        if len(accepted) + len(keep) + 2 * len(refine) > max_panels:
            exhausted = exhausted or bool(refine)
            keep += refine
            refine = []
        first = split[0][0]
        for i in keep:
            halves_sum = first[2 * i] + first[2 * i + 1]
            accepted.append(
                (*level[i], halves_sum, wholes[0][i] - halves_sum, tuple(w[i] for w in wholes))
            )
        level = [halves[2 * i + k] for i in refine for k in (0, 1)]
        wholes = [[vals[2 * i + k] for i in refine for k in (0, 1)] for vals, _ in split]
        depth += 1
    if exhausted:
        # the interval and panel count make each event's text distinct, so
        # the default warning filter shows every one, not one per call site
        warnings.warn(
            f"mesh refinement on [{a:.17g}, {b:.17g}] hit its depth or panel "
            f"limit at {len(accepted)} panels; result may miss tol {tol:.3g}",
            QuadratureNonConvergence,
            stacklevel=2,
        )
    accepted.sort(key=lambda p: p[:2])
    return Mesh(
        tuple(p[:2] for p in accepted),
        order,
        tuple(p[2:4] for p in accepted),
        tuple(_plain_sum(values) for values in zip(*(p[4] for p in accepted))),
    )


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
) -> QuadResult:
    """Integrate ``fn`` on [a, b] with an error estimate.

    The estimate is the half-panel refinement discrepancy summed over the
    accepted mesh (a conservative proxy for the true error of smooth
    integrands).
    """
    mesh = build_mesh([fn], a, b, tol, order, initial_panels, max_depth)
    total = 0.0
    err = 0.0
    for halves, diff in mesh.estimates:
        total += halves
        err += abs(diff)
    return QuadResult(total, max(err, 1e-16 * abs(total)))
