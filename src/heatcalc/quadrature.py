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


def _panel_sums(
    fn: Integrand, panels: Sequence[Tuple[float, float]], order: int
) -> Tuple[List[float], List[float]]:
    """Each panel's integral of ``fn`` and of ``|fn|``, from one call of ``fn``.

    The L1 magnitude sets the roundoff floor: when the integrand cancels
    within a panel, refinement below eps * magnitude only chases noise.
    Each panel is summed by its own ``np.dot`` so its value does not depend
    on which panels share the call; a matrix product reorders the sums and
    changes the last bits, which finite differences in t amplify.
    """
    nodes, weights = _gl_rule(order)
    bounds = np.array(panels, dtype=float)
    mids = 0.5 * (bounds[:, 0] + bounds[:, 1])
    radii = 0.5 * (bounds[:, 1] - bounds[:, 0])
    vals = fn((mids[:, None] + radii[:, None] * nodes).ravel()).reshape(len(bounds), order)
    mags = np.abs(vals)
    return (
        [float(r * np.dot(weights, row)) for r, row in zip(radii, vals)],
        [float(r * np.dot(weights, row)) for r, row in zip(radii, mags)],
    )


@dataclass(frozen=True)
class Mesh:
    """A fixed list of panels; integration on a mesh is non-adaptive.

    ``estimates`` holds, for each panel of a mesh from ``build_mesh``, the
    first integrand's half-panel sum and its whole-panel value minus that
    sum, so ``adaptive_quad`` needs no second pass over the panels.
    """

    panels: Tuple[Tuple[float, float], ...]
    order: int = 24
    estimates: Tuple[Tuple[float, float], ...] = field(default=(), compare=False, repr=False)

    def integrate(self, fn: Integrand) -> float:
        # a plain loop, not sum(): sum() compensates its rounding from
        # Python 3.12 on, which would change the last bits of the total
        total = 0.0
        for value in _panel_sums(fn, self.panels, self.order)[0]:
            total += value
        return total


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
    """
    width = b - a
    edges = [a + width * i / initial_panels for i in range(initial_panels + 1)]
    first = list(zip(edges[:-1], edges[1:]))
    wholes = [_panel_sums(fn, first, order)[0] for fn in integrands]
    # (lo, hi, depth, whole-panel value of each integrand)
    stack: List[Tuple[float, float, int, Tuple[float, ...]]] = [
        (lo, hi, 0, tuple(w[i] for w in wholes)) for i, (lo, hi) in enumerate(first)
    ]
    # (lo, hi, half-panel sum, whole minus halves) of the first integrand
    accepted: List[Tuple[float, float, float, float]] = []
    exhausted = False
    while stack:
        lo, hi, depth, whole = stack.pop()
        mid = 0.5 * (lo + hi)
        local_tol = tol * (hi - lo) / width
        split = [_panel_sums(fn, [(lo, mid), (mid, hi)], order) for fn in integrands]
        ok = True
        for w, (vals, mags) in zip(whole, split):
            halves = vals[0] + vals[1]
            floor = rel_floor * max(abs(w), abs(halves), mags[0] + mags[1])
            if abs(w - halves) > max(local_tol, floor, 1e-300):
                ok = False
        if ok or depth >= max_depth or len(accepted) + len(stack) >= max_panels:
            if not ok:
                exhausted = True
            halves = split[0][0][0] + split[0][0][1]
            accepted.append((lo, hi, halves, whole[0] - halves))
        else:
            stack.append((lo, mid, depth + 1, tuple(vals[0] for vals, _ in split)))
            stack.append((mid, hi, depth + 1, tuple(vals[1] for vals, _ in split)))
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
        tuple(p[:2] for p in accepted), order, tuple(p[2:] for p in accepted)
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
