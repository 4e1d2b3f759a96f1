"""Finite Gaussian mixtures under the additive-noise heat flow.

Adding independent noise ``sqrt(t) Z`` to a mixture shifts every
component variance by t, so densities, spatial derivatives, and the
derivative ratios f_m/f have closed forms at all t > 0.  Derivatives use
probabilists' Hermite polynomials,

    d^m/dy^m phi(y; mu, s) = phi * (-1)^m He_m(z) / s^(m/2),   z = (y-mu)/sqrt(s),

and ratios are computed as posterior-weighted averages of per-component
terms with log-sum-exp weights.  That form never divides by a tiny
density, which matters for monomials like f1^8/f^7 far into the tails.

There is one kernel, ``map_flow``: it flows each node to its job's time
and hands every block of nodes to an epilogue.  ``log_density`` and
``log_density_and_ratios`` are that kernel at one flow time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Tuple

import numpy as np

_LOG_2PI = math.log(2.0 * math.pi)
WINDOW_SIGMAS = 12.0  # the integration window's padding, in flow standard deviations


@dataclass(frozen=True)
class GaussianMixture:
    """Mixture of normals: tuple of (weight, mean, variance) components."""

    components: Tuple[Tuple[float, float, float], ...]

    def __post_init__(self):
        if not self.components:
            raise ValueError("mixture needs at least one component")
        total = 0.0
        for w, _, v in self.components:
            if w <= 0:
                raise ValueError(f"component weight {w} must be positive")
            if v <= 0:
                raise ValueError(f"component variance {v} must be positive")
            total += w
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"weights sum to {total}, not 1 (renormalize first)")

    @staticmethod
    def create(components: Iterable[Tuple[float, float, float]]) -> "GaussianMixture":
        """Build a mixture, renormalizing weights that are off by <= 1e-12."""
        comps = [(float(w), float(mu), float(v)) for w, mu, v in components]
        total = sum(w for w, _, _ in comps)
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"weights sum to {total}, not 1")
        comps = [(w / total, mu, v) for w, mu, v in comps]
        return GaussianMixture(tuple(comps))

    @staticmethod
    def single(mu: float = 0.0, var: float = 1.0) -> "GaussianMixture":
        return GaussianMixture(((1.0, float(mu), float(var)),))

    # each array is built once per mixture (the kernel reads them on every
    # call) and is read-only, since every caller shares it

    @cached_property
    def weights(self) -> np.ndarray:
        return _frozen([w for w, _, _ in self.components])

    @cached_property
    def means(self) -> np.ndarray:
        return _frozen([mu for _, mu, _ in self.components])

    @cached_property
    def variances(self) -> np.ndarray:
        return _frozen([v for _, _, v in self.components])

    def support_interval(self, t: float) -> Tuple[float, float]:
        """Integration window: means padded by ``WINDOW_SIGMAS`` flow standard deviations."""
        means = [mu for _, mu, _ in self.components]
        spread = WINDOW_SIGMAS * math.sqrt(max(v for _, _, v in self.components) + t)
        return min(means) - spread, max(means) + spread


def _frozen(values) -> np.ndarray:
    array = np.array(values, dtype=float)
    array.flags.writeable = False
    return array


# The bimodal example used throughout the numeric experiments: two sharp
# modes ten apart, where 1/J(Y_t) changes convexity along the flow.
BIMODAL_MIXTURE = GaussianMixture(((0.5, 0.0, 0.1), (0.5, 10.0, 0.1)))


# The kernel works on blocks of nodes small enough that each of its
# (component, node) temporaries holds at most this many values: 64 KiB or
# less.  Larger temporaries are mapped from and returned to the OS on every
# call: whole refinement levels of a 16-component mixture cost a wt-scan
# 20k-31k page faults instead of 5k.  A mixture of one component counts as
# two, since its 8192-node blocks were mapped afresh on every call too.
# The ratio rows do not shorten a block: one buffer of them serves every
# block of a call, and the epilogue writes into the result, so what else a
# block allocates is single rows of its nodes.  Every value is computed
# per node, so blocking changes no bit.
_BLOCK_PAIRS = 8192


def log_density_and_ratios(
    mix: GaussianMixture, t: float, y: np.ndarray, max_m: int
) -> Tuple[np.ndarray, np.ndarray]:
    """log f(y, t) and the rows m = 0..max_m of f_m(y, t) / f(y, t) at one flow time t.

    Both come from one per-component log-pdf log(w_i phi_i(y)).  Row 0 is
    all ones; row m is the posterior-weighted average of the per-component
    ratio (-1)^m He_m(z_i) / s_i^(m/2), so no explicit density quotient
    appears.  ``map_flow`` takes many flow times in one call.
    """
    if np.ndim(t):
        raise ValueError("t must be a number; map_flow takes arrays of times")
    y = np.atleast_1d(np.asarray(y, dtype=float))
    out = map_flow(mix, [t], y, np.zeros(y.size, np.intp), max_m, _joined, (max_m + 2,))
    return out[0], out[1:]


def _joined(lf: np.ndarray, ratios: np.ndarray, out: np.ndarray) -> None:
    out[0] = lf
    out[1:] = ratios


def log_density(mix: GaussianMixture, t: float, y: np.ndarray) -> np.ndarray:
    """log f(y, t) at one flow time t >= 0."""
    return log_density_and_ratios(mix, t, y, 0)[0]


def map_flow(
    mix: GaussianMixture, t, y: np.ndarray, jobs, max_m: int, fn, shape: Tuple[int, ...]
) -> np.ndarray:
    """``fn(lf, ratios, out)`` on the nodes y, node i flowed to time ``t[jobs[i]]``.

    ``t`` holds one time per job.  The result has shape ``shape + (y.size,)``.
    ``fn`` gets a block of nodes' log f and ratio rows 0..max_m, as
    ``log_density_and_ratios`` gives them, and writes its values to
    ``out``, the result's columns of those nodes.  No block's ratio rows
    outlive it: the next block writes over them, so a caller that needs a
    few rows of values never holds max_m + 1 rows for every node.

    The per-job factors are computed once per (component, job) and
    gathered per node.  Components are summed in order, a row at a time,
    over blocks of two nodes or more: numpy sums a one-node block's
    components pairwise instead.
    """
    ts = np.asarray(t, dtype=float)
    if ts.ndim != 1:
        raise ValueError("t must be a 1-D array, one time per job")
    if np.any(ts < 0):
        raise ValueError("t must be >= 0")
    y = np.atleast_1d(np.asarray(y, dtype=float))
    jobs = np.asarray(jobs, dtype=np.intp)
    s = mix.variances[:, None] + ts  # (component, job)
    # a power past float64's range makes its scale 0, where it rounds anyway
    with np.errstate(over="ignore"):
        ratio_scales = [(-1.0) ** m / s ** (m / 2.0) for m in range(1, max_m + 1)]
    comps = (
        mix.means[:, None],
        np.sqrt(s),
        np.log(mix.weights)[:, None] - 0.5 * (_LOG_2PI + np.log(s)),
        ratio_scales,
    )
    # equal blocks, never a single node unless there is only one; a
    # temporary holds a node's value per component, two at least
    per_node = max(len(s), 2)
    blocks = max(1, -(-y.size // max(64, _BLOCK_PAIRS // per_node)))
    edges = [y.size * i // blocks for i in range(blocks + 1)]
    # one buffer of ratio rows for every block, the last one the longest
    buffer = np.empty((max_m + 1, edges[-1] - edges[-2]))
    buffer[0] = 1.0
    out = np.empty(shape + (y.size,))
    for lo, hi in zip(edges[:-1], edges[1:]):
        ratios = buffer[:, : hi - lo]
        fn(_block(comps, y[lo:hi], jobs[lo:hi], ratios[1:]), ratios, out[..., lo:hi])
    return out


def _block(comps, y: np.ndarray, jobs: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """log f on a block of nodes; writes ratio rows m >= 1 to ``rows``.

    Per-job factors are gathered per node with ``take``: the same copy
    as ``x[:, jobs]``, at about a fifth of the cost of that fancy index.
    The array methods are the ufunc reductions and gathers that ``np.sum``,
    ``np.max`` and ``np.take`` call, without their Python wrappers, which
    cost a 16-component ``wt-scan`` about a tenth of its kernel time.
    """
    means, scales, log_norm, ratio_scales = comps
    z = (y - means) / scales.take(jobs, axis=1)
    lp = log_norm.take(jobs, axis=1) - 0.5 * z * z
    top = lp.max(axis=0)
    post = np.exp(lp - top)
    total = post.sum(axis=0)
    if ratio_scales:
        post /= total
        # He_m(z) by its three-term recurrence, two rows at a time; He_0 = 1
        he_prev, he = 1.0, z
        for m, scale in enumerate(ratio_scales, start=1):
            if m > 1:
                he_prev, he = he, z * he - (m - 1) * he_prev
            rows[m - 1] = (post * scale.take(jobs, axis=1) * he).sum(axis=0)
    return top + np.log(total)


def derivative_ratios(
    mix: GaussianMixture, t: float, y: np.ndarray, max_m: int
) -> np.ndarray:
    """Rows m = 0..max_m of f_m(y, t) / f(y, t); row 0 is all ones."""
    return log_density_and_ratios(mix, t, y, max_m)[1]


def density_deriv(mix: GaussianMixture, t: float, y, m: int = 0):
    """The m-th spatial derivative f_m(y, t); m = 0 is the density itself.

    t = 0 is allowed only for m = 0 (component variances keep the density
    smooth there); negative t is rejected.
    """
    if m < 0:
        raise ValueError("derivative order must be >= 0")
    if t < 0:
        raise ValueError("t must be >= 0")
    if t == 0 and m > 0:
        raise ValueError("derivatives require t > 0")
    arr = np.atleast_1d(np.asarray(y, dtype=float))
    lf, ratios = log_density_and_ratios(mix, t, arr, m)
    values = np.exp(lf) * ratios[m]
    if np.ndim(y) == 0:
        return float(values[0])
    return values
