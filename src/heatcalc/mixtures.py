"""Finite Gaussian mixtures under the additive-noise heat flow.

Adding independent noise ``sqrt(t) Z`` to a mixture shifts every
component variance by t, so densities, spatial derivatives, and the
derivative ratios f_m/f have closed forms at all t > 0.  Derivatives use
probabilists' Hermite polynomials,

    d^m/dy^m phi(y; mu, s) = phi * (-1)^m He_m(z) / s^(m/2),   z = (y-mu)/sqrt(s),

and ratios are computed as posterior-weighted averages of per-component
terms with log-sum-exp weights.  That form never divides by a tiny
density, which matters for monomials like f1^8/f^7 far into the tails.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Tuple

import numpy as np

_LOG_2PI = math.log(2.0 * math.pi)


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

    @property
    def weights(self) -> np.ndarray:
        return np.array([w for w, _, _ in self.components])

    @property
    def means(self) -> np.ndarray:
        return np.array([mu for _, mu, _ in self.components])

    @property
    def variances(self) -> np.ndarray:
        return np.array([v for _, _, v in self.components])

    def support_interval(self, t: float, sigmas: float = 12.0) -> Tuple[float, float]:
        """Integration window: means padded by ``sigmas`` flow standard deviations."""
        spread = sigmas * math.sqrt(float(np.max(self.variances)) + t)
        return float(np.min(self.means)) - spread, float(np.max(self.means)) + spread


# The bimodal example used throughout the numeric experiments: two sharp
# modes ten apart, where 1/J(Y_t) changes convexity along the flow.
BIMODAL_MIXTURE = GaussianMixture(((0.5, 0.0, 0.1), (0.5, 10.0, 0.1)))


# The kernel works on blocks of nodes with at most this many (t, component,
# node) triples, so each temporary stays at 64 KiB or less.
# Larger temporaries are mapped from and returned to the OS on every call:
# whole refinement levels of a 16-component mixture cost a wt-scan 20k-31k
# page faults instead of 5k, and the count moved with the size of the
# process environment.  Every value is computed per node, so blocking
# changes no bit.
_BLOCK_PAIRS = 8192


def log_density_and_ratios(
    mix: GaussianMixture, t, y: np.ndarray, max_m: int
) -> Tuple[np.ndarray, np.ndarray]:
    """log f(y, t) and the rows m = 0..max_m of f_m(y, t) / f(y, t).

    Both come from one per-component log-pdf log(w_i phi_i(y)).  Row 0 is
    all ones; row m is the posterior-weighted average of the per-component
    ratio (-1)^m He_m(z_i) / s_i^(m/2), so no explicit density quotient
    appears.  ``t`` may be a 1-D array of flow times: both outputs then
    gain a leading axis with one entry per t, each equal to the bit to
    what that t alone gives.
    """
    ts = np.asarray(t, dtype=float)
    if ts.ndim > 1:
        raise ValueError("t must be a number or a 1-D array")
    if np.any(ts < 0):
        raise ValueError("t must be >= 0")
    y = np.atleast_1d(np.asarray(y, dtype=float))
    # (t, component, node) blocks: every per-t quantity carries the t axis first
    s = mix.variances + ts.reshape(-1, 1)
    comps = (
        mix.means[:, None],
        np.sqrt(s)[:, :, None],
        (np.log(mix.weights) - 0.5 * (_LOG_2PI + np.log(s)))[:, :, None],
        [((-1.0) ** m / s ** (m / 2.0))[:, :, None] for m in range(1, max_m + 1)],
    )
    lf = np.empty((len(s), y.size))
    out = np.empty((len(s), max_m + 1, y.size))
    out[:, 0] = 1.0
    # equal blocks, never a single node: a one-node block would sum its
    # components in another order
    blocks = -(-y.size // max(64, _BLOCK_PAIRS // s.size))
    edges = [y.size * i // blocks for i in range(blocks + 1)]
    for lo, hi in zip(edges[:-1], edges[1:]):
        lf[:, lo:hi] = _block(comps, y[lo:hi], out[:, 1:, lo:hi])
    if ts.ndim == 0:
        return lf[0], out[0]
    return lf, out


def _block(comps, y: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """log f on one block of nodes, one row per t; writes the ratio rows m >= 1 into ``rows``."""
    means, scales, log_norm, ratio_scales = comps
    z = (y[None, :] - means) / scales
    lp = log_norm - 0.5 * z * z
    top = np.max(lp, axis=1)
    post = np.exp(lp - top[:, None])
    total = np.sum(post, axis=1)
    if ratio_scales:
        post /= total[:, None]
        # He_m(z) by its three-term recurrence, two rows at a time
        he_prev, he = np.ones_like(z), z
        for m, scale in enumerate(ratio_scales, start=1):
            if m > 1:
                he_prev, he = he, z * he - (m - 1) * he_prev
            rows[:, m - 1] = np.sum(post * scale * he, axis=1)
    return top + np.log(total)


def log_density(mix: GaussianMixture, t, y: np.ndarray) -> np.ndarray:
    """log f(y, t) for the mixture flowed to time t >= 0; one row per t for a 1-D array of t."""
    return log_density_and_ratios(mix, t, y, 0)[0]


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
