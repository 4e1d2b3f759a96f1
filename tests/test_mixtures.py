"""Mixture density evaluation: closed forms, stability, validation."""

import math

import numpy as np
import pytest

from heatcalc import mixtures
from heatcalc.mixtures import (
    BIMODAL_MIXTURE,
    GaussianMixture,
    density_deriv,
    derivative_ratios,
    log_density,
    log_density_and_ratios,
    map_flow,
)


def _flowed(mix, ts, y, jobs, max_m):
    """map_flow's blocks joined: every node's log f and ratio rows 0..max_m.

    The blocks must cover the nodes in order, each once.
    """
    lf, ratios, stop = np.empty(y.size), np.empty((max_m + 1, y.size)), 0
    for part, block_lf, block_ratios in map_flow(mix, ts, y, jobs, max_m):
        assert part.start == stop < part.stop
        lf[part], ratios[:, part], stop = block_lf, block_ratios, part.stop
    assert stop == y.size
    return lf, ratios


class TestConstruction:
    def test_rejects_bad_weights(self):
        with pytest.raises(ValueError):
            GaussianMixture(((0.5, 0.0, 1.0),))
        with pytest.raises(ValueError):
            GaussianMixture(((-0.2, 0.0, 1.0), (1.2, 1.0, 1.0)))

    def test_rejects_bad_variance(self):
        with pytest.raises(ValueError):
            GaussianMixture(((1.0, 0.0, 0.0),))

    def test_create_renormalizes_within_tolerance(self):
        mix = GaussianMixture.create([(0.5 + 2e-13, 0.0, 1.0), (0.5, 1.0, 1.0)])
        assert math.isclose(sum(mix.weights), 1.0, abs_tol=1e-15)

    def test_create_rejects_gross_error(self):
        with pytest.raises(ValueError):
            GaussianMixture.create([(0.7, 0.0, 1.0), (0.7, 1.0, 1.0)])

    def test_bimodal_example(self):
        assert BIMODAL_MIXTURE.components == ((0.5, 0.0, 0.1), (0.5, 10.0, 0.1))


class TestDensityDeriv:
    def test_standard_normal_at_center(self):
        g = GaussianMixture.single(0, 1)
        assert math.isclose(
            density_deriv(g, 1.0, 0.0, 0), 1.0 / math.sqrt(4 * math.pi), rel_tol=1e-14
        )

    def test_odd_derivative_vanishes_by_symmetry(self):
        g = GaussianMixture.single(0, 1)
        assert abs(density_deriv(g, 1.0, 0.0, 1)) < 1e-18

    def test_second_derivative_at_center(self):
        g = GaussianMixture.single(0, 1)
        expected = -1.0 / (2.0 * math.sqrt(4 * math.pi))
        assert math.isclose(density_deriv(g, 1.0, 0.0, 2), expected, rel_tol=1e-14)

    def test_t_zero_density_only(self):
        g = GaussianMixture.single(0, 1)
        assert density_deriv(g, 0.0, 0.0, 0) > 0
        with pytest.raises(ValueError):
            density_deriv(g, 0.0, 0.0, 1)

    def test_negative_t_rejected(self):
        g = GaussianMixture.single(0, 1)
        with pytest.raises(ValueError):
            density_deriv(g, -0.5, 0.0, 0)

    def test_sequence_in_array_out_scalar_in_float_out(self):
        ys = [0.3, 1.0]
        expected = [density_deriv(BIMODAL_MIXTURE, 1.0, y, 2) for y in ys]
        for y in (ys, tuple(ys), np.array(ys)):
            values = density_deriv(BIMODAL_MIXTURE, 1.0, y, 2)
            assert isinstance(values, np.ndarray) and values.shape == (2,)
            assert values.tolist() == expected
        value = density_deriv(BIMODAL_MIXTURE, 1.0, np.array(0.3), 2)
        assert type(value) is float and value == expected[0]

    def test_matches_finite_difference_in_y(self):
        mix = GaussianMixture.create([(0.3, -1.0, 0.5), (0.7, 2.0, 1.5)])
        t, dy = 0.7, 1e-5
        for m in (1, 2, 3):
            for y in (-1.3, 0.4, 2.2):
                lower = density_deriv(mix, t, y - dy, m - 1)
                upper = density_deriv(mix, t, y + dy, m - 1)
                fd = (upper - lower) / (2 * dy)
                exact = density_deriv(mix, t, y, m)
                assert math.isclose(fd, exact, rel_tol=1e-7, abs_tol=1e-12)

    def test_density_positive_everywhere(self):
        y = np.linspace(-8.0, 18.0, 400)
        vals = density_deriv(BIMODAL_MIXTURE, 0.5, y, 0)
        assert np.all(vals > 0)


class TestRatios:
    def test_matches_literal_quotient_in_safe_region(self):
        mix = GaussianMixture.create([(0.4, 0.0, 0.8), (0.6, 1.0, 1.1)])
        y = np.linspace(-2.0, 3.0, 50)
        ratios = derivative_ratios(mix, 0.5, y, 4)
        f = density_deriv(mix, 0.5, y, 0)
        for m in range(1, 5):
            literal = density_deriv(mix, 0.5, y, m) / f
            assert np.allclose(ratios[m], literal, rtol=1e-11, atol=1e-11)

    def test_finite_deep_in_tails(self):
        y = np.array([-4.6, 14.6])  # about 12 flow sigmas out
        ratios = derivative_ratios(BIMODAL_MIXTURE, 0.05, y, 8)
        assert np.all(np.isfinite(ratios))
        # f1^8/f^7 = f * r1^8 must stay finite and tiny out there
        f = density_deriv(BIMODAL_MIXTURE, 0.05, y, 0)
        assert np.all(np.isfinite(f * ratios[1] ** 8))

    @pytest.mark.parametrize("max_m", [0, 8, 20])
    @pytest.mark.parametrize("components", [1, 2, 3, 16])
    def test_node_blocks_change_no_bit(self, monkeypatch, components, max_m):
        # the default cuts 9001 nodes into 3 blocks of 3000-3001 nodes (one
        # or two components), 4 (three) or 18 (sixteen), whatever max_m
        rng = np.random.default_rng(3)
        mix = GaussianMixture.create(
            zip(
                rng.dirichlet(np.ones(components)),
                rng.uniform(-20, 20, components),
                rng.uniform(0.01, 1, components),
            )
        )
        y = np.linspace(-30.0, 30.0, 9001)
        lf, ratios = log_density_and_ratios(mix, 0.3, y, max_m)
        # 141 blocks of 63-64 nodes, and one block of all 9001
        for block_pairs in (1, 10**9):
            monkeypatch.setattr(mixtures, "_BLOCK_PAIRS", block_pairs)
            blocked = log_density_and_ratios(mix, 0.3, y, max_m)
            assert np.array_equal(blocked[0], lf)
            assert np.array_equal(blocked[1], ratios)

    @pytest.mark.parametrize("components", [2, 16])
    @pytest.mark.parametrize("nodes", [192, 4097, 20000])
    def test_many_times_equal_one_time_each(self, components, nodes):
        # three times cut the nodes into other blocks than one time does
        rng = np.random.default_rng(components)
        mix = GaussianMixture.create(
            zip(
                rng.dirichlet(np.ones(components)),
                rng.uniform(-20, 20, components),
                rng.uniform(0.01, 1, components),
            )
        )
        y = np.linspace(-30.0, 30.0, nodes)
        ts = np.array([0.05, 0.3, 2.0])
        # every node at all three times, a job per time
        jobs = np.repeat(np.arange(ts.size), nodes)
        lf, ratios = _flowed(mix, ts, np.tile(y, ts.size), jobs, 4)
        assert ratios.shape == (5, 3 * nodes)
        many, _ = _flowed(mix, ts, np.tile(y, ts.size), jobs, 0)
        for i, t in enumerate(ts):
            mine = jobs == i
            one_lf, one_ratios = log_density_and_ratios(mix, float(t), y, 4)
            assert np.array_equal(lf[mine], one_lf)
            assert np.array_equal(ratios[:, mine], one_ratios)
            assert np.array_equal(many[mine], log_density(mix, float(t), y))

    @pytest.mark.parametrize("components", [1, 2, 3, 16])
    @pytest.mark.parametrize("block_pairs", [8192, 40])
    def test_a_time_per_node_equals_one_time_per_call(self, monkeypatch, components, block_pairs):
        # a small block budget cuts the nodes of one job across many blocks
        monkeypatch.setattr(mixtures, "_BLOCK_PAIRS", block_pairs)
        rng = np.random.default_rng(components + 20)
        mix = GaussianMixture.create(
            zip(
                rng.dirichlet(np.ones(components)),
                rng.uniform(-20, 20, components),
                rng.uniform(0.01, 1, components),
            )
        )
        y = np.linspace(-30.0, 30.0, 4099)
        ts = np.array([0.05, 0.3, 2.0, 17.0])
        jobs = np.sort(rng.integers(0, 4, y.size))
        lf, ratios = _flowed(mix, ts, y, jobs, 6)
        assert ratios.shape == (7, y.size)
        # no ratio rows but row 0
        many, _ = _flowed(mix, ts, y, jobs, 0)
        for j, t in enumerate(ts):
            mine = jobs == j
            one_lf, one_ratios = log_density_and_ratios(mix, float(t), y[mine], 6)
            assert np.array_equal(lf[mine], one_lf)
            assert np.array_equal(ratios[:, mine], one_ratios)
            assert np.array_equal(many[mine], one_lf)

    def test_times_must_be_a_vector_of_nonnegatives(self):
        y = np.linspace(-1.0, 1.0, 5)
        jobs = np.zeros(y.size, dtype=np.intp)
        # one time per job: no rows of times, and no scalar
        for t in ([[0.5]], [[0.5, 0.6]], [[[0.5]]], 0.5):
            with pytest.raises(ValueError, match="1-D"):
                next(map_flow(BIMODAL_MIXTURE, t, y, jobs, 0))
        with pytest.raises(ValueError, match=">= 0"):
            next(map_flow(BIMODAL_MIXTURE, [0.5, -0.1], y, jobs, 0))
        with pytest.raises(ValueError, match=">= 0"):
            log_density(BIMODAL_MIXTURE, -0.1, y)
        # one flow time per call; map_flow takes arrays of times
        with pytest.raises(ValueError, match="a number"):
            log_density(BIMODAL_MIXTURE, [0.5], y)

    def test_log_density_normalization(self):
        # crude Riemann check that log_density integrates to one
        y = np.linspace(-10, 20, 20001)
        f = np.exp(log_density(BIMODAL_MIXTURE, 1.0, y))
        total = np.trapezoid(f, y)
        assert math.isclose(total, 1.0, abs_tol=1e-8)
