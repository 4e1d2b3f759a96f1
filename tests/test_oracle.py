"""Oracle tests: quadrature closed forms, finite differences, scans, W_t checks."""

import functools
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from heatcalc import mixtures, oracle, quadrature
from heatcalc.mixtures import (
    BIMODAL_MIXTURE,
    GaussianMixture,
    log_density,
    log_density_and_ratios,
)
from heatcalc.oracle import (
    DEFAULT_TOL,
    _sign_status,
    FdAccuracyWarning,
    default_fd_step,
    entropy,
    fd_entropy_deriv,
    fd_entropy_deriv_result,
    fd_entropy_derivs,
    fisher,
    functional,
    scan_conjectures,
    scan_to_csv,
    second_difference,
    time_grid,
    wt_checks,
    wt_to_csv,
)
from heatcalc.quadrature import QuadratureNonConvergence, adaptive_quad, build_mesh
from heatcalc.reduction import entropy_derivative
from heatcalc.terms import Combination, combination, d_dy, make_monomial


def gaussian_entropy(s: float) -> float:
    return 0.5 * math.log(2 * math.pi * math.e * s)


def gaussian_dnh(n: int, s: float) -> float:
    return (-1) ** (n + 1) * math.factorial(n - 1) / 2.0 * s**-n


def entropy_integrand(mix: GaussianMixture, t: float):
    """-f log f at the one flow time t, as a plain integrand."""

    def fn(y):
        lf = log_density(mix, t, y)
        return -np.exp(lf) * lf

    return fn


def wide_mixture() -> GaussianMixture:
    """The benchmark's 16-component draw: Dirichlet(1) weights, U[-20, 20]
    means, log-uniform variances on [1e-2, 1]."""
    rng = np.random.default_rng(0)
    weights = rng.dirichlet(np.ones(16))
    means = rng.uniform(-20.0, 20.0, 16)
    variances = np.exp(rng.uniform(math.log(1e-2), 0.0, 16))
    return GaussianMixture.create(zip(weights, means, variances))


class TestClosedForms:
    @pytest.mark.parametrize("var", [0.5, 1.0, 4.0])
    @pytest.mark.parametrize("t", [0.3, 1.0, 3.0])
    def test_entropy_and_fisher(self, var, t):
        g = GaussianMixture.single(0, var)
        assert abs(entropy(g, t) - gaussian_entropy(var + t)) < 1e-10
        assert abs(fisher(g, t) - 1.0 / (var + t)) < 1e-10

    def test_entropy_rejects_t_zero(self):
        with pytest.raises(ValueError):
            entropy(GaussianMixture.single(0, 1), 0.0)

    def test_fisher_of_shifted_mixture_is_shift_invariant(self):
        a = GaussianMixture.create([(0.5, -1.0, 0.4), (0.5, 1.0, 0.7)])
        b = GaussianMixture.create([(0.5, 4.0, 0.4), (0.5, 6.0, 0.7)])
        assert math.isclose(fisher(a, 0.8), fisher(b, 0.8), rel_tol=1e-11)

    def test_bimodal_fisher_frozen_value(self):
        # frozen after cross-checking against three independent 1e7-sample
        # Monte Carlo score estimates (0.9099+-4e-4, 0.9092+-4e-4, 0.9086+-4e-4)
        # and against de Bruijn (2 dh/dt = 0.90903088)
        assert math.isclose(
            fisher(BIMODAL_MIXTURE, 1.0), 0.9090308841, abs_tol=1e-6
        )


class TestFunctional:
    def test_fisher_integrand(self):
        g = GaussianMixture.single(0, 1)
        assert math.isclose(
            functional(entropy_derivative(1), g, 1.0), 0.5, abs_tol=1e-11
        )

    def test_third_derivative_gaussian(self):
        g = GaussianMixture.single(0, 1)
        got = functional(entropy_derivative(3), g, 1.0)
        assert math.isclose(got, 0.25, abs_tol=1e-10)  # 2 * d3h = 2/(1+1)^3

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_gaussian_derivatives_all_orders(self, n):
        g = GaussianMixture.single(0, 0.7)
        for t in (0.4, 1.7):
            got = functional(entropy_derivative(n), g, t)
            assert math.isclose(got, 2 * gaussian_dnh(n, 0.7 + t), rel_tol=1e-9)

    def test_zero_combination(self):
        assert functional(Combination.zero(), BIMODAL_MIXTURE, 1.0) == 0.0

    def test_density_normalization_via_empty_monomial(self):
        # the bare-density monomial integrates to one for any mixture and t
        one = Combination.term(make_monomial([]))
        for mix in (BIMODAL_MIXTURE, GaussianMixture.single(-2.0, 0.4)):
            for t in (0.05, 1.0, 30.0):
                assert abs(functional(one, mix, t) - 1.0) < 1e-10

    def test_gaussian_family_closed_forms_to_order_5(self):
        for var in (0.5, 2.0):
            g = GaussianMixture.single(0.0, var)
            for t in (0.4, 1.5):
                s = var + t
                for n in range(1, 6):
                    got = functional(entropy_derivative(n), g, t)
                    assert math.isclose(got, 2 * gaussian_dnh(n, s), rel_tol=1e-8)

    def test_agrees_with_fd_on_bimodal(self):
        got = functional(entropy_derivative(4), BIMODAL_MIXTURE, 2.0)
        fd, _ = fd_entropy_deriv_result(BIMODAL_MIXTURE, 2.0, 4)
        assert math.isclose(got, 2 * fd, rel_tol=1e-3)


class TestFiniteDifferences:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_gaussian_closed_form(self, n):
        g = GaussianMixture.single(0, 1)
        got = fd_entropy_deriv(g, 1.0, n)
        assert math.isclose(got, gaussian_dnh(n, 2.0), rel_tol=1e-6)

    def test_de_bruijn(self):
        got = fd_entropy_deriv(BIMODAL_MIXTURE, 0.7, 1)
        assert math.isclose(got, 0.5 * fisher(BIMODAL_MIXTURE, 0.7), rel_tol=1e-6)

    def test_fourth_order_value(self):
        g = GaussianMixture.single(0, 1)
        assert math.isclose(fd_entropy_deriv(g, 1.0, 4), -3.0 / 16.0, rel_tol=1e-6)

    def test_third_derivative_positive_on_bimodal(self):
        value, error = fd_entropy_deriv_result(BIMODAL_MIXTURE, 0.5, 3)
        assert value > 3 * error > 0

    def test_gaussian_errors_cover_the_closed_form(self):
        # every stated fd error covers the truth, from sharp to wide
        # Gaussians and from tiny to large flow times
        for var in (1e-9, 1e-6, 1e-3, 1.0, 3.0, 10.0):
            g = GaussianMixture.single(0, var)
            for t in np.geomspace(1e-9, 1e3, 13):
                for n, (value, error) in fd_entropy_derivs(g, float(t), range(1, 5)).items():
                    assert abs(value - gaussian_dnh(n, var + t)) <= error, (var, t, n)

    def test_step_must_stay_inside_domain(self):
        g = GaussianMixture.single(0, 1)
        with pytest.raises(ValueError):
            fd_entropy_deriv(g, 0.1, 4, step=0.06)

    def test_default_step_respects_domain(self):
        g = GaussianMixture.single(0, 4)
        step = default_fd_step(g, 0.3, 4)
        assert 0.3 - 2 * step > 0

    def test_warns_when_error_estimate_large(self):
        g = GaussianMixture.single(0, 1)
        with pytest.warns(FdAccuracyWarning):
            # a huge fourth-order step forces a visible Richardson correction
            fd_entropy_deriv(g, 4.0, 4, step=1.9)

    def test_fifth_derivative_cross_check(self):
        mix = GaussianMixture.create([(0.4, -1.0, 0.6), (0.6, 1.5, 1.2)])
        sym = functional(entropy_derivative(5), mix, 0.8)
        fd, _ = fd_entropy_deriv_result(mix, 0.8, 5)
        assert math.isclose(sym, 2 * fd, rel_tol=1e-4)


class TestKernelCalls:
    """Mixture-kernel calls are deterministic, so a second pass over a mesh
    or a return to one call per panel or per flow time fails here without
    any timing.  Every kernel call of the oracle goes through map_flow."""

    @staticmethod
    def _counting(monkeypatch):
        calls = []
        kernel = oracle.map_flow

        def counting(mix, t, y, *args):
            calls.append((np.shape(t), y.size))
            return kernel(mix, t, y, *args)

        monkeypatch.setattr(oracle, "map_flow", counting)
        return calls

    PANELS = 8 * 24
    LEVELS = [((1,), PANELS), ((1,), 2 * PANELS)]

    def test_scan_row_on_a_gaussian(self, monkeypatch):
        calls = self._counting(monkeypatch)
        oracle._scan_row_core(GaussianMixture.single(), 1.0, 4, DEFAULT_TOL)
        # every tree of this row accepts its 8 initial panels, so the one
        # forest makes two calls: 8 panels, then their 16 halves, for h and
        # C_1..C_4 together.  The fd route refines nothing: its stencil
        # times are integrated on the panels h accepted, a job each.  All
        # four orders share one step here, and the 5 stencil times of
        # orders 1-2 are among the 7 of orders 3-4, so one call of 7 jobs
        # integrates them all.
        assert calls == self.LEVELS + [((7,), 7 * self.PANELS)]

    def test_a_small_t_row_makes_one_stencil_call(self, monkeypatch):
        # at t = 0.01 the clamp 0.9 t / reach gives orders 1-2 and 3-4
        # their own steps, and the 5 and 7 stencil times of the two steps
        # are 12 jobs of one call
        calls = self._counting(monkeypatch)
        oracle._scan_row_core(GaussianMixture.single(), 0.01, 4, DEFAULT_TOL)
        assert calls == self.LEVELS + [((12,), 12 * self.PANELS)]

    def test_40_points_make_the_calls_of_3(self, monkeypatch):
        # a forest takes up to 40 flow times, one job each, and each level
        # of each forest is one call for all of them; so are the stencil
        # entropies, a job per stencil time.  A call is cut at
        # _CHUNK_NODES abscissae, which the stencils of 40 points pass, so
        # the cut is lifted here
        monkeypatch.setattr(quadrature, "_CHUNK_NODES", 10**6)
        calls = self._counting(monkeypatch)
        layouts = []
        for points in (3, 40):
            del calls[:]
            scan_conjectures(GaussianMixture.single(), time_grid(0.3, 5.0, points), 4)
            layouts.append([(shape[0] / points, nodes / points) for shape, nodes in calls])
        levels = [(1, self.PANELS), (1, 2 * self.PANELS)]
        assert layouts[0] == layouts[1] == levels + [(7, 7 * self.PANELS)]


class TestCompiledEpilogue:
    """``_flow_rows`` evaluates each combination from a power table built by
    multiplication; every node's value is checked against exact arithmetic
    on the same float ratios, and against itself computed alone."""

    MIX = GaussianMixture.create([(0.3, -1.0, 0.2), (0.7, 1.5, 0.6)])
    MIXED = combination(
        {
            make_monomial([]): 1,
            make_monomial([2]): Fraction(-1, 3),
            make_monomial([1, 1, 3]): 5,
            make_monomial([1] * 12): Fraction(2, 7),
            make_monomial([1, 1] + [2] * 13): Fraction(-3, 11),
        }
    )

    @classmethod
    def quantities(cls):
        cs = [(f"C_{n}", entropy_derivative(n)) for n in range(1, 9)]
        density = Combination.term(make_monomial([]))
        extra = [("f", density), ("mixed", cls.MIXED), ("zero", Combination.zero())]
        return [("h", None)] + cs + extra

    def test_each_node_is_within_its_roundoff_of_the_exact_value(self):
        # the exact value of each combination on the kernel's own float
        # ratios and density, with exact rational coefficients; the
        # compiled terms round the coefficient, each power, each product
        # and each partial sum, well inside 8 eps of the terms' magnitude;
        # so is each magnitude row, f times the sum of the terms' absolute
        # values, of that exact magnitude
        t = 0.4
        y = np.linspace(*self.MIX.support_interval(t), 41)
        qs = self.quantities()
        values = oracle._flow_rows(self.MIX, [t], qs)(y, np.zeros(y.size, np.intp))
        lf, ratios = log_density_and_ratios(self.MIX, t, y, 16)
        f = np.exp(lf)
        eps = np.finfo(float).eps
        layout = oracle._magnitude_rows(qs)
        assert len(values) == max(layout) + 1 > len(qs)
        for q, ((name, comb), row) in enumerate(zip(qs, values)):
            if comb is None:
                assert np.array_equal(row, -f * lf)
                continue
            own = values[layout[q]]
            assert (layout[q] == q) == (len(comb) <= 1)
            for i in range(y.size):
                exact = magnitude = Fraction(0)
                for mono, coeff in comb.items():
                    factors = (Fraction(float(ratios[m, i])) ** k for m, k in mono.exps)
                    term = coeff * math.prod(factors, start=Fraction(1))
                    exact += term
                    magnitude += abs(term)
                fi = Fraction(float(f[i]))
                error = abs(Fraction(float(row[i])) - fi * exact)
                assert error <= 8 * eps * fi * magnitude, (name, i)
                if layout[q] != q:
                    error = abs(Fraction(float(own[i])) - fi * magnitude)
                    assert error <= 8 * eps * fi * magnitude, (name, i)

    def test_a_node_gets_the_same_bits_in_any_call(self, monkeypatch):
        # the value rows and the magnitude rows alike
        qs = self.quantities()
        ts = [0.2, 0.9, 3.0]
        y = np.linspace(-6.0, 7.0, 300)
        jobs = np.arange(y.size) % len(ts)
        forest = oracle._flow_rows(self.MIX, ts, qs)(y, jobs)
        # one job at a time
        for j, t in enumerate(ts):
            alone = oracle._flow_rows(self.MIX, [t], qs)(y[jobs == j], np.zeros(100, np.intp))
            assert np.array_equal(alone, forest[:, jobs == j])
        # blocks of 64 nodes, and calls of 2 and 3 nodes
        monkeypatch.setattr(mixtures, "_BLOCK_PAIRS", 1)
        assert np.array_equal(oracle._flow_rows(self.MIX, ts, qs)(y, jobs), forest)
        for size in (2, 3):
            parts = [
                oracle._flow_rows(self.MIX, ts, qs)(y[lo : lo + size], jobs[lo : lo + size])
                for lo in range(0, y.size, size)
            ]
            assert np.array_equal(np.concatenate(parts, axis=1), forest)

    def test_no_pow_in_the_epilogue(self, monkeypatch):
        # integer powers of 3 or more go through libm pow, a hundred
        # multiplies' worth per element; the table multiplies instead
        calls = []

        class Spy(np.ndarray):
            def __pow__(self, k):
                calls.append(k)
                return np.ndarray.__pow__(self, k)

        kernel = oracle.map_flow

        def spying(mix, t, y, jobs, max_m, fn):
            return kernel(mix, t, y, jobs, max_m, lambda lf, r: fn(lf, r.view(Spy)))

        monkeypatch.setattr(oracle, "map_flow", spying)
        y = np.linspace(-3.0, 3.0, 10)
        oracle._flow_rows(self.MIX, [1.0], self.quantities())(y, np.zeros(y.size, np.intp))
        assert calls == []


@pytest.fixture
def capped(monkeypatch):
    """The oracle's trees capped at 45 panels.

    The 16-component draw's C_4 trees at t = 0.1 and 0.187 (the first two
    times of its 12-point scan) take 49 and 46 panels, so they stop short;
    every other tree of that scan takes at most 44.
    """
    monkeypatch.setattr(oracle, "refine", functools.partial(quadrature.refine, max_panels=45))


class TestSharedEvaluation:
    """Sharing kernel calls between the quantities of a row changes no bit."""

    ROW = [("h", None)] + [(f"C_{n}", entropy_derivative(n)) for n in range(1, 5)]

    @staticmethod
    def _alone(mix, t, quantity):
        """One quantity refined alone: a forest of one job and one row, with its magnitude row."""
        return oracle._flow_results(mix, t, [quantity], DEFAULT_TOL)[0]

    @pytest.mark.parametrize("case", ["bimodal", "wide"])
    def test_row_tree_equals_separate_quadratures(self, case, capped):
        # under the cap the wide mixture's C_4 stops short at t = 0.1
        mix, t = (BIMODAL_MIXTURE, 1.0) if case == "bimodal" else (wide_mixture(), 0.1)
        with warnings.catch_warnings(record=True) as shared_events:
            warnings.simplefilter("always")
            shared = oracle._flow_results(mix, t, self.ROW, DEFAULT_TOL)
        with warnings.catch_warnings(record=True) as alone_events:
            warnings.simplefilter("always")
            alone = [self._alone(mix, t, q) for q in self.ROW]
        assert [(r.value, r.error) for r in shared] == [(r.value, r.error) for r in alone]
        messages = [
            [str(w.message) for w in events if w.category is QuadratureNonConvergence]
            for events in (shared_events, alone_events)
        ]
        assert messages[0] == messages[1]
        assert len(messages[0]) == (1 if case == "wide" else 0)
        assert entropy(mix, t) == shared[0].value
        assert functional(entropy_derivative(3), mix, t) == shared[3].value
        # a plain integrand takes its own absolute value as its magnitude,
        # and so do h and the one-term C_1
        a, b = mix.support_interval(t)
        assert shared[:2] == [adaptive_quad(self._plain(mix, t, q), a, b) for q in self.ROW[:2]]

    @staticmethod
    def _plain(mix, t, quantity):
        """One quantity as a plain integrand of one array of values."""
        rows = oracle._flow_rows(mix, [t], [quantity])

        def fn(y):
            return rows(y, np.zeros(y.size, dtype=np.intp))[0]

        fn.labels = oracle._flow_labels(t, [quantity])
        return fn

    @pytest.mark.parametrize("case", ["bimodal", "wide"])
    def test_scan_forest_equals_one_job_each(self, case, capped):
        # the scan's one forest of rows (h, C_1..C_4) against each row of
        # each flow time refined alone: every value, error, flag, accepted
        # panel and warning, in order
        if case == "bimodal":
            mix, ts = BIMODAL_MIXTURE, [0.05, 1.0, 12.0]
        else:
            mix, ts = wide_mixture(), [0.1]
        with warnings.catch_warnings(record=True) as forest_events:
            warnings.simplefilter("always")
            flows = oracle.refine(oracle._flow_forest(mix, ts, self.ROW), DEFAULT_TOL)
        alone = []
        with warnings.catch_warnings(record=True) as alone_events:
            warnings.simplefilter("always")
            for t in ts:
                # no component here is narrow enough to add breakpoints
                assert oracle._window(mix, t) == mix.support_interval(t)
                alone.append([self._alone(mix, t, q) for q in self.ROW])
        assert flows == alone
        for together, single in zip(flows, alone):
            for row, row_alone in zip(together, single):
                assert row.panels.shape[0] > 0
                assert np.array_equal(row.panels, row_alone.panels)
        messages = [
            [str(w.message) for w in events if w.category is QuadratureNonConvergence]
            for events in (forest_events, alone_events)
        ]
        assert messages[0] == messages[1]
        if case == "wide":
            # the 16-component draw's C_4 tree at t = 0.1 takes 49 panels,
            # so the cap of 45 stops it short, with the panels it had
            panels = [m.split(" at ")[-1].split(" panels")[0] for m in messages[0]]
            assert [r.converged for r in flows[0]] == [True] * 4 + [False]
            assert panels == [str(len(flows[0][4].panels))]
            assert len(flows[0][4].panels) <= 45
        else:
            assert messages[0] == []
        # the fd route integrates every stencil time on the panels h
        # accepted: at these flow times orders 1-2 and 3-4 share their
        # default step, so one stencil of 7 times serves all four orders
        stencils = [oracle._fd_stencils(mix, t, range(1, 5), None) for t in ts]
        assert [[(orders, len(offsets)) for _, orders, offsets in steps] for steps in stencils] == [
            [((1, 2, 3, 4), 7)]
        ] * len(ts)
        for n in (1, 3):
            assert [steps[0][0] for steps in stencils] == [default_fd_step(mix, t, n) for t in ts]
        # h's own test is that of a plain integrand
        assert [flow[0].mesh() for flow in flows] == [
            build_mesh([self._plain(mix, t, self.ROW[0])], *mix.support_interval(t)) for t in ts
        ]
        panels = [flow[0].panels for flow in flows]
        assert oracle._fd_finish(mix, ts, stencils, panels, DEFAULT_TOL) == [
            fd_entropy_derivs(mix, t, range(1, 5)) for t in ts
        ]

    def test_converged_flag_follows_the_tree(self, capped):
        # under the cap the 16-component draw's C_4 tree at t = 0.1 stops short
        with warnings.catch_warnings(record=True):
            warnings.simplefilter("always")
            results = oracle._flow_results(wide_mixture(), 0.1, self.ROW, DEFAULT_TOL)
        assert [r.converged for r in results] == [True, True, True, True, False]
        assert oracle.entropy_result(BIMODAL_MIXTURE, 1.0).converged

    @pytest.mark.parametrize("t", [0.05, 0.7, 12.0])
    def test_fd_orders_together_equal_each_alone(self, t):
        together = fd_entropy_derivs(BIMODAL_MIXTURE, t, range(1, 7))
        assert together == {n: fd_entropy_deriv_result(BIMODAL_MIXTURE, t, n) for n in range(1, 7)}

    @pytest.mark.parametrize("max_order", range(1, 7))
    @pytest.mark.parametrize("case", ["bimodal", "wide", "sharp"])
    def test_scan_fd_equals_fd_of_each_time(self, case, max_order):
        # the benchmark recomputes each row's fd from its t alone, and
        # must get the CSV's bits
        mix, ts = {
            "bimodal": (BIMODAL_MIXTURE, time_grid(0.05, 100.0, 6, "log")),
            "wide": (wide_mixture(), time_grid(0.1, 100.0, 4, "log")),
            "sharp": (GaussianMixture.single(0, 1e-9), time_grid(1e-9, 1e-3, 4, "log")),
        }[case]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", QuadratureNonConvergence)
            rows = scan_conjectures(mix, ts, max_order).rows
        orders = range(1, max_order + 1)
        for row in rows:
            fd = fd_entropy_derivs(mix, row.t, orders)
            assert row.d_fd == tuple(fd[n] for n in orders)

    @pytest.mark.parametrize("n", [1, 4])
    def test_fd_equals_one_entropy_at_a_time(self, n):
        # the stencil's entropies each on their own, as separate integrands
        # on the mesh of h(t): the multi-t kernel and the batched
        # integration must give the same bits
        mix, t, tol = wide_mixture(), 0.8, DEFAULT_TOL
        h = oracle.default_fd_step(mix, t, n)
        half = h / 2.0
        stencil = oracle._central_stencil(n)
        offsets = sorted({2 * off for off, _ in stencil} | {off for off, _ in stencil})
        mesh = build_mesh([entropy_integrand(mix, t)], *mix.support_interval(t), tol)
        h_at = {off: mesh.integrate(entropy_integrand(mix, t + off * half)) for off in offsets}
        coarse = sum(c * h_at[2 * off] for off, c in stencil) / h**n
        fine = sum(c * h_at[off] for off, c in stencil) / half**n
        assert fd_entropy_deriv_result(mix, t, n)[0] == (4.0 * fine - coarse) / 3.0

    @pytest.mark.parametrize("step", [1e-17, 3e-16])
    def test_steps_below_the_float_spacing_merge_stencil_times(self, step):
        # at t = 1 a step this small rounds some stencil times onto others
        # (every one of them onto t at 1e-17); each order still gets the
        # bits it gets alone
        t = 1.0
        assert len({t + off * (step / 2.0) for off in range(-4, 5)}) < 9
        together = fd_entropy_derivs(BIMODAL_MIXTURE, t, range(1, 5), step=step)
        for n in range(1, 5):
            assert together[n] == fd_entropy_deriv_result(BIMODAL_MIXTURE, t, n, step=step)
        if step == 1e-17:
            assert [value for value, _ in together.values()] == [0.0] * 4

    def test_fd_orders_validate_each_order(self):
        with pytest.raises(ValueError, match="order 3"):
            fd_entropy_derivs(BIMODAL_MIXTURE, 0.5, [1, 3], step=0.3)
        with pytest.raises(ValueError, match=">= 1"):
            fd_entropy_derivs(BIMODAL_MIXTURE, 0.5, [1, 0])

    def test_fd_stencils_split_where_the_clamp_separates_the_steps(self, monkeypatch):
        # below t of about 0.0045 the clamp 0.9 t / reach gives orders 1-2
        # and 3-4 different steps, each with its own stencil; above it one
        # stencil serves all four orders
        mix, ts = BIMODAL_MIXTURE, [1e-3, 4e-3, 0.05, 1.0]
        stencils = [oracle._fd_stencils(mix, t, range(1, 5), None) for t in ts]
        split, joint = [((1, 2), 5), ((3, 4), 7)], [((1, 2, 3, 4), 7)]
        assert [[(orders, len(offsets)) for _, orders, offsets in steps] for steps in stencils] == [
            split,
            split,
            joint,
            joint,
        ]
        # the 38 stencil times of all four flow times are the jobs of one
        # integrate call
        calls = []
        integrate = oracle.integrate

        def counting(panels, fn):
            calls.append(len(panels))
            return integrate(panels, fn)

        monkeypatch.setattr(oracle, "integrate", counting)
        panels = [oracle.entropy_result(mix, t).panels for t in ts]
        together = oracle._fd_finish(mix, ts, stencils, panels, DEFAULT_TOL)
        assert calls == [38]
        assert together == [fd_entropy_derivs(mix, t, range(1, 5)) for t in ts]
        for t, fd in zip(ts, together):
            assert fd == {n: fd_entropy_deriv_result(mix, t, n) for n in range(1, 5)}

    def test_a_step_out_of_float_range_names_its_flow_time(self):
        # at t = 1e-85 the order-4 step 0.45 t makes h**4 underflow to 0;
        # at t = 1e80 the step 0.02 t makes it overflow
        g = GaussianMixture.single(0, 1)
        for t in (1e-85, 1e80):
            with pytest.raises(oracle.FlowRangeError, match="h\\*\\*4") as caught:
                fd_entropy_derivs(g, t, range(1, 5))
            assert (caught.value.t, caught.value.component) == (t, None)

    def test_a_fisher_information_too_small_to_square_names_the_widest_component(self):
        mix = GaussianMixture.create([(0.5, 0.0, 1e200), (0.5, 3.0, 1e199)])
        with np.errstate(all="ignore"):
            with pytest.raises(oracle.FlowRangeError, match="J\\*\\*2") as caught:
                scan_conjectures(mix, [0.1, 0.2, 0.3], 2)
        assert (caught.value.t, caught.value.component) == (0.1, 0)


class TestWindows:
    """A component far narrower than the window gets initial panels of its own."""

    # J of [(0.5, 0, 1), (0.5, 0, v)] at t = 1, from windows split at each
    # component's own 12-sigma edges; a window of 8 equal panels misses the
    # narrow component from v of about 1e8 on (J 5.0e-9, converged=True)
    SPLIT_WINDOW_J = {1e8: 0.249286989117, 1e10: 0.249899770903, 1e12: 0.249986763383}

    @pytest.mark.parametrize("v", sorted(SPLIT_WINDOW_J))
    def test_a_narrow_component_is_resolved(self, v):
        mix = GaussianMixture.create([(0.5, 0.0, 1.0), (0.5, 0.0, v)])
        a, b = mix.support_interval(1.0)
        edge = 12.0 * math.sqrt(2.0)
        assert oracle._window(mix, 1.0) == (a, -edge, edge, b)
        j = oracle.fisher_result(mix, 1.0)
        assert j.converged
        assert j.value == pytest.approx(self.SPLIT_WINDOW_J[v], rel=1e-9)
        assert oracle.entropy_result(mix, 1.0).converged

    @pytest.mark.parametrize("v", [1e2, 1e4])
    def test_a_resolvable_component_adds_no_breakpoint(self, v):
        mix = GaussianMixture.create([(0.5, 0.0, 1.0), (0.5, 0.0, v)])
        assert oracle._window(mix, 1.0) == mix.support_interval(1.0)

    def test_demo_and_benchmark_windows_are_unsplit(self):
        # the trigger leaves every mesh of the demo configs and of the
        # benchmark inputs as it was
        cases = [
            (BIMODAL_MIXTURE, time_grid(0.05, 100.0, 400, "log")),
            (GaussianMixture.single(0.0, 1.0), time_grid(0.3, 5.0, 40)),
            (BIMODAL_MIXTURE, [1.0 / t - 1.0 for t in time_grid(0.05, 0.95, 31)]),
            (wide_mixture(), [1.0 / t - 1.0 for t in time_grid(0.02, 0.98, 100)]),
            (wide_mixture(), time_grid(0.1, 100.0, 12, "log")),
        ]
        for mix, ts in cases:
            for t in ts:
                assert oracle._window(mix, float(t)) == mix.support_interval(float(t))


class TestSecondDifference:
    def test_exact_for_quadratics(self):
        ts = [0.5, 0.9, 1.2, 2.0, 3.5]
        vals = [3 * t * t - 2 * t + 1 for t in ts]
        dd, err = second_difference(ts, vals)
        assert np.isnan(dd[0]) and np.isnan(dd[-1])
        assert np.allclose(dd[1:-1], 6.0)

    def test_error_propagation(self):
        ts = [1.0, 2.0, 3.0]
        _, err = second_difference(ts, [0.0, 0.0, 0.0], [1e-9, 1e-9, 1e-9])
        assert err[1] == pytest.approx(4e-9)


class TestScan:
    def test_gaussian_grid_all_verdicts_pass(self):
        g = GaussianMixture.single(0, 1)
        res = scan_conjectures(g, [0.5, 1.0, 2.0], max_order=4)
        assert res.all_signs_ok()
        assert res.all_costa_ok()
        for row in res.rows:
            for n, value in enumerate(row.d_sym, start=1):
                assert math.isclose(
                    value, gaussian_dnh(n, 1.0 + row.t), rel_tol=1e-8
                )

    def test_gaussian_logJ_convex_and_e2h_linear(self):
        g = GaussianMixture.single(0, 1)
        res = scan_conjectures(g, list(np.linspace(0.5, 3.0, 9)), max_order=2)
        for row in res.rows[1:-1]:
            assert row.logJ_dd >= -1e-8
            assert abs(row.e2h_dd) <= 1e-8

    def test_a_stopped_short_tree_leaves_its_verdicts_inconclusive(self, capped):
        # under the cap the 16-component draw's C_4 tree at t = 0.1 stops
        # short: d4_sym's verdict rests on it, and only that verdict is withheld
        with pytest.warns(QuadratureNonConvergence, match="C_4 at t=0.1 "):
            res = scan_conjectures(wide_mixture(), [0.1, 1.0], 4)
        short, done = res.rows
        assert short.converged == (True, True, True, True, False)
        assert done.converged == (True,) * 5
        assert _sign_status(short.d_sym[3], 3 * DEFAULT_TOL, -1) == "pass"
        signs = (1, -1, 1, -1)
        for row in res.rows:
            fd = [_sign_status(v, e, w) for (v, e), w in zip(row.d_fd, signs)]
            sym = [_sign_status(v, 3 * DEFAULT_TOL, w) for v, w in zip(row.d_sym, signs)]
            if row is short:
                sym[3] = "inconclusive"
            assert list(row.sign_status) == fd + sym
        assert res.stopped_short_rows() == 1
        assert res.all_signs_ok()

    def test_grid_validation(self):
        g = GaussianMixture.single(0, 1)
        with pytest.raises(ValueError):
            scan_conjectures(g, [0.0, 1.0, 2.0])
        with pytest.raises(ValueError):
            scan_conjectures(g, [2.0, 1.0, 0.5])

    def test_bimodal_invJ_changes_curvature(self):
        grid = time_grid(0.05, 100, 40, "log")
        res = scan_conjectures(BIMODAL_MIXTURE, grid, max_order=1)
        assert res.invJ_dd_has_both_signs()
        assert res.all_signs_ok()

    def test_J_is_the_first_symbolic_integral(self):
        # C_1 integrates to J, so a row evaluates it once for both columns
        res = scan_conjectures(BIMODAL_MIXTURE, [0.06, 0.2, 1.0], max_order=1)
        for row in res.rows:
            assert row.J == 2.0 * row.d_sym[0]

    def test_csv_schema_and_determinism(self):
        g = GaussianMixture.single(0, 1)
        res1 = scan_conjectures(g, [0.5, 1.0, 2.0], max_order=4)
        res2 = scan_conjectures(g, [0.5, 1.0, 2.0], max_order=4)
        text1, text2 = scan_to_csv(res1), scan_to_csv(res2)
        assert text1 == text2
        header = text1.splitlines()[0]
        assert header == (
            "t,h,J,d1_fd,d2_fd,d3_fd,d4_fd,d1_sym,d2_sym,d3_sym,d4_sym,"
            "logJ_dd,invJ_dd,e2h_dd,costa_ok,signs_ok"
        )
        assert len(text1.splitlines()) == 4

    def test_lower_max_order_pads_csv_with_nan(self):
        g = GaussianMixture.single(0, 1)
        res = scan_conjectures(g, [0.5, 1.0, 2.0], max_order=2)
        line = scan_to_csv(res).splitlines()[1].split(",")
        assert line[5] == "nan" and line[6] == "nan"


class TestWt:
    def test_standard_normal_is_stationary(self):
        g = GaussianMixture.single(0, 1)
        rep = wt_checks(g, list(np.linspace(0.1, 0.9, 9)))
        reference = 0.5 * math.log(2 * math.pi * math.e)
        for row in rep.rows:
            assert math.isclose(row.hW, reference, abs_tol=1e-10)
            assert math.isclose(row.JW, 1.0, abs_tol=1e-10)
        assert rep.concavity_ok()
        assert rep.txz_ok()

    def test_wide_gaussian_closed_form(self):
        g = GaussianMixture.single(0, 4)
        rep = wt_checks(g, list(np.linspace(0.1, 0.9, 17)))
        for row in rep.rows:
            assert math.isclose(row.JW, 1.0 / (1.0 + 3.0 * row.t), rel_tol=1e-10)
        finite = [r.JW_dd for r in rep.rows if math.isfinite(r.JW_dd)]
        assert all(v >= -1e-8 for v in finite)  # convex closed form
        assert rep.concavity_ok()
        assert rep.txz_ok()

    def test_bimodal_jw_curvature_changes_sign(self):
        rep = wt_checks(BIMODAL_MIXTURE, list(np.linspace(0.05, 0.95, 25)))
        assert rep.concavity_ok()
        assert rep.txz_ok()
        assert rep.jw_dd_has_both_signs()

    def test_jw_curvature_signs_must_clear_their_noise(self):
        rep = wt_checks(BIMODAL_MIXTURE, list(np.linspace(0.05, 0.95, 25)))
        inner = rep.rows[1:-1]
        assert math.isnan(rep.rows[0].JW_dd_err) and math.isnan(rep.rows[-1].JW_dd_err)
        assert all(r.JW_dd_err == pytest.approx(0.0, abs=1e-6) and r.JW_dd_err > 0 for r in inner)
        assert rep.jw_dd_has_both_signs()
        # a negative curvature inside its own noise bar no longer counts
        for r in inner:
            if r.JW_dd < 0:
                r.JW_dd_err = -r.JW_dd
        assert not rep.jw_dd_has_both_signs()

    def test_grid_validation(self):
        g = GaussianMixture.single(0, 1)
        with pytest.raises(ValueError):
            wt_checks(g, [0.5, 1.5])

    def test_values_out_of_float_range_name_the_grid_time(self):
        # s = 1/t - 1 overflows at t = 1e-320; at t = 1e-200, s = 1e200
        # and J(Y_s)**2 underflows; a variance of 1e300 makes J tiny at
        # every t, and that component is at fault
        g = GaussianMixture.single(0, 1)
        for t in (1e-320, 1e-200):
            with pytest.raises(oracle.FlowRangeError) as caught:
                wt_checks(g, [t, 0.5, 0.6])
            assert (caught.value.t, caught.value.component) == (t, None)
        with pytest.raises(oracle.FlowRangeError, match="J\\*\\*2") as caught:
            wt_checks(GaussianMixture.single(0, 1e300), [0.1, 0.5, 0.9])
        assert (caught.value.t, caught.value.component) == (0.1, 0)

    def test_csv_output(self):
        g = GaussianMixture.single(0, 1)
        rep = wt_checks(g, [0.2, 0.5, 0.8])
        text = wt_to_csv(rep)
        assert text.splitlines()[0] == "t,s,hW,JW,hW_dd,JW_dd,txz_margin,txz_ok"
        assert len(text.splitlines()) == 4


class TestNumericInvariants:
    def test_total_derivative_integrates_to_zero(self):
        mix = GaussianMixture.create([(0.6, 0.0, 0.9), (0.4, 1.2, 0.5)])
        c = Combination(
            {make_monomial([1, 2]): 2, make_monomial([1, 1, 1]): -1}
        )
        for t in (0.3, 1.0, 3.0):
            assert abs(functional(d_dy(c), mix, t)) < 1e-8

    def test_functional_invariant_under_reduce(self):
        from fractions import Fraction

        from heatcalc.reduction import reduce

        mix = GaussianMixture.create([(0.5, -0.5, 0.7), (0.5, 1.0, 1.3)])
        c = Combination(
            {
                make_monomial([2, 4]): 1,
                make_monomial([1, 1, 2]): Fraction(-3, 2),
            }
        )
        reduced = reduce(c)
        assert reduced != c
        for t in (0.3, 1.0, 3.0):
            before = functional(c, mix, t)
            after = functional(reduced, mix, t)
            assert abs(before - after) < 1e-8
