"""Oracle tests: quadrature closed forms, the Taylor jet, scans, W_t checks."""

import functools
import math
import sys
import warnings
from fractions import Fraction
from pathlib import Path

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
    entropy,
    fd_entropy_deriv,
    fd_entropy_deriv_result,
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

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
from perfbench import workloads  # noqa: E402


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


C_1_AND_C_2 = [("C_1", entropy_derivative(1)), ("C_2", entropy_derivative(2))]


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
        # the symbolic C_4 and the jet's h^(4) agree within their joint error
        sym = oracle.functional_result(entropy_derivative(4), BIMODAL_MIXTURE, 2.0)
        fd, error = fd_entropy_deriv_result(BIMODAL_MIXTURE, 2.0, 4)
        assert abs(0.5 * sym.value - fd) <= 0.5 * sym.error + error


class TestFiniteDifferences:
    """The d*_fd route: h^(n) as the integral of its Taylor-jet row."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_gaussian_closed_form(self, n):
        g = GaussianMixture.single(0, 1)
        got = fd_entropy_deriv(g, 1.0, n)
        assert math.isclose(got, gaussian_dnh(n, 2.0), rel_tol=1e-13)

    def test_de_bruijn(self):
        got = fd_entropy_deriv(BIMODAL_MIXTURE, 0.7, 1)
        assert math.isclose(got, 0.5 * fisher(BIMODAL_MIXTURE, 0.7), rel_tol=1e-12)

    def test_fourth_order_value(self):
        g = GaussianMixture.single(0, 1)
        assert math.isclose(fd_entropy_deriv(g, 1.0, 4), -3.0 / 16.0, rel_tol=1e-13)

    def test_third_derivative_positive_on_bimodal(self):
        value, error = fd_entropy_deriv_result(BIMODAL_MIXTURE, 0.5, 3)
        assert value > 3 * error > 0

    def test_order_15_counterexample_to_conjecture_1(self):
        # Conjecture 1, (-1)^(n+1) h^(n) >= 0, wants h^(15) >= 0; on this
        # 3-component mixture it is negative beyond 3 errors.  The reference
        # is an independent 40-digit mpmath computation that shares no code
        # with heatcalc: the series of J(t + e) = int F_1^2/F dy, with
        # F = sum_k f_2k e^k / (2^k k!), by composite Gauss-Legendre on
        # [-50, 50], agreeing to 1e-37 at 100 and 200 panels
        mix = GaussianMixture.create(
            [
                (0.485794422544006, 9.462099905280322, 0.2927166680303707),
                (0.44417022902254055, -3.094463110625134, 0.033919760751179515),
                (0.07003534843345344, 3.4251332239786123, 0.01055668597965914),
            ]
        )
        reference = -9.5251868441752e-5
        value, error = fd_entropy_deriv_result(mix, 8.21434358491943, 15)
        assert value + 3 * error < 0
        assert abs(value - reference) <= error

    @pytest.mark.parametrize("r", [0, 1])
    def test_orders_up_to_10_show_that_j_is_not_completely_monotone(self, r):
        # Conjecture 1 says J = 2 h' is completely monotone; then (Bernstein)
        # every Hankel matrix H_r = [(-1)^(i+j+r) J^(i+j+r)] is positive
        # semidefinite.  On the benchmark's 16-component draw the 5x5 H_0
        # and H_1, from h^(1)..h^(10), are not: after a diagonal scaling
        # their least eigenvalue (-5.2e-4 and -2.9e-3) lies below minus the
        # spectral norm of the scaled error matrix (8.7e-11 and 9.7e-10),
        # which bounds how far an eigenvalue moves (Weyl).  det H_0 =
        # -1.3657e-6 and det H_1 = -2.1911e-5 agree with a 40-digit mpmath
        # computation to 10 digits
        mix = GaussianMixture.create(workloads.wide_mixture_components())
        jet = oracle._flow_results(
            mix, 2.3101297000831593, [oracle._jet(n) for n in range(1, 11)], DEFAULT_TOL
        )
        assert all(result.converged for result in jet)
        # J^(k) = 2 h^(k+1)
        values = np.array([2.0 * result.value for result in jet])
        errors = np.array([2.0 * result.error for result in jet])
        k = np.add.outer(np.arange(5), np.arange(5)) + r
        hankel = (-1.0) ** k * values[k]
        assert np.all(np.diag(hankel) > 0)
        diagonal = 1.0 / np.sqrt(np.diag(hankel))
        scale = np.outer(diagonal, diagonal)
        least = np.linalg.eigvalsh(hankel * scale)[0]
        assert least + np.linalg.norm(errors[k] * scale, 2) < 0

    def test_gaussian_errors_cover_the_closed_form(self):
        # every stated jet error covers h^(n) = (-1)^(n+1) (n-1)! / (2 (v+t)^n),
        # from sharp to wide Gaussians and from tiny to large flow times
        for var in (1e-9, 1e-6, 1e-3, 1.0, 3.0, 10.0):
            g = GaussianMixture.single(0, var)
            for t in np.geomspace(1e-9, 1e3, 13):
                for n in range(1, 7):
                    value, error = fd_entropy_deriv_result(g, float(t), n)
                    assert abs(value - gaussian_dnh(n, var + t)) <= error, (var, t, n)
                # and C_1's and C_2's cover J = 1/s and J' = -1/s^2, s = v + t, on
                # which the margins' derived errors rest
                j, jp = oracle._flow_results(g, float(t), C_1_AND_C_2, DEFAULT_TOL)
                s = var + t
                assert abs(j.value - 1.0 / s) <= j.error, (var, t)
                assert abs(jp.value + 1.0 / s**2) <= jp.error, (var, t)

    def test_jet_remainders_are_the_series(self):
        # P_n of (1 + G) log(1 + G), exact in f_2..f_(2n-2)
        def comb(*terms):
            return combination({make_monomial(orders): Fraction(c) for c, orders in terms})

        assert oracle._jet_remainder(1) == Combination.zero()
        assert oracle._jet_remainder(2) == comb(("1/4", [2, 2]))
        assert oracle._jet_remainder(3) == comb(("3/8", [2, 4]), ("-1/8", [2, 2, 2]))
        assert oracle._jet_remainder(4) == comb(
            ("1/4", [2, 6]), ("3/16", [4, 4]), ("-3/8", [2, 2, 4]), ("1/8", [2, 2, 2, 2])
        )

    def test_warns_when_error_estimate_large(self, monkeypatch):
        # trees held to their initial panels cannot resolve modes of
        # standard deviation 0.045 that lie 30 apart, so the stated error
        # is larger than the value
        monkeypatch.setattr(oracle, "refine", functools.partial(quadrature.refine, max_panels=8))
        mix = GaussianMixture.create([(0.5, 0.0, 1e-3), (0.5, 30.0, 1e-3)])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", QuadratureNonConvergence)
            with pytest.warns(FdAccuracyWarning):
                fd_entropy_deriv(mix, 1e-3, 4)

    def test_fifth_derivative_cross_check(self):
        mix = GaussianMixture.create([(0.4, -1.0, 0.6), (0.6, 1.5, 1.2)])
        sym = oracle.functional_result(entropy_derivative(5), mix, 0.8)
        fd, error = fd_entropy_deriv_result(mix, 0.8, 5)
        assert abs(0.5 * sym.value - fd) <= 0.5 * sym.error + error


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
        # forest makes two calls: 8 panels, then their 16 halves, for the
        # jet orders 0..4 and C_1..C_4 together
        assert calls == self.LEVELS

    def test_40_points_make_the_calls_of_3(self, monkeypatch):
        # a forest takes up to 40 flow times, one job each, and each level
        # of each forest is one call for all of them
        calls = self._counting(monkeypatch)
        layouts = []
        for points in (3, 40):
            del calls[:]
            scan_conjectures(GaussianMixture.single(), time_grid(0.3, 5.0, points), 4)
            layouts.append([(shape[0] / points, nodes / points) for shape, nodes in calls])
        levels = [(1, self.PANELS), (1, 2 * self.PANELS)]
        assert layouts[0] == layouts[1] == levels


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
        jet = [oracle._jet(n) for n in range(7)]
        cs = [(f"C_{n}", entropy_derivative(n)) for n in range(1, 9)]
        density = Combination.term(make_monomial([]))
        extra = [("f", density), ("mixed", cls.MIXED), ("zero", Combination.zero())]
        return jet + cs + extra

    @staticmethod
    def exact_terms(spec, lf, ratios, i):
        """Each term of a quantity at node i, exact on the kernel's own floats, without f."""

        def product(mono):
            return math.prod((Fraction(float(ratios[m, i])) ** k for m, k in mono.exps), start=1)

        if isinstance(spec, Combination):
            return [coeff * product(mono) for mono, coeff in spec.items()]
        head = -Fraction(float(lf[i])) * Fraction(float(ratios[2 * spec, i])) / 2**spec
        return [head] + [-c * product(mono) for mono, c in oracle._jet_remainder(spec).items()]

    def test_each_node_is_within_its_roundoff_of_the_exact_value(self):
        # the exact value of each combination and jet row on the kernel's own
        # float log density and ratios, with exact rational coefficients;
        # the compiled terms round the coefficient, each power, each
        # product and each partial sum, well inside 8 eps of the terms'
        # magnitude; so is each magnitude row, f times the sum of the
        # terms' absolute values, of that exact magnitude
        t = 0.4
        y = np.linspace(*self.MIX.support_interval(t), 41)
        qs = self.quantities()
        values = oracle._flow_rows(self.MIX, [t], qs)(y, np.zeros(y.size, np.intp))
        lf, ratios = log_density_and_ratios(self.MIX, t, y, 16)
        f = np.exp(lf)
        eps = np.finfo(float).eps
        layout = oracle._magnitude_rows(qs)
        assert len(values) == max(layout) + 1 > len(qs)
        # h is -f log f to the bit
        assert np.array_equal(values[0], -f * lf)
        for q, ((name, spec), row) in enumerate(zip(qs, values)):
            own = values[layout[q]]
            assert (layout[q] == q) == (len(self.exact_terms(spec, lf, ratios, 0)) <= 1)
            for i in range(y.size):
                terms = self.exact_terms(spec, lf, ratios, i)
                exact = sum(terms, Fraction(0))
                magnitude = sum(map(abs, terms), Fraction(0))
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

        def spying(mix, t, y, jobs, max_m, fn, shape):
            return kernel(mix, t, y, jobs, max_m, lambda lf, r, out: fn(lf, r.view(Spy), out), shape)

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


@pytest.fixture
def c2_capped(monkeypatch):
    """The oracle's trees capped at 9 panels.

    On the bimodal mixture every h, jet and C_1 tree below keeps its 8
    initial panels, and so does C_2's, except where the two modes merge:
    at t = 0.793 and 1.583 of the 12-point log scan on [0.05, 100], and at
    t = 0.26..0.68 but 0.59 of the 31-point wt grid on [0.05, 0.95], C_2's
    tree takes 10 panels, so there it stops short and nothing else does.
    """
    monkeypatch.setattr(oracle, "refine", functools.partial(quadrature.refine, max_panels=9))


def nan_at(monkeypatch, quantity, s):
    """The oracle's trees as they are, but ``quantity``'s integral at flow time s NaN.

    That is what refining a NaN integrand gives: no rule sum exceeds the
    tolerance, so the tree ends with a NaN value and error.
    """
    label = f"{quantity} at t={float(s)!r}"

    def refine(forest, tol, stacklevel=2):
        results = quadrature.refine(forest, tol, stacklevel=stacklevel + 1)
        for labels, row in zip(forest.labels, results):
            if label in labels:
                row[labels.index(label)] = quadrature.QuadResult(math.nan, math.nan)
        return results

    monkeypatch.setattr(oracle, "refine", refine)


class TestSharedEvaluation:
    """Sharing kernel calls between the quantities of a row changes no bit."""

    # the scan's row at max_order 4: the jet orders 0..4, then C_1..C_4
    ROW = [oracle._jet(n) for n in range(5)] + [
        (f"C_{n}", entropy_derivative(n)) for n in range(1, 5)
    ]

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
        assert fd_entropy_deriv_result(mix, t, 3) == (shared[3].value, shared[3].error)
        assert functional(entropy_derivative(3), mix, t) == shared[7].value
        # a plain integrand takes its own absolute value as its magnitude,
        # and so do the one-term h, h' and C_1
        a, b = mix.support_interval(t)
        for q in (0, 1, 5):
            assert shared[q] == adaptive_quad(self._plain(mix, t, self.ROW[q]), a, b)

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
        # the scan's one forest of rows (the jet orders 0..4, C_1..C_4)
        # against each row of each flow time refined alone: every value,
        # error, flag, accepted panel and warning, in order
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
            # so the cap of 45 stops it short, with the panels it had; its
            # jet h'''' takes 40
            panels = [m.split(" at ")[-1].split(" panels")[0] for m in messages[0]]
            assert [r.converged for r in flows[0]] == [True] * 8 + [False]
            assert panels == [str(len(flows[0][8].panels))]
            assert len(flows[0][8].panels) <= 45
        else:
            assert messages[0] == []
        # h's own test is that of a plain integrand
        assert [flow[0].mesh() for flow in flows] == [
            build_mesh([self._plain(mix, t, self.ROW[0])], *mix.support_interval(t)) for t in ts
        ]

    def test_converged_flag_follows_the_tree(self, capped):
        # under the cap the 16-component draw's C_4 tree at t = 0.1 stops short
        with warnings.catch_warnings(record=True):
            warnings.simplefilter("always")
            results = oracle._flow_results(wide_mixture(), 0.1, self.ROW, DEFAULT_TOL)
        assert [r.converged for r in results] == [True] * 8 + [False]
        assert oracle.entropy_result(BIMODAL_MIXTURE, 1.0).converged

    @pytest.mark.parametrize("t", [0.05, 0.7, 12.0])
    def test_fd_orders_together_equal_each_alone(self, t):
        together = oracle._flow_results(
            BIMODAL_MIXTURE, t, [oracle._jet(n) for n in range(1, 7)], DEFAULT_TOL
        )
        for n, result in enumerate(together, start=1):
            assert (result.value, result.error) == fd_entropy_deriv_result(BIMODAL_MIXTURE, t, n)

    @pytest.mark.parametrize("max_order", range(1, 7))
    @pytest.mark.parametrize("case", ["bimodal", "wide", "sharp"])
    def test_scan_fd_equals_fd_of_each_time(self, case, max_order):
        # the benchmark recomputes each row's jet from its t alone, and
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
            assert row.d_fd == tuple(fd_entropy_deriv_result(mix, row.t, n) for n in orders)

    def test_fd_orders_validate_each_order(self):
        with pytest.raises(ValueError, match=">= 1"):
            fd_entropy_deriv_result(BIMODAL_MIXTURE, 0.5, 0)
        with pytest.raises(ValueError, match="t > 0"):
            fd_entropy_deriv_result(BIMODAL_MIXTURE, 0.0, 2)

    def test_a_flowed_variance_out_of_float_range_names_its_field(self):
        # at max_order 4 the integrands reach ratio row 8 and scale like
        # s**-4.5, s = v + t: that overflows at s = 2e-100 and underflows
        # at s = 1e80; the larger of v and t is at fault, before any
        # kernel call
        cases = [
            (GaussianMixture.single(0, 1e-100), 1e-100, 0),
            (GaussianMixture.single(0, 1e-200), 1e-100, None),
            (GaussianMixture.single(0, 1e80), 1.0, 0),
            (GaussianMixture.single(0, 1), 1e80, None),
        ]
        for mix, t, component in cases:
            with pytest.raises(oracle.FlowRangeError, match="flowed variance") as caught:
                oracle._scan_row_core(mix, t, 4, DEFAULT_TOL)
            assert (caught.value.t, caught.value.component) == (t, component)
        # s = 2e-100 is in range for wt-scan's quantities, whose largest
        # term weight is C_2's 4, and s = 2e-66 at the scan's weight 8,
        # where every tree converges with no overflow
        oracle._check_kernel(
            GaussianMixture.single(0, 1e-100), [(-1.0, 1.0)], [1e-100], [oracle._jet(0), *C_1_AND_C_2]
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            row = oracle._scan_row_core(GaussianMixture.single(0, 1e-66), 1e-66, 4, DEFAULT_TOL)
        assert all(row.converged)

    def test_a_fisher_information_too_small_to_square_names_the_widest_component(self):
        # the narrowest component, of weight 1e-300, keeps C_2's s**-2.5 in
        # range, while J is about 1e-200, of the wide one: J**2 is the first
        # value to leave float64's range, and no numpy warning comes first
        mix = GaussianMixture.create([(1.0, 0.0, 1e200), (1e-300, 3.0, 1.0)])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(oracle.FlowRangeError, match="J\\*\\*2") as caught:
                scan_conjectures(mix, [0.1, 0.2, 0.3], 1)
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

    def test_equals_the_point_by_point_stencil(self):
        # the arrays do each point's arithmetic in the loop's order, so the
        # bits are the loop's
        rng = np.random.default_rng(1)
        ts = np.cumsum(rng.uniform(0.01, 2.0, 40))
        vals, errs = rng.normal(size=40), rng.uniform(0.0, 1e-9, 40)
        dd, err = second_difference(ts, vals, errs)
        for i in range(1, 39):
            hp, hm = ts[i + 1] - ts[i], ts[i] - ts[i - 1]
            slopes = (vals[i + 1] - vals[i]) / hp - (vals[i] - vals[i - 1]) / hm
            noise = errs[i + 1] / hp + errs[i] * (1.0 / hp + 1.0 / hm) + errs[i - 1] / hm
            assert (dd[i], err[i]) == (2.0 * slopes / (hp + hm), 2.0 * noise / (hp + hm))

    def test_a_point_whose_tree_stopped_short_has_no_error_bound(self):
        # such a point's row carries an infinite error, and so does every
        # estimate that uses it
        ts, vals = [1.0, 2.0, 3.0, 4.0, 5.0], [0.0, 1.0, 4.0, 9.0, 16.0]
        dd, err = second_difference(ts, vals, [1e-9] * 4 + [math.inf])
        assert list(dd[1:-1]) == [2.0] * 3
        assert list(np.isinf(err)) == [False, False, False, True, False]


class TestScan:
    def test_gaussian_grid_all_verdicts_pass(self):
        g = GaussianMixture.single(0, 1)
        res = scan_conjectures(g, [0.5, 1.0, 2.0], max_order=4)
        assert res.all_signs_ok()
        assert res.all_costa_ok()
        for row in res.rows:
            for n, (value, error) in enumerate(row.d_sym, start=1):
                assert abs(value - gaussian_dnh(n, 1.0 + row.t)) <= error

    def test_gaussian_logJ_convex_and_e2h_linear(self):
        g = GaussianMixture.single(0, 1)
        res = scan_conjectures(g, list(np.linspace(0.5, 3.0, 9)), max_order=2)
        for row in res.rows[1:-1]:
            assert row.logJ_dd >= -1e-8
            assert abs(row.e2h_dd) <= 1e-8

    def test_a_stopped_short_tree_leaves_its_verdicts_inconclusive(self, capped):
        # under the cap the 16-component draw's C_4 tree at t = 0.1 stops
        # short: d4_sym rests on it, and only its error is infinite, so
        # only that verdict is withheld
        with pytest.warns(QuadratureNonConvergence, match="C_4 at t=0.1 "):
            res = scan_conjectures(wide_mixture(), [0.1, 1.0], 4)
        with pytest.warns(QuadratureNonConvergence, match="functional at t=0.1 "):
            c4 = oracle.functional_result(entropy_derivative(4), wide_mixture(), 0.1)
        short, done = res.rows
        # the jet orders 0..4, then C_1..C_4
        assert short.converged == (True,) * 8 + (False,)
        assert done.converged == (True,) * 9
        # the tree's own estimate would pass; the row keeps its value only
        assert not c4.converged
        assert _sign_status(0.5 * c4.value, 0.5 * c4.error, -1) == "pass"
        assert short.d_sym[3] == (0.5 * c4.value, math.inf)
        errors = [e for _, e in short.d_fd + short.d_sym]
        assert [math.isinf(e) for e in errors] == [False] * 7 + [True]
        assert math.isfinite(short.costa_margin_err)
        signs = (1, -1, 1, -1)
        for row in res.rows:
            fd = [_sign_status(v, e, w) for (v, e), w in zip(row.d_fd, signs)]
            sym = [_sign_status(v, e, w) for (v, e), w in zip(row.d_sym, signs)]
            assert list(row.sign_status) == fd + sym
        assert short.sign_status[7] == "inconclusive"
        assert res.inconclusive_rows() == 1
        assert res.all_signs_ok()

    def test_a_stopped_short_C2_tree_leaves_costa_inconclusive(self, c2_capped):
        # at max_order 1 only -J' >= J^2 rests on C_2; the tree's own
        # estimate would pass, but a tree that stopped short gives J' and
        # the margin an infinite error
        grid = time_grid(0.05, 100.0, 12, "log")
        with pytest.warns(QuadratureNonConvergence, match="C_2 at t=") as caught:
            res = scan_conjectures(BIMODAL_MIXTURE, grid, max_order=1)
        assert len(caught) == 2
        short = [i for i, row in enumerate(res.rows) if not row.converged[3]]
        assert short == [4, 5]
        eps = np.finfo(float).eps
        for i, row in enumerate(res.rows):
            if i in short:
                with pytest.warns(QuadratureNonConvergence, match="C_2 at t="):
                    j, jp = oracle._flow_results(BIMODAL_MIXTURE, row.t, C_1_AND_C_2, DEFAULT_TOL)
                assert not jp.converged and (row.J, row.Jp) == (j.value, jp.value)
                own = 2.0 * j.value * j.error + jp.error + eps * (abs(jp.value) + j.value**2)
                assert _sign_status(row.costa_margin, own, 1) == "pass"
                assert (row.Jp_err, row.costa_margin_err) == (math.inf, math.inf)
                assert row.costa_status == "inconclusive"
            else:
                assert math.isfinite(row.costa_margin_err)
                assert row.costa_status == _sign_status(row.costa_margin, row.costa_margin_err, 1)
            assert row.withheld == (i in short)
            assert row.sign_status == ("pass", "pass")
        assert res.all_costa_ok() and res.all_signs_ok()
        assert res.inconclusive_rows() == 2
        assert [line.split(",")[-2] for line in scan_to_csv(res).splitlines()[1:]] == ["1"] * 12

    def test_a_nan_margin_is_inconclusive_not_failed(self, monkeypatch):
        nan_at(monkeypatch, "C_2", 1.0)
        res = scan_conjectures(BIMODAL_MIXTURE, [0.5, 1.0, 2.0], max_order=1)
        row = res.rows[1]
        assert math.isnan(row.costa_margin) and all(row.converged)
        assert row.costa_status == "inconclusive"
        assert [r.costa_status for r in res.rows] == ["pass", "inconclusive", "pass"]
        assert res.all_costa_ok()
        assert res.inconclusive_rows() == 1

    def test_derived_margin_errors_cover_a_gaussians_zero_margin(self):
        # -J' = J^2 for every Gaussian: the computed margin is rounding and
        # quadrature error only, which its derived error must cover
        g = GaussianMixture.single(0, 1)
        res = scan_conjectures(g, time_grid(0.3, 5.0, 40), max_order=2)
        eps = np.finfo(float).eps
        for row in res.rows:
            j, (jp, jp_err) = row.J, (2.0 * row.d_sym[1][0], 2.0 * row.d_sym[1][1])
            derived = 2.0 * j * row.J_err + jp_err + eps * (abs(jp) + j * j)
            assert row.costa_margin_err == pytest.approx(derived, rel=1e-12)
            assert abs(row.costa_margin) <= row.costa_margin_err
            assert row.costa_status == "inconclusive"

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
            assert (row.J, row.J_err) == (2.0 * row.d_sym[0][0], 2.0 * row.d_sym[0][1])

    @pytest.mark.parametrize(
        "value,error",
        [(math.nan, 0.0), (-math.nan, 0.0), (math.inf, 0.0), (1.0, math.nan), (-1.0, math.inf)],
    )
    def test_a_non_finite_value_or_error_is_inconclusive(self, value, error):
        # a NaN has a sign bit, and every comparison with it is false; it
        # may neither pass nor fail a verdict
        for wanted in (1, -1):
            assert _sign_status(value, error, wanted) == "inconclusive"

    def test_symbolic_values_carry_half_their_integrals_error(self):
        # d_sym's verdicts are judged against these errors, as d_fd's are
        g = GaussianMixture.single(0, 1)
        row = scan_conjectures(g, [0.5, 1.0, 2.0], 4).rows[1]
        for n, pair in enumerate(row.d_sym, start=1):
            result = oracle.functional_result(entropy_derivative(n), g, 1.0)
            assert pair == (0.5 * result.value, 0.5 * result.error)
        signs = [_sign_status(v, e, 1 if n % 2 else -1) for n, (v, e) in enumerate(row.d_sym, 1)]
        assert list(row.sign_status[4:]) == signs == ["pass"] * 4

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

    def test_a_stopped_short_C2_tree_leaves_txz_inconclusive(self, c2_capped):
        with pytest.warns(QuadratureNonConvergence, match="C_2 at t=") as caught:
            rep = wt_checks(BIMODAL_MIXTURE, list(np.linspace(0.05, 0.95, 31)))
        short = [i for i, row in enumerate(rep.rows) if not row.converged[2]]
        assert short == [i for i in range(7, 22) if i != 18] and len(caught) == 14
        eps = np.finfo(float).eps
        for i, row in enumerate(rep.rows):
            assert row.converged[:2] == (True, True)
            t, err = row.t, row.txz_err
            if i in short:
                # the trees' own estimates would pass; the row's error is infinite
                with pytest.warns(QuadratureNonConvergence, match="C_2 at t="):
                    j, jp = oracle._flow_results(BIMODAL_MIXTURE, row.s, C_1_AND_C_2, DEFAULT_TOL)
                assert not jp.converged and row.txz_err == math.inf
                err = 2.0 * t * j.error + jp.error + eps * (abs(jp.value) + t * t + 2 * t * j.value)
            assert _sign_status(row.txz_margin, err, 1) == "pass"
            assert row.txz_status == ("inconclusive" if i in short else "pass")
        assert rep.txz_ok() and rep.concavity_ok()
        assert rep.inconclusive_rows() == 14
        assert [line[-1] for line in wt_to_csv(rep).splitlines()[1:]] == ["1"] * 31

    def test_a_nan_margin_is_inconclusive_not_failed(self, monkeypatch):
        # t = 0.5 is flow time 1
        nan_at(monkeypatch, "C_2", 1.0)
        rep = wt_checks(BIMODAL_MIXTURE, [0.2, 0.4, 0.5, 0.6, 0.8])
        assert math.isnan(rep.rows[2].txz_margin)
        assert [r.txz_status for r in rep.rows] == ["pass"] * 2 + ["inconclusive"] + ["pass"] * 2
        assert rep.txz_ok()
        assert rep.inconclusive_rows() == 1

    def test_a_nan_curvature_is_inconclusive_and_counted(self, monkeypatch):
        # a NaN h at t = 0.5 leaves h(W_t)'s three second differences that
        # use it NaN: none may pass silently, and the row at fault is counted
        nan_at(monkeypatch, "h", 1.0)
        rep = wt_checks(BIMODAL_MIXTURE, [0.2, 0.4, 0.5, 0.6, 0.8, 0.9])
        assert [math.isnan(r.hW_dd) for r in rep.rows[1:-1]] == [True, True, True, False]
        assert [_sign_status(r.hW_dd, r.hW_dd_err, -1) for r in rep.rows[1:-1]] == [
            "inconclusive"
        ] * 3 + ["pass"]
        assert rep.concavity_ok()
        assert [r.withheld for r in rep.rows] == [False, False, True, False, False, False]
        assert rep.inconclusive_rows() == 1

    def test_derived_margin_errors_cover_a_gaussians_zero_margin(self):
        # W_t is N(0, 1) for every t, so J(Y_s) = t and J'(Y_s) = -t^2: the
        # margin is zero, and the integrals' own errors must cover it
        g = GaussianMixture.single(0, 1)
        rep = wt_checks(g, list(np.linspace(0.05, 0.95, 31)))
        eps = np.finfo(float).eps
        for row in rep.rows:
            j, jp = oracle._flow_results(g, row.s, C_1_AND_C_2, DEFAULT_TOL)
            t = row.t
            derived = 2.0 * t * j.error + jp.error + eps * (abs(jp.value) + t * t + 2 * t * j.value)
            assert row.txz_err == pytest.approx(derived, rel=1e-12)
            assert abs(row.txz_margin) <= row.txz_err
            assert row.txz_status == "inconclusive"

    def test_values_out_of_float_range_name_the_grid_time(self):
        # s = 1/t - 1 overflows at t = 1e-320; at t = 1e-200 and 1e-250,
        # s = 1e200 and 1e250, where C_2's s**-2.5 underflows.  A variance
        # of 1e190 beside a narrow component of weight 1e-300 makes J tiny
        # at every t, and one of 1e300 alone the integrands: the wide
        # component is at fault
        g = GaussianMixture.single(0, 1)
        for t in (1e-320, 1e-200, 1e-250):
            with pytest.raises(oracle.FlowRangeError) as caught:
                wt_checks(g, [t, 0.5, 0.6])
            assert (caught.value.t, caught.value.component) == (t, None)
        for mix, message in (
            (GaussianMixture.create([(1.0, 0.0, 1e190), (1e-300, 0.0, 1.0)]), "J\\*\\*2"),
            (GaussianMixture.single(0, 1e300), "flowed variance"),
        ):
            with pytest.raises(oracle.FlowRangeError, match=message) as caught:
                wt_checks(mix, [0.1, 0.5, 0.9])
            assert (caught.value.t, caught.value.component) == (0.1, 0)

    def test_h_curvature_is_the_interpolation_margin(self):
        # at s = 1/t - 1, h(W_t)'' = -txz_margin / (2 t^4): the grid's second
        # differences of h and the rows' C_1 and C_2 test one inequality by
        # two routes, and the grid's truncation shrinks like its step squared
        gaps = []
        for points in (31, 61, 121):
            rep = wt_checks(BIMODAL_MIXTURE, time_grid(0.05, 0.95, points))
            inner = rep.rows[1:-1]
            exact = [-r.txz_margin / (2.0 * r.t**4) for r in inner]
            assert all(np.sign(r.hW_dd) == np.sign(x) != 0 for r, x in zip(inner, exact))
            gaps.append(max(abs(r.hW_dd - x) / abs(x) for r, x in zip(inner, exact)))
        # 0.0227, 0.0064 and 0.0018
        assert gaps[0] < 0.03 and gaps[1] <= gaps[0] / 3 and gaps[2] <= gaps[1] / 3

    @pytest.mark.parametrize("case", ["bimodal", "wide"])
    def test_rows_are_the_scan_rows_at_s(self, case):
        # h(W_t) = h(Y_s) + log(t)/2 and J(W_t) = J(Y_s)/t at s = 1/t - 1:
        # every value is the scan's at that flow time, bit for bit
        mix = BIMODAL_MIXTURE if case == "bimodal" else wide_mixture()
        ts = time_grid(0.05, 0.95, 31)
        rep = wt_checks(mix, ts)
        scan = scan_conjectures(mix, sorted(1.0 / t - 1.0 for t in ts), max_order=1)
        for row, flow in zip(rep.rows, reversed(scan.rows)):
            assert row.s == flow.t
            assert row.hW == flow.h + 0.5 * math.log(row.t) and row.hW_err == flow.h_err
            assert row.JW == flow.J / row.t and row.JW_err == flow.J_err / row.t

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
