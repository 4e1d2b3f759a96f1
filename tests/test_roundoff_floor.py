"""The cancellation-aware roundoff floor, and the kernel work it saves.

The canonical forms C_n cancel badly between their terms: on N(0, 1) the
integral of f * sum |c_i m_i| is about 1e3 times |C_4| and 5e11 times
|C_8|.  Each combination of two terms or more therefore carries a
magnitude row, and its panels stop refining at ``_REL_FLOOR`` of that
magnitude, which is where rounding leaves them; each panel's error counts
that floor.  The cases here are checked against values known exactly.
"""

import math
import sys
import warnings
from pathlib import Path

import pytest

from heatcalc import mixtures, oracle
from heatcalc.mixtures import BIMODAL_MIXTURE, GaussianMixture
from heatcalc.oracle import DEFAULT_TOL, scan_conjectures, time_grid, wt_checks
from heatcalc.quadrature import QuadratureNonConvergence
from heatcalc.reduction import entropy_derivative

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
from perfbench import workloads  # noqa: E402

# h'''' of the bimodal mixture at this flow time, to 29 digits, from a
# 30-digit decimal trapezoid rule on a window that covers both components
BIMODAL_T = 0.082049268939200587
BIMODAL_H4 = -2731.2754284838134884560459790


def _quiet(action):
    """``action()`` with every non-convergence warning raised as an error."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", QuadratureNonConvergence)
        return action()


@pytest.mark.parametrize("n", range(1, 9))
def test_gaussian_c_n_converge_within_their_error(n):
    # on N(0, 1) at t = 1 the flowed variance is 2, and the integral of
    # C_n is (-1)^(n+1) (n-1)! / 2^n
    (result,) = _quiet(
        lambda: oracle._flow_results(
            GaussianMixture.single(), 1.0, [("C_n", entropy_derivative(n))], DEFAULT_TOL
        )
    )
    exact = (-1) ** (n + 1) * math.factorial(n - 1) / 2.0**n
    assert result.converged
    assert len(result.panels) <= 8
    assert abs(result.value - exact) <= result.error


def test_bimodal_fourth_derivative_is_within_its_error():
    (c4,) = _quiet(
        lambda: oracle._flow_results(
            BIMODAL_MIXTURE, BIMODAL_T, [("C_4", entropy_derivative(4))], DEFAULT_TOL
        )
    )
    assert c4.converged
    # the value is 1.8e-10 off, through the rounding of C_4's terms; the
    # quadrature discrepancy alone, 3.4e-11, does not cover that
    assert abs(0.5 * c4.value - BIMODAL_H4) <= 0.5 * c4.error


def test_bimodal_fourth_derivative_jet_is_within_its_error():
    # the jet row of order 4 is 5.9e-12 off, with a stated error of 1.9e-10
    value, error = _quiet(lambda: oracle.fd_entropy_deriv_result(BIMODAL_MIXTURE, BIMODAL_T, 4))
    assert abs(value - BIMODAL_H4) <= error


@pytest.mark.parametrize("tol", [1e-11, 1e-14, 1e-15, 1e-16])
@pytest.mark.parametrize("v", [1e-9, 1e-6, 1e-4, 1e-2])
def test_gaussian_entropy_is_within_its_error(v, tol):
    # h's integrand -f log f changes sign where f = 1; on a half panel
    # across that point the absolute value of its rule sum, which keys its
    # floor, is below that of its node values, and at tol 1e-15 or less
    # such panels refine further.  The worst case is 0.18 of its error
    mix = GaussianMixture.create([(1.0, 0.0, v)])
    for t in (1e-9, 1e-6, 1e-4, 1e-2, 1.0):
        h = _quiet(lambda: oracle.entropy_result(mix, t, tol))
        assert h.converged
        assert abs(h.value - 0.5 * math.log(2.0 * math.pi * math.e * (v + t))) <= h.error


def _wide_scan_grid():
    grid = workloads.WIDE_SCAN_GRID
    return time_grid(grid["start"], grid["stop"], grid["points"], grid["spacing"])


def test_wide_scan_converges_everywhere():
    mix = GaussianMixture.create(workloads.wide_mixture_components())
    result = _quiet(lambda: scan_conjectures(mix, _wide_scan_grid(), 4))
    assert result.inconclusive_rows() == 0
    assert all(all(row.converged) for row in result.rows)


class TestKernelWork:
    """Kernel node-times of the benchmark's scans, a deterministic count.

    A node-time is one abscissa flowed to one time; every node of a
    ``map_flow`` call is flowed to the one time of its job.  Every kernel
    call of the oracle goes through ``map_flow``.
    """

    @staticmethod
    def _node_times(monkeypatch, action):
        counted = [0]
        kernel = oracle.map_flow

        def counting(mix, t, y, *args):
            counted[0] += y.size
            return kernel(mix, t, y, *args)

        monkeypatch.setattr(oracle, "map_flow", counting)
        action()
        return counted[0]

    @staticmethod
    def _blocks(monkeypatch, action):
        counted = [0]
        block = mixtures._block

        def counting(*args):
            counted[0] += 1
            return block(*args)

        monkeypatch.setattr(mixtures, "_block", counting)
        action()
        return counted[0]

    def test_wide_scan(self, monkeypatch):
        # 88,992 when its three C_4 trees at t = 0.1-0.35 refined their
        # roundoff to the depth limit, and 50,784 when the fd stencil
        # entropies took 26,688 of them; the jet rows refine with the forest
        mix = GaussianMixture.create(workloads.wide_mixture_components())
        grid = _wide_scan_grid()
        assert self._node_times(monkeypatch, lambda: scan_conjectures(mix, grid, 4)) <= 25_000

    def test_wide_scan_cost_does_not_follow_the_component_order(self, monkeypatch):
        # when trees chased their rounding, where they stopped followed the
        # last bits of the arithmetic: listing the same components in other
        # orders took 88,992 to 324,192 node-times
        components = workloads.wide_mixture_components()
        grid = _wide_scan_grid()
        counts = set()
        for order in (range(16), [3, 15, 0, 9, 1, 12, 7, 4, 14, 2, 11, 6, 10, 8, 13, 5]):
            mix = GaussianMixture.create([components[i] for i in order])
            counts.add(self._node_times(monkeypatch, lambda: scan_conjectures(mix, grid, 4)))
        assert len(counts) == 1

    def test_wide_wt_scan(self, monkeypatch):
        # the larger half of the benchmark's wide_mixture workload: 191,904
        # node-times in 22 map_flow calls
        grid = workloads.WIDE_WT_GRID
        ts = time_grid(grid["start"], grid["stop"], grid["points"], grid["spacing"])
        mix = GaussianMixture.create(workloads.wide_mixture_components())
        assert self._node_times(monkeypatch, lambda: wt_checks(mix, ts)) <= 196_000

    def test_bimodal_scan(self, monkeypatch):
        grid = workloads.BIMODAL_GRID
        ts = time_grid(grid["start"], grid["stop"], grid["points"], grid["spacing"])
        mix = GaussianMixture.create(workloads.BIMODAL)
        # 842,496 when the fd stencil entropies took 537,600 of them; the
        # jet rows take none of their own: the forest refines as it did
        assert self._node_times(monkeypatch, lambda: scan_conjectures(mix, ts, 4)) <= 310_000

    def test_bimodal_blocks_follow_its_two_components(self, monkeypatch):
        # 349 blocks of about 870 nodes when its nine ratio rows, and not
        # its two components, set a block's length; now 81 of up to 4096
        grid = workloads.BIMODAL_GRID
        ts = time_grid(grid["start"], grid["stop"], grid["points"], grid["spacing"])
        mix = GaussianMixture.create(workloads.BIMODAL)
        assert self._blocks(monkeypatch, lambda: scan_conjectures(mix, ts, 4)) <= 100

    def test_wide_blocks_follow_its_sixteen_components(self, monkeypatch):
        # 16 components outnumber the nine ratio rows, which bounded the
        # blocks too: they keep their length of up to 512 nodes
        grid = workloads.WIDE_WT_GRID
        ts = time_grid(grid["start"], grid["stop"], grid["points"], grid["spacing"])
        mix = GaussianMixture.create(workloads.wide_mixture_components())
        assert self._blocks(monkeypatch, lambda: wt_checks(mix, ts)) == 382
        assert self._blocks(monkeypatch, lambda: scan_conjectures(mix, _wide_scan_grid(), 4)) == 50
