"""Quadrature call counters: every abscissa is evaluated once per mesh.

The counts are deterministic, so an accidental second pass over the
panels fails here without any timing.
"""

import math
import warnings

import numpy as np
import pytest

from heatcalc import quadrature
from heatcalc.oracle import scan_conjectures, time_grid
from heatcalc.quadrature import (
    Mesh,
    QuadResult,
    QuadratureNonConvergence,
    adaptive_quad,
    build_mesh,
)
from test_oracle import capped, wide_mixture  # noqa: F401 (a fixture)


class Recorder:
    """A Gaussian density that records every array of abscissae it is given."""

    def __init__(self, var=1.0):
        self.var = var
        self.calls = []

    def __call__(self, y):
        self.calls.append(np.array(y, copy=True))
        return np.exp(-0.5 * y * y / self.var) / math.sqrt(2.0 * math.pi * self.var)

    def nodes(self):
        return np.concatenate(self.calls)


class Rows:
    """Several ``Recorder`` densities as the rows of one integrand."""

    def __init__(self, *variances):
        self.singles = [Recorder(var) for var in variances]
        self.calls = 0

    def __call__(self, y):
        self.calls += 1
        return np.array([single(y) for single in self.singles])


def quad_rows(fn, a, b, label=None):
    """Each row of the integrand of rows ``fn`` refined on [a, b], as a forest of one job.

    ``label(job, row)``, if given, names a tree that stops short.
    """
    (results,) = quadrature.refine(quadrature.Forest(lambda y, jobs: fn(y), [(a, b)], label))
    return results


def plain_sum(values):
    # a plain loop, not sum(): sum() compensates its rounding from
    # Python 3.12 on, which would change the last bits of the total
    total = 0.0
    for value in values:
        total += value
    return total


def _nonconverged(action):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = action()
    return result, [
        str(w.message) for w in caught if issubclass(w.category, QuadratureNonConvergence)
    ]


def test_build_mesh_evaluates_each_abscissa_once():
    fn = Recorder(0.003)
    mesh = build_mesh([fn], -12.0, 12.0)
    # a visited panel is either accepted or split, and each split adds two panels
    visited = 2 * len(mesh.panels) - 8
    assert visited > 8
    # one call for the initial panels, then one per refinement level: the
    # panels of depth d are 3 / 2**d wide, and levels 0..max depth are reached
    depths = [round(math.log2(3.0 / (hi - lo))) for lo, hi in mesh.panels]
    levels = max(depths) + 1
    assert levels < visited
    nodes = fn.nodes()
    assert np.unique(nodes).size == nodes.size
    assert len(fn.calls) == 1 + levels
    assert nodes.size == quadrature._ORDER * (8 + 2 * visited)


def test_a_level_sums_each_chunk_once(monkeypatch):
    # rows that name themselves take their roundoff floor from the absolute
    # values of their own rule sums, so no chunk's values are summed a
    # second time as absolute values
    passes = []
    rule_sums = quadrature._rule_sums

    def counting(radii, vals):
        passes.append(vals.shape)
        return rule_sums(radii, vals)

    monkeypatch.setattr(quadrature, "_rule_sums", counting)
    # ten panels per chunk, so a level takes several chunks
    monkeypatch.setattr(quadrature, "_CHUNK_NODES", 10 * quadrature._ORDER)
    rows = Rows(0.02, 3e-4, 1e-5)
    results = quad_rows(rows, -12.0, 12.0)
    assert all(math.isfinite(result.error) for result in results)
    # the panels of depth d are 3 / 2**d wide; levels 0..max depth are reached
    levels = 1 + max(round(math.log2(3.0 / (hi - lo))) for r in results for lo, hi in r.panels)
    assert rows.calls > levels
    assert len(passes) == rows.calls
    assert all(shape[0] == 3 and shape[1] <= 10 for shape in passes)


def test_adaptive_quad_makes_no_call_after_the_mesh(monkeypatch):
    fn = Recorder(0.01)
    built = []

    def recording_bisect(*args, **kwargs):
        trees = bisect(*args, **kwargs)
        built.append(len(fn.calls))
        return trees

    bisect = quadrature._bisect
    monkeypatch.setattr(quadrature, "_bisect", recording_bisect)
    result = adaptive_quad(fn, -12.0, 12.0)
    assert built == [len(fn.calls)]
    assert result.value == pytest.approx(1.0, abs=1e-12)
    assert result.error < 1e-11


def test_mesh_integrate_makes_one_call():
    mesh = build_mesh([Recorder(0.01)], -12.0, 12.0)
    fn = Recorder(0.02)
    value = mesh.integrate(fn)
    assert len(fn.calls) == 1
    assert fn.calls[0].size == quadrature._ORDER * len(mesh.panels)
    assert value == pytest.approx(1.0, abs=1e-10)


def test_mesh_results_sum_the_bisection_halves():
    # a row's result sums its half-panel values over the panels it
    # accepted; integrate on that row's mesh sums whole panels, within the
    # error the result states
    fns = [Recorder(0.01), Recorder(0.003), Recorder(0.02)]
    results = quad_rows(Rows(0.01, 0.003, 0.02), -12.0, 12.0)
    assert len(results) == len(fns)
    for fn, result in zip(fns, results):
        mesh = result.mesh()
        assert not result.panels.flags.writeable
        wholes, halves = [], []
        for lo, hi in mesh.panels:
            mid = 0.5 * (lo + hi)
            wholes.append(Mesh(((lo, hi),)).integrate(fn))
            halves.append(Mesh(((lo, mid),)).integrate(fn) + Mesh(((mid, hi),)).integrate(fn))
        value = plain_sum(halves)
        # each panel counts its discrepancy or, when that is smaller, its
        # roundoff floor; a density is its own magnitude
        panel_errors = [
            max(abs(w - h), quadrature._REL_FLOOR * max(abs(w), abs(h)))
            for w, h in zip(wholes, halves)
        ]
        # adding n panel values rounds by at most n eps times their magnitudes
        rounding = len(halves) * np.finfo(float).eps * plain_sum([abs(h) for h in halves])
        assert result == QuadResult(value, plain_sum(panel_errors) + rounding)
        assert mesh.integrate(fn) == plain_sum(wholes)
        # the two totals differ by at most their discrepancy and the rounding
        # of adding their panels, both of which the error covers
        assert abs(mesh.integrate(fn) - result.value) <= result.error


def test_panel_budget_caps_the_mesh(monkeypatch):
    fn = Recorder(1e-6)
    assert len(build_mesh([fn], -12.0, 12.0).panels) > 16
    monkeypatch.setattr(quadrature, "_MAX_PANELS", 16)
    with pytest.warns(QuadratureNonConvergence, match="depth or panel limit"):
        mesh = build_mesh([fn], -12.0, 12.0)
    assert 8 < len(mesh.panels) <= 16
    # the accepted panels still tile the interval
    assert mesh.panels[0][0] == -12.0 and mesh.panels[-1][1] == 12.0
    assert all(p[1] == q[0] for p, q in zip(mesh.panels, mesh.panels[1:]))


def test_every_nonconverged_mesh_warns(capped):
    # the default filter keeps one warning per text and call site, so the
    # two events must differ in their text to both be shown
    with warnings.catch_warnings(record=True) as caught, pytest.MonkeyPatch.context() as patch:
        warnings.simplefilter("default")
        patch.setattr(quadrature, "_MAX_DEPTH", 0)
        for a, b in ((-12.0, 12.0), (-10.0, 10.0)):
            build_mesh([Recorder(0.001)], a, b)
    messages = [
        str(w.message) for w in caught if issubclass(w.category, QuadratureNonConvergence)
    ]
    assert len(messages) == 2
    assert "[-12, 12]" in messages[0] and "[-10, 10]" in messages[1]
    assert "8 panels" in messages[0] and "depth or panel limit" in messages[0]
    # the oracle names a tree that stops short by its quantity and flow time:
    # with its trees capped at 45 panels, the 16-component wide_mixture
    # scan stops short in its first two C_4 trees (49 and 46 panels)
    ts = time_grid(0.1, 100.0, 12, "log")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("default")
        scan_conjectures(wide_mixture(), ts, 4)
    messages = [
        str(w.message) for w in caught if issubclass(w.category, QuadratureNonConvergence)
    ]
    assert len(messages) == 2
    for t, message in zip(ts[:2], messages):
        assert message.startswith(f"mesh refinement for C_4 at t={float(t)!r} on [")


def test_a_magnitude_row_sets_the_floor_of_a_cancelling_row():
    # (big + g) - big is g plus the rounding of big, about eps * 1e10 per
    # node; a row that names itself keys its floor to the absolute values
    # of its own rule sums, about 1, far below that noise, so its tree
    # chases it to the depth limit, while the magnitude row big + g + big
    # stops it on the 8 initial panels
    g, big = Recorder(0.01), Recorder(1.0)

    def rows(y, jobs):
        b = 1e10 * big(y)
        return np.array([(b + g(y)) - b, b + g(y) + b])

    forest = quadrature.Forest(rows, [(-12.0, 12.0)], magnitudes=(0,))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(quadrature, "_MAX_DEPTH", 6)
        (alone,), events = _nonconverged(lambda: quadrature.refine(forest))
    assert len(alone) == 1 and alone[0].error == math.inf and len(events) == 1
    forest = quadrature.Forest(rows, [(-12.0, 12.0)], magnitudes=(1,))
    ((result,),), events = _nonconverged(lambda: quadrature.refine(forest))
    assert math.isfinite(result.error) and len(result.panels) == 8 and events == []
    # the floor it stopped on is in its error, and covers the noise
    assert result.error >= quadrature._REL_FLOOR * 2e10
    assert abs(result.value - 1.0) <= result.error


@pytest.mark.parametrize("max_depth", [24, 3])
def test_rows_accept_their_panels_by_their_own_test(max_depth, monkeypatch):
    # at depth 3 the two narrow rows stop unconverged, at different panels
    monkeypatch.setattr(quadrature, "_MAX_DEPTH", max_depth)
    rows = Rows(0.02, 3e-4, 1e-5)
    shared, shared_events = _nonconverged(lambda: quad_rows(rows, -12.0, 12.0))
    shared_calls = rows.calls
    alone, alone_events = _nonconverged(
        lambda: [adaptive_quad(fn, -12.0, 12.0) for fn in rows.singles]
    )
    assert [(r.value, r.error) for r in shared] == [(r.value, r.error) for r in alone]
    assert shared_events == alone_events
    assert len(shared_events) == (2 if max_depth == 3 else 0)
    # one call per level of the deepest row's tree
    alone_calls = [len(fn.calls) - shared_calls for fn in rows.singles]
    assert shared_calls == max(alone_calls) > min(alone_calls)


def test_build_mesh_takes_one_row():
    # each row has a mesh of its own, so a mesh of several rows is refused
    rows = Rows(0.01, 0.003)
    for integrands in ([rows], rows.singles):
        with pytest.raises(ValueError, match="one integrand row, not 2"):
            build_mesh(integrands, -12.0, 12.0)
    # an integrand of rows integrates on no mesh, a row at a time: each of
    # its rows does, with the bits of that row's own integrand; rows are a
    # forest's, and refine integrates them
    mesh = build_mesh(rows.singles[:1], -12.0, 12.0)
    with pytest.raises(ValueError, match=r"not 2: values of shape \(2, "):
        mesh.integrate(rows)
    with pytest.raises(ValueError, match=r"not 2: values of shape \(2, "):
        adaptive_quad(rows, -12.0, 12.0)
    assert tuple(mesh.integrate(lambda y, k=k: rows(y)[k]) for k in range(2)) == tuple(
        mesh.integrate(fn) for fn in rows.singles
    )


def _bits(values):
    return np.asarray(values, dtype=float).view(np.uint64)


def test_batched_panel_sums_have_the_bits_of_per_panel_dot():
    # 20,000 panels whose values span 1e-30 to 1e5, within and across panels
    rng = np.random.default_rng(11)
    weights = quadrature._WEIGHTS
    vals = rng.standard_normal((4, 5000, 24)) * 10.0 ** rng.uniform(-30, 5, (4, 5000, 1))
    vals *= 10.0 ** rng.uniform(-2, 2, vals.shape)
    radii = rng.uniform(1e-3, 3.0, 5000)

    def per_panel(radii, vals):
        return [[r * float(weights.dot(row)) for r, row in zip(radii, rows)] for rows in vals]

    batched = quadrature._rule_sums(radii, vals)
    assert np.array_equal(_bits(batched), _bits(per_panel(radii, vals)))
    # picked or strided panels sum as they do in place
    picks = np.sort(rng.choice(5000, 700, replace=False))
    picked = quadrature._rule_sums(radii[picks], vals[:, picks])
    assert np.array_equal(_bits(picked), _bits(batched[:, picks]))
    assert np.array_equal(
        _bits(quadrature._rule_sums(radii[::3], vals[:, ::3])), _bits(batched[:, ::3])
    )


def test_segment_sums_add_left_to_right():
    rng = np.random.default_rng(2)
    values = rng.standard_normal(3000) * 10.0 ** rng.uniform(-12, 12, 3000)
    segments = rng.integers(0, 40, 3000)
    totals = quadrature._sequential_sums(values, segments, 41)
    for k in range(41):
        assert _bits(totals[k]) == _bits(plain_sum(values[segments == k].tolist()))
        cumulative = np.cumsum(np.concatenate([[0.0], values[segments == k]]))[-1]
        assert _bits(totals[k]) == _bits(cumulative)


def _gaussian_rows(variances):
    """A forest integrand: job j's two rows are Gaussians of variance v_j and v_j / 3."""
    variances = np.asarray(variances)

    def fn(y, jobs):
        v = np.stack([variances[jobs], variances[jobs] / 3.0])
        return np.exp(-0.5 * y * y / v) / np.sqrt(2.0 * math.pi * v)

    return fn


def _one(var):
    def fn(y):
        return _gaussian_rows([var])(y, np.zeros(y.size, dtype=np.intp))

    return fn


def _names(variances):
    """A forest's ``label`` that names the rows of ``_gaussian_rows(variances)``."""
    return lambda job, row: (f"var {variances[job]}", f"var {variances[job]} / 3")[row]


@pytest.mark.parametrize("max_depth", [24, 3])
def test_forest_jobs_equal_one_job_each(max_depth, monkeypatch):
    # at depth 3 the narrow jobs stop unconverged, with different panel counts
    monkeypatch.setattr(quadrature, "_MAX_DEPTH", max_depth)
    variances = [0.02, 3e-4, 1.0, 1e-5]
    spans = [(-12.0, 12.0), (-10.0, 14.0), (-30.0, 30.0), (-12.0, 12.0)]
    forest = quadrature.Forest(_gaussian_rows(variances), spans, _names(variances))
    together, together_events = _nonconverged(lambda: quadrature.refine(forest))
    alone, alone_events = _nonconverged(
        lambda: [quad_rows(_one(v), a, b, _names([v])) for v, (a, b) in zip(variances, spans)]
    )
    # events job by job, and within a job row by row
    assert together_events == alone_events
    assert len(together_events) == (4 if max_depth == 3 else 0)
    assert together == alone
    for j, results in enumerate(alone):
        for row, row_alone in zip(together[j], results):
            assert np.array_equal(row.panels, row_alone.panels)
        bounded = [max_depth == 24 or variances[j] > 1e-3] * 2
        assert [math.isfinite(r.error) for r in together[j]] == bounded


def test_breakpoints_split_the_initial_panels():
    # a job's interior breakpoints split its 8 equal initial panels
    fn = Recorder(1e-8)
    forest = quadrature.Forest(lambda y, jobs: fn(y)[None], [(-12.0, -1e-3, 1e-3, 12.0)])
    ((result,),) = quadrature.refine(forest)
    assert math.isfinite(result.error)
    assert result.value == pytest.approx(1.0, abs=1e-11)
    # the narrow Gaussian at 0 falls between every node of the equal panels
    plain = adaptive_quad(fn, -12.0, 12.0)
    assert math.isfinite(plain.error) and plain.value < 1e-30
    first = fn.calls[0]
    assert first.size == 24 * 10 and first.min() < 0 < first.max()
    assert {-12.0, -9.0, -3.0, -1e-3, 0.0, 1e-3, 3.0, 12.0} <= set(result.panels.ravel().tolist())


@pytest.mark.parametrize("max_depth", [24, 3])
def test_one_row_mesh_results_equal_adaptive_quad(max_depth, monkeypatch):
    # a one-row mesh is the panels on which adaptive_quad of that row sums
    # its result, and it warns as that result does
    monkeypatch.setattr(quadrature, "_MAX_DEPTH", max_depth)
    spans = ((-12.0, 12.0), (-3.0, 9.0))
    cases = [(Recorder(var), a, b) for var in (0.02, 3e-4, 1e-5) for a, b in spans]
    meshes, mesh_events = _nonconverged(
        lambda: [build_mesh([fn], a, b) for fn, a, b in cases]
    )
    alone, alone_events = _nonconverged(
        lambda: [adaptive_quad(fn, a, b) for fn, a, b in cases]
    )
    assert meshes == [result.mesh() for result in alone]
    assert mesh_events == alone_events
    assert [r.error for r in alone].count(math.inf) == (3 if max_depth == 3 else 0)


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
def test_non_finite_panels_stop_unconverged(bad):
    # comparing a NaN discrepancy with the tolerance is False, so a panel
    # whose rule sums are not finite must be rejected explicitly, and
    # bisecting it would only find more of the same
    fn = Recorder()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = adaptive_quad(lambda y: np.where(y > 0.5, bad, fn(y)), 0.0, 1.0)
    assert result.error == math.inf
    assert [w.category for w in caught] == [QuadratureNonConvergence]
    assert "at 8 panels" in str(caught[0].message)
    assert len(result.panels) == quadrature._INITIAL_PANELS
    # the initial level and the halves of its panels, nothing deeper
    assert len(fn.nodes()) == 3 * quadrature.INITIAL_NODES
