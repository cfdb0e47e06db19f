"""Coupling scans, Redfield kernels, the convolution case, corpus generators."""

import warnings

import numpy as np
import pytest

from gkslmap.experiments import (
    RedfieldModel,
    coherence_revival_kernel,
    convolution_case,
    corpus_kernels,
    dephasing_kernel,
    g_scan,
    observed_order,
    pair_distance,
    random_drift,
    random_kernel,
    redfield_kernel,
)
from gkslmap import propagate
from gkslmap.kernel import GKSLKernel, TwoTimeOperatorFunction
from gkslmap.linalg import SIGMA_X, SIGMA_Z
from gkslmap.profiles import (
    ConstantProfile,
    ConvProfile,
    ExpProfile,
    GaussianProfile,
    SeparableProfile,
    SingleVarFactor,
)
from gkslmap.propagate import family_distances, solve_family
from gkslmap.trajectory import TimeGrid
from oracles import eval_kernel_superop


def test_random_kernel_is_seed_reproducible():
    a = random_kernel(17)
    b = random_kernel(17)
    assert a.dim == b.dim
    assert np.array_equal(eval_kernel_superop(a, 1.3, 0.4), eval_kernel_superop(b, 1.3, 0.4))
    assert random_kernel(17).dim in (2, 3)
    assert random_kernel(17, dim=3).dim == 3


def test_corpus_kernels_are_consecutive_seeds():
    corpus = corpus_kernels(3, base_seed=50)
    assert len(corpus) == 3
    assert np.array_equal(
        eval_kernel_superop(corpus[1], 1.0, 0.5),
        eval_kernel_superop(random_kernel(51), 1.0, 0.5),
    )


def test_random_drift_shape_and_reproducibility():
    w = random_drift(9, dim=2)
    assert isinstance(w, TwoTimeOperatorFunction)
    assert np.array_equal(w(0.8, 0.1), random_drift(9, dim=2)(0.8, 0.1))


def test_g_scan_input_validation():
    k = dephasing_kernel()
    grid = TimeGrid(1.0, 20)
    with pytest.raises(ValueError, match=">= 4"):
        g_scan(k, grid, [0.1, 0.2, 0.8])
    with pytest.raises(ValueError, match="positive"):
        g_scan(k, grid, [0.0, 0.1, 0.2, 0.8])
    for bad in ([float("nan"), 0.1, 0.2, 0.8], [0.1, 0.2, 0.8, float("inf")]):
        with pytest.raises(ValueError, match="finite"):
            g_scan(k, grid, bad)
    with pytest.raises(ValueError, match="increasing"):
        g_scan(k, grid, [0.1, 0.1, 0.2, 0.8])
    with pytest.raises(ValueError, match="ratio"):
        g_scan(k, grid, [0.1, 0.2, 0.3, 0.4])
    with pytest.raises(ValueError, match="distinct"):
        g_scan(k, grid, [0.05, 0.1, 0.2, 0.4], pair=("local-full", "local-full"))
    # bad families, series orders and horizons are bad input, not failed points
    gs = [0.05, 0.1, 0.2, 0.4]
    with pytest.raises(ValueError, match="unknown trajectory family"):
        g_scan(k, grid, gs, pair=("local-full", "bogus"))
    with pytest.raises(ValueError, match="series order must be >= 1"):
        g_scan(k, grid, gs, pair=("local-full", "series-local-full"), order=0)
    assert g_scan(k, grid, gs, pair=("local-full", "nonlocal-full"), order=0).failures == ()
    with pytest.raises(ValueError, match="horizon is T = 5.0"):
        g_scan(coherence_revival_kernel(4.0), TimeGrid(5.0, 20), gs)


def test_g_scan_keeps_zero_distances_out_of_the_fit(monkeypatch):
    grid = TimeGrid(2.0, 50)
    gs = [0.05, 0.1, 0.2, 0.4]
    res = g_scan(GKSLKernel.build(2), grid, gs)  # no terms: every pair agrees exactly
    assert res.distances == (0.0,) * 4 and res.g_values == tuple(gs)
    assert res.slope is None and res.intercept is None and res.residual is None
    assert res.local_slopes == () and res.monotone and not res.failures
    # one exact zero among positive distances: the fit takes the positive ones
    dists = [0.0, 2e-4, 3.2e-3, 5.12e-2]
    monkeypatch.setattr("gkslmap.experiments.family_distances", lambda *a, **kw: dists)
    res = g_scan(GKSLKernel.build(2), grid, gs)
    assert res.distances == (0.0, 2e-4, 3.2e-3, 5.12e-2)
    slope, intercept = np.polyfit(np.log10(gs[1:]), np.log10(res.distances[1:]), 1)
    assert res.slope == pytest.approx(4.0) and res.slope == float(slope)
    assert res.intercept == float(intercept) and res.residual < 1e-12
    assert res.local_slopes == pytest.approx((4.0, 4.0))


def test_g_scan_fails_a_singular_coupling_as_a_nan_column(monkeypatch):
    # at M = 40 the dephasing kernel's weak-nonlocal-full step turns singular at g = 100
    k = dephasing_kernel(g=0.8)
    grid = TimeGrid(2.0, 40)
    gs = [1.0, 2.0, 5.0, 10.0, 100.0]
    pair = ("nonlocal-full", "weak-nonlocal-full")
    marches = []
    march = propagate._family_march
    monkeypatch.setattr(propagate, "_family_march", lambda *a: marches.append(a[2]) or march(*a))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a march neither raises nor warns on its numerics
        res = g_scan(k, grid, gs, pair=pair)
        assert marches == list(pair)  # one march per family, no redo per coupling
        dist = family_distances(k, grid, pair, gs)
        singles = [pair_distance(k.with_coupling(g), grid, pair) for g in gs[:-1]]
        with pytest.raises(FloatingPointError) as exc:
            solve_family(k.with_coupling(100.0), grid, "weak-nonlocal-full")
    assert np.isnan(dist[-1]) and dist[:-1].tolist() == singles
    assert res.failures == ((100.0, "the pair distance is not finite (nan)"),)
    assert res.g_values == tuple(gs[:-1]) and res.distances == tuple(singles)
    msg = "weak-nonlocal-full solve produced non-finite map entries (first at t = 0.55)"
    assert str(exc.value) == msg


def test_g_scan_records_non_finite_distances_as_failures(monkeypatch):
    grid = TimeGrid(1.0, 20)
    gs = [0.1, 0.2, 0.4, 0.8]
    dists = [1e-4, 1.6e-3, float("inf"), float("nan")]
    monkeypatch.setattr("gkslmap.experiments.family_distances", lambda *a, **kw: dists)
    res = g_scan(dephasing_kernel(), grid, gs)
    assert res.g_values == (0.1, 0.2) and res.distances == (1e-4, 1.6e-3)
    assert [g for g, _ in res.failures] == [0.4, 0.8]
    assert all("not finite" in msg for _, msg in res.failures)
    assert res.slope == pytest.approx(4.0)
    dists[1] = float("inf")  # one finite point left: no fit, a solver failure
    with pytest.raises(RuntimeError, match="3 of 4 solves failed"):
        g_scan(dephasing_kernel(), grid, gs)


def test_pair_distance_vanishes_at_zero_coupling():
    k = dephasing_kernel().with_coupling(0.0)
    grid = TimeGrid(1.0, 40)
    assert pair_distance(k, grid, ("nonlocal-full", "weak-nonlocal-full")) == 0.0
    assert pair_distance(k, grid, ("local-full", "nonlocal-full")) == 0.0


def test_g_scan_slope_on_random_kernel():
    k = random_kernel(101, dim=2)
    grid = TimeGrid(2.0, 200)
    res = g_scan(k, grid, [0.05, 0.1, 0.2, 0.4])
    assert res.failures == ()
    assert res.monotone
    assert res.slope >= 2.7
    assert res.residual < 0.1
    doc = res.to_doc()
    assert doc["kind"] == "gscan-result" and len(doc["g"]) == 4
    lines = res.csv_text().strip().split("\n")
    assert lines[1] == "g,distance"
    assert lines[-1].startswith("# slope=")


def test_g_scan_local_slopes_show_small_g_floor():
    # Redfield kernel of criterion 8; below g ~ 0.03 at M = 200 the O(h^2 g^2)
    # discretization floor bends the local slope down from the g^4 order
    model = RedfieldModel(
        h_s=0.5 * np.diag([1.0, -1.0]),
        coupling_op=SIGMA_X,
        correlation=ExpProfile(-1.0),
    )
    res = g_scan(redfield_kernel(model), TimeGrid(2.0, 200), [0.00625, 0.0125, 0.025, 0.05],
                 pair=("local-full", "nonlocal-full"))
    # the fitted summary does not flag the floor ...
    assert res.failures == () and res.monotone
    assert 3.3 < res.slope < 3.6
    # ... the per-interval slopes do
    assert len(res.local_slopes) == 3
    assert res.local_slopes[0] < 3.0
    assert res.local_slopes[-1] > 3.7
    assert list(res.local_slopes) == sorted(res.local_slopes)
    lg, ld = np.log10(res.g_values), np.log10(res.distances)
    assert np.allclose(res.local_slopes, np.diff(ld) / np.diff(lg), rtol=0, atol=1e-12)
    assert res.to_doc()["local_slopes"] == list(res.local_slopes)
    lines = res.csv_text().strip().split("\n")
    assert lines[-2] == "# local_slopes=" + ",".join(repr(x) for x in res.local_slopes)


def test_redfield_kernel_eigenoperator_profiles():
    model = RedfieldModel(
        h_s=0.5 * np.diag([1.0, -1.0]),
        coupling_op=SIGMA_X,
        correlation=ExpProfile(-1.0),
    )
    k = redfield_kernel(model)
    assert k.dim == 2
    assert k.is_convolution
    assert len(k.jump_ops) == 1
    rates = sorted(
        (
            p.factor.rate
            for p, _ in k.jump_ops[0].terms
            if isinstance(p, ConvProfile) and p.factor.kind == "exp"
        ),
        key=lambda z: z.imag,
    )
    # Bohr frequencies +-1 fuse with the kappa = 1 correlation decay
    assert rates == [pytest.approx(-1.0 - 1.0j), pytest.approx(-1.0 + 1.0j)]
    # the hermitian part stays empty: only the dissipator is modeled
    assert not k.hermitian.terms


def test_redfield_kernel_zero_frequency_keeps_bare_correlation():
    model = RedfieldModel(h_s=np.zeros((2, 2)), coupling_op=SIGMA_Z, correlation=GaussianProfile(1.0))
    k = redfield_kernel(model)
    profs = [p for p, _ in k.jump_ops[0].terms]
    assert all(isinstance(p, ConvProfile) and p.factor.kind == "gaussian" for p in profs)


def test_redfield_model_validation():
    with pytest.raises(ValueError, match="Hermitian"):
        RedfieldModel(h_s=np.array([[0.0, 1.0], [0.0, 0.0]]), coupling_op=SIGMA_X,
                      correlation=ExpProfile(-1.0))
    with pytest.raises(ValueError, match="real"):
        RedfieldModel(h_s=np.eye(2), coupling_op=SIGMA_X, correlation=ConstantProfile(1.0j))
    with pytest.raises(ValueError, match=">= 0"):
        RedfieldModel(h_s=np.eye(2), coupling_op=SIGMA_X, correlation=ConstantProfile(-0.5))
    with pytest.raises(ValueError, match="square"):
        RedfieldModel(h_s=np.eye(2), coupling_op=np.eye(3), correlation=ConstantProfile(1.0))


def test_convolution_and_general_forms_agree():
    # e^{-kappa (t - t')} written as a separable product of one-variable factors
    sep = SeparableProfile(SingleVarFactor("exp", rate=-1.0), SingleVarFactor("exp", rate=1.0))
    a = dephasing_kernel(kappa=1.0, g=0.7)
    fn = TwoTimeOperatorFunction.build(2, [(sep, SIGMA_Z)])
    b = GKSLKernel.build(2, jump_ops=(fn,), coupling=0.7)
    assert b.is_convolution
    grid = TimeGrid(1.5, 100)
    ta = solve_family(a, grid, "nonlocal-full")
    tb = solve_family(b, grid, "nonlocal-full")
    assert np.max(np.linalg.norm(ta.maps - tb.maps, axis=(1, 2))) < 1e-10


def test_convolution_case_dephasing():
    res = convolution_case(dephasing_kernel(g=0.2), TimeGrid(1.2, 120))
    assert res.z_map_cp
    assert res.kraus_condition_holds
    assert res.kraus_clause == ""
    assert res.n_kraus == 1  # scalar drift: a single Kraus operator
    assert res.full_cp
    assert res.hypotheses_hold and res.consistent
    doc = res.to_doc()
    assert doc["kind"] == "convolution-case"
    assert doc["consistent"] is True


def test_convolution_case_zero_kernel_is_trivially_consistent():
    res = convolution_case(GKSLKernel.build(2), TimeGrid(1.0, 30))
    assert res.hypotheses_hold and res.full_cp and res.n_kraus == 1


def test_convolution_case_with_a_drift_map_that_is_not_cp():
    herm = TwoTimeOperatorFunction.build(2, [(ConstantProfile(1.0), SIGMA_X)])
    res = convolution_case(GKSLKernel.build(2, hermitian=herm), TimeGrid(2.0, 100))
    assert not res.z_map_cp and res.kraus_clause == "drift-map-not-CP" and res.n_kraus == 0
    assert not res.hypotheses_hold and res.consistent


def test_convolution_case_rejects_general_kernels():
    sep = SeparableProfile(SingleVarFactor("exp", rate=-0.5), SingleVarFactor("gaussian", tau=1.0))
    fn = TwoTimeOperatorFunction.build(2, [(sep, SIGMA_Z)])
    k = GKSLKernel.build(2, jump_ops=(fn,))
    with pytest.raises(ValueError, match="convolution"):
        convolution_case(k, TimeGrid(1.0, 20))


def test_coherence_revival_oracle():
    grid = TimeGrid(2.0, 200)
    traj = solve_family(coherence_revival_kernel(), grid, "nonlocal-full")
    rho0 = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)
    coherence = traj.apply(rho0)[:, 0, 1].real * 2.0
    expected = np.cos(np.sqrt(2.0) * grid.nodes())
    assert np.max(np.abs(coherence - expected)) < 2e-3


def test_observed_order_volterra():
    est = observed_order(lambda g: solve_family(dephasing_kernel(), g, "nonlocal-full"), T=1.0,
                         m_values=(50, 100, 200))
    assert est.min_order > 1.8
    assert len(est.differences) == 2 and len(est.orders) == 1


def test_observed_order_needs_three_grids():
    with pytest.raises(ValueError):
        observed_order(lambda g: solve_family(dephasing_kernel(), g, "nonlocal-full"),
                       m_values=(100, 200))
