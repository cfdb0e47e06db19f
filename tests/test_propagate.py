"""Solver families: local, nonlocal, series, transform and weak-coupling routes."""

import tracemalloc
from dataclasses import dataclass

import numpy as np
import pytest
from scipy.linalg import expm

from gkslmap import propagate
from gkslmap.cpanalysis import trace_deviation
from gkslmap.experiments import coherence_revival_kernel, g_scan, random_kernel
from gkslmap.kernel import GKSLKernel, TwoTimeOperatorFunction, split_kernel
from gkslmap.linalg import (
    SIGMA_X,
    SIGMA_Z,
    dagger,
    random_hermitian,
    random_operator,
    sandwich_superop,
)
from gkslmap.profiles import (
    ConstantProfile,
    ExpProfile,
    GaussianProfile,
    Profile,
    ProductProfile,
    SeparableProfile,
    SingleVarFactor,
    TabulatedProfile,
    profile_product,
)
from gkslmap.propagate import (
    _REFINE,
    _family_march,
    _fine_nodes,
    _lattice,
    _march,
    _memory,
    _qtable,
    _frame_march,
    family_distances,
    ordered_exponential_from_drift,
    solve_family,
    solve_local,
    solve_local_full_via_transform,
    solve_nonlocal_from_drift,
)
from gkslmap.trajectory import FAMILY_TAGS, TimeGrid
from oracles import (
    effective_generator,
    eval_kernel_superop,
    jump_exponential_series,
    lattice_per_term,
    random_density,
    rk4_frame,
    rk4_local,
    rk4_local_series,
    rk4_transform,
    solved_pair_distance,
)


def constant_kernel(g=1.0):
    herm = TwoTimeOperatorFunction.build(2, [(ConstantProfile(1.0), 0.3 * SIGMA_X)])
    jump = TwoTimeOperatorFunction.build(2, [(ConstantProfile(1.0), SIGMA_Z)])
    return GKSLKernel.build(2, hermitian=herm, jump_ops=[jump], coupling=g)


def dephasing_kernel(g=1.0, kappa=1.0):
    jump = TwoTimeOperatorFunction.build(2, [(ExpProfile(-kappa), SIGMA_Z)])
    return GKSLKernel.build(2, jump_ops=[jump], coupling=g)


def zero_kernel(dim=2):
    return GKSLKernel.build(dim)


@pytest.mark.parametrize("family", FAMILY_TAGS)
def test_zero_kernel_yields_identity_for_every_family(family):
    traj = solve_family(zero_kernel(), TimeGrid(1.0, 20), family, order=4)
    assert traj.family == family
    eye = np.eye(4)
    assert all(np.allclose(m, eye, atol=1e-14) for m in traj.maps)


def test_solve_family_rejects_unknown_tag():
    with pytest.raises(ValueError):
        solve_family(zero_kernel(), TimeGrid(1.0, 10), "half-local")


def test_local_constant_kernel_matches_exponential(grid_short):
    k = constant_kernel()
    k0 = eval_kernel_superop(k, 1.0, 0.5)  # constant in (t, t')
    traj = solve_local(k, grid_short)
    for t, m in [(0.5, 50), (1.0, 100)]:
        assert np.linalg.norm(traj.maps[m] - expm(0.5 * t * t * k0)) < 1e-8


def test_local_dephasing_coherence_closed_form():
    # off-diagonal decay exp(-(t - (1 - e^{-2t})/2)) from the t-local generator
    grid = TimeGrid(1.0, 200)
    traj = solve_local(dephasing_kernel(), grid)
    rho0 = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)
    states = traj.apply(rho0)
    ts = grid.nodes()
    expected = 0.5 * np.exp(-(ts - (1.0 - np.exp(-2.0 * ts)) / 2.0))
    assert np.max(np.abs(states[:, 0, 1] - expected)) < 1e-6


def test_full_solvers_preserve_trace_and_hermiticity(corpus, rng):
    k = corpus[0]
    grid = TimeGrid(1.0, 80)
    rho = random_density(rng, k.dim)
    for family in ("local-full", "nonlocal-full"):
        traj = solve_family(k, grid, family)
        assert max(trace_deviation(m) for m in traj.maps) < 1e-12
        out = traj.apply(rho)[-1]
        assert np.linalg.norm(out - dagger(out)) < 1e-12


def test_effective_generator_trapezoid_reference():
    k = dephasing_kernel()
    grid = TimeGrid(1.0, 10)
    assert np.array_equal(effective_generator(k, 0.0, grid), np.zeros((4, 4)))
    ts = grid.nodes()
    manual = np.zeros((4, 4), dtype=complex)
    for j, w in [(0, 0.5), (1, 1.0), (2, 1.0), (3, 0.5)]:
        manual += w * grid.h * eval_kernel_superop(k, ts[3], ts[j])
    assert np.allclose(effective_generator(k, ts[3], grid), manual, atol=1e-14)
    with pytest.raises(ValueError):
        effective_generator(k, 0.55, grid)


def test_ordered_exponential_constant_drift(grid_short):
    k = constant_kernel()
    w0 = split_kernel(k).drift_op(0.7, 0.2)  # constant drift operator
    oe = ordered_exponential_from_drift(split_kernel(k).drift_op, grid_short)
    for t, m in [(0.5, 50), (1.0, 100)]:
        assert np.linalg.norm(oe.v[m] - expm(-0.5 * t * t * w0)) < 1e-8
    assert oe.inversion_defect() < 1e-9


def test_ordered_exponential_time_dependent_oracle(grid_short):
    # W(t, t') = e^{-t} W0: commuting family, V(t) = expm(-(1 - e^{-t}(1+t)) W0)
    w0 = np.array([[0.4, 0.1], [0.1, 0.2]], dtype=complex)
    prof = SeparableProfile(SingleVarFactor("exp", rate=-1.0), SingleVarFactor("constant"))
    w = TwoTimeOperatorFunction.build(2, [(prof, w0)])
    oe = ordered_exponential_from_drift(w, grid_short)
    for t, m in [(0.5, 50), (1.0, 100)]:
        phase = 1.0 - np.exp(-t) * (1.0 + t)
        assert np.linalg.norm(oe.v[m] - expm(-phase * w0)) < 1e-8
    assert oe.inversion_defect() < 1e-9
    per_node = [np.linalg.norm(v @ vi - np.eye(2)) for v, vi in zip(oe.v, oe.vinv)]
    assert oe.inversion_defect() == max(per_node)  # the stacked norm, bit for bit


def test_transform_route_agrees_with_direct_local(corpus):
    grid = TimeGrid(1.0, 100)
    for k in [constant_kernel(0.7), dephasing_kernel(0.9), corpus[1]]:
        a = solve_local(k, grid)
        b = solve_local_full_via_transform(k, grid)
        gap = max(np.linalg.norm(x - y) for x, y in zip(a.maps, b.maps))
        assert gap < 1e-6
        assert b.meta["engine"] == "transform"


def test_weak_drift_family_is_ordered_exponential_sandwich(grid_short):
    k = dephasing_kernel()
    traj = solve_family(k, grid_short, "weak-local-drift")
    oe = ordered_exponential_from_drift(split_kernel(k).drift_op, grid_short)
    for m in (0, 37, 100):
        expected = np.kron(oe.v[m].conj(), oe.v[m])
        assert np.allclose(traj.maps[m], expected, atol=1e-14)
    # dephasing drift is scalar-profile diagonal, so the localized drift
    # equation and the local-drift march integrate the same commuting family
    direct = solve_family(k, grid_short, "local-drift")
    gap = max(np.linalg.norm(x - y) for x, y in zip(traj.maps, direct.maps))
    assert gap < 1e-9


def test_jump_series_matches_closed_form(grid_short):
    k = GKSLKernel.build(
        2, jump_ops=[TwoTimeOperatorFunction.build(2, [(ConstantProfile(1.0), SIGMA_Z)])]
    )
    traj = solve_family(k, grid_short, "series-local-jump", order=16)
    rho0 = np.array([[0.7, 0.3 - 0.2j], [0.3 + 0.2j, 0.3]])
    out = traj.apply(rho0)[-1]
    closed = jump_exponential_series(SIGMA_Z, 0.5, rho0, 16)  # effective time t^2/2
    assert np.linalg.norm(out - closed) < 1e-10
    assert traj.meta["order"] == 16
    assert traj.meta["tail_max"] < 1e-12


def test_local_series_second_order_term_is_exact():
    grid = TimeGrid(1.5, 60)
    k = GKSLKernel.build(
        2, jump_ops=[TwoTimeOperatorFunction.build(2, [(ConstantProfile(1.0), SIGMA_Z)])]
    )
    s1 = solve_family(k, grid, "series-local-jump", order=1).final_map()
    s2 = solve_family(k, grid, "series-local-jump", order=2).final_map()
    s_op = sandwich_superop(SIGMA_Z, SIGMA_Z)
    expected = (grid.T**4 / 8.0) * (s_op @ s_op)
    # degree-3 polynomial integrands: the Runge-Kutta stack reproduces the
    # iterated integral exactly, not just to truncation order
    assert np.linalg.norm((s2 - s1) - expected) < 1e-12


def test_nonlocal_series_second_order_term():
    grid = TimeGrid(1.0, 200)
    k = GKSLKernel.build(
        2, jump_ops=[TwoTimeOperatorFunction.build(2, [(ConstantProfile(1.0), SIGMA_Z)])]
    )
    s1 = solve_family(k, grid, "series-nonlocal-jump", order=1).final_map()
    s2 = solve_family(k, grid, "series-nonlocal-jump", order=2).final_map()
    s_op = sandwich_superop(SIGMA_Z, SIGMA_Z)
    expected = (grid.T**4 / 24.0) * (s_op @ s_op)
    assert np.linalg.norm((s2 - s1) - expected) < 5e-5


def test_series_telescope_to_marches():
    grid = TimeGrid(1.5, 100)
    k = dephasing_kernel(0.8)
    series = solve_family(k, grid, "series-nonlocal-jump", order=14)
    march = solve_family(k, grid, "nonlocal-jump")
    gap = max(np.linalg.norm(x - y) for x, y in zip(series.maps, march.maps))
    assert gap < 1e-10
    full_series = solve_family(k, grid, "series-local-full", order=14)
    full_march = solve_local(k, grid)
    gap = max(np.linalg.norm(x - y) for x, y in zip(full_series.maps, full_march.maps))
    assert gap < 1e-6


def test_nonlocal_from_drift_matches_kernel_route(grid_short):
    k = dephasing_kernel(0.7)
    via_kernel = solve_family(k, grid_short, "nonlocal-drift")
    via_drift = solve_nonlocal_from_drift(split_kernel(k).drift_op, grid_short)
    assert np.allclose(via_kernel.maps, via_drift.maps, atol=1e-13)
    assert via_drift.meta["source"] == "drift-operator"


def test_rk4_convergence_order_on_smooth_generator():
    # constant-in-t' profile: the inner quadrature is exact, leaving pure RK4 error
    prof = SeparableProfile(SingleVarFactor("exp", rate=-1.0), SingleVarFactor("constant"))
    jump = TwoTimeOperatorFunction.build(2, [(prof, SIGMA_Z + 0.2 * SIGMA_X)])
    k = GKSLKernel.build(2, jump_ops=[jump])
    finals = [solve_local(k, TimeGrid(1.0, m)).final_map() for m in (25, 50, 100)]
    e1 = np.linalg.norm(finals[0] - finals[1])
    e2 = np.linalg.norm(finals[1] - finals[2])
    assert np.log2(e1 / e2) > 3.5


def test_volterra_convergence_order():
    k = dephasing_kernel()
    grids = [TimeGrid(1.0, m) for m in (50, 100, 200)]
    finals = [solve_family(k, grid, "nonlocal-full").final_map() for grid in grids]
    e1 = np.linalg.norm(finals[0] - finals[1])
    e2 = np.linalg.norm(finals[1] - finals[2])
    assert np.log2(e1 / e2) > 1.8


def test_stepsize_warning_meta():
    coarse = TimeGrid(1.0, 4)
    hot = solve_local(dephasing_kernel(g=50.0), coarse)
    assert hot.meta.get("stepsize_warning") is True
    mild = solve_local(dephasing_kernel(), coarse)
    assert "stepsize_warning" not in mild.meta
    assert mild.meta["h_times_gen_norm"] > 0


def test_solvers_enforce_tabulated_horizon():
    p = TabulatedProfile(0.5, np.ones((3, 3)))
    k = GKSLKernel.build(2, jump_ops=[TwoTimeOperatorFunction.build(2, [(p, SIGMA_Z)])])
    with pytest.raises(ValueError):
        solve_local(k, TimeGrid(1.0, 10))
    with pytest.raises(ValueError):
        solve_family(k, TimeGrid(1.0, 10), "nonlocal-full")
    solve_family(k, TimeGrid(0.5, 10), "nonlocal-full")


def test_series_rejects_nonpositive_order(grid_short):
    with pytest.raises(ValueError):
        solve_family(dephasing_kernel(), grid_short, "series-local-jump", order=0)
    with pytest.raises(ValueError):
        solve_family(dephasing_kernel(), grid_short, "series-sideways-jump", order=4)


# ---------------------------------------------------------------------------
# quadrature tables against the full-lattice reference


def dense_qtable(profile, taus, hf):
    """Reference q-table: trapezoid rows of the profile on the full (N, N) lattice."""
    c = np.asarray(profile(taus[:, None], taus[None, :]), dtype=complex)
    csum = np.cumsum(c, axis=1)
    idx = np.arange(len(taus))
    q = hf * (csum[idx, idx] - 0.5 * c[:, 0] - 0.5 * c[idx, idx])
    q[0] = 0.0
    return q


SEP = SeparableProfile(SingleVarFactor("exp", rate=-0.5), SingleVarFactor("gaussian", tau=1.3))
SEP2 = SeparableProfile(
    SingleVarFactor("exp", rate=-0.3 + 0.4j), SingleVarFactor("gaussian", tau=1.8)
)
TAB = TabulatedProfile(
    2.0, np.random.default_rng(7).normal(size=(6, 6)) + 0.5j * np.eye(6)
)

NORMAL_FORM_PROFILES = {
    "constant": ConstantProfile(0.8 * np.exp(0.7j)),
    "decay": ExpProfile(-1.2),
    "oscillatory": ExpProfile(0.9j),
    "damped-oscillation": ExpProfile(-0.4 + 1.1j),
    "gaussian": GaussianProfile(1.1),
    "separable": SEP,
    "separable-constant-g": SeparableProfile(
        SingleVarFactor("exp", rate=-1.0), SingleVarFactor("constant", value=0.5 - 0.2j)
    ),
    "separable-constant-f": SeparableProfile(
        SingleVarFactor("constant", value=1.5), SingleVarFactor("exp", rate=0.7j)
    ),
    # the pairings split_kernel builds from jump terms: pk * conj(pl)
    "sep-x-sep": profile_product(SEP, SEP2.conjugate()),
    "exp-x-sep": profile_product(ExpProfile(-0.8 + 0.5j), SEP.conjugate()),
    "gauss-x-sep": profile_product(GaussianProfile(1.3), SEP2.conjugate()),
    "const-x-exp": profile_product(ConstantProfile(0.8j), ExpProfile(-0.9 + 0.2j).conjugate()),
    "const-x-sep": profile_product(ConstantProfile(0.6 - 0.3j), SEP.conjugate()),
    "gauss-x-exp": profile_product(GaussianProfile(0.9), ExpProfile(0.6j).conjugate()),
    # a table is n terms hat_a(t) row_a(s) of piecewise-linear factors
    "tabulated": TAB,
    "tab-x-exp": profile_product(TAB, ExpProfile(-0.7 + 0.4j).conjugate()),
    "tab-x-gauss": profile_product(GaussianProfile(1.2), TAB.conjugate()),
    "tab-x-sep": profile_product(SEP, TAB.conjugate()),
    "const-x-tab": profile_product(ConstantProfile(0.8j), TAB),
    "tab-x-tab": profile_product(TAB, TAB.conjugate()),
}

QTABLE_STEPS = (1, 2, 3, 400)


def table_pair(profile, steps):
    grid = TimeGrid(2.0, steps)
    taus = _fine_nodes(grid)
    hf = grid.h / _REFINE
    return _qtable(profile, taus, hf), dense_qtable(profile, taus, hf)


def test_pairings_are_product_nodes():
    for name, prof in NORMAL_FORM_PROFILES.items():
        if "-x-" in name:
            assert isinstance(prof, ProductProfile), name


@pytest.mark.parametrize("steps", QTABLE_STEPS)
@pytest.mark.parametrize("name", sorted(NORMAL_FORM_PROFILES))
def test_normal_form_qtable_matches_dense_reference(name, steps):
    assert NORMAL_FORM_PROFILES[name].form
    q, ref = table_pair(NORMAL_FORM_PROFILES[name], steps)
    assert q.shape == ref.shape and q[0] == 0.0
    assert np.max(np.abs(q - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_a_product_of_no_terms_has_a_zero_table():
    early = TabulatedProfile(2.0, [[1, 0, 0]] * 3)
    late = TabulatedProfile(2.0, [[0, 0, 1]] * 3)
    q, ref = table_pair(profile_product(early, late), 3)
    assert q.shape == ref.shape and not q.any() and not ref.any()


def test_benchmark_corpus_tables_take_no_convolution(bench_corpus, monkeypatch):
    # the corpus holds constant x separable pairings; their constant rides with f,
    # so every table is a running sum
    def refuse(*args, **kwargs):
        raise AssertionError("np.convolve called")

    monkeypatch.setattr(np, "convolve", refuse)
    grid = TimeGrid(2.0, 40)
    for k in bench_corpus:
        solve_family(k, grid, "local-full")
        _lattice(split_kernel(k).drift_op.terms, k.dim, grid)


def test_no_solve_evaluates_a_table_pointwise(monkeypatch):
    # a table reaches the solvers only through the piecewise-linear factors of its form
    def refuse(self, t, tp):
        raise AssertionError("TabulatedProfile evaluated pointwise")

    monkeypatch.setattr(TabulatedProfile, "__call__", refuse)
    k = coherence_revival_kernel()
    grid = TimeGrid(4.0, 40)
    for family in FAMILY_TAGS:
        solve_family(k, grid, family, order=4)
    family_distances(k, grid, ("nonlocal-full", "weak-nonlocal-full"), [0.5, 1.0])
    _lattice(split_kernel(k).drift_op.terms, k.dim, grid)


def test_a_table_shorter_than_the_horizon_raises_in_its_factors():
    short = TabulatedProfile(2.0, np.ones((3, 3)))
    grid = TimeGrid(4.0, 40)
    drift = TwoTimeOperatorFunction.build(2, [(short, SIGMA_Z)])
    with pytest.raises(ValueError, match="re-tabulate"):
        solve_nonlocal_from_drift(drift, grid)
    with pytest.raises(ValueError, match="re-tabulate"):
        ordered_exponential_from_drift(drift, grid)
    jump = TwoTimeOperatorFunction.build(2, [(profile_product(ExpProfile(-1.0), short), SIGMA_Z)])
    k = GKSLKernel.build(2, jump_ops=[jump])
    k.check_horizon(grid.T)  # sees no table inside a product
    for family in ("local-full", "nonlocal-full"):
        with pytest.raises(ValueError, match="re-tabulate"):
            solve_family(k, grid, family)


def test_a_profile_subclass_without_a_form_cannot_be_solved():
    @dataclass(frozen=True)
    class CosProductProfile(Profile):
        """cos(t * t'), which no finite sum of the closed family equals."""

        def __call__(self, t, tp):
            return np.cos(np.asarray(t, float) * np.asarray(tp, float)).astype(complex)

        def conjugate(self):
            return self

    jump = TwoTimeOperatorFunction.build(2, [(CosProductProfile(), SIGMA_X)])
    k = GKSLKernel.build(2, jump_ops=[jump])
    for family in ("local-full", "nonlocal-full"):
        with pytest.raises(NotImplementedError):
            solve_family(k, TimeGrid(1.0, 10), family)


def test_solve_local_peak_memory_stays_linear():
    k = random_kernel(105)
    grid = TimeGrid(2.0, 800)
    tracemalloc.start()
    try:
        solve_local(k, grid)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the (4M+1)^2 lattice alone would be 164 MB per profile at M = 800
    assert peak < 20e6, f"tracemalloc peak {peak / 1e6:.1f} MB"


@pytest.mark.parametrize("family", ("nonlocal-full", "weak-nonlocal-full", "series-nonlocal-jump"))
def test_nonlocal_solves_hold_no_square_array(family):
    k = random_kernel(105)
    grid = TimeGrid(2.0, 800)
    square = (grid.steps + 1) ** 2 * 16  # one (M+1)^2 complex array: 10.3 MB
    tracemalloc.start()
    try:
        solve_family(k, grid, family)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < square, f"tracemalloc peak {peak / 1e6:.1f} MB"


def test_nonlocal_series_of_exponential_memory_holds_no_all_order_history():
    a = random_operator(np.random.default_rng(8), 8, 0.5)
    k = GKSLKernel.build(8, jump_ops=[TwoTimeOperatorFunction.build(8, [(ExpProfile(-0.7), a)])])
    grid, order = TimeGrid(1.0, 200), 8
    history = (grid.steps + 1) * order * 64**2 * 16  # R_0..R_7 at every node: 105 MB
    tracemalloc.start()
    try:
        solve_family(k, grid, "series-nonlocal-jump", order)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < history, f"tracemalloc peak {peak / 1e6:.1f} MB"


# ---------------------------------------------------------------------------
# the Volterra memory core against dense and per-table references


def coarse_tables(terms, grid):
    """Reference profile tables C_k[i,j] = c_k(t_i, t_j) on grid nodes, one (C_k, S_k) per term.

    A generator: each table is evaluated when it is reached, so one (M+1)^2
    table is alive at a time.
    """
    ts = grid.nodes()
    return ((np.asarray(p(ts[:, None], ts[None, :]), dtype=complex), s) for p, s in terms)


def trap_weights(steps, h):
    """Reference lower-triangular composite-trapezoid weight matrix over grid nodes."""
    w = np.tril(np.full((steps + 1, steps + 1), h))
    w[:, 0] = 0.5 * h
    idx = np.arange(steps + 1)
    w[idx, idx] = 0.5 * h
    w[0, 0] = 0.0
    return w


def dense_nonlocal_series(k, grid, order):
    """Reference nonlocal series: R_n = W (sum_k S_k (W * C_k) R_{n-1}) with dense (M+1)^2 weights."""
    terms = split_kernel(k).jump_part.terms
    M, h = grid.steps, grid.h
    D = k.dim * k.dim
    w = trap_weights(M, h)
    r = np.broadcast_to(np.eye(D, dtype=complex), (M + 1, D, D)).copy()
    total = r.copy()
    for _ in range(order):
        f = np.zeros((M + 1, D, D), dtype=complex)
        for c, s in coarse_tables(terms, grid):
            y = np.einsum("ij,jab->iab", w * c, r)
            f += np.einsum("ab,ibc->iac", s, y)
        r = np.einsum("mi,iab->mab", w, f)
        total = total + r
    tails = np.linalg.norm(r.reshape(M + 1, -1), axis=1)
    return total, tails


def dense_nonlocal(terms, grid, dim, frame=None):
    """Reference Volterra march: the implicit trapezoid step, row i of every term's table.

    Each row c_k(t_i, t_j), j <= i, is evaluated point by point when the step
    reaches it, and applied to the whole history.  Terms are not merged.  With
    ``frame`` = (Vinv_sup, V_sup) the step runs in the drift frame, as the
    weak family does; the memory sum always acts on the lab-frame history.
    Returns the lab-frame maps.
    """
    ts = grid.nodes()
    M, h = grid.steps, grid.h
    D = dim * dim
    eye = np.eye(D, dtype=complex)
    x = eye
    y = np.empty((M + 1, D, D), dtype=complex)
    y[0] = eye
    f_prev = np.zeros((D, D), dtype=complex)
    for i in range(1, M + 1):
        partial = np.zeros((D, D), dtype=complex)
        diag = np.zeros((D, D), dtype=complex)
        for p, s in terms:
            row = np.asarray(p(np.full(i + 1, ts[i]), ts[: i + 1]), dtype=complex)
            acc = 0.5 * row[0] * y[0] + np.einsum("j,jab->ab", row[1:i], y[1:i])
            partial += s @ (h * acc)
            diag += row[i] * s
        if frame is not None:
            partial = frame[0][i] @ partial
            diag = frame[0][i] @ diag @ frame[1][i]
        x = np.linalg.solve(eye - 0.25 * h * h * diag, x + 0.5 * h * (f_prev + partial))
        y[i] = x if frame is None else frame[1][i] @ x
        f_prev = partial + 0.5 * h * (diag @ x)
    return y


def per_table_weak(k, grid):
    """Reference weak march: the drift-frame Volterra step with one sum per table.

    The frame comes from the per-step Runge-Kutta reference, not from the
    solver's ordered exponential.
    """
    M = grid.steps
    D = k.dim * k.dim
    v, vinv = (a[::2] for a in rk4_frame(split_kernel(k).drift_op, grid))
    v_sup = np.einsum("jcd,jab->jcadb", v.conj(), v).reshape(M + 1, D, D)
    vinv_sup = np.einsum("jcd,jab->jcadb", vinv.conj(), vinv).reshape(M + 1, D, D)
    return dense_nonlocal(split_kernel(k).jump_part.terms, grid, k.dim, (vinv_sup, v_sup))


def rel_gap(a, ref):
    return np.max(np.abs(np.asarray(a) - ref)) / np.max(np.abs(ref))


def extra_kernels():
    """A kernel off the corpus: tabulated terms next to an exponential one."""
    herm_tab = TabulatedProfile(2.0, np.random.default_rng(11).normal(size=(4, 4)))
    tabulated = GKSLKernel.build(
        2,
        hermitian=TwoTimeOperatorFunction.build(2, [(herm_tab, 0.4 * SIGMA_X)]),
        jump_ops=[
            TwoTimeOperatorFunction.build(
                2, [(TAB, SIGMA_Z), (ExpProfile(-0.6 + 0.3j), 0.5 * SIGMA_X)]
            )
        ],
    )
    return [tabulated]


def part_terms(k):
    """Reference (part, terms) pairs of the kernel split: K = J - D."""
    split = split_kernel(k)
    jump = list(split.jump_part.terms)
    drift = [(p, -s) for p, s in split.drift_part.terms]
    return {"full": jump + drift, "jump": jump, "drift": drift}


@pytest.mark.parametrize("stride", (1, 2))
def test_lattice_matches_per_term_loop(corpus, stride):
    grid = TimeGrid(2.0, 60)
    kernels = list(corpus) + [recurrence_edge_kernel()]
    cases = [(terms, k.dim**2) for k in kernels for terms in part_terms(k).values()]
    cases += [(split_kernel(k).drift_op.terms, k.dim) for k in kernels]
    assert any(len(set(p for p, _ in terms)) < len(terms) for terms, _ in cases)  # merged
    for terms, size in cases:
        ref = lattice_per_term(terms, size, grid, stride)
        got = _lattice(terms, size, grid, stride)
        assert got.shape == ref.shape and rel_gap(got, ref) <= 1e-12


@pytest.mark.parametrize("stride", (1, 2))
def test_lattice_of_no_terms_is_zero(stride):
    grid = TimeGrid(2.0, 10)
    out = _lattice([], 4, grid, stride)
    assert out.shape == (4 * 10 // stride + 1, 4, 4) and not out.any()
    assert np.array_equal(out, lattice_per_term([], 4, grid, stride))


CORE_STEPS = (1, 2, 7, 200)


@pytest.mark.parametrize("steps", CORE_STEPS)
def test_nonlocal_march_matches_dense_reference(corpus, steps):
    grid = TimeGrid(2.0, steps)
    for k in list(corpus) + extra_kernels():
        refs = {part: dense_nonlocal(terms, grid, k.dim) for part, terms in part_terms(k).items()}
        for part, ref in refs.items():
            assert rel_gap(solve_family(k, grid, f"nonlocal-{part}").maps, ref) <= 1e-12, part
        via_drift = solve_nonlocal_from_drift(split_kernel(k).drift_op, grid)
        assert rel_gap(via_drift.maps, refs["drift"]) <= 1e-12


@pytest.mark.parametrize("steps", (1, 2, 7))
def test_final_generator_matches_trapezoid_matrix_row(corpus, steps):
    grid = TimeGrid(1.3, steps)
    w_last = trap_weights(grid.steps, grid.h)[-1]
    for k in [corpus[2]] + extra_kernels():
        terms = part_terms(k)["full"]
        tables = coarse_tables(terms, grid)
        expected = sum(np.einsum("j,j->", w_last, c[-1]) * s for c, s in tables)
        got = _memory(terms, grid, k.dim**2, 1).final()
        assert rel_gap(got, expected) <= 1e-12


@pytest.mark.parametrize("steps", CORE_STEPS)
def test_nonlocal_series_matches_dense_reference(corpus, steps):
    grid = TimeGrid(2.0, steps)
    for k in list(corpus) + extra_kernels():
        traj = solve_family(k, grid, "series-nonlocal-jump", order=6)
        total, tails = dense_nonlocal_series(k, grid, order=6)
        assert rel_gap(traj.maps, total) <= 1e-12
        assert rel_gap(traj.meta["tail_norm"], tails) <= 1e-12


@pytest.mark.parametrize("steps", CORE_STEPS)
def test_framed_weak_core_matches_per_table_reference(corpus, steps):
    grid = TimeGrid(2.0, steps)
    for k in list(corpus) + extra_kernels():
        ref = per_table_weak(k, grid)
        assert rel_gap(solve_family(k, grid, "weak-nonlocal-full").maps, ref) <= 1e-12


def recurrence_edge_kernel():
    """A kernel whose memory takes every recurrence case next to rows.

    Its jump pairings give a growing real rate (e^{0.8 tau}), complex rates,
    Constant x Exp products, a separable profile with constant g (c = 1),
    a gaussian and a tabulated product; the Hermitian part adds the separable
    profile alone to the drift part.
    """
    rng = np.random.default_rng(23)
    sep = SeparableProfile(
        SingleVarFactor("exp", rate=-0.5), SingleVarFactor("constant", value=0.8)
    )
    jumps = [
        [ExpProfile(0.4), ExpProfile(-0.2 + 1.0j)],
        [ConstantProfile(0.7j), ExpProfile(-0.6 + 0.5j)],
        [sep],
        [GaussianProfile(0.9)],
        [TAB],
    ]
    return GKSLKernel.build(
        2,
        hermitian=TwoTimeOperatorFunction.build(2, [(sep, 0.3 * SIGMA_Z)]),
        jump_ops=[
            TwoTimeOperatorFunction.build(2, [(p, random_operator(rng, 2, 0.5)) for p in op])
            for op in jumps
        ],
    )


EDGE_GRID = TimeGrid(2.0, 800)  # e^{ah} compounds one rounding per step


def test_edge_kernel_mixes_recurrences_and_rows():
    k = recurrence_edge_kernel()
    for part in ("full", "jump", "drift"):
        terms = part_terms(k)[part]
        forms = [p.form for p in dict.fromkeys(p for p, _ in terms)]
        assert any(len(form) > 1 for form in forms), part  # a table's terms
        convs = [conv for form in forms for conv, _, _ in form]
        # c(tau) = C e^{a tau} takes the recurrence at rate a; gaussian c takes rows
        rates = np.array([sum(c.rate for c in conv if c.kind == "exp") for conv in convs
                          if all(c.kind != "gaussian" for c in conv)])
        assert 0 < len(rates) < len(convs), part
        assert _memory(terms, EDGE_GRID, 4, 1).takes_rows, part
        assert np.any(rates.real > 0) and np.any(rates.imag != 0), part
        assert np.any(rates == 0), part  # constant c


@pytest.mark.parametrize("part", ("full", "jump", "drift"))
def test_edge_kernel_nonlocal_matches_dense_reference(part):
    k = recurrence_edge_kernel()
    ref = dense_nonlocal(part_terms(k)[part], EDGE_GRID, k.dim)
    assert rel_gap(solve_family(k, EDGE_GRID, f"nonlocal-{part}").maps, ref) <= 1e-12


def test_edge_kernel_nonlocal_series_matches_dense_reference():
    k = recurrence_edge_kernel()
    traj = solve_family(k, EDGE_GRID, "series-nonlocal-jump", order=6)
    total, tails = dense_nonlocal_series(k, EDGE_GRID, order=6)
    assert rel_gap(traj.maps, total) <= 1e-12
    assert rel_gap(traj.meta["tail_norm"], tails) <= 1e-12


def test_edge_kernel_weak_matches_per_table_reference():
    k = recurrence_edge_kernel()
    ref = per_table_weak(k, EDGE_GRID)
    assert rel_gap(solve_family(k, EDGE_GRID, "weak-nonlocal-full").maps, ref) <= 1e-12


# ---------------------------------------------------------------------------
# the step-matrix marches against the per-step Runge-Kutta reference


# 337 steps span two d = 2 blocks of the map march and end in a short chunk
@pytest.mark.parametrize("steps", CORE_STEPS + (337,))
def test_step_matrix_marches_match_per_step_reference(corpus, steps):
    grid = TimeGrid(2.0, steps)
    for k in list(corpus) + extra_kernels():
        for part in ("full", "jump", "drift"):
            traj = solve_family(k, grid, f"local-{part}")
            assert rel_gap(traj.maps, rk4_local(k, grid, part)) <= 1e-12, part
        ref = rk4_transform(k, grid)
        assert rel_gap(solve_local_full_via_transform(k, grid).maps, ref) <= 1e-12
        oe = ordered_exponential_from_drift(split_kernel(k).drift_op, grid)
        v_half, vinv_half = rk4_frame(split_kernel(k).drift_op, grid)
        assert rel_gap(oe.v, v_half[::2]) <= 1e-12
        assert rel_gap(oe.vinv, vinv_half[::2]) <= 1e-12
        for order in (3, 7):  # 7 > 4: the step reaches back only four orders
            for part in ("full", "jump"):
                traj = solve_family(k, grid, f"series-local-{part}", order=order)
                sums, tails = rk4_local_series(k, grid, part, order)
                assert rel_gap(traj.maps, sums) <= 1e-12, (part, order)
                if np.any(tails):
                    assert rel_gap(traj.meta["tail_norm"], tails) <= 1e-12, (part, order)
                else:  # one step cannot reach order 7
                    assert not np.any(traj.meta["tail_norm"]), (part, order)


# ---------------------------------------------------------------------------
# one march for every coupling of a scan, against one solve per coupling

SCAN_GRID = TimeGrid(2.0, 60)
SCAN_GS = (0.05, 0.1, 0.4, 1.6)


def scan_kernels():
    """A d = 2 and a d = 3 kernel, each mixing recurrence, gaussian and tabulated memory."""
    rng = np.random.default_rng(31)
    jumps = [
        [(ExpProfile(-0.7 + 0.4j), 0.5), (GaussianProfile(1.1), 0.4)],
        [(ConstantProfile(0.6j), 0.3), (TAB, 0.3)],
    ]
    d3 = GKSLKernel.build(
        3,
        hermitian=TwoTimeOperatorFunction.build(
            3, [(ConstantProfile(1.0), random_hermitian(rng, 3, norm=0.3))]
        ),
        jump_ops=[
            TwoTimeOperatorFunction.build(3, [(p, random_operator(rng, 3, n)) for p, n in op])
            for op in jumps
        ],
    )
    return [recurrence_edge_kernel(), d3]


def coupled_maps(k, grid, family, gs):
    """The maps of one coupled march at every coupling, shape (M + 1, W, D, D)."""
    split = split_kernel(k.with_coupling(1.0))
    return _family_march(split, grid, family, np.square(gs), 8)()[0]


@pytest.mark.parametrize("family", FAMILY_TAGS)
def test_coupled_march_matches_a_solve_per_coupling(family):
    for k in scan_kernels():
        maps = coupled_maps(k, SCAN_GRID, family, SCAN_GS)
        for n, g in enumerate(SCAN_GS):
            ref = solve_family(k.with_coupling(g), SCAN_GRID, family).maps
            assert rel_gap(maps[:, n], ref) <= 1e-12, (k.dim, g)


@pytest.mark.parametrize(
    "pair",
    [("nonlocal-full", "weak-nonlocal-full"), ("local-full", "nonlocal-full"),
     ("nonlocal-full", "local-full")],
)
def test_family_distances_match_pair_distance_per_coupling(pair):
    for k in scan_kernels():
        ref = np.array([solved_pair_distance(k.with_coupling(g), SCAN_GRID, pair)
                        for g in SCAN_GS])
        got = family_distances(k, SCAN_GRID, pair, SCAN_GS)
        assert np.max(np.abs(got - ref) / ref) <= 1e-11, k.dim
        assert g_scan(k, SCAN_GRID, SCAN_GS, pair=pair).distances == tuple(got)


@pytest.mark.parametrize(
    "pair",
    [("local-full", "series-local-full"), ("nonlocal-jump", "series-nonlocal-jump"),
     ("local-drift", "weak-local-drift")],
)
def test_series_and_weak_local_pairs_scan_in_one_march(pair):
    # these pairs can agree to rounding (local-full and series-local-full are
    # 1e-15 apart at g = 0.05), so the gate is relative to the maps' size
    for k in scan_kernels():
        got = family_distances(k, SCAN_GRID, pair, SCAN_GS)
        for g, dist in zip(SCAN_GS, got):
            kg = k.with_coupling(g)
            size = np.max(np.linalg.norm(solve_family(kg, SCAN_GRID, pair[0]).maps, axis=(1, 2)))
            assert abs(dist - solved_pair_distance(kg, SCAN_GRID, pair)) <= 1e-12 * size, g
        assert g_scan(k, SCAN_GRID, SCAN_GS, pair=pair).distances == tuple(got)


# one pair per march kind of the second family: Volterra (drift frame), map,
# local series and sandwich.  (nonlocal-jump, series-nonlocal-jump) is left
# out: its gaussian memory keeps every node of the order-N history, the
# (M + 1) N D^2 array `hist` of _nonlocal_series, so it holds more than one
@pytest.mark.parametrize(
    "pair",
    [("nonlocal-full", "weak-nonlocal-full"), ("nonlocal-full", "local-full"),
     ("local-full", "series-local-full"), ("local-drift", "weak-local-drift")],
    ids=",".join,
)
def test_coupled_scan_holds_one_map_array(pair):
    # the second family's march overwrites the first family's maps, so the
    # scan holds one (M + 1) W D^2 array, its drift frame and per-block stacks
    k = random_kernel(101, dim=3)
    grid = TimeGrid(2.0, 400)
    gs = (0.05, 0.08, 0.13, 0.2, 0.3, 0.4)
    family_distances(k, grid, pair, gs)
    tracemalloc.start()
    try:
        family_distances(k, grid, pair, gs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    one = (grid.steps + 1) * len(gs) * k.dim**4 * 16
    assert one < peak < 2 * one


@pytest.mark.parametrize("width", (1, 3))
@pytest.mark.parametrize("family", FAMILY_TAGS)
def test_every_march_visits_each_block_it_writes_once(family, width):
    # d = 3 at M = 150 takes several blocks in every march, a short one last;
    # a march that drops its last visit leaves the last nodes uncovered
    k = scan_kernels()[1]
    grid = TimeGrid(2.0, 150)
    scales = np.ones(1) if width == 1 else np.square(SCAN_GS[:width])
    rng = np.random.default_rng(43)
    shape = (grid.steps + 1, width, k.dim**2, k.dim**2)
    out = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    held = out.copy()
    seen = []

    def visit(new, old):
        a = (new.ctypes.data - out.ctypes.data) // out.strides[0]
        assert np.shares_memory(new, out) and new.shape == old.shape
        seen.append((a, a + len(new), new.copy(), old.copy()))

    march = _family_march(split_kernel(k.with_coupling(1.0)), grid, family, scales, 8)
    maps, _ = march(out, visit)
    assert maps is out and len(seen) > 2
    starts, ends = zip(*[(a, b) for a, b, _, _ in seen])
    assert starts[0] in (0, 1) and ends[-1] == grid.steps + 1, (starts, ends)
    assert starts[1:] == ends[:-1] and all(a < b for a, b in zip(starts, ends)), (starts, ends)
    for a, b, new, old in seen:
        assert np.array_equal(new, maps[a:b]) and np.array_equal(old, held[a:b]), (a, b)


@pytest.mark.parametrize("dim, calls", [(2, 2), (3, 7), (4, 7)])
def test_volterra_step_inverses_fill_the_entry_budget(monkeypatch, dim, calls):
    # a block holds max(64, 5184 // D^2) step matrices: 324 nodes at d = 2 and
    # never fewer than 64, so 400 nodes take 2, 7 and 7 blocks; at g = 1 on
    # this grid every step matrix is a series, so nothing is inverted
    blocks, inverted = [], []
    build, inv = propagate._step_matrices, np.linalg.inv
    monkeypatch.setattr(propagate, "_step_matrices",
                        lambda diag, *args: blocks.append(len(diag)) or build(diag, *args))
    monkeypatch.setattr(np.linalg, "inv", lambda a: inverted.append(np.shape(a)) or inv(a))
    solve_family(random_kernel(107, dim=dim), TimeGrid(2.0, 400), "nonlocal-full")
    assert len(blocks) == calls and sum(blocks) == 400
    assert not inverted


def test_six_coupling_frame_march_at_d2_takes_four_blocks(monkeypatch):
    # (V, Vinv^T) of d = 2 at six couplings: 400 half-steps in blocks of 108
    steps = []
    parts = propagate._step_parts
    monkeypatch.setattr(propagate, "_step_parts",
                        lambda b, h: steps.append(b.shape[-3] // 2) or parts(b, h))
    _frame_march(np.zeros((2, 801, 2, 2), dtype=complex), 0.005, np.ones(6))
    assert steps == [108, 108, 108, 76]


def same_bits(a, b):
    """Equal complex arrays, sign bits included: -0.0 differs from +0.0."""
    x, y = a.view(float), b.view(float)
    return np.array_equal(x, y) and np.array_equal(np.signbit(x), np.signbit(y))


@pytest.mark.parametrize("dim", (2, 3))
def test_a_scaled_march_is_the_unit_march_at_step_h_times_s_bit_for_bit(dim):
    # a Runge-Kutta step of dY/dt = s B Y is a polynomial in (h s) B, so the
    # march at scale s is the unit march at step h s; s = 2.25 is not a power
    # of two, so rounding h (s B) instead of (h s) B would show
    rng = np.random.default_rng(47)
    h, s = 0.006, 2.25

    def draw(*shape):
        return 0.5 * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))

    b, pair = draw(2 * 97 + 1, dim * dim, dim * dim), draw(2, 2 * 97 + 1, 2, 2)
    assert same_bits(_march(b, h, [0.5, s])[0][:, 1], _march(b, h * s)[0][:, 0])
    assert same_bits(_frame_march(pair, h, [0.5, s])[:, 1], _frame_march(pair, h * s)[:, 0])


@pytest.mark.parametrize("family", [f for f in FAMILY_TAGS if not f.startswith("series")])
def test_unit_column_of_a_coupled_march_is_the_single_solve_bit_for_bit(corpus, family):
    # series families are left out: at W > 1 their total over orders is a
    # tensordot with the powers of the scales, at W = 1 a plain sum
    grid = TimeGrid(2.0, 150)
    for k in (dephasing_kernel(), corpus[2]):
        coupled = _family_march(split_kernel(k), grid, family, np.array([0.5, 1.0, 2.25]), 8)
        assert same_bits(coupled()[0][:, 1], solve_family(k, grid, family).maps), k.dim


@pytest.mark.parametrize("dim", (2, 3))
def test_map_march_at_unit_scale_is_the_single_solve_bit_for_bit_at_any_width(dim):
    # chunks start at multiples of the chunk length whatever the block length,
    # which the coupling count sets (320 steps of d = 2 at W = 1, 48 at W = 6),
    # so every state takes the same products in the same order; any other
    # chunking reorders them, which shows only in the last bits
    rng = np.random.default_rng(41)
    D = dim * dim
    shape = (2 * 337 + 1, D, D)
    b = 0.5 * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    single = _march(b, 0.006)[0][:, 0]
    for scales in ([0.5, 1.0], [0.5, 1.0, 1.5, 2.0, 2.5, 3.0]):
        assert same_bits(_march(b, 0.006, np.array(scales))[0][:, 1], single), len(scales)


# ---------------------------------------------------------------------------
# Volterra step matrices: shared-power series and the inverse fallback


def step_orders(k, grid, gs):
    """{"lab" | "frame": the per-coupling series terms the scan's two Volterra marches take}."""
    seen = {}
    build = propagate._step_matrices

    def spy(diag, c, orders, sups=None):
        seen["lab" if sups is None else "frame"] = tuple(orders)
        return build(diag, c, orders, sups)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(propagate, "_step_matrices", spy)
        family_distances(k, grid, ("nonlocal-full", "weak-nonlocal-full"), gs)
    return seen


MIXED_GRID = TimeGrid(2.0, 20)
MIXED_GS = (0.1, 1.0, 2.0)


def test_a_scan_mixing_series_and_inverse_steps_keeps_its_gates():
    # on this coarse grid the lab step at g = 2 has eps > 1/64 and takes the
    # inverse, and the drift frame fails the defect guard at g = 1 and g = 2
    k = scan_kernels()[0]
    orders = step_orders(k, MIXED_GRID, MIXED_GS)
    assert orders["lab"][0] > 0 and orders["lab"][1] > 0 and orders["lab"][2] == 0, orders
    assert orders["frame"][0] > 0 and orders["frame"][1:] == (0, 0), orders
    scales = np.square(MIXED_GS)
    for family in ("nonlocal-full", "weak-nonlocal-full"):
        maps = _family_march(split_kernel(k), MIXED_GRID, family, scales, 8)()[0]
        assert same_bits(maps[:, 1], solve_family(k, MIXED_GRID, family).maps), family
        for n, g in enumerate(MIXED_GS):
            kg = k.with_coupling(g)
            if family == "nonlocal-full":
                ref = dense_nonlocal(part_terms(kg)["full"], MIXED_GRID, k.dim)
            else:
                ref = per_table_weak(kg, MIXED_GRID)
            if np.all(np.isfinite(ref)):
                assert rel_gap(maps[:, n], ref) <= 1e-12, (family, g)
    pair = ("nonlocal-full", "weak-nonlocal-full")
    ref = np.array([solved_pair_distance(k.with_coupling(g), MIXED_GRID, pair) for g in MIXED_GS])
    got = family_distances(k, MIXED_GRID, pair, MIXED_GS)
    assert np.max(np.abs(got - ref) / ref) <= 1e-11


@pytest.mark.parametrize("g", (1.0, 8.0))
def test_step_matrices_match_the_inverse(corpus, g):
    # the lab series runs at both couplings; the drift frame's at g = 1 only
    grid = TimeGrid(2.0, 400)
    c = np.full((1, 1, 1), 0.25 * grid.h * grid.h * g * g)
    for k in corpus:
        split = split_kernel(k.with_coupling(1.0))
        frame = propagate._drift_frame(split.drift_op, grid, np.array([g * g]))
        for part, fr in (("full", None), ("jump", frame)):
            mem = _memory(propagate._part_terms(split, part), grid, k.dim**2, 1)
            orders = propagate._series_orders(c.ravel() * mem.bound, fr)
            assert orders[0] > 0 or (fr is not None and g > 1.0), (part, g)
            for a in range(0, grid.steps + 1, 100):
                b = min(a + 100, grid.steps + 1)
                diag = mem.diag(a, b)
                sups = None if fr is None else [propagate._sandwich_stack(f[a:b]) for f in fr[:2]]
                got = propagate._step_matrices(diag, c, orders, sups)
                conj = diag[:, None] if fr is None else sups[0] @ diag[:, None] @ sups[1]
                ref = np.linalg.inv(np.eye(k.dim**2) - c * conj)
                gap = np.linalg.norm(got - ref, axis=(2, 3)) / np.linalg.norm(ref, axis=(2, 3))
                assert np.max(gap) <= 1e-14, (part, g, np.max(gap))


def test_a_singular_step_makes_its_coupling_nan_from_that_node_on():
    # diag_i = (i / 8) 1: 1 - c diag_i is singular at node 4 for c = 2 only, and
    # nodes 5..7 invert again; the c = 0.5 coupling takes a three-term series
    diag = (np.arange(8.0) / 8.0)[:, None, None] * np.eye(4, dtype=complex)
    c = np.array([1.0, 2.0, 0.5]).reshape(3, 1, 1)
    got = propagate._step_matrices(diag, c, np.array([0, 0, 3]))
    assert np.isfinite(got[:4, 1]).all() and np.isnan(got[4:, 1]).all()
    healthy = propagate._step_matrices(diag, c[[0, 2]], np.array([0, 3]))
    assert np.array_equal(got[:, [0, 2]], healthy)


def test_the_frame_guard_sends_a_non_convergent_frame_to_the_inverse(bench_corpus):
    # benchmark corpus kernel 6 at g = 8 marches a drift frame whose V Vinv
    # misses 1 by about 3e-5, far above what the frame series can absorb
    grid = TimeGrid(2.0, 400)
    split = split_kernel(bench_corpus[6].with_coupling(1.0))
    frame = propagate._drift_frame(split.drift_op, grid, np.array([64.0, 1.0]))
    bound = _memory(split.jump_part.terms, grid, 4, 1).bound
    orders = propagate._series_orders(0.25 * grid.h**2 * np.array([64.0, 1.0]) * bound, frame)
    assert frame.defect[0] > 1e-5 and orders[0] == 0
    assert orders[1] > 0
