"""Choi conversion, CP checks, Kraus machinery, divisibility, drift witnesses."""

import json
from pathlib import Path

import numpy as np
import pytest

from gkslmap.cpanalysis import (
    CPReport,
    _max_offdiagonal_entry,
    KrausSet,
    certify_trajectory,
    choi,
    cp_check,
    divisibility_check,
    find_drift_cp_witness,
    kraus_condition_check,
    kraus_extract,
    trace_deviation,
)
from gkslmap.experiments import coherence_revival_kernel, random_drift, random_kernel
from gkslmap.kernel import GKSLKernel, TwoTimeOperatorFunction, load_drift_spec
from gkslmap.linalg import (
    SIGMA_PLUS,
    SIGMA_X,
    SIGMA_Z,
    dagger,
    random_operator,
    sandwich_superop,
    vectorize,
)
from gkslmap.profiles import ConstantProfile, ExpProfile
from gkslmap.propagate import solve_family, solve_local, solve_nonlocal_from_drift
from gkslmap.trajectory import MapTrajectory, TimeGrid
from oracles import unvectorize


def transpose_superop(d=2):
    s = np.zeros((d * d, d * d))
    for i in range(d):
        for j in range(d):
            s[i + d * j, j + d * i] = 1.0
    return s


def haar_unitary(rng, d):
    q, r = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def apply_extended(superop, x):
    """Apply Lambda (x) id to an operator x on the doubled space (d*d)^2."""
    d = int(round(np.sqrt(superop.shape[0])))
    t = np.asarray(superop, dtype=complex).reshape(d, d, d, d).transpose(1, 0, 3, 2)
    x4 = np.asarray(x, dtype=complex).reshape(d, d, d, d)
    return np.einsum("abxy,xiyj->aibj", t, x4).reshape(d * d, d * d)


def kraus_reconstruct(kraus):
    """Superoperator sum_j K_j (.) K_j^dag."""
    return sum(sandwich_superop(k, k.conj().T) for k in kraus.operators)


def dephasing_trajectory(steps=50, g=1.0):
    jump = TwoTimeOperatorFunction.build(2, [(ExpProfile(-1.0), SIGMA_Z)])
    k = GKSLKernel.build(2, jump_ops=[jump], coupling=g)
    return solve_local(k, TimeGrid(1.0, steps))


def test_identity_map_choi_is_maximally_entangled():
    c = choi(np.eye(4))
    phi = np.array([1.0, 0.0, 0.0, 1.0])  # |00> + |11>
    assert np.allclose(c, np.outer(phi, phi), atol=1e-15)
    ok, lam = cp_check(c)
    assert ok and lam == pytest.approx(0.0, abs=1e-14)


def test_choi_blocks_reproduce_map_action(rng):
    d = 3
    s = random_operator(rng, d * d) + 1j * random_operator(rng, d * d)
    c4 = choi(s).reshape(d, d, d, d)  # indexed [a, i, b, j]
    x = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    via_choi = np.einsum("aibj,ij->ab", c4, x)
    direct = unvectorize(s @ vectorize(x), d)
    assert np.allclose(via_choi, direct, atol=1e-12)


def test_transpose_map_fails_cp_with_unit_eigenvalue():
    ok, lam = cp_check(choi(transpose_superop()))
    assert not ok
    assert lam == pytest.approx(-1.0, abs=1e-12)


def test_apply_extended_on_sandwich_superop(rng):
    d = 2
    a = random_operator(rng, d)
    b = random_operator(rng, d)
    s = sandwich_superop(a, b)
    x = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    eye = np.eye(d)
    expected = np.kron(a, eye) @ x @ np.kron(b, eye)
    assert np.allclose(apply_extended(s, x), expected, atol=1e-13)


def test_kraus_round_trip(rng):
    d = 2
    ops = [0.8 * haar_unitary(rng, d), 0.6 * random_operator(rng, d)]
    s = sum(sandwich_superop(k, dagger(k)) for k in ops)
    kraus = kraus_extract(choi(s))
    assert list(kraus.weights) == sorted(kraus.weights, reverse=True)
    assert np.linalg.norm(kraus_reconstruct(kraus) - s) < 1e-10


def test_kraus_extract_refuses_non_cp():
    with pytest.raises(ValueError):
        kraus_extract(choi(transpose_superop()))


def test_kraus_condition_clauses(rng):
    u = haar_unitary(rng, 2)
    assert kraus_condition_check(KrausSet((u,), (1.0,))).holds
    two = KrausSet((np.eye(2), SIGMA_Z), (1.0, 1.0))
    rep = kraus_condition_check(two)
    assert not rep.holds
    assert rep.failed_clause == "off-diagonal"
    assert rep.max_offdiagonal_norm > 1.0
    sing = kraus_condition_check(KrausSet((SIGMA_PLUS,), (1.0,)))
    assert not sing.holds
    assert sing.failed_clause == "singular"
    assert sing.singular == (0,)


def test_divisibility_on_dephasing_is_all_cp():
    res = divisibility_check(dephasing_trajectory())
    assert res.all_cp
    assert res.violations == ()
    assert all(s == "CP" for s in res.statuses)
    assert all(c < 1e3 for c in res.condition_numbers)


def test_divisibility_flags_violation_and_indeterminate():
    # Schur-multiplier step whose coefficient matrix is indefinite: not CP.
    bad = np.diag([1.0, 0.9, 0.9, 1e-15]).astype(complex)
    maps = np.stack([np.eye(4, dtype=complex), bad, np.eye(4, dtype=complex)])
    traj = MapTrajectory(grid=TimeGrid(1.0, 2), dim=2, family="nonlocal-drift", maps=maps)
    res = divisibility_check(traj)
    assert res.statuses[0] == "not-CP"
    assert res.lambda_mins[0] < -0.1
    # the second interval inverts the near-singular map: indeterminate, not failed
    assert res.statuses[1] == "indeterminate"
    assert res.lambda_mins[1] is None


def reference_choi(s, d):
    """Hermitian part of the Choi matrix of one superoperator, by index reshuffle."""
    c = s.reshape(d, d, d, d).transpose(1, 3, 0, 2).reshape(d * d, d * d)
    return 0.5 * (c + c.conj().T)


def certify_reference(traj, eps_cp=1e-8, cond_limit=1e12):
    """The per-node loop: one Choi eigvalsh per node, one cond, solve and eigvalsh per interval."""
    d = traj.dim
    row = np.eye(d, dtype=complex).reshape(-1, order="F")

    def lam_min(s):
        return float(np.linalg.eigvalsh(reference_choi(s, d))[0])

    lams = [lam_min(m) for m in traj.maps]
    devs = [float(np.linalg.norm(m.conj().T @ row - row)) for m in traj.maps]
    statuses, div_lams, conds = [], [], []
    for m in range(traj.grid.steps):
        a, b = traj.maps[m], traj.maps[m + 1]
        conds.append(float(np.linalg.cond(a)))
        if not np.isfinite(conds[-1]) or conds[-1] > cond_limit:
            statuses.append("indeterminate")
            div_lams.append(None)
            continue
        div_lams.append(lam_min(np.linalg.solve(a.T, b.T).T))
        statuses.append("CP" if div_lams[-1] >= -eps_cp * d else "not-CP")
    return lams, devs, statuses, div_lams, conds


def spliced_trajectory():
    """A d=2 corpus trajectory of 151 nodes (not a whole number of blocks) with a
    Schur-multiplier map at node 100: interval 99 is not CP, interval 100 indeterminate."""
    traj = solve_family(random_kernel(101, dim=2), TimeGrid(1.5, 150), "local-full")
    maps = traj.maps.copy()
    maps[100] = np.diag([1.0, 0.9, 0.9, 1e-15])
    return MapTrajectory(grid=traj.grid, dim=2, family=traj.family, maps=maps)


ORACLE_TRAJECTORIES = {
    "corpus-d2-local": lambda: solve_family(
        random_kernel(103, dim=2), TimeGrid(2.0, 400), "local-full"
    ),
    "corpus-d3-nonlocal": lambda: solve_family(
        random_kernel(102, dim=3), TimeGrid(2.0, 130), "nonlocal-full"
    ),
    "revival": lambda: solve_family(
        coherence_revival_kernel(), TimeGrid(2.0, 160), "nonlocal-full"
    ),
    "spliced": spliced_trajectory,
}


@pytest.mark.parametrize("name", sorted(ORACLE_TRAJECTORIES))
def test_stacked_certify_matches_per_node_loop(name):
    traj = ORACLE_TRAJECTORIES[name]()
    lams, devs, statuses, div_lams, conds = certify_reference(traj)
    report = certify_trajectory(traj, divisibility=True)
    div = report.divisibility
    assert np.array_equal(report.lambda_mins, lams)
    assert np.array_equal(report.trace_devs, devs)
    assert np.array_equal(trace_deviation(traj.maps), devs)
    assert report.verdicts == tuple("CP" if x >= -1e-8 * traj.dim else "not-CP" for x in lams)
    assert np.array_equal(div.condition_numbers, conds)
    assert div.statuses == tuple(statuses)
    assert div.lambda_mins == tuple(div_lams)
    if name in ("revival", "spliced"):
        assert "not-CP" in statuses
    if name == "spliced":
        assert statuses[99:101] == ["not-CP", "indeterminate"]


@pytest.mark.parametrize("name", sorted(ORACLE_TRAJECTORIES))
def test_certified_lambda_min_agrees_with_full_eigendecomposition(name):
    # certification computes eigenvalues only; eigh's eigenvalues may differ in the last bits
    traj = ORACLE_TRAJECTORIES[name]()
    report = certify_trajectory(traj, divisibility=True)
    maps, d = traj.maps, traj.dim
    intervals = [np.linalg.solve(a.T, b.T).T for a, b in zip(maps[:-1], maps[1:])]
    pairs = list(zip(report.lambda_mins, maps))
    pairs += [(lam, s) for lam, s in zip(report.divisibility.lambda_mins, intervals) if lam is not None]
    assert len(pairs) > len(maps)
    for lam, s in pairs:
        c = reference_choi(s, d)
        assert abs(lam - np.linalg.eigh(c)[0][0]) <= 1e-12 * max(1.0, np.linalg.norm(c))


def test_certify_names_the_node_that_breaks_hermiticity():
    traj = spliced_trajectory()
    maps = traj.maps.copy()
    maps[70] = sandwich_superop(SIGMA_X, SIGMA_Z)  # rho -> X rho Z
    bad = MapTrajectory(grid=traj.grid, dim=2, family=traj.family, maps=maps)
    with pytest.raises(ValueError, match="^node 70: .*not Hermitian"):
        certify_trajectory(bad)


def test_divisibility_names_the_interval_whose_asymmetry_conditioning_cannot_explain():
    # Lambda_0 = 1 has condition number 1, so interval 0's asymmetry is not rounding
    maps = np.stack([np.eye(4, dtype=complex), sandwich_superop(SIGMA_X, SIGMA_Z)])
    traj = MapTrajectory(grid=TimeGrid(1.0, 1), dim=2, family="local-full", maps=maps)
    with pytest.raises(ValueError, match="^interval 0: .*not Hermitian"):
        divisibility_check(traj)


def test_trace_deviation(rng):
    u = haar_unitary(rng, 3)
    assert trace_deviation(sandwich_superop(u, dagger(u))) < 1e-14
    assert trace_deviation(0.9 * np.eye(9)) > 0.1


def test_certify_trajectory_report_and_csv():
    report = certify_trajectory(dephasing_trajectory(steps=20), divisibility=True)
    assert isinstance(report, CPReport)
    assert report.all_cp
    assert report.first_violation is None
    assert len(report.times) == 21
    doc = report.to_doc()
    assert doc["kind"] == "cp-report"
    assert doc["all_cp"] is True
    assert doc["divisibility"]["all_cp"] is True
    lines = report.csv_text().strip().split("\n")
    assert lines[1] == "t,lambda_min,trace_dev,div_lambda_min,verdict"
    assert len(lines) == 2 + 21
    first = lines[2].split(",")
    assert first[0] == "0.0" and first[3] == "" and first[4] == "CP"
    assert lines[3].split(",")[3] != ""


def test_certify_flags_violations():
    maps = np.stack([np.eye(4, dtype=complex), transpose_superop().astype(complex)])
    traj = MapTrajectory(grid=TimeGrid(1.0, 1), dim=2, family="nonlocal-drift", maps=maps)
    report = certify_trajectory(traj)
    assert not report.all_cp
    assert report.first_violation == 1
    assert report.verdicts == ("CP", "not-CP")


def const_drift(mat):
    return TwoTimeOperatorFunction.build(2, [(ConstantProfile(1.0), np.asarray(mat, complex))])


def max_offdiagonal_reference(drift, grid):
    """The point-by-point search of the largest off-diagonal entry on the coarse triangle."""
    ts = np.linspace(0.0, grid.T, 9)
    best = (0.0, None, 0.0 + 0.0j)
    for i, t in enumerate(ts):
        for tp in ts[: i + 1]:
            m = drift(t, tp)
            for a in range(drift.dim):
                for b in range(drift.dim):
                    if a != b and abs(m[a, b]) > best[0]:
                        best = (abs(m[a, b]), (a, b), m[a, b])
    if best[0] <= 1e-12:
        return None
    return best


CONFIGS = Path(__file__).resolve().parents[1] / "configs"
DRIFTS = [("random_drift", seed) for seed in range(1, 6)] + [
    ("config", name) for name in ("sigma_x_drift", "sigma_plus_drift", "diagonal_drift")
]


def reference_drift(source, key):
    if source == "random_drift":
        return random_drift(key)
    return load_drift_spec(json.loads((CONFIGS / f"{key}.json").read_text()))


@pytest.mark.parametrize("source, key", DRIFTS)
def test_max_offdiagonal_entry_matches_pointwise_reference(source, key):
    drift = reference_drift(source, key)
    grid = TimeGrid(2.0, 10)
    assert _max_offdiagonal_entry(drift, grid) == max_offdiagonal_reference(drift, grid)


@pytest.mark.parametrize("source, key", DRIFTS)
def test_a_witness_is_found_exactly_when_some_node_is_not_cp(source, key):
    # the ansatz's measure is a diagonal entry of the Choi matrix, never below
    # its lambda_min, so it cannot fire on a CP map; the Choi fallback fires on
    # every map that is not
    drift = reference_drift(source, key)
    grid = TimeGrid(1.5, 40)
    report = certify_trajectory(solve_nonlocal_from_drift(drift, grid))
    w = find_drift_cp_witness(drift, grid)
    assert (w is None) == report.all_cp
    if w is not None:
        assert w.node >= report.first_violation
        assert report.verdicts[w.node] == "not-CP"


def test_witness_found_for_offdiagonal_drift():
    grid = TimeGrid(2.0, 200)
    w = find_drift_cp_witness(const_drift(SIGMA_X), grid)
    assert w is not None
    assert w.t <= 0.5  # violation shows up immediately at second order in t
    assert w.measure_value < -1e-7
    assert w.choi_lambda_min < -1e-7
    assert abs(np.linalg.norm(w.psi) - 1.0) < 1e-12
    # the reported pair reproduces the measure through the extended map
    from gkslmap.propagate import solve_nonlocal_from_drift

    s = solve_nonlocal_from_drift(const_drift(SIGMA_X), grid).maps[w.node]
    out = apply_extended(s, np.outer(w.phi, w.phi.conj()))
    val = float(np.real(w.psi.conj() @ out @ w.psi))
    assert val == pytest.approx(w.measure_value, rel=1e-9)


def test_witness_found_for_raising_drift():
    grid = TimeGrid(2.0, 200)
    w = find_drift_cp_witness(const_drift(SIGMA_PLUS), grid)
    assert w is not None
    assert w.measure_value < -1e-7
    assert w.pair in ((0, 1), (1, 0))


def test_no_witness_for_diagonal_drift():
    grid = TimeGrid(2.0, 100)
    assert find_drift_cp_witness(const_drift(-0.5 * np.eye(2)), grid) is None


def test_choi_fallback_finds_the_first_non_cp_node_of_a_diagonal_drift():
    # A = diag(-0.5, 0) is a Schur multiplier with x_00 = cosh t, x_11 = 1 and
    # x_01 = cosh(t / sqrt 2), not CP at any t > 0; the ansatz needs an
    # off-diagonal entry, so the Choi spectrum finds the witness
    grid = TimeGrid(2.0, 200)
    drift = const_drift(np.diag([-0.5, 0.0]))
    traj = solve_nonlocal_from_drift(drift, grid)
    report = certify_trajectory(traj)
    w = find_drift_cp_witness(drift, grid)
    assert w is not None and w.method == "choi"
    assert w.pair is None and w.phase is None and w.amplitude is None
    assert w.node == report.first_violation == 4
    assert w.t == report.times[4]
    assert w.choi_lambda_min == pytest.approx(report.lambda_mins[4], rel=1e-12)
    assert w.measure_value == w.choi_lambda_min / 2 < -1e-8
    assert abs(np.linalg.norm(w.psi) - 1.0) < 1e-12
    assert abs(np.linalg.norm(w.phi) - 1.0) < 1e-12
    out = apply_extended(traj.maps[w.node], np.outer(w.phi, w.phi.conj()))
    val = float(np.real(w.psi.conj() @ out @ w.psi))
    assert val == pytest.approx(w.measure_value, rel=1e-9)


def test_offdiagonal_witnesses_come_from_the_ansatz():
    grid = TimeGrid(2.0, 200)
    for mat in (SIGMA_X, SIGMA_PLUS):
        w = find_drift_cp_witness(const_drift(mat), grid)
        assert w.method is None and w.pair in ((0, 1), (1, 0))


@pytest.mark.parametrize("dim, calls", [(2, 2), (3, 7)])
def test_node_certification_fills_the_entry_budget(monkeypatch, dim, calls):
    # a block holds max(64, 5184 // d^4) Choi matrices: 324 nodes at d = 2, 64 at d = 3
    traj = solve_family(random_kernel(103, dim=dim), TimeGrid(2.0, 400), "local-full")
    blocks = []
    eigvalsh = np.linalg.eigvalsh

    def counting_eigvalsh(a, *args, **kwargs):
        blocks.append(len(a))
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting_eigvalsh)
    certify_trajectory(traj)
    assert len(blocks) == calls and sum(blocks) == 401
