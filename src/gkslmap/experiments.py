"""Scripted studies built on the solver stack.

Three reproducible experiments live here, together with the seeded kernel
corpus the test suite shares:

* coupling-strength scans fitting the log-log slope of the distance between
  two solver families,
* Redfield-style kernels assembled from a system Hamiltonian, a coupling
  operator and a bath correlation function,
* the convolution special case, where a CP drift map plus the mutual-inverse
  Kraus condition is supposed to force CP of the full map.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cpanalysis import (
    DEFAULT_EPS_CP,
    CPReport,
    certify_trajectory,
    choi,
    kraus_condition_check,
    kraus_extract,
)
from .kernel import GKSLKernel, TwoTimeOperatorFunction
from .linalg import SIGMA_Z, frobenius, random_hermitian, random_operator
from .profiles import (
    ConstantProfile,
    ExpProfile,
    GaussianProfile,
    Profile,
    SeparableProfile,
    SingleVarFactor,
    TabulatedProfile,
    profile_product,
)
from .propagate import family_distances, solve_family
from .serialize import csv_row, csv_table
from .trajectory import MapTrajectory, TimeGrid

__all__ = [
    "GScanResult",
    "RedfieldModel",
    "g_scan",
    "scan_couplings",
    "scan_pair",
    "pair_distance",
    "redfield_kernel",
    "convolution_case",
    "ConvolutionCaseResult",
    "random_kernel",
    "random_drift",
    "corpus_kernels",
    "dephasing_kernel",
    "coherence_revival_kernel",
    "observed_order",
    "OrderEstimate",
]


# ---------------------------------------------------------------------------
# seeded kernel corpus


def _random_profile(rng: np.random.Generator) -> Profile:
    kind = rng.choice(["constant", "decay", "oscillatory", "gaussian", "separable"])
    if kind == "constant":
        return ConstantProfile(0.8 * np.exp(2j * np.pi * rng.uniform()))
    if kind == "decay":
        return ExpProfile(-rng.uniform(0.5, 1.5))
    if kind == "oscillatory":
        return ExpProfile(1j * rng.uniform(0.5, 1.5))
    if kind == "gaussian":
        return GaussianProfile(rng.uniform(0.8, 1.6))
    return SeparableProfile(
        SingleVarFactor("exp", rate=-rng.uniform(0.2, 0.8)),
        SingleVarFactor("gaussian", tau=rng.uniform(1.0, 2.0)),
    )


def random_kernel(seed: int, dim: int | None = None) -> GKSLKernel:
    """Seeded random kernel: d in {2, 3}, 1-2 jump operator functions,
    1-2 profile terms each, spectral norms in [0.4, 0.6]."""
    rng = np.random.default_rng(seed)
    d = int(dim) if dim is not None else int(rng.integers(2, 4))
    ops = []
    for _ in range(int(rng.integers(1, 3))):
        terms = []
        for _ in range(int(rng.integers(1, 3))):
            a = random_operator(rng, d, norm=rng.uniform(0.4, 0.6))
            terms.append((_random_profile(rng), a))
        ops.append(TwoTimeOperatorFunction.build(d, terms))
    h = random_hermitian(rng, d, norm=rng.uniform(0.2, 0.4))
    herm = TwoTimeOperatorFunction.build(d, [(ConstantProfile(1.0), h)])
    return GKSLKernel.build(d, hermitian=herm, jump_ops=tuple(ops), coupling=1.0)


def random_drift(seed: int, dim: int | None = None) -> TwoTimeOperatorFunction:
    """Seeded random drift-operator function with tame norms."""
    rng = np.random.default_rng(seed)
    d = int(dim) if dim is not None else int(rng.integers(2, 4))
    terms = []
    for _ in range(int(rng.integers(1, 3))):
        a = random_operator(rng, d, norm=rng.uniform(0.3, 0.5))
        terms.append((_random_profile(rng), a))
    return TwoTimeOperatorFunction.build(d, terms)


def corpus_kernels(count: int, base_seed: int = 101, dim: int | None = None):
    """The shared test corpus: consecutive seeds from base_seed."""
    return tuple(random_kernel(base_seed + i, dim=dim) for i in range(count))


def dephasing_kernel(kappa: float = 1.0, g: float = 1.0) -> GKSLKernel:
    """Exponential-memory dephasing: L(t, t') = e^{-kappa (t-t')} sigma_z."""
    fn = TwoTimeOperatorFunction.build(2, [(ExpProfile(-float(kappa)), SIGMA_Z)])
    return GKSLKernel.build(2, jump_ops=(fn,), coupling=g)


def coherence_revival_kernel(t_max: float = 4.0) -> GKSLKernel:
    """Constant sigma_z kernel whose nonlocal solution revives coherence.

    The nonlocal coherence factor is cos(sqrt(2) t): it decays, crosses zero
    and grows back in magnitude, so the trajectory stays CP at every node
    while the intermediate maps on the revival stretch are not — the
    divisibility counterexample.  Shipped as a tabulated profile so the grid
    ingestion path is exercised end to end (bilinear interpolation of a
    constant table is exact).
    """
    prof = TabulatedProfile(float(t_max), np.ones((5, 5)))
    fn = TwoTimeOperatorFunction.build(2, [(prof, SIGMA_Z)])
    return GKSLKernel.build(2, jump_ops=(fn,), coupling=1.0)


# ---------------------------------------------------------------------------
# coupling-strength scan


@dataclass(frozen=True)
class GScanResult:
    """Log-log scaling of the distance between two solver families (see :func:`g_scan`)."""

    g_values: tuple
    distances: tuple
    slope: float | None
    intercept: float | None
    residual: float | None  # max |log10 distance - fit|
    monotone: bool
    pair: tuple
    failures: tuple  # (g, message) for per-point solver failures
    local_slopes: tuple  # log-log slope between consecutive fitted g values

    def to_doc(self) -> dict:
        return {
            "kind": "gscan-result",
            "pair": list(self.pair),
            "g": [float(g) for g in self.g_values],
            "distance": [float(x) for x in self.distances],
            "slope": self.slope,
            "intercept": self.intercept,
            "residual": self.residual,
            "monotone": bool(self.monotone),
            "local_slopes": [float(x) for x in self.local_slopes],
            "failures": [[float(g), msg] for g, msg in self.failures],
        }

    def csv_text(self) -> str:
        return (
            f"# gkslmap gscan pair={self.pair[0]}:{self.pair[1]}\n"
            + csv_table({"g": self.g_values, "distance": self.distances})
            + f"# local_slopes={csv_row(self.local_slopes)}\n"
            + f"# slope={csv_row([self.slope])} residual={csv_row([self.residual])}"
            + f" monotone={self.monotone}\n"
        )


def pair_distance(k: GKSLKernel, grid: TimeGrid, pair, order: int = 8) -> float:
    """Sup-over-nodes Frobenius distance between two families on one kernel.

    The one-coupling case of :func:`~gkslmap.propagate.family_distances`: NaN
    or inf, not an error, when a family's maps are not finite.
    """
    return float(family_distances(k, grid, pair, [k.coupling], order)[0])


def scan_couplings(g_list) -> list:
    """The couplings of a g scan as floats; ValueError unless there are at least four,
    strictly increasing, finite and positive, spanning a ratio of at least 8."""
    gs = [float(g) for g in g_list]
    if len(gs) < 4:
        raise ValueError(f"g_list needs >= 4 points, got {len(gs)}")
    if not all(0 < g < math.inf for g in gs):
        raise ValueError("g_list entries must be finite and positive")
    if any(b <= a for a, b in zip(gs, gs[1:])):
        raise ValueError("g_list must be strictly increasing")
    # 8 is the widest window the weak regime tolerates in practice; a full
    # decade is better when the large-g end still converges
    if gs[-1] / gs[0] < 8.0:
        raise ValueError(f"g_list must span at least a ratio of 8, got {gs[-1] / gs[0]:.3g}")
    return gs


def scan_pair(pair) -> tuple:
    """The two families of a g scan as a tuple; ValueError if they are one family."""
    if pair[0] == pair[1]:
        raise ValueError("pair must name two distinct families")
    return tuple(pair)


def g_scan(
    k: GKSLKernel,
    grid: TimeGrid,
    g_list,
    pair=("nonlocal-full", "weak-nonlocal-full"),
    order: int = 8,
) -> GScanResult:
    """Distance-vs-coupling scan with a least-squares log-log slope fit.

    The kernel carries g only as an overall g^2, so each family of the pair
    is solved once for all couplings, side by side; the scan then holds one
    (M + 1) x couplings x D^2 array, the first family's maps overwritten node
    block by node block by the second's once their distance is taken.  Bad
    couplings or pair (:func:`scan_couplings`, :func:`scan_pair`), an unknown
    family, a series ``order`` below 1 or a kernel that does not cover grid.T
    raise ValueError before anything is solved.  A coupling whose solve fails,
    such as one with a singular Volterra step, marches as a NaN column and
    gets a NaN distance; a non-finite distance is that point's failure, left
    out of the fit.  When failures leave fewer than two points the scan raises
    RuntimeError (a solver failure, not bad input).  A distance of exactly 0
    (two families that agree) is kept in the result but left out of the
    log-log fit; with fewer than two nonzero distances the slope, intercept
    and residual are None.  ``local_slopes`` holds the log-log slope between
    each pair of consecutive fitted couplings, so a bend the fit averages out
    stays visible.

    Small-g limit: two families discretize their shared O(g^2) term
    differently (local-full on the refined Runge-Kutta lattice, nonlocal-full
    by node-trapezoid Volterra sums), so a pair distance carries an
    O(h^2 g^2) discretization floor under its O(g^4) leading term.  On the
    Redfield kernel at M = 200 the floor lifts distance / g^4 by 46% at
    g = 0.0125 and drops the local slope on [0.0125, 0.025] to 3.57, which
    sets the low end of a usable g list.
    """
    gs = scan_couplings(g_list)
    scan_pair(pair)
    distances = []
    failures = []
    kept_g = []
    for g, dist in zip(gs, map(float, family_distances(k, grid, pair, gs, order))):
        if not math.isfinite(dist):
            failures.append((g, f"the pair distance is not finite ({dist!r})"))
        else:
            distances.append(dist)
            kept_g.append(g)
    if len(kept_g) < 2 and failures:
        g, msg = failures[0]
        raise RuntimeError(
            f"too few successful scan points for a slope fit: {len(failures)} of "
            f"{len(gs)} solves failed (first at g = {g!r}: {msg})"
        )
    # distances are finite norms, so nonzero is positive
    fit_g = [g for g, x in zip(kept_g, distances) if x != 0.0]
    fit_d = [x for x in distances if x != 0.0]
    slope = intercept = residual = None
    local_slopes = ()
    if len(fit_d) >= 2:
        lg = np.log10(fit_g)
        ld = np.log10(fit_d)
        slope, intercept = (float(x) for x in np.polyfit(lg, ld, 1))
        residual = float(np.max(np.abs(ld - (slope * lg + intercept))))
        local_slopes = tuple(float(x) for x in np.diff(ld) / np.diff(lg))
    monotone = bool(np.all(np.diff(distances) >= -1e-14))
    return GScanResult(
        g_values=tuple(kept_g),
        distances=tuple(distances),
        slope=slope,
        intercept=intercept,
        residual=residual,
        monotone=monotone,
        pair=tuple(pair),
        failures=tuple(failures),
        local_slopes=local_slopes,
    )


# ---------------------------------------------------------------------------
# Redfield-style kernels


@dataclass(frozen=True)
class RedfieldModel:
    """System Hamiltonian + coupling operator + bath correlation function.

    The bath enters only through C(tau); no bath Hilbert space is simulated.
    """

    h_s: np.ndarray
    coupling_op: np.ndarray
    correlation: Profile  # two-time profile, convolution kind: C(t - t')
    g: float = 1.0

    def __post_init__(self):
        h = np.asarray(self.h_s, dtype=complex)
        s = np.asarray(self.coupling_op, dtype=complex)
        if h.shape != s.shape or h.ndim != 2 or h.shape[0] != h.shape[1]:
            raise ValueError("h_s and coupling_op must be square and same shape")
        if np.linalg.norm(h - h.conj().T) > 1e-10 * max(1.0, np.linalg.norm(h)):
            raise ValueError("h_s must be Hermitian")
        c0 = complex(np.asarray(self.correlation(1.0, 1.0)).reshape(()))
        if abs(c0.imag) > 1e-12 or c0.real < 0:
            raise ValueError(f"correlation at tau=0 must be real and >= 0, got {c0}")
        object.__setattr__(self, "h_s", h)
        object.__setattr__(self, "coupling_op", s)


def redfield_kernel(model: RedfieldModel) -> GKSLKernel:
    """Interaction-picture kernel L(t, t') = C(t - t') S^I(t - t').

    S^I is expanded over the eigenoperator basis of H_S, so every term is an
    exact profile-times-constant-operator pair: the eigenoperator at Bohr
    frequency w picks up the profile e^{i w (t-t')} C(t-t').  With an
    exponential correlation the profiles fuse into single decaying
    exponentials and the kernel is convolution-type.
    """
    d = model.h_s.shape[0]
    evals, u = np.linalg.eigh(model.h_s)
    s_tilde = u.conj().T @ model.coupling_op @ u
    terms = []
    for a in range(d):
        for b in range(d):
            if abs(s_tilde[a, b]) <= 1e-14:
                continue
            op = s_tilde[a, b] * np.outer(u[:, a], u[:, b].conj())
            omega = float(evals[a] - evals[b])
            if abs(omega) <= 1e-14:
                prof = model.correlation
            else:
                prof = profile_product(ExpProfile(1j * omega), model.correlation)
            terms.append((prof, op))
    fn = TwoTimeOperatorFunction.build(d, terms)
    return GKSLKernel.build(d, jump_ops=(fn,), coupling=model.g)


# ---------------------------------------------------------------------------
# convolution special case


@dataclass(frozen=True)
class ConvolutionCaseResult:
    """Hypothesis audit for the convolution case.

    The claim under test: if the drift-only map is CP and its Kraus operators
    satisfy the mutual-inverse condition, the full convolution map is CP.
    ``consistent`` is False only when the hypotheses held and the conclusion
    still failed.
    """

    full_report: CPReport
    z_report: CPReport
    z_map_cp: bool
    kraus_condition_holds: bool
    kraus_clause: str  # "" when the condition holds
    n_kraus: int
    full_cp: bool

    @property
    def hypotheses_hold(self) -> bool:
        return self.z_map_cp and self.kraus_condition_holds

    @property
    def consistent(self) -> bool:
        return (not self.hypotheses_hold) or self.full_cp

    def to_doc(self) -> dict:
        return {
            "kind": "convolution-case",
            "z_map_cp": bool(self.z_map_cp),
            "kraus_condition_holds": bool(self.kraus_condition_holds),
            "kraus_clause": self.kraus_clause,
            "n_kraus": int(self.n_kraus),
            "full_cp": bool(self.full_cp),
            "hypotheses_hold": bool(self.hypotheses_hold),
            "consistent": bool(self.consistent),
            "full_report": self.full_report.to_doc(),
            "z_report": self.z_report.to_doc(),
        }


def convolution_case(
    k: GKSLKernel, grid: TimeGrid, eps_cp: float = DEFAULT_EPS_CP
) -> ConvolutionCaseResult:
    """Run the convolution-case audit (nonlocal full + drift companion)."""
    if not k.is_convolution:
        raise ValueError("kernel profiles are not all convolution-type")
    full = solve_family(k, grid, "nonlocal-full")
    z = solve_family(k, grid, "nonlocal-drift")
    full_report = certify_trajectory(full, eps_cp=eps_cp)
    z_report = certify_trajectory(z, eps_cp=eps_cp)
    z_cp = z_report.all_cp
    if z_cp:
        kraus = kraus_extract(choi(z.maps[-1]), eps_cp=eps_cp)
        cond = kraus_condition_check(kraus)
        holds, clause, n_k = cond.holds, cond.failed_clause, cond.n_operators
    else:
        holds, clause, n_k = False, "drift-map-not-CP", 0
    return ConvolutionCaseResult(
        full_report=full_report,
        z_report=z_report,
        z_map_cp=z_cp,
        kraus_condition_holds=holds,
        kraus_clause=clause,
        n_kraus=n_k,
        full_cp=full_report.all_cp,
    )


# ---------------------------------------------------------------------------
# self-convergence


@dataclass(frozen=True)
class OrderEstimate:
    """Observed convergence order from successive grid refinements."""

    m_values: tuple
    differences: tuple  # ||final(M) - final(2M)||_F per consecutive pair
    orders: tuple  # log2 ratios of consecutive differences

    @property
    def min_order(self) -> float:
        return min(self.orders)


def observed_order(solver, T: float = 2.0, m_values=(100, 200, 400, 800)) -> OrderEstimate:
    """Estimate convergence order of ``solver(grid) -> MapTrajectory``.

    Self-convergence on final maps: the difference between the M and 2M
    solutions scales like h^p, so consecutive difference ratios give 2^p.
    """
    if len(m_values) < 3:
        raise ValueError("need at least three grid sizes")
    finals = [solver(TimeGrid(T, int(m))).maps[-1] for m in m_values]
    diffs = [frobenius(finals[i] - finals[i + 1]) for i in range(len(finals) - 1)]
    if any(x == 0 for x in diffs):
        raise ValueError("degenerate refinement: zero difference between grids")
    orders = [math.log2(diffs[i] / diffs[i + 1]) for i in range(len(diffs) - 1)]
    return OrderEstimate(
        m_values=tuple(int(m) for m in m_values),
        differences=tuple(diffs),
        orders=tuple(orders),
    )
