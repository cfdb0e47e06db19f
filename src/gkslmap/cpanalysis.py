"""Complete-positivity analysis of dynamical maps.

Conventions fixed here and used by every file format:

* Choi matrix of a superoperator S (column-stacking convention):
  C[(a,i),(b,j)] = S[a + d*b, i + d*j], i.e. C = (Lambda (x) id) applied to the
  unnormalized maximally entangled projector sum_ij |ii><jj|, with the system
  factor first and composite row index a*d + i.
* A map is certified CP iff the smallest Choi eigenvalue is >= -eps_cp * d;
  the d-scaling keeps verdicts dimension-independent (the Choi trace grows
  like d for trace-preserving maps).
* Kraus operators absorb the Choi eigenvalues: K_j = sqrt(lambda_j) times the
  eigenvector reshaped row-major to d x d.  Row-major is forced by the
  system-first Choi layout above; the binding contract is the reconstruction
  identity sum_j K_j rho K_j^dag = Lambda(rho).

Certification is stacked: choi, cp_check, trace_deviation, cond and solve each
take blocks of nodes or intervals, as many as :func:`~gkslmap.linalg.block_len`
allows for d^2 x d^2 maps, with the same bits per matrix as one at a time.
Blocks, because a call over all M + 1 nodes holds several (M+1, d^2, d^2)
temporaries at once and raises the peak memory.  cp_check computes Choi
eigenvalues only; kraus_extract computes the eigenvectors too.
The Kraus condition is one cond, one inv and one (n, n, d, d) product
K_j^{-1} K_k over all operators.  The drift witness search tries a
relative-phase ansatz first and falls back on the Choi spectrum of every
node, so it finds a witness whenever the drift-only map fails to be CP at
some node.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .kernel import TwoTimeOperatorFunction
from .linalg import (
    _HERMITIAN_RTOL,
    NotHermitianError,
    block_len,
    frobenius,
    hermitian_eig,
    vectorize,
)
from .propagate import solve_nonlocal_from_drift
from .serialize import csv_table
from .trajectory import MapTrajectory, TimeGrid

__all__ = [
    "choi",
    "cp_check",
    "kraus_extract",
    "kraus_condition_check",
    "KrausSet",
    "KrausConditionReport",
    "divisibility_check",
    "DivisibilityResult",
    "find_drift_cp_witness",
    "DriftCPWitness",
    "certify_trajectory",
    "CPReport",
    "trace_deviation",
    "DEFAULT_EPS_CP",
    "DEFAULT_COND_LIMIT",
]

DEFAULT_EPS_CP = 1e-8
DEFAULT_COND_LIMIT = 1e12
_KRAUS_CUTOFF = 1e-12  # Kraus weights kept: above this times max(trace, 1)
_KRAUS_TOL = 1e-8  # Frobenius tolerance of the mutual-inverse Kraus condition
_N_AMPLITUDES = 64  # amplitudes |psi_n| swept by the witness search
# An intermediate map comes from a linear solve whose relative error is of order
# u cond(Lambda_m), u = machine epsilon; its Choi asymmetry up to
# _SOLVE_ASYM_C * u * cond(Lambda_m) * ||C||_F is rounding, not input.
_SOLVE_ASYM_C = 16.0


def _dim_of(superop: np.ndarray) -> int:
    """d of a (..., d^2, d^2) superoperator or stack of them."""
    D = superop.shape[-1] if superop.ndim else 0
    d = math.isqrt(D)
    if superop.ndim < 2 or superop.shape[-2:] != (D, D) or d * d != D:
        raise ValueError(f"superoperator shape {superop.shape} is not (..., d^2, d^2)")
    return d


def choi(superop: np.ndarray) -> np.ndarray:
    """Choi matrix (system factor first, see module docstring); stacks (..., d^2, d^2) too."""
    superop = np.asarray(superop, dtype=complex)
    s4 = superop.reshape(superop.shape[:-2] + (_dim_of(superop),) * 4)
    return np.einsum("...baji->...aibj", s4).reshape(superop.shape)


def cp_check(choi_matrix: np.ndarray, eps_cp: float = DEFAULT_EPS_CP):
    """(verdict, lambda_min): CP iff the smallest Choi eigenvalue >= -eps_cp*d.

    A stack (..., D, D) of Choi matrices gives arrays of both.
    """
    d = _dim_of(choi_matrix)
    lam_min = hermitian_eig(choi_matrix, vectors=False).eigenvalues[..., 0]
    return lam_min >= -eps_cp * d, lam_min


def _blockwise(fn, maps: np.ndarray, what: str):
    """Concatenate fn's tuples of arrays over slices of range(len(maps)), as long as
    block_len allows for its matrices; a Choi matrix failing the Hermiticity guard is
    named by its index in range(len(maps))."""
    parts = []
    step = block_len(maps.shape[-1] ** 2)
    for start in range(0, len(maps), step):
        try:
            parts.append(fn(slice(start, start + step)))
        except NotHermitianError as exc:
            raise ValueError(
                f"{what} {start + exc.index[0]}: the Choi matrix is not Hermitian "
                f"(the map does not preserve Hermiticity): {exc.detail}"
            ) from exc
    return tuple(np.concatenate(p) for p in zip(*parts))


# ---------------------------------------------------------------------------
# Kraus representation


@dataclass(frozen=True)
class KrausSet:
    operators: tuple  # tuple of d x d ndarrays, eigenvalue absorbed
    weights: tuple  # the Choi eigenvalues they absorb, descending

    @property
    def dim(self) -> int:
        return self.operators[0].shape[0]


def kraus_extract(choi_matrix: np.ndarray, eps_cp: float = DEFAULT_EPS_CP) -> KrausSet:
    """Kraus operators from the Choi eigendecomposition.

    Eigenvalues above _KRAUS_CUTOFF * trace are kept; calling this on a Choi
    matrix that fails :func:`cp_check` is an error (there is no Kraus form to
    extract).
    """
    d = _dim_of(choi_matrix)
    eig = hermitian_eig(choi_matrix)
    lam_min = eig.eigenvalues[0]
    if not lam_min >= -eps_cp * d:  # the cp_check rule
        raise ValueError(
            f"Choi matrix is not CP (lambda_min = {lam_min:.3e}); no Kraus representation"
        )
    lam = eig.eigenvalues[::-1]
    keep = lam > _KRAUS_CUTOFF * max(float(np.real(np.trace(choi_matrix))), 1.0)
    ops = np.sqrt(lam[keep])[:, None, None] * eig.eigenvectors.T[::-1][keep].reshape(-1, d, d)
    return KrausSet(operators=tuple(ops), weights=tuple(lam[keep].tolist()))


@dataclass(frozen=True)
class KrausConditionReport:
    """Result of the mutual-inverse condition (K_j)^{-1} K_k = 1 delta_jk."""

    holds: bool
    n_operators: int
    singular: tuple  # indices of operators with condition number beyond limit
    max_diagonal_residual: float  # worst || K_j^{-1} K_j - 1 ||_F
    max_offdiagonal_norm: float  # worst || K_j^{-1} K_k ||_F, j != k
    failed_clause: str  # "", "singular", "diagonal", "off-diagonal"


def kraus_condition_check(kraus: KrausSet) -> KrausConditionReport:
    """Check the mutual-inverse Kraus condition, reporting which clause failed.

    For j != k the condition demands K_j^{-1} K_k = 0-times-identity, which a
    nonzero K_k cannot satisfy — so the condition effectively singles out
    one-element Kraus sets (and the check makes that failure mode explicit
    rather than folding it into a generic boolean).
    """
    ops = np.array(kraus.operators)
    conds = np.linalg.cond(ops)
    singular = tuple(np.flatnonzero(~np.isfinite(conds) | (conds > DEFAULT_COND_LIMIT)).tolist())
    max_diag = max_off = float("nan")  # a singular set has no inverses to test
    if not singular:
        # residual[j, k] = || K_j^{-1} K_k - delta_jk 1 ||_F
        on_diag = np.eye(len(ops), dtype=bool)
        delta = on_diag[:, :, None, None] * np.eye(kraus.dim)
        residual = frobenius(np.linalg.inv(ops)[:, None] @ ops - delta)
        max_diag = float(residual[on_diag].max())
        max_off = float(np.where(on_diag, 0.0, residual).max())
    if singular:
        clause = "singular"
    elif max_diag > _KRAUS_TOL:
        clause = "diagonal"
    elif max_off > _KRAUS_TOL:
        clause = "off-diagonal"
    else:
        clause = ""
    return KrausConditionReport(
        holds=(clause == ""),
        n_operators=len(ops),
        singular=singular,
        max_diagonal_residual=max_diag,
        max_offdiagonal_norm=max_off,
        failed_clause=clause,
    )


# ---------------------------------------------------------------------------
# divisibility


@dataclass(frozen=True)
class DivisibilityResult:
    """Per-interval CP verdicts for the intermediate maps Lambda_{m+1} Lambda_m^{-1}."""

    statuses: tuple  # "CP" | "not-CP" | "indeterminate", one per interval
    lambda_mins: tuple  # float or None (indeterminate)
    condition_numbers: tuple

    @property
    def all_cp(self) -> bool:
        return all(s == "CP" for s in self.statuses)

    @property
    def violations(self) -> tuple:
        return tuple(i for i, s in enumerate(self.statuses) if s == "not-CP")


def divisibility_check(traj: MapTrajectory, eps_cp: float = DEFAULT_EPS_CP) -> DivisibilityResult:
    """CP-check every intermediate map of a trajectory.

    The intermediate map X solves X Lambda_m = Lambda_{m+1} (computed by a
    linear solve, never an explicit inverse).  An interval is marked
    indeterminate, not failed, when its Lambda_m is conditioned beyond
    DEFAULT_COND_LIMIT, or when the Choi matrix C of X fails the Hermiticity
    guard by an asymmetry within _SOLVE_ASYM_C * u * cond(Lambda_m) * ||C||_F,
    which the solve's rounding explains.  A larger asymmetry is an error
    naming the interval.
    """
    a, b = traj.maps[:-1], traj.maps[1:]
    (conds,) = _blockwise(lambda s: (np.linalg.cond(a[s]),), a, "interval")
    solvable = np.isfinite(conds) & (conds <= DEFAULT_COND_LIMIT)
    eye = np.eye(a.shape[-1])
    rounding = _SOLVE_ASYM_C * np.finfo(float).eps * conds

    def intermediate_cp(s):
        # X a = b  <=>  a^T X^T = b^T; unsolvable intervals get X = 1, discarded below
        keep = solvable[s, None, None]
        at = np.where(keep, np.swapaxes(a[s], 1, 2), eye)
        bt = np.where(keep, np.swapaxes(b[s], 1, 2), eye)
        c = choi(np.swapaxes(np.linalg.solve(at, bt), 1, 2))
        try:
            return (*cp_check(c, eps_cp), np.zeros(len(c), dtype=bool))
        except NotHermitianError:
            asym, scale = frobenius(c - np.swapaxes(c.conj(), 1, 2)), frobenius(c)
            explained = (asym > _HERMITIAN_RTOL * scale) & (asym <= rounding[s] * scale)
            # an explained interval is checked on C = 1 instead, its verdict discarded below
            return (*cp_check(np.where(explained[:, None, None], eye, c), eps_cp), explained)

    ok, lam, explained = _blockwise(intermediate_cp, a, "interval")
    good = solvable & ~explained
    return DivisibilityResult(
        statuses=tuple(
            ("CP" if c else "not-CP") if g else "indeterminate" for g, c in zip(good, ok)
        ),
        lambda_mins=tuple(x if g else None for g, x in zip(good, lam.tolist())),
        condition_numbers=tuple(conds.tolist()),
    )


# ---------------------------------------------------------------------------
# CP counterexamples of the drift-only map


@dataclass(frozen=True)
class DriftCPWitness:
    """A located CP violation of the drift-only nonlocal map.

    The measure is <psi| (Lambda_t (x) id)(|phi><phi|) |psi>.  A witness of the
    relative-phase ansatz carries its pair, phase and amplitude and no
    method; one of the Choi fallback has those None and method "choi".
    """

    t: float
    node: int
    measure_value: float
    choi_lambda_min: float
    psi: np.ndarray = field(repr=False)  # doubled-space unit vector
    phi: np.ndarray = field(repr=False)  # doubled-space unit vector
    pair: tuple | None = (0, 1)  # (n, l) levels carrying the relative phase
    phase: float | None = 0.0
    amplitude: float | None = 0.0  # |psi_n|
    method: str | None = None


def _max_offdiagonal_entry(drift: TwoTimeOperatorFunction, grid: TimeGrid):
    """Largest off-diagonal drift entry |A_ln|, sampled on a coarse triangle; None if diagonal."""
    ts = np.linspace(0.0, grid.T, 9)
    i, j = np.tril_indices(len(ts))
    m = drift(ts[i], ts[j])
    # hypot rounds as abs() of one complex number does; np.abs on arrays differs
    mag = np.where(np.eye(drift.dim, dtype=bool), 0.0, np.hypot(m.real, m.imag))
    # argmax takes the first maximum in (t, t', row, column) order
    k, a, b = np.unravel_index(np.argmax(mag), mag.shape)
    if mag[k, a, b] <= 1e-12:
        return None
    return mag[k, a, b], (int(a), int(b)), m[k, a, b]


def _relative_phase_witness(traj: MapTrajectory, located, eps_cp: float):
    """The first node where the relative-phase ansatz on the entry ``located`` reads
    a measure < -10 eps_cp, or None (see :func:`find_drift_cp_witness`)."""
    _, (l, n), entry = located
    phi_ln = float(np.angle(entry))
    d = traj.dim
    ts = traj.grid.nodes()
    phases = np.array(
        [-phi_ln, math.pi - phi_ln, -phi_ln + math.pi / 2.0, -phi_ln - math.pi / 2.0]
    )
    amps = np.linspace(0.0, 1.0, _N_AMPLITUDES)
    a_grid = amps[:, None]
    b_grid = np.sqrt(1.0 - a_grid**2)
    eps_th = -10.0 * eps_cp
    # Lambda_t(|x><x|) is column x (d + 1) of the map, and its (i, j) entry is row i + d j
    xcols = np.arange(d) * (d + 1)
    nodes = block_len(d**4)
    for start in range(1, traj.grid.steps + 1, nodes):
        out = traj.maps[start : start + nodes][:, :, xcols, None, None]
        vals = (  # over (node, x, amplitude, phase)
            (a_grid**2) * out[:, n * (d + 1)].real
            + (b_grid**2) * out[:, l * (d + 1)].real
            + 2.0 * a_grid * b_grid * np.real(np.exp(1j * phases)[None, :] * out[:, n + d * l])
        )
        hits = np.argwhere(vals.min(axis=(2, 3)) < eps_th)  # (node, x) in C order
        if not len(hits):
            continue
        node, x = map(int, hits[0])
        best = vals[node, x]
        idx = np.unravel_index(np.argmin(best), best.shape)
        m = start + node
        a = float(amps[idx[0]])
        b = math.sqrt(max(0.0, 1.0 - a * a))
        theta = float(phases[idx[1]])
        u = np.zeros(d, dtype=complex)
        u[n] = a
        u[l] = b * np.exp(1j * theta)
        eye = np.eye(d)  # the ancilla is eye[0]
        _, lam_min = cp_check(choi(traj.maps[m]), eps_cp)
        return DriftCPWitness(
            t=float(ts[m]),
            node=m,
            measure_value=float(best[idx]),
            choi_lambda_min=lam_min,
            psi=np.kron(u, eye[0]),
            phi=np.kron(eye[x], eye[0]),
            pair=(n, l),
            phase=theta,
            amplitude=a,
        )
    return None


def _choi_witness(traj: MapTrajectory, eps_cp: float):
    """The first node whose Choi lambda_min < -eps_cp d, or None.

    psi is the Choi eigenvector of lambda_min and phi the maximally entangled
    state sum_i |ii> / sqrt(d), so the measure is <psi|C|psi> / d = lambda_min / d.
    """
    d, maps = traj.dim, traj.maps
    _, lam = _blockwise(lambda s: cp_check(choi(maps[s]), eps_cp), maps, "node")
    hits = np.flatnonzero(lam < -eps_cp * d)
    if not len(hits):
        return None
    m = int(hits[0])
    eig = hermitian_eig(choi(maps[m]))
    lam_min = float(eig.eigenvalues[0])
    return DriftCPWitness(
        t=float(traj.grid.nodes()[m]),
        node=m,
        measure_value=lam_min / d,
        choi_lambda_min=lam_min,
        psi=eig.eigenvectors[:, 0],
        phi=np.eye(d, dtype=complex).reshape(d * d) / math.sqrt(d),
        pair=None,
        phase=None,
        amplitude=None,
        method="choi",
    )


def find_drift_cp_witness(
    drift: TwoTimeOperatorFunction, grid: TimeGrid, eps_cp: float = DEFAULT_EPS_CP
) -> DriftCPWitness | None:
    """Locate a CP violation of the drift-only nonlocal map, or return None.

    First the two-level relative-phase ansatz, which mirrors the analytic
    construction for off-diagonal drift: |u> = a|n> + b e^{i theta}|l> with
    (l, n) the strongest off-diagonal drift element A_ln and theta swept
    around the negated and shifted phases of A_ln; |Phi> ranges over
    computational basis states (the ancilla factor rides along, so the
    measure reduces to <u| Lambda_t(|x><x|) |u>).  It reports the first node
    with measure < -10 eps_cp, cross-validated against the Choi spectrum.
    The measure is evaluated over (node, x, amplitude, phase) for a block of
    nodes at a time, as many as :func:`~gkslmap.linalg.block_len` allows for
    the maps; the first hit in node-then-x order wins.

    When the drift has no off-diagonal element or the ansatz finds nothing,
    the Choi spectrum of every node decides: the first node with
    lambda_min < -eps_cp d gives the witness of :func:`_choi_witness`.
    Returns None only when every node's map is CP by that rule.
    """
    traj = solve_nonlocal_from_drift(drift, grid)
    located = _max_offdiagonal_entry(drift, grid)
    witness = None if located is None else _relative_phase_witness(traj, located, eps_cp)
    return witness if witness is not None else _choi_witness(traj, eps_cp)


# ---------------------------------------------------------------------------
# trajectory certification


def trace_deviation(superop: np.ndarray):
    """Worst-case |trace(Lambda rho) - trace(rho)| over unit-Frobenius rho; arrays for stacks."""
    superop = np.asarray(superop, dtype=complex)
    d = _dim_of(superop)
    row = vectorize(np.eye(d, dtype=complex))
    return frobenius((np.swapaxes(superop.conj(), -1, -2) @ row - row)[..., None])


@dataclass(frozen=True)
class CPReport:
    """Per-node CP/TP verdicts of a trajectory, plus optional divisibility."""

    family: str
    dim: int
    eps_cp: float
    times: tuple
    lambda_mins: tuple
    trace_devs: tuple
    verdicts: tuple  # "CP" | "not-CP" per node
    divisibility: DivisibilityResult | None = None

    @property
    def all_cp(self) -> bool:
        return all(v == "CP" for v in self.verdicts)

    @property
    def first_violation(self):
        return None if self.all_cp else self.verdicts.index("not-CP")

    def to_doc(self) -> dict:
        doc = {
            "kind": "cp-report",
            "family": self.family,
            "dim": int(self.dim),
            "eps_cp": float(self.eps_cp),
            "times": [float(t) for t in self.times],
            "lambda_min": [float(x) for x in self.lambda_mins],
            "trace_dev": [float(x) for x in self.trace_devs],
            "verdict": list(self.verdicts),
            "all_cp": bool(self.all_cp),
        }
        if self.divisibility is not None:
            doc["divisibility"] = {
                "status": list(self.divisibility.statuses),
                "lambda_min": [
                    None if x is None else float(x) for x in self.divisibility.lambda_mins
                ],
                "all_cp": bool(self.divisibility.all_cp),
            }
        return doc

    def csv_text(self) -> str:
        header = f"# gkslmap cp-report family={self.family} dim={self.dim} eps_cp={self.eps_cp!r}\n"
        div = self.divisibility
        return header + csv_table({
            "t": self.times,
            "lambda_min": self.lambda_mins,
            "trace_dev": self.trace_devs,
            "div_lambda_min": [None] * len(self.times) if div is None else [None, *div.lambda_mins],
            "verdict": self.verdicts,
        })


def certify_trajectory(
    traj: MapTrajectory, eps_cp: float = DEFAULT_EPS_CP, divisibility: bool = False
) -> CPReport:
    """Choi-certify every node of a trajectory (optionally every interval too)."""
    maps = traj.maps

    def node_block(s):
        return (*cp_check(choi(maps[s]), eps_cp), trace_deviation(maps[s]))

    ok, lam, devs = _blockwise(node_block, maps, "node")
    div = divisibility_check(traj, eps_cp) if divisibility else None
    return CPReport(
        family=traj.family,
        dim=traj.dim,
        eps_cp=eps_cp,
        times=tuple(float(t) for t in traj.grid.nodes()),
        lambda_mins=tuple(lam.tolist()),
        trace_devs=tuple(devs.tolist()),
        verdicts=tuple("CP" if c else "not-CP" for c in ok),
        divisibility=div,
    )
