"""Reference evaluations the solver tests compare against.

The solvers work from the separable form of :func:`gkslmap.kernel.split_kernel`
on O(M) tables and rows; the first references evaluate the kernel directly,
one (t, t') at a time, or sum the generator lattice one term at a time.  The Runge-Kutta references march stage by stage.
The last section holds criterion 1's closed form and two helpers that only
the tests use.
"""

import math

import numpy as np

from gkslmap.kernel import GKSLKernel, TwoTimeOperatorFunction, split_kernel
from gkslmap.linalg import dagger, sandwich_superop
from gkslmap.propagate import (
    _REFINE,
    _fine_nodes,
    _lattice,
    _local_generator,
    _qtable,
    _sandwich_stack,
    solve_family,
)
from gkslmap.trajectory import TimeGrid


def eval_kernel_superop(k: GKSLKernel, t: float, tp: float) -> np.ndarray:
    """Dense superoperator matrix of the kernel at one admissible (t, t')."""
    if tp > t:
        raise ValueError(f"kernel evaluated outside the time-ordered domain: t'={tp} > t={t}")
    d = k.dim
    eye = np.eye(d, dtype=complex)
    h = k.hermitian(t, tp)
    out = -1j * (sandwich_superop(h, eye) - sandwich_superop(eye, h))
    for op in k.jump_ops:
        el = op(t, tp)
        grams = dagger(el) @ el
        out += sandwich_superop(el, dagger(el))
        out -= 0.5 * (sandwich_superop(grams, eye) + sandwich_superop(eye, grams))
    return k.coupling**2 * out


def effective_generator(k: GKSLKernel, t: float, grid: TimeGrid) -> np.ndarray:
    """Composite-trapezoid generator G_t = int_0^t K(t,s) ds over grid nodes.

    ``t`` must be a grid node.
    """
    ts = grid.nodes()
    m = int(round(t / grid.h))
    if not (0 <= m <= grid.steps) or abs(ts[m] - t) > 1e-9 * max(1.0, grid.T):
        raise ValueError(f"t = {t} is not a node of the grid (T={grid.T}, steps={grid.steps})")
    D = k.dim * k.dim
    g = np.zeros((D, D), dtype=complex)
    if m == 0:
        return g
    for j in range(m + 1):
        w = 0.5 * grid.h if j in (0, m) else grid.h
        g += w * eval_kernel_superop(k, ts[m], ts[j])
    return g


def lattice_per_term(terms, size: int, grid: TimeGrid, stride: int = 1) -> np.ndarray:
    """Generator lattice sum_k q_k(tau) X_k summed one (profile, matrix) term at a time,
    each distinct profile's q-table formed once, on every stride-th refined node."""
    taus, hf = _fine_nodes(grid), grid.h / _REFINE
    q = {p: _qtable(p, taus, hf) for p in dict.fromkeys(p for p, _ in terms)}
    out = np.zeros((len(taus[::stride]), size, size), dtype=complex)
    for p, x in terms:
        out += q[p][::stride, None, None] * x
    return out


# ---------------------------------------------------------------------------
# the per-step Runge-Kutta reference
#
# The solvers march by precomputed step matrices.  These march the same
# equations stage by stage, one right-hand-side call per stage, on the same
# quadrature lattices (those are gated on their own against dense tables).


def rk4_march(coeffs: np.ndarray, y0: np.ndarray, h: float, deriv) -> np.ndarray:
    """Classical Runge-Kutta march of dy/dt = deriv(c(t), y) from y0.

    ``coeffs`` holds c on the half-step lattice, so step m draws on
    coeffs[2m], coeffs[2m + 1] and coeffs[2m + 2].  Returns y0 and the state
    after every step.
    """
    y = y0
    out = [y]
    for m in range((len(coeffs) - 1) // 2):
        c0, cm, c1 = coeffs[2 * m], coeffs[2 * m + 1], coeffs[2 * m + 2]
        k1 = deriv(c0, y)
        k2 = deriv(cm, y + 0.5 * h * k1)
        k3 = deriv(cm, y + 0.5 * h * k2)
        k4 = deriv(c1, y + h * k3)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        out.append(y)
    return np.array(out)


def series_shift(g: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Right-hand side of the triangular stack dP_n/dt = G(t) P_{n-1}."""
    d = np.zeros_like(y)
    d[1:] = np.matmul(g, y[:-1])
    return d


def frame_shift(w: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Right-hand side of V' = -A_int V and Vinv' = Vinv A_int, stacked as y = (V, Vinv)."""
    d = np.empty_like(y)
    d[0] = -w @ y[0]
    d[1] = y[1] @ w
    return d


def rk4_local(k: GKSLKernel, grid: TimeGrid, part: str) -> np.ndarray:
    """Maps of the local family ``local-<part>``."""
    g_half = _local_generator(split_kernel(k), grid, part)
    return rk4_march(g_half, np.eye(k.dim * k.dim, dtype=complex), grid.h, np.matmul)


def rk4_frame(drift: TwoTimeOperatorFunction, grid: TimeGrid):
    """(V, Vinv) of the drift operator on the h/2 lattice, marched at step h/2."""
    w_fine = _lattice(drift.terms, drift.dim, grid)
    eye = np.eye(drift.dim, dtype=complex)
    vv = rk4_march(w_fine, np.stack([eye, eye]), grid.h / 2.0, frame_shift)
    return vv[:, 0], vv[:, 1]


def rk4_transform(k: GKSLKernel, grid: TimeGrid) -> np.ndarray:
    """Maps of the local-full equation solved in the drift frame."""
    split = split_kernel(k)
    v_half, vinv_half = rk4_frame(split.drift_op, grid)
    v_sup = _sandwich_stack(v_half)
    g_hat = _sandwich_stack(vinv_half) @ _local_generator(split, grid, "jump") @ v_sup
    eye = np.eye(k.dim * k.dim, dtype=complex)
    return v_sup[::2] @ rk4_march(g_hat, eye, grid.h, np.matmul)


def rk4_local_series(k: GKSLKernel, grid: TimeGrid, part: str, order: int):
    """Per-node sums and order-N tail norms of the local series of one kernel part."""
    g_half = _local_generator(split_kernel(k), grid, part)
    D = k.dim * k.dim
    y0 = np.zeros((order + 1, D, D), dtype=complex)
    y0[0] = np.eye(D)
    ys = rk4_march(g_half, y0, grid.h, series_shift)
    return ys.sum(axis=1), np.linalg.norm(ys[:, order], axis=(1, 2))


def solved_pair_distance(k: GKSLKernel, grid: TimeGrid, pair, order: int = 8) -> float:
    """Sup-over-nodes Frobenius distance between two families, each solved on its own."""
    a = solve_family(k, grid, pair[0], order=order)
    b = solve_family(k, grid, pair[1], order=order)
    return float(np.max(np.linalg.norm(a.maps - b.maps, axis=(1, 2))))


# ---------------------------------------------------------------------------
# closed forms and helpers only the tests use


def jump_exponential_series(l_op: np.ndarray, t: float, rho: np.ndarray, order: int) -> np.ndarray:
    """Closed-form jump exponential: rho + sum_{n=1}^{N} t^n/n! L^n rho L^dag^n.

    For nilpotent L the sum terminates exactly; for normal L it converges as
    the scalar exponential series.
    """
    if order < 0:
        raise ValueError(f"order must be >= 0, got {order}")
    l_op = np.asarray(l_op, dtype=complex)
    ld = dagger(l_op)
    out = np.asarray(rho, dtype=complex).copy()
    term = np.asarray(rho, dtype=complex)
    for n in range(1, order + 1):
        term = l_op @ term @ ld
        out = out + (t**n / math.factorial(n)) * term
    return out


def unvectorize(v, dim: int | None = None) -> np.ndarray:
    """Inverse of :func:`gkslmap.linalg.vectorize`."""
    v = np.asarray(v, dtype=complex).reshape(-1)
    d = int(round(np.sqrt(v.size))) if dim is None else int(dim)
    if d * d != v.size:
        raise ValueError(f"vector of length {v.size} is not a vectorized square matrix")
    return v.reshape((d, d), order="F")


def random_density(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Random full-rank density matrix (Wishart-like, unit trace)."""
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = a @ a.conj().T + 1e-3 * np.eye(dim)
    return rho / np.trace(rho).real
