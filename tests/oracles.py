"""Node-level reference evaluations the solver tests compare against.

The solvers work from the separable form of :func:`gkslmap.kernel.split_kernel`
on O(M) tables and rows; these evaluate the kernel directly, one (t, t') at a
time.
"""

import numpy as np

from gkslmap.kernel import GKSLKernel
from gkslmap.linalg import dagger, sandwich_superop
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
