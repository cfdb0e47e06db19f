"""Propagators for the two-time master-equation families.

Every solver produces a :class:`~gkslmap.trajectory.MapTrajectory` on a uniform
grid.  The equation families, for a kernel K(t,t') = J(t,t') - D(t,t') split
into a jump (sandwich) part J and a drift part D:

* local:      dLambda/dt = [ int_0^t K(t,s) ds ] Lambda(t)
* nonlocal:   dLambda/dt = int_0^t K(t,s) Lambda(s) ds
* jump / drift variants use J alone (positive sign) or -D alone,
* series:     truncated iterated-integral expansions of the jump equations,
* transform:  the local-full equation solved in the drift frame
              Lambda = V . Lambdahat . V^dag,
* weak:       the mixed equation with a local drift term and a nonlocal jump
              term, solved in the drift frame with two-time hatted operators.

Numerics: the inner t'-integrals are composite trapezoid sums on a lattice
refined 4x below the step h, so the drift-frame march (step h/2, stages at
h/4) and the map march (step h, stages at h/2) draw on one shared table.  The
tables take O(M) memory.  Every profile of the closed family (constant,
exponential, gaussian, separable and their products) has the normal form
c(t - s) f(t) g(s), so its table is one causal discrete convolution of c and
g on the lattice (a running sum when either is 1), scaled by f.  Tabulated
profiles, products containing one and foreign Profile subclasses keep the
per-row trapezoid sums, evaluated in fixed-size blocks of rows.  ODE
families use the classical 4th-order Runge-Kutta step; nonlocal families use
an implicit trapezoidal Volterra march whose per-step fixed point is solved
exactly (one D x D linear solve), which makes the march the literal sum of the
discrete iterated-integral series.
"""

from __future__ import annotations

import math

import numpy as np

from .kernel import (
    GKSLKernel,
    KernelSplit,
    TwoTimeOperatorFunction,
    drift_superop_terms,
    eval_kernel_superop,
    split_kernel,
)
from .linalg import dagger, sandwich_superop
from .profiles import (
    ConstantProfile,
    ExpProfile,
    GaussianProfile,
    ProductProfile,
    SeparableProfile,
    profile_product,
)
from .trajectory import MapTrajectory, OrderedExponential, TimeGrid

__all__ = [
    "effective_generator",
    "solve_local",
    "solve_local_jump",
    "solve_local_drift",
    "solve_nonlocal",
    "solve_nonlocal_from_drift",
    "ordered_exponential",
    "ordered_exponential_from_drift",
    "solve_local_full_via_transform",
    "weak_coupling_localize",
    "weak_drift_localize",
    "jump_series",
    "full_local_series",
    "jump_exponential_series",
    "solve_family",
]

# Inner-integral lattice refinement relative to the grid step.  Factor 4 puts
# lattice points on every Runge-Kutta stage of both the map march (stages at
# h/2) and the drift-frame march (step h/2, stages at h/4).
_REFINE = 4

# Rows per block on the per-row table path (profiles outside the normal form).
_ROW_BLOCK = 64


# ---------------------------------------------------------------------------
# quadrature tables


def _fine_nodes(grid: TimeGrid) -> np.ndarray:
    return np.linspace(0.0, grid.T, _REFINE * grid.steps + 1)


def _normal_form(profile):
    """Factor lists (conv, f, g) with profile(t, s) = conv(t - s) * f(t) * g(s).

    ``conv`` holds constant, exponential and gaussian profiles, ``f`` and ``g``
    hold single-variable factors; a product takes the union of its factors'
    lists.  Returns None for profiles outside that closed family.
    """
    kind = type(profile)
    if kind in (ConstantProfile, ExpProfile, GaussianProfile):
        return [profile], [], []
    if kind is SeparableProfile:
        # a constant factor depends on neither time, so it rides with f
        if profile.g.kind == "constant":
            return [], [profile.f, profile.g], []
        return [], [profile.f], [profile.g]
    if kind is ProductProfile:
        conv, f, g = [], [], []
        for factor in profile.factors:
            form = _normal_form(factor)
            if form is None:
                return None
            conv += form[0]
            f += form[1]
            g += form[2]
        return conv, f, g
    return None


def _product(values, n: int) -> np.ndarray:
    out = np.ones(n, dtype=complex)
    for v in values:
        out = out * v
    return out


def _qtable_rows(profile, taus: np.ndarray, hf: float) -> np.ndarray:
    """Per-row trapezoid sums of the profile on the lattice, a block of rows at a time.

    Each row is the running sum of profile(tau_i, tau_j) over j <= i, so a block
    needs only the columns up to its last row and memory stays O(N * block).
    """
    n = len(taus)
    q = np.empty(n, dtype=complex)
    for a in range(0, n, _ROW_BLOCK):
        b = min(a + _ROW_BLOCK, n)
        c = np.asarray(profile(taus[a:b, None], taus[None, :b]), dtype=complex)
        rows = np.arange(b - a)
        cols = a + rows
        csum = np.cumsum(c, axis=1)
        q[a:b] = hf * (csum[rows, cols] - 0.5 * c[:, 0] - 0.5 * c[rows, cols])
    q[0] = 0.0
    return q


def _qtable(profile, taus: np.ndarray, hf: float) -> np.ndarray:
    """q[i] = trapezoid of profile(tau_i, s) over lattice points s <= tau_i.

    ``taus`` is a uniform lattice from 0.  For profile(t, s) = c(t - s) f(t) g(s)
    with c_k = c(tau_k), the row sum over j <= i is the causal convolution
    f_i (c * g)_i, taken as a direct sum (its rounding stays relative to the
    terms, where an FFT's is relative to the table's maximum).
    """
    form = _normal_form(profile)
    if form is None:
        return _qtable_rows(profile, taus, hf)
    conv, f, g = form
    n = len(taus)
    c = _product([p(taus, 0.0) for p in conv], n)
    gv = _product([fac(taus) for fac in g], n)
    if not g:
        csum = np.cumsum(c)
    elif not conv:
        csum = np.cumsum(gv)
    else:
        csum = np.convolve(c, gv)[:n]
    fv = _product([fac(taus) for fac in f], n)
    q = hf * fv * (csum - 0.5 * c * gv[0] - 0.5 * c[0] * gv)
    q[0] = 0.0
    return q


def _qtables(profiles, grid: TimeGrid) -> dict:
    """Deduplicated profile -> q-array map on the refined lattice."""
    taus = _fine_nodes(grid)
    hf = grid.h / _REFINE
    out = {}
    for p in profiles:
        if p not in out:
            out[p] = _qtable(p, taus, hf)
    return out


def _generator_lattice(terms, qmap: dict, dim: int, grid: TimeGrid, stride: int) -> np.ndarray:
    """Integrated generator G(tau) = sum_k q_k(tau) S_k on a sub-lattice.

    ``stride`` selects every stride-th refined node (2 -> the h/2 lattice).
    """
    D = dim * dim
    n = (_REFINE * grid.steps) // stride + 1
    g = np.zeros((n, D, D), dtype=complex)
    for p, s in terms:
        g += qmap[p][::stride, None, None] * s
    return g


def _operator_lattice(fn: TwoTimeOperatorFunction, qmap: dict, grid: TimeGrid) -> np.ndarray:
    """Integrated operator, e.g. A_int(tau) = int_0^tau A(tau,s) ds, all fine nodes."""
    w = np.zeros((_REFINE * grid.steps + 1, fn.dim, fn.dim), dtype=complex)
    for p, a in fn.terms:
        w += qmap[p][:, None, None] * a
    return w


def _part_terms(split: KernelSplit, part: str):
    if part == "jump":
        return list(split.jump_part.terms)
    if part == "drift":
        return [(p, -s) for p, s in split.drift_part.terms]
    if part == "full":
        return list(split.jump_part.terms) + [(p, -s) for p, s in split.drift_part.terms]
    raise ValueError(f"unknown kernel part {part!r}; expected 'full', 'jump' or 'drift'")


def _march_meta(gen_final: np.ndarray, grid: TimeGrid) -> dict:
    hg = grid.h * float(np.linalg.norm(gen_final))
    meta = {"h_times_gen_norm": hg}
    if hg > 1.0:
        meta["stepsize_warning"] = True
    return meta


# ---------------------------------------------------------------------------
# Runge-Kutta cores


def _rk4_march(g_half: np.ndarray, h: float) -> np.ndarray:
    """March dX/dt = G(t) X from the identity; G given on the h/2 lattice."""
    n_steps = (g_half.shape[0] - 1) // 2
    D = g_half.shape[1]
    maps = np.empty((n_steps + 1, D, D), dtype=complex)
    x = np.eye(D, dtype=complex)
    maps[0] = x
    for m in range(n_steps):
        g0 = g_half[2 * m]
        gm = g_half[2 * m + 1]
        g1 = g_half[2 * m + 2]
        k1 = g0 @ x
        k2 = gm @ (x + 0.5 * h * k1)
        k3 = gm @ (x + 0.5 * h * k2)
        k4 = g1 @ (x + h * k3)
        x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        maps[m + 1] = x
    return maps


def _rk4_stacked_series(g_half: np.ndarray, h: float, order: int):
    """March the triangular system dP_n/dt = G(t) P_{n-1}, P_0 = identity.

    Returns the per-node sums sum_n P_n and the Frobenius norm of the order-N
    term (the truncation diagnostic).  Because the stack is marched by the
    same Runge-Kutta step as the plain local equation, the full sum telescopes
    to the plain discrete solution up to the truncated tail.
    """
    n_steps = (g_half.shape[0] - 1) // 2
    D = g_half.shape[1]
    y = np.zeros((order + 1, D, D), dtype=complex)
    y[0] = np.eye(D)
    sums = np.empty((n_steps + 1, D, D), dtype=complex)
    tails = np.empty(n_steps + 1)
    sums[0] = y.sum(axis=0)
    tails[0] = np.linalg.norm(y[order])

    def deriv(g, stack):
        d = np.zeros_like(stack)
        d[1:] = np.matmul(g, stack[:-1])
        return d

    for m in range(n_steps):
        g0 = g_half[2 * m]
        gm = g_half[2 * m + 1]
        g1 = g_half[2 * m + 2]
        k1 = deriv(g0, y)
        k2 = deriv(gm, y + 0.5 * h * k1)
        k3 = deriv(gm, y + 0.5 * h * k2)
        k4 = deriv(g1, y + h * k3)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        sums[m + 1] = y.sum(axis=0)
        tails[m + 1] = np.linalg.norm(y[order])
    return sums, tails


# ---------------------------------------------------------------------------
# local (effective-generator) families


def effective_generator(k: GKSLKernel, t: float, grid: TimeGrid) -> np.ndarray:
    """Composite-trapezoid generator G_t = int_0^t K(t,s) ds over grid nodes.

    ``t`` must be a grid node.  This is the reference (node-level) quadrature;
    the solvers below consume the same integral tabulated on a refined
    lattice.
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


def _solve_local_part(k: GKSLKernel, grid: TimeGrid, part: str) -> MapTrajectory:
    k.check_horizon(grid.T)
    split = split_kernel(k)
    terms = _part_terms(split, part)
    qmap = _qtables([p for p, _ in terms], grid)
    g_half = _generator_lattice(terms, qmap, k.dim, grid, stride=2)
    maps = _rk4_march(g_half, grid.h)
    meta = _march_meta(g_half[-1], grid)
    return MapTrajectory(
        grid=grid, dim=k.dim, family=f"local-{part}", maps=maps, meta=meta
    )


def solve_local(k: GKSLKernel, grid: TimeGrid) -> MapTrajectory:
    """Local full-kernel trajectory: dLambda/dt = G_t Lambda, Lambda_0 = identity."""
    return _solve_local_part(k, grid, "full")


def solve_local_jump(k: GKSLKernel, grid: TimeGrid) -> MapTrajectory:
    """Local jump-only trajectory (generator from the sandwich part, positive sign)."""
    return _solve_local_part(k, grid, "jump")


def solve_local_drift(k: GKSLKernel, grid: TimeGrid) -> MapTrajectory:
    """Local drift-only trajectory (generator -D_t); equals V_t . V_t^dag conjugation."""
    return _solve_local_part(k, grid, "drift")


# ---------------------------------------------------------------------------
# ordered exponential of the drift operator


def _vh_march(w_fine: np.ndarray, grid: TimeGrid):
    """March V' = -A_int(t) V and Vinv' = +Vinv A_int(t) at step h/2.

    A_int is given on the h/4 lattice so every stage lands on a lattice point.
    Returns (V, Vinv) on the h/2 lattice.
    """
    d = w_fine.shape[1]
    n_steps = (w_fine.shape[0] - 1) // 2
    hv = grid.h / 2.0
    v = np.empty((n_steps + 1, d, d), dtype=complex)
    vinv = np.empty_like(v)
    x = np.eye(d, dtype=complex)
    y = np.eye(d, dtype=complex)
    v[0] = x
    vinv[0] = y
    for j in range(n_steps):
        w0 = w_fine[2 * j]
        wm = w_fine[2 * j + 1]
        w1 = w_fine[2 * j + 2]
        k1 = -w0 @ x
        k2 = -wm @ (x + 0.5 * hv * k1)
        k3 = -wm @ (x + 0.5 * hv * k2)
        k4 = -w1 @ (x + hv * k3)
        x = x + (hv / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        l1 = y @ w0
        l2 = (y + 0.5 * hv * l1) @ wm
        l3 = (y + 0.5 * hv * l2) @ wm
        l4 = (y + hv * l3) @ w1
        y = y + (hv / 6.0) * (l1 + 2.0 * l2 + 2.0 * l3 + l4)
        v[j + 1] = x
        vinv[j + 1] = y
    return v, vinv


def _ordered_exponential_tables(drift: TwoTimeOperatorFunction, grid: TimeGrid):
    qmap = _qtables([p for p, _ in drift.terms], grid)
    if drift.is_zero:
        n = _REFINE * grid.steps + 1
        w_fine = np.zeros((n, drift.dim, drift.dim), dtype=complex)
    else:
        w_fine = _operator_lattice(drift, qmap, grid)
    return _vh_march(w_fine, grid)


def ordered_exponential_from_drift(drift: TwoTimeOperatorFunction, grid: TimeGrid) -> OrderedExponential:
    """Time-ordered exponential of an arbitrary drift-operator function."""
    v_half, vinv_half = _ordered_exponential_tables(drift, grid)
    return OrderedExponential(grid=grid, dim=drift.dim, v=v_half[::2], vinv=vinv_half[::2])


def ordered_exponential(k: GKSLKernel, grid: TimeGrid) -> OrderedExponential:
    """Time-ordered exponential of the kernel's drift operator (g^2-scaled)."""
    k.check_horizon(grid.T)
    return ordered_exponential_from_drift(split_kernel(k).drift_op, grid)


# ---------------------------------------------------------------------------
# transform route for the local full equation


def solve_local_full_via_transform(k: GKSLKernel, grid: TimeGrid) -> MapTrajectory:
    """Local full solve in the drift frame.

    Builds hatted jump operators A~_k(s) = V_s^{-1} A_k V_s on the h/2
    lattice, marches dLambdahat/dt = the hatted jump generator Lambdahat with the jump
    q-tables shared with :func:`solve_local`, and conjugates back by the
    sandwich map of V_t.  Agreement with the direct route is a structural
    consistency check: both integrate the same equation through different
    representations.
    """
    k.check_horizon(grid.T)
    split = split_kernel(k)
    v_half, vinv_half = _ordered_exponential_tables(split.drift_op, grid)
    n_half = v_half.shape[0]
    d = k.dim
    D = d * d
    g2 = k.coupling**2

    # pair profiles and their q tables on the refined lattice (shared arithmetic
    # with the direct route: identical Profile objects, identical tables)
    pair_list = []
    profs = []
    for op in k.jump_ops:
        for pk, ak in op.terms:
            for pl, al in op.terms:
                prof = profile_product(pk, pl.conjugate())
                pair_list.append((prof, ak, al))
                profs.append(prof)
    qmap = _qtables(profs, grid)

    g_hat = np.zeros((n_half, D, D), dtype=complex)
    for prof, ak, al in pair_list:
        atk = np.einsum("jab,bc,jcd->jad", vinv_half, ak, v_half)
        atl = np.einsum("jab,bc,jcd->jad", vinv_half, al, v_half)
        # sandwich(A~_k, A~_l^dag) = kron(conj(A~_l), A~_k), batched over nodes
        sand = np.einsum("jcd,jab->jcadb", atl.conj(), atk).reshape(n_half, D, D)
        g_hat += (g2 * qmap[prof][::2])[:, None, None] * sand

    hat_maps = _rk4_march(g_hat, grid.h)
    maps = np.empty_like(hat_maps)
    for m in range(grid.steps + 1):
        vm = v_half[2 * m]
        maps[m] = np.kron(vm.conj(), vm) @ hat_maps[m]
    meta = _march_meta(g_hat[-1], grid)
    meta["engine"] = "transform"
    return MapTrajectory(grid=grid, dim=d, family="local-full", maps=maps, meta=meta)


# ---------------------------------------------------------------------------
# nonlocal (Volterra) families


def _coarse_tables(terms, grid: TimeGrid):
    """Profile value tables C_k[i,j] = c_k(t_i, t_j) on grid nodes, per term."""
    ts = grid.nodes()
    tables = []
    for p, s in terms:
        c = np.asarray(p(ts[:, None], ts[None, :]), dtype=complex)
        tables.append((c, s))
    return tables


def _trap_weights(steps: int, h: float) -> np.ndarray:
    """Lower-triangular composite-trapezoid weight matrix over grid nodes."""
    w = np.tril(np.full((steps + 1, steps + 1), h))
    w[:, 0] = 0.5 * h
    idx = np.arange(steps + 1)
    w[idx, idx] = 0.5 * h
    w[0, 0] = 0.0
    return w


def _final_generator(tables, grid: TimeGrid) -> np.ndarray:
    """Node-trapezoid generator at t_M: the last row of the weight matrix.

    That row is [h/2, h, ..., h, h/2], so the full matrix is never built.
    """
    w_last = np.full(grid.steps + 1, grid.h)
    w_last[0] = w_last[-1] = 0.5 * grid.h
    return np.asarray(sum(np.einsum("j,j->", w_last, c[-1]) * s for c, s in tables))


def _volterra_march(tables, grid: TimeGrid, dim: int) -> np.ndarray:
    """Implicit trapezoidal march of dX/dt = int_0^t K(t,s) X(s) ds.

    The corrector fixed point is linear in X_{m+1} (only the diagonal
    quadrature weight touches it), so it is solved exactly per step.  The
    resulting discrete solution satisfies X = 1 + Q X with Q the nested
    trapezoid integral operator — the same Q the nonlocal series iterates.
    """
    M, h = grid.steps, grid.h
    D = dim * dim
    eye = np.eye(D, dtype=complex)
    maps = np.empty((M + 1, D, D), dtype=complex)
    maps[0] = eye
    if not tables:
        maps[:] = eye
        return maps
    # Stack the tables so each step is two BLAS products instead of a
    # per-table Python loop; the arithmetic is the per-table sum unchanged.
    n_t = len(tables)
    c_stack = np.stack([c for c, _ in tables])  # (n_t, M+1, M+1)
    s_row = np.concatenate([s for _, s in tables], axis=1)  # (D, n_t*D)
    s_stack = np.stack([s for _, s in tables])
    flat = maps.reshape(M + 1, D * D)
    f_prev = np.zeros((D, D), dtype=complex)
    for m in range(M):
        i = m + 1
        rows = c_stack[:, i, :i].copy()
        rows[:, 0] *= 0.5
        y = (rows @ flat[:i]).reshape(n_t * D, D)
        partial = s_row @ (h * y)
        diag = np.einsum("k,kab->ab", c_stack[:, i, i], s_stack)
        rhs = maps[m] + 0.5 * h * (f_prev + partial)
        x = np.linalg.solve(eye - 0.25 * h * h * diag, rhs)
        maps[i] = x
        f_prev = partial + 0.5 * h * (diag @ x)
    return maps


def solve_nonlocal(k: GKSLKernel, grid: TimeGrid, part: str = "full") -> MapTrajectory:
    """Nonlocal trajectory: the memory integral acts on Lambda(s), not Lambda(t)."""
    k.check_horizon(grid.T)
    split = split_kernel(k)
    terms = _part_terms(split, part)
    tables = _coarse_tables(terms, grid)
    maps = _volterra_march(tables, grid, k.dim)
    meta = _march_meta(_final_generator(tables, grid), grid)
    return MapTrajectory(
        grid=grid, dim=k.dim, family=f"nonlocal-{part}", maps=maps, meta=meta
    )


def solve_nonlocal_from_drift(drift: TwoTimeOperatorFunction, grid: TimeGrid) -> MapTrajectory:
    """Nonlocal drift-only trajectory for an arbitrary drift-operator function A.

    This is the map the CP counterexamples probe: dLambda/dt =
    -int_0^t [A(t,s) Lambda(s)(.) + Lambda(s)(.) A(t,s)^dag] ds.
    """
    terms = [(p, -s) for p, s in drift_superop_terms(drift)]
    tables = _coarse_tables(terms, grid)
    maps = _volterra_march(tables, grid, drift.dim)
    meta = _march_meta(_final_generator(tables, grid), grid)
    meta["source"] = "drift-operator"
    return MapTrajectory(grid=grid, dim=drift.dim, family="nonlocal-drift", maps=maps, meta=meta)


# ---------------------------------------------------------------------------
# series solutions


def jump_series(
    k: GKSLKernel, grid: TimeGrid, order: int = 8, locality: str = "local"
) -> MapTrajectory:
    """Truncated iterated-integral solution of the jump-only equation.

    locality "local" nests t2 <= t1, t3 <= t1, t4 <= t3, ...: each new factor
    integrates the one-variable generator, realized by marching the triangular
    stack dP_n/dt = G_jump(t) P_{n-1}.  locality "nonlocal" nests fully ordered
    t_{2n} <= ... <= t_1: each iteration applies the nested-trapezoid Volterra
    integral operator.  meta carries the per-node norm of the order-N term.
    """
    if order < 1:
        raise ValueError(f"series order must be >= 1, got {order}")
    k.check_horizon(grid.T)
    split = split_kernel(k)
    terms = list(split.jump_part.terms)
    if locality == "local":
        qmap = _qtables([p for p, _ in terms], grid)
        g_half = _generator_lattice(terms, qmap, k.dim, grid, stride=2)
        sums, tails = _rk4_stacked_series(g_half, grid.h, order)
        family = "series-local-jump"
        meta = _march_meta(g_half[-1], grid)
    elif locality == "nonlocal":
        tables = _coarse_tables(terms, grid)
        sums, tails = _volterra_series(tables, grid, k.dim, order)
        family = "series-nonlocal-jump"
        meta = {}
    else:
        raise ValueError(f"unknown locality {locality!r}; expected 'local' or 'nonlocal'")
    meta.update(
        {
            "order": int(order),
            "tail_norm": [float(x) for x in tails],
            "tail_max": float(np.max(tails)),
        }
    )
    return MapTrajectory(grid=grid, dim=k.dim, family=family, maps=sums, meta=meta)


def full_local_series(k: GKSLKernel, grid: TimeGrid, order: int = 8) -> MapTrajectory:
    """Local series with the full generator; telescopes to solve_local as N grows."""
    if order < 1:
        raise ValueError(f"series order must be >= 1, got {order}")
    k.check_horizon(grid.T)
    split = split_kernel(k)
    terms = _part_terms(split, "full")
    qmap = _qtables([p for p, _ in terms], grid)
    g_half = _generator_lattice(terms, qmap, k.dim, grid, stride=2)
    sums, tails = _rk4_stacked_series(g_half, grid.h, order)
    meta = _march_meta(g_half[-1], grid)
    meta.update(
        {
            "order": int(order),
            "tail_norm": [float(x) for x in tails],
            "tail_max": float(np.max(tails)),
        }
    )
    return MapTrajectory(grid=grid, dim=k.dim, family="series-local-full", maps=sums, meta=meta)


def _volterra_series(tables, grid: TimeGrid, dim: int, order: int):
    """Iterate the nested-trapezoid integral operator: R_n = Q(R_{n-1}), R_0 = 1."""
    M, h = grid.steps, grid.h
    D = dim * dim
    w = _trap_weights(M, h)
    r = np.broadcast_to(np.eye(D, dtype=complex), (M + 1, D, D)).copy()
    total = r.copy()
    for _ in range(order):
        f = np.zeros((M + 1, D, D), dtype=complex)
        for c, s in tables:
            y = np.einsum("ij,jab->iab", w * c, r)
            f += np.einsum("ab,ibc->iac", s, y)
        r = np.einsum("mi,iab->mab", w, f)
        total = total + r
    tails = np.linalg.norm(r.reshape(M + 1, -1), axis=1)
    return total, tails


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


# ---------------------------------------------------------------------------
# weak-coupling localized forms


def weak_coupling_localize(k: GKSLKernel, grid: TimeGrid) -> MapTrajectory:
    """Mixed equation: drift acting on Lambda(t), jump memory on Lambda(s).

    Solved in the drift frame with the two-time hatted jump operators
    A-bar_k(t,s) = V_t^{-1} A_k V_s; the frame makes every quadrature
    increment a sandwich map with positive weight, so the discrete map is
    completely positive by construction at every node (trace preservation, by
    contrast, holds only through the weak-coupling order).
    """
    k.check_horizon(grid.T)
    split = split_kernel(k)
    d = k.dim
    D = d * d
    M, h = grid.steps, grid.h
    g2 = k.coupling**2

    v_half, vinv_half = _ordered_exponential_tables(split.drift_op, grid)
    v = v_half[::2]
    vinv = vinv_half[::2]
    v_sup = np.einsum("jcd,jab->jcadb", v.conj(), v).reshape(M + 1, D, D)
    vinv_sup = np.einsum("jcd,jab->jcadb", vinv.conj(), vinv).reshape(M + 1, D, D)

    pair_terms = []
    for op in k.jump_ops:
        for pk, ak in op.terms:
            for pl, al in op.terms:
                prof = profile_product(pk, pl.conjugate())
                pair_terms.append((prof, g2 * sandwich_superop(ak, dagger(al))))
    tables = _coarse_tables(pair_terms, grid)

    eye = np.eye(D, dtype=complex)
    hat = np.empty((M + 1, D, D), dtype=complex)
    hat[0] = eye
    y = np.empty((M + 1, D, D), dtype=complex)  # y[j] = V-frame recombination at node j
    y[0] = eye
    f_prev = np.zeros((D, D), dtype=complex)
    for m in range(M):
        i = m + 1
        partial = np.zeros((D, D), dtype=complex)
        diag = np.zeros((D, D), dtype=complex)
        for c, s in tables:
            row = c[i]
            acc = 0.5 * row[0] * y[0]
            if i > 1:
                acc = acc + np.einsum("j,jab->ab", row[1:i], y[1:i])
            partial += s @ (h * acc)
            diag += row[i] * s
        partial = vinv_sup[i] @ partial
        diag_hat = vinv_sup[i] @ diag @ v_sup[i]
        rhs = hat[m] + 0.5 * h * (f_prev + partial)
        x = np.linalg.solve(eye - 0.25 * h * h * diag_hat, rhs)
        hat[i] = x
        y[i] = v_sup[i] @ x
        f_prev = partial + 0.5 * h * (diag_hat @ x)

    meta = {"engine": "drift-frame"}
    return MapTrajectory(grid=grid, dim=d, family="weak-nonlocal-full", maps=y, meta=meta)


def weak_drift_localize(k: GKSLKernel, grid: TimeGrid) -> MapTrajectory:
    """Drift-only weak form: the memory integral's Lambda(s) replaced by Lambda(t).

    The localized drift equation is solved exactly by the ordered exponential,
    Lambda_t = V_t (.) V_t^dag, which is a sandwich map and hence completely
    positive at every node.
    """
    k.check_horizon(grid.T)
    oe = ordered_exponential(k, grid)
    M = grid.steps
    D = k.dim * k.dim
    maps = np.einsum("jcd,jab->jcadb", oe.v.conj(), oe.v).reshape(M + 1, D, D)
    meta = {"inversion_defect": oe.inversion_defect()}
    return MapTrajectory(grid=grid, dim=k.dim, family="weak-local-drift", maps=maps, meta=meta)


def solve_family(k: GKSLKernel, grid: TimeGrid, family: str, order: int = 8) -> MapTrajectory:
    """Dispatch a kernel to the solver for the named trajectory family."""
    if family == "local-full":
        return solve_local(k, grid)
    if family == "local-jump":
        return solve_local_jump(k, grid)
    if family == "local-drift":
        return solve_local_drift(k, grid)
    if family in ("nonlocal-full", "nonlocal-jump", "nonlocal-drift"):
        return solve_nonlocal(k, grid, part=family.split("-")[1])
    if family == "series-local-jump":
        return jump_series(k, grid, order=order, locality="local")
    if family == "series-nonlocal-jump":
        return jump_series(k, grid, order=order, locality="nonlocal")
    if family == "series-local-full":
        return full_local_series(k, grid, order=order)
    if family == "weak-local-drift":
        return weak_drift_localize(k, grid)
    if family == "weak-nonlocal-full":
        return weak_coupling_localize(k, grid)
    raise ValueError(f"unknown trajectory family {family!r}")
