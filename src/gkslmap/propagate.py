"""Propagators for the two-time master-equation families.

Every solver produces a :class:`~gkslmap.trajectory.MapTrajectory` on a uniform
grid.  The equation families, for a kernel K(t,t') = J(t,t') - D(t,t') split
into a jump (sandwich) part J and a drift part D:

* local:      dLambda/dt = [ int_0^t K(t,s) ds ] Lambda(t)
* nonlocal:   dLambda/dt = int_0^t K(t,s) Lambda(s) ds
* jump / drift variants use J alone (positive sign) or -D alone,
* series:     truncated iterated-integral expansions of the jump equations
              (and, locally, of the full equation),
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
per-row trapezoid sums, evaluated in fixed-size blocks of rows.

Every ODE family goes through one classical 4th-order Runge-Kutta driver,
:func:`_rk4`; its state is the map (local families and the transform route),
the triangular stack of series terms (local series) or the pair (V, Vinv)
(drift frame).  Every nonlocal family goes through one memory core,
:func:`_memory_rows`: row i of the nested-trapezoid memory sum, stacked over
the kernel's terms.  Its coarse (M + 1)^2 profile tables are built once, as
one stack over the terms (:func:`_coarse_tables`), and the march, the final
generator and the series all read that stack.  The implicit trapezoidal
Volterra march (:func:`_volterra`) solves its per-step fixed point exactly
(one D x D linear solve), in the lab frame or, for the weak family, in the
drift frame; the nonlocal series applies the same rows to a known history
and integrates them by a cumulative trapezoid, so the march is the literal
sum of the discrete iterated-integral series.
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
from .linalg import dagger
from .profiles import (
    ConstantProfile,
    ExpProfile,
    GaussianProfile,
    ProductProfile,
    SeparableProfile,
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


def _lattice(terms, qmap: dict, size: int, grid: TimeGrid, stride: int = 1) -> np.ndarray:
    """Integrated sum_k q_k(tau) X_k of (profile, size x size matrix) terms.

    ``stride`` selects every stride-th refined node (2 -> the h/2 lattice).
    """
    n = (_REFINE * grid.steps) // stride + 1
    out = np.zeros((n, size, size), dtype=complex)
    for p, x in terms:
        out += qmap[p][::stride, None, None] * x
    return out


def _part_terms(split: KernelSplit, part: str):
    if part == "jump":
        return list(split.jump_part.terms)
    if part == "drift":
        return [(p, -s) for p, s in split.drift_part.terms]
    if part == "full":
        return list(split.jump_part.terms) + [(p, -s) for p, s in split.drift_part.terms]
    raise ValueError(f"unknown kernel part {part!r}; expected 'full', 'jump' or 'drift'")


def _local_generator(split: KernelSplit, grid: TimeGrid, part: str) -> np.ndarray:
    """Effective generator of one kernel part on the h/2 lattice."""
    terms = _part_terms(split, part)
    qmap = _qtables([p for p, _ in terms], grid)
    return _lattice(terms, qmap, split.dim * split.dim, grid, stride=2)


def _march_meta(gen_final: np.ndarray, grid: TimeGrid) -> dict:
    hg = grid.h * float(np.linalg.norm(gen_final))
    meta = {"h_times_gen_norm": hg}
    if hg > 1.0:
        meta["stepsize_warning"] = True
    return meta


def _sandwich_stack(a: np.ndarray) -> np.ndarray:
    """Superoperators of rho -> a_j rho a_j^dag, i.e. kron(conj(a_j), a_j), per node j."""
    n, d, _ = a.shape
    return np.einsum("jcd,jab->jcadb", a.conj(), a).reshape(n, d * d, d * d)


# ---------------------------------------------------------------------------
# the Runge-Kutta driver


def _rk4(coeffs: np.ndarray, y0: np.ndarray, h: float, deriv):
    """Classical Runge-Kutta march of dy/dt = deriv(c(t), y) from y0.

    ``coeffs`` holds c on the half-step lattice, so step m draws on
    coeffs[2m], coeffs[2m + 1] and coeffs[2m + 2].  Yields y0, then the state
    after every step.
    """
    y = y0
    yield y
    for m in range((len(coeffs) - 1) // 2):
        c0, cm, c1 = coeffs[2 * m], coeffs[2 * m + 1], coeffs[2 * m + 2]
        k1 = deriv(c0, y)
        k2 = deriv(cm, y + 0.5 * h * k1)
        k3 = deriv(cm, y + 0.5 * h * k2)
        k4 = deriv(c1, y + h * k3)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        yield y


def _local_march(g_half: np.ndarray, h: float) -> np.ndarray:
    """March dX/dt = G(t) X from the identity; G given on the h/2 lattice."""
    eye = np.eye(g_half.shape[1], dtype=complex)
    return np.array(list(_rk4(g_half, eye, h, np.matmul)))


def _series_shift(g: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Right-hand side of the triangular stack dP_n/dt = G(t) P_{n-1}."""
    d = np.zeros_like(y)
    d[1:] = np.matmul(g, y[:-1])
    return d


def _frame_shift(w: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Right-hand side of V' = -A_int V and Vinv' = Vinv A_int, stacked as y = (V, Vinv)."""
    d = np.empty_like(y)
    d[0] = -w @ y[0]
    d[1] = y[1] @ w
    return d


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
    g_half = _local_generator(split_kernel(k), grid, part)
    maps = _local_march(g_half, grid.h)
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


def _ordered_exponential_tables(drift: TwoTimeOperatorFunction, grid: TimeGrid):
    """March V' = -A_int(t) V and Vinv' = +Vinv A_int(t) at step h/2.

    A_int is tabulated on the h/4 lattice so every stage lands on a lattice
    point.  Returns (V, Vinv) on the h/2 lattice.
    """
    qmap = _qtables([p for p, _ in drift.terms], grid)
    w_fine = _lattice(drift.terms, qmap, drift.dim, grid)
    eye = np.eye(drift.dim, dtype=complex)
    vv = np.array(list(_rk4(w_fine, np.stack([eye, eye]), grid.h / 2.0, _frame_shift)))
    return vv[:, 0], vv[:, 1]


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

    The hatted jump generator is Vinv_s(.)Vinv_s^dag . G_jump(s) . V_s(.)V_s^dag
    on the h/2 lattice, i.e. the jump generator built from the hatted
    operators A~_k(s) = V_s^{-1} A_k V_s, with the jump q-tables shared with
    :func:`solve_local`.  The route marches dLambdahat/dt = that generator
    times Lambdahat and conjugates back by the sandwich map of V_t.  Agreement
    with the direct route is a structural consistency check: both integrate
    the same equation through different representations.
    """
    k.check_horizon(grid.T)
    split = split_kernel(k)
    v_half, vinv_half = _ordered_exponential_tables(split.drift_op, grid)
    v_sup = _sandwich_stack(v_half)
    g_hat = _sandwich_stack(vinv_half) @ _local_generator(split, grid, "jump") @ v_sup
    maps = v_sup[::2] @ _local_march(g_hat, grid.h)
    meta = _march_meta(g_hat[-1], grid)
    meta["engine"] = "transform"
    return MapTrajectory(grid=grid, dim=k.dim, family="local-full", maps=maps, meta=meta)


# ---------------------------------------------------------------------------
# nonlocal (Volterra) families


def _coarse_tables(terms, grid: TimeGrid, D: int):
    """Stacked tables of (profile, D x D matrix) terms on grid nodes.

    Returns (c, s): c[k, i, j] = c_k(t_i, t_j) and s[k] = S_k.  Each profile is
    written straight into its slice of the stack, so the (M+1)^2 tables exist
    once.
    """
    ts = grid.nodes()
    c = np.empty((len(terms), grid.steps + 1, grid.steps + 1), dtype=complex)
    s = np.empty((len(terms), D, D), dtype=complex)
    for k, (p, sk) in enumerate(terms):
        c[k] = p(ts[:, None], ts[None, :])
        s[k] = sk
    return c, s


def _final_generator(tables, grid: TimeGrid) -> np.ndarray:
    """Node-trapezoid generator at t_M: sum_k (weights [h/2, h, ..., h, h/2] . c_k[M]) S_k."""
    w_last = np.full(grid.steps + 1, grid.h)
    w_last[0] = w_last[-1] = 0.5 * grid.h
    c, s = tables
    return np.asarray(sum(np.einsum("j,j->", w_last, ck[-1]) * sk for ck, sk in zip(c, s)))


def _memory_rows(tables, h: float, D: int):
    """The Volterra memory core: one row of the nested-trapezoid memory sum.

    ``tables`` is the stack (c, s) of :func:`_coarse_tables`.  Returns
    ``row(i, flat) -> (partial, diag)`` for a history X_0..X_{i-1} given as
    ``flat = X.reshape(-1, D * D)``:

        partial = h sum_k S_k [c_k(t_i, t_0) X_0 / 2 + sum_{0<j<i} c_k(t_i, t_j) X_j]
        diag    = sum_k c_k(t_i, t_i) S_k

    so the trapezoid memory integral at t_i is partial + (h/2) diag X_i.
    """
    c_stack, s_stack = tables
    n_t = len(s_stack)
    if not n_t:
        zero = np.zeros((D, D), dtype=complex)
        return lambda i, flat: (zero, zero)
    # The stacked tables make each row two BLAS products instead of a
    # per-table Python loop.
    s_row = s_stack.transpose(1, 0, 2).reshape(D, n_t * D)  # [S_0 S_1 ...]

    def row(i, flat):
        rows = c_stack[:, i, :i].copy()
        rows[:, 0] *= 0.5
        y = (rows @ flat[:i]).reshape(n_t * D, D)
        return s_row @ (h * y), np.einsum("k,kab->ab", c_stack[:, i, i], s_stack)

    return row


def _volterra(tables, grid: TimeGrid, dim: int, frame=None) -> np.ndarray:
    """Implicit trapezoidal march of dX/dt = int_0^t K(t,s) X(s) ds.

    The corrector fixed point is linear in X_{m+1} (only the diagonal
    quadrature weight touches it), so it is solved exactly per step.  The
    resulting discrete solution satisfies X = 1 + Q X with Q the nested
    trapezoid integral operator — the same Q the nonlocal series iterates.

    With ``frame`` = (Vinv_sup, V_sup), the sandwich superoperator stacks of
    Vinv and V on grid nodes, the march runs in the drift frame on
    Xhat = Vinv_sup X: the memory sum acts on the lab-frame history
    X_j = V_sup[j] Xhat_j and is pulled back by Vinv_sup[i].  Returns the
    lab-frame maps X.
    """
    M, h = grid.steps, grid.h
    D = dim * dim
    row = _memory_rows(tables, h, D)
    eye = np.eye(D, dtype=complex)
    maps = np.empty((M + 1, D, D), dtype=complex)
    maps[0] = eye
    flat = maps.reshape(M + 1, D * D)
    x = eye
    f_prev = np.zeros((D, D), dtype=complex)
    for i in range(1, M + 1):
        partial, diag = row(i, flat)
        if frame is not None:
            partial = frame[0][i] @ partial
            diag = frame[0][i] @ diag @ frame[1][i]
        rhs = x + 0.5 * h * (f_prev + partial)
        x = np.linalg.solve(eye - 0.25 * h * h * diag, rhs)
        maps[i] = x if frame is None else frame[1][i] @ x
        f_prev = partial + 0.5 * h * (diag @ x)
    return maps


def _solve_nonlocal_terms(terms, grid: TimeGrid, dim: int, family: str) -> MapTrajectory:
    tables = _coarse_tables(terms, grid, dim * dim)
    maps = _volterra(tables, grid, dim)
    meta = _march_meta(_final_generator(tables, grid), grid)
    return MapTrajectory(grid=grid, dim=dim, family=family, maps=maps, meta=meta)


def solve_nonlocal(k: GKSLKernel, grid: TimeGrid, part: str = "full") -> MapTrajectory:
    """Nonlocal trajectory: the memory integral acts on Lambda(s), not Lambda(t)."""
    k.check_horizon(grid.T)
    terms = _part_terms(split_kernel(k), part)
    return _solve_nonlocal_terms(terms, grid, k.dim, f"nonlocal-{part}")


def solve_nonlocal_from_drift(drift: TwoTimeOperatorFunction, grid: TimeGrid) -> MapTrajectory:
    """Nonlocal drift-only trajectory for an arbitrary drift-operator function A.

    This is the map the CP counterexamples probe: dLambda/dt =
    -int_0^t [A(t,s) Lambda(s)(.) + Lambda(s)(.) A(t,s)^dag] ds.
    """
    terms = [(p, -s) for p, s in drift_superop_terms(drift)]
    traj = _solve_nonlocal_terms(terms, grid, drift.dim, "nonlocal-drift")
    traj.meta["source"] = "drift-operator"
    return traj


# ---------------------------------------------------------------------------
# series solutions


def _local_series(g_half: np.ndarray, h: float, order: int):
    """Per-node sums sum_n P_n of the triangular stack dP_n/dt = G(t) P_{n-1}.

    Also returns the Frobenius norm of the order-N term (the truncation
    diagnostic).  Because the stack is marched by the same Runge-Kutta step as
    the plain local equation, the full sum telescopes to the plain discrete
    solution up to the truncated tail.
    """
    D = g_half.shape[1]
    y0 = np.zeros((order + 1, D, D), dtype=complex)
    y0[0] = np.eye(D)
    sums, tails = [], []
    for y in _rk4(g_half, y0, h, _series_shift):
        sums.append(y.sum(axis=0))
        tails.append(np.linalg.norm(y[order]))
    return np.array(sums), tails


def _nonlocal_series(tables, grid: TimeGrid, dim: int, order: int):
    """Iterate the nested-trapezoid integral operator: R_n = Q(R_{n-1}), R_0 = 1.

    Q applies the memory rows to the whole history R_{n-1}, then integrates
    the result by a cumulative trapezoid.
    """
    M, h = grid.steps, grid.h
    D = dim * dim
    row = _memory_rows(tables, h, D)
    r = np.broadcast_to(np.eye(D, dtype=complex), (M + 1, D, D)).copy()
    total = r.copy()
    f = np.zeros_like(r)
    for _ in range(order):
        flat = r.reshape(M + 1, D * D)
        for i in range(1, M + 1):
            partial, diag = row(i, flat)
            f[i] = partial + 0.5 * h * (diag @ r[i])
        r = np.zeros_like(f)
        r[1:] = np.cumsum(0.5 * h * (f[:-1] + f[1:]), axis=0)
        total += r
    tails = np.linalg.norm(r.reshape(M + 1, -1), axis=1)
    return total, tails


def _series(k: GKSLKernel, grid: TimeGrid, order: int, family: str) -> MapTrajectory:
    """Series family ``series-<locality>-<part>`` truncated at ``order``."""
    if order < 1:
        raise ValueError(f"series order must be >= 1, got {order}")
    k.check_horizon(grid.T)
    split = split_kernel(k)
    _, locality, part = family.split("-")
    if locality == "local":
        g_half = _local_generator(split, grid, part)
        sums, tails = _local_series(g_half, grid.h, order)
        meta = _march_meta(g_half[-1], grid)
    else:
        tables = _coarse_tables(_part_terms(split, part), grid, k.dim * k.dim)
        sums, tails = _nonlocal_series(tables, grid, k.dim, order)
        meta = {}
    meta.update(
        {
            "order": int(order),
            "tail_norm": [float(x) for x in tails],
            "tail_max": float(np.max(tails)),
        }
    )
    return MapTrajectory(grid=grid, dim=k.dim, family=family, maps=sums, meta=meta)


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
    if locality not in ("local", "nonlocal"):
        raise ValueError(f"unknown locality {locality!r}; expected 'local' or 'nonlocal'")
    return _series(k, grid, order, f"series-{locality}-jump")


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
    v_half, vinv_half = _ordered_exponential_tables(split.drift_op, grid)
    frame = (_sandwich_stack(vinv_half[::2]), _sandwich_stack(v_half[::2]))
    tables = _coarse_tables(split.jump_part.terms, grid, k.dim * k.dim)
    maps = _volterra(tables, grid, k.dim, frame)
    meta = {"engine": "drift-frame"}
    return MapTrajectory(grid=grid, dim=k.dim, family="weak-nonlocal-full", maps=maps, meta=meta)


def weak_drift_localize(k: GKSLKernel, grid: TimeGrid) -> MapTrajectory:
    """Drift-only weak form: the memory integral's Lambda(s) replaced by Lambda(t).

    The localized drift equation is solved exactly by the ordered exponential,
    Lambda_t = V_t (.) V_t^dag, which is a sandwich map and hence completely
    positive at every node.
    """
    k.check_horizon(grid.T)
    oe = ordered_exponential(k, grid)
    meta = {"inversion_defect": oe.inversion_defect()}
    return MapTrajectory(
        grid=grid, dim=k.dim, family="weak-local-drift", maps=_sandwich_stack(oe.v), meta=meta
    )


# ---------------------------------------------------------------------------
# the family table

# One entry per tag of FAMILY_TAGS, in its order: (kernel, grid, order) -> trajectory.
_FAMILIES = {
    "local-full": lambda k, grid, order: solve_local(k, grid),
    "local-jump": lambda k, grid, order: solve_local_jump(k, grid),
    "local-drift": lambda k, grid, order: solve_local_drift(k, grid),
    "nonlocal-full": lambda k, grid, order: solve_nonlocal(k, grid, part="full"),
    "nonlocal-jump": lambda k, grid, order: solve_nonlocal(k, grid, part="jump"),
    "nonlocal-drift": lambda k, grid, order: solve_nonlocal(k, grid, part="drift"),
    "series-local-jump": lambda k, grid, order: jump_series(k, grid, order, "local"),
    "series-nonlocal-jump": lambda k, grid, order: jump_series(k, grid, order, "nonlocal"),
    "series-local-full": lambda k, grid, order: _series(k, grid, order, "series-local-full"),
    "weak-local-drift": lambda k, grid, order: weak_drift_localize(k, grid),
    "weak-nonlocal-full": lambda k, grid, order: weak_coupling_localize(k, grid),
}


def solve_family(k: GKSLKernel, grid: TimeGrid, family: str, order: int = 8) -> MapTrajectory:
    """Dispatch a kernel to the solver for the named trajectory family."""
    if family not in _FAMILIES:
        raise ValueError(f"unknown trajectory family {family!r}")
    return _FAMILIES[family](k, grid, order)
