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
per-row trapezoid sums, evaluated in fixed-size blocks of rows.  The nonlocal
memory sums are trapezoid sums over grid nodes, read one row at a time from
the same normal form, so they too take O(M) memory per profile.

Every ODE family goes through one classical 4th-order Runge-Kutta driver,
:func:`_rk4`; its state is the map (local families and the transform route),
the triangular stack of series terms (local series) or the pair (V, Vinv)
(drift frame).  Every nonlocal family goes through one memory core,
:func:`_memory_rows`: row i of the nested-trapezoid memory sum, stacked over
the kernel's distinct profiles.  Terms with equal profiles are merged first,
their superoperators summed, and each row is formed when the march reaches it
(:func:`_memory_source`): f_i c_{i-j} g_j from three node vectors for a
normal-form profile, and from blocks of evaluated rows for the others, so no
(M + 1)^2 table exists.  The march, the final generator and the series all
read that source.  The implicit trapezoidal Volterra march
(:func:`_volterra`) solves its per-step fixed point exactly (one D x D linear
solve), in the lab frame or, for the weak family, in the drift frame; the
nonlocal series applies each row to the known histories of all its orders in
one product and integrates them by a cumulative trapezoid, so the march is the
literal sum of the discrete iterated-integral series.
"""

from __future__ import annotations

import math

import numpy as np

from .kernel import (
    GKSLKernel,
    KernelSplit,
    TwoTimeOperatorFunction,
    drift_superop_terms,
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

# Rows per block where profiles outside the normal form are evaluated row by
# row: their q-tables and their nonlocal memory rows.
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


def _form_vectors(form, taus: np.ndarray):
    """Node vectors (c, f, g) of a normal form on a uniform lattice from 0: c_k = c(tau_k)."""
    conv, f, g = form
    n = len(taus)
    return (
        _product([p(taus, 0.0) for p in conv], n),
        _product([fac(taus) for fac in f], n),
        _product([fac(taus) for fac in g], n),
    )


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
    conv, _, g = form
    c, fv, gv = _form_vectors(form, taus)
    if not g:
        csum = np.cumsum(c)
    elif not conv:
        csum = np.cumsum(gv)
    else:
        csum = np.convolve(c, gv)[: len(taus)]
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


def _memory_source(terms, grid: TimeGrid, D: int):
    """Row source of (profile, D x D matrix) terms on grid nodes: (rows, s).

    Terms with equal profiles are merged, their matrices summed, so s[k] is the
    summed matrix of the k-th distinct profile and ``rows(i)`` returns a fresh
    (len(s), i + 1) array with rows(i)[k, j] = c_k(t_i, t_j), j <= i.  A profile
    with a normal form c(t - s) f(t) g(s) keeps three node vectors and its row
    is f_i c_{i-j} g_j.  The others are evaluated on blocks of _ROW_BLOCK rows,
    the block of the last row asked for kept, so rows asked for in increasing
    order evaluate each point once.  No (M + 1)^2 array is formed.
    """
    merged = {}
    for p, sk in terms:
        prev = merged.get(p)
        merged[p] = sk if prev is None else prev + sk
    forms = [(p, _normal_form(p), sk) for p, sk in merged.items()]
    closed = [(form, sk) for _, form, sk in forms if form is not None]
    other = [(p, sk) for p, form, sk in forms if form is None]
    s = np.array([sk for _, sk in closed + other], dtype=complex).reshape(-1, D, D)
    ts = grid.nodes()
    n, nc = len(ts), len(closed)
    cv = np.empty((nc, n), dtype=complex)
    fv = np.empty_like(cv)
    gv = np.empty_like(cv)
    for r, (form, _) in enumerate(closed):
        cv[r], fv[r], gv[r] = _form_vectors(form, ts)
    block = [None, None]  # first row and values of the evaluated block

    def rows(i):
        out = np.empty((len(s), i + 1), dtype=complex)
        np.multiply(cv[:, i::-1], gv[:, : i + 1], out=out[:nc])
        out[:nc] *= fv[:, i, None]
        if other:
            a = i - i % _ROW_BLOCK
            if block[0] != a:
                b = min(a + _ROW_BLOCK, n)
                vals = [p(ts[a:b, None], ts[None, :b]) for p, _ in other]
                block[:] = a, np.array(vals, dtype=complex)
            out[nc:] = block[1][:, i - a, : i + 1]
        return out

    return rows, s


def _final_generator(source, grid: TimeGrid) -> np.ndarray:
    """Node-trapezoid generator at t_M: sum_k (weights [h/2, h, ..., h, h/2] . c_k(t_M, .)) S_k."""
    w_last = np.full(grid.steps + 1, grid.h)
    w_last[0] = w_last[-1] = 0.5 * grid.h
    rows, s = source
    return np.einsum("k,kab->ab", rows(grid.steps) @ w_last, s)


def _memory_rows(source, h: float, D: int):
    """The Volterra memory core: one row of the nested-trapezoid memory sum.

    ``source`` is the pair (rows, s) of :func:`_memory_source`.  Returns
    ``row(i, flat) -> (partial, diag)`` for histories X_0..X_{i-1} given as
    ``flat``, whose row j holds w histories' X_j side by side (w * D * D
    columns):

        partial[n] = h sum_k S_k [c_k(t_i, t_0) X_0 / 2 + sum_{0<j<i} c_k(t_i, t_j) X_j]
        diag       = sum_k c_k(t_i, t_i) S_k

    so the trapezoid memory integral of history n at t_i is
    partial[n] + (h/2) diag X_i.
    """
    rows, s = source
    n_p = len(s)
    # Row i of every distinct profile at once makes each memory row two BLAS
    # products instead of a per-profile Python loop.
    s_row = s.transpose(1, 0, 2).reshape(D, n_p * D)  # [S_0 S_1 ...]

    def row(i, flat):
        c = rows(i)
        diag = np.einsum("k,kab->ab", c[:, i], s)
        c[:, 0] *= 0.5
        w = flat.shape[1] // (D * D)
        y = (c[:, :i] @ flat[:i]).reshape(n_p, w, D, D).transpose(0, 2, 1, 3)
        partial = s_row @ (h * y.reshape(n_p * D, w * D))
        return partial.reshape(D, w, D).transpose(1, 0, 2), diag

    return row


def _volterra(source, grid: TimeGrid, dim: int, frame=None) -> np.ndarray:
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
    row = _memory_rows(source, h, D)
    eye = np.eye(D, dtype=complex)
    maps = np.empty((M + 1, D, D), dtype=complex)
    maps[0] = eye
    flat = maps.reshape(M + 1, D * D)
    x = eye
    f_prev = np.zeros((D, D), dtype=complex)
    for i in range(1, M + 1):
        partial, diag = row(i, flat)
        partial = partial[0]
        if frame is not None:
            partial = frame[0][i] @ partial
            diag = frame[0][i] @ diag @ frame[1][i]
        rhs = x + 0.5 * h * (f_prev + partial)
        x = np.linalg.solve(eye - 0.25 * h * h * diag, rhs)
        maps[i] = x if frame is None else frame[1][i] @ x
        f_prev = partial + 0.5 * h * (diag @ x)
    return maps


def _solve_nonlocal_terms(terms, grid: TimeGrid, dim: int, family: str) -> MapTrajectory:
    source = _memory_source(terms, grid, dim * dim)
    maps = _volterra(source, grid, dim)
    meta = _march_meta(_final_generator(source, grid), grid)
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


def _nonlocal_series(source, grid: TimeGrid, dim: int, order: int):
    """Iterate the nested-trapezoid integral operator: R_n = Q(R_{n-1}), R_0 = 1.

    Q applies the memory rows to the history R_{n-1}, then integrates the
    result by a cumulative trapezoid.  The march is row-outer: row i is formed
    once and applied to the histories of R_0..R_{N-1} in one product, then
    each order steps its trapezoid sum in turn, since R_n(t_i) needs
    R_{n-1}(t_i).
    """
    M, h = grid.steps, grid.h
    D = dim * dim
    row = _memory_rows(source, h, D)
    eye = np.eye(D, dtype=complex)
    hist = np.zeros((M + 1, order, D, D), dtype=complex)  # hist[j, n] = R_n(t_j)
    hist[:, 0] = eye
    flat = hist.reshape(M + 1, order * D * D)
    total = np.empty((M + 1, D, D), dtype=complex)
    total[0] = eye
    tails = np.zeros(M + 1)
    f_prev = np.zeros((order, D, D), dtype=complex)  # f_n(t_{i-1}), n = 1..N
    r_prev = np.zeros((order, D, D), dtype=complex)  # R_n(t_{i-1}), n = 1..N
    for i in range(1, M + 1):
        partial, diag = row(i, flat)
        r = eye
        acc = eye.copy()
        for n in range(order):
            f = partial[n] + 0.5 * h * (diag @ r)
            r = r_prev[n] + 0.5 * h * (f_prev[n] + f)
            f_prev[n], r_prev[n] = f, r
            if n + 1 < order:
                hist[i, n + 1] = r
            acc += r
        total[i] = acc
        tails[i] = np.linalg.norm(r)
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
        source = _memory_source(_part_terms(split, part), grid, k.dim * k.dim)
        sums, tails = _nonlocal_series(source, grid, k.dim, order)
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
    source = _memory_source(split.jump_part.terms, grid, k.dim * k.dim)
    maps = _volterra(source, grid, k.dim, frame)
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
