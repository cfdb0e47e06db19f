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
tables take O(M) memory.  Every profile declares its normal form
(``Profile.form``), a sum of terms c(t - s) f(t) g(s) of single-variable
factors: one term for the closed kinds (constant, exponential, gaussian,
separable), n terms with c = 1 and piecewise-linear f and g for a table of n
knots, and for a product the outer product of its factors' sums, less the
terms that vanish everywhere.  Its
q-table is the sum of its terms' tables, each one causal discrete
convolution of c and g on the lattice (a running sum when either is 1),
scaled by f.  In a product term a constant conv factor rides with f, so
only a term with an exponential or gaussian conv factor and a g factor takes
the O(M^2) direct convolution.  The nonlocal memory sums are trapezoid sums over grid nodes,
read from the same terms, so they too take O(M) memory per term.

Every ODE family is linear, dy/dt = B(t) y, so a classical 4th-order
Runge-Kutta step is a fixed polynomial in B at its three stage nodes.  One
driver (:func:`_march`) marches both the maps of the local families and
the transform route and the drift frame's pair (V, Vinv^T): a builder forms
a span's step matrices, and a prefix product over chunks of _CHUNK steps
(:func:`_chunked_product`) advances the states, so a march makes one
sequential product per chunk, not per step.  The maps build the stage form,
three stacked products per step (:func:`_stage_steps`).  The frame sums the
polynomial's parts of each degree (:func:`_step_parts`), six stacked
products per step formed once for all its step lengths, in real form, B
embedded as [[Re, -Im], [Im, Re]] (:func:`_real_form`).  The one other
Runge-Kutta loop, the triangular stack of local series terms
(:func:`_local_series`), keeps the parts apart, since its step acts on a
stack of orders: order n steps by the part of degree p from order n - p.
Every nonlocal family goes through one memory core, built by
:func:`_memory` inside its march: the nested-trapezoid memory sum at node i,
stacked over the normal-form terms of the kernel's distinct profiles
(terms with equal profiles are merged first, their superoperators
summed).  A term whose conv factors are constant or exponential,
c(tau) = C e^{a tau}, keeps a running history sum stepped exactly by
e^{a h}, at O(D^2) per step; a table's terms all do, with a = 0.  A term with
a gaussian conv factor forms row i when the march reaches it, f_i c_{i-j} g_j
from three node vectors, so no (M + 1)^2 table exists.  The implicit
trapezoidal Volterra march (:func:`_volterra`) solves its per-step fixed
point exactly, in the lab frame or, for the weak family, in the drift frame:
per node, one product of the step matrices [A_i E_i], formed per block of
nodes, with the march state stacked over the memory row.
A_i = (1 - c diag_i)^{-1} is summed as a Neumann series whose powers of
diag_i all couplings share, where a bound on that series puts it within u/2
of the inverse (:func:`_step_matrices`); elsewhere it is inverted.  The
nonlocal series steps the histories of all its orders together and
integrates them by a cumulative trapezoid, so the march is the literal sum
of the discrete iterated-integral series.

A kernel carries its coupling only as an overall g^2, and both parts of its
split are linear in it, so the kernel at g is s = g^2 times the kernel at
g = 1.  Every family marches along a leading coupling axis of W such scales
(:func:`_family_march`).  A Runge-Kutta step of dy/dt = s B(t) y with step h
is the step of dy/dt = B(t) y with step s h, at the same stage times, so a
map march or a drift frame at coupling g takes step g^2 h on the g = 1
generator: it forms neither g^2 B nor scaled parts R_p, and a step matrix
and the chunks do not depend on W.  The Volterra histories march node-major
side by side, each with its own step matrices A_i and E_i, whose two step
constants (h/2 and h^2/4) carry s; the order-n term of a series scales as
s^n, so it is marched once, at s = 1.
Stacked work goes in blocks of at least 64 matrices over every leading axis,
W included, and as many more as fit in 64 d = 3 superoperators' entries
(:func:`~gkslmap.linalg.block_len`).  A single solve is the width-1
case, at scale 1 on the kernel's own split.  Every march writes its nodes
in the blocks of one helper (:func:`_blocks`), which can show each written
block and its old contents to a visitor.  A coupling scan
(:func:`family_distances`) marches each family of its pair once for all
couplings, drift frames first; the second family marches in the first
family's output array, visited by the distance (:func:`_raise_distance`),
so the scan holds one (M + 1) W D^2 array.
A march neither raises nor warns on its numerics (``np.errstate(all="ignore")``);
a singular Volterra step makes its coupling NaN.  One judge (:func:`_judged`)
raises FloatingPointError on a solve's non-finite map entry or meta number;
a scan's failed coupling has a NaN distance.
"""

from __future__ import annotations

import functools
from collections import namedtuple

import numpy as np

from .kernel import (
    GKSLKernel,
    KernelSplit,
    TwoTimeOperatorFunction,
    drift_superop_terms,
    split_kernel,
)
from .linalg import block_len, frobenius
from .trajectory import FAMILY_TAGS, MapTrajectory, OrderedExponential, TimeGrid

__all__ = [
    "solve_local",
    "solve_nonlocal_from_drift",
    "ordered_exponential_from_drift",
    "solve_local_full_via_transform",
    "solve_family",
    "family_distances",
]

# Inner-integral lattice refinement relative to the grid step.  Factor 4 puts
# lattice points on every Runge-Kutta stage of both the map march (stages at
# h/2) and the drift-frame march (step h/2, stages at h/4).
_REFINE = 4

# The coupling axis of a single solve: one kernel at scale 1.
_UNIT = np.ones(1)

# Steps per chunk of the map march's prefix product (:func:`_chunked_product`).
_CHUNK = 8


# ---------------------------------------------------------------------------
# quadrature tables


def _fine_nodes(grid: TimeGrid) -> np.ndarray:
    return np.linspace(0.0, grid.T, _REFINE * grid.steps + 1)


def _form_vectors(term, taus: np.ndarray):
    """Node vectors (c, f, g) of a normal-form term on a uniform lattice from 0: c_k = c(tau_k)."""
    ones = np.ones(len(taus), dtype=complex)
    return tuple(functools.reduce(np.multiply, [fac(taus) for fac in part], ones) for part in term)


def _qtable(profile, taus: np.ndarray, hf: float) -> np.ndarray:
    """q[i] = trapezoid of profile(tau_i, s) over lattice points s <= tau_i.

    ``taus`` is a uniform lattice from 0.  The table is the sum of its normal
    form's term tables (zero for no terms), started from the first term
    (0.0 + -0.0 would lose the sign bit).  For a term c(t - s) f(t) g(s) with c_k = c(tau_k), the row sum
    over j <= i is the causal convolution f_i (c * g)_i.  With no conv or no g
    factor it is a running sum, O(M); otherwise (an exponential or gaussian
    conv factor with a g factor; in a product a constant conv factor rides
    with f) a direct sum, O(M^2), whose rounding stays relative to the terms,
    where an FFT's is relative to the table's maximum.
    """
    q = None
    for term in profile.form:
        conv, _, g = term
        c, fv, gv = _form_vectors(term, taus)
        if not g:
            csum = np.cumsum(c)
        elif not conv:
            csum = np.cumsum(gv)
        else:
            csum = np.convolve(c, gv)[: len(taus)]
        qt = hf * fv * (csum - 0.5 * c * gv[0] - 0.5 * c[0] * gv)
        qt[0] = 0.0
        q = qt if q is None else q + qt
    return np.zeros(len(taus), dtype=complex) if q is None else q


def _merge_terms(terms) -> dict:
    """{profile: summed matrix} of (profile, matrix) terms, in first-seen order."""
    merged = {}
    for p, x in terms:
        prev = merged.get(p)
        merged[p] = x if prev is None else prev + x
    return merged


def _lattice(terms, size: int, grid: TimeGrid, stride: int = 1) -> np.ndarray:
    """Integrated sum_k q_k(tau) X_k of (profile, size x size matrix) terms.

    Terms with equal profiles are merged first, their matrices summed in
    first-seen order, so each distinct profile has one q-table, taken at every
    stride-th refined node (2 -> the h/2 lattice) into one column of a
    (nodes, P) array.  The lattice is then the one product of that array with
    the (P, size^2) stack of the merged matrices.
    """
    taus, hf = _fine_nodes(grid), grid.h / _REFINE
    n = len(taus[::stride])
    merged = _merge_terms(terms)
    q = np.empty((n, len(merged)), dtype=complex)
    for k, p in enumerate(merged):
        q[:, k] = _qtable(p, taus, hf)[::stride]
    x = np.array(list(merged.values()), dtype=complex).reshape(len(merged), size * size)
    return (q @ x).reshape(n, size, size)


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
    return _lattice(_part_terms(split, part), split.dim * split.dim, grid, stride=2)


def _march_meta(gen_final: np.ndarray, h: float) -> dict:
    hg = h * float(np.linalg.norm(gen_final))
    meta = {"h_times_gen_norm": hg}
    if hg > 1.0:
        meta["stepsize_warning"] = True
    return meta


def _maps(n: int, w: int, D: int, out=None) -> np.ndarray:
    """``out``, or a new (n, W, D, D) map array, with the identity at node 0."""
    if out is None:
        out = np.empty((n, w, D, D), dtype=complex)
    out[0] = np.eye(D)
    return out


def _sandwich_stack(a: np.ndarray) -> np.ndarray:
    """Superoperators of rho -> a rho a^dag, i.e. kron(conj(a), a), over a's leading axes."""
    d = a.shape[-1]
    sup = np.einsum("...cd,...ab->...cadb", a.conj(), a)
    return sup.reshape(a.shape[:-2] + (d * d, d * d))


# ---------------------------------------------------------------------------
# Runge-Kutta step matrices


def _step_parts(b: np.ndarray, h):
    """Classical Runge-Kutta step matrices of the linear dy/dt = B(t) y, by degree.

    ``b`` holds B on the half-step lattice along axis 0, so step m draws on
    B0, Bm, B1 = b[2m], b[2m + 1], b[2m + 2] and takes y to
    (1 + R1 + R2 + R3 + R4) y, R_p of degree p in B:

        R1 = h/6 (B0 + 4 Bm + B1)          R3 = h^3/12 (Bm Bm B0 + B1 Bm Bm)
        R2 = h^2/6 (Bm B0 + Bm Bm + B1 Bm)  R4 = h^4/24 B1 Bm Bm B0

    The products of B are formed once; an array ``h`` of step lengths, one
    per coupling, broadcasts against ``b``'s other leading axes.  A generator:
    yields R1, R2, R3, R4 in turn, each stacked over the steps along axis 0
    and formed only when asked for, so a caller that drops each part before
    asking for the next holds one at a time.
    """
    b0, bm, b1 = b[:-1:2], b[1::2], b[2::2]
    yield (h / 6.0) * (b0 + 4.0 * bm + b1)
    mb0, b1m = bm @ b0, b1 @ bm
    yield (h * h / 6.0) * (mb0 + bm @ bm + b1m)
    yield (h**3 / 12.0) * (bm @ mb0 + b1m @ bm)
    yield (h**4 / 24.0) * (b1m @ mb0)


def _summed_parts(b: np.ndarray, h, out: np.ndarray) -> None:
    """Writes the step matrices 1 + R1 + R2 + R3 + R4 of :func:`_step_parts` into ``out``,
    adding each part as it is formed, so no two parts are held at once."""
    out[...] = np.eye(b.shape[-1])
    for part in _step_parts(b, h):
        out += part
        del part  # before the next part is formed


def _blocks(out: np.ndarray, start: int, size: int, visit=None):
    """Spans [a, b) of ``out``'s nodes from ``start``, ``size`` nodes each, for a march to write.

    With ``visit``, each span's old contents are copied before it is yielded,
    and visit(out[a:b], old) is called when the march asks for the next span
    or the end.
    """
    for a in range(start, len(out), size):
        b = min(a + size, len(out))
        old = None if visit is None else out[a:b].copy()
        yield a, b
        if visit is not None:
            visit(out[a:b], old)
            del old  # before the next span's copy


def _raise_distance(dist: np.ndarray, new: np.ndarray, old: np.ndarray) -> None:
    """Raise dist[n] to the largest Frobenius norm of new - old at coupling n.

    A visitor of :func:`_blocks` over spans of shape (nodes, W, D, D); ``old``
    is overwritten by the difference, so no other span-sized array is formed.
    A non-finite gap makes dist[n] NaN for good.
    """
    diff = np.subtract(new, old, out=old)
    re, im = diff.real, diff.imag
    gap = np.einsum("...ij,...ij->...", re, re) + np.einsum("...ij,...ij->...", im, im)
    np.maximum(dist, np.sqrt(gap.max(axis=0)), out=dist)


def _stage_steps(b: np.ndarray, h, out: np.ndarray) -> None:
    """Classical Runge-Kutta step matrices of the linear dy/dt = B(t) y, in stage form.

    ``b`` holds B on the half-step lattice along axis 0, so step m draws on
    B0, Bm, B1 = b[2m], b[2m + 1], b[2m + 2] and takes y to

        (1 + h/6 (B0 + 2 K2 + 2 K3 + K4)) y,
        K2 = Bm (1 + h/2 B0),  K3 = Bm (1 + h/2 K2),  K4 = B1 (1 + h K3),

    the same polynomial as :func:`_step_parts`'s parts in three stacked
    products instead of six.  An array ``h`` of step lengths, one per
    coupling, broadcasts against ``b``'s leading axes.  Writes the step
    matrices into ``out``.
    """
    b0, bm, b1 = b[:-1:2], b[1::2], b[2::2]
    eye = np.eye(b.shape[-1])
    k = bm @ (eye + (0.5 * h) * b0)
    acc = b0 + 2.0 * k
    k = bm @ (eye + (0.5 * h) * k)
    acc += 2.0 * k
    k = b1 @ (eye + h * k)
    acc += k
    np.multiply(h / 6.0, acc, out=out)
    out += eye


def _chunked_product(r: np.ndarray, n: int, y: np.ndarray) -> None:
    """y[j + 1] = r_j ... r_0 y[0] for j < n, by a prefix product over chunks of steps.

    ``r`` has shape (chunks, L, ...) and holds step matrix r_j at
    r[j // L, j % L] for j < n; ``y`` has n + 1 states.  Within each chunk
    the partial products p[c, i] = r[c, i] ... r[c, 0] take one stacked
    product per chunk position.  Each chunk then takes one product that
    carries the state from its start to its end, and one stacked product
    (two with a short last chunk) takes each start to the chunk's inner
    states.
    """
    chunks, L = r.shape[:2]
    last = n - (chunks - 1) * L  # steps in the last chunk
    p = np.empty_like(r)
    p[:, 0] = r[:, 0]
    for i in range(1, L):
        c = chunks if i < last else chunks - 1
        np.matmul(r[:c, i], p[:c, i - 1], out=p[:c, i])
    for c in range(chunks):
        steps = L if c < chunks - 1 else last
        np.matmul(p[c, steps - 1], y[c * L], out=y[c * L + steps])
    full = n // L  # chunks of L steps
    inner = y[1 : full * L + 1].reshape((full, L) + y.shape[1:])[:, :-1]
    np.matmul(p[:full, :-1], y[0 : full * L : L, None].copy(), out=inner)
    if full < chunks:
        np.matmul(p[full, : last - 1], y[full * L], out=y[full * L + 1 : n])


def _march(b: np.ndarray, hs: np.ndarray, steps, out: np.ndarray, visit=None) -> None:
    """Runge-Kutta march of dY/dt = B(t) Y at each of the W step lengths ``hs``, in ``out``.

    ``b`` holds B on the half-step lattice, shape (2M + 1, ..., S, S); its
    middle axes march side by side.  ``out``, shape (M + 1, W, ..., S, n),
    holds the initial states at node 0 and gets the state after every step,
    so coupling s is the s = 1 generator marched at step s h.  The nodes go
    span by span (:func:`_blocks`, which shows each to ``visit``), each span
    a multiple of _CHUNK steps and as long as
    :func:`~gkslmap.linalg.block_len` allows for out's n x n matrices.
    ``steps(b, hs, r)`` writes a span's step matrices into ``r``, the step
    lengths broadcast in front of b's middle axes, and a chunked prefix
    product (:func:`_chunked_product`) advances the states.  Chunks start at
    multiples of _CHUNK steps, so neither a step matrix nor the order of a
    state's products depends on W or on the span length: a single solve is
    the width-1 case.
    """
    hs = np.reshape(hs, (-1,) + (1,) * (b.ndim - 1))
    lead = out.shape[1:-2]
    size = max(1, block_len(out.shape[-1] ** 2, int(np.prod(lead))) // _CHUNK) * _CHUNK
    for a, end in _blocks(out, 1, size, visit):  # steps a - 1 .. end - 2
        r = np.empty((-(-(end - a) // _CHUNK) * _CHUNK,) + lead + b.shape[-2:], dtype=b.dtype)
        steps(b[2 * a - 2 : 2 * end - 1, None], hs, r[: end - a])
        _chunked_product(r.reshape((-1, _CHUNK) + r.shape[1:]), end - a, out[a - 1 : end])


# ---------------------------------------------------------------------------
# local (effective-generator) families


def solve_local(k: GKSLKernel, grid: TimeGrid) -> MapTrajectory:
    """Local full-kernel trajectory: dLambda/dt = G_t Lambda, Lambda_0 = identity."""
    return solve_family(k, grid, "local-full")


# ---------------------------------------------------------------------------
# ordered exponential of the drift operator


def _real_form(b: np.ndarray) -> np.ndarray:
    """[[Re b, -Im b], [Im b, Re b]] over b's leading axes: b acting on real columns [Re y; Im y]."""
    d = b.shape[-1]
    real = np.empty(b.shape[:-2] + (2 * d, 2 * d))
    real[..., :d, :d] = real[..., d:, d:] = b.real
    real[..., d:, :d] = b.imag
    np.negative(b.imag, out=real[..., :d, d:])
    return real


def _ordered_exponential_tables(drift: TwoTimeOperatorFunction, grid: TimeGrid, scales=_UNIT):
    """March V' = -s A_int(t) V and Vinv' = +s Vinv A_int(t) per s: the s = 1 march at step s h/2.

    A_int is tabulated on the h/4 lattice so every stage lands on a lattice
    point.  Both tables march as one stack (V, Vinv^T) in one :func:`_march`
    by the summed degree parts (:func:`_summed_parts`), whose products of
    A_int are formed once for all W step lengths.  The march runs in real
    form, since tiny real products are cheaper than complex ones: the lattice
    is embedded once (:func:`_real_form`) and the states are real columns
    [Re; Im], copied into complex tables at the end.  Returns (V, Vinv) on
    the h/2 lattice, shape (2M + 1, W, d, d).
    """
    d = drift.dim
    w_fine = _lattice(drift.terms, d, grid)
    # Vinv is marched as its transpose: (Vinv^T)' = A_int^T Vinv^T
    real = _real_form(np.stack([-w_fine, w_fine.transpose(0, 2, 1)], axis=1))
    y = np.empty((2 * grid.steps + 1, len(scales), 2, 2 * d, d))
    y[0] = np.eye(2 * d)[:, :d]
    _march(real, (0.5 * grid.h) * np.asarray(scales), _summed_parts, y)
    vv = np.empty(y.shape[:-2] + (d, d), dtype=complex)
    vv.real, vv.imag = y[..., :d, :], y[..., d:, :]
    return vv[:, :, 0], vv[:, :, 1].swapaxes(-1, -2)


_Frame = namedtuple("_Frame", "vinv v kappa defect")


def _drift_frame(drift: TwoTimeOperatorFunction, grid: TimeGrid, scales) -> _Frame:
    """The drift frame (Vinv, V) on grid nodes per coupling, shape (M + 1, W, d, d), and its bounds.

    ``kappa`` holds max_i ||Vinv_i||_F^2 ||V_i||_F^2 and ``defect`` the
    inversion defect max_i ||V_i Vinv_i - 1||_F, one per coupling: the
    Volterra step series' frame guard reads both, and weak-local-drift
    reports the defect.  The node arrays are copies, so the half-lattice
    tables are freed.  An overflowed frame's inf or NaN bounds take the inverse.
    """
    v_half, vinv_half = _ordered_exponential_tables(drift, grid, scales)
    vinv, v = vinv_half[::2].copy(), v_half[::2].copy()
    del v_half, vinv_half
    kappa = np.max(np.square(frobenius(vinv) * frobenius(v)), axis=0)
    defect = np.max(frobenius(v @ vinv - np.eye(drift.dim)), axis=0)
    return _Frame(vinv, v, kappa, defect)


def ordered_exponential_from_drift(drift: TwoTimeOperatorFunction, grid: TimeGrid) -> OrderedExponential:
    """Time-ordered exponential of an arbitrary drift-operator function."""
    v_half, vinv_half = _ordered_exponential_tables(drift, grid)
    return OrderedExponential(
        grid=grid, dim=drift.dim, v=v_half[::2, 0], vinv=vinv_half[::2, 0]
    )


# ---------------------------------------------------------------------------
# transform route for the local full equation


@np.errstate(all="ignore")
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
    v_half, vinv_half = (x[:, 0] for x in _ordered_exponential_tables(split.drift_op, grid))
    v_sup = _sandwich_stack(v_half)
    g_hat = _sandwich_stack(vinv_half) @ _local_generator(split, grid, "jump") @ v_sup
    out = _maps(grid.steps + 1, 1, g_hat.shape[-1])
    _march(g_hat, grid.h * _UNIT, _stage_steps, out)
    maps = v_sup[::2] @ out[:, 0]
    meta = {**_march_meta(g_hat[-1], grid.h), "engine": "transform"}
    return _judged(MapTrajectory(grid=grid, dim=k.dim, family="local-full", maps=maps, meta=meta))


# ---------------------------------------------------------------------------
# nonlocal (Volterra) families


_Memory = namedtuple("_Memory", "diag row final takes_rows bound")


def _memory(terms, grid: TimeGrid, D: int, width: int) -> _Memory:
    """The Volterra memory core of (profile, D x D matrix) terms on grid nodes.

    Terms with equal profiles are merged, their matrices summed, and each
    distinct profile is expanded into the terms of its normal form, each
    carrying the profile's summed matrix: c_k(t, s) is the k-th such term and
    S_k its matrix.  The expansion is done once per core, not per step.  The
    core holds four members:

    * ``diag(a, b)`` stacks diag_i = sum_k c_k(t_i, t_i) S_k over a <= i < b;
    * ``row(i, x, past, out=None)``, called for i = 1, 2, ... in turn, takes
      ``width`` histories' X_{i-1} side by side in the flat row ``x`` and their
      rows X_0..X_{i-1} in ``past`` (read only when ``takes_rows``) and
      returns, in ``out`` when given, the (width, D, D) stack

          m[n] = h sum_k S_k [c_k(t_i, t_0) X_0 / 2 + sum_{0<j<i} c_k(t_i, t_j) X_j]

      so the trapezoid memory integral of history n at t_i is
      m[n] + (h/2) diag_i X_i.  The sums are kept history-major, one
      (width, terms, D, D) stack, so m is one broadcast product of
      h [S_0 S_1 ...] with it;
    * ``final()`` is the node-trapezoid generator at t_M,
      sum_k (weights [h/2, h, ..., h, h/2] . c_k(t_M, .)) S_k;
    * ``takes_rows`` is true when some term takes rows;
    * ``bound`` is sum_k max_i |c_k(t_i, t_i)| ||S_k||_F, a bound on every
      ||diag_i||_F.

    A term c(t - s) f(t) g(s) whose c(tau) = C e^{a tau} (constant or
    exponential, and c = 1 for every term of a table) takes no rows: it keeps
    H = sum_{j<i} w_j e^{a (t_i - t_j)} g_j X_j (w_0 = 1/2, else 1), stepped
    exactly as H <- e^{a h} (H + w_{i-1} g_{i-1} X_{i-1}) from x alone.  A
    term with a gaussian conv factor takes rows f_i c_{i-j} g_j, j <= i, from
    three node vectors, so no (M + 1)^2 table exists.
    """
    merged = _merge_terms(terms)

    def takes_rows(term):
        return any(fac.kind == "gaussian" for fac in term[0])

    expanded = [(term, sk) for p, sk in merged.items() for term in p.form]
    expanded.sort(key=lambda e: takes_rows(e[0]))
    nr = sum(not takes_rows(term) for term, _ in expanded)
    s = np.array([sk for _, sk in expanded], dtype=complex).reshape(-1, D, D)
    ts, h = grid.nodes(), grid.h
    n, n_p = len(ts), len(s)
    cv = np.empty((n_p, n), dtype=complex)
    fv = np.empty_like(cv)
    gv = np.empty_like(cv)
    for r, (term, _) in enumerate(expanded):
        cv[r], fv[r], gv[r] = _form_vectors(term, ts)
    rates = [sum(c.rate for c in term[0] if c.kind == "exp") for term, _ in expanded[:nr]]
    decay = np.exp(np.array(rates, dtype=complex) * h)
    cdiag = cv[:, :1] * gv * fv

    def rows(i, first=0):  # fresh c_k(t_i, t_j), k >= first, j <= i
        out = cv[first:, i::-1] * gv[first:, : i + 1]
        out *= fv[first:, i, None]
        return out

    # Every term's sum side by side makes the memory row one broadcast product
    # instead of a per-term Python loop: y[n, k] is history n's sum for term k.
    s_row = h * s.transpose(1, 0, 2).reshape(D, n_p * D)  # h [S_0 S_1 ...]
    y = np.empty((width, n_p, D, D), dtype=complex)
    y_cols = y.reshape(width, n_p * D, D)
    hsum = np.zeros((width, nr, D, D), dtype=complex)
    inc = np.empty_like(hsum)
    # per node, one (nr, 1, 1) column: e^{ah} w_j g_j (w_0 = 1/2) and C f_i
    gw = decay[:, None] * gv[:nr]
    gw[:, 0] *= 0.5
    gw, fc = (v.T[..., None, None] for v in (gw, cv[:nr, :1] * fv[:nr]))
    decay = decay[:, None, None]

    def row(i, x, past, out=None):
        hsum[...] *= decay
        hsum[...] += np.multiply(gw[i - 1], x.reshape(width, 1, D, D), out=inc)
        np.multiply(fc[i], hsum, out=y[:, :nr])
        if nr < n_p:
            c = rows(i, nr)
            c[:, 0] *= 0.5
            y[:, nr:] = (c[:, :i] @ past[:i]).reshape(n_p - nr, width, D, D).swapaxes(0, 1)
        return np.matmul(s_row, y_cols, out=out)

    def diag(a, b):
        return np.tensordot(cdiag[:, a:b].T, s, 1)

    def final():
        w_last = np.full(n, h)
        w_last[0] = w_last[-1] = 0.5 * h
        return np.einsum("k,kab->ab", rows(n - 1) @ w_last, s)

    bound = float(np.abs(cdiag).max(axis=1, initial=0.0) @ np.linalg.norm(s, axis=(1, 2)))
    return _Memory(diag, row, final, nr < n_p, bound)


# The Volterra step matrices' Neumann series: a coupling with eps = c ||K||
# above _SERIES_EPS, or whose bound needs more than _SERIES_TERMS terms,
# takes the inverse instead.
_SERIES_EPS = 1.0 / 64.0
_SERIES_TERMS = 16
_U = np.finfo(float).eps


def _series_orders(eps, frame=None) -> np.ndarray:
    """Terms P_n of each coupling's step series, 0 for a coupling that takes the inverse.

    eps_n bounds ||c_n K_i||_F.  In the lab frame (no ``frame``) the series
    sum_{p <= P} (c_n K_i)^p differs from (1 - c_n K_i)^{-1} by at most
    eps^{P+1} (1 + eps)/(1 - eps) relative (the Neumann-series lemma), and
    P_n is the least P that makes this u/2.  In the drift frame (a
    :class:`_Frame`) the step matrix 1 + Vinv_sup (A_i - 1) V_sup misses the
    inverse of the conjugated K_i by at most kappa (spread eps^2/(1 - eps
    (1 + spread))^2 plus that tail), where kappa_n = max_i ||Vinv_i||_F^2
    ||V_i||_F^2 and spread = delta (2 sqrt(d) + delta) bounds
    ||V_sup Vinv_sup - 1||_F for the inversion defect delta; P_n is the least
    P that makes the sum u/2.  Each coupling is decided from its own numbers
    only, so its step matrices do not depend on the other couplings of its
    scan.  The decision is one array pass: the tails for P = 1.._SERIES_TERMS
    are a cumulative product over P, the products a term-by-term loop takes,
    and P_n is the first that fits.
    """
    kappa, spread = 1.0, 0.0
    if frame is not None:
        kappa, spread = frame.kappa, frame.defect * (2.0 * np.sqrt(frame.v.shape[-1]) + frame.defect)
    eps, kappa, spread = np.broadcast_arrays(np.asarray(eps, dtype=float), kappa, spread)
    with np.errstate(all="ignore"):  # NaN, inf and gap <= 0 are decided below
        gap = 1.0 - eps * (1.0 + spread)
        room = np.where(gap > 0.0, 0.5 * _U / kappa - spread * eps * eps / gap**2, 0.0)
        tails = np.repeat(eps[:, None], _SERIES_TERMS, axis=1)
        tails[:, 0] = eps * eps * (1.0 + eps) / (1.0 - eps)  # the bound for P = 1
        fits = np.cumprod(tails, axis=1) <= room[:, None]
    fits &= ((eps <= _SERIES_EPS) & (room > 0.0))[:, None]  # NaN fails too
    return np.where(fits.any(axis=1), np.argmax(fits, axis=1) + 1, 0)


def _step_matrices(diag: np.ndarray, c: np.ndarray, orders: np.ndarray, sups=None) -> np.ndarray:
    """Volterra step matrices A_i = (1 - c_n K_i)^{-1} of a block of nodes, per coupling n.

    ``diag`` stacks K_i over the block's nodes, shape (nodes, D, D), and ``c``
    holds c_n, shape (W, 1, 1).  A coupling with orders[n] = P > 0 takes the
    series 1 + sum_{p <= P} c_n^p K_i^p (:func:`_series_orders`), summed by
    Horner in c_n: the powers K_i^p are formed once for every coupling, and a
    coupling joins the sum at its own top term, so its bits do not depend on
    the others.  A coupling with orders[n] = 0 takes np.linalg.inv, stacked.
    A singular matrix is found by its zero LU pivot, which gives
    np.linalg.slogdet's sign 0 exactly where inv would raise; it is inverted
    as 1, and its coupling is NaN from that node of the block on.  With
    ``sups`` = (Vinv_sup, V_sup), shape (nodes, W, D, D), the step is taken in
    the drift frame, where K_i reads Vinv_sup K_i V_sup: a series coupling
    takes 1 + Vinv_sup (A_i - 1) V_sup from the lab series A_i.  Returns
    the (nodes, W, D, D) stack.
    """
    eye = np.eye(diag.shape[-1])
    acc = np.full((len(diag), len(orders)) + diag.shape[1:], -0.0, dtype=complex)
    top = int(np.max(orders))
    if top:
        powers = [diag]
        for _ in range(1, top):
            powers.append(powers[-1] @ diag)
        flat = acc.view(float)  # c_n is real: scale the real and imaginary parts
        for p in range(top, 0, -1):  # -0.0 + x is x, so a coupling starts at c^P K^P
            mask = (orders >= p)[:, None, None]
            mask = True if mask.all() else mask
            np.add(acc, powers[p - 1][:, None], out=acc, where=mask)
            np.multiply(flat, c, out=flat, where=mask)
        if sups is not None:
            acc = sups[0] @ acc @ sups[1]
    acc += eye
    inverse = orders == 0
    if inverse.any():
        k = diag[:, None] if sups is None else sups[0][:, inverse] @ diag[:, None] @ sups[1][:, inverse]
        lhs = eye - c[inverse] * k
        singular = np.linalg.slogdet(lhs)[0] == 0
        lhs[singular] = eye
        inv = np.linalg.inv(lhs)
        inv[np.logical_or.accumulate(singular, axis=0)] = np.nan
        acc[:, inverse] = inv
    return acc


def _volterra(terms, grid: TimeGrid, D: int, scales, frame=None, out=None, visit=None):
    """Implicit trapezoidal march of dX/dt = int_0^t s K(t,s') X(s') ds' per scale s.

    K is the sum of the (profile, D x D matrix) ``terms``, its memory summed by
    :func:`_memory`: the integral at t_i is f_i = s m_i + (h/2) s diag_i X_i,
    m_i the core's unscaled row.  The corrector fixed point is linear in X_i
    (only the diagonal quadrature weight touches it), so it is solved exactly.
    With g_i = X_i + (h/2) f_i the step X_i = X_{i-1} + (h/2)(f_{i-1} + f_i)
    reads X_i = g_{i-1} + (h/2) f_i, which gives the two-term node step

        X_i = A_i g_{i-1} + E_i m_i,    g_i = 2 X_i - g_{i-1},    g_0 = 1,

    with A_i = (1 - (h^2/4) s diag_i)^{-1} and E_i = (h/2) s A_i, one product
    of [A_i E_i] with g_{i-1} stacked over m_i.  A_i and E_i are formed as
    stacks, a block of nodes at a time, as many as
    :func:`~gkslmap.linalg.block_len` allows for W matrices per node
    (:func:`_step_matrices`).  A_i is the Neumann series of the inverse, its
    powers of diag_i shared by all couplings, wherever the series is within
    u/2 of it; the core's ``bound`` on ||diag_i||_F gives each coupling's
    terms, or sends it to np.linalg.inv (:func:`_series_orders`).  The
    resulting discrete solution satisfies X = 1 + Q X with Q the nested
    trapezoid integral operator — the same Q the nonlocal series iterates.
    Exponential, constant and tabulated memory costs O(D^2) per term and step
    through the recurrence of the core, gaussian memory O(i D^2) at step i.

    The W histories march node-major in ``out``, shape (M + 1, W, D, D)
    (allocated when None, after the memory core), and history n takes the
    memory of K scaled by scales[n]: its A_i and E_i are its own, and s
    enters only their step constants (h/2) s and (h^2/4) s, so diag_i is
    never scaled.  With ``frame``, a :class:`_Frame` of the d x d frame
    operators on grid nodes, shape (M + 1, W, d, d), and their bounds, the
    march runs in the drift frame on Xhat = Vinv_sup X: diag_i is conjugated
    to Vinv_sup[i] diag_i V_sup[i], so a series coupling takes
    A_i = 1 + Vinv_sup[i] (Alab_i - 1) V_sup[i] from the lab-frame series
    Alab_i while the frame's inversion defect and conditioning allow it; E_i
    takes the pull-back of the lab-frame row, E_i = (h/2) s A_i Vinv_sup[i],
    and X_i = V_sup[i] Xhat_i, with the sandwich superoperators formed per
    block.
    ``out`` ends up holding the lab-frame maps X; its blocks of nodes come
    from :func:`_blocks` and go to ``visit`` once written.  Returns
    (out, meta).
    """
    M, h = grid.steps, grid.h
    W = len(scales)
    mem = _memory(terms, grid, D, W)
    hs = h * np.reshape(scales, (W, 1, 1))
    eye = np.eye(D, dtype=complex)
    out = _maps(M + 1, W, D, out)
    flat = out.reshape(M + 1, W * D * D)
    gm = np.empty((W, 2 * D, D), dtype=complex)  # g_{i-1} stacked over m_i
    g, m = gm[:, :D], gm[:, D:]
    g[...] = eye
    x = None if frame is None else np.empty((W, D, D), dtype=complex)  # Xhat_i
    c = 0.25 * h * hs
    orders = _series_orders(c.ravel() * mem.bound, frame)
    for a, b in _blocks(out, 1, block_len(D * D, W), visit):
        sups = None if frame is None else [_sandwich_stack(f[a:b]) for f in frame[:2]]
        step_gain = np.empty((b - a, W, D, 2 * D), dtype=complex)  # [A_i E_i]
        step, gain = step_gain[..., :D], step_gain[..., D:]
        step[...] = _step_matrices(mem.diag(a, b), c, orders, sups)
        np.multiply(0.5 * hs, step, out=gain)
        if frame is not None:
            gain[...] = gain @ sups[0]
        del step, gain
        for i in range(a, b):
            mem.row(i, flat[i - 1], flat, out=m)
            xi = out[i] if frame is None else x
            np.matmul(step_gain[i - a], gm, out=xi)
            if frame is not None:
                np.matmul(sups[1][i - a], xi, out=out[i])
            np.subtract(xi, g, out=g)  # g_i = X_i + (X_i - g_{i-1})
            g += xi
        # free this block's stacks before the next block forms its own
        del step_gain, sups
    if frame is not None:
        return out, {"engine": "drift-frame"}
    return out, _march_meta(mem.final(), h)


@np.errstate(all="ignore")
def solve_nonlocal_from_drift(drift: TwoTimeOperatorFunction, grid: TimeGrid) -> MapTrajectory:
    """Nonlocal drift-only trajectory for an arbitrary drift-operator function A.

    This is the map the CP counterexamples probe: dLambda/dt =
    -int_0^t [A(t,s) Lambda(s)(.) + Lambda(s)(.) A(t,s)^dag] ds.
    """
    terms = [(p, -s) for p, s in drift_superop_terms(drift)]
    out, meta = _volterra(terms, grid, drift.dim**2, _UNIT)
    meta["source"] = "drift-operator"
    return _judged(
        MapTrajectory(grid=grid, dim=drift.dim, family="nonlocal-drift", maps=out[:, 0], meta=meta)
    )


# ---------------------------------------------------------------------------
# series solutions


def _series_total(scales: np.ndarray, order: int):
    """y -> (sum_n s^n y[n] for s in ``scales``); at one scale of 1, the plain sum over orders."""
    if len(scales) == 1 and scales[0] == 1.0:
        return lambda y: y.sum(axis=0)
    powers = np.power.outer(scales, np.arange(order + 1))
    return lambda y: np.tensordot(powers, y, 1)


def _series_meta(order: int, tails) -> dict:
    tail_norm = [float(x) for x in tails]
    return {"order": int(order), "tail_norm": tail_norm, "tail_max": float(np.max(tails))}


def _local_series(g_half: np.ndarray, h: float, order: int, scales, out=None, visit=None):
    """Per-node sums sum_n s^n P_n of the triangular stack dP_n/dt = G(t) P_{n-1}, per scale s.

    P_n has degree n in G, so the stack is marched once, at scale 1; ``out``
    (allocated when None) and ``visit`` are as for :func:`_family_march`.
    The meta holds h |G(t_M)| and the Frobenius norm of the scale-1 order-N
    term at every node (the truncation diagnostic).  A step takes P_n to
    sum_{p <= 4} R_p P_{n-p} with R_p the degree-p part of the plain march's
    step matrix (R_0 = 1), so the full sum telescopes to the plain discrete
    solution up to the truncated tail.
    """
    D = g_half.shape[1]
    total = _series_total(scales, order)
    if out is None:
        out = np.empty(((g_half.shape[0] + 1) // 2, len(scales), D, D), dtype=complex)
    y = np.zeros((order + 1, D, D), dtype=complex)
    y[0] = np.eye(D)
    out[0] = total(y)
    tails = [np.linalg.norm(y[order])]
    for a, b in _blocks(out, 1, block_len(D * D), visit):
        parts = tuple(_step_parts(g_half[2 * a - 2 : 2 * b - 1], h))
        for i in range(a, b):  # step i - 1
            new = y.copy()
            for p, part in enumerate(parts, 1):
                new[p:] += part[i - a] @ y[:-p]
            y = new
            out[i] = total(y)
            tails.append(np.linalg.norm(y[order]))
    return out, {**_march_meta(g_half[-1], h), **_series_meta(order, tails)}


def _nonlocal_series(terms, grid: TimeGrid, D: int, order: int, scales, out=None, visit=None):
    """Iterate the nested-trapezoid integral operator: R_n = Q(R_{n-1}), R_0 = 1.

    Q applies the memory rows of the (profile, D x D matrix) ``terms`` to the
    history R_{n-1}, then integrates the result by a cumulative trapezoid.
    The march is node-outer: the memory sum at t_i is formed once for the
    histories of R_0..R_{N-1} together (:func:`_memory`), then each order
    steps its trapezoid sum in turn, since R_n(t_i) needs R_{n-1}(t_i).  The
    core's recurrences read only the newest node of each history; the
    (M + 1) N D^2 array of every node is kept only when a term takes rows.
    R_n scales as s^n, and the scales, ``out`` and ``visit`` are as for
    :func:`_local_series`.  Returns (out, meta), the order-N tail in meta.
    """
    M, h = grid.steps, grid.h
    mem = _memory(terms, grid, D, order)
    total = _series_total(scales, order)
    r = np.zeros((order + 1, D, D), dtype=complex)  # r[n] = R_n at the newest node
    r[0] = np.eye(D)
    newest = r[:order].reshape(order * D * D)  # a view: R_0..R_{N-1} side by side
    hist = None
    if mem.takes_rows:
        hist = np.empty((M + 1, order * D * D), dtype=complex)  # hist[j] = R_0..R_{N-1} at t_j
        hist[0] = newest
    out = _maps(M + 1, len(scales), D, out)
    tails = np.zeros(M + 1)
    f_prev = np.zeros((order, D, D), dtype=complex)  # f_n(t_{i-1}), n = 1..N
    for a, b in _blocks(out, 1, block_len(D * D), visit):
        diag = mem.diag(a, b)
        for i in range(a, b):
            partial = mem.row(i, newest, hist)
            for n in range(1, order + 1):
                f = partial[n - 1] + 0.5 * h * (diag[i - a] @ r[n - 1])
                r[n] += 0.5 * h * (f_prev[n - 1] + f)
                f_prev[n - 1] = f
            if hist is not None:
                hist[i] = newest
            out[i] = total(r)
            tails[i] = np.linalg.norm(r[order])
    return out, _series_meta(order, tails)


# ---------------------------------------------------------------------------
# the family registry


def _check_family(family: str, order: int) -> None:
    if family not in FAMILY_TAGS:
        raise ValueError(f"unknown trajectory family {family!r}")
    if family.startswith("series") and order < 1:
        raise ValueError(f"series order must be >= 1, got {order}")


def _family_march(split: KernelSplit, grid: TimeGrid, family: str, scales, order: int):
    """One march of ``family``, a tag of FAMILY_TAGS, for the kernels s K, s in ``scales``.

    ``split`` is the split of K.  Both of its parts are linear in K, so the
    kernel at scale s has s times its parts: a map march and the drift
    frames march the generator of K at step s h, the Volterra step constants
    carry s while the memory sums are formed once, and the order-n term of a
    series truncated at ``order`` is weighted by s^n; a map march and the
    drift frames share one Runge-Kutta driver (:func:`_march`).  Returns
    march(out=None, visit=None) -> (out, meta), which fills out[:, n] (``out``
    of shape (M + 1, W, D, D), allocated once the march's own tables are
    built) with the maps at scale scales[n], a block of nodes at a time, and
    passes each block to ``visit`` once it is written (:func:`_blocks`).
    The weak families' drift frames are marched here, before any map march;
    weak-local-drift writes the sandwich of V block by block.

    The families, G_t = int_0^t K(t, s) ds of the part K = J - D, J or -D:

    * local-<part>: dLambda/dt = G_t Lambda; local-drift is V_t (.) V_t^dag.
    * nonlocal-<part>: dLambda/dt = int_0^t K(t, s) Lambda(s) ds.
    * series-local-<part>: integrals nested t2, t3 <= t1, t4 <= t3, ...: dP_n/dt = G_t P_{n-1}.
    * series-nonlocal-jump: fully ordered t_{2n} <= ... <= t_1, one Volterra operator per order.
    * weak-local-drift: Lambda(s) -> Lambda(t) in the memory, solved by the sandwich of V: CP.
    * weak-nonlocal-full: in the drift frame, A-bar_k(t, s) = V_t^{-1} A_k V_s; CP by
      construction (positive sandwich increments), trace-preserving only to weak-coupling order.

    A series' meta carries the per-node norm of its order-N term.
    """
    D = split.dim * split.dim
    kind, _, part = family.rpartition("-")
    if kind.startswith("weak"):
        frame = _drift_frame(split.drift_op, grid, scales)
        if kind == "weak-nonlocal":
            return functools.partial(_volterra, split.jump_part.terms, grid, D, scales, frame)

        def sandwich(out=None, visit=None):
            if out is None:
                out = np.empty((grid.steps + 1, len(scales), D, D), dtype=complex)
            for a, b in _blocks(out, 0, block_len(D * D, len(scales)), visit):
                out[a:b] = _sandwich_stack(frame.v[a:b])
            return out, {"inversion_defect": float(np.max(frame.defect))}

        return sandwich
    if kind == "nonlocal":
        return functools.partial(_volterra, _part_terms(split, part), grid, D, scales, None)
    if kind == "series-nonlocal":
        return functools.partial(_nonlocal_series, _part_terms(split, part), grid, D, order, scales)

    def march(out=None, visit=None):
        g_half = _local_generator(split, grid, part)
        if kind == "local":
            out = _maps(grid.steps + 1, len(scales), D, out)
            _march(g_half, grid.h * scales, _stage_steps, out, visit)
            return out, _march_meta(g_half[-1], grid.h)
        return _local_series(g_half, grid.h, order, scales, out, visit)

    return march


def _judged(traj: MapTrajectory) -> MapTrajectory:
    """``traj``, unless a map entry or a number in its meta is not finite: FloatingPointError."""
    if not np.isfinite(traj.maps.view(float)).all():
        finite = np.isfinite(traj.maps).all(axis=(1, 2))
        first = float(traj.grid.nodes()[np.argmin(finite)])
        raise FloatingPointError(
            f"{traj.family} solve produced non-finite map entries (first at t = {first!r})"
        )
    for key, val in traj.meta.items():
        if not isinstance(val, str) and not np.isfinite(val).all():
            raise FloatingPointError(f"{traj.family} solve produced non-finite meta.{key}")
    return traj


@np.errstate(all="ignore")
def solve_family(k: GKSLKernel, grid: TimeGrid, family: str, order: int = 8) -> MapTrajectory:
    """The width-1 march of :func:`_family_march` at scale 1 on the split of k, judged
    (:func:`_judged`); bad input raises ValueError before anything marches."""
    _check_family(family, order)
    k.check_horizon(grid.T)
    out, meta = _family_march(split_kernel(k), grid, family, _UNIT, order)()
    return _judged(MapTrajectory(grid=grid, dim=k.dim, family=family, maps=out[:, 0], meta=meta))


@np.errstate(all="ignore")
def family_distances(k: GKSLKernel, grid: TimeGrid, pair, g_values, order: int = 8) -> np.ndarray:
    """Sup-over-nodes Frobenius distance between two families at every coupling.

    Bad input raises ValueError before anything marches.  The kernel is split
    once at g = 1 and coupling g scales it by g^2, so each family takes one
    march for all couplings (:func:`_family_march`).  Drift frames are marched
    first; then the first family fills an (M + 1, W, D, D) array, and the
    second marches in that same array, taking the distance at each block of
    nodes before it replaces them, so the scan holds one such array.  Returns
    the W distances in the order of ``g_values``; a coupling whose maps are
    not finite, such as one with a singular Volterra step, gets NaN or inf.
    """
    for family in pair:
        _check_family(family, order)
    k.check_horizon(grid.T)
    scales = np.square(np.asarray(g_values, dtype=float))
    split = split_kernel(k.with_coupling(1.0))
    first, second = [_family_march(split, grid, family, scales, order) for family in pair]
    out, _ = first()
    dist = np.zeros(len(scales))
    second(out, functools.partial(_raise_distance, dist))
    return dist
