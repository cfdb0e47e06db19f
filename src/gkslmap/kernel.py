"""Two-time master-equation kernels built from profile * constant-operator terms.

A kernel acts on a density matrix through

    K(t, t') rho = g^2 ( -i [H(t,t'), rho]
                         + sum_i ( L_i rho L_i^dag - 1/2 {L_i^dag L_i, rho} ) )

where H(t,t') is Hermitian for every admissible (t, t') and each L_i(t,t') is
an arbitrary operator-valued function.  Both are finite sums of
profile(t,t') * constant-matrix terms, which keeps every derived object
(superoperator kernels, drift operators, quadrature tables) in separable form.
One type, :class:`TwoTimeOperatorFunction`, holds every such sum, d x d
operators and d^2 x d^2 superoperators alike, and evaluates it on whole
arrays of (t, t') at once.

The kernel splits as K = J - D with the jump (sandwich) part
J rho = g^2 sum_i L_i rho L_i^dag and the drift part D rho = A rho + rho A^dag,
where the drift operator is A = g^2 ( i H + 1/2 sum_i L_i^dag L_i ).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .linalg import dagger, sandwich_superop
from .profiles import (
    Profile,
    TabulatedProfile,
    profile_from_doc,
    profile_product,
    profile_to_doc,
)
from .serialize import (
    MAX_DIM,
    MIN_DIM,
    FormatError,
    _header,
    _object,
    is_finite_number,
    matrix_from_doc,
    matrix_to_doc,
)

__all__ = [
    "TwoTimeOperatorFunction",
    "GKSLKernel",
    "KernelSplit",
    "split_kernel",
    "load_kernel_spec",
    "save_kernel_spec",
    "load_drift_spec",
    "save_drift_spec",
    "MIN_DIM",
    "MAX_DIM",
]

_HERMITIAN_TOL = 1e-10  # the asymmetry check_hermiticity accepts


@dataclass(frozen=True)
class TwoTimeOperatorFunction:
    """Finite sum of profile(t, t') * constant dim x dim matrices.

    The one separable two-time type: it holds d x d operators (Hamiltonian,
    jump and drift operators) and d^2 x d^2 superoperators (the jump and drift
    parts of a kernel) alike; ``dim`` is the matrix side.
    """

    dim: int
    terms: tuple  # tuple of (Profile, ndarray of shape (dim, dim))

    def __post_init__(self):
        for i, (p, a) in enumerate(self.terms):
            if not isinstance(p, Profile):
                raise ValueError(f"term {i}: profile of type {type(p).__name__}")
            a = np.asarray(a)
            if a.shape != (self.dim, self.dim):
                raise ValueError(
                    f"term {i}: operator shape {a.shape} does not match dim {self.dim}"
                )

    @staticmethod
    def build(dim: int, terms) -> "TwoTimeOperatorFunction":
        frozen = tuple((p, np.asarray(a, dtype=complex)) for p, a in terms)
        return TwoTimeOperatorFunction(dim=dim, terms=frozen)

    def __call__(self, t, tp) -> np.ndarray:
        """The sum at (t, t'), broadcast over arrays: shape (..., dim, dim).

        Profiles are evaluated on arrays of at least one dimension: numpy's
        scalar arithmetic rounds differently from its array loops, and this
        way a point gives the same bits alone as inside an array.
        """
        shape = np.broadcast_shapes(np.shape(t), np.shape(tp))
        t, tp = np.broadcast_arrays(*np.atleast_1d(t, tp))
        out = np.zeros(t.shape + (self.dim, self.dim), dtype=complex)
        for p, a in self.terms:
            out += np.asarray(p(t, tp), dtype=complex)[..., None, None] * a
        return out.reshape(shape + (self.dim, self.dim))


@dataclass(frozen=True)
class GKSLKernel:
    """Kernel data: Hermitian part, jump operator functions, coupling scale g."""

    dim: int
    hermitian: TwoTimeOperatorFunction
    jump_ops: tuple  # tuple of TwoTimeOperatorFunction
    coupling: float = 1.0

    def __post_init__(self):
        if not (MIN_DIM <= self.dim <= MAX_DIM):
            raise ValueError(f"dim must satisfy {MIN_DIM} <= d <= {MAX_DIM}, got {self.dim}")
        if self.coupling < 0:
            raise ValueError(f"coupling must be >= 0, got {self.coupling}")
        if self.hermitian.dim != self.dim:
            raise ValueError("hermitian part dimension does not match kernel dim")
        for i, op in enumerate(self.jump_ops):
            if op.dim != self.dim:
                raise ValueError(f"jump operator {i} dimension does not match kernel dim")

    @staticmethod
    def build(dim, hermitian=None, jump_ops=(), coupling=1.0) -> "GKSLKernel":
        herm = hermitian if hermitian is not None else TwoTimeOperatorFunction(dim, ())
        return GKSLKernel(
            dim=dim, hermitian=herm, jump_ops=tuple(jump_ops), coupling=float(coupling)
        )

    def with_coupling(self, g: float) -> "GKSLKernel":
        return replace(self, coupling=float(g))

    @property
    def is_convolution(self) -> bool:
        """True when every profile in the kernel depends on t - t' only."""
        return all(p.is_convolution for p in self.all_profiles())

    def all_profiles(self):
        for p, _ in self.hermitian.terms:
            yield p
        for op in self.jump_ops:
            for p, _ in op.terms:
                yield p

    def check_horizon(self, T: float) -> None:
        """Fail fast when a tabulated profile does not cover [0, T]^2."""
        for p in self.all_profiles():
            if isinstance(p, TabulatedProfile) and p.t_max < T:
                raise ValueError(
                    f"tabulated profile covers [0, {p.t_max}] but the requested "
                    f"horizon is T = {T}"
                )

    def check_hermiticity(self) -> None:
        """Sample the Hermitian part on (t, t') pairs, rejecting asymmetry
        beyond _HERMITIAN_TOL relative to max(1, ||H||_F).

        The samples are t, t' in {0, 0.25, 0.5, 1, 1.7} plus every node pair
        of each tabulated profile in the Hermitian part, t' <= t throughout,
        kept to the square that all those tables cover.
        """
        tables = [p for p, _ in self.hermitian.terms if isinstance(p, TabulatedProfile)]
        horizon = min((p.t_max for p in tables), default=np.inf)
        axes = [[0.0, 0.25, 0.5, 1.0, 1.7]]
        axes += [np.linspace(0.0, p.t_max, len(p.values)) for p in tables]
        points = [
            (float(t), float(tp))
            for ts in axes
            for t in ts
            for tp in ts
            if tp <= t <= horizon
        ]
        t, tp = np.asarray(points, dtype=float).T
        h = self.hermitian(t, tp)
        asym = np.linalg.norm(h - h.conj().swapaxes(-1, -2), axis=(-2, -1))
        bad = asym > _HERMITIAN_TOL * np.maximum(1.0, np.linalg.norm(h, axis=(-2, -1)))
        if bad.any():
            i = int(np.argmax(bad))
            raise ValueError(
                f"hermitian part is not Hermitian at (t, t') = {points[i]}; "
                f"asymmetry {asym[i]:.3e}"
            )


@dataclass(frozen=True)
class KernelSplit:
    """Jump/drift split of a kernel, in separable superoperator form.

    ``jump_part`` is the sandwich map rho -> g^2 sum L rho L^dag;
    ``drift_op`` is W = g^2 (i H + 1/2 sum L^dag L) as an operator function;
    ``drift_part`` is the derived map rho -> A rho + rho A^dag.
    The full kernel action is jump_part - drift_part.  ``dim`` is d, so the
    two parts have matrix side d^2.
    """

    dim: int
    jump_part: TwoTimeOperatorFunction
    drift_op: TwoTimeOperatorFunction
    drift_part: TwoTimeOperatorFunction


def drift_superop_terms(w: TwoTimeOperatorFunction):
    """Superoperator terms of rho -> A rho + rho A^dag for a separable drift operator."""
    d = w.dim
    eye = np.eye(d, dtype=complex)
    terms = []
    for p, a in w.terms:
        terms.append((p, sandwich_superop(a, eye)))
        terms.append((p.conjugate(), sandwich_superop(eye, dagger(a))))
    return terms


def split_kernel(k: GKSLKernel) -> KernelSplit:
    g2 = k.coupling**2
    jump_terms = []
    w_terms = [(p, 1j * g2 * a) for p, a in k.hermitian.terms]
    for op in k.jump_ops:
        for pk, ak in op.terms:
            for pl, al in op.terms:
                jump_terms.append(
                    (profile_product(pk, pl.conjugate()), g2 * sandwich_superop(ak, dagger(al)))
                )
                w_terms.append((profile_product(pk.conjugate(), pl), 0.5 * g2 * (dagger(ak) @ al)))
    w = TwoTimeOperatorFunction.build(k.dim, w_terms)
    return KernelSplit(
        dim=k.dim,
        jump_part=TwoTimeOperatorFunction.build(k.dim * k.dim, jump_terms),
        drift_op=w,
        drift_part=TwoTimeOperatorFunction.build(k.dim * k.dim, drift_superop_terms(w)),
    )


# ---------------------------------------------------------------------------
# kernel documents


def _terms_from_doc(raw, dim: int, field_name: str):
    if not isinstance(raw, list):
        raise FormatError(f"{field_name}: expected a list of terms")
    terms = []
    for i, item in enumerate(raw):
        here = f"{field_name}[{i}]"
        _object(item, here, ("profile", "operator"), ())
        prof = profile_from_doc(item["profile"], f"{here}.profile")
        op = matrix_from_doc(item["operator"], f"{here}.operator")
        if op.shape != (dim, dim):
            raise FormatError(
                f"{here}.operator: dim {op.shape[0]} does not match kernel dim {dim}"
            )
        terms.append((prof, op))
    return terms


def _terms_to_doc(fn: TwoTimeOperatorFunction):
    return [
        {"profile": profile_to_doc(p), "operator": matrix_to_doc(a)} for p, a in fn.terms
    ]


def load_kernel_spec(doc) -> GKSLKernel:
    """Build a kernel from a parsed JSON document (dict).

    Field errors raise :class:`FormatError` naming the offending field; a
    Hermitian part that is not Hermitian raises ValueError.
    """
    dim = _header(doc, (), ("coupling_g", "hermitian", "lindblad"))
    g = doc.get("coupling_g", 1.0)
    if not is_finite_number(g) or g < 0:
        raise FormatError(f"coupling_g: expected a finite number >= 0, got {g!r}")
    herm = TwoTimeOperatorFunction.build(dim, _terms_from_doc(doc.get("hermitian", []), dim, "hermitian"))
    raw_jumps = doc.get("lindblad", [])
    if not isinstance(raw_jumps, list):
        raise FormatError("lindblad: expected a list of operator-function term lists")
    jumps = []
    for i, raw in enumerate(raw_jumps):
        jumps.append(
            TwoTimeOperatorFunction.build(dim, _terms_from_doc(raw, dim, f"lindblad[{i}]"))
        )
    kernel = GKSLKernel.build(dim, herm, jumps, float(g))
    kernel.check_hermiticity()
    return kernel


def save_kernel_spec(k: GKSLKernel) -> dict:
    return {
        "dim": int(k.dim),
        "coupling_g": float(k.coupling),
        "hermitian": _terms_to_doc(k.hermitian),
        "lindblad": [_terms_to_doc(op) for op in k.jump_ops],
    }


def load_drift_spec(doc) -> TwoTimeOperatorFunction:
    """Parse a raw drift-operator document: {"dim": d, "drift": [term...]}.

    Raw drift operators are not constrained to the kernel-derived form (their
    Hermitian part need not be positive), which is what the counterexample
    machinery operates on.
    """
    dim = _header(doc, ("drift",), ())
    return TwoTimeOperatorFunction.build(dim, _terms_from_doc(doc["drift"], dim, "drift"))


def save_drift_spec(w: TwoTimeOperatorFunction) -> dict:
    return {"dim": int(w.dim), "drift": _terms_to_doc(w)}
