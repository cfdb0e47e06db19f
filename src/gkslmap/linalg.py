"""Dense complex operator and superoperator algebra on small Hilbert spaces.

Vectorization is column-stacking throughout the package:

    vec(A)[i + d*j] = A[i, j]

so that ``vec(A X B) = kron(B.T, A) vec(X)``.  Superoperators are plain
``(d*d, d*d)`` complex ndarrays acting on vectorized operators.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "vectorize",
    "sandwich_superop",
    "frobenius",
    "dagger",
    "hermitian_eig",
    "HermitianEigenResult",
    "NotHermitianError",
    "random_operator",
    "random_hermitian",
    "SIGMA_X",
    "SIGMA_Y",
    "SIGMA_Z",
    "SIGMA_PLUS",
    "SIGMA_MINUS",
]

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
#: raising/lowering in the convention sigma_minus |1> = |0>, sigma_plus |0> = |1>
SIGMA_PLUS = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)
SIGMA_MINUS = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)


def _as_square(a, name: str = "matrix") -> np.ndarray:
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"{name} must be a square 2-d array, got shape {a.shape}")
    return a


def vectorize(a) -> np.ndarray:
    """Column-stack a square matrix: vec(A)[i + d*j] = A[i, j]."""
    return _as_square(a).reshape(-1, order="F")


def sandwich_superop(a, b) -> np.ndarray:
    """Superoperator matrix of the map rho -> a @ rho @ b.

    With column-stacking vectorization this is ``kron(b.T, a)``, whose entry
    [i*d + k, j*d + l] is the one product b.T[i, j] a[k, l]; formed as that
    outer product and reshaped, it equals ``np.kron`` bit for bit.
    """
    a = _as_square(a, "a")
    b = _as_square(b, "b")
    if a.shape != b.shape:
        raise ValueError(f"operator dimensions differ: {a.shape} vs {b.shape}")
    d = a.shape[0]
    return (b.T[:, None, :, None] * a[None, :, None, :]).reshape(d * d, d * d)


def frobenius(a):
    """Frobenius norm over the last two axes, summed by dot products as np.linalg.norm
    sums one matrix, so a stack rounds as its matrices do one at a time."""
    a = np.asarray(a)
    v = a.reshape(a.shape[:-2] + (1, -1))
    sq = v.real @ np.swapaxes(v.real, -1, -2) + v.imag @ np.swapaxes(v.imag, -1, -2)
    return np.sqrt(sq)[..., 0, 0]


# A stacked call takes a block of at least _BLOCK_MATRICES matrices, and of as
# many more as fit in _BLOCK_ENTRIES entries (64 superoperators of d = 3): small
# matrices take few calls, and their block is no larger than that one.
_BLOCK_MATRICES = 64
_BLOCK_ENTRIES = 5184


def block_len(entries: int, lead: int = 1) -> int:
    """Items per block of a stack whose items hold ``lead`` matrices of ``entries`` entries each."""
    return max(1, max(_BLOCK_MATRICES, _BLOCK_ENTRIES // entries) // lead)


def dagger(a) -> np.ndarray:
    return np.asarray(a).conj().T


@dataclass(frozen=True)
class HermitianEigenResult:
    """Ascending eigenvalues and the matching orthonormal eigenvector columns
    (None when only the eigenvalues were asked for)."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray | None


class NotHermitianError(ValueError):
    """A :func:`hermitian_eig` input fails the guard; ``index`` is the first such matrix."""

    def __init__(self, index: tuple, detail: str):
        where = f" {list(index)}" if index else ""
        super().__init__(f"matrix{where} is not Hermitian: {detail}")
        self.index, self.detail = index, detail


_HERMITIAN_RTOL = 1e-9  # the asymmetry hermitian_eig accepts, relative to ||A||_F


def hermitian_eig(a, vectors: bool = True) -> HermitianEigenResult:
    """Eigendecomposition of a Hermitian matrix, or of a stack (..., n, n) of them.

    The input is symmetrized internally; a matrix whose anti-Hermitian part
    exceeds ``_HERMITIAN_RTOL * ||A||_F`` is rejected with :class:`NotHermitianError`, so
    silent misuse on generic matrices cannot slip through.  With ``vectors=False``
    only the eigenvalues are computed (``eigvalsh``), after the same guard.
    """
    a = np.asarray(a, dtype=complex)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"expected a square matrix or a stack of them, got shape {a.shape}")
    a_dag = np.swapaxes(a.conj(), -1, -2)
    asym = frobenius(a - a_dag)
    scale = np.maximum(frobenius(a), 1e-300)
    bad = asym > _HERMITIAN_RTOL * scale
    if bad.any():
        idx = tuple(int(i) for i in np.unravel_index(np.argmax(bad), bad.shape))
        raise NotHermitianError(
            idx,
            f"||A - A^dag||_F = {asym[idx]:.3e} "
            f"exceeds {_HERMITIAN_RTOL:.1e} * ||A||_F = {_HERMITIAN_RTOL * scale[idx]:.3e}",
        )
    herm = 0.5 * (a + a_dag)
    if not vectors:
        return HermitianEigenResult(np.linalg.eigvalsh(herm), None)
    return HermitianEigenResult(*np.linalg.eigh(herm))


def random_operator(rng: np.random.Generator, dim: int, norm: float = 1.0) -> np.ndarray:
    """Complex Gaussian matrix rescaled to the given spectral norm."""
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return a * (norm / np.linalg.norm(a, ord=2))


def random_hermitian(rng: np.random.Generator, dim: int, norm: float = 1.0) -> np.ndarray:
    a = random_operator(rng, dim, 1.0)
    h = 0.5 * (a + a.conj().T)
    return h * (norm / np.linalg.norm(h, ord=2))
