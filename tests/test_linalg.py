"""Vectorization conventions and the small linear-algebra helpers."""

import numpy as np
import pytest

from gkslmap.linalg import (
    SIGMA_MINUS,
    SIGMA_PLUS,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    NotHermitianError,
    block_len,
    dagger,
    frobenius,
    hermitian_eig,
    random_hermitian,
    random_operator,
    sandwich_superop,
    vectorize,
)
from oracles import random_density, unvectorize


def test_vectorize_is_column_stacking():
    a = np.array([[1, 2], [3, 4]], dtype=complex)
    v = vectorize(a)
    # vec(A)[i + d*j] = A[i, j]
    assert v[0] == 1 and v[1] == 3 and v[2] == 2 and v[3] == 4


def test_unvectorize_round_trip(rng):
    a = random_operator(rng, 3)
    assert np.array_equal(unvectorize(vectorize(a), 3), a)
    assert np.array_equal(unvectorize(vectorize(a)), a)  # dim inferred


def test_sandwich_superop_action(rng):
    a = random_operator(rng, 3)
    b = random_operator(rng, 3)
    r = random_operator(rng, 3)
    got = unvectorize(sandwich_superop(a, b) @ vectorize(r), 3)
    assert np.allclose(got, a @ r @ b)


def test_dagger_and_frobenius(rng):
    a = random_operator(rng, 2)
    assert np.allclose(dagger(a), a.conj().T)
    assert frobenius(a) == pytest.approx(np.linalg.norm(a))


def test_hermitian_eig_sorted_ascending(rng):
    h = random_hermitian(rng, 4)
    res = hermitian_eig(h)
    assert np.all(np.diff(res.eigenvalues) >= 0)
    recon = res.eigenvectors @ np.diag(res.eigenvalues) @ res.eigenvectors.conj().T
    assert np.allclose(recon, h, atol=1e-12)


def test_hermitian_eig_rejects_asymmetry(rng):
    h = random_hermitian(rng, 3)
    with pytest.raises(ValueError):
        hermitian_eig(h + 0.1 * random_operator(rng, 3))


def test_hermitian_eig_on_a_stack_matches_one_at_a_time(rng):
    stack = np.stack([random_hermitian(rng, 3) for _ in range(5)])
    res = hermitian_eig(stack)
    for h, w, v in zip(stack, res.eigenvalues, res.eigenvectors):
        one = hermitian_eig(h)
        assert np.array_equal(w, one.eigenvalues) and np.array_equal(v, one.eigenvectors)
    stack[3] += 0.1 * random_operator(rng, 3)
    stack[4] += 0.1 * random_operator(rng, 3)
    with pytest.raises(NotHermitianError, match=r"^matrix \[3\] is not Hermitian") as err:
        hermitian_eig(stack)
    assert err.value.index == (3,)


def test_hermitian_eig_without_vectors(rng):
    stack = np.stack([random_hermitian(rng, 4) for _ in range(5)])
    res = hermitian_eig(stack, vectors=False)
    assert res.eigenvectors is None
    assert np.allclose(res.eigenvalues, hermitian_eig(stack).eigenvalues, rtol=0, atol=1e-14)
    stack[2] += 0.1 * random_operator(rng, 4)
    stack[4] += 0.1 * random_operator(rng, 4)
    with pytest.raises(NotHermitianError) as full:
        hermitian_eig(stack)
    with pytest.raises(NotHermitianError) as values_only:
        hermitian_eig(stack, vectors=False)
    assert values_only.value.index == full.value.index == (2,)
    assert str(values_only.value) == str(full.value)


@pytest.mark.parametrize("d", (2, 3, 4))
def test_sandwich_superop_is_kron_bit_for_bit(rng, d):
    def cplx():
        return rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))

    eye = np.eye(d, dtype=complex)
    for a, b in ((cplx(), cplx()), (eye, cplx()), (cplx(), eye)):
        assert sandwich_superop(a, b).tobytes() == np.kron(b.T, a).tobytes()


def test_frobenius_of_a_stack_rounds_like_numpy_norm(rng):
    stack = rng.normal(size=(6, 4, 4)) + 1j * rng.normal(size=(6, 4, 4))
    assert np.array_equal(frobenius(stack), [np.linalg.norm(a) for a in stack])


def test_random_density_properties(rng):
    rho = random_density(rng, 3)
    assert np.trace(rho).real == pytest.approx(1.0)
    assert np.allclose(rho, rho.conj().T)
    assert np.linalg.eigvalsh(rho).min() > 0


def test_random_operator_norm(rng):
    a = random_operator(rng, 3, norm=0.7)
    assert np.linalg.norm(a, ord=2) == pytest.approx(0.7)


def test_pauli_matrices():
    assert np.allclose(SIGMA_X @ SIGMA_X, np.eye(2))
    assert np.allclose(SIGMA_Y @ SIGMA_Y, np.eye(2))
    assert np.allclose(SIGMA_Z @ SIGMA_Z, np.eye(2))
    assert np.allclose(SIGMA_X @ SIGMA_Y - SIGMA_Y @ SIGMA_X, 2j * SIGMA_Z)
    assert np.allclose(SIGMA_PLUS @ SIGMA_MINUS + SIGMA_MINUS @ SIGMA_PLUS, np.eye(2))
    assert np.allclose(dagger(SIGMA_PLUS), SIGMA_MINUS)


def test_block_len_is_an_entry_budget_with_a_floor_of_64_matrices():
    assert block_len(16) == 324  # d = 2 superoperators
    assert block_len(81) == block_len(256) == 64  # d = 3 and d = 4: the floor
    assert block_len(16, 6) == 54  # nodes of a six-coupling Volterra block at d = 2
    assert block_len(4, 12) == 108  # steps of a six-coupling (V, Vinv) block at d = 2
    assert block_len(256, 100) == 1
