import numpy as np
import pytest

from chandisc.discrimination import (
    DensityMatrix,
    as_complex_matrix,
    hermitize,
    tensor,
    tensor_all,
    trace_norm,
)
from chandisc.linalg import LinalgError, check_prob

from _oracles import fidelity, partial_trace
from _util import random_density, random_pure, random_unitary


def test_as_complex_matrix_accepts_rectangular():
    # Kraus operators and isometries are rectangular; only the rank is fixed
    assert as_complex_matrix(np.ones((2, 3))).shape == (2, 3)
    with pytest.raises(LinalgError):
        as_complex_matrix(np.ones(4))
    with pytest.raises(LinalgError):
        as_complex_matrix(np.array([[np.nan, 0.0], [0.0, 0.0]]))


def test_check_prob_scalars_and_arrays():
    assert check_prob(0.25) == 0.25 and isinstance(check_prob(np.float64(1.0)), float)
    values = check_prob([0.0, 0.5, 1.0])
    assert values.dtype == np.float64 and values.tolist() == [0.0, 0.5, 1.0]
    for bad in (np.nan, -1e-300, 1.0 + 2**-52, np.inf, -np.inf):
        with pytest.raises(LinalgError, match="p must lie in"):
            check_prob(bad, "p")
        with pytest.raises(LinalgError, match="p must lie in"):
            check_prob(np.array([[0.5, bad], [0.0, 1.0]]), "p")


def test_hermitize_symmetrizes_small_drift():
    a = np.array([[1.0, 0.5 + 1e-12j], [0.5, 1.0]])
    h = hermitize(a)
    assert np.abs(h - h.conj().T).max() == 0.0


def test_hermitize_rejects_large_drift():
    with pytest.raises(LinalgError):
        hermitize(np.array([[0.0, 1.0], [0.0, 0.0]]), tol=1e-8)


def test_density_matrix_validation():
    with pytest.raises(LinalgError):
        DensityMatrix(np.diag([0.6, 0.6]))  # trace 1.2
    with pytest.raises(LinalgError):
        DensityMatrix(np.diag([1.5, -0.5]))  # negative eigenvalue


def test_density_matrix_is_read_only():
    rho = DensityMatrix(np.diag([0.5, 0.5]))
    with pytest.raises(ValueError):
        rho.mat[0, 0] = 2.0


def test_tensor_matches_kron():
    rng = np.random.default_rng(0)
    a = rng.normal(size=(3, 3))
    b = rng.normal(size=(4, 4))
    np.testing.assert_allclose(tensor(a, b), np.kron(a, b))


def test_tensor_guard():
    a = np.eye(2048)
    with pytest.raises(LinalgError):
        tensor(a, a)


def test_tensor_all_order():
    rng = np.random.default_rng(1)
    mats = [rng.normal(size=(2, 2)) for _ in range(3)]
    expect = np.kron(np.kron(mats[0], mats[1]), mats[2])
    np.testing.assert_allclose(tensor_all(mats), expect)


def test_partial_trace_of_product():
    rng = np.random.default_rng(2)
    rho = random_density(rng, 3).mat
    sigma = random_density(rng, 4).mat
    joint = np.kron(rho, sigma)
    np.testing.assert_allclose(partial_trace(joint, (3, 4), keep=(0,)), rho, atol=1e-12)
    np.testing.assert_allclose(partial_trace(joint, (3, 4), keep=(1,)), sigma, atol=1e-12)


def test_partial_trace_keeps_factor_order():
    rng = np.random.default_rng(3)
    parts = [random_density(rng, d).mat for d in (2, 3, 2)]
    joint = tensor_all(parts)
    kept = partial_trace(joint, (2, 3, 2), keep=(0, 2))
    np.testing.assert_allclose(kept, np.kron(parts[0], parts[2]), atol=1e-12)


def test_partial_trace_is_trace_preserving():
    rng = np.random.default_rng(4)
    joint = random_density(rng, 12).mat
    reduced = partial_trace(joint, (3, 4), keep=(1,))
    assert abs(np.trace(reduced) - 1.0) < 1e-12


def test_trace_norm_hermitian():
    a = np.diag([0.5, -0.3, 0.2])
    assert abs(trace_norm(a) - 1.0) < 1e-12


def test_trace_norm_general_matches_singular_values():
    rng = np.random.default_rng(5)
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    assert abs(trace_norm(a) - np.linalg.svd(a, compute_uv=False).sum()) < 1e-10


def test_fidelity_pure_states():
    v = np.array([1.0, 0.0])
    w = np.array([1.0, 1.0]) / np.sqrt(2)
    rho = DensityMatrix(np.outer(v, v))
    sigma = DensityMatrix(np.outer(w, w))
    # |<v|w>| = 1/sqrt(2)
    assert abs(fidelity(rho, sigma) - 1.0 / np.sqrt(2)) < 1e-12


def test_fidelity_commuting_states():
    p = np.array([0.7, 0.3])
    q = np.array([0.4, 0.6])
    rho = DensityMatrix(np.diag(p))
    sigma = DensityMatrix(np.diag(q))
    assert abs(fidelity(rho, sigma) - np.sqrt(p * q).sum()) < 1e-12


def test_fidelity_unitary_invariance():
    rng = np.random.default_rng(6)
    rho = random_density(rng, 5)
    sigma = random_density(rng, 5)
    un = random_unitary(rng, 5)
    rho_u = DensityMatrix(un @ rho.mat @ un.conj().T)
    sigma_u = DensityMatrix(un @ sigma.mat @ un.conj().T)
    assert abs(fidelity(rho_u, sigma_u) - fidelity(rho, sigma)) < 1e-10
