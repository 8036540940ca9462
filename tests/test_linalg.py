import numpy as np
import pytest

from chandisc.discrimination import (
    DensityMatrix,
    as_complex_matrix,
    fidelity,
    gram_states,
    hermitize,
    kron_power,
    partial_trace,
    tensor,
    tensor_all,
    trace_norm,
)
from chandisc.linalg import ChandiscError, LinalgError, check_prob

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
    # validate=False accepts anything square, used on pre-checked paths
    DensityMatrix(np.diag([1.5, -0.5]), validate=False)


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
        tensor(a, a, max_side=2**20)


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


def test_kron_power_matches_tensor_all_and_stays_real():
    rng = np.random.default_rng(11)
    mat = rng.normal(size=(2, 3))
    power = kron_power(mat, 3)
    assert power.dtype == np.float64 and power.shape == (8, 27)
    np.testing.assert_allclose(power, tensor_all([mat] * 3).real, atol=1e-15)
    with pytest.raises(LinalgError):
        kron_power(mat, 0)


def _factor(state):
    """A ``(dim, rank)`` matrix ``A`` with ``A A† = state``."""
    w, v = np.linalg.eigh(state)
    keep = w > 1e-12
    return v[:, keep] * np.sqrt(w[keep])


def _gram(factors):
    joint = np.hstack(factors)
    return joint.conj().T @ joint


def test_joint_support_compress_rank_and_trace_norms():
    # three rank-2 states inside one 3-dimensional subspace of C^12
    rng = np.random.default_rng(7)
    frame = random_unitary(rng, 12)[:, :3]
    factors = [frame @ (rng.normal(size=(3, 2)) + 1j * rng.normal(size=(3, 2)))
               for _ in range(3)]
    factors = [a / np.linalg.norm(a) for a in factors]
    states = [a @ a.conj().T for a in factors]
    compressed = gram_states(_gram(factors), [2, 2, 2])
    assert compressed[0].shape == (3, 3)  # the joint support, not 6 columns
    # trace norms of arbitrary real combinations survive the compression
    for _ in range(5):
        coeff = rng.normal(size=3)
        full = sum(c * s for c, s in zip(coeff, states))
        comp = sum(c * s for c, s in zip(coeff, compressed))
        assert abs(trace_norm(full) - trace_norm(comp)) < 1e-12


def test_joint_support_compress_input_checks():
    gram = np.eye(4)
    with pytest.raises(LinalgError):
        gram_states(gram, [])
    with pytest.raises(LinalgError):
        gram_states(gram, [2, 1])
    with pytest.raises(LinalgError):
        gram_states(gram, [4, 0])
    assert issubclass(LinalgError, ChandiscError)


@pytest.mark.parametrize("power", [1, 2, 3])
def test_compressed_tensor_power_matches_dense(power):
    # u-fold powers known only through (A_a† A_b)^{⊗u}, against explicit krons
    rng = np.random.default_rng(9)
    states = [random_density(rng, 3, rank=1).mat, random_density(rng, 3, rank=2).mat]
    factors = [_factor(s) for s in states]
    gram = np.block([[kron_power(a.conj().T @ b, power) for b in factors] for a in factors])
    compressed = gram_states(gram, [a.shape[1] ** power for a in factors])
    dense = [tensor_all([s] * power) for s in states]
    diff_full = trace_norm(dense[0] - dense[1])
    diff_comp = trace_norm(compressed[0] - compressed[1])
    assert abs(diff_full - diff_comp) < 1e-12
    for full, comp in zip(dense, compressed):
        ev_full = np.sort(np.linalg.eigvalsh(full))[-comp.shape[0]:]
        ev_comp = np.sort(np.linalg.eigvalsh(comp))
        np.testing.assert_allclose(ev_full, ev_comp, atol=1e-12)


def test_compressed_tensor_power_rank_growth():
    # two rank-1 factors: every power spans 2 dimensions, far below 4**8
    v = np.zeros((4, 1))
    v[0] = 1.0
    w = np.ones((4, 1)) / 2.0
    gram = np.block([[kron_power(a.T @ b, 8) for b in (v, w)] for a in (v, w)])
    compressed = gram_states(gram, [1, 1])
    assert compressed[0].shape == (2, 2)
    assert compressed[0].dtype == np.float64  # real Gram, real arithmetic
    overlap = 0.5**8
    pure_distance = 2.0 * np.sqrt(1.0 - overlap**2)
    assert abs(trace_norm(compressed[0] - compressed[1]) - pure_distance) < 1e-14


def test_gram_support_cut_is_relative_to_the_largest_eigenvalue_of_all():
    top = np.diag([1.0, 2e-14, 0.5e-14])
    low = np.diag([3e-14, 1e-15])
    gram = np.block([[top, np.zeros((3, 2))], [np.zeros((2, 3)), low]])
    kept = gram_states(gram, [3, 2])
    assert kept[0].shape == (3, 3)  # 1, 2e-14 and 3e-14 survive the cut
    np.testing.assert_allclose(np.linalg.eigvalsh(kept[0]), [0.0, 2e-14, 1.0], atol=1e-30)
    np.testing.assert_allclose(np.linalg.eigvalsh(kept[1]), [0.0, 0.0, 3e-14], atol=1e-30)
    # the same block alone keeps everything above its own maximum's cut
    np.testing.assert_allclose(np.linalg.eigvalsh(gram_states(low, [2])[0]), [1e-15, 3e-14],
                               rtol=1e-12)
