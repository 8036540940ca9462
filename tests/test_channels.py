import numpy as np
import pytest

from chandisc import channels
from chandisc.channels import (
    KrausChannel,
    choi,
    heisenberg_weyl,
    make_qadc,
    make_qdc,
    make_qec,
    tele_covariance_check,
)
from chandisc.discrimination import DensityMatrix
from chandisc.linalg import ChandiscError
from chandisc.qadc import XiTable, default_xi, qadc_adaptive_lb_values

from _oracles import partial_trace
from _util import random_density, random_unitary


def _apply(channel, rho):
    # sum_i K_i rho K_i†
    return sum(k @ rho.mat @ k.conj().T for k in channel.kraus)


def test_kraus_channel_requires_trace_preservation():
    with pytest.raises(ChandiscError, match="^channel is not trace preserving: drift 7.500e-01$"):
        KrausChannel((np.diag([1.0, 0.5]),))


def test_erasure_choi_spectrum():
    # weight 1-q on the maximally entangled state, q/d on each flag branch
    ch = make_qec(2, 0.3)
    assert (ch.dim_in, ch.dim_out) == (2, 3)
    eigs = np.sort(np.linalg.eigvalsh(choi(ch).mat))[::-1]
    np.testing.assert_allclose(eigs[:3], [0.7, 0.15, 0.15], atol=1e-12)
    np.testing.assert_allclose(eigs[3:], 0.0, atol=1e-12)


def test_erasure_flags_orthogonally():
    ch = make_qec(3, 1.0)
    rho = DensityMatrix(np.diag([0.2, 0.3, 0.5]))
    out = _apply(ch, rho)
    expect = np.zeros((4, 4))
    expect[3, 3] = 1.0
    np.testing.assert_allclose(out, expect, atol=1e-12)


def test_heisenberg_weyl_orthogonal_unitary_basis():
    for d in (2, 3):
        ws = heisenberg_weyl(d)
        assert len(ws) == d * d
        np.testing.assert_allclose(ws[0], np.eye(d), atol=1e-12)
        gram = np.array([[np.trace(a.conj().T @ b) for b in ws] for a in ws])
        np.testing.assert_allclose(gram, d * np.eye(d * d), atol=1e-12)


def test_heisenberg_weyl_order():
    # entry a d + b is X^a Z^b, with X|j> = |j+1> and Z|j> = exp(2 pi i j / d)|j>
    for d in (2, 3):
        x = np.array([[float(i == (j + 1) % d) for j in range(d)] for i in range(d)])
        z = np.diag(np.exp(2j * np.pi * np.arange(d) / d))
        ws = heisenberg_weyl(d)
        for a in range(d):
            for b in range(d):
                expect = np.linalg.matrix_power(x, a) @ np.linalg.matrix_power(z, b)
                np.testing.assert_allclose(ws[a * d + b], expect, atol=1e-12)


def test_depolarizing_choi_spectrum():
    eigs = np.sort(np.linalg.eigvalsh(choi(make_qdc(2, 0.4)).mat))[::-1]
    np.testing.assert_allclose(eigs, [0.7, 0.1, 0.1, 0.1], atol=1e-12)


def test_depolarizing_mixes_toward_identity():
    rng = np.random.default_rng(10)
    rho = random_density(rng, 3)
    out = _apply(make_qdc(3, 0.6), rho)
    np.testing.assert_allclose(out, 0.4 * rho.mat + 0.6 * np.eye(3) / 3, atol=1e-12)


def test_qadc_kraus_action():
    q = 0.35
    ch = make_qadc(q)
    rho = DensityMatrix(np.array([[0.2, 0.4], [0.4, 0.8]]))
    out = _apply(ch, rho)
    expect = np.array([[0.2 + q * 0.8, 0.4 * np.sqrt(1 - q)],
                       [0.4 * np.sqrt(1 - q), (1 - q) * 0.8]])
    np.testing.assert_allclose(out, expect, atol=1e-12)


@pytest.mark.parametrize("ch", [make_qec(2, 0.3), make_qdc(3, 0.7), make_qadc(0.2)])
def test_choi_is_normalized_state_with_maximally_mixed_input_marginal(ch):
    c = choi(ch).mat
    assert abs(np.trace(c) - 1.0) < 1e-12
    assert np.linalg.eigvalsh(c).min() > -1e-12
    marginal = partial_trace(c, (ch.dim_out, ch.dim_in), keep=(1,))
    np.testing.assert_allclose(marginal, np.eye(ch.dim_in) / ch.dim_in, atol=1e-10)


def test_maximally_entangled():
    # the Choi matrix of the identity channel is the maximally entangled projector
    phi = choi(KrausChannel((np.eye(2),))).mat
    v = np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2)
    np.testing.assert_allclose(phi, np.outer(v, v), atol=1e-12)


def _sim_error(q, xi=None):
    # a channel's simulation error at 4 ports, read off the pair bound of two
    # equal channels at one use: there F = 1 and the bound is (1 - 2 delta) / 2
    return (1.0 - 2.0 * qadc_adaptive_lb_values(q, q, 1, 4, xi=xi)) / 2.0


def test_qadc_pbt_error_value():
    # the damping port-based error at 4 ports: xi = min(4/4, 2) = 1 times
    # (1-q)/2 + sqrt(1-q) = 0.32 + 0.8
    assert default_xi(4) == 1.0
    assert abs(_sim_error(0.36) - 1.12) < 1e-15
    assert _sim_error(1.0) == 0.0


def test_qadc_pbt_error_custom_xi():
    assert abs(_sim_error(0.36, XiTable([1], [0.5])) - 0.5 * 1.12) < 1e-15


def test_default_xi_caps_at_two():
    assert default_xi(1) == 2.0
    assert default_xi(2) == 2.0
    assert abs(default_xi(16) - 0.25) < 1e-15


def test_constructors_take_one_probability():
    # check_prob passes arrays through for the array kernels; a channel has one q
    for make in (lambda q: make_qec(2, q), lambda q: make_qdc(2, q), make_qadc):
        with pytest.raises(ChandiscError, match="^need one q in \\[0, 1\\], got array"):
            make(np.array([0.1, 0.2]))


def test_sim_error_validation():
    with pytest.raises(ChandiscError, match="^q0 must lie in \\[0, 1\\], got 1.2$"):
        _sim_error(1.2)


def test_tele_covariance_classes():
    # erasure and depolarizing commute with the teleportation unitaries up
    # to a correction on the output; amplitude damping does not
    assert tele_covariance_check(make_qec(2, 0.3))
    assert tele_covariance_check(make_qdc(2, 0.4))
    assert tele_covariance_check(make_qdc(3, 0.5))
    assert not tele_covariance_check(make_qadc(0.3))
    # a unitary channel carries P to its conjugate, Clifford or not
    t_hadamard = np.diag([1.0, np.exp(1j * np.pi / 4)]) @ np.array([[1.0, 1.0], [1.0, -1.0]])
    assert tele_covariance_check(KrausChannel((t_hadamard / np.sqrt(2),)))
    # Pauli dephasing
    assert tele_covariance_check(KrausChannel((np.sqrt(0.7) * np.eye(2),
                                               np.sqrt(0.3) * np.diag([1.0, -1.0]))))
    assert tele_covariance_check(make_qec(3, 0.4))
    assert tele_covariance_check(make_qdc(4, 0.3))
    # full damping replaces every input by |0><0|
    assert tele_covariance_check(make_qadc(1.0))
    # three qubit Kraus operators cut from a random 6x2 isometry
    iso = random_unitary(np.random.default_rng(5), 6)[:, :2]
    assert not tele_covariance_check(KrausChannel(tuple(iso[2 * i:2 * i + 2] for i in range(3))))


def test_tele_covariance_checks_the_two_generators(monkeypatch):
    # corrections compose, so Z and X decide it, whatever the dimension
    calls = []
    solve = channels._correction_exists
    monkeypatch.setattr(channels, "_correction_exists", lambda *args: calls.append(1) or solve(*args))
    assert tele_covariance_check(make_qdc(3, 0.5))
    assert len(calls) == 2


def test_tele_covariance_identity_edge():
    # q=0 erasure is an isometric embedding of the identity channel
    assert tele_covariance_check(make_qec(2, 0.0))
