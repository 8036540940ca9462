"""Shared constructions for the test suite."""

import numpy as np

from chandisc.discrimination import DensityMatrix


def random_density(rng, dim: int, rank=None) -> DensityMatrix:
    rank = dim if rank is None else rank
    a = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
    mat = a @ a.conj().T
    return DensityMatrix(mat / mat.trace())


def random_pure(rng, dim: int) -> np.ndarray:
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


def random_unitary(rng, dim: int) -> np.ndarray:
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(a)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def gus_pure_states(eta: float, m: int):
    """Cyclic pure states on C^m with all pairwise overlaps equal to eta.

    Component j of state k carries phase omega^(j k); the amplitude profile
    puts the excess weight eta on component 0, which makes every overlap
    <psi_k|psi_l> equal eta for k != l.
    """
    amps = np.sqrt(np.full(m, (1.0 - eta) / m))
    amps[0] = np.sqrt((1.0 - eta) / m + eta)
    phases = np.exp(2j * np.pi * np.arange(m) / m)
    return [amps * phases**k for k in range(m)]
