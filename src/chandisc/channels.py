"""Channel families and Choi matrices.

The three channel families used throughout the package are quantum erasure
channels (``make_qec``), qudit depolarizing channels (``make_qdc``) and qubit
amplitude damping channels (``make_qadc``).  All are represented by explicit
Kraus operators, and every derived object (Choi matrix, output state) is a
validated :class:`~chandisc.discrimination.DensityMatrix`.

Block states are plain tensor powers of these Choi matrices
(:func:`~chandisc.discrimination.tensor_all`): the dense route that the
cross-checks and the tests compare the closed forms with.  The sweep
commands never load this module.
"""

from __future__ import annotations

import numpy as np

from .discrimination import DensityMatrix, as_complex_matrix
from .linalg import ChandiscError, Frozen, check_count, check_one_prob


TP_TOL = 1e-9
COVARIANCE_TOL = 1e-8


class KrausChannel(Frozen):
    """A completely positive trace-preserving map in Kraus form.

    ``kraus`` is a tuple of ``(dim_out, dim_in)`` matrices ``K_i`` with
    ``sum_i K_i† K_i = I`` within ``TP_TOL``.
    """

    __slots__ = ("kraus",)

    def __init__(self, kraus):
        ops = tuple(as_complex_matrix(k) for k in kraus)
        if not ops:
            raise ChandiscError("a channel needs at least one Kraus operator")
        shape = ops[0].shape
        if any(k.shape != shape for k in ops):
            raise ChandiscError("Kraus operators differ in shape")
        total = sum(k.conj().T @ k for k in ops)
        drift = np.abs(total - np.eye(shape[1])).max()
        if drift > TP_TOL:
            raise ChandiscError(f"channel is not trace preserving: drift {drift:.3e}")
        object.__setattr__(self, "kraus", ops)

    @property
    def dim_in(self) -> int:
        return self.kraus[0].shape[1]

    @property
    def dim_out(self) -> int:
        return self.kraus[0].shape[0]

    def __repr__(self):
        return f"KrausChannel(dim_in={self.dim_in}, dim_out={self.dim_out}, n_kraus={len(self.kraus)})"


def make_qec(d: int, q) -> KrausChannel:
    """Erasure channel on a ``d``-level system.

    With probability ``1 - q`` the input passes into the first ``d`` levels
    of a ``d + 1``-dimensional output; with probability ``q`` it is replaced
    by the orthogonal erasure flag (the last output level).
    """
    d = check_count(d, "d", 2)
    q = check_one_prob(q, "q")
    iso = np.zeros((d + 1, d), dtype=np.complex128)
    iso[:d, :] = np.eye(d)
    ops = [np.sqrt(1.0 - q) * iso]
    for j in range(d):
        k = np.zeros((d + 1, d), dtype=np.complex128)
        k[d, j] = np.sqrt(q)
        ops.append(k)
    return KrausChannel(tuple(ops))


def heisenberg_weyl(d: int):
    """The ``d**2`` shift-and-phase unitaries ``X^a Z^b`` on dimension ``d``.

    Ordered lexicographically in ``(a, b)`` so the identity comes first;
    ``X`` shifts ``|j>`` to ``|j+1>`` and ``Z`` multiplies it by
    ``exp(2 pi i j / d)``.  These are exactly the correction unitaries
    appearing in qudit teleportation.
    """
    d = check_count(d, "d", 2)
    omega, k = np.exp(2j * np.pi / d), np.arange(d)
    return [np.roll(np.eye(d), a, axis=0) * omega ** (b * k) for a in range(d) for b in range(d)]


def make_qdc(d: int, q) -> KrausChannel:
    """Depolarizing channel on a ``d``-level system.

    With probability ``q`` the input is replaced by the maximally mixed
    state; equivalently each of the ``d**2 - 1`` non-identity shift-and-phase
    unitaries is applied with probability ``q / d**2``.
    """
    d = check_count(d, "d", 2)
    q = check_one_prob(q, "q")
    unitaries = heisenberg_weyl(d)
    ops = [np.sqrt(1.0 - q + q / d**2) * unitaries[0]]
    ops.extend(np.sqrt(q / d**2) * w for w in unitaries[1:])
    return KrausChannel(tuple(ops))


def make_qadc(q) -> KrausChannel:
    """Amplitude damping channel on a qubit with decay probability ``q``."""
    q = check_one_prob(q, "q")
    k0 = np.array([[1.0, 0.0], [0.0, np.sqrt(1.0 - q)]], dtype=np.complex128)
    k1 = np.array([[0.0, np.sqrt(q)], [0.0, 0.0]], dtype=np.complex128)
    return KrausChannel((k0, k1))


def choi(channel: KrausChannel) -> DensityMatrix:
    """Choi matrix of a channel, ordered as output tensor idler.

    This is the channel applied to one half of a maximally entangled pair,
    ``(E ⊗ id)(|Ω><Ω|)`` with ``|Ω> = sum_i |ii> / sqrt(d_in)``.  In this
    (row-major) convention the Choi matrix is ``sum_i vec(K_i) vec(K_i)† / d_in``,
    i.e. ``V V†`` for ``V`` with columns ``vec(K_i) / sqrt(d_in)``, a product
    taken in real arithmetic when every Kraus operator is real.
    """
    vecs = np.stack([k.reshape(-1) for k in channel.kraus], axis=1) / np.sqrt(channel.dim_in)
    if not vecs.imag.any():
        vecs = vecs.real
    return DensityMatrix(vecs @ vecs.conj().T)


def _correction_exists(c, c_u, dim_out: int, dim_in: int) -> bool:
    # Whether the solutions V of (V ⊗ I) C = C_U (V ⊗ I) hold a unitary, by the
    # polar factor of one generic solution (see tele_covariance_check).  Column
    # (a, b) of lmat is (E_ab ⊗ I) C - C_U (E_ab ⊗ I), flattened.
    shape, eye = (dim_out, dim_in, dim_out, dim_in), np.eye(dim_out)
    lmat = (np.einsum("ia,bkjl->ikjlab", eye, c.reshape(shape))
            - np.einsum("ikal,bj->ikjlab", c_u.reshape(shape), eye)).reshape(-1, dim_out**2)
    _, s, vh = np.linalg.svd(lmat, full_matrices=False)
    null_vecs = vh[s <= 1e-6 * max(1.0, s[0])].conj()
    if not len(null_vecs):
        return False
    rng = np.random.default_rng(12345)
    coeff = rng.standard_normal(len(null_vecs)) + 1j * rng.standard_normal(len(null_vecs))
    pu, _, pvh = np.linalg.svd((coeff @ null_vecs).reshape(dim_out, dim_out))
    lifted = np.kron(pu @ pvh, np.eye(dim_in))
    return np.abs(lifted @ c @ lifted.conj().T - c_u).max() <= COVARIANCE_TOL


def tele_covariance_check(channel: KrausChannel) -> bool:
    """Whether teleportation corrections can be pushed through the channel.

    For every shift-and-phase unitary ``U`` on the input, checks that some
    unitary ``V`` on the output satisfies ``E ∘ Ad_U = Ad_V ∘ E``.  Channels
    with this property are simulable exactly by a single teleportation over
    their Choi state, so all their adaptive discrimination bounds collapse
    to block bounds.  Erasure and depolarizing channels pass; amplitude
    damping fails (it is phase- but not flip-covariant).

    The answer is decided, not searched for, in two steps.  Corrections
    compose (``V_X^a V_Z^b`` corrects ``X^a Z^b``), so only the generators
    ``Z`` and ``X`` are checked.  For each, the solutions ``V`` of
    ``(V ⊗ I) C = C_U (V ⊗ I)`` on the Choi matrix ``C`` form a space ``S``
    with ``V†W`` in the *-algebra ``A = {Y : (Y ⊗ I) C = C (Y ⊗ I)}`` for
    ``V, W`` in ``S``, and ``S·A ⊆ S``.  So the polar factor
    ``V (V†V)^(-1/2)`` of an invertible ``V`` in ``S`` is a unitary in ``S``:
    ``S`` holds a correction exactly when it holds an invertible element,
    and one seeded generic combination of a basis of ``S`` is invertible if
    any element is.  Its polar factor must match within ``COVARIANCE_TOL``
    (max-abs).
    """
    c = np.asarray(choi(channel).mat)
    d_in, d_out = channel.dim_in, channel.dim_out
    weyl = heisenberg_weyl(d_in)
    for u in (weyl[1], weyl[d_in]):
        c_u = np.kron(np.eye(d_out), u.T) @ c @ np.kron(np.eye(d_out), u.conj())
        if not _correction_exists(c, c_u, d_out, d_in):
            return False
    return True
