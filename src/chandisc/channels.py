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
from .linalg import ChannelError, Frozen, check_prob


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
            raise ChannelError("a channel needs at least one Kraus operator")
        shape = ops[0].shape
        if any(k.shape != shape for k in ops):
            raise ChannelError("Kraus operators differ in shape")
        total = sum(k.conj().T @ k for k in ops)
        drift = np.abs(total - np.eye(shape[1])).max()
        if drift > TP_TOL:
            raise ChannelError(f"channel is not trace preserving: drift {drift:.3e}")
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
    d = int(d)
    if d < 2:
        raise ChannelError(f"erasure channel needs d >= 2, got {d}")
    q = float(check_prob(q, "q", ChannelError))
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

    Ordered lexicographically in ``(a, b)`` so the identity comes first.
    These are exactly the correction unitaries appearing in qudit
    teleportation.
    """
    d = int(d)
    if d < 2:
        raise ChannelError(f"need d >= 2, got {d}")
    omega = np.exp(2j * np.pi / d)
    x = np.zeros((d, d), dtype=np.complex128)
    for j in range(d):
        x[(j + 1) % d, j] = 1.0
    z = np.diag(omega ** np.arange(d))
    ops = []
    xa = np.eye(d, dtype=np.complex128)
    for _ in range(d):
        zb = np.eye(d, dtype=np.complex128)
        for _ in range(d):
            ops.append(xa @ zb)
            zb = zb @ z
        xa = xa @ x
    return ops


def make_qdc(d: int, q) -> KrausChannel:
    """Depolarizing channel on a ``d``-level system.

    With probability ``q`` the input is replaced by the maximally mixed
    state; equivalently each of the ``d**2 - 1`` non-identity shift-and-phase
    unitaries is applied with probability ``q / d**2``.
    """
    d = int(d)
    if d < 2:
        raise ChannelError(f"depolarizing channel needs d >= 2, got {d}")
    q = float(check_prob(q, "q", ChannelError))
    unitaries = heisenberg_weyl(d)
    ops = [np.sqrt(1.0 - q + q / d**2) * unitaries[0]]
    ops.extend(np.sqrt(q / d**2) * w for w in unitaries[1:])
    return KrausChannel(tuple(ops))


def make_qadc(q) -> KrausChannel:
    """Amplitude damping channel on a qubit with decay probability ``q``."""
    q = float(check_prob(q, "q", ChannelError))
    k0 = np.array([[1.0, 0.0], [0.0, np.sqrt(1.0 - q)]], dtype=np.complex128)
    k1 = np.array([[0.0, np.sqrt(q)], [0.0, 0.0]], dtype=np.complex128)
    return KrausChannel((k0, k1))


def kraus_vectors(channel: KrausChannel) -> np.ndarray:
    """Columns ``vec(K_i) / sqrt(d_in)``, so that ``choi(channel) = V V†``.

    ``vec`` stacks rows, matching the output-tensor-idler order of
    :func:`choi`.  The array is real when every Kraus operator is, so
    Gram matrices of real channels stay in real arithmetic.
    """
    vecs = np.stack([k.reshape(-1) for k in channel.kraus], axis=1) / np.sqrt(channel.dim_in)
    return vecs if vecs.imag.any() else vecs.real.copy()


def choi(channel: KrausChannel) -> DensityMatrix:
    """Choi matrix of a channel, ordered as output tensor idler.

    This is the channel applied to one half of a maximally entangled pair,
    ``(E ⊗ id)(|Ω><Ω|)`` with ``|Ω> = sum_i |ii> / sqrt(d_in)``.  In this
    (row-major) convention the Choi matrix is ``sum_i vec(K_i) vec(K_i)† / d_in``,
    i.e. ``V V†`` for the :func:`kraus_vectors` ``V``.
    """
    vecs = kraus_vectors(channel)
    return DensityMatrix(vecs @ vecs.conj().T)


def _correction_exists(c, c_u, dim_out: int, dim_in: int) -> bool:
    # Solve the linear condition (V ⊗ I) C = C_U (V ⊗ I) for V, then look
    # for a unitary inside the solution space via polar projections.
    big = dim_out * dim_in
    cols = []
    for a in range(dim_out):
        for b in range(dim_out):
            e_ab = np.zeros((dim_out, dim_out), dtype=np.complex128)
            e_ab[a, b] = 1.0
            lifted = np.kron(e_ab, np.eye(dim_in))
            cols.append((lifted @ c - c_u @ lifted).reshape(-1))
    lmat = np.array(cols).T  # (big², dim_out²)
    u_, s, vh = np.linalg.svd(lmat, full_matrices=False)
    null_mask = s <= 1e-6 * max(1.0, s[0] if s.size else 0.0)
    null_vecs = vh[null_mask].conj()
    if not null_vecs.shape[0]:
        return False

    def is_valid(candidate) -> bool:
        pu, _, pvh = np.linalg.svd(candidate)
        v = pu @ pvh
        lifted = np.kron(v, np.eye(dim_in))
        return np.abs(lifted @ c @ lifted.conj().T - c_u).max() <= COVARIANCE_TOL

    for vec in null_vecs:
        if is_valid(vec.reshape(dim_out, dim_out)):
            return True
    rng = np.random.default_rng(12345)
    for _ in range(8):
        coeff = rng.standard_normal(null_vecs.shape[0]) + 1j * rng.standard_normal(null_vecs.shape[0])
        cand = (coeff @ null_vecs).reshape(dim_out, dim_out)
        if is_valid(cand):
            return True
    return False


def tele_covariance_check(channel: KrausChannel) -> bool:
    """Whether teleportation corrections can be pushed through the channel.

    For every shift-and-phase unitary ``U`` on the input, checks that some
    unitary ``V`` on the output satisfies ``E ∘ Ad_U = Ad_V ∘ E``.  Channels
    with this property are simulable exactly by a single teleportation over
    their Choi state, so all their adaptive discrimination bounds collapse
    to block bounds.  Erasure and depolarizing channels pass; amplitude
    damping fails (it is phase- but not flip-covariant).

    The test is one-sided: ``True`` is certified by an explicit ``V``, but
    ``False`` may be a false negative.  Each ``V`` is sought among the basis
    vectors of the linear solution space and 8 seeded random combinations of
    them, so a valid unitary elsewhere in that space can be missed.  A
    candidate must match within ``COVARIANCE_TOL`` (max-abs).
    """
    c = np.asarray(choi(channel).mat)
    d_in, d_out = channel.dim_in, channel.dim_out
    for u in heisenberg_weyl(d_in)[1:]:
        c_u = np.kron(np.eye(d_out), u.T) @ c @ np.kron(np.eye(d_out), u.conj())
        if not _correction_exists(c, c_u, d_out, d_in):
            return False
    return True
