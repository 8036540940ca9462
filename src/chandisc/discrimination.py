"""Dense quantum states and minimum-error discrimination of finite ensembles.

The first half holds the dense matrix primitives: validated states
(:class:`DensityMatrix`), tensor products and the trace norm.  These are
the numerical details that are easy to get subtly wrong, so the rest of the
package has one vetted implementation of each.

The second half computes the smallest achievable probability of
misidentifying which state from a known ensemble was prepared.  For two
states this is given in closed form by the trace-norm (Helstrom) formula;
for larger ensembles the module provides the square-root measurement, a
fixed-point iteration for the optimal measurement with a rigorous
optimality certificate, and a closed form for geometrically uniform pure
ensembles.

Every bound is returned as a :class:`~chandisc.linalg.BoundReport` carrying
the raw value, its direction (``exact`` / ``lower`` / ``upper``) and the
parameters it was computed from, so downstream tables can state precisely
what each number is.  The sweep commands never load this module: their
closed forms and binomial sums need only :mod:`chandisc.linalg`.
"""

from __future__ import annotations

import numpy as np

from .linalg import (KIND_EXACT, KIND_UPPER, BoundReport, DiscriminationError, Frozen,
                     LinalgError)

# HERM_TOL / EIG_TOL / TRACE_TOL gate state validation.
HERM_TOL = 1e-10
EIG_TOL = 1e-10
TRACE_TOL = 1e-10

# Reject tensor products whose side length would exceed this.
MAX_TENSOR_SIDE = 1 << 20

PRIOR_TOL = 1e-12
POVM_PSD_TOL = 1e-9
POVM_SUM_TOL = 1e-8
# The square-root measurement's support cut; helstrom_iterative's stopping
# residual and largest dimension.
SUPPORT_CUT = 1e-12
SOLVER_TOL = 1e-8
SOLVER_MAX_DIM = 256


def as_complex_matrix(a) -> np.ndarray:
    """Coerce ``a`` to a finite 2-D complex128 array.

    Raises
    ------
    LinalgError
        If the input is not 2-D or contains non-finite entries.
    """
    mat = np.asarray(a, dtype=np.complex128)
    if mat.ndim != 2:
        raise LinalgError(f"expected a 2-D array, got ndim={mat.ndim}")
    if not np.all(np.isfinite(mat)):
        raise LinalgError("matrix contains non-finite entries")
    return mat


def hermitize(mat, tol: float = 1e-8) -> np.ndarray:
    """Return the Hermitian part ``(M + M†)/2`` of a nearly Hermitian matrix.

    The symmetrization is a cleanup step for floating-point drift, not a
    projection of arbitrary matrices: if the correction exceeds ``tol`` in
    max-abs norm the input was not Hermitian to begin with and we refuse it.
    Two values are in use: ``HERM_TOL`` for states, 1e-8 elsewhere.
    """
    mat = as_complex_matrix(mat)
    if mat.shape[0] != mat.shape[1]:
        raise LinalgError(f"expected a square matrix, got shape {mat.shape}")
    herm = (mat + mat.conj().T) / 2.0
    drift = np.abs(mat - herm).max() if mat.size else 0.0
    if drift > tol:
        raise LinalgError(f"matrix is not Hermitian: drift {drift:.3e} > {tol:.3e}")
    return herm


class DensityMatrix(Frozen):
    """A validated quantum state.

    Parameters
    ----------
    mat : array_like
        Square complex matrix, Hermitian within ``HERM_TOL``, with unit
        trace within ``TRACE_TOL`` and eigenvalues above ``-EIG_TOL``.
    """

    __slots__ = ("mat",)

    def __init__(self, mat):
        mat = hermitize(mat, HERM_TOL)
        tr = mat.trace()
        if abs(tr - 1.0) > TRACE_TOL:
            raise LinalgError(f"state trace {tr} deviates from 1 beyond {TRACE_TOL}")
        if np.linalg.eigvalsh(mat).min() < -EIG_TOL:
            raise LinalgError("state has an eigenvalue below the PSD tolerance")
        mat = np.array(mat, dtype=np.complex128, copy=True)
        mat.setflags(write=False)
        object.__setattr__(self, "mat", mat)

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    def __repr__(self):
        return f"DensityMatrix(dim={self.dim})"


def tensor(a, b) -> np.ndarray:
    """Kronecker product, refused beyond side ``MAX_TENSOR_SIDE``."""
    a = as_complex_matrix(a)
    b = as_complex_matrix(b)
    side = max(a.shape[0] * b.shape[0], a.shape[1] * b.shape[1])
    if side > MAX_TENSOR_SIDE:
        raise LinalgError(f"tensor product side {side} exceeds guard {MAX_TENSOR_SIDE}")
    return np.kron(a, b)


def tensor_all(mats) -> np.ndarray:
    """Left-associated Kronecker product of a sequence of matrices."""
    mats = list(mats)
    if not mats:
        raise LinalgError("tensor_all needs at least one factor")
    out = as_complex_matrix(mats[0])
    for m in mats[1:]:
        out = tensor(out, m)
    return out


def trace_norm(mat) -> float:
    """Sum of singular values; for Hermitian input, the sum of |eigenvalues|."""
    mat = as_complex_matrix(mat)
    if mat.shape[0] == mat.shape[1] and np.abs(mat - mat.conj().T).max() <= 1e-10:
        herm = (mat + mat.conj().T) / 2.0
        return float(np.abs(np.linalg.eigvalsh(herm)).sum())
    return float(np.linalg.svd(mat, compute_uv=False).sum())


class StateEnsemble(Frozen):
    """States with prior probabilities, all on one Hilbert space."""

    __slots__ = ("states", "priors")

    def __init__(self, states, priors):
        states = tuple(s if isinstance(s, DensityMatrix) else DensityMatrix(s) for s in states)
        if not states:
            raise DiscriminationError("ensemble needs at least one state")
        dim = states[0].dim
        if any(s.dim != dim for s in states):
            raise DiscriminationError("ensemble states live on different dimensions")
        priors = np.asarray(priors, dtype=np.float64)
        if priors.shape != (len(states),):
            raise DiscriminationError(
                f"got {len(states)} states but priors with shape {priors.shape}")
        if priors.min() < 0.0:
            raise DiscriminationError("priors must be nonnegative")
        if abs(priors.sum() - 1.0) > PRIOR_TOL:
            raise DiscriminationError(f"priors sum to {priors.sum()}, not 1")
        priors = priors.copy()
        priors.setflags(write=False)
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "priors", priors)

    @classmethod
    def equiprobable(cls, states):
        states = list(states)
        return cls(states, np.full(len(states), 1.0 / len(states)))

    @property
    def m(self) -> int:
        return len(self.states)

    @property
    def dim(self) -> int:
        return self.states[0].dim

    def __repr__(self):
        return f"StateEnsemble(m={self.m}, dim={self.dim})"


class Povm(Frozen):
    """A positive operator-valued measure: PSD elements summing to identity, checked.

    A non-Hermitian element raises :func:`hermitize`'s ``LinalgError``.
    """

    __slots__ = ("elements",)

    def __init__(self, elements):
        elements = tuple(np.asarray(e, dtype=np.complex128) for e in elements)
        if not elements:
            raise DiscriminationError("measurement needs at least one element")
        dim = elements[0].shape[0]
        total = np.zeros((dim, dim), dtype=np.complex128)
        for e in elements:
            if e.shape != (dim, dim):
                raise DiscriminationError("measurement elements differ in shape")
            if np.linalg.eigvalsh(hermitize(e)).min() < -POVM_PSD_TOL:
                raise DiscriminationError("measurement element is not positive semidefinite")
            total += e
        if np.abs(total - np.eye(dim)).max() > POVM_SUM_TOL:
            raise DiscriminationError("measurement elements do not sum to identity")
        object.__setattr__(self, "elements", elements)

    @property
    def dim(self) -> int:
        return self.elements[0].shape[0]

    def __len__(self):
        return len(self.elements)


def helstrom_binary(rho0, rho1, p0: float = 0.5) -> BoundReport:
    """Minimum error probability between two states with priors ``(p0, 1 - p0)``.

    This is ``(1 - ||p0 rho0 - p1 rho1||_1) / 2``, achieved by measuring the
    sign of the weighted difference; at unequal ``p0`` it checks the solver.
    """
    rho0 = rho0 if isinstance(rho0, DensityMatrix) else DensityMatrix(rho0)
    rho1 = rho1 if isinstance(rho1, DensityMatrix) else DensityMatrix(rho1)
    if rho0.dim != rho1.dim:
        raise DiscriminationError(f"dimension mismatch: {rho0.dim} vs {rho1.dim}")
    p0 = float(p0)
    if not 0.0 <= p0 <= 1.0:
        raise DiscriminationError(f"prior must lie in [0, 1], got {p0}")
    value = (1.0 - trace_norm(p0 * rho0.mat - (1.0 - p0) * rho1.mat)) / 2.0
    return BoundReport(value, KIND_EXACT, "helstrom_binary",
                       {"p0": p0, "dim": rho0.dim})


def _pinv_sqrt(mat):
    # Inverse square root on the support, plus the support projector.
    w, v = np.linalg.eigh(mat)
    keep = w > SUPPORT_CUT
    v = v[:, keep]
    inv_sqrt = (v / np.sqrt(w[keep])) @ v.conj().T
    return inv_sqrt, v @ v.conj().T


def _resum_to_identity(elements):
    """Conjugate the elements by the inverse square root of their sum.

    ``R^{-1/2} R R^{-1/2}`` misses the identity by the rounding of ``R`` over
    its smallest kept eigenvalue, which the solver's ``G_n Pi_n G_n`` make
    tiny; beyond 1e-12 the congruence restores the sum, keeping positivity.
    """
    total = sum(elements)
    if np.abs(total - np.eye(total.shape[0])).max() <= 1e-12:
        return elements
    w, v = np.linalg.eigh(hermitize(total))
    inv_sqrt = (v / np.sqrt(w)) @ v.conj().T
    return [inv_sqrt @ e @ inv_sqrt for e in elements]


def pgm_povm(ensemble: StateEnsemble) -> Povm:
    """Square-root measurement of an ensemble.

    Elements are ``S p_n rho_n S`` with ``S`` the inverse square root of the
    average state on its support; the deficit off the support is split
    evenly so the elements sum to the identity.
    """
    avg = sum(p * s.mat for p, s in zip(ensemble.priors, ensemble.states))
    inv_sqrt, proj = _pinv_sqrt(hermitize(avg))
    filler = (np.eye(ensemble.dim) - proj) / ensemble.m
    elements = [inv_sqrt @ (p * s.mat) @ inv_sqrt + filler
                for p, s in zip(ensemble.priors, ensemble.states)]
    return Povm(elements)


def pgm_error(ensemble: StateEnsemble) -> BoundReport:
    """Error probability of the square-root measurement (an upper bound).

    Computed without materializing the measurement: with ``C_n = S p_n rho_n``
    the success contribution of hypothesis ``n`` is ``tr(C_n C_n)``.
    """
    avg = sum(p * s.mat for p, s in zip(ensemble.priors, ensemble.states))
    inv_sqrt, _ = _pinv_sqrt(hermitize(avg))
    success = 0.0
    for p, state in zip(ensemble.priors, ensemble.states):
        if p == 0.0:
            continue
        c = inv_sqrt @ (p * state.mat)
        success += np.einsum("ij,ji->", c, c).real
    value = 1.0 - float(success)
    return BoundReport(value, KIND_UPPER, "pgm",
                       {"m": ensemble.m, "dim": ensemble.dim})


def helstrom_iterative(ensemble: StateEnsemble, max_iters: int = 5000):
    """Minimum error probability of an ensemble via measurement iteration.

    Starting from the square-root measurement, alternates the fixed-point
    update ``Pi_n <- R^{-1/2} A_n R^{-1/2}`` with ``A_n = G_n Pi_n G_n``,
    ``G_n = p_n rho_n`` and ``R = sum_n A_n``, whose fixed points are the
    optimal measurements.  Optimality is certified through the operator
    ``Y = herm(sum_n G_n Pi_n)``: if ``Y - G_n`` is positive semidefinite
    for all ``n`` the measurement is exactly optimal, and in general the
    minimum error lies within ``dim * |min eigenvalue|`` below the reported
    value.  Iteration stops once that residual eigenvalue is above
    ``-SOLVER_TOL``, or after ``max_iters`` updates (a small cap reaches the
    unconverged result cheaply); dimensions above ``SOLVER_MAX_DIM`` are refused.

    Returns
    -------
    (BoundReport, Povm, float)
        The error probability of the best iterate, the measurement
        achieving it, and the certified gap: the true minimum error lies in
        ``[value - gap, value]``.  The report is ``exact`` only when the
        iteration converged; otherwise it is ``upper``, the error of a
        valid but uncertified measurement.
    """
    if ensemble.dim > SOLVER_MAX_DIM:
        raise DiscriminationError(
            f"dimension {ensemble.dim} exceeds solver guard {SOLVER_MAX_DIM}; restrict the "
            f"states to their joint support first")
    dim = ensemble.dim
    weighted = [p * s.mat for p, s in zip(ensemble.priors, ensemble.states)]
    identity = np.eye(dim)
    elements = list(pgm_povm(ensemble).elements)

    best = None
    iterations = 0
    for iterations in range(1, max_iters + 1):
        raw = sum(g @ e for g, e in zip(weighted, elements))
        upsilon = (raw + raw.conj().T) / 2.0
        residual = min(np.linalg.eigvalsh(upsilon - g).min() for g in weighted)
        value = 1.0 - upsilon.trace().real
        gap = dim * max(0.0, -residual)
        if best is None or gap < best[1]:
            best = (value, gap, [e.copy() for e in elements], residual)
        if residual >= -SOLVER_TOL:
            break
        updated = [g @ e @ g for g, e in zip(weighted, elements)]
        updated = [(a + a.conj().T) / 2.0 for a in updated]
        inv_sqrt, proj = _pinv_sqrt(sum(updated))
        filler = (identity - proj) / ensemble.m
        elements = _resum_to_identity([inv_sqrt @ a @ inv_sqrt + filler for a in updated])

    value, gap, elements, residual = best
    converged = bool(residual >= -SOLVER_TOL)
    kind = KIND_EXACT if converged else KIND_UPPER
    report = BoundReport(value, kind, "helstrom_iterative", {
        "m": ensemble.m, "dim": dim, "iterations": iterations,
        "residual": float(residual), "converged": converged,
    })
    return report, Povm(elements), float(gap)


def gus_unitary_helstrom(eta: float, m: int) -> BoundReport:
    """Minimum error for ``m`` equiprobable symmetric pure states.

    Applies to ensembles generated by a cyclic unitary from one pure state
    such that all pairwise overlaps equal the same real ``eta`` in [0, 1]
    (for channel ensembles, ``eta`` is the per-use overlap raised to the
    number of uses).  The square-root measurement is optimal and gives

        ``P = (m - 1) / m**2 * (sqrt(1 + (m-1) eta) - sqrt(1 - eta))**2``.
    """
    m = int(m)
    if m < 2:
        raise DiscriminationError(f"need at least 2 hypotheses, got m={m}")
    eta = float(eta)
    if not 0.0 <= eta <= 1.0:
        raise DiscriminationError(f"overlap must lie in [0, 1], got {eta}")
    root = np.sqrt(1.0 + (m - 1) * eta) - np.sqrt(1.0 - eta)
    value = (m - 1) / m**2 * root**2
    return BoundReport(float(value), KIND_EXACT, "gus_pure_ppm", {"eta": eta, "m": m})
