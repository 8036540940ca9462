"""Dense matrix primitives shared by every bound computation.

Everything here works on plain ``numpy.ndarray`` data in column conventions:
states are square complex128 matrices.  The helpers deliberately stay small;
the point of the module is to give the rest of the package one vetted
implementation of the handful of operations (tensoring, trace norm,
fidelity, Gram-space compression) whose numerical details are easy to get
subtly wrong.  Block states ``A_n A_n†`` are never built in their ambient
space: :func:`gram_states` recovers them, in a basis of their joint support,
from the Gram matrix of the columns of all the ``A_n``.
"""

from __future__ import annotations

import numpy as np

# Tolerances used across the package.  HERM_TOL / EIG_TOL / TRACE_TOL gate
# state validation.  Gram eigenvalues below GRAM_CUT times the largest are
# rounding noise of zero eigenvalues: keeping them moved one tested PGM error
# by 6e-10, while a cut of 1e-12 dropped genuine ones (errors near 6e-13).
HERM_TOL = 1e-10
EIG_TOL = 1e-10
TRACE_TOL = 1e-10
GRAM_CUT = 1e-14

# Reject tensor products whose side length would exceed this.
MAX_TENSOR_SIDE = 1 << 20


class ChandiscError(ValueError):
    """Base of every error the package raises for an input it refuses."""


class LinalgError(ChandiscError):
    """Raised when an input violates a documented precondition."""


def first_outside(values: np.ndarray, lo: float, hi: float):
    """The first entry of ``values`` outside ``[lo, hi]`` as a float, or None.

    NaN fails both comparisons with the bounds, so it counts as outside.
    Arrays are tested through their minimum and maximum, which NaN turns
    into NaN; the elementwise comparisons run only to name a failing entry.
    """
    if values.ndim == 0:
        value = float(values)  # numpy's ufuncs on a 0-d array cost microseconds
        return None if lo <= value <= hi else value
    if not values.size or lo <= values.min() and values.max() <= hi:
        return None
    return float(values[~((values >= lo) & (values <= hi))][0])


def check_prob(q, name: str = "q", error=LinalgError):
    """``q`` as a float, or a float64 array, raising ``error`` unless every entry lies in [0, 1].

    NaN is refused with the rest.
    """
    values = np.asarray(q, dtype=np.float64)
    bad = first_outside(values, 0.0, 1.0)
    if bad is not None:
        raise error(f"{name} must lie in [0, 1], got {bad}")
    return float(values) if values.ndim == 0 else values


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
    """
    mat = as_complex_matrix(mat)
    if mat.shape[0] != mat.shape[1]:
        raise LinalgError(f"expected a square matrix, got shape {mat.shape}")
    herm = (mat + mat.conj().T) / 2.0
    drift = np.abs(mat - herm).max() if mat.size else 0.0
    if drift > tol:
        raise LinalgError(f"matrix is not Hermitian: drift {drift:.3e} > {tol:.3e}")
    return herm


class DensityMatrix:
    """A validated quantum state.

    Parameters
    ----------
    mat : array_like
        Square complex matrix.  With ``validate=True`` (the default) it must
        be Hermitian within ``HERM_TOL``, have unit trace within
        ``TRACE_TOL`` and eigenvalues above ``-EIG_TOL``.
    validate : bool
        Skip the eigenvalue/trace checks.  Internal hot paths that construct
        states which are positive by construction (e.g. states compressed
        from a Gram matrix) pass ``False``; external inputs should not.
    """

    __slots__ = ("mat",)

    def __init__(self, mat, *, validate: bool = True):
        mat = as_complex_matrix(mat)
        if mat.shape[0] != mat.shape[1]:
            raise LinalgError(f"state must be square, got shape {mat.shape}")
        if validate:
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


def tensor(a, b, max_side: int = MAX_TENSOR_SIDE) -> np.ndarray:
    """Kronecker product with a guard against absurd output sizes."""
    a = as_complex_matrix(a)
    b = as_complex_matrix(b)
    side = max(a.shape[0] * b.shape[0], a.shape[1] * b.shape[1])
    if side > max_side:
        raise LinalgError(f"tensor product side {side} exceeds guard {max_side}")
    return np.kron(a, b)


def tensor_all(mats, max_side: int = MAX_TENSOR_SIDE) -> np.ndarray:
    """Left-associated Kronecker product of a sequence of matrices."""
    mats = list(mats)
    if not mats:
        raise LinalgError("tensor_all needs at least one factor")
    out = as_complex_matrix(mats[0])
    for m in mats[1:]:
        out = tensor(out, m, max_side=max_side)
    return out


def partial_trace(mat, dims, keep) -> np.ndarray:
    """Trace out all tensor factors except those listed in ``keep``.

    Parameters
    ----------
    mat : array_like
        Square matrix on a tensor-product space with factor sizes ``dims``
        (first factor most significant, matching ``numpy.kron`` order).
    dims : sequence of int
    keep : sequence of int
        Indices of factors to retain, in ascending order.
    """
    mat = as_complex_matrix(mat)
    dims = tuple(int(d) for d in dims)
    keep = tuple(sorted(int(k) for k in keep))
    n = len(dims)
    if mat.shape[0] != np.prod(dims) or mat.shape[0] != mat.shape[1]:
        raise LinalgError("matrix shape does not match the factor dimensions")
    if any(k < 0 or k >= n for k in keep):
        raise LinalgError("keep indices out of range")
    tensor_form = mat.reshape(dims + dims)
    # Trace highest factors first so lower axis indices stay valid.
    for ax in sorted(set(range(n)) - set(keep), reverse=True):
        tensor_form = np.trace(tensor_form, axis1=ax, axis2=ax + tensor_form.ndim // 2)
    kept_dim = int(np.prod([dims[k] for k in keep])) if keep else 1
    return tensor_form.reshape(kept_dim, kept_dim)


def trace_norm(mat) -> float:
    """Sum of singular values; for Hermitian input, the sum of |eigenvalues|."""
    mat = as_complex_matrix(mat)
    if mat.shape[0] != mat.shape[1]:
        return float(np.linalg.svd(mat, compute_uv=False).sum())
    if np.abs(mat - mat.conj().T).max() <= 1e-10:
        herm = (mat + mat.conj().T) / 2.0
        return float(np.abs(np.linalg.eigvalsh(herm)).sum())
    return float(np.linalg.svd(mat, compute_uv=False).sum())


def _psd_sqrt(mat) -> np.ndarray:
    # mat must already be Hermitian; small negative eigenvalues are clipped.
    w, v = np.linalg.eigh(mat)
    w = np.clip(w, 0.0, None)
    return (v * np.sqrt(w)) @ v.conj().T


def fidelity(rho, sigma) -> float:
    """Uhlmann fidelity ``tr|√ρ √σ|`` of two states, clipped to [0, 1].

    Accepts ``DensityMatrix`` or raw arrays; raw arrays are validated.
    """
    rho = rho if isinstance(rho, DensityMatrix) else DensityMatrix(rho)
    sigma = sigma if isinstance(sigma, DensityMatrix) else DensityMatrix(sigma)
    if rho.dim != sigma.dim:
        raise LinalgError(f"dimension mismatch: {rho.dim} vs {sigma.dim}")
    prod = _psd_sqrt(hermitize(rho.mat, 1e-8)) @ _psd_sqrt(hermitize(sigma.mat, 1e-8))
    val = float(np.linalg.svd(prod, compute_uv=False).sum())
    if val > 1.0 + 1e-9:
        raise LinalgError(f"fidelity {val} exceeds 1 beyond tolerance")
    return min(max(val, 0.0), 1.0)


def kron_power(mat, power: int) -> np.ndarray:
    """``power``-fold Kronecker power of ``mat``; real input stays real."""
    power = int(power)
    if power < 1:
        raise LinalgError(f"Kronecker power must be >= 1, got {power}")
    out = mat = np.asarray(mat)
    for _ in range(power - 1):
        out = np.kron(out, mat)
    return out


def gram_states(gram, sizes):
    """The states of several vector families, known only through their Gram matrix.

    If ``gram = A† A`` for ``A = [A_0, A_1, ...]``, whose blocks have
    ``sizes`` columns, the eigenpairs ``(Λ, U)`` of ``gram`` above
    ``GRAM_CUT`` times its largest eigenvalue give ``X = Λ^{1/2} U†`` with
    ``A = Q X`` for one isometry ``Q``.  The returned states ``X_n X_n†``
    therefore equal ``Q† A_n A_n† Q``: every state keeps its spectrum and
    every real combination of them keeps its trace norm, at the dimension
    of the joint support.  Real ``gram`` is decomposed in real arithmetic and gives
    real states.

    Returns
    -------
    list of numpy.ndarray
        One square matrix per block, all of the kept rank.
    """
    gram = np.asarray(gram)
    sizes = [int(s) for s in sizes]
    if not sizes or min(sizes) < 1:
        raise LinalgError("need at least one block of at least one column")
    if gram.ndim != 2 or gram.shape != (sum(sizes), sum(sizes)):
        raise LinalgError(f"Gram shape {gram.shape} does not match block sizes {sizes}")
    w, v = np.linalg.eigh(gram)
    kept = w > GRAM_CUT * w[-1]
    x = np.sqrt(w[kept])[:, None] * v[:, kept].conj().T
    return [b @ b.conj().T for b in np.split(x, np.cumsum(sizes)[:-1], axis=1)]
