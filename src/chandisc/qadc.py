"""Amplitude damping discrimination: bounds and an explicit receiver.

Amplitude damping channels are not teleportation-covariant, so unlike the
erasure and depolarizing families they admit no closed-form ultimate error.
The package instead brackets their block error between the pairwise-fidelity
sandwich and exact values (``O(u)`` binomial sums over the Kraus weight), and
lower-bounds the adaptive error through the port-based simulation route with
the damping-specific simulation error.  For finding one damping cell among
``m``, the square-root-measurement error is a sum over the ``C(m+u, m)``
sorted vectors of per-cell Kraus weights, each an eigenproblem of side at
most ``min(m, u+1)``.

The module also implements a concrete entanglement-assisted receiver: a
"nulling" unitary that rotates the Choi state of a reference damping
parameter onto two outcome levels, so that any deviation of the actual
parameter populates a forbidden outcome.  Counting the four outcome levels
over ``u`` probes and applying maximum likelihood gives an achievable error,
hence an upper bound to compare the lower bounds against.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .cpf import check_ports, cpf_fidelity_lb_values, cpf_sim_error, optimize_over_M
from .linalg import (KIND_EXACT, KIND_LOWER, KIND_UPPER, BoundReport, ChandiscError,
                     ChannelError, Frozen, check_prob)
from .orc import _binary_error, _binom_log_pmf, _binom_pmf


# Largest number of sorted cell-weight classes ``C(m+u, m)`` that
# :func:`qadc_cpf_block_pgm` sums over.  (m, u) = (6, 20) has 230230 and
# takes 1.2 s and 130 MB; (8, 20) has 3.1 million.
MAX_CPF_CLASSES = 1 << 18


class QadcError(ChandiscError):
    """Raised for invalid damping parameters or receiver settings."""


def qadc_choi_fidelity(q0, q1) -> float:
    """Fidelity between the Choi states of two damping channels.

        F = (1 + sqrt((1-q0)(1-q1)) + sqrt(q0 q1)) / 2

    Equals 1 exactly when ``q0 == q1``.
    """
    q0 = float(check_prob(q0, "q0", QadcError))
    q1 = float(check_prob(q1, "q1", QadcError))
    val = (1.0 + math.sqrt((1.0 - q0) * (1.0 - q1)) + math.sqrt(q0 * q1)) / 2.0
    # Distinct channels stay below 1 where the sum rounds to 1: at F = 1 the
    # sandwich's sqrt(1 - F**(2u)) would drop a term of order sqrt(1 - F).
    return min(val, 1.0 if q0 == q1 else math.nextafter(1.0, 0.0))


def fvg_sandwich(choi_fidelity: float, u: int):
    """Fidelity sandwich for the equiprobable binary block error.

    Returns ``(lower, upper)`` floats:

        ``(1 - sqrt(1 - F**(2u))) / 2  <=  P  <=  F**u / 2``.
    """
    choi_fidelity = float(choi_fidelity)
    if not 0.0 <= choi_fidelity <= 1.0:
        raise QadcError(f"fidelity must lie in [0, 1], got {choi_fidelity}")
    u = int(u)
    if u < 1:
        raise QadcError(f"need u >= 1, got {u}")
    block = choi_fidelity ** u
    lower = (1.0 - math.sqrt(max(0.0, 1.0 - block * block))) / 2.0
    return lower, block / 2.0


def default_xi(ports):
    """Default port scaling ``min(4 / M, 2)`` of the damping simulation error.

    Elementwise over an array of port counts.
    """
    return np.minimum(4.0 / np.asarray(ports), 2.0)


def qadc_sim_error_values(q, xi) -> np.ndarray:
    """Damping simulation errors ``xi * ((1 - q)/2 + sqrt(1 - q))``, elementwise over ``xi``.

    ``xi`` holds the port-dependent prefactor at each port count.  The
    damping-dependent factor vanishes at ``q = 1``, where the channel becomes
    a constant map that is simulable exactly.
    """
    q = float(check_prob(q, "q", ChannelError))
    xi = np.asarray(xi, dtype=np.float64)
    if not (xi >= 0.0).all():  # NaN fails the comparison too
        raise ChannelError(f"xi must be >= 0, got {xi.min()}")
    return xi * ((1.0 - q) / 2.0 + np.sqrt(1.0 - q))


class XiTable(Frozen):
    """Step-function simulation prefactor from tabulated knots.

    At ``M`` ports the value is that of the largest tabulated port count
    ``<= M``, extended as constant below the first knot; elementwise over
    arrays of port counts.  With ``xi`` constant between knots the adaptive
    bounds are non-increasing there, so the ``_opt`` functions pass the
    knots to :func:`~chandisc.cpf.optimize_over_M` as breakpoints.
    """

    __slots__ = ("ports", "values")

    def __init__(self, ports, values):
        ports = np.asarray(ports, dtype=np.int64)
        values = np.asarray(values, dtype=np.float64)
        if ports.ndim != 1 or ports.shape != values.shape or not ports.size:
            raise QadcError("xi table needs at least one knot and one value per port count")
        if (np.diff(ports) <= 0).any():
            raise QadcError("xi table port counts must increase strictly")
        if not np.isfinite(values).all():
            raise QadcError("xi table has non-finite values")
        if (values < 0.0).any():
            raise QadcError("xi table has negative values")
        object.__setattr__(self, "ports", ports)
        object.__setattr__(self, "values", values)

    def __call__(self, ports):
        idx = np.searchsorted(self.ports, ports, side="right") - 1
        return self.values[np.maximum(idx, 0)]


def _xi_at(ports: np.ndarray, xi) -> np.ndarray:
    # xi at each port count: default_xi for None, else the XiTable's steps.
    if xi is None:
        return default_xi(ports)
    if not isinstance(xi, XiTable):
        raise QadcError(f"xi must be None or an XiTable, got {type(xi).__name__}")
    return xi(ports)


def _maximize(kernel, xi, ports_range):
    # optimize_over_M with the knots of an XiTable as breakpoints
    return optimize_over_M(kernel, ports_range=ports_range,
                           breakpoints=xi.ports if isinstance(xi, XiTable) else ())


def qadc_adaptive_lb_values(q0, q1, u: int, ports, xi=None) -> np.ndarray:
    """Adaptive lower bound for two damping channels at each port count.

    Simulating both hypotheses with ``ports``-port protocols costs the sum
    of their simulation errors per use; the simulated block error is then
    lower-bounded by the fidelity sandwich:

        ``(1 - u * (Δ_0 + Δ_1) - sqrt(1 - F**(2 u ports))) / 2``.

    Elementwise over an int64 array of port counts.  ``xi`` is the
    simulation prefactor: ``None`` for :func:`default_xi`, or an
    :class:`XiTable`.
    """
    q0 = float(check_prob(q0, "q0", QadcError))
    q1 = float(check_prob(q1, "q1", QadcError))
    u = int(u)
    if u < 1:
        raise QadcError(f"need u >= 1, got {u}")
    ports = check_ports(ports, QadcError)
    xi = _xi_at(ports, xi)
    delta = qadc_sim_error_values(q0, xi) + qadc_sim_error_values(q1, xi)
    # Exponent in floats and float_power as in cpf_fidelity_lb_values.
    block = np.float_power(qadc_choi_fidelity(q0, q1), u * ports.astype(np.float64))
    return (1.0 - u * delta - np.sqrt(np.maximum(0.0, 1.0 - block * block))) / 2.0


def qadc_adaptive_lb_opt(q0, q1, u: int, xi=None, ports_range=(1, 10**6)):
    """Adaptive lower bound maximized over the simulation port count.

    Returns ``(BoundReport, MOptimizationResult)``; the report repeats the
    optimal value with the winning port count in its parameters.
    """
    result = _maximize(functools.partial(qadc_adaptive_lb_values, q0, q1, u, xi=xi), xi,
                       ports_range)
    params = {"q0": float(q0), "q1": float(q1), "u": int(u), "ports": result.best_ports}
    return BoundReport(result.best_value, KIND_LOWER, "qadc_adaptive_lb", params), result


def qadc_cpf_adaptive_lb_values(q_b, q_t, m: int, u: int, ports, xi=None) -> np.ndarray:
    """Adaptive lower bound for damping position finding at each port count.

    Combines the per-hypothesis simulation error ``(m-1) Δ_b + Δ_t`` with
    the position-finding fidelity bound at Choi fidelity ``F(q_b, q_t)``
    (:func:`~chandisc.cpf.cpf_fidelity_lb_values`).  Ports and ``xi`` as in
    :func:`qadc_adaptive_lb_values`.
    """
    q_b = float(check_prob(q_b, "q_b", QadcError))
    q_t = float(check_prob(q_t, "q_t", QadcError))
    ports = check_ports(ports, QadcError)
    xi = _xi_at(ports, xi)
    delta = cpf_sim_error(qadc_sim_error_values(q_b, xi), qadc_sim_error_values(q_t, xi), m)
    return cpf_fidelity_lb_values(qadc_choi_fidelity(q_b, q_t), m, u, ports, delta)


def qadc_cpf_adaptive_lb_opt(q_b, q_t, m: int, u: int, xi=None, ports_range=(1, 10**6)):
    """Position-finding adaptive lower bound maximized over ports."""
    result = _maximize(functools.partial(qadc_cpf_adaptive_lb_values, q_b, q_t, m, u, xi=xi),
                       xi, ports_range)
    params = {"q_b": float(q_b), "q_t": float(q_t), "m": int(m), "u": int(u),
              "ports": result.best_ports}
    return BoundReport(result.best_value, KIND_LOWER, "qadc_cpf_adaptive_lb", params), result


def _weight_blocks(q0, q1, u):
    """The 2×2 blocks of the block pair's prior-weighted Gram matrix.

    The two Kraus vectors of any two damping channels have disjoint
    supports, so the Gram matrix of the ``u``-fold Kraus vectors is a direct
    sum of 2×2 blocks, one per Kraus multi-index, fixed by its weight ``w``
    (the number of decay operators).  Summed over the ``C(u, w)`` indices of
    weight ``w``, the diagonals are the Binomial(u, q0/2) and Binomial(u,
    q1/2) pmfs ``x``, ``y`` and the squared off-diagonal is ``x y r**(u-w)``,
    ``r = 1 - (sqrt(1-q0) - sqrt(1-q1))**2 / ((2-q0)(2-q1))``.

    Returns the report parameters and, per ``w = 0..u``, ``min(x, y)``, the
    ratio ``min(x, y) / max(x, y)`` (0 where both vanish), ``r**(u-w)`` and
    ``1 - r**(u-w)``.  ``dim`` is the rank of the joint support: each state
    has rank ``2**u`` (1 at q = 0), and the two share every support vector
    when ``q0 == q1``, else only the all-decay one if both channels decay.
    """
    q0 = float(check_prob(q0, "q0", QadcError))
    q1 = float(check_prob(q1, "q1", QadcError))
    u = int(u)
    if u < 1:
        raise QadcError(f"need u >= 1, got {u}")
    rank0, rank1 = (2**u if q > 0.0 else 1 for q in (q0, q1))
    shared = rank0 if q0 == q1 else int(q0 > 0.0 and q1 > 0.0)
    params = {"q0": q0, "q1": q1, "u": u, "dim": rank0 + rank1 - shared}
    x, y = _binom_pmf(q0 / 2.0, u), _binom_pmf(q1 / 2.0, u)
    small, large = np.minimum(x, y), np.maximum(x, y)
    ratio = np.divide(small, large, out=np.zeros(u + 1), where=large > 0.0)
    log_power = np.arange(u, -1, -1) * _log_r(q0, q1)
    return params, small, ratio, np.exp(log_power), -np.expm1(log_power)


def _log_r(q0, q1) -> float:
    # log r, r = 1 - (sqrt(1-q0) - sqrt(1-q1))**2 / ((2-q0)(2-q1)); 0 iff the Grams match.
    gap = (math.sqrt(1.0 - q0) - math.sqrt(1.0 - q1)) ** 2 / ((2.0 - q0) * (2.0 - q1))
    return math.log1p(-gap)


def qadc_block_helstrom(q0, q1, u: int) -> BoundReport:
    """Exact equiprobable block error for two damping channels.

    The Helstrom error of the ``u``-fold Choi tensor powers, exact for block
    (non-adaptive, entanglement assisted) strategies.  Each weight block
    (see :func:`_weight_blocks`) holds two unnormalized pure states; their
    trace distance leaves one positive term per block, evaluated divided
    through by ``max(x, y)`` so that no product of two small pmfs underflows:

        ``P = 1/2 sum_w x y r**(u-w) / ((x+y)/2 + sqrt(((x-y)/2)**2 + x y (1 - r**(u-w))))``
    """
    params, small, ratio, overlap, spread = _weight_blocks(q0, q1, u)
    root = np.sqrt(((1.0 - ratio) / 2.0) ** 2 + ratio * spread)
    value = 0.5 * float(np.sum(small * overlap / ((1.0 + ratio) / 2.0 + root)))
    return BoundReport(value, KIND_EXACT, "qadc_block_helstrom", params)


def qadc_block_pgm(q0, q1, u: int) -> BoundReport:
    """Square-root-measurement error on the block pair.

    The error ``1 - sum_n ||(√G)_nn||_F**2`` over the two diagonal blocks of
    the square root of the prior-weighted Gram matrix, summed weight block
    by weight block (see :func:`_weight_blocks`) and divided through by
    ``max(x, y)``:

        ``P = sum_w x y r**(u-w) / (x + y + 2 sqrt(x y (1 - r**(u-w))))``
    """
    params, small, ratio, overlap, spread = _weight_blocks(q0, q1, u)
    value = float(np.sum(small * overlap / (1.0 + ratio + 2.0 * np.sqrt(ratio * spread))))
    return BoundReport(value, KIND_UPPER, "qadc_block_pgm", params)


def _class_count(m: int, u: int) -> int:
    # C(m + u, m), or MAX_CPF_CLASSES + 1 as soon as it exceeds the guard.
    count = 1
    for j in range(1, min(m, u) + 1):
        count = count * (max(m, u) + j) // j
        if count > MAX_CPF_CLASSES:
            return MAX_CPF_CLASSES + 1
    return count


def _nondecreasing(length: int, top: int) -> np.ndarray:
    # Every non-decreasing tuple of ``length`` entries in 0..top, one per row.
    rows = np.zeros((1, 1), dtype=np.int64)  # a leading 0 constrains nothing
    for _ in range(length):
        last = rows[:, -1]
        reps = top + 1 - last
        parent = np.repeat(np.arange(len(rows)), reps)
        step = np.arange(parent.size) - np.repeat(np.cumsum(reps) - reps, reps)
        rows = np.column_stack([rows[parent], last[parent] + step])
    return rows[:, 1:]


@functools.lru_cache(maxsize=32)
def _weight_classes(m: int, u: int, side: int):
    # The sorted weight vectors with ``side`` distinct weights, in two
    # factors: every increasing row of those weights, and every row of how
    # many cells hold each; each pairing of the two is one vector.  Built
    # once per (m, u, side) and shared by every sweep point, hence
    # read-only; the pairings are many, so the caller forms them.
    weights = _nondecreasing(side, u + 1 - side) + np.arange(side)
    cuts = _nondecreasing(side - 1, m - side) + np.arange(1, side)
    groups = np.diff(cuts, axis=1, prepend=0, append=m)
    for table in (weights, groups):
        table.setflags(write=False)
    return weights, groups


def qadc_cpf_block_pgm(q_b, q_t, m: int, u: int) -> BoundReport:
    """Square-root-measurement error for damping position finding.

    The per-use damping Grams are diagonal, so the prior-weighted Gram of
    the ``m`` block hypotheses is a direct sum of ``m × m`` blocks, one per
    Kraus multi-index, fixed by the cells' Kraus weights ``w_c``.  Divided
    by ``D = prod_c B0**(u-w_c) B1**w_c`` (``B0, B1 = (2-q_b)/2, q_b/2``)
    a block is ``(1/m) (diag(d) + b bᵀ)`` with, per cell,

        ``b(w) = (x0/B0)**(u-w) (x1/B1)**w``,  ``d(w) = b(w)**2 (r**-(u-w) - 1)``,

    ``x0 = (1 + sqrt((1-q_b)(1-q_t)))/2``, ``x1 = sqrt(q_b q_t)/2`` and the
    pair's ``r``.  The PGM success ``sum_n ||(√G)_nn||_F**2`` is then a sum
    over the ``C(m+u, m)`` sorted weight vectors, weighted by their
    multinomial count times ``prod_c Binomial(u, q_b/2)(w_c)``.  ``g`` cells
    of equal weight give ``g - 1`` eigenvalues exactly ``d`` and one
    collective coordinate with ``b sqrt(g)``, so every eigenproblem has the
    side of the number of distinct weights, and classes of equal side are
    decomposed together.  Each block is scaled by its largest diagonal
    entry, in logs, so no power overflows.  At ``q_b = 0`` only the classes
    where the target cell alone decays escape the normalisation; they
    identify the target and add ``1 - (1 - q_t/2)**u`` to the success.

    Raises before allocating when ``C(m+u, m)`` exceeds ``MAX_CPF_CLASSES``.
    """
    q_b = float(check_prob(q_b, "q_b", QadcError))
    q_t = float(check_prob(q_t, "q_t", QadcError))
    m, u = int(m), int(u)
    if m < 2 or u < 1:
        raise QadcError(f"need m >= 2 cells and u >= 1 uses, got m = {m}, u = {u}")
    classes = _class_count(m, u)
    if classes > MAX_CPF_CLASSES:
        raise QadcError(f"weight class count C({m + u}, {m}) exceeds guard {MAX_CPF_CLASSES}")
    params = {"q_b": q_b, "q_t": q_t, "m": m, "u": u, "classes": classes}
    log_r = _log_r(q_b, q_t)
    mass_q = q_b / 2.0
    w = np.arange(u + 1)
    with np.errstate(divide="ignore", invalid="ignore"):
        # x1/B1 = sqrt(q_t/q_b), taken to the power w with 0**0 = 1; where
        # mass_q = 0 the masses of w > 0 vanish and b does not matter there.
        if mass_q == 0.0 or q_t == 0.0:
            log_ratio = -math.inf
        elif q_t / q_b < math.inf:
            log_ratio = math.log(q_t / q_b)
        else:
            log_ratio = math.log(q_t) - math.log(q_b)
        # x0/B0 = 1 - sqrt(1-q_b) (sqrt(1-q_b) - sqrt(1-q_t)) / (2-q_b), exactly 1 at q_b = q_t
        root_b = math.sqrt(1.0 - q_b)
        log_no_decay = math.log1p(-root_b * (root_b - math.sqrt(1.0 - q_t)) / (2.0 - q_b))
        log_b = (u - w) * log_no_decay + np.where(w > 0, w * log_ratio / 2.0, 0.0)
        excess = -(u - w) * log_r
        log_d = 2.0 * log_b + excess + np.log(-np.expm1(-excess))
    log_mass = _binom_log_pmf(mass_q, u)
    log_fact = np.array([math.lgamma(g + 1) for g in range(m + 1)])

    success = 0.0
    for side in range(1, min(m, u + 1) + 1):
        weights, groups = _weight_classes(m, u, side)
        weight = np.repeat(weights, len(groups), axis=0)
        group = np.tile(groups, (len(weights), 1))
        log_weight = (log_fact[m] - log_fact[group].sum(axis=1)
                      + (group * log_mass[weight]).sum(axis=1))
        kept = np.isfinite(log_weight)  # classes of zero mass drop out
        weight, group, log_weight = weight[kept], group[kept], log_weight[kept]
        log_beta = log_b[weight] + np.log(group) / 2.0
        log_scale = np.logaddexp(log_d[weight], 2.0 * log_beta).max(axis=1)
        log_scale[np.isinf(log_scale)] = 0.0  # every cell's vector vanishes
        diag = np.exp(log_d[weight] - log_scale[:, None])
        beta = np.exp(log_beta - log_scale[:, None] / 2.0)
        if log_r == 0.0:  # no diagonal part: the rank-one root is exact
            norm = np.sqrt(np.sum(beta**2, axis=1, keepdims=True))
            root = np.divide(beta**2, norm, out=np.zeros_like(beta), where=norm > 0.0)
        else:
            block = beta[:, :, None] * beta[:, None, :]
            block[:, np.arange(side), np.arange(side)] += diag
            eigval, eigvec = np.linalg.eigh(block)
            root = np.einsum("nij,nj->ni", eigvec**2, np.sqrt(np.clip(eigval, 0.0, None)))
        cell = np.sqrt(diag) * (1.0 - 1.0 / group) + root / group
        scale = np.exp(log_weight + log_scale)
        success += float(scale @ np.sum(group * cell**2, axis=1))
    success /= m
    if mass_q == 0.0:
        success += -math.expm1(u * math.log1p(-q_t / 2.0))
    return BoundReport(1.0 - success, KIND_UPPER, "qadc_cpf_block_pgm", params)


def nulling_unitary(q) -> np.ndarray:
    """Receiver unitary that empties two outcome levels of a damping Choi state.

    Acting on the Choi state of the damping channel with the same parameter
    ``q``, the rotated state is diagonal ``[0, 0, 1 - q/2, q/2]``: outcomes
    0 and 1 are nulled.  Probing a channel with a different parameter leaks
    probability into outcome 0, which the counting receiver exploits.
    """
    q = float(check_prob(q, "q", QadcError))
    a = math.sqrt((1.0 - q) / (2.0 - q))
    b = 1.0 / math.sqrt(2.0 - q)
    return np.array([
        [-a, 0.0, 0.0, b],
        [0.0, 0.0, 1.0, 0.0],
        [b, 0.0, 0.0, a],
        [0.0, 1.0, 0.0, 0.0],
    ], dtype=np.complex128)


def nulling_outcome_dist(q_applied, q_actual) -> np.ndarray:
    """Outcome distribution of the ``q_applied`` nulling unitary.

    Equals the diagonal of ``U ρ U†`` for the Choi state ``ρ`` of the actual
    channel.  In closed form, with ``q = q_applied`` and ``q' = q_actual``:

        ``p = [p00, 0, 1 - q'/2 - p00, q'/2]``,
        ``p00 = (sqrt(1-q) - sqrt(1-q'))**2 / (4 - 2q)``.

    No entry needs clipping at 0: ``p00`` is a square, exactly 0 at
    ``q' == q``; ``q'/2`` is not negative; and with ``x = sqrt(1-q)``,
    ``y = sqrt(1-q')`` the third entry equals ``(1 + x y)**2 / (2 (1 + x**2))``,
    at least 1/4, far above the rounding of its difference form.  Returns a
    read-only array.
    """
    q = float(check_prob(q_applied, "q_applied", QadcError))
    qa = float(check_prob(q_actual, "q_actual", QadcError))
    p00 = (math.sqrt(1.0 - q) - math.sqrt(1.0 - qa)) ** 2 / (4.0 - 2.0 * q)
    probs = np.array([p00, 0.0, 1.0 - qa / 2.0 - p00, qa / 2.0])
    if abs(probs.sum() - 1.0) > 1e-12:
        raise QadcError(f"outcome probabilities sum to {probs.sum()}")
    probs.setflags(write=False)
    return probs


def _nulling_table(applied, q, u: int) -> np.ndarray:
    # The nulling receiver's count table for channel q: s**u Binomial(u, p3/s)
    # over the outcome-3 count, s = 1 - p00, and an atom 1 - s**u for "some
    # outcome 0"; both powers from u log1p(-p00), which keeps a small p00's bits.
    p00, _, _, p3 = nulling_outcome_dist(applied, q)
    log_none = u * math.log1p(-p00)
    return np.append(math.exp(log_none) * _binom_pmf(p3 / (1.0 - p00), u), -math.expm1(log_none))


def nulling_error(q0, q1, u: int) -> tuple[float, float]:
    """Error probabilities of the counting nulling receiver over ``u`` probes.

    The receiver applies one fixed nulling unitary per probe, tallies the
    four outcomes, and picks the hypothesis by maximum likelihood.  Returns
    ``(apply_q0, apply_q1)``, the errors with the unitary matched to ``q0``
    and to ``q1``; the better receiver is their ``min``, and neither match
    is better everywhere.  Outcome 1 never occurs, nor outcome 0 under the
    matched hypothesis, so each error is orc's binary counting functional on
    the outcome-3 count tables, each with an atom for "some outcome 0".
    """
    q0 = float(check_prob(q0, "q0", QadcError))
    q1 = float(check_prob(q1, "q1", QadcError))
    u = int(u)
    if u < 1:
        raise QadcError(f"need u >= 1, got {u}")
    return tuple(float(_binary_error(_nulling_table(applied, q0, u),
                                     _nulling_table(applied, q1, u)))
                 for applied in (q0, q1))
