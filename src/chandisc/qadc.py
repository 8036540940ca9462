"""Amplitude damping discrimination: bounds and an explicit receiver.

Amplitude damping channels are not teleportation-covariant, so unlike the
erasure and depolarizing families they admit no closed-form ultimate error.
The package instead brackets their block error between the pairwise-fidelity
sandwich and exact values (``O(u)`` binomial sums over the Kraus weight), and
lower-bounds the adaptive error through the port-based simulation route with
the damping-specific simulation error.

The module also implements a concrete entanglement-assisted receiver: a
"nulling" unitary that rotates the Choi state of a reference damping
parameter onto two outcome levels, so that any deviation of the actual
parameter populates a forbidden outcome.  Counting the four outcome levels
over ``u`` probes and applying maximum likelihood gives an achievable error,
hence an upper bound to compare the lower bounds against.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .channels import default_xi, qadc_pbt_error
from .cpf import cpf_fidelity_lb, cpf_sim_error, optimize_over_M
from .discrimination import KIND_EXACT, KIND_LOWER, KIND_UPPER, BoundReport
from .linalg import ChandiscError, check_prob
from .orc import _binom_pmf


class QadcError(ChandiscError):
    """Raised for invalid damping parameters or receiver settings."""


def qadc_choi_fidelity(q0, q1) -> float:
    """Fidelity between the Choi states of two damping channels.

        F = (1 + sqrt((1-q0)(1-q1)) + sqrt(q0 q1)) / 2

    Equals 1 exactly when ``q0 == q1``.
    """
    q0 = check_prob(q0, "q0", QadcError)
    q1 = check_prob(q1, "q1", QadcError)
    val = (1.0 + math.sqrt((1.0 - q0) * (1.0 - q1)) + math.sqrt(q0 * q1)) / 2.0
    return min(val, 1.0)


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


def _resolve_xi(xi, ports: int):
    if xi is None:
        return default_xi(ports)
    if callable(xi):
        return float(xi(ports))
    return float(xi)


def qadc_adaptive_lb(q0, q1, u: int, ports: int, xi=None) -> BoundReport:
    """Adaptive lower bound for two damping channels at a fixed port count.

    Simulating both hypotheses with ``ports``-port protocols costs the sum
    of their simulation errors per use; the simulated block error is then
    lower-bounded by the fidelity sandwich:

        ``(1 - u * (Δ_0 + Δ_1) - sqrt(1 - F**(2 u ports))) / 2``.
    """
    q0 = check_prob(q0, "q0", QadcError)
    q1 = check_prob(q1, "q1", QadcError)
    u = int(u)
    if u < 1:
        raise QadcError(f"need u >= 1, got {u}")
    ports = int(ports)
    if ports < 1:
        raise QadcError(f"need ports >= 1, got {ports}")
    xi_val = _resolve_xi(xi, ports)
    delta = qadc_pbt_error(q0, ports, xi_val).value + qadc_pbt_error(q1, ports, xi_val).value
    block = qadc_choi_fidelity(q0, q1) ** (u * ports)
    value = (1.0 - u * delta - math.sqrt(max(0.0, 1.0 - block * block))) / 2.0
    return BoundReport(value, KIND_LOWER, "qadc_adaptive_lb",
                       {"q0": q0, "q1": q1, "u": u, "ports": ports, "xi": xi_val})


def qadc_adaptive_lb_opt(q0, q1, u: int, xi=None, ports_range=(1, 10**6),
                         grid_points: int = 200):
    """Adaptive lower bound maximized over the simulation port count.

    Returns ``(BoundReport, MOptimizationResult)``; the report repeats the
    optimal value with the winning port count in its parameters.
    """
    def value_at(ports: int) -> float:
        return qadc_adaptive_lb(q0, q1, u, ports, xi=xi).value

    result = optimize_over_M(value_at, ports_range=ports_range, grid_points=grid_points)
    report = qadc_adaptive_lb(q0, q1, u, result.best_ports, xi=xi)
    return report, result


def qadc_cpf_adaptive_lb(q_b, q_t, m: int, u: int, ports: int, xi=None) -> BoundReport:
    """Adaptive lower bound for damping position finding at fixed ports.

    Combines the per-hypothesis simulation error ``(m-1) Δ_b + Δ_t`` with
    the position-finding fidelity bound at Choi fidelity ``F(q_b, q_t)``.
    """
    q_b = check_prob(q_b, "q_b", QadcError)
    q_t = check_prob(q_t, "q_t", QadcError)
    ports = int(ports)
    if ports < 1:
        raise QadcError(f"need ports >= 1, got {ports}")
    xi_val = _resolve_xi(xi, ports)
    delta = cpf_sim_error(qadc_pbt_error(q_b, ports, xi_val).value,
                          qadc_pbt_error(q_t, ports, xi_val).value, m)
    fid = qadc_choi_fidelity(q_b, q_t)
    inner = cpf_fidelity_lb(fid, m, u, ports, delta)
    return BoundReport(inner.value, KIND_LOWER, "qadc_cpf_adaptive_lb",
                       {"q_b": q_b, "q_t": q_t, "m": int(m), "u": int(u),
                        "ports": ports, "xi": xi_val})


def qadc_cpf_adaptive_lb_opt(q_b, q_t, m: int, u: int, xi=None,
                             ports_range=(1, 10**6), grid_points: int = 200):
    """Position-finding adaptive lower bound maximized over ports."""
    def value_at(ports: int) -> float:
        return qadc_cpf_adaptive_lb(q_b, q_t, m, u, ports, xi=xi).value

    result = optimize_over_M(value_at, ports_range=ports_range, grid_points=grid_points)
    report = qadc_cpf_adaptive_lb(q_b, q_t, m, u, result.best_ports, xi=xi)
    return report, result


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
    q0 = check_prob(q0, "q0", QadcError)
    q1 = check_prob(q1, "q1", QadcError)
    u = int(u)
    if u < 1:
        raise QadcError(f"need u >= 1, got {u}")
    rank0, rank1 = (2**u if q > 0.0 else 1 for q in (q0, q1))
    shared = rank0 if q0 == q1 else int(q0 > 0.0 and q1 > 0.0)
    params = {"q0": q0, "q1": q1, "u": u, "dim": rank0 + rank1 - shared}
    x, y = _binom_pmf(q0 / 2.0, u), _binom_pmf(q1 / 2.0, u)
    small, large = np.minimum(x, y), np.maximum(x, y)
    ratio = np.divide(small, large, out=np.zeros(u + 1), where=large > 0.0)
    gap = (math.sqrt(1.0 - q0) - math.sqrt(1.0 - q1)) ** 2 / ((2.0 - q0) * (2.0 - q1))
    log_power = np.arange(u, -1, -1) * math.log1p(-gap)
    return params, small, ratio, np.exp(log_power), -np.expm1(log_power)


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


def nulling_unitary(q) -> np.ndarray:
    """Receiver unitary that empties two outcome levels of a damping Choi state.

    Acting on the Choi state of the damping channel with the same parameter
    ``q``, the rotated state is diagonal ``[0, 0, 1 - q/2, q/2]``: outcomes
    0 and 1 are nulled.  Probing a channel with a different parameter leaks
    probability into outcome 0, which the counting receiver exploits.
    """
    q = check_prob(q, "q", QadcError)
    a = math.sqrt((1.0 - q) / (2.0 - q))
    b = 1.0 / math.sqrt(2.0 - q)
    return np.array([
        [-a, 0.0, 0.0, b],
        [0.0, 0.0, 1.0, 0.0],
        [b, 0.0, 0.0, a],
        [0.0, 1.0, 0.0, 0.0],
    ], dtype=np.complex128)


@dataclasses.dataclass(frozen=True, eq=False)
class OutcomeDistribution:
    """Four-outcome statistics of the nulling receiver on one probe."""

    probs: np.ndarray
    q_applied: float
    q_actual: float

    def __post_init__(self):
        probs = np.asarray(self.probs, dtype=np.float64)
        if probs.shape != (4,):
            raise QadcError(f"expected 4 outcome probabilities, got shape {probs.shape}")
        if probs.min() < -1e-12:
            raise QadcError(f"negative outcome probability {probs.min()}")
        if abs(probs.sum() - 1.0) > 1e-12:
            raise QadcError(f"outcome probabilities sum to {probs.sum()}")
        probs = np.clip(probs, 0.0, None)
        probs.setflags(write=False)
        object.__setattr__(self, "probs", probs)


def nulling_outcome_dist(q_applied, q_actual) -> OutcomeDistribution:
    """Outcome distribution of the ``q_applied`` nulling unitary.

    Equals the diagonal of ``U ρ U†`` for the Choi state ``ρ`` of the actual
    channel.  In closed form, with ``q = q_applied`` and ``q' = q_actual``:

        ``p = [p00, 0, 1 - q'/2 - p00, q'/2]``,
        ``p00 = (2 - q - q' - 2 sqrt((1-q)(1-q'))) / (4 - 2q)``.

    ``p00`` vanishes exactly at ``q' == q`` and is positive otherwise.
    """
    q = check_prob(q_applied, "q_applied", QadcError)
    qa = check_prob(q_actual, "q_actual", QadcError)
    p00 = (2.0 - q - qa - 2.0 * math.sqrt((1.0 - q) * (1.0 - qa))) / (4.0 - 2.0 * q)
    probs = np.array([p00, 0.0, 1.0 - qa / 2.0 - p00, qa / 2.0])
    return OutcomeDistribution(probs=probs, q_applied=q, q_actual=qa)


def nulling_error(q0, q1, u: int, variant: str = "apply_min") -> float:
    """Error probability of the counting nulling receiver over ``u`` probes.

    The receiver applies one fixed nulling unitary per probe, tallies the
    four outcomes, and picks the hypothesis by maximum likelihood.
    ``variant`` selects the applied parameter: ``apply_q0``, ``apply_q1``,
    or ``apply_min`` for the better of the two.  Outcome 1 never occurs, nor
    outcome 0 under the matched hypothesis, so the error is an ``O(u)`` sum
    over the outcome-3 count ``k`` when every probe gives 2 or 3:
    ``1/2 sum_k min(L_0(k), L_1(k))``, ``L(k) = s**u Binomial(u, p3/s)(k)``
    with ``s = p2 + p3``.
    """
    q0 = check_prob(q0, "q0", QadcError)
    q1 = check_prob(q1, "q1", QadcError)
    u = int(u)
    if u < 1:
        raise QadcError(f"need u >= 1, got {u}")
    if variant not in ("apply_q0", "apply_q1", "apply_min"):
        raise QadcError(f"unknown variant {variant!r}")
    if variant == "apply_min":
        return min(nulling_error(q0, q1, u, "apply_q0"),
                   nulling_error(q0, q1, u, "apply_q1"))
    applied = q0 if variant == "apply_q0" else q1
    likelihoods = []
    for q in (q0, q1):
        _, _, p2, p3 = nulling_outcome_dist(applied, q).probs
        kept = p2 + p3
        likelihoods.append(kept**u * _binom_pmf(p3 / kept, u))
    return float(np.minimum(*likelihoods).sum()) / 2.0
