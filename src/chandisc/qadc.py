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
hence an upper bound to compare the lower bounds against.  Only the outcome
distribution is needed here; the unitary itself is built by
:mod:`chandisc.crosscheck`, which checks that distribution against it.
Except :func:`qadc_cpf_block_pgm`, each function is elementwise over arrays.
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np

from .cpf import _fidelity_lb, argmax_ports, pair_peak, position_peak
from .linalg import (KIND_EXACT, KIND_LOWER, KIND_UPPER, BoundReport, ChandiscError, Frozen,
                     as_item, check_count, check_counts, check_one_prob, check_prob, first_outside)
from .orc import (_binary_error, _binom_log_pmf, _binom_pmf, _in_passes, _per_element,
                  _probabilities)


# Largest number of sorted cell-weight classes ``C(m+u, m)`` that
# :func:`qadc_cpf_block_pgm` sums over.  (m, u) = (6, 20) has 230230 and
# takes 1.2 s and 130 MB; (8, 20) has 3.1 million.
MAX_CPF_CLASSES = 1 << 18


def qadc_choi_fidelity(q0, q1):
    """Fidelity between the Choi states of two damping channels.

        F = (1 + sqrt((1-q0)(1-q1)) + sqrt(q0 q1)) / 2

    Equals 1 exactly when ``q0 == q1``.
    """
    q0, q1 = _probabilities((("q0", q0), ("q1", q1)))
    val = (1.0 + np.sqrt((1.0 - q0) * (1.0 - q1)) + np.sqrt(q0 * q1)) / 2.0
    # Distinct channels stay below 1 where the sum rounds to 1: at F = 1 the
    # sandwich's sqrt(1 - F**(2u)) would drop a term of order sqrt(1 - F).
    return as_item(np.minimum(val, np.where(q0 == q1, 1.0, np.nextafter(1.0, 0.0))))


def fvg_sandwich(choi_fidelity, u: int):
    """Fidelity sandwich for the equiprobable binary error of Choi-probe block strategies.

    Returns ``(lower, upper)``:

        ``(1 - sqrt(1 - F**(2u))) / 2  <=  P  <=  F**u / 2``.
    """
    choi_fidelity = check_prob(choi_fidelity, "fidelity")
    u = check_count(u, "u", 1)
    block = np.float_power(choi_fidelity, u)  # pow per element, as Python's ``**``
    lower = (1.0 - np.sqrt(np.maximum(0.0, 1.0 - block * block))) / 2.0
    return as_item(lower), as_item(block / 2.0)


def default_xi(ports):
    """Default port scaling ``min(4 / M, 2)`` of the damping simulation error, per port count."""
    return np.minimum(4.0 / np.asarray(ports), 2.0)


def _sim_factor(q):
    # the damping factor (1 - q)/2 + sqrt(1 - q) of the simulation error
    return (1.0 - q) / 2.0 + np.sqrt(1.0 - q)


class XiTable(Frozen):
    """Step-function simulation prefactor from tabulated knots.

    At ``M`` ports the value is that of the largest tabulated port count
    ``<= M``, extended as constant below the first knot; elementwise over
    arrays of port counts.  Knots are counts (``check_counts``), values
    finite and non-negative; the port optima evaluate only the low end of
    the range and the knots in it (:func:`~chandisc.cpf.argmax_ports`).
    """

    __slots__ = ("ports", "values")

    def __init__(self, ports, values):
        ports = check_counts(ports, "port count", 1)
        values = np.asarray(values, dtype=np.float64)
        if ports.ndim != 1 or ports.shape != values.shape or not ports.size:
            raise ChandiscError("xi table needs at least one knot and one value per port count")
        if (np.diff(ports) <= 0).any():
            raise ChandiscError("xi table port counts must increase strictly")
        if not np.isfinite(values).all():
            raise ChandiscError("xi table has non-finite values")
        if (values < 0.0).any():
            raise ChandiscError("xi table has negative values")
        object.__setattr__(self, "ports", ports)
        object.__setattr__(self, "values", values)

    def __call__(self, ports):
        idx = np.searchsorted(self.ports, ports, side="right") - 1
        return self.values[np.maximum(idx, 0)]


def _xi(xi):
    # xi as a function of port counts, and the counts where it steps (None for default_xi)
    if xi is None:
        return default_xi, None
    if not isinstance(xi, XiTable):
        raise ChandiscError(f"xi must be None or an XiTable, got {type(xi).__name__}")
    return xi, xi.ports


def qadc_adaptive_lb_values(q0, q1, u: int, ports, xi=None) -> np.ndarray:
    """Adaptive lower bound for two damping channels at each port count.

    Simulating both hypotheses with ``ports``-port protocols costs the sum
    of their simulation errors per use; the simulated block error is then
    lower-bounded by the fidelity sandwich:

        ``(1 - u * (Δ_0 + Δ_1) - sqrt(1 - F**(2 u ports))) / 2``.

    The port counts broadcast against the points.  ``xi`` is the
    simulation prefactor: ``None`` for :func:`default_xi`, or an
    :class:`XiTable`.
    """
    q0, q1 = _probabilities((("q0", q0), ("q1", q1)))
    u = check_count(u, "u", 1)
    ports = check_counts(ports, "port count", 1)
    xi = _xi(xi)[0](ports)
    delta = xi * _sim_factor(q0) + xi * _sim_factor(q1)
    # Exponent in floats and float_power as in cpf._fidelity_lb.
    block = np.float_power(qadc_choi_fidelity(q0, q1), u * ports.astype(np.float64))
    return (1.0 - u * delta - np.sqrt(np.maximum(0.0, 1.0 - block * block))) / 2.0


def qadc_adaptive_lb_opt(q0, q1, u: int, xi=None, ports_range=(1, 10**6)) -> BoundReport:
    """Adaptive lower bound maximized over the simulation port count.

    The report's ``ports`` parameter is the winning port count.  With the
    default xi and ``M >= 2`` ports the bound is ``(1 - B/M - sqrt(1 -
    e**(-c M))) / 2``, ``B = 4 u (s(q0) + s(q1))``, ``s(q) = (1-q)/2 +
    sqrt(1-q)``, ``c = -2 u ln F``: it rises to a local maximum where ``h(M)
    = c M**2 e**(-c M) / (2 sqrt(1 - e**(-c M)))`` first reaches ``B``,
    falls, then rises toward 0 from below as the penalty fades; see
    :func:`~chandisc.cpf.argmax_ports`.
    """
    q0, q1 = _probabilities((("q0", q0), ("q1", q1)))
    u = check_count(u, "u", 1)
    ports, value = argmax_ports(functools.partial(
        qadc_adaptive_lb_values, q0[..., None], q1[..., None], u, xi=xi), ports_range,
        lambda f, s: pair_peak(-2.0 * u * math.log(f), 4.0 * u * s),
        qadc_choi_fidelity(q0, q1), _sim_factor(q0) + _sim_factor(q1), knots=_xi(xi)[1])
    params = {"q0": q0, "q1": q1, "u": u, "ports": ports}
    return BoundReport(value, KIND_LOWER, "qadc_adaptive_lb", params)


def qadc_cpf_adaptive_lb_values(q_b, q_t, m: int, u: int, ports, xi=None) -> np.ndarray:
    """Adaptive lower bound for damping position finding at each port count.

    Combines the per-hypothesis simulation error ``(m-1) Δ_b + Δ_t`` with
    the position-finding fidelity bound at Choi fidelity ``F(q_b, q_t)``
    (:func:`~chandisc.cpf._fidelity_lb`).  Ports and ``xi`` as in
    :func:`qadc_adaptive_lb_values`.
    """
    q_b, q_t = _probabilities((("q_b", q_b), ("q_t", q_t)))
    m, u = check_count(m, "m", 2), check_count(u, "u", 1)
    ports = check_counts(ports, "port count", 1)
    xi = _xi(xi)[0](ports)
    delta = (m - 1) * (xi * _sim_factor(q_b)) + xi * _sim_factor(q_t)
    return _fidelity_lb(qadc_choi_fidelity(q_b, q_t), m, u, ports, delta)


def qadc_cpf_adaptive_lb_opt(q_b, q_t, m: int, u: int, xi=None,
                             ports_range=(1, 10**6)) -> BoundReport:
    """Position-finding adaptive lower bound maximized over ports.

    The report's ``ports`` parameter is the winning port count.  With the
    default xi and ``M >= 2`` ports the bound is ``A e**(-c M) - B/M``, ``A =
    (m-1)/(2m)``, ``B = 2 u ((m-1) s(q_b) + s(q_t))``, ``c = -4 u ln F`` (``s``
    as in :func:`qadc_adaptive_lb_opt`): it rises to a local maximum where
    ``h(M) = c A M**2 e**(-c M)`` first reaches ``B``, falls, then rises
    toward 0 from below; see :func:`~chandisc.cpf.argmax_ports`.
    """
    q_b, q_t = _probabilities((("q_b", q_b), ("q_t", q_t)))
    m, u = check_count(m, "m", 2), check_count(u, "u", 1)
    ports, value = argmax_ports(functools.partial(
        qadc_cpf_adaptive_lb_values, q_b[..., None], q_t[..., None], m, u, xi=xi), ports_range,
        lambda f, s: position_peak(-4.0 * u * math.log(f), (m - 1) / (2.0 * m), 2.0 * u * s),
        qadc_choi_fidelity(q_b, q_t), (m - 1) * _sim_factor(q_b) + _sim_factor(q_t),
        knots=_xi(xi)[1])
    params = {"q_b": q_b, "q_t": q_t, "m": m, "u": u, "ports": ports}
    return BoundReport(value, KIND_LOWER, "qadc_cpf_adaptive_lb", params)


def _log_r(q0, q1) -> np.ndarray:
    # log r, r = 1 - (sqrt(1-q0) - sqrt(1-q1))**2 / ((2-q0)(2-q1)); 0 iff the Grams match.
    gap = np.float_power(np.sqrt(1.0 - q0) - np.sqrt(1.0 - q1), 2) / ((2.0 - q0) * (2.0 - q1))
    return _per_element(math.log1p, -gap)


def _block_pair(error, q0, q1, u: int, kind: str, method: str) -> BoundReport:
    """A block pair error, summed over the 2×2 blocks of its prior-weighted Gram matrix.

    The two Kraus vectors of any two damping channels have disjoint
    supports, so the Gram matrix of the ``u``-fold Kraus vectors is a direct
    sum of 2×2 blocks, one per Kraus multi-index, fixed by its weight ``w``
    (the number of decay operators).  Summed over the ``C(u, w)`` indices of
    weight ``w``, the diagonals are the Binomial(u, q0/2) and Binomial(u,
    q1/2) pmfs ``x``, ``y`` and the squared off-diagonal is ``x y r**(u-w)``,
    ``r = 1 - (sqrt(1-q0) - sqrt(1-q1))**2 / ((2-q0)(2-q1))``.

    ``error`` takes, per point and per ``w = 0..u`` along a last axis,
    ``min(x, y)``, the ratio ``min(x, y) / max(x, y)`` (0 where both
    vanish), ``r**(u-w)`` and ``1 - r**(u-w)``, and sums over ``w``; the
    sum is divided by the mean pmf total, as in ``orc._binary_error``, so
    that equal channels give exactly 1/2 though the pmfs sum to 1 only to
    rounding.  The points go in passes of bounded table size.  ``dim`` is
    the rank of the joint support: each state has rank ``2**u`` (1 at q =
    0), and the two share every support vector when ``q0 == q1``, else only
    the all-decay one if both channels decay.
    """
    q0, q1 = _probabilities((("q0", q0), ("q1", q1)))
    u = check_count(u, "u", 1)

    def weight_blocks(q0, q1):
        x, y = _binom_pmf(q0 / 2.0, u), _binom_pmf(q1 / 2.0, u)
        small, large = np.minimum(x, y), np.maximum(x, y)
        ratio = np.divide(small, large, out=np.zeros(small.shape), where=large > 0.0)
        log_power = np.arange(u, -1, -1) * _log_r(q0, q1)[..., None]
        mass = (x.sum(axis=-1) + y.sum(axis=-1)) / 2.0  # 1 up to rounding
        return error(small, ratio, np.exp(log_power), -np.expm1(log_power)) / mass
    # the tables first: a u they cannot hold raises MemoryError before 2**u is built
    value = _in_passes(weight_blocks, u, q0, q1)
    rank0, rank1 = (np.where(q > 0.0, np.array(2**u, dtype=object), 1) for q in (q0, q1))
    shared = np.where(q0 == q1, rank0, (q0 > 0.0) & (q1 > 0.0))
    return BoundReport(value, kind, method,
                       {"q0": q0, "q1": q1, "u": u, "dim": rank0 + rank1 - shared})


def qadc_block_helstrom(q0, q1, u: int) -> BoundReport:
    """Exact equiprobable block error for two damping channels.

    The Helstrom error of the ``u``-fold Choi tensor powers, exact for
    Choi-probe block strategies, not every non-adaptive one.  Each weight block
    (see :func:`_block_pair`) holds two unnormalized pure states; their
    trace distance leaves one positive term per block, evaluated divided
    through by ``max(x, y)`` so that no product of two small pmfs underflows:

        ``P = 1/2 sum_w x y r**(u-w) / ((x+y)/2 + sqrt(((x-y)/2)**2 + x y (1 - r**(u-w))))``
    """
    def error(small, ratio, overlap, spread):
        root = np.sqrt(((1.0 - ratio) / 2.0) ** 2 + ratio * spread)
        return 0.5 * np.sum(small * overlap / ((1.0 + ratio) / 2.0 + root), axis=-1)
    return _block_pair(error, q0, q1, u, KIND_EXACT, "qadc_block_helstrom")


def qadc_block_pgm(q0, q1, u: int) -> BoundReport:
    """Square-root-measurement error on the block pair of Choi-probe block strategies.

    The error ``1 - sum_n ||(√G)_nn||_F**2`` over the two diagonal blocks of
    the square root of the prior-weighted Gram matrix, summed weight block
    by weight block (see :func:`_block_pair`) and divided through by
    ``max(x, y)``:

        ``P = sum_w x y r**(u-w) / (x + y + 2 sqrt(x y (1 - r**(u-w))))``
    """
    def error(small, ratio, overlap, spread):
        return np.sum(small * overlap / (1.0 + ratio + 2.0 * np.sqrt(ratio * spread)), axis=-1)
    return _block_pair(error, q0, q1, u, KIND_UPPER, "qadc_block_pgm")


def _combinations(values, size: int) -> np.ndarray:
    # itertools.combinations(values, size) as rows, in its (lexicographic) order
    rows = math.comb(len(values), size)
    flat = itertools.chain.from_iterable(itertools.combinations(values, size))
    return np.fromiter(flat, np.int64, count=rows * size).reshape(rows, size)


@functools.lru_cache(maxsize=32)
def _weight_classes(m: int, u: int, side: int):
    """Sorted weight vectors of ``m`` cells with ``side`` distinct weights in ``0..u``.

    Two read-only tables: the increasing rows of distinct weights, and the
    rows of cells per weight (the gaps between 0, ``side - 1`` increasing
    cuts in ``1..m-1``, and ``m``).  Each pairing of two rows is one vector,
    formed by the caller.  Cached per ``(m, u, side)``, for every sweep point.
    """
    weights = _combinations(range(u + 1), side)
    groups = np.diff(_combinations(range(1, m), side - 1), axis=1, prepend=0, append=m)
    for table in (weights, groups):
        table.setflags(write=False)
    return weights, groups


def qadc_cpf_block_pgm(q_b, q_t, m: int, u: int) -> BoundReport:
    """Square-root-measurement error for damping position finding with Choi-probe block strategies.

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
    q_b = check_one_prob(q_b, "q_b")
    q_t = check_one_prob(q_t, "q_t")
    m, u = check_count(m, "m", 2), check_count(u, "u", 1)
    # C(m+u, m) >= 2**min(m, u), so it exceeds the guard once min(m, u) reaches its bit length
    small = min(m, u) < MAX_CPF_CLASSES.bit_length()
    classes = math.comb(m + u, m) if small else MAX_CPF_CLASSES + 1
    if classes > MAX_CPF_CLASSES:
        raise ChandiscError(f"weight class count C({m + u}, {m}) exceeds guard {MAX_CPF_CLASSES}")
    params = {"q_b": q_b, "q_t": q_t, "m": m, "u": u, "classes": classes}
    log_r = float(_log_r(q_b, q_t))
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


def nulling_outcome_dist(q_applied, q_actual) -> np.ndarray:
    """Outcome distribution of the ``q_applied`` nulling unitary.

    Equals the diagonal of ``U ρ U†`` for the Choi state ``ρ`` of the actual
    channel and ``U`` = :func:`chandisc.crosscheck.nulling_unitary`.  In
    closed form, with ``q = q_applied`` and ``q' = q_actual``:

        ``p = [p00, 0, 1 - q'/2 - p00, q'/2]``,
        ``p00 = (sqrt(1-q) - sqrt(1-q'))**2 / (4 - 2q)``.

    No entry needs clipping at 0: ``p00`` is a square, exactly 0 at
    ``q' == q``; ``q'/2`` is not negative; and with ``x = sqrt(1-q)``,
    ``y = sqrt(1-q')`` the third entry equals ``(1 + x y)**2 / (2 (1 + x**2))``,
    at least 1/4, far above the rounding of its difference form.  Returns a
    read-only array, the four outcomes along its last axis.
    """
    q, qa = _probabilities((("q_applied", q_applied), ("q_actual", q_actual)))
    p00 = np.float_power(np.sqrt(1.0 - q) - np.sqrt(1.0 - qa), 2) / (4.0 - 2.0 * q)
    probs = np.stack([p00, np.zeros_like(p00), 1.0 - qa / 2.0 - p00, qa / 2.0], axis=-1)
    bad = first_outside(probs.sum(axis=-1), 1.0 - 1e-12, 1.0 + 1e-12)
    if bad is not None:
        raise ChandiscError(f"outcome probabilities sum to {bad}")
    probs.setflags(write=False)
    return probs


def _nulling_table(applied, q, u: int) -> np.ndarray:
    # The nulling receiver's count tables for channel q: s**u Binomial(u, p3/s)
    # over the outcome-3 count, s = 1 - p00, and an atom 1 - s**u for "some
    # outcome 0"; both powers from u log1p(-p00), which keeps a small p00's bits.
    p00, _, _, p3 = np.moveaxis(nulling_outcome_dist(applied, q), -1, 0)
    log_none = u * _per_element(math.log1p, -p00)
    none, some = _per_element(math.exp, log_none), -_per_element(math.expm1, log_none)
    return np.append(none[..., None] * _binom_pmf(p3 / (1.0 - p00), u), some[..., None], axis=-1)


def nulling_error(q0, q1, u: int):
    """Error probabilities of the counting nulling receiver over ``u`` probes.

    The receiver applies one fixed nulling unitary per probe, tallies the
    four outcomes, and picks the hypothesis by maximum likelihood.  Returns
    ``(apply_q0, apply_q1)``, the errors with the unitary matched to ``q0``
    and to ``q1``; the better receiver is their ``min``, and neither match
    is better everywhere.  Outcome 1 never occurs, nor outcome 0 under the
    matched hypothesis, so each error is orc's binary counting functional on
    the outcome-3 count tables, each with an atom for "some outcome 0".
    """
    q0, q1 = _probabilities((("q0", q0), ("q1", q1)))
    u = check_count(u, "u", 1)

    def error(applied, a, b):
        return _binary_error(_nulling_table(applied, a, u), _nulling_table(applied, b, u))
    return tuple(as_item(_in_passes(error, u, applied, q0, q1)) for applied in (q0, q1))
