"""Closed-form error probabilities from per-use outcome counting.

For erasure and depolarizing channels the optimal multi-copy discrimination
collapses to a classical problem: each probe either reveals a damage event
(erasure flag, depolarized symbol) or passes intact, so ``u`` probes of a
channel produce a Bernoulli count and the optimal receiver is a maximum
likelihood test on counts.  This module implements the binary version
(``f_u``), the multi-cell position-finding version (``h_mu``), and the
channel-specific wrappers that map channel parameters onto effective
Bernoulli probabilities.

The position-finding value ``h`` has one route: ``h_mu_values`` sums over
the target cell's count with the background counts entering through the
distribution of their maximum (an order statistic), at ``O(u * m)`` cost
per point for any size.  It and the binary ``f_u_values`` are array
kernels over points, and the scalar functions wrap them.  ``h_m1_closed``
is an independent closed form for the single-use case that the crosscheck
and the tests compare it with; the string-enumeration and exact-rational
oracles live with the tests.
"""

from __future__ import annotations

import math

import numpy as np

from .linalg import KIND_EXACT, BoundReport, ChandiscError, Frozen, check_prob

# Up to this many uses the binomial pmf is a direct product of powers; above
# it, Loader's saddle-point form (see ``_binom_log_pmf``).  Up to 50 the
# product is faster (10-18 us a point against 113-270 us, 2-core x86) and more
# accurate (4.0e-15 worst relative error against 5.9e-14; tests hold it to 1e-14).
DIRECT_PRODUCT_MAX_U = 50

# The kernels take points in passes whose ``(points, u+1)`` tables hold at
# most this many entries (512 KB each), or one point when ``u`` is larger.
# ``fig2 --m 1000 --u 5000 --gap 0.01`` took 7.6 s and 126 MB with all 200
# points in one pass, 4.6 s and 37 MB in passes (2-core x86, one BLAS thread).
TABLE_ENTRIES = 1 << 16

# stirlerr(n) = log(n!) - log(sqrt(2 pi n) (n/e)**n) for n = 0..15 (n = 0 is unused).
_STIRLERR = np.array([
    0.0, 0.08106146679532726, 0.0413406959554093, 0.02767792568499834,
    0.020790672103765093, 0.016644691189821193, 0.013876128823070748,
    0.01189670994589177, 0.010411265261972096, 0.009255462182712733,
    0.00833056343336287, 0.007573675487951841, 0.00694284010720953,
    0.006408994188004207, 0.0059513701127588475, 0.005554733551962801])


class OrcError(ChandiscError):
    """Raised for invalid parameters."""


def _check_sizes(u: int, m: int):
    if u < 1:
        raise OrcError(f"need u >= 1, got {u}")
    if m < 2:
        raise OrcError(f"need m >= 2 cells, got {m}")


class OrcParams(Frozen):
    """Effective Bernoulli parameters of a position-finding instance.

    ``q_b`` is the per-use damage probability in each of the ``m - 1``
    background cells, ``q_t`` the one in the target cell, and ``u`` the
    number of uses per cell.
    """

    __slots__ = ("q_b", "q_t", "u", "m")

    def __init__(self, q_b: float, q_t: float, u: int, m: int):
        object.__setattr__(self, "q_b", float(check_prob(q_b, "q_b", OrcError)))
        object.__setattr__(self, "q_t", float(check_prob(q_t, "q_t", OrcError)))
        object.__setattr__(self, "u", int(u))
        object.__setattr__(self, "m", int(m))
        _check_sizes(self.u, self.m)


def _binom_pmf(q, u: int) -> np.ndarray:
    # Probability of k damage events in u uses, k = 0..u, along a last axis
    # appended to the shape of q.
    if u > DIRECT_PRODUCT_MAX_U:
        return np.exp(_binom_log_pmf(q, u))
    q = np.asarray(q, dtype=np.float64)
    coeff = np.array([math.comb(u, k) for k in range(u + 1)], dtype=np.float64)
    return coeff * _power_table(q, u) * _power_table(1.0 - q, u)[..., ::-1]


def _binom_log_pmf(q, u: int) -> np.ndarray:
    """Log of the Binomial(u, q) pmf by Loader's saddle-point expansion.

    C. Loader, "Fast and Accurate Computation of Binomial Probabilities"
    (2000).  For ``0 < k < u`` the log of the mass is

        ``stirlerr(u) - stirlerr(k) - stirlerr(u-k) - bd0(k, u q) - bd0(u-k, u (1-q))
        - log(2 pi k (u-k) / u) / 2``,

    a sum of small Stirling remainders and non-negative deviance terms, none
    of them the difference of two large logs, so each mass keeps its
    relative accuracy, the masses sum to 1 to rounding, and masses below
    the smallest float keep a finite log.  Elementwise over an array ``q``,
    with ``k`` along a last axis; a ``q`` of 0 or 1 puts all its mass on
    ``k = 0`` or ``k = u``.
    """
    q = np.asarray(q, dtype=np.float64)[..., None]
    certain = (q == 0.0) | (q == 1.0)
    with np.errstate(divide="ignore"):
        edges = np.log(np.arange(u + 1) == q * u)
    q = np.where(certain, 0.5, q)  # rows of certain q take ``edges`` below
    k = np.arange(1, u, dtype=np.float64)
    out = np.empty(np.broadcast_shapes(q.shape, (u + 1,)))
    out[..., 1:u] = (_stirlerr(u) - _stirlerr(k) - _stirlerr(u - k) - _bd0(k, u * q)
                     - _bd0(u - k, u * (1.0 - q)) - np.log(2.0 * math.pi * k * (u - k) / u) / 2.0)
    # math's log1p and log, not numpy's vector loops, which can differ from
    # them in the last bit
    out[..., :1] = u * np.array([math.log1p(-x) for x in q.flat]).reshape(q.shape)
    out[..., u:] = u * np.array([math.log(x) for x in q.flat]).reshape(q.shape)
    return np.where(certain, edges, out)


def _stirlerr(n):
    # log(n!) - log(sqrt(2 pi n) (n/e)**n) for integers n >= 1: tabulated up
    # to 15, above that five terms of the Stirling series (error below 2e-16).
    n = np.asarray(n, dtype=np.float64)
    inv = 1.0 / np.maximum(n, 16.0) ** 2
    series = (1 / 12 - (1 / 360 - (1 / 1260 - (1 / 1680 - inv / 1188) * inv) * inv) * inv)
    return np.where(n <= 15, _STIRLERR[np.minimum(n, 15).astype(np.int64)],
                    series / np.maximum(n, 16.0))


def _bd0(x, mean):
    # x log(x/mean) + mean - x >= 0.  Within |v| < 0.3 of v = (x-mean)/(x+mean)
    # = 0 by Loader's series in v, whose terms shrink by v**2 < 0.09; the
    # direct form cancels there (with Loader's |v| < 0.1 the far branch put
    # 4.5e-13 relative error into masses near 1e-100 at u = 5000).
    x = np.asarray(x, dtype=np.float64)
    near = np.abs(x - mean) < 0.3 * (x + mean)
    v = np.where(near, (x - mean) / (x + mean), 0.0)
    total, term, j = (x - mean) * v, 2.0 * x * v, 1
    while True:
        term = term * v * v
        step = total + term / (2 * j + 1)
        if np.array_equal(step, total):
            break
        total, j = step, j + 1
    with np.errstate(over="ignore"):
        ratio = (x - mean) / mean
    # a subnormal mean overflows the ratio; its log is then the difference of logs
    log_ratio = np.where(np.isinf(ratio), np.log(x) - np.log(mean), np.log1p(ratio))
    return np.where(near, total, x * log_ratio + mean - x)


def _power_table(q: np.ndarray, top: int) -> np.ndarray:
    # [q**0, q**1, .., q**top] along a last axis by repeated multiplication,
    # with the 0**0 = 1 convention.
    factors = np.empty(q.shape + (top + 1,))
    factors[..., 0] = 1.0
    factors[..., 1:] = q[..., None]
    return np.cumprod(factors, axis=-1)


def _probabilities(named, error=OrcError):
    # Each named probability array checked, then all broadcast to one shape.
    return np.broadcast_arrays(*(np.asarray(check_prob(q, name, error)) for name, q in named))


def _in_passes(kernel, u: int, *arrays) -> np.ndarray:
    # kernel(*rows) over the flattened points of same-shape arrays, at most
    # TABLE_ENTRIES // (u+1) of them per pass.
    flat = [a.reshape(-1) for a in arrays]
    out = np.empty(flat[0].size)
    step = max(1, TABLE_ENTRIES // (u + 1))
    for start in range(0, out.size, step):
        out[start:start + step] = kernel(*(a[start:start + step] for a in flat))
    return out.reshape(arrays[0].shape)


def f_u_values(q0, q1, u: int) -> np.ndarray:
    """Binary minimum error from counting damage events over ``u`` uses.

        f_u = 1/2 * sum_k min(P(k | q0), P(k | q1))

    with binomial outcome distributions ``P(. | q)``, elementwise over
    broadcast arrays ``q0`` and ``q1``.  Equal to ``1/2 - 1/4 * sum_k |P0 - P1|``,
    but a sum of non-negative terms, so relative-accurate down to underflow.
    Symmetric under ``(q0, q1) -> (1 - q0, 1 - q1)`` and non-increasing in ``u``.
    Values are unclamped: pass them through
    :func:`~chandisc.discrimination.check_exact_prob` before reporting them.
    """
    q0, q1 = _probabilities((("q0", q0), ("q1", q1)))
    u = int(u)
    if u < 1:
        raise OrcError(f"need u >= 1, got {u}")
    return _in_passes(lambda p0, p1: _binary_error(p0, p1, u), u, q0, q1)


def _binary_error(q0: np.ndarray, q1: np.ndarray, u: int) -> np.ndarray:
    # Divided by the two pmf totals, each 1 only to rounding: equal
    # distributions then give exactly 1/2, and no value exceeds it, since
    # rounding is monotone and sum_k min <= min(total0, total1).
    pmf0, pmf1 = _binom_pmf(q0, u), _binom_pmf(q1, u)
    return np.minimum(pmf0, pmf1).sum(axis=-1) / (pmf0.sum(axis=-1) + pmf1.sum(axis=-1))


def f_u(q0, q1, u: int) -> float:
    """:func:`f_u_values` at one pair of probabilities."""
    return float(f_u_values(q0, q1, u))


def qdc_scales(d: int):
    """Detection-probability scales ``(1 - 1/d**2, 1 - 1/d)`` of a depolarizing cell.

    A maximally entangled probe detects a depolarizing event with
    probability ``(1 - 1/d**2) q``; an optimal unentangled probe only
    reaches ``(1 - 1/d) q``.
    """
    d = int(d)
    if d < 2:
        raise OrcError(f"need d >= 2, got {d}")
    return 1.0 - 1.0 / d**2, 1.0 - 1.0 / d


def qec_binary(q0, q1, u: int) -> BoundReport:
    """Ultimate error probability for two erasure channels.

    Counting erasure flags is optimal even against adaptive, entangled
    strategies, and classical probes already achieve it, so one number
    covers every protocol class.
    """
    value = f_u_values(q0, q1, u)
    return BoundReport(value, KIND_EXACT, "qec_binary", {"q0": q0, "q1": q1, "u": u})


def qdc_binary(q0, q1, d: int, u: int):
    """Ultimate error probabilities for two depolarizing channels.

    Returns ``(entangled, classical)`` reports: ``f_u`` at the effective
    detection probabilities of :func:`qdc_scales`.
    """
    scales = np.array(qdc_scales(d))
    entangled, classical = f_u_values(scales * q0, scales * q1, u)
    meta = {"q0": q0, "q1": q1, "d": int(d), "u": u}
    return (BoundReport(entangled, KIND_EXACT, "qdc_binary_entangled", meta),
            BoundReport(classical, KIND_EXACT, "qdc_binary_classical", meta))


def h_m1_closed(params: OrcParams) -> float:
    """Single-use position-finding error in closed form.

    Only defined for ``u == 1``.  The expression groups outcome strings by
    total weight; the all-same-outcome strings contribute their own terms
    and the mixed strings carry the larger of the two likelihood ratios,
    which reduces to comparing ``q_t`` with ``q_b``.  The grouped factor
    ``(1 - (1-q_b)**m - q_b**m) / q_b`` is expanded through the geometric
    identity ``(1 - (1-q)**m) / q = sum_j (1-q)**j`` so that nothing is
    divided by a vanishing parameter; the naive quotient loses every digit
    once ``q_b`` drops below the rounding scale.
    """
    if params.u != 1:
        raise OrcError(f"closed form requires u = 1, got u = {params.u}")
    m, q_b, q_t = params.m, params.q_b, params.q_t
    if q_t >= q_b:
        bracket = sum((1.0 - q_b) ** j for j in range(m)) - q_b ** (m - 1)
        mid = q_t * bracket
    else:
        bracket = sum(q_b**j for j in range(m)) - (1.0 - q_b) ** (m - 1)
        mid = (1.0 - q_t) * bracket
    best = q_t * q_b ** (m - 1) + (1.0 - q_t) * (1.0 - q_b) ** (m - 1) + mid
    return 1.0 - best / m


def h_mu_values(q_b, q_t, m: int, u: int) -> np.ndarray:
    """Position-finding error of the maximum-likelihood counting receiver.

    Elementwise over broadcast arrays of the background and target damage
    probabilities ``q_b`` and ``q_t``, with ``m`` cells of ``u`` uses each.
    With ``q_t >= q_b`` the likelihood of "cell n is the target" grows with
    cell n's damage count, so the receiver picks the cell with the largest
    count; ties may be broken arbitrarily without changing the success
    probability.  Putting the target in a fixed cell, its count has pmf
    ``T`` and each of the ``m - 1`` background counts is drawn i.i.d. with
    CDF ``F``.  Averaging over ties gives

        1 - h = (1/m) * sum_k T[k] * sum_{j<m} F(k)**j * F(k-1)**(m-1-j)

    with ``F(-1) = 0``.  For ``q_t < q_b`` the receiver picks the smallest
    count, which is the same problem after relabelling ``k -> u - k``.  The
    inner sum is evaluated by Horner's rule: it never divides, so
    ``q in {0, 1}`` and ``q_t == q_b`` need no special case, and it costs
    ``O(u * m)`` per point.  The outer sum runs over ``k`` in index order.
    Values are unclamped: pass them through
    :func:`~chandisc.discrimination.check_exact_prob` before reporting them.
    """
    q_b, q_t = _probabilities((("q_b", q_b), ("q_t", q_t)))
    u, m = int(u), int(m)
    _check_sizes(u, m)
    return _in_passes(lambda b, t: _position_error(b, t, m, u), u, q_b, q_t)


def _position_error(q_b: np.ndarray, q_t: np.ndarray, m: int, u: int) -> np.ndarray:
    # h_mu_values on checked arrays of one shape.
    target = _binom_pmf(q_t, u)
    background = _binom_pmf(q_b, u)
    mirror = (q_t < q_b)[..., None]
    target = np.where(mirror, target[..., ::-1], target)
    background = np.where(mirror, background[..., ::-1], background)
    upper = np.cumsum(background, axis=-1)
    lower = np.zeros_like(upper)
    lower[..., 1:] = upper[..., :-1]
    inner = np.zeros_like(upper)
    lower_pow = np.ones_like(upper)
    for _ in range(m):
        inner = inner * upper + lower_pow
        lower_pow = lower_pow * lower
    return 1.0 - np.cumsum(target * inner, axis=-1)[..., -1] / m


def h_mu(params: OrcParams) -> float:
    """:func:`h_mu_values` at the point ``params``.

    Reads only the ``q_b``, ``q_t``, ``u`` and ``m`` fields, which
    :class:`OrcParams` has already checked.
    """
    return float(_position_error(np.float64(params.q_b), np.float64(params.q_t),
                                 params.m, params.u))


def qec_cpf(q_b, q_t, m: int, u: int) -> BoundReport:
    """Ultimate error for finding one erasure channel among ``m`` positions.

    Erasure flags are classical evidence, so the adaptive, entangled optimum
    equals the counting receiver's error at the raw probabilities.
    """
    return BoundReport(h_mu_values(q_b, q_t, m, u), KIND_EXACT, "qec_cpf",
                       {"q_b": q_b, "q_t": q_t, "m": m, "u": u})


def qdc_cpf(q_b, q_t, m: int, u: int, d: int):
    """Ultimate errors for finding one depolarizing channel among ``m``.

    Returns ``(entangled, classical)`` reports, obtained by rescaling both
    cell probabilities to the effective detection probabilities of
    :func:`qdc_scales`.
    """
    scales = np.array(qdc_scales(d))
    entangled, classical = h_mu_values(scales * q_b, scales * q_t, m, u)
    meta = {"q_b": q_b, "q_t": q_t, "m": m, "u": u, "d": int(d)}
    return (BoundReport(entangled, KIND_EXACT, "qdc_cpf_entangled", meta),
            BoundReport(classical, KIND_EXACT, "qdc_cpf_classical", meta))
