"""Closed-form error probabilities from per-use outcome counting.

For erasure and depolarizing channels the optimal multi-copy discrimination
collapses to a classical problem: each probe either reveals a damage event
(erasure flag, depolarized symbol) or passes intact, so ``u`` probes of a
channel produce a Bernoulli count and the optimal receiver is a maximum
likelihood test on counts.  This module implements the binary version
(``f_u_values``) and the multi-cell position-finding version
(``h_mu_values``); a depolarizing cell enters either at the effective
detection probabilities of ``qdc_scales``.

Every counting receiver is one of two functionals of count pmf tables
(counts along the last axis, certain decisions as one extra atom):
``_binary_error``, and ``_position_error``, an order statistic over the
background maximum at ``O(u * m)`` cost per point, which grows with ``m``
without bound: ``m = 2**52`` does not finish.  The array
kernels ``f_u_values`` and ``h_mu_values`` apply them to binomial tables.
The independent routes they are checked against live with the checks: the
single-use closed form in :mod:`chandisc.crosscheck`, the string-enumeration
and exact-rational oracles with the tests.
"""

from __future__ import annotations

import math

import numpy as np

from .linalg import check_count, check_prob

# Up to this many uses the binomial pmf is a direct product of powers; above
# it, Loader's saddle-point form (see ``_binom_log_pmf``).  Up to 50 the
# product is faster (10-18 us a point against 113-270 us, 2-core x86) and more
# accurate (4.0e-15 worst relative error against 5.9e-14; tests hold it to 1e-14).
DIRECT_PRODUCT_MAX_U = 50

# The kernels take points in passes whose ``(points, width)`` tables hold at
# most this many entries (512 KB each), or one point when a point's is larger.
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
    out[..., :1] = u * _per_element(math.log1p, -q)
    out[..., u:] = u * _per_element(math.log, q)
    return np.where(certain, edges, out)


def _per_element(fn, values) -> np.ndarray:
    # fn on each entry, one scalar call each: math's functions, not numpy's
    # vector loops, which can differ from them in the last bit
    return np.array([fn(v) for v in np.ravel(values).tolist()]).reshape(np.shape(values))


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


def _probabilities(named):
    # Each named probability array checked, then all broadcast to one shape.
    return np.broadcast_arrays(*(np.asarray(check_prob(q, name)) for name, q in named))


def _in_passes(kernel, width: int, *arrays) -> np.ndarray:
    # kernel(*rows) over the flattened points of same-shape arrays, at most
    # TABLE_ENTRIES // width of them per pass: u+1 counts or C(m+u, m) classes a point.
    flat = [a.reshape(-1) for a in arrays]
    out = np.empty(flat[0].size)
    step = max(1, TABLE_ENTRIES // width)
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
    :func:`~chandisc.linalg.check_exact_prob` before reporting them.
    """
    q0, q1 = _probabilities((("q0", q0), ("q1", q1)))
    u = check_count(u, "u", 1)
    return _in_passes(lambda a, b: _binary_error(_binom_pmf(a, u), _binom_pmf(b, u)), u + 1, q0, q1)


def _binary_error(pmf0: np.ndarray, pmf1: np.ndarray) -> np.ndarray:
    # sum_k min(P0, P1) / (sum P0 + sum P1) over two count tables: divided by
    # the totals, equal tables give exactly 1/2, and no value exceeds it, as
    # rounding is monotone and sum_k min <= min(total0, total1).
    return np.minimum(pmf0, pmf1).sum(axis=-1) / (pmf0.sum(axis=-1) + pmf1.sum(axis=-1))


def qdc_scales(d: int):
    """Detection-probability scales ``(1 - 1/d**2, 1 - 1/d)`` of a depolarizing cell.

    A maximally entangled probe detects a depolarizing event with
    probability ``(1 - 1/d**2) q``; an optimal unentangled probe only
    reaches ``(1 - 1/d) q``.
    """
    d = check_count(d, "d", 2)
    return 1.0 - 1.0 / d**2, 1.0 - 1.0 / d


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
    :func:`~chandisc.linalg.check_exact_prob` before reporting them.
    """
    q_b, q_t = _probabilities((("q_b", q_b), ("q_t", q_t)))
    u, m = check_count(u, "u", 1), check_count(m, "m", 2)
    return _in_passes(lambda b, t: _position_error(*_position_tables(b, t, u), m), u + 1, q_b, q_t)


def _position_tables(q_b, q_t, u: int):
    # Binomial (target, background) count tables, mirrored k -> u - k where
    # q_t < q_b, so that the likelihood ratio rises along the last axis.
    target, background = _binom_pmf(q_t, u), _binom_pmf(q_b, u)
    mirror = (np.asarray(q_t) < q_b)[..., None]
    return (np.where(mirror, target[..., ::-1], target),
            np.where(mirror, background[..., ::-1], background))


def _position_error(target: np.ndarray, background: np.ndarray, m: int) -> np.ndarray:
    # h_mu_values' order statistic on target and background count tables whose
    # likelihood ratio rises along the last axis; mass decided with certainty
    # is a top atom of the target table (0 in the background table).
    upper = np.cumsum(background, axis=-1)
    lower = np.zeros_like(upper)
    lower[..., 1:] = upper[..., :-1]
    inner = np.zeros_like(upper)
    lower_pow = np.ones_like(upper)
    for _ in range(m):
        inner = inner * upper + lower_pow
        lower_pow = lower_pow * lower
    return 1.0 - np.cumsum(target * inner, axis=-1)[..., -1] / m
