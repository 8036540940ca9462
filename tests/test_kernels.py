"""The test-side enumeration oracles, and ``h_mu_values`` against per-vector sums."""

import itertools
import math

import numpy as np
import pytest

from chandisc import orc

from _oracles import string_histogram, weight_vector_success


def _histogram_reference(m, u):
    """Directly classify every bit string; independent of the numpy oracle."""
    counts = np.zeros((u + 1, u + 1, u * m + 1), dtype=np.int64)
    for bits in itertools.product((0, 1), repeat=u * m):
        weights = [sum(bits[l * u:(l + 1) * u]) for l in range(m)]
        counts[min(weights), max(weights), sum(weights)] += 1
    return counts


@pytest.mark.parametrize("m,u", [(1, 3), (2, 1), (2, 3), (3, 2), (4, 2)])
def test_histogram_numpy_matches_brute_force(m, u):
    got = string_histogram(m, u)
    assert got.dtype == np.int64
    np.testing.assert_array_equal(got, _histogram_reference(m, u))
    assert got.sum() == 2 ** (u * m)


def test_histogram_single_block_is_binomial():
    u = 6
    counts = string_histogram(1, u)
    for k in range(u + 1):
        assert counts[k, k, k] == math.comb(u, k)
    assert counts.sum() == 2**u


def _success(q_b, q_t, m, u):
    # h_mu_values reports the error; the per-vector oracles sum m * (1 - h).
    # Its order-statistic functional is called on its count tables directly,
    # which lets m=1 (one cell, always found) past h_mu_values' m >= 2 check.
    return m * (1.0 - orc._position_error(*orc._position_tables(q_b, q_t, u), m))


@pytest.mark.parametrize("m,u", [(1, 5), (2, 1), (2, 9), (3, 4), (4, 3), (5, 2), (5, 4), (2, 60)])
@pytest.mark.parametrize("use_max", [True, False])
def test_weights_numpy_matches_per_vector_loop(m, u, use_max):
    # h_mu_values' vectorised order-statistic sum against loops over every one of
    # the (u+1)**m weight vectors.  use_max puts the target above the
    # background (the receiver names the largest count); otherwise below it,
    # which takes the mirrored route.  u=60 builds the pmf in log space.
    rng = np.random.default_rng(300 + 10 * m + u)
    lo, hi = sorted(rng.uniform(0.05, 0.95, size=2))
    q_t, q_b = (hi, lo) if use_max else (lo, hi)
    got = _success(q_b, q_t, m, u)
    for log in (False, True):
        ref = weight_vector_success(q_b, q_t, m, u, log=log)
        assert abs(got - ref) <= 1e-12 * abs(ref)


def test_weights_log_path_matches_direct(monkeypatch):
    # the binomial pmf is built from direct products up to
    # DIRECT_PRODUCT_MAX_U uses and from logs above; forcing the log path at
    # a small size must give the same error
    rng = np.random.default_rng(41)
    for use_max in (True, False):
        lo, hi = sorted(rng.uniform(0.05, 0.95, size=2))
        q_t, q_b = (hi, lo) if use_max else (lo, hi)
        direct = _success(q_b, q_t, 3, 4)
        monkeypatch.setattr(orc, "DIRECT_PRODUCT_MAX_U", 0)
        logged = _success(q_b, q_t, 3, 4)
        monkeypatch.undo()
        assert abs(direct - logged) < 1e-10 * max(1.0, abs(direct))


def test_weights_sum_hand_value():
    # m=2, u=1, q_t=0.3, q_b=0.1: sum over (w0, w1) of the larger of
    # tq[w0] * bq[w1] and tq[w1] * bq[w0], tq = [0.7, 0.3], bq = [0.9, 0.1]
    expect = (0.7 * 0.9) + 2 * (0.3 * 0.9) + (0.3 * 0.1)  # (0,0), (0,1)+(1,0), (1,1)
    got = _success(0.1, 0.3, 2, 1)
    assert abs(got - expect) < 1e-15
