"""Classical analytics for orthogonal-replacement discrimination.

The reference values here come from exact rational arithmetic applied to
the bare definition of minimum-error decoding: sum the largest hypothesis
likelihood over every outcome string.  That path shares no code (and no
algebra beyond the channel statistics) with the production formulas.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from chandisc import orc
from chandisc.orc import OrcError, f_u_values, h_m1_closed, h_mu_values, qdc_scales

from _oracles import cpf_ml_exact, h_mu_strings, mp_binary_error, string_histogram


def _binary_ml_exact(q0, q1, u):
    """Equiprobable binary error over u binomial observations, exact."""
    q0, q1 = Fraction(q0), Fraction(q1)
    total = Fraction(0)
    for k in range(u + 1):
        p0 = math.comb(u, k) * q0**k * (1 - q0) ** (u - k)
        p1 = math.comb(u, k) * q1**k * (1 - q1) ** (u - k)
        total += min(p0, p1)
    return total / 2


def test_params_validation():
    # the single-use closed form checks its point as h_mu_values does
    with pytest.raises(OrcError, match="m >= 2"):
        h_m1_closed(0.5, 0.5, 1)
    with pytest.raises(OrcError, match="^q_b must lie in"):
        h_m1_closed(1.5, 0.5, 2)
    with pytest.raises(OrcError, match="^q_t must lie in"):
        h_m1_closed(0.5, -0.25, 2)
    with pytest.raises(TypeError):  # one point; arrays go to h_mu_values
        h_m1_closed(np.array([0.2, 0.3]), 0.5, 2)


def test_weight_profile_realizability():
    # every populated (min, max, total) profile of the string oracle is one
    # that m cells with those extreme weights can reach
    for m, u in ((3, 3), (4, 2), (2, 5)):
        for w_min, w_max, total in zip(*string_histogram(m, u).nonzero()):
            assert 0 <= w_min <= w_max <= u
            assert w_max + (m - 1) * w_min <= total <= w_min + (m - 1) * w_max


def test_weight_profiles_count_full_space():
    assert string_histogram(3, 2).sum() == 2**6


def test_f1_worked_value():
    # single use, q0=0.2 vs q1=0.7: 1/2 - (|0.8-0.3| + |0.2-0.7|)/4 = 1/4
    assert abs(f_u_values(0.2, 0.7, 1) - 0.25) < 1e-15


@pytest.mark.parametrize("q0,q1,u", [(0.2, 0.7, 1), (0.1, 0.35, 3),
                                     (0.55, 0.8, 4), (0.0, 1.0, 2)])
def test_f_matches_exact_rational(q0, q1, u):
    expect = _binary_ml_exact(Fraction(q0).limit_denominator(100),
                              Fraction(q1).limit_denominator(100), u)
    assert abs(f_u_values(q0, q1, u) - float(expect)) < 1e-14


def test_f_trivial_endpoints():
    assert abs(f_u_values(0.3, 0.3, 5) - 0.5) < 1e-15  # indistinguishable
    assert f_u_values(0.0, 1.0, 1) < 1e-15  # perfectly distinguishable


def test_f_monotone_in_uses():
    values = [f_u_values(0.2, 0.5, u) for u in range(1, 12)]
    assert all(a >= b - 1e-15 for a, b in zip(values, values[1:]))


@settings(max_examples=60, deadline=None)
@given(st.floats(0, 1), st.floats(0, 1), st.integers(1, 8))
def test_f_complement_and_swap_symmetry(q0, q1, u):
    assert abs(f_u_values(q0, q1, u) - f_u_values(1 - q0, 1 - q1, u)) < 1e-13
    assert abs(f_u_values(q0, q1, u) - f_u_values(q1, q0, u)) < 1e-13


_PROB = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0, 1))
# probabilities k / 2**30, whose complements 1 - q are exact floats
_DYADIC = st.one_of(st.sampled_from([0.0, 1.0]), st.integers(0, 2**30).map(lambda k: k / 2**30))


@settings(max_examples=30, deadline=None)
@given(_PROB, _PROB, st.integers(1, 2000))
@example(0.2, 0.0, 2000)  # 7.567e-195, which 1/2 - 1/4 sum |P0 - P1| rounded to 0
@example(0.3, 0.3, 2000)
def test_f_relative_accuracy_against_mpmath(q0, q1, u):
    mpmath = pytest.importorskip("mpmath")
    got = f_u_values(q0, q1, u)
    assert got >= 0.0
    with mpmath.workdps(30):
        want = mp_binary_error(mpmath.mp, q0, q1, u)
        if want > 1e-290:
            assert abs(got / want - 1) <= 1e-12


# two count tables of a few points: masses in [0, 1] along the last axis,
# sub-stochastic or not, each row with some mass
_TABLES = st.tuples(st.integers(1, 4), st.integers(1, 12)).flatmap(
    lambda shape: st.tuples(*[arrays(np.float64, shape, elements=st.floats(0, 1))] * 2)).filter(
    lambda tables: all(table.sum(axis=-1).all() for table in tables))


@settings(max_examples=200, deadline=None)
@given(_TABLES)
def test_binary_functional_is_symmetric_and_at_most_half(tables):
    pmf0, pmf1 = tables
    error = orc._binary_error(pmf0, pmf1)
    assert error.shape == (len(pmf0),)
    assert (orc._binary_error(pmf1, pmf0) == error).all()
    assert ((error >= 0.0) & (error <= 0.5)).all()
    assert (orc._binary_error(pmf0, pmf0) == 0.5).all()


@settings(max_examples=60, deadline=None)
@given(_DYADIC, _DYADIC, st.integers(1, 300), st.integers(2, 10))
def test_f_bounds_monotonicity_symmetry_and_entanglement(q0, q1, u, d):
    f = f_u_values(q0, q1, u)
    assert 0.0 <= f <= 0.5
    # non-increasing in u and symmetric under q -> 1 - q, up to rounding
    assert f_u_values(q0, q1, u + 1) <= f * (1 + 1e-12) + 1e-300
    assert math.isclose(f_u_values(1.0 - q0, 1.0 - q1, u), f, rel_tol=1e-12, abs_tol=1e-300)
    # a maximally entangled probe detects more depolarizing events
    ent_scale, cls_scale = qdc_scales(d)
    entangled = f_u_values(ent_scale * q0, ent_scale * q1, u)
    assert entangled <= f_u_values(cls_scale * q0, cls_scale * q1, u) * (1 + 1e-12) + 1e-300


def test_binary_entanglement_advantage():
    for d in (2, 6):
        scales = np.array(qdc_scales(d))
        for u in (1, 3, 10):
            for q0 in np.linspace(0.05, 0.9, 6):
                ent, cls = f_u_values(scales * q0, scales * 0.95, u)
                assert ent < cls - 1e-12


@pytest.mark.parametrize("m,u,q_b,q_t", [
    (2, 1, 0.3, 0.8), (2, 2, 0.8, 0.3), (3, 1, 0.5, 0.5),
    (3, 2, 0.25, 0.75), (4, 2, 0.6, 0.1), (2, 4, 0.0, 0.7),
    (3, 2, 1.0, 0.4), (5, 1, 0.9, 0.2),
])
def test_h_routes_match_exact_rational(m, u, q_b, q_t):
    expect = float(cpf_ml_exact(Fraction(q_b).limit_denominator(100),
                                Fraction(q_t).limit_denominator(100), m, u))
    assert abs(h_mu_values(q_b, q_t, m, u) - expect) < 1e-13
    assert abs(h_mu_strings(q_b, q_t, m, u) - expect) < 1e-13
    if u == 1:
        assert abs(h_m1_closed(q_b, q_t, m) - expect) < 1e-13


def test_h_single_use_worked_value():
    # m=4 cells, certain background detection: 3/4 * q_t at q_t = 1/2
    assert abs(h_mu_values(1.0, 0.5, 4, 1) - 0.375) < 1e-15


def test_h_closed_form_edges():
    for m in (2, 3, 6):
        for q_t in (0.0, 0.3, 1.0):
            lo = h_m1_closed(0.0, q_t, m)
            hi = h_m1_closed(1.0, q_t, m)
            assert abs(lo - (m - 1) * (1 - q_t) / m) < 1e-15
            assert abs(hi - (m - 1) * q_t / m) < 1e-15


def test_h_equal_parameters_is_blind_guessing():
    for m in (2, 4):
        for u in (1, 3):
            assert abs(h_mu_values(0.4, 0.4, m, u) - (m - 1) / m) < 1e-13


@settings(max_examples=40, deadline=None)
@given(st.floats(0, 1), st.floats(0, 1), st.integers(2, 4), st.integers(1, 3))
def test_h_complement_symmetry(q_b, q_t, m, u):
    a = h_mu_values(q_b, q_t, m, u)
    b = h_mu_values(1 - q_b, 1 - q_t, m, u)
    assert abs(a - b) < 1e-13


def test_h_monotone_in_uses():
    values = [h_mu_values(0.3, 0.7, 3, u) for u in range(1, 9)]
    assert all(a >= b - 1e-14 for a, b in zip(values, values[1:]))


def test_h_large_u_log_route():
    # above the direct-product cutoff the binomial pmf is built in log space;
    # crossing the cutoff must keep the error non-increasing in u
    lo = h_mu_values(0.41, 0.37, 2, 50)
    hi = h_mu_values(0.41, 0.37, 2, 51)
    assert 0.0 <= hi <= lo + 1e-12  # more uses cannot hurt
    assert abs(h_mu_values(0.3, 0.8, 2, 12) - h_mu_strings(0.3, 0.8, 2, 12)) < 1e-12


@st.composite
def _small_instances(draw):
    # u*m <= 12 keeps the string oracle at 4096 strings; endpoints and ties
    # are drawn on purpose because the formula must not special-case them
    m = draw(st.integers(2, 6))
    u = draw(st.integers(1, 12 // m))
    prob = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0, 1))
    q_b = draw(prob)
    q_t = q_b if draw(st.booleans()) else draw(prob)
    return q_b, q_t, m, u


@settings(max_examples=150, deadline=None)
@given(_small_instances())
def test_h_matches_string_oracle(instance):
    assert abs(h_mu_values(*instance) - h_mu_strings(*instance)) < 1e-12


def test_h_large_sizes():
    m = 1000
    values = [h_mu_values(0.41, 0.37, m, u) for u in (1000, 2000, 4999, 5000)]
    assert all(0.0 <= v <= (m - 1) / m for v in values)
    assert all(a >= b for a, b in zip(values, values[1:]))
    assert values[-1] < values[0]


def test_route_guards():
    # far beyond any enumeration of strings or weight vectors
    for u, m in ((13, 2), (30, 8), (1000, 10)):
        assert 0.0 <= h_mu_values(0.5, 0.6, m, u) <= (m - 1) / m


def test_cpf_one_shot_endpoint():
    # q_b=0, q_t=1, single use: only the target cell can ever click, and it
    # clicks with the rescaled probability, leaving (m-1)/(m d^2)
    for m in (2, 5):
        for d in (2, 10):
            entangled = h_mu_values(0.0, qdc_scales(d)[0] * 1.0, m, 1)
            assert abs(entangled - (m - 1) / (m * d * d)) < 1e-15


@pytest.mark.parametrize("u", [60, 500, 2000, 5000])
@pytest.mark.parametrize("q", [0.004, 0.3, 0.5, 0.97])
def test_binom_pmf_beyond_direct_products_matches_mpmath(q, u):
    mpmath = pytest.importorskip("mpmath")
    pmf = orc._binom_pmf(q, u)
    assert abs(pmf.sum() - 1.0) <= 1e-15
    with mpmath.workdps(40):
        mp_q = mpmath.mpf(q)
        ref = [(1 - mp_q) ** u]
        for k in range(1, u + 1):
            ref.append(ref[-1] * (u - k + 1) / k * mp_q / (1 - mp_q))
        # below about 1e-50 the rounding of the exponent itself, |log p|
        # times the machine epsilon, approaches 1e-13
        worst = max(abs(got / want - 1) for got, want in zip(pmf, ref) if want > 1e-50)
    assert worst < 1e-13


@pytest.mark.parametrize("u", [1, 8, 30, 50])
@pytest.mark.parametrize("q", [0.004, 0.3, 0.5, 0.97])
def test_binom_pmf_direct_products_match_mpmath(q, u):
    # every mass of the direct product, relative to a 50-digit evaluation
    mpmath = pytest.importorskip("mpmath")
    assert u <= orc.DIRECT_PRODUCT_MAX_U
    pmf = orc._binom_pmf(q, u)
    with mpmath.workdps(50):
        mp_q = mpmath.mpf(q)
        ref = [mpmath.binomial(u, k) * mp_q**k * (1 - mp_q) ** (u - k) for k in range(u + 1)]
        worst = max(abs(got / want - 1) for got, want in zip(pmf, ref))
    assert worst < 1e-14


# -- the array kernels ---------------------------------------------------------

# (q_b, q_t) pairs every kernel batch carries: both orders, a tie, and the
# endpoints, so one batch runs the mirrored, the plain and the tied branch
_BRANCH_PAIRS = [(0.3, 0.7), (0.7, 0.3), (0.45, 0.45), (0.0, 1.0), (1.0, 0.0),
                 (0.0, 0.0), (1.0, 1.0), (0.0, 0.6), (0.2, 1.0)]


@st.composite
def _kernel_batches(draw, max_u, max_m):
    # u from 1 up past the direct-product/log switch at 50/51 (when max_u allows)
    u = draw(st.one_of(st.sampled_from(sorted({1, min(50, max_u), min(51, max_u), max_u})),
                       st.integers(1, max_u)))
    m = draw(st.integers(2, max_m))
    drawn = draw(st.lists(st.tuples(_PROB, _PROB), max_size=6))
    pairs = drawn + _BRANCH_PAIRS
    pairs = [pairs[i] for i in draw(st.permutations(range(len(pairs))))]
    q_b, q_t = (np.array(column) for column in zip(*pairs))
    return q_b, q_t, m, u


@settings(max_examples=40, deadline=None)
@given(_kernel_batches(max_u=80, max_m=6))
@example((np.array([p[0] for p in _BRANCH_PAIRS]), np.array([p[1] for p in _BRANCH_PAIRS]),
          3, 51))
def test_kernel_rows_match_single_points_bit_for_bit(batch):
    q_b, q_t, m, u = batch
    values = h_mu_values(q_b, q_t, m, u)
    binary = f_u_values(q_b, q_t, u)
    assert values.shape == binary.shape == q_b.shape
    for i, (b, t) in enumerate(zip(q_b.tolist(), q_t.tolist())):
        assert values[i] == h_mu_values(b, t, m, u)
        assert binary[i] == f_u_values(b, t, u)
    # a tie is blind guessing, whatever the branch takes it to
    tied = q_b == q_t
    assert np.all(np.abs(values[tied] - (m - 1) / m) < 1e-13)
    assert np.all(np.abs(binary[tied] - 0.5) < 1e-13)


@settings(max_examples=25, deadline=None)
@given(_kernel_batches(max_u=3, max_m=3))
def test_kernels_match_exact_rationals(batch):
    q_b, q_t, m, u = batch
    values = h_mu_values(q_b, q_t, m, u)
    binary = f_u_values(q_b, q_t, u)
    for i, (b, t) in enumerate(zip(q_b.tolist(), q_t.tolist())):
        assert abs(values[i] - float(cpf_ml_exact(b, t, m, u))) < 1e-13
        assert abs(binary[i] - float(_binary_ml_exact(b, t, u))) < 1e-13


@settings(max_examples=40, deadline=None)
@given(_kernel_batches(max_u=6, max_m=6))
def test_kernel_matches_string_oracle(batch):
    q_b, q_t, m, u = batch
    u = min(u, 12 // m)  # at most 4096 strings
    values = h_mu_values(q_b, q_t, m, u)
    for i, (b, t) in enumerate(zip(q_b.tolist(), q_t.tolist())):
        assert abs(values[i] - h_mu_strings(b, t, m, u)) < 1e-12


@pytest.mark.parametrize("u", [3, 60])
def test_kernel_passes_keep_the_bits(monkeypatch, u):
    # points are taken TABLE_ENTRIES // (u+1) at a time; every split of a
    # batch gives the same values
    rng = np.random.default_rng(u)
    q_b, q_t = rng.uniform(0.0, 1.0, size=(2, 5, 7))
    whole_h, whole_f = h_mu_values(q_b, q_t, 4, u), f_u_values(q_b, q_t, u)
    for entries in (1, 3 * (u + 1)):
        monkeypatch.setattr(orc, "TABLE_ENTRIES", entries)
        assert np.array_equal(h_mu_values(q_b, q_t, 4, u), whole_h)
        assert np.array_equal(f_u_values(q_b, q_t, u), whole_f)


def test_kernels_broadcast():
    q_t = np.linspace(0.0, 1.0, 6).reshape(2, 3)
    values = h_mu_values(0.4, q_t, 3, 5)
    assert values.shape == (2, 3)
    assert values[1, 2] == h_mu_values(0.4, 1.0, 3, 5)
    assert f_u_values(q_t, 0.4, 60).shape == (2, 3)
    assert np.ndim(h_mu_values(0.1, 0.2, 2, 1)) == 0
    assert h_mu_values(np.array([]), 0.3, 2, 2).shape == (0,)


@pytest.mark.parametrize("bad", [np.nan, -1e-300, 1.0 + 2**-52, np.inf, -np.inf])
def test_kernels_refuse_probabilities_outside_the_interval(bad):
    batch = np.array([0.2, bad, 0.5])
    for name, call in (("q_b", lambda: h_mu_values(batch, 0.3, 3, 2)),
                       ("q_t", lambda: h_mu_values(0.3, batch, 3, 2)),
                       ("q0", lambda: f_u_values(batch, 0.3, 2)),
                       ("q1", lambda: f_u_values(0.3, batch, 60)),
                       ("q_b", lambda: h_m1_closed(bad, 0.3, 3))):
        with pytest.raises(OrcError, match=f"^{name} must lie in \\[0, 1\\]"):
            call()


def test_kernel_size_checks():
    with pytest.raises(OrcError, match="u >= 1"):
        h_mu_values(0.2, 0.3, 2, 0)
    with pytest.raises(OrcError, match="m >= 2"):
        h_mu_values(0.2, 0.3, 1, 2)
    with pytest.raises(OrcError, match="u >= 1"):
        f_u_values(0.2, 0.3, 0)
    with pytest.raises(OrcError, match="d >= 2"):
        qdc_scales(1)


# float.hex of Binomial(u, q) masses from the direct product of powers, which
# is plain IEEE multiplication and so the same on every machine; qadc's block
# errors read these tables, so their bits must not move
_PMF_BITS = {
    (0.3, 1): {0: "0x1.6666666666666p-1", 1: "0x1.3333333333333p-2"},
    (0.41, 7): dict(enumerate([
        "0x1.97bd9bd899eb9p-6", "0x1.efdaa6bebb2eap-4", "0x1.026eb43182196p-2",
        "0x1.2b507ccfc211bp-2", "0x1.9fff0cecae43fp-3", "0x1.5ae60ac71a6e6p-4",
        "0x1.416b907ea071dp-6", "0x1.fe89617ba6350p-10"])),
    (0.97, 50): {0: "0x1.0a01901b23344p-253", 25: "0x1.3595627bdfc44p-81",
                 48: "0x1.05a690459020ep-2", 49: "0x1.594ec1e1e6437p-2",
                 50: "0x1.be990f3c0e7fbp-3"},
    (2.0**-40, 50): {0: "0x1.ffffffff9c000p-1", 1: "0x1.8fffffffb3700p-35", 50: "0x0.0p+0"},
}


def test_binom_pmf_direct_product_bits():
    for (q, u), bits in _PMF_BITS.items():
        single = orc._binom_pmf(q, u)
        row = orc._binom_pmf(np.array([0.5, q]), u)[1]
        for k, want in bits.items():
            assert single[k].hex() == want and row[k].hex() == want


@pytest.mark.parametrize("u", [1, 7, 50, 51, 300])
def test_binom_pmf_rows_match_single_points(u):
    qs = np.array([0.0, 1.0, 0.3, 1e-300, 1.0 - 2**-53, 0.97, 0.41])
    table = orc._binom_pmf(qs, u)
    assert table.shape == (qs.size, u + 1)
    for row, q in zip(table, qs.tolist()):
        single = orc._binom_pmf(q, u)
        assert single.shape == (u + 1,)
        assert np.array_equal(row, single)
    assert table[0].tolist() == [1.0] + [0.0] * u
    assert table[1].tolist() == [0.0] * u + [1.0]
