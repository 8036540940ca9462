import itertools
import math

import numpy as np
import pytest

from hypothesis import example, given, settings
from hypothesis import strategies as st

from chandisc import orc
from chandisc.channels import choi, make_qadc
from chandisc.cpf import cpf_nonadaptive_fidelity_lb
from chandisc.crosscheck import nulling_unitary
from chandisc.discrimination import StateEnsemble, helstrom_binary, pgm_error, tensor_all
from chandisc.linalg import BoundReport, ChandiscError
from chandisc.qadc import (
    XiTable,
    default_xi,
    fvg_sandwich,
    nulling_error,
    nulling_outcome_dist,
    qadc_adaptive_lb_opt,
    qadc_adaptive_lb_values,
    qadc_block_helstrom,
    qadc_block_pgm,
    qadc_choi_fidelity,
    qadc_cpf_adaptive_lb_opt,
    qadc_cpf_adaptive_lb_values,
    qadc_cpf_block_pgm,
)

from _oracles import (fidelity, mp_nulling_error, nulling_count_sum, pbt_pair_adaptive_lb,
                      pbt_position_finding_adaptive_lb, step_xi)


def test_choi_fidelity_closed_form_matches_uhlmann():
    for q0 in (0.0, 0.2, 0.55, 1.0):
        for q1 in (0.05, 0.4, 0.9):
            direct = fidelity(choi(make_qadc(q0)), choi(make_qadc(q1)))
            closed = qadc_choi_fidelity(q0, q1)
            assert abs(direct - closed) < 1e-12


def test_choi_fidelity_is_one_only_for_equal_channels():
    for q in (0.0, 0.1, 0.3, 0.7, 1.0):
        assert qadc_choi_fidelity(q, q) == 1.0
    # the sum rounds to 1 here; a fidelity of 1 put the sandwich's lower
    # bound 0.5 above the exact error 0.4999999973658219
    q0, q1 = 1.0, 0.9999999999999999
    assert qadc_choi_fidelity(q0, q1) < 1.0
    lower, upper = fvg_sandwich(qadc_choi_fidelity(q0, q1), 1)
    assert lower <= qadc_block_helstrom(q0, q1, 1).value <= upper


def test_choi_fidelity_worked_value():
    # F = (1 + sqrt(0.8 * 0.5) + sqrt(0.2 * 0.5)) / 2
    expect = (1 + math.sqrt(0.4) + math.sqrt(0.1)) / 2
    assert abs(qadc_choi_fidelity(0.2, 0.5) - expect) < 1e-15


def test_fvg_sandwich_endpoints():
    lo, hi = fvg_sandwich(1.0, 4)
    assert lo == pytest.approx(0.5) and hi == pytest.approx(0.5)
    lo, hi = fvg_sandwich(0.0, 4)
    assert lo == 0.0 and hi == 0.0
    lo, hi = fvg_sandwich(0.9, 3)
    assert 0.0 < lo < hi < 0.5


def test_fvg_sandwich_contains_block_error():
    for u in (1, 2, 4):
        for q0, q1 in [(0.1, 0.3), (0.4, 0.75), (0.0, 0.5)]:
            exact = qadc_block_helstrom(q0, q1, u).value
            lo, hi = fvg_sandwich(qadc_choi_fidelity(q0, q1), u)
            assert lo - 1e-12 <= exact <= hi + 1e-12


def test_block_helstrom_single_use_matches_dense():
    expect = helstrom_binary(choi(make_qadc(0.15)), choi(make_qadc(0.6))).value
    assert abs(qadc_block_helstrom(0.15, 0.6, 1).value - expect) < 1e-12


def test_block_helstrom_weight_blocks_stay_small():
    rep = qadc_block_helstrom(0.2, 0.24, 8)
    assert rep.params["dim"] <= 512  # ambient space is 4**8 = 65536
    assert abs(rep.value - 0.4583016939022603) < 1e-12  # pinned regression


def test_block_pgm_upper_bounds_helstrom():
    for q0, q1, u in [(0.1, 0.5, 2), (0.3, 0.35, 4), (0.6, 0.9, 3)]:
        assert (qadc_block_pgm(q0, q1, u).value
                >= qadc_block_helstrom(q0, q1, u).value - 1e-10)


@pytest.mark.parametrize("u", [1, 2, 3])
def test_block_pair_matches_dense_tensor_powers(u):
    for q0, q1 in [(0.15, 0.6), (0.04, 0.0), (1.0, 0.3), (0.0, 1.0), (0.5, 0.5), (0.9, 0.92)]:
        rho0 = tensor_all([choi(make_qadc(q0)).mat] * u)
        rho1 = tensor_all([choi(make_qadc(q1)).mat] * u)
        helstrom = helstrom_binary(rho0, rho1).value
        pgm = pgm_error(StateEnsemble.equiprobable([rho0, rho1])).value
        assert abs(qadc_block_helstrom(q0, q1, u).value - helstrom) < 1e-12, (q0, q1)
        assert abs(qadc_block_pgm(q0, q1, u).value - pgm) < 1e-12, (q0, q1)
        rank = np.linalg.matrix_rank(np.hstack([rho0, rho1]))
        assert qadc_block_helstrom(q0, q1, u).params["dim"] == rank, (q0, q1)


def test_nulling_unitary_is_unitary():
    for q in np.linspace(0.0, 1.0, 11):
        un = nulling_unitary(q)
        assert np.abs(un @ un.conj().T - np.eye(4)).max() < 1e-12


def test_nulling_matched_distribution():
    # the matched unitary empties outcomes 0 and 1, exactly, at every q
    dist = nulling_outcome_dist(0.5, 0.5)
    np.testing.assert_allclose(dist, [0.0, 0.0, 0.75, 0.25], atol=1e-14)
    assert not dist.flags.writeable
    for q in np.linspace(0.0, 1.0, 1001):
        assert nulling_outcome_dist(q, q)[:2].tolist() == [0.0, 0.0]


def test_nulling_dist_matches_conjugated_choi():
    for q_app in (0.0, 0.3, 0.7, 1.0):
        un = nulling_unitary(q_app)
        for q_act in (0.0, 0.25, 0.8, 1.0):
            state = choi(make_qadc(q_act)).mat
            direct = np.diag(un @ state @ un.conj().T).real
            closed = nulling_outcome_dist(q_app, q_act)
            np.testing.assert_allclose(direct, closed, atol=1e-12)


def _nulling_error_by_strings(q0, q1, u, applied):
    """Sum min-likelihood over all 4**u outcome strings, no count grouping."""
    dist0 = nulling_outcome_dist(applied, q0)
    dist1 = nulling_outcome_dist(applied, q1)
    error = 0.0
    for outcomes in itertools.product(range(4), repeat=u):
        l0 = math.prod(dist0[k] for k in outcomes)
        l1 = math.prod(dist1[k] for k in outcomes)
        error += min(l0, l1)
    return error / 2.0


@pytest.mark.parametrize("q0,q1,u", [(0.2, 0.6, 1), (0.1, 0.35, 3), (0.55, 0.8, 4)])
def test_nulling_error_matches_string_enumeration(q0, q1, u):
    for applied, grouped in zip((q0, q1), nulling_error(q0, q1, u)):
        assert abs(grouped - _nulling_error_by_strings(q0, q1, u, applied)) < 1e-13


@pytest.mark.parametrize("q0,q1,u", [(0.2, 0.6, 1), (0.1, 0.35, 7), (0.04, 0.0, 12),
                                     (1.0, 0.96, 25), (0.44, 0.4, 40), (0.0, 1.0, 40)])
def test_nulling_error_matches_count_vectors(q0, q1, u):
    for applied, grouped in zip((q0, q1), nulling_error(q0, q1, u)):
        oracle = nulling_count_sum(nulling_outcome_dist(applied, q0),
                                   nulling_outcome_dist(applied, q1), u)
        assert abs(grouped - oracle) < 1e-13


def test_nulling_error_large_u():
    # the count-vector sum overflows converting multinomials to floats here
    assert all(0.0 <= error <= 0.5 for error in nulling_error(0.3, 0.34, 1100))


def _nulling_relative_errors(q0, q1, u):
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        return [float(abs(got / want - 1))
                for got, want in zip(nulling_error(q0, q1, u), mp_nulling_error(mpmath.mp, q0, q1, u))
                if want > 1e-290]


_NULLING_PROB = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0, 1))


@settings(max_examples=100, deadline=None)
@given(_NULLING_PROB, _NULLING_PROB, st.booleans(), st.integers(1, 50))
@example(0.0, 1.0, False, 50)
@example(1.0, 0.0, False, 7)
@example(0.3, 0.0, True, 12)                 # q0 == q1: exactly 1/2
@example(1.0, 0.0, True, 1)
@example(0.61, 0.6100001, False, 40)
def test_nulling_error_relative_accuracy(q0, q1, equal, u):
    q1 = q0 if equal else q1
    assert max(_nulling_relative_errors(q0, q1, u), default=0.0) <= 2e-14


@pytest.mark.parametrize("u", [60, 500, 2000])
@pytest.mark.parametrize("q0,q1", [(0.3, 0.34), (0.0, 0.01), (1.0, 0.999), (0.0, 1.0),
                                   (0.5, 0.5), (1.0, 1.0), (0.2, 0.2000001), (0.95, 0.9)])
def test_nulling_error_relative_accuracy_large_u(q0, q1, u):
    assert max(_nulling_relative_errors(q0, q1, u), default=0.0) <= 1e-12


def test_log_space_pmf_leaves_binomial_sums_unchanged(monkeypatch):
    q0, q1, u = 0.3, 0.34, 40
    fns = (lambda: nulling_error(q0, q1, u)[0], lambda: nulling_error(q0, q1, u)[1],
           lambda: qadc_block_helstrom(q0, q1, u).value, lambda: qadc_block_pgm(q0, q1, u).value)
    direct = [fn() for fn in fns]
    monkeypatch.setattr(orc, "DIRECT_PRODUCT_MAX_U", 0)
    for fn, value in zip(fns, direct):
        assert abs(fn() - value) < 1e-12


def test_nulling_error_basics():
    for q, u in itertools.product((0.0, 0.4, 1.0), (3, 2000)):
        assert nulling_error(q, q, u) == (0.5, 0.5)  # indistinguishable, exactly
    a, b = nulling_error(0.3, 0.5, 2)
    assert (b, a) == nulling_error(0.5, 0.3, 2)  # the matches swap with the pair
    assert abs(min(nulling_error(0.3, 0.5, 3)) - 0.39973719700396043) < 1e-12  # pinned


def test_nulling_never_beats_helstrom():
    for q0, q1, u in [(0.1, 0.4, 2), (0.3, 0.7, 3), (0.2, 0.24, 4)]:
        achievable = min(nulling_error(q0, q1, u))
        assert achievable >= qadc_block_helstrom(q0, q1, u).value - 1e-10


def test_adaptive_lb_arithmetic():
    q0, q1, u, ports = 0.2, 0.5, 3, 40
    xi = default_xi(ports)
    delta = xi * ((1 - q0) / 2 + math.sqrt(1 - q0)) + xi * ((1 - q1) / 2 + math.sqrt(1 - q1))
    f = qadc_choi_fidelity(q0, q1)
    expect = (1.0 - u * delta - math.sqrt(1.0 - f ** (2 * u * ports))) / 2.0
    value = qadc_adaptive_lb_values(q0, q1, u, ports)
    assert abs(value - expect) < 1e-12
    report = qadc_adaptive_lb_opt(q0, q1, u, ports_range=(ports, ports))
    assert report.kind == "lower" and report.value == value
    assert report.params == {"q0": q0, "q1": q1, "u": u, "ports": ports}


def test_adaptive_lb_custom_xi():
    loose = qadc_adaptive_lb_values(0.2, 0.5, 2, 50)
    tight = qadc_adaptive_lb_values(0.2, 0.5, 2, 50, xi=XiTable([1], [0.01]))
    assert tight > loose  # smaller simulation error, better bound


def test_sim_error_refuses_nan_and_negative_xi():
    # xi reaches the kernels only as None or an XiTable, which holds no such value
    for xi, refused in (([np.nan], "non-finite"), ([-0.5], "negative"),
                        ([0.5, np.nan], "non-finite"), ([1.0, -1.0], "negative")):
        with pytest.raises(ChandiscError, match=f"^xi table has {refused} values$"):
            XiTable(np.arange(1, len(xi) + 1), xi)
    # at q = 1 the channel is simulable exactly: no penalty at any xi
    ports, xi = np.array([1, 2, 7]), XiTable([1, 2], [0.0, 2.0])
    assert qadc_adaptive_lb_values(1.0, 1.0, 3, ports, xi=xi).tolist() == [0.5] * 3


@pytest.mark.parametrize("knots", [[1.5, 7.9], [1.5, 7], [0, 7], [-3, 7], [1, 2**70]])
def test_xi_table_knots_are_port_counts(knots):
    # [1.5, 7.9] was stored as [1, 7], knots <= 0 were kept, and 2**70
    # raised a bare OverflowError
    refused = next(k for k in knots if k != int(k) or not 1 <= k <= 2**53)
    with pytest.raises(ChandiscError, match=f"^need an integer port count >= 1 and <= 2\\*\\*53, "
                                            f"got {refused!r}$"):
        XiTable(knots, [2.0, 1.0])
    assert XiTable([1.0, np.int64(7)], [2.0, 1.0]).ports.tolist() == [1, 7]


def test_adaptive_lb_input_checks():
    for ports, refused in ((0, 0), (-3, -3), (2**63, 2**63), (2**70, 2**70),
                           (np.array([4, 0, 9]), 0)):
        count = f"^need an integer port count >= 1 and <= 2\\*\\*53, got {refused}$"
        with pytest.raises(ChandiscError, match=count):
            qadc_adaptive_lb_values(0.2, 0.5, 2, ports)
        with pytest.raises(ChandiscError, match=count):
            qadc_cpf_adaptive_lb_values(0.2, 0.5, 3, 2, ports)
    for xi in (0.01, np.nan, lambda p: 3.0 - p, [1.0, 1.0, 1.0, 1.0]):
        with pytest.raises(ChandiscError, match="None or an XiTable"):
            qadc_adaptive_lb_values(0.2, 0.5, 2, np.arange(1, 5), xi=xi)
        with pytest.raises(ChandiscError, match="None or an XiTable"):
            qadc_cpf_adaptive_lb_values(0.2, 0.5, 3, 2, np.arange(1, 5), xi=xi)
    with pytest.raises(ChandiscError, match="^q1 must lie in \\[0, 1\\], got 1.5$"):
        qadc_adaptive_lb_values(0.2, 1.5, 2, 4)


def test_adaptive_lb_opt_matches_manual_scan():
    q0, q1, u = 0.3, 0.48, 4
    report = qadc_adaptive_lb_opt(q0, q1, u, ports_range=(1, 4000))
    values = qadc_adaptive_lb_values(q0, q1, u, np.arange(1, 4001))
    manual = int(np.argmax(values)) + 1  # the first maximum: ties go to fewer ports
    assert report.params["ports"] == manual
    assert report.value == values[manual - 1]


def test_adaptive_lb_below_block_error_where_positive():
    q0, q1, u = 0.44, 0.48, 4
    report = qadc_adaptive_lb_opt(q0, q1, u)
    assert report.value > 0  # informative at this nearly-degenerate pair
    assert report.params["ports"] < 10**6  # interior optimum, not a range edge
    assert report.value <= qadc_block_helstrom(q0, q1, u).value + 1e-9


def test_cpf_adaptive_lb_arithmetic():
    q_b, q_t, m, u, ports = 0.3, 0.6, 3, 2, 25
    f = qadc_choi_fidelity(q_b, q_t)
    expect = pbt_position_finding_adaptive_lb(f, q_b, q_t, m, u, ports, 4.0 / ports)
    value = qadc_cpf_adaptive_lb_values(q_b, q_t, m, u, ports)
    assert abs(value - expect) < 1e-14
    report = qadc_cpf_adaptive_lb_opt(q_b, q_t, m, u, ports_range=(ports, ports))
    assert report.kind == "lower" and report.value == value
    assert report.params == {"q_b": q_b, "q_t": q_t, "m": m, "u": u, "ports": ports}


_PROB = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0, 1))

# xi = min(4/M, 2) sampled at powers of two and held between them
_XI_KNOTS = [(2**k, min(4.0 / 2**k, 2.0)) for k in range(12)]


@st.composite
def _adaptive_case(draw):
    q0 = draw(_PROB)
    q1 = q0 if draw(st.booleans()) else draw(_PROB)
    return q0, q1, draw(st.integers(2, 6)), draw(st.integers(1, 12)), draw(st.booleans())


@settings(max_examples=50, deadline=None)
@given(_adaptive_case())
@example((0.3, 0.48, 3, 4, False))
@example((0.44, 0.48, 2, 4, True))
@example((0.6719028034776905, 0.76048659866525, 6, 2, True))  # a staged grid alone found 32, not 64
@example((0.9857696351964191, 0.9867696351964191, 3, 11, True))  # and 256, not 512
def test_adaptive_bounds_match_oracle_and_brute_force(case):
    # every port count 1..3000 against plain-math formulas, and both
    # optimizers against the argmax over all of them (ties to fewer ports):
    # checks the stationary-point candidates with the default xi, and the
    # non-increasing stretches between knots with a tabulated one
    q0, q1, m, u, tabled = case
    xi = XiTable(*zip(*_XI_KNOTS)) if tabled else None
    xi_at = (lambda p: step_xi(_XI_KNOTS, p)) if tabled else (lambda p: min(4.0 / p, 2.0))
    fid = qadc_choi_fidelity(q0, q1)
    ports = range(1, 3001)
    routes = [
        (qadc_adaptive_lb_values(q0, q1, u, np.array(ports), xi=xi),
         [pbt_pair_adaptive_lb(fid, q0, q1, u, p, xi_at(p)) for p in ports],
         qadc_adaptive_lb_opt(q0, q1, u, xi=xi, ports_range=(1, 3000))),
        (qadc_cpf_adaptive_lb_values(q0, q1, m, u, np.array(ports), xi=xi),
         [pbt_position_finding_adaptive_lb(fid, q0, q1, m, u, p, xi_at(p)) for p in ports],
         qadc_cpf_adaptive_lb_opt(q0, q1, m, u, xi=xi, ports_range=(1, 3000))),
    ]
    for values, oracle, report in routes:
        assert np.max(np.abs(values - oracle)) <= 1e-15
        best = max(ports, key=lambda p: (oracle[p - 1], -p))
        assert report.params["ports"] == best
        assert abs(report.value - oracle[best - 1]) <= 1e-15


@st.composite
def _xi_tables(draw):
    # finite non-negative steps, some knots beyond the searched range
    ports = sorted(draw(st.lists(st.integers(1, 4000), min_size=1, max_size=6, unique=True)))
    values = draw(st.lists(st.floats(0, 4), min_size=len(ports), max_size=len(ports)))
    return XiTable(ports, values)


@settings(max_examples=40, deadline=None)
@given(_PROB, _PROB, st.sampled_from([(2, 4), (4, 2), (3, 3)]), st.none() | _xi_tables())
def test_port_search_returns_the_brute_force_argmax(q_b, q_t, m_u, xi):
    # both optimizers against one kernel call over every port count in range
    m, u = m_u
    ports = np.arange(1, 3001)
    routes = [
        (qadc_cpf_adaptive_lb_values(q_b, q_t, m, u, ports, xi=xi),
         qadc_cpf_adaptive_lb_opt(q_b, q_t, m, u, xi=xi, ports_range=(1, 3000))),
        (qadc_adaptive_lb_values(q_b, q_t, u, ports, xi=xi),
         qadc_adaptive_lb_opt(q_b, q_t, u, xi=xi, ports_range=(1, 3000))),
    ]
    for values, report in routes:
        best = int(np.argmax(values))  # the first maximum: ties go to fewer ports
        assert report.params["ports"] == best + 1
        assert report.value == values[best]


@st.composite
def _pairs(draw):
    # endpoints and equal parameters are drawn on purpose: the sums must not
    # special-case them
    q0 = draw(_PROB)
    q1 = q0 if draw(st.booleans()) else draw(_PROB)
    return q0, q1, draw(st.integers(1, 2000))


@settings(max_examples=100, deadline=None)
@given(_pairs())
@example((0.08, 0.04, 8))
@example((1.0, 0.0, 1))
@example((0.0, 0.0, 2000))
@example((1.0, 1.0, 1968))                 # 0.5 + 1.0e-12 with the old log-space pmf
@example((1.0, 0.9999999999999999, 1))     # a Choi fidelity rounded to 1
def test_block_pair_bracket_properties(pair):
    q0, q1, u = pair
    tol = 1e-12
    helstrom = qadc_block_helstrom(q0, q1, u).value
    pgm = qadc_block_pgm(q0, q1, u).value
    nulling = min(nulling_error(q0, q1, u))
    lower, upper = fvg_sandwich(qadc_choi_fidelity(q0, q1), u)
    assert lower - tol <= helstrom <= min(upper, pgm, nulling) + tol
    assert pgm <= 2.0 * helstrom + tol
    assert qadc_block_helstrom(q1, q0, u).value == helstrom
    assert qadc_block_pgm(q1, q0, u).value == pgm
    assert abs(min(nulling_error(q1, q0, u)) - nulling) <= tol
    assert qadc_block_helstrom(q0, q1, u + 1).value <= helstrom + tol


def test_block_pair_with_equal_parameters_is_blind_guessing_at_large_u():
    # with a pmf summing to 1 only within 1.1e-15 u this read 0.5000000000010021 at u = 1968
    for q, u in [(1.0, 1968), (0.5, 2000), (0.3, 5000)]:
        assert abs(qadc_block_helstrom(q, q, u).value - 0.5) <= 1e-15
        assert abs(qadc_block_pgm(q, q, u).value - 0.5) <= 1e-15


# A 2-D array of (q0, q1) points: the endpoints, equal channels, a Choi
# fidelity that rounds to 1, and interior pairs either way round
_Q0 = np.array([[0.0, 1.0, 0.3, 0.3], [0.04, 0.0, 1.0, 1.0], [0.5, 0.61, 0.2, 0.96]])
_Q1 = np.array([[0.0, 1.0, 0.3, 0.7], [0.0, 1.0, 0.0, 0.9999999999999999],
                [0.5, 0.6100001, 0.24, 1.0]])

# Each damping kernel over points, called with (q0, q1, u)
_XI = XiTable([1, 8, 64], [2.0, 0.5, 0.1])
_KERNELS = {
    "qadc_choi_fidelity": lambda q0, q1, u: qadc_choi_fidelity(q0, q1),
    "fvg_sandwich": lambda q0, q1, u: fvg_sandwich(qadc_choi_fidelity(q0, q1), u),
    "cpf_nonadaptive_fidelity_lb":
        lambda q0, q1, u: cpf_nonadaptive_fidelity_lb(qadc_choi_fidelity(q0, q1), 3, u),
    "qadc_block_helstrom": qadc_block_helstrom,
    "qadc_block_pgm": qadc_block_pgm,
    "nulling_outcome_dist": lambda q0, q1, u: nulling_outcome_dist(q0, q1),
    "nulling_error": nulling_error,
    "qadc_adaptive_lb_values": lambda q0, q1, u: qadc_adaptive_lb_values(
        np.asarray(q0)[..., None], np.asarray(q1)[..., None], u, [1, 2, 49, 3000]),
    "qadc_cpf_adaptive_lb_values": lambda q0, q1, u: qadc_cpf_adaptive_lb_values(
        np.asarray(q0)[..., None], np.asarray(q1)[..., None], 4, u, [1, 2, 148, 10**6]),
    "qadc_adaptive_lb_opt": qadc_adaptive_lb_opt,
    "qadc_adaptive_lb_opt:xi":
        lambda q0, q1, u: qadc_adaptive_lb_opt(q0, q1, u, xi=_XI, ports_range=(3, 5000)),
    "qadc_cpf_adaptive_lb_opt": lambda q0, q1, u: qadc_cpf_adaptive_lb_opt(q0, q1, 4, u),
    "qadc_cpf_adaptive_lb_opt:xi": lambda q0, q1, u: qadc_cpf_adaptive_lb_opt(
        q0, q1, 2, u, xi=_XI, ports_range=(1, 40)),
    "qadc_cpf_block_pgm": lambda q0, q1, u: qadc_cpf_block_pgm(q0, q1, 3, u),
}


def _parts(result):
    # a kernel's result as a list: a report's value and parameters, or a tuple's entries
    if isinstance(result, BoundReport):
        return [result.value, *result.params.values()]
    return list(result) if isinstance(result, tuple) else [result]


@pytest.mark.parametrize("u", [1, 8, 60])
@pytest.mark.parametrize("name", sorted(_KERNELS))
def test_kernels_on_arrays_equal_the_kernels_point_by_point(monkeypatch, name, u):
    # Each damping kernel on a 2-D array of points gives, bit for bit, what it
    # gives on each point alone, also when its count tables are built in
    # passes of two points (u = 60 takes Loader's pmf).
    kernel = _KERNELS[name]
    points = [_parts(kernel(q0, q1, u)) for q0, q1 in zip(_Q0.ravel().tolist(),
                                                         _Q1.ravel().tolist())]
    for entries in (orc.TABLE_ENTRIES, 2 * (u + 1)):
        monkeypatch.setattr(orc, "TABLE_ENTRIES", entries)
        parts = _parts(kernel(_Q0, _Q1, u))
        assert len(parts) == len(points[0])
        for part, column in zip(parts, zip(*points)):
            if np.ndim(part) == 0:  # a size every point shares
                assert set(column) == {part}
            else:
                assert part.shape[:2] == _Q0.shape
                expected = np.array(column, dtype=part.dtype).reshape(part.shape)
                if part.dtype.kind == "f":  # bit for bit, the sign of zero included
                    part, expected = part.view(np.uint64), expected.view(np.uint64)
                np.testing.assert_array_equal(part, expected, strict=True)


@pytest.mark.parametrize("u", [1, 3, 8, 50, 51, 2000])
def test_block_pair_with_equal_parameters_is_exactly_one_half(u):
    # Both block sums are divided by the mean pmf total: the pmf sums to
    # 1 - 2**-53 at q = 0.15, u = 3, and both columns printed
    # 4.9999999999999994e-01 at q = 0.3 next to a fidelity lower bound of 1/2.
    q = np.array([0.0, 0.0059513701127588475, 0.3, 0.5, 0.7, 1.0])
    for report in (qadc_block_helstrom(q, q, u), qadc_block_pgm(q, q, u)):
        assert report.value.tolist() == [0.5] * len(q)
    assert qadc_block_helstrom(0.3, 0.3, 3).value == qadc_block_pgm(0.3, 0.3, 3).value == 0.5


@pytest.mark.parametrize("m,u", [(2, 1), (2, 4), (4, 2), (3, 5)])
def test_position_finding_pgm_on_arrays_equals_it_point_by_point(monkeypatch, m, u):
    # Every (q_b, q_t) pair of the endpoints, q_b = 5e-324 (q_b/2 underflows
    # to 0), a quotient q_t/q_b that overflows and equal pairs: a 7x7 array
    # gives, bit for bit, what each point gives alone, in one pass and in
    # passes of three points, whose boundaries fall inside the array's rows.
    q = [0.0, 5e-324, 1e-310, 0.3, 0.5, 1.0 - 1e-16, 1.0]
    q_b, q_t = np.meshgrid(q, q, indexing="ij")
    points = [qadc_cpf_block_pgm(b, t, m, u).value
              for b, t in zip(q_b.ravel().tolist(), q_t.ravel().tolist())]
    assert {type(value) for value in points} == {float}
    classes = math.comb(m + u, m)
    for entries in (orc.TABLE_ENTRIES, 3 * classes):
        monkeypatch.setattr(orc, "TABLE_ENTRIES", entries)
        report = qadc_cpf_block_pgm(q_b, q_t, m, u)
        assert report.params["classes"] == classes and report.value.shape == q_b.shape
        np.testing.assert_array_equal(report.value.ravel().view(np.uint64),
                                      np.array(points).view(np.uint64), strict=True)


def test_position_finding_pgm_input_checks():
    for args, refused in [((0.3, 0.5, 1, 2), "need an integer m >= 2 and <= 2\\*\\*53, got 1"),
                          ((0.3, 0.5, 2, 0), "need an integer u >= 1 and <= 2\\*\\*53, got 0"),
                          ((1.5, 0.5, 2, 2), "q_b must lie in \\[0, 1\\], got 1.5"),
                          ((0.3, -0.1, 2, 2), "q_t must lie in \\[0, 1\\], got -0.1")]:
        with pytest.raises(ChandiscError, match=f"^{refused}$"):
            qadc_cpf_block_pgm(*args)


def test_weight_class_tables_are_built_once_and_read_only():
    # every sorted weight vector of each (m, u) once, from tables shared across calls
    from chandisc.qadc import _weight_classes
    for m, u in itertools.product(range(2, 7), range(1, 9)):
        vectors = []
        for side in range(1, min(m, u + 1) + 1):
            weights, groups = _weight_classes(m, u, side)
            assert _weight_classes(m, u, side)[0] is weights
            assert weights.shape[1] == groups.shape[1] == side
            assert not weights.flags.writeable and not groups.flags.writeable
            vectors += [tuple(np.repeat(w, g)) for w in weights for g in groups]
        assert sorted(vectors) == list(itertools.combinations_with_replacement(range(u + 1), m))
    before = qadc_cpf_block_pgm(0.3, 0.1, 3, 4).value
    assert qadc_cpf_block_pgm(0.3, 0.1, 3, 4).value == before


@st.composite
def _position_finding(draw):
    q_b = draw(_PROB)
    q_t = q_b if draw(st.booleans()) else draw(_PROB)
    return q_b, q_t, draw(st.integers(2, 6)), draw(st.integers(1, 8))


@settings(max_examples=100, deadline=None)
@given(_position_finding())
@example((0.44, 0.40, 4, 2))
@example((0.0, 1.0, 6, 8))
@example((1.0, 0.0, 2, 1))
@example((0.5, 0.5, 6, 8))
@example((0.0059513701127588475, 0.0059513701127588475, 2, 5))  # x0/B0 rounds off 1 as a quotient
def test_position_finding_pgm_bracket_properties(case):
    q_b, q_t, m, u = case
    pgm = qadc_cpf_block_pgm(q_b, q_t, m, u).value
    fid = qadc_choi_fidelity(q_b, q_t)
    # Barnum-Knill: the PGM errs at most sum_{n != n'} F_nn' / m, and two
    # hypotheses differ in 2u uses, so F_nn' = fid**(2u)
    upper = min((m - 1) / m, (m - 1) * fid ** (2 * u))
    assert cpf_nonadaptive_fidelity_lb(fid, m, u).value - 1e-12 <= pgm <= upper + 1e-12
    if q_b == q_t:
        assert abs(pgm - (m - 1) / m) <= 1e-15
