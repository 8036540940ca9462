import functools
import math
import re
import time
from unittest import mock

import numpy as np
import pytest

from hypothesis import example, given, settings
from hypothesis import strategies as st

from chandisc import cpf, qadc
from chandisc.channels import choi, make_qadc, make_qdc
from chandisc.cpf import (
    PAIR_PEAK_X,
    cpf_nonadaptive_fidelity_lb,
    pair_peak,
    position_peak,
)
from chandisc.discrimination import helstrom_iterative, pgm_error
from chandisc.linalg import MAX_COUNT, ChandiscError
from chandisc.orc import h_mu_values, qdc_scales
from chandisc.qadc import (XiTable, qadc_adaptive_lb_opt, qadc_adaptive_lb_values,
                          qadc_choi_fidelity, qadc_cpf_adaptive_lb_opt,
                          qadc_cpf_adaptive_lb_values, qadc_cpf_block_pgm)

from _oracles import (build_cpf_choi_ensemble, cpf_block_fidelity_lb, cyclic_shift,
                      dense_block_ensemble, fidelity, general_fidelity_lb, staged_search)


def test_cyclic_shift_is_permutation_with_order_m():
    for cell, m in [(2, 3), (3, 2), (4, 2)]:
        s = cyclic_shift(cell, m)
        assert np.abs(s @ s.conj().T - np.eye(cell**m)).max() < 1e-15
        power = np.linalg.matrix_power(s, m)
        np.testing.assert_allclose(power, np.eye(cell**m), atol=1e-12)


def test_ensemble_is_geometrically_uniform():
    background, m = make_qadc(0.3), 3
    ens = build_cpf_choi_ensemble(background, make_qadc(0.6), m)
    s = cyclic_shift(choi(background).dim, m)
    for n in range(m):
        rotated = s @ ens.states[n].mat @ s.conj().T
        target = ens.states[(n + 1) % m].mat
        assert np.abs(rotated - target).max() < 1e-12
    np.testing.assert_allclose(ens.priors, 1 / 3)


def test_ensemble_pairwise_fidelity_is_squared_choi_fidelity():
    background, target = make_qadc(0.25), make_qadc(0.55)
    ens = build_cpf_choi_ensemble(background, target, 3)
    pair = fidelity(choi(background), choi(target))
    for i in range(3):
        for j in range(i + 1, 3):
            f = fidelity(ens.states[i], ens.states[j])
            assert abs(f - pair * pair) < 1e-10


def test_ensemble_dimension_guard():
    with pytest.raises(ChandiscError, match="^ambient dimension 4\\*\\*8 exceeds guard 4096$"):
        build_cpf_choi_ensemble(make_qadc(0.2), make_qadc(0.4), 8, max_dim=4096)


def test_sim_error_combines_cells_linearly():
    # m - 1 background cells and one target cell: the penalty is u/2 times
    # (m - 1) delta_b + delta_t, delta = xi ((1 - q)/2 + sqrt(1 - q)) at xi = 0.5
    q_b, q_t, m, u, ports = 0.36, 0.64, 4, 2, np.array([3, 40])
    delta_b, delta_t = 0.5 * (0.32 + 0.8), 0.5 * (0.18 + 0.6)
    block = cpf._fidelity_lb(qadc_choi_fidelity(q_b, q_t), m, u, ports, 0.0)
    value = qadc_cpf_adaptive_lb_values(q_b, q_t, m, u, ports, xi=XiTable([1], [0.5]))
    np.testing.assert_allclose(value, block - u * ((m - 1) * delta_b + delta_t) / 2, rtol=1e-12)
    with pytest.raises(ChandiscError, match="^xi table has negative values$"):
        XiTable([1], [-0.1])  # a negative simulation error
    with pytest.raises(ChandiscError, match="^need an integer m >= 2 and <= 2\\*\\*53, got 1$"):
        qadc_cpf_adaptive_lb_values(q_b, q_t, 1, u, ports)


def test_theorem1_arithmetic():
    # the adaptive bound is the block bound minus the penalty u * delta_avg / 2
    block = cpf._fidelity_lb(0.9, 3, 3, np.int64(5), 0.0)
    assert cpf._fidelity_lb(0.9, 3, 3, np.int64(5), 0.1) == pytest.approx(block - 0.15)
    assert cpf._fidelity_lb(0.9, 3, 4, np.int64(5), 0.5) < 0  # vacuous
    assert qadc_cpf_adaptive_lb_values(0.3, 0.6, 3, 4, 5) < 0  # vacuous, default xi
    with pytest.raises(ChandiscError, match="^xi table has negative values$"):
        XiTable([1, 2], [1.0, -0.1])  # the only route to a negative simulation error


def test_fidelity_lb_specialization_matches_general_form():
    background, target = make_qadc(0.3), make_qadc(0.7)
    ens = build_cpf_choi_ensemble(background, target, 3)
    pair = fidelity(choi(background), choi(target))
    for u, ports, delta in [(1, 1, 0.0), (2, 5, 0.01), (3, 40, 0.2)]:
        a = general_fidelity_lb(ens, u, ports, delta).value
        b = cpf._fidelity_lb(pair, 3, u, np.int64(ports), delta)
        assert abs(a - b) < 1e-12


def test_nonadaptive_lb_is_single_port_zero_error_case():
    a = cpf_nonadaptive_fidelity_lb(0.9, m=4, u=3).value
    b = cpf._fidelity_lb(0.9, 4, 3, np.int64(1), 0.0)
    assert abs(a - b) < 1e-15
    assert a == pytest.approx(3 / 8 * 0.9 ** 12)


# The port-count maximum of each damping kernel.
_OPT = {qadc_adaptive_lb_values: qadc_adaptive_lb_opt,
        qadc_cpf_adaptive_lb_values: qadc_cpf_adaptive_lb_opt}

# (q0, q1, u) of a `binary --kind qadc --u 1 --gap 0.04` row
_BIMODAL_ROW = (0.04482412060301508, 0.004824120603015075, 1)


def _recording(monkeypatch, calls):
    # record the port counts each damping kernel is called on
    for name in ("qadc_adaptive_lb_values", "qadc_cpf_adaptive_lb_values"):
        kernel = getattr(qadc, name)

        def recorded(*args, _kernel=kernel, **kwargs):
            calls.append(np.asarray(args[-1]).tolist())
            return _kernel(*args, **kwargs)
        monkeypatch.setattr(qadc, name, recorded)


def test_optimizer_finds_exact_integer_peak():
    # a step down of xi at 137 ports: the bound jumps up there, then falls
    xi = XiTable([1, 137], [2.0, 0.0])
    for report in (qadc_adaptive_lb_opt(0.3, 0.5, 1, xi=xi),
                   qadc_cpf_adaptive_lb_opt(0.3, 0.5, 3, 1, xi=xi)):
        assert report.params["ports"] == 137
    assert report.value == qadc_cpf_adaptive_lb_values(0.3, 0.5, 3, 1, 137, xi=xi)
    # with the default xi, an interior stationary point
    assert qadc_cpf_adaptive_lb_opt(0.44, 0.40, 4, 2).params["ports"] == 148


def test_optimizer_calls_the_bound_once_per_stage_on_fresh_ports(monkeypatch):
    # one stage: one kernel call on at most five distinct ports, in order
    calls = []
    _recording(monkeypatch, calls)
    for q_b, q_t in [(0.44, 0.40), (0.04, 0.0), (1.0, 1.0), (0.3, 0.3), (1.0, 0.0)]:
        for opt in (lambda: qadc_adaptive_lb_opt(q_b, q_t, 3),
                    lambda: qadc_cpf_adaptive_lb_opt(q_b, q_t, 3, 2, ports_range=(2, 10**9))):
            calls.clear()
            opt()
            assert len(calls) == 1
            assert calls[0] == sorted(set(calls[0])) and 1 <= len(calls[0]) <= 5


def test_optimizer_search_order_is_pinned(monkeypatch):
    # the candidates: lo, 2, both sides of the stationary point, and hi
    calls = []
    _recording(monkeypatch, calls)
    assert qadc_cpf_adaptive_lb_opt(0.44, 0.40, 4, 2).params["ports"] == 148
    assert qadc_cpf_adaptive_lb_opt(0.2, 0.24, 2, 4).params["ports"] == 10**6
    assert qadc_adaptive_lb_opt(*_BIMODAL_ROW).params["ports"] == 49
    assert calls == [[1, 2, 148, 149, 10**6], [1, 2, 214, 215, 10**6], [1, 2, 48, 49, 10**6]]
    # out of range candidates drop out; a one-port range is its own candidate
    calls.clear()
    qadc_cpf_adaptive_lb_opt(0.44, 0.40, 4, 2, ports_range=(100, 148))
    qadc_cpf_adaptive_lb_opt(0.44, 0.40, 4, 2, ports_range=(7, 7))
    assert calls == [[100, 148], [7]]


def test_optimizer_evaluates_breakpoints_first(monkeypatch):
    # xi steps down at 99 and 973 and up at 2500, constant in between: the
    # bound is largest at a knot, and only lo and the knots in range are
    # evaluated
    xi = XiTable([1, 99, 973, 2500, 4000], [2.0, 1.0, 0.5, 1.5, 0.0])
    calls = []
    _recording(monkeypatch, calls)
    for kernel, args in [(qadc_adaptive_lb_values, (0.30, 0.31, 2)),
                         (qadc_cpf_adaptive_lb_values, (0.30, 0.31, 3, 2))]:
        calls.clear()
        report = _OPT[kernel](*args, xi=xi, ports_range=(1, 3000))
        assert calls == [[1, 99, 973, 2500]]
        values = kernel(*args, np.arange(1, 3001), xi=xi)
        assert (report.params["ports"], report.value) == (973, values[972]) == \
            (int(np.argmax(values)) + 1, values.max())
    calls.clear()
    qadc_adaptive_lb_opt(0.30, 0.31, 2, xi=xi, ports_range=(100, 2000))
    assert calls == [[100, 973]]


def test_optimizer_refuses_ranges_beyond_exact_grid_points():
    # port counts above 2**53 have no exact float, nor the exponent 4 u ports
    assert qadc_adaptive_lb_opt(0.04, 0.0, 2, ports_range=(1, 2**53)).params["ports"] >= 1
    for hi in (2**53 + 1, 2**63 - 1, 10**19):
        with pytest.raises(ChandiscError, match="2\\*\\*53"):
            qadc_adaptive_lb_opt(0.04, 0.0, 2, ports_range=(1, hi))
        with pytest.raises(ChandiscError, match="2\\*\\*53"):
            qadc_cpf_adaptive_lb_opt(0.04, 0.0, 2, 2, ports_range=(1, hi))
    for ports_range in [(0, 5), (5, 4)]:
        with pytest.raises(ChandiscError, match="invalid port range"):
            qadc_cpf_adaptive_lb_opt(0.04, 0.0, 2, 2, ports_range=ports_range)


def test_optimizer_refuses_nan_bounds(monkeypatch):
    # NaN compares false with everything, so the argmax cannot use it
    with pytest.raises(ChandiscError, match="^xi must be None or an XiTable, got float$"):
        qadc_adaptive_lb_opt(0.3, 0.2, 2, xi=np.nan)  # an XiTable holds no NaN
    monkeypatch.setattr(qadc, "qadc_adaptive_lb_values",
                        lambda *args, **kwargs: np.where(args[-1] == 7, np.nan, 0.0))
    with pytest.raises(ChandiscError, match="NaN at 7 ports"):
        qadc_adaptive_lb_opt(0.3, 0.2, 2, xi=XiTable([1, 7], [1.0, 0.5]))
    monkeypatch.setattr(qadc, "qadc_adaptive_lb_values",
                        lambda *args, **kwargs: np.full(len(args[-1]), np.nan))
    with pytest.raises(ChandiscError, match="NaN at 1 ports"):
        qadc_adaptive_lb_opt(0.3, 0.2, 2)


@pytest.mark.parametrize("ports", [[2.5, 3.9], [1.9], np.array([4.0, 1.5]), [np.nan], [np.inf],
                                   [1e300]])
def test_port_counts_must_be_integers(ports):
    # a fractional count was truncated: [1.9] gave the value at 1 port
    with pytest.raises(ChandiscError, match="need an integer port count"):
        XiTable(ports, np.ones(len(ports)))
    with pytest.raises(ChandiscError, match="need an integer port count"):
        qadc_adaptive_lb_values(0.3, 0.2, 2, ports)
    with pytest.raises(ChandiscError, match="need an integer port count"):
        qadc_cpf_adaptive_lb_values(0.3, 0.2, 3, 2, ports)
    # whole floats are counts
    assert qadc_adaptive_lb_values(0.3, 0.2, 2, [1.0, 4.0]).tolist() == \
        qadc_adaptive_lb_values(0.3, 0.2, 2, [1, 4]).tolist()


@pytest.mark.parametrize("bad", [2**53 + 1, 2**62, 2.5, np.nan])
def test_port_counts_follow_the_count_rule(bad):
    # the one rule for counts, linalg.check_count: integers in [1, 2**53].
    # Above 2**53 neighbouring counts share one float, so 2**53 + 1 gave
    # the value at 2**53 and XiTable kept 2**62.
    named = re.escape(repr(bad))
    for ports in ([1, bad], np.array([1, bad])):
        with pytest.raises(ChandiscError, match=f"need an integer port count .*got {named}$"):
            XiTable(ports, [1.0, 0.5])
        with pytest.raises(ChandiscError, match=f"got {named}$"):
            qadc_adaptive_lb_values(0.3, 0.2, 2, ports)
        with pytest.raises(ChandiscError, match=f"got {named}$"):
            qadc_cpf_adaptive_lb_values(0.3, 0.2, 2, 4, ports)
    for ports_range in [(1, bad), (bad, 2**53)]:
        with pytest.raises(ChandiscError, match=f"invalid port range .*got {named}$"):
            qadc_adaptive_lb_opt(0.3, 0.2, 2, ports_range=ports_range)
        with pytest.raises(ChandiscError, match=f"invalid port range .*got {named}$"):
            qadc_cpf_adaptive_lb_opt(0.3, 0.2, 2, 4, ports_range=ports_range)
    with pytest.raises(ChandiscError, match="at least one knot"):  # one count is no table
        XiTable(4, [1.0])
    # 2**53 is a count
    top = [2**53 - 1, 2**53]
    assert XiTable(top, [1.0, 0.5]).ports.tolist() == top
    for kernel, args in [(qadc_adaptive_lb_values, (0.3, 0.2, 2)),
                         (qadc_cpf_adaptive_lb_values, (0.3, 0.2, 2, 4))]:
        assert np.isfinite(kernel(*args, np.array(top))).all()
        report = _OPT[kernel](*args, ports_range=(2**53, 2**53))
        assert report.params["ports"] == 2**53


def test_optimizer_prefers_smaller_port_count_on_ties():
    # the tie rule: the smallest port among float-equal maxima.  Equal
    # channels at q = 1 simulate exactly and never differ: 1/2 everywhere.
    for lo in (1, 5):
        assert qadc_adaptive_lb_opt(1.0, 1.0, 3, ports_range=(lo, 500)).params["ports"] == lo
        assert qadc_cpf_adaptive_lb_opt(1.0, 1.0, 3, 3, ports_range=(lo, 500)).params["ports"] == lo
    # equal channels (F = 1) with xi flat from 10 ports on: every port from
    # 10 on ties, and the full scan agrees
    xi = XiTable([1, 10, 20], [1.0, 0.5, 0.5])
    for kernel, args in [(qadc_adaptive_lb_values, (0.3, 0.3, 2)),
                         (qadc_cpf_adaptive_lb_values, (0.3, 0.3, 3, 2))]:
        values = kernel(*args, np.arange(1, 501), xi=xi)
        assert (values[9:] == values[9]).all() and values[9] > values[0]
        assert _OPT[kernel](*args, xi=xi, ports_range=(1, 500)).params["ports"] == 10


def test_optimizer_handles_boundary_maxima():
    # equal channels (F = 1): the penalty B/M fades and nothing else moves
    for kernel, args in [(qadc_adaptive_lb_values, (0.3, 0.3, 2)),
                         (qadc_cpf_adaptive_lb_values, (0.3, 0.3, 3, 2))]:
        assert _OPT[kernel](*args, ports_range=(1, 3000)).params["ports"] == 3000
        # a constant xi: the fidelity term only falls
        assert _OPT[kernel](*args, xi=XiTable([1], [0.5]), ports_range=(4, 3000)).params[
            "ports"] == 4
    # negative everywhere, rising toward 0 from below
    assert qadc_cpf_adaptive_lb_opt(0.2, 0.24, 2, 4).params["ports"] == 10**6


def test_optimizer_matches_brute_force_on_bound_shape():
    # the adaptive bounds trade a falling fidelity term against a fading
    # penalty; compare with full enumeration
    for kernel, args in [(qadc_adaptive_lb_values, (0.3, 0.48, 4)),
                         (qadc_adaptive_lb_values, (0.9, 0.99, 1)),
                         (qadc_cpf_adaptive_lb_values, (0.05, 0.0, 7, 3)),
                         (qadc_cpf_adaptive_lb_values, (0.6, 0.75, 2, 30))]:
        values = kernel(*args, np.arange(1, 3001))
        report = _OPT[kernel](*args, ports_range=(1, 3000))
        assert (report.params["ports"], report.value) == (int(np.argmax(values)) + 1,
                                                          values.max())


@pytest.mark.parametrize("kernel,args,best", [
    (qadc_adaptive_lb_values, _BIMODAL_ROW, 49),
    (qadc_cpf_adaptive_lb_values, (0.44, 0.40, 4, 2), 148),
    (qadc_cpf_adaptive_lb_values, (0.9, 0.94, 4, 2), 47),
    (qadc_cpf_adaptive_lb_values, (0.2, 0.24, 2, 4), 10**6),  # negative everywhere
])
def test_optimizer_matches_a_scan_of_every_port(kernel, args, best):
    # the damping bounds are not unimodal in the port count; the optimum
    # must still be what one kernel call on all 10**6 ports finds
    ports = np.arange(1, 10**6 + 1, dtype=np.int64)
    values = kernel(*args, ports)
    top = int(np.argmax(values))  # the first maximum: ties prefer fewer ports
    report = _OPT[kernel](*args)
    assert (report.params["ports"], report.value) == (ports[top], values[top])
    assert report.params["ports"] == best


_PROB = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))


@st.composite
def _damping_case(draw, lo, hi):
    # either damping kernel at drawn (q, m, u), with or without an XiTable
    # whose knots fall inside and outside the range
    q_b = draw(_PROB)
    q_t = q_b if draw(st.booleans()) else draw(_PROB)
    m, u = draw(st.integers(2, 50)), draw(st.integers(1, 300))
    xi = None
    if draw(st.booleans()):
        knots = sorted(draw(st.sets(st.integers(max(lo - 100, 1), min(2 * hi, MAX_COUNT)),
                                    min_size=1, max_size=6)))
        xi = XiTable(knots, [draw(st.floats(0.0, 2.0)) for _ in knots])
    if draw(st.booleans()):
        return qadc_adaptive_lb_values, (q_b, q_t, u), xi
    return qadc_cpf_adaptive_lb_values, (q_b, q_t, m, u), xi


def _rounding(value):
    # a bound for the rounding of a kernel value: its terms are at most
    # 1 + |value| in size, each rounded a few times
    return 16 * np.finfo(np.float64).eps * (1.0 + abs(value))


@st.composite
def _port_range(draw):
    # lo == hi, short spans, and spans up to 10**9, also just below the
    # largest port count accepted
    near_top = st.integers(MAX_COUNT - 2 * 10**9, MAX_COUNT - 10**9)
    lo = draw(st.one_of(st.integers(1, 10**9), near_top))
    span = draw(st.one_of(st.just(0), st.integers(1, 2000), st.integers(2001, 10**9)))
    return lo, lo + span


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_optimizer_matches_the_staged_dict_search(data):
    # the staged search is a second route: the candidates never do worse,
    # and where the two maxima agree they name the same port unless two
    # ports tie within rounding
    lo, hi = data.draw(_port_range())
    kernel, args, xi = data.draw(_damping_case(lo, hi))
    report = _OPT[kernel](*args, xi=xi, ports_range=(lo, hi))
    bound = functools.partial(kernel, *args, xi=xi)
    best_ports, best_value, _ = staged_search(bound, (lo, hi), () if xi is None else xi.ports)
    slack = _rounding(best_value)
    assert report.value >= best_value - slack
    assert report.value == bound(np.array([report.params["ports"]]))[0]
    if report.params["ports"] != best_ports:
        assert abs(report.value - best_value) <= slack or report.value > best_value


def test_optimization_result_requires_consistent_maximum():
    # the report's value is the kernel's value at the report's port count
    xi = XiTable([1, 64, 700], [2.0, 0.1, 0.02])
    for kernel, args in [(qadc_adaptive_lb_values, (0.3, 0.48, 4)),
                         (qadc_cpf_adaptive_lb_values, (0.44, 0.40, 4, 2))]:
        for table in (None, xi):
            report = _OPT[kernel](*args, xi=table, ports_range=(3, 5000))
            assert report.kind == "lower"
            assert report.value == kernel(*args, report.params["ports"], xi=table)
            assert 3 <= report.params["ports"] <= 5000


@st.composite
def _xi_tables(draw):
    # finite non-negative steps, knots inside and beyond the scanned ranges
    knots = sorted(draw(st.sets(st.integers(1, 2 * 10**5 + 100), min_size=1, max_size=6)))
    return XiTable(knots, [draw(st.floats(0.0, 2.0)) for _ in knots])


@settings(max_examples=150, deadline=None)
@given(_PROB, _PROB, st.booleans(), st.integers(2, 50), st.integers(1, 300),
       st.sampled_from([1, 2, 3, 50]), st.integers(0, 10**5), st.none() | _xi_tables())
@example(0.3, 0.3, False, 3, 2, 1, 3000, None)  # F = 1: rises to hi
@example(0.0, 1.0, True, 2, 1, 1, 3000, None)  # the smallest damping F, 1/2
@example(1.0, 1.0, True, 3, 2, 1, 3000, None)  # q_b = q_t = 1: B = 0, flat
@example(0.9, 0.2, False, 2, 30, 1, 3000, None)  # far apart: M1 = 0.1 < 2
@example(0.9, 0.94, False, 4, 2, 50, 10**5, None)  # lo > 2, past M1 = 47.3
@example(0.44, 0.40, False, 4, 2, 3, 10**5, None)  # lo > 2, before M1 = 148.2
@example(1.0, 1.0 - 2**-53, False, 9, 1, 1, 10**5, None)  # float-flat top of a wide maximum
@example(1.0 - 2**-53, 1.0 - 2**-53, True, 2, 3, 1, 58126, None)  # float-flat tail below hi
def test_port_optimum_matches_a_scan_of_every_port(q_b, q_t, pair, m, u, lo, span, xi):
    # The candidate argmax against one kernel call on every port in range, on
    # an array of two points, (q_b, q_t) and its swap, each row against its
    # own scan.  Tie rule: the smallest port among float-equal maxima of the
    # candidates.  Off the candidates a port can match or beat that value
    # by rounding alone, where the bound is flatter than its rounding; an
    # isolated maximum is the scan's.
    hi = lo + span
    kernel, sizes = ((qadc_adaptive_lb_values, (u,)) if pair
                     else (qadc_cpf_adaptive_lb_values, (m, u)))
    points = [(q_b, q_t), (q_t, q_b)]
    calls = []

    def recorded(*a, **k):
        calls.append(np.asarray(a[-1]))
        return kernel(*a, **k)
    with mock.patch.object(qadc, kernel.__name__, recorded):
        report = _OPT[kernel](*np.array(points).T, *sizes, xi=xi, ports_range=(lo, hi))
    (candidates,) = calls
    candidates = np.broadcast_to(candidates, (len(points), candidates.shape[-1]))
    assert candidates.shape[-1] <= 5 or xi is not None
    ports = np.arange(lo, hi + 1)
    for row, point in enumerate(points):
        best, value = report.params["ports"][row], report.value[row]
        args = (*point, *sizes)
        assert best == candidates[row][int(np.argmax(kernel(*args, candidates[row], xi=xi)))]
        values = kernel(*args, ports, xi=xi)
        assert value == values[best - lo]
        slack = _rounding(values.max())
        assert value >= values.max() - slack
        near = ports[values >= value - slack]
        assert best in near
        if len(near) == 1:
            assert best == ports[int(np.argmax(values))]


def test_stationary_points_solve_h_equals_b():
    # the rising-side roots of h(M) = B, by the one Newton solver for
    # position finding and for the pair, and h's peak where h < B everywhere
    rng = np.random.default_rng(5)
    for c, a, b in zip(10.0 ** rng.uniform(-12, 1, 200), rng.uniform(0.25, 0.5, 200),
                       10.0 ** rng.uniform(-6, 3, 200)):
        x = c * position_peak(c, a, b)
        if c * b / a < 4.0 / math.e**2:
            assert x < 2.0 and c * a * (x / c) ** 2 * math.exp(-x) == pytest.approx(b, rel=1e-9)
        else:
            assert x == pytest.approx(2.0)
        x = c * pair_peak(c, b)
        h = x**2 * math.exp(-x) / (2.0 * math.sqrt(-math.expm1(-x))) / c
        if h < b * (1 - 1e-9):
            assert x == pytest.approx(PAIR_PEAK_X, rel=1e-14)
        else:
            assert x <= PAIR_PEAK_X and h == pytest.approx(b, rel=1e-9)
    # the pair's h peaks at _PAIR_PEAK_X, where d log h / dx = 0
    x = PAIR_PEAK_X
    assert abs(2.0 / x - 1.0 - 1.0 / (2.0 * math.expm1(x))) < 1e-15
    # F = 1 (c = 0) and B = 0 are monotone: no interior candidate; F = 0
    # (c infinite) puts the stationary point at 0 ports
    for peak in (position_peak(0.0, 0.3, 1.0), position_peak(1.0, 0.3, 0.0),
                 pair_peak(0.0, 1.0), pair_peak(1.0, 0.0)):
        assert peak == math.inf
    assert position_peak(math.inf, 0.3, 1.0) == pair_peak(math.inf, 1.0) == 0.0


def test_damping_bound_rises_again_after_its_maximum():
    # falls from 1 to 2 ports, rises to its maximum at 49, falls to 421 and
    # then rises toward 0 from below as the 1/ports penalty fades
    ports = np.arange(1, 10**6 + 1, dtype=np.int64)
    values = qadc_adaptive_lb_values(*_BIMODAL_ROW, ports)
    turns = np.flatnonzero(np.diff(np.sign(np.diff(values)))) + 2
    assert turns.tolist() == [2, 49, 421]
    assert values[48] == pytest.approx(0.0642, abs=1e-4)
    assert values[420] < values[-1] < 0.0
    assert values[-1] == pytest.approx(-5.9e-6, rel=1e-2)


def test_pgm_upper_with_identical_channels_is_blind_guessing():
    rep = qadc_cpf_block_pgm(0.4, 0.4, m=3, u=1)
    assert rep.kind == "upper"
    assert abs(rep.value - 2 / 3) < 1e-9


def test_solver_matches_depolarizing_analytics():
    q_b, q_t, m, d = 0.35, 0.75, 2, 2
    report, _, gap = helstrom_iterative(dense_block_ensemble(make_qdc(d, q_b), make_qdc(d, q_t),
                                                             m, 1))
    scale = qdc_scales(d)[0]
    expect = h_mu_values(scale * q_b, scale * q_t, m, 1)
    assert abs(report.value - expect) <= gap + 1e-6


def test_solver_on_ill_conditioned_block_ensemble():
    # G_n Pi_n G_n squares the state spectra (down to 2e-5 here), so the
    # re-summed measurement must still come out valid and near the analytics
    q_b, q_t = 0.581198686098686, 0.12295120669755565
    ensemble = dense_block_ensemble(make_qdc(2, q_b), make_qdc(2, q_t), 2, 2)
    report, povm, gap = helstrom_iterative(ensemble)
    assert np.abs(sum(povm.elements) - np.eye(povm.dim)).max() < 1e-10
    scale = qdc_scales(2)[0]
    expect = h_mu_values(scale * q_b, scale * q_t, 2, 2)
    assert abs(report.value - expect) <= gap + 1e-6


def test_block_fidelity_lb_agrees_with_analytic_route():
    background, target = make_qadc(0.3), make_qadc(0.55)
    measured = cpf_block_fidelity_lb(background, target, 3, 2)
    pair = fidelity(choi(background), choi(target))
    analytic = cpf_nonadaptive_fidelity_lb(pair, m=3, u=2).value
    assert abs(measured - analytic) < 1e-9


def test_bounds_sandwich_solver():
    background, target = make_qadc(0.25), make_qadc(0.6)
    exact, _, gap = helstrom_iterative(dense_block_ensemble(background, target, 2, 2))
    lb = cpf_block_fidelity_lb(background, target, 2, 2)
    ub = qadc_cpf_block_pgm(0.25, 0.6, m=2, u=2)
    assert lb <= exact.value + gap + 1e-9
    assert ub.value >= exact.value - gap - 1e-9


_PGM_PAIRS = [(0.3, 0.55), (0.0, 0.4), (0.7, 0.0), (1.0, 0.2), (0.35, 1.0),
              (0.0, 1.0), (0.45, 0.45)]


@pytest.mark.parametrize("m,u", [(2, 1), (3, 1), (4, 1), (2, 2), (3, 2)])
def test_pgm_upper_matches_dense_tensor_powers(m, u):
    for q_b, q_t in _PGM_PAIRS:
        dense = pgm_error(dense_block_ensemble(make_qadc(q_b), make_qadc(q_t), m, u)).value
        gram = qadc_cpf_block_pgm(q_b, q_t, m, u)
        assert abs(gram.value - dense) < 1e-12, (q_b, q_t)
        if q_b == q_t:
            assert abs(gram.value - (1 - 1 / m)) < 1e-12


def test_pgm_upper_size_guard_before_allocation():
    # C(28, 8) = 3108105 weight classes: refused at once, as is C(2 10**6, 10**6)
    # before its 600000 digits are formed; C(9, 8) = 9 classes run
    started = time.monotonic()
    with pytest.raises(ChandiscError, match="exceeds guard"):
        qadc_cpf_block_pgm(0.3, 0.5, m=8, u=20)
    with pytest.raises(ChandiscError,
                       match="^weight class count C\\(2000000, 1000000\\) exceeds guard 262144$"):
        qadc_cpf_block_pgm(0.3, 0.5, m=10**6, u=10**6)
    assert time.monotonic() - started < 1.0
    rep = qadc_cpf_block_pgm(0.3, 0.5, m=8, u=1)
    assert 0.0 < rep.value < 1 - 1 / 8
    assert rep.params["classes"] == 9
