import functools
import math
import time

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from chandisc.channels import choi, make_qadc, make_qdc
from chandisc.cpf import (
    MAX_PORTS,
    CpfError,
    MOptimizationResult,
    cpf_fidelity_lb_values,
    cpf_nonadaptive_fidelity_lb,
    cpf_sim_error,
    optimize_over_M,
)
from chandisc.discrimination import helstrom_iterative, pgm_error
from chandisc.orc import h_mu_values, qdc_scales
from chandisc.qadc import (QadcError, XiTable, qadc_adaptive_lb_opt, qadc_adaptive_lb_values,
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
    with pytest.raises(CpfError):
        build_cpf_choi_ensemble(make_qadc(0.2), make_qadc(0.4), 8, max_dim=4096)


def test_sim_error_combines_cells_linearly():
    assert cpf_sim_error(0.1, 0.3, m=4) == pytest.approx(0.6)
    with pytest.raises(CpfError):
        cpf_sim_error(-0.1, 0.3, m=2)
    with pytest.raises(CpfError):
        cpf_sim_error(0.1, 0.3, m=1)


def test_theorem1_arithmetic():
    # the adaptive bound is the block bound minus the penalty u * delta_avg / 2
    block = cpf_fidelity_lb_values(0.9, 3, 3, 5, 0.0)
    assert cpf_fidelity_lb_values(0.9, 3, 3, 5, 0.1) == pytest.approx(block - 0.15)
    assert cpf_fidelity_lb_values(0.9, 3, 4, 5, 0.5) < 0  # vacuous
    with pytest.raises(CpfError):
        cpf_fidelity_lb_values(0.9, 3, 3, 5, -0.1)


def test_fidelity_lb_specialization_matches_general_form():
    background, target = make_qadc(0.3), make_qadc(0.7)
    ens = build_cpf_choi_ensemble(background, target, 3)
    pair = fidelity(choi(background), choi(target))
    for u, ports, delta in [(1, 1, 0.0), (2, 5, 0.01), (3, 40, 0.2)]:
        a = general_fidelity_lb(ens, u, ports, delta).value
        b = cpf_fidelity_lb_values(pair, 3, u, ports, delta)
        assert abs(a - b) < 1e-12


def test_nonadaptive_lb_is_single_port_zero_error_case():
    a = cpf_nonadaptive_fidelity_lb(0.9, m=4, u=3).value
    b = cpf_fidelity_lb_values(0.9, 4, 3, 1, 0.0)
    assert abs(a - b) < 1e-15
    assert a == pytest.approx(3 / 8 * 0.9 ** 12)


def test_optimizer_finds_exact_integer_peak():
    result = optimize_over_M(lambda p: -((p - 137) ** 2), ports_range=(1, 10**6))
    assert result.best_ports == 137
    assert result.best_value == 0


def test_optimizer_calls_the_bound_once_per_stage_on_fresh_ports():
    calls = []

    def bound(ports):
        calls.append(ports.tolist())
        return -((ports - 137_777) ** 2)

    result = optimize_over_M(bound, ports_range=(1, 10**6))
    assert result.best_ports == 137_777
    flat = [p for call in calls for p in call]
    assert len(flat) == len(set(flat)) == len(result.evaluations)
    assert calls[0] == sorted(calls[0]) and calls[0][0] == 1 and calls[0][-1] == 10**6
    assert [len(call) for call in calls] == [175, 62, 606]  # grid, one zoom, last window
    # the last window: every port between the running argmax's neighbours,
    # in order, but the argmax itself
    window = range(calls[-1][0], calls[-1][-1] + 1)
    assert calls[-1] == sorted(calls[-1]) and len(window) - len(calls[-1]) <= 1
    assert len(calls[-1]) <= 2000


def test_optimizer_search_order_is_pinned():
    # the order of the earlier one-port-at-a-time search: the 175 distinct
    # grid points, then the 19 other ports between the argmax's grid neighbours
    calls = []

    def bound(ports):
        calls.append(ports.tolist())
        return qadc_cpf_adaptive_lb_values(0.44, 0.40, 4, 2, ports)

    result = optimize_over_M(bound)
    assert [len(call) for call in calls] == [175, 19]
    assert calls[1] == [p for p in range(139, 159) if p != 148]
    assert result.best_ports == 148
    # a grid about 1001 ports apart whose first three points are 10**9,
    # 10**9 + 1001 and 10**9 + 2002, with the argmax in the middle: the 2000
    # other ports between its neighbours are still one exhaustive last stage
    calls.clear()
    top = 10**9 + 1001

    def peak(ports):
        calls.append(ports.tolist())
        return -((ports - top) ** 2)

    optimize_over_M(peak, ports_range=(10**9, 10**9 + 199 * 1001))
    assert [len(call) for call in calls] == [200, 2000]
    assert calls[0][:3] == [10**9, top, 10**9 + 2002]
    assert calls[1] == [p for p in range(10**9 + 1, 10**9 + 2002) if p != top]


def test_optimizer_evaluates_breakpoints_first():
    # a step up at each breakpoint, falling in between: the grid's best point
    # can sit after the wrong step, so the breakpoints join the first stage
    steps = np.array([1, 99, 973, 2500])  # each just after a grid point
    heights = np.array([0.0, 1.0, 1.2, 0.0])

    def bound(ports):
        at = np.searchsorted(steps, ports, side="right") - 1
        return heights[at] - 0.01 * (ports - steps[at])

    assert optimize_over_M(bound, ports_range=(1, 3000)).best_ports == 99
    result = optimize_over_M(bound, ports_range=(1, 3000), breakpoints=[0, 99, 973, 2500, 4000])
    assert (result.best_ports, result.best_value) == (973, 1.2)
    assert {0, 4000}.isdisjoint(result.evaluations.tolist())


def test_optimizer_refuses_ranges_beyond_exact_grid_points():
    assert optimize_over_M(lambda p: -p.astype(float), ports_range=(1, 2**53)).best_ports == 1
    for hi in (2**53 + 1, 2**63 - 1, 10**19):
        with pytest.raises(CpfError, match="2\\*\\*53"):
            optimize_over_M(lambda p: 1.0, ports_range=(1, hi))
    with pytest.raises(CpfError):
        qadc_adaptive_lb_opt(0.04, 0.0, 2, ports_range=(1, 2**63 - 1))


def test_optimizer_refuses_nan_bounds():
    # NaN compares false with everything, so the argmax search cannot use it
    with pytest.raises(CpfError, match="NaN at 1 ports"):
        optimize_over_M(lambda p: np.nan, ports_range=(1, 100))
    with pytest.raises(CpfError, match="NaN at 7 ports"):
        optimize_over_M(lambda p: np.where(p == 7, np.nan, -p.astype(float)),
                        ports_range=(1, 100))
    with pytest.raises(QadcError):  # xi is None or an XiTable, which holds no NaN
        qadc_adaptive_lb_opt(0.3, 0.2, 2, xi=np.nan)


@pytest.mark.parametrize("ports", [[2.5, 3.9], [1.9], np.array([4.0, 1.5]), [np.nan], [np.inf],
                                   [1e300]])
def test_port_counts_must_be_integers(ports):
    # a fractional count was truncated: [1.9] gave the value at 1 port
    with pytest.raises(CpfError, match="integers"):
        cpf_fidelity_lb_values(0.9, 3, 2, ports, 0.0)
    with pytest.raises(QadcError, match="integers"):
        qadc_adaptive_lb_values(0.3, 0.2, 2, ports)
    with pytest.raises(QadcError, match="integers"):
        qadc_cpf_adaptive_lb_values(0.3, 0.2, 3, 2, ports)
    # whole floats are counts
    assert qadc_adaptive_lb_values(0.3, 0.2, 2, [1.0, 4.0]).tolist() == \
        qadc_adaptive_lb_values(0.3, 0.2, 2, [1, 4]).tolist()


def test_optimizer_prefers_smaller_port_count_on_ties():
    result = optimize_over_M(lambda p: 1.0, ports_range=(1, 500))
    assert result.best_ports == 1


def test_optimizer_handles_boundary_maxima():
    inc = optimize_over_M(lambda p: p.astype(float), ports_range=(1, 3000))
    assert inc.best_ports == 3000
    dec = optimize_over_M(lambda p: -p.astype(float), ports_range=(1, 3000))
    assert dec.best_ports == 1


def test_optimizer_matches_brute_force_on_bound_shape():
    # the adaptive bounds trade a growing fidelity term against a linear
    # penalty; replicate that shape and compare with full enumeration
    def bound(ports):
        return 0.25 * (1 - 0.998 ** (4 * ports)) - 3.0 / ports

    lo, hi = 1, 3000
    brute_best = max(range(lo, hi + 1), key=lambda p: (bound(p), -p))
    result = optimize_over_M(bound, ports_range=(lo, hi))
    assert result.best_ports == brute_best
    assert result.best_value == pytest.approx(bound(brute_best))


# (q0, q1, u) of a `binary --kind qadc --u 1 --gap 0.04` row
_BIMODAL_ROW = (0.04482412060301508, 0.004824120603015075, 1)


@pytest.mark.parametrize("kernel,args,best", [
    (qadc_adaptive_lb_values, _BIMODAL_ROW, 49),
    (qadc_cpf_adaptive_lb_values, (0.44, 0.40, 4, 2), 148),
    (qadc_cpf_adaptive_lb_values, (0.9, 0.94, 4, 2), 47),
    (qadc_cpf_adaptive_lb_values, (0.2, 0.24, 2, 4), 10**6),  # negative everywhere
])
def test_optimizer_matches_a_scan_of_every_port(kernel, args, best):
    # the damping bounds are not unimodal in the port count; the search must
    # still find what one kernel call on all 10**6 ports finds
    ports = np.arange(1, 10**6 + 1, dtype=np.int64)
    values = kernel(*args, ports)
    top = int(np.argmax(values))  # the first maximum: ties prefer fewer ports
    result = optimize_over_M(lambda p: kernel(*args, p))
    assert (result.best_ports, result.best_value) == (ports[top], values[top])
    assert result.best_ports == best


@st.composite
def _port_range(draw):
    # lo == hi, spans the last stage scans whole, and spans up to 10**9,
    # also just below the largest port count the search accepts
    near_top = st.integers(MAX_PORTS - 2 * 10**9, MAX_PORTS - 10**9)
    lo = draw(st.one_of(st.integers(1, 10**9), near_top))
    span = draw(st.one_of(st.just(0), st.integers(1, 2000), st.integers(2001, 10**9)))
    return lo, lo + span


@st.composite
def _bump_bound(draw, lo, hi):
    # 1-4 bumps on log(ports) minus a 1/ports penalty; rounding to 3
    # decimals makes plateaus and ties
    k = draw(st.integers(1, 4))
    floats = st.floats(0.0, 1.0)
    centers = np.array([math.log(lo) - 1 + draw(floats) * (math.log(hi / lo) + 2)
                        for _ in range(k)])
    widths = np.array([0.01 + 3 * draw(floats) for _ in range(k)])
    heights = np.array([draw(floats) for _ in range(k)])
    penalty = 5 * draw(floats)
    decimals = draw(st.sampled_from([None, 3]))

    def bound(ports):
        x = np.log(ports.astype(np.float64))
        bumps = heights[:, None] * np.exp(-(((x - centers[:, None]) / widths[:, None]) ** 2))
        values = bumps.sum(axis=0) - penalty / ports
        return values if decimals is None else np.round(values, decimals)
    return bound, ()


@st.composite
def _damping_bound(draw, lo, hi):
    # either damping kernel at drawn (q, m, u), with or without an XiTable,
    # whose knots are the breakpoints as in qadc's _opt functions
    q = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))
    q0, q1, u = draw(q), draw(q), draw(st.integers(1, 50))
    xi = None
    if draw(st.booleans()):
        knots = sorted(draw(st.sets(st.integers(1, 2 * hi), min_size=1, max_size=6)))
        xi = XiTable(knots, [draw(st.floats(0.0, 2.0)) for _ in knots])
    if draw(st.booleans()):
        kernel = functools.partial(qadc_adaptive_lb_values, q0, q1, u, xi=xi)
    else:
        kernel = functools.partial(qadc_cpf_adaptive_lb_values, q0, q1, draw(st.integers(2, 4)),
                                   u, xi=xi)
    return kernel, () if xi is None else xi.ports


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_optimizer_matches_the_staged_dict_search(data):
    lo, hi = data.draw(_port_range())
    bound, breakpoints = data.draw(st.one_of(_bump_bound(lo, hi), _damping_bound(lo, hi)))
    # breakpoints inside and outside the range
    extra = data.draw(st.lists(st.integers(max(lo - 100, 0), hi + 100), max_size=5))
    breakpoints = [*breakpoints, *extra]
    calls, reference_calls = [], []

    def recording(log):
        def fn(ports):
            log.append(ports.tolist())
            return bound(ports)
        return fn

    result = optimize_over_M(recording(calls), (lo, hi), breakpoints)
    best_ports, best_value, evaluated = staged_search(recording(reference_calls), (lo, hi),
                                                      breakpoints)
    assert calls == reference_calls
    assert (result.best_ports, result.best_value) == (best_ports, best_value)
    assert result.evaluations.tolist() == list(evaluated)


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


def test_optimization_result_requires_consistent_maximum():
    # the best port count must be one the search evaluated
    with pytest.raises(CpfError, match="not among"):
        MOptimizationResult(best_ports=3, best_value=2.0, evaluations=[1, 2])
    result = MOptimizationResult(best_ports=2, best_value=2.0, evaluations=[1, 2])
    assert result.evaluations.dtype == np.int64 and result.evaluations.tolist() == [1, 2]
    assert not result.evaluations.flags.writeable


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
    with pytest.raises(QadcError, match="exceeds guard"):
        qadc_cpf_block_pgm(0.3, 0.5, m=8, u=20)
    with pytest.raises(QadcError):
        qadc_cpf_block_pgm(0.3, 0.5, m=10**6, u=10**6)
    assert time.monotonic() - started < 1.0
    rep = qadc_cpf_block_pgm(0.3, 0.5, m=8, u=1)
    assert 0.0 < rep.value < 1 - 1 / 8
    assert rep.params["classes"] == 9
