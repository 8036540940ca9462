"""Acceptance suite: the package's headline guarantees, one line per check.

Each test prints a single ``acceptance NN [pass|FAIL]`` line (visible even
under pytest capture) and then asserts.  Tolerances and runtime ceilings
are part of the checked contract.
"""

import itertools
import time

import numpy as np
import pytest

from chandisc.channels import choi, make_qdc, make_qec
from chandisc.cpf import cpf_nonadaptive_fidelity_lb
from chandisc.discrimination import (
    DensityMatrix,
    StateEnsemble,
    gus_unitary_helstrom,
    helstrom_binary,
    helstrom_iterative,
    tensor_all,
    trace_norm,
)
from chandisc.crosscheck import h_m1_closed
from chandisc.orc import f_u_values, h_mu_values, qdc_scales
from chandisc.qadc import (
    fvg_sandwich,
    nulling_error,
    qadc_block_helstrom,
    qadc_block_pgm,
    qadc_choi_fidelity,
    qadc_cpf_adaptive_lb_opt,
    qadc_cpf_block_pgm,
)

from _oracles import build_cpf_choi_ensemble, h_mu_strings
from _util import gus_pure_states, random_density


class _Check:
    """Collects a worst deviation, then renders the one-line verdict."""

    def __init__(self, number, name, budget_s):
        self.number = number
        self.name = name
        self.budget_s = budget_s
        self.started = time.perf_counter()
        self.worst = 0.0
        self.cases = 0

    def see(self, deviation):
        self.worst = max(self.worst, float(deviation))
        self.cases += 1

    def finish(self, capsys, tolerance):
        elapsed = time.perf_counter() - self.started
        ok = self.worst <= tolerance and elapsed < self.budget_s
        status = "pass" if ok else "FAIL"
        with capsys.disabled():
            print(f"acceptance {self.number:02d} [{status}] {self.name}: "
                  f"worst {self.worst:.2e} (tol {tolerance:.0e}), "
                  f"{self.cases} cases, {elapsed:.2f}s / {self.budget_s:.0f}s")
        assert self.worst <= tolerance, (
            f"{self.name}: worst deviation {self.worst} above {tolerance}")
        assert elapsed < self.budget_s, (
            f"{self.name}: took {elapsed:.1f}s, budget {self.budget_s}s")


def test_01_one_shot_depolarizing_endpoint(capsys):
    check = _Check(1, "one-shot endpoint (m-1)/(m d^2)", 1.0)
    for m in range(2, 7):
        for d in (2, 3, 10, 100):
            entangled = h_mu_values(0.0, qdc_scales(d)[0] * 1.0, m, 1)
            check.see(abs(entangled - (m - 1) / (m * d * d)))
    check.finish(capsys, 1e-15)


def test_02_single_use_closed_form(capsys):
    check = _Check(2, "u=1 closed form vs string enumeration", 10.0)
    axis = np.linspace(0.0, 1.0, 50)
    for m in range(2, 7):
        for q_b in axis:
            for q_t in axis:
                check.see(abs(h_m1_closed(q_b, q_t, m) - h_mu_strings(q_b, q_t, m, 1)))
    check.finish(capsys, 1e-12)


def test_03_enumeration_routes_agree(capsys):
    check = _Check(3, "order-statistic h_mu vs string enumeration", 60.0)
    axis = np.linspace(0.0, 1.0, 20)
    for m in range(2, 21):
        for u in range(1, 20 // m + 1):
            for q_b in axis:
                for q_t in axis:
                    check.see(abs(h_mu_values(q_b, q_t, m, u) - h_mu_strings(q_b, q_t, m, u)))
    check.finish(capsys, 1e-12)


def test_04_binary_analytics_vs_dense_helstrom(capsys):
    check = _Check(4, "binary analytics vs tensor-power discrimination", 30.0)
    rng = np.random.default_rng(104)
    scale = qdc_scales(2)[0]
    for q0, q1 in rng.uniform(0.0, 1.0, size=(10, 2)):
        u = int(rng.integers(1, 5))
        qec0 = choi(make_qec(2, q0)).mat
        qec1 = choi(make_qec(2, q1)).mat
        dense = helstrom_binary(DensityMatrix(tensor_all([qec0] * u)),
                                DensityMatrix(tensor_all([qec1] * u))).value
        check.see(abs(f_u_values(q0, q1, u) - dense))
        qdc0 = choi(make_qdc(2, q0)).mat
        qdc1 = choi(make_qdc(2, q1)).mat
        dense = helstrom_binary(DensityMatrix(tensor_all([qdc0] * u)),
                                DensityMatrix(tensor_all([qdc1] * u))).value
        check.see(abs(f_u_values(scale * q0, scale * q1, u) - dense))
    check.finish(capsys, 1e-9)


def test_05_cpf_solver_matches_analytics(capsys):
    check = _Check(5, "position-finding solver vs closed forms", 120.0)
    slack = 0.0
    scale = qdc_scales(2)[0]
    for m in (2, 3):
        for q_b, q_t in [(0.3, 0.8), (0.75, 0.2)]:
            ensemble = build_cpf_choi_ensemble(make_qec(2, q_b), make_qec(2, q_t), m)
            report, _, gap = helstrom_iterative(ensemble)
            check.see(abs(report.value - h_mu_values(q_b, q_t, m, 1)))
            slack = max(slack, gap)
            ensemble = build_cpf_choi_ensemble(make_qdc(2, q_b), make_qdc(2, q_t), m)
            report, _, gap = helstrom_iterative(ensemble)
            check.see(abs(report.value - h_mu_values(scale * q_b, scale * q_t, m, 1)))
            slack = max(slack, gap)
    check.finish(capsys, max(1e-6, slack))


def test_06_complement_symmetry(capsys):
    check = _Check(6, "q <-> 1-q symmetry of the exact errors", 10.0)
    axis = np.linspace(0.0, 1.0, 40)
    for u in (1, 2, 5, 8):
        for q0 in axis:
            for q1 in axis:
                check.see(abs(f_u_values(q0, q1, u) - f_u_values(1 - q0, 1 - q1, u)))
    haxis = np.linspace(0.0, 1.0, 12)
    for m in (2, 3, 4):
        for u in (1, 2, 3):
            for q_b in haxis:
                for q_t in haxis:
                    a = h_mu_values(q_b, q_t, m, u)
                    b = h_mu_values(1 - q_b, 1 - q_t, m, u)
                    check.see(abs(a - b))
    check.finish(capsys, 1e-13)


def test_07_entanglement_advantage(capsys):
    check = _Check(7, "entangled vs classical depolarizing sweep", 30.0)
    interior = np.linspace(0.05, 0.95, 10)
    violations = 0.0
    for d in (2, 6, 100):
        scales = np.array(qdc_scales(d))
        for u in (1, 3, 30):
            for q0, q1 in itertools.product(interior, repeat=2):
                entangled, classical = f_u_values(scales * q0, scales * q1, u)
                violations = max(violations, entangled - classical)
                if abs(q0 - q1) > 1e-9:
                    # strict advantage away from the diagonal
                    assert entangled < classical, (d, u, q0, q1)
    check.see(max(violations, 0.0))
    # the same separation holds for multi-cell position finding
    for d in (2, 100):
        scales = np.array(qdc_scales(d))
        ent, cls = h_mu_values(scales * 0.9, scales * 0.3, 5, 3)
        assert ent < cls
        check.see(max(ent - cls, 0.0))
    check.finish(capsys, 0.0)


def _damping_grid():
    smaller = np.arange(0.0, 0.961, 0.04)
    return [(float(q + 0.04), float(q)) for q in smaller]  # (q0, q1), q0 larger


def test_08_damping_sandwich(capsys):
    check = _Check(8, "two-sided compressed block bounds", 300.0)
    for u in range(1, 9):
        for q0, q1 in _damping_grid():
            exact = qadc_block_helstrom(q0, q1, u)
            assert exact.params["dim"] <= 512
            lower, upper = fvg_sandwich(qadc_choi_fidelity(q0, q1), u)
            cap = min(upper,
                      qadc_block_pgm(q0, q1, u).value,
                      *nulling_error(q0, q1, u))
            check.see(max(lower - exact.value, 0.0))
            check.see(max(exact.value - cap, 0.0))
    check.finish(capsys, 1e-7)


def test_09_nulling_variants_between_helstrom_and_half(capsys):
    check = _Check(9, "each nulling variant between block Helstrom and 1/2", 30.0)
    for u in range(1, 9):
        for q0, q1 in _damping_grid():
            exact = qadc_block_helstrom(q0, q1, u).value
            for error in nulling_error(q0, q1, u):
                check.see(max(exact - error, error - 0.5, 0.0))
    check.finish(capsys, 0.0)


def test_10_adaptive_vs_nonadaptive_position_finding(capsys):
    check = _Check(10, "adaptive gap below non-adaptive bound", 300.0)
    for m, u in ((2, 4), (4, 2)):
        strict_gap = 0.0
        for q_b, q_t in _damping_grid():
            fid = qadc_choi_fidelity(q_b, q_t)
            best = qadc_cpf_adaptive_lb_opt(q_b, q_t, m=m, u=u).value
            nonadaptive = cpf_nonadaptive_fidelity_lb(fid, m=m, u=u).value
            pgm = qadc_cpf_block_pgm(q_b, q_t, m=m, u=u).value
            check.see(max(best - nonadaptive, 0.0))
            check.see(max(nonadaptive - pgm - 1e-7, 0.0))
            if 0.2 <= q_t <= 0.8:
                strict_gap = max(strict_gap, nonadaptive - best)
        # the simulation penalty separates the bounds on the interior
        assert strict_gap > 1e-6, (m, u, strict_gap)
    check.finish(capsys, 1e-9)


def test_11_continuity_of_minimum_error(capsys):
    check = _Check(11, "perturbation continuity of the minimum error", 300.0)
    rng = np.random.default_rng(111)
    for _ in range(100):
        m = int(rng.integers(2, 5))
        dim = int(rng.integers(2, 7))
        states = [random_density(rng, dim) for _ in range(m)]
        priors = rng.dirichlet(np.ones(m))
        noise = [random_density(rng, dim) for _ in range(m)]
        eps = rng.uniform(0.0, 0.15, size=m)
        perturbed = [DensityMatrix((1 - e) * s.mat + e * n.mat)
                     for e, s, n in zip(eps, states, noise)]
        deltas = [trace_norm(s.mat - p.mat) for s, p in zip(states, perturbed)]
        base, _, gap_a = helstrom_iterative(StateEnsemble(states, priors))
        moved, _, gap_b = helstrom_iterative(StateEnsemble(perturbed, priors))
        # moving each state by trace distance delta_n lowers the minimum
        # error by at most sum_n p_n delta_n / 2, either way
        penalty = 0.5 * float(priors @ np.asarray(deltas))
        check.see(max(base.value - penalty - moved.value - gap_a - gap_b, 0.0))
        check.see(max(moved.value - penalty - base.value - gap_a - gap_b, 0.0))
    check.finish(capsys, 1e-9)


def test_12_cyclic_pure_states_closed_form(capsys):
    check = _Check(12, "symmetric pure-state formula vs solver", 60.0)
    for m in (2, 3, 4):
        for eta in (0.1, 0.45, 0.8, 0.95):
            vecs = gus_pure_states(eta, m)
            states = [DensityMatrix(np.outer(v, v.conj())) for v in vecs]
            report, _, gap = helstrom_iterative(StateEnsemble.equiprobable(states))
            expect = gus_unitary_helstrom(eta, m).value
            check.see(max(abs(report.value - expect) - gap, 0.0))
    check.finish(capsys, 1e-6)
