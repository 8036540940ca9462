"""Acceptance suite: the package's headline guarantees, one line per check.

``ACCEPTANCE`` lists ``(number, name, tolerance, budget_s, check)`` rows.
Each check is a generator that yields one deviation per case, folded by
:func:`chandisc.crosscheck.run_check`; 04 and 12 are crosscheck comparisons
run on fixed grids.  Each row becomes one test, named after its number and
check, which prints a single ``acceptance NN [pass|FAIL]`` line (visible
even under pytest capture) and then asserts.  Tolerances and runtime
ceilings are part of the checked contract.
"""

import itertools
import time

import numpy as np

from chandisc.channels import make_qdc, make_qec
from chandisc.cpf import cpf_nonadaptive_fidelity_lb
from chandisc.crosscheck import counting_vs_helstrom, gus_vs_solver, h_m1_closed, run_check
from chandisc.discrimination import DensityMatrix, StateEnsemble, helstrom_iterative, trace_norm
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
from _util import random_density


def _one_shot_depolarizing_endpoint():
    for m in range(2, 7):
        for d in (2, 3, 10, 100):
            entangled = h_mu_values(0.0, qdc_scales(d)[0] * 1.0, m, 1)
            yield abs(entangled - (m - 1) / (m * d * d))


def _single_use_closed_form():
    axis = np.linspace(0.0, 1.0, 50)
    for m, q_b, q_t in itertools.product(range(2, 7), axis, axis):
        yield abs(h_m1_closed(q_b, q_t, m) - h_mu_strings(q_b, q_t, m, 1))


def _enumeration_routes_agree():
    axis = np.linspace(0.0, 1.0, 20)
    for m in range(2, 21):
        for u, q_b, q_t in itertools.product(range(1, 20 // m + 1), axis, axis):
            yield abs(h_mu_values(q_b, q_t, m, u) - h_mu_strings(q_b, q_t, m, u))


def _binary_analytics_vs_dense_helstrom():
    rng = np.random.default_rng(104)
    for q0, q1 in rng.uniform(0.0, 1.0, size=(10, 2)):
        u = int(rng.integers(1, 5))
        yield from counting_vs_helstrom([("erasure", q0, q1, u), ("depolarizing", q0, q1, u)])


def _cpf_solver_matches_analytics():
    scale = qdc_scales(2)[0]
    for m in (2, 3):
        for q_b, q_t in [(0.3, 0.8), (0.75, 0.2)]:
            for make, s in ((make_qec, 1.0), (make_qdc, scale)):
                ensemble = build_cpf_choi_ensemble(make(2, q_b), make(2, q_t), m)
                report, _, _ = helstrom_iterative(ensemble)
                yield abs(report.value - h_mu_values(s * q_b, s * q_t, m, 1))


def _complement_symmetry():
    axis = np.linspace(0.0, 1.0, 40)
    for u, q0, q1 in itertools.product((1, 2, 5, 8), axis, axis):
        yield abs(f_u_values(q0, q1, u) - f_u_values(1 - q0, 1 - q1, u))
    haxis = np.linspace(0.0, 1.0, 12)
    for m, u, q_b, q_t in itertools.product((2, 3, 4), (1, 2, 3), haxis, haxis):
        yield abs(h_mu_values(q_b, q_t, m, u) - h_mu_values(1 - q_b, 1 - q_t, m, u))


def _entanglement_advantage():
    interior = np.linspace(0.05, 0.95, 10)
    for d in (2, 6, 100):
        scales = np.array(qdc_scales(d))
        for u, q0, q1 in itertools.product((1, 3, 30), interior, interior):
            entangled, classical = f_u_values(scales * q0, scales * q1, u)
            if abs(q0 - q1) > 1e-9:
                # strict advantage away from the diagonal
                assert entangled < classical, (d, u, q0, q1)
            yield entangled - classical
    # the same separation holds for multi-cell position finding
    for d in (2, 100):
        scales = np.array(qdc_scales(d))
        ent, cls = h_mu_values(scales * 0.9, scales * 0.3, 5, 3)
        assert ent < cls
        yield ent - cls


def _damping_grid():
    smaller = np.arange(0.0, 0.961, 0.04)
    return [(float(q + 0.04), float(q)) for q in smaller]  # (q0, q1), q0 larger


def _damping_sandwich():
    for u in range(1, 9):
        for q0, q1 in _damping_grid():
            exact = qadc_block_helstrom(q0, q1, u)
            assert exact.params["dim"] <= 512
            lower, upper = fvg_sandwich(qadc_choi_fidelity(q0, q1), u)
            yield lower - exact.value
            yield exact.value - min(upper, qadc_block_pgm(q0, q1, u).value,
                                    *nulling_error(q0, q1, u))


def _nulling_variants_between_helstrom_and_half():
    for u in range(1, 9):
        for q0, q1 in _damping_grid():
            exact = qadc_block_helstrom(q0, q1, u).value
            for error in nulling_error(q0, q1, u):
                yield exact - error, error - 0.5


def _adaptive_vs_nonadaptive_position_finding():
    for m, u in ((2, 4), (4, 2)):
        interior_gaps = []
        for q_b, q_t in _damping_grid():
            fid = qadc_choi_fidelity(q_b, q_t)
            best = qadc_cpf_adaptive_lb_opt(q_b, q_t, m=m, u=u).value
            nonadaptive = cpf_nonadaptive_fidelity_lb(fid, m=m, u=u).value
            pgm = qadc_cpf_block_pgm(q_b, q_t, m=m, u=u).value
            yield best - nonadaptive
            yield nonadaptive - pgm - 1e-7
            if 0.2 <= q_t <= 0.8:
                interior_gaps.append(nonadaptive - best)
        # the simulation penalty separates the bounds on the interior
        assert max(interior_gaps) > 1e-6, (m, u, max(interior_gaps))


def _continuity_of_minimum_error():
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
        yield base.value - penalty - moved.value - gap_a - gap_b
        yield moved.value - penalty - base.value - gap_a - gap_b


def _cyclic_pure_states_closed_form():
    return gus_vs_solver((m, eta) for m in (2, 3, 4) for eta in (0.1, 0.45, 0.8, 0.95))


ACCEPTANCE = [
    (1, "one-shot endpoint (m-1)/(m d^2)", 1e-15, 1.0, _one_shot_depolarizing_endpoint),
    (2, "u=1 closed form vs string enumeration", 1e-12, 10.0, _single_use_closed_form),
    (3, "order-statistic h_mu vs string enumeration", 1e-12, 60.0, _enumeration_routes_agree),
    (4, "binary analytics vs tensor-power discrimination", 1e-9, 30.0,
     _binary_analytics_vs_dense_helstrom),
    (5, "position-finding solver vs closed forms", 1e-6, 120.0, _cpf_solver_matches_analytics),
    (6, "q <-> 1-q symmetry of the exact errors", 1e-13, 10.0, _complement_symmetry),
    (7, "entangled vs classical depolarizing sweep", 0.0, 30.0, _entanglement_advantage),
    (8, "block Helstrom within its two-sided bounds", 1e-7, 300.0, _damping_sandwich),
    (9, "each nulling variant between block Helstrom and 1/2", 0.0, 30.0,
     _nulling_variants_between_helstrom_and_half),
    (10, "adaptive gap below non-adaptive bound", 1e-9, 300.0,
     _adaptive_vs_nonadaptive_position_finding),
    (11, "perturbation continuity of the minimum error", 1e-9, 300.0,
     _continuity_of_minimum_error),
    (12, "symmetric pure-state formula vs solver", 1e-6, 60.0, _cyclic_pure_states_closed_form),
]


def _acceptance_test(number, name, tolerance, budget_s, check):
    def test(capsys):
        started = time.perf_counter()
        worst, cases = run_check(check)
        elapsed = time.perf_counter() - started
        status = "pass" if worst <= tolerance and elapsed < budget_s else "FAIL"
        with capsys.disabled():
            print(f"acceptance {number:02d} [{status}] {name}: "
                  f"worst {worst:.2e} (tol {tolerance:.0e}), "
                  f"{cases} cases, {elapsed:.2f}s / {budget_s:.0f}s")
        assert worst <= tolerance, f"{name}: worst deviation {worst} above {tolerance}"
        assert elapsed < budget_s, f"{name}: took {elapsed:.1f}s, budget {budget_s}s"
    return test


# One test per row, named test_NN plus its check's name, so that a report
# names the guarantee that failed.
for _row in ACCEPTANCE:
    globals()[f"test_{_row[0]:02d}{_row[4].__name__}"] = _acceptance_test(*_row)
