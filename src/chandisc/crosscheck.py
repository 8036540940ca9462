"""Seeded agreement suite between independent computation routes.

Each check draws its random cases from the generator it is given and returns
``(worst deviation, tolerance, cases)``; ``CROSSCHECKS`` lists them in run
order under the names ``--command crosscheck`` prints.  The CLI imports
this module for that command only.
"""

from __future__ import annotations

import numpy as np

from .channels import choi as channel_choi, make_qadc, make_qdc, make_qec, tele_covariance_check
from .discrimination import (DensityMatrix, StateEnsemble, gus_unitary_helstrom, helstrom_binary,
                             helstrom_iterative, pgm_error, tensor_all)
from .orc import f_u_values, h_m1_closed, h_mu_values, qdc_scales
from .qadc import (fvg_sandwich, nulling_error, nulling_outcome_dist, nulling_unitary,
                   qadc_block_helstrom, qadc_choi_fidelity, qadc_cpf_adaptive_lb_opt,
                   qadc_cpf_adaptive_lb_values)


def _dense_block_pair(channel0, channel1, u: int):
    c0 = channel_choi(channel0).mat
    c1 = channel_choi(channel1).mat
    return (DensityMatrix(tensor_all([c0] * u)), DensityMatrix(tensor_all([c1] * u)))


def _dense_cpf_ensemble(background, target, m: int, u: int):
    # Hypothesis n: the target's Choi state in cell n, the background's in
    # the others, u uses each; in a basis of the joint support of all m.
    bg, tg = channel_choi(background).mat, channel_choi(target).mat
    states = [tensor_all([tg if cell == n else bg for cell in range(m) for _ in range(u)])
              for n in range(m)]
    w, v = np.linalg.eigh(sum(states))
    basis = v[:, w > 1e-12]
    return StateEnsemble.equiprobable([basis.conj().T @ s @ basis for s in states])


def _check_f_vs_helstrom_qec(rng):
    worst = 0.0
    cases = 0
    for _ in range(3):
        q0, q1 = rng.uniform(0.05, 0.95, size=2)
        for u in (1, 2, 3):
            rho0, rho1 = _dense_block_pair(make_qec(2, q0), make_qec(2, q1), u)
            dev = abs(helstrom_binary(rho0, rho1).value - f_u_values(q0, q1, u))
            worst = max(worst, dev)
            cases += 1
    return worst, 1e-9, cases


def _check_qdc_binary_vs_helstrom(rng):
    worst = 0.0
    cases = 0
    ent_scale, cls_scale = qdc_scales(2)
    for _ in range(3):
        q0, q1 = rng.uniform(0.05, 0.95, size=2)
        for u in (1, 2):
            rho0, rho1 = _dense_block_pair(make_qdc(2, q0), make_qdc(2, q1), u)
            ent = f_u_values(ent_scale * q0, ent_scale * q1, u)
            worst = max(worst, abs(helstrom_binary(rho0, rho1).value - ent))
            out0 = np.diag([1.0 - q0 / 2.0, q0 / 2.0])
            out1 = np.diag([1.0 - q1 / 2.0, q1 / 2.0])
            cls = f_u_values(cls_scale * q0, cls_scale * q1, u)
            block0 = DensityMatrix(tensor_all([out0] * u))
            block1 = DensityMatrix(tensor_all([out1] * u))
            worst = max(worst, abs(helstrom_binary(block0, block1).value - cls))
            cases += 2
    return worst, 1e-9, cases


def _check_h_route_agreement(rng):
    worst = 0.0
    cases = 0
    for m, u in ((2, 3), (3, 2), (4, 2), (2, 5), (2, 1), (3, 1), (5, 1)):
        for _ in range(3):
            q_b, q_t = rng.uniform(0.0, 1.0, size=2)
            success = 0.0
            for string in range(2 ** (u * m)):
                counts = [bin((string >> (cell * u)) % 2**u).count("1") for cell in range(m)]
                best = 0.0
                for target in range(m):
                    like = 1.0
                    for cell, k in enumerate(counts):
                        q = q_t if cell == target else q_b
                        like *= q**k * (1.0 - q) ** (u - k)
                    best = max(best, like)
                success += best
            strings = 1.0 - success / m
            worst = max(worst, abs(h_mu_values(q_b, q_t, m, u) - strings))
            if u == 1:
                worst = max(worst, abs(h_m1_closed(q_b, q_t, m) - strings))
            cases += 1
    return worst, 1e-12, cases


def _check_cpf_vs_solver(rng):
    worst = 0.0
    cases = 0
    scale = qdc_scales(2)[0]
    for m, u in ((2, 1), (2, 2)):
        q_b, q_t = rng.uniform(0.1, 0.9, size=2)
        report, _, gap = helstrom_iterative(
            _dense_cpf_ensemble(make_qdc(2, q_b), make_qdc(2, q_t), m, u))
        target = h_mu_values(scale * q_b, scale * q_t, m, u)
        worst = max(worst, max(0.0, abs(report.value - target) - gap))
        cases += 1
    for m in (2, 3):
        q_b, q_t = rng.uniform(0.1, 0.9, size=2)
        report, _, gap = helstrom_iterative(
            _dense_cpf_ensemble(make_qec(2, q_b), make_qec(2, q_t), m, 1))
        target = h_m1_closed(q_b, q_t, m)
        worst = max(worst, max(0.0, abs(report.value - target) - gap))
        cases += 1
    return worst, 1e-6, cases


def _check_compression_distance(rng):
    # the damping pair's weight-block Gram decomposition against the dense trace norm
    worst = 0.0
    q0, q1 = rng.uniform(0.1, 0.9, size=2)
    for u in (2, 3):
        dense = helstrom_binary(*_dense_block_pair(make_qadc(q0), make_qadc(q1), u)).value
        worst = max(worst, abs(qadc_block_helstrom(q0, q1, u).value - dense))
    return worst, 1e-9, 2


def _check_nulling_dist(_rng):
    worst = 0.0
    cases = 0
    for q_app in (0.0, 0.3, 0.7, 1.0):
        unitary = nulling_unitary(q_app)
        for q_act in (0.0, 0.3, 0.7, 1.0):
            state = channel_choi(make_qadc(q_act)).mat
            direct = np.diag(unitary @ state @ unitary.conj().T).real
            closed = nulling_outcome_dist(q_app, q_act)
            worst = max(worst, np.abs(direct - closed).max())
            cases += 1
    return worst, 1e-10, cases


def _check_nulling_vs_strings(rng):
    worst = 0.0
    cases = 0
    for u in (1, 2, 3):
        q0, q1 = rng.uniform(0.1, 0.9, size=2)
        for applied, grouped in zip((q0, q1), nulling_error(q0, q1, u)):
            p0 = nulling_outcome_dist(applied, q0)
            p1 = nulling_outcome_dist(applied, q1)
            total = 0.0
            for string in range(4**u):
                like0 = like1 = 1.0
                rem = string
                for _ in range(u):
                    rem, outcome = divmod(rem, 4)
                    like0 *= p0[outcome]
                    like1 *= p1[outcome]
                total += min(like0, like1)
            worst = max(worst, abs(total / 2.0 - grouped))
            cases += 1
    return worst, 1e-12, cases


def _check_sandwich_contains_helstrom(rng):
    worst = 0.0
    cases = 0
    for u in (1, 2, 4):
        q0, q1 = rng.uniform(0.05, 0.95, size=2)
        lower, upper = fvg_sandwich(qadc_choi_fidelity(q0, q1), u)
        exact = qadc_block_helstrom(q0, q1, u).value
        worst = max(worst, lower - exact, exact - upper)
        cases += 1
    return max(worst, 0.0), 1e-9, cases


def _check_gus_vs_solver(_rng):
    worst = 0.0
    cases = 0
    for m in (2, 3, 4):
        for eta in (0.2, 0.6):
            amps = np.sqrt(np.full(m, (1.0 - eta) / m) + np.array([eta] + [0.0] * (m - 1)))
            phases = np.exp(2j * np.pi * np.arange(m) / m)
            states = []
            for k in range(m):
                vec = amps * phases**k
                states.append(DensityMatrix(np.outer(vec, vec.conj())))
            report, _, gap = helstrom_iterative(StateEnsemble.equiprobable(states))
            closed = gus_unitary_helstrom(eta, m).value
            worst = max(worst, max(0.0, abs(report.value - closed) - gap))
            cases += 1
    return worst, 1e-6, cases


def _check_optimizer_vs_brute_force(_rng):
    # every port count in one kernel call; argmax takes the first, fewest-port maximum
    _, result = qadc_cpf_adaptive_lb_opt(0.24, 0.2, 2, 4, ports_range=(1, 3000))
    values = qadc_cpf_adaptive_lb_values(0.24, 0.2, 2, 4, np.arange(1, 3001))
    best = int(np.argmax(values))
    dev = abs(result.best_value - values[best]) + abs(result.best_ports - (best + 1))
    return float(dev), 1e-12, 1


def _check_pgm_vs_double_helstrom(rng):
    worst = 0.0
    cases = 0
    for _ in range(3):
        states = []
        for _ in range(3):
            raw = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            mat = raw @ raw.conj().T
            states.append(DensityMatrix(mat / mat.trace().real))
        ensemble = StateEnsemble.equiprobable(states)
        report, _, gap = helstrom_iterative(ensemble)
        excess = pgm_error(ensemble).value - 2.0 * (report.value + gap)
        worst = max(worst, excess)
        cases += 1
    return max(worst, 0.0), 1e-9, cases


def _check_covariance_classes(_rng):
    expected = [
        (tele_covariance_check(make_qec(2, 0.3)), True),
        (tele_covariance_check(make_qdc(2, 0.4)), True),
        (tele_covariance_check(make_qdc(3, 0.2)), True),
        (tele_covariance_check(make_qadc(0.3)), False),
        (tele_covariance_check(make_qadc(0.7)), False),
    ]
    dev = float(sum(got != want for got, want in expected))
    return dev, 0.5, len(expected)


CROSSCHECKS = [
    ("counting-vs-helstrom-erasure", _check_f_vs_helstrom_qec),
    ("counting-vs-helstrom-depolarizing", _check_qdc_binary_vs_helstrom),
    ("position-error-route-agreement", _check_h_route_agreement),
    ("position-error-vs-solver", _check_cpf_vs_solver),
    ("compression-preserves-distance", _check_compression_distance),
    ("nulling-dist-vs-conjugation", _check_nulling_dist),
    ("nulling-vs-string-enumeration", _check_nulling_vs_strings),
    ("sandwich-contains-block-error", _check_sandwich_contains_helstrom),
    ("symmetric-pure-closed-form-vs-solver", _check_gus_vs_solver),
    ("port-optimizer-vs-brute-force", _check_optimizer_vs_brute_force),
    ("pgm-within-double-optimum", _check_pgm_vs_double_helstrom),
    ("covariance-classification", _check_covariance_classes),
]
