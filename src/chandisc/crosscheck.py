"""Seeded agreement suite between independent computation routes.

Each check is a generator that yields one deviation per case, or several
for a case compared more than one way, and :func:`run_check` folds them
into the worst deviation and the case count.  ``CROSSCHECKS`` lists
``(name, tolerance, check)`` rows in run order under the names
``--command crosscheck`` prints; each check there draws its cases from the
seeded generator it is given.  :func:`counting_vs_helstrom` and
:func:`gus_vs_solver` take their cases instead, so that the acceptance
suite runs the same comparisons on its fixed grids.  The CLI imports this
module for that command only.

Two routes that only the checks use live here too: the single-use
position-finding closed form :func:`h_m1_closed` and the receiver unitary
:func:`nulling_unitary`, each checking its inputs as the module whose
quantity it checks does.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .channels import choi as channel_choi, make_qadc, make_qdc, make_qec, tele_covariance_check
from .discrimination import (DensityMatrix, StateEnsemble, gus_unitary_helstrom, helstrom_binary,
                             helstrom_iterative, pgm_error, tensor_all)
from .linalg import check_count, check_one_prob
from .orc import f_u_values, h_mu_values, qdc_scales
from .qadc import (fvg_sandwich, nulling_error, nulling_outcome_dist, qadc_block_helstrom,
                   qadc_choi_fidelity, qadc_cpf_adaptive_lb_opt, qadc_cpf_adaptive_lb_values)


def h_m1_closed(q_b, q_t, m: int) -> float:
    """Single-use position-finding error in closed form.

    The ``u == 1`` case of :func:`~chandisc.orc.h_mu_values` at one point,
    with ``q_b`` and ``q_t`` in [0, 1] and ``m >= 2`` checked as there.  The
    expression groups outcome strings by total weight; the all-same-outcome
    strings contribute their own terms and the mixed strings carry the
    larger of the two likelihood ratios, which reduces to comparing ``q_t``
    with ``q_b``.  The grouped factor holds a geometric sum,
    ``sum_{j<m} (1-q_b)**j = -expm1(m log1p(-q_b)) / q_b`` or
    ``sum_{j<m} q_b**j = -expm1(m log q_b) / (1 - q_b)``, whose power is
    taken in logs: the quotient keeps its digits as ``q_b`` or ``1 - q_b``
    vanishes, and the cost does not grow with ``m``.  Where a sum's ratio is
    1 or 0 its log is undefined, and the sum is ``m`` or 1.
    """
    q_b = check_one_prob(q_b, "q_b")
    q_t = check_one_prob(q_t, "q_t")
    m = check_count(m, "m", 2)
    if q_t >= q_b:
        if q_b == 0.0 or q_b == 1.0:
            total = m if q_b == 0.0 else 1.0
        else:
            total = -math.expm1(m * math.log1p(-q_b)) / q_b
        mid = q_t * (total - q_b ** (m - 1))
    else:  # q_b > q_t >= 0
        total = m if q_b == 1.0 else -math.expm1(m * math.log(q_b)) / (1.0 - q_b)
        mid = (1.0 - q_t) * (total - (1.0 - q_b) ** (m - 1))
    best = q_t * q_b ** (m - 1) + (1.0 - q_t) * (1.0 - q_b) ** (m - 1) + mid
    return 1.0 - best / m


def nulling_unitary(q) -> np.ndarray:
    """Receiver unitary that empties two outcome levels of a damping Choi state.

    Acting on the Choi state of the damping channel with the same parameter
    ``q``, the rotated state is diagonal ``[0, 0, 1 - q/2, q/2]``: outcomes
    0 and 1 are nulled.  Probing a channel with a different parameter leaks
    probability into outcome 0, which the counting receiver
    (:func:`~chandisc.qadc.nulling_error`) exploits.
    """
    q = check_one_prob(q, "q")
    a = math.sqrt((1.0 - q) / (2.0 - q))
    b = 1.0 / math.sqrt(2.0 - q)
    return np.array([
        [-a, 0.0, 0.0, b],
        [0.0, 0.0, 1.0, 0.0],
        [b, 0.0, 0.0, a],
        [0.0, 1.0, 0.0, 0.0],
    ], dtype=np.complex128)


def run_check(check, *args):
    """Fold the deviations ``check(*args)`` yields into ``(worst, cases)``.

    ``worst`` is the largest of 0 and every deviation; an array yielded for
    one case counts its largest entry.  A NaN, which :func:`max` would drop,
    makes it NaN, so it fails every tolerance.
    """
    worst, cases = 0.0, 0
    for cases, dev in enumerate(check(*args), 1):
        dev = float(np.max(dev))
        worst = max(worst, dev) if dev == dev else dev
    return worst, cases


def _dense_helstrom(state0, state1, u: int) -> float:
    return helstrom_binary(DensityMatrix(tensor_all([state0] * u)),
                           DensityMatrix(tensor_all([state1] * u))).value


def _dense_cpf_ensemble(background, target, m: int, u: int):
    # Hypothesis n: the target's Choi state in cell n, the background's in
    # the others, u uses each; in a basis of the joint support of all m.
    bg, tg = channel_choi(background).mat, channel_choi(target).mat
    states = [tensor_all([tg if cell == n else bg for cell in range(m) for _ in range(u)])
              for n in range(m)]
    w, v = np.linalg.eigh(sum(states))
    basis = v[:, w > 1e-12]
    return StateEnsemble.equiprobable([basis.conj().T @ s @ basis for s in states])


def _solver_excess(ensemble, target):
    # how far the solver's minimum error lies from target beyond its certified gap
    report, _, gap = helstrom_iterative(ensemble)
    return abs(report.value - target) - gap


# Each case kind of :func:`counting_vs_helstrom`: its single-use state at q
# (a qubit channel's Choi state, or the depolarizing output on |0> measured)
# and the flip probability that f_u counts for it.
COUNTED = {
    "erasure": lambda q: (channel_choi(make_qec(2, q)).mat, q),
    "depolarizing": lambda q: (channel_choi(make_qdc(2, q)).mat, qdc_scales(2)[0] * q),
    "depolarizing-classical": lambda q: (np.diag([1.0 - q / 2.0, q / 2.0]),
                                         qdc_scales(2)[1] * q),
}


def counting_vs_helstrom(cases):
    """Yield ``|f_u - Helstrom|`` on the dense ``u``-fold powers per ``(kind, q0, q1, u)``."""
    for kind, q0, q1, u in cases:
        (state0, p0), (state1, p1) = COUNTED[kind](q0), COUNTED[kind](q1)
        yield abs(_dense_helstrom(state0, state1, u) - f_u_values(p0, p1, u))


def gus_vs_solver(cases):
    """Yield the closed form's distance from the solver, beyond its gap, per ``(m, eta)``.

    The states are ``m`` cyclic pure states on C^m with pairwise overlaps
    ``eta``: component j of state k has phase omega^(j k), component 0 the
    excess weight.
    """
    for m, eta in cases:
        amps = np.sqrt(np.full(m, (1.0 - eta) / m) + np.array([eta] + [0.0] * (m - 1)))
        phases = np.exp(2j * np.pi * np.arange(m) / m)
        states = [DensityMatrix(np.outer(vec, vec.conj()))
                  for vec in (amps * phases**k for k in range(m))]
        yield _solver_excess(StateEnsemble.equiprobable(states), gus_unitary_helstrom(eta, m).value)


def _draws(rng):
    return [rng.uniform(0.05, 0.95, size=2) for _ in range(3)]


def _check_h_route_agreement(rng):
    for m, u in ((2, 3), (3, 2), (4, 2), (2, 5), (2, 1), (3, 1), (5, 1)):
        for _ in range(3):
            q_b, q_t = rng.uniform(0.0, 1.0, size=2)
            hypotheses = [[q_t if cell == target else q_b for cell in range(m)]
                          for target in range(m)]
            success = 0.0
            for string in range(2 ** (u * m)):
                counts = [bin((string >> (cell * u)) % 2**u).count("1") for cell in range(m)]
                success += max(math.prod(q**k * (1.0 - q) ** (u - k) for q, k in zip(qs, counts))
                               for qs in hypotheses)
            strings = 1.0 - success / m
            devs = [abs(h_mu_values(q_b, q_t, m, u) - strings)]
            if u == 1:
                devs.append(abs(h_m1_closed(q_b, q_t, m) - strings))
            yield devs


def _check_cpf_vs_solver(rng):
    scale = qdc_scales(2)[0]
    for m, u in ((2, 1), (2, 2)):
        q_b, q_t = rng.uniform(0.1, 0.9, size=2)
        yield _solver_excess(_dense_cpf_ensemble(make_qdc(2, q_b), make_qdc(2, q_t), m, u),
                             h_mu_values(scale * q_b, scale * q_t, m, u))
    for m in (2, 3):
        q_b, q_t = rng.uniform(0.1, 0.9, size=2)
        yield _solver_excess(_dense_cpf_ensemble(make_qec(2, q_b), make_qec(2, q_t), m, 1),
                             h_m1_closed(q_b, q_t, m))


def _check_block_helstrom_vs_dense(rng):
    # the damping pair's weight-block Gram decomposition against the dense trace norm
    q0, q1 = rng.uniform(0.1, 0.9, size=2)
    state0, state1 = channel_choi(make_qadc(q0)).mat, channel_choi(make_qadc(q1)).mat
    for u in (2, 3):
        yield abs(qadc_block_helstrom(q0, q1, u).value - _dense_helstrom(state0, state1, u))


def _check_nulling_dist(_rng):
    for q_app in (0.0, 0.3, 0.7, 1.0):
        unitary = nulling_unitary(q_app)
        for q_act in (0.0, 0.3, 0.7, 1.0):
            state = channel_choi(make_qadc(q_act)).mat
            direct = np.diag(unitary @ state @ unitary.conj().T).real
            yield np.abs(direct - nulling_outcome_dist(q_app, q_act))


def _check_nulling_vs_strings(rng):
    for u in (1, 2, 3):
        q0, q1 = rng.uniform(0.1, 0.9, size=2)
        for applied, grouped in zip((q0, q1), nulling_error(q0, q1, u)):
            p0 = nulling_outcome_dist(applied, q0)
            p1 = nulling_outcome_dist(applied, q1)
            total = 0.0
            for string in itertools.product(range(4), repeat=u):
                uses = string[::-1]  # fastest-varying use first, a fixed rounding order
                total += min(math.prod(p0[o] for o in uses), math.prod(p1[o] for o in uses))
            yield abs(total / 2.0 - grouped)


def _check_sandwich_contains_helstrom(rng):
    for u in (1, 2, 4):
        q0, q1 = rng.uniform(0.05, 0.95, size=2)
        lower, upper = fvg_sandwich(qadc_choi_fidelity(q0, q1), u)
        exact = qadc_block_helstrom(q0, q1, u).value
        yield lower - exact, exact - upper


def _check_optimizer_vs_brute_force(_rng):
    # every port count in one kernel call; argmax takes the first, fewest-port maximum
    report = qadc_cpf_adaptive_lb_opt(0.24, 0.2, 2, 4, ports_range=(1, 3000))
    values = qadc_cpf_adaptive_lb_values(0.24, 0.2, 2, 4, np.arange(1, 3001))
    best = int(np.argmax(values))
    yield abs(report.value - values[best]) + abs(report.params["ports"] - (best + 1))


def _check_pgm_vs_double_helstrom(rng):
    for _ in range(3):
        states = []
        for _ in range(3):
            raw = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            mat = raw @ raw.conj().T
            states.append(DensityMatrix(mat / mat.trace().real))
        ensemble = StateEnsemble.equiprobable(states)
        report, _, gap = helstrom_iterative(ensemble)
        yield pgm_error(ensemble).value - 2.0 * (report.value + gap)


def _check_covariance_classes(_rng):
    # a deviation of 1 for each channel classified the wrong way
    for channel, covariant in ((make_qec(2, 0.3), True), (make_qdc(2, 0.4), True),
                               (make_qdc(3, 0.2), True), (make_qadc(0.3), False),
                               (make_qadc(0.7), False)):
        yield float(tele_covariance_check(channel) != covariant)


CROSSCHECKS = [
    ("counting-vs-helstrom-erasure", 1e-9, lambda rng: counting_vs_helstrom(
        ("erasure", q0, q1, u) for q0, q1 in _draws(rng) for u in (1, 2, 3))),
    ("counting-vs-helstrom-depolarizing", 1e-9, lambda rng: counting_vs_helstrom(
        (kind, q0, q1, u) for q0, q1 in _draws(rng) for u in (1, 2)
        for kind in ("depolarizing", "depolarizing-classical"))),
    ("position-error-route-agreement", 1e-12, _check_h_route_agreement),
    ("position-error-vs-solver", 1e-6, _check_cpf_vs_solver),
    ("block-helstrom-vs-dense", 1e-9, _check_block_helstrom_vs_dense),
    ("nulling-dist-vs-conjugation", 1e-10, _check_nulling_dist),
    ("nulling-vs-string-enumeration", 1e-12, _check_nulling_vs_strings),
    ("sandwich-contains-block-error", 1e-9, _check_sandwich_contains_helstrom),
    ("symmetric-pure-closed-form-vs-solver", 1e-6,
     lambda _rng: gus_vs_solver((m, eta) for m in (2, 3, 4) for eta in (0.2, 0.6))),
    ("port-optimizer-vs-brute-force", 1e-12, _check_optimizer_vs_brute_force),
    ("pgm-within-double-optimum", 1e-9, _check_pgm_vs_double_helstrom),
    ("covariance-classification", 0.5, _check_covariance_classes),
]
