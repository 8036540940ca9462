"""Command line interface producing the package's standard sweep tables.

Four commands, selected with ``--command``:

* ``fig2``: ultimate position-finding error for depolarizing cells, exact
  entangled and classical curves over a damping-gap sweep.
* ``fig3``: amplitude damping position finding, optimized adaptive lower
  bound against the non-adaptive fidelity bound and a block measurement
  upper bound.
* ``binary``: two-channel discrimination sweeps; ``--kind`` picks the
  channel family (``qec``, ``qdc``, ``qadc``).
* ``crosscheck``: seeded agreement suite between independent computation
  routes; any disagreement is reported by name and exits with code 3.

Output is CSV (default) or JSON.  CSV uses comma separators, ``.`` decimal
points, 17-significant-digit scientific floats, LF line endings and UTF-8;
two runs with an identical configuration produce byte-identical output.
Exit codes: 0 on success, 2 for invalid configurations (including inputs a
library size guard refuses), 3 when a result table violates one of its
internal ordering invariants.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys
import time

import numpy as np

from .channels import kraus_vectors, make_qadc, make_qdc, make_qec, tele_covariance_check
from .cpf import CpfSpec, cpf_helstrom_iterative, cpf_nonadaptive_fidelity_lb, optimize_over_M
from .discrimination import (StateEnsemble, check_exact_prob, gus_unitary_helstrom,
                             helstrom_binary, helstrom_iterative, pgm_error)
from .linalg import (ChandiscError, DensityMatrix, check_prob, gram_states, kron_power,
                     tensor_all, trace_norm)
from .orc import (OrcParams, f_u, f_u_values, h_m1_closed, h_mu, h_mu_values, qdc_cpf,
                  qdc_scales)
from .qadc import (QadcError, XiTable, fvg_sandwich, nulling_error, nulling_outcome_dist,
                   nulling_unitary, qadc_adaptive_lb_opt, qadc_block_helstrom, qadc_block_pgm,
                   qadc_choi_fidelity, qadc_cpf_adaptive_lb, qadc_cpf_adaptive_lb_opt,
                   qadc_cpf_adaptive_lb_values, qadc_cpf_block_pgm)
from .channels import choi as channel_choi

FLOAT_FORMAT = "%.16e"


class CliConfigError(ValueError):
    """Invalid combination of command line options (exit code 2)."""


class InvariantViolation(RuntimeError):
    """A computed table broke one of its internal guarantees (exit code 3)."""


@dataclasses.dataclass(frozen=True)
class RunConfig:
    command: str
    m: int | None
    u: int | None
    d: int | None
    q0: float | None
    q1: float | None
    q_b: float | None
    q_t: float | None
    gaps: tuple
    grid: int
    ports_min: int
    ports_max: int
    xi_text: str
    fmt: str
    out: str
    seed: int
    tol: float
    kind: str | None
    budget: float


@dataclasses.dataclass(frozen=True)
class SweepRow:
    values: tuple


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chandisc",
        description="Error-probability sweeps for channel discrimination and position finding.")
    parser.add_argument("--command", required=True,
                        choices=["fig2", "fig3", "binary", "crosscheck"])
    parser.add_argument("--m", type=int, default=None, help="number of cells")
    parser.add_argument("--u", type=int, default=None, help="channel uses per cell")
    parser.add_argument("--d", type=int, default=None, help="channel dimension")
    parser.add_argument("--q0", type=float, default=None)
    parser.add_argument("--q1", type=float, default=None)
    parser.add_argument("--qB", dest="q_b", type=float, default=None)
    parser.add_argument("--qT", dest="q_t", type=float, default=None)
    parser.add_argument("--gap", type=str, default=None,
                        help="comma separated list of probability gaps")
    parser.add_argument("--grid", type=int, default=200, help="sweep points per curve")
    parser.add_argument("--M-min", dest="ports_min", type=int, default=1)
    parser.add_argument("--M-max", dest="ports_max", type=int, default=10**6)
    parser.add_argument("--xi", type=str, default="uniform",
                        help="'uniform' or 'value-table:FILE' with 'ports,value' lines")
    parser.add_argument("--format", dest="fmt", choices=["csv", "json"], default="csv")
    parser.add_argument("--out", type=str, default="-")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--tol", type=float, default=1e-8)
    parser.add_argument("--kind", choices=["qec", "qdc", "qadc"], default=None,
                        help="channel family for --command binary")
    parser.add_argument("--budget", type=float, default=60.0,
                        help="time budget in seconds for --command crosscheck")
    return parser


def _parse_gaps(text, default):
    if text is None:
        return tuple(default)
    try:
        gaps = tuple(float(g) for g in text.split(","))
    except ValueError as exc:
        raise CliConfigError(f"cannot parse --gap {text!r}: {exc}") from None
    if not gaps:
        raise CliConfigError("--gap needs at least one value")
    for gap in gaps:
        if not 0.0 < gap < 1.0:
            raise CliConfigError(f"gaps must lie in (0, 1), got {gap}")
    return gaps


def make_config(args) -> RunConfig:
    if args.grid < 2:
        raise CliConfigError(f"--grid must be >= 2, got {args.grid}")
    if args.ports_min < 1 or args.ports_max < args.ports_min:
        raise CliConfigError(
            f"invalid port range ({args.ports_min}, {args.ports_max})")
    if args.tol <= 0.0:
        raise CliConfigError(f"--tol must be > 0, got {args.tol}")
    if args.budget <= 0.0:
        raise CliConfigError(f"--budget must be > 0, got {args.budget}")
    if args.m is not None and args.m < 2:
        raise CliConfigError(f"--m must be >= 2, got {args.m}")
    if args.u is not None and args.u < 1:
        raise CliConfigError(f"--u must be >= 1, got {args.u}")
    if args.d is not None and args.d < 2:
        raise CliConfigError(f"--d must be >= 2, got {args.d}")
    if args.command == "binary" and args.kind is None:
        raise CliConfigError("--command binary requires --kind {qec,qdc,qadc}")
    if (args.q0 is None) != (args.q1 is None):
        raise CliConfigError("--q0 and --q1 must be given together")
    for name, flag in (("q0", "--q0"), ("q1", "--q1"), ("q_b", "--qB"), ("q_t", "--qT")):
        value = getattr(args, name)
        if value is not None:
            check_prob(value, flag, CliConfigError)
    if args.xi != "uniform" and not args.xi.startswith("value-table:"):
        raise CliConfigError(f"--xi must be 'uniform' or 'value-table:FILE', got {args.xi!r}")
    return RunConfig(
        command=args.command, m=args.m, u=args.u, d=args.d, q0=args.q0, q1=args.q1,
        q_b=args.q_b, q_t=args.q_t, gaps=_parse_gaps(args.gap, ()), grid=args.grid,
        ports_min=args.ports_min, ports_max=args.ports_max, xi_text=args.xi,
        fmt=args.fmt, out=args.out, seed=args.seed, tol=args.tol, kind=args.kind,
        budget=args.budget)


def load_xi(cfg: RunConfig):
    """Resolve --xi into 'None' (uniform default) or an :class:`XiTable` step function."""
    if cfg.xi_text == "uniform":
        return None
    path = cfg.xi_text.split(":", 1)[1]
    entries = []
    try:
        with open(path, encoding="utf-8") as handle:
            for line in handle:
                line = line.split("#", 1)[0].strip()
                if not line:
                    continue
                ports_text, value_text = line.split(",")
                entries.append((int(ports_text), float(value_text)))
    except (OSError, ValueError) as exc:
        raise CliConfigError(f"cannot read xi table {path!r}: {exc}") from None
    entries.sort()
    try:
        return XiTable([p for p, _ in entries], [v for _, v in entries])
    except (QadcError, OverflowError) as exc:
        raise CliConfigError(f"{exc}: {path!r}") from None


# -- sweep construction --------------------------------------------------------

def _sweep_axis(gap: float, grid: int) -> np.ndarray:
    return np.linspace(0.0, 1.0 - gap, grid)


def _first_excess(entangled: np.ndarray, classical: np.ndarray):
    # Index of the first point where the entangled error exceeds the
    # classical one beyond rounding, or None.  For floats, x - y > 0 exactly
    # when x > y, so the maximum tests every point.
    excess = entangled - (classical + 1e-12)
    return int(np.argmax(excess > 0.0)) if excess.max() > 0.0 else None


def run_fig2(cfg: RunConfig):
    m = cfg.m if cfg.m is not None else 5
    d = cfg.d if cfg.d is not None else 100
    us = (cfg.u,) if cfg.u is not None else (1, 3)
    gaps = cfg.gaps or (0.5, 0.9, 0.99, 0.999)
    header = ["u", "gap", "q_t", "q_b", "qdc_cpf_entangled[exact]",
              "qdc_cpf_classical[exact]", "at_q_t_max"]
    ent_scale, cls_scale = qdc_scales(d)
    rows = []
    for u in us:
        for gap in gaps:
            q_t = _sweep_axis(gap, cfg.grid)
            q_b = q_t + gap
            entangled = check_exact_prob(h_mu_values(ent_scale * q_b, ent_scale * q_t, m, u))
            classical = check_exact_prob(h_mu_values(cls_scale * q_b, cls_scale * q_t, m, u))
            bad = _first_excess(entangled, classical)
            if bad is not None:
                raise InvariantViolation(
                    f"fig2: entangled value {entangled[bad]} exceeds classical "
                    f"{classical[bad]} at u={u}, gap={gap}, q_t={q_t[bad]}")
            points = zip(q_t.tolist(), q_b.tolist(), entangled.tolist(), classical.tolist())
            rows.extend(SweepRow((u, gap, t, b, ent, cls, int(i == cfg.grid - 1)))
                        for i, (t, b, ent, cls) in enumerate(points))
    return header, rows


def run_fig3(cfg: RunConfig):
    configs = [(cfg.m, cfg.u)] if cfg.m is not None and cfg.u is not None else [(2, 4), (4, 2)]
    if (cfg.m is None) != (cfg.u is None):
        raise CliConfigError("fig3 needs --m and --u together (or neither)")
    gap = cfg.gaps[0] if cfg.gaps else 0.04
    xi = load_xi(cfg)
    header = ["m", "u", "gap", "q_t", "q_b",
              "adaptive_lb_opt[lower]", "adaptive_lb_opt[raw]",
              "adaptive_lb_opt[clamped_flag]", "best_ports",
              "nonadaptive_fidelity_lb[lower]", "nonadaptive_fidelity_lb[raw]",
              "nonadaptive_fidelity_lb[clamped_flag]", "block_pgm[upper]"]
    rows = []
    for m, u in configs:
        for q_t in _sweep_axis(gap, cfg.grid):
            q_b = q_t + gap
            adaptive, opt = qadc_cpf_adaptive_lb_opt(
                q_b, q_t, m, u, xi=xi, ports_range=(cfg.ports_min, cfg.ports_max))
            nonadaptive = cpf_nonadaptive_fidelity_lb(qadc_choi_fidelity(q_b, q_t), m, u)
            pgm = qadc_cpf_block_pgm(q_b, q_t, m, u)
            if adaptive.value > nonadaptive.value + 1e-9:
                raise InvariantViolation(
                    f"fig3: adaptive bound {adaptive.value} exceeds non-adaptive "
                    f"{nonadaptive.value} at m={m}, u={u}, q_t={q_t}")
            if nonadaptive.value > pgm.value + 1e-7:
                raise InvariantViolation(
                    f"fig3: fidelity lower bound {nonadaptive.value} exceeds the "
                    f"measured upper bound {pgm.value} at m={m}, u={u}, q_t={q_t}")
            rows.append(SweepRow((
                m, u, gap, float(q_t), float(q_b),
                adaptive.clamped_value, adaptive.value, int(adaptive.clamped),
                opt.best_ports,
                nonadaptive.clamped_value, nonadaptive.value, int(nonadaptive.clamped),
                pgm.value)))
    return header, rows


def _binary_blocks(cfg: RunConfig, default_gaps):
    # (gap, q1 array, q0 array) blocks: one explicit (q0, q1) pair or, per
    # gap, a sweep q0 = q1 + gap.
    if cfg.q0 is not None:
        return [(float(cfg.q0 - cfg.q1), np.array([cfg.q1]), np.array([cfg.q0]))]
    blocks = []
    for gap in (cfg.gaps or default_gaps):
        q1 = _sweep_axis(gap, cfg.grid)
        blocks.append((gap, q1, q1 + gap))
    return blocks


def _binary_points(cfg: RunConfig, default_gaps):
    # The points of _binary_blocks one (gap, q1, q0) at a time.
    return [(gap, q1, q0) for gap, q1s, q0s in _binary_blocks(cfg, default_gaps)
            for q1, q0 in zip(q1s.tolist(), q0s.tolist())]


def run_binary_qec(cfg: RunConfig):
    u = cfg.u if cfg.u is not None else 30
    header = ["gap", "q1", "q0", "u", "qec_ultimate[exact]"]
    rows = []
    for gap, q1, q0 in _binary_blocks(cfg, (0.2, 0.4, 0.6, 0.8)):
        values = check_exact_prob(f_u_values(q0, q1, u))
        rows.extend(SweepRow((gap, p1, p0, u, value))
                    for p1, p0, value in zip(q1.tolist(), q0.tolist(), values.tolist()))
    return header, rows


def run_binary_qdc(cfg: RunConfig):
    u = cfg.u if cfg.u is not None else 30
    d = cfg.d if cfg.d is not None else 6
    header = ["gap", "q1", "q0", "u", "d", "qdc_entangled[exact]", "qdc_classical[exact]"]
    ent_scale, cls_scale = qdc_scales(d)
    rows = []
    for gap, q1, q0 in _binary_blocks(cfg, (0.2, 0.4, 0.6, 0.8)):
        entangled = check_exact_prob(f_u_values(ent_scale * q0, ent_scale * q1, u))
        classical = check_exact_prob(f_u_values(cls_scale * q0, cls_scale * q1, u))
        bad = _first_excess(entangled, classical)
        if bad is not None:
            raise InvariantViolation(
                f"binary qdc: entangled value {entangled[bad]} exceeds classical "
                f"{classical[bad]} at q1={q1[bad]}, q0={q0[bad]}")
        points = zip(q1.tolist(), q0.tolist(), entangled.tolist(), classical.tolist())
        rows.extend(SweepRow((gap, p1, p0, u, d, ent, cls)) for p1, p0, ent, cls in points)
    return header, rows


def run_binary_qadc(cfg: RunConfig):
    u = cfg.u if cfg.u is not None else 8
    xi = load_xi(cfg)
    header = ["gap", "q1", "q0", "u",
              "adaptive_lb_opt[lower]", "adaptive_lb_opt[raw]",
              "adaptive_lb_opt[clamped_flag]", "best_ports",
              "fvg_lower[lower]", "block_helstrom[exact]", "fvg_upper[upper]",
              "block_pgm[upper]", "nulling_q0[upper]", "nulling_q1[upper]",
              "nulling_min[upper]"]
    rows = []
    for gap, q1, q0 in _binary_points(cfg, (0.04,)):
        adaptive, opt = qadc_adaptive_lb_opt(
            q0, q1, u, xi=xi, ports_range=(cfg.ports_min, cfg.ports_max))
        fvg_lo, fvg_hi = fvg_sandwich(qadc_choi_fidelity(q0, q1), u)
        exact = qadc_block_helstrom(q0, q1, u)
        pgm = qadc_block_pgm(q0, q1, u)
        nulls = {variant: nulling_error(q0, q1, u, variant)
                 for variant in ("apply_q0", "apply_q1", "apply_min")}
        achievable = min(fvg_hi, pgm.value, nulls["apply_min"])
        if not fvg_lo - 1e-7 <= exact.value <= achievable + 1e-7:
            raise InvariantViolation(
                f"binary qadc: exact block error {exact.value} escapes its bracket "
                f"[{fvg_lo}, {achievable}] at q1={q1}, q0={q0}")
        if adaptive.value > exact.value + 1e-9:
            raise InvariantViolation(
                f"binary qadc: adaptive lower bound {adaptive.value} exceeds the "
                f"block error {exact.value} at q1={q1}, q0={q0}")
        rows.append(SweepRow((
            gap, q1, q0, u,
            adaptive.clamped_value, adaptive.value, int(adaptive.clamped),
            opt.best_ports, fvg_lo, exact.value, fvg_hi, pgm.value,
            nulls["apply_q0"], nulls["apply_q1"], nulls["apply_min"])))
    return header, rows


def run_binary(cfg: RunConfig):
    if cfg.kind == "qec":
        return run_binary_qec(cfg)
    if cfg.kind == "qdc":
        return run_binary_qdc(cfg)
    return run_binary_qadc(cfg)


# -- cross-validation suite ----------------------------------------------------

def _dense_block_pair(channel0, channel1, u: int):
    c0 = channel_choi(channel0).mat
    c1 = channel_choi(channel1).mat
    return (DensityMatrix(tensor_all([c0] * u)), DensityMatrix(tensor_all([c1] * u)))


def _check_f_vs_helstrom_qec(rng):
    worst = 0.0
    cases = 0
    for _ in range(3):
        q0, q1 = rng.uniform(0.05, 0.95, size=2)
        for u in (1, 2, 3):
            rho0, rho1 = _dense_block_pair(make_qec(2, q0), make_qec(2, q1), u)
            dev = abs(helstrom_binary(rho0, rho1).value - f_u(q0, q1, u))
            worst = max(worst, dev)
            cases += 1
    return worst, 1e-9, cases


def _check_qdc_binary_vs_helstrom(rng):
    worst = 0.0
    cases = 0
    for _ in range(3):
        q0, q1 = rng.uniform(0.05, 0.95, size=2)
        for u in (1, 2):
            rho0, rho1 = _dense_block_pair(make_qdc(2, q0), make_qdc(2, q1), u)
            ent = f_u(0.75 * q0, 0.75 * q1, u)
            worst = max(worst, abs(helstrom_binary(rho0, rho1).value - ent))
            out0 = np.diag([1.0 - q0 / 2.0, q0 / 2.0])
            out1 = np.diag([1.0 - q1 / 2.0, q1 / 2.0])
            cls = f_u(0.5 * q0, 0.5 * q1, u)
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
            params = OrcParams(q_b=q_b, q_t=q_t, u=u, m=m)
            worst = max(worst, abs(h_mu(params) - strings))
            if u == 1:
                worst = max(worst, abs(h_m1_closed(params) - strings))
            cases += 1
    return worst, 1e-12, cases


def _check_cpf_vs_solver(rng):
    worst = 0.0
    cases = 0
    for m, u in ((2, 1), (2, 2)):
        q_b, q_t = rng.uniform(0.1, 0.9, size=2)
        spec = CpfSpec(make_qdc(2, q_b), make_qdc(2, q_t), m, u)
        report, _, gap = cpf_helstrom_iterative(spec)
        target = qdc_cpf(q_b, q_t, m, u, 2)[0].value
        worst = max(worst, max(0.0, abs(report.value - target) - gap))
        cases += 1
    for m in (2, 3):
        q_b, q_t = rng.uniform(0.1, 0.9, size=2)
        spec = CpfSpec(make_qec(2, q_b), make_qec(2, q_t), m, 1)
        report, _, gap = cpf_helstrom_iterative(spec)
        target = h_m1_closed(OrcParams(q_b=q_b, q_t=q_t, u=1, m=m))
        worst = max(worst, max(0.0, abs(report.value - target) - gap))
        cases += 1
    return worst, 1e-6, cases


def _check_compression_distance(rng):
    worst = 0.0
    q0, q1 = rng.uniform(0.1, 0.9, size=2)
    c0 = channel_choi(make_qadc(q0)).mat
    c1 = channel_choi(make_qadc(q1)).mat
    vecs = [kraus_vectors(make_qadc(q)) for q in (q0, q1)]
    for u in (2, 3):
        dense = trace_norm(tensor_all([c0] * u) - tensor_all([c1] * u))
        gram = np.block([[kron_power(a.T @ b, u) for b in vecs] for a in vecs])
        small0, small1 = gram_states(gram, [gram.shape[0] // 2] * 2)
        worst = max(worst, abs(trace_norm(small0 - small1) - dense))
    return worst, 1e-9, 2


def _check_nulling_dist(_rng):
    worst = 0.0
    cases = 0
    for q_app in (0.0, 0.3, 0.7, 1.0):
        unitary = nulling_unitary(q_app)
        for q_act in (0.0, 0.3, 0.7, 1.0):
            state = channel_choi(make_qadc(q_act)).mat
            direct = np.diag(unitary @ state @ unitary.conj().T).real
            closed = nulling_outcome_dist(q_app, q_act).probs
            worst = max(worst, np.abs(direct - closed).max())
            cases += 1
    return worst, 1e-10, cases


def _check_nulling_vs_strings(rng):
    worst = 0.0
    cases = 0
    for u in (1, 2, 3):
        q0, q1 = rng.uniform(0.1, 0.9, size=2)
        for variant, applied in (("apply_q0", q0), ("apply_q1", q1)):
            p0 = nulling_outcome_dist(applied, q0).probs
            p1 = nulling_outcome_dist(applied, q1).probs
            total = 0.0
            for string in range(4**u):
                like0 = like1 = 1.0
                rem = string
                for _ in range(u):
                    rem, outcome = divmod(rem, 4)
                    like0 *= p0[outcome]
                    like1 *= p1[outcome]
                total += min(like0, like1)
            worst = max(worst, abs(total / 2.0 - nulling_error(q0, q1, u, variant)))
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
    q_b, q_t = 0.24, 0.2

    def value_at(ports: int) -> float:
        return qadc_cpf_adaptive_lb(q_b, q_t, 2, 4, ports).value

    result = optimize_over_M(functools.partial(qadc_cpf_adaptive_lb_values, q_b, q_t, 2, 4),
                             ports_range=(1, 3000))
    brute = max((value_at(p), -p) for p in range(1, 3001))
    dev = abs(result.best_value - brute[0]) + abs(result.best_ports - (-brute[1]))
    return dev, 1e-12, 1


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


def run_crosscheck(cfg: RunConfig):
    header = ["check", "status", "max_abs_dev", "tolerance", "cases"]
    rows = []
    failures = []
    started = time.monotonic()
    for name, check in CROSSCHECKS:
        if time.monotonic() - started > cfg.budget:
            rows.append(SweepRow((name, "skipped", 0.0, 0.0, 0)))
            continue
        rng = np.random.default_rng(cfg.seed)
        dev, tol, cases = check(rng)
        status = "pass" if dev <= tol else "fail"
        if status == "fail":
            failures.append(f"{name} (deviation {dev:.3e} > tolerance {tol:.3e})")
        rows.append(SweepRow((name, status, float(dev), float(tol), cases)))
    return header, rows, failures


# -- output ---------------------------------------------------------------------

def _format_cell(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, (bool, np.bool_)):
        return str(int(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return FLOAT_FORMAT % float(value)


def _json_value(value):
    if isinstance(value, (bool, np.bool_)):
        return int(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return float(value)
    return value


def render(header, rows, fmt: str) -> str:
    if fmt == "csv":
        lines = [",".join(header)]
        lines.extend(",".join(_format_cell(v) for v in row.values) for row in rows)
        return "\n".join(lines) + "\n"
    payload = [{name: _json_value(v) for name, v in zip(header, row.values)}
               for row in rows]
    return json.dumps(payload, indent=2) + "\n"


def write_output(text: str, out: str):
    if out == "-":
        sys.stdout.write(text)
        return
    try:
        with open(out, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
    except OSError as exc:
        raise CliConfigError(f"cannot write {out!r}: {exc}") from None


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = make_config(args)
        if cfg.command == "fig2":
            header, rows = run_fig2(cfg)
            failures = []
        elif cfg.command == "fig3":
            header, rows = run_fig3(cfg)
            failures = []
        elif cfg.command == "binary":
            header, rows = run_binary(cfg)
            failures = []
        else:
            header, rows, failures = run_crosscheck(cfg)
        write_output(render(header, rows, cfg.fmt), cfg.out)
        if failures:
            for failure in failures:
                print(f"invariant violation: {failure}", file=sys.stderr)
            return 3
        return 0
    except (CliConfigError, ChandiscError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InvariantViolation as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
