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
  routes (:mod:`chandisc.crosscheck`); any disagreement is reported by name
  and exits with code 3.

Each command imports only the modules it runs: ``orc`` and ``linalg`` are
loaded with this module, which is all ``fig2`` and ``binary --kind
qec/qdc`` need; the damping commands import ``qadc`` (with ``cpf``) when
they run.  Only ``crosscheck`` loads the dense-state route
(``discrimination`` and ``channels``), through its suite.

Output is CSV (default) or JSON.  CSV uses comma separators, ``.`` decimal
points, 17-significant-digit scientific floats, LF line endings and UTF-8;
two runs with an identical configuration produce byte-identical output.
Exit codes: 0 on success, 2 for invalid configurations (including inputs a
library size guard refuses, and tables too large for the memory at hand), 3
when a result table violates one of its internal ordering invariants.
"""

from __future__ import annotations

import argparse
import sys
import time

import numpy as np

from .linalg import ChandiscError, check_exact_prob, check_prob
from .orc import f_u_values, h_mu_values, qdc_scales

FLOAT_FORMAT = "%.16e"


class CliConfigError(ValueError):
    """Invalid combination of command line options (exit code 2)."""


class InvariantViolation(RuntimeError):
    """A computed table broke one of its internal guarantees (exit code 3)."""


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
    parser.add_argument("--kind", choices=["qec", "qdc", "qadc"], default=None,
                        help="channel family for --command binary")
    parser.add_argument("--budget", type=float, default=60.0,
                        help="time budget in seconds for --command crosscheck")
    return parser


def _parse_gaps(text):
    if text is None:
        return ()
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


def make_config(args):
    """Validate the parsed options and return them, with ``--gap`` parsed into ``gaps``."""
    if args.grid < 2:
        raise CliConfigError(f"--grid must be >= 2, got {args.grid}")
    if args.ports_min < 1 or args.ports_max < args.ports_min:
        raise CliConfigError(
            f"invalid port range ({args.ports_min}, {args.ports_max})")
    if not args.budget > 0.0:
        raise CliConfigError(f"--budget must be > 0, got {args.budget}")
    if args.seed < 0:
        raise CliConfigError(f"--seed must be >= 0, got {args.seed}")
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
    if args.command == "binary" and args.q0 is not None and args.gap is not None:
        raise CliConfigError("--gap sweeps q0 = q1 + gap; it cannot be combined with --q0/--q1")
    for name in ("q0", "q1"):
        value = getattr(args, name)
        if value is not None:
            check_prob(value, f"--{name}", CliConfigError)
    if args.xi != "uniform" and not args.xi.startswith("value-table:"):
        raise CliConfigError(f"--xi must be 'uniform' or 'value-table:FILE', got {args.xi!r}")
    args.gaps = _parse_gaps(args.gap)
    return args


def load_xi(cfg):
    """Resolve --xi into 'None' (uniform default) or an :class:`XiTable` step function."""
    if cfg.xi == "uniform":
        return None
    from .qadc import QadcError, XiTable
    path = cfg.xi.split(":", 1)[1]
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


def run_fig2(cfg):
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
            rows.extend((u, gap, t, b, ent, cls, int(i == cfg.grid - 1))
                        for i, (t, b, ent, cls) in enumerate(points))
    return header, rows


def run_fig3(cfg):
    from .cpf import cpf_nonadaptive_fidelity_lb
    from .qadc import qadc_choi_fidelity, qadc_cpf_adaptive_lb_opt, qadc_cpf_block_pgm
    configs = [(cfg.m, cfg.u)] if cfg.m is not None and cfg.u is not None else [(2, 4), (4, 2)]
    if (cfg.m is None) != (cfg.u is None):
        raise CliConfigError("fig3 needs --m and --u together (or neither)")
    gaps = cfg.gaps or (0.04,)
    xi = load_xi(cfg)
    header = ["m", "u", "gap", "q_t", "q_b",
              "adaptive_lb_opt[lower]", "adaptive_lb_opt[raw]",
              "adaptive_lb_opt[clamped_flag]", "best_ports",
              "nonadaptive_fidelity_lb[lower]", "nonadaptive_fidelity_lb[raw]",
              "nonadaptive_fidelity_lb[clamped_flag]", "block_pgm[upper]"]
    rows = []
    points = [(m, u, gap, q_t) for m, u in configs for gap in gaps
              for q_t in _sweep_axis(gap, cfg.grid)]
    for m, u, gap, q_t in points:
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
        rows.append((
            m, u, gap, float(q_t), float(q_b),
            adaptive.clamped_value, adaptive.value, int(adaptive.clamped),
            opt.best_ports,
            nonadaptive.clamped_value, nonadaptive.value, int(nonadaptive.clamped),
            pgm.value))
    return header, rows


def _binary_blocks(cfg, default_gaps):
    # (gap, q1 array, q0 array) blocks: one explicit (q0, q1) pair or, per
    # gap, a sweep q0 = q1 + gap.
    if cfg.q0 is not None:
        return [(float(cfg.q0 - cfg.q1), np.array([cfg.q1]), np.array([cfg.q0]))]
    blocks = []
    for gap in (cfg.gaps or default_gaps):
        q1 = _sweep_axis(gap, cfg.grid)
        blocks.append((gap, q1, q1 + gap))
    return blocks


def _binary_points(cfg, default_gaps):
    # The points of _binary_blocks one (gap, q1, q0) at a time.
    return [(gap, q1, q0) for gap, q1s, q0s in _binary_blocks(cfg, default_gaps)
            for q1, q0 in zip(q1s.tolist(), q0s.tolist())]


def run_binary_qec(cfg):
    u = cfg.u if cfg.u is not None else 30
    header = ["gap", "q1", "q0", "u", "qec_ultimate[exact]"]
    rows = []
    for gap, q1, q0 in _binary_blocks(cfg, (0.2, 0.4, 0.6, 0.8)):
        values = check_exact_prob(f_u_values(q0, q1, u))
        rows.extend((gap, p1, p0, u, value)
                    for p1, p0, value in zip(q1.tolist(), q0.tolist(), values.tolist()))
    return header, rows


def run_binary_qdc(cfg):
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
        rows.extend((gap, p1, p0, u, d, ent, cls) for p1, p0, ent, cls in points)
    return header, rows


def run_binary_qadc(cfg):
    from .qadc import (fvg_sandwich, nulling_error, qadc_adaptive_lb_opt, qadc_block_helstrom,
                       qadc_block_pgm, qadc_choi_fidelity)
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
        rows.append((
            gap, q1, q0, u,
            adaptive.clamped_value, adaptive.value, int(adaptive.clamped),
            opt.best_ports, fvg_lo, exact.value, fvg_hi, pgm.value,
            nulls["apply_q0"], nulls["apply_q1"], nulls["apply_min"]))
    return header, rows


def run_binary(cfg):
    if cfg.kind == "qec":
        return run_binary_qec(cfg)
    if cfg.kind == "qdc":
        return run_binary_qdc(cfg)
    return run_binary_qadc(cfg)


def run_crosscheck(cfg):
    from .crosscheck import CROSSCHECKS
    header = ["check", "status", "max_abs_dev", "tolerance", "cases"]
    rows = []
    failures = []
    started = time.monotonic()
    for name, check in CROSSCHECKS:
        if time.monotonic() - started > cfg.budget:
            rows.append((name, "skipped", 0.0, 0.0, 0))
            continue
        rng = np.random.default_rng(cfg.seed)
        dev, tol, cases = check(rng)
        status = "pass" if dev <= tol else "fail"
        if status == "fail":
            failures.append(f"{name} (deviation {dev:.3e} > tolerance {tol:.3e})")
        rows.append((name, status, float(dev), float(tol), cases))
    return header, rows, failures


# -- output ---------------------------------------------------------------------

def _cell_format(kind: type) -> str:
    if issubclass(kind, str):
        return "%s"
    if issubclass(kind, (int, np.integer, np.bool_)):   # bool is an int
        return "%d"
    return FLOAT_FORMAT


def _csv_row_format(header, values) -> str:
    # One %-format for every row of the table, from the types each column
    # holds: text as is, booleans and integers as integers, anything else as
    # a float.  A column whose values need two formats is a bug in the table.
    formats = []
    for name, column in zip(header, zip(*values)):
        kinds = {_cell_format(kind) for kind in set(map(type, column))}
        if len(kinds) != 1:
            raise TypeError(f"column {name!r} mixes cell formats {sorted(kinds)}")
        formats.append(kinds.pop())
    return ",".join(formats)


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
        line = _csv_row_format(header, rows)
        return "\n".join([",".join(header), *(line % row for row in rows)]) + "\n"
    import json
    payload = [{name: _json_value(v) for name, v in zip(header, row)} for row in rows]
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
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 2
    except InvariantViolation as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
