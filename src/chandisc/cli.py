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

:data:`COMMANDS` lists the options each command (each ``--kind`` of
``binary``) reads, with their defaults; any other option exits with code 2.
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
    # no parser defaults: a namespace holds only the options given (see COMMANDS)
    parser = argparse.ArgumentParser(
        prog="chandisc", argument_default=argparse.SUPPRESS,
        description="Error-probability sweeps for channel discrimination and position finding.")
    parser.add_argument("--command", required=True,
                        choices=list(dict.fromkeys(command for command, _ in COMMANDS)))
    parser.add_argument("--m", type=int, help="number of cells")
    parser.add_argument("--u", type=int, help="channel uses per cell")
    parser.add_argument("--d", type=int, help="channel dimension")
    parser.add_argument("--q0", type=float)
    parser.add_argument("--q1", type=float)
    parser.add_argument("--gap", help="comma separated list of probability gaps")
    parser.add_argument("--grid", type=int, help="sweep points per curve")
    parser.add_argument("--M-min", type=int)
    parser.add_argument("--M-max", type=int)
    parser.add_argument("--xi", help="'uniform' or 'value-table:FILE' with 'ports,value' lines")
    parser.add_argument("--format", choices=["csv", "json"])
    parser.add_argument("--out")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--kind", choices=[kind for _, kind in COMMANDS if kind])
    parser.add_argument("--budget", type=float, help="time budget in seconds")
    return parser


def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


def _parse_gaps(text):
    try:
        gaps = tuple(float(g) for g in text.split(","))
    except ValueError as exc:
        raise CliConfigError(f"cannot parse --gap {text!r}: {exc}") from None
    for gap in gaps:
        if not 0.0 < gap < 1.0:
            raise CliConfigError(f"gaps must lie in (0, 1), got {gap}")
    return gaps


def make_config(args):
    """Check ``args`` against the command's entry in :data:`COMMANDS`.

    Returns the options the command reads, defaults filled in, and ``run``
    naming its function.  Raises :class:`CliConfigError` for an option the
    command does not read and for a value out of range.
    """
    given = dict(vars(args))
    command = given.pop("command")
    kinds = [kind for name, kind in COMMANDS if name == command and kind]
    kind = given.pop("kind", None) if kinds else None
    if (command, kind) not in COMMANDS:
        raise CliConfigError(f"--command {command} requires --kind {{{','.join(kinds)}}}")
    run, defaults = COMMANDS[command, kind]
    unread = [_flag(name) for name in given if name not in defaults and name not in COMMON]
    if unread:
        reader = f"--command {command}" + (f" --kind {kind}" if kind else "")
        raise CliConfigError(f"{reader} does not read {', '.join(unread)}")
    for name, low in MINIMUM.items():
        if given.get(name, low) < low:
            raise CliConfigError(f"{_flag(name)} must be >= {low}, got {given[name]}")
    if not given.get("budget", 1.0) > 0.0:
        raise CliConfigError(f"--budget must be > 0, got {given['budget']}")
    if ("q0" in given) != ("q1" in given):
        raise CliConfigError("--q0 and --q1 must be given together")
    if "q0" in given and "gap" in given:
        raise CliConfigError("--gap sweeps q0 = q1 + gap; it cannot be combined with --q0/--q1")
    for name in ("q0", "q1"):
        if name in given:
            check_prob(given[name], _flag(name), CliConfigError)
    xi = given.get("xi", "uniform")
    if xi != "uniform" and not xi.startswith("value-table:"):
        raise CliConfigError(f"--xi must be 'uniform' or 'value-table:FILE', got {xi!r}")
    if "gap" in given:
        given["gap"] = _parse_gaps(given["gap"])
    cfg = argparse.Namespace(run=run, **COMMON, **defaults)
    for name, value in given.items():
        # a swept option given once sweeps that one value
        swept = isinstance(getattr(cfg, name), tuple) and not isinstance(value, tuple)
        setattr(cfg, name, (value,) if swept else value)
    if "M_max" in defaults and cfg.M_max < cfg.M_min:
        raise CliConfigError(f"invalid port range ({cfg.M_min}, {cfg.M_max})")
    return cfg


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
    header = ["u", "gap", "q_t", "q_b", "qdc_cpf_entangled[exact]",
              "qdc_cpf_classical[exact]", "at_q_t_max"]
    ent_scale, cls_scale = qdc_scales(cfg.d)
    rows = []
    for u in cfg.u:
        for gap in cfg.gap:
            q_t = _sweep_axis(gap, cfg.grid)
            q_b = q_t + gap
            entangled = check_exact_prob(h_mu_values(ent_scale * q_b, ent_scale * q_t, cfg.m, u))
            classical = check_exact_prob(h_mu_values(cls_scale * q_b, cls_scale * q_t, cfg.m, u))
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
    if len(cfg.m) != len(cfg.u):  # --m without --u or the other way round
        raise CliConfigError("fig3 needs --m and --u together (or neither)")
    xi = load_xi(cfg)
    header = ["m", "u", "gap", "q_t", "q_b",
              "adaptive_lb_opt[lower]", "adaptive_lb_opt[raw]",
              "adaptive_lb_opt[clamped_flag]", "best_ports",
              "nonadaptive_fidelity_lb[lower]", "nonadaptive_fidelity_lb[raw]",
              "nonadaptive_fidelity_lb[clamped_flag]", "block_pgm[upper]"]
    rows = []
    points = [(m, u, gap, q_t) for m, u in zip(cfg.m, cfg.u) for gap in cfg.gap
              for q_t in _sweep_axis(gap, cfg.grid)]
    for m, u, gap, q_t in points:
        q_b = q_t + gap
        adaptive, opt = qadc_cpf_adaptive_lb_opt(
            q_b, q_t, m, u, xi=xi, ports_range=(cfg.M_min, cfg.M_max))
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


def _binary_blocks(cfg):
    # (gap, q1 array, q0 array) blocks: one explicit (q0, q1) pair or, per
    # gap, a sweep q0 = q1 + gap.
    if cfg.q0 is not None:
        return [(float(cfg.q0 - cfg.q1), np.array([cfg.q1]), np.array([cfg.q0]))]
    axes = [(gap, _sweep_axis(gap, cfg.grid)) for gap in cfg.gap]
    return [(gap, q1, q1 + gap) for gap, q1 in axes]


def run_binary_qec(cfg):
    header = ["gap", "q1", "q0", "u", "qec_ultimate[exact]"]
    rows = []
    for gap, q1, q0 in _binary_blocks(cfg):
        values = check_exact_prob(f_u_values(q0, q1, cfg.u))
        rows.extend((gap, p1, p0, cfg.u, value)
                    for p1, p0, value in zip(q1.tolist(), q0.tolist(), values.tolist()))
    return header, rows


def run_binary_qdc(cfg):
    u, d = cfg.u, cfg.d
    header = ["gap", "q1", "q0", "u", "d", "qdc_entangled[exact]", "qdc_classical[exact]"]
    ent_scale, cls_scale = qdc_scales(d)
    rows = []
    for gap, q1, q0 in _binary_blocks(cfg):
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
    u, xi = cfg.u, load_xi(cfg)
    header = ["gap", "q1", "q0", "u",
              "adaptive_lb_opt[lower]", "adaptive_lb_opt[raw]",
              "adaptive_lb_opt[clamped_flag]", "best_ports",
              "fvg_lower[lower]", "block_helstrom[exact]", "fvg_upper[upper]",
              "block_pgm[upper]", "nulling_q0[upper]", "nulling_q1[upper]",
              "nulling_min[upper]"]
    rows = []
    points = [(gap, q1, q0) for gap, q1s, q0s in _binary_blocks(cfg)
              for q1, q0 in zip(q1s.tolist(), q0s.tolist())]
    for gap, q1, q0 in points:
        adaptive, opt = qadc_adaptive_lb_opt(
            q0, q1, u, xi=xi, ports_range=(cfg.M_min, cfg.M_max))
        fvg_lo, fvg_hi = fvg_sandwich(qadc_choi_fidelity(q0, q1), u)
        exact = qadc_block_helstrom(q0, q1, u)
        pgm = qadc_block_pgm(q0, q1, u)
        null_q0, null_q1 = nulling_error(q0, q1, u)
        null_min = min(null_q0, null_q1)
        achievable = min(fvg_hi, pgm.value, null_min)
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
            null_q0, null_q1, null_min))
    return header, rows


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
    return (header, rows, *failures)


# Each command's interface: the options it reads, each with the value it
# takes when not given, and the name of the function that builds its table
# (looked up when it runs, so a wrapper set on this module is the one
# called).  ``binary`` has one entry per --kind.  A tuple default is a
# sweep; --m and --u of fig3 are swept in pairs.  Every command also reads
# the COMMON options, and make_config refuses any other with exit code 2.
COMMANDS = {
    ("fig2", None): ("run_fig2", {"m": 5, "u": (1, 3), "d": 100,
                                  "gap": (0.5, 0.9, 0.99, 0.999), "grid": 200}),
    ("fig3", None): ("run_fig3", {"m": (2, 4), "u": (4, 2), "gap": (0.04,), "grid": 200,
                                  "M_min": 1, "M_max": 10**6, "xi": "uniform"}),
    ("binary", "qec"): ("run_binary_qec", {"u": 30, "q0": None, "q1": None,
                                           "gap": (0.2, 0.4, 0.6, 0.8), "grid": 200}),
    ("binary", "qdc"): ("run_binary_qdc", {"u": 30, "d": 6, "q0": None, "q1": None,
                                           "gap": (0.2, 0.4, 0.6, 0.8), "grid": 200}),
    ("binary", "qadc"): ("run_binary_qadc", {"u": 8, "q0": None, "q1": None, "gap": (0.04,),
                                             "grid": 200, "M_min": 1, "M_max": 10**6,
                                             "xi": "uniform"}),
    ("crosscheck", None): ("run_crosscheck", {"seed": 7, "budget": 60.0}),
}
COMMON = {"format": "csv", "out": "-"}
# The smallest value each integer option takes.
MINIMUM = {"m": 2, "u": 1, "d": 2, "grid": 2, "M_min": 1, "seed": 0}


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
    if isinstance(value, (int, np.integer, np.bool_)):   # bool is an int
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
        header, rows, *failures = globals()[cfg.run](cfg)
        write_output(render(header, rows, cfg.format), cfg.out)
        for failure in failures:
            print(f"invariant violation: {failure}", file=sys.stderr)
        return 3 if failures else 0
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
