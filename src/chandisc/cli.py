"""Command line interface producing the package's standard sweep tables.

Four commands, selected with ``--command``:

* ``fig2``: ultimate position-finding error for depolarizing cells, exact
  entangled and classical curves over a damping-gap sweep.
* ``fig3``: amplitude damping position finding, optimized adaptive lower
  bound against the fidelity lower bound and a measurement upper bound of
  Choi-probe block strategies.
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
JSON writes a non-finite float as ``null``.  Identical configurations give
byte-identical output (``crosscheck`` only at a fixed BLAS thread count).
Each command yields its table as blocks of named columns (a sweep, with
one array per swept column, or a crosscheck); each block is checked against
the table's orderings in :data:`ORDERS` and written to ``--out`` as it is
computed, so memory is bounded by a block, not by the table.
Exit codes: 0 on success, 2 for invalid configurations (including inputs a
library size guard refuses, tables too large for the memory at hand, and
an output that cannot be written, such as a closed pipe), 3 when a result
table violates one of its internal ordering invariants.  On exit 2 or 3 the
output holds the blocks before the failing one; no file is created when
the first block fails.
"""

from __future__ import annotations

import argparse
import itertools
import os
import sys
import time

import numpy as np

from .linalg import ChandiscError, check_count, check_exact_prob, check_prob
from .orc import f_u_values, h_mu_values, qdc_scales

FLOAT_FORMAT = "%.16e"


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
        raise ChandiscError(f"cannot parse --gap {text!r}: {exc}") from None
    for gap in gaps:
        if not 0.0 < gap < 1.0:
            raise ChandiscError(f"gaps must lie in (0, 1), got {gap}")
    return gaps


def make_config(args):
    """Check ``args`` against the command's entry in :data:`COMMANDS`.

    Returns the options the command reads, defaults filled in, and ``run``
    naming its function.  Raises :class:`~chandisc.linalg.ChandiscError`
    for an option the command does not read and for a value out of range.
    """
    given = dict(vars(args))
    command = given.pop("command")
    kinds = [kind for name, kind in COMMANDS if name == command and kind]
    kind = given.pop("kind", None) if kinds else None
    if (command, kind) not in COMMANDS:
        raise ChandiscError(f"--command {command} requires --kind {{{','.join(kinds)}}}")
    run, defaults = COMMANDS[command, kind]
    unread = [_flag(name) for name in given if name not in defaults and name not in COMMON]
    if unread:
        reader = f"--command {command}" + (f" --kind {kind}" if kind else "")
        raise ChandiscError(f"{reader} does not read {', '.join(unread)}")
    for name, low in MINIMUM.items():
        if name in given:
            check_count(given[name], _flag(name), low)
    if given.get("seed", 0) < 0:  # a seed is no count: numpy takes any size
        raise ChandiscError(f"--seed must be >= 0, got {given['seed']}")
    if not given.get("budget", 1.0) > 0.0:
        raise ChandiscError(f"--budget must be > 0, got {given['budget']}")
    if ("q0" in given) != ("q1" in given):
        raise ChandiscError("--q0 and --q1 must be given together")
    if "q0" in given and "gap" in given:
        raise ChandiscError("--gap sweeps q0 = q1 + gap; it cannot be combined with --q0/--q1")
    for name in ("q0", "q1"):
        if name in given:
            check_prob(given[name], _flag(name))
    xi = given.get("xi", "uniform")
    if xi != "uniform" and not xi.startswith("value-table:"):
        raise ChandiscError(f"--xi must be 'uniform' or 'value-table:FILE', got {xi!r}")
    if "gap" in given:
        given["gap"] = _parse_gaps(given["gap"])
    cfg = argparse.Namespace(run=run, **COMMON, **defaults)
    for name, value in given.items():
        # a swept option given once sweeps that one value
        swept = isinstance(getattr(cfg, name), tuple) and not isinstance(value, tuple)
        setattr(cfg, name, (value,) if swept else value)
    return cfg


def load_xi(cfg):
    """Resolve --xi into 'None' (uniform default) or an :class:`XiTable` step function."""
    if cfg.xi == "uniform":
        return None
    from .qadc import XiTable
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
        raise ChandiscError(f"cannot read xi table {path!r}: {exc}") from None
    entries.sort()
    try:
        return XiTable([p for p, _ in entries], [v for _, v in entries])
    except ChandiscError as exc:
        raise ChandiscError(f"{exc}: {path!r}") from None


# -- sweep construction --------------------------------------------------------

def _sweep_axis(gap: float, grid: int) -> np.ndarray:
    return np.linspace(0.0, 1.0 - gap, grid)


def run_fig2(cfg):
    """Yield one block of array columns per (u, gap)."""
    ent_scale, cls_scale = qdc_scales(cfg.d)
    for u in cfg.u:
        for gap in cfg.gap:
            q_t = _sweep_axis(gap, cfg.grid)
            q_b = q_t + gap
            yield {"u": u, "gap": gap, "q_t": q_t, "q_b": q_b,
                   "qdc_cpf_entangled[exact]": check_exact_prob(
                       h_mu_values(ent_scale * q_b, ent_scale * q_t, cfg.m, u)),
                   "qdc_cpf_classical[exact]": check_exact_prob(
                       h_mu_values(cls_scale * q_b, cls_scale * q_t, cfg.m, u)),
                   "at_q_t_max": np.arange(cfg.grid) == cfg.grid - 1}


def run_fig3(cfg):
    """Yield one block of array columns per (m, u, gap)."""
    from .cpf import cpf_nonadaptive_fidelity_lb
    from .qadc import qadc_choi_fidelity, qadc_cpf_adaptive_lb_opt, qadc_cpf_block_pgm
    if len(cfg.m) != len(cfg.u):  # --m without --u or the other way round
        raise ChandiscError("fig3 needs --m and --u together (or neither)")
    xi = load_xi(cfg)
    for m, u in zip(cfg.m, cfg.u):
        for gap in cfg.gap:
            q_t = _sweep_axis(gap, cfg.grid)
            q_b = q_t + gap
            adaptive = qadc_cpf_adaptive_lb_opt(
                q_b, q_t, m, u, xi=xi, ports_range=(cfg.M_min, cfg.M_max))
            yield {"m": m, "u": u, "gap": gap, "q_t": q_t, "q_b": q_b,
                   **adaptive.columns("adaptive_lb_opt"), "best_ports": adaptive.params["ports"],
                   **cpf_nonadaptive_fidelity_lb(qadc_choi_fidelity(q_b, q_t), m, u).columns(
                       "nonadaptive_fidelity_lb"),
                   "block_pgm[upper]": np.array([qadc_cpf_block_pgm(b, t, m, u).value
                                                 for b, t in zip(q_b.tolist(), q_t.tolist())])}


def _binary_blocks(cfg):
    # (gap, q1 array, q0 array) blocks: one explicit (q0, q1) pair or, per
    # gap, a sweep q0 = q1 + gap.
    if cfg.q0 is not None:
        return [(float(cfg.q0 - cfg.q1), np.array([cfg.q1]), np.array([cfg.q0]))]
    axes = [(gap, _sweep_axis(gap, cfg.grid)) for gap in cfg.gap]
    return [(gap, q1, q1 + gap) for gap, q1 in axes]


def run_binary_qec(cfg):
    """Yield one block of array columns per gap."""
    for gap, q1, q0 in _binary_blocks(cfg):
        yield {"gap": gap, "q1": q1, "q0": q0, "u": cfg.u,
               "qec_ultimate[exact]": check_exact_prob(f_u_values(q0, q1, cfg.u))}


def run_binary_qdc(cfg):
    """Yield one block of array columns per gap."""
    u, d = cfg.u, cfg.d
    ent_scale, cls_scale = qdc_scales(d)
    for gap, q1, q0 in _binary_blocks(cfg):
        yield {"gap": gap, "q1": q1, "q0": q0, "u": u, "d": d,
               "qdc_entangled[exact]": check_exact_prob(
                   f_u_values(ent_scale * q0, ent_scale * q1, u)),
               "qdc_classical[exact]": check_exact_prob(
                   f_u_values(cls_scale * q0, cls_scale * q1, u))}


def run_binary_qadc(cfg):
    """Yield one block of array columns per gap."""
    from .qadc import (fvg_sandwich, nulling_error, qadc_adaptive_lb_opt, qadc_block_helstrom,
                       qadc_block_pgm, qadc_choi_fidelity)
    u, xi = cfg.u, load_xi(cfg)
    for gap, q1, q0 in _binary_blocks(cfg):
        adaptive = qadc_adaptive_lb_opt(q0, q1, u, xi=xi, ports_range=(cfg.M_min, cfg.M_max))
        fvg_lo, fvg_hi = fvg_sandwich(qadc_choi_fidelity(q0, q1), u)
        null_q0, null_q1 = nulling_error(q0, q1, u)
        yield {"gap": gap, "q1": q1, "q0": q0, "u": u,
               **adaptive.columns("adaptive_lb_opt"), "best_ports": adaptive.params["ports"],
               "fvg_lower[lower]": fvg_lo,
               "block_helstrom[exact]": qadc_block_helstrom(q0, q1, u).value,
               "fvg_upper[upper]": fvg_hi, "block_pgm[upper]": qadc_block_pgm(q0, q1, u).value,
               "nulling_q0[upper]": null_q0, "nulling_q1[upper]": null_q1,
               "nulling_min[upper]": np.minimum(null_q0, null_q1)}


def run_crosscheck(cfg):
    """Yield one block per check; return the failed checks."""
    from .crosscheck import CROSSCHECKS, run_check
    failures = []
    started = time.monotonic()
    for name, tol, check in CROSSCHECKS:
        if time.monotonic() - started > cfg.budget:
            status, dev, tol, cases = "skipped", 0.0, 0.0, 0
        else:
            dev, cases = run_check(check, np.random.default_rng(cfg.seed))
            status = "pass" if dev <= tol else "fail"
        if status == "fail":
            failures.append(f"{name} (deviation {dev:.3e} > tolerance {tol:.3e})")
        yield {"check": name, "status": status, "max_abs_dev": dev, "tolerance": tol,
               "cases": cases}
    return failures


# Each command's interface: the options it reads, each with the value it
# takes when not given, and the name of the generator that yields its
# table as blocks of named columns (looked up when it runs, so a wrapper
# set on this module is the one called), each checked against ORDERS
# before it is written.  A generator may return failures found in its
# complete table; they exit with code 3 after the table is written.
# ``binary`` has one entry per --kind.  A tuple default is a sweep; --m and
# --u of fig3 are swept in pairs.  Every command also reads the COMMON
# options, and make_config refuses any other with exit code 2.
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
# Each table's orderings, keyed as COMMANDS: the (column, bound column,
# slack) pairs, where each value is at most its row's bound plus the slack,
# and the columns that name a failing row in the exit-3 message.
ORDERS = {
    ("fig2", None): ([("qdc_cpf_entangled[exact]", "qdc_cpf_classical[exact]", 1e-12)],
                     ("u", "gap", "q_t")),
    ("fig3", None): ([("adaptive_lb_opt[raw]", "nonadaptive_fidelity_lb[raw]", 1e-9),
                      ("nonadaptive_fidelity_lb[raw]", "block_pgm[upper]", 1e-7)],
                     ("m", "u", "q_t")),
    ("binary", "qdc"): ([("qdc_entangled[exact]", "qdc_classical[exact]", 1e-12)], ("q1", "q0")),
    ("binary", "qadc"): ([("fvg_lower[lower]", "block_helstrom[exact]", 1e-7),
                          ("block_helstrom[exact]", "fvg_upper[upper]", 1e-7),
                          ("block_helstrom[exact]", "block_pgm[upper]", 1e-7),
                          ("block_helstrom[exact]", "nulling_min[upper]", 1e-7),
                          ("adaptive_lb_opt[raw]", "block_helstrom[exact]", 1e-9)],
                         ("q1", "q0")),
}
# The smallest value each count option takes; every count is at most 2**53.
MINIMUM = {"m": 2, "u": 1, "d": 2, "grid": 2, "M_min": 1}


def _check_order(command, blocks):
    """Yield each block once it keeps ``ORDERS[command]``; return what ``blocks`` returns.

    Raises :class:`InvariantViolation` at a value above its bound plus slack, or at NaN.
    """
    pairs, where = ORDERS.get(command, ((), ()))
    while True:
        try:
            block = next(blocks)
        except StopIteration as done:
            return done.value
        for name, bound, slack in pairs:
            values, bounds = block[name], block[bound]
            # max() is NaN at a NaN and is the reduction check_exact_prob runs:
            # a first all() in a fig2 process raised its peak RSS by 0.1 MB
            excess = values - (bounds + slack)
            if excess.max() <= 0.0:
                continue
            i = int(np.argmax(~(excess <= 0.0)))
            at = ", ".join(f"{c}={block[c][i] if np.ndim(block[c]) else block[c]}" for c in where)
            raise InvariantViolation(f"{' '.join(filter(None, command))}: {name} {values[i]} "
                                     f"exceeds {bound} {bounds[i]} by more than {slack} at {at}")
        yield block


# -- output ---------------------------------------------------------------------

def _cell_format(value) -> str:
    # A column's %-format, from the type of its value (an array's dtype):
    # text as is, booleans and integers as integers, anything else as a float.
    kind = value.dtype.type if isinstance(value, np.ndarray) else type(value)
    if issubclass(kind, str):
        return "%s"
    if issubclass(kind, (int, np.integer, np.bool_)):   # bool is an int
        return "%d"
    return FLOAT_FORMAT


# by a column's cell format; JSON has no NaN or infinity, so those are null
_JSON_VALUE = {"%s": str, "%d": int, FLOAT_FORMAT: lambda x: float(x) if np.isfinite(x) else None}


# The most rows the writer holds at once, as tuples and as text.
SLICE_ROWS = 1024


def _slices(blocks, header, formats):
    # Each block's rows, SLICE_ROWS at a time, once its names and cell formats
    # are the header's (TypeError if not); an array column gives one cell per
    # row, a scalar repeats.
    for block in blocks:
        if list(block) != header:
            raise TypeError(f"block columns {list(block)} differ from the header {header}")
        values = block.values()
        for name, value, fmt in zip(header, values, formats):
            if (kind := _cell_format(value)) != fmt:
                raise TypeError(f"column {name!r} mixes cell formats {sorted({fmt, kind})}")
        lengths = {len(value) for value in values if isinstance(value, np.ndarray)}
        if len(lengths) > 1:  # refused whole, before any of its rows is written
            raise ValueError(f"block columns have unequal lengths {sorted(lengths)}")
        rows = lengths.pop() if lengths else 1  # a block of scalars is one row
        for start in range(0, rows, SLICE_ROWS):  # one slice's cells as Python objects at a time
            end = min(start + SLICE_ROWS, rows)
            yield list(zip(*(value[start:end].tolist() if isinstance(value, np.ndarray)
                             else itertools.repeat(value, end - start) for value in values)))


def _table_text(blocks, fmt: str):
    # The table's text, piece by piece: the first piece (the header and the
    # first slice) once the first block is ready, then one piece per slice.
    # The pieces join to the text of the whole table formatted at once.
    blocks = iter(blocks)
    first_block = next(blocks, {})
    header, formats = list(first_block), [_cell_format(value) for value in first_block.values()]
    slices = _slices(itertools.chain([first_block], blocks), header, formats)
    first = next(slices, [])
    if fmt == "csv":
        line = ",".join(formats) + "\n"
        head, joint, tail = ",".join(header) + "\n", "", ""

        def text(rows):
            return "".join(map(line.__mod__, rows))
    else:
        import json
        # json's C encoder, which runs only without ``indent``: each row keeps
        # the layout of json.dumps(table, indent=2) through its separators
        encode = json.JSONEncoder(separators=(",\n    ", ": ")).encode
        columns = [(name, _JSON_VALUE[kind]) for name, kind in zip(header, formats)]
        head, joint, tail = ("[\n", ",\n", "\n]\n") if first else ("[]\n", "", "")

        def text(rows):
            return ",\n".join("  {\n    " + encode({name: value(cell) for (name, value), cell
                                                 in zip(columns, row)})[1:-1] + "\n  }"
                              for row in rows)
    yield head + text(first)
    for rows in slices:
        yield joint + text(rows)
    yield tail


def write_table(blocks, fmt: str, out: str):
    """Write the table to ``out`` ('-' for stdout) as its blocks arrive.

    ``blocks`` yields dicts from column name to a value, or to an array
    with one entry per row; the first block's names and value types give
    the header and the cell formats of every block.  ``out`` is opened once
    the first block is ready, and each block is written :data:`SLICE_ROWS`
    rows at a time, so memory is bounded by one block and one slice.  When
    a block raises, the rows before it stay written; no file is created
    when the first block raises.
    """
    pieces = _table_text(blocks, fmt)
    first = next(pieces)
    try:
        handle = sys.stdout if out == "-" else open(out, "w", encoding="utf-8", newline="")
        try:
            handle.write(first)
            for piece in pieces:
                handle.write(piece)
        finally:
            if handle is sys.stdout:
                handle.flush()
            else:
                handle.close()
    except OSError as exc:
        if out == "-":
            # the reader went away: send what stdout still buffers to the
            # null device, so the interpreter's final flush is quiet
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        raise ChandiscError(f"cannot write {out!r}: {exc}") from None


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = make_config(args)
        table = globals()[cfg.run](cfg)
        failures = []

        def blocks():
            # the table's checked blocks, keeping the failures its generator returns
            failures.extend((yield from _check_order(
                (args.command, getattr(args, "kind", None)), table)) or ())
        write_table(blocks(), cfg.format, cfg.out)
        for failure in failures:
            print(f"invariant violation: {failure}", file=sys.stderr)
        return 3 if failures else 0
    except ChandiscError as exc:
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
