"""End-to-end command line behavior: formats, determinism, exit codes."""

import importlib
import importlib.util
import json
import os
import re
import resource
import subprocess
import sys
import time
import tracemalloc

import numpy as np
import pytest

from chandisc import cli, crosscheck
from chandisc.channels import make_qadc
from chandisc.cpf import argmax_ports
from chandisc.discrimination import hermitize
from chandisc.linalg import BoundReport, ChandiscError
from chandisc.orc import qdc_scales
from chandisc.qadc import XiTable


def run(tmp_path, *argv):
    out = tmp_path / "out.txt"
    code = cli.main(list(argv) + ["--out", str(out)])
    text = out.read_text(encoding="utf-8") if out.exists() else ""
    return code, text


def test_fig2_csv_shape(tmp_path):
    code, text = run(tmp_path, "--command", "fig2", "--grid", "3",
                     "--m", "3", "--u", "1", "--d", "2", "--gap", "0.5")
    assert code == 0
    lines = text.splitlines()
    assert lines[0] == ("u,gap,q_t,q_b,qdc_cpf_entangled[exact],"
                        "qdc_cpf_classical[exact],at_q_t_max")
    assert len(lines) == 1 + 3
    # full-precision scientific floats
    assert re.search(r",\d\.\d{16}e[+-]\d{2},", lines[1])
    assert text.endswith("\n") and "\r" not in text


def test_fig2_large_instance(tmp_path):
    # 2**240 outcome strings and 31**8 weight vectors: beyond any enumeration
    code, text = run(tmp_path, "--command", "fig2", "--m", "8", "--u", "30")
    assert code == 0
    assert len(text.splitlines()) == 1 + 800


def test_fig2_cells_keep_their_bits(tmp_path):
    # 17 significant digits round-trip a float, so equal text is equal bits;
    # these are the cells of the sum over counts taken in index order, which
    # the kernels keep for any batch size
    code, text = run(tmp_path, "--command", "fig2", "--m", "4", "--u", "40",
                     "--gap", "0.04", "--grid", "5")
    assert code == 0
    assert [line.split(",")[4:6] for line in text.splitlines()[1:]] == [
        ["2.5678252780299560e-01", "2.6047164821085156e-01"],
        ["5.8590566063921834e-01", "5.8714060431771520e-01"],
        ["6.0529449925147571e-01", "6.0687357181326818e-01"],
        ["5.8116695584875566e-01", "5.8464971623170192e-01"],
        ["1.4846858787357731e-01", "2.7749001518917693e-01"]]


def test_fig2_json_round_trip(tmp_path):
    code, text = run(tmp_path, "--command", "fig2", "--grid", "3", "--m", "2",
                     "--u", "1", "--d", "2", "--gap", "0.3", "--format", "json")
    assert code == 0
    rows = json.loads(text)
    assert len(rows) == 3
    assert set(rows[0]) == {"u", "gap", "q_t", "q_b", "qdc_cpf_entangled[exact]",
                            "qdc_cpf_classical[exact]", "at_q_t_max"}
    assert isinstance(rows[0]["qdc_cpf_entangled[exact]"], float)
    for row in rows:
        assert row["qdc_cpf_entangled[exact]"] <= row["qdc_cpf_classical[exact]"] + 1e-12


def test_runs_are_byte_identical(tmp_path):
    args = ("--command", "binary", "--kind", "qadc", "--u", "2", "--grid", "3")
    _, first = run(tmp_path, *args)
    _, second = run(tmp_path, *args)
    assert first == second
    _, third = run(tmp_path, "--command", "crosscheck", "--seed", "7")
    _, fourth = run(tmp_path, "--command", "crosscheck", "--seed", "7")
    assert third == fourth


def test_binary_qec_values(tmp_path):
    code, text = run(tmp_path, "--command", "binary", "--kind", "qec",
                     "--u", "1", "--grid", "2", "--q0", "0.2", "--q1", "0.7")
    assert code == 0
    lines = text.splitlines()
    assert lines[0] == "gap,q1,q0,u,qec_ultimate[exact]"
    # explicit pair overrides the sweep: one row, worked value 1/4
    assert len(lines) == 2
    assert float(lines[1].split(",")[-1]) == pytest.approx(0.25, abs=1e-15)


def test_binary_qdc_ordering_columns(tmp_path):
    code, text = run(tmp_path, "--command", "binary", "--kind", "qdc",
                     "--u", "3", "--d", "2", "--grid", "4", "--gap", "0.2")
    assert code == 0
    lines = text.splitlines()
    assert lines[0] == "gap,q1,q0,u,d,qdc_entangled[exact],qdc_classical[exact]"
    for line in lines[1:]:
        cells = line.split(",")
        assert float(cells[-2]) <= float(cells[-1]) + 1e-12


def test_binary_qadc_column_set(tmp_path):
    code, text = run(tmp_path, "--command", "binary", "--kind", "qadc",
                     "--u", "2", "--grid", "3")
    assert code == 0
    header = text.splitlines()[0].split(",")
    assert header == ["gap", "q1", "q0", "u",
                      "adaptive_lb_opt[lower]", "adaptive_lb_opt[raw]",
                      "adaptive_lb_opt[clamped_flag]", "best_ports",
                      "fvg_lower[lower]", "block_helstrom[exact]",
                      "fvg_upper[upper]", "block_pgm[upper]",
                      "nulling_q0[upper]", "nulling_q1[upper]",
                      "nulling_min[upper]"]


def test_fig3_header_and_ordering(tmp_path):
    code, text = run(tmp_path, "--command", "fig3", "--m", "2", "--u", "2",
                     "--grid", "3")
    assert code == 0
    lines = text.splitlines()
    assert lines[0].startswith("m,u,gap,q_t,q_b,adaptive_lb_opt[lower]")
    idx_lb = lines[0].split(",").index("adaptive_lb_opt[lower]")
    idx_na = lines[0].split(",").index("nonadaptive_fidelity_lb[lower]")
    idx_ub = lines[0].split(",").index("block_pgm[upper]")
    for line in lines[1:]:
        cells = [float(c) for c in line.split(",")]
        assert cells[idx_lb] <= cells[idx_na] + 1e-9
        assert cells[idx_na] <= cells[idx_ub] + 1e-7


def test_fig3_sweeps_every_gap(tmp_path):
    code, text = run(tmp_path, "--command", "fig3", "--m", "2", "--u", "1",
                     "--gap", "0.04,0.3", "--grid", "2")
    assert code == 0
    gaps = [float(line.split(",")[2]) for line in text.splitlines()[1:]]
    assert gaps == [0.04, 0.04, 0.3, 0.3]


def test_crosscheck_all_pass(tmp_path):
    code, text = run(tmp_path, "--command", "crosscheck", "--seed", "11")
    assert code == 0
    lines = text.splitlines()
    assert lines[0] == "check,status,max_abs_dev,tolerance,cases"
    assert len(lines) == 1 + len(crosscheck.CROSSCHECKS)
    assert all(line.split(",")[1] == "pass" for line in lines[1:])


# Every check's name, tolerance and case count, in run order.
CROSSCHECK_TABLE = [
    ("counting-vs-helstrom-erasure", 1e-9, 9),
    ("counting-vs-helstrom-depolarizing", 1e-9, 12),
    ("position-error-route-agreement", 1e-12, 21),
    ("position-error-vs-solver", 1e-6, 4),
    ("block-helstrom-vs-dense", 1e-9, 2),
    ("nulling-dist-vs-conjugation", 1e-10, 16),
    ("nulling-vs-string-enumeration", 1e-12, 6),
    ("sandwich-contains-block-error", 1e-9, 3),
    ("symmetric-pure-closed-form-vs-solver", 1e-6, 6),
    ("port-optimizer-vs-brute-force", 1e-12, 1),
    ("pgm-within-double-optimum", 1e-9, 3),
    ("covariance-classification", 0.5, 5),
]


def test_crosscheck_names_tolerances_and_cases_are_pinned(tmp_path):
    code, text = run(tmp_path, "--command", "crosscheck", "--seed", "7", "--budget", "600")
    assert code == 0
    rows = [line.split(",") for line in text.splitlines()[1:]]
    assert [(name, float(tol), int(cases)) for name, _, _, tol, cases in rows] == \
        CROSSCHECK_TABLE


def test_crosscheck_budget_skips_tail(tmp_path):
    code, text = run(tmp_path, "--command", "crosscheck", "--budget", "1e-9")
    assert code == 0  # skipped checks are not failures
    statuses = [line.split(",")[1] for line in text.splitlines()[1:]]
    assert "skipped" in statuses


def test_crosscheck_failure_exits_three(tmp_path, monkeypatch, capsys):
    def broken(_rng):
        yield 1.0
    monkeypatch.setattr(crosscheck, "CROSSCHECKS", [("always-off", 1e-9, broken)])
    code, text = run(tmp_path, "--command", "crosscheck")
    assert code == 3
    assert text.splitlines()[1].split(",")[1] == "fail"
    assert "always-off" in capsys.readouterr().err
    # the failure is reported after the table, which is complete
    code, text = run(tmp_path, "--command", "crosscheck", "--format", "json")
    assert code == 3
    assert [row["status"] for row in json.loads(text)] == ["fail"]


def test_crosscheck_nan_deviation_fails(tmp_path, monkeypatch):
    # max(0.0, nan) is 0.0: a NaN must not read as a perfect agreement
    monkeypatch.setattr(crosscheck, "f_u_values", lambda *args: np.nan)
    monkeypatch.setattr(crosscheck, "CROSSCHECKS", crosscheck.CROSSCHECKS[:2])
    code, text = run(tmp_path, "--command", "crosscheck", "--seed", "7")
    assert code == 3
    rows = [line.split(",") for line in text.splitlines()[1:]]
    assert [(name, status, dev) for name, status, dev, _, _ in rows] == [
        ("counting-vs-helstrom-erasure", "fail", "nan"),
        ("counting-vs-helstrom-depolarizing", "fail", "nan")]


def test_crosscheck_nan_deviation_is_null_in_json(tmp_path, monkeypatch):
    # JSON has no NaN: a strict parser must accept the table of a failing run
    monkeypatch.setattr(crosscheck, "f_u_values", lambda *args: np.nan)
    monkeypatch.setattr(crosscheck, "CROSSCHECKS", crosscheck.CROSSCHECKS[:2])
    code, text = run(tmp_path, "--command", "crosscheck", "--seed", "7", "--format", "json")
    assert code == 3

    def refuse(token):
        raise ValueError(f"bare {token} in JSON output")

    rows = json.loads(text, parse_constant=refuse)
    assert [(row["status"], row["max_abs_dev"]) for row in rows] == [("fail", None)] * 2


@pytest.mark.parametrize("deviations", [[0.0, np.nan], [np.nan, 0.0], [np.array([0.0, np.nan])]])
def test_run_check_keeps_a_nan(deviations):
    worst, cases = crosscheck.run_check(iter, deviations)
    assert np.isnan(worst)
    assert cases == len(deviations)


def test_fig2_invariant_violation_exits_three(tmp_path, monkeypatch, capsys):
    # the entangled call comes first in each block; its second point (q_t =
    # 0.5 on a two-point grid at gap 0.5) exceeds the classical value
    values = iter([np.array([0.1, 0.9]), np.array([0.1, 0.1])])

    def swapped(q_b, q_t, m, u):
        return next(values)
    monkeypatch.setattr(cli, "h_mu_values", swapped)
    code, _ = run(tmp_path, "--command", "fig2", "--grid", "2", "--m", "2",
                  "--u", "1", "--d", "2", "--gap", "0.5")
    assert code == 3
    err = capsys.readouterr().err
    assert "invariant violation" in err
    assert "at u=1, gap=0.5, q_t=0.5\n" in err


@pytest.mark.parametrize("value,code,cell", [
    (-1e-13, 0, "0.0000000000000000e+00"),   # rounding below 0 is clamped
    (1.0 + 1e-13, 0, "1.0000000000000000e+00"),
    (-1e-8, 2, None),                        # beyond the slack: refused
    (np.nan, 2, None),
])
def test_fig2_kernel_values_pass_the_exact_check(tmp_path, monkeypatch, capsys, value, code,
                                                  cell):
    monkeypatch.setattr(cli, "h_mu_values", lambda q_b, q_t, m, u: np.full(q_t.shape, value))
    got, text = run(tmp_path, "--command", "fig2", "--grid", "3", "--m", "2",
                    "--u", "1", "--d", "2", "--gap", "0.5")
    assert got == code
    if cell is None:
        err = capsys.readouterr().err
        assert err.startswith("error: exact probability ") and text == ""
    else:
        assert [line.split(",")[4:6] for line in text.splitlines()[1:]] == [[cell, cell]] * 3


@pytest.mark.parametrize("code", [2, 3])
def test_failed_sweep_keeps_its_earlier_rows(tmp_path, monkeypatch, capsys, code):
    # the second of two (u, gap) blocks fails, with a library error (exit 2)
    # or an entangled value above the classical one (exit 3): the file holds
    # the header and the whole first block, as in the table of a clean run
    argv = ("--command", "fig2", "--grid", "3", "--m", "2", "--u", "1", "--d", "2",
            "--gap", "0.5,0.9")
    _, full = run(tmp_path, *argv)
    (tmp_path / "out.txt").unlink()
    real, calls = cli.h_mu_values, []

    def second_block_fails(q_b, q_t, m, u):
        calls.append(u)
        if len(calls) != 3:   # the third call is the second block's entangled one
            return real(q_b, q_t, m, u)
        if code == 2:
            raise ChandiscError("refused")
        return np.ones(q_t.shape)
    monkeypatch.setattr(cli, "h_mu_values", second_block_fails)
    got, text = run(tmp_path, *argv)
    assert got == code
    assert capsys.readouterr().err.startswith("error: " if code == 2 else "invariant violation: ")
    assert len(full.splitlines()) == 1 + 2 * 3
    assert text == "".join(full.splitlines(keepends=True)[:1 + 3])


def test_memory_is_bounded_by_a_block(tmp_path):
    # fig2 --grid 2000 is 16 000 rows in 8 blocks.  Holding the whole table
    # as row tuples and then as one string peaked at 8.09 MB of traced Python
    # memory (7.73 MB once warm); streaming it peaks at 1.67 MB (1.31 MB
    # warm).  Measured with Python 3.11.7 and numpy 2.4.6.
    tracemalloc.start()
    try:
        code = cli.main(["--command", "fig2", "--grid", "2000", "--out", str(tmp_path / "t.csv")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 3 << 20


def test_writer_holds_one_slice_of_a_block_as_python_objects(tmp_path):
    # Converting whole array columns to lists held every cell of this 200 000-row
    # block as a Python object at once: a traced peak of 23 MB, against 0.8 MB
    # converting one SLICE_ROWS slice at a time (Python 3.11.7, numpy 2.4.6).
    rows = 200_000
    block = {"gap": 0.5, "q": np.linspace(0.0, 1.0, rows), "value": np.linspace(1.0, 2.0, rows),
             "ports": np.arange(rows), "flag": np.zeros(rows, dtype=np.int64)}
    lists = [value.tolist() for value in block.values() if isinstance(value, np.ndarray)]
    whole = sum(sys.getsizeof(column) + sum(map(sys.getsizeof, column)) for column in lists)
    del lists
    tracemalloc.start()
    try:
        cli.write_table(iter([block]), "csv", str(tmp_path / "t.csv"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len((tmp_path / "t.csv").read_text(encoding="utf-8").splitlines()) == 1 + rows
    assert peak < whole / 10


@pytest.mark.parametrize("argv,keys,blocks", [
    (["--command", "fig3", "--gap", "0.04,0.3", "--grid", "3"], ("m", "u", "gap"),
     [(2, 4, 0.04), (2, 4, 0.3), (4, 2, 0.04), (4, 2, 0.3)]),
    (["--command", "binary", "--kind", "qadc", "--u", "2", "--gap", "0.04,0.3,0.5", "--grid", "3"],
     ("gap",), [(0.04,), (0.3,), (0.5,)]),
    (["--command", "binary", "--kind", "qadc", "--q0", "0.3", "--q1", "0.2"], ("gap",),
     [(0.3 - 0.2,)]),
])
def test_damping_commands_yield_one_array_block_per_sweep(argv, keys, blocks):
    # one block per (m, u, gap) of fig3 and per gap of binary --kind qadc (an
    # explicit pair is a block of one point): the swept and computed columns
    # are arrays with one entry per point, the others one value for the block
    cfg = cli.make_config(cli.build_parser().parse_args(argv))
    table = list(getattr(cli, cfg.run)(cfg))
    assert [tuple(block[key] for key in keys) for block in table] == blocks
    points = 1 if "--q0" in argv else cfg.grid
    for block in table:
        arrays = {name for name, value in block.items() if isinstance(value, np.ndarray)}
        assert set(block) - arrays == {"gap", *keys, "u"}
        assert {len(block[name]) for name in arrays} == {points}


def test_binary_qdc_invariant_violation_exits_three(tmp_path, monkeypatch, capsys):
    values = iter([np.array([0.1, 0.3]), np.array([0.2, 0.2])])
    monkeypatch.setattr(cli, "f_u_values", lambda q0, q1, u: next(values))
    code, _ = run(tmp_path, "--command", "binary", "--kind", "qdc", "--grid", "2",
                  "--gap", "0.5")
    assert code == 3
    assert "at q1=0.5, q0=1.0\n" in capsys.readouterr().err


def _put(values, value, at):
    # values with entry ``at`` replaced by value, or one point's value (at None) replaced whole
    if at is None:
        return value
    values = np.array(values, dtype=np.float64)
    values[at] = value
    return values


def _report(value):
    # a sweep function's report with its value replaced at one point
    return lambda report, at: BoundReport(_put(report.value, value, at), report.kind,
                                          report.method, report.params)


# One broken side of each ordering comparison of fig3 and binary --kind qadc:
# the module and function patched, the change to its result at one sweep
# point, and the two columns the message names.
ORDER_BREAKS = {
    "fig3": [
        ("qadc", "qadc_cpf_adaptive_lb_opt", _report(1.0),
         "adaptive_lb_opt[raw]", "nonadaptive_fidelity_lb[raw]"),
        ("qadc", "qadc_cpf_adaptive_lb_opt", _report(np.nan),
         "adaptive_lb_opt[raw]", "nonadaptive_fidelity_lb[raw]"),
        ("cpf", "cpf_nonadaptive_fidelity_lb", _report(np.nan),
         "adaptive_lb_opt[raw]", "nonadaptive_fidelity_lb[raw]"),
        ("qadc", "qadc_cpf_block_pgm", _report(-1.0),
         "nonadaptive_fidelity_lb[raw]", "block_pgm[upper]"),
        ("qadc", "qadc_cpf_block_pgm", _report(np.nan),
         "nonadaptive_fidelity_lb[raw]", "block_pgm[upper]"),
    ],
    "binary qadc": [
        ("qadc", "fvg_sandwich", lambda bounds, at: (_put(bounds[0], 1.0, at), bounds[1]),
         "fvg_lower[lower]", "block_helstrom[exact]"),
        ("qadc", "fvg_sandwich", lambda bounds, at: (_put(bounds[0], np.nan, at), bounds[1]),
         "fvg_lower[lower]", "block_helstrom[exact]"),
        ("qadc", "fvg_sandwich", lambda bounds, at: (bounds[0], _put(bounds[1], -1.0, at)),
         "block_helstrom[exact]", "fvg_upper[upper]"),
        ("qadc", "fvg_sandwich", lambda bounds, at: (bounds[0], _put(bounds[1], np.nan, at)),
         "block_helstrom[exact]", "fvg_upper[upper]"),
        ("qadc", "qadc_block_pgm", _report(-1.0), "block_helstrom[exact]", "block_pgm[upper]"),
        ("qadc", "qadc_block_pgm", _report(np.nan), "block_helstrom[exact]", "block_pgm[upper]"),
        ("qadc", "nulling_error", lambda errors, at: (_put(errors[0], -1.0, at), errors[1]),
         "block_helstrom[exact]", "nulling_min[upper]"),
        ("qadc", "nulling_error",
         lambda errors, at: (_put(errors[0], np.nan, at), _put(errors[1], np.nan, at)),
         "block_helstrom[exact]", "nulling_min[upper]"),
        ("qadc", "qadc_adaptive_lb_opt", _report(1.0),
         "adaptive_lb_opt[raw]", "block_helstrom[exact]"),
        ("qadc", "qadc_adaptive_lb_opt", _report(np.nan),
         "adaptive_lb_opt[raw]", "block_helstrom[exact]"),
    ],
}
# Each command on two blocks of two sweep points, and the text that ends its
# message at the second point of the second block
ORDER_RUNS = {
    "fig3": (("--command", "fig3", "--m", "2", "--u", "2", "--gap", "0.3,0.5", "--grid", "2"),
             "at m=2, u=2, q_t=0.5\n"),
    "binary qadc": (("--command", "binary", "--kind", "qadc", "--u", "2", "--gap", "0.3,0.5",
                     "--grid", "2"), "at q1=0.5, q0=1.0\n"),
}


@pytest.mark.parametrize("command,module,name,change,value,bound", [
    pytest.param(command, *cells, id=f"{command}-{number}")
    for command, breaks in ORDER_BREAKS.items() for number, cells in enumerate(breaks)])
def test_broken_ordering_exits_three(tmp_path, monkeypatch, capsys, command, module, name,
                                     change, value, bound):
    # the table's fourth sweep point, the second of its second block, breaks
    # one comparison, by a value beyond its slack or by NaN on either side:
    # that block is refused whole, and the header and first block stay written
    argv, at = ORDER_RUNS[command]
    _, full = run(tmp_path, *argv)
    (tmp_path / "out.txt").unlink()
    target = importlib.import_module(f"chandisc.{module}")
    real, points = getattr(target, name), []

    def changed(*args, **kwargs):
        # a kernel gets a block's points as an array, qadc_cpf_block_pgm one point per call
        first = len(points)
        points.extend(np.ravel(args[0]).tolist())
        result = real(*args, **kwargs)
        if not first <= 3 < len(points):
            return result
        return change(result, 3 - first if np.ndim(args[0]) else None)
    monkeypatch.setattr(target, name, changed)
    code, text = run(tmp_path, *argv)
    assert code == 3
    assert len(points) == 4
    assert text == "".join(full.splitlines(keepends=True)[:1 + 2])
    err = capsys.readouterr().err
    assert err.startswith(f"invariant violation: {command}: {value} ") and err.endswith(at)
    assert f" exceeds {bound} " in err and err.count("\n") == 1


@pytest.mark.parametrize("values,bounds,first", [
    # one point, named by a column that holds one value for the block
    pytest.param(np.array([0.3]), np.array([np.nan]), None, id="0.3-nan-None"),
    pytest.param(np.array([np.nan]), np.array([0.3]), None, id="nan-0.3-None"),
    (np.array([0.1, 0.2, np.nan]), np.array([0.2, 0.2, 0.2]), 2),
    (np.array([0.1, 0.2, 0.3]), np.array([0.2, np.nan, np.nan]), 1),
])
def test_ordering_check_refuses_nan(monkeypatch, values, bounds, first):
    # NaN compares false with everything, so it must fail the check, not pass it
    monkeypatch.setitem(cli.ORDERS, ("test", None),
                        ([("a", "b", 0.0), ("values", "bounds", 1e-12)], ("point",)))
    point = None if first is None else np.arange(len(values))
    zeros = np.zeros(len(values))
    block = {"a": zeros, "b": zeros, "values": values, "bounds": bounds, "point": point}
    with pytest.raises(cli.InvariantViolation, match=f"at point={first}$"):
        list(cli._check_order(("test", None), iter([block])))
    block = {"a": np.zeros(2), "b": np.zeros(2), "values": np.array([0.2, 0.3]),
             "bounds": np.array([0.2, 0.3 - 1e-13]), "point": np.arange(2)}
    assert list(cli._check_order(("test", None), iter([block]))) == [block]


# Each sweep command's sizes for a quick two-point table
SWEEP_SIZES = {
    ("fig2", None): ["--m", "3", "--u", "1"],
    ("fig3", None): ["--m", "2", "--u", "2"],
    ("binary", "qec"): ["--u", "3"],
    ("binary", "qdc"): ["--u", "3"],
    ("binary", "qadc"): ["--u", "2"],
}


@pytest.mark.parametrize("command,kind", [key for key, (_, options) in cli.COMMANDS.items()
                                          if "grid" in options])
def test_ordered_columns_are_in_the_header(tmp_path, command, kind):
    # every column an ordering names, or that names a failing row, is one the table writes
    code, text = run(tmp_path, "--command", command, *(["--kind", kind] if kind else []),
                     *SWEEP_SIZES[command, kind], "--gap", "0.5", "--grid", "2")
    assert code == 0 and len(text.splitlines()) == 1 + 2
    pairs, where = cli.ORDERS.get((command, kind), ((), ()))
    named = {column for name, bound_name, _ in pairs for column in (name, bound_name)}
    assert named.union(where) <= set(text.splitlines()[0].split(","))
    assert set(cli.ORDERS) <= set(SWEEP_SIZES)


# Options the command does not read, and the refusal naming them
UNREAD = {
    "fig2 --q0 0.5 --q1 0.2 --kind qadc --budget 3 --u 1 --gap 0.5 --grid 2":
        "--command fig2 does not read --q0, --q1, --kind, --budget",
    "fig3 --d 7 --m 2 --u 1 --grid 2": "--command fig3 does not read --d",
    "binary --kind qec --M-max 5 --xi value-table:/nonexistent --u 3 --grid 2":
        "--command binary --kind qec does not read --M-max, --xi",
    "crosscheck --m 3 --grid 5 --budget 0.001": "--command crosscheck does not read --m, --grid",
    "fig2 --seed 3 --M-min 4 --u 1 --gap 0.5 --grid 2":
        "--command fig2 does not read --seed, --M-min",
}


# Counts above 2**53, which check_count refuses
COUNTS_BEYOND_BOUND = [
    "fig2 --u 99999999999999999999",
    "fig2 --u 9223372036854775807 --grid 2",
    "binary --kind qec --u 99999999999999999999 --grid 2",
    "binary --kind qdc --u 99999999999999999999 --grid 2",
    "binary --kind qdc --d 99999999999999999999 --grid 2",
    "fig3 --grid 99999999999999999999",
    "binary --kind qadc --grid 99999999999999999999",
    "binary --kind qec --grid 9223372036854775807",
]


@pytest.mark.parametrize("argv", [
    ("--command", "fig2", "--grid", "1"),
    ("--command", "binary",),                          # --kind missing
    ("--command", "binary", "--kind", "qec", "--q0", "0.2"),  # q1 missing
    ("--command", "fig2", "--q0", "1.5", "--q1", "0.2"),      # unread
    ("--command", "binary", "--kind", "qec", "--q0", "1.5", "--q1", "0.2"),
    ("--command", "fig3", "--M-min", "10", "--M-max", "2"),
    ("--command", "binary", "--kind", "qadc", "--M-min", "10", "--M-max", "2"),
    ("--command", "crosscheck", "--budget", "0"),
    ("--command", "fig2", "--xi", "bogus"),                   # unread
    ("--command", "fig3", "--xi", "bogus"),
    ("--command", "crosscheck", "--budget", "nan"),    # would never run out
    ("--command", "crosscheck", "--seed", "-1"),       # numpy refuses negative seeds
    ("--command", "binary", "--kind", "qec", "--q0", "0.7", "--q1", "0.2", "--gap", "0.3"),
    ("--command", "fig3", "--m", "3", "--grid", "2"),  # --u missing
    *(("--command", *line.split()) for line in UNREAD),
    # counts above 2**53, refused before any table is built
    *(("--command", *line.split()) for line in COUNTS_BEYOND_BOUND),
    # counts of 2**53 whose tables cannot be allocated
    ("--command", "fig2", "--u", str(2**53), "--grid", "2"),
    ("--command", "fig3", "--grid", str(2**53)),
    ("--command", "binary", "--kind", "qec", "--grid", str(2**53)),
])
def test_invalid_configurations_exit_two(tmp_path, capsys, argv):
    code, text = run(tmp_path, *argv)
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    assert "Traceback" not in err and text == ""
    if " ".join(argv[1:]) in UNREAD:
        assert err == f"error: {UNREAD[' '.join(argv[1:])]}\n"


def test_every_option_is_read_by_some_command():
    # no option is parsed for nothing, and every option a command reads is parsed
    flags = {flag for action in cli.build_parser()._actions for flag in action.option_strings}
    read = set(cli.COMMON).union(*(options for _, options in cli.COMMANDS.values()),
                                 cli.MINIMUM)
    assert flags - {"-h", "--help", "--command", "--kind"} == {cli._flag(name) for name in read}
    for run_name, _ in cli.COMMANDS.values():
        assert callable(getattr(cli, run_name))


def test_defaults_come_from_the_command_table():
    cfg = cli.make_config(cli.build_parser().parse_args(["--command", "binary", "--kind", "qdc"]))
    assert vars(cfg) == {"run": "run_binary_qdc", "format": "csv", "out": "-", "u": 30, "d": 6,
                         "q0": None, "q1": None, "gap": (0.2, 0.4, 0.6, 0.8), "grid": 200}
    cfg = cli.make_config(cli.build_parser().parse_args(
        ["--command", "fig3", "--m", "3", "--u", "2", "--gap", "0.1,0.2", "--M-max", "9"]))
    assert (cfg.m, cfg.u, cfg.gap, cfg.M_min, cfg.M_max) == ((3,), (2,), (0.1, 0.2), 1, 9)


def _benchmark_harness():
    # The benchmark harness named in BENCHMARK.json, imported as is, without
    # writing bytecode next to it.
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as handle:
        command = json.load(handle)["command"]
    script = os.path.join(root, next(part for part in command if part.endswith(".py")))
    here = os.path.dirname(script)
    saved = sys.dont_write_bytecode, list(sys.path)
    sys.dont_write_bytecode = True
    sys.path.insert(0, here)
    try:
        spec = importlib.util.spec_from_file_location("_benchmark_harness", script)
        harness = importlib.util.module_from_spec(spec)
        sys.modules[spec.name] = harness
        spec.loader.exec_module(harness)
        return harness
    finally:
        sys.dont_write_bytecode, sys.path[:] = saved
        for name, module in list(sys.modules.items()):  # the harness and its siblings
            if os.path.dirname(getattr(module, "__file__", None) or "") == here:
                del sys.modules[name]


def _benchmark_invocations():
    # Every CLI invocation the benchmark harness builds: all workloads,
    # smoke and full, seeds 0-2.
    harness = _benchmark_harness()
    return sorted({inv.argv for name in harness.WORKLOADS for seed in range(3)
                   for smoke in (False, True)
                   for invocations in harness.workload_sets(name, seed, smoke)
                   for inv in invocations})


def test_benchmark_invocations_are_accepted():
    # a refused option there would turn every benchmark run into failed invocations
    invocations = _benchmark_invocations()
    assert len(invocations) >= 10
    parser = cli.build_parser()
    for argv in invocations:
        cfg = cli.make_config(parser.parse_args(list(argv) + ["--out", "table.csv"]))
        assert callable(getattr(cli, cfg.run))


def test_benchmark_tables_pass_the_harness_check(tmp_path):
    # Every full benchmark invocation with a stored reference table, run
    # in-process, passes the harness's own table check: a run whose tables
    # the harness refuses counts as failed.  The references agree with the
    # tables within the harness's tolerance, not byte for byte.
    harness = _benchmark_harness()
    invocations = {inv for name in harness.WORKLOADS for gap in harness.GAPS
                   for invocations in harness.workload_sets(name, 0, gap=gap)
                   for inv in invocations if inv.reference is not None}
    assert len(invocations) == 29  # fig2's default table, and 4 tables at each of 7 gaps
    for inv in sorted(invocations, key=lambda inv: inv.argv):
        code, text = run(tmp_path, *inv.argv)
        assert code == 0
        assert harness.check_table(inv, text) is None, inv.argv


# The benchmark's two damping invocations at gap 0.040, six sweep points
# each: fig3 in two blocks of three, one per (m, u), binary in one of six.
DAMPING_WORK = [
    ["--command", "fig3", "--gap", "0.040", "--grid", "3"],
    ["--command", "binary", "--kind", "qadc", "--u", "8", "--gap", "0.040", "--grid", "6"],
]
DAMPING_BLOCKS = {"fig3": 2, "binary": 1}


@pytest.mark.parametrize("argv", DAMPING_WORK)
def test_damping_optima_evaluate_at_most_five_ports(tmp_path, monkeypatch, argv):
    # each block takes the port optima of its sweep points from one kernel
    # call, on a row of at most five candidate port counts per point
    from chandisc import qadc
    calls = []
    for name in ("qadc_adaptive_lb_values", "qadc_cpf_adaptive_lb_values"):
        def counted(*args, _kernel=getattr(qadc, name), **kwargs):
            calls.append(np.shape(args[-1]))
            return _kernel(*args, **kwargs)
        monkeypatch.setattr(qadc, name, counted)
    assert run(tmp_path, *argv)[0] == 0
    assert len(calls) == DAMPING_BLOCKS[argv[1]] and sum(rows for rows, _ in calls) == 6
    assert max(width for _, width in calls) <= 5


@pytest.mark.parametrize("argv", DAMPING_WORK)
def test_benchmark_tracer_traces_the_damping_commands(tmp_path, argv):
    # the traced benchmark pass runs both invocations and records their spans
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    spans = tmp_path / "spans.json"
    done = subprocess.run([sys.executable, os.path.join(root, "perfbench", "tracer.py"),
                           str(spans), "0", "--", *argv, "--out", str(tmp_path / "out.csv")],
                          env=_child_env(), capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    record = json.loads(spans.read_text(encoding="utf-8"))
    assert record["exit_code"] == 0
    names = [span[0] for span in record["spans"]]
    assert names.count("qadc.qadc_cpf_adaptive_lb_opt") + names.count(
        "qadc.qadc_adaptive_lb_opt") == DAMPING_BLOCKS[argv[1]]


def test_fig3_many_cells(tmp_path):
    # 8 cells: the dense ensemble would be 4**8-dimensional; the Gram blocks are 256
    code, text = run(tmp_path, "--command", "fig3", "--m", "8", "--u", "1", "--grid", "2")
    assert code == 0
    assert len(text.splitlines()) == 1 + 2


def test_fig3_beyond_the_old_rank_guard(tmp_path):
    # 2**(3*4) = 4096 Gram columns per hypothesis refused the dense route;
    # the weight-class sum has C(7, 3) = 35 classes
    started = time.monotonic()
    code, text = run(tmp_path, "--command", "fig3", "--m", "3", "--u", "4", "--grid", "2")
    assert code == 0
    assert time.monotonic() - started < 10.0
    assert len(text.splitlines()) == 1 + 2


def test_library_size_guard_exits_two(tmp_path, capsys):
    # C(28, 8) = 3108105 weight classes
    started = time.monotonic()
    code, text = run(tmp_path, "--command", "fig3", "--m", "8", "--u", "20", "--grid", "2")
    assert code == 2
    assert time.monotonic() - started < 1.0
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "exceeds guard" in err
    assert len(err.splitlines()) == 1
    assert "Traceback" not in err and text == ""


def _capped():
    # a child's address space capped at 1.5 GiB
    return resource.setrlimit(resource.RLIMIT_AS, (1536 << 20, 1536 << 20))


def test_oversized_grid_exits_two(tmp_path):
    # 3e8 grid points need 2.2 GiB; the child's address space is capped at
    # 1.5 GiB, so numpy's allocation fails before it touches any memory
    done = subprocess.run([sys.executable, "-m", "chandisc.cli", "--command", "fig2",
                           "--grid", "300000000", "--out", str(tmp_path / "out.csv")],
                          env=_child_env(), capture_output=True, text=True, preexec_fn=_capped,
                          timeout=60)
    assert done.returncode == 2
    assert done.stderr.startswith("error: out of memory: ")
    assert len(done.stderr.splitlines()) == 1
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize("line", [
    "binary --kind qadc --u 99999999999999999999 --grid 2",
    "fig2 --u 3 --gap 0.5 --grid 2 --m 9223372036854775808",
    f"binary --kind qadc --u {2**53} --grid 2",
])
def test_huge_counts_exit_two_in_a_capped_child(tmp_path, line):
    # unchecked, each would build 2**u or loop m times for minutes: only a capped child runs them
    done = subprocess.run([sys.executable, "-m", "chandisc.cli", "--command", *line.split(),
                           "--out", str(tmp_path / "out.csv")], env=_child_env(),
                          capture_output=True, text=True, preexec_fn=_capped, timeout=20)
    assert done.returncode == 2
    assert done.stderr.startswith("error: ") and len(done.stderr.splitlines()) == 1
    assert not (tmp_path / "out.csv").exists()


def test_pair_pgm_at_two_to_the_53_uses_fails_fast():
    # the pmf tables come before the rank 2**u, so the call fails at allocation, not in 2**u
    code = ("from chandisc.linalg import ChandiscError\n"
            "from chandisc.qadc import qadc_block_pgm\n"
            "try:\n    qadc_block_pgm(0.3, 0.2, 2**53)\n"
            "except (ChandiscError, MemoryError) as exc:\n    print(type(exc).__name__)\n")
    done = subprocess.run([sys.executable, "-c", code], env=_child_env(), capture_output=True,
                          text=True, preexec_fn=_capped, timeout=20)
    assert done.returncode == 0 and done.stdout in ("ChandiscError\n", "MemoryError\n")


@pytest.mark.parametrize("command", [("fig3", "--m", "2"), ("binary", "--kind", "qadc")])
def test_port_range_up_to_two_to_the_53(tmp_path, command):
    code, text = run(tmp_path, "--command", *command, "--u", "2", "--grid", "2",
                     "--M-max", str(2**53))
    assert code == 0
    assert len(text.splitlines()) == 1 + 2


@pytest.mark.parametrize("ports_max", [2**53 + 1, 10**19])
@pytest.mark.parametrize("command", [("fig3", "--m", "2"), ("binary", "--kind", "qadc")])
def test_port_range_beyond_exact_grid_exits_two(tmp_path, capsys, command, ports_max):
    # port counts above 2**53 have no exact float, so the bound's float
    # exponent could not tell them apart
    code, text = run(tmp_path, "--command", *command, "--u", "2", "--grid", "2",
                     "--M-max", str(ports_max))
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(ports_max) in err
    assert len(err.splitlines()) == 1
    assert "Traceback" not in err and text == ""


def test_binary_qadc_deep_power(tmp_path):
    # 2 * 2**2000 joint-support dimensions, summed over 2001 weight blocks
    started = time.monotonic()
    code, text = run(tmp_path, "--command", "binary", "--kind", "qadc", "--u", "2000",
                     "--grid", "3")
    assert code == 0
    assert time.monotonic() - started < 5.0
    assert len(text.splitlines()) == 1 + 3


# One refused input per module, keyed by the error class that module raised
# before every refusal became a ChandiscError.
LIBRARY_REFUSALS = {
    "LinalgError": (lambda: hermitize(np.array([[0.0, 1.0], [0.0, 0.0]])),
                    "matrix is not Hermitian: drift 5.000e-01 > 1.000e-08"),
    "DiscriminationError": (lambda: BoundReport(0.5, "sideways", "m"),
                            "unknown bound kind 'sideways'"),
    "ChannelError": (lambda: make_qadc(2.0), "q must lie in [0, 1], got 2.0"),
    "OrcError": (lambda: qdc_scales(1), "need an integer d >= 2 and <= 2**53, got 1"),
    "CpfError": (lambda: argmax_ports(None, (5, 2), None),
                 "invalid port range (5, 2): need an integer end >= 5 and <= 2**53, got 2"),
    "QadcError": (lambda: XiTable([2, 1], [1.0, 1.0]),
                  "xi table port counts must increase strictly"),
}


@pytest.mark.parametrize("former", sorted(LIBRARY_REFUSALS))
def test_every_library_error_exits_two(tmp_path, monkeypatch, capsys, former):
    refuse, message = LIBRARY_REFUSALS[former]
    monkeypatch.setattr(cli, "h_mu_values", lambda *args, **kwargs: refuse())
    code, _ = run(tmp_path, "--command", "fig2", "--grid", "2", "--m", "2",
                  "--u", "1", "--d", "2", "--gap", "0.5")
    assert code == 2
    assert capsys.readouterr().err == f"error: {message}\n"


RENDER_HEADER = ["check", "status", "max_abs_dev", "tolerance", "cases", "flag"]
RENDER_ROWS = [
    ("alpha", "pass", 1.0 / 3.0, 1e-12, 3, True),
    ("beta", "fail", np.float64(-2.5e-300), np.float64(1e-9), np.int64(-12), np.bool_(False)),
    ("gamma", "skipped", 0.0, 0.0, 0, np.bool_(True)),   # crosscheck's skipped row
]


# the rows above as one-row blocks, and a block of no rows
RENDER_BLOCKS = [dict(zip(RENDER_HEADER, row)) for row in RENDER_ROWS]
RENDER_EMPTY = [dict.fromkeys(RENDER_HEADER, np.empty(0))]


def _table(blocks, fmt, capsys):
    # the text the writer sends to stdout for these blocks
    cli.write_table(blocks, fmt, "-")
    return capsys.readouterr().out


def _columns(rows):
    # the rows as one block of array columns
    return {name: np.array(column) for name, column in zip(RENDER_HEADER, zip(*rows))}


def test_render_csv_golden(capsys):
    assert _table(RENDER_BLOCKS, "csv", capsys) == (
        "check,status,max_abs_dev,tolerance,cases,flag\n"
        "alpha,pass,3.3333333333333331e-01,9.9999999999999998e-13,3,1\n"
        "beta,fail,-2.5000000000000000e-300,1.0000000000000001e-09,-12,0\n"
        "gamma,skipped,0.0000000000000000e+00,0.0000000000000000e+00,0,1\n")
    assert _table(RENDER_EMPTY, "csv", capsys) == ",".join(RENDER_HEADER) + "\n"
    # one format per column: a column holding both integers and floats is refused
    mixed = [{"x": 1}, {"x": 1.0}]
    with pytest.raises(TypeError, match="'x' mixes"):
        _table(mixed, "csv", capsys)


def test_render_json_golden(capsys):
    assert _table(RENDER_BLOCKS, "json", capsys) == (
        '[\n  {\n    "check": "alpha",\n    "status": "pass",\n'
        '    "max_abs_dev": 0.3333333333333333,\n    "tolerance": 1e-12,\n'
        '    "cases": 3,\n    "flag": 1\n  },\n'
        '  {\n    "check": "beta",\n    "status": "fail",\n'
        '    "max_abs_dev": -2.5e-300,\n    "tolerance": 1e-09,\n'
        '    "cases": -12,\n    "flag": 0\n  },\n'
        '  {\n    "check": "gamma",\n    "status": "skipped",\n'
        '    "max_abs_dev": 0.0,\n    "tolerance": 0.0,\n'
        '    "cases": 0,\n    "flag": 1\n  }\n]\n')
    assert _table(RENDER_EMPTY, "json", capsys) == "[]\n"


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_render_slices_join_to_one_table(monkeypatch, capsys, fmt):
    rows = [*RENDER_ROWS, ("delta", "pass", 2.0, 0.5, 7, True), ("eps", "fail", 1e300, 0.0, 1, 0)]
    block = _columns(rows)
    whole = _table([block], fmt, capsys)
    # one-row blocks of scalars give the text of one block of array columns
    assert _table([dict(zip(RENDER_HEADER, row)) for row in rows], fmt, capsys) == whole
    monkeypatch.setattr(cli, "SLICE_ROWS", 2)
    assert _table([block], fmt, capsys) == whole
    # blocks split across and within slices give the same text
    cli.write_table([{name: column[start:stop] for name, column in block.items()}
                     for start, stop in ((0, 1), (1, 1), (1, None))], fmt, "-")
    assert capsys.readouterr().out == whole
    # a column whose format changes in a later block is refused as within one
    with pytest.raises(TypeError, match="'x' mixes"):
        _table([{"x": np.arange(1, 5)}, {"x": 5.0}], "csv", capsys)


@pytest.mark.parametrize("later,error", [
    ({"x": np.arange(2.0), "z": 1}, TypeError),            # another name
    ({"y": 1, "x": np.arange(2.0)}, TypeError),            # the names in another order
    ({"x": np.arange(2.0), "y": 1.0}, TypeError),          # another format
    ({"x": np.arange(2), "y": 1}, TypeError),              # another dtype's format
    ({"x": np.arange(2.0), "y": np.arange(3)}, ValueError),  # arrays of unequal length
])
def test_blocks_unlike_the_first_are_refused(capsys, later, error):
    # a later block is refused whole: the rows before it stay written, none of its own
    first = {"x": np.arange(2.0), "y": 1}
    text = _table([first], "csv", capsys)
    with pytest.raises(error):
        _table([first, later], "csv", capsys)
    assert capsys.readouterr().out == text
    # in the first block too, arrays of unequal length are refused, not truncated
    with pytest.raises(ValueError, match="unequal lengths"):
        _table([{"x": np.arange(2.0), "y": np.arange(3)}], "csv", capsys)


def test_unknown_command_is_argparse_error(tmp_path):
    with pytest.raises(SystemExit) as info:
        run(tmp_path, "--command", "fig9")
    assert info.value.code == 2


def test_removed_tol_flag_is_argparse_error(tmp_path):
    # --tol, --qB and --qT were parsed and never read; they are gone, not
    # silently accepted
    for flag, value in (("--tol", "1e-8"), ("--qB", "0.5"), ("--qT", "0.5")):
        with pytest.raises(SystemExit) as info:
            run(tmp_path, "--command", "fig2", flag, value)
        assert info.value.code == 2


def test_xi_table_step_function(tmp_path):
    table = tmp_path / "xi.csv"
    table.write_text("# knots\n8, 0.5\n1,2.0\n64, 0.125\n", encoding="utf-8")
    cfg = cli.make_config(cli.build_parser().parse_args(
        ["--command", "binary", "--kind", "qadc", "--xi", f"value-table:{table}"]))
    xi_of = cli.load_xi(cfg)
    assert xi_of(1) == 2.0
    assert xi_of(7) == 2.0    # below next knot, previous value holds
    assert xi_of(8) == 0.5
    assert xi_of(63) == 0.5
    assert xi_of(10**6) == 0.125
    ports = np.array([1, 2, 7, 8, 9, 63, 64, 65, 10**6, 2**53])
    assert xi_of(ports).tolist() == [xi_of(int(p)) for p in ports]


def test_xi_table_validation(tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text("# nothing\n", encoding="utf-8")
    base = ["--command", "binary", "--kind", "qadc"]
    cfg = cli.make_config(cli.build_parser().parse_args(
        base + ["--xi", f"value-table:{empty}"]))
    with pytest.raises(ChandiscError, match="^xi table needs at least one knot and one value "
                       f"per port count: '{re.escape(str(empty))}'$"):
        cli.load_xi(cfg)
    dupes = tmp_path / "dupes.csv"
    dupes.write_text("4,1.0\n4,2.0\n", encoding="utf-8")
    cfg = cli.make_config(cli.build_parser().parse_args(
        base + ["--xi", f"value-table:{dupes}"]))
    with pytest.raises(ChandiscError, match="^xi table port counts must increase strictly: "
                       f"'{re.escape(str(dupes))}'$"):
        cli.load_xi(cfg)


@pytest.mark.parametrize("knots", ["0,2.0\n8,1.0\n", f"1,2.0\n{2**70},1.0\n",
                                   f"1,2.0\n{2**53 + 1},1.0\n"])
def test_xi_table_knots_out_of_range_exit_two(tmp_path, capsys, knots):
    # a knot below one port was kept, 2**70 escaped XiTable as an OverflowError,
    # and 2**53 + 1 was kept, beyond the counts with an exact float
    table = tmp_path / "xi.csv"
    table.write_text(knots, encoding="utf-8")
    code, text = run(tmp_path, "--command", "binary", "--kind", "qadc", "--u", "2", "--grid", "3",
                     "--xi", f"value-table:{table}")
    assert code == 2 and text == ""
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(table) in err and err.count("\n") == 1


@pytest.mark.parametrize("command", [
    ["--command", "fig3", "--m", "2", "--u", "1"],
    ["--command", "binary", "--kind", "qadc", "--u", "2"],
])
@pytest.mark.parametrize("knots", ["1,nan\n", "1,2.0\n8,inf\n"])
def test_non_finite_xi_table_exits_two(tmp_path, capsys, command, knots):
    # a NaN or infinite prefactor used to reach the port optimizer, where NaN
    # bounds raised "min() arg is an empty sequence" with a traceback
    table = tmp_path / "xi.csv"
    table.write_text(knots, encoding="utf-8")
    code, _ = run(tmp_path, *command, "--grid", "3", "--xi", f"value-table:{table}")
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: xi table has non-finite values") and err.count("\n") == 1
    assert "Traceback" not in err


def test_xi_table_changes_qadc_sweep(tmp_path):
    table = tmp_path / "xi.csv"
    table.write_text("1,0.001\n", encoding="utf-8")  # near-perfect simulation
    args = ("--command", "binary", "--kind", "qadc", "--u", "2", "--grid", "3")
    code, plain = run(tmp_path, *args)
    assert code == 0
    code, tabled = run(tmp_path, *args, "--xi", f"value-table:{table}")
    assert code == 0
    idx = plain.splitlines()[0].split(",").index("adaptive_lb_opt[raw]")
    for before, after in zip(plain.splitlines()[1:], tabled.splitlines()[1:]):
        assert float(after.split(",")[idx]) >= float(before.split(",")[idx]) - 1e-12


def test_stdout_output_default(capsys):
    code = cli.main(["--command", "fig2", "--grid", "2", "--m", "2",
                     "--u", "1", "--d", "2", "--gap", "0.5"])
    assert code == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("u,gap,q_t,q_b,")


def test_unwritable_output_exits_two(tmp_path):
    code = cli.main(["--command", "fig2", "--grid", "2", "--m", "2", "--u", "1",
                     "--d", "2", "--gap", "0.5",
                     "--out", str(tmp_path / "missing_dir" / "out.csv")])
    assert code == 2


def test_closed_stdout_exits_two():
    # the reader stops after one line; block-buffered stdout then fails on a
    # later write, which is reported once, without a traceback or a message
    # from the interpreter's final flush
    env = _child_env()
    env.pop("PYTHONUNBUFFERED", None)
    with subprocess.Popen([sys.executable, "-m", "chandisc.cli", "--command", "fig2",
                           "--grid", "2000"], env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True) as child:
        assert child.stdout.readline().startswith("u,gap,q_t,q_b,")
        child.stdout.close()
        err = child.stderr.read()
        assert child.wait(timeout=60) == 2
    assert err == "error: cannot write '-': [Errno 32] Broken pipe\n"


def _modules_after(tmp_path, argv=None):
    """The ``sys.modules`` names of a fresh process after ``import chandisc.cli``
    and, when ``argv`` is given, one CLI run with it."""
    script = "import sys\nfrom chandisc import cli\n"
    if argv is not None:
        script += f"assert cli.main({argv + ['--out', str(tmp_path / 'out.csv')]!r}) == 0\n"
    script += "print(' '.join(sorted(sys.modules)))\n"
    done = subprocess.run([sys.executable, "-c", script], env=_child_env(), capture_output=True,
                          text=True, check=True)
    return set(done.stdout.split())


def _child_env():
    # this environment with the checkout's src/ first on PYTHONPATH
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))


@pytest.mark.parametrize("argv", [
    ["--command", "fig3", "--grid", "2"],
    ["--command", "binary", "--kind", "qadc", "--u", "2", "--grid", "2"],
    ["--command", "fig2", "--grid", "2"],
    ["--command", "binary", "--kind", "qec", "--grid", "2"],
    ["--command", "binary", "--kind", "qdc", "--grid", "2"],
])
def test_cli_never_imports_numpy_ma(tmp_path, argv):
    # numpy.ma costs about 20 ms to import and nothing in the package needs
    # it; under numpy 2.4 np.unique, np.union1d and np.setdiff1d import it
    # (np.isin does not)
    assert "numpy.ma" not in _modules_after(tmp_path, argv)


DAMPING_MODULES = {"chandisc.qadc", "chandisc.cpf"}
DENSE_MODULES = {"chandisc.discrimination", "chandisc.channels", "chandisc.crosscheck"}


@pytest.mark.parametrize("argv,absent", [
    (None, DAMPING_MODULES | DENSE_MODULES),
    (["--command", "fig2", "--grid", "2"], DAMPING_MODULES | DENSE_MODULES),
    (["--command", "binary", "--kind", "qec", "--grid", "2"], DAMPING_MODULES | DENSE_MODULES),
    (["--command", "binary", "--kind", "qdc", "--grid", "2"], DAMPING_MODULES | DENSE_MODULES),
    (["--command", "fig3", "--m", "2", "--u", "1", "--grid", "2"], DENSE_MODULES),
    (["--command", "binary", "--kind", "qadc", "--u", "2", "--grid", "2"], DENSE_MODULES),
])
def test_commands_import_only_their_modules(tmp_path, argv, absent):
    # a process compiles and runs only the modules its command uses: the
    # sweeps never build a dense state, and none of them builds a dataclass
    loaded = _modules_after(tmp_path, argv)
    assert "chandisc.cli" in loaded and "chandisc.linalg" in loaded
    assert not loaded & absent
    assert "dataclasses" not in loaded


def test_numpy_alone_does_not_import_dataclasses():
    # otherwise the dataclasses check above would hold for no command
    done = subprocess.run([sys.executable, "-c", "import sys, numpy; "
                           "print('dataclasses' in sys.modules)"],
                          capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "False"
