"""Tests of the benchmark itself, at tiny sizes.

Run from the root of a checkout::

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402


@pytest.fixture
def workdir():
    """A scratch directory inside the checkout, where the benchmark keeps its files."""
    run.OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.OUT) as path:
        yield Path(path)


def test_self_time_subtracts_covered_child_time():
    spans = [
        ["a", 0.0, 10.0, -1, 0, False],
        ["b", 1.0, 4.0, 0, 0, False],
        ["c", 2.0, 3.0, 1, 0, False],
        ["b", 5.0, 6.0, 0, 0, True],
        ["a", 7.0, 9.0, 0, 0, False],
    ]
    times = run.span_times(spans)
    assert [t[0] for t in times] == pytest.approx([4.0, 2.0, 1.0, 1.0, 2.0])
    assert [t[1] for t in times] == [True, True, True, True, False]
    values = run.layer_values([{"spans": spans, "counts": {"orc._profile_counts": 4},
                                "attrs": {"x_max": 3}, "main_s": 10.0}], 2.0, 1.0)
    # The nested "a" is inside the outer one, so it adds nothing to a.s.
    assert values["a.s"] == pytest.approx(10.0)
    assert values["a.self_s"] == pytest.approx(6.0)
    assert values["b.raised"] == 1
    assert values["trace.coverage"] == pytest.approx(1.0)
    assert values["trace.overhead_ratio"] == pytest.approx(2.0)
    assert values["orc.profile_cache_hit_ratio"] == pytest.approx(1.0)


def test_covered_time_merges_overlaps_and_clips():
    assert run.covered_time([(0, 2), (1, 3), (5, 6)]) == pytest.approx(4.0)
    assert run.covered_time([(0, 2), (1, 3)], lo=1.5, hi=2.5) == pytest.approx(1.0)
    assert run.covered_time([]) == 0.0


def test_workloads_are_seeded_and_every_gap_has_references():
    for name in run.WORKLOADS:
        assert run.workload_sets(name, 11) == run.workload_sets(name, 11)
    for gap in run.GAPS:
        for name in ("fig3", "binary-qadc", "fig2-orc"):
            for invs in run.workload_sets(name, 0, gap=gap):
                for inv in invs:
                    assert (run.REFERENCE / f"{inv.reference}.csv").is_file()


def test_reference_check_uses_the_tolerance():
    inv = run.workload_sets("fig2-orc", 0, gap="0.045")[0][1]
    text = (run.REFERENCE / f"{inv.reference}.csv").read_text(encoding="utf-8")
    lines = text.splitlines()
    cells = lines[1].split(",")
    assert run.check_table(inv, text) is None

    def with_cell(index, value):
        changed = cells.copy()
        changed[index] = value
        return "\n".join([lines[0], ",".join(changed), *lines[2:]]) + "\n"

    assert run.check_table(inv, with_cell(4, repr(float(cells[4]) + 1e-12))) is None
    assert run.check_table(inv, with_cell(4, repr(float(cells[4]) + 1e-6))) is not None
    assert run.check_table(inv, with_cell(0, "7")) is not None
    assert run.check_table(inv, "\n".join(lines[:-1]) + "\n") is not None


@pytest.mark.parametrize("workload", run.WORKLOADS)
@pytest.mark.parametrize("trace", [False, True])
def test_smoke_run(workload, trace):
    result, prov = run.run(workload, seed=3, seconds=0, trace=trace, smoke=True)
    assert result.attempted >= 1
    assert prov["chandisc_file"].startswith(str(run.SRC))
    if workload != "crosscheck":
        # The smoke crosscheck's tiny budget skips checks, which counts as failing.
        assert result.correct and result.failed == 0
    names = [m[0] for m in (run.PER_LAYER if trace else run.END_TO_END)]
    assert list(result.metrics) == names
    line = json.loads(result.line())
    assert set(line) == {"correct", "attempted", "failed", "metrics"}


def test_failed_invocations_are_counted_not_raised():
    crash = run.Invocation(("--command", "fig2", "--m", "8", "--u", "30"), rows=1)
    short = run.Invocation(("--command", "fig2", "--m", "3", "--u", "1", "--gap", "0.5",
                            "--grid", "2"), rows=99)
    good = run.Invocation(("--command", "fig2", "--m", "3", "--u", "1", "--gap", "0.5",
                           "--grid", "2"), rows=2)
    result, _ = run.run("fig2-orc", seed=0, seconds=0, trace=False, sets=[[crash, good]])
    assert (result.correct, result.attempted, result.failed) == (True, 2, 1)
    assert result.outcomes[0].failure.startswith("exit code")
    result, _ = run.run("fig2-orc", seed=0, seconds=0, trace=True, sets=[[short]])
    assert (result.correct, result.failed) == (False, 2)
    assert result.metrics["fail_ratio"]["value"] == 1.0


def test_every_per_layer_metric_is_produced(workdir):
    solver = run.Invocation(("--command", "crosscheck", "--seed", "1", "--budget", "600"),
                            rows=run.CROSSCHECK_ROWS)
    log_weights = run.Invocation(("--command", "fig2", "--m", "2", "--u", "51", "--gap", "0.5",
                                  "--grid", "2"), rows=2)
    sets = [invs for name in ("fig3", "binary-qadc", "fig2-orc")
            for invs in run.workload_sets(name, 3, smoke=True)] + [[solver, log_weights]]
    outcomes = [o for result in run.run_pass(sets, run.child_env(), workdir,
                                             perf_counter() + 120.0, traced=True)
                for o in result]
    assert all(o.failure is None for o in outcomes)
    values = run.layer_values([o.spans for o in outcomes], 1.0, 1.0)
    # No CLI command reaches linalg.fidelity at this commit; fail_ratio is per run.
    missing = [name for name, *_ in run.PER_LAYER if name not in values]
    assert missing == ["linalg.fidelity.self_s", "fail_ratio"]
    assert values["linalg.builds_per_row"] > 0
    assert values["discrimination.helstrom_iterative.calls"] > 0


def test_benchmark_json_matches_the_metric_tables():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        m[:3] for m in run.PER_LAYER]
    assert {w["name"] for w in spec["workloads"]} <= set(run.WORKLOADS)


def test_refuses_a_directory_without_the_source_tree(workdir):
    shutil.copy(run.ROOT / "BENCHMARK.json", workdir)
    shutil.copytree(run.HERE, workdir / run.HERE.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "fig3",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=workdir, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
