"""Write the reference tables the benchmark checks its outputs against.

Run from the root of a checkout, at the commit whose tables are the
reference::

    python3 perfbench/make_reference.py

Writes ``perfbench/reference/<key>.csv`` for every gap of every workload
that has references, skipping tables that already exist.  Each table is the
CLI's own output, produced with the same environment as a benchmark run.
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path
from time import perf_counter

import run


def main() -> int:
    run.REFERENCE.mkdir(exist_ok=True)
    env = run.child_env()
    run.OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.OUT) as tmp:
        workdir = Path(tmp)
        for workload in ("fig3", "binary-qadc", "fig2-orc"):
            for gap in run.GAPS:
                for invs in run.workload_sets(workload, 0, gap=gap):
                    for inv in invs:
                        target = run.REFERENCE / f"{inv.reference}.csv"
                        if target.exists():
                            continue
                        cmd = [sys.executable, "-m", "chandisc.cli", *inv.argv,
                               "--out", str(target)]
                        child = run.run_child(cmd, env, workdir, perf_counter() + 900.0)
                        if child.exit_code != 0:
                            target.unlink(missing_ok=True)
                            print(child.stderr, file=sys.stderr)
                            return 1
                        print(f"{child.wall:7.2f} s  {target.name}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
