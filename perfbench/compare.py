"""Compare the benchmark runs of two commits.

Usage::

    python3 perfbench/compare.py BEFORE_DIR AFTER_DIR

Each directory holds the run records ``run.py`` wrote to
``perfbench/out/runs/`` at one commit.  Prints, per workload and metric, the
median and quartiles of each side, and flags every provenance field that
differs between the sides: a different ``_kernels`` backend or thread
setting makes the timings incomparable.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

# Fields whose difference makes two sides' timings incomparable.
MUST_MATCH = ("backend", "CHANDISC_DISABLE_NUMBA", "threads", "nproc", "affinity",
              "python", "numpy", "scipy", "blas")


def load(directory: Path):
    values = defaultdict(list)
    provenance = defaultdict(set)
    for path in sorted(directory.glob("*.json")):
        record = json.loads(path.read_text(encoding="utf-8"))
        for field in MUST_MATCH:
            provenance[field].add(json.dumps(record["provenance"].get(field), sort_keys=True))
        for name, metric in record["result"]["metrics"].items():
            values[(record["workload"], name)].append(metric["value"])
    return values, provenance


def summary(values) -> str:
    if len(values) < 2:
        return f"{values[0]:.6g} (n=1)"
    q1, median, q3 = statistics.quantiles(values, n=4)
    return f"{median:.6g} [{q1:.6g}, {q3:.6g}] (n={len(values)})"


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    (before, prov_before), (after, prov_after) = (load(Path(d)) for d in argv)
    flagged = False
    for field in MUST_MATCH:
        sides = prov_before[field] | prov_after[field]
        if len(sides) > 1:
            flagged = True
            print(f"NOT COMPARABLE: {field} differs: {sorted(sides)}")
    for key in sorted(set(before) | set(after)):
        workload, name = key
        left = summary(before[key]) if before[key] else "-"
        right = summary(after[key]) if after[key] else "-"
        print(f"{workload:12s} {name:48s} {left:>40s}  ->  {right}")
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
