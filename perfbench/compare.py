"""Summarise or compare sets of benchmark results.

    python3 perfbench/compare.py RESULTS_DIR               # medians and spreads
    python3 perfbench/compare.py BEFORE_DIR AFTER_DIR      # AFTER against BEFORE

A results directory holds the ``<workload>-seed<n>-trace<t>.json`` files
that run.py writes to ``.perfbench_out/results/``; copy that directory
away after each set of runs. For every workload and metric the summary
gives the run count, the median, the quartiles and the spread (quartile
distance over median). With two directories it adds the change of the
median in the metric's "worse" direction and a verdict against the
bound in BENCHMARK.json:

  ok          worse by no more than the bound
  WORSE       worse by more than the bound
  unresolved  either side's spread exceeds the bound
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

SPEC = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(directory: str) -> dict[tuple[str, int], dict[str, list[float]]]:
    runs: dict[tuple[str, int], dict[str, list[float]]] = defaultdict(lambda: defaultdict(list))
    for path in sorted(Path(directory).glob("*-trace[01].json")):
        record = json.loads(path.read_text(encoding="utf-8"))
        key = (record["workload"], 1 if path.stem.endswith("trace1") else 0)
        for name, metric in record["result"]["metrics"].items():
            runs[key][name].append(metric["value"])
    return runs


def summary(values: list[float]) -> tuple[float, float, float, float]:
    median = statistics.median(values)
    if len(values) < 2:
        return median, median, median, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median if median else float("inf")


def main(argv: list[str]) -> int:
    if not 1 <= len(argv) <= 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    sets = [load(d) for d in argv]
    for key in sorted(set().union(*sets)):
        workload, trace = key
        print(f"\n{workload} ({'traced' if trace else 'untraced'})")
        for name in sorted(set().union(*(s.get(key, {}) for s in sets))):
            bound = bounds.get(name, {}).get("bound")
            line = f"  {name:34s}"
            stats = []
            for s in sets:
                values = s.get(key, {}).get(name, [])
                if not values:
                    line += f" {'-':>40s}"
                    stats.append(None)
                    continue
                median, q1, q3, spread = summary(values)
                stats.append((median, spread))
                line += f" n={len(values):<3d} med={median:<11.5g} iqr/med={spread:<7.3f}"
            if bound is not None:
                line += f" bound={bound}"
            if len(sets) == 2 and None not in stats and bound is not None:
                (before, s0), (after, s1) = stats
                lower = bounds[name]["better"] == "lower"
                worse = ((after - before) if lower else (before - after)) / before
                verdict = ("unresolved" if max(s0, s1) > bound
                           else "WORSE" if worse > bound else "ok")
                line += f" worse_by={worse:+.3f} {verdict}"
            print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
