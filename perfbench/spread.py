"""Run-to-run spread of the benchmark's metrics, as one table.

Usage:

    python3 perfbench/spread.py RUN.json... [--against RUN.json...]

RUN.json files are those ``perfbench/run.py`` writes to
``.perfbench_out/runs/``.  Runs are grouped by workload and trace setting.
For each metric the table gives its unit, the number of runs, the samples
behind them, the median over runs, and the spread: the distance between the
first and third quartile as ``statistics.quantiles(values, n=4)`` gives
them, as a share of the median.  An end-to-end metric whose spread exceeds
its bound in BENCHMARK.json is marked UNRESOLVED: a change smaller than the
spread cannot be told from noise.  ``steady`` means the spread is within a
third of the bound.  Per-layer metrics have no bound and are not marked.

With ``--against``, each metric's median is also compared with the median
of the other set of runs of the same workload, and a metric that is worse
by more than its bound is marked WORSE.
"""

from __future__ import annotations

import argparse
import json
import statistics
from collections import defaultdict
from pathlib import Path

SPEC = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(paths: list[str]) -> dict:
    """{(workload, trace): {metric: [(value, samples), ...]}}"""
    groups: dict = defaultdict(lambda: defaultdict(list))
    for path in paths:
        record = json.loads(Path(path).read_text(encoding="utf-8"))
        prov = record["provenance"]
        for name, metric in record["metrics"].items():
            groups[(prov["workload"], prov["trace"])][name].append(
                (metric["value"], metric["samples"])
            )
    return groups


def spread(values: list[float]) -> float:
    if len(values) < 2:
        return float("nan")
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / abs(median) if median else float("nan")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("runs", nargs="+")
    parser.add_argument("--against", nargs="+", default=[])
    args = parser.parse_args(argv)

    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    meta = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    groups = load(args.runs)
    others = load(args.against)
    print(f"{'workload':<13} {'metric':<34} {'unit':<6} {'runs':>4} {'samples':>8} "
          f"{'median':>12} {'spread':>7} {'bound':>6}  status")
    for (workload, trace), metrics in sorted(groups.items()):
        for name, pairs in metrics.items():
            values = [v for v, _ in pairs]
            median = statistics.median(values)
            s = spread(values)
            bound = meta[name].get("bound")
            status = ""
            if bound is not None:
                status = "UNRESOLVED" if not s <= bound else ("steady" if s <= bound / 3 else "wide")
            other = others.get((workload, trace), {}).get(name)
            if other and bound is not None:
                base = statistics.median(v for v, _ in other)
                worse = (median - base) / base
                if meta[name]["better"] == "higher":
                    worse = -worse
                status += f"; {worse:+.3f} vs other set" + (" WORSE" if worse > bound else "")
            print(f"{workload:<13} {name:<34} {meta[name]['unit']:<6} {len(values):>4} "
                  f"{sum(n for _, n in pairs):>8} {median:>12.6g} {s:>7.3f} "
                  f"{'' if bound is None else bound:>6}  {status}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
