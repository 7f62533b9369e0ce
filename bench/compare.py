"""Compare two sets of benchmark results, per workload and per metric.

    python3 bench/compare.py .bench_out/base .bench_out/change

Each directory holds the result lines written by ``bench/sweep.py``
(``<workload>-trace<t>-seed<n>.json``).  For every workload and metric the
table gives each side's median and quartiles, the ratio change/base with
the base value, and a verdict against the metric's bound in BENCHMARK.json:

* ``worse``       the change's median is worse than the base's by more than
                  the bound;
* ``better``      it is better by more than the base's own quartile spread;
* ``within``      neither;
* ``unresolved``  either side's quartile spread is wider than the bound,
                  unless every run of the change beats every run of the base.

Per-layer metrics have no bound and get no verdict.  The share of failed
operations is printed for each side, since a change that fails more
operations is not comparable on speed.
"""
from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q2, q1, q3


def summary(results: list[dict]) -> dict:
    """{metric: (median, q1, q3)} over a list of result objects."""
    values = defaultdict(list)
    for r in results:
        for name, m in r["metrics"].items():
            values[name].append(m["value"])
    return {name: quartiles(v) for name, v in values.items()}


def load_dir(path: Path) -> dict:
    """{(workload, trace): [result, ...]} from a sweep directory."""
    out = defaultdict(list)
    for f in sorted(path.glob("*-trace*-seed*.json")):
        workload, _, rest = f.stem.rpartition("-trace")
        out[(workload, int(rest.split("-")[0]))].append(
            json.loads(f.read_text()))
    return out


def verdict(base: list[float], new: list[float], better: str,
            bound: float) -> str:
    b, bq1, bq3 = quartiles(base)
    n, nq1, nq3 = quartiles(new)
    sign = 1 if better == "lower" else -1
    worse_by = sign * (n - b) / b
    spread = max((bq3 - bq1) / b, (nq3 - nq1) / n)
    if spread > bound:
        all_better = max(new) < min(base) if better == "lower" else \
            min(new) > max(base)
        return "better" if all_better else "unresolved"
    if worse_by > bound:
        return "worse"
    if -worse_by > (bq3 - bq1) / b:
        return "better"
    return "within"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args(argv)
    spec = load_spec()
    meta = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    base, change = load_dir(args.base), load_dir(args.change)
    worse = False
    for key in sorted(set(base) & set(change)):
        workload, trace = key
        print(f"== {workload} (trace {trace}): {len(base[key])} base runs, "
              f"{len(change[key])} change runs")
        for side, runs in (("base", base[key]), ("change", change[key])):
            attempted = sum(r["attempted"] for r in runs)
            failed = sum(r["failed"] for r in runs)
            correct = all(r["correct"] for r in runs)
            print(f"   {side:6s} failed {failed}/{attempted} "
                  f"({failed / attempted:.4%}), correct={correct}")
        names = sorted(set(base[key][0]["metrics"])
                       & set(change[key][0]["metrics"]))
        for name in names:
            bv = [r["metrics"][name]["value"] for r in base[key]]
            nv = [r["metrics"][name]["value"] for r in change[key]]
            b, bq1, bq3 = quartiles(bv)
            n, nq1, nq3 = quartiles(nv)
            m = meta.get(name, {})
            ratio = f"{n / b:8.4f} of {b:.6g}" if b else "    n/a"
            if "bound" in m:
                v = verdict(bv, nv, m["better"], m["bound"])
                worse = worse or v == "worse"
                v = f"{v} (bound {m['bound']:g}, {m['better']} is better)"
            else:
                v = ""
            print(f"   {name:45s} base {b:.6g} [{bq1:.6g}, {bq3:.6g}]  "
                  f"change {n:.6g} [{nq1:.6g}, {nq3:.6g}]  ratio {ratio}  {v}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
