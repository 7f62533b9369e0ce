"""Run workloads over several seeds and report how much each metric spreads.

    python3 bench/sweep.py --seeds 1-10 --out .bench_out/base
    python3 bench/sweep.py --workloads word-problem --seeds 1-5 --trace 1

Each run is ``bench/run.py`` in its own process, one at a time; its last
stdout line is saved as ``<out>/<workload>-trace<t>-seed<n>.json``.  For
every metric the table gives the median and the distance between the first
and third quartiles as a share of the median, next to the metric's bound
from BENCHMARK.json.  Two result directories can then be set side by side
with ``bench/compare.py``.
"""
from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from compare import load_spec, summary  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def seed_list(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out += range(int(lo), int(hi or lo) + 1)
    return out


def main(argv=None) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=ROOT / ".bench_out" / "sweep")
    args = parser.parse_args(argv)
    args.out.mkdir(parents=True, exist_ok=True)
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    ok = True
    for workload in args.workloads.split(","):
        results = []
        for seed in seed_list(args.seeds):
            cmd = spec["command"] + ["--workload", workload, "--seed",
                                     str(seed), "--seconds",
                                     str(args.seconds), "--trace",
                                     str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                                  text=True, timeout=900)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode or not lines:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n"
                      f"{proc.stderr[-2000:]}", file=sys.stderr)
                ok = False
                continue
            result = json.loads(lines[-1])
            (args.out / f"{workload}-trace{args.trace}-seed{seed}.json"
             ).write_text(lines[-1] + "\n")
            ok = ok and result["correct"]
            results.append(result)
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"failed {result['failed']}/{result['attempted']}",
                  flush=True)
        for name, (median, q1, q3) in summary(results).items():
            spread = (q3 - q1) / median if median else 0.0
            bound = bounds.get(name)
            note = "" if bound is None else \
                f"  bound {bound:g}{'  WIDE' if spread > bound / 3 else ''}"
            print(f"  {workload:15s} {name:45s} median {median:<12.6g} "
                  f"spread {spread:.4f}{note}", flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
