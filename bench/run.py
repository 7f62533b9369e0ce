"""Run one workload of the gbraids benchmark and print its metrics.

    python3 bench/run.py --workload hurwitz-census --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  The run measures set-up (import, groups, relation table) several
times, then repeats whole rounds of the workload's jobs until ``--seconds``
have passed, then checks every answer against the oracles in
``oracles.py``.  The last line of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
one untraced round is followed by traced rounds, and the metrics are the
per-layer ones derived from the spans (see ``spans.py``).
"""
from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from spans import MODULES, Tracer  # noqa: E402

SETUP_REPEATS = 3

# per-layer metrics: name -> unit; "calls" and "self_s" come from spans
PER_LAYER = {
    "groups.product.calls": "count",
    "groups.product.self_s": "s",
    "hurwitz.color_condition.calls": "count",
    "hurwitz.color_condition.self_s": "s",
    "hurwitz.hurwitz_generator.calls": "count",
    "hurwitz.hurwitz_generator.self_s": "s",
    "hurwitz.component_objects.calls": "count",
    "hurwitz.component_objects.self_s": "s",
    "hurwitz.component_objects.yield": "ratio",
    "hurwitz.orbit.self_s": "s",
    "hurwitz.braid_act.calls": "count",
    "hurwitz.braid_act.self_s": "s",
    "hurwitz.DecoratedTuple.constructed": "count",
    "braids.garside_normal_form.calls": "count",
    "braids.garside_normal_form.self_s": "s",
    "braids.normal_form.calls": "count",
    "braids.normal_form.distinct_ratio": "ratio",
    "braids.braids_equal.calls": "count",
    "braids.braids_equal.self_s": "s",
    "braids.Permutation.constructed": "count",
    "braids.nf_ms.n4_l50": "ms",
    "braids.nf_ms.n4_l200": "ms",
    "braids.nf_ms.n6_l100": "ms",
    "braids.nf_ms.n6_l200": "ms",
    "trees.parse_tree.calls": "count",
    "trees.parse_tree.self_s": "s",
    "trees.normalize.calls": "count",
    "trees.normalize.self_s": "s",
    "trees.output_color.self_s": "s",
    "trees.compose_normal.calls": "count",
    "trees.compose_normal.self_s": "s",
    "relations.check_relation.calls": "count",
    "relations.check_relation.self_s": "s",
    "relations.interpret_morphism.self_s": "s",
    "relations.apply_generator.calls": "count",
    "relations.apply_generator.self_s": "s",
    "operad.check_operad_axioms.self_s": "s",
    "operad.sigma_action.calls": "count",
    "operad.sigma_action.self_s": "s",
    "groupoid.grothendieck.self_s": "s",
    "groupoid.hurwitz_direct_presentation.self_s": "s",
    "groupoid.compare_presentations.self_s": "s",
    "algebra.coherence_equations.self_s": "s",
    "algebra.equations": "count",
    "algebra.solve_coherence.self_s": "s",
    "algebra.check_coherence.self_s": "s",
    "cli.main.self_s": "s",
    "cli.render.self_s": "s",
    "trace.overhead_ratio": "ratio",
}


def load_program(workload) -> tuple[float, SimpleNamespace]:
    """Import the package afresh, build the workload's groups and load the
    relation table; return the seconds this took and the modules."""
    for name in [m for m in sys.modules
                 if m == "gbraids" or m.startswith("gbraids.")]:
        del sys.modules[name]
    gc.collect()  # free the previous import and its caches first
    start = time.perf_counter()
    for short in workload.imports:
        importlib.import_module(f"gbraids.{short}")
    mods = {short: sys.modules[f"gbraids.{short}"] for short in MODULES
            if f"gbraids.{short}" in sys.modules}
    for spec in workload.groups:
        mods["groups"].make_group(spec)
    if workload.load_table:
        mods["relations"].load_relation_table()
    seconds = time.perf_counter() - start
    return seconds, SimpleNamespace(**mods)


class Runner:
    """Runs rounds of a workload's jobs and keeps the first round's outputs.

    Every round starts from a fresh import of the package, set up
    ``SETUP_REPEATS`` times; the set-up times are kept, and so no round
    inherits caches that an earlier round filled."""

    def __init__(self, workload, tracer: Tracer | None = None):
        self.workload = workload
        self.tracer = tracer
        self.program = None
        self.setups: list[float] = []
        self.attempted = 0
        self.failures = 0
        self.failed: dict[str, str] = {}
        self.outputs: dict = {}
        self.problems: list[str] = []
        self.round_seconds: list[float] = []
        self.job_seconds: dict[str, list[float]] = {}
        self.peak_mib = 0.0

    def set_up(self):
        for _ in range(SETUP_REPEATS):
            self.program = self.workload.ctx["program"] = None
            seconds, self.program = load_program(self.workload)
            self.setups.append(seconds)
        self.workload.ctx["program"] = self.program
        return self.program

    def round(self) -> float:
        program = self.set_up()
        if self.tracer:
            self.tracer.install({short: getattr(program, short)
                                 for short in MODULES
                                 if hasattr(program, short)})
        try:
            return self._jobs(program)
        finally:
            if self.tracer:
                self.tracer.uninstall()

    def _jobs(self, program) -> float:
        total = 0.0
        first = not self.round_seconds
        for job in self.workload.jobs:
            self.attempted += 1
            try:
                if job.prepare:
                    job.prepare(program, self.workload.ctx)
                start = time.perf_counter()
                try:
                    output = job.call(program)
                finally:
                    seconds = time.perf_counter() - start
                    total += seconds
                    self.job_seconds.setdefault(job.name, []).append(seconds)
                if job.record:
                    job.record(output, self.workload.ctx)
            except (Exception, SystemExit) as exc:
                self.failures += 1
                self.failed[job.name] = type(exc).__name__
                continue
            if first:
                self.outputs[job.name] = output
            elif self.outputs.get(job.name) != output:
                self.problems.append(f"{job.name}: output changed between "
                                     "rounds")
        if first:
            # read here so that the figure does not depend on how many
            # rounds fit in the run
            self.peak_mib = resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024
        self.round_seconds.append(total)
        return total

    def rounds_for(self, seconds: float) -> None:
        """Whole rounds until ``seconds`` have passed; at least one."""
        start = time.perf_counter()
        while True:
            self.round()
            if time.perf_counter() - start >= seconds:
                return

    def wall_seconds(self, skip: int = 0) -> float:
        """The job list's time: each job's median over the rounds after the
        first ``skip``, summed, so one slow round moves it little."""
        return sum(statistics.median(times[skip:])
                   for times in self.job_seconds.values() if times[skip:])

    def verify(self) -> list[str]:
        problems = list(self.problems)
        for job in self.workload.jobs:
            if job.name in self.outputs:
                problems += [f"{job.name}: {p}"
                             for p in job.check(self.outputs[job.name])]
        problems += self.workload.cross(self.outputs)
        try:
            problems += self.workload.teeth(self.outputs)
        except KeyError as exc:
            # the job that would carry the planted error failed, and is
            # already counted as failed
            print(f"no output to plant an error in: {exc}", file=sys.stderr)
        return problems

    def units_per_round(self) -> int:
        return sum(job.units(self.outputs[job.name])
                   for job in self.workload.jobs if job.name in self.outputs)


def curve_ms(program, seed: int) -> dict:
    """Median milliseconds of one normal_form call per curve shape."""
    times: dict[str, list[float]] = {}
    for key, n, letters in workloads.curve_words(seed):
        word = program.braids.BraidWord(n, letters)
        start = time.perf_counter()
        program.braids.normal_form(word)
        times.setdefault(key, []).append(
            (time.perf_counter() - start) * 1000)
    return {f"braids.nf_ms.{k}": statistics.median(v)
            for k, v in times.items()}


def layer_metrics(tracer: Tracer, rounds: int) -> dict:
    """Counts and self times per round (every traced round does the same
    work), and the ratios."""
    totals = tracer.totals()
    c = tracer.counters
    out = {}
    for name in PER_LAYER:
        base, _, kind = name.rpartition(".")
        if kind == "calls":
            out[name] = totals.get(base, (0, 0.0))[0] / rounds
        elif kind == "self_s":
            out[name] = totals.get(base, (0, 0.0))[1] / rounds
        elif kind == "constructed":
            out[name] = c.get(name, 0) / rounds
    candidates = c.get("hurwitz.component_objects.candidates", 0)
    out["hurwitz.component_objects.yield"] = (
        c.get("hurwitz.component_objects.returned", 0) / candidates
        if candidates else 0.0)
    nf_calls = out["braids.normal_form.calls"]
    out["braids.normal_form.distinct_ratio"] = (
        len(tracer.distinct_words) / nf_calls if nf_calls else 0.0)
    out["algebra.equations"] = c.get("algebra.equations", 0) / rounds
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "gbraids" / "__init__.py").is_file():
        print(f"no gbraids sources under {src}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, str(src))  # ahead of any installed copy

    workload = workloads.WORKLOADS[args.workload](args.seed, ROOT)
    runner = Runner(workload)
    if args.trace:
        untraced = runner.round()
        values = curve_ms(runner.program, args.seed)
        runner.tracer = tracer = Tracer()
        runner.rounds_for(args.seconds)
        traced = runner.wall_seconds(skip=1)
        values.update(layer_metrics(tracer, len(runner.round_seconds) - 1))
        values["trace.overhead_ratio"] = traced / untraced
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        tracer.write(out_dir / f"spans-{args.workload}-{args.seed}.tsv")
        metrics = {k: {"value": values[k], "unit": unit}
                   for k, unit in PER_LAYER.items()}
    else:
        runner.rounds_for(args.seconds)
        wall = runner.wall_seconds()
        metrics = {
            "setup_s": {"value": statistics.median(runner.setups),
                        "unit": "s"},
            "wall_s": {"value": wall, "unit": "s"},
            "instances_per_s": {"value": runner.units_per_round() / wall,
                                "unit": "instances/s"},
            "peak_rss_mib": {"value": runner.peak_mib, "unit": "MiB"},
        }

    problems = runner.verify()
    for name, times in runner.job_seconds.items():
        print(f"{statistics.median(times):8.3f}s  {name}", file=sys.stderr)
    for name, error in sorted(runner.failed.items()):
        print(f"failed: {name}: {error}", file=sys.stderr)
    for p in problems:
        print(f"wrong: {p}", file=sys.stderr)
    rounds = len(runner.round_seconds)
    print(f"{args.workload} seed {args.seed}: {rounds} rounds of "
          f"{len(workload.jobs)} jobs, "
          + ", ".join(f"{s:.3f}s" for s in runner.round_seconds))
    print(json.dumps({"correct": not problems,
                      "attempted": runner.attempted,
                      "failed": runner.failures,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
