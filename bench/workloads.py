"""The four workloads: inputs made from the seed, the jobs that run them,
and the checks that judge each answer.

A job is one operation a user would run.  CLI jobs pass the argv a user
would type to ``gbraids.cli.main`` and keep (exit code, stdout); the word
problem calls ``gbraids.braids`` directly.  Only ``call`` is timed.
``prepare`` runs before the timer starts (it writes the data files that
``coherence --data`` reads); ``check`` and the workload's cross-checks run
after every round has finished.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

import oracles


@dataclass
class Job:
    name: str
    call: Callable  # (program) -> output; the timed part
    check: Callable  # (output) -> problems
    units: Callable  # (output) -> units of work in one run of the job
    prepare: Optional[Callable] = None  # (program, ctx), untimed
    record: Optional[Callable] = None  # (output, ctx), untimed


@dataclass
class Workload:
    imports: tuple[str, ...]
    groups: tuple[str, ...]
    load_table: bool
    jobs: list[Job]
    cross: Callable = lambda outputs: []  # {job name: output} -> problems
    teeth: Callable = lambda outputs: []  # {job name: output} -> problems
    ctx: dict = field(default_factory=dict)


# -- CLI jobs ------------------------------------------------------------


def run_cli(program, argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = program.cli.main(list(argv))
    return code, buf.getvalue()


def results_of(output) -> dict:
    return json.loads(output[1])["results"]


def cli_job(argv: str, expect_code: int, verify, units, **hooks) -> Job:
    args = tuple(argv.split()) + ("--jobs", "1")

    def check(output):
        code, text = output
        try:
            results = json.loads(text)["results"]
        except (ValueError, KeyError) as exc:
            return [f"unreadable output: {exc}"]
        problems = [] if code == expect_code else \
            [f"exit {code}, {expect_code} expected"]
        return problems + verify(results)

    return Job(argv, lambda program: run_cli(program, args), check,
               lambda output: units(results_of(output)), **hooks)


def mutated(output, change) -> tuple:
    """The same CLI output with its results edited by ``change``."""
    doc = json.loads(output[1])
    change(doc["results"])
    return output[0], json.dumps(doc)


# -- hurwitz-census ------------------------------------------------------


def _structure(info) -> tuple:
    """(points, orbits) of each boundary component, in sorted order."""
    return tuple(sorted((e["points"], len(e["orbits"]))
                        for e in info["census"].values()))


def _colorings(rng, spec, r, structures) -> dict:
    """One coloring with no identity color for each wanted structure.  The
    structure sets the work (how many components, and how many orbits the
    partition has to separate), so every seed gets the same amount."""
    order = len(oracles.group_table(spec)[0])
    found = {}
    for want in structures:
        while True:
            colors = tuple(rng.randrange(1, order) for _ in range(r))
            info = oracles.colored_census(spec, colors)
            if colors not in found and _structure(info) == want:
                found[colors] = info
                break
    return found


# (points, orbits) per component: the commonest structure of each group's
# colorings and one whose components split into many more orbits
S3_STRUCTURES = (((10368, 2), (10368, 2), (10368, 2)),
                 ((10368, 2), (10368, 2), (10368, 8)))
D4_STRUCTURES = (((1536, 8), (1536, 8)), ((1536, 40), (1536, 40)))


def hurwitz_census(seed: int, root: Path) -> Workload:
    rng = random.Random(f"hurwitz-census-{seed}")
    jobs, families = [], []
    colorings = [("S3", 4, _colorings(rng, "S3", 4, S3_STRUCTURES)),
                 ("D4", 3, _colorings(rng, "D4", 3, D4_STRUCTURES))]
    for spec, r, found in colorings:
        order = len(oracles.group_table(spec)[0])
        for colors, info in found.items():
            text = ",".join(map(str, colors))
            names = []
            for output in sorted(info["census"]):
                want = info["census"][output]
                argv = f"orbits --group {spec} --signature {text}->{output}"
                jobs.append(cli_job(
                    argv, 0,
                    lambda res, want=want: oracles.check_orbit_report(
                        res, want["orbits"], want["points"]),
                    lambda res: res["points"]))
                names.append(argv)
            families.append((names, math.factorial(r) * order ** r))
    for spec, r in (("S3", 4), ("D4", 4)):
        info = oracles.bare_census(spec, r)
        jobs.append(cli_job(
            f"orbits --group {spec} --strands {r}", 0,
            lambda res, info=info: oracles.check_orbit_report(
                res, info["orbits"], info["points"]),
            lambda res: res["points"]))
    bare = oracles.bare_census("S3", 4)
    jobs.append(cli_job(
        f"orbits --group S3 --strands 4 --sample 6 "
        f"--seed {rng.randrange(10**6)}", 0,
        lambda res: oracles.check_bare_samples(res, bare),
        lambda res: sum(s["orbit_size"] for s in res["samples"])))
    colors, info = next(iter(colorings[1][2].items()))
    output = rng.choice(sorted(info["census"]))
    jobs.append(cli_job(
        f"orbits --group D4 --signature {','.join(map(str, colors))}->{output}"
        f" --sample 4 --seed {rng.randrange(10**6)}", 0,
        lambda res: oracles.check_colored_samples(
            res, info, colors, output, info["census"][output]["points"]),
        lambda res: sum(s["orbit_size"] for s in res["samples"])))
    for spec, order, r in (("S3", 6, 1), ("S3", 6, 2), ("S3", 6, 3),
                           ("C2", 2, 4)):
        jobs.append(cli_job(
            f"grothendieck --group {spec} --strands {r}", 0,
            lambda res, order=order, r=r: oracles.check_groupoid_report(
                res, order, r),
            lambda res: res["compositions"]))

    def cross(outputs):
        # the components of one coloring, over all outputs, cover
        # r!|G|^r points exactly once
        problems = []
        for names, total in families:
            got = sum(results_of(outputs[n])["points"] for n in names
                      if n in outputs)
            if got != total:
                problems.append(f"components cover {got} points, {total} "
                                f"expected, for {names[0]}")
        return problems

    by_name = {job.name: job for job in jobs}

    def teeth(outputs):
        planted = []
        name = families[0][0][0]

        def off_by_one(res):
            res["orbit_count"] += 1
        planted.append((name, mutated(outputs[name], off_by_one)))
        name = "grothendieck --group S3 --strands 2"

        def drop_composition(res):
            res["compositions"] -= 1
        planted.append((name, mutated(outputs[name], drop_composition)))
        return [f"planted error passed the check of {n}"
                for n, out in planted if not by_name[n].check(out)]

    return Workload(imports=("cli",), groups=("S3", "D4", "C2"),
                    load_table=True, jobs=jobs, cross=cross, teeth=teeth)


# -- relation-check ------------------------------------------------------


def relation_check(seed: int, root: Path) -> Workload:
    rng = random.Random(f"relation-check-{seed}")
    table = oracles.load_table(root)
    jobs = []

    def checked(res):
        return sum(r["assignments_checked"] for r in res["relations"])

    for spec, order in (("C3", 3), ("S3", 6), ("D4", 8), ("C2xC2xC2", 8)):
        jobs.append(cli_job(
            f"check --group {spec}", 0,
            lambda res, order=order: oracles.check_relation_reports(
                res["relations"], table, order, mutant=False)
            + ([] if res["complete"] else ["incomplete"]),
            checked))
    for spec, order in (("C2", 2), ("C3", 3)):
        jobs.append(cli_job(
            f"check --group {spec} --mutate braiding", 1,
            lambda res, order=order: oracles.check_relation_reports(
                res["relations"], table, order, mutant=True),
            checked))

    def equations(program, spec):
        group = program.groups.make_group(spec)
        order = group.order
        index = oracles.variable_index(order)
        return oracles.gf2_rows(program.algebra.coherence_equations(group),
                                index), len(index)

    ctx = {}

    def check_c2(res):
        rows, nvars = ctx["c2_equations"]
        return oracles.check_solutions(res, rows, nvars, listed_all=True)

    def record_c2(output, _ctx):
        ctx["c2_vectors"] = results_of(output)["vectors"]
        if "c2_equations" not in ctx:
            ctx["c2_equations"] = equations(ctx["program"], "C2")

    jobs.append(cli_job("coherence --group C2 --all", 0, check_c2,
                        lambda res: 0, record=record_c2))
    out_dir = root / ".bench_out"
    for k, pick in enumerate(rng.sample(range(10**6), 3)):
        path = out_dir / f"coherence-C2-{k}.json"

        def prepare(program, _ctx, path=path, pick=pick):
            vectors = ctx["c2_vectors"]
            out_dir.mkdir(exist_ok=True)
            path.write_text(json.dumps(oracles.datum_json(
                "C2", 2, vectors[pick % len(vectors)])))

        jobs.append(cli_job(
            f"coherence --group C2 --data {path.relative_to(root)}", 0,
            lambda res: oracles.check_coherent_report(res, table, 2),
            checked, prepare=prepare))

    def check_d4(res):
        # reached only once the solver handles D4: the count must match
        # GF(2) elimination on the same equations
        if "d4_equations" not in ctx:
            ctx["d4_equations"] = equations(ctx["program"], "D4")
        rows, nvars = ctx["d4_equations"]
        return oracles.check_solutions(res, rows, nvars, listed_all=False)

    jobs.append(cli_job("coherence --group D4", 0, check_d4, lambda res: 0))
    by_name = {job.name: job for job in jobs}

    def teeth(outputs):
        planted = [("check --group C3",
                    outputs["check --group C3 --mutate braiding"])]

        def double(res):
            res["solutions"] *= 2
        planted.append(("coherence --group C2 --all",
                        mutated(outputs["coherence --group C2 --all"],
                                double)))
        return [f"planted error passed the check of {n}"
                for n, out in planted if not by_name[n].check(out)]

    return Workload(imports=("cli",),
                    groups=("C2", "C3", "S3", "D4", "C2xC2xC2"),
                    load_table=True, jobs=jobs, teeth=teeth, ctx=ctx)


# -- operad-axioms -------------------------------------------------------

S3_OPERAD_CAP = 4000


def operad_axioms(seed: int, root: Path) -> Workload:
    rng = random.Random(f"operad-axioms-{seed}")
    table = oracles.load_table(root)

    def verify(order, arity, cap):
        def check(res):
            return (oracles.check_relation_reports(res["relations"], table,
                                                   order, mutant=False)
                    + oracles.check_operad_report(res["operad"], order,
                                                  arity, cap))
        return check

    def instances(res):
        return sum(a["instances"] for a in res["operad"]["axioms"])

    jobs = [
        cli_job("check --group C2 --operad --bounds arity=2", 0,
                verify(2, 2, 1_000_000), instances),
        cli_job(f"check --group S3 --operad --bounds arity=3,order=6,"
                f"cap={S3_OPERAD_CAP}", 3,
                verify(6, 3, S3_OPERAD_CAP), instances),
    ]
    ctx = {}

    def cross(outputs):
        # the axioms above are only as good as compose_normal: compare it
        # with graft-then-normalize on seeded operations
        p = ctx["program"]
        problems = []
        for spec, arity in (("C2", 2), ("S3", 3)):
            problems += oracles.check_splices(
                p.trees, p.hurwitz, p.braids, p.groups.make_group(spec),
                arity, rng, 150)
        return problems

    by_name = {job.name: job for job in jobs}

    def teeth(outputs):
        name = jobs[0].name

        def lose_instance(res):
            res["operad"]["axioms"][0]["instances"] -= 1
        if by_name[name].check(mutated(outputs[name], lose_instance)):
            return []
        return [f"planted error passed the check of {name}"]

    return Workload(imports=("cli",), groups=("C2", "S3"), load_table=True,
                    jobs=jobs, cross=cross, teeth=teeth, ctx=ctx)


# -- word-problem --------------------------------------------------------

# (strands, lengths); each shape gets one equal and one unequal pair.  The
# shapes are fixed and the lengths chosen so that no few words dominate the
# round: the cost of one word varies by about 8% from seed to seed, and
# spreading it over many words of similar cost keeps each round's total
# steady
PAIR_SHAPES = ((3, (60, 240)), (4, (50, 140)), (5, (80,)), (6, (50, 100)),
               (7, (50,)), (8, (40,)))

CURVE = (("n4_l50", 4, 50), ("n4_l200", 4, 200), ("n6_l100", 6, 100),
         ("n6_l200", 6, 200))


def random_word(rng, n: int, length: int) -> tuple[int, ...]:
    """Uniform generators with exactly half the letters inverted."""
    signs = [1] * (length // 2) + [-1] * (length - length // 2)
    rng.shuffle(signs)
    return tuple(s * rng.randint(1, n - 1) for s in signs)


def equal_rewrite(rng, n: int, letters) -> list[int]:
    """The same braid: random far commutations and braid-relation moves,
    then one cancelling pair inserted."""
    w = list(letters)
    for _ in range(len(w)):
        k = rng.randrange(len(w) - 1)
        a, b = w[k], w[k + 1]
        if abs(abs(a) - abs(b)) >= 2:
            w[k], w[k + 1] = b, a
        elif (k + 2 < len(w) and w[k + 2] == a and (a > 0) == (b > 0)
              and abs(abs(a) - abs(b)) == 1):
            w[k:k + 3] = [b, a, b]
    x = rng.randint(1, n - 1) * rng.choice((1, -1))
    k = rng.randrange(len(w) + 1)
    w[k:k] = [x, -x]
    return w


def unequal_rewrite(rng, n: int, letters, points) -> list[int]:
    """An equal rewrite with two adjacent non-commuting letters swapped,
    kept only when the Burau matrices certify that the braids differ."""
    target = oracles.burau_all(n, letters, points)
    while True:
        w = equal_rewrite(rng, n, letters)
        spots = [k for k in range(len(w) - 1)
                 if abs(abs(w[k]) - abs(w[k + 1])) == 1]
        k = rng.choice(spots)
        w[k], w[k + 1] = w[k + 1], w[k]
        if oracles.burau_all(n, w, points) != target:
            return w


def check_pair(n, u, v, equal, verdict, points) -> list[str]:
    problems = [] if verdict is equal else \
        [f"braids_equal said {verdict} on a pair that is {equal}"]
    same = oracles.burau_all(n, u, points) == oracles.burau_all(n, v, points)
    if same is not equal:
        problems.append("Burau matrices disagree with the pair's "
                        "construction")
    return problems


def check_nf(n, w, nf, points) -> list[str]:
    problems = oracles.check_normal_form_word(n, nf)
    if oracles.burau_all(n, w, points) != oracles.burau_all(n, nf, points):
        problems.append("normal form has another Burau matrix than the word")
    return problems


def word_problem(seed: int, root: Path) -> Workload:
    rng = random.Random(f"word-problem-{seed}")
    points = oracles.burau_points(seed)
    pairs = []
    for n, lengths in PAIR_SHAPES:
        for length in lengths:
            for equal in (True, False):
                u = random_word(rng, n, length)
                v = equal_rewrite(rng, n, u) if equal else \
                    unequal_rewrite(rng, n, u, points)
                pairs.append((n, u, tuple(v), equal))
    jobs = []
    for i, (n, u, v, equal) in enumerate(pairs):
        jobs.append(Job(
            f"braids_equal pair {i} n={n} |u|={len(u)} equal={equal}",
            lambda p, n=n, u=u, v=v: p.braids.braids_equal(
                p.braids.BraidWord(n, u), p.braids.BraidWord(n, v)),
            lambda out, n=n, u=u, v=v, equal=equal: check_pair(
                n, u, v, equal, out, points),
            lambda out, u=u, v=v: len(u) + len(v)))
        for side, w in (("u", u), ("v", v)):
            jobs.append(Job(
                f"normal_form pair {i} {side}",
                lambda p, n=n, w=w: p.braids.normal_form(
                    p.braids.BraidWord(n, w)).letters,
                lambda out, n=n, w=w: check_nf(n, w, out, points),
                lambda out, w=w: len(w)))

    def cross(outputs):
        problems = oracles.check_burau_is_representation(points)
        for i, (n, u, v, equal) in enumerate(pairs):
            a = outputs.get(f"normal_form pair {i} u")
            b = outputs.get(f"normal_form pair {i} v")
            if a is not None and b is not None and (a == b) is not equal:
                problems.append(f"pair {i}: normal forms "
                                f"{'differ' if equal else 'agree'}")
        return problems

    def teeth(outputs):
        n, u, v, _ = next(p for p in pairs if p[3])
        flipped = list(v)
        flipped[len(v) // 2] = -flipped[len(v) // 2]
        if check_pair(n, u, flipped, True, True, points):
            return []
        return ["a pair with one sign flipped passed as equal"]

    return Workload(imports=("braids",), groups=(), load_table=False,
                    jobs=jobs, cross=cross, teeth=teeth)


def curve_words(seed: int):
    """Seeded words for the Garside cost curve, three per shape."""
    rng = random.Random(f"garside-curve-{seed}")
    return [(key, n, random_word(rng, n, length))
            for key, n, length in CURVE for _ in range(3)]


WORKLOADS = {
    "hurwitz-census": hurwitz_census,
    "relation-check": relation_check,
    "operad-axioms": operad_axioms,
    "word-problem": word_problem,
}
