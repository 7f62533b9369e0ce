"""Batch command line interface.

Four subcommands, each printing one canonical JSON document (or its flat
CSV projection) on stdout:

* ``orbits`` — orbit decompositions, of the bare tuple space or of one
  boundary component, with optional seeded sampling of orbit sizes.
* ``check`` — the bundled relation table over a group, optionally with a
  deliberately mutated braiding, and optionally the operad axiom streams.
* ``grothendieck`` — flatten the fibered description of the tuple action
  and compare it against the direct one-step presentation.
* ``coherence`` — solve for all scalar crossed structures over a group,
  or check a structure loaded from a JSON file.

Exit codes: 0 all checks passed, 1 failures found, 2 usage error,
3 an instance or search cap was reached before an answer was complete.
JSON output is canonical (sorted keys, two-space indent, trailing
newline): identical configurations produce byte-identical documents.
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import random
import sys
from pathlib import Path
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass
from itertools import repeat
from typing import Optional

from .algebra import CrossedAlgebraData, check_coherence, solve_coherence
from .groupoid import compare_grothendieck_to_direct
from .groups import FiniteGroup, GroupError, make_group
from .hurwitz import (DecoratedTuple, bare_space, component_objects,
                      format_signature, orbit, parse_signature, partition,
                      HurwitzError)
from .operad import Bounds, CapExceeded, check_operad_axioms
from .relations import RelationError, check_all_relations, relation_entries

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_CAP = 3


@dataclass(frozen=True)
class RunConfig:
    command: str
    group: str
    strands: Optional[int] = None
    signature: Optional[str] = None
    sample: Optional[int] = None
    relations: Optional[tuple[str, ...]] = None
    mutate: Optional[str] = None
    operad: bool = False
    bounds: tuple[int, int, int] = (3, 6, 1_000_000)
    modulus: int = 2
    data_path: Optional[str] = None
    list_all: bool = False
    seed: int = 0
    jobs: int = 1
    format: str = "json"


def _flatten(obj, prefix=""):
    """Depth-first projection of nested dicts/lists to (path, value) rows."""
    if isinstance(obj, dict):
        for key in sorted(obj):
            yield from _flatten(obj[key], f"{prefix}.{key}" if prefix else str(key))
    elif isinstance(obj, (list, tuple)):
        for i, item in enumerate(obj):
            yield from _flatten(item, f"{prefix}[{i}]")
    else:
        yield prefix, obj


def render(document: dict, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(document, sort_keys=True, indent=2) + "\n"
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["key", "value"])
    for path, value in _flatten(document):
        writer.writerow([path, "" if value is None else value])
    return buffer.getvalue()


def _emit(config: RunConfig, results: dict, stream) -> None:
    document = {"config": asdict(config), "results": results}
    stream.write(render(document, config.format))


def _parse_bounds(text: str) -> Bounds:
    fields = {"arity": 3, "order": 6, "cap": 1_000_000}
    if text:
        for part in text.split(","):
            name, eq, value = part.partition("=")
            name = name.strip()
            if not eq or name not in fields:
                raise ValueError(f"bad bounds entry {part!r} "
                                 "(want arity=..,order=..,cap=..)")
            try:
                fields[name] = int(value)
            except ValueError:
                raise ValueError(f"bad bounds entry {part!r} "
                                 "(not an integer)") from None
            if fields[name] < 0:
                raise ValueError(f"bad bounds entry {part!r} (must be >= 0)")
    return Bounds(fields["arity"], fields["order"], fields["cap"])


def _decorated_json(x: DecoratedTuple) -> dict:
    images, b = x.sort_key()
    out = {"b": ",".join(map(str, b))}
    if not x.is_bare():
        out.update(sigma=list(images), colors=",".join(map(str, x.hues)))
    return out


# -- subcommands ---------------------------------------------------------


def _run_orbits(args, config: RunConfig, group: FiniteGroup) -> tuple[dict, int]:
    if args.signature:
        sig = parse_signature(args.signature, group)
        r = len(sig.inputs)
        # one candidate per permutation and choice of b_1 .. b_{r-1}
        if math.factorial(r) * group.order ** max(r - 1, 0) > config.bounds[2]:
            raise CapExceeded(
                f"{r}!*{group.order}^{max(r - 1, 0)} tuples exceed the cap "
                f"{config.bounds[2]}")
        points = component_objects(sig.inputs, sig.output)
        space = {"space": "component", "signature": format_signature(sig)}
    else:
        # for order >= 2, r > cap.bit_length() alone shows order^r > cap
        r, cap = args.strands, config.bounds[2]
        if group.order > 1 and r > cap.bit_length() or group.order ** r > cap:
            raise CapExceeded(f"{group.order}^{r} tuples exceed the cap {cap}")
        points = bare_space(group, r)
        space = {"space": "bare", "strands": r}
    results = dict(space)
    results["points"] = len(points)
    if args.sample is not None:
        rng = random.Random(config.seed)
        starts = [rng.choice(points) for _ in range(args.sample)] \
            if points else []
        results["samples"] = [{"start": _decorated_json(start),
                               "orbit_size": len(orbit(start))}
                              for start in starts]
    else:
        classes = partition(points)
        results["orbit_count"] = len(classes)
        results["orbits"] = [{"size": len(c),
                              "representative": _decorated_json(c[0])}
                             for c in classes]
    return results, EXIT_PASS


def _relation_worker(spec: str, relation_id: str, mutate, cap):
    group = make_group(spec)
    report = check_all_relations(group, relation_ids=[relation_id],
                                 mutate=mutate, assignment_cap=cap)
    return report["relations"][0]


def _run_check(args, config: RunConfig, group: FiniteGroup) -> tuple[dict, int]:
    bounds = Bounds(*config.bounds)
    # unknown names are usage errors, raised early
    entries = relation_entries(config.relations)
    work = (repeat(config.group), [entry["id"] for entry in entries],
            repeat(config.mutate), repeat(bounds.cap))
    if config.jobs > 1:
        with ProcessPoolExecutor(max_workers=config.jobs) as pool:
            reports = list(pool.map(_relation_worker, *work))
    else:
        reports = list(map(_relation_worker, *work))
    relation_failures = sum(r["failure_count"] for r in reports)
    capped = any(
        report["assignments_checked"] < group.order ** len(entry["symbols"])
        for report, entry in zip(reports, entries))
    results = {
        "relations": reports,
        "relation_failures": relation_failures,
    }
    failures = relation_failures
    if config.operad:
        operad_report = check_operad_axioms(group, bounds)
        results["operad"] = operad_report
        failures += operad_report["total_failures"]
        capped = capped or not operad_report["complete"]
    results["total_failures"] = failures
    results["complete"] = not capped
    if failures:
        return results, EXIT_FAIL
    if capped:
        return results, EXIT_CAP
    return results, EXIT_PASS


def _run_grothendieck(args, config: RunConfig, group: FiniteGroup) -> tuple[dict, int]:
    # each presentation has r!|G|^r objects; r > cap.bit_length() alone
    # shows r! >= 2^(r-1) > cap
    r, cap = args.strands, config.bounds[2]
    if r > cap.bit_length() or math.factorial(r) * group.order ** r > cap:
        raise CapExceeded(
            f"{r}!*{group.order}^{r} objects exceed the cap {cap}")
    report = compare_grothendieck_to_direct(group, r)
    code = EXIT_PASS if not report["failures"] else EXIT_FAIL
    return {"strands": r, **report}, code


def _run_coherence(args, config: RunConfig, group: FiniteGroup) -> tuple[dict, int]:
    bounds = Bounds(*config.bounds)
    if config.data_path:
        payload = json.loads(Path(config.data_path).read_text())
        data = CrossedAlgebraData.from_json(group, payload)
        report = check_coherence(data)
        code = EXIT_PASS if report["coherent"] else EXIT_FAIL
        return report, code
    solutions = solve_coherence(group, modulus=config.modulus,
                                cap=bounds.cap)
    vectors = [list(s.to_vector()) for s in solutions]
    results = {
        "modulus": config.modulus,
        "variables": len(vectors[0]) if vectors else 0,
        "solutions": len(solutions),
        "vectors": vectors if config.list_all else vectors[:5],
    }
    return results, EXIT_PASS


# -- argument parsing ----------------------------------------------------


def _add_common(parser, defaults: bool) -> None:
    """Shared options, valid both before and after the subcommand.

    The copies on the subparsers use SUPPRESS defaults so that an option
    given before the subcommand is not clobbered afterwards.
    """
    d = (lambda v: v) if defaults else (lambda v: argparse.SUPPRESS)
    parser.add_argument("--format", choices=("json", "csv"),
                        default=d("json"))
    parser.add_argument("--seed", type=int, default=d(0))
    # a string default goes through type=int, so a bad value is a usage error
    parser.add_argument("--jobs", type=int,
                        default=d(os.environ.get("GBRAIDS_JOBS", "1")))
    parser.add_argument("--bounds", default=d(""),
                        help="arity=3,order=6,cap=1000000")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gbraids",
        description="orbits, relation checks, flattening comparisons and "
                    "scalar coherence for decorated tuple actions")
    _add_common(parser, defaults=True)
    sub = parser.add_subparsers(dest="command", required=True)

    orbits = sub.add_parser("orbits", help="orbit decompositions")
    _add_common(orbits, defaults=False)
    orbits.add_argument("--group", required=True)
    orbits.add_argument("--strands", type=int)
    orbits.add_argument("--signature",
                        help="colors->output by element index, e.g. 2,5->4")
    orbits.add_argument("--sample", type=int,
                        help="sample this many orbit sizes instead of "
                             "a full decomposition")

    check = sub.add_parser("check", help="relation table and operad axioms")
    _add_common(check, defaults=False)
    check.add_argument("--group", required=True)
    check.add_argument("--relations",
                       help="comma separated relation names (default: all)")
    check.add_argument("--mutate", choices=("braiding",))
    check.add_argument("--operad", action="store_true")

    groth = sub.add_parser("grothendieck",
                           help="compare flattening with the direct "
                                "presentation")
    _add_common(groth, defaults=False)
    groth.add_argument("--group", required=True)
    groth.add_argument("--strands", type=int, required=True)

    coherence = sub.add_parser("coherence", help="scalar crossed structures")
    _add_common(coherence, defaults=False)
    coherence.add_argument("--group", required=True)
    coherence.add_argument("--modulus", type=int, default=2)
    coherence.add_argument("--data", dest="data_path",
                           help="check this JSON datum instead of solving")
    coherence.add_argument("--all", dest="list_all", action="store_true",
                           help="list every solution vector, not just "
                                "the first five")
    return parser


_RUNNERS = {
    "orbits": _run_orbits,
    "check": _run_check,
    "grothendieck": _run_grothendieck,
    "coherence": _run_coherence,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        bounds = _parse_bounds(args.bounds)
    except ValueError as exc:
        parser.error(str(exc))
    if args.command == "orbits" and not args.signature and args.strands is None:
        parser.error("orbits needs --strands or --signature")
    if args.command == "orbits" and args.signature and args.strands is not None:
        parser.error("--strands and --signature are mutually exclusive")
    for name in ("strands", "sample"):
        if getattr(args, name, None) is not None and getattr(args, name) < 0:
            parser.error(f"--{name} must be >= 0")
    config = RunConfig(
        command=args.command,
        group=args.group,
        strands=getattr(args, "strands", None),
        signature=getattr(args, "signature", None),
        sample=getattr(args, "sample", None),
        relations=tuple(args.relations.split(","))
        if getattr(args, "relations", None) else None,
        mutate=getattr(args, "mutate", None),
        operad=getattr(args, "operad", False),
        bounds=(bounds.max_arity, bounds.max_order, bounds.cap),
        modulus=getattr(args, "modulus", 2),
        data_path=getattr(args, "data_path", None),
        list_all=getattr(args, "list_all", False),
        seed=args.seed,
        jobs=args.jobs,
        format=args.format,
    )
    try:
        group = make_group(config.group)
    except GroupError as exc:
        parser.error(str(exc))
    try:
        results, code = _RUNNERS[config.command](args, config, group)
    except (HurwitzError, RelationError, OSError, ValueError) as exc:
        parser.error(str(exc))
    except CapExceeded as exc:
        _emit(config, {"error": str(exc)}, sys.stdout)
        return EXIT_CAP
    _emit(config, results, sys.stdout)
    return code


if __name__ == "__main__":
    sys.exit(main())
