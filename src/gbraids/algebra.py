"""Scalar crossed structures on the skeletal model, and coherence solving.

A one-dimensional datum assigns to every structural generator instance a
scalar, taken here in the cyclic group of order ``modulus`` written
additively (so 0 is the trivial scalar and, for modulus 2, 1 plays the role
of a sign).  A generator instance is keyed by the output colors visible at
its application site, so for a group of order n there are

    alpha n^3 + ell n + r n + beta n^3 + gamma n^3 + delta n + eps n + c n^2

scalar variables (36 for n = 2).  A datum is coherent when every relation
in the bundled table evaluates to the same scalar along both sides for
every color assignment.  Both sides of a relation are products of
variables and inverse variables, so coherence is a homogeneous linear
condition; ``solve_coherence`` nevertheless enumerates solutions by plain
backtracking over the canonical variable order, with an instance cap.

The scalars are read off the traced programs of ``relations``: per letter,
its generator, its key at each assignment of the entry's symbols and its
sign.  ``evaluate_morphism`` traces its tree as a template with one
assignment.
"""
from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field

from .groups import FiniteGroup, GroupElement
from .operad import CapExceeded
from .relations import (_KEYS, GENERATORS, MorphismWord, _instances,
                        _Program, relation_entries, relation_report)
from .trees import GTree, output_color, validate


class AlgebraError(ValueError):
    pass


@functools.cache
def variable_order(group: FiniteGroup) -> tuple[tuple[str, tuple[int, ...]], ...]:
    """Canonical flat ordering of all scalar variables for one group."""
    return tuple((gen, key) for gen in GENERATORS for key in
                 itertools.product(range(group.order), repeat=len(_KEYS[gen])))


def _name(gen: str, key: tuple[int, ...]) -> str:
    """The JSON name of a variable, such as ``c:1,1``."""
    return f"{gen}:{','.join(map(str, key))}"


@dataclass(frozen=True)
class CrossedAlgebraData:
    group: FiniteGroup
    modulus: int
    values: dict = field(default_factory=dict)

    def __post_init__(self):
        # type checks, not isinstance: a JSON true is a bool, and bool is int
        if type(self.modulus) is not int or self.modulus < 1:
            raise AlgebraError("modulus must be a positive integer")
        order = variable_order(self.group)
        missing = [v for v in order if v not in self.values]
        extra = self.values.keys() - set(order)
        if missing or extra:
            raise AlgebraError(
                f"variable table mismatch: {len(missing)} missing, "
                f"{len(extra)} unexpected")
        for v, x in self.values.items():
            if type(x) is not int or not 0 <= x < self.modulus:
                raise AlgebraError(f"value {x!r} for {v} out of range")

    def scalar(self, gen: str, key: tuple[int, ...]) -> int:
        return self.values[(gen, key)]

    def to_vector(self) -> tuple[int, ...]:
        return tuple(self.values[v] for v in variable_order(self.group))

    @classmethod
    def from_vector(cls, group: FiniteGroup, modulus: int,
                    vector) -> "CrossedAlgebraData":
        order = variable_order(group)
        vector = tuple(vector)
        if len(vector) != len(order):
            raise AlgebraError(
                f"expected {len(order)} entries, got {len(vector)}")
        return cls(group, modulus, dict(zip(order, vector)))

    @classmethod
    def trivial(cls, group: FiniteGroup, modulus: int = 2) -> "CrossedAlgebraData":
        return cls.from_vector(group, modulus,
                               [0] * len(variable_order(group)))

    def to_json(self) -> dict:
        return {
            "group": self.group.label,
            "modulus": self.modulus,
            "values": {_name(gen, key): self.values[(gen, key)]
                       for gen, key in variable_order(self.group)},
        }

    @classmethod
    def from_json(cls, group: FiniteGroup, payload: dict) -> "CrossedAlgebraData":
        if not (isinstance(payload, dict)
                and isinstance(payload.get("values"), dict)
                and isinstance(payload.get("modulus"), int)):
            raise AlgebraError("data must be a JSON object with a 'values' "
                               "object and an integer 'modulus'")
        if payload.get("group") != group.label:
            raise AlgebraError(
                f"data is for group {payload.get('group')!r}, not {group.label!r}")
        values = {}
        for name, x in payload["values"].items():
            gen, _, rest = name.partition(":")
            try:  # int() also takes signs, spaces and leading zeros
                key = tuple(map(int, rest.split(",")))
            except ValueError:
                key = None
            if key is None or _name(gen, key) != name:
                raise AlgebraError(f"malformed variable name {name!r}")
            values[(gen, key)] = x
        return cls(group, payload["modulus"], values)


def evaluate_object(data: CrossedAlgebraData, tree: GTree) -> GroupElement:
    """Objects are one-dimensional lines; the invariant content is the
    grading, i.e. the output color."""
    validate(tree, data.group)
    return output_color(tree, data.group)


def evaluate_morphism(data: CrossedAlgebraData, source: GTree,
                      word: MorphismWord) -> int:
    """The scalar of a structural word, as an exponent mod ``modulus``.
    The checks of ``validate`` come first and raise ``TreeError``."""
    validate(source, data.group)
    [terms] = _Program(data.group, source, (word,)).terms(0)
    return sum(sign * data.scalar(*var) for var, sign in terms) % data.modulus


# -- coherence -----------------------------------------------------------


def coherence_equations(group: FiniteGroup, relation_ids=None):
    """One homogeneous linear constraint per relation instance.

    Each equation is a dict mapping variables to integer coefficients;
    sides with identical variable content cancel to nothing and are
    dropped.  Duplicate equations are kept once, in first-seen order.
    """
    seen = set()
    equations = []
    for entry in relation_entries(relation_ids):
        for _, program, i in _instances(group, entry):
            left, right = program.terms(i)
            coeffs: dict = {}
            for var, sign in left + [(var, -sign) for var, sign in right]:
                coeffs[var] = coeffs.get(var, 0) + sign
            coeffs = {v: c for v, c in coeffs.items() if c != 0}
            if not coeffs:
                continue
            fingerprint = frozenset(coeffs.items())
            if fingerprint in seen:
                continue
            seen.add(fingerprint)
            equations.append(coeffs)
    return equations


def _coherence_outcomes(data: CrossedAlgebraData, entry: dict):
    for values, program, i in _instances(data.group, entry):
        left, right = (sum(sign * data.values[var] for var, sign in side)
                       % data.modulus for side in program.terms(i))
        yield None if left == right else {
            "assignment": dict(zip(entry["symbols"], values)),
            "lhs": left,
            "rhs": right,
        }


def check_coherence(data: CrossedAlgebraData, relation_ids=None,
                    max_reported: int = 20) -> dict:
    """Evaluate every relation instance on both sides and compare."""
    relations = [relation_report(entry, _coherence_outcomes(data, entry),
                                 max_reported)
                 for entry in relation_entries(relation_ids)]
    total_failures = sum(r["failure_count"] for r in relations)
    return {
        "group": data.group.label,
        "modulus": data.modulus,
        "relations": relations,
        "total_failures": total_failures,
        "coherent": total_failures == 0,
    }


def solve_coherence(group: FiniteGroup, modulus: int = 2, relation_ids=None,
                    cap: int = 1_000_000) -> list[CrossedAlgebraData]:
    """All coherent data over one group, in lexicographic vector order.

    Plain depth-first backtracking over the canonical variable order.  An
    equation prunes as soon as its last variable is assigned.  Every value
    trial counts against ``cap``; exceeding it raises :class:`CapExceeded`.
    A modulus below 1 raises :class:`AlgebraError`.
    """
    if modulus < 1:
        raise AlgebraError("modulus must be positive")
    order = variable_order(group)
    index = {v: i for i, v in enumerate(order)}
    due: list[list[dict]] = [[] for _ in order]
    for eq in coherence_equations(group, relation_ids):
        last = max(index[v] for v in eq)
        due[last].append({index[v]: c for v, c in eq.items()})

    n = len(order)
    vector = [0] * n
    solutions = []
    budget = cap

    def descend(i):
        nonlocal budget
        if i == n:
            solutions.append(CrossedAlgebraData.from_vector(
                group, modulus, tuple(vector)))
            return
        for value in range(modulus):
            budget -= 1
            if budget < 0:
                raise CapExceeded(
                    f"coherence search exceeded {cap} value trials")
            vector[i] = value
            if all(sum(c * vector[j] for j, c in eq.items()) % modulus == 0
                   for eq in due[i]):
                descend(i + 1)
        vector[i] = 0

    descend(0)
    return solutions


def builtin_group_example(modulus: int = 2) -> CrossedAlgebraData:
    """A nonzero coherent datum over the two-element group: the sign
    braiding that is -1 exactly on the pair of nontrivial colors (mod 2 it
    is a gauge change of the trivial datum)."""
    from .groups import make_group
    group = make_group("C2")
    if modulus % 2:
        raise AlgebraError("the sign braiding needs an even modulus")
    values = {v: 0 for v in variable_order(group)}
    values[("c", (1, 1))] = modulus // 2
    return CrossedAlgebraData(group, modulus, values)
