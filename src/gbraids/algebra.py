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

The scalars are read off traced programs, not trees.  The rewrites of
``relations`` apply each side of a table entry once to the entry's
template, for up to 4096 assignments of its symbols at a time, with every
color and label the tuple of its element indices at those assignments.
Per letter this gives the generator and its key at each assignment;
``coherence_equations``, ``check_coherence`` and ``evaluate_morphism`` read
them one assignment at a time and test there, with the same
``RelationError``, the equalities the letters need (equal ``beta`` labels,
an identity ``delta`` label, the inverse ``c`` label).
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .groups import FiniteGroup, GroupElement
from .operad import CapExceeded
from .relations import (GENERATORS, CompiledRelation, MorphismWord,
                        RelationError, apply_generator, relation_entries,
                        relation_report)
from .trees import (GTree, InputLeaf, LabelEdge, Tensor, TreeError,
                    _map_leaves, output_color, subtree_at, validate)


class AlgebraError(ValueError):
    pass


# the key components of a generator instance, read off its forward source:
# the output color of the subtree at a path, or after "L" the label there
_KEYS = {"alpha": ("00", "01", "1"), "ell": ("1",), "r": ("0",),
         "beta": ("L0", "00", "10"), "gamma": ("L", "L0", "00"),
         "delta": ("0",), "eps": ("L",), "c": ("0", "1")}


def variable_order(group: FiniteGroup) -> tuple[tuple[str, tuple[int, ...]], ...]:
    """Canonical flat ordering of all scalar variables for one group."""
    return tuple((gen, key) for gen in GENERATORS for key in
                 itertools.product(range(group.order), repeat=len(_KEYS[gen])))


_CHUNK = 4096  # assignments traced at a time, so that tuples stay small


class _Program:
    """Morphism words applied once to a template of one group, on index
    tuples.

    Every color and label is the tuple of its element indices at each of
    ``assignments``: a symbol is its column, a constant a repeated index, so
    a concrete tree is a template with one empty assignment.  The rewrites
    of ``relations._rewrite`` run on it elementwise through ``group.mul``
    and ``group.conj`` (the flipped braiding, which needs ``inv``, is never
    traced).  Per letter it keeps the generator, its keys by assignment and
    its sign.  ``open`` keeps each equality a letter needs, and a shape
    error, which ends its side; ``terms`` raises the first that fails.
    """

    def __init__(self, group: FiniteGroup, template: GTree, morphisms,
                 symbols=(), assignments=((),)) -> None:
        self.group, self.open, self.sides = group, [], []
        self.unit = (0,) * len(assignments)
        self.identity = lambda group: self.unit
        columns = dict(zip(symbols, zip(*assignments)))

        def indices(x) -> tuple[int, ...]:
            return columns[x] if type(x) is str else (x.index,) * len(self.unit)

        tree = _map_leaves(template, lambda leaf: InputLeaf(
            leaf.slot, indices(leaf.color)), indices)
        for morphism in morphisms:
            current, terms = tree, []
            try:
                for letter in morphism.letters:
                    after = apply_generator(current, letter, group, ops=self)
                    # the key is read off the forward source, which is the
                    # result of an inverse letter
                    site = subtree_at(after if letter.inverse else current,
                                      letter.path)
                    keys = zip(*self._key(site, letter.gen))
                    terms.append(([(letter.gen, key) for key in keys],
                                  -1 if letter.inverse else 1))
                    current = after
            except (RelationError, TreeError) as exc:
                self.open.append((None, None, type(exc), str(exc)))
            self.sides.append(terms)

    def mul(self, x, y) -> tuple[int, ...]:
        mul = self.group.mul
        return tuple([mul[a][b] for a, b in zip(x, y)])

    def out(self, t: GTree, group=None) -> tuple[int, ...]:
        """The output color of a tree of index tuples: its leaf colors
        conjugated by the labels above them, in position order."""
        mul, conj = self.group.mul, self.group.conj
        acc, stack = self.unit, [(t, self.unit)]
        while stack:
            node, above = stack.pop()
            if isinstance(node, Tensor):
                stack += ((node.right, above), (node.left, above))
            elif isinstance(node, LabelEdge):
                stack.append((node.child, self.mul(above, node.label)))
            elif isinstance(node, InputLeaf):
                acc = tuple([mul[a][conj[h][g]]
                             for a, h, g in zip(acc, above, node.color)])
        return acc

    def require(self, x, y, message: str) -> None:
        if x != y:
            self.open.append((x, y, RelationError, message))

    def _key(self, site: GTree, gen: str):
        """The key tuples of a generator instance at its forward source."""
        for spec in _KEYS[gen]:
            sub = subtree_at(site, tuple(map(int, spec.lstrip("L"))))
            yield sub.label if spec[0] == "L" else self.out(sub)

    def terms(self, i: int) -> list[list]:
        """Per morphism, ``((gen, key), sign)`` per letter at assignment
        ``i``; the first open equality or shape error failing there raises."""
        for x, y, error, message in self.open:
            if x is None or x[i] != y[i]:
                raise error(message)
        return [[(variables[i], sign) for variables, sign in side]
                for side in self.sides]


def _instances(group: FiniteGroup, entry: dict):
    """``(values, lhs terms, rhs terms)`` per assignment of one entry, in
    table order, from programs traced on the entry's template, one per
    chunk of assignments."""
    compiled = CompiledRelation(group, entry)
    assignments = itertools.product(range(group.order),
                                    repeat=len(entry["symbols"]))
    while chunk := list(itertools.islice(assignments, _CHUNK)):
        program = _Program(group, compiled.template,
                           (compiled.lhs, compiled.rhs), entry["symbols"],
                           chunk)
        for i, values in enumerate(chunk):
            yield (values, *program.terms(i))


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
        for _, left, right in _instances(group, entry):
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
    for values, *sides in _instances(data.group, entry):
        left, right = (sum(sign * data.values[var] for var, sign in side)
                       % data.modulus for side in sides)
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
