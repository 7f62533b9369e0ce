"""Scalar crossed structures on the skeletal model, and coherence solving.

A one-dimensional datum assigns to every structural generator instance a
scalar, taken here in the cyclic group of order ``modulus`` written
additively (so 0 is the trivial scalar and, for modulus 2, 1 plays the role
of a sign).  A generator instance is keyed by the output colors visible at
its application site, so for a group of order n there are

    alpha n^3 + ell n + r n + beta n^3 + gamma n^3 + delta n + eps n + c n^2

scalar variables (36 for n = 2).  A datum is coherent when every relation
in the bundled table evaluates to the same scalar along both sides for
every color assignment.  Both sides of a relation are sums of variables
and negated variables, so coherence is one homogeneous linear equation
per relation instance.

For a prime modulus p (and for 1), ``coherence_solutions`` solves them by
Gaussian elimination over GF(p).  Each traced chunk of assignments gives
its equations column by column, one letter at a time, and each equation is
reduced into the echelon form as it arrives, its pivot at its highest
variable index; one that reduces to zero is dropped.  There are then
p^(variables - rank) solutions.  A pivot variable is fixed by variables of
lower index, so the lexicographic order of the solutions is that of their
free coordinates: an odometer over these lists them, each completed in
increasing pivot order.  A composite modulus is searched depth first, in a
loop, with a cap on value trials.

The scalars are read off the traced programs of ``relations``: per letter,
its generator, its key at each assignment of the entry's symbols and its
sign.  ``evaluate_morphism`` traces its tree as a template with one
assignment.
"""
from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field

from .groups import FiniteGroup, GroupElement
from .operad import CapExceeded
from .relations import (_KEYS, GENERATORS, MorphismWord, _chunks,
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


@functools.cache
def _indices(group: FiniteGroup) -> dict[str, dict[tuple[int, ...], int]]:
    """Per generator, the position of each key's variable in
    ``variable_order``."""
    indices = {gen: {} for gen in GENERATORS}
    for i, (gen, key) in enumerate(variable_order(group)):
        indices[gen][key] = i
    return indices


def _traced(group: FiniteGroup, relation_ids):
    """``(size, program)`` per traced chunk of each entry, in order: an open
    equality or shape error raises through ``_Program.terms`` at the first
    instance where it fails."""
    for entry in relation_entries(relation_ids):
        for chunk, program in _chunks(group, entry):
            if failing := [i for errors in program.errors for i in errors]:
                program.terms(min(failing))
            yield len(chunk), program


def _rows(group: FiniteGroup, relation_ids):
    """Per relation instance, in order, its equation as a dict {variable
    index: nonzero integer coefficient}: the left side's letters count with
    their signs and the right side's negated.  Built a letter column at a
    time over each traced chunk."""
    indices = _indices(group)
    for size, program in _traced(group, relation_ids):
        rows = [{} for _ in range(size)]
        for side, flip in zip(program.sides, (1, -1)):
            for gen, keys, sign in side:
                index, sign = indices[gen], sign * flip
                for row, key in zip(rows, keys):
                    j = index[key]
                    row[j] = row.get(j, 0) + sign
        for row in rows:
            yield {j: c for j, c in row.items() if c}


def _bit_rows(group: FiniteGroup, relation_ids):
    """Per relation instance, in order, its equation mod 2 as an int whose
    bit j is set when variable j has an odd coefficient."""
    bits = {gen: {key: 1 << j for key, j in index.items()}
            for gen, index in _indices(group).items()}
    for size, program in _traced(group, relation_ids):
        rows = [0] * size
        for side in program.sides:
            for gen, keys, _ in side:
                bit = bits[gen]
                rows = [row ^ bit[key] for row, key in zip(rows, keys)]
        yield from rows


def coherence_equations(group: FiniteGroup, relation_ids=None):
    """One homogeneous linear constraint per relation instance.

    Each equation is a dict mapping variables to integer coefficients;
    sides with identical variable content cancel to nothing and are
    dropped.  Duplicate equations are kept once, in first-seen order.
    """
    order = variable_order(group)
    seen = set()
    equations = []
    for row in _rows(group, relation_ids):
        fingerprint = frozenset(row.items())
        if row and fingerprint not in seen:
            seen.add(fingerprint)
            equations.append({order[j]: c for j, c in row.items()})
    return equations


def _coherence_outcomes(data: CrossedAlgebraData, entry: dict):
    for chunk, program in _chunks(data.group, entry):
        for i, values in enumerate(chunk):
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


# moduli from here on take the composite path: trial division stays cheap
_PRIME_LIMIT = 1 << 32


def _eliminates(modulus: int) -> bool:
    """Whether ``modulus`` is 1 or a prime below ``_PRIME_LIMIT``."""
    return modulus == 1 or 1 < modulus < _PRIME_LIMIT and all(
        modulus % d for d in range(2, math.isqrt(modulus) + 1))


def _echelon_bits(rows) -> dict[int, int]:
    """GF(2) rows as ints, reduced as they arrive: the pivot row of index t
    is the one whose highest set bit is t.  A row that reduces to 0 is
    dropped."""
    pivots = {}
    for row in rows:
        while row:
            top = row.bit_length() - 1
            pivot = pivots.get(top)
            if pivot is None:
                pivots[top] = row
                break
            row ^= pivot
    return pivots


def _echelon(rows, p: int) -> dict[int, dict[int, int]]:
    """Rows {index: coefficient} over GF(p), reduced as they arrive: the
    pivot row of index t has its highest index t, with coefficient 1.  A row
    that reduces to 0 is dropped."""
    pivots = {}
    for row in rows:
        row = {j: c % p for j, c in row.items() if c % p}
        while row:
            top = max(row)
            pivot = pivots.get(top)
            if pivot is None:
                scale = pow(row[top], -1, p)
                pivots[top] = {j: c * scale % p for j, c in row.items()}
                break
            factor = row[top]
            for j, c in pivot.items():
                if value := (row.get(j, 0) - factor * c) % p:
                    row[j] = value
                else:
                    row.pop(j, None)
    return pivots


def _odometer(length: int, base: int):
    """Every tuple of ``length`` digits below ``base``, in lexicographic
    order, as one list changed in place between steps.  Unlike
    ``itertools.product``, it builds no range of digits first."""
    digits = [0] * length
    while True:
        yield digits
        j = length - 1
        while j >= 0 and digits[j] == base - 1:
            digits[j] = 0
            j -= 1
        if j < 0:
            return
        digits[j] += 1


def _listing_bits(n: int, pivots: dict[int, int]):
    """The solution vectors of GF(2) pivot rows, in lexicographic order:
    an odometer over the free coordinates, each vector completed in
    increasing pivot order."""
    free = [j for j in range(n) if j not in pivots]
    ordered = sorted(pivots.items())
    for digits in _odometer(len(free), 2):
        vector = sum(1 << j for j, x in zip(free, digits) if x)
        for t, row in ordered:  # bit t of vector is still clear
            if (row & vector).bit_count() & 1:
                vector |= 1 << t
        yield tuple(vector >> j & 1 for j in range(n))


def _listing(n: int, pivots: dict[int, dict[int, int]], p: int):
    """The solution vectors of GF(p) pivot rows, in lexicographic order,
    as ``_listing_bits`` lists them."""
    free = [j for j in range(n) if j not in pivots]
    ordered = sorted(pivots.items())
    for digits in _odometer(len(free), p):
        vector = [0] * n
        for j, x in zip(free, digits):
            vector[j] = x
        for t, row in ordered:  # vector[t] is still 0
            vector[t] = -sum(c * vector[j] for j, c in row.items()) % p
        yield tuple(vector)


def _search(group: FiniteGroup, modulus: int, relation_ids,
            cap: int) -> list[tuple[int, ...]]:
    """Every solution vector mod ``modulus``, in lexicographic order, by a
    depth-first search over the variables kept as a loop.  An equation is
    tested as soon as its last variable is set, and every value trial
    counts against ``cap``; exceeding it raises :class:`CapExceeded`."""
    n = len(variable_order(group))
    distinct = {frozenset((j, c % modulus) for j, c in row.items()
                          if c % modulus) for row in _rows(group, relation_ids)}
    due = [[] for _ in range(n)]
    for equation in filter(None, distinct):
        due[max(j for j, _ in equation)].append(tuple(equation))
    vector, tried, solutions = [0] * n, [0] * n, []
    trials, i = 0, 0
    while i >= 0:
        if i == n:
            solutions.append(tuple(vector))
            i -= 1
        elif tried[i] == modulus:
            tried[i] = vector[i] = 0
            i -= 1
        else:
            trials += 1
            if trials > cap:
                raise CapExceeded(
                    f"coherence search exceeded {cap} value trials")
            vector[i] = tried[i]
            tried[i] += 1
            if all(sum(c * vector[j] for j, c in eq) % modulus == 0
                   for eq in due[i]):
                i += 1
    return solutions


def coherence_solutions(group: FiniteGroup, modulus: int = 2,
                        relation_ids=None, cap: int = 1_000_000,
                        limit=None) -> tuple[int, list[tuple[int, ...]]]:
    """The number of coherent data mod ``modulus`` over one group, and the
    vectors of the first ``limit`` of them (all when None), in
    lexicographic order.

    For a prime modulus p, and for 1, the count is p^(variables - rank)
    over GF(p), and listing more than ``cap`` vectors raises
    :class:`CapExceeded` before any is listed.  Any other modulus is
    searched depth first, with ``cap`` on value trials.  A modulus below 1
    raises :class:`AlgebraError`.
    """
    if modulus < 1:
        raise AlgebraError("modulus must be positive")
    n = len(variable_order(group))
    if modulus == 2:
        pivots = _echelon_bits(_bit_rows(group, relation_ids))
        count, vectors = 2 ** (n - len(pivots)), _listing_bits(n, pivots)
    elif _eliminates(modulus):
        pivots = _echelon(_rows(group, relation_ids), modulus)
        count = modulus ** (n - len(pivots))
        vectors = _listing(n, pivots, modulus)
    else:
        solutions = _search(group, modulus, relation_ids, cap)
        count, vectors = len(solutions), iter(solutions)
    listed = count if limit is None else min(count, limit)
    if listed > cap:
        raise CapExceeded(f"listing {listed} coherent data exceeds the cap "
                          f"of {cap} vectors")
    return count, list(itertools.islice(vectors, listed))


def solve_coherence(group: FiniteGroup, modulus: int = 2, relation_ids=None,
                    cap: int = 1_000_000) -> list[CrossedAlgebraData]:
    """All coherent data over one group, in lexicographic vector order, as
    ``coherence_solutions`` finds them: more than ``cap`` of them, or for a
    composite modulus more than ``cap`` value trials, raise
    :class:`CapExceeded`.  A modulus below 1 raises :class:`AlgebraError`.
    """
    _, vectors = coherence_solutions(group, modulus, relation_ids, cap)
    return [CrossedAlgebraData.from_vector(group, modulus, vector)
            for vector in vectors]


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
