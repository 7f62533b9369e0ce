"""Finite groups as dense multiplication tables.

Conventions used throughout the package:

* elements are dense indices ``0..order-1`` into a multiplication table, with
  the identity always at index 0;
* elements are the group's singletons, one ``GroupElement`` per index,
  obtained from the group (``element``, ``elements``, ``identity`` or an
  operation) and compared and hashed by identity;
* permutation groups enumerate their elements in lexicographic one-line-
  notation order, so indexing is reproducible across runs and machines;
* permutations compose by "apply the right factor first":
  ``(s*t)(i) = s(t(i))``.  In S3 this makes (12)*(13) = (132).

Groups are validated eagerly on construction (associativity, identity,
inverses), which is O(order^3) and fine at the scale this package targets
(order <= 24 or so); ``make_group`` refuses orders above ``MAX_ORDER``.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from pathlib import Path

from .braids import Permutation, all_permutations

MAX_ORDER = 256  # validation is O(order^3): about a second at this order


class GroupError(ValueError):
    """Malformed group data or a violated group axiom."""


class GroupMismatchError(GroupError):
    """Operands belong to different groups."""


@dataclass(frozen=True, eq=False)  # identity-based equality: one table, one group
class FiniteGroup:
    order: int
    mul: tuple[tuple[int, ...], ...]
    inv: tuple[int, ...]
    label: str = "G"

    def __post_init__(self):
        _validate_table(self.order, self.mul, self.inv)
        # one shared wrapper per element; every accessor and operation
        # below hands out these singletons
        object.__setattr__(self, "_wrappers",
                           tuple(GroupElement(i, self)
                                 for i in range(self.order)))
        # conj[x][g] is the index of x g x^-1
        object.__setattr__(self, "conj", tuple(
            tuple(self.mul[self.mul[x][g]][self.inv[x]]
                  for g in range(self.order))
            for x in range(self.order)))

    # -- element access -------------------------------------------------

    def element(self, index: int) -> "GroupElement":
        if not 0 <= index < self.order:
            raise GroupError(f"element index {index} out of range for {self.label}")
        return self._wrappers[index]

    @property
    def identity(self) -> "GroupElement":
        return self._wrappers[0]

    def elements(self) -> tuple["GroupElement", ...]:
        return self._wrappers

    def __iter__(self):
        return iter(self.elements())

    def __len__(self) -> int:
        return self.order

    def __repr__(self) -> str:
        return f"FiniteGroup({self.label}, order={self.order})"

    def is_abelian(self) -> bool:
        return all(
            self.mul[a][b] == self.mul[b][a]
            for a in range(self.order)
            for b in range(a)
        )

    def to_table_text(self) -> str:
        lines = [str(self.order)]
        lines += [" ".join(str(v) for v in row) for row in self.mul]
        return "\n".join(lines) + "\n"


@dataclass(frozen=True, eq=False)  # singletons, compared by identity
class GroupElement:
    index: int
    group: FiniteGroup

    def __mul__(self, other: "GroupElement") -> "GroupElement":
        return product(self, other)

    def inverse(self) -> "GroupElement":
        return self.group._wrappers[self.group.inv[self.index]]

    def __invert__(self) -> "GroupElement":
        return self.inverse()

    def is_identity(self) -> bool:
        return self.index == 0

    def __repr__(self) -> str:
        return f"<{self.group.label}:{self.index}>"

    # sort key used by orbit enumeration / canonical representatives
    def __lt__(self, other: "GroupElement") -> bool:
        return self.index < other.index


def _same_group(a: GroupElement, b: GroupElement) -> FiniteGroup:
    if a.group is not b.group:
        raise GroupMismatchError(
            f"elements of different groups: {a.group.label} vs {b.group.label}"
        )
    return a.group


def product(a: GroupElement, b: GroupElement) -> GroupElement:
    """a*b in their common group."""
    g = _same_group(a, b)
    return g._wrappers[g.mul[a.index][b.index]]


def conjugate(h: GroupElement, g: GroupElement) -> GroupElement:
    """h g h^-1."""
    grp = _same_group(h, g)
    return grp._wrappers[grp.conj[h.index][g.index]]


def product_of(elements, group: FiniteGroup) -> GroupElement:
    """Ordered product of an iterable of elements (identity if empty)."""
    acc, m = 0, group.mul
    for x in elements:
        if x.group is not group:
            raise GroupMismatchError("mixed groups in product_of")
        acc = m[acc][x.index]
    return group._wrappers[acc]


# -- validation ----------------------------------------------------------


def _validate_table(order, mul, inv):
    if order < 1:
        raise GroupError("order must be positive")
    if len(mul) != order or any(len(row) != order for row in mul):
        raise GroupError("multiplication table must be order x order")
    rng = range(order)
    for row in mul:
        if any(not (0 <= v < order) for v in row):
            raise GroupError("table entry out of range")
    e = 0  # the identity is always element 0
    for a in rng:
        if mul[e][a] != a or mul[a][e] != a:
            raise GroupError(f"identity axiom fails at element {a}")
    if len(inv) != order:
        raise GroupError("inverse table has wrong length")
    for a in rng:
        if mul[a][inv[a]] != e or mul[inv[a]][a] != e:
            raise GroupError(f"inverse axiom fails at element {a}")
    for a in rng:
        for b in rng:
            mab = mul[a][b]
            row_a = mul[a]
            for c in rng:
                if mul[mab][c] != row_a[mul[b][c]]:
                    raise GroupError(
                        f"associativity fails at triple ({a}, {b}, {c})"
                    )


def _inverses_from_table(order, mul):
    inv = [None] * order
    for a in range(order):
        for b in range(order):
            if mul[a][b] == 0 and mul[b][a] == 0:
                inv[a] = b
                break
        if inv[a] is None:
            raise GroupError(f"element {a} has no two-sided inverse")
    return tuple(inv)


def _from_mul(order, mul, label) -> FiniteGroup:
    mul = tuple(tuple(row) for row in mul)
    return FiniteGroup(order, mul, _inverses_from_table(order, mul), label)


# -- constructors --------------------------------------------------------


def _group_from_permutations(perms, label) -> FiniteGroup:
    """Index a closed set of permutations, the identity among them, in
    lexicographic order; ``p @ q`` applies q first."""
    elems = sorted(set(perms), key=lambda p: p.images)
    index = {p: i for i, p in enumerate(elems)}
    mul = []
    for p in elems:
        row = []
        for q in elems:
            row.append(index[p @ q])
        mul.append(tuple(row))
    return _from_mul(len(elems), mul, label)


def cyclic_group(n: int) -> FiniteGroup:
    mul = [[(a + b) % n for b in range(n)] for a in range(n)]
    return _from_mul(n, mul, f"C{n}")


def symmetric_group(n: int) -> FiniteGroup:
    return _group_from_permutations(all_permutations(n), f"S{n}")


def dihedral_group(n: int) -> FiniteGroup:
    """Symmetries of the regular n-gon as permutations of its vertices (order 2n)."""
    if n < 3:
        # degenerate polygons: realize as abstract rotations/reflections
        if n == 1:
            return _from_mul(2, [[0, 1], [1, 0]], "D1")
        if n == 2:
            # Klein four-group
            mul = [[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]]
            return _from_mul(4, mul, "D2")
        raise GroupError("dihedral index must be >= 1")
    # vertex i goes to s*i + k mod n: n rotations (s = 1), n reflections
    perms = [Permutation(tuple((s * i + k) % n + 1 for i in range(n)))
             for s in (1, -1) for k in range(n)]
    return _group_from_permutations(perms, f"D{n}")


def direct_product(a: FiniteGroup, b: FiniteGroup) -> FiniteGroup:
    """Pairs (x, y) indexed as x*|b| + y."""
    order = a.order * b.order
    nb = b.order
    mul = []
    for i in range(order):
        xa, ya = divmod(i, nb)
        row = []
        for j in range(order):
            xb, yb = divmod(j, nb)
            row.append(a.mul[xa][xb] * nb + b.mul[ya][yb])
        mul.append(tuple(row))
    return _from_mul(order, mul, f"{a.label}x{b.label}")


@functools.cache
def make_group(spec: str) -> FiniteGroup:
    """Build a group from a descriptor: C<n>, S<n>, D<n>, or products like
    C2xS3; one of order above ``MAX_ORDER`` raises before any is built."""
    spec = spec.strip()
    if not spec:
        raise GroupError("empty group spec")
    parts, order = spec.split("x"), 1
    for part in map(str.strip, parts):
        family, num = part[:1], part[1:]
        digits = num.lstrip("0")  # int() refuses strings over 4300 digits
        if family not in ("C", "S", "D") or not digits.isdigit() or \
                not num.isascii():
            raise GroupError(f"unrecognized group spec {part!r}")
        # 21 digits are over 2^64 and 21! > 2^64, the most named below
        n = min(int(digits[:21]), 2 ** 64)
        order *= n if family == "C" else 2 * n if family == "D" else \
            math.factorial(min(n, 21))
    if order > MAX_ORDER:
        raise GroupError(f"group {spec!r} has order "
                         f"{order if order < 2 ** 64 else 'over 2^64'}, "
                         f"above the limit of {MAX_ORDER}")
    if len(parts) > 1:
        return functools.reduce(direct_product, map(make_group, parts))
    return {"C": cyclic_group, "S": symmetric_group,
            "D": dihedral_group}[family](n)


def read_group_table(path) -> FiniteGroup:
    """Parse a table file: line 1 the order, then the order x order table."""
    text = Path(path).read_text()
    tokens = text.split()
    if not tokens:
        raise GroupError(f"{path}: empty table file")
    try:
        values = [int(t) for t in tokens]
    except ValueError as exc:
        raise GroupError(f"{path}: non-integer entry: {exc}") from None
    order = values[0]
    body = values[1:]
    if order < 1 or len(body) != order * order:
        raise GroupError(
            f"{path}: expected {order}x{order} entries, got {len(body)}"
        )
    mul = [body[i * order : (i + 1) * order] for i in range(order)]
    return _from_mul(order, mul, Path(path).stem)
