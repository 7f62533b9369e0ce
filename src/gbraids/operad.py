"""The colored composition structure on normal forms, with axiom checking.

Operations of arity r colored by a group G are the normal forms: a slot
permutation, a decoration per position, and a color per slot, with the
boundary output determined by the holonomy product (``color_condition``).
Slot grafting (``compose_normal``) makes these a colored operad on the nose,
with units ``identity_normal_form``; symmetric groups act by relabeling
slots (``sigma_action``).  ``all_operations`` lists the operations of one
arity over a group.  ``check_operad_axioms`` walks deterministic streams of
axiom instances — sequential and parallel associativity, both unit laws,
and both equivariance laws — and verifies each by direct computation,
stopping at a configurable instance cap since the full instance space grows
with ``|G|^(2r) r!``.

A report is complete when every stream was exhausted below the cap;
otherwise it is a capped prefix of the (fixed) enumeration order.

Every normal form carries the index of its output color from the moment
it is built (``sigma_action`` keeps it), so a splice checks an inner
operand by one comparison of two ints.  The streams splice through
``trees.grafter``, which does the work that depends on the outer operand
once per grafter, and they share what repeats:

- sequential: one grafter per ``x``, per ``y`` and per ``x o_j y``, the
  last two over the loop on ``z``;
- parallel: ``x o_j y`` once per ``(x, y)`` with a grafter over the loop
  on ``z``, and every ``x o_i z`` once per ``x``, with a grafter on each,
  shared across every ``y``;
- units: one grafter per unit color for ``1 o_1 x``;
- equivariance: one grafter per slot of ``x`` and per
  ``sigma_action(x, rho)``, and ``x o_j y`` once per colors of ``y``,
  shared across the loop on ``rho``.

Each side of an instance still ends in a splice of its own, and what is
kept is at most one ``x``'s worth of composites, so memory does not grow
with the cap.
"""
from __future__ import annotations

import itertools
from dataclasses import asdict, dataclass
from functools import lru_cache

from .braids import Permutation, all_permutations, cable_permutation
from .groups import FiniteGroup
from .hurwitz import DecoratedTuple, _arriving, _holonomy, component_objects
from .relations import tally
from .trees import compose_normal, grafter, identity_normal_form


class OperadError(ValueError):
    pass


class CapExceeded(RuntimeError):
    """Raised when a bounded search uses up its instance budget."""


@dataclass(frozen=True)
class Bounds:
    max_arity: int = 3
    max_order: int = 6
    cap: int = 1_000_000


def sigma_action(x: DecoratedTuple, rho: Permutation) -> DecoratedTuple:
    """Right action relabeling slots: new slot k is old slot rho(k); the
    positions and their decorations do not move."""
    if x.size != rho.size:
        raise OperadError("permutation size does not match arity")
    images, b = x.sort_key()
    return DecoratedTuple._trusted(
        x.group, tuple([images[k - 1] for k in rho.images]) + b,
        tuple([x.hues[k - 1] for k in rho.images]), x.out)


@lru_cache(maxsize=256)
def _component(colors, output):
    """The operations with these input colors and this output color."""
    return tuple(component_objects(colors, output))


def all_operations(group: FiniteGroup, r: int):
    """Every operation of arity r, in a fixed lexicographic order."""
    indices = range(group.order)
    for hues in itertools.product(indices, repeat=r):
        for images in itertools.permutations(range(1, r + 1)):
            arriving = _arriving(images, hues)
            for b in itertools.product(indices, repeat=r):
                yield DecoratedTuple._trusted(
                    group, images + b, hues, _holonomy(group, zip(b, arriving)))


# -- axiom checking ------------------------------------------------------
#
# Each stream yields None for an instance that holds and its description
# for one that fails.


def _arities(bounds, count):
    return itertools.product(range(1, bounds.max_arity + 1), repeat=count)


def _sequential_instances(group, bounds):
    elements = group.elements()
    # composites may exceed the arity bound; only enumerated factors are
    # bounded
    for r, s, t in _arities(bounds, 3):
        for j in range(1, r + 1):
            for k in range(1, s + 1):
                for x in all_operations(group, r):
                    into_x = grafter(x, j)
                    need = elements[x.hues[j - 1]]
                    for cy in itertools.product(elements, repeat=s):
                        for y in _component(cy, need):
                            inner_need = elements[y.hues[k - 1]]
                            into_xy = grafter(into_x(y), j + k - 1)
                            into_y = grafter(y, k)
                            for cz in itertools.product(elements, repeat=t):
                                for z in _component(cz, inner_need):
                                    lhs = into_xy(z)
                                    rhs = into_x(into_y(z))
                                    yield None if lhs == rhs else \
                                        f"r={r} s={s} t={t} j={j} k={k}"


def _parallel_instances(group, bounds):
    elements = group.elements()
    for r, s, t in _arities(bounds, 3):
        if r < 2:
            continue
        for j in range(1, r + 1):
            for i in range(j + 1, r + 1):
                for x in all_operations(group, r):
                    into_x, into_xi = grafter(x, j), grafter(x, i)
                    # every x o_i z, each with its grafter into slot j
                    xz = [(z, grafter(into_xi(z), j))
                          for cz in itertools.product(elements, repeat=t)
                          for z in _component(cz, elements[x.hues[i - 1]])]
                    for cy in itertools.product(elements, repeat=s):
                        for y in _component(cy, elements[x.hues[j - 1]]):
                            into_xy = grafter(into_x(y), i + s - 1)
                            for z, into_xz in xz:
                                lhs = into_xy(z)
                                rhs = into_xz(y)
                                yield None if lhs == rhs else \
                                    f"r={r} s={s} t={t} j={j} i={i}"


def _unit_instances(group, bounds):
    units = [identity_normal_form(c) for c in group.elements()]
    unit_into = [grafter(unit, 1) for unit in units]
    for r in range(1, bounds.max_arity + 1):
        for x in all_operations(group, r):
            ok = unit_into[x.out](x) == x
            for j in range(1, r + 1):
                ok = ok and compose_normal(x, j, units[x.hues[j - 1]]) == x
            yield None if ok else f"r={r}"


def _equivariance_instances(group, bounds):
    elements = group.elements()
    for r, s in _arities(bounds, 2):
        perms_r = all_permutations(r)
        perms_s = all_permutations(s)
        for j in range(1, r + 1):
            # the cables depend on rho and j alone; perms[0] is the identity
            outer = [(rho, cable_permutation(rho, j, perms_s[0]))
                     for rho in perms_r]
            inner = [(rho, cable_permutation(perms_r[0], j, rho))
                     for rho in perms_s]
            for x in all_operations(group, r):
                into_x = [grafter(x, i) for i in range(1, r + 1)]
                moved = []
                for rho, cable in outer:
                    x_rho = sigma_action(x, rho)
                    moved.append((grafter(x_rho, j), into_x[rho(j) - 1],
                                  elements[x_rho.hues[j - 1]], cable))
                into_xj, need = into_x[j - 1], elements[x.hues[j - 1]]
                for cy in itertools.product(elements, repeat=s):
                    for into_moved, into_x_rho, moved_need, cable in moved:
                        for y in _component(cy, moved_need):
                            lhs = into_moved(y)
                            rhs = sigma_action(into_x_rho(y), cable)
                            yield None if lhs == rhs else \
                                f"outer r={r} s={s} j={j}"
                    ys = _component(cy, need)
                    xys = [into_xj(y) for y in ys]
                    for rho, cable in inner:
                        for y, xy in zip(ys, xys):
                            lhs = into_xj(sigma_action(y, rho))
                            rhs = sigma_action(xy, cable)
                            yield None if lhs == rhs else \
                                f"inner r={r} s={s} j={j}"


_AXIOM_STREAMS = (
    ("sequential-associativity", _sequential_instances),
    ("parallel-associativity", _parallel_instances),
    ("units", _unit_instances),
    ("equivariance", _equivariance_instances),
)

_END = object()


def check_operad_axioms(group: FiniteGroup, bounds: Bounds = Bounds(),
                        max_reported: int = 10) -> dict:
    """Walk each axiom stream over the group up to the instance cap.  A group
    of order above ``bounds.max_order`` raises :class:`OperadError`."""
    if group.order > bounds.max_order:
        raise OperadError(
            f"group order {group.order} exceeds bound {bounds.max_order}")
    cap = bounds.cap
    axioms = []
    complete = True
    for name, stream in _AXIOM_STREAMS:
        it = stream(group, bounds)
        instances, failure_count, failures = tally(
            itertools.islice(it, cap), max_reported)
        if instances == cap and next(it, _END) is not _END:
            complete = False
        axioms.append({
            "axiom": name,
            "instances": instances,
            "failure_count": failure_count,
            "failures": failures,
        })
    return {
        "group": group.label,
        "bounds": asdict(bounds),
        "axioms": axioms,
        "total_failures": sum(a["failure_count"] for a in axioms),
        "complete": complete,
    }
