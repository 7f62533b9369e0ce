"""Fibered groupoids over a braid-action base, and their flattening.

A *presentation* is a groupoid given by computable data: a finite object set,
generating arrows indexed by source once (``by_source``), and total functions
``identity``, ``inverse`` and ``compose_fn`` (called by ``compose`` once the
arrows meet).  Labels are canonical, so equality of morphisms is decidable.

``grothendieck`` flattens a base groupoid acting on fiber groupoids: objects
are pairs ``(y, x)`` with x in the fiber over y, an arrow ``(g, f): (y0, x0)
-> (y1, x1)`` has ``g: y0 -> y1`` in the base and ``f: x0 -> g^{-1}.x1`` in
the fiber over y0, and ``(g1, f1) o (g0, f0) = (g1 g0, (g0^{-1}.f1) o f0)``.

The Hurwitz instance runs on index states: one-line permutation images acted
on by canonical letter tuples, and ``bare_space`` states of ``G^r`` acted on
by conjugation with element indices.  Base arrows move states by the bare
Hurwitz move, memoized per (letters, state), and leave fiber labels alone, so
the flattening agrees with the componentwise rule ``(c1 c0, h1 h0)`` of
``hurwitz_direct_presentation``.  All three presentations come from one
action-groupoid builder; a composite's letters are the canonical form of the
concatenation, memoized per letters over ``normal_form``, as are inverses.
"""
from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

from .braids import BraidWord, Permutation, normal_form
from .groups import FiniteGroup
from .hurwitz import _move


class GroupoidError(ValueError):
    pass


class Arrow(NamedTuple):
    source: object
    target: object
    label: object


# ``Arrow`` from one (source, target, label) tuple, built in C rather than
# by the NamedTuple's Python-level ``__new__``
_arrow = functools.partial(tuple.__new__, Arrow)


@dataclass(eq=False)
class FiniteGroupoidPresentation:
    objects: tuple
    generators: tuple[Arrow, ...]
    compose_fn: Callable[[Arrow, Arrow], Arrow] = field(repr=False)
    identity: Callable[[object], Arrow] = field(repr=False)
    inverse: Callable[[Arrow], Arrow] = field(repr=False)
    # source object -> the generators leaving it, in generator order
    by_source: dict = field(init=False, repr=False)

    def __post_init__(self):
        self.by_source = {}
        for a in self.generators:
            self.by_source.setdefault(a.source, []).append(a)

    def compose(self, second: Arrow, first: Arrow) -> Arrow:
        """``second o first`` (first acts first)."""
        if first.target != second.source:
            raise GroupoidError("arrows are not composable")
        return self.compose_fn(second, first)


def check_groupoid_axioms(pres: FiniteGroupoidPresentation,
                          triple_cap: int = 2000) -> dict:
    """Exercise unit, inverse, endpoint, and associativity laws on the
    generating arrows; associativity over at most ``triple_cap`` composable
    triples, taken in deterministic order."""
    failures = []
    objects = set(pres.objects)

    def fail(axiom, detail):
        failures.append({"axiom": axiom, "detail": detail})

    for a in pres.generators:
        if a.source not in objects or a.target not in objects:
            fail("endpoints", repr(a))
        li = pres.compose(pres.identity(a.target), a)
        ri = pres.compose(a, pres.identity(a.source))
        if li != a:
            fail("left-unit", repr(a))
        if ri != a:
            fail("right-unit", repr(a))
        inv = pres.inverse(a)
        if (inv.source, inv.target) != (a.target, a.source):
            fail("inverse-endpoints", repr(a))
        if pres.compose(inv, a) != pres.identity(a.source):
            fail("left-inverse", repr(a))
        if pres.compose(a, inv) != pres.identity(a.target):
            fail("right-inverse", repr(a))

    pairs = [(b, a) for a in pres.generators
             for b in pres.by_source.get(a.target, ())]
    for b, a in pairs:
        c = pres.compose(b, a)
        if (c.source, c.target) != (a.source, b.target):
            fail("composite-endpoints", f"{a!r}; {b!r}")
    triples = ((c, b, a) for b, a in pairs
               for c in pres.by_source.get(b.target, ()))
    checked_triples = 0
    for c, b, a in itertools.islice(triples, triple_cap):
        if pres.compose(c, pres.compose(b, a)) != \
                pres.compose(pres.compose(c, b), a):
            fail("associativity", f"{a!r}; {b!r}; {c!r}")
        checked_triples += 1
    return {
        "generators": len(pres.generators),
        "pairs": len(pairs),
        "triples": checked_triples,
        "failures": failures,
    }


# -- the Grothendieck construction ---------------------------------------


@dataclass(eq=False)
class FiberedSystem:
    base: FiniteGroupoidPresentation
    fiber: Callable[[object], FiniteGroupoidPresentation]
    act_object: Callable[[Arrow, object], object]
    act_arrow: Callable[[Arrow, Arrow], Arrow]


def grothendieck(system: FiberedSystem) -> FiniteGroupoidPresentation:
    base = system.base
    fibers = {y: system.fiber(y) for y in base.objects}
    objects = tuple((y, x) for y in base.objects for x in fibers[y].objects)

    def compose(second: Arrow, first: Arrow) -> Arrow:
        g0, f0 = first.label
        g1, f1 = second.label
        g = base.compose(g1, g0)
        pulled = system.act_arrow(base.inverse(g0), f1)
        f = fibers[first.source[0]].compose(pulled, f0)
        return _arrow((first.source, second.target, (g, f)))

    def identity(obj) -> Arrow:
        y, x = obj
        return _arrow((obj, obj, (base.identity(y), fibers[y].identity(x))))

    def inverse(arrow: Arrow) -> Arrow:
        g, f = arrow.label
        finv = fibers[arrow.source[0]].inverse(f)
        return _arrow((arrow.target, arrow.source,
                       (base.inverse(g), system.act_arrow(g, finv))))

    generators = []
    for y in base.objects:
        fib = fibers[y]
        for x in fib.objects:
            for g in base.by_source.get(y, ()):
                # horizontal lift: fiber part is an identity
                generators.append(_arrow((
                    (y, x), (g.target, system.act_object(g, x)),
                    (g, fib.identity(x)))))
            for f in fib.by_source.get(x, ()):
                generators.append(_arrow((
                    (y, x), (y, f.target), (base.identity(y), f))))
    return FiniteGroupoidPresentation(objects, tuple(generators),
                                      compose, identity, inverse)


# -- the braid-on-tuples instance ----------------------------------------


def _action_groupoid(objects, generators, mul, inv, unit) -> FiniteGroupoidPresentation:
    """Arrows whose labels compose by ``mul(second, first)``, with identity
    label ``unit`` and inverse label ``inv(label)``."""
    def compose(second: Arrow, first: Arrow) -> Arrow:
        return _arrow((first.source, second.target,
                       mul(second.label, first.label)))

    def identity(x) -> Arrow:
        return _arrow((x, x, unit))

    def inverse(arrow: Arrow) -> Arrow:
        return _arrow((arrow.target, arrow.source, inv(arrow.label)))

    return FiniteGroupoidPresentation(objects, tuple(generators),
                                      compose, identity, inverse)


def _braid_side(r: int):
    """Permutation images; the canonical letters of a letter tuple and of its
    inverse, memoized over ``normal_form``; moves (j, t_j, s_j)."""
    canonical = functools.cache(
        lambda letters: normal_form(BraidWord._trusted(r, letters)).letters)
    invert = functools.cache(
        lambda letters: canonical(tuple([-l for l in reversed(letters)])))
    moves = [(j, Permutation.transposition(j, r).images, canonical((j,)))
             for j in range(1, r)]
    return tuple(itertools.permutations(range(1, r + 1))), canonical, invert, moves


def permutation_base(r: int) -> FiniteGroupoidPresentation:
    """Permutations of r positions; arrows are canonical letter tuples acting
    by left multiplication of the underlying permutation."""
    objects, canonical, invert, moves = _braid_side(r)
    generators = (_arrow((y, tuple([t[v - 1] for v in y]), word))
                  for y in objects for _, t, word in moves)
    return _action_groupoid(objects, generators,
                            lambda second, first: canonical(second + first),
                            invert, ())


def conjugation_fiber(group: FiniteGroup, r: int) -> FiniteGroupoidPresentation:
    """The states of ``G^r``, in ``bare_space`` order, with arrows labeled by
    element indices acting by simultaneous conjugation."""
    objects = tuple(itertools.product(range(group.order), repeat=r))
    mul, conj = group.mul, group.conj
    generators = (_arrow((x, tuple([conj[h][v] for v in x]), h))
                  for x in objects for h in range(group.order))
    return _action_groupoid(objects, generators,
                            lambda second, first: mul[second][first],
                            group.inv.__getitem__, 0)


def hurwitz_fibered_system(group: FiniteGroup, r: int) -> FiberedSystem:
    fiber = conjugation_fiber(group, r)

    @functools.cache  # one memo per system, keyed by (letters, state)
    def act(letters: tuple, x: tuple) -> tuple:
        for l in reversed(letters):  # the rightmost letter acts first
            x = _move(x, l, group, None)
        return x

    def act_arrow(g: Arrow, f: Arrow) -> Arrow:
        return _arrow((act(g.label, f.source), act(g.label, f.target),
                       f.label))

    return FiberedSystem(permutation_base(r), lambda y: fiber,
                         lambda g, x: act(g.label, x), act_arrow)


def hurwitz_direct_presentation(group: FiniteGroup, r: int) -> FiniteGroupoidPresentation:
    """The flattened groupoid written down directly: arrows are labeled by
    canonical letters and an element index, composed componentwise."""
    perms, canonical, invert, moves = _braid_side(r)
    objects = tuple(itertools.product(
        perms, itertools.product(range(group.order), repeat=r)))
    mul, inv, conj = group.mul, group.inv, group.conj
    generators = []
    for obj in objects:
        y, x = obj
        generators += [_arrow((obj, (tuple([t[v - 1] for v in y]),
                                     _move(x, j, group, None)), (word, 0)))
                       for j, t, word in moves]
        generators += [_arrow((obj, (y, tuple([conj[h][v] for v in x])),
                               ((), h))) for h in range(group.order)]
    return _action_groupoid(
        objects, generators,
        lambda second, first: (canonical(second[0] + first[0]),
                                mul[second[1]][first[1]]),
        lambda label: (invert(label[0]), inv[label[1]]), ((), 0))


def flatten_label(arrow: Arrow) -> tuple:
    """The (canonical letters, element index) pair of a flattened arrow."""
    return arrow.label[0].label, arrow.label[1].label


def compare_presentations(flat: FiniteGroupoidPresentation,
                          direct: FiniteGroupoidPresentation) -> dict:
    """Check that the Grothendieck flattening and the direct componentwise
    presentation agree: same objects, label-matched generators with the same
    endpoints, and equal labels for every composable generator pair."""
    failures = []
    if set(flat.objects) != set(direct.objects):
        failures.append({"stage": "objects", "detail": "object sets differ"})
    # source -> (flat generator, its direct twin) for every matched generator
    twins = {}
    for source, arrows in flat.by_source.items():
        index = {(d.target, d.label): d
                 for d in direct.by_source.get(source, ())}
        twins[source] = matched = []
        for a in arrows:
            key = (a.target, flatten_label(a))
            hit = index.get(key)
            if hit is None:
                failures.append({"stage": "generators",
                                 "detail": repr((source, *key))})
            else:
                matched.append((a, hit))
    compositions = 0
    for matched in twins.values():
        for a, da in matched:
            for b, db in twins.get(a.target, ()):
                left = flat.compose(b, a)
                right = direct.compose(db, da)
                compositions += 1
                got = (left.source, left.target, flatten_label(left))
                if got != (right.source, right.target, right.label):
                    failures.append({"stage": "composition", "detail":
                                     f"{got[2]!r} != {right.label!r}"})
    return {
        "objects": len(flat.objects),
        "generators": len(flat.generators),
        "compositions": compositions,
        "failures": failures,
    }


def compare_grothendieck_to_direct(group: FiniteGroup, r: int) -> dict:
    flat = grothendieck(hurwitz_fibered_system(group, r))
    direct = hurwitz_direct_presentation(group, r)
    return compare_presentations(flat, direct)
