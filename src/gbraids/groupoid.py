"""Fibered groupoids over a braid-action base, and their flattening.

A *presentation* here is a groupoid given by computable data: a finite object
set, a finite generating set of arrows, and total functions for identity and
inverse (the fields ``identity`` and ``inverse``) and for composition of
composable arrows (``compose``, which checks that the arrows meet before it
calls ``compose_fn``).  Each presentation groups its generators by source
once, when it is built (``by_source``, in generator order); the flattening,
the axiom check and the comparison read that index.  Arrow labels are
required to be canonical (equal arrows carry equal labels), which makes
equality of morphisms decidable; for braid-word labels this is supplied by
the Garside normal form, behind one memo per presentation, since its
compositions meet the same few words again and again.

``grothendieck`` flattens a base groupoid acting on a family of fiber
groupoids into a single groupoid: objects are pairs ``(y, x)`` with x in the
fiber over y, an arrow ``(g, f): (y0, x0) -> (y1, x1)`` has ``g: y0 -> y1``
in the base and ``f: x0 -> g^{-1}.x1`` in the fiber over y0, and composition
is

    ``(g1, f1) o (g0, f0)  =  (g1 g0, (g0^{-1}.f1) o f0)``.

The stock example: base objects are the permutations of r positions with
arrows labeled by canonical braid words acting by left multiplication; each
fiber is ``G^r`` with arrows labeled by group elements acting by simultaneous
conjugation; base arrows act on fiber objects by the bare decorated-tuple
move and leave fiber labels alone.  Because the base action does not touch
labels, the flattened composition collapses to the componentwise rule
``(c1 c0, h1 h0)``, realized by ``hurwitz_direct_presentation`` and verified
generator-by-generator in ``compare_presentations``.
"""
from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from typing import Callable

from .braids import BraidWord, Permutation, all_permutations, normal_form
from .groups import FiniteGroup
from .hurwitz import DecoratedTuple, bare_space, braid_act, conjugate_act


class GroupoidError(ValueError):
    pass


@dataclass(frozen=True)
class Arrow:
    source: object
    target: object
    label: object


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
        return Arrow(first.source, second.target, (g, f))

    def identity(obj) -> Arrow:
        y, x = obj
        return Arrow(obj, obj, (base.identity(y), fibers[y].identity(x)))

    def inverse(arrow: Arrow) -> Arrow:
        g, f = arrow.label
        finv = fibers[arrow.source[0]].inverse(f)
        return Arrow(arrow.target, arrow.source,
                     (base.inverse(g), system.act_arrow(g, finv)))

    generators = []
    for y in base.objects:
        fib = fibers[y]
        for x in fib.objects:
            for g in base.by_source.get(y, ()):
                # horizontal lift: fiber part is an identity
                generators.append(Arrow(
                    (y, x), (g.target, system.act_object(g, x)),
                    (g, fib.identity(x))))
            for f in fib.by_source.get(x, ()):
                generators.append(Arrow(
                    (y, x), (y, f.target), (base.identity(y), f)))
    return FiniteGroupoidPresentation(objects, tuple(generators),
                                      compose, identity, inverse)


# -- the braid-on-tuples instance ----------------------------------------


def permutation_base(r: int) -> FiniteGroupoidPresentation:
    """Permutations of r positions; arrows are canonical braid words acting
    by left multiplication of the underlying permutation."""
    objects = tuple(all_permutations(r))
    canonical = functools.cache(normal_form)  # one memo per presentation

    def compose(second: Arrow, first: Arrow) -> Arrow:
        return Arrow(first.source, second.target,
                     canonical(second.label * first.label))

    def identity(sigma) -> Arrow:
        return Arrow(sigma, sigma, BraidWord.identity(r))

    def inverse(arrow: Arrow) -> Arrow:
        return Arrow(arrow.target, arrow.source,
                     canonical(arrow.label.inverse()))

    moves = [(Permutation.transposition(j, r), canonical(BraidWord(r, (j,))))
             for j in range(1, r)]
    generators = tuple(Arrow(sigma, t @ sigma, word)
                       for sigma in objects for t, word in moves)
    return FiniteGroupoidPresentation(objects, generators,
                                      compose, identity, inverse)


def conjugation_fiber(group: FiniteGroup, r: int) -> FiniteGroupoidPresentation:
    """Tuples in ``G^r`` with arrows labeled by group elements acting by
    simultaneous conjugation."""
    objects = bare_space(group, r)

    def compose(second: Arrow, first: Arrow) -> Arrow:
        return Arrow(first.source, second.target,
                     second.label * first.label)

    def identity(x) -> Arrow:
        return Arrow(x, x, group.identity)

    def inverse(arrow: Arrow) -> Arrow:
        return Arrow(arrow.target, arrow.source, arrow.label.inverse())

    generators = tuple(Arrow(x, conjugate_act(h, x), h)
                       for x in objects for h in group)
    return FiniteGroupoidPresentation(objects, generators,
                                      compose, identity, inverse)


def hurwitz_fibered_system(group: FiniteGroup, r: int) -> FiberedSystem:
    base = permutation_base(r)
    fiber = conjugation_fiber(group, r)

    def act_object(g: Arrow, x: DecoratedTuple) -> DecoratedTuple:
        return braid_act(g.label, x)

    def act_arrow(g: Arrow, f: Arrow) -> Arrow:
        # the braid direction moves tuples but leaves conjugation labels alone
        return Arrow(act_object(g, f.source), act_object(g, f.target), f.label)

    return FiberedSystem(base, lambda y: fiber, act_object, act_arrow)


def hurwitz_direct_presentation(group: FiniteGroup, r: int) -> FiniteGroupoidPresentation:
    """The flattened groupoid written down directly: arrows are labeled by a
    canonical braid word and a group element, composed componentwise."""
    space = bare_space(group, r)
    objects = tuple((y, x) for y in all_permutations(r) for x in space)
    canonical = functools.cache(normal_form)  # one memo per presentation

    def compose(second: Arrow, first: Arrow) -> Arrow:
        c0, h0 = first.label
        c1, h1 = second.label
        return Arrow(first.source, second.target,
                     (canonical(c1 * c0), h1 * h0))

    def identity(obj) -> Arrow:
        return Arrow(obj, obj, (BraidWord.identity(r), group.identity))

    def inverse(arrow: Arrow) -> Arrow:
        c, h = arrow.label
        return Arrow(arrow.target, arrow.source,
                     (canonical(c.inverse()), h.inverse()))

    moves = [(Permutation.transposition(j, r), canonical(BraidWord(r, (j,))))
             for j in range(1, r)]
    unit = BraidWord.identity(r)
    generators = []
    for obj in objects:
        y, x = obj
        for t, word in moves:
            generators.append(Arrow(obj, (t @ y, braid_act(word, x)),
                                    (word, group.identity)))
        for h in group:
            generators.append(Arrow(obj, (y, conjugate_act(h, x)), (unit, h)))
    return FiniteGroupoidPresentation(objects, tuple(generators),
                                      compose, identity, inverse)


def flatten_label(arrow: Arrow) -> tuple:
    """Forget the endpoint bookkeeping of a flattened arrow, keeping the
    (canonical word, group element) pair."""
    g, f = arrow.label
    return (g.label, f.label)


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
