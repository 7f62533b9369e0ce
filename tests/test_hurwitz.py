"""Decorated-tuple actions: closure, counting, and frozen orbit censuses.

Orbit counts below were frozen only after two independently written
breadth-first searches (the package one and the table-level one in this file)
agreed on the full partition.  The abelian groups at r = 2 additionally match
the count |G|^(r-1); at r = 3 they do not (orbits merge), and the frozen
values are the ones both searches produce.
"""
import itertools
import random

import pytest

from gbraids.braids import BraidWord, Permutation, all_permutations, underlying_permutation
from gbraids.groups import GroupMismatchError, make_group
from gbraids.hurwitz import (
    ColorSignature,
    DecoratedTuple,
    HurwitzError,
    bare_space,
    boundary_colors,
    braid_act,
    color_condition,
    component_objects,
    conjugate_act,
    format_signature,
    format_tuple,
    holonomies,
    hurwitz_generator,
    orbit,
    parse_signature,
    parse_tuple,
    partition,
    pi0_component,
    pi0_hurwitz_space,
)
from gbraids.trees import compose_normal, identity_normal_form


# -- an independent orbit search working on raw index tuples -------------


def _naive_component_partition(group, colors_idx, out_idx):
    mul, inv = group.mul, group.inv
    r = len(colors_idx)

    def condition(state):
        sigma, b = state
        pos_to_slot = {p: k for k, p in enumerate(sigma)}
        acc = 0
        for p in range(r):
            t = mul[mul[b[p]][colors_idx[pos_to_slot[p]]]][inv[b[p]]]
            acc = mul[acc][t]
        return acc

    def move(state, i, sign):
        sigma, b = state
        pos_to_slot = {p: k for k, p in enumerate(sigma)}
        b = list(b)
        if sign > 0:
            g = colors_idx[pos_to_slot[i]]
            hol = mul[mul[b[i]][g]][inv[b[i]]]
            b[i], b[i + 1] = mul[hol][b[i + 1]], b[i]
        else:
            g = colors_idx[pos_to_slot[i + 1]]
            hol = mul[mul[b[i + 1]][g]][inv[b[i + 1]]]
            b[i], b[i + 1] = b[i + 1], mul[inv[hol]][b[i]]
        swapped = tuple(i + 1 if p == i else i if p == i + 1 else p
                        for p in sigma)
        return (swapped, tuple(b))

    points = [(sigma, b)
              for sigma in itertools.permutations(range(r))
              for b in itertools.product(range(group.order), repeat=r)
              if condition((sigma, b)) == out_idx]
    remaining = set(points)
    parts = []
    while remaining:
        seed = next(iter(remaining))
        comp = {seed}
        frontier = [seed]
        while frontier:
            state = frontier.pop()
            for i in range(r - 1):
                for sign in (1, -1):
                    y = move(state, i, sign)
                    if y not in comp:
                        comp.add(y)
                        frontier.append(y)
        parts.append(frozenset(comp))
        remaining -= comp
    return set(parts)


def _as_naive_key(x):
    return (tuple(v - 1 for v in x.sigma.images),
            tuple(e.index for e in x.b))


# -- frozen census -------------------------------------------------------

CENSUS = [
    # group, colors (indices), output (index), #objects, #orbits
    ("C2", (1, 1), 0, 8, 2),
    ("C2", (1, 1, 1), 1, 48, 2),
    ("C3", (1, 1), 2, 18, 3),
    ("C3", (1, 1, 1), 0, 162, 1),
    ("S3", (2, 2), 0, 24, 6),
    ("S3", (2, 5), 4, 24, 2),
    ("S3", (3, 4), 0, 36, 6),
    ("S3", (2, 2, 2), 2, 432, 4),
    ("S3", (2, 5, 1), 5, 432, 4),
    ("S3", (3, 3, 3), 0, 324, 2),
]


@pytest.mark.parametrize("spec,colors_idx,out_idx,n_objects,n_orbits", CENSUS)
def test_component_census(spec, colors_idx, out_idx, n_objects, n_orbits):
    group = make_group(spec)
    colors = tuple(group.element(i) for i in colors_idx)
    out = group.element(out_idx)
    objects = component_objects(colors, out)
    assert len(objects) == n_objects
    orbits = pi0_component(colors, out)
    assert len(orbits) == n_orbits
    assert sum(len(o) for o in orbits) == n_objects
    # the independent table-level search must produce the same partition
    got = {frozenset(_as_naive_key(x) for x in o) for o in orbits}
    want = _naive_component_partition(group, colors_idx, out_idx)
    assert got == want


@pytest.mark.parametrize("spec,r", [("C2", 2), ("C3", 2)])
def test_abelian_orbit_count_at_r2(spec, r):
    group = make_group(spec)
    colors = tuple(group.element(1) for _ in range(r))
    total = group.element(0)
    for c in colors:
        total = total * c
    assert len(pi0_component(colors, total)) == group.order ** (r - 1)


def test_empty_component_when_output_unreachable():
    group = make_group("C2")
    colors = (group.element(1), group.element(1), group.element(1))
    assert component_objects(colors, group.element(0)) == []


def test_component_sizes_by_output():
    group = make_group("S3")
    colors = (group.element(2), group.element(5))
    sizes = {h.index: len(component_objects(colors, h)) for h in group}
    assert sizes == {0: 24, 1: 0, 2: 0, 3: 24, 4: 24, 5: 0}
    assert sum(sizes.values()) == 2 * 6 ** 2


def test_trivial_group_single_orbit():
    group = make_group("C1")
    for r in range(1, 5):
        assert len(pi0_hurwitz_space(group, r)) == 1


def test_bare_space_orbits_c2():
    group = make_group("C2")
    orbits = pi0_hurwitz_space(group, 2)
    keys = {tuple(tuple(e.index for e in x.b) for x in o) for o in orbits}
    assert keys == {(((0, 0)),), ((1, 1),), ((0, 1), (1, 0))}


# -- closure of the boundary data (regression of the pinned convention) --


def test_colored_move_preserves_boundary_exhaustively():
    group = make_group("S3")
    for colors in itertools.product(group.elements(), repeat=2):
        for sigma in all_permutations(2):
            for b in itertools.product(group.elements(), repeat=2):
                x = DecoratedTuple(b, sigma, colors)
                before = boundary_colors(x)
                for letter in (1, -1):
                    after = boundary_colors(hurwitz_generator(x, letter))
                    assert after == before


def test_plain_update_on_colored_tuples_breaks_boundary():
    # the decoration update must insert the arriving color's holonomy; the
    # bare-style update b_j b_{j+1} b_j^{-1} does not close on the boundary
    group = make_group("S3")
    violations = 0
    for colors in itertools.product(group.elements(), repeat=2):
        for sigma in all_permutations(2):
            for b in itertools.product(group.elements(), repeat=2):
                wrong_b = (b[0] * b[1] * b[0].inverse(), b[0])
                wrong = DecoratedTuple(
                    wrong_b, Permutation.transposition(1, 2) @ sigma, colors)
                x = DecoratedTuple(b, sigma, colors)
                if boundary_colors(wrong) != boundary_colors(x):
                    violations += 1
    assert violations > 0


def test_generators_are_mutually_inverse():
    group = make_group("S3")
    rng = random.Random(3)
    for _ in range(60):
        r = rng.randint(2, 4)
        x = _random_colored(group, r, rng)
        j = rng.randint(1, r - 1)
        assert hurwitz_generator(hurwitz_generator(x, j), -j) == x
        assert hurwitz_generator(hurwitz_generator(x, -j), j) == x


def _random_colored(group, r, rng):
    colors = tuple(group.element(rng.randrange(group.order)) for _ in range(r))
    b = tuple(group.element(rng.randrange(group.order)) for _ in range(r))
    images = list(range(1, r + 1))
    rng.shuffle(images)
    return DecoratedTuple(b, Permutation(tuple(images)), colors)


def test_braid_relation_on_colored_tuples():
    group = make_group("S3")
    rng = random.Random(9)
    u = BraidWord(3, (1, 2, 1))
    v = BraidWord(3, (2, 1, 2))
    for _ in range(40):
        x = _random_colored(group, 3, rng)
        assert braid_act(u, x) == braid_act(v, x)


def test_braid_act_is_an_action():
    group = make_group("S3")
    rng = random.Random(17)
    for _ in range(30):
        r = rng.randint(2, 4)
        x = _random_colored(group, r, rng)
        mk = lambda: BraidWord(r, tuple(
            rng.choice([1, -1]) * rng.randint(1, r - 1)
            for _ in range(rng.randint(0, 6))))
        u, v = mk(), mk()
        assert braid_act(u * v, x) == braid_act(u, braid_act(v, x))
        assert braid_act(u, x).sigma == underlying_permutation(u) @ x.sigma


def test_holonomies_intertwine_with_bare_move():
    group = make_group("S3")
    rng = random.Random(29)
    for _ in range(40):
        r = rng.randint(2, 4)
        x = _random_colored(group, r, rng)
        w = BraidWord(r, tuple(rng.choice([1, -1]) * rng.randint(1, r - 1)
                               for _ in range(rng.randint(1, 6))))
        assert holonomies(braid_act(w, x)) == \
            braid_act(w, DecoratedTuple(holonomies(x))).b


def test_bare_move_pinned():
    group = make_group("S3")
    a, c = group.element(2), group.element(5)  # two transpositions
    x = DecoratedTuple((a, c))
    y = hurwitz_generator(x, 1)
    assert y.b == (a * c * a.inverse(), a)
    assert hurwitz_generator(y, -1) == x
    assert boundary_colors(y).output == boundary_colors(x).output


def test_conjugate_act_commutes_and_conjugates_boundary():
    group = make_group("S3")
    rng = random.Random(41)
    for _ in range(30):
        r = rng.randint(2, 3)
        h = group.element(rng.randrange(group.order))
        for x in (_random_colored(group, r, rng),
                  DecoratedTuple(_random_colored(group, r, rng).b)):
            w = BraidWord(r, (rng.choice([1, -1]) * rng.randint(1, r - 1),))
            assert conjugate_act(h, braid_act(w, x)) == \
                braid_act(w, conjugate_act(h, x))
            assert boundary_colors(conjugate_act(h, x)).output == \
                h * boundary_colors(x).output * h.inverse()


def test_orbit_canonical_representative_is_minimum():
    group = make_group("S3")
    colors = (group.element(2), group.element(5))
    objs = component_objects(colors, group.element(4))
    o = orbit(objs[0])
    assert o[0] == min(o)
    assert all(o[i] < o[i + 1] for i in range(len(o) - 1))
    for x in objs:
        assert orbit(x) == orbit(braid_act(BraidWord(2, (1, 1)), x))


def test_conjugate_act_rejects_mixed_groups():
    s3, c2 = make_group("S3"), make_group("C2")
    bare = DecoratedTuple((s3.element(2), s3.element(5)))
    colored = DecoratedTuple(bare.b, Permutation((2, 1)),
                             (s3.element(1), s3.element(3)))
    for x in (bare, colored):
        with pytest.raises(GroupMismatchError):
            conjugate_act(c2.element(1), x)


# -- the orbit search on int states --------------------------------------


def test_orbits_are_closed_under_both_signs_of_every_generator():
    # the search follows positive moves only; hurwitz_generator applies
    # both signs on its own, so a closed orbit shows that positive moves
    # reach everything the braid group does
    rng = random.Random(53)
    s3, d4 = make_group("S3"), make_group("D4")
    starts = [DecoratedTuple(tuple(s3.element(rng.randrange(6))
                                   for _ in range(4))) for _ in range(2)]
    starts += [_random_colored(s3, 4, rng) for _ in range(2)]
    starts += [_random_colored(d4, 3, rng) for _ in range(2)]
    for x in starts:
        o = orbit(x)
        points = set(o)
        assert x in points and len(points) == len(o)
        for y in o:
            for j in range(1, y.size):
                assert hurwitz_generator(y, j) in points
                assert hurwitz_generator(y, -j) in points


def test_only_the_public_constructor_runs_the_checks(monkeypatch):
    """bench/spans.py counts checked builds by wrapping the class-level
    ``__post_init__``; the index-level producers must not reach it."""
    calls = []
    checks = DecoratedTuple.__post_init__

    def counting(self, *args):
        calls.append(args)
        return checks(self, *args)

    monkeypatch.setattr(DecoratedTuple, "__post_init__", counting)
    s3 = make_group("S3")
    x = _random_colored(s3, 3, random.Random(61))
    assert len(calls) == 1
    calls.clear()
    hurwitz_generator(x, 1)
    hurwitz_generator(x, -2)
    partition(component_objects(x.colors, boundary_colors(x).output))
    partition(bare_space(s3, 2))
    compose_normal(x, 2, identity_normal_form(x.colors[1]))
    assert calls == []


def test_partition_sorts_orders_and_covers():
    s3 = make_group("S3")
    colors = tuple(s3.element(i) for i in (2, 5, 1))
    for points in (component_objects(colors, s3.element(5)),
                   bare_space(s3, 3)):
        orbits = partition(points)
        for o in orbits:
            keys = [x.sort_key() for x in o]
            assert keys == sorted(keys)
        reps = [o[0].sort_key() for o in orbits]
        assert reps == sorted(set(reps))
        flat = [x for o in orbits for x in o]
        assert len(flat) == len(set(flat)) == len(points)
        assert set(flat) == set(points)
        assert partition(reversed(points)) == orbits


def test_partition_edge_cases():
    assert partition([]) == []
    s3 = make_group("S3")
    for points in (component_objects((), s3.identity),
                   component_objects((s3.element(3),), s3.element(4)),
                   bare_space(s3, 0), bare_space(s3, 1)):
        assert points
        assert partition(points) == [(x,) for x in points]
    # the size-0 points: equal to their checked builds, and without boundary
    empty_colored, = component_objects((), s3.identity)
    empty_bare, = bare_space(s3, 0)
    assert empty_colored == DecoratedTuple((), Permutation(()), ())
    assert empty_bare == DecoratedTuple(())
    for x in (empty_colored, empty_bare):
        with pytest.raises(HurwitzError, match="empty point"):
            boundary_colors(x)
    with pytest.raises(HurwitzError, match="empty point"):
        color_condition(Permutation(()), (), ())


def test_color_condition_matches_spec_example():
    group = make_group("S3")
    sigma = Permutation((2, 1))
    b = (group.element(2), group.element(0))
    colors = (group.element(3), group.element(5))
    # position 1 holds slot 2, position 2 holds slot 1
    want = (b[0] * colors[1] * b[0].inverse()) * (b[1] * colors[0] * b[1].inverse())
    assert color_condition(sigma, b, colors) == want


def test_component_objects_match_the_table_filter_in_sorted_order():
    """The enumeration gives exactly the states that the raw-index condition
    accepts, in sorted order."""
    for spec, colors_idx in (("C2", ()), ("C2", (1,)), ("C3", (1, 2, 0)),
                             ("S3", (2, 5, 1)), ("D4", (1, 4)),
                             ("C2xC2", (1, 2, 3))):
        group = make_group(spec)
        mul, inv = group.mul, group.inv
        r = len(colors_idx)
        colors = tuple(group.element(i) for i in colors_idx)
        for out in group:
            want = []
            for sigma in itertools.permutations(range(1, r + 1)):
                slot_at = {p: k for k, p in enumerate(sigma)}
                for b in itertools.product(range(group.order), repeat=r):
                    acc = 0
                    for p in range(r):
                        g = colors_idx[slot_at[p + 1]]
                        acc = mul[acc][mul[mul[b[p]][g]][inv[b[p]]]]
                    if acc == out.index:
                        want.append((sigma, b))
            got = component_objects(colors, out)
            assert [(x.sigma.images, tuple(e.index for e in x.b))
                    for x in got] == want
            assert got == sorted(got)


def test_color_condition_and_component_objects_reject_mixed_groups():
    s3, c2 = make_group("S3"), make_group("C2")
    sigma = Permutation((2, 1))
    s3_pair = (s3.element(2), s3.element(5))
    c2_pair = (c2.element(1), c2.element(0))
    with pytest.raises(GroupMismatchError):
        color_condition(sigma, c2_pair, s3_pair)
    with pytest.raises(GroupMismatchError):
        color_condition(sigma, s3_pair, c2_pair)
    with pytest.raises(GroupMismatchError):
        color_condition(sigma, (s3.element(1), c2.element(1)), s3_pair)
    with pytest.raises(GroupMismatchError):
        color_condition(sigma, s3_pair, (s3.element(1), c2.element(1)))
    with pytest.raises(GroupMismatchError):
        component_objects(s3_pair, c2.element(0))
    with pytest.raises(GroupMismatchError):
        component_objects((s3.element(2), c2.element(1)), s3.element(0))


# -- parsing -------------------------------------------------------------


def test_tuple_parse_roundtrip():
    group = make_group("S3")
    t = parse_tuple("2, 5, 0", group)
    assert tuple(e.index for e in t) == (2, 5, 0)
    assert parse_tuple(format_tuple(t), group) == t
    assert parse_tuple("", group) == ()


def test_signature_parse_roundtrip():
    group = make_group("S3")
    sig = parse_signature("2,5->4", group)
    assert isinstance(sig, ColorSignature)
    assert tuple(e.index for e in sig.inputs) == (2, 5)
    assert sig.output.index == 4
    assert parse_signature(format_signature(sig), group) == sig


def test_parse_errors():
    group = make_group("S3")
    for bad in ("2,x", "9", "2;5"):
        with pytest.raises(Exception):
            parse_tuple(bad, group)
    for bad in ("2,5", "2,5->x", "->", "2,5->9"):
        with pytest.raises(Exception):
            parse_signature(bad, group)


def test_decorated_tuple_validation():
    group = make_group("S3")
    e = group.element(0)
    with pytest.raises(Exception):
        DecoratedTuple((e, e), sigma=Permutation((1, 2)))  # colors missing
    with pytest.raises(Exception):
        DecoratedTuple((e, e), Permutation((1, 2, 3)), (e, e))
    other = make_group("C2")
    with pytest.raises(Exception):
        DecoratedTuple((e, other.element(0)))
