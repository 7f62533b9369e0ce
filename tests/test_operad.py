import itertools
import random

import pytest

import gbraids.operad
import gbraids.trees
from gbraids.braids import BraidWord, Permutation, all_permutations, cable_compose
from gbraids.groups import make_group
from gbraids.hurwitz import (DecoratedTuple, bare_space, braid_act,
                             color_condition, component_objects,
                             conjugate_act, hurwitz_generator, orbit,
                             partition, pi0_component)
from gbraids.operad import (Bounds, OperadError, all_operations,
                            check_operad_axioms, sigma_action)
from gbraids.trees import (TreeError, compose_normal, denormalize, grafter,
                           identity_normal_form, normalize)

S3 = make_group("S3")
C2 = make_group("C2")


def random_operation(group, r, rng):
    els = group.elements()
    return DecoratedTuple(tuple(rng.choice(els) for _ in range(r)),
                          rng.choice(all_permutations(r)),
                          tuple(rng.choice(els) for _ in range(r)))


def output(x):
    return color_condition(x.sigma, x.b, x.colors)


def random_filler(group, color, s, rng):
    """A random arity-s operation whose output is the required color."""
    while True:
        y = random_operation(group, s, rng)
        if output(y) == color:
            return y


def centralizer_order(group, g):
    return sum(1 for h in group.elements() if h * g == g * h)


def test_arity_one_endomorphisms_are_centralizers():
    for g in S3.elements():
        ops = component_objects((g,), g)
        assert len(ops) == centralizer_order(S3, g)
        for x in ops:
            assert x.b[0] * g == g * x.b[0]


def test_arity_one_off_diagonal_components_are_conjugations():
    g = S3.element(2)   # a transposition
    h = S3.element(1)   # a conjugate transposition
    ops = component_objects((g,), h)
    # conjugates of g equal to h: the operations are the b with b g b^-1 = h
    assert len(ops) == centralizer_order(S3, g)
    for x in ops:
        assert x.b[0] * g * x.b[0].inverse() == h


def test_arity_one_composition_multiplies_decorations():
    rng = random.Random(3)
    for _ in range(50):
        y = random_operation(S3, 1, rng)
        x = random_operation(S3, 1, rng)
        x = DecoratedTuple(x.b, x.sigma, (output(y),))
        z = compose_normal(x, 1, y)
        assert z.b == (x.b[0] * y.b[0],)
        assert z.colors == y.colors


def test_identity_is_the_trivial_decoration():
    e = S3.identity
    g = S3.element(2)
    one = identity_normal_form(g)
    assert one == DecoratedTuple((e,), Permutation.identity(1), (g,))
    assert output(one) == g


def carries_its_output(x):
    """A colored point carries the index of its boundary output (0 when it
    is empty); a bare point carries None."""
    if x.is_bare():
        return x.out is None
    return x.out == (output(x).index if x.size else 0)


@pytest.mark.parametrize("spec, max_r", [("C2", 3), ("S3", 2)])
def test_carried_output_is_the_holonomy_product(spec, max_r):
    # every point is in exactly one component; the oracle is color_condition
    group = make_group(spec)
    els = group.elements()
    for c in els:
        unit = identity_normal_form(c)
        assert unit.out == c.index == output(unit).index
    empty = DecoratedTuple((), Permutation.identity(0), ())
    assert empty.out == 0 and DecoratedTuple(()).out is None
    for r in range(1, max_r + 1):
        perms = all_permutations(r)
        word = BraidWord(r, tuple(range(1, r)) + tuple(range(-1, -r, -1)))
        points = []
        for colors in itertools.product(els, repeat=r):
            for g in els:
                component = component_objects(colors, g)
                for x in component:
                    assert x.out == g.index == output(x).index
                    checked = DecoratedTuple(x.b, x.sigma, x.colors)
                    assert checked.out == x.out
                    assert x == checked and hash(x) == hash(checked)
                    assert not x < checked and not checked < x
                    assert normalize(denormalize(x)).out == x.out
                    for j in range(1, r):
                        for letter in (j, -j):
                            assert carries_its_output(
                                hurwitz_generator(x, letter))
                    assert carries_its_output(braid_act(word, x))
                    for h in els:
                        assert carries_its_output(conjugate_act(h, x))
                    points.append(x)
                for o in partition(component):
                    assert all(y.out == g.index for y in o)
                if component:
                    assert all(y.out == g.index for y in orbit(component[-1]))
        operations = list(all_operations(group, r))
        assert all(map(carries_its_output, operations))
        assert sorted(points) == sorted(operations)
        for x in points:
            for rho in perms:
                moved = sigma_action(x, rho)
                assert moved.out == output(moved).index
            for j in range(1, r + 1):
                need = els[x.hues[j - 1]]
                splice = grafter(x, j)
                for s in range(1, max_r):
                    for colors in itertools.product(els, repeat=s):
                        for y in component_objects(colors, need):
                            z = compose_normal(x, j, y)
                            assert z.out == output(z).index
                            assert splice(y).out == z.out
        # bare points carry no output, whoever builds them
        for y in bare_space(group, r):
            assert carries_its_output(DecoratedTuple(y.b))
            assert carries_its_output(conjugate_act(els[-1], y))
            assert carries_its_output(braid_act(word, y))
            for j in range(1, r):
                assert carries_its_output(hurwitz_generator(y, -j))
        for o in partition(bare_space(group, r)):
            assert all(map(carries_its_output, o))


def test_compose_normal_checks_the_inner_output_of_a_checked_build():
    g, h = S3.element(1), S3.element(2)
    x = identity_normal_form(g)
    built = component_objects((h,), h)[0]
    checked = DecoratedTuple(built.b, built.sigma, built.colors)
    assert checked.out == built.out == h.index
    for y in (built, checked):
        with pytest.raises(TreeError):
            compose_normal(x, 1, y)


def test_sigma_action_is_a_right_action():
    rng = random.Random(7)
    perms = all_permutations(3)
    for _ in range(100):
        x = random_operation(S3, 3, rng)
        rho, tau = rng.choice(perms), rng.choice(perms)
        assert sigma_action(sigma_action(x, rho), tau) == \
            sigma_action(x, rho @ tau)
        assert sigma_action(x, Permutation.identity(3)) == x


def test_sigma_action_preserves_output_and_multiset():
    rng = random.Random(8)
    for _ in range(100):
        x = random_operation(S3, 3, rng)
        rho = rng.choice(all_permutations(3))
        y = sigma_action(x, rho)
        assert output(y) == output(x)
        assert sorted(y.colors) == sorted(x.colors)
        assert y.b == x.b


def test_sigma_action_size_mismatch():
    rng = random.Random(1)
    x = random_operation(S3, 2, rng)
    with pytest.raises(OperadError):
        sigma_action(x, Permutation.identity(3))


def test_group_order_bound_enforced():
    with pytest.raises(OperadError):
        check_operad_axioms(make_group("D4"), Bounds(max_order=6))


def patch_splices(monkeypatch, wrap):
    """Route every splice of the axiom streams, those made through
    ``compose_normal`` included, through ``wrap(splice)``."""
    def wrapped(outer, j):
        return wrap(grafter(outer, j))

    monkeypatch.setattr(gbraids.trees, "grafter", wrapped)
    monkeypatch.setattr(gbraids.operad, "grafter", wrapped)


def broken(z):
    """A wrong splice result: for the composites of size two or more whose
    state sums to a multiple of 3, the decorations reversed and the one at
    slot 1's position times element 1.  The carried output is kept, so a
    later splice still accepts it as an inner form."""
    if z.size < 2 or sum(z.state) % 3:
        return z
    r, state = z.size, list(z.state)
    state[r:] = reversed(state[r:])
    p = r + state[0] - 1
    state[p] = z.group.mul[1][state[p]]
    return DecoratedTuple._trusted(z.group, tuple(state), z.hues, z.out)


def break_splices(monkeypatch):
    patch_splices(monkeypatch,
                  lambda splice: lambda inner: broken(splice(inner)))


def test_axioms_complete_on_c2_arity_two(monkeypatch):
    calls = 0

    def counted(splice):
        def call(inner):
            nonlocal calls
            calls += 1
            return splice(inner)
        return call

    patch_splices(monkeypatch, counted)
    report = check_operad_axioms(
        C2, Bounds(max_arity=2, max_order=6, cap=200_000))
    assert report["complete"] is True
    assert report["total_failures"] == 0
    counts = {a["axiom"]: a["instances"] for a in report["axioms"]}
    assert counts == {
        "sequential-associativity": 41616,
        "parallel-associativity": 10368,
        "units": 36,
        "equivariance": 4688,
    }
    # every splice, those through compose_normal included: x o_j y once per
    # (x, y) and shared across every z, x o_i z once per x and shared
    # across every y, x o_j y once per colors of y and shared across every
    # rho
    assert calls == 160_904


def test_axioms_complete_on_s3_arity_one():
    report = check_operad_axioms(
        S3, Bounds(max_arity=1, max_order=6, cap=50_000))
    assert report["complete"] is True
    assert report["total_failures"] == 0
    counts = {a["axiom"]: a["instances"] for a in report["axioms"]}
    assert counts["sequential-associativity"] == 1296
    assert counts["parallel-associativity"] == 0
    assert counts["units"] == 36


def test_axioms_capped_prefix_on_s3():
    report = check_operad_axioms(
        S3, Bounds(max_arity=3, max_order=6, cap=500))
    assert report["complete"] is False
    assert report["total_failures"] == 0
    for axiom in report["axioms"]:
        assert axiom["instances"] == 500
        assert axiom["failures"] == []


def test_broken_composition_is_detected(monkeypatch):
    break_splices(monkeypatch)
    report = check_operad_axioms(C2, Bounds(max_arity=2, max_order=6, cap=3000))
    assert report["total_failures"] > 0
    for axiom in report["axioms"]:
        assert axiom["failure_count"] > 0, axiom["axiom"]
        assert axiom["failures"], axiom["axiom"]


# per stream, failure_count and failures under ``broken``, computed with
# streams that built every composite afresh, so they pin the enumeration
# order; each cap ends inside a block of shared work, and C2 at 3001 inside
# the equivariance instances of arity 2, which S3 does not reach under
# these caps
_BROKEN_PREFIX = {
    ("S3", 3, 4001): {
        "sequential-associativity": (22, ["r=1 s=1 t=2 j=1 k=1"] * 10),
        "parallel-associativity": (1761, ["r=2 s=1 t=1 j=1 i=2"] * 10),
        "units": (1322, ["r=2"] * 10),
        "equivariance": (400, ["inner r=1 s=2 j=1"] * 10),
    },
    ("S3", 3, 20011): {
        "sequential-associativity": (3984, ["r=1 s=1 t=2 j=1 k=1"] * 10),
        "parallel-associativity": (8800, ["r=2 s=1 t=1 j=1 i=2"] * 10),
        "units": (6658, ["r=2"] * 10),
        "equivariance": (2174, ["inner r=1 s=2 j=1"] * 10),
    },
    ("C2", 2, 3001): {
        "sequential-associativity": (571, ["r=1 s=1 t=2 j=1 k=1"] * 10),
        "parallel-associativity": (807, ["r=2 s=1 t=1 j=1 i=2"] * 10),
        "units": (8, ["r=2"] * 8),
        "equivariance": (326, ["inner r=1 s=2 j=1"] * 10),
    },
}


@pytest.mark.parametrize("spec, arity, cap", sorted(_BROKEN_PREFIX))
def test_capped_prefix_is_unchanged_under_a_broken_splice(
        monkeypatch, spec, arity, cap):
    break_splices(monkeypatch)
    report = check_operad_axioms(make_group(spec), Bounds(arity, 6, cap))
    assert report["complete"] is False
    got = {a["axiom"]: (a["failure_count"], a["failures"])
           for a in report["axioms"]}
    assert got == _BROKEN_PREFIX[spec, arity, cap]
    assert [a["instances"] for a in report["axioms"]] == \
        [cap, cap, 36 if spec == "C2" else cap, cap]


def test_composition_commutes_with_outer_braid_action():
    # moving x along a braid, then grafting, equals grafting first and
    # moving along the braid cabled at the strand through slot j
    rng = random.Random(9)
    for _ in range(300):
        r, s = rng.randint(2, 3), rng.randint(1, 3)
        x = random_operation(S3, r, rng)
        j = rng.randint(1, r)
        y = random_filler(S3, x.colors[j - 1], s, rng)
        w = BraidWord(r, tuple(rng.choice([k for k in range(-(r - 1), r) if k])
                               for _ in range(rng.randint(1, 4))))
        lhs = compose_normal(braid_act(w, x), j, y)
        cabled = cable_compose(w, x.sigma(j), BraidWord(s, ()))
        assert lhs == braid_act(cabled, compose_normal(x, j, y))


def test_composition_commutes_with_inner_braid_action():
    rng = random.Random(10)
    for _ in range(300):
        r, s = rng.randint(1, 3), rng.randint(2, 3)
        x = random_operation(S3, r, rng)
        j = rng.randint(1, r)
        y = random_filler(S3, x.colors[j - 1], s, rng)
        v = BraidWord(s, tuple(rng.choice([k for k in range(-(s - 1), s) if k])
                               for _ in range(rng.randint(1, 4))))
        shift = x.sigma(j) - 1
        shifted = BraidWord(r + s - 1,
                            tuple(l + shift if l > 0 else l - shift
                                  for l in v.letters))
        assert compose_normal(x, j, braid_act(v, y)) == \
            braid_act(shifted, compose_normal(x, j, y))


def test_composition_descends_to_components():
    # the two laws above imply this, but check it directly on canonical
    # orbit representatives
    rng = random.Random(11)
    for _ in range(50):
        x = random_operation(C2, 2, rng)
        j = rng.randint(1, 2)
        y = random_filler(C2, x.colors[j - 1], 2, rng)
        w = BraidWord(2, tuple(rng.choice((1, -1))
                               for _ in range(rng.randint(1, 3))))
        moved = compose_normal(braid_act(w, x), j, y)
        plain = compose_normal(x, j, y)
        assert orbit(moved)[0] == orbit(plain)[0]


def test_pi0_delegates_to_component_partition():
    g = C2.element(1)
    classes = pi0_component((g, g), C2.identity)
    assert sum(len(c) for c in classes) == \
        len(component_objects((g, g), C2.identity))
