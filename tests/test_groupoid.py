"""Flattening a braid-action fibered system vs the componentwise groupoid."""
import pytest

import gbraids.groupoid
from gbraids.braids import BraidWord, Permutation, normal_form
from gbraids.groupoid import (
    Arrow,
    FiberedSystem,
    FiniteGroupoidPresentation,
    GroupoidError,
    check_groupoid_axioms,
    compare_grothendieck_to_direct,
    compare_presentations,
    conjugation_fiber,
    grothendieck,
    hurwitz_direct_presentation,
    hurwitz_fibered_system,
    permutation_base,
)
from gbraids.groups import make_group
from gbraids.hurwitz import bare_space, braid_act, conjugate_act


def test_flattening_matches_componentwise_rule():
    report = compare_grothendieck_to_direct(make_group("S3"), 2)
    assert report["failures"] == []
    assert report["objects"] == 2 * 36
    assert report["generators"] == 72 * (1 + 6)
    assert report["compositions"] > 0


def test_trivial_fiber_reduces_to_base():
    report = compare_grothendieck_to_direct(make_group("C1"), 2)
    assert report["failures"] == []
    assert report["objects"] == 2


def test_trivial_base_reduces_to_fiber():
    report = compare_grothendieck_to_direct(make_group("S3"), 1)
    assert report["failures"] == []
    assert report["objects"] == 6


@pytest.mark.parametrize("spec, r, counts", [
    ("C2", 4, (384, 1920, 9600)),
    ("D4", 2, (128, 1152, 10368)),
    ("C3", 2, (18, 72, 288)),
])
def test_comparison_counts(spec, r, counts):
    report = compare_grothendieck_to_direct(make_group(spec), r)
    assert report["failures"] == []
    assert (report["objects"], report["generators"],
            report["compositions"]) == counts


def _public_target(points, group, r, source, letters, h):
    """The target of a generator with these letters and element index,
    through the public permutation, braid and conjugation actions on
    points."""
    y, x = source
    sigma, point = Permutation(y), points[x]
    word = BraidWord(r, letters)
    for letter in reversed(word.letters):
        sigma = Permutation.transposition(abs(letter), r) @ sigma
    point = conjugate_act(group.element(h), braid_act(word, point))
    return sigma.images, point.state


@pytest.mark.parametrize("spec, r", [("S3", 3), ("C2", 4)])
def test_generator_targets_match_the_public_actions(spec, r):
    group = make_group(spec)
    points = {p.state: p for p in bare_space(group, r)}
    direct = hurwitz_direct_presentation(group, r)
    flat = grothendieck(hurwitz_fibered_system(group, r))
    for a in direct.generators:
        word, h = a.label
        assert word == () or h == 0
        assert a.target == _public_target(points, group, r, a.source, *a.label)
    for a in flat.generators:
        g, f = a.label
        assert a.target == _public_target(points, group, r, a.source,
                                          g.label, f.label)
    assert len(flat.generators) == len(direct.generators)


def _caught(system, direct) -> bool:
    try:
        report = compare_presentations(grothendieck(system), direct)
    except GroupoidError:
        return True
    return any(f["stage"] == "composition" for f in report["failures"])


def test_wrong_fiber_arrow_action_is_caught():
    group = make_group("S3")
    good = hurwitz_fibered_system(group, 2)
    direct = hurwitz_direct_presentation(group, 2)
    assert not _caught(good, direct)

    def unmoved(g: Arrow, f: Arrow) -> Arrow:
        return f

    def by_g(g: Arrow, f: Arrow) -> Arrow:
        return good.act_arrow(good.base.inverse(g), f)

    for act_arrow in (unmoved, by_g):
        bad = FiberedSystem(good.base, good.fiber, good.act_object, act_arrow)
        assert _caught(bad, direct), act_arrow.__name__


def test_direct_presentation_axioms():
    pres = hurwitz_direct_presentation(make_group("S3"), 2)
    report = check_groupoid_axioms(pres, triple_cap=500)
    assert report["failures"] == []
    assert report["triples"] == 500


def test_flattened_presentation_axioms():
    flat = grothendieck(hurwitz_fibered_system(make_group("C3"), 2))
    report = check_groupoid_axioms(flat, triple_cap=500)
    assert report["failures"] == []


def test_base_composition_labels_are_canonical():
    base = permutation_base(3)

    def chain(letters):
        arrow = base.identity(base.objects[0])
        for j in letters:
            step = next(a for a in base.generators
                        if a.source == arrow.target and a.label == (j,))
            arrow = base.compose(step, arrow)
        return arrow

    # two reduced words for the same braid meet in the same arrow
    assert chain([1, 2, 1]) == chain([2, 1, 2])


def test_composite_labels_multiply_componentwise():
    group = make_group("S3")
    direct = hurwitz_direct_presentation(group, 2)
    a = next(x for x in direct.generators if x.label[0] == (1,))
    b = next(x for x in direct.generators
             if x.source == a.target and x.label[1] == 3)
    c = direct.compose(b, a)
    assert c.label == ((1,), 3)


def test_composites_put_the_second_label_on_the_left():
    group = make_group("S3")
    h, k = next((h, k) for h in range(6) for k in range(6)
                if group.mul[h][k] != group.mul[k][h])

    def then(pres, first, second):
        a = next(x for x in pres.generators if x.label == first)
        b = next(x for x in pres.by_source[a.target] if x.label == second)
        return pres.compose(b, a).label

    def canonical(letters):
        return normal_form(BraidWord(3, letters)).letters

    assert canonical((2, 1)) != canonical((1, 2))
    assert then(permutation_base(3), (1,), (2,)) == canonical((2, 1))
    assert then(conjugation_fiber(group, 2), h, k) == group.mul[k][h]
    direct = hurwitz_direct_presentation(group, 3)
    assert then(direct, ((1,), 0), ((2,), 0)) == (canonical((2, 1)), 0)
    assert then(direct, ((), h), ((), k)) == ((), group.mul[k][h])


def test_swapped_fiber_multiplication_is_detected():
    group = make_group("S3")
    flat = grothendieck(hurwitz_fibered_system(group, 2))
    direct = hurwitz_direct_presentation(group, 2)

    def bad_compose(second: Arrow, first: Arrow) -> Arrow:
        good = direct.compose_fn(second, first)
        c, _ = good.label
        return Arrow(good.source, good.target,
                     (c, group.mul[first.label[1]][second.label[1]]))

    broken = FiniteGroupoidPresentation(
        direct.objects, direct.generators, bad_compose,
        direct.identity, direct.inverse)
    report = compare_presentations(flat, broken)
    assert any(f["stage"] == "composition" for f in report["failures"])


def test_composability_is_enforced():
    base = permutation_base(2)
    a = base.generators[0]
    bad = Arrow(a.target, a.target, ())
    with pytest.raises(Exception):
        base.compose(a, bad)  # endpoints do not meet


def test_conjugation_fiber_shape():
    group = make_group("C3")
    fib = conjugation_fiber(group, 2)
    assert len(fib.objects) == 9
    assert len(fib.generators) == 27
    report = check_groupoid_axioms(fib, triple_cap=300)
    assert report["failures"] == []


def test_unmatched_generator_is_reported_and_not_composed():
    group = make_group("S3")
    flat = grothendieck(hurwitz_fibered_system(group, 2))
    direct = hurwitz_direct_presentation(group, 2)
    full = compare_presentations(flat, direct)
    dropped = direct.generators[0]
    partial = FiniteGroupoidPresentation(
        direct.objects, direct.generators[1:], direct.compose_fn,
        direct.identity, direct.inverse)
    report = compare_presentations(flat, partial)
    assert [f["stage"] for f in report["failures"]] == ["generators"]
    # pairs through the dropped generator: it composes after each generator
    # arriving at its source, and before each one leaving its target
    arriving = sum(a.target == dropped.source for a in direct.generators)
    leaving = len(direct.by_source[dropped.target])
    loop = dropped.source == dropped.target
    assert report["compositions"] == \
        full["compositions"] - arriving - leaving + loop


def test_axiom_pairs_do_not_depend_on_generator_order():
    base = permutation_base(3)
    shuffled = FiniteGroupoidPresentation(
        base.objects,
        tuple(sorted(base.generators,
                     key=lambda a: base.objects.index(a.source),
                     reverse=True)),
        base.compose_fn, base.identity, base.inverse)
    assert shuffled.generators != base.generators
    want = check_groupoid_axioms(base)
    got = check_groupoid_axioms(shuffled)
    assert got["failures"] == want["failures"] == []
    assert got["pairs"] == want["pairs"] == 6 * 2 * 2


def test_generators_off_the_object_set_are_endpoint_failures():
    base = permutation_base(3)
    cut = FiniteGroupoidPresentation(
        base.objects[1:], base.generators, base.compose_fn,
        base.identity, base.inverse)
    report = check_groupoid_axioms(cut, triple_cap=0)
    # the two generators leaving the dropped object and the two arriving
    assert sum(f["axiom"] == "endpoints" for f in report["failures"]) == 4


def test_generator_words_are_normalized_once_per_presentation(monkeypatch):
    calls = []
    real = gbraids.groupoid.normal_form

    def counting(word):
        calls.append(word)
        return real(word)

    monkeypatch.setattr(gbraids.groupoid, "normal_form", counting)
    r = 3
    hurwitz_direct_presentation(make_group("S3"), r)
    assert len(calls) <= r - 1
    calls.clear()
    permutation_base(r)
    assert len(calls) <= r - 1


def test_normal_form_is_memoized_per_presentation(monkeypatch):
    calls = []
    real = gbraids.groupoid.normal_form

    def counting(word):
        calls.append(word)
        return real(word)

    monkeypatch.setattr(gbraids.groupoid, "normal_form", counting)
    report = compare_grothendieck_to_direct(make_group("S3"), 3)
    assert report["compositions"] == 82944
    assert report["failures"] == []
    # 248,836 calls without the memo
    assert len(calls) <= 40
