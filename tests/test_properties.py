"""Randomized law checking across modules.

These are the invariants the rest of the suite relies on, restated as
properties over generated inputs rather than enumerated ones.
"""
import itertools

import hypothesis.strategies as st
from hypothesis import given, settings

from gbraids.algebra import CrossedAlgebraData, check_coherence
from gbraids.braids import (BraidWord, Permutation, all_permutations,
                            cable_compose, cable_permutation, braids_equal,
                            normal_form, underlying_permutation)
from gbraids.groups import make_group
from gbraids.hurwitz import (DecoratedTuple, bare_space,
                             boundary_colors, braid_act, color_condition,
                             component_objects, conjugate_act,
                             hurwitz_generator, orbit, partition)
from gbraids.operad import all_operations, sigma_action
from gbraids.trees import compose_normal, denormalize, normalize, output_color, random_tree

GROUP_SPECS = ("C2", "C3", "C4", "S3", "D4")


@st.composite
def braid_words(draw, min_strands=1, max_strands=4, max_letters=6):
    n = draw(st.integers(min_strands, max_strands))
    if n == 1:
        return BraidWord(1, ())
    letters = draw(st.lists(
        st.integers(1, n - 1).flatmap(
            lambda j: st.sampled_from((j, -j))),
        max_size=max_letters))
    return BraidWord(n, tuple(letters))


@st.composite
def decorated_tuples(draw, max_r=3):
    group = make_group(draw(st.sampled_from(GROUP_SPECS)))
    r = draw(st.integers(1, max_r))
    els = group.elements()
    b = tuple(draw(st.sampled_from(els)) for _ in range(r))
    sigma = draw(st.sampled_from(tuple(all_permutations(r))))
    colors = tuple(draw(st.sampled_from(els)) for _ in range(r))
    return DecoratedTuple(b, sigma, colors)


@given(braid_words())
@settings(max_examples=150, deadline=None)
def test_normal_form_is_idempotent(w):
    nf = normal_form(w)
    assert normal_form(nf) == nf
    assert underlying_permutation(nf) == underlying_permutation(w)


@given(braid_words())
@settings(max_examples=150, deadline=None)
def test_word_times_inverse_is_trivial(w):
    inverse = BraidWord(w.strands, tuple(-l for l in reversed(w.letters)))
    product = BraidWord(w.strands, w.letters + inverse.letters)
    assert braids_equal(product, BraidWord(w.strands, ()))


@given(braid_words(min_strands=2), braid_words(min_strands=2))
@settings(max_examples=100, deadline=None)
def test_equality_respects_concatenation(u, v):
    if u.strands != v.strands:
        v = BraidWord(u.strands, tuple(
            l for l in v.letters if abs(l) < u.strands))
    direct = BraidWord(u.strands, u.letters + v.letters)
    vianf = BraidWord(u.strands,
                      normal_form(u).letters + normal_form(v).letters)
    assert braids_equal(direct, vianf)


@given(braid_words(min_strands=2, max_strands=4),
       st.data())
@settings(max_examples=100, deadline=None)
def test_braid_action_factors_through_letters(w, data):
    group = make_group(data.draw(st.sampled_from(GROUP_SPECS)))
    els = group.elements()
    r = w.strands
    x = DecoratedTuple(
        tuple(data.draw(st.sampled_from(els)) for _ in range(r)),
        data.draw(st.sampled_from(tuple(all_permutations(r)))),
        tuple(data.draw(st.sampled_from(els)) for _ in range(r)))
    cut = data.draw(st.integers(0, len(w.letters)))
    left = BraidWord(r, w.letters[:cut])
    right = BraidWord(r, w.letters[cut:])
    assert braid_act(w, x) == braid_act(left, braid_act(right, x))


@given(braid_words(min_strands=2, max_strands=4), st.data())
@settings(max_examples=100, deadline=None)
def test_braid_action_invariants(w, data):
    group = make_group(data.draw(st.sampled_from(GROUP_SPECS)))
    els = group.elements()
    r = w.strands
    x = DecoratedTuple(
        tuple(data.draw(st.sampled_from(els)) for _ in range(r)),
        data.draw(st.sampled_from(tuple(all_permutations(r)))),
        tuple(data.draw(st.sampled_from(els)) for _ in range(r)))
    y = braid_act(w, x)
    # boundary data is preserved, and equal braids act equally
    assert boundary_colors(y) == boundary_colors(x)
    assert braid_act(normal_form(w), x) == y


@given(decorated_tuples())
@settings(max_examples=200, deadline=None)
def test_denormalize_round_trip(x):
    assert normalize(denormalize(x)) == x


@given(st.sampled_from(GROUP_SPECS), st.integers(1, 4), st.randoms())
@settings(max_examples=100, deadline=None)
def test_random_tree_output_matches_normal_form(spec, r, rng):
    group = make_group(spec)
    tree = random_tree(group, r, rng)
    nf = normalize(tree, group)
    want = color_condition(nf.sigma, nf.b, nf.colors)
    assert want == output_color(tree, group)
    assert nf.out == want.index


@given(decorated_tuples(max_r=2), st.data())
@settings(max_examples=100, deadline=None)
def test_splice_associativity(x, data):
    group = x.group
    els = group.elements()

    def filler(r):
        b = tuple(data.draw(st.sampled_from(els)) for _ in range(r))
        sigma = data.draw(st.sampled_from(tuple(all_permutations(r))))
        colors = tuple(data.draw(st.sampled_from(els)) for _ in range(r))
        return DecoratedTuple(b, sigma, colors)

    j = data.draw(st.integers(1, x.size))
    y = filler(data.draw(st.integers(1, 2)))
    # retune the outer color so the splice is defined
    x = DecoratedTuple(x.b, x.sigma, tuple(
        color_condition(y.sigma, y.b, y.colors) if i == j - 1 else c
        for i, c in enumerate(x.colors)))
    k = data.draw(st.integers(1, y.size))
    z = filler(data.draw(st.integers(1, 2)))
    y = DecoratedTuple(y.b, y.sigma, tuple(
        color_condition(z.sigma, z.b, z.colors) if i == k - 1 else c
        for i, c in enumerate(y.colors)))
    x = DecoratedTuple(x.b, x.sigma, tuple(
        color_condition(y.sigma, y.b, y.colors) if i == j - 1 else c
        for i, c in enumerate(x.colors)))
    nested = compose_normal(x, j, compose_normal(y, k, z))
    flat = compose_normal(compose_normal(x, j, y), j + k - 1, z)
    assert nested == flat


def _same_as_checked_build(y, component=None):
    """y equals, and hashes like, its rebuild through the checked
    constructors, and is found by hash in its component when one is given.
    y carries the output that the rebuild computes afresh (None when
    bare)."""
    sigma = None if y.sigma is None else Permutation(y.sigma.images)
    z = DecoratedTuple(y.b, sigma, y.colors)
    assert y == z and z == y
    assert hash(y) == hash(z)
    assert component is None or y in component
    assert y.out == z.out


@given(st.sampled_from(("S3", "D4")), st.integers(1, 4), st.data())
@settings(max_examples=30, deadline=None)  # a D4 component at r=4 takes 0.2 s
def test_checked_and_trusted_builds_are_the_same_value(spec, r, data):
    group = make_group(spec)
    els = group.elements()

    def point(r):
        return DecoratedTuple(
            tuple(data.draw(st.sampled_from(els)) for _ in range(r)),
            data.draw(st.sampled_from(tuple(all_permutations(r)))),
            tuple(data.draw(st.sampled_from(els)) for _ in range(r)))

    def component(y):
        return set(component_objects(
            y.colors, color_condition(y.sigma, y.b, y.colors)))

    x = point(r)
    points = component(x)
    for j in range(1, r):
        for letter in (j, -j):
            _same_as_checked_build(hurwitz_generator(x, letter), points)
    w = data.draw(braid_words(min_strands=r, max_strands=r))
    _same_as_checked_build(braid_act(w, x), points)
    for y in orbit(x):
        _same_as_checked_build(y, points)
    h = data.draw(st.sampled_from(els))
    _same_as_checked_build(conjugate_act(h, x))
    bare = bare_space(group, min(r, 2))
    for y in bare:
        _same_as_checked_build(y, bare)
        _same_as_checked_build(conjugate_act(h, y), bare)
    for o in partition(bare):
        for y in o:
            _same_as_checked_build(y, bare)
    rho = data.draw(st.sampled_from(tuple(all_permutations(r))))
    _same_as_checked_build(sigma_action(x, rho))
    # points of a component carry their output from component_objects
    for y in itertools.islice(sorted(points), 0, None, 97):
        _same_as_checked_build(sigma_action(y, rho))
    for y in itertools.islice(all_operations(group, min(r, 2)), 0, None, 97):
        _same_as_checked_build(y)
    nf = normalize(random_tree(group, r, data.draw(st.randoms())))
    _same_as_checked_build(nf, component(nf))
    # an inner point whose output is the outer color at slot j, so that the
    # composite has at most 4 inputs
    y = point(data.draw(st.integers(1, 5 - r)))
    j = data.draw(st.integers(1, r))
    x = DecoratedTuple(x.b, x.sigma, tuple(
        color_condition(y.sigma, y.b, y.colors) if i == j - 1 else c
        for i, c in enumerate(x.colors)))
    composite = compose_normal(x, j, y)
    assert composite.out == x.out
    _same_as_checked_build(composite, component(composite))
    images = tuple(data.draw(st.permutations(range(1, r + 1))))
    assert Permutation(images) == Permutation._trusted(images)
    assert hash(Permutation(images)) == hash(Permutation._trusted(images))


@given(braid_words(min_strands=1, max_strands=3),
       braid_words(min_strands=1, max_strands=3),
       st.data())
@settings(max_examples=150, deadline=None)
def test_cable_permutation_matches_cable_compose(u, v, data):
    j = data.draw(st.integers(1, u.strands))
    assert underlying_permutation(cable_compose(u, j, v)) == \
        cable_permutation(underlying_permutation(u), j,
                          underlying_permutation(v))


@given(st.sampled_from(("C2", "C3")), st.integers(2, 5))
@settings(max_examples=60, deadline=None)
def test_trivial_algebra_data_is_coherent(spec, modulus):
    group = make_group(spec)
    datum = CrossedAlgebraData.trivial(group, modulus)
    assert check_coherence(datum)["coherent"]
