"""Tree normalization, denormalization, grafting, and the fast splice."""
import itertools
import random

import pytest

from gbraids.braids import Permutation
from gbraids.groups import GroupMismatchError, make_group
from gbraids.hurwitz import (DecoratedTuple, boundary_colors,
                             color_condition, component_objects)
from gbraids.trees import (
    InputLeaf,
    LabelEdge,
    Tensor,
    TreeError,
    UnitLeaf,
    compose_normal,
    denormalize,
    format_tree,
    graft,
    grafter,
    identity_normal_form,
    leaf_count,
    leaf_offset,
    normalize,
    output_color,
    parse_tree,
    random_tree,
    replace_at,
    subtree_at,
    validate,
)

S3 = make_group("S3")
C2 = make_group("C2")


def el(i):
    return S3.element(i)


def test_parse_format_roundtrip():
    text = "T(L[2](leaf:1:3),leaf:2:5)"
    t = parse_tree(text, S3)
    assert format_tree(t) == text
    assert parse_tree(format_tree(t), S3) == t


def test_parse_with_symbols_and_whitespace():
    symbols = {"g": el(3), "h": el(2), "k": el(5)}
    t = parse_tree(" T( L[h]( leaf:1:g ) , leaf:2:k ) ", S3, symbols)
    assert t == Tensor(LabelEdge(el(2), InputLeaf(1, el(3))),
                       InputLeaf(2, el(5)))
    assert parse_tree("U", S3) == UnitLeaf()


@pytest.mark.parametrize("bad", [
    "T(leaf:1:0)", "L[9](U)", "leaf:1:x", "T(U,U", "W", "U)",
])
def test_parse_errors(bad):
    with pytest.raises(TreeError):
        parse_tree(bad, S3)


def test_normalize_pinned_example():
    # a label over the first tensor factor becomes the decoration at
    # position 1, and conjugates that leaf's contribution to the output
    g, h, k = el(3), el(2), el(5)
    t = Tensor(LabelEdge(h, InputLeaf(1, g)), InputLeaf(2, k))
    nf = normalize(t)
    assert nf.sigma == Permutation((1, 2))
    assert nf.b == (h, S3.identity)
    assert nf.colors == (g, k)
    assert output_color(t) == (h * g * h.inverse()) * k
    assert boundary_colors(nf).output == output_color(t)


def test_normalize_swapped_slots():
    g1, g2 = el(3), el(5)
    t = Tensor(InputLeaf(2, g2), InputLeaf(1, g1))
    nf = normalize(t)
    assert nf.sigma == Permutation((2, 1))  # slot 1 sits in position 2
    assert nf.colors == (g1, g2)
    assert output_color(t) == g2 * g1


def test_label_distributes_over_tensor():
    h = el(3)
    a = Tensor(InputLeaf(1, el(2)), InputLeaf(2, el(5)))
    assert normalize(LabelEdge(h, a)) == \
        normalize(Tensor(LabelEdge(h, InputLeaf(1, el(2))),
                         LabelEdge(h, InputLeaf(2, el(5)))))


def test_label_edges_compose_multiplicatively():
    h1, h2 = el(3), el(2)
    t = LabelEdge(h2, LabelEdge(h1, InputLeaf(1, el(5))))
    nf = normalize(t)
    assert nf.b == (h2 * h1,)


def test_unit_leaves_vanish():
    t = Tensor(UnitLeaf(), Tensor(InputLeaf(1, el(3)), UnitLeaf()))
    nf = normalize(t)
    assert nf.size == 1
    assert output_color(t) == el(3)
    assert output_color(UnitLeaf(), S3) == S3.identity
    with pytest.raises(TreeError):
        normalize(UnitLeaf())  # group not inferable
    assert normalize(UnitLeaf(), S3).size == 0


def test_normalize_lands_in_the_right_component():
    rng = random.Random(19)
    for _ in range(60):
        t = random_tree(S3, rng.randint(1, 4), rng)
        nf = normalize(t)
        assert color_condition(nf.sigma, nf.b, nf.colors) == output_color(t)


def test_denormalize_inverts_normalize_on_components():
    for colors_idx, out_idx in [((2, 5), 4), ((3, 4), 0), ((2, 2), 0)]:
        colors = tuple(el(i) for i in colors_idx)
        for nf in component_objects(colors, el(out_idx)):
            assert normalize(denormalize(nf)) == nf


def test_normalize_is_idempotent_through_denormalize():
    rng = random.Random(31)
    for _ in range(40):
        t = random_tree(S3, rng.randint(1, 4), rng)
        nf = normalize(t)
        assert normalize(denormalize(nf)) == nf


def test_validate_rejects_bad_slots_and_mixed_groups():
    with pytest.raises(TreeError):
        validate(Tensor(InputLeaf(1, el(0)), InputLeaf(1, el(0))))
    with pytest.raises(TreeError):
        validate(Tensor(InputLeaf(1, el(0)), InputLeaf(3, el(0))))
    c2 = make_group("C2")
    with pytest.raises(TreeError):
        validate(Tensor(InputLeaf(1, el(0)), InputLeaf(2, c2.element(0))))


def test_normalize_rejects_bad_slots_and_mixed_groups():
    """normalize makes the checks of validate in its own walk."""
    c2 = make_group("C2")
    with pytest.raises(TreeError):  # a repeated slot
        normalize(Tensor(InputLeaf(1, el(0)), InputLeaf(1, el(0))))
    with pytest.raises(TreeError):  # a gap in the slots
        normalize(Tensor(InputLeaf(1, el(0)), InputLeaf(3, el(0))))
    with pytest.raises(TreeError):  # slots start at 1
        normalize(InputLeaf(0, el(0)))
    with pytest.raises(TreeError):  # leaves of two groups
        normalize(Tensor(InputLeaf(1, el(0)), InputLeaf(2, c2.element(0))))
    with pytest.raises(TreeError):  # a label of another group
        normalize(LabelEdge(c2.element(1), InputLeaf(1, el(3))))
    with pytest.raises(TreeError):  # a tree group other than the argument
        normalize(InputLeaf(1, el(3)), c2)
    assert normalize(InputLeaf(1, el(3)), S3) == identity_normal_form(el(3))


def test_output_color_rejects_mixed_groups():
    c2 = make_group("C2")
    with pytest.raises(GroupMismatchError):
        output_color(Tensor(InputLeaf(1, el(2)), InputLeaf(2, c2.element(1))))
    with pytest.raises(GroupMismatchError):
        output_color(LabelEdge(c2.element(1), InputLeaf(1, el(3))))


def test_normalize_and_output_color_walk_deep_trees():
    """Both walks use an explicit stack, so depth is not bounded by the
    recursion limit."""
    depth = 5000
    t = InputLeaf(1, el(3))
    for _ in range(depth):
        t = LabelEdge(el(1), t)  # el(1) has order 2
    nf = normalize(t)
    assert nf.b == (el(0),)
    assert output_color(t) == el(3)
    comb = InputLeaf(1, el(2))
    for slot in range(2, depth + 1):
        comb = Tensor(InputLeaf(slot, el(0)), comb)
    nf = normalize(comb)
    assert nf.sigma.images == tuple(range(depth, 0, -1))
    assert output_color(comb) == el(2)


def test_validate_walks_deep_trees():
    depth = 5000
    t = InputLeaf(1, el(3))
    for _ in range(depth):
        t = LabelEdge(el(1), t)
    assert validate(t) == 1
    assert validate(t, S3) == 1
    assert leaf_count(t) == 1
    text = "L[1](" * depth + "leaf:1:3" + ")" * depth
    assert format_tree(t) == text
    # deep trees are compared through their text: == recurses
    assert format_tree(parse_tree(text, S3)) == text
    leaf = InputLeaf(1, el(3))
    assert format_tree(graft(t, 1, leaf)) == text
    assert format_tree(replace_at(t, (0,) * depth, InputLeaf(1, el(2)))) \
        == text.replace("leaf:1:3", "leaf:1:2")
    with pytest.raises(TreeError):
        validate(t, make_group("C2"))
    units = UnitLeaf()
    for _ in range(depth):
        units = Tensor(UnitLeaf(), units)
    assert validate(units) == 0
    assert validate(units, S3) == 0
    assert normalize(units, S3).size == 0
    with pytest.raises(TreeError, match="without a group"):
        normalize(units)
    spine = leaf
    for _ in range(3000):
        spine = Tensor(UnitLeaf(), spine)
    assert normalize(spine).group is S3


def test_navigation():
    t = parse_tree("T(L[2](leaf:1:3),T(leaf:3:5,leaf:2:0))", S3)
    assert subtree_at(t, ()) == t
    assert subtree_at(t, (0, 0)) == InputLeaf(1, el(3))
    assert subtree_at(t, (1, 0)) == InputLeaf(3, el(5))
    assert leaf_count(t) == 3
    assert leaf_offset(t, (1,)) == 1
    assert leaf_offset(t, (1, 1)) == 2
    swapped = replace_at(t, (1, 0), InputLeaf(3, el(1)))
    assert subtree_at(swapped, (1, 0)) == InputLeaf(3, el(1))
    with pytest.raises(TreeError):
        subtree_at(t, (0, 0, 0))
    with pytest.raises(TreeError):
        replace_at(t, (2,), UnitLeaf())


def test_graft_requires_matching_color():
    outer = parse_tree("T(leaf:1:2,leaf:2:5)", S3)
    inner = parse_tree("leaf:1:3", S3)
    with pytest.raises(TreeError):
        graft(outer, 1, inner)  # slot 1 wants color 2, inner outputs 3
    ok = graft(outer, 1, parse_tree("L[2](leaf:1:2)", S3))
    assert output_color(ok) == output_color(outer)


def test_graft_renumbers_slots():
    outer = parse_tree("T(leaf:2:5,leaf:1:2)", S3)
    # inner with two slots and output color 2 = (12): conjugate colors
    inner = parse_tree("T(leaf:1:2,T(leaf:2:3,L[3](leaf:3:4)))", S3)
    assert output_color(inner) == el(2) * el(3) * el(3) * el(4) * el(3).inverse()
    grafted = graft(outer, 1, inner)
    assert validate(grafted) == 4
    # outer slot 2 became slot 4
    assert subtree_at(grafted, (0,)) == InputLeaf(4, el(5))


def _components_with_output(colors):
    for h in S3:
        objs = component_objects(colors, h)
        if objs:
            yield h, objs


def test_compose_normal_matches_graft():
    rng = random.Random(47)
    checked = 0
    for _ in range(200):
        r = rng.randint(1, 3)
        s = rng.randint(1, 3)
        outer_t = random_tree(S3, r, rng)
        inner_t = random_tree(S3, s, rng)
        j = rng.randint(1, r)
        outer, inner = normalize(outer_t), normalize(inner_t)
        inner_out = output_color(inner_t)
        if outer.colors[j - 1] != inner_out:
            with pytest.raises(TreeError):
                compose_normal(outer, j, inner)
            continue
        fast = compose_normal(outer, j, inner)
        slow = normalize(graft(outer_t, j, inner_t))
        assert fast == slow
        checked += 1
    assert checked > 10


def test_compose_normal_pinned_splice():
    outer = normalize(parse_tree("T(L[2](leaf:2:5),leaf:1:3)", S3))
    # slot 1 sits at position 2 and wants color 3 = output of inner below
    inner = normalize(parse_tree("T(L[5](leaf:1:0),L[4](leaf:2:3))", S3))
    got = compose_normal(outer, 1, inner)
    assert got.size == 3
    assert got.colors == (el(0), el(3), el(5))
    # inner decorations are left-multiplied by the outer decoration (identity
    # here, since slot 1 carried no label) and spliced at position 2
    assert got.b == (el(2), el(5), el(4))
    assert got.sigma == Permutation((2, 3, 1))


def test_identity_normal_form_is_a_unit():
    rng = random.Random(53)
    for _ in range(30):
        t = random_tree(S3, rng.randint(1, 3), rng)
        nf = normalize(t)
        for j in range(1, nf.size + 1):
            assert compose_normal(nf, j, identity_normal_form(nf.colors[j - 1])) == nf
        out = color_condition(nf.sigma, nf.b, nf.colors)
        assert compose_normal(identity_normal_form(out), 1, nf) == nf


def _points_by_output(group, max_r):
    """Per output color index, every point of arity 1..max_r in the
    component of that output, with the arities interleaved (1, 2, 3, 1, 2,
    3, ...) so that consecutive points mostly differ in arity."""
    els = group.elements()
    by_output = {}
    for h in els:
        by_arity = [[x for colors in itertools.product(els, repeat=r)
                     for x in component_objects(colors, h)]
                    for r in range(1, max_r + 1)]
        by_output[h.index] = [x for row in itertools.zip_longest(*by_arity)
                              for x in row if x is not None]
    return by_output


def _check_grafter(outer, j, inners):
    """One grafter on ``inners`` against a fresh ``compose_normal`` each."""
    splice = grafter(outer, j)
    for inner in inners:
        got, want = splice(inner), compose_normal(outer, j, inner)
        assert got == want
        assert got.out == want.out == outer.out


def test_one_grafter_matches_compose_normal_on_c2():
    by_output = _points_by_output(C2, 3)
    outers = [x for points in by_output.values() for x in points]
    assert len(outers) == 4 + 32 + 384  # r! |G|^r |G|^r for r = 1, 2, 3
    for outer in outers:
        for j in range(1, outer.size + 1):
            _check_grafter(outer, j, by_output[outer.hues[j - 1]])
            # a checked outer computes the output that composites carry
            checked = DecoratedTuple(outer.b, outer.sigma, outer.colors)
            _check_grafter(checked, j, by_output[outer.hues[j - 1]][:7])


def test_one_grafter_matches_compose_normal_on_an_s3_sample():
    rng = random.Random(59)
    els = S3.elements()

    def point(r, h):
        while True:
            points = component_objects(
                tuple(rng.choice(els) for _ in range(r)), h)
            if points:
                return rng.choice(points)

    for _ in range(60):
        outer = point(rng.randint(1, 3), rng.choice(els))
        j = rng.randint(1, outer.size)
        need = els[outer.hues[j - 1]]
        _check_grafter(outer, j, [point(1 + n % 3, need) for n in range(12)])


def _error(call):
    with pytest.raises(TreeError) as raised:
        call()
    return str(raised.value)


def test_grafter_raises_as_compose_normal():
    outer = next(_components_with_output((el(1), el(3))))[1][0]
    fits = component_objects((el(1),), el(1))[0]
    for j in (0, 3):  # out of range: the grafter raises before any inner
        assert _error(lambda: grafter(outer, j)) == \
            _error(lambda: compose_normal(outer, j, fits))
    wrong = component_objects((el(0),), el(0))[0]
    empty = component_objects((), el(0))[0]
    # the C2 inner carries the output index that slot 1 needs
    other = component_objects((C2.element(1),), C2.element(1))[0]
    assert other.out == outer.hues[0] != wrong.out
    splice = grafter(outer, 1)
    for inner in (empty, other, wrong):
        assert _error(lambda: splice(inner)) == \
            _error(lambda: compose_normal(outer, 1, inner))
    # a checked build of the wrong inner carries the same output
    checked = DecoratedTuple(wrong.b, wrong.sigma, wrong.colors)
    assert checked.out == wrong.out
    assert _error(lambda: splice(checked)) == \
        _error(lambda: compose_normal(outer, 1, checked))
    # a grafter that raised still splices
    assert splice(fits) == compose_normal(outer, 1, fits)


def test_grafter_passes_on_the_output_of_a_checked_outer():
    built = next(_components_with_output((el(1), el(3))))[1][0]
    outer = DecoratedTuple(built.b, built.sigma, built.colors)
    fits = component_objects((el(1),), el(1))[0]
    assert grafter(outer, 1)(fits).out == outer.out == built.out
