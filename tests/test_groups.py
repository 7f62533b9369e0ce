"""Group arithmetic against independently built oracles."""
import itertools
import random

import pytest

from gbraids.braids import all_permutations
from gbraids.groups import (
    FiniteGroup,
    GroupError,
    GroupMismatchError,
    conjugate,
    make_group,
    product,
    product_of,
    read_group_table,
)
from gbraids.hurwitz import color_condition, parse_signature, parse_tuple
from gbraids.trees import output_color, random_tree

# Independent S3 oracle: compose one-line permutations directly, never via the
# package's table machinery.  Lexicographic indexing of perms of {0,1,2}:
#   0:e  1:(23)  2:(12)  3:(123)  4:(132)  5:(13)
S3_PERMS = sorted(itertools.permutations(range(3)))
E, T23, T12, C123, C132, T13 = range(6)


def s3_compose(i, j):
    p, q = S3_PERMS[i], S3_PERMS[j]
    return S3_PERMS.index(tuple(p[q[k]] for k in range(3)))


@pytest.fixture(scope="module")
def s3():
    return make_group("S3")


@pytest.mark.parametrize(
    "spec, order",
    [("C1", 1), ("C2", 2), ("C6", 6), ("S3", 6), ("S4", 24), ("D3", 6),
     ("D4", 8), ("C2xC2", 4), ("C2xS3", 12)],
)
def test_make_group_orders(spec, order):
    g = make_group(spec)
    assert g.order == order
    assert g.label == spec


def test_s3_table_matches_independent_composition(s3):
    for i in range(6):
        for j in range(6):
            assert s3.mul[i][j] == s3_compose(i, j)


def test_s3_product_examples(s3):
    # (12)*(13) = (132) under "apply right factor first"
    assert product(s3.element(T12), s3.element(T13)).index == C132
    assert product(s3.element(T13), s3.element(T12)).index == C123


def test_s3_conjugate_example(s3):
    # (12)(13)(12) = (23)
    assert conjugate(s3.element(T12), s3.element(T13)).index == T23


def test_identity_and_inverse_cases(s3):
    e = s3.identity
    for g in s3:
        assert product(e, g) == g
        assert product(g, e) == g
        assert product(g, g.inverse()).is_identity()


def test_conjugate_is_automorphism():
    g = make_group("D4")
    for h in g:
        for a in g:
            for b in g:
                assert conjugate(h, product(a, b)) == product(
                    conjugate(h, a), conjugate(h, b)
                )


def test_conjugation_composes():
    g = make_group("S3")
    for h2 in g:
        for h1 in g:
            for x in g:
                assert conjugate(h2, conjugate(h1, x)) == conjugate(
                    product(h2, h1), x
                )


def test_abelian_conjugation_trivial():
    g = make_group("C6")
    assert g.is_abelian()
    for h in g:
        for x in g:
            assert conjugate(h, x) == x
    assert not make_group("S3").is_abelian()


def test_product_of_empty_is_identity(s3):
    assert product_of([], s3).is_identity()
    xs = [s3.element(T12), s3.element(T13), s3.element(T12)]
    assert product_of(xs, s3).index == s3_compose(s3_compose(T12, T13), T12)


def test_group_mismatch_raises(s3):
    c2 = make_group("C2")
    with pytest.raises(GroupMismatchError):
        product(s3.element(1), c2.element(1))


def test_operator_sugar(s3):
    a, b = s3.element(T12), s3.element(T13)
    assert (a * b).index == C132
    assert (~a) == a  # transpositions are involutions
    assert (~s3.element(C123)).index == C132


def test_table_file_round_trip(tmp_path, s3):
    path = tmp_path / "s3.tbl"
    path.write_text(s3.to_table_text())
    g = read_group_table(path)
    assert g.order == 6
    assert g.mul == s3.mul


def test_table_file_rejects_non_associative(tmp_path):
    # tweak one entry of the C3 table; the error must name the failing triple
    bad = "3\n0 1 2\n1 2 0\n2 0 1\n".replace("2 0 1", "2 1 1")
    path = tmp_path / "bad.tbl"
    path.write_text(bad)
    with pytest.raises(GroupError):
        read_group_table(path)


def test_table_file_rejects_malformed(tmp_path):
    path = tmp_path / "short.tbl"
    path.write_text("3\n0 1 2\n")
    with pytest.raises(GroupError, match="entries"):
        read_group_table(path)


def test_identity_must_be_element_zero():
    # a valid C2 table with rows swapped puts the identity at index 1
    with pytest.raises(GroupError, match="identity axiom fails at element 0"):
        FiniteGroup(2, ((1, 0), (0, 1)), (0, 1))
    with pytest.raises(TypeError):  # there is no identity to choose
        FiniteGroup(2, ((0, 1), (1, 0)), (0, 1), "C2", 1)


def _permutation_table(perms):
    """The table of a closed set of 0-based one-line tuples, indexed in
    lexicographic order, with (p*q)(i) = p(q(i))."""
    elements = sorted(perms)
    index = {p: k for k, p in enumerate(elements)}
    return tuple(tuple(index[tuple(p[i] for i in q)] for q in elements)
                 for p in elements)


def _closure(generators, n):
    """Every product of ``generators``, found by search from the identity."""
    found, frontier = {tuple(range(n))}, [tuple(range(n))]
    while frontier:
        p = frontier.pop()
        for g in generators:
            q = tuple(g[i] for i in p)
            if q not in found:
                found.add(q)
                frontier.append(q)
    return found


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_symmetric_tables_match_composed_tuples(n):
    assert make_group(f"S{n}").mul == \
        _permutation_table(itertools.permutations(range(n)))


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_dihedral_tables_match_composed_tuples(n):
    rotation = tuple((i + 1) % n for i in range(n))
    reflection = tuple(-i % n for i in range(n))
    elements = _closure([rotation, reflection], n)
    assert len(elements) == 2 * n
    assert make_group(f"D{n}").mul == _permutation_table(elements)


def test_bad_specs_rejected():
    for spec in ["", "X3", "C0", "Q8", "C2x", "c2"]:
        with pytest.raises(GroupError):
            make_group(spec)


def test_dihedral_small_cases():
    d1, d2, d3 = make_group("D1"), make_group("D2"), make_group("D3")
    assert (d1.order, d2.order, d3.order) == (2, 4, 6)
    assert d2.is_abelian()
    # D3 is S3 in disguise: same multiplication table after lex indexing
    assert d3.mul == make_group("S3").mul


@pytest.mark.parametrize("spec", ["S3", "C2xC2"])
def test_every_producer_returns_the_groups_singleton(spec):
    g = make_group(spec)

    def canonical(x):
        return x is g.element(x.index)

    assert all(x is g.element(i) for i, x in enumerate(g.elements()))
    assert g.identity is g.element(0)
    assert product_of([], g) is g.element(0)
    for a in g:
        assert canonical(~a) and canonical(a.inverse())
        for b in g:
            assert canonical(a * b)
            assert canonical(conjugate(a, b))
            assert canonical(product_of([a, b, a], g))
    text = ",".join(str(i) for i in range(g.order))
    assert all(canonical(x) for x in parse_tuple(text, g))
    sig = parse_signature(f"{text}->1", g)
    assert all(canonical(x) for x in sig.inputs)
    assert sig.output is g.element(1)
    rng = random.Random(7)
    for r in range(4):
        for _ in range(10):
            assert canonical(output_color(random_tree(g, r, rng), g))
    for sigma in all_permutations(3):
        b = tuple(g.element(rng.randrange(g.order)) for _ in range(3))
        colors = tuple(g.element(rng.randrange(g.order)) for _ in range(3))
        assert canonical(color_condition(sigma, b, colors))
