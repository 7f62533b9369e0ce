"""Garside normal form and cabling tests.

The 42-letter word below (4 strands, all positive letters) is a frozen
cross-check: its left-greedy normal form data (infimum and canonical length,
also for its square) were computed with a separate, independently written
normal-form routine and must never drift.
"""
import hashlib
import random

import pytest

from gbraids.braids import (
    BraidWord,
    Permutation,
    all_permutations,
    block_transposition,
    braids_equal,
    cable_compose,
    cable_permutation,
    garside_normal_form,
    is_pure,
    normal_form,
    parse_braid_word,
    underlying_permutation,
)

# frozen oracle word: 0-based generator indices as recorded, shifted to 1-based
_ORACLE_0BASED = [1, 0, 2, 0, 1, 2, 1, 1, 2, 1, 0, 0, 2, 2, 1, 1, 0, 2, 0, 1,
                  2, 1, 0, 0, 2, 1, 1, 0, 2, 0, 2, 1, 0, 1, 0, 2, 0, 2, 1, 1,
                  0, 2]
ORACLE_WORD = BraidWord(4, tuple(x + 1 for x in _ORACLE_0BASED))


def test_oracle_word_normal_form():
    nf = garside_normal_form(ORACLE_WORD)
    assert nf.power == 0
    assert nf.canonical_length() == 13


def test_oracle_square_normal_form():
    square = ORACLE_WORD * ORACLE_WORD
    nf = garside_normal_form(square)
    assert nf.power == 2
    assert nf.canonical_length() == 22


def test_oracle_square_times_inverse_is_trivial():
    square = ORACLE_WORD * ORACLE_WORD
    w = square * square.inverse()
    assert braids_equal(w, BraidWord.identity(4))
    assert normal_form(w).letters == ()


# -- basic word algebra --------------------------------------------------


def test_parse_and_str_roundtrip():
    w = parse_braid_word("1 2 -1", 3)
    assert w.letters == (1, 2, -1)
    assert parse_braid_word(str(w), 3) == w


def test_bad_letters_rejected():
    with pytest.raises(Exception):
        BraidWord(3, (3,))
    with pytest.raises(Exception):
        BraidWord(2, (0,))
    with pytest.raises(Exception):
        parse_braid_word("1 x", 3)


def test_free_cancellation():
    assert normal_form(BraidWord(2, (1, -1))).letters == ()
    assert normal_form(BraidWord(3, (-2, 2))).letters == ()


def test_braid_relation():
    assert braids_equal(BraidWord(3, (1, 2, 1)), BraidWord(3, (2, 1, 2)))
    assert not braids_equal(BraidWord(3, (1, 2, 1)), BraidWord(3, (1, 2)))


def test_far_commutation():
    assert braids_equal(BraidWord(4, (1, 3)), BraidWord(4, (3, 1)))
    assert not braids_equal(BraidWord(4, (1, 2)), BraidWord(4, (2, 1)))


def test_half_twist_normal_form():
    nf = garside_normal_form(BraidWord(3, (1, 2, 1)))
    assert (nf.power, nf.factors) == (1, ())
    nf = garside_normal_form(BraidWord(3, (-1, -2, -1)))
    assert (nf.power, nf.factors) == (-1, ())


def test_normal_form_is_canonical_and_idempotent():
    rng = random.Random(7)
    for _ in range(40):
        strands = rng.randint(2, 5)
        length = rng.randint(0, 12)
        letters = tuple(rng.choice([1, -1]) * rng.randint(1, strands - 1)
                        for _ in range(length))
        w = BraidWord(strands, letters)
        canon = normal_form(w)
        assert braids_equal(w, canon)
        assert normal_form(canon) == canon
        assert underlying_permutation(canon) == underlying_permutation(w)


def test_golden_normal_forms():
    # sha256 of the normal-form letters of 120 seeded words, recorded on the
    # set-based kernel that the index-list kernel replaced
    rng = random.Random("golden-normal-forms")
    lines = []
    for _ in range(120):
        n = rng.randint(2, 8)
        length = rng.randint(0, 200)
        letters = tuple(rng.choice((1, -1)) * rng.randint(1, n - 1)
                        for _ in range(length))
        nf = normal_form(BraidWord(n, letters))
        lines.append(" ".join(map(str, nf.letters)))
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == \
        "31c0332dd81baba9c575e64d65791b554b68088d4e8fe1deca5f50eded1a7be5"


def test_normal_form_letters_are_in_range():
    # normal_form builds its word without the constructor's checks; the
    # words are those of test_golden_normal_forms
    rng = random.Random("golden-normal-forms")
    for _ in range(120):
        n = rng.randint(2, 8)
        length = rng.randint(0, 200)
        letters = tuple(rng.choice((1, -1)) * rng.randint(1, n - 1)
                        for _ in range(length))
        nf = normal_form(BraidWord(n, letters))
        assert nf.strands == n
        assert all(1 <= abs(l) <= n - 1 for l in nf.letters)


def _inversions(p):
    return sum(a > b for i, a in enumerate(p) for b in p[i + 1:])


def _times_letter(p, s):
    # p o t_s: swap the one-line entries at positions s, s+1
    q = list(p)
    q[s - 1], q[s] = q[s], q[s - 1]
    return tuple(q)


def _letter_times(s, p):
    # t_s o p: swap the values s, s+1
    return tuple(s + 1 if v == s else s if v == s + 1 else v for v in p)


def _cut_simples(n, letters):
    """Cut a positive word into maximal prefixes that stay reduced."""
    factors, p = [], tuple(range(1, n + 1))
    for s in letters:
        q = _times_letter(p, s)
        if _inversions(q) < _inversions(p):
            factors.append(p)
            q = _times_letter(tuple(range(1, n + 1)), s)
        p = q
    return factors + [p] if letters else factors


def _starting(p):
    return {s for s in range(1, len(p))
            if _inversions(_letter_times(s, p)) < _inversions(p)}


def _finishing(p):
    return {s for s in range(1, len(p))
            if _inversions(_times_letter(p, s)) < _inversions(p)}


def _permutation_of(n, letters):
    p = tuple(range(1, n + 1))
    for l in letters:
        p = _times_letter(p, abs(l))
    return p


def test_long_words_reach_a_left_weighted_normal_form():
    # an oracle written apart from gbraids.braids; only long words make the
    # one right-to-left pass per letter move many factors at once
    rng = random.Random("long-normal-forms")
    for _ in range(12):
        n = rng.randint(3, 8)
        letters = tuple(rng.choice((1, -1)) * rng.randint(1, n - 1)
                        for _ in range(rng.randint(300, 600)))
        got = normal_form(BraidWord(n, letters)).letters
        delta = tuple(range(n, 0, -1))
        half = n * (n - 1) // 2
        neg = next((i for i, l in enumerate(got) if l > 0), len(got))
        head, rest = got[:neg], got[neg:]
        assert all(l > 0 for l in rest)
        assert len(head) % half == 0
        assert _cut_simples(n, [-l for l in reversed(head)]) == \
            [delta] * (len(head) // half)
        factors = _cut_simples(n, rest)
        if head:
            body = factors
        else:
            body = factors[next((i for i, f in enumerate(factors)
                                 if f != delta), len(factors)):]
        assert delta not in body
        assert tuple(range(1, n + 1)) not in body
        for a, b in zip(body, body[1:]):
            assert _starting(b) <= _finishing(a)
        assert _permutation_of(n, got) == _permutation_of(n, letters)


def test_relator_insertion_invariance():
    rng = random.Random(23)
    for _ in range(60):
        strands = rng.randint(2, 5)
        letters = [rng.choice([1, -1]) * rng.randint(1, strands - 1)
                   for _ in range(rng.randint(0, 10))]
        w = BraidWord(strands, tuple(letters))
        pos = rng.randint(0, len(letters))
        kind = rng.randrange(3)
        if kind == 0:  # free cancellation pair
            j = rng.choice([1, -1]) * rng.randint(1, strands - 1)
            inserted = [j, -j]
        elif kind == 1 and strands >= 3:  # braid relator
            j = rng.randint(1, strands - 2)
            inserted = [j, j + 1, j, -(j + 1), -j, -(j + 1)]
        elif strands >= 4:  # far commutator
            j = rng.randint(1, strands - 3)
            k = rng.randint(j + 2, strands - 1)
            inserted = [j, k, -j, -k]
        else:
            inserted = []
        v = BraidWord(strands, tuple(letters[:pos] + inserted + letters[pos:]))
        assert braids_equal(w, v)


def test_underlying_permutation_is_letter_order_sensitive():
    # letters act last-to-first: [1, 2] first swaps 2,3 then 1,2
    p = underlying_permutation(BraidWord(3, (1, 2)))
    assert p.images == (2, 3, 1)
    q = underlying_permutation(BraidWord(3, (2, 1)))
    assert q.images == (3, 1, 2)


def test_permutation_homomorphism():
    rng = random.Random(5)
    for _ in range(30):
        strands = rng.randint(2, 5)
        mk = lambda: BraidWord(strands, tuple(
            rng.choice([1, -1]) * rng.randint(1, strands - 1)
            for _ in range(rng.randint(0, 8))))
        u, v = mk(), mk()
        assert underlying_permutation(u * v) == \
            underlying_permutation(u) @ underlying_permutation(v)


def test_is_pure():
    assert is_pure(BraidWord(2, (1, 1)))
    assert not is_pure(BraidWord(2, (1,)))
    assert is_pure(BraidWord(3, ()))


# -- cabling -------------------------------------------------------------


def test_block_transposition_pinned_words():
    assert block_transposition(3, 1, 2, 1).letters == (1, 2)
    assert block_transposition(3, 1, 1, 2).letters == (2, 1)
    assert block_transposition(4, 2, 1, 1).letters == (2,)
    assert block_transposition(4, 1, 2, 2).letters == (2, 1, 3, 2)


def test_block_transposition_permutation():
    # blocks trade places, each keeping its internal order
    p = underlying_permutation(block_transposition(5, 1, 2, 3))
    assert p.images == (4, 5, 1, 2, 3)


def test_cable_with_trivial_strand_is_identity():
    w = BraidWord(3, (1, -2, 1))
    for j in (1, 2, 3):
        assert cable_compose(w, j, BraidWord.identity(1)) == w
    assert cable_compose(BraidWord.identity(1), 1, w) == w


def test_cable_permutation_compatibility():
    rng = random.Random(11)
    for _ in range(40):
        r = rng.randint(1, 3)
        s = rng.randint(1, 3)
        j = rng.randint(1, r)
        mk = lambda n: BraidWord(n, tuple(
            rng.choice([1, -1]) * rng.randint(1, n - 1)
            for _ in range(rng.randint(0, 6))) if n > 1 else ())
        u, v = mk(r), mk(s)
        got = underlying_permutation(cable_compose(u, j, v))
        want = cable_permutation(underlying_permutation(u), j,
                                 underlying_permutation(v))
        assert got == want


def test_cable_nesting_associativity_instance():
    u = BraidWord(2, (1, 1, -1))
    v = BraidWord(3, (2, -1))
    w = BraidWord(2, (1,))
    # expanding strand 2 of v (inside slot 1 of u) two ways
    lhs = cable_compose(cable_compose(u, 1, v), 1 + 2 - 1, w)
    rhs = cable_compose(u, 1, cable_compose(v, 2, w))
    assert lhs.strands == rhs.strands == 5
    assert braids_equal(lhs, rhs)


def test_cable_splits_one_crossing_into_block_crossing():
    # one positive crossing, left strand doubled
    got = cable_compose(BraidWord(2, (1,)), 1, BraidWord.identity(2))
    assert got.letters == block_transposition(3, 1, 2, 1).letters == (1, 2)
    # right strand doubled
    got = cable_compose(BraidWord(2, (1,)), 2, BraidWord.identity(2))
    assert got.letters == (2, 1)


def test_cable_concatenates_inner_at_source_end():
    got = cable_compose(BraidWord(2, (1,)), 2, BraidWord(2, (1,)))
    # written word: block crossing letters first, then the shifted inner letter
    assert got.letters == (2, 1, 2)


def test_permutation_basics():
    p = Permutation((2, 3, 1))
    assert p(1) == 2 and p(3) == 1
    assert (p @ p.inverse()).is_identity()
    assert len(all_permutations(3)) == 6
    assert all_permutations(3)[0].is_identity()
    with pytest.raises(Exception):
        Permutation((1, 1, 2))
