import hashlib
import itertools
import random
import re

import pytest

from gbraids import algebra, relations, trees
from gbraids.algebra import (AlgebraError, CrossedAlgebraData,
                             builtin_group_example, check_coherence,
                             coherence_equations, evaluate_morphism,
                             evaluate_object, solve_coherence, variable_order)
from gbraids.groups import make_group
from gbraids.operad import CapExceeded
from gbraids.relations import (GENERATORS, MorphismLetter, MorphismWord,
                               RelationError, _Program, check_all_relations,
                               get_relation, interpret_morphism,
                               load_relation_table)
from gbraids.trees import (InputLeaf, LabelEdge, Tensor, TreeError,
                           _map_leaves, output_color, parse_tree, random_tree,
                           subtree_at)
from tree_walk import apply_generator, walk_morphism

C2 = make_group("C2")
C3 = make_group("C3")
S3 = make_group("S3")
D4 = make_group("D4")

# sha256 of the ordered equation lists, each equation as its sorted items,
# as the per-instance tree walk (the oracle below) gives them
FROZEN_EQUATION_DIGESTS = {
    "C2": "b0e220dd432773328cede479b38edc047e3921dc09e609f939589b89d35aa2fc",
    "C3": "4cfdbd64dcdb86fa38bb56d1bfc6ac5940d35a421a07c16ceb4213906d123719",
    "S3": "08598f1bc50298202cf8ac4665dd88861889e43748e4bc24f49491a9769c9f3d",
    "C2xC2xC2":
        "b467ceca3748d0ef7ca4c893f454bacb2afb0dfcea1718adad2d9bb1918eb6c4",
    "D4": "0f9d9ad4d98b9286189e818c37f7b22b4b0258f3d0975f31c8973b69fec6a01b",
}

FROZEN_C2_RANK = 28
FROZEN_C2_SOLUTIONS = 256  # 2 ** (36 - 28)


def test_variable_count_and_breakdown():
    order = variable_order(C2)
    assert len(order) == 36
    by_gen = {}
    for gen, _ in order:
        by_gen[gen] = by_gen.get(gen, 0) + 1
    assert by_gen == {"alpha": 8, "ell": 2, "r": 2, "beta": 8,
                      "gamma": 8, "delta": 2, "eps": 2, "c": 4}
    assert len(variable_order(S3)) == 3 * 216 + 4 * 6 + 36


def test_builtin_example_is_coherent_and_nontrivial():
    data = builtin_group_example()
    report = check_coherence(data)
    assert report["coherent"] is True
    assert report["total_failures"] == 0
    assert any(data.to_vector())
    assert data.scalar("c", (1, 1)) == 1


def test_flipped_associator_scalar_fails_the_pentagon():
    data = builtin_group_example()
    values = dict(data.values)
    values[("alpha", (0, 0, 0))] = 1
    bad = CrossedAlgebraData(C2, 2, values)
    report = check_coherence(bad)
    assert report["coherent"] is False
    named = {r["relation"]: r for r in report["relations"]}
    assert named["pentagon"]["failure_count"] > 0
    failure = named["pentagon"]["failures"][0]
    assert failure["lhs"] != failure["rhs"]


def _gf2_rank(equations, order):
    """Textbook row-echelon elimination over GF(2), rows as bitmasks."""
    index = {v: i for i, v in enumerate(order)}
    rows = []
    for eq in equations:
        mask = 0
        for v, c in eq.items():
            if c % 2:
                mask |= 1 << index[v]
        if mask:
            rows.append(mask)
    rank = 0
    for col in range(len(order)):
        bit = 1 << col
        pivot = None
        for i in range(rank, len(rows)):
            if rows[i] & bit:
                pivot = i
                break
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i in range(len(rows)):
            if i != rank and rows[i] & bit:
                rows[i] ^= rows[rank]
        rank += 1
    return rank


def test_solution_count_matches_elimination_oracle():
    order = variable_order(C2)
    equations = coherence_equations(C2)
    rank = _gf2_rank(equations, order)
    assert rank == FROZEN_C2_RANK
    solutions = solve_coherence(C2, modulus=2)
    assert len(solutions) == FROZEN_C2_SOLUTIONS
    assert len(solutions) == 2 ** (len(order) - rank)
    vectors = [s.to_vector() for s in solutions]
    assert vectors == sorted(vectors)
    assert len(set(vectors)) == len(vectors)
    # every enumerated datum satisfies every equation
    index = {v: i for i, v in enumerate(order)}
    for vec in vectors:
        for eq in equations:
            assert sum(c * vec[index[v]] for v, c in eq.items()) % 2 == 0


def _walk_key(sub, gen, group):
    """Key of the generator instance whose forward source is ``sub``."""
    def out(t):
        return output_color(t, group).index

    if gen == "alpha":
        return (out(sub.left.left), out(sub.left.right), out(sub.right))
    if gen == "ell":
        return (out(sub.right),)
    if gen == "r":
        return (out(sub.left),)
    if gen == "beta":
        return (sub.left.label.index, out(sub.left.child),
                out(sub.right.child))
    if gen == "gamma":
        return (sub.label.index, sub.child.label.index, out(sub.child.child))
    if gen == "delta":
        return (out(sub.child),)
    if gen == "eps":
        return (sub.label.index,)
    return (out(sub.left), out(sub.right))  # c


def _walk_variables(source, word, group):
    """The tree-walking oracle: apply each letter to the real tree and read
    ((gen, key), sign) off its forward source (the result, for an inverse
    letter).  Returns the target tree and the terms."""
    tree, terms = source, []
    for letter in word.letters:
        after = apply_generator(tree, letter, group)
        shaped = subtree_at(after if letter.inverse else tree, letter.path)
        terms.append(((letter.gen, _walk_key(shaped, letter.gen, group)),
                      -1 if letter.inverse else 1))
        tree = after
    return tree, terms


def _walk_scalar(data, source, word):
    terms = _walk_variables(source, word, data.group)[1]
    return sum(sign * data.scalar(*var) for var, sign in terms) % data.modulus


def _instances(group):
    """(entry, assignment, source parsed afresh, lhs, rhs) per instance."""
    for entry in load_relation_table():
        lhs = MorphismWord.from_json(entry["lhs"])
        rhs = MorphismWord.from_json(entry["rhs"])
        names = entry["symbols"]
        for values in itertools.product(group.elements(), repeat=len(names)):
            assignment = dict(zip(names, values))
            source = parse_tree(entry["source"], group,
                                dict(assignment, e=group.identity))
            yield entry, assignment, source, lhs, rhs


def _fresh_equations(group):
    """coherence_equations rebuilt with a parse and a tree walk per
    instance: the same cancellation, and duplicates kept once in first-seen
    order."""
    seen, equations = set(), []
    for _, _, source, lhs, rhs in _instances(group):
        coeffs = {}
        for word, sign in ((lhs, 1), (rhs, -1)):
            for var, s in _walk_variables(source, word, group)[1]:
                coeffs[var] = coeffs.get(var, 0) + sign * s
        coeffs = {v: c for v, c in coeffs.items() if c}
        fingerprint = frozenset(coeffs.items())
        if coeffs and fingerprint not in seen:
            seen.add(fingerprint)
            equations.append(coeffs)
    return equations


def test_coherence_equations_match_a_fresh_parse():
    for group in (C2, C3, S3, D4):
        assert coherence_equations(group) == _fresh_equations(group), group
    assert len(coherence_equations(C2)) == 89


@pytest.mark.parametrize("spec", sorted(FROZEN_EQUATION_DIGESTS))
def test_coherence_equations_pinned(spec):
    equations = coherence_equations(make_group(spec))
    text = repr([sorted(eq.items()) for eq in equations])
    assert hashlib.sha256(text.encode()).hexdigest() == \
        FROZEN_EQUATION_DIGESTS[spec]


def test_equations_make_no_per_instance_tree_calls(monkeypatch):
    """The table is traced once per entry: building the S3 equations and
    checking the S3 relations make exactly as many ``_rewrite``,
    ``_map_leaves`` and ``output_color`` calls as for C2, whatever the
    number of instances."""
    counts = {}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name, fn in (("_rewrite", relations._rewrite),
                     ("_map_leaves", _map_leaves),
                     ("output_color", output_color)):
        for module in (algebra, relations, trees):
            if getattr(module, name, None) is fn:
                monkeypatch.setattr(module, name, counted(name, fn))
    per_group = {}
    for group in (C2, S3):
        counts.update(dict.fromkeys(
            ("_rewrite", "_map_leaves", "output_color"), 0))
        coherence_equations(group)
        assert check_all_relations(group)["total_failures"] == 0
        per_group[group.label] = dict(counts)
    table = load_relation_table()
    assert per_group["S3"] == per_group["C2"] == {
        "_rewrite": 2 * sum(len(e["lhs"]) + len(e["rhs"]) for e in table),
        "_map_leaves": 2 * len(table),
        "output_color": 0,
    }


def test_entries_are_traced_in_chunks(monkeypatch):
    """A 4-symbol entry over S4 has 24^4 = 331,776 assignments; its first
    instance comes from one program traced on at most 4096 of them."""
    s4 = make_group("S4")
    traced = []

    class Recorded(_Program):
        def __init__(self, group, template, morphisms, symbols, assignments,
                     mutate):
            traced.append(len(assignments))
            super().__init__(group, template, morphisms, symbols, assignments,
                             mutate)

    monkeypatch.setattr(relations, "_Program", Recorded)
    entry = get_relation("pentagon")
    values, program, i = next(relations._instances(s4, entry))
    left, right = program.terms(i)
    assert len(traced) == 1 and 0 < traced[0] <= 4096
    source = parse_tree(entry["source"], s4,
                        {name: s4.identity for name in ("e", *entry["symbols"])})
    assert values == (0, 0, 0, 0)
    assert (left, right) == tuple(
        _walk_variables(source, MorphismWord.from_json(entry[side]), s4)[1]
        for side in ("lhs", "rhs"))


def test_chunk_boundaries_do_not_move_results(monkeypatch):
    rng = random.Random(5)
    data = _random_data(C3, 4, rng)

    def results():
        return (coherence_equations(C3), check_coherence(data),
                check_all_relations(C3, mutate="braiding"),
                check_all_relations(C3, mutate="braiding", assignment_cap=7))

    expected = results()
    monkeypatch.setattr(relations, "_CHUNK", 5)
    assert results() == expected


def test_solution_set_is_a_group_under_pointwise_sum():
    vectors = {s.to_vector() for s in solve_coherence(C2, modulus=2)}
    sample = sorted(vectors)[:20]
    for a in sample:
        for b in sample:
            assert tuple((x + y) % 2 for x, y in zip(a, b)) in vectors


def test_every_solution_passes_full_coherence():
    solutions = solve_coherence(C2, modulus=2)
    for data in solutions[:8] + solutions[-8:]:
        assert check_coherence(data)["coherent"] is True


def test_unit_associator_scalar_is_forced_to_vanish():
    # the pentagon at all-identity colors uses the same variable twice on
    # one side and three times on the other
    equations = coherence_equations(C2)
    assert any(set(eq) == {("alpha", (0, 0, 0))} for eq in equations)
    for data in solve_coherence(C2, modulus=2):
        assert data.scalar("alpha", (0, 0, 0)) == 0


def test_solver_is_deterministic():
    first = [s.to_vector() for s in solve_coherence(C2, modulus=2)]
    second = [s.to_vector() for s in solve_coherence(C2, modulus=2)]
    assert first == second


def test_solver_cap():
    with pytest.raises(CapExceeded):
        solve_coherence(C2, modulus=2, cap=100)


def test_braiding_scalar_evaluation():
    data = builtin_group_example()
    g = C2.element(1)
    src = parse_tree("T(leaf:1:1,leaf:2:1)", C2)
    word = MorphismWord((MorphismLetter("c"),))
    assert evaluate_morphism(data, src, word) == 1
    mixed = parse_tree("T(leaf:1:0,leaf:2:1)", C2)
    assert evaluate_morphism(data, mixed, word) == 0
    assert evaluate_object(data, src) == g * g


def test_inverse_letter_cancels_its_scalar():
    data = builtin_group_example()
    src = parse_tree("T(leaf:1:1,leaf:2:1)", C2)
    word = MorphismWord((MorphismLetter("c"),
                         MorphismLetter("c", inverse=True)))
    assert evaluate_morphism(data, src, word) == 0
    expected = [(("c", (1, 1)), 1), (("c", (1, 1)), -1)]
    assert _Program(C2, src, (word,)).terms(0) == [expected]
    tree, terms = _walk_variables(src, word, C2)
    assert tree == src
    assert terms == expected


def test_program_pinned_keys():
    src = parse_tree("T(T(leaf:1:2,leaf:2:1),leaf:3:3)", S3)
    word = MorphismWord((MorphismLetter("alpha"),))
    expected = [(("alpha", (2, 1, 3)), 1)]
    assert _Program(S3, src, (word,)).terms(0) == [expected]
    assert _walk_variables(src, word, S3)[1] == expected
    # the same key from a template, at the assignment that rebuilds src
    template = parse_tree("T(T(leaf:1:x,leaf:2:y),leaf:3:3)", S3,
                          {"x": "x", "y": "y"})
    assert _Program(S3, template, (word,), ("x", "y"),
                    [(0, 0), (2, 1)]).terms(1) == [expected]


@pytest.mark.parametrize("text, letters", [
    ("T(L[h](leaf:1:x),L[k](leaf:2:y))", [("beta", (), False)]),
    ("T(leaf:1:x,L[h](leaf:2:y))", [("delta", (1,), False), ("c", (), False)]),
    ("T(L[h](leaf:1:x),T(leaf:2:y,U))", [("c", (), True), ("r", (0,), False)]),
])
def test_open_equalities_are_tested_per_assignment(text, letters):
    """Equalities between symbols are left open at trace time and decided
    per assignment, with the tree walk's error or terms."""
    names = ("h", "k", "x", "y")
    template = parse_tree(text, S3, {n: n for n in names})
    word = MorphismWord(tuple(MorphismLetter(*x) for x in letters))
    assignments = list(itertools.product(range(S3.order), repeat=len(names)))
    program = _Program(S3, template, (word,), names, assignments)
    assert program.open
    outcomes = set()
    for i, values in enumerate(assignments):
        assignment = dict(zip(names, map(S3.element, values)))
        source = _map_leaves(
            template,
            lambda leaf: InputLeaf(leaf.slot, assignment[leaf.color]),
            lambda h: assignment[h])
        got = _outcome(lambda: program.terms(i)[0])
        assert got == _outcome(
            lambda: _walk_variables(source, word, S3)[1])
        outcomes.add(type(got))
    assert outcomes == {list, tuple}


def _walk_coherence(data, max_reported=20):
    """check_coherence rebuilt by parsing and walking every instance."""
    reports = {}
    for entry, assignment, source, lhs, rhs in _instances(data.group):
        report = reports.setdefault(entry["id"], {
            "relation": entry["id"], "assignments_checked": 0,
            "failure_count": 0, "failures": []})
        report["assignments_checked"] += 1
        left = _walk_scalar(data, source, lhs)
        right = _walk_scalar(data, source, rhs)
        if left != right:
            report["failure_count"] += 1
            if len(report["failures"]) < max_reported:
                report["failures"].append({
                    "assignment": {k: v.index for k, v in assignment.items()},
                    "lhs": left, "rhs": right})
    total = sum(r["failure_count"] for r in reports.values())
    return {"group": data.group.label, "modulus": data.modulus,
            "relations": list(reports.values()), "total_failures": total,
            "coherent": total == 0}


def _random_data(group, modulus, rng):
    return CrossedAlgebraData.from_vector(
        group, modulus,
        [rng.randrange(modulus) for _ in variable_order(group)])


def test_check_coherence_matches_a_tree_walk():
    rng = random.Random(20261019)
    solutions = solve_coherence(C2, modulus=2)
    data = [builtin_group_example(), builtin_group_example(4),
            rng.choice(solutions), _random_data(C2, 2, rng),
            _random_data(C2, 3, rng), CrossedAlgebraData.trivial(C3, 3),
            _random_data(C3, 2, rng), _random_data(S3, 5, rng)]
    # a random datum away from a coherent one in a single variable
    near = dict(rng.choice(solutions).values)
    near[("beta", (1, 0, 1))] ^= 1
    data.append(CrossedAlgebraData(C2, 2, near))
    for datum in data:
        report = check_coherence(datum, max_reported=3)
        assert report == _walk_coherence(datum, max_reported=3)
    assert {check_coherence(d)["coherent"] for d in data} == {True, False}


def _relabel(tree, group, rng):
    """A tree of the same shape and slots with fresh random elements."""
    def element():
        return group.element(rng.randrange(group.order))
    return _map_leaves(tree, lambda leaf: InputLeaf(leaf.slot, element()),
                       lambda h: element())


def _paths(tree):
    stack, paths = [(tree, ())], []
    while stack:
        node, path = stack.pop()
        paths.append(path)
        if isinstance(node, Tensor):
            stack += ((node.left, path + (0,)), (node.right, path + (1,)))
        elif isinstance(node, LabelEdge):
            stack.append((node.child, path + (0,)))
    return sorted(paths)


def _random_word(tree, group, rng, length):
    """A word whose every letter applies to ``tree`` where it is reached;
    each step draws a generator and direction first, then a site."""
    letters = []
    for _ in range(length):
        candidates = {}
        for path in _paths(tree):
            for gen in GENERATORS:
                for inverse in (False, True):
                    letter = MorphismLetter(gen, path, inverse)
                    try:
                        after = apply_generator(tree, letter, group)
                    except (RelationError, TreeError):
                        continue
                    candidates.setdefault((gen, inverse), []).append(
                        (letter, after))
        letter, tree = rng.choice(candidates[rng.choice(sorted(candidates))])
        letters.append(letter)
    return MorphismWord(tuple(letters))


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (RelationError, TreeError) as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("group", [C2, C3, S3], ids=lambda g: g.label)
def test_evaluate_morphism_matches_a_tree_walk(group):
    """Random words on random trees: words that apply, evaluated again on
    trees of the same shape with fresh elements, where beta, delta and
    inverse c may fail, and words of arbitrary letters, which may also
    fail on the shape.  The first failing letter decides the error."""
    rng = random.Random(f"evaluate-{group.label}")
    data = _random_data(group, 5, rng)
    outcomes = set()
    for _ in range(60):
        tree = random_tree(group, rng.randrange(1, 5), rng)
        walked = _random_word(tree, group, rng, rng.randrange(1, 7))
        arbitrary = MorphismWord(tuple(
            MorphismLetter(rng.choice(GENERATORS),
                           tuple(rng.randrange(2) for _ in range(
                               rng.randrange(3))), rng.random() < 0.3)
            for _ in range(rng.randrange(1, 5))))
        for source in (tree, _relabel(tree, group, rng)):
            for word in (walked, arbitrary):
                got = _outcome(evaluate_morphism, data, source, word)
                assert got == _outcome(_walk_scalar, data, source, word)
                outcomes.add(got[1] if type(got) is tuple else "value")
    assert {"value", "delta removes only identity labels",
            "path descends past a leaf"} <= outcomes


@pytest.mark.parametrize("group", [C2, C3, S3], ids=lambda g: g.label)
def test_interpret_morphism_matches_a_tree_walk(group):
    """Random words as above, with either braiding: ``interpret_morphism``
    gives the tree walk's target and braid, or its first error."""
    rng = random.Random(f"interpret-{group.label}")
    outcomes = set()
    for _ in range(40):
        tree = random_tree(group, rng.randrange(1, 5), rng)
        walked = _random_word(tree, group, rng, rng.randrange(1, 7))
        for source in (tree, _relabel(tree, group, rng)):
            for mutate in (None, "braiding"):
                got = _outcome(interpret_morphism, source, walked, None,
                               mutate)
                assert got == _outcome(walk_morphism, source, walked, group,
                                       mutate)
                outcomes.add(got[1] if type(got) is tuple else "value")
    assert {"value", "delta removes only identity labels"} <= outcomes


@pytest.mark.parametrize("text, letters, message", [
    ("T(L[1](leaf:1:0),L[2](leaf:2:0))", [("beta", (), False)],
     "beta needs equal labels on both factors"),
    ("L[2](leaf:1:1)", [("delta", (), False)],
     "delta removes only identity labels"),
    ("T(L[3](leaf:1:2),leaf:2:1)", [("c", (), True)],
     "inverse c: label is not the output color of the right factor"),
    ("L[1](L[2](leaf:1:0))", [("gamma", (), True)],
     "inverse gamma needs a factorization"),
    ("L[1](U)", [("eps", (), True)], "inverse eps needs a label"),
    ("T(leaf:1:1,leaf:2:2)", [("alpha", (0, 0), False)],
     "path descends past a leaf"),
    ("T(leaf:1:1,leaf:2:2)", [("ell", (), True), ("ell", (2,), False)],
     "bad path step 2 at tensor"),
    ("T(leaf:1:1,leaf:2:2)", [("alpha", (), False)],
     "alpha does not apply at (): found Tensor"),
])
def test_evaluate_morphism_errors_match_a_tree_walk(text, letters, message):
    data = _random_data(S3, 3, random.Random(7))
    source = parse_tree(text, S3)
    word = MorphismWord(tuple(MorphismLetter(*x) for x in letters))
    got = _outcome(evaluate_morphism, data, source, word)
    assert got == _outcome(_walk_scalar, data, source, word)
    assert got[1] == message


def test_concrete_tree_is_traced_on_one_assignment():
    """A tree without symbols is a template with one empty assignment:
    every color and label is a single index, so repeated braidings stay
    cheap and agree with the tree walk."""
    data = _random_data(S3, 7, random.Random(3))
    src = parse_tree("T(T(leaf:1:1,L[4](leaf:2:3)),leaf:3:5)", S3)
    word = MorphismWord((MorphismLetter("c"),) * 12)
    program = _Program(S3, src, (word,))
    [side] = program.sides
    assert program.unit == (0,) and not program.open
    assert all(len(keys) == 1 for _, keys, _ in side)
    assert evaluate_morphism(data, src, word) == _walk_scalar(data, src, word)


def test_evaluate_morphism_rejects_foreign_trees():
    data = builtin_group_example()
    word = MorphismWord((MorphismLetter("c"),))
    for text in ("T(leaf:1:1,leaf:2:1)", "T(leaf:1:5,leaf:2:1)"):
        with pytest.raises(TreeError,
                           match="mixed groups in one tree: S3 vs C2"):
            evaluate_morphism(data, parse_tree(text, S3), word)


def test_evaluate_object_rejects_foreign_trees():
    data = builtin_group_example()
    with pytest.raises(TreeError):
        evaluate_object(data, parse_tree("T(leaf:1:2,leaf:2:1)", S3))


def test_json_round_trip():
    data = builtin_group_example()
    payload = data.to_json()
    assert payload["modulus"] == 2
    assert payload["values"]["c:1,1"] == 1
    back = CrossedAlgebraData.from_json(C2, payload)
    assert back.values == data.values
    with pytest.raises(AlgebraError):
        CrossedAlgebraData.from_json(S3, payload)


def test_validation_rejects_malformed_data():
    with pytest.raises(AlgebraError):
        CrossedAlgebraData.from_vector(C2, 2, (0,) * 35)
    with pytest.raises(AlgebraError):
        CrossedAlgebraData.from_vector(C2, 2, (0,) * 35 + (2,))
    values = {v: 0 for v in variable_order(C2)}
    values.pop(("c", (0, 0)))
    with pytest.raises(AlgebraError):
        CrossedAlgebraData(C2, 2, values)
    values[("c", (0, 0))] = 0
    values[("c", (0, 2))] = 0  # complete, with one key no variable has
    with pytest.raises(AlgebraError, match="0 missing, 1 unexpected"):
        CrossedAlgebraData(C2, 2, values)
    with pytest.raises(AlgebraError):
        builtin_group_example(modulus=3)
    for modulus in (0, -2):
        with pytest.raises(AlgebraError):
            solve_coherence(C2, modulus=modulus)
    payload = builtin_group_example().to_json()
    # JSON true is a bool, which Python counts as the int 1
    flagged = dict(payload["values"], **{"alpha:0,0,0": True})
    for bad in ([payload], {"group": "C2"},
                {"group": "C2", "values": payload["values"]},
                {"group": "C2", "modulus": 2, "values": [1, 2]},
                dict(payload, modulus=True), dict(payload, values=flagged)):
        with pytest.raises(AlgebraError):
            CrossedAlgebraData.from_json(C2, bad)
    # int() reads "+1", " 1" and "01" as 1: only the canonical name passes
    for name in ("alpha:a,b,c", "alpha:0,0,", "c:+1,01", "c: 1,1"):
        bad = dict(payload, values=dict(payload["values"], **{name: 0}))
        with pytest.raises(AlgebraError, match=re.escape(
                f"malformed variable name '{name}'")):
            CrossedAlgebraData.from_json(C2, bad)


def test_relation_ids_resolve_through_the_table():
    """Unknown names raise, as in check_all_relations; aliases resolve."""
    data = builtin_group_example()
    with pytest.raises(RelationError):
        coherence_equations(C2, ["nonesuch"])
    with pytest.raises(RelationError):
        check_coherence(data, ["pentagon", "nonesuch"])
    canonical = get_relation("G10")["id"]
    assert canonical != "G10"
    assert coherence_equations(C2, ["G10"]) == \
        coherence_equations(C2, [canonical])
    report = check_coherence(data, ["G10"])
    assert [r["relation"] for r in report["relations"]] == [canonical]
    assert report["relations"][0]["assignments_checked"] == C2.order ** len(
        get_relation(canonical)["symbols"])


def test_trivial_datum_is_always_coherent():
    for group in (C2, C3):
        data = CrossedAlgebraData.trivial(group)
        assert check_coherence(data)["coherent"] is True
