import pytest

from gbraids.algebra import (AlgebraError, CrossedAlgebraData,
                             builtin_group_example, check_coherence,
                             coherence_equations, evaluate_morphism,
                             evaluate_object, morphism_variables,
                             solve_coherence, variable_order)
from gbraids.groups import make_group
from gbraids.operad import CapExceeded
from gbraids.relations import (MorphismLetter, MorphismWord, RelationError,
                               get_relation, load_relation_table,
                               relation_assignments)
from gbraids.trees import TreeError, parse_tree

C2 = make_group("C2")
C3 = make_group("C3")
S3 = make_group("S3")

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


def _fresh_equations(group):
    """coherence_equations rebuilt with a parse per instance: the same
    cancellation, and duplicates kept once in first-seen order."""
    seen, equations = set(), []
    for entry in load_relation_table():
        for assignment in relation_assignments(group, entry):
            source = parse_tree(entry["source"], group,
                                dict(assignment, e=group.identity))
            coeffs = {}
            for key, sign in (("lhs", 1), ("rhs", -1)):
                word = MorphismWord.from_json(entry[key])
                for var, s in morphism_variables(source, word, group)[1]:
                    coeffs[var] = coeffs.get(var, 0) + sign * s
            coeffs = {v: c for v, c in coeffs.items() if c}
            fingerprint = frozenset(coeffs.items())
            if coeffs and fingerprint not in seen:
                seen.add(fingerprint)
                equations.append(coeffs)
    return equations


def test_coherence_equations_match_a_fresh_parse():
    assert coherence_equations(S3) == _fresh_equations(S3)
    assert len(coherence_equations(C2)) == 89


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
    tree, terms = morphism_variables(src, word, C2)
    assert tree == src
    assert terms == [(("c", (1, 1)), 1), (("c", (1, 1)), -1)]


def test_morphism_variables_pinned_keys():
    src = parse_tree("T(T(leaf:1:2,leaf:2:1),leaf:3:3)", S3)
    word = MorphismWord((MorphismLetter("alpha"),))
    _, terms = morphism_variables(src, word, S3)
    assert terms == [(("alpha", (2, 1, 3)), 1)]


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
