"""The defining relations hold verbatim; the flipped braiding breaks them."""
import itertools
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

import gbraids

from gbraids import relations
from gbraids.algebra import (CrossedAlgebraData, builtin_group_example,
                             check_coherence, coherence_equations,
                             variable_order)
from gbraids.groups import make_group
from gbraids.relations import (
    RELATION_IDS,
    MorphismLetter,
    MorphismWord,
    RelationError,
    _outcomes,
    check_all_relations,
    get_relation,
    interpret_morphism,
    load_relation_table,
    tally,
)
from gbraids.braids import braids_equal
from gbraids.trees import (InputLeaf, LabelEdge, Tensor, TreeError, UnitLeaf,
                           format_tree, parse_tree)
from tree_walk import apply_generator, walk_morphism

S3 = make_group("S3")
C2 = make_group("C2")


def build_source(entry, group, assignment):
    """The source tree of one instance, parsed from the table's text."""
    return parse_tree(entry["source"], group,
                      dict(assignment, e=group.identity))


def assignments(group, entry):
    """Each assignment of group elements to the entry's symbols, in order."""
    names = entry["symbols"]
    for values in itertools.product(group.elements(), repeat=len(names)):
        yield dict(zip(names, values))


def test_table_inventory():
    assert RELATION_IDS == tuple(e["id"] for e in load_relation_table())
    ids = set(RELATION_IDS)
    assert ids == {"pentagon", "triangle", "hexagon-right", "hexagon-left",
                   "G1", "G2a", "G2b", "G3a", "G3b", "G4", "G5", "G6", "G7",
                   "G8", "G9"}
    hexagons = [e["id"] for e in load_relation_table()
                if "G10" in e.get("also_known_as", ())]
    assert sorted(hexagons) == ["hexagon-left", "hexagon-right"]
    assert get_relation("G10")["id"] in hexagons


def test_table_copies_do_not_share_state():
    get_relation("G9")["symbols"].append("z")
    load_relation_table()[0]["id"] = "changed"
    assert get_relation("G9")["symbols"] == ["h", "x1", "x2"]
    assert load_relation_table()[0]["id"] == "pentagon"
    with pytest.raises(RelationError):
        get_relation("nonesuch")
    # an alias names the first entry, in table order, that carries it
    assert get_relation("G10")["id"] == "hexagon-right"


def test_tally_counts_and_keeps_the_first_failures():
    outcomes = [None, "a", None, "b", "c", None]
    assert tally(iter(outcomes), 2) == (6, 3, ["a", "b"])
    assert tally(iter(outcomes), 0) == (6, 3, [])
    assert tally(iter([]), 5) == (0, 0, [])


@pytest.mark.parametrize("relation_id", RELATION_IDS)
def test_relation_holds_for_s3(relation_id):
    report = check_all_relations(S3, relation_ids=[relation_id])
    entry = report["relations"][0]
    assert entry["failure_count"] == 0, entry["failures"][:3]
    assert entry["assignments_checked"] == \
        S3.order ** len(get_relation(relation_id)["symbols"])


def test_all_relations_hold_for_c2_and_c3():
    for spec in ("C2", "C3"):
        report = check_all_relations(make_group(spec))
        assert report["total_failures"] == 0


def test_hexagon_braid_words():
    g = {"x1": S3.element(2), "x2": S3.element(3), "x3": S3.element(5)}
    right = get_relation("hexagon-right")
    src = build_source(right, S3, g)
    lhs = interpret_morphism(src, MorphismWord.from_json(right["lhs"]))
    rhs = interpret_morphism(src, MorphismWord.from_json(right["rhs"]))
    assert lhs.braid.letters == (1, 2)
    assert rhs.braid.letters == (1, 2)
    assert lhs.target == rhs.target

    left = get_relation("hexagon-left")
    src = build_source(left, S3, g)
    lhs = interpret_morphism(src, MorphismWord.from_json(left["lhs"]))
    rhs = interpret_morphism(src, MorphismWord.from_json(left["rhs"]))
    assert lhs.braid.letters == (2, 1)
    assert rhs.braid.letters == (2, 1)
    assert lhs.target == rhs.target


def test_hexagon_target_shape():
    g1, g2, g3 = S3.element(2), S3.element(3), S3.element(5)
    entry = get_relation("hexagon-right")
    src = build_source(entry, S3, {"x1": g1, "x2": g2, "x3": g3})
    out = interpret_morphism(src, MorphismWord.from_json(entry["lhs"]))
    assert out.target == Tensor(
        Tensor(LabelEdge(g1 * g2, InputLeaf(3, g3)), InputLeaf(1, g1)),
        InputLeaf(2, g2))


def test_crossed_braiding_braid_word():
    entry = get_relation("G9")
    assignment = {"h": S3.element(3), "x1": S3.element(2), "x2": S3.element(5)}
    src = build_source(entry, S3, assignment)
    lhs = interpret_morphism(src, MorphismWord.from_json(entry["lhs"]))
    rhs = interpret_morphism(src, MorphismWord.from_json(entry["rhs"]))
    assert lhs.braid.letters == (1,)
    assert rhs.braid.letters == (1,)
    # the crossing twists the moved factor by h x1 (label product collapses)
    h, x1 = assignment["h"], assignment["x1"]
    assert lhs.target == Tensor(
        LabelEdge(h * x1, InputLeaf(2, assignment["x2"])),
        LabelEdge(h, InputLeaf(1, x1)))


def test_braiding_round_trip_is_trivial():
    src = parse_tree("T(leaf:1:3,leaf:2:5)", S3)
    word = MorphismWord((MorphismLetter("c"), MorphismLetter("c", inverse=True)))
    out = interpret_morphism(src, word)
    assert out.target == src
    from gbraids.braids import braids_equal, BraidWord
    assert braids_equal(out.braid, BraidWord.identity(2))
    assert out.braid.letters == (-1, 1)


def test_flipped_braiding_is_internally_consistent():
    src = parse_tree("T(L[2](leaf:1:3),leaf:2:5)", S3)
    word = MorphismWord((MorphismLetter("c"),))
    out = interpret_morphism(src, word, mutate="braiding")
    k = S3.element(5)
    assert out.target == Tensor(
        InputLeaf(2, k),
        LabelEdge(k.inverse(), LabelEdge(S3.element(2), InputLeaf(1, S3.element(3)))))
    assert out.braid.letters == (-1,)
    # and the mutated braiding also undoes itself
    both = MorphismWord((MorphismLetter("c"), MorphismLetter("c", inverse=True)))
    round_trip = interpret_morphism(src, both, mutate="braiding")
    assert round_trip.target == src


def test_mutated_braiding_breaks_braided_relations_only():
    report = check_all_relations(S3, mutate="braiding")
    by_id = {entry["relation"]: entry for entry in report["relations"]}
    for rid in ("hexagon-right", "hexagon-left", "G9"):
        assert by_id[rid]["failure_count"] == by_id[rid]["assignments_checked"]
    for rid in ("pentagon", "triangle", "G1", "G4", "G8"):
        assert by_id[rid]["failure_count"] == 0
    assert report["total_failures"] > 0


def test_mutant_failure_reasons_are_informative():
    entry = get_relation("G9")
    reasons = {tuple(outcome["assignment"].values()): outcome["reason"]
               for outcome in _outcomes(S3, entry, mutate="braiding")
               if outcome is not None}
    # the flipped braiding leaves one label edge, not two, on the factor it
    # moves to the left, where gamma merges two
    assert reasons[(0, 2, 5)] == \
        "left side: gamma does not apply at (0,): found LabelEdge"


def test_assignment_cap():
    report = check_all_relations(S3, relation_ids=["pentagon"],
                                 assignment_cap=50)
    assert report["relations"][0]["assignments_checked"] == 50


def refused(tree, letter):
    """The tree walk refuses ``letter`` on ``tree``, and so does
    ``interpret_morphism``, with the same message."""
    with pytest.raises(RelationError) as walked:
        apply_generator(tree, letter, S3)
    with pytest.raises(RelationError, match=re.escape(str(walked.value))):
        interpret_morphism(tree, MorphismWord((letter,)))
    return str(walked.value)


def applied(tree, letter):
    """The tree walk's result, which ``interpret_morphism`` reaches too."""
    after = apply_generator(tree, letter, S3)
    assert interpret_morphism(tree, MorphismWord((letter,))).target == after
    return after


def test_rewrite_pattern_errors():
    tree = parse_tree("T(leaf:1:3,leaf:2:5)", S3)
    assert refused(tree, MorphismLetter("alpha")) == \
        "alpha does not apply at (): found Tensor"
    refused(tree, MorphismLetter("gamma", inverse=True))
    refused(tree, MorphismLetter("eps", inverse=True))
    with pytest.raises(RelationError):
        MorphismLetter("sigma")
    with pytest.raises(RelationError):
        interpret_morphism(tree, MorphismWord(()), mutate="colors")


def test_beta_requires_equal_labels():
    tree = parse_tree("T(L[2](leaf:1:0),L[3](leaf:2:0))", S3)
    refused(tree, MorphismLetter("beta"))


def test_delta_requires_identity_label():
    tree = parse_tree("L[2](leaf:1:0)", S3)
    refused(tree, MorphismLetter("delta"))
    grown = applied(tree, MorphismLetter("delta", inverse=True))
    assert format_tree(grown) == "L[0](L[2](leaf:1:0))"


def test_inverse_c_checks_its_label():
    tree = parse_tree("T(L[2](leaf:2:5),leaf:1:3)", S3)
    # output color of the right factor is 3, but the label reads 2
    refused(tree, MorphismLetter("c", inverse=True))
    ok = parse_tree("T(L[3](leaf:2:5),leaf:1:3)", S3)
    back = applied(ok, MorphismLetter("c", inverse=True))
    assert format_tree(back) == "T(leaf:1:3,leaf:2:5)"


@pytest.mark.parametrize("letters", [(), ("c",), ("alpha",), ("delta",)])
def test_interpret_morphism_refuses_mixed_groups(letters):
    """The checks of ``validate`` come before any letter: a C2 leaf in an
    S3 tree fails whatever the word, and so does a group other than the
    tree's."""
    word = MorphismWord(tuple(map(MorphismLetter, letters)))
    mixed = Tensor(LabelEdge(S3.element(2), InputLeaf(1, S3.element(3))),
                   InputLeaf(2, C2.element(1)))
    with pytest.raises(TreeError, match="mixed groups in one tree: S3 vs C2"):
        interpret_morphism(mixed, word)
    tree = parse_tree("T(leaf:1:3,L[0](leaf:2:5))", S3)
    with pytest.raises(TreeError, match="mixed groups in one tree: S3 vs C2"):
        interpret_morphism(tree, word, C2)


def test_interpret_morphism_on_units_needs_a_group():
    units = Tensor(UnitLeaf(), UnitLeaf())
    word = MorphismWord((MorphismLetter("ell"),))
    with pytest.raises(RelationError,
                       match="cannot interpret over an undetermined group"):
        interpret_morphism(units, word)
    out = interpret_morphism(units, word, S3)
    assert out.target == UnitLeaf() and out.braid.strands == 0
    assert out == walk_morphism(units, word, S3)


def test_interpret_morphism_walks_deep_trees():
    spine = InputLeaf(1, S3.element(3))
    for _ in range(3000):
        spine = Tensor(UnitLeaf(), spine)
    out = interpret_morphism(spine, MorphismWord((MorphismLetter("ell"),)))
    # deep trees are compared through their text: == recurses
    assert format_tree(out.target) == format_tree(spine.right)
    assert out.braid.letters == ()


def test_multi_strand_braiding_blocks():
    # braiding a two-leaf factor over one leaf yields a block crossing
    src = parse_tree("T(T(leaf:1:2,leaf:2:3),leaf:3:5)", S3)
    out = interpret_morphism(src, MorphismWord((MorphismLetter("c"),)))
    assert out.braid.letters == (1, 2)
    src = parse_tree("T(leaf:1:5,T(leaf:2:2,leaf:3:3))", S3)
    out = interpret_morphism(src, MorphismWord((MorphismLetter("c"),)))
    assert out.braid.letters == (2, 1)


def test_report_shape_is_json_ready():
    import json
    report = check_all_relations(C2, relation_ids=["G5", "G6"])
    text = json.dumps(report, sort_keys=True)
    assert "G5" in text and "G6" in text
    assert report["group"] == C2.label


def _fresh_outcome(group, entry, assignment, mutate):
    """The outcome of one instance along a path that compiles nothing: a
    parse of the source text, both words read from JSON, each side
    walked on its own, and the braids compared for this instance.
    Returns the outcome and each side's braid (None where it fails)."""
    source = build_source(entry, group, assignment)
    sides = []
    for side, key, side_mutate in (("left", "lhs", mutate),
                                   ("right", "rhs", None)):
        word = MorphismWord.from_json(entry[key])
        try:
            sides.append(walk_morphism(source, word, group,
                                       mutate=side_mutate))
        except (RelationError, TreeError) as exc:
            sides.append(f"{side} side: {exc}")
    braids = [None if isinstance(s, str) else s.braid for s in sides]
    left, right = sides
    if isinstance(left, str) or isinstance(right, str):
        return (left if isinstance(left, str) else right), braids
    if left.target != right.target:
        return "targets differ", braids
    if not braids_equal(left.braid, right.braid):
        words = [str(b) or "e" for b in braids]  # the empty word reads e
        return f"braids differ: {words[0]} vs {words[1]}", braids
    return None, braids


# Not a relation: braiding twice and dropping the two labels returns to the
# source only when both colors are the identity, and then the braids differ.
# It reaches the failures the table never does: value-dependent errors on
# some instances, and "braids differ" on the others.
DOUBLE_BRAIDING = {
    "id": "double-braiding", "source": "T(leaf:1:x1,leaf:2:x2)",
    "symbols": ["x1", "x2"], "lhs": [],
    "rhs": [["c", [], False], ["c", [], False],
            ["delta", [0], False], ["delta", [1], False]],
}


def _traced_outcomes(group, entry, mutate):
    """The traced checker's reason per assignment, each with the fresh
    path's outcome and side braids."""
    for assignment, traced in zip(assignments(group, entry),
                                  _outcomes(group, entry, mutate), strict=True):
        yield (assignment, traced and traced["reason"],
               *_fresh_outcome(group, entry, assignment, mutate))


@pytest.mark.parametrize("mutate", [None, "braiding", "x"])
@pytest.mark.parametrize("spec", ["C2", "C3", "S3"])
def test_compiled_checker_matches_a_fresh_parse(spec, mutate):
    group = make_group(spec)
    report = check_all_relations(group, mutate=mutate,
                                 max_reported=group.order ** 4)
    table = load_relation_table()
    reasons = set()
    for entry in table + [DOUBLE_BRAIDING]:
        failures = []
        braids = ([], [])
        for assignment, got, expected, side_braids in _traced_outcomes(
                group, entry, mutate):
            assert got == expected, (entry["id"], assignment)
            if expected is not None:
                reasons.add(expected.split(":")[0])
                failures.append({
                    "assignment": {k: v.index for k, v in assignment.items()},
                    "reason": expected})
            for seen, braid in zip(braids, side_braids):
                if braid is not None:
                    seen.append(braid)
        if entry in table:
            result = report["relations"][table.index(entry)]
            assert result["failures"] == failures
        # what the traced form relies on: a side's braid is one word for
        # every assignment at which the side applies
        for seen in braids:
            assert len(set(seen)) <= 1, entry["id"]
    if mutate == "x":
        assert reasons == {"left side"}
    else:
        assert "braids differ" in reasons and "right side" in reasons


@pytest.mark.parametrize("spec", ["C2", "S3"])
def test_braids_differ_reason_names_the_empty_word(spec):
    first = next(_outcomes(make_group(spec), DOUBLE_BRAIDING))
    assert first == {"assignment": {"x1": 0, "x2": 0},
                     "reason": "braids differ: e vs 1 1"}


def test_reports_do_not_depend_on_the_chunk_size(monkeypatch):
    """Every report equals its report at the default chunk size when the
    entries are traced 7 assignments at a time, so that failing reasons
    are read from many chunks of one entry."""
    rng = random.Random(4)
    data = CrossedAlgebraData.from_vector(
        S3, 3, [rng.randrange(3) for _ in variable_order(S3)])

    def reports():
        return [check_all_relations(S3, max_reported=S3.order ** 4),
                check_all_relations(S3, mutate="braiding",
                                    max_reported=S3.order ** 4),
                list(_outcomes(S3, DOUBLE_BRAIDING)),
                check_coherence(data)]

    expected = reports()
    monkeypatch.setattr(relations, "_CHUNK", 7)
    assert reports() == expected


def test_wrong_braid_shadows_fail_the_normal_form_check(monkeypatch):
    """A shadow that no longer matches the rewrite (here the inverse
    letters) must fail the per-instance normal-form check, at the same
    instances on the traced path as on a fresh parse, and
    ``interpret_morphism`` must fail it there too."""
    shadow = relations._c_braid_letters
    monkeypatch.setattr(
        relations, "_c_braid_letters", lambda *args: tuple(
            -letter for letter in reversed(shadow(*args))))
    ids = ["hexagon-right", "G9"]
    report = check_all_relations(S3, ids, max_reported=S3.order ** 3)
    for entry, result in zip(map(get_relation, ids), report["relations"]):
        expected = []
        lhs = MorphismWord.from_json(entry["lhs"])
        for assignment in assignments(S3, entry):
            reason = _fresh_outcome(S3, entry, assignment, None)[0]
            source = build_source(entry, S3, assignment)
            if reason is None or not reason.startswith("left side: "):
                interpret_morphism(source, lhs)
            else:
                with pytest.raises(RelationError, match=re.escape(
                        reason.removeprefix("left side: "))):
                    interpret_morphism(source, lhs)
            if reason is not None:
                expected.append({
                    "assignment": {k: v.index for k, v in assignment.items()},
                    "reason": reason})
        assert result["failures"] == expected
        assert expected and all(
            f["reason"].startswith("left side: internal inconsistency: ")
            for f in expected), entry["id"]


def test_only_relation_checks_act_on_columns(monkeypatch):
    """The braid is applied to the assignment columns only when a relation
    check asks, so the scalar paths run with the columnar move broken."""
    def broken(*args):
        raise AssertionError("columnar move called")
    monkeypatch.setattr(relations, "_act_columns", broken)
    assert len(coherence_equations(C2)) == 89
    assert check_coherence(builtin_group_example())["coherent"] is True
    with pytest.raises(AssertionError, match="columnar move called"):
        check_all_relations(C2, ["hexagon-right"])


def test_import_does_not_read_the_table():
    src = str(Path(gbraids.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    code = ("import gbraids.relations as r\n"
            "assert r._table.cache_info().currsize == 0\n"
            "assert r.RELATION_IDS[0] == 'pentagon'\n"
            "assert r._table.cache_info().currsize == 1\n")
    subprocess.run([sys.executable, "-c", code], env=env, check=True)
    with pytest.raises(AttributeError):
        gbraids.relations.NO_SUCH_NAME
