"""Elementary tree rewrites, their braid shadows, and relation checking.

A morphism between trees is a word of generator letters, written in
application order (first letter acts first).  Each letter names a generator,
a path to the subtree it rewrites, and an inverse flag:

========  ==========================================  =======================
alpha     T(T(A,B),C) -> T(A,T(B,C))                  invertible
ell       T(U,A) -> A                                 invertible
r         T(A,U) -> A                                 invertible
beta      T(L[h]A, L[h]B) -> L[h]T(A,B)               invertible
gamma     L[h2]L[h1]A -> L[h2 h1]A                    inverse needs data
delta     L[e]A -> A                                  invertible
eps       L[g]U -> U                                  inverse needs data
c         T(A,B) -> T(L[|A|]B, A)                     invertible
========  ==========================================  =======================

``|A|`` is the output color of A.  Only c has a braid shadow: writing m and
n for the leaf counts of the two children and q for the number of leaves to
the left, it contributes the positive block crossing of the m leaves over
the n leaves at offset q (the inverse letter contributes the inverse braid).
``interpret_morphism`` accumulates these contributions and always re-checks
that the accumulated braid maps the source normal form to the target normal
form under the decorated-tuple action.

The table in ``relation_table.json`` lists the defining relations as pairs
of parallel words; ``check_relation`` confirms that both sides reach the
same target tree with equal braids, for every assignment of group elements
to the free symbols.  ``mutate="braiding"`` reinterprets c on the left-hand
side only as the *other* braiding — the rewrite T(A,B) -> T(B, L[|B|^-1]A)
with the inverse block crossing — which is again internally consistent but
must break every relation instance that braids something nontrivial.
"""
from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from importlib import resources
from typing import Optional

from .braids import BraidWord, block_transposition, braids_equal
from .groups import FiniteGroup, GroupElement
from .hurwitz import DecoratedTuple, braid_act
from .trees import (
    GTree,
    InputLeaf,
    LabelEdge,
    Tensor,
    TreeError,
    UnitLeaf,
    leaf_count,
    leaf_offset,
    normalize,
    output_color,
    parse_tree,
    replace_at,
    subtree_at,
    tree_group,
)

GENERATORS = ("alpha", "ell", "r", "beta", "gamma", "delta", "eps", "c")


class RelationError(ValueError):
    pass


@dataclass(frozen=True)
class MorphismLetter:
    gen: str
    path: tuple[int, ...] = ()
    inverse: bool = False

    def __post_init__(self):
        if self.gen not in GENERATORS:
            raise RelationError(f"unknown generator {self.gen!r}")


@dataclass(frozen=True)
class MorphismWord:
    letters: tuple[MorphismLetter, ...]  # application order

    @classmethod
    def from_json(cls, items) -> "MorphismWord":
        return cls(tuple(MorphismLetter(g, tuple(p), bool(i))
                         for g, p, i in items))

    def to_json(self):
        return [[l.gen, list(l.path), l.inverse] for l in self.letters]


def _expect(condition: bool, letter: MorphismLetter, found: GTree):
    if not condition:
        raise RelationError(
            f"{'inverse ' if letter.inverse else ''}{letter.gen} does not "
            f"apply at {letter.path}: found {type(found).__name__}")


def _rewrite(sub: GTree, letter: MorphismLetter, group: FiniteGroup,
             flip_braiding: bool) -> GTree:
    gen, inv = letter.gen, letter.inverse
    if gen == "alpha":
        if not inv:
            _expect(isinstance(sub, Tensor)
                    and isinstance(sub.left, Tensor), letter, sub)
            return Tensor(sub.left.left, Tensor(sub.left.right, sub.right))
        _expect(isinstance(sub, Tensor)
                and isinstance(sub.right, Tensor), letter, sub)
        return Tensor(Tensor(sub.left, sub.right.left), sub.right.right)
    if gen == "ell":
        if not inv:
            _expect(isinstance(sub, Tensor)
                    and isinstance(sub.left, UnitLeaf), letter, sub)
            return sub.right
        return Tensor(UnitLeaf(), sub)
    if gen == "r":
        if not inv:
            _expect(isinstance(sub, Tensor)
                    and isinstance(sub.right, UnitLeaf), letter, sub)
            return sub.left
        return Tensor(sub, UnitLeaf())
    if gen == "beta":
        if not inv:
            _expect(isinstance(sub, Tensor)
                    and isinstance(sub.left, LabelEdge)
                    and isinstance(sub.right, LabelEdge), letter, sub)
            if sub.left.label != sub.right.label:
                raise RelationError("beta needs equal labels on both factors")
            return LabelEdge(sub.left.label,
                             Tensor(sub.left.child, sub.right.child))
        _expect(isinstance(sub, LabelEdge)
                and isinstance(sub.child, Tensor), letter, sub)
        return Tensor(LabelEdge(sub.label, sub.child.left),
                      LabelEdge(sub.label, sub.child.right))
    if gen == "gamma":
        if inv:
            raise RelationError("inverse gamma needs a factorization")
        _expect(isinstance(sub, LabelEdge)
                and isinstance(sub.child, LabelEdge), letter, sub)
        return LabelEdge(sub.label * sub.child.label, sub.child.child)
    if gen == "delta":
        if not inv:
            _expect(isinstance(sub, LabelEdge), letter, sub)
            if not sub.label.is_identity():
                raise RelationError("delta removes only identity labels")
            return sub.child
        return LabelEdge(group.identity, sub)
    if gen == "eps":
        if inv:
            raise RelationError("inverse eps needs a label")
        _expect(isinstance(sub, LabelEdge)
                and isinstance(sub.child, UnitLeaf), letter, sub)
        return UnitLeaf()
    # gen == "c"
    _expect(isinstance(sub, Tensor), letter, sub)
    a, b = sub.left, sub.right
    if not flip_braiding:
        if not inv:
            return Tensor(LabelEdge(output_color(a, group), b), a)
        _expect(isinstance(a, LabelEdge), letter, sub)
        if a.label != output_color(b, group):
            raise RelationError("inverse c: label is not the output color "
                                "of the right factor")
        return Tensor(b, a.child)
    if not inv:
        return Tensor(b, LabelEdge(output_color(b, group).inverse(), a))
    _expect(isinstance(b, LabelEdge), letter, sub)
    if b.label != output_color(a, group).inverse():
        raise RelationError("inverse flipped c: label is not the inverse "
                            "output color of the left factor")
    return Tensor(b.child, a)


def apply_generator(tree: GTree, letter: MorphismLetter, group: FiniteGroup,
                    flip_braiding: bool = False) -> GTree:
    sub = subtree_at(tree, letter.path)
    return replace_at(tree, letter.path,
                      _rewrite(sub, letter, group, flip_braiding))


def _c_braid_letters(tree: GTree, letter: MorphismLetter,
                     flip_braiding: bool) -> tuple[int, ...]:
    total = leaf_count(tree)
    offset = leaf_offset(tree, letter.path)
    sub = subtree_at(tree, letter.path)
    _expect(isinstance(sub, Tensor), letter, sub)
    m, n = leaf_count(sub.left), leaf_count(sub.right)
    start = offset + 1
    if not flip_braiding:
        if not letter.inverse:
            return block_transposition(total, start, m, n).letters
        # undoing a crossing that carried the (right, then left) blocks over
        return block_transposition(total, start, n, m).inverse().letters
    if not letter.inverse:
        return block_transposition(total, start, n, m).inverse().letters
    return block_transposition(total, start, m, n).letters


@dataclass(frozen=True)
class InterpretedMorphism:
    source: GTree
    target: GTree
    braid: BraidWord
    source_nf: DecoratedTuple
    target_nf: DecoratedTuple


def interpret_morphism(source: GTree, word: MorphismWord,
                       group: Optional[FiniteGroup] = None,
                       mutate: Optional[str] = None) -> InterpretedMorphism:
    if mutate not in (None, "braiding"):
        raise RelationError(f"unknown mutation {mutate!r}")
    flip = mutate == "braiding"
    g = tree_group(source) or group
    if g is None:
        raise RelationError("cannot interpret over an undetermined group")
    current = source
    written: list[int] = []
    r = leaf_count(source)
    for letter in word.letters:
        if letter.gen == "c":
            written = list(_c_braid_letters(current, letter, flip)) + written
        current = apply_generator(current, letter, g, flip)
    braid = BraidWord(r, tuple(written))
    source_nf = normalize(source, g)
    target_nf = normalize(current, g)
    if r > 0 and braid_act(braid, source_nf) != target_nf:
        raise RelationError(
            "internal inconsistency: the accumulated braid does not carry "
            "the source normal form to the target normal form")
    return InterpretedMorphism(source, current, braid, source_nf, target_nf)


# -- the relation table --------------------------------------------------


def load_relation_table() -> list[dict]:
    text = resources.files("gbraids").joinpath("relation_table.json").read_text()
    return json.loads(text)


RELATION_IDS = tuple(entry["id"] for entry in load_relation_table())


def get_relation(relation_id: str) -> dict:
    for entry in load_relation_table():
        if entry["id"] == relation_id or \
                relation_id in entry.get("also_known_as", ()):
            return entry
    raise RelationError(f"no relation named {relation_id!r}")


def relation_entries(relation_ids=None) -> list[dict]:
    """The table entries named by ``relation_ids`` (ids or aliases), in that
    order; the whole table when it is None.  An unknown name raises
    :class:`RelationError`."""
    if relation_ids is None:
        return load_relation_table()
    return [get_relation(rid) for rid in relation_ids]


def tally(outcomes, max_reported: int) -> tuple[int, int, list]:
    """Count a stream of instance outcomes, each None when the instance
    holds and a description of the failure otherwise.  Returns the number of
    instances, the number of failures and the first ``max_reported``
    descriptions."""
    instances = failure_count = 0
    failures = []
    for outcome in outcomes:
        instances += 1
        if outcome is not None:
            failure_count += 1
            if len(failures) < max_reported:
                failures.append(outcome)
    return instances, failure_count, failures


def build_source(relation: dict, group: FiniteGroup,
                 assignment: dict[str, GroupElement]) -> GTree:
    symbols = dict(assignment)
    symbols["e"] = group.identity
    return parse_tree(relation["source"], group, symbols)


def check_relation(group: FiniteGroup, relation: dict,
                   assignment: dict[str, GroupElement],
                   mutate: Optional[str] = None) -> Optional[str]:
    """None when the two sides agree; otherwise a short reason."""
    source = build_source(relation, group, assignment)
    lhs = MorphismWord.from_json(relation["lhs"])
    rhs = MorphismWord.from_json(relation["rhs"])
    try:
        left = interpret_morphism(source, lhs, group, mutate=mutate)
    except (RelationError, TreeError) as exc:
        return f"left side: {exc}"
    try:
        right = interpret_morphism(source, rhs, group)
    except (RelationError, TreeError) as exc:
        return f"right side: {exc}"
    if left.target != right.target:
        return "targets differ"
    if not braids_equal(left.braid, right.braid):
        return f"braids differ: {left.braid} vs {right.braid}"
    return None


def relation_assignments(group: FiniteGroup, relation: dict):
    names = relation["symbols"]
    for values in itertools.product(group.elements(), repeat=len(names)):
        yield dict(zip(names, values))


def _relation_outcomes(group, entry, assignments, mutate):
    for assignment in assignments:
        reason = check_relation(group, entry, assignment, mutate=mutate)
        yield None if reason is None else {
            "assignment": {k: v.index for k, v in assignment.items()},
            "reason": reason,
        }


def check_all_relations(group: FiniteGroup,
                        relation_ids=None,
                        mutate: Optional[str] = None,
                        assignment_cap: Optional[int] = None,
                        max_reported: int = 20) -> dict:
    """Verify every table relation for every symbol assignment over the
    group, in deterministic order.  Returns a JSON-ready report."""
    results = []
    total_failures = 0
    for entry in relation_entries(relation_ids):
        assignments = relation_assignments(group, entry)
        if assignment_cap is not None:
            assignments = itertools.islice(assignments, assignment_cap)
        checked, failure_count, failures = tally(
            _relation_outcomes(group, entry, assignments, mutate),
            max_reported)
        total_failures += failure_count
        results.append({
            "relation": entry["id"],
            "assignments_checked": checked,
            "failure_count": failure_count,
            "failures": failures,
        })
    return {
        "group": group.label,
        "mutate": mutate,
        "relations": results,
        "total_failures": total_failures,
    }
