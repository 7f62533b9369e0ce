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

A ``CompiledRelation`` parses an entry's source once per group, into a
template whose symbols stand in for elements, reads both words once and
compares the two braids once, as a side's braid depends only on the shape.
Each instance still applies every letter, compares the target trees and
checks both braids against the normal forms, normalizing the source once.
The rewrites compute and compare labels through an ``ops`` object,
:class:`Elements` for trees of group elements; ``algebra`` passes its own
to apply a word once to a template whose colors and labels are tuples of
element indices, one per assignment of the symbols.
"""
from __future__ import annotations

import copy
import functools
import itertools
import json
import operator
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
    _map_leaves,
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


def _expect(condition: bool, letter: MorphismLetter, found: GTree):
    if not condition:
        raise RelationError(
            f"{'inverse ' if letter.inverse else ''}{letter.gen} does not "
            f"apply at {letter.path}: found {type(found).__name__}")


class Elements:
    """The label arithmetic of ``_rewrite`` on trees of group elements; an
    equality a letter needs raises :class:`RelationError` when it fails."""
    out = staticmethod(lambda t, group: output_color(t, group))
    mul, inv = staticmethod(operator.mul), staticmethod(GroupElement.inverse)
    identity = staticmethod(operator.attrgetter("identity"))

    @staticmethod
    def require(x: GroupElement, y: GroupElement, message: str) -> None:
        if x is not y:
            raise RelationError(message)


def _rewrite(sub: GTree, letter: MorphismLetter, group: FiniteGroup,
             flip_braiding: bool, ops=Elements) -> GTree:
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
            ops.require(sub.left.label, sub.right.label,
                        "beta needs equal labels on both factors")
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
        return LabelEdge(ops.mul(sub.label, sub.child.label), sub.child.child)
    if gen == "delta":
        if not inv:
            _expect(isinstance(sub, LabelEdge), letter, sub)
            ops.require(sub.label, ops.identity(group),
                        "delta removes only identity labels")
            return sub.child
        return LabelEdge(ops.identity(group), sub)
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
            return Tensor(LabelEdge(ops.out(a, group), b), a)
        _expect(isinstance(a, LabelEdge), letter, sub)
        ops.require(a.label, ops.out(b, group), "inverse c: label is not the "
                    "output color of the right factor")
        return Tensor(b, a.child)
    if not inv:
        return Tensor(b, LabelEdge(ops.inv(ops.out(b, group)), a))
    _expect(isinstance(b, LabelEdge), letter, sub)
    ops.require(b.label, ops.inv(ops.out(a, group)), "inverse flipped c: "
                "label is not the inverse output color of the left factor")
    return Tensor(b.child, a)


def apply_generator(tree: GTree, letter: MorphismLetter, group: FiniteGroup,
                    flip_braiding: bool = False, ops=Elements) -> GTree:
    """``tree`` with ``letter`` applied, its labels computed by ``ops``."""
    sub = subtree_at(tree, letter.path)
    return replace_at(tree, letter.path,
                      _rewrite(sub, letter, group, flip_braiding, ops))


def _c_braid_letters(tree: GTree, letter: MorphismLetter,
                     flip_braiding: bool) -> tuple[int, ...]:
    total = leaf_count(tree)
    offset = leaf_offset(tree, letter.path)
    sub = subtree_at(tree, letter.path)
    _expect(isinstance(sub, Tensor), letter, sub)
    m, n = leaf_count(sub.left), leaf_count(sub.right)
    if letter.inverse == flip_braiding:
        return block_transposition(total, offset + 1, m, n).letters
    # undoing the crossing of the (right, then left) blocks; also flipped c
    return block_transposition(total, offset + 1, n, m).inverse().letters


@dataclass(frozen=True)
class InterpretedMorphism:
    source: GTree
    target: GTree
    braid: BraidWord
    source_nf: DecoratedTuple
    target_nf: DecoratedTuple


def _side(source: GTree, word: MorphismWord, group: FiniteGroup,
          mutate: Optional[str], braid: Optional[BraidWord] = None,
          source_nf: Optional[DecoratedTuple] = None) -> InterpretedMorphism:
    """Apply the letters, then check that the braid carries the source
    normal form to the target's; a given braid or source_nf is reused."""
    if mutate not in (None, "braiding"):
        raise RelationError(f"unknown mutation {mutate!r}")
    flip = mutate == "braiding"
    current, written = source, []
    for letter in word.letters:
        if braid is None and letter.gen == "c":
            written[:0] = _c_braid_letters(current, letter, flip)
        current = apply_generator(current, letter, group, flip)
    if braid is None:
        braid = BraidWord(leaf_count(source), tuple(written))
    if source_nf is None:
        source_nf = normalize(source, group)
    target_nf = normalize(current, group)
    if braid.strands > 0 and braid_act(braid, source_nf) != target_nf:
        raise RelationError(
            "internal inconsistency: the accumulated braid does not carry "
            "the source normal form to the target normal form")
    return InterpretedMorphism(source, current, braid, source_nf, target_nf)


def interpret_morphism(source: GTree, word: MorphismWord,
                       group: Optional[FiniteGroup] = None,
                       mutate: Optional[str] = None) -> InterpretedMorphism:
    g = tree_group(source) or group
    if g is None:
        raise RelationError("cannot interpret over an undetermined group")
    return _side(source, word, g, mutate)


# -- the relation table --------------------------------------------------


@functools.cache
def _table() -> tuple[list[dict], dict[str, dict]]:
    """The table, read once per process, and its entries by id and alias;
    a name shared by several entries names the first of them."""
    text = resources.files("gbraids").joinpath("relation_table.json").read_text()
    entries, index = json.loads(text), {}
    for entry in entries:
        for name in (entry["id"], *entry.get("also_known_as", ())):
            index.setdefault(name, entry)
    return entries, index


def load_relation_table() -> list[dict]:
    """The table in its order, copied so that no caller changes it."""
    return copy.deepcopy(_table()[0])


def __getattr__(name: str):  # RELATION_IDS, in table order, on first use
    if name == "RELATION_IDS":
        return tuple(entry["id"] for entry in _table()[0])
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def get_relation(relation_id: str) -> dict:
    if relation_id not in _table()[1]:
        raise RelationError(f"no relation named {relation_id!r}")
    return copy.deepcopy(_table()[1][relation_id])


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


def relation_report(entry: dict, outcomes, max_reported: int) -> dict:
    """The tally of one entry's instance outcomes, as a JSON-ready report."""
    checked, failure_count, failures = tally(outcomes, max_reported)
    return {"relation": entry["id"], "assignments_checked": checked,
            "failure_count": failure_count, "failures": failures}


def relation_assignments(group: FiniteGroup, relation: dict):
    names = relation["symbols"]
    for values in itertools.product(group.elements(), repeat=len(names)):
        yield dict(zip(names, values))


class CompiledRelation:
    """One table entry over one group: the template, whose symbol colors and
    labels are the symbol names, both words, and each side's braid, fixed
    by the first instance at which the side applies."""

    def __init__(self, group: FiniteGroup, relation: dict,
                 mutate: Optional[str] = None):
        self.group, self.relation, self.mutate = group, relation, mutate
        names = {name: name for name in relation["symbols"]}
        self.template = parse_tree(relation["source"], group,
                                   dict(names, e=group.identity))
        self.lhs = MorphismWord.from_json(relation["lhs"])
        self.rhs = MorphismWord.from_json(relation["rhs"])
        self.braids: list[Optional[BraidWord]] = [None, None]
        self.braids_equal: Optional[bool] = None

    def source(self, assignment: dict[str, GroupElement]) -> GTree:
        """The template with each symbol name replaced by its element."""
        def element(x):
            return assignment[x] if type(x) is str else x
        return _map_leaves(
            self.template, lambda leaf: InputLeaf(leaf.slot, element(leaf.color)),
            element)

    def check(self, assignment: dict[str, GroupElement]) -> Optional[str]:
        """None when the two sides agree; otherwise a short reason."""
        source, source_nf, targets = self.source(assignment), None, []
        sides = (("left", self.lhs, self.mutate), ("right", self.rhs, None))
        for i, (side, word, mutate) in enumerate(sides):
            try:
                out = _side(source, word, self.group, mutate, self.braids[i],
                            source_nf)
            except (RelationError, TreeError) as exc:
                return f"{side} side: {exc}"
            self.braids[i], source_nf = out.braid, out.source_nf
            targets.append(out.target)
        if targets[0] != targets[1]:
            return "targets differ"
        if self.braids_equal is None:
            self.braids_equal = braids_equal(*self.braids)
        return None if self.braids_equal else "braids differ: {} vs {}".format(
            *(str(b) or "e" for b in self.braids))  # e: the empty word

    def outcomes(self, cap: Optional[int] = None):
        """None or a failure per assignment, for the first ``cap`` of them."""
        assignments = relation_assignments(self.group, self.relation)
        for assignment in itertools.islice(assignments, cap):
            reason = self.check(assignment)
            yield None if reason is None else {
                "assignment": {k: v.index for k, v in assignment.items()},
                "reason": reason,
            }


def check_relation(group: FiniteGroup, relation: dict,
                   assignment: dict[str, GroupElement],
                   mutate: Optional[str] = None) -> Optional[str]:
    """None when the two sides agree; otherwise a short reason."""
    return CompiledRelation(group, relation, mutate).check(assignment)


def check_all_relations(group: FiniteGroup,
                        relation_ids=None,
                        mutate: Optional[str] = None,
                        assignment_cap: Optional[int] = None,
                        max_reported: int = 20) -> dict:
    """Verify every table relation for every symbol assignment over the
    group, in deterministic order.  Returns a JSON-ready report."""
    results = [relation_report(
        entry, CompiledRelation(group, entry, mutate).outcomes(assignment_cap),
        max_reported) for entry in relation_entries(relation_ids)]
    return {
        "group": group.label,
        "mutate": mutate,
        "relations": results,
        "total_failures": sum(r["failure_count"] for r in results),
    }
