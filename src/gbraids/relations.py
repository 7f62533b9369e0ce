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
A word's braid accumulates these contributions, and a relation check
re-checks that it maps the source normal form to the target normal form
under the decorated-tuple action.

The table in ``relation_table.json`` lists the defining relations as pairs
of parallel words; ``check_all_relations`` confirms that both sides reach
the same target tree with equal braids, for every assignment of group
elements to the free symbols.  ``mutate="braiding"`` reinterprets c on the
left-hand side only as the *other* braiding — the rewrite
T(A,B) -> T(B, L[|B|^-1]A) with the inverse block crossing — which is again
internally consistent but must break every relation instance that braids
something nontrivial.

Words are evaluated on traced programs, not trees: ``_Program`` applies
them to a template once per 4096 assignments of its symbols, with every
color and label the tuple of element indices it takes there.  ``_instances``
parses a table entry's source once per group into such a template, and
``interpret_morphism`` traces a concrete tree as one with one assignment.
Per word the program keeps each letter's generator, keys and sign (the
scalars of ``algebra``), the braid, the target, and the normal forms of
source and target as columns over the assignments.  Only when a relation
check asks does it apply the braid to the source columns, once for all
the assignments, and compare them column by column with the target's.
"""
from __future__ import annotations

import copy
import functools
import itertools
import json
from dataclasses import dataclass
from importlib import resources
from typing import Optional

from .braids import BraidWord, block_transposition, braids_equal
from .groups import FiniteGroup
from .hurwitz import _act_columns
from .trees import (GTree, InputLeaf, LabelEdge, Tensor, TreeError, UnitLeaf,
                    _by_slot, _checked_leaves, _map_leaves, leaf_count,
                    leaf_offset, parse_tree, replace_at, subtree_at)

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


def _rewrite(sub: GTree, letter: MorphismLetter, flip_braiding: bool,
             ops) -> GTree:
    """``sub`` rewritten by ``letter``, its labels computed by ``ops.out``,
    ``mul``, ``inv`` and ``unit``, and its equalities sent to ``require``."""
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
            ops.require(sub.label, ops.unit,
                        "delta removes only identity labels")
            return sub.child
        return LabelEdge(ops.unit, sub)
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
            return Tensor(LabelEdge(ops.out(a), b), a)
        _expect(isinstance(a, LabelEdge), letter, sub)
        ops.require(a.label, ops.out(b), "inverse c: label is not the "
                    "output color of the right factor")
        return Tensor(b, a.child)
    if not inv:
        return Tensor(b, LabelEdge(ops.inv(ops.out(b)), a))
    _expect(isinstance(b, LabelEdge), letter, sub)
    ops.require(b.label, ops.inv(ops.out(a)), "inverse flipped c: "
                "label is not the inverse output color of the left factor")
    return Tensor(b.child, a)


def _c_braid_letters(tree: GTree, letter: MorphismLetter,
                     flip_braiding: bool) -> tuple[int, ...]:
    """The braid shadow of a c letter that applies to ``tree``."""
    total = leaf_count(tree)
    offset = leaf_offset(tree, letter.path)
    sub = subtree_at(tree, letter.path)
    m, n = leaf_count(sub.left), leaf_count(sub.right)
    if letter.inverse == flip_braiding:
        return block_transposition(total, offset + 1, m, n).letters
    # undoing the crossing of the (right, then left) blocks; also flipped c
    return block_transposition(total, offset + 1, n, m).inverse().letters


def _flip(mutate: Optional[str]) -> bool:
    """Whether ``mutate`` flips the braiding; an unknown one raises."""
    if mutate not in (None, "braiding"):
        raise RelationError(f"unknown mutation {mutate!r}")
    return mutate == "braiding"


_INCONSISTENT = ("internal inconsistency: the accumulated braid does not "
                 "carry the source normal form to the target normal form")


@dataclass(frozen=True)
class InterpretedMorphism:
    source: GTree
    target: GTree
    braid: BraidWord


def interpret_morphism(source: GTree, word: MorphismWord,
                       group: Optional[FiniteGroup] = None,
                       mutate: Optional[str] = None) -> InterpretedMorphism:
    """Apply the letters on a program of one assignment, after the checks
    of ``validate`` (``group`` is needed only for an all-unit tree), then
    check that the braid carries the source normal form to the target's."""
    g = _checked_leaves(source, group)[0]
    if g is None:
        raise RelationError("cannot interpret over an undetermined group")
    program = _Program(g, source, (word,), mutate=mutate)
    if (error := program.fault(0, 0)) is not None:
        raise error
    return InterpretedMorphism(source, program.target(0, 0), program.braids[0])


# -- traced programs -----------------------------------------------------


# the key components of a generator instance, read off its forward source:
# the output color of the subtree at a path, or after "L" the label there
_KEYS = {"alpha": ("00", "01", "1"), "ell": ("1",), "r": ("0",),
         "beta": ("L0", "00", "10"), "gamma": ("L", "L0", "00"),
         "delta": ("0",), "eps": ("L",), "c": ("0", "1")}

_CHUNK = 4096  # assignments traced at a time, so that tuples stay small


class _Program:
    """Morphism words applied once to a template of one group (``mutate``
    acting on the first), with every color and label the tuple of its
    element indices at each assignment: a symbol is its column, a constant
    a repeated index, and a concrete tree has one empty assignment.  Per
    word, ``sides`` keeps each letter's generator, keys by assignment and
    sign; ``ends`` the normal forms of its source and target, each as
    sigma's images, the same at every assignment, and the decoration and
    hue columns; ``open`` keeps, tagged with its word, each equality a
    letter needs and a shape error, which ends the word."""

    def __init__(self, group: FiniteGroup, template: GTree, morphisms,
                 symbols=(), assignments=((),), mutate=None) -> None:
        self.group, self.open, self.sides = group, [], []
        self.braids, self.targets, self.ends = [], [], []
        self.unit = (0,) * len(assignments)
        columns = dict(zip(symbols, zip(*assignments)))

        def indices(x) -> tuple[int, ...]:
            return columns[x] if type(x) is str else (x.index,) * len(self.unit)

        tree = _map_leaves(template, lambda leaf: InputLeaf(
            leaf.slot, indices(leaf.color)), indices)
        for self.word, morphism in enumerate(morphisms):
            current, terms, written, ends = tree, [], [], None
            try:
                flip = self.word == 0 and _flip(mutate)
                for letter in morphism.letters:
                    site = subtree_at(current, letter.path)
                    after = replace_at(current, letter.path, _rewrite(
                        site, letter, flip, self))
                    if letter.gen == "c":
                        written[:0] = _c_braid_letters(current, letter, flip)
                    # the key is read off the forward source, which is the
                    # result of an inverse letter
                    if letter.inverse:
                        site = subtree_at(after, letter.path)
                    terms.append((letter.gen, list(zip(*self._key(
                        site, letter.gen))), -1 if letter.inverse else 1))
                    current = after
                ends = []  # bad slots raise, as in ``normalize``
                for entries in map(self._leaves, (tree, current)):
                    images, hues = _by_slot(entries)
                    ends.append((tuple(images), [e[1] for e in entries], hues))
            except (RelationError, TreeError) as exc:
                self.open.append((self.word, None, None, type(exc), str(exc)))
            self.sides.append(terms)
            self.braids.append(BraidWord(leaf_count(tree), tuple(written)))
            self.targets.append(current)
            self.ends.append(ends)

    def mul(self, x, y) -> tuple[int, ...]:
        mul = self.group.mul
        return tuple([mul[a][b] for a, b in zip(x, y)])

    def inv(self, x) -> tuple[int, ...]:
        return tuple([self.group.inv[a] for a in x])

    def _leaves(self, t: GTree) -> list:
        """``(slot, product of the labels above, color)`` per input leaf."""
        entries, stack = [], [(t, self.unit)]
        while stack:
            node, above = stack.pop()
            if isinstance(node, Tensor):
                stack += ((node.right, above), (node.left, above))
            elif isinstance(node, LabelEdge):
                stack.append((node.child, self.mul(above, node.label)))
            elif isinstance(node, InputLeaf):
                entries.append((node.slot, above, node.color))
        return entries

    def out(self, t: GTree) -> tuple[int, ...]:
        """The output color of a traced tree: its leaf colors conjugated by
        the labels above them, in position order."""
        mul, conj, acc = self.group.mul, self.group.conj, self.unit
        for _, above, color in self._leaves(t):
            acc = tuple([mul[a][conj[h][g]]
                         for a, h, g in zip(acc, above, color)])
        return acc

    def require(self, x, y, message: str) -> None:
        if x != y:
            self.open.append((self.word, x, y, RelationError, message))

    def _key(self, site: GTree, gen: str):
        """The key tuples of a generator instance at its forward source."""
        for spec in _KEYS[gen]:
            sub = subtree_at(site, tuple(map(int, spec.lstrip("L"))))
            yield sub.label if spec[0] == "L" else self.out(sub)

    def failure(self, i: int, w: Optional[int] = None):
        """The first open error of word ``w``, or of any, failing at ``i``."""
        for word, x, y, error, message in self.open:
            if w in (None, word) and (x is None or x[i] != y[i]):
                return error(message)
        return None

    def terms(self, i: int) -> list[list]:
        """Per morphism, ``((gen, key), sign)`` per letter at assignment
        ``i``; the first open equality or shape error failing there raises."""
        if (error := self.failure(i)) is not None:
            raise error
        return [[((gen, keys[i]), sign) for gen, keys, sign in side]
                for side in self.sides]

    @functools.cached_property
    def inconsistent(self) -> list[set[int]]:
        """Per word, the assignments at which its braid does not carry the
        source normal form to the target's: all of them when the images
        differ, else those where a decoration or hue column differs."""
        found = []
        for braid, ends in zip(self.braids, self.ends):
            bad = set()
            if ends is not None:
                (images, columns, hues), target = ends
                images, columns = _act_columns(
                    braid.letters, images, columns, hues, self.group)
                if images != target[0]:
                    bad.update(range(len(self.unit)))
                else:
                    for x, y in zip(columns + hues, target[1] + target[2]):
                        if x != y:
                            bad.update(i for i, (a, b) in enumerate(zip(x, y))
                                       if a != b)
            found.append(bad)
        return found

    def fault(self, i: int, w: int):
        """Word ``w``'s first open error failing at ``i``, else that of its
        braid not carrying the source normal form to the target's, or None."""
        error = self.failure(i, w)
        if error is None and i in self.inconsistent[w]:
            error = RelationError(_INCONSISTENT)
        return error

    def target(self, w: int, i: int) -> GTree:
        """Word ``w``'s target at assignment ``i``, as a tree of elements."""
        els = self.group.elements()
        return _map_leaves(self.targets[w], lambda leaf: InputLeaf(
            leaf.slot, els[leaf.color[i]]), lambda h: els[h[i]])

    @functools.cached_property
    def targets_differ(self) -> bool:
        return self.targets[0] != self.targets[1]

    def check(self, i: int) -> Optional[str]:
        """Why the words disagree at ``i`` short of their braids, or None: a
        side's failing letter or normal-form check, then the targets."""
        for w, side in enumerate(("left", "right")):
            if (error := self.fault(i, w)) is not None:
                return f"{side} side: {error}"
        if self.targets_differ and self.target(0, i) != self.target(1, i):
            return "targets differ"
        return None


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


def _instances(group: FiniteGroup, entry: dict, mutate: Optional[str] = None,
               cap: Optional[int] = None):
    """``(values, program, i)`` per assignment of one entry's symbols, in
    order, for the first ``cap`` of them: ``program`` traces both words on
    the entry's template for up to ``_CHUNK`` assignments, and the
    assignment ``values`` is its ``i``-th."""
    symbols = entry["symbols"]
    template = parse_tree(entry["source"], group,
                          dict(zip(symbols, symbols), e=group.identity))
    words = [MorphismWord.from_json(entry[key]) for key in ("lhs", "rhs")]
    assignments = itertools.islice(
        itertools.product(range(group.order), repeat=len(symbols)), cap)
    while chunk := list(itertools.islice(assignments, _CHUNK)):
        program = _Program(group, template, words, symbols, chunk, mutate)
        for i, values in enumerate(chunk):
            yield values, program, i


def _outcomes(group: FiniteGroup, entry: dict, mutate: Optional[str] = None,
              cap: Optional[int] = None):
    """None or a failure per assignment of one entry, for the first ``cap``
    of them.  A side's braid depends only on the template, so the two are
    compared once, at the first instance that reaches them."""
    symbols = entry["symbols"]
    braids = None  # the braids' reason, "" when they are equal
    for values, program, i in _instances(group, entry, mutate, cap):
        reason = program.check(i)
        if reason is None:
            if braids is None:
                braids = "" if braids_equal(*program.braids) else \
                    "braids differ: {} vs {}".format(  # e: the empty word
                        *(str(b) or "e" for b in program.braids))
            reason = braids or None
        yield None if reason is None else {
            "assignment": dict(zip(symbols, values)), "reason": reason}


def check_all_relations(group: FiniteGroup,
                        relation_ids=None,
                        mutate: Optional[str] = None,
                        assignment_cap: Optional[int] = None,
                        max_reported: int = 20) -> dict:
    """Verify every table relation for every symbol assignment over the
    group, in deterministic order.  Returns a JSON-ready report."""
    results = [relation_report(
        entry, _outcomes(group, entry, mutate, assignment_cap), max_reported)
        for entry in relation_entries(relation_ids)]
    return {
        "group": group.label,
        "mutate": mutate,
        "relations": results,
        "total_failures": sum(r["failure_count"] for r in results),
    }
