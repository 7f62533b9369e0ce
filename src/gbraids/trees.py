"""Labeled parenthesized trees and their normal forms.

A tree is built from four node kinds: numbered input leaves carrying a color
(``leaf:3:g`` is slot 3 with color g), the unit leaf ``U``, a unary label
edge ``L[h](...)``, and the binary tensor ``T(..., ...)``.  Slots number the
inputs 1..r in any order; the left-to-right order of the leaves in the tree
is the *position* order.

``normalize`` pushes every label down to the leaves (a label edge acts on
both tensor children, and conjugates the output color) and records the
result as a colored decorated tuple, built from indices alone: ``sigma``
maps slot to position, the decoration ``b_p`` is the product of the labels
accumulated along the path to the leaf in position p, and the colors stay
indexed by slot; the same walk computes the output color, which the normal
form carries.  ``denormalize`` rebuilds the left-parenthesized comb, so the
two maps are mutually inverse bijections between normal forms and component
objects.

Grafting substitutes a tree for an input leaf of matching color;
``grafter(outer, j)`` performs the same operation directly on the index
states of normal forms, as a function of the inner form.  Each call checks
the output color that the inner form carries, splices the inner positions
into the outer position P of the replaced slot and left-multiplies the
inner decorations by the outer one, b_P.  The work that depends on the
outer form alone (P, the row of b_P, the slices of its hues and state, and
the outer images shifted for an inner arity) is done on the first call of
each inner arity and kept, so a grafter applied to many inners does it
once.  ``compose_normal(outer, j, inner)`` is ``grafter(outer, j)(inner)``.
The composite carries the outer form's output color, which grafting
preserves.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Optional, Union

from .groups import FiniteGroup, GroupElement, GroupMismatchError
from .hurwitz import (DecoratedTuple, _set_group, _set_hues, _set_out,
                      _set_state)


class TreeError(ValueError):
    pass


@dataclass(frozen=True)
class InputLeaf:
    slot: int
    color: GroupElement


@dataclass(frozen=True)
class UnitLeaf:
    pass


@dataclass(frozen=True)
class LabelEdge:
    label: GroupElement
    child: "GTree"


@dataclass(frozen=True)
class Tensor:
    left: "GTree"
    right: "GTree"


GTree = Union[InputLeaf, UnitLeaf, LabelEdge, Tensor]

# a normal form is exactly a colored decorated tuple
NormalForm = DecoratedTuple
_new = object.__new__


def leaf_count(t: GTree) -> int:
    count, stack = 0, []
    while True:
        kind = type(t)
        if kind is Tensor:
            stack.append(t.right)
            t = t.left
            continue
        if kind is LabelEdge:
            t = t.child
            continue
        if kind is InputLeaf:
            count += 1
        if not stack:
            return count
        t = stack.pop()


def _leaves(t: GTree, mismatch: type[Exception]):
    """One iterative preorder walk.  Returns the group of the first leaf or
    label (None for an all-unit tree), in position order one ``(slot, label,
    color)`` index triple per input leaf, where the label is the product of
    the labels on the path to the leaf, and the ``output_color`` index.
    Raises ``mismatch`` at the first element of another group."""
    group = None
    entries = []
    stack = []
    node, acc, out = t, 0, 0  # index 0 is the identity of every group
    while True:
        kind = type(node)
        if kind is Tensor:
            stack.append((node.right, acc))
            node = node.left
            continue
        if kind is InputLeaf or kind is LabelEdge:
            element = node.color if kind is InputLeaf else node.label
            if element.group is not group:
                if group is not None:
                    raise mismatch(f"mixed groups in one tree: {group.label} "
                                   f"vs {element.group.label}")
                group = element.group
                mul, conj = group.mul, group.conj
            if kind is LabelEdge:
                acc = mul[acc][element.index]
                node = node.child
                continue
            entries.append((node.slot, acc, element.index))
            out = mul[out][conj[acc][element.index]]
        if not stack:
            return group, entries, out
        node, acc = stack.pop()


def output_color(t: GTree, group: Optional[FiniteGroup] = None) -> GroupElement:
    """The leaf colors conjugated by the labels above them, multiplied in
    position order.  ``group`` is used only when the tree is all units."""
    g, _, out = _leaves(t, GroupMismatchError)
    g = g or group
    if g is None:
        raise TreeError("cannot determine the group of an all-unit tree")
    return g.elements()[out]


def _checked_leaves(t: GTree, group: Optional[FiniteGroup]):
    """The ``_leaves`` walk plus the checks of ``validate``: a group other
    than that of the first leaf or label, or than ``group`` when both are
    given, raises ``TreeError``, and so do slots that are not 1..r, each
    once.  Returns the group (``group`` for an all-unit tree), the
    decoration index of each position, per slot its position and its color
    index, and the output color index."""
    g, entries, out = _leaves(t, TreeError)
    if g is None:
        g = group
    elif group is not None and group is not g:
        raise TreeError(f"mixed groups in one tree: {g.label} "
                        f"vs {group.label}")
    return g, tuple([e[1] for e in entries]), *_by_slot(entries), out


def _by_slot(entries) -> tuple[list, list]:
    """Per slot, the position of its leaf and its color, from one ``(slot,
    label, color)`` entry per position; slots other than 1..r, each once,
    raise ``TreeError``."""
    r = len(entries)
    images = [0] * r
    hues = [0] * r
    for position, (slot, _, color) in enumerate(entries, start=1):
        if not 1 <= slot <= r or images[slot - 1]:
            raise TreeError(
                f"bad slot numbering {sorted(e[0] for e in entries)}")
        images[slot - 1] = position
        hues[slot - 1] = color
    return images, hues


def validate(t: GTree, group: Optional[FiniteGroup] = None) -> int:
    """Check slot numbering (1..r, each once) and group consistency; return r."""
    return len(_checked_leaves(t, group)[1])


# -- navigation ----------------------------------------------------------


def subtree_at(t: GTree, path: tuple[int, ...]) -> GTree:
    """Child 0/1 of a tensor, child 0 of a label edge."""
    for step in path:
        if isinstance(t, Tensor):
            if step not in (0, 1):
                raise TreeError(f"bad path step {step} at tensor")
            t = t.left if step == 0 else t.right
        elif isinstance(t, LabelEdge):
            if step != 0:
                raise TreeError(f"bad path step {step} at label edge")
            t = t.child
        else:
            raise TreeError("path descends past a leaf")
    return t


def replace_at(t: GTree, path: tuple[int, ...], sub: GTree) -> GTree:
    ancestors = []  # (node, step) from the root down
    for step in path:
        if isinstance(t, Tensor) and step in (0, 1):
            ancestors.append((t, step))
            t = t.left if step == 0 else t.right
        elif isinstance(t, LabelEdge) and step == 0:
            ancestors.append((t, step))
            t = t.child
        else:
            raise TreeError(f"bad path step {step}")
    for node, step in reversed(ancestors):
        if isinstance(node, LabelEdge):
            sub = LabelEdge(node.label, sub)
        elif step == 0:
            sub = Tensor(sub, node.right)
        else:
            sub = Tensor(node.left, sub)
    return sub


def leaf_offset(t: GTree, path: tuple[int, ...]) -> int:
    """Number of input leaves strictly to the left of the subtree at path."""
    offset = 0
    for step in path:
        if isinstance(t, Tensor):
            if step == 1:
                offset += leaf_count(t.left)
            t = t.left if step == 0 else t.right
        elif isinstance(t, LabelEdge):
            t = t.child
        else:
            raise TreeError("path descends past a leaf")
    return offset


# -- normal forms --------------------------------------------------------


def normalize(t: GTree, group: Optional[FiniteGroup] = None) -> NormalForm:
    """The normal form of a tree, after the checks of ``validate``, which
    raise ``TreeError``.  ``group`` is needed only for an all-unit tree."""
    g, decorations, images, hues, out = _checked_leaves(t, group)
    if g is None:
        raise TreeError("cannot normalize an all-unit tree without a group")
    return NormalForm._trusted(g, (*images, *decorations), tuple(hues), out)


def denormalize(nf: NormalForm) -> GTree:
    """The left-parenthesized comb in position order; identity labels are
    omitted."""
    if nf.is_bare():
        raise TreeError("normal forms are colored tuples")
    if nf.size == 0:
        return UnitLeaf()
    els = nf.group.elements()
    images, b = nf.sort_key()
    limbs = [None] * nf.size  # by position
    for slot, (p, color) in enumerate(zip(images, nf.hues), start=1):
        leaf = InputLeaf(slot, els[color])
        limbs[p - 1] = LabelEdge(els[b[p - 1]], leaf) if b[p - 1] else leaf
    return functools.reduce(Tensor, limbs)


def identity_normal_form(color: GroupElement) -> NormalForm:
    return NormalForm._trusted(color.group, (1, 0), (color.index,),  # b = e
                               color.index)


def _map_leaves(t: GTree, leaf, label=lambda h: h) -> GTree:
    """``t`` rebuilt with each input leaf x replaced by ``leaf(x)`` and each
    label h by ``label(h)``, walked with an explicit stack; ``done`` holds
    the finished subtrees."""
    done: list = []
    stack = [(t, False)]
    while stack:
        node, children_done = stack.pop()
        if isinstance(node, Tensor):
            if children_done:
                right = done.pop()
                done.append(Tensor(done.pop(), right))
            else:
                stack += ((node, True), (node.right, False),
                          (node.left, False))
        elif isinstance(node, LabelEdge):
            if children_done:
                done.append(LabelEdge(label(node.label), done.pop()))
            else:
                stack += ((node, True), (node.child, False))
        elif isinstance(node, InputLeaf):
            done.append(leaf(node))
        else:
            done.append(node)
    return done[0]


def graft(outer: GTree, j: int, inner: GTree) -> GTree:
    """Substitute ``inner`` for input leaf j of ``outer``, renumbering slots:
    inner slots become j..j+s-1, later outer slots shift up by s-1."""
    s = validate(inner)
    r = validate(outer)
    if not 1 <= j <= r:
        raise TreeError(f"slot {j} out of range")

    def subst(leaf):
        if leaf.slot == j:
            if output_color(inner, leaf.color.group) != leaf.color:
                raise TreeError(
                    "output color of the grafted tree does not match")
            return _map_leaves(
                inner, lambda x: InputLeaf(x.slot + j - 1, x.color))
        if leaf.slot > j:
            return InputLeaf(leaf.slot + s - 1, leaf.color)
        return leaf

    return _map_leaves(outer, subst)


def grafter(outer: NormalForm, j: int) -> Callable[[NormalForm], NormalForm]:
    """Grafting into slot j of ``outer``, as a function of the inner form.

    A slot out of range raises ``TreeError`` here; an empty inner form, or
    one of another group or output color, raises it at the call.  ``plans``
    keeps, per inner arity s, what the splice needs of ``outer``."""
    if not 1 <= j <= len(outer.hues):
        raise TreeError(f"slot {j} out of range")
    plans = {}

    def splice(inner: NormalForm) -> NormalForm:
        inner_hues = inner.hues
        s = len(inner_hues)
        plan = plans.get(s)
        if plan is None:
            if s == 0:
                raise TreeError("cannot graft an empty tree into a slot")
            # slot j, at outer position P, opens into the inner slots and
            # positions; later outer positions move up by s - 1
            group, state, hues = outer.group, outer.state, outer.hues
            r = len(hues)
            P = state[j - 1]
            k = r + P - 1  # where b_P sits
            if s == 1 or P == r:  # no outer position moves
                left, right = state[:j - 1], state[j:r]
            else:
                images = [p + s - 1 if p > P else p for p in state[:r]]
                left, right = images[:j - 1], images[j:]
            plan = plans[s] = (
                group, hues[j - 1], hues[:j - 1], hues[j:], left,
                (P - 1).__add__, right, state[r:k],
                group.mul[state[k]].__getitem__, state[k + 1:])
        group, need, head, tail, left, shift, right, before, row, after = plan
        if inner.out != need or inner.group is not group:
            raise TreeError("output color of the grafted tree does not match")
        inner_state = inner.state
        # the spliced positions contribute b_P g b_P^-1, as slot j did
        composite = _new(NormalForm)
        _set_group(composite, group)
        _set_state(composite, (*left, *map(shift, inner_state[:s]), *right,
                               *before, *map(row, inner_state[s:]), *after))
        _set_hues(composite, head + inner_hues + tail)
        _set_out(composite, outer.out)
        return composite

    return splice


def compose_normal(outer: NormalForm, j: int, inner: NormalForm) -> NormalForm:
    """Grafting computed directly on normal forms, by a grafter used once."""
    return grafter(outer, j)(inner)


# -- concrete syntax -----------------------------------------------------


def format_tree(t: GTree) -> str:
    # the stack holds nodes still to print and the literal text between them
    out, stack = [], [t]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            out.append(item)
        elif isinstance(item, InputLeaf):
            out.append(f"leaf:{item.slot}:{item.color.index}")
        elif isinstance(item, UnitLeaf):
            out.append("U")
        elif isinstance(item, LabelEdge):
            out.append(f"L[{item.label.index}](")
            stack += (")", item.child)
        else:
            out.append("T(")
            stack += (")", item.right, ",", item.left)
    return "".join(out)


class _Parser:
    def __init__(self, text: str, group: FiniteGroup, symbols):
        self.text = text
        self.pos = 0
        self.group = group
        self.symbols = symbols or {}

    def error(self, message):
        raise TreeError(f"{message} at offset {self.pos} in {self.text!r}")

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def expect(self, ch):
        self.skip_ws()
        if self.pos >= len(self.text) or self.text[self.pos] != ch:
            self.error(f"expected {ch!r}")
        self.pos += 1

    def symbol(self, stop: str) -> GroupElement:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos] not in stop \
                and not self.text[self.pos].isspace():
            self.pos += 1
        name = self.text[start:self.pos]
        if name in self.symbols:
            return self.symbols[name]
        try:
            return self.group.element(int(name))
        except (ValueError, IndexError):
            self.error(f"unknown element {name!r}")

    def integer(self, stop: str) -> int:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos] not in stop:
            self.pos += 1
        try:
            return int(self.text[start:self.pos])
        except ValueError:
            self.error("expected an integer")

    def tree(self) -> GTree:
        """Recursive descent on an explicit stack of open nodes: a label
        edge waiting for its child, or a tensor waiting for its left child
        (None) or, holding the left one, for its right child."""
        stack: list = []
        while True:
            self.skip_ws()
            if self.text.startswith("T(", self.pos):
                self.pos += 2
                stack.append((Tensor, None))
                continue
            if self.text.startswith("L[", self.pos):
                self.pos += 2
                label = self.symbol("]")
                self.expect("]")
                self.expect("(")
                stack.append((LabelEdge, label))
                continue
            if self.text.startswith("leaf:", self.pos):
                self.pos += 5
                slot = self.integer(":")
                self.expect(":")
                node = InputLeaf(slot, self.symbol("(),]"))
            elif self.text.startswith("U", self.pos):
                self.pos += 1
                node = UnitLeaf()
            else:
                self.error("expected a tree")
            while stack:
                kind, held = stack.pop()
                if kind is Tensor and held is None:
                    self.expect(",")
                    stack.append((Tensor, node))
                    break
                self.expect(")")
                # Tensor(left, node) or LabelEdge(label, node)
                node = kind(held, node)
            else:
                return node


def parse_tree(text: str, group: FiniteGroup,
               symbols: Optional[dict] = None) -> GTree:
    """Read the ``T(L[h](leaf:1:g), leaf:2:k)`` syntax.  Labels and colors are
    element indices, or names resolved through ``symbols``."""
    parser = _Parser(text, group, symbols)
    tree = parser.tree()
    parser.skip_ws()
    if parser.pos != len(text):
        parser.error("trailing input")
    return tree


def random_tree(group: FiniteGroup, r: int, rng,
                label_chance: float = 0.5) -> GTree:
    """A random tree with slots 1..r (seeded by the caller's rng); used by
    tests and the sampling checks."""
    slots = list(range(1, r + 1))
    rng.shuffle(slots)
    leaves: list[GTree] = [
        InputLeaf(s, group.element(rng.randrange(group.order))) for s in slots]
    if not leaves:
        leaves = [UnitLeaf()]
    while len(leaves) > 1:
        i = rng.randrange(len(leaves) - 1)
        node = Tensor(leaves[i], leaves[i + 1])
        if rng.random() < label_chance:
            node = LabelEdge(group.element(rng.randrange(group.order)), node)
        leaves[i:i + 2] = [node]
    t = leaves[0]
    if rng.random() < label_chance:
        t = LabelEdge(group.element(rng.randrange(group.order)), t)
    return t
