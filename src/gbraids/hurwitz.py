"""Hurwitz actions of braid words on decorated tuples over a finite group.

Two kinds of points are supported, both carried by :class:`DecoratedTuple`.

* A *bare* tuple (no permutation, no colors) is a point of the plain Hurwitz
  space ``G^r``: a list of group elements indexed by strand position.  The
  positive generator at position j replaces ``(t_j, t_{j+1})`` by
  ``(t_j t_{j+1} t_j^{-1}, t_j)``.
* A *colored* tuple is a pair ``(sigma, b)`` relative to a fixed tuple of
  input colors ``g_1 .. g_r`` (indexed by slot): ``sigma`` sends slot to
  position and ``b_p`` is the decoration at position p.  The positive
  generator at position j sends ``sigma`` to ``t_j o sigma`` and replaces
  ``(b_j, b_{j+1})`` by ``((b_j g b_j^{-1}) b_{j+1}, b_j)`` where g is the
  color arriving at position j, i.e. ``g = g_{sigma^{-1}(j)}``.

The colored move preserves the boundary output

    ``condition(sigma, b) = prod_p  b_p g_{sigma^{-1}(p)} b_p^{-1}``

taken over positions p in ascending order, and the per-position holonomies
``b_p g_{sigma^{-1}(p)} b_p^{-1}`` themselves transform by the bare move.
Braid words act through :func:`braid_act` with the rightmost letter first,
so a word acts on the permutation part by left multiplication with its
underlying permutation.

Points are int states: a point holds its group, the one-line images of
``sigma`` followed by the indices of ``b`` (``b`` alone when bare), and the
color indices by slot.  ``b``, ``sigma`` and ``colors`` are views built on
demand; the checked constructor is the one place where elements become
indices.  One state move serves :func:`hurwitz_generator`, :func:`braid_act`
and the orbit search, which follows the positive generators alone: the braid
group acts on a finite set, so each generator permutes it with some finite
order k, and its inverse is its (k-1)-st power.

Every colored point carries the index of its boundary output in ``out``
from construction, and a bare point carries None; ``out`` takes no part in
equality, order or hashing.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Optional

from .braids import BraidWord, Permutation
from .groups import FiniteGroup, GroupElement, GroupMismatchError, product_of


class HurwitzError(ValueError):
    pass


def _require_group(group: FiniteGroup, *tuples) -> None:
    for elements in tuples:
        for e in elements:
            if e.group is not group:  # group equality is identity-based
                raise GroupMismatchError(
                    f"elements of different groups: {group.label} vs "
                    f"{e.group.label}")


# ordered by state, which for points of one shape is sort_key order
@dataclass(frozen=True, order=True, init=False, slots=True)
class DecoratedTuple:
    group: Optional[FiniteGroup]  # None for a point with no entries
    state: tuple[int, ...]
    hues: Optional[tuple[int, ...]]
    out: Optional[int] = field(default=None, compare=False, repr=False)

    def __init__(self, b, sigma=None, colors=None):
        self.__post_init__(b, sigma, colors)

    def __post_init__(self, b, sigma, colors):
        """Check the elements and store them as indices."""
        if (sigma is None) != (colors is None):
            raise HurwitzError("sigma and colors must be given together")
        entries, images, hues, out = tuple(b), (), None, None
        if colors is not None:
            if len(colors) != len(b):
                raise HurwitzError("colors and decorations differ in length")
            if sigma.size != len(b):
                raise HurwitzError("permutation size mismatch")
            entries += tuple(colors)
            images, hues, out = sigma.images, tuple(c.index for c in colors), 0
        group = entries[0].group if entries else None
        _require_group(group, entries)
        decorations = tuple(e.index for e in b)
        if hues:
            out = _holonomy(group, zip(decorations, _arriving(images, hues)))
        _set_group(self, group)
        _set_state(self, images + decorations)
        _set_hues(self, hues)
        _set_out(self, out)

    @classmethod
    def _trusted(cls, group, state, hues=None, out=None) -> "DecoratedTuple":
        """Build without the checks of ``__post_init__``, for callers whose
        state, hues and ``out`` (the boundary output, None when bare) are
        already valid indices of ``group``."""
        x = object.__new__(cls)
        # a point with no entries has no group, as in its checked build
        _set_group(x, group if state else None)
        _set_state(x, state)
        _set_hues(x, hues)
        _set_out(x, out)
        return x

    def __eq__(self, other):
        """The generated ``__eq__`` less its two field tuples; the hash and
        the order stay generated."""
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.state == other.state and self.hues == other.hues
                and self.group is other.group)

    @property
    def size(self) -> int:
        return len(self.state) if self.hues is None else len(self.hues)

    def is_bare(self) -> bool:
        return self.hues is None

    def sort_key(self):
        """The state split into sigma's images (() when bare) and ``b``."""
        r = 0 if self.hues is None else len(self.hues)
        return self.state[:r], self.state[r:]

    def _view(self, indices) -> tuple[GroupElement, ...]:
        els = self.group.elements() if indices else ()  # no group if empty
        return tuple([els[i] for i in indices])

    @property
    def b(self) -> tuple[GroupElement, ...]:
        return self._view(self.sort_key()[1])

    @property
    def sigma(self) -> Optional[Permutation]:
        if self.hues is None:
            return None
        return Permutation._trusted(self.state[:len(self.hues)])

    @property
    def colors(self) -> Optional[tuple[GroupElement, ...]]:
        return None if self.hues is None else self._view(self.hues)

    def __str__(self) -> str:
        images, decorations = self.sort_key()
        body = ",".join(map(str, decorations))
        if self.is_bare():
            return body
        return f"[{','.join(map(str, images))}]({body})"


# The slots' own setters: they skip the frozen class's ``__setattr__`` and
# the lookup by name that ``object.__setattr__`` makes, which were most of
# the cost of building a point.
_set_group, _set_state, _set_hues, _set_out = (
    DecoratedTuple.group.__set__, DecoratedTuple.state.__set__,
    DecoratedTuple.hues.__set__, DecoratedTuple.out.__set__)


@dataclass(frozen=True)
class ColorSignature:
    inputs: tuple[GroupElement, ...]
    output: GroupElement


def _holonomy(group: FiniteGroup, pairs) -> int:
    """Index of the boundary output ``prod_p b_p g_p b_p^-1``, for the index
    pairs ``(b_p, g_p)`` of the decoration at each position and the color
    arriving there, in position order."""
    mul, conj, acc = group.mul, group.conj, 0
    for x, g in pairs:
        acc = mul[acc][conj[x][g]]
    return acc


def _arriving(images, hues) -> list[int]:
    """The color index arriving at each position, when slot k sits at
    position ``images[k]`` (1-based) and has color index ``hues[k]``."""
    arriving = [0] * len(hues)
    for g, p in zip(hues, images):
        arriving[p - 1] = g
    return arriving


def color_condition(sigma: Permutation, b: tuple[GroupElement, ...],
                    colors: tuple[GroupElement, ...]) -> GroupElement:
    """Product of the position holonomies ``b_p g_{sigma^{-1}(p)} b_p^{-1}``
    in ascending position order."""
    if not colors:
        raise HurwitzError("the empty point has no boundary color")
    group = colors[0].group
    _require_group(group, b, colors)
    pairs = [None] * len(colors)  # by position, as in _arriving
    for c, p in zip(colors, sigma.images):
        pairs[p - 1] = (b[p - 1].index, c.index)
    return group.elements()[_holonomy(group, pairs)]


def holonomies(x: DecoratedTuple) -> tuple[GroupElement, ...]:
    """Per-position holonomy of a colored tuple, as a bare tuple."""
    if x.is_bare() or not x.state:
        return x.b
    els, conj = x.group.elements(), x.group.conj
    return tuple(els[conj[d][g]] for d, g in
                 zip(x.sort_key()[1], _arriving(x.state, x.hues)))


def boundary_colors(x: DecoratedTuple) -> ColorSignature:
    if not x.state:
        raise HurwitzError("the empty point has no boundary")
    if x.is_bare():
        return ColorSignature(x.b, product_of(x.b, x.group))
    return ColorSignature(x.colors, x.group.elements()[x.out])


def _move(state: tuple[int, ...], letter: int, group: FiniteGroup,
          hues: Optional[tuple[int, ...]]) -> tuple[int, ...]:
    """The state that the signed generator at position ``abs(letter)`` sends
    ``state`` to; ``hues`` is None for a bare point."""
    j = abs(letter)
    t = list(state)
    if hues is None:
        a, c = state[j - 1], state[j]
        if letter > 0:
            t[j - 1], t[j] = group.conj[a][c], a
        else:
            t[j - 1], t[j] = c, group.conj[group.inv[c]][a]
        return tuple(t)
    # the slots p and q arriving at positions j and j+1; t_j o sigma swaps them
    r = len(hues)
    p, q = state.index(j, 0, r), state.index(j + 1, 0, r)
    t[p], t[q] = j + 1, j
    k = r + j - 1  # where b_j sits
    a, c = state[k], state[k + 1]
    mul, conj = group.mul, group.conj
    if letter > 0:
        t[k], t[k + 1] = mul[conj[a][hues[p]]][c], a
    else:
        t[k], t[k + 1] = c, mul[group.inv[conj[c][hues[q]]]][a]
    return tuple(t)


def _act_columns(letters, images, columns, hues, group: FiniteGroup):
    """``braid_act`` by a braid word's ``letters`` on colored points held
    column by column, with ``_move``'s formulas: ``images`` are sigma's
    one-line images, the same at every point, ``columns`` the decoration
    indices by position and ``hues`` the color indices by slot, each a tuple
    over the points.  Returns the moved images and decoration columns."""
    images, columns = list(images), list(columns)
    mul, inv, conj = group.mul, group.inv, group.conj
    for letter in reversed(letters):
        j = abs(letter)
        p, q = images.index(j), images.index(j + 1)
        images[p], images[q] = j + 1, j
        a, c = columns[j - 1], columns[j]
        if letter > 0:
            columns[j - 1] = tuple([mul[conj[x][g]][y]
                                    for x, g, y in zip(a, hues[p], c)])
            columns[j] = a
        else:
            columns[j - 1] = c
            columns[j] = tuple([mul[inv[conj[y][g]]][x]
                                for y, g, x in zip(c, hues[q], a)])
    return tuple(images), columns


def hurwitz_generator(x: DecoratedTuple, letter: int) -> DecoratedTuple:
    """Apply one signed generator at position ``abs(letter)``."""
    j, n = abs(letter), x.size
    if not 1 <= j <= n - 1:
        raise HurwitzError(f"generator {letter} out of range for size {n}")
    return DecoratedTuple._trusted(
        x.group, _move(x.state, letter, x.group, x.hues), x.hues, x.out)


def braid_act(w: BraidWord, x: DecoratedTuple) -> DecoratedTuple:
    """Act by a braid word, rightmost letter first."""
    if w.strands != x.size:
        raise HurwitzError("strand count does not match tuple size")
    state = x.state
    for l in reversed(w.letters):
        state = _move(state, l, x.group, x.hues)
    return DecoratedTuple._trusted(x.group, state, x.hues, x.out)


def conjugate_act(h: GroupElement, x: DecoratedTuple) -> DecoratedTuple:
    """Global symmetry by a group element: conjugate every entry of a bare
    tuple, or left-translate every decoration of a colored one.  Either way
    the boundary output is conjugated by h and the action commutes with every
    braid generator."""
    if not x.state:
        return x
    _require_group(x.group, (h,))
    images, decorations = x.sort_key()
    row = (x.group.conj if x.is_bare() else x.group.mul)[h.index]
    out = x.out if x.is_bare() else x.group.conj[h.index][x.out]
    return DecoratedTuple._trusted(
        x.group, images + tuple(row[t] for t in decorations), x.hues, out)


# -- components and orbits -----------------------------------------------


def bare_space(group: FiniteGroup, r: int) -> tuple[DecoratedTuple, ...]:
    """The points of ``G^r``, in lexicographic order of element indices."""
    return tuple(DecoratedTuple._trusted(group, b)
                 for b in itertools.product(range(group.order), repeat=r))


def component_objects(colors: tuple[GroupElement, ...],
                      output: GroupElement) -> list[DecoratedTuple]:
    """All colored tuples with the given input colors and boundary output,
    in sorted order.

    Once sigma and ``b_1 .. b_{r-1}`` are fixed, the holonomy at the last
    position is determined, so ``b_r`` runs over the solutions x of
    ``x g x^-1 = h`` for the color g arriving there: a coset of the
    centralizer of g.  Permutations, prefixes and solutions are each taken
    in ascending order, so the list comes out sorted."""
    group = output.group
    _require_group(group, colors)
    r = len(colors)
    hues = tuple(c.index for c in colors)
    if r == 0:
        empty = DecoratedTuple._trusted(group, (), (), output.index)
        return [empty] if output.is_identity() else []
    mul, inv, conj = group.mul, group.inv, group.conj
    # roots[g][h]: the x with x g x^-1 = h, ascending
    roots = {}
    for g in set(hues):
        roots[g] = by_h = {}
        for x in range(group.order):
            by_h.setdefault(conj[x][g], []).append(x)
    heads = list(itertools.product(range(group.order), repeat=r - 1))
    out = []
    for images in itertools.permutations(range(1, r + 1)):
        arriving = _arriving(images, hues)
        last = roots[arriving[-1]]
        for head in heads:
            acc = _holonomy(group, zip(head, arriving))  # positions 1..r-1
            for x in last.get(mul[inv[acc]][output.index], ()):
                out.append(DecoratedTuple._trusted(
                    group, images + head + (x,), hues, output.index))
    return out


def _search(start, group, hues, seen: set) -> list:
    """The states reachable from ``start`` and not in ``seen``, sorted; adds
    them to ``seen``."""
    n = len(start) if hues is None else len(hues)
    seen.add(start)
    found = [start]
    for s in found:  # a breadth-first walk: the list grows as it is read
        for j in range(1, n):
            t = _move(s, j, group, hues)
            if t not in seen:
                seen.add(t)
                found.append(t)
    found.sort()
    return found


def orbit(x: DecoratedTuple) -> tuple[DecoratedTuple, ...]:
    """Braid-word orbit of a point, sorted; first entry is the canonical
    representative."""
    return partition([x])[0]


def partition(points) -> list[tuple[DecoratedTuple, ...]]:
    """Orbits of a braid-stable set of points of one size, group and colors
    (one boundary component, or one bare space), ordered by representative.

    The states are walked in sorted order, and the search starts from each
    one not yet seen, which is the least state of its orbit.  Each point
    carries the output of ``points[0]``, that of the component."""
    points = list(points)
    if not points:
        return []
    group, hues, out = points[0].group, points[0].hues, points[0].out
    seen, orbits = set(), []
    for s in sorted(x.state for x in points):
        if s not in seen:
            orbits.append(tuple(DecoratedTuple._trusted(group, t, hues, out)
                                for t in _search(s, group, hues, seen)))
    return orbits


def pi0_component(colors: tuple[GroupElement, ...],
                  output: GroupElement) -> list[tuple[DecoratedTuple, ...]]:
    """Orbit decomposition of one boundary component, deterministically
    ordered by canonical representatives."""
    return partition(component_objects(colors, output))


def pi0_hurwitz_space(group: FiniteGroup, r: int) -> list[tuple[DecoratedTuple, ...]]:
    """Orbit decomposition of the bare space ``G^r``."""
    return partition(bare_space(group, r))


# -- parsing -------------------------------------------------------------


def parse_tuple(text: str, group: FiniteGroup) -> tuple[GroupElement, ...]:
    """Comma-separated element indices, e.g. ``"1,2,0"``."""
    text = text.strip()
    if not text:
        return ()
    try:
        return tuple(group.element(int(t)) for t in text.split(","))
    except (ValueError, IndexError):
        raise HurwitzError(f"bad tuple {text!r}") from None


def format_tuple(elements: tuple[GroupElement, ...]) -> str:
    return ",".join(str(e.index) for e in elements)


def parse_signature(text: str, group: FiniteGroup) -> ColorSignature:
    """``"g1,...,gr->h"`` with element indices, e.g. ``"2,5->4"``."""
    if "->" not in text:
        raise HurwitzError(f"bad signature {text!r}: expected 'colors->output'")
    left, _, right = text.partition("->")
    inputs = parse_tuple(left, group)
    try:
        output = group.element(int(right.strip()))
    except (ValueError, IndexError):
        raise HurwitzError(f"bad signature output {right!r}") from None
    return ColorSignature(inputs, output)


def format_signature(sig: ColorSignature) -> str:
    return f"{format_tuple(sig.inputs)}->{sig.output.index}"
