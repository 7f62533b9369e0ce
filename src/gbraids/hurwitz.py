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

Orbits are searched on int states: ``sigma.images`` and then the indices of
``b`` (``b`` alone for a bare point), so tuple order is the order of
``DecoratedTuple.sort_key``, and only the returned states become tuples.  The
search follows the positive generators alone, which is enough: the braid
group acts on a finite set, so each generator permutes it with some finite
order k, and its inverse is its (k-1)-st power.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

from .braids import BraidWord, Permutation, all_permutations
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


@dataclass(frozen=True)
class DecoratedTuple:
    b: tuple[GroupElement, ...]
    sigma: Optional[Permutation] = None
    colors: Optional[tuple[GroupElement, ...]] = None

    def __post_init__(self):
        if (self.sigma is None) != (self.colors is None):
            raise HurwitzError("sigma and colors must be given together")
        entries = self.b
        if self.colors is not None:
            if len(self.colors) != len(self.b):
                raise HurwitzError("colors and decorations differ in length")
            if self.sigma.size != len(self.b):
                raise HurwitzError("permutation size mismatch")
            entries = entries + self.colors
        if entries:
            _require_group(entries[0].group, entries)

    @classmethod
    def _trusted(cls, b, sigma=None, colors=None) -> "DecoratedTuple":
        """Build without the checks of ``__post_init__``, for callers whose
        entries already share one group and agree in length."""
        # attribute by attribute: touching __dict__ would materialize a
        # separate dict and double the size of every instance
        x = object.__new__(cls)
        object.__setattr__(x, "b", b)
        object.__setattr__(x, "sigma", sigma)
        object.__setattr__(x, "colors", colors)
        return x

    @property
    def size(self) -> int:
        return len(self.b)

    @property
    def group(self) -> FiniteGroup:
        if not self.b:
            raise HurwitzError("empty tuple has no determined group")
        return self.b[0].group

    def is_bare(self) -> bool:
        return self.colors is None

    def sort_key(self):
        sig = self.sigma.images if self.sigma is not None else ()
        return (sig, tuple(e.index for e in self.b))

    def __lt__(self, other: "DecoratedTuple") -> bool:
        return self.sort_key() < other.sort_key()

    def __str__(self) -> str:
        body = format_tuple(self.b)
        if self.is_bare():
            return body
        perm = ",".join(str(v) for v in self.sigma.images)
        return f"[{perm}]({body})"


@dataclass(frozen=True)
class ColorSignature:
    inputs: tuple[GroupElement, ...]
    output: GroupElement


def color_condition(sigma: Permutation, b: tuple[GroupElement, ...],
                    colors: tuple[GroupElement, ...]) -> GroupElement:
    """Product of the position holonomies ``b_p g_{sigma^{-1}(p)} b_p^{-1}``
    in ascending position order."""
    group = colors[0].group
    _require_group(group, b, colors)
    mul, conj = group.mul, group.conj
    arriving = [None] * len(colors)  # the color arriving at each position
    for c, p in zip(colors, sigma.images):
        arriving[p - 1] = c.index
    acc = group.identity_index
    for x, g in zip(b, arriving):
        acc = mul[acc][conj[x.index][g]]
    return group.elements()[acc]


def holonomies(x: DecoratedTuple) -> tuple[GroupElement, ...]:
    """Per-position holonomy of a colored tuple, as a bare tuple."""
    if x.is_bare():
        return x.b
    inv = x.sigma.inverse()
    return tuple(x.b[p - 1] * x.colors[inv(p) - 1] * x.b[p - 1].inverse()
                 for p in range(1, x.size + 1))


def boundary_colors(x: DecoratedTuple) -> ColorSignature:
    if x.is_bare():
        if not x.b:
            raise HurwitzError("empty bare tuple has no boundary")
        return ColorSignature(x.b, product_of(x.b, x.group))
    return ColorSignature(x.colors, color_condition(x.sigma, x.b, x.colors))


def hurwitz_generator(x: DecoratedTuple, letter: int) -> DecoratedTuple:
    """Apply one signed generator at position ``abs(letter)``."""
    j = abs(letter)
    n = len(x.b)
    if not 1 <= j <= n - 1:
        raise HurwitzError(f"generator {letter} out of range for size {n}")
    group = x.b[0].group
    mul, inv, conj = group.mul, group.inv, group.conj
    els = group.elements()
    b = list(x.b)
    s, t = b[j - 1].index, b[j].index
    if x.colors is None:
        if letter > 0:
            b[j - 1], b[j] = els[conj[s][t]], b[j - 1]
        else:
            b[j - 1], b[j] = b[j], els[conj[inv[t]][s]]
        return DecoratedTuple._trusted(tuple(b))
    # the slots p and q arriving at positions j and j+1; t_j o sigma swaps them
    images = list(x.sigma.images)
    p, q = images.index(j), images.index(j + 1)
    images[p], images[q] = j + 1, j
    if letter > 0:
        g = x.colors[p].index
        b[j - 1], b[j] = els[mul[conj[s][g]][t]], b[j - 1]
    else:
        g = x.colors[q].index
        b[j - 1], b[j] = b[j], els[mul[inv[conj[t][g]]][s]]
    sigma = Permutation._trusted(tuple(images))
    return DecoratedTuple._trusted(tuple(b), sigma, x.colors)


def braid_act(w: BraidWord, x: DecoratedTuple) -> DecoratedTuple:
    """Act by a braid word, rightmost letter first."""
    if w.strands != x.size:
        raise HurwitzError("strand count does not match tuple size")
    for l in reversed(w.letters):
        x = hurwitz_generator(x, l)
    return x


def conjugate_act(h: GroupElement, x: DecoratedTuple) -> DecoratedTuple:
    """Global symmetry by a group element: conjugate every entry of a bare
    tuple, or left-translate every decoration of a colored one.  Either way
    the boundary output is conjugated by h and the action commutes with every
    braid generator."""
    if x.is_bare():
        return DecoratedTuple._trusted(tuple(h * t * ~h for t in x.b))
    return DecoratedTuple._trusted(tuple(h * t for t in x.b), x.sigma, x.colors)


# -- components and orbits -----------------------------------------------


def bare_space(group: FiniteGroup, r: int) -> tuple[DecoratedTuple, ...]:
    """The points of ``G^r``, in lexicographic order of element indices."""
    return tuple(DecoratedTuple._trusted(b)
                 for b in itertools.product(group.elements(), repeat=r))


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
    if r == 0:
        empty = DecoratedTuple((), Permutation(()), ())
        return [empty] if output.is_identity() else []
    els = group.elements()
    mul, inv, conj = group.mul, group.inv, group.conj
    color_index = [c.index for c in colors]
    # roots[g][h]: the x with x g x^-1 = h, ascending
    roots = {}
    for g in set(color_index):
        roots[g] = by_h = {}
        for x in range(group.order):
            by_h.setdefault(conj[x][g], []).append(x)
    heads = list(itertools.product(range(group.order), repeat=r - 1))
    out = []
    for sigma in all_permutations(r):
        arriving = [color_index[s - 1] for s in sigma.inverse().images]
        last = roots[arriving[-1]]
        for head in heads:
            acc = group.identity_index
            for x, g in zip(head, arriving):
                acc = mul[acc][conj[x][g]]
            for x in last.get(mul[inv[acc]][output.index], ()):
                out.append(DecoratedTuple._trusted(
                    tuple(els[i] for i in head + (x,)), sigma, colors))
    return out


def _kernel(x: DecoratedTuple):
    """``(encode, moves, decode)`` for the points of x's size, group and
    colors.  A state is ``sort_key`` flattened; ``moves`` yields the states
    that the positive generators send a state to, and ``decode`` builds one
    ``Permutation`` per distinct sigma."""
    r, colors = x.size, x.colors
    k = 0 if colors is None else r  # where b starts in a state
    els, mul, conj = (x.group.elements(), x.group.mul, x.group.conj) if r \
        else ((), (), ())
    color = [c.index for c in colors or ()]
    perms = {}

    def moves(s):
        for j in range(1, r):
            t = list(s)
            a, c = s[k + j - 1], s[k + j]
            if colors is None:
                c = conj[a][c]
            else:  # the slots arriving at positions j and j+1 swap places
                p, q = s.index(j, 0, r), s.index(j + 1, 0, r)
                t[p], t[q] = j + 1, j
                c = mul[conj[a][color[p]]][c]
            t[k + j - 1], t[k + j] = c, a
            yield tuple(t)

    def decode(s):
        b = tuple(els[i] for i in s[k:])
        if colors is None:
            return DecoratedTuple._trusted(b)
        sigma = perms.get(s[:r])
        if sigma is None:
            sigma = perms[s[:r]] = Permutation._trusted(s[:r])
        return DecoratedTuple._trusted(b, sigma, colors)

    return lambda y: sum(y.sort_key(), ()), moves, decode


def _search(start, moves, seen: set) -> list:
    """The states reachable from ``start`` and not in ``seen``, sorted; adds
    them to ``seen``."""
    seen.add(start)
    found, stack = [start], [start]
    while stack:
        for t in moves(stack.pop()):
            if t not in seen:
                seen.add(t)
                found.append(t)
                stack.append(t)
    found.sort()
    return found


def orbit(x: DecoratedTuple) -> tuple[DecoratedTuple, ...]:
    """Braid-word orbit of a point, sorted; first entry is the canonical
    representative."""
    encode, moves, decode = _kernel(x)
    return tuple(map(decode, _search(encode(x), moves, set())))


def partition(points) -> list[tuple[DecoratedTuple, ...]]:
    """Orbits of a braid-stable set of points of one size, group and colors
    (one boundary component, or one bare space), ordered by representative.

    The states are walked in sorted order, and the search starts from each
    one not yet seen, which is the least state of its orbit."""
    points = list(points)
    if not points:
        return []
    encode, moves, decode = _kernel(points[0])
    seen, orbits = set(), []
    for s in sorted(map(encode, points)):
        if s not in seen:
            orbits.append(tuple(map(decode, _search(s, moves, seen))))
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
