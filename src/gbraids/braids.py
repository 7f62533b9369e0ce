"""Braid words with Garside-normal-form equality and cabling.

Conventions (shared with the rest of the package):

* permutations are 1-based one-line tuples, composed by "apply the right
  factor first": ``(p @ q)(i) = p(q(i))``;
* a braid word lists signed Artin letters in product order, so under any
  action the rightmost letter acts first, and the underlying permutation of
  ``l1 l2 ... ln`` is ``t_{l1} o t_{l2} o ... o t_{ln}``;
* a positive letter +j crosses the strand in position j *over* the strand in
  position j+1.

Equality of braids is decided by the classical left-greedy (Garside) normal
form with permutation simples: a word is rewritten as ``Delta^p f1 ... fk``
where Delta is the half twist, no factor is trivial or Delta, and every
adjacent pair (fi, fi+1) is left-weighted (every simple letter starting fi+1
also ends fi).  A negative letter is ``s_j^-1 = Delta^-1 (w0 s_j)``, and its
Delta^-1 is commuted to the front by the flip tau(x) = w0 x w0, which sends
s_j to s_{n-j}.  One backward pass over the word gives each letter's simple
with tau applied once per negative letter after it, and p starts at minus
the number of negative letters, so no factor is ever flipped twice.  The
simples then enter left to right; each is made left-weighted against the
factor before it, and the sweep moves leftward only while a pair changes.
That single right-to-left pass per letter keeps the whole list left-weighted
(Thurston's algorithm: Epstein et al., *Word Processing in Groups*, 1992,
ch. 9; El-Rifai & Morton, *Algorithms for positive braids*, 1994), so there
is no sweep to a fixpoint.  A factor emptied at the end is dropped, and the
leading Delta factors are counted into p once, at the end.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache


class BraidError(ValueError):
    pass


# -- permutations --------------------------------------------------------


@dataclass(frozen=True)
class Permutation:
    images: tuple[int, ...]  # one-line notation, 1-based values

    def __post_init__(self):
        if sorted(self.images) != list(range(1, len(self.images) + 1)):
            raise BraidError(f"not a permutation: {self.images}")

    @classmethod
    def _trusted(cls, images: tuple[int, ...]) -> "Permutation":
        """Build without the check of ``__post_init__``, for callers that
        have already checked that ``images`` is a permutation."""
        p = object.__new__(cls)
        object.__setattr__(p, "images", images)
        return p

    @property
    def size(self) -> int:
        return len(self.images)

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(tuple(range(1, n + 1)))

    @classmethod
    def transposition(cls, j: int, n: int) -> "Permutation":
        if not 1 <= j <= n - 1:
            raise BraidError(
                f"transposition index {j} out of range for size {n}")
        im = list(range(1, n + 1))
        im[j - 1], im[j] = im[j], im[j - 1]
        return cls(tuple(im))

    def __call__(self, i: int) -> int:
        return self.images[i - 1]

    def __matmul__(self, other: "Permutation") -> "Permutation":
        if self.size != other.size:
            raise BraidError("size mismatch in permutation composition")
        return Permutation._trusted(
            tuple(self.images[v - 1] for v in other.images))

    def inverse(self) -> "Permutation":
        out = [0] * self.size
        for i, v in enumerate(self.images, start=1):
            out[v - 1] = i
        return Permutation._trusted(tuple(out))

    def is_identity(self) -> bool:
        return all(v == i for i, v in enumerate(self.images, start=1))

    def __repr__(self) -> str:
        return f"Permutation{self.images}"


def all_permutations(n: int):
    """All of Sigma_n in lexicographic one-line order."""
    return [Permutation(p) for p in itertools.permutations(range(1, n + 1))]


# -- braid words ---------------------------------------------------------


@dataclass(frozen=True)
class BraidWord:
    strands: int
    letters: tuple[int, ...] = ()

    def __post_init__(self):
        if self.strands < 0:
            raise BraidError("strand count must be nonnegative")
        for l in self.letters:
            if l == 0 or not 1 <= abs(l) <= self.strands - 1:
                raise BraidError(f"letter {l} out of range for {self.strands} strands")

    @classmethod
    def _trusted(cls, strands: int, letters: tuple[int, ...]) -> "BraidWord":
        """Build without the checks of ``__post_init__``, for callers whose
        letters are already nonzero and in range."""
        w = object.__new__(cls)
        object.__setattr__(w, "strands", strands)
        object.__setattr__(w, "letters", letters)
        return w

    @classmethod
    def identity(cls, strands: int) -> "BraidWord":
        return cls(strands, ())

    def __mul__(self, other: "BraidWord") -> "BraidWord":
        if self.strands != other.strands:
            raise BraidError("strand count mismatch")
        return BraidWord._trusted(self.strands, self.letters + other.letters)

    def inverse(self) -> "BraidWord":
        return BraidWord._trusted(self.strands,
                                  tuple(-l for l in reversed(self.letters)))

    def __str__(self) -> str:
        return " ".join(str(l) for l in self.letters)


def parse_braid_word(text: str, strands: int) -> BraidWord:
    """Parse whitespace-separated signed letters, e.g. ``"1 2 -1"``."""
    tokens = text.split()
    try:
        letters = tuple(int(t) for t in tokens)
    except ValueError:
        raise BraidError(f"bad braid word {text!r}") from None
    return BraidWord(strands, letters)


def underlying_permutation(w: BraidWord) -> Permutation:
    # p o t_j swaps the entries at positions j and j+1, so accumulating left
    # to right makes later letters act first
    im = list(range(1, w.strands + 1))
    for l in w.letters:
        j = abs(l)
        im[j - 1], im[j] = im[j], im[j - 1]
    return Permutation._trusted(tuple(im))


def is_pure(w: BraidWord) -> bool:
    return underlying_permutation(w).is_identity()


# -- Garside normal form -------------------------------------------------
#
# The kernel holds each simple as a pair [images, inverse] of 0-based lists:
# images[i] is the image of position i, inverse[v] the position of value v.


def _slide(a, b) -> bool:
    """Make the pair (a, b) left-weighted in place, preserving the product
    a b: while some letter starts b but does not end a, move the least such
    letter s across (a := a s, b := s^-1 b).  Only the descents next to a
    moved letter change, so the scan resumes one place to its left."""
    aim, ainv = a
    bim, binv = b
    moved = False
    i, last = 0, len(aim) - 1
    while i < last:
        if binv[i] > binv[i + 1] and aim[i] < aim[i + 1]:
            x, y = aim[i + 1], aim[i]
            aim[i], aim[i + 1] = x, y
            ainv[x], ainv[y] = i, i + 1
            x, y = binv[i + 1], binv[i]
            binv[i], binv[i + 1] = x, y
            bim[x], bim[y] = i, i + 1
            moved = True
            i = i - 1 if i else 0
        else:
            i += 1
    return moved


def _garside(n: int, letters) -> tuple[int, list]:
    """``(power, factors)`` of the normal form, factors as index lists."""
    simples, flip = [], False
    for l in reversed(letters):
        # tau, once per negative letter to the right, sends j to n - j;
        # s_j^-1 = Delta^-1 (w0 s_j), and (w0 s_j)^-1 = w0 s_{n-j}
        j = n - abs(l) if flip else abs(l)
        k = j if l > 0 else n - j
        base = range(n) if l > 0 else range(n - 1, -1, -1)
        im, inv = list(base), list(base)
        im[j - 1], im[j] = im[j], im[j - 1]
        inv[k - 1], inv[k] = inv[k], inv[k - 1]
        simples.append([im, inv])
        flip ^= l < 0
    trivial = list(range(n))
    factors: list = []
    for x in reversed(simples):
        factors.append(x)
        for i in range(len(factors) - 2, -1, -1):
            if not _slide(factors[i], factors[i + 1]):
                break
        if factors[-1][0] == trivial:
            factors.pop()
    lead, w0 = 0, trivial[::-1]
    while lead < len(factors) and factors[lead][0] == w0:
        lead += 1
    return lead - sum(1 for l in letters if l < 0), factors[lead:]


@dataclass(frozen=True)
class GarsideNormalForm:
    strands: int
    power: int  # exponent of the leading half twist
    factors: tuple[Permutation, ...]

    def canonical_length(self) -> int:
        return len(self.factors)


def garside_normal_form(w: BraidWord) -> GarsideNormalForm:
    power, factors = _garside(w.strands, w.letters)
    return GarsideNormalForm(w.strands, power, tuple(
        Permutation._trusted(tuple(v + 1 for v in im)) for im, _ in factors))


def _simple_letters(inverse: list[int]) -> list[int]:
    """A deterministic reduced word of a simple, read from its inverse
    list: strip the least left descent until none is left."""
    inv = inverse[:]
    out = []
    i, last = 0, len(inv) - 1
    while i < last:
        if inv[i] > inv[i + 1]:
            inv[i], inv[i + 1] = inv[i + 1], inv[i]
            out.append(i + 1)
            i = i - 1 if i else 0
        else:
            i += 1
    return out


@lru_cache(maxsize=None)
def _delta_letters(n: int) -> tuple[int, ...]:
    return tuple(_simple_letters(list(range(n - 1, -1, -1))))


def normal_form(w: BraidWord) -> BraidWord:
    """Canonical word: same letters for any two equal braids."""
    n = w.strands
    power, factors = _garside(n, w.letters)
    delta = _delta_letters(n)
    if power >= 0:
        letters = list(delta) * power
    else:
        letters = [-l for l in reversed(delta)] * -power
    for _, inv in factors:
        letters += _simple_letters(inv)
    return BraidWord._trusted(n, tuple(letters))


def braids_equal(u: BraidWord, v: BraidWord) -> bool:
    return u.strands == v.strands and \
        _garside(u.strands, u.letters) == _garside(v.strands, v.letters)


# -- cabling -------------------------------------------------------------


def block_transposition(strands: int, start: int, m: int, n: int) -> BraidWord:
    """The positive braid crossing the m strands at ``start..start+m-1`` over
    the n strands immediately to their right, preserving both blocks' internal
    order."""
    if start < 1 or start + m + n - 1 > strands:
        raise BraidError("block out of range")
    applied = []  # application order: rightmost left strand walks first
    for t in range(m):
        base = start + m - 1 - t
        applied.extend(range(base, base + n))
    return BraidWord(strands, tuple(reversed(applied)))


def cable_compose(outer: BraidWord, j: int, inner: BraidWord) -> BraidWord:
    """Replace strand j of ``outer`` by the ``inner.strands`` parallel strands
    carrying ``inner`` at the source end.

    Each outer letter becomes a block crossing whose widths are those of the
    strands *currently* at the crossed positions, so the running layout of
    block sizes is tracked in application order (rightmost letter first).  A
    negative letter is the inverse of the positive block crossing read from
    its own source, which has the two widths exchanged.
    """
    r, s = outer.strands, inner.strands
    if not 1 <= j <= r:
        raise BraidError(f"cable position {j} out of range for {r} strands")
    total = r + s - 1
    sizes = [s if i == j else 1 for i in range(1, r + 1)]
    chunks: list[tuple[int, ...]] = []
    for l in reversed(outer.letters):
        k = abs(l)
        start = 1 + sum(sizes[:k - 1])
        m, n = sizes[k - 1], sizes[k]
        if l > 0:
            chunks.append(block_transposition(total, start, m, n).letters)
        else:
            chunks.append(block_transposition(total, start, n, m).inverse().letters)
        sizes[k - 1], sizes[k] = sizes[k], sizes[k - 1]
    letters: list[int] = []
    for chunk in reversed(chunks):
        letters.extend(chunk)
    letters.extend(l + (j - 1) if l > 0 else l - (j - 1) for l in inner.letters)
    return BraidWord(total, tuple(letters))


def cable_permutation(pu: Permutation, j: int, pv: Permutation) -> Permutation:
    """Block substitution of permutations: the underlying permutation of the
    corresponding cabled braid."""
    r, s = pu.size, pv.size
    total = r + s - 1

    def start_in(i):
        return i + (s - 1 if i > j else 0)

    jout = pu(j)

    def start_out(i):
        return i + (s - 1 if i > jout else 0)

    out = [0] * total
    for i in range(1, r + 1):
        if i == j:
            for d in range(1, s + 1):
                out[start_in(i) + d - 2] = start_out(pu(i)) + pv(d) - 1
        else:
            out[start_in(i) - 1] = start_out(pu(i))
    return Permutation(tuple(out))
