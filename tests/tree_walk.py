"""The tree-walking oracle for words of generator letters.

It applies one letter at a time to a tree of group elements, with the
rewrites of ``relations._rewrite`` and label arithmetic on the elements
themselves, and re-checks the braid against ``normalize`` on the real
trees.  The package evaluates words on traced index programs instead
(``relations._Program``); the tests compare the two.
"""
import operator

from gbraids import relations
from gbraids.braids import BraidWord
from gbraids.groups import GroupElement
from gbraids.hurwitz import braid_act
from gbraids.relations import InterpretedMorphism, RelationError
from gbraids.trees import (leaf_count, normalize, output_color, replace_at,
                           subtree_at)


class Elements:
    """The label arithmetic of ``_rewrite`` on trees of one group's
    elements; an equality a letter needs raises :class:`RelationError` when
    it fails."""
    mul, inv = staticmethod(operator.mul), staticmethod(GroupElement.inverse)

    def __init__(self, group):
        self.group, self.unit = group, group.identity

    def out(self, t):
        return output_color(t, self.group)

    @staticmethod
    def require(x, y, message):
        if x is not y:
            raise RelationError(message)


def apply_generator(tree, letter, group, flip_braiding=False):
    """``tree`` with ``letter`` applied."""
    sub = subtree_at(tree, letter.path)
    return replace_at(tree, letter.path, relations._rewrite(
        sub, letter, flip_braiding, Elements(group)))


def walk_morphism(source, word, group, mutate=None):
    """Apply the letters one by one, then check that the braid carries the
    source normal form to the target's; the first failure raises."""
    flip, current, written = relations._flip(mutate), source, []
    for letter in word.letters:
        after = apply_generator(current, letter, group, flip)
        if letter.gen == "c":
            # read through the module, so that a patched shadow applies
            written[:0] = relations._c_braid_letters(current, letter, flip)
        current = after
    braid = BraidWord(leaf_count(source), tuple(written))
    source_nf, target_nf = normalize(source, group), normalize(current, group)
    if braid.strands > 0 and braid_act(braid, source_nf) != target_nf:
        raise RelationError(relations._INCONSISTENT)
    return InterpretedMorphism(source, current, braid)
