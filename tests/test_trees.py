import random
from typing import NamedTuple

from hypothesis import given, strategies as st

from syncsynth.trees import tree

from .conftest import tree_size


class Raw(NamedTuple):
    """A tree whose children form a multiset, as drawn: the input that
    building a tree reduces."""

    label: str
    children: tuple


def build(raw):
    return tree(raw.label, (build(c) for c in raw.children))


def canonical_form(t) -> tuple:
    """The isomorphism class of the reduced tree: label and the sorted set
    of the children's classes, coded independently of `trees`."""
    return (t.label, tuple(sorted({canonical_form(c) for c in t.children})))


def is_reduced(t) -> bool:
    """No node has two isomorphic children."""
    forms = [canonical_form(c) for c in t.children]
    return len(forms) == len(set(forms)) and all(is_reduced(c) for c in t.children)


def label_paths(t) -> set:
    """All root-to-node label sequences, as a set."""
    paths = set()

    def walk(node, prefix):
        cur = prefix + (node.label,)
        paths.add(cur)
        for c in node.children:
            walk(c, cur)

    walk(t, ())
    return paths


def test_equality_is_isomorphism_invariant():
    t1 = tree("a", [tree("b"), tree("c", [tree("d")])])
    t2 = tree("a", [tree("c", [tree("d")]), tree("b")])
    assert t1 == t2
    assert hash(t1) == hash(t2)


def test_reduce_duplicate_leaves():
    t = tree("a", [tree("b"), tree("b")])
    assert t == tree("a", [tree("b")])
    assert tree_size(t) == 2


def test_reduce_idempotent():
    t = tree("a", [tree("b", [tree("x"), tree("x")]), tree("b", [tree("x")])])
    assert tree(t.label, t.children) == t
    assert is_reduced(t)
    # the two b-children collapse only after their own reduction
    assert t == tree("a", [tree("b", [tree("x")])])
    assert tree_size(t) == 3


def test_reduce_keeps_nonisomorphic_same_label_children():
    t = tree("a", [tree("b"), tree("b", [tree("c")])])
    assert len(t.children) == 2
    assert tree_size(t) == 4


def test_label_paths_preserved_by_reduce():
    raw = Raw("a", (Raw("b", (Raw("c", ()),)), Raw("b", (Raw("c", ()),)), Raw("d", ())))
    t = build(raw)
    assert label_paths(t) == label_paths(raw)
    assert tree_size(t) == 4


@st.composite
def random_tree(draw, depth=3):
    label = draw(st.sampled_from("abcd"))
    if depth == 0:
        return Raw(label, ())
    n = draw(st.integers(min_value=0, max_value=3))
    return Raw(label, tuple(draw(random_tree(depth=depth - 1)) for _ in range(n)))


@given(random_tree())
def test_equality_invariant_under_child_permutation(raw):
    rng = random.Random(0)

    def shuffled(node):
        kids = [shuffled(c) for c in node.children]
        rng.shuffle(kids)
        return Raw(node.label, tuple(kids))

    assert build(shuffled(raw)) == build(raw)


@given(random_tree(), random_tree())
def test_reduce_sound(raw, other):
    t = build(raw)
    assert is_reduced(t)
    assert label_paths(t) == label_paths(raw)
    assert canonical_form(t) == canonical_form(raw)
    assert (t == build(other)) == (canonical_form(raw) == canonical_form(other))
