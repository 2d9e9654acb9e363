import random

from hypothesis import given, strategies as st

from syncsynth.trees import LabeledTree, node_ids, reduce_tree, tree


def is_reduced(t: LabeledTree) -> bool:
    """No node has two isomorphic children."""
    forms = [c.canonical for c in t.children]
    return len(forms) == len(set(forms)) and all(is_reduced(c) for c in t.children)


def label_paths(t: LabeledTree) -> set:
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


def test_duplicate_children_are_kept_as_multiset():
    t = tree("a", [tree("b"), tree("b")])
    assert t.size == 3
    assert t != tree("a", [tree("b")])


def test_reduce_duplicate_leaves():
    t = tree("a", [tree("b"), tree("b")])
    assert reduce_tree(t) == tree("a", [tree("b")])


def test_reduce_idempotent():
    t = tree("a", [tree("b", [tree("x"), tree("x")]), tree("b", [tree("x")])])
    r = reduce_tree(t)
    assert reduce_tree(r) == r
    assert is_reduced(r)
    # the two b-children collapse only after their own reduction
    assert r == tree("a", [tree("b", [tree("x")])])


def test_reduce_keeps_nonisomorphic_same_label_children():
    t = tree("a", [tree("b"), tree("b", [tree("c")])])
    assert reduce_tree(t) == t


def test_label_paths_preserved_by_reduce():
    t = tree("a", [tree("b", [tree("c")]), tree("b", [tree("c")]), tree("d")])
    assert label_paths(reduce_tree(t)) == label_paths(t)


def test_node_ids_preorder():
    t = tree("a", [tree("b"), tree("c")])
    ids = node_ids(t)
    assert ids[()] == "v0"
    assert len(ids) == 3


@st.composite
def random_tree(draw, depth=3):
    label = draw(st.sampled_from("abcd"))
    if depth == 0:
        return tree(label)
    n = draw(st.integers(min_value=0, max_value=3))
    return tree(label, [draw(random_tree(depth=depth - 1)) for _ in range(n)])


@given(random_tree())
def test_equality_invariant_under_child_permutation(t):
    rng = random.Random(0)

    def shuffled(node):
        kids = [shuffled(c) for c in node.children]
        rng.shuffle(kids)
        return LabeledTree(node.label, tuple(kids))

    assert shuffled(t) == t


@given(random_tree())
def test_reduce_sound(t):
    r = reduce_tree(t)
    assert is_reduced(r)
    assert label_paths(r) == label_paths(t)
