"""Finite unordered unranked labeled trees with isomorphism-invariant identity.

Children form a multiset; construction normalizes their order by canonical
serialization, so two trees are equal exactly when they are isomorphic.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterator


def _serialize_label(label: Any) -> str:
    if isinstance(label, frozenset):
        return "{" + ",".join(sorted(_serialize_label(x) for x in label)) + "}"
    if isinstance(label, tuple):
        return "(" + ",".join(_serialize_label(x) for x in label) + ")"
    return repr(label)


@dataclass(frozen=True)
class LabeledTree:
    label: Any
    children: tuple = ()

    def __post_init__(self):
        kids = tuple(sorted(self.children, key=lambda c: c.canonical))
        object.__setattr__(self, "children", kids)
        ser = _serialize_label(self.label) + "[" + ";".join(c.canonical for c in kids) + "]"
        object.__setattr__(self, "_canonical", ser)

    @property
    def canonical(self) -> str:
        return self._canonical  # type: ignore[attr-defined]

    def __eq__(self, other):
        return isinstance(other, LabeledTree) and self.canonical == other.canonical

    def __hash__(self):
        return hash(self.canonical)

    def __repr__(self):
        return f"LabeledTree({self.canonical})"

    @property
    def size(self) -> int:
        return 1 + sum(c.size for c in self.children)

    @property
    def depth(self) -> int:
        return 0 if not self.children else 1 + max(c.depth for c in self.children)

    def nodes(self) -> Iterator["LabeledTree"]:
        """Preorder traversal (children in canonical order)."""
        yield self
        for c in self.children:
            yield from c.nodes()

    def map_labels(self, fn: Callable[[Any], Any]) -> "LabeledTree":
        return LabeledTree(fn(self.label), tuple(c.map_labels(fn) for c in self.children))


def tree(label: Any, children=()) -> LabeledTree:
    return LabeledTree(label, tuple(children))


def reduce_tree(t: LabeledTree) -> LabeledTree:
    """Remove duplicate isomorphic sibling subtrees, bottom-up."""
    reduced_children = []
    seen = set()
    for c in t.children:
        rc = reduce_tree(c)
        if rc.canonical not in seen:
            seen.add(rc.canonical)
            reduced_children.append(rc)
    return LabeledTree(t.label, tuple(reduced_children))


def node_ids(t: LabeledTree, prefix: str = "v") -> dict:
    """Stable ids for the nodes of a tree, by preorder over canonical order.

    Keys are node paths (tuples of child indices); values are names v0, v1, ...
    """
    ids = {}
    counter = 0

    def walk(node, path):
        nonlocal counter
        ids[path] = f"{prefix}{counter}"
        counter += 1
        for i, c in enumerate(node.children):
            walk(c, path + (i,))

    walk(t, ())
    return ids
