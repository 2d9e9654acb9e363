"""Finite unordered unranked labeled trees, reduced by construction.

Children form a set, so building a tree drops isomorphic duplicate siblings
bottom-up, and two trees are equal exactly when they are isomorphic.
"""
from __future__ import annotations

from typing import Any, NamedTuple


class Tree(NamedTuple):
    label: Any
    children: frozenset


def tree(label: Any, children=()) -> Tree:
    return Tree(label, frozenset(children))


def canonical(t: Tree) -> str:
    """A serialization that depends only on the isomorphism class: a stable
    order for emitting children."""
    kids = sorted(canonical(c) for c in t.children)
    return _serialize_label(t.label) + "[" + ";".join(kids) + "]"


def _serialize_label(label: Any) -> str:
    if isinstance(label, frozenset):
        return "{" + ",".join(sorted(_serialize_label(x) for x in label)) + "}"
    if isinstance(label, tuple):
        return "(" + ",".join(_serialize_label(x) for x in label) + ")"
    return repr(label)
