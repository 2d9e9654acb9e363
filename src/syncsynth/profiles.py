"""Profiles: finite abstractions of the tape segment that runs ahead.

An input segment's state transformation tree records how counterpart
output blocks of the same or smaller length, with a bounded number of
intermediate input blocks, can consume it while jointly transforming the
target automaton and the canonical source automaton. Profiles bundle the
reduced trees for every state pair with the plain transformation function
and form finite monoids under concatenation.

Tree nodes internally carry bookkeeping (how a leaf consumed the segment:
exactly, or with a trailing one-tape run; plus the pure-run transforms)
that concatenation needs; public trees expose only state-pair labels.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from math import factorial
from typing import Optional, Sequence

from .automata import AutomatonError, Dfa, tape_closure
from .canonical import CanonicalDfa
from .letters import Letter, Tape, inp, out
from .trees import LabeledTree, node_ids, reduce_tree, tree


class MixedTapes(AutomatonError):
    pass


class ClosureCapExceeded(RuntimeError):
    pass


class ParameterMismatch(ValueError):
    pass


# ---------------------------------------------------------------------------
# state transformation functions


@dataclass(frozen=True)
class StateTransformationFn:
    """Map into states-or-bottom; bottom (missing key) absorbs under composition."""

    mapping: tuple  # sorted (state, state) pairs

    @classmethod
    def from_dict(cls, d: dict) -> "StateTransformationFn":
        return cls(tuple(sorted((k, v) for k, v in d.items() if v is not None)))

    @classmethod
    def identity(cls, states) -> "StateTransformationFn":
        return cls(tuple(sorted((q, q) for q in states)))

    def as_dict(self) -> dict:
        return dict(self.mapping)

    def __call__(self, state):
        return self.as_dict().get(state)

    def then(self, other: "StateTransformationFn") -> "StateTransformationFn":
        second = other.as_dict()
        return StateTransformationFn.from_dict({p: second.get(q) for p, q in self.mapping})


def tau(w: Sequence[Letter], b: Dfa) -> StateTransformationFn:
    """The target automaton's transformation induced by a pure one-tape word."""
    tapes = {l.tape for l in w}
    if len(tapes) > 1:
        raise MixedTapes("state transformation functions need a single-tape word")
    return StateTransformationFn.from_dict({p: b.run(w, start=p) for p in sorted(b.states)})


# ---------------------------------------------------------------------------
# shared context

ROOT, LEAF, MID, BLOCK = "R", "L", "M", "B"


class _Ctx:
    """Helpers bound to one (canonical source, target) pair of automata."""

    def __init__(self, a: CanonicalDfa, b: Dfa):
        self.a = a.dfa if isinstance(a, CanonicalDfa) else a
        self.b = b
        self.in_syms = sorted(set(self.a.input_alphabet) | set(b.input_alphabet))
        self.out_syms = sorted(set(self.a.output_alphabet) | set(b.output_alphabet))
        self.b_in_closure = self._closure(b, Tape.INPUT)
        self.b_out_closure = self._closure(b, Tape.OUTPUT)
        self._mid_cache: dict = {}

    @staticmethod
    def _closure(b: Dfa, tape: Tape) -> dict:
        """Per state, the states reachable via nonempty words of one tape."""
        reach = tape_closure(b, tape)
        return {
            p: frozenset(r for letter, q in b.out_edges(p) if letter.tape is tape for r in reach[q])
            for p in b.states
        }

    def a_tail_run(self, q: Optional[str], syms, flip: bool) -> Optional[str]:
        if q is None:
            return None
        letters = tuple((out(s) if flip else inp(s)) for s in syms)
        return self.a.run(letters, start=q)

    def alpha(self, syms) -> StateTransformationFn:
        """Pure-input transform of the canonical source automaton."""
        return StateTransformationFn.from_dict(
            {q: self.a.run(tuple(inp(s) for s in syms), start=q) for q in sorted(self.a.states)}
        )

    def beta(self, syms) -> StateTransformationFn:
        """Pure-output transform of the canonical source automaton."""
        return StateTransformationFn.from_dict(
            {q: self.a.run(tuple(out(s) for s in syms), start=q) for q in sorted(self.a.states)}
        )

    def pair_frontiers(self, x: tuple, p: str, q: str, flip: bool) -> list:
        """Sets of (target state, source state) after t interleaved rounds.

        flip=False: rounds pair x's inputs with enumerated output symbols
        that both automata accept; flip=True swaps the roles.
        """
        frontiers = [{(p, q)}]
        cur = {(p, q)}
        for t in range(len(x)):
            nxt = set()
            for (pb, qa) in cur:
                if not flip:
                    q1 = self.a.delta(qa, inp(x[t]))
                    if q1 is None:
                        continue
                    for o in self.out_syms:
                        q2 = self.a.delta(q1, out(o))
                        p2 = self.b.delta(pb, out(o))
                        if q2 is not None and p2 is not None:
                            nxt.add((p2, q2))
                else:
                    for s in self.in_syms:
                        q1 = self.a.delta(qa, inp(s))
                        p2 = self.b.delta(pb, inp(s))
                        if q1 is None or p2 is None:
                            continue
                        q2 = self.a.delta(q1, out(x[t]))
                        if q2 is not None:
                            nxt.add((p2, q2))
            frontiers.append(nxt)
            cur = nxt
        return frontiers

    def stt_enriched(self, x: tuple, p: str, q: str, i: int, flip: bool) -> LabeledTree:
        frontiers = self.pair_frontiers(x, p, q, flip)
        leaves: dict = {}
        for t in range(1, len(x) + 1):
            for (pb, qa) in frontiers[t]:
                if t == len(x):
                    leaves.setdefault((pb, qa), [False, False])[0] = True
                else:
                    q_tail = self.a_tail_run(qa, x[t:], flip)
                    if q_tail is not None:
                        leaves.setdefault((pb, q_tail), [False, False])[1] = True
        children = [
            tree((LEAF, pb, qa, full, tail))
            for (pb, qa), (full, tail) in sorted(leaves.items())
        ]
        if i > 0:
            for t in range(1, len(x)):
                for (pb, qa) in sorted(frontiers[t]):
                    children.append(self.mid_enriched(x[t:], pb, qa, i, flip))
        return tree((ROOT, p, q), children)

    def mid_enriched(self, rest: tuple, pb: str, qa: str, i: int, flip: bool) -> LabeledTree:
        """One split entry: the partial-block node with its intermediate-block
        children, each rooting the tree of the remaining segment at budget i-1."""
        key = (rest, pb, qa, i, flip)
        if key not in self._mid_cache:
            closure = self.b_out_closure if flip else self.b_in_closure
            block_kids = []
            for p2 in sorted(closure[pb]):
                sub = self.stt_enriched(rest, p2, qa, i - 1, flip)
                block_kids.append(tree((BLOCK, p2, qa), sub.children))
            self._mid_cache[key] = tree((MID, pb, qa), block_kids)
        return self._mid_cache[key]


def _strip(t: LabeledTree) -> LabeledTree:
    return t.map_labels(lambda lab: (lab[1], lab[2]))


def input_stt(x, p: str, q: str, i: int, a: CanonicalDfa, b: Dfa) -> LabeledTree:
    """Tree of joint state transformations of an input segment against output
    counterparts built from at most i+1 output blocks."""
    return _strip(_Ctx(a, b).stt_enriched(tuple(x), p, q, i, flip=False))


def output_stt(y, p: str, q: str, i: int, a: CanonicalDfa, b: Dfa) -> LabeledTree:
    """Dual tree for an output segment against input counterparts."""
    return _strip(_Ctx(a, b).stt_enriched(tuple(y), p, q, i, flip=True))


# ---------------------------------------------------------------------------
# annotated output trees


def _node_at(t: LabeledTree, path: tuple) -> LabeledTree:
    for idx in path:
        t = t.children[idx]
    return t


def _child_index_by_subtree(node: LabeledTree, expected: LabeledTree) -> Optional[int]:
    for k, child in enumerate(node.children):
        if child == expected:
            return k
    return None


class _AnnBuilder:
    """Builds annotated output trees over a fixed public reduced reference."""

    def __init__(self, ctx: _Ctx, ref: LabeledTree):
        self.ctx = ctx
        self.ref = ref
        self.ids = node_ids(ref)

    def leaf_expected(self, pb: str, q_leaf: str) -> LabeledTree:
        return tree((pb, q_leaf))

    def mid_expected(self, rest: tuple, pb: str, qa: str, i: int) -> LabeledTree:
        return reduce_tree(_strip(self.ctx.mid_enriched(rest, pb, qa, i, flip=True)))

    def build(self, y: tuple, p: str, q: str, i: int, ref_path: tuple) -> LabeledTree:
        ctx = self.ctx
        ref_node = _node_at(self.ref, ref_path)
        if ref_node.label != (p, q):
            raise ValueError(f"reference node {ref_path} is labeled {ref_node.label}, not {(p, q)}")
        # DP over witness input words: (B state, balanced source state, prefix targets)
        frontier = {(p, q, frozenset())}
        leaf_entries = set()
        mid_entries = {}
        for t in range(1, len(y) + 1):
            nxt = set()
            for (pb, qa, targets) in frontier:
                for s in ctx.in_syms:
                    pb2 = ctx.b.delta(pb, inp(s))
                    q1 = ctx.a.delta(qa, inp(s))
                    qa2 = ctx.a.delta(q1, out(y[t - 1])) if q1 is not None else None
                    if pb2 is None or qa2 is None:
                        continue
                    new_targets = set(targets)
                    # this prefix as a full traversal of y (output tail included)
                    q_leaf = ctx.a_tail_run(qa2, y[t:], flip=True)
                    leaf_idx = None
                    if q_leaf is not None:
                        leaf_idx = _child_index_by_subtree(
                            ref_node, self.leaf_expected(pb2, q_leaf)
                        )
                        if leaf_idx is not None:
                            new_targets.add(self.ids[ref_path + (leaf_idx,)])
                    # this prefix as a balanced split (more blocks to come)
                    mid_idx = None
                    if i > 0 and t < len(y):
                        mid_idx = _child_index_by_subtree(
                            ref_node, self.mid_expected(y[t:], pb2, qa2, i)
                        )
                        if mid_idx is not None:
                            new_targets.add(self.ids[ref_path + (mid_idx,)])
                    fro = frozenset(new_targets)
                    if leaf_idx is not None:
                        leaf_entries.add((pb2, q_leaf, self.ids[ref_path + (leaf_idx,)], fro))
                    if i > 0 and t < len(y) and mid_idx is not None:
                        key = (y[t:], pb2, qa2, ref_path + (mid_idx,), fro)
                        mid_entries[key] = True
                    nxt.add((pb2, qa2, fro))
            frontier = nxt
        children = [
            tree((LEAF, pb, q_leaf, vid, targets))
            for (pb, q_leaf, vid, targets) in sorted(leaf_entries, key=repr)
        ]
        for (rest, pb, qa, mid_path, targets) in sorted(mid_entries, key=repr):
            mid_node = _node_at(self.ref, mid_path)
            block_kids = []
            for p2 in sorted(ctx.b_out_closure[pb]):
                idx = _child_index_by_subtree_label(mid_node, (p2, qa))
                if idx is None:
                    continue
                block_kids.append(self.build(rest, p2, qa, i - 1, mid_path + (idx,)))
            children.append(
                tree((MID, pb, qa, self.ids[mid_path], targets), tuple(block_kids))
            )
        return tree((ROOT, p, q, self.ids[ref_path]), tuple(children))


def _child_index_by_subtree_label(node: LabeledTree, label) -> Optional[int]:
    for k, child in enumerate(node.children):
        if child.label == label:
            return k
    return None


def _strip_ann(t: LabeledTree) -> LabeledTree:
    def conv(node: LabeledTree) -> LabeledTree:
        lab = node.label
        if lab[0] == ROOT:
            new = (lab[1], lab[2], lab[3])
        else:
            new = (lab[1], lab[2], lab[3], lab[4])
        return LabeledTree(new, tuple(conv(c) for c in node.children))

    return conv(t)


def annotated_output_stt(y, p: str, q: str, i: int, a: CanonicalDfa, b: Dfa) -> LabeledTree:
    """Annotated output tree: nodes carry the reference-tree node reached and
    the set of reference nodes reached by prefixes of the witness input."""
    ctx = _Ctx(a, b)
    y = tuple(y)
    ref = reduce_tree(_strip(ctx.stt_enriched(y, p, q, i, flip=True)))
    builder = _AnnBuilder(ctx, ref)
    return _strip_ann(builder.build(y, p, q, i, ()))


# ---------------------------------------------------------------------------
# profiles


@dataclass(frozen=True)
class InputProfile:
    depth: int
    tf: StateTransformationFn
    pure: StateTransformationFn  # source automaton's pure-input transform
    trees: tuple  # sorted ((p, q), enriched reduced tree)
    rep: tuple = field(compare=False)
    ctx: object = field(compare=False, repr=False)

    @property
    def is_identity(self) -> bool:
        qb = sorted(self.ctx.b.states)
        qa = sorted(self.ctx.a.states)
        return (
            self.tf == StateTransformationFn.identity(qb)
            and self.pure == StateTransformationFn.identity(qa)
            and all(not t.children for _, t in self.trees)
        )


@dataclass(frozen=True)
class OutputProfile:
    depth: int
    tf: StateTransformationFn
    pure: StateTransformationFn  # source automaton's pure-output transform
    trees: tuple
    ann_trees: tuple  # sorted ((p, q), reduced public annotated tree)
    rep: tuple = field(compare=False)
    ctx: object = field(compare=False, repr=False)

    @property
    def is_identity(self) -> bool:
        qb = sorted(self.ctx.b.states)
        qa = sorted(self.ctx.a.states)
        return (
            self.tf == StateTransformationFn.identity(qb)
            and self.pure == StateTransformationFn.identity(qa)
            and all(not t.children for _, t in self.trees)
        )


def _depth_for(n: int) -> int:
    return (n + 1) // 2


def input_profile(x, n: int, a: CanonicalDfa, b: Dfa, ctx: Optional[_Ctx] = None) -> InputProfile:
    ctx = ctx or _Ctx(a, b)
    x = tuple(x)
    m = _depth_for(n)
    trees = tuple(
        ((p, q), reduce_tree(ctx.stt_enriched(x, p, q, m, flip=False)))
        for p in sorted(ctx.b.states)
        for q in sorted(ctx.a.states)
    )
    tf = StateTransformationFn.from_dict(
        {p: ctx.b.run(tuple(inp(s) for s in x), start=p) for p in sorted(ctx.b.states)}
    )
    return InputProfile(depth=m, tf=tf, pure=ctx.alpha(x), trees=trees, rep=x, ctx=ctx)


def output_profile(y, n: int, a: CanonicalDfa, b: Dfa, ctx: Optional[_Ctx] = None) -> OutputProfile:
    ctx = ctx or _Ctx(a, b)
    y = tuple(y)
    m = _depth_for(n)
    trees = []
    ann_trees = []
    for p in sorted(ctx.b.states):
        for q in sorted(ctx.a.states):
            enr = ctx.stt_enriched(y, p, q, m, flip=True)
            trees.append(((p, q), reduce_tree(enr)))
            ref = reduce_tree(_strip(enr))
            builder = _AnnBuilder(ctx, ref)
            ann = _strip_ann(builder.build(y, p, q, m, ()))
            ann_trees.append(((p, q), reduce_tree(ann)))
    tf = StateTransformationFn.from_dict(
        {p: ctx.b.run(tuple(out(s) for s in y), start=p) for p in sorted(ctx.b.states)}
    )
    return OutputProfile(
        depth=m, tf=tf, pure=ctx.beta(y), trees=tuple(trees), ann_trees=tuple(ann_trees), rep=y, ctx=ctx
    )


# ---------------------------------------------------------------------------
# concatenation


def _merge_leaf_children(children) -> tuple:
    """Merge duplicate leaf entries per state pair, OR-ing their flags."""
    leaves: dict = {}
    rest = []
    for c in children:
        if c.label[0] == LEAF:
            _, p, q, full, tail = c.label
            flags = leaves.setdefault((p, q), [False, False])
            flags[0] |= full
            flags[1] |= tail
        else:
            rest.append(c)
    merged = [tree((LEAF, p, q, f, t)) for (p, q), (f, t) in sorted(leaves.items())]
    return tuple(merged + rest)


def _trunc_children(children, blocks: int) -> tuple:
    """Cut a stored tree down to a smaller block budget."""
    if blocks <= 0:
        return ()
    out = []
    for c in children:
        if c.label[0] == LEAF:
            out.append(c)
        elif blocks >= 2:
            block_kids = tuple(
                tree(u.label, _trunc_children(u.children, blocks - 1)) for u in c.children
            )
            out.append(tree(c.label, block_kids))
    return tuple(out)


def _splice_children(children, blocks: int, p2: InputProfile, ctx: _Ctx) -> tuple:
    p2trees = dict(p2.trees)
    out = []
    for v in children:
        kind = v.label[0]
        if kind == LEAF:
            _, p, q, full, tail = v.label
            q_ext = p2.pure(q)
            if q_ext is not None:
                out.append(tree((LEAF, p, q_ext, False, True)))
            if full:
                # extend the last output block across the boundary
                out.extend(_trunc_children(p2trees[(p, q)].children, blocks))
                # or start a fresh input block, then consume the second word
                if blocks >= 2:
                    block_kids = []
                    for p3 in sorted(ctx.b_in_closure[p]):
                        block_kids.append(
                            tree(
                                (BLOCK, p3, q),
                                _trunc_children(p2trees[(p3, q)].children, blocks - 1),
                            )
                        )
                    out.append(tree((MID, p, q), tuple(block_kids)))
        else:  # MID
            block_kids = tuple(
                tree(u.label, _splice_children(u.children, blocks - 1, p2, ctx))
                for u in v.children
            )
            out.append(tree(v.label, block_kids))
    return _merge_leaf_children(out)


def concat_profiles(p1, p2):
    """Profile of any concatenation of representatives, computed from the
    profiles themselves (for input profiles, by the leaf-splice; for output
    profiles, by direct recomputation on concatenated representatives)."""
    if type(p1) is not type(p2) or p1.depth != p2.depth or p1.ctx.a != p2.ctx.a or p1.ctx.b != p2.ctx.b:
        raise ParameterMismatch("profiles come from different settings")
    if p1.is_identity:
        return p2
    if p2.is_identity:
        return p1
    ctx = p1.ctx
    if isinstance(p1, OutputProfile):
        return output_profile(p1.rep + p2.rep, 2 * p1.depth - 1, None, None, ctx=ctx)
    m = p1.depth
    trees = []
    for (pq, t) in p1.trees:
        spliced = _splice_children(t.children, m + 1, p2, ctx)
        trees.append((pq, reduce_tree(tree((ROOT,) + pq, spliced))))
    return InputProfile(
        depth=m,
        tf=p1.tf.then(p2.tf),
        pure=p1.pure.then(p2.pure),
        trees=tuple(trees),
        rep=p1.rep + p2.rep,
        ctx=ctx,
    )


# ---------------------------------------------------------------------------
# idempotent factors, closures, bounds


def find_idempotent_factor(x, n: int, a: CanonicalDfa, b: Dfa) -> Optional[tuple]:
    """First (i, j), 1-indexed inclusive and shortest, with an idempotent factor."""
    x = tuple(x)
    ctx = _Ctx(a, b)
    cache: dict = {}

    def prof(word):
        if word not in cache:
            cache[word] = input_profile(word, n, a, b, ctx=ctx)
        return cache[word]

    for length in range(1, len(x) + 1):
        for start in range(0, len(x) - length + 1):
            f = x[start : start + length]
            if prof(f) == prof(f + f):
                return (start + 1, start + length)
    return None


@dataclass(frozen=True)
class ProfileClosure:
    profiles: tuple
    reps: tuple
    max_rep_length: int


def profile_closure(
    n: int, a: CanonicalDfa, b: Dfa, tape: Tape, cap: int
) -> ProfileClosure:
    """Breadth-first closure of the profile monoid of one tape, by letter
    extension; returns all profiles plus the longest shortest representative."""
    ctx = _Ctx(a, b)
    if tape is Tape.INPUT:
        symbols = ctx.in_syms
        make = lambda w: input_profile(w, n, a, b, ctx=ctx)
    else:
        symbols = ctx.out_syms
        make = lambda w: output_profile(w, n, a, b, ctx=ctx)
    start = make(())
    seen = {start: ()}
    queue = [()]
    while queue:
        word = queue.pop(0)
        for s in symbols:
            candidate = word + (s,)
            profile = make(candidate)
            if profile in seen:
                continue
            if len(seen) >= cap:
                raise ClosureCapExceeded(
                    f"profile closure exceeded {cap} profiles; raise the cap to proceed"
                )
            seen[profile] = candidate
            queue.append(candidate)
    return ProfileClosure(
        profiles=tuple(seen),
        reps=tuple(seen.values()),
        max_rep_length=max(len(r) for r in seen.values()),
    )


def ramsey_bound(colors: int) -> int:
    """Upper bound for the triangle Ramsey number with this many colors,
    floor(e * c!) + 1 computed exactly as sum_{k<=c} c!/k! + 1."""
    c = colors
    return sum(factorial(c) // factorial(k) for k in range(c + 1)) + 1


@dataclass(frozen=True)
class KBound:
    r1: int
    r2: int
    input_profile_count: int
    output_profile_count: int
    r1_raw: int
    r2_raw: int
    # the closures the bound was read from, for callers that report them
    input_closure: Optional[ProfileClosure] = field(default=None, repr=False, compare=False)
    output_closure: Optional[ProfileClosure] = field(default=None, repr=False, compare=False)

    @property
    def k(self) -> int:
        return self.r1 + self.r2


def compute_k(n: int, gamma: int, a: CanonicalDfa, b: Dfa, closure_cap: int) -> KBound:
    """k = r1 + r2: the Ramsey bound over input profiles plus the longest
    shortest representative of output profiles, both clamped above gamma."""
    input_closure = profile_closure(n, a, b, Tape.INPUT, cap=closure_cap)
    output_closure = profile_closure(n, a, b, Tape.OUTPUT, cap=closure_cap)
    r1_raw = ramsey_bound(len(input_closure.profiles))
    r2_raw = output_closure.max_rep_length
    return KBound(
        r1=max(r1_raw, gamma + 1),
        r2=max(r2_raw, gamma + 1),
        input_profile_count=len(input_closure.profiles),
        output_profile_count=len(output_closure.profiles),
        r1_raw=r1_raw,
        r2_raw=r2_raw,
        input_closure=input_closure,
        output_closure=output_closure,
    )
