"""Profiles: finite abstractions of the tape segment that runs ahead.

A segment's state transformation tree records how counterpart blocks of the
partner tape, of the same or smaller length and with a bounded number of
intermediate blocks of the segment's own tape, can consume it while jointly
transforming the target automaton and the canonical source automaton. One
`Profile` type serves both tapes: it bundles the reduced trees for every
state pair with the plain transformation functions, and output profiles also
carry annotated trees. Profiles of one tape form a finite monoid under
concatenation.

Tree nodes internally carry a kind tag: root, leaf (the segment consumed,
with a one-tape tail in the source), split (a partial block, whose children
are its intermediate blocks) or block. Public trees expose only state-pair
labels, so a split with no block to continue it reads there as a leaf.
`Profile` equality compares the enriched trees, so words whose public trees
agree but whose kinds differ keep distinct profiles; the closure counts, r1
and the computed block cap are all read off this finer equivalence.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from math import factorial
from typing import Sequence

from .automata import AutomatonError, CapExceeded, Dfa, strict_tape_closure
from .canonical import CanonicalDfa
from .letters import PARTNER, Letter, Tape, inp, out
from .trees import Tree, tree


class MixedTapes(AutomatonError):
    pass


# ---------------------------------------------------------------------------
# state transformation functions


def tau(w: Sequence[Letter], b: Dfa) -> tuple:
    """The automaton's transformation induced by a pure one-tape word: the
    sorted (state, state) pairs of a map into states, where a missing state
    means the run dies."""
    tapes = {l.tape for l in w}
    if len(tapes) > 1:
        raise MixedTapes("state transformation functions need a single-tape word")
    runs = ((p, b.run(w, start=p)) for p in sorted(b.states))
    return tuple((p, q) for p, q in runs if q is not None)


def _letters(word: Sequence[str], tape: Tape) -> tuple:
    return tuple(Letter(tape, s) for s in word)


# ---------------------------------------------------------------------------
# shared context

ROOT, LEAF, MID, BLOCK = "R", "L", "M", "B"


class _Ctx:
    """Helpers bound to one (canonical source, target) pair of automata."""

    def __init__(self, a: CanonicalDfa, b: Dfa):
        self.a = a.dfa
        self.b = b
        self.syms = {
            Tape.INPUT: sorted(set(self.a.input_alphabet) | set(b.input_alphabet)),
            Tape.OUTPUT: sorted(set(self.a.output_alphabet) | set(b.output_alphabet)),
        }
        # per tape and state, the target states reachable via nonempty words of that tape
        self.closure = {tape: strict_tape_closure(b, tape) for tape in Tape}
        self._mid_cache: dict = {}
        self._public_cache: dict = {}

    def pair_frontiers(self, x: tuple, p: str, q: str, tape: Tape) -> list:
        """Sets of (target state, source state) after t interleaved rounds.

        Round t pairs x's t-th letter with a partner-tape symbol that both
        automata accept; the target reads only the partner letter, the
        source reads the round input letter first.
        """
        partner = PARTNER[tape]
        others = [Letter(partner, s) for s in self.syms[partner]]
        frontiers = [{(p, q)}]
        for sym in x:
            own = Letter(tape, sym)
            nxt = set()
            for (pb, qa) in frontiers[-1]:
                for other in others:
                    p2 = self.b.delta(pb, other)
                    if p2 is None:
                        continue
                    q2 = self.a.run((own, other) if tape is Tape.INPUT else (other, own), start=qa)
                    if q2 is not None:
                        nxt.add((p2, q2))
            frontiers.append(nxt)
        return frontiers

    def stt_enriched(self, x: tuple, p: str, q: str, i: int, tape: Tape) -> Tree:
        frontiers = self.pair_frontiers(x, p, q, tape)
        leaves = set()
        for t in range(1, len(x) + 1):
            for (pb, qa) in frontiers[t]:
                # the source reads the rest of the segment as a one-tape tail
                q_tail = self.a.run(_letters(x[t:], tape), start=qa)
                if q_tail is not None:
                    leaves.add((pb, q_tail))
        children = [tree((LEAF, pb, qa)) for pb, qa in leaves]
        if i > 0:
            for t in range(1, len(x)):
                for (pb, qa) in frontiers[t]:
                    children.append(self.mid_enriched(x[t:], pb, qa, i, tape))
        return tree((ROOT, p, q), children)

    def mid_enriched(self, rest: tuple, pb: str, qa: str, i: int, tape: Tape) -> Tree:
        """One split entry: the partial-block node with its intermediate-block
        children, each rooting the tree of the remaining segment at budget i-1."""
        key = (rest, pb, qa, i, tape)
        if key not in self._mid_cache:
            block_kids = []
            for p2 in self.closure[tape][pb]:
                sub = self.stt_enriched(rest, p2, qa, i - 1, tape)
                block_kids.append(tree((BLOCK, p2, qa), sub.children))
            self._mid_cache[key] = tree((MID, pb, qa), block_kids)
        return self._mid_cache[key]

    def public(self, t: Tree) -> Tree:
        """The public form of an enriched tree, each label cut to its state
        pair. It is built once per subtree, so the MID subtrees that
        `mid_enriched`'s cache shares are stripped once each."""
        if t not in self._public_cache:
            self._public_cache[t] = tree(t.label[1:3], map(self.public, t.children))
        return self._public_cache[t]


def input_stt(x, p: str, q: str, i: int, a: CanonicalDfa, b: Dfa) -> Tree:
    """Tree of joint state transformations of an input segment against output
    counterparts built from at most i+1 output blocks."""
    ctx = _Ctx(a, b)
    return ctx.public(ctx.stt_enriched(tuple(x), p, q, i, Tape.INPUT))


# ---------------------------------------------------------------------------
# annotated output trees
#
# An annotated node names a node of the public reference tree by its path of
# subtrees: the children taken from the root down to it. Siblings differ, so
# the path is unique.


class _AnnBuilder:
    """Builds annotated output trees over a fixed public reference tree."""

    def __init__(self, ctx: _Ctx, ref: Tree):
        self.ctx = ctx
        self.ref = ref

    def build(self, y: tuple, p: str, q: str, i: int, ref_path: tuple) -> Tree:
        ctx = self.ctx
        ref_node = ref_path[-1] if ref_path else self.ref
        if ref_node.label != (p, q):
            raise ValueError(f"the reference node is labeled {ref_node.label}, not {(p, q)}")
        # DP over witness input words: (B state, balanced source state, prefix targets)
        frontier = {(p, q, frozenset())}
        leaf_entries = set()
        mid_entries = set()
        for t in range(1, len(y) + 1):
            nxt = set()
            for (pb, qa, targets) in frontier:
                for s in ctx.syms[Tape.INPUT]:
                    pb2 = ctx.b.delta(pb, inp(s))
                    qa2 = ctx.a.run((inp(s), out(y[t - 1])), start=qa)
                    if pb2 is None or qa2 is None:
                        continue
                    # this prefix as a full traversal of y (output tail included);
                    # a dead tail (q_leaf None) matches no child
                    q_leaf = ctx.a.run(_letters(y[t:], Tape.OUTPUT), start=qa2)
                    leaf = tree((pb2, q_leaf))
                    leaf_path = ref_path + (leaf,) if leaf in ref_node.children else None
                    # this prefix as a balanced split (more blocks to come)
                    mid_path = None
                    if i > 0 and t < len(y):
                        mid = ctx.public(ctx.mid_enriched(y[t:], pb2, qa2, i, Tape.OUTPUT))
                        mid_path = ref_path + (mid,) if mid in ref_node.children else None
                    fro = targets | {path for path in (leaf_path, mid_path) if path is not None}
                    if leaf_path is not None:
                        leaf_entries.add((pb2, q_leaf, leaf_path, fro))
                    if mid_path is not None:
                        mid_entries.add((y[t:], pb2, qa2, mid_path, fro))
                    nxt.add((pb2, qa2, fro))
            frontier = nxt
        children = [tree(entry) for entry in leaf_entries]
        for (rest, pb, qa, mid_path, targets) in mid_entries:
            # a block child is the one child of its MID node with its label
            blocks = {c.label: c for c in mid_path[-1].children}
            block_kids = [
                self.build(rest, p2, qa, i - 1, mid_path + (blocks[(p2, qa)],))
                for p2 in ctx.closure[Tape.OUTPUT][pb]
                if (p2, qa) in blocks
            ]
            children.append(tree((pb, qa, mid_path, targets), block_kids))
        return tree((p, q, ref_path), children)


# ---------------------------------------------------------------------------
# profiles


@dataclass(frozen=True)
class Profile:
    tape: Tape
    depth: int
    tf: tuple  # the target automaton's transform, by `tau`
    pure: tuple  # the source automaton's pure one-tape transform, by `tau`
    trees: tuple  # sorted ((p, q), enriched tree); its kind tags tell a childless split from a leaf
    ann_trees: tuple  # sorted ((p, q), public annotated tree); () for input words


def _profile(word, n: int, ctx: _Ctx, tape: Tape) -> Profile:
    word = tuple(word)
    m = (n + 1) // 2
    trees = []
    ann_trees = []
    for p in sorted(ctx.b.states):
        for q in sorted(ctx.a.states):
            enr = ctx.stt_enriched(word, p, q, m, tape)
            trees.append(((p, q), enr))
            if tape is Tape.OUTPUT:
                builder = _AnnBuilder(ctx, ctx.public(enr))
                ann_trees.append(((p, q), builder.build(word, p, q, m, ())))
    letters = _letters(word, tape)
    return Profile(
        tape=tape,
        depth=m,
        tf=tau(letters, ctx.b),
        pure=tau(letters, ctx.a),
        trees=tuple(trees),
        ann_trees=tuple(ann_trees),
    )


# ---------------------------------------------------------------------------
# closures and bounds


@dataclass(frozen=True)
class ProfileClosure:
    profiles: tuple
    reps: tuple
    max_rep_length: int


CLOSURE_CAP = 512  # the most profiles a closure may hold


def profile_closure(n: int, a: CanonicalDfa, b: Dfa, tape: Tape) -> ProfileClosure:
    """Breadth-first closure of the profile monoid of one tape, by letter
    extension; returns all profiles plus the longest shortest representative.
    Growing past `CLOSURE_CAP` profiles, read at each call, raises
    `CapExceeded`."""
    ctx = _Ctx(a, b)
    symbols = ctx.syms[tape]
    make = lambda w: _profile(w, n, ctx, tape)
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
            if len(seen) >= CLOSURE_CAP:
                raise CapExceeded(
                    f"closure cap: the {tape.name.lower()} profile closure exceeded "
                    f"{CLOSURE_CAP} profiles (profiles.CLOSURE_CAP)"
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
    # the closures the bound was read from, for callers that report them
    input_closure: ProfileClosure = field(repr=False)
    output_closure: ProfileClosure = field(repr=False)

    @property
    def k(self) -> int:
        return self.r1 + self.r2

    @property
    def input_profile_count(self) -> int:
        return len(self.input_closure.profiles)

    @property
    def output_profile_count(self) -> int:
        return len(self.output_closure.profiles)


def compute_k(n: int, gamma: int, a: CanonicalDfa, b: Dfa) -> KBound:
    """k = r1 + r2: the Ramsey bound over input profiles plus the longest
    shortest representative of output profiles, both clamped above gamma."""
    input_closure = profile_closure(n, a, b, Tape.INPUT)
    output_closure = profile_closure(n, a, b, Tape.OUTPUT)
    return KBound(
        r1=max(ramsey_bound(len(input_closure.profiles)), gamma + 1),
        r2=max(output_closure.max_rep_length, gamma + 1),
        input_closure=input_closure,
        output_closure=output_closure,
    )
