"""Synchronization measures and finiteness analysis of regular tag languages.

A word's lag is the worst prefix imbalance between the tapes, a shift is a
position where the tape changes, and the shiftlag is the largest n such
that n consecutive shifts all happen at ≥n-lagged positions. Finiteness of
these measures over a language classifies which relations its controlled
synchronizations can define.
"""
from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from .automata import Nfa, explore_nfa, shortest_word, trim
from .letters import Letter, SyncWord, Tape


class BoundExhausted(RuntimeError):
    """No shiftlag witness, and no covering certificate within the bound."""


@dataclass(frozen=True)
class SyncMeasures:
    lag: int
    shift: int
    shiftlag: int


def _as_tags(w: Sequence) -> tuple[int, ...]:
    return tuple(int(l.tape) if isinstance(l, Letter) else int(l) for l in w)


def measures(w: Sequence) -> SyncMeasures:
    """Lag / shift / shiftlag of a single word (letters or raw tags)."""
    t = _as_tags(w)
    lag = 0
    cur = 0
    lag_at = [0]
    for tag in t:
        cur += 1 if tag == 1 else -1
        lag_at.append(abs(cur))
        lag = max(lag, abs(cur))
    shifts = [i + 1 for i in range(len(t) - 1) if t[i] != t[i + 1]]
    shift = len(shifts)
    shiftlag = 0
    for n in range(len(shifts), 0, -1):
        ok = any(
            all(lag_at[s] >= n for s in shifts[j : j + n])
            for j in range(len(shifts) - n + 1)
        )
        if ok:
            shiftlag = n
            break
    return SyncMeasures(lag=lag, shift=shift, shiftlag=shiftlag)


# ---------------------------------------------------------------------------
# graph helpers


def scc(nodes, succ) -> tuple[list[list], dict]:
    """Tarjan's algorithm, iterative. Returns components and node -> index."""
    index = {}
    low = {}
    on_stack = set()
    stack: list = []
    comps: list[list] = []
    comp_of: dict = {}
    counter = 0
    for root in nodes:
        if root in index:
            continue
        work = [(root, iter(succ(root)))]
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            node, it = work[-1]
            advanced = False
            for nxt in it:
                if nxt not in index:
                    index[nxt] = low[nxt] = counter
                    counter += 1
                    stack.append(nxt)
                    on_stack.add(nxt)
                    work.append((nxt, iter(succ(nxt))))
                    advanced = True
                    break
                if nxt in on_stack:
                    low[node] = min(low[node], index[nxt])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
            if low[node] == index[node]:
                comp = []
                while True:
                    item = stack.pop()
                    on_stack.discard(item)
                    comp.append(item)
                    comp_of[item] = len(comps)
                    if item == node:
                        break
                comps.append(comp)
    return comps, comp_of


def _bfs_word(a: Nfa, sources, targets, allowed=None) -> Optional[tuple[str, SyncWord]]:
    """Shortest word from any source to any target, entering only states in
    `allowed` when given; returns (source, word)."""
    targets = set(targets)
    found = shortest_word(
        sources,
        lambda p: [(l, q) for l, q in a.out_edges(p) if allowed is None or q in allowed],
        targets.__contains__,
    )
    return None if found is None else found[:2]


# ---------------------------------------------------------------------------
# shift finiteness


@dataclass(frozen=True)
class ShiftWitness:
    prefix: SyncWord
    cycle: SyncWord
    suffix: SyncWord


@dataclass(frozen=True)
class ShiftCertificate:
    finite: bool
    bound: Optional[int] = None
    witness: Optional[ShiftWitness] = None


def shift_finiteness(a: Nfa) -> ShiftCertificate:
    """Infinite iff a strongly connected component of the trimmed automaton
    has internal edges on both tapes: the cycle `_find_shift_cycle` finds
    there pumps, and the suffix opens with one turn of it, so that already the
    first pump adds a shift. Otherwise no cycle starts a run, and the bound is
    the most runs of an accepted word, less one."""
    t = trim(a)
    if not t.finals:
        return ShiftCertificate(finite=True, bound=0)
    for comp in scc(sorted(t.states), lambda p: [q for _, q in t.out_edges(p)])[0]:
        found = _find_shift_cycle(t, comp)
        if found is not None:
            start, cycle = found
            _, prefix = _bfs_word(t, [t.initial], [start])
            _, suffix = _bfs_word(t, [start], t.finals)
            return ShiftCertificate(finite=False, witness=ShiftWitness(prefix, cycle, cycle + suffix))
    runs = most_counted(t, math.inf, run_starts)[t.initial, None]
    return ShiftCertificate(finite=True, bound=max(runs - 1, 0))


# ---------------------------------------------------------------------------
# shiftlag finiteness


@dataclass(frozen=True)
class ShiftlagWitness:
    """A lag-building cycle followed by a shifting cycle, both pumpable."""

    prefix: SyncWord
    lag_cycle: SyncWord
    mid: SyncWord
    shift_cycle: SyncWord
    suffix: SyncWord


@dataclass(frozen=True)
class ShiftlagCertificate:
    finite: bool
    m: Optional[int] = None
    nu: Optional[int] = None
    witness: Optional[ShiftlagWitness] = None


def _net_lag(w: Sequence[Letter]) -> int:
    return sum(1 if l.tape is Tape.INPUT else -1 for l in w)


def _find_lag_cycle(t: Nfa, comp: list) -> Optional[tuple[str, SyncWord]]:
    """A cycle with net lag != 0 inside a strongly connected component."""
    comp_set = set(comp)
    root = sorted(comp)[0]
    pot = {root: 0}
    tree_word = {root: ()}
    queue = deque([root])
    bad = None
    while queue:
        p = queue.popleft()
        for letter, q in t.out_edges(p):
            if q not in comp_set:
                continue
            w = 1 if letter.tape is Tape.INPUT else -1
            if q not in pot:
                pot[q] = pot[p] + w
                tree_word[q] = tree_word[p] + (letter,)
                queue.append(q)
            elif pot[q] != pot[p] + w and bad is None:
                bad = (p, letter, q)
    if bad is None:
        return None
    p, letter, q = bad
    ret = _bfs_word(t, [q], [root], allowed=comp_set)
    if ret is None:
        raise ValueError(f"{q!r} has no path back to {root!r}: not a strongly connected component")
    _, back = ret
    # a tree word's net lag is its end's potential, so the cycles back to root
    # through the inconsistent edge and past it differ in net lag by
    # pot[p] + w - pot[q] != 0: one of them is unbalanced
    cycle = tree_word[p] + (letter,) + back
    return root, cycle if _net_lag(cycle) != 0 else tree_word[q] + back


def _find_shift_cycle(t: Nfa, comp: list) -> Optional[tuple[str, SyncWord]]:
    """A cycle visiting both tapes inside a strongly connected component."""
    comp_set = set(comp)
    in_edge = out_edge = None
    for p in sorted(comp):
        for letter, q in t.out_edges(p):
            if q not in comp_set:
                continue
            if letter.tape is Tape.INPUT and in_edge is None:
                in_edge = (p, letter, q)
            if letter.tape is Tape.OUTPUT and out_edge is None:
                out_edge = (p, letter, q)
    if in_edge is None or out_edge is None:
        return None
    p1, l1, q1 = in_edge
    p2, l2, q2 = out_edge
    _, w1 = _bfs_word(t, [q1], [p2], allowed=comp_set)
    _, w2 = _bfs_word(t, [q2], [p1], allowed=comp_set)
    return p1, (l1,) + w1 + (l2,) + w2


def shiftlag_finiteness(a: Nfa) -> ShiftlagCertificate:
    """Infinite iff the SCC search finds a pumpable witness; otherwise finite,
    certified by the least m <= (states + 1)² whose lag bound covers the
    language, found by a scan from m = 1.
    """
    t = trim(a)
    n_states = len(t.states)
    witness = _shiftlag_witness_search(t)
    if witness is not None:
        return ShiftlagCertificate(finite=False, witness=witness)
    cap = (n_states + 1) ** 2
    for m in range(1, cap + 1):
        nu = certificate_lag_bound(m, n_states)
        if least_lag_bound(t, m, nu) is not None:
            return ShiftlagCertificate(finite=True, m=m, nu=nu)
    raise BoundExhausted(f"no shiftlag conclusion within m <= {cap}")


def _shiftlag_witness_search(t: Nfa) -> Optional[ShiftlagWitness]:
    if not t.finals:
        return None
    comps, comp_of = scc(
        sorted(t.states), lambda p: [q for _, q in t.out_edges(p)]
    )
    lag_comps = {}
    shift_comps = {}
    for idx, comp in enumerate(comps):
        lc = _find_lag_cycle(t, comp)
        if lc is not None:
            lag_comps[idx] = lc
        sc = _find_shift_cycle(t, comp)
        if sc is not None:
            shift_comps[idx] = sc
    if not lag_comps or not shift_comps:
        return None
    # condensation reachability from each lag component
    comp_succ: dict = {}
    for p in t.states:
        for _, q in t.out_edges(p):
            if comp_of[p] != comp_of[q]:
                comp_succ.setdefault(comp_of[p], set()).add(comp_of[q])
    for lag_idx in sorted(lag_comps):
        found = shortest_word(
            [lag_idx],
            lambda c: [(None, d) for d in sorted(comp_succ.get(c, ()))],
            shift_comps.__contains__,
        )
        if found is None:
            continue
        s1, lag_cycle = lag_comps[lag_idx]
        s2, shift_cycle = shift_comps[found[2]]
        _, prefix = _bfs_word(t, [t.initial], [s1])
        _, mid = _bfs_word(t, [s1], [s2])
        _, suffix = _bfs_word(t, [s2], t.finals)
        return ShiftlagWitness(
            prefix=prefix,
            lag_cycle=lag_cycle,
            mid=mid,
            shift_cycle=shift_cycle,
            suffix=suffix,
        )
    return None


def certificate_lag_bound(m: int, state_count: int) -> int:
    """Lag bound that covers a finite-shiftlag language of m blocks."""
    return 2 * (m * (state_count + 1) + 1)


def run_starts(prev, tape) -> bool:
    """`most_counted`'s count of run starts: a letter whose tape is not the
    tape of the letter before it."""
    return prev is not tape


def most_counted(a: Nfa, cap: float, counted: Callable) -> dict:
    """`best[q, tape]`: the most counted letters, capped at `cap`, of an
    accepting continuation from q after a letter of `tape` (None: no letter
    yet); -1 when no final state is reachable. `counted(prev, tape)` is 0 or 1
    for a letter of `tape` after one of `prev`: `run_starts` counts runs, and
    `tape is x` counts the letters of tape x. A backward fixpoint over the
    edges, whose values only grow; uncapped, it ends only when no cycle holds
    a counted letter."""
    tapes = (None, Tape.INPUT, Tape.OUTPUT)
    gain = {tape: [(t, int(counted(t, tape))) for t in tapes] for tape in Tape}
    pred: dict = {}
    for p, letter, q in a.transitions:
        pred.setdefault((q, letter.tape), set()).add(p)
    best = {(q, t): 0 if q in a.finals else -1 for q in a.states for t in tapes}
    stack = [(q, t) for q in a.finals for t in Tape]
    while stack:
        q, tape = stack.pop()
        for p in pred.get((q, tape), ()):
            for t, add in gain[tape]:
                count = min(cap, best[q, tape] + add)
                if count > best[p, t]:
                    best[p, t] = count
                    if t is not None:
                        stack.append((p, t))
    return best


def least_lag_bound(a: Nfa, m: int, hi: int) -> Optional[int]:
    """Least nu in [0, hi] such that every word of `a` is a ≤nu-lagged prefix
    followed by at most m pure blocks, or None; builds no automaton.

    A suffix is at most m blocks exactly when it has at most m runs (maximal
    one-tape segments), so a word's earliest split is the start of its m-th
    last run, and the word needs the largest |imbalance| of a prefix with at
    least m run starts after it. A search over (state, imbalance) that enters
    a state by a letter of `tape` only when `most_counted`'s best[q, tape],
    capped at m, reaches m finds exactly the prefixes that bound the lag:
    that condition is prefix-closed along every path.
    """
    if m < 0:
        raise ValueError("block count must be >= 0")
    if hi < 0:
        return None
    succ: dict = {}
    for p, letter, q in a.transitions:
        succ.setdefault(p, set()).add((letter.tape, q))
    best = most_counted(a, m, run_starts)
    # forward search; when the start does not qualify, nothing past it does,
    # and every word fits at lag 0
    if best[a.initial, None] < m:
        return 0
    seen = {(a.initial, 0)}
    stack = [(a.initial, 0)]
    worst = 0
    while stack:
        p, d = stack.pop()
        for tape, q in succ.get(p, ()):
            node = (q, d + (1 if tape is Tape.INPUT else -1))
            if best[q, tape] >= m and node not in seen:
                if abs(node[1]) > hi:
                    return None
                worst = max(worst, abs(node[1]))
                seen.add(node)
                stack.append(node)
    return worst


# ---------------------------------------------------------------------------
# the target's shape


def build_shape(gamma: int, n: int, output_cap: Optional[int], input_alphabet, output_alphabet) -> Nfa:
    """NFA for the words p·b where every prefix of p is at most gamma-lagged
    and b is at most n blocks, each any input word or an output word of
    length at most output_cap (None = unbounded). gamma = 0 gives the blocks
    alone, n = 0 the lag-bounded words alone.

    A state is ("lag", imbalance) inside the prefix, or (blocks opened, tape
    of the open block, output letters in it); a letter continues the prefix
    or the open block, or opens the next block. Every state accepts."""
    if n < 0:
        raise ValueError("block count must be >= 0")

    def step(state, letter):
        # output letters are counted only against a cap
        grow = int(letter.tape is Tape.OUTPUT and output_cap is not None)
        nxt = []
        if state[0] == "lag":
            d = state[1] + (1 if letter.tape is Tape.INPUT else -1)
            if abs(d) <= gamma:
                nxt.append(("lag", d))
            used = 0
        else:
            used, tape, filled = state
            if letter.tape is tape and (not grow or filled < output_cap):
                nxt.append((used, tape, filled + grow))
        if used < n and (not grow or output_cap >= 1):
            nxt.append((used + 1, letter.tape, grow))
        return nxt

    return explore_nfa(
        ("lag", 0), step, lambda state: True, input_alphabet, output_alphabet, prefix="b"
    )


# ---------------------------------------------------------------------------
# Parikh injectivity


def parikh_injective(a: Nfa) -> tuple[bool, Optional[tuple]]:
    """Whether no two distinct tag words of the language share a Parikh image.

    Searches the same-length self-product with its running #1 difference
    bounded by (states²)².
    """
    t = trim(a)
    tag_edges: dict = {}
    for p, letter, q in t.transitions:
        tag_edges.setdefault(p, set()).add((int(letter.tape), q))
    counter_bound = (len(t.states) ** 2) ** 2

    def successors(node):
        p1, p2, d, diff = node
        for t1, q1 in sorted(tag_edges.get(p1, ())):
            for t2, q2 in sorted(tag_edges.get(p2, ())):
                nd = d + (1 if t1 == 1 else 0) - (1 if t2 == 1 else 0)
                if abs(nd) <= counter_bound:
                    yield (t1, t2), (q1, q2, nd, diff or (t1 != t2))

    def is_goal(node):
        p1, p2, d, diff = node
        return p1 in t.finals and p2 in t.finals and d == 0 and diff

    found = shortest_word([(t.initial, t.initial, 0, False)], successors, is_goal)
    if found is None:
        return True, None
    pairs = found[1]
    return False, (tuple(t1 for t1, _ in pairs), tuple(t2 for _, t2 in pairs))
