"""Finite automata over tagged letters.

States are strings; constructions that create structured states relabel
them deterministically so emitted artifacts are byte-stable across runs.
All values are immutable after construction and every operation is pure.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Iterator, Optional, Sequence

from .letters import Letter, SyncWord, Tape, inp, out

END_IN = "⊣i"
END_OUT = "⊣o"

Transition = tuple[str, Letter, str]


class AutomatonError(ValueError):
    pass


class PartitionViolation(AutomatonError):
    pass


class EmissionNondeterminism(AutomatonError):
    pass


class ReservedSymbolClash(AutomatonError):
    pass


@dataclass(frozen=True)
class Nfa:
    """Nondeterministic finite automaton over ({1,2} x Sigma) with one initial state."""

    input_alphabet: frozenset
    output_alphabet: frozenset
    states: frozenset
    initial: str
    transitions: frozenset  # of (state, Letter, state)
    finals: frozenset

    def __post_init__(self):
        object.__setattr__(self, "input_alphabet", frozenset(self.input_alphabet))
        object.__setattr__(self, "output_alphabet", frozenset(self.output_alphabet))
        object.__setattr__(self, "states", frozenset(self.states))
        object.__setattr__(self, "transitions", frozenset(self.transitions))
        object.__setattr__(self, "finals", frozenset(self.finals))
        if self.initial not in self.states:
            raise AutomatonError(f"initial state {self.initial!r} not a state")
        if not self.finals <= self.states:
            raise AutomatonError("finals must be a subset of states")
        for p, letter, q in self.transitions:
            if p not in self.states or q not in self.states:
                raise AutomatonError(f"transition endpoint missing: {(p, letter, q)}")
            pool = self.input_alphabet if letter.tape is Tape.INPUT else self.output_alphabet
            if letter.symbol not in pool:
                raise AutomatonError(f"letter {letter} outside declared alphabet")

    @cached_property
    def alphabet(self) -> tuple[Letter, ...]:
        """All tagged letters, in deterministic order."""
        ins = tuple(inp(s) for s in sorted(self.input_alphabet))
        outs = tuple(out(s) for s in sorted(self.output_alphabet))
        return ins + outs

    @cached_property
    def _succ(self) -> dict:
        succ: dict = {}
        for p, letter, q in self.transitions:
            succ.setdefault((p, letter), set()).add(q)
        return succ

    @cached_property
    def _out_edges(self) -> dict:
        edges: dict = {}
        for p, letter, q in self.transitions:
            edges.setdefault(p, []).append((letter, q))
        for p in edges:
            edges[p].sort()
        return edges

    def successors(self, state: str, letter: Letter) -> frozenset:
        return frozenset(self._succ.get((state, letter), ()))

    def step_set(self, states: frozenset, letter: Letter) -> frozenset:
        nxt: set = set()
        for p in states:
            nxt |= self._succ.get((p, letter), set())
        return frozenset(nxt)

    def out_edges(self, state: str) -> list[tuple[Letter, str]]:
        return self._out_edges.get(state, [])


@dataclass(frozen=True)
class Dfa(Nfa):
    """At most one successor per (state, letter); `complete` means exactly one."""

    complete: bool = False

    def __post_init__(self):
        super().__post_init__()
        seen = set()
        for p, letter, _ in self.transitions:
            if (p, letter) in seen:
                raise AutomatonError(f"nondeterministic on {(p, letter)}")
            seen.add((p, letter))
        if self.complete:
            for p in self.states:
                for letter in self.alphabet:
                    if (p, letter) not in seen:
                        raise AutomatonError(f"incomplete at {(p, letter)} but marked complete")

    @cached_property
    def _delta(self) -> dict:
        return {(p, letter): q for p, letter, q in self.transitions}

    def delta(self, state: str, letter: Letter) -> Optional[str]:
        return self._delta.get((state, letter))

    def run(self, w: Sequence[Letter], start: Optional[str] = None) -> Optional[str]:
        """Extended transition function; None once undefined."""
        q = self.initial if start is None else start
        for letter in w:
            if q is None:
                return None
            q = self._delta.get((q, letter))
        return q

    def accepts_word(self, w: Sequence[Letter]) -> bool:
        q = self.run(w)
        return q is not None and q in self.finals


@dataclass(frozen=True)
class SequentialDfa(Dfa):
    """DFA with states split into input states and output states.

    Output states emit deterministically: at most one outgoing transition,
    and it must carry an output letter.
    """

    input_states: frozenset = frozenset()
    output_states: frozenset = frozenset()

    def __post_init__(self):
        super().__post_init__()
        object.__setattr__(self, "input_states", frozenset(self.input_states))
        object.__setattr__(self, "output_states", frozenset(self.output_states))
        if (self.input_states | self.output_states) != self.states or (
            self.input_states & self.output_states
        ):
            raise PartitionViolation("input/output states must partition the state set")
        for p in self.output_states:
            if len(self.out_edges(p)) > 1:
                raise EmissionNondeterminism(f"output state {p!r} has several emissions")
        for p, letter, _ in self.transitions:
            if p in self.input_states and letter.tape is not Tape.INPUT:
                raise PartitionViolation(f"input state {p!r} has an output edge")
            if p in self.output_states and letter.tape is not Tape.OUTPUT:
                raise PartitionViolation(f"output state {p!r} has an input edge")


def accepts(a: Nfa, w: Sequence[Letter]) -> bool:
    """NFA membership by subset simulation."""
    current = frozenset({a.initial})
    for letter in w:
        current = a.step_set(current, letter)
        if not current:
            return False
    return bool(current & a.finals)


def relabel(a: Nfa, prefix: str = "s") -> Nfa:
    """Rename states to prefix0, prefix1, ... in BFS order (sorted edges)."""
    mapping = _bfs_names(a, prefix)
    return _apply_relabel(a, mapping)


def _bfs_names(a: Nfa, prefix: str) -> dict:
    order = [a.initial]
    seen = {a.initial}
    queue = deque([a.initial])
    while queue:
        p = queue.popleft()
        for letter, q in a.out_edges(p):
            if q not in seen:
                seen.add(q)
                order.append(q)
                queue.append(q)
    for q in sorted(a.states - seen, key=repr):  # unreachable stragglers, stable order
        order.append(q)
    return {q: f"{prefix}{i}" for i, q in enumerate(order)}


def _apply_relabel(a: Nfa, mapping: dict) -> Nfa:
    return Nfa(
        input_alphabet=a.input_alphabet,
        output_alphabet=a.output_alphabet,
        states=frozenset(mapping.values()),
        initial=mapping[a.initial],
        transitions=frozenset((mapping[p], l, mapping[q]) for p, l, q in a.transitions),
        finals=frozenset(mapping[q] for q in a.finals),
    )


def determinize(a: Nfa) -> Dfa:
    """Subset construction with sorted-subset state names."""

    def name(subset: frozenset) -> str:
        return "{" + ",".join(sorted(subset)) + "}"

    start = frozenset({a.initial})
    states = {start}
    transitions = []
    queue = deque([start])
    while queue:
        cur = queue.popleft()
        for letter in a.alphabet:
            nxt = a.step_set(cur, letter)
            if not nxt:
                continue
            transitions.append((name(cur), letter, name(nxt)))
            if nxt not in states:
                states.add(nxt)
                queue.append(nxt)
    return Dfa(
        input_alphabet=a.input_alphabet,
        output_alphabet=a.output_alphabet,
        states=frozenset(name(s) for s in states),
        initial=name(start),
        transitions=frozenset(transitions),
        finals=frozenset(name(s) for s in states if s & a.finals),
    )


def completed(d: Dfa, extra_inputs: Iterable[str] = (), extra_outputs: Iterable[str] = ()) -> Dfa:
    """Add an explicit non-accepting sink so every (state, letter) is defined."""
    input_alphabet = frozenset(d.input_alphabet) | frozenset(extra_inputs)
    output_alphabet = frozenset(d.output_alphabet) | frozenset(extra_outputs)
    sink = "∅"
    while sink in d.states:
        sink += "'"
    letters = tuple(inp(s) for s in sorted(input_alphabet)) + tuple(
        out(s) for s in sorted(output_alphabet)
    )
    transitions = set(d.transitions)
    defined = {(p, l) for p, l, _ in d.transitions}
    needs_sink = False
    for p in d.states:
        for letter in letters:
            if (p, letter) not in defined:
                transitions.add((p, letter, sink))
                needs_sink = True
    states = set(d.states)
    if needs_sink:
        states.add(sink)
        for letter in letters:
            transitions.add((sink, letter, sink))
    return Dfa(
        input_alphabet=input_alphabet,
        output_alphabet=output_alphabet,
        states=frozenset(states),
        initial=d.initial,
        transitions=frozenset(transitions),
        finals=d.finals,
        complete=True,
    )


def complement(d: Dfa) -> Dfa:
    if not d.complete:
        raise AutomatonError("complement requires a complete DFA")
    return Dfa(
        input_alphabet=d.input_alphabet,
        output_alphabet=d.output_alphabet,
        states=d.states,
        initial=d.initial,
        transitions=d.transitions,
        finals=frozenset(d.states - d.finals),
        complete=True,
    )


def product(a: Nfa, b: Nfa, mode: str = "intersect") -> Nfa:
    """Synchronous product. `intersect` on NFAs; `union-over-complete` needs complete DFAs."""
    if mode not in ("intersect", "union-over-complete"):
        raise AutomatonError(f"unknown product mode {mode!r}")
    if mode == "union-over-complete":
        for m in (a, b):
            if not isinstance(m, Dfa) or not m.complete:
                raise AutomatonError("union-over-complete requires complete DFAs")
        if (a.input_alphabet, a.output_alphabet) != (b.input_alphabet, b.output_alphabet):
            raise AutomatonError("union-over-complete requires equal alphabets")
    input_alphabet = a.input_alphabet & b.input_alphabet if mode == "intersect" else a.input_alphabet
    output_alphabet = (
        a.output_alphabet & b.output_alphabet if mode == "intersect" else a.output_alphabet
    )
    letters = tuple(inp(s) for s in sorted(input_alphabet)) + tuple(
        out(s) for s in sorted(output_alphabet)
    )
    start = (a.initial, b.initial)
    seen = {start}
    queue = deque([start])
    transitions = []
    while queue:
        pa, pb = queue.popleft()
        for letter in letters:
            for qa in sorted(a.successors(pa, letter)):
                for qb in sorted(b.successors(pb, letter)):
                    transitions.append(((pa, pb), letter, (qa, qb)))
                    if (qa, qb) not in seen:
                        seen.add((qa, qb))
                        queue.append((qa, qb))
    if mode == "intersect":
        is_final = lambda s: s[0] in a.finals and s[1] in b.finals
    else:
        is_final = lambda s: s[0] in a.finals or s[1] in b.finals

    def name(s):
        return f"({s[0]}|{s[1]})"

    return Nfa(
        input_alphabet=input_alphabet,
        output_alphabet=output_alphabet,
        states=frozenset(name(s) for s in seen),
        initial=name(start),
        transitions=frozenset((name(p), l, name(q)) for (p, l, q) in transitions),
        finals=frozenset(name(s) for s in seen if is_final(s)),
    )


def is_empty(a: Nfa) -> tuple[bool, Optional[SyncWord]]:
    """Emptiness with a shortest witness on the non-empty side (BFS, sorted edges)."""
    if a.initial in a.finals:
        return False, ()
    parents: dict = {a.initial: None}
    queue = deque([a.initial])
    while queue:
        p = queue.popleft()
        for letter, q in a.out_edges(p):
            if q in parents:
                continue
            parents[q] = (p, letter)
            if q in a.finals:
                w = []
                cur = q
                while parents[cur] is not None:
                    prev, l = parents[cur]
                    w.append(l)
                    cur = prev
                return False, tuple(reversed(w))
            queue.append(q)
    return True, None


def reachable_states(a: Nfa) -> frozenset:
    seen = {a.initial}
    queue = deque([a.initial])
    while queue:
        p = queue.popleft()
        for _, q in a.out_edges(p):
            if q not in seen:
                seen.add(q)
                queue.append(q)
    return frozenset(seen)


def coreachable_states(a: Nfa) -> frozenset:
    preds: dict = {}
    for p, _, q in a.transitions:
        preds.setdefault(q, set()).add(p)
    seen = set(a.finals)
    queue = deque(a.finals)
    while queue:
        q = queue.popleft()
        for p in preds.get(q, ()):
            if p not in seen:
                seen.add(p)
                queue.append(p)
    return frozenset(seen)


def trim(a: Nfa) -> Nfa:
    """Keep exactly the reachable-and-co-reachable states (plus the initial state)."""
    useful = reachable_states(a) & coreachable_states(a)
    keep = useful | {a.initial}
    return Nfa(
        input_alphabet=a.input_alphabet,
        output_alphabet=a.output_alphabet,
        states=frozenset(keep),
        initial=a.initial,
        transitions=frozenset(
            (p, l, q) for p, l, q in a.transitions if p in useful and q in useful
        ),
        finals=frozenset(a.finals & keep),
    )


def inclusion(a: Nfa, b: Nfa) -> tuple[bool, Optional[SyncWord]]:
    """L(a) ⊆ L(b), with a shortest word of L(a) \\ L(b) on failure.

    Explores a's states against b's subsets lazily, so b is determinized
    only along words of a.
    """
    start = (a.initial, frozenset({b.initial}))
    parents: dict = {start: None}
    queue = deque([start])

    def witness_for(node) -> SyncWord:
        w = []
        cur = node
        while parents[cur] is not None:
            prev, letter = parents[cur]
            w.append(letter)
            cur = prev
        return tuple(reversed(w))

    while queue:
        node = queue.popleft()
        pa, subset = node
        if pa in a.finals and not (subset & b.finals):
            return False, witness_for(node)
        for letter in a.alphabet:
            b_next = b.step_set(subset, letter)
            for qa in sorted(a.successors(pa, letter)):
                nxt = (qa, b_next)
                if nxt not in parents:
                    parents[nxt] = (node, letter)
                    queue.append(nxt)
    return True, None


def language_equal(a: Nfa, b: Nfa) -> tuple[bool, Optional[SyncWord]]:
    ok, w = inclusion(a, b)
    if not ok:
        return False, w
    ok, w = inclusion(b, a)
    return (True, None) if ok else (False, w)


def output_closure(a: Nfa) -> dict:
    """Per state, the states reachable via pure-output words (reflexive-transitive)."""
    closure = {}
    for p in a.states:
        seen = {p}
        queue = deque([p])
        while queue:
            r = queue.popleft()
            for letter, q in a.out_edges(r):
                if letter.tape is Tape.OUTPUT and q not in seen:
                    seen.add(q)
                    queue.append(q)
        closure[p] = frozenset(seen)
    return closure


def project_input(a: Nfa) -> Nfa:
    """Automaton for the input projections of L(a), over pure-input letters.

    Finals are closed under pure-output reachability so trailing output
    suffixes are not lost.
    """
    closure = output_closure(a)
    transitions = set()
    for p in a.states:
        for r in closure[p]:
            for letter, q in a.out_edges(r):
                if letter.tape is Tape.INPUT:
                    transitions.add((p, letter, q))
    finals = frozenset(p for p in a.states if closure[p] & a.finals)
    return Nfa(
        input_alphabet=a.input_alphabet,
        output_alphabet=frozenset(),
        states=a.states,
        initial=a.initial,
        transitions=frozenset(transitions),
        finals=finals,
    )


def make_sequential_check(
    d: Dfa, input_states: Iterable[str], output_states: Iterable[str]
) -> SequentialDfa:
    """Validate a partition and return the sequential DFA; raises on violations."""
    return SequentialDfa(
        input_alphabet=d.input_alphabet,
        output_alphabet=d.output_alphabet,
        states=d.states,
        initial=d.initial,
        transitions=d.transitions,
        finals=d.finals,
        complete=False,
        input_states=frozenset(input_states),
        output_states=frozenset(output_states),
    )


def add_endmarkers(a: Nfa) -> Nfa:
    """Accept w1·(1,⊣i)·w2·(2,⊣o) where w1w2 ∈ L(a) and w2 is pure output,
    for every such split: all interleavings consistent with the endmarkers
    closing their tapes. The split is guessed nondeterministically.
    """
    if END_IN in a.input_alphabet or END_OUT in a.output_alphabet:
        raise ReservedSymbolClash("endmarker symbol already in the base alphabet")
    pre = {q: ("pre", q) for q in a.states}
    post = {q: ("post", q) for q in a.states}
    acc = ("acc",)
    transitions: set = set()
    for p, letter, q in a.transitions:
        transitions.add((pre[p], letter, pre[q]))
        if letter.tape is Tape.OUTPUT:
            transitions.add((post[p], letter, post[q]))
    for q in a.states:
        transitions.add((pre[q], inp(END_IN), post[q]))
    for q in a.finals:
        transitions.add((post[q], out(END_OUT), acc))
    raw = Nfa(
        input_alphabet=frozenset(a.input_alphabet) | {END_IN},
        output_alphabet=frozenset(a.output_alphabet) | {END_OUT},
        states=frozenset(pre.values()) | frozenset(post.values()) | {acc},
        initial=pre[a.initial],
        transitions=frozenset(transitions),
        finals=frozenset({acc}),
    )
    return relabel(trim(raw), prefix="e")


def concat(a: Nfa, b: Nfa) -> Nfa:
    """ε-free concatenation of two NFAs."""
    input_alphabet = a.input_alphabet | b.input_alphabet
    output_alphabet = a.output_alphabet | b.output_alphabet
    sa = {q: ("a", q) for q in a.states}
    sb = {q: ("b", q) for q in b.states}
    transitions: set = set()
    for p, l, q in a.transitions:
        transitions.add((sa[p], l, sa[q]))
    for p, l, q in b.transitions:
        transitions.add((sb[p], l, sb[q]))
    for f in a.finals:
        for l, q in b.out_edges(b.initial):
            transitions.add((sa[f], l, sb[q]))
    finals = set(sb[q] for q in b.finals)
    if b.initial in b.finals:
        finals |= {sa[f] for f in a.finals}
    raw = Nfa(
        input_alphabet=input_alphabet,
        output_alphabet=output_alphabet,
        states=frozenset(sa.values()) | frozenset(sb.values()),
        initial=sa[a.initial],
        transitions=frozenset(transitions),
        finals=frozenset(finals),
    )
    return relabel(raw, prefix="c")


class StateCapExceeded(AutomatonError):
    """An on-the-fly construction grew past its configured state cap."""


STATE_CAP = 2_000_000  # default state cap of the on-the-fly constructions


def explore_nfa(
    initial,
    letters: Sequence[Letter],
    step: Callable,
    is_final: Callable,
    input_alphabet,
    output_alphabet,
    prefix: str = "x",
    cap: Optional[int] = None,
) -> Nfa:
    """Materialize an NFA from a successor function by BFS from `initial`.

    `step(state, letter)` yields successor states; states may be any
    hashable values and are renamed prefix0, prefix1, ... in BFS order.
    """
    names = {initial: f"{prefix}0"}
    queue = deque([initial])
    transitions = []
    finals = set()
    while queue:
        state = queue.popleft()
        if is_final(state):
            finals.add(names[state])
        for letter in letters:
            for nxt in step(state, letter):
                if nxt not in names:
                    if cap is not None and len(names) >= cap:
                        raise StateCapExceeded(
                            f"construction exceeded {cap} states; raise the cap to proceed"
                        )
                    names[nxt] = f"{prefix}{len(names)}"
                    queue.append(nxt)
                transitions.append((names[state], letter, names[nxt]))
    return Nfa(
        input_alphabet=frozenset(input_alphabet),
        output_alphabet=frozenset(output_alphabet),
        states=frozenset(names.values()),
        initial=f"{prefix}0",
        transitions=frozenset(transitions),
        finals=frozenset(finals),
    )


def pair_sync_nfa(
    u: Sequence[str], v: Sequence[str], input_alphabet: Iterable[str], output_alphabet: Iterable[str]
) -> Nfa:
    """All synchronizations of the single pair (u, v): a grid automaton."""
    states = {}
    for i in range(len(u) + 1):
        for j in range(len(v) + 1):
            states[(i, j)] = f"g{i},{j}"
    transitions = set()
    for i in range(len(u) + 1):
        for j in range(len(v) + 1):
            if i < len(u):
                transitions.add((states[(i, j)], inp(u[i]), states[(i + 1, j)]))
            if j < len(v):
                transitions.add((states[(i, j)], out(v[j]), states[(i, j + 1)]))
    return Nfa(
        input_alphabet=frozenset(input_alphabet) | set(u),
        output_alphabet=frozenset(output_alphabet) | set(v),
        states=frozenset(states.values()),
        initial=states[(0, 0)],
        transitions=frozenset(transitions),
        finals=frozenset({states[(len(u), len(v))]}),
    )


def pair_in_relation(a: Nfa, u: Sequence[str], v: Sequence[str]) -> bool:
    """Whether (u, v) is a pair of the relation recognized by a's synchronizations."""
    grid = pair_sync_nfa(u, v, a.input_alphabet, a.output_alphabet)
    empty, _ = is_empty(product(grid, a, mode="intersect"))
    return not empty


def enumerate_accepted(a: Nfa, max_len: int) -> Iterator[SyncWord]:
    """All accepted words of length ≤ max_len, shortest first, deterministic order."""
    start = frozenset({a.initial})
    layer = [((), start)]
    for _ in range(max_len + 1):
        next_layer = []
        for w, subset in layer:
            if subset & a.finals:
                yield w
            for letter in a.alphabet:
                nxt = a.step_set(subset, letter)
                if nxt:
                    next_layer.append((w + (letter,), nxt))
        layer = next_layer
        if not layer:
            return
