"""Finite automata over tagged letters.

States are strings. Every derived automaton is built by `explore_nfa`, the
one place that names constructed states: prefix0, prefix1, ... in the order a
breadth-first search from the initial state discovers them, trying letters
in a fixed order (inputs, then outputs, each sorted by symbol) and each
letter's successors in the order the construction's step returns them. With
an ordered step the names, and every artifact built from them, are
byte-stable across runs and hash seeds. All values are immutable after
construction and every operation is pure.
"""
from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Callable, Iterable, Optional, Sequence

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
        return tagged_letters(self.input_alphabet, self.output_alphabet)

    @cached_property
    def _succ(self) -> dict:
        succ: dict = {}
        for p, letter, q in self.transitions:
            succ.setdefault((p, letter), set()).add(q)
        return {key: tuple(sorted(targets)) for key, targets in succ.items()}

    @cached_property
    def _out_edges(self) -> dict:
        edges: dict = {}
        for p, letter, q in self.transitions:
            edges.setdefault(p, []).append((letter, q))
        for p in edges:
            edges[p].sort()
        return edges

    def successors(self, state: str, letter: Letter) -> tuple:
        """The states one letter leads to, sorted."""
        return self._succ.get((state, letter), ())

    def step_set(self, states: frozenset, letter: Letter) -> frozenset:
        nxt: set = set()
        for p in states:
            nxt.update(self._succ.get((p, letter), ()))
        return frozenset(nxt)

    def out_edges(self, state: str) -> list[tuple[Letter, str]]:
        return self._out_edges.get(state, [])


@dataclass(frozen=True)
class Dfa(Nfa):
    """At most one successor per (state, letter)."""

    def __post_init__(self):
        super().__post_init__()
        seen = set()
        for p, letter, _ in self.transitions:
            if (p, letter) in seen:
                raise AutomatonError(f"nondeterministic on {(p, letter)}")
            seen.add((p, letter))

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
        emissions = Counter(p for p, _, _ in self.transitions if p in self.output_states)
        for p, count in emissions.items():
            if count > 1:
                raise EmissionNondeterminism(f"output state {p!r} has several emissions")
        for p, letter, _ in self.transitions:
            if p in self.input_states and letter.tape is not Tape.INPUT:
                raise PartitionViolation(f"input state {p!r} has an output edge")
            if p in self.output_states and letter.tape is not Tape.OUTPUT:
                raise PartitionViolation(f"output state {p!r} has an input edge")


def tagged_letters(input_alphabet, output_alphabet) -> tuple[Letter, ...]:
    """Input letters, then output letters, each sorted by symbol."""
    return tuple(inp(s) for s in sorted(input_alphabet)) + tuple(
        out(s) for s in sorted(output_alphabet)
    )


def determinize(a: Nfa) -> Dfa:
    """Subset construction over the nonempty subsets reachable from {initial}."""

    def step(subset, letter):
        nxt = a.step_set(subset, letter)
        return (nxt,) if nxt else ()

    return explore_nfa(
        frozenset({a.initial}),
        step,
        lambda subset: bool(subset & a.finals),
        a.input_alphabet,
        a.output_alphabet,
        prefix="d",
        build=Dfa,
    )


def minimize(d: Dfa) -> Dfa:
    """The minimal DFA of L(d), by Hopcroft's partition refinement.

    `d` is partial: a missing edge leads to an implicit rejecting sink. The
    sink is the one block never used as a splitter and never split, so it is
    never built (as in Valmari & Lehtinen, STACS 2008). The result is trim,
    and `explore_nfa` names its classes, so equal languages over equal
    alphabets give byte-identical results; the empty language gives one
    state without finals.
    """
    d = trim(d)
    preds: dict = {}
    for p, letter, q in d.transitions:
        preds.setdefault((q, letter), []).append(p)
    # after `trim` either every state is useful or d is one dead state
    blocks = [set(b) for b in (d.finals, d.states - d.finals) if b]
    block_of = {q: i for i, b in enumerate(blocks) for q in b}
    pending = [(i, letter) for i in range(len(blocks)) for letter in d.alphabet]
    while pending:
        splitter, letter = pending.pop()
        hit: dict = {}  # block -> its states with a letter-edge into the splitter
        for q in blocks[splitter]:
            for p in preds.get((q, letter), ()):
                hit.setdefault(block_of[p], set()).add(p)
        for i, inside in hit.items():
            if len(inside) == len(blocks[i]):
                continue
            small, large = sorted((inside, blocks[i] - inside), key=len)
            blocks[i] = large
            blocks.append(small)
            for p in small:
                block_of[p] = len(blocks) - 1
            # the smaller half splits everything the two halves would
            pending.extend((len(blocks) - 1, l) for l in d.alphabet)
    rep = [min(b) for b in blocks]

    def step(i, letter):
        q = d.delta(rep[i], letter)
        return (block_of[q],) if q is not None else ()

    return explore_nfa(
        block_of[d.initial],
        step,
        lambda i: rep[i] in d.finals,
        d.input_alphabet,
        d.output_alphabet,
        prefix="m",
        build=Dfa,
    )


def product(a: Nfa, b: Nfa) -> Nfa:
    """Synchronous product: the intersection of the two languages."""

    def step(pair, letter):
        return [
            (qa, qb)
            for qa in a.successors(pair[0], letter)
            for qb in b.successors(pair[1], letter)
        ]

    return explore_nfa(
        (a.initial, b.initial),
        step,
        lambda pair: pair[0] in a.finals and pair[1] in b.finals,
        a.input_alphabet & b.input_alphabet,
        a.output_alphabet & b.output_alphabet,
        prefix="p",
    )


def shortest_word(starts: Iterable, successors: Callable, is_goal: Callable) -> Optional[tuple]:
    """Breadth-first search from `starts` to the nearest node with `is_goal`.

    Nodes are any hashable values. `successors(node)` yields (label, next)
    pairs in a fixed order, and starts are tried in the order given, so the
    path found, the first shortest one in that order, is the same on every
    run. Returns (start, labels, goal) for that path, or None when no goal is
    reachable.
    """
    parents: dict = {}
    queue = deque()
    for start in starts:
        if start in parents:
            continue
        parents[start] = None
        if is_goal(start):
            return start, (), start
        queue.append(start)
    while queue:
        node = queue.popleft()
        for label, nxt in successors(node):
            if nxt in parents:
                continue
            parents[nxt] = (node, label)
            if is_goal(nxt):
                labels = []
                cur = nxt
                while parents[cur] is not None:
                    cur, label = parents[cur]
                    labels.append(label)
                return cur, tuple(reversed(labels)), nxt
            queue.append(nxt)
    return None


def is_empty(a: Nfa) -> tuple[bool, Optional[SyncWord]]:
    """Emptiness with a shortest witness on the non-empty side (BFS, sorted edges)."""
    found = shortest_word([a.initial], a.out_edges, lambda q: q in a.finals)
    return (True, None) if found is None else (False, found[1])


def reachable_states(a: Nfa) -> frozenset:
    # a local successor map, so `a` gains no cached `_out_edges`
    succ: dict = {}
    for p, _, q in a.transitions:
        succ.setdefault(p, set()).add(q)
    seen = {a.initial}
    queue = deque([a.initial])
    while queue:
        p = queue.popleft()
        for q in succ.get(p, ()):
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
    """Keep exactly the reachable-and-co-reachable states (plus the initial
    state), under their names and in the class of `a`."""
    useful = reachable_states(a) & coreachable_states(a)
    keep = useful | {a.initial}
    fields = dict(
        states=keep,
        transitions=frozenset(
            (p, l, q) for p, l, q in a.transitions if p in useful and q in useful
        ),
        finals=a.finals & keep,
    )
    if isinstance(a, SequentialDfa):
        fields.update(input_states=a.input_states & keep, output_states=a.output_states & keep)
    return replace(a, **fields)


def inclusion(a: Nfa, b: Nfa) -> tuple[bool, Optional[SyncWord]]:
    """L(a) ⊆ L(b), with a shortest word of L(a) \\ L(b) on failure.

    Explores a's states against b's subsets lazily, so b is determinized
    only along words of a.
    """

    def successors(node):
        pa, subset = node
        for letter in a.alphabet:
            targets = a.successors(pa, letter)
            if targets:
                b_next = b.step_set(subset, letter)
                for qa in targets:
                    yield letter, (qa, b_next)

    found = shortest_word(
        [(a.initial, frozenset({b.initial}))],
        successors,
        lambda node: node[0] in a.finals and not (node[1] & b.finals),
    )
    return (True, None) if found is None else (False, found[1])


def language_equal(a: Nfa, b: Nfa) -> tuple[bool, Optional[SyncWord]]:
    ok, w = inclusion(a, b)
    return inclusion(b, a) if ok else (False, w)


def tape_closure(a: Nfa, tape: Tape) -> dict:
    """Per state, the states reachable via words of one tape (reflexive-transitive)."""
    closure = {}
    for p in a.states:
        seen = {p}
        queue = deque([p])
        while queue:
            r = queue.popleft()
            for letter, q in a.out_edges(r):
                if letter.tape is tape and q not in seen:
                    seen.add(q)
                    queue.append(q)
        closure[p] = frozenset(seen)
    return closure


def strict_tape_closure(a: Nfa, tape: Tape) -> dict:
    """Per state, the states reachable via nonempty words of one tape."""
    reach = tape_closure(a, tape)
    return {
        p: frozenset(r for letter, q in a.out_edges(p) if letter.tape is tape for r in reach[q])
        for p in a.states
    }


def project_input(a: Nfa) -> Nfa:
    """Automaton for the input projections of L(a), over pure-input letters.

    Finals are closed under pure-output reachability so trailing output
    suffixes are not lost.
    """
    return project_input_from(a, tape_closure(a, Tape.OUTPUT))


def project_input_from(a: Nfa, closure: dict) -> Nfa:
    """`project_input(a)`, read off a's output closure `closure`, which is
    `tape_closure(a, Tape.OUTPUT)`."""
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
        input_states=frozenset(input_states),
        output_states=frozenset(output_states),
    )


def refuse_endmarkers(a: Nfa) -> None:
    """Raise ReservedSymbolClash, naming the endmarker, when a's alphabet holds one."""
    for symbol, alphabet in ((END_IN, a.input_alphabet), (END_OUT, a.output_alphabet)):
        if symbol in alphabet:
            raise ReservedSymbolClash(f"endmarker symbol {symbol} already in the base alphabet")


def add_endmarkers(a: Nfa) -> Nfa:
    """Accept w1·(1,⊣i)·w2·(2,⊣o) where w1w2 ∈ L(a) and w2 is pure output,
    for every such split: all interleavings consistent with the endmarkers
    closing their tapes. The split is guessed nondeterministically.
    """
    refuse_endmarkers(a)
    end_in, end_out = inp(END_IN), out(END_OUT)

    # states: ("pre", q) before the input endmarker, ("post", q) after it,
    # and ("acc", None) after the output endmarker
    def step(state, letter):
        phase, q = state
        if phase == "pre":
            nxt = [("pre", q2) for q2 in a.successors(q, letter)]
            return nxt + [("post", q)] if letter == end_in else nxt
        if phase == "post" and letter == end_out:
            return [("acc", None)] if q in a.finals else []
        if phase == "post" and letter.tape is Tape.OUTPUT:
            return [("post", q2) for q2 in a.successors(q, letter)]
        return []

    return trim(
        explore_nfa(
            ("pre", a.initial),
            step,
            lambda state: state[0] == "acc",
            a.input_alphabet | {END_IN},
            a.output_alphabet | {END_OUT},
            prefix="e",
        )
    )


class CapExceeded(AutomatonError):
    """A run hit a fixed cap: a named construction grew past `STATE_CAP`
    states, or a profile closure past `profiles.CLOSURE_CAP` profiles. The
    message opens with the cap's kind and names the constant."""


STATE_CAP = 2_000_000  # the state cap of every named construction


def explore_nfa(
    initial,
    step: Callable,
    is_final: Callable,
    input_alphabet,
    output_alphabet,
    prefix: str = "x",
    build: Callable = Nfa,
    name: Optional[str] = None,
) -> Nfa:
    """Materialize an automaton from a successor function by BFS from `initial`.

    `step(state, letter)` returns successor states in a fixed order; states
    may be any hashable values and are named prefix0, prefix1, ... in the
    order they are discovered, trying letters in `tagged_letters` order.
    `build` constructs the result from the automaton's fields: `Dfa` when
    every step returns at most one successor. A construction that passes its
    `name` is capped: growing past `STATE_CAP` states, read at each call,
    raises `CapExceeded`, whose message names the construction.
    """
    names = {initial: f"{prefix}0"}
    queue = deque([initial])
    transitions = []
    finals = set()
    letters = tagged_letters(input_alphabet, output_alphabet)
    while queue:
        state = queue.popleft()
        if is_final(state):
            finals.add(names[state])
        for letter in letters:
            for nxt in step(state, letter):
                if nxt not in names:
                    if name is not None and len(names) >= STATE_CAP:
                        raise CapExceeded(
                            f"state cap: {name}: construction exceeded {STATE_CAP} states "
                            "(automata.STATE_CAP)"
                        )
                    names[nxt] = f"{prefix}{len(names)}"
                    queue.append(nxt)
                transitions.append((names[state], letter, names[nxt]))
    return build(
        input_alphabet=frozenset(input_alphabet),
        output_alphabet=frozenset(output_alphabet),
        states=frozenset(names.values()),
        initial=f"{prefix}0",
        transitions=frozenset(transitions),
        finals=frozenset(finals),
    )


def tape_table_dfa(table: dict, initial, input_alphabet, output_alphabet) -> Dfa:
    """All words along which `table`, mapping (state, tape) to the next
    state, moves from `initial` by each letter's tape; every state accepts."""

    def step(state, letter):
        nxt = table.get((state, letter.tape))
        return () if nxt is None else (nxt,)

    return explore_nfa(
        initial, step, lambda state: True, input_alphabet, output_alphabet, prefix="s", build=Dfa
    )


def pair_in_relation(a: Nfa, u: Sequence[str], v: Sequence[str]) -> bool:
    """Whether (u, v) is a pair of the relation recognized by a's synchronizations.

    Searches a's runs along the interleavings of u and v lazily, over nodes
    (input letters read, output letters read, state); no automaton is built.
    """

    def successors(node):
        i, j, q = node
        if i < len(u):
            letter = inp(u[i])
            for q2 in a.successors(q, letter):
                yield letter, (i + 1, j, q2)
        if j < len(v):
            letter = out(v[j])
            for q2 in a.successors(q, letter):
                yield letter, (i, j + 1, q2)

    done = (len(u), len(v))
    found = shortest_word(
        [(0, 0, a.initial)], successors, lambda node: node[:2] == done and node[2] in a.finals
    )
    return found is not None

