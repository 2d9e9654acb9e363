"""Answer oracle for the decide benchmark, independent of syncsynth's algorithms.

It reads automata only through their fields (states, initial, finals,
transitions of (state, letter, state) with letter.tape 1 = input, 2 = output)
and decides everything by plain NFA simulation. It never calls determinize,
inclusion, run_machine or verify_uniformizer.

* YES: for every input up to a length bound, the machine emits
  deterministically, produces a word exactly on dom(S), that word's pair lies
  in R(S), and the word with its endmarkers stripped lies in T.
* NO: rejected when the instance's true answer is YES, and when a search of
  the oracle's own finds, for the NO's domain witness u, an output v with
  (u, v) ∈ R(S) and an interleaving of (u, v) in T.
* INCONCLUSIVE: accepted only where the instance's expected set lists it.
"""
from __future__ import annotations

import itertools
from collections import deque
from typing import Optional

INPUT, OUTPUT = 1, 2


class Sim:
    """An automaton as adjacency lists, for subset simulation."""

    def __init__(self, a):
        self.initial = a.initial
        self.finals = frozenset(a.finals)
        self.inputs = sorted(a.input_alphabet)
        self.outputs = sorted(a.output_alphabet)
        self.succ: dict = {}
        for p, letter, q in a.transitions:
            key = (p, int(letter.tape), letter.symbol)
            self.succ.setdefault(key, set()).add(q)
        self.output_succ: dict = {}
        for p, letter, q in a.transitions:
            if int(letter.tape) == OUTPUT:
                self.output_succ.setdefault(p, set()).add(q)

    def step(self, states, tape: int, symbol: str) -> frozenset:
        nxt: set = set()
        for p in states:
            nxt |= self.succ.get((p, tape, symbol), set())
        return frozenset(nxt)

    def output_closure(self, states) -> frozenset:
        seen = set(states)
        queue = deque(states)
        while queue:
            for q in self.output_succ.get(queue.popleft(), ()):
                if q not in seen:
                    seen.add(q)
                    queue.append(q)
        return frozenset(seen)

    def accepts(self, word) -> bool:
        """Membership of a word of (tape, symbol) pairs."""
        current = frozenset({self.initial})
        for tape, symbol in word:
            current = self.step(current, tape, symbol)
            if not current:
                return False
        return bool(current & self.finals)

    def in_domain(self, u) -> bool:
        """Some output word pairs with u: outputs may interleave anywhere."""
        current = self.output_closure({self.initial})
        for symbol in u:
            current = self.output_closure(self.step(current, INPUT, symbol))
            if not current:
                return False
        return bool(current & self.finals)

    def configs(self, start, u) -> frozenset:
        """Close (i, state) configurations under reading the letters of u."""
        seen = set(start)
        queue = deque(start)
        while queue:
            i, p = queue.popleft()
            if i < len(u):
                for q in self.succ.get((p, INPUT, u[i]), ()):
                    if (i + 1, q) not in seen:
                        seen.add((i + 1, q))
                        queue.append((i + 1, q))
        return frozenset(seen)

    def emit(self, configs, u, symbol: str) -> frozenset:
        moved = {(i, q) for i, p in configs for q in self.succ.get((p, OUTPUT, symbol), ())}
        return self.configs(moved, u)

    def done(self, configs, u) -> bool:
        return any(i == len(u) and p in self.finals for i, p in configs)

    def relates(self, u, v) -> bool:
        """(u, v) ∈ R: some interleaving of u and v is accepted."""
        configs = self.configs({(0, self.initial)}, u)
        for symbol in v:
            configs = self.emit(configs, u, symbol)
            if not configs:
                return False
        return self.done(configs, u)


def interleaving_search(s: Sim, t: Sim, u, max_output: int) -> Optional[tuple]:
    """An output v, |v| ≤ max_output, with (u, v) ∈ R(S) and some
    interleaving of (u, v) in T; None when the search finds none.

    Breadth-first over output prefixes, keeping for S and for T the set of
    (letters of u read, state) configurations the prefix can reach.
    """
    start = (s.configs({(0, s.initial)}, u), t.configs({(0, t.initial)}, u))
    seen = {start}
    layer = [((), start)]
    for _ in range(max_output + 1):
        following = []
        for v, (cs, ct) in layer:
            if s.done(cs, u) and t.done(ct, u):
                return v
            for symbol in s.outputs:
                nxt = (s.emit(cs, u, symbol), t.emit(ct, u, symbol))
                if nxt[0] and nxt[1] and nxt not in seen:
                    seen.add(nxt)
                    following.append((v + (symbol,), nxt))
        layer = following
    return None


class Machine:
    """A sequential machine run letter by letter.

    Output states must have at most one transition, on an output letter;
    input states must have at most one transition per letter, all on input
    letters. An endmarked machine reads u·⊣i and must finish with ⊣o.
    """

    def __init__(self, machine, end_in: str, end_out: str):
        self.end_in, self.end_out = end_in, end_out
        self.endmarked = end_in in machine.input_alphabet
        self.initial = machine.initial
        self.finals = frozenset(machine.finals)
        self.output_states = frozenset(machine.output_states)
        self.fuel_per_letter = len(machine.states) + 1
        self.emission: dict = {}
        self.reads: dict = {}
        self.problem = ""
        for p, letter, q in machine.transitions:
            tape = int(letter.tape)
            if p in self.output_states:
                if tape != OUTPUT or p in self.emission:
                    self.problem = f"output state {p!r} does not emit deterministically"
                self.emission[p] = (letter.symbol, q)
            else:
                if tape != INPUT or (p, letter.symbol) in self.reads:
                    self.problem = f"input state {p!r} is not deterministic on input letters"
                self.reads[(p, letter.symbol)] = q

    def run(self, u) -> Optional[tuple]:
        """The synchronization produced on u, endmarkers stripped, or None."""
        feed = list(u) + ([self.end_in] if self.endmarked else [])
        state, word, pos = self.initial, [], 0
        for _ in range(self.fuel_per_letter * (len(feed) + 2)):
            if state in self.output_states:
                if state not in self.emission:
                    return None
                symbol, state = self.emission[state]
                word.append((OUTPUT, symbol))
            elif pos < len(feed):
                state = self.reads.get((state, feed[pos]))
                if state is None:
                    return None
                word.append((INPUT, feed[pos]))
                pos += 1
            else:
                break
        else:
            raise ValueError(f"machine emits without end on input {u}")
        if pos < len(feed) or state not in self.finals:
            return None
        if not self.endmarked:
            return tuple(word)
        mark_in, mark_out = (INPUT, self.end_in), (OUTPUT, self.end_out)
        if word[-1] != mark_out or word.count(mark_out) != 1:
            raise ValueError(f"endmarkers misplaced in {word}")
        return tuple(letter for letter in word if letter not in (mark_in, mark_out))


def check_machine(machine, s, t, depth: int, end_in: str, end_out: str) -> list[str]:
    """Problems of a YES machine on every input of length ≤ depth."""
    ss, ts, mm = Sim(s), Sim(t), Machine(machine, end_in, end_out)
    if mm.problem:
        return [mm.problem]
    problems = []
    for n in range(depth + 1):
        for u in itertools.product(ss.inputs, repeat=n):
            try:
                word = mm.run(u)
            except ValueError as exc:
                return [str(exc)]
            in_dom = ss.in_domain(u)
            if word is None:
                if in_dom:
                    problems.append(f"no output for domain input {u}")
            elif not in_dom:
                problems.append(f"output outside the domain, input {u}")
            else:
                got_u = tuple(x for tape, x in word if tape == INPUT)
                v = tuple(x for tape, x in word if tape == OUTPUT)
                if got_u != u:
                    problems.append(f"machine read {got_u} instead of {u}")
                elif not ss.relates(u, v):
                    problems.append(f"pair {(u, v)} outside R(S)")
                elif not ts.accepts(word):
                    problems.append(f"synchronization {word} outside T")
            if len(problems) >= 3:
                return problems
    return problems


def input_depth(alphabet_size: int, budget: int = 4000) -> int:
    """Largest n with at most `budget` inputs of length ≤ n, capped at 12."""
    n, total = 0, 1
    while n < 12 and total + alphabet_size ** (n + 1) <= budget:
        n += 1
        total += alphabet_size ** n
    return n


def check_verdict(verdict, s, t, expected, known_answer: str, end_in: str, end_out: str) -> list[str]:
    """Problems with a verdict; empty when the oracle accepts it."""
    answer = verdict.answer
    problems = [] if answer in expected else [f"verdict {answer} outside the expected set {sorted(expected)}"]
    if answer == "YES":
        if verdict.machine is None:
            return problems + ["YES without a machine"]
        depth = input_depth(len(s.input_alphabet))
        problems += check_machine(verdict.machine, s, t, depth, end_in, end_out)
    elif answer == "NO":
        if known_answer == "YES":
            problems.append("NO on an instance whose answer is YES")
        witness = verdict.witness
        if witness is not None and all(hasattr(x, "tape") and int(x.tape) == INPUT for x in witness):
            u = tuple(x.symbol for x in witness)
            v = interleaving_search(Sim(s), Sim(t), u, max_output=2 * len(u) + 4)
            if v is not None:
                problems.append(
                    f"domain witness {u} has output {v} in R(S) with an interleaving in T"
                )
    return problems
