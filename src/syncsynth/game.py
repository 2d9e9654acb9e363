"""Safety game between the input player and the output player, deciding
whether a synchronized language has a uniformization from inside itself.

The input player reads one letter at a time or ends the stream; the output
player answers each letter with one move, the output word it emits next. It
wins if it can always complete the word being built to an accepted one once
the input player ends the stream. The machine of a win is endmarked: it reads
`⊣i` where the stream ends and writes `⊣o` after its last output.
"""
from __future__ import annotations

import graphlib
import itertools
from collections import deque
from dataclasses import dataclass, replace
from typing import Optional

from .automata import (
    AutomatonError,
    Dfa,
    END_IN,
    END_OUT,
    Nfa,
    SequentialDfa,
    determinize,
    explore_nfa,
    inclusion,
    make_sequential_check,
    minimize,
    pair_in_relation,
    project_input,
    project_input_from,
    reachable,
    refuse_endmarkers,
    shortest_word,
    tape_closure,
)
from .letters import SyncWord, Tape, decode, inp, out


class NotWinning(AutomatonError):
    pass


# vertices -------------------------------------------------------------------
#   ("out", p, d)   output player to move
#   ("in", p, d)    input player to move
#   ("win",)        vacuous win for the output player
#   ("lose",)       loss for the output player
#   ("done",)       word completed at an accepting state
# moves: ("emit", q) for Out; ("play", a) | ("end",) for In.


@dataclass(frozen=True)
class GameArena:
    p_dfa: Dfa
    d_dfa: Dfa
    vertices: frozenset
    moves: dict  # vertex -> sorted tuple of (move, successor)
    initial: tuple


def build_arena(lang: Nfa) -> GameArena:
    """Arena over the minimal DFAs of the synchronized language and of its
    input projection, which is read off the first through the same output
    closure; the input player advances both, emissions advance the word
    automaton only. Both DFAs are trim, so a missing edge is the only way
    out of either language. Raises ReservedSymbolClash when `lang`'s
    alphabet holds an endmarker.

    The output player's turn is one move: Out(p, d) moves to In(q, d) for each
    q that an output word leads p to, in sorted order. Playing that word one
    letter at a time, under any bound on its length of at least |p_dfa|,
    would give the same winner: d does not move while the output player
    emits, the rest of the play depends only on (q, d), and a simple path of
    fewer than |p_dfa| letters reaches every such q. The input player ends
    the stream with ("end",), which leads to ("win",) when d is not final,
    and otherwise to ("done",) when an output word leads p to a final state,
    to ("lose",) when none does. This is the game on the minimal DFA of
    `add_endmarkers(lang)`: its states before `⊣i` are p_dfa's, no other
    state has their futures, and after `⊣i` only output letters, then `⊣o`,
    complete the word.
    """
    refuse_endmarkers(lang)
    p_dfa = minimize(determinize(lang))
    emits = tape_closure(p_dfa, Tape.OUTPUT)
    d_dfa = minimize(determinize(project_input_from(p_dfa, emits)))
    base_inputs = sorted(p_dfa.input_alphabet)

    moves: dict = {}
    initial = ("out", p_dfa.initial, d_dfa.initial)
    queue = deque([initial])
    seen = {initial, ("win",), ("lose",), ("done",)}
    while queue:
        v = queue.popleft()
        kind, p, d = v
        if kind == "out":
            vmoves = [(("emit", q), ("in", q, d)) for q in sorted(emits[p])]
        else:
            vmoves = []
            for a in base_inputs:
                d2, p2 = d_dfa.delta(d, inp(a)), p_dfa.delta(p, inp(a))
                if d2 is None:
                    nxt = ("win",)
                else:
                    nxt = ("out", p2, d2) if p2 is not None else ("lose",)
                vmoves.append((("play", a), nxt))
            if d not in d_dfa.finals:
                nxt = ("win",)
            else:
                nxt = ("done",) if emits[p] & p_dfa.finals else ("lose",)
            vmoves.append((("end",), nxt))
        moves[v] = tuple(vmoves)
        for _, nxt in vmoves:
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return GameArena(
        p_dfa=p_dfa,
        d_dfa=d_dfa,
        vertices=frozenset(seen),
        moves=moves,
        initial=initial,
    )


def solve(arena: GameArena) -> tuple[frozenset, dict]:
    """Winning region of the output player, and the input player's move at
    each In vertex outside it.

    One backward pass over the predecessor index from ("lose",), linear in
    vertices plus moves (Grädel, Thomas & Wilke, LNCS 2500, ch. 2): an In
    vertex is lost once one successor is, and its move is the one to that
    successor, and an Out vertex once every successor is. A play that follows
    the input player's moves thus reaches ever earlier losses and never
    returns to a vertex.
    """
    preds: dict = {}
    for v, vmoves in arena.moves.items():
        for move, nxt in vmoves:
            preds.setdefault(nxt, []).append((v, move))

    # a dict keeps the loss order, and so the input player's moves, free of the hash seed
    lost = {("lose",): None}
    remaining = {v: len(vmoves) for v, vmoves in arena.moves.items() if v[0] == "out"}
    spoiler = {}
    queue = deque(lost)
    while queue:
        v = queue.popleft()
        for u, move in preds.get(v, ()):
            if u in lost:
                continue
            if u[0] == "out":
                remaining[u] -= 1
                if remaining[u]:
                    continue
            else:
                spoiler[u] = move
            lost[u] = None
            queue.append(u)
    return arena.vertices.difference(lost), spoiler


def in_spoiling_strategy(spoiler: dict) -> dict:
    """The spoiling certificate that `replay_spoiler` checks: a copy of the
    input player's moves from `solve`, one for each In vertex outside the
    winning region."""
    return dict(spoiler)


def replay_spoiler(arena: GameArena, region: frozenset, spoiler: dict) -> bool:
    """Check the spoiling certificate: every play from the initial vertex that
    follows it ends at ("lose",). A play that meets the region fails it, so
    does a move its In vertex lacks, and so does a cycle among the plays'
    vertices: a play around it never ends, which the output player wins."""

    def follow(v):
        if v[0] == "in":
            nxt = dict(arena.moves[v]).get(spoiler.get(v))
            return [] if nxt is None else [nxt]
        return [nxt for _, nxt in arena.moves.get(v, ())]

    plays = {v: follow(v) for v in reachable([arena.initial], follow)}
    if any(v in region or (v[0] == "in" and not nxt) for v, nxt in plays.items()):
        return False
    try:
        graphlib.TopologicalSorter(plays).prepare()
    except graphlib.CycleError:
        return False
    return True


def extract_sdfa(arena: GameArena, region: frozenset) -> SequentialDfa:
    """The minimal sequential machine of a winning strategy, over the
    language's alphabet and the endmarkers.

    `explore_nfa` walks states (p, d, the output letters left to emit). With
    none left the machine reads: an input letter the domain DFA lacks, or
    `⊣i` where the domain does not end, has no edge and rejects. After an
    input letter it emits the first shortest output word, in letter order,
    that leads p to a q with In(q, d) in the region; after `⊣i` the first
    shortest one to a final state, then `⊣o`. The state after `⊣o`, the
    machine's one final state, has no word state p. `minimize` names the
    states, and the partition is read off the out-edges: a state with an
    output edge is an output state, every other one, the final state
    included, an input state. After `trim` every state's future is
    non-empty; an input state's starts with an input letter or is {ε}, an
    output state's starts with an output letter, so Hopcroft never merges the
    two kinds.
    """
    p_dfa, d_dfa = arena.p_dfa, arena.d_dfa
    if arena.initial not in region:
        raise NotWinning("initial vertex is not in the winning region")

    def emit(p, d, is_goal):
        """The state that emits the first shortest output word leading p to a
        state with `is_goal`."""
        found = shortest_word(
            [p],
            lambda q: [(letter, r) for letter, r in p_dfa.out_edges(q) if letter.tape is Tape.OUTPUT],
            is_goal,
        )
        if found is None:
            raise NotWinning(f"no output word from {p} wins at {d}")
        return p, d, found[1]

    def in_region(d):
        return lambda q: ("in", q, d) in region

    def step(state, letter):
        p, d, word = state
        if word:
            return [(p_dfa.delta(p, letter), d, word[1:])] if letter == word[0] else ()
        if letter == end_in and d in d_dfa.finals:
            # d None: the input has ended; `⊣o` leaves p_dfa, so p is None after it
            word = emit(p, d, lambda q: q in p_dfa.finals)[2]
            return [(p, None, word + (end_out,))]
        d2 = d_dfa.delta(d, letter) if letter.tape is Tape.INPUT else None
        if d2 is None:
            return ()
        return [emit(p_dfa.delta(p, letter), d2, in_region(d2))]

    end_in, end_out = inp(END_IN), out(END_OUT)
    machine = minimize(
        explore_nfa(
            emit(p_dfa.initial, d_dfa.initial, in_region(d_dfa.initial)),
            step,
            lambda state: state[0] is None,
            p_dfa.input_alphabet | {END_IN},
            p_dfa.output_alphabet | {END_OUT},
            prefix="v",
            build=Dfa,
        )
    )
    emitters = {p for p, letter, _ in machine.transitions if letter.tape is Tape.OUTPUT}
    return make_sequential_check(machine, machine.states - emitters, emitters)


@dataclass(frozen=True)
class VerificationReport:
    ok: bool
    checks: tuple
    failures: tuple

    def __bool__(self):
        return self.ok


def run_machine(machine: SequentialDfa, input_syms) -> Optional[SyncWord]:
    """Feed an input stream (with its endmarker) and collect the full word;
    None if the machine rejects it or loops through its output states, since
    more consecutive emissions than output states close an output cycle."""
    word = []
    state = machine.initial
    pending = list(input_syms)
    out_limit = len(machine.output_states)
    emitted = 0  # consecutive output steps
    while True:
        if state in machine.output_states:
            edges = machine.out_edges(state)
            if not edges:
                break
            emitted += 1
            if emitted > out_limit:
                return None
            letter, nxt = edges[0]
            word.append(letter)
            state = nxt
        else:
            emitted = 0
            if not pending:
                break
            sym = pending.pop(0)
            nxt = machine.delta(state, inp(sym))
            if nxt is None:
                return None
            word.append(inp(sym))
            state = nxt
    if pending or state not in machine.finals:
        return None
    return tuple(word)


def verify_uniformizer(machine: SequentialDfa, s: Nfa, t: Nfa, depth: int) -> VerificationReport:
    """Containment in the target plus, by bounded enumeration, exactly one
    accepted word per live input with its pair inside the source relation.
    Raises ValueError when `depth` is below 1, which would check no input, and
    AutomatonError when the machine has no input/output state partition."""
    if depth < 1:
        raise ValueError("enumeration depth must be at least 1")
    if not isinstance(machine, SequentialDfa):
        raise AutomatonError("the machine must be a sequential DFA with a state partition")
    # a copy with the same runs carries the indexes the checks build, so the
    # caller's machine keeps only its fields
    machine = replace(machine)
    checks = []
    failures = []

    ok, witness = inclusion(machine, t)
    checks.append(("machine ⊆ target", ok))
    if not ok:
        failures.append(f"machine word outside the target language: {witness}")

    endmarked = END_IN in s.input_alphabet
    base_inputs = sorted(s.input_alphabet - {END_IN})
    dom = determinize(project_input(s))

    def dom_has(stream) -> bool:
        q = dom.run(tuple(inp(x) for x in stream))
        return q is not None and q in dom.finals

    domain_ok = True
    for n in range(depth + 1):
        for stream in itertools.product(base_inputs, repeat=n):
            full = stream + (END_IN,) if endmarked else stream
            produced = run_machine(machine, full)
            if dom_has(full):
                if produced is None:
                    failures.append(f"no output for domain input {stream}")
                    domain_ok = False
                    continue
                u, v = decode(produced)
                if tuple(x for x in u if x != END_IN) != stream:
                    failures.append(f"machine consumed {u} instead of {stream}")
                    domain_ok = False
                if not pair_in_relation(s, u, v):
                    failures.append(f"pair {(u, v)} outside the source relation")
                    domain_ok = False
            elif produced is not None:
                failures.append(f"machine accepts outside the domain: {stream}")
                domain_ok = False
    checks.append((f"domain behaviour to depth {depth}", domain_ok))
    return VerificationReport(ok=not failures, checks=tuple(checks), failures=tuple(failures))
