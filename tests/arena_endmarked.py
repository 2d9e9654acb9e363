"""The arena over an endmarked language, as a reference.

`build_endmarked_arena` and `extract_endmarked_sdfa` are the game's arena and
machine extraction as they were when the game played on `add_endmarkers` of
the synchronized language: the arena determinizes and minimizes the endmarked
language, the input player's ("end",) move follows `⊣i` in both DFAs, and the
machine's `⊣o` comes from the word DFA. `syncsynth.game.build_arena` plays on
the language itself and `extract_sdfa` writes the endmarkers; `test_game.py`
checks that both give the same winner, the same number of vertices and the
same machine bytes.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from syncsynth.automata import (
    AutomatonError,
    Dfa,
    END_IN,
    END_OUT,
    Nfa,
    SequentialDfa,
    determinize,
    explore_nfa,
    make_sequential_check,
    minimize,
    project_input,
    shortest_word,
    tape_closure,
)
from syncsynth.game import NotWinning
from syncsynth.letters import Tape, inp


@dataclass(frozen=True)
class EndmarkedArena:
    s_prime: Nfa
    p_dfa: Dfa
    d_dfa: Dfa
    vertices: frozenset
    moves: dict  # vertex -> sorted tuple of (move, successor)
    initial: tuple


def build_endmarked_arena(s_prime: Nfa) -> EndmarkedArena:
    """Arena over the minimal DFAs of the endmarked language and of its input
    projection, which is read off the first. After the endmark the word must
    be completed, so ("end",) leads to ("done",) when an output word leads
    δ(p, ⊣i) to a final state (`⊣o` is an output letter, so that word ends
    in it), and to ("lose",) otherwise."""
    if END_IN not in s_prime.input_alphabet or END_OUT not in s_prime.output_alphabet:
        raise AutomatonError("build_endmarked_arena expects an endmarked language")
    p_dfa = minimize(determinize(s_prime))
    d_dfa = minimize(determinize(project_input(p_dfa)))
    emits = tape_closure(p_dfa, Tape.OUTPUT)
    base_inputs = sorted(s_prime.input_alphabet - {END_IN})

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
            d2, p2 = d_dfa.delta(d, inp(END_IN)), p_dfa.delta(p, inp(END_IN))
            if d2 is None or d2 not in d_dfa.finals:
                nxt = ("win",)
            else:
                nxt = ("done",) if p2 is not None and emits[p2] & p_dfa.finals else ("lose",)
            vmoves.append((("end",), nxt))
        moves[v] = tuple(vmoves)
        for _, nxt in vmoves:
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return EndmarkedArena(
        s_prime=s_prime,
        p_dfa=p_dfa,
        d_dfa=d_dfa,
        vertices=frozenset(seen),
        moves=moves,
        initial=initial,
    )


def extract_endmarked_sdfa(arena: EndmarkedArena, region: frozenset) -> SequentialDfa:
    """The minimal sequential machine of a winning strategy on the endmarked
    arena: after an input letter the first shortest output word into the
    region, after `⊣i` the first shortest one to a final state, which ends
    in `⊣o`."""
    p_dfa, d_dfa = arena.p_dfa, arena.d_dfa
    if arena.initial not in region:
        raise NotWinning("initial vertex is not in the winning region")

    def emit(p, d, is_goal):
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
        d2 = d_dfa.delta(d, letter) if letter.tape is Tape.INPUT else None
        if d2 is None:
            return ()
        if letter.symbol != END_IN:
            return [emit(p_dfa.delta(p, letter), d2, in_region(d2))]
        if d2 in d_dfa.finals:
            return [emit(p_dfa.delta(p, letter), d2, lambda q: q in p_dfa.finals)]
        return ()

    machine = minimize(
        explore_nfa(
            emit(p_dfa.initial, d_dfa.initial, in_region(d_dfa.initial)),
            step,
            lambda state: not state[2] and state[0] in p_dfa.finals,
            arena.s_prime.input_alphabet,
            arena.s_prime.output_alphabet,
            prefix="v",
            build=Dfa,
        )
    )
    emitters = {p for p, letter, _ in machine.transitions if letter.tape is Tape.OUTPUT}
    return make_sequential_check(machine, machine.states - emitters, emitters)
