"""Resynchronized source construction.

build_Ti restricts a target language so that output blocks after the
lag-bounded prefix are capped, and returns its minimal DFA; build_TiS reads
such words and simulates the canonical source automaton on the pair they
encode, re-interleaving on the fly through a bounded queue of guessed
letters.
"""
from __future__ import annotations

from dataclasses import dataclass

from .analysis import build_shape, most_counted
from .automata import (
    AutomatonError,
    Dfa,
    Nfa,
    determinize,
    explore_nfa,
    inclusion,
    minimize,
    product,
    tape_table_dfa,
    trim,
)
from .canonical import CanonicalDfa
from .letters import PARTNER, Letter, Tape


class ShapeViolation(AutomatonError):
    pass


@dataclass(frozen=True)
class ResyncParams:
    """Block count n, lag bound gamma, and output-block cap i."""

    n: int
    gamma: int
    i: int

    def __post_init__(self):
        if self.n < 0 or self.gamma < 0 or self.i < 0:
            raise ValueError("resync parameters must be non-negative")


def build_Ti(t: Nfa, p: ResyncParams) -> Dfa:
    """The minimal DFA of T ∩ (lag ≤ gamma prefix · (input blocks + short
    output blocks)^n).

    Only T_i's language matters to build_TiS, and every nondeterministic
    T_i state would multiply its guessing states."""
    shape = build_shape(p.gamma, p.n, p.i, t.input_alphabet, t.output_alphabet)
    return minimize(determinize(trim(product(t, shape))))


def build_TiS(a: CanonicalDfa, ti: Nfa, params: ResyncParams) -> Nfa:
    """Words of the constrained target whose pair belongs to the source relation.

    Simulates the canonical DFA on the canonical re-interleaving of the word
    read so far: pairs of one input and one output letter, then a tail on one
    tape. The queue holds guessed letters, all on one tape. A letter on tape x
    must match the oldest queued letter while the queue holds x letters. Once
    a tail has begun, it is read directly if the tail is on x and refused
    otherwise. Else x runs ahead: a letter of its partner tape y is guessed
    and the DFA reads the pair at once, and later y letters must match the
    guesses. Such a letter may instead begin an x tail, while guessed y
    letters stay owed.

    When `ti` is `build_Ti(t, params)`, the queue never exceeds gamma + i*n.
    Let u be the word read so far and s its T_i state. T_i is a trim DFA, so
    s stands for the residual u⁻¹T_i, which is not empty unless T_i is (and
    then no letter is read). Every word u·v of T_i splits as p·b, with p at
    most gamma-lagged and b at most n blocks of at most i outputs each. The
    queue holds at most the lead of u's leading tape (a guess pushes one
    letter, a letter on the lagging tape pops one, a tail letter pushes
    nothing). Guessed inputs are owed to leading outputs: at most gamma if u
    ends inside p, else gamma plus u's outputs inside b, at most gamma + i*n.
    Guessed outputs are owed to leading inputs, and `viable` keeps them
    within s's output capacity, the most outputs on a word v of u⁻¹T_i. If v
    has more than i*n outputs, some of them belong to p, so u ends inside p
    and leads by at most gamma; otherwise the capacity is at most i*n. A
    longer queue means `ti` has another shape, and raises ShapeViolation.

    A tape's capacity is counted by `analysis.most_counted` only up to
    gamma + 1 + i*n, the length past which a queue raises ShapeViolation: no
    queue is longer, so a queue fits under the capped capacity exactly when
    it fits under the true one.
    """
    dfa = a.dfa
    alphabet = {Tape.INPUT: sorted(ti.input_alphabet), Tape.OUTPUT: sorted(ti.output_alphabet)}
    cap = params.gamma + 1 + params.i * params.n

    # core states: (a_state, queue, tail)
    #   queue: guessed letters, all on one tape, that arrivals must match
    #   tail: None, or the tape whose tail has begun
    def core_step(state, letter: Letter):
        """Successor core states for one letter arriving on tape x."""
        q, queue, tail = state
        x = letter.tape
        y = PARTNER[x]
        if queue and queue[0].tape is x:
            return [(q, queue[1:], tail)] if queue[0] == letter else []
        if tail is not None:
            q2 = dfa.delta(q, letter) if tail is x else None
            return [] if q2 is None else [(q2, queue, tail)]
        # x runs ahead: guess its y partner, or begin an x tail
        if len(queue) >= cap:
            raise ShapeViolation(f"ti is not build_Ti(t, params): its queue reached {cap} letters")
        results = []
        for g in alphabet[y]:
            guess = Letter(y, g)
            q2 = dfa.run((letter, guess) if x is Tape.INPUT else (guess, letter), start=q)
            if q2 is not None:
                results.append((q2, queue + (guess,), tail))
        q2 = dfa.delta(q, letter)
        if q2 is not None:
            results.append((q2, queue, x))
        return results

    def core_final(state):
        q, queue, _ = state
        return not queue and q in dfa.finals

    core_init = (dfa.initial, (), None)
    initial = (core_init, ti.initial)
    capacity = {x: most_counted(ti, cap, lambda prev, tape, x=x: tape is x) for x in Tape}

    def viable(core, tstate) -> bool:
        queue = core[1]
        # guessed letters must still be able to arrive from this target state
        return not queue or len(queue) <= capacity[queue[0].tape][tstate, None]

    def step(state, letter):
        core, tstate = state
        targets = ti.successors(tstate, letter)
        cores = core_step(core, letter) if targets else ()
        return [(c2, t2) for t2 in targets for c2 in cores if viable(c2, t2)]

    def is_final(state):
        core, tstate = state
        return tstate in ti.finals and core_final(core)

    return trim(
        explore_nfa(
            initial,
            step,
            is_final,
            ti.input_alphabet,
            ti.output_alphabet,
            prefix="c",
            name="build_TiS",
        )
    )


# inputs strictly precede outputs
INPUT_THEN_OUTPUT = {
    ("in", Tape.INPUT): "in",
    ("in", Tape.OUTPUT): "out",
    ("out", Tape.OUTPUT): "out",
}


def build_Tprime_recognizable(s_can: Dfa, t: Nfa) -> Nfa:
    """Target words whose pair the finite-shift source accepts.

    The source must be in input-then-output form; the construction guesses
    the hand-off state between the input run and the output run.
    """
    shape = tape_table_dfa(INPUT_THEN_OUTPUT, "in", s_can.input_alphabet, s_can.output_alphabet)
    ok, witness = inclusion(s_can, shape)
    if not ok:
        raise ShapeViolation(f"source is not input-then-output controlled, e.g. {witness}")
    states = sorted(s_can.states)

    # state: (guessed hand-off, input-run state, output-run state)
    def step(state, letter: Letter):
        g, qi, qo = state
        nxt = []
        if letter.tape is Tape.INPUT:
            q2 = s_can.delta(qi, letter)
            if q2 is not None:
                nxt.append((g, q2, qo))
        else:
            q2 = s_can.delta(qo, letter)
            if q2 is not None:
                nxt.append((g, qi, q2))
        return nxt

    def is_final(state):
        g, qi, qo = state
        return qi == g and qo in s_can.finals

    # one initial per guess is folded into a pre-initial fan-out on the
    # first letter; the empty word needs a direct check
    def fan_step(state, letter: Letter):
        if state == "start":
            seen = set()
            for g in states:
                for nxt in step((g, s_can.initial, g), letter):
                    seen.add(nxt)
            return sorted(seen, key=repr)
        return step(state, letter)

    def fan_final(state):
        if state == "start":
            return s_can.initial in s_can.finals
        return is_final(state)

    guesser = explore_nfa(
        "start", fan_step, fan_final, s_can.input_alphabet, s_can.output_alphabet, prefix="g"
    )
    return trim(product(guesser, t))
