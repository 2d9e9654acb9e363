"""Resynchronized source construction.

build_Ti restricts a target language so that output blocks after the
lag-bounded prefix are capped; build_TiS reads such words and simulates the
canonical source automaton on the pair they encode, re-interleaving on the
fly through a bounded queue of pending or pre-guessed letters.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .analysis import _scc, build_blocks, build_lag_bounded
from .automata import (
    AutomatonError,
    Dfa,
    Nfa,
    STATE_CAP,
    concat,
    coreachable_states,
    explore_nfa,
    inclusion,
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

    @property
    def guess_budget(self) -> int:
        return self.i * self.n


def build_Ti(t: Nfa, p: ResyncParams) -> Nfa:
    """T ∩ (lag ≤ gamma prefix · (input blocks + short output blocks)^n)."""
    shape = concat(
        build_lag_bounded(p.gamma, t.input_alphabet, t.output_alphabet),
        build_blocks(p.n, p.i, t.input_alphabet, t.output_alphabet),
    )
    return trim(product(t, shape))


# queue kinds: (PEND, tape) holds letters of `tape` that arrived and await
# their partners; (GUESS, tape) holds letters of `tape` the canonical DFA
# consumed ahead of arrival, which arrivals must match
PEND, GUESS = "pend", "guess"


def tape_capacity(a: Nfa, tape: Tape) -> dict:
    """Per state: max number of `tape` letters on any accepting path from it
    (None = unbounded). Dead states get 0."""
    alive = coreachable_states(a)
    succ = {p: [] for p in alive}
    for p, letter, q in a.transitions:
        if p in alive and q in alive:
            succ[p].append((int(letter.tape is tape), q))
    comps, comp_of = _scc(sorted(alive), lambda p: [q for _, q in succ[p]])
    capacity = dict.fromkeys(a.states, 0)
    # Tarjan emits a component after every component it reaches, so one pass
    # sees final successor values; a tape edge inside a component is unbounded
    for c, comp in enumerate(comps):
        values = [
            None if capacity[q] is None or (w and comp_of[q] == c) else capacity[q] + w
            for p in comp
            for w, q in succ[p]
        ]
        best = None if None in values else max(values, default=0)
        for p in comp:
            capacity[p] = best
    return capacity


@dataclass(frozen=True)
class ResyncNfa(Nfa):
    """The automaton of `build_TiS`, with the queue caps that refused a letter.

    When `refused_caps` is empty the capped exploration is closed under the
    uncapped step, so its language is exactly that of the uncapped
    construction; otherwise words may be missing.
    """

    refused_caps: tuple = ()


def build_TiS(
    a: CanonicalDfa, ti: Nfa, params: ResyncParams, state_cap: Optional[int] = STATE_CAP
) -> ResyncNfa:
    """Words of the constrained target whose pair belongs to the source relation.

    Simulates the canonical DFA on the canonical re-interleaving of the word
    read so far: pairs of one input and one output letter, then a tail on one
    tape. One arrival rule serves both tapes. A letter on tape x must match
    the oldest guessed x letter while x letters are guessed. Once a tail has
    begun, it is read directly if the tail is on x and refused otherwise.
    Else it pairs with the oldest pending letter of its partner tape y, if
    there is one. Otherwise x runs ahead, and `ahead[x]` says how: the letter
    is queued as pending, or every y letter is guessed to pair with it now.
    The ahead tape is queued unless its alphabet is the larger one, in which
    case its partner is guessed. In the block zone such a letter may also
    begin an x tail: pending x letters are flushed into the DFA, and guessed
    y letters stay owed. The queue holds at most gamma + 1 letters in the
    lag-bounded prefix and gamma + 1 + i*n in the block zone; a letter the
    cap refuses is recorded in `refused_caps`.
    """
    dfa = a.dfa
    alphabet = {Tape.INPUT: sorted(ti.input_alphabet), Tape.OUTPUT: sorted(ti.output_alphabet)}
    ahead = {
        x: (PEND, x) if len(alphabet[x]) <= len(alphabet[y]) else (GUESS, y)
        for x, y in PARTNER.items()
    }
    cap1 = params.gamma + 1
    cap2 = params.gamma + 1 + params.guess_budget
    refused: set = set()  # queue caps that refused an arriving letter

    def astep(q, *letters):
        for letter in letters:
            if q is None:
                return None
            q = dfa.delta(q, letter)
        return q

    def pair_step(q, x, sym, partner_sym):
        """The DFA on one pair: `sym` on tape x, `partner_sym` on its partner."""
        mine, theirs = Letter(x, sym), Letter(PARTNER[x], partner_sym)
        return astep(q, mine, theirs) if x is Tape.INPUT else astep(q, theirs, mine)

    # core states: (stage, a_state, queue, kind, tail)
    #   stage 1: lag-bounded prefix, no tail commitments
    #   stage 2: block zone; tail is None or the tape whose tail has begun
    def consume_arrival(state, letter: Letter):
        """Successor core states for one letter arriving on tape x."""
        stage, q, queue, kind, tail = state
        x, sym = letter
        y = PARTNER[x]
        kind_left = kind if len(queue) > 1 else None  # once the oldest letter goes
        if queue and kind == (GUESS, x):
            return [(stage, q, queue[1:], kind_left, tail)] if queue[0] == sym else []
        if tail is not None:
            q2 = astep(q, letter) if tail is x else None
            return [] if q2 is None else [(stage, q2, queue, kind, tail)]
        if queue and kind == (PEND, y):
            q2 = pair_step(q, x, sym, queue[0])
            return [] if q2 is None else [(stage, q2, queue[1:], kind_left, tail)]
        # x runs ahead; a queue left here holds kind ahead[x], since ahead[y]
        # is (PEND, y) or (GUESS, x) and both returned above
        results = []
        cap = cap1 if stage == 1 else cap2
        if len(queue) >= cap:
            refused.add(cap)
        elif ahead[x][0] == PEND:
            results.append((stage, q, queue + (sym,), ahead[x], tail))
        else:
            for g in alphabet[y]:
                q2 = pair_step(q, x, sym, g)
                if q2 is not None:
                    results.append((stage, q2, queue + (g,), ahead[x], tail))
        if stage == 2:
            # commit to an x tail: the pair part of the word is over
            if queue and kind == (PEND, x):
                q, queue, kind = astep(q, *(Letter(x, s) for s in queue)), (), None
            q2 = astep(q, letter)
            if q2 is not None:
                results.append((stage, q2, queue, kind, x))
        return results

    def core_step(state, letter: Letter):
        results = consume_arrival(state, letter)
        if state[0] == 1:
            results += consume_arrival((2,) + state[1:], letter)
        # a fixed order: these tuples hold None, whose hash varies between runs
        return dict.fromkeys(results)

    def core_final(state):
        _, q, queue, kind, _ = state
        if queue:
            role, tape = kind
            if role == GUESS:
                return False
            q = astep(q, *(Letter(tape, s) for s in queue))
        return q is not None and q in dfa.finals

    core_init = (1, dfa.initial, (), None, None)
    initial = (core_init, ti.initial)
    capacity = {x: tape_capacity(ti, x) for x in Tape}

    def viable(core, before, tstate) -> bool:
        _, _, queue, kind, _ = core
        if not queue:
            return True
        role, tape = kind
        if role == GUESS:
            # guessed letters must still be able to arrive from this target state
            limit = capacity[tape][tstate]
            return limit is None or len(queue) <= limit
        # pending letters may only pile up while the partner tape can still
        # supply pairs; past that point the tail-commitment branch covers
        # the same words without a queue
        return len(queue) <= len(before[2]) or capacity[PARTNER[tape]][tstate] != 0

    def step(state, letter):
        core, tstate = state
        targets = ti.successors(tstate, letter)
        cores = core_step(core, letter) if targets else ()
        return [(c2, t2) for t2 in targets for c2 in cores if viable(c2, core, t2)]

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
            cap=state_cap,
            name="build_TiS",
            build=lambda **fields: ResyncNfa(**fields, refused_caps=tuple(sorted(refused))),
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
