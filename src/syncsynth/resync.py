"""Resynchronized source construction.

build_Ti restricts a target language so that output blocks after the
lag-bounded prefix are capped; build_TiS reads such words and simulates the
canonical source automaton on the pair they encode, re-interleaving on the
fly through a bounded queue of pending or pre-guessed letters.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .analysis import _scc, build_blocks, build_lag_bounded, certificate_lag_bound
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
    relabel,
    trim,
)
from .canonical import CanonicalDfa
from .letters import Letter, Tape, inp, out


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

    @classmethod
    def for_target(cls, t: Dfa, n: int, i: int) -> "ResyncParams":
        return cls(n=n, gamma=certificate_lag_bound(n, len(t.states)), i=i)

    @property
    def guess_budget(self) -> int:
        return self.i * self.n


def build_Ti(t: Nfa, p: ResyncParams) -> Nfa:
    """T ∩ (lag ≤ gamma prefix · (input blocks + short output blocks)^n)."""
    shape = concat(
        build_lag_bounded(p.gamma, t.input_alphabet, t.output_alphabet),
        build_blocks(p.n, p.i, t.input_alphabet, t.output_alphabet),
    )
    return relabel(trim(product(t, shape, mode="intersect")), prefix="t")


# queue kinds: letters that arrived and await canonical consumption, or
# letters consumed ahead of arrival by guessing (arrivals must match).
PEND_IN, PEND_OUT, GUESS_IN, GUESS_OUT = "pi", "po", "gi", "go"


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


def build_TiS(a: CanonicalDfa, ti: Nfa, params: ResyncParams, state_cap: Optional[int] = STATE_CAP) -> Nfa:
    """Words of the constrained target whose pair belongs to the source relation.

    Simulates the canonical DFA on the canonical re-interleaving of the word
    read so far. Whichever tape runs ahead is absorbed either by queueing its
    letters or by pre-guessing the other tape (the smaller alphabet is chosen),
    and after the guessed split the remaining output is materialized as an
    explicit guessed suffix of length at most i*n.
    """
    dfa = a.dfa
    ins = sorted(ti.input_alphabet)
    outs = sorted(ti.output_alphabet)
    in_ahead_kind = PEND_IN if len(ins) <= len(outs) else GUESS_OUT
    out_ahead_kind = PEND_OUT if len(outs) <= len(ins) else GUESS_IN
    cap1 = params.gamma + 1
    cap2 = params.gamma + 1 + params.guess_budget

    def astep(q, *letters):
        for letter in letters:
            if q is None:
                return None
            q = dfa.delta(q, letter)
        return q

    def pair_step(q, x, y):
        return astep(q, inp(x), out(y))

    # core states: (stage, a_state, queue, kind, tail)
    #   stage 1: lag-bounded prefix, no tail commitments
    #   stage 2: block zone; tail in {None, "in", "out"}
    def consume_arrival(state, letter: Letter):
        """Successor core states for one arriving letter."""
        stage, q, queue, kind, tail = state
        results = []
        cap = cap1 if stage == 1 else cap2
        sym = letter.symbol

        if letter.tape is Tape.INPUT:
            if tail == "out":
                if kind == GUESS_IN and queue:
                    if queue[0] == sym:
                        results.append((stage, q, queue[1:], kind if len(queue) > 1 else None, tail))
                return results
            if tail == "in":
                if kind == GUESS_IN and queue:
                    if queue[0] == sym:
                        results.append((stage, q, queue[1:], kind if len(queue) > 1 else None, tail))
                    return results
                q2 = astep(q, inp(sym))
                if q2 is not None:
                    results.append((stage, q2, queue, kind, tail))
                return results
            if kind == PEND_OUT and queue:
                q2 = pair_step(q, sym, queue[0])
                if q2 is not None:
                    results.append((stage, q2, queue[1:], kind if len(queue) > 1 else None, tail))
                return results
            if kind == GUESS_IN and queue:
                if queue[0] == sym:
                    results.append((stage, q, queue[1:], kind if len(queue) > 1 else None, tail))
                return results
            # input side runs ahead
            if in_ahead_kind == PEND_IN:
                if (not queue or kind == PEND_IN) and len(queue) < cap:
                    results.append((stage, q, queue + (sym,), PEND_IN, tail))
            else:
                if (not queue or kind == GUESS_OUT) and len(queue) < cap:
                    for guess in outs:
                        q2 = pair_step(q, sym, guess)
                        if q2 is not None:
                            results.append((stage, q2, queue + (guess,), GUESS_OUT, tail))
            if stage == 2 and not (kind == PEND_OUT and queue):
                # commit to an input tail: the pair part of the word is over
                base = [(q, queue, kind)]
                if kind == PEND_IN and queue:
                    q2 = astep(q, *(inp(x) for x in queue))
                    base = [(q2, (), None)] if q2 is not None else []
                for qb, qu, kb in base:
                    q2 = astep(qb, inp(sym))
                    if q2 is not None:
                        results.append((stage, q2, qu, kb, "in"))
            return results

        # output letter
        if tail == "in":
            if kind == GUESS_OUT and queue:
                if queue[0] == sym:
                    results.append((stage, q, queue[1:], kind if len(queue) > 1 else None, tail))
            return results
        if tail == "out":
            if kind == GUESS_OUT and queue:
                if queue[0] == sym:
                    results.append((stage, q, queue[1:], kind if len(queue) > 1 else None, tail))
                return results
            q2 = astep(q, out(sym))
            if q2 is not None:
                results.append((stage, q2, queue, kind, tail))
            return results
        if kind == PEND_IN and queue:
            q2 = pair_step(q, queue[0], sym)
            if q2 is not None:
                results.append((stage, q2, queue[1:], kind if len(queue) > 1 else None, tail))
            return results
        if kind == GUESS_OUT and queue:
            if queue[0] == sym:
                results.append((stage, q, queue[1:], kind if len(queue) > 1 else None, tail))
            return results
        # output side runs ahead
        if out_ahead_kind == PEND_OUT:
            if (not queue or kind == PEND_OUT) and len(queue) < cap:
                results.append((stage, q, queue + (sym,), PEND_OUT, tail))
        else:
            if (not queue or kind == GUESS_IN) and len(queue) < cap:
                for guess in ins:
                    q2 = pair_step(q, guess, sym)
                    if q2 is not None:
                        results.append((stage, q2, queue + (guess,), GUESS_IN, tail))
        if stage == 2 and not (kind == GUESS_IN and queue):
            # commit to an output tail
            base = [(q, queue, kind)]
            if kind == PEND_OUT and queue:
                q2 = astep(q, *(out(y) for y in queue))
                base = [(q2, (), None)] if q2 is not None else []
            for qb, qu, kb in base:
                q2 = astep(qb, out(sym))
                if q2 is not None:
                    results.append((stage, q2, qu, kb, "out"))
        return results

    def core_step(state, letter: Letter):
        results = set(consume_arrival(state, letter))
        stage = state[0]
        if stage == 1:
            switched = (2,) + state[1:]
            results.update(consume_arrival(switched, letter))
        return results

    def core_final(state):
        stage, q, queue, kind, tail = state
        if kind in (GUESS_IN, GUESS_OUT) and queue:
            return False
        if kind == PEND_IN and queue:
            q = astep(q, *(inp(x) for x in queue))
        if kind == PEND_OUT and queue:
            q = astep(q, *(out(y) for y in queue))
        return q is not None and q in dfa.finals

    core_init = (1, dfa.initial, (), None, None)
    initial = (core_init, ti.initial)
    letters = tuple(inp(s) for s in ins) + tuple(out(s) for s in outs)
    cap_out = tape_capacity(ti, Tape.OUTPUT)
    cap_in = tape_capacity(ti, Tape.INPUT)

    def viable(core, before, tstate) -> bool:
        _, _, queue, kind, _ = core
        if not queue:
            return True
        # guessed letters must still be able to arrive from this target state
        if kind == GUESS_OUT:
            limit = cap_out[tstate]
            if limit is not None and len(queue) > limit:
                return False
        if kind == GUESS_IN:
            limit = cap_in[tstate]
            if limit is not None and len(queue) > limit:
                return False
        # pending letters may only pile up while the other tape can still
        # supply pairs; past that point the tail-commitment branch covers
        # the same words without a queue
        grew = len(queue) > len(before[2])
        if grew and kind == PEND_OUT and cap_in[tstate] == 0:
            return False
        if grew and kind == PEND_IN and cap_out[tstate] == 0:
            return False
        return True

    def step(state, letter):
        core, tstate = state
        nxt = []
        for t2 in sorted(ti.successors(tstate, letter)):
            for c2 in core_step(core, letter):
                if viable(c2, core, t2):
                    nxt.append((c2, t2))
        return nxt

    def is_final(state):
        core, tstate = state
        return tstate in ti.finals and core_final(core)

    raw = explore_nfa(
        initial,
        letters,
        step,
        is_final,
        ti.input_alphabet,
        ti.output_alphabet,
        prefix="c",
        cap=state_cap,
    )
    return relabel(trim(raw), prefix="c")


def shape_input_then_output(input_alphabet, output_alphabet) -> Dfa:
    """All words whose inputs strictly precede their outputs."""
    transitions = set()
    for s in sorted(input_alphabet):
        transitions.add(("in", inp(s), "in"))
    for s in sorted(output_alphabet):
        transitions.add(("in", out(s), "out"))
        transitions.add(("out", out(s), "out"))
    return Dfa(
        input_alphabet=frozenset(input_alphabet),
        output_alphabet=frozenset(output_alphabet),
        states=frozenset({"in", "out"}),
        initial="in",
        transitions=frozenset(transitions),
        finals=frozenset({"in", "out"}),
    )


def build_Tprime_recognizable(s_can: Dfa, t: Nfa) -> Nfa:
    """Target words whose pair the finite-shift source accepts.

    The source must be in input-then-output form; the construction guesses
    the hand-off state between the input run and the output run.
    """
    shape = shape_input_then_output(s_can.input_alphabet, s_can.output_alphabet)
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

    letters = tuple(inp(s) for s in sorted(s_can.input_alphabet)) + tuple(
        out(s) for s in sorted(s_can.output_alphabet)
    )
    guesser = explore_nfa(
        "start",
        letters,
        fan_step,
        fan_final,
        s_can.input_alphabet,
        s_can.output_alphabet,
        prefix="g",
    )
    return relabel(trim(product(guesser, t, mode="intersect")), prefix="p")
