"""Canonicalization: rebuild a finite-shiftlag source as an equivalent
language of canonical (alternate-then-flush) synchronizations.

The reader runs one buffered copy of the source on the lag-bounded prefix
and one copy per pure block, feeding each copy its own letters as they
arrive in canonical order; guessed hand-off states are verified at the end.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .analysis import ShiftlagCertificate, lag_blocks_cover, least_true
from .automata import (
    AutomatonError,
    Dfa,
    Nfa,
    STATE_CAP,
    determinize,
    explore_nfa,
    inclusion,
    product,
    relabel,
    trim,
)
from .letters import Letter, SyncWord, Tape, inp, out


class InvalidCertificate(AutomatonError):
    pass


def canonical_sync(u: Sequence[str], v: Sequence[str]) -> SyncWord:
    """Interleave strictly alternately (input first), then flush the longer tail."""
    letters = []
    for x, y in zip(u, v):
        letters.append(inp(x))
        letters.append(out(y))
    n = min(len(u), len(v))
    letters.extend(inp(x) for x in u[n:])
    letters.extend(out(y) for y in v[n:])
    return tuple(letters)


def canonical_shape_dfa(input_alphabet, output_alphabet) -> Dfa:
    """All words whose tag projection alternates input-first then stays on one tape."""
    ins = [inp(s) for s in sorted(input_alphabet)]
    outs = [out(s) for s in sorted(output_alphabet)]
    transitions = set()
    for l in ins:
        transitions.add(("even", l, "odd"))
        transitions.add(("odd", l, "itail"))
        transitions.add(("itail", l, "itail"))
    for l in outs:
        transitions.add(("odd", l, "even"))
        transitions.add(("even", l, "otail"))
        transitions.add(("otail", l, "otail"))
    return Dfa(
        input_alphabet=frozenset(input_alphabet),
        output_alphabet=frozenset(output_alphabet),
        states=frozenset({"even", "odd", "itail", "otail"}),
        initial="even",
        transitions=frozenset(transitions),
        finals=frozenset({"even", "odd", "itail", "otail"}),
    )


@dataclass(frozen=True)
class CanonicalDfa:
    """A DFA whose language consists of canonical synchronizations only."""

    dfa: Dfa

    @classmethod
    def from_dfa(cls, d: Dfa, check_shape: bool = True) -> "CanonicalDfa":
        if check_shape:
            shape = canonical_shape_dfa(d.input_alphabet, d.output_alphabet)
            ok, witness = inclusion(d, shape)
            if not ok:
                raise AutomatonError(f"not canonical-shaped, e.g. {witness}")
        return cls(dfa=d)

    def run_pair(self, q: Optional[str], x: Sequence[str], y: Sequence[str]) -> Optional[str]:
        """State reached from q on the canonical synchronization of (x, y)."""
        if q is None:
            return None
        return self.dfa.run(canonical_sync(x, y), start=q)

    def accepts_pair(self, x: Sequence[str], y: Sequence[str]) -> bool:
        return self.dfa.accepts_word(canonical_sync(x, y))


def canonicalize_finite_shift(s: Nfa, cert, state_cap: Optional[int] = STATE_CAP) -> Dfa:
    """Input-then-output canonical form of a finite-shift source.

    Words of the source have boundedly many pure runs; the reader walks the
    input runs against guessed hand-off states and replays the output runs
    through the same chain, with a free output run at the end.
    """
    if not cert.finite:
        raise InvalidCertificate("source has infinite shift")
    s = trim(s)
    if not s.finals:
        return Dfa(
            input_alphabet=s.input_alphabet,
            output_alphabet=s.output_alphabet,
            states=frozenset({"e0"}),
            initial="e0",
            transitions=frozenset(),
            finals=frozenset(),
        )
    max_pairs = cert.bound + 2

    def s_step(q, letter):
        return sorted(s.successors(q, letter))

    # states: ("in", cur, committed pairs) then ("out", cur, remaining pairs)
    initial = ("in", s.initial, ())

    def fold_out(cur, pairs):
        """Positions reachable by crossing completed-output-run boundaries."""
        results = {(cur, pairs)}
        while pairs and cur == pairs[0][1]:
            pairs = pairs[1:]
            if pairs:
                cur = pairs[0][0]
            results.add((cur, pairs))
        return results

    def step(state, letter: Letter):
        phase, cur, pairs = state
        nxt = []
        if phase == "in":
            if letter.tape is Tape.INPUT:
                for q2 in s_step(cur, letter):
                    nxt.append(("in", q2, pairs))
                if len(pairs) < max_pairs - 1:
                    # cross a boundary first: commit this input run's end and
                    # restart after a guessed output run
                    for b in sorted(s.states):
                        for q2 in s_step(b, letter):
                            nxt.append(("in", q2, pairs + ((cur, b),)))
            else:
                # switch to the output phase, closing the input part here
                for b in sorted(s.states):
                    closed = pairs + ((cur, b),)
                    for c, rem in fold_out(closed[0][0], closed):
                        for q2 in s_step(c, letter):
                            for c2, rem2 in fold_out(q2, rem):
                                nxt.append(("out", c2, rem2))
            return nxt
        if letter.tape is not Tape.OUTPUT:
            return []
        for q2 in s_step(cur, letter):
            for c2, rem2 in fold_out(q2, pairs):
                nxt.append(("out", c2, rem2))
        return nxt

    def is_final(state):
        phase, cur, pairs = state
        if phase == "in":
            # pure-input word: every committed output run must be empty
            return all(a == b for a, b in pairs) and cur in s.finals
        return any(not rem and c in s.finals for c, rem in fold_out(cur, pairs))

    letters = tuple(inp(x) for x in sorted(s.input_alphabet)) + tuple(
        out(y) for y in sorted(s.output_alphabet)
    )
    reader = explore_nfa(
        initial, letters, step, is_final, s.input_alphabet, s.output_alphabet,
        prefix="f", cap=state_cap,
    )
    result = relabel(trim(determinize(trim(reader))), prefix="n")
    return Dfa(
        input_alphabet=result.input_alphabet,
        output_alphabet=result.output_alphabet,
        states=result.states,
        initial=result.initial,
        transitions=result.transitions,
        finals=result.finals,
    )


def canonicalize(
    s: Nfa, cert: ShiftlagCertificate, state_cap: Optional[int] = STATE_CAP
) -> CanonicalDfa:
    """Language-level resynchronization of a finite-shiftlag source onto
    canonical words; the relation of pairs is preserved exactly."""
    if not cert.is_finite:
        raise InvalidCertificate("source has infinite shiftlag")
    s = trim(s)
    if not s.finals:
        empty = Dfa(
            input_alphabet=s.input_alphabet,
            output_alphabet=s.output_alphabet,
            states=frozenset({"e0"}),
            initial="e0",
            transitions=frozenset(),
            finals=frozenset(),
        )
        return CanonicalDfa.from_dfa(empty, check_shape=False)
    m = cert.m
    # smallest lag bound that still covers the prefix part
    nu_hat = least_true(lambda nu: lag_blocks_cover(s, nu, m), 0, cert.nu)
    if nu_hat is None:
        raise InvalidCertificate("certificate inclusion fails on this source")
    buf_cap = nu_hat + 1

    finals = s.finals

    def s_step(q: str, letter: Letter):
        return sorted(s.successors(q, letter))

    # reader state:
    #   (q0copy, buf, first_tape, in_blocks, out_blocks)
    # buf: letters routed to the prefix copy, arrived but not yet consumed
    # *_blocks: ((guessed_start, current), ...) per opened pure block
    initial = (s.initial, (), None, (), ())

    def consumptions(q: str, buf: tuple):
        """All (state, remaining-buffer) pairs after consuming greedily.

        Remaining buffers mixing both tapes are pruned: an eager run never
        needs them, and they would blow up the state space.
        """
        results = set()
        in_queue = tuple(l for l in buf if l.tape is Tape.INPUT)
        out_queue = tuple(l for l in buf if l.tape is Tape.OUTPUT)
        seen = set()
        stack = [(q, 0, 0)]
        while stack:
            state, i, j = stack.pop()
            if (state, i, j) in seen:
                continue
            seen.add((state, i, j))
            rest_in = in_queue[i:]
            rest_out = out_queue[j:]
            if not rest_in or not rest_out:
                rest = rest_in + rest_out
                if len(rest) <= buf_cap:
                    results.add((state, rest))
            if rest_in:
                for q2 in s_step(state, rest_in[0]):
                    stack.append((q2, i + 1, j))
            if rest_out:
                for q2 in s_step(state, rest_out[0]):
                    stack.append((q2, i, j + 1))
        return sorted(results, key=repr)

    def block_index_ok(first_tape, tape, count):
        # the count-th block of this tape sits at an alternating global index
        if first_tape == tape:
            idx = 2 * count - 1
        else:
            idx = 2 * count
        return idx <= m

    def step(state, letter: Letter):
        q0, buf, first, in_blocks, out_blocks = state
        tape = letter.tape
        nxt = []
        blocks = in_blocks if tape is Tape.INPUT else out_blocks
        # (1) route to the prefix copy, if its share of this tape is still open
        if not blocks:
            for q2, rest in consumptions(q0, buf + (letter,)):
                nxt.append((q2, rest, first, in_blocks, out_blocks))
        # (2) feed the currently open block of this tape
        if blocks:
            g, c = blocks[-1]
            for c2 in s_step(c, letter):
                nb = blocks[:-1] + ((g, c2),)
                if tape is Tape.INPUT:
                    nxt.append((q0, buf, first, nb, out_blocks))
                else:
                    nxt.append((q0, buf, first, in_blocks, nb))
        # (3) open a new block of this tape
        count = len(blocks) + 1
        firsts = [first] if first is not None else [Tape.INPUT, Tape.OUTPUT]
        for ft in firsts:
            if not block_index_ok(ft, tape, count):
                continue
            for g in sorted(s.states):
                for c2 in s_step(g, letter):
                    nb = blocks + ((g, c2),)
                    if tape is Tape.INPUT:
                        nxt.append((q0, buf, ft, nb, out_blocks))
                    else:
                        nxt.append((q0, buf, ft, in_blocks, nb))
        return nxt

    def is_final(state):
        q0, buf, first, in_blocks, out_blocks = state
        if buf:
            return False
        ni, no = len(in_blocks), len(out_blocks)
        if ni == no == 0:
            return q0 in finals
        if abs(ni - no) > 1:
            return False
        if ni > no and first is not Tape.INPUT:
            return False
        if no > ni and first is not Tape.OUTPUT:
            return False
        merged = []
        a, b = (in_blocks, out_blocks) if first is Tape.INPUT else (out_blocks, in_blocks)
        for k in range(max(ni, no)):
            if k < len(a):
                merged.append(a[k])
            if k < len(b):
                merged.append(b[k])
        cur = q0
        for g, c in merged:
            if g != cur:
                return False
            cur = c
        return cur in finals

    letters = tuple(inp(x) for x in sorted(s.input_alphabet)) + tuple(
        out(y) for y in sorted(s.output_alphabet)
    )
    reader = explore_nfa(
        initial,
        letters,
        step,
        is_final,
        s.input_alphabet,
        s.output_alphabet,
        prefix="r",
        cap=state_cap,
    )
    shaped = product(
        reader, canonical_shape_dfa(s.input_alphabet, s.output_alphabet), mode="intersect"
    )
    result = relabel(trim(determinize(trim(shaped))), prefix="n")
    dfa = Dfa(
        input_alphabet=result.input_alphabet,
        output_alphabet=result.output_alphabet,
        states=result.states,
        initial=result.initial,
        transitions=result.transitions,
        finals=result.finals,
    )
    return CanonicalDfa.from_dfa(dfa, check_shape=False)
