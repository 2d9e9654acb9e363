"""Canonicalization: rebuild a finite-shiftlag source as an equivalent
language of canonical (alternate-then-flush) synchronizations.

The reader runs one buffered copy of the source on the lag-bounded prefix
and one copy per pure block, feeding each copy its own letters as they
arrive in canonical order; guessed hand-off states are verified at the end.

Both readers drop states that fail a necessary condition for reaching a
final state, so the pruning leaves `determinize(trim(reader))` unchanged;
states that pass may still be dead. `canonicalize_finite_shift` guesses a
hand-off state only where the run it ends can reach it. `canonicalize`'s
reader tracks the canonical shape and routes no letter the shape forbids;
it keeps a state only if its buffer is not stranded (see `canonicalize`),
the prefix copy can still drain that buffer, and the chain of guessed
blocks can still connect from where that copy may end.

Both canonicalizers return the minimal DFA of their reader's language.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cache

from .analysis import ShiftlagCertificate, least_lag_bound, most_counted, run_starts
from .automata import (
    AutomatonError,
    Dfa,
    Nfa,
    determinize,
    explore_nfa,
    minimize,
    reachable,
    strict_tape_closure,
    tape_closure,
    trim,
)
from .letters import PARTNER, Letter, Tape


class InvalidCertificate(AutomatonError):
    pass


# the canonical shape: tapes alternate input-first, then one tape flushes
SHAPE = {
    ("even", Tape.INPUT): "odd",
    ("odd", Tape.INPUT): "itail",
    ("itail", Tape.INPUT): "itail",
    ("odd", Tape.OUTPUT): "even",
    ("even", Tape.OUTPUT): "otail",
    ("otail", Tape.OUTPUT): "otail",
}


@dataclass(frozen=True)
class CanonicalDfa:
    """A DFA whose language consists of canonical synchronizations only."""

    dfa: Dfa


def canonicalize_finite_shift(s: Nfa, cert) -> Dfa:
    """Input-then-output canonical form of a finite-shift source.

    Words of the source have boundedly many pure runs; the reader walks the
    input runs against guessed hand-off states and replays the output runs
    through the same chain, with a free output run at the end. A hand-off
    state is guessed only among those an output run reaches from the
    current state, since no other guess is ever crossed.
    """
    if not cert.finite:
        raise InvalidCertificate("source has infinite shift")
    s = trim(s)
    max_pairs = cert.bound + 2
    # a word with at most `bound` shifts has at most bound + 1 runs; the cap
    # keeps the pass finite on a source whose shift is infinite
    if most_counted(s, max_pairs, run_starts)[s.initial, None] > cert.bound + 1:
        raise InvalidCertificate("certificate's shift bound does not cover this source")
    out_reach = tape_closure(s, Tape.OUTPUT)

    # states: ("in", cur, committed pairs) then ("out", cur, remaining pairs)
    initial = ("in", s.initial, ())

    def fold_out(cur, pairs):
        """Positions reachable by crossing completed-output-run boundaries."""
        results = [(cur, pairs)]
        while pairs and cur == pairs[0][1]:
            pairs = pairs[1:]
            if pairs:
                cur = pairs[0][0]
            results.append((cur, pairs))
        return results

    def step(state, letter: Letter):
        phase, cur, pairs = state
        nxt = []
        if phase == "in":
            if letter.tape is Tape.INPUT:
                for q2 in s.successors(cur, letter):
                    nxt.append(("in", q2, pairs))
                if len(pairs) < max_pairs - 1:
                    # cross a boundary first: commit this input run's end and
                    # restart after a guessed output run
                    for b in sorted(out_reach[cur]):
                        for q2 in s.successors(b, letter):
                            nxt.append(("in", q2, pairs + ((cur, b),)))
            else:
                # switch to the output phase, closing the input part here
                for b in sorted(out_reach[cur]):
                    closed = pairs + ((cur, b),)
                    for c, rem in fold_out(closed[0][0], closed):
                        for q2 in s.successors(c, letter):
                            for c2, rem2 in fold_out(q2, rem):
                                nxt.append(("out", c2, rem2))
            return nxt
        if letter.tape is not Tape.OUTPUT:
            return []
        for q2 in s.successors(cur, letter):
            for c2, rem2 in fold_out(q2, pairs):
                nxt.append(("out", c2, rem2))
        return nxt

    def is_final(state):
        phase, cur, pairs = state
        if phase == "in":
            # pure-input word: every committed output run must be empty
            return all(a == b for a, b in pairs) and cur in s.finals
        return any(not rem and c in s.finals for c, rem in fold_out(cur, pairs))

    reader = explore_nfa(
        initial,
        step,
        is_final,
        s.input_alphabet,
        s.output_alphabet,
        prefix="f",
        name="canonicalize_finite_shift",
    )
    return minimize(determinize(trim(reader)))


def canonicalize(s: Nfa, cert: ShiftlagCertificate) -> CanonicalDfa:
    """Language-level resynchronization of a finite-shiftlag source onto
    canonical words; the relation of pairs is preserved exactly.

    The reader tracks the canonical shape DFA's state, so a letter the shape
    forbids has no successor, and keeps a state only while two conditions
    hold that every state on a path to a final one meets:
    - drain: some run of the prefix copy reads its whole buffer, in order,
      with letters of the tapes that may still reach it (tapes the shape
      allows with no block open) interleaved; a buffer is consumed only
      when such a letter arrives;
    - chain: walking the blocks in merged order from the states that run
      may end in, each guessed start lies among the states the chain can
      stand at there. An open block may still grow by its own tape only if
      it is the last of that tape and the shape allows the tape, and a
      block still missing between two open ones must read a letter.
    Guesses, blocks and the shape only narrow the future, so a state that
    fails either has no accepting continuation.

    A buffer holds letters of one tape. Once its partner tape is closed to
    the prefix copy, because the shape forbids that tape or a block of it is
    open, the buffer is stranded, and the state is dropped. From then on the
    copy reads only the buffer followed by later letters of the buffer's
    tape, in order, so every accepting run from the state consumes the
    buffer exactly so. Each state where that is done was already reached
    with no buffer left: when the buffer's last letter reached the copy, the
    reader also took the branch that consumed the whole buffer, and only
    block steps, which leave the copy alone, have run since. So dropping the
    stranded state loses no word. The checks are memoized for the call.
    """
    if not cert.finite:
        raise InvalidCertificate("source has infinite shiftlag")
    s = trim(s)
    m = cert.m
    # smallest lag bound that still covers the prefix part
    nu_hat = least_lag_bound(s, m, cert.nu)
    if nu_hat is None:
        raise InvalidCertificate("certificate inclusion fails on this source")
    buf_cap = nu_hat + 1

    finals = s.finals

    reach = {tape: tape_closure(s, tape) for tape in Tape}
    reach_plus = {tape: strict_tape_closure(s, tape) for tape in Tape}
    # per letter, the blocks it may open: (guessed start, state after it)
    openers: dict = {}
    for g in sorted(s.states):
        for letter, c2 in s.out_edges(g):
            openers.setdefault(letter, []).append((g, c2))
    allowed_tapes: dict = {}
    for p, t in SHAPE:
        allowed_tapes.setdefault(p, set()).add(t)

    # reader state:
    #   (shape, q0copy, buf, first_tape, in_blocks, out_blocks)
    # shape: state of the canonical shape DFA on the letters read so far
    # buf: letters routed to the prefix copy, arrived but not yet consumed
    # *_blocks: ((guessed_start, current), ...) per opened pure block
    initial = ("even", s.initial, (), None, (), ())

    @cache
    def consumptions(q: str, buf: tuple) -> tuple:
        """All (state, remaining-buffer) pairs after consuming greedily.

        Remaining buffers mixing both tapes are pruned: an eager run never
        needs them, and they would blow up the state space.
        """
        ins = tuple(l for l in buf if l.tape is Tape.INPUT)
        outs = tuple(l for l in buf if l.tape is Tape.OUTPUT)

        def successors(node):
            state, i, j = node
            nxt = []
            if i < len(ins):
                nxt += [(q2, i + 1, j) for q2 in s.successors(state, ins[i])]
            if j < len(outs):
                nxt += [(q2, i, j + 1) for q2 in s.successors(state, outs[j])]
            return nxt

        results = {
            (state, ins[i:] + outs[j:])
            for state, i, j in reachable([(q, 0, 0)], successors)
            if (i == len(ins) or j == len(outs)) and len(ins) - i + len(outs) - j <= buf_cap
        }
        return tuple(sorted(results, key=repr))

    def block_index_ok(first_tape, tape, count):
        # the count-th block of this tape sits at an alternating global index
        if first_tape == tape:
            idx = 2 * count - 1
        else:
            idx = 2 * count
        return idx <= m

    def step(state, letter: Letter):
        shape, q0, buf, first, in_blocks, out_blocks = state
        tape = letter.tape
        shape = SHAPE.get((shape, tape))
        if shape is None:
            return []
        nxt = []
        blocks = in_blocks if tape is Tape.INPUT else out_blocks

        def with_blocks(ft, nb):
            if tape is Tape.INPUT:
                return (shape, q0, buf, ft, nb, out_blocks)
            return (shape, q0, buf, ft, in_blocks, nb)

        # (1) route to the prefix copy, if its share of this tape is still open
        if not blocks:
            for q2, rest in consumptions(q0, buf + (letter,)):
                nxt.append((shape, q2, rest, first, in_blocks, out_blocks))
        else:
            # (2) feed the currently open block of this tape
            g, c = blocks[-1]
            for c2 in s.successors(c, letter):
                nxt.append(with_blocks(first, blocks[:-1] + ((g, c2),)))
        # (3) open a new block of this tape
        count = len(blocks) + 1
        firsts = [first] if first is not None else [Tape.INPUT, Tape.OUTPUT]
        for ft in firsts:
            if not block_index_ok(ft, tape, count):
                continue
            for g, c2 in openers.get(letter, ()):
                nxt.append(with_blocks(ft, blocks + ((g, c2),)))
        return [st for st in nxt if viable(st)]

    @cache
    def drain_set(q0, buf: tuple, tapes: frozenset) -> frozenset:
        """Where the prefix copy can end: the states reached from q0 by
        reading `buf` in order with letters of `tapes` interleaved anywhere.
        Letters reach the prefix copy only on those tapes, and its buffer
        is consumed only when one arrives."""
        if not tapes:
            return frozenset() if buf else frozenset({q0})

        def successors(node):
            q, i = node
            nxt = []
            for letter, q2 in s.out_edges(q):
                if letter.tape in tapes:
                    nxt.append((q2, i))
                if i < len(buf) and letter == buf[i]:
                    nxt.append((q2, i + 1))
            return nxt

        return frozenset(q for q, i in reachable([(q0, 0)], successors) if i == len(buf))

    @cache
    def merged_order(first, n_in: int, n_out: int) -> tuple:
        """(tape, index) of each block in the merged order `is_final` chains
        them, up to the last open block, given the open blocks per tape; an
        index past its tape's open blocks is a block that must still open."""
        if first is None:
            return ()
        counts = {Tape.INPUT: n_in, Tape.OUTPUT: n_out}
        tapes = (first, PARTNER[first])
        order = [(t, k) for k in range(max(n_in, n_out)) for t in tapes]
        while order[-1][1] >= counts[order[-1][0]]:
            order.pop()
        return tuple(order)

    @cache
    def viable(state):
        """The buffer is not stranded, and the drain and chain conditions
        above hold."""
        shape, q0, buf, first, in_blocks, out_blocks = state
        blocks = {Tape.INPUT: in_blocks, Tape.OUTPUT: out_blocks}
        allowed = allowed_tapes[shape]
        open_tapes = frozenset(t for t in allowed if not blocks[t])
        if buf and PARTNER[buf[0].tape] not in open_tapes:
            return False
        current = drain_set(q0, buf, open_tapes)
        for t, k in merged_order(first, len(in_blocks), len(out_blocks)):
            if k < len(blocks[t]):
                g, c = blocks[t][k]
                if g not in current:
                    return False
                current = reach[t][c] if k == len(blocks[t]) - 1 and t in allowed else {c}
            elif t in allowed:
                current = set().union(*(reach_plus[t][q] for q in current))
            else:
                return False
        return bool(current)

    def is_final(state):
        _, q0, buf, first, in_blocks, out_blocks = state
        if buf:
            return False
        blocks = {Tape.INPUT: in_blocks, Tape.OUTPUT: out_blocks}
        cur = q0
        for t, k in merged_order(first, len(in_blocks), len(out_blocks)):
            if k >= len(blocks[t]) or blocks[t][k][0] != cur:
                return False
            cur = blocks[t][k][1]
        return cur in finals

    reader = explore_nfa(
        initial,
        step,
        is_final,
        s.input_alphabet,
        s.output_alphabet,
        prefix="r",
        name="canonicalize",
    )
    return CanonicalDfa(dfa=minimize(determinize(trim(reader))))
