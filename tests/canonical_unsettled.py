"""The canonical reader that leaves stranded buffers in place, as a reference.

`canonicalize_unsettled` is `syncsynth.canonical.canonicalize` with one
difference: when a buffer of one tape is stranded, its partner tape closed to
the prefix copy, it keeps the buffer and consumes it only as later letters
arrive, where `canonicalize` consumes it at once. Its reader is larger (347
states on the intro source, 3,612 on the delay source at m = 8, against 241
and 90), and `test_canonical.py` checks that both return the same canonical
DFA.
"""
from __future__ import annotations

from functools import cache

from syncsynth.analysis import ShiftlagCertificate, least_lag_bound
from syncsynth.automata import (
    Nfa,
    determinize,
    explore_nfa,
    minimize,
    strict_tape_closure,
    tape_closure,
    trim,
)
from syncsynth.canonical import SHAPE, CanonicalDfa, InvalidCertificate
from syncsynth.letters import PARTNER, Letter, Tape


def canonicalize_unsettled(s: Nfa, cert: ShiftlagCertificate) -> CanonicalDfa:
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
    Guesses, blocks and the shape only narrow the future, so a dropped
    state has no accepting continuation.
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
                for q2 in s.successors(state, rest_in[0]):
                    stack.append((q2, i + 1, j))
            if rest_out:
                for q2 in s.successors(state, rest_out[0]):
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
        seen = {(q0, 0)}
        stack = [(q0, 0)]
        while stack:
            q, i = stack.pop()
            for letter, q2 in s.out_edges(q):
                nodes = [(q2, i)] if letter.tape in tapes else []
                if i < len(buf) and letter == buf[i]:
                    nodes.append((q2, i + 1))
                for node in nodes:
                    if node not in seen:
                        seen.add(node)
                        stack.append(node)
        return frozenset(q for q, i in seen if i == len(buf))

    def merged_order(first, blocks: dict) -> list:
        """(tape, index) of each block in the merged order `is_final` chains
        them, up to the last open block; an index past its tape's open
        blocks is a block that must still open."""
        if first is None:
            return []
        tapes = (first, PARTNER[first])
        order = [(t, k) for k in range(max(map(len, blocks.values()))) for t in tapes]
        while order[-1][1] >= len(blocks[order[-1][0]]):
            order.pop()
        return order

    def viable(state):
        """The drain and chain conditions above."""
        shape, q0, buf, first, in_blocks, out_blocks = state
        blocks = {Tape.INPUT: in_blocks, Tape.OUTPUT: out_blocks}
        allowed = allowed_tapes[shape]
        current = drain_set(q0, buf, frozenset(t for t in allowed if not blocks[t]))
        for t, k in merged_order(first, blocks):
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
        for t, k in merged_order(first, blocks):
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
