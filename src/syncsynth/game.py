"""Safety game between the input player and the output player, deciding
whether an endmarked language has a uniformization from inside itself.

The output player wins if it can always complete the word being built to an
accepted one once the input player ends the stream; emission bursts are
capped so stalling is never a winning option.
"""
from __future__ import annotations

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
)
from .letters import SyncWord, Tape, decode, inp, out


class MissingEndmarkers(AutomatonError):
    pass


class NotWinning(AutomatonError):
    pass


# vertices -------------------------------------------------------------------
#   ("out", p, d, phase, burst)   output player to move
#   ("in", p, d, phase)           input player to move (burst resets on yield)
#   ("win",)                      vacuous win for the output player
#   ("lose",)                     loss for the output player
#   ("done",)                     word completed at an accepting state
# moves: ("emit", o) | ("yield",) | ("finish",) for Out;
#        ("play", a) | ("end",) for In.


@dataclass(frozen=True)
class GameArena:
    s_prime: Nfa
    p_dfa: Dfa
    d_dfa: Dfa
    cap: int
    vertices: frozenset
    moves: dict  # vertex -> sorted tuple of (move, successor)
    initial: tuple


def build_arena(s_prime: Nfa, cap: Optional[int] = None) -> GameArena:
    """Arena over the minimal DFAs of the endmarked language and of its input
    projection, which is read off the first; the input player advances both,
    emissions advance the word automaton only. Both DFAs are trim, so a
    missing edge is the only way out of either language."""
    if END_IN not in s_prime.input_alphabet or END_OUT not in s_prime.output_alphabet:
        raise MissingEndmarkers("build_arena expects an endmarked language")
    p_dfa = minimize(determinize(s_prime))
    d_dfa = minimize(determinize(project_input(p_dfa)))
    if cap is None:
        cap = len(p_dfa.states) * len(d_dfa.states) + 1

    base_inputs = sorted(s_prime.input_alphabet - {END_IN})
    base_outputs = sorted(s_prime.output_alphabet - {END_OUT})

    moves: dict = {}
    initial = ("out", p_dfa.initial, d_dfa.initial, "pre", 0)
    queue = deque([initial])
    seen = {initial, ("win",), ("lose",), ("done",)}
    while queue:
        v = queue.popleft()
        kind = v[0]
        out_moves = []
        if kind == "out":
            _, p, d, phase, burst = v
            for o in base_outputs:
                p2 = p_dfa.delta(p, out(o))
                if p2 is None:
                    continue
                nxt = ("out", p2, d, phase, burst + 1) if burst < cap else ("lose",)
                out_moves.append((("emit", o), nxt))
            if phase == "pre":
                out_moves.append((("yield",), ("in", p, d, phase)))
            elif p_dfa.delta(p, out(END_OUT)) in p_dfa.finals:
                out_moves.append((("finish",), ("done",)))
        elif kind == "in":
            _, p, d, phase = v
            for a in base_inputs:
                d2 = d_dfa.delta(d, inp(a))
                if d2 is None:
                    out_moves.append((("play", a), ("win",)))
                    continue
                p2 = p_dfa.delta(p, inp(a))
                nxt = ("out", p2, d2, "pre", 0) if p2 is not None else ("lose",)
                out_moves.append((("play", a), nxt))
            d2 = d_dfa.delta(d, inp(END_IN))
            if d2 is None or d2 not in d_dfa.finals:
                out_moves.append((("end",), ("win",)))
            else:
                p2 = p_dfa.delta(p, inp(END_IN))
                nxt = ("out", p2, d, "post", 0) if p2 is not None else ("lose",)
                out_moves.append((("end",), nxt))
        moves[v] = tuple(out_moves)
        for _, nxt in out_moves:
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return GameArena(
        s_prime=s_prime,
        p_dfa=p_dfa,
        d_dfa=d_dfa,
        cap=cap,
        vertices=frozenset(seen),
        moves=moves,
        initial=initial,
    )


def solve(arena: GameArena) -> tuple[frozenset, dict]:
    """Winning region of the output player and a positional strategy for the
    winner of each vertex: the move of each Out vertex in the region, and of
    each In vertex outside it.

    One backward pass over the predecessor index, linear in vertices plus
    moves (Grädel, Thomas & Wilke, LNCS 2500, ch. 2). After the endmark the
    output player must complete the word: a post-endmark Out vertex's rank is
    its BFS distance to ("done",), and an unranked one is lost. Before the
    endmark the game is safety: an In vertex is lost once one successor is,
    and its move is the one to that successor, and an Out vertex once every
    move's successor is. A play that follows the input player's moves thus
    reaches ever earlier losses, or grows its burst after the endmark, and
    never returns to a vertex.
    """
    preds: dict = {}
    for v, vmoves in arena.moves.items():
        for move, nxt in vmoves:
            preds.setdefault(nxt, []).append((v, move))

    def post_out(v) -> bool:
        return v[0] == "out" and v[3] == "post"

    rank = {("done",): 0, ("win",): 0}
    queue = deque(rank)
    while queue:
        v = queue.popleft()
        for u, _ in preds.get(v, ()):
            if post_out(u) and u not in rank:
                rank[u] = rank[v] + 1
                queue.append(u)

    # a dict keeps the loss order, and so the input player's moves, free of the hash seed
    lost = dict.fromkeys([("lose",), *(v for v in arena.moves if post_out(v) and v not in rank)])
    remaining = {
        v: len(vmoves) for v, vmoves in arena.moves.items() if v[0] == "out" and v[3] == "pre"
    }
    choices = {}
    queue = deque(lost)
    while queue:
        v = queue.popleft()
        for u, move in preds.get(v, ()):
            if u in lost or post_out(u):
                continue
            if u[0] == "out":
                remaining[u] -= 1
                if remaining[u]:
                    continue
            else:
                choices[u] = move
            lost[u] = None
            queue.append(u)

    for v, vmoves in arena.moves.items():
        if v[0] != "out" or v in lost:
            continue
        if v[3] == "post":
            candidates = [m for m, nxt in vmoves if rank.get(nxt) == rank[v] - 1]
        else:
            candidates = [m for m, nxt in vmoves if nxt not in lost]
        choices[v] = min(candidates, key=_move_key)
    return arena.vertices.difference(lost), choices


def _move_key(move):
    # finish < yield < emissions by letter; determinism of extracted machines
    order = {"finish": 0, "yield": 1, "emit": 2}
    return (order.get(move[0], 3), move[1:])


def in_spoiling_strategy(strategy: dict) -> dict:
    """The input player's part of a strategy from `solve`: one move for each
    In vertex outside the winning region."""
    return {v: move for v, move in strategy.items() if v[0] == "in"}


def replay_spoiler(arena: GameArena, region: frozenset, spoiler: dict) -> bool:
    """Check the spoiling certificate: every play from the initial vertex that
    follows it ends in a loss for the output player, at ("lose",) or at an Out
    vertex with no move. A play that returns to a vertex never ends, and an
    endless play is a win for the output player."""
    ended = set()  # vertices from which every play ends in a loss
    play = set()  # the vertices of the play being followed
    stack = [(arena.initial, None)]
    while stack:
        v, succs = stack[-1]
        if succs is None:
            if v in region:
                return False
            if v[0] == "in":
                move = spoiler.get(v)
                if move is None:
                    return False
                succs = iter((dict(arena.moves[v])[move],))
            else:
                succs = iter([nxt for _, nxt in arena.moves.get(v, ())])
            stack[-1] = (v, succs)
            play.add(v)
        nxt = next(succs, None)
        if nxt is None:
            stack.pop()
            play.discard(v)
            ended.add(v)
        elif nxt in play:
            return False
        elif nxt not in ended:
            stack.append((nxt, None))
    return True


def extract_sdfa(arena: GameArena, strategy: dict) -> SequentialDfa:
    """The minimal sequential machine of the winning strategy, over the
    endmarked alphabet.

    `explore_nfa` walks the strategy's vertices, resolving yields. An In vertex
    reads each input (`⊣i` is its end move) unless that move is missing or
    leaves the domain (to ("win",)); a missing edge then rejects. An Out vertex
    takes its one strategy move, emitting o or `⊣o` for finish, and ("done",)
    is the one final vertex. `minimize` names the states, and the partition is
    read off the out-edges: a state with an output edge is an output state,
    every other one, the final state included, an input state. After `trim`
    every state's future is non-empty; an input state's starts with an input
    letter or is {ε}, an output state's starts with an output letter, so
    Hopcroft never merges the two kinds.
    """
    if strategy.get(arena.initial) is None:
        raise NotWinning("initial vertex is not in the winning region")

    def resolve(v):
        while v[0] == "out" and strategy.get(v) == ("yield",):
            v = dict(arena.moves[v])[("yield",)]
        return v

    def step(v, letter):
        if v[0] == "in" and letter.tape is Tape.INPUT:
            move = ("end",) if letter.symbol == END_IN else ("play", letter.symbol)
        elif v[0] == "out":
            move = strategy.get(v)
            if move is None:
                raise NotWinning(f"strategy undefined at {v}")
            if letter != out(END_OUT if move == ("finish",) else move[1]):
                return ()
        else:
            return ()
        nxt = dict(arena.moves[v]).get(move)
        return () if nxt is None or nxt == ("win",) else (resolve(nxt),)

    machine = minimize(
        explore_nfa(
            resolve(arena.initial),
            step,
            lambda v: v == ("done",),
            arena.s_prime.input_alphabet,
            arena.s_prime.output_alphabet,
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
