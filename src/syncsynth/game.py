"""Safety game between the input player and the output player, deciding
whether an endmarked language has a uniformization from inside itself.

The output player wins if it can always complete the word being built to an
accepted one once the input player ends the stream; emission bursts are
capped so stalling is never a winning option.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Optional

from .automata import (
    AutomatonError,
    Dfa,
    END_IN,
    END_OUT,
    Nfa,
    SequentialDfa,
    coreachable_states,
    determinize,
    inclusion,
    project_input,
)
from .letters import SyncWord, inp, out


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


@dataclass(frozen=True)
class Strategy:
    choices: dict  # Out vertex -> move

    def move_for(self, vertex):
        return self.choices.get(vertex)


def build_arena(s_prime: Nfa, cap: Optional[int] = None) -> GameArena:
    """Arena over the determinization of the endmarked language and of its
    input projection; the input player advances both, emissions advance the
    word automaton only."""
    if END_IN not in s_prime.input_alphabet or END_OUT not in s_prime.output_alphabet:
        raise MissingEndmarkers("build_arena expects an endmarked language")
    p_dfa = determinize(s_prime)
    d_dfa = determinize(project_input(s_prime))
    d_alive = coreachable_states(d_dfa)
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
                if d2 is None or d2 not in d_alive:
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


def solve(arena: GameArena) -> tuple[frozenset, Strategy]:
    """Winning region of the output player and a positional strategy on it.

    One backward pass over the predecessor index, linear in vertices plus
    moves (Grädel, Thomas & Wilke, LNCS 2500, ch. 2). After the endmark the
    output player must complete the word: a post-endmark Out vertex's rank is
    its BFS distance to ("done",), and an unranked one is lost. Before the
    endmark the game is safety: an In vertex is lost once one successor is,
    an Out vertex once every move's successor is.
    """
    preds: dict = {}
    for v, vmoves in arena.moves.items():
        for _, nxt in vmoves:
            preds.setdefault(nxt, []).append(v)

    def post_out(v) -> bool:
        return v[0] == "out" and v[3] == "post"

    rank = {("done",): 0, ("win",): 0}
    queue = deque(rank)
    while queue:
        v = queue.popleft()
        for u in preds.get(v, ()):
            if post_out(u) and u not in rank:
                rank[u] = rank[v] + 1
                queue.append(u)

    lost = {("lose",)} | {v for v in arena.moves if post_out(v) and v not in rank}
    remaining = {
        v: len(vmoves) for v, vmoves in arena.moves.items() if v[0] == "out" and v[3] == "pre"
    }
    queue = deque(lost)
    while queue:
        v = queue.popleft()
        for u in preds.get(v, ()):
            if u in lost or post_out(u):
                continue
            if u[0] == "out":
                remaining[u] -= 1
                if remaining[u]:
                    continue
            lost.add(u)
            queue.append(u)

    choices = {}
    for v, vmoves in arena.moves.items():
        if v[0] != "out" or v in lost:
            continue
        if v[3] == "post":
            candidates = [m for m, nxt in vmoves if rank.get(nxt) == rank[v] - 1]
        else:
            candidates = [m for m, nxt in vmoves if nxt not in lost]
        choices[v] = min(candidates, key=_move_key)
    return arena.vertices - lost, Strategy(choices=choices)


def _move_key(move):
    # finish < yield < emissions by letter; determinism of extracted machines
    order = {"finish": 0, "yield": 1, "emit": 2}
    return (order.get(move[0], 3), move[1:])


def in_spoiling_strategy(arena: GameArena, region: frozenset) -> dict:
    """For In vertices outside the winning region, one move keeping Out outside."""
    spoiler = {}
    for v in arena.vertices:
        if v[0] != "in" or v in region:
            continue
        for move, nxt in arena.moves.get(v, ()):
            if nxt not in region:
                spoiler[v] = move
                break
    return spoiler


def replay_spoiler(arena: GameArena, region: frozenset, spoiler: dict) -> bool:
    """Check the spoiling certificate: following it from the initial vertex,
    every Out choice eventually hits a loss."""
    if arena.initial in region:
        return False
    seen = set()
    stack = [arena.initial]
    while stack:
        v = stack.pop()
        if v in seen:
            continue
        seen.add(v)
        if v == ("win",) or v == ("done",):
            return False  # Out escaped
        if v == ("lose",):
            continue
        if v in region:
            return False
        if v[0] == "out":
            succs = [nxt for _, nxt in arena.moves.get(v, ())]
            if not succs:
                continue  # stuck Out vertex: a loss
            stack.extend(succs)
        else:
            move = spoiler.get(v)
            if move is None:
                return False
            nxt = dict(arena.moves[v])[move]
            stack.append(nxt)
    return True


def extract_sdfa(arena: GameArena, strategy: Strategy) -> SequentialDfa:
    """Realize the winning strategy as a sequential machine over the endmarked
    alphabet; inputs outside the live domain drain into a non-accepting sink."""
    if strategy.move_for(arena.initial) is None and arena.initial[0] == "out":
        raise NotWinning("initial vertex is not in the winning region")

    base_inputs = sorted(arena.s_prime.input_alphabet - {END_IN})

    names: dict = {}
    transitions = []
    input_states = set()
    output_states = set()
    finals = set()

    sink_in = "sink_in"
    sink_post = "sink_post"

    def name_of(v) -> str:
        if v not in names:
            names[v] = f"m{len(names)}"
        return names[v]

    queue = deque()
    seen = set()

    def visit(v):
        if v not in seen:
            seen.add(v)
            queue.append(v)

    # resolve the initial vertex through an immediate yield
    def resolve(v):
        while v[0] == "out" and strategy.move_for(v) == ("yield",):
            v = dict(arena.moves[v])[("yield",)]
        return v

    start = resolve(arena.initial)
    visit(start)
    used_sink = False
    while queue:
        v = queue.popleft()
        sname = name_of(v)
        if v[0] == "in":
            input_states.add(sname)
            succ = dict(arena.moves[v])
            for a in base_inputs:
                move = ("play", a)
                nxt = succ.get(move)
                if nxt is None or nxt == ("win",):
                    transitions.append((sname, inp(a), sink_in))
                    used_sink = True
                    continue
                nxt = resolve(nxt)
                transitions.append((sname, inp(a), name_of(nxt)))
                visit(nxt)
            nxt = succ.get(("end",))
            if nxt is None or nxt == ("win",):
                transitions.append((sname, inp(END_IN), sink_post))
                used_sink = True
            else:
                nxt = resolve(nxt)
                transitions.append((sname, inp(END_IN), name_of(nxt)))
                visit(nxt)
        elif v[0] == "out":
            output_states.add(sname)
            move = strategy.move_for(v)
            if move is None:
                raise NotWinning(f"strategy undefined at {v}")
            if move == ("finish",):
                done = ("done",)
                transitions.append((sname, out(END_OUT), name_of(done)))
                visit(done)
            elif move[0] == "emit":
                nxt = resolve(dict(arena.moves[v])[move])
                transitions.append((sname, out(move[1]), name_of(nxt)))
                visit(nxt)
        elif v == ("done",):
            input_states.add(sname)
            finals.add(sname)

    states = set(names.values())
    if used_sink:
        states |= {sink_in, sink_post}
        input_states |= {sink_in, sink_post}
        for a in base_inputs:
            transitions.append((sink_in, inp(a), sink_in))
        transitions.append((sink_in, inp(END_IN), sink_post))

    return SequentialDfa(
        input_alphabet=arena.s_prime.input_alphabet,
        output_alphabet=arena.s_prime.output_alphabet,
        states=frozenset(states),
        initial=name_of(start),
        transitions=frozenset(transitions),
        finals=frozenset(finals),
        complete=False,
        input_states=frozenset(input_states),
        output_states=frozenset(output_states),
    )


@dataclass(frozen=True)
class VerificationReport:
    ok: bool
    checks: tuple
    failures: tuple

    def __bool__(self):
        return self.ok


def run_machine(machine: SequentialDfa, input_syms) -> Optional[SyncWord]:
    """Feed an input stream (with its endmarker) and collect the full word."""
    word = []
    state = machine.initial
    pending = list(input_syms)
    fuel = len(machine.states) * (len(pending) + 2) + len(pending) + 4
    while fuel > 0:
        fuel -= 1
        if state in machine.output_states:
            edges = machine.out_edges(state)
            if not edges:
                break
            letter, nxt = edges[0]
            word.append(letter)
            state = nxt
        else:
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


def verify_uniformizer(
    machine: SequentialDfa, s: Nfa, t: Nfa, depth: int = 6
) -> VerificationReport:
    """Containment in the target plus, by bounded enumeration, exactly one
    accepted word per live input with its pair inside the source relation."""
    import itertools

    from .automata import pair_in_relation
    from .letters import decode

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
