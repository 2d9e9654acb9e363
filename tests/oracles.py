"""Brute-force oracles, coded independently of the library's algorithms."""
import itertools

from syncsynth.letters import Letter, Tape, inp, out


def nfa_accepts_naive(a, w):
    """Membership by exhaustive path search (no subset construction)."""

    def walk(state, rest):
        if not rest:
            return state in a.finals
        head, tail = rest[0], rest[1:]
        return any(
            walk(q, tail)
            for (p, letter, q) in a.transitions
            if p == state and letter == head
        )

    return walk(a.initial, tuple(w))


def all_words(input_alphabet, output_alphabet, max_len):
    """Every tagged word up to max_len, shortest first."""
    letters = [inp(s) for s in sorted(input_alphabet)] + [
        out(s) for s in sorted(output_alphabet)
    ]
    for n in range(max_len + 1):
        yield from itertools.product(letters, repeat=n)


def language_upto(a, max_len):
    return {w for w in all_words(a.input_alphabet, a.output_alphabet, max_len) if nfa_accepts_naive(a, w)}


def lag_naive(tags):
    best = 0
    for i in range(len(tags) + 1):
        pre = tags[:i]
        best = max(best, abs(sum(1 for t in pre if t == 1) - sum(1 for t in pre if t == 2)))
    return best


def shift_naive(tags):
    return sum(1 for i in range(len(tags) - 1) if tags[i] != tags[i + 1])


def shiftlag_naive(tags):
    """Largest n with n consecutive shifts, each at a >=n-lagged position."""
    shifts = [i + 1 for i in range(len(tags) - 1) if tags[i] != tags[i + 1]]

    def lag_at(pos):
        pre = tags[:pos]
        return abs(sum(1 for t in pre if t == 1) - sum(1 for t in pre if t == 2))

    best = 0
    for j in range(len(shifts)):
        for k in range(j, len(shifts)):
            n = k - j + 1
            if all(lag_at(s) >= n for s in shifts[j : k + 1]):
                best = max(best, n)
    return best


def to_tags(w):
    return tuple(int(l.tape) if isinstance(l, Letter) else int(l) for l in w)


def decode_naive(w):
    u = tuple(l.symbol for l in w if l.tape is Tape.INPUT)
    v = tuple(l.symbol for l in w if l.tape is Tape.OUTPUT)
    return u, v


def blocks_member_naive(tags, n, cap):
    """Membership in (1* + 2^{<=cap})^n by exhaustive block decomposition."""

    def solve(rest, blocks_left):
        if not rest:
            return True
        if blocks_left == 0:
            return False
        for cut in range(1, len(rest) + 1):
            block = rest[:cut]
            pure_in = all(t == 1 for t in block)
            pure_out = all(t == 2 for t in block) and (cap is None or cut <= cap)
            if (pure_in or pure_out) and solve(rest[cut:], blocks_left - 1):
                return True
        return False

    return solve(tuple(tags), n)


def in_force_loss_set(arena):
    """Least fixpoint of positions where the input player can force a loss.

    Independent of the solver: forward iteration from the loss positions.
    """
    losing = {("lose",)}
    for v in arena.vertices:
        if v[0] == "out" and not arena.moves.get(v, ()):
            losing.add(v)
    changed = True
    while changed:
        changed = False
        for v in arena.vertices:
            if v in losing or v[0] in ("win", "done"):
                continue
            moves = arena.moves.get(v, ())
            if not moves:
                continue
            if v[0] == "out":
                if all(nxt in losing for _, nxt in moves):
                    losing.add(v)
                    changed = True
            elif v[0] == "in":
                if any(nxt in losing for _, nxt in moves):
                    losing.add(v)
                    changed = True
    return losing


def distance_to_done(arena, v):
    """Fewest moves from v to ("done",) by forward breadth-first search over
    the arena's moves, or None if ("done",) is unreachable."""
    layer, seen, steps = {v}, {v}, 0
    while layer:
        if ("done",) in layer:
            return steps
        layer = {nxt for u in layer for _, nxt in arena.moves.get(u, ())} - seen
        seen |= layer
        steps += 1
    return None


def tape_count_naive(a, tape, max_len):
    """Per state: most `tape` letters on an accepting path of at most max_len
    edges from it (None if it has no accepting path that short)."""
    best = {p: (0 if p in a.finals else None) for p in a.states}
    for _ in range(max_len):
        nxt = dict(best)
        for p, letter, q in a.transitions:
            if best[q] is not None:
                cand = best[q] + (1 if letter.tape is tape else 0)
                if nxt[p] is None or cand > nxt[p]:
                    nxt[p] = cand
        best = nxt
    return best
