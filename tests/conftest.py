"""Shared corpus: the worked examples' automata and the tag-shape families,
and the reference helpers that several test files check the library with."""
from contextlib import contextmanager

import pytest

from syncsynth import automata
from syncsynth.analysis import ShiftWitness
from syncsynth.automata import AutomatonError, Dfa, Nfa, SequentialDfa, inclusion, tape_table_dfa
from syncsynth.canonical import SHAPE, CanonicalDfa
from syncsynth.letters import Tape, inp, out
from syncsynth.profiles import _AnnBuilder, _Ctx, _profile


def mk_nfa(input_alphabet, output_alphabet, initial, finals, edges, cls=Nfa, **extra):
    """edges: list of (p, "i"|"o", symbol, q)."""
    states = {initial, *finals}
    transitions = set()
    for p, tape, sym, q in edges:
        states |= {p, q}
        letter = inp(sym) if tape == "i" else out(sym)
        transitions.add((p, letter, q))
    return cls(
        input_alphabet=frozenset(input_alphabet),
        output_alphabet=frozenset(output_alphabet),
        states=frozenset(states),
        initial=initial,
        transitions=frozenset(transitions),
        finals=frozenset(finals),
        **extra,
    )


@pytest.fixture(scope="session")
def intro_S():
    """Source of the introduction example: pairs (a^i b a^j, d(d+e)^k) and
    (a^i c a^j, e(d+e)^k), synchronized output-first."""
    return mk_nfa(
        {"a", "b", "c"},
        {"d", "e"},
        "q0",
        {"q3", "q4"},
        [
            ("q0", "o", "d", "q1"),
            ("q0", "o", "e", "q2"),
            ("q1", "i", "a", "q1"),
            ("q1", "i", "b", "q3"),
            ("q2", "i", "a", "q2"),
            ("q2", "i", "c", "q3"),
            ("q3", "i", "a", "q3"),
            ("q3", "o", "d", "q4"),
            ("q3", "o", "e", "q4"),
            ("q4", "o", "d", "q4"),
            ("q4", "o", "e", "q4"),
        ],
    )


@pytest.fixture(scope="session")
def intro_U():
    """The introduction example's sequential uniformizer."""
    return mk_nfa(
        {"a", "b", "c"},
        {"d", "e"},
        "u0",
        {"u3"},
        [
            ("u0", "i", "a", "u0"),
            ("u0", "i", "b", "u1"),
            ("u0", "i", "c", "u2"),
            ("u1", "o", "d", "u3"),
            ("u2", "o", "e", "u3"),
            ("u3", "i", "a", "u4"),
            ("u4", "o", "d", "u3"),
        ],
        cls=SequentialDfa,
        input_states=frozenset({"u0", "u3"}),
        output_states=frozenset({"u1", "u2", "u4"}),
    )


@pytest.fixture(scope="session")
def intro_T():
    """Target of the introduction example: any inputs, then input/output pairs."""
    return mk_nfa(
        {"a", "b", "c"},
        {"d", "e"},
        "t0",
        {"t2"},
        [
            ("t0", "i", "a", "t0"),
            ("t0", "i", "b", "t0"),
            ("t0", "i", "c", "t0"),
            ("t0", "i", "a", "t1"),
            ("t0", "i", "b", "t1"),
            ("t0", "i", "c", "t1"),
            ("t1", "o", "d", "t2"),
            ("t1", "o", "e", "t2"),
            ("t2", "i", "a", "t3"),
            ("t2", "i", "b", "t3"),
            ("t2", "i", "c", "t3"),
            ("t3", "o", "d", "t2"),
            ("t3", "o", "e", "t2"),
        ],
    )


@pytest.fixture(scope="session")
def abst_S():
    """Single-input-letter source used in the first abstraction example
    (canonical interleavings of (a^{2k}, (bb+bc)^k ...)-style pairs)."""
    return mk_nfa(
        {"a"},
        {"b", "c"},
        "q0",
        {"q0", "q2"},
        [
            ("q0", "i", "a", "q1"),
            ("q1", "o", "b", "q0"),
            ("q1", "o", "c", "q2"),
            ("q2", "i", "a", "q2"),
        ],
        cls=Dfa,
    )


@pytest.fixture(scope="session")
def abst_T():
    """Its target: one input block, outputs, one more input, outputs."""
    return mk_nfa(
        {"a"},
        {"b", "c"},
        "p0",
        {"p0", "p2", "p3"},
        [
            ("p0", "i", "a", "p1"),
            ("p1", "i", "a", "p1"),
            ("p1", "o", "b", "p2"),
            ("p2", "o", "b", "p2"),
            ("p2", "o", "c", "p2"),
            ("p2", "i", "a", "p3"),
            ("p3", "o", "b", "p3"),
            ("p3", "o", "c", "p3"),
        ],
        cls=Dfa,
    )


@pytest.fixture(scope="session")
def abst_late_T():
    """A target for abst_S that lets the outputs wait: ε + a·b + a·a·a*·b·c."""
    return mk_nfa(
        {"a"}, {"b", "c"}, "p0", {"p0", "p2", "p5"},
        [("p0", "i", "a", "p1"), ("p1", "o", "b", "p2"), ("p1", "i", "a", "p3"),
         ("p3", "i", "a", "p3"), ("p3", "o", "b", "p4"), ("p4", "o", "c", "p5")],
    )


@pytest.fixture(scope="session")
def ann_S():
    """Two-input-letter source of the annotated-tree example (all states accepting)."""
    return mk_nfa(
        {"a", "b"},
        {"c"},
        "q0",
        {"q0", "q1", "q2", "q3", "q4", "q5", "q6"},
        [
            ("q0", "i", "a", "q1"),
            ("q0", "i", "b", "q3"),
            ("q1", "o", "c", "q2"),
            ("q2", "i", "b", "q5"),
            ("q2", "o", "c", "q6"),
            ("q3", "o", "c", "q4"),
            ("q4", "i", "a", "q5"),
            ("q4", "o", "c", "q5"),
            ("q5", "o", "c", "q6"),
        ],
        cls=Dfa,
    )


@pytest.fixture(scope="session")
def ann_T():
    """Its target: c-blocks separated by at most two input letters."""
    return mk_nfa(
        {"a", "b"},
        {"c"},
        "p0",
        {"p0", "p1", "p2"},
        [
            ("p0", "o", "c", "p0"),
            ("p0", "i", "a", "p1"),
            ("p0", "i", "b", "p1"),
            ("p1", "o", "c", "p1"),
            ("p1", "i", "a", "p2"),
            ("p1", "i", "b", "p2"),
            ("p2", "i", "a", "p2"),
            ("p2", "i", "b", "p2"),
        ],
        cls=Dfa,
    )


def tag_family(name, input_symbol="a", output_symbol="d"):
    """Tag-shape automata over a unary input and unary output alphabet."""
    i, o = input_symbol, output_symbol
    families = {
        "1*2*": (
            "s0",
            {"s0", "s1"},
            [("s0", "i", i, "s0"), ("s0", "o", o, "s1"), ("s1", "o", o, "s1")],
        ),
        "(12)*": (
            "s0",
            {"s0"},
            [("s0", "i", i, "s1"), ("s1", "o", o, "s0")],
        ),
        "(12)*(1*+2*)": (
            "s0",
            {"s0", "s1", "s2", "s3"},
            [
                ("s0", "i", i, "s1"),
                ("s1", "o", o, "s0"),
                ("s1", "i", i, "s2"),
                ("s2", "i", i, "s2"),
                ("s0", "o", o, "s3"),
                ("s3", "o", o, "s3"),
            ],
        ),
        "1*2*1*2*": (
            "s0",
            {"s0", "s1", "s2", "s3"},
            [
                ("s0", "i", i, "s0"),
                ("s0", "o", o, "s1"),
                ("s1", "o", o, "s1"),
                ("s1", "i", i, "s2"),
                ("s2", "i", i, "s2"),
                ("s2", "o", o, "s3"),
                ("s3", "o", o, "s3"),
            ],
        ),
        "(1*2*)*": (
            "s0",
            {"s0"},
            [("s0", "i", i, "s0"), ("s0", "o", o, "s0")],
        ),
    }
    initial, finals, edges = families[name]
    return mk_nfa({i}, {o}, initial, finals, edges)


@pytest.fixture(scope="session")
def families():
    return {name: tag_family(name) for name in ["1*2*", "(12)*", "(12)*(1*+2*)", "1*2*1*2*", "(1*2*)*"]}


# ---------------------------------------------------------------------------
# reference helpers


@contextmanager
def state_cap(cap):
    """Lower `automata.STATE_CAP`, the one state cap, inside the block."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(automata, "STATE_CAP", cap)
        yield


def accepts(a, w):
    """NFA membership by subset simulation."""
    current = frozenset({a.initial})
    for letter in w:
        current = a.step_set(current, letter)
        if not current:
            return False
    return bool(current & a.finals)


def canonical_dfa(d):
    """`d` as a CanonicalDfa, after checking that it reads canonical words only."""
    shape = tape_table_dfa(SHAPE, "even", d.input_alphabet, d.output_alphabet)
    ok, witness = inclusion(d, shape)
    if not ok:
        raise AutomatonError(f"not canonical-shaped, e.g. {witness}")
    return CanonicalDfa(dfa=d)


def pumped(witness, j):
    """The j-th pumped word of a shift or a shiftlag witness. A shiftlag
    witness pumps its lag cycle far enough that the shift cycle's j + 1
    rounds all happen past lag j."""
    if isinstance(witness, ShiftWitness):
        return witness.prefix + witness.cycle * j + witness.suffix
    beta = j + 1
    alpha = j + beta * len(witness.shift_cycle) + len(witness.prefix) + len(witness.mid) + 1
    return (
        witness.prefix
        + witness.lag_cycle * alpha
        + witness.mid
        + witness.shift_cycle * beta
        + witness.suffix
    )


def enumerate_accepted(a, max_len):
    """All accepted words of length <= max_len, shortest first, deterministic order."""
    layer = [((), frozenset({a.initial}))]
    for _ in range(max_len + 1):
        next_layer = []
        for w, subset in layer:
            if subset & a.finals:
                yield w
            for letter in a.alphabet:
                nxt = a.step_set(subset, letter)
                if nxt:
                    next_layer.append((w + (letter,), nxt))
        layer = next_layer
        if not layer:
            return


def identity_fn(states):
    """The state transformation function that fixes every state."""
    return tuple(sorted((q, q) for q in states))


def tree_size(t):
    """Nodes of a tree."""
    return 1 + sum(tree_size(c) for c in t.children)


def input_profile(x, n, a, b, ctx=None):
    return _profile(x, n, ctx or _Ctx(a, b), Tape.INPUT)


def output_profile(y, n, a, b, ctx=None):
    return _profile(y, n, ctx or _Ctx(a, b), Tape.OUTPUT)


def output_stt(y, p, q, i, a, b):
    """Public tree of an output segment against input counterparts."""
    ctx = _Ctx(a, b)
    return ctx.public(ctx.stt_enriched(tuple(y), p, q, i, Tape.OUTPUT))


def annotated_output_stt(y, p, q, i, a, b):
    """Annotated output tree: nodes carry the reference-tree node reached and
    the set of reference nodes reached by prefixes of the witness input."""
    ctx = _Ctx(a, b)
    y = tuple(y)
    builder = _AnnBuilder(ctx, ctx.public(ctx.stt_enriched(y, p, q, i, Tape.OUTPUT)))
    return builder.build(y, p, q, i, ())


def find_idempotent_factor(x, n, a, b):
    """First (i, j), 1-indexed inclusive and shortest, with an idempotent factor."""
    x = tuple(x)
    ctx = _Ctx(a, b)
    cache: dict = {}

    def prof(word):
        if word not in cache:
            cache[word] = input_profile(word, n, a, b, ctx=ctx)
        return cache[word]

    for length in range(1, len(x) + 1):
        for start in range(0, len(x) - length + 1):
            f = x[start : start + length]
            if prof(f) == prof(f + f):
                return (start + 1, start + length)
    return None
