"""Seeded known-answer instances for the decide benchmark.

Every instance is a pair of automata (source S, target T) written as edge
lists, plus the set of verdicts that count as correct for it. The seed
renames states and letters; it never changes an automaton's shape, so every
seed poses the same decision problems with the same answers. Letters are
renamed in an order-preserving way (inputs from a-m, outputs from n-z) so
that sorted letter orders, and with them the program's tie-breaking, do not
depend on the seed.

`workload(name, seed)` returns the instances of one benchmark workload as
serialized JSON documents in the format `syncsynth.serialize` reads.
"""
from __future__ import annotations

import json
import random
from dataclasses import dataclass
from typing import Optional

YES, NO, INCONCLUSIVE = "YES", "NO", "INCONCLUSIVE"

INPUT_POOL = "abcdefghijklm"
OUTPUT_POOL = "nopqrstuvwxyz"

# An automaton spec: (input letters, output letters, initial, finals, edges),
# each edge (p, "i" | "o", letter, q), as in the test suite's fixtures.


def _spec(inputs, outputs, initial, finals, edges):
    return (tuple(inputs), tuple(outputs), initial, tuple(finals), tuple(edges))


# -- the worked examples --------------------------------------------------------

INTRO_S = _spec(
    "abc", "de", "q0", ["q3", "q4"],
    [
        ("q0", "o", "d", "q1"), ("q0", "o", "e", "q2"),
        ("q1", "i", "a", "q1"), ("q1", "i", "b", "q3"),
        ("q2", "i", "a", "q2"), ("q2", "i", "c", "q3"),
        ("q3", "i", "a", "q3"), ("q3", "o", "d", "q4"), ("q3", "o", "e", "q4"),
        ("q4", "o", "d", "q4"), ("q4", "o", "e", "q4"),
    ],
)
INTRO_T = _spec(
    "abc", "de", "t0", ["t2"],
    [("t0", "i", x, "t0") for x in "abc"]
    + [("t0", "i", x, "t1") for x in "abc"]
    + [("t1", "o", y, "t2") for y in "de"]
    + [("t2", "i", x, "t3") for x in "abc"]
    + [("t3", "o", y, "t2") for y in "de"],
)
ABST_S = _spec(
    "a", "bc", "q0", ["q0", "q2"],
    [("q0", "i", "a", "q1"), ("q1", "o", "b", "q0"), ("q1", "o", "c", "q2"), ("q2", "i", "a", "q2")],
)
ABST_T = _spec(
    "a", "bc", "p0", ["p0", "p2", "p3"],
    [
        ("p0", "i", "a", "p1"), ("p1", "i", "a", "p1"), ("p1", "o", "b", "p2"),
        ("p2", "o", "b", "p2"), ("p2", "o", "c", "p2"), ("p2", "i", "a", "p3"),
        ("p3", "o", "b", "p3"), ("p3", "o", "c", "p3"),
    ],
)
# T' = ε + a·b + a·a·a*·b·c
ABST_LATE_T = _spec(
    "a", "bc", "p0", ["p0", "p2", "p5"],
    [
        ("p0", "i", "a", "p1"), ("p1", "o", "b", "p2"), ("p1", "i", "a", "p3"),
        ("p3", "i", "a", "p3"), ("p3", "o", "b", "p4"), ("p4", "o", "c", "p5"),
    ],
)
ANN_S = _spec(
    "ab", "c", "q0", ["q0", "q1", "q2", "q3", "q4", "q5", "q6"],
    [
        ("q0", "i", "a", "q1"), ("q0", "i", "b", "q3"), ("q1", "o", "c", "q2"),
        ("q2", "i", "b", "q5"), ("q2", "o", "c", "q6"), ("q3", "o", "c", "q4"),
        ("q4", "i", "a", "q5"), ("q4", "o", "c", "q5"), ("q5", "o", "c", "q6"),
    ],
)
ANN_T = _spec(
    "ab", "c", "p0", ["p0", "p1", "p2"],
    [("p0", "o", "c", "p0"), ("p1", "o", "c", "p1")]
    + [("p0", "i", x, "p1") for x in "ab"]
    + [("p1", "i", x, "p2") for x in "ab"]
    + [("p2", "i", x, "p2") for x in "ab"],
)
# fast-path instances A, B, C of the acceptance suite (criterion 10)
FAST_A_S = _spec("a", "d", "s0", ["s1"], [("s0", "i", "a", "s0"), ("s0", "o", "d", "s1")])
FAST_A_T = _spec("a", "d", "s0", ["s0", "s1"], [("s0", "i", "a", "s0"), ("s0", "o", "d", "s1"), ("s1", "o", "d", "s1")])
FAST_B_S = _spec(
    "a", "de", "s0", ["s2"],
    [("s0", "i", "a", "s1"), ("s1", "o", "d", "s2"), ("s1", "o", "e", "s2")],
)
FAST_B_T = _spec(
    "a", "de", "t0", ["t2"],
    [("t0", "o", "d", "t1"), ("t0", "o", "e", "t1"), ("t1", "i", "a", "t2")],
)
FAST_C_S = _spec("a", "d", "s0", ["s2"], [("s0", "i", "a", "s1"), ("s1", "o", "d", "s2")])
FAST_C_T = _spec("a", "d", "t0", ["t1"], [("t0", "o", "d", "t1")])


def delay_family(m: int, d: int):
    """Source and target of the delay family (m, D).

    S relates every input of length at least m to the one output letter that
    names its m-th letter, synchronized as 1^m 2 1*. T lets the single output
    wait for at most D input letters: 1^{≤D} 2 1*. A sequential machine must
    know the m-th letter when it writes, so the answer is YES iff m ≤ D.
    Two input letters are enough for that.
    """
    if m < 1 or d < 0:
        raise ValueError("delay family needs m ≥ 1 and D ≥ 0")
    ins, outs = "ab", "no"
    s_edges = [(f"q{j}", "i", x, f"q{j + 1}") for j in range(m - 1) for x in ins]
    for x, y in zip(ins, outs):
        s_edges += [(f"q{m - 1}", "i", x, f"r{x}"), (f"r{x}", "o", y, "f"), ("f", "i", x, "f")]
    t_edges = [(f"p{j}", "i", x, f"p{j + 1}") for j in range(d) for x in ins]
    t_edges += [(f"p{j}", "o", y, "g") for j in range(d + 1) for y in outs]
    t_edges += [("g", "i", x, "g") for x in ins]
    return _spec(ins, outs, "q0", ["f"], s_edges), _spec(ins, outs, "p0", ["g"], t_edges)


# -- instances and workloads ----------------------------------------------------


@dataclass(frozen=True)
class Instance:
    name: str
    source: tuple
    target: tuple
    expected: frozenset  # verdicts that count as correct
    known_answer: str  # the true answer: YES or NO
    k_override: Optional[int] = None
    depth: int = 8  # the pipeline's verification depth
    known_fault: str = ""  # non-empty: a named program fault makes this fail today


@dataclass(frozen=True)
class Loaded:
    """An instance with its automata as serialized JSON documents."""

    instance: Instance
    source_json: str
    target_json: str


def _delay(m, d):
    s, t = delay_family(m, d)
    answer = YES if m <= d else NO
    return Instance(f"delay-m{m}-D{d}", s, t, frozenset({answer}), answer)


ABST_LATE_FAULT = (
    "resync.build_TiS bounds its pending-input queue at gamma + 1 + i*n, so "
    "a^n·b·c (n ≥ 20) is missing from T_iS and decide returns an exact NO"
)

WORKLOADS = {
    "intro-ksweep": (
        "decide",
        [
            Instance(f"intro-k{k}", INTRO_S, INTRO_T, frozenset({YES}), YES, k_override=k, depth=6)
            for k in (3, 6, 10)
        ],
    ),
    "computed-k": (
        "decide",
        [
            Instance("ann", ANN_S, ANN_T, frozenset({YES}), YES),
            Instance("abst", ABST_S, ABST_T, frozenset({YES, INCONCLUSIVE}), YES),
            Instance(
                "abst-late", ABST_S, ABST_LATE_T, frozenset({YES, INCONCLUSIVE}), YES,
                known_fault=ABST_LATE_FAULT,
            ),
            _delay(2, 1),
            _delay(2, 2),
            _delay(3, 2),
            _delay(3, 3),
        ],
    ),
    "decide-rec": (
        "decide_recognizable",
        [
            Instance("intro", INTRO_S, INTRO_T, frozenset({YES}), YES),
            Instance("ann", ANN_S, ANN_T, frozenset({YES}), YES),
            Instance("fast-A", FAST_A_S, FAST_A_T, frozenset({YES}), YES),
            Instance("fast-B", FAST_B_S, FAST_B_T, frozenset({YES}), YES),
            Instance("fast-C", FAST_C_S, FAST_C_T, frozenset({NO}), NO),
            _delay(4, 4),
            _delay(4, 3),
        ],
    ),
}


def _letter_renaming(rng: random.Random, source: tuple, target: tuple) -> dict:
    """Order-preserving renaming of the instance's letters, per tape."""
    renaming = {}
    for tape, pool in ((0, INPUT_POOL), (1, OUTPUT_POOL)):
        letters = sorted(set(source[tape]) | set(target[tape]))
        fresh = sorted(rng.sample(pool, len(letters)))
        renaming.update({("io"[tape], old): new for old, new in zip(letters, fresh)})
    return renaming


def _document(spec: tuple, letters: dict, rng: random.Random) -> dict:
    """The serialize-format document of a spec, with seeded state names."""
    inputs, outputs, initial, finals, edges = spec
    states = sorted({initial, *finals, *(p for p, *_ in edges), *(q for *_, q in edges)})
    ids = rng.sample(range(len(states)), len(states))
    name = {q: f"s{i}" for q, i in zip(states, ids)}
    return {
        "alphabet": {
            "input": sorted(letters[("i", x)] for x in inputs),
            "output": sorted(letters[("o", y)] for y in outputs),
        },
        "states": sorted(name.values()),
        "initial": name[initial],
        "finals": sorted(name[q] for q in finals),
        "transitions": [
            {"from": name[p], "tape": "in" if tape == "i" else "out",
             "letter": letters[(tape, x)], "to": name[q]}
            for p, tape, x, q in edges
        ],
    }


def workload(name: str, seed: int) -> tuple[str, list[Loaded]]:
    """The decision procedure a workload runs and its seeded instances."""
    try:
        procedure, instances = WORKLOADS[name]
    except KeyError:
        raise ValueError(f"unknown workload {name!r}; choose from {sorted(WORKLOADS)}") from None
    rng = random.Random(f"decidebench:{name}:{seed}")
    loaded = []
    for inst in instances:
        letters = _letter_renaming(rng, inst.source, inst.target)
        loaded.append(
            Loaded(
                instance=inst,
                source_json=json.dumps(_document(inst.source, letters, rng)),
                target_json=json.dumps(_document(inst.target, letters, rng)),
            )
        )
    return procedure, loaded
