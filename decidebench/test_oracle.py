"""Tests of the benchmark's answer oracle.

    python3 -m pytest decidebench/test_oracle.py
"""
import sys
from pathlib import Path
from types import SimpleNamespace

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from syncsynth.automata import END_IN, END_OUT  # noqa: E402
from syncsynth.letters import inp  # noqa: E402
from syncsynth.serialize import from_dict  # noqa: E402

import instances  # noqa: E402
import oracle  # noqa: E402

# the introduction example's 5-state sequential uniformizer: wait for b or c,
# answer d or e, then answer d after every further a
INTRO_U = (
    "abc", "de", "u0", ["u3"],
    [
        ("u0", "i", "a", "u0"), ("u0", "i", "b", "u1"), ("u0", "i", "c", "u2"),
        ("u1", "o", "d", "u3"), ("u2", "o", "e", "u3"),
        ("u3", "i", "a", "u4"), ("u4", "o", "d", "u3"),
    ],
)
INTRO_U_OUTPUT_STATES = {"u1", "u2", "u4"}


def automaton(spec, output_states=None):
    inputs, outputs, initial, finals, edges = spec
    states = sorted({initial, *finals, *(e[0] for e in edges), *(e[3] for e in edges)})
    doc = {
        "alphabet": {"input": sorted(inputs), "output": sorted(outputs)},
        "states": states,
        "initial": initial,
        "finals": sorted(finals),
        "transitions": [
            {"from": p, "tape": "in" if tape == "i" else "out", "letter": x, "to": q}
            for p, tape, x, q in edges
        ],
    }
    if output_states is not None:
        doc["partition"] = {
            "input_states": [q for q in states if q not in output_states],
            "output_states": sorted(output_states),
        }
    return from_dict(doc)


def intro_check(machine_spec):
    machine = automaton(machine_spec, INTRO_U_OUTPUT_STATES)
    s, t = automaton(instances.INTRO_S), automaton(instances.INTRO_T)
    return oracle.check_machine(machine, s, t, depth=6, end_in=END_IN, end_out=END_OUT)


def test_intro_uniformizer_passes():
    assert intro_check(INTRO_U) == []


def test_swapped_answer_fails():
    inputs, outputs, initial, finals, edges = INTRO_U
    wrong = [("u1", "o", "e", "u3") if e == ("u1", "o", "d", "u3") else e for e in edges]
    problems = intro_check((inputs, outputs, initial, finals, wrong))
    assert problems and "outside R(S)" in problems[0]


def test_missing_domain_input_fails():
    inputs, outputs, initial, finals, edges = INTRO_U
    partial = [e for e in edges if e != ("u0", "i", "c", "u2")]
    problems = intro_check((inputs, outputs, initial, finals, partial))
    assert problems and "no output for domain input" in problems[0]


def test_wrong_no_is_caught():
    s, t = automaton(instances.ABST_S), automaton(instances.ABST_LATE_T)
    verdict = SimpleNamespace(answer="NO", machine=None, witness=(inp("a"),) * 20)
    problems = oracle.check_verdict(
        verdict, s, t, frozenset({"YES"}), "YES", END_IN, END_OUT
    )
    assert any("has output ('b', 'c')" in p for p in problems), problems


def test_exact_no_passes():
    s, t = automaton(instances.FAST_C_S), automaton(instances.FAST_C_T)
    verdict = SimpleNamespace(answer="NO", machine=None, witness=(inp("a"),))
    assert oracle.check_verdict(verdict, s, t, frozenset({"NO"}), "NO", END_IN, END_OUT) == []


def test_inconclusive_only_where_listed():
    s, t = automaton(instances.ABST_S), automaton(instances.ABST_T)
    verdict = SimpleNamespace(answer="INCONCLUSIVE", machine=None, witness=None)
    assert oracle.check_verdict(verdict, s, t, frozenset({"YES", "INCONCLUSIVE"}), "YES", END_IN, END_OUT) == []
    assert oracle.check_verdict(verdict, s, t, frozenset({"YES"}), "YES", END_IN, END_OUT)
