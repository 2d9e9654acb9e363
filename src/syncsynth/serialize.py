"""JSON and DOT formats for automata.

JSON schema:
{"alphabet": {"input": [..], "output": [..]}, "states": [..], "initial": "..",
 "finals": [..], "transitions": [{"from": .., "tape": "in"|"out", "letter": .., "to": ..}],
 "partition": {"input_states": [..], "output_states": [..]}}   # optional
"""
from __future__ import annotations

import json
from typing import Union

from .automata import AutomatonError, Dfa, Nfa, SequentialDfa
from .letters import Letter, Tape

_TAPE_NAMES = {Tape.INPUT: "in", Tape.OUTPUT: "out"}
_TAPE_VALUES = {"in": Tape.INPUT, "out": Tape.OUTPUT}


def to_dict(a: Nfa) -> dict:
    doc = {
        "alphabet": {
            "input": sorted(a.input_alphabet),
            "output": sorted(a.output_alphabet),
        },
        "states": sorted(a.states),
        "initial": a.initial,
        "finals": sorted(a.finals),
        "transitions": [
            {"from": p, "tape": _TAPE_NAMES[l.tape], "letter": l.symbol, "to": q}
            for p, l, q in sorted(a.transitions)
        ],
    }
    if isinstance(a, SequentialDfa):
        doc["partition"] = {
            "input_states": sorted(a.input_states),
            "output_states": sorted(a.output_states),
        }
    return doc


def dumps(a: Nfa) -> str:
    return json.dumps(to_dict(a), indent=2, ensure_ascii=False, sort_keys=True) + "\n"


def _strings(value, what: str) -> list:
    if not isinstance(value, list) or not all(isinstance(x, str) for x in value):
        raise AutomatonError(f"malformed automaton document: {what} must be a list of strings")
    return value


def from_dict(doc: dict) -> Union[Nfa, Dfa, SequentialDfa]:
    try:
        alphabet = doc["alphabet"]
        inputs = _strings(alphabet["input"], "the input alphabet")
        outputs = _strings(alphabet["output"], "the output alphabet")
        # one object per declared state and per tagged letter, shared by every
        # transition; an undeclared one keeps its own and is refused below
        state = {q: q for q in _strings(doc["states"], "states")}
        letter = {
            (tape, x): Letter(tape, x)
            for tape, pool in ((Tape.INPUT, inputs), (Tape.OUTPUT, outputs))
            for x in pool
        }
        transitions = []
        for t in doc["transitions"]:
            p, x, q = t["from"], t["letter"], t["to"]
            if not all(isinstance(v, str) for v in (p, x, q)):
                raise AutomatonError(
                    "malformed automaton document: a transition's from, letter and to must be strings"
                )
            tape = _TAPE_VALUES[t["tape"]]
            transitions.append(
                (state.get(p, p), letter.get((tape, x)) or Letter(tape, x), state.get(q, q))
            )
        finals = _strings(doc["finals"], "finals")
        partition = None
        if "partition" in doc:
            part = doc["partition"]
            partition = {
                key: frozenset(state.get(q, q) for q in _strings(part[key], f"partition {key}"))
                for key in ("input_states", "output_states")
            }
        initial = doc["initial"]
    except (KeyError, TypeError) as exc:
        raise AutomatonError(f"malformed automaton document: {exc}") from exc
    if not isinstance(initial, str):
        raise AutomatonError("a single initial state is required")
    common = dict(
        input_alphabet=frozenset(inputs),
        output_alphabet=frozenset(outputs),
        states=frozenset(state),
        initial=state.get(initial, initial),
        transitions=frozenset(transitions),
        finals=frozenset(state.get(q, q) for q in finals),
    )
    if partition is not None:
        return SequentialDfa(**common, **partition)
    per_pair = {(p, l) for p, l, _ in common["transitions"]}
    deterministic = len(per_pair) == len(common["transitions"])
    return (Dfa if deterministic else Nfa)(**common)


def loads(text: str) -> Union[Nfa, Dfa, SequentialDfa]:
    return from_dict(json.loads(text))


def load_path(path) -> Union[Nfa, Dfa, SequentialDfa]:
    with open(path, encoding="utf-8") as handle:
        return from_dict(json.load(handle))


def to_dot(a: Nfa, name: str = "automaton") -> str:
    """DOT emitter with stable node ordering."""
    lines = [f"digraph {json.dumps(name)} {{", "  rankdir=LR;", '  __init [shape=point, label=""];']
    seq = isinstance(a, SequentialDfa)
    for q in sorted(a.states):
        shape = "doublecircle" if q in a.finals else "circle"
        extra = ""
        if seq and q in a.output_states:
            extra = ", style=filled, fillcolor=lightgray"
        lines.append(f"  {json.dumps(q)} [shape={shape}{extra}];")
    lines.append(f"  __init -> {json.dumps(a.initial)};")
    grouped: dict = {}
    for p, l, q in sorted(a.transitions):
        grouped.setdefault((p, q), []).append(l)
    for (p, q), letters in sorted(grouped.items()):
        label = ", ".join(
            f"{l.symbol}" + ("" if l.tape is Tape.INPUT else "↑") for l in sorted(letters)
        )
        lines.append(f"  {json.dumps(p)} -> {json.dumps(q)} [label={json.dumps(label)}];")
    lines.append("}")
    return "\n".join(lines) + "\n"
