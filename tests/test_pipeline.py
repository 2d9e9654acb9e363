import ast
import importlib.util
import itertools
import json
import os
import random
import re
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from syncsynth import automata, pipeline, profiles, serialize
from syncsynth.analysis import shift_finiteness, shiftlag_finiteness
from syncsynth.automata import add_endmarkers
from syncsynth.canonical import canonicalize, canonicalize_finite_shift
from syncsynth.cli import main
from syncsynth.game import VerificationReport, run_machine, verify_uniformizer
from syncsynth.resync import build_TiS
from syncsynth.pipeline import (
    INCONCLUSIVE,
    NO,
    PipelineConfig,
    REJECTED,
    YES,
    decide,
    decide_recognizable,
)

from .conftest import enumerate_accepted, mk_nfa, tag_family
from .oracles import decode_naive, nfa_accepts_naive, recompose
from .test_game import assert_minimal_machine


def test_intro_instance_yes(intro_S, intro_T):
    cfg = PipelineConfig(k_override=3, depth=6)
    verdict = decide(intro_S, intro_T, cfg)
    assert verdict.answer == YES, (verdict.reason, verdict.stats)
    assert verdict.verification.ok, verdict.verification.failures
    # minimal: 5 states do the work, 2 more emit ⊣o and accept after it
    assert len(verdict.machine.states) == verdict.stats["machine_states"] == 7


def test_intro_at_block_cap_10_resyncs_along_the_minimal_t_i(intro_S, intro_T):
    """T_i is built as a minimal DFA: at k = 10 it has 11 states and T_iS
    1,296, where the shape product gave 39 and 4,054."""
    verdict = decide(intro_S, intro_T, PipelineConfig(k_override=10, depth=6))
    assert verdict.answer == YES, (verdict.reason, verdict.stats)
    assert (verdict.stats["t_i_states"], verdict.stats["t_i_s_states"]) == (11, 1296)


def test_rejects_infinite_shiftlag_target_without_override(intro_S, intro_T):
    verdict = decide(intro_S, intro_T, PipelineConfig(depth=4))
    assert verdict.answer == REJECTED
    assert verdict.witness is not None


def test_rejects_infinite_shiftlag_source(intro_T):
    fam = tag_family("(1*2*)*")
    verdict = decide(fam, fam, PipelineConfig(depth=4))
    assert verdict.answer == REJECTED


def early_choice():
    """Relation {(ab, d), (ac, e)} with a target forcing the output right
    after the first input letter: the input player spoils the game."""
    s = mk_nfa(
        {"a", "b", "c"},
        {"d", "e"},
        "s0",
        {"s3"},
        [
            ("s0", "i", "a", "s1"),
            ("s1", "i", "b", "s2d"),
            ("s1", "i", "c", "s2e"),
            ("s2d", "o", "d", "s3"),
            ("s2e", "o", "e", "s3"),
        ],
    )
    # target: exactly input output input (output must come second)
    t = mk_nfa(
        {"a", "b", "c"},
        {"d", "e"},
        "t0",
        {"t3"},
        [("t0", "i", sym, "t1") for sym in "abc"]
        + [("t1", "o", sym, "t2") for sym in "de"]
        + [("t2", "i", sym, "t3") for sym in "abc"],
    )
    return s, t


def product_relation():
    """a* x {d} with target 1*2*: read everything, then emit."""
    s = mk_nfa(
        {"a"},
        {"d"},
        "s0",
        {"s1"},
        [("s0", "i", "a", "s0"), ("s0", "o", "d", "s1")],
    )
    return s, tag_family("1*2*")


def test_forced_early_choice_no():
    verdict = decide(*early_choice(), PipelineConfig(depth=5))
    assert verdict.answer == NO, (verdict.answer, verdict.reason, verdict.stats)


def late_target():
    """The same relation with a target that lets every output wait."""
    s, _ = early_choice()
    t = mk_nfa(
        {"a", "b", "c"},
        {"d", "e"},
        "t0",
        {"t0", "t1"},
        [("t0", "i", sym, "t0") for sym in "abc"]
        + [("t0", "o", sym, "t1") for sym in "de"]
        + [("t1", "o", sym, "t1") for sym in "de"],
    )
    return s, t


def test_same_relation_late_target_yes():
    verdict = decide(*late_target(), PipelineConfig(depth=5))
    assert verdict.answer == YES, (verdict.answer, verdict.reason, verdict.stats)
    assert verdict.verification.ok


def test_monotone_soundness_in_block_cap():
    s = mk_nfa(
        {"a"},
        {"d"},
        "s0",
        {"s2"},
        [("s0", "i", "a", "s1"), ("s1", "o", "d", "s2"), ("s2", "i", "a", "s2")],
    )
    t = mk_nfa(
        {"a"},
        {"d"},
        "t0",
        {"t1", "t2"},
        [
            ("t0", "i", "a", "t1"),
            ("t1", "o", "d", "t2"),
            ("t2", "i", "a", "t2"),
        ],
    )
    answers = []
    for k in (1, 2, 3):
        verdict = decide(s, t, PipelineConfig(k_override=k, depth=5))
        answers.append(verdict.answer)
    assert answers[0] == YES
    assert all(a == YES for a in answers)


def test_computed_k_path_small_instance():
    # tiny instance where the computed k is feasible only via the T_i = T
    # escape hatch or small closures; exercise the non-override path
    s = mk_nfa(
        {"a"},
        {"d"},
        "s0",
        {"s2"},
        [("s0", "i", "a", "s1"), ("s1", "o", "d", "s2")],
    )
    t = mk_nfa(
        {"a"},
        {"d"},
        "t0",
        {"t2"},
        [("t0", "i", "a", "t1"), ("t1", "o", "d", "t2")],
    )
    verdict = decide(s, t, PipelineConfig(depth=5))
    assert verdict.answer in (YES, INCONCLUSIVE)
    if verdict.answer == YES:
        assert verdict.verification.ok


def test_domain_mismatch_no():
    # source has input 'b' in its domain, the target never allows 'b'
    s = mk_nfa(
        {"a", "b"},
        {"d"},
        "s0",
        {"s2"},
        [
            ("s0", "i", "a", "s1"),
            ("s0", "i", "b", "s1"),
            ("s1", "o", "d", "s2"),
        ],
    )
    t = mk_nfa(
        {"a", "b"},
        {"d"},
        "t0",
        {"t2"},
        [("t0", "i", "a", "t1"), ("t1", "o", "d", "t2")],
    )
    verdict = decide(s, t, PipelineConfig(depth=5))
    assert verdict.answer in (NO, INCONCLUSIVE)
    assert verdict.witness is not None


# ---------------------------------------------------------------------------
# recognizable fast path


def test_recognizable_product_relation_yes():
    verdict = decide_recognizable(*product_relation(), PipelineConfig(depth=6))
    assert verdict.answer == YES, (verdict.reason, verdict.stats)
    assert verdict.verification.ok, verdict.verification.failures


def test_recognizable_output_first_yes():
    # {(a, d), (a, e)} with target: output then input
    s = mk_nfa(
        {"a"},
        {"d", "e"},
        "s0",
        {"s2"},
        [("s0", "i", "a", "s1"), ("s1", "o", "d", "s2"), ("s1", "o", "e", "s2")],
    )
    t = mk_nfa(
        {"a"},
        {"d", "e"},
        "t0",
        {"t2"},
        [
            ("t0", "o", "d", "t1"),
            ("t0", "o", "e", "t1"),
            ("t1", "i", "a", "t2"),
        ],
    )
    verdict = decide_recognizable(s, t, PipelineConfig(depth=5))
    assert verdict.answer == YES, (verdict.reason, verdict.stats)
    assert verdict.verification.ok


def test_recognizable_domain_mismatch_no():
    s = mk_nfa(
        {"a"},
        {"d"},
        "s0",
        {"s2"},
        [("s0", "i", "a", "s1"), ("s1", "o", "d", "s2")],
    )
    # target allows no synchronization with input a
    t = mk_nfa(
        {"a"},
        {"d"},
        "t0",
        {"t1"},
        [("t0", "o", "d", "t1")],
    )
    verdict = decide_recognizable(s, t, PipelineConfig(depth=5))
    assert verdict.answer == NO
    assert verdict.witness is not None


def test_recognizable_rejects_infinite_shift():
    fam = tag_family("(12)*")
    verdict = decide_recognizable(fam, fam, PipelineConfig(depth=4))
    assert verdict.answer == REJECTED


# ---------------------------------------------------------------------------
# the verdict contract does not rest on asserts


def _failed_report(*args, **kwargs):
    return VerificationReport(ok=False, checks=(), failures=("forced failure",))


@pytest.mark.parametrize(
    "procedure,instance", [(decide, late_target), (decide_recognizable, product_relation)]
)
def test_yes_needs_a_passing_verification(monkeypatch, procedure, instance):
    monkeypatch.setattr(pipeline, "verify_uniformizer", _failed_report)
    verdict = procedure(*instance(), PipelineConfig(depth=5))
    assert verdict.answer == INCONCLUSIVE
    assert verdict.reason.startswith("verify:") and "forced failure" in verdict.reason
    assert verdict.machine is None
    assert not verdict.verification.ok


@pytest.mark.parametrize("procedure", [decide, decide_recognizable])
def test_no_needs_a_replayed_spoiler(monkeypatch, procedure):
    monkeypatch.setattr(pipeline, "replay_spoiler", lambda *args: False)
    verdict = procedure(*early_choice(), PipelineConfig(depth=5))
    assert verdict.answer == INCONCLUSIVE
    assert verdict.reason.startswith("spoiler:")


def test_verdict_checks_hold_under_optimize():
    """`python -O` strips asserts; the YES and NO checks must still run."""
    root = Path(__file__).resolve().parent.parent
    code = (
        "from syncsynth import pipeline\n"
        "from tests.test_pipeline import _failed_report, early_choice, product_relation\n"
        "pipeline.verify_uniformizer = _failed_report\n"
        "pipeline.replay_spoiler = lambda *args: False\n"
        "cfg = pipeline.PipelineConfig(depth=5)\n"
        "for make in (product_relation, early_choice):\n"
        "    print(pipeline.decide_recognizable(*make(), cfg).answer)\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(root / "src"), str(root)]))
    done = subprocess.run(
        [sys.executable, "-O", "-c", code], cwd=root, env=env, capture_output=True, text=True
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == [INCONCLUSIVE, INCONCLUSIVE]


def test_program_has_no_assert_statements():
    """No guarantee may rest on `assert`, which `python -O` removes."""
    package = Path(pipeline.__file__).resolve().parent
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(package.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert not found, found


# the state cap each case lowers automata.STATE_CAP to: abst's canonical
# reader fits in 200 states, its T_iS at k = 2 does not
LOWERED_STATE_CAP = {"canonicalize": 3, "canonicalize_finite_shift": 3, "build_TiS": 200}


@pytest.mark.parametrize(
    "procedure, fixtures, cfg, construction",
    [
        (decide, ("intro_S", "intro_T"), PipelineConfig(k_override=3), "canonicalize"),
        (decide_recognizable, ("intro_S", "intro_T"), PipelineConfig(), "canonicalize_finite_shift"),
        (decide, ("abst_S", "abst_T"), PipelineConfig(k_override=2), "build_TiS"),
    ],
)
def test_state_cap_gives_inconclusive(request, monkeypatch, procedure, fixtures, cfg, construction):
    """The reason names the construction and the one state cap, and asks
    for nothing the caller cannot set."""
    s, t = (request.getfixturevalue(name) for name in fixtures)
    cap = LOWERED_STATE_CAP[construction]
    monkeypatch.setattr(automata, "STATE_CAP", cap)
    verdict = procedure(s, t, cfg)
    assert verdict.answer == INCONCLUSIVE
    assert verdict.reason == (
        f"state cap: {construction}: construction exceeded {cap} states (automata.STATE_CAP)"
    )


@pytest.mark.parametrize("closure_cap, tape", [(1, "input"), (5, "output")])
def test_closure_cap_gives_inconclusive(monkeypatch, abst_S, abst_T, closure_cap, tape):
    """abst has 4 input and 10 output profiles: a closure cap of 1 stops the
    input closure, a cap of 5 the output closure. The reason names the tape
    and the one closure cap, and no block cap was computed."""
    monkeypatch.setattr(profiles, "CLOSURE_CAP", closure_cap)
    verdict = decide(abst_S, abst_T)
    assert verdict.answer == INCONCLUSIVE
    assert verdict.reason == (
        f"closure cap: the {tape} profile closure exceeded {closure_cap} profiles "
        "(profiles.CLOSURE_CAP)"
    )
    assert "k_computed" not in verdict.stats


def test_empty_source_takes_the_general_path():
    """An empty source canonicalizes to one state without finals, and the
    empty relation is uniformized by a machine that accepts nothing."""
    s = mk_nfa({"a"}, {"d"}, "q0", set(), [("q0", "i", "a", "q1"), ("q1", "o", "d", "q0")])
    for can in (
        canonicalize(s, shiftlag_finiteness(s)).dfa,
        canonicalize_finite_shift(s, shift_finiteness(s)),
    ):
        assert len(can.states) == 1 and not can.finals and not can.transitions
    verdict = decide_recognizable(s, tag_family("1*2*"), PipelineConfig(depth=4))
    assert verdict.answer == YES, verdict.reason
    assert verdict.stats["canonical_source_states"] == 1
    assert verdict.verification.ok


@pytest.mark.parametrize("target", ["abst_T", "abst_late_T"])
def test_abst_answers_yes(request, abst_S, target):
    """abst's outputs may wait for any number of inputs. build_TiS guesses
    them and lets an input tail begin while they are owed, so T_iS keeps
    every word of T_i and the default configuration answers YES."""
    verdict = decide(abst_S, request.getfixturevalue(target))
    assert verdict.answer == YES, (verdict.reason, verdict.stats)
    assert verdict.verification.ok, verdict.verification.failures


@pytest.mark.parametrize(
    "cfg, why",
    [
        (PipelineConfig(), "computed k = 70 capped at FEASIBLE_K_CAP = 6"),
        (PipelineConfig(k_override=2), "k = 2 is an override, not a computed bound"),
    ],
)
def test_inexact_block_cap_opens_the_reason(monkeypatch, abst_S, abst_T, cfg, why):
    """abst's computed block cap is far above FEASIBLE_K_CAP, and T_i is not
    T at the block cap used, so a NO would not be exact. With a T_iS that
    kept no word, the domain check fails and the INCONCLUSIVE says so, after
    the block cap."""
    monkeypatch.setattr(
        pipeline, "build_TiS", lambda *args: replace(build_TiS(*args), finals=frozenset())
    )
    verdict = decide(abst_S, abst_T, cfg)
    assert verdict.answer == INCONCLUSIVE
    assert verdict.reason == (
        f"block cap: {why}, so T_i may miss words and a NO is not exact; "
        "an input of the source relation has no allowed synchronization"
    )


def late_letter_decides():
    """S = {(a^n b, d^m), (a^n c, e^m) : m >= 1}, T = 1*·2*·1: the outputs must
    come before the last input, which decides them, so the answer is NO. Output
    blocks are unbounded in T, so T_i misses words at every block cap."""
    s = mk_nfa(
        {"a", "b", "c"}, {"d", "e"}, "s0", {"sd", "se"},
        [("s0", "i", "a", "s0"), ("s0", "i", "b", "s1"), ("s0", "i", "c", "s2"),
         ("s1", "o", "d", "sd"), ("sd", "o", "d", "sd"), ("s2", "o", "e", "se"),
         ("se", "o", "e", "se")],
    )
    t = mk_nfa(
        {"a", "b", "c"}, {"d", "e"}, "t0", {"t2"},
        [("t0", "i", x, "t0") for x in "abc"] + [("t0", "o", y, "t1") for y in "de"]
        + [("t1", "o", y, "t1") for y in "de"] + [("t1", "i", x, "t2") for x in "abc"],
    )
    return s, t


@pytest.mark.parametrize(
    "cfg, why",
    [
        (PipelineConfig(depth=5), r"computed k = \d+ capped at FEASIBLE_K_CAP = 6"),
        (PipelineConfig(k_override=1, depth=5), r"k = 1 is an override, not a computed bound"),
    ],
)
def test_lost_game_at_an_inexact_block_cap_is_inconclusive(cfg, why):
    """The input player spoils the game on T_i, but T_i is not T at the block
    cap used, so the would-be NO is INCONCLUSIVE and its reason says why."""
    verdict = decide(*late_letter_decides(), cfg)
    assert verdict.answer == INCONCLUSIVE, verdict.reason
    pattern = (
        f"block cap: {why}, so T_i may miss words and a NO is not exact; "
        ".*the input player spoils the game"
    )
    assert re.fullmatch(pattern, verdict.reason), verdict.reason


def single_pair(inputs: str, outputs: str, u: str, v: str, tags) -> tuple:
    """S = {(u, v)}, synchronized inputs first, and T = the one word that
    interleaves (u, v) along `tags` (1 for input, 2 for output). Following
    that word uniformizes S, so the answer is YES."""

    def linear(prefix, tag_seq):
        w = recompose(tag_seq, (u, v))
        edges = [(f"{prefix}{j}", "io"[l.tape - 1], l.symbol, f"{prefix}{j + 1}")
                 for j, l in enumerate(w)]
        return mk_nfa(set(inputs), set(outputs), f"{prefix}0", {f"{prefix}{len(w)}"}, edges)

    return linear("s", [1] * len(u) + [2] * len(v)), linear("t", tags)


def test_outputs_running_ahead_are_resynchronized():
    """S = {(a, bbb)}, T = {b·b·a·b}, outputs {b, c}. The larger output
    alphabet makes build_TiS guess inputs for outputs that run ahead; an
    output tail must be able to begin while a guessed input is owed, or T_iS
    is empty and decide answers a wrong exact NO."""
    verdict = decide(*single_pair("a", "bc", "a", "bbb", (2, 2, 1, 2)))
    assert verdict.answer == YES, (verdict.reason, verdict.stats)
    assert verdict.stats["t_i_s_states"] > 1


@pytest.mark.parametrize("inputs, outputs", [("a", "bc"), ("bc", "a")])
def test_single_pair_sweep_answers_yes(inputs, outputs):
    """Random single-pair relations with |u|, |v| <= 3, in both alphabet
    orientations, each against one interleaving of its pair."""
    rng = random.Random(f"single-pair:{inputs}:{outputs}")
    for _ in range(40):
        u = "".join(rng.choices(inputs, k=rng.randint(1, 3)))
        v = "".join(rng.choices(outputs, k=rng.randint(1, 3)))
        tags = [1] * len(u) + [2] * len(v)
        rng.shuffle(tags)
        verdict = decide(*single_pair(inputs, outputs, u, v, tags), PipelineConfig(depth=6))
        assert verdict.answer == YES, (u, v, tags, verdict.reason)


def delay_instance(m: int, d: int):
    """S relates every input of length at least m to the output letter naming
    its m-th letter, synchronized as 1^m 2 1*; T lets that output wait for at
    most d input letters. The answer is YES iff m <= d."""
    s_edges = [(f"q{j}", "i", x, f"q{j + 1}") for j in range(m - 1) for x in "ab"]
    for x, y in zip("ab", "no"):
        s_edges += [(f"q{m - 1}", "i", x, f"r{x}"), (f"r{x}", "o", y, "f"), ("f", "i", x, "f")]
    t_edges = [(f"p{j}", "i", x, f"p{j + 1}") for j in range(d) for x in "ab"]
    t_edges += [(f"p{j}", "o", y, "g") for j in range(d + 1) for y in "no"]
    t_edges += [("g", "i", x, "g") for x in "ab"]
    return mk_nfa({"a", "b"}, {"n", "o"}, "q0", {"f"}, s_edges), mk_nfa(
        {"a", "b"}, {"n", "o"}, "p0", {"g"}, t_edges
    )


def test_resync_and_no_witness_are_hash_seed_independent(tmp_path):
    """`syncsynth resync` and `syncsynth decide` print the same bytes on
    every run and under every hash seed. Set-ordered successors in build_TiS
    once renamed its states from run to run, and the NO witness with them."""
    root = Path(__file__).resolve().parent.parent
    paths = []
    for name, a in zip(("s.json", "t.json"), delay_instance(2, 1)):
        paths.append(tmp_path / name)
        paths[-1].write_text(serialize.dumps(a), encoding="utf-8")
    for command, code in ((["resync", *map(str, paths), "--bound-k", "2"], 0),
                          (["decide", *map(str, paths)], 1)):
        outputs = set()
        for seed in ("0", "0", "7"):
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=str(root / "src"))
            done = subprocess.run(
                [sys.executable, "-m", "syncsynth.cli", *command],
                cwd=root, env=env, capture_output=True, text=True,
            )
            assert done.returncode == code, done.stderr
            outputs.add(done.stdout)
        assert len(outputs) == 1, command[0]


def test_benchmark_layer_names_resolve_on_the_pipeline():
    """decidebench's tracer looks up each of its layer names on
    syncsynth.pipeline with getattr; an import cleanup there must keep them."""
    path = Path(__file__).resolve().parent.parent / "decidebench" / "layers.py"
    spec = importlib.util.spec_from_file_location("decidebench_layers", path)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    missing = [name for name in layers.LAYERS if not callable(getattr(pipeline, name, None))]
    assert not missing, missing


def fast_b():
    """S = {(a, d), (a, e)} read input-first; T asks for the output first."""
    s = mk_nfa({"a"}, {"d", "e"}, "s0", {"s2"},
               [("s0", "i", "a", "s1"), ("s1", "o", "d", "s2"), ("s1", "o", "e", "s2")])
    t = mk_nfa({"a"}, {"d", "e"}, "t0", {"t2"},
               [("t0", "o", "d", "t1"), ("t0", "o", "e", "t1"), ("t1", "i", "a", "t2")])
    return s, t


@pytest.mark.parametrize("name, procedure, cfg, states", [
    ("intro", decide, PipelineConfig(k_override=3, depth=6), 7),
    ("intro", decide_recognizable, PipelineConfig(), 7),
    ("ann", decide_recognizable, PipelineConfig(), 8),
    ("fast-B", decide_recognizable, PipelineConfig(), 5),
    ("delay-m4-D4", decide_recognizable, PipelineConfig(), 9),
    ("abst", decide, PipelineConfig(), 10),
])
def test_yes_machines_are_minimal(request, name, procedure, cfg, states):
    if name == "fast-B":
        s, t = fast_b()
    elif name == "delay-m4-D4":
        s, t = delay_instance(4, 4)
    else:
        s, t = (request.getfixturevalue(f"{name}_{x}") for x in "ST")
    verdict = procedure(s, t, cfg)
    assert verdict.answer == YES, verdict.reason
    assert_minimal_machine(verdict.machine)
    assert len(verdict.machine.states) == states


def padded_output():
    """S = x·a*·b reads x, then emits a^n·b; T = a*·b·x asks for the output
    first. Any n works, so the machine should emit b alone."""
    s = mk_nfa({"x"}, {"a", "b"}, "s0", {"s2"},
               [("s0", "i", "x", "s1"), ("s1", "o", "a", "s1"), ("s1", "o", "b", "s2")])
    t = mk_nfa({"x"}, {"a", "b"}, "t0", {"t2"},
               [("t0", "o", "a", "t0"), ("t0", "o", "b", "t1"), ("t1", "i", "x", "t2")])
    return s, t


def test_machines_emit_no_padding(tmp_path, capsys):
    """The machine emits b, not a run of a's as long as a bound on the
    output player's turn: `decide_recognizable`, `decide` at block cap 2 and
    the `decide` command all give the 5-state machine."""
    s, t = padded_output()
    s_path, t_path = tmp_path / "s.json", tmp_path / "t.json"
    s_path.write_text(serialize.dumps(s), encoding="utf-8")
    t_path.write_text(serialize.dumps(t), encoding="utf-8")
    assert main(["decide", str(s_path), str(t_path)]) == 0
    doc = json.loads(capsys.readouterr().out)
    machines = [
        decide_recognizable(s, t, PipelineConfig()).machine,
        decide(s, t, PipelineConfig(k_override=2)).machine,
        serialize.from_dict(doc["machine"]),
    ]
    for machine in machines:
        assert len(machine.states) == 5
        produced = run_machine(machine, ("x", automata.END_IN))
        assert [l.symbol for l in produced] == ["b", "x", automata.END_IN, automata.END_OUT]


@pytest.mark.parametrize("procedure, instance, cfg, answer", [
    (decide, "intro", PipelineConfig(k_override=3, depth=4), YES),
    (decide, "intro", PipelineConfig(depth=4), REJECTED),
    (decide, "delay-m2-D1", PipelineConfig(depth=4), NO),
    (decide_recognizable, "intro", PipelineConfig(depth=4), YES),
    (decide_recognizable, "delay-m2-D1", PipelineConfig(depth=4), NO),
])
def test_decisions_leave_their_inputs_alone(request, procedure, instance, cfg, answer):
    """Neither procedure caches anything on the caller's automata, nor on the
    machine it returns: every index it needs lives on automata it built
    itself, and the verdict keeps only the machine's fields."""
    if instance == "intro":
        s, t = (replace(request.getfixturevalue(f"intro_{x}")) for x in "ST")
    else:
        s, t = delay_instance(2, 1)
    verdict = procedure(s, t, cfg)
    assert verdict.answer == answer
    kept = [s, t] + ([verdict.machine] if answer == YES else [])
    for a in kept:
        assert set(vars(a)) == {f.name for f in fields(a)}
    if answer == YES:
        # the verifier leaves its machine argument alone too
        machine = replace(verdict.machine)
        assert verify_uniformizer(machine, add_endmarkers(s), add_endmarkers(t), depth=4).ok
        assert set(vars(machine)) == {f.name for f in fields(machine)}


@st.composite
def finite_shift_instances(draw, any_target=False):
    """A 1-3-state finite-shift source and a 1-3-state target over one or two
    letters per tape; sometimes the target is the source. The target has
    finite shiftlag unless `any_target` is set."""
    inputs = draw(st.sampled_from(["a", "ab"]))
    outputs = draw(st.sampled_from(["d", "de"]))
    letters = [("i", x) for x in inputs] + [("o", y) for y in outputs]

    def automaton(prefix):
        states = [f"{prefix}{j}" for j in range(draw(st.integers(min_value=1, max_value=3)))]
        edges = draw(st.lists(
            st.tuples(st.sampled_from(states), st.sampled_from(letters), st.sampled_from(states)),
            max_size=6, unique=True,
        ))
        finals = draw(st.sets(st.sampled_from(states), min_size=1))
        return mk_nfa(set(inputs), set(outputs), states[0], finals,
                      [(p, tape, sym, q) for p, (tape, sym), q in edges])

    s = automaton("q")
    assume(shift_finiteness(s).finite)
    if draw(st.integers(min_value=0, max_value=3)) == 0:
        return s, s
    t = automaton("t")
    assume(any_target or shiftlag_finiteness(t).finite)
    return s, t


# S = T = {a·d}: the input letter runs ahead of its output partner, so
# build_TiS must guess d when a arrives. A build_TiS that never guesses the
# first partner letter loses the only word, and `decide` answers NO where
# `decide_recognizable` answers YES; random draws rarely hit this.
A_THEN_D = (
    mk_nfa({"a"}, {"d"}, "q0", {"q2"}, [("q0", "i", "a", "q1"), ("q1", "o", "d", "q2")]),
    mk_nfa({"a"}, {"d"}, "t0", {"t2"}, [("t0", "i", "a", "t1"), ("t1", "o", "d", "t2")]),
)


# S = T = {a·e} over outputs {d, e}: build_TiS must guess e, the second of
# the output letters, when a arrives. A build_TiS that guesses only the
# first partner letter answers NO where `decide_recognizable` answers YES.
A_THEN_E = (
    mk_nfa({"a"}, {"d", "e"}, "q0", {"q2"}, [("q0", "i", "a", "q1"), ("q1", "o", "e", "q2")]),
    mk_nfa({"a"}, {"d", "e"}, "t0", {"t2"}, [("t0", "i", "a", "t1"), ("t1", "o", "e", "t2")]),
)


@settings(deadline=None, max_examples=100)
@given(finite_shift_instances())
@example(A_THEN_D)
@example(A_THEN_E)
def test_decide_agrees_with_decide_recognizable(instance):
    """Both procedures apply to a finite-shift source with a finite-shiftlag
    target: whenever both are conclusive they agree, and every machine either
    synthesizes is minimal."""
    s, t = instance
    cfg = PipelineConfig(depth=4)
    verdicts = [decide(s, t, cfg), decide_recognizable(s, t, cfg)]
    answers = [v.answer for v in verdicts]
    if INCONCLUSIVE not in answers:
        assert answers[0] == answers[1], [v.reason for v in verdicts]
    for verdict in verdicts:
        if verdict.answer == YES:
            assert_minimal_machine(verdict.machine)


def assert_uniformizes_upto(machine, s, t, max_len):
    """Each word of the machine up to `max_len` letters lies in T⊣, and S⊣
    has a word of the same length with the same decoded pair."""
    s_end, t_end = add_endmarkers(s), add_endmarkers(t)
    for w in enumerate_accepted(machine, max_len):
        assert nfa_accepts_naive(t_end, w), w
        u, v = decode_naive(w)
        assert any(
            nfa_accepts_naive(s_end, recompose(tags, (u, v)))
            for inputs_at in itertools.combinations(range(len(w)), len(u))
            for tags in [tuple(1 if j in inputs_at else 2 for j in range(len(w)))]
        ), w


@settings(deadline=None, max_examples=150)
@given(finite_shift_instances(any_target=True))
@example((tag_family("1*2*"), tag_family("(1*2*)*")))
@example((A_THEN_D[0], tag_family("(1*2*)*")))
def test_decide_recognizable_takes_targets_of_any_shiftlag(instance):
    """A finite-shift source is decided against any target: never REJECTED,
    a YES of the block-cap `decide` (sound at any cap) is a YES here, and a
    NO here leaves `decide` no YES. Every YES machine passes the bounded
    oracle."""
    s, t = instance
    exact = decide_recognizable(s, t, PipelineConfig(depth=4))
    capped = decide(s, t, PipelineConfig(k_override=2, depth=4))
    assert exact.answer != REJECTED, exact.reason
    if capped.answer == YES:
        assert exact.answer == YES, exact.reason
    if exact.answer == NO:
        assert capped.answer != YES, capped.reason
    for verdict in (exact, capped):
        if verdict.answer == YES:
            assert_uniformizes_upto(verdict.machine, s, t, 8)
