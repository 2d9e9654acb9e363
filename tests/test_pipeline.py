import os
import subprocess
import sys
from pathlib import Path

import pytest

from syncsynth import pipeline
from syncsynth.automata import END_IN, END_OUT
from syncsynth.game import VerificationReport
from syncsynth.letters import decode
from syncsynth.pipeline import (
    INCONCLUSIVE,
    NO,
    PipelineConfig,
    REJECTED,
    YES,
    decide,
    decide_recognizable,
)

from .conftest import mk_nfa, tag_family


def test_intro_instance_yes(intro_S, intro_T):
    cfg = PipelineConfig(k_override=3, depth=6)
    verdict = decide(intro_S, intro_T, cfg)
    assert verdict.answer == YES, (verdict.reason, verdict.stats)
    assert verdict.verification.ok, verdict.verification.failures
    assert verdict.machine is not None


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



@pytest.mark.parametrize(
    "procedure, fixtures, cfg, construction",
    [
        (decide, ("intro_S", "intro_T"), PipelineConfig(k_override=3, state_cap=3), "canonicalize"),
        (decide_recognizable, ("intro_S", "intro_T"), PipelineConfig(state_cap=3), "canonicalize_finite_shift"),
        # abst's canonical reader fits in 200 states, its T_iS at k = 2 does not
        (decide, ("abst_S", "abst_T"), PipelineConfig(k_override=2, state_cap=200), "build_TiS"),
    ],
)
def test_state_cap_gives_inconclusive(request, procedure, fixtures, cfg, construction):
    s, t = (request.getfixturevalue(name) for name in fixtures)
    verdict = procedure(s, t, cfg)
    assert verdict.answer == INCONCLUSIVE
    assert verdict.reason.startswith(f"state cap: {construction}: ")
    assert str(cfg.state_cap) in verdict.reason
