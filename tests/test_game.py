import os
import subprocess
import sys
from pathlib import Path

import pytest

from syncsynth import serialize
from syncsynth.automata import (
    END_IN,
    END_OUT,
    Nfa,
    add_endmarkers,
    accepts,
    enumerate_accepted,
    inclusion,
)
from syncsynth.game import (
    MissingEndmarkers,
    NotWinning,
    Strategy,
    build_arena,
    extract_sdfa,
    in_spoiling_strategy,
    replay_spoiler,
    run_machine,
    solve,
    verify_uniformizer,
)
from syncsynth.letters import inp, out

from .conftest import mk_nfa
from .oracles import distance_to_done, in_force_loss_set


def sync_language(words, input_alphabet, output_alphabet):
    """NFA accepting exactly the given tagged words (then endmarked)."""
    states = {"i"}
    transitions = set()
    finals = set()
    for wi, w in enumerate(words):
        prev = "i"
        for k, letter in enumerate(w):
            nxt = f"w{wi}_{k}"
            states.add(nxt)
            transitions.add((prev, letter, nxt))
            prev = nxt
        finals.add(prev)
    if not words:
        pass
    raw = Nfa(
        input_alphabet=frozenset(input_alphabet),
        output_alphabet=frozenset(output_alphabet),
        states=frozenset(states | finals),
        initial="i",
        transitions=frozenset(transitions),
        finals=frozenset(finals),
    )
    return add_endmarkers(raw)


A, B, C = inp("a"), inp("b"), inp("c")
D, E, F = out("d"), out("e"), out("f")


def tiny_instances():
    """(name, endmarked language, expected Out win?) — the game corpus."""
    inst = []
    inst.append(("single-word", sync_language([(A, D)], {"a"}, {"d", "e"}), True))
    # In can spoil: output must be chosen before the deciding input letter
    spoil = Nfa(
        input_alphabet=frozenset({"a", "b", "c", END_IN}),
        output_alphabet=frozenset({"d", "e", END_OUT}),
        states=frozenset({"0", "1d", "1e", "2d", "2e", "3", "4", "5"}),
        initial="0",
        transitions=frozenset(
            {
                ("0", A, "1d"),
                ("0", A, "1e"),
                ("1d", D, "2d"),
                ("1e", E, "2e"),
                ("2d", B, "3"),
                ("2e", C, "3"),
                ("3", inp(END_IN), "4"),
                ("4", out(END_OUT), "5"),
            }
        ),
        finals=frozenset({"5"}),
    )
    inst.append(("forced-early-choice", spoil, False))
    inst.append(
        ("late-choice", sync_language([(A, B, D), (A, C, E)], {"a", "b", "c"}, {"d", "e"}), True)
    )
    inst.append(("output-options", sync_language([(A, D), (A, E)], {"a"}, {"d", "e"}), True))
    inst.append(("empty-language", sync_language([], {"a"}, {"d"}), True))
    inst.append(
        (
            "two-lengths",
            sync_language([(A, D), (A, A, E)], {"a"}, {"d", "e"}),
            True,
        )
    )
    inst.append(
        (
            "coordination",
            sync_language([(A, B, D, D), (A, C, D, E)], {"a", "b", "c"}, {"d", "e"}),
            True,
        )
    )
    inst.append(
        ("long-burst", sync_language([(A, D, D, D)], {"a"}, {"d"}), True)
    )
    # In spoils by length: the single output must be emitted before the
    # endmarker, so it commits against an unseen future input
    len_spoil = Nfa(
        input_alphabet=frozenset({"a", END_IN}),
        output_alphabet=frozenset({"d", END_OUT}),
        states=frozenset({"0", "1", "2", "3", "4", "5", "6"}),
        initial="0",
        transitions=frozenset(
            {
                ("0", A, "1"),
                ("1", D, "2"),  # after one a: exactly one d, then stop
                ("2", inp(END_IN), "3"),
                ("3", out(END_OUT), "6"),
                ("1", A, "4"),  # after two a: no output at all
                ("4", inp(END_IN), "5"),
                ("5", out(END_OUT), "6"),
            }
        ),
        finals=frozenset({"6"}),
    )
    inst.append(("premature-commitment", len_spoil, False))
    # two completions after the input: the shorter one (f) is the one to take
    inst.append(
        ("shortest-completion", sync_language([(A, D, E), (A, F)], {"a"}, {"d", "e", "f"}), True)
    )
    return inst


@pytest.fixture(scope="module")
def corpus():
    return tiny_instances()


def test_arena_requires_endmarkers(intro_S):
    with pytest.raises(MissingEndmarkers):
        build_arena(intro_S)


def test_arena_structural_bound(corpus):
    for name, lang, _ in corpus:
        arena = build_arena(lang)
        n_p = len(arena.p_dfa.states)
        n_d = len(arena.d_dfa.states)
        assert len(arena.vertices) <= 2 * (arena.cap + 1) * n_p * n_d * 2, name


def test_initial_vertex_is_out_owned(corpus):
    for name, lang, _ in corpus:
        arena = build_arena(lang)
        assert arena.initial[0] == "out", name
        assert any(m == ("yield",) for m, _ in arena.moves[arena.initial]), name


def test_solve_matches_exhaustive_search(corpus):
    for name, lang, want_win in corpus:
        arena = build_arena(lang)
        region, strategy = solve(arena)
        losing = in_force_loss_set(arena)
        # determinacy: every vertex is won by exactly one side
        for v in arena.vertices:
            assert (v in region) != (v in losing), (name, v)
        assert (arena.initial in region) == want_win, name


def test_single_word_machine(corpus):
    name, lang, _ = corpus[0]
    arena = build_arena(lang)
    region, strategy = solve(arena)
    machine = extract_sdfa(arena, strategy)
    produced = run_machine(machine, ("a", END_IN))
    assert produced is not None
    assert [l.symbol for l in produced] == ["a", END_IN, "d", END_OUT]


def test_extracted_machines_verify(corpus):
    for name, lang, want_win in corpus:
        arena = build_arena(lang)
        region, strategy = solve(arena)
        if not want_win:
            continue
        machine = extract_sdfa(arena, strategy)
        report = verify_uniformizer(machine, lang, lang, depth=5)
        assert report.ok, (name, report.failures)


def test_no_instances_have_replayable_spoilers(corpus):
    for name, lang, want_win in corpus:
        if want_win:
            continue
        arena = build_arena(lang)
        region, _ = solve(arena)
        spoiler = in_spoiling_strategy(arena, region)
        assert replay_spoiler(arena, region, spoiler), name


def test_strategy_stays_in_region(corpus):
    for name, lang, want_win in corpus:
        if not want_win:
            continue
        arena = build_arena(lang)
        region, strategy = solve(arena)
        for v in region:
            if v[0] != "out":
                continue
            move = strategy.move_for(v)
            if move is None:
                continue
            nxt = dict(arena.moves[v])[move]
            assert nxt in region, (name, v, move)


def test_burst_cap_sufficiency(corpus):
    for name, lang, _ in corpus:
        arena = build_arena(lang)
        region, _ = solve(arena)
        bigger = build_arena(lang, cap=arena.cap + 3)
        region2, _ = solve(bigger)
        assert (arena.initial in region) == (bigger.initial in region2), name


def test_extract_requires_win(corpus):
    for name, lang, want_win in corpus:
        if want_win:
            continue
        arena = build_arena(lang)
        region, strategy = solve(arena)
        with pytest.raises(NotWinning):
            extract_sdfa(arena, strategy)


def test_verify_rejects_mutated_machine(corpus):
    name, lang, _ = corpus[2]  # late-choice instance
    arena = build_arena(lang)
    region, strategy = solve(arena)
    machine = extract_sdfa(arena, strategy)
    # redirect one output edge to a wrong successor
    swapped = None
    for (p, letter, q) in sorted(machine.transitions):
        if letter == out("d"):
            swapped = (p, letter, q)
            break
    assert swapped is not None
    p0, l0, q0 = swapped
    mutated_edges = set(machine.transitions) - {swapped} | {(p0, out("e"), q0)}
    from syncsynth.automata import SequentialDfa

    mutated = SequentialDfa(
        input_alphabet=machine.input_alphabet,
        output_alphabet=machine.output_alphabet,
        states=machine.states,
        initial=machine.initial,
        transitions=frozenset(mutated_edges),
        finals=machine.finals,
        complete=False,
        input_states=machine.input_states,
        output_states=machine.output_states,
    )
    report = verify_uniformizer(mutated, lang, lang, depth=5)
    assert not report.ok


def test_post_endmark_choices_follow_shortest_paths(corpus, intro_S, abst_S, ann_S):
    """After the endmark Out must finish the word: a vertex is winning iff
    ("done",) is reachable, and its move lies on a shortest path there,
    finishing first and otherwise emitting the least letter."""
    languages = [(name, lang) for name, lang, _ in corpus]
    languages += [(name, add_endmarkers(s)) for name, s in (("intro", intro_S), ("abst", abst_S), ("ann", ann_S))]
    for name, lang in languages:
        arena = build_arena(lang)
        region, strategy = solve(arena)
        for v, moves in arena.moves.items():
            if v[0] != "out" or v[3] != "post":
                continue
            dist = distance_to_done(arena, v)
            assert (v in region) == (dist is not None), (name, v)
            if dist is None:
                continue
            shortest = [m for m, nxt in moves if distance_to_done(arena, nxt) == dist - 1]
            want = ("finish",) if ("finish",) in shortest else min(shortest)
            assert strategy.move_for(v) == want, (name, v)


def test_synthesized_machine_is_hash_seed_independent(tmp_path):
    """`syncsynth synthesize` prints the same bytes under any hash seed, and
    takes the shorter completion. Under set-order ranks some seeds emitted
    d e through a longer machine."""
    lang = {name: lang for name, lang, _ in tiny_instances()}["shortest-completion"]
    path = tmp_path / "lang.json"
    path.write_text(serialize.dumps(lang), encoding="utf-8")
    root = Path(__file__).resolve().parents[1]
    outputs = set()
    for seed in ("0", "13", "19", "36"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=str(root / "src"))
        done = subprocess.run(
            [sys.executable, "-m", "syncsynth.cli", "synthesize", str(path)],
            cwd=root, env=env, capture_output=True, text=True,
        )
        assert done.returncode == 0, done.stderr
        outputs.add(done.stdout)
    assert len(outputs) == 1
    machine = serialize.loads(outputs.pop())
    produced = run_machine(machine, ("a", END_IN))
    assert [l.symbol for l in produced] == ["a", END_IN, "f", END_OUT]


def test_verify_passes_intro_uniformizer(intro_U, intro_S, intro_T):
    report = verify_uniformizer(intro_U, intro_S, intro_T, depth=4)
    assert report.ok, report.failures
