import itertools
import os
import random
import subprocess
import sys
from graphlib import TopologicalSorter
from pathlib import Path

import pytest

from syncsynth import serialize
from syncsynth.automata import (
    END_IN,
    END_OUT,
    Nfa,
    ReservedSymbolClash,
    SequentialDfa,
    add_endmarkers,
    language_equal,
    minimize,
)
from syncsynth.game import (
    NotWinning,
    build_arena,
    extract_sdfa,
    in_spoiling_strategy,
    replay_spoiler,
    run_machine,
    solve,
    verify_uniformizer,
)
from syncsynth.letters import Tape, inp, out

from .arena_endmarked import build_endmarked_arena, extract_endmarked_sdfa
from .conftest import mk_nfa
from .oracles import fewest_output_letters, in_force_loss_set


def sync_language(words, input_alphabet, output_alphabet):
    """NFA accepting exactly the given tagged words."""
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
    return Nfa(
        input_alphabet=frozenset(input_alphabet),
        output_alphabet=frozenset(output_alphabet),
        states=frozenset(states | finals),
        initial="i",
        transitions=frozenset(transitions),
        finals=frozenset(finals),
    )


A, B, C = inp("a"), inp("b"), inp("c")
D, E, F = out("d"), out("e"), out("f")


def tiny_instances():
    """(name, language, expected Out win?) — the game corpus."""
    inst = []
    inst.append(("single-word", sync_language([(A, D)], {"a"}, {"d", "e"}), True))
    # In can spoil: output must be chosen before the deciding input letter
    inst.append(
        ("forced-early-choice", sync_language([(A, D, B), (A, E, C)], {"a", "b", "c"}, {"d", "e"}), False)
    )
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
    # In spoils by length: d must be emitted before the first input or never,
    # and the input player then ends the stream after one a or after two
    inst.append(("premature-commitment", sync_language([(D, A), (A, A)], {"a"}, {"d"}), False))
    # two completions after the input: the shorter one (f) is the one to take
    inst.append(
        ("shortest-completion", sync_language([(A, D, E), (A, F)], {"a"}, {"d", "e", "f"}), True)
    )
    return inst


@pytest.fixture(scope="module")
def corpus():
    return tiny_instances()


def test_arena_refuses_an_endmarked_language(intro_S):
    """The arena plays on the language itself; an endmarker already in its
    alphabet is refused, and the error names it."""
    with pytest.raises(ReservedSymbolClash, match=END_IN):
        build_arena(add_endmarkers(intro_S))
    only_out = Nfa({"a"}, {"d", END_OUT}, {"q"}, "q", set(), {"q"})
    with pytest.raises(ReservedSymbolClash, match=END_OUT):
        build_arena(only_out)


def test_arena_structural_bound(corpus):
    for name, lang, _ in corpus:
        arena = build_arena(lang)
        n_p = len(arena.p_dfa.states)
        n_d = len(arena.d_dfa.states)
        assert len(arena.vertices) <= 2 * n_p * n_d + 3, name


def test_initial_vertex_is_out_owned(corpus):
    """The output player moves first, and may emit the empty word."""
    for name, lang, _ in corpus:
        arena = build_arena(lang)
        _, p, d = arena.initial
        assert arena.initial[0] == "out", name
        assert (("emit", p), ("in", p, d)) in arena.moves[arena.initial], name


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
    region, _ = solve(arena)
    machine = extract_sdfa(arena, region)
    produced = run_machine(machine, ("a", END_IN))
    assert produced is not None
    assert [l.symbol for l in produced] == ["a", END_IN, "d", END_OUT]


def assert_minimal_machine(machine):
    """An extracted machine is minimal, each output state emits exactly once,
    each final state is an input state with no edge, and no state is an
    explicit sink."""
    smallest = minimize(machine)
    assert len(smallest.states) == len(machine.states)
    assert language_equal(smallest, machine)[0]
    for q in machine.output_states:
        assert len(machine.out_edges(q)) == 1, q
    for q in machine.finals:
        assert q in machine.input_states and not machine.out_edges(q), q
    assert not any(q.startswith("sink") for q in machine.states)


def test_extracted_machines_are_minimal(corpus):
    for name, lang, want_win in corpus:
        if not want_win:
            continue
        arena = build_arena(lang)
        region, _ = solve(arena)
        assert_minimal_machine(extract_sdfa(arena, region))


def test_extracted_machines_verify(corpus):
    for name, lang, want_win in corpus:
        arena = build_arena(lang)
        region, _ = solve(arena)
        if not want_win:
            continue
        machine = extract_sdfa(arena, region)
        endmarked = add_endmarkers(lang)
        report = verify_uniformizer(machine, endmarked, endmarked, depth=5)
        assert report.ok, (name, report.failures)


def test_no_instances_have_replayable_spoilers(corpus):
    for name, lang, want_win in corpus:
        if want_win:
            continue
        arena = build_arena(lang)
        region, strategy = solve(arena)
        spoiler = in_spoiling_strategy(strategy)
        assert replay_spoiler(arena, region, spoiler), name


def spoiler_successors(arena, spoiler, v):
    """Where a play can go from v when the input player follows `spoiler`."""
    if v[0] == "in":
        return [dict(arena.moves[v])[spoiler[v]]]
    return [nxt for _, nxt in arena.moves.get(v, ())]


def test_replay_refuses_a_spoiler_that_lets_the_play_run_forever():
    """a(da)*: the input player wins by ending the stream after a·d, which
    has no accepted completion. A spoiler that takes each In vertex's first
    move out of the winning region plays a forever instead; the output player
    answers d each time, and the play never ends, which the output player
    wins. A certificate that names a move its In vertex lacks fails the
    replay too, instead of raising."""
    lang = mk_nfa({"a"}, {"d"}, "q0", {"q1"}, [("q0", "i", "a", "q1"), ("q1", "o", "d", "q0")])
    arena = build_arena(lang)
    region, strategy = solve(arena)
    assert arena.initial not in region
    first_move = {
        v: next(move for move, nxt in arena.moves[v] if nxt not in region)
        for v in arena.moves
        if v[0] == "in" and v not in region
    }
    assert set(first_move.values()) == {("play", "a")}
    assert not replay_spoiler(arena, region, first_move)
    spoiler = in_spoiling_strategy(strategy)
    assert ("end",) in spoiler.values()
    assert replay_spoiler(arena, region, spoiler)
    assert not replay_spoiler(arena, region, dict.fromkeys(spoiler, ("play", "zzz")))


def random_languages(seed, count):
    """`count` languages of random 1-4-state automata with 1-9 edges over
    inputs {a, b} and outputs {c, d}."""
    rng = random.Random(seed)
    letters = [inp("a"), inp("b"), out("c"), out("d")]
    for _ in range(count):
        states = [f"q{j}" for j in range(rng.randint(1, 4))]
        edges = {(rng.choice(states), rng.choice(letters), rng.choice(states)) for _ in range(rng.randint(1, 9))}
        finals = {q for q in states if rng.random() < 0.5} or {states[-1]}
        yield Nfa({"a", "b"}, {"c", "d"}, states, states[0], edges, finals)


def test_arena_agrees_with_the_endmarked_reference(corpus):
    """On the corpus and 300 languages of `random_languages`, the arena on a
    language L and the reference arena on `add_endmarkers(L)` have as many
    vertices and the same winner, and a won game gives the same machine
    bytes."""
    languages = [lang for _, lang, _ in corpus] + list(random_languages(2, 300))
    won = 0
    for lang in languages:
        arena, reference = build_arena(lang), build_endmarked_arena(add_endmarkers(lang))
        region, _ = solve(arena)
        reference_region, _ = solve(reference)
        assert len(arena.vertices) == len(reference.vertices)
        assert (arena.initial in region) == (reference.initial in reference_region)
        if arena.initial in region:
            won += 1
            machine = extract_endmarked_sdfa(reference, reference_region)
            assert serialize.dumps(extract_sdfa(arena, region)) == serialize.dumps(machine)
    assert won >= 100 and len(languages) - won >= 20, won


def test_spoiler_plays_end_in_a_loss_on_random_languages():
    """On each lost game of `random_languages` the plays that follow the
    spoiler form an acyclic graph, and each maximal one ends at ("lose",)."""
    lost = 0
    for lang in random_languages(1, 600):
        arena = build_arena(lang)
        region, strategy = solve(arena)
        if arena.initial in region:
            continue
        lost += 1
        spoiler = in_spoiling_strategy(strategy)
        graph = {}  # the moves that plays following the spoiler can take
        stack = [arena.initial]
        while stack:
            v = stack.pop()
            if v not in graph:
                graph[v] = spoiler_successors(arena, spoiler, v)
                stack.extend(graph[v])
        tuple(TopologicalSorter(graph).static_order())  # raises CycleError on a cycle
        ends = [v for v, succs in graph.items() if not succs]
        assert ends == [("lose",)], ends
        assert replay_spoiler(arena, region, spoiler)
    assert lost >= 20, lost


def output_runs(machine):
    """Lengths of the maximal runs of output letters the machine emits, one
    from the initial state and from each target of an input edge, not
    counting `⊣o`."""
    starts = {machine.initial} | {q for _, letter, q in machine.transitions if letter.tape is Tape.INPUT}
    runs = []
    for q in sorted(starts):
        n = 0
        while q in machine.output_states:
            (letter, q), = machine.out_edges(q)
            n += letter != out(END_OUT)
        runs.append(n)
    return runs


def test_output_runs_are_simple_paths_on_random_languages():
    """Each output run of a won machine of `random_languages` is a shortest
    word, so it follows a simple path of the word automaton: fewer letters
    than that automaton has states. Greedy least-letter emission padded runs
    up to a bound on their length."""
    won = 0
    for lang in random_languages(5, 3000):
        arena = build_arena(lang)
        region, _ = solve(arena)
        if arena.initial not in region:
            continue
        won += 1
        machine = extract_sdfa(arena, region)
        assert max(output_runs(machine)) <= len(arena.p_dfa.states) - 1
    assert won >= 2000, won


def test_strategy_stays_in_region(corpus):
    """The output player can stay in the region and the input player cannot
    leave it; each spoiler move leaves it."""
    for name, lang, _ in corpus:
        arena = build_arena(lang)
        region, strategy = solve(arena)
        for v, moves in arena.moves.items():
            succs = [nxt for _, nxt in moves]
            if v in region:
                stays = any if v[0] == "out" else all
                assert stays(nxt in region for nxt in succs), (name, v)
        for v, move in strategy.items():
            assert v[0] == "in" and dict(arena.moves[v])[move] not in region, (name, v)


def test_extract_requires_win(corpus):
    for name, lang, want_win in corpus:
        if want_win:
            continue
        arena = build_arena(lang)
        region, _ = solve(arena)
        with pytest.raises(NotWinning):
            extract_sdfa(arena, region)


def test_verify_rejects_mutated_machine(corpus):
    name, lang, _ = corpus[2]  # late-choice instance
    arena = build_arena(lang)
    region, _ = solve(arena)
    machine = extract_sdfa(arena, region)
    # redirect one output edge to a wrong successor
    swapped = None
    for (p, letter, q) in sorted(machine.transitions):
        if letter == out("d"):
            swapped = (p, letter, q)
            break
    assert swapped is not None
    p0, l0, q0 = swapped
    mutated_edges = set(machine.transitions) - {swapped} | {(p0, out("e"), q0)}
    mutated = SequentialDfa(
        input_alphabet=machine.input_alphabet,
        output_alphabet=machine.output_alphabet,
        states=machine.states,
        initial=machine.initial,
        transitions=frozenset(mutated_edges),
        finals=machine.finals,
        input_states=machine.input_states,
        output_states=machine.output_states,
    )
    endmarked = add_endmarkers(lang)
    report = verify_uniformizer(mutated, endmarked, endmarked, depth=5)
    assert not report.ok


def test_completions_are_shortest(corpus, intro_S, abst_S, ann_S):
    """After the endmark the machine completes the word by a shortest output
    word to a final state of the word automaton, then writes `⊣o`."""
    languages = [(name, lang) for name, lang, _ in corpus]
    languages += [("intro", intro_S), ("abst", abst_S), ("ann", ann_S)]
    checked = 0
    for name, lang in languages:
        arena = build_arena(lang)
        region, _ = solve(arena)
        if arena.initial not in region:
            continue
        machine = extract_sdfa(arena, region)
        inputs = sorted(lang.input_alphabet)
        for stream in itertools.chain.from_iterable(itertools.product(inputs, repeat=n) for n in range(5)):
            produced = run_machine(machine, stream + (END_IN,))
            if produced is None:
                continue
            cut = produced.index(inp(END_IN))
            *completion, last = produced[cut + 1:]
            assert last == out(END_OUT), (name, stream)
            assert len(completion) == fewest_output_letters(arena.p_dfa, arena.p_dfa.run(produced[:cut])), (name, stream)
            checked += 1
    assert checked >= 20, checked


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


def test_verify_rejects_an_endless_output_run():
    """S = {(a, d^n) : n >= 1}, T = a·d*. After a the machine emits d
    forever, so it outputs nothing for a; a run cut off after a budget of
    steps would have returned a·d·d… and passed."""
    s = mk_nfa({"a"}, {"d"}, "s0", {"s2"},
               [("s0", "i", "a", "s1"), ("s1", "o", "d", "s2"), ("s2", "o", "d", "s2")])
    t = mk_nfa({"a"}, {"d"}, "t0", {"t1"}, [("t0", "i", "a", "t1"), ("t1", "o", "d", "t1")])
    machine = mk_nfa(
        {"a"}, {"d"}, "m0", {"m2"},
        [("m0", "i", "a", "m1"), ("m1", "o", "d", "m2"), ("m2", "o", "d", "m2")],
        cls=SequentialDfa,
        input_states=frozenset({"m0"}),
        output_states=frozenset({"m1", "m2"}),
    )
    assert run_machine(machine, ("a",)) is None
    report = verify_uniformizer(machine, s, t, depth=3)
    assert not report.ok
    assert report.failures == ("no output for domain input ('a',)",)


def test_verify_refuses_a_depth_below_one(intro_U, intro_S, intro_T):
    for depth in (0, -1):
        with pytest.raises(ValueError, match="depth"):
            verify_uniformizer(intro_U, intro_S, intro_T, depth=depth)


def test_arena_plays_on_minimal_dfas(corpus):
    for name, lang, _ in corpus:
        arena = build_arena(lang)
        for dfa in (arena.p_dfa, arena.d_dfa):
            assert serialize.dumps(minimize(dfa)) == serialize.dumps(dfa), name
