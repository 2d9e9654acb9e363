"""Acceptance suite: one test per exit criterion, each printing a verdict line.

Golden values come from the worked examples; derived values from the
independent oracles in this package's test suite.
"""
import time

from syncsynth.analysis import (
    build_shape,
    certificate_lag_bound,
    measures,
    shift_finiteness,
    shiftlag_finiteness,
)
from syncsynth.automata import add_endmarkers, inclusion, pair_in_relation, trim
from syncsynth.canonical import canonicalize, canonicalize_finite_shift
from syncsynth.game import build_arena, extract_sdfa, solve, verify_uniformizer
from syncsynth.letters import Tape, decode
from syncsynth.pipeline import NO, PipelineConfig, YES, decide, decide_recognizable
from syncsynth.profiles import input_stt, profile_closure, ramsey_bound
from syncsynth.resync import ResyncParams, build_Ti, build_TiS, build_Tprime_recognizable
from syncsynth.trees import tree

from .conftest import (
    annotated_output_stt,
    canonical_dfa,
    enumerate_accepted,
    find_idempotent_factor,
    mk_nfa,
    output_stt,
    pumped,
    tag_family,
    tree_size,
)
from .oracles import in_force_loss_set, shiftlag_naive, to_tags
from .test_game import tiny_instances
from .test_profiles import congruence_check


def report(criterion, ok, extra=""):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {criterion}: {status} {extra}".rstrip())
    assert ok, f"criterion {criterion} failed: {extra}"


def test_criterion_1_golden_input_tree(abst_S, abst_T):
    start = time.monotonic()
    a = canonical_dfa(abst_S)
    got = input_stt(("a", "a"), "p1", "q0", 1, a, abst_T)
    expected = tree(
        ("p1", "q0"),
        [
            tree(("p2", "q1")),
            tree(("p2", "q0")),
            tree(("p2", "q2")),
            tree(
                ("p2", "q0"),
                [tree(("p3", "q0"), [tree(("p3", "q0")), tree(("p3", "q2"))])],
            ),
        ],
    )
    elapsed = time.monotonic() - start
    report(1, got == expected and tree_size(got) == 8 and elapsed < 1.0, f"({elapsed:.3f}s)")


def test_criterion_2_golden_output_trees(ann_S, ann_T):
    start = time.monotonic()
    a = canonical_dfa(ann_S)
    reduced = output_stt(("c", "c"), "p0", "q0", 0, a, ann_T)
    expected_reduced = tree(
        ("p0", "q0"),
        [tree(("p1", "q6")), tree(("p1", "q5")), tree(("p2", "q6"))],
    )
    ann = annotated_output_stt(("c", "c"), "p0", "q0", 0, a, ann_T)
    # a reference node is named by its path of subtrees from the root
    by_label = {c.label: (c,) for c in expected_reduced.children}
    v0 = ()
    expected_ann = tree(
        ("p0", "q0", v0),
        [
            tree(("p1", "q6", by_label[("p1", "q6")], frozenset({by_label[("p1", "q6")]}))),
            tree(("p1", "q5", by_label[("p1", "q5")], frozenset({by_label[("p1", "q5")]}))),
            tree(
                (
                    "p2",
                    "q6",
                    by_label[("p2", "q6")],
                    frozenset({by_label[("p1", "q6")], by_label[("p2", "q6")]}),
                )
            ),
            tree(
                (
                    "p2",
                    "q6",
                    by_label[("p2", "q6")],
                    frozenset({by_label[("p1", "q5")], by_label[("p2", "q6")]}),
                )
            ),
        ],
    )
    elapsed = time.monotonic() - start
    ok = (
        reduced == expected_reduced
        and tree_size(reduced) == 4
        and ann == expected_ann
        and tree_size(ann) == 5
        and elapsed < 1.0
    )
    report(2, ok, f"({elapsed:.3f}s)")


def test_criterion_3_end_to_end(intro_S, intro_T):
    start = time.monotonic()
    verdict = decide(intro_S, intro_T, PipelineConfig(k_override=3, depth=6))
    elapsed = time.monotonic() - start
    ok = verdict.answer == YES and verdict.verification.ok and elapsed < 30.0
    report(3, ok, f"({elapsed:.1f}s, machine states={verdict.stats.get('machine_states')})")


def _tis_instances(intro_S, abst_S, abst_T, ann_S, ann_T):
    sync_target = mk_nfa(
        {"a", "b", "c"},
        {"d", "e"},
        "y0",
        {"y0", "y1", "y2", "y3"},
        [("y0", "i", s, "y1") for s in "abc"]
        + [("y1", "o", s, "y0") for s in "de"]
        + [("y1", "i", s, "y2") for s in "abc"]
        + [("y2", "i", s, "y2") for s in "abc"]
        + [("y0", "o", s, "y3") for s in "de"]
        + [("y3", "o", s, "y3") for s in "de"],
    )
    pair_source = mk_nfa(
        {"a"},
        {"d"},
        "z0",
        {"z4"},
        [
            ("z0", "i", "a", "z1"),
            ("z1", "i", "a", "z2"),
            ("z2", "o", "d", "z3"),
            ("z3", "o", "d", "z4"),
        ],
    )
    empty_source = mk_nfa({"a"}, {"b", "c"}, "w0", set(), [])
    out_family = tag_family("1*2*")
    return [
        ("abst", abst_S, abst_T,
         ResyncParams(n=2, gamma=certificate_lag_bound(2, len(trim(abst_T).states)), i=2)),
        ("ann", ann_S, ann_T,
         ResyncParams(n=2, gamma=certificate_lag_bound(2, len(trim(ann_T).states)), i=2)),
        ("intro-sync", intro_S, sync_target,
         ResyncParams(n=2, gamma=certificate_lag_bound(2, len(trim(sync_target).states)), i=2)),
        ("single-pair", pair_source, out_family,
         ResyncParams(n=3, gamma=certificate_lag_bound(3, len(trim(out_family).states)), i=2)),
        ("empty", empty_source, abst_T, ResyncParams(n=2, gamma=4, i=2)),
        ("intro-low-lag", intro_S, sync_target, ResyncParams(n=4, gamma=0, i=3)),
    ]


def test_criterion_4_resync_oracle_equivalence(intro_S, abst_S, abst_T, ann_S, ann_T):
    start = time.monotonic()
    mismatches = []
    for name, s, t, params in _tis_instances(intro_S, abst_S, abst_T, ann_S, ann_T):
        cert = shiftlag_finiteness(s)
        can = canonicalize(s, cert)
        t_i = build_Ti(trim(t), params)
        c = build_TiS(can, t_i, params)
        got = set(enumerate_accepted(c, 8))
        want = set()
        for w in enumerate_accepted(t_i, 8):
            u, v = decode(w)
            if pair_in_relation(s, u, v):
                want.add(w)
        if got != want:
            mismatches.append((name, len(got - want), len(want - got)))
    elapsed = time.monotonic() - start
    report(4, not mismatches and elapsed < 120.0, f"({elapsed:.1f}s, 6 instances)")


def test_criterion_5_monoid_suite(abst_S, abst_T, ann_S, ann_T):
    start = time.monotonic()
    failures = []
    for name, s, b in (("abst", abst_S, abst_T), ("ann", ann_S, ann_T)):
        a = canonical_dfa(s)
        # congruence: equal profiles stay equal under appending and prepending
        pairs, violations = congruence_check(a, b, Tape.INPUT)
        if not pairs:
            failures.append((name, "congruence", "no equal-profile pair"))
        failures.extend((name, "congruence", v) for v in violations)
    elapsed = time.monotonic() - start
    report(5, not failures, f"({elapsed:.1f}s, {failures[:3]})")


def test_criterion_6_classification_table(families):
    start = time.monotonic()
    expected = {
        "1*2*": ("finite", "finite"),
        "(12)*": ("infinite", "finite"),
        "(12)*(1*+2*)": ("infinite", "finite"),
        "1*2*1*2*": ("finite", "finite"),
        "(1*2*)*": ("infinite", "infinite"),
    }
    problems = []
    for name, (want_shift, want_shiftlag) in expected.items():
        fam = families[name]
        s_cert = shift_finiteness(fam)
        sl_cert = shiftlag_finiteness(fam)
        got = tuple("finite" if cert.finite else "infinite" for cert in (s_cert, sl_cert))
        if got != (want_shift, want_shiftlag):
            problems.append((name, got))
            continue
        # cross-validate against brute-force measures on enumerated words
        words = list(enumerate_accepted(fam, 12))
        if s_cert.finite:
            if any(measures(w).shift > s_cert.bound for w in words):
                problems.append((name, "shift bound violated"))
        else:
            vals = [measures(pumped(s_cert.witness, j)).shift for j in (1, 2, 3)]
            if not (vals[0] < vals[1] < vals[2]):
                problems.append((name, "shift witness not growing"))
        if sl_cert.finite:
            worst = max((measures(w).shiftlag for w in words), default=0)
            if worst > sl_cert.m + 1:
                problems.append((name, f"shiftlag {worst} vs m={sl_cert.m}"))
        else:
            vals = [shiftlag_naive(to_tags(pumped(sl_cert.witness, j))) for j in (1, 2, 3)]
            if not (vals[0] < vals[1] < vals[2]):
                problems.append((name, "shiftlag witness not growing"))
    elapsed = time.monotonic() - start
    report(6, not problems, f"({elapsed:.1f}s, {problems[:3]})")


def test_criterion_7_game_determinacy():
    start = time.monotonic()
    instances = tiny_instances()
    problems = []
    for name, lang, want_win in instances:
        arena = build_arena(lang)
        if len(arena.vertices) > 10_000:
            problems.append((name, "arena too large"))
            continue
        region, strategy = solve(arena)
        losing = in_force_loss_set(arena)
        if any((v in region) == (v in losing) for v in arena.vertices):
            problems.append((name, "determinacy"))
        if (arena.initial in region) != want_win:
            problems.append((name, "verdict"))
            continue
        if want_win:
            machine = extract_sdfa(arena, region)
            endmarked = add_endmarkers(lang)
            if not verify_uniformizer(machine, endmarked, endmarked, depth=5).ok:
                problems.append((name, "verification"))
        else:
            from syncsynth.game import in_spoiling_strategy, replay_spoiler

            spoiler = in_spoiling_strategy(strategy)
            if not replay_spoiler(arena, region, spoiler):
                problems.append((name, "spoiler replay"))
    elapsed = time.monotonic() - start
    report(
        7,
        not problems and len(instances) >= 8,
        f"({elapsed:.1f}s, {len(instances)} instances, {problems[:3]})",
    )


def test_criterion_8_ramsey_at_desk_scale(abst_S, abst_T):
    start = time.monotonic()
    a = canonical_dfa(abst_S)
    closure = profile_closure(2, a, abst_T, Tape.INPUT)
    colors = len(closure.profiles)
    r1 = ramsey_bound(colors)
    # single input letter: the unique word of each length
    word = ("a",) * r1
    found = find_idempotent_factor(word, 2, a, abst_T)
    ok = found is not None
    # empirical strengthening, reported but not asserted
    short = ("a",) * ((colors + 1) ** 2)
    early = find_idempotent_factor(short, 2, a, abst_T)
    elapsed = time.monotonic() - start
    report(
        8,
        ok and elapsed < 60.0,
        f"({elapsed:.1f}s, colors={colors}, r1={r1}, factor={found}, "
        f"early(len {(colors + 1) ** 2})={'yes' if early else 'no'})",
    )


def test_criterion_9_certificate_validity(families):
    start = time.monotonic()
    problems = []
    for name in ("1*2*", "(12)*", "(12)*(1*+2*)", "1*2*1*2*"):
        fam = families[name]
        cert = shiftlag_finiteness(fam)
        trimmed = trim(fam)
        if cert.nu != certificate_lag_bound(cert.m, len(trimmed.states)):
            problems.append((name, "nu formula"))
            continue
        right = build_shape(cert.nu, cert.m, None, fam.input_alphabet, fam.output_alphabet)
        ok, witness = inclusion(fam, right)
        if not ok:
            problems.append((name, witness))
    elapsed = time.monotonic() - start
    report(9, not problems, f"({elapsed:.1f}s, {problems[:3]})")


def test_criterion_10_recognizable_path():
    start = time.monotonic()
    problems = []

    # instance A: a* x {d}, target reads everything then writes — YES
    s_a = mk_nfa(
        {"a"}, {"d"}, "s0", {"s1"},
        [("s0", "i", "a", "s0"), ("s0", "o", "d", "s1")],
    )
    t_a = tag_family("1*2*")
    # instance B: {(a, d), (a, e)}, output before input — YES
    s_b = mk_nfa(
        {"a"}, {"d", "e"}, "s0", {"s2"},
        [("s0", "i", "a", "s1"), ("s1", "o", "d", "s2"), ("s1", "o", "e", "s2")],
    )
    t_b = mk_nfa(
        {"a"}, {"d", "e"}, "t0", {"t2"},
        [("t0", "o", "d", "t1"), ("t0", "o", "e", "t1"), ("t1", "i", "a", "t2")],
    )
    # instance C: the target forbids every synchronization of the domain — NO
    s_c = mk_nfa(
        {"a"}, {"d"}, "s0", {"s2"},
        [("s0", "i", "a", "s1"), ("s1", "o", "d", "s2")],
    )
    t_c = mk_nfa({"a"}, {"d"}, "t0", {"t1"}, [("t0", "o", "d", "t1")])

    for name, s, t, want in (("A", s_a, t_a, YES), ("B", s_b, t_b, YES), ("C", s_c, t_c, NO)):
        verdict = decide_recognizable(s, t, PipelineConfig(depth=8))
        if verdict.answer != want:
            problems.append((name, verdict.answer))
            continue
        if want == YES and not verdict.verification.ok:
            problems.append((name, "verification"))
        # oracle-check T' at depth 8
        cert = shift_finiteness(s)
        s12 = canonicalize_finite_shift(trim(s), cert)
        t_prime = build_Tprime_recognizable(s12, trim(t))
        got = set(enumerate_accepted(t_prime, 8))
        want_set = set()
        for w in enumerate_accepted(trim(t), 8):
            u, v = decode(w)
            if pair_in_relation(s, u, v):
                want_set.add(w)
        if got != want_set:
            problems.append((name, "T' oracle mismatch"))
    elapsed = time.monotonic() - start
    report(10, not problems, f"({elapsed:.1f}s, {problems[:3]})")
