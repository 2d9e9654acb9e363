import random

import pytest
from hypothesis import given, settings, strategies as st

from syncsynth.analysis import certificate_lag_bound, most_counted, shiftlag_finiteness
from syncsynth.automata import (
    CapExceeded,
    Nfa,
    inclusion,
    language_equal,
    minimize,
    pair_in_relation,
    project_input,
    tape_table_dfa,
    trim,
)
from syncsynth.canonical import canonicalize
from syncsynth.letters import Tape, decode, inp, out
from syncsynth.pipeline import target_parameters
from syncsynth.resync import (
    INPUT_THEN_OUTPUT,
    ResyncParams,
    ShapeViolation,
    build_Ti,
    build_TiS,
    build_Tprime_recognizable,
)

from .conftest import accepts, enumerate_accepted, mk_nfa, state_cap, tag_family
from .oracles import tape_count_naive, ti_product_naive
from .test_canonical import small_sources


def ti_oracle(t_i, s, max_len):
    """The definitional set {w in T_i : pair(w) in pair(S)}, by enumeration."""
    keep = set()
    for w in enumerate_accepted(t_i, max_len):
        u, v = decode(w)
        if pair_in_relation(s, u, v):
            keep.add(w)
    return keep


def check_tis_instance(s, t, params, max_len):
    cert = shiftlag_finiteness(s)
    can = canonicalize(s, cert)
    t_i = build_Ti(t, params)
    c = build_TiS(can, t_i, params)
    got = set(enumerate_accepted(c, max_len))
    want = ti_oracle(t_i, s, max_len)
    assert got == want
    return c, t_i


def test_build_Ti_not_binding_when_cap_large(abst_T):
    params = ResyncParams(n=4, gamma=8, i=8)
    t_i = build_Ti(abst_T, params)
    # every T-word short enough fits within the blocks with a generous cap
    lhs = set(enumerate_accepted(abst_T, 6))
    rhs = set(enumerate_accepted(t_i, 6))
    assert lhs == rhs


def test_build_Ti_subset_of_t_and_monotone(abst_T):
    p1 = ResyncParams(n=3, gamma=4, i=1)
    p2 = ResyncParams(n=3, gamma=4, i=2)
    t1 = build_Ti(abst_T, p1)
    t2 = build_Ti(abst_T, p2)
    ok, _ = inclusion(t1, abst_T)
    assert ok
    ok, _ = inclusion(t1, t2)
    assert ok


def test_build_Ti_empty_word(abst_T):
    params = ResyncParams(n=2, gamma=2, i=0)
    t_i = build_Ti(abst_T, params)
    assert accepts(t_i, ())  # ε is in T and decomposes trivially


def test_build_Ti_output_cap_binds(abst_T):
    params = ResyncParams(n=2, gamma=0, i=1)
    t_i = build_Ti(abst_T, params)
    a, b = inp("a"), out("b")
    # blocks [a][b] fit; [a][bb] would need an output block of length 2 > i
    assert accepts(t_i, (a, b))
    assert accepts(abst_T, (a, b, b)) and not accepts(t_i, (a, b, b))


@pytest.mark.parametrize("k", [0, 3, 10])
@pytest.mark.parametrize("target", ["abst_T", "ann_T", "intro_T"])
def test_build_Ti_is_the_minimal_dfa_of_the_shape_product(request, target, k):
    """At the parameters decide uses, T_i is minimal (minimizing it again
    changes nothing) and has the language of T's product with the shape."""
    t = trim(request.getfixturevalue(target))
    n, gamma = target_parameters(t, shiftlag_finiteness(t), k)
    params = ResyncParams(n=n, gamma=gamma, i=k)
    t_i = build_Ti(t, params)
    assert minimize(t_i) == t_i
    assert language_equal(t_i, Nfa(**ti_product_naive(t, params)))[0]


def test_tis_abst_instance(abst_S, abst_T):
    params = ResyncParams(n=2, gamma=certificate_lag_bound(2, len(abst_T.states)), i=2)
    check_tis_instance(abst_S, abst_T, params, 7)


def test_tis_ann_instance(ann_S, ann_T):
    params = ResyncParams(n=2, gamma=certificate_lag_bound(2, len(ann_T.states)), i=2)
    check_tis_instance(ann_S, ann_T, params, 7)


def test_tis_outputs_ahead_of_a_guessed_input():
    """S = {(a, bc)}, T = {b·c·a}: c arrives while the input guessed for b
    is still owed, and may only be read as the start of an output tail."""
    s = mk_nfa({"a"}, {"b", "c"}, "s0", {"s3"},
               [("s0", "i", "a", "s1"), ("s1", "o", "b", "s2"), ("s2", "o", "c", "s3")])
    t = mk_nfa({"a"}, {"b", "c"}, "t0", {"t3"},
               [("t0", "o", "b", "t1"), ("t1", "o", "c", "t2"), ("t2", "i", "a", "t3")])
    check_tis_instance(s, t, ResyncParams(n=2, gamma=1, i=2), 5)


def test_tis_reads_late_outputs_through_guesses(abst_S, abst_late_T):
    """Target ε + a·b + a·a·a*·b·c: the outputs wait for any number of inputs.
    The third a begins an input tail while the guessed b·c are still owed, so
    a^20·b·c needs a queue of two letters. The parameters are the ones decide
    uses (n = 3 and gamma = 0 from the target, i = FEASIBLE_K_CAP = 6)."""
    params = ResyncParams(n=3, gamma=0, i=6)
    can = canonicalize(abst_S, shiftlag_finiteness(abst_S))
    c = build_TiS(can, build_Ti(abst_late_T, params), params)
    assert accepts(c, (inp("a"),) * 20 + (out("b"), out("c")))


def test_tis_raises_on_a_target_that_is_not_t_i(intro_S, intro_T):
    """T_i's shape bounds the queue by gamma + i*n. The raw intro target lets
    inputs run two letters ahead (b·a·d·a·e), past that bound for gamma = 0
    and i*n = 0, so it is not build_Ti(t, params), and build_TiS says so."""
    params = ResyncParams(n=1, gamma=0, i=0)
    can = canonicalize(intro_S, shiftlag_finiteness(intro_S))
    with pytest.raises(ShapeViolation, match="is not build_Ti"):
        build_TiS(can, intro_T, params)


@st.composite
def small_targets(draw, inputs, outputs):
    """A 1-3-state target over the given letters."""
    states = [f"t{j}" for j in range(draw(st.integers(min_value=1, max_value=3)))]
    letters = [("i", x) for x in sorted(inputs)] + [("o", y) for y in sorted(outputs)]
    edges = draw(st.lists(
        st.tuples(st.sampled_from(states), st.sampled_from(letters), st.sampled_from(states)),
        min_size=1, max_size=8, unique=True,
    ))
    finals = draw(st.sets(st.sampled_from(states), min_size=1))
    return mk_nfa(inputs, outputs, states[0], finals,
                  [(p, tape, sym, q) for p, (tape, sym), q in edges])


@settings(deadline=None, max_examples=120)
@given(st.data())
def test_tis_matches_the_oracle_on_random_instances(data):
    """On random finite-shiftlag sources and small targets, T_iS holds exactly
    the words of T_i whose pair is in the source relation, up to length 6."""
    s = data.draw(small_sources())
    cert = shiftlag_finiteness(s)
    if not cert.finite:
        return
    t = data.draw(small_targets(s.input_alphabet, s.output_alphabet))
    params = ResyncParams(*(data.draw(st.integers(min_value=0, max_value=2)) for _ in range(3)))
    t_i = build_Ti(t, params)
    try:
        with state_cap(2000):
            can = canonicalize(s, cert)
        with state_cap(20000):
            c = build_TiS(can, t_i, params)
    except CapExceeded:
        return
    assert set(enumerate_accepted(c, 6)) == ti_oracle(t_i, s, 6)


@settings(deadline=None, max_examples=100)
@given(st.data())
def test_tis_along_the_minimal_t_i_keeps_the_product_language(data):
    """On random finite-shiftlag sources, small targets and block caps k ≤ 3,
    at the parameters decide uses, build_TiS along the minimal T_i accepts
    the language it accepts along the shape product, and neither run raises
    ShapeViolation."""
    s = data.draw(small_sources())
    cert = shiftlag_finiteness(s)
    if not cert.finite:
        return
    t = trim(data.draw(small_targets(s.input_alphabet, s.output_alphabet)))
    k = data.draw(st.integers(min_value=0, max_value=3))
    n, gamma = target_parameters(t, shiftlag_finiteness(t), k)
    params = ResyncParams(n=n, gamma=gamma, i=k)
    try:
        with state_cap(2000):
            can = canonicalize(s, cert)
        with state_cap(20000):
            along_product = build_TiS(can, trim(Nfa(**ti_product_naive(t, params))), params)
            along_minimal = build_TiS(can, build_Ti(t, params), params)
    except CapExceeded:
        return
    assert language_equal(along_product, along_minimal)[0]


def test_tis_empty_source(abst_T):
    s = mk_nfa({"a"}, {"b", "c"}, "q0", set(), [])
    params = ResyncParams(n=2, gamma=4, i=2)
    cert = shiftlag_finiteness(s)
    can = canonicalize(s, cert)
    t_i = build_Ti(abst_T, params)
    c = build_TiS(can, t_i, params)
    assert set(enumerate_accepted(c, 6)) == set()


def test_tis_domain_soundness(abst_S, abst_T):
    params = ResyncParams(n=2, gamma=certificate_lag_bound(2, len(abst_T.states)), i=2)
    c, _ = check_tis_instance(abst_S, abst_T, params, 6)
    dom_c = project_input(c)
    dom_s = project_input(abst_S)
    ok, _ = inclusion(dom_c, dom_s)
    assert ok


def test_tprime_singleton():
    s = mk_nfa({"a"}, {"d"}, "q0", {"q2"}, [("q0", "i", "a", "q1"), ("q1", "o", "d", "q2")])
    t = tag_family("(12)*")
    tp = build_Tprime_recognizable(
        mk_nfa({"a"}, {"d"}, "q0", {"q2"}, [("q0", "i", "a", "q1"), ("q1", "o", "d", "q2")], cls=__import__("syncsynth.automata", fromlist=["Dfa"]).Dfa),
        t,
    )
    assert set(enumerate_accepted(tp, 4)) == {(inp("a"), out("d"))}


def test_tprime_product_relation():
    # S = a* x {d} in input-then-output form
    s = mk_nfa(
        {"a"}, {"d"}, "q0", {"q1"},
        [("q0", "i", "a", "q0"), ("q0", "o", "d", "q1")],
        cls=__import__("syncsynth.automata", fromlist=["Dfa"]).Dfa,
    )
    t = tag_family("1*2*")
    tp = build_Tprime_recognizable(s, t)
    for w in enumerate_accepted(t, 8):
        u, v = decode(w)
        assert accepts(tp, w) == pair_in_relation(s, u, v)


def test_tprime_empty_source():
    s = mk_nfa({"a"}, {"d"}, "q0", set(), [], cls=__import__("syncsynth.automata", fromlist=["Dfa"]).Dfa)
    t = tag_family("1*2*")
    tp = build_Tprime_recognizable(s, t)
    assert set(enumerate_accepted(tp, 5)) == set()


def test_tprime_shape_violation(abst_S):
    t = tag_family("1*2*")
    with pytest.raises(ShapeViolation):
        build_Tprime_recognizable(abst_S, t)


def test_shape_input_then_output():
    d = tape_table_dfa(INPUT_THEN_OUTPUT, "in", {"a"}, {"d"})
    assert accepts(d, (inp("a"), out("d"), out("d")))
    assert not accepts(d, (out("d"), inp("a")))


def _random_small_nfa(rng):
    """Mostly forward edges into a final last state, some backward ones."""
    size = rng.randint(2, 5)
    edges = []
    for _ in range(rng.randint(size, 3 * size)):
        p, q = sorted(rng.randrange(size) for _ in range(2))
        if rng.random() < 0.15:
            p, q = q, p
        tape = rng.choice("io")
        edges.append((f"q{p}", tape, "a" if tape == "i" else "d", f"q{q}"))
    finals = {f"q{size - 1}"} | {f"q{j}" for j in range(size) if rng.random() < 0.2}
    return mk_nfa({"a"}, {"d"}, "q0", finals, edges)


def test_tape_capacity_matches_bounded_paths(abst_T, ann_T):
    """`most_counted` counting one tape's letters, the capacity `build_TiS`
    reads: an accepting path with |Q| letters of a tape repeats a state around
    one of them, so a count of |Q| within |Q|^2 + 2|Q| edges means unbounded,
    and the pass gives its cap there; a dead state gets -1."""
    rng = random.Random(7)
    automata = [_random_small_nfa(rng) for _ in range(60)]
    automata += [build_Ti(t, ResyncParams(n=3, gamma=2, i=2)) for t in (abst_T, ann_T)]
    for a in automata:
        n = len(a.states)
        for tape in (Tape.INPUT, Tape.OUTPUT):
            naive = tape_count_naive(a, tape, n * n + 2 * n)
            for cap in (1, 3, 9):
                best = most_counted(a, cap, lambda prev, t: t is tape)
                got = {p: best[p, None] for p in a.states}
                want = {
                    p: -1 if c is None else cap if c >= n else min(c, cap)
                    for p, c in naive.items()
                }
                assert got == want, (sorted(a.transitions, key=repr), tape, cap)
