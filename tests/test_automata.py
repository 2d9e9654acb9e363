from dataclasses import replace
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from syncsynth import serialize
from syncsynth.automata import (
    Dfa,
    EmissionNondeterminism,
    END_IN,
    END_OUT,
    ReservedSymbolClash,
    SequentialDfa,
    add_endmarkers,
    determinize,
    inclusion,
    is_empty,
    language_equal,
    make_sequential_check,
    minimize,
    pair_in_relation,
    product,
    project_input,
    trim,
)
from syncsynth.letters import decode, inp, out

from .conftest import accepts, enumerate_accepted, mk_nfa, tag_family
from .oracles import all_words, decode_naive, language_upto, nfa_accepts_naive, recompose, to_tags

A = inp("a")
B = inp("b")
C = inp("c")
D = out("d")
E = out("e")


def test_decode_basic():
    assert decode((A, D, B)) == (("a", "b"), ("d",))
    assert decode(()) == ((), ())


def test_decode_longer_interleaving():
    w = (A, out("b"), A, out("c"), A, A)
    assert decode(w) == (("a", "a", "a", "a"), ("b", "c"))


def test_recompose_roundtrip():
    w = (A, D, B, E, E)
    assert recompose(to_tags(w), decode(w)) == w


def test_determinize_preserves_language(intro_S):
    d = determinize(intro_S)
    seen = set(enumerate_accepted(intro_S, 8))
    seen_d = set(enumerate_accepted(d, 8))
    assert seen == seen_d


def test_determinize_is_deterministic_and_bounded(intro_S):
    d = determinize(intro_S)
    assert len(d.states) <= 2 ** len(intro_S.states)
    pairs = [(p, l) for p, l, _ in d.transitions]
    assert len(pairs) == len(set(pairs))


def test_determinize_follows_subsets():
    n = mk_nfa(
        {"b"},
        set(),
        "q0",
        {"q2"},
        [("q0", "i", "b", "q1"), ("q0", "i", "b", "q2"), ("q1", "i", "b", "q2")],
    )
    d = determinize(n)
    # subsets {q0} -b-> {q1,q2} -b-> {q2}, the last two final, then no move
    assert len(d.states) == 3
    assert d.initial not in d.finals
    assert d.run((B,)) in d.finals and d.run((B, B)) in d.finals
    assert len({d.initial, d.run((B,)), d.run((B, B))}) == 3
    assert d.run((B, B, B)) is None


def test_is_empty_witness_is_shortest(intro_S):
    empty, w = is_empty(intro_S)
    assert not empty
    # shortest accepted word: output then b/c, at length 2? q0-d->q1-b->q3
    assert len(w) == 2
    assert accepts(intro_S, w)


def test_trim_removes_unreachable_final():
    n = mk_nfa({"a"}, set(), "q0", {"q1", "dead"}, [("q0", "i", "a", "q1")])
    t = trim(n)
    assert "dead" not in t.states
    assert set(enumerate_accepted(t, 3)) == set(enumerate_accepted(n, 3))


def test_trim_keeps_names_and_class(intro_S, intro_U):
    d = determinize(intro_S)
    # a dead state on an input letter the initial state does not read
    d = replace(d, states=d.states | {"dead"}, transitions=d.transitions | {(d.initial, A, "dead")})
    t = trim(d)
    assert isinstance(t, Dfa) and "dead" not in t.states
    assert t.states < d.states and t.initial == d.initial
    assert language_equal(t, d)[0]
    u = trim(intro_U)
    assert isinstance(u, SequentialDfa) and u.output_states == intro_U.output_states


def test_inclusion_reflexive(intro_S):
    ok, _ = inclusion(intro_S, intro_S)
    assert ok


def test_inclusion_counterexample(abst_S, abst_T):
    ok, w = inclusion(abst_S, abst_T)
    assert not ok
    assert nfa_accepts_naive(abst_S, w) and not nfa_accepts_naive(abst_T, w)
    # witness is shortest: check no shorter separating word exists
    for shorter in all_words(abst_S.input_alphabet, abst_S.output_alphabet, len(w) - 1):
        assert not (nfa_accepts_naive(abst_S, shorter) and not nfa_accepts_naive(abst_T, shorter))


def test_inclusion_universal_superset():
    alternating = tag_family("(12)*")
    anything = tag_family("(1*2*)*")
    ok, _ = inclusion(alternating, anything)
    assert ok


def test_product_semantics_vs_enumeration(abst_S, abst_T):
    inter = product(abst_S, abst_T)
    want = language_upto(abst_S, 5) & language_upto(abst_T, 5)
    assert set(enumerate_accepted(inter, 5)) == want


def test_project_input_intro(intro_S):
    dom = project_input(intro_S)
    # language should be a*ba* + a*ca* (as pure-input tagged words)
    for i in range(3):
        for j in range(3):
            assert accepts(dom, tuple([A] * i + [B] + [A] * j))
            assert accepts(dom, tuple([A] * i + [C] + [A] * j))
    assert not accepts(dom, (A, A))
    assert not accepts(dom, ())
    assert not accepts(dom, (B, B))


def test_project_input_pure_output_language():
    n = mk_nfa(set(), {"d"}, "q0", {"q0"}, [("q0", "o", "d", "q0")])
    dom = project_input(n)
    assert accepts(dom, ())
    assert not any(True for _ in dom.alphabet)


def test_project_input_vs_enumeration(abst_S):
    dom = project_input(abst_S)
    want = {tuple(l for l in ()) for _ in ()}
    want = set()
    for w in language_upto(abst_S, 8):
        u = tuple(inp(l.symbol) for l in w if l.tape == 1)
        if len(u) <= 4:
            want.add(u)
    got = {w for w in enumerate_accepted(dom, 4)}
    assert got == want


def test_make_sequential_check_valid(intro_U):
    assert isinstance(intro_U, SequentialDfa)
    d = determinize(intro_U)  # plain dfa copy
    # a state with an output edge is an output state, every other one reads input
    outs = {s for s in d.states if any(l.tape == 2 for l, _ in d.out_edges(s))}
    seq = make_sequential_check(d, d.states - outs, outs)
    assert isinstance(seq, SequentialDfa)
    assert len(seq.output_states) == len(intro_U.output_states)


def test_make_sequential_check_vacuous():
    n = mk_nfa({"a"}, {"d"}, "q0", {"q0"}, [])
    d = determinize(n)
    seq = make_sequential_check(d, d.states, [])
    assert isinstance(seq, SequentialDfa)


def test_make_sequential_check_emission_nondeterminism(intro_S):
    d = determinize(intro_S)
    ins = {s for s in d.states if not any(l.tape == 2 for l, _ in d.out_edges(s))}
    outs = d.states - ins
    with pytest.raises(EmissionNondeterminism):
        make_sequential_check(d, ins, outs)


def test_add_endmarkers_singleton():
    n = mk_nfa({"a"}, {"d"}, "q0", {"q2"}, [("q0", "i", "a", "q1"), ("q1", "o", "d", "q2")])
    e = add_endmarkers(n)
    # both orders of the output against the input endmarker are allowed
    assert accepts(e, (A, inp(END_IN), D, out(END_OUT)))
    assert accepts(e, (A, D, inp(END_IN), out(END_OUT)))
    assert not accepts(e, (D, A, inp(END_IN), out(END_OUT)))
    assert len(set(enumerate_accepted(e, 6))) == 2


def test_add_endmarkers_empty_word():
    n = mk_nfa({"a"}, {"d"}, "q0", {"q0"}, [])
    e = add_endmarkers(n)
    assert set(enumerate_accepted(e, 4)) == {(inp(END_IN), out(END_OUT))}


def test_add_endmarkers_vs_bruteforce(intro_S):
    e = add_endmarkers(intro_S)
    want = set()
    for w in enumerate_accepted(intro_S, 5):
        for cut in range(len(w) + 1):
            w1, w2 = w[:cut], w[cut:]
            if all(l.tape == 2 for l in w2):
                want.add(w1 + (inp(END_IN),) + w2 + (out(END_OUT),))
    got = set(enumerate_accepted(e, 7))
    assert got == want


def test_add_endmarkers_reserved_clash():
    n = mk_nfa({END_IN}, {"d"}, "q0", {"q0"}, [])
    with pytest.raises(ReservedSymbolClash):
        add_endmarkers(n)


def test_pair_in_relation(intro_S):
    assert pair_in_relation(intro_S, ("a", "b"), ("d",))
    assert pair_in_relation(intro_S, ("b",), ("d", "e", "d"))
    assert not pair_in_relation(intro_S, ("a", "b"), ("e",))
    assert not pair_in_relation(intro_S, ("a",), ("d",))


def test_language_equal(intro_S):
    ok, _ = language_equal(intro_S, trim(determinize(intro_S)))
    assert ok


def test_semantics_against_naive_membership(intro_S, abst_S, abst_T, ann_S, ann_T):
    for a in (intro_S, abst_S, abst_T, ann_S, ann_T):
        lang = set(enumerate_accepted(a, 4))
        for w in all_words(a.input_alphabet, a.output_alphabet, 4):
            assert (w in lang) == nfa_accepts_naive(a, w)


@st.composite
def partial_dfas(draw):
    """A partial 2-6-state DFA over inputs {a, b} and outputs {d, e}."""
    states = [f"q{j}" for j in range(draw(st.integers(min_value=2, max_value=6)))]
    keys = [(p, tape, sym) for p in states for tape, sym in
            (("i", "a"), ("i", "b"), ("o", "d"), ("o", "e"))]
    edges = draw(st.dictionaries(st.sampled_from(keys), st.sampled_from(states)))
    finals = draw(st.sets(st.sampled_from(states)))
    return mk_nfa(
        {"a", "b"}, {"d", "e"}, states[0], finals,
        [(p, tape, sym, q) for (p, tape, sym), q in edges.items()],
        cls=Dfa,
    )


@settings(deadline=None, max_examples=200)
@given(partial_dfas())
def test_minimize_is_the_minimal_dfa(d):
    """Same language, a fixpoint byte for byte, and no two states equivalent;
    the empty language gives one state without finals."""
    m = minimize(d)
    assert language_equal(m, d)[0]
    if is_empty(d)[0]:
        assert len(m.states) == 1 and not m.finals
    assert serialize.dumps(minimize(m)) == serialize.dumps(m)
    for p, q in combinations(sorted(m.states), 2):
        assert not language_equal(replace(m, initial=p), replace(m, initial=q))[0], (p, q)


def test_minimize_empty_language_is_one_state():
    for finals, edges in (((), [("q0", "i", "a", "q1")]), (("q2",), [("q0", "i", "a", "q1")])):
        m = minimize(mk_nfa({"a"}, {"d"}, "q0", finals, edges, cls=Dfa))
        assert len(m.states) == 1 and not m.finals and not m.transitions


def test_minimize_merges_equivalent_states():
    """Two copies of (a d)* collapse into one two-state cycle."""
    d = mk_nfa(
        {"a"}, {"d"}, "q0", {"q0", "q2"},
        [("q0", "i", "a", "q1"), ("q1", "o", "d", "q2"), ("q2", "i", "a", "q3"),
         ("q3", "o", "d", "q0")],
        cls=Dfa,
    )
    assert len(minimize(d).states) == 2


SEARCH_DEPTH = 4  # brute-force word length; every 2-5-state NFA's shortest word fits


@st.composite
def nfa_pairs(draw):
    """Two nondeterministic 2-5-state NFAs over inputs {a, b} and outputs {d, e}."""
    letters = [("i", "a"), ("i", "b"), ("o", "d"), ("o", "e")]

    def nfa():
        states = [f"q{j}" for j in range(draw(st.integers(min_value=2, max_value=5)))]
        edges = draw(st.lists(
            st.tuples(st.sampled_from(states), st.sampled_from(letters), st.sampled_from(states)),
            max_size=10, unique=True,
        ))
        finals = draw(st.sets(st.sampled_from(states)))
        return mk_nfa(
            {"a", "b"}, {"d", "e"}, states[0], finals,
            [(p, tape, sym, q) for p, (tape, sym), q in edges],
        )

    return nfa(), nfa()


def _check_shortest(holds, witness, words, is_word):
    """A search answer against `words`, every wanted word of at most
    SEARCH_DEPTH letters: no witness when it holds, else a wanted witness
    with no shorter wanted word."""
    if holds:
        assert witness is None and not words
        return
    assert is_word(witness)
    assert not [w for w in words if len(w) < len(witness)], witness


@settings(deadline=None, max_examples=150)
@given(
    nfa_pairs(),
    st.lists(
        st.tuples(st.lists(st.sampled_from("ab"), max_size=2), st.lists(st.sampled_from("de"), max_size=2)),
        max_size=4,
    ),
)
def test_searches_match_brute_force(pair, queries):
    """is_empty, inclusion and pair_in_relation on random nondeterministic
    automata: shortest witnesses and exact pair membership."""
    a, b = pair
    lang_a = language_upto(a, SEARCH_DEPTH)
    lang_b = language_upto(b, SEARCH_DEPTH)
    empty, w = is_empty(a)
    _check_shortest(empty, w, lang_a, lambda w: nfa_accepts_naive(a, w))
    ok, w = inclusion(a, b)
    _check_shortest(
        ok, w, lang_a - lang_b, lambda w: nfa_accepts_naive(a, w) and not nfa_accepts_naive(b, w)
    )
    for u, v in queries:
        pair_ = (tuple(u), tuple(v))
        expected = any(decode_naive(w) == pair_ for w in lang_a if len(w) == len(u) + len(v))
        assert pair_in_relation(a, *pair_) == expected, pair_
