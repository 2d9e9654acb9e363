import random

import pytest
from hypothesis import example, given, settings, strategies as st

from syncsynth.analysis import (
    _find_lag_cycle,
    build_shape,
    certificate_lag_bound,
    least_lag_bound,
    measures,
    parikh_injective,
    shift_finiteness,
    shiftlag_finiteness,
)
from syncsynth.automata import (
    Nfa,
    inclusion,
    trim,
)
from syncsynth.letters import inp, out
from syncsynth.pipeline import target_parameters

from .conftest import accepts, enumerate_accepted, mk_nfa, pumped, tag_family
from .oracles import (
    all_words,
    blocks_member_naive,
    lag_naive,
    shift_naive,
    shiftlag_naive,
    to_tags,
)

I1 = inp("a")
O2 = out("d")


def tw(bits):
    """Tag string like '1122' to a tagged word."""
    return tuple(I1 if b == "1" else O2 for b in bits)


@pytest.mark.parametrize(
    "bits,lag,shift,shiftlag",
    [
        ("1122", 2, 1, 1),
        ("1212", 1, 3, 1),
        ("", 0, 0, 0),
        ("111222", 3, 1, 1),
        ("112122", 2, 3, 1),
        ("1", 1, 0, 0),
    ],
)
def test_measures_examples(bits, lag, shift, shiftlag):
    m = measures(tw(bits))
    assert (m.lag, m.shift, m.shiftlag) == (lag, shift, shiftlag)


def test_measures_match_naive_oracle():
    for w in all_words({"a"}, {"d"}, 10):
        t = to_tags(w)
        m = measures(w)
        assert m.lag == lag_naive(t)
        assert m.shift == shift_naive(t)
        assert m.shiftlag == shiftlag_naive(t)


def test_shift_finiteness_families(families):
    cert = shift_finiteness(families["1*2*"])
    assert cert.finite and cert.bound == 1
    cert = shift_finiteness(families["1*2*1*2*"])
    assert cert.finite and cert.bound == 3
    cert = shift_finiteness(families["(12)*"])
    assert not cert.finite


def test_shift_bound_dominates_enumeration(corpus):
    finite = [name for name, a in corpus.items() if shift_finiteness(a).finite]
    assert {"1*2*", "1*2*1*2*", "intro_S", "abst_T", "ann_S", "ann_T"} <= set(finite)
    for name in finite:
        a = corpus[name]
        cert = shift_finiteness(a)
        worst = max((measures(w).shift for w in enumerate_accepted(a, 8)), default=0)
        assert worst <= cert.bound
        assert worst == cert.bound, name  # bound is attained on these shapes


def test_shift_witness_pumps(families):
    cert = shift_finiteness(families["(12)*"])
    vals = []
    for j in (1, 2, 3):
        w = pumped(cert.witness, j)
        assert accepts(families["(12)*"], w)
        vals.append(measures(w).shift)
    assert vals[0] < vals[1] < vals[2]


LETTERS = (inp("a"), inp("b"), out("c"), out("d"))


@st.composite
def small_nfas(draw):
    """NFAs of 1-5 states and up to 10 edges over inputs a, b and outputs
    c, d, untrimmed, with any set of final states."""
    states = [f"s{j}" for j in range(draw(st.integers(min_value=1, max_value=5)))]
    edges = draw(st.lists(
        st.tuples(st.sampled_from(states), st.sampled_from(LETTERS), st.sampled_from(states)),
        max_size=10,
    ))
    finals = draw(st.sets(st.sampled_from(states)))
    return Nfa({"a", "b"}, {"c", "d"}, states, states[0], edges, finals)


def most_shifts(a, cap):
    """The most shifts of an accepted word, capped at `cap`, or -1 for the
    empty language: a search over (states reached, tape of the last letter,
    shifts so far, capped), where words that agree on all three have the same
    futures."""
    start = (frozenset({a.initial}), None, 0)
    seen = {start}
    stack = [start]
    most = -1
    while stack:
        subset, last, shifts = stack.pop()
        if subset & a.finals:
            most = max(most, shifts)
        for letter in LETTERS:
            reached = a.step_set(subset, letter)
            node = (reached, letter.tape, min(cap, shifts + (last not in (None, letter.tape))))
            if reached and node not in seen:
                seen.add(node)
                stack.append(node)
    return most


@settings(deadline=None, max_examples=300)
@given(small_nfas())
@example(mk_nfa({"a", "b"}, {"d"}, "i", {"f"},
                [("i", "i", "b", "s"), ("s", "i", "a", "t"), ("t", "o", "d", "s"), ("s", "o", "d", "f")]))
def test_shift_certificate_is_exact_on_random_nfas(a):
    """A finite bound is the most shifts of an accepted word: some word has
    that many and none has one more. An infinite witness pumps: every
    pumped word is accepted, and each pump adds a shift. In the example,
    b·d and b·(a·d)·d both shift once, so a witness whose suffix went
    straight from the cycle to the final state would not grow at its first
    pump."""
    cert = shift_finiteness(a)
    if cert.finite:
        assert max(most_shifts(a, cert.bound + 1), 0) == cert.bound
        return
    shifts = []
    for j in range(4):
        w = pumped(cert.witness, j)
        assert accepts(a, w), j
        shifts.append(measures(w).shift)
    assert all(x < y for x, y in zip(shifts, shifts[1:])), shifts


def test_shiftlag_families_table(families):
    expectations = {
        "1*2*": True,
        "(12)*": True,
        "(12)*(1*+2*)": True,
        "1*2*1*2*": True,
        "(1*2*)*": False,
    }
    for name, finite in expectations.items():
        cert = shiftlag_finiteness(families[name])
        assert cert.finite is finite, name


def test_shiftlag_certificate_m_values(families):
    assert shiftlag_finiteness(families["(12)*(1*+2*)"]).m == 1
    assert shiftlag_finiteness(families["(12)*"]).m == 1
    assert shiftlag_finiteness(families["1*2*1*2*"]).m <= 4


def test_shiftlag_certificate_inclusion_holds(families):
    for name in ("1*2*", "(12)*", "(12)*(1*+2*)", "1*2*1*2*"):
        fam = families[name]
        cert = shiftlag_finiteness(fam)
        t = trim(fam)
        assert cert.nu == certificate_lag_bound(cert.m, len(t.states))
        right = build_shape(cert.nu, cert.m, None, fam.input_alphabet, fam.output_alphabet)
        ok, _ = inclusion(fam, right)
        assert ok


def test_shiftlag_infinite_witness_grows(families):
    fam = families["(1*2*)*"]
    cert = shiftlag_finiteness(fam)
    vals = []
    for j in (1, 2, 3, 4):
        w = pumped(cert.witness, j)
        assert accepts(fam, w)
        vals.append(shiftlag_naive(to_tags(w)))
    assert all(a < b for a, b in zip(vals, vals[1:]))


def test_shiftlag_bruteforce_growth_cross_check(families):
    """Brute-force shiftlag over enumerations agrees with the verdicts."""
    finite_sample = max(
        measures(w).shiftlag for w in enumerate_accepted(families["1*2*1*2*"], 12)
    )
    assert finite_sample <= 3
    grows = [
        measures(tw("1" * n + "12" * n)).shiftlag for n in (1, 2, 3, 4)
    ]
    assert grows == [1, 2, 3, 4]


# the lag-bounded language is the shape with no blocks, the blocks language
# the shape with no lagged prefix


def test_build_lag_bounded_zero():
    d = build_shape(0, 0, None, {"a"}, {"d"})
    assert accepts(d, ())
    assert not accepts(d, (I1,))
    assert not accepts(d, (O2,))
    assert len(d.states) == 1


def test_build_lag_bounded_language(families):
    for nu in (1, 2):
        d = build_shape(nu, 0, None, {"a"}, {"d"})
        for w in all_words({"a"}, {"d"}, 8):
            assert accepts(d, w) == (lag_naive(to_tags(w)) <= nu)


def test_build_lag_bounded_examples():
    d2 = build_shape(2, 0, None, {"a"}, {"d"})
    assert accepts(d2, tw("1122"))
    assert not accepts(d2, tw("111"))


def test_build_blocks_examples():
    b0 = build_shape(0, 0, 2, {"a"}, {"d"})
    assert accepts(b0, ())
    assert not accepts(b0, (I1,))
    b1 = build_shape(0, 1, 2, {"a"}, {"d"})
    assert accepts(b1, tw("22"))
    assert not accepts(b1, tw("222"))
    b2 = build_shape(0, 2, 1, {"a"}, {"d"})
    assert accepts(b2, tw("1112"))
    assert not accepts(b2, tw("212"))


def test_build_blocks_vs_naive():
    for n, cap in ((1, 2), (2, 1), (3, 2), (2, None)):
        b = build_shape(0, n, cap, {"a"}, {"d"})
        for w in all_words({"a"}, {"d"}, 6):
            assert accepts(b, w) == blocks_member_naive(to_tags(w), n, cap), (n, cap, w)
    # two letters per tape: a block holds any mix of its tape's letters
    for n, cap in ((0, None), (1, 0), (2, 0), (3, None), (3, 1), (4, 2)):
        b = build_shape(0, n, cap, {"a", "b"}, {"d", "e"})
        for w in all_words({"a", "b"}, {"d", "e"}, 5):
            assert accepts(b, w) == blocks_member_naive(to_tags(w), n, cap), (n, cap, w)


def shape_member_naive(tags, gamma, n, cap):
    """Some split p·b with every prefix of p at most gamma-lagged and b at
    most n blocks of at most cap outputs each."""
    return any(
        lag_naive(tags[:k]) <= gamma and blocks_member_naive(tags[k:], n, cap)
        for k in range(len(tags) + 1)
    )


def test_build_shape_vs_naive():
    for gamma in (0, 1, 2):
        for n in (0, 1, 2, 3):
            for cap in (None, 0, 1, 2):
                shape = build_shape(gamma, n, cap, {"a"}, {"d"})
                for w in all_words({"a"}, {"d"}, 6):
                    want = shape_member_naive(to_tags(w), gamma, n, cap)
                    assert accepts(shape, w) == want, (gamma, n, cap, w)


def test_parikh_injective_families(families):
    ok, _ = parikh_injective(families["(12)*"])
    assert ok
    ok, _ = parikh_injective(families["1*2*"])
    assert ok


def test_parikh_injective_counterexample():
    n = mk_nfa(
        {"a"},
        {"d"},
        "s",
        {"f"},
        [
            ("s", "i", "a", "x"),
            ("x", "o", "d", "f"),
            ("s", "o", "d", "y"),
            ("y", "i", "a", "f"),
        ],
    )
    ok, witness = parikh_injective(n)
    assert not ok
    w1, w2 = witness
    assert sorted(w1) == sorted(w2) and w1 != w2


def test_parikh_injective_vs_bruteforce(families):
    # brute force over tag words of 1*2* up to length 8
    fam = families["1*2*"]
    tag_words = {to_tags(w) for w in enumerate_accepted(fam, 8)}
    images = {}
    for t in tag_words:
        img = (sum(1 for x in t if x == 1), sum(1 for x in t if x == 2))
        assert img not in images or images[img] == t
        images[img] = t


# ---------------------------------------------------------------------------
# one covering check, one monotone search

FIXTURES = ("intro_S", "intro_T", "abst_S", "abst_T", "ann_S", "ann_T")


@pytest.fixture()
def corpus(request, families):
    return {**families, **{name: request.getfixturevalue(name) for name in FIXTURES}}


def _scan(holds, lo, hi):
    return next((x for x in range(lo, hi + 1) if holds(x)), None)


def lag_blocks_cover(a, nu, m):
    """Whether every word of `a` is a ≤nu-lagged prefix followed by at most m
    pure blocks, by inclusion in the lag-bounded automaton concatenated with
    the blocks automaton: the definition `least_lag_bound` answers without
    automata."""
    right = build_shape(nu, m, None, a.input_alphabet, a.output_alphabet)
    ok, _ = inclusion(a, right)
    return ok


def _covers_with_certificate_bound(t):
    q = len(t.states)
    return lambda m: lag_blocks_cover(t, certificate_lag_bound(m, q), m)


def test_covering_search_finds_no_m_on_infinite_shiftlag(corpus):
    """The cross-check of the two shiftlag semi-procedures: no certificate
    exists below the default cap where the witness search succeeds."""
    for name in ("(1*2*)*", "intro_T"):
        t = trim(corpus[name])
        assert not shiftlag_finiteness(t).finite
        assert _scan(_covers_with_certificate_bound(t), 1, (len(t.states) + 1) ** 2) is None


def test_galloping_search_matches_linear_scan(corpus):
    """m of the shiftlag certificate, canonicalization's nu-hat, gamma, and
    least_lag_bound at small block counts, all against a scan of the
    lag·blocks inclusion. The scan finds a lag bound for the target's n
    blocks exactly when its shiftlag is finite; otherwise gamma is 0."""
    for name, a in corpus.items():
        t = trim(a)
        cert = shiftlag_finiteness(a)
        if cert.finite:
            assert cert.m == _scan(_covers_with_certificate_bound(t), 1, (len(t.states) + 1) ** 2)
            covers = lambda nu: lag_blocks_cover(t, nu, cert.m)
            assert least_lag_bound(t, cert.m, cert.nu) == _scan(covers, 0, cert.nu), name
        for m in range(5):
            want = _scan(lambda nu: lag_blocks_cover(t, nu, m), 0, 6)
            assert least_lag_bound(t, m, 6) == least_lag_bound(a, m, 6) == want, (name, m)
        for k in (None,) if cert.finite else (0, 1, 2):
            n, gamma = target_parameters(t, cert, k)
            assert n == (cert.m if cert.finite else k) + 1, (name, k)
            want = _scan(lambda g: lag_blocks_cover(t, g, n), 0, certificate_lag_bound(n, len(t.states)))
            assert (want is None) == (not cert.finite), (name, k)
            assert gamma == (0 if want is None else want), (name, k)


def test_least_lag_bound_matches_scan_on_random_nfas():
    """Random 1-5-state NFAs, half of them untrimmed (dead and unreachable
    states, possibly an empty language), against a scan of the inclusion."""
    rng = random.Random(14)
    letters = [inp("a"), inp("b"), out("d"), out("e")]
    outcomes = set()
    for _ in range(150):
        states = [f"s{j}" for j in range(rng.randint(1, 5))]
        edges = {(rng.choice(states), rng.choice(letters), rng.choice(states))
                 for _ in range(rng.randint(0, 3 * len(states)))}
        finals = {q for q in states if rng.random() < 0.4}
        a = Nfa({"a", "b"}, {"d", "e"}, states, states[0], edges, finals)
        if rng.random() < 0.5:
            a = trim(a)
        for m in range(6):
            hi = rng.randint(0, 8)
            got = least_lag_bound(a, m, hi)
            assert got == _scan(lambda nu: lag_blocks_cover(a, nu, m), 0, hi), (a, m, hi)
            outcomes.add(got is None)
    assert outcomes == {True, False}


def test_least_lag_bound_refuses_a_negative_block_count():
    with pytest.raises(ValueError, match="block count"):
        least_lag_bound(tag_family("1*2*"), -1, 3)
    assert least_lag_bound(tag_family("1*2*"), 1, -1) is None


def test_lag_cycle_search_rejects_a_non_component():
    """p → q on both tapes gives q two lag potentials, but q has no way back:
    {p, q} is not strongly connected, which raises instead of asserting."""
    t = mk_nfa({"a"}, {"d"}, "p", {"q"}, [("p", "i", "a", "q"), ("p", "o", "d", "q")])
    with pytest.raises(ValueError, match="strongly connected"):
        _find_lag_cycle(t, ["p", "q"])
