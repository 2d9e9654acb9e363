import pytest
from hypothesis import given, settings, strategies as st

from syncsynth.analysis import ShiftCertificate, shift_finiteness, shiftlag_finiteness
from syncsynth.canonical import (
    SHAPE,
    InvalidCertificate,
    canonicalize,
    canonicalize_finite_shift,
)
from syncsynth.automata import (
    CapExceeded,
    inclusion,
    language_equal,
    tape_table_dfa,
)
from syncsynth.letters import decode, inp, out

from .canonical_unsettled import canonicalize_unsettled
from .conftest import accepts, canonical_dfa, enumerate_accepted, mk_nfa, state_cap, tag_family
from .oracles import canonical_sync, to_tags
from .test_pipeline import delay_instance


def run_pair(can, q, x, y):
    """State reached from q on the canonical synchronization of (x, y)."""
    return can.dfa.run(canonical_sync(x, y), start=q)


def accepts_pair(can, x, y):
    return accepts(can.dfa, canonical_sync(x, y))


def test_canonical_sync_basic():
    assert canonical_sync(("a", "b"), ("d",)) == (inp("a"), out("d"), inp("b"))
    assert canonical_sync((), ("d", "d")) == (out("d"), out("d"))
    assert canonical_sync((), ()) == ()


def test_canonical_sync_long_tail():
    w = canonical_sync(tuple("aaaaaa"), tuple("bc"))
    assert to_tags(w) == (1, 2, 1, 2, 1, 1, 1, 1)
    assert [l.symbol for l in w] == list("abacaaaa")


def test_canonical_sync_fixes_canonical_words():
    w = (inp("a"), out("d"), inp("b"), inp("c"))
    assert canonical_sync(*decode(w)) == w


def test_shape_dfa():
    d = tape_table_dfa(SHAPE, "even", {"a"}, {"d"})
    assert accepts(d, canonical_sync(("a", "a", "a"), ("d",)))
    assert accepts(d, ())
    assert not accepts(d, (inp("a"), inp("a"), out("d")))


def pairs_upto(a, max_len):
    return {decode(w) for w in enumerate_accepted(a, max_len)}


def test_canonicalize_already_canonical(abst_S):
    cert = shiftlag_finiteness(abst_S)
    can = canonicalize(abst_S, cert)
    ok, witness = language_equal(abst_S, can.dfa)
    assert ok, witness


def test_canonicalize_single_pair():
    s = mk_nfa(
        {"a"}, {"d"}, "q0", {"q2"},
        [("q0", "i", "a", "q1"), ("q1", "i", "a", "q1b"), ("q1b", "o", "d", "q2"), ("q2", "o", "d", "q2b")],
    )
    # language {aa d}: pairs {(aa, d), (aa, dd)}... restrict: use {11·22}
    s2 = mk_nfa(
        {"a"}, {"d"}, "q0", {"q4"},
        [
            ("q0", "i", "a", "q1"),
            ("q1", "i", "a", "q2"),
            ("q2", "o", "d", "q3"),
            ("q3", "o", "d", "q4"),
        ],
    )
    cert = shiftlag_finiteness(s2)
    can = canonicalize(s2, cert)
    got = set(enumerate_accepted(can.dfa, 6))
    assert got == {canonical_sync(("a", "a"), ("d", "d"))}


def test_canonicalize_pair_preservation(intro_S, ann_S):
    for s in (intro_S, ann_S):
        cert = shiftlag_finiteness(s)
        can = canonicalize(s, cert)
        assert pairs_upto(can.dfa, 8) == pairs_upto(s, 8)


def test_canonicalize_tag_shape_soundness(intro_S):
    cert = shiftlag_finiteness(intro_S)
    can = canonicalize(intro_S, cert)
    shape = tape_table_dfa(SHAPE, "even", can.dfa.input_alphabet, can.dfa.output_alphabet)
    ok, witness = inclusion(can.dfa, shape)
    assert ok, witness


def test_canonicalize_rejects_infinite():
    fam = tag_family("(1*2*)*")
    cert = shiftlag_finiteness(fam)
    with pytest.raises(InvalidCertificate):
        canonicalize(fam, cert)


def test_finite_shift_refuses_a_bound_that_does_not_cover():
    """The one word a·d·b·e·a·d has 6 runs, so its shift bound is 5. A
    certificate claiming less is refused, where it gave the empty language;
    the pass that checks it is capped, so a forged certificate for an
    infinite-shift source is refused too. The true bound still passes."""
    word = [("i", "a"), ("o", "d"), ("i", "b"), ("o", "e"), ("i", "a"), ("o", "d")]
    s = mk_nfa(
        {"a", "b"}, {"d", "e"}, "q0", {"q6"},
        [(f"q{j}", tape, sym, f"q{j + 1}") for j, (tape, sym) in enumerate(word)],
    )
    assert shift_finiteness(s) == ShiftCertificate(finite=True, bound=5)
    for bound in (0, 4):
        with pytest.raises(InvalidCertificate, match="does not cover"):
            canonicalize_finite_shift(s, ShiftCertificate(finite=True, bound=bound))
    with pytest.raises(InvalidCertificate, match="does not cover"):
        canonicalize_finite_shift(tag_family("(1*2*)*"), ShiftCertificate(finite=True, bound=3))
    d = canonicalize_finite_shift(s, ShiftCertificate(finite=True, bound=5))
    assert pairs_upto(d, 6) == pairs_upto(s, 6) == {(("a", "b", "a"), ("d", "e", "d"))}


def test_canonicalize_1star2star_source(families):
    # a 1*2*-controlled source: outputs strictly after inputs
    s = mk_nfa(
        {"a"}, {"d"}, "q0", {"q1"},
        [("q0", "i", "a", "q0"), ("q0", "o", "d", "q1"), ("q1", "o", "d", "q1")],
    )
    cert = shiftlag_finiteness(s)
    can = canonicalize(s, cert)
    assert pairs_upto(can.dfa, 8) == pairs_upto(s, 8)
    # spot-check one canonical word
    assert accepts_pair(can, ("a", "a", "a"), ("d",))
    assert not accepts_pair(can, ("a",), ())


def test_run_pair_helper(abst_S):
    cert = shiftlag_finiteness(abst_S)
    can = canonicalize(abst_S, cert)
    q = run_pair(can, can.dfa.initial, ("a",), ("b",))
    assert q is not None
    assert accepts_pair(can, ("a",), ("b",))


def test_finite_shift_reader_guesses_only_reachable_hand_offs():
    """A committed pair (a, b) is crossed only once an output run from a
    reaches b, so the reader guesses b inside a's output closure. Guessing
    every state of the source explored 74,008 reader states here."""
    s, _ = delay_instance(4, 4)
    cert = shift_finiteness(s)
    want = canonicalize_finite_shift(s, cert)
    with state_cap(1000):
        assert canonicalize_finite_shift(s, cert) == want


def test_canonical_reader_tracks_the_shape(intro_S):
    """The reader carries the canonical shape and drops dead guesses and
    undrainable buffers. Unshaped, the intro reader alone had 5,605 states,
    and its product with the shape DFA 17,975."""
    with state_cap(5000):
        can = canonicalize(intro_S, shiftlag_finiteness(intro_S))
    assert canonical_dfa(can.dfa) == can


def test_canonical_reader_drops_broken_chains():
    """A 4-state source (shiftlag m = 6, nu = 62) whose reader ran past
    200,000 states while it dropped only undrainable buffers. Keeping just
    the states whose prefix copy can drain and whose chain of blocks can
    still connect, it explores 675 states."""
    s = mk_nfa(
        {"a", "b", "c"}, {"d"}, "q0", {"q1", "q3"},
        [
            ("q0", "i", "a", "q2"), ("q0", "i", "b", "q0"), ("q1", "i", "a", "q3"),
            ("q1", "o", "d", "q1"), ("q1", "o", "d", "q3"), ("q2", "i", "c", "q1"),
            ("q2", "o", "d", "q2"), ("q2", "o", "d", "q3"), ("q3", "o", "d", "q3"),
        ],
    )
    with state_cap(2000):
        can = canonicalize(s, shiftlag_finiteness(s))
    assert len(can.dfa.states) == 16
    assert pairs_upto(can.dfa, 6) == pairs_upto(s, 6)


def test_canonical_reader_lets_the_last_block_grow():
    """In e*·d·b+·e*, (bbbb, ede) is read with the input block still growing
    while the output block after it is already open; the chain prune must
    check that block's guess against all the input block can still reach."""
    s = mk_nfa(
        {"b"}, {"d", "e"}, "q0", {"q1"},
        [
            ("q0", "o", "e", "q0"), ("q0", "o", "d", "q2"), ("q2", "i", "b", "q2"),
            ("q2", "i", "b", "q1"), ("q1", "o", "e", "q1"),
        ],
    )
    can = canonicalize(s, shiftlag_finiteness(s))
    assert accepts_pair(can, tuple("bbbb"), tuple("ede"))
    assert pairs_upto(can.dfa, 7) == pairs_upto(s, 7)


def named_source(request, source):
    """A fixture source by name, or the delay family's source as "delay-m"."""
    if source.startswith("delay-"):
        m = int(source.split("-")[1])
        return delay_instance(m, m)[0]
    return request.getfixturevalue(f"{source}_S")


@pytest.mark.parametrize(
    "source, cap", [("intro", 300), ("ann", 37), ("delay-3", 37), ("delay-8", 100)]
)
def test_canonical_reader_budget(request, source, cap):
    """The reader fits a cap at most 25 % above its size, and the result
    equals the default-cap one. Before it dropped broken chains it explored
    intro 4,163, ann 664 and delay m = 3 2,923 states; before it consumed
    stranded buffers at once, 347, 42, 110 and, at m = 8, 3,612; now 241,
    30, 30 and 90."""
    s = named_source(request, source)
    cert = shiftlag_finiteness(s)
    want = canonicalize(s, cert)
    with state_cap(cap):
        assert canonicalize(s, cert) == want


@pytest.mark.parametrize("source", ["intro", "ann", "abst", *(f"delay-{m}" for m in range(1, 7))])
def test_consuming_stranded_buffers_keeps_the_canonical_dfa(request, source):
    """Consuming a buffer at once when it is stranded, its partner tape
    closed to the prefix copy, leaves the canonical DFA as it is without
    that rule."""
    s = named_source(request, source)
    cert = shiftlag_finiteness(s)
    assert canonicalize(s, cert) == canonicalize_unsettled(s, cert)


def test_canonical_dfas_are_minimal(intro_S):
    """Both canonicalizers return the minimal DFA of their language; the
    subset constructions alone had 242, 41 and 20 states here."""
    assert len(canonicalize(intro_S, shiftlag_finiteness(intro_S)).dfa.states) == 14
    assert len(canonicalize_finite_shift(intro_S, shift_finiteness(intro_S)).states) == 4
    s, _ = delay_instance(4, 4)
    assert len(canonicalize_finite_shift(s, shift_finiteness(s)).states) == 7


@st.composite
def small_sources(draw):
    """A 2-5-state source over one or two letters per tape."""
    inputs = draw(st.sampled_from(["a", "ab"]))
    outputs = draw(st.sampled_from(["d", "de"]))
    states = [f"q{j}" for j in range(draw(st.integers(min_value=2, max_value=5)))]
    letters = [("i", x) for x in inputs] + [("o", y) for y in outputs]
    edges = draw(st.lists(
        st.tuples(st.sampled_from(states), st.sampled_from(letters), st.sampled_from(states)),
        min_size=1, max_size=10, unique=True,
    ))
    finals = draw(st.sets(st.sampled_from(states), min_size=1))
    return mk_nfa(
        set(inputs), set(outputs), states[0], finals,
        [(p, tape, sym, q) for p, (tape, sym), q in edges],
    )


@settings(deadline=None, max_examples=150)
@given(small_sources())
def test_canonicalizers_keep_the_pairs(s):
    """Both canonicalizers keep every pair of a random small source, and the
    canonical DFA passes the shape check."""
    cert = shift_finiteness(s)
    if cert.finite:
        try:
            with state_cap(2000):
                d = canonicalize_finite_shift(s, cert)
        except CapExceeded:
            d = None
        if d is not None:
            assert pairs_upto(d, 6) == pairs_upto(s, 6)
    cert = shiftlag_finiteness(s)
    if cert.finite:
        try:
            with state_cap(2000):
                can = canonicalize(s, cert)
        except CapExceeded:
            return
        assert pairs_upto(can.dfa, 6) == pairs_upto(s, 6)
        canonical_dfa(can.dfa)


@settings(deadline=None, max_examples=150)
@given(small_sources())
def test_consuming_stranded_buffers_keeps_the_canonical_dfa_of_random_sources(s):
    """On random small finite-shiftlag sources, `canonicalize` returns the
    DFA of the reader that leaves stranded buffers in place, and fits every
    cap that reader fits."""
    cert = shiftlag_finiteness(s)
    if not cert.finite:
        return
    try:
        with state_cap(2000):
            want = canonicalize_unsettled(s, cert)
    except CapExceeded:
        return
    with state_cap(2000):
        assert canonicalize(s, cert) == want
