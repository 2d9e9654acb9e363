import itertools

import pytest

from syncsynth import profiles
from syncsynth.automata import CapExceeded, Dfa
from syncsynth.letters import Tape, inp, out
from syncsynth.profiles import (
    _AnnBuilder,
    _Ctx,
    MixedTapes,
    Profile,
    compute_k,
    input_stt,
    profile_closure,
    ramsey_bound,
    tau,
)
from syncsynth.trees import tree

from .conftest import (
    annotated_output_stt,
    canonical_dfa,
    find_idempotent_factor,
    identity_fn,
    input_profile,
    mk_nfa,
    output_profile,
    output_stt,
    tree_size,
)
from .oracles import canonical_sync

@pytest.fixture(scope="module")
def abst(abst_S, abst_T):
    return canonical_dfa(abst_S), abst_T


@pytest.fixture(scope="module")
def ann(ann_S, ann_T):
    return canonical_dfa(ann_S), ann_T


# ---------------------------------------------------------------------------
# state transformation functions


def test_tau_empty_is_identity(abst):
    _, b = abst
    f = tau((), b)
    assert f == identity_fn(b.states)


def test_tau_abst_example(abst):
    _, b = abst
    f = dict(tau((inp("a"), inp("a")), b))
    assert f["p0"] == "p1"
    assert f["p1"] == "p1"


def test_tau_ann_example(ann):
    _, b = ann
    f = dict(tau((inp("a"), inp("b")), b))
    assert f["p0"] == "p2"


def test_tau_mixed_tapes_rejected(abst):
    _, b = abst
    with pytest.raises(MixedTapes):
        tau((inp("a"), out("b")), b)


def then(f: tuple, g: tuple) -> tuple:
    """f followed by g; bottom (a missing key) absorbs."""
    second = dict(g)
    return tuple((p, second[q]) for p, q in f if q in second)


def test_tau_composition(abst):
    _, b = abst
    assert then(tau((inp("a"),), b), tau((inp("a"),), b)) == tau((inp("a"), inp("a")), b)


# ---------------------------------------------------------------------------
# golden trees from the worked examples


def test_input_stt_golden_eight_node_tree(abst):
    a, b = abst
    got = input_stt(("a", "a"), "p1", "q0", 1, a, b)
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
    assert got == expected
    assert tree_size(got) == 8


def test_input_stt_root_label(abst):
    a, b = abst
    t = input_stt(("a",), "p0", "q0", 0, a, b)
    assert t.label == ("p0", "q0")


def test_output_stt_golden_reduced(ann):
    a, b = ann
    got = output_stt(("c", "c"), "p0", "q0", 0, a, b)
    expected = tree(
        ("p0", "q0"),
        [tree(("p1", "q6")), tree(("p1", "q5")), tree(("p2", "q6"))],
    )
    assert got == expected
    assert tree_size(got) == 4


def test_annotated_output_stt_golden(ann):
    a, b = ann
    got = annotated_output_stt(("c", "c"), "p0", "q0", 0, a, b)
    ref = output_stt(("c", "c"), "p0", "q0", 0, a, b)
    # a reference node is named by its path of subtrees from the root
    by_label = {c.label: (c,) for c in ref.children}
    v0 = ()
    v_p1q6 = by_label[("p1", "q6")]
    v_p1q5 = by_label[("p1", "q5")]
    v_p2q6 = by_label[("p2", "q6")]
    expected = tree(
        ("p0", "q0", v0),
        [
            tree(("p1", "q6", v_p1q6, frozenset({v_p1q6}))),
            tree(("p1", "q5", v_p1q5, frozenset({v_p1q5}))),
            tree(("p2", "q6", v_p2q6, frozenset({v_p1q6, v_p2q6}))),
            tree(("p2", "q6", v_p2q6, frozenset({v_p1q5, v_p2q6}))),
        ],
    )
    assert got == expected
    assert tree_size(got) == 5


def test_annotated_builder_rejects_a_foreign_reference(ann):
    """The reference tree must be rooted at the pair the builder starts from."""
    a, b = ann
    ref = output_stt(("c", "c"), "p0", "q0", 0, a, b)
    builder = _AnnBuilder(_Ctx(a, b), ref)
    with pytest.raises(ValueError, match="reference node"):
        builder.build(("c", "c"), "p1", "q6", 0, ())


def map_labels(t, fn):
    """The tree with `fn` applied to every label."""
    return tree(fn(t.label), (map_labels(c, fn) for c in t.children))


def test_annotated_projection_matches_reference(ann):
    a, b = ann
    got = annotated_output_stt(("c", "c"), "p0", "q0", 0, a, b)
    dropped = map_labels(got, lambda lab: (lab[0], lab[1]))
    assert dropped == output_stt(("c", "c"), "p0", "q0", 0, a, b)


def test_annotated_empty_word(ann):
    a, b = ann
    got = annotated_output_stt((), "p0", "q0", 0, a, b)
    assert tree_size(got) == 1


def test_input_stt_level0_spec_case(ann):
    a, b = ann
    # single input letter against output words of length <= 1 (empty excluded)
    got = input_stt(("a",), "p0", "q0", 0, a, b)
    expected = tree(("p0", "q0"), [tree(("p0", "q2"))])
    assert got == expected


# ---------------------------------------------------------------------------
# oracle: from-definition enumeration, coded independently


def words_over(symbols, lengths):
    for n in lengths:
        yield from itertools.product(symbols, repeat=n)


def closure_by_enumeration(b, p, tape, radius):
    seen = set()
    symbols = sorted(b.input_alphabet if tape == "in" else b.output_alphabet)
    mk = (lambda s: inp(s)) if tape == "in" else (lambda s: out(s))
    for w in words_over(symbols, range(1, radius + 1)):
        q = b.run(tuple(mk(s) for s in w), start=p)
        if q is not None:
            seen.add(q)
    return seen


def stt_oracle(x, p, q, i, a_dfa, b, flip=False):
    """Word-enumeration oracle for the state transformation trees."""
    in_syms = sorted(b.input_alphabet)
    out_syms = sorted(b.output_alphabet)
    own_syms, other_syms = (in_syms, out_syms) if not flip else (out_syms, in_syms)

    def a_on_pair(q0, seg, counter):
        w = canonical_sync(seg, counter) if not flip else canonical_sync(counter, seg)
        return a_dfa.run(w, start=q0)

    def b_on(p0, word, tape):
        mk = (lambda s: out(s)) if tape == "out" else (lambda s: inp(s))
        return b.run(tuple(mk(s) for s in word), start=p0)

    counter_tape = "out" if not flip else "in"
    block_tape = "in" if not flip else "out"

    reach0 = set()
    for yw in words_over(other_syms, range(1, len(x) + 1)):
        qa = a_on_pair(q, x, yw)
        pb = b_on(p, yw, counter_tape)
        if qa is not None and pb is not None:
            reach0.add((pb, qa))
    children = [tree((pb, qa)) for (pb, qa) in sorted(reach0)]
    if i > 0:
        reach1 = set()
        for t in range(1, len(x)):
            for yw in words_over(other_syms, [t]):
                qa = a_on_pair(q, x[:t], yw)
                pb = b_on(p, yw, counter_tape)
                if qa is not None and pb is not None:
                    reach1.add((t, pb, qa))
        for (t, pb, qa) in sorted(reach1):
            kids = []
            for p2 in sorted(closure_by_enumeration(b, pb, block_tape, len(b.states))):
                sub = stt_oracle(x[t:], p2, qa, i - 1, a_dfa, b, flip)
                kids.append(tree((p2, qa), sub.children))
            children.append(tree((pb, qa), kids))
    return tree((p, q), children)


def test_stt_vs_oracle(abst, ann):
    for a, b in (abst, ann):
        in_syms = sorted(b.input_alphabet)
        out_syms = sorted(b.output_alphabet)
        for i in (0, 1):
            for x in words_over(in_syms, range(0, 4 if len(in_syms) == 1 else 3)):
                for p in sorted(b.states):
                    for q in sorted(a.dfa.states):
                        got = input_stt(x, p, q, i, a, b)
                        want = stt_oracle(tuple(x), p, q, i, a.dfa, b, flip=False)
                        assert got == want, (x, p, q, i)
            for y in words_over(out_syms, range(0, 3)):
                for p in sorted(b.states):
                    for q in sorted(a.dfa.states):
                        got = output_stt(y, p, q, i, a, b)
                        want = stt_oracle(tuple(y), p, q, i, a.dfa, b, flip=True)
                        assert got == want, (y, p, q, i)


# ---------------------------------------------------------------------------
# profiles and the monoid


def test_profile_equality_reflexive_symmetric(abst):
    a, b = abst
    p1 = input_profile(("a",), 2, a, b)
    p2 = input_profile(("a",), 2, a, b)
    assert p1 == p2


def test_empty_profile_is_identity(abst):
    a, b = abst
    p = input_profile((), 2, a, b)
    q = output_profile((), 2, a, b)
    assert p.tf == identity_fn(b.states)
    assert p.pure == identity_fn(a.dfa.states)
    assert all(not t.children for _, t in p.trees + q.trees)
    # one profile type; only output words carry annotated trees
    assert isinstance(p, Profile) and isinstance(q, Profile)
    assert (p.tape, q.tape) == (Tape.INPUT, Tape.OUTPUT)
    assert p.ann_trees == () and len(q.ann_trees) == len(q.trees)


def test_kind_tags_separate_output_profiles():
    """S: q0 -a-> q1 -d-> q2 -a-> q1 with q0 and q1 final; T: one final
    state with input loops a and b; n = 2. The output words dc and dd agree
    on both transforms, the public trees and the annotated trees. From
    (t0, q0), dd has a leaf (t0, q2) and a split (t0, q2) that no block
    continues, while dc has the split only; the public form shows both as
    the leaf (t0, q2), so only the kind tags keep the profiles apart."""
    s = mk_nfa({"a", "b"}, {"c", "d"}, "q0", {"q0", "q1"},
               [("q0", "i", "a", "q1"), ("q1", "o", "d", "q2"), ("q2", "i", "a", "q1")], cls=Dfa)
    t = mk_nfa({"a", "b"}, {"c", "d"}, "t0", {"t0"}, [("t0", "i", "a", "t0"), ("t0", "i", "b", "t0")], cls=Dfa)
    a = canonical_dfa(s)
    ctx = _Ctx(a, t)
    dc, dd = (output_profile(y, 2, a, t, ctx=ctx) for y in (("d", "c"), ("d", "d")))
    assert (dc.tf, dc.pure, dc.ann_trees) == (dd.tf, dd.pure, dd.ann_trees)
    public = lambda p: [(pair, ctx.public(enriched)) for pair, enriched in p.trees]
    assert public(dc) == public(dd)
    assert dc.trees != dd.trees and dc != dd
    enriched = dict(dd.trees)[("t0", "q0")]
    assert {c.label[1:] for c in enriched.children} == {("t0", "q2")}
    assert len(enriched.children) == 2 and not any(c.children for c in enriched.children)


def congruence_check(a, b, tape: Tape, n: int = 2):
    """Profiles of one tape are a congruence: words with equal profiles keep
    equal profiles when any word z is appended or prepended. Words have up to
    5 letters over one-letter alphabets and up to 3 over larger ones; returns
    the equal-profile pairs and the (u, v, z) triples that break the law."""
    ctx = _Ctx(a, b)
    syms = ctx.syms[tape]
    words = list(words_over(syms, range(0, (5 if len(syms) == 1 else 3) + 1)))
    make = input_profile if tape is Tape.INPUT else output_profile
    cache: dict = {}

    def prof(w):
        if w not in cache:
            cache[w] = make(w, n, a, b, ctx=ctx)
        return cache[w]

    pairs = [(u, v) for u, v in itertools.combinations(words, 2) if prof(u) == prof(v)]
    violations = [
        (u, v, z)
        for u, v in pairs
        for z in words
        if prof(u + z) != prof(v + z) or prof(z + u) != prof(z + v)
    ]
    return pairs, violations


@pytest.mark.parametrize("tape", [Tape.INPUT, Tape.OUTPUT], ids=["input", "output"])
@pytest.mark.parametrize("fixture", ["abst", "ann"])
def test_profiles_are_a_congruence(request, fixture, tape):
    a, b = request.getfixturevalue(fixture)
    pairs, violations = congruence_check(a, b, tape)
    assert pairs, "no two words share a profile, so the law was never tested"
    assert not violations, violations[:3]


# ---------------------------------------------------------------------------
# idempotent factors, closures, bounds


def test_find_idempotent_factor_none_for_empty(abst):
    a, b = abst
    assert find_idempotent_factor((), 2, a, b) is None


def test_find_idempotent_factor_abst(abst):
    a, b = abst
    pa = input_profile(("a",), 2, a, b)
    paa = input_profile(("a", "a"), 2, a, b)
    found = find_idempotent_factor(("a",), 2, a, b)
    if pa == paa:
        assert found == (1, 1)
    else:
        assert found is None


def test_profile_closure_input(abst):
    a, b = abst
    closure = profile_closure(2, a, b, Tape.INPUT)
    # cross-check: distinct profiles among enumerated words up to radius + 1
    radius = closure.max_rep_length + 1
    distinct = set()
    for w in words_over(("a",), range(0, radius + 1)):
        distinct.add(input_profile(w, 2, a, b))
    assert len(distinct) == len(closure.profiles)


def test_profile_closure_output(ann):
    a, b = ann
    closure = profile_closure(2, a, b, Tape.OUTPUT)
    radius = closure.max_rep_length + 1
    distinct = set()
    for w in words_over(("c",), range(0, radius + 1)):
        distinct.add(output_profile(w, 2, a, b))
    assert len(distinct) == len(closure.profiles)


def test_profile_closure_cap(abst, monkeypatch):
    a, b = abst
    monkeypatch.setattr(profiles, "CLOSURE_CAP", 1)
    with pytest.raises(CapExceeded) as raised:
        profile_closure(2, a, b, Tape.INPUT)
    assert str(raised.value) == (
        "closure cap: the input profile closure exceeded 1 profiles (profiles.CLOSURE_CAP)"
    )


def test_ramsey_bound_values():
    assert ramsey_bound(1) == 3
    assert ramsey_bound(2) == 6
    assert ramsey_bound(3) == 17


def test_compute_k(abst):
    a, b = abst
    bound = compute_k(2, 1, a, b)
    assert bound.r1 > 1 and bound.r2 > 1
    assert bound.k == bound.r1 + bound.r2


def test_compute_k_clamps(abst):
    # below gamma + 1 the raw bounds give way, so k is 2 * (gamma + 1)
    a, b = abst
    bound = compute_k(2, 100, a, b)
    assert ramsey_bound(bound.input_profile_count) < 101
    assert (bound.r1, bound.r2, bound.k) == (101, 101, 202)
    assert bound.input_profile_count == len(bound.input_closure.profiles)
    assert bound.output_profile_count == len(bound.output_closure.profiles)


def test_idempotent_guarantee_short_words(abst):
    """Every sufficiently long input word has an idempotent factor."""
    a, b = abst
    closure = profile_closure(2, a, b, Tape.INPUT)
    threshold = (len(closure.profiles) + 1) ** 2
    length = min(threshold, 12)
    word = tuple("a" * length)
    assert find_idempotent_factor(word, 2, a, b) is not None


def test_annotated_targets_label_consistent(ann):
    """Dropping annotation components lands on reference nodes with the
    same state-pair label (the basic consistency property)."""
    a, b = ann
    for y in (("c",), ("c", "c")):
        for p in sorted(b.states):
            for q in sorted(a.dfa.states):
                ref = output_stt(y, p, q, 1, a, b)
                label_of = {}  # reference nodes by their paths of subtrees
                def walk(node, path):
                    label_of[path] = node.label
                    for c in node.children:
                        walk(c, path + (c,))
                walk(ref, ())
                ann_t = annotated_output_stt(y, p, q, 1, a, b)
                for node in nodes(ann_t):
                    lab = node.label
                    assert label_of[lab[2]] == (lab[0], lab[1])
                    if len(lab) == 4:
                        for target in lab[3]:
                            assert target in label_of


def nodes(t):
    yield t
    for c in t.children:
        yield from nodes(c)


def test_idempotent_guarantee_two_letter_sampled(ann):
    """Seeded sample of full-length words over a two-letter input alphabet:
    each contains an idempotent factor (exhausting 2^r1 words is impossible)."""
    import random

    a, b = ann
    closure = profile_closure(2, a, b, Tape.INPUT)
    r1 = ramsey_bound(len(closure.profiles))
    rng = random.Random(20260810)
    for _ in range(3):
        word = tuple(rng.choice("ab") for _ in range(r1))
        assert find_idempotent_factor(word, 2, a, b) is not None
