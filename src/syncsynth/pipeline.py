"""End-to-end decision procedure: does the source have a target-controlled
uniformization by a sequential machine?

The source is canonicalized, the target is constrained to capped output
blocks, the resynchronized source is built, and the question reduces to
domain equality plus a safety game on it. `decide` climbs a ladder of block
caps k = 0, 1, ... up to the cap it uses, and stops at the first rung that
settles the question. A YES at any block cap is sound; a NO is only claimed
when the cap provably suffices, or when T_k is T itself.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .analysis import (
    ShiftlagCertificate,
    least_lag_bound,
    shift_finiteness,
    shiftlag_finiteness,
)
from .automata import (
    CapExceeded,
    Nfa,
    SequentialDfa,
    add_endmarkers,
    determinize,
    inclusion,
    language_equal,
    project_input,
    trim,
)
from .canonical import InvalidCertificate, canonicalize, canonicalize_finite_shift
from .game import (
    build_arena,
    extract_sdfa,
    in_spoiling_strategy,
    replay_spoiler,
    solve,
    verify_uniformizer,
)
from .profiles import compute_k
from .resync import ResyncParams, build_Ti, build_TiS, build_Tprime_recognizable

YES, NO, INCONCLUSIVE, REJECTED = "YES", "NO", "INCONCLUSIVE", "REJECTED"
EXIT_CODES = {YES: 0, NO: 1, INCONCLUSIVE: 2, REJECTED: 3}
FEASIBLE_K_CAP = 6  # largest computed block cap the pipeline builds T_i at


@dataclass(frozen=True)
class PipelineConfig:
    k_override: Optional[int] = None
    depth: int = 8

    def __post_init__(self):
        if self.depth < 1:
            raise ValueError("enumeration depth must be at least 1")
        if self.k_override is not None and self.k_override < 0:
            raise ValueError("the block cap override must be non-negative")


@dataclass
class Verdict:
    answer: str
    machine: Optional[SequentialDfa] = None
    witness: Optional[tuple] = None
    reason: str = ""
    stats: dict = field(default_factory=dict)
    verification: Optional[object] = None

    @property
    def exit_code(self) -> int:
        return EXIT_CODES[self.answer]


def target_parameters(
    t: Nfa, cert: ShiftlagCertificate, k_override: Optional[int]
) -> tuple[int, int]:
    """Block count n and the least lag bound gamma covering the trimmed target
    with n blocks. `cert` covers it with m blocks at lag nu, and more blocks
    never need more lag. An infinite-shiftlag target needs `k_override`; no
    lag bound covers it (a word of shiftlag above max(nu, n) has more shifts
    past lag nu than n blocks hold), and gamma is 0."""
    if not cert.finite:
        return k_override + 1, 0
    n = cert.m + 1
    gamma = least_lag_bound(t, n, cert.nu)
    if gamma is None:
        raise InvalidCertificate(f"no lag bound up to {cert.nu} covers the target with {n} blocks")
    return n, gamma


def decide(s: Nfa, t: Nfa, cfg: PipelineConfig = PipelineConfig()) -> Verdict:
    """Decide T-controlled uniformizability of the source relation.

    The block cap used is `cfg.k_override`, or else the computed bound,
    capped at FEASIBLE_K_CAP. With an override only that cap is played.
    Otherwise the game is played at k = 0, 1, ... up to it, and the first of
    these settles the verdict:
    - a YES: a machine won on T_kS lies inside T_k ⊆ T;
    - a rung where T_k = T: its NO (domain or game) is exact;
    - a `verify:` or `spoiler:` self-check INCONCLUSIVE, or `CapExceeded`;
    - the top rung, whose lost game is a NO when the computed bound was used
      and an INCONCLUSIVE opened by "block cap:" otherwise.
    The ladder changes no verdict of the top rung alone, only how soon it
    is found. T_k ⊆ T_{k+1} ⊆ T, so T_k = T makes every larger rung play
    the same language and the same arena. A game won at k is won at every
    larger k: the domain is the same, and the output player has more moves.
    So only a YES machine may come from a smaller arena than the top rung's.

    `stats["k_used"]` is the rung that settled; `k_source` and `k_computed`
    still describe the bound."""
    stats: dict = {}
    cert_s = shiftlag_finiteness(s)
    if not cert_s.finite:
        return Verdict(
            answer=REJECTED,
            reason="source language has infinite shiftlag",
            witness=cert_s.witness,
            stats=stats,
        )
    cert_t = shiftlag_finiteness(t)
    if not cert_t.finite and cfg.k_override is None:
        return Verdict(
            answer=REJECTED,
            reason="target language has infinite shiftlag (pass a block cap to explore anyway)",
            witness=cert_t.witness,
            stats=stats,
        )

    s = trim(s)
    t = trim(t)
    try:
        can = canonicalize(s, cert_s)
        t_dfa = determinize(t)
        stats["canonical_source_states"] = len(can.dfa.states)
        stats["target_dfa_states"] = len(t_dfa.states)

        n, gamma = target_parameters(t, cert_t, cfg.k_override)
        stats.update(n=n, gamma=gamma)

        inexact_k = ""  # why the block cap may be too small for an exact NO
        if cfg.k_override is not None:
            k_used = cfg.k_override
            stats["k_source"] = "override"
            inexact_k = f"k = {k_used} is an override, not a computed bound"
        else:
            bound = compute_k(n, gamma, can, t_dfa)
            stats["k_computed"] = bound.k
            stats["r1"] = bound.r1
            stats["r2"] = bound.r2
            if bound.k > FEASIBLE_K_CAP:
                k_used = FEASIBLE_K_CAP
                stats["k_source"] = "capped"
                inexact_k = f"computed k = {bound.k} capped at FEASIBLE_K_CAP = {FEASIBLE_K_CAP}"
            else:
                k_used = bound.k
                stats["k_source"] = "computed"
    except CapExceeded as exc:
        return Verdict(answer=INCONCLUSIVE, reason=str(exc), stats=stats)

    caveat = f"block cap: {inexact_k}, so T_i may miss words and a NO is not exact; "
    for k in range(k_used if cfg.k_override is not None else 0, k_used + 1):
        rung = dict(stats, k_used=k)
        params = ResyncParams(n=n, gamma=gamma, i=k)
        try:
            t_i = build_Ti(t, params)
            rung["t_i_states"] = len(t_i.states)
            exact = k == k_used and not inexact_k
            # when the block cap is not binding, a NO is exact regardless of k
            if not exact:
                exact, _ = language_equal(t_i, t)
                if exact:
                    rung["t_i_equals_t"] = True
            tis = build_TiS(can, t_i, params)
        except CapExceeded as exc:
            return Verdict(answer=INCONCLUSIVE, reason=str(exc), stats=rung)
        rung["t_i_s_states"] = len(tis.states)
        # a loss below the top rung on a T_k short of T climbs to k + 1; the
        # top rung's caveat is a string, so its _play always returns a verdict
        miss_caveat = "" if exact else caveat if k == k_used else None
        verdict = _play(s, t, tis, cfg.depth, rung, miss_caveat)
        if verdict is not None:
            return verdict


def decide_recognizable(s: Nfa, t: Nfa, cfg: PipelineConfig = PipelineConfig()) -> Verdict:
    """Decide for a finite-shift source against any regular target: exact, no
    block cap involved."""
    stats: dict = {}
    cert = shift_finiteness(s)
    if not cert.finite:
        return Verdict(
            answer=REJECTED,
            reason="source language has infinite shift",
            witness=cert.witness,
            stats=stats,
        )
    s = trim(s)
    t = trim(t)
    try:
        s12 = canonicalize_finite_shift(s, cert)
    except CapExceeded as exc:
        return Verdict(answer=INCONCLUSIVE, reason=str(exc), stats=stats)
    stats["canonical_source_states"] = len(s12.states)
    t_prime = build_Tprime_recognizable(s12, t)
    stats["t_prime_states"] = len(t_prime.states)
    return _play(s, t, t_prime, cfg.depth, stats, "")


def _play(
    s: Nfa, t: Nfa, synced: Nfa, depth: int, stats: dict, caveat: Optional[str]
) -> Optional[Verdict]:
    """The shared tail: the arena on the minimal DFA of `synced`, a domain
    check against the arena's input DFA, the game, then an endmarked machine
    verified against the endmarked source and target (YES) or a replayed
    spoiling strategy. A loss (domain or game) is a NO when `caveat` is
    empty. Otherwise `synced` is not exact: the loss is INCONCLUSIVE with
    `caveat` opening the reason, or None when `caveat` is None, so that the
    caller can play a larger block cap. Only the minimal DFA and the source
    are ever projected."""
    miss = INCONCLUSIVE if caveat else NO
    arena = build_arena(synced)
    ok, witness = inclusion(project_input(s), arena.d_dfa)
    if not ok:
        if caveat is None:
            return None
        return Verdict(
            answer=miss,
            witness=witness,
            reason=caveat + "an input of the source relation has no allowed synchronization",
            stats=stats,
        )

    stats["arena_vertices"] = len(arena.vertices)
    region, strategy = solve(arena)
    if arena.initial in region:
        machine = extract_sdfa(arena, region)
        report = verify_uniformizer(machine, add_endmarkers(s), add_endmarkers(t), depth=depth)
        stats["machine_states"] = len(machine.states)
        if not report.ok:
            return Verdict(
                answer=INCONCLUSIVE,
                reason=f"verify: the synthesized machine fails verification: {report.failures[0]}",
                stats=stats,
                verification=report,
            )
        return Verdict(
            answer=YES,
            machine=machine,
            reason="subset-uniformization game won; machine synthesized and verified",
            stats=stats,
            verification=report,
        )
    spoiler = in_spoiling_strategy(strategy)
    if not replay_spoiler(arena, region, spoiler):
        return Verdict(
            answer=INCONCLUSIVE,
            reason="spoiler: the input player's spoiling strategy fails its replay",
            stats=stats,
        )
    if caveat is None:
        return None
    return Verdict(
        answer=miss,
        reason=caveat + "the input player spoils the game",
        witness=tuple(sorted(spoiler.items(), key=repr)[:4]),
        stats=stats,
    )
