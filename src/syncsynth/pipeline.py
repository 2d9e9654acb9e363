"""End-to-end decision procedure: does the source have a target-controlled
uniformization by a sequential machine?

The source is canonicalized, the target is constrained to capped output
blocks, the resynchronized source is built, and the question reduces to
domain equality plus a safety game on the endmarked language. A YES at any
block cap is sound; a NO is only claimed when the cap provably suffices.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .analysis import (
    ShiftlagCertificate,
    certificate_lag_bound,
    lag_blocks_cover,
    least_true,
    shift_finiteness,
    shiftlag_finiteness,
)
from .automata import (
    Dfa,
    Nfa,
    STATE_CAP,
    SequentialDfa,
    StateCapExceeded,
    add_endmarkers,
    determinize,
    inclusion,
    language_equal,
    project_input,
    trim,
)
from .canonical import canonicalize, canonicalize_finite_shift
from .game import (
    build_arena,
    extract_sdfa,
    in_spoiling_strategy,
    replay_spoiler,
    solve,
    verify_uniformizer,
)
from .profiles import ClosureCapExceeded, compute_k
from .resync import ResyncParams, build_Ti, build_TiS, build_Tprime_recognizable

YES, NO, INCONCLUSIVE, REJECTED = "YES", "NO", "INCONCLUSIVE", "REJECTED"
EXIT_CODES = {YES: 0, NO: 1, INCONCLUSIVE: 2, REJECTED: 3}


@dataclass(frozen=True)
class PipelineConfig:
    k_override: Optional[int] = None
    depth: int = 8
    closure_cap: int = 512
    state_cap: int = STATE_CAP
    feasible_k_cap: int = 6

    def __post_init__(self):
        if self.depth < 1:
            raise ValueError("enumeration depth must be at least 1")
        if self.closure_cap <= 0 or self.state_cap <= 0 or self.feasible_k_cap <= 0:
            raise ValueError("caps must be positive")


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
    t: Nfa, t_dfa: Dfa, cert: ShiftlagCertificate, k_override: Optional[int]
) -> tuple[int, int, int, bool]:
    """Block count n, least lag bound gamma covering the trimmed target with
    n blocks (0 if none), the formula bound gamma is searched under, and
    whether the target is covered. An infinite-shiftlag target needs k_override."""
    n = cert.m + 1 if cert.is_finite else k_override + 1
    gamma_formula = certificate_lag_bound(n, len(t_dfa.states))
    gamma = least_true(lambda g: lag_blocks_cover(t, g, n), 0, gamma_formula)
    if gamma is None:
        return n, 0, gamma_formula, False
    return n, gamma, gamma_formula, True


def decide(s: Nfa, t: Nfa, cfg: PipelineConfig = PipelineConfig()) -> Verdict:
    """Decide T-controlled uniformizability of the source relation."""
    stats: dict = {}
    cert_s = shiftlag_finiteness(s)
    if not cert_s.is_finite:
        return Verdict(
            answer=REJECTED,
            reason="source language has infinite shiftlag",
            witness=cert_s.witness,
            stats=stats,
        )
    cert_t = shiftlag_finiteness(t)
    if not cert_t.is_finite and cfg.k_override is None:
        return Verdict(
            answer=REJECTED,
            reason="target language has infinite shiftlag (pass a block cap to explore anyway)",
            witness=cert_t.witness,
            stats=stats,
        )

    s = trim(s)
    t = trim(t)
    try:
        can = canonicalize(s, cert_s, state_cap=cfg.state_cap)
    except StateCapExceeded as exc:
        return _capped("canonicalize", exc, stats)
    t_dfa = determinize(t)
    stats["canonical_source_states"] = len(can.dfa.states)
    stats["target_dfa_states"] = len(t_dfa.states)

    n, gamma, gamma_formula, covered = target_parameters(t, t_dfa, cert_t, cfg.k_override)
    stats.update(n=n, gamma=gamma, gamma_formula=gamma_formula, target_covered=covered)
    if cert_t.is_finite and not covered:
        return Verdict(
            answer=INCONCLUSIVE,
            reason=f"target parameters: no lag bound up to {gamma_formula} covers the "
            f"target with {n} blocks, against its shiftlag certificate",
            stats=stats,
        )

    conclusive = covered
    if cfg.k_override is not None:
        k_used = cfg.k_override
        stats["k_source"] = "override"
        conclusive = False
    else:
        try:
            bound = compute_k(n, gamma, can, t_dfa, closure_cap=cfg.closure_cap)
        except ClosureCapExceeded as exc:
            return Verdict(answer=INCONCLUSIVE, reason=str(exc), stats=stats)
        stats["k_computed"] = bound.k
        stats["r1"] = bound.r1
        stats["r2"] = bound.r2
        if bound.k > cfg.feasible_k_cap:
            k_used = cfg.feasible_k_cap
            stats["k_source"] = "capped"
            conclusive = False
        else:
            k_used = bound.k
            stats["k_source"] = "computed"
    stats["k_used"] = k_used

    params = ResyncParams(n=n, gamma=gamma, i=k_used)
    t_i = build_Ti(t, params)
    stats["t_i_states"] = len(t_i.states)
    # when the block cap is not binding, a NO is exact regardless of k
    if not conclusive:
        same, _ = language_equal(t_i, t)
        if same:
            conclusive = True
            stats["t_i_equals_t"] = True

    try:
        tis = build_TiS(can, t_i, params, state_cap=cfg.state_cap)
    except StateCapExceeded as exc:
        return _capped("build_TiS", exc, stats)
    stats["t_i_s_states"] = len(tis.states)
    return _play(s, t, tis, cfg.depth, stats, exact=conclusive)


def decide_recognizable(s: Nfa, t: Nfa, cfg: PipelineConfig = PipelineConfig()) -> Verdict:
    """Fast path for finite-shift sources: exact, no block cap involved."""
    stats: dict = {}
    cert = shift_finiteness(s)
    if not cert.finite:
        return Verdict(
            answer=REJECTED,
            reason="source language has infinite shift",
            stats=stats,
        )
    s = trim(s)
    t = trim(t)
    try:
        s12 = canonicalize_finite_shift(s, cert, state_cap=cfg.state_cap)
    except StateCapExceeded as exc:
        return _capped("canonicalize_finite_shift", exc, stats)
    stats["canonical_source_states"] = len(s12.states)
    t_prime = build_Tprime_recognizable(s12, t)
    stats["t_prime_states"] = len(t_prime.states)
    return _play(s, t, t_prime, cfg.depth, stats, exact=True)


def _capped(construction: str, exc: StateCapExceeded, stats: dict) -> Verdict:
    return Verdict(answer=INCONCLUSIVE, reason=f"state cap: {construction}: {exc}", stats=stats)


def _play(s: Nfa, t: Nfa, synced: Nfa, depth: int, stats: dict, exact: bool) -> Verdict:
    """The shared tail: domain check, endmarking, the game, then a verified
    machine (YES) or a replayed spoiling strategy (NO, or INCONCLUSIVE when
    the synchronized language `synced` is not exact)."""
    miss = NO if exact else INCONCLUSIVE
    ok, witness = inclusion(project_input(s), project_input(synced))
    if not ok:
        return Verdict(
            answer=miss,
            witness=witness,
            reason="an input of the source relation has no allowed synchronization",
            stats=stats,
        )

    arena = build_arena(add_endmarkers(synced))
    stats["arena_vertices"] = len(arena.vertices)
    region, strategy = solve(arena)
    if arena.initial in region:
        machine = extract_sdfa(arena, strategy)
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
    spoiler = in_spoiling_strategy(arena, region)
    if not replay_spoiler(arena, region, spoiler):
        return Verdict(
            answer=INCONCLUSIVE,
            reason="spoiler: the input player's spoiling strategy fails its replay",
            stats=stats,
        )
    return Verdict(
        answer=miss,
        reason="the input player spoils the game",
        witness=tuple(sorted(spoiler.items(), key=repr)[:4]),
        stats=stats,
    )
