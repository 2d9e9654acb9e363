"""Command-line interface.

Exit codes: 0 = YES/pass, 1 = NO/fail, 2 = inconclusive, 3 = usage or
input error (including instances outside the decidable fragment).
"""
from __future__ import annotations

import argparse
import json
import os
import sys

from . import serialize
from .analysis import (
    BoundExhausted,
    parikh_injective,
    shift_finiteness,
    shiftlag_finiteness,
)
from .automata import AutomatonError, END_IN, add_endmarkers, determinize, trim
from .canonical import canonicalize
from .game import build_arena, extract_sdfa, solve, verify_uniformizer
from .letters import inp
from .pipeline import PipelineConfig, Verdict, decide, decide_recognizable, target_parameters
from .profiles import ClosureCapExceeded, compute_k, input_stt
from .resync import ResyncParams, build_Ti, build_TiS
from .serialize import dumps as automaton_json, load_path, to_dot
from .trees import LabeledTree


def _word_doc(w) -> list:
    return [[int(l.tape), l.symbol] for l in w] if w is not None else None


def _emit(doc: str, out_path):
    if out_path:
        with open(out_path, "w", encoding="utf-8") as handle:
            handle.write(doc)
    else:
        sys.stdout.write(doc)


def _print_json(obj, out_path=None):
    _emit(json.dumps(obj, indent=2, ensure_ascii=False, sort_keys=True) + "\n", out_path)


def _cert_doc(cert) -> dict:
    if hasattr(cert, "verdict"):  # shiftlag
        doc = {"verdict": cert.verdict}
        if cert.is_finite:
            doc.update(m=cert.m, nu=cert.nu)
        else:
            doc["witness"] = {
                "prefix": _word_doc(cert.witness.prefix),
                "lag_cycle": _word_doc(cert.witness.lag_cycle),
                "mid": _word_doc(cert.witness.mid),
                "shift_cycle": _word_doc(cert.witness.shift_cycle),
                "suffix": _word_doc(cert.witness.suffix),
            }
        return doc
    doc = {"verdict": "finite" if cert.finite else "infinite"}
    if cert.finite:
        doc["bound"] = cert.bound
    else:
        doc["witness"] = {
            "prefix": _word_doc(cert.witness.prefix),
            "cycle": _word_doc(cert.witness.cycle),
            "suffix": _word_doc(cert.witness.suffix),
        }
    return doc


def cmd_classify(args) -> int:
    lang = load_path(args.language)
    shift_cert = shift_finiteness(lang)
    shiftlag_cert = shiftlag_finiteness(lang)
    injective, witness = parikh_injective(lang)
    doc = {
        "shift": _cert_doc(shift_cert),
        "shiftlag": _cert_doc(shiftlag_cert),
        "parikh_injective": injective,
    }
    if witness is not None:
        doc["parikh_witness"] = [list(witness[0]), list(witness[1])]
    _print_json(doc, args.out)
    return 0


def cmd_canon(args) -> int:
    lang = load_path(args.language)
    cert = shiftlag_finiteness(lang)
    if not cert.is_finite:
        print("error: language has infinite shiftlag", file=sys.stderr)
        return 3
    can = canonicalize(lang, cert)
    doc = automaton_json(can.dfa) if args.format == "json" else to_dot(can.dfa, "canonical")
    _emit(doc, args.out)
    return 0


def cmd_resync(args) -> int:
    s = load_path(args.source)
    t = load_path(args.target)
    if args.bound_k is None:
        print("error: resync needs --bound-k", file=sys.stderr)
        return 3
    cert = shiftlag_finiteness(s)
    if not cert.is_finite:
        print("error: source has infinite shiftlag", file=sys.stderr)
        return 3
    can = canonicalize(s, cert)
    t = trim(t)
    n, gamma, _, _ = target_parameters(t, determinize(t), shiftlag_finiteness(t), args.bound_k)
    params = ResyncParams(n=n, gamma=gamma, i=args.bound_k)
    t_i = build_Ti(t, params)
    tis = build_TiS(can, t_i, params)
    if args.format == "dot":
        _emit(to_dot(tis, "resynchronized"), args.out)
    else:
        doc = serialize.to_dict(tis)
        doc["stats"] = {
            "n": params.n,
            "gamma": params.gamma,
            "i": params.i,
            "t_i_states": len(t_i.states),
            "states": len(tis.states),
            "transitions": len(tis.transitions),
        }
        _print_json(doc, args.out)
    return 0


def _tree_dot(t: LabeledTree, name: str) -> str:
    lines = [f"digraph {json.dumps(name)} {{", "  node [shape=box];"]
    counter = 0

    def walk(node, parent, level):
        nonlocal counter
        me = f"n{counter}"
        counter += 1
        fill = ", style=filled, fillcolor=lightgray" if level % 2 else ""
        lines.append(f"  {me} [label={json.dumps(str(node.label))}{fill}];")
        if parent is not None:
            lines.append(f"  {parent} -> {me};")
        for c in node.children:
            walk(c, me, level + 1)

    walk(t, None, 0)
    lines.append("}")
    return "\n".join(lines) + "\n"


def cmd_profiles(args) -> int:
    s = load_path(args.source)
    t = load_path(args.target)
    cert_s = shiftlag_finiteness(s)
    cert_t = shiftlag_finiteness(t)
    if not cert_s.is_finite or not cert_t.is_finite:
        print("error: profiles need finite-shiftlag source and target", file=sys.stderr)
        return 3
    can = canonicalize(s, cert_s)
    t = trim(t)
    t_dfa = determinize(t)
    n, gamma, _, _ = target_parameters(t, t_dfa, cert_t, None)
    cap = args.cap or 512
    try:
        bound = compute_k(n, gamma, can, t_dfa, closure_cap=cap)
    except ClosureCapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    inputs, outputs = bound.input_closure, bound.output_closure
    if args.format == "dot":
        word = max(inputs.reps, key=len)
        anchor = t_dfa.run(tuple(inp(x) for x in word)) or t_dfa.initial
        tree_ = input_stt(word, anchor, can.dfa.initial, (n + 1) // 2, can, t_dfa)
        _emit(_tree_dot(tree_, f"stt_{''.join(word)}"), args.out)
        return 0
    _print_json(
        {
            "n": n,
            "gamma": gamma,
            "input_profiles": len(inputs.profiles),
            "output_profiles": len(outputs.profiles),
            "max_input_representative": len(max(inputs.reps, key=len)),
            "max_output_representative": outputs.max_rep_length,
            "r1": bound.r1,
            "r2": bound.r2,
            "k": bound.k,
        },
        args.out,
    )
    return 0


def cmd_synthesize(args) -> int:
    lang = load_path(args.language)
    if END_IN not in lang.input_alphabet:
        lang = add_endmarkers(lang)
    arena = build_arena(lang)
    region, strategy = solve(arena)
    report = {
        "arena_vertices": len(arena.vertices),
        "winning_region": len(region),
        "winner": "output" if arena.initial in region else "input",
    }
    if arena.initial not in region:
        _print_json(report, args.out)
        return 1
    machine = extract_sdfa(arena, strategy)
    if args.format == "dot":
        _emit(to_dot(machine, "uniformizer"), args.out)
    else:
        doc = serialize.to_dict(machine)
        doc["report"] = report
        _print_json(doc, args.out)
    return 0


def cmd_verify(args) -> int:
    machine = load_path(args.machine)
    s = load_path(args.source)
    t = load_path(args.target)
    # synthesized machines read endmarked words; meet them on that alphabet
    if END_IN in machine.input_alphabet and END_IN not in s.input_alphabet:
        s, t = add_endmarkers(s), add_endmarkers(t)
    report = verify_uniformizer(machine, s, t, depth=args.depth)
    _print_json(
        {
            "ok": report.ok,
            "checks": [list(c) for c in report.checks],
            "failures": list(report.failures),
        },
        args.out,
    )
    return 0 if report.ok else 1


def _verdict_doc(verdict: Verdict) -> dict:
    doc = {
        "answer": verdict.answer,
        "reason": verdict.reason,
        "k_used": verdict.stats.get("k_used"),
        "gamma": verdict.stats.get("gamma"),
        "n": verdict.stats.get("n"),
        "sizes": {
            k: v
            for k, v in verdict.stats.items()
            if k.endswith("_states") or k.endswith("_vertices")
        },
        "stats": {k: v for k, v in verdict.stats.items()},
    }
    if verdict.witness is not None:
        try:
            doc["witness"] = _word_doc(verdict.witness)
        except (TypeError, AttributeError):
            doc["witness"] = repr(verdict.witness)
    if verdict.machine is not None:
        doc["machine"] = serialize.to_dict(verdict.machine)
    if verdict.verification is not None:
        doc["verification"] = {
            "ok": verdict.verification.ok,
            "failures": list(verdict.verification.failures),
        }
    return doc


def _run_decide(args, recognizable: bool) -> int:
    s = load_path(args.source)
    t = load_path(args.target)
    cap = args.cap
    cfg = PipelineConfig(
        k_override=args.bound_k,
        depth=args.depth,
        closure_cap=cap or 512,
        feasible_k_cap=min(cap, 6) if cap else 6,
    )
    verdict = decide_recognizable(s, t, cfg) if recognizable else decide(s, t, cfg)
    doc = _verdict_doc(verdict)
    if args.format == "dot" and verdict.machine is not None:
        _emit(to_dot(verdict.machine, "uniformizer"), args.out)
    else:
        _print_json(doc, args.out)
    return verdict.exit_code


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="syncsynth",
        description="Decide and synthesize target-controlled uniformizations "
        "of synchronized relations.",
    )
    env_cap = os.environ.get("SYNCSYNTH_CAP")
    options = {
        "--bound-k": dict(type=int, default=None, help="output-block cap override"),
        "--depth": dict(type=int, default=8, help="verification enumeration depth"),
        "--format": dict(choices=("json", "dot"), default="json"),
        "--cap": dict(
            type=int, default=int(env_cap) if env_cap else None, help="closure/size safety cap"
        ),
    }
    files = {
        "language": "automaton JSON file",
        "machine": "candidate machine JSON file",
        "source": "source automaton JSON file",
        "target": "target automaton JSON file",
    }
    sub = parser.add_subparsers(dest="command", required=True)
    # each subcommand takes exactly the options its handler reads
    for name, help_, positionals, flags in (
        ("classify", "synchronization measures and certificates", ["language"], []),
        ("canon", "canonicalize a finite-shiftlag language", ["language"], ["--format"]),
        ("resync", "build the constrained resynchronized source", ["source", "target"],
         ["--bound-k", "--format"]),
        ("profiles", "profile closures and the block-cap bound", ["source", "target"],
         ["--format", "--cap"]),
        ("synthesize", "solve the subset-uniformization game", ["language"], ["--format"]),
        ("verify", "verify a candidate uniformizer", ["machine", "source", "target"], ["--depth"]),
        ("decide", "decide target-controlled uniformizability", ["source", "target"], list(options)),
        ("decide-rec", "decide via the finite-shift fast path", ["source", "target"], list(options)),
    ):
        p = sub.add_parser(name, help=help_)
        for positional in positionals:
            p.add_argument(positional, help=files[positional])
        for flag in flags:
            p.add_argument(flag, **options[flag])
        p.add_argument("--out", default=None, help="write the main artifact to this path")
    return parser


HANDLERS = {
    "classify": cmd_classify,
    "canon": cmd_canon,
    "resync": cmd_resync,
    "profiles": cmd_profiles,
    "synthesize": cmd_synthesize,
    "verify": cmd_verify,
    "decide": lambda a: _run_decide(a, recognizable=False),
    "decide-rec": lambda a: _run_decide(a, recognizable=True),
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 3 if exc.code not in (0,) else 0
    try:
        return HANDLERS[args.command](args)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (AutomatonError, BoundExhausted, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
