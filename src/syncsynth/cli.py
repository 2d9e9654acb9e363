"""Command-line interface.

Exit codes: 0 = YES/pass, 1 = NO/fail, 2 = inconclusive, 3 = usage or
input error (including instances outside the decidable fragment).
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from . import serialize
from .analysis import (
    BoundExhausted,
    ShiftlagWitness,
    parikh_injective,
    shift_finiteness,
    shiftlag_finiteness,
)
from .automata import (
    AutomatonError,
    CapExceeded,
    END_IN,
    add_endmarkers,
    determinize,
    trim,
)
from .canonical import canonicalize
from .game import build_arena, extract_sdfa, solve, verify_uniformizer
from .letters import inp
from .pipeline import (
    REJECTED,
    PipelineConfig,
    Verdict,
    decide,
    decide_recognizable,
    target_parameters,
)
from .profiles import compute_k, input_stt
from .resync import ResyncParams, build_Ti, build_TiS
from .serialize import dumps as automaton_json, load_path, to_dot
from .trees import Tree, canonical


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


def _witness_doc(witness) -> dict:
    """A pumpable shift or shiftlag witness: each of its words by field name."""
    return {f.name: _word_doc(getattr(witness, f.name)) for f in dataclasses.fields(witness)}


def _cert_doc(cert) -> dict:
    """A shift or shiftlag certificate: its verdict, then its witness, or its
    bounds by field name."""
    doc = {"verdict": "finite" if cert.finite else "infinite"}
    if cert.finite:
        doc.update(
            (f.name, getattr(cert, f.name))
            for f in dataclasses.fields(cert)
            if f.name not in ("finite", "witness")
        )
    else:
        doc["witness"] = _witness_doc(cert.witness)
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
    if not cert.finite:
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
    if not cert.finite:
        print("error: source has infinite shiftlag", file=sys.stderr)
        return 3
    can = canonicalize(s, cert)
    t = trim(t)
    n, gamma = target_parameters(t, shiftlag_finiteness(t), args.bound_k)
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


def _tree_dot(t: Tree, name: str) -> str:
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
        for c in sorted(node.children, key=canonical):
            walk(c, me, level + 1)

    walk(t, None, 0)
    lines.append("}")
    return "\n".join(lines) + "\n"


def cmd_profiles(args) -> int:
    s = load_path(args.source)
    t = load_path(args.target)
    cert_s = shiftlag_finiteness(s)
    cert_t = shiftlag_finiteness(t)
    if not cert_s.finite or not cert_t.finite:
        print("error: profiles need finite-shiftlag source and target", file=sys.stderr)
        return 3
    can = canonicalize(s, cert_s)
    t = trim(t)
    t_dfa = determinize(t)
    n, gamma = target_parameters(t, cert_t, None)
    bound = compute_k(n, gamma, can, t_dfa)
    inputs, outputs = bound.input_closure, bound.output_closure
    if args.format == "dot":
        word = max(inputs.reps, key=len)
        anchor = t_dfa.run(tuple(inp(x) for x in word)) or t_dfa.initial
        tree_ = input_stt(word, anchor, can.dfa.initial, inputs.profiles[0].depth, can, t_dfa)
        _emit(_tree_dot(tree_, f"stt_{''.join(word)}"), args.out)
        return 0
    _print_json(
        {
            "n": n,
            "gamma": gamma,
            "input_profiles": bound.input_profile_count,
            "output_profiles": bound.output_profile_count,
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
    arena = build_arena(load_path(args.language))
    region, _ = solve(arena)
    report = {
        "arena_vertices": len(arena.vertices),
        "winning_region": len(region),
        "winner": "output" if arena.initial in region else "input",
    }
    if arena.initial not in region:
        _print_json(report, args.out)
        return 1
    machine = extract_sdfa(arena, region)
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
    if END_IN in machine.input_alphabet:
        s, t = (a if END_IN in a.input_alphabet else add_endmarkers(a) for a in (s, t))
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


def _verdict_doc(verdict: Verdict, procedure: str) -> dict:
    doc = {
        "answer": verdict.answer,
        "procedure": procedure,
        "reason": verdict.reason,
        "stats": dict(verdict.stats),
    }
    if isinstance(verdict.witness, ShiftlagWitness):
        doc["witness"] = _witness_doc(verdict.witness)
    elif verdict.witness is not None:
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


def cmd_decide(args) -> int:
    """The exact procedure the input admits. Without `--bound-k`,
    `decide_recognizable` first: it decides a finite-shift source against any
    regular target and rejects only an infinite-shift source, which then
    goes to the block-cap `decide`. With `--bound-k`, `decide` alone."""
    s = load_path(args.source)
    t = load_path(args.target)
    cfg = PipelineConfig(k_override=args.bound_k, depth=args.depth)
    procedure = decide if args.bound_k is not None else decide_recognizable
    verdict = procedure(s, t, cfg)
    if verdict.answer == REJECTED and procedure is decide_recognizable:
        procedure = decide
        verdict = decide(s, t, cfg)
    if args.format == "dot" and verdict.machine is not None:
        _emit(to_dot(verdict.machine, "uniformizer"), args.out)
    else:
        _print_json(_verdict_doc(verdict, procedure.__name__), args.out)
    return verdict.exit_code


def _int_at_least(least: int, what: str):
    """An argparse type for an integer of at least `least` (0 or 1); `what`
    names the setting in the usage error."""
    kind = "non-negative" if least == 0 else "positive"

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = least - 1
        if value < least:
            raise argparse.ArgumentTypeError(f"{what} must be a {kind} integer, not {text!r}")
        return value

    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="syncsynth",
        description="Decide and synthesize target-controlled uniformizations "
        "of synchronized relations.",
    )
    options = {
        "--bound-k": dict(
            type=_int_at_least(0, "the block cap (--bound-k)"),
            default=None,
            help="output-block cap override; decides by the block-cap procedure",
        ),
        "--depth": dict(
            type=_int_at_least(1, "the verification depth (--depth)"),
            default=PipelineConfig.depth,
            help="verification enumeration depth (default %(default)s)",
        ),
        "--format": dict(choices=("json", "dot"), default="json"),
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
         ["--format"]),
        ("synthesize", "solve the subset-uniformization game", ["language"], ["--format"]),
        ("verify", "verify a candidate uniformizer", ["machine", "source", "target"], ["--depth"]),
        ("decide", "decide target-controlled uniformizability", ["source", "target"], list(options)),
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
    "decide": cmd_decide,
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
    except CapExceeded as exc:
        print(f"inconclusive: {exc}", file=sys.stderr)
        return 2
    except (AutomatonError, BoundExhausted, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
