"""Decide benchmark: closed-loop, single-threaded decisions with oracle checks.

    python3 decidebench/run.py --workload computed-k --seed 1 --seconds 25 --trace 0

Run from the root of a checkout. One process decides the workload's
instances one after another, in rounds, until the next round would end past
`--seconds` (at least one round runs). Instances come from the seeded
generator in `instances.py` and are loaded through `syncsynth.serialize`;
every verdict is checked by the independent oracle in `oracle.py`, outside
the timed region.

With `--trace 0` the last line of standard output reports the end-to-end
metrics; with `--trace 1` the layer functions are wrapped (see `layers.py`)
and the per-layer metrics are reported instead. Raw per-decision records and
the span dump go to `decidebench/results/`.
"""
from __future__ import annotations

import argparse
import gc
import importlib
import json
import resource
import statistics
import sys
import time
from pathlib import Path

import instances
import layers
import oracle

HERE = Path(__file__).resolve().parent
SOURCE_DIR = HERE.parent / "src"
RESULTS = HERE / "results"
SETUP_REPEATS = 15


def _fresh_program():
    """Import syncsynth from scratch; returns (pipeline, serialize, automata)."""
    for name in [m for m in sys.modules if m == "syncsynth" or m.startswith("syncsynth.")]:
        del sys.modules[name]
    return tuple(importlib.import_module(f"syncsynth.{m}") for m in ("pipeline", "serialize", "automata"))


def setup(workload: str, seed: int):
    """Imports, instance generation and the serialize round trip, timed
    SETUP_REPEATS times; returns the median time and the last set-up."""
    if not (SOURCE_DIR / "syncsynth").is_dir():
        raise SystemExit(f"decidebench: no syncsynth sources under {SOURCE_DIR}")
    sys.path.insert(0, str(SOURCE_DIR))
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        program = _fresh_program()
        serialize = program[1]
        procedure, loaded = instances.workload(workload, seed)
        texts = [
            (serialize.dumps(serialize.loads(item.source_json)),
             serialize.dumps(serialize.loads(item.target_json)))
            for item in loaded
        ]
        times.append(time.perf_counter() - start)
    return statistics.median(times), program, procedure, loaded, texts


def decide_rounds(decide, serialize, pipeline, loaded, texts, seconds: float, tracer):
    """Rounds of closed-loop decisions; returns the per-decision records."""
    configs = [
        pipeline.PipelineConfig(k_override=item.instance.k_override, depth=item.instance.depth)
        for item in loaded
    ]
    records = []
    start = time.perf_counter()
    rounds = 0
    while True:
        # fresh automata each round, so no cached property outlives a round
        pairs = [(serialize.loads(s), serialize.loads(t)) for s, t in texts]
        gc.collect()
        for item, cfg, (s, t) in zip(loaded, configs, pairs):
            decision = len(records)
            if tracer is not None:
                tracer.decision = decision
            began = time.perf_counter()
            try:
                verdict, error = decide(s, t, cfg), ""
            except Exception as exc:  # a crash is a failed operation, reported below
                verdict, error = None, f"{type(exc).__name__}: {exc}"
            elapsed = time.perf_counter() - began
            records.append(dict(id=decision, round=rounds, item=item, s=s, t=t,
                                verdict=verdict, error=error, seconds=elapsed))
        rounds += 1
        spent = time.perf_counter() - start
        if spent * (rounds + 1) / rounds > seconds:
            return records


def check(records, automata) -> None:
    """Oracle problems per record; identical verdicts are checked once."""
    memo: dict = {}
    for rec in records:
        verdict, inst = rec["verdict"], rec["item"].instance
        if verdict is None:
            rec["problems"] = [rec["error"]]
            continue
        machine = verdict.machine
        key = (inst.name, verdict.answer, repr(verdict.witness),
               None if machine is None else machine.transitions)
        if key not in memo:
            memo[key] = oracle.check_verdict(
                verdict, rec["s"], rec["t"], inst.expected, inst.known_answer,
                automata.END_IN, automata.END_OUT,
            )
        rec["problems"] = memo[key]


def by_round(records) -> list[list]:
    rounds: dict = {}
    for rec in records:
        rounds.setdefault(rec["round"], []).append(rec)
    return [rounds[r] for r in sorted(rounds)]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(instances.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    setup_s, (pipeline, serialize, automata), procedure, loaded, texts = setup(args.workload, args.seed)
    tracer = layers.Tracer() if args.trace else None
    if tracer is not None:
        tracer.install(pipeline)
    try:
        records = decide_rounds(getattr(pipeline, procedure), serialize, pipeline,
                                loaded, texts, args.seconds, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall(pipeline)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    check(records, automata)

    failed = [rec for rec in records if rec["problems"]]
    correct = all(rec["item"].instance.known_fault for rec in failed)
    rounds = by_round(records)
    # each instance's median over the rounds damps bursts of host noise
    per_instance = [statistics.median(r["seconds"] for r in runs) for runs in zip(*rounds)]
    wall_s = sum(per_instance)
    if tracer is None:
        metrics = {
            "setup_s": (setup_s, "s"),
            "wall_s": (wall_s, "s"),
            "slowest_s": (max(per_instance), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    else:
        per_round = [tracer.totals({r["id"]: r["seconds"] for r in rnd}) for rnd in rounds]
        # counts repeat exactly across rounds; median_low keeps them whole
        metrics = {
            name: ((statistics.median_low if unit == "count" else statistics.median)(
                t[name] for t in per_round), unit)
            for name, unit in layers.METRICS.items()
        }

    RESULTS.mkdir(exist_ok=True)
    stem = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    raw = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "rounds": len(rounds), "setup_s": setup_s, "wall_s": wall_s, "peak_rss_mb": peak_rss_mb,
        "decisions": [
            {"round": r["round"], "instance": r["item"].instance.name,
             "answer": None if r["verdict"] is None else r["verdict"].answer,
             "seconds": r["seconds"], "problems": r["problems"],
             "known_fault": r["item"].instance.known_fault}
            for r in records
        ],
    }
    stem.with_suffix(".json").write_text(json.dumps(raw, indent=1, ensure_ascii=False) + "\n")
    if tracer is not None:
        with open(stem.with_suffix(".spans.jsonl"), "w", encoding="utf-8") as out:
            for decision, name, start, end in tracer.spans:
                out.write(json.dumps({"decision": decision, "span": name,
                                      "start": start, "end": end}) + "\n")
    for rec in failed:
        print(f"failed: {rec['item'].instance.name}: {rec['problems'][0]}", file=sys.stderr)

    print(json.dumps({
        "correct": correct,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
