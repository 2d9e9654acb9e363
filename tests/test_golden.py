"""The benchmark's decisions keep their verdicts, byte for byte.

Every instance of `decidebench/instances.py`, at seeds 1 and 2, runs through
the pipeline procedure its workload names, with the instance's block cap and
depth. Each decision's answer, reason, witness `repr` and machine JSON must
equal its record in `golden_verdicts.json`. Stats are not recorded, since
automata may shrink without a verdict moving. After a change that is meant
to move a verdict, regenerate the file from the root of a checkout with

    PYTHONPATH=src python tests/test_golden.py

and review its diff.
"""
import importlib.util
import json
import sys
from pathlib import Path

from syncsynth import pipeline, serialize

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden_verdicts.json"
SEEDS = (1, 2)


def _benchmark_instances():
    path = HERE.parent / "decidebench" / "instances.py"
    spec = importlib.util.spec_from_file_location("decidebench_instances", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def verdict_records() -> dict:
    """Per workload, seed and instance: the verdict's answer, reason,
    witness `repr` and machine document."""
    instances = _benchmark_instances()
    records = {}
    for workload in sorted(instances.WORKLOADS):
        for seed in SEEDS:
            procedure, loaded = instances.workload(workload, seed)
            for item in loaded:
                inst = item.instance
                cfg = pipeline.PipelineConfig(k_override=inst.k_override, depth=inst.depth)
                s, t = serialize.loads(item.source_json), serialize.loads(item.target_json)
                verdict = getattr(pipeline, procedure)(s, t, cfg)
                records[f"{workload}/seed{seed}/{inst.name}"] = {
                    "answer": verdict.answer,
                    "reason": verdict.reason,
                    "witness": repr(verdict.witness),
                    "machine": None if verdict.machine is None else serialize.to_dict(verdict.machine),
                }
    return records


def test_benchmark_verdicts_match_the_golden_file():
    want = json.loads(GOLDEN.read_text(encoding="utf-8"))
    got = verdict_records()
    assert sorted(got) == sorted(want)
    for key in sorted(want):
        assert got[key] == want[key], key


if __name__ == "__main__":
    text = json.dumps(verdict_records(), indent=1, ensure_ascii=False, sort_keys=True)
    GOLDEN.write_text(text + "\n", encoding="utf-8")
