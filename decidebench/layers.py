"""Per-layer tracing from outside the program.

`Tracer.install(pipeline)` replaces, in the `syncsynth.pipeline` module, the
layer functions it imports by name with wrappers that time each call and read
sizes off the returned values. No file of the program is edited, and only the
pipeline's own calls are seen: a layer's internal calls into other layers stay
inside its span. `uninstall()` restores the originals.

Each decision is one request: its spans share the decision's id, and
`pipeline.self_s` is the decision's time that no wrapped call covers
(for example `_minimal_gamma`'s own work, `concat` and the block automata).
"""
from __future__ import annotations

import time
from typing import Callable, Optional


def _states(attr: Optional[str] = None) -> Callable:
    def count(result) -> int:
        return len((getattr(result, attr) if attr else result).states)

    return count


# pipeline name -> (time metric, [(count metric, reader of the returned value)])
LAYERS = {
    "shiftlag_finiteness": ("analysis.shiftlag_s", []),
    "shift_finiteness": ("analysis.shift_s", []),
    "canonicalize": ("canonical.canonicalize_s", [("canonical.source_states", _states("dfa"))]),
    "canonicalize_finite_shift": ("canonical.finite_shift_s", [("canonical.source_states", _states())]),
    "compute_k": (
        "profiles.compute_k_s",
        [
            ("profiles.input_profiles", lambda bound: bound.input_profile_count),
            ("profiles.output_profiles", lambda bound: bound.output_profile_count),
        ],
    ),
    "build_Ti": ("resync.build_ti_s", []),
    "build_TiS": ("resync.build_tis_s", [("resync.tis_states", _states())]),
    "build_Tprime_recognizable": ("resync.tprime_s", [("resync.tprime_states", _states())]),
    "add_endmarkers": ("automata.endmark_s", []),
    "project_input": ("automata.project_s", []),
    "inclusion": ("automata.inclusion_s", []),
    "determinize": ("automata.determinize_s", []),
    "language_equal": ("automata.language_equal_s", []),
    "trim": ("automata.trim_s", []),
    "build_arena": ("game.build_arena_s", [("game.arena_vertices", lambda arena: len(arena.vertices))]),
    "solve": ("game.solve_s", []),
    "extract_sdfa": ("game.extract_s", [("game.machine_states", _states())]),
    "verify_uniformizer": ("game.verify_s", []),
    "in_spoiling_strategy": ("game.spoiler_s", []),
    "replay_spoiler": ("game.spoiler_s", []),
}

SELF = "pipeline.self_s"

# every per-layer metric, in report order, with its unit
METRICS = {}
for _time, _counts in LAYERS.values():
    METRICS[_time] = "s"
    for _count, _ in _counts:
        METRICS[_count] = "count"
METRICS[SELF] = "s"


class Tracer:
    """Collects spans in memory: (decision id, layer name, start, end)."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: list[tuple] = []  # (decision id, metric, value)
        self.decision: Optional[int] = None
        self._originals: dict = {}

    def _wrap(self, name: str, fn: Callable) -> Callable:
        time_metric, readers = LAYERS[name]
        clock = time.perf_counter

        def traced(*args, **kwargs):
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                self.spans.append((self.decision, time_metric, start, clock()))
            for metric, read in readers:
                self.counts.append((self.decision, metric, read(result)))
            return result

        return traced

    def install(self, pipeline) -> None:
        for name in LAYERS:
            fn = getattr(pipeline, name)
            self._originals[name] = fn
            setattr(pipeline, name, self._wrap(name, fn))

    def uninstall(self, pipeline) -> None:
        for name, fn in self._originals.items():
            setattr(pipeline, name, fn)
        self._originals.clear()

    def totals(self, decisions: dict) -> dict:
        """Per-layer sums over the given decisions ({id: decision seconds})."""
        sums = dict.fromkeys(METRICS, 0)
        covered = dict.fromkeys(decisions, 0.0)
        for decision, metric, start, end in self.spans:
            if decision in decisions:
                sums[metric] += end - start
                covered[decision] += end - start
        for decision, metric, value in self.counts:
            if decision in decisions:
                sums[metric] += value
        sums[SELF] = sum(decisions[d] - covered[d] for d in decisions)
        return sums
