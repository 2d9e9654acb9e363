"""Synthesis of sequential transducers under synchronization-language control.

The package decides, for a source language of synchronizations and a target
interleaving discipline, whether the encoded relation has a uniformization
by a sequential machine whose input/output behaviour stays inside the
target — and on YES synthesizes and verifies one. The building blocks
(synchronization measures, canonicalization, resynchronization, profile
monoids, state-transformation trees, the safety game) are exposed as
independently usable operations.
"""

from .letters import Letter, SyncWord, Tape, decode, inp, out
from .automata import (
    Dfa,
    Nfa,
    SequentialDfa,
    add_endmarkers,
    determinize,
    inclusion,
    is_empty,
    language_equal,
    make_sequential_check,
    pair_in_relation,
    product,
    project_input,
    trim,
)
from .analysis import (
    ShiftCertificate,
    ShiftlagCertificate,
    SyncMeasures,
    build_shape,
    least_lag_bound,
    measures,
    parikh_injective,
    shift_finiteness,
    shiftlag_finiteness,
)
from .trees import Tree, tree
from .canonical import (
    CanonicalDfa,
    canonicalize,
    canonicalize_finite_shift,
)
from .resync import ResyncParams, build_Ti, build_TiS, build_Tprime_recognizable
from .profiles import (
    Profile,
    compute_k,
    input_stt,
    profile_closure,
    ramsey_bound,
    tau,
)
from .game import (
    GameArena,
    build_arena,
    extract_sdfa,
    run_machine,
    solve,
    verify_uniformizer,
)
from .pipeline import PipelineConfig, Verdict, decide, decide_recognizable

__all__ = [name for name in dir() if not name.startswith("_")]
