"""Differential correctness harness (brute-force oracle + fuzzing).

``repro.verify`` turns the paper's approximation guarantee into an
executable property:

* :mod:`~repro.verify.oracle` — :class:`OracleEngine`, a deliberately naive
  engine answering every operation by brute-force scan over all rides with
  exhaustive insertion-point enumeration; the ground truth for both exact
  equivalence and the ε detour bound;
* :mod:`~repro.verify.differential` — :class:`DifferentialHarness`, which
  replays one seeded op sequence against N engine façades and diffs them
  op-by-op;
* :mod:`~repro.verify.fuzz` — the seeded op-sequence generator, the
  delta-debugging shrinker, and the JSON regression corpus.

See ``docs/verification.md`` for the full story.
"""

from .differential import (
    DifferentialHarness,
    DifferentialReport,
    Divergence,
    FACADE_NAMES,
    make_facade,
)
from .fuzz import (
    FuzzConfig,
    generate_ops,
    load_corpus_entry,
    replay_entry,
    save_repro,
    shrink_ops,
)
from .oracle import OracleAdapter, OracleEngine, OracleOptimum

__all__ = [
    "DifferentialHarness",
    "DifferentialReport",
    "Divergence",
    "FACADE_NAMES",
    "FuzzConfig",
    "OracleAdapter",
    "OracleEngine",
    "OracleOptimum",
    "generate_ops",
    "load_corpus_entry",
    "make_facade",
    "replay_entry",
    "save_repro",
    "shrink_ops",
]
