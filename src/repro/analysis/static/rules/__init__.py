"""Builtin rule plugins.

Importing this package registers every builtin rule with the framework
registry (:func:`repro.analysis.static.core.register` runs at class
definition time). Third-party or repo-local rules can call ``register``
themselves; the engine picks up whatever the registry holds.

Rule id scheme — a stable family prefix plus a number that is never
reused:

========  ============================================================
``DET-``  determinism hazards (wall clock, unordered iteration,
          environment reads)
``RNG-``  RNG discipline (all draws via AntRngStreams, no global RNG
          state)
``DIV-``  lockstep-divergence hazards in the vectorized hot path
``ACC-``  simulated-time accounting discipline
``LAY-``  import-layering contract between packages
``OBS-``  observability discipline (all events via Telemetry.emit)
``SYN-``  reserved for the engine (unparsable files)
========  ============================================================

Retired ids: ``DET-001``, the original composite determinism lint. Its
checks live on in ``RNG-103`` (global RNG state), ``DET-004`` (wall-clock
reads) and ``LAY-401`` (telemetry importing scheduler state).
"""

from . import (
    accounting,
    determinism,
    divergence,
    layering,
    observability,
    rng_discipline,
)

__all__ = [
    "accounting",
    "determinism",
    "divergence",
    "layering",
    "observability",
    "rng_discipline",
]
