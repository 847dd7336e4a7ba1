"""Backend registry of the colony engines.

The ant-construction engine lives in two interchangeable implementations:

* :class:`~repro.parallel.vectorized.VectorizedColony` — the batch engine
  (all ants advance in lockstep numpy operations, wave-max cost model);
* :class:`~repro.parallel.loop.LoopColony` — the scalar per-ant reference
  engine (explicit Python loops, serialized-lane divergent cost model).

Both construct bit-identical seeded schedules (proven by
``tests/test_differential.py``); they differ only in execution style and
in which kernel the cost accounting simulates. ``BACKENDS`` maps the
public backend names (``GPUParams.backend``, ``--backend``) to engine
classes.
"""

from __future__ import annotations

from typing import Dict, Type

from ..errors import ConfigError
from .loop import LoopColony
from .vectorized import ColonyIterationResult, VectorizedColony

#: Public backend name -> engine class.
BACKENDS: Dict[str, Type[VectorizedColony]] = {
    "vectorized": VectorizedColony,
    "loop": LoopColony,
}

def resolve_backend(name: str) -> Type[VectorizedColony]:
    """Map a backend name to its engine class (``ConfigError`` if unknown)."""
    try:
        return BACKENDS[name]
    except KeyError:
        raise ConfigError(
            "unknown backend %r (choose from %s)"
            % (name, ", ".join(sorted(BACKENDS)))
        ) from None


__all__ = [
    "BACKENDS",
    "ColonyIterationResult",
    "LoopColony",
    "VectorizedColony",
    "resolve_backend",
]
