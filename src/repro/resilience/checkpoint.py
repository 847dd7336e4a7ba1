"""Checkpoint/resume of colony search state (recovery without restart).

When an attempt at a region dies mid-search — the watchdog declares the
kernel hung, or the deadline is about to expire — everything the search
has learned lives on the host: the pheromone table, the global best, the
termination-tracker counters and the per-ant RNG streams. A
:class:`RegionCheckpoint` snapshots exactly that state at an iteration
boundary so a retry *resumes* the search instead of restarting it.

Resume is **exact** when the retry runs the same engine family with the
same population (the vectorized and loop backends share draw sequences by
construction, so checkpoints transfer between them): the resumed pass
continues the interrupted pass's draw-for-draw evolution and lands on a
bit-identical final schedule — ``tests/test_resilience_checkpoint.py``
proves interrupted+resumed == uninterrupted, per seed. When the ladder
degrades across engines (parallel -> sequential) or geometries, resume is
**partial**: the pheromone table, global best and tracker state carry
over, while the RNG restarts from the attempt's seed — the search keeps
its progress, only the remaining exploration differs.

Serialization is round-trippable bit for bit: the pheromone array travels
as raw little-endian bytes (base64), RNG states as the generators' own
state dicts, and ``tests`` assert byte equality after a JSON round trip.
"""

from __future__ import annotations

import base64
import json
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from ..errors import ResilienceError
from ..ir.registers import RegisterClass

#: Version stamp of the serialized layout; bump on incompatible changes.
CHECKPOINT_VERSION = 1


def _encode_tau(tau: np.ndarray) -> Dict:
    array = np.ascontiguousarray(tau, dtype=np.float64)
    return {
        "shape": list(array.shape),
        "data": base64.b64encode(array.tobytes()).decode("ascii"),
    }


def _decode_tau(payload: Dict) -> np.ndarray:
    raw = base64.b64decode(payload["data"].encode("ascii"))
    array = np.frombuffer(raw, dtype=np.float64).copy()
    return array.reshape(tuple(payload["shape"]))


def _encode_peak(peak: Dict[RegisterClass, int]) -> Dict[str, int]:
    return {"%s:%s" % (cls.name, cls.prefix): int(v) for cls, v in peak.items()}


def _decode_peak(payload: Dict[str, int]) -> Dict[RegisterClass, int]:
    peak: Dict[RegisterClass, int] = {}
    for key, value in payload.items():
        name, prefix = key.rsplit(":", 1)
        peak[RegisterClass(name, prefix)] = int(value)
    return peak


@dataclass
class RegionCheckpoint:
    """Search state of one region's interrupted ACO pass.

    ``pass_index`` names the interrupted pass; when it is 2, ``pass1``
    carries the completed pass-1 result fields so resume skips pass 1
    entirely (its outputs — ``best_order``/``best_peak`` — are already
    final).
    """

    region: str
    scheduler: str
    backend: str
    seed: int
    pass_index: int
    iteration: int
    tau: np.ndarray
    best_cost: float
    without_improvement: int
    best_order: Tuple[int, ...]
    best_peak: Dict[RegisterClass, int]
    best_cycles: Optional[Tuple[int, ...]] = None
    pass1: Optional[Dict] = None
    rng_state: Optional[list] = None
    num_ants: Optional[int] = None

    # -- serialization ------------------------------------------------------

    def to_payload(self) -> Dict:
        """A JSON-serializable dict; round-trips bit-identically."""
        return {
            "checkpoint_version": CHECKPOINT_VERSION,
            "region": self.region,
            "scheduler": self.scheduler,
            "backend": self.backend,
            "seed": self.seed,
            "pass_index": self.pass_index,
            "iteration": self.iteration,
            "tau": _encode_tau(self.tau),
            "best_cost": float(self.best_cost),
            "without_improvement": self.without_improvement,
            "best_order": list(self.best_order),
            "best_peak": _encode_peak(self.best_peak),
            "best_cycles": None if self.best_cycles is None else list(self.best_cycles),
            "pass1": self.pass1,
            "rng_state": self.rng_state,
            "num_ants": self.num_ants,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_payload(), sort_keys=True)

    @classmethod
    def from_payload(cls, payload: Dict) -> "RegionCheckpoint":
        version = payload.get("checkpoint_version")
        if version != CHECKPOINT_VERSION:
            raise ResilienceError(
                "unsupported checkpoint version %r (supported: %d)"
                % (version, CHECKPOINT_VERSION)
            )
        checkpoint = cls(
            region=payload["region"],
            scheduler=payload["scheduler"],
            backend=payload["backend"],
            seed=int(payload["seed"]),
            pass_index=int(payload["pass_index"]),
            iteration=int(payload["iteration"]),
            tau=_decode_tau(payload["tau"]),
            best_cost=float(payload["best_cost"]),
            without_improvement=int(payload["without_improvement"]),
            best_order=tuple(int(i) for i in payload["best_order"]),
            best_peak=_decode_peak(payload["best_peak"]),
            best_cycles=(
                None
                if payload.get("best_cycles") is None
                else tuple(int(c) for c in payload["best_cycles"])
            ),
            pass1=payload.get("pass1"),
            rng_state=payload.get("rng_state"),
            num_ants=payload.get("num_ants"),
        )
        checkpoint.check_resumable()
        return checkpoint

    @classmethod
    def from_json(cls, text: str) -> "RegionCheckpoint":
        return cls.from_payload(json.loads(text))

    # -- resume compatibility ----------------------------------------------

    def check_resumable(self) -> None:
        """Raise :class:`ResilienceError` unless a scheduler can resume
        from this checkpoint: ``pass_index`` must name pass 1 or 2, and a
        pass-2 checkpoint must carry the finished pass-1 result."""
        if self.pass_index not in (1, 2):
            raise ResilienceError(
                "checkpoint pass_index must be 1 or 2, got %r" % (self.pass_index,)
            )
        if self.pass_index == 2 and self.pass1 is None:
            raise ResilienceError("pass-2 checkpoint carries no pass-1 result")

    def exact_rng_resume(self, num_ants: int) -> bool:
        """True when the RNG streams can continue draw-for-draw."""
        return (
            self.rng_state is not None
            and self.num_ants is not None
            and self.num_ants == num_ants
        )
