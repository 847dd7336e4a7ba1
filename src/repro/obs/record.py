"""Canonical run bundles: record one run so it can be diffed against another.

The paper's reproducibility story is *bit identity*: two execution paths
(backends, partitions, resume paths) must produce byte-equal schedules per
seed. When they do not, a bare fingerprint mismatch says nothing about
*where* the runs forked. A **run bundle** captures everything a seeded run
decides — telemetry events, the derived metrics snapshot, the span tree,
every shipped/search schedule, and the per-ant RNG draw sequences — in a
byte-stable, wall-clock-free directory that :mod:`repro.obs.diff` can then
bisect to the first divergent event.

Bundle layout (all JSON sorted-keys, trailing newline, no timestamps)::

    <bundle>/
      manifest.json    bundle schema, draw level, part inventory
      events.jsonl     telemetry records, one JSON object per line
      metrics.json     MetricsAggregator snapshot replayed from events.jsonl
      spans.json       serialized span tree (only when a profiler ran)
      schedules.json   search/shipped/batch schedule records, in ship order
      rng.jsonl        per-(trace, pass, iteration) ant draw digests

Draw capture levels:

``digest``
    per iteration and ant: draw count plus a chained sha256 digest of the
    IEEE-754 bytes — enough to localize a fork to (iteration, ant).
``full``
    additionally stores the raw draw values, localizing to the exact draw
    index with both values in the report. Used by the test fixtures and
    ``repro --record-draws full``.
``off``
    no RNG part (recording of events/schedules only).

Recording rides the run's one injected telemetry:
``Telemetry(sink=..., recorder=recorder)`` adds the recorder (itself a
:class:`~repro.telemetry.sinks.Sink`) to the event fan-out and exposes it
as ``telemetry.recorder``. The pipeline, the scheduler iteration loops and
the batch/fleet reducers read it there; each GPU scheduler hands it to the
:class:`~repro.parallel.rng.AntRngStreams` it builds, whose draw primitives
observe every consumed value. A component built with an unrecorded
telemetry records nothing, and with no recorder every hook is a single
``None`` check, so recording off keeps runs bit-identical.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
from typing import Dict, List, Optional, Tuple

from ..errors import TelemetryError
from ..telemetry.schema import read_trace_lenient
from ..telemetry.sinks import Sink, _json_safe
from .context import current_trace

#: Version stamp of the bundle directory layout.
BUNDLE_SCHEMA = 1

#: Parts a complete bundle may carry, in canonical order.
BUNDLE_PARTS = (
    "events.jsonl",
    "metrics.json",
    "spans.json",
    "schedules.json",
    "rng.jsonl",
)

#: RNG draw capture levels (see the module docstring).
DRAW_LEVELS = ("off", "digest", "full")

#: Length of the truncated chained draw digest (hex chars).
DRAW_DIGEST_LEN = 16


def _chain_digest(digest_hex: str, value: float) -> str:
    """Advance a chained draw digest by one IEEE-754 double."""
    h = hashlib.sha256()
    h.update(digest_hex.encode("ascii"))
    h.update(struct.pack("<d", value))
    return h.hexdigest()[:DRAW_DIGEST_LEN]


class _DrawLane:
    """One ant's draw accumulator within one iteration."""

    __slots__ = ("count", "digest", "values")

    def __init__(self, keep_values: bool):
        self.count = 0
        self.digest = ""
        self.values: Optional[List[float]] = [] if keep_values else None

    def observe(self, value: float) -> None:
        self.count += 1
        self.digest = _chain_digest(self.digest, value)
        if self.values is not None:
            self.values.append(value)

    def payload(self) -> Dict[str, object]:
        out: Dict[str, object] = {"n": self.count, "d": self.digest}
        if self.values is not None:
            out["v"] = list(self.values)
        return out


class RunRecorder(Sink):
    """Accumulates one run's bundle parts in memory, then saves them.

    The recorder is passive: build the run's telemetry with
    ``Telemetry(recorder=recorder)`` (which tees the events into it and
    carries it to every component built with that telemetry), run the
    workload, then call :meth:`save`.
    """

    def __init__(self, draws: str = "digest"):
        if draws not in DRAW_LEVELS:
            raise TelemetryError(
                "unknown draw level %r (expected one of %s)"
                % (draws, ", ".join(DRAW_LEVELS))
            )
        self.draws = draws
        self.events: List[Dict] = []
        self.schedules: List[Dict] = []
        self.spans: Optional[Dict] = None
        #: rng.jsonl entries in begin order; each is the serializable dict
        #: minus the per-ant lanes, which live in ``_lanes`` until flushed.
        self._rng_entries: List[Dict] = []
        self._lanes: Optional[Dict[int, _DrawLane]] = None

    def write(self, record: Dict) -> None:
        """Telemetry sink entry: buffer a JSON-safe copy of the record."""
        self.events.append(_json_safe(record))

    # -- iteration / draw hooks ---------------------------------------------

    def begin_iteration(self, region: str, pass_index: int, iteration: int) -> None:
        """Mark an ACO iteration boundary; subsequent draws key under it."""
        self._flush_lanes()
        trace = current_trace()
        self._rng_entries.append(
            {
                "region": region,
                "pass": pass_index,
                "iteration": iteration,
                "trace_id": trace.trace_id if trace is not None else None,
            }
        )
        self._lanes = {}

    def observe_draw(self, ant: int, value: float) -> None:
        """RNG draw callback (the stream primitives call their recorder)."""
        if self.draws == "off":
            return
        if self._lanes is None:
            # Draws outside any marked iteration (e.g. a future warm-up
            # phase) still land in a keyed entry rather than vanishing.
            self.begin_iteration("", -1, -1)
        lanes = self._lanes
        assert lanes is not None
        lane = lanes.get(ant)
        if lane is None:
            lane = lanes[ant] = _DrawLane(self.draws == "full")
        lane.observe(value)

    def _flush_lanes(self) -> None:
        if self._lanes is None:
            return
        entry = self._rng_entries[-1]
        entry["ants"] = {
            str(ant): lane.payload() for ant, lane in sorted(self._lanes.items())
        }
        self._lanes = None

    # -- schedule / span capture --------------------------------------------

    def record_schedule(self, kind: str, **fields: object) -> None:
        """Append one schedule record (``kind`` in search/shipped/batch/shard)."""
        trace = current_trace()
        record = {"kind": kind}
        if trace is not None:
            record.setdefault("trace_id", trace.trace_id)
        record.update(_json_safe(fields))
        self.schedules.append(record)

    def set_spans(self, payload: Optional[Dict]) -> None:
        """Attach a serialized span tree (see :func:`span_tree_payload`)."""
        self.spans = payload

    # -- persistence --------------------------------------------------------

    def save(self, path: str) -> str:
        """Write the bundle directory; returns ``path``."""
        self._flush_lanes()
        os.makedirs(path, exist_ok=True)
        parts: List[str] = []

        with open(os.path.join(path, "events.jsonl"), "w") as handle:
            for record in self.events:
                handle.write(json.dumps(record, sort_keys=True))
                handle.write("\n")
        parts.append("events.jsonl")

        # The metrics part is *derived* from the recorded events at save
        # time, so an offline replay of events.jsonl reproduces it exactly
        # (the PR 6 live-vs-replay identity, restated as a file).
        from .aggregate import MetricsAggregator

        aggregator = MetricsAggregator()
        aggregator.consume_many(self.events)
        with open(os.path.join(path, "metrics.json"), "w") as handle:
            handle.write(aggregator.snapshot_json())
        parts.append("metrics.json")

        if self.spans is not None:
            _write_json(os.path.join(path, "spans.json"), self.spans)
            parts.append("spans.json")

        _write_json(os.path.join(path, "schedules.json"), self.schedules)
        parts.append("schedules.json")

        if self.draws != "off":
            with open(os.path.join(path, "rng.jsonl"), "w") as handle:
                for entry in self._rng_entries:
                    handle.write(json.dumps(entry, sort_keys=True))
                    handle.write("\n")
            parts.append("rng.jsonl")

        manifest = {
            "bundle_schema": BUNDLE_SCHEMA,
            "draws": self.draws,
            "parts": parts,
            "events": len(self.events),
            "schedules": len(self.schedules),
            "rng_entries": len(self._rng_entries) if self.draws != "off" else 0,
        }
        _write_json(os.path.join(path, "manifest.json"), manifest)
        return path


def _write_json(path: str, payload: object) -> None:
    with open(path, "w") as handle:
        handle.write(json.dumps(payload, sort_keys=True, indent=2))
        handle.write("\n")


def span_tree_payload(root) -> Dict:
    """Serialize a profiler span tree into a bundle-stable nested dict.

    Children are emitted in insertion order (which is deterministic: spans
    are created by the run itself), keyed into a list so the JSON is stable
    without relying on dict-key stringification of tuple keys.
    """
    node = {
        "name": root.name,
        "category": root.category,
        "self_seconds": root.self_seconds,
        "count": root.count,
    }
    if root.trace_id is not None:
        node["trace_id"] = root.trace_id
    children = [span_tree_payload(child) for child in root.children.values()]
    if children:
        node["children"] = children
    return node


# -- loading ---------------------------------------------------------------


class RunBundle:
    """A loaded bundle plus any leniency warnings collected while reading."""

    def __init__(self, path: str):
        self.path = path
        self.manifest: Dict = {}
        self.events: List[Dict] = []
        self.metrics: Optional[Dict] = None
        self.spans: Optional[Dict] = None
        self.schedules: List[Dict] = []
        self.rng: List[Dict] = []
        self.warnings: List[str] = []

    @property
    def parts(self) -> List[str]:
        return list(self.manifest.get("parts", []))


def load_bundle(path: str) -> RunBundle:
    """Load a bundle directory leniently.

    Missing or truncated parts do not raise: each degrades to an empty
    part plus a warning, mirroring ``read_trace_lenient`` — a bundle cut
    short by a crash should still diff as far as it goes, with the differ
    surfacing the warnings as a partial-diff notice.
    """
    bundle = RunBundle(path)
    if not os.path.isdir(path):
        raise TelemetryError("run bundle %r is not a directory" % path)

    manifest_path = os.path.join(path, "manifest.json")
    manifest = _read_json(manifest_path, bundle.warnings)
    if isinstance(manifest, dict):
        bundle.manifest = manifest
        if manifest.get("bundle_schema") != BUNDLE_SCHEMA:
            bundle.warnings.append(
                "manifest.json: bundle_schema %r != supported %d"
                % (manifest.get("bundle_schema"), BUNDLE_SCHEMA)
            )
    else:
        bundle.warnings.append("manifest.json: missing or unreadable")

    events_path = os.path.join(path, "events.jsonl")
    if os.path.exists(events_path):
        bundle.events, skipped = read_trace_lenient(events_path)
        if skipped:
            bundle.warnings.append(
                "events.jsonl: skipped %d malformed line(s) (truncated run?)"
                % skipped
            )
    else:
        bundle.warnings.append("events.jsonl: missing")

    metrics = _read_json(os.path.join(path, "metrics.json"), bundle.warnings)
    bundle.metrics = metrics if isinstance(metrics, dict) else None

    if "spans.json" in bundle.parts or os.path.exists(os.path.join(path, "spans.json")):
        spans = _read_json(os.path.join(path, "spans.json"), bundle.warnings)
        bundle.spans = spans if isinstance(spans, dict) else None

    schedules = _read_json(os.path.join(path, "schedules.json"), bundle.warnings)
    bundle.schedules = schedules if isinstance(schedules, list) else []

    rng_path = os.path.join(path, "rng.jsonl")
    declared_rng = bundle.manifest.get("draws", "digest") != "off"
    if os.path.exists(rng_path):
        bundle.rng, skipped = _read_jsonl_lenient(rng_path)
        if skipped:
            bundle.warnings.append(
                "rng.jsonl: skipped %d malformed line(s) (truncated run?)" % skipped
            )
    elif declared_rng and bundle.manifest:
        bundle.warnings.append("rng.jsonl: missing")

    expected = bundle.manifest.get("events")
    if isinstance(expected, int) and expected != len(bundle.events):
        bundle.warnings.append(
            "events.jsonl: manifest declares %d event(s), read %d"
            % (expected, len(bundle.events))
        )
    return bundle


def _read_json(path: str, warnings: List[str]) -> object:
    if not os.path.exists(path):
        warnings.append("%s: missing" % os.path.basename(path))
        return None
    try:
        with open(path) as handle:
            return json.load(handle)
    except (OSError, ValueError) as exc:
        warnings.append("%s: unreadable (%s)" % (os.path.basename(path), exc))
        return None


def _read_jsonl_lenient(path: str) -> Tuple[List[Dict], int]:
    records: List[Dict] = []
    skipped = 0
    with open(path) as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except ValueError:
                skipped += 1
                continue
            if isinstance(record, dict):
                records.append(record)
            else:
                skipped += 1
    return records, skipped
