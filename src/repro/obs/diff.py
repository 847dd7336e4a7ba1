"""Run-bundle differ: bisect two recorded runs to their first divergence.

``python -m repro.obs.diff A B`` compares two :mod:`repro.obs.record`
bundles through a granularity ladder — cheapest and coarsest first::

    summary-metrics   did any aggregate move at all?
    span-tree         which phase of the run forked?
    schedules         did a shipped/search schedule change?
    shards            which fleet slot/worker/dispatch first differed?
    kernel-launches   which launch first cost differently?
    iterations        which ACO iteration first decided differently?
    rng-draws         which ant's which draw first differed?

(The ``shards`` level only carries signal for bundles recorded under the
fleet supervisor — single-device runs record no shard entries and the
level reports identical-by-vacuity.)

Every event-stream level is *bisected*: cumulative prefix digests over the
canonical (sorted-keys JSON) records make prefix equality a monotone
predicate, so a binary search lands on the first divergent index without
comparing every record pair. The report names the divergence precisely —
trace id, region, pass, iteration, ant lane, and (for ``full``-level
bundles) the first differing draw index with both values.

Exit codes: 0 bundles identical, 1 divergence found, 2 usage/load error.
Output is human-readable by default; ``--json`` additionally writes the
machine-readable report (CI uploads it as the first-divergence artifact).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import TelemetryError
from .record import RunBundle, load_bundle

#: Version stamp of the diff report payload.
DIFF_SCHEMA = 1

#: Ladder order — coarse to fine. ``first_divergence`` reports the *finest*
#: divergent level, which is the actionable localization.
LEVELS = (
    "summary-metrics",
    "span-tree",
    "schedules",
    "shards",
    "kernel-launches",
    "iterations",
    "rng-draws",
)


def _canon(record: object) -> bytes:
    return json.dumps(record, sort_keys=True).encode("utf-8")


def first_divergent_index(
    a_items: Sequence[object], b_items: Sequence[object]
) -> Optional[int]:
    """Index of the first item where the two sequences diverge.

    Returns None when one sequence is a prefix of the other *and* both have
    equal length (i.e. the sequences are identical). A strict prefix
    diverges at ``min(len(a), len(b))`` — the index where one run stopped.

    Prefix equality is monotone (prefixes i < j equal whenever prefix j is
    equal), so after computing cumulative digests once per side, a binary
    search finds the first mismatch in O(log n) digest comparisons.
    """

    def prefix_digests(items: Sequence[object]) -> List[bytes]:
        h = hashlib.sha256()
        out: List[bytes] = []
        for item in items:
            h.update(_canon(item))
            out.append(h.copy().digest())
        return out

    da = prefix_digests(a_items)
    db = prefix_digests(b_items)
    n = min(len(da), len(db))
    if n == 0 or da[n - 1] == db[n - 1]:
        return None if len(da) == len(db) else n
    lo, hi = 0, n - 1  # invariant: prefix at hi differs; prefix before lo equal
    while lo < hi:
        mid = (lo + hi) // 2
        if da[mid] == db[mid]:
            lo = mid + 1
        else:
            hi = mid
    return lo


def _level(name: str, status: str, detail: Optional[Dict] = None) -> Dict:
    out: Dict[str, object] = {"level": name, "status": status}
    if detail is not None:
        out["detail"] = detail
    return out


def _changed_fields(a: Optional[Dict], b: Optional[Dict]) -> List[str]:
    if not isinstance(a, dict) or not isinstance(b, dict):
        return []
    keys = sorted(set(a) | set(b))
    return [k for k in keys if a.get(k) != b.get(k)]


def _event_context(event: Optional[Dict]) -> Dict:
    """The localization fields a divergent event carries."""
    out: Dict[str, object] = {}
    if not isinstance(event, dict):
        return out
    for key in ("seq", "event", "trace_id", "span_id", "region",
                "pass_index", "iteration", "backend",
                "worker", "slot", "dispatch"):
        if key in event:
            out[key] = event[key]
    return out


def _diff_event_level(
    name: str, a_events: List[Dict], b_events: List[Dict]
) -> Dict:
    index = first_divergent_index(a_events, b_events)
    if index is None:
        return _level(name, "identical")
    event_a = a_events[index] if index < len(a_events) else None
    event_b = b_events[index] if index < len(b_events) else None
    detail: Dict[str, object] = {
        "index": index,
        "a": event_a,
        "b": event_b,
        "fields_changed": _changed_fields(event_a, event_b),
        "context": _event_context(event_a if event_a is not None else event_b),
    }
    if event_a is None or event_b is None:
        detail["note"] = "one run ended here (strict prefix)"
    return _level(name, "divergent", detail)


def _flatten(payload: object, prefix: str = "") -> Dict[str, object]:
    if isinstance(payload, dict):
        out: Dict[str, object] = {}
        for key in sorted(payload):
            child = prefix + "." + str(key) if prefix else str(key)
            out.update(_flatten(payload[key], child))
        return out
    return {prefix: payload}


def _diff_metrics(a: Optional[Dict], b: Optional[Dict]) -> Dict:
    if a is None or b is None:
        return _level("summary-metrics", "skipped",
                      {"note": "metrics part missing from at least one bundle"})
    fa, fb = _flatten(a), _flatten(b)
    changed = [k for k in sorted(set(fa) | set(fb)) if fa.get(k) != fb.get(k)]
    if not changed:
        return _level("summary-metrics", "identical")
    first = changed[0]
    return _level(
        "summary-metrics",
        "divergent",
        {
            "changed_keys": len(changed),
            "first_key": first,
            "a": fa.get(first),
            "b": fb.get(first),
            "sample_keys": changed[:8],
        },
    )


def _diff_spans(a: Optional[Dict], b: Optional[Dict]) -> Dict:
    if a is None and b is None:
        return _level("span-tree", "skipped", {"note": "no span part recorded"})
    if a is None or b is None:
        return _level(
            "span-tree",
            "divergent",
            {"note": "span part present in only one bundle",
             "path": [], "fields_changed": []},
        )

    def walk(na: Dict, nb: Dict, path: Tuple[str, ...]) -> Optional[Dict]:
        fields = [k for k in ("name", "category", "self_seconds", "count",
                              "trace_id") if na.get(k) != nb.get(k)]
        if fields:
            return {
                "path": list(path) + [str(na.get("name"))],
                "fields_changed": fields,
                "a": {k: na.get(k) for k in fields},
                "b": {k: nb.get(k) for k in fields},
            }
        ca = na.get("children") or []
        cb = nb.get("children") or []
        for child_a, child_b in zip(ca, cb):
            found = walk(child_a, child_b, path + (str(na.get("name")),))
            if found is not None:
                return found
        if len(ca) != len(cb):
            extra = (ca if len(ca) > len(cb) else cb)[min(len(ca), len(cb))]
            return {
                "path": list(path) + [str(na.get("name"))],
                "fields_changed": ["children"],
                "note": "child %r present in only one tree"
                % extra.get("name"),
            }
        return None

    found = walk(a, b, ())
    if found is None:
        return _level("span-tree", "identical")
    return _level("span-tree", "divergent", found)


def _rng_key(entry: Dict) -> Dict:
    return {
        "region": entry.get("region"),
        "pass": entry.get("pass"),
        "iteration": entry.get("iteration"),
        "trace_id": entry.get("trace_id"),
    }


def _diff_rng(a_entries: List[Dict], b_entries: List[Dict],
              available: bool) -> Dict:
    if not available:
        return _level("rng-draws", "skipped",
                      {"note": "rng part missing from at least one bundle"})
    index = first_divergent_index(a_entries, b_entries)
    if index is None:
        return _level("rng-draws", "identical")
    entry_a = a_entries[index] if index < len(a_entries) else {}
    entry_b = b_entries[index] if index < len(b_entries) else {}
    detail: Dict[str, object] = {"entry_index": index}
    detail.update(_rng_key(entry_a or entry_b))
    if _rng_key(entry_a) != _rng_key(entry_b):
        detail["note"] = "iteration keys diverged (different control flow)"
        detail["a_key"] = _rng_key(entry_a)
        detail["b_key"] = _rng_key(entry_b)
        return _level("rng-draws", "divergent", detail)

    ants_a = entry_a.get("ants") or {}
    ants_b = entry_b.get("ants") or {}
    for ant in sorted(set(ants_a) | set(ants_b), key=int):
        lane_a = ants_a.get(ant)
        lane_b = ants_b.get(ant)
        if lane_a == lane_b:
            continue
        detail["ant"] = int(ant)
        detail["a_draws"] = None if lane_a is None else lane_a.get("n")
        detail["b_draws"] = None if lane_b is None else lane_b.get("n")
        values_a = (lane_a or {}).get("v")
        values_b = (lane_b or {}).get("v")
        if values_a is not None and values_b is not None:
            for k in range(max(len(values_a), len(values_b))):
                va = values_a[k] if k < len(values_a) else None
                vb = values_b[k] if k < len(values_b) else None
                if va != vb:
                    detail["draw_index"] = k
                    detail["a_value"] = va
                    detail["b_value"] = vb
                    break
        else:
            detail["note"] = (
                "digest-level bundle: divergence localized to the ant lane; "
                "record with --record-draws full for the exact draw index"
            )
        break
    return _level("rng-draws", "divergent", detail)


def _bytes_identical(a: RunBundle, b: RunBundle) -> bool:
    names = sorted(
        set(a.parts) | set(b.parts) | {"manifest.json"}
    )
    for name in names:
        pa = os.path.join(a.path, name)
        pb = os.path.join(b.path, name)
        if os.path.exists(pa) != os.path.exists(pb):
            return False
        if not os.path.exists(pa):
            continue
        with open(pa, "rb") as ha, open(pb, "rb") as hb:
            if ha.read() != hb.read():
                return False
    return True


def diff_loaded(a: RunBundle, b: RunBundle) -> Dict:
    """Diff two loaded bundles; returns the report payload."""
    rng_available = (
        a.manifest.get("draws", "digest") != "off"
        and b.manifest.get("draws", "digest") != "off"
        and (bool(a.rng) or bool(b.rng)
             or (not a.warnings and not b.warnings))
    )
    levels = [
        _diff_metrics(a.metrics, b.metrics),
        _diff_spans(a.spans, b.spans),
        _diff_event_level(
            "schedules",
            [s for s in a.schedules if s.get("kind") != "shard"],
            [s for s in b.schedules if s.get("kind") != "shard"],
        ),
        _diff_event_level(
            "shards",
            [s for s in a.schedules if s.get("kind") == "shard"],
            [s for s in b.schedules if s.get("kind") == "shard"],
        ),
        _diff_event_level(
            "kernel-launches",
            [e for e in a.events if e.get("event") == "kernel_launch"],
            [e for e in b.events if e.get("event") == "kernel_launch"],
        ),
        _diff_event_level(
            "iterations",
            [e for e in a.events if e.get("event") == "iteration"],
            [e for e in b.events if e.get("event") == "iteration"],
        ),
        _diff_rng(a.rng, b.rng, rng_available),
    ]

    divergent = [lv for lv in levels if lv["status"] == "divergent"]
    first_divergence: Optional[Dict] = None
    if divergent:
        finest = divergent[-1]  # ladder order == coarse-to-fine
        first_divergence = {"level": finest["level"]}
        first_divergence.update(finest.get("detail") or {})

    event_index = first_divergent_index(a.events, b.events)
    first_event: Optional[Dict] = None
    if event_index is not None:
        ea = a.events[event_index] if event_index < len(a.events) else None
        eb = b.events[event_index] if event_index < len(b.events) else None
        first_event = {
            "index": event_index,
            "context": _event_context(ea if ea is not None else eb),
            "fields_changed": _changed_fields(ea, eb),
        }

    warnings = ["A: " + w for w in a.warnings] + ["B: " + w for w in b.warnings]
    identical = not divergent and first_event is None
    return {
        "diff_schema": DIFF_SCHEMA,
        "bundle_a": a.path,
        "bundle_b": b.path,
        "identical": identical,
        "byte_identical": _bytes_identical(a, b),
        "partial": bool(warnings),
        "warnings": warnings,
        "levels": levels,
        "first_divergence": first_divergence,
        "first_event_divergence": first_event,
    }


def diff_bundles(path_a: str, path_b: str) -> Dict:
    """Load and diff two bundle directories."""
    return diff_loaded(load_bundle(path_a), load_bundle(path_b))


def render_report(report: Dict) -> str:
    """Human-readable rendering of a diff report."""
    lines = [
        "run-bundle diff",
        "  A: %s" % report["bundle_a"],
        "  B: %s" % report["bundle_b"],
    ]
    if report["identical"]:
        verdict = "identical"
        if report["byte_identical"]:
            verdict += " (byte-for-byte)"
        lines.append("  verdict: %s" % verdict)
    else:
        lines.append("  verdict: DIVERGENT")
    if report["partial"]:
        lines.append("  partial diff — bundle warnings:")
        for warning in report["warnings"]:
            lines.append("    ! %s" % warning)
    lines.append("  granularity ladder:")
    for level in report["levels"]:
        lines.append("    %-16s %s" % (level["level"], level["status"]))
    fd = report.get("first_divergence")
    if fd:
        lines.append("  first divergence [%s]:" % fd["level"])
        for key in ("region", "pass", "iteration", "trace_id", "entry_index",
                    "index", "first_key", "path", "ant", "draw_index",
                    "worker", "slot", "dispatch"):
            if fd.get(key) is not None:
                lines.append("    %s: %s" % (key, fd[key]))
        if fd.get("a_value") is not None or fd.get("b_value") is not None:
            lines.append("    a=%r b=%r" % (fd.get("a_value"), fd.get("b_value")))
        elif fd.get("a") is not None or fd.get("b") is not None:
            lines.append("    a=%s" % json.dumps(fd.get("a"), sort_keys=True))
            lines.append("    b=%s" % json.dumps(fd.get("b"), sort_keys=True))
        if fd.get("note"):
            lines.append("    note: %s" % fd["note"])
    fe = report.get("first_event_divergence")
    if fe:
        context = json.dumps(fe.get("context") or {}, sort_keys=True)
        lines.append(
            "  first divergent telemetry event: index %d  %s"
            % (fe["index"], context)
        )
        if fe.get("fields_changed"):
            lines.append("    fields changed: %s" % ", ".join(fe["fields_changed"]))
    return "\n".join(lines) + "\n"


def write_report(report: Dict, path: str) -> None:
    """Write the JSON report (sorted keys, byte-stable)."""
    with open(path, "w") as handle:
        handle.write(json.dumps(report, sort_keys=True, indent=2))
        handle.write("\n")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.diff",
        description="Diff two recorded run bundles down to the first "
        "divergent event.",
    )
    parser.add_argument("bundle_a", help="first run-bundle directory")
    parser.add_argument("bundle_b", help="second run-bundle directory")
    parser.add_argument(
        "--json", metavar="PATH", default=None,
        help="also write the machine-readable report to PATH",
    )
    parser.add_argument(
        "--quiet", action="store_true",
        help="suppress the human-readable report (exit code only)",
    )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        report = diff_bundles(args.bundle_a, args.bundle_b)
    except TelemetryError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    if args.json:
        write_report(report, args.json)
    if not args.quiet:
        sys.stdout.write(render_report(report))
    return 0 if report["identical"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
