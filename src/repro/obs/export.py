"""Exporters: OpenMetrics text, JSON snapshots, and Perfetto traces.

Several consumers, one deterministic source (the
:class:`~repro.obs.aggregate.MetricsAggregator` and the raw event
records):

* :func:`to_openmetrics` — Prometheus/OpenMetrics text exposition of the
  aggregated counters, gauges, histograms, quantiles and the SLO panel.
  :func:`lint_openmetrics` validates the format offline (the CI smoke job
  runs it — no external dependency needed).
* :meth:`~repro.obs.aggregate.MetricsAggregator.snapshot_json` — the
  byte-stable JSON snapshot the golden diff gates.
* :func:`render_metrics` — an aligned text table of the same counters,
  gauges and histogram quantiles (the CLI's ``--metrics``).
* :func:`render_resilience` — the CLI's one-line ``[resilience]``
  summary, read from the ``resilience.*`` and ``regions.decision.*``
  counters.
* :func:`to_perfetto` — a Chrome trace-event JSON (open in Perfetto or
  ``chrome://tracing``) laying each trace's region out on a simulated
  timeline: passes as duration slices, faults as slices of the seconds
  they burned, retries/degrades/deadlines as instants. Timestamps are
  cost-model microseconds; there is no wall clock to leak.

Offline, ``python -m repro.obs TRACE.jsonl --openmetrics M.txt
--snapshot S.json --perfetto P.json`` writes all three from a recorded
trace, and ``python -m repro.obs --lint M.txt`` lints a metrics file.
"""

from __future__ import annotations

import json
import re
from typing import Dict, Iterable, List, Optional, Tuple

from .aggregate import REPORTED_QUANTILES, MetricsAggregator

#: Prefix of every exported metric family.
METRIC_PREFIX = "repro"

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?P<labels>\{[^{}]*\})?"
    r" (?P<value>\S+)$"
)


def _sanitize(name: str) -> str:
    out = re.sub(r"[^a-zA-Z0-9_:]", "_", name)
    return "%s_%s" % (METRIC_PREFIX, out)


def _fmt(value: float) -> str:
    value = float(value)
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def _escape_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _labels(pairs: Iterable[Tuple[str, str]]) -> str:
    inner = ",".join(
        '%s="%s"' % (key, _escape_label(str(val))) for key, val in pairs
    )
    return "{%s}" % inner if inner else ""


#: Counters folded into labeled families instead of flat names.
_KERNEL_SECONDS = re.compile(r"^kernel\.seconds\.pass(?P<p>\d+)\.(?P<backend>.+)$")
_FAULT_CLASS = re.compile(r"^resilience\.faults\.(?P<cls>(?!total$).+)$")
_DECISION = re.compile(r"^regions\.decision\.(?P<decision>.+)$")


def to_openmetrics(aggregator: MetricsAggregator) -> str:
    """Render the aggregator as OpenMetrics text (ends with ``# EOF``)."""
    lines: List[str] = []

    kernel_seconds: List[Tuple[str, str, float]] = []
    fault_classes: List[Tuple[str, float]] = []
    decisions: List[Tuple[str, float]] = []
    plain_counters: List[Tuple[str, float]] = []
    for name in sorted(aggregator.counters):
        value = aggregator.counters[name]
        m = _KERNEL_SECONDS.match(name)
        if m:
            kernel_seconds.append((m.group("p"), m.group("backend"), value))
            continue
        m = _FAULT_CLASS.match(name)
        if m:
            fault_classes.append((m.group("cls"), value))
            continue
        m = _DECISION.match(name)
        if m:
            decisions.append((m.group("decision"), value))
            continue
        plain_counters.append((name, value))

    def counter_family(family: str, help_text: str,
                       samples: List[Tuple[str, float]]) -> None:
        lines.append("# HELP %s %s" % (family, help_text))
        lines.append("# TYPE %s counter" % family)
        for labels, value in samples:
            lines.append("%s_total%s %s" % (family, labels, _fmt(value)))

    if kernel_seconds:
        counter_family(
            _sanitize("kernel.seconds"),
            "Simulated kernel seconds by ACO pass and construction backend.",
            [
                (_labels((("backend", b), ("pass_index", p))), v)
                for p, b, v in kernel_seconds
            ],
        )
    if fault_classes:
        counter_family(
            _sanitize("faults"),
            "Injected faults recovered or reported, by class.",
            [(_labels((("fault_class", c),)), v) for c, v in fault_classes],
        )
    if decisions:
        counter_family(
            _sanitize("regions.decision"),
            "Pipeline filter decisions per region.",
            [(_labels((("decision", d),)), v) for d, v in decisions],
        )
    for name, value in plain_counters:
        counter_family(_sanitize(name), "Aggregated counter %s." % name, [("", value)])

    def gauge(family: str, help_text: str, value: float) -> None:
        lines.append("# HELP %s %s" % (family, help_text))
        lines.append("# TYPE %s gauge" % family)
        lines.append("%s %s" % (family, _fmt(value)))

    for name in sorted(aggregator.gauges):
        gauge(_sanitize(name), "Aggregated gauge %s." % name, aggregator.gauges[name])

    for name in sorted(aggregator.histograms):
        hist = aggregator.histograms[name]
        family = _sanitize(name)
        lines.append("# HELP %s Aggregated distribution %s." % (family, name))
        lines.append("# TYPE %s histogram" % family)
        cumulative = hist.zeros
        for bound, count in hist.nonzero_buckets():
            cumulative += count
            lines.append(
                '%s_bucket{le="%s"} %d' % (family, repr(bound), cumulative)
            )
        lines.append('%s_bucket{le="+Inf"} %d' % (family, hist.count))
        lines.append("%s_sum %s" % (family, _fmt(hist.sum)))
        lines.append("%s_count %d" % (family, hist.count))
        for label, q in REPORTED_QUANTILES:
            gauge(
                "%s_%s" % (family, label),
                "Estimated %s of %s (relative error <= 9.1%%)." % (label, name),
                hist.quantile(q),
            )

    throughput = aggregator.throughput()
    gauge(
        _sanitize("throughput.regions_per_simulated_second"),
        "Regions scheduled per simulated second of scheduling time.",
        throughput["regions_per_simulated_second"],
    )

    slo = aggregator.slo_report()
    gauge(_sanitize("slo.target"), "Deadline-SLO target fraction.", slo.target)
    gauge(_sanitize("slo.compliance"), "Fraction of regions meeting the SLO.",
          slo.compliance)
    gauge(_sanitize("slo.budget_consumed"),
          "Fraction of the SLO error budget consumed.", slo.budget_consumed)
    gauge(_sanitize("slo.burn_rate"),
          "Error-budget burn rate (observed over allowed violation rate).",
          slo.burn_rate)

    lines.append("# EOF")
    return "\n".join(lines) + "\n"


def render_metrics(aggregator: MetricsAggregator) -> str:
    """An aligned text table of the aggregated metrics (the CLI's ``--metrics``).

    One line per counter and gauge, and per histogram its count, sum and
    reported quantiles, sorted by metric name.
    """
    rows = [
        (name, "counter", "%.6g" % value)
        for name, value in aggregator.counters.items()
    ]
    rows += [
        (name, "gauge", "%.6g" % value) for name, value in aggregator.gauges.items()
    ]
    for name, hist in aggregator.histograms.items():
        quantiles = " ".join(
            "%s=%.6g" % (label, hist.quantile(q)) for label, q in REPORTED_QUANTILES
        )
        rows.append(
            (name, "histogram", "count=%d sum=%.6g %s" % (hist.count, hist.sum, quantiles))
        )
    if not rows:
        return "(no metrics collected)\n"
    width = max(len(name) for name, _kind, _value in rows)
    return "".join(
        "%s  %-9s  %s\n" % (name.ljust(width), kind, value)
        for name, kind, value in sorted(rows)
    )


def render_resilience(aggregator: MetricsAggregator) -> Optional[str]:
    """The CLI's one-line resilience summary; None when nothing happened.

    Reports faults per class, retries (and checkpoint resumes), degrade
    steps, deadline trips, regions shipped heuristic-only and up to five
    unrecoverable region names.
    """
    counters = aggregator.counters

    def count(name: str) -> int:
        return int(counters.get(name, 0))

    prefix = "resilience.faults."
    faults = {
        name[len(prefix):]: int(value)
        for name, value in counters.items()
        if name.startswith(prefix) and name != prefix + "total"
    }
    retries = count("resilience.retries")
    degrades = count("resilience.degrades")
    trips = count("resilience.deadline_trips")
    degraded = count("regions.decision.degraded")
    unrecoverable = count("regions.decision.unrecoverable")
    parts = []
    if faults:
        per_class = ", ".join("%s=%d" % item for item in sorted(faults.items()))
        parts.append("%d fault(s) [%s]" % (sum(faults.values()), per_class))
    if retries:
        parts.append("%d retr%s (%d resumed)" % (
            retries, "y" if retries == 1 else "ies",
            count("resilience.checkpoint_resumes"),
        ))
    if degrades:
        parts.append("%d degrade step(s)" % degrades)
    if trips:
        parts.append("%d deadline trip(s)" % trips)
    if degraded:
        parts.append("%d region(s) shipped heuristic-only" % degraded)
    if unrecoverable:
        parts.append("%d region(s) UNRECOVERABLE (%s)" % (
            unrecoverable, ", ".join(aggregator.unrecoverable_regions[:5]),
        ))
    return "; ".join(parts) if parts else None


# -- format linting ------------------------------------------------------------


def _parse_value(text: str) -> Optional[float]:
    if text in ("+Inf", "-Inf", "NaN"):
        return float(text.replace("Inf", "inf").replace("NaN", "nan"))
    try:
        return float(text)
    except ValueError:
        return None


def lint_openmetrics(text: str) -> List[str]:
    """Validate OpenMetrics text; returns a list of error strings (empty = ok).

    Covers the rules the exposition format cares about: declared types,
    name syntax, parsable values, counter ``_total`` suffixes, histogram
    bucket monotonicity with a ``+Inf`` bucket matching ``_count``, no
    duplicate samples, and the ``# EOF`` terminator.
    """
    errors: List[str] = []
    types: Dict[str, str] = {}
    seen: set = set()
    hist_buckets: Dict[str, List[Tuple[float, float]]] = {}
    hist_counts: Dict[str, float] = {}
    eof_seen = False

    for lineno, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        if eof_seen:
            errors.append("line %d: content after # EOF" % lineno)
            break
        if line.startswith("#"):
            parts = line.split(None, 3)
            if len(parts) >= 2 and parts[1] == "EOF":
                eof_seen = True
            elif len(parts) >= 4 and parts[1] == "TYPE":
                name, kind = parts[2], parts[3]
                if not _NAME_RE.match(name):
                    errors.append("line %d: bad family name %r" % (lineno, name))
                if kind not in ("counter", "gauge", "histogram", "summary",
                                "untyped", "info", "stateset"):
                    errors.append("line %d: bad metric type %r" % (lineno, kind))
                if name in types:
                    errors.append("line %d: duplicate TYPE for %r" % (lineno, name))
                types[name] = kind
            elif len(parts) >= 2 and parts[1] in ("HELP", "UNIT"):
                pass
            else:
                errors.append("line %d: malformed comment %r" % (lineno, line))
            continue
        m = _SAMPLE_RE.match(line)
        if not m:
            errors.append("line %d: malformed sample %r" % (lineno, line))
            continue
        name, labels, raw = m.group("name"), m.group("labels") or "", m.group("value")
        value = _parse_value(raw)
        if value is None:
            errors.append("line %d: unparsable value %r" % (lineno, raw))
            continue
        sample_key = (name, labels)
        if sample_key in seen:
            errors.append("line %d: duplicate sample %s%s" % (lineno, name, labels))
        seen.add(sample_key)

        family = name
        for suffix in ("_total", "_bucket", "_sum", "_count"):
            if name.endswith(suffix) and name[: -len(suffix)] in types:
                family = name[: -len(suffix)]
                break
        kind = types.get(family)
        if kind is None:
            errors.append("line %d: sample %r has no preceding TYPE" % (lineno, name))
            continue
        if kind == "counter" and not name.endswith("_total"):
            errors.append(
                "line %d: counter sample %r must end with _total" % (lineno, name)
            )
        if kind == "counter" and value < 0:
            errors.append("line %d: negative counter %r" % (lineno, name))
        if kind == "histogram" and name.endswith("_bucket"):
            le = re.search(r'le="([^"]*)"', labels)
            if le is None:
                errors.append("line %d: bucket without le label" % lineno)
            else:
                bound = _parse_value(le.group(1))
                if bound is None:
                    errors.append(
                        "line %d: unparsable le %r" % (lineno, le.group(1))
                    )
                else:
                    hist_buckets.setdefault(family, []).append((bound, value))
        if kind == "histogram" and name.endswith("_count"):
            hist_counts[family] = value

    if not eof_seen:
        errors.append("missing # EOF terminator")

    for family, buckets in hist_buckets.items():
        bounds = [b for b, _ in buckets]
        counts = [c for _, c in buckets]
        if bounds != sorted(bounds):
            errors.append("histogram %r: le bounds not sorted" % family)
        if counts != sorted(counts):
            errors.append("histogram %r: bucket counts not cumulative" % family)
        if not bounds or bounds[-1] != float("inf"):
            errors.append("histogram %r: missing +Inf bucket" % family)
        elif family in hist_counts and counts[-1] != hist_counts[family]:
            errors.append(
                "histogram %r: +Inf bucket (%s) != _count (%s)"
                % (family, counts[-1], hist_counts[family])
            )
    return errors


# -- Perfetto / Chrome trace-event export --------------------------------------


def _region_groups(records: Iterable[Dict]) -> List[Tuple[object, List[Dict]]]:
    """Group records per region journey (trace id, else region name)."""
    groups: Dict[object, List[Dict]] = {}
    order: List[object] = []
    for record in records:
        key = record.get("trace_id") or record.get("region")
        if key is None:
            continue
        if key not in groups:
            groups[key] = []
            order.append(key)
        groups[key].append(record)
    return [(key, groups[key]) for key in order]


def _us(seconds: float) -> float:
    return round(seconds * 1e6, 3)


def to_perfetto(records: Iterable[Dict]) -> Dict[str, object]:
    """Chrome trace-event JSON from schema-v1 records (simulated time).

    Regions are laid out sequentially on the simulated timeline (the
    reproduction schedules them one after another); each region journey
    gets its own thread row, so retries, faults, downgrades and passes of
    one trace line up on one track in Perfetto or ``chrome://tracing``.
    """
    events: List[Dict[str, object]] = []
    offset = 0.0
    for tid, (key, group) in enumerate(_region_groups(records), start=1):
        region_name = next(
            (r["region"] for r in group if "region" in r), str(key)
        )
        cursor = offset
        region_args: Dict[str, object] = {"trace_id": str(key)}
        for record in group:
            event = record.get("event")
            args = {
                k: record[k]
                for k in ("trace_id", "span_id", "parent_id", "attempt", "seed")
                if k in record
            }
            if event == "pass_end" and record.get("invoked"):
                events.append({
                    "name": "pass%d" % record["pass_index"],
                    "cat": "pass",
                    "ph": "X",
                    "ts": _us(cursor),
                    "dur": _us(record["seconds"]),
                    "pid": 1,
                    "tid": tid,
                    "args": dict(args, iterations=record["iterations"],
                                 final_cost=record["final_cost"]),
                })
                cursor += record["seconds"]
            elif event == "fault":
                events.append({
                    "name": "fault:%s" % record["fault_class"],
                    "cat": "resilience",
                    "ph": "X",
                    "ts": _us(cursor),
                    "dur": _us(record["seconds"]),
                    "pid": 1,
                    "tid": tid,
                    "args": args,
                })
                cursor += record["seconds"]
            elif event == "retry":
                events.append({
                    "name": "retry (resume)" if record.get("resumed") else "retry",
                    "cat": "resilience",
                    "ph": "i",
                    "s": "t",
                    "ts": _us(cursor),
                    "pid": 1,
                    "tid": tid,
                    "args": args,
                })
            elif event == "degrade":
                events.append({
                    "name": "degrade %s->%s"
                            % (record["from_rung"], record["to_rung"]),
                    "cat": "resilience",
                    "ph": "i",
                    "s": "t",
                    "ts": _us(cursor),
                    "pid": 1,
                    "tid": tid,
                    "args": args,
                })
            elif event == "deadline":
                events.append({
                    "name": "deadline",
                    "cat": "resilience",
                    "ph": "i",
                    "s": "t",
                    "ts": _us(cursor),
                    "pid": 1,
                    "tid": tid,
                    "args": dict(args, spent_seconds=record["spent_seconds"]),
                })
            elif event == "region_end":
                region_args.update(
                    decision=record["decision"],
                    final_occupancy=record["final_occupancy"],
                    scheduling_seconds=record["scheduling_seconds"],
                )
        duration = max(
            cursor - offset,
            next(
                (r["scheduling_seconds"] for r in group
                 if r.get("event") == "region_end"),
                0.0,
            ),
        )
        events.append({
            "name": region_name,
            "cat": "region",
            "ph": "X",
            "ts": _us(offset),
            "dur": _us(duration),
            "pid": 1,
            "tid": tid,
            "args": region_args,
        })
        events.append({
            "name": "thread_name",
            "ph": "M",
            "pid": 1,
            "tid": tid,
            "args": {"name": "%s [%s]" % (region_name, key)},
        })
        offset += duration
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_perfetto(path: str, records: Iterable[Dict]) -> int:
    """Write the Perfetto export; returns the number of trace events."""
    trace = to_perfetto(records)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(trace, handle, sort_keys=True, indent=1)
        handle.write("\n")
    return len(trace["traceEvents"])  # type: ignore[arg-type]
