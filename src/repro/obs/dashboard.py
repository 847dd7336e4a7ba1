"""The live terminal dashboard: one screen of operational truth.

Renders a :class:`~repro.obs.aggregate.MetricsAggregator` as a compact
ASCII panel: rolling throughput (regions per *simulated* second — the
only clock the reproduction has), latency percentiles, the construction
backend mix, the resilience counters and the deadline-SLO/error-budget
panel with its burn rate.

Two entry points:

* ``repro <experiment> --watch`` — the run renders the panel from the
  aggregator its event stream folds into;
* ``python -m repro.obs TRACE.jsonl --dashboard`` — fold a recorded
  trace and render once; add ``--follow`` to poll the file as a run
  appends to it.
"""

from __future__ import annotations

from typing import List

from .aggregate import MetricsAggregator

_WIDTH = 66
_BAR = 24


def _bar(fraction: float, width: int = _BAR) -> str:
    filled = int(round(max(0.0, min(1.0, fraction)) * width))
    return "#" * filled + "." * (width - filled)


def _us(seconds: float) -> str:
    return "%.1f us" % (seconds * 1e6)


def _rule(title: str) -> str:
    body = "== %s " % title
    return body + "=" * max(0, _WIDTH - len(body))


def render_dashboard(
    aggregator: MetricsAggregator, title: str = "repro.obs dashboard"
) -> str:
    """The full panel as a string (deterministic for a given aggregator)."""
    c = aggregator.counters
    lines: List[str] = [_rule(title)]
    lines.append(
        "events %-10d traces %-8d regions %-8d aco-invoked %d"
        % (
            aggregator.events,
            aggregator.traces,
            int(c.get("regions.total", 0)),
            int(c.get("regions.aco_invoked", 0)),
        )
    )

    throughput = aggregator.throughput()
    lines.append(
        "throughput  %.1f regions/s (simulated; %.1f us scheduling total)"
        % (
            throughput["regions_per_simulated_second"],
            throughput["simulated_seconds"] * 1e6,
        )
    )

    latency = aggregator.histograms.get("region.latency_seconds")
    if latency is not None and latency.count:
        lines.append(_rule("region latency"))
        peak = latency.quantile(0.99) or 1.0
        for label, q in (("p50", 0.50), ("p95", 0.95), ("p99", 0.99)):
            value = latency.quantile(q)
            lines.append(
                "  %s %12s  |%s|" % (label, _us(value), _bar(value / peak))
            )

    backends = {
        name.rsplit(".", 1)[-1]: 0.0
        for name in c if name.startswith("kernel.seconds.")
    }
    for name, value in c.items():
        if name.startswith("kernel.seconds."):
            backends[name.rsplit(".", 1)[-1]] += value
    total_kernel = sum(backends.values())
    if total_kernel > 0:
        lines.append(_rule("backend mix (kernel seconds)"))
        for backend in sorted(backends):
            share = backends[backend] / total_kernel
            lines.append(
                "  %-12s %12s  %5.1f%%  |%s|"
                % (backend, _us(backends[backend]), 100.0 * share, _bar(share))
            )

    lost = {
        name.rsplit(".", 1)[-1]: value
        for name, value in c.items()
        if name.startswith("kernel.lost_seconds.")
    }
    total_lost = sum(lost.values())
    if total_lost > 0:
        lines.append(_rule("fault-lost seconds by backend"))
        for backend in sorted(lost):
            share = lost[backend] / total_lost
            lines.append(
                "  %-12s %12s  %5.1f%%  |%s|"
                % (backend, _us(lost[backend]), 100.0 * share, _bar(share))
            )

    decisions = sorted(
        (name.rsplit(".", 1)[-1], int(value))
        for name, value in c.items()
        if name.startswith("regions.decision.")
    )
    if decisions:
        lines.append(
            "decisions   "
            + "  ".join("%s=%d" % (name, count) for name, count in decisions)
        )

    faults = int(c.get("resilience.faults.total", 0))
    if faults or c.get("resilience.retries") or c.get("resilience.degrades"):
        by_class = sorted(
            (name.split(".")[-1], int(value))
            for name, value in c.items()
            if name.startswith("resilience.faults.")
            and not name.endswith(".total")
        )
        detail = (
            " (%s)" % ", ".join("%s %d" % (k, v) for k, v in by_class)
            if by_class
            else ""
        )
        lines.append(_rule("resilience"))
        lines.append(
            "  faults %d%s  retries %d  resumes %d  degrades %d  "
            "deadline-trips %d"
            % (
                faults,
                detail,
                int(c.get("resilience.retries", 0)),
                int(c.get("resilience.checkpoint_resumes", 0)),
                int(c.get("resilience.degrades", 0)),
                int(c.get("resilience.deadline_trips", 0)),
            )
        )

    if c.get("fleet.batches"):
        lines.append(_rule("fleet"))
        lines.append(
            "  shards %d  dispatches %d  reassignments %d  recovered %d  "
            "restarts %d  stragglers %d"
            % (
                int(aggregator.gauges.get("fleet.shards", 0)),
                int(c.get("fleet.dispatches", 0)),
                int(c.get("fleet.reassignments", 0)),
                int(c.get("fleet.recovered_regions", 0)),
                int(c.get("fleet.restarts", 0)),
                int(c.get("fleet.stragglers", 0)),
            )
        )
        worker_ids = sorted(
            int(name.split(".")[2])
            for name in c
            if name.startswith("fleet.worker.") and name.endswith(".dispatches")
        )
        peak = max(
            (c.get("fleet.worker.%d.dispatches" % w, 0.0) for w in worker_ids),
            default=0.0,
        ) or 1.0
        for worker in worker_ids:
            dispatches = c.get("fleet.worker.%d.dispatches" % worker, 0.0)
            faults = int(c.get("fleet.worker.%d.faults" % worker, 0))
            label = "host" if worker < 0 else "w%d" % worker
            lines.append(
                "  %-6s dispatches %-5d faults %-4d |%s|"
                % (label, int(dispatches), faults, _bar(dispatches / peak))
            )

    slo = aggregator.slo_report()
    lines.append(_rule("SLO: %.1f%% of regions under deadline" % (100 * slo.target)))
    flag = "ok" if slo.healthy else "BREACH"
    lines.append(
        "  compliance %6.2f%%  violations %d/%d  budget burned %5.1f%%  "
        "burn-rate %.2fx  [%s]"
        % (
            100.0 * slo.compliance,
            slo.violations,
            slo.regions,
            100.0 * slo.budget_consumed,
            slo.burn_rate,
            flag,
        )
    )
    lines.append("=" * _WIDTH)
    return "\n".join(lines) + "\n"
