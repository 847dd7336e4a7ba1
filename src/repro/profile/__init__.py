"""The span profiler: where a run's simulated time went.

One of the three observability packages (see the "Observability" section
of DESIGN.md): :mod:`repro.telemetry` is the event stream (*what
happened*), :mod:`repro.obs` holds every view of it (summaries, the
per-pass kernel rollup, metrics, dashboard, exports), and this package
records *where the simulated time went*. Two pieces:

* :mod:`repro.profile.spans` — the hierarchical span profiler
  (context-manager + decorator API, merge-by-name tree, inert default);
* :mod:`repro.profile.report` — terminal tree rendering, collapsed-stack
  (flamegraph/speedscope) export, leaf-attribution accounting.

Enable from the CLI with ``repro <experiment> --profile`` (tree report)
and ``--profile-stacks PATH`` (collapsed stacks); programmatically::

    from repro.profile import SpanProfiler, profile_session, render_tree

    with profile_session(SpanProfiler()) as prof:
        CompilePipeline(machine, scheduler=...).compile_suite(suite)
    print(render_tree(prof))

Seeded results are bit-identical with profiling on or off: spans only
accumulate seconds the deterministic cost models already computed.
"""

from .report import (
    Attribution,
    attribution,
    collapsed_stacks,
    render_tree,
    top_leaves,
    write_collapsed,
)
from .spans import (
    NullProfiler,
    Span,
    SpanProfiler,
    get_profiler,
    profile_session,
    profiled,
    set_profiler,
)

__all__ = [
    "Span",
    "SpanProfiler",
    "NullProfiler",
    "get_profiler",
    "set_profiler",
    "profile_session",
    "profiled",
    "Attribution",
    "attribution",
    "render_tree",
    "collapsed_stacks",
    "write_collapsed",
    "top_leaves",
]
