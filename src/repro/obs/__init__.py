"""Campaign observability: metrics, structured events, spans, reporters.

The paper's campaigns burn hundreds of millions of RIPE Atlas credits, and
what a campaign *did* — retries, churned probes, credit spend, per-technique
latency — matters as much as its accuracy numbers. This package is the
instrumentation layer the rest of :mod:`repro` reports through:

* :class:`MetricsRegistry` — counters, gauges, fixed-bucket histograms;
* :class:`EventLog` — append-only typed events (scheduled/executed
  measurements, retries, backoffs, degradations, injected faults, credit
  charges, cache hits/misses) with deterministic ordering and
  simulated-clock timestamps: a seeded run yields a byte-identical stream;
* :class:`SpanTracer` / ``span()`` — nested phase tracing
  (campaign → experiment → technique → round) over simulated time;
* :class:`Observer` — the facade threaded through the platform, clients,
  fault injector, and core algorithms; :data:`NULL_OBSERVER` (the default
  everywhere) is a no-op whose cost is pinned below 5% by
  ``benchmarks/test_bench_obs_overhead.py``;
* :mod:`repro.obs.report` — the per-campaign text summary and the
  canonical JSON metrics report.

Everything above is the **deterministic plane**: sim-clock time, seeded
draws, byte-identical streams. :mod:`repro.obs.live` is the second,
**operational plane** — wall-clock latency sketches, rolling rates,
gauges, SLOs, and a flight recorder for running the serving engine —
with :data:`NULL_LIVE` as its no-op default and :mod:`repro.obs.prom`
as its exporters (Prometheus text, JSONL scrapes, text dashboard). The
two planes never mix; see docs/OBSERVABILITY.md, "Two planes".

See ``docs/OBSERVABILITY.md`` for the event taxonomy, metric naming
conventions, and span semantics.
"""

from repro.obs import events
from repro.obs.events import Event, EventLog, EVENT_TYPES
from repro.obs.export import chrome_trace, chrome_trace_json, collapsed_stacks
from repro.obs.live import (
    NULL_LIVE,
    FlightRecord,
    FlightRecorder,
    LatencySketch,
    LiveTelemetry,
    NullLive,
    RollingCounter,
    SloPolicy,
    SloStatus,
)
from repro.obs.metrics import DEFAULT_BUCKET_BOUNDS, Histogram, MetricsRegistry
from repro.obs.observer import NULL_OBSERVER, NullObserver, Observer
from repro.obs.prom import (
    prometheus_text,
    render_dashboard,
    scrape_snapshot,
    write_live_dir,
)
from repro.obs.rundir import RunManifest, write_run_dir
from repro.obs.snapshot import (
    CaptureScope,
    ItemCapture,
    ObsSnapshot,
    merge_snapshots,
)
from repro.obs.spans import Span, SpanTracer

__all__ = [
    "events",
    "Event",
    "EventLog",
    "EVENT_TYPES",
    "DEFAULT_BUCKET_BOUNDS",
    "CaptureScope",
    "FlightRecord",
    "FlightRecorder",
    "Histogram",
    "ItemCapture",
    "LatencySketch",
    "LiveTelemetry",
    "MetricsRegistry",
    "NULL_LIVE",
    "NULL_OBSERVER",
    "NullLive",
    "NullObserver",
    "ObsSnapshot",
    "Observer",
    "RollingCounter",
    "RunManifest",
    "SloPolicy",
    "SloStatus",
    "Span",
    "SpanTracer",
    "chrome_trace",
    "chrome_trace_json",
    "collapsed_stacks",
    "merge_snapshots",
    "prometheus_text",
    "render_dashboard",
    "scrape_snapshot",
    "write_live_dir",
    "write_run_dir",
]
