"""Load benchmark: the resident serving engine under a query stream.

Serves a multi-pass, multi-tenant query stream through a
:class:`~repro.serve.ServeEngine` over the shared benchmark scenario and
records one JSON point (``BENCH_serve.json``): engine load time, sustained
throughput (queries/sec over the whole submit+solve loop), and the
per-request latency distribution (p50/p99, submission to answered batch).
The ROADMAP target is 10k+ queries/sec at paper scale (723 targets,
~10K VPs); the assertion is armed only on the paper preset so the CI
bench-smoke run (``REPRO_BENCH_PRESET=small``) stays a smoke test.

Two riders on top of the headline number:

* ``serve_tail`` — the same stream is re-served with the operational
  telemetry plane (:class:`~repro.obs.live.LiveTelemetry`) attached, and
  the per-stage wall-clock sketches attribute the latency distribution
  to queue wait / coalesce / kernel / memo (answering *why* p99 is ~60x
  p50: tail requests ride cold-column batches through the kernel). The
  stage sums must partition the total latency sum exactly — the four
  timestamps subtract telescopically — which this bench asserts.
* an overhead guard — live-on and live-off streams of at least
  :data:`_OVERHEAD_REQUESTS` requests each are timed interleaved
  (best-of-N each way, same discipline as ``test_bench_obs_overhead``)
  and the live plane must cost at most :data:`_OVERHEAD_BUDGET_NS` per
  request. The streams are sized by request count, not by passes over
  the targets: a 900-request smoke stream lasts a few milliseconds, and
  scheduler noise on a shared host then decides the guard. The guard is deliberately
  *absolute*, not a ratio: telemetry cost is a fixed ~1.3us/request
  (two timer reads and a buffered append at submit, amortised sketch
  flushes per batch), while the base request cost swings with preset
  and machine (~7us on the 60-target smoke world, 14-24us at paper
  scale depending on host), so a ratio guard measures the denominator,
  not the plane. The ratio is still recorded in ``live_overhead`` for
  trend reading. The absolute guard is armed on every preset,
  including the CI bench-smoke run.

As with the campaign bench, the speed number is only meaningful if the
answers are right: the served results are compared bitwise against one
``cbg_centroids_batch`` pass before anything is recorded, and the
benchmark fails loudly on any divergence.
"""

from __future__ import annotations

import json
import platform as platform_mod
import time
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from repro.core import cbg_batch
from repro.obs.live import NULL_LIVE, LiveTelemetry
from repro.serve import STATUS_OK, ServeEngine, TenantConfig

from conftest import PRESET

#: Full permuted passes over the target set per measured run.
_PASSES = 15

#: Coalescing width of the benched engine.
_MAX_BATCH = 256

#: Interleaved repeats per side for the live-overhead comparison.
_OVERHEAD_REPEATS = 5

#: Fewest requests per live-overhead stream (whole passes over the
#: targets, rounded up): about 0.35 s per stream at ~7us/request.
_OVERHEAD_REQUESTS = 50_000

#: Absolute live-plane budget per request, armed on every preset. Steady
#: measured cost is ~1.0-1.4us/request (interleaved best-of-N, smoke and
#: paper presets alike); the budget sits ~1.5x above that so it trips on
#: a real regression — e.g. an unvectorised sketch flush measures
#: ~+3us/request — and not on a few hundred ns of timer noise.
_OVERHEAD_BUDGET_NS = 2000.0

_TENANTS = ("alpha", "beta", "gamma")

_STAGES = ("queue", "coalesce", "kernel", "memo")


def _build_engine(scenario, live=NULL_LIVE) -> tuple[ServeEngine, float]:
    started = time.perf_counter()
    engine = ServeEngine.from_scenario(scenario, max_batch=_MAX_BATCH, live=live)
    load_s = time.perf_counter() - started
    for name in _TENANTS:
        engine.register_tenant(TenantConfig(name=name))
    return engine, load_s


def _workload(n_targets: int, passes: int = _PASSES) -> np.ndarray:
    """Column indices of the query stream: ``passes`` permuted passes."""
    rng = np.random.default_rng(20260808)
    return np.concatenate(
        [rng.permutation(n_targets) for _ in range(passes)]
    )


def _serve_stream(engine: ServeEngine, columns: np.ndarray) -> float:
    """Run the serve loop over a prepared stream; returns elapsed seconds.

    Mimics a server's steady state: submissions pour in, and a full intake
    queue triggers a coalesced batch; a final drain flushes the tail.
    """
    ips = engine.state.target_ips
    submit = engine.submit
    process = engine.process_one_batch
    max_batch = engine.max_batch
    started = time.perf_counter()
    for position, column in enumerate(columns):
        submit(_TENANTS[position % 3], ips[column])
        if engine.queue_depth >= max_batch:
            process()
    engine.drain()
    return time.perf_counter() - started


def _check_parity(engine: ServeEngine, columns: np.ndarray) -> bool:
    """Every served answer equals the batch campaign answer, bitwise."""
    expected_lats, expected_lons = cbg_batch.cbg_centroids_batch(
        engine.state.vp_lats, engine.state.vp_lons, engine.state.rtt_matrix
    )
    ips = engine.state.target_ips
    for request_id, column in enumerate(columns):
        result = engine.result(request_id)
        if result.status == STATUS_OK:
            ok = (
                result.lat == expected_lats[column]
                and result.lon == expected_lons[column]
            )
        else:
            ok = np.isnan(expected_lats[column])
        if not ok:
            return False
    return True


def _live_overhead(scenario, columns) -> tuple[float, float, LiveTelemetry]:
    """Best-of-N interleaved live-off vs live-on serve-stream timing.

    Engine builds stay out of the timed region; the runs interleave so
    scheduler drift does not fold into the ratio. Returns the best time
    per side plus the (accumulated) live plane for tail attribution.
    """
    live = LiveTelemetry()
    off_s = on_s = float("inf")
    for _ in range(_OVERHEAD_REPEATS):
        off_engine, _ = _build_engine(scenario)
        off_s = min(off_s, _serve_stream(off_engine, columns))
        on_engine, _ = _build_engine(scenario, live=live)
        on_s = min(on_s, _serve_stream(on_engine, columns))
    return off_s, on_s, live


def _tail_section(live: LiveTelemetry) -> dict:
    """The ``serve_tail`` point: per-stage p50/p95/p99 from the sketches."""
    section = {}
    for stage in _STAGES + ("admission",):
        sketch = live.sketch(f"serve.stage.{stage}_s")
        section[stage] = {
            "p50_ms": round(sketch.quantile(0.50) * 1000.0, 4),
            "p95_ms": round(sketch.quantile(0.95) * 1000.0, 4),
            "p99_ms": round(sketch.quantile(0.99) * 1000.0, 4),
        }
    total = live.sketch("serve.latency_s")
    section["total"] = {
        "p50_ms": round(total.quantile(0.50) * 1000.0, 4),
        "p99_ms": round(total.quantile(0.99) * 1000.0, 4),
    }
    return section


def test_bench_serve_load(benchmark, scenario):
    n_targets = len(scenario.target_ips)
    columns = _workload(n_targets)
    overhead_columns = _workload(n_targets, -(-_OVERHEAD_REQUESTS // n_targets))

    def run() -> dict:
        engine, load_s = _build_engine(scenario)
        elapsed_s = _serve_stream(engine, columns)
        return {"engine": engine, "load_s": load_s, "elapsed_s": elapsed_s}

    measured = benchmark.pedantic(run, rounds=3, iterations=1)
    engine = measured["engine"]

    assert _check_parity(engine, columns), "served answers diverge from batch"

    # --- live plane: tail attribution + overhead guard -------------------
    live_off_s, live_on_s, live = _live_overhead(scenario, overhead_columns)
    overhead_ratio = live_on_s / live_off_s
    marginal_ns = 1e9 * (live_on_s - live_off_s) / overhead_columns.size

    # The stage sketches partition the total: queue + coalesce + kernel +
    # memo telescopes to admission-to-answer per request, so the exact
    # sketch sums must agree to float-summation noise.
    total_sketch = live.sketch("serve.latency_s")
    stage_sum = sum(
        live.sketch(f"serve.stage.{stage}_s").total for stage in _STAGES
    )
    assert total_sketch.count == overhead_columns.size * _OVERHEAD_REPEATS
    for stage in _STAGES:
        assert live.sketch(f"serve.stage.{stage}_s").count == total_sketch.count
    sum_rel_err = abs(stage_sum - total_sketch.total) / total_sketch.total
    assert sum_rel_err < 1e-6, (
        f"stage sums do not partition total latency: rel err {sum_rel_err:.2e}"
    )

    latencies_ms = np.asarray(engine.wall_latencies_s) * 1000.0
    requests = int(columns.size)
    qps = requests / measured["elapsed_s"]
    stats = engine.stats()
    point = {
        "schema": "bench-serve-v2",
        "recorded_at": datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ"),
        "preset": PRESET,
        "vps": engine.state.n_vps,
        "targets": engine.state.n_targets,
        "python": platform_mod.python_version(),
        "numpy": np.__version__,
        "load": {"engine_load_s": round(measured["load_s"], 4)},
        "serve": {
            "requests": requests,
            "batches": int(stats["batches"]),
            "column_cache_hits": int(stats["column_cache_hits"]),
            "max_batch": _MAX_BATCH,
            "elapsed_s": round(measured["elapsed_s"], 4),
            "qps": round(qps, 1),
            "p50_ms": round(float(np.percentile(latencies_ms, 50)), 4),
            "p99_ms": round(float(np.percentile(latencies_ms, 99)), 4),
            "identical_to_batch": True,
        },
        "serve_tail": _tail_section(live),
        "live_overhead": {
            "requests_per_stream": int(overhead_columns.size),
            "live_off_s": round(live_off_s, 4),
            "live_on_s": round(live_on_s, 4),
            "ratio": round(overhead_ratio, 4),
            "marginal_ns_per_request": round(marginal_ns, 1),
            "budget_ns_per_request": _OVERHEAD_BUDGET_NS,
            "stage_sum_rel_err": float(f"{sum_rel_err:.2e}"),
        },
    }
    out = Path(__file__).resolve().parents[1] / "BENCH_serve.json"
    out.write_text(json.dumps(point, indent=1) + "\n")
    print()
    print(
        f"serve load: {requests} requests in {measured['elapsed_s']:.3f}s "
        f"= {qps:,.0f} qps (p50 {point['serve']['p50_ms']:.2f} ms, "
        f"p99 {point['serve']['p99_ms']:.2f} ms) -> {out.name}"
    )
    tail = point["serve_tail"]
    print(
        "serve tail p99 (ms): "
        + ", ".join(f"{stage} {tail[stage]['p99_ms']:.3f}" for stage in _STAGES)
        + f"; live overhead {marginal_ns:+.0f} ns/request "
        + f"({100 * (overhead_ratio - 1):+.1f}%)"
    )

    assert marginal_ns <= _OVERHEAD_BUDGET_NS, (
        f"live telemetry costs {marginal_ns:.0f} ns/request, over the "
        f"{_OVERHEAD_BUDGET_NS:.0f} ns absolute budget"
    )

    if PRESET == "paper":
        assert qps >= 10_000, f"paper-scale serving below 10k qps: {qps:,.0f}"
