"""The operational telemetry plane: sketches, rates, flights, exporters.

Every sketch quantile must stay within the documented relative-error
bound over fuzzed latency distributions. The exporter tests pin the
Prometheus exposition grammar, the JSON scrape schema, and the run-dir
integration (live artifacts land beside — never inside — the
deterministic ones).
"""

from __future__ import annotations

import json
import math

import numpy as np
import pytest

from repro.obs import Histogram, MetricsRegistry, Observer
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
from repro.obs.prom import (
    SCRAPE_SCHEMA,
    append_scrape,
    prometheus_text,
    render_dashboard,
    scrape_snapshot,
    write_live_dir,
)


class _FakeClock:
    def __init__(self, now: float = 0.0) -> None:
        self.now = now

    def __call__(self) -> float:
        return self.now


def _fuzzed_distributions(count: int = 8):
    """Fuzzed latency-ish samples spanning several shapes and scales."""
    rng = np.random.default_rng(20260808)
    for index in range(count):
        shape = index % 4
        n = int(rng.integers(50, 2000))
        if shape == 0:
            values = rng.lognormal(mean=-7.0 + index * 0.5, sigma=1.2, size=n)
        elif shape == 1:
            values = rng.uniform(1e-5, 0.5, size=n)
        elif shape == 2:
            values = rng.exponential(scale=10.0 ** -int(rng.integers(1, 5)), size=n)
        else:  # bimodal: fast memo hits + slow kernel solves
            fast = rng.normal(2e-5, 5e-6, size=n // 2)
            slow = rng.normal(4e-2, 1e-2, size=n - n // 2)
            values = np.abs(np.concatenate([fast, slow])) + 1e-7
        yield np.clip(values, 1.1e-6, 3599.0)


class TestLatencySketch:
    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            LatencySketch(relative_error=0.0)
        with pytest.raises(ValueError):
            LatencySketch(relative_error=1.5)
        with pytest.raises(ValueError):
            LatencySketch(min_value=2.0, max_value=1.0)

    def test_empty_sketch(self):
        sketch = LatencySketch()
        assert math.isnan(sketch.quantile(0.5))
        assert math.isnan(sketch.mean)
        assert sketch.fraction_over(0.1) == 0.0
        assert sketch.count == 0
        assert sketch.as_dict()["p99"] is None

    def test_quantile_range_is_validated(self):
        sketch = LatencySketch()
        sketch.add(0.5)
        with pytest.raises(ValueError):
            sketch.quantile(1.5)
        with pytest.raises(ValueError):
            sketch.quantile(-0.1)

    def test_exact_bookkeeping(self):
        sketch = LatencySketch()
        sketch.add(0.010)
        sketch.add(0.020, count=3)
        assert sketch.count == 4
        assert sketch.total == pytest.approx(0.010 + 3 * 0.020)
        assert sketch.mean == pytest.approx(sketch.total / 4)
        assert sketch.min_seen == 0.010
        assert sketch.max_seen == 0.020

    def test_add_many_matches_scalar_adds(self):
        rng = np.random.default_rng(7)
        values = rng.lognormal(-6, 1.0, 500)
        scalar, vector = LatencySketch(), LatencySketch()
        for value in values:
            scalar.add(float(value))
        vector.add_many(values)
        assert np.array_equal(scalar.bins, vector.bins)
        assert scalar.count == vector.count
        assert scalar.total == pytest.approx(vector.total)
        assert scalar.overflow == vector.overflow

    def test_relative_error_bound_over_fuzzed_distributions(self):
        """The documented contract: any quantile of any in-range stream is
        within ``relative_error`` of the exact sample quantile."""
        for values in _fuzzed_distributions():
            sketch = LatencySketch(relative_error=0.01)
            sketch.add_many(values)
            ordered = np.sort(values)
            for q in (0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 1.0):
                exact = float(ordered[max(0, math.ceil(q * len(ordered)) - 1)])
                estimate = sketch.quantile(q)
                assert abs(estimate - exact) <= 0.01 * exact + 1e-12, (
                    f"q={q}: estimate {estimate} vs exact {exact}"
                )

    def test_overflow_and_underflow_are_counted_not_lost(self):
        sketch = LatencySketch(min_value=1e-3, max_value=1.0)
        sketch.add(1e-6)  # underflow
        sketch.add(0.5)
        sketch.add(100.0)  # overflow
        assert sketch.count == 3
        assert sketch.overflow == 1
        assert sketch.quantile(0.01) == pytest.approx(1e-3)
        assert sketch.quantile(1.0) == pytest.approx(1.0)

    def test_fraction_over(self):
        sketch = LatencySketch()
        sketch.add_many([0.001] * 90 + [0.1] * 10)
        assert sketch.fraction_over(0.01) == pytest.approx(0.10)
        assert sketch.fraction_over(10.0) == 0.0

    def test_percentile_is_quantile_alias(self):
        sketch = LatencySketch()
        sketch.add_many(np.linspace(0.001, 0.1, 100))
        assert sketch.percentile(95) == sketch.quantile(0.95)


class TestRollingCounter:
    def test_rate_over_window(self):
        clock = _FakeClock()
        counter = RollingCounter(window_s=10.0, slots=10, clock=clock)
        for _ in range(30):
            counter.add()
        assert counter.in_window() == 30
        assert counter.rate() == pytest.approx(3.0)

    def test_old_slots_expire(self):
        clock = _FakeClock()
        counter = RollingCounter(window_s=10.0, slots=10, clock=clock)
        counter.add(10)
        clock.now = 5.0
        counter.add(4)
        assert counter.in_window() == 14
        clock.now = 10.5  # the first slot (t=0) has rolled off
        assert counter.in_window() == 4
        clock.now = 100.0  # everything expired
        assert counter.in_window() == 0
        assert counter.total == 14  # cumulative total survives

    def test_validation(self):
        with pytest.raises(ValueError):
            RollingCounter(window_s=0.0)
        with pytest.raises(ValueError):
            RollingCounter(slots=0)


class TestFlightRecorder:
    def _record(self, index: int) -> FlightRecord:
        return FlightRecord(
            request_id=index,
            tenant="alpha",
            target=f"10.0.0.{index}",
            outcome="ok",
            stages=(("queue", 0.001), ("kernel", 0.002)),
        )

    def test_ring_keeps_most_recent(self):
        recorder = FlightRecorder(capacity=4)
        for index in range(10):
            recorder.record(self._record(index))
        assert len(recorder) == 4
        assert recorder.recorded == 10
        assert [record.request_id for record in recorder.records()] == [6, 7, 8, 9]

    def test_dump_document_schema(self):
        recorder = FlightRecorder(capacity=8)
        recorder.record(self._record(1))
        document = recorder.dump("demand")
        assert document["schema"] == "flight-recorder-v1"
        assert document["trigger"] == "demand"
        assert document["recorded_total"] == 1
        assert document["buffered"] == 1
        (entry,) = document["records"]
        assert entry["tenant"] == "alpha"
        assert entry["stages"] == {"queue": 0.001, "kernel": 0.002}
        json.dumps(document)  # JSON-ready as promised

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            FlightRecorder(capacity=0)


class TestSlo:
    def test_policy_validation(self):
        with pytest.raises(ValueError):
            SloPolicy("", 0.1)
        with pytest.raises(ValueError):
            SloPolicy("a", 0.0)
        with pytest.raises(ValueError):
            SloPolicy("a", 0.1, error_budget=0.0)

    def test_burn_rate_accounting(self):
        policy = SloPolicy("alpha", latency_target_s=0.1, error_budget=0.01)
        status = SloStatus(policy=policy, requests=1000, slow=5, refused=5)
        assert status.bad == 10
        assert status.bad_fraction == pytest.approx(0.01)
        assert status.burn_rate == pytest.approx(1.0)
        assert status.compliant
        burning = SloStatus(policy=policy, requests=1000, slow=50, refused=0)
        assert burning.burn_rate == pytest.approx(5.0)
        assert not burning.compliant
        assert burning.budget_remaining == 0.0
        empty = SloStatus(policy=policy, requests=0, slow=0, refused=0)
        assert empty.compliant and empty.bad_fraction == 0.0

    def test_evaluated_from_live_plane(self):
        live = LiveTelemetry()
        live.set_slo(
            SloPolicy("alpha", latency_target_s=0.01, error_budget=0.1),
            "serve.tenant.alpha.latency_s",
            "serve.tenant.alpha.refusals",
        )
        live.observe_many(
            "serve.tenant.alpha.latency_s", [0.001] * 95 + [0.5] * 5
        )
        live.count("serve.tenant.alpha.refusals", 10)
        (status,) = live.slo_statuses()
        assert status.requests == 110
        assert status.slow == 5
        assert status.refused == 10
        assert not status.compliant  # 15/110 > 10% budget
        # Re-registering the same name replaces, not duplicates.
        live.set_slo(
            SloPolicy("alpha", latency_target_s=1.0, error_budget=0.5),
            "serve.tenant.alpha.latency_s",
            "serve.tenant.alpha.refusals",
        )
        (status,) = live.slo_statuses()
        assert status.compliant


class TestLiveTelemetry:
    def test_verbs_and_views(self):
        clock = _FakeClock()
        live = LiveTelemetry(window_s=10.0, clock=clock)
        assert live.enabled
        live.count("serve.requests", 5)
        live.observe("serve.latency_s", 0.01, count=2)
        live.observe_many("serve.latency_s", [0.02, 0.03])
        live.gauge("serve.queue_depth", 7)
        assert live.counter("serve.requests") == 5
        assert live.counter("missing") == 0
        assert live.rate("serve.requests") == pytest.approx(0.5)
        assert live.rate("missing") == 0.0
        assert live.gauge_value("serve.queue_depth") == 7.0
        assert live.sketch("serve.latency_s").count == 4
        assert set(live.counters()) == {"serve.requests"}
        assert set(live.rates()) == {"serve.requests"}
        assert set(live.gauges()) == {"serve.queue_depth"}
        assert set(live.sketches()) == {"serve.latency_s"}

    def test_flight_dump_cooldown_and_dir(self, tmp_path):
        live = LiveTelemetry(dump_dir=tmp_path)
        assert live.dump_flight() is None  # nothing recorded yet
        live.flight.record(
            FlightRecord(request_id=1, tenant="a", target="ip", outcome="ok")
        )
        first = live.dump_flight("demand")
        assert first is not None
        assert live.dump_flight("demand") is None  # nothing new since
        dumps = list(tmp_path.glob("flight-*.json"))
        assert len(dumps) == 1
        assert json.loads(dumps[0].read_text())["schema"] == "flight-recorder-v1"

    def test_refusal_spike_trigger(self):
        clock = _FakeClock()
        live = LiveTelemetry(refusal_rate_threshold=2.0, clock=clock)
        live.flight.record(
            FlightRecord(request_id=1, tenant="a", target="ip", outcome="shedding")
        )
        live.count("serve.refusals", 5)
        assert live.rate("serve.refusals") == pytest.approx(0.5)
        assert not live.check_refusal_spike()  # 0.5/s under the 2/s threshold
        live.count("serve.refusals", 30)
        assert live.check_refusal_spike()
        assert live.flight.dumps[-1]["trigger"] == "refusal-spike"
        # Unconfigured threshold never triggers.
        assert not LiveTelemetry().check_refusal_spike()

    def test_null_live_is_inert(self):
        null = NullLive()
        assert not null.enabled
        assert not NULL_LIVE.enabled
        null.count("x")
        null.observe("x", 0.1)
        null.observe_many("x", [0.1])
        null.gauge("x", 1.0)
        null.set_slo(SloPolicy("a", 0.1), "s", "c")
        assert null.counter("x") == 0
        assert null.rate("x") == 0.0
        assert null.gauge_value("x", 3.0) == 3.0
        assert null.counters() == {} and null.gauges() == {}
        assert null.rates() == {} and null.sketches() == {}
        assert null.slo_statuses() == []
        assert null.dump_flight() is None
        assert not null.check_refusal_spike()


class TestExporters:
    def _populated(self) -> LiveTelemetry:
        live = LiveTelemetry()
        live.count("serve.requests", 100)
        live.count("serve.refusals", 3)
        live.observe_many("serve.latency_s", np.linspace(1e-4, 5e-2, 200))
        live.gauge("serve.queue_depth", 12)
        live.set_slo(
            SloPolicy("alpha", latency_target_s=0.1, error_budget=0.01),
            "serve.latency_s",
            "serve.refusals",
        )
        live.flight.record(
            FlightRecord(request_id=1, tenant="alpha", target="ip", outcome="ok")
        )
        return live

    def test_prometheus_text_grammar(self):
        text = prometheus_text(self._populated())
        assert "# TYPE repro_serve_requests_total counter" in text
        assert "repro_serve_requests_total 100" in text
        assert "# TYPE repro_serve_queue_depth gauge" in text
        assert "repro_serve_queue_depth 12.0" in text
        assert "repro_serve_refusals_rate" in text
        assert "# TYPE repro_serve_latency_s summary" in text
        assert 'repro_serve_latency_s{quantile="0.99"}' in text
        assert "repro_serve_latency_s_count 200" in text
        assert 'repro_slo_burn_rate{slo="alpha"}' in text
        # 3 refusals over 203 requests burns the 1% budget → non-compliant.
        assert 'repro_slo_compliant{slo="alpha"} 0' in text
        assert text.endswith("\n")

    def test_scrape_snapshot_schema(self):
        snapshot = scrape_snapshot(self._populated())
        assert snapshot["schema"] == SCRAPE_SCHEMA
        assert snapshot["counters"]["serve.requests"] == 100
        assert snapshot["sketches"]["serve.latency_s"]["count"] == 200
        assert snapshot["slos"][0]["name"] == "alpha"
        assert snapshot["flight"]["buffered"] == 1
        json.dumps(snapshot)

    def test_append_scrape_accumulates_jsonl(self, tmp_path):
        live = self._populated()
        path = tmp_path / "scrapes.jsonl"
        append_scrape(live, path)
        live.count("serve.requests", 1)
        append_scrape(live, path)
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        first, second = (json.loads(line) for line in lines)
        assert first["counters"]["serve.requests"] == 100
        assert second["counters"]["serve.requests"] == 101

    def test_dashboard_sections(self):
        text = render_dashboard(self._populated(), title="t")
        assert "=== t ===" in text
        assert "latency sketches (ms)" in text
        assert "serve.latency_s" in text
        assert "counters" in text
        assert "gauges" in text
        assert "SLOs" in text
        assert "flight recorder: 1/512 buffered" in text
        # An empty plane renders without crashing.
        assert "=== live telemetry ===" in render_dashboard(LiveTelemetry())

    def test_write_live_dir(self, tmp_path):
        written = write_live_dir(self._populated(), tmp_path)
        names = {path.name for path in written}
        assert names == {"live_scrape.json", "live.prom", "flight_recorder.json"}
        assert (tmp_path / "live.prom").read_text().startswith("# TYPE")


class TestHistogramPercentile:
    """The repro.obs.metrics satellite: fixed-bucket quantiles, one way."""

    def test_percentile_on_known_distribution(self):
        histogram = Histogram(bounds=(1.0, 2.0, 5.0, 10.0))
        for value in [0.5] * 50 + [1.5] * 30 + [4.0] * 15 + [9.0] * 4 + [100.0]:
            histogram.observe(value)
        assert histogram.percentile(50) == 1.0  # bucket upper bound
        assert histogram.percentile(80) == 2.0
        assert histogram.percentile(95) == 5.0
        assert histogram.percentile(99) == 10.0
        assert histogram.percentile(100) == 100.0  # overflow → max observed
        assert histogram.quantile(0.5) == histogram.percentile(50)

    def test_percentile_clamps_to_observed_range(self):
        histogram = Histogram(bounds=(1000.0,))
        histogram.observe(3.0)
        histogram.observe(4.0)
        # Everything lives in the single huge bucket; the observed max is a
        # tighter (and honest) answer than the 1000.0 bound.
        assert histogram.percentile(50) == 4.0

    def test_empty_and_invalid(self):
        histogram = Histogram(bounds=(1.0, 2.0))
        assert math.isnan(histogram.percentile(50))
        histogram.observe(1.5)
        with pytest.raises(ValueError):
            histogram.quantile(2.0)

    def test_registry_histograms_expose_percentile(self):
        registry = MetricsRegistry()
        for value in range(1, 101):
            registry.observe("rtt", float(value), bounds=(10, 25, 50, 75, 100))
        assert registry.histogram("rtt").percentile(50) == 50.0
        assert registry.histogram("rtt").percentile(99) == 100.0

    def test_report_reuses_percentile_helper(self):
        observer = Observer()
        for value in (1.0, 3.0, 40.0, 400.0):
            observer.observe("atlas.rtt_ms", value)
        summary = observer.summary()
        assert "histogram quantiles (bucket resolution):" in summary
        assert "atlas.rtt_ms" in summary


class TestRunDirIntegration:
    def test_live_artifacts_do_not_touch_deterministic_ones(self, tmp_path):
        """write_run_dir with a live plane adds live files; the manifest,
        metrics, and event stream bytes are identical to a live-less run."""
        from repro.obs.rundir import RunManifest, write_run_dir

        def build_observer():
            observer = Observer()
            observer.count("serve.requests", 3)
            observer.event("cache-hit", kind="geocode")
            return observer

        manifest_kwargs = dict(
            config_digest="abc",
            seed=1,
            preset="quick",
            experiments=["serve"],
            workers=1,
            cache_dir=None,
            wall_s=1.0,
            sim_s=2.0,
            outcome="ok",
            versions={"python": "x"},
            git_rev="rev",
            started_at="2026-08-08T00:00:00+00:00",
        )
        plain_dir, live_dir = tmp_path / "plain", tmp_path / "live"
        write_run_dir(plain_dir, build_observer(), RunManifest(**manifest_kwargs))
        live = LiveTelemetry()
        live.observe("serve.latency_s", 0.01)
        live.flight.record(
            FlightRecord(request_id=0, tenant="t", target="ip", outcome="ok")
        )
        paths = write_run_dir(
            live_dir, build_observer(), RunManifest(**manifest_kwargs), live=live
        )
        for name in ("manifest.json", "metrics.json", "events.jsonl"):
            assert (plain_dir / name).read_bytes() == (live_dir / name).read_bytes()
        assert (live_dir / "live_scrape.json").exists()
        assert (live_dir / "live.prom").exists()
        assert (live_dir / "flight_recorder.json").exists()
        assert "live_scrape" in paths
        # A NULL_LIVE plane adds nothing.
        null_dir = tmp_path / "null"
        write_run_dir(
            null_dir, build_observer(), RunManifest(**manifest_kwargs), live=NULL_LIVE
        )
        assert not (null_dir / "live_scrape.json").exists()
