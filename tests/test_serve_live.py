"""Live telemetry on the serving engine: the non-interference guard.

The tentpole promise of the operational plane is that it can ride on the
deterministic serving path without perturbing it: the deterministic
event stream and metrics report are *bitwise identical* with the live
plane attached or absent, serially and under ``REPRO_WORKERS=2``
(:class:`TestLivePlaneDoesNotLeak` — the CI-pinned guard). The rest of
the suite pins what the plane actually records: the per-stage tail
attribution identity (queue + coalesce + kernel + memo == total,
exactly), per-tenant SLO accounting, the flight-recorder chaos behaviour
under fault-injected shedding, and live capture across fork workers in
:func:`repro.exec.parallel_map`.
"""

from __future__ import annotations

import dataclasses
import time

import pytest

from repro.exec import parallel_map
from repro.experiments.scenario import Scenario, config_for_preset
from repro.faults import FaultInjector, FaultPlan
from repro.obs import Observer
from repro.obs.live import (
    NULL_LIVE,
    LatencySketch,
    LiveTelemetry,
    SloPolicy,
)
from repro.serve import (
    REJECT_OVER_BUDGET,
    REJECT_SHED,
    ServeEngine,
    TenantConfig,
)


@pytest.fixture(scope="module")
def quick_scenario():
    return Scenario.build(config_for_preset("quick"))


class _FakeClock:
    def __init__(self, now: float = 0.0) -> None:
        self.now = now

    def __call__(self) -> float:
        return self.now


def _serve_workload(workers, monkeypatch, live):
    """The golden serve workload from ``test_serve.py``, with an optional
    live plane riding along; returns the deterministic outputs."""
    if workers is None:
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
    else:
        monkeypatch.setenv("REPRO_WORKERS", str(workers))
    obs = Observer()
    scenario = Scenario.build(config_for_preset("quick"), obs=obs, live=live)
    engine = ServeEngine.from_scenario(scenario, max_batch=4)
    engine.register_tenant(TenantConfig(name="alpha", credit_budget=12))
    engine.register_tenant(
        TenantConfig(name="beta", max_requests_per_window=9, window_s=1.0)
    )
    ips = scenario.target_ips
    for index in range(2 * len(ips)):
        engine.submit("alpha" if index % 2 == 0 else "beta", ips[index % len(ips)])
        if index % 7 == 6:
            engine.process_one_batch()
    engine.submit("alpha", "203.0.113.1")
    engine.drain()
    return obs.events.to_jsonl(), obs.metrics_report()


class TestLivePlaneDoesNotLeak:
    """Wall-clock telemetry must never touch the deterministic streams."""

    def test_streams_bitwise_identical_live_on_vs_off_serial(self, monkeypatch):
        off_events, off_metrics = _serve_workload(None, monkeypatch, NULL_LIVE)
        live = LiveTelemetry()
        on_events, on_metrics = _serve_workload(None, monkeypatch, live)
        assert on_events == off_events
        assert on_metrics == off_metrics
        # ...and the guard is not vacuous: the plane really recorded.
        assert live.counter("serve.requests") > 0
        assert live.sketch("serve.latency_s").count > 0

    def test_streams_bitwise_identical_live_on_vs_off_workers(self, monkeypatch):
        off_events, off_metrics = _serve_workload(2, monkeypatch, NULL_LIVE)
        live = LiveTelemetry()
        on_events, on_metrics = _serve_workload(2, monkeypatch, live)
        assert on_events == off_events
        assert on_metrics == off_metrics
        assert live.counter("serve.requests") > 0
        assert live.sketch("serve.latency_s").count > 0

    def test_default_engine_has_null_live(self, quick_scenario):
        engine = ServeEngine.from_scenario(quick_scenario)
        assert engine.live is NULL_LIVE
        engine.register_tenant(TenantConfig(name="t"))
        engine.submit("t", quick_scenario.target_ips[0])
        engine.drain()  # no live plane, no error, no telemetry


class TestStageAttribution:
    """The per-stage sketches explain the whole latency, exactly."""

    def _served(self, scenario, live, n_requests=40, max_batch=8):
        engine = ServeEngine.from_scenario(scenario, max_batch=max_batch, live=live)
        engine.register_tenant(TenantConfig(name="t"))
        ips = scenario.target_ips
        for index in range(n_requests):
            engine.submit("t", ips[index % len(ips)])
        engine.drain()
        return engine

    def test_stage_sums_partition_total_latency(self, quick_scenario):
        live = LiveTelemetry()
        self._served(quick_scenario, live)
        total = live.sketch("serve.latency_s")
        stages = {
            name: live.sketch(f"serve.stage.{name}_s")
            for name in ("queue", "coalesce", "kernel", "memo")
        }
        # Every answered request appears once in every stage sketch
        # (batch-shared stages carry multiplicity), so the counts agree…
        assert total.count > 0
        for sketch in stages.values():
            assert sketch.count == total.count
        # …and the exact per-stage sums partition the exact total: the
        # four timestamps subtract telescopically, so the only error is
        # float summation noise, orders of magnitude below 1e-6 relative.
        stage_sum = sum(sketch.total for sketch in stages.values())
        assert stage_sum == pytest.approx(total.total, rel=1e-6)

    def test_admission_and_gauges_recorded(self, quick_scenario):
        live = LiveTelemetry()
        engine = self._served(quick_scenario, live, n_requests=24, max_batch=4)
        assert live.sketch("serve.stage.admission_s").count == 24
        assert live.counter("serve.requests") == 24
        assert live.counter("serve.admitted") == 24
        assert live.counter("serve.batches") == engine.batches_processed
        assert live.gauge_value("serve.queue_depth") == 0.0  # drained
        assert 0.0 < live.gauge_value("serve.batch_occupancy") <= 1.0
        # The table is solved at load: every column is a memo hit...
        assert live.gauge_value("serve.memo_hit_ratio") == 1.0
        # ...until a swap moves some served columns, which the next
        # requests for them solve once.
        moved = engine.state.rtt_matrix.copy()
        moved[:, :2] *= 1.05
        assert engine.install_epoch(dataclasses.replace(engine.state, rtt_matrix=moved)) == 2
        ips = quick_scenario.target_ips
        for index in range(24):
            engine.submit("t", ips[index % len(ips)])
        engine.drain()
        assert 0.0 < live.gauge_value("serve.memo_hit_ratio") < 1.0

    def test_per_tenant_sketches_and_slo(self, quick_scenario):
        live = LiveTelemetry()
        engine = ServeEngine.from_scenario(quick_scenario, max_batch=4, live=live)
        engine.register_tenant(TenantConfig(name="rich"))
        engine.register_tenant(TenantConfig(name="poor", credit_budget=3))
        engine.set_slo(SloPolicy("rich", latency_target_s=10.0))
        engine.set_slo(SloPolicy("poor", latency_target_s=10.0, error_budget=0.01))
        ips = quick_scenario.target_ips
        for index in range(10):
            engine.submit("rich", ips[index % len(ips)])
            engine.submit("poor", ips[index % len(ips)])
        engine.drain()
        statuses = {status.policy.name: status for status in live.slo_statuses()}
        assert statuses["rich"].requests == 10
        assert statuses["rich"].refused == 0
        assert statuses["rich"].compliant  # 10s target: nothing is slow
        # poor: 3 admitted + 7 refused, refusals burn the budget.
        assert live.sketch("serve.tenant.poor.latency_s").count == 3
        assert live.counter("serve.tenant.poor.refusals") == 7
        assert statuses["poor"].refused == 7
        assert not statuses["poor"].compliant
        assert statuses["poor"].burn_rate > 1.0
        assert live.counter(f"serve.refusals.{REJECT_OVER_BUDGET}") == 7


class TestFlightRecorderChaos:
    """Under fault-injected shedding the ring captures the story."""

    def test_shed_requests_are_captured_with_reasons(self, quick_scenario):
        clock = _FakeClock()
        live = LiveTelemetry(
            flight_sample=1, refusal_rate_threshold=1.0, clock=clock
        )
        plan = FaultPlan(seed=3, api_server_error_rate=0.5)
        engine = ServeEngine.from_scenario(
            quick_scenario, live=live, faults=FaultInjector(plan)
        )
        engine.register_tenant(TenantConfig(name="t"))
        ips = quick_scenario.target_ips
        for index in range(3 * len(ips)):
            engine.submit("t", ips[index % len(ips)])
        engine.drain()
        shed_records = [
            record
            for record in live.flight.records()
            if record.outcome == REJECT_SHED
        ]
        assert shed_records  # the 50% draw bands make this near-certain
        assert all(record.detail == "ApiServerError" for record in shed_records)
        assert all(record.tenant == "t" for record in shed_records)
        assert all(
            dict(record.stages).keys() == {"admission"} for record in shed_records
        )
        # OK requests are in the ring too (flight_sample=1 records all).
        assert any(record.outcome == "ok" for record in live.flight.records())
        # The refusal counter and the ring tell the same story.
        assert live.counter("serve.refusals") == len(shed_records)
        # The refusal rate blew the 1/s threshold inside the first window
        # (fake clock pinned at t=0) and auto-dumped the ring.
        triggers = [dump["trigger"] for dump in live.flight.dumps]
        assert "refusal-spike" in triggers
        spike = next(
            dump for dump in live.flight.dumps if dump["trigger"] == "refusal-spike"
        )
        assert any(
            entry["outcome"] == REJECT_SHED and entry["detail"] == "ApiServerError"
            for entry in spike["records"]
        )

    def test_no_spike_below_threshold(self, quick_scenario):
        clock = _FakeClock()
        live = LiveTelemetry(
            flight_sample=1, refusal_rate_threshold=1e9, clock=clock
        )
        plan = FaultPlan(seed=3, api_server_error_rate=0.5)
        engine = ServeEngine.from_scenario(
            quick_scenario, live=live, faults=FaultInjector(plan)
        )
        engine.register_tenant(TenantConfig(name="t"))
        for ip in quick_scenario.target_ips:
            engine.submit("t", ip)
        engine.drain()
        assert not any(
            dump["trigger"] == "refusal-spike" for dump in live.flight.dumps
        )

    def test_invariant_violation_triggers_dump(self, quick_scenario):
        class _RecordingChecker:
            """Shape of a record-mode InvariantChecker: disabled checks,
            but a violations list the engine watches across batches."""

            enabled = False
            violations = []

        checker = _RecordingChecker()
        live = LiveTelemetry(flight_sample=1)
        engine = ServeEngine.from_scenario(
            quick_scenario, max_batch=4, live=live, checker=checker
        )
        engine.register_tenant(TenantConfig(name="t"))
        ips = quick_scenario.target_ips
        for ip in ips[:4]:
            engine.submit("t", ip)
        engine.process_one_batch()
        assert not live.flight.dumps  # healthy batch, no dump
        checker.violations.append("synthetic violation for the ring")
        for ip in ips[4:8]:
            engine.submit("t", ip)
        engine.process_one_batch()
        assert [dump["trigger"] for dump in live.flight.dumps] == [
            "invariant-violation"
        ]
        # Only *new* violations dump: the next healthy batch stays quiet.
        for ip in ips[:4]:
            engine.submit("t", ip)
        engine.process_one_batch()
        assert len(live.flight.dumps) == 1


def _slow_square(x: int) -> int:
    time.sleep(0.001)
    return x * x


def _observed_square(x: int) -> int:
    from repro.exec.pool import _CAPTURE_CTX

    obs = _CAPTURE_CTX.get("obs")
    if obs is not None and obs.enabled:
        obs.count("squares")
    return x * x


class TestPoolLiveCapture:
    """parallel_map merges worker-side live sketches back to the parent."""

    def test_serial_capture(self, monkeypatch):
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        live = LiveTelemetry()
        assert parallel_map(_slow_square, range(6), live=live) == [
            x * x for x in range(6)
        ]
        assert live.counter("exec.items") == 6
        sketch = live.sketch("exec.item_s")
        assert sketch.count == 6
        assert sketch.quantile(0.5) >= 0.001  # the sleep is visible

    def test_parallel_capture_matches_serial_counts(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "2")
        live = LiveTelemetry()
        assert parallel_map(_slow_square, range(6), live=live) == [
            x * x for x in range(6)
        ]
        assert live.counter("exec.items") == 6
        assert live.sketch("exec.item_s").count == 6

    def test_live_does_not_perturb_observed_parallel_stream(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "2")

        def run(live):
            obs = Observer()
            result = parallel_map(_observed_square, range(8), obs=obs, live=live)
            return result, obs.events.to_jsonl(), obs.metrics_report()

        plain_result, plain_events, plain_metrics = run(None)
        live = LiveTelemetry()
        live_result, live_events, live_metrics = run(live)
        assert live_result == plain_result
        assert live_events == plain_events
        assert live_metrics == plain_metrics
        assert live.counter("exec.items") == 8

    def test_merge_paths_agree_with_direct_sketch(self, monkeypatch):
        """The merged parallel sketch covers the same population a direct
        serial sketch would (same count; quantiles within 2x bound)."""
        monkeypatch.setenv("REPRO_WORKERS", "2")
        live = LiveTelemetry()
        parallel_map(_slow_square, range(10), live=live)
        merged = live.sketch("exec.item_s")
        direct = LatencySketch()
        direct.add_many([0.001] * 10)  # the floor of each timed item
        assert merged.count == direct.count
        assert merged.quantile(0.5) >= direct.quantile(0.5) * 0.98
