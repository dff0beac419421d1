"""Serving engine tests: parity, admission control, coalescing, determinism.

The central promise (``docs/SERVING.md``) is that serving is a *view* of
the reproduction, not a second implementation: every answer the resident
engine returns is bitwise identical to the one-shot batch campaign, no
matter how requests are ordered, interleaved across tenants, or coalesced
into batches. The parity classes pin that over fuzzed mini-worlds; the
admission classes pin the typed-refusal contract (budget, rate, shedding,
unknown inputs) and the ``credits.conservation`` invariant across
interleaved tenants; the determinism class pins the event stream — byte
identical run to run, and identical whether the scenario underneath was
measured serially or with ``REPRO_WORKERS=2``.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro import rand
from repro.check.fuzz import fuzz_config
from repro.check.invariants import InvariantChecker
from repro.core import cbg_batch
from repro.errors import ConfigurationError
from repro.experiments.scenario import Scenario, config_for_preset
from repro.faults import FaultInjector, FaultPlan
from repro.obs import Observer
from repro.obs import events as _ev
from repro.serve import (
    REJECT_OVER_BUDGET,
    REJECT_OVER_RATE,
    REJECT_SHED,
    REJECT_UNKNOWN_TARGET,
    REJECT_UNKNOWN_TENANT,
    REJECTIONS,
    STATUS_NO_ESTIMATE,
    STATUS_OK,
    QueryState,
    ServeEngine,
    TenantConfig,
)

#: Fuzzed mini-worlds the serve-vs-batch parity sweep covers.
FUZZ_WORLDS = 10


@pytest.fixture(scope="module")
def quick_scenario():
    return Scenario.build(config_for_preset("quick"))


@pytest.fixture(scope="module")
def quick_state(quick_scenario):
    return quick_scenario.query_state()


def _fresh_engine(state, **kwargs):
    engine = ServeEngine(state, **kwargs)
    engine.register_tenant(TenantConfig(name="t"))
    return engine


def _moved(state, columns):
    """``state`` with the RTTs of ``columns`` stretched by 5%, as when a
    churned revision re-measures those targets."""
    matrix = state.rtt_matrix.copy()
    matrix[:, columns] *= 1.05
    return dataclasses.replace(state, rtt_matrix=matrix)


def _served_arrays(engine, tenant, ips, order):
    """Serve ``ips`` in ``order``; answers scattered back to column order."""
    results = engine.geolocate(tenant, [ips[column] for column in order])
    lats = np.full(len(ips), np.nan)
    lons = np.full(len(ips), np.nan)
    for column, result in zip(order, results):
        assert result.status in (STATUS_OK, STATUS_NO_ESTIMATE)
        if result.status == STATUS_OK:
            lats[column] = result.lat
            lons[column] = result.lon
    return lats, lons


class TestServeVsBatchParity:
    """Served answers == the batch campaign, bitwise."""

    @pytest.mark.parametrize("index", range(FUZZ_WORLDS))
    def test_fuzz_world_parity(self, index):
        scenario = Scenario.build(fuzz_config(index))
        state = scenario.query_state()
        expected_lats, expected_lons = cbg_batch.cbg_centroids_batch(
            state.vp_lats, state.vp_lons, state.rtt_matrix
        )
        # Vary the coalescing width and the request order per world.
        engine = _fresh_engine(state, max_batch=1 + index % 5)
        order = rand.generator(("serve-fuzz", index)).permutation(state.n_targets)
        lats, lons = _served_arrays(engine, "t", state.target_ips, order)
        np.testing.assert_array_equal(lats, expected_lats)
        np.testing.assert_array_equal(lons, expected_lons)

    def test_quick_world_parity_across_batch_sizes(self, quick_state):
        expected = cbg_batch.cbg_centroids_batch(
            quick_state.vp_lats, quick_state.vp_lons, quick_state.rtt_matrix
        )
        order = np.arange(quick_state.n_targets)
        for max_batch in (1, 3, quick_state.n_targets, 4096):
            engine = _fresh_engine(quick_state, max_batch=max_batch)
            lats, lons = _served_arrays(engine, "t", quick_state.target_ips, order)
            np.testing.assert_array_equal(lats, expected[0])
            np.testing.assert_array_equal(lons, expected[1])


class TestPermutationInvariance:
    """Independent tenants get the same answers in any request order."""

    def test_orders_and_interleavings_agree(self, quick_state):
        ips = quick_state.target_ips
        n = quick_state.n_targets
        baseline = None
        for trial in range(3):
            engine = ServeEngine(quick_state, max_batch=4)
            engine.register_tenant(TenantConfig(name="alpha"))
            engine.register_tenant(TenantConfig(name="beta"))
            order = rand.generator(("serve-perm", trial)).permutation(2 * n)
            ids = {}
            for position in order:
                tenant = "alpha" if position < n else "beta"
                column = int(position) % n
                ids[(tenant, column)] = engine.submit(tenant, ips[column])
            engine.drain()
            answers = {
                key: (
                    engine.result(request_id).status,
                    engine.result(request_id).lat,
                    engine.result(request_id).lon,
                )
                for key, request_id in ids.items()
            }
            # Both tenants saw identical answers for identical targets.
            for column in range(n):
                assert answers[("alpha", column)] == answers[("beta", column)]
            if baseline is None:
                baseline = answers
            else:
                assert answers == baseline


class TestCoalescing:
    """Batch-boundary behaviour of the intake queue."""

    def test_batch_of_one(self, quick_state):
        engine = _fresh_engine(quick_state, max_batch=1)
        for ip in quick_state.target_ips[:4]:
            engine.submit("t", ip)
        assert engine.queue_depth == 4
        assert engine.process_one_batch() == 1
        assert engine.queue_depth == 3
        engine.drain()
        assert engine.queue_depth == 0
        assert engine.batches_processed == 4

    def test_batch_equals_queue_depth(self, quick_state):
        n = quick_state.n_targets
        engine = _fresh_engine(quick_state, max_batch=n)
        for ip in quick_state.target_ips:
            engine.submit("t", ip)
        assert engine.process_one_batch() == n
        assert engine.queue_depth == 0
        assert engine.batches_processed == 1

    def test_queue_drained_mid_stream(self, quick_state):
        """A partial batch mid-stream answers what is queued, no more."""
        ips = quick_state.target_ips
        engine = _fresh_engine(quick_state, max_batch=3)
        first = [engine.submit("t", ip) for ip in ips[:2]]
        assert engine.process_one_batch() == 2  # partial: queue < max_batch
        assert all(engine.result(i) is not None for i in first)
        later = [engine.submit("t", ip) for ip in ips[2:6]]
        assert engine.result(later[0]) is None  # still queued
        assert engine.drain() == 4
        assert engine.batches_processed == 3  # 2 + 3 + 1
        assert engine.process_one_batch() == 0  # empty queue is a no-op

    def test_empty_drain(self, quick_state):
        engine = _fresh_engine(quick_state)
        assert engine.drain() == 0
        assert engine.batches_processed == 0


class TestLedgerEdgeCases:
    """Typed budget/rate refusals and conservation across tenants."""

    def test_zero_credit_tenant_rejected_before_kernel_work(self, quick_state):
        obs = Observer()
        engine = ServeEngine(quick_state, obs=obs)
        engine.register_tenant(TenantConfig(name="broke", credit_budget=0))
        request_id = engine.submit("broke", quick_state.target_ips[0])
        result = engine.result(request_id)
        assert result.status == REJECT_OVER_BUDGET
        assert result.rejected
        engine.drain()
        # Refused before any kernel or queue work: no batch ran, no kernel
        # columns were touched, and nothing was charged.
        assert engine.batches_processed == 0
        assert obs.metrics.counter("cbg.fast_calls") == 0
        assert len(obs.events.of_type(_ev.SERVE_BATCH)) == 0
        assert engine.tenant("broke").ledger.spent == 0

    def test_burst_exactly_at_rate_limit_boundary(self, quick_state):
        engine = ServeEngine(quick_state)
        engine.register_tenant(
            TenantConfig(name="bursty", max_requests_per_window=3, window_s=2.0)
        )
        ips = quick_state.target_ips
        # Exactly max_requests admitted; the boundary request is refused.
        admitted = [engine.submit("bursty", ips[i % len(ips)]) for i in range(3)]
        assert all(engine.result(i) is None for i in admitted)  # queued
        refused = engine.submit("bursty", ips[0])
        assert engine.result(refused).status == REJECT_OVER_RATE
        assert "retry in" in engine.result(refused).detail
        # The window slides with the engine clock: after window_s the
        # tenant may burst again.
        engine.clock.advance(2.0, "test")
        again = engine.submit("bursty", ips[0])
        assert engine.result(again) is None
        engine.drain()
        assert engine.result(again).status in (STATUS_OK, STATUS_NO_ESTIMATE)

    def test_conservation_across_interleaved_tenants(self, quick_state):
        obs = Observer()
        checker = InvariantChecker(obs=obs)
        engine = ServeEngine(quick_state, obs=obs, checker=checker)
        engine.register_tenant(TenantConfig(name="a", cost_per_query=2))
        engine.register_tenant(TenantConfig(name="b", credit_budget=7))
        ips = quick_state.target_ips
        for index in range(10):
            engine.submit("a" if index % 2 == 0 else "b", ips[index % len(ips)])
        engine.drain()
        # a: 5 queries x 2 credits; b: capped at 7 -> 5 queries x 1, the
        # budget admits all 5.
        assert engine.tenant("a").ledger.spent == 10
        assert engine.tenant("b").ledger.spent == 5
        assert checker.passes["credits.conservation"] == 10
        assert not checker.violations
        # Per-kind ledger keys separate the tenants in the shared stream.
        assert engine.tenant("a").ledger.counts() == {"serve:a": 5}
        charges = obs.events.of_type(_ev.CREDIT_CHARGE)
        kinds = {dict(event.fields)["kind"] for event in charges}
        assert kinds == {"serve:a", "serve:b"}


class TestShedding:
    """Fault injection sheds requests with a typed reason."""

    def test_shed_requests_are_typed_and_uncharged(self, quick_state):
        plan = FaultPlan(seed=3, api_server_error_rate=0.5)
        engine = ServeEngine(quick_state, faults=FaultInjector(plan))
        engine.register_tenant(TenantConfig(name="t"))
        results = engine.geolocate("t", list(quick_state.target_ips) * 3)
        shed = [r for r in results if r.status == REJECT_SHED]
        served = [r for r in results if not r.rejected]
        assert shed and served  # the draw bands make both near-certain
        assert all(r.detail == "ApiServerError" for r in shed)
        # Shed requests consume neither credits nor answers.
        assert engine.tenant("t").ledger.spent == len(served)

    def test_no_faults_no_shedding(self, quick_state):
        engine = ServeEngine(quick_state, faults=FaultInjector(FaultPlan.none()))
        engine.register_tenant(TenantConfig(name="t"))
        results = engine.geolocate("t", list(quick_state.target_ips))
        assert not any(r.status == REJECT_SHED for r in results)


class TestDegenerateInputs:
    """Malformed queries come back as typed results, not exceptions."""

    def test_empty_target_list(self, quick_state):
        obs = Observer()
        engine = ServeEngine(quick_state, obs=obs)
        engine.register_tenant(TenantConfig(name="t"))
        assert engine.geolocate("t", []) == []
        assert engine.batches_processed == 0
        assert len(obs.events) == 0

    def test_duplicate_targets_in_one_batch(self, quick_state):
        obs = Observer()
        engine = ServeEngine(quick_state, obs=obs, max_batch=8)
        engine.register_tenant(TenantConfig(name="t"))
        # The table is solved at load; a swap that moves column 0 sends it
        # back through the kernel on its first request.
        moved = _moved(quick_state, [0])
        assert engine.install_epoch(moved) == 1
        ip = quick_state.target_ips[0]
        results = engine.geolocate("t", [ip, ip, ip])
        assert len({(r.status, r.lat, r.lon) for r in results}) == 1
        assert engine.batches_processed == 1
        [batch_event] = obs.events.of_type(_ev.SERVE_BATCH)
        fields = dict(batch_event.fields)
        assert fields["size"] == 3
        assert fields["columns"] == 1  # deduplicated before the kernel
        assert fields["cached"] == 0
        assert obs.metrics.counter("cbg.fast_calls") == 1
        expected = cbg_batch.cbg_centroids_batch(
            moved.vp_lats, moved.vp_lons, moved.rtt_matrix
        )
        assert (results[0].lat, results[0].lon) == (expected[0][0], expected[1][0])

    def test_repeat_queries_answered_from_memo(self, quick_state):
        obs = Observer()
        engine = ServeEngine(quick_state, obs=obs, max_batch=4)
        engine.register_tenant(TenantConfig(name="t"))
        engine.install_epoch(_moved(quick_state, [0]))
        ip = quick_state.target_ips[0]
        [first] = engine.geolocate("t", [ip])  # solves the moved column
        kernel_calls = obs.metrics.counter("cbg.fast_calls")
        assert kernel_calls == 1
        [second] = engine.geolocate("t", [ip])
        # Identical answer, zero additional kernel work.
        assert (second.status, second.lat, second.lon) == (
            first.status,
            first.lat,
            first.lon,
        )
        assert obs.metrics.counter("cbg.fast_calls") == kernel_calls
        assert engine.column_cache_hits == 1
        assert obs.metrics.counter("serve.column_cache_hits") == 1

    def test_fresh_engine_answers_from_the_load_table(self, quick_state):
        obs = Observer()
        engine = ServeEngine(quick_state, obs=obs, max_batch=5)
        engine.register_tenant(TenantConfig(name="t"))
        order = np.arange(quick_state.n_targets)
        lats, lons = _served_arrays(engine, "t", quick_state.target_ips, order)
        expected = cbg_batch.cbg_centroids_batch(
            quick_state.vp_lats, quick_state.vp_lons, quick_state.rtt_matrix
        )
        np.testing.assert_array_equal(lats, expected[0])
        np.testing.assert_array_equal(lons, expected[1])
        # No batch ran the kernel: every column was a gather.
        assert obs.metrics.counter("cbg.fast_calls") == 0
        batches = [dict(e.fields) for e in obs.events.of_type(_ev.SERVE_BATCH)]
        assert {fields["columns"] for fields in batches} == {0}
        assert engine.column_cache_hits == quick_state.n_targets

    def test_zero_vp_world_answers_no_estimate(self, quick_state):
        ips = quick_state.target_ips[:3]
        empty = QueryState(
            vp_lats=np.zeros(0),
            vp_lons=np.zeros(0),
            rtt_matrix=np.zeros((0, len(ips))),
            target_ips=tuple(ips),
        )
        engine = _fresh_engine(empty)
        assert [r.status for r in engine.geolocate("t", list(ips))] == [
            STATUS_NO_ESTIMATE
        ] * len(ips)
        assert engine.install_epoch(empty) == 0
        assert [r.status for r in engine.geolocate("t", list(ips))] == [
            STATUS_NO_ESTIMATE
        ] * len(ips)

    def test_unknown_target_is_typed(self, quick_state):
        engine = _fresh_engine(quick_state)
        [result] = engine.geolocate("t", ["203.0.113.99"])
        assert result.status == REJECT_UNKNOWN_TARGET
        assert result.lat is None and result.lon is None

    def test_unknown_tenant_is_typed(self, quick_state):
        engine = ServeEngine(quick_state)
        [result] = engine.geolocate("ghost", [quick_state.target_ips[0]])
        assert result.status == REJECT_UNKNOWN_TENANT
        assert REJECT_UNKNOWN_TENANT in REJECTIONS

    def test_mixed_known_and_unknown(self, quick_state):
        engine = _fresh_engine(quick_state)
        results = engine.geolocate(
            "t", [quick_state.target_ips[0], "198.51.100.1", quick_state.target_ips[1]]
        )
        assert [r.rejected for r in results] == [False, True, False]

    def test_bad_configs_raise(self, quick_state):
        with pytest.raises(ConfigurationError):
            TenantConfig(name="")
        with pytest.raises(ConfigurationError):
            TenantConfig(name="x", cost_per_query=-1)
        with pytest.raises(ConfigurationError):
            TenantConfig(name="x", credit_budget=-5)
        with pytest.raises(ConfigurationError):
            ServeEngine(quick_state, max_batch=0)

    def test_query_state_validation(self):
        with pytest.raises(ValueError):
            QueryState(
                vp_lats=np.zeros(2),
                vp_lons=np.zeros(2),
                rtt_matrix=np.zeros(4),
                target_ips=("a", "b"),
            )
        with pytest.raises(ValueError):
            QueryState(
                vp_lats=np.zeros(2),
                vp_lons=np.zeros(2),
                rtt_matrix=np.zeros((2, 3)),
                target_ips=("a", "b"),
            )


def _serve_workload_jsonl(workers, monkeypatch):
    """Build an observed quick scenario and serve an interleaved two-tenant
    workload over it; returns the full event stream as JSONL bytes."""
    if workers is None:
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
    else:
        monkeypatch.setenv("REPRO_WORKERS", str(workers))
    obs = Observer()
    scenario = Scenario.build(config_for_preset("quick"), obs=obs)
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


class TestDeterministicObservability:
    """The serve event stream is a pure function of the submission order."""

    def test_serial_equals_parallel_golden_stream(self, monkeypatch):
        serial_events, serial_metrics = _serve_workload_jsonl(None, monkeypatch)
        parallel_events, parallel_metrics = _serve_workload_jsonl(2, monkeypatch)
        rerun_events, _ = _serve_workload_jsonl(None, monkeypatch)
        assert serial_events == rerun_events  # byte-identical run to run
        assert serial_events == parallel_events  # REPRO_WORKERS invisible
        assert serial_metrics == parallel_metrics
        # The serve taxonomy is present and closed: every serve event in
        # the stream is one of the three registered types.
        import json

        serve_types = {
            json.loads(line)["type"]
            for line in serial_events.splitlines()
            if line and json.loads(line)["type"].startswith("serve-")
        }
        assert serve_types == {
            _ev.SERVE_REQUEST,
            _ev.SERVE_REJECT,
            _ev.SERVE_BATCH,
        }

    def test_serve_event_sequence_regression(self, quick_state):
        """Golden sequence for a tiny fixed workload (no file needed)."""
        obs = Observer()
        engine = ServeEngine(quick_state, obs=obs, max_batch=2)
        engine.register_tenant(TenantConfig(name="t", credit_budget=2))
        ips = quick_state.target_ips
        for ip in (ips[0], ips[1], ips[2], "203.0.113.7"):
            engine.submit("t", ip)
        engine.drain()
        etypes = [event.etype for event in obs.events]
        assert etypes == [
            _ev.CREDIT_CHARGE,
            _ev.SERVE_REQUEST,
            _ev.CREDIT_CHARGE,
            _ev.SERVE_REQUEST,
            _ev.SERVE_REJECT,  # third query: budget of 2 exhausted
            _ev.SERVE_REJECT,  # unknown prefix
            _ev.SERVE_BATCH,
        ]
