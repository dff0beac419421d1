"""Golden parity: observed parallel campaigns are byte-identical to serial.

The acceptance contract of the distributed-capture layer: running a fully
observed campaign under ``REPRO_WORKERS=N`` must produce the same metrics
report, the same event JSONL, the same span tree, and the same geolocation
results as running it serially — byte for byte, not just statistically.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.exec.pool import _fork_context
from repro.experiments import fig2, street_runner
from repro.experiments.scenario import get_scenario
from repro.obs import Observer
from repro.obs.export import chrome_trace_json, collapsed_stacks
from repro.obs.report import metrics_report_json


pytestmark = pytest.mark.skipif(
    _fork_context() is None, reason="fork unavailable"  # pragma: no cover
)


def _observed_street_run(monkeypatch, workers):
    if workers is None:
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
    else:
        monkeypatch.setenv("REPRO_WORKERS", str(workers))
    observer = Observer()
    # Observed scenarios are built fresh, so no records are cached yet.
    scenario = get_scenario("small", obs=observer)
    records = street_runner.street_level_records(scenario, max_targets=6)
    return observer, records


class TestStreetCampaignGolden:
    @pytest.fixture(scope="class")
    def runs(self):
        # Class-scoped: the serial and 4-worker observed campaigns are the
        # expensive part; every assertion below reuses the same pair.
        with pytest.MonkeyPatch.context() as monkeypatch:
            serial_obs, serial_records = _observed_street_run(monkeypatch, None)
            parallel_obs, parallel_records = _observed_street_run(monkeypatch, 4)
        return serial_obs, serial_records, parallel_obs, parallel_records

    def test_metrics_report_byte_identical(self, runs):
        serial_obs, _, parallel_obs, _ = runs
        assert metrics_report_json(parallel_obs) == metrics_report_json(serial_obs)

    def test_event_jsonl_byte_identical(self, runs):
        serial_obs, _, parallel_obs, _ = runs
        serial_jsonl = serial_obs.events.to_jsonl()
        assert parallel_obs.events.to_jsonl() == serial_jsonl
        assert len(serial_obs.events) > 0

    def test_span_tree_and_exports_byte_identical(self, runs):
        serial_obs, _, parallel_obs, _ = runs
        assert parallel_obs.span_tree() == serial_obs.span_tree()
        assert chrome_trace_json(parallel_obs) == chrome_trace_json(serial_obs)
        assert collapsed_stacks(parallel_obs) == collapsed_stacks(serial_obs)

    def test_geolocation_results_identical(self, runs):
        _, serial_records, _, parallel_records = runs
        assert len(serial_records) == len(parallel_records) == 6
        for a, b in zip(serial_records, parallel_records):
            assert a.target.host_id == b.target.host_id
            np.testing.assert_array_equal(a.street_error_km, b.street_error_km)
            np.testing.assert_array_equal(a.cbg_error_km, b.cbg_error_km)
            np.testing.assert_array_equal(a.oracle_error_km, b.oracle_error_km)
            assert a.landmark_distances_km == b.landmark_distances_km
            assert a.landmark_measured_km == b.landmark_measured_km
            assert a.result.estimate == b.result.estimate
            assert a.result.traceroutes_run == b.result.traceroutes_run

    def test_campaign_actually_observed(self, runs):
        serial_obs, _, _, _ = runs
        counters = serial_obs.metrics.counters()
        assert counters.get("street_level.targets") == 6
        assert counters.get("street_level.traceroutes", 0) > 0


class TestFig2Golden:
    def test_observed_fig2a_byte_identical(self, monkeypatch):
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        serial_obs = Observer()
        serial_scenario = get_scenario("small", obs=serial_obs)
        serial = fig2.run_fig2a(serial_scenario, sizes=(10, 40), trials=3)

        monkeypatch.setenv("REPRO_WORKERS", "4")
        parallel_obs = Observer()
        parallel_scenario = get_scenario("small", obs=parallel_obs)
        parallel = fig2.run_fig2a(parallel_scenario, sizes=(10, 40), trials=3)

        assert parallel.series == serial.series
        assert parallel.measured == serial.measured
        assert metrics_report_json(parallel_obs) == metrics_report_json(serial_obs)
        assert parallel_obs.events.to_jsonl() == serial_obs.events.to_jsonl()
        assert parallel_obs.span_tree() == serial_obs.span_tree()


class TestWorkaroundRemoved:
    def test_observed_street_campaign_fans_out(self, monkeypatch):
        """The old serial-when-observed gate must be gone: an observed
        campaign with REPRO_WORKERS=2 goes through the snapshot path."""
        monkeypatch.setenv("REPRO_WORKERS", "2")
        observer = Observer()
        scenario = get_scenario("small", obs=observer)

        absorbed = []
        original_absorb = observer.absorb

        def spy(snapshot):
            absorbed.append(snapshot.item_count)
            return original_absorb(snapshot)

        observer.absorb = spy
        street_runner.street_level_records(scenario, max_targets=4)
        # One absorb for the campaign, carrying all four per-target captures.
        assert absorbed == [4]
