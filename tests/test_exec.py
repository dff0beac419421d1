"""Executor tests: pool mechanics and campaign determinism.

The contract under test is the one :mod:`repro.exec.pool` documents —
``parallel_map`` returns ``[fn(item) for item in items]`` byte-identically
regardless of worker count — plus the campaign-level consequences: Figure
2 trials, street-level targets and drift revisions produce identical
results serial vs multi-worker, because their randomness is counter-keyed
per work item; and nothing a campaign binds for its fan-out outlives the
call.
"""

from __future__ import annotations

import gc
import os
import weakref

import numpy as np
import pytest

from repro import hints
from repro.exec import chunked, default_chunksize, parallel_map, worker_count
from repro.exec.pool import _fork_context
from repro.experiments import drift, fig2, street_runner
from repro.obs.observer import Observer
from repro.experiments.scenario import get_scenario


def _square(x: int) -> int:
    """Module-level worker."""
    return x * x


class TestWorkerCount:
    def test_unset_is_serial(self, monkeypatch):
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        assert worker_count() == 1

    @pytest.mark.parametrize("raw", ["", "0", "1", " 1 "])
    def test_serial_spellings(self, monkeypatch, raw):
        monkeypatch.setenv("REPRO_WORKERS", raw)
        assert worker_count() == 1

    def test_explicit_count(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "4")
        assert worker_count() == 4

    def test_auto_uses_cpu_count(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "auto")
        assert worker_count() == (os.cpu_count() or 1)

    def test_garbage_raises(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "many")
        with pytest.raises(ValueError):
            worker_count()

    @pytest.mark.parametrize("raw", ["-1", "-8", " -2 "])
    def test_negative_raises(self, monkeypatch, raw):
        monkeypatch.setenv("REPRO_WORKERS", raw)
        with pytest.raises(ValueError, match="non-negative"):
            worker_count()

    def test_garbage_error_names_the_value(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "2.5")
        with pytest.raises(ValueError, match="2.5"):
            worker_count()


class TestChunked:
    def test_preserves_order_and_content(self):
        assert chunked(list(range(7)), 3) == [[0, 1, 2], [3, 4, 5], [6]]

    def test_exact_division(self):
        assert chunked([1, 2, 3, 4], 2) == [[1, 2], [3, 4]]

    def test_empty(self):
        assert chunked([], 5) == []

    def test_bad_size_raises(self):
        with pytest.raises(ValueError):
            chunked([1], 0)


class TestDefaultChunksize:
    def test_four_chunks_per_worker(self):
        assert default_chunksize(100, 2) == 12

    def test_never_below_one(self):
        assert default_chunksize(3, 8) == 1
        assert default_chunksize(0, 1) == 1


class TestParallelMap:
    def test_serial_is_plain_comprehension(self):
        items = list(range(20))
        assert parallel_map(_square, items, workers=1) == [x * x for x in items]

    def test_two_workers_match_serial(self):
        if _fork_context() is None:  # pragma: no cover - non-POSIX
            pytest.skip("fork unavailable")
        items = list(range(37))
        serial = parallel_map(_square, items, workers=1)
        parallel = parallel_map(_square, items, workers=2)
        assert parallel == serial

    def test_empty_items(self):
        assert parallel_map(_square, [], workers=4) == []

    def test_workers_env_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "2")
        items = list(range(9))
        assert parallel_map(_square, items) == [x * x for x in items]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_closures_run_unpickled(self, workers):
        """A lambda over a local array maps alike serially and forked."""
        offsets = np.arange(5.0)
        items = list(range(7))
        expected = [float(offsets.sum()) + x for x in items]
        assert parallel_map(
            lambda x: float(offsets.sum()) + x, items, workers=workers
        ) == expected


class TestCampaignDeterminism:
    """Serial and multi-worker campaigns must be byte-identical."""

    def test_fig2a_series_identical(self, small_scenario, monkeypatch):
        if _fork_context() is None:  # pragma: no cover - non-POSIX
            pytest.skip("fork unavailable")
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        serial = fig2.run_fig2a(small_scenario, sizes=(10, 50), trials=3)
        monkeypatch.setenv("REPRO_WORKERS", "2")
        parallel = fig2.run_fig2a(small_scenario, sizes=(10, 50), trials=3)
        assert serial.series == parallel.series
        assert serial.measured == parallel.measured
        assert serial.table == parallel.table

    def test_street_records_identical(self, small_scenario, monkeypatch):
        if _fork_context() is None:  # pragma: no cover - non-POSIX
            pytest.skip("fork unavailable")
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        small_scenario.street_records.pop(6, None)
        serial = street_runner.street_level_records(small_scenario, max_targets=6)
        small_scenario.street_records.pop(6, None)
        monkeypatch.setenv("REPRO_WORKERS", "2")
        parallel = street_runner.street_level_records(small_scenario, max_targets=6)
        small_scenario.street_records.pop(6, None)

        assert len(serial) == len(parallel) == 6
        for a, b in zip(serial, parallel):
            assert a.target.host_id == b.target.host_id
            np.testing.assert_array_equal(a.street_error_km, b.street_error_km)
            np.testing.assert_array_equal(a.cbg_error_km, b.cbg_error_km)
            np.testing.assert_array_equal(a.oracle_error_km, b.oracle_error_km)
            assert a.landmark_distances_km == b.landmark_distances_km
            assert a.landmark_measured_km == b.landmark_measured_km

    def test_observed_street_campaign_counts_match_serial(self, monkeypatch):
        """Observed campaigns fan out and still produce complete counters.

        A 2-worker request with an enabled observer captures each target's
        metrics worker-side and folds them back into the live observer; the
        counter totals must equal an explicit serial run's.
        """
        obs_serial = Observer()
        scenario_serial = get_scenario("small", obs=obs_serial)
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        street_runner.street_level_records(scenario_serial, max_targets=4)

        obs_parallel = Observer()
        scenario_parallel = get_scenario("small", obs=obs_parallel)
        monkeypatch.setenv("REPRO_WORKERS", "2")
        street_runner.street_level_records(scenario_parallel, max_targets=4)

        serial_counts = obs_serial.metrics.counters()
        parallel_counts = obs_parallel.metrics.counters()
        assert serial_counts == parallel_counts
        assert serial_counts.get("street_level.targets") == 4

    def test_drift_identical(self, monkeypatch):
        if _fork_context() is None:  # pragma: no cover - non-POSIX
            pytest.skip("fork unavailable")
        scenario = get_scenario("quick")
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        serial = drift.run_drift(scenario)
        monkeypatch.setenv("REPRO_WORKERS", "2")
        parallel = drift.run_drift(scenario)
        assert serial.table == parallel.table
        np.testing.assert_equal(parallel.series, serial.series)
        np.testing.assert_equal(parallel.measured, serial.measured)


def _observer_outlives(campaign) -> bool:
    """Whether an observed quick scenario's observer survives ``campaign``
    once the caller has dropped the scenario and the observer."""
    obs = Observer()
    scenario = get_scenario("quick", obs=obs)
    campaign(scenario)
    probe = weakref.ref(obs)
    del obs, scenario
    gc.collect()
    return probe() is not None


class TestCampaignStateRetention:
    """A campaign's fan-out state lives and dies with its call."""

    def test_fig2a_releases_the_observer(self):
        assert not _observer_outlives(
            lambda scenario: fig2.run_fig2a(scenario, sizes=(10,), trials=2)
        )

    def test_mine_hints_releases_the_observer(self):
        assert not _observer_outlives(hints.mine_hints)
