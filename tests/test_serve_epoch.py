"""Epoch swaps: the serving engine follows a churning world exactly.

The contract of :meth:`~repro.serve.ServeEngine.install_epoch`
(``docs/EVOLUTION.md``): after a swap, every answer is byte-identical to
a fresh engine loaded with the new epoch's state, while the memo
survives for exactly the columns whose matrix bytes did not move. The
parity class pins the first half against per-revision batch runs, the
invalidation class pins the second half down to individual
``serve.epoch.*`` counter values, and the chaos class churns epochs
while the fault layer sheds — served answers stay bitwise correct for
whatever gets through.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro import rand
from repro.core import cbg_batch
from repro.errors import ConfigurationError
from repro.evolve import (
    EvolutionConfig,
    EvolutionTimeline,
    epoch_state,
    incremental_matrix,
)
from repro.experiments.scenario import Scenario, config_for_preset
from repro.faults import FaultInjector, FaultPlan
from repro.obs import Observer
from repro.obs import events as _ev
from repro.serve import (
    REJECT_SHED,
    STATUS_NO_ESTIMATE,
    STATUS_OK,
    QueryState,
    ServeEngine,
    TenantConfig,
)

_CHURN = EvolutionConfig(
    revisions=3,
    prefix_move_share=0.30,
    migration_share=0.10,
    probe_session_share=0.15,
)


@pytest.fixture(scope="module")
def quick_scenario():
    return Scenario.build(config_for_preset("quick"))


@pytest.fixture(scope="module")
def timeline(quick_scenario):
    return EvolutionTimeline(
        quick_scenario.world, _CHURN, checker=quick_scenario.checker
    )


@pytest.fixture(scope="module")
def revision_matrices(quick_scenario, timeline):
    matrices = [quick_scenario.rtt_matrix()]
    for revision in range(1, _CHURN.revisions + 1):
        matrices.append(
            incremental_matrix(matrices[-1], timeline, quick_scenario, revision)
        )
    return matrices


def _engine(scenario, **kwargs):
    engine = ServeEngine.from_scenario(scenario, **kwargs)
    engine.register_tenant(TenantConfig(name="t"))
    return engine


def _serve_all(engine, ips, order=None):
    if order is None:
        order = np.arange(len(ips))
    results = engine.geolocate("t", [ips[column] for column in order])
    lats = np.full(len(ips), np.nan)
    lons = np.full(len(ips), np.nan)
    for column, result in zip(order, results):
        if result.status == STATUS_OK:
            lats[column] = result.lat
            lons[column] = result.lon
    return lats, lons


class TestEpochParity:
    def test_swapped_engine_matches_fresh_batch_per_revision(
        self, quick_scenario, timeline, revision_matrices
    ):
        ips = quick_scenario.target_ips
        engine = _engine(quick_scenario, max_batch=8)
        for revision, matrix in enumerate(revision_matrices):
            if revision:
                engine.install_epoch(
                    epoch_state(timeline, quick_scenario, revision, matrix)
                )
            order = rand.generator(("epoch-parity", revision)).permutation(len(ips))
            lats, lons = _serve_all(engine, ips, order)
            expected_lats, expected_lons = cbg_batch.cbg_centroids_batch(
                quick_scenario.vp_lats, quick_scenario.vp_lons, matrix
            )
            np.testing.assert_array_equal(lats, expected_lats)
            np.testing.assert_array_equal(lons, expected_lons)

    def test_swapped_engine_matches_fresh_engine(
        self, quick_scenario, timeline, revision_matrices
    ):
        ips = quick_scenario.target_ips
        followed = _engine(quick_scenario, max_batch=4)
        for revision in range(1, _CHURN.revisions + 1):
            state = epoch_state(
                timeline, quick_scenario, revision, revision_matrices[revision]
            )
            followed.install_epoch(state)
            fresh = ServeEngine(state, max_batch=4)
            fresh.register_tenant(TenantConfig(name="t"))
            got = _serve_all(followed, ips)
            want = _serve_all(fresh, ips)
            np.testing.assert_array_equal(got[0], want[0])
            np.testing.assert_array_equal(got[1], want[1])

    def test_epoch_counts_in_stats(self, quick_scenario, timeline, revision_matrices):
        engine = _engine(quick_scenario)
        assert engine.stats()["epoch"] == 0
        for revision in (1, 2):
            engine.install_epoch(
                epoch_state(
                    timeline, quick_scenario, revision, revision_matrices[revision]
                )
            )
        assert engine.stats()["epoch"] == 2


class TestExactInvalidation:
    def test_counters_match_the_bitwise_column_diff(
        self, quick_scenario, timeline, revision_matrices
    ):
        ips = quick_scenario.target_ips
        obs = Observer()
        engine = ServeEngine(
            QueryState.from_scenario(quick_scenario), obs=obs, max_batch=64
        )
        engine.register_tenant(TenantConfig(name="t"))
        _serve_all(engine, ips)  # memoize every column
        old, new = revision_matrices[0], revision_matrices[1]
        same = (old == new) | (np.isnan(old) & np.isnan(new))
        expected_changed = int((~same.all(axis=0)).sum())
        assert expected_changed > 0, "churn config moved nothing"

        changed = engine.install_epoch(
            epoch_state(timeline, quick_scenario, 1, new), label="r1"
        )
        assert changed == expected_changed
        assert obs.metrics.counter("serve.epoch.swaps") == 1
        assert obs.metrics.counter("serve.epoch.changed_columns") == expected_changed
        # The memo was fully solved, so invalidated == changed and the
        # rest of the columns survive the swap.
        assert obs.metrics.counter("serve.epoch.invalidated") == expected_changed
        assert obs.metrics.counter("serve.epoch.retained") == (
            len(ips) - expected_changed
        )
        [event] = obs.events.of_type(_ev.SERVE_EPOCH)
        fields = dict(event.fields)
        assert fields["epoch"] == 1
        assert fields["changed"] == expected_changed
        assert fields["reason"] == "column-delta"
        assert fields["label"] == "r1"

    def test_retained_columns_answer_from_memo(
        self, quick_scenario, timeline, revision_matrices
    ):
        ips = quick_scenario.target_ips
        obs = Observer()
        engine = ServeEngine(
            QueryState.from_scenario(quick_scenario), obs=obs, max_batch=64
        )
        engine.register_tenant(TenantConfig(name="t"))
        _serve_all(engine, ips)
        hits_before = engine.column_cache_hits
        engine.install_epoch(epoch_state(timeline, quick_scenario, 1, revision_matrices[1]))
        retained = int(obs.metrics.counter("serve.epoch.retained"))
        changed = int(obs.metrics.counter("serve.epoch.changed_columns"))
        _serve_all(engine, ips)
        # Exactly the retained columns hit the memo; exactly the changed
        # ones went back through the kernel.
        assert engine.column_cache_hits - hits_before == retained
        [batch] = obs.events.of_type(_ev.SERVE_BATCH)[-1:]
        fields = dict(batch.fields)
        assert fields["cached"] == retained
        assert fields["columns"] == changed

    def test_equal_values_with_other_bits_count_as_changed(self, quick_scenario):
        """The column diff compares bit patterns, not values.

        ``-0.0`` for ``0.0`` and a NaN with another payload compare equal
        as values, but their columns count as changed: re-derived and
        solved again, they answer exactly as a fresh engine over the new
        state does.
        """
        ips = quick_scenario.target_ips
        state = QueryState.from_scenario(quick_scenario)
        base = state.rtt_matrix.copy()
        base[0, 0] = 0.0
        base[1, 1] = np.nan
        moved = base.copy()
        moved[0, 0] = -0.0
        moved[1, 1] = np.array([0x7FF8000000000001], dtype=np.uint64).view(np.float64)[0]
        assert np.isnan(moved[1, 1])
        old = dataclasses.replace(state, rtt_matrix=base)
        new = dataclasses.replace(state, rtt_matrix=moved)
        obs = Observer()
        engine = ServeEngine(old, obs=obs, max_batch=len(ips))
        engine.register_tenant(TenantConfig(name="t"))
        assert engine.install_epoch(new) == 2
        [event] = obs.events.of_type(_ev.SERVE_EPOCH)
        assert dict(event.fields)["invalidated"] == 2
        got = _serve_all(engine, ips)
        [batch] = obs.events.of_type(_ev.SERVE_BATCH)
        assert dict(batch.fields)["columns"] == 2
        fresh = ServeEngine(new)
        fresh.register_tenant(TenantConfig(name="t"))
        want = _serve_all(fresh, ips)
        assert got[0].tobytes() == want[0].tobytes()
        assert got[1].tobytes() == want[1].tobytes()

    def test_vp_drift_invalidates_everything(self, quick_scenario, revision_matrices):
        ips = quick_scenario.target_ips
        obs = Observer()
        engine = ServeEngine(
            QueryState.from_scenario(quick_scenario), obs=obs, max_batch=64
        )
        engine.register_tenant(TenantConfig(name="t"))
        _serve_all(engine, ips)
        drifted = QueryState(
            vp_lats=quick_scenario.vp_lats + 0.25,
            vp_lons=quick_scenario.vp_lons,
            rtt_matrix=revision_matrices[0],
            target_ips=tuple(ips),
            seed=quick_scenario.world.config.seed,
        )
        changed = engine.install_epoch(drifted)
        assert changed == len(ips)
        [event] = obs.events.of_type(_ev.SERVE_EPOCH)
        assert dict(event.fields)["reason"] == "vp-drift"
        # Post-swap answers match a batch run over the drifted VP set.
        lats, lons = _serve_all(engine, ips)
        expected = cbg_batch.cbg_centroids_batch(
            drifted.vp_lats, drifted.vp_lons, drifted.rtt_matrix
        )
        np.testing.assert_array_equal(lats, expected[0])
        np.testing.assert_array_equal(lons, expected[1])

    def test_conversion_speed_change_invalidates_everything(self, quick_scenario):
        ips = quick_scenario.target_ips
        state = QueryState.from_scenario(quick_scenario)
        slower = dataclasses.replace(state, soi_fraction=state.soi_fraction * 0.5)
        obs = Observer()
        engine = ServeEngine(state, obs=obs)
        engine.register_tenant(TenantConfig(name="t"))
        assert engine.install_epoch(slower) == len(ips)
        [event] = obs.events.of_type(_ev.SERVE_EPOCH)
        assert dict(event.fields)["reason"] == "soi-change"
        lats, lons = _serve_all(engine, ips)
        expected = cbg_batch.cbg_centroids_batch(
            slower.vp_lats,
            slower.vp_lons,
            slower.rtt_matrix,
            soi_fraction=slower.soi_fraction,
        )
        np.testing.assert_array_equal(lats, expected[0])
        np.testing.assert_array_equal(lons, expected[1])

    def test_new_target_set_is_a_configuration_error(
        self, quick_scenario, revision_matrices
    ):
        engine = _engine(quick_scenario)
        ips = list(quick_scenario.target_ips)
        truncated = QueryState(
            vp_lats=quick_scenario.vp_lats,
            vp_lons=quick_scenario.vp_lons,
            rtt_matrix=revision_matrices[0][:, :-1],
            target_ips=tuple(ips[:-1]),
            seed=quick_scenario.world.config.seed,
        )
        with pytest.raises(ConfigurationError):
            engine.install_epoch(truncated)

    def test_noop_swap_retains_the_whole_memo(self, quick_scenario, timeline):
        ips = quick_scenario.target_ips
        obs = Observer()
        engine = ServeEngine(
            QueryState.from_scenario(quick_scenario), obs=obs, max_batch=64
        )
        engine.register_tenant(TenantConfig(name="t"))
        _serve_all(engine, ips)
        changed = engine.install_epoch(
            epoch_state(timeline, quick_scenario, 0, quick_scenario.rtt_matrix())
        )
        assert changed == 0
        assert obs.metrics.counter("serve.epoch.retained") == len(ips)
        hits_before = engine.column_cache_hits
        _serve_all(engine, ips)
        assert engine.column_cache_hits - hits_before == len(ips)


class TestChaosUnderChurn:
    def test_shedding_and_swaps_interleave_without_divergence(
        self, quick_scenario, timeline, revision_matrices
    ):
        ips = quick_scenario.target_ips
        engine = ServeEngine.from_scenario(
            quick_scenario,
            max_batch=8,
            faults=FaultInjector(FaultPlan(seed=3, api_server_error_rate=0.4)),
        )
        engine.register_tenant(TenantConfig(name="t"))
        shed_total = 0
        for revision, matrix in enumerate(revision_matrices):
            if revision:
                engine.install_epoch(
                    epoch_state(timeline, quick_scenario, revision, matrix)
                )
            expected_lats, expected_lons = cbg_batch.cbg_centroids_batch(
                quick_scenario.vp_lats, quick_scenario.vp_lons, matrix
            )
            order = rand.generator(("epoch-chaos", revision)).permutation(len(ips))
            results = engine.geolocate("t", [ips[column] for column in order])
            for column, result in zip(order, results):
                if result.status == REJECT_SHED:
                    shed_total += 1
                    assert result.detail == "ApiServerError"
                elif result.status == STATUS_OK:
                    assert result.lat == expected_lats[column]
                    assert result.lon == expected_lons[column]
                else:
                    assert result.status == STATUS_NO_ESTIMATE
                    assert np.isnan(expected_lats[column])
        assert shed_total > 0, "fault plan shed nothing across four epochs"
        assert engine.epoch == _CHURN.revisions
