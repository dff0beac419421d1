"""Parity suite: the batched CBG kernel vs the per-target reference loop.

The batched kernel promises *bitwise* identical results to calling
:func:`repro.core.cbg.cbg_centroid_fast` once per target — not "close",
equal. Every comparison here is ``np.array_equal(..., equal_nan=True)``
on raw float64 output, across the edge cases the kernel handles with
special machinery: all-NaN columns, ``min_vps`` starvation, ``max_active``
overflow (the exact trim replay), near-full masked subsets, the resident
solver slot vs throwaway solvers, and chunked execution.
"""

import math

import numpy as np
import pytest

from repro.constants import SOI_FRACTION_CBG
from repro.core import cbg_batch
from repro.core.cbg import cbg_centroid_fast, cbg_errors_for_subsets, cbg_estimate
from repro.core.cbg_batch import (
    CbgBatchSolver,
    cbg_centroids_batch,
    cbg_errors_batch,
    cbg_errors_for_subsets_loop,
)
from repro.geo.coords import GeoPoint
from repro.obs.observer import Observer


@pytest.fixture(autouse=True)
def fresh_slot(monkeypatch):
    """Each test starts without a resident solver; the slot is put back after."""
    monkeypatch.setattr(cbg_batch, "_SOLVER_SLOT", None)
    monkeypatch.setattr(cbg_batch, "_LAST_MISS", None)


def _random_world(rng, n_vps, n_targets, nan_fraction=0.3):
    """A synthetic campaign: VP/target coordinates plus an RTT matrix."""
    vp_lats = rng.uniform(-75, 75, n_vps)
    vp_lons = rng.uniform(-180, 180, n_vps)
    t_lats = rng.uniform(-75, 75, n_targets)
    t_lons = rng.uniform(-180, 180, n_targets)
    matrix = rng.uniform(1.0, 250.0, (n_vps, n_targets))
    mask = rng.random((n_vps, n_targets)) < nan_fraction
    matrix[mask] = np.nan
    return vp_lats, vp_lons, t_lats, t_lons, matrix


def _loop_centroids(vp_lats, vp_lons, matrix, subset, **kwargs):
    """Reference: one `cbg_centroid_fast` call per column."""
    lats = np.full(matrix.shape[1], np.nan)
    lons = np.full(matrix.shape[1], np.nan)
    for t in range(matrix.shape[1]):
        centroid = cbg_centroid_fast(
            vp_lats[subset], vp_lons[subset], matrix[subset, t], **kwargs
        )
        if centroid is not None:
            lats[t], lons[t] = centroid
    return lats, lons


def _assert_bitwise(a, b):
    assert np.array_equal(a, b, equal_nan=True)


class TestCentroidParity:
    def test_random_subsets_bitwise(self):
        rng = np.random.default_rng(7)
        vp_lats, vp_lons, _tl, _to, matrix = _random_world(rng, 120, 40)
        for size in (3, 10, 60, 119):
            subset = np.sort(rng.choice(120, size=size, replace=False))
            got = cbg_centroids_batch(vp_lats, vp_lons, matrix, subset)
            want = _loop_centroids(vp_lats, vp_lons, matrix, subset)
            _assert_bitwise(got[0], want[0])
            _assert_bitwise(got[1], want[1])

    def test_full_range_and_none_subset_agree(self):
        rng = np.random.default_rng(8)
        vp_lats, vp_lons, _tl, _to, matrix = _random_world(rng, 50, 20)
        everyone = np.arange(50)
        a = cbg_centroids_batch(vp_lats, vp_lons, matrix, everyone)
        b = cbg_centroids_batch(vp_lats, vp_lons, matrix, None)
        want = _loop_centroids(vp_lats, vp_lons, matrix, everyone)
        for got in (a, b):
            _assert_bitwise(got[0], want[0])
            _assert_bitwise(got[1], want[1])

    def test_unsorted_subset_bitwise(self):
        rng = np.random.default_rng(9)
        vp_lats, vp_lons, _tl, _to, matrix = _random_world(rng, 80, 25)
        subset = rng.permutation(80)[:30]  # deliberately unsorted
        got = cbg_centroids_batch(vp_lats, vp_lons, matrix, subset)
        want = _loop_centroids(vp_lats, vp_lons, matrix, subset)
        _assert_bitwise(got[0], want[0])
        _assert_bitwise(got[1], want[1])

    def test_all_nan_columns(self):
        rng = np.random.default_rng(10)
        vp_lats, vp_lons, _tl, _to, matrix = _random_world(rng, 30, 12)
        matrix[:, [2, 7, 11]] = np.nan
        subset = np.arange(30)
        got_lats, got_lons = cbg_centroids_batch(vp_lats, vp_lons, matrix, subset)
        assert np.isnan(got_lats[[2, 7, 11]]).all()
        assert np.isnan(got_lons[[2, 7, 11]]).all()
        want = _loop_centroids(vp_lats, vp_lons, matrix, subset)
        _assert_bitwise(got_lats, want[0])
        _assert_bitwise(got_lons, want[1])

    def test_min_vps_starvation(self):
        rng = np.random.default_rng(11)
        vp_lats, vp_lons, _tl, _to, matrix = _random_world(
            rng, 40, 15, nan_fraction=0.9
        )
        subset = np.sort(rng.choice(40, size=25, replace=False))
        for min_vps in (1, 3, 10):
            got = cbg_centroids_batch(
                vp_lats, vp_lons, matrix, subset, min_vps=min_vps
            )
            want = _loop_centroids(
                vp_lats, vp_lons, matrix, subset, min_vps=min_vps
            )
            _assert_bitwise(got[0], want[0])
            _assert_bitwise(got[1], want[1])

    def test_max_active_overflow_trim(self):
        # Tiny max_active forces the binding-set trim (the reference's
        # slack argsort) on essentially every column.
        rng = np.random.default_rng(12)
        vp_lats, vp_lons, _tl, _to, matrix = _random_world(
            rng, 90, 30, nan_fraction=0.05
        )
        subset = np.arange(90)
        for max_active in (2, 5, 16):
            got = cbg_centroids_batch(
                vp_lats, vp_lons, matrix, subset, max_active=max_active
            )
            want = _loop_centroids(
                vp_lats, vp_lons, matrix, subset, max_active=max_active
            )
            _assert_bitwise(got[0], want[0])
            _assert_bitwise(got[1], want[1])

    def test_zero_rtt_degenerate_columns(self):
        rng = np.random.default_rng(13)
        vp_lats, vp_lons, _tl, _to, matrix = _random_world(rng, 25, 10)
        matrix[4, :5] = 0.0  # zero radius pins the estimate at the VP
        subset = np.arange(25)
        got = cbg_centroids_batch(vp_lats, vp_lons, matrix, subset)
        want = _loop_centroids(vp_lats, vp_lons, matrix, subset)
        _assert_bitwise(got[0], want[0])
        _assert_bitwise(got[1], want[1])

    def test_chunked_execution_bitwise(self, monkeypatch):
        rng = np.random.default_rng(14)
        vp_lats, vp_lons, _tl, _to, matrix = _random_world(rng, 60, 37)
        subset = np.sort(rng.choice(60, size=45, replace=False))
        whole = cbg_centroids_batch(vp_lats, vp_lons, matrix, subset)
        for chunk in (1, 5, 36, 37, 1000):
            monkeypatch.setattr(cbg_batch, "_adaptive_chunk", lambda width: chunk)
            parts = cbg_centroids_batch(vp_lats, vp_lons, matrix, subset)
            _assert_bitwise(whole[0], parts[0])
            _assert_bitwise(whole[1], parts[1])

    def test_soi_fraction_forwarded(self):
        rng = np.random.default_rng(15)
        vp_lats, vp_lons, _tl, _to, matrix = _random_world(rng, 40, 16)
        subset = np.arange(40)
        got = cbg_centroids_batch(
            vp_lats, vp_lons, matrix, subset, soi_fraction=4.0 / 9.0
        )
        want = _loop_centroids(
            vp_lats, vp_lons, matrix, subset, soi_fraction=4.0 / 9.0
        )
        _assert_bitwise(got[0], want[0])
        _assert_bitwise(got[1], want[1])


class TestDerivedCache:
    def test_cached_and_uncached_calls_bitwise(self):
        rng = np.random.default_rng(16)
        vp_lats, vp_lons, _tl, _to, matrix = _random_world(rng, 70, 24)
        subset = np.sort(rng.choice(70, size=30, replace=False))
        cold = cbg_centroids_batch(vp_lats, vp_lons, matrix, subset)
        # Second and later sightings of the same matrix run off the slot.
        warm1 = cbg_centroids_batch(vp_lats, vp_lons, matrix, subset)
        warm2 = cbg_centroids_batch(vp_lats, vp_lons, matrix, subset)
        assert isinstance(cbg_batch._SOLVER_SLOT, CbgBatchSolver)
        assert cbg_batch._SOLVER_SLOT.matrix is matrix
        for got in (warm1, warm2):
            _assert_bitwise(cold[0], got[0])
            _assert_bitwise(cold[1], got[1])

    def test_masked_near_full_mode_bitwise(self):
        # A sorted subset covering >= 3/4 of the VPs takes the full-width
        # masked path off the resident solver; the throwaway solver and
        # the reference loop must agree bitwise.
        rng = np.random.default_rng(17)
        vp_lats, vp_lons, _tl, _to, matrix = _random_world(rng, 100, 30)
        subset = np.sort(rng.choice(100, size=90, replace=False))
        cold = cbg_centroids_batch(vp_lats, vp_lons, matrix, subset)
        warm = cbg_centroids_batch(vp_lats, vp_lons, matrix, subset)
        want = _loop_centroids(vp_lats, vp_lons, matrix, subset)
        for got in (cold, warm):
            _assert_bitwise(got[0], want[0])
            _assert_bitwise(got[1], want[1])

    def test_cache_not_fooled_by_lookalike_matrix(self):
        rng = np.random.default_rng(18)
        vp_lats, vp_lons, _tl, _to, matrix = _random_world(rng, 40, 14)
        subset = np.arange(40)
        cbg_centroids_batch(vp_lats, vp_lons, matrix, subset)
        cbg_centroids_batch(vp_lats, vp_lons, matrix, subset)  # slot warm
        other = matrix + 1.0
        got = cbg_centroids_batch(vp_lats, vp_lons, other, subset)
        want = _loop_centroids(vp_lats, vp_lons, other, subset)
        _assert_bitwise(got[0], want[0])
        _assert_bitwise(got[1], want[1])

    @pytest.mark.parametrize("size", [20, 45])
    def test_warm_slot_serves_only_its_own_inputs(self, size):
        # The slot is warm with the default inputs; the same matrix object
        # under other VP coordinates, soi_fraction, min_vps or max_active
        # must be answered for those inputs (gather and masked subsets).
        rng = np.random.default_rng(24)
        vp_lats, vp_lons, _tl, _to, matrix = _random_world(
            rng, 50, 18, nan_fraction=0.4
        )
        subset = np.sort(rng.choice(50, size=size, replace=False))
        moved_lats = vp_lats.copy()
        moved_lats[subset[::2]] += 3.0
        cases = [
            (moved_lats, vp_lons, {}),
            (vp_lats, vp_lons[::-1].copy(), {}),
            (vp_lats, vp_lons, {"soi_fraction": 4.0 / 9.0}),
            (vp_lats, vp_lons, {"min_vps": size // 2 + 2}),
            (vp_lats, vp_lons, {"max_active": 1}),
        ]
        for lats, lons, kwargs in cases:
            for _ in range(2):  # a matrix claims the slot on its second sighting
                cbg_centroids_batch(vp_lats, vp_lons, matrix, subset)
            got = cbg_centroids_batch(lats, lons, matrix, subset, **kwargs)
            want = _loop_centroids(lats, lons, matrix, subset, **kwargs)
            _assert_bitwise(got[0], want[0])
            _assert_bitwise(got[1], want[1])


class TestErrorsParity:
    def test_errors_bitwise_vs_loop(self):
        rng = np.random.default_rng(19)
        vp_lats, vp_lons, t_lats, t_lons, matrix = _random_world(rng, 80, 30)
        for size in (5, 40, 75):
            subset = np.sort(rng.choice(80, size=size, replace=False))
            got = cbg_errors_batch(
                vp_lats, vp_lons, matrix, t_lats, t_lons, subset
            )
            want = cbg_errors_for_subsets_loop(
                vp_lats, vp_lons, matrix, t_lats, t_lons, subset
            )
            _assert_bitwise(got, want)

    def test_public_wrapper_delegates_to_batch(self):
        rng = np.random.default_rng(20)
        vp_lats, vp_lons, t_lats, t_lons, matrix = _random_world(rng, 30, 10)
        subset = np.arange(30)
        got = cbg_errors_for_subsets(
            vp_lats, vp_lons, matrix, t_lats, t_lons, subset
        )
        want = cbg_errors_for_subsets_loop(
            vp_lats, vp_lons, matrix, t_lats, t_lons, subset
        )
        _assert_bitwise(got, want)

    def test_campaign_parity_on_small_scenario(self, small_scenario):
        matrix = small_scenario.rtt_matrix()
        vp_lats = small_scenario.vp_lats
        vp_lons = small_scenario.vp_lons
        t_lats = small_scenario.target_true_lats
        t_lons = small_scenario.target_true_lons
        n_vps = len(small_scenario.vps)
        rng = np.random.default_rng(21)
        for size in (10, n_vps // 2, max(1, n_vps - 3), n_vps):
            subset = np.sort(rng.choice(n_vps, size=size, replace=False))
            got = cbg_errors_batch(
                vp_lats, vp_lons, matrix, t_lats, t_lons, subset
            )
            want = cbg_errors_for_subsets_loop(
                vp_lats, vp_lons, matrix, t_lats, t_lons, subset
            )
            _assert_bitwise(got, want)


class TestZeroWidthVpAxis:
    """An empty VP axis answers all-NaN; it never raises."""

    def test_empty_subset_matches_loop(self):
        rng = np.random.default_rng(23)
        vp_lats, vp_lons, t_lats, t_lons, matrix = _random_world(rng, 30, 12)
        obs_loop = Observer()
        want = cbg_errors_for_subsets_loop(
            vp_lats, vp_lons, matrix, t_lats, t_lons, [], obs=obs_loop
        )
        assert np.isnan(want).all()
        for subset in ([], np.array([], dtype=np.intp)):
            obs_batch = Observer()
            got = cbg_errors_batch(
                vp_lats, vp_lons, matrix, t_lats, t_lons, subset, obs=obs_batch
            )
            _assert_bitwise(got, want)
            assert obs_batch.metrics.counters() == obs_loop.metrics.counters()
            lats, lons = cbg_centroids_batch(vp_lats, vp_lons, matrix, subset)
            assert np.isnan(lats).all() and np.isnan(lons).all()

    def test_zero_vp_solver(self):
        solver = CbgBatchSolver(np.zeros(0), np.zeros(0), np.zeros((0, 4)))
        lats, lons = solver.centroids()
        assert lats.shape == (4,)
        assert np.isnan(lats).all() and np.isnan(lons).all()
        solver.replace_columns(np.zeros((0, 4)), [1])
        assert np.isnan(solver.centroids([1])[0]).all()


#: Derived per-target rows the solver keeps (targets-major).
_SOLVER_ROWS = ("_radii_t", "_trig_t", "_counts", "_r_min", "_tightest")


def _fuzz_solver_inputs(index):
    """VP coordinates and RTT matrix of one :mod:`repro.check.fuzz` world."""
    from repro.check.fuzz import fuzz_config
    from repro.experiments.scenario import Scenario

    state = Scenario.build(fuzz_config(index)).query_state()
    return state.vp_lats, state.vp_lons, state.rtt_matrix


def _remeasured(matrix, columns, seed):
    """``matrix`` with ``columns`` re-measured: each takes another target's
    column (its successor on a seeded cycle through all targets) and loses
    about a fifth of its answers.

    A subset of a real target's disks stays feasible, so the moved columns
    reach the certified path instead of the exact fallback, which answers
    from the matrix itself and would hide a stale per-target stat.
    """
    rng = np.random.default_rng(seed)
    new = matrix.copy()
    cols = np.asarray(columns, dtype=np.intp)
    cycle = rng.permutation(matrix.shape[1])
    donor = np.empty_like(cycle)
    donor[cycle] = np.roll(cycle, -1)
    block = matrix[:, donor[cols]]
    block[rng.random(block.shape) < 0.2] = np.nan
    new[:, cols] = block
    return new


def _exact_fallbacks(obs):
    return obs.metrics.counters().get("cbg.batch_exact_fallback", 0)


def _assert_solver_matches_fresh(solver, vp_lats, vp_lons, matrix, columns=None):
    """Answers (all columns) and derived rows (``columns``, default all)
    equal a fresh solver's over ``matrix``, bitwise, and the requested
    stale rows are mostly answered on the certified path."""
    fresh = CbgBatchSolver(vp_lats, vp_lons, matrix)
    rows = np.arange(fresh.n_targets) if columns is None else np.asarray(columns)
    stale = int(solver._stale[rows].sum())
    obs = Observer()
    got = solver.centroids(rows, obs=obs)
    if stale:
        assert _exact_fallbacks(obs) < stale
    want = fresh.centroids(rows)
    _assert_bitwise(got[0], want[0])
    _assert_bitwise(got[1], want[1])
    for name in _SOLVER_ROWS:
        assert getattr(solver, name)[rows].tobytes() == getattr(fresh, name)[rows].tobytes(), name
    got_all = solver.centroids()
    want_all = fresh.centroids()
    assert got_all[0].tobytes() == want_all[0].tobytes()
    assert got_all[1].tobytes() == want_all[1].tobytes()
    for name in _SOLVER_ROWS:
        assert getattr(solver, name).tobytes() == getattr(fresh, name).tobytes(), name
    assert not solver._stale.any()


class TestSolverRowReplacement:
    """``replace_columns`` + first-use re-derivation == a fresh solver."""

    @pytest.mark.parametrize("index", range(4))
    def test_column_sets_over_fuzz_worlds(self, index):
        vp_lats, vp_lons, base = _fuzz_solver_inputs(index)
        n = base.shape[1]
        rng = np.random.default_rng(index)
        some = np.sort(rng.choice(n, size=max(2, n // 4), replace=False))
        cases = {
            "empty": np.zeros(0, dtype=np.intp),
            "one": some[:1],
            "some": some,
            "all": np.arange(n),
        }
        for label, columns in cases.items():
            solver = CbgBatchSolver(vp_lats, vp_lons, base)
            new = _remeasured(base, columns, seed=(index, len(columns)))
            solver.replace_columns(new, columns)
            assert solver._stale.sum() == len(columns), label
            _assert_solver_matches_fresh(solver, vp_lats, vp_lons, new, columns)

    @pytest.mark.parametrize("index", range(4))
    def test_changed_twice_before_requested(self, index):
        vp_lats, vp_lons, base = _fuzz_solver_inputs(index)
        n = base.shape[1]
        first_cols = np.arange(0, n, 2)
        second_cols = np.arange(0, n, 3)
        first = _remeasured(base, first_cols, seed=(index, 1))
        second = _remeasured(first, second_cols, seed=(index, 2))
        solver = CbgBatchSolver(vp_lats, vp_lons, base)
        solver.replace_columns(first, first_cols)
        solver.replace_columns(second, second_cols)
        _assert_solver_matches_fresh(solver, vp_lats, vp_lons, second)

    @pytest.mark.parametrize("index", range(4))
    def test_revert_to_an_earlier_matrix(self, index):
        vp_lats, vp_lons, base = _fuzz_solver_inputs(index)
        columns = np.arange(1, base.shape[1], 2)
        moved = _remeasured(base, columns, seed=(index, 3))
        solver = CbgBatchSolver(vp_lats, vp_lons, base)
        solver.replace_columns(moved, columns)
        _assert_solver_matches_fresh(solver, vp_lats, vp_lons, moved, columns)
        solver.replace_columns(base, columns)
        _assert_solver_matches_fresh(solver, vp_lats, vp_lons, base, columns[:1])

    def test_only_requested_stale_rows_are_derived(self):
        vp_lats, vp_lons, base = _fuzz_solver_inputs(0)
        columns = np.array([0, 3, 5])
        moved = _remeasured(base, columns, seed=4)
        solver = CbgBatchSolver(vp_lats, vp_lons, base)
        before = solver._radii_t[5].tobytes()
        solver.replace_columns(moved, columns)
        assert solver._radii_t[5].tobytes() == before  # nothing derived yet
        fresh = CbgBatchSolver(vp_lats, vp_lons, moved)
        obs = Observer()
        got = solver.centroids([3, 0, 3], obs=obs)
        assert _exact_fallbacks(obs) < 2
        want = fresh.centroids([3, 0, 3])
        _assert_bitwise(got[0], want[0])
        _assert_bitwise(got[1], want[1])
        assert np.nonzero(solver._stale)[0].tolist() == [5]
        assert solver._radii_t[5].tobytes() == before

    def test_refused_replacement_changes_nothing(self):
        vp_lats, vp_lons, base = _fuzz_solver_inputs(1)
        solver = CbgBatchSolver(vp_lats, vp_lons, base)
        moved = _remeasured(base, [0], seed=5)
        with pytest.raises(ValueError):
            solver.replace_columns(moved[:, :-1], [0])
        with pytest.raises(IndexError):
            solver.replace_columns(moved, [0, base.shape[1]])
        assert solver.matrix is not moved
        assert not solver._stale.any()
        _assert_solver_matches_fresh(solver, vp_lats, vp_lons, base)


def _vp_modes(rng, n_vps):
    """One VP subset per solver mode, plus the inputs that normalise away."""
    near_full = (7 * n_vps) // 8
    return {
        "none": None,
        "full range": np.arange(n_vps),
        "masked": np.sort(rng.choice(n_vps, size=near_full, replace=False)),
        "gathered": np.sort(rng.choice(n_vps, size=n_vps // 3, replace=False)),
        "unsorted": rng.permutation(n_vps)[:near_full],
        "empty": [],
    }


class TestSolverVpSubsets:
    """``centroids(columns, vps)`` in every VP mode, column lists included."""

    @pytest.mark.parametrize("index", range(4))
    def test_modes_match_loop_over_fuzz_worlds(self, index):
        vp_lats, vp_lons, matrix = _fuzz_solver_inputs(index)
        n_vps, n = matrix.shape
        rng = np.random.default_rng([index, 25])
        columns = rng.choice(n, size=n + 3, replace=True)  # duplicates included
        solver = CbgBatchSolver(vp_lats, vp_lons, matrix)
        for label, vps in _vp_modes(rng, n_vps).items():
            rows = np.arange(n_vps) if vps is None else np.asarray(vps, dtype=np.intp)
            want_lats, want_lons = _loop_centroids(vp_lats, vp_lons, matrix, rows)
            got_lats, got_lons = solver.centroids(vps=vps)
            assert got_lats.tobytes() == want_lats.tobytes(), label
            assert got_lons.tobytes() == want_lons.tobytes(), label
            got_lats, got_lons = solver.centroids(columns, vps=vps)
            assert got_lats.tobytes() == want_lats[columns].tobytes(), label
            assert got_lons.tobytes() == want_lons[columns].tobytes(), label

    @pytest.mark.parametrize("index", range(4))
    def test_replaced_columns_under_vp_subsets(self, index):
        # Stale rows are re-derived before the masked mode repairs the
        # stats against the excluded rows, and before rows are gathered.
        # The moved columns take other targets' measured RTTs, so they
        # stay feasible: stale stats cannot hide behind the exact
        # fallback, which answers from the matrix itself.
        vp_lats, vp_lons, base = _fuzz_solver_inputs(index)
        n_vps, n = base.shape
        rng = np.random.default_rng([index, 26])
        columns = np.sort(rng.choice(n, size=max(2, n // 4), replace=False))
        moved = base.copy()
        moved[:, columns] = base[:, np.roll(columns, 1)]
        fresh = CbgBatchSolver(vp_lats, vp_lons, moved)
        modes = _vp_modes(rng, n_vps)
        for label in ("masked", "gathered"):
            for request in (columns, columns[::-1], None):
                solver = CbgBatchSolver(vp_lats, vp_lons, base)
                solver.replace_columns(moved, columns)
                obs_got, obs_want = Observer(), Observer()
                got = solver.centroids(request, vps=modes[label], obs=obs_got)
                want = fresh.centroids(request, vps=modes[label], obs=obs_want)
                assert got[0].tobytes() == want[0].tobytes(), label
                assert got[1].tobytes() == want[1].tobytes(), label
                assert obs_got.metrics.counters() == obs_want.metrics.counters(), label


class TestObsCounters:
    def test_counter_totals_match_loop_semantics(self):
        rng = np.random.default_rng(22)
        vp_lats, vp_lons, t_lats, t_lons, matrix = _random_world(
            rng, 40, 18, nan_fraction=0.85
        )
        subset = np.arange(40)
        obs_batch = Observer()
        cbg_errors_batch(
            vp_lats, vp_lons, matrix, t_lats, t_lons, subset,
            min_vps=5, obs=obs_batch,
        )
        obs_loop = Observer()
        cbg_errors_for_subsets_loop(
            vp_lats, vp_lons, matrix, t_lats, t_lons, subset,
            min_vps=5, obs=obs_loop,
        )
        batch_counters = obs_batch.metrics.counters()
        loop_counters = obs_loop.metrics.counters()
        assert batch_counters["cbg.fast_calls"] == loop_counters["cbg.fast_calls"]
        assert batch_counters.get("cbg.fast_no_estimate", 0) == loop_counters.get(
            "cbg.fast_no_estimate", 0
        )


class TestAgainstExactPath:
    def test_batch_consistent_with_exact_region_estimate(self):
        # Same consistency bound the fast path is held to vs cbg_estimate:
        # the batched kernel must land near the exact region centroid.
        from repro.atlas.platform import ProbeInfo
        from repro.constants import distance_to_min_rtt_ms
        from repro.geo.coords import destination

        center = GeoPoint(42.0, 7.0)
        vps, vp_lats, vp_lons, rtts = [], [], [], {}
        for index, bearing in enumerate((10.0, 130.0, 250.0, 300.0)):
            location = destination(center, bearing, 400.0)
            vps.append(
                ProbeInfo(
                    probe_id=index,
                    address=f"10.1.{index}.1",
                    location=location,
                    asn=65000 + index,
                    is_anchor=False,
                    probing_rate_pps=8.0,
                )
            )
            vp_lats.append(location.lat)
            vp_lons.append(location.lon)
            rtts[index] = distance_to_min_rtt_ms(400.0) * 1.15
        result, _region = cbg_estimate("10.9.9.9", vps, rtts)
        matrix = np.array([[rtts[i]] for i in range(4)])
        got_lats, got_lons = cbg_centroids_batch(
            np.array(vp_lats), np.array(vp_lons), matrix, np.arange(4)
        )
        assert not math.isnan(got_lats[0])
        estimate = GeoPoint(float(got_lats[0]), float(got_lons[0]))
        assert result.estimate.distance_km(estimate) < 150.0
