"""Shared-memory arena lifecycle and structure-of-arrays world state.

Covers the :mod:`repro.world.arrays` contract end to end: publish/attach
round-trips are bitwise, views are read-only, tokens travel by pickle,
owners unlink on close (and on interpreter exit, so an abandoned parent
never leaks ``/dev/shm`` space), and the executor integration — a work
function bound to a token attaches the segment instead of COW-inheriting
the world, and platforms without fork degrade to the serial path
computing identical bytes.
"""

import pickle
import subprocess
import sys
from functools import partial

import numpy as np
import pytest

from repro.exec import pool
from repro.exec.pool import parallel_map
from repro.serve.state import QueryState
from repro.topology import Topology
from repro.world import WorldConfig, build_world
from repro.world.arrays import SharedArena, WorldArrays, arena_supported

pytestmark = pytest.mark.skipif(
    not arena_supported(), reason="platform has no shared memory"
)


@pytest.fixture(scope="module")
def quick_arrays():
    world = build_world(WorldConfig.quick())
    return WorldArrays.from_topology(Topology(world))


class TestSharedArena:
    def test_round_trip_is_bitwise(self):
        payload = {
            "floats": np.linspace(0.0, 1.0, 97),
            "ints": np.arange(13, dtype=np.int64).reshape(13, 1),
            "flags": np.array([True, False, True]),
            "names": np.array([b"alpha", b"beta"], dtype="S5"),
        }
        with SharedArena.create(payload) as arena:
            attached = SharedArena.attach(arena.token)
            try:
                for name, expected in payload.items():
                    view = attached.array(name)
                    assert view.dtype == expected.dtype
                    assert np.array_equal(view, expected)
            finally:
                attached.close()

    def test_views_are_read_only(self):
        with SharedArena.create({"x": np.arange(4.0)}) as arena:
            view = arena.array("x")
            with pytest.raises(ValueError):
                view[0] = 99.0

    def test_token_pickles(self):
        with SharedArena.create({"x": np.arange(4.0)}) as arena:
            token = pickle.loads(pickle.dumps(arena.token))
            attached = SharedArena.attach(token)
            try:
                assert np.array_equal(attached.array("x"), np.arange(4.0))
            finally:
                attached.close()

    def test_owner_close_unlinks(self):
        arena = SharedArena.create({"x": np.arange(4.0)})
        token = arena.token
        arena.close()
        arena.close()  # idempotent
        with pytest.raises(FileNotFoundError):
            SharedArena.attach(token)

    def test_unknown_name_raises(self):
        with SharedArena.create({"x": np.arange(4.0)}) as arena:
            with pytest.raises(KeyError):
                arena.array("y")

    def test_empty_bundle_rejected(self):
        with pytest.raises(ValueError):
            SharedArena.create({})

    def test_parent_exit_cleans_up(self):
        """An owner that exits without close() is cleaned by the exit hook."""
        script = (
            "import numpy as np\n"
            "from repro.world.arrays import SharedArena\n"
            "arena = SharedArena.create({'x': np.arange(8.0)})\n"
            "print(arena.token.segment)\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            check=True,
        )
        segment = result.stdout.strip()
        assert segment
        from multiprocessing import shared_memory

        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=segment, create=False)


class TestWorldArrays:
    def test_share_attach_parity(self, quick_arrays):
        with quick_arrays.share() as arena:
            attached, handle = WorldArrays.attach(arena.token)
            try:
                assert np.array_equal(attached.host_tail_km, quick_arrays.host_tail_km)
                assert np.array_equal(attached.csr_indptr, quick_arrays.csr_indptr)
                assert np.array_equal(
                    attached.csr_weight_km, quick_arrays.csr_weight_km
                )
                assert attached.hub_count == quick_arrays.hub_count
                assert attached.seed == quick_arrays.seed
                assert (
                    attached.peering_probability == quick_arrays.peering_probability
                )
            finally:
                handle.close()

    def test_router_graph_over_arena_is_bitwise(self, quick_arrays):
        src = np.arange(6)
        dst = np.arange(6, 12)
        expected = quick_arrays.router_graph().path_km_matrix(src, dst)
        with quick_arrays.share() as arena:
            attached, handle = WorldArrays.attach(arena.token)
            try:
                graph = attached.router_graph()
                graph.validate()
                assert np.array_equal(graph.path_km_matrix(src, dst), expected)
            finally:
                handle.close()


def _arena_route_sum(token, pair):
    """Work item: route a host block through the arena graph behind ``token``."""
    arrays, arena = WorldArrays.attach(token)
    try:
        src, dst = pair
        return arrays.router_graph().path_km_matrix(np.asarray(src), np.asarray(dst))
    finally:
        arena.close()


class TestPoolIntegration:
    def test_workers_attach_and_match_serial(self, quick_arrays, monkeypatch):
        items = [
            (list(range(0, 5)), list(range(5, 9))),
            (list(range(9, 14)), list(range(14, 18))),
            (list(range(2, 7)), list(range(11, 16))),
        ]
        with quick_arrays.share() as arena:
            route_sum = partial(_arena_route_sum, arena.token)
            monkeypatch.delenv("REPRO_WORKERS", raising=False)
            serial = parallel_map(route_sum, items)
            monkeypatch.setenv("REPRO_WORKERS", "2")
            parallel = parallel_map(route_sum, items)
        assert len(serial) == len(parallel) == len(items)
        for a, b in zip(serial, parallel):
            assert np.array_equal(a, b)

    def test_no_fork_platform_degrades_serial(self, quick_arrays, monkeypatch):
        monkeypatch.setattr(pool, "_fork_context", lambda: None)
        monkeypatch.setenv("REPRO_WORKERS", "4")
        items = [(list(range(0, 4)), list(range(4, 8)))]
        with quick_arrays.share() as arena:
            degraded = parallel_map(partial(_arena_route_sum, arena.token), items)
        expected = quick_arrays.router_graph().path_km_matrix(
            np.arange(0, 4), np.arange(4, 8)
        )
        assert np.array_equal(degraded[0], expected)


class TestQueryStateArena:
    def test_share_attach_round_trip(self):
        state = QueryState(
            vp_lats=np.array([10.0, 20.0, 30.0]),
            vp_lons=np.array([1.0, 2.0, 3.0]),
            rtt_matrix=np.array([[5.0, np.nan], [6.0, 7.0], [np.nan, 8.0]]),
            target_ips=("11.0.0.1", "11.0.0.2"),
            target_true_lats=np.array([10.5, 20.5]),
            target_true_lons=np.array([1.5, 2.5]),
            seed=42,
        )
        with state.share() as arena:
            attached, handle = QueryState.attach(arena.token)
            try:
                assert attached.target_ips == state.target_ips
                assert attached.seed == 42
                assert attached.soi_fraction == state.soi_fraction
                assert np.array_equal(
                    attached.rtt_matrix, state.rtt_matrix, equal_nan=True
                )
                assert np.array_equal(attached.target_true_lats, state.target_true_lats)
                assert attached.column_of("11.0.0.2") == 1
            finally:
                handle.close()

    def test_share_without_truth(self):
        state = QueryState(
            vp_lats=np.array([10.0]),
            vp_lons=np.array([1.0]),
            rtt_matrix=np.array([[5.0]]),
            target_ips=("11.0.0.1",),
        )
        with state.share() as arena:
            attached, handle = QueryState.attach(arena.token)
            try:
                assert attached.target_true_lats is None
                assert attached.seed is None
            finally:
                handle.close()
