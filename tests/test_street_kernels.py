"""Parity of the street-level array kernels with their scalar oracles.

The kernels take a decision (an argmax, an argmin, a threshold) from numpy
distances only when it lies more than ``HAVERSINE_BAND_KM`` from its
boundary, and recompute the rest with the scalar haversine in the scalar
loop's order. These tests build inputs on which the band fires — exact
ties, near-antipodal distances, bounds met to the last bit — compare each
kernel with its oracle in :mod:`repro.check.oracles` bitwise, and count the
decisions sent to the exact path (by wrapping the module's scalar
haversine), so that each test proves the exact path ran.

The traceroute kernel has no band (its hashes and uniforms are exact and
its libm calls stay scalar); its parity runs over fuzzed worlds with the
checker armed and every per-pair step exercised.
"""

import dataclasses
import math

import numpy as np
import pytest

from repro import rand
from repro.atlas.platform import AtlasPlatform
from repro.check import InvariantChecker, fuzz_configs, oracles
from repro.errors import EmptyRegionError
from repro.faults import FaultInjector, FaultPlan
from repro.geo import coords, regions
from repro.geo.coords import GeoPoint, destination, haversine_km
from repro.geo.regions import Circle, IntersectionRegion, cbg_region
from repro.world import cities as cities_mod
from repro.world.builder import build_world
from repro.world.cities import City, CityIndex
from repro.world.hosts import HostKind
from repro.world.snapshot import clone_world_with_hosts


@pytest.fixture
def exact_calls(monkeypatch):
    """Count the scalar haversines the kernels run on their exact path."""
    counts = {"regions": 0, "cities": 0}

    def counting(module):
        def wrapped(lat1, lon1, lat2, lon2):
            counts[module] += 1
            return coords.haversine_km(lat1, lon1, lat2, lon2)

        return wrapped

    monkeypatch.setattr(regions, "haversine_km", counting("regions"))
    monkeypatch.setattr(cities_mod, "haversine_km", counting("cities"))
    return counts


def _antipode(point):
    return GeoPoint(-point.lat, coords.normalize_lon(point.lon + 180.0))


class TestRepairWalk:
    def test_equal_excess_first_circle_wins(self, exact_calls):
        start = GeoPoint(5.0, 0.0)
        east = Circle(GeoPoint(0.0, 10.0), 1150.0)
        west = Circle(GeoPoint(0.0, -10.0), 1150.0)
        excess = start.distance_km(east.center) - east.radius_km
        assert excess == start.distance_km(west.center) - west.radius_km > 0
        forward = regions._repair_point(start, [east, west])
        backward = regions._repair_point(start, [west, east])
        assert forward == oracles.repair_point_scalar(start, [east, west])
        assert backward == oracles.repair_point_scalar(start, [west, east])
        # The tie decided the first step, and the walk followed it.
        assert forward is not None and backward is not None
        assert forward != backward
        assert exact_calls["regions"] >= 4

    def test_near_antipodal_centres(self, exact_calls):
        sent = 0
        for index, start in enumerate(
            [GeoPoint(10.0, 20.0), GeoPoint(-33.5, 151.0), GeoPoint(64.1, -21.9)]
        ):
            far = _antipode(start)
            # A ring of centres 0.3 km around the antipode: every distance
            # from the start is within a hair of half the circumference,
            # where numpy's arcsin and libm's disagree the most.
            circles = [
                Circle(destination(far, 30.0 * spoke + index, 0.3), 19000.0)
                for spoke in range(12)
            ]
            circles.append(Circle(GeoPoint(start.lat, start.lon), 50.0))
            before = exact_calls["regions"]
            assert regions._repair_point(start, circles) == oracles.repair_point_scalar(
                start, circles
            )
            sent += exact_calls["regions"] - before
        assert sent >= 3 * 12

    def test_empty_intersection_exhausts_budget(self, exact_calls):
        circles = [
            Circle(GeoPoint(0.0, 0.0), 100.0),
            Circle(GeoPoint(0.0, 20.0), 100.0),
            Circle(GeoPoint(15.0, 10.0), 120.0),
        ]
        start = GeoPoint(1.0, 1.0)
        assert regions._repair_point(start, circles) is None
        assert oracles.repair_point_scalar(start, circles) is None
        # Every one of the 80 steps moved by a scalar-computed excess.
        assert exact_calls["regions"] >= 80

    def test_seeded_constraint_sets_match_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(40):
            center = GeoPoint(float(rng.uniform(-60, 60)), float(rng.uniform(-170, 170)))
            circles = [
                Circle(
                    destination(center, float(rng.uniform(0, 360)), float(rng.uniform(0, 3000))),
                    float(rng.uniform(50, 2500)),
                )
                for _ in range(int(rng.integers(2, 40)))
            ]
            assert regions._active_circles(circles) == oracles.active_circles_scalar(
                circles
            )
            assert regions._repair_point(center, circles) == oracles.repair_point_scalar(
                center, circles
            )


class TestActiveCircles:
    def test_radius_on_the_boundary(self, exact_calls):
        tightest = Circle(GeoPoint(40.0, -3.0), 50.0)
        other = GeoPoint(41.0, -1.0)
        boundary = tightest.center.distance_km(other) + tightest.radius_km
        circles = [
            tightest,
            Circle(other, boundary),  # contains the tightest exactly: dropped
            Circle(other, math.nextafter(boundary, 0.0)),  # one ulp in: kept
            Circle(other, math.nextafter(boundary, math.inf)),
        ]
        got = regions._active_circles(circles)
        assert got == oracles.active_circles_scalar(circles)
        assert got[1] == [circles[2]]
        assert exact_calls["regions"] == 3


class TestMembership:
    def test_point_at_radius_plus_tolerance(self, exact_calls):
        center = GeoPoint(48.85, 2.35)
        points = [destination(center, bearing, 25.0) for bearing in (0.0, 90.0, 200.0)]
        for point in points:
            distance = haversine_km(center.lat, center.lon, point.lat, point.lon)
            base = distance - 1e-6
            for radius in (
                math.nextafter(base, 0.0),
                base,
                math.nextafter(base, math.inf),
            ):
                region = IntersectionRegion(
                    circles=[Circle(center, radius), Circle(center, 400.0)],
                    centroid=center,
                )
                assert region.contains_points(points) == oracles.region_contains_scalar(
                    region, points
                )
        assert exact_calls["regions"] >= 9

    def test_cbg_regions_walk_like_the_scalar_ring_search(self):
        from repro.geo.sampling import concentric_circle_points

        rng = np.random.default_rng(11)
        for _ in range(10):
            center = GeoPoint(float(rng.uniform(-50, 50)), float(rng.uniform(-170, 170)))
            circles = [
                Circle(
                    destination(center, float(rng.uniform(0, 360)), float(rng.uniform(0, 60))),
                    float(rng.uniform(20, 90)),
                )
                for _ in range(6)
            ]
            try:
                region = cbg_region(circles)
            except EmptyRegionError:
                continue
            arrays = list(concentric_circle_points(region.centroid, region, 5.0, 36.0))
            scalar = list(
                concentric_circle_points(
                    region.centroid, region, 5.0, 36.0, inside=region.contains
                )
            )
            assert arrays == scalar


def _city(city_id, lat, lon):
    return City(
        city_id=city_id,
        name=f"city-{city_id}",
        country="EU00",
        continent="EU",
        location=GeoPoint(lat, lon),
        population=1e5,
        radius_km=5.0,
        zip_prefix=city_id + 1,
    )


class TestNearestCity:
    def test_equal_distance_first_in_walk_order_wins(self, exact_calls):
        west, east = _city(0, 1.0, 0.5), _city(1, 1.0, 1.5)
        point = GeoPoint(1.0, 1.0)
        assert point.distance_km(west.location) == point.distance_km(east.location)
        for cities in ([west, east], [east, west]):
            index = CityIndex(cities)
            assert index.nearest(point) is cities[0]
            assert oracles.nearest_scalar(index, point) is cities[0]
        # Across buckets: ring 0 holds the northern city, ring 1 the southern.
        north, south = _city(0, 0.5, 0.0), _city(1, -0.5, 0.0)
        index = CityIndex([south, north])
        assert index.nearest(GeoPoint(0.0, 0.0)) is north
        assert oracles.nearest_scalar(index, GeoPoint(0.0, 0.0)) is north
        assert exact_calls["cities"] >= 6

    def test_points_on_bucket_edges(self, exact_calls):
        # Two cities mirrored across each bucket edge, 0.3 degrees off it:
        # a point on the edge is equidistant from both, which sit in
        # different buckets, and a point 1e-12 degrees off the edge
        # changes bucket (and so the visit order) for a distance gap far
        # inside the band.
        cities = []
        points = []
        for lat in (38.0, 44.0, 50.0):
            for lon in (-4.0, 6.0, 16.0):
                for dlat, dlon in ((0.0, 0.3), (0.0, -0.3), (0.3, 0.0), (-0.3, 0.0)):
                    cities.append(_city(len(cities), lat + dlat, lon + dlon))
                for dlat, dlon in ((0.0, 0.0), (-1e-12, 0.0), (0.0, -1e-12), (1e-12, 1e-12)):
                    points.append(GeoPoint(lat + dlat, lon + dlon))
        index = CityIndex(cities)
        got = index.nearest_many(points, max_distance_km=60.0)
        assert got == oracles.nearest_many_scalar(index, points, 60.0)
        assert got == [index.nearest(p, max_distance_km=60.0) for p in points]
        assert None not in got
        assert exact_calls["cities"] >= 2 * len(points)

    def test_distance_bound_to_the_last_bit(self, exact_calls):
        city = _city(0, 45.0, 7.0)
        index = CityIndex([city, _city(1, 52.0, 13.0)])
        for bearing in (0.0, 77.0, 181.0, 300.0):
            point = destination(city.location, bearing, 60.0)
            distance = point.distance_km(city.location)
            for bound, expected in (
                (distance, city),
                (math.nextafter(distance, 0.0), None),
                (math.nextafter(distance, math.inf), city),
            ):
                assert index.nearest(point, max_distance_km=bound) is expected
                assert oracles.nearest_scalar(index, point, bound) is expected
        far = destination(city.location, 90.0, 500.0)
        assert index.nearest(far, max_distance_km=60.0) is None
        assert index.nearest(far) is oracles.nearest_scalar(index, far)
        assert exact_calls["cities"] >= 12

    def test_world_index_matches_ring_walk(self, small_world):
        index = small_world.city_index
        rng = np.random.default_rng(5)
        points = [
            GeoPoint(float(rng.uniform(-60, 70)), float(rng.uniform(-180, 179.99)))
            for _ in range(600)
        ]
        points += [
            destination(city.location, float(rng.uniform(0, 360)), float(rng.uniform(0, 90)))
            for city in small_world.cities[:200]
        ]
        for bound in (None, 60.0):
            assert index.nearest_many(points, bound) == oracles.nearest_many_scalar(
                index, points, bound
            )


def _traceroute_batch_scalar(platform, probe_ids, target_ips, seq, window):
    """The per-pair traceroute batch: oracle traceroutes, checked in turn."""
    model = platform.latency
    results = {}
    for target_ip in target_ips:
        target = platform.world.try_host(target_ip)
        per_probe = {}
        for probe_id in probe_ids:
            if target is None:
                per_probe[probe_id] = None
                continue
            platform.probe_info(probe_id)
            if platform._measurement_failed("traceroute", probe_id, target_ip, seq, window):
                per_probe[probe_id] = None
                continue
            source = platform.world.host_by_id(probe_id)
            if not source.responsive:
                per_probe[probe_id] = None
                continue
            trace = oracles.traceroute_scalar(model, source, target, seq)
            model.check_traceroute(source, target, seq, trace)
            per_probe[probe_id] = trace
        results[target_ip] = per_probe
    return results


class TestTracerouteKernel:
    def test_batch_matches_per_pair_over_fuzz_worlds(self):
        seen = {"pairs": 0, "silent_targets": 0, "sessions_down": 0, "faulted": 0}
        for number, config in enumerate(fuzz_configs(10)):
            base = build_world(config)
            # Take a quarter of the probes' sessions down.
            hosts = [
                dataclasses.replace(h, responsive=False)
                if h.kind is HostKind.PROBE and h.host_id % 4 == number % 4
                else h
                for h in base.hosts[: base.static_host_count]
            ]
            world = clone_world_with_hosts(base, hosts)
            plan = FaultPlan(seed=number, probe_disconnect_rate=0.15, packet_loss_rate=0.15)
            sides = []
            for _side in range(2):
                checker = InvariantChecker(raise_on_violation=False)
                platform = AtlasPlatform(
                    world, faults=FaultInjector(plan), checker=checker
                )
                sides.append((platform, checker))
            probes = [h.host_id for h in world.probes[:12]] + [
                h.host_id for h in world.anchors[:3]
            ]
            silent = [
                h.ip for h in world.hosts if h.kind is HostKind.REPRESENTATIVE and not h.responsive
            ][:3]
            targets = [h.ip for h in world.anchors] + silent + ["203.0.113.7"]
            window = 1 + number
            batch = sides[0][0].execute_traceroute_batch(probes, targets, seq=12, window=window)
            scalar = _traceroute_batch_scalar(sides[1][0], probes, targets, 12, window)
            assert batch == scalar
            assert sides[0][1].passes == sides[1][1].passes
            assert sides[0][1].violations == sides[1][1].violations == []
            assert sides[0][0].faults.fault_counts() == sides[1][0].faults.fault_counts()
            traces = [t for per in batch.values() for t in per.values() if t is not None]
            seen["pairs"] += len(traces)
            seen["silent_targets"] += sum(not t.reached for t in traces)
            seen["sessions_down"] += sum(
                not world.host_by_id(p).responsive for p in probes
            )
            seen["faulted"] += sum(sides[0][0].faults.fault_counts().values())
        assert all(count > 0 for count in seen.values()), seen
        assert seen["pairs"] > 1000

    def test_single_traceroute_is_the_batch_of_one(self, small_world, small_platform):
        model = small_platform.latency
        probe = small_world.probes[3]
        for anchor in small_world.anchors[:10]:
            assert model.traceroute(probe, anchor, seq=4) == oracles.traceroute_scalar(
                model, probe, anchor, 4
            )

    def test_empty_batch(self, small_platform):
        assert small_platform.latency.traceroutes([]) == []


class TestBulkDrawKeys:
    def test_hop_keys_end_in_the_pair_key(self):
        pk = rand.bulk_pair_key(
            np.arange(50, dtype=np.uint64), np.arange(50, 100, dtype=np.uint64)
        )
        for prefix in (("hopnoise", 11, 2), ("spike", 12, 0), ("jit", 13, 0)):
            hashes = rand.bulk_hash(prefix, pk)
            assert [int(h) for h in hashes] == [
                rand.key_hash((*prefix, int(k))) for k in pk
            ]
