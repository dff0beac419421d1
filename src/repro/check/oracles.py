"""Scalar reference implementations of the street-level array kernels.

The street-level tiers run as array programs with certified decisions
(:mod:`repro.geo.regions`, :class:`repro.world.cities.CityIndex`,
:meth:`repro.latency.model.LatencyModel.traceroutes`). Their contract is
to be bitwise the per-element loops they replaced. Those loops live on
here, unchanged, as the oracles the parity tests and the
``street: arrays vs scalar`` selfcheck leg compare against:

* :func:`repair_point_scalar` / :func:`active_circles_scalar` — tier 1's
  alternating-projection repair walk and its active-circle split, one
  scalar haversine per circle;
* :func:`nearest_scalar` — the bucket-ring search behind reverse
  geocoding, one scalar haversine per visited city;
* :func:`region_contains_scalar` — per-point region membership;
* :func:`traceroute_scalar` — the per-hop traceroute loop, four keyed
  scalar draws per hop.

:func:`scalar_street_tiers` swaps the oracles in for the kernels for the
duration of a ``with`` block, which is why each oracle takes the
arguments of the kernel it stands for (precomputed circle arrays are
accepted and ignored). It exists for the differential harness and the
tests; nothing at run time selects the scalar paths.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from typing import Iterator, List, Optional, Sequence, Tuple

from repro import rand
from repro.geo.coords import GeoPoint, bearing_deg, destination
from repro.geo.regions import Circle, IntersectionRegion


def active_circles_scalar(
    circles: Sequence[Circle], arrays=None
) -> Tuple[Circle, List[Circle]]:
    """Split circles into (tightest, possibly-binding others), per circle."""
    tightest = min(circles, key=lambda c: c.radius_km)
    active = []
    for circle in circles:
        if circle is tightest:
            continue
        separation = tightest.center.distance_km(circle.center)
        if circle.radius_km < separation + tightest.radius_km:
            active.append(circle)
    return tightest, active


def repair_point_scalar(
    start: GeoPoint, circles: Sequence[Circle], max_iterations: int = 80, arrays=None
) -> Optional[GeoPoint]:
    """The alternating-projection repair walk, one circle at a time.

    Repeatedly moves the point just inside the most-violated circle;
    returns None when no feasible point is found within the budget.
    """
    point = start
    for _ in range(max_iterations):
        worst: Optional[Circle] = None
        worst_excess = 1e-9
        for circle in circles:
            excess = point.distance_km(circle.center) - circle.radius_km
            if excess > worst_excess:
                worst_excess = excess
                worst = circle
        if worst is None:
            return point
        bearing = bearing_deg(point, worst.center)
        point = destination(point, bearing, worst_excess + min(1.0, worst.radius_km * 0.01))
    return None


def all_contain_scalar(circles, arrays, point: GeoPoint, tolerance_km: float) -> bool:
    """Whether every circle contains the point, circle by circle."""
    return all(circle.contains(point, tolerance_km) for circle in circles)


def region_contains_scalar(
    region: IntersectionRegion, points: Sequence[GeoPoint], tolerance_km: float = 1e-6
) -> List[bool]:
    """Region membership, point by point."""
    return [region.contains(point, tolerance_km) for point in points]


def nearest_scalar(index, point: GeoPoint, max_distance_km: Optional[float] = None):
    """The bucket-ring search of a :class:`~repro.world.cities.CityIndex`.

    Visits ring 0 up to the first ring holding a city, then one ring more,
    keeping the first strictly closer city in visit order; scans every
    city when 12 rings hold none.
    """
    blat, blon = index._bucket(point)
    best = None
    best_distance = math.inf
    found_ring: Optional[int] = None
    for ring in range(0, 12):
        for city in index._ring_candidates(blat, blon, ring):
            distance = point.distance_km(city.location)
            if distance < best_distance:
                best_distance = distance
                best = city
                if found_ring is None:
                    found_ring = ring
        if found_ring is not None and ring >= found_ring + 1:
            break
    if best is None:
        for city in index._cities:
            distance = point.distance_km(city.location)
            if distance < best_distance:
                best_distance = distance
                best = city
    if max_distance_km is not None and best_distance > max_distance_km:
        return None
    return best


def nearest_many_scalar(index, points: Sequence[GeoPoint], max_distance_km=None) -> list:
    """:func:`nearest_scalar` for each point."""
    return [nearest_scalar(index, point, max_distance_km) for point in points]


def traceroute_scalar(model, src, dst, seq: int = 0):
    """One traceroute, hop by hop, with scalar keyed draws (unchecked).

    Routes come from :func:`~repro.topology.routing.build_route`; each
    router hop draws its Gaussian noise and slow-path spike from
    ``("hopnoise" | "spike" | "spikemag", seq, hop, pair_key)`` and the
    destination its jitter from ``("jit", seq, 0, pair_key)``.
    """
    from repro.latency.model import TraceHop, TraceObservation
    from repro.latency.speed import SOI_KM_PER_MS
    from repro.topology.routing import build_route

    src_params = model.topology.params_for(src)
    dst_params = model.topology.params_for(dst)
    route = build_route(model.topology, src_params, dst_params, src.ip, dst.ip)
    fiber = model.fiber_factor(src.host_id, dst.host_id)
    low, high = sorted((src.host_id, dst.host_id))
    pk = rand.pair_key(low, high)

    hops: List[TraceHop] = []
    for index, hop in enumerate(route.hops):
        is_destination = index == len(route.hops) - 1
        propagation = 2.0 * hop.cumulative_km * fiber / SOI_KM_PER_MS
        if is_destination:
            if not dst.responsive:
                return TraceObservation(src.ip, dst.ip, tuple(hops), reached=False)
            jitter = -model._jitter_mean * math.log(
                max(rand.uniform(("jit", seq, 0, pk)), 1e-12)
            )
            rtt = propagation + src_params.last_mile_ms + dst_params.last_mile_ms + jitter
        else:
            noise = rand.normal(("hopnoise", seq, index, pk), 0.0, model._hop_noise_std)
            spike = 0.0
            if rand.uniform(("spike", seq, index, pk)) < model._spike_probability:
                spike = -model._spike_mean * math.log(
                    max(rand.uniform(("spikemag", seq, index, pk)), 1e-12)
                )
            rtt = max(propagation + src_params.last_mile_ms + noise + spike, 0.01)
        hops.append(TraceHop(hop.ip, rtt))
    return TraceObservation(src.ip, dst.ip, tuple(hops), reached=True)


def traceroutes_scalar(model, pairs, seq: int = 0) -> list:
    """:func:`traceroute_scalar` for each (source, destination) pair."""
    return [traceroute_scalar(model, src, dst, seq) for src, dst in pairs]


@contextmanager
def scalar_street_tiers() -> Iterator[None]:
    """Run the street-level tiers on the scalar oracles inside the block.

    Replaces the region scans of :mod:`repro.geo.regions`, the city
    index's batch lookup and the traceroute kernel with the functions of
    this module, and restores whatever was installed before on exit (a
    monkeypatched kernel included).
    """
    from repro.geo import regions
    from repro.latency.model import LatencyModel
    from repro.world.cities import CityIndex

    swaps = [
        (regions, "_active_circles", active_circles_scalar),
        (regions, "_repair_point", repair_point_scalar),
        (regions, "_all_contain", all_contain_scalar),
        (IntersectionRegion, "contains_points", region_contains_scalar),
        (CityIndex, "nearest_many", nearest_many_scalar),
        (LatencyModel, "traceroutes", traceroutes_scalar),
    ]
    saved = [(owner, name, owner.__dict__[name]) for owner, name, _oracle in swaps]
    try:
        for owner, name, oracle in swaps:
            setattr(owner, name, oracle)
        yield
    finally:
        for owner, name, original in saved:
            setattr(owner, name, original)
