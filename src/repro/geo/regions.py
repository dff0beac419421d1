"""Spherical-cap constraints and their intersection (the CBG region).

Constraint-based geolocation (CBG, Gueye et al.) turns each RTT measurement
into a *circle*: "the target is at most ``r`` km from this vantage point".
The target must lie inside the intersection of all circles, and CBG's
estimate is the centroid of that intersection.

Intersections of spherical caps have no convenient closed form, so
:func:`cbg_region` computes the region numerically: it samples points inside
the tightest constraint circle (the only place the region can live),
keeps the feasible ones, and averages them. When sampling misses a thin
sliver region, an alternating-projection repair step walks a candidate point
into feasibility before re-sampling locally. The approach is validated
against analytic two-circle cases in the test suite.

The circle scans (the active-circle split, the repair walk's most-violated
circle, the centroid check, and membership of many sample points) run as
array programs with certified decisions: numpy distances decide whatever
lies more than :data:`~repro.geo.coords.HAVERSINE_BAND_KM` from its
boundary, and the in-band candidates are recomputed with the scalar
:func:`~repro.geo.coords.haversine_km` in the scalar loop's order. Every
float that leaves this module (a repaired point, a centroid) is computed
by the scalar chain, so the results are bitwise those of the per-circle
loops, which :mod:`repro.check.oracles` keeps as the reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.constants import EARTH_RADIUS_KM, MAX_GREAT_CIRCLE_KM
from repro.errors import EmptyRegionError
from repro.geo.coords import (
    HAVERSINE_BAND_KM,
    GeoPoint,
    bearing_deg,
    bulk_destination,
    bulk_haversine_km,
    destination,
    haversine_km,
    matrix_haversine_km,
    mean_point,
)


@dataclass(frozen=True)
class Circle:
    """A spherical cap: all points within ``radius_km`` of ``center``."""

    center: GeoPoint
    radius_km: float

    def __post_init__(self) -> None:
        if self.radius_km < 0:
            raise ValueError(f"radius must be non-negative, got {self.radius_km}")

    def contains(self, point: GeoPoint, tolerance_km: float = 1e-6) -> bool:
        """Whether a point lies inside the cap (with a small tolerance)."""
        return self.center.distance_km(point) <= self.radius_km + tolerance_km

    def area_km2(self) -> float:
        """Surface area of the cap on the spherical Earth."""
        angular = min(self.radius_km / EARTH_RADIUS_KM, math.pi)
        return 2.0 * math.pi * EARTH_RADIUS_KM**2 * (1.0 - math.cos(angular))


@dataclass
class IntersectionRegion:
    """The intersection of constraint circles, found by sampling.

    Attributes:
        circles: the constraints that define the region (after dropping
            circles so large they constrain nothing).
        centroid: spherical mean of the feasible sample points — the CBG
            location estimate.
        feasible_points: the feasible samples used for the centroid.
        tightest: the smallest-radius circle, inside which the region lives.
    """

    circles: List[Circle]
    centroid: GeoPoint
    feasible_points: List[GeoPoint] = field(repr=False, default_factory=list)
    tightest: Optional[Circle] = None
    _arrays: Optional["_CircleArrays"] = field(
        default=None, init=False, repr=False, compare=False
    )

    def contains(self, point: GeoPoint, tolerance_km: float = 1e-6) -> bool:
        """Whether a point satisfies every constraint circle."""
        return all(circle.contains(point, tolerance_km) for circle in self.circles)

    def contains_points(
        self, points: Sequence[GeoPoint], tolerance_km: float = 1e-6
    ) -> List[bool]:
        """:meth:`contains` for many points, as one array test.

        Bitwise the per-point answers: a (point, circle) pair whose numpy
        distance lies within the band of ``radius + tolerance_km`` is
        decided by the scalar haversine, as :meth:`Circle.contains`
        decides it. The circles' arrays are built on first use.
        """
        if not points or not self.circles:
            return [True] * len(points)
        if self._arrays is None:
            self._arrays = _CircleArrays.of(self.circles)
        arrays = self._arrays
        distances = matrix_haversine_km(
            arrays.lats,
            arrays.lons,
            np.array([point.lat for point in points]),
            np.array([point.lon for point in points]),
        )
        slack = (arrays.radii + tolerance_km) - distances
        inside = ~(slack < -HAVERSINE_BAND_KM).any(axis=1)
        for row in np.flatnonzero(inside & (slack <= HAVERSINE_BAND_KM).any(axis=1)):
            point = points[row]
            inside[row] = all(
                _contains_exact(self.circles[column], point, tolerance_km)
                for column in np.flatnonzero(slack[row] <= HAVERSINE_BAND_KM)
            )
        return inside.tolist()

    def extent_km(self) -> float:
        """Rough diameter of the region: max pairwise sample distance.

        Returns 0 for a region collapsed to a single sample.
        """
        points = self.feasible_points
        if len(points) < 2:
            return 0.0
        # The hull is small (a few hundred samples); an O(n^2) scan on the
        # boundary samples is cheap and robust.
        best = 0.0
        step = max(1, len(points) // 64)
        thinned = points[::step]
        for i, a in enumerate(thinned):
            for b in thinned[i + 1 :]:
                best = max(best, a.distance_km(b))
        return best


def region_contains_bulk(
    region: IntersectionRegion,
    lats: np.ndarray,
    lons: np.ndarray,
    tolerance_km: float = 1e-6,
) -> np.ndarray:
    """Vectorised membership test: which points satisfy every constraint.

    Args:
        region: the intersection region.
        lats: candidate latitudes (degrees).
        lons: candidate longitudes (degrees), aligned.
        tolerance_km: feasibility slack.

    Returns:
        Boolean array, aligned with the inputs.
    """
    lats = np.asarray(lats, dtype=np.float64)
    lons = np.asarray(lons, dtype=np.float64)
    return _feasible_mask(lats, lons, region.circles, tolerance_km)


@dataclass(frozen=True)
class _CircleArrays:
    """Centre coordinates, unit vectors and radii of a circle list."""

    lats: np.ndarray
    lons: np.ndarray
    radii: np.ndarray
    units: np.ndarray

    @classmethod
    def of(cls, circles: Sequence[Circle]) -> "_CircleArrays":
        lats = np.array([circle.center.lat for circle in circles], dtype=np.float64)
        lons = np.array([circle.center.lon for circle in circles], dtype=np.float64)
        return cls(
            lats,
            lons,
            np.array([circle.radius_km for circle in circles], dtype=np.float64),
            _unit_vectors(np.radians(lats), np.radians(lons)),
        )

    def distances_from(self, point: GeoPoint) -> np.ndarray:
        """Great-circle distance from a point to every centre, in km.

        One dot product with the centres' unit vectors gives
        ``a = sin^2(theta / 2) = (1 - cos theta) / 2`` to within a few ulps
        of 1, which keeps the distance within
        :data:`~repro.geo.coords.HAVERSINE_BAND_KM` of
        :func:`~repro.geo.coords.haversine_km` (not bitwise on it).
        """
        phi, lam = point.as_radians()
        cos_phi = math.cos(phi)
        toward = np.array([cos_phi * math.cos(lam), cos_phi * math.sin(lam), math.sin(phi)])
        a = np.clip((1.0 - self.units @ toward) * 0.5, 0.0, 1.0)
        return (2.0 * EARTH_RADIUS_KM) * np.arcsin(np.sqrt(a))


def _unit_vectors(phis: np.ndarray, lams: np.ndarray) -> np.ndarray:
    """Unit vectors (x, y, z) of points given in radians, one row each."""
    cos_phis = np.cos(phis)
    return np.ascontiguousarray(
        np.stack([cos_phis * np.cos(lams), cos_phis * np.sin(lams), np.sin(phis)], axis=1)
    )


def _contains_exact(circle: Circle, point: GeoPoint, tolerance_km: float) -> bool:
    """:meth:`Circle.contains` through this module's scalar haversine."""
    center = circle.center
    distance = haversine_km(center.lat, center.lon, point.lat, point.lon)
    return distance <= circle.radius_km + tolerance_km


def _active_circles(
    circles: Sequence[Circle], arrays: Optional[_CircleArrays] = None
) -> Tuple[Circle, List[Circle]]:
    """Split circles into (tightest, possibly-binding others).

    A circle that fully contains the tightest circle can never exclude any
    candidate point, so it is dropped from the feasibility test. A circle
    is kept when its radius is below its centre's separation from the
    tightest centre plus the tightest radius; separations within the band
    of that boundary are recomputed with the scalar haversine.
    """
    if arrays is None:
        arrays = _CircleArrays.of(circles)
    tightest_index = int(np.argmin(arrays.radii))
    tightest = circles[tightest_index]
    center = tightest.center
    margin = (arrays.distances_from(center) + tightest.radius_km) - arrays.radii
    active = []
    for index in np.flatnonzero(margin >= -HAVERSINE_BAND_KM):
        circle = circles[index]
        if circle is tightest:
            continue
        if margin[index] > HAVERSINE_BAND_KM or circle.radius_km < (
            haversine_km(center.lat, center.lon, circle.center.lat, circle.center.lon)
            + tightest.radius_km
        ):
            active.append(circle)
    return tightest, active


def _sample_disk(
    center: GeoPoint, radius_km: float, rings: int, spokes: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Sample points covering a spherical cap: center + rings x spokes grid."""
    bearings = []
    distances = []
    for ring in range(1, rings + 1):
        r = radius_km * ring / rings
        for spoke in range(spokes):
            bearings.append(360.0 * spoke / spokes)
            distances.append(r)
    lats, lons = bulk_destination(center, np.array(bearings), np.array(distances))
    lats = np.concatenate(([center.lat], lats))
    lons = np.concatenate(([center.lon], lons))
    return lats, lons


def _feasible_mask(
    lats: np.ndarray, lons: np.ndarray, circles: Sequence[Circle], tolerance_km: float
) -> np.ndarray:
    """Boolean mask of which sample points satisfy every circle."""
    mask = np.ones(lats.shape, dtype=bool)
    for circle in circles:
        distances = bulk_haversine_km(lats, lons, circle.center.lat, circle.center.lon)
        mask &= distances <= circle.radius_km + tolerance_km
        if not mask.any():
            break
    return mask


def _repair_point(
    start: GeoPoint,
    circles: Sequence[Circle],
    max_iterations: int = 80,
    arrays: Optional[_CircleArrays] = None,
) -> Optional[GeoPoint]:
    """Walk a point into the intersection via alternating projections.

    Repeatedly moves the point just inside the most-violated circle: the
    first circle, in order, whose excess distance beyond its radius is the
    strict maximum above 1e-9 km. This converges for non-empty
    intersections of convex caps; returns None when no feasible point is
    found within the iteration budget.

    Each step computes every excess as one array. Only the circles whose
    excess lies within two bands of the array's maximum (and within a band
    of the 1e-9 km floor) can be the most violated; those are recomputed
    with the scalar haversine, in order, and the step moves by the
    scalar-computed excess.
    """
    if arrays is None:
        arrays = _CircleArrays.of(circles)
    point = start
    for _ in range(max_iterations):
        excess = arrays.distances_from(point) - arrays.radii
        floor = max(
            float(np.max(excess, initial=-np.inf)) - 2.0 * HAVERSINE_BAND_KM,
            1e-9 - HAVERSINE_BAND_KM,
        )
        worst: Optional[Circle] = None
        worst_excess = 1e-9
        for index in np.flatnonzero(excess >= floor):
            circle = circles[index]
            exact = (
                haversine_km(point.lat, point.lon, circle.center.lat, circle.center.lon)
                - circle.radius_km
            )
            if exact > worst_excess:
                worst_excess = exact
                worst = circle
        if worst is None:
            return point
        # Move along the great circle toward the violated circle's center,
        # landing slightly inside its boundary.
        bearing = bearing_deg(point, worst.center)
        point = destination(point, bearing, worst_excess + min(1.0, worst.radius_km * 0.01))
    return None


def cbg_region(
    circles: Sequence[Circle],
    rings: int = 10,
    spokes: int = 24,
    tolerance_km: float = 0.5,
) -> IntersectionRegion:
    """Compute the intersection region of constraint circles.

    Args:
        circles: the CBG constraints. Must be non-empty.
        rings: number of concentric sampling rings inside the tightest circle.
        spokes: number of angular samples per ring.
        tolerance_km: feasibility slack, absorbing spherical-trig round-off.

    Returns:
        An :class:`IntersectionRegion` whose ``centroid`` is the CBG estimate.

    Raises:
        ValueError: if no circles are given.
        EmptyRegionError: if the circles provably share no common point
            (within the sampling resolution and repair budget).
    """
    if not circles:
        raise ValueError("CBG needs at least one constraint circle")
    # A radius of >= half the Earth's circumference constrains nothing.
    meaningful = [c for c in circles if c.radius_km < MAX_GREAT_CIRCLE_KM]
    if not meaningful:
        tightest = min(circles, key=lambda c: c.radius_km)
        return IntersectionRegion(
            circles=list(circles), centroid=tightest.center, feasible_points=[tightest.center], tightest=tightest
        )
    arrays = _CircleArrays.of(meaningful)
    tightest, active = _active_circles(meaningful, arrays)
    constraints: List[Circle] = [tightest] + active
    constraint_arrays = _CircleArrays.of(constraints)

    lats, lons = _sample_disk(tightest.center, tightest.radius_km, rings, spokes)
    mask = _feasible_mask(lats, lons, active, tolerance_km)

    if not mask.any():
        # The region may be a thin sliver between circle boundaries that the
        # grid missed; repair a candidate point, then sample locally.
        repaired = _repair_point(tightest.center, constraints, arrays=constraint_arrays)
        if repaired is None:
            raise EmptyRegionError(
                f"{len(constraints)} constraint circles share no common point"
            )
        local_radius = max(tightest.radius_km / max(rings, 1), 1.0)
        lats, lons = _sample_disk(repaired, local_radius, rings, spokes)
        mask = _feasible_mask(lats, lons, constraints, tolerance_km)
        if not mask.any():
            return IntersectionRegion(
                circles=constraints,
                centroid=repaired,
                feasible_points=[repaired],
                tightest=tightest,
            )

    feasible = [GeoPoint(float(lat), float(lon)) for lat, lon in zip(lats[mask], lons[mask])]
    centroid = mean_point(feasible)
    if not _all_contain(constraints, constraint_arrays, centroid, tightest.radius_km):
        # Pathological concave slivers can place the mean outside; snap back.
        centroid = feasible[0]
    return IntersectionRegion(
        circles=constraints, centroid=centroid, feasible_points=feasible, tightest=tightest
    )


def _all_contain(
    circles: Sequence[Circle], arrays: _CircleArrays, point: GeoPoint, tolerance_km: float
) -> bool:
    """``all(c.contains(point, tolerance_km) for c in circles)``, as one array
    test; circles within the band of their boundary are decided exactly."""
    slack = (arrays.radii + tolerance_km) - arrays.distances_from(point)
    if (slack < -HAVERSINE_BAND_KM).any():
        return False
    return all(
        _contains_exact(circles[index], point, tolerance_km)
        for index in np.flatnonzero(slack <= HAVERSINE_BAND_KM)
    )
