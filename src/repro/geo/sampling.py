"""Concentric-circle sampling of a region (street level paper, tiers 2/3).

Tier 2 of the street level technique looks for landmarks around the CBG
centroid: it draws concentric circles whose radius grows by a step ``R``
(5 km in tier 2, 1 km in tier 3) and picks sample points on each circle by
rotating from 0 degrees in increments of ``alpha`` (36 degrees in tier 2,
10 degrees in tier 3). The process stops at the first circle that has no
point inside the region.

Sample points come from the scalar :func:`~repro.geo.coords.destination`,
so they are bitwise the points the paper's procedure names; membership of
a whole circle of points is one certified array test
(:meth:`~repro.geo.regions.IntersectionRegion.contains_points`).
"""

from __future__ import annotations

from typing import Callable, Iterator, List, Optional

from repro.geo.coords import GeoPoint, destination
from repro.geo.regions import IntersectionRegion


def circle_points(center: GeoPoint, radius_km: float, alpha_deg: float) -> List[GeoPoint]:
    """Points on one circle, rotated from bearing 0 by steps of ``alpha_deg``.

    Args:
        center: circle center.
        radius_km: circle radius in kilometres (must be positive).
        alpha_deg: angular step in degrees; e.g. 36 yields 10 points.

    Raises:
        ValueError: if ``radius_km`` or ``alpha_deg`` is not positive.
    """
    if radius_km <= 0:
        raise ValueError(f"radius must be positive, got {radius_km}")
    if alpha_deg <= 0:
        raise ValueError(f"alpha must be positive, got {alpha_deg}")
    points = []
    bearing = 0.0
    while bearing < 360.0 - 1e-9:
        points.append(destination(center, bearing, radius_km))
        bearing += alpha_deg
    return points


def concentric_circles(
    center: GeoPoint,
    region: Optional[IntersectionRegion],
    step_km: float,
    alpha_deg: float,
    max_circles: int = 200,
    inside: Optional[Callable[[GeoPoint], bool]] = None,
) -> Iterator[List[GeoPoint]]:
    """Yield the walk's kept points one circle at a time.

    The first list is ``[center]``; then, for ``k = 1, 2, ...``, the points
    of the circle of radius ``k * step_km`` that lie inside the region, in
    bearing order. The walk stops at the first circle with no point inside
    the region (or after ``max_circles`` circles, a safety bound for huge
    regions). Circles are computed only as the consumer asks for them.

    Args:
        center: circle center, the region centroid from the previous tier.
        region: the constraint region; ``None`` means "no constraint" and
            only ``max_circles`` bounds the walk.
        step_km: radius increment per circle (R in the paper).
        alpha_deg: rotation step per point (alpha in the paper).
        max_circles: hard bound on the number of circles.
        inside: optional per-point membership override; defaults to one
            :meth:`~repro.geo.regions.IntersectionRegion.contains_points`
            test per circle.
    """
    yield [center]
    for k in range(1, max_circles + 1):
        points = circle_points(center, k * step_km, alpha_deg)
        if inside is not None:
            kept = [point for point in points if inside(point)]
        elif region is not None:
            kept = [
                point
                for point, keep in zip(points, region.contains_points(points))
                if keep
            ]
        else:
            kept = points
        if not kept:
            return
        yield kept


def concentric_circle_points(
    center: GeoPoint,
    region: Optional[IntersectionRegion],
    step_km: float,
    alpha_deg: float,
    max_circles: int = 200,
    inside: Optional[Callable[[GeoPoint], bool]] = None,
) -> Iterator[GeoPoint]:
    """Yield region sample points per the street level paper's procedure.

    The points of :func:`concentric_circles`, flattened: the center first,
    then the kept points of each circle in turn (same arguments).
    """
    for kept in concentric_circles(center, region, step_km, alpha_deg, max_circles, inside):
        yield from kept
