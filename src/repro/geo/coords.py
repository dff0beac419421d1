"""Geographic coordinates and great-circle math on a spherical Earth."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.constants import EARTH_RADIUS_KM

#: Certified gap between :func:`haversine_km` and the numpy distance
#: kernels (:func:`bulk_haversine_km`, :func:`matrix_haversine_km`, and the
#: unit-vector form the region scans use) for the same pair of points, in
#: kilometres. Each kernel gets ``a = sin^2(theta / 2)`` to within a few
#: ulps of 1: numpy's ``arcsin`` (and, on some hosts, ``sin``/``cos``)
#: differs from libm's in the last bit, and the unit-vector form also
#: rounds a dot product. ``theta = 2 asin(sqrt(a))`` turns an absolute
#: error ``e`` in ``a`` into at most ``2 R sqrt(e)`` km: about 2e-4 to
#: 4e-4 km for a few ulps, reached near the antipode (and, for the
#: unit-vector form, near coincident points). The band leaves room for an
#: ``e`` of about 28 ulps of 1. Array kernels take a decision (argmin,
#: argmax, a threshold) from numpy distances only when it lies more than
#: this far from the boundary, and recompute the rest with
#: :func:`haversine_km` in the scalar loop's order.
HAVERSINE_BAND_KM = 1e-3


@dataclass(frozen=True, order=True)
class GeoPoint:
    """A point on the Earth's surface.

    Attributes:
        lat: latitude in degrees, in ``[-90, 90]``.
        lon: longitude in degrees, in ``[-180, 180)``.
    """

    lat: float
    lon: float

    def __post_init__(self) -> None:
        if not -90.0 <= self.lat <= 90.0:
            raise ValueError(f"latitude out of range: {self.lat}")
        if not -180.0 <= self.lon < 180.0001:
            raise ValueError(f"longitude out of range: {self.lon}")

    def distance_km(self, other: "GeoPoint") -> float:
        """Great-circle distance to another point, in kilometres."""
        return haversine_km(self.lat, self.lon, other.lat, other.lon)

    def as_radians(self) -> Tuple[float, float]:
        """Return ``(lat, lon)`` in radians."""
        return math.radians(self.lat), math.radians(self.lon)


def normalize_lon(lon: float) -> float:
    """Wrap a longitude into ``[-180, 180)``."""
    wrapped = (lon + 180.0) % 360.0 - 180.0
    return wrapped


def haversine_km(lat1: float, lon1: float, lat2: float, lon2: float) -> float:
    """Great-circle distance between two (lat, lon) pairs, in kilometres.

    Uses the haversine formula, which is numerically stable for small
    distances (unlike the spherical law of cosines).
    """
    phi1, phi2 = math.radians(lat1), math.radians(lat2)
    dphi = phi2 - phi1
    dlambda = math.radians(lon2 - lon1)
    a = math.sin(dphi / 2.0) ** 2 + math.cos(phi1) * math.cos(phi2) * math.sin(dlambda / 2.0) ** 2
    a = min(1.0, max(0.0, a))
    return 2.0 * EARTH_RADIUS_KM * math.asin(math.sqrt(a))


def bulk_haversine_km(
    lats1: np.ndarray, lons1: np.ndarray, lat2: float, lon2: float
) -> np.ndarray:
    """Vectorised haversine from many points to one point, in kilometres.

    Args:
        lats1: array of latitudes in degrees.
        lons1: array of longitudes in degrees, aligned with ``lats1``.
        lat2: destination latitude in degrees.
        lon2: destination longitude in degrees.

    Returns:
        Array of distances, same shape as ``lats1``.
    """
    phi1 = np.radians(np.asarray(lats1, dtype=np.float64))
    phi2 = math.radians(lat2)
    dphi = phi2 - phi1
    dlambda = np.radians(lon2 - np.asarray(lons1, dtype=np.float64))
    a = np.sin(dphi / 2.0) ** 2 + np.cos(phi1) * math.cos(phi2) * np.sin(dlambda / 2.0) ** 2
    a = np.clip(a, 0.0, 1.0)
    return 2.0 * EARTH_RADIUS_KM * np.arcsin(np.sqrt(a))


def matrix_haversine_km(
    lats1: np.ndarray, lons1: np.ndarray, lats2: np.ndarray, lons2: np.ndarray
) -> np.ndarray:
    """All-pairs haversine matrix: ``result[i, j]`` is the distance from
    point ``j`` of the first set to point ``i`` of the second, in km.

    Row ``i`` is bitwise-identical to
    ``bulk_haversine_km(lats1, lons1, float(lats2[i]), float(lons2[i]))``:
    the second set's trigonometry goes through ``math.radians``/``math.cos``
    exactly as the scalar destination of the bulk call does, and every
    operand is combined in the same order. The topology relies on this to
    vectorise its hub mesh and city homing without perturbing a single
    routed path (pinned by the regression suite).
    """
    lats2 = np.asarray(lats2, dtype=np.float64)
    lons2 = np.asarray(lons2, dtype=np.float64)
    phi1 = np.radians(np.asarray(lats1, dtype=np.float64))
    phi2 = np.array([math.radians(float(lat)) for lat in lats2])
    cos_phi2 = np.array([math.cos(p) for p in phi2])
    dphi = phi2[:, None] - phi1[None, :]
    dlambda = np.radians(lons2[:, None] - np.asarray(lons1, dtype=np.float64)[None, :])
    a = (
        np.sin(dphi / 2.0) ** 2
        + np.cos(phi1)[None, :] * cos_phi2[:, None] * np.sin(dlambda / 2.0) ** 2
    )
    a = np.clip(a, 0.0, 1.0)
    return 2.0 * EARTH_RADIUS_KM * np.arcsin(np.sqrt(a))


def pairwise_haversine_km(
    lats1: np.ndarray, lons1: np.ndarray, lats2: np.ndarray, lons2: np.ndarray
) -> np.ndarray:
    """Vectorised haversine between aligned arrays of points, in kilometres."""
    phi1 = np.radians(np.asarray(lats1, dtype=np.float64))
    phi2 = np.radians(np.asarray(lats2, dtype=np.float64))
    dphi = phi2 - phi1
    dlambda = np.radians(np.asarray(lons2, dtype=np.float64) - np.asarray(lons1, dtype=np.float64))
    a = np.sin(dphi / 2.0) ** 2 + np.cos(phi1) * np.cos(phi2) * np.sin(dlambda / 2.0) ** 2
    a = np.clip(a, 0.0, 1.0)
    return 2.0 * EARTH_RADIUS_KM * np.arcsin(np.sqrt(a))


def bearing_deg(origin: GeoPoint, target: GeoPoint) -> float:
    """Initial great-circle bearing from ``origin`` to ``target``, in degrees.

    0 is north, 90 east; the result is in ``[0, 360)``.
    """
    phi1, lambda1 = origin.as_radians()
    phi2, lambda2 = target.as_radians()
    dlambda = lambda2 - lambda1
    y = math.sin(dlambda) * math.cos(phi2)
    x = math.cos(phi1) * math.sin(phi2) - math.sin(phi1) * math.cos(phi2) * math.cos(dlambda)
    return math.degrees(math.atan2(y, x)) % 360.0


def destination(origin: GeoPoint, bearing: float, distance_km: float) -> GeoPoint:
    """The point reached by travelling ``distance_km`` along a bearing.

    Args:
        origin: starting point.
        bearing: initial bearing in degrees (0 = north, 90 = east).
        distance_km: great-circle distance to travel, in kilometres.

    Returns:
        The destination :class:`GeoPoint`.
    """
    phi1, lambda1 = origin.as_radians()
    theta = math.radians(bearing)
    delta = distance_km / EARTH_RADIUS_KM
    sin_phi2 = math.sin(phi1) * math.cos(delta) + math.cos(phi1) * math.sin(delta) * math.cos(theta)
    sin_phi2 = min(1.0, max(-1.0, sin_phi2))
    phi2 = math.asin(sin_phi2)
    y = math.sin(theta) * math.sin(delta) * math.cos(phi1)
    x = math.cos(delta) - math.sin(phi1) * sin_phi2
    lambda2 = lambda1 + math.atan2(y, x)
    return GeoPoint(math.degrees(phi2), normalize_lon(math.degrees(lambda2)))


def bulk_destination(
    origin: GeoPoint, bearings_deg: np.ndarray, distances_km: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Vectorised :func:`destination` from one origin.

    Args:
        origin: starting point.
        bearings_deg: array of initial bearings in degrees.
        distances_km: array of distances in kilometres, aligned with bearings.

    Returns:
        ``(lats, lons)`` arrays in degrees, lons wrapped to ``[-180, 180)``.
    """
    phi1, lambda1 = origin.as_radians()
    theta = np.radians(np.asarray(bearings_deg, dtype=np.float64))
    delta = np.asarray(distances_km, dtype=np.float64) / EARTH_RADIUS_KM
    sin_phi2 = np.clip(
        math.sin(phi1) * np.cos(delta) + math.cos(phi1) * np.sin(delta) * np.cos(theta),
        -1.0,
        1.0,
    )
    phi2 = np.arcsin(sin_phi2)
    y = np.sin(theta) * np.sin(delta) * math.cos(phi1)
    x = np.cos(delta) - math.sin(phi1) * sin_phi2
    lambda2 = lambda1 + np.arctan2(y, x)
    lons = (np.degrees(lambda2) + 180.0) % 360.0 - 180.0
    return np.degrees(phi2), lons


def midpoint(a: GeoPoint, b: GeoPoint) -> GeoPoint:
    """Great-circle midpoint of two points."""
    phi1, lambda1 = a.as_radians()
    phi2, lambda2 = b.as_radians()
    bx = math.cos(phi2) * math.cos(lambda2 - lambda1)
    by = math.cos(phi2) * math.sin(lambda2 - lambda1)
    phi3 = math.atan2(
        math.sin(phi1) + math.sin(phi2),
        math.sqrt((math.cos(phi1) + bx) ** 2 + by**2),
    )
    lambda3 = lambda1 + math.atan2(by, math.cos(phi1) + bx)
    return GeoPoint(math.degrees(phi3), normalize_lon(math.degrees(lambda3)))


def mean_point(points: "list[GeoPoint]") -> GeoPoint:
    """Spherical centroid (normalised 3-D mean) of a set of points.

    Raises:
        ValueError: if ``points`` is empty.
    """
    if not points:
        raise ValueError("cannot average zero points")
    xs = ys = zs = 0.0
    for point in points:
        phi, lam = point.as_radians()
        xs += math.cos(phi) * math.cos(lam)
        ys += math.cos(phi) * math.sin(lam)
        zs += math.sin(phi)
    n = len(points)
    xs, ys, zs = xs / n, ys / n, zs / n
    norm = math.sqrt(xs * xs + ys * ys + zs * zs)
    if norm < 1e-12:
        # Degenerate (e.g. antipodal points): fall back to the first point.
        return points[0]
    phi = math.asin(max(-1.0, min(1.0, zs / norm)))
    lam = math.atan2(ys, xs)
    return GeoPoint(math.degrees(phi), normalize_lon(math.degrees(lam)))
