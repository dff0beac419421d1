"""Reverse geocoding: coordinates to zip codes (Nominatim substitute).

The replication runs a local Nominatim instance because the Geonames API's
quota (1,000 calls/hour) cannot absorb the ~878 reverse-geocoding queries a
single target needs (§4.2.4). Even self-hosted, the service rate-limits at
roughly 8 requests per second — the number this module charges to the
simulated clock, since it dominates landmark-discovery time (§5.2.5).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator, Optional, Sequence

from repro.atlas.clock import SimClock

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from repro.landmarks.cache import LandmarkCache
from repro.atlas.ratelimit import SlidingWindowRateLimiter
from repro.geo.coords import GeoPoint
from repro.world.world import World

#: Points farther than this from every city centre have no postal address.
MAX_URBAN_RADIUS_KM = 60.0

#: Server-side processing time per reverse-geocoding query, seconds.
QUERY_COST_S = 0.02


@dataclass(frozen=True)
class ReverseGeocodeResult:
    """A successful reverse-geocoding answer."""

    zipcode: str
    city_id: int


class ReverseGeocoder:
    """Maps coordinates to the zip code covering them."""

    def __init__(
        self,
        world: World,
        clock: Optional[SimClock] = None,
        max_requests_per_s: int = 8,
        cache: Optional["LandmarkCache"] = None,
    ) -> None:
        self.world = world
        self._clock = clock
        self._limiter = (
            SlidingWindowRateLimiter(clock, max_requests_per_s) if clock else None
        )
        self._cache = cache
        self.queries = 0

    def reverse(self, point: GeoPoint) -> Optional[ReverseGeocodeResult]:
        """The zip code at a point, or ``None`` in unpopulated areas.

        Charges rate-limit wait time and processing time to the clock —
        unless a shared cache (paper §5.2.5) already holds the answer, in
        which case the query never reaches the service.
        """
        return next(self.reverse_many([point]))

    def reverse_many(
        self, points: Sequence[GeoPoint]
    ) -> Iterator[Optional[ReverseGeocodeResult]]:
        """:meth:`reverse` for each point in turn, as a lazy iterator.

        The nearest cities of all the points are looked up in one batch up
        front: an answer is a pure function of its point. What a query
        costs is not, so each point's cache lookup, rate-limit wait,
        processing charge and cache write happen only when the consumer
        asks for its answer, in order, interleaved with whatever the
        consumer charges in between. A consumer that stops early (a
        landmark cap reached mid-circle) never pays for, or caches, the
        points it did not consume.
        """
        cities = self.world.city_index.nearest_many(
            points, max_distance_km=MAX_URBAN_RADIUS_KM
        )
        for point, city in zip(points, cities):
            if self._cache is not None:
                hit, cached = self._cache.get_geocode(point)
                if hit:
                    yield cached
                    continue
            self.queries += 1
            if self._limiter is not None:
                self._limiter.acquire("mapping")
            if self._clock is not None:
                self._clock.advance(QUERY_COST_S, "mapping")
            answer = (
                None
                if city is None
                else ReverseGeocodeResult(zipcode=city.zipcode_at(point), city_id=city.city_id)
            )
            if self._cache is not None:
                self._cache.put_geocode(point, answer)
            yield answer
