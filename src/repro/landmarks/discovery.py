"""Landmark discovery: the tier 2/3 funnel of the street level technique.

Sample points on concentric circles inside the current constraint region,
reverse-geocode each point to a zip code, list the websites-bearing
amenities of each newly seen zip code, and keep the websites passing the
locally-hosted tests. Results are deduplicated by hostname, since the same
website often surfaces from several sample points.

The walk goes one sampling circle at a time: the circle's membership test
and its reverse geocoding are each one batch, while every point is still
consumed (and charged) in the paper's order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.geo.coords import GeoPoint
from repro.geo.regions import IntersectionRegion
from repro.geo.sampling import concentric_circles
from repro.landmarks.mapping import ReverseGeocoder
from repro.landmarks.overpass import OverpassService
from repro.landmarks.validation import LandmarkValidator
from repro.world.world import World


@dataclass(frozen=True)
class Landmark:
    """A validated landmark: a website believed to sit at a postal address.

    Attributes:
        hostname: the website's DNS name.
        ip: the address its hostname resolves to (the traceroute target).
        location: the *claimed* position — the advertising POI's location.
            Whether the server really is there is exactly what the street
            level technique gambles on.
        poi_id: the advertising POI.
        city_id: city of the POI.
        zipcode: zip code under which the POI was found.
        tier: which tier discovered it (2 or 3).
    """

    hostname: str
    ip: str
    location: GeoPoint
    poi_id: int
    city_id: int
    zipcode: str
    tier: int


@dataclass
class DiscoveryStats:
    """Operation counts of one discovery run (feeds §5.2.5 and Figure 6c)."""

    geocode_queries: int = 0
    overpass_queries: int = 0
    candidates_tested: int = 0
    landmarks_found: int = 0
    zipcodes_seen: int = 0
    rejected_by: Dict[str, int] = field(default_factory=dict)

    def merge(self, other: "DiscoveryStats") -> None:
        """Accumulate another run's counts into this one."""
        self.geocode_queries += other.geocode_queries
        self.overpass_queries += other.overpass_queries
        self.candidates_tested += other.candidates_tested
        self.landmarks_found += other.landmarks_found
        self.zipcodes_seen += other.zipcodes_seen
        for reason, count in other.rejected_by.items():
            self.rejected_by[reason] = self.rejected_by.get(reason, 0) + count


class LandmarkDiscovery:
    """Runs the sample -> geocode -> amenities -> validate funnel."""

    def __init__(
        self,
        world: World,
        geocoder: ReverseGeocoder,
        overpass: OverpassService,
        validator: LandmarkValidator,
    ) -> None:
        self.world = world
        self.geocoder = geocoder
        self.overpass = overpass
        self.validator = validator

    def discover(
        self,
        center: GeoPoint,
        region: Optional[IntersectionRegion],
        step_km: float,
        alpha_deg: float,
        tier: int,
        max_circles: int = 120,
        known_hostnames: Optional[Set[str]] = None,
        max_landmarks: Optional[int] = None,
    ) -> Tuple[List[Landmark], DiscoveryStats]:
        """Discover landmarks around a region centroid.

        Args:
            center: circle centre (the previous tier's estimate).
            region: constraint region bounding the sampling walk.
            step_km: circle radius increment (R: 5 km in tier 2, 1 km in 3).
            alpha_deg: rotation step (alpha: 36 degrees in tier 2, 10 in 3).
            tier: tier number recorded on the landmarks.
            max_circles: safety bound on the concentric walk.
            known_hostnames: hostnames to skip (already found by an earlier
                tier); the set is updated in place.
            max_landmarks: optional cap on landmarks returned.

        Returns:
            ``(landmarks, stats)``.
        """
        stats = DiscoveryStats()
        seen_hostnames = known_hostnames if known_hostnames is not None else set()
        seen_zipcodes: Set[Tuple[int, str]] = set()
        landmarks: List[Landmark] = []

        for circle in concentric_circles(
            center, region, step_km, alpha_deg, max_circles=max_circles
        ):
            for geocoded in self.geocoder.reverse_many(circle):
                stats.geocode_queries += 1
                if geocoded is None:
                    continue
                cell = (geocoded.city_id, geocoded.zipcode)
                if cell in seen_zipcodes:
                    continue
                seen_zipcodes.add(cell)

                pois = self.overpass.amenities_with_website(geocoded.city_id, geocoded.zipcode)
                stats.overpass_queries += 1
                for poi in pois:
                    website = poi.website
                    if website is None or website.hostname in seen_hostnames:
                        continue
                    seen_hostnames.add(website.hostname)
                    stats.candidates_tested += 1
                    outcome = self.validator.validate(poi, website, geocoded.zipcode)
                    if not outcome.passed:
                        reason = outcome.reason or "unknown"
                        stats.rejected_by[reason] = stats.rejected_by.get(reason, 0) + 1
                        continue
                    landmarks.append(
                        Landmark(
                            hostname=website.hostname,
                            ip=website.ip,
                            location=poi.location,
                            poi_id=poi.poi_id,
                            city_id=poi.city_id,
                            zipcode=geocoded.zipcode,
                            tier=tier,
                        )
                    )
                    if max_landmarks is not None and len(landmarks) >= max_landmarks:
                        stats.zipcodes_seen = len(seen_zipcodes)
                        stats.landmarks_found = len(landmarks)
                        return landmarks, stats

        stats.zipcodes_seen = len(seen_zipcodes)
        stats.landmarks_found = len(landmarks)
        return landmarks, stats
