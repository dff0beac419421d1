"""Continents, countries, and cities of the synthetic world.

Cities carry everything the substrates need: a location, a population (which
drives probe placement weights, POI counts, and the population-density
field), a metro radius, and a zip-code scheme (square cells of configurable
size, used by the reverse-geocoding service).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import rand
from repro.geo.coords import (
    HAVERSINE_BAND_KM,
    GeoPoint,
    destination,
    haversine_km,
    matrix_haversine_km,
    normalize_lon,
)
from repro.world.config import WorldConfig


@dataclass(frozen=True)
class Continent:
    """A continent: a code and a (crude) bounding box for city placement."""

    code: str
    name: str
    lat_min: float
    lat_max: float
    lon_min: float
    lon_max: float

    def contains(self, point: GeoPoint) -> bool:
        """Whether a point falls in the continent's bounding box."""
        return (
            self.lat_min <= point.lat <= self.lat_max
            and self.lon_min <= point.lon <= self.lon_max
        )


#: The six populated continents, with bounding boxes that roughly avoid the
#: large oceans. Geometry only needs to be *plausible*: what matters for the
#: replication is the relative geography (intra-Europe distances small,
#: trans-Atlantic large), not coastline fidelity.
CONTINENTS: Dict[str, Continent] = {
    "EU": Continent("EU", "Europe", 36.0, 60.0, -9.0, 30.0),
    "NA": Continent("NA", "North America", 25.0, 50.0, -124.0, -70.0),
    "SA": Continent("SA", "South America", -35.0, 5.0, -75.0, -40.0),
    "AS": Continent("AS", "Asia", 5.0, 55.0, 60.0, 140.0),
    "AF": Continent("AF", "Africa", -30.0, 33.0, -12.0, 45.0),
    "OC": Continent("OC", "Oceania", -43.0, -12.0, 114.0, 154.0),
}


@dataclass(frozen=True)
class Country:
    """A country: a synthetic code, its continent, and a centroid."""

    code: str
    continent: str
    centroid: GeoPoint


@dataclass
class City:
    """One city of the synthetic world.

    Attributes:
        city_id: dense integer id (index into the world's city list).
        name: synthetic name, stable across runs for a given seed.
        country: country code.
        continent: continent code.
        location: city-centre coordinates.
        population: inhabitants; drives density, POIs, and placement weights.
        radius_km: metro radius; hosts and POIs scatter within ~this range.
        zip_prefix: numeric prefix of all zip codes in the city.
        zipcode_cell_km: side of the square zip-code cells.
        compactness: how concentrated the population is; < 1 means a dense
            core (high peak density), > 1 a sprawling town. Only the
            population-density field reads this — real cities of equal
            population differ by orders of magnitude in density, and the
            paper's Figures 6b/8 need that spread.
    """

    city_id: int
    name: str
    country: str
    continent: str
    location: GeoPoint
    population: float
    radius_km: float
    zip_prefix: int
    zipcode_cell_km: float = 2.5
    compactness: float = 1.0

    def zipcode_at(self, point: GeoPoint) -> str:
        """The zip code covering a point, using the city's cell grid.

        Cells are indexed by east/north offsets from the city centre, so two
        points within the same ``zipcode_cell_km`` square share a code.
        """
        east, north = self._offsets_km(point)
        cell_east = int(math.floor(east / self.zipcode_cell_km))
        cell_north = int(math.floor(north / self.zipcode_cell_km))
        # Fold signed cells into a compact positive code; 500 cells on each
        # side covers a metro area of >1000 km across.
        return f"{self.zip_prefix:04d}-{cell_east + 500:03d}{cell_north + 500:03d}"

    def _offsets_km(self, point: GeoPoint) -> Tuple[float, float]:
        """Approximate east/north offsets of a point from the city centre."""
        north = haversine_km(self.location.lat, self.location.lon, point.lat, self.location.lon)
        if point.lat < self.location.lat:
            north = -north
        east = haversine_km(point.lat, self.location.lon, point.lat, point.lon)
        d_lon = normalize_lon(point.lon - self.location.lon)
        if d_lon < 0:
            east = -east
        return east, north

    def random_point(self, key: rand.Key, sigma_scale: float = 0.5) -> GeoPoint:
        """A deterministic point scattered around the city centre.

        Distances follow a half-normal with sigma ``radius_km * sigma_scale``
        (most activity near the centre, thinning outward).
        """
        bearing = rand.uniform((key, "bearing"), 0.0, 360.0)
        distance = abs(rand.normal((key, "dist"), 0.0, self.radius_km * sigma_scale))
        return destination(self.location, bearing, distance)

    @property
    def density_sigma_km(self) -> float:
        """Kernel width used by the population-density field."""
        return max(1.0, self.radius_km * 0.6 * self.compactness)


def _spread_points_in_box(
    continent: Continent, count: int, seed_key: rand.Key, margin: float = 1.0
) -> List[GeoPoint]:
    """Scatter points uniformly in a continent's box (deterministic)."""
    points = []
    for index in range(count):
        lat = rand.uniform(
            (seed_key, "lat", index), continent.lat_min + margin, continent.lat_max - margin
        )
        lon = rand.uniform(
            (seed_key, "lon", index), continent.lon_min + margin, continent.lon_max - margin
        )
        points.append(GeoPoint(lat, lon))
    return points


def generate_countries(config: WorldConfig) -> List[Country]:
    """Generate country centroids per continent."""
    countries: List[Country] = []
    for code, continent in sorted(CONTINENTS.items()):
        count = config.countries_per_continent.get(code, 0)
        centroids = _spread_points_in_box(continent, count, (config.seed, "country", code), 2.0)
        for index, centroid in enumerate(centroids):
            countries.append(Country(f"{code}{index:02d}", code, centroid))
    return countries


def generate_cities(config: WorldConfig, countries: List[Country]) -> List[City]:
    """Generate the world's cities, clustered around country centroids.

    Each city picks the nearest country centroid of a deterministic jittered
    position inside its continent, takes a log-normal population, and derives
    a metro radius that grows with the square root of population.
    """
    by_continent: Dict[str, List[Country]] = {}
    for country in countries:
        by_continent.setdefault(country.continent, []).append(country)

    cities: List[City] = []
    for code in sorted(CONTINENTS):
        continent = CONTINENTS[code]
        count = config.cities_per_continent.get(code, 0)
        continent_countries = by_continent.get(code, [])
        if count and not continent_countries:
            raise ValueError(f"continent {code} has cities but no countries")
        for index in range(count):
            key = (config.seed, "city", code, index)
            # Cluster around a country centroid: pick one, scatter nearby.
            country = continent_countries[
                rand.randint((key, "country"), 0, len(continent_countries))
            ]
            bearing = rand.uniform((key, "bearing"), 0.0, 360.0)
            spread = rand.exponential((key, "spread"), 250.0)
            location = destination(country.centroid, bearing, min(spread, 900.0))
            location = _clamp_to_box(location, continent)
            population = rand.lognormal(
                (key, "pop"), config.city_population_mu, config.city_population_sigma
            )
            population = min(population, 2.5e7)
            radius_km = max(3.0, 0.022 * math.sqrt(population))
            compactness = rand.lognormal((key, "compact"), 0.0, 1.0)
            compactness = min(max(compactness, 0.05), 8.0)
            cities.append(
                City(
                    city_id=len(cities),
                    name=f"{code.lower()}-{country.code.lower()}-{index:04d}",
                    country=country.code,
                    continent=code,
                    location=location,
                    population=population,
                    radius_km=radius_km,
                    zip_prefix=(len(cities) + 1) % 10000,
                    zipcode_cell_km=config.zipcode_cell_km,
                    compactness=compactness,
                )
            )
    return cities


def _clamp_to_box(point: GeoPoint, continent: Continent) -> GeoPoint:
    """Clamp a point into a continent's bounding box."""
    lat = min(max(point.lat, continent.lat_min), continent.lat_max)
    lon = min(max(point.lon, continent.lon_min), continent.lon_max)
    return GeoPoint(lat, lon)


@dataclass(frozen=True)
class _Candidates:
    """The cities a bucket's ring walk visits, in visit order, as arrays."""

    cities: List[City]
    lats: np.ndarray
    lons: np.ndarray


class CityIndex:
    """Bucketed spatial index over cities for nearest-city queries.

    :meth:`nearest` answers what a ring walk over the buckets finds: it
    visits ring 0 (the point's own bucket) outwards up to the first ring f
    holding a city, then ring f + 1, keeping the first city of strictly
    smaller distance in visit order; with no city in rings 0 to 11 it
    scans every city. That is not always the true nearest city (a nearer one can
    sit two rings out), and the answers are kept exactly as the walk gives
    them. The visited cities depend only on the bucket, so each bucket's
    candidate list is built once, as coordinate arrays, and a query is one
    array of distances with a certified argmin.
    """

    def __init__(self, cities: List[City], bucket_deg: float = 2.0) -> None:
        self._cities = cities
        self._bucket_deg = bucket_deg
        self._buckets: Dict[Tuple[int, int], List[City]] = {}
        for city in cities:
            self._buckets.setdefault(self._bucket(city.location), []).append(city)
        self._candidates: Dict[Tuple[int, int], _Candidates] = {}

    def _bucket(self, point: GeoPoint) -> Tuple[int, int]:
        return (
            int(math.floor(point.lat / self._bucket_deg)),
            int(math.floor(point.lon / self._bucket_deg)),
        )

    def _walk_candidates(self, bucket: Tuple[int, int]) -> _Candidates:
        """The ring walk's visit list from one bucket (memoised per bucket)."""
        cached = self._candidates.get(bucket)
        if cached is not None:
            return cached
        blat, blon = bucket
        cities: List[City] = []
        found_ring: Optional[int] = None
        for ring in range(0, 12):
            ring_cities = self._ring_candidates(blat, blon, ring)
            cities.extend(ring_cities)
            if found_ring is None and ring_cities:
                found_ring = ring
            # One extra ring after the first hit: a nearer city can hide
            # one ring out at this bucket granularity.
            if found_ring is not None and ring >= found_ring + 1:
                break
        if not cities:
            cities = list(self._cities)
        cached = _Candidates(
            cities,
            np.array([city.location.lat for city in cities]),
            np.array([city.location.lon for city in cities]),
        )
        self._candidates[bucket] = cached
        return cached

    def nearest(self, point: GeoPoint, max_distance_km: Optional[float] = None) -> Optional[City]:
        """The closest city to a point, optionally within a distance bound."""
        return self.nearest_many([point], max_distance_km)[0]

    def nearest_many(
        self, points: Sequence[GeoPoint], max_distance_km: Optional[float] = None
    ) -> List[Optional[City]]:
        """:meth:`nearest` for many points, one distance matrix per bucket.

        The argmin and the distance bound are taken from numpy distances
        only when they lie more than the band from a tie or from the
        bound; the remaining candidates are recomputed with the scalar
        haversine in visit order, so every answer is the walk's own.
        """
        answers: List[Optional[City]] = [None] * len(points)
        rows_of: Dict[Tuple[int, int], List[int]] = {}
        for row, point in enumerate(points):
            rows_of.setdefault(self._bucket(point), []).append(row)
        band = HAVERSINE_BAND_KM
        for bucket, rows in rows_of.items():
            walk = self._walk_candidates(bucket)
            if not walk.cities:
                continue
            distances = matrix_haversine_km(
                walk.lats,
                walk.lons,
                np.array([points[row].lat for row in rows]),
                np.array([points[row].lon for row in rows]),
            )
            least = distances.min(axis=1)
            near = distances <= (least + 2.0 * band)[:, None]
            # A row is decided by the arrays when one candidate is within
            # two bands of its minimum and the minimum is a band clear of
            # the distance bound.
            exact = near.sum(axis=1) > 1
            if max_distance_km is not None:
                exact |= np.abs(least - max_distance_km) <= band
            for offset, row, column, distance, in_band in zip(
                range(len(rows)),
                rows,
                distances.argmin(axis=1).tolist(),
                least.tolist(),
                exact.tolist(),
            ):
                best = walk.cities[column]
                if in_band:
                    best, distance = self._walk_exact(points[row], walk, near[offset])
                if max_distance_km is None or distance <= max_distance_km:
                    answers[row] = best
        return answers

    @staticmethod
    def _walk_exact(
        point: GeoPoint, walk: _Candidates, candidates: np.ndarray
    ) -> Tuple[Optional[City], float]:
        """The walk's strict argmin over in-band candidates, scalar distances."""
        best: Optional[City] = None
        best_distance = math.inf
        for column in np.flatnonzero(candidates):
            city = walk.cities[column]
            distance = haversine_km(point.lat, point.lon, city.location.lat, city.location.lon)
            if distance < best_distance:
                best_distance = distance
                best = city
        return best, best_distance

    def _ring_candidates(self, blat: int, blon: int, ring: int) -> List[City]:
        candidates: List[City] = []
        for dlat in range(-ring, ring + 1):
            for dlon in range(-ring, ring + 1):
                if max(abs(dlat), abs(dlon)) != ring:
                    continue
                candidates.extend(self._buckets.get((blat + dlat, blon + dlon), ()))
        return candidates

    def within(self, point: GeoPoint, radius_km: float) -> List[City]:
        """All cities whose centre lies within ``radius_km`` of a point."""
        # Conservative bucket window from the radius.
        ring = int(radius_km / (self._bucket_deg * 100.0)) + 2
        blat, blon = self._bucket(point)
        seen: List[City] = []
        for dlat in range(-ring, ring + 1):
            for dlon in range(-ring, ring + 1):
                for city in self._buckets.get((blat + dlat, blon + dlon), ()):
                    if point.distance_km(city.location) <= radius_km:
                        seen.append(city)
        return seen
