"""The publishable geolocation dataset (the paper's stated end goal).

The paper's title is "Towards a Publicly Available Internet Scale IP
Geolocation Dataset": beyond the replication it argues the community needs
an *accurate, complete, explainable* dataset. This module produces the
explainable artefact this repository can publish — one record per target
with the estimate of every technique, the measurement evidence behind it,
and an honest per-record quality class — plus JSON/CSV writers and a
reader, so downstream users can consume it without running the simulator.
"""

from __future__ import annotations

import csv
import json
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Union

from repro.geo.coords import GeoPoint

#: Schema version written into every export.
DATASET_SCHEMA_VERSION = 1

#: Quality classes, from the paper's §7.1 baseline framing.
QUALITY_STREET = "street-level"  # error evidence within ~1 km
QUALITY_CITY = "city-level"  # within ~40 km
QUALITY_REGION = "region-level"  # beyond city level
QUALITY_UNKNOWN = "unknown"  # technique produced no estimate


@dataclass
class GeolocationRecord:
    """One dataset row: everything known about one IP address.

    Attributes:
        ip: the geolocated address.
        estimates: technique name -> (lat, lon), for every technique run.
        preferred_technique: which estimate the dataset recommends.
        quality: one of the QUALITY_* classes — an *explainable* confidence
            statement, derived from measurement evidence (e.g. the lowest
            observed RTT), never from ground truth.
        evidence: free-form per-technique diagnostics (min RTT, number of
            constraints, chosen landmark, ...), the explainability payload.
    """

    ip: str
    estimates: Dict[str, Optional[List[float]]] = field(default_factory=dict)
    preferred_technique: str = ""
    quality: str = QUALITY_UNKNOWN
    evidence: Dict[str, object] = field(default_factory=dict)

    def preferred_location(self) -> Optional[GeoPoint]:
        """The recommended estimate as a GeoPoint, if any."""
        pair = self.estimates.get(self.preferred_technique)
        if pair is None:
            return None
        return GeoPoint(pair[0], pair[1])


def quality_from_min_rtt(min_rtt_ms: Optional[float]) -> str:
    """Classify confidence from the lowest observed RTT (explainable rule).

    Sub-millisecond RTTs pin the target to a few dozen km (city level, and
    plausibly street level below ~0.3 ms); above ~1.5 ms the constraint
    radius exceeds city scale.
    """
    if min_rtt_ms is None:
        return QUALITY_UNKNOWN
    if min_rtt_ms < 0.3:
        return QUALITY_STREET
    if min_rtt_ms < 1.5:
        return QUALITY_CITY
    return QUALITY_REGION


class GeolocationDataset:
    """An ordered collection of records with JSON/CSV round-tripping."""

    def __init__(self, records: Optional[Iterable[GeolocationRecord]] = None) -> None:
        self._records: List[GeolocationRecord] = list(records or [])
        self._by_ip = {record.ip: record for record in self._records}
        if len(self._by_ip) != len(self._records):
            raise ValueError("duplicate IPs in dataset")

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self):
        return iter(self._records)

    def add(self, record: GeolocationRecord) -> None:
        """Append a record (one per IP).

        Raises:
            ValueError: if the IP already has a record.
        """
        if record.ip in self._by_ip:
            raise ValueError(f"duplicate record for {record.ip}")
        self._records.append(record)
        self._by_ip[record.ip] = record

    def lookup(self, ip: str) -> Optional[GeolocationRecord]:
        """The record for an address, if present."""
        return self._by_ip.get(ip)

    def quality_counts(self) -> Dict[str, int]:
        """How many records fall in each quality class."""
        counts: Dict[str, int] = {}
        for record in self._records:
            counts[record.quality] = counts.get(record.quality, 0) + 1
        return counts

    # --- JSON ---------------------------------------------------------------

    def write_json(self, path: Union[str, Path]) -> None:
        """Write the dataset as a single JSON document."""
        payload = {
            "schema_version": DATASET_SCHEMA_VERSION,
            "records": [asdict(record) for record in self._records],
        }
        Path(path).write_text(json.dumps(payload, indent=1, sort_keys=True))

    @classmethod
    def read_json(cls, path: Union[str, Path]) -> "GeolocationDataset":
        """Read a dataset written by :meth:`write_json`.

        Raises:
            ValueError: on schema mismatches.
        """
        payload = json.loads(Path(path).read_text())
        version = payload.get("schema_version")
        if version != DATASET_SCHEMA_VERSION:
            raise ValueError(f"unsupported dataset schema version: {version}")
        records = [GeolocationRecord(**row) for row in payload["records"]]
        return cls(records)

    # --- CSV ----------------------------------------------------------------

    _CSV_FIELDS = ("ip", "technique", "lat", "lon", "quality", "preferred")

    def write_csv(self, path: Union[str, Path]) -> None:
        """Write a flat CSV: one row per (ip, technique) estimate."""
        with open(path, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(self._CSV_FIELDS)
            for record in self._records:
                for technique, pair in sorted(record.estimates.items()):
                    if pair is None:
                        continue
                    writer.writerow(
                        [
                            record.ip,
                            technique,
                            f"{pair[0]:.5f}",
                            f"{pair[1]:.5f}",
                            record.quality,
                            "1" if technique == record.preferred_technique else "0",
                        ]
                    )

    @classmethod
    def read_csv(cls, path: Union[str, Path]) -> "GeolocationDataset":
        """Read a CSV written by :meth:`write_csv` (evidence is not kept)."""
        by_ip: Dict[str, GeolocationRecord] = {}
        with open(path, newline="") as handle:
            reader = csv.DictReader(handle)
            if reader.fieldnames is None or tuple(reader.fieldnames) != cls._CSV_FIELDS:
                raise ValueError(f"unexpected CSV header: {reader.fieldnames}")
            for row in reader:
                record = by_ip.get(row["ip"])
                if record is None:
                    record = GeolocationRecord(ip=row["ip"], quality=row["quality"])
                    by_ip[row["ip"]] = record
                record.estimates[row["technique"]] = [float(row["lat"]), float(row["lon"])]
                if row["preferred"] == "1":
                    record.preferred_technique = row["technique"]
        return cls(by_ip.values())


def main(argv: Optional[List[str]] = None) -> int:
    """CLI: export the baseline dataset.

    Usage::

        python -m repro.dataset --preset small --out baseline.json
        repro-dataset --preset paper --format csv --out baseline.csv
    """
    import argparse

    parser = argparse.ArgumentParser(
        description="Export the replication's baseline geolocation dataset."
    )
    parser.add_argument("--preset", choices=["paper", "small"], default="small")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--format", choices=["json", "csv"], default="json")
    parser.add_argument("--out", required=True, help="output file path")
    parser.add_argument("--max-targets", type=int, default=None)
    args = parser.parse_args(argv)

    from repro.experiments.scenario import get_scenario

    scenario = get_scenario(args.preset, args.seed)
    dataset = build_dataset_from_scenario(scenario, args.max_targets)
    if args.format == "json":
        dataset.write_json(args.out)
    else:
        dataset.write_csv(args.out)
    print(
        f"wrote {len(dataset)} records to {args.out} "
        f"(quality: {dataset.quality_counts()})"
    )
    return 0


def build_dataset_from_scenario(scenario, max_targets: Optional[int] = None) -> GeolocationDataset:
    """Produce the baseline dataset from a scenario's measurements.

    Runs all-VP CBG (one batched pass over the exported targets) and
    Shortest Ping per target, classifies quality from the lowest observed
    RTT, and records the evidence. (Street level estimates can be merged
    in afterwards from the street runner.)
    """
    import numpy as np

    from repro.core.cbg_batch import cbg_centroids_batch

    matrix = scenario.rtt_matrix()
    dataset = GeolocationDataset()
    targets = scenario.targets if max_targets is None else scenario.targets[:max_targets]
    cbg_lats, cbg_lons = cbg_centroids_batch(
        scenario.vp_lats, scenario.vp_lons, matrix[:, : len(targets)]
    )
    for column, target in enumerate(targets):
        rtts = matrix[:, column]
        answered = ~np.isnan(rtts)
        min_rtt = float(np.nanmin(rtts)) if answered.any() else None

        estimates: Dict[str, Optional[List[float]]] = {}
        lat, lon = float(cbg_lats[column]), float(cbg_lons[column])
        estimates["cbg"] = None if np.isnan(lat) else [lat, lon]
        if answered.any():
            best = int(np.nanargmin(rtts))
            vp = scenario.vps[best]
            estimates["shortest-ping"] = [vp.location.lat, vp.location.lon]
        else:
            estimates["shortest-ping"] = None

        dataset.add(
            GeolocationRecord(
                ip=target.ip,
                estimates=estimates,
                preferred_technique="cbg" if estimates["cbg"] is not None else "shortest-ping",
                quality=quality_from_min_rtt(min_rtt),
                evidence={
                    "min_rtt_ms": min_rtt,
                    "answering_vps": int(answered.sum()),
                    "vp_count": len(scenario.vps),
                },
            )
        )
    return dataset


if __name__ == "__main__":  # pragma: no cover - CLI entry
    import sys

    sys.exit(main())
