"""Shared street level campaign: run once, feed Figures 5, 6, and 8.

Running the three-tier pipeline over every target is the replication's most
expensive campaign, and five separate artefacts consume its outputs
(Figures 5a/5b/5c and 6a/6c). This module runs it once per scenario and
keeps the per-target records on the scenario itself
(:attr:`Scenario.street_records`), so they live and die with the
scenario they describe.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Dict, List, Optional

import numpy as np

from repro.atlas.platform import ProbeInfo
from repro.core.street_level import (
    StreetLevelConfig,
    StreetLevelPipeline,
    StreetLevelResult,
)
from repro.exec import parallel_map
from repro.experiments.scenario import Scenario
from repro.geo.coords import GeoPoint
from repro.world.hosts import Host


@dataclass
class TargetRecord:
    """Street level outcome for one target, with ground-truth distances.

    Attributes:
        target: the target host.
        result: the raw pipeline result.
        street_error_km: error of the street level estimate.
        cbg_error_km: error of the tier-1 CBG estimate on the same VPs.
        oracle_error_km: error of the closest-landmark oracle (§5.2.1);
            equals ``cbg_error_km`` when the target has no landmarks, as in
            the paper's treatment of its 46 landmark-less targets.
        landmark_distances_km: geographic distance of every validated
            landmark to the target (ground truth; evaluation only).
        landmark_measured_km: the measured (D1+D2-derived) distance per
            landmark, aligned with ``landmark_distances_km``; ``None``
            entries are unusable delays.
    """

    target: Host
    result: StreetLevelResult
    street_error_km: float
    cbg_error_km: float
    oracle_error_km: float
    landmark_distances_km: List[float]
    landmark_measured_km: List[Optional[float]]

    @property
    def unusable_fraction(self) -> Optional[float]:
        """Fraction of landmarks whose D1+D2 is unusable (Figure 6a)."""
        if not self.landmark_measured_km:
            return None
        unusable = sum(1 for value in self.landmark_measured_km if value is None)
        return unusable / len(self.landmark_measured_km)


def _street_target(
    targets: List[Host],
    mesh: np.ndarray,
    mesh_row_by_id: Dict[int, int],
    pipeline: StreetLevelPipeline,
    anchors: List[ProbeInfo],
    index: int,
) -> TargetRecord:
    """Geolocate one street-level target of the campaign bound before the
    fan-out.

    Each target's measurements are keyed by its own IP/sequence counters,
    never by shared mutable state, so targets may run in any order on any
    worker with byte-identical results.
    """
    target = targets[index]
    column = mesh_row_by_id[target.host_id]
    tier1_rtts = {
        anchor_id: (None if np.isnan(mesh[row, column]) else float(mesh[row, column]))
        for anchor_id, row in mesh_row_by_id.items()
    }
    result = pipeline.geolocate(target.ip, anchors, tier1_rtts)
    return _evaluate(target, result)


def street_level_records(
    scenario: Scenario,
    max_targets: Optional[int] = None,
    config: Optional[StreetLevelConfig] = None,
) -> List[TargetRecord]:
    """Run (or reuse) the street level campaign over the scenario targets.

    Args:
        scenario: the sanitized scenario; default-configuration records
            are kept in its :attr:`~Scenario.street_records`, keyed by
            ``max_targets``.
        max_targets: cap on targets (evenly subsampled) — the full 723-
            target campaign is minutes of compute; benchmarks default to a
            subset unless the environment requests the full run.
        config: optional pipeline configuration override (uncached runs).
    """
    if config is None and max_targets in scenario.street_records:
        return scenario.street_records[max_targets]

    anchors = scenario.anchor_vp_infos()
    mesh_ids, mesh = scenario.mesh()
    mesh_row_by_id = {anchor_id: row for row, anchor_id in enumerate(mesh_ids)}
    pipeline = StreetLevelPipeline(scenario.client, scenario.world, config)

    targets = scenario.targets
    if max_targets is not None and max_targets < len(targets):
        stride = len(targets) / max_targets
        targets = [targets[int(i * stride)] for i in range(max_targets)]

    # Landmark discovery materialises POIs/web servers lazily in visit
    # order, which is target order — worker processes would each invent a
    # different order and diverge. Materialise the whole world canonically
    # up front so the campaign only reads it (serial and parallel alike).
    scenario.world.materialize_all_pois()

    # Observed campaigns fan out too: workers capture per-target
    # counters/events/spans and the executor folds them back into the
    # live observer, byte-identical to a serial observed run.
    records = parallel_map(
        partial(_street_target, targets, mesh, mesh_row_by_id, pipeline, anchors),
        range(len(targets)),
        obs=pipeline.obs,
        checker=scenario.checker,
        live=getattr(scenario, "live", None),
    )

    if config is None:
        scenario.street_records[max_targets] = records
    return records


def _evaluate(target: Host, result: StreetLevelResult) -> TargetRecord:
    """Attach ground-truth error distances to a pipeline result."""
    truth = target.true_location
    street_error = _error(result.estimate, truth)
    cbg_error = _error(result.tier1_estimate, truth)

    landmark_distances: List[float] = []
    landmark_measured: List[Optional[float]] = []
    for measurement in result.measurements:
        landmark_distances.append(measurement.landmark.location.distance_km(truth))
        landmark_measured.append(measurement.measured_distance_km)

    oracle_error = min(landmark_distances) if landmark_distances else cbg_error
    return TargetRecord(
        target=target,
        result=result,
        street_error_km=street_error,
        cbg_error_km=cbg_error,
        oracle_error_km=oracle_error,
        landmark_distances_km=landmark_distances,
        landmark_measured_km=landmark_measured,
    )


def _error(estimate: Optional[GeoPoint], truth: GeoPoint) -> float:
    if estimate is None:
        return float("nan")
    return estimate.distance_km(truth)
