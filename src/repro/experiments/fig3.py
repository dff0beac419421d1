"""Figure 3: the original and two-step VP selection algorithms (§5.1.2-4).

* **fig3a** — CBG error when the target is probed only from the 1/3/10
  vantage points with the lowest RTT to its /24 representatives, vs all VPs;
* **fig3b** — error of the two-step selection for several first-step
  coverage-subset sizes;
* **fig3c** — the measurement overhead of the two-step selection (the
  paper's table: 13.2% of the original algorithm's pings at 500 VPs).
"""

from __future__ import annotations

from typing import Dict, List, Sequence

import numpy as np

from repro.analysis import format_table
from repro.core.cbg import cbg_errors_for_subsets
from repro.core.coverage import greedy_coverage_indices
from repro.core.million_scale import closest_vps_matrix
from repro.core.two_step import two_step_select
from repro.experiments.base import ExperimentOutput
from repro.experiments.scenario import Scenario
from repro.geo.coords import haversine_km

FIG3A_EXPECTED = {
    # §5.1.2: 62% of targets within 10 km using the single closest VP,
    # vs 52% with all VPs.
    "within_10km_single_vp": 0.62,
    "within_10km_all_vps": 0.52,
}

FIG3C_EXPECTED = {
    # §5.1.4: 2.88M pings at a 500-VP first step = 13.2% of the 21.7M the
    # original algorithm needs.
    "overhead_fraction_500": 0.132,
}


def run_fig3a(
    scenario: Scenario, ks: Sequence[int] = (1, 3, 10)
) -> ExperimentOutput:
    """Original VP selection: error for k closest-by-representative VPs."""
    rep_min, _rep_median, _reps = scenario.representative_matrices()
    target_matrix = scenario.rtt_matrix()
    series: Dict[str, object] = {}
    rows: List[List[object]] = []

    for k in ks:
        errors = cbg_errors_for_subsets(
            scenario.vp_lats,
            scenario.vp_lons,
            closest_vps_matrix(target_matrix, rep_min, k),
            scenario.target_true_lats,
            scenario.target_true_lons,
            np.arange(len(scenario.vps)),
        )
        series[f"{k}-closest"] = errors.tolist()
        rows.append(_row(f"{k} closest VP(s)", errors))

    all_errors = cbg_errors_for_subsets(
        scenario.vp_lats,
        scenario.vp_lons,
        target_matrix,
        scenario.target_true_lats,
        scenario.target_true_lons,
        np.arange(len(scenario.vps)),
    )
    series["all"] = all_errors.tolist()
    rows.append(_row("All VPs", all_errors))

    table = format_table(["VP selection", "median km", "<=10km", "<=40km"], rows)
    single = np.asarray(series["1-closest"], dtype=float)
    measured = {
        "within_10km_single_vp": float(np.nanmean(single <= 10.0)),
        "within_10km_all_vps": float(np.nanmean(all_errors <= 10.0)),
    }
    return ExperimentOutput(
        "fig3a",
        "Original VP selection (k lowest-RTT VPs to /24 representatives)",
        table,
        measured=measured,
        expected=dict(FIG3A_EXPECTED),
        series=series,
    )


def run_fig3bc(
    scenario: Scenario,
    first_step_sizes: Sequence[int] = (10, 100, 300, 500, 1000),
) -> ExperimentOutput:
    """Two-step VP selection: accuracy (fig3b) and overhead (fig3c)."""
    rep_min, rep_median, _reps = scenario.representative_matrices()
    target_matrix = scenario.rtt_matrix()
    vp_count = len(scenario.vps)
    first_step_sizes = [size for size in first_step_sizes if size <= vp_count]

    series: Dict[str, object] = {}
    overhead_rows: List[List[object]] = []
    error_rows: List[List[object]] = []
    measurements_by_size: Dict[int, int] = {}

    for size in first_step_sizes:
        step1 = greedy_coverage_indices(scenario.vp_lats, scenario.vp_lons, size)
        errors = np.full(len(scenario.targets), np.nan)
        total_measurements = 0
        for column, target in enumerate(scenario.targets):
            outcome = two_step_select(
                target.ip,
                scenario.vps,
                step1,
                rep_median[:, column],
            )
            total_measurements += outcome.ping_measurements
            if outcome.estimate is not None:
                errors[column] = haversine_km(
                    outcome.estimate.lat,
                    outcome.estimate.lon,
                    target.true_location.lat,
                    target.true_location.lon,
                )
        series[f"two-step-{size}"] = errors.tolist()
        measurements_by_size[size] = total_measurements
        error_rows.append(_row(f"{size} first-step VPs", errors))
        overhead_rows.append([size, f"{total_measurements / 1e6:.2f}M", ""])

    all_errors = cbg_errors_for_subsets(
        scenario.vp_lats,
        scenario.vp_lons,
        target_matrix,
        scenario.target_true_lats,
        scenario.target_true_lons,
        np.arange(vp_count),
    )
    series["all"] = all_errors.tolist()
    error_rows.append(_row("All VPs (CBG)", all_errors))

    original_measurements = vp_count * 3 * len(scenario.targets)
    for row in overhead_rows:
        size = row[0]
        row[2] = f"{measurements_by_size[size] / original_measurements:.1%}"
    overhead_rows.append(["All", f"{original_measurements / 1e6:.2f}M", "100%"])

    table = (
        "accuracy (fig3b):\n"
        + format_table(["VP selection", "median km", "<=10km", "<=40km"], error_rows)
        + "\n\noverhead (fig3c):\n"
        + format_table(["first-step VPs", "measurements", "vs original"], overhead_rows)
    )

    best_size = 500 if 500 in measurements_by_size else max(measurements_by_size)
    measured = {
        "overhead_fraction_500": measurements_by_size[best_size] / original_measurements,
        "median_two_step_500_km": float(
            np.nanmedian(np.asarray(series[f"two-step-{best_size}"], dtype=float))
        ),
        "median_all_vps_km": float(np.nanmedian(all_errors)),
    }
    return ExperimentOutput(
        "fig3bc",
        "Two-step VP selection: accuracy and measurement overhead",
        table,
        measured=measured,
        expected=dict(FIG3C_EXPECTED),
        series=series,
    )


def _row(label: str, errors: np.ndarray) -> List[object]:
    defined = errors[~np.isnan(errors)]
    if defined.size == 0:
        return [label, "n/a", "n/a", "n/a"]
    return [
        label,
        f"{np.median(defined):.1f}",
        f"{(defined <= 10).mean():.0%}",
        f"{(defined <= 40).mean():.0%}",
    ]
