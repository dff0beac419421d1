"""Shortest Ping vs CBG parity (§5.1: "results with shortest ping are
similar").

The paper reports every Figure 2/3 result for CBG and asserts in passing
that Shortest Ping behaves the same. This experiment substantiates the
claim on our substrate: error distributions of both techniques, with all
vantage points and with the million scale 10-VP selection, compared via
medians and the Kolmogorov-Smirnov distance between the error CDFs.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from repro.analysis import format_table
from repro.analysis.ascii_plots import ascii_cdf
from repro.analysis.compare import ks_distance, median_ratio
from repro.core.cbg import cbg_errors_for_subsets
from repro.core.million_scale import closest_vps_matrix, select_closest_vps
from repro.experiments.base import ExperimentOutput
from repro.experiments.scenario import Scenario
from repro.geo.coords import haversine_km

EXPECTED = {
    # "Similar" operationalised: medians within 2x, CDFs within KS 0.25.
    "all_vps_ks": 0.25,
    "selected_ks": 0.25,
}


def _shortest_ping_errors(scenario: Scenario, subset_per_target) -> np.ndarray:
    """Error of the lowest-RTT VP's location, per target."""
    matrix = scenario.rtt_matrix()
    errors = np.full(len(scenario.targets), np.nan)
    for column, target in enumerate(scenario.targets):
        subset = subset_per_target(column)
        if subset.size == 0:
            continue
        rtts = matrix[subset, column]
        if np.isnan(rtts).all():
            continue
        best = subset[int(np.nanargmin(rtts))]
        errors[column] = haversine_km(
            float(scenario.vp_lats[best]),
            float(scenario.vp_lons[best]),
            target.true_location.lat,
            target.true_location.lon,
        )
    return errors


def run_parity(scenario: Scenario) -> ExperimentOutput:
    """Compare CBG and Shortest Ping error distributions."""
    matrix = scenario.rtt_matrix()
    all_indices = np.arange(len(scenario.vps))
    rep_min, _median, _reps = scenario.representative_matrices()

    cbg_all = cbg_errors_for_subsets(
        scenario.vp_lats,
        scenario.vp_lons,
        matrix,
        scenario.target_true_lats,
        scenario.target_true_lons,
        all_indices,
    )
    sp_all = _shortest_ping_errors(scenario, lambda _column: all_indices)

    def selected(column: int) -> np.ndarray:
        return select_closest_vps(rep_min[:, column], 10)

    sp_selected = _shortest_ping_errors(scenario, selected)
    cbg_selected = cbg_errors_for_subsets(
        scenario.vp_lats,
        scenario.vp_lons,
        closest_vps_matrix(matrix, rep_min, 10),
        scenario.target_true_lats,
        scenario.target_true_lons,
        all_indices,
    )

    rows: List[List[object]] = []
    measured: Dict[str, float] = {}
    for label, cbg_errors, sp_errors, key in (
        ("all VPs", cbg_all, sp_all, "all_vps_ks"),
        ("10 selected VPs", cbg_selected, sp_selected, "selected_ks"),
    ):
        ks = ks_distance(cbg_errors, sp_errors)
        ratio = median_ratio(sp_errors, cbg_errors)
        rows.append(
            [
                label,
                f"{np.nanmedian(cbg_errors):.1f}",
                f"{np.nanmedian(sp_errors):.1f}",
                f"{ratio:.2f}",
                f"{ks:.3f}",
            ]
        )
        measured[key] = ks
        measured[key.replace("_ks", "_median_ratio")] = ratio

    table = (
        format_table(
            ["VP set", "CBG median km", "SP median km", "SP/CBG ratio", "KS distance"],
            rows,
        )
        + "\n\n"
        + ascii_cdf(
            {"cbg-all": cbg_all.tolist(), "sp-all": sp_all.tolist()},
            x_label="error km",
        )
    )
    return ExperimentOutput(
        "parity",
        "Shortest Ping tracks CBG (the paper's §5.1 aside)",
        table,
        measured=measured,
        expected=dict(EXPECTED),
        series={
            "cbg_all": cbg_all.tolist(),
            "sp_all": sp_all.tolist(),
            "cbg_selected": cbg_selected.tolist(),
            "sp_selected": sp_selected.tolist(),
        },
    )
