"""The drift experiment: accuracy decay and staleness under world churn.

Not a paper figure — the paper's dataset is one frozen snapshot — but the
longitudinal question is exactly what ROADMAP item 4 asks: what happens
to a published geolocation dataset as the Internet underneath it churns
at the rates Gouel et al. measured (~5% of blocks moving per revision)?

One seeded :class:`~repro.evolve.EvolutionTimeline` drives three tables:

* **Accuracy decay vs revision** — per revision ``k``, CBG answers from
  the *stale* base-snapshot matrix are scored against snapshot ``k``'s
  ground truth (the operator who never re-measures), next to answers
  from the *fresh* canonical revision-``k`` matrix (the operator who
  re-measures what moved). The stale error over moved targets grows with
  every revision; the fresh path stays at campaign accuracy.
* **Staleness CDF** — per provider, the distribution of entry age (in
  revisions since last refresh) over the stale entries of the final
  revision, plus per-revision stale-entry rates
  (:class:`~repro.geodb.GeoDbRevisions`).
* **Re-measurement cost** — the full-replay path re-measures every
  column every revision (``VPs x targets`` simulated measurements); the
  incremental path re-measures only moved columns. Both are built, the
  cost read off dedicated ``atlas.api_calls`` / ``atlas.ping.measurements``
  counters, and the resulting matrices asserted **byte-identical** per
  revision — re-measuring less loses nothing, by construction.

Per-revision decay scoring fans out through
:func:`~repro.exec.parallel_map`, so the experiment output is
byte-identical serial and under ``REPRO_WORKERS=2`` (the CI parity gate
for this experiment). Error scoring runs with the checker *disarmed*:
stale matrices legitimately violate CBG containment against moved truth
— that violation is the measurement, not a bug. Physics invariants stay
armed inside every snapshot's platform via the scenario checker.
"""

from __future__ import annotations

from functools import partial
from typing import Dict, List, Optional

import numpy as np

from repro.analysis import format_table
from repro.cache.deltas import SnapshotDeltaStore
from repro.check.invariants import NULL_CHECKER
from repro.errors import InvariantViolation
from repro.evolve import (
    EvolutionConfig,
    EvolutionTimeline,
    incremental_matrix,
    revision_matrix,
)
from repro.experiments.base import ExperimentOutput
from repro.geodb import GeoDbRevisions
from repro.core.cbg_batch import cbg_errors_batch
from repro.exec import parallel_map
from repro.obs.observer import Observer

_PROVIDERS = ("ipinfo", "maxmind-free")

#: Street-level threshold used throughout the reproduction (paper §5).
_CITY_KM = 40.0

def _revision_stats(
    vp_lats: np.ndarray,
    vp_lons: np.ndarray,
    stale_matrix: np.ndarray,
    matrices: List[np.ndarray],
    moved_masks: List[np.ndarray],
    truth_lats: List[np.ndarray],
    truth_lons: List[np.ndarray],
    revision: int,
) -> Dict[str, float]:
    """Decay scores for one revision: stale vs fresh against truth ``k``.

    Depends only on the revision index and the per-revision arrays bound
    before the fan-out, so revisions may score on any worker in any order
    with byte-identical results.
    """
    moved = moved_masks[revision]

    def errors(matrix: np.ndarray) -> np.ndarray:
        # Checker stays off here by design (see module docstring).
        return cbg_errors_batch(
            vp_lats,
            vp_lons,
            matrix,
            truth_lats[revision],
            truth_lons[revision],
            checker=NULL_CHECKER,
        )

    stale = errors(stale_matrix)
    fresh = errors(matrices[revision])

    def med(values: np.ndarray) -> float:
        defined = values[~np.isnan(values)]
        return float(np.median(defined)) if defined.size else float("nan")

    def city_fraction(values: np.ndarray) -> float:
        defined = values[~np.isnan(values)]
        if not defined.size:
            return float("nan")
        return float((defined <= _CITY_KM).sum() / defined.size)

    return {
        "moved_so_far": float(moved.sum()),
        "stale_median_km": med(stale),
        "fresh_median_km": med(fresh),
        "stale_median_moved_km": med(stale[moved]),
        "fresh_median_moved_km": med(fresh[moved]),
        "stale_city_fraction": city_fraction(stale),
        "fresh_city_fraction": city_fraction(fresh),
    }


def _truth_for(scenario, world) -> tuple:
    ids = np.asarray([t.host_id for t in scenario.targets], dtype=np.int64)
    return world.host_true_lats[ids], world.host_true_lons[ids]


def run_drift(
    scenario,
    config: Optional[EvolutionConfig] = None,
) -> ExperimentOutput:
    """Evolve the world and measure drift, staleness, and re-measurement cost."""
    if config is None:
        config = EvolutionConfig()  # Gouel et al.'s ~5%/revision defaults
    revisions = config.revisions
    ips = list(scenario.target_ips)

    # --- two independently counted measurement paths -----------------------
    full_obs, inc_obs = Observer(), Observer()
    full_tl = EvolutionTimeline(
        scenario.world, config, obs=full_obs, checker=scenario.checker
    )
    inc_tl = EvolutionTimeline(
        scenario.world, config, obs=inc_obs, checker=scenario.checker
    )
    base = scenario.rtt_matrix()
    store = (
        SnapshotDeltaStore(scenario.cache, inc_tl, scenario, obs=inc_obs)
        if scenario.cache is not None
        else None
    )
    matrices: List[np.ndarray] = [base]
    previous = base
    for k in range(1, revisions + 1):
        full = revision_matrix(full_tl, scenario, k)
        if store is not None:
            incremental = store.matrix(k)
        else:
            incremental = incremental_matrix(previous, inc_tl, scenario, k)
        if not np.array_equal(full, incremental, equal_nan=True):
            raise InvariantViolation(
                f"incremental revision {k} diverged from the full replay"
            )
        matrices.append(incremental)
        previous = incremental

    def costs(obs: Observer) -> Dict[str, float]:
        counters = obs.metrics.counters()
        return {
            "api_calls": float(counters.get("atlas.api_calls", 0)),
            "measurements": float(counters.get("atlas.ping.measurements", 0)),
        }

    full_cost, inc_cost = costs(full_obs), costs(inc_obs)

    # --- accuracy decay, one revision per work item ------------------------
    moved_masks = []
    cumulative = np.zeros(len(ips), dtype=bool)
    for k in range(revisions + 1):
        if k:
            cumulative = cumulative.copy()
            cumulative[inc_tl.moved_target_columns(k, ips)] = True
        moved_masks.append(cumulative)
    truths = [_truth_for(scenario, inc_tl.snapshot(k).world) for k in range(revisions + 1)]
    revision_stats = partial(
        _revision_stats,
        scenario.vp_lats,
        scenario.vp_lons,
        base,
        matrices,
        moved_masks,
        [t[0] for t in truths],
        [t[1] for t in truths],
    )
    stats = parallel_map(
        revision_stats,
        range(revisions + 1),
        obs=scenario.obs,
        checker=scenario.checker,
        live=getattr(scenario, "live", None),
    )

    decay_rows = []
    for k, row in enumerate(stats):
        decay_rows.append(
            [
                k,
                int(row["moved_so_far"]),
                f"{row['stale_median_km']:.1f}",
                f"{row['fresh_median_km']:.1f}",
                f"{row['stale_median_moved_km']:.1f}",
                f"{row['fresh_median_moved_km']:.1f}",
                f"{row['stale_city_fraction']:.3f}",
                f"{row['fresh_city_fraction']:.3f}",
            ]
        )
    decay_table = format_table(
        [
            "rev",
            "moved",
            "stale med",
            "fresh med",
            "stale med(moved)",
            "fresh med(moved)",
            "stale <=40km",
            "fresh <=40km",
        ],
        decay_rows,
    )

    # --- geodb staleness ---------------------------------------------------
    stale_rows = []
    cdf_series: Dict[str, List[float]] = {}
    mean_age = {}
    stale_rate_final = {}
    for provider in _PROVIDERS:
        geodb = GeoDbRevisions(inc_tl, provider)
        rates = [
            float((geodb.staleness_revisions(ips, k) > 0).sum()) / len(ips)
            for k in range(revisions + 1)
        ]
        stale_rate_final[provider] = rates[-1]
        ages = geodb.staleness_revisions(ips, revisions)
        cdf = [float((ages <= j).sum() / len(ips)) for j in range(revisions + 1)]
        cdf_series[provider] = cdf
        mean_age[provider] = float(ages.mean())
        stale_rows.append(
            [provider]
            + [f"{rate:.3f}" for rate in rates]
            + [f"{mean_age[provider]:.2f}"]
        )
    stale_table = format_table(
        ["provider"]
        + [f"stale@r{k}" for k in range(revisions + 1)]
        + ["mean age"],
        stale_rows,
    )

    # --- cost comparison ---------------------------------------------------
    speedup = (
        full_cost["measurements"] / inc_cost["measurements"]
        if inc_cost["measurements"]
        else float("inf")
    )
    cost_table = format_table(
        ["path", "api calls", "measurements"],
        [
            ["full replay", int(full_cost["api_calls"]), int(full_cost["measurements"])],
            ["incremental", int(inc_cost["api_calls"]), int(inc_cost["measurements"])],
        ],
    )

    final = stats[-1]
    table = "\n".join(
        [
            f"{revisions} revisions over {len(ips)} targets "
            f"(prefix move share {config.prefix_move_share:.0%}/revision)",
            "",
            "accuracy decay vs revision (km, vs that revision's truth):",
            decay_table,
            "",
            "geodb stale-entry rate per revision and entry-age CDF input:",
            stale_table,
            "",
            "re-measurement cost (revisions 1.." + str(revisions) + "):",
            cost_table,
            f"incremental path: {speedup:.1f}x fewer measurements, "
            "byte-identical matrices",
        ]
    )
    measured = {
        "revisions": float(revisions),
        "moved_targets_final": final["moved_so_far"],
        "stale_median_moved_km": final["stale_median_moved_km"],
        "fresh_median_moved_km": final["fresh_median_moved_km"],
        "stale_city_fraction_final": final["stale_city_fraction"],
        "fresh_city_fraction_final": final["fresh_city_fraction"],
        "stale_entry_rate_final_ipinfo": stale_rate_final["ipinfo"],
        "full_measurements": full_cost["measurements"],
        "incremental_measurements": inc_cost["measurements"],
        "incremental_speedup": speedup,
        "incremental_identical": 1.0,
    }
    expected = {
        # Structural expectations, not paper numbers: the incremental
        # path must lose nothing, and staleness must cost accuracy.
        "incremental_identical": 1.0,
    }
    return ExperimentOutput(
        "drift",
        "Longitudinal drift: accuracy decay, geodb staleness, incremental cost",
        table,
        measured=measured,
        expected=expected,
        series={
            "decay": stats,
            "staleness_cdf": cdf_series,
            "geodb_mean_age": mean_age,
        },
    )
