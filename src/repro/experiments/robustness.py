"""Robustness experiment: accuracy/coverage/overhead vs platform fault rate.

The paper's scalability story (§5.1.3, §5.2.5) assumes the platform keeps
misbehaving — probes flap, calls time out, results arrive late. This
experiment quantifies how gracefully the CBG campaign degrades: for each
fault rate it re-runs the full VP-to-target ping campaign over the *same*
sanitized scenario through a :class:`~repro.atlas.resilient.ResilientClient`
against a fault-injected platform, then reports

* **accuracy** — median CBG error over the targets that still got located;
* **coverage** — the fraction of targets located (with at least
  :data:`~repro.constants.MIN_USABLE_VPS` answering vantage points) and
  the fraction of matrix cells that answered;
* **overhead** — retries, degraded calls, simulated backoff time, and
  injected-fault counts.

Fault draw keys are rate-free, so the per-rate fault sets are nested:
coverage is monotonically non-increasing in the fault rate by
construction, which the chaos suite asserts.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.atlas.resilient import RetryPolicy
from repro.constants import MIN_USABLE_VPS
from repro.core.cbg_batch import cbg_errors_batch
from repro.experiments.base import ExperimentOutput
from repro.experiments.scenario import Scenario
from repro.faults import FaultPlan

#: Default fault-rate sweep (0 = the fair-weather baseline).
DEFAULT_FAULT_RATES = (0.0, 0.05, 0.1, 0.2, 0.3)

#: Targets per API call: the campaign is issued in batches (as the real
#: tooling does), giving the API fault layer per-call surface to hit.
TARGETS_PER_CALL = 8


def run_robustness(
    scenario: Scenario,
    fault_rates: Sequence[float] = DEFAULT_FAULT_RATES,
    fault_seed: int = 1,
    policy: Optional[RetryPolicy] = None,
    min_vps: int = MIN_USABLE_VPS,
) -> ExperimentOutput:
    """Sweep platform fault rates and measure degradation of the CBG campaign.

    Args:
        scenario: the sanitized scenario (its VP/target sets stay fixed
            across rates, so only the weather changes).
        fault_rates: headline fault rates to sweep (see
            :meth:`repro.faults.FaultPlan.at_rate`).
        fault_seed: seed of the fault schedules (independent of the world
            seed).
        policy: retry policy for the resilient client; defaults match
            :class:`~repro.atlas.resilient.RetryPolicy`.
        min_vps: minimum answering vantage points per target before an
            estimate is trusted.
    """
    vp_lats = scenario.vp_lats
    vp_lons = scenario.vp_lons
    true_lats = scenario.target_true_lats
    true_lons = scenario.target_true_lons
    target_count = len(scenario.targets)

    rows = []
    series: dict = {
        "fault_rate": [],
        "median_error_km": [],
        "located_fraction": [],
        "cell_coverage": [],
        "retries": [],
        "degraded_calls": [],
        "backoff_s": [],
        "credits": [],
        "elapsed_s": [],
    }
    target_ips = scenario.target_ips
    for rate in fault_rates:
        plan = FaultPlan.at_rate(rate, seed=fault_seed)
        client = scenario.faulty_client(plan, policy=policy)
        # Batched campaign: same RTT/loss draws as one big matrix (both are
        # keyed per (probe, target, seq)), but each batch is its own API
        # call, so API faults and retries surface the way they would in a
        # real chunked campaign. Degraded batches stay NaN.
        matrix = np.full((len(scenario.vps), len(target_ips)), np.nan)
        for start in range(0, len(target_ips), TARGETS_PER_CALL):
            chunk = target_ips[start : start + TARGETS_PER_CALL]
            matrix[:, start : start + len(chunk)] = client.ping_matrix(
                scenario.vp_ids, chunk
            )
        # A target must not locate itself: mask self-measurements, as the
        # scenario's canonical campaign does.
        for column, target in enumerate(scenario.targets):
            row = scenario.vp_row_of_target(target)
            if row is not None:
                matrix[row, column] = np.nan

        errors = cbg_errors_batch(
            vp_lats, vp_lons, matrix, true_lats, true_lons, min_vps=min_vps
        )
        errors = errors[~np.isnan(errors)]
        located = errors.size

        median_error = float(np.median(errors)) if errors.size else float("nan")
        located_fraction = located / target_count if target_count else 0.0
        cell_coverage = float(np.mean(~np.isnan(matrix))) if matrix.size else 0.0
        stats = client.stats
        faults = client.platform.faults
        injected = faults.fault_counts() if faults is not None else {}
        rows.append(
            (
                rate,
                median_error,
                located_fraction,
                cell_coverage,
                stats.retries,
                stats.degraded_calls,
                stats.backoff_s,
                client.credits_spent,
                client.clock.now_s,
                sum(injected.values()),
            )
        )
        series["fault_rate"].append(rate)
        series["median_error_km"].append(median_error)
        series["located_fraction"].append(located_fraction)
        series["cell_coverage"].append(cell_coverage)
        series["retries"].append(stats.retries)
        series["degraded_calls"].append(stats.degraded_calls)
        series["backoff_s"].append(stats.backoff_s)
        series["credits"].append(client.credits_spent)
        series["elapsed_s"].append(client.clock.now_s)

    header = (
        f"{'rate':>5} {'med err km':>11} {'located':>8} {'cells':>6} "
        f"{'retries':>7} {'degraded':>8} {'backoff s':>9} {'credits':>9} {'faults':>7}"
    )
    lines = [header]
    for rate, err, loc, cells, retries, degraded, backoff, credits, _elapsed, injected in rows:
        lines.append(
            f"{rate:5.2f} {err:11.1f} {loc:8.2%} {cells:6.2%} "
            f"{retries:7d} {degraded:8d} {backoff:9.1f} {credits:9d} {injected:7d}"
        )

    baseline = rows[0] if rows else None
    measured = {}
    if baseline is not None:
        measured["baseline_median_error_km"] = baseline[1]
        measured["baseline_located_fraction"] = baseline[2]
        worst = rows[-1]
        measured["worst_rate"] = worst[0]
        measured["worst_median_error_km"] = worst[1]
        measured["worst_located_fraction"] = worst[2]
        measured["total_retries"] = float(sum(r[4] for r in rows))

    return ExperimentOutput(
        "robustness",
        "CBG accuracy/coverage/overhead vs platform fault rate",
        "\n".join(lines),
        measured=measured,
        series=series,
    )
