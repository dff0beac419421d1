"""The million scale paper's vantage-point selection (Hu et al., IMC 2012).

The technique avoids probing every target from every vantage point:

1. for each target, find *representatives* — up to three responsive
   addresses in the target's /24, from the hitlist;
2. ping the representatives from all vantage points (once per /24, shared
   by every target in the prefix);
3. keep the ``k`` vantage points with the lowest RTT to the representatives
   (k = 10 in the original paper) and probe the target only from those.

This module also quantifies why the original algorithm cannot run on RIPE
Atlas (§5.1.3): every vantage point still probes every /24, and Atlas
probes have packets-per-second budgets two orders of magnitude below the
500 pps the original study used.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.atlas.client import AtlasClient
from repro.atlas.platform import ProbeInfo
from repro.core.cbg import cbg_estimate
from repro.core.results import GeolocationResult
from repro.errors import EmptyRegionError
from repro.net.hitlist import Hitlist


def representative_rtt_matrix(
    client: AtlasClient,
    vp_ids: Sequence[int],
    targets: Sequence[str],
    hitlist: Hitlist,
    representatives_per_target: int = 3,
    packets: int = 3,
) -> Tuple[np.ndarray, Dict[str, List[str]]]:
    """Ping each target's /24 representatives from every vantage point.

    Returns:
        ``(matrix, reps)`` where ``matrix[vp, target]`` is the *minimum* RTT
        over the target's representatives (NaN when none answered), and
        ``reps`` maps target to its representative addresses.
    """
    reps: Dict[str, List[str]] = {
        target: hitlist.representatives(target, representatives_per_target)
        for target in targets
    }
    matrix = np.full((len(vp_ids), len(targets)), np.nan)
    for column, target in enumerate(targets):
        rep_matrix = client.ping_matrix(vp_ids, reps[target], packets=packets)
        answered_rows = ~np.isnan(rep_matrix).all(axis=1)
        if answered_rows.any():
            matrix[answered_rows, column] = np.nanmin(
                rep_matrix[answered_rows], axis=1
            )
    return matrix, reps


def select_closest_vps(
    rep_rtts: np.ndarray,
    k: int,
) -> np.ndarray:
    """Indices of the ``k`` vantage points with the lowest representative RTT.

    Args:
        rep_rtts: per-VP RTT to one target's representatives (NaN = silent).
        k: how many vantage points to keep.

    Returns:
        Indices into the VP axis, ordered by increasing RTT; fewer than
        ``k`` when fewer vantage points got an answer.
    """
    if k < 1:
        raise ValueError(f"k must be positive: {k}")
    answered = np.where(~np.isnan(rep_rtts))[0]
    if answered.size == 0:
        return answered
    order = answered[np.argsort(rep_rtts[answered], kind="stable")]
    return order[:k]


def closest_vps_matrix(
    rtt_matrix: np.ndarray, rep_rtt_matrix: np.ndarray, k: int
) -> np.ndarray:
    """``rtt_matrix`` with every column keeping only its selected VPs.

    Column ``j`` keeps the rows :func:`select_closest_vps` picks from
    ``rep_rtt_matrix[:, j]``; every other entry is NaN. One batched CBG
    call over the result scores each target on its own selection. The
    kernel compacts a column's answers in VP order where the selection
    orders them by RTT, which only an exact tie in the tightest radius
    could tell apart.
    """
    masked = np.full_like(rtt_matrix, np.nan)
    for column in range(rtt_matrix.shape[1]):
        chosen = select_closest_vps(rep_rtt_matrix[:, column], k)
        masked[chosen, column] = rtt_matrix[chosen, column]
    return masked


def geolocate_with_selection(
    client: AtlasClient,
    target_ip: str,
    vantage_points: Sequence[ProbeInfo],
    rep_rtts: np.ndarray,
    k: int = 10,
    packets: int = 3,
    min_vps: int = 1,
) -> GeolocationResult:
    """Run the full selection + probing pipeline for one target.

    Selects the ``k`` closest vantage points by representative RTT, pings
    the target from them, and applies CBG to those measurements.

    The pipeline degrades instead of crashing under platform faults: a
    representative row with no answers selects nothing, target pings that
    all fail produce a result without an estimate, and ``min_vps`` (see
    :data:`repro.constants.MIN_USABLE_VPS`) refuses estimates built from
    too few surviving vantage points.

    Instrumentation rides the client's observer: each target runs inside a
    ``technique:million-scale`` span (timed on the client's clock) and
    bumps ``million_scale.targets`` / ``million_scale.no_estimate``.
    """
    obs = client.obs
    with obs.span(
        "technique:million-scale", clock=client.clock, target=target_ip
    ):
        if obs.enabled:
            obs.count("million_scale.targets")
        chosen = select_closest_vps(rep_rtts, k)
        chosen_vps = [vantage_points[int(index)] for index in chosen]
        if not chosen_vps:
            if obs.enabled:
                obs.count("million_scale.no_estimate")
            return GeolocationResult(target_ip, None, "million-scale", {"selected": 0})
        rtts = client.ping_from(
            [vp.probe_id for vp in chosen_vps], target_ip, packets=packets
        )
        try:
            result, _region = cbg_estimate(
                target_ip, chosen_vps, rtts, min_constraints=min_vps, obs=obs
            )
        except EmptyRegionError:
            # Infeasible constraints (mis-registered or flapping vantage points)
            # degrade to "no estimate", like the other CBG consumers.
            if obs.enabled:
                obs.count("million_scale.no_estimate")
            return GeolocationResult(
                target_ip, None, "million-scale",
                {"selected": len(chosen_vps), "k": k, "empty_region": True},
            )
        if result.estimate is None and obs.enabled:
            obs.count("million_scale.no_estimate")
        return GeolocationResult(
            target_ip,
            result.estimate,
            "million-scale",
            {"selected": len(chosen_vps), "k": k, **result.details},
        )


# --- deployability analysis (§5.1.3) ---------------------------------------------


@dataclass(frozen=True)
class DeploymentFeasibility:
    """Whether a full-IPv4 campaign fits a platform's probing budget.

    Attributes:
        probes_needed_pps: sustained per-VP probing rate the campaign needs
            to finish in ``campaign_days``.
        available_pps: the platform's median per-VP probing budget.
        total_ping_measurements: pings the campaign issues in total.
        campaign_days: the target duration ("a few months" in the paper).
        feasible: whether the needed rate fits the available budget.
    """

    probes_needed_pps: float
    available_pps: float
    total_ping_measurements: int
    campaign_days: float
    feasible: bool

    def describe(self) -> str:
        """Human-readable verdict."""
        verdict = "feasible" if self.feasible else "NOT deployable"
        return (
            f"{self.total_ping_measurements:,} pings in {self.campaign_days:.0f} days "
            f"needs {self.probes_needed_pps:.1f} pps/VP vs {self.available_pps:.1f} pps "
            f"available -> {verdict}"
        )


def full_ipv4_campaign_feasibility(
    vantage_points: Sequence[ProbeInfo],
    routable_slash24s: int = 11_500_000,
    representatives_per_prefix: int = 3,
    packets_per_ping: int = 3,
    campaign_days: float = 90.0,
    budget_fraction: float = 0.5,
) -> DeploymentFeasibility:
    """Check whether the original VP selection can run on this platform.

    Every vantage point pings ``representatives_per_prefix`` addresses in
    every routable /24 (the original study's design). The campaign fits if
    the required sustained rate stays within ``budget_fraction`` of the
    median vantage point's packets-per-second budget — probes cannot spend
    their whole budget on one study (they run the platform's built-in
    measurements too).
    """
    if not vantage_points:
        raise ValueError("no vantage points")
    per_vp_packets = routable_slash24s * representatives_per_prefix * packets_per_ping
    needed_pps = per_vp_packets / (campaign_days * 86_400.0)
    rates = sorted(vp.probing_rate_pps for vp in vantage_points)
    median_pps = rates[len(rates) // 2] * budget_fraction
    total_pings = routable_slash24s * representatives_per_prefix * len(vantage_points)
    return DeploymentFeasibility(
        probes_needed_pps=needed_pps,
        available_pps=median_pps,
        total_ping_measurements=total_pings,
        campaign_days=campaign_days,
        feasible=needed_pps <= median_pps,
    )
