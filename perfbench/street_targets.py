"""Workload ``street-level``: targets through tiers 1-3, one at a time.

One op is one target through :meth:`StreetLevelPipeline.geolocate`, with
the anchor mesh as tier-1 RTTs, as ``street_runner`` drives it. No
landmark cache is shared across targets.

Set-up is a warm restart from the artifact cache and a warm-up pass that
geolocates every target of the pool once, in pool order. The pass
materialises exactly the points of interest the pool reaches, in one
canonical order, so every seed sees the same world; its results are the
references the timed ops must reproduce. (``World.materialize_all_pois``
would materialise every city, about a minute on a 2-core host, which no
run budget affords.) The timed phase then walks the pool in seeded
order, one fresh permutation per pass, and replays that sequence; each
op keeps the fastest of its executions.
"""

from __future__ import annotations

import hashlib
import math
from typing import Dict, List

import numpy as np

from perfbench.common import CACHE_DIR, Outcome, closed_loop, op_count

NAME = "street-level"


def _result_key(result) -> str:
    """Canonical text of everything a street-level result decides."""

    def point(p):
        return None if p is None else (p.lat, p.lon)

    chosen = result.chosen.landmark.hostname if result.chosen is not None else None
    return repr(
        (
            result.target_ip,
            point(result.estimate),
            point(result.tier1_estimate),
            result.used_fallback_soi,
            result.fell_back_to_cbg,
            chosen,
            [(m.landmark.hostname, m.delay.best_delay_ms) for m in result.measurements],
            result.traceroutes_run,
            result.elapsed_s,
        )
    )


def setup(seed: int, params: Dict[str, object], tracer=None) -> Dict[str, object]:
    """Warm restart, the pool's tier-1 inputs, and the warm-up pass."""
    from repro.cache.artifacts import ArtifactCache
    from repro.core.street_level import StreetLevelPipeline
    from repro.experiments.scenario import Scenario, config_for_preset

    scenario = Scenario.build(config_for_preset("paper"), cache=ArtifactCache(CACHE_DIR))
    anchors = scenario.anchor_vp_infos()
    mesh_ids, mesh = scenario.mesh()
    row_of = {anchor_id: row for row, anchor_id in enumerate(mesh_ids)}
    pool = []
    for target in scenario.targets[:: int(params["pool_stride"])]:
        column = row_of[target.host_id]
        rtts = {
            anchor_id: (None if np.isnan(mesh[row, column]) else float(mesh[row, column]))
            for anchor_id, row in row_of.items()
        }
        pool.append((target.ip, rtts))
    pipeline = StreetLevelPipeline(scenario.client, scenario.world)
    references = [_result_key(pipeline.geolocate(ip, anchors, rtts)) for ip, rtts in pool]
    return {
        "seed": seed,
        "params": params,
        "pipeline": pipeline,
        "anchors": anchors,
        "pool": pool,
        "references": references,
    }


def measure(ctx, seconds: float, tracer=None, between=None) -> Outcome:
    """Time the op sequence in ``rounds`` rounds; each op keeps its best.

    The op sequence is whole passes over the pool, each in a fresh seeded
    order, at least ``min_ops`` ops and about ``ops_per_second`` per
    second of the run. Whole passes time every target equally often, so
    the seed changes the order but not the mix. Every execution must
    equal its target's warm-up result. ``between()`` runs between two
    rounds.
    """
    pipeline = ctx["pipeline"]
    anchors = ctx["anchors"]
    pool = ctx["pool"]
    ops = op_count(ctx["params"], seconds)
    order = np.random.default_rng([ctx["seed"], 0])
    targets = [
        index
        for _ in range(math.ceil(ops / len(pool)))
        for index in order.permutation(len(pool)).tolist()
    ]
    return closed_loop(
        [pool[index] for index in targets],
        lambda target: pipeline.geolocate(target[0], anchors, target[1]),
        int(ctx["params"]["rounds"]),
        key=_result_key,
        expected=[ctx["references"][index] for index in targets],
        tracer=tracer,
        between=between,
    )


def digest(ctx) -> str:
    """Digest of the pool's results (identical across runs of one commit)."""
    text = "\n".join(ctx["references"]).encode("utf-8")
    return hashlib.sha256(text).hexdigest()[:16]


def verify(ctx, outcome: Outcome) -> List[str]:
    """Report lines: per-op agreement with the warm-up references, digest.

    A digest that differs from the one recorded in ``workloads.json`` for
    the commit that defined the benchmark is reported, not failed: a
    change may alter street-level results on purpose.
    """
    recorded = ctx["params"]["recorded_digest"]
    mismatched = sum(outcome.failed)
    current = digest(ctx)
    lines = [
        f"timed ops equal to their warm-up result: {outcome.attempted - mismatched}"
        f"/{outcome.attempted} over a pool of {len(ctx['pool'])} targets",
        f"result digest {current}"
        + (
            " (matches the recorded digest)"
            if current == recorded
            else f" (CHANGED from the recorded digest {recorded})"
        ),
    ]
    return lines


def layer_extra(ctx, outcome: Outcome) -> Dict[str, float]:
    return {}
