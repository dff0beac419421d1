"""Workload ``cbg-subsets``: Figure-2 style CBG trials over VP subsets.

One op is one :func:`repro.core.cbg.cbg_errors_for_subsets` call over all
targets plus the median error Figure 2 keeps. Set-up is a cold build with
no artifact cache (world, anchor mesh, §4.3 sanitization, and the VP x
target ping campaign). Load is sequential from one client. Subset sizes
are log-uniform between 10 and every vantage point, drawn as a systematic
sample: ``n`` sizes evenly spaced in log size, shifted by one seeded
offset below one spacing and run in seeded order. Every size is a
log-uniform draw and none sits on a fixed rung, yet every seed spans the
gather and masked modes in the same proportions, so the seed moves the
draws but not the mix. Each subset is a seeded, sorted draw, as Figure 2
makes it.
"""

from __future__ import annotations

import math
from typing import Dict, List

import numpy as np

from perfbench.common import Outcome, closed_loop, op_count

NAME = "cbg-subsets"
#: smallest subset (Figure 2a's smallest rung).
MIN_SIZE = 10
#: ops the output check re-runs through the per-target reference loop,
#: per kernel mode (gather and masked).
CHECKED_PER_MODE = 2


def setup(seed: int, params: Dict[str, object], tracer=None) -> Dict[str, object]:
    """Cold pipeline, then two warm-up ops (one per kernel mode).

    The kernel builds its derived arrays on the second sighting of a
    matrix, so the warm-up leaves them cached for the timed ops.
    """
    from repro.experiments.scenario import Scenario, config_for_preset

    scenario = Scenario.build(config_for_preset("paper"), cache=None)
    ctx = {
        "vp_lats": scenario.vp_lats,
        "vp_lons": scenario.vp_lons,
        "matrix": scenario.rtt_matrix(),
        "target_lats": scenario.target_true_lats,
        "target_lons": scenario.target_true_lons,
        "seed": seed,
        "params": params,
    }
    n_vps = ctx["matrix"].shape[0]
    warm = np.random.default_rng([seed, 99])
    for size in (int(math.sqrt(MIN_SIZE * n_vps)), (7 * n_vps) // 8):
        _op(ctx, np.sort(warm.choice(n_vps, size=size, replace=False)))
    return ctx


def _op(ctx, subset: np.ndarray, obs=None):
    """One trial: per-target errors and their median (the timed op)."""
    import repro.core.cbg as cbg

    kwargs = {} if obs is None else {"obs": obs}
    errors = cbg.cbg_errors_for_subsets(
        ctx["vp_lats"],
        ctx["vp_lons"],
        ctx["matrix"],
        ctx["target_lats"],
        ctx["target_lons"],
        subset,
        **kwargs,
    )
    defined = errors[~np.isnan(errors)]
    median = float(np.median(defined)) if defined.size else math.nan
    return errors, median


def subsets(seed: int, n_vps: int, count: int) -> List[np.ndarray]:
    """The seeded op inputs: a systematic log-uniform sample of sizes."""
    rng = np.random.default_rng([seed, 0])
    lo, hi = math.log(MIN_SIZE), math.log(n_vps)
    fractions = (np.arange(count) + rng.random()) / count
    sizes = np.clip(np.rint(np.exp(lo + fractions * (hi - lo))), MIN_SIZE, n_vps)
    return [
        np.sort(np.random.default_rng([seed, 1, op]).choice(n_vps, size=int(size), replace=False))
        for op, size in enumerate(sizes[rng.permutation(count)])
    ]


def measure(ctx, seconds: float, tracer=None, between=None) -> Outcome:
    """Time the op inputs in ``rounds`` rounds; each op keeps its best.

    Every round must reproduce the first round's errors bit for bit.
    ``between()`` runs between two rounds.
    """
    params = ctx["params"]
    obs = None
    if tracer is not None:
        from repro.obs.observer import Observer

        obs = Observer()
    inputs = subsets(ctx["seed"], ctx["matrix"].shape[0], op_count(params, seconds))
    outcome = closed_loop(
        inputs,
        lambda subset: _op(ctx, subset, obs)[0],
        int(params["rounds"]),
        key=lambda errors: errors.tobytes(),
        tracer=tracer,
        between=between,
    )
    outcome.notes["inputs"] = inputs
    if obs is not None:
        outcome.notes["batch_exact_fallback"] = obs.metrics.counter("cbg.batch_exact_fallback")
    return outcome


def verify(ctx, outcome: Outcome) -> List[str]:
    """Re-run a seeded sample of ops through the reference loop, bitwise.

    Samples up to :data:`CHECKED_PER_MODE` ops of each kernel mode
    (gather below 3/4 of the VPs, masked at or above). Marks mismatches
    failed and returns report lines.
    """
    from repro.core.cbg_batch import cbg_errors_for_subsets_loop

    n_vps = ctx["matrix"].shape[0]
    inputs = outcome.notes["inputs"]
    outputs = outcome.notes["outputs"]
    pick = np.random.default_rng([ctx["seed"], 2])
    gather = [i for i, s in enumerate(inputs) if 4 * s.size < 3 * n_vps and outputs[i] is not None]
    masked = [i for i, s in enumerate(inputs) if 4 * s.size >= 3 * n_vps and outputs[i] is not None]
    checked = []
    for pool in (gather, masked):
        if pool:
            take = min(CHECKED_PER_MODE, len(pool))
            checked.extend(int(i) for i in pick.choice(pool, size=take, replace=False))
    mismatched = []
    for i in sorted(checked):
        reference = cbg_errors_for_subsets_loop(
            ctx["vp_lats"],
            ctx["vp_lons"],
            ctx["matrix"],
            ctx["target_lats"],
            ctx["target_lons"],
            inputs[i],
        )
        if reference.tobytes() != outputs[i].tobytes():
            outcome.failed[i] = True
            mismatched.append(i)
    sizes = [inputs[i].size for i in sorted(checked)]
    return [
        f"reference loop re-ran ops {sorted(checked)} (subset sizes {sizes}): "
        f"{'all bitwise equal' if not mismatched else f'MISMATCH on ops {mismatched}'}",
        f"gather-mode ops {len(gather)}, masked-mode ops {len(masked)}",
    ]


def layer_extra(ctx, outcome: Outcome) -> Dict[str, float]:
    """Driver-side per-layer values: the observer's fallback counter."""
    return {"cbg.batch_exact_fallback": float(outcome.notes.get("batch_exact_fallback", 0.0))}
