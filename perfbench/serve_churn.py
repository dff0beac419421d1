"""Workload ``serve-churn``: open-loop geolocate traffic under world churn.

One op is one geolocate request. Set-up is a warm restart of the paper
scenario from the artifact cache, a :class:`ServeEngine` load, and an
:class:`EvolutionTimeline` with the default :class:`EvolutionConfig`
whose revisions are built by ``incremental_matrix`` and wrapped by
``epoch_state``.

Load is an open loop: seeded Poisson arrivals at one fixed offered rate
(``workloads.json``), three unlimited tenants, Zipf-skewed seeded target
popularity, and evenly spaced ``install_epoch`` swaps cycling through
the revisions 1 -> 2 -> 3 -> 4 -> 0 -> ... from a seeded starting point.
A replay makes one full cycle: the engine loads the revision before the
seeded start, so every seed makes each of the five swaps once, in a
seeded order. The engine starts with an empty memo, as after a restart.

The load loop submits every request that is due, then runs one
``process_one_batch`` when the queue is non-empty; when nothing is queued
it jumps its clock to the next due time. The engine does no work between
batches, so skipping idle wall time changes nothing it does, and the
timed phase is busy time. A request's latency runs from its due time to
the end of the batch that answered it.
"""

from __future__ import annotations

import math
import time
from typing import Dict, List

import numpy as np

from perfbench.common import CACHE_DIR, Outcome

NAME = "serve-churn"
TENANTS = ("tenant-a", "tenant-b", "tenant-c")
#: revisions the swaps cycle through, one full cycle per replay.
CYCLE = (1, 2, 3, 4, 0)


def setup(seed: int, params: Dict[str, object], tracer=None) -> Dict[str, object]:
    """Warm restart, schedule, engine load, timeline revisions, warm-up."""
    import repro.evolve.measure as measure
    from repro.cache.artifacts import ArtifactCache
    from repro.evolve.events import EvolutionConfig
    from repro.evolve.timeline import EvolutionTimeline
    from repro.experiments.scenario import Scenario, config_for_preset
    from repro.serve.state import QueryState

    scenario = Scenario.build(config_for_preset("paper"), cache=ArtifactCache(CACHE_DIR))
    base = QueryState.from_scenario(scenario)
    timeline = EvolutionTimeline(scenario.world, EvolutionConfig())
    states = [base]
    moved = 0
    for revision in range(1, timeline.revisions + 1):
        matrix = measure.incremental_matrix(
            states[-1].rtt_matrix, timeline, scenario, revision
        )
        states.append(measure.epoch_state(timeline, scenario, revision, matrix=matrix))
        moved += len(timeline.moved_target_columns(revision, scenario.target_ips))
    plan = schedule(seed, params, base.target_ips)
    ctx: Dict[str, object] = {
        "seed": seed,
        "params": params,
        "states": states,
        "moved_columns": moved,
        "schedule": plan,
        "engine": _engine(states[plan["load"]]),
    }
    if tracer is not None:
        tracer.enabled = False
    _warm_code_paths(states)
    if tracer is not None:
        tracer.enabled = True
    return ctx


def _engine(state):
    from repro.serve.engine import ServeEngine
    from repro.serve.tenancy import TenantConfig

    engine = ServeEngine(state)
    for name in TENANTS:
        engine.register_tenant(TenantConfig(name))
    return engine


def _warm_code_paths(states) -> None:
    """Run admission, batching, the kernel and a swap on a throwaway engine.

    The engine under test keeps its empty memo; this one serves a few
    columns only, so it costs milliseconds.
    """
    from repro.serve.state import QueryState

    def small(state):
        return QueryState(
            vp_lats=state.vp_lats,
            vp_lons=state.vp_lons,
            rtt_matrix=state.rtt_matrix[:, :8],
            target_ips=state.target_ips[:8],
        )

    engine = _engine(small(states[0]))
    for revision in (1, 0):
        for ip in states[0].target_ips[:8] * 2:
            engine.submit(TENANTS[0], ip)
        engine.drain()
        engine.install_epoch(small(states[revision]))


def schedule(seed: int, params: Dict[str, object], target_ips) -> Dict[str, object]:
    """The seeded arrival schedule: due times, tenants, targets, swaps.

    It spans ``--seconds`` seconds of arrivals; replayed ``rounds`` times
    at about half utilisation, the busy time the run measures is about
    ``--seconds``. ``load`` is the revision the engine loads, the one
    before the seeded first swap.
    """
    rng = np.random.default_rng([seed, 0])
    rate = float(params["offered_rate_per_s"])
    duration = float(params["seconds"])
    gaps = rng.exponential(1.0 / rate, size=int(rate * duration * 1.2) + 100)
    due = np.cumsum(gaps)
    due = due[due < duration]
    n_targets = len(target_ips)
    popularity = 1.0 / np.arange(1, n_targets + 1) ** float(params["zipf_s"])
    columns = rng.permutation(n_targets)[
        rng.choice(n_targets, size=due.size, p=popularity / popularity.sum())
    ]
    tenants = rng.integers(0, len(TENANTS), size=due.size)
    swaps = int(params["swaps"])
    start = int(rng.integers(0, len(CYCLE)))
    return {
        "due": due.tolist(),
        "columns": columns,
        "ips": [target_ips[c] for c in columns.tolist()],
        "tenants": [TENANTS[t] for t in tenants.tolist()],
        "load": CYCLE[start - 1],
        "swap_at": [duration * (k + 1) / (swaps + 1) for k in range(swaps)],
        "swap_to": [CYCLE[(start + k) % len(CYCLE)] for k in range(swaps)],
    }


def _replay(ctx, engine, tracer=None) -> Dict[str, object]:
    """Drive the whole schedule through one engine; busy time is timed."""
    states = ctx["states"]
    plan = ctx["schedule"]
    due: List[float] = plan["due"]
    ips: List[str] = plan["ips"]
    tenants: List[str] = plan["tenants"]
    swap_at = plan["swap_at"] + [math.inf]
    swap_to = plan["swap_to"]
    submit = engine.submit
    process = engine.process_one_batch
    perf = time.perf_counter

    n = len(due)
    i = 0
    swap = 0
    revision = plan["load"]
    # Per-batch schedule times (index = batch sequence number, from 1) and
    # the revision that served it; per submission burst, its first request
    # and schedule time.
    batch_start = [0.0]
    batch_end = [0.0]
    batch_revision = [0]
    bursts: List[tuple] = []
    skipped = 0.0
    begin = perf()
    while True:
        now = perf() - begin + skipped
        if swap_at[swap] <= now:
            revision = swap_to[swap]
            if tracer is not None:
                tracer.op = -2 - swap
            engine.install_epoch(states[revision])
            swap += 1
            continue
        if i < n and due[i] <= now:
            bursts.append((i, now))
            if tracer is None:
                while i < n and due[i] <= now:
                    submit(tenants[i], ips[i])
                    i += 1
            else:
                while i < n and due[i] <= now:
                    tracer.op = i
                    submit(tenants[i], ips[i])
                    i += 1
        if engine.queue_depth:
            if tracer is not None:
                tracer.op = len(batch_end)
            batch_start.append(perf() - begin + skipped)
            process()
            batch_end.append(perf() - begin + skipped)
            batch_revision.append(revision)
            continue
        if i >= n:
            break
        upcoming = min(due[i], swap_at[swap])
        if upcoming > now:
            skipped += upcoming - now
    busy_s = perf() - begin

    # Untimed: the answers as arrays, and each request's waits.
    results = [engine.result(request_id) for request_id in range(n)]
    batch = np.array([r.batch if r is not None and r.batch is not None else 0 for r in results])
    lats = np.array([r.lat if r is not None and r.lat is not None else math.nan for r in results])
    lons = np.array([r.lon if r is not None and r.lon is not None else math.nan for r in results])
    status = np.array([r.status if r is not None else "" for r in results])
    due_s = np.asarray(due)
    submitted = np.empty(n)
    marks = bursts + [(n, math.nan)]
    for (first, at), (stop, _) in zip(marks, marks[1:]):
        submitted[first:stop] = at
    answered = batch > 0
    latency_ms = np.where(answered, (np.asarray(batch_end)[batch] - due_s) * 1e3, math.nan)
    return {
        "busy_s": busy_s,
        "latency_ms": latency_ms,
        "batch": batch,
        "revision": np.asarray(batch_revision)[batch],
        "lats": lats,
        "lons": lons,
        "status": status,
        "submit_lag_s": submitted - due_s,
        "queue_wait_s": np.asarray(batch_start)[batch[answered]] - submitted[answered],
        "swaps": swap,
        "batches": engine.batches_processed,
        "memo_hits": engine.column_cache_hits,
    }


def measure(ctx, seconds: float, tracer=None, between=None) -> Outcome:
    """Replay the schedule ``rounds`` times, each on a fresh engine.

    Each replay starts from the schedule's load revision with an empty
    memo. A request's latency is its fastest replay's; throughput uses the
    fastest replay's busy time. ``between()`` runs between two replays.
    """
    rounds = int(ctx["params"]["rounds"])
    replays = []
    for replay in range(rounds):
        if replay and between is not None:
            between()
        engine = ctx.pop("engine", None)
        if engine is None:
            if tracer is not None:
                tracer.enabled = False
            engine = _engine(ctx["states"][ctx["schedule"]["load"]])
            if tracer is not None:
                tracer.enabled = True
        replays.append(_replay(ctx, engine, tracer))
        del engine
    latency = np.vstack([r["latency_ms"] for r in replays])
    unanswered = np.isnan(latency).any(axis=0)
    best = np.where(unanswered, math.nan, np.fmin.reduce(latency, axis=0))
    busy = [r["busy_s"] for r in replays]
    return Outcome(
        latencies_ms=best.tolist(),
        failed=unanswered.tolist(),
        timed_s=min(busy),
        total_s=sum(busy),
        rounds=rounds,
        notes={"replays": replays},
    )


def verify(ctx, outcome: Outcome) -> List[str]:
    """Every answer, bitwise, against the batch kernel on its epoch's matrix.

    Checks every replay. NaN from the kernel must pair with
    ``no-estimate``; an ``ok`` answer must carry exactly the kernel's
    latitude and longitude bits.
    """
    from repro.core.cbg_batch import cbg_centroids_batch
    from repro.serve.engine import STATUS_NO_ESTIMATE, STATUS_OK

    reference = [
        cbg_centroids_batch(s.vp_lats, s.vp_lons, s.rtt_matrix, soi_fraction=s.soi_fraction)
        for s in ctx["states"]
    ]
    ref_lats = np.stack([lats for lats, _ in reference])
    ref_lons = np.stack([lons for _, lons in reference])
    columns = np.asarray(ctx["schedule"]["columns"])
    failed = np.asarray(outcome.failed)
    wrong = 0
    lines = []
    for number, replay in enumerate(outcome.notes["replays"], start=1):
        expected_lat = ref_lats[replay["revision"], columns]
        expected_lon = ref_lons[replay["revision"], columns]
        ok_answer = (
            (replay["status"] == STATUS_OK)
            & (replay["lats"].view(np.uint64) == expected_lat.view(np.uint64))
            & (replay["lons"].view(np.uint64) == expected_lon.view(np.uint64))
        )
        no_estimate = (replay["status"] == STATUS_NO_ESTIMATE) & np.isnan(expected_lat)
        bad = ~(ok_answer | no_estimate) & (replay["batch"] > 0)
        wrong += int(bad.sum())
        failed |= bad | (replay["batch"] == 0)
        lines.append(
            f"replay {number}: {int((ok_answer | no_estimate).sum())}/{columns.size} answers "
            f"bitwise equal to cbg_centroids_batch on their epoch's matrix "
            f"({int(no_estimate.sum())} no-estimate, {int(bad.sum())} wrong, "
            f"{int((replay['batch'] == 0).sum())} refused or unanswered); "
            f"{replay['swaps']} swaps over {replay['batches']} batches, "
            f"busy {replay['busy_s']:.3f} s"
        )
    outcome.failed = failed.tolist()
    return lines


def layer_extra(ctx, outcome: Outcome) -> Dict[str, float]:
    """Waits measured against the schedule, memo hits, moved columns."""
    replays = outcome.notes["replays"]
    return {
        "serve.submit_lag_ms": float(
            np.concatenate([r["submit_lag_s"] for r in replays]).mean() * 1e3
        ),
        "serve.queue_wait_ms": float(
            np.concatenate([r["queue_wait_s"] for r in replays]).mean() * 1e3
        ),
        "serve.memo_hits": float(sum(r["memo_hits"] for r in replays)),
        "evolve.moved_columns": float(ctx["moved_columns"]),
    }
