"""Differential self-verification: run paired paths, assert equal bytes.

The substrate promises eight expensive equivalences:

* the batched CBG kernel computes exactly what the per-target reference
  loop computes (``repro.core.cbg_batch``);
* the flat-array CSR router graph resolves whole target columns to
  exactly the per-pair scalar waypoint path, and its explicit node walks
  are the routes traceroute sees (``repro.topology.csr``);
* a parallel campaign (``REPRO_WORKERS=N``) produces byte-identical
  results to the serial path (``repro.exec``);
* a warm artifact-cache rebuild replays byte-identical measurements to a
  cold build (``repro.cache``);
* the resident serving engine answers exactly what the one-shot batch
  campaign computes, regardless of request order or batching
  (``repro.serve``);
* the hint pipeline mines and verifies identically serial and parallel,
  and no confirmed hint contradicts the CBG containment physics
  (``repro.hints``);
* the serving engine followed through epoch swaps over a churning world
  answers exactly what a fresh batch run on each revision's snapshot
  computes (``repro.evolve`` + ``repro.serve``);
* the street-level tiers, run as array programs with certified decisions,
  geolocate exactly what the scalar per-circle, per-city and per-hop
  loops of :mod:`repro.check.oracles` do (``repro.geo``,
  ``repro.world.cities``, ``repro.latency``).

Each promise is pinned by golden tests, but those only run under pytest.
This module packages the same comparisons as a *runtime* harness: each
``diff_*`` function runs one campaign through both sides of a pair and
compares outputs bitwise, and :func:`run_selfcheck` bundles all eight into
the :class:`SelfCheckReport` behind ``experiments/run.py --selfcheck``
(exit 0 iff every pair agrees) and the ``selfcheck_report`` pytest
fixture. The paired computations are invoked through their *modules*, so
a monkeypatched (deliberately broken) kernel is caught — which is exactly
how ``tests/test_check_diff.py`` proves the harness can fail.
"""

from __future__ import annotations

import os
import tempfile
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro import rand
from repro.world.config import WorldConfig


@dataclass(frozen=True)
class DiffOutcome:
    """Result of one paired-path comparison.

    Attributes:
        pair: which equivalence was exercised.
        ok: whether every compared artifact was bitwise equal.
        compared: how many artifacts (arrays/series) were compared.
        detail: human-readable note — the first divergence, or context
            such as "fork unavailable" for a degenerate comparison.
    """

    pair: str
    ok: bool
    compared: int
    detail: str = ""


@dataclass
class SelfCheckReport:
    """All paired-path outcomes of one self-check run."""

    outcomes: List[DiffOutcome] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(outcome.ok for outcome in self.outcomes)

    def render(self) -> str:
        lines = ["self-check: differential verification of paired paths", ""]
        for outcome in self.outcomes:
            status = "ok" if outcome.ok else "DIVERGED"
            lines.append(
                f"  {outcome.pair:<24} {status:<9} "
                f"({outcome.compared} artifacts) {outcome.detail}".rstrip()
            )
        lines.append("")
        lines.append("result: " + ("all paths agree" if self.ok else "DIVERGENCE"))
        return "\n".join(lines)


def _arrays_equal(a: np.ndarray, b: np.ndarray) -> bool:
    a = np.asarray(a)
    b = np.asarray(b)
    return a.shape == b.shape and bool(np.array_equal(a, b, equal_nan=True))


def diff_batch_vs_loop(
    scenario, sizes=(8, 24), trials: int = 2
) -> DiffOutcome:
    """Batched CBG kernel vs the per-target reference loop, bitwise.

    Runs random VP subsets (and the full set) of the scenario's RTT matrix
    through ``cbg_errors_batch`` and ``cbg_errors_for_subsets_loop`` —
    via the module, so a patched kernel diverges visibly. The first call
    solves the full set on a throwaway solver; later calls find the matrix
    on the resident solver, where the ``sizes`` subsets take the gathered
    mode and a closing 7/8 sorted subset the near-full masked mode.
    """
    from repro.core import cbg_batch

    matrix = scenario.rtt_matrix()
    vp_count = len(scenario.vps)
    seed = scenario.world.config.seed
    subsets = [np.arange(vp_count)]
    for size in sizes:
        size = min(size, vp_count)
        for trial in range(trials):
            rng = rand.generator((seed, "selfcheck-batch", size, trial))
            subsets.append(np.sort(rng.choice(vp_count, size=size, replace=False)))
    rng = rand.generator((seed, "selfcheck-batch", "near-full"))
    subsets.append(
        np.sort(rng.choice(vp_count, size=(7 * vp_count) // 8, replace=False))
    )
    compared = 0
    for subset in subsets:
        batch = cbg_batch.cbg_errors_batch(
            scenario.vp_lats,
            scenario.vp_lons,
            matrix,
            scenario.target_true_lats,
            scenario.target_true_lons,
            subset,
        )
        loop = cbg_batch.cbg_errors_for_subsets_loop(
            scenario.vp_lats,
            scenario.vp_lons,
            matrix,
            scenario.target_true_lats,
            scenario.target_true_lons,
            subset,
        )
        compared += 1
        if not _arrays_equal(batch, loop):
            mismatch = int(np.argmax(~(np.isclose(batch, loop, equal_nan=True))))
            return DiffOutcome(
                "cbg: batch vs loop",
                ok=False,
                compared=compared,
                detail=f"subset of {subset.size} VPs diverges at target "
                f"{mismatch}: batch={batch[mismatch]!r} loop={loop[mismatch]!r}",
            )
    return DiffOutcome("cbg: batch vs loop", ok=True, compared=compared)


def diff_topology(scenario, sample: int = 24) -> DiffOutcome:
    """CSR bucketed kernel vs the scalar waypoint path, bitwise.

    Builds the flat-array router graph over the scenario's world and
    resolves a seeded sample of (source, destination) host pairs three
    ways — the batched column kernel, the vectorised ``bulk_path_km``,
    and the per-pair scalar ``path_km`` — requiring bitwise agreement.
    The sample is augmented with hosts of the most crowded city so the
    same-city peering and trombone policies are always exercised. A few
    pairs are additionally walked hop by hop: the CSR node sequence must
    map exactly onto :func:`~repro.topology.routing.build_route`'s router
    hops, and the route's total length onto the kernel's entry. The graph
    is built through :mod:`repro.topology.csr`, so a patched kernel
    diverges visibly.
    """
    from repro.topology import csr as csr_mod
    from repro.topology.graph import Topology
    from repro.topology.routing import build_route

    world = scenario.world
    topology = Topology(world)
    graph = csr_mod.CsrRouterGraph.from_topology(topology)
    graph.validate()
    count = world.static_host_count
    seed = world.config.seed
    rng = rand.generator((seed, "selfcheck-topology"))
    size = min(sample, count)
    values, crowd = np.unique(world.host_city_ids, return_counts=True)
    crowded = np.flatnonzero(world.host_city_ids == values[np.argmax(crowd)])[:3]
    src = np.unique(
        np.concatenate([rng.choice(count, size=size, replace=False), crowded])
    )
    dst = np.unique(
        np.concatenate([rng.choice(count, size=size, replace=False), crowded])
    )
    matrix = graph.path_km_matrix(src, dst)
    params = {
        int(h): topology.params_for(world.host_by_id(int(h)))
        for h in np.union1d(src, dst)
    }
    pair = "topology: csr vs scalar"
    compared = 0
    src_tail = topology.host_tail_km[src]
    src_uplink = topology.host_uplink_km[src]
    src_hub = topology.host_hub_index[src]
    src_city = world.host_city_ids[src]
    src_asn = world.host_asns[src]
    for column, d in enumerate(dst):
        bulk = topology.bulk_path_km(
            src_tail, src_uplink, src_hub, src_city, src_asn, params[int(d)]
        )
        compared += 1
        if not _arrays_equal(bulk, matrix[:, column]):
            row = int(np.argmax(bulk != matrix[:, column]))
            return DiffOutcome(
                pair,
                ok=False,
                compared=compared,
                detail=f"column {column} diverges from bulk_path_km at row "
                f"{row}: csr={matrix[row, column]!r} bulk={bulk[row]!r}",
            )
        for row, s in enumerate(src):
            scalar = topology.path_km(params[int(s)], params[int(d)])
            compared += 1
            if scalar != matrix[row, column]:
                return DiffOutcome(
                    pair,
                    ok=False,
                    compared=compared,
                    detail=f"pair ({int(s)}, {int(d)}) diverges: "
                    f"csr={matrix[row, column]!r} scalar={scalar!r}",
                )
    for s in src[:4]:
        for d in dst[:4]:
            if s == d:
                continue
            route = build_route(
                topology,
                params[int(s)],
                params[int(d)],
                world.host_by_id(int(s)).ip,
                world.host_by_id(int(d)).ip,
            )
            walked = [graph.node_ip(node) for node in graph.route_nodes(int(s), int(d))]
            expected = [hop.ip for hop in route.hops[:-1]]
            compared += 1
            if walked != expected or route.total_km != graph.path_km_scalar(
                int(s), int(d)
            ):
                return DiffOutcome(
                    pair,
                    ok=False,
                    compared=compared,
                    detail=f"route ({int(s)}, {int(d)}) diverges: "
                    f"csr walk {walked} vs build_route {expected}",
                )
    return DiffOutcome(
        pair,
        ok=True,
        compared=compared,
        detail=f"{len(src)}x{len(dst)} pairs, 3 paths, routes walked",
    )


def diff_serial_vs_parallel(scenario, trials: int = 3, workers: int = 2) -> DiffOutcome:
    """Serial campaign vs ``REPRO_WORKERS=N``, bitwise on the fig2a series.

    Runs the same Figure-2a campaign twice over one scenario — once with
    the executor forced serial, once with ``workers`` processes — and
    compares every per-size trial series float for float.
    """
    from repro.exec.pool import _fork_context
    from repro.experiments import fig2

    def run_with_workers(value: Optional[str]) -> Dict[str, object]:
        saved = os.environ.get("REPRO_WORKERS")
        try:
            if value is None:
                os.environ.pop("REPRO_WORKERS", None)
            else:
                os.environ["REPRO_WORKERS"] = value
            return fig2.run_fig2a(scenario, trials=trials).series
        finally:
            if saved is None:
                os.environ.pop("REPRO_WORKERS", None)
            else:
                os.environ["REPRO_WORKERS"] = saved

    serial = run_with_workers(None)
    parallel = run_with_workers(str(workers))
    degenerate = "" if _fork_context() is not None else " (fork unavailable: both serial)"
    if sorted(serial) != sorted(parallel):
        return DiffOutcome(
            "exec: serial vs parallel",
            ok=False,
            compared=len(serial),
            detail=f"size keys differ: {sorted(serial)} vs {sorted(parallel)}",
        )
    for size_key in sorted(serial):
        if list(serial[size_key]) != list(parallel[size_key]):
            return DiffOutcome(
                "exec: serial vs parallel",
                ok=False,
                compared=len(serial),
                detail=f"trial series for {size_key} VPs diverges: "
                f"{serial[size_key]} vs {parallel[size_key]}",
            )
    return DiffOutcome(
        "exec: serial vs parallel",
        ok=True,
        compared=len(serial),
        detail=f"fig2a x{trials} trials, {workers} workers{degenerate}",
    )


def diff_cold_vs_warm_cache(
    config: WorldConfig, cache_root: Optional[str] = None
) -> DiffOutcome:
    """Cold scenario build vs a warm cache replay, bitwise.

    Builds the scenario twice against the same artifact-cache root — the
    first populates it, the second must replay from disk — and compares
    the sanitized id sets, the anchor mesh, and the campaign RTT matrix.
    A warm rebuild that never hits the cache is reported as a failure:
    the comparison would be vacuous.
    """
    from repro.cache.artifacts import ArtifactCache
    from repro.experiments.scenario import Scenario
    from repro.obs import Observer

    def build(root: str):
        obs = Observer()
        scenario = Scenario.build(config, obs=obs, cache=ArtifactCache(root, obs=obs))
        artifacts = {
            "vp_ids": scenario.vp_ids,
            "target_ids": np.asarray(scenario.target_ids, dtype=np.int64),
            "removed_anchors": np.asarray(scenario.removed_anchor_ids, dtype=np.int64),
            "removed_probes": np.asarray(scenario.removed_probe_ids, dtype=np.int64),
            "mesh": scenario.mesh()[1],
            "rtt_matrix": scenario.rtt_matrix(),
        }
        return artifacts, int(obs.metrics.counter("cache.hit"))

    owned = None
    if cache_root is None:
        owned = tempfile.TemporaryDirectory(prefix="repro-selfcheck-cache-")
        cache_root = owned.name
    try:
        cold, _cold_hits = build(cache_root)
        warm, warm_hits = build(cache_root)
    finally:
        if owned is not None:
            owned.cleanup()
    if warm_hits == 0:
        return DiffOutcome(
            "cache: cold vs warm",
            ok=False,
            compared=0,
            detail="warm rebuild never hit the cache (comparison vacuous)",
        )
    for name in cold:
        if not _arrays_equal(cold[name], warm[name]):
            return DiffOutcome(
                "cache: cold vs warm",
                ok=False,
                compared=len(cold),
                detail=f"artifact {name!r} differs between cold build and "
                "warm replay",
            )
    return DiffOutcome(
        "cache: cold vs warm",
        ok=True,
        compared=len(cold),
        detail=f"{warm_hits} cache hits on the warm rebuild",
    )


def diff_serve_vs_batch(scenario, batch_sizes=(1, 7, 64)) -> DiffOutcome:
    """Resident serving engine vs the one-shot batch campaign, bitwise.

    Loads the scenario into a :class:`~repro.serve.ServeEngine` and serves
    every target through the intake queue — in a seeded *permuted* order,
    once per coalescing batch size — then compares each answer float for
    float against one ``cbg_centroids_batch`` pass over the full matrix.
    The engine is invoked through :mod:`repro.serve` and the campaign path
    through :mod:`repro.core.cbg_batch`, so a patched engine (or solver)
    diverges visibly.
    """
    from repro.core import cbg_batch
    from repro.serve import STATUS_OK, ServeEngine, TenantConfig

    matrix = scenario.rtt_matrix()
    expected_lats, expected_lons = cbg_batch.cbg_centroids_batch(
        scenario.vp_lats, scenario.vp_lons, matrix
    )
    ips = scenario.target_ips
    seed = scenario.world.config.seed
    compared = 0
    for batch_size in batch_sizes:
        engine = ServeEngine.from_scenario(scenario, max_batch=batch_size)
        engine.register_tenant(TenantConfig(name="selfcheck"))
        order = rand.generator((seed, "selfcheck-serve", batch_size)).permutation(
            len(ips)
        )
        served = engine.geolocate("selfcheck", [ips[column] for column in order])
        got_lats = np.full(len(ips), np.nan)
        got_lons = np.full(len(ips), np.nan)
        for column, result in zip(order, served):
            if result.status == STATUS_OK:
                got_lats[column] = result.lat
                got_lons[column] = result.lon
        compared += 2
        if not (
            _arrays_equal(got_lats, expected_lats)
            and _arrays_equal(got_lons, expected_lons)
        ):
            close = np.isclose(got_lats, expected_lats, equal_nan=True) & np.isclose(
                got_lons, expected_lons, equal_nan=True
            )
            mismatch = int(np.argmax(~close))
            return DiffOutcome(
                "serve: engine vs batch",
                ok=False,
                compared=compared,
                detail=f"max_batch={batch_size} diverges at target {mismatch}: "
                f"served=({got_lats[mismatch]!r}, {got_lons[mismatch]!r}) "
                f"batch=({expected_lats[mismatch]!r}, {expected_lons[mismatch]!r})",
            )
    return DiffOutcome(
        "serve: engine vs batch",
        ok=True,
        compared=compared,
        detail=f"{len(ips)} targets served in permuted order at "
        f"{len(batch_sizes)} batch sizes",
    )


def diff_hints(scenario, workers: int = 2) -> DiffOutcome:
    """Hint pipeline serial vs parallel, bitwise — plus hint physics.

    Mines and verifies the scenario's targets twice through
    :mod:`repro.hints` — once forced serial, once with ``workers``
    processes — each under a fresh observer, and compares the match list,
    the verdicts, the ``hint-*`` event stream, and the metrics report
    byte for byte. Then replays every confirmed hint through the
    ``cbg.containment`` invariant with the hinted city centre standing in
    for the truth (slack widened by that city's radius): a confirmed hint
    must be a feasible location under every answering VP's disk. The
    pipeline is invoked through the module, so a patched finder or
    verifier diverges visibly.
    """
    from repro import hints as hints_mod
    from repro.check.invariants import InvariantChecker
    from repro.exec.pool import _fork_context
    from repro.obs import Observer

    def run_with_workers(value: Optional[str]):
        saved = os.environ.get("REPRO_WORKERS")
        try:
            if value is None:
                os.environ.pop("REPRO_WORKERS", None)
            else:
                os.environ["REPRO_WORKERS"] = value
            obs = Observer()
            matches, verified = hints_mod.mine_hints(scenario, obs=obs)
            return matches, verified, obs.events.to_jsonl(), obs.metrics_report()
        finally:
            if saved is None:
                os.environ.pop("REPRO_WORKERS", None)
            else:
                os.environ["REPRO_WORKERS"] = saved

    serial = run_with_workers(None)
    parallel = run_with_workers(str(workers))
    pair = "hints: serial vs parallel"
    compared = 0
    for name, index in (("matches", 0), ("verdicts", 1), ("events", 2), ("metrics", 3)):
        compared += 1
        if serial[index] != parallel[index]:
            return DiffOutcome(
                pair,
                ok=False,
                compared=compared,
                detail=f"{name} diverge between serial and {workers}-worker runs",
            )

    # Physics: every confirmed hint survives cbg.containment with the
    # hinted centre as the location claim.
    matrix = scenario.rtt_matrix()
    confirmed = hints_mod.confirmed_hints(serial[1])
    for hint in confirmed:
        checker = InvariantChecker(
            raise_on_violation=False, cbg_slack_km=hint.slack_km
        )
        checker.check_cbg_containment(
            scenario.vp_lats,
            scenario.vp_lons,
            matrix[:, [hint.column]],
            np.array([hint.lat]),
            np.array([hint.lon]),
            soi_fraction=2.0 / 3.0,
            context=f"selfcheck hints target {hint.column}",
        )
        compared += 1
        if checker.violations:
            return DiffOutcome(
                pair,
                ok=False,
                compared=compared,
                detail=f"confirmed hint at target {hint.column} "
                f"({hint.match.code!r}) violates cbg.containment",
            )
    degenerate = "" if _fork_context() is not None else " (fork unavailable: both serial)"
    return DiffOutcome(
        pair,
        ok=True,
        compared=compared,
        detail=f"{len(confirmed)} confirmed hints contained, "
        f"{workers} workers{degenerate}",
    )


def diff_serve_under_churn(scenario, revisions: int = 3) -> DiffOutcome:
    """Epoch-swapped serving engine vs fresh per-revision batch, bitwise.

    Evolves the scenario's world through ``revisions`` churned revisions
    (churn rates elevated above the Gouel defaults so even mini worlds
    move real prefixes), then serves every target through *one* resident
    engine that follows the world via
    :meth:`~repro.serve.ServeEngine.install_epoch` — memo surviving
    across swaps — and compares each revision's answers float for float
    against a fresh ``cbg_centroids_batch`` pass over that revision's
    canonical matrix. The engine is driven through :mod:`repro.serve`
    and the matrices through :mod:`repro.evolve.measure`, so a patched
    invalidation path (e.g. a memo entry surviving a moved column)
    diverges visibly.
    """
    from repro.core import cbg_batch
    from repro.evolve import (
        EvolutionConfig,
        EvolutionTimeline,
        epoch_state,
        incremental_matrix,
    )
    from repro.serve import STATUS_OK, ServeEngine, TenantConfig

    pair = "serve: epochs vs batch"
    config = EvolutionConfig(
        revisions=revisions,
        prefix_move_share=0.30,
        migration_share=0.10,
        probe_session_share=0.15,
    )
    timeline = EvolutionTimeline(scenario.world, config, checker=scenario.checker)
    engine = ServeEngine.from_scenario(scenario, max_batch=16)
    engine.register_tenant(TenantConfig(name="selfcheck"))
    ips = scenario.target_ips
    seed = scenario.world.config.seed
    matrix = scenario.rtt_matrix()
    compared = 0
    for revision in range(revisions + 1):
        if revision:
            matrix = incremental_matrix(matrix, timeline, scenario, revision)
            engine.install_epoch(
                epoch_state(timeline, scenario, revision, matrix),
                label=f"selfcheck-r{revision}",
            )
        expected_lats, expected_lons = cbg_batch.cbg_centroids_batch(
            scenario.vp_lats, scenario.vp_lons, matrix
        )
        order = rand.generator((seed, "selfcheck-epoch", revision)).permutation(
            len(ips)
        )
        served = engine.geolocate("selfcheck", [ips[column] for column in order])
        got_lats = np.full(len(ips), np.nan)
        got_lons = np.full(len(ips), np.nan)
        for column, result in zip(order, served):
            if result.status == STATUS_OK:
                got_lats[column] = result.lat
                got_lons[column] = result.lon
        compared += 2
        if not (
            _arrays_equal(got_lats, expected_lats)
            and _arrays_equal(got_lons, expected_lons)
        ):
            close = np.isclose(got_lats, expected_lats, equal_nan=True) & np.isclose(
                got_lons, expected_lons, equal_nan=True
            )
            mismatch = int(np.argmax(~close))
            return DiffOutcome(
                pair,
                ok=False,
                compared=compared,
                detail=f"epoch {revision} diverges at target {mismatch}: "
                f"served=({got_lats[mismatch]!r}, {got_lons[mismatch]!r}) "
                f"batch=({expected_lats[mismatch]!r}, {expected_lons[mismatch]!r})",
            )
    moved_total = sum(
        timeline.moved_target_columns(k, ips).size for k in range(1, revisions + 1)
    )
    return DiffOutcome(
        pair,
        ok=True,
        compared=compared,
        detail=f"{len(ips)} targets served across {revisions} epoch swaps "
        f"({moved_total} moved columns, memo retained between swaps)",
    )


def street_result_key(result) -> str:
    """Canonical text of everything a street-level result decides.

    Estimates, the chosen landmark, every measured (hostname,
    best_delay_ms), the traceroute count, and the simulated time with its
    breakdown; floats appear as their round-trip ``repr``, so equal keys
    mean bitwise-equal results.
    """

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
            sorted(result.time_breakdown.items()),
        )
    )


def diff_street_level(scenario, targets: int = 4) -> DiffOutcome:
    """Street-level tiers as arrays vs the scalar oracles, bitwise.

    Geolocates an evenly spaced handful of the scenario's targets through
    :class:`~repro.core.street_level.StreetLevelPipeline` twice, with the
    anchor mesh as tier-1 RTTs: first with the scalar oracles of
    :mod:`repro.check.oracles` swapped in (the run that materialises the
    world's points of interest in visit order), then through the array
    kernels, and compares :func:`street_result_key` of every result. The
    kernels are looked up through their modules and classes, so a
    patched (broken) kernel diverges visibly.
    """
    from repro.check import oracles
    from repro.core.street_level import StreetLevelPipeline

    pair = "street: arrays vs scalar"
    anchors = scenario.anchor_vp_infos()
    mesh_ids, mesh = scenario.mesh()
    row_of = {anchor_id: row for row, anchor_id in enumerate(mesh_ids)}
    stride = max(1, len(scenario.targets) // max(targets, 1))
    chosen = [t for t in scenario.targets[::stride] if t.host_id in row_of][:targets]

    def run() -> List[object]:
        pipeline = StreetLevelPipeline(scenario.client, scenario.world)
        results = []
        for target in chosen:
            column = row_of[target.host_id]
            rtts = {
                anchor_id: (
                    None if np.isnan(mesh[row, column]) else float(mesh[row, column])
                )
                for anchor_id, row in row_of.items()
            }
            results.append(pipeline.geolocate(target.ip, anchors, rtts))
        return results

    with oracles.scalar_street_tiers():
        scalar = run()
    arrays = run()
    for expected, got in zip(scalar, arrays):
        if street_result_key(expected) != street_result_key(got):
            return DiffOutcome(
                pair,
                ok=False,
                compared=len(chosen),
                detail=f"target {got.target_ip} diverges: arrays "
                f"{street_result_key(got)} vs scalar {street_result_key(expected)}",
            )
    traceroutes = sum(result.traceroutes_run for result in arrays)
    landmarks = sum(len(result.measurements) for result in arrays)
    repaired = sum(result.used_fallback_soi for result in arrays)
    return DiffOutcome(
        pair,
        ok=True,
        compared=len(chosen),
        detail=f"{len(chosen)} targets ({repaired} via tier-1 repair and 2/3 c), "
        f"{landmarks} landmarks, {traceroutes} traceroutes",
    )


def run_selfcheck(
    preset: str = "quick",
    seed: Optional[int] = None,
    trials: int = 3,
    workers: int = 2,
) -> SelfCheckReport:
    """Run all eight paired-path comparisons over one preset world."""
    from repro.experiments.scenario import Scenario, config_for_preset

    config = config_for_preset(preset, seed)
    scenario = Scenario.build(config)
    report = SelfCheckReport()
    report.outcomes.append(diff_batch_vs_loop(scenario))
    report.outcomes.append(diff_topology(scenario))
    report.outcomes.append(
        diff_serial_vs_parallel(scenario, trials=trials, workers=workers)
    )
    report.outcomes.append(diff_cold_vs_warm_cache(config))
    report.outcomes.append(diff_serve_vs_batch(scenario))
    report.outcomes.append(diff_hints(scenario, workers=workers))
    report.outcomes.append(diff_serve_under_churn(scenario))
    report.outcomes.append(diff_street_level(scenario))
    return report
