"""The traced entry points of each layer, and the per-layer values.

:func:`register` wraps, from outside the program, the public functions
through which each layer is entered — each patched where its caller looks
it up. :func:`layer_values` turns the recorded spans and boundary
counters into the values of the ``per_layer`` metrics that
``BENCHMARK.json`` names. A layer a workload never enters reports 0 (the
layer-to-metric table in ``workloads.json`` says which are flat on which
workload).

Every per-layer metric is measured here; nothing is read from inside the
program except ``cbg.batch_exact_fallback``, which the traced CBG workload
reads from an :class:`~repro.obs.observer.Observer` passed to the kernel
as a cross-check of ``cbg.fallback_calls``.
"""

from __future__ import annotations

from typing import Dict, Set, Tuple

from perfbench.layertrace import SpanStats, Tracer


def _centroids_span(vp_lats, vp_lons, rtt_matrix, subset=None, *args, **kwargs) -> str:
    n_vps = len(vp_lats)
    size = n_vps if subset is None else len(subset)
    # The kernel's near-full masked mode starts at 3/4 of the vantage points.
    if 4 * size >= 3 * n_vps:
        return "cbg_batch.centroids_masked"
    return "cbg_batch.centroids_gather"


def register(tracer: Tracer) -> None:
    """Register the wrappers for every traced layer (not yet attached)."""
    import repro.atlas.platform as platform
    import repro.cache.artifacts as artifacts
    import repro.core.cbg as cbg
    import repro.core.cbg_batch as cbg_batch
    import repro.core.street_level as street_level
    import repro.evolve.measure as measure
    import repro.evolve.timeline as timeline
    import repro.experiments.scenario as scenario
    import repro.landmarks.discovery as discovery
    import repro.landmarks.mapping as mapping
    import repro.landmarks.validation as validation
    import repro.latency.model as model
    import repro.serve.engine as engine
    import repro.world.world as world

    count = tracer.count

    # repro.serve
    Engine = engine.ServeEngine
    tracer.wrap(Engine, "__init__", "serve.engine_load")
    tracer.wrap(Engine, "submit", "serve.submit")

    def batch_done(size, *args, **kwargs):
        if size:
            count("serve.batches")
            count("serve.batched_requests", size)

    tracer.wrap(Engine, "process_one_batch", "serve.batch", batch_done)
    tracer.wrap(
        Engine,
        "install_epoch",
        "serve.swap",
        lambda changed, *a, **k: count("serve.swap_changed_columns", changed),
    )

    # repro.core.cbg_batch
    Solver = cbg_batch.CbgBatchSolver
    tracer.wrap(Solver, "__init__", "cbg_batch.solver_build")

    def solved(result, self, columns=None, *args, **kwargs):
        count("cbg_batch.columns_solved", len(result[0]))

    tracer.wrap(Solver, "centroids", "cbg_batch.solve", solved)
    tracer.wrap(
        cbg_batch,
        "cbg_centroids_batch",
        _centroids_span,
        lambda result, *a, **k: count("cbg_batch.targets", len(result[0])),
    )
    tracer.wrap(cbg_batch, "cbg_errors_batch", "cbg_batch.errors")

    # repro.core.cbg: the exact fallback as the batch kernel reaches it,
    # the campaign entry point the CBG workload calls, and street tier 1.
    tracer.wrap(cbg_batch, "cbg_centroid_fast", "cbg.fallback")
    tracer.wrap(cbg, "cbg_errors_for_subsets", "cbg.errors_for_subsets")
    tracer.wrap(street_level, "cbg_estimate", "cbg.estimate")

    # repro.core.street_level and repro.core.delays
    def geolocated(result, *args, **kwargs):
        count("street_level.targets")
        count("street_level.cbg_fallbacks", int(result.fell_back_to_cbg))

    tracer.wrap(
        street_level.StreetLevelPipeline, "geolocate", "street_level.geolocate", geolocated
    )

    def delay_done(result, *args, **kwargs):
        count("delays.landmarks_measured")
        count("delays.usable", int(result.usable))

    tracer.wrap(street_level, "estimate_landmark_delay", "delays.estimate", delay_done)

    # repro.atlas: every API call charges once; measurements are the
    # (probe, target) results it asks for.
    Platform = platform.AtlasPlatform

    def charged(measurements: int) -> None:
        count("atlas.api_calls")
        count("atlas.measurements", measurements)

    def pinged(result, self, probe_ids, target_ip, *args, **kwargs):
        charged(len(probe_ids))

    def matrix_measured(result, self, probe_ids, target_ips, *args, **kwargs):
        charged(len(probe_ids) * len(target_ips))

    def traced_route(result, *args, **kwargs):
        charged(1)
        count("atlas.traceroutes")

    def traced_batch(result, self, probe_ids, target_ips, *args, **kwargs):
        charged(len(probe_ids) * len(target_ips))
        count("atlas.traceroutes", len(probe_ids) * len(target_ips))

    tracer.wrap(Platform, "ping", "atlas.ping", pinged)
    tracer.wrap(Platform, "ping_matrix", "atlas.ping_matrix", matrix_measured)
    tracer.wrap(Platform, "traceroute", "atlas.traceroute", traced_route)
    tracer.wrap(Platform, "traceroute_batch", "atlas.traceroute_batch", traced_batch)
    tracer.wrap(Platform, "anchor_mesh", "atlas.anchor_mesh")

    # repro.latency and repro.topology
    tracer.wrap(model.LatencyModel, "traceroute", "latency.traceroute")
    tracer.wrap(model.LatencyModel, "bulk_min_rtt", "latency.bulk_min_rtt")
    tracer.wrap(model, "build_route", "topology.build_route")

    # repro.landmarks
    tracer.wrap(discovery.LandmarkDiscovery, "discover", "landmarks.discover")

    def validated(result, *args, **kwargs):
        count("landmarks.websites_tested")
        count("landmarks.validated", int(result.passed))

    tracer.wrap(validation.LandmarkValidator, "validate", "landmarks.validate", validated)
    tracer.wrap(mapping.ReverseGeocoder, "reverse", "landmarks.geocode")

    # repro.core.sanitize and repro.world, as the scenario build calls them
    tracer.wrap(scenario, "sanitize_anchors", "sanitize.anchors")
    tracer.wrap(scenario, "sanitize_probes", "sanitize.probes")
    tracer.wrap(scenario, "build_world", "world.build")

    # Lazy POI materialisation: a city's first lookup generates its POIs.
    World = world.World
    lookup = vars(World)["pois_of_city"]
    materialize = tracer.name_id("world.materialize_city")

    def pois_of_city(self, city_id):
        if not tracer.enabled:
            return lookup(self, city_id)
        before = self.materialized_poi_count()
        index = tracer.open(materialize)
        try:
            return lookup(self, city_id)
        finally:
            tracer.close(index)
            if self.materialized_poi_count() == before:
                tracer.rename(index, "world.pois_lookup")
            else:
                count("world.cities_materialized")

    tracer.replace(World, "pois_of_city", pois_of_city)

    # repro.cache
    def loaded(result, *args, **kwargs):
        count("cache.hits" if result is not None else "cache.misses")

    tracer.wrap(artifacts.ArtifactCache, "load", "cache.load", loaded)

    # repro.evolve: the benchmark calls the measure functions through the
    # module, so wrapping the module attributes catches its calls.
    tracer.wrap(timeline.EvolutionTimeline, "snapshot", "evolve.snapshot")
    tracer.wrap(timeline.EvolutionTimeline, "platform", "evolve.platform")
    tracer.wrap(measure, "incremental_matrix", "evolve.incremental_matrix")
    tracer.wrap(measure, "epoch_state", "evolve.epoch_state")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_values(
    tracer: Tracer, extra: Dict[str, float]
) -> Tuple[Dict[str, float], Set[str]]:
    """Every per-layer value, and the names of the spans those values report.

    Op-path values read the timed phase; set-up values read set-up.
    ``extra`` supplies what only the timed loop knows (waits measured
    against the arrival schedule, moved columns, the observer's fallback
    counter). The span names are the ones some value reads in the timed
    phase: the rest of the timed phase — the benchmark's own loop, and the
    self time of every span no value reads — is the trace residual.
    """
    timed = SpanStats(tracer, timed=True)
    setup = SpanStats(tracer, timed=False)
    every = SpanStats(tracer, timed=None)
    c = tracer.counts.get
    s = tracer.setup_counts.get
    hits = extra.get("serve.memo_hits", 0.0)
    solved = c("cbg_batch.columns_solved", 0.0)
    values = {
        "serve.submit_us": timed.mean_s("serve.submit") * 1e6,
        "serve.batch_self_us": timed.self_mean_s("serve.batch") * 1e6,
        "serve.batches": c("serve.batches", 0.0),
        "serve.batch_size_mean": _ratio(
            c("serve.batched_requests", 0.0), c("serve.batches", 0.0)
        ),
        "serve.memo_hits": hits,
        "serve.unique_columns": hits + solved if hits else 0.0,
        "serve.memo_hit_ratio": _ratio(hits, hits + solved) if hits else 0.0,
        "serve.swap_ms": timed.mean_s("serve.swap") * 1e3,
        "serve.swap_changed_columns": c("serve.swap_changed_columns", 0.0),
        "serve.engine_load_s": setup.total_s("serve.engine_load"),
        "cbg_batch.solver_build_ms": every.mean_s("cbg_batch.solver_build") * 1e3,
        "cbg_batch.solve_ms": timed.mean_s("cbg_batch.solve") * 1e3,
        "cbg_batch.columns_solved": solved,
        "cbg_batch.centroids_gather_ms": timed.mean_s("cbg_batch.centroids_gather") * 1e3,
        "cbg_batch.centroids_masked_ms": timed.mean_s("cbg_batch.centroids_masked") * 1e3,
        "cbg_batch.errors_ms": timed.self_mean_s("cbg_batch.errors") * 1e3,
        "cbg_batch.targets": c("cbg_batch.targets", 0.0),
        "cbg.fallback_calls": float(timed.calls("cbg.fallback")),
        "cbg.fallback_ms": timed.mean_s("cbg.fallback") * 1e3,
        "cbg.estimate_ms": timed.mean_s("cbg.estimate") * 1e3,
        "atlas.traceroute_batch_ms": timed.mean_s("atlas.traceroute_batch") * 1e3,
        "atlas.traceroutes": c("atlas.traceroutes", 0.0),
        "atlas.ping_matrix_s": setup.total_s("atlas.ping_matrix"),
        "atlas.anchor_mesh_s": setup.total_s("atlas.anchor_mesh"),
        "atlas.measurements": s("atlas.measurements", 0.0) + c("atlas.measurements", 0.0),
        "atlas.api_calls": s("atlas.api_calls", 0.0) + c("atlas.api_calls", 0.0),
        "latency.traceroute_us": timed.mean_s("latency.traceroute") * 1e6,
        "latency.bulk_min_rtt_ms": setup.mean_s("latency.bulk_min_rtt") * 1e3,
        "topology.build_route_us": timed.mean_s("topology.build_route") * 1e6,
        "landmarks.discover_ms": timed.mean_s("landmarks.discover") * 1e3,
        "landmarks.validate_ms": timed.mean_s("landmarks.validate") * 1e3,
        "landmarks.geocode_ms": timed.mean_s("landmarks.geocode") * 1e3,
        "landmarks.websites_tested": c("landmarks.websites_tested", 0.0),
        "landmarks.validated_ratio": _ratio(
            c("landmarks.validated", 0.0), c("landmarks.websites_tested", 0.0)
        ),
        "delays.estimate_ms": timed.mean_s("delays.estimate") * 1e3,
        "delays.usable_ratio": _ratio(
            c("delays.usable", 0.0), c("delays.landmarks_measured", 0.0)
        ),
        "street_level.cbg_fallback_ratio": _ratio(
            c("street_level.cbg_fallbacks", 0.0), c("street_level.targets", 0.0)
        ),
        "sanitize.s": setup.total_s("sanitize.anchors") + setup.total_s("sanitize.probes"),
        "world.build_s": setup.total_s("world.build"),
        "world.materialize_pois_s": setup.total_s("world.materialize_city"),
        "cache.load_s": setup.total_s("cache.load"),
        "cache.hits": s("cache.hits", 0.0),
        "cache.misses": s("cache.misses", 0.0),
        "evolve.snapshot_s": setup.total_s("evolve.snapshot"),
        "evolve.incremental_matrix_s": setup.total_s("evolve.incremental_matrix"),
    }
    values.update(extra)
    return values, timed.read | every.read
