"""The canonical experiment setup (datasets section of the paper, §4).

Building a :class:`Scenario` performs, in order:

1. world construction from a :class:`~repro.world.config.WorldConfig`;
2. platform creation and the anchor-mesh measurement;
3. §4.3 sanitization — anchors first (speed-of-Internet violations on the
   mesh), then probes (violations against sanitized anchors);
4. dataset fixing: *targets* are the sanitized anchors, *vantage points*
   are sanitized probes + anchors.

The two heavyweight measurement campaigns — the VP-to-target ping matrix
and the VP-to-representative matrix — are computed lazily and cached, since
several experiments share them. Scenarios themselves are cached per
(preset, seed) so a pytest/benchmark session builds each at most once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.atlas.client import AtlasClient
from repro.atlas.platform import AtlasPlatform, ProbeInfo
from repro.atlas.resilient import ResilientClient, RetryPolicy
from repro.check.invariants import NULL_CHECKER, check_enabled, checker_from_env
from repro.core.million_scale import representative_rtt_matrix
from repro.core.sanitize import sanitize_anchors, sanitize_probes
from repro.faults import FaultInjector, FaultPlan
from repro.obs.live import NULL_LIVE
from repro.obs.observer import NULL_OBSERVER
from repro.world.builder import build_world
from repro.world.config import WorldConfig
from repro.world.hosts import Host
from repro.world.world import World


@dataclass
class Scenario:
    """A sanitized measurement scenario shared by the experiments."""

    world: World
    platform: AtlasPlatform
    client: AtlasClient
    #: sanitized targets (anchor hosts), in platform-id order.
    targets: List[Host]
    #: sanitized vantage points (anchors + probes), in platform-id order.
    vps: List[ProbeInfo]
    #: ids removed by sanitization, for the §4.3 bookkeeping.
    removed_anchor_ids: List[int] = field(default_factory=list)
    removed_probe_ids: List[int] = field(default_factory=list)
    #: campaign observer (the platform's; :data:`NULL_OBSERVER` by default).
    obs: object = field(default=NULL_OBSERVER, repr=False, compare=False)
    #: invariant checker (the platform's; :data:`NULL_CHECKER` by default).
    checker: object = field(default=NULL_CHECKER, repr=False, compare=False)
    #: operational telemetry plane (:data:`NULL_LIVE` by default) —
    #: wall-clock only, never part of the deterministic streams.
    live: object = field(default=NULL_LIVE, repr=False, compare=False)
    #: artifact cache and this scenario's content address (``None`` → off).
    cache: Optional[object] = field(default=None, repr=False, compare=False)
    cache_key: Optional[str] = field(default=None, repr=False, compare=False)

    _rtt_matrix: Optional[np.ndarray] = field(default=None, repr=False)
    _rep_matrix: Optional[np.ndarray] = field(default=None, repr=False)
    _rep_median_matrix: Optional[np.ndarray] = field(default=None, repr=False)
    _reps: Optional[Dict[str, List[str]]] = field(default=None, repr=False)
    #: memoized derived arrays — the VP/target sets are fixed at build time,
    #: and fig2-style campaigns read these once per trial (hundreds of times).
    _derived_arrays: Dict[str, np.ndarray] = field(
        default_factory=dict, repr=False, compare=False
    )
    #: street-level campaign records per target cap, owned by the scenario
    #: they describe (filled by
    #: :func:`~repro.experiments.street_runner.street_level_records`).
    street_records: Dict[Optional[int], list] = field(
        default_factory=dict, repr=False, compare=False
    )

    def _derived(self, key: str, build) -> np.ndarray:
        array = self._derived_arrays.get(key)
        if array is None:
            array = build()
            self._derived_arrays[key] = array
        return array

    # --- artifact cache ----------------------------------------------------------

    def _cache_load(self, name: str) -> Optional[Dict[str, np.ndarray]]:
        if self.cache is None:
            return None
        return self.cache.load(name, self.cache_key)

    def _cache_store(self, name: str, arrays: Dict[str, np.ndarray]) -> None:
        if self.cache is not None:
            self.cache.store(name, self.cache_key, arrays)

    # --- derived arrays ----------------------------------------------------------

    @property
    def target_ips(self) -> List[str]:
        """Addresses of the sanitized targets."""
        return [t.ip for t in self.targets]

    @property
    def target_ids(self) -> List[int]:
        """Host ids of the sanitized targets."""
        return [t.host_id for t in self.targets]

    @property
    def vp_ids(self) -> np.ndarray:
        """Vantage-point ids as an array."""
        return self._derived(
            "vp_ids",
            lambda: np.array([vp.probe_id for vp in self.vps], dtype=np.int64),
        )

    @property
    def vp_lats(self) -> np.ndarray:
        """Registered VP latitudes (what algorithms are allowed to see)."""
        return self._derived(
            "vp_lats", lambda: np.array([vp.location.lat for vp in self.vps])
        )

    @property
    def vp_lons(self) -> np.ndarray:
        """Registered VP longitudes."""
        return self._derived(
            "vp_lons", lambda: np.array([vp.location.lon for vp in self.vps])
        )

    @property
    def target_true_lats(self) -> np.ndarray:
        """Ground-truth target latitudes (evaluation only)."""
        return self._derived(
            "target_true_lats",
            lambda: np.array([t.true_location.lat for t in self.targets]),
        )

    @property
    def target_true_lons(self) -> np.ndarray:
        """Ground-truth target longitudes (evaluation only)."""
        return self._derived(
            "target_true_lons",
            lambda: np.array([t.true_location.lon for t in self.targets]),
        )

    @property
    def target_continents(self) -> List[str]:
        """Continent code per target."""
        return [self.world.city_of_host(t).continent for t in self.targets]

    def anchor_vp_infos(self) -> List[ProbeInfo]:
        """The anchor subset of the vantage points (street level VPs)."""
        return [vp for vp in self.vps if vp.is_anchor]

    # --- measurement campaigns ---------------------------------------------------

    def rtt_matrix(self) -> np.ndarray:
        """Min-RTT matrix, all VPs x all targets (the §4.1.3 ping campaign).

        Entry ``[i, j]`` is NaN when VP i got no answer from target j; the
        diagonal-ish entries where a VP *is* the target are NaN as well
        (a host does not ping itself over the network).
        """
        if self._rtt_matrix is None:
            cached = self._cache_load("rtt-matrix")
            if cached is not None:
                self._rtt_matrix = cached["matrix"]
                return self._rtt_matrix
            with self.obs.span(
                "campaign:rtt-matrix",
                clock=self.client.clock,
                vps=len(self.vps),
                targets=len(self.targets),
            ):
                matrix = self.client.ping_matrix(self.vp_ids, self.target_ips)
            target_id_by_ip = {t.ip: t.host_id for t in self.targets}
            vp_index = {int(vp_id): row for row, vp_id in enumerate(self.vp_ids)}
            for column, ip in enumerate(self.target_ips):
                row = vp_index.get(target_id_by_ip[ip])
                if row is not None:
                    matrix[row, column] = np.nan
            self._rtt_matrix = matrix
            self._cache_store("rtt-matrix", {"matrix": matrix})
        return self._rtt_matrix

    def representative_matrices(self) -> Tuple[np.ndarray, np.ndarray, Dict[str, List[str]]]:
        """Representative RTTs: (min-over-reps, median-over-reps, reps map).

        The §4.1.3 campaign: three /24 representatives per target, pinged
        from every vantage point.
        """
        if self._rep_matrix is None:
            cached = self._cache_load("representatives")
            if cached is not None:
                from repro.cache.artifacts import json_payload_object

                self._rep_matrix = cached["min_matrix"]
                self._rep_median_matrix = cached["median_matrix"]
                self._reps = json_payload_object(cached["reps_json"])
                return self._rep_matrix, self._rep_median_matrix, self._reps
            with self.obs.span(
                "campaign:representatives",
                clock=self.client.clock,
                vps=len(self.vps),
                targets=len(self.targets),
            ):
                min_matrix, reps = representative_rtt_matrix(
                    self.client, self.vp_ids, self.target_ips, self.world.hitlist
                )
            # Second read for the median aggregation (no extra measurements:
            # same underlying campaign, different aggregation).
            median_matrix = np.full_like(min_matrix, np.nan)
            for column, target in enumerate(self.target_ips):
                rep_matrix = self.platform.ping_matrix(self.vp_ids, reps[target])
                answered_rows = ~np.isnan(rep_matrix).all(axis=1)
                if answered_rows.any():
                    median_matrix[answered_rows, column] = np.nanmedian(
                        rep_matrix[answered_rows], axis=1
                    )
            # A VP must not use its own /24 siblings to locate itself.
            target_id_by_ip = {t.ip: t.host_id for t in self.targets}
            vp_index = {int(vp_id): row for row, vp_id in enumerate(self.vp_ids)}
            for column, ip in enumerate(self.target_ips):
                row = vp_index.get(target_id_by_ip[ip])
                if row is not None:
                    min_matrix[row, column] = np.nan
                    median_matrix[row, column] = np.nan
            self._rep_matrix = min_matrix
            self._rep_median_matrix = median_matrix
            self._reps = reps
            if self.cache is not None:
                from repro.cache.artifacts import json_payload_array

                self._cache_store(
                    "representatives",
                    {
                        "min_matrix": min_matrix,
                        "median_matrix": median_matrix,
                        "reps_json": json_payload_array(reps),
                    },
                )
        return self._rep_matrix, self._rep_median_matrix, self._reps

    def mesh(self) -> Tuple[List[int], np.ndarray]:
        """The anchor-mesh dataset restricted to sanitized anchors."""
        ids, matrix = self.platform.anchor_mesh()
        target_id_set = set(self.target_ids)
        keep = [index for index, anchor_id in enumerate(ids) if anchor_id in target_id_set]
        kept_ids = [ids[index] for index in keep]
        sub = matrix[np.ix_(keep, keep)]
        return kept_ids, sub

    def vp_row_of_target(self, target: Host) -> Optional[int]:
        """Row index of a target inside the VP axis (targets are anchors)."""
        matches = np.where(self.vp_ids == target.host_id)[0]
        return int(matches[0]) if matches.size else None

    def query_state(self):
        """The query-time half of this scenario (see :mod:`repro.serve`).

        Forces the RTT campaign (replayed from the artifact cache on warm
        starts) and packages the arrays a resident serving engine reads —
        the build-time state (world, platform, client) stays behind.
        """
        from repro.serve.state import QueryState

        return QueryState.from_scenario(self)

    # --- fault-injected views ------------------------------------------------------

    def faulty_client(
        self,
        plan: FaultPlan,
        policy: Optional[RetryPolicy] = None,
    ) -> ResilientClient:
        """A resilient measurement session over this world, under faults.

        Builds a fresh fault-injected :class:`AtlasPlatform` over the
        *same* world (same hosts, same latency draws) and wraps it in a
        :class:`ResilientClient`, so experiments can re-run a campaign
        under different weather while holding the sanitized VP/target sets
        fixed. Because fault draw keys are rate-free where it matters, the
        fault sets of :meth:`FaultPlan.at_rate` plans are nested across
        rates — coverage can only shrink as the rate grows.

        The scenario's observer and invariant checker are threaded through,
        so fault injections, retries, and physics checks on the faulty view
        land in the same campaign stream.
        """
        platform = AtlasPlatform(
            self.world, faults=FaultInjector(plan), obs=self.obs, checker=self.checker
        )
        return ResilientClient(AtlasClient(platform), policy=policy)

    # --- construction -------------------------------------------------------------

    @classmethod
    def build(
        cls,
        config: WorldConfig,
        faults: Optional[FaultInjector] = None,
        obs=NULL_OBSERVER,
        cache=None,
        checker=None,
        live=NULL_LIVE,
    ) -> "Scenario":
        """Run the full §4 dataset pipeline for a world configuration.

        Args:
            config: the world configuration.
            faults: optional fault layer for the platform. When given, the
                scenario's client is a :class:`ResilientClient`, and every
                campaign — including the §4.3 sanitization measurements —
                runs under the plan's weather with partial results instead
                of crashes.
            obs: campaign observer, threaded into the platform (and from
                there into the ledger, rate limiter, and fault layer).
            cache: optional :class:`~repro.cache.ArtifactCache`. When set,
                the anchor mesh and sanitized id sets are replayed from (or
                written to) disk, and the lazy campaign matrices are cached
                too. Fault-injected builds bypass it — their measurements
                depend on the weather, not just the config.
            checker: optional :class:`~repro.check.InvariantChecker`.
                ``None`` resolves from the ``REPRO_CHECK`` environment knob
                (:func:`~repro.check.checker_from_env`, with tolerances
                derived from this config); the resolved checker is threaded
                into the platform, ledger, cache, and every campaign run
                against the scenario.
            live: operational telemetry plane
                (:class:`~repro.obs.live.LiveTelemetry`), adopted by
                experiments and serving engines built over the scenario;
                :data:`~repro.obs.live.NULL_LIVE` (free) by default.
        """
        if checker is None:
            checker = checker_from_env(obs=obs, config=config)
        if faults is not None:
            cache = None
        cache_key = None
        if cache is not None:
            from repro.cache.artifacts import config_key

            if checker.enabled:
                cache.checker = checker
            cache_key = config_key(config)

        world = build_world(config)
        platform = AtlasPlatform(world, faults=faults, obs=obs, checker=checker)
        client = AtlasClient(platform) if faults is None else ResilientClient(AtlasClient(platform))

        cached = cache.load("sanitize", cache_key) if cache is not None else None
        if cached is not None:
            # Warm start: replay the mesh into the platform and skip both
            # sanitization campaigns (byte-identical by construction —
            # every measurement is a pure function of the config).
            platform.seed_anchor_mesh(
                cached["mesh_ids"].tolist(), cached["mesh_matrix"]
            )
            kept_anchor_ids = [int(i) for i in cached["kept_anchor_ids"]]
            removed_anchor_ids = [int(i) for i in cached["removed_anchor_ids"]]
            kept_probe_ids = [int(i) for i in cached["kept_probe_ids"]]
            removed_probe_ids = [int(i) for i in cached["removed_probe_ids"]]
        else:
            # §4.3 step 1: sanitize anchors on the mesh.
            mesh_ids, mesh_matrix = platform.anchor_mesh()
            anchor_locations = [
                platform.probe_info(anchor_id).location for anchor_id in mesh_ids
            ]
            kept_anchor_ids, removed_anchor_ids = sanitize_anchors(
                mesh_ids, mesh_matrix, anchor_locations
            )

            # §4.3 step 2: sanitize probes against the sanitized anchors.
            probe_infos = [info for info in platform.probe_infos() if not info.is_anchor]
            probe_ids = [info.probe_id for info in probe_infos]
            kept_anchor_ips = [platform.probe_info(a).address for a in kept_anchor_ids]
            probe_matrix = client.ping_matrix(probe_ids, kept_anchor_ips, seq=7)
            kept_probe_ids, removed_probe_ids = sanitize_probes(
                probe_ids,
                [info.location for info in probe_infos],
                [platform.probe_info(a).location for a in kept_anchor_ids],
                probe_matrix,
            )
            if cache is not None:
                cache.store(
                    "sanitize",
                    cache_key,
                    {
                        "mesh_ids": np.asarray(mesh_ids, dtype=np.int64),
                        "mesh_matrix": mesh_matrix,
                        "kept_anchor_ids": np.asarray(kept_anchor_ids, dtype=np.int64),
                        "removed_anchor_ids": np.asarray(
                            removed_anchor_ids, dtype=np.int64
                        ),
                        "kept_probe_ids": np.asarray(kept_probe_ids, dtype=np.int64),
                        "removed_probe_ids": np.asarray(
                            removed_probe_ids, dtype=np.int64
                        ),
                    },
                )

        kept_vp_ids = sorted(set(kept_anchor_ids) | set(kept_probe_ids))
        vps = [platform.probe_info(vp_id) for vp_id in kept_vp_ids]
        targets = [world.host_by_id(anchor_id) for anchor_id in kept_anchor_ids]
        targets.sort(key=lambda host: host.host_id)
        return cls(
            world=world,
            platform=platform,
            client=client,
            targets=targets,
            vps=vps,
            removed_anchor_ids=removed_anchor_ids,
            removed_probe_ids=removed_probe_ids,
            obs=obs,
            checker=checker,
            live=live,
            cache=cache,
            cache_key=cache_key,
        )


def config_for_preset(preset: str, seed: Optional[int] = None) -> WorldConfig:
    """The :class:`WorldConfig` behind a scenario preset name.

    Args:
        preset: ``"paper"``, ``"small"``, or ``"quick"``.
        seed: override the preset's default seed.

    Raises:
        ValueError: for unknown presets.
    """
    factories = {
        "paper": WorldConfig.paper,
        "small": WorldConfig.small,
        "quick": WorldConfig.quick,
    }
    factory = factories.get(preset)
    if factory is None:
        raise ValueError(f"unknown scenario preset: {preset!r}")
    return factory() if seed is None else factory(seed)


_SCENARIO_CACHE: Dict[Tuple[str, int, bool], Scenario] = {}


def get_scenario(
    preset: str = "paper", seed: Optional[int] = None, obs=None, live=None
) -> Scenario:
    """A cached scenario for a preset ("paper", "small", or "quick").

    When ``REPRO_CACHE_DIR`` is set, builds go through the persistent
    :class:`~repro.cache.ArtifactCache` rooted there: measurement artifacts
    (anchor mesh, sanitized id sets, campaign matrices) are replayed from
    disk on warm starts and written on cold ones — byte-identical either
    way. The in-memory per-(preset, seed, check-mode) memo is independent
    of it; the check mode is part of the key so that a ``REPRO_CHECK=1``
    run never reuses a scenario whose build skipped the invariant checks
    (and vice versa — a checked scenario keeps checking campaigns run
    against it).

    Args:
        preset: which :class:`WorldConfig` factory to use.
        seed: override the preset's default seed.
        obs: optional campaign observer. Observed scenarios are built
            fresh and **not** cached in memory — an observer accumulates
            state from every campaign run against its scenario, so sharing
            one across callers would mix unrelated event streams.
        live: optional operational telemetry plane. Live scenarios are
            built fresh and not cached, for the same accumulation reason.

    Raises:
        ValueError: for unknown presets.
    """
    from repro.cache import cache_from_env

    config = config_for_preset(preset, seed)
    if obs is not None or live is not None:
        return Scenario.build(
            config,
            obs=obs if obs is not None else NULL_OBSERVER,
            cache=cache_from_env(obs) if obs is not None else cache_from_env(),
            live=live if live is not None else NULL_LIVE,
        )
    key = (preset, config.seed, check_enabled())
    scenario = _SCENARIO_CACHE.get(key)
    if scenario is None:
        scenario = Scenario.build(config, cache=cache_from_env())
        _SCENARIO_CACHE[key] = scenario
    return scenario
