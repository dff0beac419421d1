"""The measurement platform: probe metadata and the measurement engine.

:class:`AtlasPlatform` is the boundary between algorithms and the simulated
world. Algorithms see:

* probe *metadata* (:class:`ProbeInfo`) — the recorded location, never the
  true one;
* measurement *results* — min RTTs and traceroute hops, produced by the
  latency model from true positions.

That separation mirrors the real study: geolocation techniques trust the
platform's metadata and whatever the network echoes back, nothing more.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import rand
from repro.atlas.clock import SimClock
from repro.check.invariants import NULL_CHECKER
from repro.atlas.credits import (
    CREDIT_COST_PER_PING_PACKET,
    CREDIT_COST_PER_TRACEROUTE,
    CreditLedger,
)
from repro.errors import MeasurementError
from repro.faults import FaultInjector
from repro.geo.coords import GeoPoint
from repro.obs import events as _ev
from repro.obs.observer import NULL_OBSERVER
from repro.latency.model import LatencyModel, TraceObservation
from repro.topology.graph import Topology
from repro.world.hosts import Host, HostKind
from repro.world.world import World

#: Seconds of API overhead per measurement request batch.
API_OVERHEAD_S = 2.0
#: Measurement results become available after this long (min, max); the
#: paper notes "it generally takes a few minutes" (§5.2.5). CALIBRATED
#: against Figure 6c's median time to geolocate a target (1,238 s).
RESULT_LATENCY_RANGE_S = (180.0, 420.0)
#: How many measurement *specifications* (one target, many probes) the API
#: runs concurrently; larger batches complete in waves.
MAX_CONCURRENT_MEASUREMENTS = 100


@dataclass(frozen=True)
class ProbeInfo:
    """Public metadata of a vantage point, as the platform advertises it.

    Attributes:
        probe_id: platform id (equals the underlying host id).
        address: the probe's IPv4 address.
        location: the *registered* location — possibly wrong, which is why
            the paper sanitizes the platform first (§4.3).
        asn: the probe's AS.
        is_anchor: anchors are well-connected servers; probes are small
            devices in access networks.
        probing_rate_pps: the probe's packets-per-second budget (§5.1.3).
    """

    probe_id: int
    address: str
    location: GeoPoint
    asn: int
    is_anchor: bool
    probing_rate_pps: float


class AtlasPlatform:
    """Simulated RIPE Atlas measurement platform over a world.

    Args:
        world: the simulated world measurements observe.
        faults: optional :class:`~repro.faults.FaultInjector`. When absent
            (or carrying a zero :class:`~repro.faults.FaultPlan`) the
            platform is the fair-weather substrate it always was —
            byte-identical results. When present, measurements are subject
            to probe churn, packet loss, typed API errors, delivery delays
            and account-level credit exhaustion.
        obs: campaign observer (see :mod:`repro.obs`). Measurement batches
            emit ``measurement-scheduled`` / ``measurement-executed``
            events and ``atlas.*`` counters; a fault injector still
            carrying the default :data:`~repro.obs.observer.NULL_OBSERVER`
            adopts this observer so fault events land in the same stream.
            The default no-op observer costs nothing on the hot paths.
        checker: optional :class:`~repro.check.InvariantChecker`, threaded
            into the latency model (physics invariants on every produced
            measurement) and adopted by client-created ledgers (credit
            conservation). :data:`~repro.check.NULL_CHECKER` — free — by
            default.
    """

    def __init__(
        self,
        world: World,
        faults: Optional[FaultInjector] = None,
        obs=NULL_OBSERVER,
        checker=NULL_CHECKER,
    ) -> None:
        self.world = world
        self.faults = faults
        self.obs = obs
        self.checker = checker
        if faults is not None and obs.enabled and not faults.obs.enabled:
            faults.obs = obs
        self.topology = Topology(world)
        self.latency = LatencyModel(world, self.topology, checker=checker)
        self._infos: Dict[int, ProbeInfo] = {}
        for host in world.hosts:
            if host.kind in (HostKind.ANCHOR, HostKind.PROBE):
                self._infos[host.host_id] = self._info_for(host)
        self._mesh_cache: Optional[Tuple[List[int], np.ndarray]] = None

    def _info_for(self, host: Host) -> ProbeInfo:
        seed = self.world.config.seed
        if host.kind is HostKind.ANCHOR:
            pps = rand.uniform((seed, "pps", host.host_id), 200.0, 400.0)
        else:
            pps = rand.uniform((seed, "pps", host.host_id), 4.0, 12.0)
        return ProbeInfo(
            probe_id=host.host_id,
            address=host.ip,
            location=host.recorded_location,
            asn=host.asn,
            is_anchor=host.kind is HostKind.ANCHOR,
            probing_rate_pps=pps,
        )

    # --- metadata ---------------------------------------------------------------

    def probe_infos(self, anchors_only: bool = False) -> List[ProbeInfo]:
        """Metadata of every vantage point (anchors first, then probes)."""
        infos = sorted(self._infos.values(), key=lambda info: info.probe_id)
        if anchors_only:
            return [info for info in infos if info.is_anchor]
        return infos

    def probe_info(self, probe_id: int) -> ProbeInfo:
        """Metadata of one vantage point.

        Raises:
            MeasurementError: for unknown probe ids.
        """
        info = self._infos.get(probe_id)
        if info is None:
            raise MeasurementError(f"unknown probe id {probe_id}")
        return info

    # --- measurement execution -----------------------------------------------------

    def _charge_and_wait(
        self,
        measurement_count: int,
        credits_per_measurement: int,
        kind: str,
        ledger: Optional[CreditLedger],
        clock: Optional[SimClock],
        wait_key: rand.Key,
        specs: int = 1,
    ) -> None:
        """Account for a measurement batch: credits and completion time.

        ``measurement_count`` is the number of (probe, target) results (what
        credits are charged for); ``specs`` is the number of measurement
        specifications — one per target — which is what bounds concurrency:
        a single spec can fan out to a thousand probes at once.
        """
        if self.obs.enabled:
            self.obs.event(
                _ev.MEASUREMENT_SCHEDULED,
                t_s=clock.now_s if clock is not None else 0.0,
                op=kind,
                measurements=measurement_count,
                specs=specs,
                credits=credits_per_measurement * measurement_count,
            )
            self.obs.count(f"atlas.{kind}.measurements", measurement_count)
            self.obs.count("atlas.api_calls")
        if ledger is not None:
            ledger.charge(
                credits_per_measurement * measurement_count, kind, measurement_count
            )
        if clock is not None and measurement_count > 0:
            waves = -(-max(specs, 1) // MAX_CONCURRENT_MEASUREMENTS)
            low, high = RESULT_LATENCY_RANGE_S
            wait = API_OVERHEAD_S + waves * rand.uniform(wait_key, low, high)
            clock.advance(wait, "atlas-api")
            if self.obs.enabled:
                self.obs.observe("atlas.result_wait_s", wait)

    def _obs_executed(
        self, op: str, clock: Optional[SimClock], answered: int, total: int
    ) -> None:
        """Record one delivered measurement batch (answered/total results)."""
        self.obs.event(
            _ev.MEASUREMENT_EXECUTED,
            t_s=clock.now_s if clock is not None else 0.0,
            op=op,
            answered=answered,
            total=total,
        )
        self.obs.count(f"atlas.{op}.answered", answered)
        self.obs.count(f"atlas.{op}.silent", total - answered)

    # --- fault hooks -------------------------------------------------------------

    def _fault_window(self, clock: Optional[SimClock]) -> int:
        """Churn window at request time (0 without a clock or fault layer)."""
        if self.faults is None or clock is None:
            return 0
        return self.faults.window_at(clock.now_s)

    def _fault_admission(self, credits: int) -> Optional[int]:
        """Account-level admission: allocate a call index, check the budget.

        Raises:
            CreditExhaustedError: when the fault plan's account budget
                cannot honour the charge.
        """
        if self.faults is None:
            return None
        index = self.faults.next_call()
        self.faults.check_credits(credits)
        return index

    def _fault_outcome(self, op: str, index: Optional[int], clock: Optional[SimClock]) -> None:
        """Draw the call's API fate: typed failure, late delivery, or ok.

        Runs *after* :meth:`_charge_and_wait`, so a failed call has already
        charged the ledger and clock — retried attempts are not free, which
        keeps Fig. 6c-style time/credit accounting honest.
        """
        if self.faults is None or index is None:
            return
        error = self.faults.api_error(op, index)
        if error is not None:
            if clock is not None and error.cost_s > 0:
                clock.advance(error.cost_s, "atlas-faults")
            raise error
        if clock is not None:
            delay = self.faults.result_delay(op, index)
            if delay > 0:
                clock.advance(delay, "atlas-faults")

    def ping(
        self,
        probe_ids: Sequence[int],
        target_ip: str,
        packets: int = 3,
        seq: int = 0,
        ledger: Optional[CreditLedger] = None,
        clock: Optional[SimClock] = None,
    ) -> Dict[int, Optional[float]]:
        """Ping a target from several probes; returns min RTT per probe.

        Unknown or unresponsive targets yield ``None`` for every probe (the
        measurement still costs credits — timeouts are not free).

        Raises:
            AtlasApiError: when the fault layer fails the API call (the
                attempt has already been charged).
            CreditExhaustedError: when a ledger or account budget runs out.
        """
        window = self._fault_window(clock)
        index = self._fault_admission(CREDIT_COST_PER_PING_PACKET * packets * len(probe_ids))
        self._charge_and_wait(
            len(probe_ids),
            CREDIT_COST_PER_PING_PACKET * packets,
            "ping",
            ledger,
            clock,
            ("ping-wait", seq, target_ip),
        )
        self._fault_outcome("ping", index, clock)
        results = self.execute_ping(
            probe_ids, target_ip, packets=packets, seq=seq, window=window
        )
        if self.obs.enabled:
            answered = sum(1 for rtt in results.values() if rtt is not None)
            self._obs_executed("ping", clock, answered, len(results))
        return results

    def execute_ping(
        self,
        probe_ids: Sequence[int],
        target_ip: str,
        packets: int = 3,
        seq: int = 0,
        window: int = 0,
    ) -> Dict[int, Optional[float]]:
        """Measurement execution only: no accounting, no API-fault draws.

        The delivery path for already-scheduled measurements — the async
        :class:`~repro.atlas.api.MeasurementApi` counts and charges at
        schedule time, then fetches results through here, so a measurement
        can never be double-counted. Probe churn and packet loss *do*
        apply: they are properties of the measurement, not of the API call.
        """
        target = self.world.try_host(target_ip)
        results: Dict[int, Optional[float]] = {}
        for probe_id in probe_ids:
            if target is None:
                results[probe_id] = None
                continue
            self.probe_info(probe_id)  # validate
            if self._measurement_failed("ping", probe_id, target_ip, seq, window):
                results[probe_id] = None
                continue
            source = self.world.host_by_id(probe_id)
            if not source.responsive:
                results[probe_id] = None  # disconnected probe: session is down
                continue
            observation = self.latency.ping(source, target, packets=packets, seq=seq)
            results[probe_id] = observation.min_rtt_ms
        return results

    def _measurement_failed(
        self, kind: str, probe_id: int, target_ip: str, seq: int, window: int
    ) -> bool:
        """Whether churn or loss silences one (probe, target) measurement."""
        if self.faults is None:
            return False
        return self.faults.probe_disconnected(probe_id, window) or self.faults.measurement_lost(
            kind, target_ip, seq, probe_id
        )

    def ping_matrix(
        self,
        probe_ids: Sequence[int],
        target_ips: Sequence[str],
        packets: int = 3,
        seq: int = 0,
        ledger: Optional[CreditLedger] = None,
        clock: Optional[SimClock] = None,
    ) -> np.ndarray:
        """Min-RTT matrix (probes x targets); NaN marks missing responses.

        The vectorised path of the engine, at campaign scale: the same
        loss pattern as per-pair :meth:`ping` calls, and RTTs within a few
        ulps of theirs (see
        :meth:`~repro.latency.model.LatencyModel.bulk_min_rtt`).

        Raises:
            AtlasApiError: when the fault layer fails the API call (the
                attempt has already been charged).
            CreditExhaustedError: when a ledger or account budget runs out.
        """
        window = self._fault_window(clock)
        ids = np.asarray(list(probe_ids), dtype=np.int64)
        for probe_id in ids:
            self.probe_info(int(probe_id))  # validate
        index = self._fault_admission(
            CREDIT_COST_PER_PING_PACKET * packets * len(ids) * len(target_ips)
        )
        self._charge_and_wait(
            len(ids) * len(target_ips),
            CREDIT_COST_PER_PING_PACKET * packets,
            "ping",
            ledger,
            clock,
            ("matrix-wait", seq, len(target_ips)),
            specs=len(target_ips),
        )
        self._fault_outcome("ping", index, clock)
        matrix = self.execute_ping_matrix(
            ids, target_ips, packets=packets, seq=seq, window=window
        )
        if self.obs.enabled:
            self._obs_executed(
                "ping", clock, int((~np.isnan(matrix)).sum()), int(matrix.size)
            )
        return matrix

    def execute_ping_matrix(
        self,
        probe_ids: Sequence[int],
        target_ips: Sequence[str],
        packets: int = 3,
        seq: int = 0,
        window: int = 0,
    ) -> np.ndarray:
        """Matrix execution only (see :meth:`execute_ping`): churn and loss
        apply per cell, accounting does not."""
        ids = np.asarray(list(probe_ids), dtype=np.int64)
        matrix = np.full((ids.shape[0], len(target_ips)), np.nan)
        for column, target_ip in enumerate(target_ips):
            target = self.world.try_host(target_ip)
            if target is None:
                continue
            matrix[:, column] = self.latency.bulk_min_rtt(
                ids, target, packets=packets, seq=seq
            )
            if self.faults is not None:
                lost = self.faults.loss_mask("ping", target_ip, seq, ids)
                if lost.any():
                    matrix[lost, column] = np.nan
        if self.faults is not None:
            down = self.faults.disconnected_mask(ids, window)
            if down.any():
                matrix[down, :] = np.nan
        offline = ~self.world.host_responsive[ids]
        if offline.any():
            matrix[offline, :] = np.nan  # disconnected probes answer nothing
        return matrix

    def traceroute(
        self,
        probe_id: int,
        target_ip: str,
        seq: int = 0,
        ledger: Optional[CreditLedger] = None,
        clock: Optional[SimClock] = None,
    ) -> Optional[TraceObservation]:
        """Run one traceroute; ``None`` for targets outside the routed space.

        Raises:
            AtlasApiError: when the fault layer fails the API call (the
                attempt has already been charged).
            CreditExhaustedError: when a ledger or account budget runs out.
        """
        window = self._fault_window(clock)
        index = self._fault_admission(CREDIT_COST_PER_TRACEROUTE)
        self._charge_and_wait(
            1,
            CREDIT_COST_PER_TRACEROUTE,
            "traceroute",
            ledger,
            clock,
            ("tr-wait", seq, probe_id, target_ip),
        )
        self._fault_outcome("traceroute", index, clock)
        observation = self._execute_traceroute(probe_id, target_ip, seq=seq, window=window)
        if self.obs.enabled:
            self._obs_executed("traceroute", clock, int(observation is not None), 1)
        return observation

    def _execute_traceroute(
        self, probe_id: int, target_ip: str, seq: int = 0, window: int = 0
    ) -> Optional[TraceObservation]:
        """One traceroute, execution only (churn/loss apply)."""
        target = self.world.try_host(target_ip)
        if target is None:
            return None
        self.probe_info(probe_id)  # validate
        if self._measurement_failed("traceroute", probe_id, target_ip, seq, window):
            return None
        source = self.world.host_by_id(probe_id)
        if not source.responsive:
            return None  # disconnected probe: session is down
        return self.latency.traceroute(source, target, seq=seq)

    def traceroute_batch(
        self,
        probe_ids: Sequence[int],
        target_ips: Sequence[str],
        seq: int = 0,
        ledger: Optional[CreditLedger] = None,
        clock: Optional[SimClock] = None,
    ) -> Dict[str, Dict[int, Optional[TraceObservation]]]:
        """Traceroutes from every probe to every target, as one API batch.

        One measurement specification per target (all probes fan out in
        parallel), so a batch completes in ``ceil(targets / concurrency)``
        result waves rather than one wait per traceroute.

        Returns:
            ``{target_ip: {probe_id: observation-or-None}}``.

        Raises:
            AtlasApiError: when the fault layer fails the API call (the
                attempt has already been charged).
            CreditExhaustedError: when a ledger or account budget runs out.
        """
        window = self._fault_window(clock)
        index = self._fault_admission(
            CREDIT_COST_PER_TRACEROUTE * len(probe_ids) * len(target_ips)
        )
        self._charge_and_wait(
            len(probe_ids) * len(target_ips),
            CREDIT_COST_PER_TRACEROUTE,
            "traceroute",
            ledger,
            clock,
            ("trbatch-wait", seq, len(target_ips), len(probe_ids)),
            specs=len(target_ips),
        )
        self._fault_outcome("traceroute", index, clock)
        results = self.execute_traceroute_batch(probe_ids, target_ips, seq=seq, window=window)
        if self.obs.enabled:
            answered = sum(
                1
                for per_probe in results.values()
                for observation in per_probe.values()
                if observation is not None
            )
            self._obs_executed(
                "traceroute", clock, answered, len(probe_ids) * len(target_ips)
            )
        return results

    def execute_traceroute_batch(
        self,
        probe_ids: Sequence[int],
        target_ips: Sequence[str],
        seq: int = 0,
        window: int = 0,
    ) -> Dict[str, Dict[int, Optional[TraceObservation]]]:
        """Batch traceroute execution only (see :meth:`execute_ping`).

        One kernel call (:meth:`~repro.latency.model.LatencyModel.traceroutes`)
        computes every traceroute the batch could deliver: known probes
        with a live session, to targets in the routed space. The per-pair
        steps then run in (target, probe) order — probe validation, the
        churn/loss draw, the session check, and the armed checker — and
        decide which results are delivered, so fault draws, checks and
        their events interleave exactly as with one traceroute at a time.
        """
        targets = [self.world.try_host(target_ip) for target_ip in target_ips]
        sources = {
            probe_id: self.world.host_by_id(probe_id)
            for probe_id in probe_ids
            if probe_id in self._infos
        }
        pairs: List[Tuple[Host, Host]] = []
        pair_of: Dict[Tuple[str, int], int] = {}
        for target_ip, target in zip(target_ips, targets):
            if target is None:
                continue
            for probe_id in probe_ids:
                source = sources.get(probe_id)
                if source is not None and source.responsive:
                    pair_of[(target_ip, probe_id)] = len(pairs)
                    pairs.append((source, target))
        traces = self.latency.traceroutes(pairs, seq=seq)
        results: Dict[str, Dict[int, Optional[TraceObservation]]] = {}
        for target_ip, target in zip(target_ips, targets):
            per_probe: Dict[int, Optional[TraceObservation]] = {}
            for probe_id in probe_ids:
                if target is None:
                    per_probe[probe_id] = None
                    continue
                self.probe_info(probe_id)  # validate
                if self._measurement_failed("traceroute", probe_id, target_ip, seq, window):
                    per_probe[probe_id] = None
                    continue
                source = sources[probe_id]
                if not source.responsive:
                    per_probe[probe_id] = None  # disconnected probe
                    continue
                trace = traces[pair_of[(target_ip, probe_id)]]
                self.latency.check_traceroute(source, target, seq, trace)
                per_probe[probe_id] = trace
            results[target_ip] = per_probe
        return results

    # --- platform datasets -------------------------------------------------------

    def anchor_mesh(self) -> Tuple[List[int], np.ndarray]:
        """The anchor-to-anchor meshed ping measurements.

        RIPE Atlas continuously runs this mesh; it is a downloadable dataset
        rather than a user-paid measurement, so no ledger is involved. The
        matrix entry ``[i, j]`` is the min RTT from anchor i to anchor j
        (NaN on the diagonal).
        """
        if self._mesh_cache is None:
            anchors = [info for info in self.probe_infos() if info.is_anchor]
            ids = [info.probe_id for info in anchors]
            targets = [self.world.host_by_id(pid) for pid in ids]
            matrix = self.latency.min_rtt_matrix(ids, targets, seq=999)
            np.fill_diagonal(matrix, np.nan)
            self._mesh_cache = (ids, matrix)
        ids, matrix = self._mesh_cache
        return list(ids), matrix.copy()

    def seed_anchor_mesh(self, ids: Sequence[int], matrix: np.ndarray) -> None:
        """Install a precomputed anchor mesh (artifact-cache warm start).

        The mesh is a pure function of the world config, so replaying a
        cached copy is byte-identical to measuring it; subsequent
        :meth:`anchor_mesh` calls return the seeded data without touching
        the latency engine.
        """
        self._mesh_cache = (
            [int(anchor_id) for anchor_id in ids],
            np.array(matrix, dtype=float),
        )
