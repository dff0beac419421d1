"""RTT and traceroute simulation.

Delay decomposition for one probe packet from host A to host B::

    rtt = 2 * path_km(A, B) * fiber(A, B) / SOI_KM_PER_MS   # propagation
        + last_mile(A) + last_mile(B)                        # access links
        + jitter                                             # queueing

* ``path_km`` is the routed (waypoint) distance from :class:`Topology`,
  always >= the direct great-circle distance;
* ``fiber`` is a per-pair factor in ``[fiber_min, fiber_max]`` modelling
  cable slack and slower segments (symmetric, stable across measurements);
* ``jitter`` is exponential per packet; a ping takes the minimum over its
  packets, as real measurement platforms report.

Traceroute hop timestamps add two extra noise terms observed in practice:
Gaussian interface noise, and occasional large "ICMP slow path" spikes on
intermediate routers (control-plane rate limiting). These spikes are what
makes the street level D1+D2 delay differences noisy and often negative
(paper §5.2.3, Figure 6a, and appendix B).

Scalar and bulk paths share keys and formulas. ``bulk_min_rtt`` draws
the same uniforms as per-pair :meth:`LatencyModel.ping` calls, bit for
bit, but finishes the jitter with ``np.log``, which differs from
``math.log`` in the last bit on some inputs: its RTTs match per-pair pings
to within a few ulps (property-tested at 1e-9 ms), not bitwise. The
traceroute kernel (:meth:`LatencyModel.traceroutes`) is bitwise the
per-hop scalar loop that :mod:`repro.check.oracles` keeps as reference:
its hashes and uniforms are exact integer and float arrays, and every
``log``/``cos``/``sqrt`` stays libm's, per element.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import rand
from repro.check.invariants import NULL_CHECKER
from repro.geo.coords import bulk_haversine_km
from repro.latency.speed import SOI_KM_PER_MS
from repro.topology.graph import HostNetParams, Topology
from repro.topology.routing import build_route
from repro.world.hosts import Host
from repro.world.world import World


@dataclass(frozen=True)
class PingObservation:
    """Result of one ping measurement (a burst of packets).

    Attributes:
        src_ip: pinger address.
        dst_ip: target address.
        rtts_ms: per-packet RTTs; ``None`` entries are lost packets.
        min_rtt_ms: minimum over received packets; ``None`` if none came
            back (lost or unresponsive target).
    """

    src_ip: str
    dst_ip: str
    rtts_ms: Tuple[Optional[float], ...]
    min_rtt_ms: Optional[float]

    @property
    def responded(self) -> bool:
        """Whether at least one packet came back."""
        return self.min_rtt_ms is not None


@dataclass(frozen=True)
class TraceHop:
    """One traceroute hop: the responding address and its RTT."""

    ip: str
    rtt_ms: float


@dataclass(frozen=True)
class TraceObservation:
    """Result of one traceroute measurement."""

    src_ip: str
    dst_ip: str
    hops: Tuple[TraceHop, ...]
    reached: bool

    def rtt_to(self, hop_ip: str) -> Optional[float]:
        """RTT of the first hop with a given address, if present."""
        for hop in self.hops:
            if hop.ip == hop_ip:
                return hop.rtt_ms
        return None

    @property
    def destination_rtt_ms(self) -> Optional[float]:
        """RTT of the destination hop, if the destination answered."""
        if self.reached and self.hops:
            return self.hops[-1].rtt_ms
        return None


class LatencyModel:
    """Computes what measurements between world hosts observe.

    Args:
        world: the simulated world.
        topology: the routing topology over it.
        checker: optional :class:`~repro.check.InvariantChecker`. When
            armed, every produced measurement is verified against the
            physics invariants (``rtt.soi_bound`` on ping paths,
            ``trace.hop_delta`` plus the destination SOI bound on
            traceroutes). The default :data:`~repro.check.NULL_CHECKER`
            costs one attribute read per call.
    """

    def __init__(
        self, world: World, topology: Topology, checker=NULL_CHECKER
    ) -> None:
        self.world = world
        self.topology = topology
        self.checker = checker
        config = world.config
        self._fiber_min = config.fiber_factor_min
        self._fiber_span = config.fiber_factor_max - config.fiber_factor_min
        self._jitter_mean = config.jitter_mean_ms
        self._loss_rate = config.packet_loss_rate
        self._hop_noise_std = config.hop_noise_std_ms
        self._spike_probability = config.hop_spike_probability
        self._spike_mean = config.hop_spike_mean_ms
        self._seed = config.seed

    # --- shared delay components -------------------------------------------

    def fiber_factor(self, a_id: int, b_id: int) -> float:
        """Per-pair propagation slowdown factor (symmetric, stable)."""
        low, high = (a_id, b_id) if a_id <= b_id else (b_id, a_id)
        pk = rand.pair_key(low, high)
        return self._fiber_min + self._fiber_span * rand.uniform(("fiber", pk))

    def base_rtt_ms(self, src: HostNetParams, dst: HostNetParams) -> float:
        """Deterministic part of the RTT (no jitter, no loss)."""
        path = self.topology.path_km(src, dst)
        fiber = self.fiber_factor(src.host_id, dst.host_id)
        return (
            2.0 * path * fiber / SOI_KM_PER_MS + src.last_mile_ms + dst.last_mile_ms
        )

    # --- ping ------------------------------------------------------------------

    def ping(
        self, src: Host, dst: Host, packets: int = 3, seq: int = 0
    ) -> PingObservation:
        """Simulate a ping burst from ``src`` to ``dst``.

        Args:
            src: pinging host.
            dst: target host; if unresponsive, every packet times out.
            packets: burst size (RIPE Atlas default is 3).
            seq: measurement sequence number; distinct values give
                independent jitter (repeated measurements).
        """
        if packets < 1:
            raise ValueError(f"packets must be positive: {packets}")
        if not dst.responsive:
            return PingObservation(src.ip, dst.ip, (None,) * packets, None)
        base = self.base_rtt_ms(
            self.topology.params_for(src), self.topology.params_for(dst)
        )
        low, high = sorted((src.host_id, dst.host_id))
        pk = rand.pair_key(low, high)
        rtts: List[Optional[float]] = []
        for packet in range(packets):
            if rand.uniform(("loss", seq, packet, pk)) < self._loss_rate:
                rtts.append(None)
                continue
            jitter = -self._jitter_mean * math.log(
                max(rand.uniform(("jit", seq, packet, pk)), 1e-12)
            )
            rtts.append(base + jitter)
        received = [rtt for rtt in rtts if rtt is not None]
        if self.checker.enabled and received:
            self.checker.check_soi_bound(
                received,
                src.true_location.distance_km(dst.true_location),
                f"ping {src.ip}->{dst.ip} seq={seq}",
            )
        return PingObservation(
            src.ip, dst.ip, tuple(rtts), min(received) if received else None
        )

    def bulk_min_rtt(
        self,
        src_host_ids: np.ndarray,
        dst: Host,
        packets: int = 3,
        seq: int = 0,
    ) -> np.ndarray:
        """Vectorised ping: min RTT from many *static* hosts to one host.

        Returns NaN where the target did not answer (unresponsive target or
        all packets lost). The same loss pattern as calling :meth:`ping`
        per source with the same ``packets`` and ``seq``, and RTTs within a
        few ulps of it: the jitter goes through ``np.log``, not libm's
        ``math.log``.
        """
        src_ids = np.asarray(src_host_ids, dtype=np.int64)
        count = src_ids.shape[0]
        if not dst.responsive:
            return np.full(count, np.nan)

        topo = self.topology
        dst_params = topo.params_for(dst)
        path = topo.bulk_path_km(
            topo.host_tail_km[src_ids],
            topo.host_uplink_km[src_ids],
            topo.host_hub_index[src_ids],
            self.world.host_city_ids[src_ids],
            self.world.host_asns[src_ids],
            dst_params,
        )
        low = np.minimum(src_ids, dst.host_id).astype(np.uint64)
        high = np.maximum(src_ids, dst.host_id).astype(np.uint64)
        pk = rand.bulk_pair_key(low, high)
        fiber = self._fiber_min + self._fiber_span * rand.bulk_uniform("fiber", pk)
        base = (
            2.0 * path * fiber / SOI_KM_PER_MS
            + self.world.host_last_mile[src_ids]
            + dst_params.last_mile_ms
        )
        best = np.full(count, np.nan)
        for packet in range(packets):
            lost = rand.bulk_uniform(("loss", seq, packet), pk) < self._loss_rate
            jitter = -self._jitter_mean * np.log(
                np.maximum(rand.bulk_uniform(("jit", seq, packet), pk), 1e-12)
            )
            rtt = np.where(lost, np.nan, base + jitter)
            best = np.fmin(best, rtt)
        if self.checker.enabled:
            self.checker.check_soi_bound(
                best,
                bulk_haversine_km(
                    self.world.host_true_lats[src_ids],
                    self.world.host_true_lons[src_ids],
                    dst.true_location.lat,
                    dst.true_location.lon,
                ),
                f"bulk_min_rtt dst={dst.ip} seq={seq}",
            )
        return best

    # --- traceroute -----------------------------------------------------------

    def traceroute(self, src: Host, dst: Host, seq: int = 0) -> TraceObservation:
        """Simulate a traceroute from ``src`` to ``dst``.

        Intermediate hops answer with ICMP TTL-exceeded, whose timestamps
        carry Gaussian noise plus occasional slow-path spikes; the
        destination answers like a ping packet. An unresponsive destination
        yields ``reached=False`` with the router hops still present. The
        batch of one of :meth:`traceroutes`, checked when the checker is
        armed.
        """
        observation = self.traceroutes([(src, dst)], seq=seq)[0]
        self.check_traceroute(src, dst, seq, observation)
        return observation

    def traceroutes(
        self, pairs: Sequence[Tuple[Host, Host]], seq: int = 0
    ) -> List[TraceObservation]:
        """Traceroutes for many (source, destination) pairs, as one kernel.

        Routes come from :func:`~repro.topology.routing.build_route`, pair
        by pair, with each host's network parameters resolved once per
        batch. Hop noise is drawn over all hops at once:
        :func:`repro.rand.bulk_hash` folds each key prefix
        (``("hopnoise", seq, hop)``, ``("spike", seq, hop)``,
        ``("spikemag", seq, hop)``, ``("jit", seq, 0)``, ``"fiber"``) once
        and mixes in the pair keys as an array. The hashes and the uniforms
        are exact; Box-Muller, the jitter and the spike magnitude then go
        through libm per element, so every observation is bitwise the
        per-hop loop's. Observations are not checked here; see
        :meth:`check_traceroute`.
        """
        if not pairs:
            return []
        topo = self.topology
        params: Dict[int, HostNetParams] = {}

        def net(host: Host) -> HostNetParams:
            found = params.get(host.host_id)
            if found is None:
                found = params[host.host_id] = topo.params_for(host)
            return found

        # Every route's router hops (all but the destination), flattened.
        hop_ips: List[List[str]] = []
        hop_pair: List[int] = []
        hop_index: List[int] = []
        hop_km: List[float] = []
        total_km: List[float] = []
        low_ids: List[int] = []
        high_ids: List[int] = []
        src_last_mile: List[float] = []
        dst_last_mile: List[float] = []
        for number, (src, dst) in enumerate(pairs):
            s = net(src)
            d = net(dst)
            route = build_route(topo, s, d, src.ip, dst.ip)
            routers = route.hops[:-1]
            hop_ips.append([hop.ip for hop in routers])
            hop_pair.extend([number] * len(routers))
            hop_index.extend(range(len(routers)))
            hop_km.extend([hop.cumulative_km for hop in routers])
            total_km.append(route.total_km)
            low, high = sorted((src.host_id, dst.host_id))
            low_ids.append(low)
            high_ids.append(high)
            src_last_mile.append(s.last_mile_ms)
            dst_last_mile.append(d.last_mile_ms)

        pk = rand.bulk_pair_key(
            np.array(low_ids, dtype=np.uint64), np.array(high_ids, dtype=np.uint64)
        )
        fiber = self._fiber_min + self._fiber_span * rand.bulk_uniform("fiber", pk)
        src_lm = np.array(src_last_mile)

        # Router hops: propagation + source last mile + noise + spike.
        pair_of = np.array(hop_pair, dtype=np.int64)
        index_of = np.array(hop_index, dtype=np.int64)
        propagation = 2.0 * np.array(hop_km) * fiber[pair_of] / SOI_KM_PER_MS
        noise = np.empty(len(hop_km))
        spike = np.zeros(len(hop_km))
        for index in range(int(index_of.max()) + 1):
            rows = np.flatnonzero(index_of == index)
            keys = pk[pair_of[rows]]
            u1, u2 = rand.bulk_normal_uniforms(("hopnoise", seq, index), keys)
            noise[rows] = [
                rand.normal_from_uniforms(a, b, 0.0, self._hop_noise_std)
                for a, b in zip(u1.tolist(), u2.tolist())
            ]
            spiking = rand.bulk_uniform(("spike", seq, index), keys) < self._spike_probability
            if spiking.any():
                magnitudes = rand.bulk_uniform(("spikemag", seq, index), keys[spiking])
                spike[rows[spiking]] = [
                    rand.exponential_from_uniform(u, self._spike_mean)
                    for u in magnitudes.tolist()
                ]
        router_rtts = np.maximum(
            propagation + src_lm[pair_of] + noise + spike, 0.01
        ).tolist()

        # Destination hop: a ping packet.
        jitter = [
            rand.exponential_from_uniform(u, self._jitter_mean)
            for u in rand.bulk_uniform(("jit", seq, 0), pk).tolist()
        ]
        dst_rtts = (
            2.0 * np.array(total_km) * fiber / SOI_KM_PER_MS
            + src_lm
            + np.array(dst_last_mile)
            + np.array(jitter)
        ).tolist()

        observations: List[TraceObservation] = []
        start = 0
        for number, (src, dst) in enumerate(pairs):
            ips = hop_ips[number]
            stop = start + len(ips)
            hops = [TraceHop(ip, rtt) for ip, rtt in zip(ips, router_rtts[start:stop])]
            start = stop
            if dst.responsive:
                hops.append(TraceHop(dst.ip, dst_rtts[number]))
            observations.append(
                TraceObservation(src.ip, dst.ip, tuple(hops), reached=dst.responsive)
            )
        return observations

    def check_traceroute(
        self, src: Host, dst: Host, seq: int, observation: TraceObservation
    ) -> None:
        """Armed-checker verification of one traceroute (``trace.hop_delta``,
        and ``rtt.soi_bound`` on a reached destination)."""
        if not self.checker.enabled:
            return
        self._check_trace(
            src,
            dst,
            seq,
            list(observation.hops),
            destination_rtt=observation.destination_rtt_ms,
        )

    def _check_trace(
        self,
        src: Host,
        dst: Host,
        seq: int,
        hops: List[TraceHop],
        destination_rtt: Optional[float],
    ) -> None:
        """Armed-checker verification of one traceroute's hop sequence."""
        if not self.checker.enabled or not hops:
            return
        context = f"traceroute {src.ip}->{dst.ip} seq={seq}"
        self.checker.check_trace_hops([hop.rtt_ms for hop in hops], context)
        if destination_rtt is not None:
            # The destination hop is a full round trip and must respect
            # the same physics floor as a ping.
            self.checker.check_soi_bound(
                destination_rtt,
                src.true_location.distance_km(dst.true_location),
                context,
            )

    # --- convenience -----------------------------------------------------------

    def min_rtt_matrix(
        self,
        src_host_ids: Sequence[int],
        dst_hosts: Sequence[Host],
        packets: int = 3,
        seq: int = 0,
    ) -> np.ndarray:
        """Min-RTT matrix (sources x targets); NaN marks missing responses."""
        src_ids = np.asarray(list(src_host_ids), dtype=np.int64)
        matrix = np.empty((src_ids.shape[0], len(dst_hosts)))
        for column, dst in enumerate(dst_hosts):
            matrix[:, column] = self.bulk_min_rtt(src_ids, dst, packets=packets, seq=seq)
        return matrix
