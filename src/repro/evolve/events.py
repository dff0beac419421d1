"""Typed churn events and the seeded streams that produce them.

The Internet underneath a geolocation dataset never holds still. Gouel
et al.'s longitudinal study (PAPERS.md) measures ~5% of address blocks
moving per weekly database revision, and the RIPE Atlas fleet itself
connects and disconnects continuously ("Day in the Life of RIPE Atlas").
This module gives the simulated world the same weather, as a *closed*
taxonomy of churn events:

``prefix-reassign``
    An address block (/24) is sold or re-announced and every host in it
    physically moves to a new city. Anchors only move this way — an
    anchor is infrastructure that goes where its block goes.
``host-migrate``
    One probe host moves to a new city (its volunteer host relocated).
``probe-session``
    A probe connects or disconnects. Disconnected probes answer nothing
    until they reconnect (the platform masks their measurement rows).

Every draw is counter-keyed off the *base world's seed* — the event
stream for revision ``k`` is a pure function of ``(seed, k)`` plus the
previous snapshot's state, so the same seed replays the same churn
byte-for-byte, serial or parallel. Events within a revision are emitted
in a canonical order (prefix reassignments by block, then migrations by
host id, then sessions by host id) and applied in that order, which
makes "replay events 0..k" a deterministic recipe for snapshot ``k``
(pinned by the golden and property tests in ``tests/test_evolve.py``).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro import rand
from repro.errors import ConfigurationError
from repro.net.addressing import int_to_ip, ip_to_int
from repro.world.hosts import Host, HostKind
from repro.world.world import World

#: A /24 block (with every host in it) reassigned to a new city.
EVENT_PREFIX_REASSIGN = "prefix-reassign"

#: One probe host migrated to a new city.
EVENT_HOST_MIGRATE = "host-migrate"

#: A probe connect/disconnect session boundary.
EVENT_PROBE_SESSION = "probe-session"

EVENT_KINDS = (EVENT_PREFIX_REASSIGN, EVENT_HOST_MIGRATE, EVENT_PROBE_SESSION)

_PREFIX_MASK = 0xFFFFFF00

#: Spread of the fresh position draw inside the destination city, matching
#: the builder's anchor placement discipline (hosts move to real places,
#: not city centroids).
_RELOCATE_SIGMA = 0.35


@dataclass(frozen=True)
class EvolutionConfig:
    """Churn rates for one evolution run; validated at construction.

    Attributes:
        revisions: number of churned revisions after the base snapshot
            (snapshot 0 is always the unmodified base world).
        prefix_move_share: per-revision probability that an anchor /24
            block is reassigned — Gouel et al.'s ~5%/revision default.
        migration_share: per-revision probability that a probe migrates.
        probe_session_share: per-revision probability that a probe's
            session flips (connect <-> disconnect).
        geodb_refresh_rate: per-revision probability that a geolocation
            provider refreshes its entry for a prefix (see
            :mod:`repro.geodb.revisions`); everything not refreshed after
            a move is a stale entry.
    """

    revisions: int = 4
    prefix_move_share: float = 0.05
    migration_share: float = 0.02
    probe_session_share: float = 0.08
    geodb_refresh_rate: float = 0.6

    def __post_init__(self) -> None:
        if self.revisions < 0:
            raise ConfigurationError(f"revisions must be >= 0: {self.revisions}")
        for name in (
            "prefix_move_share",
            "migration_share",
            "probe_session_share",
            "geodb_refresh_rate",
        ):
            share = getattr(self, name)
            if not 0.0 <= share <= 1.0:
                raise ConfigurationError(f"{name} must be in [0, 1]: {share}")


@dataclass(frozen=True)
class ChurnEvent:
    """One churn event; unused fields stay ``None`` per kind.

    Attributes:
        revision: the revision this event belongs to (>= 1).
        kind: one of :data:`EVENT_KINDS`.
        prefix: dotted /24 base for ``prefix-reassign``.
        host_id: the moving/toggling host for migrate/session events.
        city_id: destination city for reassignments and migrations.
        connected: the probe's *new* session state for ``probe-session``.
    """

    revision: int
    kind: str
    prefix: Optional[str] = None
    host_id: Optional[int] = None
    city_id: Optional[int] = None
    connected: Optional[bool] = None

    def __post_init__(self) -> None:
        if self.kind not in EVENT_KINDS:
            raise ConfigurationError(f"unknown churn event kind: {self.kind!r}")

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready form, omitting unused fields (digest + provenance)."""
        payload: Dict[str, object] = {"revision": self.revision, "kind": self.kind}
        for field in ("prefix", "host_id", "city_id", "connected"):
            value = getattr(self, field)
            if value is not None:
                payload[field] = value
        return payload


def prefix_base(ip: str) -> str:
    """Dotted /24 base of an address (``"10.1.2.57"`` → ``"10.1.2.0"``)."""
    return int_to_ip(ip_to_int(ip) & _PREFIX_MASK)


def anchor_prefixes(world: World) -> Tuple[str, ...]:
    """Sorted /24 bases containing at least one anchor — the blocks that
    can be reassigned (targets are anchors; their churn drives drift)."""
    bases = {
        ip_to_int(h.ip) & _PREFIX_MASK
        for h in world.hosts[: world.static_host_count]
        if h.kind is HostKind.ANCHOR
    }
    return tuple(int_to_ip(base) for base in sorted(bases))


def _destination_city(key: rand.Key, current_city: int, n_cities: int) -> int:
    """A uniformly drawn city id guaranteed different from the current one."""
    if n_cities < 2:
        raise ConfigurationError("cannot reassign in a world with fewer than 2 cities")
    drawn = rand.randint(key, 0, n_cities - 1)
    return drawn + 1 if drawn >= current_city else drawn


def generate_events(
    previous: World,
    config: EvolutionConfig,
    revision: int,
    connected: Dict[int, bool],
) -> Tuple[ChurnEvent, ...]:
    """The canonical event stream for one revision.

    Draws are keyed ``(seed, "evolve", <kind>, revision, <identity>)`` —
    pure functions of the base seed, never of iteration order — and the
    result tuple is emitted in the canonical order described in the
    module docstring. ``previous`` is the revision ``k-1`` snapshot world
    (destination-city draws exclude the *current* city, which evolves);
    ``connected`` maps probe host id to its live session state, so
    session events always record the *new* state of a toggle.
    """
    if revision < 1:
        raise ConfigurationError(f"events exist only for revisions >= 1: {revision}")
    seed = previous.config.seed
    hosts = list(previous.hosts)[: previous.static_host_count]
    by_prefix: Dict[str, List[Host]] = {}
    for host in hosts:
        by_prefix.setdefault(prefix_base(host.ip), []).append(host)
    n_cities = len(previous.cities)

    events: List[ChurnEvent] = []
    moved_hosts = set()
    for base in anchor_prefixes(previous):
        key_base = ip_to_int(base)
        if not rand.chance(
            (seed, "evolve", "prefix", revision, key_base), config.prefix_move_share
        ):
            continue
        block = by_prefix[base]
        current_city = block[0].city_id
        city_id = _destination_city(
            (seed, "evolve", "prefix-city", revision, key_base), current_city, n_cities
        )
        events.append(
            ChurnEvent(
                revision=revision,
                kind=EVENT_PREFIX_REASSIGN,
                prefix=base,
                city_id=city_id,
            )
        )
        moved_hosts.update(h.host_id for h in block)

    probes = [h for h in hosts if h.kind is HostKind.PROBE]
    for host in probes:
        if host.host_id in moved_hosts:
            continue  # its whole block already moved this revision
        if not rand.chance(
            (seed, "evolve", "migrate", revision, host.host_id), config.migration_share
        ):
            continue
        city_id = _destination_city(
            (seed, "evolve", "migrate-city", revision, host.host_id),
            host.city_id,
            n_cities,
        )
        events.append(
            ChurnEvent(
                revision=revision,
                kind=EVENT_HOST_MIGRATE,
                host_id=host.host_id,
                city_id=city_id,
            )
        )

    for host in probes:
        if rand.chance(
            (seed, "evolve", "session", revision, host.host_id),
            config.probe_session_share,
        ):
            events.append(
                ChurnEvent(
                    revision=revision,
                    kind=EVENT_PROBE_SESSION,
                    host_id=host.host_id,
                    connected=not connected[host.host_id],
                )
            )
    return tuple(events)


def _relocated(host: Host, world: World, city_id: int, revision: int) -> Host:
    """The host after a move: fresh position draw in the destination city.

    Moves repair deliberate mislocations — whoever re-deployed the
    machine registered where it actually landed — which is itself a
    source of drift: the sanitization verdicts of the base snapshot go
    stale as flagged hosts move to honestly-recorded positions.
    """
    seed = world.config.seed
    point = world.cities[city_id].random_point(
        (seed, "evolve", "loc", revision, host.host_id), sigma_scale=_RELOCATE_SIGMA
    )
    return dataclasses.replace(
        host,
        true_location=point,
        recorded_location=point,
        city_id=city_id,
        mislocated=False,
    )


def apply_events(
    previous: World, events: Sequence[ChurnEvent]
) -> List[Host]:
    """The revision's host list: ``previous``'s hosts with events applied.

    Pure with respect to the inputs — the same previous world and event
    tuple always produce the same host list (replay determinism). Host
    ids, addresses, kinds, ASNs, and last-mile delays are invariant under
    churn; only positions, city assignments, mislocation flags, and
    session state change.

    Hosts are grouped by /24 once, so a revision costs one address parse
    per host plus its events, not a rescan of every host per reassigned
    block; each block's members still relocate in host-list order.
    """
    hosts = [
        dataclasses.replace(h) for h in list(previous.hosts)[: previous.static_host_count]
    ]
    by_id = {h.host_id: i for i, h in enumerate(hosts)}
    by_prefix: Dict[str, List[int]] = {}
    for i, host in enumerate(hosts):
        by_prefix.setdefault(prefix_base(host.ip), []).append(i)
    for event in events:
        if event.kind == EVENT_PREFIX_REASSIGN:
            for i in by_prefix.get(event.prefix, ()):
                hosts[i] = _relocated(hosts[i], previous, event.city_id, event.revision)
        elif event.kind == EVENT_HOST_MIGRATE:
            i = by_id[event.host_id]
            hosts[i] = _relocated(hosts[i], previous, event.city_id, event.revision)
        else:  # EVENT_PROBE_SESSION
            i = by_id[event.host_id]
            hosts[i] = dataclasses.replace(hosts[i], responsive=event.connected)
    return hosts


def event_stream_digest(events: Sequence[ChurnEvent]) -> str:
    """SHA-256 of the canonical JSON encoding of an event stream."""
    payload = json.dumps([e.to_dict() for e in events], sort_keys=True)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()
