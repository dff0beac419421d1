"""The operational telemetry plane: wall-clock sketches, rates, SLOs.

:mod:`repro.obs` up to here is the *deterministic* plane: sim-clock spans
and byte-identical event/metric streams that CI pins bit for bit — which
is exactly why wall-clock latencies are kept off the
:class:`~repro.obs.observer.Observer`. But operating the resident serving
engine (:mod:`repro.serve`) needs the opposite: live, explicitly
non-deterministic insight into queue health, tail latency, per-tenant
behaviour, and error budgets. This module is that second plane, and the
two never mix:

* :class:`LatencySketch` — a fixed log-bucketed histogram (DDSketch-style)
  with a documented relative-error bound on every quantile. A forked
  campaign item sends its wall time back with its result and the parent
  records it here, so the plane never merges across processes;
* :class:`RollingCounter` — an events-per-second rate over a sliding
  wall-clock window (refusal spikes, request rates);
* :class:`FlightRecorder` — a fixed-capacity ring buffer of recent
  requests (tenant, target, outcome, per-stage timings) dumped on refusal
  spikes, invariant violations, or demand;
* :class:`SloPolicy` / :class:`SloStatus` — per-tenant latency targets
  with error-budget burn-rate accounting, evaluated from the sketches;
* :class:`LiveTelemetry` — the registry everything above hangs off, with
  :data:`NULL_LIVE` (a :class:`NullLive`) as the zero-cost default: hot
  paths guard live instrumentation behind ``if live.enabled:`` exactly
  like the deterministic plane guards behind ``if obs.enabled:``.

The separation is load-bearing and guard-tested
(``tests/test_serve_live.py``): attaching a live plane must leave the
deterministic event stream and metrics report bitwise unchanged, serial
and under ``REPRO_WORKERS``.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

#: Default relative-error bound for latency sketches (1% on any quantile
#: inside the tracked range; see :class:`LatencySketch`).
DEFAULT_RELATIVE_ERROR = 0.01

#: Default tracked latency range: 1 microsecond to 1 hour of wall time.
DEFAULT_SKETCH_MIN_S = 1e-6
DEFAULT_SKETCH_MAX_S = 3600.0


class LatencySketch:
    """A streaming quantile sketch over log-spaced buckets.

    DDSketch-style: bucket ``i`` covers ``(min_value * gamma**(i-1),
    min_value * gamma**i]`` with ``gamma = (1 + a) / (1 - a)`` for relative
    accuracy ``a``, and a quantile query returns the bucket's harmonic
    midpoint ``min_value * gamma**i * 2 / (gamma + 1)`` — within relative
    error ``a`` of the true sample quantile for any value inside
    ``[min_value, max_value]``. Bucket count is **fixed at construction**
    (two extra buckets catch underflow and overflow), so the memory bound
    is static (the bound is property-tested in ``tests/test_obs_live.py``).

    Values above ``max_value`` land in the overflow bucket (counted in
    :attr:`overflow`; their quantile estimate degrades to ``max_value``),
    values at or below ``min_value`` in the underflow bucket (estimate
    ``min_value``). Everything in between keeps the documented bound.
    """

    __slots__ = (
        "relative_error",
        "min_value",
        "max_value",
        "_gamma",
        "_log_gamma",
        "_n_range",
        "bins",
        "count",
        "total",
        "min_seen",
        "max_seen",
        "overflow",
    )

    def __init__(
        self,
        relative_error: float = DEFAULT_RELATIVE_ERROR,
        min_value: float = DEFAULT_SKETCH_MIN_S,
        max_value: float = DEFAULT_SKETCH_MAX_S,
    ) -> None:
        if not 0.0 < relative_error < 1.0:
            raise ValueError(f"relative_error must be in (0, 1): {relative_error}")
        if not 0.0 < min_value < max_value:
            raise ValueError(
                f"need 0 < min_value < max_value: {min_value}, {max_value}"
            )
        self.relative_error = float(relative_error)
        self.min_value = float(min_value)
        self.max_value = float(max_value)
        self._gamma = (1.0 + relative_error) / (1.0 - relative_error)
        self._log_gamma = math.log(self._gamma)
        self._n_range = int(
            math.ceil(math.log(max_value / min_value) / self._log_gamma)
        )
        # bins[0] = underflow, bins[1.._n_range] = log buckets,
        # bins[_n_range + 1] = overflow.
        self.bins = np.zeros(self._n_range + 2, dtype=np.int64)
        self.count = 0
        self.total = 0.0
        self.min_seen = math.inf
        self.max_seen = -math.inf
        self.overflow = 0

    # --- recording ---------------------------------------------------------------

    def _index(self, value: float) -> int:
        if value <= self.min_value:
            return 0
        if value > self.max_value:
            return self._n_range + 1
        index = int(math.ceil(math.log(value / self.min_value) / self._log_gamma))
        return min(max(index, 1), self._n_range)

    def add(self, value: float, count: int = 1) -> None:
        """Record one value ``count`` times (a whole coalesced batch shares
        its stage timings, so multiplicity is a first-class argument)."""
        if count < 1:
            return
        value = float(value)
        self.bins[self._index(value)] += count
        self.count += count
        self.total += value * count
        if value < self.min_seen:
            self.min_seen = value
        if value > self.max_seen:
            self.max_seen = value
        if value > self.max_value:
            self.overflow += count

    def add_many(self, values: Sequence[float]) -> None:
        """Vectorised :meth:`add` for a batch of per-request timings.

        Bitwise-equivalent to scalar :meth:`add` per element (the unit
        tests pin bin equality), but kept lean — this runs on the serve
        hot path once per coalesced batch, inside the per-request
        overhead budget the serve bench guards.
        """
        array = np.asarray(values, dtype=np.float64)
        if array.size == 0:
            return
        # Values <= min_value clamp to min_value, whose log-index is 0 —
        # the underflow bucket — so no separate underflow mask is needed
        # (and the clamp keeps np.log off non-positive input).
        indexes = np.ceil(
            np.log(np.maximum(array, self.min_value) / self.min_value)
            / self._log_gamma
        ).astype(np.int64)
        np.clip(indexes, 0, self._n_range, out=indexes)
        high = float(array.max())
        if high > self.max_value:
            over = array > self.max_value
            indexes[over] = self._n_range + 1
            self.overflow += int(over.sum())
        np.add.at(self.bins, indexes, 1)
        self.count += int(array.size)
        self.total += float(array.sum())
        self.min_seen = min(self.min_seen, float(array.min()))
        self.max_seen = max(self.max_seen, high)

    # --- queries -----------------------------------------------------------------

    @property
    def mean(self) -> float:
        """Exact arithmetic mean of the recorded values (NaN when empty)."""
        return self.total / self.count if self.count else math.nan

    def _bucket_value(self, index: int) -> float:
        if index <= 0:
            return self.min_value
        if index > self._n_range:
            return self.max_value
        return self.min_value * (self._gamma**index) * 2.0 / (self._gamma + 1.0)

    def quantile(self, q: float) -> float:
        """The value at quantile ``q`` in [0, 1], within the error bound.

        Returns NaN on an empty sketch. The estimate is exact-rank over
        the bucket counts.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1]: {q}")
        if self.count == 0:
            return math.nan
        rank = max(1, int(math.ceil(q * self.count)))
        cumulative = np.cumsum(self.bins)
        index = int(np.searchsorted(cumulative, rank))
        return self._bucket_value(index)

    def percentile(self, p: float) -> float:
        """:meth:`quantile` with ``p`` in [0, 100]."""
        return self.quantile(p / 100.0)

    def fraction_over(self, threshold: float) -> float:
        """Approximate fraction of recorded values above ``threshold``.

        Resolution is one bucket (so within the relative-error bound of
        the exact fraction's threshold); 0.0 on an empty sketch.
        """
        if self.count == 0:
            return 0.0
        boundary = self._index(threshold)
        return float(self.bins[boundary + 1 :].sum()) / self.count

    def as_dict(self) -> Dict[str, object]:
        """JSON-ready summary (quantiles, extrema, error bound, overflow)."""
        empty = self.count == 0
        return {
            "count": self.count,
            "max": None if empty else self.max_seen,
            "mean": None if empty else self.mean,
            "min": None if empty else self.min_seen,
            "overflow": self.overflow,
            "p50": None if empty else self.quantile(0.50),
            "p90": None if empty else self.quantile(0.90),
            "p95": None if empty else self.quantile(0.95),
            "p99": None if empty else self.quantile(0.99),
            "p999": None if empty else self.quantile(0.999),
            "relative_error": self.relative_error,
            "sum": self.total,
        }


class RollingCounter:
    """An event counter with an events-per-second rate over a wall window.

    A ring of per-slot counts: :meth:`add` lands in the current slot, and
    slots older than ``window_s`` are zeroed as time advances. ``clock``
    is injectable so the chaos tests can steer the window deterministically.
    """

    def __init__(
        self,
        window_s: float = 10.0,
        slots: int = 20,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if window_s <= 0 or slots < 1:
            raise ValueError(f"bad rolling window: {window_s}s / {slots} slots")
        self.window_s = float(window_s)
        self.slots = int(slots)
        self._slot_s = self.window_s / self.slots
        self._clock = clock
        self._counts = [0] * self.slots
        self._current = int(clock() / self._slot_s)
        self.total = 0

    def _advance(self) -> None:
        now_slot = int(self._clock() / self._slot_s)
        if now_slot == self._current:
            return
        passed = now_slot - self._current
        if passed >= self.slots or passed < 0:
            self._counts = [0] * self.slots
        else:
            for offset in range(1, passed + 1):
                self._counts[(self._current + offset) % self.slots] = 0
        self._current = now_slot

    def add(self, n: int = 1) -> None:
        """Count ``n`` events at the current wall time."""
        self._advance()
        self._counts[self._current % self.slots] += n
        self.total += n

    def in_window(self) -> int:
        """Events counted within the trailing window."""
        self._advance()
        return sum(self._counts)

    def rate(self) -> float:
        """Events per second over the trailing window."""
        return self.in_window() / self.window_s


@dataclass(frozen=True)
class FlightRecord:
    """One request's flight-recorder entry (wall-clock plane only).

    Attributes:
        request_id: the engine-assigned request id.
        tenant: requesting tenant.
        target: requested address.
        outcome: ``ok`` / ``no-estimate`` / a typed refusal reason.
        detail: refusal context (fault type, rate wait, budget overrun).
        batch: solving batch sequence number (``None`` for refusals).
        stages: ``(stage, wall_seconds)`` pairs — for answered requests
            ``queue``/``coalesce``/``kernel``/``memo``, for refusals the
            ``admission`` time alone.
        t_wall: wall timestamp of the record (``time.time``).
    """

    request_id: int
    tenant: str
    target: str
    outcome: str
    detail: str = ""
    batch: Optional[int] = None
    stages: Tuple[Tuple[str, float], ...] = ()
    t_wall: float = 0.0

    def to_dict(self) -> Dict[str, object]:
        return {
            "batch": self.batch,
            "detail": self.detail,
            "outcome": self.outcome,
            "request_id": self.request_id,
            "stages": {name: seconds for name, seconds in self.stages},
            "t_wall": self.t_wall,
            "target": self.target,
            "tenant": self.tenant,
        }


class FlightRecorder:
    """A fixed-capacity ring buffer of recent :class:`FlightRecord` entries.

    The buffer always holds the most recent ``capacity`` requests; a dump
    freezes the current contents into a typed document (kept on
    :attr:`dumps` and optionally written to disk by the owning
    :class:`LiveTelemetry`). Dumps are triggered on refusal-rate spikes,
    invariant violations, or demand — the post-mortem primitive the
    deterministic plane deliberately does not provide.
    """

    #: Dump document schema identifier (docs/OBSERVABILITY.md).
    SCHEMA = "flight-recorder-v1"

    def __init__(self, capacity: int = 512) -> None:
        if capacity < 1:
            raise ValueError(f"flight recorder capacity must be >= 1: {capacity}")
        self.capacity = int(capacity)
        self._ring: List[FlightRecord] = []
        self._next = 0
        self.recorded = 0
        self.dumps: List[Dict[str, object]] = []

    def record(self, record: FlightRecord) -> None:
        """Append one record, evicting the oldest at capacity."""
        if len(self._ring) < self.capacity:
            self._ring.append(record)
        else:
            self._ring[self._next] = record
        self._next = (self._next + 1) % self.capacity
        self.recorded += 1

    def __len__(self) -> int:
        return len(self._ring)

    def records(self) -> List[FlightRecord]:
        """Buffered records, oldest first."""
        if len(self._ring) < self.capacity:
            return list(self._ring)
        return self._ring[self._next :] + self._ring[: self._next]

    def dump(self, trigger: str = "demand") -> Dict[str, object]:
        """Freeze the buffer into a typed dump document."""
        document = {
            "schema": self.SCHEMA,
            "trigger": trigger,
            "recorded_total": self.recorded,
            "buffered": len(self._ring),
            "dumped_at_wall": time.time(),
            "records": [record.to_dict() for record in self.records()],
        }
        self.dumps.append(document)
        return document


@dataclass(frozen=True)
class SloPolicy:
    """A per-tenant service-level objective.

    A request is *bad* when it is refused or slower than
    ``latency_target_s``; the objective is that at most ``error_budget``
    of requests are bad. ``burn_rate`` in the evaluated
    :class:`SloStatus` is the classic ratio: bad fraction over budget —
    1.0 means the budget is being consumed exactly as provisioned,
    above 1.0 it will exhaust early.
    """

    name: str
    latency_target_s: float
    error_budget: float = 0.01

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("SLO name must be non-empty")
        if self.latency_target_s <= 0:
            raise ValueError(f"latency target must be positive: {self.latency_target_s}")
        if not 0.0 < self.error_budget < 1.0:
            raise ValueError(f"error budget must be in (0, 1): {self.error_budget}")


@dataclass(frozen=True)
class SloStatus:
    """One SLO evaluation: totals, bad fraction, budget burn."""

    policy: SloPolicy
    requests: int
    slow: int
    refused: int

    @property
    def bad(self) -> int:
        return self.slow + self.refused

    @property
    def bad_fraction(self) -> float:
        return self.bad / self.requests if self.requests else 0.0

    @property
    def burn_rate(self) -> float:
        """Bad fraction over budget; > 1.0 burns the budget early."""
        return self.bad_fraction / self.policy.error_budget

    @property
    def budget_remaining(self) -> float:
        """Fraction of the error budget left (clamped at 0)."""
        return max(0.0, 1.0 - self.burn_rate)

    @property
    def compliant(self) -> bool:
        return self.bad_fraction <= self.policy.error_budget

    def to_dict(self) -> Dict[str, object]:
        return {
            "bad_fraction": self.bad_fraction,
            "budget_remaining": self.budget_remaining,
            "burn_rate": self.burn_rate,
            "compliant": self.compliant,
            "error_budget": self.policy.error_budget,
            "latency_target_s": self.policy.latency_target_s,
            "name": self.policy.name,
            "refused": self.refused,
            "requests": self.requests,
            "slow": self.slow,
        }


class LiveTelemetry:
    """The live-plane registry: sketches, rolling rates, gauges, flights.

    One instance watches one process's operational state. Everything here
    reads the wall clock and is explicitly non-deterministic — nothing may
    ever be forwarded to the deterministic :class:`~repro.obs.Observer`
    (guard-tested). The registry is deliberately verb-compatible with the
    observer (``count`` / ``gauge`` / ``observe``) so instrumentation
    sites read the same either side of the plane boundary.

    Args:
        relative_error: quantile error bound for every sketch created.
        window_s: rolling-rate window for every counter created.
        flight_capacity: ring size of the flight recorder.
        flight_sample: healthy-request flight sampling period — the
            serving engine records 1-in-``flight_sample`` OK requests
            (anomalies are always recorded), so the fixed ring spans more
            than a few milliseconds of high-qps traffic. 1 records
            everything (the chaos tests use that).
        refusal_rate_threshold: refusals/sec over the rolling window that
            auto-triggers a flight dump (``None`` disables the trigger).
        dump_dir: when set, triggered dumps are also written under it as
            ``flight-<n>-<trigger>.json``.
        clock: injectable monotonic clock for the rolling windows.
    """

    #: live instrumentation sites may skip all work when this is False.
    enabled = True

    def __init__(
        self,
        relative_error: float = DEFAULT_RELATIVE_ERROR,
        window_s: float = 10.0,
        flight_capacity: int = 512,
        flight_sample: int = 16,
        refusal_rate_threshold: Optional[float] = None,
        dump_dir: Optional[Path] = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if flight_sample < 1:
            raise ValueError(f"flight_sample must be >= 1: {flight_sample}")
        self.relative_error = relative_error
        self.window_s = window_s
        self.flight_sample = int(flight_sample)
        self._clock = clock
        self._sketches: Dict[str, LatencySketch] = {}
        self._counters: Dict[str, int] = {}
        self._rolling: Dict[str, RollingCounter] = {}
        self._gauges: Dict[str, float] = {}
        self.flight = FlightRecorder(flight_capacity)
        self.refusal_rate_threshold = refusal_rate_threshold
        self.dump_dir = Path(dump_dir) if dump_dir is not None else None
        self._last_dump_recorded = -1
        self._slos: List[Tuple[SloPolicy, str, str]] = []

    # --- verbs -------------------------------------------------------------------

    def sketch(self, name: str) -> LatencySketch:
        """The named latency sketch (created on first use)."""
        sketch = self._sketches.get(name)
        if sketch is None:
            sketch = LatencySketch(self.relative_error)
            self._sketches[name] = sketch
        return sketch

    def observe(self, name: str, seconds: float, count: int = 1) -> None:
        """Record a wall-clock duration into the named sketch."""
        self.sketch(name).add(seconds, count)

    def observe_many(self, name: str, seconds: Sequence[float]) -> None:
        """Vectorised :meth:`observe` for per-request batch timings."""
        self.sketch(name).add_many(seconds)

    def count(self, name: str, value: int = 1) -> None:
        """Increment a cumulative counter and its rolling-rate window."""
        self._counters[name] = self._counters.get(name, 0) + value
        rolling = self._rolling.get(name)
        if rolling is None:
            rolling = RollingCounter(self.window_s, clock=self._clock)
            self._rolling[name] = rolling
        rolling.add(value)

    def counter(self, name: str) -> int:
        """Cumulative count under a name (0 when never counted)."""
        return self._counters.get(name, 0)

    def rate(self, name: str) -> float:
        """Events/sec over the rolling window (0.0 when never counted)."""
        rolling = self._rolling.get(name)
        return rolling.rate() if rolling is not None else 0.0

    def gauge(self, name: str, value: float) -> None:
        """Set a last-value gauge."""
        self._gauges[name] = float(value)

    def gauge_value(self, name: str, default: float = 0.0) -> float:
        return self._gauges.get(name, default)

    # --- views -------------------------------------------------------------------

    def counters(self) -> Dict[str, int]:
        return dict(sorted(self._counters.items()))

    def gauges(self) -> Dict[str, float]:
        return dict(sorted(self._gauges.items()))

    def rates(self) -> Dict[str, float]:
        return {name: self.rate(name) for name in sorted(self._rolling)}

    def sketches(self) -> Dict[str, LatencySketch]:
        return dict(sorted(self._sketches.items()))

    # --- SLOs --------------------------------------------------------------------

    def set_slo(
        self, policy: SloPolicy, sketch_name: str, refusal_counter: str
    ) -> None:
        """Register an SLO evaluated from a sketch plus a refusal counter."""
        self._slos = [
            entry for entry in self._slos if entry[0].name != policy.name
        ] + [(policy, sketch_name, refusal_counter)]

    def slo_statuses(self) -> List[SloStatus]:
        """Evaluate every registered SLO from the current sketches."""
        statuses = []
        for policy, sketch_name, refusal_counter in self._slos:
            sketch = self._sketches.get(sketch_name)
            answered = sketch.count if sketch is not None else 0
            slow = (
                int(round(sketch.fraction_over(policy.latency_target_s) * answered))
                if sketch is not None
                else 0
            )
            refused = self.counter(refusal_counter)
            statuses.append(
                SloStatus(
                    policy=policy,
                    requests=answered + refused,
                    slow=slow,
                    refused=refused,
                )
            )
        return statuses

    # --- flight recorder ---------------------------------------------------------

    def dump_flight(self, trigger: str = "demand") -> Optional[Dict[str, object]]:
        """Dump the flight recorder now (skipped when nothing new landed).

        Returns the dump document, written to :attr:`dump_dir` as
        ``flight-<n>-<trigger>.json`` when a directory is configured.
        """
        if self.flight.recorded == 0 or self.flight.recorded == self._last_dump_recorded:
            return None
        self._last_dump_recorded = self.flight.recorded
        document = self.flight.dump(trigger)
        if self.dump_dir is not None:
            self.dump_dir.mkdir(parents=True, exist_ok=True)
            path = self.dump_dir / f"flight-{len(self.flight.dumps)}-{trigger}.json"
            path.write_text(
                json.dumps(document, indent=1, sort_keys=True, default=float) + "\n"
            )
        return document

    def check_refusal_spike(self, counter: str = "serve.refusals") -> bool:
        """Auto-dump when the refusal rate crosses the configured threshold."""
        if self.refusal_rate_threshold is None:
            return False
        if self.rate(counter) < self.refusal_rate_threshold:
            return False
        return self.dump_flight("refusal-spike") is not None


class NullLive:
    """The zero-cost default live plane: every verb is a no-op.

    Mirrors :class:`~repro.obs.observer.NullObserver` — instrumented
    components default to the shared :data:`NULL_LIVE` and guard batched
    live work behind ``if live.enabled:``, keeping the uninstrumented
    serve path at parity (the serve bench arms an absolute per-request
    overhead budget on the instrumented path).
    """

    enabled = False

    def observe(self, name: str, seconds: float, count: int = 1) -> None:
        return None

    def observe_many(self, name: str, seconds: Sequence[float]) -> None:
        return None

    def count(self, name: str, value: int = 1) -> None:
        return None

    def counter(self, name: str) -> int:
        return 0

    def rate(self, name: str) -> float:
        return 0.0

    def gauge(self, name: str, value: float) -> None:
        return None

    def gauge_value(self, name: str, default: float = 0.0) -> float:
        return default

    def counters(self) -> Dict[str, int]:
        return {}

    def gauges(self) -> Dict[str, float]:
        return {}

    def rates(self) -> Dict[str, float]:
        return {}

    def sketches(self) -> Dict[str, "LatencySketch"]:
        return {}

    def set_slo(self, policy, sketch_name: str, refusal_counter: str) -> None:
        return None

    def slo_statuses(self) -> List[SloStatus]:
        return []

    def dump_flight(self, trigger: str = "demand") -> None:
        return None

    def check_refusal_spike(self, counter: str = "serve.refusals") -> bool:
        return False


#: The shared no-op live plane every component defaults to.
NULL_LIVE = NullLive()
