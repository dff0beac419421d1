"""The resident geolocation serving engine.

A :class:`ServeEngine` turns the batch-oriented reproduction into a
long-lived query service: load a measured world once (a
:class:`~repro.serve.state.QueryState`, typically extracted from a
scenario whose campaigns replay from the content-addressed artifact
cache), derive the CBG kernel arrays once (a resident
:class:`~repro.core.cbg_batch.CbgBatchSolver`), solve every target column
in one kernel pass, then answer a stream of geolocate requests from that
table:

1. **Admission** (:meth:`ServeEngine.submit`) — every request passes
   typed admission control *before any kernel work*: unknown tenants and
   unknown target prefixes are refused outright; under fault injection a
   counter-keyed draw sheds requests the way the Atlas API sheds calls;
   a full rate window refuses with ``over-rate`` instead of blocking;
   an unaffordable query refuses with ``over-budget`` before anything is
   charged. Admitted requests charge their tenant's ledger and join the
   intake queue.
2. **Coalescing** (:meth:`ServeEngine.process_one_batch`) — queued
   requests are drained in FIFO batches of at most ``max_batch`` and
   deduplicated to unique target columns. The table solved at load
   answers them by gather; the resident kernel runs, in one vectorised
   pass per batch, only on columns an epoch swap invalidated, and each
   such column once. Per-request answers are bitwise identical to the
   batch campaign path no matter how requests are batched or ordered —
   pinned by ``tests/test_serve.py`` and the ``serve: engine vs batch``
   differential leg. When the world churns underneath the engine
   (:mod:`repro.evolve`), :meth:`ServeEngine.install_epoch` swaps in the
   new revision's :class:`QueryState` at a batch boundary: a bit-pattern
   column diff finds the columns whose matrix bytes moved, the solver
   marks just those rows stale (re-derived on first use), and exactly
   those memo columns are invalidated. A swap costs the diff plus work
   proportional to the moved columns — pinned by
   ``tests/test_serve_epoch.py`` and the ``serve: epochs vs batch``
   differential leg.
3. **Observability** — admissions, refusals, and batches are typed
   events in the closed taxonomy (``serve-request`` / ``serve-reject`` /
   ``serve-batch``), counters live under ``serve.*``, and each batch
   solve runs inside a ``serve:batch`` span. Everything emitted is a
   deterministic function of the submission sequence (wall-clock
   latencies are kept off the observer, on
   :attr:`ServeEngine.wall_latencies_s`, so same-seed event streams stay
   byte-identical).
4. **Live telemetry** — passing a
   :class:`~repro.obs.live.LiveTelemetry` as ``live`` arms the second,
   *operational* plane: per-stage wall-clock attribution (queue wait /
   coalesce / kernel / memo answering the p50-vs-p99 question), latency
   sketches per tenant, rolling refusal rates, queue/occupancy/memo-hit
   gauges, per-tenant SLO burn, and a flight-recorder ring of recent
   requests dumped on refusal spikes or invariant violations. The
   default :data:`~repro.obs.live.NULL_LIVE` keeps the uninstrumented
   path at parity, and the live plane never writes to the deterministic
   observer — ``tests/test_serve_live.py`` pins both properties.

The engine is deliberately synchronous and in-process: determinism is the
product being served, and the vectorised kernel already exploits the
hardware within a batch. Throughput comes from coalescing, not from
threads — the load benchmark (``benchmarks/test_bench_serve.py``)
sustains well over the 10k queries/sec target this way.
"""

from __future__ import annotations

import array
import time
from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Sequence, Union

import numpy as np

from repro.atlas.clock import SimClock
from repro.check.invariants import NULL_CHECKER
from repro.core.cbg_batch import CbgBatchSolver
from repro.errors import ConfigurationError
from repro.obs import events as _ev
from repro.obs.live import NULL_LIVE, FlightRecord, SloPolicy
from repro.obs.observer import NULL_OBSERVER
from repro.serve.state import QueryState
from repro.serve.tenancy import TenantAccount, TenantConfig

#: The request was answered with a centroid estimate.
STATUS_OK = "ok"
#: The request was admitted and solved, but CBG had no usable answer.
STATUS_NO_ESTIMATE = "no-estimate"
#: Refused: the tenant is not registered with the engine.
REJECT_UNKNOWN_TENANT = "unknown-tenant"
#: Refused: the target address is outside the loaded world's prefixes.
REJECT_UNKNOWN_TARGET = "unknown-target"
#: Refused: the fault layer shed the request (injected API weather).
REJECT_SHED = "shedding"
#: Refused: the tenant's sliding rate window is full.
REJECT_OVER_RATE = "over-rate"
#: Refused: the query cost does not fit the tenant's remaining budget.
REJECT_OVER_BUDGET = "over-budget"

#: Every typed refusal reason (:attr:`ServeResult.rejected` is membership).
REJECTIONS = frozenset(
    {
        REJECT_UNKNOWN_TENANT,
        REJECT_UNKNOWN_TARGET,
        REJECT_SHED,
        REJECT_OVER_RATE,
        REJECT_OVER_BUDGET,
    }
)


@dataclass(frozen=True)
class ServeRequest:
    """One admitted geolocate request waiting in the intake queue."""

    request_id: int
    tenant: str
    ip: str
    column: int


@dataclass(frozen=True)
class ServeResult:
    """The typed outcome of one geolocate request.

    Attributes:
        request_id: the id :meth:`ServeEngine.submit` returned.
        tenant: requesting tenant.
        ip: requested target address.
        status: :data:`STATUS_OK`, :data:`STATUS_NO_ESTIMATE`, or one of
            :data:`REJECTIONS`.
        lat: estimated latitude (``None`` unless status is ``ok``).
        lon: estimated longitude (``None`` unless status is ``ok``).
        batch: sequence number of the batch that solved the request
            (``None`` for refusals, which never reach a batch).
        detail: human-readable refusal context (e.g. the injected fault
            type, or the rate-window wait).
    """

    request_id: int
    tenant: str
    ip: str
    status: str
    lat: Optional[float] = None
    lon: Optional[float] = None
    batch: Optional[int] = None
    detail: str = ""

    @property
    def rejected(self) -> bool:
        """Whether the request was refused by admission control."""
        return self.status in REJECTIONS


class ServeEngine:
    """A resident engine answering geolocate queries over one world."""

    def __init__(
        self,
        state: QueryState,
        clock: Optional[SimClock] = None,
        obs=NULL_OBSERVER,
        checker=NULL_CHECKER,
        faults=None,
        max_batch: int = 256,
        min_vps: int = 1,
        live=NULL_LIVE,
    ) -> None:
        """Load the world, derive the resident kernel arrays, solve the table.

        Args:
            state: the query-time world (see :class:`QueryState`).
            clock: simulated clock for rate windows and event timestamps;
                a fresh one by default. The engine never advances it —
                time passes when the caller says it does, which keeps
                admission decisions deterministic.
            obs: campaign observer; serve events, counters, and spans are
                emitted through it.
            checker: optional invariant checker. When armed, every ledger
                charge is conservation-checked, and the loaded table and
                every column solved again after a swap are
                containment-checked against the ground truth (when the
                state carries it).
            faults: optional :class:`~repro.faults.FaultInjector`; when
                its plan injects API faults, the corresponding admission
                draws shed requests with the :data:`REJECT_SHED` reason.
            max_batch: most requests one batch may coalesce (>= 1).
            min_vps: minimum answering vantage points per target (kernel
                knob, as in the campaign path).
            live: operational telemetry plane
                (:class:`~repro.obs.live.LiveTelemetry`); the shared
                :data:`~repro.obs.live.NULL_LIVE` no-op by default.
        """
        if max_batch < 1:
            raise ConfigurationError(f"max_batch must be >= 1: {max_batch}")
        self.state = state
        self.clock = clock if clock is not None else SimClock()
        self.obs = obs
        self.checker = checker
        self.faults = faults
        self.max_batch = int(max_batch)
        self.solver = CbgBatchSolver(
            state.vp_lats,
            state.vp_lons,
            state.rtt_matrix,
            soi_fraction=state.soi_fraction,
            min_vps=min_vps,
        )
        self._tenants: Dict[str, TenantAccount] = {}
        self._queue: Deque[ServeRequest] = deque()
        self._results: Dict[int, ServeResult] = {}
        self._next_id = 0
        self.batches_processed = 0
        #: world epochs installed so far; 0 until the first
        #: :meth:`install_epoch` swap.
        self.epoch = 0
        # The loaded world is immutable *within an epoch*, so a column's
        # centroid never changes between swaps. The whole table is solved
        # here, in one kernel pass, and a request costs an array gather —
        # which is what carries paper-scale throughput past the 10k qps
        # target with no cold solves on the request path.
        # install_epoch() un-solves exactly the columns whose bytes moved;
        # each is solved again on its first request.
        self._check_containment(slice(None), "serve load")
        self._answer_lats, self._answer_lons = self.solver.centroids()
        self._solved = np.ones(state.n_targets, dtype=bool)
        self.column_cache_hits = 0
        #: wall-clock seconds from admission to answer, per answered
        #: request (load-benchmark material; never emitted on the
        #: observer, which must stay deterministic).
        self.wall_latencies_s: List[float] = []
        self._admitted_wall: Dict[int, float] = {}
        #: the operational plane (wall-clock sketches, rates, gauges,
        #: SLOs, flight recorder). Never forwarded to ``obs``.
        self.live = live
        #: tenants with a registered SLO; only these pay for per-tenant
        #: latency collection in the batch loop.
        self._slo_tenants: set = set()
        self._columns_seen = 0
        self._violations_seen = len(getattr(checker, "violations", ()))
        # Buffered admission timings: array('d') instead of a list so the
        # per-batch flush converts to ndarray with a memcpy, not a boxed
        # float walk (worth ~40us per 256-request batch).
        self._pending_admission_s = array.array("d")
        if live.enabled:
            # Direct sketch handles keep registry lookups off the
            # per-batch flush path (absorb() merges in place, so the
            # handles never go stale).
            self._sk_admission = live.sketch("serve.stage.admission_s")
            self._sk_queue = live.sketch("serve.stage.queue_s")
            self._sk_coalesce = live.sketch("serve.stage.coalesce_s")
            self._sk_kernel = live.sketch("serve.stage.kernel_s")
            self._sk_memo = live.sketch("serve.stage.memo_s")
            self._sk_latency = live.sketch("serve.latency_s")

    # --- construction ------------------------------------------------------------

    @classmethod
    def from_scenario(cls, scenario, **kwargs) -> "ServeEngine":
        """An engine over a built scenario's query-time state.

        The scenario's observer, checker, and live plane are adopted
        unless overridden in ``kwargs``.
        """
        kwargs.setdefault("obs", scenario.obs)
        kwargs.setdefault("checker", scenario.checker)
        kwargs.setdefault("live", getattr(scenario, "live", NULL_LIVE))
        return cls(QueryState.from_scenario(scenario), **kwargs)

    @classmethod
    def from_arena(cls, token, **kwargs) -> "ServeEngine":
        """An engine over a shared-memory query state published elsewhere.

        Attaches to the arena behind ``token``
        (:meth:`QueryState.share` in the publishing process) and serves
        straight off the shared pages: a fleet of worker engines holds
        one physical copy of the RTT matrix between them. The arena
        handle is pinned on the engine (``_arena``) so the views outlive
        construction.
        """
        state, arena = QueryState.attach(token)
        engine = cls(state, **kwargs)
        engine._arena = arena
        return engine

    @classmethod
    def for_preset(cls, preset: str, seed: Optional[int] = None, **kwargs) -> "ServeEngine":
        """An engine over a preset world ("paper", "small", or "quick").

        Goes through :func:`~repro.experiments.scenario.get_scenario`, so
        with ``REPRO_CACHE_DIR`` set the heavyweight measurement
        campaigns replay from the content-addressed artifact cache and
        engine startup costs one disk read per artifact.
        """
        from repro.experiments.scenario import get_scenario

        return cls.from_scenario(get_scenario(preset, seed), **kwargs)

    # --- epoch swap --------------------------------------------------------------

    def install_epoch(self, state: QueryState, label: str = "") -> int:
        """Atomically swap in a new world revision between batches.

        The serving contract under churn: after the swap, every answer is
        byte-identical to a fresh engine loaded with ``state`` — but the
        memo survives for every column whose matrix bytes did not move.
        The engine diffs the old and new states:

        * same VP coordinates (the re-measurement case produced by
          :func:`repro.evolve.measure.epoch_state`, which pins VP
          registrations): columns are compared by bit pattern and
          exactly the changed ones are invalidated (``column-delta``).
          The solver keeps its derived arrays and re-derives just those
          rows on their first request
          (:meth:`~repro.core.cbg_batch.CbgBatchSolver.replace_columns`),
          so the swap itself derives and solves nothing. A column whose
          bytes differ but whose values compare equal (``-0.0`` for
          ``0.0``, another NaN payload) counts as changed and is solved
          again, which returns exactly a fresh engine's answer;
        * different VP coordinates or VP count: every answer depends on
          every VP row, so the solver is rebuilt and the whole memo is
          invalidated (``vp-drift``);
        * same VPs but another RTT-to-distance conversion speed: every
          constraint radius moves, so likewise (``soi-change``).

        Queued-but-unsolved requests survive the swap (their columns
        still resolve in the new state) and are answered from the new
        epoch's matrix at the next batch — the swap point *is* the batch
        boundary. Targets are identity here: installing a state with a
        different target set is a configuration error, not churn.

        Emits one ``serve-epoch`` event and bumps the ``serve.epoch.*``
        counters (swaps / changed_columns / invalidated / retained).
        Returns the number of changed columns.

        Raises:
            ConfigurationError: when ``state`` serves a different target
                set than the loaded world.
        """
        old = self.state
        if tuple(state.target_ips) != tuple(old.target_ips):
            raise ConfigurationError(
                f"epoch swap must keep the target set: {old.n_targets} loaded "
                f"targets vs {state.n_targets} in the new state"
            )
        if not (
            old.rtt_matrix.shape[0] == state.rtt_matrix.shape[0]
            and np.array_equal(old.vp_lats, state.vp_lats)
            and np.array_equal(old.vp_lons, state.vp_lons)
        ):
            reason = "vp-drift"
        elif old.soi_fraction != state.soi_fraction:
            reason = "soi-change"
        else:
            reason = "column-delta"
        if reason == "column-delta":
            changed_mask = (
                old.rtt_matrix.view(np.uint64) != state.rtt_matrix.view(np.uint64)
            ).any(axis=0)
            self.solver.replace_columns(state.rtt_matrix, np.nonzero(changed_mask)[0])
        else:
            changed_mask = np.ones(state.n_targets, dtype=bool)
            self.solver = CbgBatchSolver(
                state.vp_lats,
                state.vp_lons,
                state.rtt_matrix,
                soi_fraction=state.soi_fraction,
                min_vps=self.solver.min_vps,
            )
        changed = int(changed_mask.sum())
        invalidated = int((changed_mask & self._solved).sum())
        retained = int((self._solved & ~changed_mask).sum())
        self.state = state
        self._answer_lats[changed_mask] = np.nan
        self._answer_lons[changed_mask] = np.nan
        self._solved[changed_mask] = False
        self.epoch += 1
        if self.obs.enabled:
            self.obs.event(
                _ev.SERVE_EPOCH,
                t_s=self.clock.now_s,
                epoch=self.epoch,
                changed=changed,
                invalidated=invalidated,
                retained=retained,
                reason=reason,
                label=label,
            )
            self.obs.count("serve.epoch.swaps")
            self.obs.count("serve.epoch.changed_columns", changed)
            self.obs.count("serve.epoch.invalidated", invalidated)
            self.obs.count("serve.epoch.retained", retained)
        if self.live.enabled:
            self.live.count("serve.epoch.swaps")
            self.live.gauge("serve.epoch", float(self.epoch))
        return changed

    # --- tenancy -----------------------------------------------------------------

    def register_tenant(self, config: TenantConfig) -> TenantAccount:
        """Create (or replace) a tenant account under the engine's clock."""
        account = TenantAccount(
            config, self.clock, obs=self.obs, checker=self.checker
        )
        self._tenants[config.name] = account
        return account

    def tenant(self, name: str) -> Optional[TenantAccount]:
        """The named tenant's live account, if registered."""
        return self._tenants.get(name)

    # --- admission ---------------------------------------------------------------

    def submit(self, tenant: str, ip: str) -> int:
        """Admit one geolocate request (or refuse it with a typed reason).

        Returns the request id in either case; refused requests have
        their :class:`ServeResult` available immediately via
        :meth:`result`, admitted ones after the batch that solves them.
        Admission order is part of the contract: target resolution, then
        fault shedding, then the rate window, then the budget — so a
        zero-credit tenant is refused *before any kernel work*, and an
        unknown prefix consumes neither a rate slot nor credits.
        """
        if not self.live.enabled:
            return self._admit(tenant, ip)
        # Live plane attached: time the admission ladder. The admitted
        # path is the hot one (tens of thousands per second), so it only
        # buffers a float and an int here; the buffers are flushed into
        # the plane vectorised at the next batch. A refusal has a result
        # installed already, and pays for rich recording immediately.
        t_start = time.perf_counter()
        request_id = self._admit(tenant, ip)
        admission_s = time.perf_counter() - t_start
        if request_id in self._results:
            self._record_refusal(request_id, tenant, ip, admission_s)
        else:
            self._pending_admission_s.append(admission_s)
        return request_id

    def _admit(self, tenant: str, ip: str) -> int:
        """The admission ladder itself (identical with live on or off)."""
        request_id = self._next_id
        self._next_id += 1
        account = self._tenants.get(tenant)
        if account is None:
            return self._refuse(request_id, tenant, ip, REJECT_UNKNOWN_TENANT)
        column = self.state.column_of(ip)
        if column is None:
            return self._refuse(request_id, tenant, ip, REJECT_UNKNOWN_TARGET)
        if self.faults is not None:
            error = self.faults.api_error("serve", self.faults.next_call())
            if error is not None:
                return self._refuse(
                    request_id,
                    tenant,
                    ip,
                    REJECT_SHED,
                    detail=type(error).__name__,
                )
        wait_s = account.rate_wait_s()
        if wait_s > 0.0:
            return self._refuse(
                request_id,
                tenant,
                ip,
                REJECT_OVER_RATE,
                detail=f"retry in {wait_s:.3f}s",
            )
        if not account.can_afford_query():
            return self._refuse(
                request_id,
                tenant,
                ip,
                REJECT_OVER_BUDGET,
                detail=f"cost {account.config.cost_per_query} exceeds "
                f"remaining {account.ledger.remaining}",
            )
        account.charge_query()
        self._queue.append(ServeRequest(request_id, tenant, ip, column))
        self._admitted_wall[request_id] = time.perf_counter()
        if self.obs.enabled:
            self.obs.event(
                _ev.SERVE_REQUEST,
                t_s=self.clock.now_s,
                request=request_id,
                tenant=tenant,
                ip=ip,
            )
            self.obs.count("serve.requests")
            self.obs.count("serve.admitted")
            self.obs.gauge("serve.queue_depth", len(self._queue))
        return request_id

    def _refuse(
        self, request_id: int, tenant: str, ip: str, reason: str, detail: str = ""
    ) -> int:
        self._results[request_id] = ServeResult(
            request_id, tenant, ip, reason, detail=detail
        )
        if self.obs.enabled:
            self.obs.event(
                _ev.SERVE_REJECT,
                t_s=self.clock.now_s,
                request=request_id,
                tenant=tenant,
                ip=ip,
                reason=reason,
            )
            self.obs.count("serve.requests")
            self.obs.count("serve.rejected")
            self.obs.count(f"serve.rejected.{reason}")
        return request_id

    # --- live telemetry ----------------------------------------------------------

    def set_slo(self, policy: SloPolicy) -> None:
        """Register a per-tenant SLO on the live plane.

        ``policy.name`` names the tenant: the objective is evaluated from
        that tenant's latency sketch plus its refusal counter (a refusal
        is always budget-burning, however fast it was).
        """
        self.live.set_slo(
            policy,
            f"serve.tenant.{policy.name}.latency_s",
            f"serve.tenant.{policy.name}.refusals",
        )
        self._slo_tenants.add(policy.name)

    def _record_refusal(
        self, request_id: int, tenant: str, ip: str, admission_s: float
    ) -> None:
        """Live-plane bookkeeping for one refused admission.

        Refusals are rare and interesting, so (unlike the buffered
        admitted path in :meth:`submit`) they pay for prompt counters, a
        flight record, and the refusal-spike check immediately.
        """
        result = self._results[request_id]
        live = self.live
        live.count("serve.requests")
        live.count("serve.refusals")
        live.count(f"serve.refusals.{result.status}")
        live.count(f"serve.tenant.{tenant}.refusals")
        live.observe("serve.stage.admission_s", admission_s)
        live.flight.record(
            FlightRecord(
                request_id=request_id,
                tenant=tenant,
                target=ip,
                outcome=result.status,
                detail=result.detail,
                stages=(("admission", admission_s),),
                t_wall=time.time(),
            )
        )
        live.check_refusal_spike()

    def _flush_live_batch(
        self,
        seq: int,
        size: int,
        answered: int,
        unique_count: int,
        coalesce_s: float,
        kernel_s: float,
        memo_s: float,
        batch_span_s: float,
        lat_start: int,
        per_tenant: Dict[str, List[float]],
    ) -> None:
        """Fold one solved batch (and buffered admissions) into the plane."""
        live = self.live
        pending = self._pending_admission_s
        if pending:
            live.count("serve.requests", len(pending))
            live.count("serve.admitted", len(pending))
            self._sk_admission.add_many(np.frombuffer(pending, dtype=np.float64))
            self._pending_admission_s = array.array("d")
        live.count("serve.batches")
        live.count("serve.answered", answered)
        if answered < size:
            live.count("serve.no_estimate", size - answered)
        # Batch-shared stages carry per-request multiplicity so sketch
        # sums keep the per-request identity queue+coalesce+kernel+memo
        # == total (the serve_tail bench asserts it).
        self._sk_coalesce.add(coalesce_s, size)
        self._sk_kernel.add(kernel_s, size)
        self._sk_memo.add(memo_s, size)
        # total_i = done - submitted_i and the batch span is done -
        # t_batch, so queue_i = t_batch - submitted_i = total_i - span:
        # the per-request queue waits fall out of the totals the engine
        # already collects, with no per-request work in the batch loop.
        totals = np.asarray(self.wall_latencies_s[lat_start:], dtype=np.float64)
        self._sk_queue.add_many(totals - batch_span_s)
        self._sk_latency.add_many(totals)
        for tenant, tenant_totals in per_tenant.items():
            live.observe_many(f"serve.tenant.{tenant}.latency_s", tenant_totals)
        live.gauge("serve.queue_depth", float(len(self._queue)))
        live.gauge("serve.batch_occupancy", size / self.max_batch)
        self._columns_seen += unique_count
        live.gauge(
            "serve.memo_hit_ratio", self.column_cache_hits / self._columns_seen
        )
        violations = len(getattr(self.checker, "violations", ()))
        if violations > self._violations_seen:
            # A record-mode checker accumulated new violations during
            # this batch: freeze the recent-request ring for post-mortem.
            self._violations_seen = violations
            live.dump_flight("invariant-violation")

    # --- batching ----------------------------------------------------------------

    @property
    def queue_depth(self) -> int:
        """Requests admitted but not yet solved."""
        return len(self._queue)

    def _check_containment(self, columns, context: str) -> None:
        """Containment-check the constraints of ``columns`` when armed."""
        state = self.state
        if self.checker.enabled and state.target_true_lats is not None:
            self.checker.check_cbg_containment(
                state.vp_lats,
                state.vp_lons,
                state.rtt_matrix[:, columns],
                state.target_true_lats[columns],
                state.target_true_lons[columns],
                state.soi_fraction,
                context,
            )

    def process_one_batch(self) -> int:
        """Coalesce and solve at most ``max_batch`` queued requests.

        Requests are deduplicated to unique target columns, and columns
        solved at load or in an earlier batch are answered from the memo —
        the kernel runs only on columns an epoch swap invalidated, once
        each. Returns the number of requests answered (0 on an empty
        queue — draining a queue shorter than ``max_batch`` solves a
        partial batch, which the coalescing boundary tests pin).
        """
        if not self._queue:
            return 0
        live = self.live
        live_on = live.enabled
        # Stage attribution (live plane only): queue wait ends when the
        # batch starts; coalesce covers drain + dedup + checks; kernel is
        # the span; memo is the answer gather. The four sum exactly to
        # the admission-to-answer total per request, which the serve_tail
        # bench section asserts.
        t_batch = time.perf_counter() if live_on else 0.0
        size = min(self.max_batch, len(self._queue))
        batch = [self._queue.popleft() for _ in range(size)]
        self.batches_processed += 1
        seq = self.batches_processed
        columns = np.array([request.column for request in batch], dtype=np.intp)
        unique_columns, inverse = np.unique(columns, return_inverse=True)
        fresh = unique_columns[~self._solved[unique_columns]]
        cached = int(unique_columns.size - fresh.size)
        self.column_cache_hits += cached
        if fresh.size:
            self._check_containment(fresh, f"serve batch #{seq} ({fresh.size} columns)")
        t_solve = time.perf_counter() if live_on else 0.0
        with self.obs.span(
            "serve:batch",
            clock=self.clock,
            batch=seq,
            size=size,
            columns=int(fresh.size),
            cached=cached,
        ):
            if fresh.size:
                fresh_lats, fresh_lons = self.solver.centroids(fresh, obs=self.obs)
                self._answer_lats[fresh] = fresh_lats
                self._answer_lons[fresh] = fresh_lons
                self._solved[fresh] = True
        t_gather = time.perf_counter() if live_on else 0.0
        lats = self._answer_lats[unique_columns]
        lons = self._answer_lons[unique_columns]
        done_wall = time.perf_counter()
        if live_on:
            coalesce_s = t_solve - t_batch
            kernel_s = t_gather - t_solve
            memo_s = done_wall - t_gather
            batch_span_s = done_wall - t_batch
            batch_wall = time.time()
            sample = live.flight_sample
            slo_tenants = self._slo_tenants
            # Per-request totals for this batch are exactly the slice of
            # wall_latencies_s the loop below appends (already collected
            # with the plane off), so the hot loop adds no bookkeeping;
            # queue waits are derived vectorised in the flush.
            lat_start = len(self.wall_latencies_s)
            per_tenant: Dict[str, List[float]] = {}
        answered = 0
        for position, request in enumerate(batch):
            lat = lats[inverse[position]]
            if np.isnan(lat):
                result = ServeResult(
                    request.request_id,
                    request.tenant,
                    request.ip,
                    STATUS_NO_ESTIMATE,
                    batch=seq,
                )
            else:
                answered += 1
                result = ServeResult(
                    request.request_id,
                    request.tenant,
                    request.ip,
                    STATUS_OK,
                    lat=float(lat),
                    lon=float(lons[inverse[position]]),
                    batch=seq,
                )
            self._results[request.request_id] = result
            submitted = self._admitted_wall.pop(request.request_id, None)
            if submitted is not None:
                elapsed = done_wall - submitted
                self.wall_latencies_s.append(elapsed)
                if live_on:
                    if slo_tenants and request.tenant in slo_tenants:
                        per_tenant.setdefault(request.tenant, []).append(elapsed)
                    # OK-request flights are sampled (1-in-flight_sample)
                    # so the fixed ring spans more than a few
                    # milliseconds of healthy traffic; anomalies
                    # (no-estimate, and refusals at admission) are
                    # always recorded.
                    if result.status != STATUS_OK or request.request_id % sample == 0:
                        live.flight.record(
                            FlightRecord(
                                request_id=request.request_id,
                                tenant=request.tenant,
                                target=request.ip,
                                outcome=result.status,
                                batch=seq,
                                stages=(
                                    ("queue", t_batch - submitted),
                                    ("coalesce", coalesce_s),
                                    ("kernel", kernel_s),
                                    ("memo", memo_s),
                                ),
                                t_wall=batch_wall,
                            )
                        )
        if live_on:
            self._flush_live_batch(
                seq, size, answered, unique_columns.size,
                coalesce_s, kernel_s, memo_s, batch_span_s, lat_start, per_tenant,
            )
        if self.obs.enabled:
            self.obs.event(
                _ev.SERVE_BATCH,
                t_s=self.clock.now_s,
                batch=seq,
                size=size,
                columns=int(fresh.size),
                cached=cached,
                answered=answered,
            )
            if cached:
                self.obs.count("serve.column_cache_hits", cached)
            self.obs.count("serve.batches")
            self.obs.count("serve.answered", answered)
            if answered < size:
                self.obs.count("serve.no_estimate", size - answered)
            self.obs.observe("serve.batch_size", size)
            self.obs.gauge("serve.queue_depth", len(self._queue))
        return size

    def drain(self) -> int:
        """Solve every queued request; returns how many were answered."""
        total = 0
        while self._queue:
            total += self.process_one_batch()
        return total

    # --- results -----------------------------------------------------------------

    def result(self, request_id: int) -> Optional[ServeResult]:
        """The result for a request id, or ``None`` while still queued."""
        return self._results.get(request_id)

    def geolocate(
        self, tenant: str, ips: Sequence[str]
    ) -> List[ServeResult]:
        """Submit a list of addresses and drain; results in request order.

        The synchronous convenience wrapper: an empty list is a valid
        query and returns an empty list (no kernel work, no events).
        """
        request_ids = [self.submit(tenant, ip) for ip in ips]
        self.drain()
        return [self._results[request_id] for request_id in request_ids]

    def stats(self) -> Dict[str, Union[int, float]]:
        """Engine-lifetime admission and batch totals (plain dict)."""
        by_status: Dict[str, int] = {}
        for result in self._results.values():
            by_status[result.status] = by_status.get(result.status, 0) + 1
        return {
            "requests": self._next_id,
            "queued": len(self._queue),
            "batches": self.batches_processed,
            "epoch": self.epoch,
            "column_cache_hits": self.column_cache_hits,
            **{f"status.{status}": count for status, count in sorted(by_status.items())},
        }
