"""Process-pool campaign executor with a byte-identical serial fallback.

Campaign experiments decompose into independent work items — Figure 2
trials, street-level targets — whose randomness is counter-keyed
(:mod:`repro.rand`), so each item's result depends only on its own
descriptor, never on execution order. That makes fan-out safe: a parallel
run must produce byte-identical results to the serial path, and the
determinism suite (``tests/test_exec.py``) pins it.

Workers come from the ``REPRO_WORKERS`` environment variable (unset, "",
"0" or "1" → serial; a positive integer → that many processes; ``auto`` →
CPU count; anything else, including negative integers, raises). The pool
uses the ``fork`` start method, so workers inherit the parent's scenario
arrays by memory sharing instead of pickling multi-megabyte matrices per
item; on platforms without ``fork`` the executor silently degrades to the
serial path, which computes the same bytes.

Every forked item runs through one wrapper that captures both telemetry
planes and returns ``(result, snapshot, live_snapshot)`` over the pipe,
each snapshot ``None`` when its plane is off. Observed campaigns fan out:
pass the campaign observer via ``obs=`` and each work item runs inside a
worker-side :class:`~repro.obs.snapshot.CaptureScope`. The parent merges
the snapshots (:func:`~repro.obs.snapshot.merge_snapshots`, ordered by
stable item index) and folds them into its live observer — metrics,
event stream, and span tree come out byte-identical to a serial observed
run (pinned by ``tests/test_obs_distributed.py``).

The *operational* telemetry plane fans out the same way: pass a
:class:`~repro.obs.live.LiveTelemetry` via ``live=`` and each item's
wall-clock runtime is captured worker-side as a
:class:`~repro.obs.live.LiveSnapshot` (an ``exec.item_s`` latency sketch
plus an ``exec.items`` counter), merged associatively in the parent
(:func:`~repro.obs.live.merge_live_snapshots`). Wall timings never touch
``obs`` — the deterministic streams stay byte-identical with the live
plane on or off (pinned by ``tests/test_serve_live.py``).
"""

from __future__ import annotations

import multiprocessing
import os
import time
from concurrent.futures import ProcessPoolExecutor
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple, TypeVar

T = TypeVar("T")
R = TypeVar("R")


def worker_count() -> int:
    """Worker processes requested via ``REPRO_WORKERS`` (default serial).

    Returns:
        1 when the variable is unset/empty/"0"/"1" (serial execution),
        the CPU count for ``auto``, otherwise the parsed integer.

    Raises:
        ValueError: when the variable is set to something unintelligible
            or to a negative integer — a silent fall-back to serial would
            hide a misconfigured campaign host.
    """
    raw = os.environ.get("REPRO_WORKERS", "").strip().lower()
    if raw in ("", "0", "1"):
        return 1
    if raw == "auto":
        return os.cpu_count() or 1
    try:
        count = int(raw)
    except ValueError:
        raise ValueError(f"unintelligible REPRO_WORKERS value: {raw!r}") from None
    if count < 0:
        raise ValueError(f"REPRO_WORKERS must be non-negative, got {count}")
    return max(1, count)


def _fork_context() -> Optional[multiprocessing.context.BaseContext]:
    """The fork start-method context, or ``None`` when unsupported."""
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        return None


def chunked(items: Sequence[T], size: int) -> List[List[T]]:
    """Split ``items`` into order-preserving chunks of at most ``size``."""
    if size < 1:
        raise ValueError(f"chunk size must be >= 1, got {size}")
    return [list(items[i : i + size]) for i in range(0, len(items), size)]


def default_chunksize(n_items: int, workers: int) -> int:
    """Work-descriptor chunk size balancing dispatch overhead vs skew.

    Four chunks per worker keeps the tail short while amortising IPC;
    identical results regardless of the value (items are independent).
    """
    return max(1, n_items // max(1, workers * 4))


#: Shared (fn, observer, live flag) for :func:`_captured_item`; populated
#: in the parent immediately before the pool forks, so workers inherit it.
_CAPTURE_CTX: Dict[str, object] = {}

#: Arena token pinned by :func:`arena_context` in the parent immediately
#: before a pool forks; forked workers inherit the (tiny) token and attach
#: to the shared segment on first use instead of COW-inheriting the hot
#: world arrays through dirty pages.
_ARENA_TOKEN: Optional[object] = None

#: Worker-side attachment cache: one mapping per segment per process.
_ATTACHED_ARENAS: Dict[str, Tuple[object, object]] = {}


class arena_context:
    """Pin a shared-memory arena token for the next ``parallel_map``.

    Usage (parent side)::

        arrays = WorldArrays.from_topology(topology)
        with arrays.share() as arena, arena_context(arena.token):
            parallel_map(fn, items)

    Work functions call :func:`attached_world_arrays` to get the published
    :class:`~repro.world.arrays.WorldArrays` — in a forked worker that
    attaches the shared segment (no copies, reads never dirty a page); in
    the serial path it attaches the very same segment in-process, so both
    paths read identical bytes. Re-entrant tokens nest (the previous token
    is restored on exit).
    """

    def __init__(self, token) -> None:
        self._token = token
        self._previous: Optional[object] = None

    def __enter__(self) -> "arena_context":
        global _ARENA_TOKEN
        self._previous = _ARENA_TOKEN
        _ARENA_TOKEN = self._token
        return self

    def __exit__(self, *exc) -> None:
        global _ARENA_TOKEN
        _ARENA_TOKEN = self._previous


def attached_world_arrays():
    """The :class:`~repro.world.arrays.WorldArrays` behind the pinned token.

    Returns ``None`` when no token is pinned or the platform has no shared
    memory (callers fall back to their in-process arrays — the serial
    degrade computes the same bytes). Attachment is cached per process:
    the first call in a worker maps the segment, later calls are free.
    """
    if _ARENA_TOKEN is None:
        return None
    cached = _ATTACHED_ARENAS.get(_ARENA_TOKEN.segment)
    if cached is None:
        from repro.world.arrays import WorldArrays, arena_supported

        if not arena_supported():  # pragma: no cover - POSIX containers
            return None
        try:
            arrays, arena = WorldArrays.attach(_ARENA_TOKEN)
        except FileNotFoundError:
            return None
        cached = (arrays, arena)
        _ATTACHED_ARENAS[_ARENA_TOKEN.segment] = cached
    return cached[0]


def _captured_item(pair: Tuple[int, T]):
    """Run one work item under worker-side capture of both planes.

    Returns ``(result, snapshot, live_snapshot)``. ``snapshot`` carries
    everything the item recorded on the campaign observer, tagged with the
    item's stable index so the parent-side merge reproduces serial
    emission order; ``live_snapshot`` is a one-item
    :class:`~repro.obs.live.LiveSnapshot` carrying the item's wall-clock
    runtime (capture scope included). Each is ``None`` when its plane is
    off. Live snapshot merge is associative, so the parent's totals match
    a serial run's regardless of chunking or completion order.
    """
    index, item = pair
    fn = _CAPTURE_CTX["fn"]
    obs = _CAPTURE_CTX["obs"]
    started = time.perf_counter()
    if obs is None:
        result, snapshot = fn(item), None
    else:
        from repro.obs.snapshot import CaptureScope

        with CaptureScope(obs, index) as scope:
            result = fn(item)
        snapshot = scope.snapshot
    if not _CAPTURE_CTX["live"]:
        return result, snapshot, None
    from repro.obs.live import LatencySketch, LiveSnapshot

    sketch = LatencySketch()
    sketch.add(time.perf_counter() - started)
    return result, snapshot, LiveSnapshot(
        counters=(("exec.items", 1),), sketches=(("exec.item_s", sketch),)
    )


def parallel_map(
    fn: Callable[[T], R],
    items: Iterable[T],
    workers: Optional[int] = None,
    chunksize: Optional[int] = None,
    obs=None,
    checker=None,
    live=None,
) -> List[R]:
    """Map ``fn`` over ``items``, preserving order.

    Args:
        fn: a module-level callable (picklable by reference). Any large
            shared state must already live in module globals before the
            call, so forked workers inherit it.
        items: work descriptors; materialised to a list.
        workers: process count; defaults to :func:`worker_count`.
        chunksize: descriptors per dispatch; defaults to
            :func:`default_chunksize`.
        obs: optional campaign :class:`~repro.obs.Observer`. When enabled
            and the run is parallel, each item is captured worker-side and
            the merged snapshot is absorbed into this observer after the
            map — the serial path records on it live, as always. A
            :class:`~repro.obs.NullObserver` (or ``None``) costs nothing.
        checker: optional :class:`~repro.check.InvariantChecker`. When
            armed and the run actually forked, the first item is re-run
            serially in the parent afterwards and compared against the
            worker's result (``exec.item_parity``) — a spot check that the
            fork inherited identical campaign state. The re-run's
            observability is captured and discarded so the live streams
            stay byte-identical to an unchecked run.
        live: optional :class:`~repro.obs.live.LiveTelemetry`. When
            enabled, every item's wall-clock runtime lands in the plane's
            ``exec.item_s`` sketch (captured worker-side and merged for
            parallel runs, timed inline for serial ones). Never touches
            ``obs``.

    Returns:
        ``[fn(item) for item in items]`` — by construction in the serial
        path, and byte-identically in the parallel one (pinned by the
        determinism tests). With ``obs=``, the observer's final state is
        byte-identical between the two paths as well.
    """
    work = list(items)
    if workers is None:
        workers = worker_count()
    workers = min(workers, len(work))
    context = _fork_context()
    live_on = live is not None and getattr(live, "enabled", False)
    if workers <= 1 or context is None:
        if not live_on:
            return [fn(item) for item in work]
        results = []
        for item in work:
            started = time.perf_counter()
            results.append(fn(item))
            live.observe("exec.item_s", time.perf_counter() - started)
        live.count("exec.items", len(work))
        return results

    if chunksize is None:
        chunksize = default_chunksize(len(work), workers)
    observed = obs is not None and getattr(obs, "enabled", False)
    _CAPTURE_CTX["fn"] = fn
    _CAPTURE_CTX["obs"] = obs if observed else None
    _CAPTURE_CTX["live"] = live_on
    try:
        with ProcessPoolExecutor(max_workers=workers, mp_context=context) as pool:
            captured = list(
                pool.map(_captured_item, list(enumerate(work)), chunksize=chunksize)
            )
    finally:
        _CAPTURE_CTX.clear()
    if live_on:
        from repro.obs.live import merge_live_snapshots

        live.absorb(merge_live_snapshots(*(item[2] for item in captured)))
    if observed:
        from repro.obs.snapshot import merge_snapshots

        obs.absorb(merge_snapshots(*(item[1] for item in captured)))
    results = [item[0] for item in captured]
    _check_item_parity(fn, work, results, obs, checker)
    return results


def _results_agree(a, b) -> bool:
    """Structural equality that treats NaNs as equal (numpy-aware).

    Work items legitimately return NaN for "no estimate" — a plain ``==``
    on those would flag byte-identical results as divergent.
    """
    import dataclasses

    import numpy as np

    if (
        dataclasses.is_dataclass(a)
        and not isinstance(a, type)
        and dataclasses.is_dataclass(b)
        and not isinstance(b, type)
    ):
        return type(a) is type(b) and all(
            _results_agree(getattr(a, f.name), getattr(b, f.name))
            for f in dataclasses.fields(a)
        )
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        a_arr, b_arr = np.asarray(a), np.asarray(b)
        return a_arr.shape == b_arr.shape and bool(
            np.array_equal(a_arr, b_arr, equal_nan=True)
        )
    if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
        return type(a) is type(b) and len(a) == len(b) and all(
            _results_agree(x, y) for x, y in zip(a, b)
        )
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(
            _results_agree(a[key], b[key]) for key in a
        )
    if isinstance(a, float) and isinstance(b, float):
        return a == b or (a != a and b != b)
    return a == b


def _check_item_parity(fn, work, results, obs, checker) -> None:
    """``exec.item_parity``: re-run item 0 in the parent, compare bytes.

    Only meaningful after an actual fork (the serial path *is* the
    reference). When the campaign is observed, the re-run happens inside a
    throwaway :class:`~repro.obs.snapshot.CaptureScope` whose snapshot is
    discarded, so the live metrics/event/span streams are untouched.
    """
    if checker is None or not checker.enabled or not work:
        return
    if obs is not None and getattr(obs, "enabled", False):
        from repro.obs.snapshot import CaptureScope

        with CaptureScope(obs, 0):
            replay = fn(work[0])
    else:
        replay = fn(work[0])
    label = getattr(fn, "__name__", repr(fn))
    checker.check_exec_parity(
        _results_agree(replay, results[0]),
        f"parallel_map({label}) item 0 of {len(work)}",
    )
