"""Per-layer tracing from outside the program.

The traced run wraps each layer's public entry points where their callers
look them up (a class attribute, or a module global such as
``repro.latency.model.build_route``), records one span per call — name,
start, end, parent span, op id — in flat in-memory arrays, and derives
the per-layer metrics from them when the run ends. A layer's self time is
its span minus the part its child spans cover; calls are single-threaded,
so children never overlap and that part is the sum of their durations.

Nothing is wrapped unless a :class:`Tracer` is attached, so the metric
runs execute the program untouched.
"""

from __future__ import annotations

import functools
import time
from array import array
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Set, Tuple

import numpy as np

#: Op id of spans recorded outside the timed phase (set-up, warm-up).
SETUP_OP = -1


class Tracer:
    """Flat span recorder plus the boundary counters the layers report."""

    def __init__(self) -> None:
        #: spans are recorded only while this is True.
        self.enabled = False
        #: op id stamped on new spans (the timed loop sets it; -1 in set-up).
        self.op = SETUP_OP
        #: boundary counters of the timed phase, and of set-up.
        self.counts: Dict[str, float] = {}
        self.setup_counts: Dict[str, float] = {}
        self._names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self._name = array("i")
        self._start = array("d")
        self._end = array("d")
        self._parent = array("i")
        self._op = array("q")
        self._stack: List[int] = []
        self._patches: List[Tuple[object, str, object, object]] = []

    # --- recording -------------------------------------------------------------

    def name_id(self, name: str) -> int:
        """Interned id of a span name."""
        nid = self._name_ids.get(name)
        if nid is None:
            nid = len(self._names)
            self._names.append(name)
            self._name_ids[name] = nid
        return nid

    def open(self, nid: int) -> int:
        """Start a span (child of the innermost open one); returns its index."""
        index = len(self._start)
        self._name.append(nid)
        self._parent.append(self._stack[-1] if self._stack else -1)
        self._op.append(self.op)
        self._end.append(0.0)
        self._stack.append(index)
        self._start.append(time.perf_counter())
        return index

    def close(self, index: int) -> None:
        """End the innermost span."""
        self._end[index] = time.perf_counter()
        self._stack.pop()

    def rename(self, index: int, name: str) -> None:
        """Re-label a span once its call shows which kind it was."""
        self._name[index] = self.name_id(name)

    def count(self, name: str, value: float = 1) -> None:
        """Bump a boundary counter of the current phase (only while enabled)."""
        if self.enabled:
            counts = self.setup_counts if self.op == SETUP_OP else self.counts
            counts[name] = counts.get(name, 0) + value

    # --- wrapping ----------------------------------------------------------------

    def wrap(
        self,
        owner: object,
        attr: str,
        name,
        after: Optional[Callable] = None,
    ) -> None:
        """Register a wrapper for ``owner.attr`` (installed by :meth:`attach`).

        ``name`` is a span name, or a callable of the call's arguments
        returning one (for entry points whose layer depends on the input).
        ``after(result, *args, **kwargs)`` runs after the call, while
        enabled, to bump counters from the call's inputs and outputs.
        """
        original = vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)
        tracer = self
        if callable(name):
            namer = name

            def span_id(args, kwargs) -> int:
                return tracer.name_id(namer(*args, **kwargs))

        else:
            fixed = self.name_id(name)

            def span_id(args, kwargs) -> int:
                return fixed

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return original(*args, **kwargs)
            index = tracer.open(span_id(args, kwargs))
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.close(index)
            if after is not None:
                after(result, *args, **kwargs)
            return result

        self.replace(owner, attr, traced)

    def replace(self, owner: object, attr: str, traced: Callable) -> None:
        """Register a hand-written wrapper for ``owner.attr``."""
        original = vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._patches.append((owner, attr, original, traced))

    def attach(self) -> None:
        """Install every registered wrapper."""
        for owner, attr, _original, traced in self._patches:
            setattr(owner, attr, traced)

    def detach(self) -> None:
        """Restore every wrapped name to the program's own object."""
        for owner, attr, original, _traced in self._patches:
            setattr(owner, attr, original)

    # --- analysis ------------------------------------------------------------------

    def frame(self) -> Dict[str, np.ndarray]:
        """The spans as arrays, with durations and self times (seconds)."""
        start = np.frombuffer(self._start, dtype=np.float64).copy()
        end = np.frombuffer(self._end, dtype=np.float64).copy()
        parent = np.frombuffer(self._parent, dtype=np.int32).astype(np.int64)
        duration = end - start
        has_parent = parent >= 0
        covered = np.bincount(
            parent[has_parent], weights=duration[has_parent], minlength=start.size
        )
        return {
            "name": np.frombuffer(self._name, dtype=np.int32).copy(),
            "start": start,
            "end": end,
            "parent": parent,
            "op": np.frombuffer(self._op, dtype=np.int64).copy(),
            "duration": duration,
            "self": duration - covered,
        }

    def names(self) -> List[str]:
        """Span names, indexed by name id."""
        return list(self._names)

    def write(self, path: Path) -> None:
        """Write every span once, as compressed arrays, at the end of a run."""
        path.parent.mkdir(parents=True, exist_ok=True)
        frame = self.frame()
        np.savez_compressed(
            path,
            names=np.array(self._names),
            **{key: frame[key] for key in ("name", "start", "end", "parent", "op")},
        )


class SpanStats:
    """Per-name aggregates over one phase of a traced run.

    ``read`` collects every name the per-name aggregates were asked
    about, so the metrics built from them also name the spans they report.
    """

    def __init__(self, tracer: Tracer, timed: Optional[bool]) -> None:
        frame = tracer.frame()
        if timed is None:
            keep = np.ones(frame["op"].size, dtype=bool)
        elif timed:
            keep = frame["op"] != SETUP_OP
        else:
            keep = frame["op"] == SETUP_OP
        self._frame = {key: value[keep] for key, value in frame.items()}
        self._ids = {name: nid for nid, name in enumerate(tracer.names())}
        self.read: Set[str] = set()

    def _mask(self, name: str) -> np.ndarray:
        self.read.add(name)
        nid = self._ids.get(name, -1)
        return self._frame["name"] == nid

    def calls(self, name: str) -> int:
        return int(self._mask(name).sum())

    def total_s(self, name: str) -> float:
        return float(self._frame["duration"][self._mask(name)].sum())

    def mean_s(self, name: str) -> float:
        mask = self._mask(name)
        return float(self._frame["duration"][mask].mean()) if mask.any() else 0.0

    def self_mean_s(self, name: str) -> float:
        mask = self._mask(name)
        return float(self._frame["self"][mask].mean()) if mask.any() else 0.0

    def self_total_s(self, names: Iterable[str]) -> float:
        """Summed self time of the spans with any of these names."""
        ids = [self._ids[name] for name in names if name in self._ids]
        return float(self._frame["self"][np.isin(self._frame["name"], ids)].sum())

    def self_by_name(self) -> Dict[str, float]:
        """Summed self time per span name."""
        out: Dict[str, float] = {}
        for name, nid in self._ids.items():
            mask = self._frame["name"] == nid
            if mask.any():
                out[name] = float(self._frame["self"][mask].sum())
        return out
