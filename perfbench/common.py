"""Plumbing shared by the benchmark workloads.

Paths, the benchmark's own records, the closed-loop timing rounds, the
run-environment record, percentile helpers, peak memory, and the
one-line JSON result. Nothing here imports :mod:`repro` or numpy at load
time, so ``run.py`` can use it before the thread pools are pinned and the
program is on the import path.
"""

from __future__ import annotations

import ctypes
import hashlib
import json
import math
import os
import platform
import resource
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

#: Root of the checkout the benchmark runs in.
ROOT = Path(__file__).resolve().parent.parent
#: The program under test.
SRC = ROOT / "src"
#: Scratch space for what runs leave behind (artifact cache, traces).
WORK = ROOT / "perfbench" / ".work"
#: Artifact cache the warm restarts read (filled untimed by the first run).
CACHE_DIR = WORK / "cache"
#: The benchmark's entry script (children re-run it for set-up samples).
RUN_PY = ROOT / "perfbench" / "run.py"

#: Environment variables that would change what the program does.
PROGRAM_KNOBS = ("REPRO_WORKERS", "REPRO_CHECK", "REPRO_CACHE_DIR")
#: Thread-pool sizes pinned to one thread before numpy loads.
THREAD_KNOBS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)

#: Reported instead of an infinite percentile (failed ops count as beyond).
FAILED_LATENCY_MS = 1e9


@dataclass
class Outcome:
    """A timed phase: ``rounds`` timed executions of the same op inputs.

    The host this runs on is shared, and its speed swings by about 40%
    for seconds at a time. Every op is therefore timed once per round,
    the rounds far enough apart that an op rarely lands in a slow stretch
    every time, and an op's latency is the fastest of its executions.

    Attributes:
        latencies_ms: per op, the fastest of its timed executions, in op
            order (NaN for an op that failed while it was timed).
        failed: per-op failure flags (raised, refused, or disagreed with
            its reference in any round); set by timing and the checks.
        timed_s: the throughput denominator — the ops' summed best times
            (closed loop), or the fastest round's busy time (open loop).
        total_s: busy seconds of every round together.
        rounds: timed executions per op.
        notes: workload facts for the report and the output checks.
    """

    latencies_ms: List[float]
    failed: List[bool]
    timed_s: float
    total_s: float
    rounds: int
    notes: Dict[str, object] = field(default_factory=dict)

    @property
    def attempted(self) -> int:
        return len(self.latencies_ms)

    @property
    def failures(self) -> int:
        return sum(self.failed)

    def completed_ms(self) -> List[float]:
        """Latencies of the ops that succeeded."""
        return [
            latency
            for latency, failed in zip(self.latencies_ms, self.failed)
            if not failed
        ]


def op_count(params: Dict[str, object], seconds: float) -> int:
    """Ops of a closed-loop run: ``ops_per_second`` per second, at least ``min_ops``."""
    return max(int(params["min_ops"]), round(float(params["ops_per_second"]) * seconds))


def closed_loop(
    inputs: Sequence[object],
    run_op: Callable[[object], object],
    rounds: int,
    key: Callable[[object], object],
    expected: Optional[Sequence[object]] = None,
    tracer=None,
    between: Optional[Callable[[], None]] = None,
) -> Outcome:
    """Time ``run_op`` on every input, one at a time, in ``rounds`` rounds.

    Every round runs the same inputs in the same order, and an op's
    latency is the fastest of its executions. An execution fails when it
    raises, or when ``key`` of its output differs from ``expected[op]``
    — by default the key of the op's first output, so every round must
    reproduce the first; keys are compared outside the timed interval.
    ``between()`` runs between two rounds. A tracer gets each op's index
    stamped on the spans it records. ``notes`` holds each op's first
    output (``outputs``, None where every execution raised) and the first
    traceback of a raising op (``error``).
    """
    perf = time.perf_counter
    outputs: List[object] = [None] * len(inputs)
    keys = list(expected) if expected is not None else [None] * len(inputs)
    failed = [False] * len(inputs)
    notes: Dict[str, object] = {"outputs": outputs}
    times: List[List[float]] = []
    for round_ in range(rounds):
        if round_ and between is not None:
            between()
        elapsed = []
        for op, item in enumerate(inputs):
            if tracer is not None:
                tracer.op = op
            start = perf()
            try:
                output = run_op(item)
            except Exception:  # a raising op is a failed op, not a crash
                output = None
                notes.setdefault("error", traceback.format_exc())
            elapsed.append(perf() - start)
            if output is None:
                failed[op] = True
                continue
            if outputs[op] is None:
                outputs[op] = output
            if keys[op] is None:
                keys[op] = key(output)
            elif key(output) != keys[op]:
                failed[op] = True
        times.append(elapsed)
    best = [min(column) for column in zip(*times)]
    return Outcome(
        latencies_ms=[math.nan if bad else b * 1e3 for b, bad in zip(best, failed)],
        failed=failed,
        timed_s=sum(best),
        total_s=sum(map(sum, times)),
        rounds=rounds,
        notes=notes,
    )


def pin_environment() -> None:
    """Clear the program's knobs and pin thread pools to one thread.

    Must run before numpy is imported; children inherit the result.
    """
    for name in PROGRAM_KNOBS:
        os.environ.pop(name, None)
    for name in THREAD_KNOBS:
        os.environ[name] = "1"


def peak_rss_mb() -> float:
    """Peak resident set of this process, in MB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def tail_percentile(
    latencies_ms: Sequence[float], failed: int, q: float
) -> Tuple[float, int, int]:
    """The ``q``-th percentile of op latencies, failed ops counting as beyond.

    Uses the nearest-rank definition on the sorted sample, so the value is
    a measured latency. Returns ``(value, samples, samples_beyond)``.
    """
    values = sorted(latencies_ms) + [math.inf] * failed
    n = len(values)
    rank = max(1, math.ceil(q / 100.0 * n))
    value = values[rank - 1]
    beyond = n - rank
    return (FAILED_LATENCY_MS if math.isinf(value) else value), n, beyond


def median(values: Sequence[float]) -> float:
    """Median of a non-empty sample."""
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return 0.5 * (ordered[mid - 1] + ordered[mid])


def _blas_threads() -> str:
    """Threads the loaded OpenBLAS will use, read from the library."""
    try:
        with open("/proc/self/maps") as maps:
            paths = {
                line.split()[-1]
                for line in maps
                if "openblas" in line.lower() and ".so" in line
            }
    except OSError:
        paths = set()
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return str(getter())
    return "env:" + os.environ.get("OPENBLAS_NUM_THREADS", "unset")


def _source_digest() -> str:
    """Content digest of the program's sources (the checkout has no git)."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode("utf-8"))
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _git_revision() -> str:
    if not (ROOT / ".git").exists():
        return "none"
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() or "unknown"


def environment_record(load_before: Tuple[float, float, float]) -> Dict[str, object]:
    """What the run ran on: host, versions, thread pools, code identity."""
    import numpy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_before": [round(x, 2) for x in load_before],
        "loadavg_after": [round(x, 2) for x in os.getloadavg()],
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": _blas_threads(),
        "git_rev": _git_revision(),
        "src_digest": _source_digest(),
    }


def run_child(args: List[str], timeout_s: float) -> Dict[str, object]:
    """Run ``run.py`` with ``args`` in a fresh process; its last stdout line.

    The child is waited for (and killed on timeout) before this returns.
    """
    out = subprocess.run(
        [sys.executable, str(RUN_PY), *args],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=timeout_s,
    )
    if out.returncode != 0:
        raise RuntimeError(
            f"child {' '.join(args)} exited {out.returncode}: {out.stderr[-2000:]}"
        )
    return json.loads(out.stdout.strip().splitlines()[-1])


def result_line(
    correct: bool,
    attempted: int,
    failed: int,
    metrics: Dict[str, Tuple[float, str]],
) -> str:
    """The JSON object the benchmark prints as its last stdout line."""
    return json.dumps(
        {
            "correct": bool(correct),
            "attempted": int(attempted),
            "failed": int(failed),
            "metrics": {
                name: {"value": float(value), "unit": unit}
                for name, (value, unit) in metrics.items()
            },
        }
    )


def benchmark() -> Dict[str, object]:
    """``BENCHMARK.json``: the run length and every metric's name and unit."""
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


def spec() -> Dict[str, object]:
    """The workload records in ``workloads.json``."""
    with open(ROOT / "perfbench" / "workloads.json") as handle:
        return json.load(handle)
