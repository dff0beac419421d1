"""Run one benchmark workload and print its metrics.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload serve-churn --seed 1 --seconds 8 --trace 0

``--seconds`` defaults to ``run_seconds`` of ``BENCHMARK.json``.
``--trace 0`` measures the end-to-end metrics; ``--trace 1`` is the
separate traced run that reports the per-layer metrics. Human-readable
lines come first; the last stdout line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``. See README.md.
"""

from __future__ import annotations

import time

#: this process's start, before any import that takes time.
PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path[:0] = [
    str(Path(__file__).resolve().parent.parent / "src"),
    str(Path(__file__).resolve().parent.parent),
]

from perfbench import common  # noqa: E402

#: Seconds a child process (set-up sample, cache fill) may take.
CHILD_TIMEOUT_S = 170.0


def _workload(name: str):
    from perfbench import cbg_subsets, serve_churn, street_targets

    return {
        serve_churn.NAME: serve_churn,
        cbg_subsets.NAME: cbg_subsets,
        street_targets.NAME: street_targets,
    }[name]


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument(
        "--seconds", type=float, default=None, help="default: run_seconds of BENCHMARK.json"
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-only", action="store_true", help="time one set-up and exit (child)"
    )
    parser.add_argument(
        "--fill-cache", action="store_true", help="fill the artifact cache and exit (child)"
    )
    return parser.parse_args(argv)


def _fill_cache() -> bool:
    """Build the paper scenario's cached artifacts if any is missing."""
    from repro.cache.artifacts import ArtifactCache, config_key
    from repro.experiments.scenario import Scenario, config_for_preset

    config = config_for_preset("paper")
    cache = ArtifactCache(common.CACHE_DIR)
    key = config_key(config)
    if all(cache.path(name, key).exists() for name in ("sanitize", "rtt-matrix")):
        return False
    Scenario.build(config, cache=cache).rtt_matrix()
    return True


def _print_metric(name: str, value: float, unit: str, detail: str = "") -> None:
    print(f"{name} = {value:.6g} {unit}{detail}")


def main(argv=None) -> int:
    args = _parse(argv)
    common.pin_environment()
    if not (common.SRC / "repro").is_dir():
        print(f"no program to benchmark: {common.SRC / 'repro'} is missing", file=sys.stderr)
        return 2
    spec = common.spec()
    if args.workload not in spec["workloads"]:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    seconds = args.seconds
    if seconds is None:
        seconds = float(common.benchmark()["run_seconds"])
    params = dict(spec["workloads"][args.workload], seconds=seconds)
    if args.trace:
        # The traced run reports per-layer numbers only: it times one
        # round untraced, for the overhead, then the same round traced.
        params["rounds"] = 1
    seed = spec["default_seed"] if args.seed is None else args.seed

    if args.fill_cache:
        print(json.dumps({"filled": _fill_cache()}))
        return 0
    if args.setup_only:
        _workload(args.workload).setup(seed, params)
        print(json.dumps({"setup_s": time.perf_counter() - PROCESS_START}))
        return 0

    load_before = os.getloadavg()
    if params["warm_restart"]:
        filled = common.run_child(["--workload", args.workload, "--fill-cache"], CHILD_TIMEOUT_S)
        if filled["filled"]:
            print("artifact cache was empty: filled it (untimed)")
    child_args = [
        "--workload", args.workload, "--seed", str(seed),
        "--seconds", str(seconds), "--setup-only",
    ]
    setups = []

    def between_rounds() -> None:
        """One more set-up sample, in a fresh process, between two rounds.

        This process idles while the child runs, so the child does not
        disturb the timing, and the rounds of each op land seconds apart:
        a slow stretch of the shared host rarely covers all of them.
        """
        setups.append(common.run_child(child_args, CHILD_TIMEOUT_S)["setup_s"])

    # This process's own set-up starts here: everything it imported so far
    # is the standard library and the benchmark's plumbing, as in a child
    # at its start.
    setup_start = time.perf_counter()
    workload = _workload(args.workload)
    tracer = None
    if args.trace:
        from perfbench import layers
        from perfbench.layertrace import Tracer

        tracer = Tracer()
        layers.register(tracer)
        tracer.attach()
        tracer.enabled = True
    ctx = workload.setup(seed, params, tracer)
    setups.append(time.perf_counter() - setup_start)

    if tracer is not None:
        tracer.enabled = False
        tracer.detach()
    gc.collect()
    gc.freeze()
    outcome = workload.measure(ctx, seconds, between=between_rounds)
    untraced = outcome
    if tracer is not None:
        gc.collect()
        tracer.attach()
        tracer.enabled = True
        outcome = workload.measure(ctx, seconds, tracer)
        tracer.enabled = False
        tracer.detach()
    checks = workload.verify(ctx, outcome)

    print(f"perfbench {args.workload} seed={seed} seconds={seconds:g} trace={args.trace}")
    print("env: " + json.dumps(common.environment_record(load_before)))
    for line in checks:
        print("check: " + line)
    if "error" in outcome.notes:
        print("the first op that raised:\n" + outcome.notes["error"], file=sys.stderr)
    completed = outcome.completed_ms()
    q = float(params["tail_percentile"])
    tail, samples, beyond = common.tail_percentile(completed, outcome.failures, q)
    p50 = common.median(completed) if completed else common.FAILED_LATENCY_MS
    throughput = len(completed) / outcome.timed_s if outcome.timed_s > 0 else 0.0
    print(
        f"ops attempted {outcome.attempted}, failed {outcome.failures}; each op timed "
        f"{outcome.rounds} times (latency = its fastest), {outcome.total_s:.3f} s in all"
    )
    end_to_end = {
        "setup_s": (common.median(setups), "s"),
        "op_p50_ms": (p50, "ms"),
        "op_tail_ms": (tail, "ms"),
        "throughput_per_s": (throughput, "1/s"),
        "peak_rss_mb": (common.peak_rss_mb(), "MB"),
    }
    _print_metric(
        "setup_s",
        end_to_end["setup_s"][0],
        "s",
        f"  (median of {len(setups)} set-ups, this process's first: "
        f"{', '.join(f'{s:.3f}' for s in setups)})",
    )
    _print_metric("op_p50_ms", p50, "ms", f"  (of {len(completed)} completed ops)")
    _print_metric(
        "op_tail_ms", tail, "ms", f"  (p{q:g} of {samples} ops, {beyond} beyond it)"
    )
    _print_metric("throughput_per_s", throughput, "1/s")
    _print_metric("peak_rss_mb", end_to_end["peak_rss_mb"][0], "MB")

    correct = outcome.failures == 0
    if tracer is None:
        metrics = end_to_end
    else:
        metrics, accounted = _traced_metrics(args, workload, ctx, tracer, untraced, outcome)
        correct = correct and accounted
    print(common.result_line(correct, outcome.attempted, outcome.failures, metrics))
    return 0


def _traced_metrics(args, workload, ctx, tracer, untraced, traced):
    """Per-layer metrics of the traced pass, and whether they account for it.

    The residual is the part of the traced timed phase that no per-layer
    metric reports: the benchmark's own loop, and the self time of every
    span no metric reads (such as an op-level entry point's own code).
    The per-layer metrics account for the op when the residual stays
    within the workload's stated ``residual_bound``.
    """
    from perfbench import layers
    from perfbench.layertrace import SpanStats

    def rate(outcome):
        return len(outcome.completed_ms()) / outcome.timed_s

    values, reported = layers.layer_values(tracer, workload.layer_extra(ctx, traced))
    timed = SpanStats(tracer, timed=True)
    covered = timed.self_total_s(reported)
    residual = 1.0 - covered / traced.total_s
    overhead = rate(untraced) / rate(traced) - 1.0
    bound = float(common.spec()["workloads"][args.workload]["residual_bound"])
    accounted = residual <= bound
    print(
        f"trace: self times the per-layer metrics report cover {covered:.3f} s of the "
        f"{traced.total_s:.3f} s timed phase; residual {residual:.1%} (stated bound "
        f"{bound:.0%}: {'within' if accounted else 'EXCEEDED, so correct is false'})"
    )
    print(
        f"trace: overhead {overhead:+.1%} on throughput "
        f"({rate(untraced):.6g} untraced vs {rate(traced):.6g} traced 1/s); "
        f"p50 {common.median(untraced.completed_ms()):.6g} -> "
        f"{common.median(traced.completed_ms()):.6g} ms"
    )
    for name, seconds in sorted(timed.self_by_name().items(), key=lambda kv: -kv[1]):
        note = "" if name in reported else "  (no metric reports it: residual)"
        print(f"trace: self {name} {seconds:.4f} s{note}")
    values["trace.residual_share"] = residual
    values["trace.overhead_share"] = overhead
    path = common.WORK / f"trace-{args.workload}-seed{ctx['seed']}.npz"
    tracer.write(path)
    print(f"trace: spans written to {path.relative_to(common.ROOT)}")
    metrics = {
        metric["name"]: (float(values.get(metric["name"], 0.0)), metric["unit"])
        for metric in common.benchmark()["per_layer"]
    }
    for name, (value, unit) in metrics.items():
        _print_metric(name, value, unit)
    return metrics, accounted


if __name__ == "__main__":
    sys.exit(main())
