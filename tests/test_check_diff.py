"""Differential harness tests: agreement on healthy paths, failure on broken ones.

Two halves:

* the harness *passes* on the real substrate — all eight paired paths
  (batched vs loop CBG, CSR topology kernel vs scalar path, serial vs
  parallel execution, cold vs warm cache, serving engine vs batch
  campaign, serial vs parallel hint mining, epoch-swapped serving vs
  per-revision batch, street-level array tiers vs scalar oracles) agree
  bitwise, the CLI ``--selfcheck`` exits 0;
* the harness *fails* when a path is deliberately broken — each pair is
  monkeypatched with a divergent implementation and must report the
  divergence (a self-check that cannot fail proves nothing).

Plus the end-to-end injected-violation test: with ``REPRO_CHECK=1`` and a
latency model patched to return impossible RTTs, a quick campaign must
abort with :class:`~repro.errors.InvariantViolation`, surface the
violation in the event stream, and record the aborted checked run in the
run-dir manifest.
"""

import json
import os

import numpy as np
import pytest

from repro.check.diff import (
    diff_batch_vs_loop,
    diff_cold_vs_warm_cache,
    diff_hints,
    diff_serial_vs_parallel,
    diff_serve_under_churn,
    diff_serve_vs_batch,
    diff_street_level,
    diff_topology,
)
from repro.errors import InvariantViolation
from repro.experiments import run as run_cli
from repro.experiments.scenario import Scenario, config_for_preset


@pytest.fixture(scope="module")
def quick_scenario():
    return Scenario.build(config_for_preset("quick"))


class TestHealthyPaths:
    def test_selfcheck_report_all_ok(self, selfcheck_report):
        assert selfcheck_report.ok
        assert len(selfcheck_report.outcomes) == 8
        assert {o.pair for o in selfcheck_report.outcomes} == {
            "cbg: batch vs loop",
            "topology: csr vs scalar",
            "exec: serial vs parallel",
            "cache: cold vs warm",
            "serve: engine vs batch",
            "hints: serial vs parallel",
            "serve: epochs vs batch",
            "street: arrays vs scalar",
        }
        for outcome in selfcheck_report.outcomes:
            assert outcome.compared > 0

    def test_report_renders_verdict(self, selfcheck_report):
        text = selfcheck_report.render()
        assert "all paths agree" in text
        assert "DIVERGED" not in text

    def test_cli_selfcheck_exits_zero(self, capsys):
        assert run_cli.main(["--selfcheck", "--preset", "quick"]) == 0
        assert "all paths agree" in capsys.readouterr().out

    def test_cli_requires_experiment_or_selfcheck(self, capsys):
        with pytest.raises(SystemExit):
            run_cli.main(["--preset", "quick"])
        assert "--selfcheck" in capsys.readouterr().err


def _perturbed_batch(original):
    def broken(*args, **kwargs):
        return original(*args, **kwargs) + 1.0

    return broken


def _env_dependent_trial(
    vp_lats, vp_lons, matrix, target_lats, target_lons, seed, label, size, obs,
    checker, trial,
):
    """Stands in for ``fig2._trial_median``: diverges only under workers.

    Takes the worker's signature, since the campaign binds its arrays to
    whatever ``fig2._trial_median`` names when the fan-out starts. The
    serial leg of the diff runs with ``REPRO_WORKERS`` unset and sees the
    clean value; the parallel leg sets it and sees the perturbed one.
    """
    value = size * 10.0 + trial
    if os.environ.get("REPRO_WORKERS"):
        value += 0.125
    return value


from repro.hints.trie import _find_one as _real_find_one


def _env_dependent_find(names, trie, obs, index):
    """Stands in for ``hints.trie._find_one``: diverges only under workers.

    The serial leg sees real matches, the parallel leg (``REPRO_WORKERS``
    set) sees none.
    """
    result = _real_find_one(names, trie, obs, index)
    if os.environ.get("REPRO_WORKERS"):
        return None
    return result


class TestBrokenPaths:
    def test_broken_batch_kernel_is_caught(self, quick_scenario, monkeypatch):
        from repro.core import cbg_batch

        monkeypatch.setattr(
            cbg_batch,
            "cbg_errors_batch",
            _perturbed_batch(cbg_batch.cbg_errors_batch),
        )
        outcome = diff_batch_vs_loop(quick_scenario)
        assert not outcome.ok
        assert "diverges" in outcome.detail

    def test_broken_csr_kernel_is_caught(self, quick_scenario, monkeypatch):
        from repro.topology.csr import CsrRouterGraph

        original = CsrRouterGraph.path_km_matrix

        def broken(self, src_host_ids, dst_host_ids):
            return original(self, src_host_ids, dst_host_ids) + 1.0

        monkeypatch.setattr(CsrRouterGraph, "path_km_matrix", broken)
        outcome = diff_topology(quick_scenario)
        assert not outcome.ok
        assert "diverges" in outcome.detail

    def test_broken_parallel_path_is_caught(self, quick_scenario, monkeypatch):
        from repro.experiments import fig2

        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        monkeypatch.setattr(fig2, "_trial_median", _env_dependent_trial)
        outcome = diff_serial_vs_parallel(quick_scenario, trials=2, workers=2)
        assert not outcome.ok
        assert "diverges" in outcome.detail

    def test_broken_serve_engine_is_caught(self, quick_scenario, monkeypatch):
        from repro.serve import engine as serve_engine

        # Only the engine's solver breaks: the batch side runs the same
        # solver class, so patching the class would break both alike.
        class BrokenSolver(serve_engine.CbgBatchSolver):
            def centroids(self, columns=None, vps=None, obs=None):
                lats, lons = super().centroids(columns, vps)
                return lats + 0.5, lons

        monkeypatch.setattr(serve_engine, "CbgBatchSolver", BrokenSolver)
        outcome = diff_serve_vs_batch(quick_scenario)
        assert not outcome.ok
        assert "diverges" in outcome.detail

    def test_frozen_epoch_swap_is_caught(self, quick_scenario, monkeypatch):
        """An install_epoch that silently drops the swap must diverge.

        The engine then keeps serving the base-snapshot memo while the
        batch side scores each revision's canonical matrix — exactly the
        stale-answer failure the leg exists to rule out.
        """
        from repro.serve import engine as serve_engine

        monkeypatch.setattr(
            serve_engine.ServeEngine,
            "install_epoch",
            lambda self, state, label="": 0,
        )
        outcome = diff_serve_under_churn(quick_scenario)
        assert not outcome.ok
        assert "diverges" in outcome.detail

    def test_broken_hint_finder_is_caught(self, quick_scenario, monkeypatch):
        from repro.hints import trie as hints_trie

        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        monkeypatch.setattr(hints_trie, "_find_one", _env_dependent_find)
        outcome = diff_hints(quick_scenario, workers=2)
        assert not outcome.ok
        assert "matches diverge" in outcome.detail

    def test_unsound_verifier_is_caught(self, quick_scenario, monkeypatch):
        """A verifier that confirms everything must trip cbg.containment."""
        import dataclasses

        import repro.hints as hints_pkg
        from repro.hints.verify import verify_hints as real_verify

        def confirm_everything(scenario, matches, confirm_radius_km=None, obs=None, checker=None):
            verified = real_verify(scenario, matches, obs=obs, checker=checker)
            return [
                dataclasses.replace(hint, verdict="confirmed") for hint in verified
            ]

        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        monkeypatch.setattr(hints_pkg, "verify_hints", confirm_everything)
        outcome = diff_hints(quick_scenario, workers=2)
        assert not outcome.ok
        assert "cbg.containment" in outcome.detail

    @pytest.mark.parametrize("kernel", ["repair walk", "nearest city", "traceroute"])
    def test_broken_street_kernel_is_caught(self, quick_scenario, monkeypatch, kernel):
        """A street-level array kernel that strays from its oracle diverges.

        The breaks are small on purpose: a repair walk that declares its
        start feasible, a city lookup that hands a circle's answers out in
        reverse order, and traceroutes one nanosecond slow on every hop.
        """
        import dataclasses

        from repro.geo import regions
        from repro.latency.model import LatencyModel
        from repro.world.cities import CityIndex

        if kernel == "repair walk":
            monkeypatch.setattr(
                regions,
                "_repair_point",
                lambda start, circles, max_iterations=80, arrays=None: start,
            )
        elif kernel == "nearest city":
            lookup = CityIndex.nearest_many
            monkeypatch.setattr(
                CityIndex,
                "nearest_many",
                lambda self, points, max_distance_km=None: lookup(
                    self, points, max_distance_km
                )[::-1],
            )
        else:
            kernel_fn = LatencyModel.traceroutes

            def slow(self, pairs, seq=0):
                return [
                    dataclasses.replace(
                        trace,
                        hops=tuple(
                            dataclasses.replace(hop, rtt_ms=hop.rtt_ms + 1e-6)
                            for hop in trace.hops
                        ),
                    )
                    for trace in kernel_fn(self, pairs, seq)
                ]

            monkeypatch.setattr(LatencyModel, "traceroutes", slow)
        outcome = diff_street_level(quick_scenario)
        assert not outcome.ok
        assert "diverges" in outcome.detail

    def test_broken_cache_is_caught(self, monkeypatch):
        from repro.cache.artifacts import ArtifactCache

        monkeypatch.setattr(ArtifactCache, "load", lambda self, kind, key: None)
        outcome = diff_cold_vs_warm_cache(config_for_preset("quick"))
        assert not outcome.ok
        assert "never hit the cache" in outcome.detail

    def test_cli_selfcheck_exits_nonzero_on_divergence(self, monkeypatch, capsys):
        from repro.core import cbg_batch

        monkeypatch.setattr(
            cbg_batch,
            "cbg_errors_batch",
            _perturbed_batch(cbg_batch.cbg_errors_batch),
        )
        assert run_cli.main(["--selfcheck", "--preset", "quick"]) == 1
        out = capsys.readouterr().out
        assert "DIVERGED" in out
        assert "DIVERGENCE" in out


def _rtt_scaling_patch(monkeypatch, factor=0.1):
    """Scale campaign RTTs (seq 0) to physically impossible values.

    The anchor mesh (seq 999) and probe sanitization (seq 7) stay intact,
    so the scenario builds cleanly; only the experiment campaign violates
    the speed of Internet. The in-model SOI check runs on the unscaled
    values, so the violation surfaces downstream — in CBG containment.
    """
    from repro.latency.model import LatencyModel

    original = LatencyModel.bulk_min_rtt

    def broken(self, src_host_ids, dst, packets=3, seq=0):
        result = original(self, src_host_ids, dst, packets=packets, seq=seq)
        return result * factor if seq == 0 else result

    monkeypatch.setattr(LatencyModel, "bulk_min_rtt", broken)


class TestInjectedViolation:
    def test_checked_campaign_aborts_and_documents(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CHECK", "1")
        _rtt_scaling_patch(monkeypatch)
        run_dir = tmp_path / "run"
        with pytest.raises(InvariantViolation) as excinfo:
            run_cli.main(
                [
                    "fig2a",
                    "--preset",
                    "quick",
                    "--trials",
                    "1",
                    "--run-dir",
                    str(run_dir),
                ]
            )
        assert "cbg.containment" in str(excinfo.value)

        manifest = json.loads((run_dir / "manifest.json").read_text())
        assert manifest["check_mode"] == "on"
        assert manifest["outcome"].startswith("error: InvariantViolation")
        events = (run_dir / "events.jsonl").read_text()
        assert "invariant-violation" in events
        assert manifest["events"]["by_type"].get("invariant-violation", 0) >= 1

    def test_clean_checked_campaign_passes(self, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_CHECK", "1")
        assert (
            run_cli.main(["fig2a", "--preset", "quick", "--trials", "2"]) == 0
        )
        assert "CBG median error" in capsys.readouterr().out
