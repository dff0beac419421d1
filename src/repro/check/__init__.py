"""Invariant checking and differential self-verification (``repro.check``).

Three layers of runtime correctness tooling for the measurement substrate
(see ``docs/CORRECTNESS.md``):

* :mod:`repro.check.invariants` — an :class:`InvariantChecker` enforcing
  the :data:`INVARIANTS` registry (physics and accounting properties that
  hold by construction) at instrumented sites in ``latency``, ``atlas``,
  ``core.cbg_batch``, ``cache``, and ``exec``; armed by ``REPRO_CHECK=1``
  / ``--check``, free when off (:data:`NULL_CHECKER`).
* :mod:`repro.check.diff` — a differential harness running campaigns
  through paired paths (batched vs loop CBG, serial vs parallel, cold vs
  warm cache, serving engine vs batch campaign, street-level arrays vs
  scalar oracles) and asserting bitwise equality; exposed as
  ``experiments/run.py --selfcheck`` and a pytest fixture.
* :mod:`repro.check.oracles` — the scalar loops the street-level array
  kernels replaced, kept as their reference.
* :mod:`repro.check.fuzz` — a seeded mini-world fuzzer feeding the
  property suite random-but-valid :class:`~repro.world.config.WorldConfig`
  instances.
"""

from repro.check.diff import (
    DiffOutcome,
    SelfCheckReport,
    diff_batch_vs_loop,
    diff_cold_vs_warm_cache,
    diff_serial_vs_parallel,
    diff_serve_vs_batch,
    diff_street_level,
    diff_topology,
    run_selfcheck,
)
from repro.check.fuzz import fuzz_config, fuzz_configs, scaled_config
from repro.check.invariants import (
    INVARIANTS,
    NULL_CHECKER,
    InvariantChecker,
    NullChecker,
    check_enabled,
    checker_from_env,
)
from repro.errors import InvariantViolation

__all__ = [
    "INVARIANTS",
    "NULL_CHECKER",
    "DiffOutcome",
    "InvariantChecker",
    "InvariantViolation",
    "NullChecker",
    "SelfCheckReport",
    "check_enabled",
    "checker_from_env",
    "diff_batch_vs_loop",
    "diff_cold_vs_warm_cache",
    "diff_serial_vs_parallel",
    "diff_serve_vs_batch",
    "diff_street_level",
    "diff_topology",
    "fuzz_config",
    "fuzz_configs",
    "run_selfcheck",
    "scaled_config",
]
