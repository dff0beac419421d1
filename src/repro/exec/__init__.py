"""Campaign execution: process-pool fan-out with a serial fallback.

See :mod:`repro.exec.pool` for the executor and the determinism
guarantees; ``REPRO_WORKERS`` selects the worker count (default serial).
"""

from repro.exec.pool import (
    chunked,
    default_chunksize,
    parallel_map,
    worker_count,
)

__all__ = [
    "chunked",
    "default_chunksize",
    "parallel_map",
    "worker_count",
]
