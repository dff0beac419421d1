"""Batched CBG: all targets of a campaign in one vectorised pass.

:func:`repro.core.cbg.cbg_centroid_fast` is already vectorised *within* one
target, but the paper's campaign experiments (Figure 2, §5.1.1) call it
hundreds of thousands of times from Python loops — once per (subset,
target) pair — recomputing per-VP trigonometry and paying numpy dispatch
for every call. This module computes the centroids of *all* targets of a
subset in one pass, bitwise identical to the per-target loop.

**Design: exact numbers, certified decisions, exact fallback.** Every
*number* that reaches the output (grid sample coordinates, spherical
means, error distances) is produced by exactly the operation sequence the
reference path uses, so those floats are bitwise identical. The boolean
*decisions* along the way are resolved by three complementary devices:

1. *Binding superset (float32).* The reference marks circle ``v`` binding
   for target ``t`` iff ``radii[v,t] < dist(v, center_t) + r_min[t]``.
   The kernel does not reproduce that set — it computes a cheap
   *superset* with one float32 matmul (haversine argument
   ``a' = (1 − u·v)/2`` against the threshold ``a* = sin²((radii −
   r_min)/2R)``, widened by a band far larger than float32 error). A
   superset is sufficient because any non-binding circle contains the
   whole tightest circle, hence every grid sample, with at least the
   0.5 km feasibility slack to spare: in real arithmetic
   ``dist(v, sample) ≤ dist(v, center) + r_min ≤ radii[v,t]``, so the
   certified feasibility test below classifies every extra member as
   feasible-for-sure and the resulting feasible mask is exactly the
   reference's.
2. *Certified feasibility (float64).* The reference keeps sample ``s``
   iff ``dist(active, s) − radius ≤ 0.5`` for every active circle. The
   kernel compares ``a' = (1 − u·v)/2`` (one batched float64 matmul)
   against ``a* = sin²((radius + 0.5)/2R)`` with a certified error band:
   outside the band the decision provably matches the reference
   comparison; a column with any element inside the band (nanometre-scale
   distance slack — essentially never hit by real data) is recomputed
   exactly.
3. *Exact resolution and fallback.* Columns whose candidate set overflows
   ``max_active`` are resolved in-path by replaying the reference's own
   binding test and slack-sort trim (vectorised over just those columns,
   on identically-built arrays — bitwise by construction). Columns
   flagged by the feasibility band and columns with no feasible sample
   (the reference picks the least-violating sample) are delegated to
   :func:`repro.core.cbg.cbg_centroid_fast` itself, which is bitwise
   exact tautologically.

**Why the bands are sound.** For points given by the same lat/lon
doubles, the reference's haversine argument and the kernel's
``(1 − u·v)/2`` are equal as real numbers; in float64 they differ by
~1e-15, and the threshold inversion ``a* = sin²(c/2R)`` plus the
reference's own rounding of ``dist − r`` shift the boundary by a few
ulps more. The feasibility band of ``1e-13 + 1e-13·a*`` is two orders of
magnitude wider than those errors while still corresponding to
sub-micrometre distance slack. The float32 superset band of ``1e-5``
exceeds worst-case float32 evaluation error (~1e-6) by 10×, and admits
only circles within a few km of the binding boundary — which the
0.5 km-margin argument above renders harmless.

**One solver, one resident slot.** :class:`CbgBatchSolver` is the only
code that derives the constraint arrays and drives the block kernel. The
arrays that depend only on (matrix, soi_fraction) — constraint radii and
the float32 radius trig for the superset test — plus the per-target
stats and the VP unit vectors are derived once per solver, stored
*targets-major* (transposed), so every per-target reduction, the
candidate ``nonzero`` walk, and the argmin for the tightest circle run
over contiguous memory. A VP subset is an argument of
:meth:`CbgBatchSolver.centroids`: full width, full width with the other
rows masked (near-full sorted subsets), or gathered rows — a subset call
then pays row gathers instead of transcendental passes. Campaigns call
the kernel repeatedly with the *same* RTT matrix (Figure 2a runs
hundreds of random subsets over one matrix), so
:func:`cbg_centroids_batch` keeps one resident solver in a module slot.
The slot is keyed on everything its answers depend on (matrix identity,
soi_fraction, bitwise VP coordinates, max_active, min_vps) and claimed
on the second sighting of a matrix, so throwaway masked copies (Figure
2c cutoffs) do not churn it; a first sighting solves a throwaway solver
over the subset's rows. Slot and throwaway calls produce
bitwise-identical results; only ``cbg.batch_exact_fallback`` counts
columns that took the exact path (typically a handful per thousand).

The result is pinned by the parity suite in ``tests/test_cbg_batch.py``:
outputs are bitwise identical to the per-target loop, which is preserved
below as :func:`cbg_errors_for_subsets_loop` for parity tests and
benchmarks.
"""

from __future__ import annotations

import math
import weakref
from typing import Callable, Optional, Tuple

import numpy as np

from repro.check.invariants import NULL_CHECKER
from repro.constants import EARTH_RADIUS_KM, MAX_GREAT_CIRCLE_KM, SOI_FRACTION_CBG
from repro.core.cbg import _GRID_BEARINGS, _GRID_FRACTIONS, cbg_centroid_fast
from repro.obs.observer import NULL_OBSERVER

#: Element budget per broadcast block (memory knob; any value produces
#: identical results): the block's (targets x vps) scratch arrays stay
#: around this many elements, so narrow subsets run as one block while
#: wide ones split into cache-friendly chunks.
TARGET_CHUNK_ELEMENTS = 1_310_720


def _adaptive_chunk(width: int) -> int:
    """Targets per block for a given VP-axis width."""
    return int(np.clip(TARGET_CHUNK_ELEMENTS // max(width, 1), 128, 1024))

#: Radian/trig grids shared by every batch call (the reference path derives
#: the same values from ``_GRID_BEARINGS`` on each call).
_THETA = np.radians(_GRID_BEARINGS)
_COS_THETA = np.cos(_THETA)
_SIN_THETA = np.sin(_THETA)

#: Great-circle diameter used by the reference distance chain
#: (``2.0 * 6371.0088`` folded by the Python parser, as in the reference).
_TWO_R = 2.0 * EARTH_RADIUS_KM
#: Largest value the reference float chain ``2R * arcsin(sqrt(clip(a)))``
#: can produce; thresholds at or above it are decided without inversion.
_DIST_MAX = _TWO_R * math.asin(1.0) + 1e-6

#: Certified feasibility band in haversine-argument space (see module doc).
_BAND_ABS = 1e-13
_BAND_REL = 1e-13

#: Binding-superset band in float32 haversine-argument space: ~10x the
#: worst-case float32 evaluation error, so no truly binding circle is
#: ever missed (see module doc for why extras are harmless).
_SUPERSET_BAND = np.float32(1e-5)


def _bucket_caps(max_active: int) -> list:
    """Feasibility-tensor bucket capacities: 4, 8, ... up to ``max_active``."""
    caps = []
    cap = 4
    while cap < max_active:
        caps.append(cap)
        cap *= 2
    caps.append(max_active)
    return caps


def _unit_vectors(lats: np.ndarray, lons: np.ndarray) -> np.ndarray:
    """Unit sphere vectors, shape (n, 3); decision-only operands."""
    phi = np.radians(lats)
    lam = np.radians(lons)
    cos_phi = np.cos(phi)
    out = np.empty((lats.shape[0], 3))
    out[:, 0] = cos_phi * np.cos(lam)
    out[:, 1] = cos_phi * np.sin(lam)
    out[:, 2] = np.sin(phi)
    return out


# --- per-matrix derived arrays ---------------------------------------------------


def _min_and_first(radii_t: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Per-target (min radius, first-argmin index).

    The min is a NaN-skipping reduce (exact: a min is one of its operands
    and skipping NaN is the reference's answered filter); the index is the
    first match, i.e. the reference's first-argmin over its filtered array,
    found by a reversed scatter of the match positions (later rows
    overwrite, so each target keeps its first). All-NaN rows get a NaN min
    (never valid) and index 0 (never read), and so do the rows of a
    zero-width VP axis, on which ``fmin`` has no identity to reduce from.
    """
    if radii_t.shape[1] == 0:
        return np.full(radii_t.shape[0], np.nan), np.zeros(radii_t.shape[0], dtype=np.intp)
    r_min = np.fmin.reduce(radii_t, axis=1)
    rows, vps = np.nonzero(radii_t == r_min[:, None])
    tightest = np.zeros(radii_t.shape[0], dtype=np.intp)
    tightest[rows[::-1]] = vps[::-1]
    return r_min, tightest


def _target_stats(radii_t: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-target (answered count, min radius, first-argmin index)."""
    counts = radii_t.shape[1] - np.isnan(radii_t).sum(axis=1)
    r_min, tightest = _min_and_first(radii_t)
    return counts, r_min, tightest


def _compute_derived(
    rtts: np.ndarray, soi_fraction: float
) -> Tuple[np.ndarray, np.ndarray]:
    """Exact constraint radii and float32 radius trig (any shape).

    Elementwise ufunc values are shape- and layout-independent, so these
    match the reference's per-column chains bitwise regardless of the
    (transposed, sliced) layout they are computed in.
    """
    # RTT -> constraint radius, elementwise as in the reference (NaN
    # propagates and is masked out downstream). The trig is stored for the
    # double angle radii/R, packed as cos + i*sin in one complex64 array:
    # a single complex multiply by cos(m) - i*sin(m) then puts
    # cos((radii - r_min)/R) in the real part, and one gather moves both
    # components.
    radii = np.minimum(
        (rtts / 2000.0) * soi_fraction * 299_792.458, MAX_GREAT_CIRCLE_KM
    )
    with np.errstate(invalid="ignore"):
        arg = (radii / EARTH_RADIUS_KM).astype(np.float32)
        trig = np.empty(radii.shape, dtype=np.complex64)
        trig.real = np.cos(arg)
        trig.imag = np.sin(arg)
    return radii, trig


def _vp_subset(vps, n_vps: int) -> Optional[np.ndarray]:
    """``vps`` as an index array; ``None`` when it selects every row in order."""
    if vps is None:
        return None
    vps = np.asarray(vps)
    if vps.size == 0:
        return vps.astype(np.intp)  # ``[]`` parses as float64
    if vps.size == n_vps and np.array_equal(vps, np.arange(n_vps)):
        return None  # a full-range subset selects nothing; skip gathers
    return vps


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    """The same array object, or equal shapes holding the same bytes."""
    return a is b or (a.shape == b.shape and a.tobytes() == b.tobytes())


#: The resident campaign solver (one slot) plus the last matrix that
#: missed it, so the slot is only claimed by matrices seen at least twice.
_SOLVER_SLOT: Optional["CbgBatchSolver"] = None
_LAST_MISS: Optional[Tuple["weakref.ref", float]] = None


def _resident_solver(
    vp_lats: np.ndarray,
    vp_lons: np.ndarray,
    rtt_matrix: np.ndarray,
    soi_fraction: float,
    max_active: int,
    min_vps: int,
) -> Optional["CbgBatchSolver"]:
    """The slot's solver when it answers this call, building it on reuse.

    The slot answers a call only when everything the answers depend on
    matches: the same matrix object (the solver holds it, so its ``id``
    cannot be recycled), ``soi_fraction``, ``max_active``, ``min_vps``,
    and VP coordinates that are the same objects or bitwise equal. A
    first sighting of a matrix returns ``None`` (the caller solves the
    subset's rows directly); the second builds a full-table solver into
    the slot, dropping the old one first so two are never alive at once.
    """
    global _SOLVER_SLOT, _LAST_MISS
    vp_lats = np.asarray(vp_lats, dtype=np.float64)
    vp_lons = np.asarray(vp_lons, dtype=np.float64)
    solver = _SOLVER_SLOT
    if (
        solver is not None
        and solver.matrix is rtt_matrix
        and solver.soi_fraction == soi_fraction
        and solver.max_active == max_active
        and solver.min_vps == min_vps
        and _same_bits(solver.vp_lats, vp_lats)
        and _same_bits(solver.vp_lons, vp_lons)
    ):
        return solver
    if (
        _LAST_MISS is not None
        and _LAST_MISS[0]() is rtt_matrix
        and _LAST_MISS[1] == soi_fraction
    ):
        _LAST_MISS = None
        _SOLVER_SLOT = solver = None
        _SOLVER_SLOT = CbgBatchSolver(
            vp_lats, vp_lons, rtt_matrix, soi_fraction, max_active, min_vps
        )
        return _SOLVER_SLOT
    _LAST_MISS = (weakref.ref(rtt_matrix), soi_fraction)
    return None


def cbg_centroids_batch(
    vp_lats: np.ndarray,
    vp_lons: np.ndarray,
    rtt_matrix: np.ndarray,
    subset: Optional[np.ndarray] = None,
    soi_fraction: float = SOI_FRACTION_CBG,
    max_active: int = 64,
    min_vps: int = 1,
    obs=NULL_OBSERVER,
) -> Tuple[np.ndarray, np.ndarray]:
    """Approximate CBG centroids for every target column, in one pass.

    Runs through :class:`CbgBatchSolver`: the resident solver in the
    module slot when it holds this matrix (see the module doc), otherwise
    a throwaway solver over the subset's rows.

    Args:
        vp_lats: latitudes of *all* vantage points (degrees).
        vp_lons: longitudes, aligned.
        rtt_matrix: min-RTT matrix, shape (all VPs, targets); NaN = no
            answer. A NaN entry is exactly equivalent to excluding that
            vantage point for that target, so per-target VP selections can
            be expressed by masking the matrix.
        subset: indices (into the VP axis) of the vantage points to use;
            ``None`` uses every row.
        soi_fraction: RTT-to-distance conversion speed.
        max_active: cap on binding constraints per target (the tightest
            win), as in :func:`cbg_centroid_fast`. Columns that exceed the
            cap are trimmed by replaying the reference's exact slack sort.
        min_vps: minimum answering vantage points per target.
        obs: campaign observer; counters only (``cbg.fast_calls`` /
            ``cbg.fast_no_estimate`` / ``cbg.batch_exact_fallback``),
            bumped in bulk so call totals match the per-target loop.

    Returns:
        ``(lats, lons)`` arrays of shape (targets,): the centroid per
        target, NaN where fewer than ``min_vps`` vantage points answered.
        Values are bitwise identical to running
        :func:`cbg_centroid_fast` per column.
    """
    rtt_matrix = np.asarray(rtt_matrix, dtype=np.float64)
    if rtt_matrix.ndim != 2:
        raise ValueError(f"rtt_matrix must be 2-D, got shape {rtt_matrix.shape}")
    solver = _resident_solver(
        vp_lats, vp_lons, rtt_matrix, soi_fraction, max_active, min_vps
    )
    if solver is not None:
        return solver.centroids(vps=subset, obs=obs)
    subset = _vp_subset(subset, rtt_matrix.shape[0])
    if subset is not None:
        vp_lats = np.asarray(vp_lats, dtype=np.float64)[subset]
        vp_lons = np.asarray(vp_lons, dtype=np.float64)[subset]
        rtt_matrix = rtt_matrix[subset]
    solver = CbgBatchSolver(
        vp_lats, vp_lons, rtt_matrix, soi_fraction, max_active, min_vps
    )
    return solver.centroids(obs=obs)


def _centroid_block(
    lats: np.ndarray,
    lons: np.ndarray,
    uvec: np.ndarray,
    u32: np.ndarray,
    radii_t: np.ndarray,
    trig_t: np.ndarray,
    rtt_col: Callable[[int], np.ndarray],
    col_offset: int,
    soi_fraction: float,
    max_active: int,
    min_vps: int,
    out_lats: np.ndarray,
    out_lons: np.ndarray,
    stats: Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]] = None,
    inset: Optional[np.ndarray] = None,
) -> Tuple[int, int]:
    """Solve one block of target columns; writes into the output slices.

    The per-element inputs arrive targets-major, shape (cols, vps), so
    every per-target reduction below runs over contiguous rows. ``stats``
    optionally supplies precomputed per-target (counts, r_min, tightest);
    ``inset`` marks the vantage points actually in the subset when the
    block runs full width with exclusions (near-full mode). Returns
    ``(starved, exact_fallbacks)`` for the block.
    """
    cols, n_vps = radii_t.shape
    if stats is not None:
        counts, r_min, tightest = stats
        valid = counts >= max(min_vps, 1)
    else:
        r_min, tightest = _min_and_first(radii_t)
        if min_vps <= 1:
            # >= 1 answered VP is exactly "the NaN-skipping min is finite",
            # so the answered-count pass can be skipped entirely.
            valid = ~np.isnan(r_min)
        else:
            counts = n_vps - np.isnan(radii_t).sum(axis=1)
            valid = counts >= min_vps
    starved = int(cols - valid.sum())
    if not valid.any():
        return starved, 0

    col_idx = np.arange(cols)
    center_lat = lats[tightest]
    center_lon = lons[tightest]

    # Degenerate zero-radius circles pin the estimate at the tightest VP.
    degenerate = valid & (r_min <= 0.0)
    if degenerate.any():
        out_lats[degenerate] = center_lat[degenerate]
        out_lons[degenerate] = center_lon[degenerate]
    live = valid & ~degenerate
    if not live.any():
        return starved, 0

    # --- binding superset (float32) ----------------------------------------------
    # Candidate iff a' > a* - band, where a' = (1 - d)/2 with d the unit
    # vector dot product (one sgemm) and a* = sin^2((radii - r_min)/2R).
    # Via the double-angle identity 1 - 2a* = cos((radii - r_min)/R), the
    # test collapses to d < cos(radii/R)cos(r_min/R) + sin(radii/R)
    # sin(r_min/R) + 2band over the cached radius trig. The cached trig is
    # packed as complex64 (cos + i sin), so the two products collapse into
    # one complex multiply — Re((cos + i sin)(cos_m - i sin_m)) is exactly
    # cos*cos_m + sin*sin_m with the same float32 roundings — halving the
    # number of passes over the big array. The band guarantees every truly
    # binding circle is included; extras are harmless (module doc), and
    # unanswered entries have NaN thresholds, which compare False (as do
    # dead columns, whose r_min is NaN).
    with np.errstate(invalid="ignore"):
        dots = u32[tightest] @ u32.T  # (cols, vps)
        arg_m = r_min / EARTH_RADIUS_KM
        rot = np.empty(cols, dtype=np.complex64)
        rot.real = np.cos(arg_m)
        rot.imag = -np.sin(arg_m)
        prod = trig_t * rot[:, None]
        bound = prod.real + np.float32(2.0) * _SUPERSET_BAND
        cand = dots < bound
    if inset is not None:
        cand &= inset[None, :]  # excluded columns are not constraints
    cand[col_idx, tightest] = False
    cand[~live] = False
    ccount = cand.sum(axis=1)

    # Columns whose candidate set overflows max_active are resolved with
    # the reference's own arithmetic, vectorised over just those columns:
    # the exact bulk_haversine chain to each tightest centre reproduces
    # the reference's binding mask bitwise, and columns that truly
    # overflow replay the reference's slack argsort on identically-built
    # compacted arrays (same bytes in, same order out — argsort is
    # deterministic). The resolved columns rejoin the fast path with their
    # exact active sets, so overflow never forces a per-column fallback.
    needs_exact = np.zeros(cols, dtype=bool)
    suspects = np.nonzero(live & (ccount > max_active))[0]
    if suspects.size:
        phi1 = np.radians(lats)
        cos_phi1 = np.cos(phi1)
        phi2 = np.radians(center_lat[suspects])
        dphi = phi2[:, None] - phi1[None, :]
        dlambda = np.radians(center_lon[suspects][:, None] - lons[None, :])
        a = (
            np.sin(dphi / 2.0) ** 2
            + cos_phi1[None, :] * np.cos(phi2)[:, None] * np.sin(dlambda / 2.0) ** 2
        )
        a = np.clip(a, 0.0, 1.0)
        to_t = 2.0 * EARTH_RADIUS_KM * np.arcsin(np.sqrt(a))
        radii_sus = radii_t[suspects]
        if inset is not None:
            radii_sus[:, ~inset] = np.nan  # fancy index above made a copy
        with np.errstate(invalid="ignore"):
            binding = radii_sus < to_t + r_min[suspects][:, None]
        binding[np.arange(suspects.size), tightest[suspects]] = False
        bcount = binding.sum(axis=1)
        for row in np.nonzero(bcount > max_active)[0]:
            answered = ~np.isnan(radii_sus[row])
            slack = radii_sus[row, answered] - to_t[row, answered]
            order = np.argsort(np.where(binding[row, answered], slack, np.inf))
            kept = np.zeros(n_vps, dtype=bool)
            kept[np.nonzero(answered)[0][order[:max_active]]] = True
            binding[row] = kept
        cand[suspects] = binding
        ccount[suspects] = binding.sum(axis=1)
    live_fast = live.copy()

    # Grid samples around each tightest center (bulk_destination, broadcast
    # over targets; these floats feed the output, so every operation
    # mirrors the reference chain). Dead and delegated columns get a zero
    # radius so no NaN/inf enters the trig.
    r_min_work = np.where(live_fast, r_min, 0.0)
    phi1c = np.radians(center_lat)
    sin_phi1c = np.sin(phi1c)
    cos_phi1c = np.cos(phi1c)
    lambda1c = np.radians(center_lon)
    delta = (_GRID_FRACTIONS[None, :] * r_min_work[:, None]) / EARTH_RADIUS_KM
    cos_delta = np.cos(delta)
    sin_delta = np.sin(delta)
    sin_phi2g = np.clip(
        sin_phi1c[:, None] * cos_delta
        + (cos_phi1c[:, None] * sin_delta) * _COS_THETA[None, :],
        -1.0,
        1.0,
    )
    phi2g = np.arcsin(sin_phi2g)
    y = (_SIN_THETA[None, :] * sin_delta) * cos_phi1c[:, None]
    x = cos_delta - sin_phi1c[:, None] * sin_phi2g
    lambda2 = lambda1c[:, None] + np.arctan2(y, x)
    sample_lats = np.degrees(phi2g)
    sample_lons = (np.degrees(lambda2) + 180.0) % 360.0 - 180.0

    # Sample unit-sphere coordinates. These exact arrays serve double
    # duty: operands of the certified feasibility test below, and the
    # buffers whose extracted means produce the reference's spherical
    # mean bitwise.
    phi_g = np.radians(sample_lats)
    lam_g = np.radians(sample_lons)
    cos_phi_g = np.cos(phi_g)
    xg = cos_phi_g * np.cos(lam_g)
    yg = cos_phi_g * np.sin(lam_g)
    zg = np.sin(phi_g)
    samples = sample_lats.shape[1]

    # --- certified feasibility (float64) -----------------------------------------
    # The reference keeps sample s iff for every active circle
    #   dist(active, s) - radius <= 0.5 km.
    # Columns are processed in buckets by candidate count, so the padded
    # (columns x actives x samples) tensor of each bucket is sized for its
    # members instead of the block-wide maximum (candidate counts are
    # heavy-tailed: the mean is ~10 while the cap is 64). Within a bucket,
    # ``nonzero`` on the targets-major mask walks (target, vp) in VP order
    # per target — the same order as the reference's boolean-mask
    # compaction — in O(candidates) instead of a sort per column; padded
    # slots point at row 0 with an infinite radius, so they are feasible
    # for every sample. One batched matmul yields a'; subtracting the
    # banded lower threshold lo = a* - band turns it into a margin, whose
    # per-column max decides each sample: max < 0 means feasible for
    # sure, a max inside the band window means a borderline element that
    # cannot be masked by a sure-infeasible one — those columns fall back
    # to the exact path.
    feasible = np.ones((cols, samples), dtype=bool)
    tensor_idx = np.nonzero(live_fast & (ccount > 0))[0]
    bucket_lo = 0
    for cap in _bucket_caps(max_active):
        sel = tensor_idx[
            (ccount[tensor_idx] > bucket_lo) & (ccount[tensor_idx] <= cap)
        ]
        bucket_lo = cap
        n_b = sel.size
        if n_b == 0:
            continue
        cc_b = ccount[sel]
        tgt_of, vp_of = np.nonzero(cand[sel])
        seg_start = np.cumsum(cc_b) - cc_b
        rank = np.arange(tgt_of.size) - seg_start[tgt_of]
        front = np.zeros((cap, n_b), dtype=np.intp)
        front[rank, tgt_of] = vp_of
        pad = np.arange(cap)[:, None] >= cc_b[None, :]
        act_radii = np.where(pad, np.inf, radii_t[sel[None, :], front])
        smp_u = np.empty((n_b, 3, samples))
        smp_u[:, 0, :] = xg[sel]
        smp_u[:, 1, :] = yg[sel]
        smp_u[:, 2, :] = zg[sel]
        # The margin a' - lo = (1 - d)/2 - lo is evaluated as
        # (-0.5)·d + (0.5 - lo) by scaling the active unit vectors once
        # (small array) and folding the constant into the per-circle
        # offset — one matmul plus one in-place add instead of three
        # full-tensor passes. The regrouping shifts the value by ~1 ulp,
        # which the certification band dwarfs; circles that reach
        # everywhere get a -inf offset (feasible for sure) instead of a
        # masked overwrite.
        act_u = uvec[front.T] * -0.5  # (n_b, cap, 3), contiguous
        with np.errstate(invalid="ignore"):
            c_feas = act_radii + 0.5  # (cap, n_b)
            th = np.sin(c_feas / _TWO_R)
            np.square(th, out=th)
            off = 0.5 - (th - (_BAND_ABS + _BAND_REL * th))
            off[c_feas >= _DIST_MAX] = -np.inf  # reaches everywhere
        dots3 = np.matmul(act_u, smp_u)  # (n_b, cap, samples)
        np.add(dots3, off.T[:, :, None], out=dots3)  # margin above band edge
        margin_max = dots3.max(axis=1)  # (n_b, samples)
        feasible[sel] = margin_max < 0.0
        uncertain = (margin_max >= 0.0) & (
            margin_max <= 2.0 * (_BAND_ABS + _BAND_REL)
        )
        needs_exact[sel] |= uncertain.any(axis=1)

    # Columns with no feasible sample fall back to the reference's
    # least-violating-sample repair step (exact argmin over violations).
    needs_exact |= live_fast & ~feasible.any(axis=1)
    live_fast &= ~needs_exact

    # Per-target finish: spherical mean of the feasible samples. Targets
    # are grouped by their feasible count k, so each group's means run as
    # one contiguous (group, k) row-wise reduce — numpy's row-wise
    # pairwise summation over a contiguous last axis is bitwise identical
    # to the 1-D reduce inside the reference's .mean() (pinned by the
    # parity suite). Compaction via a boolean mask on the row block
    # preserves per-row sample order, matching the reference's
    # feasible-sample gather. Only the cheap scalar tail (pow/sqrt/asin/
    # atan2, which numpy scalars and math.* round identically) stays
    # per-target.
    live_idx = np.nonzero(live_fast)[0]
    if live_idx.size:
        kvals = feasible[live_idx].sum(axis=1)
        x_means = np.empty(live_idx.size)
        y_means = np.empty(live_idx.size)
        z_means = np.empty(live_idx.size)
        for k in np.unique(kvals).tolist():
            gsel = kvals == k
            rows = live_idx[gsel]
            if k == samples:
                bx, by, bz = xg[rows], yg[rows], zg[rows]
            else:
                mask = feasible[rows]
                bx = xg[rows][mask].reshape(rows.size, k)
                by = yg[rows][mask].reshape(rows.size, k)
                bz = zg[rows][mask].reshape(rows.size, k)
            x_means[gsel] = np.add.reduce(bx, axis=1) / k
            y_means[gsel] = np.add.reduce(by, axis=1) / k
            z_means[gsel] = np.add.reduce(bz, axis=1) / k
        xl, yl, zl = x_means.tolist(), y_means.tolist(), z_means.tolist()
        for i, t in enumerate(live_idx.tolist()):
            x_mean, y_mean, z_mean = xl[i], yl[i], zl[i]
            norm = math.sqrt(x_mean**2 + y_mean**2 + z_mean**2)
            if norm < 1e-12:
                out_lats[t] = center_lat[t]
                out_lons[t] = center_lon[t]
                continue
            out_lats[t] = math.degrees(
                math.asin(max(-1.0, min(1.0, z_mean / norm)))
            )
            out_lons[t] = math.degrees(math.atan2(y_mean, x_mean))

    # Exact fallback: delegated columns run the reference implementation
    # itself, which is bitwise-exact tautologically.
    fallback_cols = np.nonzero(live & needs_exact)[0]
    for t in fallback_cols:
        centroid = cbg_centroid_fast(
            lats,
            lons,
            rtt_col(col_offset + int(t)),
            soi_fraction,
            max_active=max_active,
            min_vps=min_vps,
        )
        if centroid is not None:
            out_lats[t] = centroid[0]
            out_lons[t] = centroid[1]
    return starved, int(fallback_cols.size)


class CbgBatchSolver:
    """The CBG solver: derive once, answer column and subset queries.

    This class is the only code that derives the per-matrix arrays and
    drives :func:`_centroid_block`. It front-loads every matrix-dependent
    derivation exactly once — the targets-major constraint radii and
    float32 radius trig (:func:`_compute_derived`), the per-target stats
    (:func:`_target_stats`), and the VP unit vectors — and
    :meth:`centroids` then solves any target-column list over any VP
    subset by slicing or gathering rows of those arrays. Two profiles
    share it: a serving engine loads one fixed ``(vp_lats, vp_lons,
    rtt_matrix)`` world and answers an endless stream of small batches
    asking for *specific* columns; a campaign (:func:`cbg_centroids_batch`,
    through its resident slot) solves every column under hundreds of VP
    subsets of one matrix.

    Results are bitwise identical to running
    :func:`~repro.core.cbg.cbg_centroid_fast` per column over the chosen
    rows: each target column's answer depends only on that column's
    constraints and the shared VP geometry, never on which other columns
    share the call, so a gathered block computes exactly the bytes the
    full-matrix block containing that column computes. The parity suite in
    ``tests/test_cbg_batch.py`` and the ``cbg: batch vs loop`` leg of the
    :mod:`repro.check.diff` harness pin this against the per-target loop.

    Columns may be requested repeatedly and in any order; duplicates in
    one call are solved once per occurrence (callers that care dedupe —
    the serving engine does).

    **Row replacement.** A churning world changes a few target columns per
    revision (:mod:`repro.evolve`). :meth:`replace_columns` points the
    solver at the next revision's matrix and marks the moved columns'
    rows stale without touching the derived arrays; :meth:`centroids`
    re-derives a stale row the first time it is asked for, so a revision
    costs only the columns that moved and only when they are used. The
    derivation is elementwise and the stats are per row, so a row derived
    alone holds exactly the bytes a fresh solver over the new matrix
    derives for it.
    """

    def __init__(
        self,
        vp_lats: np.ndarray,
        vp_lons: np.ndarray,
        rtt_matrix: np.ndarray,
        soi_fraction: float = SOI_FRACTION_CBG,
        max_active: int = 64,
        min_vps: int = 1,
    ) -> None:
        self.matrix = np.asarray(rtt_matrix, dtype=np.float64)
        if self.matrix.ndim != 2:
            raise ValueError(
                f"rtt_matrix must be 2-D, got shape {self.matrix.shape}"
            )
        self.vp_lats = np.asarray(vp_lats, dtype=np.float64)
        self.vp_lons = np.asarray(vp_lons, dtype=np.float64)
        if self.vp_lats.shape[0] != self.matrix.shape[0]:
            raise ValueError(
                f"{self.vp_lats.shape[0]} vantage points vs "
                f"{self.matrix.shape[0]} matrix rows"
            )
        self.soi_fraction = soi_fraction
        self.max_active = max_active
        self.min_vps = min_vps
        self._radii_t, self._trig_t = _compute_derived(
            np.ascontiguousarray(self.matrix.T), soi_fraction
        )
        self._counts, self._r_min, self._tightest = _target_stats(self._radii_t)
        self._uvec = _unit_vectors(self.vp_lats, self.vp_lons)
        self._u32 = self._uvec.astype(np.float32)
        #: target rows whose derived arrays predate the current matrix.
        self._stale = np.zeros(self.n_targets, dtype=bool)

    @property
    def n_targets(self) -> int:
        """Number of target columns the resident matrix holds."""
        return self._radii_t.shape[0]

    def _columns(self, columns: np.ndarray) -> np.ndarray:
        """``columns`` as a flat index array, range-checked."""
        cols = np.asarray(columns, dtype=np.intp).reshape(-1)
        if cols.size and (cols.min() < 0 or cols.max() >= self.n_targets):
            raise IndexError(
                f"column indices must be in [0, {self.n_targets}), "
                f"got range [{cols.min()}, {cols.max()}]"
            )
        return cols

    def replace_columns(self, rtt_matrix: np.ndarray, columns: np.ndarray) -> None:
        """Serve ``rtt_matrix`` from now on; only ``columns`` differ.

        The caller guarantees that every column outside ``columns`` is
        bitwise equal in the old and new matrices (the serving engine
        finds the changed set by a bit-pattern diff). Nothing is derived
        or solved here: the solver keeps the new matrix reference and
        marks the listed rows stale, and :meth:`centroids` re-derives a
        stale row when it is first asked for. Both arguments are checked
        before anything changes, so a refused call leaves the solver as
        it was.

        Raises:
            ValueError: when the new matrix has another shape.
            IndexError: for column indices outside the target axis.
        """
        matrix = np.asarray(rtt_matrix, dtype=np.float64)
        if matrix.shape != self.matrix.shape:
            raise ValueError(
                f"replacement matrix has shape {matrix.shape}, "
                f"the solver holds {self.matrix.shape}"
            )
        cols = self._columns(columns)
        self.matrix = matrix
        self._stale[cols] = True

    def _refresh(self, rows: np.ndarray) -> None:
        """Re-derive the stale target ``rows`` from the current matrix."""
        radii, trig = _compute_derived(
            np.ascontiguousarray(self.matrix[:, rows].T), self.soi_fraction
        )
        self._radii_t[rows] = radii
        self._trig_t[rows] = trig
        self._counts[rows], self._r_min[rows], self._tightest[rows] = _target_stats(radii)
        self._stale[rows] = False

    def _masked_stats(
        self, inset: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per-target stats over the vantage points in ``inset`` only.

        The full-width stats are repaired against the excluded rows only;
        targets whose tightest circle sits in an excluded row (or ties
        with one) re-derive their min over a masked copy of the row.
        """
        excluded = np.nonzero(~inset)[0]
        radii_x = self._radii_t[:, excluded]
        with np.errstate(invalid="ignore"):
            counts = self._counts - (~np.isnan(radii_x)).sum(axis=1)
            min_x = np.fmin.reduce(radii_x, axis=1)
        r_min = self._r_min.copy()
        tightest = self._tightest.copy()
        redo = np.nonzero(min_x == r_min)[0]
        if redo.size:
            radii_redo = self._radii_t[redo]  # fancy index: a copy
            radii_redo[:, excluded] = np.nan
            r_min[redo], tightest[redo] = _min_and_first(radii_redo)
        return counts, r_min, tightest

    def centroids(
        self,
        columns: Optional[np.ndarray] = None,
        vps: Optional[np.ndarray] = None,
        obs=NULL_OBSERVER,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """CBG centroids for the requested target columns.

        Args:
            columns: indices into the target axis; ``None`` solves every
                column (the full-matrix campaign answer).
            vps: indices into the VP axis of the vantage points to use;
                ``None`` (or the full range) uses every row. A sorted
                subset holding at least 3/4 of the rows runs full width
                with the other rows masked out; any other subset gathers
                its rows of the derived arrays block by block.
            obs: observer for the ``cbg.*`` kernel counters
                (``cbg.fast_calls`` / ``cbg.fast_no_estimate`` /
                ``cbg.batch_exact_fallback``), bumped in bulk so call
                totals match the per-target loop.

        Returns:
            ``(lats, lons)`` aligned with ``columns``; NaN where CBG has
            no usable answer. Bitwise identical to running
            :func:`~repro.core.cbg.cbg_centroid_fast` per column over the
            ``vps`` rows. Stale rows among ``columns``
            (:meth:`replace_columns`) are re-derived first.

        Raises:
            IndexError: for column indices outside the target axis.
        """
        if columns is None:
            cols = None
            total = self.n_targets
            stale = np.nonzero(self._stale)[0]
        else:
            cols = self._columns(columns)
            total = cols.shape[0]
            stale = cols[self._stale[cols]]
        if stale.size:
            self._refresh(np.unique(stale))
        n_vps = self.vp_lats.shape[0]
        vps = _vp_subset(vps, n_vps)
        lats, lons, uvec, u32 = self.vp_lats, self.vp_lons, self._uvec, self._u32
        stats = (self._counts, self._r_min, self._tightest)
        inset = None
        gather = False
        if vps is not None:
            if 4 * vps.size >= 3 * n_vps and bool(np.all(np.diff(vps) > 0)):
                # Near-full sorted subset: gathering ~all rows costs more
                # than running full width with the excluded vantage points
                # masked out. Candidate masks clear excluded entries, and
                # every exact step (trim compaction, fallback columns) sees
                # NaN there — bitwise the same as the compacted computation
                # because a sorted subset preserves VP order.
                inset = np.zeros(n_vps, dtype=bool)
                inset[vps] = True
                stats = self._masked_stats(inset)
            else:
                # Row gathers of the derived arrays — bitwise the same
                # values as deriving from the sliced matrix. The radii and
                # trig are gathered per block (below) so each gathered
                # chunk is consumed while still cache-warm.
                gather = True
                lats, lons, uvec, u32 = lats[vps], lons[vps], uvec[vps], u32[vps]
                stats = None
        matrix = self.matrix

        def rtt_col(i: int) -> np.ndarray:
            column = matrix[:, i if cols is None else int(cols[i])]
            if gather:
                return column[vps]
            if inset is not None:
                column = column.copy()
                column[~inset] = np.nan
            return column

        out_lats = np.full(total, np.nan)
        out_lons = np.full(total, np.nan)
        chunk = _adaptive_chunk(lats.shape[0])
        no_estimate = 0
        fallbacks = 0
        for start in range(0, total, chunk):
            stop = min(start + chunk, total)
            rows = slice(start, stop) if cols is None else cols[start:stop]
            radii_b = self._radii_t[rows]
            trig_b = self._trig_t[rows]
            if gather:
                radii_b = radii_b[:, vps]
                trig_b = trig_b[:, vps]
            starved, exact = _centroid_block(
                lats,
                lons,
                uvec,
                u32,
                radii_b,
                trig_b,
                rtt_col,
                start,
                self.soi_fraction,
                self.max_active,
                self.min_vps,
                out_lats[start:stop],
                out_lons[start:stop],
                stats=None if stats is None else tuple(a[rows] for a in stats),
                inset=inset,
            )
            no_estimate += starved
            fallbacks += exact
        if obs.enabled:
            obs.count("cbg.fast_calls", total)
            if no_estimate:
                obs.count("cbg.fast_no_estimate", no_estimate)
            if fallbacks:
                obs.count("cbg.batch_exact_fallback", fallbacks)
        return out_lats, out_lons


def cbg_errors_batch(
    vp_lats: np.ndarray,
    vp_lons: np.ndarray,
    rtt_matrix: np.ndarray,
    target_lats: np.ndarray,
    target_lons: np.ndarray,
    subset: Optional[np.ndarray] = None,
    soi_fraction: float = SOI_FRACTION_CBG,
    min_vps: int = 1,
    obs=NULL_OBSERVER,
    checker=NULL_CHECKER,
) -> np.ndarray:
    """Batched equivalent of the per-target campaign error loop.

    Computes :func:`cbg_centroids_batch` and converts each centroid to its
    great-circle error against the ground truth, using the same scalar
    haversine as the reference loop (bitwise-equal error values).

    An armed ``checker`` verifies ``cbg.containment`` here — this is the
    one site with both the constraint inputs and the ground truth in hand:
    every answered constraint disk (at >= 2/3 c) must contain the true
    target, up to the registered-location jitter slack.

    Returns:
        Array of error distances (km), NaN where CBG had no usable answer.
    """
    if checker.enabled:
        sub = np.arange(np.asarray(vp_lats).shape[0]) if subset is None else subset
        checker.check_cbg_containment(
            np.asarray(vp_lats)[sub],
            np.asarray(vp_lons)[sub],
            np.asarray(rtt_matrix)[sub],
            target_lats,
            target_lons,
            soi_fraction,
            f"cbg_errors_batch ({np.asarray(sub).size} VPs, "
            f"{np.asarray(rtt_matrix).shape[1]} targets)",
        )
    est_lats, est_lons = cbg_centroids_batch(
        vp_lats,
        vp_lons,
        rtt_matrix,
        subset,
        soi_fraction,
        min_vps=min_vps,
        obs=obs,
    )
    # haversine_km, vectorised up to (but not including) the final arcsin:
    # np.sin/cos/sqrt/radians match math.* bitwise elementwise, and
    # np.float_power routes through the same C ``pow`` as Python's ``**``
    # (a plain numpy square differs in the last ulp for ~0.1% of inputs!),
    # but np.arcsin and math.asin disagree in the last ulp — so the
    # inversion stays a scalar loop over the defined targets (NaN
    # estimates propagate NaN through the chain).
    target_lats = np.asarray(target_lats, dtype=np.float64)
    target_lons = np.asarray(target_lons, dtype=np.float64)
    with np.errstate(invalid="ignore"):
        phi1 = np.radians(est_lats)
        phi2 = np.radians(target_lats)
        dphi = phi2 - phi1
        dlambda = np.radians(target_lons - est_lons)
        a = np.float_power(np.sin(dphi / 2.0), 2) + np.cos(phi1) * np.cos(
            phi2
        ) * np.float_power(np.sin(dlambda / 2.0), 2)
        root = np.sqrt(np.minimum(1.0, np.maximum(0.0, a))).tolist()
    errors = np.full(est_lats.shape[0], np.nan)
    asin = math.asin
    for t in np.nonzero(~np.isnan(est_lats))[0].tolist():
        errors[t] = _TWO_R * asin(root[t])
    return errors


def cbg_errors_for_subsets_loop(
    vp_lats: np.ndarray,
    vp_lons: np.ndarray,
    rtt_matrix: np.ndarray,
    target_lats: np.ndarray,
    target_lons: np.ndarray,
    subset: np.ndarray,
    soi_fraction: float = SOI_FRACTION_CBG,
    min_vps: int = 1,
    obs=NULL_OBSERVER,
) -> np.ndarray:
    """The original per-target campaign loop, kept as the reference path.

    Parity tests and the campaign benchmark compare this against
    :func:`cbg_errors_batch`; production callers go through
    :func:`repro.core.cbg.cbg_errors_for_subsets`, which delegates to the
    batched kernel.
    """
    from repro.geo.coords import haversine_km

    sub_lats = vp_lats[subset]
    sub_lons = vp_lons[subset]
    errors = np.full(rtt_matrix.shape[1], np.nan)
    for column in range(rtt_matrix.shape[1]):
        centroid = cbg_centroid_fast(
            sub_lats,
            sub_lons,
            rtt_matrix[subset, column],
            soi_fraction,
            min_vps=min_vps,
            obs=obs,
        )
        if centroid is None:
            continue
        errors[column] = haversine_km(
            centroid[0], centroid[1], float(target_lats[column]), float(target_lons[column])
        )
    return errors
