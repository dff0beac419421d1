"""Deterministic, order-independent randomness.

The simulation must be reproducible regardless of the order in which
measurements are issued: pinging target B before target A must not change
either RTT. We therefore derive every random quantity from a *key* (a tuple
of strings/ints naming the quantity, e.g. ``("rtt-noise", probe_id,
target_ip, attempt)``) via a SplitMix64-style hash, instead of drawing from a
shared stateful generator.

Two interfaces are provided:

* scalar helpers (:func:`key_hash`, :func:`uniform`, :func:`normal`, ...)
  for one-off draws;
* :func:`bulk_uniform` / :func:`bulk_normal` for vectorised draws over numpy
  arrays of integer subkeys, used by the bulk ping engine.

The scalar and bulk paths use the same mixing function, so
``bulk_hash(seed, ids)[i] == key_hash((seed, int(ids[i])))`` and
``bulk_uniform(seed, ids)[i] == uniform((seed, int(ids[i])))`` bit for bit
(property-tested), and :func:`bulk_normal_uniforms` yields exactly the two
uniforms :func:`normal` folds. Draws that go on through ``np.log`` or
``np.cos`` (:func:`bulk_normal`, :func:`bulk_exponential`,
:func:`bulk_lognormal`) agree with their scalar draws only to a few ulps:
numpy's vectorised ``log`` is not libm's ``math.log`` and differs from it
in the last bit on some inputs. A caller that needs bitwise scalar draws
takes the exact uniforms and finishes them with
:func:`normal_from_uniforms` / :func:`exponential_from_uniform`, which are
the scalar draws' own tails.
"""

from __future__ import annotations

import math
from typing import Tuple, Union

import numpy as np

KeyPart = Union[int, str, bytes, float]
Key = Union[KeyPart, Tuple[KeyPart, ...]]

_MASK64 = 0xFFFFFFFFFFFFFFFF
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
#: Initial state of every key fold.
_KEY_SEED = 0x5EED0FAB12345678
#: A uniform's fraction is the hash's top 53 bits times this.
_FRACTION = 1.0 / (1 << 53)


def _splitmix64(x: int) -> int:
    """One round of the SplitMix64 finalizer over a 64-bit integer."""
    x = (x + _GOLDEN) & _MASK64
    x = ((x ^ (x >> 30)) * _MIX1) & _MASK64
    x = ((x ^ (x >> 27)) * _MIX2) & _MASK64
    return x ^ (x >> 31)


def _part_to_int(part) -> int:
    """Map a single key part to a 64-bit integer deterministically.

    Tuples are allowed as parts (keys nest freely): they hash via
    :func:`key_hash`.
    """
    if isinstance(part, tuple):
        return key_hash(part)
    if isinstance(part, bool):  # bool is an int subclass; keep it distinct
        return 0xB001 + int(part)
    if isinstance(part, int):
        return part & _MASK64
    if isinstance(part, float):
        return hash_bytes(repr(part).encode("ascii"))
    if isinstance(part, str):
        return hash_bytes(part.encode("utf-8"))
    if isinstance(part, bytes):
        return hash_bytes(part)
    raise TypeError(f"unsupported key part type: {type(part).__name__}")


def hash_bytes(data: bytes) -> int:
    """Hash a byte string to a 64-bit integer (FNV-1a then SplitMix64)."""
    h = 0xCBF29CE484222325
    for byte in data:
        h = ((h ^ byte) * 0x100000001B3) & _MASK64
    return _splitmix64(h)


def key_hash(key: Key) -> int:
    """Hash an arbitrary key (scalar or tuple of parts) to 64 bits.

    Tuples are folded part by part, so ``("a", 1)`` and ``("a", 2)`` produce
    unrelated values, and nesting order matters.
    """
    if isinstance(key, tuple):
        h = _KEY_SEED
        for part in key:
            h = _splitmix64(h ^ _part_to_int(part))
        return h
    return _splitmix64(_KEY_SEED ^ _part_to_int(key))


def uniform(key: Key, low: float = 0.0, high: float = 1.0) -> float:
    """Deterministic uniform draw in ``[low, high)`` for the given key."""
    fraction = (key_hash(key) >> 11) * _FRACTION
    return low + (high - low) * fraction


def normal(key: Key, mean: float = 0.0, std: float = 1.0) -> float:
    """Deterministic normal draw via Box-Muller on two derived uniforms.

    The uniforms are ``uniform((key_hash(key), 0xA))`` and
    ``uniform((key_hash(key), 0xB))``; the key is hashed once and both
    folds share its first step.
    """
    h = _splitmix64(_KEY_SEED ^ key_hash(key))
    u1 = (_splitmix64(h ^ 0xA) >> 11) * _FRACTION
    u2 = (_splitmix64(h ^ 0xB) >> 11) * _FRACTION
    return normal_from_uniforms(u1, u2, mean, std)


def normal_from_uniforms(u1: float, u2: float, mean: float = 0.0, std: float = 1.0) -> float:
    """Box-Muller over two uniforms with libm: the tail of :func:`normal`."""
    u1 = max(u1, 1e-12)
    z = math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)
    return mean + std * z


def exponential(key: Key, mean: float = 1.0) -> float:
    """Deterministic exponential draw with the given mean."""
    return exponential_from_uniform(uniform(key), mean)


def exponential_from_uniform(u: float, mean: float = 1.0) -> float:
    """Inverse-CDF exponential over one uniform: the tail of :func:`exponential`."""
    return -mean * math.log(max(u, 1e-12))


def lognormal(key: Key, mu: float = 0.0, sigma: float = 1.0) -> float:
    """Deterministic log-normal draw: ``exp(N(mu, sigma))``."""
    return math.exp(normal(key, mu, sigma))


def randint(key: Key, low: int, high: int) -> int:
    """Deterministic integer draw in ``[low, high)``."""
    if high <= low:
        raise ValueError(f"empty range [{low}, {high})")
    return low + key_hash(key) % (high - low)


def chance(key: Key, probability: float) -> bool:
    """Deterministic Bernoulli draw: True with the given probability."""
    return uniform(key) < probability


def generator(key: Key) -> np.random.Generator:
    """A numpy Generator seeded from the key, for bulk sequential draws.

    Use this only when the *set* of draws is keyed (e.g. "all city positions
    of country X"), so order-independence is preserved at the key level.
    """
    return np.random.default_rng(key_hash(key))


# --- vectorised keyed draws -------------------------------------------------


def _bulk_splitmix64(x: np.ndarray) -> np.ndarray:
    """Vectorised SplitMix64 finalizer over a uint64 array."""
    with np.errstate(over="ignore"):
        x = (x + np.uint64(_GOLDEN)).astype(np.uint64)
        x = (x ^ (x >> np.uint64(30))) * np.uint64(_MIX1)
        x = (x ^ (x >> np.uint64(27))) * np.uint64(_MIX2)
        return x ^ (x >> np.uint64(31))


def bulk_hash(base_key: Key, subkeys: np.ndarray) -> np.ndarray:
    """Hash an integer array of subkeys under a base key, vectorised.

    Equivalent to ``[key_hash((*base, int(s))) for s in subkeys]`` when
    ``base_key`` is a tuple (or ``key_hash((base, int(s)))`` for scalars),
    but computed with numpy uint64 arithmetic.
    """
    if isinstance(base_key, tuple):
        h0 = _KEY_SEED
        for part in base_key:
            h0 = _splitmix64(h0 ^ _part_to_int(part))
    else:
        # Match key_hash((base_key, s)) folding.
        h0 = _splitmix64(_KEY_SEED ^ _part_to_int(base_key))
    sub = np.asarray(subkeys, dtype=np.uint64)
    with np.errstate(over="ignore"):
        return _bulk_splitmix64(np.uint64(h0) ^ sub)


def _bulk_fraction(hashed: np.ndarray) -> np.ndarray:
    """The uniform fraction of each hash (exact: 53 bits fit a float64)."""
    return (hashed >> np.uint64(11)).astype(np.float64) * _FRACTION


def bulk_uniform(
    base_key: Key, subkeys: np.ndarray, low: float = 0.0, high: float = 1.0
) -> np.ndarray:
    """Vectorised uniform draws in ``[low, high)``, one per subkey."""
    return low + (high - low) * _bulk_fraction(bulk_hash(base_key, subkeys))


def bulk_normal_uniforms(
    base_key: Key, subkeys: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """The two Box-Muller uniforms :func:`normal` draws, one pair per subkey.

    Bitwise equal to the scalar fold: element ``i`` of the first array is
    ``uniform((key_hash((*base_key, s)), 0xA))`` with ``s = subkeys[i]``,
    and of the second the same with ``0xB``.
    """
    with np.errstate(over="ignore"):
        h = _bulk_splitmix64(np.uint64(_KEY_SEED) ^ bulk_hash(base_key, subkeys))
        return (
            _bulk_fraction(_bulk_splitmix64(h ^ np.uint64(0xA))),
            _bulk_fraction(_bulk_splitmix64(h ^ np.uint64(0xB))),
        )


def bulk_normal(
    base_key: Key, subkeys: np.ndarray, mean: float = 0.0, std: float = 1.0
) -> np.ndarray:
    """Vectorised normal draws via Box-Muller, one per subkey.

    Folds the same uniforms as :func:`normal`; ``np.log`` and ``np.cos``
    then leave each draw within a few ulps of the scalar one, not bitwise
    on it.
    """
    u1, u2 = bulk_normal_uniforms(base_key, subkeys)
    z = np.sqrt(-2.0 * np.log(np.maximum(u1, 1e-12))) * np.cos(2.0 * np.pi * u2)
    return mean + std * z


def bulk_exponential(base_key: Key, subkeys: np.ndarray, mean: float = 1.0) -> np.ndarray:
    """Vectorised exponential draws with the given mean, one per subkey.

    Within a few ulps of :func:`exponential` (``np.log`` is not libm's).
    """
    u = np.maximum(bulk_uniform(base_key, subkeys), 1e-12)
    return -mean * np.log(u)


def bulk_lognormal(
    base_key: Key, subkeys: np.ndarray, mu: float = 0.0, sigma: float = 1.0
) -> np.ndarray:
    """Vectorised log-normal draws, one per subkey (within ulps of
    :func:`lognormal`, as :func:`bulk_normal` is of :func:`normal`)."""
    return np.exp(bulk_normal(base_key, subkeys, mu, sigma))


def pair_key(a: int, b: int) -> int:
    """Fold two 64-bit integers into one subkey for per-pair draws."""
    return _splitmix64((a & _MASK64) ^ _splitmix64(b & _MASK64))


def bulk_pair_key(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Vectorised :func:`pair_key` over aligned integer arrays."""
    a_arr = np.asarray(a, dtype=np.uint64)
    b_arr = np.asarray(b, dtype=np.uint64)
    with np.errstate(over="ignore"):
        return _bulk_splitmix64(a_arr ^ _bulk_splitmix64(b_arr))
