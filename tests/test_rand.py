"""Tests for the deterministic keyed RNG, including scalar/bulk parity."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import rand


class TestKeyHash:
    def test_deterministic(self):
        assert rand.key_hash(("a", 1)) == rand.key_hash(("a", 1))

    def test_distinct_parts_distinct_hashes(self):
        assert rand.key_hash(("a", 1)) != rand.key_hash(("a", 2))

    def test_order_matters(self):
        assert rand.key_hash(("a", "b")) != rand.key_hash(("b", "a"))

    def test_scalar_vs_singleton_tuple_differ_or_not_crash(self):
        # Both forms are legal; they only need to be deterministic.
        assert rand.key_hash("x") == rand.key_hash("x")

    def test_nested_tuples_supported(self):
        assert rand.key_hash((("a", 1), "b")) == rand.key_hash((("a", 1), "b"))

    def test_bool_distinct_from_int(self):
        assert rand.key_hash((True,)) != rand.key_hash((1,))

    def test_unsupported_type_rejected(self):
        with pytest.raises(TypeError):
            rand.key_hash((object(),))


class TestScalarDraws:
    def test_uniform_in_range(self):
        for index in range(200):
            value = rand.uniform(("u", index), 3.0, 7.0)
            assert 3.0 <= value < 7.0

    def test_uniform_roughly_uniform(self):
        values = [rand.uniform(("mean", i)) for i in range(2000)]
        assert 0.45 < sum(values) / len(values) < 0.55

    def test_normal_moments(self):
        values = [rand.normal(("n", i), 10.0, 2.0) for i in range(4000)]
        mean = sum(values) / len(values)
        var = sum((v - mean) ** 2 for v in values) / len(values)
        assert mean == pytest.approx(10.0, abs=0.2)
        assert var == pytest.approx(4.0, rel=0.2)

    def test_exponential_positive_and_mean(self):
        values = [rand.exponential(("e", i), 5.0) for i in range(4000)]
        assert all(v > 0 for v in values)
        assert sum(values) / len(values) == pytest.approx(5.0, rel=0.15)

    def test_randint_range_and_error(self):
        values = {rand.randint(("r", i), 2, 5) for i in range(200)}
        assert values == {2, 3, 4}
        with pytest.raises(ValueError):
            rand.randint("r", 5, 5)

    def test_chance_probability(self):
        hits = sum(rand.chance(("c", i), 0.3) for i in range(5000))
        assert 0.25 < hits / 5000 < 0.35

    def test_generator_reproducible(self):
        a = rand.generator(("g", 1)).integers(0, 1000, size=5)
        b = rand.generator(("g", 1)).integers(0, 1000, size=5)
        assert (a == b).all()


#: What ``np.log`` forces on draws that go through it. numpy's vectorised
#: ``log`` and libm's ``math.log`` are each faithfully rounded but differ in
#: the last bit on some inputs, so a bulk exponential, normal or lognormal
#: draw can sit an ulp or two off its scalar draw (2 ulps measured over
#: 200,000 keys); 8 ulps of relative tolerance leaves room for
#: ``sqrt``/``cos``/``exp``. Hashes and uniforms carry no tolerance at all.
LOG_RTOL = 8 * np.finfo(np.float64).eps


class TestBulkParity:
    """The vectorised draws must equal their scalar counterparts.

    The hash chain (:func:`rand.bulk_hash`, :func:`rand.bulk_uniform`, the
    Box-Muller uniforms) is pinned bitwise; only draws finished by
    ``np.log`` get :data:`LOG_RTOL`.
    """

    def test_bulk_hash_matches_key_hash(self):
        subkeys = np.array([0, 1, 7, 2**40 + 3, 2**64 - 1], dtype=np.uint64)
        for base in (("base", 7), ("hopnoise", 11, 2), "solo", 12345):
            expected = (
                [rand.key_hash((*base, int(k))) for k in subkeys]
                if isinstance(base, tuple)
                else [rand.key_hash((base, int(k))) for k in subkeys]
            )
            assert [int(h) for h in rand.bulk_hash(base, subkeys)] == expected

    def test_bulk_uniform_matches_scalar_tuple_base(self):
        subkeys = np.arange(100, dtype=np.uint64)
        bulk = rand.bulk_uniform(("base", 7), subkeys, 2.0, 9.0)
        scalar = [rand.uniform(("base", 7, int(k)), 2.0, 9.0) for k in subkeys]
        assert bulk.tolist() == scalar

    def test_bulk_uniform_matches_scalar_scalar_base(self):
        subkeys = np.arange(50, dtype=np.uint64)
        bulk = rand.bulk_uniform("solo", subkeys)
        scalar = [rand.uniform(("solo", int(k))) for k in subkeys]
        assert bulk.tolist() == scalar

    def test_bulk_normal_uniforms_are_the_scalar_folds(self):
        subkeys = np.arange(1000, dtype=np.uint64)
        u1, u2 = rand.bulk_normal_uniforms(("hopnoise", 11, 2), subkeys)
        keys = [rand.key_hash(("hopnoise", 11, 2, int(k))) for k in subkeys]
        assert u1.tolist() == [rand.uniform((h, 0xA)) for h in keys]
        assert u2.tolist() == [rand.uniform((h, 0xB)) for h in keys]
        exact = [rand.normal_from_uniforms(a, b, 0.5, 2.0) for a, b in zip(u1, u2)]
        assert exact == [rand.normal(("hopnoise", 11, 2, int(k)), 0.5, 2.0) for k in subkeys]

    def test_bulk_normal_matches_scalar(self):
        # Folding the uniforms as (0xA, h) instead of (h, 0xA) once made
        # every one of these draws differ from its scalar draw.
        subkeys = np.arange(1000, dtype=np.uint64)
        bulk = rand.bulk_normal(("hopnoise", 11, 2), subkeys, 0.0, 1.0)
        scalar = [rand.normal(("hopnoise", 11, 2, int(k))) for k in subkeys]
        np.testing.assert_allclose(bulk, scalar, rtol=LOG_RTOL, atol=0.0)

    def test_bulk_lognormal_matches_scalar(self):
        subkeys = np.arange(500, dtype=np.uint64)
        bulk = rand.bulk_lognormal(("pop", 3), subkeys, 10.0, 1.5)
        scalar = [rand.lognormal(("pop", 3, int(k)), 10.0, 1.5) for k in subkeys]
        np.testing.assert_allclose(bulk, scalar, rtol=LOG_RTOL, atol=0.0)

    def test_bulk_exponential_matches_scalar(self):
        subkeys = np.arange(50, dtype=np.uint64)
        bulk = rand.bulk_exponential(("exp", 1), subkeys, 3.0)
        scalar = [rand.exponential(("exp", 1, int(k)), 3.0) for k in subkeys]
        np.testing.assert_allclose(bulk, scalar, rtol=LOG_RTOL, atol=0.0)

    def test_normal_hashes_its_key_once(self, monkeypatch):
        calls = []
        real = rand.key_hash
        monkeypatch.setattr(rand, "key_hash", lambda key: calls.append(key) or real(key))
        value = rand.normal(("n", 5), 1.0, 2.0)
        assert calls == [("n", 5)]
        h = real(("n", 5))
        assert value == rand.normal_from_uniforms(
            rand.uniform((h, 0xA)), rand.uniform((h, 0xB)), 1.0, 2.0
        )

    def test_bulk_pair_key_matches_scalar(self):
        a = np.array([1, 2, 3], dtype=np.uint64)
        b = np.array([9, 8, 7], dtype=np.uint64)
        bulk = rand.bulk_pair_key(a, b)
        scalar = [rand.pair_key(int(x), int(y)) for x, y in zip(a, b)]
        assert list(bulk) == scalar

    @given(st.integers(min_value=0, max_value=2**63 - 1), st.integers(min_value=0, max_value=2**63 - 1))
    @settings(max_examples=50, deadline=None)
    def test_pair_key_property(self, a, b):
        bulk = rand.bulk_pair_key(np.array([a], dtype=np.uint64), np.array([b], dtype=np.uint64))
        assert int(bulk[0]) == rand.pair_key(a, b)

    @given(st.lists(st.integers(min_value=0, max_value=2**32), min_size=1, max_size=20))
    @settings(max_examples=50, deadline=None)
    def test_bulk_uniform_property(self, keys):
        arr = np.array(keys, dtype=np.uint64)
        bulk = rand.bulk_uniform(("prop", 3), arr)
        scalar = [rand.uniform(("prop", 3, int(k))) for k in keys]
        assert bulk.tolist() == scalar

    def test_bulk_hash_uint64_no_overflow_error(self):
        subkeys = np.array([2**63, 2**64 - 1], dtype=np.uint64)
        values = rand.bulk_hash("k", subkeys)
        assert values.dtype == np.uint64
