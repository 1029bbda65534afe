"""RNG streams, station-mask sampling, and input-level station masking."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import stationsense as ss
from stationsense.core import sample_mask_matrix
from stationsense.downstream import sma_augment_batch

from conftest import random_batch
from oracles import mask_set_draws


# ---------------------------------------------------------------------------
# RandomStream
# ---------------------------------------------------------------------------


class TestRandomStream:
    def test_same_seed_label_reproduces(self):
        a = ss.RandomStream(42, "foo").random(100)
        b = ss.RandomStream(42, "foo").random(100)
        np.testing.assert_array_equal(a, b)

    def test_different_labels_differ(self):
        a = ss.RandomStream(42, "foo").random(100)
        b = ss.RandomStream(42, "bar").random(100)
        assert not np.array_equal(a, b)

    def test_child_stream_isolated_from_parent_consumption(self):
        r1 = ss.RandomStream(0, "root")
        r2 = ss.RandomStream(0, "root")
        r1.random(1000)  # consume from the parent only
        np.testing.assert_array_equal(
            r1.child("sub").random(10), r2.child("sub").random(10)
        )

    def test_child_equals_direct_path_label(self):
        a = ss.RandomStream(7, "a").child("b").random(10)
        b = ss.RandomStream(7, "a/b").random(10)
        np.testing.assert_array_equal(a, b)

    # first draws of a fresh stream: random(3), integers(0, 1000, 3), then
    # normal(size=2), as recorded when every stream built its generator at once
    @pytest.mark.parametrize(
        "seed, label, chain, want",
        [
            (0, "", (), ([0.9429375528828794, 0.3163371523854981, 0.7223425886498254],
                         [210, 125, 982], [0.1609480326942554, 0.8193146900571074])),
            (0, "synth", ("traj",),
             ([0.5958105363747868, 0.04586350189281363, 0.8761550488615176],
              [313, 668, 19], [-0.7444219119990056, 1.806711331343123])),
            (7, "crossl", ("epoch3", "batch12"),
             ([0.4780755714981816, 0.3704919071753454, 0.605841514037733],
              [770, 834, 199], [-1.9735817388854069, 0.5495484132454803])),
            (123, "test", (), ([0.5100364161115764, 0.4010764543578359, 0.5295281660605958],
                               [317, 504, 175], [-0.35500065595323005, -0.1513461376751667])),
        ],
    )
    def test_first_draws_pinned(self, seed, label, chain, want):
        r = ss.RandomStream(seed, label)
        for c in chain:
            r = r.child(c)
        got = (r.random(3).tolist(), r.integers(0, 1000, 3).tolist(), r.normal(size=2).tolist())
        assert got == want


# ---------------------------------------------------------------------------
# mask sampling
# ---------------------------------------------------------------------------


class TestSampleMaskSet:
    def test_p_zero_empty(self, rng):
        assert not sample_mask_matrix(0.0, 10, 8, rng).any()

    def test_p_one_full(self, rng):
        assert sample_mask_matrix(1.0, 10, 8, rng).all()

    def test_invalid_p(self, rng):
        with pytest.raises(ValueError):
            sample_mask_matrix(1.5, 10, 8, rng)
        with pytest.raises(ValueError):
            sample_mask_matrix(-0.1, 10, 8, rng)

    def test_consumes_exactly_n_draws(self):
        # after sampling, the stream continues exactly where n * N_d manual
        # draws would have left it
        r1 = ss.RandomStream(3, "m")
        r2 = ss.RandomStream(3, "m")
        sample_mask_matrix(0.5, 5, 8, r1)
        r2.random(40)
        np.testing.assert_array_equal(r1.random(16), r2.random(16))

    def test_mean_size_matches_binomial_expectation(self):
        # oracle: E|M| = n * p for i.i.d. Bernoulli masking
        r = ss.RandomStream(0, "mc")
        sizes = sample_mask_matrix(0.5, 100_000, 8, r).sum(axis=1)
        assert abs(sizes.mean() - 4.0) < 0.05

    @settings(max_examples=100, deadline=None)
    @given(
        p1=st.floats(0.0, 1.0),
        p2=st.floats(0.0, 1.0),
        n=st.integers(0, 40),
        n_d=st.integers(1, 16),
        seed=st.integers(0, 10_000),
    )
    def test_mask_matrix_properties(self, p1, p2, n, n_d, seed):
        p1, p2 = min(p1, p2), max(p1, p2)

        def draw(p):
            r = ss.RandomStream(seed, "prop")
            return sample_mask_matrix(p, n, n_d, r), r

        m1, r1 = draw(p1)
        m2, _ = draw(p2)
        assert m1.shape == (n, n_d) and m1.dtype == bool
        # exactly n * N_d draws consumed: the stream's next draw is the one
        # after that many manual draws
        manual = ss.RandomStream(seed, "prop")
        manual.random(n * n_d)
        assert r1.random() == manual.random()
        # one stream: a lower rate masks a subset of what a higher rate masks
        assert not (m1 & ~m2).any()
        assert not draw(0.0)[0].any() and draw(1.0)[0].all()

    def test_matrix_rows_equal_sequential_set_draws(self):
        r1 = ss.RandomStream(5, "x")
        r2 = ss.RandomStream(5, "x")
        mat = sample_mask_matrix(0.3, 50, 8, r1)
        for i in range(50):
            assert set(np.nonzero(mat[i])[0]) == mask_set_draws(0.3, 8, r2)


# ---------------------------------------------------------------------------
# input-level masking (station-wise masking augmentation)
# ---------------------------------------------------------------------------


class TestApplyInputMask:
    def test_masks_only_selected_stations(self):
        x, _ = random_batch(np.random.default_rng(0), n=20, k=6, missing=(3,))
        out = sma_augment_batch(x, 0.4, ss.RandomStream(2, "m"))
        mask = sample_mask_matrix(0.4, 20, 8, ss.RandomStream(2, "m"))
        # reference loop oracle
        for i in range(20):
            for d in range(8):
                if mask[i, d]:
                    np.testing.assert_array_equal(out[i, d], 0.0)
                else:
                    np.testing.assert_array_equal(out[i, d], x[i, d])

    @settings(max_examples=50, deadline=None)
    @given(
        p=st.floats(0.0, 1.0),
        seed_a=st.integers(0, 1000),
        seed_b=st.integers(0, 1000),
        seed=st.integers(0, 1000),
    )
    def test_idempotent_and_commutative(self, p, seed_a, seed_b, seed):
        x, _ = random_batch(np.random.default_rng(seed), n=6, k=3)

        def a(v):
            return sma_augment_batch(v, p, ss.RandomStream(seed_a, "a"))

        def b(v):
            return sma_augment_batch(v, p, ss.RandomStream(seed_b, "b"))

        np.testing.assert_array_equal(a(a(x)), a(x))
        np.testing.assert_array_equal(a(b(x)), b(a(x)))

    @settings(max_examples=50, deadline=None)
    @given(p=st.floats(0.0, 1.0), pre=st.sets(st.integers(0, 7)), seed=st.integers(0, 1000))
    def test_missingness_union_property(self, p, pre, seed):
        # observed rows are strictly positive, so zero rows are exactly the
        # previously missing stations plus the newly masked ones
        x, flags = random_batch(np.random.default_rng(seed), n=6, k=3, missing=tuple(pre))
        x[~flags] += 0.1
        out = sma_augment_batch(x, p, ss.RandomStream(seed, "m"))
        mask = sample_mask_matrix(p, 6, 8, ss.RandomStream(seed, "m"))
        np.testing.assert_array_equal(np.all(out == 0.0, axis=2), flags | mask)


# ---------------------------------------------------------------------------
# sample arrays
# ---------------------------------------------------------------------------


class TestSampleTypes:
    """Invariants of the (n, N_d, K) sample arrays that build_*_dataset
    produce: a missing station is an all-zero row flagged in `missing`, and
    labels lie in [0, 1]."""

    def test_absent_is_zero_and_flagged(self, small_datasets):
        train = small_datasets[0]
        assert train.missing.any()
        np.testing.assert_array_equal(train.x[train.missing], 0.0)

    def test_matrix_shape_and_missing_rows(self, small_datasets):
        for d in small_datasets:
            assert d.x.shape == (d.n, 8, 52) and d.x.dtype == np.float32
            assert d.missing.shape == (d.n, 8) and d.missing.dtype == bool
            assert d.timestamps.shape == (d.n,)
            # observed rows are power-normalized averages, never the placeholder
            assert np.all(d.x[~d.missing].any(axis=1))

    def test_label_bounds(self, small_datasets):
        *labeled, unlabeled = small_datasets
        for d in labeled:
            assert np.all(np.isfinite(d.labels))
            assert np.all((d.labels >= 0.0) & (d.labels <= 1.0))
        assert unlabeled.labels is None
