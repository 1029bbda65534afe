"""View-agreement loss terms, feature extractor, and self-supervised training."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import stationsense as ss
from stationsense.crossl import (
    FACTORY_VICREG,
    vicreg_covariance,
    vicreg_covariance_grad,
    vicreg_invariance,
    vicreg_invariance_grad,
    vicreg_variance,
    vicreg_variance_grad,
)
from stationsense.nnkit import Dense, MlpStack

from oracles import encode_backward_loop, encode_loop, station_stacks


# ---------------------------------------------------------------------------
# independent straight-from-the-formula re-implementation (loop-based oracle)
# ---------------------------------------------------------------------------


def oracle_variance(z, gamma=1.0, epsilon=1e-4):
    n, l = z.shape
    total = 0.0
    for j in range(l):
        col = z[:, j]
        mean = sum(col) / n
        var = sum((v - mean) ** 2 for v in col) / (n - 1)
        total += max(0.0, gamma - (var + epsilon) ** 0.5)
    return total / l


def oracle_invariance(z, z2):
    n = z.shape[0]
    total = 0.0
    for i in range(n):
        total += sum((z[i, j] - z2[i, j]) ** 2 for j in range(z.shape[1]))
    return total / n


def oracle_covariance(z):
    n, l = z.shape
    means = z.mean(axis=0)
    total = 0.0
    for a in range(l):
        for b in range(l):
            if a == b:
                continue
            c_ab = sum((z[i, a] - means[a]) * (z[i, b] - means[b]) for i in range(n)) / (n - 1)
            total += c_ab**2
    return total / l


def oracle_total(z, z2, w):
    return (
        w.lam * (oracle_variance(z, w.gamma, w.epsilon) + oracle_variance(z2, w.gamma, w.epsilon))
        + w.mu * oracle_invariance(z, z2)
        + w.nu * (oracle_covariance(z) + oracle_covariance(z2))
    )


# ---------------------------------------------------------------------------
# loss terms
# ---------------------------------------------------------------------------


class TestVarianceTerm:
    def test_two_point_single_dim_hand_value(self):
        z = np.array([[0.0], [2.0]])
        # sample variance 2.0 with the unbiased estimator
        expect = max(0.0, 1.0 - np.sqrt(2.0 + 1e-4))
        assert vicreg_variance(z) == pytest.approx(expect, abs=1e-15)

    def test_constant_batch_maximal_penalty(self):
        z = np.full((8, 4), 3.0)
        assert vicreg_variance(z) == pytest.approx(1.0 - np.sqrt(1e-4), abs=1e-15)

    def test_high_spread_zero_penalty(self):
        gen = np.random.default_rng(0)
        z = gen.normal(0, 100.0, (64, 4))
        assert vicreg_variance(z) == 0.0

    def test_rejects_single_row(self):
        with pytest.raises(ValueError):
            vicreg_variance(np.ones((1, 3)))


class TestInvarianceTerm:
    def test_identical_views_zero(self):
        z = np.random.default_rng(0).random((8, 4))
        assert vicreg_invariance(z, z) == 0.0

    def test_constant_offset_gives_squared_norm(self):
        z = np.random.default_rng(1).random((8, 4))
        c = np.array([1.0, -2.0, 0.5, 3.0])
        assert vicreg_invariance(z, z + c) == pytest.approx(float(c @ c), rel=1e-12)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            vicreg_invariance(np.ones((4, 3)), np.ones((4, 2)))


class TestCovarianceTerm:
    def test_single_dim_zero(self):
        assert vicreg_covariance(np.random.default_rng(0).random((8, 1))) == 0.0

    def test_orthogonal_centered_columns_zero(self):
        z = np.array([[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]])
        assert vicreg_covariance(z) == pytest.approx(0.0, abs=1e-15)

    def test_perfectly_correlated_hand_value(self):
        z = np.array([[1.0, 1.0], [-1.0, -1.0]])
        # covariance matrix [[2,2],[2,2]]; off-diagonal squares sum to 8; /l=2
        assert vicreg_covariance(z) == pytest.approx(4.0, abs=1e-14)


class TestDualImplementationAgreement:
    def test_100_random_batches(self):
        gen = np.random.default_rng(7)
        w = ss.VicregWeights()
        for _ in range(100):
            z = gen.normal(0, 2.0, (8, 4))
            z2 = gen.normal(0, 2.0, (8, 4))
            assert abs(vicreg_variance(z) - oracle_variance(z)) < 1e-12
            assert abs(vicreg_invariance(z, z2) - oracle_invariance(z, z2)) < 1e-12
            assert abs(vicreg_covariance(z) - oracle_covariance(z)) < 1e-12
            assert abs(ss.vicreg_loss(z, z2, w) - oracle_total(z, z2, w)) < 1e-10

    def test_seed7_total_loss(self):
        gen = np.random.default_rng(7)
        z = gen.normal(0, 1.0, (8, 4))
        z2 = gen.normal(0, 1.0, (8, 4))
        w = ss.VicregWeights()
        assert ss.vicreg_loss(z, z2, w) == pytest.approx(oracle_total(z, z2, w), abs=1e-12)


class TestLossGradients:
    @staticmethod
    def fd_grad(fn, z, h=1e-6):
        g = np.zeros_like(z)
        for i in np.ndindex(z.shape):
            zp = z.copy()
            zp[i] += h
            zm = z.copy()
            zm[i] -= h
            g[i] = (fn(zp) - fn(zm)) / (2 * h)
        return g

    def test_variance_grad(self):
        z = np.random.default_rng(0).normal(0, 0.5, (6, 3))
        val, dz = vicreg_variance_grad(z)
        assert val == pytest.approx(vicreg_variance(z), abs=1e-15)
        np.testing.assert_allclose(dz, self.fd_grad(vicreg_variance, z), atol=1e-8)

    def test_invariance_grad(self):
        gen = np.random.default_rng(1)
        z, z2 = gen.random((6, 3)), gen.random((6, 3))
        _, dz, dz2 = vicreg_invariance_grad(z, z2)
        np.testing.assert_allclose(dz, self.fd_grad(lambda a: vicreg_invariance(a, z2), z), atol=1e-8)
        np.testing.assert_allclose(dz2, self.fd_grad(lambda a: vicreg_invariance(z, a), z2), atol=1e-8)

    def test_covariance_grad(self):
        z = np.random.default_rng(2).normal(0, 1.0, (6, 4))
        val, dz = vicreg_covariance_grad(z)
        assert val == pytest.approx(vicreg_covariance(z), abs=1e-14)
        np.testing.assert_allclose(dz, self.fd_grad(vicreg_covariance, z), atol=1e-7)

    def test_total_grad(self):
        gen = np.random.default_rng(3)
        z, z2 = gen.normal(0, 0.7, (8, 4)), gen.normal(0, 0.7, (8, 4))
        w = ss.VicregWeights()
        loss, dz, dz2 = ss.vicreg_loss_grads(z, z2, w)
        assert loss == pytest.approx(ss.vicreg_loss(z, z2, w), rel=1e-12)
        np.testing.assert_allclose(
            dz, self.fd_grad(lambda a: ss.vicreg_loss(a, z2, w), z), atol=1e-5
        )
        np.testing.assert_allclose(
            dz2, self.fd_grad(lambda a: ss.vicreg_loss(z, a, w), z2), atol=1e-5
        )

    def test_weights_validation(self):
        with pytest.raises(ValueError):
            ss.VicregWeights(lam=-1.0)
        assert FACTORY_VICREG.lam == 69.0


# ---------------------------------------------------------------------------
# feature extractor
# ---------------------------------------------------------------------------


class TestFeatureExtractor:
    def _fx(self, n_d=4, k=6, emb=5):
        return ss.build_extractor(n_d, k, ss.RandomStream(0, "fx"), embedding_dim=emb,
                                  aggregator_hidden=(16, 8))

    def test_identity_encoders_pass_input_through(self):
        fx = self._fx()
        xb = np.random.default_rng(0).random((3, 4, 6)).astype(np.float32)
        q, _ = fx.encode_batch(xb, "eval", None)
        np.testing.assert_array_equal(q, xb)

    def test_embedding_shape(self):
        fx = self._fx()
        xb = np.random.default_rng(0).random((3, 4, 6)).astype(np.float32)
        assert fx.embed(xb).shape == (3, 5)

    def test_shape_mismatch_rejected(self):
        fx = self._fx()
        with pytest.raises(ValueError):
            fx.encode_batch(np.zeros((2, 5, 6), dtype=np.float32), "eval", None)

    def test_zero_input_linear_aggregator_zero_output(self):
        agg = MlpStack([Dense("agg.lin", 4 * 6, 5, ss.RandomStream(0, "a"))])
        fx = ss.FeatureExtractor(4, 6, agg, None, 6, 5)
        out = fx.embed(np.zeros((2, 4, 6), dtype=np.float32))
        np.testing.assert_array_equal(out, 0.0)

    def test_station_order_sensitivity(self):
        fx = self._fx()
        gen = np.random.default_rng(1)
        x = gen.random((1, 4, 6)).astype(np.float32)
        x_swapped = x.copy()
        x_swapped[:, [0, 1]] = x_swapped[:, [1, 0]]
        assert not np.allclose(fx.embed(x), fx.embed(x_swapped))

    def test_train_mode_without_dropout_matches_eval_given_same_stats(self):
        fx = ss.build_extractor(4, 6, ss.RandomStream(0, "fx0"), embedding_dim=5,
                                aggregator_hidden=(16, 8), dropout_rate=0.0)
        xb = np.random.default_rng(0).random((8, 4, 6)).astype(np.float32)
        # train forward uses batch stats; align the running stats with them so
        # the two modes see identical normalization statistics
        z_train, _ = fx.aggregate_batch(xb, "train", ss.RandomStream(0, "nop"))
        z_train2, _ = fx.aggregate_batch(xb, "train", None)
        np.testing.assert_array_equal(z_train, z_train2)  # no dropout randomness

    def test_learnable_encoders_optional(self):
        fx = ss.build_extractor(
            3, 6, ss.RandomStream(0, "fx2"), embedding_dim=4,
            aggregator_hidden=(8, 8), encoder_widths=(10, 7),
        )
        assert not fx.identity_encoders
        xb = np.random.default_rng(0).random((2, 3, 6)).astype(np.float32)
        q, _ = fx.encode_batch(xb, "eval", None)
        assert q.shape == (2, 3, 7)
        assert fx.embed(xb).shape == (2, 4)

    def test_masked_views_full_mask_collapses_to_zero_input(self):
        # pre-training masks at the embedding level: a view whose every
        # station is masked is the embedding of an all-zero input
        fx = self._fx()
        xb = np.random.default_rng(6).random((1, 4, 6)).astype(np.float32)
        q, _ = fx.encode_batch(xb, "eval", None)
        keep_none = np.zeros((1, 4, 1), dtype=np.float32)
        z1, _ = fx.aggregate_batch(q * keep_none, "eval", None)
        z2, _ = fx.aggregate_batch(q, "eval", None)
        zero = fx.embed(np.zeros((1, 4, 6), dtype=np.float32))
        np.testing.assert_allclose(z1, zero, atol=1e-6)
        assert not np.allclose(z2, zero)


def _bits(a):
    a = np.ascontiguousarray(a)
    return a.dtype.str, a.shape, a.tobytes()


class TestGroupedEncoders:
    """The station encoders run as one GroupedStack; each station must
    compute bit for bit what its own MlpStack computes in the per-station
    loop (tests/oracles.py)."""

    @settings(max_examples=80, deadline=None)
    @given(
        n_d=st.sampled_from([1, 3, 16]),
        n=st.integers(1, 40),
        k=st.integers(1, 12),
        widths=st.lists(st.integers(1, 12), min_size=1, max_size=2),
        rate=st.sampled_from([0.0, 0.3]),
        f64=st.booleans(),
        dq64=st.booleans(),
        seed=st.integers(0, 10_000),
    )
    def test_bitwise_equal_to_station_loop(self, n_d, n, k, widths, rate, f64, dq64, seed):
        fx = ss.build_extractor(n_d, k, ss.RandomStream(seed, "fx"), embedding_dim=3,
                                aggregator_hidden=(4, 4), encoder_widths=tuple(widths),
                                dropout_rate=rate)
        gen = np.random.default_rng(seed)
        xb = gen.standard_normal((n, n_d, k)).astype(np.float32)
        if f64:
            fx, xb = fx.cast(np.float64), xb.astype(np.float64)
        # eval between two train passes sees running statistics moved by the first
        for mode in ("train", "eval", "train"):
            stacks = station_stacks(fx.encoders)
            rng = ss.RandomStream(seed, "enc")
            q, caches = fx.encode_batch(xb, mode, rng)
            q_loop, caches_loop = encode_loop(stacks, xb, mode, rng)
            assert _bits(q) == _bits(q_loop)
            loop_buffers = {name: b for s in stacks for name, b in s.buffers().items()}
            for name, b in fx.encoders.buffers().items():
                assert _bits(b) == _bits(loop_buffers[name]), name
            if mode == "train":
                dq = gen.standard_normal(q.shape)
                if not dq64:
                    dq = dq.astype(np.float32)
                grads = fx.encode_backward(caches, dq)
                want = encode_backward_loop(stacks, caches_loop, dq)
                assert grads.keys() == want.keys()
                for name in want:
                    assert _bits(grads[name]) == _bits(want[name]), name

    def test_parameters_are_views_of_the_group(self):
        fx = ss.build_extractor(3, 4, ss.RandomStream(0, "fx"), embedding_dim=3,
                                aggregator_hidden=(4, 4), encoder_widths=(5,))
        w = fx.encoders.layers[0].params["w"]
        assert w.shape == (3, 4, 5)
        for d in range(3):
            assert np.shares_memory(fx.params()[f"enc{d}.b0.dense.w"], w[d])
        # what an optimizer writes through a per-station name reaches the group
        fx.params()["enc1.b0.dense.w"][...] = 0.0
        assert not w[1].any() and w[0].any()

    def test_eval_keeps_no_caches_and_backward_needs_them(self):
        fx = ss.build_extractor(2, 4, ss.RandomStream(0, "fx"), encoder_widths=(5,))
        q, caches = fx.encode_batch(np.ones((3, 2, 4), np.float32), "eval", None)
        assert caches is None
        with pytest.raises(ValueError):
            fx.encode_backward(caches, np.ones(q.shape))

    def test_train_dropout_needs_a_stream(self):
        fx = ss.build_extractor(2, 4, ss.RandomStream(0, "fx"), encoder_widths=(5,))
        with pytest.raises(ValueError, match="RNG stream"):
            fx.encode_batch(np.ones((3, 2, 4), np.float32), "train", None)


# ---------------------------------------------------------------------------
# pre-training
# ---------------------------------------------------------------------------


class TestPretrain:
    def test_loss_decreases(self, small_datasets):
        unlabeled = small_datasets[3]
        rng = ss.RandomStream(0, "pt")
        fx = ss.build_extractor(unlabeled.n_stations, unlabeled.k, rng.child("init"))
        res = ss.pretrain(
            fx, unlabeled, 0.5, ss.VicregWeights(), ss.TrainConfig(1e-3, 256, 20, 10),
            rng.child("fit"),
        )
        assert res.history[-1] < res.history[0]
        assert min(res.history[:5]) < res.history[0] * 1.01

    def test_deterministic(self, small_datasets):
        unlabeled = small_datasets[3]

        def run():
            rng = ss.RandomStream(1, "pt")
            fx = ss.build_extractor(unlabeled.n_stations, unlabeled.k, rng.child("init"))
            ss.pretrain(fx, unlabeled, 0.5, ss.VicregWeights(),
                        ss.TrainConfig(1e-3, 256, 5, 2), rng.child("fit"))
            return {k: v.copy() for k, v in fx.params().items()}

        a, b = run(), run()
        for k in a:
            np.testing.assert_array_equal(a[k], b[k])

    def test_requires_two_samples(self, small_datasets):
        unlabeled = small_datasets[3]
        tiny = unlabeled.subset(np.array([0]))
        fx = ss.build_extractor(unlabeled.n_stations, unlabeled.k, ss.RandomStream(0, "x"))
        with pytest.raises(ValueError):
            ss.pretrain(fx, tiny, 0.5, ss.VicregWeights(), ss.TrainConfig(1e-3, 8, 2, 1),
                        ss.RandomStream(0, "f"))

    def test_invalid_p_mask(self, small_datasets):
        unlabeled = small_datasets[3]
        fx = ss.build_extractor(unlabeled.n_stations, unlabeled.k, ss.RandomStream(0, "x"))
        with pytest.raises(ValueError):
            ss.pretrain(fx, unlabeled, 1.5, ss.VicregWeights(), ss.TrainConfig(1e-3, 8, 2, 1),
                        ss.RandomStream(0, "f"))


class TestExtractorCheckpoint:
    def test_round_trip_identical_embeddings(self, tmp_path, small_datasets):
        unlabeled = small_datasets[3]
        fx = ss.build_extractor(unlabeled.n_stations, unlabeled.k, ss.RandomStream(0, "ck"))
        # move BN buffers off defaults
        fx.embed(unlabeled.x[:32].astype(np.float32), "train", ss.RandomStream(0, "w"))
        p = tmp_path / "fx.ck"
        ss.save_checkpoint(fx, p, meta={"note": "test"})
        back = ss.load_checkpoint(p, "feature_extractor")
        xb = unlabeled.x[:8].astype(np.float32)
        np.testing.assert_array_equal(back.embed(xb), fx.embed(xb))

    def test_wrong_kind_rejected(self, tmp_path):
        from stationsense.nnkit import write_bundle

        p = tmp_path / "bad.ck"
        write_bundle(p, {"type": "something_else"}, {})
        with pytest.raises(ss.CheckpointError):
            ss.load_checkpoint(p, "feature_extractor")
