"""Supervised training with station-wise masking augmentation, baselines,
and the checkpoint codec."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import stationsense as ss
from stationsense.downstream import (
    AugmentConfig,
    inpaint_batch,
    random_erase_batch,
    sma_augment_batch,
)
from stationsense.nnkit import read_bundle, write_bundle

from conftest import random_batch
from oracles import ensemble_predict_loop, sma_augment_one


def small_settings(epochs=30):
    return ss.TrainConfig(1e-3, 128, epochs, min(10, epochs - 1))


def naive_model(labeled, epochs, seed=0, variant="office"):
    """`naive` as train_method builds it, on a short downstream schedule."""
    settings = ss.TrainSettings(downstream=small_settings(epochs), naive_variant=variant)
    return ss.train_method("naive", labeled, None, settings, seed)


# ---------------------------------------------------------------------------
# augmentations
# ---------------------------------------------------------------------------


class TestSmaAugment:
    def test_p_zero_identity(self, rng):
        x, _ = random_batch(np.random.default_rng(0), n=4)
        np.testing.assert_array_equal(sma_augment_batch(x, 0.0, rng), x)

    def test_p_one_all_masked(self, rng):
        x, _ = random_batch(np.random.default_rng(0), n=4)
        np.testing.assert_array_equal(sma_augment_batch(x, 1.0, rng), 0.0)

    def test_masked_slot_rate(self):
        r = ss.RandomStream(0, "rate")
        xb = np.ones((100_000, 8, 1), dtype=np.float32)
        out = sma_augment_batch(xb, 0.5, r)
        rate = 1.0 - out.mean()
        assert abs(rate - 0.5) < 0.005

    def test_batch_matches_per_sample_given_same_stream(self):
        gen = np.random.default_rng(1)
        xb = gen.random((20, 8, 4)).astype(np.float32)
        out = sma_augment_batch(xb, 0.4, ss.RandomStream(2, "m"))
        r = ss.RandomStream(2, "m")
        for i in range(20):
            np.testing.assert_array_equal(out[i], sma_augment_one(xb[i], 0.4, r))


class TestRandomErase:
    @staticmethod
    def _observed(gen, n, n_d, k=52):
        # strictly positive amplitudes, so every zero is an erased slot
        return gen.random((n, n_d, k)).astype(np.float32) + 0.1, np.zeros((n, n_d), bool)

    def test_zero_range_identity(self, rng):
        x, missing = self._observed(np.random.default_rng(0), 4, 8)
        np.testing.assert_array_equal(random_erase_batch(x, missing, 0.0, 0.0, rng), x)

    def test_full_range_erases_everything_observed(self, rng):
        x, missing = random_batch(np.random.default_rng(0), n=4, missing=(2,))
        before = x.copy()
        out = random_erase_batch(x, missing, 1.0, 1.0, rng)
        np.testing.assert_array_equal(out, 0.0)
        np.testing.assert_array_equal(x, before)  # the input is not modified

    def test_run_lengths_and_contiguity(self):
        # half-width fraction on K=52 always erases exactly 26 contiguous slots
        x, missing = self._observed(np.random.default_rng(3), 200, 2)
        out = random_erase_batch(x, missing, 0.5, 0.5, ss.RandomStream(0, "re"))
        for i in range(200):
            for d in range(2):
                zero = np.nonzero(out[i, d] == 0.0)[0]
                assert len(zero) == 26
                assert zero[-1] - zero[0] == 25  # one contiguous run

    def test_run_length_bounds_across_draws(self):
        x, missing = self._observed(np.random.default_rng(4), 500, 1)
        out = random_erase_batch(x, missing, 0.4, 0.6, ss.RandomStream(1, "re2"))
        n_zero = np.sum(out[:, 0] == 0.0, axis=1)
        assert n_zero.min() >= int(np.ceil(0.4 * 52))
        assert n_zero.max() <= int(np.ceil(0.6 * 52))

    def test_missing_stations_untouched(self, rng):
        # rows flagged missing keep their values even when they are non-zero
        x, missing = self._observed(np.random.default_rng(0), 4, 8)
        missing[:, [0, 5]] = True
        out = random_erase_batch(x, missing, 0.5, 0.5, rng)
        np.testing.assert_array_equal(out[:, [0, 5]], x[:, [0, 5]])
        assert (out[:, 1] == 0.0).any()

    def test_batch_variant_respects_missing(self):
        xb = np.ones((4, 3, 10), dtype=np.float32)
        missing = np.zeros((4, 3), bool)
        missing[0, 1] = True
        out = random_erase_batch(xb, missing, 0.5, 0.5, ss.RandomStream(0, "rb"))
        np.testing.assert_array_equal(out[0, 1], 1.0)
        assert (out == 0.0).any()

    def test_invalid_range(self):
        for bad in ((0.7, 0.3), (0.2, 1.5), (-0.5, -0.2)):
            x, missing = self._observed(np.random.default_rng(0), 4, 2, k=10)
            with pytest.raises(ValueError, match="erase range"):
                random_erase_batch(x, missing, *bad, ss.RandomStream(0, "erase"))


class TestAugmentConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            AugmentConfig(kind="bogus")
        with pytest.raises(ValueError):
            AugmentConfig(strategy="bogus")
        with pytest.raises(ValueError):
            AugmentConfig(p_mask=1.5)


# ---------------------------------------------------------------------------
# sensing model + training
# ---------------------------------------------------------------------------


class TestSensingModel:
    def _model(self, train, mode="joint", with_fx=True):
        rng = ss.RandomStream(0, "model")
        if with_fx:
            fx = ss.build_extractor(train.n_stations, train.k, rng.child("fx"),
                                    embedding_dim=16, aggregator_hidden=(32, 16))
            head = ss.build_head(16, rng.child("head"))
            return ss.SensingModel(fx, head, mode)
        head = ss.build_head(train.n_stations * train.k, rng.child("head"))
        return ss.SensingModel(None, head, mode)

    def test_predict_deterministic(self, small_datasets):
        train = small_datasets[0]
        model = self._model(train)
        a = model.predict(train.x[:10])
        b = model.predict(train.x[:10])
        np.testing.assert_array_equal(a, b)

    def test_predict_unaffected_by_empty_mask(self, small_datasets):
        train = small_datasets[0]
        model = self._model(train)
        x = train.x[:8]
        masked = sma_augment_batch(x, 0.0, ss.RandomStream(0, "empty"))
        np.testing.assert_array_equal(model.predict(masked), model.predict(x))

    def test_frozen_without_extractor_coerced_to_joint(self, small_datasets):
        train = small_datasets[0]
        model = self._model(train, mode="frozen", with_fx=False)
        assert model.mode == "joint"

    def test_invalid_mode(self, small_datasets):
        train = small_datasets[0]
        with pytest.raises(ValueError):
            self._model(train, mode="weird")

    def test_training_reduces_loss_and_beats_constant(self, small_datasets):
        train, _, test, _ = small_datasets
        model = self._model(train, with_fx=False)
        res = ss.train_downstream(
            model, train, AugmentConfig(kind="none"), small_settings(120), ss.RandomStream(0, "tr")
        )
        assert res.history[5] < res.history[0]
        model_rmse = ss.rmse(model.predict(test.x), test.labels)
        const_rmse = ss.rmse(ss.ConstantModel().predict(test.x), test.labels)
        assert model_rmse < const_rmse

    def test_offline_double_uses_expanded_set(self, small_datasets):
        train = small_datasets[0]
        seen = []
        import stationsense.downstream as ds

        orig = ds.fit_loop

        def spy(params, step, n, tc, rng, buffers=None):
            seen.append(n)
            return orig(params, step, n, tc, rng, buffers)

        ds.fit_loop = spy
        try:
            model = self._model(train, with_fx=False)
            ss.train_downstream(model, train, AugmentConfig(kind="sma", p_mask=0.5),
                                small_settings(2), ss.RandomStream(0, "tr"))
        finally:
            ds.fit_loop = orig
        assert seen == [2 * train.n]

    def test_online_p_mask_zero_equals_no_augmentation(self, small_datasets):
        # masking probability zero must leave the optimization bitwise
        # identical to disabling the augmentation entirely
        train = small_datasets[0]

        def run(aug):
            model = self._model(train, with_fx=False)
            ss.train_downstream(model, train, aug, small_settings(4), ss.RandomStream(3, "tr"))
            return {k: v.copy() for k, v in model.head.params().items()}

        a = run(AugmentConfig(kind="sma", p_mask=0.0, strategy="online", p_aug=1.0))
        b = run(AugmentConfig(kind="none"))
        for k in a:
            np.testing.assert_array_equal(a[k], b[k])

    def test_joint_mode_updates_extractor(self, small_datasets):
        train = small_datasets[0]
        model = self._model(train, mode="joint")
        before = {k: v.copy() for k, v in model.extractor.params().items()}
        ss.train_downstream(model, train, AugmentConfig(kind="none"), small_settings(3),
                            ss.RandomStream(0, "tr"))
        changed = any(
            not np.array_equal(before[k], v) for k, v in model.extractor.params().items()
        )
        assert changed

    def test_frozen_mode_preserves_extractor(self, small_datasets):
        train = small_datasets[0]
        model = self._model(train, mode="frozen")
        before = {k: v.copy() for k, v in model.extractor.params().items()}
        ss.train_downstream(model, train, AugmentConfig(kind="none"), small_settings(3),
                            ss.RandomStream(0, "tr"))
        for k, v in model.extractor.params().items():
            np.testing.assert_array_equal(before[k], v)

    def test_shape_mismatch_rejected(self, small_datasets):
        train = small_datasets[0]
        rng = ss.RandomStream(0, "mm")
        fx = ss.build_extractor(train.n_stations + 1, train.k, rng.child("fx"),
                                embedding_dim=8, aggregator_hidden=(8, 8))
        model = ss.SensingModel(fx, ss.build_head(8, rng.child("h")), "joint")
        with pytest.raises(ValueError):
            ss.train_downstream(model, train, AugmentConfig(kind="none"),
                                small_settings(2), rng)


# ---------------------------------------------------------------------------
# baselines
# ---------------------------------------------------------------------------


class TestConstantBaseline:
    def test_always_same_value(self, small_datasets):
        test = small_datasets[2]
        model = ss.ConstantModel(0.5)
        np.testing.assert_array_equal(model.predict(test.x), 0.5)

    def test_rmse_zero_on_matching_labels(self):
        preds = ss.ConstantModel(0.5).predict(np.zeros((10, 2, 3)))
        assert ss.rmse(preds, np.full(10, 0.5)) == 0.0


class TestNaiveSupervised:
    def test_office_variant_has_no_extractor(self, small_datasets):
        train = small_datasets[0]
        model = naive_model(train, 5)
        assert model.extractor is None

    def test_factory_variant_trains_extractor(self, small_datasets):
        train = small_datasets[0]
        sub = train.subset(np.arange(64))
        model = naive_model(sub, 3, variant="factory")
        assert model.extractor is not None

    def test_unknown_variant(self, small_datasets):
        with pytest.raises(ValueError):
            naive_model(small_datasets[0], 2, variant="x")


class TestEnsemble:
    def test_member_count_and_mean(self, small_datasets):
        train, _, test, _ = small_datasets
        sub = train.subset(np.arange(96))
        model = ss.train_ensemble(sub, small_settings(3), ss.RandomStream(0, "en"))
        assert len(model.members) == train.n_stations
        preds = model.predict(test.x[:5])
        member_preds = [
            m.predict(test.x[:5, d : d + 1, :]) for d, m in enumerate(model.members)
        ]
        np.testing.assert_allclose(preds, np.mean(member_preds, axis=0), rtol=1e-6)

    def test_masking_one_station_changes_only_that_member(self, small_datasets):
        train, _, test, _ = small_datasets
        sub = train.subset(np.arange(96))
        model = ss.train_ensemble(sub, small_settings(3), ss.RandomStream(0, "en"))
        x = test.x[:1].copy()
        x_masked = x.copy()
        x_masked[:, 2, :] = 0.0
        for d, m in enumerate(model.members):
            a = m.predict(x[:, d : d + 1, :])
            b = m.predict(x_masked[:, d : d + 1, :])
            if d == 2:
                assert not np.allclose(a, b)
            else:
                np.testing.assert_array_equal(a, b)


    @settings(max_examples=40, deadline=None)
    @given(
        n_d=st.sampled_from([1, 3, 16]),
        n=st.integers(1, 30),
        k=st.integers(1, 8),
        seed=st.integers(0, 10_000),
    )
    def test_grouped_predict_bitwise_equal_to_member_loop(self, n_d, n, k, seed):
        members = [
            ss.SensingModel(None, ss.build_head(k, ss.RandomStream(seed, f"m{d}")), "joint")
            for d in range(n_d)
        ]
        model = ss.EnsembleModel(members)
        xb = np.random.default_rng(seed).standard_normal((n, n_d, k)).astype(np.float32)
        xb[:, n_d // 2] = 0.0  # a missing station's placeholder
        got, want = model.predict(xb), ensemble_predict_loop(members, xb)
        assert got.dtype == want.dtype and got.shape == (n,)
        assert got.tobytes() == want.tobytes()

    def test_members_share_the_group_parameters(self):
        members = [ss.SensingModel(None, ss.build_head(4, ss.RandomStream(0, f"m{d}")), "joint")
                   for d in range(3)]
        model = ss.EnsembleModel(members)
        # an in-place update of one member, as Adam makes, is what the group predicts with
        members[1].head.params()["head.h1.b"][...] = 5.0
        xb = np.random.default_rng(0).random((4, 3, 4)).astype(np.float32)
        np.testing.assert_array_equal(model.predict(xb), ensemble_predict_loop(members, xb))
        assert model.heads.layers[2].params["b"][1, 0] == 5.0

    def test_rejects_extractors_and_wrong_station_count(self):
        fx = ss.build_extractor(1, 4, ss.RandomStream(0, "fx"), embedding_dim=3)
        with pytest.raises(ValueError, match="head-only"):
            ss.EnsembleModel([ss.SensingModel(fx, ss.build_head(3, ss.RandomStream(0, "h")))])
        model = ss.EnsembleModel(
            [ss.SensingModel(None, ss.build_head(4, ss.RandomStream(0, f"m{d}"))) for d in range(3)]
        )
        with pytest.raises(ValueError, match="members"):
            model.predict(np.zeros((2, 1, 4), np.float32))


class TestDenoisingAutoencoder:
    def test_reconstruction_shape_and_loss_decrease(self, small_datasets):
        unlabeled = small_datasets[3]
        dae, res = ss.train_dae(unlabeled, 0.5, small_settings(12), ss.RandomStream(0, "dae"),
                                embedding_dim=16)
        assert res.history[5] < res.history[0]
        recon = dae.reconstruct(unlabeled.x[:4].astype(np.float32))
        assert recon.shape == (4, unlabeled.n_stations, unlabeled.k)

    def test_inpaint_touches_only_missing_rows(self, small_datasets):
        unlabeled = small_datasets[3]
        dae, _ = ss.train_dae(unlabeled, 0.5, small_settings(3), ss.RandomStream(0, "dae2"),
                              embedding_dim=16)
        xb = unlabeled.x[:3].astype(np.float32)
        missing = np.zeros((3, unlabeled.n_stations), bool)
        missing[1, 4] = True
        out = inpaint_batch(dae, xb, missing)
        np.testing.assert_array_equal(out[0], xb[0])
        np.testing.assert_array_equal(out[2], xb[2])
        assert not np.array_equal(out[1, 4], xb[1, 4])
        np.testing.assert_array_equal(np.delete(out[1], 4, axis=0), np.delete(xb[1], 4, axis=0))

    def test_no_missing_identity(self, small_datasets):
        unlabeled = small_datasets[3]
        dae, _ = ss.train_dae(unlabeled, 0.5, small_settings(3), ss.RandomStream(0, "dae3"),
                              embedding_dim=16)
        xb = unlabeled.x[:2].astype(np.float32)
        out = inpaint_batch(dae, xb, np.zeros((2, unlabeled.n_stations), bool))
        np.testing.assert_array_equal(out, xb)


class TestInpaintingModel:
    def test_differs_from_zero_filled_under_missingness(self, small_datasets):
        train, _, test, unlabeled = small_datasets
        base = naive_model(train.subset(np.arange(128)), 5)
        dae, _ = ss.train_dae(unlabeled, 0.5, small_settings(3), ss.RandomStream(0, "ip2"),
                              embedding_dim=16)
        model = ss.InpaintingModel(base, dae)
        x = test.x[:5].astype(np.float32).copy()
        x[:, 3, :] = 0.0  # simulate a missing station as the zero placeholder
        assert not np.allclose(model.predict(x), base.predict(x))

    def test_sample_level_prediction(self, small_datasets):
        train, _, test, unlabeled = small_datasets
        base = naive_model(train.subset(np.arange(64)), 3, seed=1)
        dae, _ = ss.train_dae(unlabeled, 0.5, small_settings(2), ss.RandomStream(1, "ip2"),
                              embedding_dim=16)
        model = ss.InpaintingModel(base, dae)
        x = test.x[:1].copy()
        x[:, 1, :] = 0.0
        # the stations predict takes as missing, its all-zero rows, are the
        # dataset's missing ones plus the one zeroed here
        missing = test.missing[:1].copy()
        missing[0, 1] = True
        np.testing.assert_array_equal(np.all(x == 0.0, axis=2), missing)
        v = model.predict(x)
        assert v.shape == (1,) and np.isfinite(v[0])
        np.testing.assert_array_equal(v, base.predict(inpaint_batch(dae, x, missing)))


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------


def _golden_objects():
    """Untrained, seeded objects whose checkpoint bytes are pinned below."""
    fx = ss.build_extractor(3, 4, ss.RandomStream(0, "golden"), embedding_dim=3,
                            aggregator_hidden=(8, 6), encoder_widths=(5,))
    model = ss.SensingModel(fx, ss.build_head(3, ss.RandomStream(0, "golden/head")), "frozen")
    plain = ss.SensingModel(None, ss.build_head(12, ss.RandomStream(0, "golden/plain")), "joint")
    return fx, model, plain


class TestModelCheckpoint:
    def test_round_trip_identical_predictions(self, small_datasets, tmp_path):
        train, _, test, _ = small_datasets
        rng = ss.RandomStream(0, "ckm")
        fx = ss.build_extractor(train.n_stations, train.k, rng.child("fx"),
                                embedding_dim=16, aggregator_hidden=(32, 16))
        model = ss.SensingModel(fx, ss.build_head(16, rng.child("h")), "joint")
        ss.train_downstream(model, train.subset(np.arange(64)), AugmentConfig(kind="none"),
                            small_settings(3), rng.child("tr"))
        p = tmp_path / "model.ck"
        ss.save_checkpoint(model, p, meta={"note": "x"})
        back = ss.load_checkpoint(p, "sensing_model")
        assert back.mode == "joint"
        np.testing.assert_array_equal(back.predict(test.x[:10]), model.predict(test.x[:10]))

    def test_headless_extractor_none_round_trip(self, small_datasets, tmp_path):
        train, _, test, _ = small_datasets
        model = naive_model(train.subset(np.arange(64)), 3)
        p = tmp_path / "naive.ck"
        ss.save_checkpoint(model, p)
        back = ss.load_checkpoint(p)
        assert back.extractor is None
        np.testing.assert_array_equal(back.predict(test.x[:10]), model.predict(test.x[:10]))


class TestCheckpointCodec:
    GOLDEN_SHA256 = {
        "fx": "ec1d82516558b42d0632d5207f574eb95f0762827b20d90125a8d8eedd9d6537",
        "model": "c8e4ad4d8cfe2a009bd3ae07c4812ab791ff197305a0b1d5c2ec825ed6950398",
        "plain": "6f680c163a0de016d9823d6ddf0773c0f3a34618edf4949160721ba1f16179e7",
    }

    def test_golden_bytes(self, tmp_path):
        # pins the feature_extractor and sensing_model file formats byte for byte
        fx, model, plain = _golden_objects()
        for tag, obj, meta in (("fx", fx, {"note": "golden"}), ("model", model, {"seed": 0}),
                               ("plain", plain, None)):
            p = tmp_path / tag
            ss.save_checkpoint(obj, p, meta)
            assert hashlib.sha256(p.read_bytes()).hexdigest() == self.GOLDEN_SHA256[tag], tag

    # sha256 of the golden checkpoints' outputs on a fixed batch after a
    # load, recorded with the per-station encoder loop (x86-64, numpy's
    # OpenBLAS; another BLAS may round differently)
    GOLDEN_OUTPUT_SHA256 = {
        "fx": "9b8e0f3a86ad2b16a7fe30aa659d3fd2b50b84a5df1213e5933f0bb197db7ca8",
        "model": "26285250f15896f1b2835f8192f8ccdc3c47092394c2ca052f55dbb03246ecb7",
    }

    def test_golden_checkpoints_load_and_predict(self, tmp_path):
        # files in the pinned format load into grouped encoders and compute
        # what the per-station encoders computed
        fx, model, _ = _golden_objects()
        xb = np.random.default_rng(5).standard_normal((6, 3, 4)).astype(np.float32)
        xb[2, 1] = 0.0
        for tag, obj, meta in (("fx", fx, {"note": "golden"}), ("model", model, {"seed": 0})):
            p = tmp_path / tag
            ss.save_checkpoint(obj, p, meta)
            assert hashlib.sha256(p.read_bytes()).hexdigest() == self.GOLDEN_SHA256[tag], tag
            back = ss.load_checkpoint(p)
            out = back.embed(xb) if tag == "fx" else back.predict(xb)
            assert out.dtype == np.float32
            assert hashlib.sha256(out.tobytes()).hexdigest() == self.GOLDEN_OUTPUT_SHA256[tag], tag

    def test_mismatched_station_encoders_rejected(self, tmp_path):
        def widen(m, a):
            m["encoders"][1][0]["n_out"] = 6

        p = self._rewrite(tmp_path, widen)
        with pytest.raises(ss.CheckpointError, match="same layers"):
            ss.load_checkpoint(p)

    def _rewrite(self, tmp_path, edit):
        """Save the golden extractor, let `edit` change its manifest and
        arrays, and re-seal the bundle so only the codec's checks can object."""
        p = tmp_path / "fx.ck"
        ss.save_checkpoint(_golden_objects()[0], p)
        manifest, arrays = read_bundle(p)
        edit(manifest, arrays)
        write_bundle(p, manifest, arrays)
        return p

    def test_unknown_type_rejected(self, tmp_path):
        p = self._rewrite(tmp_path, lambda m, a: m.update(type="mlp_stack"))
        with pytest.raises(ss.CheckpointError):
            ss.load_checkpoint(p)

    def test_kind_mismatch_rejected(self, tmp_path):
        p = self._rewrite(tmp_path, lambda m, a: None)
        assert isinstance(ss.load_checkpoint(p, "feature_extractor"), ss.FeatureExtractor)
        with pytest.raises(ss.CheckpointError):
            ss.load_checkpoint(p, "sensing_model")

    def test_manifest_names_missing_array_rejected(self, tmp_path):
        p = self._rewrite(tmp_path, lambda m, a: a.pop("buffer:agg.b0.bn.running_mean"))
        with pytest.raises(ss.CheckpointError, match="agg.b0.bn.running_mean"):
            ss.load_checkpoint(p)

    def test_wrong_shape_rejected(self, tmp_path):
        def grow(m, a):
            a["buffer:agg.b0.bn.running_mean"] = np.zeros(9, np.float32)

        p = self._rewrite(tmp_path, grow)
        with pytest.raises(ss.CheckpointError, match="shape"):
            ss.load_checkpoint(p)

    def test_malformed_manifest_rejected(self, tmp_path):
        p = self._rewrite(tmp_path, lambda m, a: m.pop("aggregator"))
        with pytest.raises(ss.CheckpointError):
            ss.load_checkpoint(p)

    def test_unknown_layer_kind_rejected(self, tmp_path):
        p = self._rewrite(tmp_path, lambda m, a: m["aggregator"][0].update(kind="conv"))
        with pytest.raises(ss.CheckpointError, match="unknown layer kind"):
            ss.load_checkpoint(p)

    @settings(max_examples=25, deadline=None)
    @given(
        n_d=st.integers(1, 4),
        k=st.integers(1, 5),
        enc=st.one_of(st.none(), st.integers(1, 4)),
        with_fx=st.booleans(),
        seed=st.integers(0, 10_000),
    )
    def test_round_trip_bitwise(self, tmp_path_factory, n_d, k, enc, with_fx, seed):
        rng = ss.RandomStream(seed, "rt")
        fx = ss.build_extractor(n_d, k, rng.child("fx"), embedding_dim=3, aggregator_hidden=(4, 5),
                                encoder_widths=None if enc is None else (enc,))
        # a train-mode pass moves the BN buffers off their initial values
        warm = rng.child("warm")
        q, _ = fx.encode_batch(np.random.default_rng(seed).random((6, n_d, k)).astype(np.float32), "train",
                               warm.child("enc"))
        fx.aggregate_batch(q, "train", warm.child("agg"))
        obj = fx
        if with_fx:
            obj = ss.SensingModel(fx, ss.build_head(3, rng.child("head")), "frozen")
        p = tmp_path_factory.mktemp("rt") / "ck"
        ss.save_checkpoint(obj, p, {"seed": seed})
        back = ss.load_checkpoint(p)
        assert type(back) is type(obj)
        p2 = p.with_name("ck2")
        ss.save_checkpoint(back, p2, {"seed": seed})
        assert p2.read_bytes() == p.read_bytes()
        xb = np.random.default_rng(seed + 1).random((3, n_d, k)).astype(np.float32)
        if with_fx:
            np.testing.assert_array_equal(back.predict(xb), obj.predict(xb))
        else:
            np.testing.assert_array_equal(back.embed(xb), obj.embed(xb))

    @settings(max_examples=50, deadline=None)
    @given(where=st.floats(0.0, 1.0, exclude_max=True), flip=st.integers(1, 255))
    def test_single_byte_corruption_rejected(self, tmp_path_factory, where, flip):
        p = tmp_path_factory.mktemp("bad") / "ck"
        ss.save_checkpoint(_golden_objects()[1], p)
        raw = bytearray(p.read_bytes())
        raw[int(where * len(raw))] ^= flip
        p.write_bytes(bytes(raw))
        with pytest.raises(ss.CheckpointError):
            ss.load_checkpoint(p)
