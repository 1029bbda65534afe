"""Golden hashes of the training maths: the loss and every gradient of one
pre-training step and one joint downstream step, one eval embedding, and the
predictions of every trained method that `train_method` builds; and the
precision envelope of the two steps against their float64 casts.

Each step is the real step body of `pretrain` or `train_downstream`: the
module's `fit_loop` is replaced by one that calls the step once on a fixed
batch and keeps what it returns, so no Adam update runs. A hash covers each
array's name, dtype, shape and bytes, so a gradient that changes precision
changes the hash. The hashes were recorded on x86-64 with numpy's OpenBLAS;
another BLAS may round differently.
"""

import hashlib

import numpy as np
import pytest

import stationsense as ss
from stationsense import crossl, downstream

N_D, K, N = 4, 6, 40


def _digest(loss, arrays):
    h = hashlib.sha256(np.float64(loss).tobytes())
    for name in sorted(arrays):
        a = np.ascontiguousarray(arrays[name])
        h.update(f"{name}|{a.dtype.str}|{a.shape}|".encode())
        h.update(a.tobytes())
    return h.hexdigest()


def _dataset(split, labeled, seed=7):
    gen = np.random.default_rng(seed)
    x = gen.random((N, N_D, K)).astype(np.float32)
    missing = np.zeros((N, N_D), bool)
    missing[::5, 1] = True
    x[missing] = 0.0
    labels = gen.random(N).astype(np.float32) if labeled else None
    return ss.Dataset(split, x, missing, labels, np.arange(N, dtype=np.float64))


def _extractor():
    return ss.build_extractor(N_D, K, ss.RandomStream(0, "golden/fx"), embedding_dim=8,
                              aggregator_hidden=(16, 12), encoder_widths=(64,))


def _one_step(monkeypatch, module, train):
    """Run `train` with `module.fit_loop` replaced by one step on all rows."""
    seen = {}

    def one_step(params, step_fn, n_samples, config, rng, buffers=None):
        seen["loss"], seen["grads"] = step_fn(np.arange(n_samples)[::-1], rng.child("step"))
        assert set(seen["grads"]) <= set(params)

    monkeypatch.setattr(module, "fit_loop", one_step)
    train()
    return seen["loss"], seen["grads"]


class TestGoldenTraining:
    GOLDEN_SHA256 = {
        "pretrain": "cd2439543a6bb772cd31713d81ae0ba914d9e1f69ddcf3c244a17650f5858012",
        "downstream": "5552b1fc581c237a0b3d41436db2cd3a8df1a330b19b94bfa28703fe6a0c640b",
        "embed": "d84d4a0040031e46e9dafa6174974f7f060f2e196f1b041634e2a4d2046e23d7",
    }

    def test_pretrain_step(self, monkeypatch):
        fx = _extractor()
        loss, grads = _one_step(monkeypatch, crossl, lambda: ss.pretrain(
            fx, _dataset("unlabeled", False), 0.5, ss.VicregWeights(),
            ss.TrainConfig(1e-3, N, 2, 1), ss.RandomStream(0, "golden/pt")))
        assert set(grads) == set(fx.params())
        assert _digest(loss, grads) == self.GOLDEN_SHA256["pretrain"]

    def test_joint_downstream_step(self, monkeypatch):
        fx = _extractor()
        model = ss.SensingModel(fx, ss.build_head(8, ss.RandomStream(0, "golden/head")), "joint")
        aug = ss.AugmentConfig(kind="sma", strategy="online", p_aug=0.5)
        loss, grads = _one_step(monkeypatch, downstream, lambda: ss.train_downstream(
            model, _dataset("train", True), aug, ss.TrainConfig(1e-3, N, 2, 1),
            ss.RandomStream(0, "golden/ds")))
        assert set(grads) == set(fx.params()) | set(model.head.params())
        assert _digest(loss, grads) == self.GOLDEN_SHA256["downstream"]

    def test_eval_embed(self):
        fx = _extractor()
        x = _dataset("test", False).x
        warm = ss.RandomStream(0, "golden/warm")  # a train-mode pass moves the BN buffers
        fx.aggregate_batch(fx.encode_batch(x, "train", warm.child("enc"))[0], "train", warm.child("agg"))
        z = fx.embed(x[:17])
        assert z.dtype == np.float32 and z.shape == (17, 8)
        assert _digest(0.0, {"z": z, **fx.buffers()}) == self.GOLDEN_SHA256["embed"]


def _relative_error(got, want):
    """Norm-wise relative error of `got` against the float64 `want`."""
    want = np.asarray(want, np.float64)
    return float(np.linalg.norm(np.asarray(got, np.float64) - want) / np.linalg.norm(want))


class TestPrecisionEnvelope:
    """The loss and every gradient of one real step of the float32 model,
    against the same step of its float64 cast on the same batch and streams.
    Unlike the hashes above, this admits a change of precision that keeps the
    step's maths: it bounds how far the float32 step may drift. Each bound
    is about 10x the largest error measured on x86-64 with numpy's OpenBLAS
    (noted per bound)."""

    LOSS_BOUND = 1e-6  # measured 7.2e-8 (pretrain) and 2.4e-8 (downstream)
    GRAD_BOUND = 1e-5  # measured at most 1.4e-6 (pretrain) and 1.0e-6 (downstream)

    def _check(self, step32, step64):
        (loss32, grads32), (loss64, grads64) = step32, step64
        assert set(grads32) == set(grads64)
        assert abs(loss32 - loss64) <= self.LOSS_BOUND * abs(loss64)
        errors = {name: _relative_error(grads32[name], grads64[name]) for name in grads64}
        assert {name: e for name, e in errors.items() if not e <= self.GRAD_BOUND} == {}

    def test_pretrain_step(self, monkeypatch):
        def step(fx):
            return _one_step(monkeypatch, crossl, lambda: ss.pretrain(
                fx, _dataset("unlabeled", False), 0.5, ss.VicregWeights(),
                ss.TrainConfig(1e-3, N, 2, 1), ss.RandomStream(0, "golden/pt")))

        fx = _extractor()
        self._check(step(fx), step(fx.cast(np.float64)))

    def test_joint_downstream_step(self, monkeypatch):
        def step(fx, head):
            aug = ss.AugmentConfig(kind="sma", strategy="online", p_aug=0.5)
            return _one_step(monkeypatch, downstream, lambda: ss.train_downstream(
                ss.SensingModel(fx, head, "joint"), _dataset("train", True), aug,
                ss.TrainConfig(1e-3, N, 2, 1), ss.RandomStream(0, "golden/ds")))

        fx, head = _extractor(), ss.build_head(8, ss.RandomStream(0, "golden/head"))
        self._check(step(fx, head), step(fx.cast(np.float64), head.cast(np.float64)))


class TestGoldenMethods:
    """`train_method(name, ...).predict` on tiny data, for every method that
    trains a head (naive in its default office variant). Pins the
    initialisation streams, the head shape, the augmentation and the fit of
    each method, bit for bit."""

    GOLDEN_SHA256 = {
        "naive": "67715595dbc6cf0b8c0d766c45334bb2dbdf49c9ea30a73d298810286b79f731",
        "sma": "981eb839d68f1b333f8484a75d19eb955b345a920cf1fba855ee9e8b727ed02b",
        "re": "24bcdb7edb5229d879d7ad38561e387b561e00f227374cd1bf4dd4860fbed003",
        "ensemble": "badec18effcfda741fe517d5a5101333d03f6453a4f999059c28bb227ea33c78",
        "dae": "c1951a152cf5750368c69b352da6cd24f35704523e8c2295dc358e26bbe4bf21",
        "crossl": "883faa48790725c7b9ab3451385f47dbd4f01c4bcdd2e3c082bf9d39b62a1a7f",
        "proposed": "a7fa80ed6891b769c92df2769fb1143f6bf0ba6a7288f1df84b74eb37bc1a4b3",
        "inpaint": "1a8cbaad0e764236d572720048ae0f3ab4be1bde0182060cf9184cc6aedaafb5",
    }

    @pytest.mark.parametrize("name", sorted(GOLDEN_SHA256))
    def test_predictions(self, name):
        settings = ss.TrainSettings(
            pretrain=ss.TrainConfig(1e-3, N, 2, 1),
            downstream=ss.TrainConfig(1e-3, 16, 3, 2),
            embedding_dim=8,
            aggregator_hidden=(16, 12),
            encoder_widths=(8,),
            aug_strategy="online",
        )
        train, test = _dataset("train", True, 1), _dataset("test", True, 2)
        model = ss.train_method(name, train, _dataset("unlabeled", False, 3), settings, 0)
        pred = model.predict(test.x)
        assert pred.shape == (N,) and np.isfinite(pred).all()
        assert _digest(0.0, {"pred": pred}) == self.GOLDEN_SHA256[name]
