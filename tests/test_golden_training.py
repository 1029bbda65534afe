"""Golden hashes of the training maths: the loss and every gradient of one
pre-training step and one joint downstream step, and one eval embedding.

Each step is the real step body of `pretrain` or `train_downstream`: the
module's `fit_loop` is replaced by one that calls the step once on a fixed
batch and keeps what it returns, so no Adam update runs. A hash covers each
array's name, dtype, shape and bytes, so a gradient that changes precision
changes the hash. The hashes were recorded on x86-64 with numpy's OpenBLAS;
another BLAS may round differently.
"""

import hashlib

import numpy as np

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


def _dataset(split, labeled):
    gen = np.random.default_rng(7)
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
        fx.embed(x, "train", ss.RandomStream(0, "golden/warm"))  # move the BN buffers
        z = fx.embed(x[:17], "eval")
        assert z.dtype == np.float32 and z.shape == (17, 8)
        assert _digest(0.0, {"z": z, **fx.buffers()}) == self.GOLDEN_SHA256["embed"]
