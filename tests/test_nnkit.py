"""Layers, losses, optimizer, training loop, gradient checker, checkpoints."""

import numpy as np
import pytest

import stationsense as ss
from stationsense.core import _openblas_threads
from stationsense.nnkit import (
    ADAM_EPS,
    BN_EPS,
    BN_MOMENTUM,
    AdamState,
    BatchNorm,
    Dense,
    Dropout,
    HeldStats,
    MlpStack,
    Relu,
    TrainConfig,
    TrainingDiverged,
    adam_step,
    fit_loop,
    masked_mse_loss,
    mlp_blocks,
    mlp_head,
    mse_loss,
    read_bundle,
    write_bundle,
)


def _rng(label="nn"):
    return ss.RandomStream(0, label)


# ---------------------------------------------------------------------------
# layers
# ---------------------------------------------------------------------------


class TestDense:
    def test_identity_weights_pass_through(self):
        layer = Dense("d", 3, 3, rng=None)
        layer.params["w"][...] = np.eye(3, dtype=np.float32)
        x = np.random.default_rng(0).random((5, 3)).astype(np.float32)
        y, _ = layer.forward(x, "train", None)
        np.testing.assert_allclose(y, x, rtol=1e-6)

    def test_affine_oracle(self):
        layer = Dense("d", 2, 2, rng=None)
        layer.params["w"][...] = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=np.float32)
        layer.params["b"][...] = np.array([10.0, 20.0], dtype=np.float32)
        y, _ = layer.forward(np.array([[1.0, 1.0]], dtype=np.float32), "train", None)
        np.testing.assert_allclose(y, [[14.0, 26.0]])

    def test_backward_matches_closed_form_least_squares(self):
        # analytic oracle: d/dW mean||XW - Y||^2-ish = 2 X^T (XW - Y) / size
        gen = np.random.default_rng(0)
        x = gen.random((16, 3))
        y_t = gen.random((16, 2))
        layer = Dense("d", 3, 2, rng=None, dtype=np.float64)
        layer.params["w"][...] = gen.random((3, 2))
        pred, cache = layer.forward(x, "train", None)
        loss, dpred = mse_loss(pred, y_t)
        _, grads = layer.backward(cache, dpred)
        expect_w = 2.0 * x.T @ (x @ layer.params["w"] + layer.params["b"] - y_t) / y_t.size
        np.testing.assert_allclose(grads["w"], expect_w, atol=1e-10)

    def test_init_bounds_scale_with_fan_in(self):
        layer = Dense("d", 100, 50, _rng())
        bound = np.sqrt(1.0 / 100)
        assert np.abs(layer.params["w"]).max() <= bound


class TestRelu:
    def test_clamps_negatives(self):
        y, _ = Relu("r").forward(np.array([[-1.0, 2.0]]), "train", None)
        np.testing.assert_array_equal(y, [[0.0, 2.0]])

    def test_backward_gates_gradient(self):
        layer = Relu("r")
        _, cache = layer.forward(np.array([[-1.0, 2.0, 0.0]]), "train", None)
        dx, _ = layer.backward(cache, np.ones((1, 3)))
        np.testing.assert_array_equal(dx, [[0.0, 1.0, 0.0]])  # zero subgradient at 0


class TestBatchNorm:
    def test_train_mode_normalizes_batch(self):
        layer = BatchNorm("bn", 3, dtype=np.float64)
        x = np.random.default_rng(0).random((64, 3)) * 5 + 2
        y, _ = layer.forward(x, "train", None)
        np.testing.assert_allclose(y.mean(axis=0), 0.0, atol=1e-10)
        np.testing.assert_allclose(y.var(axis=0), x.var(axis=0) / (x.var(axis=0) + BN_EPS), rtol=1e-10)

    def test_running_stats_update_oracle(self):
        layer = BatchNorm("bn", 2, dtype=np.float64)
        x = np.random.default_rng(0).random((32, 2))
        layer.forward(x, "train", None)
        np.testing.assert_allclose(
            layer.buffers["running_mean"], (1 - BN_MOMENTUM) * x.mean(axis=0), rtol=1e-12
        )
        np.testing.assert_allclose(
            layer.buffers["running_var"],
            BN_MOMENTUM * 1.0 + (1 - BN_MOMENTUM) * x.var(axis=0),
            rtol=1e-12,
        )

    def test_eval_mode_uses_running_stats_only(self):
        layer = BatchNorm("bn", 2, dtype=np.float64)
        layer.buffers["running_mean"][...] = [1.0, 2.0]
        layer.buffers["running_var"][...] = [4.0, 9.0]
        x = np.array([[3.0, 5.0]])
        y, _ = layer.forward(x, "eval", None)
        expect = (x - [1.0, 2.0]) / np.sqrt(np.array([4.0, 9.0]) + BN_EPS)
        np.testing.assert_allclose(y, expect, rtol=1e-12)
        # buffers untouched by eval
        np.testing.assert_array_equal(layer.buffers["running_mean"], [1.0, 2.0])


class TestDropout:
    def test_eval_mode_identity(self):
        x = np.ones((4, 5))
        y, _ = Dropout("do", 0.5).forward(x, "eval", None)
        np.testing.assert_array_equal(y, x)

    def test_train_mode_inverted_scaling_preserves_mean(self):
        layer = Dropout("do", 0.3)
        x = np.ones((2000, 100))
        y, _ = layer.forward(x, "train", _rng("do"))
        kept = y[y > 0]
        np.testing.assert_allclose(kept, 1.0 / 0.7, rtol=1e-12)
        assert abs(y.mean() - 1.0) < 0.01

    def test_train_mode_requires_rng(self):
        with pytest.raises(ValueError):
            Dropout("do", 0.5).forward(np.ones((2, 2)), "train", None)

    def test_invalid_rate(self):
        with pytest.raises(ValueError):
            Dropout("do", 1.0)

    def test_backward_below_dropout_runs_in_float64(self):
        # Pins current behaviour, not a design choice: the train-mode mask is
        # a bool array times a Python float, hence float64, so every gradient
        # below a dropout layer is float64. A float32 mask is faster but moves
        # gate 6's figures; ROADMAP item 2 records the decision it needs.
        stack = mlp_blocks("b", 4, [3], _rng("init"))
        x = np.random.default_rng(0).random((8, 4)).astype(np.float32)
        y, caches = stack.forward(x, "train", _rng("fwd"))
        assert y.dtype == np.float32
        dx, grads = stack.backward(caches, np.ones_like(y))
        assert dx.dtype == np.float64
        assert {g.dtype for g in grads.values()} == {np.dtype(np.float64)}
        assert all(p.dtype == np.float32 for p in stack.params().values())


class TestLayerCaches:
    def test_batchnorm_eval_cache_ignores_later_buffer_updates(self):
        layer = BatchNorm("bn", 2, dtype=np.float64)
        x = np.random.default_rng(0).random((8, 2))
        _, cache = layer.forward(x, "eval", None)
        want = layer.backward(cache, x)
        layer.forward(x * 3, "train", None)  # moves the running statistics
        got = layer.backward(cache, x)
        np.testing.assert_array_equal(got[0], want[0])
        np.testing.assert_array_equal(got[1]["gamma"], want[1]["gamma"])


    def test_held_stats_write_on_apply_what_a_forward_writes_at_once(self):
        def stack():
            return mlp_blocks("b", 4, [5, 3], _rng("init"), dropout_rate=0.0)

        x1, x2 = (np.random.default_rng(s).random((8, 4)).astype(np.float32) for s in (0, 1))
        now, later = stack(), stack()
        now.forward(x1, "train")
        want, _ = now.forward(x2, "train")
        start = {k: v.copy() for k, v in later.buffers().items()}
        held = HeldStats()
        got, _ = later.forward(x2, "train", held=held)
        assert got.tobytes() == want.tobytes()
        assert all(np.array_equal(v, start[k]) for k, v in later.buffers().items())
        later.forward(x1, "train")
        held.apply()
        assert held.updates == []
        for k, v in now.buffers().items():
            assert v.tobytes() == later.buffers()[k].tobytes()

    @pytest.mark.parametrize("grouped", [False, True])
    def test_backward_without_input_gradient_keeps_parameter_gradients(self, grouped):
        stack = mlp_blocks("b", 4, [5, 3], _rng("init"))
        x = np.random.default_rng(0).random((8, 4)).astype(np.float32)
        rng = _rng("fwd")
        if grouped:
            stack = MlpStack.group([stack, mlp_blocks("c", 4, [5, 3], _rng("c"))])
            x, rng = np.stack([x, x[::-1]]), [rng, _rng("fwd2")]
        y, caches = stack.forward(x, "train", rng)
        dy = np.random.default_rng(1).random(y.shape)
        dx, want = stack.backward(caches, dy)
        assert dx is not None
        none, got = stack.backward(caches, dy, input_grad=False)
        assert none is None
        assert {k: v.tobytes() for k, v in got.items()} == {k: v.tobytes() for k, v in want.items()}


# ---------------------------------------------------------------------------
# losses
# ---------------------------------------------------------------------------


class TestGroupedStack:
    def test_stack_moves_arrays_into_the_group(self):
        stacks = [mlp_blocks(f"s{g}", 4, [5], _rng(f"s{g}")) for g in range(3)]
        w1 = stacks[1].layers[0].params["w"].copy()
        group = MlpStack.group(stacks)
        np.testing.assert_array_equal(group.layers[0].params["w"][1], w1)
        assert np.shares_memory(stacks[1].layers[0].params["w"], group.layers[0].params["w"])
        assert set(group.params()) == {k for s in stacks for k in s.params()}
        assert group.manifests() == [s.manifest() for s in stacks]

    def test_rejects_empty_or_mismatched(self):
        with pytest.raises(ValueError):
            MlpStack.group([])
        with pytest.raises(ValueError, match="same layers"):
            MlpStack.group([mlp_blocks("a", 4, [5], _rng("a")), mlp_blocks("b", 4, [6], _rng("b"))])
        with pytest.raises(ValueError, match="same layers"):
            MlpStack.group([mlp_blocks("a", 4, [5], _rng("a")),
                            mlp_blocks("b", 4, [5], _rng("b"), dropout_rate=0.1)])

    def test_eval_forward_leaves_its_input_alone(self):
        group = MlpStack.group([mlp_blocks(f"s{g}", 4, [5, 3], _rng(f"s{g}")) for g in range(2)])
        x = np.random.default_rng(0).standard_normal((2, 6, 4)).astype(np.float32)
        before = x.copy()
        for mode in ("eval", "train"):
            group.forward(x, mode, [_rng("a"), _rng("b")])
            np.testing.assert_array_equal(x, before)


class TestLosses:
    def test_mse_oracle(self):
        loss, grad = mse_loss(np.array([[1.0], [3.0]]), np.array([[0.0], [0.0]]))
        assert loss == pytest.approx(5.0)
        np.testing.assert_allclose(grad, [[1.0], [3.0]])

    def test_mse_zero_at_target(self):
        loss, grad = mse_loss(np.ones((3, 2)), np.ones((3, 2)))
        assert loss == 0.0
        np.testing.assert_array_equal(grad, 0.0)

    def test_masked_mse_empty_mask_zero(self):
        pred = np.random.default_rng(0).random((4, 6))
        loss, grad = masked_mse_loss(pred, np.zeros_like(pred), np.zeros((4, 6), bool))
        assert loss == 0.0
        np.testing.assert_array_equal(grad, 0.0)

    def test_masked_mse_restricts_to_mask(self):
        pred = np.array([[1.0, 5.0]])
        target = np.zeros((1, 2))
        mask = np.array([[True, False]])
        loss, grad = masked_mse_loss(pred, target, mask)
        assert loss == pytest.approx(1.0)
        np.testing.assert_allclose(grad, [[2.0, 0.0]])


# ---------------------------------------------------------------------------
# optimizer
# ---------------------------------------------------------------------------


class TestAdam:
    def test_first_step_magnitude(self):
        # hand-evaluated scalar update: after bias correction the first step is
        # alpha * g / (|g| + eps)
        p = {"w": np.array([1.0])}
        state = AdamState(p)
        adam_step(p, {"w": np.array([0.1])}, state, 0.001)
        expect = 1.0 - 0.001 * 0.1 / (0.1 + ADAM_EPS)
        np.testing.assert_allclose(p["w"], expect, rtol=1e-12)

    def test_zero_gradient_no_change(self):
        p = {"w": np.array([1.0, 2.0])}
        state = AdamState(p)
        adam_step(p, {"w": np.zeros(2)}, state, 0.1)
        np.testing.assert_array_equal(p["w"], [1.0, 2.0])

    def test_deterministic_trajectory(self):
        def run():
            p = {"w": np.array([0.5])}
            state = AdamState(p)
            for g in (0.3, -0.2, 0.1, 0.05):
                adam_step(p, {"w": np.array([g])}, state, 0.01)
            return p["w"].copy()

        np.testing.assert_array_equal(run(), run())

    def test_missing_grad_key_skipped(self):
        p = {"w": np.array([1.0]), "frozen": np.array([5.0])}
        state = AdamState(p)
        adam_step(p, {"w": np.array([1.0])}, state, 0.1)
        assert p["frozen"][0] == 5.0


# ---------------------------------------------------------------------------
# training loop
# ---------------------------------------------------------------------------


def _fit(stack, x, y, config, rng):
    """Supervised MSE training of one stack through fit_loop."""

    def step(idx, srng):
        pred, caches = stack.forward(x[idx], "train", srng.child("fwd"))
        loss, dpred = mse_loss(pred, y[idx])
        _, grads = stack.backward(caches, dpred)
        return loss, grads

    return fit_loop(stack.params(), step, len(x), config, rng.child("fit"), stack.buffers())


class TestFitLoop:
    def test_noiseless_linear_regression_recovers_slope(self):
        gen = np.random.default_rng(0)
        x = gen.uniform(-1, 1, (256, 1)).astype(np.float32)
        y = 2.0 * x
        stack = MlpStack([Dense("lin", 1, 1, _rng("init"))])
        _fit(stack, x, y, TrainConfig(0.05, 64, 500, 50), _rng("fit"))
        assert abs(float(stack.params()["lin.w"][0, 0]) - 2.0) < 1e-3

    def test_early_stopping_restores_best_params(self):
        # a step function that first improves then worsens; params must come
        # back from the best epoch
        p = {"w": np.array([0.0])}
        losses = [3.0, 1.0, 2.0, 2.0, 2.0, 2.0]
        calls = {"n": 0}

        def step(idx, srng):
            e = calls["n"]
            calls["n"] += 1
            p["w"][0] = e  # mutate params so restoration is observable
            return losses[min(e, len(losses) - 1)], {}

        res = fit_loop(p, step, 4, TrainConfig(0.1, 4, 100, 3), _rng("es"), {})
        assert res.best_epoch == 1
        assert res.best_loss == 1.0
        assert len(res.history) == 5  # stopped after 3 stale epochs
        assert p["w"][0] == 1.0  # value set during the best epoch

    def test_divergence_raises(self):
        def step(idx, srng):
            return float("nan"), {}

        with pytest.raises(TrainingDiverged):
            fit_loop({"w": np.array([0.0])}, step, 4, TrainConfig(0.1, 4, 10, 2), _rng("d"), {})

    def test_last_partial_batch_included(self):
        seen = []

        def step(idx, srng):
            seen.append(len(idx))
            return 1.0, {}

        fit_loop({"w": np.array([0.0])}, step, 10, TrainConfig(0.1, 4, 2, 1), _rng("b"), {})
        assert seen[:3] == [4, 4, 2]

    def test_deterministic_given_seed(self):
        gen = np.random.default_rng(3)
        x = gen.random((64, 4)).astype(np.float32)
        y = gen.random((64, 1)).astype(np.float32)

        def run():
            stack = mlp_blocks("m", 4, [8], _rng("init"))
            head = Dense("out", 8, 1, _rng("out"))
            full = MlpStack(stack.layers + [head])
            _fit(full, x, y, TrainConfig(1e-3, 16, 20, 5), _rng("fit"))
            return {k: v.copy() for k, v in full.params().items()}

        a, b = run(), run()
        for k in a:
            np.testing.assert_array_equal(a[k], b[k])

    @pytest.mark.skipif(_openblas_threads() is None, reason="numpy's bundled OpenBLAS is absent")
    def test_runs_on_one_blas_thread_and_restores_the_count(self):
        get, set_ = _openblas_threads()
        before, seen = get(), []

        def step(idx, srng):
            seen.append(get())
            return 1.0, {}

        def diverge(idx, srng):
            seen.append(get())
            return float("nan"), {}

        set_(2)
        try:
            fit_loop({"w": np.array([0.0])}, step, 4, TrainConfig(0.1, 4, 2, 1), _rng("pin"), {})
            assert get() == 2
            with pytest.raises(TrainingDiverged):
                fit_loop({"w": np.array([0.0])}, diverge, 4, TrainConfig(0.1, 4, 2, 1), _rng("pin"), {})
            assert get() == 2
        finally:
            set_(before)
        assert seen == [1, 1, 1]

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(learning_rate=0.0)
        with pytest.raises(ValueError):
            TrainConfig(patience=10, max_epochs=10)


# ---------------------------------------------------------------------------
# gradient checking
# ---------------------------------------------------------------------------


class TestFiniteDiffCheck:
    def test_linear_mse_tight(self):
        gen = np.random.default_rng(0)
        x = gen.random((8, 3))
        y = gen.random((8, 2))
        stack = MlpStack([Dense("lin", 3, 2, _rng("g"), dtype=np.float64)])

        def loss_and_grads():
            pred, caches = stack.forward(x, "eval", None)
            loss, dpred = mse_loss(pred, y)
            _, grads = stack.backward(caches, dpred)
            return loss, grads

        assert ss.finite_diff_check(stack.params(), loss_and_grads) < 1e-7

    def test_blocks_stack_with_frozen_bn(self):
        gen = np.random.default_rng(1)
        x = gen.random((16, 6))
        y = gen.random((16, 1))
        stack = MlpStack(
            mlp_blocks("m", 6, [10, 8], _rng("g2"), dropout_rate=0.0, dtype=np.float64).layers
            + [Dense("out", 8, 1, _rng("o"), dtype=np.float64)]
        )
        # seed the running stats away from the init so eval-mode BN is generic
        stack.forward(x, "train", _rng("warm"))

        def loss_and_grads():
            pred, caches = stack.forward(x, "eval", None)
            loss, dpred = mse_loss(pred, y)
            _, grads = stack.backward(caches, dpred)
            return loss, grads

        assert ss.finite_diff_check(stack.params(), loss_and_grads) < 1e-6

    def test_zero_input_blocks_weight_gradients(self):
        stack = MlpStack([Dense("a", 3, 4, _rng("z")), Relu("r"), Dense("b", 4, 2, _rng("z2"))])
        stack.params()["a.b"][...] = -1.0  # force pre-activations negative
        x = np.zeros((5, 3), dtype=np.float32)
        pred, caches = stack.forward(x, "eval", None)
        loss, dpred = mse_loss(pred, np.ones((5, 2), dtype=np.float32))
        _, grads = stack.backward(caches, dpred)
        np.testing.assert_array_equal(grads["b.w"], 0.0)  # ReLU output is zero

    def test_constant_loss_zero_gradient(self):
        p = {"w": np.array([1.0, 2.0])}

        def loss_and_grads():
            return 5.0, {"w": np.zeros(2)}

        assert ss.finite_diff_check(p, loss_and_grads) == 0.0


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------


class TestCheckpoints:
    def test_stack_round_trip_bitwise(self, tmp_path):
        stack = MlpStack(
            mlp_blocks("m", 4, [6], _rng("ck")).layers + mlp_head("h", 6, 5, 1, _rng("ck2")).layers
        )
        # move buffers off their init values
        stack.forward(np.random.default_rng(0).random((8, 4)).astype(np.float32), "train", _rng("w"))
        p = tmp_path / "stack.ck"
        ss.save_checkpoint(ss.SensingModel(None, stack), p)
        back = ss.load_checkpoint(p).head
        for k, v in stack.params().items():
            np.testing.assert_array_equal(back.params()[k], v)
        for k, v in stack.buffers().items():
            np.testing.assert_array_equal(back.buffers()[k], v)
        x = np.random.default_rng(1).random((3, 4)).astype(np.float32)
        np.testing.assert_array_equal(
            back.forward(x, "eval", None)[0], stack.forward(x, "eval", None)[0]
        )

    def test_corrupt_byte_detected(self, tmp_path):
        p = tmp_path / "s.ck"
        ss.save_checkpoint(ss.SensingModel(None, MlpStack([Dense("d", 2, 2, _rng("c"))])), p)
        raw = bytearray(p.read_bytes())
        raw[20] ^= 0x01
        p.write_bytes(bytes(raw))
        with pytest.raises(ss.CheckpointError):
            ss.load_checkpoint(p)

    def test_wrong_magic_detected(self, tmp_path):
        p = tmp_path / "s.ck"
        p.write_bytes(b"JUNKJUNKJUNKJUNKJUNK")
        with pytest.raises(ss.CheckpointError):
            read_bundle(p)

    def test_malformed_header_detected(self, tmp_path):
        import json
        import struct
        import zlib

        def sealed(doc: bytes, payload: bytes = b"") -> bytes:
            # a well-formed container around a broken header, CRC intact
            buf = b"SSCK" + struct.pack("<II", 1, len(doc)) + doc + payload
            return buf + struct.pack("<I", zlib.crc32(buf))

        too_long = {"manifest": {}, "arrays": [{"name": "a", "shape": [1000]}]}
        p = tmp_path / "h.ck"
        for raw in (
            sealed(json.dumps(too_long).encode(), bytes(8)),
            sealed(json.dumps({"arrays": []}).encode()),
            sealed(b"{x]"),
        ):
            p.write_bytes(raw)
            with pytest.raises(ss.CheckpointError):
                read_bundle(p)

    def test_truncated_bundle_reports_truncation(self, tmp_path):
        p = tmp_path / "t.ck"
        write_bundle(p, {}, {"a": np.ones((32, 32), np.float32)})
        raw = p.read_bytes()
        assert len(raw) > 4000
        for cut in (raw[:-10], raw[:-500], raw[:20]):
            p.write_bytes(cut)
            with pytest.raises(ss.CheckpointError, match="truncated"):
                read_bundle(p)
        p.write_bytes(raw + b"\0")
        with pytest.raises(ss.CheckpointError, match="size"):
            read_bundle(p)

    def test_read_bundle_holds_the_file_once(self, tmp_path):
        import tracemalloc

        p = tmp_path / "big.ck"
        gen = np.random.default_rng(0)
        write_bundle(p, {}, {f"a{i}": gen.random((512, 1024), np.float32) for i in range(4)})
        size = p.stat().st_size
        tracemalloc.start()
        try:
            _, arrays = read_bundle(p)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert sum(a.nbytes for a in arrays.values()) > 0.99 * size
        # the 8 MB file is read into one buffer; copying each array out of
        # it would double the peak
        assert peak <= 1.1 * size

    def test_bundle_manifest_round_trip(self, tmp_path):
        p = tmp_path / "b.ck"
        arrays = {"a": np.arange(6, dtype=np.float32).reshape(2, 3)}
        write_bundle(p, {"hello": [1, 2]}, arrays)
        manifest, back = read_bundle(p)
        assert manifest == {"hello": [1, 2]}
        np.testing.assert_array_equal(back["a"], arrays["a"])
