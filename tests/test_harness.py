"""Evaluation sweeps, metric tables, and the PCA export."""

import csv
import math
from dataclasses import replace

import numpy as np
import pytest

import stationsense as ss
from stationsense import harness
from stationsense.harness import (
    EXHAUSTIVE_COMBINATION_CAP,
    MetricsRow,
    SweepSpec,
    run_grid,
    summarize,
    train_method,
)


class ProbeModel:
    """Records every input batch it is asked to predict on."""

    def __init__(self):
        self.calls = []

    def predict(self, xb):
        self.calls.append(np.asarray(xb).copy())
        return np.zeros(np.asarray(xb).shape[0])


def tiny_dataset(n=10, n_d=8, k=3, seed=0, labeled=True):
    gen = np.random.default_rng(seed)
    return ss.Dataset(
        split="test",
        x=gen.random((n, n_d, k)).astype(np.float32),
        missing=np.zeros((n, n_d), bool),
        labels=gen.random(n).astype(np.float32) if labeled else None,
        timestamps=np.arange(n, dtype=float),
    )


class TestRmse:
    def test_identical_zero(self):
        assert ss.rmse([1.0, 2.0], [1.0, 2.0]) == 0.0

    def test_unit_offset(self):
        assert ss.rmse(np.zeros(5), np.ones(5)) == 1.0

    def test_hand_value(self):
        assert ss.rmse([0.0, 2.0], [0.0, 0.0]) == pytest.approx(np.sqrt(2.0))

    def test_rejects_mismatch_and_empty(self):
        with pytest.raises(ValueError):
            ss.rmse([1.0], [1.0, 2.0])
        with pytest.raises(ValueError):
            ss.rmse([], [])


class TestEvalAtAvailability:
    def test_exhaustive_combination_counts(self):
        test = tiny_dataset()
        for k in (1, 4, 8):
            probe = ProbeModel()
            ss.eval_at_availability(probe, test, k, "exhaustive")
            assert len(probe.calls) == math.comb(8, 8 - k)

    def test_full_availability_is_plain_rmse(self):
        test = tiny_dataset()
        model = ss.ConstantModel(0.5)
        got = ss.eval_at_availability(model, test, 8)
        assert got == pytest.approx(ss.rmse(model.predict(test.x), test.labels), rel=1e-12)

    def test_each_combination_zeroes_correct_stations(self):
        test = tiny_dataset(n=4)
        probe = ProbeModel()
        ss.eval_at_availability(probe, test, 6, "exhaustive")
        zeroed = set()
        for call in probe.calls:
            mask = tuple(sorted(np.nonzero(np.all(call == 0.0, axis=(0, 2)))[0]))
            assert len(mask) == 2
            zeroed.add(mask)
        assert len(zeroed) == math.comb(8, 2)

    def test_monte_carlo_draw_count(self):
        test = tiny_dataset()
        probe = ProbeModel()
        ss.eval_at_availability(probe, test, 4, "monte_carlo", 37, ss.RandomStream(0, "mc"))
        assert len(probe.calls) == 37

    def test_exhaustive_falls_back_above_cap(self):
        test = tiny_dataset(n_d=12)
        assert math.comb(12, 6) > EXHAUSTIVE_COMBINATION_CAP
        probe = ProbeModel()
        ss.eval_at_availability(probe, test, 6, "exhaustive", 40, ss.RandomStream(0, "mc"))
        assert len(probe.calls) == 40

    def test_monte_carlo_close_to_exhaustive_for_constant(self):
        test = tiny_dataset(n=200)
        model = ss.ConstantModel(0.5)
        ex = ss.eval_at_availability(model, test, 4, "exhaustive")
        mc = ss.eval_at_availability(model, test, 4, "monte_carlo", 500, ss.RandomStream(0, "mc"))
        assert abs(mc - ex) / ex < 1e-9  # constant model is mask-invariant

    def test_invalid_k_and_policy(self):
        test = tiny_dataset()
        with pytest.raises(ValueError):
            ss.eval_at_availability(ProbeModel(), test, 0)
        with pytest.raises(ValueError):
            ss.eval_at_availability(ProbeModel(), test, 9)
        with pytest.raises(ValueError):
            ss.eval_at_availability(ProbeModel(), test, 4, "bogus")

    def test_rejects_fewer_than_one_draw(self):
        test = tiny_dataset()
        for policy in ("monte_carlo", "exhaustive"):
            probe = ProbeModel()
            with pytest.raises(ValueError, match="n_draws"):
                ss.eval_at_availability(probe, test, 4, policy, 0, ss.RandomStream(0, "mc"))
            assert not probe.calls

    def test_deterministic_monte_carlo(self):
        test = tiny_dataset(n=30)

        class NoisyModel:
            def predict(self, xb):
                return np.asarray(xb).mean(axis=(1, 2))

        a = ss.eval_at_availability(NoisyModel(), test, 4, "monte_carlo", 50, ss.RandomStream(5, "mc"))
        b = ss.eval_at_availability(NoisyModel(), test, 4, "monte_carlo", 50, ss.RandomStream(5, "mc"))
        assert a == b


class TestLabelRatioSubset:
    def test_full_ratio_identity(self):
        d = tiny_dataset(n=100)
        assert ss.label_ratio_subset(d, 1.0, ss.RandomStream(0, "r")) is d

    def test_ceiling_arithmetic(self):
        d = tiny_dataset(n=100)
        assert ss.label_ratio_subset(d, 0.001, ss.RandomStream(0, "r")).n == 1
        assert ss.label_ratio_subset(d, 0.25, ss.RandomStream(0, "r")).n == 25
        assert ss.label_ratio_subset(d, 0.251, ss.RandomStream(0, "r")).n == 26
        # 25,200 samples at ratio 0.001 keeps ceil(25.2) = 26
        assert int(np.ceil(0.001 * 25_200)) == 26

    def test_same_seed_identical_subset(self):
        d = tiny_dataset(n=100)
        a = ss.label_ratio_subset(d, 0.1, ss.RandomStream(7, "r"))
        b = ss.label_ratio_subset(d, 0.1, ss.RandomStream(7, "r"))
        np.testing.assert_array_equal(a.x, b.x)

    def test_subset_is_uniform_without_replacement(self):
        d = tiny_dataset(n=50)
        sub = ss.label_ratio_subset(d, 0.5, ss.RandomStream(0, "r"))
        assert len(np.unique(sub.timestamps)) == sub.n == 25

    def test_invalid_ratio(self):
        d = tiny_dataset()
        with pytest.raises(ValueError):
            ss.label_ratio_subset(d, 0.0, ss.RandomStream(0, "r"))
        with pytest.raises(ValueError):
            ss.label_ratio_subset(d, 1.1, ss.RandomStream(0, "r"))


class TestMetricsTables:
    def _rows(self):
        return [
            MetricsRow("constant", 8, 1.0, s, 0.2 + 0.01 * s, 0.5) for s in range(3)
        ]

    def test_negative_rmse_rejected(self):
        with pytest.raises(ValueError):
            MetricsRow("m", 8, 1.0, 0, -0.1, 0.0)

    def test_three_seeds_one_summary_row(self):
        summary = summarize(self._rows())
        assert len(summary) == 1
        row = summary[0]
        assert row["n_seeds"] == 3
        assert row["rmse_mean"] == pytest.approx(0.21)
        assert row["rmse_std"] == pytest.approx(np.std([0.2, 0.21, 0.22]))

    def test_single_seed_std_zero_not_nan(self):
        summary = summarize([MetricsRow("m", 8, 1.0, 0, 0.3, 0.1)])
        assert summary[0]["rmse_std"] == 0.0

    def test_metrics_csv_deterministic_excluding_runtime(self, tmp_path):
        rows_a = [MetricsRow("m", 4, 0.1, 0, 0.123456789, 1.234)]
        rows_b = [MetricsRow("m", 4, 0.1, 0, 0.123456789, 9.876)]
        pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
        ss.write_metrics_csv(rows_a, pa)
        ss.write_metrics_csv(rows_b, pb)

        def strip_runtime(p):
            with open(p) as f:
                return [r[:-1] for r in csv.reader(f)]

        assert strip_runtime(pa) == strip_runtime(pb)

    def test_round_trip_float_precision(self, tmp_path):
        rows = [MetricsRow("m", 4, 0.1, 0, 0.1 + 0.2, 0.0)]
        p = tmp_path / "m.csv"
        ss.write_metrics_csv(rows, p)
        with open(p) as f:
            rec = list(csv.DictReader(f))[0]
        assert float(rec["rmse"]) == 0.1 + 0.2  # repr survives the round trip


class TestRunGrid:
    def test_shape_and_failure_capture(self, small_datasets, tmp_path):
        train, _, test, unlabeled = small_datasets
        spec = SweepSpec(
            available_station_counts=(8,), label_ratios=(1.0,), seeds=(0,),
        )
        settings = ss.TrainSettings(
            downstream=ss.TrainConfig(1e-3, 128, 4, 2),
            pretrain=ss.TrainConfig(1e-3, 256, 3, 2),
        )
        rows, failures = run_grid(
            spec, ["constant", "naive", "does_not_exist"], train, test, unlabeled,
            settings, tmp_path,
        )
        assert len(rows) == 2  # the unknown method fails, the grid continues
        assert len(failures) == 1 and failures[0]["method"] == "does_not_exist"
        assert (tmp_path / "metrics.csv").exists()
        assert (tmp_path / "summary.csv").exists()
        assert (tmp_path / "errors.csv").exists()

    def test_one_method_three_seeds_three_rows(self, small_datasets, tmp_path):
        train, _, test, _ = small_datasets
        spec = SweepSpec(available_station_counts=(8,), label_ratios=(1.0,), seeds=(0, 1, 2))
        rows, failures = run_grid(spec, ["constant"], train, test, None,
                                  ss.TrainSettings(), tmp_path)
        assert len(rows) == 3 and not failures
        assert len(summarize(rows)) == 1

    def test_methods_registry_and_unknown_method(self, small_datasets):
        train = small_datasets[0]
        assert set(ss.METHODS) == {
            "constant", "naive", "ensemble", "dae", "crossl", "proposed", "sma", "re", "inpaint"
        }
        with pytest.raises(ValueError):
            train_method("nope", train, None, ss.TrainSettings(), 0)

    def test_ssl_methods_require_unlabeled(self, small_datasets):
        train = small_datasets[0]
        for name in ("dae", "crossl", "proposed", "inpaint"):
            with pytest.raises(ValueError):
                train_method(name, train, None, ss.TrainSettings(), 0)

    def test_inpaint_checks_unlabeled_before_training(self, small_datasets, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("the naive base trained before the unlabeled check")

        monkeypatch.setattr(harness, "_train_head", fail)
        with pytest.raises(ValueError, match="unlabeled"):
            train_method("inpaint", small_datasets[0], None, ss.TrainSettings(), 0)

    def test_given_extractor_replaces_pretraining(self, small_datasets):
        train, _, test, unlabeled = small_datasets
        s = _tiny_settings()
        fx = harness.pretrain_extractor(unlabeled, s, 0)
        for mode in ("frozen", "joint"):
            s_mode = replace(s, mode=mode)
            want = train_method("proposed", train, unlabeled, s_mode, 0).predict(test.x)
            before = fx.embed(test.x)
            got = train_method("proposed", train, None, s_mode, 0, extractor=fx)
            np.testing.assert_array_equal(got.predict(test.x), want)
            np.testing.assert_array_equal(fx.embed(test.x), before)  # caller's copy untouched
        for name in ("naive", "sma", "re", "dae", "constant"):
            with pytest.raises(ValueError, match="extractor"):
                train_method(name, train, unlabeled, s, 0, extractor=fx)

    def test_sweep_spec_validation(self):
        with pytest.raises(ValueError):
            SweepSpec(label_ratios=(0.0,))
        with pytest.raises(ValueError):
            SweepSpec(combination_policy="sometimes")
        with pytest.raises(ValueError, match="n_draws"):
            SweepSpec(n_draws=0)


def _tiny_settings(**kw):
    return ss.TrainSettings(
        pretrain=ss.TrainConfig(1e-3, 256, 2, 1),
        downstream=ss.TrainConfig(1e-3, 128, 3, 2),
        embedding_dim=8,
        aggregator_hidden=(16, 16),
        **kw,
    )


class TestPretrainCache:
    def test_different_unlabeled_sets_get_different_extractors(self, small_datasets):
        unlabeled = small_datasets[3]
        other = unlabeled.subset(np.arange(unlabeled.n // 2))
        cache = {}
        a = harness.pretrain_extractor(unlabeled, _tiny_settings(), 0, cache=cache)
        b = harness.pretrain_extractor(other, _tiny_settings(), 0, cache=cache)
        assert a is not b
        assert not np.array_equal(a.embed(unlabeled.x), b.embed(unlabeled.x))
        assert harness.pretrain_extractor(other, _tiny_settings(), 0, cache=cache) is b

    def test_keyed_by_pretraining_settings_only(self, small_datasets):
        unlabeled = small_datasets[3]
        cache = {}
        base = harness.pretrain_extractor(unlabeled, _tiny_settings(), 0, cache=cache)
        widened = harness.pretrain_extractor(
            unlabeled, _tiny_settings(encoder_widths=[4]), 0, cache=cache
        )
        assert widened is not base and widened.encoders is not None and base.encoders is None
        # settings that only act after pre-training share the cached extractor
        after = replace(_tiny_settings(), mode="joint", p_mask_sma=0.9,
                        downstream=ss.TrainConfig(1e-2, 64, 5, 1))
        assert harness.pretrain_extractor(unlabeled, after, 0, cache=cache) is base
        assert len(cache) == 2
        # the pre-training masking rate is a pre-training setting
        masked = harness.pretrain_extractor(
            unlabeled, _tiny_settings(p_mask_crossl=0.9), 0, cache=cache
        )
        assert masked is not base
        assert not np.array_equal(masked.embed(unlabeled.x), base.embed(unlabeled.x))
        assert len(cache) == 3


class TestMaskingHeatmap:
    def test_each_cell_trains_proposed_on_the_cell_settings(self, small_datasets, tmp_path):
        train, _, test, unlabeled = small_datasets
        s = _tiny_settings()
        out = tmp_path / "heatmap.csv"
        cache = {}
        cells = harness.run_masking_heatmap(
            (0.1, 0.9), (1,), (0,), train, test, unlabeled, s, out, extractor_cache=cache
        )
        assert len(cache) == 2  # one pre-training per p_mask_crossl, kept in the caller's cache
        assert [(c["p_mask_crossl"], c["p_mask_sma"]) for c in cells] == [
            (0.1, 0.1), (0.1, 0.9), (0.9, 0.1), (0.9, 0.9)
        ]
        assert len({c["rmse_mean"] for c in cells}) == 4  # each rate reaches training
        for c in cells:
            cell = replace(s, p_mask_crossl=c["p_mask_crossl"], p_mask_sma=c["p_mask_sma"])
            model = train_method("proposed", train, unlabeled, cell, 0)
            assert c["k_available"] == 1
            assert c["rmse_mean"] == ss.eval_at_availability(model, test, 1)
            assert c["rmse_std"] == 0.0
        with open(out) as f:
            assert len(list(csv.DictReader(f))) == 4


class TestPcaExport:
    def test_projection_matches_direct_svd(self):
        gen = np.random.default_rng(0)
        tr = gen.random((50, 6))
        te = gen.random((20, 6))
        tr_p, te_p = ss.pca_export(tr, te, dims=2)
        mean = tr.mean(axis=0)
        _, _, vt = np.linalg.svd(tr - mean, full_matrices=False)
        np.testing.assert_allclose(np.abs(tr_p), np.abs((tr - mean) @ vt[:2].T), atol=1e-10)
        np.testing.assert_allclose(np.abs(te_p), np.abs((te - mean) @ vt[:2].T), atol=1e-10)

    def test_transform_is_fit_on_train_only(self):
        gen = np.random.default_rng(1)
        tr = gen.random((50, 4))
        _, te_a = ss.pca_export(tr, gen.random((10, 4)))
        # changing the test set must not change the projection of the train set
        tr_p1, _ = ss.pca_export(tr, gen.random((10, 4)))
        tr_p2, _ = ss.pca_export(tr, gen.random((10, 4)) * 100)
        np.testing.assert_array_equal(tr_p1, tr_p2)

    def test_variance_ordering(self):
        gen = np.random.default_rng(2)
        tr = gen.normal(0, [5.0, 1.0, 0.1], (200, 3))
        tr_p, _ = ss.pca_export(tr, tr, dims=2)
        assert tr_p[:, 0].var() > tr_p[:, 1].var()

    def test_rank_deficient_rejected(self):
        tr = np.ones((10, 3))
        with pytest.raises(ValueError):
            ss.pca_export(tr, tr, dims=2)
