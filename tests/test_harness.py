"""Evaluation sweeps, metric tables, and the PCA export."""

import csv
import inspect
import math
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest

import stationsense as ss
from stationsense import harness
from stationsense.cli import main
from stationsense.harness import (
    EXHAUSTIVE_COMBINATION_CAP,
    MetricsRow,
    SweepSpec,
    run_grid,
    summarize,
    train_method,
)
from stationsense.core import _openblas_threads

from conftest import DeferredWorker, InlineWorker
from oracles import eval_one_lane


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

    def test_defaults_are_the_sweep_spec_defaults(self):
        params = inspect.signature(ss.eval_at_availability).parameters
        assert params["policy"].default == SweepSpec().combination_policy
        assert params["n_draws"].default == SweepSpec().n_draws


def blas_threads():
    """The bundled OpenBLAS's thread count, or None without it."""
    blas = _openblas_threads()
    return None if blas is None else blas[0]()


class FailingModel:
    """Predicts zeros, and raises at its `fail_at`-th call (1-based) or at
    every call on `fail_on`: "caller" is the thread that built it, "worker"
    any other. With `meet`, the first call on each thread waits until both
    lanes have made one. Records the BLAS thread count each call sees."""

    def __init__(self, fail_at=None, fail_on=None, meet=False):
        self.caller = threading.current_thread()
        self.fail_at, self.fail_on = fail_at, fail_on
        self.barrier = threading.Barrier(2, timeout=30) if meet else None
        self.lock = threading.Lock()
        self.calls, self.seen, self.blas = 0, set(), []

    def predict(self, xb):
        me = threading.current_thread()
        with self.lock:
            self.calls += 1
            calls, first = self.calls, me not in self.seen
            self.seen.add(me)
        self.blas.append(blas_threads())
        if first and self.barrier is not None:
            self.barrier.wait()
        on = "caller" if me is self.caller else "worker"
        if calls == self.fail_at or on == self.fail_on:
            raise FloatingPointError(f"call {calls} on the {on}")
        return np.zeros(len(xb))


@pytest.fixture(scope="module")
def lane_models(small_datasets):
    """One model of each kind the sweeps evaluate, with their test split."""
    train, _, test, unlabeled = small_datasets
    s = _tiny_settings(encoder_widths=(8,))
    models = {name: train_method(name, train, unlabeled, s, 0)
              for name in ("proposed", "ensemble", "constant", "inpaint")}
    return models, test


class TestEvalLanes:
    @pytest.mark.parametrize("lane", [ThreadPoolExecutor, InlineWorker, DeferredWorker])
    @pytest.mark.parametrize("policy", ["exhaustive", "monte_carlo"])
    @pytest.mark.parametrize("name", ["proposed", "ensemble", "constant", "inpaint"])
    def test_bitwise_the_one_lane_mean(self, lane_models, monkeypatch, name, policy, lane):
        # InlineWorker runs every combination on the worker's lane (inside
        # submit), DeferredWorker every one on the caller's
        models, test = lane_models
        monkeypatch.setattr(harness, "ThreadPoolExecutor", lane)
        args = (models[name], test, 4, policy, 40)
        got = ss.eval_at_availability(*args, ss.RandomStream(3, "mc"))
        assert got == eval_one_lane(*args, ss.RandomStream(3, "mc"))

    def test_predict_runs_on_two_threads_at_once(self):
        model = FailingModel(meet=True)
        before = set(threading.enumerate())
        ss.eval_at_availability(model, tiny_dataset(), 4, "exhaustive")
        assert model.calls == math.comb(8, 4) and len(model.seen) == 2
        assert set(threading.enumerate()) == before

    def test_stress_with_fast_thread_switches(self, lane_models):
        # two evaluations at once: four threads on the CPUs, two concurrent pins
        models, test = lane_models
        want = {name: eval_one_lane(models[name], test, 4) for name in ("proposed", "ensemble")}
        before, got = blas_threads(), {}

        def run(name):
            got[name] = ss.eval_at_availability(models[name], test, 4)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=run, args=(name,)) for name in want]
            for t in threads:
                t.start()
            for t in threads:
                t.join(120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert got == want
        assert blas_threads() == before

    @pytest.mark.parametrize("lane", [InlineWorker, DeferredWorker])
    def test_a_failing_combination_stops_both_lanes(self, monkeypatch, lane):
        # the 3rd combination fails on the worker's lane (InlineWorker) or the
        # caller's (DeferredWorker); no combination starts after it
        monkeypatch.setattr(harness, "ThreadPoolExecutor", lane)
        model = FailingModel(fail_at=3)
        with pytest.raises(FloatingPointError, match="call 3"):
            ss.eval_at_availability(model, tiny_dataset(), 4, "exhaustive")
        assert model.calls == 3

    @pytest.mark.parametrize("on", ["caller", "worker"])
    def test_a_failure_on_either_thread_is_raised_and_leaves_no_thread(self, on):
        model = FailingModel(fail_on=on, meet=True)
        before, blas = set(threading.enumerate()), blas_threads()
        with pytest.raises(FloatingPointError, match=f"on the {on}"):
            ss.eval_at_availability(model, tiny_dataset(), 4, "exhaustive")
        assert set(threading.enumerate()) == before
        assert len(model.seen) == 2
        assert blas_threads() == blas

    @pytest.mark.skipif(blas_threads() is None, reason="numpy's bundled OpenBLAS is absent")
    def test_blas_runs_one_thread_and_is_restored(self):
        blas_set = _openblas_threads()[1]
        before = blas_threads()
        blas_set(2)
        try:
            model = FailingModel()
            ss.eval_at_availability(model, tiny_dataset(), 4, "exhaustive")
            assert set(model.blas) == {1} and blas_threads() == 2
            model = FailingModel(fail_at=5)
            with pytest.raises(FloatingPointError):
                ss.eval_at_availability(model, tiny_dataset(), 4, "exhaustive")
            assert set(model.blas) == {1} and blas_threads() == 2
        finally:
            blas_set(before)


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

    def test_numpy_floats_are_written_as_python_floats(self, tmp_path):
        # np.float64 is a float subclass whose repr is "np.float64(0.1)"
        p = tmp_path / "t.csv"
        record = {"a": np.float64(0.1), "b": np.float32(0.5), "c": 0.1 + 0.2, "d": 3, "e": "x"}
        harness._write_dicts_csv([record], list(record), p)
        assert p.read_text().splitlines() == ["a,b,c,d,e", "0.1,0.5,0.30000000000000004,3,x"]


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

    def test_training_and_evaluation_failures_both_reach_errors_csv(self, small_datasets, tmp_path):
        # proposed fails to train (no unlabeled data) before constant fails to
        # evaluate (k above the station count): two shapes of failure, one table
        train, _, test, _ = small_datasets
        spec = SweepSpec(available_station_counts=(1, 9), label_ratios=(1.0,), seeds=(0,))
        rows, failures = run_grid(spec, ["proposed", "constant"], train, test, None,
                                  ss.TrainSettings(), tmp_path)
        assert [(r.method, r.k_available) for r in rows] == [("constant", 1)]
        assert [(f["method"], f.get("k")) for f in failures] == [("proposed", None), ("constant", 9)]
        with open(tmp_path / "errors.csv") as f:
            reader = csv.DictReader(f)
            records = list(reader)
        assert reader.fieldnames == ["method", "ratio", "seed", "k", "error"]
        assert [(r["method"], r["ratio"], r["seed"], r["k"]) for r in records] == [
            ("proposed", "1.0", "0", ""), ("constant", "1.0", "0", "9")
        ]
        assert "requires unlabeled data" in records[0]["error"]

    def test_clean_rerun_leaves_no_stale_errors(self, small_datasets, tmp_path):
        train, _, test, _ = small_datasets
        spec = SweepSpec(available_station_counts=(8,), label_ratios=(1.0,), seeds=(0,))
        _, failures = run_grid(spec, ["proposed"], train, test, None, ss.TrainSettings(), tmp_path)
        assert len(failures) == 1
        # no rows: the summary is written header-only
        assert (tmp_path / "summary.csv").read_text().splitlines() == [
            "method,k_available,label_ratio,rmse_mean,rmse_std,n_seeds"
        ]
        rows, failures = run_grid(spec, ["constant"], train, test, None, ss.TrainSettings(), tmp_path)
        assert len(rows) == 1 and not failures
        assert (tmp_path / "errors.csv").read_text().splitlines() == ["method,ratio,seed,k,error"]

    def test_numpy_label_ratios_write_a_metrics_csv_that_report_reads(self, small_datasets,
                                                                      tmp_path):
        train, _, test, _ = small_datasets
        spec = SweepSpec(available_station_counts=(8,), label_ratios=tuple(np.linspace(0.5, 1.0, 2)),
                         seeds=(0,))
        run_grid(spec, ["constant"], train, test, None, ss.TrainSettings(), tmp_path)
        with open(tmp_path / "metrics.csv") as f:
            assert [r["label_ratio"] for r in csv.DictReader(f)] == ["0.5", "1.0"]
        assert main(["report", "--metrics", str(tmp_path / "metrics.csv"),
                     "--out", str(tmp_path / "report.csv")]) == 0

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

    def test_checkpoint_methods_are_the_ones_saved_without_unlabeled_data(self, tmp_path):
        # the CLI's train offers exactly the methods whose model it can save
        train, saved = tiny_dataset(n=32, n_d=3, k=4), []
        fx = ss.build_extractor(3, 4, ss.RandomStream(0, "fx"), embedding_dim=8, aggregator_hidden=(16,))
        for name in ss.METHODS:
            given = fx if name in harness._EXTRACTOR_METHODS else None
            try:
                model = train_method(name, train, None, _tiny_settings(), 0, extractor=given)
                ss.save_checkpoint(model, tmp_path / f"{name}.ck")
            except (ValueError, TypeError):  # needs unlabeled data, or not a SensingModel
                continue
            saved.append(name)
        assert sorted(saved) == sorted(harness._CHECKPOINT_METHODS)

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

    def test_key_follows_every_extractor_shape_field(self, small_datasets, monkeypatch):
        unlabeled, base = small_datasets[3], _tiny_settings()
        key = harness._pretrain_key(unlabeled, base, 0)
        other = {"embedding_dim": 4, "aggregator_hidden": (8, 8), "encoder_widths": (4,)}
        assert set(other) == set(harness._extractor_shape(base))
        for name, value in other.items():
            assert harness._pretrain_key(unlabeled, replace(base, **{name: value}), 0) != key
        # a shape argument build_extractor gains reaches the key too
        shape = harness._extractor_shape
        monkeypatch.setattr(harness, "_extractor_shape", lambda s: {**shape(s), "dropout_rate": 0.2})
        assert harness._pretrain_key(unlabeled, base, 0) != key


class TestMaskingHeatmap:
    def test_each_seed_draws_its_own_monte_carlo_combinations(self, monkeypatch):
        # 12 stations at k = 6 is above the exhaustive cap
        probes = {}

        def one_probe_per_seed(name, train, unlabeled, settings, seed, cache):
            return probes.setdefault(seed, ProbeModel())

        monkeypatch.setattr(harness, "train_method", one_probe_per_seed)
        test = tiny_dataset(n=4, n_d=12)
        harness.run_masking_heatmap((0.5,), (6,), (0, 1), None, test, None, _tiny_settings())
        drawn = {
            seed: [tuple(np.nonzero(np.all(c == 0.0, axis=(0, 2)))[0]) for c in probe.calls]
            for seed, probe in probes.items()
        }
        assert len(drawn[0]) == len(drawn[1]) == SweepSpec().n_draws
        assert sorted(drawn[0]) != sorted(drawn[1])

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
        tr_p, te_p = ss.pca_export(tr, te)
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
        tr_p, _ = ss.pca_export(tr, tr)
        assert tr_p[:, 0].var() > tr_p[:, 1].var()

    def test_rank_deficient_rejected(self):
        tr = np.ones((10, 3))
        with pytest.raises(ValueError):
            ss.pca_export(tr, tr)
