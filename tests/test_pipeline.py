"""Preprocessing, window aggregation, dataset construction and serialization."""

import hashlib
import inspect
import json
import struct
import threading
import tracemalloc
import zlib
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import stationsense as ss
from stationsense import pipeline
from stationsense.config import config_from_dict
from stationsense.nnkit import write_bundle
from stationsense.pipeline import (
    DEFAULT_DROP_64,
    DatasetFormatError,
    PreprocessedStream,
    _aggregate_all,
    _reference_centers,
    default_keep_list,
    scenario_hash,
    split_counts,
    window_bounds,
)
from stationsense.synth import CsiStream

from conftest import random_batch
from oracles import aggregate_windows_loop


# ---------------------------------------------------------------------------
# subcarrier selection and normalization
# ---------------------------------------------------------------------------


class TestSelectSubcarriers:
    def test_default_keep_list_drops_guards_and_center(self):
        keep = default_keep_list(64)
        assert len(keep) == 52
        assert set(keep) & DEFAULT_DROP_64 == set()
        assert set(keep) | DEFAULT_DROP_64 == set(range(64))

    def test_returns_magnitudes_at_kept_indices(self):
        values = np.array([[3 + 4j, 1 + 0j, 0 + 2j, 5 + 12j]])
        ps = ss.preprocess_stream(CsiStream(0, np.array([1.0]), values), [0, 3])
        # magnitudes 5 and 13, scaled to unit mean power (mean of 25, 169 is 97)
        np.testing.assert_allclose(ps.amps, [[5.0 / np.sqrt(97.0), 13.0 / np.sqrt(97.0)]])

    def test_amps_are_row_major(self):
        # the window scan reads whole frames: one frame's amplitudes must be
        # contiguous, not strided by the frame count
        values = np.random.default_rng(2).normal(size=(40, 64)) * (1 + 1j)
        ps = ss.preprocess_stream(CsiStream(0, np.arange(40.0), values), default_keep_list())
        assert ps.amps.shape == (40, 52) and ps.amps.flags.c_contiguous

    def test_out_of_range_index_rejected(self):
        stream = CsiStream(0, np.array([1.0]), np.ones((1, 4), dtype=complex))
        for keep in ([4], [-1, 0]):
            with pytest.raises(IndexError):
                ss.preprocess_stream(stream, keep)


def _one_frame(v):
    """preprocess_stream's row for a one-frame stream whose values are v."""
    values = np.asarray(v)[None, :]
    return ss.preprocess_stream(CsiStream(0, np.array([0.0]), values), range(values.shape[1])).amps[0]


class TestNormalizePower:
    def test_hand_example(self):
        # [3, 4]: mean power 12.5, scale sqrt(12.5)
        out = _one_frame(np.array([3.0, 4.0]))
        assert out.any()
        np.testing.assert_allclose(out, np.array([3.0, 4.0]) / np.sqrt(12.5), rtol=1e-15)

    def test_unit_mean_power(self):
        gen = np.random.default_rng(0)
        for _ in range(20):
            v = gen.random(52) * gen.uniform(1e-3, 1e3)
            out = _one_frame(v)
            assert out.any()
            assert abs(np.mean(out**2) - 1.0) < 1e-9

    def test_degenerate_zero_vector(self):
        # a degenerate frame comes back as an all-zero row
        out = _one_frame(np.zeros(52))
        np.testing.assert_array_equal(out, 0.0)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 10_000))
    def test_scale_invariance(self, seed):
        gen = np.random.default_rng(seed)
        v = gen.random(16) + 0.01
        a = _one_frame(v)
        b = _one_frame(v * 37.5)
        np.testing.assert_allclose(a, b, rtol=1e-12)

    def test_input_left_unmodified(self):
        # rows are normalised in place, but only in an array preprocess_stream owns
        gen = np.random.default_rng(1)
        for v in (gen.random(52) * 3.0, np.zeros(8), gen.random((4, 16))[1]):
            before = v.copy()
            out = _one_frame(v)
            np.testing.assert_array_equal(v, before)
            assert not np.shares_memory(out, v)


# ---------------------------------------------------------------------------
# window aggregation
# ---------------------------------------------------------------------------


def brute_force_window(ps: PreprocessedStream, center, width):
    """Boolean-mask reference for the inclusive window mean."""
    inside = (ps.timestamps >= center - width / 2) & (ps.timestamps <= center + width / 2)
    if not inside.any():
        return None
    return ps.amps[inside].mean(axis=0)


def aggregate_one(ps: PreprocessedStream, centers, width):
    """_aggregate_all on a one-station list: (n, K) means and (n,) flags."""
    x, missing = _aggregate_all(
        lambda d: ps, 1, ps.amps.shape[1], np.asarray(centers, dtype=float), ss.WindowSpec(width, 1.0)
    )
    return x[:, 0], missing[:, 0]


class TestAggregateWindow:
    def test_matches_brute_force(self, small_run):
        scen, _, streams = small_run
        ps = ss.preprocess_stream(streams[0], default_keep_list())
        centers = np.random.default_rng(0).uniform(1.0, scen.duration_s - 1.0, 200)
        x, missing = aggregate_one(ps, centers, 2.0)
        for i, center in enumerate(centers):
            want = brute_force_window(ps, center, 2.0)
            if want is None:
                assert missing[i]
            else:
                assert not missing[i]
                np.testing.assert_array_equal(x[i], want.astype(np.float32))

    def test_boundary_frames_included(self):
        # frames exactly at center +- width/2 belong to the window
        ts = np.array([0.0, 1.0, 2.0])
        amps = np.array([[1.0], [2.0], [4.0]])
        x, missing = aggregate_one(PreprocessedStream(ts, amps), [1.0], 2.0)
        assert not missing[0]
        np.testing.assert_allclose(x[0], [(1.0 + 2.0 + 4.0) / 3])

    def test_empty_window_is_missing_placeholder(self):
        ps = PreprocessedStream(np.array([0.0]), np.array([[1.0, 2.0]]))
        x, missing = aggregate_one(ps, [10.0], 2.0)
        assert missing[0]
        np.testing.assert_array_equal(x[0], np.zeros(2))

    def test_window_bounds_vectorized(self):
        ts = np.sort(np.random.default_rng(1).uniform(0, 100, 500))
        centers = np.linspace(1, 99, 57)
        lo, hi = window_bounds(ts, centers, 2.0)
        for i, c in enumerate(centers):
            inside = (ts >= c - 1.0) & (ts <= c + 1.0)
            assert hi[i] - lo[i] == inside.sum()


def _grid_streams(ticks, k, seed, signed):
    """One stream per tick list, frames at tick / 4 s, so repeated ticks are
    bursts of equal timestamps and quarter-second edges hit frames exactly.
    Signed amplitudes carry +-2**40 spikes that cancel within a window, so
    the order of a window's sum shows in its float32 bits; unsigned ones are
    non-negative, as preprocessing gives, over six decades."""
    gen = np.random.default_rng(seed)
    streams = []
    for d, t in enumerate(ticks):
        amps = gen.random((len(t), k))
        if signed:
            amps += 2.0**40 * gen.choice([-1.0, 0.0, 1.0], amps.shape, p=[0.15, 0.7, 0.15])
        else:
            amps *= 10.0 ** gen.uniform(-3, 3, (len(t), 1))
        streams.append(PreprocessedStream(np.sort(np.asarray(t, dtype=float)) / 4, amps))
    return streams


_TICKS = st.lists(st.lists(st.integers(0, 40), max_size=60), min_size=1, max_size=3)
# centers in any order, some far outside the 0-10 s span of the frames
_CENTERS = st.lists(st.integers(-20, 60), min_size=1, max_size=30)
# 0.5 s edges fall on the tick grid; a 30 s window covers every frame
_WIDTHS = st.sampled_from([0.5, 1.0, 2.5, 30.0])


class TestScanMatchesLoop:
    """_aggregate_all against the per-window loop, bit for bit."""

    @staticmethod
    def _both(ticks, centers, width, k, seed, signed=True):
        streams = _grid_streams(ticks, k, seed, signed)
        c = np.asarray(centers, dtype=float) / 4
        spec = ss.WindowSpec(width, 1.0)
        return (_aggregate_all(streams.__getitem__, len(streams), k, c, spec),
                aggregate_windows_loop(streams, c, spec))

    @settings(max_examples=300, deadline=None)
    @given(ticks=_TICKS, centers=_CENTERS, width=_WIDTHS, k=st.integers(2, 5), seed=st.integers(0, 2**32 - 1))
    # an empty stream and a single-frame stream: frame inside, on an edge, outside
    @example(ticks=[[], [5]], centers=[5, 7, 6, 4, 3, -20], width=0.5, k=2, seed=0)
    # bursts of equal timestamps, windows of up to 24 frames and empty ones
    @example(ticks=[[3] * 12 + [4] * 9 + [10] * 3], centers=[4, 3, 10, 40, 9, 4], width=0.5, k=3, seed=1)
    # every window covers every frame
    @example(ticks=[list(range(0, 40, 2)) * 2], centers=[20, 0, 40, 7], width=30.0, k=4, seed=2)
    def test_bitwise_equal_to_loop(self, ticks, centers, width, k, seed):
        # blocks of one, two and three starts reach multi-block scans and both
        # block kinds (one sum per frame of the span, or gathered starts)
        for tile in (1, 2, 3, pipeline._SCAN_TILE):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(pipeline, "_SCAN_TILE", tile)
                (x, missing), (want_x, want_missing) = self._both(ticks, centers, width, k, seed)
            np.testing.assert_array_equal(missing, want_missing)
            np.testing.assert_array_equal(x.view(np.uint32), want_x.view(np.uint32))

    @settings(max_examples=100, deadline=None)
    @given(ticks=_TICKS, centers=_CENTERS, width=_WIDTHS, seed=st.integers(0, 2**32 - 1))
    def test_single_subcarrier_within_one_ulp(self, ticks, centers, width, seed):
        # numpy sums a single column pairwise, not row by row, so with K == 1
        # the in-order scan may differ from the loop in the float64 last bits;
        # for non-negative rows, as preprocessing gives, that moves the float32
        # result by at most one unit in the last place
        (x, missing), (want_x, want_missing) = self._both(ticks, centers, width, 1, seed, False)
        np.testing.assert_array_equal(missing, want_missing)
        np.testing.assert_array_max_ulp(x, want_x, maxulp=1)


class TestDetectMissing:
    """Missingness is detected from frame presence when windows are built,
    and from all-zero rows when a model is handed a batch without flags."""

    @staticmethod
    def _streams(silent=()):
        ts = np.arange(0.0, 10.0, 0.1)
        amps = np.ones((len(ts), 3))
        return [
            PreprocessedStream(ts[:0] if d in silent else ts, amps[:0] if d in silent else amps)
            for d in range(8)
        ]

    def test_all_observed_empty(self):
        _, missing = _aggregate_all(self._streams().__getitem__, 8, 3, np.arange(1.0, 9.0), ss.WindowSpec(2.0, 1.0))
        assert not missing.any()

    def test_flags_exactly_missing_stations(self):
        x, missing = _aggregate_all(
            self._streams(silent=(1, 7)).__getitem__, 8, 3, np.arange(1.0, 9.0), ss.WindowSpec(2.0, 1.0)
        )
        np.testing.assert_array_equal(np.nonzero(missing.all(axis=0))[0], [1, 7])
        assert not missing[:, [0, 2, 3, 4, 5, 6]].any()
        np.testing.assert_array_equal(x[:, [1, 7]], 0.0)

    @settings(max_examples=50, deadline=None)
    @given(m=st.sets(st.integers(0, 7)), seed=st.integers(0, 1000))
    def test_round_trip_superset(self, m, seed):
        # InpaintingModel without flags treats every all-zero station row as
        # missing: zeroing the stations in m must get them all reconstructed
        class Recorder:
            def predict(self, xb):
                self.seen = xb
                return np.zeros(len(xb))

        class Ones:
            def reconstruct(self, xb):
                return np.ones_like(xb)

        x, _ = random_batch(np.random.default_rng(seed), n=2, k=4, missing=tuple(m))
        base = Recorder()
        ss.InpaintingModel(base, Ones()).predict(x)
        filled = np.all(base.seen == 1.0, axis=2)
        assert set(np.nonzero(filled.any(axis=0))[0]) >= m


# ---------------------------------------------------------------------------
# dataset construction
# ---------------------------------------------------------------------------


class TestReferenceCenters:
    def test_count_formula(self):
        centers = _reference_centers(600.0, ss.WindowSpec(2.0, 30.0))
        assert len(centers) == int(np.floor((600.0 - 2.0) * 30.0)) + 1
        assert centers[0] == 1.0
        np.testing.assert_allclose(np.diff(centers), 1.0 / 30.0)

    def test_too_short_run_rejected(self):
        with pytest.raises(ValueError):
            _reference_centers(1.0, ss.WindowSpec(2.0, 30.0))


class TestSplitCounts:
    def test_default_ratios(self):
        n_train, n_val, n_test = split_counts(1000, (7.0, 1.5, 1.5))
        assert (n_train, n_val, n_test) == (700, 150, 150)
        assert n_train + n_val + n_test == 1000

    def test_rounding_preserves_total(self):
        for n in (997, 1001, 13):
            parts = split_counts(n, (7.0, 1.5, 1.5))
            assert sum(parts) == n

    def test_labeled_builder_splits_as_the_windowing_config_by_default(self):
        default = inspect.signature(ss.build_labeled_dataset).parameters["split_ratios"].default
        assert default == ss.WindowingConfig().split_ratios
        assert default is ss.WindowingConfig.split_ratios

    @pytest.mark.parametrize("ratios", [(0, 0, 0), (7, -1, 1.5)], ids=["zero_sum", "negative"])
    def test_labeled_builder_rejects_bad_ratios_before_windowing(self, small_run, monkeypatch, ratios):
        # (0, 0, 0) used to die dividing by zero, and (7, -1, 1.5) to give
        # train and test splits that share windows
        _, traj, streams = small_run

        def windowed(*args):
            raise AssertionError("a station was windowed")

        monkeypatch.setattr(pipeline, "preprocess_stream", windowed)
        with pytest.raises(ValueError, match="split ratios"):
            ss.build_labeled_dataset(streams, traj, ss.WindowSpec(2.0, 4.0), ratios)


def _window_digest(d: ss.Dataset) -> str:
    h = hashlib.sha256(np.ascontiguousarray(d.x).data)
    h.update(np.ascontiguousarray(d.missing).data)
    return h.hexdigest()


# sha256 of x then missing bytes for train, val, test and unlabeled, as the
# per-window loop built them: the conftest 120 s run and a 16-station desk
# run (seed 1, desk windowing); and, as the longest-window-first scan built
# them, an 8-station 40 s desk run at the paper's rates (seed 1,
# WindowingConfig defaults), where nearly every frame starts a window
_GOLDEN_WINDOWS = {
    "small": (
        "e0c1c26ace9f686b2e2390637389465d4a8f942c45f47a70575bbd9c51b3977e",
        "35e59c5b6821cf32ce2fa8e7246bdd7bd2ddf783afef02632a2bdb87b08f6238",
        "421446ed4fc56e89f722da5ae7a8eef0f35cf4298a05905e92ee3b092f1fc212",
        "cc93db2ac6854cc8fa659ca15680bd042daa9395413d64bddf5eb61d69c0a04f",
    ),
    "desk16": (
        "1a81207cbea8282dc9a394e1c5d6c904b2a4422a97df05b87803b18d9bc8a8af",
        "c406ddb57d702e558a8b29e63343bfb00a0c4300081ab92849dd8b98dff29069",
        "b9d64d0ed21a2cd59db5cac825cc1d78e3331704a47a55b4bb0e2be1a6057be8",
        "539017fa83b32fd81c1d08297035384a07c09981dcf5d22cd65cb542afa238a7",
    ),
    "paper8": (
        "5e8884fa168cce04e62a94e45f89fa353b6c8c98effe44361098e4d903673506",
        "754f6eef2898a84623898c52ebf1a5ec2bb5bd222bf086e5494f48b4361c89c0",
        "f67620cb8174bd632bdb885ad7c7515fa1f709a84f1811fcf16a5a0caf392e66",
        "a1811861575e0548ab377e00ef37d44e68084ae2256224339bc4903dadb260e0",
    ),
}


def _all_splits(scenario, win, seed=1):
    """Train, val, test and unlabeled splits of one seeded simulated run."""
    rng = ss.RandomStream(seed, "sim")
    traj = ss.gen_trajectory(scenario, rng.child("traj"))
    streams = ss.gen_csi_streams(scenario, traj, rng.child("streams"))
    spec = win.labeled_spec()
    splits = ss.build_labeled_dataset(streams, traj, spec, win.split_ratios)
    train_end = float(splits[0].timestamps[-1]) + spec.width_s / 2
    return splits + (ss.build_unlabeled_dataset(streams, win.unlabeled_spec(), win.label_rate_hz, train_end),)


class TestBuildDatasets:
    def test_splits_are_time_contiguous_and_sized(self, small_datasets):
        train, val, test, _ = small_datasets
        total = train.n + val.n + test.n
        assert train.n == int(total * 0.7)
        assert train.timestamps[-1] < val.timestamps[0] < test.timestamps[0]

    def test_single_pass_equals_per_window_scan(self, small_run, small_datasets):
        scen, traj, streams = small_run
        train, val, test, _ = small_datasets
        keep = default_keep_list()
        pstreams = [ss.preprocess_stream(s, keep) for s in streams]
        full_x = np.concatenate([train.x, val.x, test.x])
        full_missing = np.concatenate([train.missing, val.missing, test.missing])
        full_ts = np.concatenate([train.timestamps, val.timestamps, test.timestamps])
        gen = np.random.default_rng(0)
        for i in gen.choice(len(full_ts), 100, replace=False):
            for d, ps in enumerate(pstreams):
                want = brute_force_window(ps, full_ts[i], 2.0)
                if want is None:
                    assert full_missing[i, d]
                else:
                    np.testing.assert_array_equal(
                        full_x[i, d], want.astype(np.float32)
                    )

    def test_golden_window_bytes(self, small_datasets):
        for d, want in zip(small_datasets, _GOLDEN_WINDOWS["small"]):
            assert _window_digest(d) == want, d.split
        runs = {
            "desk16": (replace(ss.desk_scenario(), n_stations=16, station_positions=None), ss.desk_windowing()),
            "paper8": (replace(ss.desk_scenario(), duration_s=40.0), ss.WindowingConfig()),
        }
        for name, (scenario, win) in runs.items():
            for d, want in zip(_all_splits(scenario, win), _GOLDEN_WINDOWS[name]):
                assert _window_digest(d) == want, (name, d.split)

    def test_labels_match_trajectory(self, small_run, small_datasets):
        _, traj, _ = small_run
        train = small_datasets[0]
        np.testing.assert_allclose(
            train.labels, traj.label(train.timestamps).astype(np.float32), rtol=1e-6
        )

    def test_unlabeled_requires_higher_rate(self, small_run):
        _, _, streams = small_run
        with pytest.raises(ValueError):
            ss.build_unlabeled_dataset(streams, ss.WindowSpec(2.0, 4.0), 4.0, 50.0)

    def test_unlabeled_restricted_to_train_span(self, small_datasets):
        train, _, _, unlabeled = small_datasets
        assert unlabeled.labels is None
        assert unlabeled.timestamps[-1] <= float(train.timestamps[-1]) + 1.0

    def test_empty_first_station_keeps_its_columns(self):
        # an outage that empties station 0 leaves it with k_raw columns, so
        # the keep list is that of k_raw = 32, every column, not that of 64
        # subcarriers
        gen = np.random.default_rng(5)
        ts = np.arange(0.0, 20.0, 0.05)
        streams = [CsiStream(0, ts[:0], np.zeros((0, 32), dtype=complex))] + [
            CsiStream(d, ts, gen.normal(size=(len(ts), 32)) + 1j * gen.normal(size=(len(ts), 32)))
            for d in (1, 2)
        ]
        traj = ss.gen_trajectory(ss.Scenario(duration_s=20.0), ss.RandomStream(0, "t"))
        spec = ss.WindowSpec(2.0, 2.0)
        splits = ss.build_labeled_dataset(streams, traj, spec)
        unlabeled = ss.build_unlabeled_dataset(streams, ss.WindowSpec(2.0, 4.0), 2.0, 14.0)
        for d in splits:
            assert d.k == 32 and d.missing[:, 0].all() and not d.missing[:, 1:].any()
        centers = np.concatenate([d.timestamps for d in splits])
        every_column = [ss.preprocess_stream(s, range(32)) for s in streams]
        want, _ = aggregate_windows_loop(every_column, centers, spec)
        np.testing.assert_array_equal(np.concatenate([d.x for d in splits]), want)
        assert unlabeled.k == 32 and unlabeled.missing[:, 0].all()

    @pytest.mark.parametrize("labeled", [True, False])
    def test_peak_is_outputs_plus_one_station(self, labeled):
        # stations are preprocessed and windowed one at a time: the peak is
        # the datasets plus one station's working set (its magnitudes, about
        # half of its complex values, then the kept float64 amplitudes), not
        # N_d preprocessed streams
        scen = ss.Scenario(duration_s=60.0, n_stations=16, station_positions=None)
        rng = ss.RandomStream(0, "memory")
        traj = ss.gen_trajectory(scen, rng.child("traj"))
        streams = ss.gen_csi_streams(scen, traj, rng.child("streams"))
        tracemalloc.start()
        try:
            base, _ = tracemalloc.get_traced_memory()
            if labeled:
                splits = ss.build_labeled_dataset(streams, traj, ss.WindowSpec(2.0, 4.0))
            else:
                splits = (ss.build_unlabeled_dataset(streams, ss.WindowSpec(2.0, 6.0), 4.0, 40.0),)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        kept = sum(a.nbytes for d in splits for a in (d.x, d.missing, d.labels, d.timestamps) if a is not None)
        one = max(s.values.nbytes for s in streams)
        assert peak - base < kept + 1.25 * one

    def test_build_datasets_peak_is_outputs_plus_one_station(self):
        # each station is simulated, preprocessed and windowed at the labeled
        # and unlabeled centers, then dropped: the peak is the datasets plus
        # about twice one station's complex values (the values with their
        # magnitudes and kept amplitudes), not N_d streams. Sizing the
        # stations first also imports numpy's generators outside the trace.
        scen = replace(ss.desk_scenario(), duration_s=60.0, n_stations=16, station_positions=None)
        _, station = pipeline._simulation(scen, 0)
        one = max(station(d).values.nbytes for d in range(scen.n_stations))
        tracemalloc.start()
        try:
            base, _ = tracemalloc.get_traced_memory()
            splits = ss.build_datasets(scen, ss.desk_windowing(), 0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        kept = sum(a.nbytes for d in splits for a in (d.x, d.missing, d.labels, d.timestamps) if a is not None)
        assert peak - base < kept + 2.5 * one

    def test_build_datasets_rejects_an_empty_train_split(self, monkeypatch):
        # 2.5 s of 2 s windows at 1 Hz is one labeled window, which the split
        # gives to test; the error comes before any station is simulated
        monkeypatch.setattr(pipeline, "station_stream", lambda *a: pytest.fail("simulated a station"))
        win = ss.WindowingConfig(label_rate_hz=1.0, ssl_rate_hz=2.0)
        with pytest.raises(ValueError, match="train split empty"):
            ss.build_datasets(ss.Scenario(duration_s=2.5), win, 0)

    def test_build_datasets_equals_windowing_the_simulated_streams(self):
        # station d + 1 is simulated while station d is windowed: the splits
        # equal those built from the run's streams
        scen = replace(ss.desk_scenario(), duration_s=40.0)
        win = ss.desk_windowing()
        traj, station = pipeline._simulation(scen, 3)
        streams = [station(d) for d in range(scen.n_stations)]
        spec = win.labeled_spec()
        want = ss.build_labeled_dataset(streams, traj, spec, win.split_ratios)
        train_end = float(want[0].timestamps[-1]) + spec.width_s / 2
        want += (ss.build_unlabeled_dataset(streams, win.unlabeled_spec(), win.label_rate_hz, train_end),)
        for got, d in zip(ss.build_datasets(scen, win, 3), want):
            assert got.split == d.split
            for a, b in ((got.x, d.x), (got.missing, d.missing), (got.labels, d.labels),
                         (got.timestamps, d.timestamps)):
                np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("where", ["simulate", "window"])
    def test_build_datasets_failing_station_raises_and_leaves_no_thread(self, monkeypatch, where):
        # station 1 fails while it is simulated, beside station 0's windowing,
        # or while it is windowed, beside station 2's simulation, which starts
        # only if a lane took it before the failure: the error is raised once
        # both lanes are done, and no later station is simulated
        simulate, bounds = pipeline.station_stream, pipeline.window_bounds
        started, windowed = [], []

        def station_stream(scenario, traj, d, rng):
            started.append(d)
            if where == "simulate" and d == 1:
                raise FloatingPointError("station 1")
            return simulate(scenario, traj, d, rng)

        def window_bounds(*args):
            windowed.append(len(windowed))
            if where == "window" and windowed[-1] == 1:
                raise FloatingPointError("station 1")
            return bounds(*args)

        monkeypatch.setattr(pipeline, "station_stream", station_stream)
        monkeypatch.setattr(pipeline, "window_bounds", window_bounds)
        threads = threading.active_count()
        with pytest.raises(FloatingPointError, match="station 1"):
            ss.build_datasets(ss.Scenario(duration_s=20.0), ss.desk_windowing(), 0)
        assert threading.active_count() == threads
        assert started in ([[0, 1]] if where == "simulate" else [[0, 1], [0, 1, 2]])

    def test_subset_and_sample_views(self, small_datasets):
        train = small_datasets[0]
        idx = np.array([0, 2, 4])
        sub = train.subset(idx)
        assert sub.n == 3 and sub.split == "train"
        np.testing.assert_array_equal(sub.x, train.x[idx])
        np.testing.assert_array_equal(sub.missing, train.missing[idx])
        np.testing.assert_array_equal(sub.labels, train.labels[idx])
        np.testing.assert_array_equal(sub.timestamps, train.timestamps[idx])


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def _golden_datasets():
    """One labeled and one unlabeled seeded set (the unlabeled one a strided view)."""
    gen = np.random.default_rng(11)
    x = gen.random((5, 3, 4)).astype(np.float32)
    missing = gen.random((5, 3)) < 0.3
    x[missing] = 0.0
    labeled = ss.Dataset("val", x, missing, gen.random(5).astype(np.float32),
                         np.arange(5) / 4.0, {"scenario_hash": "0123456789abcdef" * 2, "seed": 7})
    unlabeled = ss.Dataset("unlabeled", x[:4, :2], missing[:4, :2], None, np.arange(4) / 6.0)
    return labeled, unlabeled


# sha256 of the bundle files (nnkit.write_bundle) for _golden_datasets()
_GOLDEN_SHA256 = {
    "val": "75a7eceec743741b5e255d512e027d87654538a4425091ef584fe0bf678cec9f",
    "unlabeled": "99e011d72be762347f1f3aaaadc60bcdc800ace56d186bd88a0f87a2d5ab906e",
}


def _resealed(path, edit):
    """Let `edit` change a saved bundle's JSON header (manifest and array
    table), then re-seal the CRC, so only the loader's checks can object."""
    raw = path.read_bytes()
    (doc_len,) = struct.unpack_from("<I", raw, 8)
    doc = json.loads(raw[12 : 12 + doc_len])
    edit(doc)
    new = json.dumps(doc).encode()
    body = raw[:8] + struct.pack("<I", len(new)) + new + raw[12 + doc_len : -4]
    path.write_bytes(body + struct.pack("<I", zlib.crc32(body)))


class TestDatasetSerialization:
    def test_golden_bytes(self, tmp_path):
        for d in _golden_datasets():
            p = tmp_path / f"{d.split}.bin"
            ss.save_dataset(d, p)
            assert hashlib.sha256(p.read_bytes()).hexdigest() == _GOLDEN_SHA256[d.split]
            back = ss.load_dataset(p)
            assert back.split == d.split and back.provenance == d.provenance
            for name in ("x", "missing", "labels", "timestamps"):
                a, b = getattr(d, name), getattr(back, name)
                if a is None:
                    assert b is None
                    continue
                assert b.dtype == a.dtype and np.array_equal(a, b)
                # private, writable arrays, not views into the file buffer
                assert b.flags.writeable and b.flags.c_contiguous and b.base is None

    def test_load_holds_one_chunk_not_the_file(self, tmp_path):
        gen = np.random.default_rng(0)
        x = gen.random((3000, 8, 52)).astype(np.float32)
        d = ss.Dataset("unlabeled", x, gen.random((3000, 8)) < 0.1, None, np.arange(3000.0))
        p = tmp_path / "big.bin"
        ss.save_dataset(d, p)
        tracemalloc.start()
        try:
            back = ss.load_dataset(p)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        kept = back.x.nbytes + back.missing.nbytes + back.timestamps.nbytes
        # the file is 5 MB: holding it whole would double the peak
        assert peak < kept + 4 * (1 << 16) + (256 << 10)

    def test_truncated_file_rejected(self, tmp_path):
        labeled = _golden_datasets()[0]
        p = tmp_path / "d.bin"
        ss.save_dataset(labeled, p)
        raw = p.read_bytes()
        for cut in (3, 40, len(raw) - 30, len(raw) - 1):
            p.write_bytes(raw[:cut])
            with pytest.raises(DatasetFormatError, match="truncated|size"):
                ss.load_dataset(p)

    def test_round_trip_bitwise(self, small_datasets, tmp_path):
        train = small_datasets[0]
        train.provenance["scenario_hash"] = scenario_hash(ss.Scenario())
        train.provenance["seed"] = 7
        p = tmp_path / "d.bin"
        ss.save_dataset(train, p)
        back = ss.load_dataset(p)
        assert back.split == "train"
        np.testing.assert_array_equal(back.x, train.x)
        np.testing.assert_array_equal(back.missing, train.missing)
        np.testing.assert_array_equal(back.labels, train.labels)
        np.testing.assert_array_equal(back.timestamps, train.timestamps)
        assert back.provenance["scenario_hash"] == train.provenance["scenario_hash"]
        assert back.provenance["seed"] == 7

    def test_provenance_round_trips_as_it_is(self, tmp_path):
        # a built split carries only its split ratios; nothing is dropped or invented
        splits = ss.build_datasets(replace(ss.desk_scenario(), duration_s=60.0), ss.desk_windowing(), 0)
        for d in splits:
            p = tmp_path / f"{d.split}.bin"
            ss.save_dataset(d, p)
            back = ss.load_dataset(p)
            assert back.split == d.split and back.provenance == d.provenance
            for name in ("x", "missing", "labels", "timestamps"):
                a, b = getattr(d, name), getattr(back, name)
                assert (a is None and b is None) or (a.tobytes() == b.tobytes() and a.dtype == b.dtype)
        assert splits[0].provenance == {"split_ratios": [7.0, 1.5, 1.5]}
        assert splits[3].provenance == {}

    def test_unlabeled_round_trip(self, small_datasets, tmp_path):
        unlabeled = small_datasets[3]
        p = tmp_path / "u.bin"
        ss.save_dataset(unlabeled, p)
        back = ss.load_dataset(p)
        assert back.labels is None
        np.testing.assert_array_equal(back.x, unlabeled.x)

    def test_corrupt_byte_fails_checksum(self, small_datasets, tmp_path):
        p = tmp_path / "d.bin"
        ss.save_dataset(small_datasets[0], p)
        raw = bytearray(p.read_bytes())
        raw[100] ^= 0xFF
        p.write_bytes(bytes(raw))
        with pytest.raises(DatasetFormatError, match="checksum"):
            ss.load_dataset(p)

    def test_bad_magic_rejected(self, tmp_path):
        p = tmp_path / "d.bin"
        p.write_bytes(b"NOPE" + b"\0" * 100)
        with pytest.raises(DatasetFormatError, match="magic|truncated"):
            ss.load_dataset(p)
        # a file of the earlier record format names the magic it found
        p.write_bytes(b"MSDS" + b"\0" * 100)
        with pytest.raises(DatasetFormatError, match="magic b'MSDS'"):
            ss.load_dataset(p)

    def test_header_payload_mismatch_rejected(self, small_datasets, tmp_path):
        p = tmp_path / "d.bin"
        for step in (1, -1):
            ss.save_dataset(small_datasets[0], p)

            def restation(doc):
                (x,) = [e for e in doc["arrays"] if e["name"] == "x"]
                x["shape"][1] += step

            _resealed(p, restation)  # the table now claims more, or fewer, bytes than the file holds
            with pytest.raises(DatasetFormatError, match="truncated|size"):
                ss.load_dataset(p)

    def test_unknown_split_rejected(self, small_datasets, tmp_path):
        p = tmp_path / "d.bin"
        holdout = replace(small_datasets[0], split="holdout")
        with pytest.raises(ValueError, match="holdout"):
            ss.save_dataset(holdout, p)
        assert not p.exists()
        ss.save_dataset(small_datasets[0], p)
        _resealed(p, lambda doc: doc["manifest"].update(split="holdout"))
        with pytest.raises(DatasetFormatError, match="split"):
            ss.load_dataset(p)

    def test_provenance_that_is_not_an_object_rejected(self, small_datasets, tmp_path):
        p = tmp_path / "d.bin"
        ss.save_dataset(small_datasets[0], p)
        _resealed(p, lambda doc: doc["manifest"].update(provenance=[1, 2]))
        with pytest.raises(DatasetFormatError, match="provenance"):
            ss.load_dataset(p)

    def test_numpy_scalars_in_provenance_load_as_python_values(self, tmp_path):
        d = replace(_golden_datasets()[0], provenance={
            "seed": np.int64(3), "rate": np.float32(0.5), "ratios": [np.float64(7.0), 1.5], "ok": np.bool_(True)})
        p = tmp_path / "d.bin"
        ss.save_dataset(d, p)
        back = ss.load_dataset(p).provenance
        assert back == {"seed": 3, "rate": 0.5, "ratios": [7.0, 1.5], "ok": True}
        assert type(back["seed"]) is int and type(back["ok"]) is bool

    @pytest.mark.parametrize("value", [np.zeros(2), object(), {"nested": {1, 2}}])
    def test_provenance_that_is_not_json_raises_naming_its_key(self, tmp_path, value):
        d = replace(_golden_datasets()[0], provenance={"seed": 3, "bad": value})
        p = tmp_path / "d.bin"
        with pytest.raises(ValueError, match="'bad'"):
            ss.save_dataset(d, p)
        assert not p.exists()

    def test_arrays_that_disagree_are_rejected(self, tmp_path):
        d = _golden_datasets()[0]
        good = {"x": d.x, "missing": d.missing, "labels": d.labels, "timestamps": d.timestamps}
        manifest = {"type": "dataset", "split": "val", "provenance": {}}
        p = tmp_path / "d.bin"
        for edit, match in (
            ({"missing": d.missing[:, :2]}, "missing"),  # N_d disagrees with x
            ({"labels": d.labels[:4]}, "labels"),  # n disagrees with x
            ({"x": d.x[..., 0]}, "'x'"),  # no K axis
            ({"timestamps": d.timestamps.astype(np.float32)}, "timestamps"),
            ({"x": d.x.astype(np.float64)}, "'x'"),
            ({"extra": d.labels}, "extra"),
        ):
            write_bundle(p, manifest, {**good, **edit})
            with pytest.raises(DatasetFormatError, match=match):
                ss.load_dataset(p)
        write_bundle(p, manifest, {k: v for k, v in good.items() if k != "timestamps"})
        with pytest.raises(DatasetFormatError, match="timestamps"):
            ss.load_dataset(p)

    def test_missing_flags_must_be_bytes_0_or_1(self, tmp_path):
        d = _golden_datasets()[0]
        flags = d.missing.view(np.uint8).copy()
        flags[2, 1] = 2  # write_bundle seals this byte into the CRC
        p = tmp_path / "d.bin"
        write_bundle(p, {"type": "dataset", "split": "val", "provenance": {}},
                     {"x": d.x, "missing": flags.view(bool), "labels": d.labels,
                      "timestamps": d.timestamps})
        with pytest.raises(DatasetFormatError, match="missing"):
            ss.load_dataset(p)

    def test_checkpoints_and_datasets_are_told_apart(self, tmp_path):
        dataset, checkpoint = tmp_path / "d.bin", tmp_path / "fx.ck"
        ss.save_dataset(_golden_datasets()[0], dataset)
        ss.save_checkpoint(ss.build_extractor(3, 4, ss.RandomStream(0, "fx")), checkpoint)
        with pytest.raises(DatasetFormatError, match="feature_extractor"):
            ss.load_dataset(checkpoint)
        with pytest.raises(ss.CheckpointError, match="'dataset'"):
            ss.load_checkpoint(dataset)

    def test_export_csv_row_count(self, small_datasets, tmp_path):
        train = small_datasets[0]
        p = tmp_path / "d.csv"
        ss.export_csv(train, p)
        lines = p.read_text().strip().split("\n")
        assert len(lines) == train.n + 1

    def test_scenario_hash_sensitive_to_fields(self):
        a = scenario_hash(ss.Scenario())
        b = scenario_hash(ss.Scenario(noise_std=0.02))
        assert a != b and a == scenario_hash(ss.Scenario())

    def test_scenario_hash_reads_integers_as_floats(self):
        assert scenario_hash(ss.Scenario(duration_s=600)) == scenario_hash(ss.Scenario(duration_s=600.0))
        ints = ss.Scenario(n_stations=4, station_positions=((0, 1), (1, 0), (3, 2), (2, 3)))
        floats = ss.Scenario(n_stations=4, station_positions=((0.0, 1.0), (1.0, 0.0), (3.0, 2.0), (2.0, 3.0)))
        assert scenario_hash(ints) == scenario_hash(floats)
        assert scenario_hash(ss.Scenario(room_extent=(4, 3), ap_position=(2, 1))) == scenario_hash(
            ss.Scenario(room_extent=(4.0, 3.0), ap_position=(2.0, 1.0)))

    def test_scenario_hash_of_float_written_scenarios_is_pinned(self):
        floats = ss.Scenario(n_stations=4, station_positions=((0.0, 1.0), (1.0, 0.0), (3.0, 2.0), (2.0, 3.0)))
        assert scenario_hash(ss.Scenario()) == "d3818a82f31920cb37f4fb40665c94f9"
        assert scenario_hash(ss.desk_scenario()) == "d3818a82f31920cb37f4fb40665c94f9"
        assert scenario_hash(floats) == "d20aa9e2f76e9ad1ae7ff2d13a759593"

    def test_scenario_hash_digests_are_pinned(self):
        # dataset files carry the digest as provenance, so it must not move
        yaml_ints = config_from_dict({"scenario": {
            "duration_s": 600, "noise_std": 0, "room_extent": [4, 3], "ap_position": [2, 1],
            "outage": {"mean_gap_s": 60, "mean_len_s": 5}, "carrier_hz": 60000000,
            "bandwidth_hz": 40000000, "mean_rate_hz": 20, "scatter_coeff": 1, "n_stations": 4,
            "station_positions": [[0, 0], [4, 0], [4, 3], [0, 3]]}}).scenario
        digests = {
            "default": (ss.Scenario(), "d3818a82f31920cb37f4fb40665c94f9"),
            "desk": (ss.desk_scenario(), "d3818a82f31920cb37f4fb40665c94f9"),
            "desk, 16 stations": (replace(ss.desk_scenario(), n_stations=16, station_positions=None),
                                  "46aa50215ed55872668d2855cb8060b7"),
            "YAML integers": (yaml_ints, "96cfd14cea8936ce1b5701e3a3ce78d3"),
            "noise_std=0": (ss.Scenario(noise_std=0), "4ea958035c4a6f9c5c1c1e3abb06abf6"),
        }
        assert {k: scenario_hash(s) for k, (s, _) in digests.items()} == {
            k: digest for k, (_, digest) in digests.items()}
