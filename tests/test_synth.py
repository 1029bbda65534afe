"""Synthetic trajectory, channel model, and frame-stream generation."""

import hashlib
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import stationsense as ss
from stationsense import core, synth
from stationsense.synth import (
    SPEED_OF_LIGHT,
    _outage_intervals,
    _poisson_arrivals,
)

from conftest import BusyWorker, DeferredWorker, EagerWorker, InlineWorker


class TestScenario:
    def test_defaults_valid(self):
        s = ss.Scenario()
        assert s.n_stations == 8 and s.k_raw == 64
        assert len(s.station_positions) == 8

    def test_positions_inside_room(self):
        s = ss.Scenario()
        for x, y in s.station_positions:
            assert 0 <= x <= s.room_extent[0] and 0 <= y <= s.room_extent[1]

    # sha256 of each default layout's float64 bytes, as they were before
    # positions were clamped to the room
    DEFAULT_POSITIONS_SHA256 = {
        2: "af3f6e8b4865a46d", 3: "bcc3fb71193129af", 4: "5021fadc1724fc3b",
        6: "cd006e209c24df10", 8: "e754f7ee33e53c3c", 10: "070b4a78f3c4d32d",
        12: "48d21005c986aab7", 14: "2e6a4d6ca8165937", 16: "50c2b57c15cf24b3",
    }

    @pytest.mark.parametrize("n", range(1, 17))
    def test_every_station_count_builds_inside_the_room(self, n):
        s = ss.Scenario(n_stations=n)
        assert len(s.station_positions) == n
        for x, y in s.station_positions:
            assert 0 <= x <= s.room_extent[0] and 0 <= y <= s.room_extent[1]
        if n in self.DEFAULT_POSITIONS_SHA256:
            raw = np.array(s.station_positions, dtype=np.float64).tobytes()
            assert hashlib.sha256(raw).hexdigest()[:16] == self.DEFAULT_POSITIONS_SHA256[n]

    def test_rejects_bad_geometry(self):
        with pytest.raises(ValueError):
            ss.Scenario(ap_position=(10.0, 0.0))
        with pytest.raises(ValueError):
            ss.Scenario(duration_s=0.0)

    def test_subcarrier_frequencies_centered_on_carrier(self):
        s = ss.Scenario()
        f = s.subcarrier_frequencies()
        assert len(f) == 64
        assert abs(f.mean() - s.carrier_hz) < 1e-3
        spacing = np.diff(f)
        np.testing.assert_allclose(spacing, s.bandwidth_hz / s.k_raw)


class TestTrajectory:
    def test_stays_inside_room(self, small_run):
        scen, traj, _ = small_run
        t = np.linspace(0, scen.duration_s, 20000)
        pos = traj.position(t)
        assert pos[:, 0].min() >= 0 and pos[:, 0].max() <= scen.room_extent[0]
        assert pos[:, 1].min() >= 0 and pos[:, 1].max() <= scen.room_extent[1]

    def test_label_in_unit_interval(self, small_run):
        scen, traj, _ = small_run
        lab = traj.label(np.linspace(0, scen.duration_s, 20000))
        assert lab.min() >= 0.0 and lab.max() <= 1.0

    def test_at_least_three_direction_reversals_over_120s(self):
        # oracle: count sign changes of the finite-difference velocity
        scen = ss.Scenario(duration_s=120.0)
        traj = ss.gen_trajectory(scen, ss.RandomStream(0, "t"))
        t = np.linspace(0, 120.0, 12000)
        vx = np.diff(traj.position(t)[:, 0])
        signs = np.sign(vx[np.abs(vx) > 1e-12])
        reversals = int(np.sum(signs[1:] != signs[:-1]))
        assert reversals >= 3

    def test_deterministic(self):
        scen = ss.Scenario()
        a = ss.gen_trajectory(scen, ss.RandomStream(3, "t"))
        b = ss.gen_trajectory(scen, ss.RandomStream(3, "t"))
        t = np.linspace(0, 10, 100)
        np.testing.assert_array_equal(a.position(t), b.position(t))


class TestChannelResponse:
    def test_matches_hand_computed_two_path_sum(self):
        # independent oracle: evaluate the LOS + scattered-path sum with
        # explicit scalar arithmetic, one position, station and subcarrier
        # at a time
        scen = ss.Scenario()
        positions = np.random.default_rng(0).uniform([0, 0], scen.room_extent, (20, 2))
        ap = np.array(scen.ap_position)
        f = scen.subcarrier_frequencies()
        for station in range(scen.n_stations):
            h = ss.channel_response(positions, station, scen)
            assert h.shape == (20, scen.k_raw)
            st = np.array(scen.station_positions[station])
            d_los = max(np.hypot(*(ap - st)), 0.1)
            for i, pos in enumerate(positions):
                d1 = max(np.hypot(*(ap - pos)), 0.1)
                d2 = max(np.hypot(*(pos - st)), 0.1)
                for k in range(scen.k_raw):
                    expect = (1.0 / d_los) * np.exp(
                        -2j * np.pi * f[k] * d_los / SPEED_OF_LIGHT
                    ) + (scen.scatter_coeff / (d1 * d2)) * np.exp(
                        -2j * np.pi * f[k] * (d1 + d2) / SPEED_OF_LIGHT
                    )
                    assert abs(h[i, k] - expect) < 1e-12

    def test_continuity_under_1cm_move(self):
        scen = ss.Scenario()
        a, b = np.abs(ss.channel_response([[1.5, 1.0], [1.51, 1.0]], 0, scen))
        assert np.linalg.norm(a - b) / np.linalg.norm(a) < 0.05

    def test_distance_floor_prevents_blowup(self):
        scen = ss.Scenario()
        h = ss.channel_response([scen.ap_position], 0, scen)  # pedestrian on the AP
        assert np.all(np.isfinite(h))

    def test_rejects_position_outside_room(self):
        with pytest.raises(ValueError, match="outside room"):
            ss.channel_response([[1.0, 1.0], [-1.0, 0.0]], 0, ss.Scenario())

    def test_rejects_station_outside_scenario(self):
        # -1 would index the last station's position, n_stations past the end
        scen = ss.Scenario()
        for station in (-1, scen.n_stations):
            with pytest.raises(ValueError, match="station"):
                ss.channel_response([[1.0, 1.0]], station, scen)

    def test_rejects_positions_not_n_by_2(self):
        scen = ss.Scenario()
        for bad in ([1.0, 1.0], np.ones((3, 3)), np.ones((2, 2, 2))):
            with pytest.raises(ValueError, match=r"\(n, 2\)"):
                ss.channel_response(bad, 0, scen)


class TestArrivalsAndOutages:
    def test_poisson_count_concentrates(self):
        # lambda = 1200; the stated interval has >= 0.99 coverage
        t = _poisson_arrivals(20.0, 60.0, ss.RandomStream(0, "arr"))
        assert 1080 <= len(t) <= 1320
        assert np.all(np.diff(t) > 0)
        assert t.max() <= 60.0

    def test_outage_disabled_gives_no_intervals(self):
        spec = ss.OutageSpec(mean_gap_s=60.0, mean_len_s=0.0)
        assert _outage_intervals(spec, 600.0, ss.RandomStream(0, "o")) == []

    def test_outages_create_long_gaps(self):
        # aggressive on/off process leaves at least one inter-frame gap > 2 s
        scen = ss.Scenario(
            duration_s=600.0, outage=ss.OutageSpec(mean_gap_s=20.0, mean_len_s=5.0)
        )
        traj = ss.gen_trajectory(scen, ss.RandomStream(1, "t"))
        streams = ss.gen_csi_streams(scen, traj, ss.RandomStream(1, "s"))
        for s in streams:
            assert np.max(np.diff(s.timestamps)) > 2.0


class TestGenCsiStreams:
    def test_shapes_and_monotone_timestamps(self, small_run):
        scen, _, streams = small_run
        assert len(streams) == scen.n_stations
        for d, s in enumerate(streams):
            assert s.station == d
            assert s.values.shape == (len(s.timestamps), scen.k_raw)
            assert np.all(np.diff(s.timestamps) > 0)
            assert s.timestamps.max() <= scen.duration_s

    def test_deterministic_per_seed(self):
        scen = ss.Scenario(duration_s=30.0)
        traj = ss.gen_trajectory(scen, ss.RandomStream(2, "t"))
        a = ss.gen_csi_streams(scen, traj, ss.RandomStream(2, "s"))
        b = ss.gen_csi_streams(scen, traj, ss.RandomStream(2, "s"))
        for sa, sb in zip(a, b):
            np.testing.assert_array_equal(sa.timestamps, sb.timestamps)
            np.testing.assert_array_equal(sa.values, sb.values)

    def test_noise_level(self):
        scen_clean = ss.Scenario(duration_s=30.0, noise_std=0.0)
        traj = ss.gen_trajectory(scen_clean, ss.RandomStream(0, "t"))
        clean = ss.gen_csi_streams(scen_clean, traj, ss.RandomStream(0, "s"))
        noisy = ss.gen_csi_streams(
            ss.Scenario(duration_s=30.0, noise_std=0.05), traj, ss.RandomStream(0, "s")
        )
        diff = noisy[0].values - clean[0].values
        measured = np.sqrt(np.mean(np.abs(diff) ** 2))
        assert abs(measured - 0.05) < 0.005

    def test_label_signal_dependence(self, small_run, small_datasets):
        # the regression task must be learnable: some subcarrier's amplitude
        # correlates with the label beyond |r| = 0.3
        train, val, test, _ = small_datasets
        x = np.concatenate([train.x, val.x, test.x])
        y = np.concatenate([train.labels, val.labels, test.labels])
        best = 0.0
        for d in range(x.shape[1]):
            for k in range(x.shape[2]):
                col = x[:, d, k]
                if col.std() < 1e-9:
                    continue
                best = max(best, abs(np.corrcoef(col, y)[0, 1]))
        assert best > 0.3


# sha256 of every station's timestamps then values, recorded with the
# out-of-place channel response and noise sum (x86-64, numpy's own libm)
_GOLDEN_STREAMS = {
    "noisy": (3, {}, "eebc460dae1edea412d4ab86e66afa8018cab360a0f9d4838e5af02b6bc31763"),
    "clean": (3, {"noise_std": 0.0}, "d16e34e028f022133a3d0808d490b3af223edbd3f9723de3458bf4a4d3854646"),
    # station 0 has no frame: the first outage starts before its first arrival
    "outage": (
        31,
        {"k_raw": 32, "outage": ss.OutageSpec(mean_gap_s=1.0, mean_len_s=1000.0)},
        "73f2b5ff6754616f0edf31d42a32bb9ab4b268525d99a4956d9126bb78c598ed",
    ),
}


def _golden_streams(name):
    seed, fields, _ = _GOLDEN_STREAMS[name]
    scen = ss.Scenario(duration_s=30.0, **fields)
    rng = ss.RandomStream(seed, "golden")
    traj = ss.gen_trajectory(scen, rng.child("traj"))
    return scen, traj, ss.gen_csi_streams(scen, traj, rng.child("streams"))


class TestGenCsiStreamsBytes:
    @pytest.mark.parametrize("name", sorted(_GOLDEN_STREAMS))
    def test_golden_bytes(self, name):
        scen, _, streams = _golden_streams(name)
        h = hashlib.sha256()
        for s in streams:
            h.update(s.timestamps.tobytes())
            h.update(s.values.tobytes())
        assert h.hexdigest() == _GOLDEN_STREAMS[name][2]
        if name == "outage":
            assert len(streams[0]) == 0 and min(len(s) for s in streams[1:]) > 0
            assert streams[0].values.shape == (0, scen.k_raw)

    def test_peak_is_streams_plus_one_station(self):
        # the returned streams plus at most one station's values more: the
        # channel response and the noise are built in the returned array
        scen = ss.Scenario(duration_s=60.0, n_stations=16, station_positions=None)
        rng = ss.RandomStream(0, "memory")
        traj = ss.gen_trajectory(scen, rng.child("traj"))
        tracemalloc.start()
        try:
            base, _ = tracemalloc.get_traced_memory()
            streams = ss.gen_csi_streams(scen, traj, rng.child("streams"))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        kept = sum(s.values.nbytes + s.timestamps.nbytes for s in streams)
        one = max(s.values.nbytes for s in streams)
        assert peak - base < kept + one


class TestTwoLanes:
    def test_streams_equal_a_loop_over_the_stations(self):
        # the golden outage run: station 0 is empty, the others are not
        scen, traj, streams = _golden_streams("outage")
        rng = ss.RandomStream(_GOLDEN_STREAMS["outage"][0], "golden").child("streams")
        loop = [synth.station_stream(scen, traj, d, rng) for d in range(scen.n_stations)]
        assert [s.station for s in streams] == list(range(scen.n_stations))
        for s, want in zip(streams, loop):
            assert s.timestamps.tobytes() == want.timestamps.tobytes()
            assert s.values.shape == want.values.shape
            assert s.values.tobytes() == want.values.tobytes()

    @pytest.mark.parametrize("n_stations", [2, 3])
    def test_short_and_odd_station_counts_keep_station_order(self, n_stations):
        scen = ss.Scenario(duration_s=10.0, n_stations=n_stations, station_positions=None)
        traj = ss.gen_trajectory(scen, ss.RandomStream(0, "t"))
        rng = ss.RandomStream(0, "s")
        streams = ss.gen_csi_streams(scen, traj, rng)
        loop = [synth.station_stream(scen, traj, d, rng) for d in range(n_stations)]
        assert [s.station for s in streams] == list(range(n_stations))
        assert [s.values.tobytes() for s in streams] == [s.values.tobytes() for s in loop]

    @staticmethod
    def _finishing_order(monkeypatch, lane):
        """The order in which the stations finish under `lane`, checking that
        the streams still come in station order, bit for bit those of a loop."""
        stream, finished = synth.station_stream, []

        def record(scenario, traj, d, rng):
            s = stream(scenario, traj, d, rng)
            finished.append(d)
            return s

        monkeypatch.setattr(synth, "station_stream", record)
        monkeypatch.setattr(core, "ThreadPoolExecutor", lane)
        scen = ss.Scenario(duration_s=5.0)
        traj, rng = ss.gen_trajectory(scen, ss.RandomStream(0, "t")), ss.RandomStream(0, "s")
        streams = ss.gen_csi_streams(scen, traj, rng)
        loop = [stream(scen, traj, d, rng) for d in range(scen.n_stations)]
        assert [s.station for s in streams] == list(range(scen.n_stations))
        assert [s.values.tobytes() for s in streams] == [s.values.tobytes() for s in loop]
        return finished

    def test_station_order_holds_when_the_worker_finishes_first(self, monkeypatch):
        # the worker's lane runs inside submit, so it takes every station
        # before the calling thread's lane starts
        assert self._finishing_order(monkeypatch, InlineWorker) == list(range(8))

    def test_station_order_holds_when_the_worker_finishes_last(self, monkeypatch):
        # the worker's lane would run only when its result is taken, so the
        # calling thread takes every station and the worker's job is cancelled
        assert self._finishing_order(monkeypatch, DeferredWorker) == list(range(8))

    @pytest.mark.parametrize("lane", [EagerWorker, BusyWorker])
    def test_station_order_holds_when_either_lane_may_take_a_station(self, monkeypatch, lane):
        assert sorted(self._finishing_order(monkeypatch, lane)) == list(range(8))

    @pytest.mark.parametrize("failing", [4, 5])
    def test_a_failing_station_raises_and_starts_no_later_station(self, monkeypatch, failing):
        # the failure is raised once the other lane's station is done, which
        # may be a later one that lane took before the failing station raised
        assert self._started_before_failure(monkeypatch, ThreadPoolExecutor, failing)[-1] >= failing

    @pytest.mark.parametrize("lane", [InlineWorker, DeferredWorker])
    def test_a_failing_station_on_one_lane_starts_no_later_station(self, monkeypatch, lane):
        # every station runs on the worker's lane (InlineWorker) or on the
        # calling thread's (DeferredWorker): nothing after station 4 starts
        assert self._started_before_failure(monkeypatch, lane, 4) == list(range(5))

    @staticmethod
    def _started_before_failure(monkeypatch, lane, failing):
        """The stations started, in order, when station `failing` raises under
        `lane`; checks that the error is raised and leaves no thread."""
        response = synth.channel_response
        started = []

        def fail_at(positions, station, scenario):
            started.append(station)
            if station == failing:
                raise FloatingPointError(f"station {station}")
            return response(positions, station, scenario)

        monkeypatch.setattr(synth, "channel_response", fail_at)
        monkeypatch.setattr(core, "ThreadPoolExecutor", lane)
        scen = ss.Scenario(duration_s=30.0)
        traj = ss.gen_trajectory(scen, ss.RandomStream(0, "t"))
        threads = threading.active_count()
        with pytest.raises(FloatingPointError, match=f"station {failing}"):
            ss.gen_csi_streams(scen, traj, ss.RandomStream(0, "s"))
        assert threading.active_count() == threads
        assert sorted(started) == list(range(len(started)))
        return sorted(started)

    def test_one_station_holds_its_values_plus_one_noise_block(self):
        # the noise goes in by row blocks: a whole float64 draw would be half
        # the values on its own
        scen = ss.Scenario(duration_s=60.0)
        rng = ss.RandomStream(0, "memory")
        traj = ss.gen_trajectory(scen, rng.child("traj"))
        tracemalloc.start()
        try:
            base, _ = tracemalloc.get_traced_memory()
            stream = synth.station_stream(scen, traj, 3, rng.child("streams"))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        kept = stream.values.nbytes + stream.timestamps.nbytes
        assert peak - base < kept + 0.4 * stream.values.nbytes
