"""Tests of the benchmark itself: python3 -m pytest perfbench -q"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import stationsense as ss  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from spans import Span  # noqa: E402


def _spans(*rows):
    return [Span(name, start, end, parent, "r") for name, start, end, parent in rows]


def test_self_time_on_synthetic_spans():
    s = _spans(
        ("nnkit.fit", 0.0, 10.0, -1),        # 0
        ("nnkit.fit.step", 1.0, 4.0, 0),      # 1
        ("nnkit.dense.fwd", 1.5, 2.0, 1),     # 2: inside the step, not subtracted again
        ("nnkit.adam", 4.0, 5.0, 0),          # 3
        ("core.rng", 5.0, 5.5, 0),            # 4: stream derivation stays in self time
        ("nnkit.fit.step", 6.0, 8.0, 0),      # 5
        ("nnkit.fit", 20.0, 21.0, -1),        # 6
    )
    assert spans.exclusive_time(s, "nnkit.fit", (spans.STEP, "nnkit.adam")) == pytest.approx(11.0 - 3 - 1 - 2)


def test_nested_same_name_spans_count_once():
    s = _spans(
        ("harness.eval", 0.0, 10.0, -1),
        ("downstream.predict", 1.0, 5.0, 0),   # ensemble
        ("downstream.predict", 1.0, 2.0, 1),   # its member
        ("downstream.predict", 6.0, 7.0, 0),
    )
    s[1].info["rows"] = s[2].info["rows"] = s[3].info["rows"] = 50
    s[0].info["test_rows"] = 50
    assert spans.outermost(s, "downstream.predict") == [1, 3]
    assert spans.exclusive_time(s, "harness.eval", ("downstream.predict",)) == pytest.approx(5.0)
    assert spans.descendants_info(s, "harness.eval", "downstream.predict", "rows") == {0: 100}
    m = spans.layer_metrics(s, ceiling_gflops=100.0)
    assert m["harness.eval.combos"] == 2
    assert m["downstream.predict.calls"] == 2


def test_dense_flop_formula():
    rng = ss.RandomStream(0, "t")
    layer = ss.nnkit.Dense("d", 52, 64, rng)
    x = np.ones((256, 52), np.float32)
    with spans.Tracer("t") as tracer:
        y, cache = layer.forward(x, "train", None)
        layer.backward(cache, np.ones_like(y))
    fwd, bwd = tracer.spans
    assert fwd.info["gflop"] == pytest.approx(2 * 256 * 52 * 64 / 1e9)
    assert bwd.info["gflop"] == pytest.approx(4 * 256 * 52 * 64 / 1e9)


def _bindings():
    out = {}
    for owner_name, attr, _, _ in spans.TARGETS:
        owner = spans._resolve(owner_name)
        out[(owner_name, attr)] = owner.__dict__.get(attr)
        for m in spans._package_modules():
            if attr in m.__dict__:
                out[(m.__name__, attr)] = m.__dict__[attr]
    return out


def test_wrappers_are_installed_then_restored():
    before = _bindings()
    tracer = spans.Tracer("t")
    with tracer:
        assert ss.crossl.fit_loop is not before[("stationsense.crossl", "fit_loop")]
        assert ss.harness.train_downstream is not before[("stationsense.harness", "train_downstream")]
        ss.RandomStream(1, "x").child("y")
    assert _bindings() == before
    assert [s.name for s in tracer.spans] == ["core.rng", "core.rng"]
    assert tracer.absent == []


def test_missing_target_is_absent_not_fatal():
    targets = spans.TARGETS + (("nnkit.GroupedDense", "forward", "nnkit.grouped.fwd", None),
                               ("nnkit", "no_such_fn", "nnkit.gone", None))
    with spans.Tracer("t", targets) as tracer:
        pass
    assert tracer.absent == ["nnkit.gone", "nnkit.grouped.fwd"]
    assert spans.absent_metrics(["nnkit.gone.calls", "nnkit.dense.fwd.s"], tracer.absent) == ["nnkit.gone.calls"]


def test_workload_inputs_identical_for_same_seed(tmp_path):
    scen = ss.Scenario(duration_s=60.0)
    a = workloads.make_inputs(3, scen, ss.desk_windowing())
    b = workloads.make_inputs(3, scen, ss.desk_windowing())
    c = workloads.make_inputs(4, scen, ss.desk_windowing())
    for split in ("train", "test", "unlabeled"):
        assert getattr(a, split).x.tobytes() == getattr(b, split).x.tobytes()
    assert a.unlabeled.x.tobytes() != c.unlabeled.x.tobytes()
    acq = workloads.Acquire()
    s1, s2 = acq._state(3, 60.0, tmp_path), acq._state(3, 60.0, tmp_path)
    assert s1["traj"].position(30.0).tolist() == s2["traj"].position(30.0).tolist()


def test_expected_combos_follow_the_exhaustive_cap():
    assert [workloads.expected_combos(16, k) for k in (1, 4, 8, 12, 16)] == [16, 500, 500, 500, 1]
    assert [workloads.expected_combos(8, k) for k in (1, 4, 8)] == [8, 70, 1]


def test_ops_normalises_calls_by_their_probes_and_clock_skips_probes():
    def probe():
        time.sleep(0.02)
        return 0.5

    ops = workloads.Ops(probe)
    t0 = ops.clock()
    ops(time.sleep, 0.05)
    ops(time.sleep, 0.05)
    elapsed = ops.clock() - t0
    assert len(ops.probes) == 3  # the second call reuses the first call's closing probe
    assert ops.norm == pytest.approx(0.1 / 0.5, rel=0.3)
    assert 0.1 <= elapsed < 0.14  # the 60 ms of probes are left out
    assert (ops.attempted, ops.failed) == (2, 0)


def test_brute_force_window_oracle_matches_pipeline():
    scen = ss.Scenario(duration_s=30.0)
    rng = ss.RandomStream(0, "sim")
    traj = ss.gen_trajectory(scen, rng.child("traj"))
    streams = ss.gen_csi_streams(scen, traj, rng.child("streams"))
    spec = ss.WindowSpec(2.0, 4.0)
    train, _, _ = ss.build_labeled_dataset(streams, traj, spec)
    keep = ss.default_keep_list(64)
    for i in range(0, train.n, 7):
        for d, s in enumerate(streams):
            want = workloads.brute_force_window(s, keep, float(train.timestamps[i]), spec.width_s)
            assert (want is None) == bool(train.missing[i, d])
            if want is not None:
                np.testing.assert_allclose(train.x[i, d], want, rtol=1e-5, atol=1e-6)


def test_declared_metrics_are_the_computed_ones():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    computed = (set(run.untraced_layer_metrics([])) | set(spans.layer_metrics([], 1.0))
                | {"wall_s", "probe_s", "trace.overhead_s"})
    assert {m["name"] for m in spec["per_layer"]} == computed
    assert [m["name"] for m in spec["end_to_end"]] == ["setup_s", "wall_norm", "peak_rss_mb"]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "train", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
