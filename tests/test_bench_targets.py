"""Every function and method the benchmark's traced pass wraps must exist:
a target that no longer resolves silently reads 0 in the per-layer metrics."""

import sys
from pathlib import Path

import numpy as np

import stationsense as ss
from stationsense import synth

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import spans  # noqa: E402


def test_every_traced_target_resolves():
    unresolved = []
    for owner_name, attr, _, _ in spans.TARGETS:
        owner = spans._resolve(owner_name)
        if owner is None or not callable(getattr(owner, attr, None)):
            unresolved.append(f"{owner_name}.{attr}")
    assert unresolved == []
    with spans.Tracer("targets") as tracer:
        pass
    assert tracer.absent == []


def test_grouped_encoder_layers_are_traced():
    # the station encoders run as one grouped stack of the same layer
    # classes, so the per-layer spans see them
    fx = ss.build_extractor(3, 4, ss.RandomStream(0, "fx"), embedding_dim=3,
                            aggregator_hidden=(4, 4), encoder_widths=(5,))
    xb = np.random.default_rng(0).random((6, 3, 4)).astype(np.float32)
    with spans.Tracer("encoders") as tracer:
        q, caches = fx.encode_batch(xb, "train", ss.RandomStream(0, "enc"))
        fx.encode_backward(caches, np.ones(q.shape))
    names = {s.name for s in tracer.spans}
    assert {"nnkit.dense.fwd", "nnkit.dense.bwd", "nnkit.batchnorm.fwd", "nnkit.dropout.fwd"} <= names


def test_synth_spans_survive_the_lanes():
    # the tracer keeps one span stack per process: the synth.streams span
    # opens and closes on the calling thread, so it stays at top level with
    # every frame counted, and the worker's core.rng spans are all recorded
    scen = ss.Scenario(duration_s=20.0)
    traj = ss.gen_trajectory(scen, ss.RandomStream(0, "t"))
    rng = ss.RandomStream(0, "s")
    with spans.Tracer("loop") as tracer:
        for d in range(scen.n_stations):
            synth.station_stream(scen, traj, d, rng)
    loop = tracer.spans
    with spans.Tracer("lanes") as tracer:
        streams = ss.gen_csi_streams(scen, traj, rng)
    top = [s for s in tracer.spans if s.name == "synth.streams"]
    assert len(top) == 1 and top[0].parent == -1
    assert top[0].info["frames"] == sum(len(s) for s in streams)
    rng_spans = [sum(s.name == "core.rng" for s in run) for run in (loop, tracer.spans)]
    assert rng_spans[0] == rng_spans[1] > scen.n_stations


def test_pretrain_spans_survive_the_lanes():
    # view 2's aggregator passes may run on pretrain's worker thread: every
    # step and every pass of both views is still recorded once
    gen = np.random.default_rng(0)
    unlabeled = ss.Dataset("unlabeled", gen.random((40, 3, 4)).astype(np.float32),
                           np.zeros((40, 3), bool), None, np.arange(40.0))
    fx = ss.build_extractor(3, 4, ss.RandomStream(0, "fx"), embedding_dim=3,
                            aggregator_hidden=(8, 4), encoder_widths=(5,))
    tc = ss.TrainConfig(1e-3, 16, 2, 1)  # 3 steps an epoch, never stops early
    with spans.Tracer("pretrain") as tracer:
        ss.pretrain(fx, unlabeled, 0.5, ss.VicregWeights(), tc, ss.RandomStream(0, "pt"))
    count = {name: sum(s.name == name for s in tracer.spans)
             for name in (spans.STEP, "crossl.aggregate", "crossl.aggregate_bwd")}
    assert count == {spans.STEP: 6, "crossl.aggregate": 12, "crossl.aggregate_bwd": 12}
