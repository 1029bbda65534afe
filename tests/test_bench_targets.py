"""Every function and method the benchmark's traced pass wraps must exist:
a target that no longer resolves silently reads 0 in the per-layer metrics."""

import sys
from pathlib import Path

import numpy as np

import stationsense as ss

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
