"""Loop-level oracles for the batch code, written straight from the
definitions: one sample and one station at a time."""

import numpy as np

from stationsense.nnkit import MlpStack
from stationsense.pipeline import window_bounds


def mask_set_draws(p_mask, n_stations, rng):
    """One i.i.d. Bernoulli(p_mask) station mask: one uniform draw per
    station, in station order; a station is masked when its draw is < p_mask."""
    u = rng.random(n_stations)
    return {d for d in range(n_stations) if u[d] < p_mask}


def sma_augment_one(x, p_mask, rng):
    """Station-wise masking of one (N_d, K) sample: every masked station's
    row becomes the all-zero placeholder."""
    out = np.array(x, copy=True)
    for d in mask_set_draws(p_mask, out.shape[0], rng):
        out[d] = 0.0
    return out


def aggregate_windows_loop(pstreams, centers, spec):
    """Window aggregation one window and one station at a time: each window
    is numpy's mean of its frames' rows, missing when it holds no frame."""
    n, n_d, k = len(centers), len(pstreams), pstreams[0].amps.shape[1]
    x = np.zeros((n, n_d, k), dtype=np.float32)
    missing = np.zeros((n, n_d), dtype=bool)
    for d, ps in enumerate(pstreams):
        lo, hi = window_bounds(ps.timestamps, centers, spec.width_s)
        for i in range(n):
            if hi[i] > lo[i]:
                x[i, d] = ps.amps[lo[i] : hi[i]].copy().mean(axis=0)
            else:
                missing[i, d] = True
    return x, missing


def station_stacks(encoders):
    """Independent per-station MlpStack copies of a GroupedStack: same
    manifests, copied parameters and buffers."""
    params, buffers = encoders.params(), encoders.buffers()
    stacks = []
    for manifest in encoders.manifests():
        stack = MlpStack.from_manifest(manifest)
        for layer in stack.layers:
            for k in layer.params:
                layer.params[k] = params[f"{layer.name}.{k}"].copy()
            for k in layer.buffers:
                layer.buffers[k] = buffers[f"{layer.name}.{k}"].copy()
        stacks.append(stack)
    return stacks


def encode_loop(stacks, xb, mode, rng):
    """The per-station encoder loop: station d's own stack on xb[:, d, :],
    drawing from rng.child(f"enc{d}"); embeddings stacked to (n, N_d, e)."""
    outs, caches = [], []
    for d, enc in enumerate(stacks):
        y, cache = enc.forward(xb[:, d, :], mode, None if rng is None else rng.child(f"enc{d}"))
        outs.append(y)
        caches.append(cache)
    return np.stack(outs, axis=1), caches


def encode_backward_loop(stacks, caches, dq):
    """Parameter gradients of encode_loop, one station at a time."""
    grads = {}
    for d, enc in enumerate(stacks):
        grads.update(enc.backward(caches[d], dq[:, d, :])[1])
    return grads


def ensemble_predict_loop(members, xb):
    """Mean of each member's prediction on its own station."""
    xb = np.asarray(xb, dtype=np.float32)
    return np.mean([m.predict(xb[:, d : d + 1, :]) for d, m in enumerate(members)], axis=0)
