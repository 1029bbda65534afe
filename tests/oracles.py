"""Loop-level oracles for the batch code, written straight from the
definitions: one sample and one station at a time."""

import numpy as np

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
