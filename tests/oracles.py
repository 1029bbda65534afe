"""Loop-level oracles for the batch code, written straight from the
definitions: one sample and one station at a time."""

import numpy as np


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
