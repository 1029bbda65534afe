"""Shared fixtures: one small synthetic run reused across test modules."""

import numpy as np
import pytest

import stationsense as ss


@pytest.fixture(scope="session")
def small_run():
    """120 s, 8-station synthetic run with outages enabled."""
    rng = ss.RandomStream(0, "synth")
    scen = ss.Scenario(duration_s=120.0)
    traj = ss.gen_trajectory(scen, rng.child("traj"))
    streams = ss.gen_csi_streams(scen, traj, rng.child("streams"))
    return scen, traj, streams


@pytest.fixture(scope="session")
def small_datasets(small_run):
    scen, traj, streams = small_run
    train, val, test = ss.build_labeled_dataset(streams, traj, ss.WindowSpec(2.0, 4.0))
    unlabeled = ss.build_unlabeled_dataset(
        streams, ss.WindowSpec(2.0, 6.0), 4.0, float(train.timestamps[-1]) + 1.0
    )
    return train, val, test, unlabeled


@pytest.fixture()
def rng():
    return ss.RandomStream(0, "test")


def random_batch(gen: np.random.Generator, n=1, n_d=8, k=52, missing=()):
    """(n, n_d, k) float32 amplitudes and the (n, n_d) missing flags; the
    stations listed in `missing` are zero rows flagged missing in every sample."""
    x = gen.random((n, n_d, k)).astype(np.float32)
    flags = np.zeros((n, n_d), bool)
    flags[:, list(missing)] = True
    x[flags] = 0.0
    return x, flags
