"""Shared fixtures: one small synthetic run reused across test modules, and
the fake executors that force each order of `core._Lanes`."""

import threading
from concurrent.futures import Future, ThreadPoolExecutor

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


# ---------------------------------------------------------------------------
# lanes: stand-ins for the one-worker ThreadPoolExecutor of core._Lanes,
# patched into `core` alone
# ---------------------------------------------------------------------------


class EagerWorker(ThreadPoolExecutor):
    """A lane that returns each future only once its worker has started it,
    so the calling thread never takes back a job the worker has not begun."""

    def submit(self, fn, *args, **kwargs):
        started = threading.Event()

        def run():
            started.set()
            return fn(*args, **kwargs)

        future = super().submit(run)
        assert started.wait(60)
        return future


class BusyWorker(ThreadPoolExecutor):
    """A lane whose worker is held busy until shutdown, so every job
    submitted to it is still pending when the calling thread takes it back."""

    def __init__(self, max_workers):
        super().__init__(max_workers)
        self.release = threading.Event()
        started = threading.Event()
        super().submit(lambda: (started.set(), self.release.wait(60)))
        assert started.wait(60)

    def shutdown(self, *args, **kwargs):
        self.release.set()
        super().shutdown(*args, **kwargs)


class InlineWorker(ThreadPoolExecutor):
    """A lane that runs each job inside submit, on the calling thread, so the
    job has finished before submit returns. It starts no thread."""

    def submit(self, fn, *args, **kwargs):
        future = Future()
        try:
            future.set_result(fn(*args, **kwargs))
        except Exception as exc:  # handed to the caller at result(), as by a real worker
            future.set_exception(exc)
        return future


class _DeferredFuture(Future):
    def __init__(self, job):
        super().__init__()
        self._job = job

    def result(self, timeout=None):
        if not self.done() and self.set_running_or_notify_cancel():
            try:
                self.set_result(self._job())
            except Exception as exc:
                self.set_exception(exc)
        return super().result(timeout)


class DeferredWorker(ThreadPoolExecutor):
    """A lane that runs each job only at result(), on the thread asking, so
    the job finishes after whatever its caller did in between. It starts no
    thread."""

    def submit(self, fn, *args, **kwargs):
        return _DeferredFuture(lambda: fn(*args, **kwargs))
