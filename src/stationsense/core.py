"""Deterministic RNG streams, station-mask sampling, the one-BLAS-thread
pin that fits and evaluations run under, and the two lanes they share.

Every stage (simulation, dataset building, training, evaluation) draws its
randomness from a labeled `RandomStream`, so a seed reproduces a run bitwise.
"""

from __future__ import annotations

import ctypes
import functools
import threading
import zlib
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager

import numpy as np


class RandomStream:
    """Deterministic, labeled RNG stream.

    Identical (seed, label) pairs reproduce identical draw sequences. Child
    streams are derived by extending the label, so one stage's consumption
    never perturbs another stage's draws.
    """

    def __init__(self, seed: int, label: str = ""):
        self.seed = int(seed)
        self.label = label
        self._gen = None  # built on first draw: most derived streams never draw

    def child(self, label: str) -> "RandomStream":
        sep = "/" if self.label else ""
        return RandomStream(self.seed, f"{self.label}{sep}{label}")

    @property
    def generator(self) -> np.random.Generator:
        if self._gen is None:
            key = zlib.crc32(self.label.encode("utf-8"))
            self._gen = np.random.default_rng(
                np.random.SeedSequence(entropy=self.seed, spawn_key=(key,))
            )
        return self._gen

    # convenience passthroughs
    def random(self, size=None):
        return self.generator.random(size)

    def normal(self, loc=0.0, scale=1.0, size=None):
        return self.generator.normal(loc, scale, size)

    def exponential(self, scale=1.0, size=None):
        return self.generator.exponential(scale, size)

    def uniform(self, low=0.0, high=1.0, size=None):
        return self.generator.uniform(low, high, size)

    def integers(self, low, high=None, size=None):
        return self.generator.integers(low, high, size)

    def permutation(self, n):
        return self.generator.permutation(n)

    def __repr__(self):
        return f"RandomStream(seed={self.seed}, label={self.label!r})"


def sample_mask_matrix(p_mask: float, n: int, n_stations: int, rng: RandomStream) -> np.ndarray:
    """(n, n_stations) boolean matrix of i.i.d. Bernoulli(p_mask) station
    masks. Consumes exactly n * n_stations draws from `rng`, row by row."""
    if not (0.0 <= p_mask <= 1.0):
        raise ValueError(f"p_mask must be in [0, 1], got {p_mask}")
    return rng.random((n, n_stations)) < p_mask


@functools.cache
def _openblas_threads():
    """(get, set) of the thread count of the OpenBLAS bundled with numpy,
    found through numpy's own extension module, or None for another BLAS."""
    try:
        lib = ctypes.CDLL(np._core._multiarray_umath.__file__)
        get, set_ = lib.scipy_openblas_get_num_threads64_, lib.scipy_openblas_set_num_threads64_
    except (OSError, AttributeError):
        return None
    get.argtypes, get.restype = [], ctypes.c_int
    set_.argtypes, set_.restype = [ctypes.c_int], None
    return get, set_


_pin_lock = threading.Lock()
_pin_depth = 0
_pin_restore = 1


@contextmanager
def _one_blas_thread():
    """Run the body with OpenBLAS on one thread. The setting is process-wide:
    it holds for every thread until the last of any nested or concurrent pins
    exits, which restores the count the first one saw. The fits and the
    availability evaluations run their second CPU as a lane of their own,
    which a second BLAS thread would only compete with. Without numpy's
    bundled OpenBLAS it does nothing. The thread count can change the last
    bits of some large float64 products; the fits and evaluations here give
    the same results pinned as at two threads."""
    global _pin_depth, _pin_restore
    blas = _openblas_threads()
    if blas is None:
        yield
        return
    get, set_ = blas
    with _pin_lock:
        if _pin_depth == 0:
            _pin_restore = get()
            set_(1)
        _pin_depth += 1
    try:
        yield
    finally:
        with _pin_lock:
            _pin_depth -= 1
            if _pin_depth == 0:
                set_(_pin_restore)


class _Lanes:
    """Two lanes, the calling thread and one worker thread, held for a `with`
    block: the one place the package starts a thread, and none outlives the
    block. `map(fn, items)` is `[fn(item) for item in items]`, bit for bit:
    both lanes take items from one queue and each result has its own slot.
    The caller takes back the worker's job if it has not started, so it never
    waits on an idle thread. The first item that raises stops both lanes from
    starting another; once the worker's current item is done, it is raised
    (if both lanes raise: an interrupt, else the earlier item's, as a loop)."""

    def __enter__(self):
        self._worker = ThreadPoolExecutor(1)
        return self

    def __exit__(self, *exc):
        self._worker.shutdown(cancel_futures=True)

    def map(self, fn, items):
        items = list(items)
        results, failures = [None] * len(items), []
        todo, take = iter(range(len(items))), threading.Lock()

        def lane():
            while not failures:
                with take:
                    i = next(todo, None)
                if i is None:
                    return
                try:
                    results[i] = fn(items[i])
                except BaseException as exc:
                    failures.append((i, exc))

        other = self._worker.submit(lane)
        lane()
        other.cancel() or other.result()  # take back a job the worker has not begun, or wait for it
        if failures:
            raise min(failures, key=lambda f: (isinstance(f[1], Exception), f[0]))[1]
        return results
