"""Raw frame streams -> labeled / unlabeled sample sets.

Preprocessing order is fixed: subcarrier selection, per-frame power
normalization, then window averaging. Missing stations (no frames in the
window) become zero placeholders with an explicit flag.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import astuple, dataclass, field, fields, is_dataclass
from typing import Callable, List, Optional, Sequence, Tuple, get_type_hints

import numpy as np

from .core import RandomStream, _Lanes
from .nnkit import read_bundle, write_bundle
from .synth import CsiStream, Scenario, Trajectory, gen_trajectory, station_stream

DEGENERATE_POWER_FLOOR = 1e-12

# 64-subcarrier default: drop lower/upper guards and DC, keep 52.
DEFAULT_DROP_64 = frozenset(range(0, 6)) | {32} | frozenset(range(59, 64))


def default_keep_list(k_raw: int = Scenario.k_raw) -> list:
    if k_raw == 64:
        return [i for i in range(64) if i not in DEFAULT_DROP_64]
    return list(range(k_raw))


def split_counts(n: int, ratios: Tuple[float, float, float]) -> Tuple[int, int, int]:
    """Train, val and test sizes of n windows split by `ratios`, which must be
    >= 0 with a positive sum, or ValueError is raised."""
    if min(ratios) < 0 or sum(ratios) <= 0:
        raise ValueError(f"split ratios must be >= 0 with a positive sum, got {ratios}")
    n_train = int(n * ratios[0] / sum(ratios))
    n_val = int(n * ratios[1] / sum(ratios))
    return n_train, n_val, n - n_train - n_val


@dataclass(frozen=True)
class WindowSpec:
    width_s: float
    rate_hz: float

    def __post_init__(self):
        if self.width_s <= 0 or self.rate_hz <= 0:
            raise ValueError("window width and rate must be positive")


@dataclass(frozen=True)
class WindowingConfig:
    width_s: float = 2.0
    label_rate_hz: float = 30.0
    ssl_rate_hz: float = 160.0
    split_ratios: Tuple[float, float, float] = (7.0, 1.5, 1.5)

    def __post_init__(self):
        self.labeled_spec()  # WindowSpec checks the width and each rate
        self.unlabeled_spec()
        if self.ssl_rate_hz <= self.label_rate_hz:
            raise ValueError(f"SSL rate {self.ssl_rate_hz} Hz must exceed label rate {self.label_rate_hz} Hz")
        split_counts(0, self.split_ratios)  # checks the ratios

    def labeled_spec(self) -> WindowSpec:
        return WindowSpec(self.width_s, self.label_rate_hz)

    def unlabeled_spec(self) -> WindowSpec:
        return WindowSpec(self.width_s, self.ssl_rate_hz)


def _normalize_rows(amps: np.ndarray) -> None:
    """Scale each row of an (n, K) float64 amplitude matrix to unit mean
    power, in place; rows below the power floor become zero."""
    mean_power = np.mean(amps**2, axis=1)
    degenerate = mean_power < DEGENERATE_POWER_FLOOR
    scale = np.where(degenerate, 1.0, np.sqrt(mean_power))
    amps /= scale[:, None]
    amps[degenerate] = 0.0


@dataclass(frozen=True)
class PreprocessedStream:
    """Selected + normalized amplitude time series for one station."""

    timestamps: np.ndarray  # strictly increasing
    amps: np.ndarray  # (n_frames, K)


def preprocess_stream(stream: CsiStream, keep: Sequence[int]) -> PreprocessedStream:
    """Complex magnitudes at the kept subcarrier indices, power-normalized per
    frame, as a row-major (C-contiguous) array. Indices outside [0, k_raw)
    raise IndexError."""
    keep = np.asarray(keep, dtype=int)
    k_raw = stream.values.shape[-1]
    if keep.min() < 0 or keep.max() >= k_raw:
        raise IndexError(f"keep indices out of range for k_raw={k_raw}")
    if len(stream) == 0:
        return PreprocessedStream(stream.timestamps, np.zeros((0, len(keep))))
    # magnitudes first, then the selection: no complex copy of the kept columns
    amps = np.abs(stream.values)[:, keep]
    _normalize_rows(amps)
    # the column selection is column-major; the row-mean above sums in that
    # order, and the window scan reads whole rows, so copy only afterwards
    return PreprocessedStream(stream.timestamps, np.ascontiguousarray(amps))


def window_bounds(timestamps: np.ndarray, centers: np.ndarray, width_s: float):
    """Index ranges [lo, hi) of frames inside each inclusive window."""
    lo = np.searchsorted(timestamps, centers - width_s / 2, side="left")
    hi = np.searchsorted(timestamps, centers + width_s / 2, side="right")
    return lo, hi


@dataclass
class Dataset:
    """Array-backed sample collection for one split."""

    split: str  # train | val | test | unlabeled
    x: np.ndarray  # (n, N_d, K) float32
    missing: np.ndarray  # (n, N_d) bool
    labels: Optional[np.ndarray]  # (n,) float32 or None
    timestamps: np.ndarray  # (n,) float64 reference timestamps
    provenance: dict = field(default_factory=dict)

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def n_stations(self) -> int:
        return self.x.shape[1]

    @property
    def k(self) -> int:
        return self.x.shape[2]

    @property
    def labeled(self) -> bool:
        return self.labels is not None

    def subset(self, idx: np.ndarray) -> "Dataset":
        return Dataset(
            split=self.split,
            x=self.x[idx],
            missing=self.missing[idx],
            labels=None if self.labels is None else self.labels[idx],
            timestamps=self.timestamps[idx],
            provenance=dict(self.provenance),
        )


def scenario_hash(scenario: Scenario) -> str:
    """Digest of every field of the scenario. The int-typed fields are hashed
    as ints and every other number as a float, so 600 and 600.0 give one
    hash; the outage is the list of its values."""
    types = get_type_hints(Scenario)

    def plain(value, hint=None):
        if is_dataclass(value):
            value = astuple(value)
        if isinstance(value, tuple):
            return [plain(v) for v in value]
        return int(value) if hint is int else float(value)

    payload = {f.name: plain(getattr(scenario, f.name), types[f.name]) for f in fields(Scenario)}
    return hashlib.md5(json.dumps(payload, sort_keys=True).encode()).hexdigest()


def _reference_centers(duration_s: float, spec: WindowSpec) -> np.ndarray:
    half = spec.width_s / 2
    n = int(np.floor((duration_s - spec.width_s) * spec.rate_hz)) + 1
    if n <= 0:
        raise ValueError("run too short for the window width")
    return half + np.arange(n) / spec.rate_hz


def _aggregate_all(
    station: Callable[[int], PreprocessedStream], n_d: int, k: int, centers: np.ndarray, spec: WindowSpec,
    ahead: Optional[Callable[[int], None]] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """(n, N_d, K) float32 window means and (n, N_d) missing flags for the
    windows around `centers`, which may come in any order. `station(d)` gives
    station d's K-column stream, dropped before the next call, so the peak is
    the outputs plus one station's working set. Given `ahead`, windowing
    station d and ahead(d + 1), but for the last d, are one `core._Lanes.map`;
    without it no thread starts (one raised `acquire`'s peak RSS by 8 MB).
    The outputs come first: made after station 0's freed temporaries, they
    raised a 16-station run's peak RSS by 4-9 MB."""
    x = np.zeros((len(centers), n_d, k), dtype=np.float32)
    missing = np.zeros((len(centers), n_d), dtype=bool)

    def window(d, ps):
        lo, hi = window_bounds(ps.timestamps, centers, spec.width_s)
        missing[:, d] = hi == lo
        _scan_window_means(ps.amps, lo, hi - lo, x[:, d])

    with _Lanes() as lanes:
        for d in range(n_d):
            ps = station(d)
            if ahead is None:
                window(d, ps)
            else:
                lanes.map(lambda job: job(), [lambda: window(d, ps), lambda: d + 1 < n_d and ahead(d + 1)])
            del ps  # free this station's amplitudes before the next is built
    return x, missing


def _window_raw(streams: List[CsiStream], centers, spec: WindowSpec):
    """_aggregate_all over raw streams, at the keep list of their raw column
    count, which a stream an outage emptied keeps."""
    keep = default_keep_list(streams[0].values.shape[-1])
    return _aggregate_all(lambda d: preprocess_stream(streams[d], keep), len(streams), len(keep), centers, spec)


# distinct window starts scanned together; a block's running sums stay in cache
_SCAN_TILE = 512


def _scan_window_means(amps: np.ndarray, lo: np.ndarray, count: np.ndarray, out: np.ndarray) -> None:
    """out[i] = amps[lo[i] : lo[i] + count[i]].mean(axis=0) for every window
    with count[i] > 0, bit for bit; other rows of `out` are left alone.

    numpy's mean over axis 0 adds the float64 rows in order from the first,
    then divides by the count, so windows with the same first frame share one
    running sum. The distinct starts are scanned in position order, in blocks
    of _SCAN_TILE: step j adds row start + j - 1 to each sum of the block,
    then emits the block's windows of j frames. A block whose starts span at
    most twice as many frames as it has starts keeps one sum per frame of the
    span and adds a contiguous slice of `amps`; a sparser block gathers its
    starts' rows. Rows added after a sum's last window is emitted, or to a
    frame no window starts at, are never read. The working set is
    O(_SCAN_TILE * K). (With K == 1 numpy sums the single column
    pairwise instead, so for windows of 8 or more frames the float64 sums
    may differ in the last bits and the float32 result by one unit.)"""
    filled = np.flatnonzero(count)
    if filled.size == 0:
        return
    starts, start_of = np.unique(lo[filled], return_inverse=True)
    block_of = start_of // _SCAN_TILE
    order = np.lexsort((count[filled], block_of))  # by block, shortest window first
    wins, start_of, size = filled[order], start_of[order], count[filled][order]
    edges = np.r_[0, np.bincount(block_of).cumsum()]  # block b's windows: edges[b]:edges[b + 1]
    for b in range(len(edges) - 1):
        block = starts[b * _SCAN_TILE : (b + 1) * _SCAN_TILE]
        w = slice(edges[b], edges[b + 1])
        s0, span = block[0], block[-1] - block[0] + 1
        dense = span <= 2 * len(block)
        slot = start_of[w] - b * _SCAN_TILE
        if dense:
            slot = block[slot] - s0
        bw, bsize = wins[w], size[w]
        # windows of j frames are bw[by_size[j - 1] : by_size[j]]
        by_size = np.searchsorted(bsize, np.arange(1, bsize[-1] + 2))
        total = np.zeros((span if dense else len(block), amps.shape[1]))
        for j in range(1, bsize[-1] + 1):
            if dense:
                rows = amps[s0 + j - 1 : s0 + j - 1 + span]  # clipped at the last row
                total[: len(rows)] += rows
            else:
                m = np.searchsorted(block, len(amps) - j + 1)  # starts whose row j exists
                total[:m] += amps[block[:m] + j - 1]
            a, c = by_size[j - 1], by_size[j]
            if a < c:
                out[bw[a:c]] = total[slot[a:c]] / j


def _labeled_splits(x, missing, centers, traj, split_ratios) -> Tuple[Dataset, Dataset, Dataset]:
    """Train, val and test: time-contiguous views of the first len(centers)
    rows of x and missing, labeled from `traj`."""
    labels = np.asarray(traj.label(centers), dtype=np.float32)
    n_train, n_val, _ = split_counts(len(centers), split_ratios)
    cuts = (0, n_train, n_train + n_val, len(centers))
    return tuple(
        Dataset(name, x[a:b], missing[a:b], labels[a:b], centers[a:b], {"split_ratios": list(split_ratios)})
        for name, a, b in zip(("train", "val", "test"), cuts, cuts[1:])
    )


def build_labeled_dataset(
    streams: List[CsiStream],
    traj: Trajectory,
    spec: WindowSpec,
    split_ratios: Tuple[float, float, float] = WindowingConfig.split_ratios,
) -> Tuple[Dataset, Dataset, Dataset]:
    """Windowed, labeled samples split time-contiguously into train/val/test.
    Bad split ratios raise ValueError before any station is windowed."""
    if not streams:
        raise ValueError("no streams")
    centers = _reference_centers(traj.duration_s, spec)
    split_counts(len(centers), split_ratios)
    x, missing = _window_raw(streams, centers, spec)
    return _labeled_splits(x, missing, centers, traj, split_ratios)


def build_unlabeled_dataset(
    streams: List[CsiStream],
    spec: WindowSpec,
    label_rate_hz: float,
    train_end_s: float,
) -> Dataset:
    """Unlabeled samples at the (higher) SSL rate, restricted to the
    training-time span to avoid leakage into val/test ranges."""
    if spec.rate_hz <= label_rate_hz:
        raise ValueError(
            f"unlabeled rate {spec.rate_hz} Hz must exceed label rate {label_rate_hz} Hz"
        )
    centers = _reference_centers(train_end_s, spec)
    x, missing = _window_raw(streams, centers, spec)
    return Dataset("unlabeled", x, missing, None, centers)


def _simulation(scenario: Scenario, seed: int):
    """Run `seed`'s trajectory and station(d), station d's raw stream: one RNG root per run."""
    rng = RandomStream(seed, "sim")
    traj = gen_trajectory(scenario, rng)
    return traj, lambda d: station_stream(scenario, traj, d, rng)


def build_datasets(
    scenario: Scenario, windowing: WindowingConfig, seed: int
) -> Tuple[Dataset, Dataset, Dataset, Dataset]:
    """Train, val, test and unlabeled splits of simulated run `seed`. The
    unlabeled windows end half a window after the last train center, so both
    sets of centers are known up front: each station is simulated,
    preprocessed and windowed once at both, then dropped. Station d + 1 is
    simulated while station d is windowed, once d's raw stream has been
    preprocessed and dropped, so at most one raw stream is held. A run with
    no train window raises ValueError before any station is simulated."""
    spec = windowing.labeled_spec()
    labeled = _reference_centers(scenario.duration_s, spec)
    n_train = split_counts(len(labeled), windowing.split_ratios)[0]
    if n_train == 0:
        raise ValueError(f"{len(labeled)} labeled windows leave the train split empty")
    unlabeled = _reference_centers(labeled[n_train - 1] + spec.width_s / 2, windowing.unlabeled_spec())
    traj, stream = _simulation(scenario, seed)
    keep, n = default_keep_list(scenario.k_raw), len(labeled)
    raw = [stream(0)]  # the one raw stream held: station d + 1's is simulated while d is windowed
    x, missing = _aggregate_all(lambda d: preprocess_stream(raw.pop(), keep), scenario.n_stations, len(keep),
                                np.concatenate([labeled, unlabeled]), spec, lambda d: raw.append(stream(d)))
    splits = _labeled_splits(x, missing, labeled, traj, windowing.split_ratios)
    return splits + (Dataset("unlabeled", x[n:], missing[n:], None, unlabeled),)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

_SPLITS = ("train", "val", "test", "unlabeled")
# a dataset file's arrays: each one's dtype and how many of x's (n, N_d, K) axes it has
_ARRAYS = {"x": ("<f4", 3), "missing": ("|b1", 2), "timestamps": ("<f8", 1), "labels": ("<f4", 1)}


class DatasetFormatError(Exception):
    pass


def save_dataset(d: Dataset, path) -> None:
    """One nnkit bundle: a manifest with the split and the provenance, and the
    arrays named in _ARRAYS. Numpy scalars in the provenance are stored as
    their Python values; any other value that is not JSON raises ValueError
    naming its key, before the file is opened."""
    if d.split not in _SPLITS:
        raise ValueError(f"cannot store split {d.split!r}, expected one of {_SPLITS}")
    provenance = {}
    for key, value in d.provenance.items():
        try:  # np.generic.item gives a numpy scalar's Python value, and raises TypeError on the rest
            provenance[key] = json.loads(json.dumps(value, default=np.generic.item))
        except (TypeError, ValueError) as exc:
            raise ValueError(f"provenance {key!r} is not JSON: {exc}") from None
    arrays = {name: np.asarray(getattr(d, name), dtype) for name, (dtype, _) in _ARRAYS.items()
              if getattr(d, name) is not None}
    write_bundle(path, {"type": "dataset", "split": d.split, "provenance": provenance}, arrays)


def load_dataset(path) -> Dataset:
    """Read a save_dataset file into private, writable arrays. Any other file,
    and a dataset whose split, arrays, dtypes or shapes are off, raises
    DatasetFormatError."""
    manifest, arrays = read_bundle(path, DatasetFormatError)
    if manifest.get("type") != "dataset":
        raise DatasetFormatError(f"expected a dataset file, found {manifest.get('type')!r}")
    if manifest.get("split") not in _SPLITS:
        raise DatasetFormatError(f"unknown split {manifest.get('split')!r}")
    provenance = manifest.get("provenance", {})
    if not isinstance(provenance, dict):
        raise DatasetFormatError(f"provenance {provenance!r} is not a JSON object")
    if not {"x", "missing", "timestamps"} <= set(arrays) <= set(_ARRAYS):
        raise DatasetFormatError(f"arrays {sorted(arrays)}, expected {sorted(_ARRAYS)} (labels optional)")
    x = arrays["x"]
    for name, a in arrays.items():
        dtype, axes = _ARRAYS[name]
        if a.dtype != dtype or a.ndim != axes or a.shape != x.shape[:axes]:
            raise DatasetFormatError(
                f"array {name!r}: {a.dtype.str} {a.shape}, expected {dtype} {x.shape[:axes]}")
    return Dataset(manifest["split"], x, arrays["missing"], arrays.get("labels"), arrays["timestamps"],
                   provenance)


def export_csv(d: Dataset, path) -> None:
    """Flat CSV for inspection: timestamp, label, missing flags, amplitudes."""
    cols = ["timestamp"]
    if d.labeled:
        cols.append("label")
    cols += [f"missing_{i}" for i in range(d.n_stations)]
    cols += [f"s{di}_k{ki}" for di in range(d.n_stations) for ki in range(d.k)]
    with open(path, "w") as f:
        f.write(",".join(cols) + "\n")
        for i in range(d.n):
            row = [repr(float(d.timestamps[i]))]
            if d.labeled:
                row.append(repr(float(d.labels[i])))
            row += [str(int(v)) for v in d.missing[i]]
            row += [repr(float(v)) for v in d.x[i].ravel()]
            f.write(",".join(row) + "\n")
