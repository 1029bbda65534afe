"""Raw frame streams -> labeled / unlabeled sample sets.

Preprocessing order is fixed: subcarrier selection, per-frame power
normalization, then window averaging. Missing stations (no frames in the
window) become zero placeholders with an explicit flag.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
import zlib
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .synth import CsiStream, Scenario, Trajectory

DEGENERATE_POWER_FLOOR = 1e-12

# 64-subcarrier default: drop lower/upper guards and DC, keep 52.
DEFAULT_DROP_64 = frozenset(range(0, 6)) | {32} | frozenset(range(59, 64))


def default_keep_list(k_raw: int = 64) -> list:
    if k_raw == 64:
        return [i for i in range(64) if i not in DEFAULT_DROP_64]
    return list(range(k_raw))


@dataclass(frozen=True)
class WindowSpec:
    width_s: float
    rate_hz: float

    def __post_init__(self):
        if self.width_s <= 0 or self.rate_hz <= 0:
            raise ValueError("window width and rate must be positive")


def normalize_power(a: np.ndarray) -> Tuple[np.ndarray, bool]:
    """Scale so mean squared amplitude is 1. Returns (vector, degenerate).

    Near-zero-power input yields the all-zero vector with degenerate=True
    instead of dividing by ~0.
    """
    out, n_degenerate = _normalize_rows(np.asarray(a, dtype=float)[None, :])
    return out[0], n_degenerate == 1


def _normalize_rows(amps: np.ndarray) -> Tuple[np.ndarray, int]:
    """Scale each row of an (n, K) amplitude matrix to unit mean power; rows
    below the power floor become zero. Returns (matrix, degenerate row count)."""
    mean_power = np.mean(amps**2, axis=1)
    degenerate = mean_power < DEGENERATE_POWER_FLOOR
    scale = np.where(degenerate, 1.0, np.sqrt(mean_power))
    out = amps / scale[:, None]
    out[degenerate] = 0.0
    return out, int(degenerate.sum())


@dataclass(frozen=True)
class PreprocessedStream:
    """Selected + normalized amplitude time series for one station."""

    station: int
    timestamps: np.ndarray  # strictly increasing
    amps: np.ndarray  # (n_frames, K)
    n_degenerate: int = 0


def preprocess_stream(stream: CsiStream, keep: Sequence[int]) -> PreprocessedStream:
    """Complex magnitudes at the kept subcarrier indices, power-normalized per
    frame. Indices outside [0, k_raw) raise IndexError."""
    keep = np.asarray(keep, dtype=int)
    k_raw = stream.values.shape[-1]
    if keep.min() < 0 or keep.max() >= k_raw:
        raise IndexError(f"keep indices out of range for k_raw={k_raw}")
    if len(stream) == 0:
        return PreprocessedStream(stream.station, stream.timestamps, np.zeros((0, len(keep))))
    amps = np.abs(stream.values[:, keep])
    norm, n_deg = _normalize_rows(amps)
    return PreprocessedStream(stream.station, stream.timestamps, norm, n_deg)


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

    def subset(self, idx: np.ndarray, split: Optional[str] = None) -> "Dataset":
        return Dataset(
            split=split or self.split,
            x=self.x[idx],
            missing=self.missing[idx],
            labels=None if self.labels is None else self.labels[idx],
            timestamps=self.timestamps[idx],
            provenance=dict(self.provenance),
        )


def scenario_hash(scenario: Scenario) -> str:
    payload = json.dumps(
        {
            "n_stations": scenario.n_stations,
            "k_raw": scenario.k_raw,
            "carrier_hz": scenario.carrier_hz,
            "bandwidth_hz": scenario.bandwidth_hz,
            "room_extent": list(scenario.room_extent),
            "ap_position": list(scenario.ap_position),
            "station_positions": [list(p) for p in scenario.station_positions],
            "duration_s": scenario.duration_s,
            "mean_rate_hz": scenario.mean_rate_hz,
            "outage": [scenario.outage.mean_gap_s, scenario.outage.mean_len_s],
            "noise_std": scenario.noise_std,
            "scatter_coeff": scenario.scatter_coeff,
        },
        sort_keys=True,
    )
    return hashlib.md5(payload.encode()).hexdigest()


def _reference_centers(duration_s: float, spec: WindowSpec) -> np.ndarray:
    half = spec.width_s / 2
    n = int(np.floor((duration_s - spec.width_s) * spec.rate_hz)) + 1
    if n <= 0:
        raise ValueError("run too short for the window width")
    return half + np.arange(n) / spec.rate_hz


def _aggregate_all(
    pstreams: List[PreprocessedStream], centers: np.ndarray, spec: WindowSpec
) -> Tuple[np.ndarray, np.ndarray]:
    """(n, N_d, K) float32 window means and (n, N_d) missing flags for the
    windows around `centers`, which may come in any order."""
    n = len(centers)
    n_d = len(pstreams)
    k = pstreams[0].amps.shape[1]
    x = np.zeros((n, n_d, k), dtype=np.float32)
    missing = np.zeros((n, n_d), dtype=bool)
    for d, ps in enumerate(pstreams):
        lo, hi = window_bounds(ps.timestamps, centers, spec.width_s)
        missing[:, d] = hi == lo
        _scan_window_means(ps.amps, lo, hi - lo, x[:, d])
    return x, missing


def _scan_window_means(amps: np.ndarray, lo: np.ndarray, count: np.ndarray, out: np.ndarray) -> None:
    """out[i] = amps[lo[i] : lo[i] + count[i]].mean(axis=0) for every window
    with count[i] > 0, bit for bit; other rows of `out` are left alone.

    numpy's mean over axis 0 adds the float64 rows in order from the first,
    then divides by the count, so windows with the same first frame share one
    running sum. Step j adds row start + j - 1 to every distinct start that
    still needs it, then emits the windows of j frames. The working set is
    O(distinct starts * K). (With K == 1 numpy sums the single column
    pairwise instead, so for windows of 8 or more frames the float64 sums
    may differ in the last bits and the float32 result by one unit.)"""
    filled = np.flatnonzero(count)
    if filled.size == 0:
        return
    wins = filled[np.argsort(-count[filled], kind="stable")]  # longest window first
    neg_size = -count[wins]
    _, first = np.unique(lo[wins], return_index=True)
    first.sort()
    # each distinct start once, ordered by its longest window, so the starts
    # that still need a row at step j are a prefix
    starts, neg_need = lo[wins[first]], neg_size[first]
    row = np.empty(len(amps), dtype=np.intp)
    row[starts] = np.arange(len(starts))
    total = np.zeros((len(starts), amps.shape[1]))
    for j in range(1, count[wins[0]] + 1):
        active = np.searchsorted(neg_need, -j, "right")
        total[:active] += amps[starts[:active] + j - 1]
        done = wins[np.searchsorted(neg_size, -j) : np.searchsorted(neg_size, -j, "right")]
        out[done] = total[row[lo[done]]] / j


def split_counts(n: int, ratios: Tuple[float, float, float]) -> Tuple[int, int, int]:
    n_train = int(n * ratios[0] / sum(ratios))
    n_val = int(n * ratios[1] / sum(ratios))
    return n_train, n_val, n - n_train - n_val


def build_labeled_dataset(
    streams: List[CsiStream],
    traj: Trajectory,
    spec: WindowSpec,
    split_ratios: Tuple[float, float, float] = (7.0, 1.5, 1.5),
    keep: Optional[Sequence[int]] = None,
    provenance: Optional[dict] = None,
) -> Tuple[Dataset, Dataset, Dataset]:
    """Windowed, labeled samples split time-contiguously into train/val/test."""
    if not streams:
        raise ValueError("no streams")
    if keep is None:
        keep = default_keep_list(streams[0].values.shape[1] if len(streams[0]) else 64)
    pstreams = [preprocess_stream(s, keep) for s in streams]
    centers = _reference_centers(traj.duration_s, spec)
    x, missing = _aggregate_all(pstreams, centers, spec)
    labels = np.asarray(traj.label(centers), dtype=np.float32)
    prov = dict(provenance or {})
    prov["split_ratios"] = list(split_ratios)
    n_train, n_val, n_test = split_counts(len(centers), split_ratios)
    out = []
    bounds = [(0, n_train, "train"), (n_train, n_train + n_val, "val"), (n_train + n_val, len(centers), "test")]
    for a, b, name in bounds:
        out.append(
            Dataset(
                split=name,
                x=x[a:b],
                missing=missing[a:b],
                labels=labels[a:b],
                timestamps=centers[a:b],
                provenance=dict(prov),
            )
        )
    return tuple(out)


def build_unlabeled_dataset(
    streams: List[CsiStream],
    spec: WindowSpec,
    label_rate_hz: float,
    train_end_s: float,
    keep: Optional[Sequence[int]] = None,
    provenance: Optional[dict] = None,
) -> Dataset:
    """Unlabeled samples at the (higher) SSL rate, restricted to the
    training-time span to avoid leakage into val/test ranges."""
    if spec.rate_hz <= label_rate_hz:
        raise ValueError(
            f"unlabeled rate {spec.rate_hz} Hz must exceed label rate {label_rate_hz} Hz"
        )
    if keep is None:
        keep = default_keep_list(streams[0].values.shape[1] if len(streams[0]) else 64)
    pstreams = [preprocess_stream(s, keep) for s in streams]
    centers = _reference_centers(train_end_s, spec)
    x, missing = _aggregate_all(pstreams, centers, spec)
    return Dataset(
        split="unlabeled",
        x=x,
        missing=missing,
        labels=None,
        timestamps=centers,
        provenance=dict(provenance or {}),
    )


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

_MAGIC = b"MSDS"
_FORMAT_VERSION = 1
_SPLIT_CODES = {"train": 0, "val": 1, "test": 2, "unlabeled": 3}
_SPLIT_NAMES = {v: k for k, v in _SPLIT_CODES.items()}


class DatasetFormatError(Exception):
    pass


_HEADER = struct.Struct("<IIIQBB16sQ")
_IO_CHUNK_BYTES = 1 << 22


def _record_dtype(n_d: int, k: int, labeled: bool) -> np.dtype:
    """One sample's record: amplitudes, missing flags, then the label if any."""
    fields = [("x", "<f4", (n_d, k)), ("m", "u1", (n_d,))]
    if labeled:
        fields.append(("y", "<f4"))
    return np.dtype(fields)


def _write(f, part, crc: int) -> int:
    f.write(part)
    return zlib.crc32(part, crc)


def _read_into(f, view: memoryview, crc: int) -> int:
    if f.readinto(view) != len(view):
        raise DatasetFormatError("truncated dataset file")
    return zlib.crc32(view, crc)


def save_dataset(d: Dataset, path) -> None:
    """Versioned binary file: header, float32 records (amplitudes, missing
    flags, optional label per sample), timestamps, trailing CRC32. Records
    are encoded _IO_CHUNK_BYTES at a time, so the file is never held in
    memory."""
    shash = bytes.fromhex(d.provenance.get("scenario_hash", "0" * 32))
    seed = int(d.provenance.get("seed", 0))
    header = _MAGIC + _HEADER.pack(
        _FORMAT_VERSION,
        d.n_stations,
        d.k,
        d.n,
        1 if d.labeled else 0,
        _SPLIT_CODES.get(d.split, 3),
        shash,
        seed,
    )
    rec = _record_dtype(d.n_stations, d.k, d.labeled)
    step = max(1, _IO_CHUNK_BYTES // rec.itemsize)
    with open(path, "wb") as f:
        crc = _write(f, header, 0)
        for lo in range(0, d.n, step):
            chunk = np.empty(min(step, d.n - lo), rec)
            chunk["x"] = d.x[lo : lo + step]
            chunk["m"] = d.missing[lo : lo + step]
            if d.labeled:
                chunk["y"] = d.labels[lo : lo + step]
            crc = _write(f, chunk, crc)
        crc = _write(f, np.ascontiguousarray(d.timestamps, dtype="<f8"), crc)
        f.write(struct.pack("<I", crc))


def load_dataset(path) -> Dataset:
    """Read a save_dataset file. The file size is checked against the header
    before any record is read; records are then decoded _IO_CHUNK_BYTES at a
    time straight into the returned arrays, with a running CRC32."""
    head = len(_MAGIC) + _HEADER.size
    with open(path, "rb") as f:
        size = os.fstat(f.fileno()).st_size
        header = f.read(head)
        if size < head + 4 or header[:4] != _MAGIC:
            raise DatasetFormatError("not a dataset file (bad magic or truncated)")
        version, n_d, k, n, labeled, split_code, shash, seed = _HEADER.unpack_from(header, 4)
        if version != _FORMAT_VERSION:
            raise DatasetFormatError(f"unsupported format version {version}")
        rec = _record_dtype(n_d, k, bool(labeled))
        payload, expected = size - head - 4, n * rec.itemsize + n * 8
        if payload != expected:
            raise DatasetFormatError(
                f"payload size {payload} does not match header (expected {expected})"
            )
        x = np.empty((n, n_d, k), np.float32)
        missing = np.empty((n, n_d), bool)
        labels = np.empty(n, np.float32) if labeled else None
        timestamps = np.empty(n, "<f8")
        step = max(1, _IO_CHUNK_BYTES // rec.itemsize)
        buf = memoryview(bytearray(min(n, step) * rec.itemsize))
        crc = zlib.crc32(header)
        for lo in range(0, n, step):
            view = buf[: min(step, n - lo) * rec.itemsize]
            crc = _read_into(f, view, crc)
            chunk = np.frombuffer(view, rec)
            x[lo : lo + step] = chunk["x"]
            missing[lo : lo + step] = chunk["m"]
            if labeled:
                labels[lo : lo + step] = chunk["y"]
        crc = _read_into(f, memoryview(timestamps).cast("B"), crc)
        (crc_stored,) = struct.unpack("<I", f.read(4))
    if crc != crc_stored:
        raise DatasetFormatError("checksum failure")
    return Dataset(
        split=_SPLIT_NAMES.get(split_code, "unlabeled"),
        x=x,
        missing=missing,
        labels=labels,
        timestamps=timestamps,
        provenance={"scenario_hash": shash.hex(), "seed": seed},
    )


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
