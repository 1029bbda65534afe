"""Synthetic multi-station CSI acquisition.

Generates a smooth pedestrian trajectory and per-station timestamped complex
CSI streams with Poisson frame timing, exponential on/off outages, and a
two-path (LOS + moving scatterer) channel model. The channel model takes an
(n, 2) batch of positions, one row per frame; there is no single-position
form. Stands in for private hardware datasets; the learning pipeline only
ever sees (station, timestamp, channel vector) triples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Tuple

import numpy as np

from .core import RandomStream, _Lanes

SPEED_OF_LIGHT = 299792458.0
_NOISE_ROWS = 512  # rows per noise block; numpy's draws do not depend on the split


@dataclass(frozen=True)
class OutageSpec:
    """Exponential on/off process: up durations ~ Exp(mean_gap_s), outage
    durations ~ Exp(mean_len_s). mean_len_s = 0 disables outages."""

    mean_gap_s: float = 60.0
    mean_len_s: float = 5.0

    def __post_init__(self):
        if self.mean_gap_s < 0 or self.mean_len_s < 0:
            raise ValueError(f"outage means must be >= 0, got {self.mean_gap_s} and {self.mean_len_s}")


def _default_station_positions(n: int, extent: Tuple[float, float]) -> tuple:
    """Evenly spread stations along the room perimeter. Each coordinate is
    clamped to the room, where a corner's rounding can land a hair outside."""
    x_max, y_max = extent
    perim = 2 * (x_max + y_max)
    pts = []
    for i in range(n):
        s = (i + 0.5) * perim / n
        if s < x_max:
            x, y = s, 0.0
        elif s < x_max + y_max:
            x, y = x_max, s - x_max
        elif s < 2 * x_max + y_max:
            x, y = 2 * x_max + y_max - s, y_max
        else:
            x, y = 0.0, perim - s
        pts.append((min(max(x, 0.0), x_max), min(max(y, 0.0), y_max)))
    return tuple(pts)


@dataclass(frozen=True)
class Scenario:
    n_stations: int = 8
    k_raw: int = 64
    # the carrier sits far below real WiFi bands on purpose: interference
    # fringes must vary on a scale coarser than the window-averaged motion
    # blur, or per-frame power normalization plus window averaging erases the
    # position signal and the regression task becomes unlearnable
    carrier_hz: float = 6e7
    bandwidth_hz: float = 4e7
    room_extent: Tuple[float, float] = (3.4, 3.0)
    ap_position: Tuple[float, float] = (1.7, 1.5)
    station_positions: tuple = None
    duration_s: float = 600.0
    mean_rate_hz: float = 20.0
    outage: OutageSpec = field(default_factory=OutageSpec)
    noise_std: float = 0.01
    scatter_coeff: float = 0.6

    def __post_init__(self):
        if self.n_stations < 1 or self.k_raw < 1:
            raise ValueError(f"n_stations and k_raw must be at least 1, got {self.n_stations} and {self.k_raw}")
        if self.station_positions is None:
            object.__setattr__(
                self,
                "station_positions",
                _default_station_positions(self.n_stations, self.room_extent),
            )
        if self.duration_s <= 0 or self.mean_rate_hz <= 0:
            raise ValueError("duration_s and mean_rate_hz must be positive")
        if self.noise_std < 0:
            raise ValueError(f"noise_std must be >= 0, got {self.noise_std}")
        if len(self.station_positions) != self.n_stations:
            raise ValueError("station_positions length must equal n_stations")
        for p in self.station_positions + (self.ap_position,):
            if not (0 <= p[0] <= self.room_extent[0] and 0 <= p[1] <= self.room_extent[1]):
                raise ValueError(f"position {p} outside room extent {self.room_extent}")

    def subcarrier_frequencies(self) -> np.ndarray:
        k = np.arange(self.k_raw)
        return self.carrier_hz + (k - (self.k_raw - 1) / 2) * (self.bandwidth_hz / self.k_raw)


@dataclass(frozen=True)
class Trajectory:
    """Smooth back-and-forth walk; position(t) in meters, label(t) = x/x_max.
    Each axis (row 0 x, row 1 y of the (2, 2) tables) is the room's centre
    plus a sum of two sinusoids."""

    extent: Tuple[float, float]  # the room's (x_max, y_max)
    duration_s: float
    amps: np.ndarray
    periods: np.ndarray
    phases: np.ndarray

    def position(self, t) -> np.ndarray:
        """(…, 2) positions for scalar or vector t."""
        t = np.asarray(t, dtype=float)
        return np.stack([
            0.5 * size + sum(a * np.sin(2 * np.pi * t / p + ph) for a, p, ph in zip(*axis))
            for size, *axis in zip(self.extent, self.amps, self.periods, self.phases)
        ], axis=-1)

    def label(self, t):
        pos = self.position(t)
        return pos[..., 0] / self.extent[0]


@dataclass(frozen=True)
class CsiStream:
    station: int
    timestamps: np.ndarray  # strictly increasing, seconds
    values: np.ndarray  # (n_frames, k_raw) complex

    def __len__(self):
        return len(self.timestamps)


def gen_trajectory(scenario: Scenario, rng: RandomStream) -> Trajectory:
    """Sum of low-frequency sinusoids with randomized phases/periods, confined
    to the room; the x span is kept well inside [0, x_max] so labels resemble
    the mid-room range of a real walk."""
    g = rng.child("trajectory")
    # dominant slow sweep plus a faster small wobble; amplitudes sum < half-extent
    amps = np.array([[0.34, 0.06], [0.25, 0.05]]) * np.array(scenario.room_extent)[:, None]
    periods, phases = [], []
    for ranges in (((35.0, 55.0), (11.0, 17.0)), ((50.0, 80.0), (13.0, 19.0))):  # x, then y
        periods.append([g.uniform(*r) for r in ranges])
        phases.append(g.uniform(0, 2 * np.pi, 2))
    return Trajectory(scenario.room_extent, scenario.duration_s, amps, np.array(periods), np.array(phases))


def channel_response(positions, station: int, scenario: Scenario) -> np.ndarray:
    """Two-path channel at (n, 2) pedestrian positions -> (n, k_raw): a fixed
    LOS path (AP -> station) plus a single path scattered by the pedestrian.

    h(k) = a_los * exp(-j 2 pi f_k tau_los) + a_sc * exp(-j 2 pi f_k tau_sc)

    Amplitudes follow inverse-distance path loss; the scattered path is
    attenuated by scenario.scatter_coeff and by the product of its two legs,
    so the envelope varies strongly and smoothly with pedestrian position.
    The output is built with no temporary of its size. A station outside
    [0, n_stations) raises ValueError."""
    if not 0 <= station < scenario.n_stations:
        raise ValueError(f"station {station} outside [0, {scenario.n_stations})")
    positions = np.asarray(positions, dtype=float)
    if positions.ndim != 2 or positions.shape[1] != 2:
        raise ValueError(f"positions must have shape (n, 2), got {positions.shape}")
    x_max, y_max = scenario.room_extent
    inside = (positions >= 0).all(axis=1) & (positions[:, 0] <= x_max) & (positions[:, 1] <= y_max)
    if not inside.all():
        raise ValueError(
            f"position {positions[~inside][0]} outside room extent {scenario.room_extent}"
        )
    ap = np.asarray(scenario.ap_position)
    st = np.asarray(scenario.station_positions[station])
    d_min = 0.1  # guard against singular path loss at contact
    d_los = max(float(np.linalg.norm(ap - st)), d_min)
    d1 = np.maximum(np.linalg.norm(positions - ap, axis=1), d_min)
    d2 = np.maximum(np.linalg.norm(positions - st, axis=1), d_min)
    a_los = 1.0 / d_los
    a_sc = scenario.scatter_coeff / (d1 * d2)
    tau_los = d_los / SPEED_OF_LIGHT
    tau_sc = (d1 + d2) / SPEED_OF_LIGHT
    f = scenario.subcarrier_frequencies()
    los = a_los * np.exp(-2j * np.pi * f * tau_los)
    # built in one buffer, in the order of the expression
    # los + a_sc * exp(-2j * pi * outer(tau_sc, f)), bit for bit
    out = np.empty((len(positions), len(f)), dtype=complex)
    np.outer(tau_sc, f, out=out)
    out *= -2j * np.pi
    np.exp(out, out=out)
    out *= a_sc[:, None]
    out += los
    return out


def _poisson_arrivals(rate_hz: float, duration_s: float, rng: RandomStream) -> np.ndarray:
    # draw in one chunk with headroom, extend in the unlikely tail case
    n_guess = int(rate_hz * duration_s * 1.2) + 50
    gaps = rng.exponential(1.0 / rate_hz, n_guess)
    t = np.cumsum(gaps)
    while t[-1] < duration_s:
        more = rng.exponential(1.0 / rate_hz, n_guess)
        t = np.concatenate([t, t[-1] + np.cumsum(more)])
    return t[t <= duration_s]


def _outage_intervals(outage: OutageSpec, duration_s: float, rng: RandomStream) -> list:
    """[(start, end)] outage intervals of an alternating on/off renewal
    process starting in the up state."""
    if outage.mean_len_s <= 0:
        return []
    intervals = []
    t = 0.0
    while t < duration_s:
        t += rng.exponential(outage.mean_gap_s)
        if t >= duration_s:
            break
        length = rng.exponential(outage.mean_len_s)
        intervals.append((t, min(t + length, duration_s)))
        t += length
    return intervals


def station_stream(scenario: Scenario, traj: Trajectory, d: int, rng: RandomStream) -> CsiStream:
    """Station d's stream, drawn from rng's child "station{d}": Poisson frame
    arrivals thinned by an exponential on/off outage process; frame values
    are the channel response at the pedestrian's position plus circular
    complex Gaussian noise.

    The values are built and noised in place in the array returned, the noise
    in blocks of _NOISE_ROWS rows, so a station in flight holds that
    array plus one float64 block of noise (256 KiB at 64 subcarriers). The
    real part is drawn over all rows first, then the imaginary part: the
    draws are those of two whole-array draws, bit for bit. A station that an
    outage empties keeps its k_raw columns: its values have shape (0, k_raw)."""
    g = rng.child(f"station{d}")
    t = _poisson_arrivals(scenario.mean_rate_hz, scenario.duration_s, g.child("arrivals"))
    for start, end in _outage_intervals(scenario.outage, scenario.duration_s, g.child("outage")):
        t = t[(t < start) | (t > end)]
    values = channel_response(traj.position(t), d, scenario)
    if scenario.noise_std > 0:
        s = scenario.noise_std / math.sqrt(2.0)
        gn = g.child("noise")
        for part in (values.real, values.imag):  # real part drawn first
            for i in range(0, len(part), _NOISE_ROWS):
                block = part[i : i + _NOISE_ROWS]
                block += gn.normal(0, s, block.shape)
    return CsiStream(station=d, timestamps=t, values=values)


def gen_csi_streams(scenario: Scenario, traj: Trajectory, rng: RandomStream) -> List[CsiStream]:
    """Every station's station_stream, in station order, as one
    `core._Lanes.map`. Station d draws only from rng's "station{d}" children,
    so the streams are a loop's, bit for bit. The peak is the streams
    returned plus two stations' noise blocks and per-frame vectors."""
    with _Lanes() as lanes:
        return lanes.map(lambda d: station_stream(scenario, traj, d, rng), range(scenario.n_stations))
