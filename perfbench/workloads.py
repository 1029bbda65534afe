"""The benchmark's workloads, each driven through stationsense's public API.

A workload has three parts:

- `setup(seed, workdir)` makes everything the timed pass needs. Its inputs
  come from the seed alone, so one seed always gives the same inputs.
- `run(state, ops)` is one timed pass. It returns a `Pass` with its outputs,
  the wall time of each stage, and the work each stage did.
- `check(state, out)` verifies the pass's outputs and returns a list of
  problems, empty when it is correct.

Every pass repeats the same seeded computation, so `Pass.fingerprint` must
be bitwise identical from one pass to the next within a run.

Two known defects are avoided on purpose. The CLI ignores
`training.encoder_widths`, so nothing here goes through it. The cache of
`harness.pretrain_extractor` is keyed by `(seed, p_mask)` alone, so
pre-training is called directly and each stage is timed by its own calls.
"""

from __future__ import annotations

import math
import time
import zlib
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Dict, List

import numpy as np

import stationsense as ss
from stationsense.harness import EXHAUSTIVE_COMBINATION_CAP


class Ops:
    """Counts the public calls a pass makes; a call that raises is failed.

    With a `probe` (a function returning the seconds of a fixed reference
    computation), every call runs between two probes, and `norm` sums each
    call's seconds divided by the mean of its two probes' seconds: the pass
    time in units of the probe, at the host's speed of that moment. A call
    that follows the previous one at once reuses that call's second probe.
    `clock` is `time.perf_counter` stopped while a probe runs, so stage and
    pass times leave the probes out."""

    REUSE_WITHIN_S = 0.01

    def __init__(self, probe=None):
        self.attempted = 0
        self.failed = 0
        self.probe = probe
        self.probes: List[float] = []
        self.norm = 0.0
        self._paused = 0.0
        self._probe_end = -math.inf

    def clock(self) -> float:
        return time.perf_counter() - self._paused

    def _probe(self) -> float:
        t0 = time.perf_counter()
        self.probes.append(self.probe())
        self._probe_end = time.perf_counter()
        self._paused += self._probe_end - t0
        return self.probes[-1]

    def __call__(self, fn, *args, **kwargs):
        self.attempted += 1
        before = 0.0
        if self.probe is not None:
            recent = time.perf_counter() - self._probe_end < self.REUSE_WITHIN_S
            before = self.probes[-1] if recent else self._probe()
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except Exception:
            self.failed += 1
            raise
        if self.probe is not None:
            seconds = time.perf_counter() - t0
            self.norm += seconds / ((before + self._probe()) / 2)
        return result


@dataclass
class Pass:
    clock: Callable[[], float] = time.perf_counter
    stage_s: Dict[str, float] = field(default_factory=dict)
    work: Dict[str, float] = field(default_factory=dict)
    quality: Dict[str, float] = field(default_factory=dict)
    fingerprint: tuple = ()
    outputs: dict = field(default_factory=dict)

    @contextmanager
    def stage(self, name: str):
        t0 = self.clock()
        try:
            yield
        finally:
            self.stage_s[name] = self.stage_s.get(name, 0.0) + self.clock() - t0


@dataclass
class Inputs:
    train: ss.Dataset
    test: ss.Dataset
    unlabeled: ss.Dataset


def make_inputs(seed: int, scenario: ss.Scenario, windowing: ss.WindowingConfig) -> Inputs:
    """Train, test and unlabeled splits of one simulated run, built the way
    the acceptance suite builds its desk runs."""
    rng = ss.RandomStream(seed, "sim")
    traj = ss.gen_trajectory(scenario, rng.child("traj"))
    streams = ss.gen_csi_streams(scenario, traj, rng.child("streams"))
    spec = windowing.labeled_spec()
    train, _, test = ss.build_labeled_dataset(streams, traj, spec, windowing.split_ratios)
    train_end = float(train.timestamps[-1]) + spec.width_s / 2
    unlabeled = ss.build_unlabeled_dataset(
        streams, windowing.unlabeled_spec(), windowing.label_rate_hz, train_end
    )
    return Inputs(train, test, unlabeled)


def fixed_epochs(settings: ss.TrainSettings, pretrain: int, downstream: int) -> ss.TrainSettings:
    """`settings` with exact epoch counts: patience max_epochs - 1 lets the
    stale-epoch counter reach patience at the last epoch at the earliest, so
    early stopping never shortens a run and the work per pass is constant."""
    return replace(
        settings,
        pretrain=replace(settings.pretrain, max_epochs=pretrain, patience=pretrain - 1),
        downstream=replace(settings.downstream, max_epochs=downstream, patience=downstream - 1),
    )


def pretrain_fresh(ops: Ops, unlabeled: ss.Dataset, s: ss.TrainSettings, seed: int):
    """A freshly initialised extractor pre-trained as
    `harness.pretrain_extractor` does it, but uncached and keeping the fit."""
    rng = ss.RandomStream(seed, "crossl")
    fx = ops(
        ss.build_extractor,
        unlabeled.n_stations,
        unlabeled.k,
        rng.child("init"),
        embedding_dim=s.embedding_dim,
        aggregator_hidden=s.aggregator_hidden,
        encoder_widths=s.encoder_widths,
    )
    fit = ops(ss.pretrain, fx, unlabeled, s.p_mask_crossl, s.vicreg, s.pretrain, rng.child("fit"))
    return fx, fit


def train_sma_head(ops: Ops, name: str, fx, labeled: ss.Dataset, s: ss.TrainSettings, seed: int):
    """The `proposed` (head on the frozen extractor `fx`) or `sma` (head on raw
    inputs, `fx` None) model exactly as `harness.train_method` builds it, but
    keeping the downstream fit."""
    rng = ss.RandomStream(seed, f"method/{name}")
    n_in = s.embedding_dim if fx is not None else labeled.n_stations * labeled.k
    head = ops(ss.build_head, n_in, rng.child("init"))
    model = ss.SensingModel(fx, head, s.mode if fx is not None else "joint")
    aug = ss.AugmentConfig(kind="sma", p_mask=s.p_mask_sma, strategy=s.aug_strategy, p_aug=s.p_aug)
    fit = ops(ss.train_downstream, model, labeled, aug, s.downstream, rng)
    return model, fit


class RowCounter:
    """Passes predictions through and counts the rows predicted, so a check
    can tell how many station combinations an evaluation really ran."""

    def __init__(self, model):
        self.model = model
        self.rows = 0

    def predict(self, xb):
        self.rows += len(xb)
        return self.model.predict(xb)


def evaluate(ops: Ops, out: Pass, name: str, model, test: ss.Dataset, ks, seed: int,
             n_draws: int = 500) -> None:
    """`harness.eval_at_availability` at each k, recording RMSE and the number
    of combinations evaluated under `out.quality`/`out.outputs`."""
    counter = RowCounter(model)
    for k in ks:
        before = counter.rows
        value = ops(
            ss.eval_at_availability, counter, test, k, "exhaustive", n_draws,
            ss.RandomStream(seed, f"mc/{name}/{k}"),
        )
        out.quality[f"rmse.{name}.k{k}"] = value
        out.outputs.setdefault("combos", {})[(name, k)] = (counter.rows - before) / test.n
    out.work["combos"] = out.work.get("combos", 0) + counter.rows / test.n


def expected_combos(n_stations: int, k: int, n_draws: int = 500) -> int:
    """Exhaustive up to the harness's combination cap, Monte Carlo above it."""
    c = math.comb(n_stations, n_stations - k)
    return c if c <= EXHAUSTIVE_COMBINATION_CAP else n_draws


def _rmse_problems(quality: Dict[str, float]) -> List[str]:
    return [
        f"{name} = {v!r} is not in (0, 1)"
        for name, v in quality.items()
        if not (np.isfinite(v) and 0.0 < v < 1.0)
    ]


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------


class Train:
    """Desk run (8 stations, 600 s, 2.4/4.8 Hz windows): VICReg pre-training
    with (64,) station encoders, then `proposed` and `sma` heads with online
    SMA, then the availability RMSE of `proposed` at k in {1, 4, 8}.
    Simulation and windowing are set-up; nnkit, crossl and the core RNG do
    the timed work."""

    PRETRAIN_EPOCHS = 16  # 128 steps of batch 256
    DOWNSTREAM_EPOCHS = 60
    KS = (1, 4, 8)

    def setup(self, seed: int, workdir: Path):
        inputs = make_inputs(seed, ss.desk_scenario(), ss.desk_windowing())
        settings = fixed_epochs(ss.desk_settings(), self.PRETRAIN_EPOCHS, self.DOWNSTREAM_EPOCHS)
        return {"seed": seed, "inputs": inputs, "settings": settings}

    def run(self, state, ops: Ops) -> Pass:
        inp, s, seed = state["inputs"], state["settings"], state["seed"]
        out = Pass(clock=ops.clock)
        with out.stage("pretrain"):
            fx, fit = pretrain_fresh(ops, inp.unlabeled, s, seed)
        with out.stage("downstream"):
            proposed, fit_p = train_sma_head(ops, "proposed", fx, inp.train, s, seed)
            _, fit_s = train_sma_head(ops, "sma", None, inp.train, s, seed)
        with out.stage("eval"):
            evaluate(ops, out, "proposed", proposed, inp.test, self.KS, seed)
        out.work["pretrain_samples"] = len(fit.history) * inp.unlabeled.n
        out.work["downstream_samples"] = (len(fit_p.history) + len(fit_s.history)) * inp.train.n
        out.quality["pretrain.final_loss"] = fit.history[-1]
        out.outputs["epochs"] = (len(fit.history), len(fit_p.history), len(fit_s.history))
        out.fingerprint = tuple(sorted(out.quality.items()))
        return out

    def check(self, state, out: Pass) -> List[str]:
        problems = []
        expected = (self.PRETRAIN_EPOCHS, self.DOWNSTREAM_EPOCHS, self.DOWNSTREAM_EPOCHS)
        if out.outputs["epochs"] != expected:
            problems.append(f"epochs run {out.outputs['epochs']} != {expected}")
        if not np.isfinite(out.quality["pretrain.final_loss"]):
            problems.append("pre-training loss is not finite")
        problems += _rmse_problems({k: v for k, v in out.quality.items() if k.startswith("rmse.")})
        return problems


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


class Sweep:
    """16-station room, same duration and windowing as `train`. Set-up
    trains `naive`, `sma`, `ensemble` and `proposed` briefly; the timed pass
    is `eval_at_availability` for every model at k in {1, 4, 8, 12, 16},
    which reaches the Monte Carlo branch 8 stations never reach."""

    N_STATIONS = 16
    PRETRAIN_EPOCHS = 3
    DOWNSTREAM_EPOCHS = 5
    KS = (1, 4, 8, 12, 16)
    MODELS = ("naive", "sma", "ensemble", "proposed")

    def setup(self, seed: int, workdir: Path):
        scenario = replace(ss.desk_scenario(), n_stations=self.N_STATIONS, station_positions=None)
        inputs = make_inputs(seed, scenario, ss.desk_windowing())
        s = fixed_epochs(ss.desk_settings(), self.PRETRAIN_EPOCHS, self.DOWNSTREAM_EPOCHS)
        ops = Ops()
        models = {name: ss.train_method(name, inputs.train, None, s, seed) for name in ("naive", "sma", "ensemble")}
        fx, _ = pretrain_fresh(ops, inputs.unlabeled, s, seed)
        models["proposed"], _ = train_sma_head(ops, "proposed", fx, inputs.train, s, seed)
        return {"seed": seed, "inputs": inputs, "models": models}

    def run(self, state, ops: Ops) -> Pass:
        inp, seed = state["inputs"], state["seed"]
        out = Pass(clock=ops.clock)
        with out.stage("eval"):
            for name in self.MODELS:
                evaluate(ops, out, name, state["models"][name], inp.test, self.KS, seed)
        out.fingerprint = tuple(sorted(out.quality.items()))
        return out

    def check(self, state, out: Pass) -> List[str]:
        inp = state["inputs"]
        problems = _rmse_problems(out.quality)
        for (name, k), combos in out.outputs["combos"].items():
            want = expected_combos(self.N_STATIONS, k)
            if combos != want:
                problems.append(f"{name} at k={k} evaluated {combos} combinations, expected {want}")
        for name, model in state["models"].items():
            full = ss.rmse(model.predict(inp.test.x), inp.test.labels)
            got = out.quality[f"rmse.{name}.k{self.N_STATIONS}"]
            if not np.isclose(got, full, rtol=1e-6, atol=0.0):
                problems.append(f"{name}: k=N RMSE {got!r} != unmasked RMSE {full!r}")
        return problems


# ---------------------------------------------------------------------------
# acquire
# ---------------------------------------------------------------------------


def _bitwise_equal(a, b) -> bool:
    if a is None or b is None:
        return a is None and b is None
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and np.array_equal(a.view(np.uint8), b.view(np.uint8))


def brute_force_window(stream, keep, center: float, width_s: float):
    """Mean of power-normalised kept-subcarrier amplitudes over the frames
    with |t - center| <= width / 2, or None when the window holds none. An
    oracle for the pipeline's windowing, independent of its code."""
    half = width_s / 2
    sel = (stream.timestamps >= center - half) & (stream.timestamps <= center + half)
    if not sel.any():
        return None
    amps = np.abs(stream.values[sel][:, keep])
    power = np.mean(amps**2, axis=1)
    scale = np.where(power < 1e-12, np.inf, np.sqrt(power))
    return (amps / scale[:, None]).mean(axis=0)


class Acquire:
    """8 stations, 300 s, at the paper's 30 Hz labeled and 160 Hz SSL window
    rates: simulate the streams, window every split, then save and load each
    split. Only synth, pipeline and the dataset codec run; the unlabeled
    array alone (about 56 MB) is far larger than the CPU caches and every
    frame falls in about 320 overlapping SSL windows."""

    DURATION_S = 300.0
    WARMUP_S = 60.0
    CHECK_WINDOWS = 32

    def _state(self, seed: int, duration_s: float, workdir: Path) -> dict:
        scenario = replace(ss.desk_scenario(), duration_s=duration_s)
        traj = ss.gen_trajectory(scenario, ss.RandomStream(seed, "sim").child("traj"))
        return {"seed": seed, "scenario": scenario, "windowing": ss.WindowingConfig(),
                "traj": traj, "workdir": workdir}

    def setup(self, seed: int, workdir: Path):
        """The timed pass's inputs, after one pass on a short run so that
        first-call costs are paid before timing."""
        self.run(self._state(seed, self.WARMUP_S, workdir), Ops())
        return self._state(seed, self.DURATION_S, workdir)

    def run(self, state, ops: Ops) -> Pass:
        traj, win = state["traj"], state["windowing"]
        out = Pass(clock=ops.clock)
        with out.stage("synth"):
            rng = ss.RandomStream(state["seed"], "sim")
            streams = ops(ss.gen_csi_streams, state["scenario"], traj, rng.child("streams"))
        with out.stage("pipeline"):
            spec = win.labeled_spec()
            splits = ops(ss.build_labeled_dataset, streams, traj, spec, win.split_ratios)
            train_end = float(splits[0].timestamps[-1]) + spec.width_s / 2
            splits += (ops(ss.build_unlabeled_dataset, streams, win.unlabeled_spec(), win.label_rate_hz, train_end),)
        nbytes = 0
        with out.stage("codec"):
            paths = [state["workdir"] / f"{d.split}.msds" for d in splits]
            for d, path in zip(splits, paths):
                ops(ss.save_dataset, d, path)
                nbytes += path.stat().st_size
            loaded = []
            for path in paths:
                loaded.append(ops(ss.load_dataset, path))
                nbytes += path.stat().st_size
        out.work["frames"] = sum(len(s) for s in streams)
        out.work["windows"] = sum(d.n for d in splits)
        out.work["bytes"] = nbytes
        out.outputs.update(streams=streams, splits=splits, loaded=loaded)
        out.fingerprint = (
            out.work["frames"], out.work["windows"], nbytes,
            tuple(zlib.crc32(np.ascontiguousarray(d.x)) for d in splits),
        )
        return out

    def check(self, state, out: Pass) -> List[str]:
        problems = []
        streams, splits, loaded = (out.outputs[k] for k in ("streams", "splits", "loaded"))
        for d, back in zip(splits, loaded):
            for attr in ("x", "missing", "labels", "timestamps"):
                if not _bitwise_equal(getattr(d, attr), getattr(back, attr)):
                    problems.append(f"{d.split}: loaded {attr} differs from saved")
            if back.split != d.split:
                problems.append(f"{d.split}: loaded split name {back.split!r}")
        keep = ss.default_keep_list(state["scenario"].k_raw)
        width = state["windowing"].width_s
        pick = ss.RandomStream(state["seed"], "check/windows")
        for d in splits:
            for i in pick.integers(0, d.n, self.CHECK_WINDOWS):
                for st, s in enumerate(streams):
                    want = brute_force_window(s, keep, float(d.timestamps[i]), width)
                    if want is None:
                        ok = bool(d.missing[i, st]) and not d.x[i, st].any()
                    else:
                        ok = not d.missing[i, st] and np.allclose(d.x[i, st], want, rtol=1e-5, atol=1e-6)
                    if not ok:
                        problems.append(f"{d.split}: window {i} station {st} differs from the frames' mean")
        return problems


WORKLOADS = {"train": Train(), "sweep": Sweep(), "acquire": Acquire()}
