"""Experiment orchestration: method registry, station-availability sweeps,
label-ratio sweeps, masking-rate heatmaps, PCA exports, and metrics tables.
"""

from __future__ import annotations

import csv
import hashlib
import itertools
import math
import time
from dataclasses import asdict, astuple, dataclass, field, fields, replace
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .core import RandomStream, _Lanes, _one_blas_thread
from .crossl import (
    FeatureExtractor,
    VicregWeights,
    build_extractor,
    pretrain,
)
from .downstream import (
    AugmentConfig,
    ConstantModel,
    InpaintingModel,
    SensingModel,
    _train_head,
    train_dae,
    train_downstream,  # noqa: F401  kept bound here: perfbench's tracer test wraps it
    train_ensemble,
)
from .nnkit import FitResult, TrainConfig
from .pipeline import Dataset

EXHAUSTIVE_COMBINATION_CAP = 256


def rmse(predictions, labels) -> float:
    p = np.asarray(predictions, dtype=float)
    y = np.asarray(labels, dtype=float)
    if p.shape != y.shape or p.size == 0:
        raise ValueError("predictions and labels must have equal non-zero length")
    return float(np.sqrt(np.mean((p - y) ** 2)))


@dataclass(frozen=True)
class SweepSpec:
    available_station_counts: Tuple[int, ...] = (1, 4, 8)
    label_ratios: Tuple[float, ...] = (0.001, 0.1, 1.0)
    seeds: Tuple[int, ...] = (0, 1, 2)
    combination_policy: str = "exhaustive"  # exhaustive | monte_carlo
    n_draws: int = 500

    def __post_init__(self):
        if any(r <= 0 or r > 1 for r in self.label_ratios):
            raise ValueError("label ratios must be in (0, 1]")
        if self.combination_policy not in ("exhaustive", "monte_carlo"):
            raise ValueError(f"unknown combination policy {self.combination_policy}")
        if self.n_draws < 1:
            raise ValueError(f"n_draws must be at least 1, got {self.n_draws}")


@dataclass
class MetricsRow:
    method: str
    k_available: int
    label_ratio: float
    seed: int
    rmse: float
    runtime_s: float

    def __post_init__(self):
        if self.rmse < 0:
            raise ValueError("RMSE must be non-negative")


@dataclass
class TrainSettings:
    """Resolved training hyperparameters shared by all grid cells."""

    pretrain: TrainConfig = field(
        default_factory=lambda: TrainConfig(learning_rate=1.1e-4, batch_size=4096)
    )
    downstream: TrainConfig = field(
        default_factory=lambda: TrainConfig(learning_rate=2.0e-5, batch_size=256)
    )
    dae_lr: float = 1.6e-4
    vicreg: VicregWeights = field(default_factory=VicregWeights)
    embedding_dim: int = 64
    aggregator_hidden: Tuple[int, int] = (256, 128)
    encoder_widths: Optional[Tuple[int, ...]] = None  # None = identity encoders
    p_mask_crossl: float = 0.5
    p_mask_sma: float = AugmentConfig.p_mask
    mode: str = "frozen"  # frozen | joint
    aug_strategy: str = AugmentConfig.strategy
    p_aug: float = AugmentConfig.p_aug
    naive_variant: str = "office"

    def __post_init__(self):
        for name, allowed in (("mode", ("frozen", "joint")), ("naive_variant", ("office", "factory"))):
            if getattr(self, name) not in allowed:
                raise ValueError(f"unknown {name} {getattr(self, name)!r}, expected one of {allowed}")
        if not 0.0 <= self.p_mask_crossl <= 1.0:
            raise ValueError(f"p_mask_crossl must be in [0, 1], got {self.p_mask_crossl}")
        widths = (self.embedding_dim, *self.aggregator_hidden, *(self.encoder_widths or ()))
        if min(widths) < 1:
            raise ValueError(f"layer widths must be at least 1, got {widths}")
        # the objects training builds from these values check them at load
        AugmentConfig(kind="sma", p_mask=self.p_mask_sma, p_aug=self.p_aug, strategy=self.aug_strategy)
        replace(self.pretrain, learning_rate=self.dae_lr)


def desk_settings() -> TrainSettings:
    """Fast desk-scale preset for the synthetic scenario.

    Online augmentation redraws masks every epoch, so downstream training sees
    a far wider range of availability patterns than a single offline doubling
    would. The compact embedding keeps the frozen-extractor head estimable
    from very few labels, which is what makes the method degrade gracefully
    as the label budget shrinks."""
    return TrainSettings(
        pretrain=TrainConfig(
            learning_rate=1e-3, batch_size=256, max_epochs=200, patience=20
        ),
        downstream=TrainConfig(
            learning_rate=1e-3, batch_size=256, max_epochs=400, patience=30
        ),
        aug_strategy="online",
        embedding_dim=16,
        encoder_widths=(64,),
    )


def _extractor_shape(settings: TrainSettings) -> dict:
    """build_extractor's shape arguments, as the settings give them."""
    return dict(
        embedding_dim=settings.embedding_dim,
        aggregator_hidden=settings.aggregator_hidden,
        encoder_widths=settings.encoder_widths,
    )


def _pretrain(
    unlabeled: Dataset, settings: TrainSettings, seed: int
) -> Tuple[FeatureExtractor, FitResult]:
    """Build a CroSSL extractor from the settings and pre-train it (uncached)."""
    rng = RandomStream(seed, "crossl")
    fx = build_extractor(
        unlabeled.n_stations, unlabeled.k, rng.child("init"), **_extractor_shape(settings)
    )
    result = pretrain(
        fx, unlabeled, settings.p_mask_crossl, settings.vicreg, settings.pretrain, rng.child("fit")
    )
    return fx, result


def _pretrain_key(unlabeled: Dataset, settings: TrainSettings, seed: int) -> tuple:
    """Everything a pre-training run depends on: the seed, the masking rate,
    a digest of the unlabeled data and the pre-training settings (not mode,
    p_mask_sma or the downstream schedule, which only act after it)."""
    digest = hashlib.sha256()
    for a in (unlabeled.x, unlabeled.missing):
        digest.update(repr((a.dtype.str, a.shape)).encode())
        digest.update(np.ascontiguousarray(a).data)
    shape = tuple(
        (name, tuple(v) if isinstance(v, (list, tuple)) else v)
        for name, v in _extractor_shape(settings).items()
    )
    s = settings
    return (seed, s.p_mask_crossl, digest.hexdigest(), shape, astuple(s.vicreg), astuple(s.pretrain))


def pretrain_extractor(
    unlabeled: Dataset,
    settings: TrainSettings,
    seed: int,
    cache: Optional[dict] = None,
) -> FeatureExtractor:
    """CroSSL-pretrained extractor, cached per seed, unlabeled data and
    pre-training settings (masking rate included)."""
    if cache is None:
        return _pretrain(unlabeled, settings, seed)[0]
    key = _pretrain_key(unlabeled, settings, seed)
    if key not in cache:
        cache[key] = _pretrain(unlabeled, settings, seed)[0]
    return cache[key]


@dataclass
class _MethodRun:
    """Arguments of one train_method call, as its trainer sees them."""

    name: str
    labeled: Dataset
    unlabeled: Optional[Dataset]
    settings: TrainSettings
    seed: int
    rng: RandomStream
    cache: Optional[dict]
    extractor: Optional[FeatureExtractor]

    def require_unlabeled(self) -> Dataset:
        if self.unlabeled is None:
            raise ValueError(f"{self.name} requires unlabeled data")
        return self.unlabeled


def _naive(r: _MethodRun, rng: RandomStream) -> SensingModel:
    """NaiveSupervised: no pre-training, no augmentation. The office variant
    trains a head on the concatenated station inputs; the factory variant a
    fresh extractor end to end with its head."""
    s, fx = r.settings, None
    if s.naive_variant == "factory":
        fx = build_extractor(
            r.labeled.n_stations, r.labeled.k, rng.child("init/fx"), **_extractor_shape(s)
        )
    return _train_head(r.labeled, fx, "joint", AugmentConfig(), s.downstream, rng)


def _dae(r: _MethodRun):
    s = r.settings
    dae_tc = replace(s.pretrain, learning_rate=s.dae_lr)
    dae, _ = train_dae(
        r.require_unlabeled(), s.p_mask_sma, dae_tc, r.rng.child("dae"), s.embedding_dim
    )
    return dae


def _crossl_extractor(r: _MethodRun) -> FeatureExtractor:
    fx = r.extractor
    if fx is None:
        fx = pretrain_extractor(r.require_unlabeled(), r.settings, r.seed, r.cache)
    if r.settings.mode == "joint":
        # joint fine-tuning mutates the extractor: work on a private copy
        fx = fx.cast(np.float32)
    return fx


def _head_method(extractor, mode: Optional[str], aug_kind: str):
    """Trainer for a head on an optional extractor: `extractor` maps the run
    to a FeatureExtractor (None trains on the concatenated raw stations),
    `mode` None takes settings.mode, `aug_kind` picks the augmentation."""

    def train(r: _MethodRun) -> SensingModel:
        s = r.settings
        fx = None if extractor is None else extractor(r)
        aug = AugmentConfig()
        if aug_kind != "none":
            aug = AugmentConfig(
                kind=aug_kind, p_mask=s.p_mask_sma, strategy=s.aug_strategy, p_aug=s.p_aug
            )
        return _train_head(r.labeled, fx, mode or s.mode, aug, s.downstream, r.rng)

    return train


def _inpaint(r: _MethodRun) -> InpaintingModel:
    r.require_unlabeled()  # fail before the naive base trains
    return InpaintingModel(_naive(r, r.rng.child("base")), _dae(r))


_TRAINERS = {
    "constant": lambda r: ConstantModel(),
    "naive": lambda r: _naive(r, r.rng),
    "ensemble": lambda r: train_ensemble(r.labeled, r.settings.downstream, r.rng),
    "dae": _head_method(lambda r: _dae(r).extractor, "frozen", "none"),
    "crossl": _head_method(_crossl_extractor, None, "none"),
    "proposed": _head_method(_crossl_extractor, None, "sma"),
    "sma": _head_method(None, "joint", "sma"),
    "re": _head_method(None, "joint", "random_erase"),
    "inpaint": _inpaint,
}

METHODS = tuple(_TRAINERS)
# methods that build on a CroSSL extractor and so can take a pre-trained one
_EXTRACTOR_METHODS = ("crossl", "proposed")
# methods that give a checkpointable SensingModel without unlabeled data: the CLI's train
_CHECKPOINT_METHODS = ("naive", "sma", "re", "crossl", "proposed")


def train_method(
    name: str,
    labeled: Dataset,
    unlabeled: Optional[Dataset],
    settings: TrainSettings,
    seed: int,
    extractor_cache: Optional[dict] = None,
    extractor: Optional[FeatureExtractor] = None,
):
    """Train one method end to end and return a predictor with .predict.

    A given `extractor` replaces pre-training for crossl and proposed; any
    other method rejects one."""
    if name not in _TRAINERS:
        raise ValueError(f"unknown method {name}")
    if extractor is not None and name not in _EXTRACTOR_METHODS:
        raise ValueError(f"{name} does not take a pre-trained extractor")
    run = _MethodRun(
        name, labeled, unlabeled, settings, seed, RandomStream(seed, f"method/{name}"),
        extractor_cache, extractor,
    )
    return _TRAINERS[name](run)


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------


def _masked_rmse(model, test: Dataset, mask_indices: Sequence[int]) -> float:
    xm = test.x.astype(np.float32)  # always a copy
    xm[:, list(mask_indices), :] = 0.0
    return rmse(model.predict(xm), test.labels)


def eval_at_availability(
    model,
    test: Dataset,
    k: int,
    policy: str = SweepSpec.combination_policy,
    n_draws: int = SweepSpec.n_draws,
    rng: Optional[RandomStream] = None,
) -> float:
    """RMSE averaged over station-missingness combinations with k available.

    exhaustive: every size-(N_d - k) mask (falls back to Monte Carlo above
    the combination cap); monte_carlo: n_draws uniform random combinations,
    drawn before any is evaluated. Per-combination RMSEs are averaged.

    The combinations are one `core._Lanes.map`, so `model.predict` is called
    from two threads at once and must only read the model (every
    stationsense model does in eval mode); each combination masks its own
    copy of the test inputs. The mean, in combination order, is bit for bit
    that of one lane. OpenBLAS runs on one thread (`core._one_blas_thread`)."""
    n_d = test.n_stations
    if not (1 <= k <= n_d):
        raise ValueError(f"k must be in [1, {n_d}], got {k}")
    if n_draws < 1:
        raise ValueError(f"n_draws must be at least 1, got {n_draws}")
    n_masked = n_d - k
    if policy == "exhaustive" and math.comb(n_d, n_masked) > EXHAUSTIVE_COMBINATION_CAP:
        policy = "monte_carlo"
    if policy == "exhaustive":
        combos = list(itertools.combinations(range(n_d), n_masked))
    elif policy == "monte_carlo":
        rng = rng or RandomStream(0, "availability_mc")
        combos = [
            tuple(sorted(rng.generator.choice(n_d, n_masked, replace=False)))
            for _ in range(n_draws)
        ]
    else:
        raise ValueError(f"unknown policy {policy}")
    with _one_blas_thread(), _Lanes() as lanes:
        values = lanes.map(lambda combo: _masked_rmse(model, test, combo), combos)
    return float(np.mean(values))


def label_ratio_subset(train: Dataset, ratio: float, rng: RandomStream) -> Dataset:
    """Seed-deterministic uniform random subset of ceil(ratio * N) samples."""
    if not (0.0 < ratio <= 1.0):
        raise ValueError(f"ratio must be in (0, 1], got {ratio}")
    if ratio == 1.0:
        return train
    n_sub = int(np.ceil(ratio * train.n))
    idx = np.sort(rng.generator.choice(train.n, n_sub, replace=False))
    return train.subset(idx)


# ---------------------------------------------------------------------------
# grids
# ---------------------------------------------------------------------------


def run_grid(
    spec: SweepSpec,
    methods: Sequence[str],
    train: Dataset,
    test: Dataset,
    unlabeled: Optional[Dataset],
    settings: TrainSettings,
    out_dir=None,
) -> Tuple[List[MetricsRow], List[dict]]:
    """methods x label ratios x seeds trained once each (cached); every
    trained model evaluated at each availability level. Per-cell failures are
    recorded and the grid continues."""
    rows: List[MetricsRow] = []
    failures: List[dict] = []
    extractor_cache: dict = {}
    for method, ratio, seed in itertools.product(methods, spec.label_ratios, spec.seeds):
        cell = {"method": method, "ratio": ratio, "seed": seed}
        sub = label_ratio_subset(
            train, ratio, RandomStream(seed, f"label_subset/{ratio}")
        )
        t0 = time.perf_counter()
        try:
            model = train_method(
                method, sub, unlabeled, settings, seed, extractor_cache
            )
        except Exception as exc:  # noqa: BLE001 - grid must continue
            failures.append({**cell, "error": repr(exc)})
            continue
        train_time = time.perf_counter() - t0
        for k in spec.available_station_counts:
            t1 = time.perf_counter()
            try:
                value = eval_at_availability(
                    model,
                    test,
                    k,
                    spec.combination_policy,
                    spec.n_draws,
                    RandomStream(seed, f"mc/{method}/{ratio}/{k}"),
                )
            except Exception as exc:  # noqa: BLE001
                failures.append({**cell, "k": k, "error": repr(exc)})
                continue
            rows.append(
                MetricsRow(
                    method=method,
                    k_available=k,
                    label_ratio=ratio,
                    seed=seed,
                    rmse=value,
                    runtime_s=train_time + (time.perf_counter() - t1),
                )
            )
    if out_dir is not None:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        write_metrics_csv(rows, out_dir / "metrics.csv")
        write_summary_csv(rows, out_dir / "summary.csv")
        _write_dicts_csv(failures, _ERROR_COLUMNS, out_dir / "errors.csv")
    return rows, failures


def run_masking_heatmap(
    p_grid: Sequence[float],
    ks: Sequence[int],
    seeds: Sequence[int],
    train: Dataset,
    test: Dataset,
    unlabeled: Dataset,
    settings: TrainSettings,
    out_path=None,
    extractor_cache: Optional[dict] = None,
) -> List[dict]:
    """Mean RMSE per (pretrain p_mask, downstream p_mask, k) cell, averaged
    over seeds; mirrors the masking-rate sensitivity grid. Above the
    exhaustive cap each (cell, seed, k) draws its own combinations. Pre-trained
    extractors are shared through `extractor_cache` (a fresh one when None),
    as in train_method."""
    cells = []
    if extractor_cache is None:
        extractor_cache = {}
    for p_cro, p_sma in itertools.product(p_grid, p_grid):
        cell = replace(settings, p_mask_crossl=p_cro, p_mask_sma=p_sma)
        models = [train_method("proposed", train, unlabeled, cell, s, extractor_cache) for s in seeds]
        for k in ks:
            values = [
                eval_at_availability(
                    model, test, k, rng=RandomStream(seed, f"mc/proposed/{p_cro}/{p_sma}/{k}")
                )
                for seed, model in zip(seeds, models)
            ]
            cells.append(
                {
                    "p_mask_crossl": p_cro,
                    "p_mask_sma": p_sma,
                    "k_available": k,
                    "rmse_mean": float(np.mean(values)),
                    "rmse_std": float(np.std(values)),
                }
            )
    if out_path is not None:
        _write_dicts_csv(cells, _HEATMAP_COLUMNS, out_path)
    return cells


# ---------------------------------------------------------------------------
# PCA export
# ---------------------------------------------------------------------------


def pca_export(train_vectors: np.ndarray, test_vectors: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Fit a 2-D PCA projection on the training vectors, apply the same
    affine map to the test vectors."""
    tr = np.asarray(train_vectors, dtype=float)
    te = np.asarray(test_vectors, dtype=float)
    mean = tr.mean(axis=0)
    centered = tr - mean
    _, s, vt = np.linalg.svd(centered, full_matrices=False)
    rank = int(np.sum(s > s[0] * 1e-10)) if len(s) else 0
    if rank < 2:
        raise ValueError(f"training data rank {rank} below the 2 projected dims")
    comps = vt[:2]
    return centered @ comps.T, (te - mean) @ comps.T


# ---------------------------------------------------------------------------
# CSV output
# ---------------------------------------------------------------------------

METRICS_COLUMNS = [f.name for f in fields(MetricsRow)]
_SUMMARY_COLUMNS = ["method", "k_available", "label_ratio", "rmse_mean", "rmse_std", "n_seeds"]
_ERROR_COLUMNS = ["method", "ratio", "seed", "k", "error"]  # k blank for a training failure
_HEATMAP_COLUMNS = ["p_mask_crossl", "p_mask_sma", "k_available", "rmse_mean", "rmse_std"]


def write_metrics_csv(rows: List[MetricsRow], path) -> None:
    _write_dicts_csv([asdict(r) for r in rows], METRICS_COLUMNS, path)


def summarize(rows: List[MetricsRow]) -> List[dict]:
    groups: Dict[tuple, list] = {}
    for r in rows:
        groups.setdefault((r.method, r.k_available, r.label_ratio), []).append(r.rmse)
    out = []
    for (method, k, ratio), values in sorted(groups.items()):
        out.append(
            {
                "method": method,
                "k_available": k,
                "label_ratio": ratio,
                "rmse_mean": float(np.mean(values)),
                "rmse_std": float(np.std(values)),  # 0 for a single seed, never NaN
                "n_seeds": len(values),
            }
        )
    return out


def write_summary_csv(rows: List[MetricsRow], path) -> None:
    _write_dicts_csv(summarize(rows), _SUMMARY_COLUMNS, path)


def _write_dicts_csv(records: List[dict], columns: Sequence[str], path) -> None:
    """The one table writer: the declared header, even for no records, then
    a row per record, every float (numpy's too) as the repr of a Python
    float and a column the record lacks blank."""
    with open(path, "w", newline="") as f:
        w = csv.DictWriter(f, fieldnames=columns)
        w.writeheader()
        for r in records:
            w.writerow({c: repr(float(v)) if isinstance(v, (float, np.floating)) else v for c, v in r.items()})
