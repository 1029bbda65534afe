"""Supervised downstream training on top of the feature extractor, with
station-wise masking augmentation, plus the comparison baselines (constant,
naive, output ensemble, denoising autoencoder, random erasing, inpainting).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Tuple

import numpy as np

from .core import RandomStream, sample_mask_matrix
from .crossl import FeatureExtractor, build_extractor
from .nnkit import (
    DROPOUT_RATE,
    BatchNorm,
    CheckpointError,
    Dense,
    Dropout,
    FitResult,
    MlpStack,
    Relu,
    TrainConfig,
    fit_loop,
    masked_mse_loss,
    mlp_head,
    mse_loss,
    read_bundle,
    write_bundle,
)
from .pipeline import Dataset

HEAD_HIDDEN = 64
ERASE_RANGE = (0.4, 0.6)  # random erasing blanks this fraction range of a station's subcarriers


@dataclass(frozen=True)
class AugmentConfig:
    kind: str = "none"  # none | sma | random_erase
    p_mask: float = 0.5
    p_aug: float = 0.5  # per-sample application probability (online strategy)
    strategy: str = "offline_double"  # offline_double | online

    def __post_init__(self):
        if self.kind not in ("none", "sma", "random_erase"):
            raise ValueError(f"unknown augmentation kind {self.kind}")
        if self.strategy not in ("offline_double", "online"):
            raise ValueError(f"unknown augmentation strategy {self.strategy}")
        for p in (self.p_mask, self.p_aug):
            if not (0.0 <= p <= 1.0):
                raise ValueError("probabilities must be in [0, 1]")


# ---------------------------------------------------------------------------
# augmentations
# ---------------------------------------------------------------------------


def sma_augment_batch(xb: np.ndarray, p_mask: float, rng: RandomStream) -> np.ndarray:
    mask = sample_mask_matrix(p_mask, xb.shape[0], xb.shape[1], rng)
    return xb * (~mask)[:, :, None]


def random_erase_batch(
    xb: np.ndarray, missing: np.ndarray, s_l: float, s_h: float, rng: RandomStream
) -> np.ndarray:
    if not (0.0 <= s_l <= s_h <= 1.0):
        raise ValueError("erase range must satisfy 0 <= s_l <= s_h <= 1")
    n, n_d, k = xb.shape
    out = xb.copy()
    fracs = rng.uniform(s_l, s_h, (n, n_d))
    runs = np.ceil(fracs * k).astype(int)
    for i in range(n):
        for d in range(n_d):
            if missing[i, d] or runs[i, d] == 0:
                continue
            start = int(rng.integers(0, k - runs[i, d] + 1))
            out[i, d, start : start + runs[i, d]] = 0.0
    return out


def _apply_augment_batch(
    xb: np.ndarray, missing: np.ndarray, aug: AugmentConfig, rng: RandomStream
) -> np.ndarray:
    if aug.kind == "none":
        return xb
    if aug.kind == "sma":
        return sma_augment_batch(xb, aug.p_mask, rng)
    return random_erase_batch(xb, missing, *ERASE_RANGE, rng)


# ---------------------------------------------------------------------------
# sensing model
# ---------------------------------------------------------------------------


class SensingModel:
    """Feature extractor (possibly none = raw concatenation) plus a scalar
    regression head. mode 'frozen' keeps extractor parameters fixed."""

    def __init__(self, extractor: Optional[FeatureExtractor], head: MlpStack, mode: str = "joint"):
        if mode not in ("frozen", "joint"):
            raise ValueError(f"mode must be frozen or joint, got {mode}")
        if extractor is None and mode == "frozen":
            mode = "joint"  # nothing to freeze
        self.extractor = extractor
        self.head = head
        self.mode = mode

    def predict(self, xb: np.ndarray) -> np.ndarray:
        """Deterministic inference-mode forward over a (n, N_d, K) batch."""
        xb = np.asarray(xb, dtype=np.float32)
        if self.extractor is None:
            feats = xb.reshape(xb.shape[0], -1)
        else:
            feats = self.extractor.embed(xb)
        out, _ = self.head.forward(feats, "eval", None)
        return out[:, 0]


def build_head(n_in: int, rng: RandomStream) -> MlpStack:
    return mlp_head("head", n_in, HEAD_HIDDEN, 1, rng)


def train_downstream(
    model: SensingModel,
    labeled: Dataset,
    aug: AugmentConfig,
    tc: TrainConfig,
    rng: RandomStream,
) -> FitResult:
    """Minimize MSE of head(aggregate(encode(augmented x))) against labels.

    offline_double pre-expands the training set once (original + augmented
    copy); online applies the augmentation per epoch with probability p_aug.
    """
    if labeled.n == 0 or labeled.labels is None:
        raise ValueError("non-empty labeled dataset required")
    if model.extractor is not None and (
        labeled.n_stations != model.extractor.n_stations or labeled.k != model.extractor.input_dim
    ):
        raise ValueError("dataset shape incompatible with extractor manifest")
    x = np.asarray(labeled.x, np.float32)
    missing = labeled.missing
    y = np.asarray(labeled.labels, np.float32)[:, None]

    if aug.kind != "none" and aug.strategy == "offline_double":
        x_aug = _apply_augment_batch(x, missing, aug, rng.child("offline_aug"))
        x = np.concatenate([x, x_aug])
        missing = np.concatenate([missing, missing])
        y = np.concatenate([y, y])

    joint = model.mode == "joint" and model.extractor is not None
    params = dict(model.head.params())
    buffers = dict(model.head.buffers())
    if joint:
        params.update(model.extractor.params())
        buffers.update(model.extractor.buffers())

    fx = model.extractor
    online = aug.kind != "none" and aug.strategy == "online"

    def step(idx, srng):
        xb = x[idx]
        if online:
            arng = srng.child("aug")
            applied = arng.random(len(idx)) < aug.p_aug
            if applied.any():
                xb = xb.copy()
                xb[applied] = _apply_augment_batch(
                    xb[applied], missing[idx][applied], aug, arng.child("draw")
                )
        if fx is None:
            feats = xb.reshape(len(idx), -1)
        elif joint:
            q, enc_caches = fx.encode_batch(xb, "train", srng.child("enc"))
            feats, agg_caches = fx.aggregate_batch(q, "train", srng.child("agg"))
        else:
            feats = fx.embed(xb)
        pred, head_caches = model.head.forward(feats, "train", srng.child("head"))
        loss, dpred = mse_loss(pred, y[idx])
        dfeats, grads = model.head.backward(head_caches, dpred, input_grad=joint)
        if joint:
            dq, agg_grads = fx.aggregate_backward(agg_caches, dfeats)
            grads.update(agg_grads)
            grads.update(fx.encode_backward(enc_caches, dq))
        return loss, grads

    return fit_loop(params, step, len(x), tc, rng.child("downstream"), buffers)


def _train_head(
    labeled: Dataset,
    extractor: Optional[FeatureExtractor],
    mode: str,
    aug: AugmentConfig,
    tc: TrainConfig,
    rng: RandomStream,
) -> SensingModel:
    """The one head trainer of every method: a head from `rng.child("init")`
    on the extractor's embedding (on the concatenated raw stations when
    `extractor` is None), fitted by train_downstream with `rng`."""
    n_in = labeled.n_stations * labeled.k if extractor is None else extractor.embedding_dim
    model = SensingModel(extractor, build_head(n_in, rng.child("init")), mode)
    train_downstream(model, labeled, aug, tc, rng)
    return model


# ---------------------------------------------------------------------------
# baselines
# ---------------------------------------------------------------------------


class ConstantModel:
    """Non-learning baseline: always predicts a fixed value."""

    def __init__(self, value: float = 0.5):
        self.value = value

    def predict(self, xb: np.ndarray) -> np.ndarray:
        return np.full(np.asarray(xb).shape[0], self.value)


class EnsembleModel:
    """One independent head-only model per station; prediction is the member
    mean. Members of missing stations still see the zero placeholder. The
    member heads run as one grouped MlpStack that owns their parameters: each
    member's head holds views of it, so members stay usable on their own."""

    def __init__(self, members: List[SensingModel]):
        if any(m.extractor is not None for m in members):
            raise ValueError("ensemble members must be head-only models")
        self.members = members
        self.heads = MlpStack.group([m.head for m in members])

    def predict(self, xb: np.ndarray) -> np.ndarray:
        xb = np.asarray(xb, dtype=np.float32)
        if xb.ndim != 3 or xb.shape[1] != len(self.members):
            raise ValueError(f"batch shape {xb.shape} does not match {len(self.members)} members")
        out, _ = self.heads.forward(xb.transpose(1, 0, 2), "eval")
        return out[:, :, 0].mean(axis=0)


def train_ensemble(labeled: Dataset, tc: TrainConfig, rng: RandomStream) -> EnsembleModel:
    members = []
    for d in range(labeled.n_stations):
        sub = replace(labeled, x=labeled.x[:, d : d + 1, :], missing=labeled.missing[:, d : d + 1])
        members.append(_train_head(sub, None, "joint", AugmentConfig(), tc, rng.child(f"member{d}")))
    return EnsembleModel(members)


class DaeModel:
    """Encoder-decoder trained to reconstruct masked stations; the encoder
    doubles as a feature extractor (aggregator over raw concatenated input)."""

    def __init__(self, extractor: FeatureExtractor, decoder: MlpStack):
        self.extractor = extractor
        self.decoder = decoder

    def reconstruct(self, xb: np.ndarray) -> np.ndarray:
        """(n, N_d, K) -> (n, N_d, K) reconstruction, inference mode."""
        z = self.extractor.embed(np.asarray(xb, dtype=np.float32))
        flat, _ = self.decoder.forward(z, "eval", None)
        return flat.reshape(xb.shape)


def train_dae(
    unlabeled: Dataset,
    p_mask: float,
    tc: TrainConfig,
    rng: RandomStream,
    embedding_dim: int = 64,
) -> Tuple[DaeModel, FitResult]:
    """Station-wise masking on the input; MSE over the masked stations'
    coordinates only. The decoder exists during training only; the encoder is
    what downstream consumers keep."""
    n_d, k = unlabeled.n_stations, unlabeled.k
    fx = build_extractor(n_d, k, rng.child("init/enc"), embedding_dim=embedding_dim)
    drng = rng.child("init/dec")
    # symmetric but shallower reconstruction net: two dense layers, BN + dropout
    decoder = MlpStack(
        [
            Dense("dec.d0", embedding_dim, 128, drng.child("d0")),
            Relu("dec.relu"),
            BatchNorm("dec.bn", 128),
            Dropout("dec.drop", DROPOUT_RATE),
            Dense("dec.d1", 128, n_d * k, drng.child("d1")),
        ]
    )
    x_all = np.asarray(unlabeled.x, np.float32)
    params = dict(fx.params())
    params.update(decoder.params())
    buffers = dict(fx.buffers())
    buffers.update(decoder.buffers())

    def step(idx, srng):
        xb = x_all[idx]
        n = len(idx)
        mask = sample_mask_matrix(p_mask, n, n_d, srng.child("mask"))
        xin = xb * (~mask)[:, :, None]
        q, enc_caches = fx.encode_batch(xin, "train", srng.child("enc"))
        z, agg_caches = fx.aggregate_batch(q, "train", srng.child("agg"))
        recon, dec_caches = decoder.forward(z, "train", srng.child("dec"))
        coord_mask = np.repeat(mask, k, axis=1)  # (n, N_d*K)
        loss, drecon = masked_mse_loss(recon, xb.reshape(n, -1), coord_mask)
        dz, grads = decoder.backward(dec_caches, drecon)
        dq, agg_grads = fx.aggregate_backward(agg_caches, dz)
        grads.update(agg_grads)
        grads.update(fx.encode_backward(enc_caches, dq))
        return loss, grads

    result = fit_loop(params, step, unlabeled.n, tc, rng.child("dae"), buffers)
    return DaeModel(fx, decoder), result


def inpaint_batch(reconstructor: DaeModel, xb: np.ndarray, missing: np.ndarray) -> np.ndarray:
    """Splice reconstructed values into missing stations only; observed
    coordinates are untouched."""
    if not missing.any():
        return xb
    recon = reconstructor.reconstruct(xb)
    out = xb.copy()
    out[missing] = recon[missing]
    return out


class InpaintingModel:
    """Naive supervised predictor preceded by reconstruction of any missing
    (all-zero flagged) stations."""

    def __init__(self, base: SensingModel, reconstructor: DaeModel):
        self.base = base
        self.reconstructor = reconstructor

    def predict(self, xb: np.ndarray) -> np.ndarray:
        xb = np.asarray(xb, dtype=np.float32)
        return self.base.predict(inpaint_batch(self.reconstructor, xb, np.all(xb == 0.0, axis=2)))


# ---------------------------------------------------------------------------
# checkpoints: one manifest-driven codec for extractors and sensing models
# ---------------------------------------------------------------------------

_CHECKPOINT_TYPES = ("feature_extractor", "sensing_model")


def _extractor_manifest(fx: FeatureExtractor) -> dict:
    return {
        "n_stations": fx.n_stations,
        "input_dim": fx.input_dim,
        "encoder_dim": fx.encoder_dim,
        "embedding_dim": fx.embedding_dim,
        "aggregator": fx.aggregator.manifest(),
        "encoders": None if fx.encoders is None else fx.encoders.manifests(),
    }


def _extractor_from_manifest(m: dict) -> FeatureExtractor:
    encoders = None
    if m["encoders"] is not None:
        encoders = MlpStack.group([MlpStack.from_manifest(e) for e in m["encoders"]])
    aggregator = MlpStack.from_manifest(m["aggregator"])
    return FeatureExtractor(m["n_stations"], m["input_dim"], aggregator, encoders)


def _named_arrays(prefix: str, part) -> Dict[str, np.ndarray]:
    out = {f"{prefix}param:{k}": v for k, v in part.params().items()}
    out.update({f"{prefix}buffer:{k}": v for k, v in part.buffers().items()})
    return out


def _bundle(obj) -> Tuple[dict, Dict[str, np.ndarray]]:
    """Manifest (without meta) and named arrays of a checkpointable object."""
    if isinstance(obj, FeatureExtractor):
        return {"type": "feature_extractor", **_extractor_manifest(obj)}, _named_arrays("", obj)
    if isinstance(obj, SensingModel):
        fx = obj.extractor
        manifest = {
            "type": "sensing_model",
            "mode": obj.mode,
            "head": obj.head.manifest(),
            "extractor": None if fx is None else _extractor_manifest(fx),
        }
        arrays = _named_arrays("head/", obj.head)
        if fx is not None:
            arrays.update(_named_arrays("fx/", fx))
        return manifest, arrays
    raise TypeError(f"cannot checkpoint a {type(obj).__name__}")


def save_checkpoint(obj, path, meta: Optional[dict] = None) -> None:
    """Write a FeatureExtractor or SensingModel, with optional metadata, in float32."""
    manifest, arrays = _bundle(obj)
    manifest["meta"] = meta or {}
    write_bundle(path, manifest, {k: v.astype("<f4", copy=False) for k, v in arrays.items()})


def load_checkpoint(path, kind: Optional[str] = None):
    """Rebuild the object a checkpoint holds. `kind` ("feature_extractor" or
    "sensing_model") restricts what is accepted. A wrong type, a malformed
    manifest, or arrays that do not match the manifest raise CheckpointError."""
    manifest, arrays = read_bundle(path)
    found = manifest.get("type")
    if found not in _CHECKPOINT_TYPES or kind not in (None, found):
        wanted = kind or " or ".join(_CHECKPOINT_TYPES)
        raise CheckpointError(f"expected a {wanted} checkpoint, found {found!r}")
    try:
        if found == "feature_extractor":
            obj = _extractor_from_manifest(manifest)
        else:
            fm = manifest["extractor"]
            fx = None if fm is None else _extractor_from_manifest(fm)
            obj = SensingModel(fx, MlpStack.from_manifest(manifest["head"]), manifest["mode"])
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(f"malformed {found} manifest: {exc!r}") from exc
    targets = _bundle(obj)[1]
    if set(targets) != set(arrays):
        raise CheckpointError(
            f"arrays do not match the manifest: missing {sorted(set(targets) - set(arrays))}, "
            f"unexpected {sorted(set(arrays) - set(targets))}"
        )
    for name, dst in targets.items():
        if arrays[name].shape != dst.shape:
            raise CheckpointError(
                f"array {name!r} has shape {arrays[name].shape}, expected {dst.shape}"
            )
        dst[...] = arrays[name]
    return obj
