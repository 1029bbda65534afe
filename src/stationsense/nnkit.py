"""Minimal differentiable MLP stack with manual reverse-mode gradients.

Covers exactly what the training recipes need: dense layers, ReLU, batch
normalization, inverted dropout, MSE-style losses, Adam, a training loop with
train-loss early stopping, and a central-difference gradient checker.
`MlpStack.group` runs G same-shaped stacks (one per station) as one, with a
single batched op per layer over a leading group axis; it computes bit for
bit what the G stacks compute one at a time.
Parameters, Adam moments and forward activations are float32. In train
mode Dropout keeps its mask as a float64 array (a bool mask times a Python
float), so the gradients of every layer below a dropout layer, and the
weight gradients taken from them, are float64; Adam writes the update back
into the float32 parameters. Gradient checks run on float64 casts.
"""

from __future__ import annotations

import copy
import json
import math
import os
import struct
import zlib
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from .core import RandomStream, _one_blas_thread

BN_MOMENTUM = 0.99
BN_EPS = 1e-5
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


class TrainingDiverged(RuntimeError):
    def __init__(self, epoch: int, loss: float):
        super().__init__(f"non-finite loss {loss} at epoch {epoch}")
        self.epoch = epoch


@dataclass
class TrainConfig:
    learning_rate: float = 1e-3
    batch_size: int = 256
    max_epochs: int = 1000
    patience: int = 10

    def __post_init__(self):
        if self.learning_rate <= 0 or self.batch_size < 1 or self.max_epochs < 1:
            raise ValueError("invalid training configuration")
        if self.patience >= self.max_epochs:
            raise ValueError("patience must be < max_epochs")


# ---------------------------------------------------------------------------
# layers
# ---------------------------------------------------------------------------
#
# A layer acts on an (n, w) batch, or on a (G, n, w) block when its
# parameters and buffers carry a leading group axis (MlpStack.group): then
# w is (G, w_in, w_out), b is (G, w_out), and group g's slice acts on x[g].
# Every layer reduces over axis -2 and never writes to its input.


def _rows(a: np.ndarray) -> np.ndarray:
    """A per-feature (..., w) array as a (..., 1, w) row of an (..., n, w) block."""
    return a[..., None, :]


class Dense:
    kind = "dense"

    def __init__(self, name, n_in, n_out, rng: Optional[RandomStream] = None, dtype=np.float32):
        self.name = name
        self.n_in = n_in
        self.n_out = n_out
        if rng is not None:
            bound = np.sqrt(1.0 / n_in)
            w = rng.uniform(-bound, bound, (n_in, n_out))
        else:
            w = np.zeros((n_in, n_out))
        self.params = {"w": w.astype(dtype), "b": np.zeros(n_out, dtype=dtype)}
        self.buffers = {}

    def forward(self, x, mode, rng):
        y = x @ self.params["w"]
        y += _rows(self.params["b"])
        return y, x

    def backward(self, cache, dy, input_grad=True):
        x = cache
        grads = {"w": np.swapaxes(x, -1, -2) @ dy, "b": dy.sum(axis=-2)}
        if not input_grad:
            return None, grads
        return dy @ np.swapaxes(self.params["w"], -1, -2), grads

    def spec(self):
        return {"kind": self.kind, "name": self.name, "n_in": self.n_in, "n_out": self.n_out}


class Relu:
    kind = "relu"

    def __init__(self, name):
        self.name = name
        self.params = {}
        self.buffers = {}

    def forward(self, x, mode, rng):
        y = np.maximum(x, 0)
        return y, y

    def backward(self, cache, dy):
        return dy * (cache > 0), {}  # 0 subgradient at the kink

    def spec(self):
        return {"kind": self.kind, "name": self.name}


class BatchNorm:
    kind = "batchnorm"

    def __init__(self, name, width, dtype=np.float32):
        self.name = name
        self.width = width
        self.params = {
            "gamma": np.ones(width, dtype=dtype),
            "beta": np.zeros(width, dtype=dtype),
        }
        self.buffers = {
            "running_mean": np.zeros(width, dtype=dtype),
            "running_var": np.ones(width, dtype=dtype),
        }

    def forward(self, x, mode, rng, held: Optional["HeldStats"] = None):
        """In train mode the batch statistics move the running ones, at once or,
        given `held`, when `held.apply()` runs."""
        rm, rv = self.buffers["running_mean"], self.buffers["running_var"]
        if mode == "train":
            mu = x.mean(axis=-2)
            var = x.var(axis=-2)  # biased (1/n) batch estimator
            if held is None:
                self.update_running(mu, var)
            else:
                held.updates.append((self, mu, var))
        else:
            mu, var = rm.copy(), rv  # the cache keeps this mean, not later updates
        mu, std = _rows(mu), _rows(np.sqrt(var + BN_EPS))
        y = self._normalize(x, mu, std)
        y *= _rows(self.params["gamma"])
        y += _rows(self.params["beta"])
        return y, (mode, x, mu, std)

    def update_running(self, mu, var):
        rm, rv = self.buffers["running_mean"], self.buffers["running_var"]
        rm[...] = BN_MOMENTUM * rm + (1 - BN_MOMENTUM) * mu
        rv[...] = BN_MOMENTUM * rv + (1 - BN_MOMENTUM) * var

    @staticmethod
    def _normalize(x, mu, std):
        xhat = x - mu
        xhat /= std
        return xhat

    def backward(self, cache, dy):
        # xhat is recomputed from the cached input with the forward's own ops,
        # so it is bit for bit the forward's xhat
        mode, x, mu, std = cache
        xhat = self._normalize(x, mu, std)
        grads = {"gamma": (dy * xhat).sum(axis=-2), "beta": dy.sum(axis=-2)}
        dx = dy * _rows(self.params["gamma"])
        if mode == "train":
            m1 = dx.mean(axis=-2, keepdims=True)
            m2 = (dx * xhat).mean(axis=-2, keepdims=True)
            dx -= m1
            dx -= xhat * m2
        dx /= std
        return dx, grads

    def spec(self):
        return {"kind": self.kind, "name": self.name, "width": self.width}


class Dropout:
    """Inverted dropout. In a grouped stack `rng` is one stream per group and
    group g draws its mask from `rng[g]`, as its own stack would. The kept
    mask is float64 (a bool mask times a Python float)."""

    kind = "dropout"

    def __init__(self, name, rate):
        if not (0.0 <= rate < 1.0):
            raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
        self.name = name
        self.rate = rate
        self.params = {}
        self.buffers = {}

    def forward(self, x, mode, rng):
        if mode != "train" or self.rate == 0.0:
            return x, None
        if rng is None:
            raise ValueError("dropout in train mode requires an RNG stream")
        if isinstance(rng, RandomStream):
            keep = rng.random(x.shape) >= self.rate
        else:
            keep = np.stack([r.random(x.shape[1:]) for r in rng]) >= self.rate
        scale = 1.0 / (1.0 - self.rate)  # inverted scaling
        y = x * keep
        y *= scale
        return y, keep * scale

    def backward(self, cache, dy):
        if cache is None:
            return dy, {}
        return dy * cache, {}

    def spec(self):
        return {"kind": self.kind, "name": self.name, "rate": self.rate}


class HeldStats:
    """The running-statistic updates of train-mode batch-norm forwards given
    it, held back until `apply` writes them in the order they were taken. A
    forward on another thread that holds its updates writes no buffer, so
    it can run beside a forward that writes its own at once."""

    def __init__(self):
        self.updates: List[Tuple[BatchNorm, np.ndarray, np.ndarray]] = []

    def apply(self) -> None:
        for layer, mu, var in self.updates:
            layer.update_running(mu, var)
        self.updates.clear()


# spec kind -> layer class and the spec fields its constructor takes after the name
_LAYER_KINDS = {
    "dense": (Dense, ("n_in", "n_out")),
    "relu": (Relu, ()),
    "batchnorm": (BatchNorm, ("width",)),
    "dropout": (Dropout, ("rate",)),
}


class MlpStack:
    """A sequence of layers with joint forward/backward over named params.

    A grouped stack (`MlpStack.group`) runs G same-shaped member stacks as
    one, e.g. one encoder per station: every layer holds one (G, ...) array
    per parameter and buffer and acts on a whole (G, n, w) block, and group
    g computes bit for bit what member g computes on its own. The members
    hold views of the group arrays, so params(), buffers() and the gradients
    of backward() keep the members' names, and an optimizer or a checkpoint
    reads and writes the one copy."""

    def __init__(self, layers: List, members: Optional[List["MlpStack"]] = None):
        self.layers = layers
        self.members = members  # the stacks a grouped stack runs, else None

    @staticmethod
    def group(stacks: List["MlpStack"]) -> "MlpStack":
        """Group same-shaped stacks. Their arrays move into the group: each
        stack's layers afterwards hold views of the group arrays, so the
        stacks stay usable and share the group's storage."""
        if not stacks:
            raise ValueError("no stacks to group")
        specs = [[{k: v for k, v in spec.items() if k != "name"} for spec in s.manifest()]
                 for s in stacks]
        if any(s != specs[0] for s in specs):
            raise ValueError("grouped stacks must have the same layers and shapes")
        layers = []
        for peers in zip(*(s.layers for s in stacks)):
            layer = copy.copy(peers[0])
            layer.params = {k: np.stack([p.params[k] for p in peers]) for k in layer.params}
            layer.buffers = {k: np.stack([p.buffers[k] for p in peers]) for k in layer.buffers}
            for g, peer in enumerate(peers):
                peer.params = {k: v[g] for k, v in layer.params.items()}
                peer.buffers = {k: v[g] for k, v in layer.buffers.items()}
            layers.append(layer)
        return MlpStack(layers, list(stacks))

    def forward(self, x, mode="train", rng=None, held: Optional[HeldStats] = None):
        """Dropout layer i draws from `rng.child(f"l{i}")` in train mode; no
        other layer draws, so no other stream is derived. A grouped stack
        takes a (G, n, w) block and one stream per group in `rng`. Eval mode
        keeps the caches too, so a backward can follow it (gradient checks
        run on frozen batch-norm statistics). Given `held`, the batch-norm
        layers hold their running-statistic updates in it."""
        caches = []
        for i, layer in enumerate(self.layers):
            lrng = None
            if mode == "train" and rng is not None and layer.kind == "dropout":
                lrng = rng.child(f"l{i}") if self.members is None else [r.child(f"l{i}") for r in rng]
            if layer.kind == "batchnorm":
                x, cache = layer.forward(x, mode, lrng, held)
            else:
                x, cache = layer.forward(x, mode, lrng)
            caches.append(cache)
        return x, caches

    def backward(self, caches, dy, input_grad=True):
        """Input gradient and named parameter gradients from a forward's caches.
        With `input_grad` False a dense first layer skips its input gradient,
        and None stands in its place."""
        if caches is None:
            raise ValueError("backward needs the caches of a forward pass")
        # numpy's reduction order over n follows the memory layout: a C-ordered
        # block sums each group as its own (n, w) stack would (a transposed
        # view does not when w == 1)
        dy = np.ascontiguousarray(dy)
        grads: Dict[str, np.ndarray] = {}
        for i in range(len(self.layers) - 1, -1, -1):
            layer = self.layers[i]
            if i == 0 and not input_grad and layer.kind == "dense":
                dy, layer_grads = layer.backward(caches[i], dy, input_grad=False)
            else:
                dy, layer_grads = layer.backward(caches[i], dy)
            for pname, g in layer_grads.items():
                if self.members is None:
                    grads[f"{layer.name}.{pname}"] = g
                else:
                    grads.update((f"{m.layers[i].name}.{pname}", gg) for m, gg in zip(self.members, g))
        return dy, grads

    def _named(self, attr) -> Dict[str, np.ndarray]:
        if self.members is not None:
            return {k: v for m in self.members for k, v in m._named(attr).items()}
        return {f"{layer.name}.{k}": v for layer in self.layers for k, v in getattr(layer, attr).items()}

    def params(self) -> Dict[str, np.ndarray]:
        return self._named("params")

    def buffers(self) -> Dict[str, np.ndarray]:
        return self._named("buffers")

    @property
    def n_out(self) -> int:
        """Output width: the last dense layer's."""
        for layer in reversed(self.layers):
            if layer.kind == "dense":
                return layer.n_out
        raise ValueError("a stack without a dense layer has no output width")

    def cast(self, dtype) -> "MlpStack":
        """Deep copy with parameters/buffers cast to dtype (for grad checks)."""
        if self.members is not None:
            return MlpStack.group([m.cast(dtype) for m in self.members])
        clone = copy.deepcopy(self)
        for layer in clone.layers:
            for arrays in (layer.params, layer.buffers):
                for k in arrays:
                    arrays[k] = arrays[k].astype(dtype)
        return clone

    def manifest(self) -> list:
        return [layer.spec() for layer in self.layers]

    def manifests(self) -> list:
        """One manifest per member of a grouped stack."""
        return [m.manifest() for m in self.members]

    @staticmethod
    def from_manifest(manifest: list) -> "MlpStack":
        layers = []
        for s in manifest:
            if s["kind"] not in _LAYER_KINDS:
                raise ValueError(f"unknown layer kind {s['kind']}")
            cls, fields = _LAYER_KINDS[s["kind"]]
            layers.append(cls(s["name"], *(s[f] for f in fields)))
        return MlpStack(layers)


def mlp_blocks(
    prefix: str,
    n_in: int,
    widths: List[int],
    rng: RandomStream,
    dropout_rate: float = 0.3,
    dtype=np.float32,
) -> MlpStack:
    """Repeated (dense -> ReLU -> batch-norm -> dropout) blocks."""
    layers = []
    prev = n_in
    for i, w in enumerate(widths):
        layers.append(Dense(f"{prefix}.b{i}.dense", prev, w, rng.child(f"{prefix}.b{i}"), dtype))
        layers.append(Relu(f"{prefix}.b{i}.relu"))
        layers.append(BatchNorm(f"{prefix}.b{i}.bn", w, dtype))
        layers.append(Dropout(f"{prefix}.b{i}.drop", dropout_rate))
        prev = w
    return MlpStack(layers)


def mlp_head(prefix: str, n_in: int, hidden: int, n_out: int, rng: RandomStream, dtype=np.float32) -> MlpStack:
    """Plain 2-layer MLP (dense -> ReLU -> dense), no BN/dropout."""
    return MlpStack(
        [
            Dense(f"{prefix}.h0", n_in, hidden, rng.child(f"{prefix}.h0"), dtype),
            Relu(f"{prefix}.relu"),
            Dense(f"{prefix}.h1", hidden, n_out, rng.child(f"{prefix}.h1"), dtype),
        ]
    )


# ---------------------------------------------------------------------------
# losses
# ---------------------------------------------------------------------------


def mse_loss(pred: np.ndarray, target: np.ndarray) -> Tuple[float, np.ndarray]:
    diff = pred - target
    loss = float(np.mean(diff**2))
    return loss, 2.0 * diff / diff.size


def masked_mse_loss(pred, target, mask) -> Tuple[float, np.ndarray]:
    """MSE restricted to coordinates where mask is True. Empty mask
    contributes zero loss and zero gradient."""
    m = mask.astype(pred.dtype)
    count = m.sum()
    if count == 0:
        return 0.0, np.zeros_like(pred)
    diff = (pred - target) * m
    loss = float((diff**2).sum() / count)
    return loss, 2.0 * diff / count


# ---------------------------------------------------------------------------
# optimizer and training loop
# ---------------------------------------------------------------------------


class AdamState:
    def __init__(self, params: Dict[str, np.ndarray]):
        self.m = {k: np.zeros_like(v) for k, v in params.items()}
        self.v = {k: np.zeros_like(v) for k, v in params.items()}
        self.t = 0


def adam_step(
    params: Dict[str, np.ndarray],
    grads: Dict[str, np.ndarray],
    state: AdamState,
    learning_rate: float,
) -> None:
    """Standard adaptive-moment update with bias correction, in place."""
    state.t += 1
    bc1 = 1.0 - ADAM_BETA1**state.t
    bc2 = 1.0 - ADAM_BETA2**state.t
    for k, p in params.items():
        g = grads.get(k)
        if g is None:
            continue
        m = state.m[k]
        v = state.v[k]
        m[...] = ADAM_BETA1 * m + (1 - ADAM_BETA1) * g
        v[...] = ADAM_BETA2 * v + (1 - ADAM_BETA2) * g * g
        p[...] = p - learning_rate * (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)


@dataclass
class FitResult:
    history: List[float]
    best_epoch: int
    best_loss: float


def fit_loop(
    params: Dict[str, np.ndarray],
    step_fn: Callable[[np.ndarray, RandomStream], Tuple[float, Dict[str, np.ndarray]]],
    n_samples: int,
    config: TrainConfig,
    rng: RandomStream,
    buffers: Optional[Dict[str, np.ndarray]] = None,
) -> FitResult:
    """Generic mini-batch loop: shuffled batches (last partial kept), Adam
    updates, early stop when the epoch-mean training loss fails to improve
    for `patience` consecutive epochs, best-epoch parameters restored. It runs
    with OpenBLAS on one thread (`core._one_blas_thread`, process-wide), and
    the caller's count is back when it returns or raises."""
    if n_samples < 1:
        raise ValueError("empty training data")
    with _one_blas_thread():
        state = AdamState(params)
        history: List[float] = []
        best_loss = np.inf
        best_epoch = -1
        best_params = None
        best_buffers = None
        stale = 0
        for epoch in range(config.max_epochs):
            erng = rng.child(f"epoch{epoch}")
            perm = erng.child("shuffle").permutation(n_samples)
            total = 0.0
            for b, start in enumerate(range(0, n_samples, config.batch_size)):
                idx = perm[start : start + config.batch_size]
                loss, grads = step_fn(idx, erng.child(f"batch{b}"))
                if not np.isfinite(loss):
                    raise TrainingDiverged(epoch, loss)
                adam_step(params, grads, state, config.learning_rate)
                total += loss * len(idx)
            epoch_loss = total / n_samples
            history.append(epoch_loss)
            if epoch_loss < best_loss:
                best_loss = epoch_loss
                best_epoch = epoch
                best_params = {k: v.copy() for k, v in params.items()}
                best_buffers = None if buffers is None else {k: v.copy() for k, v in buffers.items()}
                stale = 0
            else:
                stale += 1
                if stale >= config.patience:
                    break
        for k, p in params.items():
            p[...] = best_params[k]
        if buffers is not None:
            for k, b in buffers.items():
                b[...] = best_buffers[k]
        return FitResult(history=history, best_epoch=best_epoch, best_loss=best_loss)


def finite_diff_check(
    params: Dict[str, np.ndarray],
    loss_and_grads: Callable[[], Tuple[float, Dict[str, np.ndarray]]],
    h: float = 1e-5,
    n_coords: int = 200,
    rng: Optional[RandomStream] = None,
) -> float:
    """Max relative error between analytic gradients and central differences
    over randomly sampled parameter coordinates. `loss_and_grads` must be a
    deterministic pure function of the current parameter values (dropout off,
    batch-norm on frozen statistics)."""
    rng = rng or RandomStream(0, "fdcheck")
    _, grads = loss_and_grads()
    names = sorted(params.keys())
    sizes = np.array([params[n].size for n in names])
    total = int(sizes.sum())
    picks = rng.integers(0, total, max(min(n_coords, total), 1))
    offsets = np.cumsum(sizes) - sizes
    max_err = 0.0
    for flat in picks:
        li = int(np.searchsorted(offsets, flat, side="right")) - 1
        name = names[li]
        i = int(flat - offsets[li])
        p = params[name]
        orig = p.flat[i]
        p.flat[i] = orig + h
        lp, _ = loss_and_grads()
        p.flat[i] = orig - h
        lm, _ = loss_and_grads()
        p.flat[i] = orig
        fd = (lp - lm) / (2 * h)
        an = float(grads[name].flat[i]) if name in grads else 0.0
        scale = max(abs(fd), abs(an))
        if scale < 1e-8:
            continue
        max_err = max(max_err, abs(fd - an) / scale)
    return max_err


# ---------------------------------------------------------------------------
# checkpoint format (shared array-bundle container)
# ---------------------------------------------------------------------------

_CK_MAGIC = b"SSCK"
_CK_VERSION = 1
# a table entry names its dtype only when it is not "<f4", so float32 bundles keep one format
_CK_DTYPES = ("<f4", "<f8", "|b1")


class CheckpointError(Exception):
    pass


def write_bundle(path, manifest: dict, arrays: Dict[str, np.ndarray]) -> None:
    """Versioned container: magic, version, a JSON manifest and array table, the
    arrays' payloads in name order, and a CRC32 of it all, written piece by piece.
    A dtype not in _CK_DTYPES raises ValueError before the file is opened."""
    names = sorted(arrays)
    blocks = [np.ascontiguousarray(arrays[name]) for name in names]
    table = []
    for name, a in zip(names, blocks):
        if a.dtype.str not in _CK_DTYPES:
            raise ValueError(f"cannot store array {name!r} of dtype {a.dtype.str}, not in {_CK_DTYPES}")
        dtype = {} if a.dtype == "<f4" else {"dtype": a.dtype.str}
        table.append({"name": name, "shape": list(a.shape), **dtype})
    doc = json.dumps({"manifest": manifest, "arrays": table}).encode()
    crc = 0
    with open(path, "wb") as f:
        for part in (_CK_MAGIC + struct.pack("<II", _CK_VERSION, len(doc)) + doc, *blocks):
            f.write(part)
            crc = zlib.crc32(part, crc)
        f.write(struct.pack("<I", crc))


def _check_crc(rest: bytes, crc: int, error) -> None:
    """`rest` is the file after the bytes `crc` covers: payloads, then the CRC."""
    if len(rest) < 4 or zlib.crc32(memoryview(rest)[:-4], crc) != struct.unpack("<I", rest[-4:])[0]:
        raise error("checksum failure")


def read_bundle(path, error=CheckpointError) -> Tuple[dict, Dict[str, np.ndarray]]:
    """Manifest and private arrays of a bundle; every failure raises `error`. The
    magic, the version and the size the header and table imply are checked before
    any payload is read, so a cut file reports truncation, not a checksum failure.
    Arrays are read into their own buffers with a running CRC; bools must be 0 or 1."""
    with open(path, "rb") as f:
        size = os.fstat(f.fileno()).st_size
        head = f.read(12)
        if size < 16:
            raise error(f"truncated file: {size} bytes")
        if head[:4] != _CK_MAGIC:
            raise error(f"bad magic {head[:4]!r}, expected {_CK_MAGIC!r}")
        version, doc_len = struct.unpack("<II", head[4:])
        need = 16 + doc_len  # header and CRC, before the table adds its payloads
        if size < need:
            raise error(f"truncated file: {size} bytes, its header needs {need}")
        raw = f.read(doc_len)
        crc = zlib.crc32(raw, zlib.crc32(head))
        try:
            if version != _CK_VERSION:
                raise ValueError(f"unsupported version {version}")
            doc = json.loads(raw)
            manifest = {**doc["manifest"]}  # TypeError unless a JSON object
            table = [(e["name"], e["shape"], np.dtype(e.get("dtype", "<f4"))) for e in doc["arrays"]]
            if any(dt.str not in _CK_DTYPES or min(shape, default=0) < 0 for _, shape, dt in table):
                raise ValueError(f"an array has a negative dimension or a dtype not in {_CK_DTYPES}")
            need += sum(dt.itemsize * math.prod(shape) for _, shape, dt in table)
            if size != need:
                cut = "truncated file" if size < need else "file size mismatch"
                raise error(f"{cut}: {size} bytes, header and table imply {need}")
            blocks = [np.empty(shape, dt) for _, shape, dt in table]
        except (ValueError, KeyError, TypeError) as exc:  # corrupt header: checksum failure; intact: malformed
            _check_crc(f.read(), crc, error)
            raise error(f"malformed header: {exc!r}") from exc
        for a in blocks:
            f.readinto(a)
            crc = zlib.crc32(a, crc)
        _check_crc(f.read(), crc, error)
    arrays = {name: a for (name, _, _), a in zip(table, blocks)}
    for name, a in arrays.items():
        if a.dtype == bool and (a.view(np.uint8) > 1).any():
            raise error(f"bool array {name!r} holds bytes other than 0 and 1")
    return manifest, arrays
