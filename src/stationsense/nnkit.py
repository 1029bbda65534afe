"""Minimal differentiable MLP stack with manual reverse-mode gradients.

Covers exactly what the training recipes need: dense layers, ReLU, batch
normalization, inverted dropout, MSE-style losses, Adam, a training loop with
train-loss early stopping, and a central-difference gradient checker.
`GroupedStack` runs G same-shaped stacks (one per station) as one, with a
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
import struct
import zlib
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from .core import RandomStream

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
        return x @ self.params["w"] + self.params["b"], x

    def backward(self, cache, dy):
        x = cache
        grads = {"w": x.T @ dy, "b": dy.sum(axis=0)}
        return dy @ self.params["w"].T, grads

    def spec(self):
        return {"kind": self.kind, "name": self.name, "n_in": self.n_in, "n_out": self.n_out}


class Relu:
    kind = "relu"

    def __init__(self, name):
        self.name = name
        self.params = {}
        self.buffers = {}

    def forward(self, x, mode, rng):
        return np.maximum(x, 0), x > 0  # 0 subgradient at the kink

    def backward(self, cache, dy):
        return dy * cache, {}

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

    def forward(self, x, mode, rng):
        if mode == "train":
            mu = x.mean(axis=0)
            var = x.var(axis=0)  # biased (1/n) batch estimator
            self.buffers["running_mean"][...] = (
                BN_MOMENTUM * self.buffers["running_mean"] + (1 - BN_MOMENTUM) * mu
            )
            self.buffers["running_var"][...] = (
                BN_MOMENTUM * self.buffers["running_var"] + (1 - BN_MOMENTUM) * var
            )
        else:
            mu = self.buffers["running_mean"]
            var = self.buffers["running_var"]
        std = np.sqrt(var + BN_EPS)
        xhat = (x - mu) / std
        y = self.params["gamma"] * xhat + self.params["beta"]
        return y, (mode, xhat, std)

    def backward(self, cache, dy):
        mode, xhat, std = cache
        gamma = self.params["gamma"]
        grads = {"gamma": (dy * xhat).sum(axis=0), "beta": dy.sum(axis=0)}
        if mode == "train":
            dxhat = dy * gamma
            dx = (
                dxhat - dxhat.mean(axis=0) - xhat * (dxhat * xhat).mean(axis=0)
            ) / std
        else:
            dx = dy * gamma / std
        return dx, grads

    def spec(self):
        return {"kind": self.kind, "name": self.name, "width": self.width}


class Dropout:
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
        keep = rng.random(x.shape) >= self.rate
        scale = 1.0 / (1.0 - self.rate)  # inverted scaling
        return x * keep * scale, keep * scale

    def backward(self, cache, dy):
        if cache is None:
            return dy, {}
        return dy * cache, {}

    def spec(self):
        return {"kind": self.kind, "name": self.name, "rate": self.rate}


# spec kind -> layer class and the spec fields its constructor takes after the name
_LAYER_KINDS = {
    "dense": (Dense, ("n_in", "n_out")),
    "relu": (Relu, ()),
    "batchnorm": (BatchNorm, ("width",)),
    "dropout": (Dropout, ("rate",)),
}


class MlpStack:
    """A sequence of layers with joint forward/backward over named params."""

    def __init__(self, layers: List):
        self.layers = layers

    def forward(self, x, mode="train", rng: Optional[RandomStream] = None):
        """Dropout layer i draws from `rng.child(f"l{i}")` in train mode; no
        other layer draws, so no other stream is derived."""
        caches = []
        for i, layer in enumerate(self.layers):
            lrng = None
            if mode == "train" and rng is not None and layer.kind == "dropout":
                lrng = rng.child(f"l{i}")
            x, cache = layer.forward(x, mode, lrng)
            caches.append(cache)
        return x, caches

    def backward(self, caches, dy):
        grads: Dict[str, np.ndarray] = {}
        for layer, cache in zip(reversed(self.layers), reversed(caches)):
            dy, layer_grads = layer.backward(cache, dy)
            for pname, g in layer_grads.items():
                grads[f"{layer.name}.{pname}"] = g
        return dy, grads

    def params(self) -> Dict[str, np.ndarray]:
        out = {}
        for layer in self.layers:
            for pname, p in layer.params.items():
                out[f"{layer.name}.{pname}"] = p
        return out

    def buffers(self) -> Dict[str, np.ndarray]:
        out = {}
        for layer in self.layers:
            for bname, b in layer.buffers.items():
                out[f"{layer.name}.{bname}"] = b
        return out

    def cast(self, dtype) -> "MlpStack":
        """Deep copy with parameters/buffers cast to dtype (for grad checks)."""
        clone = copy.deepcopy(self)
        for layer in clone.layers:
            for k in layer.params:
                layer.params[k] = layer.params[k].astype(dtype)
            for k in layer.buffers:
                layer.buffers[k] = layer.buffers[k].astype(dtype)
        return clone

    def manifest(self) -> list:
        return [layer.spec() for layer in self.layers]

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
# grouped stack: G same-shaped stacks as one
# ---------------------------------------------------------------------------


class _GroupedLayer:
    """One layer of G same-shaped stacks: each parameter and buffer is one
    (G, ...) array. It acts on a (G, n, w) block and may overwrite its
    input, which is always the previous layer's fresh output (a GroupedStack
    starts with a dense layer, which never writes to its input)."""

    def __init__(self, peers: List):
        self.kind = peers[0].kind
        self.specs = [p.spec() for p in peers]  # per-group specs, names included
        self.names = [s["name"] for s in self.specs]
        self.params = {k: np.stack([p.params[k] for p in peers]) for k in peers[0].params}
        self.buffers = {k: np.stack([p.buffers[k] for p in peers]) for k in peers[0].buffers}


class _GroupedDense(_GroupedLayer):
    def forward(self, x, train, rngs):
        y = x @ self.params["w"]
        y += self.params["b"][:, None]
        return y, x

    def backward(self, x, dy, need_dx):
        grads = {"w": x.transpose(0, 2, 1) @ dy, "b": dy.sum(axis=1)}
        return (dy @ self.params["w"].transpose(0, 2, 1) if need_dx else None), grads


class _GroupedRelu(_GroupedLayer):
    def forward(self, x, train, rngs):
        mask = x > 0 if train else None  # 0 subgradient at the kink
        return np.maximum(x, 0, out=x), mask

    def backward(self, mask, dy, need_dx):
        return dy * mask, {}


class _GroupedBatchNorm(_GroupedLayer):
    """Per-group statistics over the n axis; running buffers are (G, w)."""

    def forward(self, x, train, rngs):
        rm, rv = self.buffers["running_mean"], self.buffers["running_var"]
        if train:
            mu = x.mean(axis=1)
            var = x.var(axis=1)  # biased (1/n) batch estimator
            rm[...] = BN_MOMENTUM * rm + (1 - BN_MOMENTUM) * mu
            rv[...] = BN_MOMENTUM * rv + (1 - BN_MOMENTUM) * var
        else:
            mu, var = rm, rv
        std = np.sqrt(var + BN_EPS)[:, None]
        xhat = x
        xhat -= mu[:, None]
        xhat /= std
        gamma, beta = self.params["gamma"][:, None], self.params["beta"][:, None]
        if not train:
            xhat *= gamma
            xhat += beta
            return xhat, None
        y = xhat * gamma
        y += beta
        return y, (xhat, std)

    def backward(self, cache, dy, need_dx):
        xhat, std = cache
        grads = {"gamma": (dy * xhat).sum(axis=1), "beta": dy.sum(axis=1)}
        dx = dy * self.params["gamma"][:, None]
        m1 = dx.mean(axis=1, keepdims=True)
        m2 = (dx * xhat).mean(axis=1, keepdims=True)
        dx -= m1
        dx -= xhat * m2
        dx /= std
        return dx, grads


class _GroupedDropout(_GroupedLayer):
    """Group g draws its mask from its own stream `rngs[g]`, exactly as its
    own stack would; the kept mask is float64, as in Dropout."""

    def forward(self, x, train, rngs):
        rate = self.specs[0]["rate"]
        if not train or rate == 0.0:
            return x, None
        if rngs is None:
            raise ValueError("dropout in train mode requires an RNG stream")
        keep = np.stack([r.random(x.shape[1:]) for r in rngs]) >= rate
        scale = 1.0 / (1.0 - rate)  # inverted scaling
        x *= keep
        x *= scale
        return x, keep * scale

    def backward(self, mask, dy, need_dx):
        if mask is None:
            return dy, {}
        return dy * mask, {}


_GROUPED_KINDS = {
    "dense": _GroupedDense,
    "relu": _GroupedRelu,
    "batchnorm": _GroupedBatchNorm,
    "dropout": _GroupedDropout,
}


class GroupedStack:
    """G same-shaped MlpStacks run as one, e.g. one encoder per station.

    Every layer holds one (G, ...) array per parameter and acts on a whole
    (G, n, w) block: dense layers are one np.matmul over the leading group
    axis, batch norm keeps per-group statistics, dropout draws group g's
    mask from `rngs[g]`. Group g computes bit for bit what its own MlpStack
    computes. Eval mode is inference only: it keeps no caches and works in
    place on each layer's fresh output.

    Parameters keep their per-group names: params(), buffers() and the
    gradients of backward() are keyed `<group layer name>.<param>` and are
    views of the group arrays, so an optimizer or a checkpoint reads and
    writes the one copy."""

    def __init__(self, layers: List[_GroupedLayer]):
        if not layers or layers[0].kind != "dense":
            raise ValueError("a grouped stack must start with a dense layer")
        self.layers = layers

    @staticmethod
    def stack(stacks: List[MlpStack]) -> "GroupedStack":
        """Group same-shaped stacks. Their arrays move into the group: each
        stack's layers afterwards hold views of the group arrays, so the
        stacks stay usable and share the group's storage."""
        if not stacks:
            raise ValueError("no stacks to group")
        specs = [[{k: v for k, v in layer.spec().items() if k != "name"} for layer in s.layers]
                 for s in stacks]
        if any(s != specs[0] for s in specs):
            raise ValueError("grouped stacks must have the same layers and shapes")
        layers = []
        for peers in zip(*(s.layers for s in stacks)):
            layer = _GROUPED_KINDS[peers[0].kind](list(peers))
            for g, peer in enumerate(peers):
                peer.params = {k: v[g] for k, v in layer.params.items()}
                peer.buffers = {k: v[g] for k, v in layer.buffers.items()}
            layers.append(layer)
        return GroupedStack(layers)

    def forward(self, x, mode="train", rngs: Optional[List[RandomStream]] = None):
        """(G, n, w_in) block -> (G, n, w_out) block plus caches (None in
        eval mode). `rngs` holds one stream per group; layer i of group g
        draws from `rngs[g].child(f"l{i}")`, as MlpStack.forward does."""
        train = mode == "train"
        caches = [] if train else None
        for i, layer in enumerate(self.layers):
            lrngs = None
            if train and rngs is not None and layer.kind == "dropout":
                lrngs = [r.child(f"l{i}") for r in rngs]
            x, cache = layer.forward(x, train, lrngs)
            if train:
                caches.append(cache)
        return x, caches

    def backward(self, caches, dy) -> Dict[str, np.ndarray]:
        """Per-group parameter gradients from train-mode caches and the
        (G, n, w_out) output gradient. No caller needs the gradient with
        respect to the stack's input, so it is not computed."""
        if caches is None:
            raise ValueError("backward needs the caches of a train-mode forward")
        # numpy's reduction order over n follows the memory layout: a C-ordered
        # block sums each group as its own (n, w) stack would (a transposed
        # view does not when w == 1)
        dy = np.ascontiguousarray(dy)
        grads: Dict[str, np.ndarray] = {}
        for i in range(len(self.layers) - 1, -1, -1):
            layer = self.layers[i]
            dy, layer_grads = layer.backward(caches[i], dy, i > 0)
            for pname, g in layer_grads.items():
                grads.update((f"{name}.{pname}", gg) for name, gg in zip(layer.names, g))
        return grads

    def _named(self, attr) -> Dict[str, np.ndarray]:
        return {
            f"{layer.names[g]}.{k}": v[g]
            for g in range(len(self.layers[0].names))
            for layer in self.layers
            for k, v in getattr(layer, attr).items()
        }

    def params(self) -> Dict[str, np.ndarray]:
        return self._named("params")

    def buffers(self) -> Dict[str, np.ndarray]:
        return self._named("buffers")

    def cast(self, dtype) -> "GroupedStack":
        """Deep copy with parameters/buffers cast to dtype."""
        clone = copy.deepcopy(self)
        for layer in clone.layers:
            for arrays in (layer.params, layer.buffers):
                for k in arrays:
                    arrays[k] = arrays[k].astype(dtype)
        return clone

    def manifests(self) -> list:
        """One MlpStack manifest per group."""
        return [list(specs) for specs in zip(*(layer.specs for layer in self.layers))]


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
    for `patience` consecutive epochs, best-epoch parameters restored."""
    if n_samples < 1:
        raise ValueError("empty training data")
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


def fit(
    stack: MlpStack,
    x: np.ndarray,
    y: np.ndarray,
    loss_fn,
    config: TrainConfig,
    rng: RandomStream,
) -> FitResult:
    """Supervised convenience wrapper over fit_loop for a single stack."""

    def step(idx, srng):
        pred, caches = stack.forward(x[idx], "train", srng.child("fwd"))
        loss, dpred = loss_fn(pred, y[idx])
        _, grads = stack.backward(caches, dpred)
        return loss, grads

    return fit_loop(stack.params(), step, len(x), config, rng.child("fit"), stack.buffers())


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


class CheckpointError(Exception):
    pass


def write_bundle(path, manifest: dict, arrays: Dict[str, np.ndarray]) -> None:
    """Versioned container: JSON manifest + float32 array payloads + CRC32."""
    table = []
    payload = bytearray()
    for name in sorted(arrays.keys()):
        a = np.ascontiguousarray(arrays[name], dtype="<f4")
        table.append({"name": name, "shape": list(a.shape)})
        payload += a.tobytes()
    doc = json.dumps({"manifest": manifest, "arrays": table}).encode()
    buf = bytearray()
    buf += _CK_MAGIC
    buf += struct.pack("<II", _CK_VERSION, len(doc))
    buf += doc
    buf += payload
    buf += struct.pack("<I", zlib.crc32(bytes(buf)))
    with open(path, "wb") as f:
        f.write(bytes(buf))


def read_bundle(path) -> Tuple[dict, Dict[str, np.ndarray]]:
    with open(path, "rb") as f:
        raw = f.read()
    if len(raw) < 16 or raw[:4] != _CK_MAGIC:
        raise CheckpointError("not a checkpoint file")
    (crc_stored,) = struct.unpack("<I", raw[-4:])
    if zlib.crc32(raw[:-4]) != crc_stored:
        raise CheckpointError("checksum failure")
    version, doc_len = struct.unpack("<II", raw[4:12])
    if version != _CK_VERSION:
        raise CheckpointError(f"unsupported checkpoint version {version}")
    try:
        doc = json.loads(raw[12 : 12 + doc_len])
        manifest = doc["manifest"]
        arrays = {}
        off = 12 + doc_len
        for entry in doc["arrays"]:
            shape = tuple(entry["shape"])
            count = int(np.prod(shape)) if shape else 1
            arrays[entry["name"]] = np.frombuffer(raw, "<f4", count, off).reshape(shape).copy()
            off += count * 4
    except (ValueError, KeyError, TypeError) as exc:
        raise CheckpointError(f"malformed checkpoint header: {exc!r}") from exc
    if off != len(raw) - 4:
        raise CheckpointError("payload size does not match manifest")
    return manifest, arrays
