"""Self-supervised pre-training of the multi-station feature extractor.

Two views of each sample are produced by independently masking per-station
embeddings, both views are fused by the shared aggregator, and a
variance/invariance/covariance loss is minimized so that the global embedding
becomes invariant to which stations are present. Each loss term has one
implementation, the `_grad` function that pre-training calls: it returns the
term's value together with its gradient. Learnable station encoders
are one grouped nnkit.MlpStack over the station axis, so encoding a batch is
one batched forward (and one backward) for all stations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from .core import RandomStream, _Lanes, sample_mask_matrix
from .nnkit import DROPOUT_RATE, FitResult, HeldStats, MlpStack, TrainConfig, fit_loop, mlp_blocks
from .pipeline import Dataset


@dataclass(frozen=True)
class VicregWeights:
    lam: float = 5.4  # variance weight
    mu: float = 34.0  # invariance weight
    nu: float = 1.4e-2  # covariance weight
    gamma: float = 1.0  # target std
    epsilon: float = 1e-4  # variance regularizer

    def __post_init__(self):
        for v in (self.lam, self.mu, self.nu, self.gamma, self.epsilon):
            if not np.isfinite(v) or v < 0:
                raise ValueError("loss weights must be finite and non-negative")


def _check_batch(z: np.ndarray) -> np.ndarray:
    z = np.asarray(z)
    if z.ndim != 2 or z.shape[0] < 2:
        raise ValueError("embedding batch must be 2-D with n >= 2 rows")
    return z


def vicreg_variance_grad(z, gamma: float = VicregWeights.gamma, epsilon: float = VicregWeights.epsilon):
    """Hinge on the regularized per-dimension std: (1/l) sum_j max(0, gamma -
    sqrt(Var(z_:,j) + eps)). Var is the unbiased (1/(n-1)) estimator.
    Returns (value, d value / dz)."""
    z = _check_batch(z)
    n, l = z.shape
    zc = z - z.mean(axis=0)
    s = np.sqrt(zc.var(axis=0, ddof=1) + epsilon)
    val = float(np.maximum(0.0, gamma - s).mean())
    active = (gamma - s) > 0  # 0 subgradient at the hinge kink
    dz = np.where(active, -1.0 / (l * s * (n - 1)), 0.0) * zc
    return val, dz


def vicreg_invariance_grad(z, z2):
    """(1/n) sum_i ||z_i - z'_i||^2. Returns (value, d/dz, d/dz')."""
    z = np.asarray(z)
    z2 = np.asarray(z2)
    if z.shape != z2.shape:
        raise ValueError("embedding batches must have equal shapes")
    val = float(((z - z2) ** 2).sum() / z.shape[0])
    d = 2.0 * (z - z2) / z.shape[0]
    return val, d, -d


def vicreg_covariance_grad(z):
    """(1/l) sum of squared off-diagonal entries of the (1/(n-1)) sample
    covariance matrix. Returns (value, d value / dz)."""
    z = _check_batch(z)
    n, l = z.shape
    zc = z - z.mean(axis=0)
    c = zc.T @ zc / (n - 1)
    off = c - np.diag(np.diag(c))
    val = float((off**2).sum() / l)
    # centered columns sum to zero, so the mean-centering correction vanishes
    dz = zc @ off * (4.0 / (l * (n - 1)))
    return val, dz


def vicreg_loss_grads(z, z2, w: VicregWeights):
    """The view-agreement loss lam * (v(z) + v(z')) + mu * s(z, z') +
    nu * (c(z) + c(z')) and its gradients: (loss, d/dz, d/dz')."""
    v1, dv1 = vicreg_variance_grad(z, w.gamma, w.epsilon)
    v2, dv2 = vicreg_variance_grad(z2, w.gamma, w.epsilon)
    s, ds1, ds2 = vicreg_invariance_grad(z, z2)
    c1, dc1 = vicreg_covariance_grad(z)
    c2, dc2 = vicreg_covariance_grad(z2)
    loss = w.lam * (v1 + v2) + w.mu * s + w.nu * (c1 + c2)
    dz = w.lam * dv1 + w.mu * ds1 + w.nu * dc1
    dz2 = w.lam * dv2 + w.mu * ds2 + w.nu * dc2
    return loss, dz, dz2


class FeatureExtractor:
    """Per-station encoders (identity, or one MLP per station run together
    as a grouped MlpStack) plus a shared aggregator over the concatenated station
    embeddings."""

    def __init__(
        self,
        n_stations: int,
        input_dim: int,
        aggregator: MlpStack,
        encoders: Optional[MlpStack] = None,
    ):
        self.n_stations = n_stations
        self.input_dim = input_dim
        self.encoders = encoders
        self.aggregator = aggregator
        self.encoder_dim = input_dim if encoders is None else encoders.n_out
        self.embedding_dim = aggregator.n_out

    @property
    def identity_encoders(self) -> bool:
        return self.encoders is None

    def encode_batch(self, xb: np.ndarray, mode: str, rng: Optional[RandomStream]):
        """(n, N_d, K) -> (n, N_d, e) embeddings plus caches. Station d's
        encoder draws from `rng.child(f"enc{d}")`."""
        if xb.shape[1] != self.n_stations or xb.shape[2] != self.input_dim:
            raise ValueError(
                f"batch shape {xb.shape} incompatible with extractor "
                f"({self.n_stations} stations x {self.input_dim})"
            )
        if self.identity_encoders:
            return xb, None
        rngs = None if rng is None else [rng.child(f"enc{d}") for d in range(self.n_stations)]
        q, caches = self.encoders.forward(xb.transpose(1, 0, 2), mode, rngs)
        return q.transpose(1, 0, 2), caches

    def encode_backward(self, caches, dq: np.ndarray) -> Dict[str, np.ndarray]:
        if self.identity_encoders:
            return {}
        return self.encoders.backward(caches, dq.transpose(1, 0, 2), input_grad=False)[1]

    def aggregate_batch(
        self, qb: np.ndarray, mode: str, rng: Optional[RandomStream], held: Optional[HeldStats] = None
    ):
        """Given `held`, the aggregator's batch-norm layers hold their
        running-statistic updates in it (see MlpStack.forward)."""
        n = qb.shape[0]
        flat = qb.reshape(n, self.n_stations * self.encoder_dim)
        return self.aggregator.forward(flat, mode, rng, held)

    def aggregate_backward(self, caches, dz: np.ndarray):
        dflat, grads = self.aggregator.backward(caches, dz)
        return dflat.reshape(-1, self.n_stations, self.encoder_dim), grads

    def embed(self, xb: np.ndarray) -> np.ndarray:
        """(n, N_d, K) -> (n, embedding_dim) embeddings, in inference mode."""
        q, _ = self.encode_batch(xb, "eval", None)
        z, _ = self.aggregate_batch(q, "eval", None)
        return z

    def params(self) -> Dict[str, np.ndarray]:
        out = dict(self.aggregator.params())
        if self.encoders is not None:
            out.update(self.encoders.params())
        return out

    def buffers(self) -> Dict[str, np.ndarray]:
        out = dict(self.aggregator.buffers())
        if self.encoders is not None:
            out.update(self.encoders.buffers())
        return out

    def cast(self, dtype) -> "FeatureExtractor":
        return FeatureExtractor(
            self.n_stations,
            self.input_dim,
            self.aggregator.cast(dtype),
            None if self.encoders is None else self.encoders.cast(dtype),
        )


def build_extractor(
    n_stations: int,
    input_dim: int,
    rng: RandomStream,
    embedding_dim: int = 64,
    aggregator_hidden: Tuple[int, int] = (256, 128),
    encoder_widths: Optional[Tuple[int, ...]] = None,
    dropout_rate: float = DROPOUT_RATE,
) -> FeatureExtractor:
    """Identity station encoders by default (inputs are already aggregated
    amplitude vectors); set encoder_widths for learnable per-station MLPs,
    built station by station (station d from `rng.child(f"enc{d}")`) and
    grouped into one MlpStack."""
    encoders = None
    if encoder_widths:
        encoders = MlpStack.group([
            mlp_blocks(f"enc{d}", input_dim, list(encoder_widths), rng.child(f"enc{d}"), dropout_rate)
            for d in range(n_stations)
        ])
    aggregator = mlp_blocks(
        "agg",
        n_stations * (input_dim if encoders is None else encoders.n_out),
        list(aggregator_hidden) + [embedding_dim],
        rng.child("agg"),
        dropout_rate,
    )
    return FeatureExtractor(n_stations, input_dim, aggregator, encoders)


def pretrain(
    fx: FeatureExtractor,
    unlabeled: Dataset,
    p_mask: float,
    w: VicregWeights,
    tc: TrainConfig,
    rng: RandomStream,
) -> FitResult:
    """Minimize the view-agreement loss over encoder + aggregator parameters.

    Per sample and mini-batch, two masking sets are drawn independently and
    applied at the embedding level; both masked views pass through the shared
    aggregator.

    Each step's two aggregator forwards, then its two backwards, are one
    `core._Lanes.map` on lanes held for the whole fit. View 2 holds its
    batch-norm running-statistic updates until view 1 has written its own, and
    the gradients are summed view 1 first: the fit is bit for bit one lane's."""
    if unlabeled.n < 2:
        raise ValueError("pre-training requires at least 2 unlabeled samples")
    if not (0.0 <= p_mask <= 1.0):
        raise ValueError(f"p_mask must be in [0, 1], got {p_mask}")
    x_all = np.asarray(unlabeled.x, np.float32)

    def step(idx, srng):
        q, enc_caches = fx.encode_batch(x_all[idx], "train", srng.child("enc"))
        keep1, keep2 = (~sample_mask_matrix(p_mask, len(idx), fx.n_stations, srng.child(f"mask{v}"))[:, :, None]
                        for v in (1, 2))
        held = HeldStats()
        (z1, c1), (z2, c2) = lanes.map(lambda view: fx.aggregate_batch(*view), [
            (q * keep1, "train", srng.child("agg1")),
            (q * keep2, "train", srng.child("agg2"), held),
        ])
        held.apply()
        loss, dz1, dz2 = vicreg_loss_grads(z1, z2, w)
        (dq1, g1), (dq2, g2) = lanes.map(lambda view: fx.aggregate_backward(*view), [(c1, dz1), (c2, dz2)])
        grads = {k: g1[k] + g2[k] for k in g1}
        dq = dq1 * keep1 + dq2 * keep2
        grads.update(fx.encode_backward(enc_caches, dq))
        return loss, grads

    with _Lanes() as lanes:
        return fit_loop(fx.params(), step, unlabeled.n, tc, rng.child("pretrain"), fx.buffers())
