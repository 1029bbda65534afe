"""Spans around stationsense's public functions and methods, and the
per-layer metrics computed from them.

A `Tracer` replaces module and class attributes of the program with timing
wrappers for one traced pass and puts every original back afterwards. Each
call becomes a `Span` (name, start, end, parent span, run id, work counts)
kept in memory; per-layer metrics are computed from the span list once the
pass is over. Nothing here edits the program's source.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time
import types
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

PACKAGE = "stationsense"


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span in the span list, -1 at top level
    run: str
    info: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


# ---------------------------------------------------------------------------
# work counts taken from a call's arguments and result
# ---------------------------------------------------------------------------


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def dense_fwd_gflop(n: int, n_in: int, n_out: int) -> float:
    """Multiply-adds of x @ w for an (n, n_in) batch: 2 n n_in n_out."""
    return 2.0 * n * n_in * n_out / 1e9


def dense_bwd_gflop(n: int, n_in: int, n_out: int) -> float:
    """x.T @ dy plus dy @ w.T: 4 n n_in n_out."""
    return 4.0 * n * n_in * n_out / 1e9


def _dense_fwd(args, kwargs, result):
    layer, x = args[0], _arg(args, kwargs, 1, "x")
    return {"gflop": dense_fwd_gflop(x.shape[0], layer.n_in, layer.n_out)}


def _dense_bwd(args, kwargs, result):
    layer, dy = args[0], _arg(args, kwargs, 2, "dy")
    return {"gflop": dense_bwd_gflop(dy.shape[0], layer.n_in, layer.n_out)}


def _rows(args, kwargs, result):
    return {"rows": int(np.shape(_arg(args, kwargs, 1, "xb"))[0])}


def _eval_rows(args, kwargs, result):
    return {"test_rows": int(_arg(args, kwargs, 1, "test").n)}


def _frames(args, kwargs, result):
    return {"frames": sum(len(s) for s in result)}


def _windows(args, kwargs, result):
    datasets = result if isinstance(result, tuple) else (result,)
    return {"windows": sum(d.n for d in datasets)}


def _saved_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(_arg(args, kwargs, 1, "path"))}


def _loaded_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(_arg(args, kwargs, 0, "path"))}


STEP = "nnkit.fit.step"
_INHERITED = object()  # marks a method a class took from its base

# (owner, attribute, span name, work counts). The owner is a module of the
# package or a class in one; a module-level function is also replaced in
# every other module that imported it by name.
TARGETS: Tuple[Tuple[str, str, str, Optional[Callable]], ...] = (
    ("nnkit.Dense", "forward", "nnkit.dense.fwd", _dense_fwd),
    ("nnkit.Dense", "backward", "nnkit.dense.bwd", _dense_bwd),
    ("nnkit.BatchNorm", "forward", "nnkit.batchnorm.fwd", None),
    ("nnkit.BatchNorm", "backward", "nnkit.batchnorm.bwd", None),
    ("nnkit.Relu", "forward", "nnkit.relu.fwd", None),
    ("nnkit.Relu", "backward", "nnkit.relu.bwd", None),
    ("nnkit.Dropout", "forward", "nnkit.dropout.fwd", None),
    ("nnkit.Dropout", "backward", "nnkit.dropout.bwd", None),
    ("nnkit", "adam_step", "nnkit.adam", None),
    ("nnkit", "fit_loop", "nnkit.fit", None),
    ("crossl", "pretrain", "crossl.pretrain", None),
    ("crossl.FeatureExtractor", "encode_batch", "crossl.encode", None),
    ("crossl.FeatureExtractor", "encode_backward", "crossl.encode_bwd", None),
    ("crossl.FeatureExtractor", "aggregate_batch", "crossl.aggregate", None),
    ("crossl.FeatureExtractor", "aggregate_backward", "crossl.aggregate_bwd", None),
    ("crossl", "vicreg_loss_grads", "crossl.vicreg", None),
    ("crossl.FeatureExtractor", "embed", "crossl.embed", None),
    ("core.RandomStream", "__init__", "core.rng", None),
    ("core", "sample_mask_matrix", "core.mask", None),
    ("downstream", "train_downstream", "downstream.train", None),
    ("downstream", "sma_augment_batch", "downstream.augment", None),
    ("downstream", "random_erase_batch", "downstream.augment", None),
    ("downstream.SensingModel", "predict", "downstream.predict", _rows),
    ("downstream.EnsembleModel", "predict", "downstream.predict", _rows),
    ("downstream.ConstantModel", "predict", "downstream.predict", _rows),
    ("downstream.InpaintingModel", "predict", "downstream.predict", _rows),
    ("harness", "eval_at_availability", "harness.eval", _eval_rows),
    ("synth", "gen_csi_streams", "synth.streams", _frames),
    ("pipeline", "preprocess_stream", "pipeline.preprocess", None),
    ("pipeline", "build_labeled_dataset", "pipeline.build", _windows),
    ("pipeline", "build_unlabeled_dataset", "pipeline.build", _windows),
    ("pipeline", "save_dataset", "pipeline.save", _saved_bytes),
    ("pipeline", "load_dataset", "pipeline.load", _loaded_bytes),
)


def _resolve(owner: str):
    """The module or class named by `owner`, or None when it no longer exists."""
    module_name, _, class_name = owner.partition(".")
    try:
        obj = importlib.import_module(f"{PACKAGE}.{module_name}")
    except ImportError:
        return None
    return getattr(obj, class_name, None) if class_name else obj


def _package_modules():
    prefix = PACKAGE + "."
    return [m for name, m in list(sys.modules.items()) if name == PACKAGE or name.startswith(prefix)]


class Tracer:
    """Records spans while installed; `install`/`uninstall` bracket one pass."""

    def __init__(self, run_id: str, targets: Sequence[tuple] = TARGETS):
        self.run_id = run_id
        self.targets = targets
        self.spans: List[Span] = []
        self.absent: List[str] = []  # span names none of whose targets exist
        self.count_errors: List[str] = []
        self._stack: List[int] = []
        self._saved: List[Tuple[object, str, object]] = []

    # -- recording --------------------------------------------------------

    def _open(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else -1
        span = Span(name, 0.0, 0.0, parent, self.run_id)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span.start = time.perf_counter()
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn, name: str, counts: Optional[Callable]):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if name == "nnkit.fit":
                args, kwargs = tracer._wrap_step(args, kwargs)
            span = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(span)
            if counts is not None:
                try:
                    span.info.update(counts(args, kwargs, result))
                except Exception as exc:  # noqa: BLE001 - a changed signature must not fail the run
                    tracer.count_errors.append(f"{name}: {exc!r}")
            return result

        return traced

    def _wrap_step(self, args, kwargs):
        """fit_loop(params, step_fn, ...): time each training step too."""
        step_fn = args[1] if len(args) > 1 else kwargs.get("step_fn")
        if not callable(step_fn):
            return args, kwargs

        def step(idx, rng):
            span = self._open(STEP)
            try:
                return step_fn(idx, rng)
            finally:
                self._close(span)

        if len(args) > 1:
            return args[:1] + (step,) + args[2:], kwargs
        return args, {**kwargs, "step_fn": step}

    # -- installing -------------------------------------------------------

    def install(self) -> None:
        present = set()
        for owner_name, attr, name, counts in self.targets:
            owner = _resolve(owner_name)
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                continue
            present.add(name)
            wrapper = self._wrap(original, name, counts)
            owners = [owner]
            if isinstance(owner, types.ModuleType):  # a function: every module binding it
                owners = [m for m in _package_modules() if getattr(m, attr, None) is original]
            for o in owners:
                self._saved.append((o, attr, o.__dict__.get(attr, _INHERITED)))
                setattr(o, attr, wrapper)
        self.absent = sorted({t[2] for t in self.targets} - present)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            if original is _INHERITED:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False


# ---------------------------------------------------------------------------
# span arithmetic
# ---------------------------------------------------------------------------


def _nearest(spans: List[Span], i: int, names: Iterable[str]) -> int:
    """Index of the closest enclosing span of span i whose name is in `names`."""
    p = spans[i].parent
    while p >= 0 and spans[p].name not in names:
        p = spans[p].parent
    return p


def outermost(spans: List[Span], name: str) -> List[int]:
    """Spans called `name` not enclosed by another span of the same name, so a
    model whose predict calls its members' predict counts once."""
    return [i for i, s in enumerate(spans) if s.name == name and _nearest(spans, i, {name}) < 0]


def exclusive_time(spans: List[Span], parent: str, children: Sequence[str]) -> float:
    """Time inside outermost `parent` spans not covered by the first layer of
    `children` spans beneath them (deeper nesting is already inside those)."""
    tops = set(outermost(spans, parent))
    total = sum(spans[i].duration for i in tops)
    stop = set(children) | {parent}
    for i, s in enumerate(spans):
        if s.name in children and _nearest(spans, i, stop) in tops:
            total -= s.duration
    return total


def descendants_info(spans: List[Span], ancestor: str, name: str, key: str) -> Dict[int, float]:
    """Per outermost `ancestor` span, the sum of `key` over outermost `name`
    spans beneath it."""
    tops = outermost(spans, ancestor)
    out = {i: 0.0 for i in tops}
    for i in outermost(spans, name):
        a = _nearest(spans, i, {ancestor})
        if a in out:
            out[a] += spans[i].info.get(key, 0)
    return out


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

COUNTED = (
    "nnkit.dense.fwd", "nnkit.dense.bwd",
    "nnkit.batchnorm.fwd", "nnkit.batchnorm.bwd",
    "nnkit.relu.fwd", "nnkit.relu.bwd",
    "nnkit.dropout.fwd", "nnkit.dropout.bwd",
    "nnkit.adam",
    "crossl.encode", "crossl.aggregate", "crossl.vicreg", "crossl.embed",
    "core.mask",
    "downstream.augment", "downstream.predict",
    "harness.eval",
)
TIMED_ONLY = (
    "crossl.pretrain", "crossl.encode_bwd", "crossl.aggregate_bwd",
    "downstream.train", "synth.streams", "pipeline.preprocess", "pipeline.build",
    "pipeline.save", "pipeline.load",
)


def layer_metrics(spans: List[Span], ceiling_gflops: float) -> Dict[str, float]:
    """Every per-layer metric of one traced pass. Calls and seconds cover
    outermost spans of a name; work counts sum over the same spans."""
    m: Dict[str, float] = {}

    def calls_s(name):
        tops = outermost(spans, name)
        return len(tops), sum(spans[i].duration for i in tops), tops

    def info_sum(tops, key):
        return sum(spans[i].info.get(key, 0) for i in tops)

    for name in COUNTED + TIMED_ONLY:
        n, s, _ = calls_s(name)
        if name in COUNTED:
            m[f"{name}.calls"] = n
        m[f"{name}.s"] = s

    gflop = s_dense = 0.0
    for d in ("fwd", "bwd"):
        _, s, tops = calls_s(f"nnkit.dense.{d}")
        g = info_sum(tops, "gflop")
        m[f"nnkit.dense.{d}.gflop"] = g
        m[f"nnkit.dense.{d}.gflops_per_s"] = g / s if s > 0 else 0.0
        gflop += g
        s_dense += s
    m["nnkit.sgemm_ceiling_gflops"] = ceiling_gflops
    m["nnkit.dense.ceiling_frac"] = gflop / s_dense / ceiling_gflops if s_dense > 0 else 0.0

    steps = [spans[i].duration * 1e3 for i in outermost(spans, STEP)]
    m["nnkit.fit.steps"] = len(steps)
    m["nnkit.fit.step_ms.p50"] = float(np.percentile(steps, 50)) if steps else 0.0
    m["nnkit.fit.step_ms.p95"] = float(np.percentile(steps, 95)) if steps else 0.0
    m["nnkit.fit.self_s"] = exclusive_time(spans, "nnkit.fit", (STEP, "nnkit.adam"))

    rng_tops = outermost(spans, "core.rng")
    m["core.rng.streams"] = len(rng_tops)
    m["core.rng.s"] = sum(spans[i].duration for i in rng_tops)

    m["downstream.predict.rows"] = info_sum(outermost(spans, "downstream.predict"), "rows")

    # combinations = predicted rows inside each evaluation / that test set's rows,
    # which holds however the evaluation batches its predictions
    rows = descendants_info(spans, "harness.eval", "downstream.predict", "rows")
    m["harness.eval.combos"] = sum(r / spans[i].info["test_rows"] for i, r in rows.items())
    m["harness.eval.self_s"] = exclusive_time(spans, "harness.eval", ("downstream.predict",))

    m["synth.frames"] = info_sum(outermost(spans, "synth.streams"), "frames")
    m["pipeline.windows"] = info_sum(outermost(spans, "pipeline.build"), "windows")
    m["pipeline.window.self_s"] = exclusive_time(spans, "pipeline.build", ("pipeline.preprocess",))
    for op in ("save", "load"):
        m[f"pipeline.{op}.bytes"] = info_sum(outermost(spans, f"pipeline.{op}"), "bytes")
    return m


# Metrics computed from each listed span name: when none of a metric's span
# names could be traced, the metric is reported as absent.
SOURCES: Dict[str, Tuple[str, ...]] = {
    "nnkit.dense.ceiling_frac": ("nnkit.dense.fwd", "nnkit.dense.bwd"),
    "nnkit.fit.steps": ("nnkit.fit",),
    "nnkit.fit.step_ms.p50": ("nnkit.fit",),
    "nnkit.fit.step_ms.p95": ("nnkit.fit",),
    "nnkit.fit.self_s": ("nnkit.fit",),
    "harness.eval.combos": ("harness.eval",),
    "harness.eval.self_s": ("harness.eval",),
    "synth.frames": ("synth.streams",),
    "pipeline.windows": ("pipeline.build",),
    "pipeline.window.self_s": ("pipeline.build",),
}


def absent_metrics(names: Iterable[str], absent_spans: Sequence[str]) -> List[str]:
    """The per-layer metrics whose spans could not be traced."""
    gone = set(absent_spans)
    out = []
    for metric in names:
        sources = SOURCES.get(metric)
        if sources is None:
            sources = tuple(s for s in gone if metric.startswith(s + "."))
        if sources and all(s in gone for s in sources):
            out.append(metric)
    return out
