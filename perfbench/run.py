"""stationsense benchmark.

    python3 perfbench/run.py --workload train --seed 0 --seconds 30 --trace 0

Run from the root of a source checkout; the program is imported from its
`src/` directory. One process runs one workload: set-up is repeated and its
median reported, then timed passes repeat while they fit in `--seconds`.
With `--trace 0` the last stdout line holds the end-to-end metrics; with
`--trace 1` one more pass runs with spans recorded and the last line holds
the per-layer metrics. Metric names and units come from BENCHMARK.json;
workloads and the metrics each layer should move are described in
perfbench/README.md. Details of every run (environment, per-pass stage
times, spans) are written to .perfbench_out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_MIN_REPEATS = 3
SETUP_MIN_S = 6.0  # repeat short set-ups until this much time is spent


def cap_blas_threads() -> None:
    """One BLAS thread unless the environment asks for more, and never more
    than the CPUs this process may use. The program's matmuls are small
    (batch 256 by 64 features): on 2 vCPUs a second thread made the train pass
    slower (4.4 s against 4.1 s) and exposed it to the load on both CPUs.
    Must run before numpy is imported."""
    n = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        try:
            want = int(os.environ.get(var, 1))
        except ValueError:
            want = 1
        os.environ[var] = str(max(1, min(want, n)))


def import_program():
    """stationsense from this checkout's src/, never an installed copy."""
    if not (SRC / "stationsense" / "__init__.py").is_file():
        raise ImportError(f"no stationsense sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import stationsense

    if Path(stationsense.__file__).resolve().parent.parent != SRC.resolve():
        raise ImportError(f"stationsense imported from {stationsense.__file__}, not {SRC}")
    return stationsense


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------


def sgemm_ceiling_gflops(n: int = 1024, repeats: int = 10) -> float:
    """Best observed float32 n x n matmul rate, the ceiling for Dense layers."""
    import numpy as np

    gen = np.random.default_rng(0)
    a = gen.random((n, n), dtype=np.float32)
    b = gen.random((n, n), dtype=np.float32)
    a @ b
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        a @ b
        best = min(best, time.perf_counter() - t0)
    return 2.0 * n**3 / best / 1e9


def probe_s() -> float:
    """Seconds of a fixed reference computation: 320 steps of a small float32
    MLP (batch 256, 64 -> 64 -> 16) with batch normalisation, ReLU and a
    momentum update, written in numpy here, so it never changes with the
    program. It uses the machine as the program's training and evaluation
    do: small matmuls and many numpy calls on small arrays.

    On a shared host the same code runs up to twice as slow for tens of
    seconds at a time, which no run length averages out. The probes taken
    around each timed call slow with it, so the call's time divided by
    theirs (`Ops.norm`) keeps steady."""
    import numpy as np

    gen = np.random.default_rng(0)
    x = gen.standard_normal((256, 64), dtype=np.float32)
    y = gen.standard_normal((256, 16), dtype=np.float32)
    w1 = gen.standard_normal((64, 64), dtype=np.float32) * np.float32(0.1)
    w2 = gen.standard_normal((64, 16), dtype=np.float32) * np.float32(0.1)
    m1, m2 = np.zeros_like(w1), np.zeros_like(w2)
    t0 = time.perf_counter()
    for _ in range(320):
        h = x @ w1
        hn = (h - h.mean(axis=0)) / np.sqrt(h.var(axis=0) + 1e-5)
        a = np.maximum(hn, 0.0)
        g = (a @ w2 - y) * np.float32(2.0 / len(y))
        g2 = a.T @ g
        ga = (g @ w2.T) * (hn > 0)
        g1 = x.T @ ga
        for w, m, gw in ((w1, m1, g1), (w2, m2, g2)):
            m *= 0.9
            m += 0.1 * gw
            w -= 1e-3 * m / (np.abs(m) + 1e-8)
    return time.perf_counter() - t0


def _git_sha():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(nproc: int, ceiling: float) -> dict:
    import numpy as np

    files = sorted(SRC.rglob("*.py"))
    digest = hashlib.sha256()
    loc = 0
    for f in files:
        data = f.read_bytes()
        digest.update(str(f.relative_to(SRC)).encode() + b"\0" + data)
        loc += data.count(b"\n")
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = None
    return {
        "git_sha": _git_sha(),
        "src_sha256": digest.hexdigest(),
        "src_loc": loc,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "nproc": nproc,
        "machine": platform.machine(),
        "sgemm_ceiling_gflops": ceiling,
    }


# ---------------------------------------------------------------------------
# measuring
# ---------------------------------------------------------------------------

# per-layer metrics taken from the untraced passes: name -> (work, stage, scale)
RATES = {
    "pretrain.samples_per_s": ("pretrain_samples", "pretrain", 1.0),
    "downstream.samples_per_s": ("downstream_samples", "downstream", 1.0),
    "eval.combos_per_s": ("combos", "eval", 1.0),
    "synth.frames_per_s": ("frames", "synth", 1.0),
    "pipeline.windows_per_s": ("windows", "pipeline", 1.0),
    "codec.mb_per_s": ("bytes", "codec", 1e-6),
}
# per-layer metrics copied from the passes' results: name -> quality key
QUALITY = {
    "pretrain.final_loss": "pretrain.final_loss",
    "rmse.k1": "rmse.proposed.k1",
    "rmse.k4": "rmse.proposed.k4",
    "rmse.k8": "rmse.proposed.k8",
}


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def untraced_layer_metrics(passes) -> dict:
    out = {}
    for name, (work, stage, scale) in RATES.items():
        out[name] = _median(
            [p.work[work] * scale / p.stage_s[stage] for p in passes if stage in p.stage_s and work in p.work]
        )
    for name, key in QUALITY.items():
        out[name] = passes[0].quality.get(key, 0.0) if passes else 0.0
    return out


def measure(workload: str, seed: int, seconds: float, trace: bool, workdir: Path) -> dict:
    import spans
    from workloads import WORKLOADS, Ops

    wl = WORKLOADS[workload]
    rec = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
           "problems": [], "attempted": 0, "failed": 0}
    problems = rec["problems"]
    passes, walls, norms, probes = [], [], [], []

    def run_pass(state, probe=None):
        ops = Ops(probe)
        t0 = ops.clock()
        try:
            p = wl.run(state, ops)
        except Exception:  # noqa: BLE001 - reported as a failed, incorrect run
            problems.append(traceback.format_exc())
            return None, 0.0
        finally:
            rec["attempted"] += ops.attempted
            rec["failed"] += ops.failed
        wall = ops.clock() - t0
        problems.extend(wl.check(state, p))
        if passes and p.fingerprint != passes[0].fingerprint:
            problems.append(f"pass {len(passes) + 1} output differs from pass 1")
        p.outputs.clear()
        norms.append(ops.norm)
        probes.extend(ops.probes)
        return p, wall

    setup_s = []
    state = None
    while len(setup_s) < SETUP_MIN_REPEATS or sum(setup_s) < SETUP_MIN_S:
        state = None  # free the previous set-up first
        t0 = time.perf_counter()
        state = wl.setup(seed, workdir)
        setup_s.append(time.perf_counter() - t0)
    rec["setup_s"] = setup_s

    ceiling = sgemm_ceiling_gflops()
    rec["env"] = environment(len(os.sched_getaffinity(0)), ceiling)

    probe_s()  # warm-up
    begin = time.perf_counter()
    while True:
        p, wall = run_pass(state, probe_s)
        if p is None:
            break
        passes.append(p)
        walls.append(wall)
        elapsed = time.perf_counter() - begin
        if elapsed + elapsed / len(passes) > seconds:
            break
    rec["passes"] = [{"wall_s": w, "norm": n, "stage_s": p.stage_s, "work": p.work, "quality": p.quality}
                     for p, w, n in zip(passes, walls, norms)]
    rec["probe_s"] = probes
    rec["end_to_end"] = {
        "setup_s": _median(setup_s),
        "wall_norm": _median(norms),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if trace:
        tracer = spans.Tracer(run_id=f"{workload}-{seed}-{os.getpid()}")
        with tracer:
            p, wall = run_pass(state)
        layer = untraced_layer_metrics(passes)
        layer["wall_s"] = _median(walls)
        layer["probe_s"] = _median(probes)
        layer.update(spans.layer_metrics(tracer.spans, ceiling))
        layer["trace.overhead_s"] = wall - _median(walls) if p is not None else 0.0
        rec["per_layer"] = layer
        rec["absent"] = spans.absent_metrics(layer, tracer.absent)
        rec["count_errors"] = tracer.count_errors
        rec["span_run"] = tracer.run_id
        rec["spans"] = [[s.name, s.start, s.end, s.parent, s.info] for s in tracer.spans]
    return rec


def result_line(rec: dict, declared: list) -> dict:
    values = rec["per_layer"] if rec["trace"] else rec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    return {
        "correct": not rec["problems"],
        "attempted": max(rec["attempted"], 1),
        "failed": rec["failed"],
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("train", "sweep", "acquire"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cap_blas_threads()
    try:
        import_program()
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (ImportError, OSError, ValueError) as exc:
        print(f"perfbench: cannot run: {exc}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))

    workdir = OUT / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        rec = measure(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    declared = spec["per_layer" if args.trace else "end_to_end"]
    line = result_line(rec, declared)
    if rec.get("absent"):
        print(f"perfbench: absent per-layer metrics: {rec['absent']}", file=sys.stderr)
    for problem in rec["problems"]:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(rec))
    print("env " + json.dumps(rec["env"]))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
