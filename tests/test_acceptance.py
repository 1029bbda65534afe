"""End-to-end acceptance gate for the multi-station sensing framework.

Each test prints exactly one PASS/FAIL line (written past pytest's capture so
the lines always appear in the run log) and covers one gate:

 1. closed-form exactness of power normalization and the embedding loss terms
 2. analytic gradients vs central finite differences
 3. single-pass window aggregation vs a brute-force per-window scan
 4. station-availability combination averaging (exhaustive and Monte Carlo)
 5. robustness orderings across availability levels at desk scale
 6. graceful degradation as the label budget shrinks
 7. pre-training makes the global embedding availability-invariant
 8. masking-rate grid: too little masking hurts single-station inference
 9. constant baseline matches its closed-form RMSE
10. bitwise reproducibility of the metrics table

The desk-scale experiments (5-8, 10) share one set of synthetic runs and one
pre-trained-extractor cache per seed, so the expensive pre-training happens
once per (seed, masking-rate) pair for the whole session.
"""

import itertools
import math
import sys
import time

import numpy as np
import pytest

import stationsense as ss
from stationsense.core import RandomStream, sample_mask_matrix
from stationsense.crossl import (
    build_extractor,
    vicreg_covariance,
    vicreg_invariance,
    vicreg_loss_grads,
    vicreg_variance,
)
from stationsense.downstream import constant_baseline
from stationsense.harness import (
    desk_settings,
    eval_at_availability,
    label_ratio_subset,
    pretrain_extractor,
    run_grid,
    run_masking_heatmap,
    train_method,
    SweepSpec,
)
from stationsense.nnkit import (
    Dense,
    MlpStack,
    finite_diff_check,
    masked_mse_loss,
    mlp_blocks,
    mse_loss,
)
from stationsense.pipeline import (
    Dataset,
    WindowSpec,
    _reference_centers,
    build_labeled_dataset,
    build_unlabeled_dataset,
    default_keep_list,
    preprocess_stream,
)

pytestmark = pytest.mark.slow

SEEDS = (0, 1, 2)
AVAILABILITY_LEVELS = (1, 4, 8)
LABEL_RATIOS = (0.05, 0.25, 1.0)

# pinned tolerances
TOL_UNIT_POWER = 1e-9
TOL_LOSS_ORACLE = 1e-12
TOL_GRADIENT = 1e-4
TOL_MONTE_CARLO_REL = 0.02
TOL_CONSTANT_CLOSED_FORM = 1e-3
MAX_LABEL_DEGRADATION_REL = 0.50
MIN_INVARIANCE_GAP = 0.1

# runtime budgets (seconds)
BUDGETS = {1: 10, 2: 60, 3: 60, 4: 300, 5: 1200, 6: 1200, 7: 300, 8: 2700}


_CAPMAN = None


@pytest.fixture(scope="session", autouse=True)
def _gate_printer(request):
    """Grab pytest's capture manager so gate lines can bypass fd capture."""
    global _CAPMAN
    _CAPMAN = request.config.pluginmanager.getplugin("capturemanager")


def _report(num, name, ok, elapsed, detail=""):
    verdict = "PASS" if ok else "FAIL"
    line = f"[gate {num:2d}/10] {name}: {verdict} ({elapsed:.1f}s) {detail}".rstrip()
    if _CAPMAN is not None:
        with _CAPMAN.global_and_fixture_disabled():
            sys.stdout.write("\n" + line + "\n")
            sys.stdout.flush()
    else:
        sys.stdout.write(line + "\n")
    assert ok, line


def _within_budget(num, elapsed):
    return elapsed < BUDGETS.get(num, math.inf)


# ---------------------------------------------------------------------------
# shared desk-scale fixtures
# ---------------------------------------------------------------------------


def _build_run(seed):
    scen = ss.desk_scenario()
    win = ss.desk_windowing()
    rng = RandomStream(seed, "sim")
    traj = ss.gen_trajectory(scen, rng)
    streams = ss.gen_csi_streams(scen, traj, rng)
    train, val, test = build_labeled_dataset(streams, traj, win.labeled_spec(), win.split_ratios)
    train_end = train.timestamps[-1] + win.labeled_spec().width_s / 2
    unlabeled = build_unlabeled_dataset(
        streams, win.unlabeled_spec(), win.label_rate_hz, train_end
    )
    return train, val, test, unlabeled


@pytest.fixture(scope="session")
def desk_data():
    return {seed: _build_run(seed) for seed in SEEDS}


@pytest.fixture(scope="session")
def settings():
    return desk_settings()


@pytest.fixture(scope="session")
def extractor_caches():
    return {seed: {} for seed in SEEDS}


@pytest.fixture(scope="session")
def availability_results(desk_data, settings, extractor_caches):
    """Seed-mean RMSE per method and availability level, plus seed-0 models."""
    t0 = time.perf_counter()
    per_method = {m: {k: [] for k in AVAILABILITY_LEVELS} for m in ("proposed", "naive", "constant")}
    models_seed0 = {}
    for seed in SEEDS:
        train, _, test, unlabeled = desk_data[seed]
        for method in per_method:
            model = train_method(method, train, unlabeled, settings, seed, extractor_caches[seed])
            if seed == 0:
                models_seed0[method] = model
            for k in AVAILABILITY_LEVELS:
                per_method[method][k].append(eval_at_availability(model, test, k))
    means = {
        m: {k: float(np.mean(v)) for k, v in per_k.items()} for m, per_k in per_method.items()
    }
    return {"means": means, "models_seed0": models_seed0, "elapsed": time.perf_counter() - t0}


# ---------------------------------------------------------------------------
# independent straightforward re-implementations of the loss terms
# ---------------------------------------------------------------------------


def _oracle_variance(z, gamma=1.0, eps=1e-4):
    z = [list(map(float, row)) for row in z]
    n, l = len(z), len(z[0])
    total = 0.0
    for j in range(l):
        col = [z[i][j] for i in range(n)]
        mean = sum(col) / n
        var = sum((v - mean) ** 2 for v in col) / (n - 1)
        total += max(0.0, gamma - math.sqrt(var + eps))
    return total / l


def _oracle_invariance(z, z2):
    n = len(z)
    return sum(
        sum((float(a) - float(b)) ** 2 for a, b in zip(z[i], z2[i])) for i in range(n)
    ) / n


def _oracle_covariance(z):
    z = [list(map(float, row)) for row in z]
    n, l = len(z), len(z[0])
    means = [sum(z[i][j] for i in range(n)) / n for j in range(l)]
    total = 0.0
    for a in range(l):
        for b in range(l):
            if a == b:
                continue
            c = sum((z[i][a] - means[a]) * (z[i][b] - means[b]) for i in range(n)) / (n - 1)
            total += c * c
    return total / l


# ---------------------------------------------------------------------------
# gates
# ---------------------------------------------------------------------------


def test_power_normalization_and_loss_term_exactness():
    t0 = time.perf_counter()
    gen = np.random.default_rng(42)
    ok = True

    # unit mean power after normalization
    for _ in range(200):
        v, degenerate = ss.normalize_power(gen.uniform(0.1, 5.0, size=gen.integers(2, 80)))
        ok = ok and not degenerate and abs(np.mean(v**2) - 1.0) <= TOL_UNIT_POWER
    v, _ = ss.normalize_power(np.array([3.0, 4.0]))
    ok = ok and np.allclose(v, np.array([3.0, 4.0]) / np.sqrt(12.5), rtol=0, atol=1e-15)

    # loss terms vs an independent pure-python re-implementation
    max_err = 0.0
    for _ in range(100):
        z = gen.normal(0, 2.0, (8, 4))
        z2 = gen.normal(0, 2.0, (8, 4))
        max_err = max(
            max_err,
            abs(vicreg_variance(z) - _oracle_variance(z)),
            abs(vicreg_invariance(z, z2) - _oracle_invariance(z, z2)),
            abs(vicreg_covariance(z) - _oracle_covariance(z)),
        )
    ok = ok and max_err <= TOL_LOSS_ORACLE

    # hand-checkable values
    ok = ok and vicreg_covariance(np.array([[1.0, 1.0], [-1.0, -1.0]])) == 4.0
    ok = ok and vicreg_invariance(np.zeros((3, 2)), np.ones((3, 2))) == 2.0

    # masking-rate concentration: 1e5 draws at p=0.5 over 8 slots
    m = sample_mask_matrix(0.5, 100_000, 8, RandomStream(0, "acceptance/maskrate"))
    ok = ok and 0.498 <= m.mean() <= 0.502

    # window-center count for a 600 s run at 30 Hz with 2 s windows
    n_centers = len(_reference_centers(600.0, WindowSpec(2.0, 30.0)))
    ok = ok and n_centers == int(np.floor((600.0 - 2.0) * 30.0)) + 1

    # label subsetting rounds up: 0.1% of 25,200 -> 26
    big = Dataset(
        split="train",
        x=np.zeros((25_200, 1, 1), dtype=np.float32),
        missing=np.zeros((25_200, 1), dtype=bool),
        labels=np.zeros(25_200, dtype=np.float32),
        timestamps=np.arange(25_200, dtype=float),
    )
    ok = ok and label_ratio_subset(big, 0.001, RandomStream(0, "acceptance/sub")).n == 26

    elapsed = time.perf_counter() - t0
    _report(1, "equation exactness", ok and _within_budget(1, elapsed), elapsed,
            f"max loss-term error {max_err:.2e}")


def _keep_with_min_one(gen, n, n_d):
    """Bernoulli(0.5) keep masks, re-rolled so every row keeps >= 1 station.

    An all-masked row feeds exact zeros to a zero-bias first layer, parking
    its pre-activations exactly on the relu kink where no finite-difference
    step is valid.
    """
    k = gen.random((n, n_d)) > 0.5
    for i in range(n):
        if not k[i].any():
            k[i, gen.integers(0, n_d)] = True
    return k[:, :, None].astype(np.float64)


def _nudge_off_relu_kinks(stack, inputs, margin):
    """Raise dense biases until every relu pre-activation over `inputs` is at
    least `margin` from zero; returns the achieved margin."""
    for li, layer in enumerate(stack.layers):
        if layer.kind != "relu":
            continue
        dense = stack.layers[li - 1]
        for _ in range(1000):
            pre = np.concatenate([_forward_upto(stack, x, li) for x in inputs])
            bad = np.abs(pre).min(axis=0) < margin
            if not bad.any():
                break
            dense.params["b"][bad] += 2 * margin
    worst = np.inf
    for li, layer in enumerate(stack.layers):
        if layer.kind == "relu":
            pre = np.concatenate([_forward_upto(stack, x, li) for x in inputs])
            worst = min(worst, float(np.abs(pre).min()))
    return worst


def _forward_upto(stack, x, stop):
    for layer in stack.layers[:stop]:
        x, _ = layer.forward(x, "eval", None)
    return x


def test_analytic_gradients_match_finite_differences():
    t0 = time.perf_counter()
    gen = np.random.default_rng(3)
    errors = {}

    # plain MSE through a 3-block network
    x = gen.random((16, 6))
    y = gen.random((16, 1))
    net = MlpStack(
        mlp_blocks("g2m", 6, [12, 10, 8], RandomStream(0, "fd/m"), dropout_rate=0.0, dtype=np.float64).layers
        + [Dense("g2m.out", 8, 1, RandomStream(0, "fd/mo"), dtype=np.float64)]
    )
    net.forward(x, "train", RandomStream(0, "fd/mwarm"))  # seed BN running stats

    def mse_lg():
        pred, caches = net.forward(x, "eval", None)
        loss, dpred = mse_loss(pred, y)
        _, grads = net.backward(caches, dpred)
        return loss, grads

    errors["mse"] = finite_diff_check(net.params(), mse_lg)

    # masked reconstruction MSE (as used by the denoising reconstructor)
    target = gen.random((16, 6))
    mask = gen.random((16, 6)) > 0.5
    rec = MlpStack(
        mlp_blocks("g2r", 6, [10, 8], RandomStream(0, "fd/r"), dropout_rate=0.0, dtype=np.float64).layers
        + [Dense("g2r.out", 8, 6, RandomStream(0, "fd/ro"), dtype=np.float64)]
    )
    rec.forward(x, "train", RandomStream(0, "fd/rwarm"))

    def masked_lg():
        pred, caches = rec.forward(x, "eval", None)
        loss, dpred = masked_mse_loss(pred, target, mask)
        _, grads = rec.backward(caches, dpred)
        return loss, grads

    errors["masked_mse"] = finite_diff_check(rec.params(), masked_lg)

    # full view-agreement loss through a 3-block aggregator over two masked views
    n, n_d, width = 12, 8, 5
    xs = gen.random((n, n_d, width))
    keep1 = _keep_with_min_one(gen, n, n_d)
    keep2 = _keep_with_min_one(gen, n, n_d)
    agg = MlpStack(
        mlp_blocks("g2a", n_d * width, [16, 12, 8], RandomStream(0, "fd/a"), dropout_rate=0.0, dtype=np.float64).layers
    )
    agg.forward(xs.reshape(n, -1), "train", RandomStream(0, "fd/awarm"))
    views = [(xs * keep1).reshape(n, -1), (xs * keep2).reshape(n, -1)]
    # the loss is only piecewise smooth: a random init almost surely leaves
    # some relu pre-activation within the finite-difference step of its kink
    # (~900 pre-activations, typical spacing ~1e-4), which a central
    # difference then straddles. Push the operating point off the kinks and
    # assert a margin of many step sizes before trusting the comparison.
    h = 1e-4
    margin = _nudge_off_relu_kinks(agg, views, margin=100 * h)
    assert margin >= 10 * h
    # a larger variance regularizer bounds the curvature of sqrt(var + eps)
    # at this operating point (stds ~1e-2), keeping the central-difference
    # truncation error well below the gate tolerance
    weights = ss.VicregWeights(epsilon=1e-2)

    def vicreg_lg():
        z1, c1 = agg.forward(views[0], "eval", None)
        z2, c2 = agg.forward(views[1], "eval", None)
        loss, dz1, dz2 = vicreg_loss_grads(z1, z2, weights)
        _, g1 = agg.backward(c1, dz1)
        _, g2 = agg.backward(c2, dz2)
        return loss, {k: g1[k] + g2[k] for k in g1}

    # larger step than the default: the loss carries a weight of 34 on the
    # view-agreement term, so a 1e-5 step leaves visible roundoff on small
    # gradient coordinates
    errors["vicreg"] = finite_diff_check(agg.params(), vicreg_lg, h=h)

    worst = max(errors.values())
    elapsed = time.perf_counter() - t0
    _report(2, "gradient check", worst < TOL_GRADIENT and _within_budget(2, elapsed), elapsed,
            "max rel err " + ", ".join(f"{k}={v:.2e}" for k, v in errors.items()))


def test_window_aggregation_matches_brute_force_scan():
    t0 = time.perf_counter()
    scen = ss.desk_scenario()  # 600 s with outages enabled
    win = ss.desk_windowing()
    rng = RandomStream(7, "sim")
    traj = ss.gen_trajectory(scen, rng)
    streams = ss.gen_csi_streams(scen, traj, rng)
    train, val, test = build_labeled_dataset(streams, traj, win.labeled_spec(), win.split_ratios)
    x = np.concatenate([train.x, val.x, test.x])
    missing = np.concatenate([train.missing, val.missing, test.missing])
    centers = np.concatenate([train.timestamps, val.timestamps, test.timestamps])

    keep = default_keep_list(scen.k_raw)
    pstreams = [preprocess_stream(s, keep) for s in streams]
    half = win.labeled_spec().width_s / 2
    gen = np.random.default_rng(123)
    picks = gen.choice(len(centers), 1000, replace=False)

    ok = True
    for i in picks:
        c = centers[i]
        for d, ps in enumerate(pstreams):
            inside = (ps.timestamps >= c - half) & (ps.timestamps <= c + half)
            if not inside.any():
                ok = ok and bool(missing[i, d])
            else:
                ok = ok and not missing[i, d]
                brute = ps.amps[inside].mean(axis=0).astype(np.float32)
                ok = ok and np.array_equal(x[i, d], brute)
        if not ok:
            break

    # missingness flags equal the interval-overlap oracle on every sample
    for i in range(len(centers)):
        c = centers[i]
        for d, ps in enumerate(pstreams):
            has_frame = bool(np.any((ps.timestamps >= c - half) & (ps.timestamps <= c + half)))
            ok = ok and (missing[i, d] == (not has_frame))
        if not ok:
            break

    elapsed = time.perf_counter() - t0
    _report(3, "windowing oracle", ok and _within_budget(3, elapsed), elapsed,
            "bitwise equality on 1000 windows")


def test_combination_averaging_counts_and_monte_carlo(availability_results):
    t0 = time.perf_counter()

    class CountingModel:
        def __init__(self):
            self.calls = 0

        def predict(self, xb):
            self.calls += 1
            return np.zeros(np.asarray(xb).shape[0])

    tiny = Dataset(
        split="test",
        x=np.zeros((4, 8, 3), dtype=np.float32),
        missing=np.zeros((4, 8), dtype=bool),
        labels=np.zeros(4, dtype=np.float32),
        timestamps=np.arange(4, dtype=float),
    )
    ok = True
    for k in range(1, 9):
        cm = CountingModel()
        eval_at_availability(cm, tiny, k, policy="exhaustive")
        ok = ok and cm.calls == math.comb(8, 8 - k)

    model = availability_results["models_seed0"]["naive"]
    _, _, test, _ = _build_run(0)
    worst_rel = 0.0
    for k in AVAILABILITY_LEVELS:
        exact = eval_at_availability(model, test, k, policy="exhaustive")
        mc = eval_at_availability(
            model, test, k, policy="monte_carlo", n_draws=500, rng=RandomStream(0, f"acc/mc{k}")
        )
        worst_rel = max(worst_rel, abs(mc - exact) / exact)
    ok = ok and worst_rel <= TOL_MONTE_CARLO_REL

    elapsed = time.perf_counter() - t0
    _report(4, "combination averaging", ok and _within_budget(4, elapsed), elapsed,
            f"worst Monte Carlo deviation {worst_rel * 100:.2f}%")


def test_availability_robustness_orderings(availability_results):
    t0 = time.perf_counter()
    means = availability_results["means"]
    proposed, naive, constant = means["proposed"], means["naive"], means["constant"]

    beats_naive_everywhere = all(proposed[k] < naive[k] for k in AVAILABILITY_LEVELS)
    proposed_ratio = proposed[1] / proposed[8]
    naive_ratio = naive[1] / naive[8]
    degrades_less = proposed_ratio < naive_ratio
    beats_constant_full = proposed[8] < constant[8]

    ok = beats_naive_everywhere and degrades_less and beats_constant_full
    elapsed = availability_results["elapsed"] + (time.perf_counter() - t0)
    _report(
        5, "availability orderings", ok and _within_budget(5, elapsed), elapsed,
        f"proposed k1/k4/k8 {proposed[1]:.3f}/{proposed[4]:.3f}/{proposed[8]:.3f}, "
        f"naive {naive[1]:.3f}/{naive[4]:.3f}/{naive[8]:.3f}, "
        f"ratios {proposed_ratio:.2f} vs {naive_ratio:.2f}, constant {constant[8]:.3f}",
    )


def test_label_budget_degradation(desk_data, settings, extractor_caches):
    t0 = time.perf_counter()
    means = {}
    for method in ("proposed", "naive"):
        means[method] = {}
        for ratio in LABEL_RATIOS:
            vals = []
            for seed in SEEDS:
                train, _, test, unlabeled = desk_data[seed]
                sub = label_ratio_subset(train, ratio, RandomStream(seed, f"label_subset/{ratio}"))
                model = train_method(method, sub, unlabeled, settings, seed, extractor_caches[seed])
                vals.append(eval_at_availability(model, test, 8))
            means[method][ratio] = float(np.mean(vals))

    rel = {
        m: (means[m][0.05] - means[m][1.0]) / means[m][1.0] for m in means
    }
    ok = rel["proposed"] <= MAX_LABEL_DEGRADATION_REL and rel["naive"] > rel["proposed"]
    elapsed = time.perf_counter() - t0
    _report(
        6, "label-budget degradation", ok and _within_budget(6, elapsed), elapsed,
        f"proposed +{rel['proposed'] * 100:.1f}% vs naive +{rel['naive'] * 100:.1f}% "
        f"(full-label RMSE {means['proposed'][1.0]:.3f} vs {means['naive'][1.0]:.3f})",
    )


def test_pretrained_embedding_availability_invariance(desk_data, settings, extractor_caches):
    t0 = time.perf_counter()

    def invariance_stat(fx, val, seed):
        """Mean centered cosine between the full-view global embedding and a
        half-masked view (half the station slots zeroed before aggregation,
        matching the masking mechanism used in pre-training)."""
        x = val.x.astype(np.float32)
        q, _ = fx.encode_batch(x, "eval", None)
        z_full, _ = fx.aggregate_batch(q, "eval", None)
        masks = sample_mask_matrix(0.5, val.n, val.n_stations, RandomStream(seed, "invariance"))
        z_half, _ = fx.aggregate_batch(q * (~masks)[:, :, None], "eval", None)
        z_full = z_full - z_full.mean(axis=0)
        z_half = z_half - z_half.mean(axis=0)
        cos = np.sum(z_full * z_half, axis=1) / (
            np.linalg.norm(z_full, axis=1) * np.linalg.norm(z_half, axis=1) + 1e-12
        )
        return float(np.mean(cos))

    gaps = []
    for seed in SEEDS:
        _, val, _, unlabeled = desk_data[seed]
        fx = pretrain_extractor(unlabeled, settings, seed, cache=extractor_caches[seed])
        random_fx = build_extractor(
            val.n_stations,
            val.k,
            RandomStream(seed, "random_extractor"),
            embedding_dim=settings.embedding_dim,
            aggregator_hidden=settings.aggregator_hidden,
            encoder_widths=settings.encoder_widths,
        )
        gaps.append(invariance_stat(fx, val, seed) - invariance_stat(random_fx, val, seed))

    ok = all(g >= MIN_INVARIANCE_GAP for g in gaps)
    elapsed = time.perf_counter() - t0
    _report(7, "embedding invariance", ok and _within_budget(7, elapsed), elapsed,
            "per-seed gaps " + ", ".join(f"{g:.2f}" for g in gaps))


def test_masking_rate_grid_single_station(desk_data, settings):
    t0 = time.perf_counter()
    train, _, test, unlabeled = desk_data[0]
    # the grid shares one extractor cache internally; datasets come from seed 0
    # and seed-variation enters through the training streams
    cells = run_masking_heatmap(
        p_grid=(0.1, 0.5, 0.9),
        ks=(1,),
        seeds=SEEDS,
        train=train,
        test=test,
        unlabeled=unlabeled,
        settings=settings,
    )
    table = {(c["p_mask_crossl"], c["p_mask_sma"]): c["rmse_mean"] for c in cells}
    ok = len(table) == 9 and table[(0.1, 0.1)] > table[(0.5, 0.5)]
    elapsed = time.perf_counter() - t0
    _report(8, "masking-rate grid", ok and _within_budget(8, elapsed), elapsed,
            f"(0.1,0.1) {table[(0.1, 0.1)]:.3f} vs (0.5,0.5) {table[(0.5, 0.5)]:.3f} at one station")


def test_constant_baseline_closed_form():
    t0 = time.perf_counter()
    low, high = 0.166, 0.854
    model = constant_baseline(0.5)
    labels = RandomStream(0, "acceptance/labels").uniform(low, high, 1_000_000)
    empirical = float(np.sqrt(np.mean((model.predict(np.zeros((len(labels), 1, 1))) - labels) ** 2)))
    mean = (low + high) / 2
    closed_form = math.sqrt((high - low) ** 2 / 12 + (mean - 0.5) ** 2)
    err = abs(empirical - closed_form)
    ok = err <= TOL_CONSTANT_CLOSED_FORM
    elapsed = time.perf_counter() - t0
    _report(9, "constant closed form", ok, elapsed,
            f"empirical {empirical:.4f} vs closed form {closed_form:.4f}")


def test_metrics_table_reproducibility(desk_data, settings, tmp_path):
    t0 = time.perf_counter()
    train, _, test, unlabeled = desk_data[0]
    spec = SweepSpec(
        available_station_counts=AVAILABILITY_LEVELS,
        label_ratios=(1.0,),
        seeds=(0,),
    )

    def run(out):
        rows, failures = run_grid(
            spec, ("constant", "naive", "sma"), train, test, unlabeled, settings, out
        )
        assert not failures
        text = (out / "metrics.csv").read_text().splitlines()
        header = text[0].split(",")
        drop = header.index("runtime_s")
        return "\n".join(",".join(c for j, c in enumerate(line.split(",")) if j != drop) for line in text)

    first = run(tmp_path / "a")
    second = run(tmp_path / "b")
    ok = first == second
    elapsed = time.perf_counter() - t0
    _report(10, "metrics reproducibility", ok, elapsed, "bitwise equal excluding runtime")
