"""Command-line interface: simulate, build-dataset, pretrain, train,
evaluate, sweep, pca-export, report."""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import astuple, fields
from pathlib import Path
from typing import get_type_hints

import numpy as np

from .config import config_to_dict, dump_config, load_config
from .core import RandomStream
from .downstream import load_checkpoint, save_checkpoint
from .harness import (
    _CHECKPOINT_METHODS,
    _EXTRACTOR_METHODS,
    MetricsRow,
    _pretrain,
    _write_dicts_csv,
    eval_at_availability,
    label_ratio_subset,
    pca_export,
    run_grid,
    summarize,
    train_method,
    write_metrics_csv,
    write_summary_csv,
)
from .pipeline import (
    Dataset,
    _simulation,
    build_datasets,
    export_csv,
    load_dataset,
    save_dataset,
    scenario_hash,
)


def _out_dir(args) -> Path:
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_simulate(args):
    cfg = load_config(args.config)
    out = _out_dir(args)
    traj, station = _simulation(cfg.scenario, args.seed)  # the run build-dataset windows
    with open(out / "frames.csv", "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(
            ["station", "timestamp"]
            + [c for k in range(cfg.scenario.k_raw) for c in (f"re{k}", f"im{k}")]
        )
        for d in range(cfg.scenario.n_stations):
            s = station(d)
            frames = zip(s.timestamps.tolist(), s.values.view(np.float64))  # a row: re0, im0, re1, im1, ...
            w.writerows([s.station, repr(t), *v.tolist()] for t, v in frames)
    probe = np.arange(0.0, cfg.scenario.duration_s, 0.1)
    pos = traj.position(probe)
    with open(out / "trajectory.csv", "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["t", "x", "y", "label"])
        for t, (x, y), lab in zip(probe, pos, traj.label(probe)):
            w.writerow([repr(float(t)), repr(float(x)), repr(float(y)), repr(float(lab))])
    dump_config(cfg, out / "scenario.yaml")
    print(f"wrote frames.csv, trajectory.csv, scenario.yaml to {out}")


def cmd_build_dataset(args):
    cfg = load_config(args.config)
    out = _out_dir(args)
    splits = build_datasets(cfg.scenario, cfg.windowing, args.seed)
    for d in splits:
        d.provenance.update(scenario_hash=scenario_hash(cfg.scenario), seed=args.seed)
        save_dataset(d, out / f"{d.split}.bin")
        if args.export_csv:
            export_csv(d, out / f"{d.split}.csv")
    print(f"wrote datasets to {out}: " + " ".join(f"{d.split}={d.n}" for d in splits))


def cmd_pretrain(args):
    cfg = load_config(args.config)
    tr = cfg.training
    unlabeled = load_dataset(args.dataset)
    fx, result = _pretrain(unlabeled, tr, args.seed)
    save_checkpoint(
        fx, args.out,
        meta={"p_mask": tr.p_mask_crossl, "vicreg": list(astuple(tr.vicreg)),
              "seed": args.seed, "epochs": len(result.history),
              "best_loss": result.best_loss},
    )
    print(f"pretrained {len(result.history)} epochs, best loss {result.best_loss:.6f} -> {args.out}")


def cmd_train(args):
    if not args.extractor and args.method in _EXTRACTOR_METHODS:
        raise SystemExit(f"train --method {args.method} needs --extractor (a pretrain checkpoint)")
    cfg = load_config(args.config)
    labeled = label_ratio_subset(
        load_dataset(args.labeled), args.label_ratio,
        RandomStream(args.seed, f"label_subset/{args.label_ratio}"),
    )
    fx = load_checkpoint(args.extractor, "feature_extractor") if args.extractor else None
    model = train_method(args.method, labeled, None, cfg.training, args.seed, extractor=fx)
    save_checkpoint(
        model, args.out,
        meta={"method": args.method, "label_ratio": args.label_ratio, "seed": args.seed},
    )
    print(f"trained {args.method} -> {args.out}")


def cmd_evaluate(args):
    sweep = load_config(args.config).sweep
    model = load_checkpoint(args.model, "sensing_model")
    test = load_dataset(args.dataset)
    rows = []
    for k in sweep.available_station_counts:
        value = eval_at_availability(
            model, test, k, sweep.combination_policy, sweep.n_draws,
            RandomStream(args.seed, f"mc/{k}"),
        )
        rows.append(MetricsRow("model", k, 1.0, args.seed, value, 0.0))
        print(f"k={k}: rmse={value:.6f}")
    if args.out:
        write_metrics_csv(rows, args.out)


def cmd_sweep(args):
    cfg = load_config(args.config)
    out = _out_dir(args)
    data_dir = Path(args.data_dir)
    train = load_dataset(data_dir / "train.bin")
    test = load_dataset(data_dir / "test.bin")
    unlabeled_path = data_dir / "unlabeled.bin"
    unlabeled = load_dataset(unlabeled_path) if unlabeled_path.exists() else None
    methods = args.methods.split(",")
    rows, failures = run_grid(
        cfg.sweep, methods, train, test, unlabeled, cfg.training, out
    )
    manifest = {
        "config": config_to_dict(cfg),
        "methods": methods,
        "n_rows": len(rows),
        "n_failures": len(failures),
        "data_dir": str(data_dir),
    }
    (out / "run_manifest.json").write_text(json.dumps(manifest, indent=2))
    print(f"wrote {len(rows)} metric rows to {out} ({len(failures)} failures)")


def cmd_pca_export(args):
    train = load_dataset(args.train)
    test = load_dataset(args.test)
    fx = load_checkpoint(args.extractor, "feature_extractor") if args.extractor else None

    def vectors(d: Dataset, mask_to_k):
        x = d.x.astype(np.float32)  # a copy, so masking leaves the dataset alone
        if mask_to_k is not None:
            x[:, mask_to_k:, :] = 0.0  # fixed combination: first k stations kept
        if fx is None:
            return x.reshape(d.n, -1)
        return fx.embed(x)

    tr_vec = vectors(train, None)
    labels = test.labels.tolist() if test.labeled else [""] * test.n
    rows = [{"pc1": pc1, "pc2": pc2, "label": label, "availability": k} for k in args.k
            for (pc1, pc2), label in zip(pca_export(tr_vec, vectors(test, k))[1].tolist(), labels)]
    _write_dicts_csv(rows, ["pc1", "pc2", "label", "availability"], args.out)
    print(f"wrote {len(rows)} projected points to {args.out}")


def cmd_report(args):
    types = get_type_hints(MetricsRow)
    with open(args.metrics) as f:
        rows = [
            MetricsRow(**{c.name: types[c.name](r[c.name]) for c in fields(MetricsRow)})
            for r in csv.DictReader(f)
        ]
    summary = summarize(rows)
    write_summary_csv(rows, args.out)
    print(f"{'method':<12} {'k':>4} {'ratio':>8} {'rmse':>10} {'std':>10}")
    for s in summary:
        print(
            f"{s['method']:<12} {s['k_available']:>4} {s['label_ratio']:>8} "
            f"{s['rmse_mean']:>10.4f} {s['rmse_std']:>10.4f}"
        )
    print(f"summary written to {args.out}")


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="stationsense")
    p.add_argument("--config", default=None, help="YAML run configuration")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-dir", default="out")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("simulate", help="generate frames/trajectory CSVs")
    sp.set_defaults(func=cmd_simulate)

    sp = sub.add_parser("build-dataset", help="simulate and build labeled/unlabeled datasets")
    sp.add_argument("--export-csv", action="store_true")
    sp.set_defaults(func=cmd_build_dataset)

    sp = sub.add_parser("pretrain", help="self-supervised pre-training (settings from the YAML)")
    sp.add_argument("--dataset", required=True)
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=cmd_pretrain)

    sp = sub.add_parser("train", help="supervised downstream training (settings from the YAML)")
    sp.add_argument("--labeled", required=True)
    sp.add_argument("--method", choices=_CHECKPOINT_METHODS, default="naive")
    sp.add_argument("--extractor", default=None,
                    help="pre-trained extractor checkpoint (crossl, proposed)")
    sp.add_argument("--label-ratio", type=float, default=1.0)
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=cmd_train)

    sp = sub.add_parser("evaluate", help="availability sweep of a model (settings from the YAML's sweep)")
    sp.add_argument("--model", required=True)
    sp.add_argument("--dataset", required=True)
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=cmd_evaluate)

    sp = sub.add_parser("sweep", help="full method x ratio x seed grid")
    sp.add_argument("--data-dir", required=True)
    sp.add_argument("--methods", default="constant,naive,proposed")
    sp.set_defaults(func=cmd_sweep)

    sp = sub.add_parser("pca-export", help="2-D PCA projection of inputs or embeddings")
    sp.add_argument("--train", required=True)
    sp.add_argument("--test", required=True)
    sp.add_argument("--extractor", default=None)
    sp.add_argument("--k", type=int, nargs="+", default=[8])
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=cmd_pca_export)

    sp = sub.add_parser("report", help="summarize a metrics CSV")
    sp.add_argument("--metrics", required=True)
    sp.add_argument("--out", default="summary.csv")
    sp.set_defaults(func=cmd_report)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    args.func(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
