"""The public API of `stationsense`, its defaulted parameters, the leaves of
its YAML configuration and the flags of its command line, pinned name by
name: adding or removing a public name, a library option, a knob or a flag
needs an edit here."""

import argparse
import dataclasses
import inspect
import types

import stationsense as ss
from stationsense.cli import build_parser
from stationsense.config import config_to_dict

PUBLIC_NAMES = [
    "AugmentConfig", "CheckpointError", "ConstantModel", "CsiStream", "DaeModel", "Dataset",
    "DatasetFormatError", "EnsembleModel", "FeatureExtractor", "FitResult", "InpaintingModel",
    "METHODS", "MetricsRow", "MlpStack", "OutageSpec", "RandomStream", "RunConfig", "Scenario",
    "SensingModel", "SweepSpec", "TrainConfig", "TrainSettings", "TrainingDiverged", "Trajectory",
    "VicregWeights", "WindowSpec", "WindowingConfig", "build_datasets", "build_extractor", "build_head",
    "build_labeled_dataset", "build_unlabeled_dataset", "channel_response",
    "default_keep_list", "desk_scenario", "desk_settings", "desk_windowing", "dump_config",
    "eval_at_availability", "export_csv", "finite_diff_check", "gen_csi_streams", "gen_trajectory",
    "label_ratio_subset", "load_checkpoint", "load_config", "load_dataset",
    "pca_export", "preprocess_stream", "pretrain", "rmse", "run_grid", "run_masking_heatmap",
    "sample_mask_matrix", "save_checkpoint", "save_dataset", "train_dae", "train_downstream",
    "train_ensemble", "train_method", "vicreg_loss_grads",
    "write_metrics_csv", "write_summary_csv",
]

# "callable.parameter" for every parameter with a default of a public
# function, or of the constructor or a public method of a public class. A
# dataclass's fields are its data, and RunConfig's are pinned as YAML leaves.
DEFAULTED_PARAMETERS = [
    "ConstantModel.__init__.value", "FeatureExtractor.__init__.encoders",
    "FeatureExtractor.aggregate_batch.held", "MlpStack.__init__.members",
    "MlpStack.backward.input_grad", "MlpStack.forward.held", "MlpStack.forward.mode",
    "MlpStack.forward.rng", "RandomStream.__init__.label", "RandomStream.exponential.scale",
    "RandomStream.exponential.size", "RandomStream.integers.high", "RandomStream.integers.size",
    "RandomStream.normal.loc", "RandomStream.normal.scale", "RandomStream.normal.size",
    "RandomStream.random.size", "RandomStream.uniform.high", "RandomStream.uniform.low",
    "RandomStream.uniform.size", "SensingModel.__init__.mode", "build_extractor.aggregator_hidden",
    "build_extractor.dropout_rate", "build_extractor.embedding_dim",
    "build_extractor.encoder_widths", "build_labeled_dataset.split_ratios",
    "default_keep_list.k_raw", "eval_at_availability.n_draws", "eval_at_availability.policy",
    "eval_at_availability.rng", "finite_diff_check.h", "finite_diff_check.n_coords",
    "finite_diff_check.rng", "load_checkpoint.kind", "run_grid.out_dir",
    "run_masking_heatmap.extractor_cache", "run_masking_heatmap.out_path", "save_checkpoint.meta",
    "train_dae.embedding_dim", "train_method.extractor", "train_method.extractor_cache",
]

YAML_LEAVES = [
    "scenario.ap_position", "scenario.bandwidth_hz", "scenario.carrier_hz",
    "scenario.duration_s", "scenario.k_raw", "scenario.mean_rate_hz", "scenario.n_stations",
    "scenario.noise_std", "scenario.outage.mean_gap_s", "scenario.outage.mean_len_s",
    "scenario.room_extent", "scenario.scatter_coeff", "scenario.station_positions",
    "sweep.available_station_counts", "sweep.combination_policy", "sweep.label_ratios",
    "sweep.n_draws", "sweep.seeds",
    "training.aggregator_hidden", "training.aug_strategy", "training.dae_lr",
    "training.downstream.batch_size", "training.downstream.learning_rate",
    "training.downstream.max_epochs", "training.downstream.patience", "training.embedding_dim",
    "training.encoder_widths", "training.mode", "training.naive_variant", "training.p_aug",
    "training.p_mask_crossl", "training.p_mask_sma", "training.pretrain.batch_size",
    "training.pretrain.learning_rate", "training.pretrain.max_epochs",
    "training.pretrain.patience", "training.vicreg.epsilon", "training.vicreg.gamma",
    "training.vicreg.lam", "training.vicreg.mu", "training.vicreg.nu",
    "windowing.label_rate_hz", "windowing.split_ratios", "windowing.ssl_rate_hz",
    "windowing.width_s",
]

# "" holds the flags taken before the subcommand
CLI_FLAGS = {
    "": ["--config", "--out-dir", "--seed"],
    "build-dataset": ["--export-csv"],
    "evaluate": ["--dataset", "--model", "--out"],
    "pca-export": ["--extractor", "--k", "--out", "--test", "--train"],
    "pretrain": ["--dataset", "--out"],
    "report": ["--metrics", "--out"],
    "simulate": [],
    "sweep": ["--data-dir", "--methods"],
    "train": ["--extractor", "--label-ratio", "--labeled", "--method", "--out"],
}


def test_public_names_are_pinned():
    names = sorted(
        n for n in dir(ss)
        if not n.startswith("_") and not isinstance(getattr(ss, n), types.ModuleType)
    )
    assert names == PUBLIC_NAMES
    assert len(names) == 63


def test_defaulted_parameters_are_pinned():
    def defaulted(owner, fn):
        params = inspect.signature(fn).parameters.values()
        return [f"{owner}.{p.name}" for p in params if p.default is not inspect.Parameter.empty]

    found = []
    for name in PUBLIC_NAMES:
        obj = getattr(ss, name)
        if not inspect.isclass(obj):
            found += defaulted(name, obj) if callable(obj) else []
            continue
        if "__init__" in vars(obj) and not dataclasses.is_dataclass(obj):
            found += defaulted(f"{name}.__init__", obj.__init__)
        for attr in vars(obj):
            if not attr.startswith("_") and inspect.isroutine(getattr(obj, attr)):
                found += defaulted(f"{name}.{attr}", getattr(obj, attr))
    assert sorted(found) == DEFAULTED_PARAMETERS
    assert len(found) == 41


def test_yaml_leaves_are_pinned():
    def leaves(doc, prefix=""):
        for key, value in doc.items():
            if isinstance(value, dict):
                yield from leaves(value, f"{prefix}{key}.")
            else:
                yield prefix + key

    names = sorted(leaves(config_to_dict(ss.RunConfig())))
    assert names == YAML_LEAVES
    assert len(names) == 45


def test_cli_flags_are_pinned():
    def flags(parser):
        return sorted(f for a in parser._actions for f in a.option_strings if f not in ("-h", "--help"))

    parser = build_parser()
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    found = {"": flags(parser), **{name: flags(p) for name, p in commands.choices.items()}}
    assert found == CLI_FLAGS
    assert sum(map(len, found.values())) == 23
