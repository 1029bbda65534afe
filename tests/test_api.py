"""The public API of `stationsense` and the leaves of its YAML configuration,
pinned name by name: adding or removing a public name or a knob needs an
edit here."""

import types

import stationsense as ss
from stationsense.config import config_to_dict

PUBLIC_NAMES = [
    "AugmentConfig", "CheckpointError", "ConstantModel", "CsiStream", "DaeModel", "Dataset",
    "DatasetFormatError", "EnsembleModel", "FeatureExtractor", "FitResult", "InpaintingModel",
    "METHODS", "MetricsRow", "MlpStack", "OutageSpec", "RandomStream", "RunConfig", "Scenario",
    "SensingModel", "SweepSpec", "TrainConfig", "TrainSettings", "TrainingDiverged", "Trajectory",
    "VicregWeights", "WindowSpec", "WindowingConfig", "build_extractor", "build_head",
    "build_labeled_dataset", "build_unlabeled_dataset", "channel_response",
    "default_keep_list", "desk_scenario", "desk_settings", "desk_windowing", "dump_config",
    "eval_at_availability", "export_csv", "finite_diff_check", "gen_csi_streams", "gen_trajectory",
    "label_ratio_subset", "load_checkpoint", "load_config", "load_dataset", "normalize_power",
    "pca_export", "preprocess_stream", "pretrain", "rmse", "run_grid", "run_masking_heatmap",
    "sample_mask_matrix", "save_checkpoint", "save_dataset", "train_dae", "train_downstream",
    "train_ensemble", "train_method", "vicreg_loss_grads",
    "write_metrics_csv", "write_summary_csv",
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


def test_public_names_are_pinned():
    names = sorted(
        n for n in dir(ss)
        if not n.startswith("_") and not isinstance(getattr(ss, n), types.ModuleType)
    )
    assert names == PUBLIC_NAMES
    assert len(names) == 63


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
