"""The public API of `stationsense`, pinned name by name: adding or removing
a public name needs an edit here."""

import types

import stationsense as ss

PUBLIC_NAMES = [
    "AugmentConfig", "CheckpointError", "ConstantModel", "CsiStream", "DaeModel", "Dataset",
    "DatasetFormatError", "EnsembleModel", "FeatureExtractor", "FitResult", "InpaintingModel",
    "METHODS", "MetricsRow", "MlpStack", "OutageSpec", "RandomStream", "RunConfig", "Scenario",
    "SensingModel", "SweepSpec", "TrainConfig", "TrainSettings", "TrainingDiverged", "Trajectory",
    "VicregWeights", "WindowSpec", "WindowingConfig", "build_extractor", "build_head",
    "build_labeled_dataset", "build_unlabeled_dataset", "channel_response", "constant_baseline",
    "default_keep_list", "desk_scenario", "desk_settings", "desk_windowing", "dump_config",
    "eval_at_availability", "export_csv", "finite_diff_check", "gen_csi_streams", "gen_trajectory",
    "label_ratio_subset", "load_checkpoint", "load_config", "load_dataset", "normalize_power",
    "pca_export", "preprocess_stream", "pretrain", "rmse", "run_grid", "run_masking_heatmap",
    "sample_mask_matrix", "save_checkpoint", "save_dataset", "train_dae", "train_downstream",
    "train_ensemble", "train_method", "train_naive", "vicreg_loss", "vicreg_loss_grads",
    "write_metrics_csv", "write_summary_csv",
]


def test_public_names_are_pinned():
    names = sorted(
        n for n in dir(ss)
        if not n.startswith("_") and not isinstance(getattr(ss, n), types.ModuleType)
    )
    assert names == PUBLIC_NAMES
    assert len(names) == 66
