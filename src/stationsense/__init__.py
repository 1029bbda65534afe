"""Multi-station WiFi channel-state sensing that stays accurate when
stations drop out.

Pipeline: synthetic multi-station CSI acquisition -> windowed amplitude
samples -> self-supervised pre-training with station-dropout views -> a
supervised sensing head trained with station-wise masking augmentation ->
an evaluation harness that sweeps station availability and label budget.
"""

from .core import RandomStream, sample_mask_matrix
from .synth import (
    CsiStream,
    OutageSpec,
    Scenario,
    Trajectory,
    channel_response,
    gen_csi_streams,
    gen_trajectory,
)
from .pipeline import (
    Dataset,
    DatasetFormatError,
    WindowSpec,
    build_labeled_dataset,
    build_unlabeled_dataset,
    default_keep_list,
    export_csv,
    load_dataset,
    normalize_power,
    preprocess_stream,
    save_dataset,
)
from .nnkit import (
    CheckpointError,
    FitResult,
    MlpStack,
    TrainConfig,
    TrainingDiverged,
    finite_diff_check,
)
from .crossl import (
    FeatureExtractor,
    VicregWeights,
    build_extractor,
    pretrain,
    vicreg_loss_grads,
)
from .downstream import (
    AugmentConfig,
    ConstantModel,
    DaeModel,
    EnsembleModel,
    InpaintingModel,
    SensingModel,
    build_head,
    load_checkpoint,
    save_checkpoint,
    train_dae,
    train_downstream,
    train_ensemble,
)
from .harness import (
    METHODS,
    MetricsRow,
    SweepSpec,
    TrainSettings,
    desk_settings,
    eval_at_availability,
    label_ratio_subset,
    pca_export,
    rmse,
    run_grid,
    run_masking_heatmap,
    train_method,
    write_metrics_csv,
    write_summary_csv,
)
from .config import (
    RunConfig,
    WindowingConfig,
    desk_scenario,
    desk_windowing,
    dump_config,
    load_config,
)

__version__ = "0.1.0"
