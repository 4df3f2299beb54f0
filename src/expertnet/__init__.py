"""Noisy-label co-training: an amateur classifier and an expert label
corrector trained alternately per minibatch, with a label-noise engine,
reference baselines, and a reproducible experiment harness."""

from .baselines import BaselineSpec, bootstrap_target, train_baseline
from .data import (
    Dataset,
    load_table,
    make_blobs,
    one_hot_batch,
    stratified_split,
    subsample,
)
from .errors import (
    ConfigurationError,
    DataError,
    DimensionError,
    ExpertNetError,
    InputError,
    NumericError,
)
from .harness import (
    BlobsSpec,
    ExperimentConfig,
    FileSpec,
    MethodRun,
    ResultRecord,
    emit_report,
    grid_records,
    parse_config,
    read_config,
    run_grid,
)
from .model import (
    EpochStats,
    ExpertNet,
    accuracy,
    amateur_network,
    build_expertnet,
    expert_input,
    infer_amateur,
    infer_full,
    load_checkpoint,
    save_checkpoint,
    train,
    train_step,
)
from .nn import (
    Activation,
    CrossEntropyLoss,
    Dense,
    ForwardCorrectedLoss,
    Network,
    SgdState,
    StepDecay,
    backward,
    forward,
    gradient_check,
    loss_and_gradients,
    lr_at,
    mlp,
    predict,
    sgd_step,
    softmax,
)
from .noise import (
    corrupt_labels,
    empirical_matrix,
    load_matrix_csv,
    save_matrix_csv,
    symmetric_matrix,
)

__version__ = "0.1.0"
