"""Kernel conditional-dependence statistics and domain adaptation built on them."""

from .errors import (
    ConfigError,
    DegenerateDataError,
    InputError,
    NumericalError,
    ParseError,
)
from .kernels import (
    GramMatrix,
    KernelConfig,
    center,
    gram,
    label_gram,
    mean_sq_dist_bandwidth,
    normalize,
    product_gram,
)
from .measures import (
    AdistanceReport,
    DependenceReport,
    StatKind,
    a_distance,
    cond,
    cond_from_features,
    convergence_probe,
    mmd,
    nocco_from_features,
    per_class_nocco_from_features,
)
from .gradients import (
    CondKernelConfig,
    GradCheckReport,
    cond_objective,
    finite_diff_check,
)
from .model import (
    LossBreakdown,
    ModelParams,
    init_params,
    load_params,
    loss_ce,
    loss_entropy,
    save_params,
)
from .trainer import (
    AdamConfig,
    PseudoLabelMode,
    TrainConfig,
    TrainTrace,
    adapt_epoch,
    fit,
    init_pseudo_labels,
    pretrain,
    target_accuracy,
)
from .data import (
    AdaptationDataset,
    SyntheticKind,
    SyntheticSpec,
    chain_triple,
    load_features,
    make_conditional_chain,
    make_rotated_moons,
    make_shifted_blobs,
    save_features,
)

__version__ = "0.1.0"
