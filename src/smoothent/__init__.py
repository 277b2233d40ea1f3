"""Smoothed differential entropy and mutual information in high dimension.

The estimator pipeline: fit a top-``d`` eigenbasis on half the samples,
project the other half, estimate the ``d``-dimensional entropy of the
projected empirical measure convolved with isotropic Gaussian noise, and add
the exact entropy of the noise in the deleted dimensions.  Mutual-information
estimators, independence-test scoring, synthetic data generators and a CSV
experiment harness are built on top.

All entropies are reported in nats (bits are a display conversion only).
"""

from .errors import (
    DegenerateGap,
    InsufficientData,
    InvalidConfig,
    InvalidData,
    NumericalFailure,
    SmoothentError,
    Unsupported,
)
from .estimator import (
    BoundInputs,
    EstimatorConfig,
    SmoothedEntropyResult,
    dimension_correction,
    gaussian_smoothed_entropy_oracle,
    pca_smoothed_entropy,
    pca_error_bound,
)
from .mixture import (
    EntropyEstimate,
    IsotropicMixture,
    mixture_log_density,
    plugin_entropy_mc,
    plugin_entropy_quadrature,
)
from .experiments import (
    AucReport,
    SweepRecord,
    SweepSpec,
    rank_auc,
    run_activation_mi,
    run_indep_auc,
    run_sweep,
)
from .io import ingest_activation_dump
from .mi import (
    ConditionalDataset,
    JointDataset,
    MiEstimate,
    conditional_mi,
    joint_mi,
)
from .pca import (
    PcaModel,
    SampleMatrix,
    compute_covariance,
    fit_pca,
    project,
    symmetric_eigendecomposition,
)
from .rng import derive_seed, substream
from .synthetic import gen_common_signal_pair, gen_embedded_gaussian, gen_spiral

__version__ = "0.1.0"

__all__ = [
    "AucReport",
    "BoundInputs",
    "ConditionalDataset",
    "DegenerateGap",
    "EntropyEstimate",
    "EstimatorConfig",
    "InsufficientData",
    "InvalidConfig",
    "InvalidData",
    "IsotropicMixture",
    "JointDataset",
    "MiEstimate",
    "NumericalFailure",
    "PcaModel",
    "SampleMatrix",
    "SmoothedEntropyResult",
    "SmoothentError",
    "SweepRecord",
    "SweepSpec",
    "Unsupported",
    "compute_covariance",
    "conditional_mi",
    "derive_seed",
    "dimension_correction",
    "fit_pca",
    "gaussian_smoothed_entropy_oracle",
    "gen_common_signal_pair",
    "gen_embedded_gaussian",
    "gen_spiral",
    "ingest_activation_dump",
    "joint_mi",
    "mixture_log_density",
    "pca_smoothed_entropy",
    "plugin_entropy_mc",
    "plugin_entropy_quadrature",
    "project",
    "rank_auc",
    "run_activation_mi",
    "run_indep_auc",
    "run_sweep",
    "substream",
    "symmetric_eigendecomposition",
    "pca_error_bound",
]
