"""High-dimensional smoothed entropy via projection plus dimension correction.

``pca_smoothed_entropy`` is the headline estimator: split the samples, fit
the top-``d`` eigenbasis on the first part, project the second part, run the
``d``-dimensional Monte-Carlo plug-in estimate, and add back the exact
entropy of the noise in the ``D - d`` deleted dimensions,

    ((D - d) / 2) * ln(2 pi e sigma^2).

Splitting keeps the fitted basis independent of the samples used for the
entropy, which is what the error analysis assumes; a ``reuse`` mode that fits
and estimates on the full set is provided for practitioners but is off-theory.

``pca_error_bound`` evaluates the explicit PCA-error term of the known error
bound for this estimator.  The bound's second term has an unspecified
constant and is deliberately not evaluated; treat the result as a partial
(one-term) bound, not a full guarantee.

All entropies are in nats.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import DegenerateGap, InsufficientData, InvalidConfig, InvalidData
from .mixture import LN_2PI, EntropyEstimate, IsotropicMixture, plugin_entropy_mc
from .pca import PcaModel, SampleMatrix, fit_pca, project, symmetric_eigendecomposition
from .rng import derive_seed, substream

__all__ = [
    "EstimatorConfig",
    "SmoothedEntropyResult",
    "BoundInputs",
    "dimension_correction",
    "pca_smoothed_entropy",
    "gaussian_smoothed_entropy_oracle",
    "pca_error_bound",
]

SPLIT_POLICIES = ("half", "reuse")

# Substream tags used when deriving per-stage seeds from config.seed.
_SPLIT_TAG = 0
_MC_TAG = 1


@dataclass(frozen=True)
class EstimatorConfig:
    """Everything needed to reproduce one smoothed-entropy estimate.

    ``split`` is ``"half"`` (seeded shuffle, first ceil(n/2) samples fit
    the basis, the rest feed the entropy estimate) or ``"reuse"`` (fit and
    estimate on the full set).
    """

    sigma: float
    target_dim: int
    n_mc: int = 100
    seed: int = 0
    split: str = "half"
    center: bool = True

    def __post_init__(self):
        if not (math.isfinite(self.sigma) and self.sigma > 0):
            raise InvalidConfig(f"sigma must be a positive real, got {self.sigma}")
        if self.target_dim < 1:
            raise InvalidConfig(f"target_dim must be >= 1, got {self.target_dim}")
        if self.n_mc < 1:
            raise InvalidConfig(f"n_mc must be >= 1, got {self.n_mc}")
        if self.split not in SPLIT_POLICIES:
            raise InvalidConfig(f"split must be one of {SPLIT_POLICIES}, got {self.split!r}")


@dataclass(frozen=True, eq=False)
class SmoothedEntropyResult:
    """Plug-in estimate on the projected samples plus the dimension correction.

    ``value`` is ``plugin.value + correction`` by construction; ``pca``
    carries the eigenvalue spectrum, gap and residual so callers can audit
    whether the low-dimensional assumption held.
    """

    plugin: EntropyEstimate
    correction: float
    pca: PcaModel
    config: EstimatorConfig

    @property
    def value(self) -> float:
        return self.plugin.value + self.correction

    @property
    def mc_std_error(self) -> float:
        return self.plugin.mc_std_error


@dataclass(frozen=True)
class BoundInputs:
    """Quantities consumed by the one-term error bound.

    ``second_moment`` bounds ``E||X||^2``; ``residual`` and ``eigen_gap`` are
    the spectral diagnostics reported by the fitted projection.
    """

    second_moment: float
    residual: float
    eigen_gap: float
    ambient_dim: int
    sigma: float
    n: int

    def __post_init__(self):
        positives = {
            "second_moment": self.second_moment,
            "sigma": self.sigma,
            "n": self.n,
            "ambient_dim": self.ambient_dim,
        }
        for name, value in positives.items():
            if not value > 0:
                raise InvalidConfig(f"{name} must be strictly positive, got {value}")
        if self.residual < 0:
            raise InvalidConfig(f"residual must be >= 0, got {self.residual}")
        if self.eigen_gap < 0:
            raise InvalidConfig(f"eigen_gap must be >= 0, got {self.eigen_gap}")


def dimension_correction(ambient_dim: int, target_dim: int, sigma: float) -> float:
    """Exact noise entropy of the deleted dimensions: ``((D-d)/2) ln(2 pi e sigma^2)``."""
    if target_dim > ambient_dim:
        raise InvalidConfig(
            f"target_dim {target_dim} exceeds ambient_dim {ambient_dim}"
        )
    if target_dim < 1 or not (math.isfinite(sigma) and sigma > 0):
        raise InvalidConfig("need target_dim >= 1 and sigma > 0")
    return 0.5 * (ambient_dim - target_dim) * (LN_2PI + 1.0 + 2.0 * math.log(sigma))


def _half_split_indices(n: int, config: EstimatorConfig):
    if n < 2:
        raise InsufficientData(f"half split needs at least 2 samples, got {n}")
    perm = substream(config.seed, _SPLIT_TAG).permutation(n)
    n_fit = (n + 1) // 2
    return perm[:n_fit], perm[n_fit:]


def _fit_gathered(samples: SampleMatrix, indices, config: EstimatorConfig) -> PcaModel:
    """``fit_pca(samples.take(indices), ...)`` bit for bit, without a centered copy.

    The one gathered copy of the rows is centered in place; its mean (zeros
    without ``center``) and ``x - mean`` are those ``fit_pca`` would compute.
    """
    x = samples.gather(indices)
    with np.errstate(over="ignore", invalid="ignore"):  # adopt rejects non-finite
        mean = x.mean(axis=0) if config.center else np.zeros(samples.dim)
        x -= mean
    model = fit_pca(SampleMatrix.adopt(x), config.target_dim, center=False)
    return replace(model, mean=mean)


def pca_smoothed_entropy(samples: SampleMatrix, config: EstimatorConfig) -> SmoothedEntropyResult:
    """Estimate the smoothed entropy of high-dimensional samples, in nats.

    The half split holds each half once, only while its stage runs: the
    fit half is gathered, centered in place and fitted (one half plus the
    Gram or covariance workspace beyond the input), then the evaluation half
    is gathered, projected (it plus one centered copy) and freed before the
    Monte-Carlo kernel runs.
    """
    if config.target_dim > samples.dim:
        raise InvalidConfig(
            f"target_dim {config.target_dim} exceeds sample dimension {samples.dim}"
        )
    if config.split == "reuse":
        model = fit_pca(samples, config.target_dim, center=config.center)
        projected = project(samples, model)
    else:
        fit_idx, eval_idx = _half_split_indices(samples.count, config)
        model = _fit_gathered(samples, fit_idx, config)
        projected = project(samples.take(eval_idx), model)
    mixture = IsotropicMixture(projected, config.sigma)
    plugin = plugin_entropy_mc(mixture, config.n_mc, derive_seed(config.seed, _MC_TAG))
    correction = dimension_correction(samples.dim, config.target_dim, config.sigma)
    return SmoothedEntropyResult(plugin=plugin, correction=correction, pca=model, config=config)


def gaussian_smoothed_entropy_oracle(cov, sigma: float) -> float:
    """Closed-form smoothed entropy of ``N(0, cov)``: ``0.5 sum ln(2 pi e (lambda_i + sigma^2))``."""
    if not (math.isfinite(sigma) and sigma > 0):
        raise InvalidConfig(f"sigma must be a positive real, got {sigma}")
    cov = np.asarray(cov, dtype=np.float64)
    eigenvalues, _ = symmetric_eigendecomposition(cov)
    scale = max(1.0, float(eigenvalues[0]))
    if eigenvalues[-1] < -1e-10 * scale:
        raise InvalidData("covariance is not positive semidefinite within tolerance")
    lam = np.maximum(eigenvalues, 0.0)
    return float(0.5 * np.sum(LN_2PI + 1.0 + np.log(lam + sigma**2)))


def pca_error_bound(b: BoundInputs) -> float:
    """First (PCA-error) term of the estimator's error bound, in nats.

    Evaluates ``(1/sigma^2) (3 sqrt(D sigma^2 + M) + 4 sqrt(M))
    (sqrt(L) + (2 M^{3/2} / delta_d) / sqrt(n))``.  The companion
    finite-sample term has an unspecified constant and is not evaluated, so
    this is a partial bound.  Raises ``DegenerateGap`` when the eigenvalue
    gap is zero (the bound is undefined under eigenvalue ties).
    """
    if b.eigen_gap == 0:
        raise DegenerateGap("eigen gap is zero; the subspace-recovery bound is undefined")
    m = b.second_moment
    front = (3.0 * math.sqrt(b.ambient_dim * b.sigma**2 + m) + 4.0 * math.sqrt(m)) / b.sigma**2
    tail = math.sqrt(b.residual) + (2.0 * m * math.sqrt(m) / b.eigen_gap) / math.sqrt(b.n)
    return front * tail


def config_with_seed(config: EstimatorConfig, *path: int) -> EstimatorConfig:
    """Copy of ``config`` with its seed replaced by a derived substream seed."""
    return replace(config, seed=derive_seed(config.seed, *path))
