"""Mutual-information estimation from smoothed entropies.

Two sampling regimes are supported:

* conditional sampling -- ``I(X; Y+Z) = h(Y+Z) - sum_i p_i h(Y+Z | X=x_i)``
  from per-condition sample sets (``conditional_mi``), the regime produced
  by recording noisy-network activations per input.  Condition ``i`` is
  weighted by its share ``p_i = n_i / N`` of the rows, and the marginal is
  all rows unless the caller passes its own;
* joint sampling -- ``I(X+Z1; Y+Z2) = h(X+Z1) + h(Y+Z2) - h([X;Y]+Z)``
  from paired samples (``joint_mi``), where the stacked term lives in twice
  the ambient dimension and is reduced to twice the target dimension.

Every entropy term runs the projection estimator with its own seed derived
from ``config.seed``, keyed by term role and condition index, so adding a
condition never perturbs the other terms' draws.  An ``MiEstimate`` is the
list of its named, weighted entropy terms; ``value`` is always recomputed
from them, so the reported number and its components cannot drift apart.
"""

from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .errors import InvalidData
from .estimator import (
    EstimatorConfig,
    SmoothedEntropyResult,
    config_with_seed,
    pca_smoothed_entropy,
)
from .pca import SampleMatrix

# Not called here: ``benchmarks/tracing.py`` patches ``mi.substream`` by
# name, so the attribute has to exist.
from .rng import substream  # noqa: F401

__all__ = [
    "ConditionalDataset",
    "EntropyTerm",
    "JointDataset",
    "MiEstimate",
    "conditional_entropy",
    "conditional_mi",
    "joint_mi",
]

# Term tags for per-term seed derivation (appended to config.seed's path).
_TAG_MARGINAL = 10
_TAG_CONDITION = 11
_TAG_X = 12
_TAG_Y = 13
_TAG_JOINT = 14


@dataclass(frozen=True, eq=False)
class ConditionalDataset:
    """Samples of Y drawn separately under each condition X = x_i."""

    conditions: tuple
    samples: tuple[SampleMatrix, ...]

    def __post_init__(self):
        if len(self.conditions) < 1 or len(self.conditions) != len(self.samples):
            raise InvalidData("need one sample matrix per condition, at least one condition")
        dims = {s.dim for s in self.samples}
        if len(dims) != 1:
            raise InvalidData(f"per-condition sample dims differ: {sorted(dims)}")
        object.__setattr__(self, "conditions", tuple(self.conditions))
        object.__setattr__(self, "samples", tuple(self.samples))

    @property
    def n_conditions(self) -> int:
        return len(self.conditions)

    @property
    def dim(self) -> int:
        return self.samples[0].dim


@dataclass(frozen=True, eq=False)
class JointDataset:
    """Column-paired samples of (X, Y); column j of x and y form one pair."""

    x: SampleMatrix
    y: SampleMatrix

    def __post_init__(self):
        if self.x.count != self.y.count:
            raise InvalidData(
                f"x and y must be column-paired, got {self.x.count} vs {self.y.count} samples"
            )

    @property
    def count(self) -> int:
        return self.x.count


class EntropyTerm(NamedTuple):
    """One smoothed-entropy term of an MI estimate: it adds ``weight * result.value``."""

    name: str
    weight: float
    result: SmoothedEntropyResult


def _total(values) -> float:
    """Left-to-right float sum (the builtin ``sum`` compensates from Python 3.12)."""
    total = 0.0
    for value in values:
        total += value
    return total


@dataclass(frozen=True, eq=False)
class MiEstimate:
    """A mutual-information value as a weighted sum of entropy terms.

    ``value`` is ``sum(w * h)`` and ``std_error`` is ``sqrt(sum((w * se)^2))``
    over ``terms``, summed in term order and recomputed on every access.
    """

    terms: tuple[EntropyTerm, ...]

    @property
    def components(self) -> dict:
        """Each term's entropy result, by term name."""
        return {term.name: term.result for term in self.terms}

    @property
    def value(self) -> float:
        return _total(term.weight * term.result.value for term in self.terms)

    @property
    def std_error(self) -> float:
        """Root-sum-square of the weighted terms' Monte-Carlo standard errors.

        For :func:`joint_mi` the ``x``, ``y`` and ``joint`` terms are built
        from the same pairs, so they are correlated and this is not the
        standard error of the MI, only a per-term Monte-Carlo diagnostic.
        """
        squares = ((term.weight * term.result.mc_std_error) ** 2 for term in self.terms)
        return float(np.sqrt(_total(squares)))


def conditional_entropy(estimate: MiEstimate) -> float:
    """``h(Y+Z | X)`` of a :func:`conditional_mi` estimate: the count-weighted
    mean of its condition terms.  ``value == marginal - conditional_entropy``
    holds exactly.
    """
    conditions = (t for t in estimate.terms if t.name != "marginal")
    return -_total(t.weight * t.result.value for t in conditions)


def conditional_mi(
    data: ConditionalDataset,
    config: EstimatorConfig,
    marginal: SampleMatrix | None = None,
) -> MiEstimate:
    """Estimate ``I(X; Y+Z)`` from per-condition samples of Y.

    Condition ``i`` has weight ``-n_i / N``, its share of all ``N``
    conditional samples, and the marginal has weight 1.  ``marginal``
    defaults to all conditional samples, the groups concatenated in order.
    """
    total = sum(block.count for block in data.samples)
    if marginal is None:
        marginal = SampleMatrix.adopt(np.concatenate([block.data.T for block in data.samples]))
    if marginal.dim != data.dim:
        raise InvalidData(
            f"marginal dim {marginal.dim} != conditional dim {data.dim}"
        )
    terms = [
        EntropyTerm(
            f"condition[{idx}]",
            -block.count / total,
            pca_smoothed_entropy(block, config_with_seed(config, _TAG_CONDITION, idx)),
        )
        for idx, block in enumerate(data.samples)
    ]
    # The marginal goes last, so value = (condition terms) + marginal is
    # bitwise equal to marginal - conditional_entropy(estimate).
    marginal_term = pca_smoothed_entropy(marginal, config_with_seed(config, _TAG_MARGINAL))
    terms.append(EntropyTerm("marginal", 1.0, marginal_term))
    return MiEstimate(terms=tuple(terms))


def joint_mi(data: JointDataset, config: EstimatorConfig) -> MiEstimate:
    """Estimate ``I(X+Z1; Y+Z2)`` from paired samples.

    The x and y terms reduce to ``config.target_dim``.  The joint term
    stacks x on top of y (always in that order, so results are
    reproducible) and reduces to target dimension ``2 * config.target_dim``.
    """
    x_term = pca_smoothed_entropy(data.x, config_with_seed(config, _TAG_X))
    y_term = pca_smoothed_entropy(data.y, config_with_seed(config, _TAG_Y))
    stacked = SampleMatrix.adopt(np.concatenate([data.x.data.T, data.y.data.T], axis=1))
    joint_term = pca_smoothed_entropy(
        stacked, replace(config_with_seed(config, _TAG_JOINT), target_dim=2 * config.target_dim)
    )
    return MiEstimate(
        terms=(
            EntropyTerm("x", 1.0, x_term),
            EntropyTerm("y", 1.0, y_term),
            EntropyTerm("joint", -1.0, joint_term),
        ),
    )
