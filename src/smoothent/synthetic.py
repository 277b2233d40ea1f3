"""Seeded generators for the synthetic benchmark distributions.

Each generator is a pure function of its parameters and seed.  Where a
closed-form reference exists (the embedded Gaussian), the population
covariance is returned alongside the samples so oracles never have to be
re-derived by callers.

Spiral conventions: the angle is uniform on ``[0, 4 pi]`` (two turns) and
the radius grows linearly from 0.5 to 4.0 over that range, so the curve is
a fixed Archimedean spiral; the ambient embedding appends independent
``N(0, lambda_res^2)`` coordinates.  Note the intensity
conventions differ deliberately: ``lambda_res`` is a standard deviation for
the spiral noise block but a variance for the residual axes of the embedded
Gaussian.
"""

import math

import numpy as np

from .errors import InvalidConfig
from .mi import JointDataset
from .pca import SampleMatrix
from .rng import substream

__all__ = [
    "SPIRAL_KINDS",
    "gen_embedded_gaussian",
    "gen_spiral",
    "gen_common_signal_pair",
]

SPIRAL_KINDS = ("spiral2d", "conical", "cylindrical")

_R_MIN = 0.5
_R_MAX = 4.0
_THETA_MAX = 4.0 * math.pi
_Z_MAX = 4.0
# Bytes of normals ``_draw_normal_rows`` holds beside the rows it fills.
_DRAW_BYTES = 1 << 20


def _draw_normal_rows(rng, out: np.ndarray) -> None:
    """Fill the ``(n, k)`` rows ``out`` with ``rng.standard_normal((k, n)).T``.

    The normals keep the ``(k, n)`` draw order the generators have always
    used, so their values do not depend on the sample layout; drawn a block
    of dimensions at a time, they need no second ``(k, n)`` array.
    """
    n, k = out.shape
    step = max(1, _DRAW_BYTES // (8 * n))
    for lo in range(0, k, step):
        out[:, lo : lo + step] = rng.standard_normal((min(step, k - lo), n)).T


def gen_embedded_gaussian(
    intrinsic_dim: int,
    ambient_dim: int,
    lambda_res: float,
    n: int,
    seed: int,
) -> tuple[SampleMatrix, np.ndarray]:
    """Draw ``N(0, diag(1 x d, lambda_res x (D-d)))`` samples.

    Returns the samples and the population covariance (for closed-form
    references).  ``lambda_res`` is the variance of each residual axis.
    """
    if not (1 <= intrinsic_dim <= ambient_dim):
        raise InvalidConfig(
            f"need 1 <= intrinsic_dim <= ambient_dim, got {intrinsic_dim}, {ambient_dim}"
        )
    if not (math.isfinite(lambda_res) and lambda_res > 0):
        raise InvalidConfig(f"lambda_res must be positive and finite, got {lambda_res}")
    if n < 1:
        raise InvalidConfig(f"n must be >= 1, got {n}")
    variances = np.concatenate(
        [np.ones(intrinsic_dim), np.full(ambient_dim - intrinsic_dim, lambda_res)]
    )
    rows = np.empty((n, ambient_dim))
    _draw_normal_rows(substream(seed), rows)
    rows *= np.sqrt(variances)
    return SampleMatrix.adopt(rows), np.diag(variances)


def spiral_intrinsic_dim(kind: str) -> int:
    if kind == "spiral2d":
        return 2
    if kind in ("conical", "cylindrical"):
        return 3
    raise InvalidConfig(f"unknown spiral kind {kind!r}")


def gen_spiral(
    kind: str,
    lambda_res: float,
    ambient_dim: int,
    n: int,
    seed: int,
) -> SampleMatrix:
    """Spiral manifold samples embedded in ``ambient_dim`` dimensions.

    ``spiral2d`` -> (r cos t, r sin t); ``conical`` -> (r cos t, r sin t, r);
    ``cylindrical`` -> (r cos t, r sin t, z) with z ~ Unif[0, 4].  The
    remaining ``ambient_dim - intrinsic`` coordinates are independent
    ``N(0, lambda_res^2)``.
    """
    intrinsic = spiral_intrinsic_dim(kind)
    if ambient_dim < intrinsic:
        raise InvalidConfig(f"{kind} needs ambient_dim >= {intrinsic}, got {ambient_dim}")
    if not (math.isfinite(lambda_res) and lambda_res > 0):
        raise InvalidConfig(f"lambda_res must be positive and finite, got {lambda_res}")
    if n < 1:
        raise InvalidConfig(f"n must be >= 1, got {n}")
    rng = substream(seed)
    theta = rng.uniform(0.0, _THETA_MAX, size=n)
    r = _R_MIN + (_R_MAX - _R_MIN) * (theta / _THETA_MAX)
    rows = np.empty((n, ambient_dim))
    rows[:, 0] = r * np.cos(theta)
    rows[:, 1] = r * np.sin(theta)
    if kind == "conical":
        rows[:, 2] = r
    elif kind == "cylindrical":
        rows[:, 2] = rng.uniform(0.0, _Z_MAX, size=n)
    _draw_normal_rows(rng, rows[:, intrinsic:])
    rows[:, intrinsic:] *= lambda_res
    return SampleMatrix.adopt(rows)


def gen_common_signal_pair(
    intrinsic_dim: int,
    ambient_dim: int,
    n: int,
    noise_std: float,
    seed: int,
    dependent: bool = True,
) -> tuple[JointDataset, bool]:
    """Paired vectors sharing (or not) a rank-``d`` common signal.

    ``X = P_x W + N_x`` and ``Y = P_y W' + N_y`` with ``P_x, P_y`` drawn once
    per dataset as ``D x d`` standard-normal matrices and per-sample
    ``W ~ N(0, I_d)``.  Dependent pairs share ``W' = W``; null pairs use a
    fresh ``W'`` for Y.  Returns the dataset and the dependence flag.

    The draw order from ``substream(seed)`` is fixed and part of the
    contract: ``P_x, P_y, W, N_x, N_y`` and then, for null pairs only,
    ``W'``.  A dependent and a null dataset with the same seed therefore
    share ``X`` (and everything except the signal of ``Y``), which makes
    paired comparisons possible.
    """
    if not (1 <= intrinsic_dim <= ambient_dim):
        raise InvalidConfig(
            f"need 1 <= intrinsic_dim <= ambient_dim, got {intrinsic_dim}, {ambient_dim}"
        )
    if not (math.isfinite(noise_std) and noise_std > 0):
        raise InvalidConfig(f"noise_std must be positive and finite, got {noise_std}")
    if n < 1:
        raise InvalidConfig(f"n must be >= 1, got {n}")
    rng = substream(seed)
    p_x = rng.standard_normal((ambient_dim, intrinsic_dim))
    p_y = rng.standard_normal((ambient_dim, intrinsic_dim))
    w = rng.standard_normal((intrinsic_dim, n))
    x, y = np.empty((n, ambient_dim)), np.empty((n, ambient_dim))
    for rows in (x, y):
        _draw_normal_rows(rng, rows)
        rows *= noise_std
    w_y = w if dependent else rng.standard_normal((intrinsic_dim, n))
    x += (p_x @ w).T
    y += (p_y @ w_y).T
    return JointDataset(x=SampleMatrix.adopt(x), y=SampleMatrix.adopt(y)), dependent
