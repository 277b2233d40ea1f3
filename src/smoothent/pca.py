"""Sample covariance, symmetric eigendecomposition and top-d projection.

A ``SampleMatrix`` holds its samples as one read-only, C-ordered ``(n, D)``
array, one sample per row, and exposes the ``(D, n)`` transposed view as
``data``.  Means and the fit's products read those rows.  ``fit_pca``
estimates the top-``d`` eigenspace of the sample covariance
``(1/n) sum (x_i - m)(x_i - m)^T`` and records the spectral diagnostics
(eigenvalue gap at ``d``, residual eigenvalue sum) that control how much
variance the projection discards.

Conventions fixed here so results are reproducible:

* covariance normalizes by ``1/n`` (not ``1/(n-1)``),
* eigenvalues are sorted descending; ties keep the solver's order,
* each eigenvector's largest-magnitude component (lowest index on ties) is
  made non-negative,
* tiny negative eigenvalues from roundoff are clamped to zero before the gap
  and residual are computed.

Route rule, for the (centered) ``(n, D)`` rows ``x`` and target ``d``: when
``d <= n < D`` the fit decomposes the ``n x n`` Gram matrix ``x x^T / n``
(method of snapshots, Sirovich 1987), stores its eigenvalues followed by
``D - n`` exact zeros and maps the top-``d`` eigenvectors back as
``x^T u / sqrt(n lambda)``, unless ``lambda_d <= _GRAM_EIG_FLOOR * lambda_1``.
Otherwise it decomposes the ``D x D`` covariance ``x^T x / n``.  The routes
agree to roundoff, not bitwise.

Memory: the fit holds one ``n x n`` or ``D x D`` workspace matrix and the
eigensolver's arrays.  numpy forms ``x^T x`` and ``x x^T`` with one triangle
mirrored into the other, so the matrix is exactly symmetric and goes to
``eigh`` as it is, with no symmetrized copy.  A matrix above
``_WORKSPACE_LIMIT`` bytes raises ``Unsupported`` before it is allocated.
"""

from dataclasses import dataclass

import numpy as np

from .errors import InvalidConfig, InvalidData, NumericalFailure, Unsupported

__all__ = [
    "SampleMatrix",
    "PcaModel",
    "compute_covariance",
    "symmetric_eigendecomposition",
    "fit_pca",
    "project",
]

# Relative tolerances baked into the contracts below.
_SYMMETRY_RTOL = 1e-10
_ORTHONORMAL_ATOL = 1e-8
_EIG_NEG_RTOL = 1e-10
# Gram-route floor on lambda_d / lambda_1.  The mapped basis's orthonormality
# error grows like ~5e-16 lambda_1 / lambda_d: measured <= 5e-10 at the floor
# (n = 200 and 1000), 20x under the 1e-8 that ``PcaModel`` checks.
_GRAM_EIG_FLOOR = 1e-6
# Largest Gram or covariance matrix a fit allocates, in bytes: 2 GiB, a
# 16384 x 16384 float64 matrix.  ``eigh``'s arrays add three to four times as
# much again (measured at 2000 x 2000).  A larger one raises ``Unsupported``
# (CLI exit 3) before numpy is asked for it.
_WORKSPACE_LIMIT = 2 * 2**30


def _readonly(a) -> np.ndarray:
    """A read-only C-ordered float64 copy of ``a``."""
    out = np.array(a, dtype=np.float64, order="C")
    out.flags.writeable = False
    return out


@dataclass(frozen=True, eq=False)
class SampleMatrix:
    """``n`` samples of dimension ``D``: ``data`` is ``(D, n)``, one column per sample.

    The samples are held once, as a read-only, C-ordered ``(n, D)`` array
    of rows that the matrix alone holds; ``data`` is its transposed view.
    The constructor copies its ``(D, n)`` input into such rows.
    """

    data: np.ndarray

    def __post_init__(self):
        self._hold(np.array(np.asarray(self.data, dtype=np.float64).T, order="C"))

    def _hold(self, rows: np.ndarray) -> None:
        """Check and freeze ``rows``, a C-ordered float64 array of its own, and hold them."""
        if rows.ndim != 2 or 0 in rows.shape:
            raise InvalidData(f"sample matrix must be 2-d and at least 1x1, got {rows.T.shape}")
        if not np.all(np.isfinite(rows)):
            raise InvalidData("sample matrix contains non-finite entries")
        rows.flags.writeable = False  # before the view is taken, which inherits the flag
        object.__setattr__(self, "data", rows.T)

    @classmethod
    def adopt(cls, rows: np.ndarray) -> "SampleMatrix":
        """Wrap fresh ``(n, D)`` rows, one sample per row, with the checks of the constructor.

        A C-ordered float64 array that owns its data is made read-only in
        place and held without a copy: the caller hands it over, as the
        library does with the rows it has just made.  Any other input is copied.
        """
        rows = np.asarray(rows, dtype=np.float64, order="C")
        out = object.__new__(cls)
        out._hold(rows if rows.flags.owndata else rows.copy())
        return out

    @property
    def dim(self) -> int:
        return self.data.shape[0]

    @property
    def count(self) -> int:
        return self.data.shape[1]

    def gather(self, indices) -> np.ndarray:
        """The samples at ``indices`` as fresh C-ordered ``(k, D)`` rows, or ``IndexError``."""
        return np.take(self.data.T, np.asarray(indices, dtype=np.intp), axis=0)

    def take(self, indices) -> "SampleMatrix":
        """``SampleMatrix(data[:, indices])``, adopting the rows ``gather`` makes.

        Out-of-range indices raise ``IndexError``, an empty selection ``InvalidData``.
        """
        return SampleMatrix.adopt(self.gather(indices))


@dataclass(frozen=True, eq=False)
class PcaModel:
    """Top-``d`` eigenbasis of a sample covariance plus spectral diagnostics.

    ``basis`` is ``(D, d)`` with orthonormal columns, ``1 <= d <= D``; its
    shape gives ``ambient_dim`` and ``target_dim``.  ``spectrum`` is the full
    descending eigenvalue list; ``mean`` is the centering vector subtracted
    before projecting (zeros if uncentered).  The diagnostics are derived from
    the spectrum with negative eigenvalues clamped to zero: ``eigen_gap`` is
    half the gap between the ``d``-th and ``(d+1)``-th eigenvalues (half the
    ``d``-th for ``d == D``); ``residual`` is the eigenvalue mass beyond the
    ``d``-th.
    """

    basis: np.ndarray
    spectrum: np.ndarray
    mean: np.ndarray

    def __post_init__(self):
        basis = np.asarray(self.basis, dtype=np.float64)
        spectrum = np.asarray(self.spectrum, dtype=np.float64)
        mean = np.asarray(self.mean, dtype=np.float64)
        if basis.ndim != 2 or not (1 <= basis.shape[1] <= basis.shape[0]):
            raise InvalidData(f"basis must be (D, d) with 1 <= d <= D, got shape {basis.shape}")
        d_amb, d_tgt = basis.shape
        if spectrum.shape != (d_amb,) or mean.shape != (d_amb,):
            raise InvalidData("spectrum and mean must both have length ambient_dim")
        gram = basis.T @ basis
        if not np.allclose(gram, np.eye(d_tgt), atol=_ORTHONORMAL_ATOL):
            raise InvalidData("basis columns are not orthonormal")
        if np.any(np.diff(spectrum) > 1e-12 * max(1.0, abs(float(spectrum[0])))):
            raise InvalidData("spectrum is not sorted non-increasing")
        scale = max(1.0, abs(float(spectrum[0])))
        if np.any(spectrum < -_EIG_NEG_RTOL * scale):
            raise InvalidData("spectrum has a significantly negative eigenvalue")
        object.__setattr__(self, "basis", _readonly(basis))
        object.__setattr__(self, "spectrum", _readonly(spectrum))
        object.__setattr__(self, "mean", _readonly(mean))

    @property
    def ambient_dim(self) -> int:
        return self.basis.shape[0]

    @property
    def target_dim(self) -> int:
        return self.basis.shape[1]

    @property
    def eigen_gap(self) -> float:
        clamped = np.maximum(self.spectrum, 0.0)
        below = clamped[self.target_dim] if self.target_dim < self.ambient_dim else 0.0
        return float(0.5 * (clamped[self.target_dim - 1] - below))

    @property
    def residual(self) -> float:
        return float(np.sum(np.maximum(self.spectrum, 0.0)[self.target_dim :]))


def _check_workspace(kind: str, size: int, samples: SampleMatrix) -> None:
    """Raise ``Unsupported`` if a ``size x size`` float64 matrix exceeds ``_WORKSPACE_LIMIT``."""
    nbytes = 8 * size * size
    if nbytes > _WORKSPACE_LIMIT:
        raise Unsupported(
            f"the {kind} matrix of {samples.count} samples in {samples.dim} dimensions is "
            f"{size} x {size}, {nbytes} bytes, above the PCA fit's limit of "
            f"{_WORKSPACE_LIMIT} bytes"
        )


def compute_covariance(samples: SampleMatrix, center: bool = True) -> np.ndarray:
    """Sample covariance ``(1/n) sum (x_i - m)(x_i - m)^T``.

    ``m`` is the sample mean when ``center`` is true, zero otherwise; centering
    makes one copy of the rows.  numpy forms ``x^T x`` by mirroring one
    triangle into the other, so the result is exactly symmetric.  A ``D x D``
    matrix above ``_WORKSPACE_LIMIT`` bytes raises ``Unsupported``.
    """
    _check_workspace("covariance", samples.dim, samples)
    x = samples.data.T
    with np.errstate(over="ignore", invalid="ignore"):  # the eigensolver rejects non-finite
        if center:
            x = x - x.mean(axis=0)
        cov = x.T @ x
        cov /= samples.count
    return cov


def _is_symmetric(a: np.ndarray) -> bool:
    """Whether square ``a`` equals its transpose bit for bit (``0.0`` is not ``-0.0``)."""
    bits = a.view(np.int64)
    return np.array_equal(bits, bits.T)


def symmetric_eigendecomposition(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (descending) and orthonormal eigenvectors of a symmetric matrix.

    An exactly symmetric ``a`` goes to the solver as it is.  One symmetric
    within 1e-10 relative is replaced by ``(a + a^T) / 2``, which leaves an
    exactly symmetric one unchanged, so the bits are those of solving
    ``(a + a^T) / 2`` in either case.  Ties keep the solver's output order;
    each eigenvector's largest-magnitude component (lowest index on ties) is
    made non-negative.  Raises ``InvalidData`` for asymmetric input,
    ``NumericalFailure`` if the solver does not converge.
    """
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise InvalidData(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise InvalidData("matrix contains non-finite entries")
    if not _is_symmetric(a):
        if float(np.max(np.abs(a - a.T))) > _SYMMETRY_RTOL * float(np.max(np.abs(a))):
            raise InvalidData("matrix is not symmetric within 1e-10 relative tolerance")
        a = (a + a.T) * 0.5
    try:
        w, v = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure(f"eigendecomposition failed to converge: {exc}") from exc
    order = np.argsort(-w, kind="stable")
    v = v[:, order]  # drops the solver's copy before _orient's temporary
    return w[order], _orient(v)


def _orient(v: np.ndarray) -> np.ndarray:
    """Make each column's largest-magnitude component (lowest index on ties) non-negative."""
    lead = np.argmax(np.abs(v), axis=0)
    flip = v[lead, np.arange(v.shape[1])] < 0
    v[:, flip] *= -1.0
    return v


def _gram_route(x: np.ndarray, target_dim: int, samples: SampleMatrix):
    """Spectrum and top basis from the Gram matrix ``x x^T / n`` of the (centered) rows ``x``.

    ``None`` when ``lambda_d <= _GRAM_EIG_FLOOR * lambda_1``, where the mapped
    basis would not be orthonormal.
    """
    n, d_amb = x.shape
    _check_workspace("Gram", n, samples)
    gram = x @ x.T
    gram /= n
    w, u = symmetric_eigendecomposition(gram)
    if not w[target_dim - 1] > _GRAM_EIG_FLOOR * w[0]:
        return None
    basis = _orient(x.T @ (u[:, :target_dim] / np.sqrt(n * w[:target_dim])))
    return np.concatenate([w, np.zeros(d_amb - n)]), basis


def fit_pca(samples: SampleMatrix, target_dim: int, center: bool = True) -> PcaModel:
    """Fit the top-``target_dim`` eigenspace of the sample covariance (module route rule).

    Memory beyond the samples: the ``n x n`` Gram or ``D x D`` covariance
    workspace and the eigensolver's arrays, plus one centered copy of the
    rows with ``center``.  A caller that centers its own fresh rows in
    place and fits them with ``center=False`` gets the centered fit's bits
    without that copy.
    A workspace above ``_WORKSPACE_LIMIT`` bytes raises ``Unsupported``.
    """
    d_amb = samples.dim
    if not (1 <= target_dim <= d_amb):
        raise InvalidConfig(f"target_dim must be in [1, {d_amb}], got {target_dim}")
    x = samples.data.T
    fitted = None
    with np.errstate(over="ignore", invalid="ignore"):  # the eigensolver rejects non-finite
        mean = x.mean(axis=0) if center else np.zeros(d_amb)
        if target_dim <= samples.count < d_amb:
            fitted = _gram_route(x - mean if center else x, target_dim, samples)
    if fitted is None:
        # held to the return: freed before the basis copy, it raised indep-auc's peak RSS 0.3 MiB
        cov = compute_covariance(samples, center)
        spectrum, vectors = symmetric_eigendecomposition(cov)
        fitted = spectrum, vectors[:, :target_dim]
    spectrum, basis = fitted
    return PcaModel(basis, spectrum, mean)


def project(samples: SampleMatrix, model: PcaModel) -> SampleMatrix:
    """Project samples onto the model basis: ``basis^T (x_i - mean)``.

    The product is formed as ``(d, n)`` from C-ordered ``(D, n)`` shifted samples and copied
    into rows: one that read the ``(n, D)`` rows, as either operand, raised max RSS by
    3.6 MiB at n = 5000, D = 100 with no more traced memory (OpenBLAS's own buffers).
    """
    if samples.dim != model.ambient_dim:
        raise InvalidData(
            f"sample dim {samples.dim} != model ambient dim {model.ambient_dim}"
        )
    with np.errstate(over="ignore", invalid="ignore"):  # SampleMatrix rejects non-finite
        shifted = np.subtract(samples.data, model.mean[:, None], order="C")
        return SampleMatrix(model.basis.T @ shifted)
