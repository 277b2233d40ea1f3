"""Sample covariance, symmetric eigendecomposition and top-d projection.

Samples are seen one per column: a ``SampleMatrix`` exposes a ``(dim, count)``
array, C-ordered or, for samples adopted as rows such as a parsed CSV, the
transposed view of the ``(count, dim)`` rows.  Every mean, product and
projection here reads C-ordered data, so results have the same bits for
either storage.  ``fit_pca`` estimates the top-``d`` eigenspace of the
sample covariance ``(1/n) sum (x_i - m)(x_i - m)^T`` and records the spectral
diagnostics (eigenvalue gap at ``d``, residual eigenvalue sum) that control
how much variance the projection discards.

Conventions fixed here so results are reproducible:

* covariance normalizes by ``1/n`` (not ``1/(n-1)``),
* eigenvalues are sorted descending; ties keep the solver's order,
* each eigenvector's largest-magnitude component (lowest index on ties) is
  made non-negative,
* tiny negative eigenvalues from roundoff are clamped to zero before the gap
  and residual are computed.

Route rule: ``n >= D`` samples decompose the ``D x D`` covariance.  ``n < D``
samples decompose the ``n x n`` Gram matrix ``x^T x / n`` of the centered
samples (method of snapshots, Sirovich 1987), store its eigenvalues followed
by ``D - n`` exact zeros and map the top-``d`` eigenvectors back as
``x u / sqrt(n lambda)``; they fall back to the covariance when ``d > n`` or
``lambda_d <= _GRAM_EIG_FLOOR * lambda_1``.  The routes agree to roundoff,
not bitwise.

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
# Bytes of rows that ``SampleMatrix.gather`` copies per block from samples stored as rows.
_GATHER_BYTES = 2**20


def _readonly(a, copy: bool = True) -> np.ndarray:
    """``a`` as a read-only C-ordered float64 array of its own.

    With ``copy`` false, an array already in that form that owns its data
    is frozen in place instead of copied.
    """
    out = np.asarray(a, dtype=np.float64, order="C")
    if not out.flags.owndata or (copy and out is a):
        out = out.copy()
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class SampleMatrix:
    """``n`` samples of dimension ``D``: ``data`` is ``(D, n)``, one column per sample.

    ``data`` is read-only and held by the matrix alone.  It is C-ordered, or,
    for samples adopted as rows (``adopt(rows, rows=True)``), the transposed
    view of the ``(n, D)`` row array, so such samples are held once.
    """

    data: np.ndarray

    def __post_init__(self, copy: bool = True, rows: bool = False):
        arr = _readonly(self.data, copy)
        if rows:
            arr = arr.T
        if arr.ndim != 2:
            raise InvalidData(f"sample matrix must be 2-d, got shape {arr.shape}")
        if arr.shape[0] < 1 or arr.shape[1] < 1:
            raise InvalidData(f"sample matrix must be at least 1x1, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise InvalidData("sample matrix contains non-finite entries")
        object.__setattr__(self, "data", arr)

    @classmethod
    def adopt(cls, data: np.ndarray, rows: bool = False) -> "SampleMatrix":
        """Wrap a fresh array without copying it, with the checks of the constructor.

        A C-ordered float64 array that owns its data is made read-only in
        place: the caller hands it over.  It becomes ``data``, or, with
        ``rows``, it holds one sample per row and ``data`` is its transposed
        view.  Any other input is copied as the constructor copies it.  The
        library wraps the arrays it has just made (parsed CSV rows, split
        halves, projections, stacked and generated samples) this way.
        """
        out = object.__new__(cls)
        object.__setattr__(out, "data", data)
        out.__post_init__(copy=False, rows=rows)
        return out

    @property
    def dim(self) -> int:
        return self.data.shape[0]

    @property
    def count(self) -> int:
        return self.data.shape[1]

    @classmethod
    def from_rows(cls, rows) -> "SampleMatrix":
        """Build from an ``(n, D)`` array with one sample per row (copied)."""
        return cls(np.asarray(rows, dtype=np.float64).T)

    def gather(self, indices) -> np.ndarray:
        """The samples at ``indices`` as a fresh, writable C-ordered ``(D, k)`` array.

        ``np.take`` would copy samples stored as rows whole into C order
        first, so their rows are gathered ``_GATHER_BYTES`` at a time and
        written transposed.  Out-of-range indices raise ``IndexError``.
        """
        indices = np.asarray(indices, dtype=np.intp)
        if self.data.flags.c_contiguous:
            return np.take(self.data, indices, axis=1)
        out = np.empty((self.dim, indices.size))
        step = max(1, _GATHER_BYTES // (8 * self.dim))
        for lo in range(0, indices.size, step):
            out[:, lo : lo + step] = np.take(self.data.T, indices[lo : lo + step], axis=0).T
        return out

    def take(self, indices) -> "SampleMatrix":
        """Select a subset of samples (columns) by index.

        The columns are gathered once, by ``gather``, into a fresh C-ordered
        array that the result adopts read-only; the values are bitwise those
        of ``SampleMatrix(data[:, indices])``.  Out-of-range indices raise
        ``IndexError`` and an empty selection raises ``InvalidData``.
        """
        return SampleMatrix.adopt(self.gather(indices))


@dataclass(frozen=True)
class PcaModel:
    """Top-``d`` eigenbasis of a sample covariance plus spectral diagnostics.

    ``basis`` is ``(D, d)`` with orthonormal columns; ``spectrum`` is the full
    descending eigenvalue list; ``mean`` is the centering vector subtracted
    before projecting (zeros if uncentered).  The diagnostics are derived from
    the spectrum with negative eigenvalues clamped to zero: ``eigen_gap`` is
    half the gap between the ``d``-th and ``(d+1)``-th eigenvalues (half the
    ``d``-th for ``d == D``); ``residual`` is the eigenvalue mass beyond the
    ``d``-th.
    """

    basis: np.ndarray
    spectrum: np.ndarray
    ambient_dim: int
    target_dim: int
    mean: np.ndarray

    def __post_init__(self):
        basis = np.asarray(self.basis, dtype=np.float64)
        spectrum = np.asarray(self.spectrum, dtype=np.float64)
        mean = np.asarray(self.mean, dtype=np.float64)
        d_amb, d_tgt = self.ambient_dim, self.target_dim
        if not (1 <= d_tgt <= d_amb):
            raise InvalidConfig(f"need 1 <= target_dim <= ambient_dim, got {d_tgt}, {d_amb}")
        if basis.shape != (d_amb, d_tgt):
            raise InvalidData(f"basis shape {basis.shape} != ({d_amb}, {d_tgt})")
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


def _centered(samples: SampleMatrix, center: bool):
    """``(x, mean)``: the samples as a C-ordered ``(D, n)`` array, less their mean with ``center``.

    ``mean`` is ``None`` without ``center``.  At most one array is made: the
    centered copy of C-ordered data, or the C-ordered copy of samples stored
    as rows, centered in place.
    """
    x = np.ascontiguousarray(samples.data)
    if not center:
        return x, None
    mean = x.mean(axis=1)
    if x is samples.data:
        return x - mean[:, None], mean
    x -= mean[:, None]
    return x, mean


def compute_covariance(samples: SampleMatrix, center: bool = True) -> np.ndarray:
    """Sample covariance ``(1/n) sum (x_i - m)(x_i - m)^T``.

    ``m`` is the sample mean when ``center`` is true, zero otherwise.  numpy
    forms ``x x^T`` by mirroring one triangle into the other, so the result
    is exactly symmetric; a product that is not is symmetrized.  A ``D x D``
    matrix above ``_WORKSPACE_LIMIT`` bytes raises ``Unsupported``.
    """
    _check_workspace("covariance", samples.dim, samples)
    x, _ = _centered(samples, center)
    cov = x @ x.T
    cov /= samples.count
    return cov if _is_symmetric(cov) else (cov + cov.T) * 0.5


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
    """Spectrum and top basis from the Gram matrix ``x^T x / n``, or ``None`` for the covariance.

    ``x`` is the ``(D, n)`` C-ordered (centered) data of ``samples``.
    """
    d_amb, n = x.shape
    if not target_dim <= n < d_amb:
        return None
    _check_workspace("Gram", n, samples)
    gram = x.T @ x
    gram /= n
    w, u = symmetric_eigendecomposition(gram)
    if not w[target_dim - 1] > _GRAM_EIG_FLOOR * w[0]:
        return None
    basis = _orient(x @ (u[:, :target_dim] / np.sqrt(n * w[:target_dim])))
    return np.concatenate([w, np.zeros(d_amb - n)]), basis


def fit_pca(samples: SampleMatrix, target_dim: int, center: bool = True) -> PcaModel:
    """Fit the top-``target_dim`` eigenspace of the sample covariance (module route rule).

    Memory beyond the samples: the ``n x n`` Gram or ``D x D`` covariance
    workspace and the eigensolver's arrays, plus one centered copy of the
    samples with ``center`` (or one C-ordered copy of samples stored as
    rows).  A caller that centers its own fresh array in place and fits it
    with ``center=False`` gets the centered fit's bits without that copy.
    A workspace above ``_WORKSPACE_LIMIT`` bytes raises ``Unsupported``.
    """
    d_amb = samples.dim
    if not (1 <= target_dim <= d_amb):
        raise InvalidConfig(f"target_dim must be in [1, {d_amb}], got {target_dim}")
    x, mean = _centered(samples, center)
    fitted = _gram_route(x, target_dim, samples)
    if fitted is None:
        cov = compute_covariance(SampleMatrix.adopt(x), center=False)
        del x  # the eigensolver runs beside the covariance alone
        spectrum, vectors = symmetric_eigendecomposition(cov)
        fitted = spectrum, vectors[:, :target_dim]
    spectrum, basis = fitted
    return PcaModel(
        basis=basis,
        spectrum=spectrum,
        ambient_dim=d_amb,
        target_dim=target_dim,
        mean=np.zeros(d_amb) if mean is None else mean,
    )


def project(samples: SampleMatrix, model: PcaModel) -> SampleMatrix:
    """Project samples onto the model basis: ``basis^T (x_i - mean)``."""
    if samples.dim != model.ambient_dim:
        raise InvalidData(
            f"sample dim {samples.dim} != model ambient dim {model.ambient_dim}"
        )
    shifted = np.subtract(samples.data, model.mean[:, None], order="C")
    return SampleMatrix.adopt(model.basis.T @ shifted)
