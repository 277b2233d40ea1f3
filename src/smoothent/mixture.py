"""Isotropic Gaussian-mixture log density and plug-in smoothed entropy.

A sample set convolved with ``N(0, sigma^2 I_d)`` is an ``n``-center Gaussian
mixture.  Its differential entropy has no closed form; ``plugin_entropy_mc``
estimates it by Monte-Carlo: draw noise around every center, average the
mixture log density at the perturbed points, negate.  ``plugin_entropy_quadrature``
computes the same integral by tensor-grid quadrature for ``d <= 2`` and serves
as an independent cross-check.

Numerical notes
---------------
* One double-precision evaluator, ``_log_density_rows``, serves point queries
  (``mixture_log_density`` is its one-row call) and the quadrature oracle.
  It sums squared differences ``sum_k (q_k - c_k)^2``, which keeps full
  accuracy far from the origin, and stabilizes with log-sum-exp, so centers
  hundreds of sigma away underflow harmlessly.
* The Monte-Carlo hot loop evaluates pairwise terms in single precision with
  double-precision accumulation.  The resulting error (~1e-5 nats) is two
  orders of magnitude below the statistical error at any realistic trial
  count.  One kernel, ``_mc_block``, takes its exponents from one augmented
  matrix product per column tile, ``[-Z/sigma^2 | 1]`` times
  ``[delta^T ; -|delta|^2/(2 sigma^2)]``, whose center differences are
  written straight into that GEMM layout.  Terms are summed over centers by
  ``np.einsum`` in a fixed order that no BLAS thread count changes.  At
  every ``d`` plain sums run first and a chunk is rerun with a running
  maximum (an online log-sum-exp) only if its float32 exponents overflow.
  This arithmetic re-baselined the bits once (moves of ~1e-8 relative).
  ``1/sigma^2`` and every center coordinate must be finite in float32,
  else ``Unsupported``.
* The noise draw for center ``i`` comes from ``substream(seed, i)`` and the
  density is computed from center differences only, so results are
  deterministic given ``(seed, inputs)`` and invariant to translating all
  centers.  Block and tile sizes are fixed functions of ``(n, d, n_mc)``.
* For ``d <= 32`` blocks run on a thread pool, one thread per core the process
  may use, when there are at least ``_POOL_MIN_CENTERS`` = 320 centers and
  one center's GEMM (``n_mc x (d + 1)`` by ``(d + 1) x 512``) is at most
  ``_POOL_GEMM_LIMIT`` = 2**18 multiply-adds: ``d <= 4`` at ``n_mc = 100``,
  ``n_mc <= 128`` at ``d = 3``.  Each block draws its own centers'
  substreams on whichever thread runs it, its fallback depends on its own
  values only, and the calling thread folds ``(pivot, t1, t2)`` in block
  order, so value and ``mc_std_error`` are bitwise the same for any worker
  count.  Larger GEMMs stay serial: above that size OpenBLAS threads the
  GEMM itself, and a pool competing with its threads ran slower than the
  serial loop.  Serial and pooled shapes run the same per-block job.
"""

import math
import os
import queue
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import InvalidConfig, InvalidData, Unsupported
from .pca import SampleMatrix
from .rng import substream

__all__ = [
    "IsotropicMixture",
    "EntropyEstimate",
    "mixture_log_density",
    "plugin_entropy_mc",
    "plugin_entropy_quadrature",
]

LN_2PI = math.log(2.0 * math.pi)

# Tiling constants for the Monte-Carlo kernel.  Fixed, so that outputs are a
# deterministic function of (seed, inputs) alone.
_ROW_TARGET = 2048
_COL_TILE = 512
# Most multiply-adds of one per-center GEMM for which the kernel runs on
# a thread pool: 4 x 65536, OpenBLAS's default GEMM_MULTITHREAD_THRESHOLD.  Up
# to it OpenBLAS starts no threads of its own; above it the pool and the
# BLAS threads compete for the same cores.
_POOL_GEMM_LIMIT = 1 << 18
# Fewest centers for which the pool runs.  At d = 3, n_mc = 100 the pool
# lost to the inline loop at n = 250-288 and won by 10-15% from n = 320 on
# (2 cores, 30 calls per size).
_POOL_MIN_CENTERS = 320
_DELTA_BUDGET = 1 << 22
_EXP_FLOOR = np.float32(-87.0)   # exp underflows to subnormal below this in float32
_GRID_LIMIT = 50_000_000


@dataclass(frozen=True)
class IsotropicMixture:
    """``n`` mixture centers (one per column) smoothed by ``N(0, sigma^2 I)``."""

    centers: SampleMatrix
    sigma: float

    def __post_init__(self):
        if not (math.isfinite(self.sigma) and self.sigma > 0):
            raise InvalidConfig(f"sigma must be a positive real, got {self.sigma}")

    @property
    def dim(self) -> int:
        return self.centers.dim

    @property
    def n_centers(self) -> int:
        return self.centers.count


@dataclass(frozen=True)
class EntropyEstimate:
    """Entropy value in nats with its Monte-Carlo diagnostics.

    ``mc_std_error`` treats the log terms as i.i.d.; they share centers, so it
    is a diagnostic rather than a rigorous confidence interval.
    """

    value: float
    mc_std_error: float
    n_centers: int
    n_mc: int
    seed: int


def _log_norm_const(n: int, dim: int, sigma: float) -> float:
    # log of n * (2 pi sigma^2)^(d/2)
    return math.log(n) + 0.5 * dim * (LN_2PI + 2.0 * math.log(sigma))


def mixture_log_density(mix: IsotropicMixture, point) -> float:
    """Log density ``ln[(1/n) sum_i phi_sigma(t - x_i)]`` at a single point."""
    t = np.asarray(point, dtype=np.float64).reshape(-1)
    if t.shape[0] != mix.dim:
        raise InvalidData(f"point has length {t.shape[0]}, expected {mix.dim}")
    if not np.all(np.isfinite(t)):
        raise InvalidData("point contains non-finite entries")
    return float(_log_density_rows(mix.centers.data.T, mix.sigma, t[None, :])[0])


def _log_density_rows(centers_rows: np.ndarray, sigma: float, queries: np.ndarray) -> np.ndarray:
    """Double-precision batch log density of the mixture at ``queries`` (rows)."""
    n, dim = centers_rows.shape
    const = _log_norm_const(n, dim, sigma)
    out = np.empty(queries.shape[0])
    chunk = max(1, _DELTA_BUDGET // (n * dim))
    for lo in range(0, queries.shape[0], chunk):
        diff = queries[lo : lo + chunk, None, :] - centers_rows[None, :, :]
        args = np.einsum("mnd,mnd->mn", diff, diff) / (-2.0 * sigma**2)
        m = args.max(axis=1)
        args -= m[:, None]
        np.exp(args, out=args)
        out[lo : lo + chunk] = m + np.log(args.sum(axis=1)) - const
    return out


def _mc_block(centers_t, b0, b1, z_aug, z2, sigma, const, aug, buf, running_max):
    """Log density of all (center, draw) queries in one block.

    Exponents come from a single augmented matrix product per column tile of
    ``_COL_TILE`` centers, ``z_aug = [-Z/sigma^2 | 1]`` against
    ``[delta^T ; -|delta|^2/(2 sigma^2)]`` with ``delta[i, k] = x_{b0+i} - x_k``
    written straight into ``aug`` from the ``(d, n)`` float32 centers
    ``centers_t``.  They are taken relative to the row shift
    ``-|Z|^2/(2 sigma^2)``, in which the self term's exponent is exactly 0,
    and each tile's terms are summed by ``np.einsum`` in a fixed order.

    * Plain-sum mode: the sum over centers is always >= 1 and needs no
      maximum.  Its float32 exponents overflow only when some center is
      nearer a query than the query's own center by ~87 in exponent units;
      the sum is then not finite and ``None`` is returned.
    * Running-max mode (an online log-sum-exp): each query keeps a float32
      shift, starting at 0 because the self term bounds its maximum from
      below.  Each tile raises the shift to the tile maximum, rescales the
      float64 sums by ``exp(old - new)`` and adds its terms relative to the
      new shift, so every exponent range float32 holds works.

    ``aug`` and ``buf`` are float32 scratch, at least ``(b1 - b0, dim + 1, w)``
    and ``(b1 - b0, n_draws, w)`` for ``w = min(n, _COL_TILE)``.
    """
    dim, n = centers_t.shape
    rows, draws = z_aug.shape[:2]
    inv_2s2 = np.float32(-0.5 / sigma**2)
    cb = centers_t[:, b0:b1].T[:, :, None]
    sums = np.zeros((rows, draws))
    shift = np.zeros((rows, draws), dtype=np.float32)
    # Overflow is detected from the sums, and inputs beyond float32 from the
    # estimate, so numpy's own warnings for them are silenced.
    with np.errstate(over="ignore", invalid="ignore"):
        for k0 in range(0, n, _COL_TILE):
            width = min(_COL_TILE, n - k0)
            a = aug[:rows, :, :width]
            delta_t = np.subtract(cb, centers_t[None, :, k0 : k0 + width], out=a[:, :dim])
            np.einsum("idk,idk->ik", delta_t, delta_t, out=a[:, dim])
            a[:, dim] *= inv_2s2
            args = np.matmul(z_aug, a, out=buf[:rows, :draws, :width])
            if running_max:
                new = np.maximum(shift, args.max(axis=2))
                sums *= np.exp((shift - new).astype(np.float64))
                args -= new[:, :, None]
                shift = new
            np.maximum(args, _EXP_FLOOR, out=args)
            np.exp(args, out=args)
            sums += np.einsum("ijk->ij", args)
    if not (running_max or np.all(np.isfinite(sums))):
        return None
    logs = np.log(sums)
    if running_max:
        logs += shift
    return logs - z2 / (2.0 * sigma**2) - const


def _worker_count() -> int:
    """Workers for a pooled kernel or a split CSV parse: the cores this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _logg_block(free, centers_t, sigma, const, n_mc, seed, block, b0):
    """All of one block's work, on a scratch set taken from, and returned to, ``free``.

    Centers ``b0:b0 + block`` draw their noise from ``substream(seed, i)``
    in chunks of at most ``_ROW_TARGET`` draws, and the block's log densities
    are returned as one array per chunk, in draw order.  Plain sums run
    first and a chunk is rerun in running-max mode if they overflow.  The
    result depends on the block's own draws only, not on the thread.
    """
    dim, n = centers_t.shape
    b1 = min(b0 + block, n)
    rows = b1 - b0
    rngs = [substream(seed, i) for i in range(b0, b1)]
    aug, buf, z64, z_aug = free.get()
    try:
        logs = []
        for j0 in range(0, n_mc, _ROW_TARGET):
            draws = min(_ROW_TARGET, n_mc - j0)
            # contiguous views of the flat noise scratch, laid out as fresh arrays would be
            z = z64[: rows * draws * dim].reshape(rows, draws, dim)
            # standard normals scaled once: bitwise rng.normal(0.0, sigma, ...)
            for t, rng in enumerate(rngs):
                rng.standard_normal(out=z[t])
            z *= sigma
            za = z_aug[: rows * draws * (dim + 1)].reshape(rows, draws, dim + 1)
            np.multiply(z, -1.0 / sigma**2, out=za[:, :, :dim])
            za[:, :, dim] = 1.0
            z2 = np.einsum("ijd,ijd->ij", z, z)
            args = (centers_t, b0, b1, za, z2, sigma, const, aug, buf)
            logg = _mc_block(*args, running_max=False)
            logs.append(_mc_block(*args, running_max=True) if logg is None else logg)
        return logs
    finally:
        free.put((aug, buf, z64, z_aug))


def _logg_blocks(centers_t, sigma, const, n_mc, seed):
    """Yield the log densities of all (center, draw) queries, one chunk at a time in order.

    Every shape maps ``_logg_block`` over the block starts: on this thread,
    or, for shapes up to ``d = 32`` with at least ``_POOL_MIN_CENTERS``
    centers whose per-center GEMM is at most ``_POOL_GEMM_LIMIT``
    multiply-adds, on a pool of ``_worker_count()`` threads.  Each thread
    takes a scratch set from ``free``, allocated here once per call, and
    computes exactly what this one would, so the yielded arrays do not
    depend on the pool.
    """
    dim, n = centers_t.shape
    jc = min(n_mc, _ROW_TARGET)
    block = min(n, max(1, _ROW_TARGET // jc), max(1, _DELTA_BUDGET // (_COL_TILE * (dim + 1))))
    workers = 1
    small_gemm = jc * _COL_TILE * (dim + 1) <= _POOL_GEMM_LIMIT
    if dim <= 32 and small_gemm and n >= _POOL_MIN_CENTERS:
        workers = _worker_count()

    tile = min(n, _COL_TILE)
    free = queue.SimpleQueue()
    for _ in range(workers):
        free.put(
            (
                np.empty((block, dim + 1, tile), dtype=np.float32),
                np.empty((block, jc, tile), dtype=np.float32),
                np.empty(block * jc * dim),
                np.empty(block * jc * (dim + 1), dtype=np.float32),
            )
        )

    job = partial(_logg_block, free, centers_t, sigma, const, n_mc, seed, block)
    with ThreadPoolExecutor(workers) if workers > 1 else nullcontext() as pool:
        for logs in (map if pool is None else pool.map)(job, range(0, n, block)):
            yield from logs


def plugin_entropy_mc(mix: IsotropicMixture, n_mc: int, seed: int) -> EntropyEstimate:
    """Monte-Carlo plug-in estimate of the mixture entropy, in nats.

    For each center ``x_i``, ``n_mc`` noise vectors ``Z ~ N(0, sigma^2 I)``
    are drawn from ``substream(seed, i)`` and the estimate is
    ``-(1/(n*n_mc)) sum_{i,j} ln g(x_i + Z_j)``.  ``mc_std_error`` is the
    sample standard deviation of the log terms divided by ``sqrt(n*n_mc)``.
    """
    if n_mc < 1:
        raise InvalidConfig(f"n_mc must be >= 1, got {n_mc}")

    with np.errstate(over="ignore", divide="ignore"):
        centers_t = mix.centers.data.astype(np.float32, order="C")
        precision32 = np.float32(1.0 / np.float64(mix.sigma) ** 2)
    if not (np.isfinite(precision32) and np.all(np.isfinite(centers_t))):
        raise Unsupported(
            f"sigma = {mix.sigma:g} or a center coordinate is beyond the float32 range of "
            "the Monte-Carlo kernel: 1/sigma^2 and every coordinate must stay below 3.4e38"
        )
    dim, n = centers_t.shape
    const = _log_norm_const(n, dim, mix.sigma)

    pivot = None
    t1 = 0.0
    t2 = 0.0
    total = 0
    for logg in _logg_blocks(centers_t, mix.sigma, const, n_mc, seed):
        flat = logg.ravel()
        if pivot is None:
            pivot = float(flat[0])
        dev = flat - pivot
        t1 += float(dev.sum())
        t2 += float(dev @ dev)
        total += flat.size
    mean = pivot + t1 / total
    if not math.isfinite(mean):
        raise Unsupported("Monte-Carlo estimate is not finite: center differences exceed float32")
    if total > 1:
        var = max(0.0, (t2 - t1 * t1 / total) / (total - 1))
    else:
        var = 0.0
    return EntropyEstimate(
        value=-mean,
        mc_std_error=math.sqrt(var / total),
        n_centers=n,
        n_mc=n_mc,
        seed=seed,
    )


def _panel_nodes(lo: float, hi: float, sigma: float) -> tuple[np.ndarray, np.ndarray]:
    """Composite 16-point Gauss-Legendre nodes/weights with ~sigma/2 panels."""
    width = hi - lo
    n_panels = max(4, int(math.ceil(width / (0.5 * sigma))))
    base_x, base_w = np.polynomial.legendre.leggauss(16)
    edges = np.linspace(lo, hi, n_panels + 1)
    half = 0.5 * (edges[1:] - edges[:-1])
    mid = 0.5 * (edges[1:] + edges[:-1])
    nodes = (mid[:, None] + half[:, None] * base_x[None, :]).ravel()
    weights = (half[:, None] * base_w[None, :]).ravel()
    return nodes, weights


def plugin_entropy_quadrature(mix: IsotropicMixture) -> float:
    """Entropy ``-int g ln g`` by tensor-grid quadrature (``d <= 2`` only).

    Integrates over the centers' bounding box padded by ``8 * sigma``; the
    mixture mass outside is below 1e-14, and the composite Gauss-Legendre
    rule resolves the sigma-scale structure to well under 1e-5 nats.
    """
    dim = mix.dim
    if dim > 2:
        raise Unsupported(f"quadrature oracle supports d <= 2, got d = {dim}")
    if mix.n_centers > 200:
        raise Unsupported(f"quadrature oracle supports n <= 200, got n = {mix.n_centers}")
    centers_rows = mix.centers.data.T.copy()
    sigma = mix.sigma
    pad = 8.0 * sigma
    axes = [
        _panel_nodes(centers_rows[:, k].min() - pad, centers_rows[:, k].max() + pad, sigma)
        for k in range(dim)
    ]
    n_grid = 1
    for nodes, _ in axes:
        n_grid *= nodes.size
    if n_grid > _GRID_LIMIT:
        raise Unsupported(
            f"quadrature grid of {n_grid} points exceeds the supported size; "
            "the centers are too spread out relative to sigma"
        )

    if dim == 1:
        points = axes[0][0][:, None]
        weights = axes[0][1]
    else:
        gx, gy = np.meshgrid(axes[0][0], axes[1][0], indexing="ij")
        points = np.column_stack([gx.ravel(), gy.ravel()])
        weights = np.outer(axes[0][1], axes[1][1]).ravel()

    logg = _log_density_rows(centers_rows, sigma, points)
    integrand = np.where(logg > -700.0, -np.exp(logg) * logg, 0.0)
    return float(weights @ integrand)
