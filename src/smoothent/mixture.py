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
  count.  Two kernels share one column tiling: ``_mc_block_fast`` (one
  augmented matrix product, no running maximum) runs for ``d <= 32`` and
  hands a block to ``_mc_block_safe`` (streaming running maximum) if its
  float32 exponents overflow; above ``d = 32`` only the safe kernel runs.
* The noise draw for center ``i`` comes from ``substream(seed, i)`` and the
  density is computed from center differences only, so results are
  deterministic given ``(seed, inputs)`` and invariant to translating all
  centers.  Block and tile sizes are fixed functions of ``(n, d, n_mc)``.
* Fast-kernel blocks run on a thread pool, one thread per core the process
  may use, when one center's GEMM (``n_mc x (d + 1)`` by ``(d + 1) x 512``)
  is at most ``_POOL_GEMM_LIMIT`` = 2**18 multiply-adds: ``d <= 4`` at
  ``n_mc = 100``, ``n_mc <= 128`` at ``d = 3``.  The calling thread draws all
  noise in center order, decides each block's fast-to-safe fallback and
  folds ``(pivot, t1, t2)`` in block order, so value and ``mc_std_error``
  are bitwise the same for any worker count.  Larger GEMMs stay serial:
  above that size OpenBLAS threads the GEMM itself, and a pool competing
  with its threads ran slower than the serial loop.
"""

import math
import os
import queue
from collections import deque
from contextlib import nullcontext
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass

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
# Most multiply-adds of one per-center GEMM for which the fast kernel runs on
# a thread pool: 4 x 65536, OpenBLAS's default GEMM_MULTITHREAD_THRESHOLD.  Up
# to it OpenBLAS starts no threads of its own; above it the pool and the
# BLAS threads compete for the same cores.
_POOL_GEMM_LIMIT = 1 << 18
_DELTA_BUDGET = 1 << 22
_ARG_FLOOR = np.float32(-7e37)   # keeps tile maxima finite in float32
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


def _column_tiles(centers32, b0, b1):
    """Yield ``(width, delta, |delta|^2)`` for block rows ``b0:b1`` against each column tile.

    ``delta[i, k] = x_{b0+i} - x_{k0+k}`` in float32, for tiles of
    ``_COL_TILE`` centers; both Monte-Carlo kernels consume these tiles.
    """
    n = centers32.shape[0]
    cb = centers32[b0:b1]
    for k0 in range(0, n, _COL_TILE):
        k1 = min(k0 + _COL_TILE, n)
        delta = cb[:, None, :] - centers32[None, k0:k1, :]
        yield k1 - k0, delta, np.einsum("ikd,ikd->ik", delta, delta)


def _mc_block_fast(centers32, b0, b1, z_aug, z2, sigma, const, aug, buf):
    """Log density of all (center, draw) queries in one block, no max tracking.

    Relative to the row shift ``-|Z|^2/(2 sigma^2)`` the exponent of the
    self term is exactly 0, so the sum over centers is always >= 1 and needs
    no running maximum.  Exponents are produced by a single augmented matrix
    product: ``z_aug = [Z | 1]`` against ``[-delta^T/sigma^2 ; -|delta|^2/(2 sigma^2)]``.
    Exponents can only overflow in float32 when ``|Z|^2/(2 sigma^2) > ~87``,
    which is detected here (non-finite sum, ``None`` returned) so the caller
    retries via the safe path.

    ``aug`` and ``buf`` are float32 scratch, at least ``(b1 - b0, dim + 1, w)``
    and ``(b1 - b0, n_draws, w)`` for ``w = min(n, _COL_TILE)``.
    """
    rows, draws, dim = z_aug.shape[0], z_aug.shape[1], centers32.shape[1]
    inv_s2 = np.float32(-1.0 / sigma**2)
    inv_2s2 = np.float32(-0.5 / sigma**2)
    sums = np.zeros((rows, draws), dtype=np.float64)
    for width, delta, dd in _column_tiles(centers32, b0, b1):
        a = aug[:rows, :, :width]
        np.multiply(delta.transpose(0, 2, 1), inv_s2, out=a[:, :dim, :])
        np.multiply(dd, inv_2s2, out=a[:, dim, :])
        args = np.matmul(z_aug, a, out=buf[:rows, :draws, :width])
        np.maximum(args, _EXP_FLOOR, out=args)
        np.exp(args, out=args)
        sums += args.sum(axis=2)
    if not np.all(np.isfinite(sums)):
        return None
    return np.log(sums) - z2 / (2.0 * sigma**2) - const


def _mc_block_safe(centers32, b0, b1, z32, z2, sigma, const):
    """Streaming log-sum-exp with a running maximum; works for any exponent range."""
    inv_s2 = np.float32(-1.0 / sigma**2)
    z2h32 = (np.float32(0.5) * z2).astype(np.float32)
    running_max = np.full(z2h32.shape, -np.inf, dtype=np.float32)
    running_sum = np.zeros(z2h32.shape, dtype=np.float64)
    for _, delta, dd in _column_tiles(centers32, b0, b1):
        args = z32 @ delta.transpose(0, 2, 1)
        args += z2h32[:, :, None]
        args += (np.float32(0.5) * dd)[:, None, :]
        args *= inv_s2
        np.maximum(args, _ARG_FLOOR, out=args)
        new_max = np.maximum(running_max, args.max(axis=2))
        args -= new_max[:, :, None]
        np.maximum(args, _EXP_FLOOR, out=args)
        np.exp(args, out=args)
        running_sum *= np.exp((running_max - new_max).astype(np.float64))
        running_sum += args.sum(axis=2, dtype=np.float64)
        running_max = new_max
    return running_max.astype(np.float64) + np.log(running_sum) - const


def _worker_count() -> int:
    """Threads for a pooled fast kernel: the cores this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _run_now(fn, *args) -> Future:
    """Call ``fn`` on this thread; the inline stand-in for ``ThreadPoolExecutor.submit``."""
    done = Future()
    done.set_result(fn(*args))
    return done


def _fast_with_scratch(free, centers32, b0, b1, z_aug, z2, sigma, const):
    """``_mc_block_fast`` on a scratch pair taken from, and returned to, ``free``."""
    aug, buf = free.get()
    try:
        return _mc_block_fast(centers32, b0, b1, z_aug, z2, sigma, const, aug, buf)
    finally:
        free.put((aug, buf))


def _logg_blocks(centers32, sigma, const, n_mc, seed):
    """Yield the log densities of all (center, draw) queries, one block at a time in order.

    This thread draws every block's noise, in center order, and decides the
    fast-to-safe fallback.  Fast-kernel shapes whose per-center GEMM is at
    most ``_POOL_GEMM_LIMIT`` multiply-adds run that kernel on a pool of
    ``_worker_count()`` threads, at most two blocks per thread in flight;
    each thread computes exactly what this one would, so the yielded arrays
    do not depend on the pool.  Each thread that runs the fast kernel takes
    a scratch pair from ``free``, allocated here once per call.
    """
    n, dim = centers32.shape
    prefer_fast = dim <= 32  # exponent overflow plausible only for large chi^2_d
    jc = min(n_mc, _ROW_TARGET)
    block = min(n, max(1, _ROW_TARGET // jc), max(1, _DELTA_BUDGET // (_COL_TILE * (dim + 1))))
    workers = 1
    if prefer_fast and jc * _COL_TILE * (dim + 1) <= _POOL_GEMM_LIMIT:
        workers = _worker_count()
    in_flight = 2 * workers if workers > 1 else 0

    tile = min(n, _COL_TILE)
    free = queue.SimpleQueue()
    for _ in range(workers if prefer_fast else 0):
        free.put(
            (
                np.empty((block, dim + 1, tile), dtype=np.float32),
                np.empty((block, jc, tile), dtype=np.float32),
            )
        )

    # The safe kernel's float32 noise has one buffer per call.  A fresh array
    # per block, freed when the block was done, cost 10x the minor page
    # faults and 15-35% more time at d = 200, n = 250.
    z32_buf = np.empty((block, jc, dim), dtype=np.float32)

    def resolve(b0, b1, z64, z2, fast):
        logg = None if fast is None else fast.result()
        if logg is None:
            z32 = z32_buf[: b1 - b0, : z64.shape[1]]
            np.copyto(z32, z64, casting="same_kind")
            logg = _mc_block_safe(centers32, b0, b1, z32, z2, sigma, const)
        return logg

    pending = deque()
    with ThreadPoolExecutor(workers) if workers > 1 else nullcontext() as pool:
        submit = _run_now if pool is None else pool.submit
        for b0 in range(0, n, block):
            b1 = min(b0 + block, n)
            rngs = [substream(seed, i) for i in range(b0, b1)]
            for j0 in range(0, n_mc, jc):
                j1 = min(j0 + jc, n_mc)
                z64 = np.empty((b1 - b0, j1 - j0, dim))
                for t, rng in enumerate(rngs):
                    z64[t] = rng.normal(0.0, sigma, size=(j1 - j0, dim))
                z2 = np.einsum("ijd,ijd->ij", z64, z64)
                fast = None
                if prefer_fast:
                    z_aug = np.empty((b1 - b0, j1 - j0, dim + 1), dtype=np.float32)
                    z_aug[:, :, :dim] = z64
                    z_aug[:, :, dim] = 1.0
                    fast = submit(
                        _fast_with_scratch, free, centers32, b0, b1, z_aug, z2, sigma, const
                    )
                pending.append((b0, b1, z64, z2, fast))
                while len(pending) > in_flight:
                    yield resolve(*pending.popleft())
        while pending:
            yield resolve(*pending.popleft())


def plugin_entropy_mc(mix: IsotropicMixture, n_mc: int, seed: int) -> EntropyEstimate:
    """Monte-Carlo plug-in estimate of the mixture entropy, in nats.

    For each center ``x_i``, ``n_mc`` noise vectors ``Z ~ N(0, sigma^2 I)``
    are drawn from ``substream(seed, i)`` and the estimate is
    ``-(1/(n*n_mc)) sum_{i,j} ln g(x_i + Z_j)``.  ``mc_std_error`` is the
    sample standard deviation of the log terms divided by ``sqrt(n*n_mc)``.
    """
    if n_mc < 1:
        raise InvalidConfig(f"n_mc must be >= 1, got {n_mc}")

    centers32 = np.ascontiguousarray(mix.centers.data.T, dtype=np.float32)
    n, dim = centers32.shape
    const = _log_norm_const(n, dim, mix.sigma)

    pivot = None
    t1 = 0.0
    t2 = 0.0
    total = 0
    for logg in _logg_blocks(centers32, mix.sigma, const, n_mc, seed):
        flat = logg.ravel()
        if pivot is None:
            pivot = float(flat[0])
        dev = flat - pivot
        t1 += float(dev.sum())
        t2 += float(dev @ dev)
        total += flat.size
    mean = pivot + t1 / total
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
