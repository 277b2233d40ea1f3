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
  ``np.einsum`` in a fixed order that no BLAS thread count changes.  The
  kernel has one mode: exponents are relative to the query's own center,
  whose term is exactly 1, so each sum is at least 1 and needs no running
  maximum.  It overflows only for a draw more than 13.3 sigma out: with
  ``s = |x_i - x_k|/sigma`` and ``u ~ N(0, 1)`` the noise along
  ``x_i - x_k`` in sigma units, the exponent ``-(2us + s^2)/2`` passes
  float32's exp limit (~88.7) only if ``u < -sqrt(177.4) = -13.3``, about
  1e-40 per pair term; such a sum raises ``Unsupported``.  This arithmetic
  re-baselined the bits once (moves of ~1e-8 relative).  ``1/sigma^2`` and
  every center coordinate must be finite in float32, and ``2 sigma^2`` in
  float64, else ``Unsupported``.
* Pair terms that cannot count are not evaluated.  In each draw chunk,
  center ``i`` gets the radius ``r_i = z_i + sqrt(z_i^2 + 2 sigma^2 T)``,
  where ``z_i`` is its longest draw and ``T = ln n + 24 ln 2``.  By
  Cauchy-Schwarz every term of a center ``k`` with ``|x_i - x_k| > r_i`` has
  an exponent at most ``-T``, so a query's dropped terms sum to less than
  ``n e^-T = 2^-24`` while its sum is at least 1: each log term drops by
  less than ``2^-24``, and the estimate, minus their mean, can only rise,
  by less than that.  The kept set compares float32 ``|delta|^2`` with
  ``r_i^2`` enlarged by ``(d + 4) 2^-23``, which covers its rounding, and
  keeps every pair whose ``|delta|^2`` overflows, so overflow still raises
  ``Unsupported``.  A center that keeps at most half of its first column
  tile is packed.  Its keep masks go into a window of up to
  ``_WINDOW_TILES`` tiles; when the window is full, at the end, or when the
  block's lists could outgrow ``_PACK_COLS`` columns a row, the window's
  kept columns join each row's list in column order, by block-wide
  ``flatnonzero`` and ``bincount`` and one 1-D write a channel: their
  differences are gathered from the float32 centers (bitwise those of
  ``aug``) and ``|delta|^2`` is their float32 sum of squares in axis
  order.  A list is split into chunks
  of ``_CHUNK`` = 64 columns.  Each full chunk is its own ``n_mc x (d + 1)``
  by ``(d + 1) x 64`` product, run with the block's other full chunks in
  batches of at most ``_EVAL_TERMS`` terms; its float32 sum (floor, exp,
  ``einsum``) is added in float64, in list order, to its row's sums.  What
  is left of a list is carried to the next window, and at the end of the
  block each row's partial chunk runs, batched over the block, its padding
  zeroed in the operand and its terms times a 0/1 mask after exp: padding
  adds exactly 0, and an overflowing kept term still raises
  ``Unsupported``.  A list's chunks and the order of their sums depend on
  its own kept columns only, so no block size, worker count, window or
  batch moves a bit.  Every other center runs the product over all ``n``
  columns, with the bits it had without the cutoff.  Packing is tried only
  where it was measured to pay (``_packing``): ``d <= 50``, at least 200
  centers and at least 64 draws in the chunk; other shapes, such as the
  ambient terms of ``indep-auc`` or ``n_mc = 10``, keep their bits.  Both
  rules read the shape and the center's own draws and list only.  This
  re-baselined the bits once, by 7e-9 nats at ``d = 3``, ``n = 5000``, and
  the chunked evaluation of packed lists once more, by a further 8e-9.
* The noise draw for center ``i`` comes from ``substream(seed, i)`` and the
  density is computed from center differences only, so results are
  deterministic given ``(seed, inputs)`` and invariant to translating all
  centers.  Each center's log terms are reduced to its own mean and summed
  squared deviation, pivoted on its first term and summed over draw chunks
  of ``_ROW_TARGET``; the estimate is minus the mean of the ``n`` means, and
  ``mc_std_error`` pools the centers' moments.  A center's moments depend
  on its own draws only, so no block size or worker count moves a bit.
* Blocks run on a thread pool, one thread per core the process may use,
  when there are at least ``_POOL_MIN_CENTERS`` = 320 centers and one
  center's GEMM (``n_mc x (d + 1)`` by ``(d + 1) x 512``) is at most
  ``_POOL_GEMM_LIMIT`` = 2**18 multiply-adds: ``d <= 4`` at ``n_mc = 100``,
  ``n_mc <= 128`` at ``d = 3``, ``d <= 50`` at ``n_mc = 10``.  Each block
  draws its own centers' substreams on whichever thread runs it and writes
  its centers' moments.  Larger GEMMs stay serial: above that size OpenBLAS
  threads the GEMM itself, and a pool competing with its threads ran slower
  than the serial loop.  Serial and pooled shapes run the same per-block job.
* The kernel's scratch is bounded by construction, so it needs no size
  guard.  A block holds at most ``_ROW_TARGET`` queries a draw chunk and
  ``_GROUP_BYTES`` (2 MiB) of per-center deltas, packed lists, keep window,
  gather and index arrays, draws and GEMM operand,
  ``4 (d + 1) (w + 64 c) + 16 w + 36 m + 8 j d + 4 j (d + 1)`` bytes for
  ``w = min(n, _COL_TILE)``, ``m = min(n, _PACK_COLS)``,
  ``j = min(n_mc, _ROW_TARGET)`` and ``c = ceil(m / 64) + 2`` chunks a row
  (the list's room, its carried chunk and a chunk-aligned start); ``c``,
  the ``_WINDOW_TILES w`` = ``16 w`` bytes of keep window and the ``36 m``
  bytes of three float32 and three 64-bit index rows a kept column are 0
  where no center can be packed.  A block holds at least one center, so at
  very large ``d`` one center's deltas alone can pass the budget.  Each
  worker allocates its block-sized float32 ``aug`` of deltas, ``packed``
  lists, boolean ``window``, ``hold`` and ``index`` of a flush's kept
  columns, draw arrays and a ``buf`` of exponents (not counted; about
  ``_EVAL_TERMS`` values, at least one row's tile) once per call and reuses
  them for every block it runs: whole rows, like batches of chunks, run a
  few at a time, so that their exponents stay in cache.  A flush allocates
  only its kept columns' flat indices, at most ``m`` a row, and arrays of
  a few values a row or chunk.  Only the ``(d, n)`` float32 copy of the
  centers and the ``n`` per-center moments grow with ``n``.
"""

import math
import os
import queue
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
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
# Most bytes of per-center scratch (float32 deltas and packed lists, keep
# window, float64 draws, float32 GEMM operand) that one block of centers
# holds.  Blocks of 20 centers at d <= 10, n_mc = 100 (1.8 MiB at d = 10,
# n = 1000) fit it.  At 1 MiB, d = 256, n = 1000 ran one center at a time and 6-11%
# slower than 20 at a time (2 cores); at 2 MiB, d = 200, n = 250 runs blocks
# of 4 and traces 2.3 MiB.
_GROUP_BYTES = 1 << 21
_EXP_FLOOR = np.float32(-87.0)   # exp underflows to subnormal below this in float32
_F32_MAX = np.finfo(np.float32).max
_GRID_LIMIT = 50_000_000
# Shapes whose centers may be packed (see _packing).  Packing a column
# copies its d + 1 operand values, and a packed center pays a few numpy
# calls of its own; both are repaid only by skipping many draws' terms.
# Kernel times, packing centers that keep up to half against packing none
# (2 cores, centers keeping a spread of shares): d = 40 ran 4% faster and
# d = 60 3% slower; indep-auc's d = 100 and 200 terms 4-5% slower; at
# d = 10, n = 1000, n_mc = 40 ran 34% slower and n_mc = 100 21% faster; at
# d = 3, n_mc = 100, n = 120 ran 6% slower and n = 250 18% faster.
_PACK_MAX_DIM = 50
# Columns in one chunk of a packed center's list.
_CHUNK = 64
# Packed lists take their columns from the keep masks of up to
# _WINDOW_TILES column tiles at a time, and hold at most _PACK_COLS of
# them a row between evaluations.  Fewer, larger flushes hold the GIL for
# fewer calls: on entropy-lowdim's kernel input (2 cores, pooled) windows of
# 16 tiles ran 8% faster than windows of 4, and 1% faster than windows of 8.
_WINDOW_TILES = 16
_PACK_COLS = 2 * _COL_TILE
# Most terms that one batched evaluation of chunks or whole rows holds: 1 MiB
# of float32 exponents, which stay in a core's L2 cache (4 MiB ran about 30%
# slower per term on 2 cores).
_EVAL_TERMS = 1 << 18
_PACK_MIN_DRAWS = 64
_PACK_MIN_CENTERS = 200


@dataclass(frozen=True, eq=False)
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


def _mc_block(centers_t, b0, b1, z_lhs, reach, sigma, aug, buf, packed, window, hold, index):
    """Log-sums ``log sum_k exp(E_ik)`` of all (center, draw) queries in one block.

    Exponents come from a single augmented matrix product per column tile of
    ``_COL_TILE`` centers, ``z_lhs = [-Z/sigma^2 | 1]`` against
    ``[delta^T ; -|delta|^2/(2 sigma^2)]`` with ``delta[i, k] = x_{b0+i} - x_k``
    written straight into ``aug`` from the ``(d, n)`` float32 centers
    ``centers_t``.  They are taken relative to the row shift
    ``-|Z|^2/(2 sigma^2)``, in which the self term's exponent is exactly 0,
    so each sum is at least 1; each tile's terms are summed by ``np.einsum``
    in a fixed order.  A sum that is not finite (a float32 exponent beyond
    ~88.7, or center differences beyond float32) raises ``Unsupported``.

    Unless ``reach`` is None, row ``i`` keeps the columns whose float32
    ``|delta|^2`` is at most ``reach[i, 0]`` or overflows; the terms of the
    others are below the cutoff (see the module notes).  A center that keeps
    at most half of its first tile is packed: its keep mask is written into
    ``window``, and a few tiles at a time its kept columns join, in column
    order, its list in ``packed``, which is evaluated in chunks of
    ``_CHUNK`` columns (``_flush``).  Each full chunk runs in the flush that
    fills it, batched with the block's other full chunks; each row's last,
    partial chunk runs at the end, batched over the block, with its padding
    masked out.  Every other center runs the product over all ``n`` columns.

    ``b0:b1`` is one block of centers; each row depends on its own center
    and draws only.  ``aug``, ``buf``, ``packed``, ``window``, ``hold`` and
    ``index`` are scratch of ``_scratch``'s shapes for at least ``b1 - b0``
    centers.
    """
    dim, n = centers_t.shape
    rows, draws = z_lhs.shape[:2]
    inv_2s2 = np.float32(-0.5 / sigma**2)
    cb = centers_t[:, b0:b1].T[:, :, None]
    sums = np.zeros((rows, draws))
    # each row's list carries fill[i] columns, its partial chunk, in chunk at[i] of packed
    fill = np.zeros(rows, dtype=np.intp)
    at = np.zeros(rows, dtype=np.intp)
    w0 = kept = 0
    # Overflow is detected from the sums, so numpy's own warnings for it are silenced.
    with np.errstate(over="ignore", invalid="ignore"):
        for k0 in range(0, n, _COL_TILE):
            width = min(_COL_TILE, n - k0)
            a = aug[:rows, :, :width]
            delta_t = np.subtract(cb, centers_t[None, :, k0 : k0 + width], out=a[:, :dim])
            d2 = np.einsum("idk,idk->ik", delta_t, delta_t, out=a[:, dim])
            if k0 == 0:
                packs = np.arange(0)
                if reach is not None:
                    is_packed = 2 * (d2 <= reach).sum(axis=1, keepdims=True) <= width
                    packs = np.flatnonzero(is_packed)
                    # packed rows keep |delta|^2 <= reach or overflowing; whole rows keep none
                    low = np.where(is_packed, reach, -1)
                    high = np.where(is_packed, _F32_MAX, np.inf)
                whole = _runs(packs, rows, max(1, buf.size // (draws * aug.shape[2])))
            if packs.size:
                keep = window[:rows, k0 - w0 : k0 - w0 + width]
                np.less_equal(d2, low, out=keep)
                keep |= d2 > high
                kept += np.count_nonzero(keep)
            if whole:
                d2 *= inv_2s2
            for r0, r1 in whole:
                sums[r0:r1] += _tile_sums(z_lhs[r0:r1], a[r0:r1], _head(buf, (r1 - r0, draws, width)))
            # the window is flushed when full, at the end, or when the next tile could
            # overfill the lists' room of _PACK_COLS columns a row
            end = k0 + width
            if packs.size and (end - w0 == window.shape[1] or end == n
                               or kept > rows * (min(n, _PACK_COLS) - _COL_TILE)):
                window[:rows, end - w0 :] = False
                fill, at = _flush(centers_t, b0, w0, window[:rows], z_lhs, sigma, fill, at, sums,
                                  buf, packed, hold, index)
                w0, kept = end, 0
        if packs.size:
            # each row's partial chunk, its padding zeroed in the operand and masked after exp
            last = packed.reshape(len(packed), -1, _CHUNK)[:, at]
            mask = np.arange(_CHUNK) < fill[:, None]
            np.copyto(last, 0, where=~mask)
            args = _head(buf, (rows, draws, _CHUNK))
            sums += _tile_sums(z_lhs, last.transpose(1, 0, 2), args, mask)
    if not np.all(np.isfinite(sums)):
        raise Unsupported("Monte-Carlo kernel sum is not finite: a term exceeds float32")
    return np.log(sums)


def _flush(centers_t, b0, w0, keep, z_lhs, sigma, fill, at, sums, buf, packed, hold, index):
    """Append the kept columns ``w0:w0 + keep.shape[1]`` to the rows' lists; run their full chunks.

    ``packed`` holds the float32 operand a channel per row, in chunks of
    ``_CHUNK`` columns.  Row ``i`` carries ``fill[i]`` columns of its list,
    its partial chunk, in chunk ``at[i]``.  Each row's carried and new
    columns are laid out anew from a chunk boundary, the new ones gathered
    channel by channel from ``centers_t`` with ``-|delta|^2/(2 sigma^2)``
    summed over axes in float32.  The gathers run in the float32 rows of
    ``hold``; ``index[0]`` holds ``0, 1, 2, ...``, and ``index[1:]`` the
    kept columns' rows and places in ``packed``.  Each full chunk is its own
    product, run in batches of at most ``_EVAL_TERMS`` terms, and its float32
    sum is added in float64, in list order, to its row of ``sums``.  Returns
    the new ``fill`` and ``at`` of the rest of each list.
    """
    rows, cols = keep.shape
    dim = centers_t.shape[0]
    draws = z_lhs.shape[1]
    chunks = packed.reshape(len(packed), -1, _CHUNK)
    col = np.flatnonzero(keep)
    r = np.floor_divide(col, cols, out=index[1, : col.size])
    col -= np.multiply(r, cols, out=index[2, : col.size])
    counts = np.bincount(r, minlength=rows)
    total = fill + counts
    full = total // _CHUNK
    span = -(-total // _CHUNK)
    first = np.cumsum(span) - span
    moved = np.flatnonzero(fill)
    chunks[:, first[moved]] = chunks[:, at[moved]]
    dest = np.take(first * _CHUNK + total - np.cumsum(counts), r, out=index[2, : r.size], mode="clip")
    dest += index[0, : r.size]
    delta, other, d2 = hold[:, : r.size]
    for ch in range(dim):
        np.take(centers_t[ch, b0 : b0 + rows], r, out=delta, mode="clip")
        delta -= np.take(centers_t[ch, w0 : w0 + cols], col, out=other, mode="clip")
        packed[ch][dest] = delta
        if ch:
            d2 += np.square(delta, out=other)
        else:
            np.square(delta, out=d2)
    d2 *= np.float32(-0.5 / sigma**2)
    packed[dim][dest] = d2
    owner = np.repeat(np.arange(rows), full)
    ids = np.arange(owner.size) + (first - np.cumsum(full) + full)[owner]
    step = max(1, min(_EVAL_TERMS, buf.size) // (draws * _CHUNK))
    for c0 in range(0, ids.size, step):
        own = owner[c0 : c0 + step]
        a = chunks[:, ids[c0 : c0 + step]].transpose(1, 0, 2)
        part = _tile_sums(z_lhs[own], a, _head(buf, (own.size, draws, _CHUNK)))
        # unbuffered, so each row's chunk sums are added in list order
        np.add.at(sums.reshape(-1), np.add.outer(own * draws, np.arange(draws)).ravel(),
                  part.astype(np.float64).ravel())
    return total - full * _CHUNK, first + full


def _head(scratch, shape):
    """A C-contiguous ``shape`` view of the start of the contiguous array ``scratch``."""
    return scratch.reshape(-1)[: math.prod(shape)].reshape(shape)


def _packing(dim, n, draws):
    """Whether a draw chunk of ``draws`` over ``n`` centers in ``dim`` dimensions may pack centers."""
    return dim <= _PACK_MAX_DIM and n >= _PACK_MIN_CENTERS and draws >= _PACK_MIN_DRAWS


def _reach(z2, sigma, n, dim):
    """Each center's float32 bound on ``|delta|^2`` for the pairs whose terms can count.

    ``z2`` holds ``|z|^2`` of each center's draws, a row per center.  With
    ``z_i`` the longest draw, ``r_i = z_i + sqrt(z_i^2 + 2 sigma^2 T)`` for
    ``T = ln n + 24 ln 2``; the relative margin ``(dim + 4) 2^-23`` covers
    float32 rounding of ``|delta|^2``.  Returned as a ``(rows, 1)`` column.
    """
    z_max = np.sqrt(z2.max(axis=1))
    r = z_max + np.sqrt(z_max * z_max + 2.0 * sigma**2 * (math.log(n) + 24 * math.log(2)))
    return (r * r * (1 + (dim + 4) * 2.0**-23)).astype(np.float32)[:, None]


def _runs(skip, rows, step):
    """The ``(r0, r1)`` runs of ``range(rows)`` that hold no index of the sorted ``skip``.

    Maximal runs are cut into pieces of at most ``step`` rows.
    """
    edges = [-1, *skip.tolist(), rows]
    return [(r, min(r + step, r1)) for r0, r1 in zip(edges, edges[1:]) for r in range(r0 + 1, r1, step)]


def _tile_sums(lhs, a, buf, mask=None):
    """Row sums of ``exp(max(lhs @ a, _EXP_FLOOR))``; the product is written into ``buf``.

    A ``mask`` row, False on padding, multiplies its row's terms after exp.
    """
    args = np.matmul(lhs, a, out=buf[..., : a.shape[-1]])
    np.maximum(args, _EXP_FLOOR, out=args)
    np.exp(args, out=args)
    if mask is None:
        return np.einsum("...k->...", args)
    return np.einsum("...jk,...k->...j", args, mask.astype(np.float32))


def _worker_count() -> int:
    """Workers for a pooled kernel or a forked CSV read or write: the cores this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _scratch(block, draws, dim, n, pack):
    """One worker's kernel scratch for ``block`` centers of ``draws`` draws each.

    The float64 draws, the float32 GEMM operand ``[-Z/sigma^2 | 1]``, then
    ``_mc_block``'s float32 ``aug``, ``buf`` and ``packed``, boolean
    ``window``, float32 ``hold`` and integer ``index``; the last four hold
    nothing unless ``pack``.
    """
    tile = min(n, _COL_TILE)
    width = max(tile, _CHUNK) if pack else tile
    cols = block * min(n, _PACK_COLS) if pack else 0
    # a row's room for _PACK_COLS columns, its carried chunk and a chunk-aligned start
    chunks = block * (-(-min(n, _PACK_COLS) // _CHUNK) + 2) if pack else 0
    index = np.empty((3, cols), dtype=np.intp)
    index[0] = np.arange(cols)
    return (np.empty((block, draws, dim)), np.empty((block, draws, dim + 1), dtype=np.float32),
            np.empty((block, dim + 1, tile), dtype=np.float32),
            np.empty(max(min(block, max(1, _EVAL_TERMS // (draws * width))) * width,
                         block * _CHUNK if pack else 0) * draws, dtype=np.float32),
            np.empty((dim + 1, chunks * _CHUNK), dtype=np.float32),
            np.empty((block if pack else 0, _WINDOW_TILES * tile), dtype=bool),
            np.empty((3, cols), dtype=np.float32), index)


def _center_moments(centers_t, sigma, n_mc, seed):
    """Mean and summed squared deviation of each center's ``n_mc`` log terms.

    A term is ``_mc_block``'s log-sum less ``|z|^2/(2 sigma^2)`` and the
    norming constant.  One job per block of centers draws, evaluates and
    reduces that block's terms, one draw chunk at a time, on this thread or
    on a pool (see the module notes); each takes a worker's scratch from
    ``free``.  Non-finite terms pass through to the moments.
    """
    dim, n = centers_t.shape
    const = _log_norm_const(n, dim, sigma)
    two_var = 2.0 * sigma**2
    jc = min(n_mc, _ROW_TARGET)
    pack = _packing(dim, n, jc)
    # one center's scratch, its exponents' buf not counted
    one = _scratch(1, jc, dim, n, pack)
    per_center = sum(a.nbytes for a in one) - one[3].nbytes
    block = min(n, _ROW_TARGET // jc, max(1, _GROUP_BYTES // per_center))
    workers = 1
    if jc * _COL_TILE * (dim + 1) <= _POOL_GEMM_LIMIT and n >= _POOL_MIN_CENTERS:
        workers = _worker_count()
    free = queue.SimpleQueue()
    for _ in range(workers):
        free.put(_scratch(block, jc, dim, n, pack))
    mean = np.empty(n)
    m2 = np.empty(n)

    def job(b0):
        b1 = min(b0 + block, n)
        rngs = [substream(seed, i) for i in range(b0, b1)]
        scratch = free.get()
        z_all, lhs_all, *kernel_scratch = scratch
        try:
            t1 = t2 = 0.0
            # |z|^2 past float64 gives terms of -inf and nan, which the caller refuses
            with np.errstate(over="ignore", invalid="ignore"):
                for j0 in range(0, n_mc, _ROW_TARGET):
                    # contiguous: a chunk below jc needs jc = _ROW_TARGET, one center a block
                    draws = min(_ROW_TARGET, n_mc - j0)
                    z, z_lhs = z_all[: b1 - b0, :draws], lhs_all[: b1 - b0, :draws]
                    # standard normals scaled once: bitwise rng.normal(0.0, sigma, ...)
                    for t, rng in enumerate(rngs):
                        rng.standard_normal(out=z[t])
                    z *= sigma
                    np.multiply(z, -1.0 / sigma**2, out=z_lhs[:, :, :dim])
                    z_lhs[:, :, dim] = 1.0
                    z2 = np.einsum("ijd,ijd->ij", z, z)
                    reach = _reach(z2, sigma, n, dim) if _packing(dim, n, draws) else None
                    logsum = _mc_block(centers_t, b0, b1, z_lhs, reach, sigma, *kernel_scratch)
                    terms = logsum - z2 / two_var - const
                    pivot = terms[:, 0] if j0 == 0 else pivot  # each center's first term
                    dev = terms - pivot[:, None]
                    t1 += dev.sum(axis=1)
                    t2 += (dev * dev).sum(axis=1)
                mean[b0:b1] = pivot + t1 / n_mc
                m2[b0:b1] = t2 - t1 * t1 / n_mc
        finally:
            free.put(scratch)

    with ThreadPoolExecutor(workers) if workers > 1 else nullcontext() as pool:
        for _ in (map if pool is None else pool.map)(job, range(0, n, block)):
            pass
    return mean, m2


def plugin_entropy_mc(mix: IsotropicMixture, n_mc: int, seed: int) -> EntropyEstimate:
    """Monte-Carlo plug-in estimate of the mixture entropy, in nats.

    For each center ``x_i``, ``n_mc`` noise vectors ``Z ~ N(0, sigma^2 I)``
    are drawn from ``substream(seed, i)`` and the estimate is
    ``-(1/(n*n_mc)) sum_{i,j} ln g(x_i + Z_j)``, taken as minus the mean of
    the ``n`` per-center means.  ``mc_std_error`` is the sample standard
    deviation of the log terms divided by ``sqrt(n*n_mc)``.
    """
    if n_mc < 1:
        raise InvalidConfig(f"n_mc must be >= 1, got {n_mc}")

    sigma = mix.sigma
    with np.errstate(over="ignore", divide="ignore"):
        centers_t = mix.centers.data.astype(np.float32, order="C")
        precision32 = np.float32(1.0 / np.float64(sigma) ** 2)
        two_var = 2.0 * np.float64(sigma) ** 2  # the log terms' divisor of |z|^2
    if not (np.isfinite(two_var) and np.isfinite(precision32) and np.all(np.isfinite(centers_t))):
        raise Unsupported(
            f"sigma = {sigma:g} or a center coordinate is beyond the float32 range of "
            "the Monte-Carlo kernel: 1/sigma^2 and every coordinate must stay below 3.4e38, "
            "and 2 sigma^2 below 1.8e308"
        )
    n = centers_t.shape[1]
    means, m2 = _center_moments(centers_t, sigma, n_mc, seed)
    if not np.all(np.isfinite(means)):
        raise Unsupported(
            f"Monte-Carlo estimate is not finite: the noise's |z|^2 overflows float64 "
            f"at sigma = {sigma:g}"
        )
    mean = float(means.mean())
    total = n * n_mc
    spread = float(m2.sum()) + n_mc * float(np.square(means - mean).sum())
    var = max(0.0, spread / (total - 1)) if total > 1 else 0.0
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
    centers_rows = mix.centers.data.T
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
