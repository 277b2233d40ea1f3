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
* The Monte-Carlo kernel, ``_mc_block``, evaluates pair terms in single
  precision with double-precision accumulation.  The resulting error
  (~1e-5 nats) is two orders of magnitude below the statistical error at
  any realistic trial count.  Exponents are relative to the query's own
  center, whose term is exactly 1, so each sum is at least 1 and needs no
  running maximum.  It overflows only for a draw more than 13.3 sigma out:
  with ``s = |x_i - x_k|/sigma`` and ``u ~ N(0, 1)`` the noise along
  ``x_i - x_k`` in sigma units, the exponent ``-(2us + s^2)/2`` passes
  float32's exp limit (~88.7) only if ``u < -sqrt(177.4) = -13.3``, about
  1e-40 per pair term; such a sum raises ``Unsupported``.  ``1/sigma^2``
  and every center coordinate must be finite in float32, and ``2 sigma^2``
  in float64, else ``Unsupported``.
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
  ``Unsupported``.  Only where skipping was measured to pay (``_packing``)
  are a center's kept columns packed into a list; every other center runs
  over all ``n`` columns.
* Results are deterministic given ``(seed, inputs)`` and invariant to
  translating all centers.  The noise draw for center ``i`` is bitwise
  ``substream(seed, i)``'s: a block hashes its centers' PCG64 states in one
  batch (``rng._pcg64_states``) and sets one reused generator to each in
  turn.  The density is computed from center differences only, and terms
  are summed by ``np.einsum`` in a fixed order that no BLAS thread count
  changes.  Each center's log terms are reduced to its own mean and summed
  squared deviation, pivoted on its first term and summed over draw chunks
  of ``_ROW_TARGET``; the estimate is minus the mean of the ``n`` means, and
  ``mc_std_error`` pools the centers' moments.  A center's moments, and a
  packed list's chunks and the order of their sums, depend on its own
  center, draws and kept columns only, so no block size, worker count,
  window, flush or batch moves a bit.
* Blocks run on forked worker processes, one per core the process may use
  (``_forked``), when there are at least ``_POOL_MIN_CENTERS`` centers and
  one center's GEMM (``n_mc x (d + 1)`` by ``(d + 1) x 512``) is at most
  ``_POOL_GEMM_LIMIT`` multiply-adds.  Processes, not threads: a block's
  per-tile Python and small numpy calls hold the GIL, so a thread pool ran
  only 1.2-1.6x on 2 cores.  Larger GEMMs stay serial: above that size
  OpenBLAS threads the GEMM itself, and workers competing with its threads
  ran slower than the serial loop.  With ``w`` workers the caller runs blocks
  ``0, w, 2w, ...`` and child ``r`` blocks ``r, r + w, ...``; a child that
  fails leaves its blocks to the caller, so every path gives the same bits
  or raises the same exception.
* The kernel's scratch is bounded by construction, so it needs no size
  guard.  A block holds as many centers as ``_GROUP_BYTES`` allows
  (``_center_bytes``); each process allocates one block's scratch
  (``_scratch``) once per call and reuses it for every block it runs.  Only
  the ``(d, n)`` float32 copy of the centers and the ``n`` per-center
  moments grow with ``n``.
"""

import math
import os
import sys
from collections import namedtuple
from contextlib import contextmanager, suppress
from dataclasses import dataclass

import numpy as np

from .errors import InvalidConfig, InvalidData, Unsupported
from .pca import SampleMatrix
from .rng import _pcg64_states
# Not called here: ``benchmarks/tracing.py`` patches ``mixture.substream`` by
# name, and the per-center seeds below are bitwise ``substream(seed, i)``'s.
from .rng import substream  # noqa: F401

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
# forked workers: 4 x 65536, OpenBLAS's default GEMM_MULTITHREAD_THRESHOLD.
# The rule reads the whole-tile GEMM even where centers are packed and
# their products are 64 columns wide: on wide-csv's kernel input (d = 10,
# n = 1000, n_mc = 100, packed) a thread pool ran 2-15% faster than this
# serial loop, under 1% of that workload's operation, while a block's whole
# rows there would still start BLAS threads in each worker; so the rule stays.
_POOL_GEMM_LIMIT = 1 << 18
# Fewest centers for which the kernel forks.  Forked against serial time
# (medians of per-pair ratios over 21-41 alternating calls, four rounds at
# d = 3, two otherwise; 2 cores, N(0, I_d) centers, sigma 0.1): d = 3,
# n_mc = 100 ran 0.94-0.97x at n = 320 in three rounds and 1.26x in one,
# 0.89-1.04x at 400, 0.82-0.84x at 480 and 0.72-0.83x at 640; d = 40,
# n_mc = 10, sigma 1 ran 0.86-0.87x at 400.  A fork, its pipe and its join
# cost about 3 ms a call in a small process.  Below 320 stays serial.
_POOL_MIN_CENTERS = 320
_DELTA_BUDGET = 1 << 22
# Most bytes that one block of centers holds, as _center_bytes counts them.
# At 1 MiB, d = 256, n = 1000 ran one center at a time and 6-11% slower
# than 20 at a time (2 cores); raising it to 4 or 6 MiB at d = 3 ran no
# faster and raised the peak RSS by 3-7 MiB.
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
# _WINDOW_TILES column tiles at a time, and a flush appends at most
# _PACK_COLS of them a row, on average over the block.  Both set bytes a
# center, so they trade the number of flushes against the size of blocks:
# on entropy-lowdim's kernel input (2 cores, pooled) rooms of 128-256
# columns and windows of 2-4 tiles, blocks of 59-78 centers, ran within
# noise of each other; the smallest gives the largest blocks.
_WINDOW_TILES = 3
_PACK_COLS = _COL_TILE // 4
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


def _mc_block(centers_t, b0, b1, z_lhs, reach, sigma, scratch):
    """Log-sums ``log sum_k exp(E_ik)`` of all (center, draw) queries in one block.

    ``b0:b1`` is one block of the ``(d, n)`` float32 centers ``centers_t``;
    each row depends on its own center and draws only.  ``scratch`` is
    ``_scratch``'s, for at least ``b1 - b0`` centers.  Exponents come from one
    augmented product per column tile of ``_COL_TILE`` centers,
    ``z_lhs = [-Z/sigma^2 | 1]`` against ``[delta^T ; -|delta|^2/(2 sigma^2)]``
    with ``delta[i, k] = x_{b0+i} - x_k`` written straight into ``aug``, so
    they are relative to the row shift ``-|Z|^2/(2 sigma^2)``, in which the
    self term's exponent is exactly 0.  A sum that is not finite raises
    ``Unsupported``.

    Unless ``reach`` is None, row ``i`` keeps the columns whose float32
    ``|delta|^2`` is at most ``reach[i, 0]`` or overflows.  A center that
    keeps at most half of its first tile is packed; the others run over all
    ``n`` columns, a few rows at a time.  Packed rows' keep masks go into
    ``window``, of ``_WINDOW_TILES`` tiles, flushed when it is full, at the
    end, or before a tile whose kept count would pass the room of
    ``per_row = min(n, _PACK_COLS)`` columns a row, on average over the
    block; a tile that alone passes it is flushed ``per_row`` columns at a
    time.  A flush appends its kept columns to each row's list in ``packed``,
    in column order, gathering their differences from ``centers_t`` (bitwise
    ``aug``'s) and summing ``|delta|^2`` in float32 in axis order.  A list is
    cut into chunks of ``_CHUNK`` columns, each its own product, all run by
    ``run``: full chunks in the flush that fills them, each row's last chunk
    at the block's end with its padding zeroed in the operand and masked to
    exactly 0 after exp, so an overflowing kept term still raises
    ``Unsupported``.  The rest of a list is carried to the next flush, laid
    out anew from a chunk boundary.
    """
    dim, n = centers_t.shape
    rows, draws = z_lhs.shape[:2]
    aug, buf, packed, window = scratch.aug, scratch.buf, scratch.packed, scratch.window
    inv_2s2 = np.float32(-0.5 / sigma**2)
    cb = centers_t[:, b0:b1].T[:, :, None]
    sums = np.zeros((rows, draws))
    # each row's list carries fill[i] columns, its partial chunk, in chunk at[i] of packed
    fill = np.zeros(rows, dtype=np.intp)
    at = np.zeros(rows, dtype=np.intp)
    chunks = packed.reshape(dim + 1, -1, _CHUNK)
    batch = max(1, min(_EVAL_TERMS, buf.size) // (draws * _CHUNK))

    def run(own, ids, widths=None):
        """Add chunks ``ids``' float32 sums in float64 to rows ``own``, in order, ``batch`` at a time.

        With ``widths``, chunk ``t`` holds ``widths[t]`` columns, its padding
        masked, and ``own`` is ``0, 1, 2, ...``: each row's last chunk.
        """
        for c0 in range(0, own.size, batch):
            r = own[c0 : c0 + batch]
            a = chunks[:, ids[c0 : c0 + batch]]
            mask = None
            if widths is not None:
                mask = np.arange(_CHUNK) < widths[c0 : c0 + batch, None]
                np.copyto(a, 0, where=~mask)
            part = _tile_sums(z_lhs[r], a.transpose(1, 0, 2), _head(buf, (r.size, draws, _CHUNK)), mask)
            if widths is not None:  # rows c0, c0 + 1, ..., once each
                sums[c0 : c0 + r.size] += part
            else:  # unbuffered, so each row's chunk sums are added in list order
                np.add.at(sums.reshape(-1), np.add.outer(r * draws, np.arange(draws)).ravel(),
                          part.astype(np.float64).ravel())

    def flush(w0, keep):
        """Append the kept columns ``w0:w0 + keep.shape[1]`` to the rows' lists; run their full chunks.

        The gathers run in the float32 rows of ``hold``; ``index[0]`` holds
        ``0, 1, 2, ...``, and ``index[1:]`` the kept columns' rows and places
        in ``packed``.
        """
        cols, index = keep.shape[1], scratch.index
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
        delta, other, d2 = scratch.hold[:, : r.size]
        for ch in range(dim):
            np.take(centers_t[ch, b0 : b0 + rows], r, out=delta, mode="clip")
            delta -= np.take(centers_t[ch, w0 : w0 + cols], col, out=other, mode="clip")
            packed[ch][dest] = delta
            if ch:
                d2 += np.square(delta, out=other)
            else:
                np.square(delta, out=d2)
        d2 *= inv_2s2
        packed[dim][dest] = d2
        del col  # freed before the evaluation's temporaries
        owner = np.repeat(np.arange(rows), full)
        run(owner, np.arange(owner.size) + (first - np.cumsum(full) + full)[owner])
        fill[:], at[:] = total - full * _CHUNK, first + full

    # a flush appends at most room columns to the block's lists, per_row a row on average
    per_row = min(n, _PACK_COLS)
    room = rows * per_row
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
                    # the window, still empty, holds the first tile's comparisons
                    near = np.less_equal(d2, reach, out=window[:rows, :width])
                    is_packed = 2 * np.count_nonzero(near, axis=1)[:, None] <= width
                    packs = np.flatnonzero(is_packed)
                    # packed rows keep |delta|^2 <= reach or overflowing; whole rows keep none
                    low = np.where(is_packed, reach, -1)
                    high = np.where(is_packed, _F32_MAX, np.inf)
                whole = _runs(packs, rows, max(1, buf.size // (draws * aug.shape[2])))
            if packs.size:
                keep = window[:rows, k0 - w0 : k0 - w0 + width]
                np.less_equal(d2, low, out=keep)
                if d2.max() > _F32_MAX:  # some |delta|^2 overflowed: packed rows keep it
                    keep |= d2 > high
                count = np.count_nonzero(keep)
                # the window's earlier tiles are flushed when this one's kept columns would overfill
                # the lists' room; the tile then starts the window
                if kept + count > room and k0 > w0:
                    if kept:
                        flush(w0, window[:rows, : k0 - w0])
                    window[:rows, :width] = keep
                    w0, kept = k0, 0
                kept += count
            if whole:
                d2 *= inv_2s2
            for r0, r1 in whole:
                sums[r0:r1] += _tile_sums(z_lhs[r0:r1], a[r0:r1], _head(buf, (r1 - r0, draws, width)))
            end = k0 + width
            if packs.size and (end - w0 == window.shape[1] or end == n or kept > room):
                # a full window or the last at once; a tile that alone overfills the room,
                # per_row columns at a time
                step = per_row if kept > room else end - w0
                for p0 in range(0, end - w0, step) if kept else ():
                    flush(w0 + p0, window[:rows, p0 : min(p0 + step, end - w0)])
                w0, kept = end, 0
        if packs.size:
            run(np.arange(rows), at, fill)
    if not np.all(np.isfinite(sums)):
        raise Unsupported("Monte-Carlo kernel sum is not finite: a term exceeds float32")
    return np.log(sums, out=sums)


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
    """Workers for a forked kernel, CSV read or CSV write: the cores this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@contextmanager
def _forked(target, jobs):
    """Run ``target(*job, conn)`` for each of the ``jobs`` in a child forked from this process.

    Yields this side's receiving end of each child's one-way pipe, in job
    order, or ``None`` when not every child could start: off Linux none is
    forked, a daemonic process may not start any, and one out of processes
    or descriptors starts too few.  Only the child holds its sending end, so
    its exit reads here as an end of file.
    On exit every connection is closed and every child killed and joined.
    """
    conns, procs = [], []
    try:
        if jobs and sys.platform == "linux":
            import multiprocessing  # only calls that fork pay for the import

            context = multiprocessing.get_context("fork")
            if not multiprocessing.current_process().daemon:
                with suppress(OSError):
                    for job in jobs:
                        mine, theirs = context.Pipe(duplex=False)
                        conns.append(mine)
                        with theirs:
                            proc = context.Process(target=target, args=(*job, theirs))
                            proc.start()
                        procs.append(proc)
        yield conns if len(procs) == len(jobs) else None
    finally:
        for conn in conns:
            conn.close()
        for proc in procs:
            proc.kill()
            proc.join()
            proc.close()


_Scratch = namedtuple("_Scratch", "z lhs aug buf packed window hold index")


def _scratch(block, draws, dim, n, pack):
    """One worker's kernel scratch for ``block`` centers of ``draws`` draws each.

    The float64 draws ``z``, the float32 GEMM operand ``lhs`` of
    ``[-Z/sigma^2 | 1]``, then ``_mc_block``'s float32 ``aug``, ``buf`` and
    ``packed``, boolean ``window``, float32 ``hold`` and integer ``index``;
    the last four hold nothing unless ``pack``.  ``hold`` and ``index`` hold
    a flush's room, ``min(n, _PACK_COLS)`` columns a row, and ``packed`` as
    many, a carried chunk and a chunk-aligned start.  ``buf`` holds about
    ``_EVAL_TERMS`` exponents, at least one row's tile, so that they stay in
    cache.
    """
    tile = min(n, _COL_TILE)
    room = min(n, _PACK_COLS) if pack else 0
    cols = block * room
    chunks = block * (-(-room // _CHUNK) + 2) if pack else 0
    terms = min(block, max(1, _EVAL_TERMS // (draws * tile))) * tile * draws
    if pack:
        terms = max(terms, min(block, max(1, _EVAL_TERMS // (draws * _CHUNK))) * _CHUNK * draws)
    index = np.empty((3, cols), dtype=np.intp)
    index[0] = np.arange(cols)
    return _Scratch(np.empty((block, draws, dim)), np.empty((block, draws, dim + 1), dtype=np.float32),
                    np.empty((block, dim + 1, tile), dtype=np.float32), np.empty(terms, dtype=np.float32),
                    np.empty((dim + 1, chunks * _CHUNK), dtype=np.float32),
                    np.empty((block if pack else 0, _WINDOW_TILES * tile), dtype=bool),
                    np.empty((3, cols), dtype=np.float32), index)


def _center_bytes(draws, dim, n, pack):
    """Bytes that one center adds to a block of ``draws`` draws a center.

    Its share of ``_scratch`` but ``buf``,
    ``4 (d + 1) (w + 64 c) + T w + 36 m + 8 j d + 4 j (d + 1)`` for
    ``w = min(n, _COL_TILE)``, ``T = _WINDOW_TILES``, ``m = min(n, _PACK_COLS)``,
    ``j = draws`` and ``c = ceil(m / 64) + 2`` chunks (the list's room, its
    carried chunk and a chunk-aligned start), ``c``, ``T`` and ``m`` being 0
    unless ``pack``; and what a block allocates as it runs: ``16 j`` of
    float64 sums and ``|z|^2``, ``8 m + T w`` of a flush's flat indices and
    copied window, and 512 for the PCG64 state and per-row values.  At
    ``d = 3``, ``n = 5000``, ``n_mc = 100`` that is 27,104 bytes, so blocks
    of 77; at ``d = 200``, ``n = 250`` blocks of 4.  A block holds at least
    one center, whose deltas alone can pass ``_GROUP_BYTES`` at very large ``d``.
    """
    one = _scratch(1, draws, dim, n, pack)
    return (sum(a.nbytes for a in one) - one.buf.nbytes + 16 * draws + 8 * one.hold.shape[1]
            + one.window.nbytes + 512)


def _normals(gen, states, out, carry):
    """Fill ``out[t]`` with ``gen``'s standard normals from the PCG64 state ``states[t]``.

    With ``carry`` each ``states[t]`` becomes the state after its draws, for
    the center's next draw chunk.
    """
    bitgen = gen.bit_generator
    for t, state in enumerate(states):
        bitgen.state = state
        gen.standard_normal(out=out[t])
        if carry:
            states[t] = bitgen.state


def _center_moments(centers_t, sigma, n_mc, seed):
    """Mean and summed squared deviation of each center's ``n_mc`` log terms, as a ``(2, n)`` array.

    A term is ``_mc_block``'s log-sum less ``|z|^2/(2 sigma^2)`` and the
    norming constant.  Each block of centers is drawn, evaluated and
    reduced one draw chunk at a time, in this process or in a forked child
    (see the module notes), on that process's one scratch and generator.
    A child sends its centers' moments down its pipe as one float64
    message; after any failure this process runs the child's blocks itself.
    Non-finite terms pass through to the moments.
    """
    dim, n = centers_t.shape
    const = _log_norm_const(n, dim, sigma)
    two_var = 2.0 * sigma**2
    jc = min(n_mc, _ROW_TARGET)
    pack = _packing(dim, n, jc)
    block = min(n, max(1, _GROUP_BYTES // _center_bytes(jc, dim, n, pack)))
    starts = range(0, n, block)
    workers = 1
    if jc * _COL_TILE * (dim + 1) <= _POOL_GEMM_LIMIT and n >= _POOL_MIN_CENTERS:
        workers = min(_worker_count(), len(starts))
    moments = np.empty((2, n))

    def job(b0, scratch, gen):
        b1 = min(b0 + block, n)
        states = _pcg64_states(seed, b0, b1)
        t1 = t2 = 0.0
        # |z|^2 past float64 gives terms of -inf and nan, which the caller refuses
        with np.errstate(over="ignore", invalid="ignore"):
            for j0 in range(0, n_mc, _ROW_TARGET):
                # the scratch's heads, so that a last chunk below jc draws is contiguous too
                draws = min(_ROW_TARGET, n_mc - j0)
                z = _head(scratch.z, (b1 - b0, draws, dim))
                z_lhs = _head(scratch.lhs, (b1 - b0, draws, dim + 1))
                # standard normals scaled once: bitwise rng.normal(0.0, sigma, ...)
                _normals(gen, states, z, carry=j0 + draws < n_mc)
                z *= sigma
                np.multiply(z, -1.0 / sigma**2, out=z_lhs[:, :, :dim])
                z_lhs[:, :, dim] = 1.0
                z2 = np.einsum("ijd,ijd->ij", z, z)
                reach = _reach(z2, sigma, n, dim) if _packing(dim, n, draws) else None
                # in place: the terms, then their deviations and squares, in the kernel's sums
                terms = _mc_block(centers_t, b0, b1, z_lhs, reach, sigma, scratch)
                terms -= np.divide(z2, two_var, out=z2)
                terms -= const
                pivot = terms[:, 0].copy() if j0 == 0 else pivot  # each center's first term
                dev = np.subtract(terms, pivot[:, None], out=terms)
                t1 += dev.sum(axis=1)
                t2 += np.multiply(dev, dev, out=z2).sum(axis=1)
            moments[0, b0:b1] = pivot + t1 / n_mc
            moments[1, b0:b1] = t2 - t1 * t1 / n_mc

    def run(r):
        """Run blocks ``r, r + workers, ...`` on one scratch and one generator."""
        scratch = _scratch(block, jc, dim, n, pack)
        gen = np.random.Generator(np.random.PCG64(0))  # set to each center's PCG64 state in turn
        for b0 in starts[r::workers]:
            job(b0, scratch, gen)  # a job's arrays are freed before the next one's

    def rows(r):
        """Worker ``r``'s centers, those of its blocks, as a mask."""
        return np.arange(n) // block % workers == r

    def child(r, conn):
        """Forked child ``r``: run its blocks and send their moments; on any failure send nothing."""
        try:
            run(r)
            conn.send_bytes(moments[:, rows(r)].ravel())
        except Exception:  # the caller runs these blocks and raises the error, if there is one
            pass
        finally:
            conn.close()

    with _forked(child, [(r,) for r in range(1, workers)]) as conns:
        run(0)
        for r in range(1, workers):
            mine = rows(r)
            got = np.empty(2 * np.count_nonzero(mine))
            sent = False
            with suppress(EOFError, OSError):
                sent = conns is not None and conns[r - 1].recv_bytes_into(got) == got.nbytes
            if sent:
                moments[:, mine] = got.reshape(2, -1)
            else:
                run(r)
    return moments


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
