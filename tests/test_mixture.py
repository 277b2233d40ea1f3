"""Mixture log density and the Monte-Carlo / quadrature entropy estimates."""

import math
import os
import subprocess
import sys
import threading
from decimal import Decimal, getcontext
from pathlib import Path

import numpy as np
import pytest

from smoothent import (
    EntropyEstimate,
    InvalidConfig,
    InvalidData,
    IsotropicMixture,
    SampleMatrix,
    Unsupported,
    mixture_log_density,
    plugin_entropy_mc,
    plugin_entropy_quadrature,
)
from smoothent import mixture
from smoothent.mixture import (
    _COL_TILE,
    _log_density_rows,
    _log_norm_const,
    _mc_block,
    _reach,
)
from smoothent.rng import substream

LN_2PI_E = 2.837877066409345
HALF_LN_2PI_E = 1.4189385332046727


def gaussian_entropy(dim: int, sigma: float) -> float:
    return 0.5 * dim * math.log(2 * math.pi * math.e * sigma**2)


def mixture_of(centers, sigma) -> IsotropicMixture:
    return IsotropicMixture(SampleMatrix(np.atleast_2d(np.asarray(centers, dtype=float))), sigma)


class TestMixtureLogDensity:
    def test_standard_normal_at_mode(self):
        mix = mixture_of([[0.0]], 1.0)
        assert mixture_log_density(mix, [0.0]) == pytest.approx(
            math.log(1 / math.sqrt(2 * math.pi)), abs=1e-12
        )

    def test_symmetric_two_center_mixture(self):
        a, sigma = 1.7, 0.6
        mix = mixture_of([[-a, a]], sigma)
        # at the midpoint the mixture equals a single kernel at distance a
        expected = -0.5 * (a / sigma) ** 2 - math.log(sigma) - 0.5 * math.log(2 * math.pi)
        assert mixture_log_density(mix, [0.0]) == pytest.approx(expected, abs=1e-12)

    def test_against_extended_precision_sum(self):
        # oracle: naive direct summation in 50-digit decimal arithmetic
        rng = np.random.default_rng(100)
        centers = rng.standard_normal((2, 5))
        sigma = 0.7
        point = np.array([0.3, -0.4])
        mix = IsotropicMixture(SampleMatrix(centers), sigma)

        getcontext().prec = 50
        total = Decimal(0)
        for i in range(5):
            sq = sum(Decimal(float(point[k]) - float(centers[k, i])) ** 2 for k in range(2))
            total += (-sq / (2 * Decimal(sigma) ** 2)).exp()
        expected = (
            total / (5 * (2 * Decimal(math.pi) * Decimal(sigma) ** 2))
        ).ln()  # (1/n) sum phi, with the 2-d normalizer (2 pi sigma^2)
        assert mixture_log_density(mix, point) == pytest.approx(float(expected), rel=1e-10)

    def test_far_tail_stays_finite(self):
        mix = mixture_of([[0.0]], 0.1)
        value = mixture_log_density(mix, [100.0])
        assert math.isfinite(value)
        assert value < -400_000  # deep in log space, no underflow to -inf

    def test_batch_off_origin_against_extended_precision(self):
        # centers and queries at 1000 with sigma = 0.01: the expanded form
        # |q|^2 - 2 q.c + |c|^2 would cancel ~1e6 against ~1e-4 here
        rng = np.random.default_rng(101)
        centers = 1000.0 + 0.02 * rng.standard_normal((6, 2))
        queries = 1000.0 + 0.02 * rng.standard_normal((4, 2))
        sigma = 0.01
        got = _log_density_rows(centers, sigma, queries)

        getcontext().prec = 50
        for q, value in zip(queries, got):
            total = Decimal(0)
            for c in centers:
                sq = sum((Decimal(float(q[k])) - Decimal(float(c[k]))) ** 2 for k in range(2))
                total += (-sq / (2 * Decimal(sigma) ** 2)).exp()
            expected = (total / (6 * 2 * Decimal(math.pi) * Decimal(sigma) ** 2)).ln()
            assert value == pytest.approx(float(expected), abs=1e-12)

    def test_input_validation(self):
        mix = mixture_of([[0.0, 1.0]], 1.0)
        with pytest.raises(InvalidData):
            mixture_log_density(mix, [0.0, 0.0])
        with pytest.raises(InvalidData):
            mixture_log_density(mix, [np.nan])
        for sigma in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(InvalidConfig, match="sigma must be a positive real"):
                mixture_of([[0.0, 1.0]], sigma)


class TestPluginEntropyMc:
    def test_single_center_one_dim(self):
        # oracle: closed-form Gaussian entropy (d/2) ln(2 pi e sigma^2)
        est = plugin_entropy_mc(mixture_of([[0.0]], 1.0), 1_000_000, seed=7)
        assert abs(est.value - HALF_LN_2PI_E) <= 3 * est.mc_std_error

    def test_single_center_two_dim(self):
        mix = IsotropicMixture(SampleMatrix(np.zeros((2, 1))), 0.5)
        est = plugin_entropy_mc(mix, 200_000, seed=8)
        assert abs(est.value - gaussian_entropy(2, 0.5)) <= 3 * est.mc_std_error

    def test_two_separated_centers(self):
        # oracle: 1-d quadrature of -int g ln g
        mix = mixture_of([[-5.0, 5.0]], 1.0)
        est = plugin_entropy_mc(mix, 100_000, seed=9)
        reference = plugin_entropy_quadrature(mix)
        assert reference == pytest.approx(HALF_LN_2PI_E + math.log(2), abs=1e-4)
        assert abs(est.value - reference) <= 3 * est.mc_std_error

    def test_invalid_trial_count(self):
        with pytest.raises(InvalidConfig):
            plugin_entropy_mc(mixture_of([[0.0]], 1.0), 0, seed=1)

    def test_seed_determinism_bitwise(self):
        rng = np.random.default_rng(41)
        mix = IsotropicMixture(SampleMatrix(rng.standard_normal((3, 40))), 0.4)
        a = plugin_entropy_mc(mix, 250, seed=99)
        b = plugin_entropy_mc(mix, 250, seed=99)
        assert a == b

    def test_translation_invariance_bitwise(self):
        # grid-valued centers and shift: the translated inputs are exactly
        # representable, isolating the algorithmic property that the result
        # depends on the centers only through their pairwise differences
        rng = np.random.default_rng(42)
        centers = np.round(rng.standard_normal((2, 25)) * 256) / 256
        shift = np.array([[3.25], [-7.5]])
        e1 = plugin_entropy_mc(IsotropicMixture(SampleMatrix(centers), 0.5), 400, seed=5)
        e2 = plugin_entropy_mc(IsotropicMixture(SampleMatrix(centers + shift), 0.5), 400, seed=5)
        assert e1.value == e2.value
        assert e1.mc_std_error == e2.mc_std_error

    def test_translation_invariance_generic_shift(self):
        rng = np.random.default_rng(43)
        centers = rng.standard_normal((2, 25))
        shift = rng.standard_normal((2, 1)) * 10
        e1 = plugin_entropy_mc(IsotropicMixture(SampleMatrix(centers), 0.5), 400, seed=5)
        e2 = plugin_entropy_mc(IsotropicMixture(SampleMatrix(centers + shift), 0.5), 400, seed=5)
        assert e1.value == pytest.approx(e2.value, abs=1e-6)

    def test_noise_entropy_lower_bound(self):
        # smoothing cannot reduce entropy below the noise's own entropy
        rng = np.random.default_rng(44)
        for dim, n, sigma in [(1, 10, 0.2), (2, 30, 0.7), (3, 50, 1.3)]:
            mix = IsotropicMixture(SampleMatrix(rng.standard_normal((dim, n))), sigma)
            est = plugin_entropy_mc(mix, 400, seed=6)
            assert est.value >= gaussian_entropy(dim, sigma) - 3 * est.mc_std_error

    def test_monotone_in_sigma(self):
        rng = np.random.default_rng(45)
        centers = SampleMatrix(rng.standard_normal((2, 30)))
        lo = plugin_entropy_mc(IsotropicMixture(centers, 0.3), 2000, seed=2)
        hi = plugin_entropy_mc(IsotropicMixture(centers, 0.6), 2000, seed=2)
        gap = 3 * math.hypot(lo.mc_std_error, hi.mc_std_error)
        assert hi.value > lo.value - gap
        assert hi.value > lo.value  # comfortably separated in practice

    def test_matches_quadrature(self):
        rng = np.random.default_rng(46)
        for dim in (1, 2):
            centers = rng.standard_normal((dim, 50)) * 1.5
            mix = IsotropicMixture(SampleMatrix(centers), 0.8)
            est = plugin_entropy_mc(mix, 20_000, seed=3)
            ref = plugin_entropy_quadrature(mix)
            assert abs(est.value - ref) <= 4 * est.mc_std_error + 1e-4

    def test_high_dim_estimate_is_finite_and_above_noise_entropy(self):
        rng = np.random.default_rng(47)
        mix = IsotropicMixture(SampleMatrix(rng.standard_normal((40, 30)) * 5), 0.5)
        est = plugin_entropy_mc(mix, 100, seed=4)
        assert math.isfinite(est.value)
        assert est.value >= gaussian_entropy(40, 0.5) - 3 * est.mc_std_error

    def test_inputs_beyond_float32_are_unsupported(self):
        # 1/sigma^2 = 1e40 and a coordinate of 1e39 both overflow float32
        with pytest.raises(Unsupported, match="float32"):
            plugin_entropy_mc(mixture_of([[0.0, 1.0, 2.0]] * 3, 1e-20), 20, seed=1)
        with pytest.raises(Unsupported, match="float32"):
            plugin_entropy_mc(mixture_of([[0.0, 1e39, 2.0]], 1.0), 20, seed=1)
        # each coordinate fits, but their difference of 6e38 does not
        with pytest.raises(Unsupported, match="float32"):
            plugin_entropy_mc(mixture_of([[-3e38, 3e38]], 1.0), 20, seed=1)

    def test_sigma_whose_square_overflows_is_unsupported(self):
        # 2 sigma^2 beyond float64 is refused before any draw; just below
        # that, the draws' |z|^2 overflow and the fold refuses the estimate
        with pytest.raises(Unsupported, match="2 sigma\\^2 below"):
            plugin_entropy_mc(mixture_of([[0.0, 1.0]], 1e160), 20, seed=1)
        with pytest.raises(Unsupported, match="overflows float64"):
            plugin_entropy_mc(mixture_of([[0.0, 1.0]], 9e153), 20, seed=1)
        assert math.isfinite(plugin_entropy_mc(mixture_of([[0.0, 1.0]], 1e20), 20, seed=1).value)

    def test_tiny_sigma_within_float32(self):
        # sigma = 1e-15 (1/sigma^2 = 1e30) still fits: the centers are
        # separated by 1e15 sigma, so h = ln n + h(N(0, sigma^2 I_3))
        rng = np.random.default_rng(48)
        mix = IsotropicMixture(SampleMatrix(rng.standard_normal((3, 50))), 1e-15)
        est = plugin_entropy_mc(mix, 100, seed=5)
        expected = math.log(50) + gaussian_entropy(3, 1e-15)
        assert abs(est.value - expected) <= 4 * est.mc_std_error + 1e-6

    def test_estimate_metadata(self):
        est = plugin_entropy_mc(mixture_of([[0.0, 1.0]], 0.5), 25, seed=17)
        assert est == EntropyEstimate(est.value, est.mc_std_error, 2, 25, 17)
        assert est.mc_std_error > 0
        # one log term: no spread to estimate
        one = plugin_entropy_mc(mixture_of([[0.0]], 0.5), 1, seed=17)
        assert one == EntropyEstimate(one.value, 0.0, 1, 1, 17)


class TestMcKernels:
    @staticmethod
    def block_args(centers_t, b0, b1, z64, sigma):
        """``_mc_block``'s arguments for rows ``b0:b1`` with noise ``z64``, scratch included."""
        dim = centers_t.shape[0]
        rows, n_mc = z64.shape[:2]
        n = centers_t.shape[1]
        scratch = mixture._scratch(rows, n_mc, dim, n, True)
        z_lhs = scratch.lhs
        z_lhs[:, :, :dim] = -z64 / sigma**2
        z_lhs[:, :, dim] = 1.0
        reach = _reach(np.einsum("ijd,ijd->ij", z64, z64), sigma, n, dim)
        return centers_t, b0, b1, z_lhs, reach, sigma, scratch

    @staticmethod
    def log_density(centers_t, b0, b1, z64, sigma):
        """``_mc_block``'s log-sums turned into log densities as ``plugin_entropy_mc`` does."""
        dim, n = centers_t.shape
        logsum = _mc_block(*TestMcKernels.block_args(centers_t, b0, b1, z64, sigma))
        z2 = np.einsum("ijd,ijd->ij", z64, z64)
        return logsum - z2 / (2.0 * sigma**2) - _log_norm_const(n, dim, sigma)

    @staticmethod
    def exact(centers_t, b0, b1, z64, sigma):
        """The float64 evaluator at the same queries, on the same float32 centers."""
        centers64 = centers_t.T.astype(np.float64)
        queries = (centers64[b0:b1, None, :] + z64).reshape(-1, centers_t.shape[0])
        return _log_density_rows(centers64, sigma, queries).reshape(z64.shape[:2])

    @staticmethod
    def overflow_case(dim, far=0):
        """Two centers 3 apart and, at sigma = 0.1, a draw 2.95 from the first toward the second.

        The second term's exponent in the self-term frame is
        ``(2.95 * 3 - 9 / 2) / 0.01 = 435``, beyond float32's exp range (~88.7).
        ``far`` more centers 1000 away make the first center's list short
        enough to be packed.
        """
        centers_t = np.zeros((dim, 2 + far), dtype=np.float32)
        centers_t[0, 1] = 3.0
        centers_t[1, 2:] = 1000.0 * np.arange(1, far + 1)
        z64 = np.zeros((2, 1, dim))
        z64[0, 0, 0] = 2.95
        z64[1, 0, :2] = [-0.1, 0.05]
        return centers_t, z64

    @pytest.mark.parametrize("dim", [1, 3, 10, 40, 100])
    def test_block_agrees_with_double_precision(self, dim):
        # one block (b0:b1 spans two column tiles of centers) against the
        # float64 evaluator
        rng = np.random.default_rng(200 + dim)
        n, n_mc, sigma = 700, 7, 0.5
        centers_t = rng.standard_normal((dim, n)).astype(np.float32)
        b0, b1 = 40, 52
        z64 = rng.normal(0.0, sigma, size=(b1 - b0, n_mc, dim))
        got = self.log_density(centers_t, b0, b1, z64, sigma)
        exact = self.exact(centers_t, b0, b1, z64, sigma)
        np.testing.assert_allclose(got, exact, rtol=0, atol=1e-4)

    def test_overflowing_exponent(self):
        centers_t, z64 = self.overflow_case(3)
        with pytest.raises(Unsupported, match="kernel sum is not finite: a term exceeds float32"):
            _mc_block(*self.block_args(centers_t, 0, 2, z64, 0.1))

    def test_overflowing_exponent_in_a_packed_row(self, monkeypatch):
        # ten more centers 1000 away: both rows are packed; the first keeps
        # the overflowing pair, the second, whose draw is short, itself only
        centers_t, z64 = self.overflow_case(3, far=10)
        count = count_columns(monkeypatch)
        with pytest.raises(Unsupported, match="kernel sum is not finite: a term exceeds float32"):
            _mc_block(*self.block_args(centers_t, 0, 2, z64, 0.1))
        assert count[0] == 2 + 1

    def test_high_dim_overflow_is_unsupported(self, monkeypatch):
        # a d = 40 estimate whose draws put an exponent beyond float32 ends
        # in the kernel's typed error, not in a non-finite value
        centers_t, z64 = self.overflow_case(40)

        def normals(gen, states, out, carry):
            # states are the centers' indices, from the patched seeding
            out[...] = z64[states] / 0.1

        monkeypatch.setattr(mixture, "_pcg64_states", lambda seed, b0, b1: list(range(b0, b1)))
        monkeypatch.setattr(mixture, "_normals", normals)
        mix = IsotropicMixture(SampleMatrix(centers_t), 0.1)
        with pytest.raises(Unsupported, match="kernel sum is not finite"):
            plugin_entropy_mc(mix, 1, seed=0)


def clustered_centers(seed):
    """``(3, 1400)`` centers whose cutoff lists differ in length at sigma = 0.1.

    Columns 0-299 are a tight cluster, so those centers keep 59% of their
    first tile and run whole; columns 300-799 are spread 100 apart or more,
    so each keeps itself only; columns 800-1399 are a second tight cluster
    2000 away, whose centers keep none of their first tile and 600 columns
    in all, one full packed tile and a part.
    """
    rng = np.random.default_rng(seed)
    spread = np.stack(np.meshgrid(*[np.arange(8) * 100.0] * 3)).reshape(3, -1)[:, :500]
    return np.hstack([
        rng.normal(0.0, 0.03, (3, 300)),
        spread + 500.0,
        rng.normal(0.0, 0.03, (3, 600)) + 2000.0,
    ])


def count_columns(monkeypatch):
    """Wrap ``_tile_sums``; return a one-item list that counts the kept columns reaching the product.

    Padding that a mask drops is not counted.
    """
    real = mixture._tile_sums
    count = [0]

    def tile_sums(lhs, a, buf, mask=None):
        rows = a.shape[0] if a.ndim == 3 else 1
        count[0] += a.shape[-1] * rows if mask is None else int(np.count_nonzero(mask))
        return real(lhs, a, buf, mask)

    monkeypatch.setattr(mixture, "_tile_sums", tile_sums)
    return count


class TestCutoff:
    """Pairs whose terms are all below ``2^-24 / n`` are dropped: no log term drops by ``2^-24``."""

    @staticmethod
    def radius(z64, sigma, n):
        """``r = z + sqrt(z^2 + 2 sigma^2 T)``, ``T = ln n + 24 ln 2``, for the longest draw ``z``."""
        z_max = math.sqrt(float(np.einsum("ijd,ijd->ij", z64, z64).max()))
        return z_max + math.sqrt(z_max**2 + 2 * sigma**2 * (math.log(n) + 24 * math.log(2)))

    @pytest.mark.parametrize("b0, b1", [(290, 310), (790, 810), (1390, 1400)])
    def test_blocks_agree_with_double_precision(self, monkeypatch, b0, b1):
        # whole and packed rows in one block, and packed rows that flush a
        # full tile; 23% of all pairs are kept
        centers_t = clustered_centers(315).astype(np.float32)
        rng = np.random.default_rng(316)
        z64 = rng.normal(0.0, 0.1, size=(b1 - b0, 7, 3))
        count = count_columns(monkeypatch)
        got = TestMcKernels.log_density(centers_t, b0, b1, z64, 0.1)
        exact = TestMcKernels.exact(centers_t, b0, b1, z64, 0.1)
        np.testing.assert_allclose(got, exact, rtol=0, atol=1e-4)
        assert count[0] < (b1 - b0) * 1400

    @pytest.mark.parametrize("scale, kept", [(1 - 1e-4, 2), (1 + 1e-4, 1)])
    def test_center_just_inside_or_outside_the_radius(self, monkeypatch, scale, kept):
        # center 1 lies at scale * r from center 0, ten more lie 1000 away, so
        # center 0 keeps at most 2 of 12 columns and is packed
        sigma, n = 1.0, 12
        z64 = np.array([[[0.5, 0.0, 0.0]]])
        centers_t = np.zeros((3, n), dtype=np.float32)
        centers_t[1, 1] = self.radius(z64, sigma, n) * scale
        centers_t[2, 2:] = 1000.0 * np.arange(1, n - 1)
        count = count_columns(monkeypatch)
        got = TestMcKernels.log_density(centers_t, 0, 1, z64, sigma)
        assert count[0] == kept
        exact = TestMcKernels.exact(centers_t, 0, 1, z64, sigma)
        np.testing.assert_allclose(got, exact, rtol=0, atol=1e-4)

    def test_difference_beyond_float32_is_kept(self, monkeypatch):
        # center 0's list is packed (ten neighbours 1000 apart along the
        # second axis are dropped), and its difference of 6e38 to the last
        # center overflows float32: that pair is kept, so the sum is refused
        # as without a cutoff
        centers_t = np.zeros((2, 12), dtype=np.float32)
        centers_t[0, :11] = -3e38
        centers_t[1, 1:11] = 1000.0 * np.arange(1, 11)
        centers_t[0, 11] = 3e38
        count = count_columns(monkeypatch)
        with pytest.raises(Unsupported, match="kernel sum is not finite"):
            _mc_block(*TestMcKernels.block_args(centers_t, 0, 1, np.zeros((1, 2, 2)), 1.0))
        assert count[0] == 2

    def test_separated_clusters_evaluate_their_own_cluster_only(self, monkeypatch):
        # 8 clusters of 100 centers, 100 apart at sigma = 0.1, in shuffled
        # column order: each center's list is its own cluster, so one draw
        # chunk evaluates 800 * 100 columns, not 800^2
        rng = np.random.default_rng(317)
        centers = rng.normal(0.0, 0.02, (2, 800)) + np.repeat(np.arange(8) * 100.0, 100)
        mix = IsotropicMixture(SampleMatrix(centers[:, rng.permutation(800)]), 0.1)
        count = count_columns(monkeypatch)
        assert math.isfinite(plugin_entropy_mc(mix, 64, seed=34).value)
        assert count[0] == 800 * 100

    @pytest.mark.parametrize("dim, n, n_mc", [(60, 800, 64), (2, 199, 64), (2, 800, 63)])
    def test_shapes_that_do_not_pack_run_whole(self, monkeypatch, dim, n, n_mc):
        # the separated clusters of the test above, but in a shape where
        # packing does not pay: every center evaluates all n columns
        rng = np.random.default_rng(319)
        centers = rng.normal(0.0, 0.02, (dim, n)) + np.arange(n) % 8 * 100.0
        count = count_columns(monkeypatch)
        plugin_entropy_mc(IsotropicMixture(SampleMatrix(centers), 0.1), n_mc, seed=35)
        assert count[0] == n * n

    @pytest.mark.parametrize("window_tiles", [1, mixture._WINDOW_TILES, 16])
    def test_lists_at_chunk_edges(self, monkeypatch, window_tiles):
        # six packed rows whose lists hold W - 1, W, W + 1 and 2W + 1 columns
        # (W = _CHUNK), the row alone, and a full _COL_TILE.  Each row's
        # center and 506 isolated fillers make up the first tile, where the
        # row keeps only itself; the rest of its cluster comes after it.  At
        # one tile a window, partial chunks are carried across three flushes;
        # at 16, one window spans every tile.
        w = mixture._CHUNK
        sizes = [w - 1, w, w + 1, 2 * w + 1, 1, _COL_TILE]
        grid = np.stack(np.meshgrid(*[np.arange(8) * 100.0] * 3)).reshape(3, -1)
        owners = np.repeat(np.arange(len(sizes)), [size - 1 for size in sizes])
        spots = np.concatenate([np.arange(_COL_TILE), owners])
        rng = np.random.default_rng(322)
        centers_t = (grid[:, spots] + rng.normal(0.0, 0.01, (3, spots.size))).astype(np.float32)
        z64 = rng.normal(0.0, 1.0, size=(len(sizes), 3, 3))
        monkeypatch.setattr(mixture, "_WINDOW_TILES", window_tiles)
        count = count_columns(monkeypatch)
        got = TestMcKernels.log_density(centers_t, 0, len(sizes), z64, 1.0)
        exact = TestMcKernels.exact(centers_t, 0, len(sizes), z64, 1.0)
        np.testing.assert_allclose(got, exact, rtol=0, atol=1e-4)
        assert count[0] == sum(sizes)

    def test_scratch_does_not_grow_with_n(self, monkeypatch, traced_peak):
        # clusters of 100 centers 10 apart at sigma = 0.1, in column order:
        # each center keeps the 100 columns of its own cluster, at 20
        # clusters as at 80, so of n = 8000 over n = 2000 only the (3, n)
        # float32 centers and the n per-center moments may add to the traced
        # peak, and 16 KiB of interpreter objects.  One worker, so that the
        # peak does not depend on how two workers' steps overlap; a first
        # call warms up.
        monkeypatch.setattr(mixture, "_worker_count", lambda: 1)
        grid = np.stack(np.meshgrid(*[np.arange(5) * 10.0] * 3)).reshape(3, -1)
        rng = np.random.default_rng(323)
        peaks = {}
        for n in (2000, 2000, 8000):
            assert mixture._packing(3, n, 64)
            centers = np.repeat(grid[:, : n // 100], 100, axis=1) + rng.normal(0.0, 0.02, (3, n))
            mix = IsotropicMixture(SampleMatrix(centers), 0.1)
            _, peaks[n] = traced_peak(plugin_entropy_mc, mix, 64, 3)
        assert peaks[8000] - peaks[2000] <= 6000 * (3 * 4 + 2 * 8) + 16 * 1024


def log_terms(mix, n_mc, seed):
    """Every log term ``ln g(x_i + Z_j)`` as an ``(n, n_mc)`` array, one center at a time.

    Center ``i`` draws its noise from ``substream(seed, i)`` in chunks of at
    most ``_ROW_TARGET`` and runs the kernel on its own fresh scratch; the
    kernel is looked up on the module, so a monkeypatched kernel applies.
    """
    centers_t = mix.centers.data.astype(np.float32)
    dim, n = centers_t.shape
    sigma = mix.sigma
    const = _log_norm_const(n, dim, sigma)
    terms = np.empty((n, n_mc))
    for i in range(n):
        rng = substream(seed, i)
        for j0 in range(0, n_mc, mixture._ROW_TARGET):
            j1 = min(j0 + mixture._ROW_TARGET, n_mc)
            z64 = rng.normal(0.0, sigma, size=(1, j1 - j0, dim))
            pack = mixture._packing(dim, n, j1 - j0)
            scratch = mixture._scratch(1, j1 - j0, dim, n, pack)
            z_lhs = scratch.lhs
            z_lhs[:, :, :dim] = z64 * (-1.0 / sigma**2)
            z_lhs[:, :, dim] = 1.0
            z2 = np.einsum("ijd,ijd->ij", z64, z64)
            reach = _reach(z2, sigma, n, dim) if pack else None
            logsum = mixture._mc_block(centers_t, i, i + 1, z_lhs, reach, sigma, scratch)
            terms[i, j0:j1] = (logsum - z2 / (2.0 * sigma**2) - const)[0]
    return terms


def serial_reference(mix, n_mc, seed):
    """``(value, mc_std_error)`` of ``plugin_entropy_mc``, folded one center at a time.

    Each center's terms from ``log_terms`` are summed as deviations from its
    first term, one draw chunk of ``_ROW_TARGET`` at a time, into its mean
    and summed squared deviation; the estimate is minus the mean of the
    means, and the pooled squared deviation is the centers' own plus
    ``n_mc`` times that of their means.
    """
    terms = log_terms(mix, n_mc, seed)
    n = terms.shape[0]
    means = np.empty(n)
    m2 = np.empty(n)
    for i, row in enumerate(terms):
        t1 = t2 = 0.0
        for j0 in range(0, n_mc, mixture._ROW_TARGET):
            dev = row[j0 : j0 + mixture._ROW_TARGET] - row[0]
            t1 += dev.sum()
            t2 += (dev * dev).sum()
        means[i] = row[0] + t1 / n_mc
        m2[i] = t2 - t1 * t1 / n_mc
    mean = float(means.mean())
    total = n * n_mc
    spread = float(m2.sum()) + n_mc * float(np.square(means - mean).sum())
    var = max(0.0, spread / (total - 1)) if total > 1 else 0.0
    return -mean, math.sqrt(var / total)


class TestPooledKernel:
    # n = 407 is at least _POOL_MIN_CENTERS and not a multiple of the blocks of
    # 73-122 centers that d <= 4 at n_mc = 100 gives; those are pooled shapes
    # (100 * 512 * (d + 1) <= 2**18)
    N, N_MC, SEED = 407, 100, 23

    @staticmethod
    def mix(dim):
        rng = np.random.default_rng(300 + dim)
        return IsotropicMixture(SampleMatrix(rng.standard_normal((dim, TestPooledKernel.N))), 0.3)

    @staticmethod
    def record_threads(monkeypatch, error_block=None):
        """Wrap ``_mc_block``: log the calling thread, raise in each block from ``error_block`` on."""
        real = mixture._mc_block
        threads = []

        def kernel(centers_t, b0, *rest):
            threads.append(threading.current_thread())
            if error_block is not None and b0 >= error_block:
                raise RuntimeError("kernel failure in block")
            return real(centers_t, b0, *rest)

        monkeypatch.setattr(mixture, "_mc_block", kernel)
        return threads

    def pooled(self, monkeypatch, mix, workers, n_mc=N_MC):
        monkeypatch.setattr(mixture, "_worker_count", lambda: workers)
        est = plugin_entropy_mc(mix, n_mc, self.SEED)
        return est.value, est.mc_std_error

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("dim", [1, 2, 3, 4])
    def test_bitwise_equal_to_serial_loop(self, monkeypatch, dim, workers):
        mix = self.mix(dim)
        threads = self.record_threads(monkeypatch)
        got = self.pooled(monkeypatch, mix, workers)
        pool_threads = {t for t in threads if t is not threading.main_thread()}
        assert bool(pool_threads) == (workers > 1)
        assert got == serial_reference(mix, self.N_MC, self.SEED)

    @pytest.mark.parametrize("workers", [2, 3])
    def test_wide_shape_with_small_gemm_pools(self, monkeypatch, workers):
        # d = 40 at n_mc = 10: a per-center GEMM of 10 * 512 * 41 <= 2**18 pools
        mix = self.mix(40)
        threads = self.record_threads(monkeypatch)
        got = self.pooled(monkeypatch, mix, workers, n_mc=10)
        assert any(t is not threading.main_thread() for t in threads)
        assert got == serial_reference(mix, 10, self.SEED)

    def test_short_switch_interval(self, monkeypatch):
        mix = self.mix(3)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = self.pooled(monkeypatch, mix, 3)
        finally:
            sys.setswitchinterval(interval)
        assert got == serial_reference(mix, self.N_MC, self.SEED)

    def test_large_gemm_shapes_stay_on_calling_thread(self, monkeypatch):
        # per-center GEMMs over 2**18 multiply-adds: d = 5 at n_mc = 100
        # (100 * 512 * 6), two draw chunks of 2048 and 52 at n_mc = 2100
        # (2048 * 512 * 4), and d = 40, whose sigma puts some queries nearer
        # another center than their own, so that exponents above 0 occur
        threads = self.record_threads(monkeypatch)
        for dim, n_mc, sigma in [(5, 100, 0.3), (3, 2100, 0.3), (40, 100, 3.0)]:
            rng = np.random.default_rng(300 + dim)
            mix = IsotropicMixture(SampleMatrix(rng.standard_normal((dim, 325))), sigma)
            got = self.pooled(monkeypatch, mix, 2, n_mc)
            assert threads and set(threads) == {threading.main_thread()}
            assert got == serial_reference(mix, n_mc, self.SEED)

    @pytest.mark.parametrize("n", [250, mixture._POOL_MIN_CENTERS - 1])
    def test_few_centers_stay_on_calling_thread(self, monkeypatch, n):
        threads = self.record_threads(monkeypatch)
        rng = np.random.default_rng(306)
        mix = IsotropicMixture(SampleMatrix(rng.standard_normal((3, n))), 0.3)
        got = self.pooled(monkeypatch, mix, 2)
        assert threads and set(threads) == {threading.main_thread()}
        assert got == serial_reference(mix, self.N_MC, self.SEED)

    def test_worker_exception_propagates_and_threads_end(self, monkeypatch):
        mix = self.mix(3)
        start = threading.active_count()
        self.pooled(monkeypatch, mix, 2)
        assert threading.active_count() == start
        threads = self.record_threads(monkeypatch, error_block=60)
        with pytest.raises(RuntimeError, match="kernel failure in block"):
            self.pooled(monkeypatch, mix, 2)
        assert any(t is not threading.main_thread() for t in threads)
        assert threading.active_count() == start


def one_center_budget(dim, n, n_mc):
    """``_GROUP_BYTES`` that holds exactly one center, the exponents' ``buf`` not counted."""
    jc = min(n_mc, mixture._ROW_TARGET)
    return mixture._center_bytes(jc, dim, n, mixture._packing(dim, n, jc))


class TestCenterGroups:
    """A block holds at most ``_GROUP_BYTES`` of per-center scratch; no bit moves."""

    SEED = 29

    @staticmethod
    def log_rows(monkeypatch):
        """Log each ``_mc_block`` call's rows."""
        real = mixture._mc_block
        rows = []

        def kernel(centers_t, b0, b1, *rest):
            rows.append(b1 - b0)
            return real(centers_t, b0, b1, *rest)

        monkeypatch.setattr(mixture, "_mc_block", kernel)
        return rows

    @staticmethod
    def split(monkeypatch, dim, n, n_mc, group):
        """Set ``_GROUP_BYTES`` to ``group`` centers' scratch; log each ``_mc_block`` call's rows."""
        monkeypatch.setattr(mixture, "_GROUP_BYTES", group * one_center_budget(dim, n, n_mc))
        return TestCenterGroups.log_rows(monkeypatch)

    @staticmethod
    def estimate(mix, n_mc):
        est = plugin_entropy_mc(mix, n_mc, TestCenterGroups.SEED)
        return est.value, est.mc_std_error

    def test_serial_high_dim_block_split_unevenly(self, monkeypatch):
        # d = 200, n = 250, n_mc = 100: 83 blocks of 3 centers and one of 1;
        # the centers sit within sigma of each other
        rng = np.random.default_rng(310)
        mix = IsotropicMixture(SampleMatrix(rng.standard_normal((200, 250)) * 0.05), 1.0)
        rows = self.split(monkeypatch, 200, 250, 100, 3)
        got = self.estimate(mix, 100)
        assert rows == [3] * 83 + [1]
        assert got == serial_reference(mix, 100, self.SEED)

    @pytest.mark.parametrize("workers", [2, 3])
    def test_pooled_wide_shape(self, monkeypatch, workers):
        # d = 40, n_mc = 10, n = 407: 58 blocks of 7 centers and one of 1 on
        # a pool, which may finish them in any order
        monkeypatch.setattr(mixture, "_worker_count", lambda: workers)
        mix = TestPooledKernel.mix(40)
        rows = self.split(monkeypatch, 40, TestPooledKernel.N, 10, 7)
        got = self.estimate(mix, 10)
        assert sorted(rows) == [1] + [7] * 58
        assert got == serial_reference(mix, 10, self.SEED)

    def test_two_draw_chunks(self, monkeypatch):
        # n_mc = 2100 draws in chunks of 2048 and 52, one center a block;
        # each center sums its deviations over both chunks
        rng = np.random.default_rng(311)
        mix = IsotropicMixture(SampleMatrix(rng.standard_normal((5, 30))), 0.3)
        rows = self.split(monkeypatch, 5, 30, 2100, 1)
        got = self.estimate(mix, 2100)
        assert rows == [1] * 60
        assert got == serial_reference(mix, 2100, self.SEED)

    def test_draw_chunks_in_blocks_of_several_centers(self, monkeypatch):
        # n_mc = 2100 at d = 3, n = 250: blocks of 16 centers draw chunks of
        # 2048 draws, whose centers are packed, and then of 52, which run whole
        # from the heads of the same scratch
        mix, n_mc = fold_cases()["packed-two-chunks"]
        rows = self.log_rows(monkeypatch)
        got = self.estimate(mix, n_mc)
        assert rows == [16, 16] * 15 + [10, 10]
        assert got == serial_reference(mix, n_mc, self.SEED)

    def test_low_dim_blocks_fill_the_group_budget(self, monkeypatch, traced_peak):
        # entropy-lowdim's kernel shape, d = 3, n = 5000, n_mc = 100: blocks of
        # at least 64 centers, and one worker's traced scratch within
        # _GROUP_BYTES and its exponents' buf; the (3, n) float32 centers and
        # the n per-center moments belong to the call
        monkeypatch.setattr(mixture, "_worker_count", lambda: 1)
        rng = np.random.default_rng(324)
        mix = IsotropicMixture(SampleMatrix(rng.standard_normal((3, 5000))), 0.1)
        rows = self.log_rows(monkeypatch)
        est, peak = traced_peak(plugin_entropy_mc, mix, 100, 3)
        assert math.isfinite(est.value)
        assert min(rows[:-1]) >= 64 and sum(rows) == 5000
        buf = mixture._scratch(rows[0], 100, 3, 5000, True)[3]
        assert peak - 5000 * (3 * 4 + 2 * 8) <= mixture._GROUP_BYTES + buf.nbytes

    def test_high_dim_scratch_stays_within_the_group_budget(self, traced_peak):
        # d = 200, n = 250, n_mc = 100: one center's scratch is
        # 4 * 201 * 250 (deltas) + 8 * 100 * 200 (draws) + 4 * 100 * 201
        # (GEMM operand) = 441,400 bytes, and its exponents 4 * 100 * 250 =
        # 100,000 more.  A block of 20 centers held 20 * 541,400 bytes
        # = 10.3 MiB (10.7 MiB traced).  A 2 MiB budget runs blocks of 4:
        # 4 * 541,400 bytes = 2.07 MiB, plus the 0.19 MiB float32 centers:
        # 2.3 MiB traced.
        rng = np.random.default_rng(312)
        mix = IsotropicMixture(SampleMatrix(rng.standard_normal((200, 250))), 1.0)
        est, peak = traced_peak(plugin_entropy_mc, mix, 100, 3)
        assert math.isfinite(est.value)
        assert peak < 4 * 2**20, peak / 2**20


def fold_cases():
    """``(mix, n_mc)`` of the shapes whose bits the fold tests hold fixed.

    Pooled d = 3 (n = 407, n_mc = 100), pooled d = 40 (n_mc = 10), serial
    d = 200 (n = 250), n_mc = 2100 (draw chunks of 2048 and 52), pooled
    d = 3 centers whose cutoff lists differ in length, some packed and some
    whole (``clustered_centers``), and n_mc = 2100 at d = 3, n = 250, whose
    first draw chunk packs centers.
    """
    rng = np.random.default_rng(313)
    return {
        "pooled-d3": (TestPooledKernel.mix(3), 100),
        "pooled-d40": (TestPooledKernel.mix(40), 10),
        "serial-d200": (IsotropicMixture(SampleMatrix(rng.standard_normal((200, 250))), 1.0), 100),
        "two-chunks": (IsotropicMixture(SampleMatrix(rng.standard_normal((5, 30))), 0.3), 2100),
        "uneven-lists": (IsotropicMixture(SampleMatrix(clustered_centers(318)), 0.1), 100),
        "packed-two-chunks": (IsotropicMixture(
            SampleMatrix(np.random.default_rng(325).standard_normal((3, 250))), 0.1), 2100),
    }


@pytest.mark.parametrize(
    "case",
    ["pooled-d3", "pooled-d40", "serial-d200", "two-chunks", "uneven-lists", "packed-two-chunks"],
)
def test_bits_do_not_depend_on_the_schedule(monkeypatch, case):
    # block sizes from one center up to all n centers, each on 1, 2 and 3
    # workers; at n_mc = 2100 a block of several centers runs both draw chunks
    mix, n_mc = fold_cases()[case]
    seen = []
    for budget in (one_center_budget(mix.dim, mix.n_centers, n_mc), mixture._GROUP_BYTES, 2**40):
        for workers in (1, 2, 3):
            monkeypatch.setattr(mixture, "_GROUP_BYTES", budget)
            monkeypatch.setattr(mixture, "_worker_count", lambda: workers)
            est = plugin_entropy_mc(mix, n_mc, seed=31)
            seen.append((est.value, est.mc_std_error))
    assert seen == [seen[0]] * 9


@pytest.mark.parametrize("case", ["pooled-d3", "uneven-lists"])
def test_bits_do_not_depend_on_flushes(monkeypatch, case):
    # windows of one tile or sixteen, room for one tile of list columns a
    # row or eight, and batches of one chunk, of five or of all: each list's
    # chunks, and the order in which their sums are added, stay the same.
    # Batches of five end inside a row's run of full chunks, and hold
    # several rows' last chunks at once.
    mix, n_mc = fold_cases()[case]
    seen = []
    for tiles, cols, terms in [(1, _COL_TILE, 1), (16, 8 * _COL_TILE, 2**40),
                               (mixture._WINDOW_TILES, mixture._PACK_COLS, 5 * n_mc * mixture._CHUNK),
                               (mixture._WINDOW_TILES, mixture._PACK_COLS, mixture._EVAL_TERMS)]:
        monkeypatch.setattr(mixture, "_WINDOW_TILES", tiles)
        monkeypatch.setattr(mixture, "_PACK_COLS", cols)
        monkeypatch.setattr(mixture, "_EVAL_TERMS", terms)
        est = plugin_entropy_mc(mix, n_mc, seed=31)
        seen.append((est.value, est.mc_std_error))
    assert seen == [seen[0]] * 4


@pytest.mark.parametrize("n_mc", [1, 7])
def test_std_error_is_that_of_all_log_terms(n_mc):
    # the pooled moments against the plain sample deviation of every term;
    # at n_mc = 1 each center's own squared deviation is 0
    rng = np.random.default_rng(314)
    mix = IsotropicMixture(SampleMatrix(rng.standard_normal((3, 60))), 0.4)
    est = plugin_entropy_mc(mix, n_mc, seed=32)
    terms = [float(t) for t in log_terms(mix, n_mc, 32).ravel()]
    assert len(terms) == 60 * n_mc
    expected = np.std(np.array(terms), ddof=1) / math.sqrt(len(terms))
    assert est.mc_std_error == pytest.approx(expected, rel=1e-12, abs=0)


# value.hex() and mc_std_error.hex() of plugin_entropy_mc(mix, n_mc, seed=33)
# for four of fold_cases(), so that a moved bit fails here and not only in
# scripts/cli_digests.py; a change that means to move bits updates them
PINNED_BITS = {
    "pooled-d3": ("0x1.0853f366e628ap+2", "0x1.66021c07481b2p-8"),
    "serial-d200": ("0x1.21707a095a9a2p+8", "0x1.037cf201cd939p-4"),
    "two-chunks": ("0x1.15e498508dd00p+2", "0x1.8ca56abc6ebe2p-8"),
    "uneven-lists": ("0x1.6dde945219fe3p-1", "0x1.13f339a286729p-7"),
}


@pytest.mark.parametrize("case", sorted(PINNED_BITS))
def test_pinned_bits(case):
    mix, n_mc = fold_cases()[case]
    est = plugin_entropy_mc(mix, n_mc, seed=33)
    assert (est.value.hex(), est.mc_std_error.hex()) == PINNED_BITS[case]


_BLAS_THREADS_SCRIPT = """
import numpy as np
from smoothent import IsotropicMixture, SampleMatrix, plugin_entropy_mc
from test_mixture import clustered_centers
for dim, n, scale, sigma in [(3, 400, 1.0, 0.3), (200, 250, 0.05, 1.0)]:
    rng = np.random.default_rng(dim)
    mix = IsotropicMixture(SampleMatrix(rng.standard_normal((dim, n)) * scale), sigma)
    est = plugin_entropy_mc(mix, 99, seed=5)
    print(est.value.hex(), est.mc_std_error.hex())
est = plugin_entropy_mc(IsotropicMixture(SampleMatrix(clustered_centers(5)), 0.1), 99, seed=5)
print(est.value.hex(), est.mc_std_error.hex())
"""


def test_bits_do_not_depend_on_blas_threads():
    # a pooled shape and a high-d shape whose GEMMs OpenBLAS threads; the
    # high-d centers sit within sigma of each other, so every pair term
    # counts.  At n_mc = 99 a block holds 1980 queries, which two BLAS
    # threads do not split on the kernels' unrolling, so a row sum taken by
    # a BLAS product with a ones vector changes bits here (at n_mc = 100 it
    # does not).  A third shape has packed and whole centers.
    src = str(Path(mixture.__file__).parents[1])
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        paths = [src, str(Path(__file__).parent), env.get("PYTHONPATH")]
        env["PYTHONPATH"] = os.pathsep.join(filter(None, paths))
        run = subprocess.run(
            [sys.executable, "-c", _BLAS_THREADS_SCRIPT],
            env=env, capture_output=True, text=True, timeout=300, check=True,
        )
        outputs.append(run.stdout.split())
    assert len(outputs[0]) == 6
    assert outputs[0] == outputs[1]


class TestPluginEntropyQuadrature:
    def test_single_center_one_dim(self):
        assert plugin_entropy_quadrature(mixture_of([[0.0]], 1.0)) == pytest.approx(
            HALF_LN_2PI_E, abs=1e-5
        )

    def test_single_center_two_dim(self):
        mix = IsotropicMixture(SampleMatrix(np.zeros((2, 1))), 1.0)
        assert plugin_entropy_quadrature(mix) == pytest.approx(LN_2PI_E, abs=1e-5)

    def test_two_separated_modes(self):
        sigma = 0.4
        mix = mixture_of([[-5 * sigma, 5 * sigma]], sigma)
        expected = gaussian_entropy(1, sigma) + math.log(2)
        assert plugin_entropy_quadrature(mix) == pytest.approx(expected, abs=1e-4)

    def test_scaled_off_origin_mixture(self):
        # invariance checks on the oracle itself: translation and known value
        sigma = 0.9
        base = mixture_of([[0.0, 2.0, -1.0]], sigma)
        shifted = mixture_of([[10.0, 12.0, 9.0]], sigma)
        assert plugin_entropy_quadrature(base) == pytest.approx(
            plugin_entropy_quadrature(shifted), abs=1e-9
        )

    def test_dimension_cap(self):
        mix = IsotropicMixture(SampleMatrix(np.zeros((3, 1))), 1.0)
        with pytest.raises(Unsupported):
            plugin_entropy_quadrature(mix)

    def test_grid_cap(self, monkeypatch):
        # one center: 32 panels of 16 nodes
        mix = mixture_of([[0.0]], 1.0)
        monkeypatch.setattr(mixture, "_GRID_LIMIT", 511)
        with pytest.raises(Unsupported, match="quadrature grid of 512 points"):
            plugin_entropy_quadrature(mix)
        monkeypatch.setattr(mixture, "_GRID_LIMIT", 512)
        assert plugin_entropy_quadrature(mix) == pytest.approx(HALF_LN_2PI_E, abs=1e-5)

    def test_center_count_cap(self):
        mix = IsotropicMixture(SampleMatrix(np.zeros((1, 201))), 1.0)
        with pytest.raises(Unsupported):
            plugin_entropy_quadrature(mix)
