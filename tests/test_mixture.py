"""Mixture log density and the Monte-Carlo / quadrature entropy estimates."""

import math
import sys
import threading
from decimal import Decimal, getcontext

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
    _mc_block_fast,
    _mc_block_safe,
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

    def test_high_dim_uses_safe_path(self):
        rng = np.random.default_rng(47)
        mix = IsotropicMixture(SampleMatrix(rng.standard_normal((40, 30)) * 5), 0.5)
        est = plugin_entropy_mc(mix, 100, seed=4)
        assert math.isfinite(est.value)
        assert est.value >= gaussian_entropy(40, 0.5) - 3 * est.mc_std_error

    def test_estimate_metadata(self):
        est = plugin_entropy_mc(mixture_of([[0.0, 1.0]], 0.5), 25, seed=17)
        assert est == EntropyEstimate(est.value, est.mc_std_error, 2, 25, 17)
        assert est.mc_std_error > 0


class TestMcKernels:
    @pytest.mark.parametrize("dim", [1, 3, 10])
    def test_fast_and_safe_agree_with_double_precision(self, dim):
        # both float32 kernels on one block (b0:b1 spans two column tiles of
        # centers) against the float64 evaluator on the same float32 centers
        rng = np.random.default_rng(200 + dim)
        n, n_mc, sigma = 700, 7, 0.5
        centers32 = rng.standard_normal((n, dim)).astype(np.float32)
        b0, b1 = 40, 52
        z64 = rng.normal(0.0, sigma, size=(b1 - b0, n_mc, dim))
        z2 = np.einsum("ijd,ijd->ij", z64, z64)
        const = _log_norm_const(n, dim, sigma)
        z_aug = np.ones((b1 - b0, n_mc, dim + 1), dtype=np.float32)
        z_aug[:, :, :dim] = z64
        aug = np.empty((b1 - b0, dim + 1, _COL_TILE), dtype=np.float32)
        buf = np.empty((b1 - b0, n_mc, _COL_TILE), dtype=np.float32)
        fast = _mc_block_fast(centers32, b0, b1, z_aug, z2, sigma, const, aug, buf)
        safe = _mc_block_safe(
            centers32, b0, b1, np.ascontiguousarray(z64, dtype=np.float32), z2, sigma, const
        )
        centers64 = centers32.astype(np.float64)
        queries = (centers64[b0:b1, None, :] + z64).reshape(-1, dim)
        exact = _log_density_rows(centers64, sigma, queries).reshape(b1 - b0, n_mc)
        assert fast is not None
        np.testing.assert_allclose(fast, exact, rtol=0, atol=1e-4)
        np.testing.assert_allclose(safe, exact, rtol=0, atol=1e-4)


def serial_reference(mix, n_mc, seed):
    """``plugin_entropy_mc``'s serial loop as it was before the thread pool.

    Scratch is allocated per block, the kernels are looked up on the module
    (so monkeypatched kernels apply), and ``(value, mc_std_error)`` is returned.
    """
    centers32 = np.ascontiguousarray(mix.centers.data.T, dtype=np.float32)
    n, dim = centers32.shape
    sigma = mix.sigma
    const = _log_norm_const(n, dim, sigma)
    prefer_fast = dim <= 32
    jc = min(n_mc, mixture._ROW_TARGET)
    block = min(
        n,
        max(1, mixture._ROW_TARGET // jc),
        max(1, mixture._DELTA_BUDGET // (_COL_TILE * (dim + 1))),
    )
    pivot = None
    t1 = t2 = 0.0
    total = 0
    for b0 in range(0, n, block):
        b1 = min(b0 + block, n)
        rngs = [substream(seed, i) for i in range(b0, b1)]
        for j0 in range(0, n_mc, jc):
            j1 = min(j0 + jc, n_mc)
            z64 = np.empty((b1 - b0, j1 - j0, dim))
            for t, rng in enumerate(rngs):
                z64[t] = rng.normal(0.0, sigma, size=(j1 - j0, dim))
            z2 = np.einsum("ijd,ijd->ij", z64, z64)
            logg = None
            if prefer_fast:
                z_aug = np.empty((b1 - b0, j1 - j0, dim + 1), dtype=np.float32)
                z_aug[:, :, :dim] = z64
                z_aug[:, :, dim] = 1.0
                aug = np.empty((b1 - b0, dim + 1, _COL_TILE), dtype=np.float32)
                buf = np.empty((b1 - b0, j1 - j0, _COL_TILE), dtype=np.float32)
                logg = mixture._mc_block_fast(centers32, b0, b1, z_aug, z2, sigma, const, aug, buf)
            if logg is None:
                z32 = np.ascontiguousarray(z64, dtype=np.float32)
                logg = mixture._mc_block_safe(centers32, b0, b1, z32, z2, sigma, const)
            flat = logg.ravel()
            if pivot is None:
                pivot = float(flat[0])
            dev = flat - pivot
            t1 += float(dev.sum())
            t2 += float(dev @ dev)
            total += flat.size
    mean = pivot + t1 / total
    var = max(0.0, (t2 - t1 * t1 / total) / (total - 1)) if total > 1 else 0.0
    return -mean, math.sqrt(var / total)


class TestPooledKernel:
    # n = 107 is not a multiple of the block of 20 centers that n_mc = 100
    # gives; d <= 4 at n_mc = 100 is a pooled shape (100 * 512 * (d + 1) <= 2**18)
    N, N_MC, SEED = 107, 100, 23

    @staticmethod
    def mix(dim):
        rng = np.random.default_rng(300 + dim)
        return IsotropicMixture(SampleMatrix(rng.standard_normal((dim, TestPooledKernel.N))), 0.3)

    @staticmethod
    def record_threads(monkeypatch, fail_block=None, error_block=None):
        """Wrap ``_mc_block_fast``: log the calling thread, fail or raise at one block."""
        real = mixture._mc_block_fast
        threads = []

        def fast(centers32, b0, *rest):
            threads.append(threading.current_thread())
            if b0 == error_block:
                raise RuntimeError("kernel failure in block")
            if b0 == fail_block:
                return None
            return real(centers32, b0, *rest)

        monkeypatch.setattr(mixture, "_mc_block_fast", fast)
        return threads

    def pooled(self, monkeypatch, mix, workers):
        monkeypatch.setattr(mixture, "_worker_count", lambda: workers)
        est = plugin_entropy_mc(mix, self.N_MC, self.SEED)
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

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_safe_fallback_of_one_block(self, monkeypatch, workers):
        mix = self.mix(3)
        safe_blocks = []
        real_safe = mixture._mc_block_safe

        def safe(centers32, b0, *rest):
            safe_blocks.append(b0)
            return real_safe(centers32, b0, *rest)

        monkeypatch.setattr(mixture, "_mc_block_safe", safe)
        self.record_threads(monkeypatch, fail_block=40)
        got = self.pooled(monkeypatch, mix, workers)
        assert safe_blocks == [40]
        assert got == serial_reference(mix, self.N_MC, self.SEED)
        assert safe_blocks == [40, 40]

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
        # d = 5 at n_mc = 100: 100 * 512 * 6 multiply-adds per center, over 2**18
        threads = self.record_threads(monkeypatch)
        rng = np.random.default_rng(305)
        mix = IsotropicMixture(SampleMatrix(rng.standard_normal((5, 45))), 0.3)
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

    def test_center_count_cap(self):
        mix = IsotropicMixture(SampleMatrix(np.zeros((1, 201))), 1.0)
        with pytest.raises(Unsupported):
            plugin_entropy_quadrature(mix)
