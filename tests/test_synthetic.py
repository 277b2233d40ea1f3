"""Synthetic data generators: distributions, determinism, population params."""

import math

import numpy as np
import pytest

from smoothent import synthetic
from smoothent import InvalidConfig, SampleMatrix, fit_pca, gen_common_signal_pair, gen_embedded_gaussian, gen_spiral, substream
from smoothent.synthetic import spiral_intrinsic_dim


class TestEmbeddedGaussian:
    def test_population_spectrum(self):
        _, cov = gen_embedded_gaussian(3, 100, 0.01, 10, seed=0)
        np.testing.assert_array_equal(
            np.diag(cov), np.concatenate([np.ones(3), np.full(97, 0.01)])
        )

    def test_lambda_range_accepted(self):
        for lam in (0.01, 0.1, 0.3):
            samples, cov = gen_embedded_gaussian(3, 10, lam, 5, seed=1)
            assert samples.dim == 10
            assert np.diag(cov)[-1] == lam

    def test_sample_covariance_near_population(self):
        # oracle: the returned population matrix, operator-norm distance
        samples, cov = gen_embedded_gaussian(3, 30, 0.05, 100_000, seed=2)
        centered = samples.data - samples.data.mean(axis=1, keepdims=True)
        empirical = (centered @ centered.T) / samples.count
        assert np.linalg.norm(empirical - cov, 2) < 0.05

    def test_seed_determinism(self):
        a, _ = gen_embedded_gaussian(2, 5, 0.1, 50, seed=7)
        b, _ = gen_embedded_gaussian(2, 5, 0.1, 50, seed=7)
        np.testing.assert_array_equal(a.data, b.data)
        c, _ = gen_embedded_gaussian(2, 5, 0.1, 50, seed=8)
        assert not np.array_equal(a.data, c.data)

    def test_residual_recovery_invariant(self):
        # fitted residual within 20% of (D-d)*lambda_res in the median
        residuals = []
        for seed in range(10):
            samples, _ = gen_embedded_gaussian(3, 100, 0.01, 10_000, seed=seed)
            residuals.append(fit_pca(samples, 3).residual)
        target = 97 * 0.01
        assert abs(np.median(residuals) - target) < 0.2 * target

    def test_validation(self):
        with pytest.raises(InvalidConfig):
            gen_embedded_gaussian(5, 3, 0.1, 10, seed=0)
        for lambda_res in (-0.1, np.nan, np.inf):
            with pytest.raises(InvalidConfig, match="lambda_res must be positive"):
                gen_embedded_gaussian(2, 3, lambda_res, 10, seed=0)


@pytest.mark.parametrize("block_dims", [2, None], ids=["blocks-of-2", "default"])
def test_draws_keep_their_dimension_order(monkeypatch, block_dims):
    # reference: normals drawn as one (D, n) array, one dimension's n values
    # after another, whatever block of dimensions the generators draw at a time
    n = 30
    if block_dims is not None:
        monkeypatch.setattr(synthetic, "_DRAW_BYTES", 8 * n * block_dims)
    samples, _ = gen_embedded_gaussian(2, 7, 0.1, n, seed=5)
    scale = np.sqrt(np.array([1.0, 1.0] + [0.1] * 5))[:, None]
    np.testing.assert_array_equal(samples.data, substream(5).standard_normal((7, n)) * scale)

    rng = substream(6)
    theta = rng.uniform(0.0, 4.0 * math.pi, size=n)
    r = 0.5 + (4.0 - 0.5) * (theta / (4.0 * math.pi))
    z = rng.uniform(0.0, 4.0, size=n)
    tail = rng.standard_normal((4, n)) * 0.2
    expected = np.vstack([r * np.cos(theta), r * np.sin(theta), z, tail])
    np.testing.assert_array_equal(gen_spiral("cylindrical", 0.2, 7, n, seed=6).data, expected)

    for dependent in (True, False):
        rng = substream(7)
        p_x, p_y = rng.standard_normal((7, 2)), rng.standard_normal((7, 2))
        w = rng.standard_normal((2, n))
        n_x, n_y = rng.standard_normal((7, n)) * 0.05, rng.standard_normal((7, n)) * 0.05
        w_y = w if dependent else rng.standard_normal((2, n))
        pair, _ = gen_common_signal_pair(2, 7, n, 0.05, seed=7, dependent=dependent)
        np.testing.assert_array_equal(pair.x.data, p_x @ w + n_x)
        np.testing.assert_array_equal(pair.y.data, p_y @ w_y + n_y)


class TestSpirals:
    def test_intrinsic_dims(self):
        assert spiral_intrinsic_dim("spiral2d") == 2
        assert spiral_intrinsic_dim("conical") == 3
        assert spiral_intrinsic_dim("cylindrical") == 3

    def test_cylindrical_z_range(self):
        samples = gen_spiral("cylindrical", 0.01, 10, 100_000, seed=3)
        z = samples.data[2]
        assert z.min() >= 0.0 and z.max() <= 4.0

    def test_conical_height_equals_radius(self):
        samples = gen_spiral("conical", 0.01, 5, 1000, seed=4)
        radius = np.hypot(samples.data[0], samples.data[1])
        np.testing.assert_allclose(samples.data[2], radius, rtol=1e-12)

    def test_noise_block_std(self):
        # oracle: law of large numbers on the N(0, lambda_res^2) block
        lam = 0.07
        samples = gen_spiral("spiral2d", lam, 10, 100_000, seed=5)
        stds = samples.data[2:].std(axis=1)
        assert np.all(np.abs(stds - lam) < 0.1 * lam)

    def test_radius_range(self):
        samples = gen_spiral("spiral2d", 0.01, 2, 50_000, seed=7)
        radius = np.hypot(samples.data[0], samples.data[1])
        assert radius.min() >= 0.5 - 1e-9
        assert radius.max() <= 4.0 + 1e-9

    def test_ambient_dim_validated(self):
        with pytest.raises(InvalidConfig):
            gen_spiral("cylindrical", 0.01, 2, 10, seed=0)
        with pytest.raises(InvalidConfig):
            gen_spiral("nope", 0.01, 10, 10, seed=0)
        for lambda_res in (0.0, -0.1, np.nan, np.inf):
            with pytest.raises(InvalidConfig, match="lambda_res must be positive"):
                gen_spiral("spiral2d", lambda_res, 4, 10, seed=0)

    def test_seed_determinism(self):
        a = gen_spiral("conical", 0.05, 6, 40, seed=11)
        b = gen_spiral("conical", 0.05, 6, 40, seed=11)
        np.testing.assert_array_equal(a.data, b.data)


class TestCommonSignalPair:
    def test_benchmark_regime_shapes(self):
        data, dependent = gen_common_signal_pair(3, 100, 50, 0.01, seed=8)
        assert dependent is True
        assert data.x.dim == 100 and data.y.dim == 100 and data.count == 50

    def test_flag_records_independence(self):
        _, dependent = gen_common_signal_pair(3, 10, 5, 0.01, seed=9, dependent=False)
        assert dependent is False

    def test_cross_covariance_matches_population(self):
        # oracle: E[X Y^T] = P_x P_y^T, with P_x, P_y re-derived from the
        # documented draw order (P_x, P_y, W, N_x, N_y, [W'])
        d, D, n = 3, 30, 100_000
        seed = 10
        data, _ = gen_common_signal_pair(d, D, n, 0.01, seed=seed, dependent=True)
        rng = substream(seed)
        p_x = rng.standard_normal((D, d))
        p_y = rng.standard_normal((D, d))
        population = p_x @ p_y.T
        empirical = (data.x.data @ data.y.data.T) / n
        rel = np.linalg.norm(empirical - population) / np.linalg.norm(population)
        assert rel < 0.10

    def test_null_pairs_share_projections_not_signal(self):
        dep, _ = gen_common_signal_pair(2, 8, 2000, 0.01, seed=11, dependent=True)
        nul, _ = gen_common_signal_pair(2, 8, 2000, 0.01, seed=11, dependent=False)
        # same P and W draws: x identical, y decorrelated
        np.testing.assert_array_equal(dep.x.data, nul.x.data)
        assert not np.array_equal(dep.y.data, nul.y.data)

    def test_outputs_are_finite_sample_matrices(self):
        data, _ = gen_common_signal_pair(2, 5, 20, 0.5, seed=12)
        assert isinstance(data.x, SampleMatrix) and isinstance(data.y, SampleMatrix)

    def test_validation(self):
        with pytest.raises(InvalidConfig):
            gen_common_signal_pair(5, 3, 10, 0.1, seed=0)
        for noise_std in (0.0, np.nan, np.inf):
            with pytest.raises(InvalidConfig, match="noise_std must be positive"):
                gen_common_signal_pair(2, 3, 10, noise_std, seed=0)
