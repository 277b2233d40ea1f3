"""Projection estimator, dimension correction, Gaussian oracle, error bound."""

import math
from dataclasses import replace
from decimal import Decimal, getcontext

import numpy as np
import pytest

from smoothent import (
    BoundInputs,
    DegenerateGap,
    EstimatorConfig,
    InsufficientData,
    InvalidConfig,
    InvalidData,
    IsotropicMixture,
    SampleMatrix,
    derive_seed,
    dimension_correction,
    fit_pca,
    gaussian_smoothed_entropy_oracle,
    pca_smoothed_entropy,
    plugin_entropy_mc,
    project,
    substream,
    pca_error_bound,
)
from smoothent.estimator import _MC_TAG, _SPLIT_TAG

HALF_LN_2PI_E = 1.4189385332046727


def decimal_bound(b: BoundInputs) -> float:
    """Independent high-precision evaluation of the one-term error bound."""
    getcontext().prec = 50
    m = Decimal(repr(b.second_moment))
    residual = Decimal(repr(b.residual))
    gap = Decimal(repr(b.eigen_gap))
    sigma = Decimal(repr(b.sigma))
    n = Decimal(b.n)
    front = (3 * (Decimal(b.ambient_dim) * sigma**2 + m).sqrt() + 4 * m.sqrt()) / sigma**2
    tail = residual.sqrt() + (2 * m * m.sqrt() / gap) / n.sqrt()
    return float(front * tail)


class TestDimensionCorrection:
    def test_no_deleted_dimensions(self):
        assert dimension_correction(7, 7, 0.3) == 0.0

    def test_reference_value(self):
        assert dimension_correction(100, 3, 0.1) == pytest.approx(
            -85.71371629956919, rel=1e-12
        )

    def test_unit_log_argument(self):
        sigma = (2 * math.pi * math.e) ** -0.5
        assert dimension_correction(50, 2, sigma) == pytest.approx(0.0, abs=1e-12)

    def test_telescoping(self):
        # associativity noise only: exact in real arithmetic
        for (big, mid, small, sigma) in [(100, 10, 3, 0.1), (12, 7, 1, 2.5), (9, 9, 4, 0.7)]:
            lhs = dimension_correction(big, mid, sigma) + dimension_correction(mid, small, sigma)
            rhs = dimension_correction(big, small, sigma)
            assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)

    def test_rejects_bad_dims(self):
        with pytest.raises(InvalidConfig):
            dimension_correction(3, 4, 0.1)
        with pytest.raises(InvalidConfig):
            dimension_correction(3, 0, 0.1)
        with pytest.raises(InvalidConfig):
            dimension_correction(3, 2, 0.0)


class TestGaussianOracle:
    def test_point_mass(self):
        assert gaussian_smoothed_entropy_oracle(np.zeros((1, 1)), 1.0) == pytest.approx(
            HALF_LN_2PI_E, rel=1e-12
        )

    def test_embedded_spectrum(self):
        cov = np.diag(np.concatenate([np.ones(3), np.full(97, 0.01)]))
        assert gaussian_smoothed_entropy_oracle(cov, 0.1) == pytest.approx(
            -47.82433694651806, rel=1e-10
        )

    def test_monotone_in_sigma(self):
        cov = np.eye(4)
        values = [gaussian_smoothed_entropy_oracle(cov, s) for s in (0.1, 0.5, 1.0, 2.0)]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_rejects_indefinite(self):
        with pytest.raises(InvalidData):
            gaussian_smoothed_entropy_oracle(np.diag([1.0, -0.5]), 1.0)

    @pytest.mark.parametrize("sigma", [0.0, -1.0, math.nan, math.inf])
    def test_rejects_a_bad_sigma(self, sigma):
        with pytest.raises(InvalidConfig, match="sigma must be a positive real"):
            gaussian_smoothed_entropy_oracle(np.eye(2), sigma)


class TestSplitPolicies:
    def test_half_needs_two_samples(self):
        config = EstimatorConfig(sigma=0.5, target_dim=1)
        with pytest.raises(InsufficientData):
            pca_smoothed_entropy(SampleMatrix(np.ones((1, 1))), config)

    def test_target_dim_cannot_exceed_ambient(self):
        config = EstimatorConfig(sigma=0.5, target_dim=5)
        with pytest.raises(InvalidConfig):
            pca_smoothed_entropy(SampleMatrix(np.ones((2, 10))), config)

    def test_odd_count_gives_extra_sample_to_fit(self):
        rng = np.random.default_rng(30)
        sm = SampleMatrix(rng.standard_normal((2, 11)))
        config = EstimatorConfig(sigma=0.5, target_dim=2, n_mc=10, seed=1)
        result = pca_smoothed_entropy(sm, config)
        assert result.plugin.n_centers == 5  # floor(11/2) to the entropy side

    def test_reuse_uses_all_samples(self):
        rng = np.random.default_rng(31)
        sm = SampleMatrix(rng.standard_normal((2, 9)))
        config = EstimatorConfig(sigma=0.5, target_dim=2, n_mc=10, split="reuse")
        assert pca_smoothed_entropy(sm, config).plugin.n_centers == 9

    def test_config_validation(self):
        with pytest.raises(InvalidConfig):
            EstimatorConfig(sigma=-1.0, target_dim=1)
        with pytest.raises(InvalidConfig):
            EstimatorConfig(sigma=1.0, target_dim=0)
        with pytest.raises(InvalidConfig):
            EstimatorConfig(sigma=1.0, target_dim=1, n_mc=0)
        with pytest.raises(InvalidConfig):
            EstimatorConfig(sigma=1.0, target_dim=1, split="bogus")


class TestPcaSmoothedEntropy:
    def test_decomposition_identity_bitwise(self):
        rng = np.random.default_rng(33)
        sm = SampleMatrix(rng.standard_normal((4, 50)))
        result = pca_smoothed_entropy(SampleMatrix(sm.data), EstimatorConfig(sigma=0.4, target_dim=2, seed=3))
        assert result.value == result.plugin.value + result.correction

    @pytest.mark.parametrize("split", ["half", "reuse"])
    @pytest.mark.parametrize("center", [True, False])
    @pytest.mark.parametrize("dim,n", [(60, 40), (6, 80)], ids=["gram", "covariance"])
    def test_matches_reference_composition_bitwise(self, dim, n, center, split):
        # reference: fit on a copied selection of the fit columns, project a
        # copied selection of the rest, run the plug-in, with the seeds the
        # estimator derives from config.seed
        rng = np.random.default_rng(dim + n)
        sm = SampleMatrix(rng.standard_normal((dim, n)) * np.linspace(3.0, 0.2, dim)[:, None] + 1.5)
        config = EstimatorConfig(sigma=0.4, target_dim=3, n_mc=20, seed=9, split=split, center=center)
        result = pca_smoothed_entropy(sm, config)

        if split == "reuse":
            fit_part = eval_part = sm
        else:
            perm = substream(config.seed, _SPLIT_TAG).permutation(n)
            n_fit = (n + 1) // 2
            fit_part = SampleMatrix(sm.data[:, perm[:n_fit]])
            eval_part = SampleMatrix(sm.data[:, perm[n_fit:]])
        model = fit_pca(fit_part, 3, center=center)
        mixture = IsotropicMixture(project(eval_part, model), 0.4)
        plugin = plugin_entropy_mc(mixture, 20, derive_seed(config.seed, _MC_TAG))
        reference = plugin.value + dimension_correction(dim, 3, 0.4)

        assert result.value.hex() == reference.hex()
        assert result.mc_std_error.hex() == plugin.mc_std_error.hex()
        for name in ("spectrum", "basis", "mean"):
            assert getattr(result.pca, name).tobytes() == getattr(model, name).tobytes(), name
        if dim > fit_part.count:  # the Gram route stores exact zeros past n
            assert not np.any(result.pca.spectrum[fit_part.count :])

    def test_rank_d_subspace_is_lossless(self):
        # data confined to the first 2 coordinates: projecting loses nothing,
        # so the reuse estimate equals the 2-d plug-in on all 400 centered raw
        # coordinates plus the correction, up to MC noise (different draws,
        # rotated basis)
        rng = np.random.default_rng(34)
        ambient = np.zeros((6, 400))
        ambient[:2] = rng.standard_normal((2, 400))
        sm = SampleMatrix(ambient)
        config = EstimatorConfig(sigma=0.3, target_dim=2, n_mc=3000, seed=7, split="reuse")
        result = pca_smoothed_entropy(sm, config)

        coords = ambient[:2] - ambient[:2].mean(axis=1, keepdims=True)
        raw = plugin_entropy_mc(IsotropicMixture(SampleMatrix(coords), 0.3), 3000, seed=123)
        correction = dimension_correction(6, 2, 0.3)
        tolerance = 3 * (result.mc_std_error + raw.mc_std_error)
        assert abs(result.value - (raw.value + correction)) <= tolerance

    def test_full_dim_reuse_matches_plain_plugin(self):
        # d = D: the projection is a pure rotation and the correction is 0;
        # smoothed entropy is rotation invariant, so the value matches the
        # plug-in on the raw samples within MC noise
        rng = np.random.default_rng(35)
        data = rng.standard_normal((2, 300))
        config = EstimatorConfig(sigma=0.5, target_dim=2, n_mc=2000, seed=11, split="reuse")
        result = pca_smoothed_entropy(SampleMatrix(data), config)
        assert result.correction == 0.0
        centered = data - data.mean(axis=1, keepdims=True)
        raw = plugin_entropy_mc(IsotropicMixture(SampleMatrix(centered), 0.5), 2000, seed=77)
        assert abs(result.value - raw.value) <= 3 * (result.mc_std_error + raw.mc_std_error)

    def test_embedded_gaussian_accuracy_light(self):
        rng = np.random.default_rng(36)
        variances = np.concatenate([np.ones(3), np.full(97, 0.01)])
        draws = rng.standard_normal((100, 4000)) * np.sqrt(variances)[:, None]
        config = EstimatorConfig(sigma=0.1, target_dim=3, n_mc=100, seed=5)
        result = pca_smoothed_entropy(SampleMatrix(draws), config)
        reference = gaussian_smoothed_entropy_oracle(np.eye(3), 0.1) + dimension_correction(
            100, 3, 0.1
        )
        assert reference == pytest.approx(-81.44197520367541, rel=1e-12)
        assert abs(result.value - reference) < 0.8

    def test_diagnostics_exposed(self):
        rng = np.random.default_rng(37)
        sm = SampleMatrix(rng.standard_normal((5, 120)) * np.array([3, 2, 1, 0.1, 0.1])[:, None])
        result = pca_smoothed_entropy(sm, EstimatorConfig(sigma=0.5, target_dim=3, seed=2))
        assert result.pca.eigen_gap > 0
        assert result.pca.residual > 0
        assert result.pca.spectrum.shape == (5,)

    @pytest.mark.slow
    def test_rank_d_losslessness_trend(self):
        # exact rank-3 Gaussian data: the ambient-population oracle equals the
        # projected oracle plus the correction, and the median estimation
        # error must fall as n grows
        rng = np.random.default_rng(40)
        basis = np.linalg.qr(rng.standard_normal((20, 3)))[0]
        latent_cov = np.diag([3.0, 2.0, 1.0])
        population = basis @ latent_cov @ basis.T
        sigma = 0.3
        reference = gaussian_smoothed_entropy_oracle(population, sigma)
        medians = []
        for n in (100, 1000, 10_000):
            errors = []
            for seed in range(10):
                latent = substream(5000 + seed, n).standard_normal((3, 2 * n))
                data = basis @ (np.sqrt(np.diag(latent_cov))[:, None] * latent)
                config = EstimatorConfig(sigma=sigma, target_dim=3, n_mc=50, seed=seed)
                result = pca_smoothed_entropy(SampleMatrix(data), config)
                errors.append(abs(result.value - reference))
            medians.append(float(np.median(errors)))
        assert medians[0] > medians[1] > medians[2], medians

    def test_sandwich_bounds_on_population_oracles(self):
        # closed-form check: the entropy given up by the oracle projection
        # sits between the noise floor and the lambda_{d+1} Gaussian cap
        spectrum = np.array([4.0, 2.0, 1.0, 0.3, 0.2, 0.05])
        sigma = 0.4
        for d in (1, 2, 3, 4, 5):
            full = gaussian_smoothed_entropy_oracle(np.diag(spectrum), sigma)
            projected = gaussian_smoothed_entropy_oracle(np.diag(spectrum[:d]), sigma)
            gap = full - projected
            deleted = len(spectrum) - d
            low = 0.5 * deleted * math.log(2 * math.pi * math.e * sigma**2)
            high = 0.5 * deleted * math.log(2 * math.pi * math.e * (spectrum[d] + sigma**2))
            assert low - 1e-8 <= gap <= high + 1e-8


class TestSplitMemory:
    # Traced peak of one half-split call above its input.  Each stage holds
    # at most two half-sized arrays: the fit half (with the Gram or
    # covariance workspace), then the evaluation half and its centered copy
    # while projecting; the kernel's scratch (0.8x on the covariance shape)
    # comes after both are freed.  That is 1.03x the input on both shapes.
    # On the covariance shape, a centered copy of the fit half (1.16x), the
    # evaluation half held through the fit (1.31x) or through the kernel
    # (1.28x), or all of these (1.77x) exceed the bound, and so does a
    # transposed copy of the input (2.0x).
    @pytest.mark.parametrize(
        "dim,n,target_dim,n_mc", [(4000, 300, 3, 10), (300, 4000, 10, 50)], ids=["gram", "covariance"]
    )
    def test_peak_above_input(self, traced_peak, dim, n, target_dim, n_mc):
        sm = SampleMatrix.adopt(substream(12).standard_normal((n, dim)))
        config = EstimatorConfig(sigma=0.1, target_dim=target_dim, n_mc=n_mc, seed=5)
        _, peak = traced_peak(pca_smoothed_entropy, sm, config)
        assert peak < 1.1 * sm.data.nbytes, peak / sm.data.nbytes


class TestPcaErrorBound:
    def bound(self, **kw):
        base = dict(
            second_moment=3.97, residual=0.97, eigen_gap=0.495,
            ambient_dim=100, sigma=0.1, n=10**6,
        )
        base.update(kw)
        return BoundInputs(**base)

    def test_reference_value(self):
        # oracle: 50-digit decimal evaluation of the same closed form
        b = self.bound()
        assert pca_error_bound(b) == pytest.approx(1490.4921986036437, rel=1e-12)
        assert pca_error_bound(b) == pytest.approx(decimal_bound(b), rel=1e-10)

    def test_vanishes_without_residual_or_samples(self):
        b = self.bound(
            residual=0.0, n=10**16, second_moment=1.0, eigen_gap=0.5,
            ambient_dim=10, sigma=1.0,
        )
        assert pca_error_bound(b) <= 1e-6

    def test_sample_term_scales_as_inverse_sqrt(self):
        lo = pca_error_bound(self.bound(residual=0.0, n=50_000))
        hi = pca_error_bound(self.bound(residual=0.0, n=100_000))
        assert hi == pytest.approx(lo / math.sqrt(2), rel=1e-12)

    def test_degenerate_gap(self):
        with pytest.raises(DegenerateGap):
            pca_error_bound(self.bound(eigen_gap=0.0))

    def test_monotonicities(self):
        rng = np.random.default_rng(38)
        for _ in range(25):
            b = self.bound(
                second_moment=float(rng.uniform(0.5, 10)),
                residual=float(rng.uniform(0.0, 5)),
                eigen_gap=float(rng.uniform(0.05, 2)),
                sigma=float(rng.uniform(0.05, 2)),
                n=int(rng.integers(100, 10**6)),
            )
            base = pca_error_bound(b)
            assert pca_error_bound(replace(b, n=4 * b.n)) <= base
            assert pca_error_bound(replace(b, residual=b.residual + 1)) >= base
            assert pca_error_bound(replace(b, second_moment=b.second_moment * 2)) >= base
            assert pca_error_bound(replace(b, eigen_gap=b.eigen_gap * 2)) <= base

    def test_input_validation(self):
        with pytest.raises(InvalidConfig):
            self.bound(second_moment=0.0)
        with pytest.raises(InvalidConfig):
            self.bound(residual=-0.1)
        with pytest.raises(InvalidConfig, match="eigen_gap"):
            self.bound(eigen_gap=-0.1)
