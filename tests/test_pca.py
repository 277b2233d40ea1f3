"""Covariance, eigendecomposition and projection contracts."""

import numpy as np
import pytest

from smoothent import (
    InvalidConfig,
    InvalidData,
    PcaModel,
    SampleMatrix,
    Unsupported,
    compute_covariance,
    fit_pca,
    project,
    substream,
    symmetric_eigendecomposition,
)
from smoothent import pca

INV_SQRT2 = 0.7071067811865476


class TestSampleMatrix:
    def test_shape_and_accessors(self):
        sm = SampleMatrix(np.arange(6, dtype=float).reshape(2, 3))
        assert sm.dim == 2 and sm.count == 3

    def test_rejects_non_finite(self):
        with pytest.raises(InvalidData):
            SampleMatrix(np.array([[1.0, np.nan]]))
        with pytest.raises(InvalidData):
            SampleMatrix(np.array([[np.inf], [0.0]]))

    def test_rejects_wrong_rank(self):
        with pytest.raises(InvalidData):
            SampleMatrix(np.zeros(4))

    def test_data_is_immutable(self):
        sm = SampleMatrix(np.ones((2, 2)))
        with pytest.raises(ValueError):
            sm.data[0, 0] = 5.0

    def test_take_equals_fancy_index_bitwise(self):
        # reference: the constructor's own copy of a fancy-indexed selection
        sm = SampleMatrix(np.random.default_rng(1).standard_normal((7, 40)))
        for idx in (np.random.default_rng(2).permutation(40)[:23], [3, 3, -1, 0], [39]):
            taken = sm.take(idx)
            reference = SampleMatrix(sm.data[:, np.asarray(idx)])
            assert taken.data.shape == reference.data.shape
            assert taken.data.tobytes() == reference.data.tobytes()

    def test_take_rejects_empty_and_out_of_range(self):
        sm = SampleMatrix(np.ones((3, 5)))
        with pytest.raises(InvalidData):
            sm.take([])
        with pytest.raises(IndexError):
            sm.take([0, 5])
        with pytest.raises(IndexError):
            sm.take([-6])

    def test_adopt_freezes_a_fresh_array_in_place(self):
        fresh = np.random.default_rng(3).standard_normal((4, 6))
        sm = SampleMatrix.adopt(fresh)
        assert sm.data.base is fresh and not fresh.flags.writeable

    def test_adopt_copies_what_it_cannot_own(self):
        base = np.random.default_rng(4).standard_normal((4, 6))
        for arr in (base[:, ::2], base.T, base[:2], base.astype(np.float32)):
            sm = SampleMatrix.adopt(arr)
            assert not np.shares_memory(sm.data, arr)
            np.testing.assert_array_equal(sm.data.T, arr)
        assert base.flags.writeable

    def test_adopt_keeps_the_constructor_checks(self):
        with pytest.raises(InvalidData):
            SampleMatrix.adopt(np.array([[1.0, np.inf]]))
        with pytest.raises(InvalidData):
            SampleMatrix.adopt(np.zeros(3))
        with pytest.raises(InvalidData):
            SampleMatrix.adopt(np.zeros((2, 0)))


class TestComputeCovariance:
    def test_single_sample_uncentered(self):
        sm = SampleMatrix(np.array([[1.0], [0.0]]))
        np.testing.assert_array_equal(
            compute_covariance(sm, center=False), [[1.0, 0.0], [0.0, 0.0]]
        )

    def test_single_sample_centered_is_zero(self):
        sm = SampleMatrix(np.array([[3.7], [-1.2]]))
        np.testing.assert_array_equal(compute_covariance(sm, center=True), np.zeros((2, 2)))

    def test_law_of_large_numbers(self):
        # oracle: closed-form population covariance diag(4, 1)
        rng = np.random.default_rng(11)
        draws = rng.standard_normal((2, 100_000)) * np.array([[2.0], [1.0]])
        cov = compute_covariance(SampleMatrix(draws), center=True)
        np.testing.assert_allclose(cov, np.diag([4.0, 1.0]), atol=0.1)

    def test_sample_order_invariance(self):
        rng = np.random.default_rng(3)
        data = rng.standard_normal((4, 50))
        perm = rng.permutation(50)
        c1 = compute_covariance(SampleMatrix(data))
        c2 = compute_covariance(SampleMatrix(data[:, perm]))
        np.testing.assert_allclose(c1, c2, rtol=1e-12, atol=1e-14)

    def test_normalization_is_one_over_n(self):
        sm = SampleMatrix(np.array([[1.0, -1.0]]))
        np.testing.assert_allclose(compute_covariance(sm, center=True), [[1.0]])


class TestEigendecomposition:
    def test_identity(self):
        w, v = symmetric_eigendecomposition(np.eye(3))
        np.testing.assert_allclose(w, np.ones(3))
        np.testing.assert_allclose(v.T @ v, np.eye(3), atol=1e-12)
        lead = np.argmax(np.abs(v), axis=0)
        assert np.all(v[lead, np.arange(3)] >= 0)

    def test_diagonal(self):
        w, v = symmetric_eigendecomposition(np.diag([5.0, 2.0, 1.0]))
        np.testing.assert_allclose(w, [5.0, 2.0, 1.0])
        np.testing.assert_allclose(np.abs(v), np.eye(3), atol=1e-12)

    def test_two_by_two_closed_form(self):
        # characteristic polynomial of [[2,1],[1,2]]: eigenvalues 3, 1
        w, v = symmetric_eigendecomposition(np.array([[2.0, 1.0], [1.0, 2.0]]))
        np.testing.assert_allclose(w, [3.0, 1.0], atol=1e-12)
        np.testing.assert_allclose(v[:, 0], [INV_SQRT2, INV_SQRT2], atol=1e-12)
        np.testing.assert_allclose(v[:, 1], [INV_SQRT2, -INV_SQRT2], atol=1e-12)

    def test_residual_postcondition(self):
        rng = np.random.default_rng(7)
        a = rng.standard_normal((20, 20))
        a = a @ a.T
        w, v = symmetric_eigendecomposition(a)
        resid = np.linalg.norm(a @ v - v * w[None, :])
        assert resid <= 1e-8 * np.linalg.norm(a)

    def test_reconstruction(self):
        rng = np.random.default_rng(8)
        a = rng.standard_normal((12, 12))
        a = (a + a.T) / 2
        w, v = symmetric_eigendecomposition(a)
        np.testing.assert_allclose(
            (v * w[None, :]) @ v.T, a, atol=1e-8 * np.linalg.norm(a)
        )

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_rejected(self, value):
        with pytest.raises(InvalidData, match="non-finite"):
            symmetric_eigendecomposition(np.array([[1.0, 0.0], [0.0, value]]))

    def test_asymmetric_rejected(self):
        with pytest.raises(InvalidData):
            symmetric_eigendecomposition(np.array([[1.0, 2.0], [0.0, 1.0]]))

    def test_non_square_rejected(self):
        with pytest.raises(InvalidData):
            symmetric_eigendecomposition(np.zeros((2, 3)))

    def test_sign_convention_is_deterministic(self):
        rng = np.random.default_rng(9)
        a = rng.standard_normal((6, 6))
        a = a @ a.T
        _, v1 = symmetric_eigendecomposition(a)
        _, v2 = symmetric_eigendecomposition(a.copy())
        np.testing.assert_array_equal(v1, v2)

    @staticmethod
    def symmetrized_solve(a):
        """The decomposition of ``(a + a^T) / 2``, sorted and oriented as the library does."""
        w, v = np.linalg.eigh((a + a.T) * 0.5)
        order = np.argsort(-w, kind="stable")
        return w[order], pca._orient(v[:, order])

    @staticmethod
    def assert_same_bits(actual, expected):
        for a, e in zip(actual, expected):
            np.testing.assert_array_equal(a.view(np.uint64), e.view(np.uint64))

    @pytest.mark.parametrize("shape", [(40, 25), (25, 40), (300, 7)])
    def test_products_are_exactly_symmetric(self, shape):
        # numpy mirrors one triangle of x^T x and x x^T into the other, so the
        # Gram and covariance matrices reach eigh without a symmetrized copy.
        x = substream(31).standard_normal(shape)
        assert pca._is_symmetric(x.T @ x) and pca._is_symmetric(x @ x.T)

    def test_exactly_symmetric_input_has_the_symmetrized_bits(self):
        x = substream(32).standard_normal((60, 45))
        for a in (x.T @ x, x @ x.T / 45, np.diag(np.arange(5.0))):
            self.assert_same_bits(symmetric_eigendecomposition(a), self.symmetrized_solve(a))

    def test_near_symmetric_input_is_symmetrized(self):
        x = substream(33).standard_normal((30, 20))
        a = x.T @ x
        a[0, 1] += 1e-12 * np.max(np.abs(a))
        assert not pca._is_symmetric(a)
        self.assert_same_bits(symmetric_eigendecomposition(a), self.symmetrized_solve(a))
        a[0, 1] += 1e-9 * np.max(np.abs(a))
        with pytest.raises(InvalidData, match="not symmetric"):
            symmetric_eigendecomposition(a)

    def test_no_symmetrized_copy_is_traced(self, traced_peak):
        # Traced arrays: the solver's eigenvectors and their reordered copy
        # (2.0x the matrix); a symmetrized copy made 3.0x.
        x = substream(34).standard_normal((350, 300))
        a = x.T @ x
        _, peak = traced_peak(symmetric_eigendecomposition, a)
        assert peak < 2.5 * a.nbytes, peak / a.nbytes


class TestFitPca:
    def test_rank_d_data_zero_residual(self):
        rng = np.random.default_rng(5)
        data = np.zeros((6, 40))
        data[:2] = rng.standard_normal((2, 40))
        model = fit_pca(SampleMatrix(data), 2)
        assert model.residual <= 1e-10

    def test_full_dim_residual_exactly_zero(self):
        rng = np.random.default_rng(6)
        sm = SampleMatrix(rng.standard_normal((4, 30)))
        model = fit_pca(sm, 4)
        assert model.residual == 0.0
        assert model.eigen_gap == 0.5 * np.maximum(model.spectrum[-1], 0.0)

    def test_embedded_gaussian_eigen_gap(self):
        # oracle: population spectrum (1,1,1,0.01,...) -> gap 0.5*(1-0.01)=0.495
        rng = np.random.default_rng(12)
        variances = np.concatenate([np.ones(3), np.full(97, 0.01)])
        draws = rng.standard_normal((100, 10_000)) * np.sqrt(variances)[:, None]
        model = fit_pca(SampleMatrix(draws), 3)
        assert abs(model.eigen_gap - 0.495) < 0.05

    def test_target_dim_out_of_range(self):
        sm = SampleMatrix(np.ones((3, 5)))
        with pytest.raises(InvalidConfig):
            fit_pca(sm, 4)
        with pytest.raises(InvalidConfig):
            fit_pca(sm, 0)

    @pytest.mark.parametrize("dim", [1, 4], ids=["covariance", "gram"])
    def test_centering_overflow_is_invalid_data(self, dim):
        # the mean is finite, but x - mean overflows to -inf in the middle sample
        sm = SampleMatrix(np.tile([1.5e308, -1.5e308, 1.5e308], (dim, 1)))
        with pytest.raises(InvalidData):
            fit_pca(sm, 1)

    def test_mean_recorded_only_when_centering(self):
        sm = SampleMatrix(np.array([[1.0, 3.0], [2.0, 4.0]]))
        centered = fit_pca(sm, 1, center=True)
        np.testing.assert_allclose(centered.mean, [2.0, 3.0])
        raw = fit_pca(sm, 1, center=False)
        np.testing.assert_array_equal(raw.mean, np.zeros(2))


class TestPcaModel:
    def test_dimensions_follow_the_basis(self):
        model = PcaModel(np.eye(5)[:, :2], np.arange(5, 0, -1, dtype=float), np.zeros(5))
        assert (model.ambient_dim, model.target_dim) == (5, 2)
        assert model.eigen_gap == 0.5 and model.residual == 6.0

    @pytest.mark.parametrize(
        "basis", [np.eye(3)[:, :0], np.eye(3, 4), np.ones(3)], ids=["no-columns", "wide", "1-d"]
    )
    def test_rejects_a_basis_that_is_not_tall(self, basis):
        with pytest.raises(InvalidData, match="basis must be"):
            PcaModel(basis, np.ones(3), np.zeros(3))

    @pytest.mark.parametrize(
        "basis, spectrum, mean, message",
        [
            (np.eye(3)[:, :1], np.ones(2), np.zeros(3), "must both have length"),
            (np.eye(3)[:, :1], np.ones(3), np.zeros(4), "must both have length"),
            (2.0 * np.eye(3)[:, :1], np.ones(3), np.zeros(3), "not orthonormal"),
            (np.eye(3)[:, :1], np.array([1.0, 2.0, 0.0]), np.zeros(3), "not sorted"),
            (np.eye(3)[:, :1], np.array([1.0, 0.0, -1e-6]), np.zeros(3), "significantly negative"),
        ],
        ids=["short-spectrum", "long-mean", "not-orthonormal", "unsorted", "negative"],
    )
    def test_rejects_an_inconsistent_model(self, basis, spectrum, mean, message):
        with pytest.raises(InvalidData, match=message):
            PcaModel(basis, spectrum, mean)


class TestProject:
    def test_identity_basis_picks_leading_coordinates(self):
        from smoothent import PcaModel

        rng = np.random.default_rng(2)
        data = rng.standard_normal((5, 20))
        model = PcaModel(
            basis=np.eye(5)[:, :2],
            spectrum=np.arange(5, 0, -1, dtype=float),
            mean=np.zeros(5),
        )
        out = project(SampleMatrix(data), model)
        np.testing.assert_array_equal(out.data, data[:2])

    def test_projection_is_contraction(self):
        rng = np.random.default_rng(4)
        sm = SampleMatrix(rng.standard_normal((6, 50)))
        model = fit_pca(sm, 3)
        projected = project(sm, model)
        centered = sm.data - model.mean[:, None]
        assert np.all(
            np.sum(projected.data**2, axis=0) <= np.sum(centered**2, axis=0) + 1e-12
        )

    def test_rank_d_projection_preserves_variance(self):
        # oracle: direct trace computation on rank-d data
        rng = np.random.default_rng(13)
        basis = np.linalg.qr(rng.standard_normal((7, 3)))[0]
        latent = rng.standard_normal((3, 200))
        sm = SampleMatrix(basis @ latent)
        model = fit_pca(sm, 3)
        ambient_trace = np.trace(compute_covariance(sm))
        projected_trace = np.trace(compute_covariance(project(sm, model)))
        assert abs(ambient_trace - projected_trace) <= 1e-8 * ambient_trace

    def test_dimension_mismatch(self):
        rng = np.random.default_rng(1)
        model = fit_pca(SampleMatrix(rng.standard_normal((4, 10))), 2)
        with pytest.raises(InvalidData):
            project(SampleMatrix(rng.standard_normal((5, 10))), model)

    @pytest.mark.parametrize("mean", [0.0, -1e308], ids=["product", "shift"])
    def test_overflow_is_invalid_data(self, mean):
        # finite samples whose shifted coordinates or projection exceed float64
        model = PcaModel(np.full((2, 1), np.sqrt(0.5)), np.array([2.0, 0.0]), np.full(2, mean))
        with pytest.raises(InvalidData, match="non-finite"):
            project(SampleMatrix(np.full((2, 3), 1.5e308)), model)


class TestInvariants:
    def test_hyperplane_projection_idempotent(self):
        rng = np.random.default_rng(21)
        sm = SampleMatrix(rng.standard_normal((8, 60)))
        model = fit_pca(sm, 3)
        p = model.basis @ model.basis.T
        x = rng.standard_normal((8, 9))
        np.testing.assert_allclose(p @ (p @ x), p @ x, atol=1e-10)

    def test_rotation_invariance_of_spectrum(self):
        rng = np.random.default_rng(22)
        data = rng.standard_normal((6, 300)) * np.linspace(2, 0.1, 6)[:, None]
        rotation = np.linalg.qr(rng.standard_normal((6, 6)))[0]
        s1 = fit_pca(SampleMatrix(data), 2).spectrum
        s2 = fit_pca(SampleMatrix(rotation @ data), 2).spectrum
        np.testing.assert_allclose(s1, s2, atol=1e-8)

    def test_negative_roundoff_eigenvalues_clamped(self):
        # rank-1 data in 3 dims: two eigenvalues are zero up to roundoff
        direction = np.array([[1.0], [2.0], [3.0]])
        data = direction @ np.random.default_rng(23).standard_normal((1, 50))
        model = fit_pca(SampleMatrix(data), 1)
        assert model.residual >= 0.0
        assert model.eigen_gap >= 0.0


def dense_fit(sm, target_dim, center=True):
    """The covariance route, called directly: spectrum and top basis."""
    w, v = symmetric_eigendecomposition(compute_covariance(sm, center=center))
    return w, v[:, :target_dim]


@pytest.fixture
def covariance_calls(monkeypatch):
    """Count ``fit_pca``'s calls of the covariance route."""
    import smoothent.pca as pca

    calls = []
    real = pca.compute_covariance

    def counted(samples, center=True):
        calls.append(samples.count)
        return real(samples, center)

    monkeypatch.setattr(pca, "compute_covariance", counted)
    return calls


class TestGramRoute:
    # n < D: the fit decomposes the n x n Gram matrix
    @staticmethod
    def wide(dim, n, seed, shift=0.0):
        rng = np.random.default_rng(seed)
        scales = np.concatenate([[3.0, 2.0, 1.5, 1.0], np.full(dim - 4, 0.1)])
        return SampleMatrix(rng.standard_normal((dim, n)) * scales[:, None] + shift)

    @pytest.mark.parametrize("center", [True, False])
    @pytest.mark.parametrize("dim,n,target_dim", [(50, 12, 3), (300, 120, 4), (80, 79, 1)])
    def test_matches_covariance_route(self, covariance_calls, dim, n, target_dim, center):
        sm = self.wide(dim, n, seed=dim + n, shift=0.5)
        model = fit_pca(sm, target_dim, center=center)
        assert covariance_calls == []
        w, basis = dense_fit(sm, target_dim, center)
        scale = w[0]
        assert np.max(np.abs(model.spectrum - w)) <= 1e-10 * scale
        np.testing.assert_array_equal(model.spectrum[n:], 0.0)
        sin_theta = np.linalg.norm(basis - model.basis @ (model.basis.T @ basis), 2)
        assert sin_theta < 1e-8
        dense = PcaModel(basis, w, model.mean)
        assert model.eigen_gap == pytest.approx(dense.eigen_gap, rel=1e-10, abs=1e-12 * scale)
        assert model.residual == pytest.approx(dense.residual, rel=1e-10, abs=1e-12 * scale)

    def test_sign_convention_in_ambient_space(self):
        sm = self.wide(40, 15, seed=3, shift=-2.0)
        model = fit_pca(sm, 4, center=False)
        lead = np.argmax(np.abs(model.basis), axis=0)
        assert np.all(model.basis[lead, np.arange(4)] > 0)
        _, basis = dense_fit(sm, 4, center=False)
        np.testing.assert_allclose(model.basis, basis, atol=1e-10)

    @pytest.mark.parametrize("n,gram", [(29, True), (30, False)])
    def test_route_boundary(self, covariance_calls, n, gram):
        sm = self.wide(30, n, seed=7)
        model = fit_pca(sm, 3)
        assert covariance_calls == ([] if gram else [n])
        w, basis = dense_fit(sm, 3)
        if gram:
            np.testing.assert_allclose(model.spectrum, w, rtol=0, atol=1e-10 * w[0])
            np.testing.assert_allclose(model.basis, basis, atol=1e-10)
        else:
            np.testing.assert_array_equal(model.spectrum, w)
            np.testing.assert_array_equal(model.basis, basis)

    def test_target_dim_above_n_falls_back(self, covariance_calls):
        sm = self.wide(20, 4, seed=8)
        model = fit_pca(sm, 6)
        assert covariance_calls == [4]
        w, basis = dense_fit(sm, 6)
        np.testing.assert_array_equal(model.spectrum, w)
        np.testing.assert_array_equal(model.basis, basis)
        np.testing.assert_allclose(model.basis.T @ model.basis, np.eye(6), atol=1e-12)

    def test_duplicated_samples_fall_back(self, covariance_calls):
        # 5 distinct samples, each twice: the centered Gram matrix has rank 4,
        # so lambda_5 is roundoff and the mapped basis would not be orthonormal
        base = self.wide(40, 5, seed=9).data
        sm = SampleMatrix(np.repeat(base, 2, axis=1))
        model = fit_pca(sm, 5)
        assert covariance_calls == [10]
        w, basis = dense_fit(sm, 5)
        np.testing.assert_array_equal(model.basis, basis)
        np.testing.assert_allclose(model.basis.T @ model.basis, np.eye(5), atol=1e-12)


class TestWorkspaceLimit:
    # (dim, count, target_dim): the half split's Gram shape, a covariance
    # forced by target_dim > count, and the n >= D covariance.
    @pytest.mark.parametrize(
        "dim,n,target_dim,kind,size",
        [(50, 10, 3, "Gram", 10), (50, 10, 15, "covariance", 50), (5, 40, 2, "covariance", 5)],
    )
    def test_fit_refuses_a_matrix_above_the_limit(self, monkeypatch, dim, n, target_dim, kind, size):
        sm = SampleMatrix(substream(35).standard_normal((dim, n)))
        monkeypatch.setattr(pca, "_WORKSPACE_LIMIT", 8 * size * size - 1)
        message = (
            f"the {kind} matrix of {n} samples in {dim} dimensions is {size} x {size}, "
            f"{8 * size * size} bytes, above the PCA fit's limit of {8 * size * size - 1} bytes"
        )
        with pytest.raises(Unsupported) as info:
            fit_pca(sm, target_dim)
        assert str(info.value) == message
        monkeypatch.setattr(pca, "_WORKSPACE_LIMIT", 8 * size * size)
        assert fit_pca(sm, target_dim).basis.shape == (dim, target_dim)

    def test_compute_covariance_refuses_a_matrix_above_the_limit(self, monkeypatch):
        monkeypatch.setattr(pca, "_WORKSPACE_LIMIT", 8 * 7 * 7 - 1)
        with pytest.raises(Unsupported, match="covariance matrix of 30 samples in 7 dimensions"):
            compute_covariance(SampleMatrix(substream(36).standard_normal((7, 30))))
