"""Conditional- and joint-sampling mutual information estimators."""

import math

import numpy as np
import pytest

from smoothent import (
    ConditionalDataset,
    EstimatorConfig,
    InsufficientData,
    InvalidData,
    IsotropicMixture,
    JointDataset,
    SampleMatrix,
    conditional_mi,
    gen_common_signal_pair,
    ingest_activation_dump,
    joint_mi,
    plugin_entropy_quadrature,
    substream,
)
from smoothent.io import write_activation_dump
from smoothent.mi import conditional_entropy

# Binary entropy H(0.9, 0.1): the MI of two well-separated conditions
# holding 90% and 10% of the rows.
H_90_10 = -(0.9 * math.log(0.9) + 0.1 * math.log(0.1))


def two_point_mass_dataset(mu1=-3.0, mu2=3.0, n=100):
    return ConditionalDataset(
        conditions=(0, 1),
        samples=(
            SampleMatrix(np.full((1, n), mu1)),
            SampleMatrix(np.full((1, n), mu2)),
        ),
    )


def ragged_dataset(seed=2):
    """Two 2-d conditions 100 apart: 900 tight samples and 100 wide ones."""
    rng = substream(seed)
    return ConditionalDataset(
        conditions=(0, 1),
        samples=(
            SampleMatrix(0.1 * rng.standard_normal((2, 900))),
            SampleMatrix(100.0 + rng.standard_normal((2, 100))),
        ),
    )


class TestDatasets:
    def test_conditional_requires_matching_dims(self):
        with pytest.raises(InvalidData):
            ConditionalDataset(
                conditions=(0, 1),
                samples=(SampleMatrix(np.ones((2, 3))), SampleMatrix(np.ones((3, 3)))),
            )

    @pytest.mark.parametrize("conditions, count", [((), 0), ((0, 1), 1)], ids=["empty", "mismatched"])
    def test_conditional_requires_one_matrix_per_condition(self, conditions, count):
        with pytest.raises(InvalidData, match="one sample matrix per condition"):
            ConditionalDataset(conditions=conditions, samples=(SampleMatrix(np.ones((2, 3))),) * count)

    def test_joint_requires_pairing(self):
        with pytest.raises(InvalidData):
            JointDataset(x=SampleMatrix(np.ones((2, 4))), y=SampleMatrix(np.ones((2, 5))))

    def test_joint_allows_unequal_dims(self):
        data = JointDataset(x=SampleMatrix(np.ones((2, 4))), y=SampleMatrix(np.ones((3, 4))))
        assert data.count == 4


class TestConditionalMi:
    def test_independent_conditions_give_zero(self):
        rng = substream(60)
        conds = tuple(SampleMatrix(rng.standard_normal((2, 200))) for _ in range(3))
        marginal = SampleMatrix(rng.standard_normal((2, 200)))
        dataset = ConditionalDataset(conditions=(0, 1, 2), samples=conds)
        config = EstimatorConfig(sigma=1.0, target_dim=2, n_mc=50, seed=8)
        estimate = conditional_mi(dataset, config, marginal=marginal)
        assert abs(estimate.value) <= 3 * estimate.std_error

    def test_two_separated_point_masses_recover_ln2(self):
        # oracle: 1-d quadrature of the two-mode mixture minus the noise term
        sigma = 0.1
        dataset = two_point_mass_dataset()
        config = EstimatorConfig(sigma=sigma, target_dim=1, n_mc=2000, seed=3)
        estimate = conditional_mi(dataset, config)
        marginal_mix = IsotropicMixture(SampleMatrix(np.array([[-3.0, 3.0]])), sigma)
        oracle = plugin_entropy_quadrature(marginal_mix) - 0.5 * math.log(
            2 * math.pi * math.e * sigma**2
        )
        assert oracle == pytest.approx(math.log(2), abs=1e-6)
        assert abs(estimate.value - oracle) <= max(3 * estimate.std_error, 0.05)

    def test_single_condition_is_uninformative(self):
        rng = substream(61)
        block = SampleMatrix(rng.standard_normal((2, 200)))
        dataset = ConditionalDataset(conditions=(0,), samples=(block,))
        config = EstimatorConfig(sigma=1.0, target_dim=2, n_mc=50, seed=8)
        estimate = conditional_mi(dataset, config, marginal=block)
        assert abs(estimate.value) <= 3 * estimate.std_error

    def test_component_identity(self):
        dataset = two_point_mass_dataset(n=10)
        config = EstimatorConfig(sigma=0.5, target_dim=1, n_mc=20, seed=1)
        estimate = conditional_mi(dataset, config)
        c = estimate.components
        assert list(c) == ["condition[0]", "condition[1]", "marginal"]
        total = 0.0
        for name in ("condition[0]", "condition[1]"):
            total += -0.5 * c[name].value
        assert estimate.value == total + c["marginal"].value
        assert conditional_entropy(estimate) == -total
        assert estimate.value == c["marginal"].value - conditional_entropy(estimate)

    def test_insufficient_per_condition_samples(self):
        dataset = ConditionalDataset(
            conditions=(0,), samples=(SampleMatrix(np.ones((1, 1))),)
        )
        config = EstimatorConfig(sigma=0.5, target_dim=1, seed=1)
        with pytest.raises(InsufficientData):
            conditional_mi(dataset, config, marginal=SampleMatrix(np.zeros((1, 50))))

    def test_marginal_dim_checked(self):
        dataset = two_point_mass_dataset(n=10)
        config = EstimatorConfig(sigma=0.5, target_dim=1, seed=1)
        with pytest.raises(InvalidData):
            conditional_mi(dataset, config, marginal=SampleMatrix(np.zeros((2, 50))))

    def test_ragged_groups_weighted_by_count(self):
        rng = substream(62)
        dataset = ConditionalDataset(
            conditions=(0, 1),
            samples=(
                SampleMatrix(rng.standard_normal((1, 30))),
                SampleMatrix(rng.standard_normal((1, 90))),
            ),
        )
        config = EstimatorConfig(sigma=1.0, target_dim=1, n_mc=20, seed=5)
        estimate = conditional_mi(dataset, config)
        # the default marginal is all 120 samples, half to the entropy side
        assert estimate.components["marginal"].plugin.n_centers == 60
        assert [t.weight for t in estimate.terms] == [-0.25, -0.75, 1.0]
        se = [t.result.mc_std_error for t in estimate.terms]
        expected = math.sqrt((0.25 * se[0]) ** 2 + (0.75 * se[1]) ** 2 + se[2] ** 2)
        assert estimate.std_error == pytest.approx(expected, rel=1e-12)

    def test_ragged_conditions_recover_binary_entropy(self):
        config = EstimatorConfig(sigma=0.1, target_dim=2, n_mc=50, seed=2)
        estimate = conditional_mi(ragged_dataset(), config)
        assert abs(estimate.value - H_90_10) <= 0.2

    def test_adding_condition_leaves_earlier_terms_untouched(self):
        rng = substream(63)
        blocks = [SampleMatrix(rng.standard_normal((1, 40))) for _ in range(3)]
        marginal = SampleMatrix(rng.standard_normal((1, 60)))
        config = EstimatorConfig(sigma=0.8, target_dim=1, n_mc=30, seed=9)
        small = conditional_mi(
            ConditionalDataset((0, 1), tuple(blocks[:2])), config, marginal=marginal
        )
        big = conditional_mi(
            ConditionalDataset((0, 1, 2), tuple(blocks)), config, marginal=marginal
        )
        for k in range(2):
            name = f"condition[{k}]"
            assert small.components[name].value == big.components[name].value


class TestJointMi:
    def test_null_pairs_give_zero(self):
        data, _ = gen_common_signal_pair(2, 6, 1000, 0.05, seed=0, dependent=False)
        config = EstimatorConfig(sigma=3.0, target_dim=2, n_mc=50, seed=100)
        estimate = joint_mi(data, config)
        assert abs(estimate.value) <= 3 * estimate.std_error

    def test_null_estimates_have_mean_zero_across_seeds(self):
        values = []
        for seed in range(10):
            data, _ = gen_common_signal_pair(2, 6, 1000, 0.05, seed=seed, dependent=False)
            config = EstimatorConfig(sigma=3.0, target_dim=2, n_mc=50, seed=seed + 100)
            values.append(joint_mi(data, config).value)
        values = np.array(values)
        assert abs(values.mean()) <= 3 * values.std(ddof=1) / math.sqrt(len(values))

    def test_dependent_pairs_significantly_positive(self):
        for seed in range(10):
            data, _ = gen_common_signal_pair(2, 6, 1000, 0.05, seed=seed, dependent=True)
            config = EstimatorConfig(sigma=1.0, target_dim=2, n_mc=50, seed=seed + 100)
            estimate = joint_mi(data, config)
            assert estimate.value > 3 * estimate.std_error

    def test_identical_pair_matches_gaussian_oracle(self):
        # oracle: 2 h1 - h2 with h1 = 0.5 ln(2 pi e 2), h2 from det [[2,1],[1,2]]
        rng = substream(64)
        x = rng.standard_normal((1, 4000))
        data = JointDataset(x=SampleMatrix(x), y=SampleMatrix(x.copy()))
        config = EstimatorConfig(sigma=1.0, target_dim=1, n_mc=200, seed=5)
        estimate = joint_mi(data, config)
        target = 0.5 * math.log(4.0 / 3.0)
        assert abs(estimate.value - target) <= max(3 * estimate.std_error, 0.05)

    def test_symmetry_within_mc_noise(self):
        data, _ = gen_common_signal_pair(2, 6, 800, 0.05, seed=3, dependent=True)
        config = EstimatorConfig(sigma=1.0, target_dim=2, n_mc=200, seed=55)
        forward = joint_mi(data, config)
        backward = joint_mi(JointDataset(x=data.y, y=data.x), config)
        tolerance = 3 * math.hypot(forward.std_error, backward.std_error)
        assert abs(forward.value - backward.value) <= tolerance

    def test_component_identity(self):
        data, _ = gen_common_signal_pair(1, 3, 60, 0.05, seed=4, dependent=True)
        config = EstimatorConfig(sigma=1.0, target_dim=1, n_mc=20, seed=6)
        estimate = joint_mi(data, config)
        c = estimate.components
        assert estimate.value == c["x"].value + c["y"].value - c["joint"].value

    def test_stacked_term_dimensions(self):
        data, _ = gen_common_signal_pair(2, 5, 80, 0.05, seed=7, dependent=True)
        config = EstimatorConfig(sigma=1.0, target_dim=2, n_mc=10, seed=2)
        estimate = joint_mi(data, config)
        assert estimate.components["joint"].pca.ambient_dim == 10
        assert estimate.components["joint"].pca.target_dim == 4


class TestActivationDump:
    def test_round_trip_two_conditions(self, tmp_path):
        rng = substream(65)
        blocks = [SampleMatrix(rng.standard_normal((4, 3))) for _ in range(2)]
        path = tmp_path / "dump.csv"
        write_activation_dump(path, [5, 9], blocks)
        dataset = ingest_activation_dump(path)
        assert dataset.conditions == (5, 9)
        assert dataset.n_conditions == 2
        assert all(block.count == 3 for block in dataset.samples)
        assert dataset.dim == 4
        np.testing.assert_array_equal(dataset.samples[0].data, blocks[0].data)
        np.testing.assert_array_equal(dataset.samples[1].data, blocks[1].data)

    def test_interleaved_rows_grouped_in_first_seen_order(self, tmp_path):
        path = tmp_path / "interleaved.csv"
        path.write_text("cond,f0\n7,1.0\n2,2.0\n\n7,3.0\n", encoding="utf-8")
        dataset = ingest_activation_dump(path)
        assert dataset.conditions == (7, 2)
        np.testing.assert_array_equal(dataset.samples[0].data, [[1.0, 3.0]])
        np.testing.assert_array_equal(dataset.samples[1].data, [[2.0]])

    def test_non_integer_condition_rejected(self, tmp_path):
        path = tmp_path / "frac.csv"
        path.write_text("cond,f0\n0,1.0\n0.5,2.0\n", encoding="utf-8")
        with pytest.raises(InvalidData, match="integers"):
            ingest_activation_dump(path)

    def test_unparseable_cell_names_its_line(self, tmp_path):
        path = tmp_path / "bad_cell.csv"
        path.write_text("cond,f0\n0,1.0\n1,oops\n", encoding="utf-8")
        with pytest.raises(InvalidData, match=r"bad_cell\.csv:3:"):
            ingest_activation_dump(path)

    def test_missing_condition_column(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("f0,f1\n1.0,2.0\n", encoding="utf-8")
        with pytest.raises(InvalidData):
            ingest_activation_dump(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("", encoding="utf-8")
        with pytest.raises(InvalidData):
            ingest_activation_dump(path)

    def test_header_only(self, tmp_path):
        path = tmp_path / "header.csv"
        path.write_text("cond,f0\n", encoding="utf-8")
        with pytest.raises(InvalidData):
            ingest_activation_dump(path)

    def test_ragged_row_rejected(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("cond,f0,f1\n0,1.0,2.0\n0,1.0\n", encoding="utf-8")
        with pytest.raises(InvalidData):
            ingest_activation_dump(path)

    def test_end_to_end_ln2_recovery(self, tmp_path):
        # dump written from the two-separated-conditions construction; the
        # ingested dataset must reproduce the quadrature-derived ln 2
        dataset = two_point_mass_dataset()
        path = tmp_path / "two_cond.csv"
        write_activation_dump(path, dataset.conditions, dataset.samples)
        loaded = ingest_activation_dump(path)
        config = EstimatorConfig(sigma=0.1, target_dim=1, n_mc=2000, seed=3)
        estimate = conditional_mi(loaded, config)
        assert abs(estimate.value - math.log(2)) <= max(3 * estimate.std_error, 0.05)
