"""Sweep harness, AUC scoring and activation-MI trajectories."""

import math

import numpy as np
import pytest

from smoothent import (
    EstimatorConfig,
    InvalidConfig,
    SweepSpec,
    rank_auc,
    run_activation_mi,
    run_indep_auc,
    run_sweep,
)
from smoothent.experiments import (
    ACTIVATION_COLUMNS,
    read_sweep_csv,
    write_rows_csv,
    write_sweep_csv,
)
from smoothent.io import write_activation_dump
from smoothent.pca import SampleMatrix
from smoothent.rng import substream


def tiny_spec(**kw):
    base = dict(
        n_values=(60,), d_values=(2,), sigma_values=(0.3,), lambda_res_values=(0.01,),
        repeats=2, ambient_dim=8, n_mc=20, seed=5,
    )
    base.update(kw)
    return SweepSpec(**base)


class TestRunSweep:
    def test_single_cell_row_count(self):
        records = run_sweep(tiny_spec(repeats=3))
        assert len(records) == 3
        assert [r.repeat for r in records] == [0, 1, 2]

    def test_records_carry_diagnostics_and_reference(self):
        records = run_sweep(tiny_spec())
        for r in records:
            assert r.error == ""
            assert r.abs_error == abs(r.estimate - r.reference)
            assert r.eigen_gap is not None and r.residual is not None

    def test_deterministic_given_master_seed(self):
        a = run_sweep(tiny_spec())
        b = run_sweep(tiny_spec())
        assert a == b

    def test_canonical_row_order(self):
        spec = tiny_spec(n_values=(80, 40), sigma_values=(0.5, 0.2), repeats=1)
        records = run_sweep(spec)
        keys = [(r.kind, r.n, r.d, r.sigma, r.lambda_res, r.repeat) for r in records]
        assert keys == sorted(keys)

    def test_cell_content_addressing(self):
        # extending an axis must not change existing cells' results
        small = run_sweep(tiny_spec(n_values=(60,)))
        big = run_sweep(tiny_spec(n_values=(40, 60)))
        kept = [r for r in big if r.n == 60]
        assert kept == small

    def test_failed_cells_become_error_rows(self):
        spec = tiny_spec(d_values=(2, 99), repeats=1)  # d=99 > ambient 8
        records = run_sweep(spec)
        failed = [r for r in records if r.error]
        good = [r for r in records if not r.error]
        assert len(failed) == 1 and len(good) == 1
        assert "InvalidConfig" in failed[0].error
        assert failed[0].estimate is None

    def test_spiral_cells_with_self_consistency(self):
        spec = tiny_spec(
            kinds=("spiral2d",), d_values=(2,), reference="self-consistency",
            repeats=2,
        )
        records = run_sweep(spec)
        assert all(r.reference is not None for r in records)
        # all repeats of a cell share one reference run
        assert len({r.reference for r in records}) == 1

    def test_self_consistency_reference_at_largest_n(self):
        def reference(n_values):
            spec = tiny_spec(n_values=n_values, reference="self-consistency", repeats=1)
            return [r.reference for r in run_sweep(spec)]

        wide = reference((40, 60))
        assert wide[0] == wide[1]
        assert reference((60,)) == wide[1:]
        assert reference((40,)) != wide[:1]

    def test_closed_form_requires_gaussian(self):
        with pytest.raises(InvalidConfig):
            tiny_spec(kinds=("spiral2d",), reference="closed-form")

    def test_reference_none(self):
        records = run_sweep(tiny_spec(reference="none"))
        assert all(r.reference is None and r.abs_error is None for r in records)

    def test_error_decreases_in_n_for_each_d(self):
        spec = SweepSpec(
            n_values=(100, 1000), d_values=(2, 6, 10), sigma_values=(0.1,),
            lambda_res_values=(0.01,), repeats=6, ambient_dim=100, n_mc=50, seed=17,
        )
        records = run_sweep(spec)
        for d in spec.d_values:
            medians = [
                float(np.median([r.abs_error for r in records if r.d == d and r.n == n]))
                for n in spec.n_values
            ]
            assert medians[1] < medians[0], (d, medians)


class TestSweepCsv:
    def test_round_trip(self, tmp_path):
        records = run_sweep(tiny_spec())
        path = tmp_path / "sweep.csv"
        write_sweep_csv(path, records)
        loaded = read_sweep_csv(path)
        assert loaded == records

    def test_byte_reproducibility(self, tmp_path):
        records_a = run_sweep(tiny_spec())
        records_b = run_sweep(tiny_spec())
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_sweep_csv(p1, records_a)
        write_sweep_csv(p2, records_b)
        assert p1.read_bytes() == p2.read_bytes()

    def test_timing_column_is_opt_in(self, tmp_path):
        records = run_sweep(tiny_spec(repeats=1))
        plain, timed = tmp_path / "plain.csv", tmp_path / "timed.csv"
        write_sweep_csv(plain, records)
        write_sweep_csv(timed, records, timing=True)
        assert "wall_time_s" not in plain.read_text(encoding="utf-8")
        assert "wall_time_s" in timed.read_text(encoding="utf-8").splitlines()[0]


class TestRankAuc:
    def test_perfect_separation(self):
        assert rank_auc([3.0, 4.0], [1.0, 2.0]) == 1.0

    def test_no_signal(self):
        assert rank_auc([1.0, 1.0], [1.0, 1.0]) == 0.5

    def test_ties_half_weighted(self):
        # pairs: (2>1)=1, (2==2)=0.5, (3>1)=1, (3>2)=1 -> 3.5/4
        assert rank_auc([2.0, 3.0], [1.0, 2.0]) == pytest.approx(0.875)

    def test_reversed_scores(self):
        assert rank_auc([1.0, 2.0], [3.0, 4.0]) == 0.0

    def test_empty_rejected(self):
        with pytest.raises(InvalidConfig):
            rank_auc([], [1.0])


class TestRunIndepAuc:
    def test_unbalanced_rejected(self):
        config = EstimatorConfig(sigma=1.0, target_dim=2, n_mc=10, seed=1)
        with pytest.raises(InvalidConfig):
            run_indep_auc(8, 20, 2, 5, 0.05, config)
        with pytest.raises(InvalidConfig):
            run_indep_auc(11, 20, 2, 5, 0.05, config)

    def test_small_run_structure(self):
        config = EstimatorConfig(sigma=1.0, target_dim=2, n_mc=20, seed=1)
        report = run_indep_auc(10, 120, 2, 6, 0.05, config)
        assert len(report.rows) == 10
        assert sum(r["dependent"] for r in report.rows) == 5
        assert 0.0 <= report.auc_reduced <= 1.0
        assert 0.0 <= report.auc_ambient <= 1.0

    def test_deterministic(self):
        config = EstimatorConfig(sigma=1.0, target_dim=2, n_mc=20, seed=1)
        a = run_indep_auc(10, 60, 2, 6, 0.05, config)
        b = run_indep_auc(10, 60, 2, 6, 0.05, config)
        assert a == b


class TestRunActivationMi:
    def make_dump(self, path, seed, scale=1.0):
        rng = substream(seed)
        blocks = [SampleMatrix(rng.standard_normal((3, 20)) * scale + mu)
                  for mu in (-2.0, 0.0, 2.0)]
        write_activation_dump(path, [0, 1, 2], blocks)
        return path

    def test_rows_per_entry_and_sorting(self, tmp_path):
        p1 = self.make_dump(tmp_path / "l1e0.csv", 1)
        p2 = self.make_dump(tmp_path / "l1e1.csv", 2)
        config = EstimatorConfig(sigma=1.0, target_dim=2, n_mc=20, seed=3)
        rows = run_activation_mi([("l1", 1, p2), ("l1", 0, p1)], config)
        assert [(r["layer"], r["epoch"]) for r in rows] == [("l1", 0), ("l1", 1)]
        assert all(r["error"] == "" for r in rows)
        assert all(isinstance(r["mi"], float) for r in rows)

    def test_ragged_dump_weights_conditions_by_count(self, tmp_path):
        # two 2-d conditions 100 apart, 900 tight rows and 100 wide ones:
        # the MI is the binary entropy H(0.9, 0.1)
        rng = substream(2)
        blocks = [SampleMatrix(0.1 * rng.standard_normal((2, 900))),
                  SampleMatrix(100.0 + rng.standard_normal((2, 100)))]
        path = tmp_path / "ragged.csv"
        write_activation_dump(path, [0, 1], blocks)
        config = EstimatorConfig(sigma=0.1, target_dim=2, n_mc=50, seed=2)
        (row,) = run_activation_mi([("l1", 0, path)], config)
        assert row["error"] == ""
        assert row["mi"] == row["marginal_entropy"] - row["conditional_entropy_mean"]
        truth = -(0.9 * math.log(0.9) + 0.1 * math.log(0.1))
        assert abs(row["mi"] - truth) <= 0.2

    def test_missing_file_becomes_error_row(self, tmp_path):
        good = self.make_dump(tmp_path / "ok.csv", 4)
        config = EstimatorConfig(sigma=1.0, target_dim=2, n_mc=20, seed=3)
        rows = run_activation_mi(
            [("l1", 0, good), ("l2", 0, tmp_path / "missing.csv")], config
        )
        by_layer = {r["layer"]: r for r in rows}
        assert by_layer["l1"]["error"] == ""
        assert by_layer["l2"]["error"] != ""

    def test_empty_entry_list(self, tmp_path):
        rows = run_activation_mi([], EstimatorConfig(sigma=1.0, target_dim=1))
        out = tmp_path / "empty.csv"
        write_rows_csv(out, rows, ACTIVATION_COLUMNS)
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines == [",".join(ACTIVATION_COLUMNS)]
