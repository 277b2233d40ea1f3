"""Sweep harness, AUC scoring and activation-MI trajectories."""

import math
from dataclasses import asdict

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
from smoothent.experiments import ACTIVATION_COLUMNS, SWEEP_COLUMNS
from smoothent.io import write_activation_dump, write_rows_csv
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

    def test_mixed_grid_references_by_kind(self):
        records = run_sweep(tiny_spec(kinds=("gaussian", "spiral2d")))
        gaussian = [r for r in records if r.kind == "gaussian"]
        spiral = [r for r in records if r.kind == "spiral2d"]
        # gaussian rows carry the closed form, as in a gaussian-only grid
        assert gaussian == run_sweep(tiny_spec())
        assert all(r.reference is not None for r in gaussian)
        assert len(spiral) == 2 and all(r.error == "" for r in spiral)
        assert all(r.reference is None and r.abs_error is None for r in spiral)

    @pytest.mark.parametrize(
        "kw, message",
        [
            *[({axis: ()}, f"sweep axis {axis} is empty") for axis in
              ("kinds", "n_values", "d_values", "sigma_values", "lambda_res_values")],
            ({"repeats": 0}, "repeats must be >= 1, got 0"),
            ({"ambient_dim": 0}, "ambient_dim must be >= 1, got 0"),
            ({"n_mc": 0}, "n_mc must be >= 1, got 0"),
            ({"split": "thirds"}, "split must be one of .*, got 'thirds'"),
            ({"kinds": ("helix",)}, "unknown sweep kind 'helix'"),
            ({"n_values": (40, 40)}, "sweep axis n_values repeats a value"),
        ],
        ids=["no-kinds", "no-n", "no-d", "no-sigma", "no-lambda-res", "no-repeats",
             "no-ambient-dim", "no-n-mc", "unknown-split", "unknown-kind", "repeated-n"],
    )
    def test_invalid_spec_rejected(self, kw, message):
        with pytest.raises(InvalidConfig, match=message):
            tiny_spec(**kw)

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
    def test_byte_reproducibility(self, tmp_path):
        records_a = run_sweep(tiny_spec())
        records_b = run_sweep(tiny_spec())
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_rows_csv(p1, [asdict(r) for r in records_a], SWEEP_COLUMNS)
        write_rows_csv(p2, [asdict(r) for r in records_b], SWEEP_COLUMNS)
        assert p1.read_bytes() == p2.read_bytes()

    def test_timing_column_is_opt_in(self, tmp_path):
        records = run_sweep(tiny_spec(repeats=1))
        plain, timed = tmp_path / "plain.csv", tmp_path / "timed.csv"
        write_rows_csv(plain, [asdict(r) for r in records], SWEEP_COLUMNS)
        write_rows_csv(timed, [asdict(r) for r in records], SWEEP_COLUMNS + ["wall_time_s"])
        assert "wall_time_s" not in plain.read_text(encoding="utf-8")
        header, row = timed.read_text(encoding="utf-8").splitlines()
        assert header.endswith(",wall_time_s")
        assert float(row.rsplit(",", 1)[1]) == records[0].wall_time_s


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

    def test_rank_sum_equals_pairwise_count(self):
        # reference: the P x N comparison count, ties 0.5, NaN neither wins nor ties
        def pairwise(pos, neg):
            wins = (pos[:, None] > neg[None, :]).sum()
            ties = (pos[:, None] == neg[None, :]).sum()
            return float((wins + 0.5 * ties) / (pos.size * neg.size))

        rng = np.random.default_rng(40)
        for trial in range(500):
            n_pos, n_neg = rng.integers(1, 30, size=2)
            levels = np.array([-np.inf, -1.5, -0.0, 0.0, 0.25, 2.0, np.inf, np.nan])
            few = rng.choice(levels, size=rng.integers(2, 9), replace=False)
            pool = few if trial % 2 else rng.standard_normal(6)
            pos = rng.choice(pool, size=n_pos)
            neg = rng.choice(pool, size=n_neg)
            assert rank_auc(pos, neg) == pairwise(pos, neg), (pos, neg)


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
        assert asdict(a) == asdict(b)  # reports compare by identity


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
