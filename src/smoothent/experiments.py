"""Reproducible experiment harness: parameter sweeps, independence-test AUC,
and activation-dump MI trajectories, all emitted as CSV.

Sweeps run one estimate per (cell, repeat) over the product of the requested
axes.  Every seed is derived from the master seed plus the *content* of the
cell, so results are independent of execution order and stable when axes are
extended.  Rows are emitted in canonical order (lexicographic in the cell
parameters, then repeat), so identical invocations produce byte-identical
files.  Wall-clock timing is recorded but only written when explicitly
requested, since a timing column would break byte reproducibility.

Error handling is per-cell: a failing cell contributes a row with its error
message and the sweep continues.
"""

import csv
import hashlib
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .errors import InvalidConfig, SmoothentError
from .estimator import (
    EstimatorConfig,
    dimension_correction,
    gaussian_smoothed_entropy_oracle,
    pca_smoothed_entropy,
)
from .io import fmt, ingest_activation_dump
from .mi import conditional_entropy, conditional_mi, joint_mi
from .synthetic import (
    SPIRAL_KINDS,
    gen_common_signal_pair,
    gen_embedded_gaussian,
    gen_spiral,
)

__all__ = [
    "SweepSpec",
    "SweepRecord",
    "AucReport",
    "run_sweep",
    "write_sweep_csv",
    "read_sweep_csv",
    "rank_auc",
    "run_indep_auc",
    "run_activation_mi",
    "write_rows_csv",
]

REFERENCE_MODES = ("closed-form", "self-consistency", "none")

_AXIS_NAMES = ("kind", "n", "d", "sigma", "lambda_res")

SWEEP_COLUMNS = [
    "kind",
    "n",
    "d",
    "sigma",
    "lambda_res",
    "repeat",
    "seed",
    "estimate",
    "reference",
    "abs_error",
    "mc_std_error",
    "eigen_gap",
    "residual",
    "error",
]


@dataclass(frozen=True)
class SweepSpec:
    """Axes and policy for one experiment grid.

    ``n`` counts samples per split half (each cell draws ``2n``).  For
    Gaussian cells ``d`` is both the generator's intrinsic dimension and the
    projection target; for spiral cells the intrinsic dimension is fixed by
    the kind and ``d`` is the projection target only.
    """

    kinds: tuple[str, ...] = ("gaussian",)
    n_values: tuple[int, ...] = (1000,)
    d_values: tuple[int, ...] = (3,)
    sigma_values: tuple[float, ...] = (0.1,)
    lambda_res_values: tuple[float, ...] = (0.01,)
    repeats: int = 10
    ambient_dim: int = 100
    n_mc: int = 100
    seed: int = 0
    split: str = "half"
    center: bool = True
    reference: str = "closed-form"

    def __post_init__(self):
        if self.repeats < 1:
            raise InvalidConfig(f"repeats must be >= 1, got {self.repeats}")
        if self.reference not in REFERENCE_MODES:
            raise InvalidConfig(f"reference must be one of {REFERENCE_MODES}")
        for kind in self.kinds:
            if kind != "gaussian" and kind not in SPIRAL_KINDS:
                raise InvalidConfig(f"unknown sweep kind {kind!r}")
            if kind != "gaussian" and self.reference == "closed-form":
                raise InvalidConfig("closed-form references exist only for gaussian cells")

    def cells(self) -> list[dict]:
        """All cells in canonical (lexicographic) order."""
        grid = [
            {"kind": k, "n": n, "d": d, "sigma": s, "lambda_res": lam}
            for k in self.kinds
            for n in self.n_values
            for d in self.d_values
            for s in self.sigma_values
            for lam in self.lambda_res_values
        ]
        grid.sort(key=lambda c: (c["kind"], c["n"], c["d"], c["sigma"], c["lambda_res"]))
        return grid


@dataclass(frozen=True)
class SweepRecord:
    """One row of a sweep: cell parameters, estimate, reference, diagnostics."""

    kind: str
    n: int
    d: int
    sigma: float
    lambda_res: float
    repeat: int
    seed: int
    estimate: float | None = None
    reference: float | None = None
    abs_error: float | None = None
    mc_std_error: float | None = None
    eigen_gap: float | None = None
    residual: float | None = None
    error: str = ""
    wall_time_s: float | None = field(default=None, compare=False)


def _cell_seed(master_seed: int, cell: dict, *path: int) -> int:
    """Content-addressed 64-bit seed: stable under grid changes and ordering."""
    text = "|".join(
        [str(master_seed)]
        + [f"{k}={cell[k]!r}" for k in _AXIS_NAMES]
        + [str(p) for p in path]
    )
    digest = hashlib.blake2b(text.encode(), digest_size=8).digest()
    return int.from_bytes(digest, "little")


def _generate_cell(cell: dict, ambient_dim: int, n_total: int, seed: int):
    if cell["kind"] == "gaussian":
        return gen_embedded_gaussian(cell["d"], ambient_dim, cell["lambda_res"], n_total, seed)
    samples = gen_spiral(cell["kind"], cell["lambda_res"], ambient_dim, n_total, seed)
    return samples, None


def _closed_form_reference(cell: dict, ambient_dim: int, population_cov) -> float:
    eigenvalues = np.sort(np.diag(population_cov))[::-1]
    top = np.diag(eigenvalues[: cell["d"]])
    return gaussian_smoothed_entropy_oracle(top, cell["sigma"]) + dimension_correction(
        ambient_dim, cell["d"], cell["sigma"]
    )


def run_sweep(spec: SweepSpec) -> list[SweepRecord]:
    """Execute the grid; one record per (cell, repeat), canonical order."""
    records: list[SweepRecord] = []
    reference_cache: dict[tuple, float] = {}
    for cell in spec.cells():
        for repeat in range(spec.repeats):
            data_seed = _cell_seed(spec.seed, cell, repeat, 0)
            est_seed = _cell_seed(spec.seed, cell, repeat, 1)
            started = time.perf_counter()
            try:
                samples, population_cov = _generate_cell(
                    cell, spec.ambient_dim, 2 * cell["n"], data_seed
                )
                config = EstimatorConfig(
                    sigma=cell["sigma"],
                    target_dim=cell["d"],
                    n_mc=spec.n_mc,
                    seed=est_seed,
                    split=spec.split,
                    center=spec.center,
                )
                result = pca_smoothed_entropy(samples, config)
                reference = None
                if spec.reference == "closed-form":
                    reference = _closed_form_reference(cell, spec.ambient_dim, population_cov)
                elif spec.reference == "self-consistency":
                    key = (cell["kind"], cell["d"], cell["sigma"], cell["lambda_res"])
                    if key not in reference_cache:
                        reference_cache[key] = _self_consistency_reference(spec, cell)
                    reference = reference_cache[key]
                records.append(
                    SweepRecord(
                        **cell,
                        repeat=repeat,
                        seed=est_seed,
                        estimate=result.value,
                        reference=reference,
                        abs_error=None if reference is None else abs(result.value - reference),
                        mc_std_error=result.mc_std_error,
                        eigen_gap=result.pca.eigen_gap,
                        residual=result.pca.residual,
                        wall_time_s=time.perf_counter() - started,
                    )
                )
            except (SmoothentError, ValueError) as exc:
                records.append(
                    SweepRecord(
                        **cell,
                        repeat=repeat,
                        seed=est_seed,
                        error=f"{type(exc).__name__}: {exc}",
                        wall_time_s=time.perf_counter() - started,
                    )
                )
    return records


def _self_consistency_reference(spec: SweepSpec, cell: dict) -> float:
    """Reference run on fresh data at the grid's largest ``n`` and its ``n_mc``."""
    ref_cell = dict(cell)
    ref_cell["n"] = max(spec.n_values)
    data_seed = _cell_seed(spec.seed, ref_cell, 2)
    est_seed = _cell_seed(spec.seed, ref_cell, 3)
    samples, _ = _generate_cell(ref_cell, spec.ambient_dim, 2 * ref_cell["n"], data_seed)
    config = EstimatorConfig(
        sigma=cell["sigma"],
        target_dim=cell["d"],
        n_mc=spec.n_mc,
        seed=est_seed,
        split=spec.split,
        center=spec.center,
    )
    return pca_smoothed_entropy(samples, config).value


def write_sweep_csv(path, records: list[SweepRecord], timing: bool = False) -> None:
    columns = SWEEP_COLUMNS + (["wall_time_s"] if timing else [])
    with Path(path).open("w", newline="\n", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        for rec in records:
            writer.writerow([fmt(getattr(rec, col)) for col in columns])


def read_sweep_csv(path) -> list[SweepRecord]:
    with Path(path).open(newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        records = []
        for row in reader:
            records.append(
                SweepRecord(
                    kind=row["kind"],
                    n=int(row["n"]),
                    d=int(row["d"]),
                    sigma=float(row["sigma"]),
                    lambda_res=float(row["lambda_res"]),
                    repeat=int(row["repeat"]),
                    seed=int(row["seed"]),
                    estimate=float(row["estimate"]) if row["estimate"] else None,
                    reference=float(row["reference"]) if row["reference"] else None,
                    abs_error=float(row["abs_error"]) if row["abs_error"] else None,
                    mc_std_error=float(row["mc_std_error"]) if row["mc_std_error"] else None,
                    eigen_gap=float(row["eigen_gap"]) if row["eigen_gap"] else None,
                    residual=float(row["residual"]) if row["residual"] else None,
                    error=row.get("error", ""),
                    wall_time_s=float(row["wall_time_s"]) if row.get("wall_time_s") else None,
                )
            )
    return records


def rank_auc(positive_scores, negative_scores) -> float:
    """Mann-Whitney AUC of thresholding: P(pos > neg) with ties worth 0.5."""
    pos = np.asarray(positive_scores, dtype=np.float64)
    neg = np.asarray(negative_scores, dtype=np.float64)
    if pos.size == 0 or neg.size == 0:
        raise InvalidConfig("AUC needs at least one score in each class")
    wins = (pos[:, None] > neg[None, :]).sum()
    ties = (pos[:, None] == neg[None, :]).sum()
    return float((wins + 0.5 * ties) / (pos.size * neg.size))


@dataclass(frozen=True)
class AucReport:
    """Independence-test scores and the AUCs of the two estimator configs."""

    auc_reduced: float
    auc_ambient: float
    rows: tuple[dict, ...]
    n_datasets: int
    n: int
    intrinsic_dim: int
    ambient_dim: int
    noise_std: float
    sigma: float


def run_indep_auc(
    n_datasets: int,
    n: int,
    intrinsic_dim: int,
    ambient_dim: int,
    noise_std: float,
    config: EstimatorConfig,
) -> AucReport:
    """Score balanced dependent/null paired datasets with the joint-MI
    estimator under (a) the reduced config and (b) the ambient config
    (target dimension = ambient dimension), and report both AUCs.
    """
    if n_datasets < 10 or n_datasets % 2 != 0:
        raise InvalidConfig(
            f"need an even n_datasets >= 10 for a balanced test, got {n_datasets}"
        )
    half = n_datasets // 2
    ambient_config = replace(config, target_dim=ambient_dim)
    rows = []
    for idx in range(n_datasets):
        dependent = idx < half
        data, _ = gen_common_signal_pair(
            intrinsic_dim,
            ambient_dim,
            n,
            noise_std,
            seed=_cell_seed(config.seed, _auc_cell(idx), 0),
            dependent=dependent,
        )
        per_dataset = replace(config, seed=_cell_seed(config.seed, _auc_cell(idx), 1))
        score_reduced = joint_mi(data, per_dataset).value
        per_dataset_ambient = replace(
            ambient_config, seed=_cell_seed(config.seed, _auc_cell(idx), 2)
        )
        score_ambient = joint_mi(data, per_dataset_ambient).value
        rows.append(
            {
                "dataset": idx,
                "dependent": dependent,
                "score_reduced": score_reduced,
                "score_ambient": score_ambient,
            }
        )
    reduced_pos = [r["score_reduced"] for r in rows if r["dependent"]]
    reduced_neg = [r["score_reduced"] for r in rows if not r["dependent"]]
    ambient_pos = [r["score_ambient"] for r in rows if r["dependent"]]
    ambient_neg = [r["score_ambient"] for r in rows if not r["dependent"]]
    return AucReport(
        auc_reduced=rank_auc(reduced_pos, reduced_neg),
        auc_ambient=rank_auc(ambient_pos, ambient_neg),
        rows=tuple(rows),
        n_datasets=n_datasets,
        n=n,
        intrinsic_dim=intrinsic_dim,
        ambient_dim=ambient_dim,
        noise_std=noise_std,
        sigma=config.sigma,
    )


def _auc_cell(idx: int) -> dict:
    return {"kind": "pair", "n": idx, "d": 0, "sigma": 0.0, "lambda_res": 0.0}


ACTIVATION_COLUMNS = [
    "layer",
    "epoch",
    "mi",
    "std_error",
    "marginal_entropy",
    "conditional_entropy_mean",
    "n_conditions",
    "error",
]


def run_activation_mi(entries, config: EstimatorConfig) -> list[dict]:
    """Conditional MI for each (layer, epoch, dump path) entry.

    Returns one row per entry, sorted by (layer, epoch); unreadable dumps
    become error rows and the run continues.
    """
    rows = []
    for layer, epoch, path in entries:
        row = {c: "" for c in ACTIVATION_COLUMNS}
        row["layer"] = layer
        row["epoch"] = int(epoch)
        try:
            dataset = ingest_activation_dump(path)
            estimate = conditional_mi(dataset, config)
            row["mi"] = estimate.value
            row["std_error"] = estimate.std_error
            row["marginal_entropy"] = estimate.components["marginal"].value
            row["conditional_entropy_mean"] = conditional_entropy(estimate)
            row["n_conditions"] = dataset.n_conditions
        except (SmoothentError, OSError, ValueError) as exc:
            row["error"] = f"{type(exc).__name__}: {exc}"
        rows.append(row)
    rows.sort(key=lambda r: (str(r["layer"]), r["epoch"]))
    return rows


def write_rows_csv(path, rows: list[dict], columns: list[str]) -> None:
    """Write dict rows with a fixed column order (canonical formatting)."""
    with Path(path).open("w", newline="\n", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([fmt(row.get(col)) for col in columns])
