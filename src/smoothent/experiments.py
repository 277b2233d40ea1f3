"""Reproducible experiment harness: parameter sweeps, independence-test AUC,
and activation-dump MI trajectories, all emitted as CSV.

Sweeps run one estimate per (cell, repeat) over the product of the requested
axes.  A gaussian cell's reference is the closed form of its population; a
spiral cell has none, so its ``reference`` and ``abs_error`` stay empty.
Every seed is derived from the master seed plus the *content* of the cell,
so results are independent of execution order and stable when axes are
extended.  Rows are emitted in canonical order (lexicographic in the cell
parameters, then repeat), so identical invocations produce byte-identical
files.  Wall-clock timing is recorded but only written when explicitly
requested, since a timing column would break byte reproducibility.

Error handling is per-cell: a failing cell contributes a row with its error
message and the sweep continues.
"""

import hashlib
import time
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .errors import REPORTED_ERRORS, InvalidConfig
from .estimator import (
    SPLIT_POLICIES,
    EstimatorConfig,
    dimension_correction,
    gaussian_smoothed_entropy_oracle,
    pca_smoothed_entropy,
)
from .io import ingest_activation_dump
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
    "rank_auc",
    "run_indep_auc",
    "run_activation_mi",
]

_AXIS_NAMES = ("kind", "n", "d", "sigma", "lambda_res")


@dataclass(frozen=True)
class SweepSpec:
    """Axes and policy for one experiment grid.

    ``n`` counts samples per split half (each cell draws ``2n``).  For
    Gaussian cells ``d`` is both the generator's intrinsic dimension and the
    projection target; for spiral cells the intrinsic dimension is fixed by
    the kind and ``d`` is the projection target only.  Each axis lists
    distinct values: a repeated one would run its cells twice.
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

    def __post_init__(self):
        for axis in ("kinds", "n_values", "d_values", "sigma_values", "lambda_res_values"):
            values = getattr(self, axis)
            if not values:
                raise InvalidConfig(f"sweep axis {axis} is empty")
            if len(set(values)) < len(values):
                raise InvalidConfig(f"sweep axis {axis} repeats a value: {values}")
        for name in ("repeats", "ambient_dim", "n_mc"):
            if getattr(self, name) < 1:
                raise InvalidConfig(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.split not in SPLIT_POLICIES:
            raise InvalidConfig(f"split must be one of {SPLIT_POLICIES}, got {self.split!r}")
        for kind in self.kinds:
            if kind != "gaussian" and kind not in SPIRAL_KINDS:
                raise InvalidConfig(f"unknown sweep kind {kind!r}")

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


# Columns of a sweep CSV: the record's fields; ``wall_time_s`` is opt-in.
SWEEP_COLUMNS = [f.name for f in fields(SweepRecord) if f.name != "wall_time_s"]


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


def _closed_form_reference(cell: dict, spec: SweepSpec, population_cov) -> float:
    eigenvalues = np.sort(np.diag(population_cov))[::-1]
    top = np.diag(eigenvalues[: cell["d"]])
    return gaussian_smoothed_entropy_oracle(top, cell["sigma"]) + dimension_correction(
        spec.ambient_dim, cell["d"], cell["sigma"]
    )


def _cell_config(spec: SweepSpec, cell: dict, seed: int) -> EstimatorConfig:
    return EstimatorConfig(
        sigma=cell["sigma"],
        target_dim=cell["d"],
        n_mc=spec.n_mc,
        seed=seed,
        split=spec.split,
        center=spec.center,
    )


def run_sweep(spec: SweepSpec) -> list[SweepRecord]:
    """Execute the grid; one record per (cell, repeat), canonical order."""
    records: list[SweepRecord] = []
    for cell in spec.cells():
        for repeat in range(spec.repeats):
            data_seed = _cell_seed(spec.seed, cell, repeat, 0)
            est_seed = _cell_seed(spec.seed, cell, repeat, 1)
            started = time.perf_counter()
            try:
                samples, cov = _generate_cell(cell, spec.ambient_dim, 2 * cell["n"], data_seed)
                result = pca_smoothed_entropy(samples, _cell_config(spec, cell, est_seed))
                reference = None if cov is None else _closed_form_reference(cell, spec, cov)
                figures = {
                    "estimate": result.value,
                    "reference": reference,
                    "abs_error": None if reference is None else abs(result.value - reference),
                    "mc_std_error": result.mc_std_error,
                    "eigen_gap": result.pca.eigen_gap,
                    "residual": result.pca.residual,
                }
            except REPORTED_ERRORS as exc:
                figures = {"error": f"{type(exc).__name__}: {exc}"}
            records.append(
                SweepRecord(
                    **cell,
                    repeat=repeat,
                    seed=est_seed,
                    **figures,
                    wall_time_s=time.perf_counter() - started,
                )
            )
    return records


def rank_auc(positive_scores, negative_scores) -> float:
    """Mann-Whitney AUC of thresholding: P(pos > neg) with ties worth 0.5.

    ``U`` is the positives' rank sum with ties at their average rank, exactly
    wins + 0.5 * ties; a NaN score neither wins nor ties but counts in P * N.
    """
    pos = np.asarray(positive_scores, dtype=np.float64)
    neg = np.asarray(negative_scores, dtype=np.float64)
    if pos.size == 0 or neg.size == 0:
        raise InvalidConfig("AUC needs at least one score in each class")
    pairs = pos.size * neg.size
    pos, neg = pos[~np.isnan(pos)], neg[~np.isnan(neg)]
    scores = np.concatenate([pos, neg])
    _, group, counts = np.unique(scores, return_inverse=True, return_counts=True)
    average_rank = np.cumsum(counts) - 0.5 * (counts - 1)
    u = average_rank[group[: pos.size]].sum() - 0.5 * pos.size * (pos.size + 1)
    return float(u / pairs)


@dataclass(frozen=True, eq=False)
class AucReport:
    """Independence-test scores and the AUCs of the two estimator configs."""

    auc_reduced: float
    auc_ambient: float
    rows: tuple[dict, ...]


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
    # (row column, estimator config, _cell_seed tag of its estimate)
    columns = (
        ("score_reduced", config, 1),
        ("score_ambient", replace(config, target_dim=ambient_dim), 2),
    )
    rows = []
    for idx in range(n_datasets):
        dependent = idx < half
        cell = _auc_cell(idx)
        data, _ = gen_common_signal_pair(
            intrinsic_dim,
            ambient_dim,
            n,
            noise_std,
            seed=_cell_seed(config.seed, cell, 0),
            dependent=dependent,
        )
        row = {"dataset": idx, "dependent": dependent}
        for column, column_config, tag in columns:
            scored = replace(column_config, seed=_cell_seed(config.seed, cell, tag))
            row[column] = joint_mi(data, scored).value
        rows.append(row)
    auc_reduced, auc_ambient = (
        rank_auc(
            [r[column] for r in rows if r["dependent"]],
            [r[column] for r in rows if not r["dependent"]],
        )
        for column, _, _ in columns
    )
    return AucReport(auc_reduced=auc_reduced, auc_ambient=auc_ambient, rows=tuple(rows))


def _auc_cell(idx: int) -> dict:
    return {"kind": "pair", "n": idx, "d": 0, "sigma": 0.0, "lambda_res": 0.0}


AUC_COLUMNS = ["dataset", "dependent", "score_reduced", "score_ambient"]

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


def conditional_mi_figures(estimate) -> dict:
    """``n_conditions``, ``marginal_entropy`` and ``conditional_entropy_mean``
    (in nats) of a :func:`conditional_mi` estimate, in ``mi-cond``'s column
    order.  The estimate holds one term per condition plus the marginal."""
    return {
        "n_conditions": len(estimate.terms) - 1,
        "marginal_entropy": estimate.components["marginal"].value,
        "conditional_entropy_mean": conditional_entropy(estimate),
    }


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
            row.update(mi=estimate.value, std_error=estimate.std_error)
            row.update(conditional_mi_figures(estimate))
        except REPORTED_ERRORS as exc:
            row["error"] = f"{type(exc).__name__}: {exc}"
        rows.append(row)
    rows.sort(key=lambda r: (str(r["layer"]), r["epoch"]))
    return rows
