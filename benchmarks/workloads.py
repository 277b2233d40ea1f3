"""The benchmark's four workloads.

A workload builds its inputs from the workload seed in ``generate`` (input
generation plus any CSV writing) and runs one operation -- one top-level
library call, as a user makes it -- per call of ``run``.  Every operation
repeats the same call on the same inputs and seed, so every result must
match the first one bitwise; ``signature`` gives the bytes compared.

Library functions are looked up through their modules at call time, so the
tracer's wrappers (see ``tracing.py``) are the code that runs when it is
installed.  The rationale for each workload is in ``NOTES.md``.
"""

import math
from pathlib import Path

import numpy as np

from smoothent import estimator, experiments, io, synthetic
from smoothent.pca import SampleMatrix
from smoothent.rng import derive_seed

# Tolerance for "a result equals the sum of its components": the library
# computes these sums itself, so only the last bits may differ.
_SUM_ATOL = 1e-9


def _bits(*values) -> bytes:
    return np.asarray(values, dtype=np.float64).tobytes()


def _closed_form(population_cov, d: int, sigma: float) -> float:
    """Smoothed entropy of the top-``d`` block plus the deleted-noise correction."""
    top = np.sort(np.diag(population_cov))[::-1][:d]
    ambient = population_cov.shape[0]
    return estimator.gaussian_smoothed_entropy_oracle(
        np.diag(top), sigma
    ) + estimator.dimension_correction(ambient, d, sigma)


def _entropy_problems(result, ambient: int, n_eval: int) -> list[str]:
    cfg = result.config
    problems = []
    if not all(math.isfinite(v) for v in (result.value, result.plugin.value, result.correction)):
        problems.append("entropy result is not finite")
    if result.value != result.plugin.value + result.correction:
        problems.append("entropy value != plugin.value + correction")
    if result.correction != estimator.dimension_correction(ambient, cfg.target_dim, cfg.sigma):
        problems.append("dimension correction does not match its closed form")
    if result.plugin.n_centers != n_eval or result.plugin.n_mc != cfg.n_mc:
        problems.append("plugin estimate ran on the wrong number of centers or draws")
    return problems


class Workload:
    name = ""
    setup_repeats = 3

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.reference = None
        self.setup_problems = []

    def generate(self):
        raise NotImplementedError

    def run(self):
        raise NotImplementedError

    def signature(self, result) -> bytes:
        raise NotImplementedError

    def check(self, result) -> list[str]:
        raise NotImplementedError

    def abs_error(self, result) -> float:
        raise NotImplementedError

    def quality(self, result) -> dict:
        """Extra result figures written to the results file."""
        return {}


class EntropyLowdim(Workload):
    """Criterion 3's cell: n = 10k, D = 100, d = 3; the low-d kernel does the work."""

    name = "entropy-lowdim"
    ambient, d, n, sigma = 100, 3, 10_000, 0.1

    def generate(self):
        samples, cov = synthetic.gen_embedded_gaussian(
            self.d, self.ambient, 0.01, self.n, derive_seed(self.seed, 0)
        )
        self.samples = samples
        self.config = estimator.EstimatorConfig(
            sigma=self.sigma, target_dim=self.d, n_mc=100, seed=derive_seed(self.seed, 1)
        )
        self.reference = _closed_form(cov, self.d, self.sigma)

    def run(self):
        return estimator.pca_smoothed_entropy(self.samples, self.config)

    def signature(self, result) -> bytes:
        return _bits(result.value, result.mc_std_error, *result.pca.spectrum[: self.d + 1])

    def check(self, result) -> list[str]:
        return _entropy_problems(result, self.ambient, self.n // 2)

    def abs_error(self, result) -> float:
        return abs(result.value - self.reference)


class WideCsv(Workload):
    """n < D: reading an 83 MB sample CSV and fitting a D = 2000 basis dominate."""

    name = "wide-csv"
    setup_repeats = 1  # one CSV write takes about 5 s
    ambient, d, n, sigma = 2000, 10, 2000, 0.1

    def generate(self):
        samples, cov = synthetic.gen_embedded_gaussian(
            self.d, self.ambient, 0.01, self.n, derive_seed(self.seed, 0)
        )
        self.samples = samples
        self.path = self.workdir / "wide.csv"
        io.write_samples(self.path, samples)
        self.config = estimator.EstimatorConfig(
            sigma=self.sigma, target_dim=self.d, n_mc=100, seed=derive_seed(self.seed, 1)
        )
        self.reference = _closed_form(cov, self.d, self.sigma)

    def run(self):
        samples = io.read_samples(self.path)
        return samples, estimator.pca_smoothed_entropy(samples, self.config)

    def signature(self, result) -> bytes:
        samples, entropy = result
        return _bits(entropy.value, entropy.mc_std_error, float(samples.data.sum()))

    def check(self, result) -> list[str]:
        samples, entropy = result
        problems = _entropy_problems(entropy, self.ambient, self.n // 2)
        if not np.array_equal(samples.data, self.samples.data):
            problems.append("sample CSV did not read back the values written")
        return problems

    def abs_error(self, result) -> float:
        return abs(result[1].value - self.reference)


class ActivationMi(Workload):
    """One 16-condition activation dump: 17 short estimates plus CSV ingest."""

    name = "activation-mi"
    setup_repeats = 2  # one dump write takes about 2 s
    ambient, d, latent, sigma = 256, 3, 3, 0.1
    # Ragged on purpose: condition sizes 100..400 rows and spreads 0.2..0.8,
    # the largest groups the widest.  The layout is fixed across seeds, so
    # the error of the count-weighted marginal (a known defect, ROADMAP 5a)
    # has the same size on every seed and dominates the seed-to-seed noise.
    sizes = tuple(range(100, 401, 20))
    spreads = tuple(np.linspace(0.2, 0.8, 16))
    separation = 30.0
    residual_std = 0.01

    def generate(self):
        rng = np.random.default_rng(derive_seed(self.seed, 0))
        basis, _ = np.linalg.qr(rng.standard_normal((self.ambient, self.latent)))
        grid = np.array([(i, j, k) for i in range(4) for j in range(2) for k in range(2)], float)
        blocks = []
        for k, (size, spread) in enumerate(zip(self.sizes, self.spreads)):
            latent = self.separation * grid[k][:, None] + spread * rng.standard_normal(
                (self.latent, size)
            )
            noise = self.residual_std * rng.standard_normal((self.ambient, size))
            blocks.append(SampleMatrix(basis @ latent + noise))
        self.path = self.workdir / "dump.csv"
        io.write_activation_dump(self.path, range(len(blocks)), blocks)
        self.config = estimator.EstimatorConfig(
            sigma=self.sigma, target_dim=self.d, n_mc=100, seed=derive_seed(self.seed, 1)
        )
        weights = np.asarray(self.sizes, float) / sum(self.sizes)
        self.reference = float(-np.sum(weights * np.log(weights)))

    def run(self):
        return experiments.run_activation_mi([("bench", 0, self.path)], self.config)

    def signature(self, result) -> bytes:
        row = result[0]
        return _bits(row["mi"], row["std_error"], row["marginal_entropy"])

    def check(self, result) -> list[str]:
        if len(result) != 1:
            return [f"expected one row, got {len(result)}"]
        row = result[0]
        if row["error"]:
            return [f"dump failed: {row['error']}"]
        values = [row[k] for k in ("mi", "std_error", "marginal_entropy", "conditional_entropy_mean")]
        if not all(math.isfinite(v) for v in values):
            return ["MI result is not finite"]
        problems = []
        if abs(row["mi"] - (row["marginal_entropy"] - row["conditional_entropy_mean"])) > _SUM_ATOL:
            problems.append("MI != marginal - mean conditional")
        if row["n_conditions"] != len(self.sizes):
            problems.append(f"read {row['n_conditions']} conditions, wrote {len(self.sizes)}")
        return problems

    def abs_error(self, result) -> float:
        return abs(result[0]["mi"] - self.reference)


def _auc(pos, neg) -> float:
    """Mann-Whitney AUC with ties worth 1/2, written out independently of the library."""
    wins = sum((p > q) + 0.5 * (p == q) for p in pos for q in neg)
    return wins / (len(pos) * len(neg))


class IndepAuc(Workload):
    """Criterion 5 at a quarter of its datasets: joint MI at d = 3..200 and rank AUC."""

    name = "indep-auc"
    n_datasets, n, intrinsic, ambient, noise = 10, 500, 3, 100, 0.01

    def generate(self):
        self.config = estimator.EstimatorConfig(
            sigma=1.0, target_dim=self.intrinsic, n_mc=100, seed=derive_seed(self.seed, 1)
        )
        # The operation's joint MIs expose only their values, so the
        # x + y - joint identity is checked on one pair generated here.
        data, _ = synthetic.gen_common_signal_pair(
            self.intrinsic, self.ambient, 200, self.noise, derive_seed(self.seed, 2)
        )
        probe = experiments.joint_mi(data, self.config)
        terms = [probe.components[k] for k in ("x", "y", "joint")]
        self.setup_problems = []
        for term, dim in zip(terms, (self.ambient, self.ambient, 2 * self.ambient)):
            self.setup_problems += _entropy_problems(term, dim, 100)
        if abs(probe.value - (terms[0].value + terms[1].value - terms[2].value)) > _SUM_ATOL:
            self.setup_problems.append("joint MI != x + y - joint")

    def run(self):
        return experiments.run_indep_auc(
            self.n_datasets, self.n, self.intrinsic, self.ambient, self.noise, self.config
        )

    def signature(self, report) -> bytes:
        scores = [v for r in report.rows for v in (r["score_reduced"], r["score_ambient"])]
        return _bits(report.auc_reduced, report.auc_ambient, *scores)

    def check(self, report) -> list[str]:
        rows = report.rows
        if len(rows) != self.n_datasets or sum(r["dependent"] for r in rows) != self.n_datasets // 2:
            return ["report does not hold the balanced dataset list"]
        problems = []
        for key, auc in (("score_reduced", report.auc_reduced), ("score_ambient", report.auc_ambient)):
            scores = [r[key] for r in rows]
            if not all(math.isfinite(s) for s in scores):
                problems.append(f"{key} is not finite")
                continue
            pos = [r[key] for r in rows if r["dependent"]]
            neg = [r[key] for r in rows if not r["dependent"]]
            if auc != _auc(pos, neg):
                problems.append(f"AUC of {key} does not match its scores")
        return problems

    def abs_error(self, report) -> float:
        # Independent pairs have exactly zero smoothed MI.
        return float(np.median([abs(r["score_reduced"]) for r in report.rows if not r["dependent"]]))

    def quality(self, report) -> dict:
        return {"auc_reduced": report.auc_reduced, "auc_ambient": report.auc_ambient}


WORKLOADS = {w.name: w for w in (EntropyLowdim, WideCsv, ActivationMi, IndepAuc)}
