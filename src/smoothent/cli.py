"""Command-line front end.

Subcommands: ``gen`` (synthetic datasets), ``entropy`` (single estimate),
``mi-cond`` / ``mi-joint`` (mutual information), ``sweep`` (parameter grids),
``indep-auc`` (independence-test AUC), ``activation-mi`` (MI trajectories
from activation dumps).  All outputs are CSV; entropies are in nats unless
``--bits`` converts them for display.

Exit codes: 0 success, 2 invalid configuration, 3 data errors.
"""

import argparse
import csv
import math
import sys
from pathlib import Path

from .errors import InvalidConfig, SmoothentError
from .estimator import EstimatorConfig, pca_smoothed_entropy
from .experiments import (
    ACTIVATION_COLUMNS,
    SweepSpec,
    run_activation_mi,
    run_indep_auc,
    run_sweep,
    write_rows_csv,
    write_sweep_csv,
)
from .io import (
    fmt,
    ingest_activation_dump,
    read_samples,
    save_pca_model,
    write_joint_dataset,
    write_samples,
)
from .mi import JointDataset, conditional_entropy, conditional_mi, joint_mi
from .synthetic import SPIRAL_KINDS, gen_common_signal_pair, gen_embedded_gaussian, gen_spiral

LN2 = math.log(2.0)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3


def _common_flags() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0, help="64-bit master seed")
    common.add_argument("--sigma", type=float, default=0.1, help="smoothing noise std dev")
    common.add_argument("--dim", type=int, default=3, help="projection target dimension d")
    common.add_argument("--n-mc", type=int, default=100, help="Monte-Carlo trials per center")
    common.add_argument("--split", choices=["half", "reuse"], default="half",
                        help="sample split policy (half = independent fit/eval sets)")
    common.add_argument("--no-center", action="store_true", help="skip mean subtraction")
    common.add_argument("--bits", action="store_true",
                        help="display entropies/MI in bits instead of nats")
    common.add_argument("--out", type=Path, default=None, help="output CSV path")
    return common


def build_parser() -> argparse.ArgumentParser:
    common = _common_flags()
    parser = argparse.ArgumentParser(
        prog="smoothent",
        description="Smoothed entropy and mutual information estimation via "
                    "PCA dimensionality reduction.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", parents=[common], help="generate a synthetic dataset")
    p.add_argument("--kind", required=True,
                   choices=["gaussian", *SPIRAL_KINDS, "pair"])
    p.add_argument("--n", type=int, required=True, help="number of samples")
    p.add_argument("--ambient-dim", type=int, default=100)
    p.add_argument("--lambda-res", type=float, default=0.01,
                   help="residual intensity (variance for gaussian, std for spirals)")
    p.add_argument("--noise-std", type=float, default=0.01, help="pair kinds: additive noise std")
    p.add_argument("--independent", action="store_true",
                   help="pair kinds: break the common signal (null dataset)")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("entropy", parents=[common], help="smoothed entropy of a sample file")
    p.add_argument("samples", type=Path, help="sample CSV (one row per sample)")
    p.add_argument("--save-pca", type=Path, default=None, help="write the fitted model CSV")
    p.set_defaults(func=cmd_entropy)

    p = sub.add_parser("mi-cond", parents=[common],
                       help="conditional-sampling MI from an activation dump")
    p.add_argument("dump", type=Path, help="activation dump CSV (cond,f0,...)")
    p.add_argument("--marginal", type=Path, default=None,
                   help="marginal sample CSV (default: all rows of the dump); "
                        "conditions are weighted by their row counts")
    p.set_defaults(func=cmd_mi_cond)

    p = sub.add_parser("mi-joint", parents=[common], help="joint-sampling MI from paired files")
    p.add_argument("x", type=Path, help="sample CSV for X")
    p.add_argument("y", type=Path, help="sample CSV for Y (column-paired)")
    p.add_argument("--joint-dim", type=int, default=None,
                   help="target dimension of the stacked term (default 2d)")
    p.set_defaults(func=cmd_mi_joint)

    p = sub.add_parser("sweep", parents=[common], help="parameter-sweep grid, CSV output")
    p.add_argument("--kind", default="gaussian", help="comma list of cell kinds")
    p.add_argument("--n", default="100,1000", help="comma list of per-half sample counts")
    p.add_argument("--d", default=None, help="comma list of target dims (default: --dim)")
    p.add_argument("--sigmas", default=None, help="comma list of sigmas (default: --sigma)")
    p.add_argument("--lambda-res", default="0.01", help="comma list of residual intensities")
    p.add_argument("--repeats", type=int, default=10, help="seeds per cell")
    p.add_argument("--ambient-dim", type=int, default=100)
    p.add_argument("--reference", choices=["closed-form", "self-consistency", "none"],
                   default="closed-form")
    p.add_argument("--full", action="store_true",
                   help="paper-scale grids (n up to 1e5, n_mc=1e3)")
    p.add_argument("--timing", action="store_true",
                   help="add a wall_time_s column (breaks byte reproducibility)")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("indep-auc", parents=[common],
                       help="independence-testing AUC, reduced vs ambient")
    p.add_argument("--n-datasets", type=int, default=20, help="balanced total dataset count")
    p.add_argument("--n", type=int, default=500, help="pairs per dataset")
    p.add_argument("--ambient-dim", type=int, default=100)
    p.add_argument("--noise-std", type=float, default=0.01)
    p.set_defaults(func=cmd_indep_auc)

    p = sub.add_parser("activation-mi", parents=[common],
                       help="MI trajectories from per-layer/epoch activation dumps")
    p.add_argument("dumps", nargs="*", metavar="LAYER:EPOCH:PATH",
                   help="one entry per dump file")
    p.set_defaults(func=cmd_activation_mi)
    return parser


def _config(args) -> EstimatorConfig:
    return EstimatorConfig(
        sigma=args.sigma,
        target_dim=args.dim,
        n_mc=args.n_mc,
        seed=args.seed,
        split=args.split,
        center=not args.no_center,
    )


def _scale(args) -> tuple[float, str]:
    return (1.0 / LN2, "bits") if args.bits else (1.0, "nats")


def cmd_gen(args) -> int:
    if args.out is None:
        raise InvalidConfig("gen requires --out (a file prefix for --kind pair)")
    if args.kind == "pair":
        data, dependent = gen_common_signal_pair(
            args.dim, args.ambient_dim, args.n, args.noise_std, args.seed,
            dependent=not args.independent,
        )
        paths = write_joint_dataset(args.out, data, dependent, args.seed)
        print(f"wrote {paths['x']}, {paths['y']}, {paths['manifest']}")
        return EXIT_OK
    if args.kind == "gaussian":
        samples, _ = gen_embedded_gaussian(
            args.dim, args.ambient_dim, args.lambda_res, args.n, args.seed
        )
    else:
        samples = gen_spiral(args.kind, args.lambda_res, args.ambient_dim, args.n, args.seed)
    write_samples(args.out, samples)
    print(f"wrote {args.out} ({samples.count} samples x {samples.dim} dims)")
    return EXIT_OK


def cmd_entropy(args) -> int:
    samples = read_samples(args.samples)
    result = pca_smoothed_entropy(samples, _config(args))
    if args.save_pca is not None:
        save_pca_model(args.save_pca, result.pca)
    scale, units = _scale(args)
    row = {
        "estimate": result.value * scale,
        "mc_std_error": result.mc_std_error * scale,
        "units": units,
        "ambient_dim": samples.dim,
        "target_dim": args.dim,
        "sigma": args.sigma,
        "n_mc": args.n_mc,
        "seed": args.seed,
        "eigen_gap": result.pca.eigen_gap,
        "residual": result.pca.residual,
        "correction": result.correction * scale,
    }
    if args.out is not None:
        write_rows_csv(args.out, [row], list(row))
    print(f"h = {fmt(row['estimate'])} {units} (mc_std_error {fmt(row['mc_std_error'])})")
    return EXIT_OK


def _print_mi(estimate, args, extra: dict) -> None:
    scale, units = _scale(args)
    row = {
        "mi": estimate.value * scale,
        "std_error": estimate.std_error * scale,
        "units": units,
        **extra,
        "sigma": args.sigma,
        "target_dim": args.dim,
        "n_mc": args.n_mc,
        "seed": args.seed,
    }
    if args.out is not None:
        write_rows_csv(args.out, [row], list(row))
    print(f"I = {fmt(row['mi'])} {units} (std_error {fmt(row['std_error'])})")


def cmd_mi_cond(args) -> int:
    dataset = ingest_activation_dump(args.dump)
    marginal = read_samples(args.marginal) if args.marginal is not None else None
    estimate = conditional_mi(dataset, _config(args), marginal=marginal)
    scale, _ = _scale(args)
    extra = {
        "n_conditions": dataset.n_conditions,
        "marginal_entropy": estimate.components["marginal"].value * scale,
        "conditional_entropy_mean": conditional_entropy(estimate) * scale,
    }
    _print_mi(estimate, args, extra)
    return EXIT_OK


def cmd_mi_joint(args) -> int:
    data = JointDataset(x=read_samples(args.x), y=read_samples(args.y))
    estimate = joint_mi(data, _config(args), target_dim_joint=args.joint_dim)
    scale, _ = _scale(args)
    extra = {
        "h_x": estimate.components["x"].value * scale,
        "h_y": estimate.components["y"].value * scale,
        "h_joint": estimate.components["joint"].value * scale,
    }
    _print_mi(estimate, args, extra)
    return EXIT_OK


def _int_list(text: str) -> tuple[int, ...]:
    return tuple(int(v) for v in text.split(",") if v)


def _float_list(text: str) -> tuple[float, ...]:
    return tuple(float(v) for v in text.split(",") if v)


def cmd_sweep(args) -> int:
    if args.out is None:
        raise InvalidConfig("sweep requires --out")
    spec = SweepSpec(
        kinds=tuple(k.strip() for k in args.kind.split(",") if k.strip()),
        n_values=_int_list(args.n) if not args.full else (1000, 10_000, 100_000),
        d_values=_int_list(args.d) if args.d else (args.dim,),
        sigma_values=_float_list(args.sigmas) if args.sigmas else (args.sigma,),
        lambda_res_values=_float_list(args.lambda_res),
        repeats=args.repeats,
        ambient_dim=args.ambient_dim,
        n_mc=args.n_mc if not args.full else 1000,
        seed=args.seed,
        split=args.split,
        center=not args.no_center,
        reference=args.reference,
    )
    records = run_sweep(spec)
    write_sweep_csv(args.out, records, timing=args.timing)
    failed = sum(1 for r in records if r.error)
    print(f"wrote {args.out}: {len(records)} rows ({failed} failed cells)")
    return EXIT_OK


def cmd_indep_auc(args) -> int:
    report = run_indep_auc(
        args.n_datasets, args.n, args.dim, args.ambient_dim, args.noise_std, _config(args)
    )
    if args.out is not None:
        columns = ["dataset", "dependent", "score_reduced", "score_ambient"]
        write_rows_csv(args.out, list(report.rows), columns)
    print(f"auc_reduced = {fmt(report.auc_reduced)}")
    print(f"auc_ambient = {fmt(report.auc_ambient)}")
    return EXIT_OK


def cmd_activation_mi(args) -> int:
    if args.out is None:
        raise InvalidConfig("activation-mi requires --out")
    entries = []
    for spec in args.dumps:
        parts = spec.split(":", 2)
        if len(parts) != 3:
            raise InvalidConfig(f"expected LAYER:EPOCH:PATH, got {spec!r}")
        try:
            epoch = int(parts[1])
        except ValueError:
            raise InvalidConfig(f"epoch must be an integer in {spec!r}") from None
        entries.append((parts[0], epoch, Path(parts[2])))
    rows = run_activation_mi(entries, _config(args))
    write_rows_csv(args.out, rows, ACTIVATION_COLUMNS)
    failed = sum(1 for r in rows if r["error"])
    print(f"wrote {args.out}: {len(rows)} rows ({failed} failed dumps)")
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (UnicodeDecodeError, csv.Error) as exc:  # input bytes or cells no reader takes
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (InvalidConfig, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (SmoothentError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
