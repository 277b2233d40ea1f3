"""Command-line front end.

Subcommands: ``gen`` (synthetic datasets), ``entropy`` (single estimate),
``mi-cond`` / ``mi-joint`` (mutual information), ``sweep`` (parameter grids),
``indep-auc`` (independence-test AUC), ``activation-mi`` (MI trajectories
from activation dumps).  All outputs are CSV; entropies are in nats unless
``--bits`` (``entropy``, ``mi-cond``, ``mi-joint``) converts them for display.
Each subcommand takes only the flags it reads, spelled out in full; any
other, an abbreviation included, is a usage error.  ``gen``, ``sweep`` and
``activation-mi`` require ``--out``.  Every subcommand leaves through ``_emit``.

Exit codes: 0 success, 2 invalid configuration (``InvalidConfig``,
``ValueError``), 3 data errors (other ``SmoothentError``, ``OSError``,
``MemoryError``), an unreadable input file included.
"""

import argparse
import math
import sys
from dataclasses import asdict
from functools import partial
from pathlib import Path

from .errors import REPORTED_ERRORS, InvalidConfig
from .estimator import SPLIT_POLICIES, EstimatorConfig, pca_smoothed_entropy
from .experiments import (
    ACTIVATION_COLUMNS,
    AUC_COLUMNS,
    SWEEP_COLUMNS,
    SweepSpec,
    conditional_mi_figures,
    run_activation_mi,
    run_indep_auc,
    run_sweep,
)
from .io import (
    fmt,
    ingest_activation_dump,
    read_samples,
    save_pca_model,
    write_joint_dataset,
    write_rows_csv,
    write_samples,
)
from .mi import JointDataset, conditional_mi, joint_mi
from .synthetic import SPIRAL_KINDS, gen_common_signal_pair, gen_embedded_gaussian, gen_spiral

LN2 = math.log(2.0)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3

# The subcommands whose output is the --out file itself
_OUT_REQUIRED = ("gen", "sweep", "activation-mi")
# Row columns that hold entropies in nats, which --bits converts
_NATS_COLUMNS = {"estimate", "mc_std_error", "correction", "mi", "std_error",
                 "marginal_entropy", "conditional_entropy_mean", "h_x", "h_y", "h_joint"}


def _flags(*, estimating: bool, grid: bool = False, bits: bool = False,
           out: str = "output CSV path") -> argparse.ArgumentParser:
    """The shared flags a subcommand reads: seed and output always, the
    estimator's settings when it estimates (less ``--sigma`` and ``--dim``
    for a ``grid``, which takes lists of its own), ``--bits`` when it
    scales its rows; ``out`` is the help of ``--out``."""
    flags = argparse.ArgumentParser(add_help=False)
    flags.add_argument("--seed", type=int, default=0, help="64-bit master seed")
    if estimating and not grid:
        flags.add_argument("--sigma", type=float, default=0.1, help="smoothing noise std dev")
        flags.add_argument("--dim", type=int, default=3, help="projection target dimension d")
    if estimating:
        flags.add_argument("--n-mc", type=int, default=100, help="Monte-Carlo trials per center")
        flags.add_argument("--split", choices=SPLIT_POLICIES, default="half",
                           help="sample split policy (half = independent fit/eval sets)")
        flags.add_argument("--no-center", action="store_true", help="skip mean subtraction")
    if bits:
        flags.add_argument("--bits", action="store_true",
                           help="display entropies/MI in bits instead of nats")
    flags.add_argument("--out", type=Path, default=None, help=out)
    return flags


def build_parser() -> argparse.ArgumentParser:
    plain = _flags(estimating=False, out="output CSV path (a file prefix for --kind pair)")
    estimating = _flags(estimating=True)
    scaled = _flags(estimating=True, bits=True)
    swept = _flags(estimating=True, grid=True)
    parser = argparse.ArgumentParser(
        prog="smoothent",
        description="Smoothed entropy and mutual information estimation via "
                    "PCA dimensionality reduction.",
    )
    # no abbreviations: a removed flag that prefixes a kept one would mean the kept one
    add = partial(parser.add_subparsers(dest="command", required=True).add_parser,
                  allow_abbrev=False)

    p = add("gen", parents=[plain], help="generate a synthetic dataset")
    p.add_argument("--dim", type=int, default=3, help="intrinsic dimension (gaussian, pair)")
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

    p = add("entropy", parents=[scaled], help="smoothed entropy of a sample file")
    p.add_argument("samples", type=Path, help="sample CSV (one row per sample)")
    p.add_argument("--save-pca", type=Path, default=None, help="write the fitted model CSV")
    p.set_defaults(func=cmd_entropy)

    p = add("mi-cond", parents=[scaled],
            help="conditional-sampling MI from an activation dump")
    p.add_argument("dump", type=Path, help="activation dump CSV (cond,f0,...)")
    p.add_argument("--marginal", type=Path, default=None,
                   help="marginal sample CSV (default: all rows of the dump); "
                        "conditions are weighted by their row counts")
    p.set_defaults(func=cmd_mi_cond)

    p = add("mi-joint", parents=[scaled], help="joint-sampling MI from paired files")
    p.add_argument("x", type=Path, help="sample CSV for X")
    p.add_argument("y", type=Path, help="sample CSV for Y (column-paired)")
    p.set_defaults(func=cmd_mi_joint)

    p = add("sweep", parents=[swept], help="parameter-sweep grid, CSV output")
    p.add_argument("--kind", default="gaussian", help="comma list of cell kinds")
    p.add_argument("--n", default="100,1000", help="comma list of per-half sample counts")
    p.add_argument("--d", default="3", help="comma list of target dims")
    p.add_argument("--sigmas", default="0.1", help="comma list of smoothing noise std devs")
    p.add_argument("--lambda-res", default="0.01", help="comma list of residual intensities")
    p.add_argument("--repeats", type=int, default=10, help="seeds per cell")
    p.add_argument("--ambient-dim", type=int, default=100)
    p.add_argument("--timing", action="store_true",
                   help="add a wall_time_s column (breaks byte reproducibility)")
    p.set_defaults(func=cmd_sweep)

    p = add("indep-auc", parents=[estimating],
            help="independence-testing AUC, reduced vs ambient")
    p.add_argument("--n-datasets", type=int, default=20, help="balanced total dataset count")
    p.add_argument("--n", type=int, default=500, help="pairs per dataset")
    p.add_argument("--ambient-dim", type=int, default=100)
    p.add_argument("--noise-std", type=float, default=0.01)
    p.set_defaults(func=cmd_indep_auc)

    p = add("activation-mi", parents=[estimating],
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


def _in_units(args, row: dict) -> dict:
    """``row``, built in nats, with its ``_NATS_COLUMNS`` and ``units`` in bits under ``--bits``."""
    if args.bits:
        row = {k: v * (1.0 / LN2) if k in _NATS_COLUMNS else v for k, v in row.items()}
        row["units"] = "bits"
    return row


def _emit(args, lines: list[str], rows: list[dict] | None = None, columns=None) -> int:
    """Every subcommand's exit: write ``rows`` under ``columns`` to ``--out``
    when both are given (``gen`` writes its own files), then print ``lines``."""
    if rows is not None and args.out is not None:
        write_rows_csv(args.out, rows, columns)
    print(*lines, sep="\n")
    return EXIT_OK


def cmd_gen(args) -> int:
    if args.kind == "pair":
        data, dependent = gen_common_signal_pair(
            args.dim, args.ambient_dim, args.n, args.noise_std, args.seed,
            dependent=not args.independent,
        )
        paths = write_joint_dataset(args.out, data, dependent, args.seed)
        return _emit(args, [f"wrote {paths['x']}, {paths['y']}, {paths['manifest']}"])
    if args.kind == "gaussian":
        samples, _ = gen_embedded_gaussian(
            args.dim, args.ambient_dim, args.lambda_res, args.n, args.seed
        )
    else:
        samples = gen_spiral(args.kind, args.lambda_res, args.ambient_dim, args.n, args.seed)
    write_samples(args.out, samples)
    return _emit(args, [f"wrote {args.out} ({samples.count} samples x {samples.dim} dims)"])


def cmd_entropy(args) -> int:
    samples = read_samples(args.samples)
    result = pca_smoothed_entropy(samples, _config(args))
    if args.save_pca is not None:
        save_pca_model(args.save_pca, result.pca)
    row = _in_units(args, {
        "estimate": result.value,
        "mc_std_error": result.mc_std_error,
        "units": "nats",
        "ambient_dim": samples.dim,
        "target_dim": args.dim,
        "sigma": args.sigma,
        "n_mc": args.n_mc,
        "seed": args.seed,
        "eigen_gap": result.pca.eigen_gap,
        "residual": result.pca.residual,
        "correction": result.correction,
    })
    line = f"h = {fmt(row['estimate'])} {row['units']} (mc_std_error {fmt(row['mc_std_error'])})"
    return _emit(args, [line], [row], list(row))


def _emit_mi(args, estimate, figures: dict) -> int:
    """``mi-cond`` and ``mi-joint``'s one row: the MI ``estimate`` and its ``figures``."""
    row = _in_units(args, {
        "mi": estimate.value,
        "std_error": estimate.std_error,
        "units": "nats",
        **figures,
        "sigma": args.sigma,
        "target_dim": args.dim,
        "n_mc": args.n_mc,
        "seed": args.seed,
    })
    line = f"I = {fmt(row['mi'])} {row['units']} (std_error {fmt(row['std_error'])})"
    return _emit(args, [line], [row], list(row))


def cmd_mi_cond(args) -> int:
    dataset = ingest_activation_dump(args.dump)
    marginal = read_samples(args.marginal) if args.marginal is not None else None
    estimate = conditional_mi(dataset, _config(args), marginal=marginal)
    return _emit_mi(args, estimate, conditional_mi_figures(estimate))


def cmd_mi_joint(args) -> int:
    data = JointDataset(x=read_samples(args.x), y=read_samples(args.y))
    estimate = joint_mi(data, _config(args))
    return _emit_mi(args, estimate, {f"h_{k}": v.value for k, v in estimate.components.items()})


def _list(text: str, kind) -> tuple:
    return tuple(kind(v) for v in text.split(",") if v)


def cmd_sweep(args) -> int:
    spec = SweepSpec(
        kinds=tuple(k.strip() for k in args.kind.split(",") if k.strip()),
        n_values=_list(args.n, int),
        d_values=_list(args.d, int),
        sigma_values=_list(args.sigmas, float),
        lambda_res_values=_list(args.lambda_res, float),
        repeats=args.repeats,
        ambient_dim=args.ambient_dim,
        n_mc=args.n_mc,
        seed=args.seed,
        split=args.split,
        center=not args.no_center,
    )
    records = run_sweep(spec)
    columns = SWEEP_COLUMNS + (["wall_time_s"] if args.timing else [])
    failed = sum(1 for r in records if r.error)
    line = f"wrote {args.out}: {len(records)} rows ({failed} failed cells)"
    return _emit(args, [line], [asdict(r) for r in records], columns)


def cmd_indep_auc(args) -> int:
    report = run_indep_auc(
        args.n_datasets, args.n, args.dim, args.ambient_dim, args.noise_std, _config(args)
    )
    lines = [f"auc_reduced = {fmt(report.auc_reduced)}", f"auc_ambient = {fmt(report.auc_ambient)}"]
    return _emit(args, lines, list(report.rows), AUC_COLUMNS)


def cmd_activation_mi(args) -> int:
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
    failed = sum(1 for r in rows if r["error"])
    line = f"wrote {args.out}: {len(rows)} rows ({failed} failed dumps)"
    return _emit(args, [line], rows, ACTIVATION_COLUMNS)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.out is None and args.command in _OUT_REQUIRED:
            raise InvalidConfig(f"{args.command} requires --out")
        return args.func(args)
    except REPORTED_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG if isinstance(exc, (InvalidConfig, ValueError)) else EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
