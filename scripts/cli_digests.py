"""sha256 of every output of a fixed list of ``smoothent`` CLI invocations.

Runs 27 invocations in a fresh temporary directory: ``gen`` (gaussian, wide
gaussian, conical, pair, and a 300-dimensional pair whose rows are filled in
two blocks of dimensions), ``entropy`` (``--save-pca``, ``--bits``, Gram
route ``half`` and ``reuse``, ``--no-center``, conical, the covariance route
fitted on all rows by ``--split reuse``, the uncentered Gram route with
``--split reuse --no-center``, conical with ``--n-mc 2100``, more draws
per center than one kernel chunk holds, the 300-dimensional pair's x
at ``--dim 300``, whose kernel's scratch budget cuts its blocks to 4
centers, and the gaussian at ``--n-mc 64``, whose 300 evaluation centers
are enough draws and centers for the kernel to pack), ``mi-joint``
(``half``, ``reuse``), ``mi-cond`` (``half``, ``reuse``, ``--bits``),
``sweep`` (a 2 x 2 grid, one on the default ``--d`` and ``--sigmas``, and
a gaussian and spiral2d grid, whose spiral rows have no reference),
``indep-auc`` and ``activation-mi`` (the dump next to a missing path, and
next to a dump whose header cell exceeds ``csv``'s field limit, each one
error row).  ``mi-cond`` and ``activation-mi`` read a
3-condition activation dump written by ``io.write_activation_dump`` from
seeded draws.  Prints ``sha256  file`` for every file written, each
invocation's standard output included (as ``<name>.out``), then one
combined digest over those lines.

Two trees give the same digests when their CLI writes the same bytes, so
running this before and after a change records whether any output moved.
The package is imported from the ``src`` directory next to this script.
Bytes depend on the BLAS thread count (see README, Reproducibility), so
``OPENBLAS_NUM_THREADS`` is set to 1 unless the environment sets it.

``--keep DIR`` copies every file into ``DIR``.  ``--against DIR`` compares
each file with the one of the same name in ``DIR`` (kept by an earlier run,
say at the parent commit) and, after the digests, prints one line per file
whose bytes differ: the largest relative change of any numeric cell (cells
are comma-separated in ``.csv`` files and blank-separated elsewhere), with
its column and both values, or why no such figure exists; then the count of
files that moved.

Usage: ``python3 scripts/cli_digests.py [--keep DIR] [--against DIR]``
"""

import argparse
import contextlib
import csv
import hashlib
import io
import math
import os
import shutil
import sys
import tempfile
from pathlib import Path

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from smoothent import cli, substream  # noqa: E402
from smoothent.io import write_activation_dump  # noqa: E402
from smoothent.pca import SampleMatrix  # noqa: E402

FAST = ["--n-mc", "20"]

INVOCATIONS = [
    ("gen_gaussian", ["gen", "--kind", "gaussian", "--n", "600", "--dim", "3",
                      "--ambient-dim", "40", "--lambda-res", "0.01", "--seed", "1",
                      "--out", "gaussian.csv"]),
    ("gen_wide", ["gen", "--kind", "gaussian", "--n", "300", "--dim", "5",
                  "--ambient-dim", "2000", "--lambda-res", "0.01", "--seed", "2",
                  "--out", "wide.csv"]),
    ("gen_conical", ["gen", "--kind", "conical", "--n", "400", "--ambient-dim", "20",
                     "--lambda-res", "0.05", "--seed", "3", "--out", "conical.csv"]),
    ("gen_pair", ["gen", "--kind", "pair", "--n", "300", "--dim", "2", "--ambient-dim", "30",
                  "--noise-std", "0.05", "--seed", "4", "--out", "pair"]),
    ("gen_pair_wide", ["gen", "--kind", "pair", "--n", "700", "--dim", "2", "--ambient-dim", "300",
                       "--noise-std", "0.05", "--seed", "20", "--out", "pair_wide"]),
    ("entropy_save_pca", ["entropy", "gaussian.csv", "--sigma", "0.1", "--dim", "3",
                          "--seed", "5", "--save-pca", "gaussian_pca.csv",
                          "--out", "entropy.csv", *FAST]),
    ("entropy_bits", ["entropy", "gaussian.csv", "--sigma", "0.2", "--dim", "2",
                      "--seed", "6", "--bits", "--out", "entropy_bits.csv", *FAST]),
    ("entropy_gram_half", ["entropy", "wide.csv", "--sigma", "0.1", "--dim", "5",
                           "--seed", "7", "--save-pca", "wide_half_pca.csv",
                           "--out", "entropy_gram_half.csv", *FAST]),
    ("entropy_gram_reuse", ["entropy", "wide.csv", "--sigma", "0.1", "--dim", "5",
                            "--seed", "7", "--split", "reuse", "--save-pca",
                            "wide_reuse_pca.csv", "--out", "entropy_gram_reuse.csv", *FAST]),
    ("entropy_no_center", ["entropy", "gaussian.csv", "--sigma", "0.1", "--dim", "3",
                           "--seed", "8", "--no-center", "--out", "entropy_no_center.csv",
                           *FAST]),
    ("entropy_conical", ["entropy", "conical.csv", "--sigma", "0.1", "--dim", "3",
                         "--seed", "9", "--save-pca", "conical_pca.csv",
                         "--out", "entropy_conical.csv", *FAST]),
    ("entropy_reuse", ["entropy", "gaussian.csv", "--sigma", "0.1", "--dim", "3",
                       "--seed", "17", "--split", "reuse", "--save-pca", "gaussian_reuse_pca.csv",
                       "--out", "entropy_reuse.csv", *FAST]),
    ("entropy_gram_no_center", ["entropy", "wide.csv", "--sigma", "0.1", "--dim", "5",
                                "--seed", "18", "--split", "reuse", "--no-center", "--save-pca",
                                "wide_no_center_pca.csv", "--out", "entropy_gram_no_center.csv",
                                *FAST]),
    ("entropy_draw_chunks", ["entropy", "conical.csv", "--sigma", "0.1", "--dim", "3",
                             "--seed", "19", "--n-mc", "2100",
                             "--out", "entropy_draw_chunks.csv"]),
    ("entropy_split_blocks", ["entropy", "pair_wide_x.csv", "--dim", "300", "--sigma", "1.0",
                              "--seed", "22", "--n-mc", "20", "--out", "entropy_split_blocks.csv"]),
    ("entropy_packed", ["entropy", "gaussian.csv", "--sigma", "0.1", "--dim", "3",
                        "--seed", "23", "--n-mc", "64", "--out", "entropy_packed.csv"]),
    ("mi_joint_half", ["mi-joint", "pair_x.csv", "pair_y.csv", "--sigma", "0.5", "--dim", "2",
                       "--seed", "10", "--out", "mi_joint_half.csv", *FAST]),
    ("mi_joint_reuse", ["mi-joint", "pair_x.csv", "pair_y.csv", "--sigma", "0.5", "--dim", "2",
                        "--seed", "10", "--split", "reuse", "--out", "mi_joint_reuse.csv",
                        *FAST]),
    ("mi_cond_half", ["mi-cond", "dump.csv", "--sigma", "0.2", "--dim", "2", "--seed", "11",
                      "--out", "mi_cond_half.csv", *FAST]),
    ("mi_cond_reuse", ["mi-cond", "dump.csv", "--sigma", "0.2", "--dim", "2", "--seed", "11",
                       "--split", "reuse", "--out", "mi_cond_reuse.csv", *FAST]),
    ("mi_cond_bits", ["mi-cond", "dump.csv", "--sigma", "0.2", "--dim", "2", "--seed", "11",
                      "--bits", "--out", "mi_cond_bits.csv", *FAST]),
    ("activation_mi", ["activation-mi", "h1:0:dump.csv", "h2:1:missing.csv", "--sigma", "0.2",
                       "--dim", "2", "--seed", "15", "--out", "activation_mi.csv", *FAST]),
    ("activation_mi_wide_header", ["activation-mi", "h1:0:dump.csv", "h2:1:wide_header.csv",
                                   "--sigma", "0.2", "--dim", "2", "--seed", "15",
                                   "--out", "activation_mi_wide_header.csv", *FAST]),
    ("sweep", ["sweep", "--kind", "gaussian", "--n", "100,200", "--d", "2,3", "--sigmas", "0.2",
               "--repeats", "2", "--ambient-dim", "20", "--seed", "12", "--out", "sweep.csv",
               *FAST]),
    ("sweep_defaults", ["sweep", "--n", "60", "--repeats", "2", "--ambient-dim", "12",
                        "--seed", "16", "--out", "sweep_defaults.csv", *FAST]),
    ("sweep_mixed", ["sweep", "--kind", "gaussian,spiral2d", "--n", "80", "--d", "2",
                     "--repeats", "2", "--ambient-dim", "10", "--seed", "21",
                     "--out", "sweep_mixed.csv", *FAST]),
    ("indep_auc", ["indep-auc", "--n-datasets", "10", "--n", "150", "--dim", "2",
                   "--ambient-dim", "30", "--sigma", "1.0", "--seed", "13", "--out", "auc.csv",
                   *FAST]),
]


def write_dump(path) -> None:
    """A 3-condition dump of 12-dimensional draws with ragged groups (60, 45, 75 rows)."""
    blocks = [
        SampleMatrix(substream(14, k).standard_normal((12, count)) + 0.5 * k)
        for k, count in enumerate((60, 45, 75))
    ]
    write_activation_dump(path, [0, 1, 2], blocks)


def write_wide_header_dump(path) -> None:
    """A dump whose one feature column is named by 200,000 characters, beyond ``csv``'s limit."""
    Path(path).write_text("cond," + "f" * 200_000 + "\n0,1.5\n", encoding="utf-8")


def cells(path) -> list[list[str]]:
    """A file's rows of cells: comma-separated in a ``.csv`` file, blank-separated elsewhere."""
    text = path.read_text(encoding="utf-8")
    if path.suffix == ".csv":
        return list(csv.reader(io.StringIO(text)))
    return [line.split() for line in text.splitlines()]


PUNCTUATION = "()[],;:="


def as_float(cell: str):
    """The number a cell holds, punctuation around it ignored, or None."""
    try:
        return float(cell.strip(PUNCTUATION))
    except ValueError:
        return None


def label(header, row, j) -> str:
    """A cell's column name: its header cell in a ``.csv`` file, else the nearest word before it."""
    if header:
        return header[j] if j < len(header) else f"cell {j + 1}"
    words = [w.strip(PUNCTUATION) for w in row[:j] if as_float(w) is None]
    return next((w for w in reversed(words) if w), f"cell {j + 1}")


def largest_move(old_path, new_path) -> str:
    """The largest relative change of a numeric cell between two files, as one line."""
    old_rows, new_rows = cells(old_path), cells(new_path)
    if [len(r) for r in old_rows] != [len(r) for r in new_rows]:
        return "layout changed"
    csv_file = old_path.suffix == ".csv"
    best = None
    for i, (old_row, new_row) in enumerate(zip(old_rows, new_rows)):
        for j, (a, b) in enumerate(zip(old_row, new_row)):
            if a == b:
                continue
            x, y = as_float(a), as_float(b)
            if x is None or y is None:
                return f"text changed in row {i + 1}: {a!r} -> {b!r}"
            rel = abs(y - x) / abs(x) if x else math.inf
            if best is None or rel > best[0]:
                header = old_rows[0] if csv_file and i else []
                best = (rel, label(header, old_row, j), a.strip(PUNCTUATION), b.strip(PUNCTUATION))
    if best is None:
        return "no cell changed"
    rel, name, a, b = best
    return f"{rel:.2g} relative ({name}: {a} -> {b})"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="sha256 of every output of fixed CLI runs")
    parser.add_argument("--keep", type=Path, help="copy every output file into this directory")
    parser.add_argument("--against", type=Path,
                        help="report the largest numeric move of each file that differs from "
                             "the file of the same name in this directory")
    args = parser.parse_args(argv)
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        os.chdir(work)
        try:
            write_dump("dump.csv")
            write_wide_header_dump("wide_header.csv")
            for name, argv in INVOCATIONS:
                out = io.StringIO()
                with contextlib.redirect_stdout(out):
                    code = cli.main(argv)
                if code != cli.EXIT_OK:
                    print(f"{name}: exit {code}", file=sys.stderr)
                    return 1
                (work / f"{name}.out").write_text(out.getvalue(), encoding="utf-8")
            paths = sorted(work.iterdir())
            lines = [f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {path.name}" for path in paths]
            moves = []
            if args.against is not None:
                against = (Path(home) / args.against).resolve()
                for path in paths:
                    old = against / path.name
                    if not old.is_file():
                        moves.append(f"moved  {path.name}  new file")
                    elif old.read_bytes() != path.read_bytes():
                        moves.append(f"moved  {path.name}  {largest_move(old, path)}")
            if args.keep is not None:
                keep = Path(home) / args.keep
                keep.mkdir(parents=True, exist_ok=True)
                for path in paths:
                    shutil.copyfile(path, keep / path.name)
        finally:
            os.chdir(home)
    for line in lines:
        print(line)
    combined = hashlib.sha256("".join(line + "\n" for line in lines).encode()).hexdigest()
    print(f"{combined}  combined")
    if args.against is not None:
        for line in moves:
            print(line)
        print(f"{len(moves)} of {len(lines)} files moved")
    return 0


if __name__ == "__main__":
    sys.exit(main())
