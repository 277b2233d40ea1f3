"""CSV formats: sample files, fitted-model blocks, activation dumps.

All files are UTF-8, comma-delimited, ``.`` decimal, LF line endings.
Floats are written with ``repr``: the shortest string that parses back to
the identical double, so every emitted file re-reads into exactly the values
that produced it and repeated runs are byte-identical.

Sample files hold one sample per row with D float columns; a header row is
optional on input and detected by any non-numeric token.  A fitted model is
stored as positional CSV blocks: the centering vector, the full eigenvalue
spectrum, then the ``d`` basis vectors (one eigenvector per row).
"""

import csv
import itertools
from pathlib import Path

import numpy as np

from .errors import InvalidData
from .mi import ConditionalDataset, JointDataset
from .pca import PcaModel, SampleMatrix

__all__ = [
    "read_samples",
    "write_samples",
    "save_pca_model",
    "load_pca_model",
    "write_activation_dump",
    "ingest_activation_dump",
    "write_joint_dataset",
    "read_joint_dataset",
]


def fmt(value) -> str:
    """Canonical CSV rendering: shortest round-trip for floats, str otherwise."""
    if value is None:
        return ""
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    return str(value)


def _open_write(path):
    return Path(path).open("w", newline="\n", encoding="utf-8")


def _is_numeric_row(row: list[str]) -> bool:
    for token in row:
        try:
            float(token)
        except ValueError:
            return False
    return True


def _float_rows(path, numbered_rows, width=None) -> np.ndarray:
    """Parse ``(lineno, row)`` pairs into an ``(n, width)`` float array.

    Blank rows are skipped and ``width`` defaults to the first row's.  A
    short, long or unparseable row raises a line-numbered ``InvalidData``.
    """
    rows: list[list[float]] = []
    for lineno, row in numbered_rows:
        if not row:
            continue
        if width is None:
            width = len(row)
        if len(row) != width:
            raise InvalidData(f"{path}:{lineno}: expected {width} fields, got {len(row)}")
        try:
            rows.append([float(v) for v in row])
        except ValueError as exc:
            raise InvalidData(f"{path}:{lineno}: {exc}") from None
    if not rows:
        raise InvalidData(f"{path}: no data rows")
    return np.asarray(rows)


def read_samples(path) -> SampleMatrix:
    """Read a sample CSV (one row per sample; header auto-detected)."""
    path = Path(path)
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        first = next(reader, [])
        if _is_numeric_row(first):
            rows = _float_rows(path, enumerate(itertools.chain([first], reader), start=1))
        else:
            rows = _float_rows(path, enumerate(reader, start=2), width=len(first))
    return SampleMatrix.from_rows(rows)


def write_samples(path, samples: SampleMatrix, header: bool = True) -> None:
    """Write a sample CSV (one row per sample, ``f0..f{D-1}`` header)."""
    with _open_write(path) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        if header:
            writer.writerow([f"f{k}" for k in range(samples.dim)])
        for row in samples.data.T:
            writer.writerow([fmt(v) for v in row])


def save_pca_model(path, model: PcaModel) -> None:
    """Write the positional model blocks: mean, spectrum, then d basis rows."""
    with _open_write(path) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow([fmt(v) for v in model.mean])
        writer.writerow([fmt(v) for v in model.spectrum])
        for column in model.basis.T:
            writer.writerow([fmt(v) for v in column])


def load_pca_model(path) -> PcaModel:
    """Inverse of :func:`save_pca_model`; gap and residual derive from the spectrum."""
    path = Path(path)
    with path.open(newline="", encoding="utf-8") as fh:
        blocks = _float_rows(path, enumerate(csv.reader(fh), start=1))
    if len(blocks) < 3:
        raise InvalidData(f"{path}: expected mean, spectrum and at least one basis row")
    return PcaModel(
        basis=blocks[2:].T,
        spectrum=blocks[1],
        ambient_dim=blocks.shape[1],
        target_dim=len(blocks) - 2,
        mean=blocks[0],
    )


def write_activation_dump(path, conditions, sample_blocks) -> None:
    """Write a ``cond,f0,...`` dump: one block of rows per condition id."""
    blocks = list(sample_blocks)
    if not blocks:
        raise InvalidData("need at least one condition block")
    dim = blocks[0].dim
    with _open_write(path) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["cond"] + [f"f{k}" for k in range(dim)])
        for cond, block in zip(conditions, blocks):
            for row in block.data.T:
                writer.writerow([str(int(cond))] + [fmt(v) for v in row])


def ingest_activation_dump(path) -> ConditionalDataset:
    """Parse an activation-dump CSV into per-condition sample sets.

    The format is ``cond,f0,f1,...,f{D-1}``: an integer condition id
    followed by the D-dimensional sample, one row per sample.  Conditions
    keep the order of their first row and each group its file order.
    Group sizes may be ragged; an unparseable file raises ``InvalidData``.
    """
    path = Path(path)
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise InvalidData(f"{path}: empty file")
        if not header or header[0].strip() != "cond":
            raise InvalidData(f"{path}: first column must be 'cond'")
        if len(header) < 2:
            raise InvalidData(f"{path}: no feature columns")
        rows = _float_rows(path, enumerate(reader, start=2), width=len(header))
    conds = rows[:, 0]
    integral = np.isfinite(conds) & (conds == np.round(conds))
    if not integral.all():
        bad = float(conds[~integral][0])
        raise InvalidData(f"{path}: condition ids must be integers, got {bad!r}")
    _, first = np.unique(conds, return_index=True)
    order = conds[np.sort(first)]
    return ConditionalDataset(
        conditions=tuple(int(c) for c in order),
        samples=tuple(SampleMatrix.from_rows(rows[conds == c, 1:]) for c in order),
    )


def write_joint_dataset(prefix, data: JointDataset, dependent: bool, seed: int) -> dict:
    """Write a paired dataset as two sample files plus a one-line manifest.

    Returns the written paths.  The manifest records the file names, the
    dependence flag and the generating seed.
    """
    prefix = Path(prefix)
    x_path = prefix.with_name(prefix.name + "_x.csv")
    y_path = prefix.with_name(prefix.name + "_y.csv")
    manifest = prefix.with_name(prefix.name + "_manifest.csv")
    write_samples(x_path, data.x)
    write_samples(y_path, data.y)
    with _open_write(manifest) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["x_file", "y_file", "dependent", "seed"])
        writer.writerow([x_path.name, y_path.name, fmt(bool(dependent)), str(seed)])
    return {"x": x_path, "y": y_path, "manifest": manifest}


def read_joint_dataset(manifest_path) -> tuple[JointDataset, bool, int]:
    """Read a paired dataset back from its manifest."""
    manifest_path = Path(manifest_path)
    with manifest_path.open(newline="", encoding="utf-8") as fh:
        rows = [row for row in csv.reader(fh) if row]
    if len(rows) != 2 or rows[0][:4] != ["x_file", "y_file", "dependent", "seed"]:
        raise InvalidData(f"{manifest_path}: not a joint-dataset manifest")
    x_name, y_name, dep, seed = rows[1][:4]
    base = manifest_path.parent
    data = JointDataset(x=read_samples(base / x_name), y=read_samples(base / y_name))
    return data, dep.strip().lower() == "true", int(seed)
