"""CSV formats: sample files, fitted-model blocks, activation dumps.

All files are UTF-8, comma-delimited, ``.`` decimal, LF line endings.
Floats are written with ``repr``: the shortest string that parses back to
the identical double, so every emitted file re-reads into exactly the values
that produced it and repeated runs are byte-identical.

Sample files hold one sample per row with D float columns; a header row is
optional on input and detected by any non-numeric token.  A fitted model is
stored as positional CSV blocks: the centering vector, the full eigenvalue
spectrum, then the ``d`` basis vectors (one eigenvector per row).

Every numeric file is read by one parser and written by one writer.
``np.loadtxt`` parses the data rows; a file it rejects, or whose width
differs from its header's, is re-read by a ``csv`` + ``float`` row loop that
raises the line-numbered ``InvalidData`` (or accepts Python float syntax
loadtxt lacks, such as ``1_0``), so the values, the accepted inputs and the
messages are those of that loop alone.  Float rows are written as
comma-joined ``repr`` of ``tolist()`` values, byte for byte what
``csv.writer`` over ``fmt`` gives.

Byte-identical reruns assume a fixed BLAS thread count: the spectrum and
basis of a fitted model can move by a few ulp between, e.g.,
``OPENBLAS_NUM_THREADS=1`` and ``2``, which changes ``save_pca_model``
files and the ``eigen_gap``/``residual`` columns of result files.
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
    "write_rows_csv",
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


def write_rows_csv(path, rows: list[dict], columns: list[str]) -> None:
    """Write dict rows with a fixed column order (canonical formatting)."""
    with _open_write(path) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([fmt(row.get(col)) for col in columns])


def _is_numeric_row(row: list[str]) -> bool:
    for token in row:
        try:
            float(token)
        except ValueError:
            return False
    return True


def _row_loop(path, numbered_rows, width=None) -> np.ndarray:
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


def _float_rows(path, fh, header=None) -> np.ndarray:
    """Parse the rest of the open CSV ``fh`` into an ``(n, width)`` float array.

    ``fh`` is positioned just after ``header``, the first row, or at the start
    when there is none; ``width`` is the header's or the first data row's.
    ``np.loadtxt`` parses every file it accepts to the same doubles as
    ``float``.  A file it rejects, or whose width differs from the header's,
    is parsed again by ``_row_loop``, which raises the line-numbered
    ``InvalidData`` or accepts what ``float`` accepts and loadtxt does not
    (``1_0``, non-ASCII digits).
    """
    for line in fh:
        if line.strip("\r\n"):
            break
    else:
        raise InvalidData(f"{path}: no data rows")  # before loadtxt, which would warn
    try:
        rows = np.loadtxt(
            itertools.chain([line], fh),
            delimiter=",",
            comments=None,
            quotechar='"',
            ndmin=2,
            dtype=np.float64,
        )
        if header is None or rows.shape[1] == len(header):
            return rows
    except ValueError:
        pass
    fh.seek(0)
    reader = csv.reader(fh)
    if header is None:
        return _row_loop(path, enumerate(reader, start=1))
    next(reader)
    return _row_loop(path, enumerate(reader, start=2), width=len(header))


def _write_float_rows(fh, rows, lead: str = "") -> None:
    """Write each row of floats as ``lead`` plus its comma-joined ``repr`` values.

    ``repr`` of a Python float is what ``fmt`` writes for it, and it holds no
    character ``csv.writer`` would quote, so the bytes are those of
    ``csv.writer`` over ``fmt`` at the speed of ``str.join``.
    """
    for row in rows:
        fh.write(lead + ",".join(map(repr, row.tolist())) + "\n")


def read_samples(path) -> SampleMatrix:
    """Read a sample CSV (one row per sample; header auto-detected)."""
    path = Path(path)
    with path.open(newline="", encoding="utf-8") as fh:
        first = next(csv.reader(fh), [])
        if _is_numeric_row(first):
            fh.seek(0)
            rows = _float_rows(path, fh)
        else:
            rows = _float_rows(path, fh, header=first)
    return SampleMatrix.from_rows(rows)


def write_samples(path, samples: SampleMatrix, header: bool = True) -> None:
    """Write a sample CSV (one row per sample, ``f0..f{D-1}`` header)."""
    with _open_write(path) as fh:
        if header:
            fh.write(",".join(f"f{k}" for k in range(samples.dim)) + "\n")
        _write_float_rows(fh, samples.data.T)


def save_pca_model(path, model: PcaModel) -> None:
    """Write the positional model blocks: mean, spectrum, then d basis rows."""
    with _open_write(path) as fh:
        _write_float_rows(fh, (model.mean, model.spectrum))
        _write_float_rows(fh, model.basis.T)


def load_pca_model(path) -> PcaModel:
    """Inverse of :func:`save_pca_model`; gap and residual derive from the spectrum."""
    path = Path(path)
    with path.open(newline="", encoding="utf-8") as fh:
        blocks = _float_rows(path, fh)
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
        fh.write(",".join(["cond"] + [f"f{k}" for k in range(dim)]) + "\n")
        for cond, block in zip(conditions, blocks):
            _write_float_rows(fh, block.data.T, lead=f"{int(cond)},")


def ingest_activation_dump(path) -> ConditionalDataset:
    """Parse an activation-dump CSV into per-condition sample sets.

    The format is ``cond,f0,f1,...,f{D-1}``: an integer condition id
    followed by the D-dimensional sample, one row per sample.  Conditions
    keep the order of their first row and each group its file order.
    Group sizes may be ragged; an unparseable file raises ``InvalidData``.
    """
    path = Path(path)
    with path.open(newline="", encoding="utf-8") as fh:
        header = next(csv.reader(fh), None)
        if header is None:
            raise InvalidData(f"{path}: empty file")
        if not header or header[0].strip() != "cond":
            raise InvalidData(f"{path}: first column must be 'cond'")
        if len(header) < 2:
            raise InvalidData(f"{path}: no feature columns")
        rows = _float_rows(path, fh, header=header)
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
    row = dict(x_file=x_path.name, y_file=y_path.name, dependent=bool(dependent), seed=seed)
    write_rows_csv(manifest, [row], list(row))
    return {"x": x_path, "y": y_path, "manifest": manifest}

