"""CSV formats: sample files, fitted-model blocks, activation dumps.

All files are UTF-8, comma-delimited, ``.`` decimal, LF line endings.  A
byte order mark at the start of an input file is skipped; none is written.
Input that is not UTF-8, or a cell beyond ``csv``'s field limit, raises
``InvalidData`` naming the file.
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

Large files are read and written on worker processes, by one protocol.
When ``_part_count`` splits the work (Linux, at least two cores and two
parts of a minimum size), a child forked from this process takes each part,
a byte range to parse or a range of rows to format, and sends a header and
its bytes down a one-way pipe; this process takes the parts in order.  Both
are all or nothing: after any failure the file is read or the block written
serially, so the values, the accepted inputs, the messages and the bytes do
not depend on the path.  A pipe, FIFO or terminal is always written
serially.  The worker count is the cores the process may use, not the idle
ones, so a split on cores that other work holds can lose to the serial
path: with both cores of a 2-core machine busy, a forked read of a 78 MB
2000 x 2000 file took 1.54 s against 1.17 s serially (0.86-0.91 s forked on
idle cores).  Known limit: from Python 3.12, ``os.fork`` warns when the
process has other threads, such as OpenBLAS's; this module does not filter
that warning, on reads or writes.

Byte-identical reruns assume a fixed BLAS thread count: the spectrum and
basis of a fitted model can move by a few ulp between, e.g.,
``OPENBLAS_NUM_THREADS=1`` and ``2``, which changes ``save_pca_model``
files and the ``eigen_gap``/``residual`` columns of result files.
"""

import csv
import itertools
import numbers
import os
import stat
import sys
import warnings
from codecs import BOM_UTF8
from contextlib import contextmanager, suppress
from io import SEEK_END, BytesIO, TextIOWrapper
from pathlib import Path

import numpy as np

from . import mixture
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

# Break-even of a two-part read on 2 cores (rows of 1000 values, median of
# 9): 0.94 MiB of data took 23.3 ms serially and 27.7 ms in two parts, 1.88
# MiB 43.3 and 37.5 ms, 3.75 MiB 79.2 and 60.2 ms; with 150 MiB of live heap
# to fork, 0.94 and 1.88 MiB read 0.93x and 1.03x the serial time.  So a
# part holds at least 2 MiB, and a split read gains at least about 14%.
_PART_MIN_BYTES = 2 << 20
# The receiver buffers a whole message before it copies it into the rows, so
# pieces of 64 KiB hold its overhead to a few of them; 1 MiB pieces added
# 0.69x a 2 MB matrix to the traced peak, and read no faster.
_SEND_BYTES = 1 << 16
# Break-even of a two-part write on 2 cores (rows of 1000 values, median of
# 15, two runs): 4000 values a part took 6.7 ms serially and 8.9 ms split,
# 8000 values 12.9 and 12.9 ms, then 18.4 and 13.8 ms, 16000 values 25.0 and
# 20.8 ms, then 34.5 and 22.5 ms (the second runs with 150 MiB of live heap
# to fork).  So a part holds at least 16384 values, twice the break-even.
_WRITE_MIN_VALUES = 1 << 14


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


@contextmanager
def _open_read(path):
    """Open ``path`` as CSV text; non-UTF-8 bytes or an oversized cell raise ``InvalidData``."""
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            yield fh
    except (UnicodeDecodeError, csv.Error) as exc:
        raise InvalidData(f"{path}: {exc}") from None


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


def _loadtxt(lines) -> np.ndarray:
    """The one ``np.loadtxt`` call: an iterable of CSV text lines to ``(n, width)`` floats."""
    return np.loadtxt(lines, delimiter=",", comments=None, quotechar='"', ndmin=2, dtype=np.float64)


def _send_part(conn, header, buffer) -> None:
    """Worker process: send ``header``, then ``buffer``'s bytes in pieces of ``_SEND_BYTES``."""
    conn.send(header)
    raw = memoryview(buffer).cast("B")
    for k in range(0, len(raw), _SEND_BYTES):
        conn.send_bytes(raw[k : k + _SEND_BYTES])


def _parse_part(path, begin, end, conn) -> None:
    """Worker process: parse bytes ``begin:end`` of ``path`` and send the rows' shape and bytes.

    The range is decoded and split into lines by the text layer the serial
    parse reads through.  On any failure nothing more is sent, and the
    parent, which then reads an end of file, parses the whole file serially.
    """
    try:
        with open(path, "rb") as fb:
            fb.seek(begin)
            data = fb.read(end - begin)
        # a quoted cell may span lines, so only a parse from the start knows where its row ends
        if b'"' not in data:
            warnings.simplefilter("error")  # a part that warns (no rows) is left to the serial parse
            rows = _loadtxt(TextIOWrapper(BytesIO(data), encoding="utf-8", newline=""))
            _send_part(conn, rows.shape, rows)
    except Exception:  # the parent parses serially and reports the error, if there is one
        pass
    finally:
        conn.close()


def _part_count(size, least) -> int:
    """Parts to split ``size`` units of work into on forked workers, or 0 to keep it serial.

    One part per core the process may run on, each of at least ``least``
    units; the work is split only on Linux and into at least two parts.
    """
    parts = min(mixture._worker_count(), size // least) if sys.platform == "linux" else 0
    return parts if parts > 1 else 0


def _byte_ranges(path, header) -> list[tuple[int, int]]:
    """Split the data bytes of ``path`` at line starts into ``_part_count`` ranges.

    Data starts after a UTF-8 BOM and, when there is a ``header``, after its
    line, which must be its comma-joined fields and a ``\\n`` or ``\\r\\n``.
    Each range holds whole lines of at least ``_PART_MIN_BYTES`` of data, and
    there are none at all when fewer than two would remain or the header
    line is not plain (it holds a quote or ends at a bare ``\\r``).
    """
    with open(path, "rb") as fb:
        start = len(BOM_UTF8) if fb.read(len(BOM_UTF8)) == BOM_UTF8 else 0
        if header is not None:
            fb.seek(start)
            head = ",".join(header).encode()
            line = fb.read(len(head) + 2)
            for end in (b"\n", b"\r\n"):
                if line.startswith(head + end):
                    start += len(head + end)
                    break
            else:
                return []
        size = fb.seek(0, SEEK_END)
        parts = _part_count(size - start, _PART_MIN_BYTES)
        bounds = [start]
        for k in range(1, parts):
            fb.seek(start + (size - start) * k // parts - 1)
            # past the next b"\n" in bounded pieces, so that a file with few
            # line breaks is not read whole
            while (piece := fb.readline(1 << 16)) and not piece.endswith(b"\n"):
                pass
            if bounds[-1] < fb.tell() < size:
                bounds.append(fb.tell())
    bounds.append(size)
    return list(zip(bounds[:-1], bounds[1:])) if len(bounds) > 2 else []


@contextmanager
def _forked(target, jobs):
    """Run ``target(*job, conn)`` for each of the ``jobs`` in a child forked from this process.

    Yields this side's receiving end of each child's one-way pipe, in job
    order, or ``None`` when not every child could start: a daemonic process
    may not start any, and one out of processes or descriptors starts too
    few.  Only the child holds its sending end, so its exit reads here as an
    end of file.
    On exit every connection is closed and every child killed and joined.
    """
    import multiprocessing  # only reads and writes that split pay for the import

    context = multiprocessing.get_context("fork")
    conns, procs = [], []
    try:
        if not multiprocessing.current_process().daemon:
            with suppress(OSError):
                for job in jobs:
                    mine, theirs = context.Pipe(duplex=False)
                    conns.append(mine)
                    with theirs:
                        proc = context.Process(target=target, args=(*job, theirs))
                        proc.start()
                    procs.append(proc)
        yield conns if len(procs) == len(jobs) else None
    finally:
        for conn in conns:
            conn.close()
        for proc in procs:
            proc.kill()
            proc.join()
            proc.close()


def _forked_rows(path, header) -> np.ndarray | None:
    """Parse the data rows of ``path`` on forked worker processes, or return ``None``.

    Each byte range of ``_byte_ranges`` is parsed by ``_parse_part`` in a
    child forked from this process; this one allocates the ``(n, width)``
    result once and receives each part straight into its rows.  ``None``,
    and the serial parse, follows any failure: a child that errs or dies, a
    part with no rows, or widths that differ between parts or from the
    header's.  Every child is killed and joined before this returns.
    """
    ranges = _byte_ranges(path, header)
    if not ranges:
        return None
    with _forked(_parse_part, [(path, begin, end) for begin, end in ranges]) as conns:
        if conns is None:
            return None
        try:
            counts, widths = zip(*(conn.recv() for conn in conns))
            if min(counts) < 1 or set(widths) != {len(header) if header else widths[0]}:
                return None
            rows = np.empty((sum(counts), widths[0]))
            raw = memoryview(rows).cast("B")
            offset = 0
            for conn, count in zip(conns, counts):
                end = offset + count * rows[0].nbytes
                while offset < end:
                    offset += conn.recv_bytes_into(raw[:end], offset)
            return rows
        except (EOFError, OSError):
            return None


def _float_rows(path, fh, header=None) -> np.ndarray:
    """Parse the rest of the open CSV ``fh`` into an ``(n, width)`` float array.

    ``fh`` is positioned just after ``header``, the first row, or at the start
    when there is none; ``width`` is the header's or the first data row's.
    A large file is parsed on worker processes by ``_forked_rows``, which
    gives exactly the serial result or nothing.  Serially, ``np.loadtxt``
    parses every file it accepts to the same doubles as ``float``.  A file
    it rejects, or whose width differs from the header's, is parsed again by
    ``_row_loop``, which raises the line-numbered ``InvalidData`` or accepts
    what ``float`` accepts and loadtxt does not (``1_0``, non-ASCII digits).
    """
    rows = _forked_rows(path, header)
    if rows is not None:
        return rows
    for line in fh:
        if line.strip("\r\n"):
            break
    else:
        raise InvalidData(f"{path}: no data rows")  # before loadtxt, which would warn
    try:
        rows = _loadtxt(itertools.chain([line], fh))
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


def _format_rows(rows, lead):
    """Each row of floats as ``lead`` plus its comma-joined ``repr`` values and a newline."""
    for row in rows:
        yield lead + ",".join(map(repr, row.tolist())) + "\n"


def _format_part(rows, lead, conn) -> None:
    """Worker process: format ``rows`` as ``_format_rows`` does and send the byte count and bytes.

    On any failure nothing more is sent, and the parent, which then reads
    an end of file, writes the whole block serially.
    """
    try:
        data = bytearray()  # held once: a joined str and its encoding would be twice the bytes
        for line in _format_rows(rows, lead):
            data += line.encode()
        _send_part(conn, len(data), data)
    except Exception:  # the parent writes serially and reports the error, if there is one
        pass
    finally:
        conn.close()


def _forked_write(fh, rows, lead) -> bool:
    """Write the 2-D ``rows`` into ``fh`` on forked worker processes; return whether it did.

    The rows are split into ``_part_count`` ranges of at least
    ``_WRITE_MIN_VALUES`` values, or nothing is written unless there are two
    and ``fh`` is a regular file.  This process streams the first range into
    ``fh`` while a child formats each other range, then copies each child's
    bytes into the file in range order through one reused piece of
    ``_SEND_BYTES``.  After a child fails, the file is cut back to where the
    block began and ``False`` is returned, so the caller writes the block
    serially and the bytes are those of the serial writer.  Every child is
    killed and joined before this returns.
    """
    count, width = rows.shape
    parts = _part_count(count, -(-_WRITE_MIN_VALUES // max(width, 1)))
    if not parts or not stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
        return False
    bounds = [count * k // parts for k in range(parts + 1)]
    jobs = [(rows[b:e], lead) for b, e in zip(bounds[1:-1], bounds[2:])]
    begin = fh.tell()  # tell flushes: a child must not inherit bytes buffered for the file
    with _forked(_format_part, jobs) as conns:
        if conns is None:
            return False
        fh.writelines(_format_rows(rows[: bounds[1]], lead))
        fh.flush()  # the children's bytes go to the binary layer, after these
        piece = memoryview(bytearray(_SEND_BYTES))
        try:
            for conn in conns:
                left = conn.recv()
                while left > 0:
                    size = conn.recv_bytes_into(piece)
                    fh.buffer.write(piece[:size])
                    left -= size
            return True
        except (EOFError, OSError):
            fh.seek(begin)  # cut back to where the block began
            fh.truncate()
    return False


def _write_float_rows(fh, rows, lead: str = "") -> None:
    """Write each row of the 2-D ``rows`` as ``lead`` plus its comma-joined float ``repr`` values.

    ``repr`` of a Python float is what ``fmt`` writes for it, and it holds no
    character ``csv.writer`` would quote, so the bytes are those of
    ``csv.writer`` over ``fmt`` at the speed of ``str.join``.  A large block
    of a regular file is written on worker processes by ``_forked_write``,
    with the same bytes.
    """
    if not _forked_write(fh, rows, lead):
        fh.writelines(_format_rows(rows, lead))


def read_samples(path) -> SampleMatrix:
    """Read a sample CSV (one row per sample; header auto-detected).

    The samples are held once: the result adopts the parser's fresh
    ``(n, D)`` row array, and its ``data`` is that array's ``(D, n)``
    transposed, read-only view.
    """
    path = Path(path)
    with _open_read(path) as fh:
        first = next(csv.reader(fh), [])
        if _is_numeric_row(first):
            fh.seek(0)
            rows = _float_rows(path, fh)
        else:
            rows = _float_rows(path, fh, header=first)
    return SampleMatrix.adopt(rows)


def write_samples(path, samples: SampleMatrix) -> None:
    """Write a sample CSV (one row per sample, ``f0..f{D-1}`` header).

    A large matrix written to a regular file is formatted and written in
    ranges of rows on worker processes, with the bytes of the serial writer.
    """
    with _open_write(path) as fh:
        fh.write(",".join(f"f{k}" for k in range(samples.dim)) + "\n")
        _write_float_rows(fh, samples.data.T)


def save_pca_model(path, model: PcaModel) -> None:
    """Write the positional model blocks: mean, spectrum, then d basis rows."""
    with _open_write(path) as fh:
        _write_float_rows(fh, np.array((model.mean, model.spectrum)))
        _write_float_rows(fh, model.basis.T)


def load_pca_model(path) -> PcaModel:
    """Inverse of :func:`save_pca_model`; gap and residual derive from the spectrum."""
    path = Path(path)
    with _open_read(path) as fh:
        blocks = _float_rows(path, fh)
    if len(blocks) < 3:
        raise InvalidData(f"{path}: expected mean, spectrum and at least one basis row")
    if (basis_rows := len(blocks) - 2) > blocks.shape[1]:
        raise InvalidData(f"{path}: expected at most {blocks.shape[1]} basis rows, got {basis_rows}")
    return PcaModel(basis=blocks[2:].T, spectrum=blocks[1], mean=blocks[0])


def write_activation_dump(path, conditions, sample_blocks) -> None:
    """Write a ``cond,f0,...`` dump: one block of rows per condition id.

    Unless there is one distinct integer id per block, below ``2**53`` in
    magnitude (ids are read back as doubles), and one dimension for all
    blocks, which ``ingest_activation_dump`` needs to read the blocks back,
    ``InvalidData`` is raised before the file is opened.
    """
    blocks, ids = list(sample_blocks), list(conditions)
    if not blocks:
        raise InvalidData("need at least one condition block")
    if len(ids) != len(blocks):
        raise InvalidData(f"need one condition id per block, got {len(ids)} for {len(blocks)}")
    if bad := [cond for cond in ids if not isinstance(cond, numbers.Integral)]:
        raise InvalidData(f"condition ids must be integers, got {bad[0]!r}")
    ids = [int(cond) for cond in ids]
    if bad := [cond for cond in ids if abs(cond) >= 2**53]:
        raise InvalidData(f"condition ids must lie below 2**53 in magnitude, got {bad[0]}")
    if len(set(ids)) != len(ids):
        raise InvalidData(f"condition ids must be distinct, got {ids}")
    dims = sorted({block.dim for block in blocks})
    if len(dims) > 1:
        raise InvalidData(f"condition blocks must share one dimension, got {dims}")
    with _open_write(path) as fh:
        fh.write(",".join(["cond"] + [f"f{k}" for k in range(dims[0])]) + "\n")
        for cond, block in zip(ids, blocks):
            _write_float_rows(fh, block.data.T, lead=f"{cond},")


def ingest_activation_dump(path) -> ConditionalDataset:
    """Parse an activation-dump CSV into per-condition sample sets.

    The format is ``cond,f0,f1,...,f{D-1}``: an integer condition id
    below ``2**53`` in magnitude, where every integer is exactly a double,
    followed by the D-dimensional sample, one row per sample.  Conditions
    keep the order of their first row and each group its file order.
    Group sizes may be ragged; an unparseable file raises ``InvalidData``.
    Each group is held as its own fresh rows, as ``read_samples`` holds a file.
    """
    path = Path(path)
    with _open_read(path) as fh:
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
    if (big := np.abs(conds) >= 2**53).any():
        bad = int(conds[big][0])
        raise InvalidData(f"{path}: condition ids must lie below 2**53 in magnitude, got {bad}")
    _, first = np.unique(conds, return_index=True)
    order = conds[np.sort(first)]
    return ConditionalDataset(
        conditions=tuple(int(c) for c in order),
        samples=tuple(SampleMatrix.adopt(rows[conds == c, 1:]) for c in order),
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

