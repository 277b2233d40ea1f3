"""CSV round-trips: samples, fitted models, dumps, paired datasets."""

import csv
import multiprocessing
import os
import threading
import warnings
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from smoothent import (
    ConditionalDataset,
    EstimatorConfig,
    InvalidData,
    IsotropicMixture,
    JointDataset,
    PcaModel,
    SampleMatrix,
    conditional_mi,
    fit_pca,
    gen_common_signal_pair,
    joint_mi,
    mixture_log_density,
    pca_smoothed_entropy,
    plugin_entropy_mc,
    substream,
)
from smoothent import io as sio
from smoothent import mixture, pca
from smoothent.io import (
    fmt,
    ingest_activation_dump,
    load_pca_model,
    read_samples,
    save_pca_model,
    write_activation_dump,
    write_joint_dataset,
    write_samples,
)

# Smallest subnormal, largest finite magnitudes, negative zero, the smallest
# normal and values that need all 17 significant digits.
EXTREMES = np.array(
    [
        5e-324,
        1.7976931348623157e308,
        -1.7976931348623157e308,
        -0.0,
        2.2250738585072014e-308,
        0.30000000000000004,
        -1.2345678901234567e-100,
        1.0000000000000002,
        1 / 3,
    ]
)


def assert_bits_equal(actual, expected):
    """Equal as IEEE bit patterns: tells -0.0 from 0.0."""
    np.testing.assert_array_equal(
        np.ascontiguousarray(actual, dtype=np.float64).view(np.uint64),
        np.ascontiguousarray(expected, dtype=np.float64).view(np.uint64),
    )


def random_and_extreme(seed, rows):
    """A ``(rows, 40)`` sample block: wide-range random values plus EXTREMES."""
    rng = np.random.default_rng(seed)
    scale = 10.0 ** rng.integers(-300, 300, (rows, 40 - len(EXTREMES)))
    return np.hstack([rng.standard_normal(scale.shape) * scale, np.tile(EXTREMES, (rows, 1))])


def extreme_model():
    """A valid PcaModel whose mean, spectrum and basis hold extreme doubles."""
    return PcaModel(
        basis=-np.eye(len(EXTREMES))[:, :3],  # -1.0 and -0.0 entries
        spectrum=np.array([1.7976931348623157e308, 1e10, 0.30000000000000004, 1 / 3 * 1e-9, 1e-300]
                          + [5e-324, 0.0, -0.0, -0.0]),
        ambient_dim=len(EXTREMES),
        target_dim=3,
        mean=EXTREMES,
    )


@pytest.fixture
def split_reads(monkeypatch):
    """Split every read into parts of whole lines on up to three worker processes.

    Returns the log of reads: ``True`` for one the workers parsed, ``False``
    for one that fell back to the serial parse.
    """
    monkeypatch.setattr(sio, "_PART_MIN_BYTES", 1)
    monkeypatch.setattr(mixture, "_worker_count", lambda: 3)
    forked_rows = sio._forked_rows
    log = []

    def logged(path, header):
        rows = forked_rows(path, header)
        log.append(rows is not None)
        return rows

    monkeypatch.setattr(sio, "_forked_rows", logged)
    return log


def read_outcome(reader, path):
    """The bits of every array ``reader(path)`` gives, or its ``InvalidData`` message."""
    try:
        result = reader(path)
    except InvalidData as exc:
        return str(exc)
    if isinstance(result, SampleMatrix):
        arrays = [result.data]
    elif isinstance(result, PcaModel):
        arrays = [result.mean, result.spectrum, result.basis]
    else:
        arrays = [np.array(result.conditions, dtype=float)] + [s.data for s in result.samples]
    return [np.ascontiguousarray(a).view(np.uint64).tolist() for a in arrays]


class TestSampleCsv:
    def test_round_trip_with_header(self, tmp_path):
        sm = SampleMatrix(substream(1).standard_normal((4, 7)))
        path = tmp_path / "samples.csv"
        write_samples(path, sm)
        loaded = read_samples(path)
        np.testing.assert_array_equal(loaded.data, sm.data)
        assert path.read_text(encoding="utf-8").splitlines()[0] == "f0,f1,f2,f3"

    def test_headerless_files_accepted(self, tmp_path):
        path = tmp_path / "raw.csv"
        path.write_text("1.0,2.0\n3.0,4.0\n", encoding="utf-8")
        loaded = read_samples(path)
        np.testing.assert_array_equal(loaded.data.T, [[1.0, 2.0], [3.0, 4.0]])

    @pytest.mark.parametrize("header", ["", "f0,f1\n"])
    def test_byte_order_mark_keeps_every_row(self, tmp_path, header):
        path = tmp_path / "bom.csv"
        path.write_text("\ufeff" + header + "1.0,2.0\n3.0,4.0\n", encoding="utf-8")
        np.testing.assert_array_equal(read_samples(path).data.T, [[1.0, 2.0], [3.0, 4.0]])

    def test_header_detected_by_non_numeric_token(self, tmp_path):
        path = tmp_path / "mixed.csv"
        path.write_text("alpha,beta\n1.0,2.0\n", encoding="utf-8")
        assert read_samples(path).count == 1

    def test_ragged_rows_rejected(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("1.0,2.0\n3.0\n", encoding="utf-8")
        with pytest.raises(InvalidData):
            read_samples(path)

    def test_empty_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("", encoding="utf-8")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidData, match=r"empty\.csv: no data rows"):
                read_samples(path)

    def test_non_numeric_data_row_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("f0\n1.0\noops\n", encoding="utf-8")
        with pytest.raises(InvalidData):
            read_samples(path)

    def test_extreme_doubles_round_trip_bitwise(self, tmp_path):
        rows = random_and_extreme(5, 6)
        for header in (True, False):
            path = tmp_path / f"extreme_{header}.csv"
            write_samples(path, SampleMatrix.from_rows(rows), header=header)
            assert_bits_equal(read_samples(path).data.T, rows)

    @pytest.mark.parametrize(
        "text, expected",
        [
            ("1_0,2\n", [[10.0, 2.0]]),  # float() accepts digit separators
            (" 1.5 , -2 \n3,\t4\n", [[1.5, -2.0], [3.0, 4.0]]),
            ('f0,f1\n"1.5",2\n', [[1.5, 2.0]]),
            ("f0,f1\r\n1,2\r\n\r\n3,4\r\n", [[1.0, 2.0], [3.0, 4.0]]),
            ("\u0661,2\n", [[1.0, 2.0]]),  # ARABIC-INDIC DIGIT ONE
        ],
    )
    def test_float_syntax_beyond_loadtxt(self, tmp_path, text, expected):
        path = tmp_path / "loose.csv"
        path.write_text(text, encoding="utf-8", newline="")
        assert_bits_equal(read_samples(path).data.T, expected)

    @pytest.mark.parametrize("text", ["\n\r\n", "f0,f1\n", "f0,f1\n\n\n"])
    def test_header_or_blank_lines_only_rejected(self, tmp_path, text):
        path = tmp_path / "no_rows.csv"
        path.write_text(text, encoding="utf-8", newline="")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidData, match=r"no_rows\.csv: no data rows"):
                read_samples(path)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("1,2\n3,x\n", r":2: could not convert string to float: 'x'"),
            ("1,2\n\n3\n", r":3: expected 2 fields, got 1"),
            ("1,2\n3,4,5\n", r":2: expected 2 fields, got 3"),
            ("f0,f1\n1,2\n3,x\n", r":3: could not convert string to float: 'x'"),
            ("f0,f1\n1,2\n3\n", r":3: expected 2 fields, got 1"),
            ("f0,f1\n1,2\n\n3,4,5\n", r":4: expected 2 fields, got 3"),
            ("f0,f1,f2\n1,2\n3,4\n", r":2: expected 3 fields, got 2"),  # header wider than every row
            ("f0\n1,2\n3,4\n", r":2: expected 1 fields, got 2"),
        ],
    )
    def test_bad_rows_name_their_line(self, tmp_path, text, message):
        path = tmp_path / "bad_rows.csv"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(InvalidData, match=r"bad_rows\.csv" + message):
            read_samples(path)

    def test_lf_line_endings(self, tmp_path):
        path = tmp_path / "lf.csv"
        write_samples(path, SampleMatrix(np.ones((1, 2))))
        raw = path.read_bytes()
        assert b"\r" not in raw
        assert raw.endswith(b"\n")


class TestFloatFormatting:
    def test_shortest_round_trip(self):
        rng = np.random.default_rng(2)
        for value in rng.standard_normal(200) * 10.0 ** rng.integers(-12, 12, 200):
            assert float(fmt(float(value))) == float(value)

    def test_special_values(self):
        assert fmt(None) == ""
        assert fmt(True) == "true"
        assert fmt(False) == "false"
        assert fmt(3) == "3"


class TestPcaModelCsv:
    def test_round_trip(self, tmp_path):
        sm = SampleMatrix(substream(3).standard_normal((5, 60)) * np.arange(1, 6)[:, None])
        model = fit_pca(sm, 2)
        path = tmp_path / "model.csv"
        save_pca_model(path, model)
        loaded = load_pca_model(path)
        np.testing.assert_array_equal(loaded.basis, model.basis)
        np.testing.assert_array_equal(loaded.spectrum, model.spectrum)
        np.testing.assert_array_equal(loaded.mean, model.mean)
        assert loaded.eigen_gap == model.eigen_gap
        assert loaded.residual == model.residual
        assert loaded.target_dim == 2 and loaded.ambient_dim == 5

    def test_block_layout(self, tmp_path):
        sm = SampleMatrix(substream(4).standard_normal((3, 30)))
        model = fit_pca(sm, 2)
        path = tmp_path / "model.csv"
        save_pca_model(path, model)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 2 + model.target_dim  # mean, spectrum, d basis rows

    def test_extreme_doubles_round_trip_bitwise(self, tmp_path):
        model = extreme_model()
        path = tmp_path / "model.csv"
        save_pca_model(path, model)
        loaded = load_pca_model(path)
        assert_bits_equal(loaded.mean, model.mean)
        assert_bits_equal(loaded.spectrum, model.spectrum)
        assert_bits_equal(loaded.basis, model.basis)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("0,0\n1,x\n1,0\n", r":2: could not convert string to float: 'x'"),
            ("0,0\n1,0.5\n1\n", r":3: expected 2 fields, got 1"),
            ("0,0\n\n1,0.5\n1,0,0\n", r":4: expected 2 fields, got 3"),
            ("m0,m1\n0,0\n1,0.5\n1,0\n", r":1: could not convert string to float: 'm0'"),
        ],
    )
    def test_bad_rows_name_their_line(self, tmp_path, text, message):
        path = tmp_path / "bad_model.csv"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(InvalidData, match=r"bad_model\.csv" + message):
            load_pca_model(path)

    def test_byte_order_mark_accepted(self, tmp_path):
        path = tmp_path / "model.csv"
        path.write_text("\ufeff0,0\n1,0.5\n1,0\n", encoding="utf-8")
        loaded = load_pca_model(path)
        np.testing.assert_array_equal(loaded.mean, [0.0, 0.0])
        np.testing.assert_array_equal(loaded.basis, [[1.0], [0.0]])

    def test_truncated_file_rejected(self, tmp_path):
        path = tmp_path / "short.csv"
        path.write_text("0.0,0.0\n1.0,0.5\n", encoding="utf-8")
        with pytest.raises(InvalidData):
            load_pca_model(path)


class TestActivationDumpCsv:
    def test_extreme_doubles_round_trip_bitwise(self, tmp_path):
        blocks = [random_and_extreme(6, 5), random_and_extreme(7, 3)]
        path = tmp_path / "dump.csv"
        write_activation_dump(path, [4, -2], [SampleMatrix.from_rows(b) for b in blocks])
        dataset = ingest_activation_dump(path)
        assert dataset.conditions == (4, -2)
        for loaded, rows in zip(dataset.samples, blocks):
            assert_bits_equal(loaded.data.T, rows)

    def test_byte_order_mark_accepted(self, tmp_path):
        path = tmp_path / "dump.csv"
        path.write_text("\ufeffcond,f0\n7,1.5\n-2,2.5\n7,3.5\n", encoding="utf-8")
        dataset = ingest_activation_dump(path)
        assert dataset.conditions == (7, -2)
        np.testing.assert_array_equal(dataset.samples[0].data, [[1.5, 3.5]])

    @pytest.mark.parametrize(
        "text, message",
        [
            ("cond,f0,f1\n0,1,2\n1,3\n", r":3: expected 3 fields, got 2"),
            ("cond,f0,f1\n0,1\n1,3\n", r":2: expected 3 fields, got 2"),  # header wider than every row
            ("cond,f0\n", r": no data rows"),
        ],
    )
    def test_bad_rows_name_their_line(self, tmp_path, text, message):
        path = tmp_path / "bad_dump.csv"
        path.write_text(text, encoding="utf-8")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidData, match=r"bad_dump\.csv" + message):
                ingest_activation_dump(path)


def _reference_writer(path):
    """The csv.writer + fmt loop the writers are checked against."""
    fh = Path(path).open("w", newline="\n", encoding="utf-8")
    return fh, csv.writer(fh, lineterminator="\n")


def reference_write_samples(path, samples, header=True):
    fh, writer = _reference_writer(path)
    with fh:
        if header:
            writer.writerow([f"f{k}" for k in range(samples.dim)])
        for row in samples.data.T:
            writer.writerow([fmt(v) for v in row])


def reference_save_pca_model(path, model):
    fh, writer = _reference_writer(path)
    with fh:
        writer.writerow([fmt(v) for v in model.mean])
        writer.writerow([fmt(v) for v in model.spectrum])
        for column in model.basis.T:
            writer.writerow([fmt(v) for v in column])


def reference_write_activation_dump(path, conditions, blocks):
    fh, writer = _reference_writer(path)
    with fh:
        writer.writerow(["cond"] + [f"f{k}" for k in range(blocks[0].dim)])
        for cond, block in zip(conditions, blocks):
            for row in block.data.T:
                writer.writerow([str(int(cond))] + [fmt(v) for v in row])


class TestWritersMatchCsvWriter:
    @pytest.mark.parametrize("header", [True, False])
    def test_samples(self, tmp_path, header):
        for seed, sm in [(0, SampleMatrix(substream(8).standard_normal((7, 30)))),
                         (1, SampleMatrix.from_rows(random_and_extreme(9, 12)))]:
            write_samples(tmp_path / f"new{seed}.csv", sm, header=header)
            reference_write_samples(tmp_path / f"ref{seed}.csv", sm, header=header)
            assert (tmp_path / f"new{seed}.csv").read_bytes() == (tmp_path / f"ref{seed}.csv").read_bytes()

    def test_pca_model(self, tmp_path):
        fitted = fit_pca(SampleMatrix(substream(10).standard_normal((12, 80))), 4)
        for tag, model in [("fitted", fitted), ("extreme", extreme_model())]:
            save_pca_model(tmp_path / f"new_{tag}.csv", model)
            reference_save_pca_model(tmp_path / f"ref_{tag}.csv", model)
            assert (tmp_path / f"new_{tag}.csv").read_bytes() == (tmp_path / f"ref_{tag}.csv").read_bytes()

    def test_activation_dump(self, tmp_path):
        blocks = [SampleMatrix(substream(11).standard_normal((40, 6))),
                  SampleMatrix.from_rows(random_and_extreme(12, 4))]
        write_activation_dump(tmp_path / "new.csv", [-3, 12], blocks)
        reference_write_activation_dump(tmp_path / "ref.csv", [-3, 12], blocks)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


class TestJointDatasetFiles:
    def test_round_trip_with_manifest(self, tmp_path):
        data, dependent = gen_common_signal_pair(2, 6, 9, 0.05, seed=13, dependent=False)
        paths = write_joint_dataset(tmp_path / "pair", data, dependent, seed=13)
        with paths["manifest"].open(newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert rows == [["x_file", "y_file", "dependent", "seed"], ["pair_x.csv", "pair_y.csv", "false", "13"]]
        np.testing.assert_array_equal(read_samples(paths["x"]).data, data.x.data)
        np.testing.assert_array_equal(read_samples(paths["y"]).data, data.y.data)


def entropy_bits(result):
    """The arrays of one entropy estimate compared bit for bit."""
    model = result.pca
    return [result.value, result.mc_std_error, model.spectrum, model.basis, model.mean]


def storage_case(case, tmp_path, rows):
    """The result arrays of ``case`` on C-ordered samples or, with ``rows``, on their CSV."""

    def stored(sm, name):
        if not rows:
            return sm
        write_samples(tmp_path / f"{name}.csv", sm)
        loaded = read_samples(tmp_path / f"{name}.csv")
        assert loaded.data.flags.f_contiguous and not loaded.data.flags.c_contiguous
        return loaded

    config = EstimatorConfig(sigma=0.3, target_dim=3, n_mc=20, seed=4)
    if case.startswith("entropy"):
        _, route, split, center = case.split("-")
        shape = {"gram": (60, 40), "covariance": (6, 300)}[route]
        sm = stored(SampleMatrix(substream(21).standard_normal(shape)), case)
        result = pca_smoothed_entropy(sm, replace(config, split=split, center=center == "centered"))
        return entropy_bits(result)
    if case == "joint_mi":
        data, _ = gen_common_signal_pair(2, 8, 60, 0.05, seed=13, dependent=True)
        estimate = joint_mi(JointDataset(stored(data.x, "x"), stored(data.y, "y")), config)
        return [bits for term in estimate.terms for bits in entropy_bits(term.result)]
    if case == "conditional_mi":
        blocks = [SampleMatrix(substream(22, k).standard_normal((7, 50 + 10 * k)) + k) for k in range(3)]
        if rows:
            write_activation_dump(tmp_path / "dump.csv", [0, 1, 2], blocks)
            data = ingest_activation_dump(tmp_path / "dump.csv")
            assert not data.samples[0].data.flags.c_contiguous
        else:
            data = ConditionalDataset(conditions=(0, 1, 2), samples=tuple(blocks))
        estimate = conditional_mi(data, config)
        return [bits for term in estimate.terms for bits in entropy_bits(term.result)]
    mix = IsotropicMixture(stored(SampleMatrix(substream(23).standard_normal((3, 400))), "centers"), 0.3)
    if case == "plugin_entropy_mc":
        estimate = plugin_entropy_mc(mix, 30, 5)
        return [estimate.value, estimate.mc_std_error]
    return [mixture_log_density(mix, point) for point in substream(24).standard_normal((5, 3))]


STORAGE_CASES = [
    f"entropy-{route}-{split}-{center}"
    for route in ("gram", "covariance")
    for split in ("half", "reuse")
    for center in ("centered", "uncentered")
] + ["joint_mi", "conditional_mi", "plugin_entropy_mc", "mixture_log_density"]


class TestRowStorage:
    """Samples read from CSV are held as the parser's rows; results keep their bits."""

    @pytest.mark.parametrize("case", STORAGE_CASES)
    def test_results_do_not_depend_on_storage(self, tmp_path, case):
        expected = storage_case(case, tmp_path, rows=False)
        actual = storage_case(case, tmp_path, rows=True)
        assert len(actual) == len(expected)
        for a, e in zip(actual, expected):
            assert_bits_equal(a, e)

    @pytest.mark.parametrize("workers", [1, 2], ids=["serial", "forked"])
    def test_read_holds_the_samples_once(
        self, tmp_path, monkeypatch, traced_peak, split_reads, workers
    ):
        # The parser's rows, or the array the worker processes' rows are
        # received into, become the samples: no transposed copy is made.
        # Twice the matrix at the copying reader; 1.2-1.4x here.
        monkeypatch.setattr(sio, "_PART_MIN_BYTES", 1 << 20)
        monkeypatch.setattr(mixture, "_worker_count", lambda: workers)
        sm = SampleMatrix(substream(25).standard_normal((500, 500)))
        write_samples(tmp_path / "square.csv", sm)
        loaded, peak = traced_peak(read_samples, tmp_path / "square.csv")
        assert split_reads == [workers > 1]
        np.testing.assert_array_equal(loaded.data, sm.data)
        assert peak <= 1.5 * sm.data.nbytes, peak / sm.data.nbytes

    def test_adopted_rows_are_frozen_and_callers_rows_copied(self, monkeypatch):
        monkeypatch.setattr(pca, "_GATHER_BYTES", 48)  # gather two samples at a time
        rows = substream(26).standard_normal((5, 3))
        held = rows.copy()
        copied = SampleMatrix.from_rows(held)
        assert copied.data.flags.c_contiguous and held.flags.writeable
        adopted = SampleMatrix.adopt(held, rows=True)
        assert adopted.data.base is held and not held.flags.writeable
        np.testing.assert_array_equal(adopted.data, copied.data)
        assert_bits_equal(adopted.take([4, 0, 2]).data, copied.take([4, 0, 2]).data)
        assert adopted.take([1, 3]).data.flags.c_contiguous


SPLIT_INPUTS = [
    (read_samples, text)
    for text in [
        "1.0,2.0\n3.0,4.0\n5,6\n",
        "f0,f1\n1,2\n3,4\n5,6",  # no final newline
        "f0,f1\r\n1,2\r\n\r\n3,4\r\n5,6\r\n",
        "1,2\r3,4\r5,6\r",  # bare CR
        "f0,f1\r1,2\n3,4\r5,6\n",
        '"1.5",2\n3,"4"\n5,6\n',
        '1,"2\n"\n3,4\n5,6\n',  # a line break inside a quoted cell
        'f0,"f\n1"\n1,2\n3,4\n',  # a line break inside the header
        "\n\n1,2\n\n\n3,4\n\n5,6\n\n",
        " 1.5 , -2 \n3,\t4\n5 ,6\n",
        "1,2\n  \n3,4\n",
        "1_0,2\n3,4\n5,6\n",
        "1,2\n\u0661,4\n5,6\n",  # ARABIC-INDIC DIGIT ONE
        "1,2\n3,x\n5,6\n",
        "f0,f1\n1,2\n3,4\n5,x\n",
        "1,2\n3\n5,6\n",
        "1,2\n3,4\n5,6,7\n",
        "f0,f1,f2\n1,2\n3,4\n",  # header wider than every row
        "f0\n1,2\n3,4\n",  # header narrower than every row
        "\ufeff1,2\n3,4\n5,6\n",
        "\ufefff0,f1\n1,2\n3,4\n",
        "\n\r\n",
        "f0,f1\n\n\n",
    ]
] + [
    (ingest_activation_dump, text)
    for text in [
        "cond,f0,f1\n0,1,2\n1,3,4\n0,5,6\n",
        "\ufeffcond,f0\n0,1\n1,2\n0,3\n",
        "cond,f0,f1\n0,1,2\n1,3\n0,5,6\n",
        "cond,f0,f1\n0,1\n1,3\n",
        "cond,f0\n0,1,2\n1,3,4\n",
        "cond,f0\n0.5,1\n1,2\n",
    ]
] + [
    (load_pca_model, text)
    for text in [
        "0,0\n1,0.5\n1,0\n",
        "\ufeff0,0\n1,0.5\n1,0\n0,1\n",
        "0,0\n1,x\n1,0\n",
        "0,0\n1,0.5\n1\n",
        "m0,m1\n0,0\n1,0.5\n1,0\n",
    ]
]


class TestSplitParse:
    """Large files are parsed in byte ranges on worker processes, with the serial result."""

    @pytest.mark.parametrize("reader, text", SPLIT_INPUTS)
    def test_equal_to_the_serial_parse(self, tmp_path, monkeypatch, split_reads, reader, text):
        path = tmp_path / "input.csv"
        path.write_text(text, encoding="utf-8", newline="")
        split = read_outcome(reader, path)
        monkeypatch.setattr(mixture, "_worker_count", lambda: 1)
        assert split == read_outcome(reader, path)

    @pytest.mark.parametrize(
        "reader, text",
        [
            (read_samples, "1,2\n3,4\n5,6\n"),
            (read_samples, "\ufefff0,f1\r\n1,2\r\n3,4\r\n"),
            (ingest_activation_dump, "cond,f0\n0,1\n1,2\n0,3\n"),
            (load_pca_model, "\ufeff0,0\n1,0.5\n1,0\n"),
        ],
    )
    def test_plain_files_are_split(self, tmp_path, split_reads, reader, text):
        path = tmp_path / "input.csv"
        path.write_text(text, encoding="utf-8", newline="")
        reader(path)
        assert split_reads == [True]

    @pytest.mark.parametrize("header", [True, False])
    def test_extreme_doubles_bitwise(self, tmp_path, split_reads, header):
        rows = random_and_extreme(27, 9)
        write_samples(tmp_path / "extreme.csv", SampleMatrix.from_rows(rows), header=header)
        assert_bits_equal(read_samples(tmp_path / "extreme.csv").data.T, rows)
        assert split_reads == [True]

    def test_a_dead_worker_falls_back_to_the_serial_parse(self, tmp_path, monkeypatch, split_reads):
        parse_part = sio._parse_part

        def dies_after_the_first_part(path, begin, end, conn):
            if begin > 0:
                os._exit(1)
            parse_part(path, begin, end, conn)

        monkeypatch.setattr(sio, "_parse_part", dies_after_the_first_part)
        rows = random_and_extreme(28, 6)
        write_samples(tmp_path / "samples.csv", SampleMatrix.from_rows(rows))
        assert_bits_equal(read_samples(tmp_path / "samples.csv").data.T, rows)
        assert split_reads == [False]
        assert not multiprocessing.active_children()


@pytest.fixture
def split_writes(monkeypatch):
    """Split every block of rows written into ranges for up to three worker processes.

    Returns the log of block writes: ``(rows the workers wrote, rows)``; the
    writer writes the rest serially.
    """
    monkeypatch.setattr(sio, "_WRITE_MIN_VALUES", 1)
    monkeypatch.setattr(mixture, "_worker_count", lambda: 3)
    forked_write = sio._forked_write
    log = []

    def logged(fh, rows, lead):
        done = forked_write(fh, rows, lead)
        log.append((done, len(rows)))
        return done

    monkeypatch.setattr(sio, "_forked_write", logged)
    return log


# Values a split write must render as the serial writer does.
SPECIALS = np.array([np.nan, np.inf, -np.inf, -0.0, 5e-324, 1e16, 1e-5])


def special_block(seed, rows):
    """``rows`` samples of ``random_and_extreme`` plus SPECIALS, for the writers.

    A ``SampleMatrix`` holds no non-finite value, so this stand-in has only
    what the writers read: ``data``, ``dim`` and ``count``.
    """
    data = np.hstack([random_and_extreme(seed, rows), np.tile(SPECIALS, (rows, 1))]).T
    return SimpleNamespace(data=data, dim=data.shape[0], count=rows)


def write_case(case, directory, reference=False):
    """Write ``case`` into ``directory`` with the library's writer, or with ``csv.writer``.

    Returns the bytes of each file; the reference writes no manifest.
    """
    directory.mkdir()
    blocks = [special_block(31, 7), special_block(32, 5)]
    if case in ("samples", "headerless"):
        writer = reference_write_samples if reference else write_samples
        writer(directory / "s.csv", blocks[0], header=case == "samples")
    elif case == "dump":
        writer = reference_write_activation_dump if reference else write_activation_dump
        writer(directory / "d.csv", [4, -2], blocks)
    elif reference:
        reference_write_samples(directory / "p_x.csv", blocks[0])
        reference_write_samples(directory / "p_y.csv", special_block(33, 7))
    else:
        write_joint_dataset(directory / "p", JointDataset(blocks[0], special_block(33, 7)), True, 5)
    return {path.name: path.read_bytes() for path in sorted(directory.iterdir())}


WRITE_CASES = ["samples", "headerless", "dump", "joint"]


class TestSplitWrite:
    """Large blocks of rows are written in ranges by worker processes, byte for byte."""

    @pytest.mark.parametrize("case", WRITE_CASES)
    def test_equal_to_csv_writer_and_the_serial_write(self, tmp_path, monkeypatch, split_writes, case):
        split = write_case(case, tmp_path / "split")
        assert split_writes and all(done == rows for done, rows in split_writes)
        reference = write_case(case, tmp_path / "reference", reference=True)
        assert {name: split[name] for name in reference} == reference
        monkeypatch.setattr(mixture, "_worker_count", lambda: 1)
        assert write_case(case, tmp_path / "serial") == split

    def test_files_are_split_into_one_range_per_worker(self, tmp_path, monkeypatch, split_writes):
        ranges = []
        forked = sio._forked

        def logged(target, jobs, duplex=False):
            ranges.append([len(rows) for rows, _, _ in jobs])
            return forked(target, jobs, duplex)

        monkeypatch.setattr(sio, "_forked", logged)
        write_case("dump", tmp_path / "split")
        # 7 and 5 rows in three ranges each: this process writes the first
        assert ranges == [[2, 3], [2, 2]]
        assert split_writes == [(7, 7), (5, 5)]

    @pytest.mark.parametrize("doomed", [0, 1], ids=["middle", "last"])
    @pytest.mark.parametrize("when", ["at_start", "after_half_its_bytes"])
    def test_a_dead_worker_falls_back_to_the_serial_bytes(
        self, tmp_path, monkeypatch, split_writes, doomed, when
    ):
        sm = special_block(34, 7)
        format_part = sio._format_part
        doomed_row = sm.data.T[[3, 6][doomed]]  # in ranges [2, 4) and [4, 7)

        def dies(rows, lead, fd, conn):
            if not np.shares_memory(rows, doomed_row):
                return format_part(rows, lead, fd, conn)
            if when != "at_start":
                data = "".join(sio._format_rows(rows, lead)).encode()
                conn.send(len(data))
                os.pwrite(fd, data[: len(data) // 2], conn.recv())
            os._exit(1)

        monkeypatch.setattr(sio, "_format_part", dies)
        write_samples(tmp_path / "split.csv", sm)
        assert split_writes == [([2, 4][doomed], 7)]
        assert not multiprocessing.active_children()
        monkeypatch.setattr(mixture, "_worker_count", lambda: 1)
        write_samples(tmp_path / "serial.csv", sm)
        assert (tmp_path / "split.csv").read_bytes() == (tmp_path / "serial.csv").read_bytes()

    def test_a_fifo_is_written_serially(self, tmp_path, monkeypatch, split_writes):
        sm = special_block(35, 7)
        fifo = tmp_path / "fifo"
        os.mkfifo(fifo)
        received = []
        drain = threading.Thread(target=lambda: received.append(fifo.read_bytes()))
        drain.start()
        try:
            write_samples(fifo, sm)
        finally:
            drain.join(timeout=60)
        assert not drain.is_alive()
        assert split_writes == [(0, 7)]
        monkeypatch.setattr(mixture, "_worker_count", lambda: 1)
        write_samples(tmp_path / "serial.csv", sm)
        assert received == [(tmp_path / "serial.csv").read_bytes()]
