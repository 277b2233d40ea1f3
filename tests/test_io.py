"""CSV round-trips: samples, fitted models, dumps, paired datasets."""

import csv
import warnings
from pathlib import Path

import numpy as np
import pytest

from smoothent import InvalidData, PcaModel, SampleMatrix, fit_pca, gen_common_signal_pair, substream
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
        np.testing.assert_array_equal(loaded.as_rows(), [[1.0, 2.0], [3.0, 4.0]])

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
            assert_bits_equal(read_samples(path).as_rows(), rows)

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
        assert_bits_equal(read_samples(path).as_rows(), expected)

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
            assert_bits_equal(loaded.as_rows(), rows)

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
