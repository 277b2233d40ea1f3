"""Command-line interface: subcommands, flags, exit codes, CSV outputs."""

import csv
import hashlib
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from smoothent import io as sio
from smoothent import experiments, mixture, pca
from smoothent.cli import EXIT_CONFIG, EXIT_DATA, EXIT_OK, main
from smoothent.io import read_samples
from smoothent.pca import SampleMatrix
from smoothent.rng import substream
from smoothent.io import load_pca_model, write_activation_dump, write_samples


def read_csv_dict(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


@pytest.fixture
def sample_file(tmp_path):
    path = tmp_path / "data.csv"
    code = main([
        "gen", "--kind", "gaussian", "--n", "400", "--dim", "2",
        "--ambient-dim", "6", "--lambda-res", "0.01", "--seed", "3",
        "--out", str(path),
    ])
    assert code == EXIT_OK
    return path


# (subcommand and a valid argument list, a flag it does not read): for sweep,
# also the single-value and paper-scale flags its list axes replaced, and the
# reference mode (a cell's kind decides its reference); for mi-joint, the
# stacked term's dimension (always twice --dim)
UNREAD_FLAGS = [
    *[(["gen", "--kind", "gaussian", "--n", "10"], flag)
      for flag in (["--sigma", "0.1"], ["--n-mc", "5"], ["--split", "reuse"],
                   ["--no-center"], ["--bits"])],
    *[(["sweep", "--n", "20", "--d", "1", "--repeats", "1", "--ambient-dim", "4",
        "--n-mc", "5"], flag)
      for flag in (["--bits"], ["--dim", "2"], ["--sigma", "0.2"], ["--full"],
                   ["--reference", "none"])],
    (["indep-auc", "--n-datasets", "10", "--n", "30", "--dim", "1", "--ambient-dim", "4",
      "--n-mc", "5"], ["--bits"]),
    (["activation-mi"], ["--bits"]),
    (["mi-joint", "x.csv", "y.csv"], ["--joint-dim", "3"]),
]


@pytest.mark.parametrize("argv, flag", UNREAD_FLAGS, ids=lambda v: " ".join(v[:1]))
def test_unread_flag_is_usage_error(tmp_path, capsys, argv, flag):
    out = tmp_path / "out.csv"
    with pytest.raises(SystemExit) as exc:
        main(argv + flag + ["--out", str(out)])
    assert exc.value.code == EXIT_CONFIG
    assert f"unrecognized arguments: {flag[0]}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [["gen", "--kind", "gaussian", "--n", "5"],
     ["sweep", "--n", "20", "--d", "1", "--repeats", "1", "--ambient-dim", "4", "--n-mc", "5"],
     ["activation-mi"]],
    ids=lambda v: v[0],
)
def test_missing_out_is_config_error(capsys, argv):
    assert main(argv) == EXIT_CONFIG
    assert capsys.readouterr().err == f"error: {argv[0]} requires --out\n"


class TestGen:
    def test_gaussian_roundtrip(self, sample_file):
        samples = read_samples(sample_file)
        assert samples.dim == 6 and samples.count == 400

    def test_deterministic_bytes(self, tmp_path):
        args = ["gen", "--kind", "spiral2d", "--n", "50", "--ambient-dim", "4",
                "--seed", "9", "--out"]
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args + [str(p1)]) == EXIT_OK
        assert main(args + [str(p2)]) == EXIT_OK
        assert p1.read_bytes() == p2.read_bytes()

    def test_pair_writes_manifest(self, tmp_path):
        code = main([
            "gen", "--kind", "pair", "--n", "30", "--dim", "2",
            "--ambient-dim", "5", "--noise-std", "0.05", "--independent",
            "--seed", "4", "--out", str(tmp_path / "pair"),
        ])
        assert code == EXIT_OK
        manifest = (tmp_path / "pair_manifest.csv").read_text(encoding="utf-8")
        assert "false" in manifest.splitlines()[1]
        assert read_samples(tmp_path / "pair_x.csv").count == 30

    def test_split_write_keeps_the_bytes(self, tmp_path, monkeypatch):
        n = 2 * -(-sio._WRITE_MIN_VALUES // 100)  # two ranges of the break-even
        args = ["gen", "--kind", "gaussian", "--n", str(n), "--ambient-dim", "100",
                "--seed", "5", "--out"]
        forked_write = sio._forked_write
        split = []

        def logged(*args):
            split.append(forked_write(*args))
            return split[-1]

        monkeypatch.setattr(sio, "_forked_write", logged)
        digests = []
        for workers in (1, 2):
            monkeypatch.setattr(mixture, "_worker_count", lambda: workers)
            assert main(args + [str(tmp_path / f"{workers}.csv")]) == EXIT_OK
            digests.append(hashlib.sha256((tmp_path / f"{workers}.csv").read_bytes()).hexdigest())
        assert split == [False, True]
        assert digests[0] == digests[1]

    def test_stdout_pipe_is_written_serially(self, tmp_path, monkeypatch):
        # a file that would split on two cores; a pipe cannot be cut back
        n = 2 * -(-sio._WRITE_MIN_VALUES // 100)
        args = ["gen", "--kind", "gaussian", "--n", str(n), "--ambient-dim", "100",
                "--seed", "6", "--out"]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(Path(sio.__file__).parents[1]), env.get("PYTHONPATH")])
        )
        script = "import sys; from smoothent.cli import main; sys.exit(main())"
        run = subprocess.run([sys.executable, "-c", script, *args, "/dev/stdout"],
                             env=env, capture_output=True, timeout=300)
        assert run.returncode == EXIT_OK, run.stderr
        monkeypatch.setattr(mixture, "_worker_count", lambda: 1)
        assert main(args + [str(tmp_path / "serial.csv")]) == EXIT_OK
        report = f"wrote /dev/stdout ({n} samples x 100 dims)\n".encode()
        assert run.stdout == (tmp_path / "serial.csv").read_bytes() + report

    def test_allocation_beyond_memory_is_data_error(self, tmp_path, capsys):
        # 10^15 x 100 doubles (711 PiB) exceed any address space, so numpy
        # fails before anything is mapped
        out = tmp_path / "huge.csv"
        argv = ["gen", "--kind", "gaussian", "--n", str(10**15), "--out", str(out)]
        assert main(argv) == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("error: Unable to allocate") and err.count("\n") == 1
        assert not out.exists()

    def test_missing_out_is_config_error(self):
        assert main(["gen", "--kind", "gaussian", "--n", "5"]) == EXIT_CONFIG

    @pytest.mark.parametrize("kind", ["gaussian", "spiral2d", "pair"])
    @pytest.mark.parametrize("n", ["0", "-3"])
    def test_nonpositive_sample_count_is_config_error(self, tmp_path, capsys, kind, n):
        code = main(["gen", "--kind", kind, "--n", n, "--out", str(tmp_path / "g")])
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err == f"error: n must be >= 1, got {n}\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize(
        "kind, flag", [("gaussian", "--lambda-res"), ("spiral2d", "--lambda-res"), ("pair", "--noise-std")]
    )
    def test_non_finite_noise_scale_is_config_error(self, tmp_path, capsys, kind, flag, value):
        code = main(["gen", "--kind", kind, "--n", "10", "--ambient-dim", "5", flag, value,
                     "--out", str(tmp_path / "g")])
        assert code == EXIT_CONFIG
        name = flag[2:].replace("-", "_")
        assert capsys.readouterr().err == f"error: {name} must be positive and finite, got {value}\n"
        assert list(tmp_path.iterdir()) == []


class TestEntropy:
    def test_basic_run_with_outputs(self, tmp_path, sample_file):
        out = tmp_path / "result.csv"
        pca_out = tmp_path / "model.csv"
        code = main([
            "entropy", str(sample_file), "--sigma", "0.5", "--dim", "2",
            "--n-mc", "50", "--seed", "2", "--out", str(out),
            "--save-pca", str(pca_out),
        ])
        assert code == EXIT_OK
        row = read_csv_dict(out)[0]
        assert row["units"] == "nats"
        assert math.isfinite(float(row["estimate"]))
        assert float(row["mc_std_error"]) > 0
        assert float(row["residual"]) >= 0
        model = load_pca_model(pca_out)
        assert model.ambient_dim == 6 and model.target_dim == 2

    def test_bits_conversion(self, tmp_path, sample_file):
        nats_out = tmp_path / "nats.csv"
        bits_out = tmp_path / "bits.csv"
        base = ["entropy", str(sample_file), "--sigma", "0.5", "--dim", "2",
                "--n-mc", "50", "--seed", "2"]
        assert main(base + ["--out", str(nats_out)]) == EXIT_OK
        assert main(base + ["--bits", "--out", str(bits_out)]) == EXIT_OK
        nats = float(read_csv_dict(nats_out)[0]["estimate"])
        bits = float(read_csv_dict(bits_out)[0]["estimate"])
        assert bits == pytest.approx(nats / math.log(2), rel=1e-12)
        assert read_csv_dict(bits_out)[0]["units"] == "bits"

    def test_missing_file_is_data_error(self, tmp_path):
        assert main(["entropy", str(tmp_path / "nope.csv")]) == EXIT_DATA

    def test_oversized_cell_is_data_error(self, tmp_path, capsys):
        # one cell beyond the csv module's 131072-character field limit
        path = tmp_path / "wide_cell.csv"
        path.write_text("1" * 140_003 + ",2\n3,4\n", encoding="utf-8")
        assert main(["entropy", str(path), "--dim", "1"]) == EXIT_DATA
        assert capsys.readouterr().err.startswith(f"error: {path}: field larger than field limit")

    def test_non_utf8_file_is_data_error(self, tmp_path, capsys):
        path = tmp_path / "latin1.csv"
        path.write_bytes(b"1,2\n3,\xe94\n")
        assert main(["entropy", str(path), "--dim", "1"]) == EXIT_DATA
        assert capsys.readouterr().err.startswith(f"error: {path}: 'utf-8' codec can't decode")

    def test_bad_dim_is_config_error(self, sample_file):
        assert main(["entropy", str(sample_file), "--dim", "0"]) == EXIT_CONFIG

    def test_sigma_beyond_float32_is_data_error(self, sample_file, capsys):
        # 1/sigma^2 = 1e40 overflows the kernel's float32; 1e-15 still fits
        base = ["entropy", str(sample_file), "--dim", "2", "--n-mc", "20", "--seed", "2"]
        assert main(base + ["--sigma", "1e-20"]) == EXIT_DATA
        assert capsys.readouterr().err.startswith("error: sigma = 1e-20 or a center")
        assert main(base + ["--sigma", "1e-15"]) == EXIT_OK
        assert math.isfinite(float(capsys.readouterr().out.split()[2]))

    def test_sigma_whose_square_overflows_is_data_error(self, sample_file, capsys):
        # 2 sigma^2 beyond float64; sigma = 1e20 still runs
        base = ["entropy", str(sample_file), "--dim", "2", "--n-mc", "20", "--seed", "2"]
        assert main(base + ["--sigma", "1e160"]) == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("error: sigma = 1e+160 or a center") and err.count("\n") == 1
        assert main(base + ["--sigma", "1e20"]) == EXIT_OK
        assert math.isfinite(float(capsys.readouterr().out.split()[2]))

    @pytest.mark.parametrize("split", ["half", "reuse"])
    @pytest.mark.parametrize(
        "rows",
        ["1.5e308\n-1.5e308\n1.5e308\n",
         "1e308,1e308\n1e308,-1e308\n-1e308,1e308\n1,2\n3,4\n5,6\n"],
        ids=["one-column", "two-columns"],
    )
    def test_overflowing_samples_are_data_error(self, tmp_path, capsys, rows, split):
        # the mean, the centering or the covariance product exceeds float64:
        # one error line, no numpy warning
        path = tmp_path / "huge.csv"
        path.write_text(rows, encoding="utf-8")
        out = tmp_path / "out.csv"
        argv = ["entropy", str(path), "--sigma", "0.1", "--dim", "1", "--split", split,
                "--out", str(out)]
        assert main(argv) == EXIT_DATA
        assert capsys.readouterr().err == "error: matrix contains non-finite entries\n"
        assert not out.exists()

    def test_dim_exceeding_ambient_is_config_error(self, sample_file):
        assert main(["entropy", str(sample_file), "--dim", "99"]) == EXIT_CONFIG

    @pytest.mark.parametrize("dim,kind,size", [("2", "Gram", 5), ("8", "covariance", 12)])
    def test_workspace_above_limit_is_data_error(self, tmp_path, monkeypatch, capsys, dim, kind, size):
        # 10 samples in 12 dimensions: the fit half of 5 takes the Gram route
        # at --dim 2 and the covariance at --dim 8 > 5, as a wide CSV would
        # at full scale.
        path = tmp_path / "wide.csv"
        write_samples(path, SampleMatrix(substream(7).standard_normal((12, 10))))
        monkeypatch.setattr(pca, "_WORKSPACE_LIMIT", 8 * size * size - 1)
        assert main(["entropy", str(path), "--dim", dim, "--n-mc", "5"]) == EXIT_DATA
        assert capsys.readouterr().err == (
            f"error: the {kind} matrix of 5 samples in 12 dimensions is {size} x {size}, "
            f"{8 * size * size} bytes, above the PCA fit's limit of {8 * size * size - 1} bytes\n"
        )


class TestMiCommands:
    @pytest.fixture
    def dump_file(self, tmp_path):
        rng = substream(5)
        blocks = [SampleMatrix(rng.standard_normal((2, 30)) + mu) for mu in (-2.0, 2.0)]
        path = tmp_path / "dump.csv"
        write_activation_dump(path, [0, 1], blocks)
        return path

    def test_mi_cond(self, tmp_path, dump_file):
        out = tmp_path / "mi.csv"
        code = main([
            "mi-cond", str(dump_file), "--sigma", "0.5", "--dim", "2",
            "--n-mc", "50", "--seed", "6", "--out", str(out),
        ])
        assert code == EXIT_OK
        row = read_csv_dict(out)[0]
        assert row["n_conditions"] == "2"
        assert float(row["mi"]) > 0

    def test_mi_cond_ragged_conditions(self, tmp_path):
        # two 2-d conditions 100 apart, 900 tight rows and 100 wide ones:
        # the MI is the binary entropy H(0.9, 0.1)
        rng = substream(2)
        blocks = [SampleMatrix(0.1 * rng.standard_normal((2, 900))),
                  SampleMatrix(100.0 + rng.standard_normal((2, 100)))]
        dump = tmp_path / "ragged.csv"
        write_activation_dump(dump, [0, 1], blocks)
        out = tmp_path / "mi.csv"
        assert main([
            "mi-cond", str(dump), "--sigma", "0.1", "--dim", "2",
            "--n-mc", "50", "--seed", "2", "--out", str(out),
        ]) == EXIT_OK
        row = read_csv_dict(out)[0]
        truth = -(0.9 * math.log(0.9) + 0.1 * math.log(0.1))
        assert abs(float(row["mi"]) - truth) <= 0.2
        assert float(row["mi"]) == (
            float(row["marginal_entropy"]) - float(row["conditional_entropy_mean"])
        )

    def test_mi_cond_row_equals_activation_mi_row(self, tmp_path, dump_file):
        flags = ["--sigma", "0.5", "--dim", "2", "--n-mc", "50", "--seed", "6", "--out"]
        mi_out, traj_out = tmp_path / "mi.csv", tmp_path / "traj.csv"
        assert main(["mi-cond", str(dump_file), *flags, str(mi_out)]) == EXIT_OK
        assert main(["activation-mi", f"h1:0:{dump_file}", *flags, str(traj_out)]) == EXIT_OK
        (mi_row,), (traj_row,) = read_csv_dict(mi_out), read_csv_dict(traj_out)
        # floats are written in shortest round-trip form, so equal text is equal bits
        for column in ("mi", "std_error", "marginal_entropy", "conditional_entropy_mean",
                       "n_conditions"):
            assert mi_row[column] == traj_row[column]

    def test_explicit_marginal_equal_to_all_rows(self, tmp_path, dump_file):
        marginal = tmp_path / "marginal.csv"
        rng = substream(5)
        rows = [rng.standard_normal((2, 30)) + mu for mu in (-2.0, 2.0)]
        write_samples(marginal, SampleMatrix(np.concatenate(rows, axis=1)))
        base = ["mi-cond", str(dump_file), "--sigma", "0.5", "--dim", "2",
                "--n-mc", "50", "--seed", "6", "--out"]
        default_out, explicit_out = tmp_path / "default.csv", tmp_path / "explicit.csv"
        assert main(base + [str(default_out)]) == EXIT_OK
        assert main(base + [str(explicit_out), "--marginal", str(marginal)]) == EXIT_OK
        assert default_out.read_bytes() == explicit_out.read_bytes()

    def test_mi_joint(self, tmp_path):
        prefix = tmp_path / "pair"
        assert main([
            "gen", "--kind", "pair", "--n", "200", "--dim", "2",
            "--ambient-dim", "5", "--noise-std", "0.05", "--seed", "8",
            "--out", str(prefix),
        ]) == EXIT_OK
        out = tmp_path / "joint.csv"
        code = main([
            "mi-joint", str(tmp_path / "pair_x.csv"), str(tmp_path / "pair_y.csv"),
            "--sigma", "1.0", "--dim", "2", "--n-mc", "40", "--seed", "9",
            "--out", str(out),
        ])
        assert code == EXIT_OK
        row = read_csv_dict(out)[0]
        assert {"mi", "h_x", "h_y", "h_joint"} <= set(row)

    def test_mismatched_pair_is_data_error(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        a.write_text("1.0\n2.0\n3.0\n", encoding="utf-8")
        b.write_text("1.0\n2.0\n", encoding="utf-8")
        assert main(["mi-joint", str(a), str(b), "--dim", "1"]) == EXIT_DATA

    def test_oversized_dim_is_config_error(self, sample_file):
        code = main(["mi-joint", str(sample_file), str(sample_file), "--dim", "99"])
        assert code == EXIT_CONFIG


class TestSweep:
    def test_byte_identical_reruns(self, tmp_path):
        args = [
            "sweep", "--kind", "gaussian", "--n", "40,80", "--d", "2",
            "--sigmas", "0.3", "--lambda-res", "0.01", "--repeats", "2",
            "--ambient-dim", "6", "--n-mc", "20", "--seed", "11", "--out",
        ]
        p1, p2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
        assert main(args + [str(p1)]) == EXIT_OK
        assert main(args + [str(p2)]) == EXIT_OK
        assert p1.read_bytes() == p2.read_bytes()
        rows = read_csv_dict(p1)
        assert len(rows) == 4  # 2 cells x 2 repeats

    def test_timing_flag_adds_column(self, tmp_path):
        out = tmp_path / "timed.csv"
        assert main([
            "sweep", "--n", "40", "--d", "2", "--repeats", "1",
            "--ambient-dim", "6", "--n-mc", "10", "--timing", "--out", str(out),
        ]) == EXIT_OK
        assert "wall_time_s" in read_csv_dict(out)[0]

    def test_mixed_kinds(self, tmp_path):
        out = tmp_path / "mixed.csv"
        assert main([
            "sweep", "--kind", "gaussian,spiral2d", "--n", "40", "--d", "2", "--repeats", "1",
            "--ambient-dim", "6", "--n-mc", "10", "--out", str(out),
        ]) == EXIT_OK
        rows = read_csv_dict(out)
        assert [(r["kind"], bool(r["reference"])) for r in rows] == [
            ("gaussian", True), ("spiral2d", False)
        ]

    @pytest.mark.parametrize(
        "axis, name",
        [("--kind", "kinds"), ("--n", "n_values"), ("--d", "d_values"),
         ("--sigmas", "sigma_values"), ("--lambda-res", "lambda_res_values")],
    )
    def test_empty_axis_is_config_error(self, tmp_path, capsys, axis, name):
        out = tmp_path / "empty.csv"
        code = main([
            "sweep", "--n", "20", "--repeats", "1", "--ambient-dim", "4", "--n-mc", "5",
            axis, "", "--out", str(out),
        ])
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err == f"error: sweep axis {name} is empty\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "axis, error",
        # 2 x 10^15 x 100 doubles (1.4 EiB) exceed any address space, so
        # numpy fails before anything is mapped
        [(["--n", str(10**15)], "MemoryError: Unable to allocate"),
         (["--n", "20", "--sigmas", "1e160"], "Unsupported: sigma = 1e+160 or a center")],
        ids=["n", "sigma"],
    )
    def test_failing_cell_is_error_row(self, tmp_path, capsys, axis, error):
        out = tmp_path / "failed.csv"
        assert main([
            "sweep", "--d", "1", "--repeats", "1", "--n-mc", "5", *axis, "--out", str(out),
        ]) == EXIT_OK
        rows = read_csv_dict(out)
        assert len(rows) == 1 and rows[0]["error"].startswith(error)
        assert "(1 failed cells)" in capsys.readouterr().out

    def test_bad_axis_value_is_config_error(self, tmp_path):
        code = main(["sweep", "--n", "abc", "--out", str(tmp_path / "x.csv")])
        assert code == EXIT_CONFIG


class TestIndepAuc:
    def test_small_run(self, tmp_path):
        out = tmp_path / "auc.csv"
        code = main([
            "indep-auc", "--n-datasets", "10", "--n", "60", "--dim", "2",
            "--ambient-dim", "6", "--noise-std", "0.05", "--sigma", "1.0",
            "--n-mc", "20", "--seed", "12", "--out", str(out),
        ])
        assert code == EXIT_OK
        rows = read_csv_dict(out)
        assert len(rows) == 10
        assert {r["dependent"] for r in rows} == {"true", "false"}

    def test_unbalanced_is_config_error(self):
        assert main(["indep-auc", "--n-datasets", "9"]) == EXIT_CONFIG


class TestActivationMi:
    def test_rows_and_error_rows(self, tmp_path):
        rng = substream(13)
        blocks = [SampleMatrix(rng.standard_normal((2, 20)) + mu) for mu in (-1.0, 1.0)]
        dump = tmp_path / "l0e0.csv"
        write_activation_dump(dump, [0, 1], blocks)
        out = tmp_path / "traj.csv"
        code = main([
            "activation-mi", f"h1:0:{dump}", f"h2:0:{tmp_path / 'missing.csv'}",
            "--sigma", "0.5", "--dim", "2", "--n-mc", "20", "--seed", "14",
            "--out", str(out),
        ])
        assert code == EXIT_OK
        rows = read_csv_dict(out)
        assert rows[0]["layer"] == "h1" and rows[0]["error"] == ""
        assert rows[1]["layer"] == "h2" and rows[1]["error"] != ""

    def test_oversized_header_cell_is_error_row(self, tmp_path):
        # one cell beyond the csv module's 131072-character field limit
        good, wide = tmp_path / "good.csv", tmp_path / "wide_header.csv"
        rng = substream(16)
        write_activation_dump(good, [0, 1], [SampleMatrix(rng.standard_normal((2, 20)) + mu)
                                             for mu in (-1.0, 1.0)])
        wide.write_text("cond," + "f" * 200_000 + "\n0,1.5\n1,2.5\n", encoding="utf-8")
        out = tmp_path / "traj.csv"
        assert main([
            "activation-mi", f"h1:0:{good}", f"h2:0:{wide}", "--sigma", "0.5", "--dim", "2",
            "--n-mc", "20", "--seed", "14", "--out", str(out),
        ]) == EXIT_OK
        rows = read_csv_dict(out)
        assert [row["layer"] for row in rows] == ["h1", "h2"]
        assert rows[0]["error"] == "" and rows[1]["mi"] == ""
        assert rows[1]["error"].startswith(f"InvalidData: {wide}: field larger than field limit")

    def test_memory_error_is_error_row(self, tmp_path, monkeypatch):
        rng = substream(17)
        blocks = [SampleMatrix(rng.standard_normal((2, 20)) + mu) for mu in (-1.0, 1.0)]
        small, large = tmp_path / "small.csv", tmp_path / "large.csv"
        for path in (small, large):
            write_activation_dump(path, [0, 1], blocks)
        ingest = experiments.ingest_activation_dump

        def exhausted(path):
            if path == large:
                raise MemoryError("Unable to allocate 8.00 EiB")
            return ingest(path)

        monkeypatch.setattr(experiments, "ingest_activation_dump", exhausted)
        out = tmp_path / "traj.csv"
        assert main([
            "activation-mi", f"h1:0:{small}", f"h1:1:{large}", "--sigma", "0.5", "--dim", "2",
            "--n-mc", "20", "--seed", "14", "--out", str(out),
        ]) == EXIT_OK
        rows = read_csv_dict(out)
        assert [row["epoch"] for row in rows] == ["0", "1"]
        assert rows[0]["error"] == ""
        assert rows[1]["error"] == "MemoryError: Unable to allocate 8.00 EiB"

    def test_empty_dump_list_writes_header_only(self, tmp_path):
        out = tmp_path / "empty.csv"
        assert main(["activation-mi", "--out", str(out)]) == EXIT_OK
        lines = out.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 1 and lines[0].startswith("layer,epoch,mi")

    def test_malformed_entry_is_config_error(self, tmp_path):
        code = main(["activation-mi", "justapath.csv", "--out", str(tmp_path / "x.csv")])
        assert code == EXIT_CONFIG

    def test_non_integer_epoch_is_config_error(self, tmp_path):
        code = main(["activation-mi", "l1:zero:file.csv", "--out", str(tmp_path / "x.csv")])
        assert code == EXIT_CONFIG
