import csv
import errno
import hashlib
import json
import math
import os
import subprocess
import sys
import warnings
from multiprocessing.process import BaseProcess
from pathlib import Path

import numpy as np
import pytest

from mdquant import BoundQuery, DescriptionChannel, lloyd_design
from mdquant import codec
from mdquant import reference_values as refs
from mdquant.cli import MAX_QUANTIZER_LEVELS, _check_levels, _parse_desc, main
from mdquant.persist import load_codec, save_codec
from mdquant.simulator import run_sym_experiment, to_db

from conftest import DESK_DESIGN, asym_config
from oracles import forced_pattern_errors


SRC = Path(__file__).resolve().parent.parent / "src"


def run_cli(*args):
    return main([str(a) for a in args])


def must_not_run(*args, **kwargs):
    raise AssertionError("work started before the command line was checked")


def assert_one_line_error(capsys):
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err


DESIGN = [
    "design", "--K", "8", "--desc", "2,2", "--bsc", "0.01", "--loss", "0.05",
    "--rho-enc", "0.8", "--nsi", "16", "--restarts", "1", "--seed", "7",
]


@pytest.fixture(scope="module")
def codec_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("codec") / "codec.json"
    assert run_cli(*DESIGN, "-o", path) == 0
    return path


class TestDesign:
    def test_writes_the_design_only(self, codec_file):
        data = json.loads(codec_file.read_text())
        assert data["format_version"] == 2
        assert list(data) == [
            "format_version", "quantizer", "si_quantizer", "ia", "channels", "design_rho",
            "metadata",
        ]

    def test_byte_identical_rerun(self, codec_file, tmp_path):
        other = tmp_path / "again.json"
        assert run_cli(*DESIGN, "-o", other) == 0
        assert other.read_bytes() == codec_file.read_bytes()

    def test_invalid_k_exits_2(self, tmp_path, capsys):
        rc = run_cli("design", "--K", "0", "--desc", "2,2", "--rho-enc", "0.5",
                     "--seed", "1", "-o", tmp_path / "x.json")
        assert rc == 2

    def test_awgn_design_rejected(self, tmp_path, capsys):
        # Design needs BSC channels, so ``design`` has no --awgn flag.
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            run_cli("design", "--K", "4", "--desc", "2,2", "--awgn", "0.5",
                    "--rho-enc", "0.5", "--seed", "1", "-o", tmp_path / "x.json")
        assert exc.value.code == 2
        assert "unrecognized arguments: --awgn 0.5" in capsys.readouterr().err
        assert not (tmp_path / "x.json").exists()

    def test_all_lost_prints_clean_zeros(self, capsys):
        rc = run_cli("design", "--K", "4", "--desc", "2,2", "--loss", "1",
                     "--rho-enc", "0.5", "--nsi", "4", "--restarts", "1", "--seed", "1")
        assert rc == 0
        out = capsys.readouterr().out.splitlines()
        assert " d_ch_db=-inf " in out[0]
        assert out[1] == "rates_bits=0.000000,0.000000"

    def test_missing_output_dir_exits_2_before_design(self, tmp_path, monkeypatch, capsys):
        def must_not_run(*args, **kwargs):
            raise AssertionError("design ran before the output path was checked")

        monkeypatch.setattr("mdquant.cli.design_annealed", must_not_run)
        rc = run_cli(*DESIGN, "-o", tmp_path / "missing" / "c.json")
        assert rc == 2
        assert_one_line_error(capsys)

    def test_round_trip_exact(self, codec_file):
        bundle = load_codec(codec_file)
        again = Path(str(codec_file) + ".rt")
        save_codec(bundle, again)
        assert again.read_bytes() == codec_file.read_bytes()
        reloaded = load_codec(again)
        assert np.array_equal(reloaded.ia.table, bundle.ia.table)
        assert np.array_equal(
            reloaded.quantizer.codewords, bundle.quantizer.codewords
        )

    def test_version_mismatch_exits_3(self, codec_file, tmp_path):
        data = json.loads(codec_file.read_text())
        data["format_version"] = 999
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        rc = run_cli("evaluate", "--codec", bad, "--rho-real", "0.8",
                     "--trials", "100", "--seed", "1")
        assert rc == 3

    @pytest.mark.parametrize("command", ["evaluate", "scenario"])
    def test_format_1_file_exits_3_with_one_line(self, codec_file, tmp_path, capsys, command):
        # A format-1 file also held decoder tables; its design is read by no command.
        data = json.loads(codec_file.read_text())
        data["format_version"] = 1
        old = tmp_path / "old.json"
        old.write_text(json.dumps(data))
        capsys.readouterr()
        argv = ["--rho-real", "0.8"] if command == "evaluate" else ["--nodes", "3"]
        assert run_cli(command, "--codec", old, *argv, "--trials", "100", "--seed", "1") == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith(
            "error: codec format version 1 is not supported (expected 2); re-run design"
        ), err


class TestBound:
    def test_single_point_row(self, tmp_path, capsys):
        out = tmp_path / "bound.csv"
        rc = run_cli("bound", "--rho", "0.8", "--r1", "2.321", "--r2", "2.319",
                     "--mu1", "0.05", "-o", out)
        assert rc == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "rho,r1,r2,mu1,mu2,d_min_db,d1_opt,d2_opt"
        d_min_db = float(lines[1].split(",")[5])
        assert abs(d_min_db - (-22.608)) <= 0.05

    def test_sweep_outputs_all_rows(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert run_cli("bound", "--sweep", "loss", "-o", out) == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 8  # header + 7 rows

    @pytest.mark.parametrize("flag", ["--literal-weighting", "--natural-delta"])
    def test_removed_reading_flags_exit_2(self, capsys, flag):
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            run_cli("bound", "--sweep", "loss", flag)
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err

    def test_missing_args_exit_2(self):
        assert run_cli("bound", "--rho", "0.8") == 2

    @pytest.mark.parametrize("point", [
        ["--rho", "0.3"], ["--r1", "2"], ["--r2", "2"], ["--mu1", "0.1"], ["--mu2", "0.1"],
    ], ids=lambda p: p[0])
    def test_sweep_with_a_point_argument_exits_2(self, tmp_path, capsys, point):
        out = tmp_path / "sweep.csv"
        capsys.readouterr()
        assert run_cli("bound", "--sweep", "loss", *point, "-o", out) == 2
        assert capsys.readouterr().err == f"error: --sweep cannot be combined with {point[0]}\n"
        assert not out.exists()

    def test_sweep_names_every_point_argument(self, capsys):
        capsys.readouterr()
        argv = ["--rho", "0.3", "--mu1", "0.1"]
        assert run_cli("bound", "--sweep", "correlation", *argv) == 2
        assert capsys.readouterr().err == "error: --sweep cannot be combined with --rho, --mu1\n"

    @pytest.mark.parametrize("point", [
        ("0.5", "28", "28", "0.1"), ("0.5", "14", "14", "1"), ("0.99999999", "1", "0", "0"),
    ])
    def test_every_accepted_point_prints_a_number(self, tmp_path, point):
        rho, r1, r2, mu1 = point
        out = tmp_path / "bound.csv"
        assert run_cli("bound", "--rho", rho, "--r1", r1, "--r2", r2, "--mu1", mu1, "-o", out) == 0
        row = out.read_text().splitlines()[1].split(",")
        assert all(math.isfinite(float(v)) for v in row[5:])

    def test_rate_sum_above_the_cap_exits_2(self, tmp_path, capsys):
        out = tmp_path / "bound.csv"
        capsys.readouterr()
        rc = run_cli("bound", "--rho", "0.5", "--r1", "600", "--r2", "600", "--mu1", "0.1",
                     "-o", out)
        assert rc == 2
        assert capsys.readouterr().err == "error: rates R1 + R2 must not exceed 500 bits\n"
        assert not out.exists()

    def test_unit_correlation_exits_2(self, tmp_path, capsys):
        out = tmp_path / "bound.csv"
        rc = run_cli("bound", "--rho", "1.0", "--r1", "1", "--r2", "1", "--mu1", "0.1",
                     "-o", out)
        assert rc == 2
        assert_one_line_error(capsys)
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--r1", "--r2"])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_rate_exits_2(self, tmp_path, capsys, flag, value):
        rates = {"--r1": "2.321", "--r2": "2.319", flag: value}
        out = tmp_path / "bound.csv"
        rc = run_cli("bound", "--rho", "0.8", *[v for kv in rates.items() for v in kv],
                     "--mu1", "0.05", "-o", out)
        assert rc == 2
        err = capsys.readouterr().err
        assert err == "error: rates must be nonnegative and finite\n"
        assert not out.exists()


class TestPublishedPoints:
    """``bound --sweep`` and ``report`` build their rows from one table."""

    def test_sweep_and_report_read_one_table(self, monkeypatch, tmp_path):
        point = ("mu=x", BoundQuery(r1=2.321, r2=2.319, rho=0.8, mu1=0.05, mu2=0.05), -22.608)
        monkeypatch.setattr("mdquant.cli._published_points", lambda sweep: [point])
        sweep, report = tmp_path / "sweep.csv", tmp_path / "report.txt"
        assert run_cli("bound", "--sweep", "correlation", "-o", sweep) == 0
        assert sweep.read_text().splitlines()[1].startswith("0.8,2.321,2.319,0.05,0.05,-22.60")
        assert run_cli("report", "-o", report) == 0
        assert report.read_text().count("\n  mu=x ref=  -22.608 got=  -22.609 ") == 2

    def test_report_label_widths(self, tmp_path):
        out = tmp_path / "report.txt"
        assert run_cli("report", "-o", out) == 0
        lines = out.read_text().splitlines()
        assert lines[3].startswith("  mu=0.3    ref=  -13.758 ")
        assert lines[9].startswith("  mu=0.005  ref=  -29.676 ")
        assert lines[11].startswith("  rho=0.0   ref=  -20.509 ")
        assert lines[17].startswith("  rho=0.95  ref=  -27.689 ")


class TestEvaluate:
    def test_schema_and_rows(self, codec_file, tmp_path):
        out = tmp_path / "eval.csv"
        rc = run_cli("evaluate", "--codec", codec_file, "--rho-real", "0.8",
                     "--bsc-sweep", "0.1,0.01", "--trials", "4000",
                     "--seed", "3", "-o", out)
        assert rc == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "p,d_side_db,d_central_db,d_av_db,stderr"
        assert len(lines) == 3

    def test_reproducible_output(self, codec_file, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["evaluate", "--codec", codec_file, "--rho-real", "0.8",
                "--trials", "4000", "--seed", "3"]
        assert run_cli(*args, "-o", a) == 0
        assert run_cli(*args, "-o", b) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_missing_codec_exits_2(self, tmp_path):
        rc = run_cli("evaluate", "--codec", tmp_path / "nope.json",
                     "--rho-real", "0.8", "--trials", "100", "--seed", "1")
        assert rc == 2

    @pytest.mark.parametrize("trials", [0, 1])
    def test_too_few_trials_exit_2(self, codec_file, tmp_path, capsys, trials):
        out = tmp_path / "eval.csv"
        capsys.readouterr()
        rc = run_cli("evaluate", "--codec", codec_file, "--rho-real", "0.8",
                     "--trials", trials, "--seed", "1", "-o", out)
        assert rc == 2
        assert_one_line_error(capsys)
        assert not out.exists()

    @pytest.mark.parametrize("flags", [
        ["--awgn", "nan"],
        ["--awgn", "inf"],
        ["--rho-real", "1.5", "--rho-dec", "0.8"],
        ["--rho-real", "nan", "--rho-dec", "0.8"],
        ["--rho-real", "-1", "--rho-dec", "0.5"],
        ["--rho-real", "1"],
    ], ids=" ".join)
    def test_bad_noise_or_real_correlation_exits_2(self, codec_file, tmp_path, capsys, flags):
        out = tmp_path / "eval.csv"
        capsys.readouterr()
        rc = run_cli("evaluate", "--codec", codec_file, "--rho-real", "0.8", *flags,
                     "--trials", "100", "--seed", "1", "-o", out)
        assert rc == 2
        assert_one_line_error(capsys)
        assert not out.exists()

    def test_negative_real_correlation_with_decoder_correlation_runs(self, codec_file, tmp_path):
        # A decoder that assumes the wrong sign of correlation is a valid
        # mismatch experiment; only |rho_real| >= 1 leaves the SI model.
        out = tmp_path / "eval.csv"
        rc = run_cli("evaluate", "--codec", codec_file, "--rho-real", "-0.5", "--rho-dec", "0.5",
                     "--trials", "100", "--seed", "1", "-o", out)
        assert rc == 0
        assert "nan" not in out.read_text()

    @pytest.mark.parametrize("flags, named", [
        (["--rho-dec=-0.3"], "--rho-dec"),
        (["--rho-dec", "nan"], "--rho-dec"),
        (["--rho-real=-0.5"], "--rho-real"),
        (["--rho-real=-0.5", "--nsi-sweep", "16,64"], "--rho-real"),
    ], ids=["negative_rho_dec", "nan_rho_dec", "negative_rho_real", "negative_rho_real_nsi"])
    def test_bad_decoder_correlation_exits_2_before_the_codec_loads(
        self, codec_file, tmp_path, monkeypatch, capsys, flags, named
    ):
        # The decoder reads its tables at --rho-dec, or at --rho-real without it.
        monkeypatch.setattr("mdquant.cli.load_codec", must_not_run)
        out = tmp_path / "eval.csv"
        capsys.readouterr()
        rc = run_cli("evaluate", "--codec", codec_file, "--rho-real", "0.8", *flags,
                     "--trials", "100", "--seed", "1", "-o", out)
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {named} must lie in [0, 1]"), err
        assert err.count("\n") == 1, err
        assert not out.exists()

    def test_negative_real_correlation_without_si_runs(self, codec_file, tmp_path):
        # Without SI the decoder reads no correlation.
        out = tmp_path / "eval.csv"
        rc = run_cli("evaluate", "--codec", codec_file, "--rho-real", "-0.5", "--no-si",
                     "--trials", "100", "--seed", "1", "-o", out)
        assert rc == 0
        assert "nan" not in out.read_text()

    @pytest.mark.parametrize("rho_real, quadratures", [
        ("0.8", [[0.8]]),  # the exact distortions' moments serve the tables' level
        ("0.85", [[0.85], [0.8]]),
    ])
    def test_moment_quadratures(self, codec_file, tmp_path, monkeypatch, rho_real, quadratures):
        # The decoder tables are built at the one ladder level of --rho-real.
        calls = []
        stack = codec.si_moment_stack

        def counted(quantizer, si_quantizer, rhos):
            calls.append([float(r) for r in rhos])
            return stack(quantizer, si_quantizer, rhos)

        monkeypatch.setattr(codec, "si_moment_stack", counted)
        assert run_cli("evaluate", "--codec", codec_file, "--rho-real", rho_real,
                       "--trials", "100", "--seed", "1", "-o", tmp_path / "e.csv") == 0
        assert calls == quadratures

    def test_nsi_sweep_monotone(self, codec_file, tmp_path):
        out = tmp_path / "nsi.csv"
        rc = run_cli("evaluate", "--codec", codec_file, "--rho-real", "0.8",
                     "--nsi-sweep", "2,8,64,256", "--trials", "60000",
                     "--seed", "3", "-o", out)
        assert rc == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "nsi,d_side_db,d_central_db,d_av_db,stderr"
        rows = [line.split(",") for line in lines[1:]]
        d = [float(r[3]) for r in rows]
        sig = [float(r[4]) for r in rows]
        # Finer SI quantizers never hurt (within Monte-Carlo slack, in dB).
        for i in range(len(d) - 1):
            slack_db = 3 * (sig[i] + sig[i + 1]) / (10 ** (d[i] / 10) * np.log(10) / 10)
            assert d[i + 1] <= d[i] + slack_db

    @pytest.mark.parametrize("args, first", [
        (["--nsi-sweep", "4,16"], "nsi"),
        (["--bsc-sweep", "0.01"], "p"),
        (["--awgn", "0.5"], "p"),
        ([], "p"),
    ], ids=["nsi_sweep", "bsc_sweep", "awgn", "codec_channels"])
    def test_header_names_the_first_column(self, codec_file, tmp_path, args, first):
        # The first column is the SI quantizer size of an SI size sweep, and
        # the bit error rate or noise PSD of every other row.
        out = tmp_path / "eval.csv"
        assert run_cli("evaluate", "--codec", codec_file, "--rho-real", "0.8", *args,
                       "--trials", "100", "--seed", "1", "-o", out) == 0
        with out.open(newline="") as f:
            header = next(csv.reader(f))
        assert header == [first, "d_side_db", "d_central_db", "d_av_db", "stderr"]

    def test_nsi_sweep_conflicts(self, codec_file):
        rc = run_cli("evaluate", "--codec", codec_file, "--rho-real", "0.8",
                     "--nsi-sweep", "2,8", "--bsc-sweep", "0.1",
                     "--trials", "100", "--seed", "1")
        assert rc == 2

    @pytest.mark.parametrize("flags", [["--nsi-sweep", "16,64"], ["--rho-dec", "0.2"]],
                             ids=["nsi_sweep", "rho_dec"])
    def test_no_si_with_an_si_flag_exits_2_before_the_codec_loads(
        self, codec_file, tmp_path, monkeypatch, capsys, flags
    ):
        # Without SI, the flag could only write identical rows or be dropped.
        def must_not_run(*args, **kwargs):
            raise AssertionError("the codec loaded before the flags were checked")

        monkeypatch.setattr("mdquant.cli.load_codec", must_not_run)
        monkeypatch.setattr("mdquant.cli.run_asym_experiment", must_not_run)
        out = tmp_path / "eval.csv"
        capsys.readouterr()
        rc = run_cli("evaluate", "--codec", codec_file, "--rho-real", "0.8", *flags, "--no-si",
                     "--trials", "100", "--seed", "1", "-o", out)
        assert rc == 2
        assert_one_line_error(capsys)
        assert not out.exists()

    def test_awgn_with_bsc_sweep_exits_2_before_any_draw(
        self, codec_file, tmp_path, monkeypatch, capsys
    ):
        def must_not_run(*args, **kwargs):
            raise AssertionError("the experiment ran before the flags were checked")

        monkeypatch.setattr("mdquant.cli.run_asym_experiment", must_not_run)
        out = tmp_path / "eval.csv"
        capsys.readouterr()
        rc = run_cli("evaluate", "--codec", codec_file, "--rho-real", "0.8",
                     "--awgn", "0.5", "--bsc-sweep", "0.1,0.01",
                     "--trials", "100", "--seed", "1", "-o", out)
        assert rc == 2
        assert_one_line_error(capsys)
        assert not out.exists()

    def test_sweep_rows_equal_single_value_runs(self, codec_file, tmp_path):
        args = ["evaluate", "--codec", codec_file, "--rho-real", "0.8",
                "--trials", "3000", "--seed", "4"]
        swept = tmp_path / "swept.csv"
        assert run_cli(*args, "--bsc-sweep", "0.1,0.01,0", "-o", swept) == 0
        rows = swept.read_text().splitlines()[1:]
        for i, p in enumerate(["0.1", "0.01", "0"]):
            single = tmp_path / f"single{i}.csv"
            assert run_cli(*args, "--bsc-sweep", p, "-o", single) == 0
            assert single.read_text().splitlines()[1:] == [rows[i]]


def _quantizer_dict(q):
    return {
        "codewords": q.codewords.tolist(),
        "thresholds": q.thresholds.tolist(),
        "cell_probs": q.cell_probs.tolist(),
    }


def _three_index_channel(data):
    data["channels"][0]["index_count"] = 3


def _oversized_si_quantizer(data):
    data["si_quantizer"] = _quantizer_dict(lloyd_design(MAX_QUANTIZER_LEVELS + 1))


def _oversized_quantizer(data):
    # Every cell maps to tuple 0, so the assignment fits the quantizer.
    data["quantizer"] = _quantizer_dict(lloyd_design(MAX_QUANTIZER_LEVELS + 1))
    data["ia"]["table"] = [[1.0, 0.0, 0.0, 0.0]] * (MAX_QUANTIZER_LEVELS + 1)


def _oversized_tuple_count(data):
    data["channels"][0]["index_count"] = MAX_QUANTIZER_LEVELS


class TestCodecConsistency:
    """A codec file whose parts do not fit together, or that would make its
    decoders' tables larger than the largest quantizer size allows, exits 2
    with one line."""

    @pytest.mark.parametrize("edit, message", [
        (_three_index_channel, "index assignment is 8 x 4, expected 8 cells x 6 index tuples"),
        (_oversized_si_quantizer, "codec SI quantizer size 1025 exceeds the largest quantizer "
                                  "size 1024"),
        (_oversized_quantizer, "codec quantizer size 1025 exceeds the largest quantizer size 1024"),
        (_oversized_tuple_count, "codec index tuple count 2048 exceeds the largest quantizer "
                                 "size 1024"),
    ], ids=["index_count", "si_quantizer_size", "quantizer_size", "tuple_count"])
    def test_inconsistent_codec_exits_2(self, codec_file, tmp_path, capsys, edit, message):
        data = json.loads(codec_file.read_text())
        edit(data)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        capsys.readouterr()
        rc = run_cli("evaluate", "--codec", bad, "--rho-real", "0.8",
                     "--trials", "100", "--seed", "1")
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert message in err


# The evaluate CSVs of the desk codec (conftest.DESK_DESIGN) at 20k trials.
# Their d_av_db and stderr cells are those it gave before the asymmetric
# experiment shared its draws across a sweep and decoded in trial blocks;
# the d_side_db and d_central_db cells of BSC rows are exact expectations.
DESK_SHA256 = "ed238776e0246f1646d6115dc448d63b082a40a784f2275b214f926854eaa3d0"
DESK_EVAL = ["--trials", "20000", "--seed", "3"]
PINNED_EVALUATE = {
    "bsc_sweep": (
        ["--rho-real", "0.8", "--bsc-sweep", "0.01,0.001,0"],
        "p,d_side_db,d_central_db,d_av_db,stderr\n"
        "0.01,-7.841584,-15.179547,-13.773541,0.001730854368683245\n"
        "0.001,-8.140007,-17.437288,-15.227500,0.0014918054082606015\n"
        "0.0,-8.177531,-17.804758,-15.348989,0.0014930105003065851\n",
    ),
    "bsc_sweep_no_si": (
        ["--rho-real", "0.8", "--bsc-sweep", "0.02,0", "--no-si"],
        "p,d_side_db,d_central_db,d_av_db,stderr\n"
        "0.02,-1.584184,-2.878570,-3.021369,0.013044769445373635\n"
        "0.0,-1.763966,-3.168987,-3.336211,0.013186773910341686\n",
    ),
    "codec_channels": (
        ["--rho-real", "0.7", "--rho-dec", "0.9"],
        "p,d_side_db,d_central_db,d_av_db,stderr\n"
        "0.005,-5.410074,-11.228063,-10.250644,0.004968279660806158\n",
    ),
    "awgn": (
        ["--rho-real", "0.8", "--awgn", "0.5"],
        "p,d_side_db,d_central_db,d_av_db,stderr\n"
        "0.5,,,-13.627668,0.001690330939581159\n",
    ),
    "awgn_no_si": (
        ["--rho-real", "0.8", "--awgn", "0.5", "--no-si"],
        "p,d_side_db,d_central_db,d_av_db,stderr\n"
        "0.5,,,-3.127953,0.013119926019259166\n",
    ),
}

# The d_side_db and d_central_db cells that the forced-pattern Monte-Carlo
# decode wrote into the pinned BSC rows before they became exact, with each
# case's ``asym_config`` fields and bit error rates (None: the codec's own).
FORCED_PATTERN_CELLS = {
    "bsc_sweep": ({"rho_real": 0.8}, (0.01, 0.001, 0.0), [
        ("-7.956078", "-15.445195"), ("-8.258151", "-17.889509"), ("-8.285052", "-18.107435"),
    ]),
    "bsc_sweep_no_si": ({"rho_real": 0.8, "no_si": True}, (0.02, 0.0), [
        ("-1.785565", "-3.149567"), ("-1.981844", "-3.485068"),
    ]),
    "codec_channels": ({"rho_real": 0.7, "rho_dec": 0.9}, (None,), [
        ("-5.545098", "-11.448667"),
    ]),
}

# The d_av_db and stderr cells of the pinned AWGN rows when their noise came
# from ``Generator.standard_normal``, before it was inverted from uniforms.
NORMAL_DRAW_AWGN_CELLS = {
    "awgn": ("-13.497449", "0.0018287171372466347"),
    "awgn_no_si": ("-3.168263", "0.013012795566102357"),
}


class TestPinnedEvaluate:
    def test_desk_codec_is_the_recorded_one(self, desk_codec):
        digest = hashlib.sha256(desk_codec.read_bytes()).hexdigest()
        assert digest == DESK_SHA256, "the design moved; the pinned CSVs below assume this codec"

    @pytest.mark.parametrize("case", sorted(PINNED_EVALUATE))
    def test_csv_unchanged(self, desk_codec, tmp_path, case):
        args, expected = PINNED_EVALUATE[case]
        out = tmp_path / "eval.csv"
        assert run_cli("evaluate", "--codec", desk_codec, *args, *DESK_EVAL, "-o", out) == 0
        assert out.read_text() == expected

    @pytest.mark.parametrize("rho_real", ["0.8", "-0.5"])
    def test_no_si_row_is_the_one_level_si_row_at_rho_0(self, desk_codec, tmp_path, rho_real):
        # --no-si decodes through a one-level SI quantizer read at rho 0.
        rows = []
        for flags in (["--no-si"], ["--nsi-sweep", "1", "--rho-dec", "0"]):
            out = tmp_path / "eval.csv"
            assert run_cli("evaluate", "--codec", desk_codec, "--rho-real", rho_real, *flags,
                           *DESK_EVAL, "-o", out) == 0
            rows.append([line.split(",", 1)[1] for line in out.read_text().splitlines()])
        assert rows[0] == rows[1]

    @pytest.mark.parametrize("case", sorted(FORCED_PATTERN_CELLS))
    def test_exact_cells_lie_within_5_stderr_of_the_forced_pattern_cells(self, desk_codec, case):
        fields, bers, old_cells = FORCED_PATTERN_CELLS[case]
        bundle = load_codec(desk_codec)
        cfg = asym_config(bundle, trials=20_000, seed=3, **fields)
        rows = PINNED_EVALUATE[case][1].splitlines()[1:]
        for ber, old, row in zip(bers, old_cells, rows, strict=True):
            chs = bundle.channels if ber is None else tuple(
                DescriptionChannel.bsc(ber, ch.loss_prob, ch.index_count) for ch in bundle.channels
            )
            d10, d01, d11 = forced_pattern_errors(cfg, chs, (2, 1, 3))
            # The oracle is the removed decode: it gives the old cells.
            side, central = float(np.mean((float(d10.mean()), float(d01.mean())))), d11.mean()
            assert (f"{to_db(side):.6f}", f"{to_db(central):.6f}") == old
            new = [10 ** (float(cell) / 10) for cell in row.split(",")[1:3]]
            for errs, mean, exact in zip(((d10 + d01) / 2, d11), (side, central), new):
                assert abs(mean - exact) < 5 * errs.std(ddof=1) / np.sqrt(errs.size), row

    @pytest.mark.parametrize("case", sorted(NORMAL_DRAW_AWGN_CELLS))
    def test_awgn_cells_lie_within_5_stderr_of_the_normal_draw_cells(self, case):
        old_db, old_stderr = map(float, NORMAL_DRAW_AWGN_CELLS[case])
        [row] = PINNED_EVALUATE[case][1].splitlines()[1:]
        new_db, new_stderr = map(float, row.split(",")[3:])
        combined = np.hypot(old_stderr, new_stderr)
        assert abs(10 ** (old_db / 10) - 10 ** (new_db / 10)) < 5 * combined


# SHA-256 of codec files: the full-scale codec, whose 1,800 inner steps per
# restart take most of the INNER_TOL decisions at capped temperatures, and
# the CI desk codecs over a noisy and an error-free BSC, at four seeds.
# Restart 1 of the CI desk designs at (0.005, 2) and (0, 1) reaches a
# relabeling of restart 0's table with a d_av lower only in the last bits;
# since tied restarts keep the first (codec.RESTART_TIE_RTOL) they keep
# restart 0's table.
FULL_DESIGN = [
    "design", "--K", "256", "--desc", "8,8", "--bsc", "0", "--loss", "0.05",
    "--rho-enc", "0.8", "--nsi", "128", "--restarts", "2", "--seed", "1",
]
FULL_SHA256 = "f829bc47c82794e55de507db9141727e7cbe437f5c108a69c5a441907af7f00a"
CI_DESK_DESIGN = [
    "design", "--K", "16", "--desc", "4,4", "--loss", "0.05", "--rho-enc", "0.4",
    "--nsi", "64", "--restarts", "2",
]
CI_DESK_SHA256 = {
    ("0.005", 1): "36b9626de6b37ea484003d26e326d1e2b8edfbdc57e5685dc7a536caa4623f03",
    ("0.005", 2): "3899020868fed1ff7014d8df8bda21c42d7d53cd4ae6b2a6f252edbb760b52a9",
    ("0.005", 3): "a8241e7be9a40098c1354c09e7571650b0c68e53c7b83987dda305a49fbde3b9",
    ("0.005", 4): "e18a2968a1af41d66fdac989c5c874eccb439e1baaf6a4b12ab591ae5cd634af",
    ("0", 1): "0b5fe69a5d80236749f4b93eb149d9c3884835382c3aebdd4cc9fa5c1be150c7",
    ("0", 2): "8fdbc6fc98e851b560d38c8ad0e35ce413fc6555f6cdfae3570e122654c31bdc",
    ("0", 3): "4ea83a9cdcafa3ccbbb7b70abaa9274ddb90b3fa60b4c241883e4db5238b10d0",
    ("0", 4): "ed1c2154d2096d481afa6ddf2224e9564d83f00aa22565abc01a8f475ec80fb3",
}
# What the whole-file pins guard, recorded with the tie rule in place: the
# SHA-256 of each pinned codec file without its metadata block (the design),
# and its metadata d_se, d_ch and d_av.  A change of how the distortions are
# summed may move their last bits, and with them the whole-file pins, but
# must keep every table byte for byte and each distortion within 1e-12.
PINNED_DESIGNS = {
    "full": FULL_DESIGN,
    **{f"ci-desk-{bsc}-{seed}": [*CI_DESK_DESIGN, "--bsc", bsc, "--seed", str(seed)]
       for bsc, seed in CI_DESK_SHA256},
    "desk": DESK_DESIGN,
}
PINNED_TABLES = {
    "full": ("dedd3b63f59e86677f4b1911bd44461f70d40302faa14000664b30d639dfedf5",
             0.0032818461968300294, 0.005582679130872208, 0.008864525327702238),
    "ci-desk-0.005-1": ("d1aba212459cce79f8317eea5ba60b4a0958ee7570370ad6880d5f764ba3a898",
                        0.04156504276965767, 0.025217116318804668, 0.06678215908846233),
    "ci-desk-0.005-2": ("90b37236d7c3054ea4b49e7e2cccb6ef95593995877997e77a60f0f47d1f20a0",
                        0.03497343566572808, 0.029122884806620602, 0.06409632047234869),
    "ci-desk-0.005-3": ("4406dd0a3958ac3b48b127652aea0d1d1fbdaf14db57f2d581e7b5552e7c35d0",
                        0.04156504276965767, 0.025217116318804682, 0.06678215908846236),
    "ci-desk-0.005-4": ("87e42dc371d48c9d481615bf0598c90c55d98df649742eeab917e1923ecd1024",
                        0.03497343566572808, 0.02912288480662062, 0.0640963204723487),
    "ci-desk-0-1": ("e0ab3ba8600ca286d927151cbd73a74cb287d516f4750eea7ccad5daa5bc4573",
                    0.0349734356657283, 0.0155422193710116, 0.0505156550367399),
    "ci-desk-0-2": ("e5df339b3993f62b09155d13c69e00a27f1bea59978d119d18356105285d3521",
                    0.03497343566572808, 0.0155422193710116, 0.05051565503673968),
    "ci-desk-0-3": ("d0d1b9dec49e1bb1ad1237b6ce5b0a74ac9ed6fac927d0a53c76d7c05314406b",
                    0.03497343566572808, 0.015542219371011598, 0.05051565503673968),
    "ci-desk-0-4": ("4c4f12aaeeb1564b6a30bdca1b8b92ed2c0273d06c33f22866c1163b0eabe068",
                    0.03497343566572808, 0.0155422193710116, 0.05051565503673968),
    "desk": ("128178e8e042c37c5bb835f62eca8fffef7ca2696eac4d7d6b445d10157d76de",
             0.01657769834909739, 0.02066647144656385, 0.03724416979566124),
}


@pytest.fixture(scope="module")
def pinned_codec(tmp_path_factory):
    """Bytes of the codec file of a ``PINNED_DESIGNS`` entry, designed once per module."""
    made = {}

    def design(name):
        if name not in made:
            out = tmp_path_factory.mktemp("pinned") / f"{name}.json"
            assert run_cli(*PINNED_DESIGNS[name], "-o", out) == 0
            made[name] = out.read_bytes()
        return made[name]

    return design


class TestDesignedCodecPins:
    def test_full_scale(self, pinned_codec):
        assert hashlib.sha256(pinned_codec("full")).hexdigest() == FULL_SHA256

    @pytest.mark.parametrize("bsc,seed", sorted(CI_DESK_SHA256))
    def test_ci_desk(self, pinned_codec, bsc, seed):
        data = pinned_codec(f"ci-desk-{bsc}-{seed}")
        assert hashlib.sha256(data).hexdigest() == CI_DESK_SHA256[bsc, seed]

    @pytest.mark.parametrize("name", sorted(PINNED_TABLES))
    def test_tables_and_distortions_kept(self, pinned_codec, name):
        codec = json.loads(pinned_codec(name))
        meta = codec.pop("metadata")
        sha, *distortions = PINNED_TABLES[name]
        assert hashlib.sha256(json.dumps(codec).encode()).hexdigest() == sha
        for key, recorded in zip(("d_se", "d_ch", "d_av"), distortions):
            assert abs(meta[key] - recorded) <= 1e-12 * recorded, key

    def test_tied_restarts_keep_the_first(self, pinned_codec):
        # Restart 1 reaches a relabeling of restart 0's table, 2.2e-16 lower.
        assert json.loads(pinned_codec("ci-desk-0.005-2"))["metadata"]["best_restart"] == 0


class TestScenario:
    def test_end_to_end(self, codec_file, tmp_path):
        out = tmp_path / "scen.csv"
        rc = run_cli("scenario", "--nodes", "4", "--codec", codec_file,
                     "--mode", "soft", "--si-method", "distance",
                     "--trials", "1500", "--seed", "5", "-o", out)
        assert rc == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "nodes,mode,si_method,trials,d_av_db,stderr"
        assert lines[1].startswith("4,soft,distance,1500,")

    def test_reproducible(self, codec_file, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["scenario", "--nodes", "4", "--codec", codec_file,
                "--mode", "estimated", "--si-method", "min_distortion",
                "--trials", "1000", "--seed", "5"]
        assert run_cli(*args, "-o", a) == 0
        assert run_cli(*args, "-o", b) == 0
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("rho_enc", [None, "0.6"])
    def test_designs_the_codec_design_writes(self, tmp_path, monkeypatch, rho_enc):
        # Without --codec, scenario designs its shared codec from its own
        # design arguments, exactly as ``design`` would from the same ones.
        shared = {}

        def keep_bundle(cfg):
            shared["bundle"] = cfg.bundle
            return run_sym_experiment(cfg)

        monkeypatch.setattr("mdquant.cli.run_sym_experiment", keep_bundle)
        design_args = ["--K", "8", "--desc", "2,2", "--bsc", "0.01", "--loss", "0.1",
                       "--nsi", "8", "--restarts", "2", "--seed", "4"]
        rho_args = [] if rho_enc is None else ["--rho-enc", rho_enc]
        assert run_cli("scenario", "--nodes", "4", *design_args, *rho_args,
                       "--trials", "100", "-o", tmp_path / "scen.csv") == 0
        save_codec(shared["bundle"], tmp_path / "scenario.json")
        rho = rho_enc or repr(shared["bundle"].design_rho)
        assert run_cli("design", *design_args, "--rho-enc", rho,
                       "-o", tmp_path / "design.json") == 0
        assert (tmp_path / "scenario.json").read_bytes() == (tmp_path / "design.json").read_bytes()

    def test_one_trial_exits_2(self, codec_file, tmp_path, capsys):
        out = tmp_path / "scen.csv"
        capsys.readouterr()
        rc = run_cli("scenario", "--nodes", "4", "--codec", codec_file,
                     "--trials", "1", "--seed", "5", "-o", out)
        assert rc == 2
        assert_one_line_error(capsys)
        assert not out.exists()

    @pytest.mark.parametrize("alpha", ["0", "-1", "nan", "inf"])
    def test_bad_alpha_exits_2_before_design(self, tmp_path, monkeypatch, capsys, alpha):
        def must_not_run(*args, **kwargs):
            raise AssertionError("the shared codec was designed before alpha was checked")

        monkeypatch.setattr("mdquant.cli.design_annealed", must_not_run)
        out = tmp_path / "scen.csv"
        rc = run_cli("scenario", "--nodes", "3", "--alpha", alpha, "--K", "4",
                     "--desc", "2,2", "--nsi", "4", "--restarts", "1",
                     "--trials", "200", "--seed", "1", "-o", out)
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: alpha must be positive and finite")
        assert err.count("\n") == 1, err
        assert not out.exists()

    def test_scenario_file_bad_alpha_exits_2(self, codec_file, tmp_path, capsys):
        bad = tmp_path / "field.json"
        bad.write_text(json.dumps({"positions": [[0.0, 0.0], [0.5, 0.5]], "alpha": 0.0}))
        capsys.readouterr()
        rc = run_cli("scenario", "--scenario-file", bad, "--codec", codec_file,
                     "--trials", "100", "--seed", "1")
        assert rc == 2
        assert "alpha must be positive and finite" in capsys.readouterr().err

    @pytest.mark.parametrize("field, message", [
        ({"positions": [[], [], []]}, "positions must be at least two [x, y] pairs of numbers"),
        ({"positions": [[0.0, 0.0], [0.5]]}, "positions must be at least two [x, y] pairs"),
        ({"positions": [[0.0, 0.0], ["0.5", 0.5]]}, "positions must be at least two [x, y] pairs"),
        ({"positions": [[0.0, 0.0], [0.5, 0.5]], "alpha": True}, "alpha must be a number"),
        ({"positions": [[0.0, 0.0], [0.5, 0.5]], "alpha": "2"}, "alpha must be a number"),
        ({"positions": [[0.0, 0.0], [0.5, 0.5]], "alpha": 10**400}, "numbers must be finite"),
        ({"positions": [[0.0, 0.0], [0.5, 0.5]], "seed": 1.7}, "seed must be a non-negative integer"),
        ({"positions": [[0.0, 0.0], [0.5, 0.5]], "seed": -3}, "seed must be a non-negative integer"),
        ({"positions": [[0.0, 0.0], [0.5, 0.5]], "seed": True}, "seed must be a non-negative integer"),
    ], ids=["no_coordinates", "one_coordinate", "string_coordinate", "bool_alpha",
            "string_alpha", "overflowing_alpha", "fractional_seed", "negative_seed", "bool_seed"])
    def test_scenario_file_coerced_field_exits_2(
        self, codec_file, tmp_path, capsys, field, message
    ):
        # A field of the wrong type is rejected, never read as something else.
        path = tmp_path / "field.json"
        path.write_text(json.dumps(field))
        out, saved = tmp_path / "scen.csv", tmp_path / "saved.json"
        capsys.readouterr()
        rc = run_cli("scenario", "--scenario-file", path, "--codec", codec_file,
                     "--trials", "100", "--seed", "1", "--save-scenario", saved, "-o", out)
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: scenario file ") and message in err, err
        assert err.count("\n") == 1, err
        assert not out.exists() and not saved.exists()

    def test_scenario_file_nan_position_exits_2(self, codec_file, tmp_path, capsys):
        bad = tmp_path / "field.json"
        bad.write_text('{"positions": [[0.0, 0.0], [NaN, 0.5], [0.2, 0.1]], "alpha": 2.0}')
        capsys.readouterr()
        rc = run_cli("scenario", "--scenario-file", bad, "--codec", codec_file,
                     "--trials", "100", "--seed", "1")
        assert rc == 2
        err = capsys.readouterr().err
        assert err == "error: node positions must be finite\n"

    @pytest.mark.parametrize("field, message", [
        ('{"positions": [[0.0, 0.0], [0.5]]}', "error: scenario file positions must be"),
        ('{"positions": [[0.0, 0.0], [0.5, 0.5]], "alpha": 0.0}',
         "error: alpha must be positive and finite"),
        ('{"positions": [[0.0, 0.0], [NaN, 0.5]]}', "error: node positions must be finite"),
    ], ids=["bad_positions", "zero_alpha", "nan_position"])
    def test_bad_scenario_file_is_reported_before_the_codec_file(
        self, tmp_path, monkeypatch, capsys, field, message
    ):
        monkeypatch.setattr("mdquant.cli.load_codec", must_not_run)
        bad = tmp_path / "field.json"
        bad.write_text(field)
        capsys.readouterr()
        rc = run_cli("scenario", "--scenario-file", bad, "--codec", tmp_path / "missing.json",
                     "--trials", "100", "--seed", "1")
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith(message) and err.count("\n") == 1, err

    def test_empty_scenario_file_exits_2(self, codec_file, tmp_path):
        bad = tmp_path / "empty.json"
        bad.write_text("")
        rc = run_cli("scenario", "--scenario-file", bad, "--codec", codec_file,
                     "--trials", "100", "--seed", "1")
        assert rc == 2

    @pytest.mark.parametrize("mode", ["estimated", "soft"])
    @pytest.mark.parametrize("method", ["distance", "mutual_info", "min_distortion"])
    def test_coincident_nodes_run_clean(self, codec_file, tmp_path, monkeypatch, mode, method):
        # Nodes 0 and 1 coincide: rho = 1 between them, and the correlation
        # matrix is singular, so sampling projects it onto the PSD cone.
        field = tmp_path / "field.json"
        field.write_text(json.dumps({"positions": [[0.1, 0.1], [0.1, 0.1], [0.5, 0.5]]}))
        results = []

        def recorded(cfg):
            results.append(run_sym_experiment(cfg))
            return results[-1]

        monkeypatch.setattr("mdquant.cli.run_sym_experiment", recorded)
        out = tmp_path / "scen.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = run_cli("scenario", "--scenario-file", field, "--codec", codec_file,
                         "--mode", mode, "--si-method", method,
                         "--trials", "500", "--seed", "3", "-o", out)
        assert rc == 0
        row = out.read_text().splitlines()[1].split(",")
        assert row[:3] == ["3", mode, method]
        assert math.isfinite(float(row[4])) and math.isfinite(float(row[5]))
        assert results[0].psd_projected is True

    @pytest.mark.parametrize("field", ["coincident", "generated_40"])
    def test_projected_field_warns_on_stderr(self, codec_file, tmp_path, capsys, field):
        if field == "coincident":
            path = tmp_path / "field.json"
            path.write_text(json.dumps({"positions": [[0.1, 0.1], [0.1, 0.1], [0.5, 0.5]]}))
            nodes = ["--scenario-file", path]
        else:
            nodes = ["--nodes", "40"]
        capsys.readouterr()
        rc = run_cli("scenario", *nodes, "--codec", codec_file, "--trials", "200",
                     "--seed", "3", "-o", tmp_path / "scen.csv")
        assert rc == 0
        warned = "warning=correlation matrix projected onto the PSD cone" in (
            capsys.readouterr().err.splitlines()
        )
        assert warned == (field == "coincident")

    def test_scenario_file_round_trip(self, codec_file, tmp_path):
        saved = tmp_path / "field.json"
        out1 = tmp_path / "r1.csv"
        rc = run_cli("scenario", "--nodes", "4", "--codec", codec_file,
                     "--save-scenario", saved, "--trials", "800",
                     "--seed", "9", "-o", out1)
        assert rc == 0
        out2 = tmp_path / "r2.csv"
        rc = run_cli("scenario", "--scenario-file", saved, "--codec", codec_file,
                     "--trials", "800", "--seed", "9", "-o", out2)
        assert rc == 0
        assert out1.read_bytes() == out2.read_bytes()


class TestReport:
    def test_report_passes(self, tmp_path):
        out = tmp_path / "report.txt"
        assert run_cli("report", "-o", out) == 0
        text = out.read_text()
        assert "overall: PASS" in text
        assert "FAIL" not in text.replace("PASS/FAIL", "")

    def test_failed_verdict_exits_2_after_full_report(self, tmp_path, monkeypatch, capsys):
        row = refs.BOUND_VS_LOSS[0]
        monkeypatch.setitem(row, "bound_db", row["bound_db"] + 1.0)
        out = tmp_path / "report.txt"
        assert run_cli("report", "-o", out) == 2
        assert capsys.readouterr().err == "error: report verdict is FAIL\n"
        lines = out.read_text().splitlines()
        rows = len(refs.BOUND_VS_LOSS) + len(refs.BOUND_VS_CORRELATION)
        assert sum(line.endswith(("PASS", "FAIL")) for line in lines) == rows + 1
        assert sum(line.endswith(" FAIL") for line in lines[:-1]) == 1
        assert lines[-1] == "overall: FAIL"


TINY = ["--K", "4", "--desc", "2,2", "--nsi", "4"]


def three_node_field(tmp_path):
    path = tmp_path / "field.json"
    path.write_text(json.dumps({"positions": [[0.1, 0.2], [0.5, 0.5], [0.8, 0.3]]}))
    return path


class TestNegativeSeed:
    """A negative seed exits 2 with one line before any work, workers included."""

    def argv(self, command, tmp_path, codec_file):
        return {
            "design": ["design", *TINY, "--rho-enc", "0.5", "--restarts", "2"],
            "evaluate": ["evaluate", "--codec", codec_file, "--rho-real", "0.8",
                         "--trials", "100"],
            "scenario": ["scenario", "--scenario-file", three_node_field(tmp_path),
                         *TINY, "--trials", "100"],
        }[command] + ["--seed", "-1"]

    @pytest.mark.parametrize("command", ["design", "scenario"])
    def test_exits_2_without_traceback_or_leftover_process(self, tmp_path, codec_file, command):
        proc = subprocess.Popen(
            [sys.executable, "-m", "mdquant.cli",
             *map(str, self.argv(command, tmp_path, codec_file))],
            env={**os.environ, "PYTHONPATH": str(SRC)}, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True, start_new_session=True,
        )
        _, err = proc.communicate(timeout=120)
        assert proc.returncode == 2
        assert err == "error: --seed must be non-negative\n"
        with pytest.raises(ProcessLookupError):  # nothing is left in its process group
            os.killpg(proc.pid, 0)

    @pytest.mark.parametrize("command", ["design", "evaluate", "scenario"])
    def test_rejected_before_any_work(self, tmp_path, codec_file, monkeypatch, capsys, command):
        for name in ("design_annealed", "load_codec", "lloyd_design", "generate_scenario"):
            monkeypatch.setattr(f"mdquant.cli.{name}", must_not_run)
        monkeypatch.setattr(BaseProcess, "start", must_not_run)
        capsys.readouterr()
        assert run_cli(*self.argv(command, tmp_path, codec_file)) == 2
        assert_one_line_error(capsys)


def test_zero_restarts_exit_2_with_one_line(capsys):
    rc = run_cli("design", *TINY, "--rho-enc", "0.5", "--restarts", "0",
                 "--seed", "1")
    assert rc == 2
    assert capsys.readouterr().err == "error: restarts must be positive\n"


class TestOutOfMemory:
    """A draw too large for memory exits 2 with one line; nothing is allocated here."""

    def test_scenario(self, codec_file, tmp_path, monkeypatch, capsys):
        def no_memory(scenario, trials, seed):
            raise MemoryError(f"Unable to allocate {trials * scenario.n_nodes * 8} bytes")

        monkeypatch.setattr("mdquant.simulator.sample_correlated_sources", no_memory)
        out = tmp_path / "scen.csv"
        capsys.readouterr()
        rc = run_cli("scenario", "--nodes", "3", "--codec", codec_file,
                     "--trials", "100000000000", "--seed", "1", "-o", out)
        assert rc == 2
        assert capsys.readouterr().err == (
            "error: out of memory (Unable to allocate 2400000000000 bytes)\n"
        )
        assert not out.exists()

    def test_evaluate(self, codec_file, tmp_path, monkeypatch, capsys):
        class NoMemory:
            def standard_normal(self, size):
                raise MemoryError

        monkeypatch.setattr("mdquant.simulator.derive_rng", lambda *tags: NoMemory())
        out = tmp_path / "eval.csv"
        capsys.readouterr()
        rc = run_cli("evaluate", "--codec", codec_file, "--rho-real", "0.5",
                     "--trials", "100000000000", "--seed", "1", "-o", out)
        assert rc == 2
        assert capsys.readouterr().err == "error: out of memory (allocation failed)\n"
        assert not out.exists()

    def test_evaluate_shared_errors(self, codec_file, tmp_path, monkeypatch, capsys):
        # The source fits; the per-trial error arrays in shared memory do not.
        def no_memory(fileno, length):
            raise OSError(errno.ENOMEM, "Cannot allocate memory")

        monkeypatch.setattr("mdquant.forking.mmap.mmap", no_memory)
        out = tmp_path / "eval.csv"
        capsys.readouterr()
        rc = run_cli("evaluate", "--codec", codec_file, "--rho-real", "0.5",
                     "--trials", "1000", "--seed", "1", "-o", out)
        assert rc == 2
        assert capsys.readouterr().err == (
            "error: out of memory (Unable to allocate 8000 bytes of shared memory)\n"
        )
        assert not out.exists()


class TestQuantizerSizeCap:
    """A quantizer size above the cap exits 2 with one line; nothing is allocated here."""

    @pytest.mark.parametrize("argv, flag, size", [
        (["design", "--K", "100000000", "--desc", "4,4", "--rho-enc", "0.5"], "--K", 100000000),
        (["design", "--K", "16", "--desc", "4,4", "--rho-enc", "0.5", "--nsi", "1025"],
         "--nsi", 1025),
        (["scenario", "--nodes", "3", "--K", "1025", "--trials", "100"], "--K", 1025),
        (["scenario", "--nodes", "3", "--codec", "codec.json", "--nsi", "100000000",
          "--trials", "100"], "--nsi", 100000000),
        (["evaluate", "--codec", "codec.json", "--rho-real", "0.5",
          "--nsi-sweep", "2,100000000", "--trials", "100"], "--nsi-sweep size", 100000000),
        (["design", "--K", "16", "--desc", "4,100000000", "--rho-enc", "0.5"],
         "--desc index tuple count", 400000000),
        (["design", "--K", "16", "--desc", "1025", "--rho-enc", "0.5"],
         "--desc index tuple count", 1025),
        (["scenario", "--nodes", "3", "--desc", ",".join(["2"] * 11), "--trials", "100"],
         "--desc index tuple count", 2048),
    ], ids=["design K", "design nsi", "scenario K", "scenario nsi", "evaluate nsi-sweep",
            "design desc", "design one desc", "scenario desc"])
    def test_rejected_before_any_work(self, monkeypatch, capsys, argv, flag, size):
        for name in ("design_annealed", "load_codec", "lloyd_design", "generate_scenario",
                     "run_asym_experiment", "run_sym_experiment"):
            monkeypatch.setattr(f"mdquant.cli.{name}", must_not_run)
        capsys.readouterr()
        assert run_cli(*argv, "--seed", "1") == 2
        assert capsys.readouterr().err == (
            f"error: {flag} {size} exceeds the largest quantizer size {MAX_QUANTIZER_LEVELS}\n"
        )

    def test_cap_allows_the_sizes_in_use(self):
        # The paper's largest quantizer is K = 256; the cap is four times that.
        assert MAX_QUANTIZER_LEVELS == 1024
        _check_levels("--K", MAX_QUANTIZER_LEVELS)

    def test_desc_cap_allows_tuple_counts_up_to_the_cap(self):
        assert _parse_desc("8,8") == [8, 8]
        assert _parse_desc("32,32") == [32, 32]
        assert _parse_desc(",".join(["2"] * 10)) == [2] * 10


class TestCommaLists:
    """--desc, --nsi-sweep and --bsc-sweep skip empty entries; a bad entry or an
    empty list exits 2 with one line naming the flag, before any work."""

    def assert_rejected(self, capsys, flag, argv):
        capsys.readouterr()
        assert run_cli(*argv, "--seed", "1") == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {flag} ") and err.count("\n") == 1, err

    def evaluate_rows(self, codec_file, tmp_path, flag, text):
        out = tmp_path / "eval.csv"
        assert run_cli("evaluate", "--codec", codec_file, "--rho-real", "0.8", flag, text,
                       "--trials", "200", "--seed", "1", "-o", out) == 0
        return out.read_bytes()

    def test_desc(self, monkeypatch, capsys):
        assert _parse_desc("2,,2,") == [2, 2]
        monkeypatch.setattr("mdquant.cli.design_annealed", must_not_run)
        for text in ("2,x", "2,0.5", ",", ""):
            self.assert_rejected(capsys, "--desc", ["design", "--K", "4", "--desc", text,
                                                    "--rho-enc", "0.5"])

    def test_nsi_sweep(self, codec_file, tmp_path, monkeypatch, capsys):
        assert (self.evaluate_rows(codec_file, tmp_path, "--nsi-sweep", "4,,8")
                == self.evaluate_rows(codec_file, tmp_path, "--nsi-sweep", "4,8"))
        monkeypatch.setattr("mdquant.cli.load_codec", must_not_run)
        for text in ("4,x", "4,2.5", ",", ""):
            self.assert_rejected(capsys, "--nsi-sweep", ["evaluate", "--codec", codec_file,
                                                         "--rho-real", "0.8", "--nsi-sweep", text])

    def test_bsc_sweep(self, codec_file, tmp_path, monkeypatch, capsys):
        assert (self.evaluate_rows(codec_file, tmp_path, "--bsc-sweep", "0.1,,0.01")
                == self.evaluate_rows(codec_file, tmp_path, "--bsc-sweep", "0.1,0.01"))
        monkeypatch.setattr("mdquant.cli.load_codec", must_not_run)
        for text in ("0.1,x", ",", ""):
            self.assert_rejected(capsys, "--bsc-sweep", ["evaluate", "--codec", codec_file,
                                                         "--rho-real", "0.8", "--bsc-sweep", text])


class TestSaveScenarioPath:
    @pytest.mark.parametrize("where", ["directory", "missing parent"])
    def test_unwritable_path_exits_2_before_design(self, tmp_path, monkeypatch, capsys, where):
        monkeypatch.setattr("mdquant.cli.design_annealed", must_not_run)
        target = tmp_path if where == "directory" else tmp_path / "missing" / "field.json"
        out = tmp_path / "scen.csv"
        capsys.readouterr()
        rc = run_cli("scenario", "--nodes", "3", "--K", "4", "--desc", "2,2", "--nsi", "4",
                     "--save-scenario", target, "--trials", "100", "--seed", "1", "-o", out)
        assert rc == 2
        assert_one_line_error(capsys)
        assert not out.exists()


class TestScenarioFlags:
    """Flags that a codec file or a scenario file replaces exit 2; the rest default."""

    @pytest.mark.parametrize("flags, message", [
        (["--codec", "codec.json", "--K", "64", "--rho-enc", "0.3", "--nsi", "2",
          "--nodes", "3"],
         "--codec cannot be combined with --K, --nsi, --rho-enc"),
        (["--codec", "codec.json", "--desc", "2,2", "--bsc", "0.01", "--loss", "0.1",
          "--restarts", "1", "--nodes", "3"],
         "--codec cannot be combined with --desc, --bsc, --loss, --restarts"),
        (["--scenario-file", "field.json", "--nodes", "40", "--alpha", "9",
          "--codec", "codec.json"],
         "--scenario-file cannot be combined with --nodes, --alpha"),
    ], ids=["codec and design flags", "codec and channel flags", "file and field flags"])
    def test_ignored_flags_exit_2_before_any_work(self, tmp_path, monkeypatch, capsys,
                                                  flags, message):
        for name in ("load_codec", "design_annealed", "generate_scenario",
                     "_load_scenario_file", "run_sym_experiment"):
            monkeypatch.setattr(f"mdquant.cli.{name}", must_not_run)
        out = tmp_path / "scen.csv"
        capsys.readouterr()
        rc = run_cli("scenario", *flags, "--trials", "100", "--seed", "1", "-o", out)
        assert rc == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_defaults_fill_in_without_a_codec(self, monkeypatch):
        # The README's defaults: a 16-level codec over two 4-index BSC
        # descriptions (BER 0.005, loss 0.05), nsi 64, two restarts, alpha 2.
        seen = {}

        def keep_args(args, rho_enc):
            seen.update(vars(args))
            raise ValueError("stop here")

        monkeypatch.setattr("mdquant.cli._design_bundle", keep_args)
        assert run_cli("scenario", "--nodes", "3", "--trials", "100", "--seed", "1") == 2
        assert {k: seen[k] for k in ("K", "desc", "bsc", "loss", "nsi", "restarts", "alpha")} == {
            "K": 16, "desc": "4,4", "bsc": 0.005, "loss": 0.05, "nsi": 64, "restarts": 2,
            "alpha": 2.0,
        }


@pytest.fixture(scope="module")
def awgn_codec(codec_file, tmp_path_factory):
    """The ``codec_file`` codec with its channels edited to AWGN at N0 = 0.5."""
    data = json.loads(codec_file.read_text())
    for ch in data["channels"]:
        ch.update(kind="awgn", bit_error_rate=None, noise_psd=0.5)
    path = tmp_path_factory.mktemp("awgn") / "awgn.json"
    path.write_text(json.dumps(data))
    return path


class TestAwgnCodecFile:
    def test_evaluate_labels_the_row_with_the_noise_psd(self, awgn_codec, tmp_path):
        out = tmp_path / "eval.csv"
        rc = run_cli("evaluate", "--codec", awgn_codec, "--rho-real", "0.8",
                     "--trials", "500", "--seed", "1", "-o", out)
        assert rc == 0
        row = out.read_text().splitlines()[1].split(",")
        assert row[:3] == ["0.5", "", ""]
        assert math.isfinite(float(row[3]))

    def test_scenario_exits_2_with_one_line(self, awgn_codec, tmp_path, capsys):
        out = tmp_path / "scen.csv"
        capsys.readouterr()
        rc = run_cli("scenario", "--nodes", "3", "--codec", awgn_codec,
                     "--trials", "100", "--seed", "1", "-o", out)
        assert rc == 2
        err = capsys.readouterr().err
        assert err == "error: the symmetric experiment requires a codec with BSC channels\n"
        assert not out.exists()


class TestNumericalEdges:
    def test_decoder_correlation_one_runs_clean(self, codec_file, tmp_path):
        out = tmp_path / "eval.csv"
        rc = run_cli("evaluate", "--codec", codec_file, "--rho-real", "0.8", "--rho-dec", "1",
                     "--trials", "500", "--seed", "1", "-o", out)
        assert rc == 0
        assert "nan" not in out.read_text()

    def test_tiny_alpha_runs_clean(self, codec_file, tmp_path):
        # dist / alpha overflows to inf, so every pair correlation is 0.
        out = tmp_path / "scen.csv"
        rc = run_cli("scenario", "--nodes", "3", "--alpha", "1e-310", "--codec", codec_file,
                     "--si-method", "distance", "--trials", "200", "--seed", "1", "-o", out)
        assert rc == 0
        assert "nan" not in out.read_text()

    def test_noise_psd_below_the_floor_exits_2(self, codec_file, tmp_path, capsys):
        out = tmp_path / "eval.csv"
        capsys.readouterr()
        rc = run_cli("evaluate", "--codec", codec_file, "--rho-real", "0.8", "--awgn", "1e-300",
                     "--trials", "500", "--seed", "1", "-o", out)
        assert rc == 2
        assert_one_line_error(capsys)
        assert not out.exists()

    def test_smallest_noise_psd_runs_clean(self, codec_file, tmp_path):
        out = tmp_path / "eval.csv"
        rc = run_cli("evaluate", "--codec", codec_file, "--rho-real", "0.8", "--awgn", "1e-100",
                     "--trials", "500", "--seed", "1", "-o", out)
        assert rc == 0
        assert "nan" not in out.read_text()
