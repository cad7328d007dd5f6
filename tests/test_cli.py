import json
from pathlib import Path

import numpy as np
import pytest

from mdquant.cli import main
from mdquant.persist import load_codec, save_codec


def run_cli(*args):
    return main([str(a) for a in args])


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
    def test_writes_file(self, codec_file):
        assert codec_file.exists()
        data = json.loads(codec_file.read_text())
        assert data["format_version"] == 1

    def test_byte_identical_rerun(self, codec_file, tmp_path):
        other = tmp_path / "again.json"
        assert run_cli(*DESIGN, "-o", other) == 0
        assert other.read_bytes() == codec_file.read_bytes()

    def test_invalid_k_exits_2(self, tmp_path, capsys):
        rc = run_cli("design", "--K", "0", "--desc", "2,2", "--rho-enc", "0.5",
                     "--seed", "1", "-o", tmp_path / "x.json")
        assert rc == 2

    def test_awgn_design_rejected(self, tmp_path):
        rc = run_cli("design", "--K", "4", "--desc", "2,2", "--awgn", "0.5",
                     "--rho-enc", "0.5", "--seed", "1", "-o", tmp_path / "x.json")
        assert rc == 2

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
        assert np.array_equal(reloaded.tables.prior, bundle.tables.prior)
        assert np.array_equal(reloaded.tables.codebook, bundle.tables.codebook)
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

    def test_missing_args_exit_2(self):
        assert run_cli("bound", "--rho", "0.8") == 2

    def test_unit_correlation_exits_2(self, tmp_path, capsys):
        out = tmp_path / "bound.csv"
        rc = run_cli("bound", "--rho", "1.0", "--r1", "1", "--r2", "1", "--mu1", "0.1",
                     "-o", out)
        assert rc == 2
        assert_one_line_error(capsys)
        assert not out.exists()


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

    def test_codec_without_tables_exits_2(self, codec_file, tmp_path, capsys):
        data = json.loads(codec_file.read_text())
        del data["tables"]
        bad = tmp_path / "no_tables.json"
        bad.write_text(json.dumps(data))
        capsys.readouterr()
        rc = run_cli("evaluate", "--codec", bad, "--rho-real", "0.8",
                     "--trials", "100", "--seed", "1")
        assert rc == 2
        assert_one_line_error(capsys)

    def test_nsi_sweep_monotone(self, codec_file, tmp_path):
        out = tmp_path / "nsi.csv"
        rc = run_cli("evaluate", "--codec", codec_file, "--rho-real", "0.8",
                     "--nsi-sweep", "2,8,64,256", "--trials", "60000",
                     "--seed", "3", "-o", out)
        assert rc == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "p,d_side_db,d_central_db,d_av_db,stderr"
        rows = [line.split(",") for line in lines[1:]]
        d = [float(r[3]) for r in rows]
        sig = [float(r[4]) for r in rows]
        # Finer SI quantizers never hurt (within Monte-Carlo slack, in dB).
        for i in range(len(d) - 1):
            slack_db = 3 * (sig[i] + sig[i + 1]) / (10 ** (d[i] / 10) * np.log(10) / 10)
            assert d[i + 1] <= d[i] + slack_db

    def test_nsi_sweep_conflicts(self, codec_file):
        rc = run_cli("evaluate", "--codec", codec_file, "--rho-real", "0.8",
                     "--nsi-sweep", "2,8", "--bsc-sweep", "0.1",
                     "--trials", "100", "--seed", "1")
        assert rc == 2


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

    def test_one_trial_exits_2(self, codec_file, tmp_path, capsys):
        out = tmp_path / "scen.csv"
        capsys.readouterr()
        rc = run_cli("scenario", "--nodes", "4", "--codec", codec_file,
                     "--trials", "1", "--seed", "5", "-o", out)
        assert rc == 2
        assert_one_line_error(capsys)
        assert not out.exists()

    def test_empty_scenario_file_exits_2(self, codec_file, tmp_path):
        bad = tmp_path / "empty.json"
        bad.write_text("")
        rc = run_cli("scenario", "--scenario-file", bad, "--codec", codec_file,
                     "--trials", "100", "--seed", "1")
        assert rc == 2

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
