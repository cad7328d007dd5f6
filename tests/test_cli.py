import hashlib
import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

from mdquant import GaussianSource, lloyd_design
from mdquant import reference_values as refs
from mdquant.cli import main
from mdquant.persist import load_codec, save_codec
from mdquant.simulator import run_sym_experiment


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


def _drop_ladder_levels(data):
    data["ladder"] = data["ladder"][:-3]


def _coarser_si_quantizer(data):
    q = lloyd_design(GaussianSource(), 4)
    data["si_quantizer"] = {
        "codewords": q.codewords.tolist(),
        "thresholds": q.thresholds.tolist(),
        "cell_probs": q.cell_probs.tolist(),
    }


def _three_index_channel(data):
    data["channels"][0]["index_count"] = 3


def _short_si_probs(data):
    data["tables"]["si_probs"] = data["tables"]["si_probs"][:-1]


def _short_codebook_nosi(data):
    data["tables"]["codebook_nosi"] = data["tables"]["codebook_nosi"][:-1]


def _short_codebook(data):
    data["tables"]["codebook"] = [rows[:-1] for rows in data["tables"]["codebook"]]


class TestCodecConsistency:
    """A codec file whose parts do not fit together exits 2 with one line."""

    @pytest.mark.parametrize("edit, message", [
        (_drop_ladder_levels, "correlation levels for a"),
        (_coarser_si_quantizer, "prior table has shape"),
        (_three_index_channel, "index assignment is 8 x 4, expected 8 cells x 6 index tuples"),
        (_short_si_probs, "si_probs has 15 entries for 16 SI levels"),
        (_short_codebook_nosi, "codebook_nosi has 3 entries for 4 tuples"),
        (_short_codebook, "codebook table has shape"),
    ], ids=["ladder", "si_quantizer", "index_count", "si_probs", "codebook_nosi", "codebook"])
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


# A desk codec (K=16, two 4-index descriptions, 64-level SI quantizer) and the
# evaluate CSVs it gave at 20k trials before the asymmetric experiment shared
# its draws across a sweep and decoded in trial blocks.
DESK_DESIGN = [
    "design", "--K", "16", "--desc", "4,4", "--bsc", "0.005", "--loss", "0.05",
    "--rho-enc", "0.8", "--nsi", "64", "--restarts", "2", "--seed", "5",
]
DESK_SHA256 = "534401edce9a45de80507b4c35eb7b30af92e56058534ec97bfbcd67d49ef923"
DESK_EVAL = ["--trials", "20000", "--seed", "3"]
PINNED_EVALUATE = {
    "bsc_sweep": (
        ["--rho-real", "0.8", "--bsc-sweep", "0.01,0.001,0"],
        "p,d_side_db,d_central_db,d_av_db,stderr\n"
        "0.01,-7.956078,-15.445195,-13.773541,0.001730854368683245\n"
        "0.001,-8.258151,-17.889509,-15.227500,0.0014918054082606015\n"
        "0.0,-8.285052,-18.107435,-15.348989,0.0014930105003065851\n",
    ),
    "bsc_sweep_no_si": (
        ["--rho-real", "0.8", "--bsc-sweep", "0.02,0", "--no-si"],
        "p,d_side_db,d_central_db,d_av_db,stderr\n"
        "0.02,-1.785565,-3.149567,-3.021369,0.013044769445373635\n"
        "0.0,-1.981844,-3.485068,-3.336211,0.013186773910341686\n",
    ),
    "codec_channels": (
        ["--rho-real", "0.7", "--rho-dec", "0.9"],
        "p,d_side_db,d_central_db,d_av_db,stderr\n"
        "0.005,-5.545098,-11.448667,-10.250644,0.004968279660806158\n",
    ),
    "awgn": (
        ["--rho-real", "0.8", "--awgn", "0.5"],
        "p,d_side_db,d_central_db,d_av_db,stderr\n"
        "0.5,,,-13.497449,0.0018287171372466347\n",
    ),
    "awgn_no_si": (
        ["--rho-real", "0.8", "--awgn", "0.5", "--no-si"],
        "p,d_side_db,d_central_db,d_av_db,stderr\n"
        "0.5,,,-3.168263,0.013012795566102357\n",
    ),
}


@pytest.fixture(scope="module")
def desk_codec(tmp_path_factory):
    path = tmp_path_factory.mktemp("desk") / "desk.json"
    assert run_cli(*DESK_DESIGN, "-o", path) == 0
    return path


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

    def test_scenario_file_nan_position_exits_2(self, codec_file, tmp_path, capsys):
        bad = tmp_path / "field.json"
        bad.write_text('{"positions": [[0.0, 0.0], [NaN, 0.5], [0.2, 0.1]], "alpha": 2.0}')
        capsys.readouterr()
        rc = run_cli("scenario", "--scenario-file", bad, "--codec", codec_file,
                     "--trials", "100", "--seed", "1")
        assert rc == 2
        err = capsys.readouterr().err
        assert err == "error: node positions must be finite\n"

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
        assert results[0].extra["psd_projected"] is True

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
