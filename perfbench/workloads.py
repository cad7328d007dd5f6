"""The benchmark's workloads: seeded inputs, CLI commands and output checks.

Each workload is a closed loop with one client: it issues one ``mdquant``
CLI command at a time through ``mdquant.cli.main`` and starts the next only
after the previous one has returned.  Inputs (codec files, scenario files)
are generated from the benchmark seed before timing starts.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

# Published full-scale operating point (ref. -20.619 dB) and the gate the
# design-full output check applies to it; see README.md, "Output checks".
PUBLISHED_FULL_SCALE_DB = -20.619
README_MARGIN_DB = 0.2
DESIGN_GATE_DB = 0.3
# Monte-Carlo agreement gates, in combined standard errors.
STDERR_GATE = 5.0

FULL_DESIGN = dict(K=256, desc="8,8", bsc=0.0, loss=0.05, rho_enc=0.8, nsi=128, restarts=2)
DESK_DESIGN = dict(K=16, desc="4,4", bsc=0.005, loss=0.05, rho_enc=0.4, nsi=64, restarts=2)

# Full-size parameters and the tiny ones used by --smoke.
SIZES = {
    "full": dict(
        design=FULL_DESIGN, nodes=40, field_trials=20_000, eval_trials=1_000_000,
    ),
    "smoke": dict(
        design=dict(K=16, desc="4,4", bsc=0.0, loss=0.05, rho_enc=0.8, nsi=16, restarts=1),
        nodes=6, field_trials=400, eval_trials=20_000,
    ),
}


def design_argv(p: dict, seed: int, out: Path) -> list[str]:
    return [
        "design", "--K", str(p["K"]), "--desc", p["desc"], "--bsc", repr(p["bsc"]),
        "--loss", repr(p["loss"]), "--rho-enc", repr(p["rho_enc"]),
        "--nsi", str(p["nsi"]), "--restarts", str(p["restarts"]),
        "--seed", str(seed), "-o", str(out),
    ]


@dataclass
class Inputs:
    """Generated inputs of one workload at one seed."""

    seed: int
    size: str
    files: dict = field(default_factory=dict)  # role -> Path
    codec_d_av: dict = field(default_factory=dict)  # role -> analytic d_av
    nodes: int = 0


@dataclass
class Outcome:
    """One CLI command's exit code, stdout and result file bytes."""

    argv: list
    code: int
    stdout: str
    data: bytes | None


def _read_csv(data: bytes) -> list[dict]:
    return list(csv.DictReader(io.StringIO(data.decode("utf-8"))))


def _edit_csv(outcome: "Outcome", edits: dict) -> "Outcome":
    """Copy of ``outcome`` with {(row, column): new text} applied to its CSV."""
    rows = _read_csv(outcome.data)
    for (i, col), text in edits.items():
        rows[i][col] = text
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=list(rows[0]), lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    return Outcome(outcome.argv, outcome.code, outcome.stdout, buf.getvalue().encode())


def _db(x: float) -> float:
    return 10.0 * math.log10(x)


def _lin(db: float) -> float:
    return 10.0 ** (db / 10.0)


# ---------------------------------------------------------------------------
# Input generation (untimed)
# ---------------------------------------------------------------------------


def _make_codec(cli, params, seed, path: Path, role: str, inputs: Inputs):
    import contextlib

    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(design_argv(params, seed, path))
    if code != 0:
        raise RuntimeError(f"input generation failed: design exited {code}")
    meta = json.loads(path.read_text(encoding="utf-8"))["metadata"]
    inputs.files[role] = path
    inputs.codec_d_av[role] = float(meta["d_av"])


def _make_scenario(seed: int, nodes: int, path: Path, inputs: Inputs):
    import numpy as np

    rng = np.random.default_rng([seed, nodes])
    positions = rng.random((nodes, 2))
    path.write_text(
        json.dumps({"positions": positions.tolist(), "alpha": 2.0, "seed": seed}),
        encoding="utf-8",
    )
    inputs.files["scenario"] = path
    inputs.nodes = nodes


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


class Workload:
    """Base class: subclasses fill in inputs, commands and checks."""

    name = ""

    def prepare(self, cli, seed: int, size: str, work: Path) -> Inputs:
        return Inputs(seed, size)

    def commands(self, inputs: Inputs, out: Path) -> list[tuple[list, Path]]:
        """One closed-loop unit: (argv, result file) per CLI command."""
        raise NotImplementedError

    def samples(self, inputs: Inputs) -> int:
        """Decoded source samples per unit (0 for design)."""
        return 0

    def setup_probe(self, inputs: Inputs) -> str:
        """Python source of the set-up a user pays before the first call."""
        return "import mdquant.cli\n"

    def check(self, inputs: Inputs, outcomes: list[Outcome], reference) -> tuple[list, dict]:
        """(failure messages, recorded values) for one unit's outcomes."""
        raise NotImplementedError

    def tampered(self, outcomes: list[Outcome]) -> list[tuple[str, list]]:
        """Broken variants of good outcomes that ``check`` must reject."""
        raise NotImplementedError


def _exit_failures(outcomes) -> list[str]:
    return [
        f"{o.argv[0]} exited {o.code}" for o in outcomes if o.code != 0 or o.data is None
    ]


class DesignFull(Workload):
    name = "design-full"

    def commands(self, inputs, out):
        p = SIZES[inputs.size]["design"]
        path = out / "codec.json"
        return [(design_argv(p, inputs.seed, path), path)]

    def check(self, inputs, outcomes, reference):
        failures = _exit_failures(outcomes)
        if failures:
            return failures, {}
        from mdquant import JointGaussianPair, evaluate_distortion
        from mdquant.persist import bundle_from_dict

        o = outcomes[0]
        printed = dict(kv.split("=", 1) for kv in o.stdout.split("\n")[0].split())
        bundle = bundle_from_dict(json.loads(o.data.decode("utf-8")))
        d = evaluate_distortion(
            bundle.quantizer, bundle.si_quantizer, bundle.ia,
            JointGaussianPair(1.0, 1.0, bundle.design_rho), bundle.channels,
        )
        d_av_db = float(d.d_av_db())
        values = {
            "d_av_db": d_av_db,
            "gap_to_published_db": d_av_db - PUBLISHED_FULL_SCALE_DB,
            "inner_cap_hits": bundle.metadata["inner_cap_hits"],
            "monotonicity_violations": bundle.metadata["monotonicity_violations"],
        }
        if f"{d_av_db:.6f}" != printed.get("d_av_db"):
            failures.append(
                f"reloaded codec gives {d_av_db:.6f} dB, design printed {printed.get('d_av_db')}"
            )
        if d.d_av != bundle.metadata["d_av"]:
            failures.append("reloaded codec's d_av differs from its metadata")
        if inputs.size == "full":
            values["within_readme_0_2_db"] = values["gap_to_published_db"] <= README_MARGIN_DB
            if values["gap_to_published_db"] > DESIGN_GATE_DB:
                failures.append(
                    f"codec at {d_av_db:.3f} dB misses the published "
                    f"{PUBLISHED_FULL_SCALE_DB} dB by more than {DESIGN_GATE_DB} dB"
                )
        return failures, values

    def tampered(self, outcomes):
        o = outcomes[0]
        codec = json.loads(o.data.decode("utf-8"))
        table = codec["ia"]["table"]
        table[0], table[-1] = table[-1], table[0]
        data = json.dumps(codec).encode()
        return [("codec whose table differs from the design it printed",
                 [Outcome(o.argv, o.code, o.stdout, data)])]


def _nosi_d_av(path: Path) -> float:
    """Analytic distortion of a codec decoded without side information."""
    from mdquant import JointGaussianPair, evaluate_distortion
    from mdquant.persist import load_codec

    b = load_codec(path)
    return float(
        evaluate_distortion(
            b.quantizer, b.si_quantizer, b.ia, JointGaussianPair(1.0, 1.0, 0.0), b.channels
        ).d_av
    )


class _Field(Workload):
    mode = ""
    method = ""

    def prepare(self, cli, seed, size, work):
        inputs = Inputs(seed, size)
        _make_codec(cli, DESK_DESIGN, seed, work / "desk.json", "desk", inputs)
        _make_scenario(seed, SIZES[size]["nodes"], work / "scenario.json", inputs)
        inputs.codec_d_av["desk_nosi"] = _nosi_d_av(inputs.files["desk"])
        return inputs

    def commands(self, inputs, out):
        path = out / "field.csv"
        argv = [
            "scenario", "--scenario-file", str(inputs.files["scenario"]),
            "--codec", str(inputs.files["desk"]), "--mode", self.mode,
            "--si-method", self.method,
            "--trials", str(SIZES[inputs.size]["field_trials"]),
            "--seed", str(inputs.seed), "-o", str(path),
        ]
        return [(argv, path)]

    def samples(self, inputs):
        return inputs.nodes * SIZES[inputs.size]["field_trials"]

    def setup_probe(self, inputs):
        return (
            "import json\n"
            "import numpy as np\n"
            "import mdquant.cli\n"
            "from mdquant.persist import load_codec\n"
            "from mdquant.simulator import generate_scenario\n"
            f"b = load_codec({str(inputs.files['desk'])!r})\n"
            f"d = json.load(open({str(inputs.files['scenario'])!r}))\n"
            "p = np.array(d['positions'], dtype=float)\n"
            "generate_scenario(p.shape[0], b.channels, alpha=d['alpha'], "
            "seed=d['seed'], positions=p)\n"
        )

    def check(self, inputs, outcomes, reference):
        failures = _exit_failures(outcomes)
        if failures:
            return failures, {}
        rows = _read_csv(outcomes[0].data)
        if len(rows) != 1:
            return ["scenario wrote no single result row"], {}
        row = rows[0]
        d_db, se = float(row["d_av_db"]), float(row["stderr"])
        values = {"d_av_db": d_db, "stderr": se}
        if not (math.isfinite(d_db) and math.isfinite(se) and se > 0):
            return [f"non-finite field row {row}"], values
        if int(row["nodes"]) != inputs.nodes or row["mode"] != self.mode:
            failures.append(f"field row describes another run: {row}")
        # Joint decoding must beat the codec's own no-SI decoder, its first pass.
        nosi = inputs.codec_d_av["desk_nosi"]
        values["nosi_bound_db"] = _db(nosi)
        if _lin(d_db) >= nosi:
            failures.append(
                f"d_av {d_db:.6f} dB is no better than no-SI decoding ({_db(nosi):.6f} dB)"
            )
        if reference is not None:
            ref_db, ref_se = reference["d_av_db"], reference["stderr"]
            values["reference_d_av_db"] = ref_db
            if abs(_lin(d_db) - _lin(ref_db)) > STDERR_GATE * math.hypot(se, ref_se):
                failures.append(
                    f"d_av {d_db:.6f} dB is more than {STDERR_GATE} stderr from the "
                    f"{ref_db:.6f} dB recorded for seed {inputs.seed}"
                )
        return failures, values

    def tampered(self, outcomes):
        o = outcomes[0]
        row = _read_csv(o.data)[0]
        d, se = _lin(float(row["d_av_db"])), float(row["stderr"])
        shifted = f"{_db(d - 2 * STDERR_GATE * se):.6f}"
        return [
            ("decoder no better than no SI", [_edit_csv(o, {(0, "d_av_db"): "0.000000"})]),
            (f"result {2 * STDERR_GATE:g} stderr off the recorded value",
             [_edit_csv(o, {(0, "d_av_db"): shifted})]),
            ("non-finite row", [_edit_csv(o, {(0, "d_av_db"): "nan"})]),
        ]


class FieldSoft(_Field):
    name = "field-soft-md40"
    mode = "soft"
    method = "min_distortion"


class FieldEst(_Field):
    name = "field-est-dist40"
    mode = "estimated"
    method = "distance"


class EvalSweep(Workload):
    name = "eval-sweep"

    def prepare(self, cli, seed, size, work):
        inputs = Inputs(seed, size)
        _make_codec(cli, SIZES[size]["design"], seed, work / "full.json", "full", inputs)
        _make_codec(
            cli, {**DESK_DESIGN, "rho_enc": 0.8}, seed, work / "desk08.json", "desk08", inputs
        )
        return inputs

    def commands(self, inputs, out):
        trials = str(SIZES[inputs.size]["eval_trials"])
        common = ["--rho-real", "0.8", "--trials", trials, "--seed", str(inputs.seed)]
        bsc, awgn = out / "eval_bsc.csv", out / "eval_awgn.csv"
        return [
            (["evaluate", "--codec", str(inputs.files["full"]),
              "--bsc-sweep", "0.01,0.001,0", *common, "-o", str(bsc)], bsc),
            (["evaluate", "--codec", str(inputs.files["desk08"]),
              "--awgn", "0.5", *common, "-o", str(awgn)], awgn),
        ]

    def samples(self, inputs):
        return 4 * SIZES[inputs.size]["eval_trials"]

    def setup_probe(self, inputs):
        return (
            "import mdquant.cli\n"
            "from mdquant.persist import load_codec\n"
            f"load_codec({str(inputs.files['full'])!r})\n"
            f"load_codec({str(inputs.files['desk08'])!r})\n"
        )

    def check(self, inputs, outcomes, reference):
        failures = _exit_failures(outcomes)
        if failures:
            return failures, {}
        bsc, awgn = (_read_csv(o.data) for o in outcomes)
        values = {}
        rows = bsc + awgn
        if len(bsc) != 3 or len(awgn) != 1:
            return [f"expected 3 BSC rows and 1 AWGN row, got {len(bsc)} and {len(awgn)}"], values
        for row in rows:
            d, se = float(row["d_av_db"]), float(row["stderr"])
            if not (math.isfinite(d) and math.isfinite(se) and se > 0):
                failures.append(f"non-finite or zero-stderr row {row}")
        if failures:
            return failures, values
        d_bsc = [float(r["d_av_db"]) for r in bsc]
        values["d_av_db"] = d_bsc[-1]
        values["d_av_db_by_ber"] = dict(zip((r["p"] for r in bsc), d_bsc))
        values["awgn_d_av_db"] = float(awgn[0]["d_av_db"])
        if any(a < b for a, b in zip(d_bsc, d_bsc[1:])):
            failures.append(f"d_av rises as the BER falls: {d_bsc}")
        analytic = inputs.codec_d_av["full"]
        se0 = float(bsc[-1]["stderr"])
        values["analytic_d_av_db"] = _db(analytic)
        if abs(_lin(d_bsc[-1]) - analytic) > STDERR_GATE * se0:
            failures.append(
                f"p=0 row {d_bsc[-1]:.6f} dB is more than {STDERR_GATE} stderr from "
                f"the codec's analytic {_db(analytic):.6f} dB"
            )
        if not _lin(values["awgn_d_av_db"]) < 1.0:
            failures.append("AWGN row is no better than the source variance")
        return failures, values

    def tampered(self, outcomes):
        bsc, awgn = outcomes
        rows = _read_csv(bsc.data)
        swapped = {(0, "d_av_db"): rows[2]["d_av_db"], (2, "d_av_db"): rows[0]["d_av_db"]}
        off = f"{float(rows[2]['d_av_db']) + 0.5:.6f}"
        return [
            ("sweep whose distortion rises as the BER falls", [_edit_csv(bsc, swapped), awgn]),
            ("p=0 row away from the analytic distortion",
             [_edit_csv(bsc, {(2, "d_av_db"): off}), awgn]),
            ("zero-stderr AWGN row", [bsc, _edit_csv(awgn, {(0, "stderr"): "0.0"})]),
        ]


WORKLOADS = {w.name: w for w in (DesignFull(), FieldSoft(), FieldEst(), EvalSweep())}
