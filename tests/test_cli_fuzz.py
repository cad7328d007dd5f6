"""Fuzzed command lines: every run of ``cli.main`` ends cleanly.

The numbers a user types (bit error rate, loss, correlations, alpha, trial
count, AWGN noise PSD and seed) are drawn from their valid ranges and from
NaN, +-inf, negative and out-of-range values, at tiny codec and field sizes.
Every run must end with exit code 0, 2 or 3, let no exception escape
``main``, print no traceback, and write no NaN into a result row.  Values
are passed as ``--flag=value`` so that ``-inf`` reaches the program instead
of being read as an option by argparse.
"""

import contextlib
import io
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mdquant.cli import main
from mdquant.rd_bound import MAX_RATE_SUM_BITS
from mdquant.simulator import SI_METHODS, SYM_MODES

SPECIAL = [math.nan, math.inf, -math.inf, -1.0, -1e-9, 0.0, 0.5, 1.0, 1.5]
TRIALS = st.integers(-1, 200)
SEED = st.integers(-3, 2**32)
FUZZ = settings(max_examples=40, deadline=None)
TINY = ["--K=4", "--desc=2,2", "--nsi=4", "--restarts=1"]


def numbers(lo: float, hi: float):
    """Mostly in [lo, hi]; otherwise one of the values a careless command line holds."""
    return st.one_of(st.floats(lo, hi), st.sampled_from(SPECIAL))


PROB = numbers(0.0, 0.5)
RHO = numbers(-1.0, 1.0)
N0 = numbers(0.0, 4.0)


def flag(name: str, value) -> str:
    return f"--{name}={value!r}"


def run(argv, out=None) -> int:
    """Run ``main``; check the exit code, stderr, stdout and the result rows."""
    if out is not None:
        out.unlink(missing_ok=True)
        argv = [*argv, "-o", str(out)]
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejected the command line
            code = exc.code
    err = stderr.getvalue()
    assert code in (0, 2, 3), (argv, err)
    assert "Traceback" not in err, (argv, err)
    assert "nan" not in stdout.getvalue().lower(), (argv, stdout.getvalue())
    if code == 0 and out is not None:
        rows = out.read_text(encoding="utf-8").splitlines()[1:]
        assert rows and not any("nan" in row.lower() for row in rows), (argv, rows)
    return code


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@pytest.fixture(scope="module")
def tiny_codec(workdir):
    path = workdir / "codec.json"
    argv = ["design", *TINY, "--bsc=0.01", "--rho-enc=0.6", "--seed=1", "-o", str(path)]
    assert main(argv) == 0
    return path


@pytest.fixture(scope="module")
def field(workdir):
    path = workdir / "field.json"
    path.write_text(json.dumps({"positions": [[0.1, 0.2], [0.5, 0.5], [0.8, 0.3]]}))
    return path


@FUZZ
@given(ber=PROB, loss=PROB, rho=RHO, seed=SEED)
def test_design(ber, loss, rho, seed):
    run(["design", *TINY, flag("bsc", ber), flag("loss", loss), flag("rho-enc", rho),
         flag("seed", seed)])


@FUZZ
@given(
    rho_real=RHO,
    rho_dec=st.none() | RHO,
    channels=st.one_of(
        st.none(),
        st.tuples(st.just("bsc-sweep"), st.lists(PROB, min_size=1, max_size=3)),
        st.tuples(st.just("awgn"), N0),
    ),
    no_si=st.booleans(),
    trials=TRIALS,
    seed=SEED,
)
def test_evaluate(tiny_codec, workdir, rho_real, rho_dec, channels, no_si, trials, seed):
    argv = ["evaluate", f"--codec={tiny_codec}", flag("rho-real", rho_real),
            flag("trials", trials), flag("seed", seed)]
    if rho_dec is not None:
        argv.append(flag("rho-dec", rho_dec))
    if channels is not None:
        name, value = channels
        argv.append(f"--bsc-sweep={','.join(map(repr, value))}" if name == "bsc-sweep"
                    else flag(name, value))
    if no_si:
        argv.append("--no-si")
    run(argv, workdir / "eval.csv")


@FUZZ
@given(
    nodes=st.integers(0, 4),
    alpha=numbers(0.0, 3.0),
    design=st.tuples(PROB, PROB, st.none() | RHO) | st.none(),
    mode=st.sampled_from(SYM_MODES),
    method=st.sampled_from(SI_METHODS),
    trials=TRIALS,
    seed=SEED,
)
def test_scenario(tiny_codec, workdir, nodes, alpha, design, mode, method, trials, seed):
    argv = ["scenario", flag("nodes", nodes), flag("alpha", alpha), f"--mode={mode}",
            f"--si-method={method}", flag("trials", trials), flag("seed", seed)]
    if design is None:
        argv.append(f"--codec={tiny_codec}")
    else:
        ber, loss, rho_enc = design
        argv += [*TINY, flag("bsc", ber), flag("loss", loss)]
        if rho_enc is not None:
            argv.append(flag("rho-enc", rho_enc))
    run(argv, workdir / "field.csv")


@FUZZ
@given(trials=TRIALS, seed=SEED, mode=st.sampled_from(SYM_MODES))
def test_scenario_file(tiny_codec, field, workdir, trials, seed, mode):
    run(["scenario", f"--scenario-file={field}", f"--codec={tiny_codec}", f"--mode={mode}",
         flag("trials", trials), flag("seed", seed)], workdir / "file.csv")


@FUZZ
@given(
    rho=RHO,
    r1=numbers(0.0, MAX_RATE_SUM_BITS),
    r2=numbers(0.0, MAX_RATE_SUM_BITS),
    mu1=PROB,
    mu2=st.none() | PROB,
)
def test_bound(workdir, rho, r1, r2, mu1, mu2):
    argv = ["bound", flag("rho", rho), flag("r1", r1), flag("r2", r2), flag("mu1", mu1)]
    if mu2 is not None:
        argv.append(flag("mu2", mu2))
    run(argv, workdir / "bound.csv")
