"""A command's cold start imports numpy and mdquant, not scipy.

``scipy.special`` takes about 0.2 s to import, more than the rest of the
package.  mdquant loads it in the functions that call it, so importing the
CLI, loading a codec, drawing a field, ``bound`` and ``report`` never load
it.  ``forking.fork_map`` loads it before it forks, so a command whose forked
workers call it imports it once, in the parent, and never in a worker.  Each
check runs in a fresh interpreter with ``src`` on the path.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import needs_workers

SRC = Path(__file__).resolve().parent.parent / "src"

NO_SCIPY = """\
import sys
import mdquant.cli
from mdquant.persist import load_codec
from mdquant.simulator import generate_scenario
bundle = load_codec(sys.argv[1])
generate_scenario(40, bundle.channels, seed=1)
code = mdquant.cli.main(sys.argv[2:]) if len(sys.argv) > 2 else 0
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
sys.exit(f"scipy modules loaded: {loaded}" if loaded else code)
"""

# Runs a CLI command with ``forking.worker_count`` forced to at most argv[1]
# workers, and prints the number of processes it started last on stderr.
FORCED_WORKERS = """\
import sys
from multiprocessing.process import BaseProcess
import mdquant.forking
mdquant.forking.worker_count = lambda items: min(items, int(sys.argv[1]))
started = []
start = BaseProcess.start
def counting_start(self):
    started.append(self.name)
    start(self)
BaseProcess.start = counting_start
from mdquant.cli import main
code = main(sys.argv[2:])
print(f"started {len(started)}", file=sys.stderr)
sys.exit(code)
"""

# Each command runs work items that call scipy.special in forked workers:
# the annealing restarts, the selection scores and field blocks of a soft
# min_distortion field, and the two AWGN decode blocks of 100,000 trials.
COMMANDS = {
    "design": ["design", "--K", "8", "--desc", "2,2", "--bsc", "0.005", "--loss", "0.05",
               "--rho-enc", "0.8", "--nsi", "16", "--restarts", "2", "--seed", "1"],
    "scenario": ["scenario", "--nodes", "10", "--codec", "{codec}", "--mode", "soft",
                 "--si-method", "min_distortion", "--trials", "2000", "--seed", "1"],
    "evaluate": ["evaluate", "--codec", "{codec}", "--rho-real", "0.8", "--awgn", "0.5",
                 "--trials", "100000", "--seed", "1"],
}


def run(args, *, importtime=False):
    flags = ["-X", "importtime"] if importtime else []
    proc = subprocess.run(
        [sys.executable, *flags, "-c", *args],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stderr


def scipy_special_imports(stderr: str) -> int:
    """Lines of ``-X importtime`` output, of this process and its forks, that import scipy.special."""
    return sum(line.rsplit("|", 1)[-1].strip() == "scipy.special"
               for line in stderr.splitlines() if line.startswith("import time:"))


@pytest.mark.parametrize("argv", [
    [],
    ["bound", "--rho", "0.8", "--r1", "2.321", "--r2", "2.319", "--mu1", "0.05"],
    ["report"],
], ids=["import-load-draw", "bound", "report"])
def test_no_scipy_module_is_loaded(desk_codec, argv):
    run([NO_SCIPY, str(desk_codec), *argv])


@needs_workers
@pytest.mark.parametrize("command", list(COMMANDS))
def test_scipy_special_is_imported_once_per_command(desk_codec, tmp_path, command):
    outputs = {}
    for workers in (2, 1):
        out = tmp_path / f"{command}-{workers}.out"
        argv = [a.format(codec=desk_codec) for a in COMMANDS[command]]
        err = run([FORCED_WORKERS, str(workers), *argv, "-o", str(out)], importtime=True)
        started = int(err.splitlines()[-1].removeprefix("started "))
        assert (started >= 2) if workers == 2 else (started == 0), err.splitlines()[-1]
        imports = scipy_special_imports(err)
        assert imports == 1, f"{imports} scipy.special imports with {workers} workers"
        outputs[workers] = out.read_bytes()
    assert outputs[2] == outputs[1]
