"""Shared fixtures: small deterministic codecs, and the process probes of the forked-worker tests."""

import glob
from dataclasses import replace
from multiprocessing.process import BaseProcess
from pathlib import Path

import numpy as np
import pytest

from mdquant import (
    AsymConfig,
    CodecBundle,
    DescriptionChannel,
    IndexAssignment,
    forking,
    lloyd_design,
)


@pytest.fixture(scope="session")
def q2():
    return lloyd_design(2)


@pytest.fixture(scope="session")
def q4():
    return lloyd_design(4)


def make_bundle(quantizer, si_quantizer, ia_table, channels, design_rho=0.8):
    """Assemble a bundle from explicit pieces."""
    return CodecBundle(
        quantizer=quantizer,
        si_quantizer=si_quantizer,
        ia=IndexAssignment(np.asarray(ia_table, dtype=float), hard=True),
        channels=tuple(channels),
        design_rho=design_rho,
        metadata={},
    )


def one_level_si(bundle):
    """``bundle`` with a one-level SI quantizer: its rho = 0 tables are the no-SI tables."""
    return replace(bundle, si_quantizer=lloyd_design(1))


def asym_config(bundle, *, no_si=False, **fields):
    """An AsymConfig of ``bundle``; ``no_si`` decodes without SI, as ``evaluate --no-si`` does."""
    if no_si:
        bundle, fields = one_level_si(bundle), {**fields, "rho_dec": 0.0}
    return AsymConfig(bundle=bundle, **fields)


@pytest.fixture(scope="session")
def tiny_bundle(q4):
    """K=4, M=2, N_m=2 BSC bundle with one binned tuple (cells 0 and 3)."""
    si = lloyd_design(8)
    channels = (
        DescriptionChannel.bsc(0.1, 0.1, 2),
        DescriptionChannel.bsc(0.1, 0.1, 2),
    )
    table = np.zeros((4, 4))
    table[0, 0] = table[3, 0] = 1.0
    table[1, 1] = 1.0
    table[2, 2] = 1.0
    return make_bundle(q4, si, table, channels)


@pytest.fixture(scope="session")
def bijective_bundle(q4):
    """K=4, M=2, N_m=2 BSC bundle with a one-to-one cell/tuple map."""
    si = lloyd_design(8)
    channels = (
        DescriptionChannel.bsc(0.1, 0.1, 2),
        DescriptionChannel.bsc(0.1, 0.1, 2),
    )
    return make_bundle(q4, si, np.eye(4), channels)


# A desk codec (K=16, two 4-index descriptions, 64-level SI quantizer): the
# codec of test_cli's pinned evaluate CSVs and of the exact side and central
# distortion tests.
DESK_DESIGN = [
    "design", "--K", "16", "--desc", "4,4", "--bsc", "0.005", "--loss", "0.05",
    "--rho-enc", "0.8", "--nsi", "64", "--restarts", "2", "--seed", "5",
]


@pytest.fixture(scope="session")
def desk_codec(tmp_path_factory):
    """Path of the desk codec file, designed once per session."""
    from mdquant.cli import main

    path = tmp_path_factory.mktemp("desk") / "desk.json"
    assert main([*DESK_DESIGN, "-o", str(path)]) == 0
    return path


def simpson_nodes(lo, hi, n=1601):
    """Simpson nodes/weights on [lo, hi]; independent quadrature for oracles."""
    if n % 2 == 0:
        n += 1
    x = np.linspace(lo, hi, n)
    h = (hi - lo) / (n - 1)
    w = np.full(n, 2.0)
    w[1::2] = 4.0
    w[0] = w[-1] = 1.0
    return x, w * h / 3.0


def std_normal_pdf(x):
    return np.exp(-0.5 * np.asarray(x) ** 2) / np.sqrt(2 * np.pi)


# ---------------------------------------------------------------------------
# Forked workers
# ---------------------------------------------------------------------------

needs_workers = pytest.mark.skipif(
    forking.worker_count(2) < 2,
    reason="work items run serially here: one CPU, no fork or no BLAS thread setter",
)


@pytest.fixture
def one_worker(monkeypatch):
    """Run every ``forking.fork_map`` item in this process, where spies and tracemalloc see it."""
    monkeypatch.setattr(forking, "worker_count", lambda items: 1)


@pytest.fixture
def started(monkeypatch):
    """Names of the processes started while the test runs."""
    names = []
    start = BaseProcess.start

    def counting_start(self):
        names.append(self.name)
        start(self)

    monkeypatch.setattr(BaseProcess, "start", counting_start)
    return names


def child_pids(pid: int) -> set[int]:
    """Pids whose parent is ``pid``, from ``/proc/<pid>/task/*/children`` or every ``stat``."""
    lists = glob.glob(f"/proc/{pid}/task/*/children")
    if lists:
        children = set()
        for path in lists:
            try:
                children.update(int(p) for p in Path(path).read_text().split())
            except OSError:  # the thread exited while we looked, as BLAS threads do at a fork
                continue
        return children
    children = set()
    for path in glob.glob("/proc/[0-9]*/stat"):
        try:
            fields = Path(path).read_text().rsplit(")", 1)[1].split()
        except OSError:  # the process exited while we looked
            continue
        if int(fields[1]) == pid:
            children.add(int(path.split("/")[2]))
    return children


def running(pid: int) -> bool:
    """True while ``pid`` exists and has not exited (a zombie has)."""
    try:
        state = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()[0]
    except (OSError, IndexError):
        return False
    return state not in ("Z", "X")
