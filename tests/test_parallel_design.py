"""Annealing restarts in forked workers: the serial loop's codec, and no process left behind."""

import multiprocessing
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from mdquant import (
    DescriptionChannel,
    JointGaussianPair,
    design_annealed,
    lloyd_design,
)
from mdquant import codec, forking
from mdquant.channel import derive_rng
from mdquant.codec import DesignContext
from mdquant.persist import save_codec

from conftest import child_pids, needs_workers, running
from oracles import serial_restarts

SRC = Path(__file__).resolve().parent.parent / "src"
PAIR = JointGaussianPair(1.0, 1.0, 0.8)
CHANNELS = (DescriptionChannel.bsc(0.0, 0.05, 4),) * 2
RESTARTS = 3
# The processes a design starts with two workers: its restarts.  It builds no
# decoder tables.
DESIGN_WORKERS = ["mdquant-annealing-0", "mdquant-annealing-1"]


@pytest.fixture(scope="module")
def quantizers():
    return lloyd_design(16), lloyd_design(16)


class TestSameCodecAsSerial:
    @needs_workers
    def test_each_restart_matches_the_serial_oracle(self, quantizers, monkeypatch, started):
        ctx = DesignContext(*quantizers, PAIR, CHANNELS)
        expected, _ = serial_restarts(ctx, RESTARTS, seed=2)
        monkeypatch.setattr(forking, "worker_count", lambda items: 2)
        got = forking.fork_map(
            lambda r: codec._anneal_once(ctx, derive_rng(2, r)), range(RESTARTS)
        )
        assert len(started) == 2
        assert len(got) == len(expected)
        for (ia_e, d_e, info_e), (ia_g, d_g, info_g) in zip(expected, got):
            assert np.array_equal(ia_g.table, ia_e.table)
            assert d_g == d_e
            assert info_g == info_e

    def test_design_keeps_the_oracle_best(self, quantizers):
        bundle = design_annealed(*quantizers, PAIR, CHANNELS, restarts=RESTARTS, seed=3)
        _, (best_ia, _, _, best_restart) = serial_restarts(
            DesignContext(*quantizers, PAIR, CHANNELS), RESTARTS, seed=3
        )
        assert np.array_equal(bundle.ia.table, best_ia.table)
        assert bundle.metadata["best_restart"] == best_restart

    @needs_workers
    def test_saved_codec_is_byte_identical_for_one_and_two_workers(
        self, quantizers, tmp_path, monkeypatch, started
    ):
        saved = []
        for workers in (1, 2):
            monkeypatch.setattr(forking, "worker_count", lambda items, w=workers: w)
            bundle = design_annealed(*quantizers, PAIR, CHANNELS, restarts=RESTARTS, seed=4)
            path = tmp_path / f"codec{workers}.json"
            save_codec(bundle, path)
            saved.append(path.read_bytes())
        assert started == DESIGN_WORKERS
        assert saved[0] == saved[1]

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_design_stderr_keeps_the_serial_line_order(self, seed):
        script = (
            "import sys\n"
            "import mdquant.forking\n"
            "if sys.argv[1] == 'serial':\n"
            "    mdquant.forking.worker_count = lambda items: 1\n"
            "from mdquant.cli import main\n"
            "sys.exit(main(sys.argv[2:]))\n"
        )
        argv = ["design", "--K", "16", "--desc", "4,4", "--bsc", "0.0", "--loss", "0.05",
                "--rho-enc", "0.8", "--nsi", "16", "--restarts", "3", "--seed", str(seed)]
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        errs = []
        for mode in ("serial", "default"):
            proc = subprocess.run(
                [sys.executable, "-c", script, mode, *argv],
                env=env, capture_output=True, text=True, timeout=120,
            )
            assert proc.returncode == 0, proc.stderr
            errs.append(proc.stderr)
        lines = errs[0].splitlines()
        # One cap-hit line per restart, then the CLI's warning.
        assert len(lines) == 4 and len(set(lines[:3])) > 1, errs[0]
        assert errs[1] == errs[0]


class TestWorkerCount:
    @needs_workers
    def test_never_more_workers_than_cpus(self, monkeypatch, started):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        q = lloyd_design(4)
        design_annealed(q, q, PAIR, (DescriptionChannel.bsc(0.0, 0.05, 2),) * 2,
                        restarts=5, seed=1)
        assert started == DESIGN_WORKERS

    @pytest.mark.parametrize(
        "case", ["one restart", "one cpu", "no fork", "no setter", "daemonic caller"]
    )
    def test_serial_fallback(self, monkeypatch, case):
        restarts = 1 if case == "one restart" else 4
        if case == "one cpu":
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        elif case == "no fork":
            monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
        elif case == "no setter":
            monkeypatch.setattr(forking, "_blas_thread_setter", lambda: None)
        elif case == "daemonic caller":
            # A pool worker is daemonic and may not start processes of its own.
            monkeypatch.setattr(multiprocessing.current_process(), "daemon", True)
        assert forking.worker_count(restarts) == 1


@needs_workers
class TestProcessHygiene:
    def test_no_child_left_after_design(self, quantizers, started):
        before = child_pids(os.getpid())
        design_annealed(*quantizers, PAIR, CHANNELS, restarts=RESTARTS, seed=5)
        assert started == DESIGN_WORKERS
        assert multiprocessing.active_children() == []
        assert child_pids(os.getpid()) - before == set()

    def test_failed_worker_raises_and_leaves_no_child(self, quantizers, monkeypatch):
        def crash(ctx, rng):
            raise ValueError("restart failed")

        monkeypatch.setattr(codec, "_anneal_once", crash)
        before = child_pids(os.getpid())
        with pytest.raises(RuntimeError, match="annealing worker exited"):
            design_annealed(*quantizers, PAIR, CHANNELS, restarts=RESTARTS, seed=5)
        assert multiprocessing.active_children() == []
        assert child_pids(os.getpid()) - before == set()

    def test_workers_exit_when_the_parent_is_killed(self):
        argv = ["design", "--K", "128", "--desc", "8,8", "--bsc", "0.0", "--loss", "0.05",
                "--rho-enc", "0.8", "--nsi", "64", "--restarts", "2", "--seed", "1"]
        proc = subprocess.Popen(
            [sys.executable, "-m", "mdquant.cli", *argv],
            env={**os.environ, "PYTHONPATH": str(SRC)},
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            start_new_session=True,
        )
        workers: set[int] = set()
        try:
            deadline = time.monotonic() + 60
            while len(workers) < 2 and proc.poll() is None and time.monotonic() < deadline:
                workers = child_pids(proc.pid)
                time.sleep(0.01)
            assert len(workers) == 2, "the design never had two workers running"
            os.kill(proc.pid, signal.SIGKILL)
            proc.wait(timeout=30)
            deadline = time.monotonic() + 30
            while any(running(p) for p in workers) and time.monotonic() < deadline:
                time.sleep(0.05)
            assert not any(running(p) for p in workers), "a worker outlived its killed parent"
        finally:
            # The design and its workers share the session's process group.
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.wait(timeout=30)


def test_negative_seed_raises_before_any_worker_starts(quantizers, started):
    with pytest.raises(ValueError, match="seed must be non-negative"):
        design_annealed(*quantizers, PAIR, CHANNELS, restarts=RESTARTS, seed=-1)
    assert started == []
