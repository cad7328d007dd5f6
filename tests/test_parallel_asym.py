"""Asymmetric Monte-Carlo blocks in forked workers: the serial run's results, one shared array, no process left behind, and freed memory reused."""

import dataclasses
import multiprocessing
import os
import resource

import numpy as np
import pytest

from mdquant import DescriptionChannel, JointGaussianPair, forking, simulator
from mdquant.channel import tuple_space
from mdquant.cli import main as cli_main
from mdquant.codec import _AsymLookup, si_moment_matrices
from mdquant.persist import save_codec
from mdquant.simulator import AsymConfig, run_asym_experiment

from conftest import asym_config, child_pids, needs_workers
from oracles import ladder_tables

TRIALS, BLOCK = 120, 25  # five blocks, the last one short
AWGN = tuple(DescriptionChannel.awgn(0.5, 0.1, 2) for _ in range(2))


def bsc_sets(bundle):
    return [
        tuple(DescriptionChannel.bsc(p, 0.1, ch.index_count) for ch in bundle.channels)
        for p in (0.1, 0.01, 0.0)
    ]


def small_blocks(monkeypatch, bundle):
    monkeypatch.setattr(simulator, "BLOCK_ENTRIES", BLOCK * tuple_space(bundle.channels).size)


def force_workers(monkeypatch, workers):
    monkeypatch.setattr(forking, "worker_count", lambda items: min(items, workers))


def asym_run(cfg, sets, monkeypatch, workers):
    """(copies of the shared per-trial arrays, results without their wall time) of one run."""
    made = []
    shared_array = forking.shared_array

    def recorded(shape):
        made.append(shared_array(shape))
        return made[-1]

    with monkeypatch.context() as m:
        force_workers(m, workers)
        m.setattr(forking, "shared_array", recorded)  # called in this process
        results = run_asym_experiment(cfg, sets)
    return [a.copy() for a in made], [dataclasses.replace(r, wall_time=0.0) for r in results]


class TestSameResultsAsSerial:
    @pytest.mark.parametrize("channels", ["bsc_sweep", "awgn", "awgn_no_si"])
    def test_any_worker_count_gives_the_serial_run(
        self, tiny_bundle, monkeypatch, started, channels
    ):
        small_blocks(monkeypatch, tiny_bundle)
        sets = bsc_sets(tiny_bundle) if channels == "bsc_sweep" else [AWGN]
        cfg = asym_config(tiny_bundle, no_si=channels == "awgn_no_si",
                          rho_real=0.8, trials=TRIALS, seed=5)
        serial_errs, serial = asym_run(cfg, sets, monkeypatch, 1)
        assert started == []
        # One array: each set's errors under the drawn losses.
        assert [a.shape for a in serial_errs] == [(len(sets), TRIALS)]
        exact = channels == "bsc_sweep"
        assert all((r.d_side is not None, r.d_central is not None) == (exact, exact)
                   for r in serial)
        assert all(np.all(a > 0) for a in serial_errs)  # every trial's error was written
        for workers in (2, 3):
            errs, results = asym_run(cfg, sets, monkeypatch, workers)
            assert [a.tobytes() for a in errs] == [a.tobytes() for a in serial_errs], workers
            assert results == serial, workers
        assert len(started) == 2 + 3

    def test_results_are_the_shared_arrays_summaries(self, tiny_bundle, monkeypatch):
        small_blocks(monkeypatch, tiny_bundle)
        cfg = AsymConfig(bundle=tiny_bundle, rho_real=0.8, trials=TRIALS, seed=5)
        sets = bsc_sets(tiny_bundle)
        [errs], results = asym_run(cfg, sets, monkeypatch, 2)
        moments = si_moment_matrices(
            tiny_bundle.quantizer, tiny_bundle.si_quantizer, JointGaussianPair(1, 1, 0.8)
        )
        level = tiny_bundle.rho_level(0.8)
        for chs, err, res in zip(sets, errs, results):
            assert (res.d_av, res.stderr) == (
                float(err.mean()), float(err.std(ddof=1) / np.sqrt(TRIALS))
            )
            # The side and central values are exact, not read from the arrays.
            lookup = _AsymLookup(tiny_bundle, ladder_tables(tiny_bundle), chs, level)
            _, d01, d10, d11 = lookup.pattern_distortions(tiny_bundle.ia.table, *moments)
            assert (res.d_side, res.d_central) == ((d10, d01), d11)


@needs_workers
class TestProcessHygiene:
    @pytest.mark.parametrize("call", ["run_asym_experiment", "evaluate"])
    def test_no_child_left_after_evaluate(
        self, tiny_bundle, tmp_path, monkeypatch, started, call
    ):
        before = child_pids(os.getpid())
        small_blocks(monkeypatch, tiny_bundle)
        if call == "run_asym_experiment":
            cfg = AsymConfig(bundle=tiny_bundle, rho_real=0.8, trials=TRIALS, seed=5)
            run_asym_experiment(cfg, bsc_sets(tiny_bundle))
            run_asym_experiment(cfg, [AWGN])
        else:
            codec_file, out = tmp_path / "codec.json", tmp_path / "eval.csv"
            save_codec(tiny_bundle, codec_file)
            assert cli_main(["evaluate", "--codec", str(codec_file), "--rho-real", "0.8",
                             "--bsc-sweep", "0.1,0", "--trials", str(TRIALS), "--seed", "5",
                             "-o", str(out)]) == 0
            assert out.exists()
        assert len(started) >= 2
        assert multiprocessing.active_children() == []
        assert child_pids(os.getpid()) - before == set()

    @pytest.mark.parametrize("channels", ["bsc_sweep", "awgn"])
    def test_failed_block_raises_and_leaves_no_child(self, tiny_bundle, monkeypatch, channels):
        def crash(*args):
            raise ValueError("block failed")

        monkeypatch.setattr(simulator, "_source_block", crash)
        small_blocks(monkeypatch, tiny_bundle)
        sets = bsc_sets(tiny_bundle) if channels == "bsc_sweep" else [AWGN]
        cfg = AsymConfig(bundle=tiny_bundle, rho_real=0.8, trials=TRIALS, seed=5)
        before = child_pids(os.getpid())
        with pytest.raises(RuntimeError, match="asym worker exited"):
            run_asym_experiment(cfg, sets)
        assert multiprocessing.active_children() == []
        assert child_pids(os.getpid()) - before == set()


@needs_workers
class TestWorkerMemory:
    def test_a_worker_reuses_the_memory_its_last_item_freed(self, monkeypatch):
        # Each item touches and frees 32 MB, four 8 MB arrays like a block's
        # temporaries; a worker that gave them back to the system would fault
        # them in again for every item.
        def item(_):
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            arrays = [np.ones(1 << 20) for _ in range(4)]
            del arrays
            return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before

        force_workers(monkeypatch, 2)
        faults = forking.fork_map(item, range(6), "memory")
        for worker in (faults[0::2], faults[1::2]):
            first, *later = worker
            assert max(later) * 4 < first, faults
