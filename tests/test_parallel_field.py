"""Sensor-field blocks and selection scores in forked workers: the serial run's results, and no process left behind."""

import dataclasses
import multiprocessing
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from mdquant import DescriptionChannel, decode_sym, forking, simulator
from mdquant.channel import pattern_ids, tuple_space
from mdquant.cli import main as cli_main
from mdquant.simulator import (
    SI_METHODS,
    SYM_MODES,
    SymConfig,
    generate_scenario,
    run_sym_experiment,
    sample_correlated_sources,
    _channel_streams,
    _selection_score_tables,
    _transmit_bsc,
)

from conftest import child_pids, needs_workers, running

SRC = Path(__file__).resolve().parent.parent / "src"
NODES, TRIALS, BLOCK = 6, 120, 25  # five blocks, the last one short


def small_blocks(monkeypatch, bundle):
    monkeypatch.setattr(
        simulator, "BLOCK_ENTRIES", BLOCK * NODES * tuple_space(bundle.channels).size
    )


def force_workers(monkeypatch, workers):
    monkeypatch.setattr(forking, "worker_count", lambda items: min(items, workers))


def field_run(cfg, monkeypatch, workers):
    """(per-trial errors, result without its wall time) of one run on ``workers`` workers."""
    errs = []
    result = simulator._result

    def recorded(err, *args, **kwargs):
        errs.append(err)
        return result(err, *args, **kwargs)

    with monkeypatch.context() as m:
        force_workers(m, workers)
        m.setattr(simulator, "_result", recorded)  # runs in this process
        res = run_sym_experiment(cfg)
    [err] = errs
    return err, dataclasses.replace(res, wall_time=0.0)


class TestSameResultsAsSerial:
    @pytest.mark.parametrize("tol", ["default", 0.0])
    @pytest.mark.parametrize("mode", SYM_MODES)
    @pytest.mark.parametrize("method", SI_METHODS)
    def test_any_worker_count_gives_the_serial_run(
        self, tiny_bundle, monkeypatch, started, mode, method, tol
    ):
        if tol != "default":
            monkeypatch.setattr(decode_sym, "SYM_TOL", tol)
        small_blocks(monkeypatch, tiny_bundle)
        scen = generate_scenario(NODES, tiny_bundle.channels, seed=3)
        cfg = SymConfig(
            scenario=scen, bundle=tiny_bundle, mode=mode, si_method=method,
            trials=TRIALS, seed=5,
        )
        serial_err, serial = field_run(cfg, monkeypatch, 1)
        assert started == []
        assert serial_err.shape == (TRIALS,)
        for workers in (2, 3):
            err, res = field_run(cfg, monkeypatch, workers)
            assert np.array_equal(err, serial_err), workers
            assert res == serial, workers
        # Two runs; the blocks, and for scored methods the correlations, forked each time.
        per_run = 2 + 3 if method == "distance" else 2 * (2 + 3)
        assert len(started) == per_run

    @needs_workers
    def test_source_blocks_drawn_here_equal_those_drawn_in_workers(self, tiny_bundle):
        # At 100 nodes a (64, 100) @ (100, 100) chunk product rounds
        # differently on one BLAS thread and on two; a block's sources are
        # the same bits in this process, with its thread pool, as in a worker.
        nodes = 100
        scen = generate_scenario(nodes, tiny_bundle.channels, seed=3)
        factor, _ = simulator._source_factor(scen.pairwise_rho)
        blocks = [slice(0, 70), slice(70, 200), slice(200, 203)]
        items = list(zip(blocks, simulator._source_states(5, blocks, nodes)))

        def draw(item):
            blk, state = item
            return simulator._block_sources(5, state, blk, factor)

        here = [draw(item) for item in items]
        for got, expect in zip(forking.fork_map(draw, items), here):
            assert np.array_equal(got, expect)

    def test_default_tol_stops_estimated_blocks_early(self, tiny_bundle, monkeypatch):
        # So the default-tol cases above cover blocks that stop on their own change.
        small_blocks(monkeypatch, tiny_bundle)
        scen = generate_scenario(NODES, tiny_bundle.channels, seed=3)
        cfg = SymConfig(scenario=scen, bundle=tiny_bundle, mode="estimated",
                        si_method="distance", trials=TRIALS, seed=5)
        steps = []
        step = decode_sym._SymDecoder.estimated_step

        def counted(self, *args):
            steps.append(1)
            return step(self, *args)

        monkeypatch.setattr(decode_sym._SymDecoder, "estimated_step", counted)
        field_run(cfg, monkeypatch, 1)
        # One step per sweep of a whole block after the no-SI pass.
        blocks = -(-TRIALS // BLOCK)
        assert len(steps) < blocks * (decode_sym.SYM_MAX_ITERS - 1)


class TestPositionedStreams:
    CHANNELS = (DescriptionChannel.bsc(0.5, 0.5, 8), DescriptionChannel.bsc(0.5, 0.5, 4))

    def test_advance_equals_continuing_through_the_earlier_blocks(self):
        # A field's channel uses run over (trial, node) in row-major order, so
        # a block of trials starts at use ``blk.start * nodes``.
        nodes, space = 4, tuple_space(self.CHANNELS)
        ids = np.random.default_rng(0).integers(0, space.size, (25, nodes))
        continued = _channel_streams(self.CHANNELS, 4, 7)
        for blk in (slice(0, 7), slice(7, 8), slice(8, 14), slice(14, 25)):
            [(words, received)] = _transmit_bsc(
                ids[blk].ravel(), [self.CHANNELS], space, continued
            )
            positioned = _channel_streams(self.CHANNELS, 4, 7, blk.start * nodes)
            [(got_words, got_received)] = _transmit_bsc(
                ids[blk].ravel(), [self.CHANNELS], space, positioned
            )
            assert np.array_equal(got_words, words), blk
            assert np.array_equal(got_received, received), blk
        # Both generators of each description sit at the same place afterwards.
        for (flip, loss), (p_flip, p_loss) in zip(
            continued, _channel_streams(self.CHANNELS, 4, 7, 25 * nodes)
        ):
            assert flip.random() == p_flip.random()
            assert loss.random() == p_loss.random()

    @pytest.mark.usefixtures("one_worker")
    @pytest.mark.parametrize("block, trials", [(1, 4), (BLOCK, TRIALS)])
    def test_field_blocks_equal_one_whole_run_transmission(
        self, tiny_bundle, monkeypatch, block, trials
    ):
        # The words and loss patterns each block hands the decoder are those
        # of one transmission of the whole run's (trial, node) tuples.
        channels, space = tiny_bundle.channels, tuple_space(tiny_bundle.channels)
        monkeypatch.setattr(simulator, "BLOCK_ENTRIES", block * NODES * space.size)
        seen = []
        decode = decode_sym._SymDecoder.decode

        def spied(dec, words, pids, s_map):
            seen.append((words.copy(), pids.copy()))
            return decode(dec, words, pids, s_map)

        monkeypatch.setattr(decode_sym._SymDecoder, "decode", spied)
        scen = generate_scenario(NODES, channels, seed=3)
        run_sym_experiment(SymConfig(scenario=scen, bundle=tiny_bundle, mode="estimated",
                                     si_method="distance", trials=trials, seed=5))
        sizes = [words.shape[0] for words, _ in seen]
        assert sizes == [block] * (trials // block) + [trials % block] * (trials % block > 0)

        x, _ = sample_correlated_sources(scen, trials, 5)
        ids = tiny_bundle.ia.hard_map()[tiny_bundle.quantizer.cells(x)].ravel()
        [(words, received)] = _transmit_bsc(
            ids, [channels], space, _channel_streams(channels, 4, 5)
        )
        got_words = np.concatenate([w for w, _ in seen])
        assert got_words.shape == (trials, NODES, len(channels))
        assert np.array_equal(got_words.reshape(words.shape), words)
        # Pattern ids are one-to-one with the loss flags of a channel use.
        got_pids = np.concatenate([p for _, p in seen])
        assert np.array_equal(got_pids.ravel(), pattern_ids(received))


class TestSplitScoreTables:
    @pytest.mark.parametrize("method", ["mutual_info", "min_distortion"])
    def test_parts_equal_one_batch(self, tiny_bundle, monkeypatch, method):
        scen = generate_scenario(9, tiny_bundle.channels, seed=3)
        rho = scen.pairwise_rho[np.triu_indices(9, 1)]
        keys = sorted({0.0, *(round(float(r), 12) for r in rho)})
        K = tiny_bundle.quantizer.size
        monkeypatch.setattr(simulator, "BLOCK_ENTRIES", len(keys) * K * K)
        force_workers(monkeypatch, 1)
        whole = _selection_score_tables(tiny_bundle, keys, method)
        assert whole.shape[0] == len(keys)
        # One part per worker; then one correlation per part, several parts per worker.
        for workers, per_part in ((2, len(keys)), (3, len(keys)), (2, 1), (1, 1)):
            monkeypatch.setattr(simulator, "BLOCK_ENTRIES", per_part * K * K)
            force_workers(monkeypatch, workers)
            got = _selection_score_tables(tiny_bundle, keys, method)
            assert got.tobytes() == whole.tobytes(), (workers, per_part)


@needs_workers
class TestProcessHygiene:
    @pytest.mark.parametrize("call", ["run_sym_experiment", "scenario"])
    def test_no_child_left_after_a_field(
        self, tiny_bundle, tmp_path, monkeypatch, started, call
    ):
        before = child_pids(os.getpid())
        if call == "run_sym_experiment":
            small_blocks(monkeypatch, tiny_bundle)
            scen = generate_scenario(NODES, tiny_bundle.channels, seed=3)
            run_sym_experiment(SymConfig(scenario=scen, bundle=tiny_bundle, trials=TRIALS, seed=5))
        else:
            out = tmp_path / "field.csv"
            # Two blocks of 40 nodes; the design's one restart runs here.
            assert cli_main(["scenario", "--nodes", "40", "--trials", "3000", "--seed", "5",
                             "--restarts", "1", "-o", str(out)]) == 0
            assert out.exists()
        assert len(started) >= 2
        assert multiprocessing.active_children() == []
        assert child_pids(os.getpid()) - before == set()

    def test_failed_block_raises_and_leaves_no_child(self, tiny_bundle, monkeypatch):
        def crash(*args):
            raise ValueError("block failed")

        monkeypatch.setattr(simulator, "_block_errors", crash)
        small_blocks(monkeypatch, tiny_bundle)
        scen = generate_scenario(NODES, tiny_bundle.channels, seed=3)
        before = child_pids(os.getpid())
        with pytest.raises(RuntimeError, match="field worker exited"):
            run_sym_experiment(SymConfig(scenario=scen, bundle=tiny_bundle, trials=TRIALS, seed=5))
        assert multiprocessing.active_children() == []
        assert child_pids(os.getpid()) - before == set()

    def test_workers_exit_when_the_scenario_parent_is_killed(self, tmp_path):
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        codec_file = tmp_path / "codec.json"
        subprocess.run(
            [sys.executable, "-m", "mdquant.cli", "design", "--K", "16", "--desc", "4,4",
             "--bsc", "0.005", "--loss", "0.05", "--rho-enc", "0.4", "--nsi", "64",
             "--restarts", "1", "--seed", "1", "-o", str(codec_file)],
            env=env, check=True, capture_output=True, timeout=120,
        )
        # Distance selection forks no score workers: every child decodes blocks.
        argv = ["scenario", "--nodes", "40", "--codec", str(codec_file), "--mode", "soft",
                "--si-method", "distance", "--trials", "20000", "--seed", "1",
                "-o", str(tmp_path / "field.csv")]
        proc = subprocess.Popen(
            [sys.executable, "-m", "mdquant.cli", *argv], env=env,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, start_new_session=True,
        )
        workers: set[int] = set()
        try:
            deadline = time.monotonic() + 60
            while len(workers) < 2 and proc.poll() is None and time.monotonic() < deadline:
                workers = child_pids(proc.pid)
                time.sleep(0.01)
            assert len(workers) >= 2, "the field never had two workers running"
            os.kill(proc.pid, signal.SIGKILL)
            proc.wait(timeout=30)
            deadline = time.monotonic() + 30
            while any(running(p) for p in workers) and time.monotonic() < deadline:
                time.sleep(0.05)
            assert not any(running(p) for p in workers), "a worker outlived its killed parent"
        finally:
            # The scenario and its workers share the session's process group.
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.wait(timeout=30)
