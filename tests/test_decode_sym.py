import ast
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import ndtr

from mdquant import DescriptionChannel, JointGaussianPair, build_cross_tables, lloyd_design
from mdquant import codec, decode_sym, forking, simulator
from mdquant.channel import tuple_space
from mdquant.decode_sym import _SymDecoder
from mdquant.simulator import SI_METHODS, SYM_MODES, SymConfig, generate_scenario, run_sym_experiment

from conftest import make_bundle, simpson_nodes, std_normal_pdf
from oracles import (
    ChannelOutcome,
    Posterior,
    SymmetricState,
    cell_cross_tables,
    decode,
    estimated_si_iterate,
    estimated_sweeps,
    joint_likelihood,
    ladder_tables,
    posterior,
    run_decoder,
    soft_si_posterior,
    soft_sweeps,
    soft_si_reconstruct,
)


def oracle_cell_joint(q, rho, n=6001):
    """P(own cell l, neighbor cell k) by Simpson over the neighbor axis.

    Inner cell probabilities use the scipy normal cdf directly, keeping the
    oracle independent of the package's panel quadrature.
    """
    edges = q.edges()
    fin = np.clip(edges, -9, 9)
    joint = np.zeros((q.size, q.size))
    m1 = np.zeros((q.size, q.size))
    sd = np.sqrt(1 - rho**2)
    for k in range(q.size):
        x, w = simpson_nodes(fin[k], fin[k + 1], n)
        wt = w * std_normal_pdf(x)
        for l in range(q.size):
            a = (edges[l] - rho * x) / sd
            b = (edges[l + 1] - rho * x) / sd
            pa, pb = ndtr(a), ndtr(b)
            joint[l, k] = np.dot(wt, pb - pa)
            mean_trunc = rho * x * (pb - pa) - sd * (
                std_normal_pdf(b) - std_normal_pdf(a)
            )
            m1[l, k] = np.dot(wt, mean_trunc)
    return joint, m1


class TestCrossTables:
    def test_independent_sources(self, tiny_bundle):
        cells = cell_cross_tables(tiny_bundle, JointGaussianPair(1, 1, 0.0))
        q = tiny_bundle.quantizer
        for k in range(q.size):
            assert np.allclose(cells.cell_cross[:, k], q.cell_probs, atol=1e-12)

    def test_near_identity_at_high_rho(self):
        q = lloyd_design(8)
        bundle = make_bundle(
            q,
            lloyd_design(8),
            np.eye(8),
            (DescriptionChannel.bsc(0.01, 0.05, 8),),
        )
        cells = cell_cross_tables(bundle, JointGaussianPair(1, 1, 0.99))
        for k in range(1, 7):  # interior cells
            assert np.argmax(cells.cell_cross[:, k]) == k

    def test_stochasticity(self, tiny_bundle):
        cells = cell_cross_tables(tiny_bundle, JointGaussianPair(1, 1, 0.8))
        assert np.max(np.abs(cells.cell_cross.sum(axis=0) - 1.0)) < 1e-9
        used = cells.cell_given_idx.sum(axis=0) > 0
        assert np.allclose(cells.cell_given_idx.sum(axis=0)[used], 1.0, atol=1e-9)
        assert np.max(np.abs(cells.idx_given_cell.sum(axis=0) - 1.0)) < 1e-9

    def test_against_simpson_oracle(self, tiny_bundle):
        rho = 0.8
        cells = cell_cross_tables(tiny_bundle, JointGaussianPair(1, 1, rho))
        joint, _ = oracle_cell_joint(tiny_bundle.quantizer, rho)
        cond = joint / tiny_bundle.quantizer.cell_probs[None, :]
        assert np.max(np.abs(cells.cell_cross - cond)) < 1e-8


@pytest.fixture(scope="module")
def k16_bundle():
    """K=16 codec over two 4-index descriptions; cells k and k+12 share a tuple."""
    table = np.zeros((16, 16))
    table[np.arange(16), np.arange(16) % 12] = 1.0
    channels = (
        DescriptionChannel.bsc(0.005, 0.05, 4),
        DescriptionChannel.bsc(0.005, 0.05, 4),
    )
    return make_bundle(lloyd_design(16), lloyd_design(64), table, channels)


class TestCrossTableProperties:
    @settings(max_examples=40, deadline=None)
    @given(rho=st.floats(0.0, 0.99))
    def test_conditional_columns_and_symmetric_joint(self, tiny_bundle, k16_bundle, rho):
        for bundle in (tiny_bundle, k16_bundle):
            cells = cell_cross_tables(bundle, JointGaussianPair(1, 1, rho))
            assert np.max(np.abs(cells.cell_cross.sum(axis=0) - 1.0)) < 1e-12
            joint = cells.cell_cross * bundle.quantizer.cell_probs[None, :]
            assert np.max(np.abs(joint - joint.T)) < 1e-14

    def test_independent_columns_equal_marginal(self, tiny_bundle, k16_bundle):
        for bundle in (tiny_bundle, k16_bundle):
            cells = cell_cross_tables(bundle, JointGaussianPair(1, 1, 0.0))
            marginal = bundle.quantizer.cell_probs[:, None]
            assert np.max(np.abs(cells.cell_cross - marginal)) < 1e-15


class TestSoftSi:
    def test_independent_neighbor_reduces_to_no_si(self, tiny_bundle):
        cross = build_cross_tables(tiny_bundle, JointGaussianPair(1, 1, 0.0))
        oc = ChannelOutcome((1, 0), np.array([True, True]))
        rng = np.random.default_rng(0)
        for _ in range(5):
            raw = rng.dirichlet(np.ones(3))
            npost = np.zeros(4)
            npost[[0, 1, 2]] = raw  # only used tuples carry mass
            got = soft_si_posterior(
                oc, Posterior(npost), cross, tiny_bundle.channels
            )
            base = posterior(oc, None, None, tiny_bundle)
            assert np.max(np.abs(got.probs - base.probs)) < 1e-9

    def test_indicator_neighbor_prior(self, tiny_bundle):
        pair = JointGaussianPair(1, 1, 0.8)
        cross, cells = build_cross_tables(tiny_bundle, pair), cell_cross_tables(tiny_bundle, pair)
        npost = np.zeros(4)
        npost[1] = 1.0
        expect = cells.idx_given_cell @ cells.cell_given_idx[:, 1]
        oc = ChannelOutcome((None, None), np.array([False, False]))
        got = soft_si_posterior(oc, Posterior(npost), cross, tiny_bundle.channels)
        assert np.max(np.abs(got.probs - expect / expect.sum())) < 1e-12

    def test_posterior_enumeration_oracle(self, tiny_bundle):
        # Exact P(I_u | J_u, J_t) under the chain J_u <- I_u <- cell_u <-
        # cell_t -> I_t -> J_t, with the neighbor posterior taken from its
        # own channel (no SI).  Built from the Simpson cell joint.
        rho = 0.8
        cross = build_cross_tables(tiny_bundle, JointGaussianPair(1, 1, rho))
        joint_cells, _ = oracle_cell_joint(tiny_bundle.quantizer, rho)
        A = tiny_bundle.ia.table
        space = tuple_space(tiny_bundle.channels)
        chs = tiny_bundle.channels
        oc_u = ChannelOutcome((1, 0), np.array([True, True]))
        oc_t = ChannelOutcome((0, None), np.array([True, False]))
        lik_u = np.array(
            [joint_likelihood(oc_u.received, tuple(tp), oc_u.flags, chs) for tp in space.tuples]
        )
        lik_t = np.array(
            [joint_likelihood(oc_t.received, tuple(tp), oc_t.flags, chs) for tp in space.tuples]
        )
        # P(I_u, J_u, J_t) = sum_{l,k,I_t} P(J_u|I_u) A[l,I_u] joint[l,k] A[k,I_t] P(J_t|I_t)
        w_cells_t = joint_cells @ (A @ lik_t)  # (l,)
        expect = lik_u * (A.T @ w_cells_t if False else (A * w_cells_t[:, None]).sum(axis=0))
        expect /= expect.sum()
        npost = posterior(oc_t, None, None, tiny_bundle)
        got = soft_si_posterior(oc_u, npost, cross, chs)
        assert np.max(np.abs(got.probs - expect)) < 1e-9

    def test_reconstruct_all_lost_independent(self, tiny_bundle):
        cross = build_cross_tables(tiny_bundle, JointGaussianPair(1, 1, 0.0))
        oc = ChannelOutcome((None, None), np.array([False, False]))
        npost = posterior(oc, None, None, tiny_bundle)
        post = soft_si_posterior(oc, npost, cross, tiny_bundle.channels)
        assert abs(soft_si_reconstruct(post, npost, cross)) < 1e-9

    def test_reconstruct_enumeration_oracle(self, tiny_bundle):
        # E[X_u | J_u, J_t] from the Simpson joint with first moments.
        rho = 0.8
        cross = build_cross_tables(tiny_bundle, JointGaussianPair(1, 1, rho))
        joint_cells, m1_cells = oracle_cell_joint(tiny_bundle.quantizer, rho)
        A = tiny_bundle.ia.table
        space = tuple_space(tiny_bundle.channels)
        chs = tiny_bundle.channels
        oc_u = ChannelOutcome((0, 1), np.array([True, True]))
        oc_t = ChannelOutcome((1, 1), np.array([True, True]))
        lik_u = np.array(
            [joint_likelihood(oc_u.received, tuple(tp), oc_u.flags, chs) for tp in space.tuples]
        )
        lik_t = np.array(
            [joint_likelihood(oc_t.received, tuple(tp), oc_t.flags, chs) for tp in space.tuples]
        )
        w_t = A @ lik_t  # (k,) evidence per neighbor cell
        den_cells = joint_cells @ w_t  # (l,)
        num_cells = m1_cells @ w_t
        den = float(np.dot(lik_u, (A * den_cells[:, None]).sum(axis=0)))
        num = float(np.dot(lik_u, (A * num_cells[:, None]).sum(axis=0)))
        expect = num / den
        npost = posterior(oc_t, None, None, tiny_bundle)
        post = soft_si_posterior(oc_u, npost, cross, chs)
        got = soft_si_reconstruct(post, npost, cross)
        assert abs(got - expect) < 1e-8


class TestEstimatedSi:
    def test_iteration_one_is_no_si(self, tiny_bundle):
        ocs = [
            ChannelOutcome((1, 0), np.array([True, True])),
            ChannelOutcome((0, None), np.array([True, False])),
        ]
        level_matrix = np.array([[0, 4], [4, 0]])
        est, iters = run_decoder(
            ocs, tiny_bundle, [1, 0], level_matrix, mode="estimated", max_iters=1
        )
        expect = np.array([decode(oc, None, None, tiny_bundle) for oc in ocs])
        assert np.array_equal(est, expect)
        est_soft, _ = run_decoder(
            ocs, tiny_bundle, [1, 0], level_matrix, mode="soft", max_iters=1
        )
        assert np.array_equal(est_soft, expect)

    def test_uncorrelated_sources_are_stable(self, tiny_bundle):
        ocs = [
            ChannelOutcome((1, 0), np.array([True, True])),
            ChannelOutcome((0, 1), np.array([True, True])),
        ]
        level_matrix = np.zeros((2, 2), dtype=int)  # rho level 0 == independent
        one, _ = run_decoder(
            ocs, tiny_bundle, [1, 0], level_matrix, mode="estimated", max_iters=1
        )
        many, _ = run_decoder(
            ocs, tiny_bundle, [1, 0], level_matrix, mode="estimated", max_iters=8
        )
        assert np.array_equal(one, many)

    def test_noiseless_fixed_point(self, q4):
        ch = (
            DescriptionChannel.bsc(0.0, 0.0, 2),
            DescriptionChannel.bsc(0.0, 0.0, 2),
        )
        bundle = make_bundle(q4, lloyd_design(8), np.eye(4), ch)
        ocs = [
            ChannelOutcome((1, 0), np.array([True, True])),
            ChannelOutcome((0, 0), np.array([True, True])),
        ]
        level_matrix = np.array([[0, 4], [4, 0]])
        si_map = [1, 0]
        two, _ = run_decoder(ocs, bundle, si_map, level_matrix, "estimated", max_iters=2, tol=0.0)
        three, _ = run_decoder(ocs, bundle, si_map, level_matrix, "estimated", max_iters=3, tol=0.0)
        assert np.max(np.abs(two - three)) < 1e-12
        # Both modes are converged by iteration 2: running longer leaves the
        # final estimates (hence distortion) unchanged within 1e-6.
        for mode in ("soft", "estimated"):
            short, _ = run_decoder(ocs, bundle, si_map, level_matrix, mode, max_iters=2, tol=0.0)
            full, iters = run_decoder(ocs, bundle, si_map, level_matrix, mode, max_iters=10)
            assert iters <= 3
            assert np.max(np.abs(short - full)) < 1e-6

    def test_single_source_degenerates_to_no_si(self, tiny_bundle):
        oc = ChannelOutcome((1, None), np.array([True, False]))
        est, _ = run_decoder(
            [oc], tiny_bundle, [0], np.zeros((1, 1), dtype=int), mode="soft"
        )
        assert est[0] == decode(oc, None, None, tiny_bundle)

    def test_estimated_iterate_uses_neighbor_estimate(self, tiny_bundle):
        ocs = (
            ChannelOutcome((1, 0), np.array([True, True])),
            ChannelOutcome((None, None), np.array([False, False])),
        )
        posts = tuple(posterior(oc, None, None, tiny_bundle) for oc in ocs)
        ests = np.array(
            [
                float(np.dot(p.probs, ladder_tables(tiny_bundle).codebook_nosi))
                for p in posts
            ]
        )
        state = SymmetricState(ocs, ests, posts, np.array([1, 0]), 1)
        level_matrix = np.array([[0, 4], [4, 0]])
        nxt = estimated_si_iterate(state, tiny_bundle, level_matrix)
        # Source 1 (everything lost) must now lean on source 0's estimate.
        y_level = int(
            np.searchsorted(tiny_bundle.si_quantizer.thresholds, ests[0])
        )
        expect = decode(ocs[1], y_level, 4, tiny_bundle)
        assert abs(nxt.estimates[1] - expect) < 1e-12


@pytest.fixture(scope="module")
def ber0_bundle():
    """The K=16 codec of ``k16_bundle`` over error-free BSCs: tuples 12-15 carry no cell.

    A word row that only an unused tuple can send has zero mass.
    """
    table = np.zeros((16, 16))
    table[np.arange(16), np.arange(16) % 12] = 1.0
    channels = (DescriptionChannel.bsc(0.0, 0.05, 4), DescriptionChannel.bsc(0.0, 0.05, 4))
    return make_bundle(lloyd_design(16), lloyd_design(64), table, channels)


def decoded_blocks(cfg, block_trials):
    """(decoder, decode arguments) of every block of one run, decoded in this process."""
    calls = []
    decode = _SymDecoder.decode

    def recorded(dec, *args):
        calls.append((dec, args))
        return decode(dec, *args)

    per_trial = cfg.scenario.n_nodes * tuple_space(cfg.bundle.channels).size
    with pytest.MonkeyPatch.context() as m:
        m.setattr(forking, "worker_count", lambda items: 1)
        m.setattr(simulator, "BLOCK_ENTRIES", block_trials * per_trial)
        m.setattr(_SymDecoder, "decode", recorded)
        run_sym_experiment(cfg)
    assert len(calls) == -(-cfg.trials // block_trials)
    return calls


class TestEstimatedGathers:
    """The whole-block estimated-SI gathers equal the node-by-node sweeps bit for bit."""

    def test_zero_mass_word_rows_build_without_warnings(self, ber0_bundle):
        scen = generate_scenario(3, ber0_bundle.channels, seed=0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            decs = [_SymDecoder(ber0_bundle, mode, scen.pairwise_rho) for mode in SYM_MODES]
        mass = decs[0].word_lik @ decs[0].prior_nosi
        assert np.any(mass == 0) and np.any(mass > 0)
        for dec in decs:
            assert np.all(dec.nosi_post[mass == 0] == 0) and np.all(dec.nosi_est[mass == 0] == 0)
            assert np.allclose(dec.nosi_post[mass > 0].sum(axis=1), 1.0)

    @settings(max_examples=30, deadline=None)
    @given(
        codec_name=st.sampled_from(["tiny_bundle", "ber0_bundle"]),
        nodes=st.integers(2, 6),
        trials=st.integers(2, 40),  # a run of one trial has no standard error
        block_trials=st.integers(1, 16),
        method=st.sampled_from(SI_METHODS),
        tol=st.sampled_from(["default", 0.0]),
        seed=st.integers(0, 2**16),
    )
    @example(codec_name="tiny_bundle", nodes=6, trials=40, block_trials=1,
             method="min_distortion", tol=0.0, seed=3)
    @example(codec_name="ber0_bundle", nodes=6, trials=40, block_trials=16,
             method="min_distortion", tol="default", seed=3)
    def test_decode_equals_node_by_node_sweeps(
        self, tiny_bundle, ber0_bundle, codec_name, nodes, trials, block_trials, method, tol, seed
    ):
        bundle = tiny_bundle if codec_name == "tiny_bundle" else ber0_bundle
        scen = generate_scenario(nodes, bundle.channels, seed=seed)
        cfg = SymConfig(scenario=scen, bundle=bundle, mode="estimated", si_method=method,
                        trials=trials, seed=seed)
        tol = decode_sym.SYM_TOL if tol == "default" else tol
        with pytest.MonkeyPatch.context() as m:
            m.setattr(decode_sym, "SYM_TOL", tol)
            for dec, args in decoded_blocks(cfg, block_trials):
                got = dec.decode(*args)
                expect = estimated_sweeps(dec, *args, decode_sym.SYM_MAX_ITERS, tol)
                assert np.array_equal(got, expect)

    @pytest.mark.parametrize("codec_name, block_trials", [("tiny_bundle", 1), ("ber0_bundle", 16)])
    def test_examples_reach_several_ladder_levels(self, request, codec_name, block_trials):
        # The explicit examples above: min_distortion puts some nodes' SI
        # sources at several ladder levels, and the sweeps move the estimates
        # away from the no-SI pass.
        bundle = request.getfixturevalue(codec_name)
        scen = generate_scenario(6, bundle.channels, seed=3)
        cfg = SymConfig(scenario=scen, bundle=bundle, mode="estimated",
                        si_method="min_distortion", trials=40, seed=3)
        blocks = decoded_blocks(cfg, block_trials)
        s_map = np.concatenate([args[2] for _, args in blocks])
        levels = np.take_along_axis(blocks[0][0].level_matrix, s_map.T, axis=1)
        assert sum(np.unique(row).size > 1 for row in levels) >= 2
        assert any(
            not np.array_equal(estimated_sweeps(dec, *args, 1, 0.0),
                               estimated_sweeps(dec, *args, decode_sym.SYM_MAX_ITERS, 0.0))
            for dec, args in blocks
        )


@pytest.fixture(scope="module")
def every_tuple_bundle(q4):
    """The quantizers and channels of ``tiny_bundle``, with a tuple of its own for every cell."""
    channels = (DescriptionChannel.bsc(0.1, 0.1, 2), DescriptionChannel.bsc(0.1, 0.1, 2))
    return make_bundle(q4, lloyd_design(8), np.eye(4), channels)


class TestSoftSweeps:
    """The used-tuple soft-SI sweeps against the full-width sweeps of the oracle."""

    @settings(max_examples=30, deadline=None)
    @given(
        codec_name=st.sampled_from(["tiny_bundle", "ber0_bundle", "k16_bundle", "every_tuple_bundle"]),
        nodes=st.integers(2, 6),
        trials=st.integers(2, 40),  # a run of one trial has no standard error
        block_trials=st.integers(1, 16),
        method=st.sampled_from(SI_METHODS),
        tol=st.sampled_from(["default", 0.0]),
        seed=st.integers(0, 2**16),
    )
    @example(codec_name="k16_bundle", nodes=6, trials=40, block_trials=16,
             method="min_distortion", tol=0.0, seed=3)
    @example(codec_name="every_tuple_bundle", nodes=6, trials=40, block_trials=1,
             method="min_distortion", tol=0.0, seed=3)
    def test_decode_equals_full_width_sweeps(
        self, tiny_bundle, ber0_bundle, k16_bundle, every_tuple_bundle,
        codec_name, nodes, trials, block_trials, method, tol, seed,
    ):
        bundle = {"tiny_bundle": tiny_bundle, "ber0_bundle": ber0_bundle,
                  "k16_bundle": k16_bundle, "every_tuple_bundle": every_tuple_bundle}[codec_name]
        scen = generate_scenario(nodes, bundle.channels, seed=seed)
        cfg = SymConfig(scenario=scen, bundle=bundle, mode="soft", si_method=method,
                        trials=trials, seed=seed)
        tol = decode_sym.SYM_TOL if tol == "default" else tol
        with pytest.MonkeyPatch.context() as m:
            m.setattr(decode_sym, "SYM_TOL", tol)
            for dec, args in decoded_blocks(cfg, block_trials):
                got = dec.decode(*args)
                expect = soft_sweeps(dec, *args, decode_sym.SYM_MAX_ITERS, tol)
                if dec.used.size == dec.space.size:
                    assert np.array_equal(got, expect)
                else:
                    # The oracle's products run over all L tuples and the
                    # decoder's over the U used ones, and they round
                    # differently: exact equality fails at k16_bundle, 6
                    # nodes, 40 trials, blocks of 16.
                    np.testing.assert_allclose(got, expect, rtol=1e-13, atol=1e-15)

    def test_codecs_leave_tuples_unused(self, tiny_bundle, ber0_bundle, k16_bundle,
                                        every_tuple_bundle):
        scen = generate_scenario(3, tiny_bundle.channels, seed=0)
        used = [_SymDecoder(b, "soft", scen.pairwise_rho).used.size
                for b in (tiny_bundle, ber0_bundle, k16_bundle, every_tuple_bundle)]
        assert used == [3, 12, 12, 4]

    @pytest.mark.parametrize("method", SI_METHODS)
    def test_soft_blocks_and_workers_equal_one_block(self, k16_bundle, monkeypatch, method):
        # k16_bundle uses 12 of its 16 tuples, so each row sum runs numpy's
        # eight-lane pairwise sum over the used columns (tiny_bundle's three
        # add in sequence).  A row's sum reads that row alone: neither the
        # block's trial count nor the worker count changes a bit.
        nodes, trials = 6, 150
        scen = generate_scenario(nodes, k16_bundle.channels, seed=3)
        cfg = SymConfig(scenario=scen, bundle=k16_bundle, mode="soft", si_method=method,
                        trials=trials, seed=5)
        per_trial = nodes * tuple_space(k16_bundle.channels).size
        monkeypatch.setattr(decode_sym, "SYM_TOL", 0.0)
        decode, result = _SymDecoder.decode, simulator._result

        def run(trials_per_block, workers):
            """(estimates, or None from forked workers; per-trial errors; d_av and stderr)."""
            xhats, errs = [], []

            def recorded_decode(dec, *args):
                xhats.append(decode(dec, *args))
                return xhats[-1]

            def recorded_result(err, *args, **kwargs):
                errs.append(err)
                return result(err, *args, **kwargs)

            with monkeypatch.context() as m:
                m.setattr(simulator, "BLOCK_ENTRIES", trials_per_block * per_trial)
                m.setattr(forking, "worker_count", lambda items: min(items, workers))
                m.setattr(_SymDecoder, "decode", recorded_decode)
                m.setattr(simulator, "_result", recorded_result)
                res = run_sym_experiment(cfg)
            [err] = errs
            xhat = np.concatenate(xhats, axis=1) if workers == 1 else None
            return xhat, err, (res.d_av, res.stderr)

        whole_xhat, whole_err, whole_res = run(trials, 1)
        assert whole_xhat.shape == (nodes, trials) and whole_err.shape == (trials,)
        for trials_per_block in (1, 7, 64):
            xhat, err, res = run(trials_per_block, 1)
            assert xhat.tobytes() == whole_xhat.tobytes(), trials_per_block
            assert err.tobytes() == whole_err.tobytes(), trials_per_block
            assert res == whole_res, trials_per_block
        _, err, res = run(trials, 2)
        assert err.tobytes() == whole_err.tobytes()
        assert res == whole_res


class TestJointDecoderModule:
    """The joint decoder is defined once, in ``decode_sym``, which needs no experiment code."""

    @pytest.mark.usefixtures("one_worker")
    @pytest.mark.parametrize("mode", ["estimated", "soft"])
    def test_word_rows_once_per_block(self, tiny_bundle, monkeypatch, mode):
        nodes, trials, block = 5, 60, 25
        L = tuple_space(tiny_bundle.channels).size
        monkeypatch.setattr(simulator, "BLOCK_ENTRIES", block * nodes * L)
        monkeypatch.setattr(decode_sym, "SYM_TOL", 0.0)  # every sweep runs
        calls, groups = [], []
        word_rows, trial_groups = decode_sym.word_rows, decode_sym._trial_groups

        def counted(words, pids, *args):
            calls.append(pids.size)  # one row per (trial, node)
            return word_rows(words, pids, *args)

        def counted_groups(level_u):
            groups.append(level_u.size)
            return trial_groups(level_u)

        monkeypatch.setattr(decode_sym, "word_rows", counted)
        monkeypatch.setattr(decode_sym, "_trial_groups", counted_groups)
        scen = generate_scenario(nodes, tiny_bundle.channels, seed=3)
        run_sym_experiment(SymConfig(scenario=scen, bundle=tiny_bundle, mode=mode,
                                     si_method="distance", trials=trials, seed=5))
        # One call finds the rows of every node and trial of a block.
        assert calls == [25 * nodes, 25 * nodes, 10 * nodes]
        # The soft-SI sweeps group each node's trials once per block, inside
        # decode; estimated-SI gathers each trial's lookup row and needs no groups.
        per_node = [25] * nodes + [25] * nodes + [10] * nodes
        assert groups == (per_node if mode == "soft" else [])

    def test_each_name_defined_once(self):
        assert simulator._SymDecoder.__module__ == "mdquant.decode_sym"
        assert not hasattr(simulator, "_trial_groups")
        assert simulator._AsymLookup.__module__ == "mdquant.codec"
        assert decode_sym._AsymLookup is codec._AsymLookup
        assert simulator.word_rows.__module__ == "mdquant.channel"
        for name in ("SYM_MAX_ITERS", "SYM_TOL", "_row_product"):
            assert hasattr(decode_sym, name) and not hasattr(simulator, name), name

    def test_import_loads_no_experiment_code(self):
        # The package's __init__ imports every module, so the package is
        # registered here without running it and decode_sym is loaded first.
        code = (
            "import sys, types\n"
            "pkg = types.ModuleType('mdquant')\n"
            "pkg.__path__ = [sys.argv[1]]\n"
            "sys.modules['mdquant'] = pkg\n"
            "import mdquant.decode_sym\n"
            "print(sorted(m for m in sys.modules if m.startswith('mdquant.')))\n"
        )
        src = Path(decode_sym.__file__).parent
        out = subprocess.run([sys.executable, "-c", code, str(src)], capture_output=True,
                             text=True, check=True, timeout=60).stdout
        loaded = ast.literal_eval(out)
        assert "mdquant.decode_sym" in loaded
        assert "mdquant.simulator" not in loaded and "mdquant.si_select" not in loaded
