import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtr

from mdquant import DescriptionChannel, JointGaussianPair, build_cross_tables, lloyd_design
from mdquant.channel import tuple_space

from conftest import make_bundle, simpson_nodes, std_normal_pdf
from oracles import (
    ChannelOutcome,
    Posterior,
    SymmetricState,
    decode,
    estimated_si_iterate,
    joint_likelihood,
    posterior,
    run_decoder,
    soft_si_posterior,
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
        cross = build_cross_tables(
            tiny_bundle, tiny_bundle, JointGaussianPair(1, 1, 0.0)
        )
        q = tiny_bundle.quantizer
        for k in range(q.size):
            assert np.allclose(cross.cell_cross[:, k], q.cell_probs, atol=1e-12)

    def test_near_identity_at_high_rho(self, source):
        q = lloyd_design(source, 8)
        bundle = make_bundle(
            q,
            lloyd_design(source, 8),
            np.eye(8),
            (DescriptionChannel.bsc(0.01, 0.05, 8),),
        )
        cross = build_cross_tables(bundle, bundle, JointGaussianPair(1, 1, 0.99))
        for k in range(1, 7):  # interior cells
            assert np.argmax(cross.cell_cross[:, k]) == k

    def test_stochasticity(self, tiny_bundle):
        cross = build_cross_tables(
            tiny_bundle, tiny_bundle, JointGaussianPair(1, 1, 0.8)
        )
        assert np.max(np.abs(cross.cell_cross.sum(axis=0) - 1.0)) < 1e-9
        used = cross.cell_given_idx.sum(axis=0) > 0
        assert np.allclose(cross.cell_given_idx.sum(axis=0)[used], 1.0, atol=1e-9)
        assert np.max(np.abs(cross.idx_given_cell.sum(axis=0) - 1.0)) < 1e-9

    def test_against_simpson_oracle(self, tiny_bundle):
        rho = 0.8
        cross = build_cross_tables(tiny_bundle, tiny_bundle, JointGaussianPair(1, 1, rho))
        joint, _ = oracle_cell_joint(tiny_bundle.quantizer, rho)
        cond = joint / tiny_bundle.quantizer.cell_probs[None, :]
        assert np.max(np.abs(cross.cell_cross - cond)) < 1e-8


@pytest.fixture(scope="module")
def k16_bundle(source):
    """K=16 codec over two 4-index descriptions; cells k and k+12 share a tuple."""
    table = np.zeros((16, 16))
    table[np.arange(16), np.arange(16) % 12] = 1.0
    channels = (
        DescriptionChannel.bsc(0.005, 0.05, 4),
        DescriptionChannel.bsc(0.005, 0.05, 4),
    )
    return make_bundle(lloyd_design(source, 16), lloyd_design(source, 64), table, channels)


class TestCrossTableProperties:
    @settings(max_examples=40, deadline=None)
    @given(rho=st.floats(0.0, 0.99))
    def test_conditional_columns_and_symmetric_joint(self, tiny_bundle, k16_bundle, rho):
        for bundle in (tiny_bundle, k16_bundle):
            cross = build_cross_tables(bundle, bundle, JointGaussianPair(1, 1, rho))
            assert np.max(np.abs(cross.cell_cross.sum(axis=0) - 1.0)) < 1e-12
            joint = cross.cell_cross * bundle.quantizer.cell_probs[None, :]
            assert np.max(np.abs(joint - joint.T)) < 1e-14

    def test_independent_columns_equal_marginal(self, tiny_bundle, k16_bundle):
        for bundle in (tiny_bundle, k16_bundle):
            cross = build_cross_tables(bundle, bundle, JointGaussianPair(1, 1, 0.0))
            marginal = bundle.quantizer.cell_probs[:, None]
            assert np.max(np.abs(cross.cell_cross - marginal)) < 1e-15


class TestSoftSi:
    def test_independent_neighbor_reduces_to_no_si(self, tiny_bundle):
        cross = build_cross_tables(
            tiny_bundle, tiny_bundle, JointGaussianPair(1, 1, 0.0)
        )
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
        cross = build_cross_tables(
            tiny_bundle, tiny_bundle, JointGaussianPair(1, 1, 0.8)
        )
        npost = np.zeros(4)
        npost[1] = 1.0
        expect = cross.idx_given_cell @ cross.cell_given_idx[:, 1]
        oc = ChannelOutcome((None, None), np.array([False, False]))
        got = soft_si_posterior(oc, Posterior(npost), cross, tiny_bundle.channels)
        assert np.max(np.abs(got.probs - expect / expect.sum())) < 1e-12

    def test_posterior_enumeration_oracle(self, tiny_bundle):
        # Exact P(I_u | J_u, J_t) under the chain J_u <- I_u <- cell_u <-
        # cell_t -> I_t -> J_t, with the neighbor posterior taken from its
        # own channel (no SI).  Built from the Simpson cell joint.
        rho = 0.8
        cross = build_cross_tables(tiny_bundle, tiny_bundle, JointGaussianPair(1, 1, rho))
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
        cross = build_cross_tables(
            tiny_bundle, tiny_bundle, JointGaussianPair(1, 1, 0.0)
        )
        oc = ChannelOutcome((None, None), np.array([False, False]))
        npost = posterior(oc, None, None, tiny_bundle)
        post = soft_si_posterior(oc, npost, cross, tiny_bundle.channels)
        assert abs(soft_si_reconstruct(post, npost, cross)) < 1e-9

    def test_reconstruct_enumeration_oracle(self, tiny_bundle):
        # E[X_u | J_u, J_t] from the Simpson joint with first moments.
        rho = 0.8
        cross = build_cross_tables(tiny_bundle, tiny_bundle, JointGaussianPair(1, 1, rho))
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

    def test_noiseless_fixed_point(self, source, q4):
        ch = (
            DescriptionChannel.bsc(0.0, 0.0, 2),
            DescriptionChannel.bsc(0.0, 0.0, 2),
        )
        bundle = make_bundle(q4, lloyd_design(source, 8), np.eye(4), ch)
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
                float(np.dot(p.probs, tiny_bundle.tables.codebook_nosi))
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
