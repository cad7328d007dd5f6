import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mdquant import (
    DescriptionChannel,
    GaussianSource,
    JointGaussianPair,
    build_cross_tables,
    lloyd_design,
    pairwise_mi,
    select_min_distance,
)
from mdquant.channel import loss_patterns, pattern_ids, tuple_space
from mdquant.decode_sym import cross_table_stack
from mdquant.si_select import expected_partial_si_distortion, score_tables
from mdquant.simulator import (
    SymConfig,
    WsnScenario,
    _select_maps,
    _selection_score_tables,
)

from conftest import make_bundle
from oracles import (
    ChannelOutcome,
    Posterior,
    decode,
    partial_si_reconstruct,
    per_pair_mi,
    per_pair_partial_si_distortion,
    posterior,
    soft_si_posterior,
    soft_si_reconstruct,
)


def select_one_trial(bundle, rho, q, method):
    """Per-trial selection of one trial: (chosen SI source per node, scores).

    ``scores[u, t]`` is the score table entry the selector read for
    candidate t of source u; the diagonal is left at NaN.
    """
    rho = np.asarray(rho, dtype=float)
    n = rho.shape[0]
    scenario = WsnScenario(np.zeros((n, 2)), 2.0, rho, bundle.channels, 0)
    cfg = SymConfig(scenario=scenario, bundle=bundle, si_method=method, trials=1)
    pids = pattern_ids(np.asarray(q, dtype=bool))[None, :]  # (1 trial, n nodes)
    chosen = _select_maps(cfg, pids)[0]
    keys = sorted({round(float(rho[u, t]), 12) for u in range(n) for t in range(n) if t != u})
    tables = _selection_score_tables(bundle, keys, method)
    scores = np.full((n, n), np.nan)
    for u in range(n):
        for t in range(n):
            if t != u:
                r = keys.index(round(float(rho[u, t]), 12))
                scores[u, t] = tables[r, pids[0, u], pids[0, t]]
    return chosen, scores


class TestMinDistance:
    def test_two_sources(self):
        a = select_min_distance([[0.0, 0.0], [1.0, 0.0]])
        assert list(a.map) == [1, 0]

    def test_collinear(self):
        a = select_min_distance([[0.0, 0.0], [1.0, 0.0], [3.0, 0.0]])
        assert list(a.map) == [1, 0, 1]

    def test_tie_breaks_low(self):
        a = select_min_distance([[0.0, 0.0], [1.0, 0.0], [-1.0, 0.0]])
        assert a.map[0] == 1  # candidates 1 and 2 equidistant

    def test_rigid_motion_invariance(self):
        rng = np.random.default_rng(0)
        pos = rng.random((6, 2))
        theta = 0.7
        rot = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
        moved = pos @ rot.T + np.array([3.0, -1.0])
        assert np.array_equal(
            select_min_distance(pos).map, select_min_distance(moved).map
        )

    def test_needs_two_sources(self):
        with pytest.raises(ValueError):
            select_min_distance([[0.0, 0.0]])


@pytest.fixture(scope="module")
def mi_bundle(source):
    # K=2, M=1, N=2: tiny instance with closed-form cell joint.
    q = lloyd_design(source, 2)
    ch = (DescriptionChannel.bsc(0.1, 0.2, 2),)
    return make_bundle(q, lloyd_design(source, 4), np.eye(2), ch)


class TestPairwiseMi:
    def test_zero_at_independence(self, mi_bundle):
        cross = build_cross_tables(mi_bundle, mi_bundle, JointGaussianPair(1, 1, 0.0))
        mi = pairwise_mi(mi_bundle, mi_bundle, cross, (True,), (True,))
        assert abs(mi) < 1e-12

    def test_zero_when_neighbor_lost(self, mi_bundle):
        cross = build_cross_tables(mi_bundle, mi_bundle, JointGaussianPair(1, 1, 0.9))
        mi = pairwise_mi(mi_bundle, mi_bundle, cross, (True,), (False,))
        assert abs(mi) < 1e-12

    def test_enumeration_oracle(self, mi_bundle):
        rho = 0.7
        cross = build_cross_tables(mi_bundle, mi_bundle, JointGaussianPair(1, 1, rho))
        got = pairwise_mi(mi_bundle, mi_bundle, cross, (True,), (True,))
        # Explicit enumeration over (cell_u, cell_t, I_u, I_t, J_u, J_t) in
        # pure Python from the same cell joint.
        p = 0.1
        cell_joint = cross.cell_cross * mi_bundle.quantizer.cell_probs[None, :]
        pjj = np.zeros((2, 2))
        for l in range(2):
            for k in range(2):
                for ju in range(2):
                    for jt in range(2):
                        lik_u = (p if ju != l else 1 - p)
                        lik_t = (p if jt != k else 1 - p)
                        pjj[ju, jt] += cell_joint[l, k] * lik_u * lik_t
        pu = pjj.sum(axis=1)
        pt = pjj.sum(axis=0)
        ent = lambda v: -sum(x * np.log2(x) for x in np.ravel(v) if x > 0)
        expect = ent(pu) + ent(pt) - ent(pjj)
        assert abs(got - expect) < 1e-12

    def test_cell_joint_matches_orthant_closed_form(self, mi_bundle):
        # P(X>0, Y>0) = 1/4 + asin(rho) / (2 pi) for standard bivariate normal.
        rho = 0.6
        cross = build_cross_tables(mi_bundle, mi_bundle, JointGaussianPair(1, 1, rho))
        joint_pp = cross.cell_cross[1, 1] * mi_bundle.quantizer.cell_probs[1]
        expect = 0.25 + np.arcsin(rho) / (2 * np.pi)
        assert abs(joint_pp - expect) < 1e-10

    def test_nonnegative_and_symmetric(self, mi_bundle):
        for rho in (0.0, 0.3, 0.8):
            cross = build_cross_tables(mi_bundle, mi_bundle, JointGaussianPair(1, 1, rho))
            a = pairwise_mi(mi_bundle, mi_bundle, cross, (True,), (True,))
            b = pairwise_mi(mi_bundle, mi_bundle, cross, (True,), (True,))
            assert a >= 0
            assert abs(a - b) < 1e-15


class TestSelectMaxMi:
    def test_surviving_candidate_wins(self, tiny_bundle):
        rho = np.array([[1.0, 0.8, 0.8], [0.8, 1.0, 0.8], [0.8, 0.8, 1.0]])
        q = np.array([[True, True], [False, False], [True, True]])
        chosen, _ = select_one_trial(tiny_bundle, rho, q, "mutual_info")
        assert chosen[0] == 2  # candidate 1 lost everything

    def test_higher_rho_wins(self, tiny_bundle):
        rho = np.array([[1.0, 0.9, 0.2], [0.9, 1.0, 0.5], [0.2, 0.5, 1.0]])
        q = np.ones((3, 2), dtype=bool)
        chosen, _ = select_one_trial(tiny_bundle, rho, q, "mutual_info")
        assert chosen[0] == 1

    def test_tie_breaks_low(self, tiny_bundle):
        rho = np.array([[1.0, 0.7, 0.7], [0.7, 1.0, 0.7], [0.7, 0.7, 1.0]])
        q = np.ones((3, 2), dtype=bool)
        chosen, _ = select_one_trial(tiny_bundle, rho, q, "mutual_info")
        assert chosen[0] == 1


class TestPartialSiReconstruct:
    def test_uninformative_equals_no_si(self, tiny_bundle):
        cross = build_cross_tables(tiny_bundle, tiny_bundle, JointGaussianPair(1, 1, 0.0))
        oc_u = ChannelOutcome((1, 0), np.array([True, True]))
        oc_t = ChannelOutcome((None, None), np.array([False, False]))
        got = partial_si_reconstruct(oc_u, oc_t, tiny_bundle, tiny_bundle, cross)
        assert abs(got - decode(oc_u, None, None, tiny_bundle)) < 1e-9

    def test_equals_soft_si_with_own_channel_posterior(self, tiny_bundle):
        cross = build_cross_tables(tiny_bundle, tiny_bundle, JointGaussianPair(1, 1, 0.8))
        oc_u = ChannelOutcome((1, 0), np.array([True, True]))
        oc_t = ChannelOutcome((0, None), np.array([True, False]))
        npost = posterior(oc_t, None, None, tiny_bundle)
        sp = soft_si_posterior(oc_u, npost, cross, tiny_bundle.channels)
        expect = soft_si_reconstruct(sp, npost, cross)
        got = partial_si_reconstruct(oc_u, oc_t, tiny_bundle, tiny_bundle, cross)
        assert abs(got - expect) < 1e-9

    def test_noiseless_neighbor_indicator_equivalence(self, source, q4):
        ch = (
            DescriptionChannel.bsc(0.0, 0.05, 2),
            DescriptionChannel.bsc(0.0, 0.05, 2),
        )
        bundle = make_bundle(q4, lloyd_design(source, 8), np.eye(4), ch)
        cross = build_cross_tables(bundle, bundle, JointGaussianPair(1, 1, 0.8))
        oc_u = ChannelOutcome((0, 1), np.array([True, True]))
        oc_t = ChannelOutcome((1, 1), np.array([True, True]))
        indicator = np.zeros(4)
        indicator[3] = 1.0  # tuple (1,1)
        sp = soft_si_posterior(oc_u, Posterior(indicator), cross, ch)
        expect = soft_si_reconstruct(sp, Posterior(indicator), cross)
        got = partial_si_reconstruct(oc_u, oc_t, bundle, bundle, cross)
        assert abs(got - expect) < 1e-9


class TestSelectMinDistortion:
    def test_high_rho_candidate_wins(self, tiny_bundle):
        rho = np.array([[1.0, 0.9, 1e-9], [0.9, 1.0, 0.5], [1e-9, 0.5, 1.0]])
        q = np.ones((3, 2), dtype=bool)
        chosen, scores = select_one_trial(tiny_bundle, rho, q, "min_distortion")
        assert chosen[0] == 1
        assert scores[0, 1] < scores[0, 2]

    def test_intact_candidate_beats_lost(self, tiny_bundle):
        rho = np.array([[1.0, 0.8, 0.8], [0.8, 1.0, 0.8], [0.8, 0.8, 1.0]])
        q = np.array([[True, True], [False, False], [True, True]])
        chosen, _ = select_one_trial(tiny_bundle, rho, q, "min_distortion")
        assert chosen[0] == 2

    def test_expected_distortion_monte_carlo(self, tiny_bundle):
        # Analytic expectation vs simulation for one (Q_u, Q_t) pair.
        rho = 0.8
        cross = build_cross_tables(tiny_bundle, tiny_bundle, JointGaussianPair(1, 1, rho))
        q_u, q_t = (True, True), (True, False)
        analytic = expected_partial_si_distortion(tiny_bundle, cross, q_u, q_t)
        rng = np.random.default_rng(17)
        n = 60_000
        xu = rng.standard_normal(n)
        xt = rho * xu + np.sqrt(1 - rho**2) * rng.standard_normal(n)
        space = tuple_space(tiny_bundle.channels)
        hm = tiny_bundle.ia.hard_map()
        se = np.empty(n)
        for i in range(n):
            tid_u = hm[np.searchsorted(tiny_bundle.quantizer.thresholds, xu[i])]
            tid_t = hm[np.searchsorted(tiny_bundle.quantizer.thresholds, xt[i])]
            words = []
            for tid, q in ((tid_u, q_u), (tid_t, q_t)):
                w = []
                for m, ch in enumerate(tiny_bundle.channels):
                    if not q[m]:
                        w.append(None)
                        continue
                    j = space.component(m)[tid] ^ int(rng.random() < ch.bit_error_rate)
                    w.append(int(j))
                words.append(w)
            oc_u = ChannelOutcome(tuple(words[0]), np.array(q_u))
            oc_t = ChannelOutcome(tuple(words[1]), np.array(q_t))
            xhat = partial_si_reconstruct(oc_u, oc_t, tiny_bundle, tiny_bundle, cross)
            se[i] = (xu[i] - xhat) ** 2
        stderr = se.std(ddof=1) / np.sqrt(n)
        assert abs(se.mean() - analytic) < 3 * stderr


@st.composite
def selection_cases(draw):
    """A hard-assignment codec over 1-2 BSC descriptions and a few correlations."""
    K = draw(st.sampled_from([2, 4, 8]))
    channels = tuple(
        DescriptionChannel.bsc(draw(st.floats(0.0, 0.3)), draw(st.floats(0.0, 1.0)), n)
        for n in draw(st.lists(st.integers(2, 4), min_size=1, max_size=2))
    )
    L = int(np.prod([ch.index_count for ch in channels]))
    table = np.zeros((K, L))
    table[np.arange(K), draw(st.lists(st.integers(0, L - 1), min_size=K, max_size=K))] = 1.0
    source = GaussianSource()
    bundle = make_bundle(lloyd_design(source, K), lloyd_design(source, 4), table, channels)
    rhos = [0.0, *draw(st.lists(st.floats(0.0, 0.99), min_size=1, max_size=4))]
    return bundle, rhos


class TestScoreTables:
    """The batched score tables against one pair of loss patterns at a time."""

    @settings(max_examples=30, deadline=None)
    @given(case=selection_cases())
    def test_matches_per_pair_oracle(self, case):
        bundle, rhos = case
        patterns = loss_patterns(len(bundle.channels))
        stack = cross_table_stack(bundle, bundle, rhos)
        mi = score_tables(bundle, bundle, stack, "mutual_info")
        dist = score_tables(bundle, bundle, stack, "min_distortion")
        assert mi.shape == dist.shape == (len(rhos), len(patterns), len(patterns))
        for r, rho in enumerate(rhos):
            cross = build_cross_tables(bundle, bundle, JointGaussianPair(1, 1, rho))
            for iu, q_u in enumerate(patterns):
                for it, q_t in enumerate(patterns):
                    expect_mi = per_pair_mi(bundle, bundle, cross, q_u, q_t)
                    expect_d = per_pair_partial_si_distortion(bundle, cross, q_u, q_t)
                    assert abs(mi[r, iu, it] - expect_mi) <= 1e-13
                    assert abs(dist[r, iu, it] - expect_d) <= 1e-13
