from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mdquant import (
    AnnealingSchedule,
    DescriptionChannel,
    GaussianSource,
    IndexAssignment,
    JointGaussianPair,
    build_decoder_tables,
    design_annealed,
    evaluate_distortion,
    gibbs_update,
    harden,
    ia_entropy,
    lloyd_design,
)
from mdquant.channel import tuple_space
from mdquant import codec
from mdquant.codec import DesignContext, si_moment_matrices, si_moment_stack
from mdquant.gaussian import gauss_interval_moments
from mdquant.quantizer import quantizer_mse

from conftest import simpson_nodes, std_normal_pdf
from oracles import (
    da_weights,
    distortion_direct,
    flatten_tuples,
    per_pattern_design,
    si_cell_mass_given_x,
)


class TestIaEntropy:
    def test_hard_is_zero(self):
        ia = IndexAssignment(np.eye(4), hard=True)
        assert ia_entropy(ia, np.full(4, 0.25)) == 0.0

    def test_uniform_rows(self):
        ia = IndexAssignment(np.full((3, 4), 0.25))
        assert abs(ia_entropy(ia, np.array([0.2, 0.5, 0.3])) - 2.0) < 1e-12

    def test_double_sum_oracle(self):
        rng = np.random.default_rng(0)
        table = rng.dirichlet(np.ones(5), size=4)
        probs = rng.dirichlet(np.ones(4))
        ia = IndexAssignment(table)
        direct = -sum(
            probs[k] * table[k, i] * np.log2(table[k, i])
            for k in range(4)
            for i in range(5)
            if table[k, i] > 0
        )
        assert abs(ia_entropy(ia, probs) - direct) < 1e-12


class TestGibbsUpdate:
    def setup_method(self):
        rng = np.random.default_rng(1)
        self.weights = rng.uniform(0.0, 1.0, size=(5, 6))
        self.probs = rng.dirichlet(np.ones(5))

    def test_high_temperature_uniform(self):
        ia = gibbs_update(self.weights, 1e12, self.probs)
        assert np.max(np.abs(ia.table - 1.0 / 6.0)) < 1e-9

    def test_low_temperature_argmin(self):
        ia = gibbs_update(self.weights, 1e-14, self.probs)
        expect = np.zeros_like(self.weights)
        expect[np.arange(5), np.argmin(self.weights, axis=1)] = 1.0
        assert np.array_equal(ia.table, expect)

    def test_rows_normalized(self):
        for t in (1e-6, 0.3, 7.0, 1e4):
            ia = gibbs_update(self.weights, t, self.probs)
            assert np.max(np.abs(ia.table.sum(axis=1) - 1.0)) < 1e-12

    def test_permutation_equivariance(self):
        perm = np.array([3, 0, 5, 1, 4, 2])
        a = gibbs_update(self.weights, 0.7, self.probs).table
        b = gibbs_update(self.weights[:, perm], 0.7, self.probs).table
        assert np.allclose(a[:, perm], b, atol=1e-15)

    def test_rejects_nonpositive_temperature(self):
        with pytest.raises(ValueError):
            gibbs_update(self.weights, 0.0, self.probs)


class TestHarden:
    def test_identity_on_hard(self):
        ia = IndexAssignment(np.eye(3), hard=True)
        assert np.array_equal(harden(ia).table, ia.table)

    def test_argmax(self):
        ia = IndexAssignment(np.array([[0.6, 0.4]]))
        assert np.array_equal(harden(ia).table, [[1.0, 0.0]])

    def test_tie_breaks_low(self):
        ia = IndexAssignment(np.array([[0.5, 0.5]]))
        assert np.array_equal(harden(ia).table, [[1.0, 0.0]])


class TestSiMomentMatricesMarginalBranch:
    """SI that carries no information about X: exact marginal interval moments."""

    def marginal(self, q):
        p, m1, m2 = gauss_interval_moments(q.edges(), 0.0, 1.0)
        return p[:, None], m1[:, None], m2[:, None]

    def test_no_si_quantizer(self, q4):
        got = si_moment_matrices(q4, None, JointGaussianPair(1, 1, 0.8))
        for g, e in zip(got, self.marginal(q4)):
            assert g.shape == (4, 1)
            assert np.array_equal(g, e)

    def test_one_level_si_quantizer(self, source, q4):
        si = lloyd_design(source, 1)
        got = si_moment_matrices(q4, si, JointGaussianPair(1, 1, 0.8))
        for g, e in zip(got, self.marginal(q4)):
            assert g.shape == (4, 1)
            assert np.array_equal(g, e)

    def test_independent_si_weights_levels(self, source, q4):
        si = lloyd_design(source, 8)
        got = si_moment_matrices(q4, si, JointGaussianPair(1, 1, 0.0))
        for g, e in zip(got, self.marginal(q4)):
            assert g.shape == (4, 8)
            assert np.array_equal(g, e * si.cell_probs[None, :])


class TestSiMomentStack:
    """A batch of correlations equals one call per correlation, bit for bit."""

    @settings(max_examples=40, deadline=None)
    @given(
        K=st.sampled_from([2, 4, 16]),
        nsi=st.sampled_from([None, 1, 4, 16, 64]),
        rhos=st.lists(st.floats(0.0, 0.999), max_size=5),
        chunk=st.sampled_from([None, 300, 5_000]),
    )
    def test_equals_per_rho_calls(self, K, nsi, rhos, chunk):
        # A small chunk budget splits one correlation's nodes (300) or groups
        # a few correlations per chunk (5,000); neither may change a bit.
        rhos = [0.0, 0.99, *rhos, 0.0]
        q, si = _lloyd(K), None if nsi is None else _lloyd(nsi)
        expect = [si_moment_matrices(q, si, JointGaussianPair(1, 1, r)) for r in rhos]
        default = codec.MOMENT_CHUNK
        codec.MOMENT_CHUNK = chunk or default
        try:
            got = si_moment_stack(q, si, rhos)
        finally:
            codec.MOMENT_CHUNK = default
        for m in range(3):
            assert got[m].shape == (len(rhos), K, 1 if nsi is None else nsi)
            for r in range(len(rhos)):
                assert got[m][r].tobytes() == expect[r][m].tobytes(), (m, rhos[r])


class TestDecoderTables:
    def test_bijective_no_si(self, source, q4):
        ia = IndexAssignment(np.eye(4), hard=True)
        tables = build_decoder_tables(q4, None, ia, JointGaussianPair(1, 1, 0.0))
        assert np.allclose(tables.prior[0, 0], q4.cell_probs, atol=1e-12)
        assert np.allclose(tables.codebook[0, 0], q4.codewords, atol=1e-9)

    def test_priors_normalized(self, source, q4):
        si = lloyd_design(source, 16)
        ia = IndexAssignment(np.eye(4), hard=True)
        pairs = [JointGaussianPair(1, 1, r) for r in (0.0, 0.5, 0.9)]
        tables = build_decoder_tables(q4, si, ia, pairs)
        assert np.max(np.abs(tables.prior.sum(axis=2) - 1.0)) < 1e-9

    def test_binned_codebook_two_term_oracle(self, source, q4):
        # Cells 0 and 3 share tuple 0: codebook must be their SI-conditional
        # probability-weighted centroid.  Oracle by Simpson quadrature.
        si = lloyd_design(source, 8)
        pair = JointGaussianPair(1, 1, 0.8)
        table = np.zeros((4, 4))
        table[0, 0] = table[3, 0] = table[1, 1] = table[2, 2] = 1.0
        ia = IndexAssignment(table, hard=True)
        tables = build_decoder_tables(q4, si, ia, pair)
        edges = np.clip(q4.edges(), -9, 9)
        for level in (1, 4, 6):
            num = den = 0.0
            for cell in (0, 3):
                x, w = simpson_nodes(edges[cell], edges[cell + 1], 2001)
                mass = w * std_normal_pdf(x) * si_cell_mass_given_x(si, pair, x)[:, level]
                den += mass.sum()
                num += np.dot(mass, x)
            expect = num / den
            assert abs(tables.codebook[0, level, 0] - expect) < 1e-8


class TestEvaluateDistortion:
    def test_noiseless_bijective_equals_lloyd(self, source, q2):
        ia = IndexAssignment(np.eye(2), hard=True)
        ch = (DescriptionChannel.bsc(0.0, 0.0, 2),)
        d = evaluate_distortion(q2, None, ia, JointGaussianPair(1, 1, 0.0), ch)
        assert abs(d.d_av - quantizer_mse(q2, source)) < 1e-6
        assert d.d_ch == 0.0

    def test_all_loss_returns_variance(self, q2):
        ia = IndexAssignment(np.eye(2), hard=True)
        ch = (DescriptionChannel.bsc(0.0, 1.0, 2),)
        d = evaluate_distortion(q2, None, ia, JointGaussianPair(1, 1, 0.0), ch)
        assert abs(d.d_av - 1.0) < 1e-6

    def test_all_loss_one_tuple_has_no_channel_distortion(self, source, q4):
        # Every cell sends tuple 0 and every description is lost: the decoder
        # sees exactly what the encoder gives it, so d_ch is 0, not the ~1e-17
        # cancellation residue of its terms; a real loss stays far above
        # the D_CH_FLOOR share of E[x^2].
        ch = (DescriptionChannel.bsc(0.0, 1.0, 2), DescriptionChannel.bsc(0.0, 1.0, 2))
        si, pair = lloyd_design(source, 4), JointGaussianPair(1, 1, 0.5)
        collapsed = IndexAssignment(np.eye(4)[[0, 0, 0, 0]], hard=True)
        assert evaluate_distortion(q4, si, collapsed, pair, ch).d_ch == 0.0
        spread = IndexAssignment(np.eye(4), hard=True)
        assert evaluate_distortion(q4, si, spread, pair, ch).d_ch > 1e-3

    def test_awgn_rejected(self, q2):
        ia = IndexAssignment(np.eye(2), hard=True)
        ch = (DescriptionChannel.awgn(0.5, 0.0, 2),)
        with pytest.raises(ValueError, match="discrete channel"):
            evaluate_distortion(q2, None, ia, JointGaussianPair(1, 1, 0.0), ch)

    def test_decomposition_matches_single_pass(self, source, q4):
        si = lloyd_design(source, 16)
        pair = JointGaussianPair(1, 1, 0.8)
        ch = (
            DescriptionChannel.bsc(0.01, 0.05, 2),
            DescriptionChannel.bsc(0.01, 0.05, 2),
        )
        rng = np.random.default_rng(7)
        ctx = DesignContext(q4, si, pair, ch)
        for _ in range(5):
            table = rng.dirichlet(np.ones(4), size=4)
            split = ctx.distortion(table)
            direct = distortion_direct(ctx, table)
            assert abs(split.d_av - direct) < 1e-9

    def test_matches_monte_carlo(self, source):
        from mdquant.simulator import AsymConfig, run_asym_experiment
        from conftest import make_bundle

        q = lloyd_design(source, 4)
        si = lloyd_design(source, 16)
        ch = (
            DescriptionChannel.bsc(0.01, 0.05, 2),
            DescriptionChannel.bsc(0.01, 0.05, 2),
        )
        table = np.zeros((4, 4))
        table[0, 0] = table[1, 1] = table[2, 2] = table[3, 3] = 1.0
        bundle = make_bundle(q, si, table, ch)
        pair = JointGaussianPair(1, 1, 0.8)
        analytic = evaluate_distortion(q, si, bundle.ia, pair, ch).d_av
        res = run_asym_experiment(
            AsymConfig(bundle=bundle, rho_real=0.8, trials=200_000, seed=13)
        )
        assert abs(res.d_av - analytic) < 3 * res.stderr


class TestDaWeights:
    def make_ctx(self, source, q4, p=0.05, mu=0.1):
        si = lloyd_design(source, 8)
        pair = JointGaussianPair(1, 1, 0.8)
        ch = (
            DescriptionChannel.bsc(p, mu, 2),
            DescriptionChannel.bsc(p, mu, 2),
        )
        return DesignContext(q4, si, pair, ch)

    def test_total_loss_makes_weights_index_free(self, source, q4):
        si = lloyd_design(source, 8)
        pair = JointGaussianPair(1, 1, 0.8)
        ch = (
            DescriptionChannel.bsc(0.05, 1.0, 2),
            DescriptionChannel.bsc(0.05, 1.0, 2),
        )
        rng = np.random.default_rng(2)
        ia = IndexAssignment(rng.dirichlet(np.ones(4), size=4))
        w = da_weights(q4, si, ia, pair, ch)
        assert np.max(np.abs(w - w[:, :1])) < 1e-12

    def test_mirror_symmetry(self, source, q4):
        ctx = self.make_ctx(source, q4)
        space = tuple_space(ctx.channels)
        # Mirror: cell k -> K-1-k, each description index complemented.
        mirror_tuple = flatten_tuples(
            space, np.array([[1 - i1, 1 - i2] for i1, i2 in space.tuples])
        )
        rng = np.random.default_rng(3)
        a = rng.dirichlet(np.ones(4), size=4)
        a = 0.5 * (a + a[::-1][:, mirror_tuple])
        a /= a.sum(axis=1, keepdims=True)
        w = ctx.weights(ctx.decoder_state(a))
        w_mirror = w[::-1][:, mirror_tuple]
        assert np.max(np.abs(w - w_mirror)) < 1e-12

    def test_finite_difference_oracle(self, source, q4):
        ctx = self.make_ctx(source, q4)
        rng = np.random.default_rng(4)
        a = rng.dirichlet(np.ones(4), size=4)
        w = ctx.weights(ctx.decoder_state(a))

        def d_av(table):
            return distortion_direct(ctx, table)

        eps = 1e-5
        for k, i in ((0, 0), (1, 3), (2, 2), (3, 1)):
            up, dn = a.copy(), a.copy()
            up[k, i] += eps
            dn[k, i] -= eps
            fd = (d_av(up) - d_av(dn)) / (2 * eps)
            assert abs(fd - w[k, i]) < 1e-7 * max(1.0, abs(w[k, i]))


@lru_cache(maxsize=None)
def _lloyd(levels):
    return lloyd_design(GaussianSource(0.0, 1.0), levels)


def _with_ends(lo, hi):
    """Floats in [lo, hi] that also draw each end exactly."""
    return st.one_of(st.just(lo), st.just(hi), st.floats(lo, hi))


@st.composite
def design_cases(draw):
    """A random design context and a Dirichlet assignment table."""
    K = draw(st.integers(2, 8))
    channels = tuple(
        DescriptionChannel.bsc(draw(_with_ends(0.0, 0.5)), draw(_with_ends(0.0, 1.0)), n)
        for n in draw(st.lists(st.integers(2, 4), min_size=1, max_size=3))
    )
    nsi = draw(st.sampled_from([None, 2, 5, 8]))
    rho = draw(st.floats(0.0, 0.95))
    ctx = DesignContext(
        _lloyd(K), None if nsi is None else _lloyd(nsi), JointGaussianPair(1, 1, rho), channels
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return ctx, rng.dirichlet(np.ones(ctx.space.size), size=K)


class TestFusedStep:
    """The stacked loss-pattern products against the per-pattern loop."""

    @settings(max_examples=80, deadline=None)
    @given(case=design_cases())
    def test_matches_per_pattern_oracle(self, case):
        ctx, table = case
        state = ctx.decoder_state(table)
        split = ctx.distortion(table, state)
        weights = ctx.weights(state)
        d_se, d_ch, w_ref, xhat_ref = per_pattern_design(ctx, table)
        # d_ch is exactly 0 on a clean channel, so both parts are measured
        # against the total distortion.
        d_av = d_se + d_ch
        assert abs(split.d_se - d_se) <= 1e-13 * d_av
        assert abs(split.d_ch - d_ch) <= 1e-13 * d_av
        assert np.max(np.abs(weights - w_ref)) <= 1e-12 * np.max(np.abs(w_ref))
        blocks = np.split(state.xhat, ctx.offsets[1:-1])
        assert len(blocks) == len(xhat_ref)
        for got, ref in zip(blocks, xhat_ref):
            assert got.shape == ref.shape
            assert np.max(np.abs(got - ref)) <= 1e-13


class TestDeskDesignPin:
    def test_sym_setup_hard_map(self, source):
        # The acceptance suite's sym_setup codec (criteria 8 and 9); the map
        # was recorded from the per-pattern implementation of the step.
        q, si = lloyd_design(source, 16), lloyd_design(source, 64)
        ch = (DescriptionChannel.bsc(0.005, 0.05, 4),) * 2
        bundle = design_annealed(
            q, si, JointGaussianPair(1, 1, 0.4), ch,
            schedule=AnnealingSchedule(restarts=2), seed=7,
        )
        assert bundle.ia.hard_map().tolist() == [
            8, 8, 8, 10, 0, 2, 2, 14, 3, 15, 15, 13, 7, 5, 5, 5,
        ]


class TestDesignAnnealed:
    def test_tiny_reaches_exhaustive_optimum(self, source, q2):
        ch = (DescriptionChannel.bsc(0.0, 0.0, 2),)
        pair = JointGaussianPair(1, 1, 0.0)
        ctx = DesignContext(q2, None, pair, ch)
        best = min(
            ctx.distortion(np.array(t, dtype=float)).d_av
            for t in (
                [[1, 0], [1, 0]],
                [[1, 0], [0, 1]],
                [[0, 1], [1, 0]],
                [[0, 1], [0, 1]],
            )
        )
        bundle = design_annealed(
            q2, None, pair, ch, schedule=AnnealingSchedule(restarts=1), seed=1
        )
        assert abs(bundle.metadata["d_av"] - best) < 1e-6
        assert abs(best - quantizer_mse(q2, source)) < 1e-9

    def test_desk_scale_vs_exhaustive(self, source):
        from itertools import product

        q6 = lloyd_design(source, 6)
        si = lloyd_design(source, 32)
        pair = JointGaussianPair(1, 1, 0.8)
        ch = (
            DescriptionChannel.bsc(0.01, 0.05, 2),
            DescriptionChannel.bsc(0.01, 0.05, 2),
        )
        ctx = DesignContext(q6, si, pair, ch)
        best = np.inf
        for assign in product(range(4), repeat=6):
            table = np.zeros((6, 4))
            table[np.arange(6), list(assign)] = 1.0
            best = min(best, ctx.distortion(table).d_av)
        bundle = design_annealed(
            q6, si, pair, ch, schedule=AnnealingSchedule(restarts=1), seed=0
        )
        assert bundle.metadata["d_av"] <= 1.05 * best

    def test_metadata_and_reproducibility(self, source, q4):
        si = lloyd_design(source, 8)
        pair = JointGaussianPair(1, 1, 0.6)
        ch = (
            DescriptionChannel.bsc(0.02, 0.1, 2),
            DescriptionChannel.bsc(0.02, 0.1, 2),
        )
        sched = AnnealingSchedule(restarts=2)
        b1 = design_annealed(q4, si, pair, ch, schedule=sched, seed=5)
        b2 = design_annealed(q4, si, pair, ch, schedule=sched, seed=5)
        assert np.array_equal(b1.ia.table, b2.ia.table)
        assert b1.metadata == b2.metadata
        for key in ("t_init", "soft_d_av", "hardening_gap", "monotonicity_violations"):
            assert key in b1.metadata or key in b1.metadata.get("schedule", {})
        assert b1.ia.hard
