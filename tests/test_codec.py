from functools import lru_cache

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mdquant import (
    DescriptionChannel,
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
from mdquant.channel import stacked_pattern_table, tuple_space
from mdquant import codec
from mdquant.codec import DesignContext, si_moment_matrices, si_moment_stack
from mdquant.gaussian import RHO_LADDER, gauss_interval_moments_batch
from mdquant.persist import load_codec, save_codec

from conftest import make_bundle, simpson_nodes, std_normal_pdf
from oracles import (
    da_weights,
    pairwise_decoder_tables,
    distortion_direct,
    flatten_tuples,
    gibbs_update_unclamped,
    ladder_tables,
    per_pattern_design,
    quantizer_mse,
    ranked_moment_stack,
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

    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        shape=st.tuples(st.integers(1, 12), st.integers(1, 40)),
        log_t=st.floats(-8.0, 2.0),
    )
    def test_clamp_equals_unclamped_softmax(self, seed, shape, log_t):
        # Weights spread over a few units at T down to 1e-8: most exponents
        # fall far below -708, where np.exp returns subnormals or 0.
        rng = np.random.default_rng(seed)
        weights = rng.uniform(0.0, 3.0, size=shape)
        probs = rng.dirichlet(np.ones(shape[0]))
        T = 10.0**log_t
        got = gibbs_update(weights, T, probs).table
        assert got.tobytes() == gibbs_update_unclamped(weights, T, probs).tobytes()

    def test_clamp_reaches_subnormal_exponents(self):
        # The case the clamp is for: a row with exponents between -745 and -708.
        weights = np.array([[0.0, 710.0, 720.0, 740.0, 800.0]])
        got = gibbs_update(weights, 1.0, [1.0]).table
        assert np.array_equal(got, [[1.0, 0.0, 0.0, 0.0, 0.0]])
        assert got.tobytes() == gibbs_update_unclamped(weights, 1.0, [1.0]).tobytes()


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
        p, m1, m2 = gauss_interval_moments_batch(q.edges(), 0.0, 1.0)
        return p[:, None], m1[:, None], m2[:, None]

    def test_one_level_si_quantizer(self, q4):
        si = lloyd_design(1)
        got = si_moment_matrices(q4, si, JointGaussianPair(1, 1, 0.8))
        for g, e in zip(got, self.marginal(q4)):
            assert g.shape == (4, 1)
            assert np.array_equal(g, e)

    def test_independent_si_weights_levels(self, q4):
        si = lloyd_design(8)
        got = si_moment_matrices(q4, si, JointGaussianPair(1, 1, 0.0))
        for g, e in zip(got, self.marginal(q4)):
            assert g.shape == (4, 8)
            assert np.array_equal(g, e * si.cell_probs[None, :])


class TestSiMomentStack:
    """A batch of correlations equals one call per correlation, bit for bit."""

    @settings(max_examples=40, deadline=None)
    @given(
        K=st.sampled_from([2, 4, 16]),
        nsi=st.sampled_from([1, 4, 16, 64]),
        rhos=st.lists(st.floats(0.0, 0.999), max_size=5),
        chunk=st.sampled_from([None, 300, 5_000]),
    )
    def test_equals_per_rho_calls(self, K, nsi, rhos, chunk):
        # A small chunk budget splits one correlation's nodes (300) or groups
        # a few correlations per chunk (5,000); neither may change a bit.
        rhos = [0.0, 0.99, *rhos, 0.0]
        q, si = _lloyd(K), _lloyd(nsi)
        expect = [si_moment_matrices(q, si, JointGaussianPair(1, 1, r)) for r in rhos]
        default = codec.MOMENT_CHUNK
        codec.MOMENT_CHUNK = chunk or default
        try:
            got = si_moment_stack(q, si, rhos)
        finally:
            codec.MOMENT_CHUNK = default
        for m in range(3):
            assert got[m].shape == (len(rhos), K, nsi)
            for r in range(len(rhos)):
                assert got[m][r].tobytes() == expect[r][m].tobytes(), (m, rhos[r])

    @settings(max_examples=40, deadline=None)
    @given(
        K=st.sampled_from([1, 2, 3, 16]),
        nsi=st.sampled_from([2, 3, 8, 64]),
        rhos=st.lists(st.floats(-0.999, 0.999), min_size=1, max_size=4),
        chunk=st.sampled_from([None, 16, 40, 300, 5_000]),
    )
    @example(K=1, nsi=8, rhos=[0.5], chunk=None)  # one cell, one correlation: single-entry slices
    @example(K=1, nsi=8, rhos=[0.5, 0.7], chunk=40)  # chunks of 40 nodes split levels
    @example(K=16, nsi=3, rhos=[0.9, -0.4], chunk=300)  # 18-node chunks, one correlation each
    def test_equals_rank_by_rank_oracle(self, K, nsi, rhos, chunk):
        # Each level's nodes in a chunk are one reduction; it must add them
        # in the order of one addition per node, from the level's running sum.
        q, si = _lloyd(K), _lloyd(nsi)
        with pytest.MonkeyPatch.context() as m:
            m.setattr(codec, "MOMENT_CHUNK", chunk or codec.MOMENT_CHUNK)
            got = si_moment_stack(q, si, rhos)
            expect = ranked_moment_stack(q, si, rhos)
        for g, e in zip(got, expect):
            assert g.tobytes() == e.tobytes()

    def test_unit_correlation_is_capped(self, q4):
        # At |rho| = 1 the conditional sd is 0; the cap keeps every moment finite.
        si = lloyd_design(8)
        got = si_moment_stack(q4, si, [1.0, -1.0])
        capped = si_moment_stack(q4, si, [codec.RHO_CAP, -codec.RHO_CAP])
        for g, c in zip(got, capped):
            assert np.all(np.isfinite(g))
            assert g.tobytes() == c.tobytes()

    @pytest.mark.parametrize("var_x,var_y", [(2.0, 1.0), (1.0, 0.5)])
    def test_non_unit_variances_rejected(self, q4, var_x, var_y):
        with pytest.raises(ValueError, match="unit-variance"):
            si_moment_matrices(q4, _lloyd(4), JointGaussianPair(var_x, var_y, 0.5))


def _assert_tables_equal(tables, expect):
    for name, ref in expect.items():
        got = getattr(tables, name)
        assert got.shape == ref.shape, name
        assert got.tobytes() == ref.tobytes(), name


def _unit_pairs(rhos):
    return [JointGaussianPair(1, 1, float(r)) for r in rhos]


class TestDecoderTables:
    def test_bijective_no_si(self, q4):
        ia = IndexAssignment(np.eye(4), hard=True)
        tables = build_decoder_tables(q4, _lloyd(1), ia, [0.0])
        assert np.allclose(tables.prior[0, 0], q4.cell_probs, atol=1e-12)
        assert np.allclose(tables.codebook[0, 0], q4.codewords, atol=1e-9)

    def test_priors_normalized(self, q4):
        si = lloyd_design(16)
        ia = IndexAssignment(np.eye(4), hard=True)
        tables = build_decoder_tables(q4, si, ia, [0.0, 0.5, 0.9])
        assert np.max(np.abs(tables.prior.sum(axis=2) - 1.0)) < 1e-9

    def test_binned_codebook_two_term_oracle(self, q4):
        # Cells 0 and 3 share tuple 0: codebook must be their SI-conditional
        # probability-weighted centroid.  Oracle by Simpson quadrature.
        si = lloyd_design(8)
        pair = JointGaussianPair(1, 1, 0.8)
        table = np.zeros((4, 4))
        table[0, 0] = table[3, 0] = table[1, 1] = table[2, 2] = 1.0
        ia = IndexAssignment(table, hard=True)
        tables = build_decoder_tables(q4, si, ia, [pair.rho])
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

    def test_one_moment_stack_in_this_process(self, q4, monkeypatch):
        # Every correlation without held moments comes from one batched
        # quadrature, run here: no fork_map.
        calls = []
        stack = codec.si_moment_stack
        monkeypatch.setattr(codec, "si_moment_stack", lambda *a: calls.append(a[2]) or stack(*a))
        monkeypatch.setattr(codec, "fork_map", None)
        ia = IndexAssignment(np.eye(4), hard=True)
        held = si_moment_stack(q4, _lloyd(8), [0.8])[:2]
        build_decoder_tables(q4, _lloyd(8), ia, RHO_LADDER, {0.8: [m[0] for m in held]})
        assert calls == [[0.2, 0.4, 0.6, 0.9, 0.95, 0.99]]


def random_hard_table(rng, K, L):
    """A K x L hard assignment table, each cell's tuple drawn uniformly."""
    table = np.zeros((K, L))
    table[np.arange(K), rng.integers(L, size=K)] = 1.0
    return table


class TestNoSiTablesMemoryOrder:
    # A designed assignment table is Fortran-ordered and a loaded one
    # C-ordered; the no-SI tables must not depend on which.
    def test_c_and_fortran_tables_give_the_same_bits(self):
        q = _lloyd(256)
        rng = np.random.default_rng(0)
        for _ in range(20):
            table = random_hard_table(rng, 256, 64)
            c_order = codec._nosi_tables(q, np.ascontiguousarray(table))
            f_order = codec._nosi_tables(q, np.asfortranarray(table))
            for c, f in zip(c_order, f_order, strict=True):
                assert c.tobytes() == f.tobytes()

    def test_loaded_codec_builds_the_designed_tables(self, tmp_path):
        table = np.asfortranarray(random_hard_table(np.random.default_rng(0), 256, 64))
        channels = (DescriptionChannel.bsc(0.01, 0.05, 8),) * 2
        designed = make_bundle(_lloyd(256), _lloyd(8), table, channels)
        save_codec(designed, tmp_path / "codec.json")
        loaded = load_codec(tmp_path / "codec.json")
        assert designed.ia.table.flags.f_contiguous and loaded.ia.table.flags.c_contiguous
        for name in ("prior", "codebook", "prior_nosi", "codebook_nosi"):
            got, expect = (getattr(ladder_tables(b), name) for b in (loaded, designed))
            assert got.tobytes() == expect.tobytes(), name


class TestDecoderTablesAgainstPairOracle:
    """The correlation-level build equals the pair-by-pair recipe bit for bit."""

    def test_tiny_codec(self, tiny_bundle):
        b = tiny_bundle
        expect = pairwise_decoder_tables(b.quantizer, b.si_quantizer, b.ia, _unit_pairs(RHO_LADDER))
        _assert_tables_equal(ladder_tables(b), expect)

    def test_designed_codec(self):
        q, si = lloyd_design(16), lloyd_design(32)
        ch = (DescriptionChannel.bsc(0.01, 0.05, 4),) * 2
        bundle = design_annealed(q, si, JointGaussianPair(1, 1, 0.7), ch, restarts=1, seed=3)
        expect = pairwise_decoder_tables(q, si, bundle.ia, _unit_pairs(RHO_LADDER))
        _assert_tables_equal(ladder_tables(bundle), expect)

    @pytest.mark.parametrize("nsi", [1, 8])
    def test_rho_zero_and_one_level_si(self, tiny_bundle, nsi):
        b = tiny_bundle
        rhos = [0.0, 0.45, 0.0, 0.9]
        tables = build_decoder_tables(b.quantizer, _lloyd(nsi), b.ia, rhos)
        expect = pairwise_decoder_tables(b.quantizer, _lloyd(nsi), b.ia, _unit_pairs(rhos))
        _assert_tables_equal(tables, expect)
        # Independent SI repeats the no-SI tables on every SI level.
        for name in ("prior", "codebook"):
            nosi = getattr(tables, f"{name}_nosi")
            assert getattr(tables, name)[0].tobytes() == np.tile(nosi, (nsi, 1)).tobytes()


def _assert_floor_clean(tables, quantizer, si_quantizer, ia):
    """Finite, normalized tables; prior and codebook 0 wherever the joint mass is floored."""
    for name in ("prior", "codebook", "prior_nosi", "codebook_nosi"):
        assert np.all(np.isfinite(getattr(tables, name))), name
    assert np.all(np.abs(tables.prior.sum(axis=2) - 1.0) <= 1e-9)
    assert abs(tables.prior_nosi.sum() - 1.0) <= 1e-9
    for r, rho in enumerate(tables.rho_values):
        if rho == 0.0:
            continue
        s0, _, _ = si_moment_stack(quantizer, si_quantizer, [rho])
        floored = (ia.table.T @ s0[0]).T <= codec.PROB_FLOOR  # (S, L)
        assert np.all(tables.prior[r][floored] == 0.0)
        assert np.all(tables.codebook[r][floored] == 0.0)


class TestDecoderTableFloors:
    """Numerical floors of the table build, at their edges."""

    def test_capped_unit_correlation(self):
        # At rho = RHO_CAP the conditional law is nearly a point mass: most
        # (SI level, tuple) joints fall to the floor.
        q, si = lloyd_design(16), lloyd_design(64)
        ia = IndexAssignment(np.eye(16), hard=True)
        tables = build_decoder_tables(q, si, ia, [codec.RHO_CAP, -codec.RHO_CAP, 1.0])
        _assert_floor_clean(tables, q, si, ia)
        assert tables.prior[0].tobytes() == tables.prior[2].tobytes()
        assert np.any(tables.prior[0] == 0.0)

    def test_unused_tuple_gets_prior_and_codebook_zero(self, q4):
        table = np.zeros((4, 6))
        table[[0, 1, 2, 3], [0, 2, 2, 5]] = 1.0  # tuples 1, 3 and 4 are never sent
        ia = IndexAssignment(table, hard=True)
        tables = build_decoder_tables(q4, _lloyd(8), ia, [0.0, 0.6, 0.99])
        _assert_floor_clean(tables, q4, _lloyd(8), ia)
        for name in ("prior", "codebook"):
            assert np.all(getattr(tables, name)[..., [1, 3, 4]] == 0.0)
            assert np.all(getattr(tables, f"{name}_nosi")[[1, 3, 4]] == 0.0)

    @pytest.mark.parametrize("ber,loss", [(0.01, 0.0), (0.01, 1.0), (0.5, 0.05)],
                             ids=["loss0", "loss1", "ber-half"])
    def test_designed_at_channel_edges(self, ber, loss):
        q, si = lloyd_design(8), lloyd_design(16)
        ch = (DescriptionChannel.bsc(ber, loss, 2),) * 2
        bundle = design_annealed(q, si, JointGaussianPair(1, 1, 0.8), ch, restarts=1, seed=2)
        _assert_floor_clean(ladder_tables(bundle), q, si, bundle.ia)


# Correlations of the moment-quadrature edge tests: every nonzero ladder
# level, then up to RHO_CAP.
LADDER_RHOS = [0.2, 0.4, 0.6, 0.8, 0.9, 0.95, 0.99]
NEAR_ONE_RHOS = [0.995, 0.999, codec.RHO_CAP]


@lru_cache(maxsize=None)
def _full_scale_s0(rho):
    """S0 of the full-scale quantizers (K = 256, nsi = 128) at one correlation."""
    return si_moment_stack(_lloyd(256), _lloyd(128), [rho])[0][0]


class TestMomentQuadratureEdges:
    """The moment quadrature at full scale, from rho 0 up to RHO_CAP."""

    @pytest.mark.parametrize("rho", [0.0, *LADDER_RHOS, *NEAR_ONE_RHOS])
    def test_tail_clip_keeps_si_cell_mass(self, rho):
        # Each column of S0 sums the joint over the quantizer cells, which
        # partition the line: P(SI level y).  The SI integral is clipped at
        # TAIL_CLIP standard deviations, and the mass it drops stays below
        # rounding at every correlation.
        col_err = np.max(np.abs(_full_scale_s0(rho).sum(axis=0) - _lloyd(128).cell_probs))
        assert col_err <= 7e-16

    @pytest.mark.parametrize("rho", [
        *LADDER_RHOS,
        pytest.param(0.999, marks=pytest.mark.xfail(strict=True, reason="row error 6.9e-10")),
        pytest.param(codec.RHO_CAP,
                     marks=pytest.mark.xfail(strict=True, reason="row error 7.4e-4")),
    ])
    def test_row_sums_equal_cell_probabilities(self, rho):
        # Each row of S0 sums over the SI levels: P(cell k).  Near rho = 1 the
        # conditional law of X is narrower than the panels of the SI
        # integral, and the quadrature loses accuracy: 7.1e-16 at 0.995,
        # 3.7e-12 at 0.998, 2.1e-6 at 0.9999.
        row_err = np.max(np.abs(_full_scale_s0(rho).sum(axis=1) - _lloyd(256).cell_probs))
        assert row_err <= 7e-16


class TestCleanMoments:
    """The 1e-14 moment clean-up (``codec._clean_moments``) at its edge."""

    PEAK = 0.25

    def test_entry_at_the_floor_is_dropped_and_one_above_kept(self):
        floor = 1e-14 * self.PEAK
        above = np.nextafter(floor, 1.0)
        s0 = np.array([[self.PEAK, floor, above]])
        c0, _, _ = codec._clean_moments(s0, np.ones_like(s0), np.ones_like(s0))
        assert c0.tolist() == [[self.PEAK, 0.0, above]]

    def test_moments_are_zeroed_together_and_s2_clipped(self):
        s0 = np.array([[self.PEAK, 1e-16, 1e-3]])
        s1 = np.array([[-0.5, 7e-17, -2e-3]])
        s2 = np.array([[0.4, -3e-19, -1e-20]])
        c0, c1, c2 = codec._clean_moments(s0, s1, s2)
        assert c0.tolist() == [[self.PEAK, 0.0, 1e-3]]
        assert c1.tolist() == [[-0.5, 0.0, -2e-3]]  # a kept first moment keeps its sign
        assert c2.tolist() == [[0.4, 0.0, 0.0]]

    def test_each_correlation_has_its_own_peak(self):
        # 5e-24 lies below the floor of a unit peak and above that of a 1e-10 one.
        s0 = np.array([[[1.0, 5e-24]], [[1e-10, 5e-24]]])
        c0, c1, c2 = codec._clean_moments(s0, s0.copy(), s0.copy())
        assert c0.tolist() == [[[1.0, 0.0]], [[1e-10, 5e-24]]]
        for r in range(2):
            one = codec._clean_moments(s0[r], s0[r], s0[r])
            for stacked, single in zip((c0, c1, c2), one):
                assert stacked[r].tobytes() == single.tobytes()


def _binned(K, L):
    """Hard assignment of cell k to tuple k mod L."""
    return IndexAssignment(np.eye(L)[np.arange(K) % L], hard=True)


class TestChannelEdges:
    """The analytic distortion at the channel edges: a clean channel and BER 0.5."""

    @pytest.mark.parametrize("K, nsi", [(8, 16), (16, 64)])
    @pytest.mark.parametrize("rho", [0.0, 0.8, 0.99])
    def test_clean_channel_has_no_channel_distortion(self, K, nsi, rho):
        # At BER 0 and loss 0 the decoder reconstructs each tuple's own
        # centroid, and the terms of d_ch cancel to a ~1e-17 residue that
        # D_CH_FLOOR reads as 0.
        ch = (DescriptionChannel.bsc(0.0, 0.0, 2),) * 2
        d = evaluate_distortion(_lloyd(K), _lloyd(nsi), _binned(K, 4),
                                JointGaussianPair(1, 1, rho), ch)
        assert d.d_ch == 0.0
        assert d.d_av == d.d_se

    @pytest.mark.parametrize("K, L", [(8, 4), (16, 4), (16, 16)])
    @pytest.mark.parametrize("rho", [0.0, 0.8, 0.99])
    def test_ber_half_is_total_loss(self, K, L, rho):
        # At BER 0.5 every received word is independent of the tuple sent,
        # so the decoder has only the SI, as when every description is lost.
        n = int(np.sqrt(L))
        pair = JointGaussianPair(1, 1, rho)
        si = _lloyd(64)
        half = evaluate_distortion(_lloyd(K), si, _binned(K, L), pair,
                                   (DescriptionChannel.bsc(0.5, 0.05, n),) * 2)
        lost = evaluate_distortion(_lloyd(K), si, _binned(K, L), pair,
                                   (DescriptionChannel.bsc(0.01, 1.0, n),) * 2)
        assert abs(half.d_av - lost.d_av) <= 1e-15


class TestEvaluateDistortion:
    def test_noiseless_bijective_equals_lloyd(self, q2):
        ia = IndexAssignment(np.eye(2), hard=True)
        ch = (DescriptionChannel.bsc(0.0, 0.0, 2),)
        d = evaluate_distortion(q2, _lloyd(1), ia, JointGaussianPair(1, 1, 0.0), ch)
        assert abs(d.d_av - quantizer_mse(q2)) < 1e-6
        assert d.d_ch == 0.0

    def test_all_loss_returns_variance(self, q2):
        ia = IndexAssignment(np.eye(2), hard=True)
        ch = (DescriptionChannel.bsc(0.0, 1.0, 2),)
        d = evaluate_distortion(q2, _lloyd(1), ia, JointGaussianPair(1, 1, 0.0), ch)
        assert abs(d.d_av - 1.0) < 1e-6

    def test_all_loss_one_tuple_has_no_channel_distortion(self, q4):
        # Every cell sends tuple 0 and every description is lost: the decoder
        # sees exactly what the encoder gives it, so d_ch is 0, not the ~1e-17
        # cancellation residue of its terms; a real loss stays far above
        # the D_CH_FLOOR share of E[x^2].
        ch = (DescriptionChannel.bsc(0.0, 1.0, 2), DescriptionChannel.bsc(0.0, 1.0, 2))
        si, pair = lloyd_design(4), JointGaussianPair(1, 1, 0.5)
        collapsed = IndexAssignment(np.eye(4)[[0, 0, 0, 0]], hard=True)
        assert evaluate_distortion(q4, si, collapsed, pair, ch).d_ch == 0.0
        spread = IndexAssignment(np.eye(4), hard=True)
        assert evaluate_distortion(q4, si, spread, pair, ch).d_ch > 1e-3

    def test_awgn_rejected(self, q2):
        ia = IndexAssignment(np.eye(2), hard=True)
        ch = (DescriptionChannel.awgn(0.5, 0.0, 2),)
        with pytest.raises(ValueError, match="discrete channel"):
            evaluate_distortion(q2, _lloyd(1), ia, JointGaussianPair(1, 1, 0.0), ch)

    def test_decomposition_matches_single_pass(self, q4):
        si = lloyd_design(16)
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

    def test_matches_monte_carlo(self):
        from mdquant.simulator import AsymConfig, run_asym_experiment
        from conftest import make_bundle

        q = lloyd_design(4)
        si = lloyd_design(16)
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
            AsymConfig(bundle=bundle, rho_real=0.8, trials=200_000, seed=13), [bundle.channels]
        )[0]
        assert abs(res.d_av - analytic) < 3 * res.stderr


@st.composite
def lookup_stacks(draw):
    """A stacked pattern table of 1-3 BSC descriptions and an (R, L, 2S) moment stack.

    Some tuples carry no mass, so some word rows take the masked path.
    """
    channels = tuple(
        DescriptionChannel.bsc(draw(st.sampled_from([0.0, 0.01, 0.2])), 0.0, n)
        for n in draw(st.lists(st.integers(2, 4), min_size=1, max_size=3))
    )
    stacked, offsets = stacked_pattern_table(channels)
    R, S = draw(st.integers(1, 5)), draw(st.sampled_from([1, 2, 3, 16, 64]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    moments = rng.random((R, stacked.shape[0], 2 * S))
    moments[:, rng.random(stacked.shape[0]) < 0.3] = 0.0
    return stacked, offsets, moments


class TestPatternLookups:
    """The per-word lookup and its per-pattern sums take leading axes."""

    @settings(max_examples=60, deadline=None)
    @given(case=lookup_stacks())
    def test_stack_equals_each_two_dimensional_call(self, case):
        stacked, offsets, moments = case
        stack = codec.pattern_lookups(stacked, moments)
        for r in range(moments.shape[0]):
            for got, want in zip(stack, codec.pattern_lookups(stacked, moments[r])):
                assert np.array_equal(got[r], want)

    @settings(max_examples=60, deadline=None)
    @given(case=lookup_stacks())
    def test_pattern_sums_add_rows_then_each_patterns_rows(self, case):
        stacked, offsets, moments = case
        den, num, xhat = codec.pattern_lookups(stacked, moments)
        terms = xhat * (xhat * den - 2.0 * num)
        sums = codec.pattern_sums(terms, offsets)
        assert sums.shape == (moments.shape[0], offsets.size - 1)
        for r in range(moments.shape[0]):
            rows = np.sum(terms[r], axis=1)
            expect = [rows[a:b].sum() for a, b in zip(offsets, offsets[1:])]
            assert np.array_equal(sums[r], expect)
            assert np.array_equal(codec.pattern_sums(terms[r], offsets), expect)


class TestDaWeights:
    def make_ctx(self, q4, p=0.05, mu=0.1):
        si = lloyd_design(8)
        pair = JointGaussianPair(1, 1, 0.8)
        ch = (
            DescriptionChannel.bsc(p, mu, 2),
            DescriptionChannel.bsc(p, mu, 2),
        )
        return DesignContext(q4, si, pair, ch)

    def test_total_loss_makes_weights_index_free(self, q4):
        si = lloyd_design(8)
        pair = JointGaussianPair(1, 1, 0.8)
        ch = (
            DescriptionChannel.bsc(0.05, 1.0, 2),
            DescriptionChannel.bsc(0.05, 1.0, 2),
        )
        rng = np.random.default_rng(2)
        ia = IndexAssignment(rng.dirichlet(np.ones(4), size=4))
        w = da_weights(q4, si, ia, pair, ch)
        assert np.max(np.abs(w - w[:, :1])) < 1e-12

    def test_mirror_symmetry(self, q4):
        ctx = self.make_ctx(q4)
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

    def test_finite_difference_oracle(self, q4):
        ctx = self.make_ctx(q4)
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
    return lloyd_design(levels)


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
    nsi = draw(st.sampled_from([1, 2, 5, 8]))
    rho = draw(st.floats(0.0, 0.95))
    ctx = DesignContext(_lloyd(K), _lloyd(nsi), JointGaussianPair(1, 1, rho), channels)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return ctx, rng.dirichlet(np.ones(ctx.space.size), size=K)


class TestFusedStep:
    """The stacked loss-pattern products against the per-pattern loop."""

    @settings(max_examples=80, deadline=None)
    @given(case=design_cases())
    def test_matches_per_pattern_oracle(self, case):
        ctx, table = case
        state = ctx.decoder_state(table)
        split = ctx.distortion(table)
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


@lru_cache(maxsize=None)
def _desk_context(K, counts, bsc, loss, nsi, rho):
    channels = tuple(DescriptionChannel.bsc(bsc, loss, n) for n in counts)
    return DesignContext(_lloyd(K), _lloyd(nsi), JointGaussianPair(1, 1, rho), channels)


@st.composite
def desk_tables(draw):
    """A desk-sized design context and a row-stochastic table, some entries possibly 0."""
    ctx = _desk_context(
        draw(st.sampled_from([4, 16])),
        tuple(draw(st.lists(st.sampled_from([2, 4]), min_size=1, max_size=3))),
        draw(st.sampled_from([0.0, 0.005])),
        draw(st.sampled_from([0.0, 0.05, 0.3])),
        draw(st.sampled_from([1, 16, 64])),
        draw(st.sampled_from([0.0, 0.8])),
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    K, L = ctx.quantizer.size, ctx.space.size
    table = rng.dirichlet(np.ones(L), size=K)
    # Zero a share of the entries (each row keeps its largest), as cold Gibbs
    # tables and hard tables do, so masked words and tuples are covered.
    drop = rng.random((K, L)) < draw(st.sampled_from([0.0, 0.5, 1.0]))
    drop[np.arange(K), table.argmax(axis=1)] = False
    table[drop] = 0.0
    return ctx, table / table.sum(axis=1, keepdims=True)


class TestDistortionFromWeights:
    """The annealing loop reads each step's d_av as sum table * weights."""

    @settings(max_examples=150, deadline=None)
    @given(case=desk_tables())
    def test_vdot_with_own_weights_is_distortion(self, case):
        ctx, table = case
        d_av = ctx.distortion(table).d_av
        got = np.vdot(table, ctx.weights(ctx.decoder_state(table)))
        assert abs(got - d_av) <= 1e-12 * d_av


class TestDistortionSplit:
    """d_av = d_se + d_ch, with d_se the distortion over error-free, lossless channels."""

    @settings(max_examples=100, deadline=None)
    @given(case=desk_tables())
    def test_parts_are_nonnegative_and_d_se_is_the_error_free_d_av(self, case):
        ctx, table = case
        d = ctx.distortion(table)
        assert d.d_se >= 0.0 and d.d_ch >= 0.0
        counts = tuple(ch.index_count for ch in ctx.channels)
        error_free = _desk_context(
            ctx.quantizer.size, counts, 0.0, 0.0, ctx.si_quantizer.size, ctx.pair.rho
        )
        d_av = error_free.distortion(table).d_av
        assert abs(d_av - d.d_se) <= 1e-12 * d.d_se


class TestDeskDesignPin:
    # The acceptance suite's sym_setup codec (criteria 8 and 9).  Its two
    # restarts reach relabelings of one table; restart 1's, recorded from
    # the per-pattern implementation of the step, came out 1.3e-15 lower,
    # and since tied restarts keep the first (codec.RESTART_TIE_RTOL) the
    # design keeps restart 0's.
    OLD_MAP = [8, 8, 8, 10, 0, 2, 2, 14, 3, 15, 15, 13, 7, 5, 5, 5]
    MAP = [10, 10, 10, 8, 2, 0, 0, 12, 1, 13, 13, 15, 5, 7, 7, 7]

    @staticmethod
    def _setup():
        ch = (DescriptionChannel.bsc(0.005, 0.05, 4),) * 2
        return lloyd_design(16), lloyd_design(64), JointGaussianPair(1, 1, 0.4), ch

    def test_sym_setup_hard_map(self):
        bundle = design_annealed(*self._setup(), restarts=2, seed=7)
        assert bundle.ia.hard_map().tolist() == self.MAP
        assert bundle.metadata["best_restart"] == 0

    def test_old_map_is_a_tie(self):
        q, si, pair, ch = self._setup()
        d_av = []
        for hard_map in (self.OLD_MAP, self.MAP):
            table = np.zeros((16, 16))
            table[np.arange(16), hard_map] = 1.0
            d_av.append(evaluate_distortion(q, si, IndexAssignment(table, hard=True), pair, ch).d_av)
        assert abs(d_av[0] - d_av[1]) <= 1e-12 * d_av[1]


class TestDesignAnnealed:
    def test_tiny_reaches_exhaustive_optimum(self, q2):
        ch = (DescriptionChannel.bsc(0.0, 0.0, 2),)
        pair = JointGaussianPair(1, 1, 0.0)
        ctx = DesignContext(q2, _lloyd(1), pair, ch)
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
            q2, _lloyd(1), pair, ch, restarts=1, seed=1
        )
        assert abs(bundle.metadata["d_av"] - best) < 1e-6
        assert abs(best - quantizer_mse(q2)) < 1e-9

    def test_desk_scale_vs_exhaustive(self):
        from itertools import product

        q6 = lloyd_design(6)
        si = lloyd_design(32)
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
            q6, si, pair, ch, restarts=1, seed=0
        )
        assert bundle.metadata["d_av"] <= 1.05 * best

    @pytest.mark.parametrize("var_x,var_y", [(2.0, 1.0), (1.0, 0.5)])
    def test_non_unit_variances_rejected(self, q4, var_x, var_y):
        ch = (DescriptionChannel.bsc(0.01, 0.05, 2),) * 2
        with pytest.raises(ValueError, match="unit-variance"):
            design_annealed(q4, _lloyd(4), JointGaussianPair(var_x, var_y, 0.5), ch, restarts=1)

    def test_metadata_and_reproducibility(self, q4):
        si = lloyd_design(8)
        pair = JointGaussianPair(1, 1, 0.6)
        ch = (
            DescriptionChannel.bsc(0.02, 0.1, 2),
            DescriptionChannel.bsc(0.02, 0.1, 2),
        )
        b1 = design_annealed(q4, si, pair, ch, restarts=2, seed=5)
        b2 = design_annealed(q4, si, pair, ch, restarts=2, seed=5)
        assert np.array_equal(b1.ia.table, b2.ia.table)
        assert b1.metadata == b2.metadata
        for key in ("t_init", "soft_d_av", "hardening_gap", "monotonicity_violations"):
            assert key in b1.metadata or key in b1.metadata.get("schedule", {})
        assert b1.ia.hard
