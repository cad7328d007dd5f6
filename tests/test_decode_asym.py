import numpy as np

from mdquant import DescriptionChannel, JointGaussianPair, lloyd_design
from mdquant.channel import loss_patterns, tuple_space

from conftest import make_bundle, simpson_nodes, std_normal_pdf
from oracles import (
    ChannelOutcome,
    decode,
    joint_likelihood,
    mse_optimality_check,
    posterior,
    reconstruct,
    si_cell_mass_given_x,
)


def oracle_prior_and_centroids(bundle, rho, level):
    """Independent Simpson computation of P(I | SI level) and C(I | SI level)."""
    q = bundle.quantizer
    si = bundle.si_quantizer
    pair = JointGaussianPair(1, 1, rho)
    edges = np.clip(q.edges(), -9, 9)
    L = bundle.ia.n_tuples
    num = np.zeros(L)
    den = np.zeros(L)
    for cell in range(q.size):
        x, w = simpson_nodes(edges[cell], edges[cell + 1], 2001)
        mass = w * std_normal_pdf(x) * si_cell_mass_given_x(si, pair, x)[:, level]
        den += bundle.ia.table[cell] * mass.sum()
        num += bundle.ia.table[cell] * np.dot(mass, x)
    prior = den / den.sum()
    cent = np.where(den > 0, num / np.where(den > 0, den, 1.0), 0.0)
    return prior, cent


class TestPosterior:
    def test_noiseless_indicator(self, source, q4):
        ch = (
            DescriptionChannel.bsc(0.0, 0.05, 2),
            DescriptionChannel.bsc(0.0, 0.05, 2),
        )
        bundle = make_bundle(q4, lloyd_design(source, 8), np.eye(4), ch)
        oc = ChannelOutcome((1, 0), np.array([True, True]))
        post = posterior(oc, 3, 4, bundle)
        expect = np.zeros(4)
        expect[2] = 1.0  # tuple (1, 0) is id 2 in row-major order
        assert np.array_equal(post.probs, expect)

    def test_all_lost_returns_prior(self, tiny_bundle):
        oc = ChannelOutcome((None, None), np.array([False, False]))
        post = posterior(oc, 5, 4, tiny_bundle)
        prior = tiny_bundle.tables.prior[4, 5]
        assert np.max(np.abs(post.probs - prior / prior.sum())) < 1e-12

    def test_brute_force_bayes(self, tiny_bundle):
        # Full Bayes from first principles: independently computed prior
        # (Simpson quadrature) times explicitly enumerated channel likelihood.
        rho_level = 4  # ladder value 0.8
        rho = float(tiny_bundle.ladder.levels[rho_level])
        space = tuple_space(tiny_bundle.channels)
        for si_level in (0, 3, 7):
            prior, _ = oracle_prior_and_centroids(tiny_bundle, rho, si_level)
            for q in loss_patterns(2):
                j_lists = [
                    range(2) if q[m] else [None] for m in range(2)
                ]
                for j1 in j_lists[0]:
                    for j2 in j_lists[1]:
                        oc = ChannelOutcome((j1, j2), q)
                        lik = np.array(
                            [
                                joint_likelihood(
                                    oc.received,
                                    tuple(space.tuples[i]),
                                    q,
                                    tiny_bundle.channels,
                                )
                                for i in range(space.size)
                            ]
                        )
                        expect = lik * prior
                        expect /= expect.sum()
                        got = posterior(oc, si_level, rho_level, tiny_bundle).probs
                        assert np.max(np.abs(got - expect)) < 1e-9

    def test_rho_zero_si_equals_no_si(self, tiny_bundle):
        oc = ChannelOutcome((1, None), np.array([True, False]))
        base = posterior(oc, None, None, tiny_bundle)
        for level in range(tiny_bundle.si_quantizer.size):
            with_si = posterior(oc, level, 0, tiny_bundle)
            assert np.array_equal(with_si.probs, base.probs)


class TestReconstruct:
    def test_no_information_gives_prior_mean(self, tiny_bundle):
        oc = ChannelOutcome((None, None), np.array([False, False]))
        post = posterior(oc, None, None, tiny_bundle)
        assert abs(reconstruct(post, None, None, tiny_bundle)) < 1e-9

    def test_noiseless_returns_codebook_entry(self, source, q4):
        ch = (
            DescriptionChannel.bsc(0.0, 0.05, 2),
            DescriptionChannel.bsc(0.0, 0.05, 2),
        )
        bundle = make_bundle(q4, lloyd_design(source, 8), np.eye(4), ch)
        oc = ChannelOutcome((1, 1), np.array([True, True]))
        post = posterior(oc, 2, 4, bundle)
        got = reconstruct(post, 2, 4, bundle)
        assert got == bundle.tables.codebook[4, 2, 3]

    def test_lost_descriptions_track_si(self, source, q4):
        # With everything lost and fine SI, the estimate is the SI-cell
        # conditional mean, close to rho * centroid.
        si = lloyd_design(source, 128)
        ch = (
            DescriptionChannel.bsc(0.1, 0.1, 2),
            DescriptionChannel.bsc(0.1, 0.1, 2),
        )
        bundle = make_bundle(q4, si, np.eye(4), ch)
        oc = ChannelOutcome((None, None), np.array([False, False]))
        level = int(np.searchsorted(si.thresholds, 1.0))
        got = decode(oc, level, 4, bundle)
        assert abs(got - 0.8 * si.codewords[level]) < 0.02


class TestOptimality:
    def test_mse_optimality_check(self, tiny_bundle):
        assert mse_optimality_check(tiny_bundle, rho_level=4) < 1e-8

    def test_data_processing_order(self, tiny_bundle):
        # More received descriptions never hurt on average.
        rng = np.random.default_rng(0)
        n = 40_000
        x = rng.standard_normal(n)
        y = 0.8 * x + 0.6 * rng.standard_normal(n)
        cells = np.searchsorted(tiny_bundle.quantizer.thresholds, x)
        tids = tiny_bundle.ia.hard_map()[cells]
        si_levels = np.searchsorted(tiny_bundle.si_quantizer.thresholds, y)
        space = tuple_space(tiny_bundle.channels)
        words = np.empty((n, 2), dtype=int)
        for m, ch in enumerate(tiny_bundle.channels):
            idx = space.component(m)[tids]
            flips = rng.random((n, 1)) < ch.bit_error_rate
            words[:, m] = idx ^ flips[:, 0]
        errs = {}
        for q in ((True, True), (True, False), (False, False)):
            se = np.empty(n)
            for i in range(n):
                payloads = tuple(
                    int(words[i, m]) if q[m] else None for m in range(2)
                )
                oc = ChannelOutcome(payloads, np.array(q))
                se[i] = (x[i] - decode(oc, int(si_levels[i]), 4, tiny_bundle)) ** 2
            errs[q] = (se.mean(), se.std(ddof=1) / np.sqrt(n))
        d11, s11 = errs[(True, True)]
        d10, s10 = errs[(True, False)]
        d00, s00 = errs[(False, False)]
        assert d11 <= d10 + 3 * (s11 + s10)
        assert d10 <= d00 + 3 * (s10 + s00)

    def test_perturbed_decoder_strictly_worse(self, tiny_bundle):
        rng = np.random.default_rng(1)
        n = 100_000
        x = rng.standard_normal(n)
        y = 0.8 * x + 0.6 * rng.standard_normal(n)
        cells = np.searchsorted(tiny_bundle.quantizer.thresholds, x)
        tids = tiny_bundle.ia.hard_map()[cells]
        si_levels = np.searchsorted(tiny_bundle.si_quantizer.thresholds, y)
        space = tuple_space(tiny_bundle.channels)
        # Decode with both descriptions received, noiseless-index shortcut:
        # use the stored tables directly for speed.
        t = tiny_bundle.tables
        prior = t.prior[4][si_levels]  # (n, L)
        codebook = t.codebook[4][si_levels]
        from mdquant.channel import pattern_likelihood_tables

        pt = pattern_likelihood_tables(tiny_bundle.channels)[3]
        words = np.empty((n, 2), dtype=int)
        for m, ch in enumerate(tiny_bundle.channels):
            idx = space.component(m)[tids]
            flips = rng.random((n, 1)) < ch.bit_error_rate
            words[:, m] = idx ^ flips[:, 0]
        keys = words[:, 0] * 2 + words[:, 1]
        lik = pt.table[:, keys].T
        post = lik * prior
        post /= post.sum(axis=1, keepdims=True)
        xhat = np.sum(post * codebook, axis=1)
        mse = np.mean((x - xhat) ** 2)
        mse_pert = np.mean((x - (xhat + 0.01)) ** 2)
        assert mse_pert > mse
