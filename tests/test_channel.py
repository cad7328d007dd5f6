import numpy as np
import pytest

from mdquant import DescriptionChannel, derive_rng
from mdquant.channel import (
    NOISE_PSD_MIN,
    loss_pattern_prob,
    loss_patterns,
    pattern_table,
    tuple_space,
)

from oracles import joint_likelihood, likelihood, sample_outcome


def bsc_pair(p=0.0, mu=0.05, n=8):
    return (
        DescriptionChannel.bsc(p, mu, n),
        DescriptionChannel.bsc(p, mu, n),
    )


class TestSampleOutcome:
    def test_certain_loss(self):
        channels = bsc_pair(mu=1.0)
        out = sample_outcome((3, 5), channels, derive_rng(0))
        assert not out.flags.any()
        assert out.received == (None, None)

    def test_noiseless_identity(self):
        channels = bsc_pair(p=0.0, mu=0.0)
        rng = derive_rng(1)
        for _ in range(50):
            out = sample_outcome((3, 5), channels, rng)
            assert out.received == (3, 5)

    def test_flip_rate_half(self):
        ch = (DescriptionChannel.bsc(0.5, 0.0, 8),)
        rng = derive_rng(2)
        trials = 100_000
        flips = 0
        for _ in range(trials):
            out = sample_outcome((0,), ch, rng)
            flips += bin(out.received[0]).count("1")
        rate = flips / (3 * trials)
        assert abs(rate - 0.5) < 0.01

    def test_out_of_range_index(self):
        with pytest.raises(ValueError):
            sample_outcome((9, 0), bsc_pair(), derive_rng(0))

    def test_loss_frequency_matches_pattern_prob(self):
        channels = (
            DescriptionChannel.bsc(0.0, 0.2, 4),
            DescriptionChannel.bsc(0.0, 0.4, 4),
        )
        rng = derive_rng(3)
        trials = 100_000
        counts = np.zeros(4)
        for _ in range(trials):
            out = sample_outcome((1, 2), channels, rng)
            counts[2 * out.flags[0] + out.flags[1]] += 1
        for idx, q in enumerate(loss_patterns(2)):
            p = loss_pattern_prob(q, channels)
            sigma = np.sqrt(p * (1 - p) / trials)
            assert abs(counts[idx] / trials - p) < 3.5 * sigma + 1e-12


class TestLossPatternProb:
    def test_both_received(self):
        assert abs(loss_pattern_prob((1, 1), bsc_pair(mu=0.05)) - 0.9025) < 1e-15

    def test_both_lost(self):
        assert abs(loss_pattern_prob((0, 0), bsc_pair(mu=0.05)) - 0.0025) < 1e-15

    def test_total_probability(self):
        channels = (
            DescriptionChannel.bsc(0.0, 0.13, 4),
            DescriptionChannel.bsc(0.0, 0.4, 8),
            DescriptionChannel.bsc(0.0, 0.77, 2),
        )
        total = sum(loss_pattern_prob(q, channels) for q in loss_patterns(3))
        assert abs(total - 1.0) < 1e-12


class TestLikelihood:
    def test_bsc_no_errors(self):
        ch = DescriptionChannel.bsc(0.01, 0.0, 8)
        assert abs(likelihood(5, 5, True, ch) - 0.99**3) < 1e-15

    def test_lost_branch(self):
        ch = DescriptionChannel.bsc(0.01, 0.5, 8)
        assert likelihood(None, 3, False, ch) == 1.0 / 8.0

    def test_bsc_normalization(self):
        ch = DescriptionChannel.bsc(0.3, 0.0, 8)
        for i in range(8):
            total = sum(likelihood(j, i, True, ch) for j in range(8))
            assert abs(total - 1.0) < 1e-12

    def test_awgn_normalization_constant_cancels(self):
        ch = DescriptionChannel.awgn(0.5, 0.0, 8)
        rng = derive_rng(4)
        recv = rng.normal(size=3)
        liks = np.array([likelihood(recv, i, True, ch) for i in range(8)])
        const = (np.pi * ch.noise_psd) ** (-ch.bits / 2)
        post_a = liks / liks.sum()
        post_b = (liks * const) / (liks * const).sum()
        assert np.max(np.abs(post_a - post_b)) < 1e-12

    def test_awgn_payload_shape_mismatch(self):
        ch = DescriptionChannel.awgn(0.5, 0.0, 8)
        with pytest.raises(ValueError):
            likelihood(np.zeros(2), 0, True, ch)
        with pytest.raises(ValueError):
            likelihood(0.5, 0, True, DescriptionChannel.bsc(0.1, 0.0, 8))

    @pytest.mark.parametrize("noise_psd", [0.0, -0.5, float("nan"), float("inf")])
    def test_awgn_rejects_non_positive_or_non_finite_noise(self, noise_psd):
        with pytest.raises(ValueError, match="positive and finite"):
            DescriptionChannel.awgn(noise_psd, 0.0, 8)

    def test_awgn_noise_floor_edge(self):
        assert DescriptionChannel.awgn(NOISE_PSD_MIN, 0.0, 8).noise_psd == NOISE_PSD_MIN
        with pytest.raises(ValueError, match="at least 1e-100"):
            DescriptionChannel.awgn(np.nextafter(NOISE_PSD_MIN, 0.0), 0.0, 8)

    def test_awgn_outcome_payload(self):
        ch = (DescriptionChannel.awgn(0.01, 0.0, 8),)
        rng = derive_rng(5)
        out = sample_outcome((5,), ch, rng)
        assert out.flags[0]
        assert out.received[0].shape == (3,)
        # Low noise: payload close to the BPSK pattern of index 5 (101).
        assert np.allclose(out.received[0], [-1.0, 1.0, -1.0], atol=0.5)


class TestJointLikelihood:
    def test_all_lost(self):
        channels = bsc_pair(mu=1.0)
        val = joint_likelihood((None, None), (3, 5), (False, False), channels)
        assert val == 1.0 / 64.0

    def test_noiseless_match(self):
        channels = bsc_pair(p=0.0, mu=0.0)
        assert joint_likelihood((3, 5), (3, 5), (True, True), channels) == 1.0

    def test_mixed_product_oracle(self):
        channels = (
            DescriptionChannel.bsc(0.02, 0.1, 8),
            DescriptionChannel.bsc(0.07, 0.1, 4),
        )
        got = joint_likelihood((6, None), (2, 1), (True, False), channels)
        expect = likelihood(6, 2, True, channels[0]) * likelihood(None, 1, False, channels[1])
        assert abs(got - expect) < 1e-18


class TestPatternTables:
    def test_rows_sum_to_one(self):
        channels = (
            DescriptionChannel.bsc(0.1, 0.05, 4),
            DescriptionChannel.bsc(0.25, 0.3, 8),
        )
        for q in loss_patterns(len(channels)):
            assert np.allclose(pattern_table(channels, q).sum(axis=1), 1.0, atol=1e-12)

    def test_matches_scalar_likelihood(self):
        channels = (
            DescriptionChannel.bsc(0.1, 0.05, 2),
            DescriptionChannel.bsc(0.2, 0.3, 2),
        )
        space = tuple_space(channels)
        q = (True, True)
        pt = pattern_table(channels, q)
        for tid in range(space.size):
            for j1 in range(2):
                for j2 in range(2):
                    expect = joint_likelihood(
                        (j1, j2), tuple(space.tuples[tid]), q, channels
                    )
                    assert abs(pt[tid, 2 * j1 + j2] - expect) < 1e-15


class TestTupleSpace:
    def test_computed_once(self):
        space = tuple_space(bsc_pair(n=4))
        assert space.tuples is space.tuples
        assert np.shares_memory(space.component(0), space.tuples)

    @pytest.mark.parametrize("m", [0, 1])
    def test_component_is_read_only(self, m):
        space = tuple_space(bsc_pair(n=4))
        with pytest.raises(ValueError, match="read-only"):
            space.component(m)[0] = 3
        assert space.tuples[0].tolist() == [0, 0]
