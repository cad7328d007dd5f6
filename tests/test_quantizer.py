import hashlib

import numpy as np
import pytest
from scipy.special import ndtr

from mdquant import JointGaussianPair, lloyd_design

from conftest import simpson_nodes, std_normal_pdf
from oracles import (
    cell_probs_given_si,
    default_grid,
    integrate,
    quantizer_mse,
    si_conditional_density,
)

# SHA-256 of the little-endian float64 codewords, thresholds and cell
# probabilities of lloyd_design(K).  Every designed codec and decoder table
# starts from these quantizers, so they must not move by a bit.
LLOYD_SHA256 = {
    1: "fc62429c3e69001d65972cdeb94fb9aa18a7d9c16bc449e1e474e7e41bb95a7d",
    2: "0824d69a8576b9a91462739ab8e30e854379990676a960720f0778b3d30959a8",
    4: "1bb8043a5eb71b9145a06af3672919b5800958b4334b7802c46e33ecb5290e7e",
    16: "1ea2c96198e7e2447cebb572bd064b0e24b7b0d3dfc67fd395e580209fc74104",
    64: "06c0f0280cb6ca3eb0c2f483284957b8b2ab925e181366e842d2bee255cf8b74",
    128: "9a7c7fc190eda80fe681431391f4f10c5401c435b5d346da1465c68d65c55871",
    256: "6a24fca48fcefde2c388479b82413da58cffcb155e4c29c151635ae648bc99db",
    1024: "6edcd9bcb83c1cc1d5b3589337d9b8549e8cf9fa5f47fd4b7becf06bb916c13e",
}


class TestLloydDesign:
    @pytest.mark.parametrize("K", sorted(LLOYD_SHA256))
    def test_bit_pins(self, K):
        q = lloyd_design(K)
        digest = hashlib.sha256()
        for a in (q.codewords, q.thresholds, q.cell_probs):
            digest.update(np.ascontiguousarray(a, dtype="<f8").tobytes())
        assert digest.hexdigest() == LLOYD_SHA256[K]

    def test_k1(self):
        q = lloyd_design(1)
        assert q.codewords[0] == 0.0
        assert q.cell_probs[0] == 1.0

    def test_k2_closed_form(self, q2):
        half_normal_mean = np.sqrt(2.0 / np.pi)
        assert np.allclose(q2.codewords, [-half_normal_mean, half_normal_mean], atol=1e-9)
        assert abs(q2.thresholds[0]) < 1e-12

    def test_k2_mse_closed_form(self, q2):
        assert abs(quantizer_mse(q2) - (1.0 - 2.0 / np.pi)) < 1e-9

    def test_rejects_bad_k(self):
        with pytest.raises(ValueError):
            lloyd_design(0)

    def test_fixed_point_centroids(self):
        q = lloyd_design(64)
        from mdquant.gaussian import gauss_interval_moments_batch

        p, m1, _ = gauss_interval_moments_batch(q.edges(), 0.0, 1.0)
        assert np.max(np.abs(q.codewords - m1 / p)) < 1e-6


class TestCellOf:
    def test_negative_goes_low(self, q2):
        assert q2.cells(-1.0) == 0

    def test_boundary_goes_low(self, q2):
        assert q2.cells(q2.thresholds[0]) == 0
        assert np.array_equal(q2.cells(q2.thresholds), np.arange(q2.thresholds.size))

    def test_scan_oracle(self, q4):
        rng = np.random.default_rng(5)
        xs = np.concatenate((rng.uniform(-4, 4, 200), q4.thresholds))
        scan = [sum(1 for t in q4.thresholds if x > t) for x in xs]
        assert np.array_equal(q4.cells(xs), scan)
        assert np.array_equal(q4.cells(xs[:200].reshape(20, 10)), np.reshape(scan[:200], (20, 10)))


class TestCellProbsGivenSi:
    def test_independent_si(self, q4):
        got = cell_probs_given_si(q4, JointGaussianPair(1, 1, 0.0), 1.7)
        assert np.array_equal(got, q4.cell_probs)

    def test_k2_closed_form(self, q2):
        got = cell_probs_given_si(q2, JointGaussianPair(1, 1, 0.8), 1.0)
        # P(X > 0 | Y=1) with conditional N(0.8, 0.36).
        expect = ndtr(0.8 / 0.6)
        assert abs(got[1] - expect) < 1e-12
        assert abs(got.sum() - 1.0) < 1e-12

    def test_concentration_at_high_rho(self):
        q = lloyd_design(32)
        pair = JointGaussianPair(1, 1, 0.99)
        j = 20
        probs = cell_probs_given_si(q, pair, float(q.codewords[j]))
        assert np.argmax(probs) == j

    def test_marginalization_recovers_cell_probs(self, q4):
        pair = JointGaussianPair(1, 1, 0.8)
        y, w = simpson_nodes(-8, 8, 3201)
        acc = np.zeros(q4.size)
        for yi, wi in zip(y, w):
            acc += wi * std_normal_pdf(yi) * cell_probs_given_si(q4, pair, float(yi))
        assert np.max(np.abs(acc - q4.cell_probs)) < 1e-4


class TestSiConditionalDensity:
    def test_single_level_is_marginal(self, q4):
        q_si = lloyd_design(1)
        grid = default_grid()
        f = si_conditional_density(q_si, JointGaussianPair(1, 1, 0.8), 0, grid)
        assert np.allclose(f, std_normal_pdf(grid.points), atol=1e-12)

    def test_rho_zero_is_marginal(self):
        q_si = lloyd_design(16)
        grid = default_grid()
        for level in (0, 7, 15):
            f = si_conditional_density(q_si, JointGaussianPair(1, 1, 0.0), level, grid)
            assert np.allclose(f, std_normal_pdf(grid.points), atol=1e-12)

    def test_normalization(self):
        q_si = lloyd_design(128)
        grid = default_grid()
        pair = JointGaussianPair(1, 1, 0.8)
        for level in (0, 40, 64, 100, 127):
            f = si_conditional_density(q_si, pair, level, grid)
            assert abs(integrate(grid, f) - 1.0) < 1e-5

    def test_level_mean_tracks_conditional(self):
        q_si = lloyd_design(128)
        grid = default_grid()
        pair = JointGaussianPair(1, 1, 0.8)
        level = int(np.searchsorted(q_si.thresholds, 1.0))
        f = si_conditional_density(q_si, pair, level, grid)
        mean = integrate(grid, grid.points * f)
        centroid = q_si.codewords[level]
        assert abs(mean - 0.8 * centroid) < 0.02

    def test_fine_quantizer_convergence(self):
        q_si = lloyd_design(1024)
        grid = default_grid()
        pair = JointGaussianPair(1, 1, 0.8)
        for y in (-2.0, -0.5, 0.7, 2.0):
            level = int(np.searchsorted(q_si.thresholds, y))
            f = si_conditional_density(q_si, pair, level, grid)
            mean = integrate(grid, grid.points * f)
            assert abs(mean - 0.8 * y) < 0.01

    def test_degenerate_cell_error(self):
        q_si = lloyd_design(8)
        with pytest.raises(ValueError):
            si_conditional_density(q_si, JointGaussianPair(), 8, default_grid())
