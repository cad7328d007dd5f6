import numpy as np
import pytest

from mdquant import RHO_LADDER, JointGaussianPair, quantize_rho
from mdquant.gaussian import gauss_interval_moments_batch

from conftest import simpson_nodes, std_normal_pdf
from oracles import SampleGrid, conditional_density, default_grid, integrate, x_marginal


class TestConditionalDensity:
    def test_moments_rho08(self):
        grid = default_grid()
        f = conditional_density(JointGaussianPair(1, 1, 0.8), 1.0, grid)
        mean = integrate(grid, grid.points * f)
        var = integrate(grid, (grid.points - mean) ** 2 * f)
        assert abs(mean - 0.8) < 1e-9
        assert abs(var - 0.36) < 1e-9

    def test_rho_zero_is_marginal_bit_identical(self):
        grid = default_grid()
        pair = JointGaussianPair(1, 1, 0.0)
        marginal = x_marginal(pair).pdf(grid.points)
        for y in (-3.0, 0.0, 3.0, 17.5):
            assert np.array_equal(conditional_density(pair, y, grid), marginal)

    def test_moments_rho05_by_quadrature(self):
        grid = default_grid()
        f = conditional_density(JointGaussianPair(1, 1, 0.5), -2.0, grid)
        mean = integrate(grid, grid.points * f)
        var = integrate(grid, (grid.points - mean) ** 2 * f)
        # Grid tails truncate ~4e-9 of conditional mass at this operating point.
        assert abs(mean - (-1.0)) < 1e-7
        assert abs(var - 0.75) < 1e-6

    def test_invalid_si_value(self):
        with pytest.raises(ValueError, match="invalid SI value"):
            conditional_density(JointGaussianPair(), np.nan, default_grid())

    def test_density_nonnegative_and_normalized(self):
        grid = default_grid()
        rng = np.random.default_rng(3)
        for _ in range(20):
            pair = JointGaussianPair(1, 1, float(rng.uniform(-0.95, 0.95)))
            y = float(rng.uniform(-2, 2))
            f = conditional_density(pair, y, grid)
            assert np.all(f >= 0)
            assert abs(integrate(grid, f) - 1.0) < 1e-6


class TestIntegrate:
    def test_normalization(self):
        grid = default_grid()
        assert abs(integrate(grid, std_normal_pdf(grid.points)) - 1.0) < 1e-6

    def test_odd_symmetry(self):
        grid = default_grid()
        val = integrate(grid, grid.points * std_normal_pdf(grid.points))
        assert abs(val) < 1e-9

    def test_second_moment(self):
        grid = default_grid()
        val = integrate(grid, grid.points**2 * std_normal_pdf(grid.points))
        assert abs(val - 1.0) < 1e-5

    def test_linearity(self):
        grid = default_grid()
        rng = np.random.default_rng(11)
        f = rng.standard_normal(grid.points.size)
        g = rng.standard_normal(grid.points.size)
        a, b = 1.7, -0.3
        lhs = integrate(grid, a * f + b * g)
        rhs = a * integrate(grid, f) + b * integrate(grid, g)
        assert abs(lhs - rhs) < 1e-12

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            integrate(default_grid(), np.ones(7))


class TestSampleGrid:
    def test_validation(self):
        with pytest.raises(ValueError):
            SampleGrid(np.array([0.0, 0.0, 1.0]), np.ones(3))
        with pytest.raises(ValueError):
            SampleGrid(np.array([0.0, 1.0]), np.array([1.0, -1.0]))

    def test_default_shape(self):
        grid = default_grid()
        assert grid.points.size == 1201
        assert grid.lo == -6.0 and grid.hi == 6.0


class TestQuantizeRho:
    def test_exact_hit(self):
        assert quantize_rho(0.0) == 0

    def test_nearest(self):
        assert RHO_LADDER[quantize_rho(0.79)] == 0.8

    def test_tie_breaks_low(self):
        idx = quantize_rho(0.5)  # equidistant between 0.4 and 0.6
        assert RHO_LADDER[idx] == 0.4

    def test_rejects_out_of_range(self):
        for bad in (-0.1, 1.5, np.nan, np.inf):
            with pytest.raises(ValueError):
                quantize_rho(bad)
            with pytest.raises(ValueError, match=r"\[0, 1\]"):
                quantize_rho(np.array([0.2, bad, 0.9]))

    def test_array_equals_scalar_calls(self):
        # Every level, every midpoint (a tie) and points between them.
        mids = (RHO_LADDER[1:] + RHO_LADDER[:-1]) / 2
        rho = np.concatenate([RHO_LADDER, mids, np.linspace(0.0, 1.0, 101)]).reshape(2, -1)
        got = quantize_rho(rho)
        assert got.shape == rho.shape
        assert got.tolist() == [[quantize_rho(float(v)) for v in row] for row in rho]
        assert isinstance(quantize_rho(0.5), int)

    def test_equals_argmin_over_the_ladder(self):
        # The running minimum keeps argmin's rule, the first of equal
        # distances: on random correlations, every level, 1, and each
        # midpoint with its neighbours one ulp either side.
        mids = (RHO_LADDER[1:] + RHO_LADDER[:-1]) / 2
        rho = np.concatenate([
            np.random.default_rng(0).random(2_000_000), RHO_LADDER, [1.0],
            mids, np.nextafter(mids, 0.0), np.nextafter(mids, 1.0),
        ])
        expect = np.concatenate([
            np.argmin(np.abs(RHO_LADDER - part[:, None]), axis=1)
            for part in np.array_split(rho, 20)
        ])
        assert np.array_equal(quantize_rho(rho), expect)


class TestIntervalMoments:
    def test_against_simpson(self):
        edges = np.array([-np.inf, -1.3, -0.2, 0.9, np.inf])
        mean, sd = 0.4, 1.3
        p, m1, m2 = gauss_interval_moments_batch(edges, mean, sd)
        fin = np.clip(edges, -12 * sd + mean, 12 * sd + mean)
        for k in range(4):
            x, w = simpson_nodes(fin[k], fin[k + 1], 4001)
            pdf = np.exp(-0.5 * ((x - mean) / sd) ** 2) / (sd * np.sqrt(2 * np.pi))
            assert abs(np.dot(w, pdf) - p[k]) < 1e-10
            assert abs(np.dot(w, x * pdf) - m1[k]) < 1e-10
            assert abs(np.dot(w, x**2 * pdf) - m2[k]) < 1e-9

    def test_batch_entries_equal_one_mean_calls(self):
        # Each row of a batch is what a call with that one mean and sd gives.
        edges = np.array([-np.inf, -1.3, -0.2, 0.9, np.inf])
        means = np.linspace(-2.0, 2.0, 7)
        sds = np.linspace(0.3, 1.5, 7)
        batch = gauss_interval_moments_batch(edges, means, sds)
        for i, (mean, sd) in enumerate(zip(means, sds)):
            one = gauss_interval_moments_batch(edges, float(mean), float(sd))
            for b, o in zip(batch, one):
                assert o.shape == (4,)
                assert b[i].tobytes() == o.tobytes()

    def test_totals(self):
        p, m1, m2 = gauss_interval_moments_batch(np.array([-np.inf, 0.0, np.inf]), 0.0, 1.0)
        assert abs(p.sum() - 1.0) < 1e-15
        assert abs(m1.sum()) < 1e-15
        assert abs(m2.sum() - 1.0) < 1e-15
        # Half-normal mean: E[X 1{X>0}] = 1/sqrt(2 pi)
        assert abs(m1[1] - 1.0 / np.sqrt(2 * np.pi)) < 1e-15
