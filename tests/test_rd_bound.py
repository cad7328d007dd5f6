import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mdquant import BoundQuery, beta, central_bound, min_avg_distortion
from mdquant.rd_bound import GRID_N, MAX_RATE_SUM_BITS, _axis, _central, side_bounds

from oracles import alternate_bound_db


def q(r1, r2, rho, mu1, mu2=None):
    return BoundQuery(r1=r1, r2=r2, rho=rho, mu1=mu1, mu2=mu1 if mu2 is None else mu2)


class TestBeta:
    def test_rho_08(self):
        assert abs(beta(q(1, 1, 0.8, 0.05)) - 0.36) < 1e-15

    def test_rho_zero(self):
        assert beta(q(1, 1, 0.0, 0.05)) == 1.0

    def test_rho_099(self):
        assert abs(beta(q(1, 1, 0.99, 0.05)) - 0.0199) < 1e-15


class TestCentralBound:
    def test_symbolic_re_derivation(self):
        query = q(2.0, 2.5, 0.8, 0.05)
        b = 0.36
        d1, d2 = 0.05, 0.08
        got = central_bound(query, d1, d2)
        pi = (1 - d1 / b) * (1 - d2 / b)
        delta = d1 * d2 / b**2 - 2.0 ** (-2 * 4.5)
        expect = b * 2.0 ** (-2 * 4.5) / (1 - (np.sqrt(pi) - np.sqrt(delta)) ** 2)
        assert abs(got - expect) < 1e-15

    def test_zero_rates(self):
        query = q(0.0, 0.0, 0.8, 0.05)
        b = beta(query)
        assert abs(central_bound(query, b, b) - b) < 1e-12

    def test_monotone_in_rate(self):
        d1 = d2 = 0.2
        prev = np.inf
        for r in np.linspace(1.0, 3.0, 15):
            val = central_bound(q(r, 2.0, 0.8, 0.05), d1, d2)
            assert val <= prev + 1e-15
            prev = val

    def test_infeasible_inputs_rejected(self):
        query = q(2.0, 2.0, 0.8, 0.05)
        with pytest.raises(ValueError):
            central_bound(query, 1e-6, 0.2)
        # Far above beta the corner's denominator is exactly 0 (pi = 4, delta = 9).
        query = q(30.0, 30.0, 0.8, 0.05)
        with pytest.raises(ValueError, match="outside achievable region"):
            central_bound(query, 3 * beta(query), 3 * beta(query))

    @pytest.mark.parametrize("rate", [2.0, 28.0, MAX_RATE_SUM_BITS / 2])
    def test_region_edges_scale_with_the_side_bounds(self, rate):
        # At R = 28 the side bounds are about 1e-17, below any absolute
        # tolerance; a point below them is rejected at every rate.
        query = q(rate, rate, 0.5, 0.1)
        b = beta(query)
        d_min, _ = side_bounds(query)
        for d1 in (0.0, d_min * (1 - 1e-9)):
            with pytest.raises(ValueError, match="outside achievable region"):
                central_bound(query, d1, 0.5)
            with pytest.raises(ValueError, match="outside achievable region"):
                central_bound(query, 0.5, d1)
        # The grid path: delta below 0 by a share of 2^(-2 (R1 + R2)).
        assert not _central(b, 2 * rate, 0.0, 0.5)[1]
        assert not _central(b, 2 * rate, d_min * (1 - 1e-9), d_min)[1]
        assert _central(b, 2 * rate, d_min, d_min)[1]
        assert math.isfinite(central_bound(query, d_min, d_min))
        assert math.isfinite(central_bound(query, d_min, 0.5))


REFERENCE_LOSS_SWEEP = [
    (0.3, 2.265, 2.269, -13.758),
    (0.2, 2.28, 2.259, -16.365),
    (0.1, 2.276, 2.271, -19.896),
    (0.05, 2.321, 2.319, -22.608),
    (0.02, 2.389, 2.498, -25.751),
    (0.01, 2.459, 2.53, -27.622),
    (0.005, 2.635, 2.546, -29.676),
]

REFERENCE_RHO_SWEEP = [
    (0.0, 2.80, 2.81, -20.509),
    (0.6, 2.54, 2.53, -21.188),
    (0.8, 2.32, 2.32, -22.608),
    (0.95, 2.20, 2.22, -27.689),
]


class TestMinAvgDistortion:
    @pytest.mark.parametrize("mu,r1,r2,expect_db", REFERENCE_LOSS_SWEEP)
    def test_loss_sweep_reference(self, mu, r1, r2, expect_db):
        res = min_avg_distortion(q(r1, r2, 0.8, mu))
        assert abs(res.d_min_db - expect_db) <= 0.05

    @pytest.mark.parametrize("rho,r1,r2,expect_db", REFERENCE_RHO_SWEEP)
    def test_rho_sweep_reference(self, rho, r1, r2, expect_db):
        res = min_avg_distortion(q(r1, r2, rho, 0.05))
        assert abs(res.d_min_db - expect_db) <= 0.05

    def test_total_loss_returns_beta(self):
        query = q(2.0, 2.0, 0.8, 1.0, 1.0)
        res = min_avg_distortion(query)
        assert abs(res.d_min - beta(query)) < 1e-15

    def test_monotone_in_loss(self):
        prev = -np.inf
        for mu in (0.0, 0.02, 0.05, 0.1, 0.3, 0.7, 1.0):
            val = min_avg_distortion(q(2.3, 2.3, 0.8, mu)).d_min
            assert val >= prev - 1e-12
            prev = val

    def test_monotone_in_rate(self):
        prev = np.inf
        for r in (1.0, 1.5, 2.0, 2.5, 3.0):
            val = min_avg_distortion(q(r, r, 0.8, 0.05)).d_min
            assert val <= prev + 1e-12
            prev = val

    def test_refinement_never_worse_than_grid(self):
        query = q(2.321, 2.319, 0.8, 0.05)
        refined = min_avg_distortion(query).d_min
        from mdquant.rd_bound import _loss_average

        b = beta(query)
        d1_min, d2_min = side_bounds(query)
        d1, d2 = _axis(d1_min, b), _axis(d2_min, b)
        grid_best = min(
            _loss_average(query, a, c, central_bound(query, a, c))
            for a in d1[::9]
            for c in d2[::9]
        )
        assert refined <= grid_best + 1e-15

    def test_alternate_variants_miss_reference(self):
        # The printed-as-is weighting and the natural-base excess term (test
        # oracles) do not reproduce the reference column; the oracle's grid
        # minimum under the package's own reading does.
        query = q(2.321, 2.319, 0.8, 0.05)
        assert abs(alternate_bound_db(query) - min_avg_distortion(query).d_min_db) < 1e-3
        literal = alternate_bound_db(query, literal_weighting=True)
        natural = alternate_bound_db(query, natural_delta=True)
        assert abs(literal - (-22.510)) < 1e-3 and abs(literal + 22.608) > 0.05
        assert abs(natural - (-22.774)) < 1e-3 and abs(natural + 22.608) > 0.05

    def test_argmin_feasible(self):
        query = q(2.3, 2.4, 0.6, 0.1, 0.2)
        res = min_avg_distortion(query)
        b = beta(query)
        assert 0 < res.d1 <= b and 0 < res.d2 <= b
        assert res.d12 <= min(res.d1, res.d2) + 1e-12


@settings(max_examples=60, deadline=None)
@given(
    r1=st.floats(0.0, 4.0),
    r2=st.floats(0.0, 4.0),
    rho=st.floats(-0.99, 0.99),
    mu=st.floats(0.0, 1.0),
    cells=st.lists(st.tuples(st.integers(0, GRID_N - 1), st.integers(0, GRID_N - 1)),
                   min_size=1, max_size=20),
)
def test_grid_path_equals_central_bound(r1, r2, rho, mu, cells):
    """The array path of the one central-bound formula equals the scalar one bit for bit."""
    query = q(r1, r2, rho, mu)
    b = beta(query)
    d1_min, d2_min = side_bounds(query)
    d1_axis, d2_axis = _axis(d1_min, b), _axis(d2_min, b)
    dd1, dd2 = np.meshgrid(d1_axis, d2_axis, indexing="ij")
    d12, inside = _central(b, r1 + r2, dd1, dd2)
    for i, j in [*cells, (GRID_N - 1, GRID_N - 1), (0, GRID_N - 1)]:
        if inside[i, j]:
            assert central_bound(query, d1_axis[i], d2_axis[j]) == d12[i, j]
        else:
            with pytest.raises(ValueError, match="outside achievable region"):
                central_bound(query, d1_axis[i], d2_axis[j])


# Correlations at and next to +-1, where beta = 1 - rho^2 is a few ulps.
EDGE_RHOS = [0.0, 0.5, 0.99999999, 1 - 2.0**-53, -(1 - 2.0**-53), -0.99999999]
EDGE_MUS = [0.0, 1.0]


def _finite_bound(query):
    """``min_avg_distortion`` with every RuntimeWarning raised as an error."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        res = min_avg_distortion(query)
    for value in (res.d_min, res.d1, res.d2, res.d12, res.d_min_db):
        assert math.isfinite(value), res
    b = beta(query)
    d1_min, d2_min = side_bounds(query)
    assert d1_min <= res.d1 <= b and d2_min <= res.d2 <= b, res
    # The corner (beta, beta) is on the grid and has d12 = beta.
    assert 0.0 < res.d_min <= b * (1.0 + 1e-12), res
    return res


@pytest.mark.parametrize("r1,r2,rho,mu", [
    (28.0, 28.0, 0.5, 0.1),  # delta -> 0: the denominator cancelled to 0
    (14.0, 14.0, 0.5, 1.0),  # delta -> 1 at the corner (beta, beta)
    (1.0, 0.0, 0.99999999, 0.0),  # a grid end of exp(log(beta)) above beta
    (MAX_RATE_SUM_BITS / 2, MAX_RATE_SUM_BITS / 2, 0.5, 0.1),
    (492.1875, 7.8125, 1 - 2.0**-53, 0.1),  # a subnormal side bound rounded down
])
def test_queries_once_read_as_infeasible_have_a_bound(r1, r2, rho, mu):
    _finite_bound(q(r1, r2, rho, mu))


def test_known_corner_value():
    # R2 = 0 pins d2 = beta; with no loss the bound is the corner at
    # d1 = beta / 4, where d12 = beta 2^(-2) exactly.
    res = _finite_bound(q(1.0, 0.0, 0.99999999, 0.0))
    assert res.d_min == pytest.approx(beta(q(1.0, 0.0, 0.99999999, 0.0)) / 4, rel=1e-12)


def test_rate_sum_above_the_cap_rejected():
    with pytest.raises(ValueError, match="R1 \\+ R2 must not exceed 500 bits"):
        q(MAX_RATE_SUM_BITS, 1e-9, 0.5, 0.1)
    q(MAX_RATE_SUM_BITS, 0.0, 0.5, 0.1)


@settings(max_examples=150, deadline=None)
@given(
    total=st.one_of(st.sampled_from([0.0, MAX_RATE_SUM_BITS]), st.floats(0.0, MAX_RATE_SUM_BITS)),
    share=st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(0.0, 1.0)),
    rho=st.one_of(st.sampled_from(EDGE_RHOS),
                  st.floats(-1.0, 1.0, exclude_min=True, exclude_max=True)),
    mu1=st.one_of(st.sampled_from(EDGE_MUS), st.floats(0.0, 1.0)),
    mu2=st.one_of(st.sampled_from(EDGE_MUS), st.floats(0.0, 1.0)),
)
def test_every_accepted_query_has_a_finite_bound(total, share, rho, mu1, mu2):
    r1 = total * share
    r2 = total - r1
    assume(r1 + r2 <= MAX_RATE_SUM_BITS)
    _finite_bound(q(r1, r2, rho, mu1, mu2))
