"""Two-description rate-distortion bound with side information at the decoder.

The achievable-region corner for the central distortion, combined with the
packet-loss weighting of the four reception events, gives the minimum average
distortion attainable at a rate pair.  The loss average weights the two side
distortions by the probability that only the *other* description survives,
which is the reading consistent with the published operating points; the
printed-as-is weighting and a natural-base variant of the excess-rate term
are kept behind flags for comparison.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class BoundQuery:
    """Rate pair, correlation, variances, and per-description loss rates."""

    r1: float
    r2: float
    rho: float
    mu1: float
    mu2: float
    var_x: float = 1.0
    var_y: float = 1.0

    def __post_init__(self):
        if not (0 <= self.r1 < np.inf and 0 <= self.r2 < np.inf):
            raise ValueError("rates must be nonnegative and finite")
        if not (0 <= self.mu1 <= 1 and 0 <= self.mu2 <= 1):
            raise ValueError("loss probabilities must lie in [0, 1]")
        if not abs(self.rho) < 1:
            raise ValueError("correlation must lie in (-1, 1)")
        if self.var_x <= 0 or self.var_y <= 0:
            raise ValueError("invalid source parameters")


def beta(query: BoundQuery) -> float:
    """Conditional variance of the source given the side information."""
    cov = query.rho * np.sqrt(query.var_x * query.var_y)
    return float((query.var_x * query.var_y - cov**2) / query.var_y)


def side_bounds(query: BoundQuery) -> tuple[float, float]:
    """Smallest achievable side distortions at the query's rates."""
    b = beta(query)
    return b * 2.0 ** (-2.0 * query.r1), b * 2.0 ** (-2.0 * query.r2)


def central_bound(
    query: BoundQuery,
    d1: float,
    d2: float,
    natural_delta: bool = False,
) -> float:
    """Smallest central distortion compatible with side distortions (d1, d2).

    Raises if (d1, d2) lies outside the achievable region.  With
    ``natural_delta`` the excess-rate term uses natural-base exponentials, as
    one printed form of the region suggests; the default is base 2 throughout
    (rates in bits), validated against the published operating points.
    """
    b = beta(query)
    d1_min, d2_min = side_bounds(query)
    if d1 < d1_min - 1e-15 or d2 < d2_min - 1e-15:
        raise ValueError("outside achievable region")
    rsum = query.r1 + query.r2
    pi = (1.0 - d1 / b) * (1.0 - d2 / b)
    excess = np.exp(-2.0 * rsum) if natural_delta else 2.0 ** (-2.0 * rsum)
    delta = d1 * d2 / b**2 - excess
    if delta < -1e-12:
        raise ValueError("outside achievable region")
    delta = max(delta, 0.0)
    if pi < 0:
        raise ValueError("outside achievable region")
    denom = 1.0 - (np.sqrt(pi) - np.sqrt(delta)) ** 2
    if denom <= 0:
        raise ValueError("outside achievable region")
    return float(b * 2.0 ** (-2.0 * rsum) / denom)


def _loss_average(query, d1, d2, d12, literal_weighting: bool) -> float:
    b = beta(query)
    mu1, mu2 = query.mu1, query.mu2
    if literal_weighting:
        side = mu1 * d1 + mu2 * d2
    else:
        # Description m lost => reconstruction from the other one alone.
        side = mu1 * (1.0 - mu2) * d2 + mu2 * (1.0 - mu1) * d1
    return mu1 * mu2 * b + side + (1.0 - mu1) * (1.0 - mu2) * d12


@dataclass(frozen=True)
class BoundResult:
    """Minimizing operating point of the loss-averaged bound."""

    d_min: float
    d1: float
    d2: float
    d12: float

    @property
    def d_min_db(self) -> float:
        return float(10.0 * np.log10(self.d_min))


def min_avg_distortion(
    query: BoundQuery,
    grid_n: int = 200,
    literal_weighting: bool = False,
    natural_delta: bool = False,
) -> BoundResult:
    """Minimize the loss-averaged distortion over feasible side distortions.

    Deterministic log-spaced grid search over [side bound, beta] per axis
    followed by coordinate golden-section refinement; the refinement never
    returns a value above the best grid point.
    """
    b = beta(query)
    d1_min, d2_min = side_bounds(query)
    if d1_min > b or d2_min > b:
        raise ValueError("infeasible query: side bound exceeds the SI floor")

    def objective(d1: float, d2: float) -> float:
        d12 = central_bound(query, d1, d2, natural_delta)
        return _loss_average(query, d1, d2, d12, literal_weighting)

    d1_axis = np.exp(np.linspace(np.log(d1_min), np.log(b), grid_n))
    d2_axis = np.exp(np.linspace(np.log(d2_min), np.log(b), grid_n))
    dd1, dd2 = np.meshgrid(d1_axis, d2_axis, indexing="ij")
    rsum = query.r1 + query.r2
    # Clamp: the D == beta grid edge can give -1e-17 in float.
    pi = np.maximum((1.0 - dd1 / b) * (1.0 - dd2 / b), 0.0)
    excess = np.exp(-2.0 * rsum) if natural_delta else 2.0 ** (-2.0 * rsum)
    delta = np.maximum(dd1 * dd2 / b**2 - excess, 0.0)
    d12 = b * 2.0 ** (-2.0 * rsum) / (1.0 - (np.sqrt(pi) - np.sqrt(delta)) ** 2)
    obj = _loss_average(query, dd1, dd2, d12, literal_weighting)
    i, j = np.unravel_index(np.argmin(obj), obj.shape)
    best = (float(d1_axis[i]), float(d2_axis[j]), float(obj[i, j]))

    def golden_axis(fixed: float, lo: float, hi: float, along_d1: bool):
        f = (lambda v: objective(v, fixed)) if along_d1 else (lambda v: objective(fixed, v))
        a, c = lo, hi
        x1 = c - GOLDEN * (c - a)
        x2 = a + GOLDEN * (c - a)
        f1, f2 = f(x1), f(x2)
        for _ in range(60):
            if f1 <= f2:
                c, x2, f2 = x2, x1, f1
                x1 = c - GOLDEN * (c - a)
                f1 = f(x1)
            else:
                a, x1, f1 = x1, x2, f2
                x2 = a + GOLDEN * (c - a)
                f2 = f(x2)
        v = x1 if f1 <= f2 else x2
        return float(v), float(min(f1, f2))

    d1_best, d2_best, val_best = best
    for _ in range(3):
        lo = d1_axis[max(i - 1, 0)]
        hi = d1_axis[min(i + 1, grid_n - 1)]
        v, fv = golden_axis(d2_best, lo, hi, along_d1=True)
        if fv < val_best:
            d1_best, val_best = v, fv
        lo = d2_axis[max(j - 1, 0)]
        hi = d2_axis[min(j + 1, grid_n - 1)]
        v, fv = golden_axis(d1_best, lo, hi, along_d1=False)
        if fv < val_best:
            d2_best, val_best = v, fv

    d12_best = central_bound(query, d1_best, d2_best, natural_delta)
    return BoundResult(val_best, d1_best, d2_best, d12_best)
