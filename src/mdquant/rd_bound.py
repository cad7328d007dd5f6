"""Two-description rate-distortion bound with side information at the decoder.

The achievable-region corner for the central distortion, combined with the
packet-loss weighting of the four reception events, gives the minimum average
distortion attainable at a rate pair.  The loss average weights the two side
distortions by the probability that only the *other* description survives,
and the excess-rate term is base 2 (rates in bits).  This is the one reading
that reproduces the published bound columns.  Two other readings were tried
and rejected; at the published point (R1, R2) = (2.321, 2.319), rho = 0.8,
mu = 0.05, whose bound is -22.608 dB, each misses by more than the 0.05 dB
tolerance:

- weighting the side distortions as printed, mu1 * d1 + mu2 * d2, gives
  -22.510 dB;
- a natural-base excess-rate term, exp(-2 (R1 + R2)), gives -22.774 dB.

``tests/oracles.py`` keeps both as test oracles.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0
# Points per axis of the grid search in ``min_avg_distortion``.
GRID_N = 200
# Largest total rate R1 + R2 in bits.  Up to it the excess-rate term
# 2^(-2 (R1 + R2)) is a normal double and beta times it, the smallest central
# distortion, a positive one for every |rho| < 1.
MAX_RATE_SUM_BITS = 500.0


@dataclass(frozen=True)
class BoundQuery:
    """Rate pair, correlation and per-description loss rates (unit variances)."""

    r1: float
    r2: float
    rho: float
    mu1: float
    mu2: float

    def __post_init__(self):
        if not (0 <= self.r1 < np.inf and 0 <= self.r2 < np.inf):
            raise ValueError("rates must be nonnegative and finite")
        if self.r1 + self.r2 > MAX_RATE_SUM_BITS:
            raise ValueError(f"rates R1 + R2 must not exceed {MAX_RATE_SUM_BITS:g} bits")
        if not (0 <= self.mu1 <= 1 and 0 <= self.mu2 <= 1):
            raise ValueError("loss probabilities must lie in [0, 1]")
        if not abs(self.rho) < 1:
            raise ValueError("correlation must lie in (-1, 1)")


def beta(query: BoundQuery) -> float:
    """Conditional variance of the source given the side information."""
    return float(1.0 - query.rho**2)


def side_bounds(query: BoundQuery) -> tuple[float, float]:
    """Smallest achievable side distortions at the query's rates.

    A subnormal bound is rounded up to the next double: it keeps few digits,
    and rounded down it would put the corner outside the achievable region.
    """
    b, tiny = beta(query), np.finfo(float).tiny
    bounds = (b * 2.0 ** (-2.0 * query.r1), b * 2.0 ** (-2.0 * query.r2))
    return tuple(float(np.nextafter(d, np.inf)) if d < tiny else d for d in bounds)


def _central(b, rsum, d1, d2):
    """Central distortion of the region's corner at side distortions (d1, d2).

    Takes scalars or arrays and returns (d12, inside).  With u = d1 / b,
    v = d2 / b, pi = (1 - u)(1 - v) and delta = u v - 2^(-2 rsum), the corner
    is b 2^(-2 rsum) / (1 - (sqrt(pi) - sqrt(delta))^2).  The denominator is
    taken as (1 - sqrt(pi) + sqrt(delta)) (1 + sqrt(pi) - sqrt(delta)), with
    1 - pi and 1 - delta as sums of nonnegative terms, so it cannot cancel to
    0 as delta -> 0 or 1.  ``delta`` is clamped at 0: at the side bounds it
    can round a few ulps of 2^(-2 rsum) below 0.  ``inside`` is False where
    (d1, d2) lies outside the achievable region by more than 1e-12 of
    2^(-2 rsum), a tolerance relative to the scale of delta at every rate;
    d12 means nothing there.
    """
    excess = 2.0 ** (-2.0 * rsum)
    u, v = d1 / b, d2 / b
    p1, p2 = (b - d1) / b, (b - d2) / b
    pi = p1 * p2
    delta = u * v - excess
    a = np.sqrt(np.maximum(pi, 0.0))
    c = np.sqrt(np.maximum(delta, 0.0))
    one_minus_pi = u + v * p1
    one_minus_delta = p1 + u * p2 + excess
    denom = (one_minus_pi / (1.0 + a) + c) * (a + one_minus_delta / (1.0 + c))
    inside = (p1 >= 0) & (p2 >= 0) & (delta >= -1e-12 * excess) & (denom > 0)
    with np.errstate(divide="ignore"):
        return b * excess / denom, inside


def _axis(lo: float, hi: float) -> np.ndarray:
    """``GRID_N`` log-spaced points from ``lo`` to ``hi``, both ends exact."""
    axis = np.clip(np.exp(np.linspace(np.log(lo), np.log(hi), GRID_N)), lo, hi)
    axis[0], axis[-1] = lo, hi
    return axis


def central_bound(query: BoundQuery, d1: float, d2: float) -> float:
    """Smallest central distortion compatible with side distortions (d1, d2).

    Raises if (d1, d2) lies outside the achievable region: more than 1e-15
    of a side bound below it (the bounds scale as 2^(-2R), so the tolerance
    is relative), or outside the corner's region (see :func:`_central`).
    """
    d1_min, d2_min = side_bounds(query)
    if d1 < d1_min * (1.0 - 1e-15) or d2 < d2_min * (1.0 - 1e-15):
        raise ValueError("outside achievable region")
    d12, inside = _central(beta(query), query.r1 + query.r2, d1, d2)
    if not inside:
        raise ValueError("outside achievable region")
    return float(d12)


def _loss_average(query, d1, d2, d12):
    mu1, mu2 = query.mu1, query.mu2
    # Description m lost => reconstruction from the other one alone.
    side = mu1 * (1.0 - mu2) * d2 + mu2 * (1.0 - mu1) * d1
    return mu1 * mu2 * beta(query) + side + (1.0 - mu1) * (1.0 - mu2) * d12


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


def min_avg_distortion(query: BoundQuery) -> BoundResult:
    """Minimize the loss-averaged distortion over feasible side distortions.

    Deterministic log-spaced grid search over [side bound, beta] per axis
    followed by coordinate golden-section refinement; the refinement never
    returns a value above the best grid point.
    """
    b = beta(query)
    d1_min, d2_min = side_bounds(query)

    def objective(d1: float, d2: float) -> float:
        return _loss_average(query, d1, d2, central_bound(query, d1, d2))

    d1_axis, d2_axis = _axis(d1_min, b), _axis(d2_min, b)
    dd1, dd2 = np.meshgrid(d1_axis, d2_axis, indexing="ij")
    d12, _ = _central(b, query.r1 + query.r2, dd1, dd2)
    obj = _loss_average(query, dd1, dd2, d12)
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
        hi = d1_axis[min(i + 1, GRID_N - 1)]
        v, fv = golden_axis(d2_best, lo, hi, along_d1=True)
        if fv < val_best:
            d1_best, val_best = v, fv
        lo = d2_axis[max(j - 1, 0)]
        hi = d2_axis[min(j + 1, GRID_N - 1)]
        v, fv = golden_axis(d1_best, lo, hi, along_d1=False)
        if fv < val_best:
            d2_best, val_best = v, fv

    d12_best = central_bound(query, d1_best, d2_best)
    return BoundResult(val_best, d1_best, d2_best, d12_best)
