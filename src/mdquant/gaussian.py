"""The Gaussian source/side-information model and exact interval moments.

The source is N(0, 1) throughout, and so is its side information.
Everything downstream (quantizers, decoder tables, distortion integrals)
conditions on a unit-variance jointly Gaussian (source, side information)
pair, so the closed-form interval-moment formula here (one function, for one
mean or a batch of them) is the numerical foundation of the whole package.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

SQRT_2PI = np.sqrt(2.0 * np.pi)


def _phi(z):
    """Standard normal pdf."""
    return np.exp(-0.5 * np.square(z)) / SQRT_2PI


@dataclass(frozen=True)
class JointGaussianPair:
    """Zero-mean, unit-variance jointly Gaussian (source X, side information Y) pair.

    The correlation coefficient fully determines the conditional laws:
    X | Y=y is Gaussian with mean rho*y and variance 1-rho^2.  The moment
    matrices (:func:`mdquant.codec.si_moment_matrices`) reject variances
    other than 1.
    """

    var_x: float = 1.0
    var_y: float = 1.0
    rho: float = 0.0

    def __post_init__(self):
        if self.var_x <= 0 or self.var_y <= 0:
            raise ValueError("variances must be positive")
        if not np.isfinite(self.rho) or abs(self.rho) > 1:
            raise ValueError("correlation must lie in [-1, 1]")


def gauss_interval_moments_batch(edges, means, sd):
    """Zeroth/first/second moments of N(mean, sd^2) over consecutive intervals.

    ``edges`` has length K+1 (may include +-inf) and partitions the line into
    K cells.  Returns (p, m1, m2), each of shape ``means.shape + (K,)``, where
    p[k] = P(cell k), m1[k] = E[X 1{cell k}], m2[k] = E[X^2 1{cell k}]; a
    scalar mean gives one row of length K.  ``sd`` is one standard deviation,
    or an array that broadcasts against ``means``.  Closed form via the
    standard normal cdf/pdf, exact to machine precision.  Every entry is the
    same whatever else is in the batch: the variance is taken as a float64
    scalar power (libm ``pow``), which can differ in the last bit from an
    array square.
    """
    from scipy.special import ndtr

    edges = np.asarray(edges, dtype=float)
    means = np.asarray(means, dtype=float)[..., None]
    sd = np.asarray(sd, dtype=float)
    var = np.array([s ** 2 for s in sd.ravel()]).reshape(sd.shape)[..., None]
    sd = sd[..., None]
    z = (edges - means) / sd
    cdf = ndtr(z)
    pdf = _phi(z)
    zpdf = np.where(np.isfinite(z), z, 0.0) * pdf  # pdf is exactly 0 at +-inf
    dp = np.diff(cdf, axis=-1)
    dpdf = np.diff(pdf, axis=-1)
    dzpdf = np.diff(zpdf, axis=-1)
    m1 = means * dp - sd * dpdf
    m2 = (means ** 2 + var) * dp - sd * (2.0 * means * dpdf + sd * dzpdf)
    return dp, m1, m2


# The correlation levels at which every decoder reads its tables: a pair's
# correlation is rounded to the nearest (:func:`quantize_rho`).
RHO_LADDER = np.array([0.0, 0.2, 0.4, 0.6, 0.8, 0.9, 0.95, 0.99])


def quantize_rho(rho):
    """Index of the nearest ``RHO_LADDER`` level; ties break toward the lower level.

    ``rho`` is a scalar (an int is returned) or an array (an int array of its
    shape).  Negative correlations are rejected: all supported operating
    points use rho >= 0.
    """
    r = np.asarray(rho, dtype=float)
    if not np.all((r >= 0) & (r <= 1)):  # NaN fails both comparisons
        raise ValueError("correlation must lie in [0, 1]")
    idx = np.argmin(np.abs(RHO_LADDER - r[..., None]), axis=-1)
    return int(idx) if idx.ndim == 0 else idx
