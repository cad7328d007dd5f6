"""Lloyd scalar quantizer design for the N(0, 1) source, and cell lookup.

Cells are half-open intervals between consecutive thresholds; values sitting
exactly on a threshold belong to the lower cell so that encoding is
deterministic.  All cell-bounded Gaussian integrals use the exact
interval-moment formulas from :mod:`mdquant.gaussian` rather than grid sums,
which keeps K=256 designs accurate even when cells are narrower than any
reasonable grid step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gaussian import gauss_interval_moments_batch

LLOYD_MAX_ITERATIONS = 500
LLOYD_REL_TOL = 1e-9
# Largest quantizer or SI quantizer size that the commands and codec files
# accept: four times the paper's largest quantizer (K = 256).  The tables of a
# much larger size are allocated and filled until memory runs out, so no
# MemoryError would report it.
MAX_QUANTIZER_LEVELS = 1024


@dataclass(frozen=True)
class ScalarQuantizer:
    """Codewords, Voronoi thresholds, and cell probabilities of a scalar quantizer."""

    codewords: np.ndarray
    thresholds: np.ndarray
    cell_probs: np.ndarray

    def __post_init__(self):
        cw = np.asarray(self.codewords, dtype=float)
        th = np.asarray(self.thresholds, dtype=float)
        cp = np.asarray(self.cell_probs, dtype=float)
        if cw.ndim != 1 or cw.size < 1:
            raise ValueError("need at least one codeword")
        if th.shape != (cw.size - 1,):
            raise ValueError("thresholds must have length K-1")
        if cw.size > 1 and (np.any(np.diff(cw) <= 0) or np.any(np.diff(th) <= 0)):
            raise ValueError("codewords and thresholds must be strictly increasing")
        if cp.shape != cw.shape or abs(cp.sum() - 1.0) > 1e-9 or np.any(cp < 0):
            raise ValueError("cell probabilities must be a distribution over cells")
        object.__setattr__(self, "codewords", cw)
        object.__setattr__(self, "thresholds", th)
        object.__setattr__(self, "cell_probs", cp)

    @property
    def size(self) -> int:
        return int(self.codewords.size)

    def edges(self) -> np.ndarray:
        """Cell boundaries including the infinite outer edges (length K+1)."""
        return np.concatenate(([-np.inf], self.thresholds, [np.inf]))

    def cells(self, x):
        """Cell index of each value of x (any shape); a threshold value goes to the lower cell."""
        return np.searchsorted(self.thresholds, x, side="left")


def lloyd_design(K: int) -> ScalarQuantizer:
    """Design a K-level Lloyd quantizer for the N(0, 1) source.

    Initialization is deterministic (codewords at uniform quantiles), the
    centroid/nearest-neighbor iteration runs to a fixed point, and the MSE is
    checked to be non-increasing at every step.  The quantizer is built once,
    from the last step's arrays.
    """
    from scipy.special import ndtri

    if K < 1:
        raise ValueError("need at least one quantizer level")
    if K == 1:
        return ScalarQuantizer(np.array([0.0]), np.array([]), np.array([1.0]))

    codewords = ndtri((np.arange(K) + 0.5) / K)
    prev_mse = np.inf
    for _ in range(LLOYD_MAX_ITERATIONS):
        thresholds = 0.5 * (codewords[:-1] + codewords[1:])
        edges = np.concatenate(([-np.inf], thresholds, [np.inf]))
        p, m1, m2 = gauss_interval_moments_batch(edges, 0.0, 1.0)
        # Empty cells cannot occur for a Gaussian with distinct codewords,
        # but guard the division anyway.
        codewords = np.where(p > 0, m1 / np.maximum(p, 1e-300), codewords)
        mse = float(np.sum(m2 - 2.0 * codewords * m1 + codewords ** 2 * p))
        if mse > prev_mse + 1e-15:
            raise RuntimeError("Lloyd iteration increased the MSE")
        if prev_mse - mse < LLOYD_REL_TOL * max(mse, 1e-300):
            break
        prev_mse = mse
    return ScalarQuantizer(codewords, thresholds, p / p.sum())
