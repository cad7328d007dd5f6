"""Side-information source selection criteria for the joint decoder.

Three criteria are provided, in increasing order of cost and quality:
nearest node by physical distance (:func:`select_min_distance`), largest
mutual information between the received words given the current loss
patterns (:func:`pairwise_mi`), and smallest expected end-to-end distortion
of the partial-SI decoder (:func:`expected_partial_si_distortion`).  The two
pattern-dependent criteria are pairwise scores; the per-trial selection that
tabulates them over loss patterns and picks each source's best candidate
runs in :mod:`mdquant.simulator`.  All ties resolve to the lowest candidate
index so selections are deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import ChannelOutcome, pattern_table, tuple_space
from .codec import CodecBundle, masked_ratio
from .decode_asym import tuple_log_likelihood
from .decode_sym import CrossSourceTables


@dataclass(frozen=True)
class SiAssignment:
    """Chosen SI source per source plus the evaluated criterion scores."""

    map: np.ndarray
    method: str
    scores: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.map, dtype=int)
        if np.any(m == np.arange(m.size)):
            raise ValueError("a source cannot be its own SI")
        object.__setattr__(self, "map", m)


def select_min_distance(positions) -> SiAssignment:
    """Nearest neighbor by Euclidean distance; ties pick the lower index."""
    pos = np.asarray(positions, dtype=float)
    if pos.ndim != 2 or pos.shape[0] < 2 or not np.all(np.isfinite(pos)):
        raise ValueError("need at least two sources with finite coordinates")
    diff = pos[:, None, :] - pos[None, :, :]
    dist = np.sqrt(np.sum(diff**2, axis=2))
    np.fill_diagonal(dist, np.inf)
    return SiAssignment(np.argmin(dist, axis=1), "distance", dist)


def _entropy_bits(p: np.ndarray) -> float:
    p = p[p > 0]
    return float(-np.sum(p * np.log2(p)))


def pairwise_mi(
    bundle_u: CodecBundle,
    bundle_t: CodecBundle,
    cross: CrossSourceTables,
    q_u,
    q_t,
) -> float:
    """Mutual information (bits) between the two sources' received words.

    Computed from the exact discrete joint of the received words given the
    loss patterns: quantizer cell joint -> index tuples -> channel outputs.
    Lost descriptions are excluded from the enumeration (their contribution
    is an index-independent constant).
    """
    space_u = tuple_space(bundle_u.channels)
    space_t = tuple_space(bundle_t.channels)
    t_u = pattern_table(bundle_u.channels, q_u, space_u).table  # (Lu, nJu)
    t_t = pattern_table(bundle_t.channels, q_t, space_t).table
    g_u = bundle_u.ia.table @ t_u  # (Ku, nJu): P(Ju | own cell)
    g_t = bundle_t.ia.table @ t_t
    p_cells_t = bundle_t.quantizer.cell_probs
    cell_joint = cross.cell_cross * p_cells_t[None, :]  # (Ku, Kt)

    pj_u = g_u.T @ (cell_joint.sum(axis=1))
    pj_t = g_t.T @ p_cells_t
    joint = g_u.T @ cell_joint @ g_t
    mi = _entropy_bits(pj_u) + _entropy_bits(pj_t) - _entropy_bits(joint.ravel())
    return max(float(mi), 0.0)


def _neighbor_cell_posterior(outcome_t: ChannelOutcome, bundle_t: CodecBundle) -> np.ndarray:
    """P(neighbor cell | its received words): prior cell mass times channel evidence."""
    lik = np.exp(tuple_log_likelihood(outcome_t, bundle_t.channels))
    w = bundle_t.quantizer.cell_probs * (bundle_t.ia.table @ lik)
    total = w.sum()
    if total <= 0:
        raise ValueError("inconsistent tables")
    return w / total


def partial_si_reconstruct(
    outcome_u: ChannelOutcome,
    outcome_t: ChannelOutcome,
    bundle_u: CodecBundle,
    bundle_t: CodecBundle,
    cross: CrossSourceTables,
) -> float:
    """MMSE estimate of source u using the neighbor's raw received words as SI."""
    w = _neighbor_cell_posterior(outcome_t, bundle_t)
    prior = cross.idx_given_cell @ w
    first = (cross.idx_given_cell * cross.cent_given_cell) @ w
    lik = np.exp(tuple_log_likelihood(outcome_u, bundle_u.channels))
    post = lik * prior
    total = post.sum()
    if total <= 0:
        raise ValueError("inconsistent tables")
    post /= total
    return float(np.dot(post, masked_ratio(first, prior)))


def expected_partial_si_distortion(
    bundle: CodecBundle,
    cross: CrossSourceTables,
    q_u,
    q_t,
    var_x: float = 1.0,
) -> float:
    """E[(X - Xhat)^2] of the partial-SI decoder given both loss patterns.

    Exact enumeration over both sources' received words (BSC channels).
    """
    space = tuple_space(bundle.channels)
    t_u = pattern_table(bundle.channels, q_u, space).table  # (L, nJu)
    t_t = pattern_table(bundle.channels, q_t, space).table  # (L, nJt)
    a = bundle.ia.table
    p_cells = bundle.quantizer.cell_probs
    g_u = a @ t_u  # (K, nJu)
    g_t = a @ t_t  # (K, nJt)

    cell_joint = cross.cell_cross * p_cells[None, :]
    cell_joint_m1 = cross.cell_cross_m1 * p_cells[None, :]
    pjj = g_u.T @ cell_joint @ g_t  # (nJu, nJt)
    njj = g_u.T @ cell_joint_m1 @ g_t

    w_cells = p_cells[:, None] * g_t  # (K, nJt), unnormalized neighbor cell posterior
    prior_jt = cross.idx_given_cell @ w_cells  # (L, nJt)
    first_jt = (cross.idx_given_cell * cross.cent_given_cell) @ w_cells
    den = t_u.T @ prior_jt  # (nJu, nJt)
    num = t_u.T @ first_jt
    xhat = masked_ratio(num, den)
    d = var_x - 2.0 * np.sum(njj * xhat) + np.sum(pjj * xhat**2)
    return float(max(d, 0.0))

