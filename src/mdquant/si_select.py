"""Side-information source selection criteria for the joint decoder.

Three criteria are provided, in increasing order of cost and quality:
nearest node by physical distance (:func:`select_min_distance`), largest
mutual information between the received words given the current loss
patterns (:func:`pairwise_mi`), and smallest expected end-to-end distortion
of the partial-SI decoder, which reconstructs a source from its own received
words and the candidate's (:func:`expected_partial_si_distortion`).  The two
pattern-dependent criteria come from :func:`score_tables`, which scores every
pair of loss patterns at once, for one correlation or for a stack of them
(the cross tables of :func:`mdquant.decode_sym.cross_table_stack`); the two
pairwise functions are its batch of one.  The per-trial selection that reads
the tables and picks each source's best candidate runs in
:mod:`mdquant.simulator`.  All ties resolve to the lowest candidate index so
selections are deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import pattern_ids, stacked_pattern_table
from .channel import pattern_table  # noqa: F401  (perfbench/spans.py patches this binding)
from .codec import CodecBundle, masked_ratio
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


def _entropy_bits(p: np.ndarray) -> np.ndarray:
    """Entropy in bits along the last axis (0 log 0 = 0)."""
    pos = p > 0
    return -np.sum(np.where(pos, p * np.log2(np.where(pos, p, 1.0)), 0.0), axis=-1)


def _pattern_blocks(bundle: CodecBundle):
    """Per loss pattern: likelihood table T_p (L, n_p) and G_p = A T_p = P(word | cell).

    The blocks are contiguous copies: BLAS can round a product of a strided
    view differently, and the scores must not depend on the layout.
    """
    stacked, offsets = stacked_pattern_table(bundle.channels)
    cut = offsets[1:-1]

    def blocks(m):
        return [np.ascontiguousarray(b) for b in np.split(m, cut, axis=1)]

    return blocks(stacked), blocks(bundle.ia.table @ stacked)


def score_tables(
    bundle_u: CodecBundle,
    bundle_t: CodecBundle,
    cross: CrossSourceTables,
    method: str,
    var_x: float = 1.0,
) -> np.ndarray:
    """Selection score of SI source t for source u, for every pair of loss patterns.

    ``cross`` holds the cross tables of one correlation, or of many with a
    leading correlation axis (:func:`mdquant.decode_sym.cross_table_stack`);
    the result has shape (..., P_u, P_t), patterns in ``loss_patterns``
    order.  ``method`` "mutual_info" scores :func:`pairwise_mi`,
    "min_distortion" :func:`expected_partial_si_distortion`.  Each pattern
    pair is computed for all correlations at once, with the same matrix
    products as for one pair, so a stack repeats the one-pair scores bit for
    bit; that includes the ~1e-16 mutual-information residues that decide
    among candidates when a source has lost every description.
    """
    t_u, g_u = _pattern_blocks(bundle_u)
    t_t, g_t = _pattern_blocks(bundle_t)
    p_t = bundle_t.quantizer.cell_probs
    cell_joint = cross.cell_cross * p_t[None, :]  # (..., Ku, Kt)
    lead = cell_joint.shape[:-2]
    out = np.empty(lead + (len(g_u), len(g_t)))
    if method == "mutual_info":
        h_t = [_entropy_bits(g.T @ p_t) for g in g_t]
        marg_u = cell_joint.sum(axis=-1)[..., None]  # (..., Ku, 1)
        for iu, gu in enumerate(g_u):
            h_u = _entropy_bits((gu.T @ marg_u)[..., 0])
            xu = gu.T @ cell_joint
            for it, gt in enumerate(g_t):
                joint = xu @ gt
                h_j = _entropy_bits(joint.reshape(lead + (-1,)))
                out[..., iu, it] = np.maximum(h_u + h_t[it] - h_j, 0.0)
        return out

    cell_joint_m1 = cross.cell_cross_m1 * p_t[None, :]
    first_cell = cross.idx_given_cell * cross.cent_given_cell
    w_cells = [p_t[:, None] * g for g in g_t]  # unnormalized neighbor cell posteriors
    prior_jt = [cross.idx_given_cell @ w for w in w_cells]  # (..., Lu, nJt)
    first_jt = [first_cell @ w for w in w_cells]
    for iu, (tu, gu) in enumerate(zip(t_u, g_u)):
        xu, xu1 = gu.T @ cell_joint, gu.T @ cell_joint_m1
        for it, gt in enumerate(g_t):
            pjj = xu @ gt  # (..., nJu, nJt)
            njj = xu1 @ gt
            xhat = masked_ratio(tu.T @ first_jt[it], tu.T @ prior_jt[it])
            d = (
                var_x - 2.0 * np.sum(njj * xhat, axis=(-2, -1))
                + np.sum(pjj * xhat**2, axis=(-2, -1))
            )
            out[..., iu, it] = np.maximum(d, 0.0)
    return out


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
    tab = score_tables(bundle_u, bundle_t, cross, "mutual_info")
    return float(tab[pattern_ids(np.asarray(q_u, bool)), pattern_ids(np.asarray(q_t, bool))])


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
    tab = score_tables(bundle, bundle, cross, "min_distortion", var_x)
    return float(tab[pattern_ids(np.asarray(q_u, bool)), pattern_ids(np.asarray(q_t, bool))])
