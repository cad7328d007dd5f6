"""Side-information source selection criteria for the joint decoder.

Three criteria are provided, in increasing order of cost and quality:
nearest node by physical distance (:func:`select_min_distance`, which returns
the chosen SI source of every node as one (N,) array), largest
mutual information between the received words given the current loss
patterns (:func:`pairwise_mi`), and smallest expected end-to-end distortion
of the partial-SI decoder, which reconstructs a source from its own received
words and the candidate's (:func:`expected_partial_si_distortion`).  The two
pattern-dependent criteria come from :func:`score_tables`, which scores every
pair of loss patterns at once, for one correlation or for a stack of them
(the moment matrices of :func:`mdquant.codec.si_moment_stack`), for two
sources that run one codec; the two pairwise functions are its batch of
one.  The per-trial selection that reads the tables and picks each source's
best candidate, among its ``SI_CANDIDATES`` most correlated nodes, runs in
:mod:`mdquant.simulator`.
Where a source or its candidate has received nothing, the mutual
information is exactly 0.0.  Equal scores go to the more correlated
candidate, equal correlations to the lower node index, so an all-zero tie
picks the most correlated candidate.
"""

from __future__ import annotations

import numpy as np

from .channel import pattern_ids, stacked_pattern_table
from .channel import pattern_table  # noqa: F401  (perfbench/spans.py patches this binding)
from .codec import CodecBundle, pattern_errors, pattern_lookups, pattern_sums, si_moment_matrices
from .gaussian import JointGaussianPair


def select_min_distance(positions) -> np.ndarray:
    """(N,) nearest neighbor of each node by Euclidean distance; ties pick the lower index.

    The diagonal is infinite and every other distance finite, so no node is
    its own SI source.
    """
    pos = np.asarray(positions, dtype=float)
    if pos.ndim != 2 or pos.shape[0] < 2 or not np.all(np.isfinite(pos)):
        raise ValueError("need at least two sources with finite coordinates")
    diff = pos[:, None, :] - pos[None, :, :]
    dist = np.sqrt(np.sum(diff**2, axis=2))
    np.fill_diagonal(dist, np.inf)
    return np.argmin(dist, axis=1)


def score_tables(bundle: CodecBundle, s0, s1, method: str) -> np.ndarray:
    """Selection score of SI source t for source u, for every pair of loss patterns.

    Both sources run the one codec ``bundle``.  ``s0``/``s1`` are their
    (K, K) moment matrices S0/S1, the codec's quantizer in the role of the SI
    quantizer, or a stack with leading axes
    (:func:`mdquant.codec.si_moment_stack`); the result has shape
    (..., P_u, P_t), patterns in ``loss_patterns`` order.  ``method``
    "mutual_info" scores :func:`pairwise_mi`, "min_distortion"
    :func:`expected_partial_si_distortion`; any other raises ``ValueError``.
    Per neighbor pattern p_t, with G_t = A T_t, the own words' joint masses
    are ``den`` = P(J_u, J_t) = T^T A^T S0 G_t.  The mutual information reads
    them alone: H(J_u) + H(J_t) - H(J_u, J_t), H(J_u) read where the neighbor
    received nothing and H(J_t) where the own source did, and exactly 0
    where either received nothing.  The distortion is 1 (E[X^2]) +
    :func:`mdquant.codec.pattern_errors` of one
    :func:`mdquant.codec.pattern_lookups` of [A^T S0 G_t | A^T S1 G_t].
    Both sum through :func:`mdquant.codec.pattern_sums`, so a stack repeats
    the one-correlation scores bit for bit.
    """
    if method not in ("mutual_info", "min_distortion"):
        raise ValueError(f"no score table for SI selection method {method!r}")
    stacked, offsets = stacked_pattern_table(bundle.channels)
    a = bundle.ia.table
    ats0 = a.T @ s0  # (..., L, K)
    ats1 = a.T @ s1 if method == "min_distortion" else None
    out = np.empty(ats0.shape[:-2] + (offsets.size - 1,) * 2)
    for it, (lo, hi) in enumerate(zip(offsets, offsets[1:])):
        g = a @ stacked[:, lo:hi]  # (K, n_t): P(J_t | neighbor cell)
        if method == "min_distortion":
            den, num, xhat = pattern_lookups(stacked, np.concatenate([ats0 @ g, ats1 @ g], axis=-1))
            d = 1.0 + pattern_errors(den, num, xhat, offsets)
        else:
            den = stacked.T @ (ats0 @ g)
            logs = np.log2(np.where(den > 0, den, 1.0))  # 0 log 0 = 0
            h_j = -pattern_sums(den * logs, offsets)  # H(J_u, J_t) per own pattern
            if it == 0:
                h_u = h_j  # the neighbor received nothing: H(J_u)
            d = h_u + h_j[..., :1] - h_j
        out[..., it] = np.maximum(d, 0.0)
    if method == "mutual_info":
        out[..., 0, :] = out[..., :, 0] = 0.0  # either source received nothing
    return out


def _pair_score(bundle, pair, q_u, q_t, method) -> float:
    """One entry of :func:`score_tables` at the correlation of ``pair``."""
    s0, s1, _ = si_moment_matrices(bundle.quantizer, bundle.quantizer, pair)
    tab = score_tables(bundle, s0, s1, method)
    return float(tab[pattern_ids(np.asarray(q_u, bool)), pattern_ids(np.asarray(q_t, bool))])


def pairwise_mi(bundle: CodecBundle, pair: JointGaussianPair, q_u, q_t) -> float:
    """Mutual information (bits) between the two sources' received words.

    Both sources run the one codec ``bundle``, at the correlation of
    ``pair``.  Computed from the exact discrete joint of the received words
    given the loss patterns: quantizer cell joint -> index tuples -> channel
    outputs.  Lost descriptions are excluded from the enumeration (their
    contribution is an index-independent constant).
    """
    return _pair_score(bundle, pair, q_u, q_t, "mutual_info")


def expected_partial_si_distortion(bundle: CodecBundle, pair: JointGaussianPair, q_u, q_t) -> float:
    """E[(X - Xhat)^2] of the partial-SI decoder given both loss patterns.

    Both sources run the one codec ``bundle``, at the correlation of
    ``pair``.  Exact enumeration over both sources' received words (BSC
    channels).
    """
    return _pair_score(bundle, pair, q_u, q_t, "min_distortion")
