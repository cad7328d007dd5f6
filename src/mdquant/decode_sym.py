"""The joint decoder of a sensor field and its cross-source tables.

Every sensor of a field runs the same codec.  When one source serves as
another's side information, the soft-SI decoder couples the two through
cross tables: the mixing matrices that map the neighbor's index tuple
posterior to the own tuple prior and its first moment, at the pair's
correlation, under that one codec.  They are read off the same moment
matrices S0/S1 as the decoder tables
(:func:`mdquant.codec.si_moment_matrices`, with the codec's quantizer in
the role of the SI quantizer).  :func:`cross_table_stack` builds them for
many correlations from one batched quadrature, which is how the soft-SI
decoder gets one table per ladder level that its field's pairs reach.  The
SI selection reads the moment matrices themselves
(:func:`mdquant.si_select.score_tables`), not these tables.

:class:`_SymDecoder` is the joint decoder: estimated-SI or soft-SI sweeps
over one block of a field's trials at a time.  It takes each trial's SI
source for every node and decodes the node at the ladder level of that pair's
correlation.  Every estimate of the estimated-SI sweeps is an entry of a
table built once per decoder (the no-SI estimate of a word row, or an
asymmetric lookup entry), and so is its SI level, so a sweep is a few integer
gathers over all nodes and trials of the block at once.  The soft-SI sweeps
run over the codec's used index tuples, those some quantizer cell maps to:
every other tuple has zero prior, posterior and mixing entries.  Their row
sums are numpy's over the used tuples, so the estimates equal sweeps over
every tuple to rounding.  A row's sum reads that row alone, so it depends on
neither the block's trial count nor the worker count.
The symmetric experiment (``mdquant.simulator``) samples, transmits and
selects the SI sources for it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import stacked_pattern_table, tuple_space, word_rows
from .codec import (
    CodecBundle,
    _AsymLookup,
    _nosi_tables,
    build_decoder_tables,
    masked_ratio,
    si_moment_matrices,
    si_moment_stack,
)
from .gaussian import RHO_LADDER, JointGaussianPair, quantize_rho
from .gaussian import gauss_interval_moments_batch  # noqa: F401  (perfbench/spans.py patches this binding)

# Joint-decoder sweeps per block (the no-SI pass counts as the first), and the
# largest change between sweeps at which a block stops early.  Read at call time.
SYM_MAX_ITERS = 10
SYM_TOL = 1e-6


@dataclass(frozen=True)
class CrossSourceTables:
    """The soft-SI decoder's mixing matrices between a source and its SI source, both of one codec.

    ``mix_prob[I, J]``   P(own tuple I | neighbor tuple J)
    ``mix_first[I, J]``  E[X 1{own tuple I} | neighbor tuple J]

    so a neighbor tuple posterior maps straight to the own tuple prior and
    its first moment.  A stack for many correlations
    (:func:`cross_table_stack`) has a leading correlation axis.
    """

    mix_prob: np.ndarray
    mix_first: np.ndarray


def _cross_tables(bundle, s0, s1) -> CrossSourceTables:
    """Mixing matrices from the moment matrices, one (K, K) pair or a stack of them.

    The neighbor-cell axis of A^T S0 / p and A^T S1 / p (own tuple given
    neighbor cell) is contracted against P(neighbor cell | neighbor tuple).
    """
    q, a = bundle.quantizer, bundle.ia.table
    ps = np.maximum(q.cell_probs, 1e-300)
    mass = a * q.cell_probs[:, None]  # (K, L)
    neighbor_cell = masked_ratio(mass, mass.sum(axis=0)[None, :])  # P(cell k | tuple J)
    return CrossSourceTables(
        mix_prob=(a.T @ (s0 / ps)) @ neighbor_cell,
        mix_first=(a.T @ (s1 / ps)) @ neighbor_cell,
    )


def build_cross_tables(bundle: CodecBundle, pair: JointGaussianPair) -> CrossSourceTables:
    """Cross-source tables for decoding a source of ``bundle`` with another as SI.

    Both sources run the one codec ``bundle``.  ``pair`` holds the
    correlation between them (own source on the X axis, neighbor on the Y
    axis); the tables come from the moment matrices S0/S1 with the codec's
    quantizer as SI quantizer.
    """
    s0, s1, _ = si_moment_matrices(bundle.quantizer, bundle.quantizer, pair)
    return _cross_tables(bundle, s0, s1)


def cross_table_stack(bundle: CodecBundle, rhos) -> CrossSourceTables:
    """Cross tables of two sources running ``bundle`` at many correlations at once.

    Entry r of every table equals ``build_cross_tables`` at ``rhos[r]`` bit
    for bit (one moment quadrature, :func:`mdquant.codec.si_moment_stack`).
    """
    s0, s1, _ = si_moment_stack(bundle.quantizer, bundle.quantizer, rhos)
    return _cross_tables(bundle, s0, s1)


# ---------------------------------------------------------------------------
# The joint decoder
# ---------------------------------------------------------------------------


def _row_product(a, b):
    """``a @ b`` for a 2-D ``b``, each row rounded as in a product of many rows.

    numpy hands a single row to gemv, whose sums round differently from
    gemm's, so a lone row is multiplied as a pair with a copy of itself.
    """
    if a.shape[0] == 1:
        return (np.repeat(a, 2, axis=0) @ b)[:1]
    return a @ b


def _trial_groups(level_u) -> list:
    """One node's trials grouped by the table level of their SI pair: (level, trial indices)."""
    return [(int(level), np.flatnonzero(level_u == level)) for level in np.unique(level_u)]


class _SymDecoder:
    """The joint decoder: synchronous estimated-SI or soft-SI sweeps over a block of trials.

    Iteration 1 decodes every node without SI; each later sweep reads the
    state the previous one left.  :meth:`decode` runs the sweeps of one
    block, and the other methods are its steps: an estimated-SI sweep of
    the whole block, or a soft-SI prior of one node across the block's
    trials.  One decoder serves every block of a field's run.  ``mode`` is
    "estimated" or "soft", and ``pairwise_rho`` the field's (nodes, nodes)
    correlations.  ``levels`` are the ladder levels (``RHO_LADDER``
    positions) that the field's pairs reach, and ``level_matrix`` holds each
    pair's position in ``levels`` (0 on the diagonal: a node is never its own
    SI source).  The decoder builds the tables its mode reads when it is
    created, at these levels only: the no-SI posterior and estimate of every
    word row, which the first iteration gathers; for estimated-SI the
    asymmetric lookups of the levels as one (levels, rows, SI levels) array,
    from one :func:`mdquant.codec.build_decoder_tables` call, and the SI
    levels of every no-SI estimate and lookup entry; for soft-SI the used
    tuples ``used`` (U of the L), the likelihood and no-SI posterior columns
    of these tuples, and their mixing matrices from one cross-table stack at
    the levels' correlations.
    """

    def __init__(self, bundle: CodecBundle, mode: str, pairwise_rho):
        self.bundle = bundle
        self.mode = mode
        self.channels = tuple(bundle.channels)
        self.space = tuple_space(self.channels)
        stacked, self.offsets = stacked_pattern_table(self.channels)
        self.word_lik = np.ascontiguousarray(stacked.T)  # (N, L); (N, U) in soft mode
        off = ~np.eye(pairwise_rho.shape[0], dtype=bool)
        self.levels, positions = np.unique(quantize_rho(pairwise_rho[off]), return_inverse=True)
        self.level_matrix = np.zeros(pairwise_rho.shape, dtype=int)
        self.level_matrix[off] = positions
        rhos = RHO_LADDER[self.levels]
        # Every word row's no-SI posterior and estimate; a block gathers its rows' entries.
        self.prior_nosi, self.codebook_nosi = _nosi_tables(bundle.quantizer, bundle.ia.table)
        self.nosi_post, self.nosi_est = self.no_si_pass(self.word_lik)
        if mode == "estimated":
            # lookups[level, row, SI level]: the asymmetric decoder's reconstructions.
            tables = build_decoder_tables(bundle.quantizer, bundle.si_quantizer, bundle.ia, rhos)
            self.lookups = np.stack(
                [_AsymLookup(bundle, tables, self.channels, i).table for i in range(rhos.size)]
            )
            # Every estimate is a no-SI estimate or a lookup entry: their SI levels.
            cells = bundle.si_quantizer.cells
            self.nosi_si, self.lookup_si = cells(self.nosi_est), cells(self.lookups)
        else:
            # The tuples some cell maps to.  Any other tuple has zero prior,
            # posterior and mixing rows and columns, so the soft tables keep
            # these columns only (U of them).
            self.used = np.flatnonzero(bundle.ia.table.any(axis=0))
            self.word_lik = self.word_lik[:, self.used]
            self.nosi_post = self.nosi_post[:, self.used]
            cross = cross_table_stack(bundle, [round(float(v), 12) for v in rhos])
            used = (slice(None), self.used[:, None], self.used)
            mix_prob, mix_first = (
                np.ascontiguousarray(m[used]) for m in (cross.mix_prob, cross.mix_first)
            )
            # Per level, neighbor tuple posterior -> own prior (U, U), and ->
            # [prior | first moment] (U, 2U) for the final reconstruction.
            # F-ordered, as the transposes of C-ordered stacks, so every
            # product rounds as one with a per-level matrix does.
            self.prior_mix = mix_prob.transpose(0, 2, 1)
            self.final_mix = np.concatenate([mix_prob, mix_first], axis=1).transpose(0, 2, 1)

    def lik_rows(self, rows_u):
        """Channel likelihood rows of one source's word rows: (trials, U) in soft mode."""
        return self.word_lik[rows_u]

    def no_si_pass(self, lik):
        """lik: (rows, L) -> (posteriors, estimates); a row of zero mass gives zeros."""
        post = lik * self.prior_nosi[None, :]
        post = masked_ratio(post, post.sum(axis=1, keepdims=True))
        # einsum sums each row the same way whatever the row count; BLAS
        # gemv rounds a block's last rows (and a lone row) differently.
        return post, np.einsum("tl,l->t", post, self.codebook_nosi)

    def estimated_step(self, y, base, src):
        """One estimated-SI sweep of every node across the block's trials.

        ``y`` holds the SI level of each (node, trial)'s previous estimate;
        ``src`` is where each (node, trial) finds its SI source's entry of
        ``y``, and ``base`` its position in ``lookups`` at SI level 0.
        Returns the new (estimates, SI levels).
        """
        at = base + y.ravel()[src]
        return self.lookups.ravel()[at], self.lookup_si.ravel()[at]

    def soft_prior(self, posts_prev, groups_u, s_u, final=False, out=None):
        """SI source posterior -> own prior per trial, (trials, U).

        ``groups_u`` are node u's trial groups (:func:`_trial_groups`) and
        ``s_u`` its SI source in each trial.  With ``final`` the rows are
        [prior | first moment], (trials, 2U), from one product per group.
        The rows go to ``out`` if given.
        """
        mixes = self.final_mix if final else self.prior_mix
        _, trials, U = posts_prev.shape
        flat = posts_prev.reshape(-1, U)  # row s * trials + t: source s in trial t
        if out is None:
            out = np.empty((trials, mixes.shape[2]))
        for level, idx in groups_u:
            out[idx] = _row_product(np.take(flat, s_u[idx] * trials + idx, axis=0), mixes[level])
        return out

    def decode(self, words, pids, s_map):
        """(nodes, trials) estimates from the received words of every node.

        ``words`` is (trials, nodes, M), ``pids`` the (trials, nodes) loss
        pattern ids and ``s_map`` the (trials, nodes) SI source of each node,
        all of one block of trials.  The word rows of every node and trial
        are found in one call; the estimated-SI sweeps then move flat
        positions into the decoder's tables for all nodes at once, and the
        soft-SI sweeps group each node's trials by ladder level once and hold
        (nodes, trials, U) posteriors.  The sweeps stop after
        ``SYM_MAX_ITERS`` iterations, or once the largest change over the
        block's trials falls below ``SYM_TOL``: of the estimates
        (estimated-SI), or of the posteriors (soft-SI, which reconstructs
        once, after its last sweep).  Each block of a run stops on its own
        change, so where one block converges before another the result can
        differ from a one-block run; with ``SYM_TOL`` 0 every block runs
        ``SYM_MAX_ITERS`` iterations and the results do not depend on the
        block size.  Both are read at call time.
        """
        trials, n_nodes = pids.shape
        rows = word_rows(words, pids, self.channels, self.offsets).T
        if self.mode == "estimated":
            # Flat positions of each (node, trial): its lookup row at SI level 0
            # (at the table level of its SI pair), and its SI source's entry.
            n_rows, n_si = self.lookups.shape[1:]
            s_nodes = s_map.T
            levels = np.take_along_axis(self.level_matrix, s_nodes, axis=1)
            base = (levels * n_rows + rows) * n_si
            src = s_nodes * trials + np.arange(trials)
            ests, y = self.nosi_est[rows], self.nosi_si[rows]
            for _ in range(SYM_MAX_ITERS - 1):
                new_ests, y = self.estimated_step(y, base, src)
                delta = float(np.max(np.abs(new_ests - ests)))
                ests = new_ests
                if delta < SYM_TOL:
                    break
            return ests

        lik = [self.lik_rows(rows_u) for rows_u in rows]
        posts, ests = self.nosi_post[rows], self.nosi_est[rows]
        groups = [_trial_groups(self.level_matrix[u, s_map[:, u]]) for u in range(n_nodes)]
        rowsum, change = np.empty(trials), np.empty(posts.shape[1:])
        # Two posterior buffers alternate: the sweep writes ``new`` from
        # ``posts`` into ``prev``'s buffer, which no sweep reads, and after
        # the last sweep ``prev`` holds the posteriors behind the final priors.
        prev = posts
        for _ in range(SYM_MAX_ITERS - 1):
            new = np.empty_like(posts) if prev is posts else prev
            delta = 0.0
            for u in range(n_nodes):
                p = self.soft_prior(posts, groups[u], s_map[:, u], out=new[u])
                p *= lik[u]
                np.sum(p, axis=1, out=rowsum)
                np.maximum(rowsum, 1e-300, out=rowsum)
                p /= rowsum[:, None]
                np.abs(np.subtract(p, posts[u], out=change), out=change)
                delta = max(delta, float(change.max()))
            prev, posts = posts, new
            if delta < SYM_TOL:
                break
        if prev is posts:
            return ests
        del lik, change  # the reconstruction reads neither
        U = self.used.size
        xhat = np.empty_like(ests)
        for u in range(n_nodes):
            den_num = self.soft_prior(prev, groups[u], s_map[:, u], final=True)
            terms = posts[u] * masked_ratio(den_num[:, U:], den_num[:, :U])
            np.sum(terms, axis=1, out=xhat[u])
        return xhat
