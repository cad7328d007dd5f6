"""Joint iterative decoding of multiple correlated sources.

Each source is decoded by the asymmetric MMSE decoder while another source
serves as its side information.  The cross-source tables that couple two
sources are read off the same moment matrices S0/S1 as the stored decoder
tables (:func:`mdquant.codec.si_moment_matrices`, with the neighbor's
quantizer in the role of the SI quantizer).  Two variants are supported:

* estimated-SI: the neighbor's reconstructed value is quantized with the SI
  quantizer and used exactly like external side information;
* soft-SI: the neighbor's full posterior over index tuples is propagated
  through cross-source tables, avoiding the intermediate hard estimate.

Iteration 1 of both variants decodes every source without side information
(no posteriors or estimates exist yet); coupling starts at iteration 2.
Sweeps are synchronous: every source reads the neighbor state of the
previous iteration, which makes results independent of source ordering.

These are the per-symbol (single-trial) decoders; the Monte-Carlo
experiments in :mod:`mdquant.simulator` run the same sweeps vectorized over
trials and are tested against them.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .channel import ChannelOutcome
from .codec import CodecBundle, masked_ratio, si_moment_matrices
from .decode_asym import Posterior, decode, posterior, tuple_log_likelihood
from .gaussian import JointGaussianPair
from .gaussian import gauss_interval_moments_batch  # noqa: F401  (perfbench/spans.py patches this binding)
from .quantizer import cell_of


@dataclass(frozen=True)
class CrossSourceTables:
    """Dependency tables between a decoded source and its SI source.

    ``cell_cross[l, k]``      P(own cell l | neighbor cell k)
    ``cell_cross_m1[l, k]``   E[X 1{own cell l} | neighbor cell k]
    ``idx_given_cell[I, k]``  P(own tuple I | neighbor cell k)
    ``cent_given_cell[I, k]`` E[X | own tuple I, neighbor cell k]
    ``cell_given_idx[k, I]``  P(neighbor cell k | neighbor tuple I)
    ``mix_prob`` / ``mix_first`` contract the neighbor-cell axis against
    ``cell_given_idx`` so a neighbor tuple posterior maps straight to the own
    tuple prior and its first moment.
    """

    rho: float
    cell_cross: np.ndarray
    cell_cross_m1: np.ndarray
    idx_given_cell: np.ndarray
    cent_given_cell: np.ndarray
    cell_given_idx: np.ndarray
    mix_prob: np.ndarray
    mix_first: np.ndarray


def build_cross_tables(
    bundle_u: CodecBundle,
    bundle_s: CodecBundle,
    pair_us: JointGaussianPair,
    n_gauss: int = 16,
) -> CrossSourceTables:
    """Cross-source tables for decoding ``bundle_u`` with ``bundle_s`` as SI.

    ``pair_us`` holds the correlation between the two sources (own source on
    the X axis, neighbor on the Y axis).  ``cell_cross`` and ``cell_cross_m1``
    are the moment matrices S0/S1 with the neighbor's quantizer as SI
    quantizer, divided by the neighbor's cell probabilities.
    """
    qs = bundle_s.quantizer
    au, a_s = bundle_u.ia.table, bundle_s.ia.table
    s0, s1, _ = si_moment_matrices(bundle_u.quantizer, qs, pair_us, n_gauss)
    ps = np.maximum(qs.cell_probs, 1e-300)
    cell_cross, cell_cross_m1 = s0 / ps, s1 / ps

    idx_given_cell = au.T @ cell_cross  # (Lu, Ks)
    raw_first = au.T @ cell_cross_m1
    cent_given_cell = masked_ratio(raw_first, idx_given_cell)

    mass = a_s * qs.cell_probs[:, None]  # (Ks, Ls)
    cell_given_idx = masked_ratio(mass, mass.sum(axis=0)[None, :])

    mix_prob = idx_given_cell @ cell_given_idx
    mix_first = raw_first @ cell_given_idx
    return CrossSourceTables(
        rho=float(pair_us.rho),
        cell_cross=cell_cross,
        cell_cross_m1=cell_cross_m1,
        idx_given_cell=idx_given_cell,
        cent_given_cell=cent_given_cell,
        cell_given_idx=cell_given_idx,
        mix_prob=mix_prob,
        mix_first=mix_first,
    )


class CrossTableCache:
    """Lazy cache of cross tables for one shared codec.

    ``get`` serves the ladder-quantized levels used by the stored decoder;
    ``get_rho`` serves exact correlations (used by the SI selection criteria,
    which are not tied to the stored-table grid).
    """

    def __init__(self, bundle: CodecBundle, n_gauss: int = 16):
        self.bundle = bundle
        self.n_gauss = n_gauss
        self._by_level: dict[int, CrossSourceTables] = {}
        self._by_rho: dict[float, CrossSourceTables] = {}

    def get(self, level: int) -> CrossSourceTables:
        if level not in self._by_level:
            rho = float(self.bundle.ladder.levels[level])
            self._by_level[level] = self.get_rho(rho)
        return self._by_level[level]

    def get_rho(self, rho: float) -> CrossSourceTables:
        key = round(float(rho), 12)
        if key not in self._by_rho:
            self._by_rho[key] = build_cross_tables(
                self.bundle, self.bundle, JointGaussianPair(1.0, 1.0, key), self.n_gauss
            )
        return self._by_rho[key]


def soft_si_posterior(
    outcome_u: ChannelOutcome,
    neighbor_posterior: Posterior,
    cross: CrossSourceTables,
    channels,
) -> Posterior:
    """Own-tuple posterior using the neighbor's tuple posterior as soft SI."""
    prior = cross.mix_prob @ neighbor_posterior.probs
    loglik = tuple_log_likelihood(outcome_u, channels)
    with np.errstate(divide="ignore"):
        logpost = np.where(prior > 0, loglik + np.log(np.maximum(prior, 1e-300)), -np.inf)
    peak = logpost.max()
    if not np.isfinite(peak):
        raise ValueError("inconsistent tables")
    probs = np.exp(logpost - peak)
    return Posterior(probs / probs.sum())


def soft_si_reconstruct(
    posterior_u: Posterior,
    neighbor_posterior: Posterior,
    cross: CrossSourceTables,
) -> float:
    """MMSE estimate under soft SI; zero-prior tuples contribute nothing."""
    den = cross.mix_prob @ neighbor_posterior.probs
    num = cross.mix_first @ neighbor_posterior.probs
    return float(np.dot(posterior_u.probs, masked_ratio(num, den)))


@dataclass(frozen=True)
class SymmetricState:
    """Per-iteration decoder state for all sources (synchronous sweep)."""

    outcomes: tuple
    estimates: np.ndarray
    posteriors: tuple
    si_map: np.ndarray
    iteration: int

    def __post_init__(self):
        si = np.asarray(self.si_map, dtype=int)
        if si.size > 1 and np.any(si == np.arange(si.size)):
            raise ValueError("a source cannot be its own SI")
        object.__setattr__(self, "si_map", si)


def _no_si_pass(outcomes, bundle: CodecBundle, si_map) -> SymmetricState:
    posts = tuple(posterior(oc, None, None, bundle) for oc in outcomes)
    ests = np.array(
        [
            float(np.dot(p.probs, bundle.tables.codebook_nosi))
            for p in posts
        ]
    )
    return SymmetricState(tuple(outcomes), ests, posts, si_map, 1)


def estimated_si_iterate(
    state: SymmetricState,
    bundle: CodecBundle,
    level_matrix: np.ndarray,
) -> SymmetricState:
    """One synchronous estimated-SI sweep (neighbor estimates from ``state``)."""
    n = len(state.outcomes)
    new_est = np.empty(n)
    new_posts = []
    for u in range(n):
        s = int(state.si_map[u])
        level = int(level_matrix[u, s])
        y_level = cell_of(bundle.si_quantizer, float(state.estimates[s]))
        post = posterior(state.outcomes[u], y_level, level, bundle)
        new_posts.append(post)
        new_est[u] = float(
            np.dot(post.probs, bundle.tables.codebook[level, y_level])
        )
    return replace(
        state, estimates=new_est, posteriors=tuple(new_posts),
        iteration=state.iteration + 1,
    )


def _soft_iterate(state: SymmetricState, bundle, level_matrix, cache) -> SymmetricState:
    n = len(state.outcomes)
    new_posts = []
    for u in range(n):
        s = int(state.si_map[u])
        cross = cache.get(int(level_matrix[u, s]))
        new_posts.append(
            soft_si_posterior(
                state.outcomes[u], state.posteriors[s], cross, bundle.channels
            )
        )
    return replace(state, posteriors=tuple(new_posts), iteration=state.iteration + 1)


def run_decoder(
    outcomes,
    bundle: CodecBundle,
    si_map,
    level_matrix,
    mode: str = "soft",
    max_iters: int = 10,
    tol: float = 1e-6,
    cross_cache: CrossTableCache | None = None,
) -> tuple[np.ndarray, int]:
    """Iterate the joint decoder and return final estimates per source.

    ``mode`` is "estimated" or "soft".  Convergence is judged on the maximum
    change of the estimates (estimated-SI) or of the posteriors (soft-SI,
    whose reconstructions are only computed after the final sweep).
    """
    if mode not in ("estimated", "soft"):
        raise ValueError("mode must be 'estimated' or 'soft'")
    outcomes = tuple(outcomes)
    si_map = np.asarray(si_map, dtype=int)
    if len(outcomes) == 1:
        return np.array([decode(outcomes[0], None, None, bundle)]), 1

    state = _no_si_pass(outcomes, bundle, si_map)
    if mode == "estimated":
        for _ in range(max_iters - 1):
            nxt = estimated_si_iterate(state, bundle, level_matrix)
            delta = float(np.max(np.abs(nxt.estimates - state.estimates)))
            state = nxt
            if delta < tol:
                break
        return state.estimates, state.iteration

    cache = cross_cache or CrossTableCache(bundle)
    neighbor_src = state
    for _ in range(max_iters - 1):
        nxt = _soft_iterate(state, bundle, level_matrix, cache)
        delta = max(
            float(np.max(np.abs(a.probs - b.probs)))
            for a, b in zip(nxt.posteriors, state.posteriors)
        )
        neighbor_src = state
        state = nxt
        if delta < tol:
            break
    if state.iteration == 1:
        return state.estimates, state.iteration
    # Reconstruct with the neighbor posteriors that formed the final priors.
    ests = np.empty(len(outcomes))
    for u in range(len(outcomes)):
        s = int(state.si_map[u])
        cross = cache.get(int(level_matrix[u, s]))
        ests[u] = soft_si_reconstruct(
            state.posteriors[u], neighbor_src.posteriors[s], cross
        )
    return ests, state.iteration
