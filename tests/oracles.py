"""Reference implementations that only the tests use.

Grids and grid densities (the marginal and conditional laws of a source
given its SI included), the exact quantizer MSE, SI-conditional cell
probabilities, per-description likelihoods and per-symbol transmission, the
per-symbol decoders (asymmetric MMSE, estimated-SI and soft-SI joint,
partial-SI), the node-by-node estimated-SI sweeps of one block and its
full-width soft-SI sweeps, the moment matrices summed one quadrature node at
a time, the single-pass distortion, the unclamped annealing softmax, the
per-loss-pattern design quantities, the cell-level cross tables, the SI
selection scores of one pair of loss patterns and the per-trial selection
over every candidate, the whole-array AWGN decode of the asymmetric
experiment, its BSC decode under forced loss patterns, the serial annealing
restarts, the brute-force MMSE audit and the two rejected readings of the
rate-distortion bound, and the decoder tables built pair by pair.
They compute symbol by symbol, or from first principles, what the package
computes from moment matrices and lookup tables over all trials at once, so
the tests can check one against the other.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache
from itertools import product

import numpy as np
from scipy.special import ndtri

from mdquant.channel import (
    DescriptionChannel,
    bit_patterns,
    bpsk_symbols,
    derive_rng,
    hamming_table,
    loss_pattern_prob,
    loss_patterns,
    pattern_table,
    stacked_pattern_table,
    tuple_space,
    word_rows,
)
from mdquant import codec
from mdquant.codec import (
    PROB_FLOOR,
    CodecBundle,
    DesignContext,
    IndexAssignment,
    _AsymLookup,
    _anneal_once,
    build_decoder_tables,
    masked_ratio,
    si_moment_matrices,
)
from mdquant.decode_sym import (
    CrossSourceTables,
    _row_product,
    _trial_groups,
    build_cross_tables,
    cross_table_stack,
)
from mdquant.gaussian import RHO_LADDER, JointGaussianPair, _phi, gauss_interval_moments_batch
from mdquant.quantizer import ScalarQuantizer
from mdquant.rd_bound import BoundQuery, beta, side_bounds
from mdquant.simulator import _selection_score_tables

from conftest import simpson_nodes

# ---------------------------------------------------------------------------
# Deterministic grids and densities
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SampleGrid:
    """Deterministic quadrature grid: strictly increasing points plus weights."""

    points: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        wts = np.asarray(self.weights, dtype=float)
        if pts.ndim != 1 or wts.shape != pts.shape:
            raise ValueError("points and weights must be matching 1-D vectors")
        if np.any(np.diff(pts) <= 0):
            raise ValueError("grid points must be strictly increasing")
        if np.any(wts < 0):
            raise ValueError("quadrature weights must be nonnegative")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "weights", wts)

    @property
    def lo(self) -> float:
        return float(self.points[0])

    @property
    def hi(self) -> float:
        return float(self.points[-1])

    @classmethod
    def uniform(cls, lo: float = -6.0, hi: float = 6.0, n: int = 1201) -> "SampleGrid":
        """Uniform grid with composite-trapezoid weights."""
        if n < 2:
            raise ValueError("need at least two grid points")
        pts = np.linspace(lo, hi, n)
        h = (hi - lo) / (n - 1)
        wts = np.full(n, h)
        wts[0] = wts[-1] = h / 2.0
        return cls(pts, wts)


@lru_cache(maxsize=8)
def _cached_uniform(lo: float, hi: float, n: int) -> SampleGrid:
    return SampleGrid.uniform(lo, hi, n)


def default_grid() -> SampleGrid:
    """[-6, 6] in source std units, 1201 trapezoid points."""
    return _cached_uniform(-6.0, 6.0, 1201)


def integrate(grid: SampleGrid, values) -> float:
    """Weighted sum of sampled values over the grid."""
    values = np.asarray(values, dtype=float)
    if values.shape != grid.points.shape:
        raise ValueError("value vector length does not match grid")
    return float(np.dot(grid.weights, values))


@dataclass(frozen=True)
class GaussianSource:
    """Scalar Gaussian law N(mean, variance), for the grid densities."""

    mean: float = 0.0
    variance: float = 1.0

    @property
    def std(self) -> float:
        return float(np.sqrt(self.variance))

    def pdf(self, x):
        return _phi((np.asarray(x, dtype=float) - self.mean) / self.std) / self.std


def x_marginal(pair: JointGaussianPair) -> GaussianSource:
    """Marginal law of X."""
    return GaussianSource(0.0, pair.var_x)


def x_given_y(pair: JointGaussianPair, y: float) -> GaussianSource:
    """Law of X given Y=y: mean rho*y*sd_x/sd_y, variance var_x*(1-rho^2)."""
    mean = pair.rho * (np.sqrt(pair.var_x) / np.sqrt(pair.var_y)) * y
    var = pair.var_x * (1.0 - pair.rho ** 2)
    if var <= 0:  # |rho| == 1 degenerates; keep a tiny floor
        var = 1e-300
    return GaussianSource(float(mean), var)


def conditional_density(pair: JointGaussianPair, y: float, grid: SampleGrid) -> np.ndarray:
    """Density of X given Y=y evaluated at the grid points."""
    if not np.isfinite(y):
        raise ValueError("invalid SI value")
    if pair.rho == 0.0:
        return x_marginal(pair).pdf(grid.points)
    return x_given_y(pair, float(y)).pdf(grid.points)


def quantizer_mse(q: ScalarQuantizer) -> float:
    """Exact mean squared quantization error of q against the N(0, 1) source."""
    p, m1, m2 = gauss_interval_moments_batch(q.edges(), 0.0, 1.0)
    return float(np.sum(m2 - 2.0 * q.codewords * m1 + q.codewords ** 2 * p))


# ---------------------------------------------------------------------------
# SI-conditional cell probabilities
# ---------------------------------------------------------------------------


def cell_probs_given_si(
    q: ScalarQuantizer, pair: JointGaussianPair, y: float
) -> np.ndarray:
    """P(cell k | Y=y) for every cell: conditional Gaussian mass per cell."""
    if not np.isfinite(y):
        raise ValueError("invalid SI value")
    if pair.rho == 0.0:
        return q.cell_probs.copy()
    cond = x_given_y(pair, y)
    p, _, _ = gauss_interval_moments_batch(q.edges(), cond.mean, cond.std)
    return p


def si_cell_mass_given_x(
    q_si: ScalarQuantizer, pair: JointGaussianPair, x
) -> np.ndarray:
    """P(Y lands in each SI cell | X=x) for an array of x values, shape (n, N_si)."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    edges = q_si.edges()
    if pair.rho == 0.0:
        return np.broadcast_to(q_si.cell_probs, (x.size, q_si.size)).copy()
    sd = np.sqrt(pair.var_y * (1.0 - pair.rho ** 2))
    means = pair.rho * (np.sqrt(pair.var_y) / np.sqrt(pair.var_x)) * x
    p, _, _ = gauss_interval_moments_batch(edges, means, max(sd, 1e-300))
    return p


def si_conditional_density(
    q_si: ScalarQuantizer,
    pair: JointGaussianPair,
    si_level: int,
    grid: SampleGrid,
) -> np.ndarray:
    """Density of X given that Y fell in SI cell ``si_level``, on the grid.

    f(x | cell) = f(x) * P(Y in cell | X=x) / P(cell).
    """
    if not 0 <= si_level < q_si.size:
        raise ValueError("SI level out of range")
    p_cell = float(q_si.cell_probs[si_level])
    if p_cell < 1e-300:
        raise ValueError("degenerate SI cell")
    fx = x_marginal(pair).pdf(grid.points)
    if pair.rho == 0.0 or q_si.size == 1:
        return fx
    mass = si_cell_mass_given_x(q_si, pair, grid.points)[:, si_level]
    return fx * mass / p_cell


# ---------------------------------------------------------------------------
# Per-description channel model
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ChannelOutcome:
    """Realized channel outputs for one transmitted index tuple.

    ``received[m]`` is an int (BSC) or a float vector (AWGN) when flag m is
    True, and None when the description was lost.
    """

    received: tuple
    flags: np.ndarray

    def __post_init__(self):
        flags = np.asarray(self.flags, dtype=bool)
        if len(self.received) != flags.size:
            raise ValueError("payload count must match flag count")
        for payload, got in zip(self.received, flags):
            if got and payload is None:
                raise ValueError("received description missing payload")
            if not got and payload is not None:
                raise ValueError("lost description carries a payload")
        object.__setattr__(self, "flags", flags)


def sample_outcome(I, channels, rng: np.random.Generator) -> ChannelOutcome:
    """Transmit the index tuple I over all description channels once."""
    received = []
    flags = []
    for i_m, ch in zip(I, channels, strict=True):
        if not 0 <= int(i_m) < ch.index_count:
            raise ValueError("description index out of range")
        if rng.random() < ch.loss_prob:
            received.append(None)
            flags.append(False)
            continue
        flags.append(True)
        if ch.kind == "bsc":
            flips = rng.random(ch.bits) < ch.bit_error_rate
            bits = bit_patterns(ch.bits)[int(i_m)] ^ flips
            j = int(bits @ (1 << np.arange(ch.bits - 1, -1, -1)))
            received.append(j)
        else:
            sym = bpsk_symbols(ch.bits)[int(i_m)]
            noise = rng.normal(0.0, np.sqrt(ch.noise_psd / 2.0), ch.bits)
            received.append(sym + noise)
    return ChannelOutcome(tuple(received), np.array(flags))


def likelihood(j_m, i_m: int, q_m: bool, channel: DescriptionChannel) -> float:
    """P(J_m | I_m, Q_m) for a single description."""
    if not 0 <= int(i_m) < channel.index_count:
        raise ValueError("description index out of range")
    if not q_m:
        return 1.0 / channel.index_count
    if channel.kind == "bsc":
        if not isinstance(j_m, (int, np.integer)):
            raise ValueError("BSC channel expects an integer received index")
        if not 0 <= int(j_m) < channel.received_alphabet:
            raise ValueError("received index out of range")
        d = int(hamming_table(channel.bits)[int(i_m), int(j_m)])
        p = channel.bit_error_rate
        return float(p ** d * (1.0 - p) ** (channel.bits - d))
    j_m = np.asarray(j_m, dtype=float)
    if j_m.shape != (channel.bits,):
        raise ValueError("AWGN payload length must equal the bit count")
    sym = bpsk_symbols(channel.bits)[int(i_m)]
    # Unnormalized: the 1/sqrt(pi*N0)^bits prefactor cancels in every
    # posterior, and dropping it avoids per-symbol ambiguity.
    return float(np.exp(-np.sum((sym - j_m) ** 2) / channel.noise_psd))


def joint_likelihood(J, I, Q, channels) -> float:
    """Product of per-description likelihoods (independent channels)."""
    Q = np.asarray(Q, dtype=bool)
    if not (len(J) == len(I) == Q.size == len(channels)):
        raise ValueError("inconsistent lengths")
    prob = 1.0
    for j_m, i_m, q_m, ch in zip(J, I, Q, channels):
        prob *= likelihood(j_m, int(i_m), bool(q_m), ch)
    return float(prob)


def flatten_tuples(space, indices) -> np.ndarray:
    """Row-major tuple id from per-description indices, shape (..., M) -> (...)."""
    indices = np.asarray(indices, dtype=int)
    out = np.zeros(indices.shape[:-1], dtype=int)
    for m, n in enumerate(space.counts):
        out = out * n + indices[..., m]
    return out


# ---------------------------------------------------------------------------
# Per-symbol asymmetric decoder
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Posterior:
    """Normalized distribution over index tuples given (Y, Q, J)."""

    probs: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.probs, dtype=float)
        if abs(p.sum() - 1.0) > 1e-9 or np.any(p < 0):
            raise ValueError("posterior must be a distribution")
        object.__setattr__(self, "probs", p)


def tuple_log_likelihood(outcome: ChannelOutcome, channels) -> np.ndarray:
    """log P(J | I, Q) for every index tuple, up to a common constant.

    Lost descriptions contribute the constant 1/N and are dropped; for AWGN
    the Gaussian prefactor is likewise dropped.  Impossible tuples map to
    -inf.
    """
    space = tuple_space(channels)
    loglik = np.zeros(space.size)
    for m, (payload, got, ch) in enumerate(
        zip(outcome.received, outcome.flags, channels)
    ):
        if not got:
            continue
        if ch.kind == "bsc":
            col = ch.bsc_likelihood_matrix()[:, int(payload)]
            with np.errstate(divide="ignore"):
                ll_m = np.log(col)
        else:
            sym = bpsk_symbols(ch.bits)[: ch.index_count]
            ll_m = -np.sum((sym - np.asarray(payload)[None, :]) ** 2, axis=1) / ch.noise_psd
        loglik += ll_m[space.component(m)]
    return loglik


_LADDER_TABLES: dict = {}


def ladder_tables(bundle: CodecBundle):
    """``build_decoder_tables`` of ``bundle`` at every ``RHO_LADDER`` level, built once per bundle.

    Entry ``level`` is the table a decoder builds for that ladder level.
    """
    kept = _LADDER_TABLES.get(id(bundle))
    if kept is None or kept[0] is not bundle:
        tables = build_decoder_tables(
            bundle.quantizer, bundle.si_quantizer, bundle.ia, RHO_LADDER
        )
        kept = _LADDER_TABLES[id(bundle)] = (bundle, tables)
    return kept[1]


def _prior_and_codebook(bundle: CodecBundle, si_level, rho_level):
    t = ladder_tables(bundle)
    if si_level is None or rho_level is None:
        return t.prior_nosi, t.codebook_nosi
    return t.prior[rho_level, si_level], t.codebook[rho_level, si_level]


def posterior(outcome: ChannelOutcome, si_level, rho_level, bundle: CodecBundle) -> Posterior:
    """A posteriori tuple probabilities; ``si_level`` None decodes without SI."""
    prior, _ = _prior_and_codebook(bundle, si_level, rho_level)
    loglik = tuple_log_likelihood(outcome, bundle.channels)
    with np.errstate(divide="ignore"):
        logpost = loglik + np.log(np.where(prior > 0, prior, 1e-300))
    logpost = np.where(prior > 0, logpost, -np.inf)
    peak = logpost.max()
    if not np.isfinite(peak):
        raise ValueError("inconsistent tables")
    probs = np.exp(logpost - peak)
    return Posterior(probs / probs.sum())


def reconstruct(post: Posterior, si_level, rho_level, bundle: CodecBundle) -> float:
    """MMSE estimate: posterior-weighted sum of stored codebook entries."""
    _, codebook = _prior_and_codebook(bundle, si_level, rho_level)
    return float(np.dot(post.probs, codebook))


def decode(outcome, si_level, rho_level, bundle) -> float:
    """Posterior + reconstruction in one call; the reference for ``codec._AsymLookup``."""
    return reconstruct(posterior(outcome, si_level, rho_level, bundle), si_level, rho_level, bundle)


# ---------------------------------------------------------------------------
# Per-symbol joint decoder
# ---------------------------------------------------------------------------
#
# Iteration 1 of both variants decodes every source without side information;
# coupling starts at iteration 2.  Sweeps are synchronous: every source reads
# the neighbor state of the previous iteration.  The reference for
# ``decode_sym._SymDecoder.decode``.


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
    ests = np.array([float(np.dot(p.probs, ladder_tables(bundle).codebook_nosi)) for p in posts])
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
        y_level = int(bundle.si_quantizer.cells(state.estimates[s]))
        post = posterior(state.outcomes[u], y_level, level, bundle)
        new_posts.append(post)
        new_est[u] = float(np.dot(post.probs, ladder_tables(bundle).codebook[level, y_level]))
    return replace(
        state, estimates=new_est, posteriors=tuple(new_posts),
        iteration=state.iteration + 1,
    )


def _soft_iterate(state: SymmetricState, bundle, level_matrix, cross_tables) -> SymmetricState:
    new_posts = []
    for u in range(len(state.outcomes)):
        s = int(state.si_map[u])
        cross = cross_tables[int(level_matrix[u, s])]
        new_posts.append(
            soft_si_posterior(state.outcomes[u], state.posteriors[s], cross, bundle.channels)
        )
    return replace(state, posteriors=tuple(new_posts), iteration=state.iteration + 1)


def ladder_cross_tables(bundle: CodecBundle, levels) -> dict:
    """``build_cross_tables`` of the codec with itself, one per ladder level.

    Each level's correlation is rounded to 12 decimals, as the joint decoder
    rounds it.
    """
    tables = {}
    for level in levels:
        rho = round(float(RHO_LADDER[level]), 12)
        tables[int(level)] = build_cross_tables(bundle, JointGaussianPair(1.0, 1.0, rho))
    return tables


def run_decoder(
    outcomes,
    bundle: CodecBundle,
    si_map,
    level_matrix,
    mode: str = "soft",
    max_iters: int = 10,
    tol: float = 1e-6,
    cross_tables: dict | None = None,
) -> tuple[np.ndarray, int]:
    """Iterate the joint decoder and return final estimates per source.

    ``mode`` is "estimated" or "soft".  Convergence is judged on the maximum
    change of the estimates (estimated-SI) or of the posteriors (soft-SI,
    whose reconstructions are only computed after the final sweep).  The
    soft-SI decoder reads ``cross_tables[level]``; without them it builds
    :func:`ladder_cross_tables` for the levels of ``level_matrix``.
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

    if cross_tables is None:
        cross_tables = ladder_cross_tables(bundle, np.unique(level_matrix))
    neighbor_src = state
    for _ in range(max_iters - 1):
        nxt = _soft_iterate(state, bundle, level_matrix, cross_tables)
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
        cross = cross_tables[int(level_matrix[u, s])]
        ests[u] = soft_si_reconstruct(state.posteriors[u], neighbor_src.posteriors[s], cross)
    return ests, state.iteration


def estimated_sweeps(dec, words, pids, s_map, max_iters: int, tol: float) -> np.ndarray:
    """(nodes, trials) estimated-SI estimates of one block, node by node and sweep by sweep.

    The reference for the whole-block gathers of ``decode_sym._SymDecoder``
    (``dec``), with its ``decode`` arguments.  Each node's no-SI pass
    normalises the likelihood rows of its trials; each later sweep quantizes
    the previous estimate of every trial's SI source (``si_quantizer.cells``)
    and reads the node's lookup at the pair's table level and that SI level.
    The sweeps stop after ``max_iters`` iterations, or once the largest change
    of the estimates falls below ``tol``.
    """
    trials, n_nodes = pids.shape
    rows = [word_rows(words[:, u], pids[:, u], dec.channels, dec.offsets) for u in range(n_nodes)]
    ests = np.empty((n_nodes, trials))
    for u in range(n_nodes):
        post = dec.word_lik[rows[u]] * dec.prior_nosi[None, :]
        post /= post.sum(axis=1, keepdims=True)
        ests[u] = np.einsum("tl,l->t", post, dec.codebook_nosi)
    for _ in range(max_iters - 1):
        new = np.empty_like(ests)
        for u in range(n_nodes):
            s_u = s_map[:, u]
            y_levels = dec.bundle.si_quantizer.cells(ests[s_u, np.arange(trials)])
            new[u] = dec.lookups[dec.level_matrix[u, s_u], rows[u], y_levels]
        delta = float(np.max(np.abs(new - ests)))
        ests = new
        if delta < tol:
            break
    return ests


def soft_sweeps(dec, words, pids, s_map, max_iters: int, tol: float) -> np.ndarray:
    """(nodes, trials) soft-SI estimates of one block, over every index tuple.

    The reference for the used-tuple sweeps of ``decode_sym._SymDecoder``
    (``dec``), with its ``decode`` arguments.  It builds its tables over all
    L tuples: the channel likelihood and no-SI posterior of every word row,
    and one cross-table stack at the correlations of the decoder's levels.
    Each sweep maps every trial's SI source posterior through the mixing
    matrix of the pair's level to the node's prior, one product per (node,
    level) group, and normalises prior times likelihood.  Its two row sums,
    the normaliser and the final posterior mean, run over the decoder's used
    tuples ``dec.used`` as the decoder's do; every other entry is zero, so
    only their rounding depends on it.  The sweeps stop after
    ``max_iters`` iterations, or once the largest change of the posteriors
    falls below ``tol``; the estimate is then the posterior mean of the
    first moments that the final priors' neighbor posteriors give.
    """
    trials, n_nodes = pids.shape
    L = tuple_space(dec.channels).size
    stacked, _ = stacked_pattern_table(dec.channels)
    word_lik = np.ascontiguousarray(stacked.T)
    cross = cross_table_stack(dec.bundle, [round(float(v), 12) for v in RHO_LADDER[dec.levels]])
    prior_mix = cross.mix_prob.transpose(0, 2, 1)
    final_mix = np.concatenate([cross.mix_prob, cross.mix_first], axis=1).transpose(0, 2, 1)
    rows = [word_rows(words[:, u], pids[:, u], dec.channels, dec.offsets) for u in range(n_nodes)]
    lik = [word_lik[rows_u] for rows_u in rows]
    posts, ests = np.empty((n_nodes, trials, L)), np.empty((n_nodes, trials))
    for u in range(n_nodes):
        post = lik[u] * dec.prior_nosi[None, :]
        posts[u] = masked_ratio(post, post.sum(axis=1, keepdims=True))
        ests[u] = np.einsum("tl,l->t", posts[u], dec.codebook_nosi)
    groups = [_trial_groups(dec.level_matrix[u, s_map[:, u]]) for u in range(n_nodes)]

    def priors(posts_prev, u, mixes):
        s_u = s_map[:, u]
        out = np.empty((trials, mixes.shape[2]))
        for level, idx in groups[u]:
            out[idx] = _row_product(posts_prev[s_u[idx], idx], mixes[level])
        return out

    prev = posts
    for _ in range(max_iters - 1):
        new = np.empty_like(posts)
        delta = 0.0
        for u in range(n_nodes):
            p = np.multiply(lik[u], priors(posts, u, prior_mix), out=new[u])
            p /= np.maximum(p[:, dec.used].sum(axis=1, keepdims=True), 1e-300)
            delta = max(delta, float(np.max(np.abs(p - posts[u]))))
        prev, posts = posts, new
        if delta < tol:
            break
    if prev is posts:
        return ests
    for u in range(n_nodes):
        den_num = priors(prev, u, final_mix)
        terms = posts[u] * masked_ratio(den_num[:, L:], den_num[:, :L])
        ests[u] = terms[:, dec.used].sum(axis=1)
    return ests


# ---------------------------------------------------------------------------
# Per-symbol partial-SI decoder
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CellCrossTables:
    """Cell-level statistics of a source and its SI source, both of one codec.

    ``cell_cross[l, k]``      P(own cell l | neighbor cell k)
    ``cell_cross_m1[l, k]``   E[X 1{own cell l} | neighbor cell k]
    ``idx_given_cell[I, k]``  P(own tuple I | neighbor cell k)
    ``cell_given_idx[k, I]``  P(neighbor cell k | neighbor tuple I)
    """

    cell_cross: np.ndarray
    cell_cross_m1: np.ndarray
    idx_given_cell: np.ndarray
    cell_given_idx: np.ndarray


def cell_cross_tables(bundle: CodecBundle, pair: JointGaussianPair) -> CellCrossTables:
    """The cell-level tables of two sources running ``bundle`` at ``pair``'s correlation.

    S0/S1 of ``codec.si_moment_matrices`` with the codec's quantizer as SI
    quantizer, divided by its cell probabilities, as the soft-SI mixing
    matrices of ``decode_sym.build_cross_tables`` divide them.
    """
    q, a = bundle.quantizer, bundle.ia.table
    s0, s1, _ = si_moment_matrices(q, q, pair)
    ps = np.maximum(q.cell_probs, 1e-300)
    mass = a * q.cell_probs[:, None]
    return CellCrossTables(
        cell_cross=s0 / ps,
        cell_cross_m1=s1 / ps,
        idx_given_cell=a.T @ (s0 / ps),
        cell_given_idx=masked_ratio(mass, mass.sum(axis=0)[None, :]),
    )


def _neighbor_cell_posterior(outcome_t: ChannelOutcome, bundle_t: CodecBundle) -> np.ndarray:
    """P(neighbor cell | its received words): prior cell mass times channel evidence."""
    lik = np.exp(tuple_log_likelihood(outcome_t, bundle_t.channels))
    w = bundle_t.quantizer.cell_probs * (bundle_t.ia.table @ lik)
    total = w.sum()
    if total <= 0:
        raise ValueError("inconsistent tables")
    return w / total


def cent_given_cell(bundle: CodecBundle, cells: CellCrossTables) -> np.ndarray:
    """(L, K) centroids E[X | own tuple I, neighbor cell k] of the cell tables ``cells``."""
    return masked_ratio(bundle.ia.table.T @ cells.cell_cross_m1, cells.idx_given_cell)


def partial_si_reconstruct(
    outcome_u: ChannelOutcome,
    outcome_t: ChannelOutcome,
    bundle_u: CodecBundle,
    bundle_t: CodecBundle,
    cells: CellCrossTables,
) -> float:
    """MMSE estimate of source u using the neighbor's raw received words as SI.

    The decoder whose expected distortion ``si_select.score_tables`` scores
    for the "min_distortion" selection.
    """
    w = _neighbor_cell_posterior(outcome_t, bundle_t)
    prior = cells.idx_given_cell @ w
    first = (cells.idx_given_cell * cent_given_cell(bundle_u, cells)) @ w
    lik = np.exp(tuple_log_likelihood(outcome_u, bundle_u.channels))
    post = lik * prior
    total = post.sum()
    if total <= 0:
        raise ValueError("inconsistent tables")
    post /= total
    return float(np.dot(post, masked_ratio(first, prior)))


# ---------------------------------------------------------------------------
# Whole-array asymmetric AWGN decode
# ---------------------------------------------------------------------------


def asym_awgn_errors(bundle: CodecBundle, channels, x, tuple_ids, si_levels, level, seed):
    """Squared errors of the AWGN decode over all trials at once.

    Draws the loss flags and the bit uniforms of description m in one call
    each from the ``(seed, 2, 2m + 1)`` and ``(seed, 2, 2m)`` streams, takes
    the N(0, N0 / 2) noise as sqrt(N0 / 2) ndtri(u) of each uniform u, raised
    to at least 2^-53 (the smallest nonzero draw), and keeps every
    (trials, tuples) array whole; the reference for the blocked
    ``simulator._run_asym_awgn``.  ``level`` is a ``RHO_LADDER`` level.
    """
    t = ladder_tables(bundle)
    space = tuple_space(channels)
    n = x.size
    prior = t.prior[level][si_levels]  # (n, L)
    codebook = t.codebook[level][si_levels]
    loglik = np.zeros((n, space.size))
    for m, ch in enumerate(channels):
        idx = space.component(m)[tuple_ids]
        noise_rng = derive_rng(seed, 2, 2 * m)
        loss_rng = derive_rng(seed, 2, 2 * m + 1)
        received = loss_rng.random(n) >= ch.loss_prob
        sym = bpsk_symbols(ch.bits)[: ch.index_count]
        sent = sym[idx]
        noise = ndtri(np.maximum(noise_rng.random(sent.shape), 2.0**-53))
        out = sent + np.sqrt(ch.noise_psd / 2.0) * noise
        ll = 2.0 * (out @ sym.T) / ch.noise_psd
        ll[~received] = 0.0
        loglik += ll[:, space.component(m)]
    with np.errstate(divide="ignore"):
        lp = loglik + np.where(prior > 0, np.log(np.maximum(prior, 1e-300)), -np.inf)
    lp -= lp.max(axis=1, keepdims=True)
    post = np.exp(lp)
    post /= post.sum(axis=1, keepdims=True)
    return (x - np.sum(post * codebook, axis=1)) ** 2


# ---------------------------------------------------------------------------
# Forced-pattern asymmetric BSC decode
# ---------------------------------------------------------------------------


def forced_pattern_errors(cfg, channels, patterns) -> np.ndarray:
    """(patterns, trials) squared errors of the BSC lookup decode under forced loss patterns.

    Draws the source, its SI and the flips of description m whole, from the
    streams ``run_asym_experiment`` uses (``(seed, 1)`` and
    ``(seed, 2, 2m)``), and decodes every trial's received words as if loss
    pattern ``patterns[i]`` (a position in ``loss_patterns``) had occurred.
    The means estimate ``codec._AsymLookup.pattern_distortions``: this is
    the Monte-Carlo reference for the exact d_side and d_central of the
    asymmetric experiment, which decoded these arrays until it computed them
    exactly.
    """
    bundle = cfg.bundle
    n = cfg.trials
    rng = derive_rng(cfg.seed, 1)
    x = rng.standard_normal(n)
    z = rng.standard_normal(n)
    tuple_ids = bundle.ia.hard_map()[bundle.quantizer.cells(x)]
    rho = cfg.rho_real
    si_levels = bundle.si_quantizer.cells(rho * x + np.sqrt(1.0 - rho**2) * z)
    level = bundle.rho_level(rho if cfg.rho_dec is None else cfg.rho_dec)
    lookup = _AsymLookup(bundle, ladder_tables(bundle), channels, level)
    space = tuple_space(channels)
    words = np.empty((n, len(channels)), dtype=int)
    for m, ch in enumerate(channels):
        flips = derive_rng(cfg.seed, 2, 2 * m).random((n, ch.bits)) < ch.bit_error_rate
        words[:, m] = space.component(m)[tuple_ids] ^ (flips @ (1 << np.arange(ch.bits)[::-1]))
    errs = np.empty((len(patterns), n))
    for out, p in zip(errs, patterns):
        rows = word_rows(words, np.full(n, p), channels, lookup.offsets)
        out[:] = (x - lookup.table[rows, si_levels]) ** 2
    return errs


# ---------------------------------------------------------------------------
# Decoder tables
# ---------------------------------------------------------------------------


def ranked_moment_stack(quantizer: ScalarQuantizer, si_quantizer: ScalarQuantizer, rhos):
    """``codec.si_moment_stack``, with every node added to its SI level on its own.

    The reference for the per-level reductions of the package: per node
    chunk, step j adds the j-th node of every SI level present to that
    level's running sum, one fancy-indexed addition per step.
    """
    edges = quantizer.edges()
    K = quantizer.size
    rhos = np.clip(np.asarray(rhos, dtype=float).reshape(-1), -codec.RHO_CAP, codec.RHO_CAP)
    n_levels = si_quantizer.size
    out = np.zeros((3, rhos.size, K, n_levels))
    coupled = np.flatnonzero(rhos != 0.0) if n_levels > 1 else np.array([], dtype=int)
    marginal = np.setdiff1d(np.arange(rhos.size), coupled)
    if marginal.size:
        w = si_quantizer.cell_probs[None, :]
        for i, m in enumerate(gauss_interval_moments_batch(edges, 0.0, 1.0)):
            out[i, marginal] = m[:, None] * w
    if not coupled.size:
        return out[0], out[1], out[2]

    nodes, wts, owner = codec._si_panels(si_quantizer)
    fy = np.exp(-0.5 * nodes ** 2) / np.sqrt(2 * np.pi)
    wts = (wts * fy)[:, None, None]
    cond_sd = np.array([np.sqrt(1.0 - r ** 2) for r in rhos[coupled]])
    mean_slope = rhos[coupled]

    chunk = max(1, codec.MOMENT_CHUNK // max(K, 1))
    node_step = min(nodes.size, chunk)
    rho_step = max(1, chunk // nodes.size)
    steps = []
    for start in range(0, nodes.size, node_step):
        own = owner[start:start + node_step]
        rank = np.arange(own.size) - np.searchsorted(own, own)
        picks = [np.flatnonzero(rank == j) for j in range(rank.max() + 1)]
        steps.append((slice(start, start + own.size), [(at, own[at]) for at in picks]))
    for r0 in range(0, coupled.size, rho_step):
        rs = slice(r0, r0 + rho_step)
        acc = np.zeros((3, n_levels, mean_slope[rs].size, K))  # (moment, level, rho, cell)
        for sl, picks in steps:
            cond_means = nodes[sl, None] * mean_slope[None, rs]
            moments = gauss_interval_moments_batch(edges, cond_means, cond_sd[rs])
            for a, m in zip(acc, moments):
                vals = m * wts[sl]
                for at, levels in picks:
                    a[levels] += vals[at]
        out[:, coupled[rs]] = codec._clean_moments(*acc.transpose(0, 2, 3, 1))
    return out[0], out[1], out[2]


def pair_nosi_tables(quantizer: ScalarQuantizer, table: np.ndarray, sd_x: float = 1.0):
    """No-SI prior P(I) and codebook E[X | I] of a source with std ``sd_x``."""
    p, m1, _ = gauss_interval_moments_batch(quantizer.edges(), 0.0, sd_x)
    prior = table.T @ p
    first = table.T @ m1
    return np.where(prior > PROB_FLOOR, prior, 0.0), masked_ratio(first, prior, PROB_FLOOR)


def pair_tables(quantizer, si_quantizer, table: np.ndarray, pair: JointGaussianPair):
    """(S, L) prior P(I | y) and codebook E[X | I, y] of one source/SI pair.

    At rho = 0 every SI level repeats the no-SI tables.  Elsewhere the tables
    come from the pair's own moment matrices.
    """
    if pair.rho == 0.0:
        prior, codebook = pair_nosi_tables(quantizer, table, np.sqrt(pair.var_x))
        reps = (si_quantizer.size, 1)
        return np.tile(prior, reps), np.tile(codebook, reps)
    s0, s1, _ = si_moment_matrices(quantizer, si_quantizer, pair)
    joint = table.T @ s0
    first = table.T @ s1
    psi = joint.sum(axis=0)
    zero = joint <= PROB_FLOOR
    prior = np.where(zero, 0.0, joint / np.maximum(psi[None, :], 1e-300))
    return prior.T, masked_ratio(first, joint, PROB_FLOOR).T


def pairwise_decoder_tables(quantizer, si_quantizer, ia: IndexAssignment, pairs) -> dict:
    """Every table of ``build_decoder_tables``, built pair by pair."""
    tables = [pair_tables(quantizer, si_quantizer, ia.table, pair) for pair in pairs]
    prior_nosi, codebook_nosi = pair_nosi_tables(quantizer, ia.table, np.sqrt(pairs[0].var_x))
    return {
        "rho_values": np.array([pair.rho for pair in pairs]),
        "prior": np.stack([t[0] for t in tables]),
        "codebook": np.stack([t[1] for t in tables]),
        "prior_nosi": prior_nosi,
        "codebook_nosi": codebook_nosi,
    }


# ---------------------------------------------------------------------------
# Distortion and annealing weights
# ---------------------------------------------------------------------------


def distortion_direct(ctx: DesignContext, table: np.ndarray, state=None) -> float:
    """Single-pass expectation E[(X - Xhat)^2] without the SE/Ch split."""
    if state is None:
        state = ctx.decoder_state(table)
    return float(np.sum(table * ctx.weights(state)))


def gibbs_update_unclamped(weights, T: float, cell_probs) -> np.ndarray:
    """The rows of ``codec.gibbs_update`` with ``np.exp`` taken at every exponent, none clamped."""
    p = np.maximum(np.asarray(cell_probs, dtype=float), 1e-300)
    expo = -np.asarray(weights, dtype=float) / (T * p[:, None])
    expo -= expo.max(axis=1, keepdims=True)
    rows = np.exp(expo)
    rows /= rows.sum(axis=1, keepdims=True)
    rows[rows < PROB_FLOOR] = 0.0
    return rows


def serial_restarts(ctx: DesignContext, restarts: int, seed: int):
    """Every restart of ``design_annealed`` in this process, and the best of them.

    Returns ``(results, best)``: the ``(hard_ia, hard, info)`` of each
    restart in order, ``hard`` the hardened table's ``DistortionBreakdown``,
    and ``(hard_ia, hard, info, restart)`` of the first restart whose hardened
    d_av lies within ``codec.RESTART_TIE_RTOL`` (relative) of the lowest.
    """
    results = [_anneal_once(ctx, derive_rng(seed, r)) for r in range(restarts)]
    lowest = min(hard.d_av for _, hard, _ in results)
    for restart, (hard_ia, hard, info) in enumerate(results):
        if hard.d_av - lowest <= codec.RESTART_TIE_RTOL * lowest:
            return results, (hard_ia, hard, info, restart)


def da_weights(
    quantizer: ScalarQuantizer,
    si_quantizer: ScalarQuantizer,
    ia: IndexAssignment,
    pair: JointGaussianPair,
    channels,
) -> np.ndarray:
    """Annealing weight matrix with reconstructions built from ``ia``."""
    ctx = DesignContext(quantizer, si_quantizer, pair, channels)
    return ctx.weights(ctx.decoder_state(ia.table))


def per_pattern_lookups(pattern_tables, joint, first) -> list:
    """Posterior-mean lookup per loss pattern, ``xhat[p][j, y]``, one product each."""
    return [masked_ratio(t.T @ first, t.T @ joint, PROB_FLOOR) for t in pattern_tables]


def per_pattern_design(ctx: DesignContext, table: np.ndarray):
    """``(d_se, d_ch, weights, lookups)`` of ``table`` with a loop over loss patterns.

    The reference for the stacked products of :class:`DesignContext`: each
    pattern's likelihood table contracts its own small matrices, and the
    channel distortion and the annealing weights accumulate pattern by
    pattern.
    """
    patterns = loss_patterns(len(ctx.channels))
    pattern_tables = [pattern_table(ctx.channels, q) for q in patterns]
    joint = table.T @ ctx.s0
    first = table.T @ ctx.s1
    second = table.T @ ctx.s2
    xhats = per_pattern_lookups(pattern_tables, joint, first)
    pos = joint > PROB_FLOOR
    d_se = float(second.sum() - np.sum(first[pos] ** 2 / joint[pos]))
    d_ch = 0.0
    a1 = np.zeros((ctx.space.size, ctx.quantizer.size))
    a0 = np.zeros_like(a1)
    for q, pt, xhat in zip(patterns, pattern_tables, xhats):
        pq = loss_pattern_prob(q, ctx.channels)
        e2 = pt.T @ masked_ratio(first**2, joint, PROB_FLOOR)
        num = pt.T @ first
        den = pt.T @ joint
        d_ch += pq * float(np.sum(e2 - 2.0 * num * xhat + den * xhat**2))
        a1 += pq * (pt @ (xhat @ ctx.s1.T))
        a0 += pq * (pt @ ((xhat**2) @ ctx.s0.T))
    weights = (ctx.s2.sum(axis=1)[None, :] - 2.0 * a1 + a0).T
    return d_se, max(d_ch, 0.0), weights, xhats


# ---------------------------------------------------------------------------
# SI selection scores, one pair of loss patterns at a time
# ---------------------------------------------------------------------------


def _entropy_of_positive(p) -> float:
    p = np.ravel(p)
    p = p[p > 0]
    return float(-np.sum(p * np.log2(p)))


def per_pair_mi(bundle_u, bundle_t, cells, q_u, q_t) -> float:
    """Mutual information (bits) of the received words for one pair of loss patterns.

    ``cells`` are the :func:`cell_cross_tables` of the pair.
    """
    t_u = pattern_table(bundle_u.channels, q_u)
    t_t = pattern_table(bundle_t.channels, q_t)
    g_u = bundle_u.ia.table @ t_u  # P(J_u | own cell)
    g_t = bundle_t.ia.table @ t_t
    p_cells_t = bundle_t.quantizer.cell_probs
    cell_joint = cells.cell_cross * p_cells_t[None, :]
    pj_u = g_u.T @ cell_joint.sum(axis=1)
    pj_t = g_t.T @ p_cells_t
    joint = g_u.T @ cell_joint @ g_t
    mi = _entropy_of_positive(pj_u) + _entropy_of_positive(pj_t) - _entropy_of_positive(joint)
    return max(mi, 0.0)


def per_pair_partial_si_distortion(bundle, cells, q_u, q_t, var_x: float = 1.0) -> float:
    """E[(X - Xhat)^2] of the partial-SI decoder for one pair of loss patterns.

    ``cells`` are the :func:`cell_cross_tables` of the pair.
    """
    t_u = pattern_table(bundle.channels, q_u)  # (L, nJu)
    t_t = pattern_table(bundle.channels, q_t)
    a = bundle.ia.table
    p_cells = bundle.quantizer.cell_probs
    g_u, g_t = a @ t_u, a @ t_t
    pjj = g_u.T @ (cells.cell_cross * p_cells[None, :]) @ g_t  # P(J_u, J_t)
    njj = g_u.T @ (cells.cell_cross_m1 * p_cells[None, :]) @ g_t  # E[X 1{J_u, J_t}]
    w_cells = p_cells[:, None] * g_t  # unnormalized neighbor cell posterior
    den = t_u.T @ (cells.idx_given_cell @ w_cells)
    num = t_u.T @ ((cells.idx_given_cell * cent_given_cell(bundle, cells)) @ w_cells)
    xhat = masked_ratio(num, den)
    d = var_x - 2.0 * np.sum(njj * xhat) + np.sum(pjj * xhat**2)
    return max(float(d), 0.0)


def loop_select(cfg, pids):
    """(trials, N) SI picks of a per-candidate loop over all N - 1 other nodes.

    The reference for ``simulator._select_maps``, which scores only each
    node's ``SI_CANDIDATES`` most correlated candidates.  Equal scores go to
    the more correlated candidate, equal correlations to the lower index.
    """
    n = cfg.scenario.n_nodes
    rho = cfg.scenario.pairwise_rho
    keys = sorted({round(float(rho[u, t]), 12) for u in range(n) for t in range(n) if t != u})
    tables = _selection_score_tables(cfg.bundle, keys, cfg.si_method)
    mi = cfg.si_method == "mutual_info"
    smap = np.empty(pids.shape, dtype=int)
    for u in range(n):
        order = sorted((t for t in range(n) if t != u), key=lambda t: (-rho[u, t], t))
        scores = np.empty((pids.shape[0], n - 1))
        for j, t in enumerate(order):
            tab = tables[keys.index(round(float(rho[u, t]), 12))]
            scores[:, j] = tab[pids[:, u], pids[:, t]]
        smap[:, u] = np.array(order)[(np.argmax if mi else np.argmin)(scores, axis=1)]
    return smap


# ---------------------------------------------------------------------------
# Brute-force optimality audit
# ---------------------------------------------------------------------------


def mse_optimality_check(
    bundle: CodecBundle,
    rho_level: int = 0,
    clip: float = 8.0,
    n_points: int = 801,
) -> float:
    """Max |decoder - E[X | SI level, Q, J]| over every discrete decoder input.

    The decoder is the package's lookup, ``codec._AsymLookup``.  The
    conditional mean is computed from first principles: Simpson panels per
    quantizer cell, explicit SI-cell masses, and full enumeration of loss
    patterns and received words.  Intended for tiny (K <= 4, L <= 4) BSC
    instances.
    """
    q = bundle.quantizer
    q_si = bundle.si_quantizer
    channels = bundle.channels
    pair = JointGaussianPair(1.0, 1.0, float(RHO_LADDER[rho_level]))

    edges = np.clip(q.edges(), -clip, clip)
    nodes, weights, owners = [], [], []
    for k in range(q.size):
        x, w = simpson_nodes(edges[k], edges[k + 1], n_points)
        nodes.append(x)
        weights.append(w)
        owners.append(np.full(x.size, k))
    x = np.concatenate(nodes)
    w = np.concatenate(weights)
    owners = np.concatenate(owners)
    fx = np.exp(-0.5 * x**2) / np.sqrt(2 * np.pi)
    si_mass = si_cell_mass_given_x(q_si, pair, x)  # (n, S)
    base = w * fx

    A = bundle.ia.table
    lookup = _AsymLookup(bundle, ladder_tables(bundle), channels, rho_level)
    blocks = np.split(lookup.table, lookup.offsets[1:-1])
    worst = 0.0
    for p, Q in enumerate(loss_patterns(len(channels))):
        j_alphabets = [
            range(ch.received_alphabet) if got else [None]
            for ch, got in zip(channels, Q)
        ]
        for word, J in enumerate(product(*j_alphabets)):
            outcome = ChannelOutcome(tuple(J), Q)
            lik = np.exp(tuple_log_likelihood(outcome, channels))
            # per-node mixture weight: sum_I A[cell(x), I] * lik[I]
            node_lik = (A @ lik)[owners]
            for level in range(q_si.size):
                mass = base * si_mass[:, level] * node_lik
                den = mass.sum()
                if den <= 0:
                    continue
                exact = float(np.dot(mass, x) / den)
                got = blocks[p][word, level]
                worst = max(worst, abs(got - exact))
    return worst


# ---------------------------------------------------------------------------
# Rejected readings of the rate-distortion bound
# ---------------------------------------------------------------------------


def alternate_bound_db(
    query: BoundQuery, literal_weighting: bool = False, natural_delta: bool = False,
    n: int = 600,
) -> float:
    """Minimum loss-averaged distortion (dB) of the bound under another reading.

    ``literal_weighting`` weights the side distortions as printed,
    mu1 * d1 + mu2 * d2, instead of by the probability that only the other
    description survives; ``natural_delta`` takes the excess-rate term as
    exp(-2 (R1 + R2)) instead of 2^(-2 (R1 + R2)).  With neither it is the
    package's reading.  The minimum is taken over an n x n log-spaced grid of
    side distortions on [side bound, beta], with no refinement.
    """
    b = beta(query)
    d1_min, d2_min = side_bounds(query)
    d1, d2 = np.meshgrid(np.geomspace(d1_min, b, n), np.geomspace(d2_min, b, n), indexing="ij")
    rsum = query.r1 + query.r2
    excess = np.exp(-2.0 * rsum) if natural_delta else 2.0 ** (-2.0 * rsum)
    pi = np.maximum((1.0 - d1 / b) * (1.0 - d2 / b), 0.0)
    delta = np.maximum(d1 * d2 / b**2 - excess, 0.0)
    d12 = b * 2.0 ** (-2.0 * rsum) / (1.0 - (np.sqrt(pi) - np.sqrt(delta)) ** 2)
    mu1, mu2 = query.mu1, query.mu2
    if literal_weighting:
        side = mu1 * d1 + mu2 * d2
    else:
        side = mu1 * (1.0 - mu2) * d2 + mu2 * (1.0 - mu1) * d1
    avg = mu1 * mu2 * b + side + (1.0 - mu1) * (1.0 - mu2) * d12
    return float(10.0 * np.log10(avg.min()))
