"""Reference implementations that only the tests use.

Grids and grid densities, SI-conditional cell probabilities, per-description
likelihoods and per-symbol transmission, the per-symbol decoders (asymmetric
MMSE, estimated-SI and soft-SI joint, partial-SI), the single-pass
distortion, the per-loss-pattern design quantities, the SI selection scores
of one pair of loss patterns, the whole-array AWGN decode of the asymmetric
experiment, the serial annealing restarts and the brute-force MMSE audit.
They compute symbol by symbol, or from first principles, what the package
computes from moment matrices and lookup tables over all trials at once, so
the tests can check one against the other.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache
from itertools import product

import numpy as np

from mdquant.channel import (
    DescriptionChannel,
    bit_patterns,
    bpsk_symbols,
    derive_rng,
    hamming_table,
    loss_pattern_prob,
    loss_patterns,
    pattern_likelihood_tables,
    pattern_table,
    tuple_space,
)
from mdquant.codec import (
    PROB_FLOOR,
    AnnealingSchedule,
    CodecBundle,
    DesignContext,
    IndexAssignment,
    _anneal_once,
    masked_ratio,
)
from mdquant.decode_sym import CrossSourceTables, CrossTableCache
from mdquant.gaussian import JointGaussianPair, gauss_interval_moments, gauss_interval_moments_batch
from mdquant.quantizer import ScalarQuantizer, cell_of
from mdquant.simulator import _AsymLookup

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


def conditional_density(pair: JointGaussianPair, y: float, grid: SampleGrid) -> np.ndarray:
    """Density of X given Y=y evaluated at the grid points."""
    if not np.isfinite(y):
        raise ValueError("invalid SI value")
    if pair.rho == 0.0:
        return pair.x_marginal().pdf(grid.points)
    return pair.x_given_y(float(y)).pdf(grid.points)


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
    cond = pair.x_given_y(y)
    p, _, _ = gauss_interval_moments(q.edges(), cond.mean, cond.std)
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
    means = pair.rho * (pair.sd_y / pair.sd_x) * x
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
    fx = pair.x_marginal().pdf(grid.points)
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


def _prior_and_codebook(bundle: CodecBundle, si_level, rho_level):
    t = bundle.tables
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
    """Posterior + reconstruction in one call; the reference for ``simulator._AsymLookup``."""
    return reconstruct(posterior(outcome, si_level, rho_level, bundle), si_level, rho_level, bundle)


# ---------------------------------------------------------------------------
# Per-symbol joint decoder
# ---------------------------------------------------------------------------
#
# Iteration 1 of both variants decodes every source without side information;
# coupling starts at iteration 2.  Sweeps are synchronous: every source reads
# the neighbor state of the previous iteration.  The reference for
# ``simulator._SymDecoder.decode``.


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
    ests = np.array([float(np.dot(p.probs, bundle.tables.codebook_nosi)) for p in posts])
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
        new_est[u] = float(np.dot(post.probs, bundle.tables.codebook[level, y_level]))
    return replace(
        state, estimates=new_est, posteriors=tuple(new_posts),
        iteration=state.iteration + 1,
    )


def _soft_iterate(state: SymmetricState, bundle, level_matrix, cache) -> SymmetricState:
    new_posts = []
    for u in range(len(state.outcomes)):
        s = int(state.si_map[u])
        cross = cache.get(int(level_matrix[u, s]))
        new_posts.append(
            soft_si_posterior(state.outcomes[u], state.posteriors[s], cross, bundle.channels)
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
        ests[u] = soft_si_reconstruct(state.posteriors[u], neighbor_src.posteriors[s], cross)
    return ests, state.iteration


# ---------------------------------------------------------------------------
# Per-symbol partial-SI decoder
# ---------------------------------------------------------------------------


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
    """MMSE estimate of source u using the neighbor's raw received words as SI.

    The decoder whose expected distortion ``si_select.score_tables`` scores
    for the "min_distortion" selection.
    """
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


# ---------------------------------------------------------------------------
# Whole-array asymmetric AWGN decode
# ---------------------------------------------------------------------------


def asym_awgn_errors(bundle: CodecBundle, channels, x, tuple_ids, si_levels, level, seed):
    """Squared errors of the AWGN decode over all trials at once.

    Draws the loss flags and N(0, N0 / 2) noise of description m in one call
    each from the ``(seed, 2, 2m + 1)`` and ``(seed, 2, 2m)`` streams, and
    keeps every (trials, tuples) array whole; the reference for the blocked
    ``simulator._run_asym_awgn``.
    """
    t = bundle.tables
    space = tuple_space(channels)
    n = x.size
    if level is None:
        prior = np.broadcast_to(t.prior_nosi, (n, t.prior_nosi.size))
        codebook = np.broadcast_to(t.codebook_nosi, prior.shape)
    else:
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
        out = sent + noise_rng.normal(0.0, np.sqrt(ch.noise_psd / 2.0), sent.shape)
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
# Distortion and annealing weights
# ---------------------------------------------------------------------------


def distortion_direct(ctx: DesignContext, table: np.ndarray, state=None) -> float:
    """Single-pass expectation E[(X - Xhat)^2] without the SE/Ch split."""
    if state is None:
        state = ctx.decoder_state(table)
    return float(np.sum(table * ctx.weights(state)))


def serial_restarts(ctx: DesignContext, schedule: AnnealingSchedule, seed: int):
    """Every restart of ``design_annealed`` in this process, and the best of them.

    Returns ``(results, best)``: the ``(hard_ia, hard_d, info)`` of each
    restart in order, and ``(hard_ia, hard_d, info, restart)`` of the first
    restart with the strictly lowest hardened distortion.
    """
    results = [
        _anneal_once(ctx, schedule, derive_rng(seed, r)) for r in range(schedule.restarts)
    ]
    best = None
    for restart, (hard_ia, hard_d, info) in enumerate(results):
        if best is None or hard_d < best[1]:
            best = (hard_ia, hard_d, info, restart)
    return results, best


def da_weights(
    quantizer: ScalarQuantizer,
    si_quantizer: ScalarQuantizer | None,
    ia: IndexAssignment,
    pair: JointGaussianPair,
    channels,
    n_gauss: int = 16,
) -> np.ndarray:
    """Annealing weight matrix with reconstructions built from ``ia``."""
    ctx = DesignContext(quantizer, si_quantizer, pair, channels, n_gauss)
    return ctx.weights(ctx.decoder_state(ia.table))


def per_pattern_lookups(pattern_tables, joint, first) -> list:
    """Posterior-mean lookup per loss pattern, ``xhat[p][j, y]``, one product each."""
    return [
        masked_ratio(pt.table.T @ first, pt.table.T @ joint, PROB_FLOOR)
        for pt in pattern_tables
    ]


def per_pattern_design(ctx: DesignContext, table: np.ndarray):
    """``(d_se, d_ch, weights, lookups)`` of ``table`` with a loop over loss patterns.

    The reference for the stacked products of :class:`DesignContext`: each
    pattern's likelihood table contracts its own small matrices, and the
    channel distortion and the annealing weights accumulate pattern by
    pattern.
    """
    pattern_tables = pattern_likelihood_tables(ctx.channels, ctx.space)
    joint = table.T @ ctx.s0
    first = table.T @ ctx.s1
    second = table.T @ ctx.s2
    xhats = per_pattern_lookups(pattern_tables, joint, first)
    pos = joint > PROB_FLOOR
    d_se = float(second.sum() - np.sum(first[pos] ** 2 / joint[pos]))
    d_ch = 0.0
    a1 = np.zeros((ctx.space.size, ctx.quantizer.size))
    a0 = np.zeros_like(a1)
    for pt, xhat in zip(pattern_tables, xhats):
        pq = loss_pattern_prob(pt.pattern, ctx.channels)
        e2 = pt.table.T @ masked_ratio(first**2, joint, PROB_FLOOR)
        num = pt.table.T @ first
        den = pt.table.T @ joint
        d_ch += pq * float(np.sum(e2 - 2.0 * num * xhat + den * xhat**2))
        a1 += pq * (pt.table @ (xhat @ ctx.s1.T))
        a0 += pq * (pt.table @ ((xhat**2) @ ctx.s0.T))
    weights = (ctx.s2.sum(axis=1)[None, :] - 2.0 * a1 + a0).T
    return d_se, max(d_ch, 0.0), weights, xhats


# ---------------------------------------------------------------------------
# SI selection scores, one pair of loss patterns at a time
# ---------------------------------------------------------------------------


def _entropy_of_positive(p) -> float:
    p = np.ravel(p)
    p = p[p > 0]
    return float(-np.sum(p * np.log2(p)))


def per_pair_mi(bundle_u, bundle_t, cross, q_u, q_t) -> float:
    """Mutual information (bits) of the received words for one pair of loss patterns."""
    t_u = pattern_table(bundle_u.channels, q_u).table
    t_t = pattern_table(bundle_t.channels, q_t).table
    g_u = bundle_u.ia.table @ t_u  # P(J_u | own cell)
    g_t = bundle_t.ia.table @ t_t
    p_cells_t = bundle_t.quantizer.cell_probs
    cell_joint = cross.cell_cross * p_cells_t[None, :]
    pj_u = g_u.T @ cell_joint.sum(axis=1)
    pj_t = g_t.T @ p_cells_t
    joint = g_u.T @ cell_joint @ g_t
    mi = _entropy_of_positive(pj_u) + _entropy_of_positive(pj_t) - _entropy_of_positive(joint)
    return max(mi, 0.0)


def per_pair_partial_si_distortion(bundle, cross, q_u, q_t, var_x: float = 1.0) -> float:
    """E[(X - Xhat)^2] of the partial-SI decoder for one pair of loss patterns."""
    t_u = pattern_table(bundle.channels, q_u).table  # (L, nJu)
    t_t = pattern_table(bundle.channels, q_t).table
    a = bundle.ia.table
    p_cells = bundle.quantizer.cell_probs
    g_u, g_t = a @ t_u, a @ t_t
    pjj = g_u.T @ (cross.cell_cross * p_cells[None, :]) @ g_t  # P(J_u, J_t)
    njj = g_u.T @ (cross.cell_cross_m1 * p_cells[None, :]) @ g_t  # E[X 1{J_u, J_t}]
    w_cells = p_cells[:, None] * g_t  # unnormalized neighbor cell posterior
    den = t_u.T @ (cross.idx_given_cell @ w_cells)
    num = t_u.T @ ((cross.idx_given_cell * cross.cent_given_cell) @ w_cells)
    xhat = masked_ratio(num, den)
    d = var_x - 2.0 * np.sum(njj * xhat) + np.sum(pjj * xhat**2)
    return max(float(d), 0.0)


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

    The decoder is the package's lookup, ``simulator._AsymLookup``.  The
    conditional mean is computed from first principles: Simpson panels per
    quantizer cell, explicit SI-cell masses, and full enumeration of loss
    patterns and received words.  Intended for tiny (K <= 4, L <= 4) BSC
    instances.
    """
    q = bundle.quantizer
    q_si = bundle.si_quantizer
    channels = bundle.channels
    pair = JointGaussianPair(1.0, 1.0, float(bundle.tables.rho_values[rho_level]))

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
    lookup = _AsymLookup(bundle, channels, rho_level)
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
                got = lookup.xhat[p][word, level]
                worst = max(worst, abs(got - exact))
    return worst
