"""Index-assignment tables, analytic distortion, and annealed codec design.

The encoder is a scalar quantizer followed by a (possibly soft) mapping from
quantizer cells to description-index tuples.  Design runs a deterministic
annealing loop: at each temperature the mapping is re-estimated from a
Gibbs/softmax rule driven by the derivative of the end-to-end distortion,
then the temperature is cooled until the mapping freezes to a hard table.

All analytic machinery reduces to three moment matrices S0, S1, S2 of shape
(K cells x N_si levels):

    Sn[k, y] = integral over cell k of x^n * f(x) * P(SI level y | x) dx

from which priors P(I | y), codebooks C(I | y), reconstruction lookups and
the annealing weights are all small matrix contractions.

The likelihood tables of the 2^M loss patterns are stacked side by side into
one (L x sum n_j) matrix, so every per-word quantity of every pattern (masses,
first moments, reconstructions, the annealing gradient) comes from one matrix
product per quantity; row ``offsets[p] + j`` is received word j of pattern p.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
from numpy.polynomial.legendre import leggauss

from .channel import (
    derive_rng,
    loss_pattern_prob,
    loss_patterns,
    stacked_pattern_table,
    tuple_space,
)
from .gaussian import (
    CorrelationLadder,
    JointGaussianPair,
    gauss_interval_moments,
    gauss_interval_moments_batch,
    quantize_rho,
)
from .quantizer import ScalarQuantizer

log = logging.getLogger(__name__)

TAIL_CLIP = 8.0  # SI integration range in std units; mass beyond is < 1e-15
# Probabilities below this are treated as zero: ratios of genuinely tiny
# cell/level joints otherwise amplify float underflow into huge codebook
# values whose squares overflow.
PROB_FLOOR = 1e-250
# Channel distortion below this share of E[x^2] is roundoff and reads as 0.
D_CH_FLOOR = 1e-14
# Moment quadrature chunk: (correlation, node) pairs times cells.  About 1 MB
# per temporary; larger chunks fall out of cache and run slower.
MOMENT_CHUNK = 131_072


def masked_ratio(num, den, floor: float = 0.0):
    """``num / den`` where ``den > floor`` and 0 elsewhere, never dividing by masked entries."""
    ok = den > floor
    return np.where(ok, num / np.where(ok, den, 1.0), 0.0)


def pattern_lookups(stacked, joint, first):
    """Posterior-mean lookup for every loss pattern and received word.

    ``stacked`` is the (L, N) table of ``channel.stacked_pattern_table``; ``joint``
    and ``first`` are (L, S) tuple/SI-level masses P(I, y) and first moments.
    Returns the (N, S) received-word masses ``den``, first moments ``num`` and
    reconstructions ``xhat = num / den`` (0 where the mass is below
    ``PROB_FLOOR``).
    """
    S = joint.shape[1]
    den_num = stacked.T @ np.hstack([joint, first])
    den, num = den_num[:, :S], den_num[:, S:]
    return den, num, masked_ratio(num, den, PROB_FLOOR)


@dataclass(frozen=True)
class IndexAssignment:
    """Row-stochastic K x L table P(index tuple | quantizer cell)."""

    table: np.ndarray
    hard: bool = False

    def __post_init__(self):
        t = np.asarray(self.table, dtype=float)
        if t.ndim != 2:
            raise ValueError("index assignment must be a 2-D table")
        if np.any(t < -1e-15) or np.any(t > 1 + 1e-12):
            raise ValueError("table entries must lie in [0, 1]")
        if np.any(np.abs(t.sum(axis=1) - 1.0) > 1e-9):
            raise ValueError("each row must sum to 1")
        if self.hard:
            if not np.all((t < 1e-12) | (np.abs(t - 1.0) < 1e-12)):
                raise ValueError("hard table rows must be unit vectors")
            t = np.round(t)
        object.__setattr__(self, "table", t)

    @property
    def n_cells(self) -> int:
        return int(self.table.shape[0])

    @property
    def n_tuples(self) -> int:
        return int(self.table.shape[1])

    def hard_map(self) -> np.ndarray:
        """Cell -> tuple id map (argmax per row)."""
        return np.argmax(self.table, axis=1)


def ia_entropy(ia: IndexAssignment, cell_probs) -> float:
    """Conditional entropy of the tuple given the cell, in bits (0 log 0 = 0)."""
    p = np.asarray(cell_probs, dtype=float)
    t = ia.table
    with np.errstate(divide="ignore", invalid="ignore"):
        logs = np.where(t > 0, np.log2(np.maximum(t, 1e-300)), 0.0)
    return float(-np.sum(p[:, None] * t * logs))


def harden(ia: IndexAssignment) -> IndexAssignment:
    """Row-wise argmax; ties resolve to the lowest tuple index."""
    hard = np.zeros_like(ia.table)
    hard[np.arange(ia.n_cells), ia.hard_map()] = 1.0
    return IndexAssignment(hard, hard=True)


def gibbs_update(weights: np.ndarray, T: float, cell_probs) -> IndexAssignment:
    """Softmax re-estimation of the assignment at temperature T.

    Row k becomes exp(-W[k,I] / (T * P(k))) normalized over I, computed with
    per-row max subtraction so extreme exponents cannot overflow.  Entries
    below ``PROB_FLOOR`` are set to 0: they change no sum they enter, while
    their products with the moment matrices underflow to subnormal numbers,
    which slow every later matrix product several-fold.
    """
    if T <= 0:
        raise ValueError("temperature must be positive")
    p = np.maximum(np.asarray(cell_probs, dtype=float), 1e-300)
    expo = -np.asarray(weights, dtype=float) / (T * p[:, None])
    expo -= expo.max(axis=1, keepdims=True)
    rows = np.exp(expo)
    rows /= rows.sum(axis=1, keepdims=True)
    rows[rows < PROB_FLOOR] = 0.0
    return IndexAssignment(rows, hard=False)


# ---------------------------------------------------------------------------
# Moment matrices
# ---------------------------------------------------------------------------


def _si_panels(q_si: ScalarQuantizer, sd_y: float, n_gauss: int):
    """Gauss-Legendre nodes/weights per SI cell, tails clipped at TAIL_CLIP."""
    edges = np.clip(q_si.edges(), -TAIL_CLIP * sd_y, TAIL_CLIP * sd_y)
    base_x, base_w = leggauss(n_gauss)
    nodes, weights, owner = [], [], []
    for lvl in range(q_si.size):
        a, b = edges[lvl], edges[lvl + 1]
        if b <= a:
            continue
        n_panels = max(1, int(np.ceil((b - a) / (0.75 * sd_y))))
        bounds = np.linspace(a, b, n_panels + 1)
        for pa, pb in zip(bounds[:-1], bounds[1:]):
            half = 0.5 * (pb - pa)
            nodes.append(0.5 * (pa + pb) + half * base_x)
            weights.append(half * base_w)
            owner.append(np.full(n_gauss, lvl, dtype=int))
    return np.concatenate(nodes), np.concatenate(weights), np.concatenate(owner)


def si_moment_matrices(
    quantizer: ScalarQuantizer,
    si_quantizer: ScalarQuantizer | None,
    pair: JointGaussianPair,
    n_gauss: int = 16,
):
    """S0, S1, S2 moment matrices of shape (K, N_si): a batch of one correlation.

    The y-integral uses panelled Gauss-Legendre per SI cell; the inner
    x-moments over quantizer cells are exact Gaussian interval moments of the
    conditional law X | Y=y.  With ``si_quantizer`` None (or a single level)
    one unconditional column is returned.
    """
    s0, s1, s2 = si_moment_stack(
        quantizer, si_quantizer, [pair.rho], pair.sd_x, pair.sd_y, n_gauss
    )
    return s0[0], s1[0], s2[0]


def si_moment_stack(
    quantizer: ScalarQuantizer,
    si_quantizer: ScalarQuantizer | None,
    rhos,
    sd_x: float = 1.0,
    sd_y: float = 1.0,
    n_gauss: int = 16,
):
    """S0, S1, S2 for many correlations at once, each of shape (R, K, N_si).

    Entry r is the moment matrix at correlation ``rhos[r]`` and does not
    depend on the rest of the batch: independent SI (one level, or rho = 0)
    sees the marginal, weighted by P(level); otherwise each SI level adds up
    its quadrature nodes one at a time in node order, whatever the chunking.
    Chunks hold at most ``MOMENT_CHUNK // K`` (correlation, node) pairs.
    """
    edges = quantizer.edges()
    K = quantizer.size
    rhos = np.asarray(rhos, dtype=float).reshape(-1)
    n_levels = 1 if si_quantizer is None else si_quantizer.size
    out = np.zeros((3, rhos.size, K, n_levels))
    coupled = np.flatnonzero(rhos != 0.0) if n_levels > 1 else np.array([], dtype=int)
    marginal = np.setdiff1d(np.arange(rhos.size), coupled)
    if marginal.size:
        w = si_quantizer.cell_probs[None, :] if n_levels > 1 else 1.0
        for i, m in enumerate(gauss_interval_moments(edges, 0.0, sd_x)):
            out[i, marginal] = m[:, None] * w
    if not coupled.size:
        return out[0], out[1], out[2]

    nodes, wts, owner = _si_panels(si_quantizer, sd_y, n_gauss)
    fy = np.exp(-0.5 * (nodes / sd_y) ** 2) / (sd_y * np.sqrt(2 * np.pi))
    wts = (wts * fy)[:, None, None]
    cond_sd = np.array([max(sd_x * np.sqrt(1.0 - r ** 2), 1e-300) for r in rhos[coupled]])
    mean_slope = rhos[coupled] * (sd_x / sd_y)

    chunk = max(1, MOMENT_CHUNK // max(K, 1))
    node_step = min(nodes.size, chunk)
    rho_step = max(1, chunk // nodes.size)
    # Per node chunk, the nodes taken together in step j: the j-th node of
    # every SI level present, so each level gets its nodes in order.
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
        out[:, coupled[rs]] = _clean_moments(*acc.transpose(0, 2, 3, 1))
    return out[0], out[1], out[2]


def _clean_moments(s0, s1, s2):
    """Zero entries below the double-precision noise floor.

    Far-tail interval probabilities cancel to exactly 0 in the normal cdf
    while the pdf-difference terms of the first/second moments leave ~1e-19
    residue; ratios of that residue explode.  Mass below 1e-14 of the peak is
    numerically indistinguishable from zero and is dropped consistently from
    all three moments.  Arrays may carry a leading correlation axis; each
    correlation has its own peak.
    """
    noise = 1e-14 * s0.max(axis=(-2, -1), keepdims=True)
    bad = s0 <= noise
    s0 = np.where(bad, 0.0, s0)
    s1 = np.where(bad, 0.0, s1)
    s2 = np.where(bad, 0.0, np.maximum(s2, 0.0))
    return s0, s1, s2


# ---------------------------------------------------------------------------
# Decoder tables
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DecoderTables:
    """Stored priors P(I | SI level) and codebooks C(I | SI level).

    Arrays are indexed (correlation level, SI level, tuple).  ``prior_nosi``
    and ``codebook_nosi`` are the no-side-information fallbacks used when the
    decoder has no SI (first iteration of the joint decoder, or an SI-blind
    system).  Tuples with zero prior keep codebook value 0.
    """

    rho_values: np.ndarray
    si_probs: np.ndarray
    prior: np.ndarray
    codebook: np.ndarray
    prior_nosi: np.ndarray
    codebook_nosi: np.ndarray

    def __post_init__(self):
        sums = self.prior.sum(axis=2)
        if np.any(np.abs(sums - 1.0) > 1e-9):
            raise ValueError("priors must be normalized per (rho, SI) level")
        if abs(self.prior_nosi.sum() - 1.0) > 1e-9:
            raise ValueError("no-SI prior must be normalized")

    @property
    def n_rho(self) -> int:
        return int(self.prior.shape[0])

    @property
    def n_si(self) -> int:
        return int(self.prior.shape[1])

    @property
    def n_tuples(self) -> int:
        return int(self.prior.shape[2])


def _nosi_tables(quantizer, table, sd_x):
    p, m1, _ = gauss_interval_moments(quantizer.edges(), 0.0, sd_x)
    prior = table.T @ p
    first = table.T @ m1
    return np.where(prior > PROB_FLOOR, prior, 0.0), masked_ratio(first, prior, PROB_FLOOR)


def _tables_for_pair(quantizer, si_quantizer, table, pair, n_gauss):
    n_si = 1 if si_quantizer is None else si_quantizer.size
    if pair.rho == 0.0:
        # Independent SI: every level must reproduce the no-SI tables
        # bit-exactly so that iterating on uncorrelated neighbors is a no-op.
        prior, codebook = _nosi_tables(quantizer, table, pair.sd_x)
        return np.tile(prior, (n_si, 1)), np.tile(codebook, (n_si, 1))
    s0, s1, _ = si_moment_matrices(quantizer, si_quantizer, pair, n_gauss)
    joint = table.T @ s0  # (L, S): P(I, SI level)
    first = table.T @ s1
    psi = joint.sum(axis=0)
    zero = joint <= PROB_FLOOR
    prior = np.where(zero, 0.0, joint / np.maximum(psi[None, :], 1e-300))
    return prior.T, masked_ratio(first, joint, PROB_FLOOR).T  # (S, L) each


def build_decoder_tables(
    quantizer: ScalarQuantizer,
    si_quantizer: ScalarQuantizer | None,
    ia: IndexAssignment,
    pairs,
    n_gauss: int = 16,
) -> DecoderTables:
    """Build stored decoder tables for one pair or a whole correlation ladder."""
    if isinstance(pairs, JointGaussianPair):
        pairs = [pairs]
    priors, codebooks = [], []
    for pair in pairs:
        prior, codebook = _tables_for_pair(quantizer, si_quantizer, ia.table, pair, n_gauss)
        priors.append(prior)
        codebooks.append(codebook)
    si_probs = (
        np.array([1.0]) if si_quantizer is None else si_quantizer.cell_probs.copy()
    )
    prior_nosi, codebook_nosi = _nosi_tables(quantizer, ia.table, pairs[0].sd_x)
    return DecoderTables(
        rho_values=np.array([pr.rho for pr in pairs]),
        si_probs=np.asarray(si_probs),
        prior=np.stack(priors),
        codebook=np.stack(codebooks),
        prior_nosi=prior_nosi,
        codebook_nosi=codebook_nosi,
    )


# ---------------------------------------------------------------------------
# Analytic distortion and annealing weights
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DistortionBreakdown:
    """Source-encoder and channel contributions to the mean squared error."""

    d_se: float
    d_ch: float

    @property
    def d_av(self) -> float:
        return self.d_se + self.d_ch

    def d_av_db(self, reference_var: float = 1.0) -> float:
        return 10.0 * np.log10(self.d_av / reference_var)


class DecoderState(NamedTuple):
    """Matched decoder of one assignment: (L, S) tuple tables, (N, S) word tables."""

    joint: np.ndarray
    first: np.ndarray
    second: np.ndarray
    den: np.ndarray
    num: np.ndarray
    xhat: np.ndarray


class DesignContext:
    """Precomputed quantities for analytic distortion/weight evaluation.

    Valid for one (quantizer, SI quantizer, source/SI pair, channel vector)
    combination; the index assignment varies across calls.
    """

    def __init__(self, quantizer, si_quantizer, pair, channels, n_gauss: int = 16):
        for ch in channels:
            if ch.kind != "bsc":
                raise ValueError("analytic evaluation requires discrete channel")
        self.quantizer = quantizer
        self.si_quantizer = si_quantizer
        self.pair = pair
        self.channels = tuple(channels)
        self.space = tuple_space(channels)
        self.s0, self.s1, self.s2 = si_moment_matrices(
            quantizer, si_quantizer, pair, n_gauss
        )
        self.cell_probs = quantizer.cell_probs
        self.stacked, self.offsets = stacked_pattern_table(channels, self.space)
        self.pattern_probs = np.array(
            [loss_pattern_prob(q, channels) for q in loss_patterns(len(channels))]
        )
        # Constant factors of the fused products.
        self.s012 = np.hstack([self.s0, self.s1, self.s2])  # (K, 3S)
        col_probs = np.repeat(self.pattern_probs, np.diff(self.offsets))
        self.weighted_stacked = self.stacked * col_probs[None, :]  # (L, N)
        self.s01_t = np.vstack([self.s0.T, self.s1.T])  # (2S, K)
        self.s2_tot = self.s2.sum(axis=1)  # (K,)

    def decoder_state(self, table: np.ndarray) -> DecoderState:
        """Joint tables and reconstruction lookups implied by an assignment."""
        S = self.s0.shape[1]
        moments = table.T @ self.s012  # (L, 3S): P(I, y), first and second moments
        joint, first, second = moments[:, :S], moments[:, S:2 * S], moments[:, 2 * S:]
        den, num, xhat = pattern_lookups(self.stacked, joint, first)
        return DecoderState(joint, first, second, den, num, xhat)

    def distortion(self, table: np.ndarray, state=None) -> DistortionBreakdown:
        """Matched-decoder average distortion split into encoder/channel parts."""
        if state is None:
            state = self.decoder_state(table)
        joint, first, second, den, num, xhat = state
        pos = joint > PROB_FLOOR
        e_x2 = second.sum()
        d_se = float(e_x2 - np.sum(first[pos] ** 2 / joint[pos]))
        e2 = self.stacked.T @ masked_ratio(first**2, joint, PROB_FLOOR)  # E[x^2] mass per word
        terms = e2 - 2.0 * num * xhat + den * xhat**2
        # Summed pattern by pattern: one flat sum moves d_ch in the last bit.
        d_ch = 0.0
        for pq, a, b in zip(self.pattern_probs, self.offsets[:-1], self.offsets[1:]):
            d_ch += pq * float(np.sum(terms[a:b]))
        # Each term is a difference of E[x^2]-sized masses, so d_ch below
        # D_CH_FLOOR of E[x^2] is cancellation residue (a word whose
        # reconstruction is its one tuple's centroid leaves ~1e-17), not a loss.
        return DistortionBreakdown(d_se, d_ch if d_ch > D_CH_FLOOR * e_x2 else 0.0)

    def weights(self, state: DecoderState) -> np.ndarray:
        """Distortion derivative d D / d P(I | cell k), shape (K, L).

        Uses the reconstruction lookups of ``state`` (i.e., the decoder built
        from the assignment of the previous step):
        ``W[k, I] = sum_y S2[k, y] + sum_(p, j) P(p) T[I, j] (xhat^2 S0 - 2 xhat S1)``.
        """
        xhat = state.xhat
        per_tuple = self.weighted_stacked @ np.hstack([xhat**2, -2.0 * xhat])  # (L, 2S)
        return self.s2_tot[:, None] + (per_tuple @ self.s01_t).T


def evaluate_distortion(
    quantizer: ScalarQuantizer,
    si_quantizer: ScalarQuantizer | None,
    ia: IndexAssignment,
    pair: JointGaussianPair,
    channels,
    n_gauss: int = 16,
) -> DistortionBreakdown:
    """Analytic D_se / D_ch / D_av for a codec over BSC channels."""
    ctx = DesignContext(quantizer, si_quantizer, pair, channels, n_gauss)
    return ctx.distortion(ia.table)


# ---------------------------------------------------------------------------
# Deterministic annealing design
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AnnealingSchedule:
    """Knobs of the annealing loop; defaults favor reproducible desk runs."""

    t_init: float | None = None
    cooling: float = 0.9
    t_min_ratio: float = 1e-6
    inner_tol: float = 1e-5
    inner_cap: int = 50
    restarts: int = 3
    entropy_target: float = 0.95

    def __post_init__(self):
        if not 0 < self.cooling < 1:
            raise ValueError("cooling factor must lie in (0, 1)")
        if self.inner_cap < 1 or self.restarts < 1:
            raise ValueError("inner cap and restarts must be positive")


@dataclass(frozen=True)
class CodecBundle:
    """A designed codec: quantizers, hard assignment, channels, stored tables."""

    quantizer: ScalarQuantizer
    si_quantizer: ScalarQuantizer | None
    ia: IndexAssignment
    channels: tuple
    design_rho: float
    ladder: CorrelationLadder
    tables: DecoderTables
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        if not self.ia.hard:
            raise ValueError("bundle requires a hardened index assignment")

    def rho_level(self, rho: float) -> int:
        return quantize_rho(rho, self.ladder)

    def with_si_quantizer(self, si_quantizer, n_gauss: int = 16) -> "CodecBundle":
        """Same codec with decoder tables rebuilt for another SI quantizer."""
        pairs = [JointGaussianPair(1.0, 1.0, float(r)) for r in self.ladder.levels]
        tables = build_decoder_tables(self.quantizer, si_quantizer, self.ia, pairs, n_gauss)
        return CodecBundle(
            quantizer=self.quantizer,
            si_quantizer=si_quantizer,
            ia=self.ia,
            channels=self.channels,
            design_rho=self.design_rho,
            ladder=self.ladder,
            tables=tables,
            metadata={**self.metadata, "si_quantizer_rebuilt": si_quantizer.size},
        )


def _auto_t_init(weights, cell_probs, entropy_target: float) -> float:
    L = weights.shape[1]
    target = entropy_target * np.log2(L)
    if target <= 0:
        return 1.0

    def entropy_at(T):
        return ia_entropy(gibbs_update(weights, T, cell_probs), cell_probs)

    T = 1e-6
    if entropy_at(T) >= target:
        return T
    while entropy_at(T) < target:
        T *= 4.0
        if T > 1e18:
            return T
    lo, hi = T / 4.0, T
    for _ in range(40):
        mid = np.sqrt(lo * hi)
        if entropy_at(mid) >= target:
            hi = mid
        else:
            lo = mid
    return 2.0 * hi


def _anneal_once(ctx: DesignContext, schedule: AnnealingSchedule, rng):
    L = ctx.space.size
    K = ctx.quantizer.size
    ia = IndexAssignment(rng.dirichlet(np.ones(L), size=K))
    state = ctx.decoder_state(ia.table)
    weights = ctx.weights(state)
    t_init = schedule.t_init or _auto_t_init(weights, ctx.cell_probs, schedule.entropy_target)
    t_min = schedule.t_min_ratio * t_init

    T = t_init
    d_av = ctx.distortion(ia.table, state).d_av
    violations = 0
    cap_hits = 0
    prev_entropy = None
    entropy_increases = 0
    while T > t_min:
        d_prev = np.inf
        for _ in range(schedule.inner_cap):
            ia = gibbs_update(weights, T, ctx.cell_probs)
            state = ctx.decoder_state(ia.table)
            d_av = ctx.distortion(ia.table, state).d_av
            weights = ctx.weights(state)
            if d_av > d_prev * (1.0 + 1e-12):
                violations += 1
            if abs(d_prev - d_av) < schedule.inner_tol * max(d_av, 1e-300):
                break
            d_prev = d_av
        else:
            cap_hits += 1
        ent = ia_entropy(ia, ctx.cell_probs)
        if prev_entropy is not None and ent > prev_entropy + 1e-9:
            entropy_increases += 1
        prev_entropy = ent
        T *= schedule.cooling

    soft_d = d_av
    hard_ia = harden(ia)
    hard_d = ctx.distortion(hard_ia.table).d_av
    info = {
        "t_init": float(t_init),
        "soft_d_av": float(soft_d),
        "hardening_gap": float(hard_d - soft_d),
        "monotonicity_violations": int(violations),
        "inner_cap_hits": int(cap_hits),
        "entropy_increases": int(entropy_increases),
    }
    if cap_hits:
        log.warning("annealing inner loop hit the iteration cap %d time(s)", cap_hits)
    if violations:
        log.info("annealing saw %d non-monotone inner step(s)", violations)
    return hard_ia, float(hard_d), info


def design_annealed(
    quantizer: ScalarQuantizer,
    si_quantizer: ScalarQuantizer | None,
    pair: JointGaussianPair,
    channels,
    schedule: AnnealingSchedule | None = None,
    seed: int = 0,
    ladder: CorrelationLadder | None = None,
    n_gauss: int = 16,
) -> CodecBundle:
    """Design a codec by deterministic annealing and package it with tables.

    Runs ``schedule.restarts`` independent seeded starts and keeps the best
    hardened table.  The returned bundle carries decoder tables for every
    ladder level plus the no-SI variant.
    """
    schedule = schedule or AnnealingSchedule()
    ladder = ladder or CorrelationLadder()
    ctx = DesignContext(quantizer, si_quantizer, pair, channels, n_gauss)

    best = None
    for restart in range(schedule.restarts):
        rng = derive_rng(seed, restart)
        hard_ia, hard_d, info = _anneal_once(ctx, schedule, rng)
        if best is None or hard_d < best[1]:
            best = (hard_ia, hard_d, info, restart)
    hard_ia, hard_d, info, best_restart = best

    breakdown = ctx.distortion(hard_ia.table)
    pairs = [
        JointGaussianPair(pair.var_x, pair.var_y, float(r)) for r in ladder.levels
    ]
    tables = build_decoder_tables(quantizer, si_quantizer, hard_ia, pairs, n_gauss)
    metadata = {
        "format_version": 1,
        "seed": int(seed),
        "restarts": int(schedule.restarts),
        "best_restart": int(best_restart),
        "design_rho": float(pair.rho),
        "d_se": float(breakdown.d_se),
        "d_ch": float(breakdown.d_ch),
        "d_av": float(breakdown.d_av),
        "schedule": {
            "t_init": info["t_init"],
            "cooling": schedule.cooling,
            "t_min_ratio": schedule.t_min_ratio,
            "inner_tol": schedule.inner_tol,
            "inner_cap": schedule.inner_cap,
            "entropy_target": schedule.entropy_target,
        },
        "warning_non_converged": bool(info["inner_cap_hits"]),
        **{k: info[k] for k in (
            "soft_d_av", "hardening_gap", "monotonicity_violations",
            "inner_cap_hits", "entropy_increases",
        )},
    }
    return CodecBundle(
        quantizer=quantizer,
        si_quantizer=si_quantizer,
        ia=hard_ia,
        channels=tuple(channels),
        design_rho=float(pair.rho),
        ladder=ladder,
        tables=tables,
        metadata=metadata,
    )
