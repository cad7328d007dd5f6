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
the annealing weights are all small matrix contractions.  S2 enters only
through its sums: every exact squared error is E[x^2] = sum S2 plus the
:func:`pattern_errors` of S0/S1 word masses.  The source and its SI have
unit variance: every decoder table, cross table and simulator draw assumes
it, and ``si_moment_matrices`` rejects any other pair.

The likelihood tables of the 2^M loss patterns are stacked side by side into
one (L x sum n_j) matrix, so every per-word quantity of every pattern (masses,
first moments, reconstructions, the annealing gradient) comes from one matrix
product per quantity; row ``offsets[p] + j`` is received word j of pattern p.

The annealing schedule is fixed by module constants: the start temperature
is found by bisection so the first Gibbs table has ``ENTROPY_TARGET`` of the
maximal assignment entropy, each temperature iterates until the distortion
changes by less than ``INNER_TOL`` (relative) or ``INNER_CAP`` steps pass,
and the temperature is multiplied by ``COOLING`` until it falls to
``T_MIN_RATIO`` of the start.  Every codec file records these values in its
metadata ``schedule`` block.
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
from .forking import fork_map
from .gaussian import JointGaussianPair, gauss_interval_moments_batch, quantize_rho
from .quantizer import ScalarQuantizer

log = logging.getLogger(__name__)

TAIL_CLIP = 8.0  # SI integration range in std units; mass beyond is < 1e-15
# Probabilities below this are treated as zero: ratios of genuinely tiny
# cell/level joints otherwise amplify float underflow into huge codebook
# values whose squares overflow.
PROB_FLOOR = 1e-250
# Softmax exponents are clamped here: exp(-700) ~ 9.9e-305 is still a normal
# float64, far below PROB_FLOOR, and np.exp is slow where it returns subnormals.
EXP_CLAMP = -700.0
# Channel distortion below this share of E[x^2] is cancellation residue and
# reads as 0: a word decoded to its one tuple's centroid leaves ~1e-17.
D_CH_FLOOR = 1e-14
# Moment quadrature chunk: (correlation, node) pairs times cells.  About 1 MB
# per temporary; larger chunks fall out of cache and run slower.
MOMENT_CHUNK = 131_072
# Gauss-Legendre nodes per SI-cell panel of the moment quadrature.
N_GAUSS = 16
# Correlations are capped to [-RHO_CAP, RHO_CAP] before the quadrature: at
# |rho| = 1 the conditional sd of X given Y is 0 and the moments overflow.
RHO_CAP = 1.0 - 1e-12
# Annealing schedule (see the module docstring).
COOLING = 0.9
T_MIN_RATIO = 1e-6
INNER_TOL = 1e-5
INNER_CAP = 50
ENTROPY_TARGET = 0.95
# Restarts whose hardened d_av lie within this share of the lowest tie, and
# the first is kept: relabelings of one table differ by rounding (4.4e-15 seen),
# distinct desk-scale tables by 7.6e-3 or more, and the tests hold the loop's
# d_av equal to ``DesignContext.distortion``'s within this share.
RESTART_TIE_RTOL = 1e-12


def masked_ratio(num, den, floor: float = 0.0):
    """``num / den`` where ``den > floor`` and 0 elsewhere, never dividing by masked entries."""
    ok = den > floor
    return np.where(ok, num / np.where(ok, den, 1.0), 0.0)


def pattern_lookups(stacked, moments):
    """Posterior-mean lookup for every loss pattern and received word.

    ``stacked`` is the (L, N) table of ``channel.stacked_pattern_table``;
    ``moments`` is the (..., L, 2S) block ``[joint | first]`` of tuple/SI-level
    masses P(I, y) and first moments, with any leading axes.  Returns the
    (..., N, S) received-word masses ``den``, first moments ``num`` and
    reconstructions ``xhat = num / den`` (0 where the mass is below
    ``PROB_FLOOR``).  Each leading entry is the 2-D lookup of its block bit
    for bit.
    """
    S = moments.shape[-1] // 2
    den_num = stacked.T @ moments
    den, num = den_num[..., :S], den_num[..., S:]
    return den, num, masked_ratio(num, den, PROB_FLOOR)


def pattern_sums(terms, offsets) -> np.ndarray:
    """(..., P) sums of the (..., N, S) per-word ``terms`` of each loss pattern.

    Each row (received word) is summed first, then the rows
    ``offsets[p]:offsets[p + 1]`` of pattern p, so a stack sums as each of
    its entries alone.
    """
    rows = terms.sum(axis=-1)
    return np.stack([rows[..., a:b].sum(axis=-1) for a, b in zip(offsets, offsets[1:])], axis=-1)


def pattern_errors(den, num, xhat, offsets) -> np.ndarray:
    """(..., P) sums of xhat^2 den - 2 xhat num over each pattern's words (:func:`pattern_sums`).

    Plus E[x^2], this is each loss pattern's exact squared error.
    """
    return pattern_sums(xhat * (xhat * den - 2.0 * num), offsets)


class _AsymLookup:
    """Reconstruction lookup table for one (decoder table level, channel set).

    ``table[offsets[p] + j, y]`` reconstructs from combined word j under loss
    pattern p with SI level y, from entry ``level`` of ``tables``, the
    :func:`build_decoder_tables` of the codec ``bundle``.  A codec with a
    one-level SI quantizer, read at rho = 0, decodes without SI.
    """

    def __init__(self, bundle: CodecBundle, tables: DecoderTables, channels, level: int = 0):
        joint = (tables.prior[level] * bundle.si_quantizer.cell_probs[:, None]).T  # (L, S)
        first = joint * tables.codebook[level].T
        self.stacked, self.offsets = stacked_pattern_table(channels)
        _, _, self.table = pattern_lookups(self.stacked, np.hstack([joint, first]))

    def pattern_distortions(self, ia_table, s0, s1, s2) -> list[float]:
        """Expected squared error of this fixed table under each loss pattern.

        With moment matrices S0, S1, S2, D_p = sum S2 + :func:`pattern_errors`
        of this lookup, over the word masses of :func:`pattern_lookups`.
        """
        den, num, _ = pattern_lookups(self.stacked, np.hstack([ia_table.T @ s0, ia_table.T @ s1]))
        return [float(s2.sum() + d) for d in pattern_errors(den, num, self.table, self.offsets)]


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
    which slow every later matrix product several-fold.  Exponents are
    clamped at ``EXP_CLAMP`` first, because ``np.exp`` is many times slower
    where its result is subnormal; a clamped entry stays below 1e-304, is
    absorbed into its row sum (which holds exp(0) = 1) and falls below
    ``PROB_FLOOR``, so the rows are those of the unclamped exponents.
    """
    if T <= 0:
        raise ValueError("temperature must be positive")
    weights = np.asarray(weights, dtype=float)
    p = np.maximum(np.asarray(cell_probs, dtype=float), 1e-300)
    return IndexAssignment(_gibbs_rows(weights, T, p, np.empty_like(weights)), hard=False)


def _gibbs_rows(weights, T: float, p, out) -> np.ndarray:
    """The rows of :func:`gibbs_update` for floored cell probabilities ``p``, written into ``out``.

    ``out`` has the shape and memory order of ``weights``: the row sums add
    in memory order, so another order would move their last bits.
    """
    # w / -(T p) rounds exactly as -w / (T p): IEEE rounding is sign-symmetric.
    np.divide(weights, -T * p[:, None], out=out)
    out -= out.max(axis=1, keepdims=True)
    np.maximum(out, EXP_CLAMP, out=out)
    np.exp(out, out=out)
    out /= out.sum(axis=1, keepdims=True)
    out[out < PROB_FLOOR] = 0.0
    return out


# ---------------------------------------------------------------------------
# Moment matrices
# ---------------------------------------------------------------------------


def _si_panels(q_si: ScalarQuantizer):
    """Gauss-Legendre nodes/weights per cell of a unit-variance SI, tails clipped at TAIL_CLIP."""
    edges = np.clip(q_si.edges(), -TAIL_CLIP, TAIL_CLIP)
    base_x, base_w = leggauss(N_GAUSS)
    nodes, weights, owner = [], [], []
    for lvl in range(q_si.size):
        a, b = edges[lvl], edges[lvl + 1]
        if b <= a:
            continue
        n_panels = max(1, int(np.ceil((b - a) / 0.75)))
        bounds = np.linspace(a, b, n_panels + 1)
        for pa, pb in zip(bounds[:-1], bounds[1:]):
            half = 0.5 * (pb - pa)
            nodes.append(0.5 * (pa + pb) + half * base_x)
            weights.append(half * base_w)
            owner.append(np.full(N_GAUSS, lvl, dtype=int))
    return np.concatenate(nodes), np.concatenate(weights), np.concatenate(owner)


def si_moment_matrices(
    quantizer: ScalarQuantizer,
    si_quantizer: ScalarQuantizer,
    pair: JointGaussianPair,
):
    """S0, S1, S2 moment matrices of shape (K, N_si): a batch of one correlation.

    The y-integral uses panelled Gauss-Legendre per SI cell; the inner
    x-moments over quantizer cells are exact Gaussian interval moments of the
    conditional law X | Y=y.  A one-level SI quantizer (no side information)
    gives one unconditional column.  Every table of the package is built for
    a unit-variance source and SI, so a pair with other variances is
    rejected here.
    """
    if pair.var_x != 1.0 or pair.var_y != 1.0:
        raise ValueError("moment matrices require a unit-variance source and side information")
    s0, s1, s2 = si_moment_stack(quantizer, si_quantizer, [pair.rho])
    return s0[0], s1[0], s2[0]


def si_moment_stack(quantizer: ScalarQuantizer, si_quantizer: ScalarQuantizer, rhos):
    """S0, S1, S2 of a unit-variance source and SI for many correlations, each (R, K, N_si).

    Entry r is the moment matrix at correlation ``rhos[r]`` and does not
    depend on the rest of the batch: independent SI (one level, or rho = 0)
    sees the marginal, weighted by P(level); otherwise each SI level adds up
    its quadrature nodes one at a time in node order, whatever the chunking.
    Chunks hold at most ``MOMENT_CHUNK // K`` (correlation, node) pairs.  The
    panels list each level's nodes together, so a level's nodes in a chunk
    are added to its running sum in one reduction (:func:`_sum_in_order`).
    """
    edges = quantizer.edges()
    K = quantizer.size
    rhos = np.clip(np.asarray(rhos, dtype=float).reshape(-1), -RHO_CAP, RHO_CAP)
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

    nodes, wts, owner = _si_panels(si_quantizer)
    fy = np.exp(-0.5 * nodes ** 2) / np.sqrt(2 * np.pi)
    wts = (wts * fy)[:, None, None]
    cond_sd = np.array([np.sqrt(1.0 - r ** 2) for r in rhos[coupled]])
    mean_slope = rhos[coupled]

    chunk = max(1, MOMENT_CHUNK // max(K, 1))
    node_step = min(nodes.size, chunk)
    rho_step = max(1, chunk // nodes.size)
    # Per node chunk, the run of nodes of each SI level present: (level, start, stop).
    steps = []
    for start in range(0, nodes.size, node_step):
        own = owner[start:start + node_step]
        levels, firsts = np.unique(own, return_index=True)
        runs = list(zip(levels, firsts, [*firsts[1:], own.size]))
        steps.append((slice(start, start + own.size), runs))
    for r0 in range(0, coupled.size, rho_step):
        rs = slice(r0, r0 + rho_step)
        acc = np.zeros((3, n_levels, mean_slope[rs].size, K))  # (moment, level, rho, cell)
        for sl, runs in steps:
            cond_means = nodes[sl, None] * mean_slope[None, rs]
            moments = gauss_interval_moments_batch(edges, cond_means, cond_sd[rs])
            for a, m in zip(acc, moments):
                vals = m * wts[sl]
                for level, lo, hi in runs:
                    a[level] = _sum_in_order(np.concatenate((a[level][None], vals[lo:hi])))
        out[:, coupled[rs]] = _clean_moments(*acc.transpose(0, 2, 3, 1))
    return out[0], out[1], out[2]


def _sum_in_order(stack):
    """stack[0] + stack[1] + ... along the first axis, added left to right.

    numpy reduces an outer axis one slice at a time, but sums a contiguous
    axis pairwise: when each slice is a single entry it accumulates instead.
    """
    if stack[0].size == 1:
        return np.add.accumulate(stack, axis=0)[-1]
    return np.add.reduce(stack, axis=0)


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
    """Priors P(I | SI level) and codebooks C(I | SI level) of a decoder.

    Arrays are indexed (correlation level, SI level, tuple).  ``prior_nosi``
    and ``codebook_nosi`` are the no-side-information tables: the joint
    decoder's first iteration reads them, and every rho = 0 level repeats them
    at each SI level.  Tuples with zero prior keep codebook value 0.
    """

    rho_values: np.ndarray
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


def _nosi_tables(quantizer, table):
    # Designed index tables are Fortran-ordered, loaded ones C-ordered, and the
    # products below round differently for the two: one order gives both the same tables.
    table = np.asfortranarray(table)
    p, m1, _ = gauss_interval_moments_batch(quantizer.edges(), 0.0, 1.0)
    prior = table.T @ p
    first = table.T @ m1
    return np.where(prior > PROB_FLOOR, prior, 0.0), masked_ratio(first, prior, PROB_FLOOR)


def build_decoder_tables(
    quantizer: ScalarQuantizer,
    si_quantizer: ScalarQuantizer,
    ia: IndexAssignment,
    rhos,
    moments=None,
) -> DecoderTables:
    """Decoder tables of a unit-variance source and SI, one per correlation in ``rhos``.

    A tuple whose joint mass with an SI level is at most ``PROB_FLOOR`` gets
    prior 0 and codebook 0 there.  ``moments`` maps correlations whose
    (S0, S1) moment matrices the caller already holds to those matrices.
    Every other nonzero correlation takes its moments from one batched
    :func:`si_moment_stack` call in this process, whose entries do not
    depend on the rest of the batch.
    """
    rhos = np.array(rhos, dtype=float)
    moments = dict(moments or {})
    prior_nosi, codebook_nosi = _nosi_tables(quantizer, ia.table)
    missing = list(dict.fromkeys(rho for rho in rhos if rho != 0.0 and rho not in moments))
    if missing:
        s0, s1, _ = si_moment_stack(quantizer, si_quantizer, missing)
        moments.update(zip(missing, zip(s0, s1)))

    def level_tables(rho):
        if rho == 0.0:
            # Independent SI: every level must reproduce the no-SI tables
            # bit-exactly so that iterating on uncorrelated neighbors is a no-op.
            reps = (si_quantizer.size, 1)
            return np.tile(prior_nosi, reps), np.tile(codebook_nosi, reps)
        s0, s1 = moments[rho]
        joint = ia.table.T @ s0  # (L, S): P(I, SI level)
        first = ia.table.T @ s1
        psi = joint.sum(axis=0)
        prior = np.where(joint <= PROB_FLOOR, 0.0, joint / np.maximum(psi[None, :], 1e-300))
        return prior.T, masked_ratio(first, joint, PROB_FLOOR).T  # (S, L) each

    levels = [level_tables(rho) for rho in rhos]
    return DecoderTables(
        rho_values=rhos,
        prior=np.stack([prior for prior, _ in levels]),
        codebook=np.stack([codebook for _, codebook in levels]),
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

    def d_av_db(self) -> float:
        return 10.0 * np.log10(self.d_av)


class DecoderState(NamedTuple):
    """Matched decoder of one assignment: (L, S) tuple tables, (N, S) word tables."""

    joint: np.ndarray
    first: np.ndarray
    den: np.ndarray
    num: np.ndarray
    xhat: np.ndarray


class DesignContext:
    """Precomputed quantities for analytic distortion/weight evaluation.

    Valid for one (quantizer, SI quantizer, source/SI pair, channel vector)
    combination; the index assignment varies across calls.
    """

    def __init__(self, quantizer, si_quantizer, pair, channels):
        for ch in channels:
            if ch.kind != "bsc":
                raise ValueError("analytic evaluation requires discrete channel")
        self.quantizer = quantizer
        self.si_quantizer = si_quantizer
        self.pair = pair
        self.channels = tuple(channels)
        self.space = tuple_space(channels)
        self.s0, self.s1, self.s2 = si_moment_matrices(quantizer, si_quantizer, pair)
        self.cell_probs = quantizer.cell_probs
        self.stacked, self.offsets = stacked_pattern_table(channels)
        self.pattern_probs = np.array(
            [loss_pattern_prob(q, channels) for q in loss_patterns(len(channels))]
        )
        self.e_x2 = float(self.s2.sum())
        # Constant factors of the fused products.
        self.s01 = np.hstack([self.s0, self.s1])  # (K, 2S)
        col_probs = np.repeat(self.pattern_probs, np.diff(self.offsets))
        self.weighted_stacked = self.stacked * col_probs[None, :]  # (L, N)
        self.s01_t = np.vstack([self.s0.T, self.s1.T])  # (2S, K)
        self.s2_tot = self.s2.sum(axis=1)  # (K,)

    def decoder_state(self, table: np.ndarray) -> DecoderState:
        """Joint tables and reconstruction lookups implied by an assignment."""
        S = self.s0.shape[1]
        moments = table.T @ self.s01  # (L, 2S): P(I, y) and first moments
        den, num, xhat = pattern_lookups(self.stacked, moments)
        return DecoderState(moments[:, :S], moments[:, S:], den, num, xhat)

    def distortion(self, table: np.ndarray) -> DistortionBreakdown:
        """Matched-decoder average distortion split into encoder/channel parts.

        From :meth:`decoder_state`: d_se = E[x^2] - sum first^2 / joint, d_av =
        E[x^2] + sum_p P(p) :func:`pattern_errors`, and d_ch = d_av - d_se.
        """
        state = self.decoder_state(table)
        d_se = self.e_x2 - float(masked_ratio(state.first**2, state.joint, PROB_FLOOR).sum())
        errors = pattern_errors(state.den, state.num, state.xhat, self.offsets)
        d_ch = self.e_x2 + float(self.pattern_probs @ errors) - d_se  # d_av - d_se
        return DistortionBreakdown(d_se, d_ch if d_ch > D_CH_FLOOR * self.e_x2 else 0.0)

    def weights(self, state: DecoderState, out=None, block=None) -> np.ndarray:
        """Distortion derivative d D / d P(I | cell k), shape (K, L), Fortran-ordered.

        Uses the reconstruction lookups of ``state`` (i.e., the decoder built
        from the assignment of the previous step):
        ``W[k, I] = sum_y S2[k, y] + sum_(p, j) P(p) T[I, j] (xhat^2 S0 - 2 xhat S1)``.
        The weights are written into ``out`` (K, L, Fortran-ordered) and the
        (N, 2S) ``[xhat^2 | -2 xhat]`` block into ``block``, when given.
        For the state of a table A, sum A * W is A's distortion.
        """
        xhat = state.xhat
        S = xhat.shape[1]
        if block is None:
            block = np.empty((xhat.shape[0], 2 * S))
        np.square(xhat, out=block[:, :S])
        np.multiply(xhat, -2.0, out=block[:, S:])
        if out is None:
            out = np.empty((self.s0.shape[0], self.space.size), order="F")
        per_tuple = self.weighted_stacked @ block  # (L, 2S)
        out_t = out.T
        np.matmul(per_tuple, self.s01_t, out=out_t)
        out_t += self.s2_tot
        return out


def evaluate_distortion(
    quantizer: ScalarQuantizer,
    si_quantizer: ScalarQuantizer,
    ia: IndexAssignment,
    pair: JointGaussianPair,
    channels,
) -> DistortionBreakdown:
    """Analytic D_se / D_ch / D_av for a codec over BSC channels."""
    ctx = DesignContext(quantizer, si_quantizer, pair, channels)
    return ctx.distortion(ia.table)


# ---------------------------------------------------------------------------
# Deterministic annealing design
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CodecBundle:
    """A designed codec: quantizers, hard assignment, channels and design correlation.

    It holds no decoder tables: each decoder builds the ones it reads
    (:func:`build_decoder_tables`) when it is made.
    """

    quantizer: ScalarQuantizer
    si_quantizer: ScalarQuantizer
    ia: IndexAssignment
    channels: tuple
    design_rho: float
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        if not self.ia.hard:
            raise ValueError("bundle requires a hardened index assignment")
        K = self.quantizer.size
        L = int(np.prod([ch.index_count for ch in self.channels]))
        if self.ia.table.shape != (K, L):
            raise ValueError(
                f"index assignment is {self.ia.table.shape[0]} x {self.ia.table.shape[1]}, "
                f"expected {K} cells x {L} index tuples"
            )

    def rho_level(self, rho: float) -> int:
        """The ``RHO_LADDER`` level at which a decoder reads its tables for ``rho``."""
        return quantize_rho(rho)


def _auto_t_init(weights, cell_probs) -> float:
    L = weights.shape[1]
    target = ENTROPY_TARGET * np.log2(L)
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


def _anneal_once(ctx: DesignContext, rng):
    """One annealing run from a Dirichlet start: (hardened assignment, its distortions, info).

    An inner step is a Gibbs table, its decoder and the weights of that
    decoder, all written into buffers made once per run; the step's d_av is
    sum table * weights (:meth:`DesignContext.weights`), so the loop never
    calls ``distortion``.  The tables take the weights' Fortran order, in
    which the Gibbs row sums and the decoder product have always rounded.
    """
    L = ctx.space.size
    K = ctx.quantizer.size
    table = rng.dirichlet(np.ones(L), size=K)
    block = np.empty((ctx.stacked.shape[1], 2 * ctx.s0.shape[1]))
    weights = ctx.weights(ctx.decoder_state(table), block=block)
    t_init = _auto_t_init(weights, ctx.cell_probs)
    t_min = T_MIN_RATIO * t_init

    table = np.empty_like(weights)
    p = np.maximum(ctx.cell_probs, 1e-300)
    T = t_init
    violations = 0
    cap_hits = 0
    prev_entropy = None
    entropy_increases = 0
    while T > t_min:
        d_prev = np.inf
        for _ in range(INNER_CAP):
            _gibbs_rows(weights, T, p, table)
            ctx.weights(ctx.decoder_state(table), out=weights, block=block)
            # The transposes are C-contiguous, so vdot reads them without a copy.
            d_av = float(np.vdot(table.T, weights.T))
            if d_av > d_prev * (1.0 + 1e-12):
                violations += 1
            if abs(d_prev - d_av) < INNER_TOL * max(d_av, 1e-300):
                break
            d_prev = d_av
        else:
            cap_hits += 1
        ent = ia_entropy(IndexAssignment(table), ctx.cell_probs)
        if prev_entropy is not None and ent > prev_entropy + 1e-9:
            entropy_increases += 1
        prev_entropy = ent
        T *= COOLING

    soft_d = ctx.distortion(table).d_av
    hard_ia = harden(IndexAssignment(table))
    hard = ctx.distortion(hard_ia.table)
    info = {
        "t_init": float(t_init),
        "soft_d_av": float(soft_d),
        "hardening_gap": float(hard.d_av - soft_d),
        "monotonicity_violations": int(violations),
        "inner_cap_hits": int(cap_hits),
        "entropy_increases": int(entropy_increases),
    }
    return hard_ia, hard, info


def design_annealed(
    quantizer: ScalarQuantizer,
    si_quantizer: ScalarQuantizer,
    pair: JointGaussianPair,
    channels,
    restarts: int = 3,
    seed: int = 0,
) -> CodecBundle:
    """Design a codec by deterministic annealing.

    Runs ``restarts`` independent seeded starts and keeps the first hardened
    table within ``RESTART_TIE_RTOL`` of the lowest d_av: relabelings of one
    table differ only by rounding, which a strict ``<`` would let pick the
    codec.  The restarts run in forked worker
    processes, one per usable CPU up to the restart count, each with one BLAS
    thread (:func:`mdquant.forking.fork_map`); each restart draws from
    ``derive_rng(seed, restart)`` wherever it runs, so the result is the same
    as running them one after another.  The returned bundle holds the
    design; the decoders build their tables from it.
    """
    if restarts < 1:
        raise ValueError("restarts must be positive")
    if seed < 0:
        raise ValueError("seed must be non-negative")
    ctx = DesignContext(quantizer, si_quantizer, pair, channels)

    results = fork_map(
        lambda restart: _anneal_once(ctx, derive_rng(seed, restart)), range(restarts), "annealing"
    )
    for _, _, info in results:
        if info["inner_cap_hits"]:
            log.warning(
                "annealing inner loop hit the iteration cap %d time(s)", info["inner_cap_hits"]
            )
        if info["monotonicity_violations"]:
            log.info(
                "annealing saw %d non-monotone inner step(s)", info["monotonicity_violations"]
            )
    tie = min(hard.d_av for _, hard, _ in results) * (1.0 + RESTART_TIE_RTOL)
    best_restart = next(r for r, (_, hard, _) in enumerate(results) if hard.d_av <= tie)
    hard_ia, breakdown, info = results[best_restart]

    metadata = {
        "format_version": 1,
        "seed": int(seed),
        "restarts": int(restarts),
        "best_restart": int(best_restart),
        "design_rho": float(pair.rho),
        "d_se": float(breakdown.d_se),
        "d_ch": float(breakdown.d_ch),
        "d_av": float(breakdown.d_av),
        "schedule": {
            "t_init": info["t_init"],
            "cooling": COOLING,
            "t_min_ratio": T_MIN_RATIO,
            "inner_tol": INNER_TOL,
            "inner_cap": INNER_CAP,
            "entropy_target": ENTROPY_TARGET,
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
        metadata=metadata,
    )
