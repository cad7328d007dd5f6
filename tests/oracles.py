"""Reference implementations that only the tests use.

Grids and grid densities, SI-conditional cell probabilities, per-description
likelihoods and per-symbol transmission, the single-pass distortion, the
per-loss-pattern design quantities, the SI selection scores of one pair of
loss patterns, and the brute-force MMSE audit.  They compute from first principles what the package
computes from moment matrices and lookup tables, so the tests can check one
against the other.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product

import numpy as np

from mdquant.channel import (
    ChannelOutcome,
    DescriptionChannel,
    bit_patterns,
    bpsk_symbols,
    hamming_table,
    loss_pattern_prob,
    loss_patterns,
    pattern_likelihood_tables,
    pattern_table,
)
from mdquant.codec import (
    PROB_FLOOR,
    CodecBundle,
    DesignContext,
    IndexAssignment,
    masked_ratio,
)
from mdquant.decode_asym import decode, tuple_log_likelihood
from mdquant.gaussian import JointGaussianPair, gauss_interval_moments, gauss_interval_moments_batch
from mdquant.quantizer import ScalarQuantizer

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
# Distortion and annealing weights
# ---------------------------------------------------------------------------


def distortion_direct(ctx: DesignContext, table: np.ndarray, state=None) -> float:
    """Single-pass expectation E[(X - Xhat)^2] without the SE/Ch split."""
    if state is None:
        state = ctx.decoder_state(table)
    return float(np.sum(table * ctx.weights(state)))


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

    The conditional mean is computed from first principles: Simpson panels
    per quantizer cell, explicit SI-cell masses, and full enumeration of loss
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
    worst = 0.0
    for Q in loss_patterns(len(channels)):
        j_alphabets = [
            range(ch.received_alphabet) if got else [None]
            for ch, got in zip(channels, Q)
        ]
        for J in product(*j_alphabets):
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
                got = decode(outcome, level, rho_level, bundle)
                worst = max(worst, abs(got - exact))
    return worst
