"""Scenario generation, the package's decoders and Monte-Carlo experiments.

The asymmetric experiment transmits one source with external side
information; the symmetric experiment jointly decodes every node of a
sensor-field scenario.  Both decoders live here and work on all trials at
once: the asymmetric MMSE decoder is a lookup table per (correlation level,
channel set) for BSC channels (:class:`_AsymLookup`) and a per-trial
posterior for AWGN (:func:`_run_asym_awgn`); the joint decoder runs its
estimated-SI or soft-SI sweeps in :meth:`_SymDecoder.decode`.  With discrete
channels every decoder input is finite, so reconstructions reduce to table
lookups built once per configuration.  Results carry the Monte-Carlo
standard error of every estimate.  The per-symbol decoders that these are
tested against live in the test suite's oracles.

The asymmetric experiment takes a list of channel sets (a BSC sweep) and
does the shared work once: one draw of the source and its SI, one pass of
quantizer cells, tuple ids and SI levels, one set of conditional entropy
rates, and one set of flip and loss uniforms (or AWGN noise) per
description, to which every set applies its own rates.  It decodes in blocks
of ``DECODE_BLOCK`` trials drawn in turn from the same generators, so the
results equal one-call draws bit for bit and only the per-trial error arrays
grow with the trial count.

In the symmetric experiment the SI selection scores every distinct pair
correlation of the field in one batch (one moment quadrature, one table per
criterion), and each source picks its SI source per trial with a single
gather.  The selection is fixed for the run, so the decoder groups each
node's trials by the ladder level of their SI source once and every sweep
reuses the groups.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .channel import (
    bpsk_symbols,
    derive_rng,
    pattern_ids,
    stacked_pattern_table,
    tuple_space,
)
from .codec import CodecBundle, masked_ratio, pattern_lookups, si_moment_matrices
from .decode_sym import CrossTableCache, cross_table_stack
from .gaussian import JointGaussianPair, quantize_rho
from .si_select import score_tables, select_min_distance
from .si_select import (  # noqa: F401  (perfbench/spans.py patches these bindings)
    expected_partial_si_distortion,
    pairwise_mi,
)

PSD_EIGEN_FLOOR = 1e-9
# Pair correlations are capped here before they are quantized or scored:
# coincident nodes have rho = 1, where the conditional sd of one source given
# the other is 0.
RHO_CAP = 1.0 - 1e-12
SYM_MODES = ("estimated", "soft")
SI_METHODS = ("distance", "mutual_info", "min_distortion")


def to_db(linear: float) -> float:
    return float(10.0 * np.log10(linear))


@dataclass(frozen=True)
class WsnScenario:
    """Node positions in the unit square and the correlation field they induce."""

    positions: np.ndarray
    alpha: float
    pairwise_rho: np.ndarray
    channels: tuple
    seed: int

    def __post_init__(self):
        pos = np.asarray(self.positions, dtype=float)
        rho = np.asarray(self.pairwise_rho, dtype=float)
        n = pos.shape[0]
        if rho.shape != (n, n) or not np.allclose(rho, rho.T):
            raise ValueError("correlation matrix must be symmetric NxN")
        if not np.allclose(np.diag(rho), 1.0):
            raise ValueError("correlation matrix must have unit diagonal")
        object.__setattr__(self, "positions", pos)
        object.__setattr__(self, "pairwise_rho", rho)

    @property
    def n_nodes(self) -> int:
        return int(self.positions.shape[0])


def generate_scenario(
    n_nodes: int,
    channel_template,
    alpha: float = 2.0,
    seed: int = 0,
    positions=None,
) -> WsnScenario:
    """Uniform random node placement; correlation decays as exp(-distance/alpha)."""
    if n_nodes < 2:
        raise ValueError("need at least two nodes")
    if not (np.isfinite(alpha) and alpha > 0):
        raise ValueError(f"alpha must be positive and finite, got {alpha!r}")
    if positions is None:
        rng = derive_rng(seed, 0)
        positions = rng.random((n_nodes, 2))
    positions = np.asarray(positions, dtype=float)
    if not np.all(np.isfinite(positions)):
        raise ValueError("node positions must be finite")
    diff = positions[:, None, :] - positions[None, :, :]
    dist = np.sqrt(np.sum(diff**2, axis=2))
    rho = np.exp(-dist / alpha)
    np.fill_diagonal(rho, 1.0)
    return WsnScenario(positions, float(alpha), rho, tuple(channel_template), int(seed))


@dataclass(frozen=True)
class ExperimentResult:
    """Monte-Carlo (or analytic) distortion summary for one configuration."""

    name: str
    d_av: float
    trials: int
    stderr: float
    d_side: tuple | None = None
    d_central: float | None = None
    rates: tuple | None = None
    wall_time: float = 0.0
    extra: dict = field(default_factory=dict)

    @property
    def d_av_db(self) -> float:
        return to_db(self.d_av)

    @property
    def d_central_db(self) -> float | None:
        return None if self.d_central is None else to_db(self.d_central)

    @property
    def d_side_db(self) -> tuple | None:
        return None if self.d_side is None else tuple(to_db(v) for v in self.d_side)


def conditional_entropy_rates(
    bundle: CodecBundle, pair: JointGaussianPair, n_gauss: int = 16
) -> tuple:
    """Per-description conditional entropies H(description index | SI level), bits."""
    s0, _, _ = si_moment_matrices(bundle.quantizer, bundle.si_quantizer, pair, n_gauss)
    joint = bundle.ia.table.T @ s0  # (L, S): P(I, SI level)
    psi = joint.sum(axis=0)
    space = tuple_space(bundle.channels)
    rates = []
    for m in range(len(bundle.channels)):
        comp = space.component(m)
        n_m = bundle.channels[m].index_count
        joint_m = np.zeros((n_m, joint.shape[1]))
        np.add.at(joint_m, comp, joint)
        with np.errstate(divide="ignore", invalid="ignore"):
            cond = joint_m / np.maximum(psi[None, :], 1e-300)
            logs = np.where(joint_m > 0, np.log2(np.maximum(cond, 1e-300)), 0.0)
        # Clamped at 0: an entropy of exactly 0 would otherwise read -0.0.
        rates.append(max(0.0, float(-np.sum(joint_m * logs))))
    return tuple(rates)


# ---------------------------------------------------------------------------
# Shared vectorized transmission helpers (BSC)
# ---------------------------------------------------------------------------


def _bit_weights(bits: int) -> np.ndarray:
    return 1 << np.arange(bits - 1, -1, -1)


def _channel_streams(n_desc: int, rng_tags, seed):
    """(bit flips or noise, losses) generators of each description m.

    They derive from ``(seed, *rng_tags, 2m)`` and ``(seed, *rng_tags, 2m + 1)``.
    """
    return [
        (derive_rng(seed, *rng_tags, 2 * m), derive_rng(seed, *rng_tags, 2 * m + 1))
        for m in range(n_desc)
    ]


def _bsc_words(indices, channels, draws):
    """(trials, M) received words and loss flags of the sent ``indices[m]``.

    ``draws[m]`` holds description m's flip uniforms (trials, bits) and loss
    uniforms (trials,): a bit flips below the channel's bit error rate, and
    the description arrives at or above its loss probability.
    """
    shape = (indices[0].size, len(channels))
    words = np.empty(shape, dtype=int)
    received = np.empty(shape, dtype=bool)
    for m, (ch, idx, (flip_u, loss_u)) in enumerate(zip(channels, indices, draws)):
        words[:, m] = idx ^ ((flip_u < ch.bit_error_rate) @ _bit_weights(ch.bits))
        received[:, m] = loss_u >= ch.loss_prob
    return words, received


def _transmit_bsc(tuple_ids, channels, space, rng_tags, seed):
    """Vectorized transmission: returns per-description words and loss flags.

    ``rng_tags`` is a tuple prefix so different sources derive disjoint
    streams.  Received words are sampled for every description; the loss
    flags say which ones the decoder may look at.
    """
    n = tuple_ids.shape[0]
    streams = _channel_streams(len(channels), rng_tags, seed)
    draws = [
        (flip_rng.random((n, ch.bits)), loss_rng.random(n))
        for ch, (flip_rng, loss_rng) in zip(channels, streams)
    ]
    indices = [space.component(m)[tuple_ids] for m in range(len(channels))]
    return _bsc_words(indices, channels, draws)


def _word_rows(words: np.ndarray, pids: np.ndarray, channels, offsets) -> np.ndarray:
    """Row of each trial's received word in a stacked pattern table.

    Loss pattern p owns rows ``offsets[p]:offsets[p + 1]`` (see
    ``channel.stacked_pattern_table``); within them the words of the pattern's
    received descriptions combine row-major.
    """
    M = len(channels)
    key = np.zeros(words.shape[0], dtype=int)
    for m, ch in enumerate(channels):
        got = (pids & (1 << (M - 1 - m))).astype(bool)
        np.multiply(key, ch.received_alphabet, out=key, where=got)
        np.add(key, words[:, m], out=key, where=got)
    key += offsets[pids]
    return key


class _AsymLookup:
    """Reconstruction lookup table for one (rho level, channel set).

    ``table[offsets[p] + j, y]`` reconstructs from combined word j under loss
    pattern p with SI level y, and ``xhat[p]`` is pattern p's block of it.
    ``level`` None means no SI.
    """

    def __init__(self, bundle: CodecBundle, channels, level: int | None):
        t = bundle.tables
        if level is None:
            joint = t.prior_nosi[:, None]
            first = (t.prior_nosi * t.codebook_nosi)[:, None]
        else:
            joint = (t.prior[level] * t.si_probs[:, None]).T  # (L, S)
            first = joint * t.codebook[level].T
        stacked, self.offsets = stacked_pattern_table(channels)
        _, _, self.table = pattern_lookups(stacked, joint, first)
        self.xhat = np.split(self.table, self.offsets[1:-1])


# ---------------------------------------------------------------------------
# Asymmetric experiment
# ---------------------------------------------------------------------------

# Trials per decode block of the asymmetric experiment.  Block draws continue
# the same generators, so results do not depend on the block size.
DECODE_BLOCK = 65_536


@dataclass
class AsymConfig:
    """One asymmetric Monte-Carlo configuration."""

    bundle: CodecBundle
    rho_real: float
    trials: int = 100_000
    seed: int = 0
    rho_dec: float | None = None
    use_si: bool = True
    eval_channels: tuple | None = None
    compute_side: bool = True
    name: str = "asym"


def run_asym_experiment(
    cfg: AsymConfig, channel_sets=None
) -> ExperimentResult | list[ExperimentResult]:
    """Monte-Carlo transmission of one source decoded with (optional) SI.

    Without ``channel_sets`` this returns one result, for ``cfg.eval_channels``
    or the codec's own channels.  With a list of channel sets it returns one
    result per set, each equal to a run with ``eval_channels`` set to it: the
    source, its quantizer cells and SI levels, the rates and the channel
    randomness are drawn once, and every set applies its own error and loss
    rates to the same draws.  Every result's ``wall_time`` is that of the
    whole call up to the end of decoding.
    """
    start = time.perf_counter()
    bundle = cfg.bundle
    if channel_sets is None:
        sets = [tuple(cfg.eval_channels or bundle.channels)]
    elif cfg.eval_channels is not None:
        raise ValueError("give eval_channels or channel_sets, not both")
    else:
        sets = [tuple(chs) for chs in channel_sets]
    _check_channel_sets(bundle, sets)
    rho_dec = cfg.rho_real if cfg.rho_dec is None else cfg.rho_dec
    level = bundle.rho_level(rho_dec) if cfg.use_si else None
    rates = conditional_entropy_rates(bundle, JointGaussianPair(1.0, 1.0, rho_dec))

    # x and z come whole from one stream; everything after is per block.
    rng_src = derive_rng(cfg.seed, 1)
    x = rng_src.standard_normal(cfg.trials)
    z = rng_src.standard_normal(cfg.trials)
    if sets[0][0].kind == "bsc":
        decoded, extra = _run_asym_bsc(cfg, sets, x, z, level), {}
    else:
        decoded, extra = _run_asym_awgn(cfg, sets, x, z, level), {"channel": "awgn"}

    wall_time = time.perf_counter() - start
    n = cfg.trials
    results = [
        ExperimentResult(
            name=cfg.name,
            d_av=float(err.mean()),
            trials=n,
            stderr=float(err.std(ddof=1) / np.sqrt(n)),
            d_side=d_side,
            d_central=d_central,
            rates=rates,
            wall_time=wall_time,
            extra=dict(extra),
        )
        for err, d_side, d_central in decoded
    ]
    return results[0] if channel_sets is None else results


def _check_channel_sets(bundle: CodecBundle, sets) -> None:
    """Every set carries the codec's index tuples over channels of one kind."""
    if not sets:
        raise ValueError("need at least one channel set")
    counts = tuple(ch.index_count for ch in bundle.channels)
    kinds = {ch.kind for chs in sets for ch in chs}
    for chs in sets:
        if tuple(ch.index_count for ch in chs) != counts:
            raise ValueError(
                f"channel set carries {[ch.index_count for ch in chs]} indices, "
                f"the codec {list(counts)}"
            )
    if len(kinds) > 1:
        raise ValueError("channel sets must be all BSC or all AWGN")


def _source_blocks(cfg: AsymConfig, x, z):
    """Per decode block: (slice, x, tuple ids, SI levels).

    The SI y = rho x + sqrt(1 - rho^2) z is formed block by block, and
    ``DECODE_BLOCK`` is read at call time.
    """
    bundle = cfg.bundle
    rho = cfg.rho_real
    scale = np.sqrt(max(1.0 - rho**2, 0.0))
    hard = bundle.ia.hard_map()
    for lo in range(0, x.size, DECODE_BLOCK):
        blk = slice(lo, min(lo + DECODE_BLOCK, x.size))
        xb = x[blk]
        tuple_ids = hard[np.searchsorted(bundle.quantizer.thresholds, xb, side="left")]
        if cfg.use_si:
            y = rho * xb + scale * z[blk]
            si_levels = np.searchsorted(bundle.si_quantizer.thresholds, y, side="left")
        else:
            si_levels = np.zeros(xb.size, dtype=int)
        yield blk, xb, tuple_ids, si_levels


def _run_asym_bsc(cfg: AsymConfig, sets, x, z, level) -> list:
    """BSC path: one lookup per set; (squared errors, d_side, d_central) per set.

    d_side and d_central force the loss patterns of two descriptions; every
    error array is kept whole so its mean is the one-call mean.
    """
    n = x.size
    channels = sets[0]
    space = tuple_space(channels)
    comps = [space.component(m) for m in range(len(channels))]
    streams = _channel_streams(len(channels), (2,), cfg.seed)
    lookups = [_AsymLookup(cfg.bundle, chs, level) for chs in sets]
    forced_patterns = (2, 1, 3) if cfg.compute_side and len(channels) == 2 else ()
    errs = [np.empty(n) for _ in sets]
    forced = [[np.empty(n) for _ in forced_patterns] for _ in sets]
    for blk, xb, tuple_ids, si_levels in _source_blocks(cfg, x, z):
        draws = [
            (flip_rng.random((xb.size, ch.bits)), loss_rng.random(xb.size))
            for ch, (flip_rng, loss_rng) in zip(channels, streams)
        ]
        indices = [comp[tuple_ids] for comp in comps]
        for chs, lookup, err, forced_s in zip(sets, lookups, errs, forced):
            words, received = _bsc_words(indices, chs, draws)
            rows = _word_rows(words, pattern_ids(received), chs, lookup.offsets)
            err[blk] = (xb - lookup.table[rows, si_levels]) ** 2
            for p, out in zip(forced_patterns, forced_s):
                rows = _word_rows(words, np.full(xb.size, p), chs, lookup.offsets)
                out[blk] = (xb - lookup.table[rows, si_levels]) ** 2
    decoded = []
    for err, forced_s in zip(errs, forced):
        if forced_s:
            d10, d01, d11 = (float(np.mean(out)) for out in forced_s)
            decoded.append((err, (d10, d01), d11))
        else:
            decoded.append((err, None, None))
    return decoded


def _run_asym_awgn(cfg: AsymConfig, sets, x, z, level) -> list:
    """AWGN path: per-trial log-likelihoods instead of lookups.

    Returns (squared errors, None, None) per set.  The log-prior is taken
    once per (SI level, tuple) table and gathered per trial; the noise of
    each description is drawn once per block as N(0, 1) and scaled by each
    set's sqrt(N0 / 2), which equals drawing N(0, N0 / 2) from the stream.
    """
    t = cfg.bundle.tables
    n = x.size
    channels = sets[0]
    space = tuple_space(channels)
    comps = [space.component(m) for m in range(len(channels))]
    syms = [bpsk_symbols(ch.bits)[: ch.index_count] for ch in channels]
    streams = _channel_streams(len(channels), (2,), cfg.seed)
    if level is None:
        prior, codebook = t.prior_nosi[None, :], t.codebook_nosi[None, :]
    else:
        prior, codebook = t.prior[level], t.codebook[level]
    with np.errstate(divide="ignore"):
        log_prior = np.where(prior > 0, np.log(np.maximum(prior, 1e-300)), -np.inf)
    errs = [np.empty(n) for _ in sets]
    for blk, xb, tuple_ids, si_levels in _source_blocks(cfg, x, z):
        draws = [
            (noise_rng.standard_normal((xb.size, ch.bits)), loss_rng.random(xb.size))
            for ch, (noise_rng, loss_rng) in zip(channels, streams)
        ]
        log_prior_b = np.take(log_prior, si_levels, axis=0)
        codebook_b = np.take(codebook, si_levels, axis=0)
        for chs, err in zip(sets, errs):
            post = np.zeros((xb.size, space.size))
            for ch, comp, sym, (noise, loss_u) in zip(chs, comps, syms, draws):
                out = sym[comp[tuple_ids]] + np.sqrt(ch.noise_psd / 2.0) * noise
                # Up to per-trial constants: log lik = 2 <out, s_i> / N0.
                ll = 2.0 * (out @ sym.T) / ch.noise_psd
                ll[loss_u < ch.loss_prob] = 0.0
                post += ll[:, comp]
            post += log_prior_b
            post -= post.max(axis=1, keepdims=True)
            np.exp(post, out=post)
            post /= post.sum(axis=1, keepdims=True)
            post *= codebook_b
            err[blk] = (xb - post.sum(axis=1)) ** 2
    return [(err, None, None) for err in errs]


# ---------------------------------------------------------------------------
# Symmetric experiment
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SymConfig:
    """One symmetric Monte-Carlo configuration over a WSN scenario.

    ``mode`` and ``si_method`` are checked here, before any sampling starts.
    """

    scenario: WsnScenario
    bundle: CodecBundle
    mode: str = "soft"
    si_method: str = "min_distortion"
    trials: int = 20_000
    seed: int = 0
    max_iters: int = 10
    tol: float = 1e-6
    name: str = "sym"

    def __post_init__(self):
        if self.mode not in SYM_MODES:
            raise ValueError("mode must be 'estimated' or 'soft'")
        if self.si_method not in SI_METHODS:
            raise ValueError("unknown SI selection method")


def sample_correlated_sources(scenario: WsnScenario, trials: int, seed: int):
    """Draw jointly Gaussian node symbols; PSD-projects the correlation matrix."""
    rho = scenario.pairwise_rho
    vals, vecs = np.linalg.eigh(rho)
    projected = bool(vals.min() < PSD_EIGEN_FLOOR)
    vals = np.maximum(vals, PSD_EIGEN_FLOOR)
    factor = vecs * np.sqrt(vals)[None, :]
    rng = derive_rng(seed, 3)
    z = rng.standard_normal((trials, rho.shape[0]))
    return z @ factor.T, projected


# Cross tables per selection chunk: correlations times K^2 cells.
SELECT_CHUNK = 2_000_000


def _selection_score_tables(bundle, rho_keys, method):
    """score[r, q_u, q_t] of the pattern-dependent criterion at correlation ``rho_keys[r]``.

    Scores are evaluated at the exact pair correlations; only the stored
    decoder tables live on the quantized grid.  The correlations are scored
    in chunks of at most ``SELECT_CHUNK // K^2``, so the cross tables of a
    full-scale codec stay bounded.
    """
    K = bundle.quantizer.size
    step = max(1, SELECT_CHUNK // (K * K))
    parts = []
    for i in range(0, len(rho_keys), step):
        cross = cross_table_stack(bundle, bundle, rho_keys[i:i + step])
        parts.append(score_tables(bundle, bundle, cross, method))
    return np.concatenate(parts)


def _select_maps(cfg: SymConfig, pids) -> np.ndarray:
    """(trials, N) chosen SI source per trial under the configured criterion."""
    n_nodes = cfg.scenario.n_nodes
    trials = pids.shape[0]
    if cfg.si_method == "distance":
        fixed = select_min_distance(cfg.scenario.positions).map
        return np.broadcast_to(fixed, (trials, n_nodes))
    rho = cfg.scenario.pairwise_rho
    keys = {
        (u, t): round(min(float(rho[u, t]), RHO_CAP), 12)
        for u in range(n_nodes) for t in range(n_nodes) if t != u
    }
    rho_keys = sorted(set(keys.values()))
    position = {key: i for i, key in enumerate(rho_keys)}
    ridx = np.zeros((n_nodes, n_nodes), dtype=int)
    for (u, t), key in keys.items():
        ridx[u, t] = position[key]
    tables = _selection_score_tables(cfg.bundle, rho_keys, cfg.si_method)
    pick_best = np.argmax if cfg.si_method == "mutual_info" else np.argmin
    worst = -np.inf if cfg.si_method == "mutual_info" else np.inf
    smap = np.empty((trials, n_nodes), dtype=int)
    for u in range(n_nodes):
        scores = tables[ridx[u], pids[:, u, None], pids]  # (trials, candidates)
        scores[:, u] = worst
        smap[:, u] = pick_best(scores, axis=1)
    return smap


def _trial_groups(level_u, s_map_u) -> list:
    """One node's trials grouped by the ladder level of their SI source.

    Each group is (level, trial indices, SI source per trial).  The selection
    is fixed for a whole run, so every decoder sweep reuses the groups.
    """
    groups = []
    for level in np.unique(level_u):
        idx = np.flatnonzero(level_u == level)
        groups.append((int(level), idx, s_map_u[idx]))
    return groups


class _SymDecoder:
    """The joint decoder: synchronous estimated-SI or soft-SI sweeps over all trials.

    Iteration 1 decodes every node without SI; each later sweep reads the
    state the previous one left.  :meth:`decode` runs the sweeps, and the
    other methods are its steps for one node across all trials.
    """

    def __init__(self, cfg: SymConfig, cache):
        self.cfg = cfg
        self.bundle = cfg.bundle
        self.channels = tuple(cfg.bundle.channels)
        self.space = tuple_space(self.channels)
        self.cache = cache
        stacked, self.offsets = stacked_pattern_table(self.channels, self.space)
        self.word_lik = np.ascontiguousarray(stacked.T)  # (N, L)
        t = self.bundle.tables
        self.nosi_prior = t.prior_nosi
        self.nosi_codebook = t.codebook_nosi
        self.lookups = {}
        self.mixes = {}

    def lookup(self, level):
        if level not in self.lookups:
            self.lookups[level] = _AsymLookup(self.bundle, self.channels, level)
        return self.lookups[level]

    def mix(self, level, final):
        """Neighbor tuple posterior -> own prior, or [prior | first moment] when ``final``."""
        if (level, final) not in self.mixes:
            cross = self.cache.get(level)
            mat = np.vstack([cross.mix_prob, cross.mix_first]) if final else cross.mix_prob
            self.mixes[level, final] = mat.T
        return self.mixes[level, final]

    def word_rows(self, words_u, pids_u):
        """Row of each trial's received word in the stacked pattern table."""
        return _word_rows(words_u, pids_u, self.channels, self.offsets)

    def lik_rows(self, words_u, pids_u):
        """(trials, L) channel likelihood rows for one source."""
        return self.word_lik[self.word_rows(words_u, pids_u)]

    def no_si_pass(self, lik):
        """lik: (trials, L) -> (posteriors, estimates)."""
        post = lik * self.nosi_prior[None, :]
        post /= post.sum(axis=1, keepdims=True)
        return post, post @ self.nosi_codebook

    def estimated_step(self, est_prev, groups_u, rows_u):
        """One estimated-SI update of a single source across all trials."""
        out = np.empty(est_prev.shape[1])
        thresholds = self.bundle.si_quantizer.thresholds
        for level, idx, nbr in groups_u:
            y_levels = np.searchsorted(thresholds, est_prev[nbr, idx], side="left")
            out[idx] = self.lookup(level).table[rows_u[idx], y_levels]
        return out

    def soft_prior(self, posts_prev, groups_u, final=False):
        """Neighbor posterior -> own prior per trial, (trials, L).

        With ``final`` the rows are [prior | first moment], (trials, 2L), from
        one product per group.
        """
        L = self.space.size
        out = np.empty((posts_prev.shape[1], 2 * L if final else L))
        for level, idx, nbr in groups_u:
            out[idx] = posts_prev[nbr, idx] @ self.mix(level, final)
        return out

    def decode(self, words, pids, groups):
        """(nodes, trials) estimates from the received words of every node.

        ``words`` is (trials, nodes, M), ``pids`` the (trials, nodes) loss
        pattern ids and ``groups[u]`` node u's trial groups
        (:func:`_trial_groups`).  The sweeps stop after ``max_iters``
        iterations, or once the largest change falls below ``tol``: of the
        estimates (estimated-SI), or of the posteriors (soft-SI, which
        reconstructs once, after its last sweep).
        """
        cfg = self.cfg
        trials, n_nodes = pids.shape
        ests = np.empty((n_nodes, trials))
        if cfg.mode == "estimated":
            # Only the no-SI estimates carry over; no posterior is kept.
            for u in range(n_nodes):
                _, ests[u] = self.no_si_pass(self.lik_rows(words[:, u], pids[:, u]))
            rows = [self.word_rows(words[:, u], pids[:, u]) for u in range(n_nodes)]
            for _ in range(cfg.max_iters - 1):
                new_ests = np.empty_like(ests)
                for u in range(n_nodes):
                    new_ests[u] = self.estimated_step(ests, groups[u], rows[u])
                delta = float(np.max(np.abs(new_ests - ests)))
                ests = new_ests
                if delta < cfg.tol:
                    break
            return ests

        lik = [self.lik_rows(words[:, u], pids[:, u]) for u in range(n_nodes)]
        posts = np.empty((n_nodes, trials, self.space.size))
        for u in range(n_nodes):
            posts[u], ests[u] = self.no_si_pass(lik[u])
        # Three posterior buffers rotate: the sweep writes ``new`` from
        # ``posts``, and ``prev`` keeps the posteriors behind the final priors.
        prev, spare = posts, None
        for _ in range(cfg.max_iters - 1):
            new = np.empty_like(posts) if spare is None else spare
            delta = 0.0
            for u in range(n_nodes):
                p = np.multiply(lik[u], self.soft_prior(posts, groups[u]), out=new[u])
                p /= np.maximum(p.sum(axis=1, keepdims=True), 1e-300)
                delta = max(delta, float(np.max(np.abs(p - posts[u]))))
            spare = None if prev is posts else prev
            prev, posts = posts, new
            if delta < cfg.tol:
                break
        if prev is posts:
            return ests
        L = self.space.size
        xhat = np.empty_like(ests)
        for u in range(n_nodes):
            den_num = self.soft_prior(prev, groups[u], final=True)
            xhat[u] = np.sum(posts[u] * masked_ratio(den_num[:, L:], den_num[:, :L]), axis=1)
        return xhat


def run_sym_experiment(cfg: SymConfig) -> ExperimentResult:
    """Monte-Carlo joint decoding of a scenario; averages distortion over nodes."""
    start = time.perf_counter()
    scenario, bundle = cfg.scenario, cfg.bundle
    n_nodes = scenario.n_nodes
    level_matrix = np.zeros((n_nodes, n_nodes), dtype=int)
    for u in range(n_nodes):
        for t in range(n_nodes):
            if t != u:
                level_matrix[u, t] = quantize_rho(
                    min(scenario.pairwise_rho[u, t], RHO_CAP), bundle.ladder
                )

    x, projected = sample_correlated_sources(scenario, cfg.trials, cfg.seed)
    cells = np.searchsorted(
        bundle.quantizer.thresholds, x.ravel(), side="left"
    ).reshape(x.shape)
    tuple_ids = bundle.ia.hard_map()[cells]

    space = tuple_space(bundle.channels)
    words = np.empty((cfg.trials, n_nodes, len(bundle.channels)), dtype=int)
    received = np.empty((cfg.trials, n_nodes, len(bundle.channels)), dtype=bool)
    for u in range(n_nodes):
        words[:, u], received[:, u] = _transmit_bsc(
            tuple_ids[:, u], bundle.channels, space, (4, u), cfg.seed
        )
    pids = pattern_ids(received)  # (trials, nodes)

    s_map = _select_maps(cfg, pids)
    dec = _SymDecoder(cfg, CrossTableCache(bundle))
    groups = [
        _trial_groups(level_matrix[u, s_map[:, u]], s_map[:, u]) for u in range(n_nodes)
    ]
    xhat = dec.decode(words, pids, groups)

    sq = (x.T - xhat) ** 2  # (n_nodes, trials)
    per_trial = sq.mean(axis=0)
    return ExperimentResult(
        name=cfg.name,
        d_av=float(per_trial.mean()),
        trials=cfg.trials,
        stderr=float(per_trial.std(ddof=1) / np.sqrt(cfg.trials)),
        wall_time=time.perf_counter() - start,
        extra={
            "mode": cfg.mode,
            "si_method": cfg.si_method,
            "n_nodes": n_nodes,
            "psd_projected": projected,
        },
    )
