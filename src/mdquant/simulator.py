"""Scenario generation and Monte-Carlo experiments.

The asymmetric experiment transmits one source with external side
information; the symmetric experiment jointly decodes every node of a
sensor-field scenario.  Both are vectorized over trials: with discrete
channels every decoder input is finite, so reconstructions reduce to table
lookups built once per configuration.  Results carry the Monte-Carlo
standard error of every estimate.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .channel import derive_rng, loss_patterns, stacked_pattern_table, tuple_space
from .codec import CodecBundle, masked_ratio, pattern_lookups, si_moment_matrices
from .decode_sym import CrossTableCache
from .gaussian import JointGaussianPair, quantize_rho
from .si_select import (
    expected_partial_si_distortion,
    pairwise_mi,
    select_min_distance,
)

PSD_EIGEN_FLOOR = 1e-9
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
    if positions is None:
        rng = derive_rng(seed, 0)
        positions = rng.random((n_nodes, 2))
    positions = np.asarray(positions, dtype=float)
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
        rates.append(float(-np.sum(joint_m * logs)))
    return tuple(rates)


# ---------------------------------------------------------------------------
# Shared vectorized transmission helpers (BSC)
# ---------------------------------------------------------------------------


def _bit_weights(bits: int) -> np.ndarray:
    return 1 << np.arange(bits - 1, -1, -1)


def _transmit_bsc(tuple_ids, channels, space, rng_tags, seed):
    """Vectorized transmission: returns per-description words and loss flags.

    ``rng_tags`` is a tuple prefix so different sources derive disjoint
    streams.  Received words are sampled for every description; the loss
    flags say which ones the decoder may look at.
    """
    n = tuple_ids.shape[0]
    M = len(channels)
    words = np.empty((n, M), dtype=int)
    received = np.empty((n, M), dtype=bool)
    for m, ch in enumerate(channels):
        idx = space.component(m)[tuple_ids]
        flip_rng = derive_rng(seed, *rng_tags, 2 * m)
        loss_rng = derive_rng(seed, *rng_tags, 2 * m + 1)
        flips = flip_rng.random((n, ch.bits)) < ch.bit_error_rate
        words[:, m] = idx ^ (flips @ _bit_weights(ch.bits))
        received[:, m] = loss_rng.random(n) >= ch.loss_prob
    return words, received


def _pattern_ids(received: np.ndarray) -> np.ndarray:
    """Row-major loss-pattern id per trial, matching ``loss_patterns`` order."""
    M = received.shape[1]
    weights = 1 << np.arange(M - 1, -1, -1)
    return received.astype(int) @ weights


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


def run_asym_experiment(cfg: AsymConfig) -> ExperimentResult:
    """Monte-Carlo transmission of one source decoded with (optional) SI."""
    start = time.perf_counter()
    bundle = cfg.bundle
    channels = tuple(cfg.eval_channels or bundle.channels)
    space = tuple_space(channels)
    rho_dec = cfg.rho_real if cfg.rho_dec is None else cfg.rho_dec
    level = bundle.rho_level(rho_dec) if cfg.use_si else None

    rng_src = derive_rng(cfg.seed, 1)
    n = cfg.trials
    x = rng_src.standard_normal(n)
    z = rng_src.standard_normal(n)
    rho = cfg.rho_real
    y = rho * x + np.sqrt(max(1.0 - rho**2, 0.0)) * z

    cells = np.searchsorted(bundle.quantizer.thresholds, x, side="left")
    tuple_ids = bundle.ia.hard_map()[cells]
    if cfg.use_si:
        si_levels = np.searchsorted(bundle.si_quantizer.thresholds, y, side="left")
    else:
        si_levels = np.zeros(n, dtype=int)

    if all(ch.kind == "bsc" for ch in channels):
        words, received = _transmit_bsc(tuple_ids, channels, space, (2,), cfg.seed)
        lookup = _AsymLookup(bundle, channels, level)
        rows = _word_rows(words, _pattern_ids(received), channels, lookup.offsets)
        err = (x - lookup.table[rows, si_levels]) ** 2

        extra = {}
        d_side = None
        d_central = None
        if cfg.compute_side and len(channels) == 2:
            forced = {}
            for pattern in ((True, False), (False, True), (True, True)):
                p = 2 * pattern[0] + pattern[1]
                rows = _word_rows(words, np.full(n, p), channels, lookup.offsets)
                xh = lookup.table[rows, si_levels]
                forced[pattern] = float(np.mean((x - xh) ** 2))
            d_side = (forced[(True, False)], forced[(False, True)])
            d_central = forced[(True, True)]
    else:
        err, d_side, d_central, extra = _run_asym_awgn(
            cfg, channels, space, x, tuple_ids, si_levels, level
        )

    rates = conditional_entropy_rates(bundle, JointGaussianPair(1.0, 1.0, rho_dec))
    return ExperimentResult(
        name=cfg.name,
        d_av=float(err.mean()),
        trials=n,
        stderr=float(err.std(ddof=1) / np.sqrt(n)),
        d_side=d_side,
        d_central=d_central,
        rates=rates,
        wall_time=time.perf_counter() - start,
        extra=extra,
    )


def _run_asym_awgn(cfg, channels, space, x, tuple_ids, si_levels, level):
    """AWGN path: per-trial log-likelihoods instead of lookups."""
    from .channel import bpsk_symbols

    bundle = cfg.bundle
    t = bundle.tables
    n = x.size
    if level is None:
        prior = np.broadcast_to(t.prior_nosi, (n, t.prior_nosi.size))
        codebook = np.broadcast_to(t.codebook_nosi, prior.shape)
    else:
        prior = t.prior[level][si_levels]  # (n, L)
        codebook = t.codebook[level][si_levels]

    loglik = np.zeros((n, space.size))
    received_all = np.empty((n, len(channels)), dtype=bool)
    for m, ch in enumerate(channels):
        idx = space.component(m)[tuple_ids]
        noise_rng = derive_rng(cfg.seed, 2, 2 * m)
        loss_rng = derive_rng(cfg.seed, 2, 2 * m + 1)
        received = loss_rng.random(n) >= ch.loss_prob
        received_all[:, m] = received
        sym = bpsk_symbols(ch.bits)[: ch.index_count]
        sent = sym[idx]
        out = sent + noise_rng.normal(0.0, np.sqrt(ch.noise_psd / 2.0), sent.shape)
        # Up to per-trial constants: log lik = 2 <out, s_i> / N0.
        ll = 2.0 * (out @ sym.T) / ch.noise_psd
        ll[~received] = 0.0
        loglik += ll[:, space.component(m)]

    def decode_rows(ll):
        with np.errstate(divide="ignore"):
            lp = ll + np.where(prior > 0, np.log(np.maximum(prior, 1e-300)), -np.inf)
        lp -= lp.max(axis=1, keepdims=True)
        post = np.exp(lp)
        post /= post.sum(axis=1, keepdims=True)
        return np.sum(post * codebook, axis=1)

    xhat = decode_rows(loglik)
    err = (x - xhat) ** 2
    return err, None, None, {"channel": "awgn"}


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


def _selection_score_tables(bundle, cache, rho_keys, method):
    """score[rho_key][qu_id, qt_id] for the Q-dependent selection criteria.

    Scores are evaluated at the exact pair correlations; only the stored
    decoder tables live on the quantized grid.
    """
    patterns = loss_patterns(len(bundle.channels))
    out = {}
    for rho_key in rho_keys:
        cross = cache.get_rho(rho_key)
        tab = np.zeros((len(patterns), len(patterns)))
        for iu, qu in enumerate(patterns):
            for it, qt in enumerate(patterns):
                if method == "mutual_info":
                    tab[iu, it] = pairwise_mi(bundle, bundle, cross, qu, qt)
                else:
                    tab[iu, it] = expected_partial_si_distortion(bundle, cross, qu, qt)
        out[rho_key] = tab
    return out


def _select_maps(cfg: SymConfig, pids, cache) -> np.ndarray:
    """(trials, N) chosen SI source per trial under the configured criterion."""
    n_nodes = cfg.scenario.n_nodes
    trials = pids.shape[0]
    if cfg.si_method == "distance":
        fixed = select_min_distance(cfg.scenario.positions).map
        return np.broadcast_to(fixed, (trials, n_nodes))
    rho = cfg.scenario.pairwise_rho
    rho_keys = sorted(set(
        round(float(rho[u, t]), 12)
        for u in range(n_nodes) for t in range(n_nodes) if t != u
    ))
    tables = _selection_score_tables(cfg.bundle, cache, rho_keys, cfg.si_method)
    pick_best = np.argmax if cfg.si_method == "mutual_info" else np.argmin
    worst = -np.inf if cfg.si_method == "mutual_info" else np.inf
    smap = np.empty((trials, n_nodes), dtype=int)
    for u in range(n_nodes):
        scores = np.empty((trials, n_nodes))
        for t in range(n_nodes):
            if t == u:
                scores[:, t] = worst
                continue
            tab = tables[round(float(rho[u, t]), 12)]
            scores[:, t] = tab[pids[:, u], pids[:, t]]
        smap[:, u] = pick_best(scores, axis=1)
    return smap


class _SymDecoder:
    """Vectorized synchronous joint decoder over all trials of a scenario."""

    def __init__(self, cfg: SymConfig, level_matrix, cache):
        self.cfg = cfg
        self.bundle = cfg.bundle
        self.channels = tuple(cfg.bundle.channels)
        self.space = tuple_space(self.channels)
        self.cache = cache
        self.level_matrix = level_matrix
        stacked, self.offsets = stacked_pattern_table(self.channels, self.space)
        self.word_lik = np.ascontiguousarray(stacked.T)  # (N, L)
        t = self.bundle.tables
        self.nosi_prior = t.prior_nosi
        self.nosi_codebook = t.codebook_nosi
        self.lookups = {}

    def lookup(self, level):
        if level not in self.lookups:
            self.lookups[level] = _AsymLookup(self.bundle, self.channels, level)
        return self.lookups[level]

    def lik_rows(self, words_u, pids_u):
        """(trials, L) channel likelihood rows for one source."""
        return self.word_lik[_word_rows(words_u, pids_u, self.channels, self.offsets)]

    def no_si_pass(self, lik):
        """lik: (trials, L) -> (posteriors, estimates)."""
        post = lik * self.nosi_prior[None, :]
        post /= post.sum(axis=1, keepdims=True)
        return post, post @ self.nosi_codebook

    def estimated_step(self, est_prev, s_map_u, words_u, pids_u, level_u):
        """One estimated-SI update of a single source across all trials."""
        trials = est_prev.shape[1]
        neighbor = est_prev[s_map_u, np.arange(trials)]
        y_levels = np.searchsorted(
            self.bundle.si_quantizer.thresholds, neighbor, side="left"
        )
        rows_u = _word_rows(words_u, pids_u, self.channels, self.offsets)
        out = np.empty(trials)
        for level in np.unique(level_u):
            lsel = level_u == level
            out[lsel] = self.lookup(int(level)).table[rows_u[lsel], y_levels[lsel]]
        return out

    def soft_prior(self, posts_prev, s_map_u, level_u, use_first=False):
        """Neighbor posterior -> own prior (or first-moment row) per trial."""
        trials = posts_prev.shape[1]
        neighbor_post = posts_prev[s_map_u, np.arange(trials), :]
        out = np.empty((trials, self.space.size))
        for level in np.unique(level_u):
            mask = level_u == level
            cross = self.cache.get(int(level))
            mat = cross.mix_first if use_first else cross.mix_prob
            out[mask] = neighbor_post[mask] @ mat.T
        return out


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
                    min(scenario.pairwise_rho[u, t], 1.0 - 1e-12), bundle.ladder
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
    pids = np.stack(
        [_pattern_ids(received[:, u]) for u in range(n_nodes)], axis=1
    )

    cache = CrossTableCache(bundle)
    s_map = _select_maps(cfg, pids, cache)
    dec = _SymDecoder(cfg, level_matrix, cache)

    lik = [dec.lik_rows(words[:, u], pids[:, u]) for u in range(n_nodes)]
    posts = np.empty((n_nodes, cfg.trials, space.size))
    ests = np.empty((n_nodes, cfg.trials))
    for u in range(n_nodes):
        posts[u], ests[u] = dec.no_si_pass(lik[u])

    level_per_trial = [
        level_matrix[u, s_map[:, u]] for u in range(n_nodes)
    ]

    if cfg.mode == "estimated":
        for _ in range(cfg.max_iters - 1):
            new_ests = np.empty_like(ests)
            for u in range(n_nodes):
                new_ests[u] = dec.estimated_step(
                    ests, s_map[:, u], words[:, u], pids[:, u], level_per_trial[u]
                )
            delta = float(np.max(np.abs(new_ests - ests)))
            ests = new_ests
            if delta < cfg.tol:
                break
        xhat = ests
    else:
        prev_posts = posts
        iterated = False
        for _ in range(cfg.max_iters - 1):
            new_posts = np.empty_like(posts)
            for u in range(n_nodes):
                prior = dec.soft_prior(posts, s_map[:, u], level_per_trial[u])
                p = lik[u] * prior
                p /= np.maximum(p.sum(axis=1, keepdims=True), 1e-300)
                new_posts[u] = p
            delta = float(np.max(np.abs(new_posts - posts)))
            prev_posts = posts
            posts = new_posts
            iterated = True
            if delta < cfg.tol:
                break
        if iterated:
            xhat = np.empty_like(ests)
            for u in range(n_nodes):
                den = dec.soft_prior(prev_posts, s_map[:, u], level_per_trial[u])
                num = dec.soft_prior(
                    prev_posts, s_map[:, u], level_per_trial[u], use_first=True
                )
                xhat[u] = np.sum(posts[u] * masked_ratio(num, den), axis=1)
        else:
            xhat = ests

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
