"""Scenario generation, the package's decoders and Monte-Carlo experiments.

The asymmetric experiment transmits one source with external side
information; the symmetric experiment jointly decodes every node of a
sensor-field scenario.  Both decoders live here and work on a block of
trials at once: the asymmetric MMSE decoder is a lookup table per
(correlation level, channel set) for BSC channels (:class:`_AsymLookup`) and
a per-trial posterior for AWGN (:func:`_run_asym_awgn`); the joint decoder
runs its estimated-SI or soft-SI sweeps in :meth:`_SymDecoder.decode`.
With discrete channels every decoder input is finite, so reconstructions
reduce to table lookups built once per configuration.  Results carry the
Monte-Carlo standard error of every estimate.  The per-symbol decoders that
these are tested against live in the test suite's oracles.

Both experiments bound their per-block buffers by one budget,
``BLOCK_ENTRIES`` float64 entries, which every chunked loop divides by its
own entries per item (:func:`_blocks`): L index tuples per asymmetric trial,
nodes x L per symmetric trial and K^2 per correlation the SI selection
scores.  Both transmit over BSC channels through :func:`_transmit_bsc`, and
both summarise their per-trial errors with :func:`_result`.

The asymmetric experiment takes a list of channel sets (the codec's own
channels, or every row of a BSC sweep) and does the shared work once: one
draw of the source and its SI, one pass of quantizer cells, tuple ids and SI
levels, and one set of flip and loss uniforms (or AWGN noise) per
description, to which every set applies its own rates.  It decodes in blocks
of ``BLOCK_ENTRIES // L`` trials drawn in turn from the same generators, so
the results equal one-call draws bit for bit and only the per-trial error
arrays grow with the trial count.

The symmetric experiment draws the node sources whole, in one product, and
then runs every per-trial step on one block of trials at a time: quantizer
cells, transmission, loss patterns, SI maps, trial groups, the joint decode
and the squared errors.  A block holds ``BLOCK_ENTRIES // (nodes * L)``
trials (at least one), so the decoder's posterior buffers stay bounded and
only the sources and the per-trial errors grow with the trial count.  Each
node's channel generators are created once per run and continue from block
to block.  The SI selection scores every distinct pair correlation of the
field once per run, from one moment quadrature per block of correlations;
each block of trials picks every source's SI source per trial with a single
gather, and the decoder groups each node's trials by the ladder level of
their SI source once per block, for every sweep to reuse.  The sweeps of a
block stop on that block's own change (see :meth:`_SymDecoder.decode`), so a
run that converges before ``SYM_MAX_ITERS`` may depend on the block size;
with ``SYM_TOL`` 0, or where no block converges early, the results equal a
one-block run bit for bit.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass

import numpy as np

from .channel import (
    bpsk_symbols,
    derive_rng,
    pattern_ids,
    stacked_pattern_table,
    tuple_space,
)
from .codec import CodecBundle, masked_ratio, pattern_lookups, si_moment_matrices
from .decode_sym import cross_table_stack
from .gaussian import JointGaussianPair, quantize_rho
from .si_select import score_tables, select_min_distance
from .si_select import (  # noqa: F401  (perfbench/spans.py patches these bindings)
    expected_partial_si_distortion,
    pairwise_mi,
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
    with np.errstate(over="ignore"):  # a tiny alpha takes dist / alpha to inf: rho is 0
        rho = np.exp(-dist / alpha)
    np.fill_diagonal(rho, 1.0)
    return WsnScenario(positions, float(alpha), rho, tuple(channel_template), int(seed))


@dataclass(frozen=True)
class ExperimentResult:
    """Monte-Carlo (or analytic) distortion summary for one configuration.

    ``psd_projected`` is True where a sensor field's correlation matrix was
    projected onto the PSD cone before its sources were drawn.
    """

    d_av: float
    trials: int
    stderr: float
    d_side: tuple | None = None
    d_central: float | None = None
    wall_time: float = 0.0
    psd_projected: bool = False

    @property
    def d_av_db(self) -> float:
        return to_db(self.d_av)

    @property
    def d_central_db(self) -> float | None:
        return None if self.d_central is None else to_db(self.d_central)


def conditional_entropy_rates(bundle: CodecBundle, pair: JointGaussianPair) -> tuple:
    """Per-description conditional entropies H(description index | SI level), bits."""
    s0, _, _ = si_moment_matrices(bundle.quantizer, bundle.si_quantizer, pair)
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


# Float64 entries that one per-block buffer may hold; each chunked loop divides
# it by its own entries per item (:func:`_blocks`).  Read at call time.
BLOCK_ENTRIES = 1 << 20


def _blocks(n: int, per_item: int):
    """Consecutive slices of ``range(n)`` of max(1, BLOCK_ENTRIES // per_item) items."""
    step = max(1, BLOCK_ENTRIES // per_item)
    for lo in range(0, n, step):
        yield slice(lo, min(lo + step, n))


def _transmit_bsc(tuple_ids, sets, space, streams) -> list:
    """(trials, M) received words and loss flags of the sent tuples, per channel set.

    The flip and loss uniforms are drawn once, at the first set's bit counts,
    from ``streams``, the source's (flips, losses) generators of each
    description (:func:`_channel_streams`), so different sources draw
    disjoint streams and successive calls continue them.  Every set applies
    its own rates to the same draws: a bit flips below its channel's bit
    error rate, and a description arrives at or above its loss probability.
    Words are sampled for every description; the loss flags say which ones
    the decoder may look at.
    """
    n = tuple_ids.shape[0]
    draws = [
        (flip_rng.random((n, ch.bits)), loss_rng.random(n))
        for ch, (flip_rng, loss_rng) in zip(sets[0], streams)
    ]
    indices = [space.component(m)[tuple_ids] for m in range(len(sets[0]))]
    out = []
    for chs in sets:
        words = np.empty((n, len(chs)), dtype=int)
        received = np.empty((n, len(chs)), dtype=bool)
        for m, (ch, idx, (flip_u, loss_u)) in enumerate(zip(chs, indices, draws)):
            words[:, m] = idx ^ ((flip_u < ch.bit_error_rate) @ _bit_weights(ch.bits))
            received[:, m] = loss_u >= ch.loss_prob
        out.append((words, received))
    return out


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


def run_asym_experiment(cfg: AsymConfig, channel_sets) -> list[ExperimentResult]:
    """Monte-Carlo transmission of one source decoded with (optional) SI.

    Returns one result per channel set (``[cfg.bundle.channels]`` for the
    codec's own channels), each equal to a run with that set alone: the
    source, its quantizer cells and SI levels, the rates and the channel
    randomness are drawn once, and every set applies its own error and loss
    rates to the same draws.  Every result's ``wall_time`` is that of the
    whole call up to the end of decoding.
    """
    start = time.perf_counter()
    bundle = cfg.bundle
    sets = [tuple(chs) for chs in channel_sets]
    _check_channel_sets(bundle, sets)
    rho_dec = cfg.rho_real if cfg.rho_dec is None else cfg.rho_dec
    level = bundle.rho_level(rho_dec) if cfg.use_si else None

    # x and z come whole from one stream; everything after is per block.
    rng_src = derive_rng(cfg.seed, 1)
    x = rng_src.standard_normal(cfg.trials)
    z = rng_src.standard_normal(cfg.trials)
    run = _run_asym_bsc if sets[0][0].kind == "bsc" else _run_asym_awgn
    decoded = run(cfg, sets, x, z, level)

    wall_time = time.perf_counter() - start
    return [
        _result(err, wall_time, d_side=d_side, d_central=d_central)
        for err, d_side, d_central in decoded
    ]


def _result(err, wall_time: float, **fields) -> ExperimentResult:
    """Mean and Monte-Carlo standard error of the per-trial errors ``err``."""
    n = err.size
    return ExperimentResult(
        d_av=float(err.mean()),
        trials=n,
        stderr=float(err.std(ddof=1) / np.sqrt(n)),
        wall_time=wall_time,
        **fields,
    )


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

    A block holds one (trials, L) buffer's worth of trials (:func:`_blocks`).
    Its draws continue the same generators, so results do not depend on the
    block size.  The SI y = rho x + sqrt(1 - rho^2) z is formed block by
    block.
    """
    bundle = cfg.bundle
    rho = cfg.rho_real
    scale = np.sqrt(max(1.0 - rho**2, 0.0))
    hard = bundle.ia.hard_map()
    for blk in _blocks(x.size, tuple_space(bundle.channels).size):
        xb = x[blk]
        tuple_ids = hard[bundle.quantizer.cells(xb)]
        if cfg.use_si:
            y = rho * xb + scale * z[blk]
            si_levels = bundle.si_quantizer.cells(y)
        else:
            si_levels = np.zeros(xb.size, dtype=int)
        yield blk, xb, tuple_ids, si_levels


def _run_asym_bsc(cfg: AsymConfig, sets, x, z, level) -> list:
    """BSC path: one lookup per set; (squared errors, d_side, d_central) per set.

    d_side and d_central force the loss patterns of two descriptions; every
    error array is kept whole so its mean is the one-call mean.
    """
    n = x.size
    space = tuple_space(sets[0])
    streams = _channel_streams(len(sets[0]), (2,), cfg.seed)
    lookups = [_AsymLookup(cfg.bundle, chs, level) for chs in sets]
    forced_patterns = (2, 1, 3) if len(sets[0]) == 2 else ()
    errs = [np.empty(n) for _ in sets]
    forced = [[np.empty(n) for _ in forced_patterns] for _ in sets]
    for blk, xb, tuple_ids, si_levels in _source_blocks(cfg, x, z):
        sent = _transmit_bsc(tuple_ids, sets, space, streams)
        for chs, (words, received), lookup, err, forced_s in zip(
            sets, sent, lookups, errs, forced
        ):
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

# Joint-decoder sweeps per block (the no-SI pass counts as the first), and the
# largest change between sweeps at which a block stops early.  Read at call time.
SYM_MAX_ITERS = 10
SYM_TOL = 1e-6


@dataclass(frozen=True)
class SymConfig:
    """One symmetric Monte-Carlo configuration over a WSN scenario.

    ``mode``, ``si_method`` and the codec's channels (the joint decoder reads
    BSC words) are checked here, before any sampling starts.
    """

    scenario: WsnScenario
    bundle: CodecBundle
    mode: str = "soft"
    si_method: str = "min_distortion"
    trials: int = 20_000
    seed: int = 0

    def __post_init__(self):
        if self.mode not in SYM_MODES:
            raise ValueError("mode must be 'estimated' or 'soft'")
        if self.si_method not in SI_METHODS:
            raise ValueError("unknown SI selection method")
        if any(ch.kind != "bsc" for ch in self.bundle.channels):
            raise ValueError("the symmetric experiment requires a codec with BSC channels")


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


def _selection_score_tables(bundle, rho_keys, method):
    """score[r, q_u, q_t] of the pattern-dependent criterion at correlation ``rho_keys[r]``.

    Scores are evaluated at the exact pair correlations; only the stored
    decoder tables live on the quantized grid.  The correlations are scored
    in blocks of K^2 cross-table entries each (:func:`_blocks`), so the
    cross tables of a full-scale codec stay bounded.
    """
    K = bundle.quantizer.size
    parts = []
    for blk in _blocks(len(rho_keys), K * K):
        cross = cross_table_stack(bundle, bundle, rho_keys[blk])
        parts.append(score_tables(bundle, bundle, cross, method))
    return np.concatenate(parts)


def _selection_scores(cfg: SymConfig) -> np.ndarray | None:
    """score[u, t, p_u, p_t] of SI source t for node u under loss patterns p_u, p_t.

    The scores depend only on the codec and the field's correlations, so a
    run computes them once.  A node's own entries hold the worst score, so
    it never picks itself.  None for ``distance`` selection, which ignores
    the loss patterns.
    """
    if cfg.si_method == "distance":
        return None
    n_nodes = cfg.scenario.n_nodes
    rho = cfg.scenario.pairwise_rho
    keys = {
        (u, t): round(float(rho[u, t]), 12)
        for u in range(n_nodes) for t in range(n_nodes) if t != u
    }
    rho_keys = sorted(set(keys.values()))
    position = {key: i for i, key in enumerate(rho_keys)}
    ridx = np.zeros((n_nodes, n_nodes), dtype=int)
    for (u, t), key in keys.items():
        ridx[u, t] = position[key]
    scores = _selection_score_tables(cfg.bundle, rho_keys, cfg.si_method)[ridx]
    nodes = np.arange(n_nodes)
    scores[nodes, nodes] = -np.inf if cfg.si_method == "mutual_info" else np.inf
    return scores


def _select_maps(cfg: SymConfig, pids, scores) -> np.ndarray:
    """(trials, N) chosen SI source per trial; ``scores`` from :func:`_selection_scores`."""
    n_nodes = cfg.scenario.n_nodes
    if scores is None:
        fixed = select_min_distance(cfg.scenario.positions)
        return np.broadcast_to(fixed, (pids.shape[0], n_nodes))
    pick_best = np.argmax if cfg.si_method == "mutual_info" else np.argmin
    candidates = np.arange(n_nodes)
    smap = np.empty(pids.shape, dtype=int)
    for u in range(n_nodes):
        # (trials, candidates) gather of u's scores under each trial's patterns.
        smap[:, u] = pick_best(scores[u, candidates, pids[:, u, None], pids], axis=1)
    return smap


def _row_product(a, b):
    """``a @ b`` for a 2-D ``b``, each row rounded as in a product of many rows.

    numpy hands a single row to gemv, whose sums round differently from
    gemm's, so a lone row is multiplied as a pair with a copy of itself.
    """
    if a.shape[0] == 1:
        return (np.repeat(a, 2, axis=0) @ b)[:1]
    return a @ b


def _trial_groups(level_u, s_map_u) -> list:
    """One node's trials grouped by the ladder level of their SI source.

    Each group is (level, trial indices, SI source per trial).  The selection
    is fixed for a block, so every decoder sweep of the block reuses the
    groups.
    """
    groups = []
    for level in np.unique(level_u):
        idx = np.flatnonzero(level_u == level)
        groups.append((int(level), idx, s_map_u[idx]))
    return groups


class _SymDecoder:
    """The joint decoder: synchronous estimated-SI or soft-SI sweeps over a block of trials.

    Iteration 1 decodes every node without SI; each later sweep reads the
    state the previous one left.  :meth:`decode` runs the sweeps of one
    block, and the other methods are its steps for one node across the
    block's trials.  One decoder serves every block of a run.  It builds the
    tables its mode reads, for every ladder level, when it is created:
    estimated-SI reads the asymmetric lookup of each level, and soft-SI the
    mixing matrices of one cross-table stack at the ladder's correlations.
    """

    def __init__(self, cfg: SymConfig):
        self.cfg = cfg
        self.bundle = bundle = cfg.bundle
        self.channels = tuple(bundle.channels)
        self.space = tuple_space(self.channels)
        stacked, self.offsets = stacked_pattern_table(self.channels)
        self.word_lik = np.ascontiguousarray(stacked.T)  # (N, L)
        self.nosi_prior = bundle.tables.prior_nosi
        self.nosi_codebook = bundle.tables.codebook_nosi
        levels = bundle.ladder.levels
        if cfg.mode == "estimated":
            # lookups[level][row, SI level]: the asymmetric decoder's reconstructions.
            self.lookups = [
                _AsymLookup(bundle, self.channels, level).table for level in range(levels.size)
            ]
        else:
            cross = cross_table_stack(bundle, bundle, [round(float(v), 12) for v in levels])
            # Per level, neighbor tuple posterior -> own prior (L, L), and ->
            # [prior | first moment] (L, 2L) for the final reconstruction.
            self.prior_mix = cross.mix_prob.transpose(0, 2, 1)
            self.final_mix = np.concatenate(
                [cross.mix_prob, cross.mix_first], axis=1
            ).transpose(0, 2, 1)

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
        # einsum sums each row the same way whatever the row count; BLAS
        # gemv rounds a block's last rows (and a lone row) differently.
        return post, np.einsum("tl,l->t", post, self.nosi_codebook)

    def estimated_step(self, est_prev, groups_u, rows_u):
        """One estimated-SI update of a single source across the block's trials."""
        out = np.empty(est_prev.shape[1])
        si_quantizer = self.bundle.si_quantizer
        for level, idx, nbr in groups_u:
            y_levels = si_quantizer.cells(est_prev[nbr, idx])
            out[idx] = self.lookups[level][rows_u[idx], y_levels]
        return out

    def soft_prior(self, posts_prev, groups_u, final=False):
        """Neighbor posterior -> own prior per trial, (trials, L).

        With ``final`` the rows are [prior | first moment], (trials, 2L), from
        one product per group.
        """
        mixes = self.final_mix if final else self.prior_mix
        out = np.empty((posts_prev.shape[1], mixes.shape[2]))
        for level, idx, nbr in groups_u:
            out[idx] = _row_product(posts_prev[nbr, idx], mixes[level])
        return out

    def decode(self, words, pids, groups):
        """(nodes, trials) estimates from the received words of every node.

        ``words`` is (trials, nodes, M), ``pids`` the (trials, nodes) loss
        pattern ids and ``groups[u]`` node u's trial groups
        (:func:`_trial_groups`), all of one block of trials.  The sweeps stop
        after ``SYM_MAX_ITERS`` iterations, or once the largest change over
        the block's trials falls below ``SYM_TOL``: of the estimates
        (estimated-SI), or of the posteriors (soft-SI, which reconstructs
        once, after its last sweep).  Each block of a run stops on its own
        change, so where one block converges before another the result can
        differ from a one-block run; with ``SYM_TOL`` 0 every block runs
        ``SYM_MAX_ITERS`` iterations and the results do not depend on the
        block size.  Both are read at call time.
        """
        trials, n_nodes = pids.shape
        ests = np.empty((n_nodes, trials))
        if self.cfg.mode == "estimated":
            # Only the no-SI estimates carry over; no posterior is kept.
            for u in range(n_nodes):
                _, ests[u] = self.no_si_pass(self.lik_rows(words[:, u], pids[:, u]))
            rows = [self.word_rows(words[:, u], pids[:, u]) for u in range(n_nodes)]
            for _ in range(SYM_MAX_ITERS - 1):
                new_ests = np.empty_like(ests)
                for u in range(n_nodes):
                    new_ests[u] = self.estimated_step(ests, groups[u], rows[u])
                delta = float(np.max(np.abs(new_ests - ests)))
                ests = new_ests
                if delta < SYM_TOL:
                    break
            return ests

        lik = [self.lik_rows(words[:, u], pids[:, u]) for u in range(n_nodes)]
        posts = np.empty((n_nodes, trials, self.space.size))
        for u in range(n_nodes):
            posts[u], ests[u] = self.no_si_pass(lik[u])
        # Two posterior buffers alternate: the sweep writes ``new`` from
        # ``posts`` into ``prev``'s buffer, which no sweep reads, and after
        # the last sweep ``prev`` holds the posteriors behind the final priors.
        prev = posts
        for _ in range(SYM_MAX_ITERS - 1):
            new = np.empty_like(posts) if prev is posts else prev
            delta = 0.0
            for u in range(n_nodes):
                p = np.multiply(lik[u], self.soft_prior(posts, groups[u]), out=new[u])
                p /= np.maximum(p.sum(axis=1, keepdims=True), 1e-300)
                delta = max(delta, float(np.max(np.abs(p - posts[u]))))
            prev, posts = posts, new
            if delta < SYM_TOL:
                break
        if prev is posts:
            return ests
        L = self.space.size
        xhat = np.empty_like(ests)
        for u in range(n_nodes):
            den_num = self.soft_prior(prev, groups[u], final=True)
            xhat[u] = np.sum(posts[u] * masked_ratio(den_num[:, L:], den_num[:, :L]), axis=1)
        return xhat


def _block_errors(dec: _SymDecoder, xb, streams, scores, level_matrix) -> np.ndarray:
    """Per-trial squared error, averaged over nodes, of one block of sources.

    ``xb`` is the block's (trials, nodes) source draws and ``streams[u]``
    node u's channel generators, which continue from the previous block.
    Every per-trial array of the block dies on return.
    """
    cfg, bundle = dec.cfg, dec.bundle
    n_nodes = xb.shape[1]
    tuple_ids = bundle.ia.hard_map()[bundle.quantizer.cells(xb)]
    words = np.empty((xb.shape[0], n_nodes, len(dec.channels)), dtype=int)
    received = np.empty(words.shape, dtype=bool)
    for u in range(n_nodes):
        [(words[:, u], received[:, u])] = _transmit_bsc(
            tuple_ids[:, u], [dec.channels], dec.space, streams[u]
        )
    pids = pattern_ids(received)  # (trials, nodes)
    s_map = _select_maps(cfg, pids, scores)
    groups = [
        _trial_groups(level_matrix[u, s_map[:, u]], s_map[:, u]) for u in range(n_nodes)
    ]
    xhat = dec.decode(words, pids, groups)
    # Summed node by node, as numpy sums the rows of a many-trial block; a
    # one-trial block would otherwise take numpy's pairwise sum.
    return functools.reduce(np.add, (xb.T - xhat) ** 2) / n_nodes


def run_sym_experiment(cfg: SymConfig) -> ExperimentResult:
    """Monte-Carlo joint decoding of a scenario; averages distortion over nodes.

    The sources are drawn whole; everything after runs block by block (see
    the module docstring), and the per-trial errors are kept whole so their
    mean and standard error are the one-block values.
    """
    start = time.perf_counter()
    scenario, bundle = cfg.scenario, cfg.bundle
    n_nodes = scenario.n_nodes
    # Ladder level of every pair correlation; a node is never its own SI source.
    off = ~np.eye(n_nodes, dtype=bool)
    level_matrix = np.zeros((n_nodes, n_nodes), dtype=int)
    level_matrix[off] = quantize_rho(scenario.pairwise_rho[off], bundle.ladder)

    x, projected = sample_correlated_sources(scenario, cfg.trials, cfg.seed)
    n_desc = len(bundle.channels)
    streams = [_channel_streams(n_desc, (4, u), cfg.seed) for u in range(n_nodes)]
    scores = _selection_scores(cfg)
    dec = _SymDecoder(cfg)
    per_trial = np.empty(cfg.trials)
    for blk in _blocks(cfg.trials, n_nodes * dec.space.size):
        per_trial[blk] = _block_errors(dec, x[blk], streams, scores, level_matrix)
    return _result(per_trial, time.perf_counter() - start, psd_projected=projected)
