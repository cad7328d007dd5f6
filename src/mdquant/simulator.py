"""Scenario generation and the package's Monte-Carlo experiments.

The asymmetric experiment transmits one source with external side
information; the symmetric experiment jointly decodes every node of a
sensor-field scenario.  This module samples, transmits, selects SI sources
and averages the errors; the decoders work on a block of trials at once.
The asymmetric MMSE decoder is a lookup table per (correlation level,
channel set) for BSC channels (:class:`mdquant.codec._AsymLookup`) and a
per-trial posterior for AWGN (:func:`_run_asym_awgn`); the joint decoder is
:class:`mdquant.decode_sym._SymDecoder`.  Results carry the Monte-Carlo
standard error of d_av, and exact d_side and d_central.  The per-symbol
decoders that these are tested against live in the test suite's oracles.

Both experiments bound their per-block buffers by one budget,
``BLOCK_ENTRIES`` float64 entries, which every chunked loop divides by its
own entries per item (:func:`_blocks`): L index tuples per asymmetric trial,
nodes x L per symmetric trial and K^2 per correlation the SI selection
scores.  Both transmit over BSC channels through :func:`_transmit_bsc`, and
both summarise their per-trial errors with :func:`_result`.

The asymmetric experiment takes a list of channel sets (the codec's own
channels, or every row of a BSC sweep) and does the shared work once: one
draw of the source and its SI, one pass of quantizer cells, tuple ids and SI
levels, and one set of bit and loss uniforms per description, to which
every set applies its own rates: a BSC flips the bits whose uniforms fall
below its bit error rate, and an AWGN channel inverts them into its N(0, 1)
noise (:func:`_awgn_noise`).  It decodes in blocks of ``BLOCK_ENTRIES // L``
trials that continue the same generators, in one block loop for both channel
kinds (:func:`_run_asym`), so the results equal one-call draws bit for bit
and only the source and the per-trial error arrays grow with the trial count.

The symmetric experiment draws the node sources whole, in one product, and
then runs every per-trial step on one block of trials at a time: quantizer
cells, transmission, loss patterns, SI maps, the joint decode and the
squared errors.  Its channel uses come from one set of generators per
description, one use per (trial, node) in row-major order, so a block
transmits all its nodes in one call.  A block holds
``BLOCK_ENTRIES // (nodes * L)`` trials (at least one), so the decoder's
posterior buffers stay bounded and only the sources and the per-trial
errors grow with the trial count.  The
SI selection keeps each node's ``SI_CANDIDATES`` most correlated other
nodes and scores the distinct correlations of those pairs once per run, from
one moment quadrature per block of correlations; each block of trials picks
every source's SI source per trial with one gather over its candidates and
hands the picks to the joint decoder, which holds the ladder level of every
pair.

The blocks of both experiments, and a field's scored correlations, are
independent work items, run in forked workers, one per usable CPU with one
BLAS thread each (:func:`mdquant.forking.fork_map`), after the sources, the
lookups or decoder tables and the scores are made in this process.  A block
positions its experiment's generators at its first channel use by a count of
draws (:func:`_channel_streams`): every draw, the AWGN noise included, is one
uniform.  Each score depends only on its correlation.
The blocks write their per-trial errors into one array in shared memory
per run (:func:`mdquant.forking.shared_array`), and the means and standard
errors are taken over that whole array, so the results equal a serial run bit
for bit, whatever the worker count.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass

import numpy as np

from .channel import bpsk_symbols, derive_rng, pattern_ids, tuple_space, word_rows
from .codec import (
    CodecBundle,
    _AsymLookup,
    build_decoder_tables,
    si_moment_matrices,
    si_moment_stack,
)
from .decode_sym import _SymDecoder
from . import forking
from .gaussian import RHO_LADDER, JointGaussianPair
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


def check_field(positions, alpha: float) -> None:
    """Reject an ``alpha`` that is not positive and finite, then non-finite positions."""
    if not (np.isfinite(alpha) and alpha > 0):
        raise ValueError(f"alpha must be positive and finite, got {alpha!r}")
    if not np.all(np.isfinite(positions)):
        raise ValueError("node positions must be finite")


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
    check_field(positions, alpha)
    diff = positions[:, None, :] - positions[None, :, :]
    dist = np.sqrt(np.sum(diff**2, axis=2))
    with np.errstate(over="ignore"):  # a tiny alpha takes dist / alpha to inf: rho is 0
        rho = np.exp(-dist / alpha)
    np.fill_diagonal(rho, 1.0)
    return WsnScenario(positions, float(alpha), rho, tuple(channel_template), int(seed))


@dataclass(frozen=True)
class ExperimentResult:
    """Monte-Carlo distortion summary of one run; ``d_side`` and ``d_central`` are exact.

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


def _channel_streams(channels, tag: int, seed, lo: int = 0):
    """(bit, loss) generators of each description m, positioned at channel use ``lo``.

    They derive from ``(seed, tag, 2m)`` and ``(seed, tag, 2m + 1)``.
    :func:`_channel_uniforms` draws, per channel use and description, ``bits``
    bit uniforms and one loss uniform, and PCG64 spends one 64-bit output on
    each double; advancing the generators by those counts equals drawing the
    channel uses before ``lo`` first.
    """
    streams = []
    for m, ch in enumerate(channels):
        bit_rng = derive_rng(seed, tag, 2 * m)
        loss_rng = derive_rng(seed, tag, 2 * m + 1)
        bit_rng.bit_generator.advance(lo * ch.bits)
        loss_rng.bit_generator.advance(lo)
        streams.append((bit_rng, loss_rng))
    return streams


def _channel_uniforms(channels, streams, n: int) -> list:
    """(n, bits) bit and (n,) loss uniforms of each description, from its ``streams``."""
    return [
        (bit_rng.random((n, ch.bits)), loss_rng.random(n))
        for ch, (bit_rng, loss_rng) in zip(channels, streams)
    ]


# Smallest nonzero draw of ``Generator.random`` (which returns k * 2^-53); a
# uniform of 0 is raised to it before inversion, so the AWGN noise is finite
# and symmetric: ndtri(2^-53) = -ndtri(1 - 2^-53) = -8.2095..., its two ends.
NOISE_UNIFORM_FLOOR = 2.0**-53


def _awgn_noise(bit_u) -> np.ndarray:
    """N(0, 1) noise by inversion of the bit uniforms ``bit_u``, which it overwrites."""
    from scipy.special import ndtri

    return ndtri(np.maximum(bit_u, NOISE_UNIFORM_FLOOR, out=bit_u), out=bit_u)


# Float64 entries that one per-block buffer may hold; each chunked loop divides
# it by its own entries per item (:func:`_blocks`).  Read at call time.
BLOCK_ENTRIES = 1 << 20


def _blocks(n: int, per_item: int, parts: int = 1):
    """Consecutive slices of ``range(n)`` of max(1, BLOCK_ENTRIES // per_item) items.

    With ``parts``, slices are also no longer than ceil(n / parts) items, so
    there are at least ``parts`` of them where ``n`` allows.
    """
    step = max(1, min(BLOCK_ENTRIES // per_item, -(-n // parts)))
    for lo in range(0, n, step):
        yield slice(lo, min(lo + step, n))


def _transmit_bsc(tuple_ids, sets, space, streams) -> list:
    """(uses, M) received words and loss flags of the sent tuples, per channel set.

    The bit and loss uniforms are drawn once, at the first set's bit counts,
    from ``streams``, the generators of each description
    (:func:`_channel_uniforms`), one channel use after another, so
    successive calls continue them.  Every set applies its own rates to the
    same draws: a bit flips below its channel's bit error rate, and a
    description arrives at or above its loss probability.  Words are
    sampled for every description; the loss flags say which ones the decoder
    may look at.
    """
    n = tuple_ids.shape[0]
    draws = _channel_uniforms(sets[0], streams, n)
    indices = [space.component(m)[tuple_ids] for m in range(len(sets[0]))]
    out = []
    for chs in sets:
        words = np.empty((n, len(chs)), dtype=int)
        received = np.empty((n, len(chs)), dtype=bool)
        for m, (ch, idx, (bit_u, loss_u)) in enumerate(zip(chs, indices, draws)):
            words[:, m] = idx ^ ((bit_u < ch.bit_error_rate) @ _bit_weights(ch.bits))
            received[:, m] = loss_u >= ch.loss_prob
        out.append((words, received))
    return out


# ---------------------------------------------------------------------------
# Asymmetric experiment
# ---------------------------------------------------------------------------

@dataclass
class AsymConfig:
    """One asymmetric Monte-Carlo configuration, decoded at ``rho_dec`` (None: ``rho_real``).

    A one-level SI quantizer read at ``rho_dec`` 0 decodes without SI (``evaluate --no-si``).
    """

    bundle: CodecBundle
    rho_real: float
    trials: int = 100_000
    seed: int = 0
    rho_dec: float | None = None


def run_asym_experiment(cfg: AsymConfig, channel_sets) -> list[ExperimentResult]:
    """Monte-Carlo transmission of one source decoded with its SI.

    Returns one result per channel set (``[cfg.bundle.channels]`` for the
    codec's own channels), each equal to a run with that set alone: the
    source, its quantizer cells and SI levels, the rates and the channel
    randomness are drawn once, and every set applies its own error and loss
    rates to the same draws.  Two-description BSC results carry the exact
    d_side and d_central of their set's lookup at ``rho_real``.  The decoder
    tables are built at the ladder level of ``rho_dec`` only, from the moment
    matrices of ``rho_real`` where the exact distortions take them at that
    level's correlation.  Every result's ``wall_time`` is that of the whole
    call up to the end of decoding.
    """
    start = time.perf_counter()
    bundle = cfg.bundle
    sets = [tuple(chs) for chs in channel_sets]
    _check_channel_sets(bundle, sets)
    _check_trials(cfg.trials)
    if not -1.0 < cfg.rho_real < 1.0:
        raise ValueError(f"rho_real must lie in (-1, 1), got {cfg.rho_real!r}")
    rho_dec = cfg.rho_real if cfg.rho_dec is None else cfg.rho_dec
    level_rho = float(RHO_LADDER[bundle.rho_level(rho_dec)])
    moments = None  # S0, S1, S2 at rho_real, for the exact side and central distortions
    if sets[0][0].kind == "bsc" and len(sets[0]) == 2:
        pair = JointGaussianPair(1.0, 1.0, cfg.rho_real)
        moments = si_moment_matrices(bundle.quantizer, bundle.si_quantizer, pair)
    held = {level_rho: moments[:2]} if moments and cfg.rho_real == level_rho else None
    tables = build_decoder_tables(
        bundle.quantizer, bundle.si_quantizer, bundle.ia, [level_rho], held
    )

    # x and z come whole from one stream; everything after is per block.
    rng_src = derive_rng(cfg.seed, 1)
    x = rng_src.standard_normal(cfg.trials)
    z = rng_src.standard_normal(cfg.trials)
    exact = [{}] * len(sets)
    if sets[0][0].kind == "awgn":
        errs = _run_asym_awgn(cfg, sets, x, z, tables)
    else:
        lookups = [_AsymLookup(bundle, tables, chs) for chs in sets]
        errs = _run_asym_bsc(cfg, sets, x, z, lookups)
        if moments:
            exact = [{"d_side": (d10, d01), "d_central": d11} for _, d01, d10, d11 in (
                lk.pattern_distortions(bundle.ia.table, *moments) for lk in lookups)]

    wall_time = time.perf_counter() - start
    return [_result(err, wall_time, **fields) for err, fields in zip(errs, exact)]


def _check_trials(trials: int) -> None:
    if trials < 2:
        raise ValueError(f"trials must be at least 2 for a standard error, got {trials}")


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


def _source_block(cfg: AsymConfig, x, z, blk):
    """(x, tuple ids, SI levels) of the trials in ``blk``; SI y = rho x + sqrt(1 - rho^2) z."""
    bundle = cfg.bundle
    rho = cfg.rho_real
    xb = x[blk]
    tuple_ids = bundle.ia.hard_map()[bundle.quantizer.cells(xb)]
    si_levels = bundle.si_quantizer.cells(rho * xb + np.sqrt(1.0 - rho**2) * z[blk])
    return xb, tuple_ids, si_levels


def _run_asym(cfg: AsymConfig, sets, x, z, estimates) -> np.ndarray:
    """The (sets, trials) squared errors, written block by block into one shared array.

    ``estimates(tuple_ids, si_levels, streams)`` yields each set's estimates
    of a block's trials from its channel generators, positioned at the
    block's first trial (:func:`_channel_streams`).
    """
    n = x.size
    errs = forking.shared_array((len(sets), n))

    def decode(blk):
        xb, tuple_ids, si_levels = _source_block(cfg, x, z, blk)
        streams = _channel_streams(sets[0], 2, cfg.seed, blk.start)
        for err, xhat in zip(errs, estimates(tuple_ids, si_levels, streams)):
            err[blk] = (xb - xhat) ** 2

    forking.fork_map(decode, _blocks(n, tuple_space(sets[0]).size), "asym")
    return errs


def _run_asym_bsc(cfg: AsymConfig, sets, x, z, lookups) -> np.ndarray:
    """BSC path: the (sets, trials) squared errors, through one lookup per set."""
    space = tuple_space(sets[0])

    def estimates(tuple_ids, si_levels, streams):
        sent = _transmit_bsc(tuple_ids, sets, space, streams)
        for chs, (words, received), lookup in zip(sets, sent, lookups):
            rows = word_rows(words, pattern_ids(received), chs, lookup.offsets)
            yield lookup.table[rows, si_levels]

    return _run_asym(cfg, sets, x, z, estimates)


def _run_asym_awgn(cfg: AsymConfig, sets, x, z, tables) -> np.ndarray:
    """AWGN path: per-trial log-likelihoods instead of lookups.

    Returns the (sets, trials) squared errors.  The log-prior is taken
    once per (SI level, tuple) table of the one level of ``tables`` and
    gathered per trial; the noise of each description is N(0, 1), inverted
    from its bit uniforms (:func:`_awgn_noise`), and scaled by each set's
    sqrt(N0 / 2).
    """
    channels = sets[0]
    space = tuple_space(channels)
    comps = [space.component(m) for m in range(len(channels))]
    syms = [bpsk_symbols(ch.bits)[: ch.index_count] for ch in channels]
    [prior], [codebook] = tables.prior, tables.codebook
    with np.errstate(divide="ignore"):
        log_prior = np.where(prior > 0, np.log(np.maximum(prior, 1e-300)), -np.inf)

    def estimates(tuple_ids, si_levels, streams):
        draws = [
            (_awgn_noise(bit_u), loss_u)
            for bit_u, loss_u in _channel_uniforms(channels, streams, tuple_ids.size)
        ]
        log_prior_b = np.take(log_prior, si_levels, axis=0)
        codebook_b = np.take(codebook, si_levels, axis=0)
        for chs in sets:
            post = np.zeros((tuple_ids.size, space.size))
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
            yield post.sum(axis=1)

    return _run_asym(cfg, sets, x, z, estimates)


# ---------------------------------------------------------------------------
# Symmetric experiment
# ---------------------------------------------------------------------------

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

    Scores are evaluated at the exact pair correlations; only the decoder
    tables live on the correlation ladder.  The correlations are scored
    in contiguous parts, at least one per worker
    (:func:`mdquant.forking.fork_map`), each within one block of K^2
    moment-matrix entries per correlation (:func:`_blocks`), so the moment
    stacks of a full-scale codec stay bounded.  Each score depends only on
    its own correlation, so the parts concatenate to the one-batch scores
    bit for bit.
    """
    q = bundle.quantizer
    n = len(rho_keys)

    def part(blk):
        s0, s1, _ = si_moment_stack(q, q, rho_keys[blk])
        return score_tables(bundle, s0, s1, method)

    blocks = _blocks(n, q.size ** 2, forking.worker_count(n))
    return np.concatenate(forking.fork_map(part, blocks, "selection"))


# Each node scores only its SI_CANDIDATES most correlated SI sources.
SI_CANDIDATES = 8


def _selection_scores(cfg: SymConfig):
    """(candidates, scores) of the pattern-dependent SI selection; None for ``distance``.

    ``candidates[u]`` are node u's k = min(``SI_CANDIDATES``, N - 1) most
    correlated other nodes by the exact ``pairwise_rho``, in order of falling
    correlation, ties to the lower index.  ``scores[u, j, p_u, p_t]`` scores
    candidate ``candidates[u, j]`` for node u under loss patterns p_u, p_t.
    The scores depend only on the codec and the pair correlations, so a run
    computes them once, at each distinct correlation of the N x k pairs:
    O(N k) scores.  ``distance`` selection ignores the loss patterns and has
    no scores.
    """
    if cfg.si_method == "distance":
        return None
    rho = cfg.scenario.pairwise_rho.copy()
    np.fill_diagonal(rho, -np.inf)
    k = min(SI_CANDIDATES, rho.shape[0] - 1)
    # A stable sort of -rho ranks equal correlations by node index.
    candidates = np.argsort(-rho, axis=1, kind="stable")[:, :k]
    pair_rho = np.take_along_axis(rho, candidates, axis=1)
    rho_keys, ridx = np.unique([round(float(r), 12) for r in pair_rho.flat], return_inverse=True)
    scores = _selection_score_tables(cfg.bundle, rho_keys, cfg.si_method)
    return candidates, scores[ridx.reshape(candidates.shape)]


def _select_maps(cfg: SymConfig, pids, selection) -> np.ndarray:
    """(trials, N) chosen SI source per trial; ``selection`` from :func:`_selection_scores`.

    Each node gathers its k candidates' scores under each trial's patterns,
    O(k x trials) per node, and picks the best, ties to the more correlated
    candidate (the first in ``candidates[u]``).
    """
    n_nodes = cfg.scenario.n_nodes
    if selection is None:
        fixed = select_min_distance(cfg.scenario.positions)
        return np.broadcast_to(fixed, (pids.shape[0], n_nodes))
    candidates, scores = selection
    pick_best = np.argmax if cfg.si_method == "mutual_info" else np.argmin
    slots = np.arange(candidates.shape[1])
    smap = np.empty(pids.shape, dtype=int)
    for u in range(n_nodes):
        # (trials, k) gather of u's scores under each trial's patterns.
        best = pick_best(scores[u, slots, pids[:, u, None], pids[:, candidates[u]]], axis=1)
        smap[:, u] = candidates[u, best]
    return smap


def _block_errors(cfg: SymConfig, dec: _SymDecoder, xb, streams, selection) -> np.ndarray:
    """Per-trial squared error, averaged over nodes, of one block of sources.

    ``xb`` is the block's (trials, nodes) source draws and ``streams`` the
    field's channel generators, positioned at the block's first channel use:
    the field transmits its (trial, node) tuples in row-major order.
    Every per-trial array of the block dies on return.
    """
    bundle = dec.bundle
    n_nodes = xb.shape[1]
    tuple_ids = bundle.ia.hard_map()[bundle.quantizer.cells(xb)]
    [(words, received)] = _transmit_bsc(tuple_ids.ravel(), [dec.channels], dec.space, streams)
    words = words.reshape(*xb.shape, -1)
    pids = pattern_ids(received).reshape(xb.shape)
    xhat = dec.decode(words, pids, _select_maps(cfg, pids, selection))
    # Summed node by node, as numpy sums the rows of a many-trial block; a
    # one-trial block would otherwise take numpy's pairwise sum.
    return functools.reduce(np.add, (xb.T - xhat) ** 2) / n_nodes


def run_sym_experiment(cfg: SymConfig) -> ExperimentResult:
    """Monte-Carlo joint decoding of a scenario; averages distortion over nodes.

    The sources, the selection scores and the decoder tables are made in
    this process; the blocks of trials then run in forked workers (see the
    module docstring) and write the per-trial errors into one shared array,
    kept whole so its mean and standard error are the one-block values.
    """
    start = time.perf_counter()
    _check_trials(cfg.trials)
    scenario = cfg.scenario
    n_nodes = scenario.n_nodes
    x, projected = sample_correlated_sources(scenario, cfg.trials, cfg.seed)
    selection = _selection_scores(cfg)
    dec = _SymDecoder(cfg.bundle, cfg.mode, scenario.pairwise_rho)
    per_trial = forking.shared_array(cfg.trials)

    def errors(blk):
        streams = _channel_streams(dec.channels, 4, cfg.seed, blk.start * n_nodes)
        per_trial[blk] = _block_errors(cfg, dec, x[blk], streams, selection)

    forking.fork_map(errors, _blocks(cfg.trials, n_nodes * dec.space.size), "field")
    return _result(per_trial, time.perf_counter() - start, psd_projected=projected)
