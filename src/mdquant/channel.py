"""Per-description memoryless channels with packet loss.

Each description index is carried by its own independent channel, which
either drops the packet entirely (probability ``loss_prob``) or delivers a
noisy version of the index: bit flips for a binary symmetric channel, or
BPSK-per-bit plus Gaussian noise for an AWGN channel.  Lost descriptions
contribute the constant likelihood 1/N so that decoder formulas stay uniform
across loss patterns.  The likelihood table of a loss pattern is a plain
(tuples x received words) array; the decoders and the design read every
pattern's table from one side-by-side stack.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import product

import numpy as np

# Smallest AWGN noise PSD.  Below it the AWGN decoder's log-likelihoods
# 2 <out, s> / N0 overflow; BPSK is error-free in double precision from
# N0 of about 1e-3 down, so no channel is lost.
NOISE_PSD_MIN = 1e-100


def derive_rng(seed: int, *ids) -> np.random.Generator:
    """Independent reproducible stream for (seed, id...) tuples."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=tuple(ids)))


@lru_cache(maxsize=16)
def bit_patterns(bits: int) -> np.ndarray:
    """(2^bits, bits) matrix of binary patterns, MSB first."""
    n = 1 << bits
    idx = np.arange(n)[:, None]
    shifts = np.arange(bits - 1, -1, -1)[None, :]
    return ((idx >> shifts) & 1).astype(np.int8)


@lru_cache(maxsize=16)
def hamming_table(bits: int) -> np.ndarray:
    """(2^bits, 2^bits) pairwise Hamming distances between bit patterns."""
    pat = bit_patterns(bits)
    return np.sum(pat[:, None, :] != pat[None, :, :], axis=2)


def bpsk_symbols(bits: int) -> np.ndarray:
    """(2^bits, bits) BPSK mapping: bit 0 -> +1, bit 1 -> -1."""
    return 1.0 - 2.0 * bit_patterns(bits).astype(float)


@dataclass(frozen=True)
class DescriptionChannel:
    """One description's channel: BSC or AWGN, plus an independent loss process."""

    kind: str
    loss_prob: float
    index_count: int
    bit_error_rate: float | None = None
    noise_psd: float | None = None

    def __post_init__(self):
        if self.kind not in ("bsc", "awgn"):
            raise ValueError("channel kind must be 'bsc' or 'awgn'")
        if not 0.0 <= self.loss_prob <= 1.0:
            raise ValueError("loss probability must lie in [0, 1]")
        if self.index_count < 1:
            raise ValueError("need at least one index")
        if self.kind == "bsc":
            if self.bit_error_rate is None or not 0.0 <= self.bit_error_rate <= 0.5:
                raise ValueError("BSC bit error rate must lie in [0, 0.5]")
        else:
            if self.noise_psd is None or not NOISE_PSD_MIN <= self.noise_psd < np.inf:
                raise ValueError(
                    "AWGN noise spectral density must be positive and finite, "
                    f"at least {NOISE_PSD_MIN:g}"
                )

    @classmethod
    def bsc(cls, bit_error_rate: float, loss_prob: float, index_count: int) -> "DescriptionChannel":
        return cls("bsc", loss_prob, index_count, bit_error_rate=bit_error_rate)

    @classmethod
    def awgn(cls, noise_psd: float, loss_prob: float, index_count: int) -> "DescriptionChannel":
        return cls("awgn", loss_prob, index_count, noise_psd=noise_psd)

    @property
    def bits(self) -> int:
        return max(1, int(np.ceil(np.log2(self.index_count))))

    @property
    def received_alphabet(self) -> int:
        """Size of the discrete received alphabet (BSC only): all bit patterns."""
        return 1 << self.bits

    def bsc_likelihood_matrix(self) -> np.ndarray:
        """(index_count, 2^bits) matrix P(J | I, received) for a BSC.

        Unused transmit patterns (index_count < 2^bits) are simply absent from
        the rows; received patterns keep all 2^bits columns.
        """
        if self.kind != "bsc":
            raise ValueError("likelihood matrix only defined for BSC channels")
        b = self.bits
        d = hamming_table(b)[: self.index_count, :]
        p = self.bit_error_rate
        # 0**0 == 1 keeps p in {0, 1} exact.
        return (p ** d) * ((1.0 - p) ** (b - d))


def loss_pattern_prob(Q, channels) -> float:
    """Probability of the loss pattern Q (True = received)."""
    Q = np.asarray(Q, dtype=bool)
    if Q.size != len(channels):
        raise ValueError("pattern length must match channel count")
    prob = 1.0
    for q_m, ch in zip(Q, channels):
        prob *= (1.0 - ch.loss_prob) if q_m else ch.loss_prob
    return float(prob)


# ---------------------------------------------------------------------------
# Index-tuple bookkeeping shared by codec design, decoding, and simulation.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TupleSpace:
    """Row-major enumeration of description index tuples I = (I_1, ..., I_M).

    ``size`` and ``tuples`` are computed once per space.  ``tuples`` is
    read-only, because ``component`` hands out views of it.
    """

    counts: tuple

    @cached_property
    def size(self) -> int:
        return int(np.prod(self.counts))

    @cached_property
    def tuples(self) -> np.ndarray:
        """(L, M) array listing every tuple in row-major order."""
        tuples = np.array(list(product(*[range(n) for n in self.counts])), dtype=int)
        tuples.setflags(write=False)
        return tuples

    def component(self, m: int) -> np.ndarray:
        """Description-m index of every tuple, shape (L,)."""
        return self.tuples[:, m]


def tuple_space(channels) -> TupleSpace:
    return TupleSpace(tuple(ch.index_count for ch in channels))


def loss_patterns(M: int) -> list:
    """All 2^M loss patterns in row-major order ((False,...) first)."""
    return [np.array(q, dtype=bool) for q in product((False, True), repeat=M)]


def pattern_ids(received: np.ndarray) -> np.ndarray:
    """Position in ``loss_patterns`` of each pattern along the last axis of ``received``."""
    M = received.shape[-1]
    weights = 1 << np.arange(M - 1, -1, -1)
    return received.astype(int) @ weights


def pattern_table(channels, Q) -> np.ndarray:
    """Analytic likelihood table of one loss pattern Q (BSC channels only).

    Shape (L, n_j): P(all received J | I, Q) for every index tuple and every
    combined received word.  Lost descriptions are summed out (their constant
    likelihood factors to 1) so the columns enumerate only the received
    descriptions' joint alphabet, row-major.
    """
    for ch in channels:
        if ch.kind != "bsc":
            raise ValueError("analytic likelihood tables require discrete channels")
    space = tuple_space(channels)
    Q = np.asarray(Q, dtype=bool)
    table = np.ones((space.size, 1))
    for m, ch in enumerate(channels):
        if not Q[m]:
            continue
        lik_m = ch.bsc_likelihood_matrix()[space.component(m), :]  # (L, 2^b)
        table = table[:, :, None] * lik_m[:, None, :]
        table = table.reshape(space.size, -1)
    return table


def stacked_pattern_table(channels):
    """Every loss pattern's likelihood table side by side, shape (L, sum n_j).

    Also returns the column offsets, one more than there are patterns:
    pattern p (in ``loss_patterns`` order) owns columns
    ``offsets[p]:offsets[p + 1]``.
    """
    tables = [pattern_table(channels, Q) for Q in loss_patterns(len(channels))]
    offsets = np.cumsum([0] + [t.shape[1] for t in tables])
    return np.hstack(tables), offsets


def word_rows(words: np.ndarray, pids: np.ndarray, channels, offsets) -> np.ndarray:
    """Row of each received word in the transpose of a stacked pattern table.

    ``words`` holds the M description words along its last axis, and
    ``pids`` the loss pattern ids in the shape of the rows returned.
    Loss pattern p owns rows ``offsets[p]:offsets[p + 1]``, its columns in
    :func:`stacked_pattern_table`; within them the words of the pattern's
    received descriptions combine row-major.
    """
    M = len(channels)
    key = np.zeros(pids.shape, dtype=int)
    for m, ch in enumerate(channels):
        got = (pids & (1 << (M - 1 - m))).astype(bool)
        np.multiply(key, ch.received_alphabet, out=key, where=got)
        np.add(key, words[..., m], out=key, where=got)
    key += offsets[pids]
    return key
