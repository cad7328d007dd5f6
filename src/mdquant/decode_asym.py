"""MMSE reconstruction of a single source from noisy/lossy descriptions.

The decoder combines the channel likelihood of the received descriptions with
the stored prior P(index tuple | SI level) and reads the reconstruction off
the stored codebook.  Likelihoods are handled in log space with per-vector
max subtraction so AWGN tails cannot underflow the posterior.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import ChannelOutcome, bpsk_symbols, tuple_space
from .codec import CodecBundle


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


def posterior(
    outcome: ChannelOutcome,
    si_level: int | None,
    rho_level: int | None,
    bundle: CodecBundle,
) -> Posterior:
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


def reconstruct(
    post: Posterior,
    si_level: int | None,
    rho_level: int | None,
    bundle: CodecBundle,
) -> float:
    """MMSE estimate: posterior-weighted sum of stored codebook entries."""
    _, codebook = _prior_and_codebook(bundle, si_level, rho_level)
    return float(np.dot(post.probs, codebook))


def decode(outcome, si_level, rho_level, bundle) -> float:
    """Posterior + reconstruction in one call."""
    return reconstruct(posterior(outcome, si_level, rho_level, bundle), si_level, rho_level, bundle)
