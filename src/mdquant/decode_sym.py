"""Cross-source tables of the joint decoder.

When one source of a field serves as another's side information, the joint
decoder couples the two through these tables: the joint statistics of the
two sources' quantizer cells and index tuples at their correlation.  They
are read off the same moment matrices S0/S1 as the stored decoder tables
(:func:`mdquant.codec.si_moment_matrices`, with the neighbor's quantizer in
the role of the SI quantizer).  :func:`cross_table_stack` builds them for
many correlations from one batched quadrature.  That is how the SI
selection gets the tables of every pair of a field, and how the soft-SI
decoder (``simulator._SymDecoder``) gets one table per ladder level, all
built when the decoder is created.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .codec import CodecBundle, masked_ratio, si_moment_matrices, si_moment_stack
from .gaussian import JointGaussianPair
from .gaussian import gauss_interval_moments_batch  # noqa: F401  (perfbench/spans.py patches this binding)


@dataclass(frozen=True)
class CrossSourceTables:
    """Dependency tables between a decoded source and its SI source.

    ``cell_cross[l, k]``      P(own cell l | neighbor cell k)
    ``cell_cross_m1[l, k]``   E[X 1{own cell l} | neighbor cell k]
    ``idx_given_cell[I, k]``  P(own tuple I | neighbor cell k)
    ``cent_given_cell[I, k]`` E[X | own tuple I, neighbor cell k]
    ``cell_given_idx[k, I]``  P(neighbor cell k | neighbor tuple I)
    ``mix_prob`` / ``mix_first`` contract the neighbor-cell axis against
    ``cell_given_idx`` so a neighbor tuple posterior maps straight to the own
    tuple prior and its first moment.

    A stack for many correlations (:func:`cross_table_stack`) has a leading
    correlation axis on every table but ``cell_given_idx``.
    """

    cell_cross: np.ndarray
    cell_cross_m1: np.ndarray
    idx_given_cell: np.ndarray
    cent_given_cell: np.ndarray
    cell_given_idx: np.ndarray
    mix_prob: np.ndarray
    mix_first: np.ndarray


def _cross_tables(bundle_u, bundle_s, s0, s1) -> CrossSourceTables:
    """Cross tables from the moment matrices, one (K, K) pair or a stack of them."""
    qs = bundle_s.quantizer
    au, a_s = bundle_u.ia.table, bundle_s.ia.table
    ps = np.maximum(qs.cell_probs, 1e-300)
    cell_cross, cell_cross_m1 = s0 / ps, s1 / ps

    idx_given_cell = au.T @ cell_cross  # (..., Lu, Ks)
    raw_first = au.T @ cell_cross_m1
    cent_given_cell = masked_ratio(raw_first, idx_given_cell)

    mass = a_s * qs.cell_probs[:, None]  # (Ks, Ls)
    cell_given_idx = masked_ratio(mass, mass.sum(axis=0)[None, :])

    mix_prob = idx_given_cell @ cell_given_idx
    mix_first = raw_first @ cell_given_idx
    return CrossSourceTables(
        cell_cross=cell_cross,
        cell_cross_m1=cell_cross_m1,
        idx_given_cell=idx_given_cell,
        cent_given_cell=cent_given_cell,
        cell_given_idx=cell_given_idx,
        mix_prob=mix_prob,
        mix_first=mix_first,
    )


def build_cross_tables(
    bundle_u: CodecBundle,
    bundle_s: CodecBundle,
    pair_us: JointGaussianPair,
) -> CrossSourceTables:
    """Cross-source tables for decoding ``bundle_u`` with ``bundle_s`` as SI.

    ``pair_us`` holds the correlation between the two sources (own source on
    the X axis, neighbor on the Y axis).  ``cell_cross`` and ``cell_cross_m1``
    are the moment matrices S0/S1 with the neighbor's quantizer as SI
    quantizer, divided by the neighbor's cell probabilities.
    """
    s0, s1, _ = si_moment_matrices(bundle_u.quantizer, bundle_s.quantizer, pair_us)
    return _cross_tables(bundle_u, bundle_s, s0, s1)


def cross_table_stack(bundle_u: CodecBundle, bundle_s: CodecBundle, rhos) -> CrossSourceTables:
    """Cross tables of unit-variance sources at many correlations at once.

    Entry r of every table equals ``build_cross_tables`` at ``rhos[r]`` bit
    for bit (one moment quadrature, :func:`mdquant.codec.si_moment_stack`).
    """
    s0, s1, _ = si_moment_stack(bundle_u.quantizer, bundle_s.quantizer, rhos)
    return _cross_tables(bundle_u, bundle_s, s0, s1)
