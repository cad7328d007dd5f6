"""Shared fixtures: small deterministic codecs reused across test modules."""

import numpy as np
import pytest

from mdquant import (
    CodecBundle,
    CorrelationLadder,
    DescriptionChannel,
    GaussianSource,
    IndexAssignment,
    build_decoder_tables,
    lloyd_design,
)


@pytest.fixture(scope="session")
def source():
    return GaussianSource(0.0, 1.0)


@pytest.fixture(scope="session")
def q2(source):
    return lloyd_design(source, 2)


@pytest.fixture(scope="session")
def q4(source):
    return lloyd_design(source, 4)


def make_bundle(quantizer, si_quantizer, ia_table, channels, design_rho=0.8):
    """Assemble a bundle with full-ladder tables from explicit pieces."""
    ladder = CorrelationLadder()
    ia = IndexAssignment(np.asarray(ia_table, dtype=float), hard=True)
    tables = build_decoder_tables(quantizer, si_quantizer, ia, ladder.levels)
    return CodecBundle(
        quantizer=quantizer,
        si_quantizer=si_quantizer,
        ia=ia,
        channels=tuple(channels),
        design_rho=design_rho,
        ladder=ladder,
        tables=tables,
        metadata={},
    )


@pytest.fixture(scope="session")
def tiny_bundle(source, q4):
    """K=4, M=2, N_m=2 BSC bundle with one binned tuple (cells 0 and 3)."""
    si = lloyd_design(source, 8)
    channels = (
        DescriptionChannel.bsc(0.1, 0.1, 2),
        DescriptionChannel.bsc(0.1, 0.1, 2),
    )
    table = np.zeros((4, 4))
    table[0, 0] = table[3, 0] = 1.0
    table[1, 1] = 1.0
    table[2, 2] = 1.0
    return make_bundle(q4, si, table, channels)


@pytest.fixture(scope="session")
def bijective_bundle(source, q4):
    """K=4, M=2, N_m=2 BSC bundle with a one-to-one cell/tuple map."""
    si = lloyd_design(source, 8)
    channels = (
        DescriptionChannel.bsc(0.1, 0.1, 2),
        DescriptionChannel.bsc(0.1, 0.1, 2),
    )
    return make_bundle(q4, si, np.eye(4), channels)


def simpson_nodes(lo, hi, n=1601):
    """Simpson nodes/weights on [lo, hi]; independent quadrature for oracles."""
    if n % 2 == 0:
        n += 1
    x = np.linspace(lo, hi, n)
    h = (hi - lo) / (n - 1)
    w = np.full(n, 2.0)
    w[1::2] = 4.0
    w[0] = w[-1] = 1.0
    return x, w * h / 3.0


def std_normal_pdf(x):
    return np.exp(-0.5 * np.asarray(x) ** 2) / np.sqrt(2 * np.pi)
