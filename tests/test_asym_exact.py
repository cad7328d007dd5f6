"""Exact per-pattern distortions of the asymmetric BSC decoder.

``codec._AsymLookup.pattern_distortions`` gives the expected squared error
of a fixed lookup under each loss pattern; ``run_asym_experiment`` reports
its side and central entries.  At the design point the pattern average is
the codec's analytic d_av, and over error-free channels the central entry is
its d_se; elsewhere the forced-pattern Monte-Carlo decode of the oracles
agrees with it within its standard error.
"""

import dataclasses

import numpy as np
import pytest

from mdquant import DescriptionChannel, JointGaussianPair, lloyd_design
from mdquant.channel import loss_pattern_prob, loss_patterns
from mdquant.codec import _AsymLookup, evaluate_distortion, si_moment_matrices
from mdquant.persist import load_codec
from mdquant.simulator import AsymConfig, run_asym_experiment

from conftest import asym_config, one_level_si
from oracles import forced_pattern_errors, ladder_tables

# Positions in loss_patterns of description 1 alone, description 2 alone and
# both: the patterns of d_side and d_central.
FORCED = (2, 1, 3)
ORACLE_TRIALS = 200_000


@pytest.fixture(scope="module")
def desk(desk_codec):
    return load_codec(desk_codec)


def bsc_set(bundle, ber):
    return tuple(
        DescriptionChannel.bsc(ber, ch.loss_prob, ch.index_count) for ch in bundle.channels
    )


def design_point_distortions(bundle, channels):
    """Every pattern's exact distortion of ``bundle``'s lookup at its design correlation."""
    pair = JointGaussianPair(1, 1, bundle.design_rho)
    moments = si_moment_matrices(bundle.quantizer, bundle.si_quantizer, pair)
    level = bundle.rho_level(bundle.design_rho)
    lookup = _AsymLookup(bundle, ladder_tables(bundle), channels, level)
    return lookup.pattern_distortions(bundle.ia.table, *moments)


class TestDesignPoint:
    @pytest.mark.parametrize("codec", ["desk", "tiny"])
    def test_pattern_average_is_the_analytic_d_av(self, desk, tiny_bundle, codec):
        bundle = desk if codec == "desk" else tiny_bundle
        per_pattern = design_point_distortions(bundle, bundle.channels)
        probs = [loss_pattern_prob(q, bundle.channels) for q in loss_patterns(2)]
        analytic = evaluate_distortion(
            bundle.quantizer, bundle.si_quantizer, bundle.ia,
            JointGaussianPair(1, 1, bundle.design_rho), bundle.channels,
        ).d_av
        assert abs(np.dot(probs, per_pattern) - analytic) < 1e-12 * analytic
        if codec == "desk":
            d_av = bundle.metadata["d_av"]
            assert abs(np.dot(probs, per_pattern) - d_av) < 1e-12 * d_av

    def test_error_free_central_is_d_se(self, desk):
        d_central = design_point_distortions(desk, bsc_set(desk, 0.0))[3]
        d_se = desk.metadata["d_se"]
        assert abs(d_central - d_se) < 1e-12 * d_se

    def test_no_si_table_applies_at_every_si_level(self, desk):
        # Over the SI levels or over the marginal, the no-SI lookup's distortions agree.
        one_si = one_level_si(desk)
        lookup = _AsymLookup(one_si, ladder_tables(one_si), desk.channels, 0)
        one_level = lloyd_design(1)
        pair = JointGaussianPair(1, 1, 0.8)
        per_level = lookup.pattern_distortions(
            desk.ia.table, *si_moment_matrices(desk.quantizer, desk.si_quantizer, pair)
        )
        marginal = lookup.pattern_distortions(
            desk.ia.table, *si_moment_matrices(desk.quantizer, one_level, pair)
        )
        np.testing.assert_allclose(per_level, marginal, rtol=1e-12)


# Each case: ``asym_config`` fields, bit error rates (None: the codec's own
# channels), SI quantizer size (None: the codec's own) and oracle seed.  The
# seeds were fixed before the first run.
STATISTICAL_CASES = {
    "bsc_sweep": ({"rho_real": 0.8}, (0.01, 0.001, 0.0), None, 41),
    "no_si": ({"rho_real": 0.8, "no_si": True}, (0.02, 0.0), None, 42),
    "rho_dec": ({"rho_real": 0.7, "rho_dec": 0.9}, (None,), None, 43),
    "nsi_16": ({"rho_real": 0.8}, (None,), 16, 44),
}


class TestAgainstForcedPatternDecode:
    @pytest.mark.parametrize("case", sorted(STATISTICAL_CASES))
    def test_exact_values_within_5_stderr_of_the_oracle(self, desk, case):
        fields, bers, nsi, seed = STATISTICAL_CASES[case]
        bundle = desk if nsi is None else dataclasses.replace(
            desk, si_quantizer=lloyd_design(nsi)
        )
        sets = [bundle.channels if ber is None else bsc_set(bundle, ber) for ber in bers]
        cfg = asym_config(bundle, trials=2, seed=seed, **fields)
        results = run_asym_experiment(cfg, sets)
        oracle_cfg = dataclasses.replace(cfg, trials=ORACLE_TRIALS)
        for chs, res in zip(sets, results, strict=True):
            errs = forced_pattern_errors(oracle_cfg, chs, FORCED)
            means = errs.mean(axis=1)
            stderrs = errs.std(axis=1, ddof=1) / np.sqrt(ORACLE_TRIALS)
            exact = (*res.d_side, res.d_central)
            assert np.all(np.abs(means - exact) < 5 * stderrs), (chs, means, exact, stderrs)

    def test_exact_values_do_not_depend_on_the_draws(self, desk):
        sets = [bsc_set(desk, ber) for ber in (0.01, 0.0)]
        a, b = (
            run_asym_experiment(AsymConfig(bundle=desk, rho_real=0.8, trials=n, seed=s), sets)
            for n, s in ((2, 1), (500, 9))
        )
        assert [(r.d_side, r.d_central) for r in a] == [(r.d_side, r.d_central) for r in b]
