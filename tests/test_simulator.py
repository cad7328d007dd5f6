import dataclasses
import tracemalloc
from itertools import product

import numpy as np
import pytest

from mdquant import (
    RHO_LADDER,
    DescriptionChannel,
    JointGaussianPair,
    build_decoder_tables,
    design_annealed,
    lloyd_design,
    quantize_rho,
)
from mdquant import codec, decode_sym, forking, simulator
from mdquant.channel import derive_rng, loss_patterns, pattern_ids, tuple_space
from mdquant.codec import _AsymLookup
from mdquant.decode_sym import _SymDecoder
from mdquant.si_select import select_min_distance
from mdquant.simulator import (
    SI_METHODS,
    SYM_MODES,
    AsymConfig,
    ExperimentResult,
    SymConfig,
    WsnScenario,
    conditional_entropy_rates,
    generate_scenario,
    run_asym_experiment,
    run_sym_experiment,
    sample_correlated_sources,
    _awgn_noise,
    _channel_streams,
    _run_asym_awgn,
    _select_maps,
    _selection_scores,
    _transmit_bsc,
)

from conftest import asym_config, make_bundle, one_level_si
from oracles import (
    ChannelOutcome,
    asym_awgn_errors,
    decode,
    ladder_cross_tables,
    ladder_tables,
    loop_select,
    run_decoder,
)


def bsc_channels(p, mu, n=2):
    return (
        DescriptionChannel.bsc(p, mu, n),
        DescriptionChannel.bsc(p, mu, n),
    )


@pytest.fixture(scope="module")
def designed_bundle():
    q = lloyd_design(8)
    si = lloyd_design(16)
    return design_annealed(
        q,
        si,
        JointGaussianPair(1, 1, 0.8),
        bsc_channels(0.01, 0.05),
        restarts=2,
        seed=11,
    )


class TestScenario:
    def test_coincident_nodes(self):
        pos = np.array([[0.5, 0.5], [0.5, 0.5]])
        s = generate_scenario(2, bsc_channels(0.0, 0.05), seed=0, positions=pos)
        assert s.pairwise_rho[0, 1] == 1.0

    def test_corner_distance(self):
        pos = np.array([[0.0, 0.0], [1.0, 1.0]])
        s = generate_scenario(2, bsc_channels(0.0, 0.05), alpha=2.0, seed=0, positions=pos)
        assert abs(s.pairwise_rho[0, 1] - np.exp(-np.sqrt(2) / 2)) < 1e-12

    def test_seed_determinism(self):
        a = generate_scenario(7, bsc_channels(0.0, 0.05), seed=4)
        b = generate_scenario(7, bsc_channels(0.0, 0.05), seed=4)
        assert np.array_equal(a.positions, b.positions)
        assert np.array_equal(a.pairwise_rho, b.pairwise_rho)

    def test_needs_two_nodes(self):
        with pytest.raises(ValueError):
            generate_scenario(1, bsc_channels(0.0, 0.05), seed=0)

    @pytest.mark.parametrize("alpha", [0.0, -1.0, np.nan, np.inf])
    def test_rejects_bad_alpha(self, alpha):
        with pytest.raises(ValueError, match="alpha must be positive and finite"):
            generate_scenario(3, bsc_channels(0.0, 0.05), alpha=alpha, seed=0)

    def test_rejects_non_finite_positions(self):
        pos = np.array([[0.0, 0.0], [np.nan, 0.5], [0.2, np.inf]])
        with pytest.raises(ValueError, match="node positions must be finite"):
            generate_scenario(3, bsc_channels(0.0, 0.05), seed=0, positions=pos)

    def test_sampling_matches_target_covariance(self):
        s = generate_scenario(4, bsc_channels(0.0, 0.05), seed=8)
        x, projected = sample_correlated_sources(s, 200_000, 5)
        emp = np.corrcoef(x.T)
        assert np.max(np.abs(emp - s.pairwise_rho)) < 0.02
        assert not projected

    @pytest.mark.parametrize("nodes", [6, 40, 300])
    @pytest.mark.parametrize("block", [1, 2, 12, 13, "default"])
    def test_block_draws_equal_the_one_block_draw(self, nodes, block):
        # A field redraws each block's sources from the stream state kept at
        # its first trial; each row equals the one-block draw's bit for bit.
        # At 300 nodes a row of a chunk product rounds by its place in it.
        s = generate_scenario(nodes, bsc_channels(0.0, 0.05), seed=3)
        if block == "default":
            block = simulator.BLOCK_ENTRIES // (nodes * tuple_space(s.channels).size)
        trials = 2 * block + 5
        whole, _ = sample_correlated_sources(s, trials, 5)
        factor, _ = simulator._source_factor(s.pairwise_rho)
        blocks = [slice(lo, min(lo + block, trials)) for lo in range(0, trials, block)]
        states = simulator._source_states(5, blocks, nodes)
        for blk, state in zip(blocks, states):
            got = simulator._block_sources(5, state, blk, factor)
            assert np.array_equal(got, whole[blk]), blk

    @pytest.mark.parametrize("gap,projected", [(1.1e-9, False), (0.9e-9, True)])
    def test_psd_eigen_floor_edge(self, gap, projected):
        # A two-node field with rho = 1 - gap has smallest eigenvalue gap, just
        # above or just below simulator.PSD_EIGEN_FLOOR (1e-9).
        rho = 1.0 - gap
        s = WsnScenario(
            np.array([[0.0, 0.0], [1.0, 0.0]]), 2.0, np.array([[1.0, rho], [rho, 1.0]]),
            bsc_channels(0.0, 0.05), 0,
        )
        low = np.linalg.eigvalsh(s.pairwise_rho).min()
        assert abs(low - gap) < 1e-14
        assert bool(low < simulator.PSD_EIGEN_FLOOR) is projected
        _, got = sample_correlated_sources(s, 10, 0)
        assert got is projected


class TestExperimentResult:
    def test_db_consistency(self):
        r = ExperimentResult(0.05, 100, 0.001, d_central=0.01)
        assert abs(r.d_av_db - 10 * np.log10(0.05)) < 1e-12
        assert abs(r.d_central_db - 10 * np.log10(0.01)) < 1e-12


class TestConditionalEntropyRates:
    def test_independent_si(self, tiny_bundle):
        rates = conditional_entropy_rates(tiny_bundle, JointGaussianPair(1, 1, 0.0))
        # Equals the unconditional description entropies.
        space = tuple_space(tiny_bundle.channels)
        p_tuple = tiny_bundle.ia.table.T @ tiny_bundle.quantizer.cell_probs
        for m, rate in enumerate(rates):
            marg = np.zeros(2)
            np.add.at(marg, space.component(m), p_tuple)
            expect = -sum(v * np.log2(v) for v in marg if v > 0)
            assert abs(rate - expect) < 1e-9

    def test_single_tuple_zero_bits(self, q2):
        table = np.zeros((2, 4))
        table[:, 1] = 1.0
        bundle = make_bundle(q2, lloyd_design(8), table, bsc_channels(0.0, 0.05))
        rates = conditional_entropy_rates(bundle, JointGaussianPair(1, 1, 0.8))
        assert max(rates) < 1e-12

    def test_si_reduces_rate(self, designed_bundle):
        r0 = conditional_entropy_rates(designed_bundle, JointGaussianPair(1, 1, 0.0))
        r8 = conditional_entropy_rates(designed_bundle, JointGaussianPair(1, 1, 0.8))
        assert all(b <= a + 1e-12 for a, b in zip(r0, r8))


class TestAsymLookup:
    def test_equals_per_symbol_decode_exhaustively(self, tiny_bundle):
        # Every loss pattern, received word, SI level and rho level (None:
        # no SI, the rho-0 lookup of the one-level-SI codec) of the tiny
        # codec: the batched lookup is the MMSE decoder.
        channels = tiny_bundle.channels
        levels = [None] + list(range(RHO_LADDER.size))
        cases = 0
        worst = 0.0
        for level in levels:
            bundle = one_level_si(tiny_bundle) if level is None else tiny_bundle
            lookup = _AsymLookup(bundle, ladder_tables(bundle), channels, level or 0)
            blocks = np.split(lookup.table, lookup.offsets[1:-1])
            si_levels = [None] if level is None else range(tiny_bundle.si_quantizer.size)
            for p, q in enumerate(loss_patterns(len(channels))):
                alphabets = [
                    range(ch.received_alphabet) if got else [None]
                    for ch, got in zip(channels, q)
                ]
                for key, words in enumerate(product(*alphabets)):
                    outcome = ChannelOutcome(tuple(words), q)
                    for y in si_levels:
                        got = blocks[p][key, 0 if y is None else y]
                        expect = decode(outcome, y, level, tiny_bundle)
                        worst = max(worst, abs(got - expect))
                        cases += 1
        assert cases == 585
        assert worst < 1e-12


def awgn_channels(bundle):
    return tuple(
        DescriptionChannel.awgn(0.5, ch.loss_prob, ch.index_count) for ch in bundle.channels
    )


class TestAsymExperiment:
    def test_matches_analytic(self, designed_bundle):
        res = run_asym_experiment(
            AsymConfig(bundle=designed_bundle, rho_real=0.8, trials=200_000, seed=3),
            [designed_bundle.channels],
        )[0]
        analytic = designed_bundle.metadata["d_av"]
        assert abs(res.d_av - analytic) < 3 * res.stderr

    def test_stderr_scaling(self, designed_bundle):
        r1 = run_asym_experiment(
            AsymConfig(bundle=designed_bundle, rho_real=0.8, trials=20_000, seed=5),
            [designed_bundle.channels],
        )[0]
        r2 = run_asym_experiment(
            AsymConfig(bundle=designed_bundle, rho_real=0.8, trials=80_000, seed=5),
            [designed_bundle.channels],
        )[0]
        ratio = r2.stderr / r1.stderr
        assert 0.35 < ratio < 0.65  # ~1/2 for 4x trials

    def test_seed_reproducibility(self, designed_bundle):
        a = run_asym_experiment(
            AsymConfig(bundle=designed_bundle, rho_real=0.8, trials=5_000, seed=9),
            [designed_bundle.channels],
        )[0]
        b = run_asym_experiment(
            AsymConfig(bundle=designed_bundle, rho_real=0.8, trials=5_000, seed=9),
            [designed_bundle.channels],
        )[0]
        assert a.d_av == b.d_av
        assert a.d_side == b.d_side

    def test_side_and_central_ordering(self, designed_bundle):
        res = run_asym_experiment(
            AsymConfig(bundle=designed_bundle, rho_real=0.8, trials=100_000, seed=7),
            [designed_bundle.channels],
        )[0]
        assert res.d_central < min(res.d_side)

    def test_no_si_variant_worse(self, designed_bundle):
        with_si = run_asym_experiment(
            AsymConfig(bundle=designed_bundle, rho_real=0.8, trials=100_000, seed=7),
            [designed_bundle.channels],
        )[0]
        without = run_asym_experiment(
            asym_config(designed_bundle, no_si=True, rho_real=0.8, trials=100_000, seed=7),
            [designed_bundle.channels],
        )[0]
        assert with_si.d_av < without.d_av

    def test_awgn_smoke(self, designed_bundle):
        awgn = awgn_channels(designed_bundle)
        res = run_asym_experiment(
            AsymConfig(
                bundle=designed_bundle,
                rho_real=0.8,
                trials=20_000,
                seed=13,
            ),
            [awgn],
        )[0]
        assert 0 < res.d_av < 1.0

    def test_rejects_mixed_channel_kinds(self, designed_bundle):
        cfg = AsymConfig(bundle=designed_bundle, rho_real=0.8, trials=100, seed=1)
        awgn = tuple(DescriptionChannel.awgn(0.5, 0.05, 2) for _ in range(2))
        with pytest.raises(ValueError, match="all BSC or all AWGN"):
            run_asym_experiment(cfg, [bsc_channels(0.01, 0.05), awgn])

    def test_rejects_foreign_index_counts(self, designed_bundle):
        cfg = AsymConfig(bundle=designed_bundle, rho_real=0.8, trials=100, seed=1)
        with pytest.raises(ValueError, match="indices"):
            run_asym_experiment(cfg, [bsc_channels(0.01, 0.05, n=4)])

    @pytest.mark.parametrize("field, value, message", [
        ("trials", 1, "trials must be at least 2 for a standard error, got 1"),
        ("trials", 0, "trials must be at least 2 for a standard error, got 0"),
        ("rho_real", 1.0, r"rho_real must lie in \(-1, 1\), got 1.0"),
        ("rho_real", -1.0, r"rho_real must lie in \(-1, 1\), got -1.0"),
        ("rho_real", float("nan"), r"rho_real must lie in \(-1, 1\), got nan"),
    ])
    def test_rejects_bad_config_before_any_draw(
        self, designed_bundle, monkeypatch, field, value, message
    ):
        def must_not_draw(*args):
            raise AssertionError("a draw started before the configuration was checked")

        monkeypatch.setattr(simulator, "derive_rng", must_not_draw)
        cfg = AsymConfig(bundle=designed_bundle, rho_real=0.8, trials=100, seed=1)
        for sets in ([designed_bundle.channels], [awgn_channels(designed_bundle)]):
            with pytest.raises(ValueError, match=f"^{message}$"):
                run_asym_experiment(dataclasses.replace(cfg, **{field: value}), sets)


# ---------------------------------------------------------------------------
# Shared draws and blocked decoding of the asymmetric experiment
# ---------------------------------------------------------------------------

BLOCK = 64
BLOCK_TRIALS = [BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 3]
# The default asymmetric block of a codec with L = 16 index tuples.
DESK_BLOCK = simulator.BLOCK_ENTRIES // 16


def set_asym_block(monkeypatch, bundle, trials):
    """Make the asymmetric experiment decode ``bundle`` in blocks of ``trials`` trials."""
    per_trial = tuple_space(bundle.channels).size
    monkeypatch.setattr(simulator, "BLOCK_ENTRIES", trials * per_trial)


def summary(res):
    return res.d_av, res.stderr, res.d_side, res.d_central


def asym_sources(cfg):
    """x, z and the whole-array tuple ids and SI levels ``run_asym_experiment`` draws."""
    b = cfg.bundle
    rng = derive_rng(cfg.seed, 1)
    x = rng.standard_normal(cfg.trials)
    z = rng.standard_normal(cfg.trials)
    y = cfg.rho_real * x + np.sqrt(max(1.0 - cfg.rho_real**2, 0.0)) * z
    tuple_ids = b.ia.hard_map()[np.searchsorted(b.quantizer.thresholds, x, side="left")]
    si_levels = np.searchsorted(b.si_quantizer.thresholds, y, side="left")
    return x, z, tuple_ids, si_levels


class TestSharedDraws:
    @pytest.mark.parametrize("block", [BLOCK, DESK_BLOCK])
    def test_sweep_rows_equal_single_runs(self, designed_bundle, monkeypatch, block):
        set_asym_block(monkeypatch, designed_bundle, block)
        cfg = AsymConfig(bundle=designed_bundle, rho_real=0.8, trials=5_000, seed=21)
        sets = [bsc_channels(p, 0.05) for p in (0.1, 0.01, 0.0)]
        rows = run_asym_experiment(cfg, sets)
        assert len(rows) == 3
        for chs, row in zip(sets, rows):
            single = run_asym_experiment(cfg, [chs])[0]
            assert summary(row) == summary(single)
        assert rows[0].d_av > rows[2].d_av

    @pytest.mark.parametrize("use_si", [True, False])
    def test_blocked_bsc_equals_one_block(self, designed_bundle, monkeypatch, use_si):
        sets = [bsc_channels(p, 0.1) for p in (0.05, 0.0)]
        cfgs = [
            asym_config(designed_bundle, no_si=not use_si, rho_real=0.8, trials=n, seed=19)
            for n in BLOCK_TRIALS
        ]
        whole = [run_asym_experiment(cfg, sets) for cfg in cfgs]
        set_asym_block(monkeypatch, designed_bundle, BLOCK)
        for cfg, rows in zip(cfgs, whole):
            blocked = run_asym_experiment(cfg, sets)
            assert [summary(r) for r in blocked] == [summary(r) for r in rows]

    def test_bsc_transmits_once_per_block(self, designed_bundle, monkeypatch, one_worker):
        # Every BSC set of a block goes through the one transmission helper,
        # which draws the block's uniforms once for all of them.  The blocks
        # run in this process, where the spy sees them.
        calls = []
        transmit = simulator._transmit_bsc

        def counted(tuple_ids, sets, space, streams):
            calls.append((tuple_ids.size, len(sets)))
            return transmit(tuple_ids, sets, space, streams)

        monkeypatch.setattr(simulator, "_transmit_bsc", counted)
        set_asym_block(monkeypatch, designed_bundle, BLOCK)
        cfg = AsymConfig(bundle=designed_bundle, rho_real=0.8, trials=2 * BLOCK + 3, seed=19)
        run_asym_experiment(cfg, [bsc_channels(p, 0.1) for p in (0.05, 0.01, 0.0)])
        assert calls == [(BLOCK, 3), (BLOCK, 3), (3, 3)]

    @pytest.mark.parametrize("use_si", [True, False])
    @pytest.mark.parametrize("trials", BLOCK_TRIALS)
    def test_blocked_awgn_equals_whole_array(self, designed_bundle, monkeypatch, use_si, trials):
        set_asym_block(monkeypatch, designed_bundle, BLOCK)
        awgn = tuple(DescriptionChannel.awgn(0.5, 0.1, 2) for _ in range(2))
        cfg = asym_config(
            designed_bundle, no_si=not use_si, rho_real=0.8, trials=trials, seed=17,
        )
        x, z, tuple_ids, si_levels = asym_sources(cfg)
        level = cfg.bundle.rho_level(0.8 if use_si else 0.0)
        b = cfg.bundle
        tables = build_decoder_tables(b.quantizer, b.si_quantizer, b.ia, [RHO_LADDER[level]])
        [err] = _run_asym_awgn(cfg, [awgn], x, z, tables)
        expect = asym_awgn_errors(cfg.bundle, awgn, x, tuple_ids, si_levels, level, 17)
        assert np.array_equal(err, expect)
        res = run_asym_experiment(cfg, [awgn])[0]
        assert res.d_av == float(expect.mean())
        assert res.stderr == float(expect.std(ddof=1) / np.sqrt(trials))


# Bit uniforms at the ends of ``Generator.random``'s range: 0, the smallest
# nonzero draw 2^-53 and the largest draw 1 - 2^-53.
EDGE_UNIFORMS = (0.0, 2.0**-53, 1.0 - 2.0**-53)


class TestAwgnNoiseFloor:
    def test_edge_uniforms_give_finite_symmetric_noise(self):
        assert simulator.NOISE_UNIFORM_FLOOR == EDGE_UNIFORMS[1]
        with np.errstate(all="raise"):
            zero, smallest, largest = _awgn_noise(np.array(EDGE_UNIFORMS))
        assert np.all(np.isfinite((zero, smallest, largest)))
        assert zero == smallest == -largest
        assert round(largest, 4) == 8.2095

    def test_edge_uniforms_decode_to_finite_errors(self, designed_bundle, monkeypatch, one_worker):
        # Every bit uniform of the run is set to one of the three edges.
        uniforms = simulator._channel_uniforms

        def edges(channels, streams, n):
            draws = uniforms(channels, streams, n)
            for bit_u, _ in draws:
                bit_u.flat[:] = np.resize(EDGE_UNIFORMS, bit_u.size)
            return draws

        monkeypatch.setattr(simulator, "_channel_uniforms", edges)
        awgn = tuple(DescriptionChannel.awgn(0.5, 0.1, 2) for _ in range(2))
        cfg = AsymConfig(bundle=designed_bundle, rho_real=0.8, trials=300, seed=3)
        with np.errstate(divide="raise", over="raise", invalid="raise"):
            [res] = run_asym_experiment(cfg, [awgn])
        assert np.isfinite(res.d_av) and np.isfinite(res.stderr)


def traced_peak(fn) -> int:
    """tracemalloc peak, in bytes, of one call of ``fn`` in this process."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def peak_with_shared_arrays(fn, monkeypatch) -> int:
    """Traced peak of ``fn`` plus the bytes of the ``forking.shared_array`` arrays it makes.

    The experiments write their per-trial errors into those arrays, which
    live in ``mmap`` memory that tracemalloc does not see.
    """
    made = []
    shared_array = forking.shared_array

    def counted(shape):
        made.append(shared_array(shape))
        return made[-1]

    with monkeypatch.context() as m:
        m.setattr(forking, "shared_array", counted)
        traced = traced_peak(fn)
    assert made, "no per-trial output in shared memory"
    return traced + sum(a.nbytes for a in made)


@pytest.fixture(scope="module")
def k16_bundle():
    """K=16 codec over two 4-index BSC descriptions, one cell per tuple."""
    q = lloyd_design(16)
    si = lloyd_design(64)
    return make_bundle(q, si, np.eye(16), bsc_channels(0.005, 0.05, n=4))


@pytest.mark.usefixtures("one_worker")
class TestAsymMemory:
    """The peak grows by at most 24 float64 per trial from 200k to 400k trials.

    The blocks run in this process, where tracemalloc sees them, and the
    peak counts the shared per-trial arrays (:func:`peak_with_shared_arrays`).
    """

    def growth_per_trial(self, run, monkeypatch) -> float:
        small, large = (
            peak_with_shared_arrays(lambda: run(n), monkeypatch) for n in (200_000, 400_000)
        )
        return (large - small) / (200_000 * 8)

    def test_awgn_row(self, k16_bundle, monkeypatch):
        awgn = tuple(DescriptionChannel.awgn(0.5, 0.05, 4) for _ in range(2))

        def run(trials):
            run_asym_experiment(AsymConfig(
                bundle=k16_bundle, rho_real=0.8, trials=trials, seed=1,
            ), [awgn])

        assert self.growth_per_trial(run, monkeypatch) <= 24

    def test_three_row_bsc_sweep(self, k16_bundle, monkeypatch):
        sets = [bsc_channels(p, 0.05, n=4) for p in (0.01, 0.001, 0.0)]

        def run(trials):
            cfg = AsymConfig(bundle=k16_bundle, rho_real=0.8, trials=trials, seed=1)
            run_asym_experiment(cfg, sets)

        assert self.growth_per_trial(run, monkeypatch) <= 24


class TestSymConfig:
    def test_rejects_unknown_mode_at_construction(self, tiny_bundle):
        scen = generate_scenario(3, tiny_bundle.channels, seed=0)
        with pytest.raises(ValueError, match="mode must be 'estimated' or 'soft'"):
            SymConfig(scenario=scen, bundle=tiny_bundle, mode="sfot")

    def test_rejects_unknown_si_method_at_construction(self, tiny_bundle):
        scen = generate_scenario(3, tiny_bundle.channels, seed=0)
        with pytest.raises(ValueError, match="unknown SI selection method"):
            SymConfig(scenario=scen, bundle=tiny_bundle, si_method="max_mi")

    @pytest.mark.parametrize("trials", [1, 0])
    def test_run_rejects_fewer_than_two_trials_before_any_draw(
        self, tiny_bundle, monkeypatch, trials
    ):
        # The config itself may hold one trial; only a run needs a standard error.
        scen = generate_scenario(3, tiny_bundle.channels, seed=0)
        cfg = SymConfig(scenario=scen, bundle=tiny_bundle, trials=trials)

        def must_not_draw(*args):
            raise AssertionError("a draw started before the configuration was checked")

        monkeypatch.setattr(simulator, "derive_rng", must_not_draw)
        with pytest.raises(
            ValueError, match=f"^trials must be at least 2 for a standard error, got {trials}$"
        ):
            run_sym_experiment(cfg)


class TestSymDecoderTables:
    """The joint decoder builds the tables of the ladder levels its field reaches when it is created.

    Each equals a build of that level on its own, byte for byte.
    """

    def decoder(self, bundle, mode, nodes=3):
        scen = generate_scenario(nodes, bundle.channels, seed=0)
        return _SymDecoder(bundle, mode, scen.pairwise_rho)

    @pytest.mark.parametrize("name", ["tiny_bundle", "designed_bundle"])
    def test_soft_mixes_equal_per_level_cross_tables(self, request, name):
        bundle = request.getfixturevalue(name)
        dec = self.decoder(bundle, "soft")
        assert not hasattr(dec, "lookups")
        assert dec.prior_mix.shape[0] == dec.final_mix.shape[0] == dec.levels.size
        # The soft tables keep the tuples that some cell maps to.
        used = np.flatnonzero(bundle.ia.table.sum(axis=0) > 0)
        assert np.array_equal(dec.used, used)
        for i, cross in enumerate(ladder_cross_tables(bundle, dec.levels).values()):
            mix_prob, mix_first = (m[np.ix_(used, used)] for m in (cross.mix_prob, cross.mix_first))
            expect_prior = mix_prob.T
            expect_final = np.vstack([mix_prob, mix_first]).T
            for got, expect in ((dec.prior_mix[i], expect_prior),
                                (dec.final_mix[i], expect_final)):
                assert got.shape == expect.shape
                assert got.tobytes() == expect.tobytes(), dec.levels[i]
                # The same memory order as the per-level matrix, so every
                # product with it rounds the same way.
                assert got.flags.f_contiguous and expect.flags.f_contiguous

    @pytest.mark.parametrize("name", ["tiny_bundle", "designed_bundle"])
    def test_estimated_lookups_equal_per_level_lookups(self, request, name):
        bundle = request.getfixturevalue(name)
        dec = self.decoder(bundle, "estimated")
        assert not hasattr(dec, "prior_mix")
        assert len(dec.lookups) == dec.levels.size
        for level, table in zip(dec.levels, dec.lookups, strict=True):
            expect = _AsymLookup(bundle, ladder_tables(bundle), bundle.channels, level).table
            assert table.shape == expect.shape
            assert table.tobytes() == expect.tobytes(), level

    @pytest.mark.parametrize("mode", SYM_MODES)
    def test_builds_only_the_levels_its_pairs_reach(self, designed_bundle, monkeypatch, mode):
        # One moment quadrature, at the levels that some pair rounds to: the
        # decoder tables need none at rho 0, the soft cross tables do.
        calls = []
        stack = codec.si_moment_stack

        def counted(quantizer, si_quantizer, rhos):
            calls.append([float(r) for r in rhos])
            return stack(quantizer, si_quantizer, rhos)

        for module in (codec, decode_sym):
            monkeypatch.setattr(module, "si_moment_stack", counted)
        scen = generate_scenario(5, designed_bundle.channels, seed=0)
        dec = _SymDecoder(designed_bundle, mode, scen.pairwise_rho)
        off = ~np.eye(5, dtype=bool)
        assert dec.levels.tolist() == sorted(set(quantize_rho(scen.pairwise_rho[off]).tolist()))
        assert 0 < dec.levels.size < RHO_LADDER.size
        rhos = RHO_LADDER[dec.levels].tolist()
        assert calls == [rhos if mode == "soft" else [r for r in rhos if r != 0.0]]


class TestSymExperiment:
    N_NODES, TRIALS = 4, 25

    def field_block(self, bundle):
        """(scenario, words, loss flags, pattern ids) of one block of a 4-node field."""
        scen = generate_scenario(self.N_NODES, bundle.channels, seed=6)
        x, _ = sample_correlated_sources(scen, self.TRIALS, 21)
        q = bundle.quantizer
        cells = np.searchsorted(q.thresholds, x.ravel(), side="left").reshape(x.shape)
        tids = bundle.ia.hard_map()[cells]
        space = tuple_space(bundle.channels)
        streams = _channel_streams(bundle.channels, 4, 21)
        [(words, rec)] = _transmit_bsc(tids.ravel(), [bundle.channels], space, streams)
        shape = (self.TRIALS, self.N_NODES, 2)
        return scen, words.reshape(shape), rec.reshape(shape), pattern_ids(rec).reshape(shape[:2])

    def assert_equals_per_symbol(self, bundle, monkeypatch, scen, words, rec, pids, s_map):
        # Drive the per-symbol oracle, trial by trial with that trial's SI
        # sources, with the same transmissions the vectorized decoder sees
        # and compare exactly (fixed iterations).
        n_nodes = self.N_NODES
        level_matrix = np.zeros((n_nodes, n_nodes), dtype=int)
        for u in range(n_nodes):
            for t in range(n_nodes):
                if t != u:
                    level_matrix[u, t] = quantize_rho(min(scen.pairwise_rho[u, t], 1 - 1e-12))
        cross_tables = ladder_cross_tables(bundle, range(RHO_LADDER.size))
        outcomes = [
            [
                ChannelOutcome(
                    tuple(int(words[tr, u, m]) if rec[tr, u, m] else None for m in range(2)),
                    rec[tr, u],
                )
                for u in range(n_nodes)
            ]
            for tr in range(self.TRIALS)
        ]

        for mode, max_iters in product(("estimated", "soft"), (1, 4)):
            per_symbol = np.array([
                run_decoder(
                    ocs, bundle, s_map[tr], level_matrix, mode=mode,
                    max_iters=max_iters, tol=0.0, cross_tables=cross_tables,
                )[0]
                for tr, ocs in enumerate(outcomes)
            ])
            monkeypatch.setattr(decode_sym, "SYM_MAX_ITERS", max_iters)
            monkeypatch.setattr(decode_sym, "SYM_TOL", 0.0)
            vec = _SymDecoder(bundle, mode, scen.pairwise_rho).decode(words, pids, s_map)
            assert np.max(np.abs(vec.T - per_symbol)) < 1e-12, (mode, max_iters)

    def test_vectorized_equals_per_symbol(self, tiny_bundle, monkeypatch):
        scen, words, rec, pids = self.field_block(tiny_bundle)
        s_map = np.broadcast_to(select_min_distance(scen.positions), pids.shape)
        self.assert_equals_per_symbol(tiny_bundle, monkeypatch, scen, words, rec, pids, s_map)

    def test_per_trial_picks_equal_per_symbol(self, tiny_bundle, monkeypatch):
        # min_distortion picks each trial's SI sources from its loss patterns.
        scen, words, rec, pids = self.field_block(tiny_bundle)
        cfg = SymConfig(scenario=scen, bundle=tiny_bundle, si_method="min_distortion")
        s_map = _select_maps(cfg, pids, _selection_scores(cfg))
        assert all(len(set(s_map[:, u])) > 1 for u in range(self.N_NODES))
        self.assert_equals_per_symbol(tiny_bundle, monkeypatch, scen, words, rec, pids, s_map)

    def test_uncorrelated_pair_equals_independent_asym(self, q4):
        # Two far-apart nodes (rho ~ 0): symmetric decode == no-SI decode.
        si = lloyd_design(8)
        ch = bsc_channels(0.01, 0.05)
        bundle = make_bundle(q4, si, np.eye(4), ch)
        pos = np.array([[0.0, 0.0], [1e9, 0.0]])
        # exp(-d/alpha) underflows to 0 at this distance.
        scen = generate_scenario(2, ch, alpha=2.0, seed=0, positions=pos)
        assert scen.pairwise_rho[0, 1] == 0.0
        res = run_sym_experiment(
            SymConfig(scenario=scen, bundle=bundle, mode="soft",
                      si_method="distance", trials=30_000, seed=3)
        )
        asym = run_asym_experiment(
            asym_config(bundle, no_si=True, rho_real=0.0, trials=30_000, seed=4),
            [bundle.channels],
        )[0]
        assert abs(res.d_av - asym.d_av) < 3 * (res.stderr + asym.stderr)

    def test_level_matrix_equals_pair_loop(self, tiny_bundle):
        # level_matrix holds each pair's position among the decoder's levels.
        scen = generate_scenario(6, tiny_bundle.channels, seed=3)
        dec = _SymDecoder(tiny_bundle, "soft", scen.pairwise_rho)
        for u in range(6):
            for t in range(6):
                got = dec.level_matrix[u, t]
                expect = 0 if t == u else quantize_rho(scen.pairwise_rho[u, t])
                assert (got if t == u else dec.levels[got]) == expect, (u, t)

    def test_reproducible(self, tiny_bundle):
        scen = generate_scenario(5, tiny_bundle.channels, seed=2)
        cfg = dict(scenario=scen, bundle=tiny_bundle, mode="soft",
                   si_method="min_distortion", trials=2_000, seed=10)
        a = run_sym_experiment(SymConfig(**cfg))
        b = run_sym_experiment(SymConfig(**cfg))
        assert a.d_av == b.d_av


# d_av and stderr of a 6-node field of the tiny codec (scenario seed 3, run
# seed 5, 2,000 trials), whose channel uses come from one stream family per
# description, one use per (trial, node) in row-major order.
SEEDED_FIELD = {
    ("estimated", "distance"): (0.8511603923934367, 0.028550337971825674),
    ("estimated", "mutual_info"): (0.841478854803229, 0.029126267949376915),
    ("estimated", "min_distortion"): (0.8398338274232214, 0.03005300133051278),
    ("soft", "distance"): (0.8276879287801143, 0.027310055272173357),
    ("soft", "mutual_info"): (0.8213670767894959, 0.02723251483652608),
    ("soft", "min_distortion"): (0.8248808828058175, 0.027698624505822285),
}


# d_av and stderr of an estimated-SI 40-node field of the K=16 codec (scenario
# seed 1, run seed 1, 4,000 trials in three blocks).  The node-by-node
# sweeps of ``oracles.estimated_sweeps`` give the same values.
SEEDED_FIELD_40 = {
    "distance": (0.08232678454377432, 0.0024916462983350625),
    "mutual_info": (0.0512531083618847, 0.0016364418866717419),
    "min_distortion": (0.04922485485886594, 0.0015411636208334247),
}


# The same field decoded with soft SI (d_av, stderr).  The full-width soft
# sweeps of ``oracles.soft_sweeps`` give the same values: this codec maps a
# cell to every tuple, so the used-tuple sweeps round the same way.
SEEDED_SOFT_FIELD_40 = {
    "distance": (0.03634890744430845, 0.0012166786818466442),
    "mutual_info": (0.033898916027654, 0.0011146916084759306),
    "min_distortion": (0.0320741921647715, 0.0010299100967941489),
}


# The same three tables as drawn from one channel stream family per node,
# (seed, 4, node, 2m) and (seed, 4, node, 2m + 1), before every node's
# channel uses came from one family per description.
PER_NODE_STREAM_FIELDS = {
    "SEEDED_FIELD": {
        ("estimated", "distance"): (0.868534202865587, 0.02983325939890639),
        ("estimated", "mutual_info"): (0.8551796725843713, 0.02981584856743268),
        ("estimated", "min_distortion"): (0.8436554189822582, 0.03019219197097455),
        ("soft", "distance"): (0.8400495701481807, 0.02761519379935091),
        ("soft", "mutual_info"): (0.8350710598479509, 0.02765044238645017),
        ("soft", "min_distortion"): (0.8282684012706386, 0.02773828065625892),
    },
    "SEEDED_FIELD_40": {
        "distance": (0.08464561969418873, 0.0024866813611298735),
        "mutual_info": (0.05336217247664977, 0.0016018033812451435),
        "min_distortion": (0.051265412132293874, 0.0015465412658882316),
    },
    "SEEDED_SOFT_FIELD_40": {
        "distance": (0.035250989608591084, 0.00111096190394215),
        "mutual_info": (0.03360024568851782, 0.0010231537408623944),
        "min_distortion": (0.03130853241953199, 0.0009295606110908455),
    },
}


# The two ``mutual_info`` pins above as selected over every other node, before
# each node scored only its ``SI_CANDIDATES`` most correlated candidates.  A
# node that has lost every description scores rounding residues of ~1e-14
# for every candidate, and ``argmax`` breaks those ties among fewer nodes.
ALL_PAIRS_MI_FIELDS = {
    "SEEDED_FIELD_40": {"mutual_info": (0.051479499499511465, 0.0016408130261016105)},
    "SEEDED_SOFT_FIELD_40": {"mutual_info": (0.03412357458983658, 0.001117121033791606)},
}


# The four ``mutual_info`` pins above before the scores where a source or its
# candidate has received nothing were set to exactly 0, and before exact ties
# went to the more correlated candidate: rounding residues of ~1e-16 picked
# the winner among those tied candidates.
RESIDUE_TIE_MI_FIELDS = {
    "SEEDED_FIELD": {
        ("estimated", "mutual_info"): (0.8409759045122421, 0.02909176913932342),
        ("soft", "mutual_info"): (0.8212309534680153, 0.027203283291196964),
    },
    "SEEDED_FIELD_40": {"mutual_info": (0.05137886235556364, 0.001641987736766491)},
    "SEEDED_SOFT_FIELD_40": {"mutual_info": (0.03405116060400219, 0.0011192320677219476)},
}


# The ``mutual_info`` pins above as scored through the P x P pattern-pair
# products, before the scores came from ``codec.pattern_lookups``.  Where a
# source or its candidate has received nothing, every candidate's mutual
# information is exactly 0, and rounding residues of ~1e-16 picked the winner;
# the two scorings leave different residues.  With those entries forced to 0
# both give the same fields bit for bit.
PRODUCT_ROUTE_MI_FIELDS = {
    "SEEDED_FIELD": {
        ("estimated", "mutual_info"): (0.8410944369720567, 0.029081197236066808),
        ("soft", "mutual_info"): (0.8215513033008642, 0.02721808721540672),
    },
    "SEEDED_FIELD_40": {"mutual_info": (0.05141713351214763, 0.0016427265787380507)},
    "SEEDED_SOFT_FIELD_40": {"mutual_info": (0.03406564140716763, 0.0011190349915305693)},
}


class TestSeededField:
    @pytest.mark.parametrize("mode, method", sorted(SEEDED_FIELD))
    def test_pinned_result(self, tiny_bundle, mode, method):
        scen = generate_scenario(6, tiny_bundle.channels, seed=3)
        res = run_sym_experiment(SymConfig(
            scenario=scen, bundle=tiny_bundle, mode=mode, si_method=method,
            trials=2_000, seed=5,
        ))
        assert (res.d_av, res.stderr) == SEEDED_FIELD[mode, method]

    @staticmethod
    def field_40(bundle, mode, method):
        """(d_av, stderr) of a 40-node field of 4,000 trials in three blocks."""
        scen = generate_scenario(40, bundle.channels, seed=1)
        block = simulator.BLOCK_ENTRIES // (40 * tuple_space(bundle.channels).size)
        assert -(-4_000 // block) == 3
        res = run_sym_experiment(SymConfig(
            scenario=scen, bundle=bundle, mode=mode, si_method=method, trials=4_000, seed=1,
        ))
        return res.d_av, res.stderr

    @pytest.mark.parametrize("method", sorted(SEEDED_FIELD_40))
    def test_pinned_40_node_estimated_field(self, k16_bundle, method):
        assert self.field_40(k16_bundle, "estimated", method) == SEEDED_FIELD_40[method]

    @pytest.mark.parametrize("method", sorted(SEEDED_SOFT_FIELD_40))
    def test_pinned_40_node_soft_field(self, k16_bundle, method):
        assert self.field_40(k16_bundle, "soft", method) == SEEDED_SOFT_FIELD_40[method]

    @staticmethod
    def assert_within_5_stderr(old, table):
        new = {"SEEDED_FIELD": SEEDED_FIELD, "SEEDED_FIELD_40": SEEDED_FIELD_40,
               "SEEDED_SOFT_FIELD_40": SEEDED_SOFT_FIELD_40}[table]
        for key, (old_d, old_stderr) in old.items():
            new_d, new_stderr = new[key]
            assert abs(old_d - new_d) < 5 * np.hypot(old_stderr, new_stderr), key
        return new

    @pytest.mark.parametrize("table", sorted(PER_NODE_STREAM_FIELDS))
    def test_pins_lie_within_5_stderr_of_the_per_node_stream_pins(self, table):
        # New channel draws of the same fields: the same distortions up to
        # Monte-Carlo noise.
        old = PER_NODE_STREAM_FIELDS[table]
        assert sorted(old) == sorted(self.assert_within_5_stderr(old, table))

    @pytest.mark.parametrize("table", sorted(PRODUCT_ROUTE_MI_FIELDS))
    def test_mutual_info_pins_lie_within_5_stderr_of_the_product_route_pins(self, table):
        # The same draws, with other picks among exactly tied candidates.
        self.assert_within_5_stderr(PRODUCT_ROUTE_MI_FIELDS[table], table)

    @pytest.mark.parametrize("table", sorted(RESIDUE_TIE_MI_FIELDS))
    def test_mutual_info_pins_lie_within_5_stderr_of_the_residue_tie_pins(self, table):
        # The same draws, with other picks among exactly tied candidates.
        self.assert_within_5_stderr(RESIDUE_TIE_MI_FIELDS[table], table)

    @pytest.mark.parametrize("table", sorted(ALL_PAIRS_MI_FIELDS))
    def test_mutual_info_pins_lie_within_5_stderr_of_the_all_pairs_pins(self, table):
        # The same draws, with other picks among tied candidates.
        self.assert_within_5_stderr(ALL_PAIRS_MI_FIELDS[table], table)


class TestSiCandidates:
    """Each node scores only its ``SI_CANDIDATES`` most correlated other nodes."""

    @staticmethod
    def ranked(rho, k):
        """Each node's k most correlated other nodes, most correlated first, ties to the lower index."""
        n = rho.shape[0]
        return np.array([
            sorted((t for t in range(n) if t != u), key=lambda t: (-rho[u, t], t))[:k]
            for u in range(n)
        ])

    @pytest.mark.parametrize("method", ["mutual_info", "min_distortion"])
    @pytest.mark.parametrize("n_nodes", [2, 3, 6, 9])
    def test_small_fields_score_every_pair(self, tiny_bundle, n_nodes, method):
        # k = min(SI_CANDIDATES, N - 1) = N - 1: the all-pairs selection.
        scen = generate_scenario(n_nodes, tiny_bundle.channels, seed=n_nodes)
        cfg = SymConfig(scenario=scen, bundle=tiny_bundle, si_method=method, trials=2_000)
        candidates, scores = _selection_scores(cfg)
        assert candidates.shape == (n_nodes, n_nodes - 1)
        assert scores.shape == (n_nodes, n_nodes - 1, 4, 4)
        assert np.array_equal(candidates, self.ranked(scen.pairwise_rho, n_nodes - 1))
        pids = np.random.default_rng(n_nodes).integers(0, 4, size=(2_000, n_nodes))
        got = _select_maps(cfg, pids, (candidates, scores))
        assert np.array_equal(got, loop_select(cfg, pids))
        assert not np.any(got == np.arange(n_nodes))

    def test_ties_at_the_kth_place_go_to_the_lower_index(self, tiny_bundle):
        # Node 0 is most correlated with nodes 7-11; the last 3 of its 8
        # places go to nodes 1-3 of the six tied at 0.5.
        n = 12
        rho = np.full((n, n), 0.5)
        rho[0, 7:] = rho[7:, 0] = 0.9
        np.fill_diagonal(rho, 1.0)
        scen = WsnScenario(np.zeros((n, 2)), 2.0, rho, tiny_bundle.channels, 0)
        cfg = SymConfig(scenario=scen, bundle=tiny_bundle, si_method="min_distortion")
        candidates, scores = _selection_scores(cfg)
        assert simulator.SI_CANDIDATES == 8
        assert candidates.shape == (n, 8) and scores.shape == (n, 8, 4, 4)
        assert list(candidates[0]) == [7, 8, 9, 10, 11, 1, 2, 3]
        assert list(candidates[1]) == [0, 2, 3, 4, 5, 6, 7, 8]
        assert np.array_equal(candidates, self.ranked(rho, 8))
        assert not np.any(candidates == np.arange(n)[:, None])

    @pytest.fixture(scope="class")
    def field_40(self, k16_bundle):
        return generate_scenario(40, k16_bundle.channels, seed=1)

    @pytest.mark.parametrize("method", ["mutual_info", "min_distortion"])
    def test_picks_among_candidates_equal_all_pairs_picks(self, k16_bundle, field_40, method):
        # Uniform pattern ids lose both descriptions of a quarter of the
        # nodes, so some all-pairs picks lie past the 8th candidate.
        cfg = SymConfig(scenario=field_40, bundle=k16_bundle, si_method=method)
        candidates, scores = _selection_scores(cfg)
        assert not np.any(candidates == np.arange(40)[:, None])
        pids = np.random.default_rng(7).integers(0, 4, size=(2_000, 40))
        got = _select_maps(cfg, pids, (candidates, scores))
        want = loop_select(cfg, pids)
        among = np.any(want[:, :, None] == candidates[None], axis=2)
        assert np.any(~among)
        assert np.array_equal(got[among], want[among])

    def test_min_distortion_picks_equal_all_pairs_picks(self, k16_bundle, field_40):
        # Under the codec's own loss probability (0.05 per description)
        # every all-pairs min_distortion pick is among the 8 candidates.
        cfg = SymConfig(scenario=field_40, bundle=k16_bundle, si_method="min_distortion")
        loss = k16_bundle.channels[0].loss_prob
        received = np.random.default_rng(7).random((2_000, 40, 2)) >= loss
        pids = pattern_ids(received)
        assert np.array_equal(_select_maps(cfg, pids, _selection_scores(cfg)),
                              loop_select(cfg, pids))


def sym_run(cfg, monkeypatch):
    """(result, (nodes, trials) estimates, per-trial errors) of one ``run_sym_experiment``.

    The blocks run in this process, where the spies can see them.
    """
    xhats, errs = [], []
    decode, block_errors = _SymDecoder.decode, simulator._block_errors

    def recorded_decode(self, words, pids, s_map):
        xhats.append(decode(self, words, pids, s_map))
        return xhats[-1]

    def recorded_errors(*args):
        errs.append(block_errors(*args))
        return errs[-1]

    with monkeypatch.context() as m:
        m.setattr(forking, "worker_count", lambda items: 1)
        m.setattr(_SymDecoder, "decode", recorded_decode)
        m.setattr(simulator, "_block_errors", recorded_errors)
        res = run_sym_experiment(cfg)
    return res, np.concatenate(xhats, axis=1), np.concatenate(errs)


class TestSymBlocks:
    """Blocked joint decoding equals a one-block run bit for bit at ``tol`` 0."""

    TRIALS = 150

    @pytest.mark.parametrize("max_iters", [1, 4])
    @pytest.mark.parametrize("mode", SYM_MODES)
    @pytest.mark.parametrize("method", SI_METHODS)
    def test_blocked_equals_one_block(self, tiny_bundle, monkeypatch, mode, method, max_iters):
        scen = generate_scenario(6, tiny_bundle.channels, seed=3)
        cfg = SymConfig(
            scenario=scen, bundle=tiny_bundle, mode=mode, si_method=method,
            trials=self.TRIALS, seed=5,
        )
        monkeypatch.setattr(decode_sym, "SYM_MAX_ITERS", max_iters)
        monkeypatch.setattr(decode_sym, "SYM_TOL", 0.0)
        per_trial = 6 * tuple_space(tiny_bundle.channels).size  # posterior entries
        monkeypatch.setattr(simulator, "BLOCK_ENTRIES", self.TRIALS * per_trial)
        whole, whole_xhat, whole_err = sym_run(cfg, monkeypatch)
        assert whole_err.shape == (self.TRIALS,)
        for trials_per_block in (1, 7, 64):
            monkeypatch.setattr(simulator, "BLOCK_ENTRIES", trials_per_block * per_trial)
            res, xhat, err = sym_run(cfg, monkeypatch)
            assert np.array_equal(xhat, whole_xhat), trials_per_block
            assert np.array_equal(err, whole_err), trials_per_block
            assert (res.d_av, res.stderr) == (whole.d_av, whole.stderr)

    def test_one_trial_blocks_of_a_wider_field(self, tiny_bundle, monkeypatch):
        # BLOCK_ENTRIES 1 rounds up to one trial per block.  Nine nodes: numpy
        # sums eight or more contiguous values pairwise, and the node errors
        # of a one-trial block are contiguous.
        scen = generate_scenario(9, tiny_bundle.channels, seed=3)
        cfg = SymConfig(scenario=scen, bundle=tiny_bundle, trials=40, seed=5)
        monkeypatch.setattr(decode_sym, "SYM_TOL", 0.0)
        _, whole_xhat, whole_err = sym_run(cfg, monkeypatch)
        monkeypatch.setattr(simulator, "BLOCK_ENTRIES", 1)
        _, xhat, err = sym_run(cfg, monkeypatch)
        assert np.array_equal(xhat, whole_xhat)
        assert np.array_equal(err, whole_err)


@pytest.mark.usefixtures("one_worker")
class TestSymMemory:
    """The peak grows by at most 0.25 float64 per trial and node from T to 2T trials.

    The blocks run in this process, where tracemalloc sees them, and the
    growth counts the shared per-trial errors (:func:`peak_with_shared_arrays`).
    """

    NODES, TRIALS = 40, 2_000

    @pytest.mark.parametrize("mode, method", [("soft", "min_distortion"), ("estimated", "distance")])
    def test_growth_per_trial_and_node(self, k16_bundle, monkeypatch, mode, method):
        scen = generate_scenario(self.NODES, k16_bundle.channels, seed=1)
        # Both sizes span more than one block, so the block buffers are full in each.
        block = simulator.BLOCK_ENTRIES // (self.NODES * tuple_space(k16_bundle.channels).size)
        assert self.TRIALS > block

        def run(trials):
            run_sym_experiment(SymConfig(
                scenario=scen, bundle=k16_bundle, mode=mode, si_method=method,
                trials=trials, seed=1,
            ))

        small, large = (
            peak_with_shared_arrays(lambda: run(n), monkeypatch)
            for n in (self.TRIALS, 2 * self.TRIALS)
        )
        assert (large - small) / (self.TRIALS * self.NODES * 8) <= 0.25

    def test_soft_decode_holds_two_posterior_buffers(self, k16_bundle, monkeypatch):
        # A soft block keeps its likelihood rows and two posterior buffers of
        # nodes x block x L float64 each; per-node temporaries add a few 1/nodes.
        scen = generate_scenario(self.NODES, k16_bundle.channels, seed=1)
        L = tuple_space(k16_bundle.channels).size
        block = simulator.BLOCK_ENTRIES // (self.NODES * L)
        calls = []
        decode = _SymDecoder.decode

        def recorded(dec, *args):
            calls.append((dec, args))
            return decode(dec, *args)

        monkeypatch.setattr(_SymDecoder, "decode", recorded)
        monkeypatch.setattr(decode_sym, "SYM_TOL", 0.0)  # every sweep runs
        run_sym_experiment(SymConfig(
            scenario=scen, bundle=k16_bundle, mode="soft", si_method="distance",
            trials=block, seed=1,
        ))
        [(dec, args)] = calls
        buffers = traced_peak(lambda: decode(dec, *args)) / (self.NODES * block * L * 8)
        assert buffers <= 3.5
