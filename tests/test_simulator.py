import tracemalloc
from itertools import product

import numpy as np
import pytest

from mdquant import (
    DescriptionChannel,
    JointGaussianPair,
    design_annealed,
    lloyd_design,
    quantize_rho,
)
from mdquant import simulator
from mdquant.channel import derive_rng, loss_patterns, pattern_ids, tuple_space
from mdquant.si_select import select_min_distance
from mdquant.simulator import (
    SI_METHODS,
    SYM_MODES,
    AsymConfig,
    ExperimentResult,
    SymConfig,
    conditional_entropy_rates,
    generate_scenario,
    run_asym_experiment,
    run_sym_experiment,
    sample_correlated_sources,
    _AsymLookup,
    _SymDecoder,
    _channel_streams,
    _run_asym_awgn,
    _select_maps,
    _selection_score_tables,
    _selection_scores,
    _transmit_bsc,
    _trial_groups,
)

from conftest import make_bundle
from oracles import ChannelOutcome, asym_awgn_errors, decode, ladder_cross_tables, run_decoder


def bsc_channels(p, mu, n=2):
    return (
        DescriptionChannel.bsc(p, mu, n),
        DescriptionChannel.bsc(p, mu, n),
    )


@pytest.fixture(scope="module")
def designed_bundle(source):
    q = lloyd_design(source, 8)
    si = lloyd_design(source, 16)
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

    def test_single_tuple_zero_bits(self, source, q2):
        table = np.zeros((2, 4))
        table[:, 1] = 1.0
        bundle = make_bundle(q2, lloyd_design(source, 8), table, bsc_channels(0.0, 0.05))
        rates = conditional_entropy_rates(bundle, JointGaussianPair(1, 1, 0.8))
        assert max(rates) < 1e-12

    def test_si_reduces_rate(self, designed_bundle):
        r0 = conditional_entropy_rates(designed_bundle, JointGaussianPair(1, 1, 0.0))
        r8 = conditional_entropy_rates(designed_bundle, JointGaussianPair(1, 1, 0.8))
        assert all(b <= a + 1e-12 for a, b in zip(r0, r8))


class TestAsymLookup:
    def test_equals_per_symbol_decode_exhaustively(self, tiny_bundle):
        # Every loss pattern, received word, SI level and rho level (None:
        # no SI) of the tiny codec: the batched lookup is the MMSE decoder.
        channels = tiny_bundle.channels
        levels = [None] + list(range(tiny_bundle.ladder.count))
        cases = 0
        worst = 0.0
        for level in levels:
            lookup = _AsymLookup(tiny_bundle, channels, level)
            si_levels = [None] if level is None else range(tiny_bundle.tables.si_probs.size)
            for p, q in enumerate(loss_patterns(len(channels))):
                alphabets = [
                    range(ch.received_alphabet) if got else [None]
                    for ch, got in zip(channels, q)
                ]
                for key, words in enumerate(product(*alphabets)):
                    outcome = ChannelOutcome(tuple(words), q)
                    for y in si_levels:
                        got = lookup.xhat[p][key, 0 if y is None else y]
                        expect = decode(outcome, y, level, tiny_bundle)
                        worst = max(worst, abs(got - expect))
                        cases += 1
        assert cases == 585
        assert worst < 1e-12


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
            AsymConfig(
                bundle=designed_bundle, rho_real=0.8, trials=100_000, seed=7, use_si=False
            ),
            [designed_bundle.channels],
        )[0]
        assert with_si.d_av < without.d_av

    def test_awgn_smoke(self, designed_bundle):
        awgn = tuple(
            DescriptionChannel.awgn(0.5, ch.loss_prob, ch.index_count)
            for ch in designed_bundle.channels
        )
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
    if cfg.use_si:
        si_levels = np.searchsorted(b.si_quantizer.thresholds, y, side="left")
    else:
        si_levels = np.zeros(cfg.trials, dtype=int)
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
            AsymConfig(bundle=designed_bundle, rho_real=0.8, trials=n, seed=19, use_si=use_si)
            for n in BLOCK_TRIALS
        ]
        whole = [run_asym_experiment(cfg, sets) for cfg in cfgs]
        set_asym_block(monkeypatch, designed_bundle, BLOCK)
        for cfg, rows in zip(cfgs, whole):
            blocked = run_asym_experiment(cfg, sets)
            assert [summary(r) for r in blocked] == [summary(r) for r in rows]

    def test_bsc_transmits_once_per_block(self, designed_bundle, monkeypatch):
        # Every BSC set of a block goes through the one transmission helper,
        # which draws the block's uniforms once for all of them.
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
        cfg = AsymConfig(
            bundle=designed_bundle, rho_real=0.8, trials=trials, seed=17,
            use_si=use_si,
        )
        x, z, tuple_ids, si_levels = asym_sources(cfg)
        level = designed_bundle.rho_level(0.8) if use_si else None
        [(err, _, _)] = _run_asym_awgn(cfg, [awgn], x, z, level)
        expect = asym_awgn_errors(designed_bundle, awgn, x, tuple_ids, si_levels, level, 17)
        assert np.array_equal(err, expect)
        res = run_asym_experiment(cfg, [awgn])[0]
        assert res.d_av == float(expect.mean())
        assert res.stderr == float(expect.std(ddof=1) / np.sqrt(trials))


def traced_peak(fn) -> int:
    """tracemalloc peak, in bytes, of one call of ``fn`` in this process."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def k16_bundle(source):
    """K=16 codec over two 4-index BSC descriptions, one cell per tuple."""
    q = lloyd_design(source, 16)
    si = lloyd_design(source, 64)
    return make_bundle(q, si, np.eye(16), bsc_channels(0.005, 0.05, n=4))


class TestAsymMemory:
    """The traced peak grows by at most 24 float64 per trial from 200k to 400k trials."""

    def growth_per_trial(self, run) -> float:
        small, large = (traced_peak(lambda: run(n)) for n in (200_000, 400_000))
        return (large - small) / (200_000 * 8)

    def test_awgn_row(self, k16_bundle):
        awgn = tuple(DescriptionChannel.awgn(0.5, 0.05, 4) for _ in range(2))

        def run(trials):
            run_asym_experiment(AsymConfig(
                bundle=k16_bundle, rho_real=0.8, trials=trials, seed=1,
            ), [awgn])

        assert self.growth_per_trial(run) <= 24

    def test_three_row_bsc_sweep(self, k16_bundle):
        sets = [bsc_channels(p, 0.05, n=4) for p in (0.01, 0.001, 0.0)]

        def run(trials):
            cfg = AsymConfig(bundle=k16_bundle, rho_real=0.8, trials=trials, seed=1)
            run_asym_experiment(cfg, sets)

        assert self.growth_per_trial(run) <= 24


class TestSymConfig:
    def test_rejects_unknown_mode_at_construction(self, tiny_bundle):
        scen = generate_scenario(3, tiny_bundle.channels, seed=0)
        with pytest.raises(ValueError, match="mode must be 'estimated' or 'soft'"):
            SymConfig(scenario=scen, bundle=tiny_bundle, mode="sfot")

    def test_rejects_unknown_si_method_at_construction(self, tiny_bundle):
        scen = generate_scenario(3, tiny_bundle.channels, seed=0)
        with pytest.raises(ValueError, match="unknown SI selection method"):
            SymConfig(scenario=scen, bundle=tiny_bundle, si_method="max_mi")


class TestSymDecoderTables:
    """The joint decoder builds every ladder level's tables when it is created.

    Each equals a build of that level on its own, byte for byte.
    """

    def decoder(self, bundle, mode):
        scen = generate_scenario(3, bundle.channels, seed=0)
        return _SymDecoder(SymConfig(scenario=scen, bundle=bundle, mode=mode))

    @pytest.mark.parametrize("name", ["tiny_bundle", "designed_bundle"])
    def test_soft_mixes_equal_per_level_cross_tables(self, request, name):
        bundle = request.getfixturevalue(name)
        dec = self.decoder(bundle, "soft")
        assert not hasattr(dec, "lookups")
        assert dec.prior_mix.shape[0] == dec.final_mix.shape[0] == bundle.ladder.count
        for level, cross in ladder_cross_tables(bundle, range(bundle.ladder.count)).items():
            expect_prior = cross.mix_prob.T
            expect_final = np.vstack([cross.mix_prob, cross.mix_first]).T
            for got, expect in ((dec.prior_mix[level], expect_prior),
                                (dec.final_mix[level], expect_final)):
                assert got.shape == expect.shape
                assert got.tobytes() == expect.tobytes(), level
                # The same memory order as the per-level matrix, so every
                # product with it rounds the same way.
                assert got.flags.f_contiguous and expect.flags.f_contiguous

    @pytest.mark.parametrize("name", ["tiny_bundle", "designed_bundle"])
    def test_estimated_lookups_equal_per_level_lookups(self, request, name):
        bundle = request.getfixturevalue(name)
        dec = self.decoder(bundle, "estimated")
        assert not hasattr(dec, "prior_mix")
        assert len(dec.lookups) == bundle.ladder.count
        for level, table in enumerate(dec.lookups):
            expect = _AsymLookup(bundle, bundle.channels, level).table
            assert table.shape == expect.shape
            assert table.tobytes() == expect.tobytes(), level


class TestSymExperiment:
    def test_vectorized_equals_per_symbol(self, tiny_bundle, monkeypatch):
        # Drive the per-symbol oracle with the same transmissions the
        # vectorized decoder sees and compare exactly (fixed iterations).
        n_nodes, trials = 4, 25
        scen = generate_scenario(n_nodes, tiny_bundle.channels, seed=6)
        x, _ = sample_correlated_sources(scen, trials, 21)
        q = tiny_bundle.quantizer
        cells = np.searchsorted(q.thresholds, x.ravel(), side="left").reshape(x.shape)
        tids = tiny_bundle.ia.hard_map()[cells]
        space = tuple_space(tiny_bundle.channels)
        words = np.empty((trials, n_nodes, 2), dtype=int)
        rec = np.empty((trials, n_nodes, 2), dtype=bool)
        for u in range(n_nodes):
            [(words[:, u], rec[:, u])] = _transmit_bsc(
                tids[:, u], [tiny_bundle.channels], space, _channel_streams(2, (4, u), 21)
            )
        level_matrix = np.zeros((n_nodes, n_nodes), dtype=int)
        for u in range(n_nodes):
            for t in range(n_nodes):
                if t != u:
                    level_matrix[u, t] = quantize_rho(
                        min(scen.pairwise_rho[u, t], 1 - 1e-12), tiny_bundle.ladder
                    )
        si_map = select_min_distance(scen.positions)
        cross_tables = ladder_cross_tables(tiny_bundle, range(tiny_bundle.ladder.count))
        pids = pattern_ids(rec)
        smap = np.broadcast_to(si_map, (trials, n_nodes))
        groups = [
            _trial_groups(level_matrix[u, smap[:, u]], smap[:, u]) for u in range(n_nodes)
        ]
        outcomes = [
            [
                ChannelOutcome(
                    tuple(int(words[tr, u, m]) if rec[tr, u, m] else None for m in range(2)),
                    rec[tr, u],
                )
                for u in range(n_nodes)
            ]
            for tr in range(trials)
        ]

        for mode, max_iters in product(("estimated", "soft"), (1, 4)):
            per_symbol = np.array([
                run_decoder(
                    ocs, tiny_bundle, si_map, level_matrix, mode=mode,
                    max_iters=max_iters, tol=0.0, cross_tables=cross_tables,
                )[0]
                for ocs in outcomes
            ])
            cfg = SymConfig(
                scenario=scen, bundle=tiny_bundle, mode=mode, si_method="distance",
                trials=trials, seed=21,
            )
            monkeypatch.setattr(simulator, "SYM_MAX_ITERS", max_iters)
            monkeypatch.setattr(simulator, "SYM_TOL", 0.0)
            vec = _SymDecoder(cfg).decode(words, pids, groups)
            assert np.max(np.abs(vec.T - per_symbol)) < 1e-12, (mode, max_iters)

    def test_uncorrelated_pair_equals_independent_asym(self, source, q4):
        # Two far-apart nodes (rho ~ 0): symmetric decode == no-SI decode.
        si = lloyd_design(source, 8)
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
            AsymConfig(bundle=bundle, rho_real=0.0, use_si=False,
                       trials=30_000, seed=4),
            [bundle.channels],
        )[0]
        assert abs(res.d_av - asym.d_av) < 3 * (res.stderr + asym.stderr)

    def test_level_matrix_equals_pair_loop(self, tiny_bundle, monkeypatch):
        scen = generate_scenario(6, tiny_bundle.channels, seed=3)
        level_matrices = []
        block_errors = simulator._block_errors

        def recorded(dec, xb, streams, scores, level_matrix):
            level_matrices.append(level_matrix)
            return block_errors(dec, xb, streams, scores, level_matrix)

        monkeypatch.setattr(simulator, "_block_errors", recorded)
        run_sym_experiment(SymConfig(scenario=scen, bundle=tiny_bundle, trials=20, seed=5))
        expect = np.zeros((6, 6), dtype=int)
        for u in range(6):
            for t in range(6):
                if t != u:
                    expect[u, t] = quantize_rho(scen.pairwise_rho[u, t], tiny_bundle.ladder)
        assert np.array_equal(level_matrices[0], expect)

    def test_reproducible(self, tiny_bundle):
        scen = generate_scenario(5, tiny_bundle.channels, seed=2)
        cfg = dict(scenario=scen, bundle=tiny_bundle, mode="soft",
                   si_method="min_distortion", trials=2_000, seed=10)
        a = run_sym_experiment(SymConfig(**cfg))
        b = run_sym_experiment(SymConfig(**cfg))
        assert a.d_av == b.d_av


# d_av and stderr of a 6-node field of the tiny codec (scenario seed 3, run
# seed 5, 2,000 trials), recorded with the per-pair selection scores and the
# per-sweep soft-SI setup that the batched selector and the grouped sweeps
# replaced; both must reproduce them exactly.
SEEDED_FIELD = {
    ("estimated", "distance"): (0.868534202865587, 0.02983325939890639),
    ("estimated", "mutual_info"): (0.8551796725843713, 0.02981584856743268),
    ("estimated", "min_distortion"): (0.8436554189822582, 0.03019219197097455),
    ("soft", "distance"): (0.8400495701481807, 0.02761519379935091),
    ("soft", "mutual_info"): (0.8350710598479509, 0.02765044238645017),
    ("soft", "min_distortion"): (0.8282684012706386, 0.02773828065625892),
}


def loop_select(cfg, pids):
    """Per-candidate selection loop: the reference for the one-gather ``_select_maps``."""
    n = cfg.scenario.n_nodes
    rho = cfg.scenario.pairwise_rho
    keys = sorted({round(float(rho[u, t]), 12) for u in range(n) for t in range(n) if t != u})
    tables = _selection_score_tables(cfg.bundle, keys, cfg.si_method)
    mi = cfg.si_method == "mutual_info"
    smap = np.empty(pids.shape, dtype=int)
    for u in range(n):
        scores = np.empty(pids.shape)
        for t in range(n):
            if t == u:
                scores[:, t] = -np.inf if mi else np.inf
                continue
            tab = tables[keys.index(round(float(rho[u, t]), 12))]
            scores[:, t] = tab[pids[:, u], pids[:, t]]
        smap[:, u] = (np.argmax if mi else np.argmin)(scores, axis=1)
    return smap


class TestSeededField:
    @pytest.mark.parametrize("mode, method", sorted(SEEDED_FIELD))
    def test_pinned_result(self, tiny_bundle, mode, method):
        scen = generate_scenario(6, tiny_bundle.channels, seed=3)
        res = run_sym_experiment(SymConfig(
            scenario=scen, bundle=tiny_bundle, mode=mode, si_method=method,
            trials=2_000, seed=5,
        ))
        assert (res.d_av, res.stderr) == SEEDED_FIELD[mode, method]

    @pytest.mark.parametrize("method", ["mutual_info", "min_distortion"])
    def test_select_maps_equal_candidate_loop(self, tiny_bundle, method):
        scen = generate_scenario(6, tiny_bundle.channels, seed=3)
        cfg = SymConfig(scenario=scen, bundle=tiny_bundle, si_method=method, trials=2_000)
        rng = np.random.default_rng(4)
        pids = rng.integers(0, 4, size=(2_000, 6))
        got = _select_maps(cfg, pids, _selection_scores(cfg))
        assert np.array_equal(got, loop_select(cfg, pids))
        assert not np.any(got == np.arange(6))


def sym_run(cfg, monkeypatch):
    """(result, (nodes, trials) estimates, per-trial errors) of one ``run_sym_experiment``."""
    xhats, errs = [], []
    decode, block_errors = _SymDecoder.decode, simulator._block_errors

    def recorded_decode(self, words, pids, groups):
        xhats.append(decode(self, words, pids, groups))
        return xhats[-1]

    def recorded_errors(*args):
        errs.append(block_errors(*args))
        return errs[-1]

    with monkeypatch.context() as m:
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
        monkeypatch.setattr(simulator, "SYM_MAX_ITERS", max_iters)
        monkeypatch.setattr(simulator, "SYM_TOL", 0.0)
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
        monkeypatch.setattr(simulator, "SYM_TOL", 0.0)
        _, whole_xhat, whole_err = sym_run(cfg, monkeypatch)
        monkeypatch.setattr(simulator, "BLOCK_ENTRIES", 1)
        _, xhat, err = sym_run(cfg, monkeypatch)
        assert np.array_equal(xhat, whole_xhat)
        assert np.array_equal(err, whole_err)


class TestSymMemory:
    """The traced peak grows by at most 4 float64 per trial and node from T to 2T trials."""

    NODES, TRIALS = 40, 2_000

    @pytest.mark.parametrize("mode, method", [("soft", "min_distortion"), ("estimated", "distance")])
    def test_growth_per_trial_and_node(self, k16_bundle, mode, method):
        scen = generate_scenario(self.NODES, k16_bundle.channels, seed=1)
        # Both sizes span more than one block, so the block buffers are full in each.
        block = simulator.BLOCK_ENTRIES // (self.NODES * tuple_space(k16_bundle.channels).size)
        assert self.TRIALS > block

        def run(trials):
            run_sym_experiment(SymConfig(
                scenario=scen, bundle=k16_bundle, mode=mode, si_method=method,
                trials=trials, seed=1,
            ))

        small, large = (traced_peak(lambda: run(n)) for n in (self.TRIALS, 2 * self.TRIALS))
        assert (large - small) / (self.TRIALS * self.NODES * 8) <= 4

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
        monkeypatch.setattr(simulator, "SYM_TOL", 0.0)  # every sweep runs
        run_sym_experiment(SymConfig(
            scenario=scen, bundle=k16_bundle, mode="soft", si_method="distance",
            trials=block, seed=1,
        ))
        [(dec, args)] = calls
        buffers = traced_peak(lambda: decode(dec, *args)) / (self.NODES * block * L * 8)
        assert buffers <= 3.5
