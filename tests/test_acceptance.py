"""Acceptance suite: every criterion prints one PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines as they
complete.  Tolerances are fixed here, not configurable.
"""

import time
from itertools import product

import numpy as np
import pytest

from mdquant import (
    BoundQuery,
    DescriptionChannel,
    JointGaussianPair,
    design_annealed,
    evaluate_distortion,
    lloyd_design,
    min_avg_distortion,
    pairwise_mi,
)
from mdquant.codec import DesignContext
from mdquant.simulator import (
    AsymConfig,
    SymConfig,
    conditional_entropy_rates,
    generate_scenario,
    run_asym_experiment,
    run_sym_experiment,
    to_db,
)

from conftest import asym_config, make_bundle
from oracles import ChannelOutcome, cell_cross_tables, decode, mse_optimality_check, run_decoder


def report(num, name, ok, detail=""):
    line = f"ACCEPTANCE {num:>2}: {'PASS' if ok else 'FAIL'} - {name}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def desk_channels(p, mu=0.05, n=4):
    return (DescriptionChannel.bsc(p, mu, n), DescriptionChannel.bsc(p, mu, n))


@pytest.fixture(scope="module")
def desk_quantizers():
    return lloyd_design(16), lloyd_design(64)


@pytest.fixture(scope="module")
def sym_setup(desk_quantizers):
    """Shared codec + scenarios for the symmetric criteria (8, 9)."""
    q, si = desk_quantizers
    ch = desk_channels(0.005)
    bundle = design_annealed(
        q, si, JointGaussianPair(1, 1, 0.4), ch,
        restarts=2, seed=7,
    )
    scen10 = generate_scenario(10, ch, alpha=2.0, seed=42)
    scen40 = generate_scenario(40, ch, alpha=2.0, seed=42)
    return bundle, scen10, scen40


def test_criterion_1_rd_bound_reproduction():
    start = time.perf_counter()
    loss_rows = [
        (0.3, 2.265, 2.269, -13.758),
        (0.2, 2.28, 2.259, -16.365),
        (0.1, 2.276, 2.271, -19.896),
        (0.05, 2.321, 2.319, -22.608),
        (0.02, 2.389, 2.498, -25.751),
        (0.01, 2.459, 2.53, -27.622),
        (0.005, 2.635, 2.546, -29.676),
    ]
    rho_rows = [
        (0.0, 2.80, 2.81, -20.509),
        (0.6, 2.54, 2.53, -21.188),
        (0.8, 2.32, 2.32, -22.608),
        (0.95, 2.20, 2.22, -27.689),
    ]
    worst = 0.0
    for mu, r1, r2, ref in loss_rows:
        got = min_avg_distortion(BoundQuery(r1=r1, r2=r2, rho=0.8, mu1=mu, mu2=mu)).d_min_db
        worst = max(worst, abs(got - ref))
    for rho, r1, r2, ref in rho_rows:
        got = min_avg_distortion(BoundQuery(r1=r1, r2=r2, rho=rho, mu1=0.05, mu2=0.05)).d_min_db
        worst = max(worst, abs(got - ref))
    elapsed = time.perf_counter() - start
    report(
        1, "R-D bound reproduces published tables",
        worst <= 0.05 and elapsed < 60,
        f"max err {worst:.4f} dB, {elapsed:.1f}s",
    )


def test_criterion_2_mmse_decoder_oracle():
    start = time.perf_counter()
    q4 = lloyd_design(4)
    si = lloyd_design(8)
    ch = (DescriptionChannel.bsc(0.1, 0.1, 2), DescriptionChannel.bsc(0.1, 0.1, 2))
    table = np.zeros((4, 4))
    table[0, 0] = table[3, 0] = table[1, 1] = table[2, 2] = 1.0
    bundle = make_bundle(q4, si, table, ch)
    dev = mse_optimality_check(bundle, rho_level=4)
    elapsed = time.perf_counter() - start
    report(
        2, "decoder equals brute-force conditional mean",
        dev < 1e-8 and elapsed < 10,
        f"max dev {dev:.2e}, {elapsed:.1f}s",
    )


def test_criterion_3_annealing_near_exhaustive_optimum():
    start = time.perf_counter()
    q6 = lloyd_design(6)
    si = lloyd_design(32)
    pair = JointGaussianPair(1, 1, 0.8)
    ch = (DescriptionChannel.bsc(0.01, 0.05, 2), DescriptionChannel.bsc(0.01, 0.05, 2))
    ctx = DesignContext(q6, si, pair, ch)
    best = np.inf
    for assign in product(range(4), repeat=6):
        table = np.zeros((6, 4))
        table[np.arange(6), list(assign)] = 1.0
        best = min(best, ctx.distortion(table).d_av)
    hits = 0
    for seed in range(10):
        bundle = design_annealed(
            q6, si, pair, ch, restarts=1, seed=seed
        )
        if bundle.metadata["d_av"] <= 1.05 * best:
            hits += 1
    elapsed = time.perf_counter() - start
    report(
        3, "annealed design within 5% of exhaustive optimum",
        hits >= 9 and elapsed < 300,
        f"{hits}/10 seeds, optimum {best:.6f}, {elapsed:.0f}s",
    )


def test_criterion_4_distortion_decomposition(desk_quantizers):
    start = time.perf_counter()
    q, si = desk_quantizers
    pair = JointGaussianPair(1, 1, 0.8)
    bundle = design_annealed(
        q, si, pair, desk_channels(0.01),
        restarts=2, seed=55,
    )
    oks = []
    details = []
    for p in (0.1, 0.01, 0.0001):
        ch = desk_channels(p)
        split = evaluate_distortion(q, si, bundle.ia, pair, ch)
        res = run_asym_experiment(
            AsymConfig(bundle=bundle, rho_real=0.8, trials=1_000_000, seed=23), [ch]
        )[0]
        gap = abs(res.d_av - split.d_av)
        oks.append(gap < 3 * res.stderr)
        details.append(f"p={p}: |MC-analytic|={gap:.2e} vs 3sig={3*res.stderr:.2e}")
    elapsed = time.perf_counter() - start
    report(
        4, "analytic decomposition matches 1e6-trial Monte-Carlo",
        all(oks) and elapsed < 300,
        "; ".join(details) + f", {elapsed:.0f}s",
    )


def test_criterion_5_encoder_gain_trend(desk_quantizers):
    start = time.perf_counter()
    q, si = desk_quantizers
    ch = desk_channels(0.0)
    blind = design_annealed(q, si, JointGaussianPair(1, 1, 0.0), ch, restarts=3, seed=101)
    gains_enc = []
    gains_both = []
    trials = 300_000
    for rho in (0.4, 0.6, 0.8, 0.9):
        aware = design_annealed(q, si, JointGaussianPair(1, 1, rho), ch, restarts=3, seed=101)
        d_sim = run_asym_experiment(
            AsymConfig(bundle=aware, rho_real=rho, trials=trials, seed=3), [aware.channels]
        )[0].d_av
        d_sim1 = run_asym_experiment(
            AsymConfig(bundle=blind, rho_real=rho, trials=trials, seed=3), [blind.channels]
        )[0].d_av
        d_sim2 = run_asym_experiment(
            asym_config(blind, no_si=True, rho_real=rho, trials=trials, seed=3),
            [blind.channels],
        )[0].d_av
        gains_enc.append(to_db(d_sim1) - to_db(d_sim))
        gains_both.append(to_db(d_sim2) - to_db(d_sim))
    monotone = all(b > a for a, b in zip(gains_enc, gains_enc[1:]))
    ok = monotone and gains_enc[2] >= 0.5 and gains_both[3] > gains_both[0]
    elapsed = time.perf_counter() - start
    report(
        5, "encoder-side SI gain grows with correlation",
        ok,
        f"enc gains {['%.2f' % g for g in gains_enc]} dB, "
        f"both-blind gains {gains_both[0]:.2f}->{gains_both[3]:.2f} dB, {elapsed:.0f}s",
    )


def test_criterion_5_extended_full_scale():
    # Extended check: the full-scale system (256-level quantizer, 8 indices
    # per description, 128-level SI quantizer) approaches the published
    # operating point at rho=0.8, loss 0.05, noiseless channels.
    start = time.perf_counter()
    q = lloyd_design(256)
    si = lloyd_design(128)
    ch = (DescriptionChannel.bsc(0.0, 0.05, 8), DescriptionChannel.bsc(0.0, 0.05, 8))
    bundle = design_annealed(
        q, si, JointGaussianPair(1, 1, 0.8), ch,
        restarts=2, seed=1,
    )
    res = run_asym_experiment(
        AsymConfig(bundle=bundle, rho_real=0.8, trials=400_000, seed=3), [bundle.channels]
    )[0]
    elapsed = time.perf_counter() - start
    rates = conditional_entropy_rates(bundle, JointGaussianPair(1, 1, 0.8))
    report(
        5, "extended: full-scale design reaches published operating point",
        res.d_av_db <= -20.619 + 1.0,
        f"simulated {res.d_av_db:.3f} dB vs reference -20.619 dB, "
        f"rates {tuple(round(r, 2) for r in rates)}, {elapsed:.0f}s",
    )


def test_criterion_6_ber_sweep_monotone(desk_quantizers):
    q, si = desk_quantizers
    pair = JointGaussianPair(1, 1, 0.8)
    bundle = design_annealed(
        q, si, pair, desk_channels(0.01),
        restarts=2, seed=55,
    )
    sweep = (0.1, 0.01, 0.001, 0.0001, 0.0)
    values = []
    sigmas = []
    for p in sweep:
        res = run_asym_experiment(
            AsymConfig(bundle=bundle, rho_real=0.8, trials=300_000, seed=31),
            [desk_channels(p)],
        )[0]
        values.append(res.d_av)
        sigmas.append(res.stderr)
    monotone = all(
        values[i + 1] <= values[i] + 3 * (sigmas[i] + sigmas[i + 1])
        for i in range(len(values) - 1)
    )
    analytic = evaluate_distortion(q, si, bundle.ia, pair, desk_channels(0.0)).d_av
    endpoint = abs(values[-1] - analytic) < 3 * sigmas[-1]
    report(
        6, "distortion nonincreasing as BER improves; noiseless endpoint matches analytic",
        monotone and endpoint,
        f"{['%.3f' % to_db(v) for v in values]} dB, endpoint gap {abs(values[-1]-analytic):.2e}",
    )


def test_criterion_7_mutual_information_oracle():
    q2 = lloyd_design(2)
    ch = (DescriptionChannel.bsc(0.1, 0.2, 2),)
    bundle = make_bundle(q2, lloyd_design(4), np.eye(2), ch)
    pair = JointGaussianPair(1, 1, 0.7)
    got = pairwise_mi(bundle, pair, (True,), (True,))
    p = 0.1
    cell_joint = cell_cross_tables(bundle, pair).cell_cross * bundle.quantizer.cell_probs[None, :]
    pjj = np.zeros((2, 2))
    for l in range(2):
        for k in range(2):
            for ju in range(2):
                for jt in range(2):
                    pjj[ju, jt] += (
                        cell_joint[l, k]
                        * (p if ju != l else 1 - p)
                        * (p if jt != k else 1 - p)
                    )
    ent = lambda v: -sum(x * np.log2(x) for x in np.ravel(v) if x > 0)
    expect = ent(pjj.sum(axis=1)) + ent(pjj.sum(axis=0)) - ent(pjj)
    mi_zero = pairwise_mi(bundle, JointGaussianPair(1, 1, 0.0), (True,), (True,))
    mi_lost = pairwise_mi(bundle, pair, (True,), (False,))
    ok = abs(got - expect) < 1e-12 and abs(mi_zero) < 1e-12 and abs(mi_lost) < 1e-12
    report(
        7, "pairwise MI matches enumeration; zero when uninformative",
        ok,
        f"|err|={abs(got-expect):.1e}, rho0={mi_zero:.1e}, lost={mi_lost:.1e}",
    )


def test_criterion_8_symmetric_decoder_properties(sym_setup):
    start = time.perf_counter()
    bundle, scen10, scen40 = sym_setup

    # (a) iteration-1 outputs of both modes bit-equal the no-SI decoder.
    ocs = [
        ChannelOutcome((1, 0), np.array([True, True])),
        ChannelOutcome((2, None), np.array([True, False])),
        ChannelOutcome((None, None), np.array([False, False])),
    ]
    level_matrix = np.full((3, 3), 4, dtype=int)
    np.fill_diagonal(level_matrix, 0)
    si_map = [1, 0, 0]
    expect = np.array([decode(oc, None, None, bundle) for oc in ocs])
    bit_equal = True
    for mode in ("estimated", "soft"):
        est, _ = run_decoder(ocs, bundle, si_map, level_matrix, mode=mode, max_iters=1)
        bit_equal &= np.array_equal(est, expect)

    # (b) soft-SI no worse than estimated-SI on the 10-node scenario.
    r_est = run_sym_experiment(
        SymConfig(scenario=scen10, bundle=bundle, mode="estimated",
                  si_method="min_distortion", trials=12_000, seed=99)
    )
    r_soft = run_sym_experiment(
        SymConfig(scenario=scen10, bundle=bundle, mode="soft",
                  si_method="min_distortion", trials=12_000, seed=99)
    )
    soft_ok = r_soft.d_av <= r_est.d_av + 3 * (r_soft.stderr + r_est.stderr)

    # (c) denser network reconstructs better (soft mode).
    r40 = run_sym_experiment(
        SymConfig(scenario=scen40, bundle=bundle, mode="soft",
                  si_method="min_distortion", trials=6_000, seed=99)
    )
    dense_ok = r40.d_av < r_soft.d_av + 3 * (r40.stderr + r_soft.stderr) and r40.d_av < r_soft.d_av
    elapsed = time.perf_counter() - start
    report(
        8, "symmetric decoder: no-SI start, soft>=estimated, density gain",
        bit_equal and soft_ok and dense_ok,
        f"soft {r_soft.d_av_db:.2f} vs est {r_est.d_av_db:.2f} dB, "
        f"40n {r40.d_av_db:.2f} vs 10n {r_soft.d_av_db:.2f} dB, {elapsed:.0f}s",
    )


def test_criterion_9_selection_method_ordering(sym_setup):
    start = time.perf_counter()
    bundle, scen10, _ = sym_setup
    res = {}
    for method in ("min_distortion", "mutual_info", "distance"):
        res[method] = run_sym_experiment(
            SymConfig(scenario=scen10, bundle=bundle, mode="soft",
                      si_method=method, trials=12_000, seed=99)
        )
    md, mi, di = res["min_distortion"], res["mutual_info"], res["distance"]
    ok = (
        md.d_av <= mi.d_av + 3 * (md.stderr + mi.stderr)
        and mi.d_av <= di.d_av + 3 * (mi.stderr + di.stderr)
    )
    elapsed = time.perf_counter() - start
    report(
        9, "SI selection ordering min-distortion <= max-MI <= min-distance",
        ok,
        f"{md.d_av_db:.3f} / {mi.d_av_db:.3f} / {di.d_av_db:.3f} dB, {elapsed:.0f}s",
    )


def test_criterion_10_mismatch_asymmetry(desk_quantizers):
    start = time.perf_counter()
    q, si = desk_quantizers
    ch = desk_channels(0.005)
    d = {}
    sig = {}
    for rho_enc in (0.65, 0.8, 0.95):
        bundle = design_annealed(
            q, si, JointGaussianPair(1, 1, rho_enc), ch, restarts=3, seed=77
        )
        res = run_asym_experiment(
            AsymConfig(bundle=bundle, rho_real=0.8, rho_dec=0.8,
                       trials=300_000, seed=19),
            [bundle.channels],
        )[0]
        d[rho_enc] = res.d_av
        sig[rho_enc] = res.stderr
    pen_under = d[0.65] - d[0.8]
    pen_over = d[0.95] - d[0.8]
    sigma = 3 * (sig[0.65] + sig[0.95] + 2 * sig[0.8])
    ok = pen_over > pen_under + sigma
    elapsed = time.perf_counter() - start
    report(
        10, "overestimating correlation hurts more than underestimating",
        ok,
        f"penalty(0.95)={to_db(d[0.95])-to_db(d[0.8]):.2f} dB vs "
        f"penalty(0.65)={to_db(d[0.65])-to_db(d[0.8]):.2f} dB, {elapsed:.0f}s",
    )


def test_criterion_11_si_quantizer_sufficiency(desk_quantizers):
    start = time.perf_counter()
    q, si = desk_quantizers
    ch = desk_channels(0.005)
    ok = True
    details = []
    for rho in (0.4, 0.8, 0.9):
        bundle = design_annealed(
            q, si, JointGaussianPair(1, 1, rho), ch,
            restarts=2, seed=77,
        )
        pair = JointGaussianPair(1, 1, rho)
        d64 = to_db(evaluate_distortion(q, lloyd_design(64), bundle.ia, pair, ch).d_av)
        d1024 = to_db(evaluate_distortion(q, lloyd_design(1024), bundle.ia, pair, ch).d_av)
        gap = d64 - d1024
        ok &= gap <= 0.1
        details.append(f"rho={rho}: {gap:.4f} dB")
    elapsed = time.perf_counter() - start
    report(
        11, "64-level SI quantizer within 0.1 dB of 1024 levels",
        ok,
        "; ".join(details) + f", {elapsed:.0f}s",
    )


def test_criterion_12_reproducibility(tmp_path):
    from mdquant.cli import main
    from mdquant.persist import load_codec, save_codec

    design = ["design", "--K", "8", "--desc", "2,2", "--bsc", "0.01",
              "--loss", "0.05", "--rho-enc", "0.8", "--nsi", "16",
              "--restarts", "1", "--seed", "7"]
    f1, f2 = tmp_path / "c1.json", tmp_path / "c2.json"
    assert main([*design, "-o", str(f1)]) == 0
    assert main([*design, "-o", str(f2)]) == 0
    design_ok = f1.read_bytes() == f2.read_bytes()

    e1, e2 = tmp_path / "e1.csv", tmp_path / "e2.csv"
    ev = ["evaluate", "--codec", str(f1), "--rho-real", "0.8",
          "--trials", "20000", "--seed", "3"]
    assert main([*ev, "-o", str(e1)]) == 0
    assert main([*ev, "-o", str(e2)]) == 0
    eval_ok = e1.read_bytes() == e2.read_bytes()

    s1, s2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
    sc = ["scenario", "--nodes", "5", "--codec", str(f1), "--mode", "soft",
          "--si-method", "min_distortion", "--trials", "2000", "--seed", "11"]
    assert main([*sc, "-o", str(s1)]) == 0
    assert main([*sc, "-o", str(s2)]) == 0
    scen_ok = s1.read_bytes() == s2.read_bytes()

    bundle = load_codec(f1)
    f3 = tmp_path / "c3.json"
    save_codec(bundle, f3)
    round_trip_ok = f3.read_bytes() == f1.read_bytes()

    report(
        12, "seeded runs byte-identical; codec files round-trip exactly",
        design_ok and eval_ok and scen_ok and round_trip_ok,
        f"design={design_ok} evaluate={eval_ok} scenario={scen_ok} roundtrip={round_trip_ok}",
    )
