"""Command-line driver: codec design, bound evaluation, experiments, reports.

Exit codes: 0 success, 2 invalid input or a report whose verdict is FAIL,
3 incompatible codec file version.
Every stochastic command requires --seed and is byte-reproducible at a fixed
seed (wall-clock timing goes to stderr, never into result files).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import reference_values as refs
from .channel import DescriptionChannel
from .codec import AnnealingSchedule, DistortionBreakdown, design_annealed
from .gaussian import CorrelationLadder, JointGaussianPair, quantize_rho
from .persist import CodecFormatError, load_codec, save_codec
from .quantizer import lloyd_design
from .rd_bound import BoundQuery, min_avg_distortion
from .simulator import (
    AsymConfig,
    SymConfig,
    conditional_entropy_rates,
    generate_scenario,
    run_asym_experiment,
    run_sym_experiment,
    to_db,
)
from .gaussian import GaussianSource


def _parse_desc(text: str) -> list[int]:
    try:
        counts = [int(v) for v in text.split(",") if v]
    except ValueError as exc:
        raise ValueError(f"bad description list {text!r}") from exc
    if not counts or any(c < 2 for c in counts):
        raise ValueError("each description needs at least two indices")
    return counts


def _build_channels(args, n_desc: int | None = None):
    counts = _parse_desc(args.desc)
    if n_desc is not None and len(counts) != n_desc:
        raise ValueError("description count mismatch")
    channels = []
    for n in counts:
        if getattr(args, "awgn", None) is not None:
            channels.append(DescriptionChannel.awgn(args.awgn, args.loss, n))
        else:
            channels.append(DescriptionChannel.bsc(args.bsc, args.loss, n))
    return tuple(channels)


def _design_bundle(args):
    if args.K < 1:
        raise ValueError("quantizer size must be positive")
    if args.nsi < 1:
        raise ValueError("SI quantizer size must be positive")
    if not 0.0 <= args.rho_enc < 1.0:
        raise ValueError("design correlation must lie in [0, 1)")
    channels = _build_channels(args)
    if any(ch.kind != "bsc" for ch in channels):
        raise ValueError("design requires BSC channels (analytic distortion)")
    source = GaussianSource(0.0, 1.0)
    quantizer = lloyd_design(source, args.K)
    si_quantizer = lloyd_design(source, args.nsi)
    schedule = AnnealingSchedule(restarts=args.restarts)
    pair = JointGaussianPair(1.0, 1.0, args.rho_enc)
    return design_annealed(
        quantizer, si_quantizer, pair, channels, schedule=schedule, seed=args.seed
    )


def _check_output_path(output) -> None:
    """Reject an output path that cannot be written before any work starts."""
    path = Path(output)
    if path.is_dir():
        raise ValueError(f"output path {output!s} is a directory")
    if not path.parent.is_dir():
        raise ValueError(f"output directory {str(path.parent)!r} does not exist")


def _check_trials(trials: int) -> None:
    if trials < 2:
        raise ValueError("--trials must be at least 2 (the standard error needs two samples)")


def cmd_design(args) -> int:
    bundle = _design_bundle(args)
    if args.output:
        save_codec(bundle, args.output)
    d = DistortionBreakdown(bundle.metadata["d_se"], bundle.metadata["d_ch"])
    rates = conditional_entropy_rates(
        bundle, JointGaussianPair(1.0, 1.0, bundle.design_rho)
    )
    d_ch_db = "-inf" if d.d_ch <= 0 else f"{to_db(d.d_ch):.6f}"
    print(f"d_se_db={to_db(d.d_se):.6f} d_ch_db={d_ch_db} d_av_db={d.d_av_db():.6f}")
    print("rates_bits=" + ",".join(f"{r:.6f}" for r in rates))
    if bundle.metadata.get("warning_non_converged"):
        print("warning=inner loop hit iteration cap", file=sys.stderr)
    if args.output:
        print(f"codec written to {args.output}")
    return 0


def _emit(lines, output):
    text = "\n".join(lines) + "\n"
    if output:
        Path(output).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def cmd_bound(args) -> int:
    points = []
    if args.sweep == "loss":
        points = [(0.8, r["r1"], r["r2"], r["mu"], r["mu"]) for r in refs.BOUND_VS_LOSS]
    elif args.sweep == "correlation":
        points = [
            (r["rho"], r["r1"], r["r2"], 0.05, 0.05) for r in refs.BOUND_VS_CORRELATION
        ]
    else:
        if args.rho is None or args.r1 is None or args.r2 is None or args.mu1 is None:
            raise ValueError("need --rho, --r1, --r2, --mu1 (or a --sweep)")
        mu2 = args.mu1 if args.mu2 is None else args.mu2
        points = [(args.rho, args.r1, args.r2, args.mu1, mu2)]
    # Built before any row, so an invalid query exits 2 instead of being
    # reported as an infeasible row.
    queries = [
        BoundQuery(r1=r1, r2=r2, rho=rho, mu1=mu1, mu2=mu2)
        for rho, r1, r2, mu1, mu2 in points
    ]
    lines = ["rho,r1,r2,mu1,mu2,d_min_db,d1_opt,d2_opt"]
    for q in queries:
        point = f"{q.rho!r},{q.r1!r},{q.r2!r},{q.mu1!r},{q.mu2!r}"
        try:
            res = min_avg_distortion(
                q,
                literal_weighting=args.literal_weighting,
                natural_delta=args.natural_delta,
            )
            lines.append(f"{point},{res.d_min_db:.6f},{res.d1!r},{res.d2!r}")
        except ValueError:
            lines.append(f"{point},infeasible,,")
    _emit(lines, args.output)
    return 0


def cmd_evaluate(args) -> int:
    _check_trials(args.trials)
    # The decoder's correlation is checked where it is quantized; the SI draw
    # y = rho x + sqrt(1 - rho^2) z needs |rho_real| < 1 whatever rho_dec is.
    if not -1.0 < args.rho_real < 1.0:
        raise ValueError("--rho-real must be finite and lie in (-1, 1)")
    bundle = load_codec(args.codec)
    if args.nsi_sweep and (args.bsc_sweep or args.awgn is not None):
        raise ValueError("--nsi-sweep cannot be combined with channel sweeps")
    if args.nsi_sweep:
        return _evaluate_nsi_sweep(args, bundle)
    if args.bsc_sweep and args.awgn is not None:
        raise ValueError("--awgn cannot be combined with --bsc-sweep")
    # Every row decodes the same draws: one simulator call for the whole sweep.
    if args.awgn is not None:
        labels = [args.awgn]
        channel_sets = [
            tuple(
                DescriptionChannel.awgn(args.awgn, ch.loss_prob, ch.index_count)
                for ch in bundle.channels
            )
        ]
    elif args.bsc_sweep:
        labels = [float(v) for v in args.bsc_sweep.split(",")]
        channel_sets = [
            tuple(
                DescriptionChannel.bsc(p, ch.loss_prob, ch.index_count)
                for ch in bundle.channels
            )
            for p in labels
        ]
    else:
        labels = [bundle.channels[0].bit_error_rate]
        channel_sets = [bundle.channels]
    results = run_asym_experiment(
        AsymConfig(
            bundle=bundle,
            rho_real=args.rho_real,
            rho_dec=args.rho_dec,
            use_si=not args.no_si,
            trials=args.trials,
            seed=args.seed,
        ),
        channel_sets,
    )
    lines = ["p,d_side_db,d_central_db,d_av_db,stderr"]
    for p_label, res in zip(labels, results):
        side = "" if res.d_side is None else f"{to_db(float(np.mean(res.d_side))):.6f}"
        central = "" if res.d_central is None else f"{res.d_central_db:.6f}"
        lines.append(
            f"{p_label!r},{side},{central},{res.d_av_db:.6f},{res.stderr!r}"
        )
        print(f"config p={p_label!r}: wall_time={res.wall_time:.2f}s", file=sys.stderr)
    _emit(lines, args.output)
    return 0


def _evaluate_nsi_sweep(args, bundle) -> int:
    """Average distortion versus SI quantizer size (tables rebuilt per size)."""
    sizes = [int(v) for v in args.nsi_sweep.split(",") if v]
    if not sizes or any(n < 1 for n in sizes):
        raise ValueError("bad SI quantizer size list")
    lines = ["p,d_side_db,d_central_db,d_av_db,stderr"]
    for n in sizes:
        rebuilt = bundle.with_si_quantizer(lloyd_design(GaussianSource(), n))
        res = run_asym_experiment(
            AsymConfig(
                bundle=rebuilt,
                rho_real=args.rho_real,
                rho_dec=args.rho_dec,
                use_si=not args.no_si,
                trials=args.trials,
                seed=args.seed,
            )
        )
        side = "" if res.d_side is None else f"{to_db(float(np.mean(res.d_side))):.6f}"
        central = "" if res.d_central is None else f"{res.d_central_db:.6f}"
        lines.append(f"{n},{side},{central},{res.d_av_db:.6f},{res.stderr!r}")
        print(f"config nsi={n}: wall_time={res.wall_time:.2f}s", file=sys.stderr)
    _emit(lines, args.output)
    return 0


def _load_scenario_file(path, channels):
    import json

    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
        positions = np.array(data["positions"], dtype=float)
        alpha = float(data.get("alpha", 2.0))
        seed = int(data.get("seed", 0))
    except Exception as exc:
        raise ValueError(f"unreadable scenario file: {exc}") from exc
    if positions.ndim != 2 or positions.shape[0] < 2:
        raise ValueError("scenario file needs at least two node positions")
    return generate_scenario(
        positions.shape[0], channels, alpha=alpha, seed=seed, positions=positions
    )


def cmd_scenario(args) -> int:
    _check_trials(args.trials)
    if args.codec:
        bundle = load_codec(args.codec)
        channels = bundle.channels
    else:
        bundle = None
        channels = _build_channels(args)
    if args.scenario_file:
        scenario = _load_scenario_file(args.scenario_file, channels)
    else:
        if args.nodes is None or args.nodes < 2:
            raise ValueError("need --nodes >= 2 or a scenario file")
        scenario = generate_scenario(args.nodes, channels, alpha=args.alpha, seed=args.seed)
    if args.save_scenario:
        import json

        Path(args.save_scenario).write_text(
            json.dumps(
                {
                    "positions": scenario.positions.tolist(),
                    "alpha": scenario.alpha,
                    "seed": scenario.seed,
                }
            ),
            encoding="utf-8",
        )
    if bundle is None:
        # Shared codec designed at the median nearest-neighbor correlation,
        # capped: encoders designed for very strong SI bin so aggressively
        # that the no-SI first decoding pass (and with it the whole iterative
        # bootstrap) collapses.
        if args.rho_enc is not None:
            rho_enc = args.rho_enc
        else:
            rho = scenario.pairwise_rho.copy()
            np.fill_diagonal(rho, -np.inf)
            nn_rho = rho.max(axis=1)
            ladder = CorrelationLadder()
            level = quantize_rho(min(float(np.median(nn_rho)), 0.6), ladder)
            rho_enc = float(ladder.levels[level])
        design_args = argparse.Namespace(
            K=args.K, nsi=args.nsi, rho_enc=rho_enc,
            desc=args.desc, bsc=args.bsc, awgn=None, loss=args.loss,
            seed=args.seed, restarts=args.restarts,
        )
        bundle = _design_bundle(design_args)
    res = run_sym_experiment(
        SymConfig(
            scenario=scenario,
            bundle=bundle,
            mode=args.mode,
            si_method=args.si_method,
            trials=args.trials,
            seed=args.seed,
        )
    )
    lines = [
        "nodes,mode,si_method,trials,d_av_db,stderr",
        f"{scenario.n_nodes},{args.mode},{args.si_method},{res.trials},"
        f"{res.d_av_db:.6f},{res.stderr!r}",
    ]
    print(f"wall_time={res.wall_time:.2f}s", file=sys.stderr)
    _emit(lines, args.output)
    return 0


def cmd_report(args) -> int:
    lines = ["reference comparison report", "=" * 60]
    tol = refs.BOUND_TOLERANCE_DB
    all_pass = True
    lines.append(f"[bound vs loss rate] tolerance +-{tol} dB")
    for row in refs.BOUND_VS_LOSS:
        res = min_avg_distortion(
            BoundQuery(r1=row["r1"], r2=row["r2"], rho=0.8, mu1=row["mu"], mu2=row["mu"])
        )
        err = res.d_min_db - row["bound_db"]
        ok = abs(err) <= tol
        all_pass &= ok
        lines.append(
            f"  mu={row['mu']:<6} ref={row['bound_db']:>9.3f} got={res.d_min_db:>9.3f} "
            f"err={err:+.4f} {'PASS' if ok else 'FAIL'}"
        )
    lines.append(f"[bound vs correlation] tolerance +-{tol} dB")
    for row in refs.BOUND_VS_CORRELATION:
        res = min_avg_distortion(
            BoundQuery(r1=row["r1"], r2=row["r2"], rho=row["rho"], mu1=0.05, mu2=0.05)
        )
        err = res.d_min_db - row["bound_db"]
        ok = abs(err) <= tol
        all_pass &= ok
        lines.append(
            f"  rho={row['rho']:<5} ref={row['bound_db']:>9.3f} got={res.d_min_db:>9.3f} "
            f"err={err:+.4f} {'PASS' if ok else 'FAIL'}"
        )
    lines.append("overall: " + ("PASS" if all_pass else "FAIL"))
    _emit(lines, args.output)
    if not all_pass:
        raise ValueError("report verdict is FAIL")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mdquant",
        description="Design and evaluate multiple-description codecs with decoder side information.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("design", help="design a codec by deterministic annealing")
    p.add_argument("--K", type=int, required=True, help="quantizer levels")
    p.add_argument("--desc", required=True, help="indices per description, e.g. 4,4")
    p.add_argument("--bsc", type=float, default=0.0, help="BSC bit error rate")
    p.add_argument("--awgn", type=float, default=None, help="AWGN noise PSD (N0)")
    p.add_argument("--loss", type=float, default=0.05, help="packet loss probability")
    p.add_argument("--rho-enc", type=float, required=True, dest="rho_enc")
    p.add_argument("--nsi", type=int, default=128, help="SI quantizer levels")
    p.add_argument("--restarts", type=int, default=3)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_design)

    p = sub.add_parser("bound", help="evaluate the two-description R-D bound")
    p.add_argument("--rho", type=float, default=None)
    p.add_argument("--r1", type=float, default=None)
    p.add_argument("--r2", type=float, default=None)
    p.add_argument("--mu1", type=float, default=None)
    p.add_argument("--mu2", type=float, default=None)
    p.add_argument("--sweep", choices=["loss", "correlation"], default=None)
    p.add_argument("--literal-weighting", action="store_true")
    p.add_argument("--natural-delta", action="store_true")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_bound)

    p = sub.add_parser("evaluate", help="Monte-Carlo evaluation of a codec")
    p.add_argument("--codec", required=True)
    p.add_argument("--rho-real", type=float, required=True, dest="rho_real")
    p.add_argument("--rho-dec", type=float, default=None, dest="rho_dec")
    p.add_argument("--no-si", action="store_true", dest="no_si")
    p.add_argument("--bsc-sweep", default=None, dest="bsc_sweep",
                   help="comma list of bit error rates to sweep")
    p.add_argument("--nsi-sweep", default=None, dest="nsi_sweep",
                   help="comma list of SI quantizer sizes to sweep")
    p.add_argument("--awgn", type=float, default=None)
    p.add_argument("--trials", type=int, default=100_000)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("scenario", help="symmetric experiment over a sensor field")
    p.add_argument("--nodes", type=int, default=None)
    p.add_argument("--alpha", type=float, default=2.0)
    p.add_argument("--scenario-file", default=None, dest="scenario_file")
    p.add_argument("--save-scenario", default=None, dest="save_scenario")
    p.add_argument("--codec", default=None)
    p.add_argument("--K", type=int, default=16)
    p.add_argument("--desc", default="4,4")
    p.add_argument("--bsc", type=float, default=0.005)
    p.add_argument("--loss", type=float, default=0.05)
    p.add_argument("--nsi", type=int, default=64)
    p.add_argument("--rho-enc", type=float, default=None, dest="rho_enc",
                   help="override the shared codec's design correlation")
    p.add_argument("--restarts", type=int, default=2)
    p.add_argument("--mode", choices=["estimated", "soft"], default="soft")
    p.add_argument("--si-method", choices=["distance", "mutual_info", "min_distortion"],
                   default="min_distortion", dest="si_method")
    p.add_argument("--trials", type=int, default=20_000)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_scenario)

    p = sub.add_parser("report", help="compare bound outputs against published values")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.output:
            _check_output_path(args.output)
        return args.func(args)
    except CodecFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
