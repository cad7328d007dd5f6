"""Command-line driver: codec design, bound evaluation, experiments, reports.

Exit codes: 0 success, 2 invalid input, a run too large for memory (one
``error:`` line) or a report whose verdict is FAIL, 3 incompatible codec
file version.
Every stochastic command requires --seed and is byte-reproducible at a fixed
seed (wall-clock timing goes to stderr, never into result files).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import reference_values as refs
from .channel import DescriptionChannel
from .codec import DistortionBreakdown, design_annealed
from .gaussian import RHO_LADDER, JointGaussianPair, quantize_rho
from .persist import CodecFormatError, load_codec, save_codec
from .quantizer import MAX_QUANTIZER_LEVELS, lloyd_design
from .rd_bound import BoundQuery, min_avg_distortion
from .simulator import (
    SI_METHODS,
    SYM_MODES,
    AsymConfig,
    SymConfig,
    check_field,
    conditional_entropy_rates,
    generate_scenario,
    run_asym_experiment,
    run_sym_experiment,
    to_db,
)

def _check_levels(flag: str, n: int) -> None:
    if n > MAX_QUANTIZER_LEVELS:
        raise ValueError(f"{flag} {n} exceeds the largest quantizer size {MAX_QUANTIZER_LEVELS}")


def _parse_list(flag: str, text: str, kind) -> list:
    """The entries of a comma list read by ``kind`` (int or float), skipping empty ones."""
    values = []
    for entry in filter(None, text.split(",")):
        try:
            values.append(kind(entry))
        except ValueError:
            what = "an integer" if kind is int else "a number"
            raise ValueError(f"{flag} entry {entry!r} is not {what}") from None
    if not values:
        raise ValueError(f"{flag} needs at least one value, got {text!r}")
    return values


def _parse_desc(text: str) -> list[int]:
    counts = _parse_list("--desc", text, int)
    if any(c < 2 for c in counts):
        raise ValueError("each description needs at least two indices")
    # Bounds every count too: each is at least 2.
    _check_levels("--desc index tuple count", math.prod(counts))
    return counts


def _build_channels(args):
    return tuple(DescriptionChannel.bsc(args.bsc, args.loss, n) for n in _parse_desc(args.desc))


def _design_bundle(args, rho_enc: float):
    """Design a codec at ``rho_enc`` from the arguments ``design`` and ``scenario`` share."""
    if args.K < 1:
        raise ValueError("quantizer size must be positive")
    if args.nsi < 1:
        raise ValueError("SI quantizer size must be positive")
    if not 0.0 <= rho_enc < 1.0:
        raise ValueError("design correlation must lie in [0, 1)")
    channels = _build_channels(args)
    quantizer = lloyd_design(args.K)
    si_quantizer = lloyd_design(args.nsi)
    pair = JointGaussianPair(1.0, 1.0, rho_enc)
    return design_annealed(
        quantizer, si_quantizer, pair, channels, restarts=args.restarts, seed=args.seed
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
    bundle = _design_bundle(args, args.rho_enc)
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


# Published bound sweeps: the ``bound --sweep`` name and its ``report`` heading.
BOUND_SWEEPS = {"loss": "bound vs loss rate", "correlation": "bound vs correlation"}


def _published_points(sweep: str) -> list:
    """(label, query, published bound dB) of every point of a published sweep.

    The loss sweep is at rho 0.8, the correlation sweep at mu 0.05.  The rows
    are read from ``reference_values`` at call time.
    """
    if sweep == "loss":
        return [
            (f"mu={r['mu']:<6}",
             BoundQuery(r1=r["r1"], r2=r["r2"], rho=0.8, mu1=r["mu"], mu2=r["mu"]),
             r["bound_db"])
            for r in refs.BOUND_VS_LOSS
        ]
    return [
        (f"rho={r['rho']:<5}",
         BoundQuery(r1=r["r1"], r2=r["r2"], rho=r["rho"], mu1=0.05, mu2=0.05),
         r["bound_db"])
        for r in refs.BOUND_VS_CORRELATION
    ]


def cmd_bound(args) -> int:
    if args.sweep is not None:
        point_flags = [
            f"--{name}" for name in ("rho", "r1", "r2", "mu1", "mu2")
            if getattr(args, name) is not None
        ]
        if point_flags:
            raise ValueError(f"--sweep cannot be combined with {', '.join(point_flags)}")
        queries = [query for _, query, _ in _published_points(args.sweep)]
    else:
        if args.rho is None or args.r1 is None or args.r2 is None or args.mu1 is None:
            raise ValueError("need --rho, --r1, --r2, --mu1 (or a --sweep)")
        mu2 = args.mu1 if args.mu2 is None else args.mu2
        # Every query BoundQuery accepts has a finite bound; the rest exit 2.
        queries = [BoundQuery(r1=args.r1, r2=args.r2, rho=args.rho, mu1=args.mu1, mu2=mu2)]
    lines = ["rho,r1,r2,mu1,mu2,d_min_db,d1_opt,d2_opt"]
    for q in queries:
        res = min_avg_distortion(q)
        lines.append(
            f"{q.rho!r},{q.r1!r},{q.r2!r},{q.mu1!r},{q.mu2!r},"
            f"{res.d_min_db:.6f},{res.d1!r},{res.d2!r}"
        )
    _emit(lines, args.output)
    return 0


# After the first column: "p" (bit error rate or noise PSD), or "nsi" for an SI size sweep.
EVALUATE_COLUMNS = "d_side_db,d_central_db,d_av_db,stderr"


def _evaluate_row(label, res) -> str:
    """One ``evaluate`` row; the side and central cells are empty where undefined."""
    side = "" if res.d_side is None else f"{to_db(float(np.mean(res.d_side))):.6f}"
    central = "" if res.d_central is None else f"{res.d_central_db:.6f}"
    return f"{label!r},{side},{central},{res.d_av_db:.6f},{res.stderr!r}"


def cmd_evaluate(args) -> int:
    _check_trials(args.trials)
    # The SI draw y = rho x + sqrt(1 - rho^2) z needs |rho_real| < 1 whatever rho_dec is.
    if not -1.0 < args.rho_real < 1.0:
        raise ValueError("--rho-real must be finite and lie in (-1, 1)")
    sizes = None if args.nsi_sweep is None else _parse_nsi_sweep(args.nsi_sweep)
    bers = None if args.bsc_sweep is None else _parse_list("--bsc-sweep", args.bsc_sweep, float)
    if sizes and (bers or args.awgn is not None):
        raise ValueError("--nsi-sweep cannot be combined with channel sweeps")
    if bers and args.awgn is not None:
        raise ValueError("--awgn cannot be combined with --bsc-sweep")
    # Without SI, every SI quantizer size and decoder correlation gives the same rows.
    if args.no_si and (sizes or args.rho_dec is not None):
        raise ValueError("--no-si cannot be combined with --nsi-sweep or --rho-dec")
    # The decoder reads its tables at --rho-dec, or at --rho-real without it.
    rho_dec = args.rho_real if args.rho_dec is None else args.rho_dec
    if not (args.no_si or 0.0 <= rho_dec <= 1.0):  # NaN fails both comparisons
        flag = "--rho-real" if args.rho_dec is None else "--rho-dec"
        raise ValueError(f"{flag} must lie in [0, 1] for the decoder's side information")
    bundle = load_codec(args.codec)
    if args.no_si:
        # One SI level carries no SI; its rho = 0 tables are the no-SI ones bit for bit.
        bundle, rho_dec = replace(bundle, si_quantizer=lloyd_design(1)), 0.0
    cfg = AsymConfig(
        bundle=bundle,
        rho_real=args.rho_real,
        rho_dec=rho_dec,
        trials=args.trials,
        seed=args.seed,
    )
    own = bundle.channels
    if args.awgn is not None:
        labels, make = [args.awgn], DescriptionChannel.awgn
    elif bers:
        labels, make = bers, DescriptionChannel.bsc
    else:
        # A codec's own channels are labelled like the flag that would set them.
        labels = [own[0].bit_error_rate if own[0].kind == "bsc" else own[0].noise_psd]
        make = None
    channel_sets = [own] if make is None else [
        tuple(make(v, ch.loss_prob, ch.index_count) for ch in own) for v in labels
    ]
    if sizes:
        # Average distortion versus SI quantizer size: each run builds its own tables.
        name, labels = "nsi", sizes
        results = (
            run_asym_experiment(
                replace(cfg, bundle=replace(bundle, si_quantizer=lloyd_design(n))),
                channel_sets,
            )[0]
            for n in sizes
        )
    else:
        # Every row decodes the same draws: one simulator call for the whole sweep.
        name = "p"
        results = run_asym_experiment(cfg, channel_sets)
    lines = [f"{name},{EVALUATE_COLUMNS}"]
    for label, res in zip(labels, results):
        lines.append(_evaluate_row(label, res))
        print(f"config {name}={label!r}: wall_time={res.wall_time:.2f}s", file=sys.stderr)
    _emit(lines, args.output)
    return 0


def _parse_nsi_sweep(text: str) -> list[int]:
    sizes = _parse_list("--nsi-sweep", text, int)
    if any(n < 1 for n in sizes):
        raise ValueError("bad SI quantizer size list")
    _check_levels("--nsi-sweep size", max(sizes))
    return sizes


def _load_scenario_file(path):
    """Checked (positions, alpha, seed) of a scenario file; entries must have their JSON types."""
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
        positions, alpha, seed = data["positions"], data.get("alpha", 2.0), data.get("seed", 0)
    except Exception as exc:
        raise ValueError(f"unreadable scenario file: {exc}") from exc
    # type() and not isinstance(): a JSON true is a bool, which Python counts as an int.
    if type(positions) is not list or len(positions) < 2 or any(
        type(p) is not list or len(p) != 2 or {type(v) for v in p} - {int, float} for p in positions
    ):
        raise ValueError("scenario file positions must be at least two [x, y] pairs of numbers")
    if type(alpha) not in (int, float):
        raise ValueError(f"scenario file alpha must be a number, got {alpha!r}")
    if type(seed) is not int or seed < 0:
        raise ValueError(f"scenario file seed must be a non-negative integer, got {seed!r}")
    try:  # a JSON integer beyond the float range overflows
        positions, alpha = np.array(positions, dtype=float), float(alpha)
    except OverflowError as exc:
        raise ValueError("scenario file numbers must be finite") from exc
    check_field(positions, alpha)
    return positions, alpha, seed


# Defaults of the ``scenario`` flags that a codec file or a scenario file
# replaces: the shared codec's design arguments and the random field's.
SCENARIO_DESIGN_DEFAULTS = {
    "K": 16, "desc": "4,4", "bsc": 0.005, "loss": 0.05, "nsi": 64, "rho_enc": None,
    "restarts": 2,
}
SCENARIO_FIELD_DEFAULTS = {"nodes": None, "alpha": 2.0}


def _apply_scenario_defaults(args) -> None:
    """Reject flags that --codec or --scenario-file would ignore, then fill in the defaults."""
    for source, given_with, defaults in (
        ("--codec", args.codec, SCENARIO_DESIGN_DEFAULTS),
        ("--scenario-file", args.scenario_file, SCENARIO_FIELD_DEFAULTS),
    ):
        flags = [name for name in defaults if getattr(args, name) is not None]
        if given_with and flags:
            names = ", ".join("--" + name.replace("_", "-") for name in flags)
            raise ValueError(f"{source} cannot be combined with {names}")
        for name in defaults:
            if getattr(args, name) is None:
                setattr(args, name, defaults[name])


def cmd_scenario(args) -> int:
    _apply_scenario_defaults(args)
    _check_trials(args.trials)
    # The scenario file is read and checked before the codec file is.
    if args.scenario_file:
        positions, alpha, seed = _load_scenario_file(args.scenario_file)
        n_nodes = len(positions)
    elif args.nodes is None or args.nodes < 2:
        raise ValueError("need --nodes >= 2 or a scenario file")
    else:
        positions, alpha, seed, n_nodes = None, args.alpha, args.seed, args.nodes
    if args.codec:
        bundle = load_codec(args.codec)
        channels = bundle.channels
    else:
        bundle = None
        channels = _build_channels(args)
    scenario = generate_scenario(n_nodes, channels, alpha=alpha, seed=seed, positions=positions)
    if args.save_scenario:
        field = {"positions": scenario.positions.tolist(), "alpha": scenario.alpha,
                 "seed": scenario.seed}
        Path(args.save_scenario).write_text(json.dumps(field), encoding="utf-8")
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
            rho_enc = float(RHO_LADDER[quantize_rho(min(float(np.median(nn_rho)), 0.6))])
        bundle = _design_bundle(args, rho_enc)
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
    if res.psd_projected:
        print("warning=correlation matrix projected onto the PSD cone", file=sys.stderr)
    _emit(lines, args.output)
    return 0


def cmd_report(args) -> int:
    lines = ["reference comparison report", "=" * 60]
    tol = refs.BOUND_TOLERANCE_DB
    all_pass = True
    for sweep, heading in BOUND_SWEEPS.items():
        lines.append(f"[{heading}] tolerance +-{tol} dB")
        for label, query, ref_db in _published_points(sweep):
            got = min_avg_distortion(query).d_min_db
            err = got - ref_db
            ok = abs(err) <= tol
            all_pass &= ok
            lines.append(
                f"  {label} ref={ref_db:>9.3f} got={got:>9.3f} "
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
    p.add_argument("--sweep", choices=list(BOUND_SWEEPS), default=None)
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

    # The field and design flags default to None, so that a flag given with
    # --scenario-file or --codec is seen; SCENARIO_*_DEFAULTS fill in the rest.
    p = sub.add_parser("scenario", help="symmetric experiment over a sensor field")
    p.add_argument("--nodes", type=int, default=None)
    p.add_argument("--alpha", type=float, default=None, help="default 2.0")
    p.add_argument("--scenario-file", default=None, dest="scenario_file")
    p.add_argument("--save-scenario", default=None, dest="save_scenario")
    p.add_argument("--codec", default=None)
    p.add_argument("--K", type=int, default=None, help="default 16")
    p.add_argument("--desc", default=None, help="default 4,4")
    p.add_argument("--bsc", type=float, default=None, help="default 0.005")
    p.add_argument("--loss", type=float, default=None, help="default 0.05")
    p.add_argument("--nsi", type=int, default=None, help="default 64")
    p.add_argument("--rho-enc", type=float, default=None, dest="rho_enc",
                   help="override the shared codec's design correlation")
    p.add_argument("--restarts", type=int, default=None, help="default 2")
    p.add_argument("--mode", choices=SYM_MODES, default="soft")
    p.add_argument("--si-method", choices=SI_METHODS, default="min_distortion",
                   dest="si_method")
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
        # Checked before any work: a negative seed fails only once the
        # random streams are derived, which may be inside forked workers.
        if getattr(args, "seed", 0) < 0:
            raise ValueError("--seed must be non-negative")
        for name in ("K", "nsi"):  # quantizer sizes, checked before anything is allocated
            if getattr(args, name, None) is not None:
                _check_levels(f"--{name}", getattr(args, name))
        for output in (args.output, getattr(args, "save_scenario", None)):
            if output:
                _check_output_path(output)
        return args.func(args)
    except CodecFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # e.g. a --trials too large for one draw
        print(f"error: out of memory ({str(exc) or 'allocation failed'})", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
