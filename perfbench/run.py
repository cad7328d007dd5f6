"""mdquant benchmark: end-to-end metrics, and per-layer metrics from a traced run.

Run from the root of a checkout:

    python3 perfbench/run.py --workload design-full --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --all --seed 1      # every workload, one table
    python3 perfbench/run.py --smoke             # tiny sizes; checks and tracing

The last line of a workload run is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end metrics of BENCHMARK.json, with ``--trace 1``
its per-layer metrics.  See perfbench/README.md.
"""

from __future__ import annotations

import os
import sys

# Pin the BLAS pool before numpy is imported, so every run uses the same
# thread count.  This process and the set-up probes it starts inherit it.
BLAS_THREADS = max(1, min(2, os.cpu_count() or 1))
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench_work"
REFERENCE = Path(__file__).resolve().parent / "reference.json"
SETUP_REPS = {"full": 5, "smoke": 2}
MIN_SPAN_COVERAGE = 0.9


def fail(msg: str) -> int:
    print(f"perfbench: {msg}", file=sys.stderr)
    return 2


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


# ---------------------------------------------------------------------------
# Environment
# ---------------------------------------------------------------------------


def blas_threads() -> int | None:
    """Thread count the OpenBLAS bundled with numpy reports, or None if unreadable."""
    import ctypes

    import numpy

    for lib in sorted((Path(numpy.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        try:
            handle = ctypes.CDLL(str(lib))
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(loadavg) -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads_pinned": BLAS_THREADS,
        "blas_threads": blas_threads(),
        "loadavg_at_start": list(loadavg),
    }


# ---------------------------------------------------------------------------
# Calling the CLI
# ---------------------------------------------------------------------------


def call_cli(cli, argv) -> tuple[int, str, str]:
    """Run one CLI command in this process: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects its arguments
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # a crash is a failed command, not a failed benchmark
            traceback.print_exc()
            code = 1
    return code, out.getvalue(), err.getvalue()


def run_unit(cli, wl, inputs, out: Path):
    """One closed-loop unit: its commands back to back. Returns (outcomes, wall)."""
    from workloads import Outcome

    out.mkdir(parents=True, exist_ok=True)
    outcomes, wall = [], 0.0
    for argv, path in wl.commands(inputs, out):
        path.unlink(missing_ok=True)
        t0 = time.perf_counter()
        code, stdout, stderr = call_cli(cli, argv)
        wall += time.perf_counter() - t0
        if code != 0:
            sys.stderr.write(stderr)
        data = path.read_bytes() if path.exists() else None
        outcomes.append(Outcome(argv, code, stdout, data))
    return outcomes, wall


def setup_seconds(wl, inputs, reps: int) -> list[float]:
    """Wall time of fresh interpreters that import mdquant and load the inputs."""
    code = "import sys\nsys.path.insert(0, 'src')\n" + wl.setup_probe(inputs)
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", code], cwd=ROOT, capture_output=True, text=True,
            timeout=120,
        )
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
    return times


def check_unit(wl, inputs, outcomes, reference) -> tuple[list, dict]:
    """``wl.check``, with a check that raises on malformed output counted as failed."""
    try:
        return wl.check(inputs, outcomes, reference)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return [f"output check raised {exc!r}"], {}


def load_reference(name: str, seed: int):
    if not REFERENCE.exists():
        return None
    table = json.loads(REFERENCE.read_text(encoding="utf-8"))
    return table.get(name, {}).get(str(seed))


# ---------------------------------------------------------------------------
# One workload run
# ---------------------------------------------------------------------------


def timed_loop(cli, wl, inputs, work: Path, seconds: float, reference):
    """Closed loop until ``seconds`` have passed; checks every unit's outputs."""
    times, failures, values = [], [], {}
    attempted = failed = 0
    first = None
    verdicts: dict = {}
    start = time.perf_counter()
    while True:
        outcomes, wall = run_unit(cli, wl, inputs, work / "out")
        times.append(wall)
        attempted += len(outcomes)
        datas = tuple(o.data for o in outcomes)
        problems = []
        if first is None:
            first = datas
        elif datas != first:
            problems.append("result files differ from the first run at the same seed")
        key = (datas, tuple(o.code for o in outcomes), tuple(o.stdout for o in outcomes))
        if key not in verdicts:
            verdicts[key] = check_unit(wl, inputs, outcomes, reference)
        unit_failures, unit_values = verdicts[key]
        values = values or unit_values
        problems += unit_failures
        if problems:
            failed += len(outcomes)
            failures += problems
        if time.perf_counter() - start >= seconds:
            break
    return times, attempted, failed, failures, values


def traced_run(cli, wl, inputs, work: Path, reference):
    """Untraced and traced passes in turn; result files must match byte for byte.

    Order: untraced (cold, checked), traced, untraced, traced with tracemalloc.
    The overhead compares the middle two, which both run warm.
    """
    import spans

    base, _ = run_unit(cli, wl, inputs, work / "untraced")
    failures, values = check_unit(wl, inputs, base, reference)
    recs, walls = [], []
    for n, traced, track_memory in ((1, True, False), (2, False, False), (3, True, True)):
        rec = spans.Recorder(track_memory=track_memory)
        with spans.Patches(rec) if traced else contextlib.nullcontext():
            outcomes, wall = run_unit(cli, wl, inputs, work / f"pass{n}")
        recs.append(rec)
        walls.append(wall)
        for a, b in zip(base, outcomes):
            if a.data != b.data or a.code != b.code:
                failures.append(f"pass {n}: {a.argv[0]} result differs from the untraced run")
    (rec1, _, rec3), (wall1, wall2, wall3) = recs, walls
    metrics, counts1 = spans.summarize(rec1, wall1, inputs.nodes)
    _, counts3 = spans.summarize(rec3, wall3, inputs.nodes)
    if counts1 != counts3:
        diff = sorted(k for k in counts1 | counts3 if counts1.get(k) != counts3.get(k))
        failures.append(f"traced passes disagree on counts: {diff}")
    # Tiny smoke runs spend a visible share in argument parsing; gate full size only.
    if inputs.size == "full" and metrics["trace.span_coverage"] < MIN_SPAN_COVERAGE:
        failures.append(f"spans cover only {metrics['trace.span_coverage']:.1%} of the wall")
    metrics.update({
        "trace.untraced_wall_s": wall2,
        "trace.traced_wall_s": wall1,
        "trace.overhead_s": wall1 - wall2,
        "trace.overhead_share": (wall1 - wall2) / wall2,
        "trace.span_cost_est_s": len(rec1.spans) * spans.span_cost_s(),
        "trace.memory_pass_wall_s": wall3,
        "simulator.sym_peak_mb": rec3.sym_peak_bytes / 2**20,
        "codec.inner_cap_hits": values.get("inner_cap_hits", 0),
        "codec.monotonicity_violations": values.get("monotonicity_violations", 0),
    })
    trace_doc = {"wall_s": wall1, "counts": counts1, "spans": spans.spans_json(rec1)}
    return metrics, failures, values, len(base) * 4, trace_doc


def run_workload(args, loadavg) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import mdquant
    import mdquant.cli as cli
    from workloads import WORKLOADS

    if Path(mdquant.__file__).resolve().parent != ROOT / "src" / "mdquant":
        return fail(f"imported mdquant from {mdquant.__file__}, not from this checkout")
    spec = load_spec()
    wl = WORKLOADS[args.workload]
    tag = f"{wl.name}-seed{args.seed}-{args.size}"
    work = WORK / tag
    shutil.rmtree(work, ignore_errors=True)
    (work / "inputs").mkdir(parents=True)
    env = environment(loadavg)

    inputs = wl.prepare(cli, args.seed, args.size, work / "inputs")
    reference = load_reference(wl.name, args.seed) if args.size == "full" else None
    samples = wl.samples(inputs)
    record = {
        "workload": wl.name, "seed": args.seed, "size": args.size, "trace": args.trace,
        "environment": env, "input_codec_d_av": inputs.codec_d_av,
        "reference": reference,
    }
    if args.trace:
        metrics, failures, values, attempted, trace_doc = traced_run(
            cli, wl, inputs, work, reference
        )
        failed = attempted if failures else 0
        wanted = spec["per_layer"]
        (WORK / "results").mkdir(exist_ok=True)
        (WORK / "results" / f"{tag}-spans.json").write_text(
            json.dumps(trace_doc), encoding="utf-8"
        )
    else:
        setups = setup_seconds(wl, inputs, SETUP_REPS[args.size])
        times, attempted, failed, failures, values = timed_loop(
            cli, wl, inputs, work, args.seconds, reference
        )
        unit_s = statistics.median(times)
        metrics = {
            "time_to_result_s": unit_s,
            "setup_s": statistics.median(setups),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        record.update(unit_times_s=times, setup_times_s=setups)
        extra = {"samples_per_s": samples / unit_s if samples else None}
        if wl.name == "design-full":
            extra["time_to_codec_s"] = unit_s
        record["derived"] = extra
        wanted = spec["end_to_end"]
    record.update(
        values=values, failures=failures, attempted=attempted, failed=failed,
        error_rate=failed / attempted, metrics=metrics,
    )
    (WORK / "results").mkdir(exist_ok=True)
    (WORK / "results" / f"{tag}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1), encoding="utf-8"
    )
    print_summary(record)
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        raise RuntimeError(f"metrics not produced: {missing}")
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            m["name"]: {"value": float(metrics[m["name"]]), "unit": m["unit"]} for m in wanted
        },
    }
    print(json.dumps(result))
    return 0


def print_summary(record: dict) -> None:
    m, v = record["metrics"], record["values"]
    print(f"workload {record['workload']} seed {record['seed']} size {record['size']} "
          f"trace {record['trace']}")
    for f in record["failures"]:
        print(f"  FAILED: {f}")
    rows = []
    if not record["trace"]:
        n = len(record["unit_times_s"])
        rows.append(("time_to_result_s", m["time_to_result_s"], "s", f"median of {n} units"))
        d = record["derived"]
        if "time_to_codec_s" in d:
            rows.append(("time_to_codec_s", d["time_to_codec_s"], "s", "= time_to_result_s"))
        if d["samples_per_s"]:
            rows.append(("samples_per_s", d["samples_per_s"], "1/s", "decoded samples"))
        rows.append(("setup_s", m["setup_s"], "s", f"median of {len(record['setup_times_s'])}"))
        rows.append(("peak_rss_mb", m["peak_rss_mb"], "MB", "getrusage, this process"))
    else:
        for key in ("trace.untraced_wall_s", "trace.traced_wall_s", "trace.overhead_s",
                    "trace.span_coverage"):
            rows.append((key, m[key], "", ""))
    if "d_av_db" in v:
        rows.append(("d_av_db", v["d_av_db"], "dB", "result distortion"))
    rows.append(("error_rate", record["error_rate"], "",
                 f"{record['failed']}/{record['attempted']} commands"))
    for name, value, unit, note in rows:
        print(f"  {name:<22} {value:>14.6g} {unit:<4} {note}")


# ---------------------------------------------------------------------------
# Several workloads: --all, --smoke, --record-reference
# ---------------------------------------------------------------------------


def run_child(workload, seed, seconds, trace, size) -> tuple[int, dict | None, str]:
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
            "--size", size]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return proc.returncode, result, proc.stdout + proc.stderr


def run_all(args) -> int:
    from workloads import WORKLOADS

    bad = 0
    table = []
    for name in WORKLOADS:
        code, result, text = run_child(name, args.seed, args.seconds, 0, args.size)
        print(text.rstrip())
        tag = f"{name}-seed{args.seed}-{args.size}-trace0.json"
        rec_path = WORK / "results" / tag
        if code != 0 or not result or not result["correct"] or not rec_path.exists():
            bad += 1
            continue
        rec = json.loads(rec_path.read_text(encoding="utf-8"))
        table.append((name, rec))
    print()
    print(f"{'workload':<18} {'time_to_codec_s':>15} {'samples_per_s':>14} {'setup_s':>8} "
          f"{'peak_rss_mb':>11} {'d_av_db':>10} {'error_rate':>10}")
    print(f"{'':<18} {'(s)':>15} {'(1/s)':>14} {'(s)':>8} {'(MB)':>11} {'(dB)':>10} {'(1)':>10}")
    for name, rec in table:
        d, m = rec["derived"], rec["metrics"]
        ttc = f"{d['time_to_codec_s']:.3f}" if "time_to_codec_s" in d else "-"
        sps = f"{d['samples_per_s']:.4g}" if d["samples_per_s"] else "-"
        print(f"{name:<18} {ttc:>15} {sps:>14} {m['setup_s']:>8.3f} {m['peak_rss_mb']:>11.1f} "
              f"{rec['values'].get('d_av_db', float('nan')):>10.4f} {rec['error_rate']:>10.3g}")
    if bad:
        print(f"{bad} workload(s) failed", file=sys.stderr)
    return 1 if bad else 0


def run_smoke(args) -> int:
    """Every workload at a tiny size, untraced and traced, plus tamper checks."""
    from workloads import WORKLOADS

    spec = load_spec()
    problems = []
    for name in WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            code, result, text = run_child(name, args.seed, 1, trace, "smoke")
            label = f"{name} trace {trace}"
            known = len(problems)
            if code != 0 or result is None:
                problems.append(f"{label}: exit {code}\n{text}")
                continue
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{label}: wrong result keys {sorted(result)}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{label}: checks failed\n{text}")
            if set(result["metrics"]) != {m["name"] for m in spec[key]}:
                problems.append(f"{label}: metrics differ from BENCHMARK.json {key}")
            print(f"smoke {label}: {'ok' if len(problems) == known else 'FAILED'}")
    problems += tamper_checks(args.seed)
    for p in problems:
        print(f"SMOKE FAILED: {p}")
    print("smoke: " + ("FAIL" if problems else "PASS"))
    return 1 if problems else 0


def one_unit(wl, seed: int, size: str, work: Path):
    """Fresh inputs and one untimed unit of ``wl``: (inputs, outcomes)."""
    sys.path.insert(0, str(ROOT / "src"))
    import mdquant.cli as cli

    shutil.rmtree(work, ignore_errors=True)
    (work / "inputs").mkdir(parents=True)
    inputs = wl.prepare(cli, seed, size, work / "inputs")
    outcomes, _ = run_unit(cli, wl, inputs, work / "out")
    return inputs, outcomes


def tamper_checks(seed: int) -> list[str]:
    """Each workload's check must reject a deliberately broken result."""
    from workloads import WORKLOADS

    problems = []
    for name, wl in WORKLOADS.items():
        inputs, outcomes = one_unit(wl, seed, "smoke", WORK / f"tamper-{name}")
        good, values = wl.check(inputs, outcomes, None)
        # Field checks compare with a recorded value; record this run's own.
        reference = (
            {"d_av_db": values["d_av_db"], "stderr": values["stderr"]}
            if "stderr" in values else None
        )
        good += wl.check(inputs, outcomes, reference)[0]
        if good:
            problems.append(f"{name}: untampered result failed its check: {good}")
        for label, broken in wl.tampered(outcomes):
            if not wl.check(inputs, broken, reference)[0]:
                problems.append(f"{name}: check accepted a {label}")
            else:
                print(f"smoke tamper {name}: rejects a {label}")
    return problems


def record_reference(args) -> int:
    """Record the field workloads' d_av for the given seeds in reference.json."""
    from workloads import WORKLOADS

    table = json.loads(REFERENCE.read_text(encoding="utf-8")) if REFERENCE.exists() else {}
    for seed in args.record_reference:
        for name in ("field-soft-md40", "field-est-dist40"):
            wl = WORKLOADS[name]
            inputs, outcomes = one_unit(wl, seed, "full", WORK / f"record-{name}-{seed}")
            failures, values = wl.check(inputs, outcomes, None)
            if failures:
                return fail(f"{name} seed {seed}: {failures}")
            entry = {"d_av_db": values["d_av_db"], "stderr": values["stderr"]}
            table.setdefault(name, {})[str(seed)] = entry
            print(f"{name} seed {seed}: {entry}", flush=True)
            REFERENCE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n",
                                 encoding="utf-8")
    return 0


def main(argv=None) -> int:
    loadavg = os.getloadavg()
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full",
                        help="workload size; smoke is the tiny size --smoke uses")
    parser.add_argument("--all", action="store_true", help="run every workload, print one table")
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, checks and tracing")
    parser.add_argument("--record-reference", type=int, nargs="+", metavar="SEED",
                        help="record field-workload distortions for these seeds")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "mdquant" / "__init__.py").is_file():
        return fail(f"no mdquant sources under {ROOT / 'src'}; run from a full checkout")
    if not (ROOT / "BENCHMARK.json").is_file():
        return fail("BENCHMARK.json not found at the checkout root")
    if args.seed < 0:
        return fail("--seed must be non-negative")
    if args.seconds is None:
        args.seconds = load_spec()["run_seconds"]
    if args.smoke:
        return run_smoke(args)
    if args.record_reference:
        return record_reference(args)
    if args.all:
        return run_all(args)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        return fail(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    return run_workload(args, loadavg)


if __name__ == "__main__":
    sys.exit(main())
