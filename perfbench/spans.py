"""Outside-in layer tracing: span wrappers installed around mdquant's entry points.

A wrapper replaces each entry function where the calling module looks it
up, because several modules import functions by name (``simulator`` binds
``expected_partial_si_distortion``, ``pairwise_mi``, ``si_moment_matrices``
and ``_transmit_bsc``; ``si_select`` binds ``pattern_table``; ``codec`` and
``decode_sym`` bind ``gauss_interval_moments_batch``).  Patching only the
defining module would miss those calls.  ``_auto_t_init`` finds
``gibbs_update`` through the ``codec`` module globals, so one patch there
covers both of its callers.

Spans (name, start, end, parent) stay in memory and are written out when
the run ends; a span's self time is its duration minus its children's.
"""

from __future__ import annotations

import functools
import time
import tracemalloc
from collections import Counter, defaultdict

import numpy as np


class Recorder:
    """Spans and counters of one traced pass."""

    def __init__(self, track_memory: bool = False):
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.distinct: defaultdict = defaultdict(set)
        self.track_memory = track_memory
        self.sym_peak_bytes = 0

    def wrap(self, name, fn, note=None):
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if note is not None:
                note(rec, args, kwargs)
            idx = len(rec.spans)
            span = [name, 0.0, 0.0, rec.stack[-1] if rec.stack else -1]
            rec.spans.append(span)
            rec.stack.append(idx)
            span[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                rec.stack.pop()

        return wrapper

    def wrap_memory(self, fn):
        """Record the tracemalloc peak inside ``fn`` when memory tracking is on."""
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not rec.track_memory:
                return fn(*args, **kwargs)
            tracemalloc.start()
            try:
                return fn(*args, **kwargs)
            finally:
                rec.sym_peak_bytes = max(rec.sym_peak_bytes, tracemalloc.get_traced_memory()[1])
                tracemalloc.stop()

        return wrapper


# ---------------------------------------------------------------------------
# Counters noted at call time
# ---------------------------------------------------------------------------


def _note_moments(rec, args, kwargs):
    edges, means = args[0], args[1]
    rec.counts["moment_evals"] += int(np.size(means)) * (len(edges) - 1)


def _note_pattern(rec, args, kwargs):
    channels, q = args[0], args[1]
    rec.distinct["pattern_tables"].add(
        (tuple(channels), tuple(bool(v) for v in np.asarray(q, dtype=bool)))
    )


def _note_cross(rec, args, kwargs):
    rec.distinct["cross_rho"].add(float(args[2].rho))


# (module, attribute path, span name, counter hook). A dotted attribute path
# patches a method on a class.
ENTRY_POINTS = [
    ("cli", "main", "cli.main", None),
    ("cli", "_load_scenario_file", "cli.scenario_file", None),
    ("cli", "lloyd_design", "quantizer.lloyd_design", None),
    ("cli", "design_annealed", "codec.design_annealed", None),
    ("cli", "save_codec", "persist.save_codec", None),
    ("cli", "load_codec", "persist.load_codec", None),
    ("cli", "conditional_entropy_rates", "simulator.entropy_rates", None),
    ("cli", "generate_scenario", "simulator.generate_scenario", None),
    ("cli", "run_asym_experiment", "simulator.run_asym", None),
    ("cli", "run_sym_experiment", "simulator.run_sym", None),
    ("codec", "DesignContext.__init__", "codec.design_context", None),
    ("codec", "DesignContext.decoder_state", "codec.decoder_state", None),
    ("codec", "DesignContext.distortion", "codec.distortion", None),
    ("codec", "DesignContext.weights", "codec.weights", None),
    ("codec", "gibbs_update", "codec.gibbs_update", None),
    ("codec", "_auto_t_init", "codec.auto_t_init", None),
    ("codec", "_anneal_once", "codec.anneal_once", None),
    ("codec", "build_decoder_tables", "codec.build_decoder_tables", None),
    ("codec", "si_moment_matrices", "codec.si_moment_matrices", None),
    ("codec", "gauss_interval_moments_batch", "gaussian.moments_batch", _note_moments),
    ("decode_sym", "gauss_interval_moments_batch", "gaussian.moments_batch", _note_moments),
    ("gaussian", "gauss_interval_moments_batch", "gaussian.moments_batch", _note_moments),
    ("channel", "pattern_table", "channel.pattern_table", _note_pattern),
    ("si_select", "pattern_table", "channel.pattern_table", _note_pattern),
    ("decode_sym", "build_cross_tables", "decode_sym.build_cross_tables", _note_cross),
    ("simulator", "si_moment_matrices", "codec.si_moment_matrices", None),
    ("simulator", "conditional_entropy_rates", "simulator.entropy_rates", None),
    ("simulator", "expected_partial_si_distortion", "si_select.score", None),
    ("simulator", "pairwise_mi", "si_select.score", None),
    ("simulator", "select_min_distance", "si_select.min_distance", None),
    ("simulator", "_select_maps", "simulator.select_maps", None),
    ("simulator", "sample_correlated_sources", "simulator.sample_sources", None),
    ("simulator", "_transmit_bsc", "simulator.transmit", None),
    ("simulator", "_run_asym_awgn", "simulator.awgn_decode", None),
    ("simulator", "_AsymLookup.__init__", "simulator.asym_lookup", None),
    ("simulator", "_SymDecoder.__init__", "simulator.sym_decoder", None),
    ("simulator", "_SymDecoder.lik_rows", "simulator.lik_rows", None),
    ("simulator", "_SymDecoder.no_si_pass", "simulator.no_si_pass", None),
    ("simulator", "_SymDecoder.estimated_step", "simulator.estimated_step", None),
    ("simulator", "_SymDecoder.soft_prior", "simulator.soft_prior", None),
]


class Patches:
    """Installs the wrappers of one recorder and restores the originals."""

    def __init__(self, recorder: Recorder):
        self.recorder = recorder
        self.saved: list[tuple] = []

    def __enter__(self):
        import importlib

        for module, path, name, note in ENTRY_POINTS:
            owner = importlib.import_module(f"mdquant.{module}")
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = owner.__dict__[attr]
            wrapped = self.recorder.wrap(name, original, note)
            if (module, path) == ("cli", "run_sym_experiment"):
                wrapped = self.recorder.wrap_memory(wrapped)
            self.saved.append((owner, attr, original))
            setattr(owner, attr, wrapped)
        return self.recorder

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self.saved):
            setattr(owner, attr, original)
        self.saved.clear()
        return False


# ---------------------------------------------------------------------------
# Metrics derived from the spans
# ---------------------------------------------------------------------------


def self_times(spans) -> list[float]:
    """Duration of each span minus the durations of its direct children."""
    selfs = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            selfs[parent] -= end - start
    return selfs


def step_times_ms(spans) -> list[float]:
    """One annealing inner step: gibbs_update start to the next weights end.

    Only steps of the temperature loop count, not the entropy search of
    ``_auto_t_init``, which also calls ``gibbs_update``.
    """
    out = []
    pending = None
    for name, start, end, parent in spans:
        if name == "codec.gibbs_update" and parent >= 0 and spans[parent][0] == "codec.anneal_once":
            pending = start
        elif name == "codec.weights" and pending is not None:
            out.append(1e3 * (end - pending))
            pending = None
    return out


def summarize(rec: Recorder, wall: float, nodes: int) -> tuple[dict, dict]:
    """(per-layer metrics, exact counts) of one traced pass."""
    spans = rec.spans
    selfs = self_times(spans)
    calls: Counter = Counter()
    self_s: Counter = Counter()
    layer_self: Counter = Counter()
    for (name, *_), s in zip(spans, selfs):
        calls[name] += 1
        self_s[name] += s
        layer_self[name.split(".")[0]] += s

    # Share of the timed wall inside some span below the CLI layer.
    covered = sum(
        end - start
        for name, start, end, parent in spans
        if not name.startswith("cli.")
        and (parent < 0 or spans[parent][0].startswith("cli."))
    )
    steps = step_times_ms(spans)
    n_tables = len(rec.distinct["pattern_tables"])
    sweeps = 0.0
    if nodes:
        sweeps = calls["simulator.estimated_step"] / nodes
        if calls["simulator.soft_prior"]:
            # Each soft sweep asks every node for one prior; the final
            # reconstruction asks for two more per node.
            sweeps += calls["simulator.soft_prior"] / nodes - 2 * calls["simulator.run_sym"]

    counts = {f"calls.{k}": v for k, v in sorted(calls.items())}
    counts.update(
        moment_evals=rec.counts["moment_evals"],
        distinct_pattern_tables=n_tables,
        distinct_rho=len(rec.distinct["cross_rho"]),
    )
    metrics = {
        "codec.inner_steps": calls["codec.weights"],
        "codec.step_ms_p50": float(np.percentile(steps, 50)) if steps else 0.0,
        "codec.step_ms_p99": float(np.percentile(steps, 99)) if steps else 0.0,
        "codec.weights_s": self_s["codec.weights"],
        "codec.distortion_s": self_s["codec.distortion"],
        "codec.decoder_state_s": self_s["codec.decoder_state"],
        "codec.gibbs_update_s": self_s["codec.gibbs_update"],
        "codec.auto_t_init_s": self_s["codec.auto_t_init"],
        "codec.build_decoder_tables_s": self_s["codec.build_decoder_tables"],
        "codec.si_moment_matrices_s": self_s["codec.si_moment_matrices"],
        "codec.si_moment_matrices_calls": calls["codec.si_moment_matrices"],
        "gaussian.moments_batch_calls": calls["gaussian.moments_batch"],
        "gaussian.moments_batch_s": self_s["gaussian.moments_batch"],
        "gaussian.moment_evals": rec.counts["moment_evals"],
        "channel.pattern_table_calls": calls["channel.pattern_table"],
        "channel.pattern_table_s": self_s["channel.pattern_table"],
        "channel.pattern_table_reuse": (
            calls["channel.pattern_table"] / n_tables if n_tables else 0.0
        ),
        "decode_sym.cross_tables_built": calls["decode_sym.build_cross_tables"],
        "decode_sym.cross_tables_s": self_s["decode_sym.build_cross_tables"],
        "decode_sym.distinct_rho": len(rec.distinct["cross_rho"]),
        "si_select.score_calls": calls["si_select.score"],
        "si_select.score_s": self_s["si_select.score"],
        "simulator.select_maps_s": self_s["simulator.select_maps"],
        "simulator.soft_prior_calls": calls["simulator.soft_prior"],
        "simulator.soft_prior_s": self_s["simulator.soft_prior"],
        "simulator.estimated_step_calls": calls["simulator.estimated_step"],
        "simulator.estimated_step_s": self_s["simulator.estimated_step"],
        "simulator.decoder_sweeps": sweeps,
        "simulator.lik_rows_s": self_s["simulator.lik_rows"],
        "simulator.no_si_pass_s": self_s["simulator.no_si_pass"],
        "simulator.sample_sources_s": self_s["simulator.sample_sources"],
        "simulator.transmit_s": self_s["simulator.transmit"],
        "simulator.run_sym_self_s": self_s["simulator.run_sym"],
        "simulator.asym_lookup_s": self_s["simulator.asym_lookup"],
        "simulator.entropy_rates_s": self_s["simulator.entropy_rates"],
        "simulator.awgn_decode_s": self_s["simulator.awgn_decode"],
        "simulator.run_asym_self_s": self_s["simulator.run_asym"],
        "persist.load_codec_s": self_s["persist.load_codec"],
        "persist.save_codec_s": self_s["persist.save_codec"],
        "trace.span_coverage": covered / wall if wall > 0 else 0.0,
        "trace.spans": len(spans),
    }
    for layer in ("cli", "quantizer", "gaussian", "channel", "codec", "decode_sym",
                  "si_select", "simulator", "persist"):
        metrics[f"layer.{layer}_self_s"] = layer_self[layer]
    return metrics, counts


def span_cost_s(n: int = 20_000) -> float:
    """Measured cost of one span: a wrapped no-op call minus a bare one."""

    def noop():
        return None

    wrapped = Recorder().wrap("noop", noop)
    t0 = time.perf_counter()
    for _ in range(n):
        noop()
    t1 = time.perf_counter()
    for _ in range(n):
        wrapped()
    t2 = time.perf_counter()
    return max((t2 - t1) - (t1 - t0), 0.0) / n


def spans_json(rec: Recorder) -> list[dict]:
    t0 = rec.spans[0][1] if rec.spans else 0.0
    return [
        {"name": n, "start": s - t0, "end": e - t0, "parent": p}
        for n, s, e, p in rec.spans
    ]
