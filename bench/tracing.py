"""The traced run: per-layer figures from wrapping the program's functions.

Layers are the program's modules. The per-chunk steps (drawing index rows,
evaluating the estimators, accumulating) have no public entry point, so they
are timed by wrapping the ``simulation`` functions that ``run_monte_carlo``
and ``enumerate_exact`` call for each chunk. Wrapping replaces the module
attribute, so it sees every call made in this process; the traced
operations therefore run with workers=1. A function that no longer exists is
reported as not measured, and the run goes on.
"""

from __future__ import annotations

import itertools
import time
import tracemalloc
from collections import defaultdict

import numpy as np

from calib import Clock

SAMPLER, EVALUATE, ACCUMULATE, FINALIZE = (
    "_sample_index_matrix", "_evaluate_batch", "_accumulate", "_finalize")

#: Rows of a call, read from its arguments (used for per-row bytes and chunk size).
_ROWS = {
    SAMPLER: lambda args, kwargs: kwargs["rows"] if "rows" in kwargs else args[3],
    EVALUATE: lambda args, kwargs: (kwargs["idx"] if "idx" in kwargs else args[5]).shape[0],
    ACCUMULATE: lambda args, kwargs: (kwargs["vals"] if "vals" in kwargs else args[0]).shape[0],
}

#: Lowest share of run_monte_carlo's time the per-step spans may leave unexplained.
MIN_COVERAGE = 0.95


def _rows_of(name, args, kwargs):
    try:
        return int(_ROWS[name](args, kwargs))
    except (KeyError, IndexError, AttributeError, TypeError):
        return 0


class Spans:
    """Totals of time, calls and rows per wrapped function, plus the largest
    tracemalloc peak per row when ``memory`` is set."""

    def __init__(self, memory=False):
        self.memory = memory
        self.time = defaultdict(float)
        self.calls = defaultdict(int)
        self.rows = defaultdict(int)
        self.bytes_per_row = defaultdict(float)
        self._undo = []

    def wrap(self, module, name):
        fn = getattr(module, name, None)
        if fn is None:
            return False

        def wrapped(*args, **kwargs):
            if self.memory:
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.time[name] += time.perf_counter() - t0
                self.calls[name] += 1
                rows = _rows_of(name, args, kwargs) if name in _ROWS else 0
                self.rows[name] += rows
                if self.memory and rows:
                    peak = tracemalloc.get_traced_memory()[1] - base
                    self.bytes_per_row[name] = max(self.bytes_per_row[name], peak / rows)

        setattr(module, name, wrapped)
        self._undo.append((module, name, fn))
        return True

    def unwrap(self):
        for module, name, fn in reversed(self._undo):
            setattr(module, name, fn)
        self._undo.clear()


def _wrap_all(h, spans):
    """Wrap every layer boundary; return the names found missing."""
    sim, dataio = h.simulation, h.dataio
    top = "enumerate_exact" if h.w.kind == "enum" else "run_monte_carlo"
    wanted = [(sim, top), (sim, SAMPLER), (sim, EVALUATE), (sim, ACCUMULATE), (sim, FINALIZE),
              (sim, "compare_analytic_empirical"), (dataio, "render_rows")]
    return [f"{m.__name__.rsplit('.', 1)[-1]}.{name}" for m, name in wanted
            if not spans.wrap(m, name)]


def _rate(h, round_s):
    return sum(h.samples(n) for n in h.w.ns) / float(np.median(round_s))


def _median_s(clock, fn, repeats):
    """Median raw seconds of ``repeats`` calls, with a kernel run after each."""
    out = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        out.append(time.perf_counter() - t0)
        clock.tick()
    return float(np.median(out))


def trace(h, seed, seconds):
    w = h.w
    metrics, notes, results = {}, [], []
    pooled = w.kind != "enum"

    # A: rounds at workers=1, untraced and traced in turn, in the order
    # ABBA, so that machine drift and the round's place cancel in the overhead.
    spans = Spans()
    clock = Clock()
    untraced_s, traced_s = [], []
    op, ops_traced, missing = 0, 0, []
    t_end = time.perf_counter() + (0.75 if pooled else 1.0) * seconds
    for i in itertools.count():
        for wrapped in (False, True) if i % 2 == 0 else (True, False):
            if wrapped:
                missing = _wrap_all(h, spans)
            try:
                t, res, op = h.rounds(seed, 0.0, clock, [1], first_op=op)
            finally:
                spans.unwrap()
            (traced_s if wrapped else untraced_s).extend(t[1])
            results += res
            ops_traced += len(res) if wrapped else 0
        if time.perf_counter() >= t_end:
            break
    scale = clock.scale()
    untraced = _rate(h, untraced_s) / scale
    traced = _rate(h, traced_s) / scale
    metrics["trace.overhead_pct"] = 100.0 * (untraced / traced - 1.0)

    # B: untraced rounds at workers=2 where the workload has a pool. Pool
    # rounds get a block of their own: put in turn with workers=1 rounds in
    # one process, both read far slower than in separate blocks.
    if pooled:
        clock = Clock()
        t, res, op = h.rounds(seed, 0.25 * seconds, clock, [2], first_op=op)
        results += res
        metrics["simulation.pool_rate_w1"] = untraced
        metrics["simulation.pool_rate_w2"] = _rate(h, t[2]) / clock.scale()
        metrics["simulation.pool_speedup"] = metrics["simulation.pool_rate_w2"] / untraced
    else:
        notes.append("simulation.pool_*: not measured, enumerate_exact has no worker pool")
    samples = ops_traced // len(w.ns) * sum(h.samples(n) for n in w.ns)
    scaled = {name: total * scale for name, total in spans.time.items()}

    def per_sample_us(name):
        return 1e6 * scaled.get(name, 0.0) / samples

    def per_op_ms(*names):
        return 1e3 * sum(scaled.get(n, 0.0) for n in names) / ops_traced

    top = "enumerate_exact" if w.kind == "enum" else "run_monte_carlo"
    steps = (SAMPLER, EVALUATE, ACCUMULATE)
    for metric, name in zip(("simulation.sample_us", "simulation.evaluate_us",
                             "simulation.accumulate_us"), steps):
        metrics[metric] = per_sample_us(name)
        if spans.calls[name] == 0 and f"simulation.{name}" not in missing:
            notes.append(f"{metric}: not called on this workload")
    if w.kind == "enum":
        metrics["simulation.subsets_us"] = (
            per_sample_us(top) - per_sample_us(EVALUATE) - per_sample_us(ACCUMULATE)
            - per_sample_us(FINALIZE))
        chunk_fn = EVALUATE
        notes.append("simulation.step_coverage: not measured, subsets_us is the remainder")
    else:
        metrics["simulation.subsets_us"] = 0.0
        notes.append("simulation.subsets_us: not called, Monte Carlo draws no subsets")
        chunk_fn = SAMPLER
        covered = sum(scaled.get(n, 0.0) for n in (*steps, FINALIZE))
        coverage = covered / scaled[top] if scaled.get(top) else 0.0
        metrics["simulation.step_coverage"] = 100.0 * coverage
        notes.append(f"coverage check: steps cover {coverage:.1%} of {top} "
                     f"({'ok' if coverage >= MIN_COVERAGE else 'LOW'}, limit {MIN_COVERAGE:.0%})")
    metrics.setdefault("simulation.step_coverage", 0.0)
    metrics["simulation.rows_per_chunk"] = (
        spans.rows[chunk_fn] / spans.calls[chunk_fn] if spans.calls[chunk_fn] else 0.0)
    metrics["simulation.finalize_ms"] = per_op_ms(FINALIZE, "compare_analytic_empirical")
    metrics["dataio.render_ms"] = per_op_ms("render_rows")

    # C: one traced round under tracemalloc for the per-row peaks
    mem = Spans(memory=True)
    for m, name in ((h.simulation, SAMPLER), (h.simulation, EVALUATE)):
        mem.wrap(m, name)
    tracemalloc.start()
    try:
        _, res, op = h.rounds(seed, 0.0, clock, [1], first_op=op)
    finally:
        tracemalloc.stop()
        mem.unwrap()
    results += res
    metrics["simulation.sample_bytes"] = mem.bytes_per_row[SAMPLER]
    metrics["simulation.evaluate_bytes"] = mem.bytes_per_row[EVALUATE]

    # D: reading the population and computing moments, through public functions
    import dualratio

    clock = Clock()
    load_s = _median_s(clock, lambda: h.dataio.load_population_csv(h.csv, h.ycol, h.xcols), 5)
    pop = h.dataio.load_population_csv(h.csv, h.ycol, h.xcols)
    design = dualratio.SampleDesign(pop.N, w.ns[0])
    compute_s = _median_s(clock, lambda: dualratio.compute_moments(pop, design), 21)
    metrics["dataio.load_s"] = load_s * clock.scale()
    metrics["moments.compute_ms"] = 1e3 * compute_s * clock.scale()

    for name in missing:
        notes.append(f"{name}: not measured, the function no longer exists")
    return {"layers": metrics, "notes": notes, "results": results,
            "untraced_per_s": untraced, "traced_per_s": traced}

