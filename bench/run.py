"""Benchmark of the dualratio sampling harness.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. The program is imported from
``src/``; nothing is installed. Each workload runs in fresh processes
(see child.py); this process generates the inputs, times set-up, and checks
every result the program returned (see checks.py). The last line of standard
output is one JSON object: correct, attempted, failed, metrics. With
--trace 0 the metrics are the end-to-end ones, with --trace 1 the per-layer
ones from a separate traced run. README.md describes both.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from calib import REFERENCE_S, REFERENCE_START, REFERENCE_START_S
from checks import Truth, check_exact, check_monte_carlo, exact_reference
from workloads import WORKLOADS, population, write_csv

END_TO_END = {"samples_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}

PER_LAYER = {
    "cli.import_s": "s",
    "dataio.load_s": "s",
    "moments.compute_ms": "ms",
    "simulation.sample_us": "us",
    "simulation.sample_bytes": "B",
    "simulation.evaluate_us": "us",
    "simulation.evaluate_bytes": "B",
    "simulation.accumulate_us": "us",
    "simulation.subsets_us": "us",
    "simulation.rows_per_chunk": "count",
    "simulation.pool_speedup": "x",
    "simulation.pool_rate_w1": "1/s",
    "simulation.pool_rate_w2": "1/s",
    "simulation.finalize_ms": "ms",
    "simulation.step_coverage": "%",
    "dataio.render_ms": "ms",
    "trace.overhead_pct": "%",
}

#: Fresh processes timed for setup_s (after one untimed warm-up) and for cli.import_s.
SETUP_PROBES = 9
IMPORT_PROBES = 5

#: Measuring processes per untraced run, each for an equal share of --seconds:
#: each process keeps a rate of its own, a few per cent off the others.
MEASURE_PROCESSES = 5
OPS_PER_PROCESS = 1_000_000  # operation-number offset between them (distinct seeds)

#: Hard limit on the whole run, under the 180 s a run may take.
DEADLINE_S = 170.0

HERE = Path(__file__).resolve().parent


class BenchError(Exception):
    """The run cannot produce a result."""


class Runner:
    """Spawns the child processes of one run, all from the checkout root."""

    def __init__(self, root: Path, workload, csv: Path, seed: int, seconds: float):
        self.w, self.csv, self.seed, self.seconds = workload, csv, seed, seconds
        self.root = root
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.deadline = time.monotonic() + DEADLINE_S

    def _argv(self, mode, seconds=0.0, first_op=0):
        return [sys.executable, str(HERE / "child.py"), mode, self.w.name, str(self.csv),
                str(self.seed), repr(seconds), str(first_op)]

    def _finish(self, proc, what):
        try:
            out, _ = proc.communicate(timeout=max(1.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise BenchError(f"{what}: timed out")
        if proc.returncode != 0:
            raise BenchError(f"{what}: exit code {proc.returncode}")
        return out

    def _spawn_until_ready(self, mode, *args):
        """Start a child; return (seconds from spawn to READY, process)."""
        t0 = time.perf_counter()
        proc = subprocess.Popen(self._argv(mode, *args), cwd=self.root, env=self.env,
                                stdout=subprocess.PIPE, text=True)
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        if line.strip() != "READY":
            self._finish(proc, f"{mode} child")
            raise BenchError(f"{mode} child: expected READY, got {line.strip()!r}")
        return elapsed, proc

    def _reference_s(self) -> float:
        """Spawn-to-ready seconds of a bare interpreter that imports numpy."""
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", REFERENCE_START], cwd=self.root,
                                stdout=subprocess.PIPE, text=True)
        proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        self._finish(proc, "reference process")
        return elapsed

    def setup_s(self) -> float:
        """Median spawn-to-READY time of fresh set-up processes, rescaled by the
        median of reference processes started between them."""
        probes, refs = [], []
        for i in range(SETUP_PROBES + 1):
            elapsed, proc = self._spawn_until_ready("setup")
            self._finish(proc, "setup child")
            ref = self._reference_s()
            if i:  # the first one fills the file cache and writes bytecode
                probes.append(elapsed)
                refs.append(ref)
        return statistics.median(probes) / statistics.median(refs) * REFERENCE_START_S

    def import_s(self) -> float:
        """Median in-process time of ``import dualratio.cli``, rescaled the same way."""
        times, refs = [], []
        for _ in range(IMPORT_PROBES):
            proc = subprocess.Popen(self._argv("import"), cwd=self.root, env=self.env,
                                    stdout=subprocess.PIPE, text=True)
            times.append(float(self._finish(proc, "import child").strip()))
            refs.append(self._reference_s())
        return statistics.median(times) / statistics.median(refs) * REFERENCE_START_S

    def run_child(self, mode, seconds, first_op=0) -> dict:
        _, proc = self._spawn_until_ready(mode, seconds, first_op)
        out = self._finish(proc, f"{mode} child")
        return json.loads(out.strip().splitlines()[-1])


def check_results(w, y, x, results) -> tuple[int, list[str]]:
    """Check every operation's result; return (failed count, messages)."""
    truths = {n: Truth(y, n) for n in w.ns}
    refs = {}
    failed, messages = 0, []
    for item in results:
        n, res = item["n"], item["result"]
        if "error" in res:
            problems = [res["error"]]
        elif w.kind == "enum":
            if n not in refs:
                refs[n] = exact_reference(y, x, n, np.full(w.k, 1.0 / w.k))
            problems = check_exact(res, refs[n], truths[n])
        else:
            problems = check_monte_carlo(res, truths[n], w.reps,
                                         control_variate=w.kind != "cli")
        if problems:
            failed += 1
            messages += [f"op {item['op']} (n={n}): {p}" for p in problems]
    return failed, messages


def _metric(value, unit):
    return {"value": float(value), "unit": unit}


def end_to_end(runner: Runner) -> tuple[dict, list]:
    setup = runner.setup_s()
    parts = [runner.run_child("measure", runner.seconds / MEASURE_PROCESSES, i * OPS_PER_PROCESS)
             for i in range(MEASURE_PROCESSES)]
    round_s = [t for part in parts for t in part["round_s"]]
    per_round = parts[0]["samples_per_round"]
    rate = per_round / statistics.median(round_s)
    kernel = statistics.median([k for part in parts for k in part["kernel_s"]])
    print(f"{runner.w.name}: {len(round_s)} rounds of {per_round} samples in "
          f"{MEASURE_PROCESSES} processes; {rate:.6g} samples/s at reference speed, "
          f"{rate * REFERENCE_S / kernel:.6g} as timed (kernel median {1e3 * kernel:.2f} ms)",
          flush=True)
    metrics = {
        "samples_per_s": _metric(rate, END_TO_END["samples_per_s"]),
        "setup_s": _metric(setup, END_TO_END["setup_s"]),
        "peak_rss_mb": _metric(max(p["peak_rss_kb"] for p in parts) / 1024.0,
                               END_TO_END["peak_rss_mb"]),
    }
    return metrics, [item for part in parts for item in part["results"]]


def per_layer(runner: Runner) -> tuple[dict, list]:
    data = runner.run_child("trace", runner.seconds)
    layers = dict(data["layers"])
    layers["cli.import_s"] = runner.import_s()
    notes = list(data["notes"])
    for name in PER_LAYER:
        if name not in layers:
            layers[name] = 0.0
    print(f"{runner.w.name} traced: {data['traced_per_s']:.6g} samples/s traced, "
          f"{data['untraced_per_s']:.6g} untraced (both at workers=1)", flush=True)
    for name in PER_LAYER:
        print(f"  {name:28s} {layers[name]:14.6g} {PER_LAYER[name]}")
    for note in notes:
        print(f"  note: {note}")
    return {name: _metric(layers[name], unit) for name, unit in PER_LAYER.items()}, data["results"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "dualratio" / "__init__.py").is_file():
        print(f"error: {root} holds no src/dualratio; run from the root of a source checkout",
              file=sys.stderr)
        return 2
    w = WORKLOADS[args.workload]
    outdir = HERE / "out"
    outdir.mkdir(exist_ok=True)
    csv = outdir / f"{w.name}-{args.seed}-{os.getpid()}.csv"
    y, x = population(w, args.seed)
    write_csv(csv, w, y, x)
    runner = Runner(root, w, csv, args.seed, args.seconds)
    try:
        metrics, results = (per_layer if args.trace else end_to_end)(runner)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        for path in outdir.glob(f"{csv.stem}*"):
            path.unlink()
    failed, messages = check_results(w, y, x, results)
    for message in messages[:20]:
        print(f"check failed: {message}")
    print(json.dumps({"correct": failed == 0, "attempted": len(results), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
