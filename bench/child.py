"""One fresh process that runs the program on one workload.

    python3 bench/child.py MODE WORKLOAD CSV SEED SECONDS FIRST_OP

MODE is one of
  import   time ``import dualratio.cli``, print it, exit;
  setup    set up (import, read and validate the population, moments,
           weights), print READY, exit;
  measure  set up, print READY, run whole rounds of operations for SECONDS,
           numbered from FIRST_OP, print one JSON line with the round times
           and every result;
  trace    set up, print READY, run rounds with and without the layer
           functions wrapped (see tracing.py), print one JSON line with the
           per-layer figures.

The parent times spawn-to-READY and checks every result; this process runs
no check. Times sent back are scaled to reference machine speed by the
calibration kernel runs between rounds (see calib.py).
"""

# Only sys, time and math come before the program's import, so that it is timed whole.
import math
import sys
import time


def _import_program(kind):
    t0 = time.perf_counter()
    if kind == "cli":
        import dualratio.cli  # noqa: F401
    else:
        import dualratio  # noqa: F401
    return time.perf_counter() - t0


class _Ready(Exception):
    """Raised at the entry of the first sampling call: set-up is over."""


class Harness:
    """The program set up for one workload, and its operations."""

    def __init__(self, w, csv):
        import dualratio
        from dualratio import dataio, simulation

        from workloads import columns

        self.w, self.csv = w, csv
        self.simulation, self.dataio = simulation, dataio
        self.ycol, self.xcols = columns(w)
        self.entry = None
        if w.kind == "cli":
            import dualratio.cli as cli

            self.cli = cli
            # cli.main does its own set-up; it ends where sampling begins.
            real = simulation.run_monte_carlo
            simulation.run_monte_carlo = self._stop
            try:
                cli.main(self._argv(w.ns[0], 1, 0, w.workers))
            except _Ready:
                pass
            else:
                raise SystemExit("cli.main returned before reaching run_monte_carlo")

            def entry(*args, **kwargs):
                self.entry = time.perf_counter()
                return real(*args, **kwargs)

            simulation.run_monte_carlo = entry
        else:
            pop = dualratio.load_population_csv(csv, self.ycol, self.xcols)
            issues = dualratio.validate_population(pop)
            if issues:
                raise SystemExit(f"population invalid: {issues}")
            self.pop = pop
            self.designs = {n: dualratio.SampleDesign(pop.N, n) for n in w.ns}
            self.moments = {n: dualratio.compute_moments(pop, d) for n, d in self.designs.items()}
            self.weights = dualratio.Weights.equal(pop.k)

    @staticmethod
    def _stop(*args, **kwargs):
        raise _Ready

    def _argv(self, n, reps, seed, workers, out=None):
        argv = ["simulate", "--data", self.csv, "--y", self.ycol, "--x", ",".join(self.xcols),
                "--n", str(n), "--reps", str(reps), "--seed", str(seed),
                "--workers", str(workers), "--format", "csv"]
        return argv + (["--out", out] if out else [])

    def samples(self, n):
        return math.comb(self.w.N, n) if self.w.kind == "enum" else self.w.reps

    def op(self, n, seed, workers):
        """One call into the program, timed from the first sample to the
        rendered result. Returns (seconds, result dict for the checks)."""
        sim_mod, dataio = self.simulation, self.dataio
        if self.w.kind == "cli":
            out = f"{self.csv[:-len('.csv')]}-out{workers}.csv"
            self.entry = None
            code = self.cli.main(self._argv(n, self.w.reps, seed, workers, out))
            if code != 0 or self.entry is None:
                return 0.0, {"error": f"cli.main exit code {code}"}
            elapsed = time.perf_counter() - self.entry
            return elapsed, _parse_cli_csv(out, self.w.reps)
        t0 = time.perf_counter()
        try:
            if self.w.kind == "enum":
                sim = sim_mod.enumerate_exact(self.pop, self.designs[n], self.weights)
            else:
                sim = sim_mod.run_monte_carlo(self.pop, self.designs[n], self.weights,
                                              self.w.reps, seed, workers=workers)
            gaps = sim_mod.compare_analytic_empirical(self.moments[n], sim)
            dataio.render_table(sim, "csv")
            dataio.render_table(gaps, "csv")
        except Exception as exc:  # a failed operation is counted, not fatal
            return 0.0, {"error": f"{type(exc).__name__}: {exc}"}
        return time.perf_counter() - t0, _sim_dict(sim)

    def rounds(self, seed, seconds, clock, workers_list, first_op=0):
        """Whole rounds until ``seconds`` have passed, with a calibration
        kernel run after each. A round runs one operation per sample size,
        once per worker count in ``workers_list``. Returns (raw round seconds
        per worker count, results, next operation index)."""
        from workloads import op_seed

        times = {wk: [] for wk in workers_list}
        results = []
        op = first_op
        t_end = time.perf_counter() + seconds
        while True:
            for wk in workers_list:
                total = 0.0
                for n in self.w.ns:
                    elapsed, res = self.op(n, op_seed(seed, self.w, op), wk)
                    results.append({"n": n, "op": op, "result": res})
                    op += 1
                    total += elapsed
                times[wk].append(total)
                clock.tick()
            if time.perf_counter() >= t_end:
                return times, results, op


_STAT_FIELDS = ("used", "invalid", "mean_estimate", "bias", "se_bias", "mse", "se_mse",
                "bias_cv", "se_bias_cv", "mse_cv", "se_mse_cv")


def _sim_dict(sim):
    return {
        "requested": sim.requested,
        "rows": {e.name: {f: getattr(e, f) for f in _STAT_FIELDS if hasattr(e, f)}
                 for e in sim.estimators},
    }


def _parse_cli_csv(path, reps):
    import csv

    def num(text, cast=float):
        return cast(text) if text != "" else None

    rows = {}
    with open(path, newline="", encoding="utf-8") as handle:
        for rec in csv.DictReader(handle):
            rows[rec["estimator"]] = {
                "used": num(rec["used"], int),
                "invalid": num(rec["invalid"], int),
                "bias": num(rec["emp_bias"]),
                "se_bias": num(rec["se_bias"]),
                "mse": num(rec["emp_mse"]),
                "se_mse": num(rec["se_mse"]),
            }
    # the csv does not carry R; the per-row ``used`` counts are checked
    return {"requested": reps, "rows": rows}


def _peak_rss_kb():
    import resource

    return max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
               resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)


def measure(h, seed, seconds, first_op):
    from calib import Clock

    clock = Clock()
    times, results, _ = h.rounds(seed, seconds, clock, [h.w.workers], first_op)
    scale = clock.scale()
    return {
        "round_s": [t * scale for t in times[h.w.workers]],
        "samples_per_round": sum(h.samples(n) for n in h.w.ns),
        "peak_rss_kb": _peak_rss_kb(),
        "kernel_s": clock.samples,
        "results": results,
    }


def main(argv):
    mode, wname, csv, seed, seconds, first_op = argv
    if mode == "import":
        print(repr(_import_program("cli")), flush=True)
        return 0
    from workloads import WORKLOADS

    w = WORKLOADS[wname]
    _import_program(w.kind)
    h = Harness(w, csv)
    print("READY", flush=True)
    if mode == "setup":
        return 0
    if mode == "measure":
        payload = measure(h, int(seed), float(seconds), int(first_op))
    elif mode == "trace":
        from tracing import trace

        payload = trace(h, int(seed), float(seconds))
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    import json

    print(json.dumps(payload), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
