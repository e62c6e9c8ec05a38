"""Workloads: population recipes, designs and the size of one operation.

Populations come from the benchmark's own seeded numpy code, not from
``dualratio.synth``, and reach the program only as CSV files.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "mc" (run_monte_carlo), "enum" (enumerate_exact) or "cli" (cli.main simulate)
    N: int
    means: tuple  # y first, then the k auxiliaries
    cv: float  # coefficient of variation of every variable
    rho_yx: float
    rho_xx: float
    ns: tuple  # sample sizes; one round runs one operation per n
    reps: int  # Monte Carlo replicates per operation (0 for enumeration)
    workers: int

    @property
    def k(self) -> int:
        return len(self.means) - 1


_A5 = dict(means=(100.0, 80.0, 120.0), cv=0.15, rho_yx=0.7, rho_xx=0.4)

WORKLOADS = {
    w.name: w
    for w in (
        # Operations of two chunks (4000 rows each at N=2000) keep a round short.
        Workload("mc_survey", "mc", 2000, ns=(50, 100, 200), reps=8000, workers=1, **_A5),
        Workload(
            "mc_many_aux", "mc", 120,
            means=(100.0,) + tuple(float(m) for m in np.linspace(60.0, 150.0, 10)),
            cv=0.15, rho_yx=0.5, rho_xx=0.3, ns=(30,), reps=65536, workers=1,
        ),
        Workload("enum_exact", "enum", 24, ns=(7,), reps=0, workers=1, **_A5),
        Workload("cli_census", "cli", 50_000, ns=(20,), reps=8192, workers=2, **_A5),
    )
}

_STREAM_TAG = {name: i for i, name in enumerate(WORKLOADS)}


def population(w: Workload, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """(y, x) for the workload: a Gaussian draw with the target correlations,
    scaled to the target means and CV. z is clipped to +-6, so every value
    lies in [0.1, 1.9] times its mean and every estimator is defined on every
    sample, whatever the seed."""
    p = w.k + 1
    corr = np.full((p, p), w.rho_xx)
    corr[0, :] = corr[:, 0] = w.rho_yx
    np.fill_diagonal(corr, 1.0)
    rng = np.random.default_rng([int(seed), _STREAM_TAG[w.name]])
    z = rng.standard_normal((w.N, p)) @ np.linalg.cholesky(corr).T
    data = np.asarray(w.means) * (1.0 + w.cv * np.clip(z, -6.0, 6.0))
    return data[:, 0].copy(), data[:, 1:].copy()


def columns(w: Workload) -> tuple[str, list[str]]:
    return "y", [f"x{i + 1}" for i in range(w.k)]


def write_csv(path, w: Workload, y: np.ndarray, x: np.ndarray) -> None:
    """Unit-level CSV; repr() round-trips every float exactly."""
    ycol, xcols = columns(w)
    lines = [",".join([ycol, *xcols])]
    lines += [",".join(repr(float(v)) for v in (yv, *xv)) for yv, xv in zip(y, x)]
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write("\n".join(lines) + "\n")


def op_seed(seed: int, w: Workload, op: int) -> int:
    """Monte Carlo seed of operation ``op`` in a run with benchmark seed ``seed``."""
    ss = np.random.SeedSequence([int(seed), _STREAM_TAG[w.name], int(op)])
    return int(ss.generate_state(1)[0])
