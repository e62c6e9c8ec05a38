"""Shared fixtures and seeded generators for the test suite.

The toy-population recipe used by the enumeration-oracle tests is fixed here:
k = 2 auxiliaries, target means (100 | 50, 200), all coefficients of
variation 0.15, target correlations rho_yx = 0.7 and rho_xx = 0.3, one seed
per population size. The seeds were chosen once so that every realized
pairwise correlation is positive and all ratio terms stay strictly positive
on every subset (checked by the tests that use them).
"""

from __future__ import annotations

import multiprocessing.process

import numpy as np
import pytest

from dualratio import (
    MomentMode,
    Population,
    SampleDesign,
    Weights,
    bundled_summary_stats,
    compute_moments,
)
from dualratio import simulation
from dualratio.synth import correlated_population, population_from_correlation

TOY_SEEDS = {8: 11, 10: 12, 12: 15}


def toy_population(N: int) -> Population:
    """One of the fixed small populations used against the enumeration oracle."""
    return correlated_population(
        N,
        ybar=100.0,
        xbar=(50.0, 200.0),
        cv_y=0.15,
        cv_x=0.15,
        rho_yx=0.7,
        rho_xx=0.3,
        seed=TOY_SEEDS[N],
    )


def synthetic_population_2000() -> Population:
    """The fixed N=2000, k=2 population for first-order accuracy checks."""
    return correlated_population(
        2000,
        ybar=100.0,
        xbar=(80.0, 120.0),
        cv_y=0.15,
        cv_x=0.15,
        rho_yx=0.7,
        rho_xx=0.4,
        seed=101,
    )


def evaluate_batch(y, x, xbar_pop, g, alpha, idx):
    """simulation._evaluate_batch into fresh arrays of idx's rows."""
    B = idx.shape[0]
    vals = np.empty((B, 1 + x.shape[1] + len(simulation._TAIL)), order="F")
    return simulation._evaluate_batch(y, x, xbar_pop, g, alpha, idx, vals, np.empty(B))


def random_population(rng: np.random.Generator, N: int | None = None, k: int | None = None):
    """Random positively-correlated population via a one-factor loading model."""
    N = int(N if N is not None else rng.integers(30, 120))
    k = int(k if k is not None else rng.integers(1, 5))
    lam = rng.uniform(0.35, 0.9, size=k + 1)
    corr = np.outer(lam, lam)
    np.fill_diagonal(corr, 1.0)
    means = rng.uniform(20.0, 500.0, size=k + 1)
    cvs = rng.uniform(0.05, 0.35, size=k + 1)
    return population_from_correlation(N, means, cvs, corr, rng)


def random_moments(rng: np.random.Generator, k: int | None = None,
                   mode: MomentMode = MomentMode.SRSWOR_EXACT):
    """Random MomentSet derived from a random population (all invariants hold)."""
    pop = random_population(rng, k=k)
    n = int(rng.integers(2, pop.N))
    return compute_moments(pop, SampleDesign(N=pop.N, n=n, mode=mode))


def random_nonneg_weights(rng: np.random.Generator, k: int) -> Weights:
    """Nonnegative weights bounded away from zero (sum exactly 1 up to rounding)."""
    body = rng.dirichlet(np.full(k, 2.0))
    return Weights(0.05 / k + 0.95 * body)


def random_affine_weights(rng: np.random.Generator, k: int) -> Weights:
    """Weights summing to 1 with components of either sign."""
    z = rng.normal(size=k)
    return Weights(z - (z.sum() - 1.0) / k)


@pytest.fixture
def table41():
    return bundled_summary_stats()


@pytest.fixture
def rng():
    return np.random.default_rng(20240913)


@pytest.fixture
def process_starts(monkeypatch):
    """The processes started while the test runs, counted at BaseProcess.start."""
    starts = []
    real_start = multiprocessing.process.BaseProcess.start

    def counting_start(self):
        starts.append(self)
        return real_start(self)

    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", counting_start)
    return starts


@pytest.fixture
def pool_always(monkeypatch):
    """Lift the work cap and report two CPUs, so that a run with workers >= 2
    and two or more chunks starts a pool however small it is."""
    monkeypatch.setattr(simulation, "_POOL_CELLS_PER_WORKER", 1)
    monkeypatch.setattr(simulation, "_cpus_available", lambda: 2)
