"""SRSWOR sampling, Monte Carlo replication, and exact subset enumeration.

Determinism contract
--------------------
Replicates are processed in fixed-size chunks. The chunk size is a function
of the population size only, and chunk c draws from its own generator seeded
from (seed, c), so the stream never depends on the worker count. Within a
chunk, per-replicate deviations are reduced with numpy's pairwise summation
(deterministic for a fixed array); across chunks the partial sums are
combined with math.fsum (exact). The result is therefore bit-identical for
identical (inputs, R, seed) at any parallelism degree.

Sampling uses a partial Fisher-Yates shuffle of the index array (first n
positions), which makes every n-subset equiprobable in bounded time.
"""

from __future__ import annotations

import itertools
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import ModeMismatch, NegativeWeight, TooLarge, TooManyInvalid
from .model import MomentMode, Population, SampleDesign, SampleIndices, Weights
from .moments import MomentSet
from . import analytics

#: Hard cap on the number of subsets enumerate_exact will visit.
SUBSET_CAP = 2_000_000

#: Replicate fraction above which invalid estimates abort a Monte Carlo run.
INVALID_FRACTION_LIMIT = 0.10

_CHUNK_CELL_BUDGET = 8_000_000  # index-array cells (replicates x N) per chunk


def _chunk_size(N: int) -> int:
    # A function of N only: results must never depend on worker count.
    return max(256, min(32768, _CHUNK_CELL_BUDGET // max(N, 1)))


def _chunk_rng(seed: int, chunk_index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=(int(seed), int(chunk_index))))


def _sample_index_matrix(N: int, n: int, rng: np.random.Generator, rows: int) -> np.ndarray:
    """``rows`` sorted SRSWOR index vectors, via vectorized partial Fisher-Yates."""
    j = rng.integers(low=np.arange(n), high=N, size=(rows, n))
    arr = np.tile(np.arange(N, dtype=np.int32), (rows, 1))
    take = np.arange(rows)
    for i in range(n):
        col = j[:, i]
        tmp = arr[take, col]          # fancy indexing copies
        arr[take, col] = arr[:, i].copy()
        arr[:, i] = tmp
    out = arr[:, :n].copy()
    out.sort(axis=1)
    return out


def draw_srswor(design: SampleDesign, rng: np.random.Generator) -> SampleIndices:
    """Draw one SRSWOR sample; every n-subset of {0..N-1} is equiprobable."""
    idx = _sample_index_matrix(design.N, design.n, rng, 1)[0]
    return SampleIndices(tuple(int(v) for v in idx))


def estimator_names(k: int) -> tuple[str, ...]:
    """Fixed estimator order used by the simulation results."""
    return ("mean",) + tuple(f"ratio({i + 1})" for i in range(k)) + ("ap", "gp", "hp", "product")


def estimates_for_samples(
    pop: Population, design: SampleDesign, w: Weights, idx: np.ndarray
) -> tuple[tuple[str, ...], np.ndarray, np.ndarray]:
    """Evaluate every estimator on a batch of samples.

    ``idx`` is an integer matrix (B, n) of unit indices (any row order; rows
    are sorted internally). Returns (names, values, valid) where values and
    valid have shape (B, len(names)); invalid entries are NaN.
    """
    idx = np.sort(np.asarray(idx, dtype=np.int64), axis=1)
    vals, valid, _ = _evaluate_batch(pop.y, pop.x, pop.xbar, design.g, w.alpha, idx)
    return estimator_names(pop.k), vals, valid


def _evaluate_batch(
    y: np.ndarray,
    x: np.ndarray,
    xbar_pop: np.ndarray,
    g: float,
    alpha: np.ndarray,
    idx: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Estimates (B, k+5) with their validity mask, plus the per-replicate
    linear term g * alpha'e of the control variate (see ``_accumulate``)."""
    B = idx.shape[0]
    k = x.shape[1]
    m = k + 5
    vals = np.full((B, m), np.nan)
    valid = np.zeros((B, m), dtype=bool)

    ybar = y[idx].mean(axis=1)
    xbars = x[idx].mean(axis=1)  # (B, k)

    vals[:, 0] = ybar
    valid[:, 0] = True

    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for i in range(k):
            ok = xbars[:, i] != 0.0
            col = 1 + i
            vals[ok, col] = ybar[ok] * xbar_pop[i] / xbars[ok, i]
            valid[:, col] = ok

        xstar = xbar_pop + g * (xbar_pop - xbars)  # (B, k)
        base = (xstar != 0.0).all(axis=1)
        r = ybar[:, None] / xstar
        terms = r * xbar_pop

        ap = terms @ alpha
        vals[base, k + 1] = ap[base]
        valid[:, k + 1] = base

        pos = base & (terms > 0.0).all(axis=1)
        valid[:, k + 2] = pos
        hp_valid = pos.copy()
        if pos.any():
            pterms = terms[pos]
            vals[pos, k + 2] = np.exp(np.log(pterms) @ alpha)
            recip = (alpha / pterms).sum(axis=1)
            ok = recip != 0.0
            hvals = np.full(pterms.shape[0], np.nan)
            hvals[ok] = 1.0 / recip[ok]
            vals[pos, k + 3] = hvals
            hp_valid[pos] = ok
        valid[:, k + 3] = hp_valid

        prod = terms.prod(axis=1)
        vals[base, k + 4] = prod[base]
        valid[:, k + 4] = base

        glin = g * ((xbars / xbar_pop - 1.0) @ alpha)

    vals[~valid] = np.nan
    return vals, valid, glin


#: Estimators whose first-order expansion is the control variate L.
CV_ESTIMATORS = ("ap", "gp", "hp")


def _accumulate(vals: np.ndarray, valid: np.ndarray, ybar_true: float, glin: np.ndarray):
    """Per-estimator (count, sum d, sum d^2, sum d^4) with d = estimate - ybar_true,
    plus control-variate sums for the CV_ESTIMATORS columns.

    The control is the shared first-order expansion L = Ybar (1 + e0 + g alpha'e)
    with e0 = ybar/Ybar - 1 and e_i = xbar_i/Xbar_i - 1, so that
    l = L - Ybar = (ybar - Ybar) + Ybar * glin. For each CV column the sums are
    (sum c, sum c^2, sum q, sum q^2) with c = estimate - L and
    q = d^2 - l^2 = c (d + l). A replicate where the estimator is undefined
    makes its sums NaN; _finalize then reports no control-variate figures.
    """
    m = vals.shape[1]
    counts = np.zeros(m, dtype=np.int64)
    s1 = np.zeros(m)
    s2 = np.zeros(m)
    s4 = np.zeros(m)
    for col in range(m):
        mask = valid[:, col]
        counts[col] = int(mask.sum())
        if counts[col]:
            d = vals[mask, col] - ybar_true
            dd = d * d
            s1[col] = float(np.sum(d))
            s2[col] = float(np.sum(dd))
            s4[col] = float(np.sum(dd * dd))
    lin = (vals[:, 0] - ybar_true) + ybar_true * glin
    cv = np.zeros((4, len(CV_ESTIMATORS)))
    for j in range(len(CV_ESTIMATORS)):
        # columns end with ap, gp, hp, product (see estimator_names)
        d = vals[:, m - 4 + j] - ybar_true
        c = d - lin
        q = c * (d + lin)
        cv[:, j] = (np.sum(c), np.sum(c * c), np.sum(q), np.sum(q * q))
    return counts, s1, s2, s4, cv


def _mc_chunk(args):
    (y, x, xbar_pop, ybar_true, g, alpha, N, n, seed, chunk_index, rows) = args
    rng = _chunk_rng(seed, chunk_index)
    idx = _sample_index_matrix(N, n, rng, rows)
    vals, valid, glin = _evaluate_batch(y, x, xbar_pop, g, alpha, idx)
    return _accumulate(vals, valid, ybar_true, glin)


@dataclass(frozen=True)
class EstimatorStats:
    """Aggregates for one estimator over the replicate (or subset) set.

    ``se_bias``/``se_mse`` are Monte Carlo standard errors; exact enumeration
    results carry 0.0 there. Replicates where the estimator was undefined are
    excluded from the aggregates and counted in ``invalid``.

    ``bias_cv``/``mse_cv`` (with standard errors ``se_bias_cv``/``se_mse_cv``)
    are control-variate estimates of the same bias and MSE, given for ap/gp/hp.
    The control is the shared first-order expansion
    L = Ybar (1 + e0 + g alpha'e), which is linear in the sample means and so
    has E[L] = Ybar and Var(L) = (1/n - 1/N) S_u^2 exactly under SRSWOR (see
    ``control_variance``):

        bias_cv = mean(estimate - L)
        mse_cv  = (1/n - 1/N) S_u^2 + mean((estimate - Ybar)^2 - (L - Ybar)^2)

    Under exact enumeration they equal ``bias``/``mse`` up to rounding and
    their standard errors are 0.0. The four fields are None for the other
    estimators and whenever ``invalid > 0`` (the control's mean over the valid
    replicates is then not Ybar). The raw fields are unchanged by them, and no
    rendered output (text, csv or json) includes them.
    """

    name: str
    used: int
    invalid: int
    mean_estimate: float
    bias: float
    mse: float
    se_bias: float
    se_mse: float
    bias_cv: float | None = None
    mse_cv: float | None = None
    se_bias_cv: float | None = None
    se_mse_cv: float | None = None


@dataclass(frozen=True)
class SimResult:
    """Sampling-distribution summary per estimator.

    ``requested`` is R for Monte Carlo and the subset count for enumeration;
    ``exact`` marks enumeration results.
    """

    requested: int
    seed: int | None
    exact: bool
    ybar_true: float
    weights: tuple[float, ...]
    estimators: tuple[EstimatorStats, ...]

    def by_name(self, name: str) -> EstimatorStats:
        for est in self.estimators:
            if est.name == name:
                return est
        raise KeyError(name)


def _mean_and_se(total: float, total_sq: float, used: int, exact: bool) -> tuple[float, float]:
    """Mean of ``used`` values from their sum and sum of squares, with the
    Monte Carlo standard error of that mean (0.0 for exact enumeration)."""
    mean = total / used
    if exact:
        return mean, 0.0
    if used < 2:
        return mean, float("nan")
    var = max(total_sq - total * total / used, 0.0) / (used - 1)
    return mean, math.sqrt(var / used)


def _finalize(
    pop: Population, design: SampleDesign, w: Weights, partials, total, *, seed, exact,
    invalid_limit=None,
) -> SimResult:
    names = estimator_names(pop.k)
    ybar_true = pop.ybar
    control_var = control_variance(pop, design, w)
    stats = []
    for col in range(len(names)):
        used = int(sum(p[0][col] for p in partials))
        s1 = math.fsum(p[1][col] for p in partials)
        s2 = math.fsum(p[2][col] for p in partials)
        s4 = math.fsum(p[3][col] for p in partials)
        invalid = total - used
        if used == 0:
            bias = mse = mean_est = float("nan")
            se_b = se_m = float("nan")
        else:
            bias, se_b = _mean_and_se(s1, s2, used, exact)
            mse, se_m = _mean_and_se(s2, s4, used, exact)
            mean_est = ybar_true + bias
        cv_fields = {}
        if names[col] in CV_ESTIMATORS and invalid == 0:
            j = CV_ESTIMATORS.index(names[col])
            cols = [p[4][:, j] for p in partials]
            # The control is undefined (non-finite) when some Xbar_i is zero.
            if all(np.isfinite(c).all() for c in cols):
                c1, c2, q1, q2 = (math.fsum(c[r] for c in cols) for r in range(4))
                bias_cv, se_bias_cv = _mean_and_se(c1, c2, used, exact)
                dq, se_mse_cv = _mean_and_se(q1, q2, used, exact)
                cv_fields = dict(bias_cv=bias_cv, mse_cv=control_var + dq,
                                 se_bias_cv=se_bias_cv, se_mse_cv=se_mse_cv)
        stats.append(
            EstimatorStats(
                name=names[col],
                used=used,
                invalid=invalid,
                mean_estimate=mean_est,
                bias=bias,
                mse=mse,
                se_bias=se_b,
                se_mse=se_m,
                **cv_fields,
            )
        )
    result = SimResult(
        requested=total,
        seed=seed,
        exact=exact,
        ybar_true=ybar_true,
        weights=tuple(float(a) for a in w.alpha),
        estimators=tuple(stats),
    )
    if invalid_limit is not None:
        for est in result.estimators:
            if est.invalid > invalid_limit * total:
                raise TooManyInvalid(
                    f"estimator {est.name}: {est.invalid}/{total} replicates invalid "
                    f"(limit {invalid_limit:.0%}); the population is ill-suited to it"
                )
    return result


def _check_inputs(pop: Population, design: SampleDesign, w: Weights) -> None:
    if design.N != pop.N:
        raise ValueError(f"design N={design.N} does not match population N={pop.N}")
    if w.k != pop.k:
        raise ValueError(f"weights have k={w.k} but population has k={pop.k}")
    if not w.nonneg:
        raise NegativeWeight(
            "geometric/harmonic estimation is undefined for negative weights; "
            "simulation evaluates every estimator"
        )


def control_variance(pop: Population, design: SampleDesign, w: Weights) -> float:
    """Exact SRSWOR variance of the control L = Ybar (1 + e0 + g alpha'e).

    L - Ybar is the sample-mean deviation of u_j = y_j + Ybar g sum_i alpha_i
    x_ji / Xbar_i, so Var(L) = (1/n - 1/N) S_u^2 with the N-1 divisor. Computed
    from the population itself (whatever ``design.mode``), it equals the shared
    first-order MSE ``mse_dual_common`` in exact-SRSWOR mode.
    """
    ybar = pop.ybar
    with np.errstate(divide="ignore", invalid="ignore"):
        u = pop.y + ybar * design.g * ((pop.x / pop.xbar) @ w.alpha)
    return (1.0 / design.n - 1.0 / design.N) * float(np.var(u, ddof=1))


def run_monte_carlo(
    pop: Population,
    design: SampleDesign,
    w: Weights,
    R: int,
    seed: int,
    *,
    workers: int = 1,
) -> SimResult:
    """R independent SRSWOR replicates; every estimator evaluated on each.

    Replicates where the geometric/harmonic (or ratio/dual) preconditions
    fail are excluded from those estimators' aggregates and counted; if any
    estimator loses more than 10% of replicates the run aborts with
    TooManyInvalid. Output is bit-identical for identical (inputs, R, seed)
    regardless of ``workers``.
    """
    if R < 1:
        raise ValueError("R must be >= 1")
    _check_inputs(pop, design, w)
    chunk = _chunk_size(pop.N)
    n_chunks = (R + chunk - 1) // chunk
    # Everything but the chunk index and row count is the same for every task.
    shared = (pop.y, pop.x, pop.xbar, pop.ybar, design.g, w.alpha, pop.N, design.n, int(seed))
    tasks = [shared + (c, min(chunk, R - c * chunk)) for c in range(n_chunks)]
    workers = min(workers, n_chunks)
    if workers <= 1:
        partials = [_mc_chunk(t) for t in tasks]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            partials = list(pool.map(_mc_chunk, tasks))
    return _finalize(pop, design, w, partials, R, seed=int(seed), exact=False,
                     invalid_limit=INVALID_FRACTION_LIMIT)


def enumerate_exact(pop: Population, design: SampleDesign, w: Weights) -> SimResult:
    """Visit every n-subset once: the exact sampling distribution.

    Raises TooLarge when C(N, n) exceeds SUBSET_CAP. Subsets where the
    geometric/harmonic preconditions fail are excluded from those estimators
    and counted (the exclusion fraction is visible as invalid/requested).
    """
    _check_inputs(pop, design, w)
    total = math.comb(pop.N, design.n)
    if total > SUBSET_CAP:
        raise TooLarge(f"C({pop.N},{design.n}) = {total} exceeds the cap {SUBSET_CAP}")
    y, x, xbar, ybar_true = pop.y, pop.x, pop.xbar, pop.ybar
    chunk = _chunk_size(pop.N)
    subsets = itertools.combinations(range(pop.N), design.n)
    partials = []
    while True:
        block = list(itertools.islice(subsets, chunk))
        if not block:
            break
        idx = np.array(block, dtype=np.int64)
        vals, valid, glin = _evaluate_batch(y, x, xbar, design.g, w.alpha, idx)
        partials.append(_accumulate(vals, valid, ybar_true, glin))
    return _finalize(pop, design, w, partials, total, seed=None, exact=True)


@dataclass(frozen=True)
class GapRow:
    """Analytic-vs-empirical comparison for one (estimator, quantity) pair.

    ``rel_gap`` is relative to the empirical value (None when that is zero);
    ``gap_se`` is the gap in Monte Carlo standard-error units (None for exact
    results).
    """

    estimator: str
    quantity: str  # "bias" or "mse"
    analytic: float
    empirical: float
    abs_gap: float
    rel_gap: float | None
    gap_se: float | None


def compare_analytic_empirical(m: MomentSet, sim: SimResult) -> tuple[GapRow, ...]:
    """Per-estimator gaps between first-order analytics and the simulated
    (or enumerated) sampling distribution.

    The moments must be in exact-SRSWOR mode: paper-literal moments would be
    off by the factor theta across the board.
    """
    if m.mode is MomentMode.PAPER_LITERAL:
        raise ModeMismatch("comparison requires SRSWOR_EXACT moments, got PAPER_LITERAL")
    table = analytics.compare_all(m, Weights(np.asarray(sim.weights)))
    analytic = {r.estimator: (r.bias, r.mse) for r in table.rows if r.mse is not None}

    rows = []
    for est in sim.estimators:
        if est.name not in analytic:
            continue
        (a_bias, a_mse) = analytic[est.name]
        for quantity, a_val, e_val, se in (
            ("bias", a_bias, est.bias, est.se_bias),
            ("mse", a_mse, est.mse, est.se_mse),
        ):
            gap = abs(a_val - e_val)
            rel = (gap / abs(e_val)) if e_val != 0.0 else None
            in_se = None
            if not sim.exact and se and math.isfinite(se) and se > 0.0:
                in_se = gap / se
            rows.append(
                GapRow(
                    estimator=est.name,
                    quantity=quantity,
                    analytic=a_val,
                    empirical=e_val,
                    abs_gap=gap,
                    rel_gap=rel,
                    gap_se=in_se,
                )
            )
    return tuple(rows)
