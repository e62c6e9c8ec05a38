"""SRSWOR sampling, Monte Carlo replication, and exact subset enumeration.

Determinism contract
--------------------
Monte Carlo and enumeration run one task, _chunk, on each fixed-size chunk
of index rows, which chunk c draws from a generator seeded from (seed, c),
or with no seed lists from subset rank c * chunk on (see Enumeration). The
chunk size is a function of N only, so the rows never depend on the worker
count. Within a chunk, per-replicate deviations are reduced with numpy's
pairwise summation (deterministic for a fixed array) to one array of sums;
across chunks those arrays are added cell by cell with math.fsum, which is
exact and so does not depend on the order of the chunks. The result is
therefore bit-identical for identical (inputs, R, seed) at any worker count.
Every sample mean adds its n units in order onto 0.0 and divides by n, over
index rows or down enumeration's prefix tree alike (see Enumeration), so at
every n both give the same means of the same rows, bit for bit.
An enumeration's chunk leaves the sums that only standard errors read (sum
d^4, sum c^2 and sum q^2 of _accumulate) at 0.0, since its standard errors are
0.0; its other figures are those of the full sums, bit for bit, except that
its control-variate figures then need only sum c and sum q to be finite.

Sampling
--------
One method, exact: every n-subset is equally likely. It draws m = min(n,
N - n) labels a row; where 2 n > N the sample is the complement of those m.
Whether it complements is a function of (N, n) alone, so it too is part of
the stream.

Each row is m labels drawn with replacement from range(N), sorted; then,
round by round, every cell equal to its left neighbour is drawn again (one
call for all such cells, in row order) and its row sorted again, until no
row holds a repeat. A round finds the repeated cells once, as flat indices,
writes their draws there, and gathers, sorts and writes back only the rows
that held one. The process commutes with every relabelling of range(N), so
the law of the final m-set is invariant under all permutations, which act
transitively on m-subsets: it is uniform (Knuth, TAOCP vol. 2, 3.4.2). A
redrawn cell repeats one of its row's other labels with probability below
m / N <= 1/2, so every round at least halves the repeats expected, and with
m < N/4 fewer than one cell in eight repeats a label on average. Taking the
complement is a bijection from m-subsets onto (N - m)-subsets, so the
complement of a uniform m-subset is a uniform n-subset. It is read off a
(rows, N) mask with the drawn labels cleared, in ascending order per row.

Labels are drawn, sorted and returned as uint16 where N <= 4096 and as
int32 above. numpy's bounded draw (Lemire, ACM TOMS 2019) is exact at either
width and takes its slow modulo on about N / 2^bits of the draws; 2-byte rows
halve what the sorts, _repeats and the round gathers move. From N of about
6000 up the 16-bit modulo costs more than that saves (0.92x at N = 6000 and
n = 20, 0.51x at N = 50,000). The dtype is a function of N alone, and a
16-bit draw is a different stream from a 32-bit one, so it too is part of
the stream.

Sizes
-----
Chunk rows are _CHUNK_CELL_BUDGET // N, clamped to [2048, 32768]: every N
above 3906 gets 2048-row chunks, so that per-chunk costs (a generator, numpy
calls, the accumulation) stay spread over many rows at census N. The
complement's mask takes rows x N bytes: with 2 n > N that is less than the
rows x n output of 2-byte labels (N <= 4096), and less than half of the
int32 output above, so it needs no bound of its own.
_sample_means gathers the sample means from Population.table, whose C-ordered
row holds a unit's y and k auxiliaries, zero-padded to at least 4 columns
(32-byte rows, which numpy's take copies faster than 24-byte ones). It takes
one block of rows at a time, of _GATHER_BLOCK_CELLS table cells (rows x n x
width), at least 16 rows so that a huge n does not fall to one-row blocks.
Each block casts its rows to intp once, as (n, rows), and sums the (n, rows,
width) gather (1 MiB, in cache) over its outer axis, which numpy adds unit by
unit onto initial=0.0. One whole-chunk cast would double the indices held at
once and raise peak RSS (README, Performance). The estimator kernel copies
the study means into the first column of the estimates, then runs
_KERNEL_BLOCK_ROWS rows at a time and writes each block's slice of one
Fortran-ordered (B, k+5) array: one contiguous column per estimator, which
_accumulate reads. A block copies its sample means into a (k, rows) layout,
one contiguous row per auxiliary, against which Xbar and alpha broadcast as
(k, 1) columns and ybar as a (rows,) row, with the long axis inner. Its three
(k, rows) arrays (that copy, xstar and the terms) are made once a call, so
that the heap does not fault them in again for every block. Each row's
estimates depend on that row alone (an undefined estimate is an np.where to
NaN), so the blocks change no result, wherever they cut. Every sum over a
row's k auxiliaries (ap's, gp's log-sum, hp's reciprocal sum, the control's
alpha'e and control_variance's u) is a _fold of the products with alpha:
added in order onto 0.0 by IEEE multiply and add alone, which round the same
on every CPU, where a BLAS gemv adds them in an order that its CPU kernel
picks. The product and the two all are taken in order over the k rows too.
A run makes one vals and one glin, of its first and largest chunk's rows, and
every chunk, Monte Carlo or enumeration, writes into their first rows:
_run_chunks puts them in the run's shared task prefix, so that each pool
worker has its own copy and no two runs share them. Made afresh, they would
be freed after every chunk, and where glibc gave them back to the system the
next chunk would fault them in again. _subset_means makes its sums afresh,
level by level: at the leaves the sums and one gathered table row a subset.
_accumulate takes a column's deviations into one of two scratch columns of
rows floats, which every column reuses for its powers, c and q, and scans a
column for NaN only where its sum of deviations is NaN. One (rows, k+5) array
of deviations (1.8 MB at 32,768 rows and k = 2) is slower: its sum d and
sum d^2 by sum(axis=0), the same sums bit for bit, took 4.6x as long.

Workers
-------
``workers`` is an upper bound. A run uses at most one process per chunk, per
CPU available to it, and per _POOL_CELLS_PER_WORKER replicate x n cells of
work, because a fresh process spends tens of milliseconds on its first chunk.
A run that gets one worker runs in the calling process; enumerate_exact asks
for one. By the contract above, none of this changes a result.
The pool's modules (concurrent.futures, multiprocessing and 30 more) load on
the first run in a process that starts a pool, not with the package: they
were 32 of the 50 modules that import dualratio added to numpy's, and 12 of
the 25 ms that import dualratio.cli took after numpy.

Enumeration
-----------
enumerate_exact visits the n-subsets in lexicographic order (that of
itertools.combinations) in chunks of _chunk_size(N) rows, and sums each
chunk's sample means down the prefix tree (Knuth, TAOCP 4A, 7.2.1.3). The
subsets that share their first i elements are contiguous, and a subset's sum
is its parent prefix's sum plus one unit's row of the table; a prefix whose
i-th element is c has the children c' in (c, N - n + i]. _subset_means finds
the chunk's first and last rows from their ranks (among the subsets that
share a row's first i elements, C(N - 1 - c, n - i) have an i-th element
above c, so the row's i-th element is the smallest c with at most that many
of them after the row), then expands, level by level, the prefixes from the
first row's to the last row's. Only a level's first and last nodes can lose
children to the chunk's ends, so a slice takes them off. A chunk so gathers
about one table row a subset, against n over index rows, and builds no
(rows, n) block of indices.

The sums start from 0.0 and add the units in order, as _sample_means does, so
at every n the means are those of _sample_means over the same rows, bit for
bit. The chunk boundaries are those of reading itertools.combinations
_chunk_size(N) rows at a time, so _accumulate adds the same rows in the same
order; and since a chunk is a function of its first rank, chunks need not be
built in order.
"""

from __future__ import annotations

import bisect
import math
import numbers
import os
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import ModeMismatch, NegativeWeight, TooLarge, TooManyInvalid
from .model import MomentMode, Population, SampleDesign, Weights
from .moments import MomentSet
from . import analytics

#: Hard cap on the number of subsets enumerate_exact will visit.
SUBSET_CAP = 2_000_000

#: Replicate fraction above which invalid estimates abort a Monte Carlo run.
INVALID_FRACTION_LIMIT = 0.10

# Cells (replicates x N) per chunk, which fixes the replicates per chunk within
# [2048, 32768]; that chunk size is part of the random stream (chunk c draws
# from (seed, c)). The floor holds from N = 3907 up.
_CHUNK_CELL_BUDGET = 8_000_000


def _chunk_size(N: int) -> int:
    # A function of N only: results must never depend on worker count.
    return max(2048, min(32768, _CHUNK_CELL_BUDGET // max(N, 1)))


#: Table cells (rows x n x width) that _sample_means gathers at a time; a
#: block has at least 16 rows (see Sizes in the module docstring).
_GATHER_BLOCK_CELLS = 1 << 17

#: Rows that the estimator kernel of _evaluate_batch runs on at a time. With its
#: work space made once a call (see Sizes in the module docstring), a
#: 32,768-row chunk took ~1.35x as long in blocks of 4096 rows, at k = 2 and
#: 10, and ~1.1x in blocks of 16,384 at k = 10.
_KERNEL_BLOCK_ROWS = 8192

#: Replicate x n cells of work per pool process. A pool of 2 lost about 50 ms
#: to one process at 160,000 cells and gained from about 1M (2 cores; README).
_POOL_CELLS_PER_WORKER = 500_000


def _cpus_available() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity on this platform
        return os.cpu_count() or 1


def _sample_index_matrix(N: int, n: int, rng: np.random.Generator, rows: int) -> np.ndarray:
    """``rows`` sorted SRSWOR index vectors: m = min(n, N - n) labels a row by
    redrawing repeated cells, complemented where 2 n > N (see Sampling in the
    module docstring)."""
    m = min(n, N - n)
    label = np.uint16 if N <= 4096 else np.int32  # part of the stream (see Sampling)
    out = rng.integers(0, N, (rows, m), dtype=label)
    out.sort(axis=1)
    flat = out.reshape(-1)
    cells = _repeats(flat, m)
    while cells.size:
        flat[cells] = rng.integers(0, N, cells.size, dtype=label)
        redo = cells // m
        redo = redo[np.diff(redo, prepend=-1) != 0]  # the rows that held a repeat
        sub = out[redo]
        sub.sort(axis=1)
        out[redo] = sub
        local = _repeats(sub.reshape(-1), m)
        cells = redo[local // m] * m + local % m
    if m == n:
        return out
    keep = np.ones((rows, N), dtype=bool)
    np.put_along_axis(keep, out, False, axis=1)
    labels = np.broadcast_to(np.arange(N, dtype=label), keep.shape)
    return labels[keep].reshape(rows, n)  # each row's kept labels, ascending


def _repeats(flat: np.ndarray, n: int) -> np.ndarray:
    """Ascending flat indices of the cells of ``flat``, sorted rows of n, that
    equal their left neighbour."""
    eq = flat[1:] == flat[:-1]
    eq[n - 1::n] = False  # the first cell of a row has no left neighbour
    cells = np.flatnonzero(eq)
    cells += 1
    return cells


#: The last columns of every _evaluate_batch result, after the mean and the k
#: classic ratios; _AP.._PRODUCT are their negative column indices.
_TAIL = ("ap", "gp", "hp", "product")
_AP, _GP, _HP, _PRODUCT = range(-len(_TAIL), 0)

#: Estimators whose first-order expansion is the control variate L.
CV_ESTIMATORS = ("ap", "gp", "hp")
#: Their columns in the estimator_names order, as negative indices.
_CV_COLUMNS = tuple(_TAIL.index(name) - len(_TAIL) for name in CV_ESTIMATORS)


def estimator_names(k: int) -> tuple[str, ...]:
    """Fixed estimator order used by the simulation results."""
    return ("mean",) + tuple(f"ratio({i + 1})" for i in range(k)) + _TAIL


def _fold(a: np.ndarray) -> np.ndarray:
    """The sum of the rows of a (k, ...) array, added in order onto 0.0: the
    one order of every sum over the k auxiliaries (see Sizes)."""
    total = np.zeros(a.shape[1:])
    for row in a:
        total += row
    return total


def _sample_means(table: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """The (B, width) means of the rows of Population ``table`` over each index
    row of ``idx``, gathered one block of rows at a time (see Sizes in the
    module docstring): a row's n units added in order onto 0.0."""
    B, n = idx.shape
    means = np.empty((B, table.shape[1]))
    step = max(16, _GATHER_BLOCK_CELLS // (n * table.shape[1]))
    for first in range(0, B, step):
        last = min(first + step, B)
        blk = idx[first:last].T.astype(np.intp, order="C")  # (n, rows): units in order
        table.take(blk, axis=0).sum(axis=0, out=means[first:last], initial=0.0)
    means /= n
    return means


def _subset_means(table: np.ndarray, n: int, start: int, rows: int) -> np.ndarray:
    """The (rows, width) means of the rows of Population ``table`` over the
    n-subsets of range(N) of ranks start .. start + rows - 1, in the order of
    itertools.combinations, summed down the prefix tree (see Enumeration in
    the module docstring): _sample_means over those subsets, bit for bit."""
    N = table.shape[0]
    # the elements of the chunk's first and last rows, from the subsets after each
    total, first, last = math.comb(N, n), [], []
    for row, after in ((first, total - 1 - start), (last, total - start - rows)):
        for i in range(n):
            c = i + bisect.bisect_left(range(i, N - n + i + 1), -after,
                                       key=lambda c: -math.comb(N - 1 - c, n - i))
            after -= math.comb(N - 1 - c, n - i)
            row.append(c)
    node = np.arange(first[0], last[0] + 1)
    sums = table.take(node, axis=0) + 0.0  # onto 0.0, as _sample_means adds
    for i in range(1, n):
        top = N - n + i  # the largest admissible i-th element
        cnt = top - node  # a node's children are node + 1 .. top
        ends = np.cumsum(cnt)
        # only the first and last nodes can lose children to the chunk's ends
        lo, hi = first[i] - first[i - 1] - 1, ends[-1] - (top - last[i])
        node = np.arange(lo + top + 1, hi + top + 1) - np.repeat(ends, cnt)[lo:hi]
        sums = np.repeat(sums, cnt, axis=0)[lo:hi]
        sums += table.take(node, axis=0)
    sums /= n
    return sums


def _evaluate_batch(
    table: np.ndarray,
    xbar_pop: np.ndarray,
    g: float,
    alpha: np.ndarray,
    vals: np.ndarray,
    idx: np.ndarray,
    glin: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Writes into ``vals`` (B, k+5) the estimates over the index rows ``idx``
    of Population ``table``, NaN where an estimator is undefined and one
    contiguous column per estimator, and into ``glin`` (B,) the per-replicate
    linear term g * alpha'e of the control variate (see ``_accumulate``);
    returns both."""
    return vals, _estimate(_sample_means(table, idx), xbar_pop, g, alpha, vals, glin)


def _estimate(means: np.ndarray, xbar_pop: np.ndarray, g: float, alpha: np.ndarray,
              vals: np.ndarray, glin: np.ndarray) -> np.ndarray:
    """The estimator kernel of _evaluate_batch and of enumeration: from the
    sample means of a Population table's rows, writes ybar into the first
    column of ``vals``, the other estimates into the others, and g * alpha'e
    into ``glin``, which it returns, one kernel block at a time (see Sizes)."""
    B, k = vals.shape[0], xbar_pop.size
    vals[:, 0] = means[:, 0]
    xbars = means[:, 1:1 + k]
    X, A = xbar_pop[:, None], alpha[:, None]  # (k, 1) columns, as the blocks' rows
    work = np.empty((3, X.size, min(B, _KERNEL_BLOCK_ROWS)))  # one block's work space
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for first in range(0, B, _KERNEL_BLOCK_ROWS):
            last = min(first + _KERNEL_BLOCK_ROWS, B)
            glin[first:last] = _kernel_block(vals[first:last, 0], xbars[first:last], X, A, g,
                                             vals[first:last].T, work[:, :, :last - first])
    return glin


def _kernel_block(yb: np.ndarray, xbars: np.ndarray, X: np.ndarray, A: np.ndarray, g: float,
                  out: np.ndarray, work: np.ndarray) -> np.ndarray:
    """One kernel block of _estimate: writes the ratio and _TAIL rows of
    ``out``, the block's (k+5, rows) estimates, and returns g * alpha'e. ``X``
    and ``A`` are Xbar and alpha as (k, 1) columns. ``work`` (3, k, rows) takes
    the sample means ``xbars`` as (k, rows), one row per auxiliary, then xstar
    and the terms."""
    xb, xstar, terms = work
    np.copyto(xb, xbars.T)
    k = xb.shape[0]
    ratio = np.multiply(yb, X, out=out[1:1 + k])
    ratio /= xb
    ratio[xb == 0.0] = np.nan
    np.subtract(X, xb, out=xstar)  # Xbar + g (Xbar - xbar)
    xstar *= g
    xstar += X
    base = (xstar != 0.0).all(axis=0)
    np.divide(yb, xstar, out=terms)  # ybar / xstar * Xbar
    terms *= X
    pos = base & (terms > 0.0).all(axis=0)  # the log of a nonpositive term is masked out
    prod = terms[0].copy()
    for t in terms[1:]:
        prod *= t
    out[_PRODUCT] = np.where(base, prod, np.nan)
    e = np.divide(xb, X, out=xstar)
    e -= 1.0
    glin = g * _fold(np.multiply(e, A, out=e))
    # xstar's buffer takes the other products with alpha, each summed by _fold
    out[_AP] = np.where(base, _fold(np.multiply(terms, A, out=xstar)), np.nan)
    recip = _fold(np.divide(A, terms, out=xstar))
    out[_HP] = np.where(pos & (recip != 0.0), 1.0 / recip, np.nan)
    logs = np.log(terms, out=xstar)
    out[_GP] = np.where(pos, np.exp(_fold(np.multiply(logs, A, out=logs))), np.nan)
    return glin


def _accumulate(vals: np.ndarray, ybar_true: float, glin: np.ndarray,
                exact: bool = False) -> np.ndarray:
    """The chunk's sums, one (k+5, 8) row per estimator: (count, sum d,
    sum d^2, sum d^4) over its non-NaN estimates, with d = estimate - ybar_true,
    then control-variate sums for the CV_ESTIMATORS rows and NaN elsewhere.

    The control is the shared first-order expansion L = Ybar (1 + e0 + g alpha'e)
    with e0 = ybar/Ybar - 1 and e_i = xbar_i/Xbar_i - 1, so that
    l = L - Ybar = (ybar - Ybar) + Ybar * glin. For each CV row the sums are
    (sum c, sum c^2, sum q, sum q^2) with c = estimate - L and
    q = d^2 - l^2 = c (d + l). A replicate where the estimator is undefined
    makes its sums NaN; _finalize then reports no control-variate figures.
    A sum that overflows is inf or NaN, which _merge makes NaN.

    d goes into one of two scratch columns that every column reuses, for its
    powers, c and q; ``vals`` is not written. A column is scanned for NaN, and
    its d compressed, only where sum d is NaN: a column with no NaN has the sums
    of compressing first, and one whose sum d is NaN from +inf and -inf alone
    finds no NaN and keeps them. With ``exact`` (an enumeration, whose standard
    errors are 0.0) sum d^4, sum c^2 and sum q^2, which only standard errors
    read, are 0.0.
    """
    sums = np.full((vals.shape[1], 8), np.nan)
    d, t = np.empty((2, vals.shape[0]))  # the two scratch columns
    with np.errstate(over="ignore", invalid="ignore"):
        for col, v in enumerate(vals.T):
            dv = np.subtract(v, ybar_true, out=d)
            s1 = dv.sum()
            if math.isnan(s1):  # a NaN estimate, or +inf and -inf
                nan = np.isnan(v)
                if nan.any():
                    dv = d[~nan]
                    s1 = dv.sum()
            dd = np.multiply(dv, dv, out=t[:dv.size])
            s2 = dd.sum()
            s4 = 0.0 if exact else np.multiply(dd, dd, out=dd).sum()
            sums[col, :4] = (dv.size, s1, s2, s4)
        lin = np.subtract(vals[:, 0], ybar_true)
        lin += np.multiply(ybar_true, glin, out=t)
        for col in _CV_COLUMNS:
            np.subtract(vals[:, col], ybar_true, out=d)
            c = np.subtract(d, lin, out=t)
            q = np.multiply(c, np.add(d, lin, out=d), out=d)  # c (d + l)
            c1, q1 = c.sum(), q.sum()  # before c and q are squared in place
            c2 = 0.0 if exact else np.multiply(c, c, out=c).sum()
            q2 = 0.0 if exact else np.multiply(q, q, out=q).sum()
            sums[col, 4:] = (c1, c2, q1, q2)
    return sums


def _merge(partials: list[np.ndarray]) -> np.ndarray:
    """The chunks' arrays of sums added cell by cell with math.fsum. The sum
    is exact, so the order of the chunks does not matter. A cell with a
    non-finite part, or whose sum exceeds the float64 range, is NaN."""
    parts = np.stack(partials)
    cells = parts.reshape(len(partials), -1).T.tolist()
    return np.reshape([_exact_sum(c) for c in cells], parts.shape[1:])


def _exact_sum(cell: list[float]) -> float:
    if not all(map(math.isfinite, cell)):
        return math.nan
    try:
        return math.fsum(cell)
    except OverflowError:  # the exact sum is beyond the float64 range
        return math.nan


def _chunk(shared: tuple, c: int, rows: int) -> np.ndarray:
    """Chunk c's array of sums over ``rows`` index rows, drawn from the generator
    of (seed, c), or with no seed the n-subsets from rank c * chunk on, with
    their estimates in the first ``rows`` rows of the run's vals and glin."""
    table, xbar_pop, ybar_true, g, alpha, n, seed, chunk, vals, glin = shared
    vals, glin = vals[:rows], glin[:rows]
    if seed is None:
        _estimate(_subset_means(table, n, c * chunk, rows), xbar_pop, g, alpha, vals, glin)
    else:
        idx = _sample_index_matrix(table.shape[0], n, np.random.default_rng((seed, c)), rows)
        _evaluate_batch(table, xbar_pop, g, alpha, vals, idx, glin)
    return _accumulate(vals, ybar_true, glin, exact=seed is None)


_worker_shared: tuple = ()


def _set_worker_shared(shared: tuple) -> None:
    """Pool initializer: keep the run's shared task prefix in the worker."""
    global _worker_shared
    _worker_shared = shared


def _worker_chunk(tail: tuple) -> np.ndarray:
    return _chunk(_worker_shared, *tail)


@dataclass(frozen=True)
class EstimatorStats:
    """Aggregates for one estimator over the replicate (or subset) set.

    ``se_bias``/``se_mse`` are Monte Carlo standard errors; exact enumeration
    results carry 0.0 there. Replicates where the estimator was undefined (a
    NaN estimate) are excluded from the aggregates and counted in ``invalid``.

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
    ``exact`` marks enumeration results, the ones with no ``seed``.
    """

    requested: int
    seed: int | None
    exact: bool = field(init=False)
    ybar_true: float
    weights: tuple[float, ...]
    estimators: tuple[EstimatorStats, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "exact", self.seed is None)

    def by_name(self, name: str) -> EstimatorStats:
        for est in self.estimators:
            if est.name == name:
                return est
        raise KeyError(name)


def _mean_and_se(total: float, total_sq: float, used: int, exact: bool) -> tuple[float, float]:
    """Mean of ``used`` values from their sum and sum of squares, with the
    Monte Carlo standard error of that mean (0.0 for exact enumeration).
    total * (total / used) is at most total_sq up to rounding (Cauchy-Schwarz),
    so unlike total * total it does not overflow where total_sq does not."""
    mean = total / used
    if exact:
        return mean, 0.0
    if used < 2:
        return mean, float("nan")
    var = max(total_sq - total * (total / used), 0.0) / (used - 1)
    return mean, math.sqrt(var / used)


def _finalize(pop: Population, design: SampleDesign, w: Weights, partials, total,
              seed) -> SimResult:
    exact = seed is None  # an enumeration: standard errors 0.0, and no invalid limit
    control_var = control_variance(pop, design, w)
    stats = []
    for name, row in zip(estimator_names(pop.k), _merge(partials).tolist()):
        used, s1, s2, s4, c1, c2, q1, q2 = row
        used = int(used)
        invalid = total - used
        if used == 0:
            bias = mse = mean_est = float("nan")
            se_b = se_m = float("nan")
        else:
            bias, se_b = _mean_and_se(s1, s2, used, exact)
            mse, se_m = _mean_and_se(s2, s4, used, exact)
            mean_est = pop.ybar + bias
        cv_fields = {}
        # NaN for the other estimators, and where the control is undefined
        # (non-finite) because some Xbar_i is zero.
        if invalid == 0 and all(map(math.isfinite, row[4:])):
            bias_cv, se_bias_cv = _mean_and_se(c1, c2, used, exact)
            dq, se_mse_cv = _mean_and_se(q1, q2, used, exact)
            cv_fields = dict(bias_cv=bias_cv, mse_cv=control_var + dq,
                             se_bias_cv=se_bias_cv, se_mse_cv=se_mse_cv)
        stats.append(
            EstimatorStats(
                name=name,
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
        ybar_true=pop.ybar,
        weights=tuple(float(a) for a in w.alpha),
        estimators=tuple(stats),
    )
    if not exact:
        for est in result.estimators:
            if est.invalid > INVALID_FRACTION_LIMIT * total:
                raise TooManyInvalid(
                    f"estimator {est.name}: {est.invalid}/{total} replicates invalid "
                    f"(limit {INVALID_FRACTION_LIMIT:.0%}); the population is ill-suited to it"
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
    # sum_i alpha_i x_ji / Xbar_i as the kernel adds it (see Sizes), over a
    # (k, N) r: one contiguous row per auxiliary
    with np.errstate(divide="ignore", invalid="ignore"):
        r = np.divide(pop.x.T, pop.xbar[:, None], order="C")
        u = pop.y + pop.ybar * design.g * _fold(np.multiply(r, w.alpha[:, None], out=r))
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
    regardless of ``workers``, which is an upper bound on the processes used
    (see the module docstring).
    """
    for name, value in (("R", R), ("seed", seed), ("workers", workers)):
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise ValueError(f"{name} must be an integer, got {value!r}")
    if R < 1:
        raise ValueError("R must be >= 1")
    if seed < 0:
        raise ValueError("seed must be >= 0")
    if workers < 1:
        raise ValueError("workers must be >= 1")
    _check_inputs(pop, design, w)
    return _run_chunks(pop, design, w, int(R), int(seed), int(workers))


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
    return _run_chunks(pop, design, w, total, None, 1)


def _run_chunks(pop: Population, design: SampleDesign, w: Weights, total: int,
                seed: int | None, workers: int) -> SimResult:
    """The run behind both entry points; with no seed its rows are the n-subsets."""
    chunk = _chunk_size(pop.N)
    rows = min(chunk, total)  # the first chunk's, the largest
    # A pool gets what every task shares once per worker, the run's vals and glin
    # too (see Sizes); a task carries (c, rows).
    shared = (pop.table, pop.xbar, pop.ybar, design.g, w.alpha, design.n, seed, chunk,
              np.empty((rows, 1 + pop.k + len(_TAIL)), order="F"), np.empty(rows))
    tails = [(i // chunk, min(chunk, total - i)) for i in range(0, total, chunk)]
    workers = min(workers, len(tails), _cpus_available(),
                  total * design.n // _POOL_CELLS_PER_WORKER)
    if workers <= 1:
        partials = [_chunk(shared, *t) for t in tails]
    else:
        # imported here, not at the top: its 32 modules added 12 ms and 1.5 MB to every process
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers, initializer=_set_worker_shared,
                                 initargs=(shared,)) as pool:
            partials = list(pool.map(_worker_chunk, tails))
    return _finalize(pop, design, w, partials, total, seed)


class SamplingRow(NamedTuple):
    """One estimator of a sampling run: its empirical bias and MSE next to the
    first-order analytic values. These are the rows simulate and enumerate
    print, under the headers ``SamplingRow._fields``.

    ``analytic_*`` is None where there is no analytic value (product, or a
    SimResult rendered alone). ``*_gap_se`` is |analytic - empirical| in Monte
    Carlo standard errors, None without an analytic value or a positive,
    finite standard error (exact results carry 0.0 there).
    """

    estimator: str
    used: int
    invalid: int
    emp_bias: float
    se_bias: float
    analytic_bias: float | None
    bias_gap_se: float | None
    emp_mse: float
    se_mse: float
    analytic_mse: float | None
    mse_gap_se: float | None

    @classmethod
    def of(cls, est: EstimatorStats, analytic_bias: float | None = None,
           analytic_mse: float | None = None) -> SamplingRow:
        def gap_se(analytic, empirical, se):
            if analytic is None or not 0.0 < se < math.inf:
                return None
            return abs(analytic - empirical) / se

        return cls(
            est.name, est.used, est.invalid,
            est.bias, est.se_bias, analytic_bias, gap_se(analytic_bias, est.bias, est.se_bias),
            est.mse, est.se_mse, analytic_mse, gap_se(analytic_mse, est.mse, est.se_mse),
        )


def compare_analytic_empirical(m: MomentSet, sim: SimResult) -> tuple[SamplingRow, ...]:
    """One row per estimator of ``sim``, in its order, pairing the simulated
    (or enumerated) bias and MSE with the first-order analytics of ``m``.

    The moments must be in exact-SRSWOR mode: paper-literal moments would be
    off by the factor theta across the board.
    """
    if m.mode is MomentMode.PAPER_LITERAL:
        raise ModeMismatch("comparison requires SRSWOR_EXACT moments, got PAPER_LITERAL")
    table = analytics.compare_all(m, Weights(np.asarray(sim.weights)))
    analytic = {r.estimator: r for r in table.rows}
    return tuple(SamplingRow.of(est, analytic[est.name].bias, analytic[est.name].mse)
                 for est in sim.estimators)
