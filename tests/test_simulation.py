import hashlib
import itertools
import math
import os
import platform
import subprocess
import sys
import threading
import tracemalloc
import warnings
from math import fsum
from pathlib import Path

import numpy as np
import pytest

from dualratio import (
    MomentMode,
    Population,
    SampleDesign,
    Weights,
    bias_arithmetic,
    bias_classic_ratio,
    bias_geometric,
    bias_harmonic,
    compare_all,
    compare_analytic_empirical,
    compute_moments,
    enumerate_exact,
    mse_dual_common,
    run_monte_carlo,
    variance_mean_per_unit,
)
from dualratio import estimators as est
from dualratio import simulation
from dualratio.errors import (
    ModeMismatch,
    NegativeWeight,
    NonPositiveTerm,
    TooLarge,
    TooManyInvalid,
    ZeroDualMean,
)
from dualratio.simulation import CV_ESTIMATORS, control_variance, estimator_names
from dualratio.synth import correlated_population
from conftest import evaluate_batch, synthetic_population_2000, toy_population


def brute_force_exact(pop, design, w):
    """Independent oracle: scalar estimators over itertools.combinations."""
    names = ["mean"] + [f"ratio({i + 1})" for i in range(pop.k)] + ["ap", "gp", "hp", "product"]
    values = {nm: [] for nm in names}
    for subset in itertools.combinations(range(pop.N), design.n):
        ss = Population(pop.y[list(subset)], pop.x[list(subset)])
        values["mean"].append(est.estimate_mean_per_unit(ss))
        for i in range(pop.k):
            values[f"ratio({i + 1})"].append(
                est.estimate_classic_ratio(ss, float(pop.xbar[i]), i)
            )
        try:
            terms = est.dual_terms(ss, pop.xbar, design.g)
        except ZeroDualMean:
            continue
        values["ap"].append(est.estimate_arithmetic(terms, w))
        values["product"].append(est.estimate_product(terms))
        try:
            values["gp"].append(est.estimate_geometric(terms, w))
            values["hp"].append(est.estimate_harmonic(terms, w))
        except NonPositiveTerm:
            pass
    out = {}
    for nm, vals in values.items():
        d = [v - pop.ybar for v in vals]
        out[nm] = (
            len(vals),
            fsum(d) / len(vals),
            fsum(x * x for x in d) / len(vals),
        )
    return out


def census_population():
    """N=5000, k=2: every N above 3906 runs 2048-row chunks."""
    return correlated_population(5000, ybar=100.0, xbar=(80.0, 120.0), cv_y=0.15,
                                 cv_x=0.15, rho_yx=0.7, rho_xx=0.4, seed=5)


@pytest.fixture(scope="module")
def small_pop():
    return Population(
        y=np.array([3.0, 5.0, 7.0, 9.0, 11.0, 13.0, 4.0]),
        x=np.column_stack([
            np.array([10.0, 12.0, 14.0, 16.0, 18.0, 20.0, 11.0]),
            np.array([5.0, 6.0, 8.0, 9.0, 11.0, 12.0, 7.0]),
        ]),
    )


def overflow_population(scale):
    """N=40, k=2, y of order ``scale``: at 1e76 the product's sums of squares
    add past the float64 range over 100,000 replicates, and at 3e76 a chunk's
    sums overflow in numpy."""
    rng = np.random.default_rng(2)
    y = rng.uniform(0.2, 3, 40) * scale
    return Population(y, rng.uniform(1, 2, (40, 2)))


def draw_one(N, n, rng):
    """One SRSWOR sample of n from range(N), as a tuple of sorted indices."""
    return tuple(simulation._sample_index_matrix(N, n, rng, 1)[0].tolist())


class TestDrawSrswor:
    def test_fixed_seed_reproduces_sequence(self):
        a = [draw_one(20, 5, np.random.default_rng(42)) for _ in range(3)]
        b = [draw_one(20, 5, np.random.default_rng(42)) for _ in range(3)]
        assert a == b

    def test_output_sorted_distinct(self, rng):
        for _ in range(100):
            s = draw_one(15, 6, rng)
            assert len(set(s)) == 6
            assert list(s) == sorted(s)
            assert s[-1] < 15

    def test_subset_frequencies_uniform(self):
        # N=5, n=2: 10 subsets, each with probability 0.1.
        rng = np.random.default_rng(7)
        draws = 100_000
        counts = {}
        for _ in range(draws):
            s = draw_one(5, 2, rng)
            counts[s] = counts.get(s, 0) + 1
        assert len(counts) == 10
        sigma = math.sqrt(0.1 * 0.9 / draws)
        for subset, count in counts.items():
            assert abs(count / draws - 0.1) <= 4 * sigma, (subset, count)

    def test_complement_symmetry(self):
        # n = N-1: the single excluded index must be uniform.
        rng = np.random.default_rng(11)
        draws = 30_000
        missing = np.zeros(6)
        for _ in range(draws):
            s = set(draw_one(6, 5, rng))
            missing[(set(range(6)) - s).pop()] += 1
        sigma = math.sqrt((1 / 6) * (5 / 6) / draws)
        np.testing.assert_allclose(missing / draws, 1 / 6, atol=4 * sigma)


def label_dtype(N):
    """The dtype the sampler draws and returns its labels in: uint16 up to
    N = 4096, int32 above. It is part of the random stream."""
    return np.uint16 if N <= 4096 else np.int32


def ascending(rows):
    """Whether every row ascends strictly, in int64: a uint16 difference of a
    descending pair wraps to a positive number."""
    return bool((np.diff(rows.astype(np.int64), axis=1) > 0).all())


def reference_sample_index_matrix(N, n, rng, rows):
    """The sampler written plainly: min(n, N - n) labels a row by redraw, and
    each row's complement in range(N) where 2 n > N."""
    drawn = reference_redraw(N, min(n, N - n), rng, rows)
    if 2 * n <= N:
        return drawn
    rest = [sorted(set(range(N)) - set(row)) for row in drawn.tolist()]
    return np.array(rest, dtype=label_dtype(N)).reshape(rows, n)


def reference_redraw(N, n, rng, rows):
    """Every row drawn with replacement and sorted; then, round by round, each
    cell equal to its left neighbour is drawn again, by one call for all such
    cells in row-major order, and the rows are sorted again. Every draw is in
    label_dtype(N)."""
    dtype = label_dtype(N)
    out = [sorted(row) for row in rng.integers(0, N, (rows, n), dtype=dtype).tolist()]
    while True:
        cells = [(r, i) for r, row in enumerate(out) for i in range(1, n) if row[i] == row[i - 1]]
        if not cells:
            return np.array(out, dtype=dtype).reshape(rows, n)
        for (r, i), label in zip(cells, rng.integers(0, N, len(cells), dtype=dtype).tolist()):
            out[r][i] = label
        for row in out:
            row.sort()


class CountingGenerator:
    """A numpy Generator that counts its calls to integers and keeps the
    shape each call draws."""

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)
        self.calls = 0
        self.shapes = []

    def integers(self, *args, **kwargs):
        self.calls += 1
        out = self.rng.integers(*args, **kwargs)
        self.shapes.append(out.shape)
        return out


class TestSampleIndexMatrix:
    # (N, n, rows) in call order: N changes, rows grows and shrinks, shapes
    # drawn as they are (2 n <= N) and as complements (2 n > N) at small and
    # census N, and n = N/2. Complements: (30, 29), (120, 90), (31, 16),
    # (50,000, 40,000).
    CALLS = [(30, 5, 10), (30, 12, 40), (30, 5, 3), (2000, 600, 600), (2000, 100, 600),
             (120, 30, 5000), (120, 90, 2000), (30, 29, 300), (30, 15, 50), (31, 16, 50),
             (50_000, 12_500, 100), (50_000, 40_000, 20), (50_000, 20, 300), (50_000, 3, 1)]

    def test_matches_reference_across_calls(self):
        for call, (N, n, rows) in enumerate(self.CALLS):
            got = simulation._sample_index_matrix(N, n, np.random.default_rng(call), rows)
            want = reference_sample_index_matrix(N, n, np.random.default_rng(call), rows)
            assert got.dtype == want.dtype and np.array_equal(got, want), (N, n, rows)

    def test_complement_peak_memory(self):
        # A complement holds a (rows, N) bool mask beside its int32 output, a
        # quarter of it here, and the drawn labels: the call peaks at 1.59x
        # the output (12.7 MB). The bound leaves 0.9x of margin, and fails an
        # int64 flatnonzero of the mask (3.6x) or a partial Fisher-Yates
        # shuffle on an identity buffer (6.3x).
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            out = simulation._sample_index_matrix(50_000, 40_000, np.random.default_rng(0), 50)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert out.shape == (50, 40_000) and out.dtype == np.int32
        assert peak < 2.5 * out.nbytes

    def test_draw_srswor_matches_reference(self):
        rng, ref = np.random.default_rng(3), np.random.default_rng(3)
        for N, n in ((20, 5), (5, 2), (2000, 50), (20, 5), (7, 6)):
            got = draw_one(N, n, rng)
            assert got == tuple(int(v) for v in reference_sample_index_matrix(N, n, ref, 1)[0])

    # direct: drawn as they are, not as complements. A first draw holds a
    # repeat in a row with probability 0.11 at (9, 2), 0.22 at (13, 3) and
    # 0.59 at n = N/2, (8, 4); (7, 5) is the complement of a 2-subset.
    @pytest.mark.parametrize("N,n,direct,critical", [(9, 2, True, 66.62),
                                                     (13, 3, True, 364.51),
                                                     (7, 5, False, 45.31),
                                                     (8, 4, True, 111.06)])
    def test_every_subset_equally_likely(self, N, n, direct, critical):
        # chi-square over all C(N, n) subsets; critical is its 0.999 quantile
        # for C(N, n) - 1 degrees of freedom (35, 285, 20 and 69).
        rows = 200_000
        rng = CountingGenerator(N)
        got = simulation._sample_index_matrix(N, n, rng, rows)
        assert rng.shapes[0] == (rows, n if direct else N - n)
        assert got.dtype == np.uint16
        assert ascending(got)
        subsets = list(itertools.combinations(range(N), n))
        rank = {s: r for r, s in enumerate(subsets)}
        counts = np.bincount([rank[tuple(row)] for row in got.tolist()], minlength=len(subsets))
        expected = rows / len(subsets)
        assert ((counts - expected) ** 2 / expected).sum() < critical

    def test_redraw_runs_over_several_rounds(self):
        # At (13, 3) about 220 of 1000 rows hold a repeat, and a redrawn cell
        # repeats a label again with probability about 2/13, so the repeats
        # take several rounds to clear. Each round draws only the repeated
        # cells, in one call.
        rng = CountingGenerator(5)
        got = simulation._sample_index_matrix(13, 3, rng, 1000)
        assert rng.calls >= 4  # the first draw and at least three rounds
        assert np.array_equal(got, reference_redraw(13, 3, np.random.default_rng(5), 1000))
        assert ascending(got)

    # (N, n, rows, seed, rows of the first draw that hold a repeat)
    @pytest.mark.parametrize("N,n,rows,seed,first_hits", [
        (2000, 200, 4000, 0, range(4000)),  # every row
        (50_000, 20, 2048, 0, [248, 446, 526, 802, 863]),  # few rows
        (30, 5, 1, 3, [0]),  # one row
        (9, 1, 10, 0, []),  # n = 1: no cell has a left neighbour
        (100, 3, 8, 9, [7]),  # only the last row
    ])
    def test_redraw_rounds_match_reference(self, N, n, rows, seed, first_hits):
        # The same cells get the same draws in the same order, one integers
        # call for the first draw and one per round.
        first = np.random.default_rng(seed).integers(0, N, (rows, n), dtype=label_dtype(N))
        first.sort(axis=1)
        hits = np.flatnonzero((first[:, 1:] == first[:, :-1]).any(axis=1))
        assert hits.tolist() == list(first_hits)
        rng, ref_rng = CountingGenerator(seed), CountingGenerator(seed)
        got = simulation._sample_index_matrix(N, n, rng, rows)
        want = reference_redraw(N, n, ref_rng, rows)
        assert got.dtype == label_dtype(N) and got.shape == (rows, n)
        assert np.array_equal(got, want)
        assert rng.calls == ref_rng.calls
        assert (rng.calls == 1) == (not first_hits)
        assert ascending(got)

    # (N, n): drawn as they are and as complements, on both sides of 4096.
    @pytest.mark.parametrize("N,n", [(4096, 20), (4096, 3000), (4097, 20), (4097, 3000)])
    def test_label_dtype_follows_N_alone(self, N, n):
        # uint16 labels up to N = 4096 and int32 above, from the first draw to
        # the complement, whatever n.
        rng = CountingGenerator(N + n)
        got = simulation._sample_index_matrix(N, n, rng, 40)
        want = reference_sample_index_matrix(N, n, np.random.default_rng(N + n), 40)
        assert got.dtype == want.dtype == (np.uint16 if N == 4096 else np.int32)
        assert rng.shapes[0] == (40, min(n, N - n))
        assert np.array_equal(got, want)
        assert ascending(got)

    def test_complement_depends_on_n_and_N_only(self):
        # The first draw is min(n, N - n) labels a row, on both sides of
        # 2 n = N, whatever the rows or the generator.
        for n in (3, 15, 60):
            for N in (2 * n + 1, 2 * n, 2 * n - 1):
                for seed, rows in ((0, 1), (1, 7), (2, 3000)):
                    rng = CountingGenerator(seed)
                    got = simulation._sample_index_matrix(N, n, rng, rows)
                    assert rng.shapes[0] == (rows, min(n, N - n)), (N, n, seed, rows)
                    assert got.shape == (rows, n) and ascending(got)


# Rows of one gather block at n = 37, by k: a block holds _GATHER_BLOCK_CELLS
# cells of rows x n x k, well above its 16-row floor.
GATHER_STEP = {k: simulation._GATHER_BLOCK_CELLS // (37 * k) for k in (1, 2, 10)}


class TestEvaluateBatchGather:
    # Every k runs at its own block edges and at k = 2's.
    @pytest.mark.parametrize("B,k", sorted({
        (B, k) for k in GATHER_STEP for step in (GATHER_STEP[k], GATHER_STEP[2])
        for B in (1, 2, 300, step, step + 1, 2 * step + 5)}))
    def test_sample_means_are_the_strided_reduction(self, B, k):
        # _evaluate_batch must use exactly y[idx].mean(axis=1) and
        # x[idx].mean(axis=1): the mean and ratio columns and the control's
        # linear term are checked bit for bit. B = step + 1 ends on a one-row
        # block, x comes in C and Fortran order, and the rows come as the
        # sampler's uint16 and int32 and as enumeration's int64.
        # n = 1, 7 and 8 run y's sum below and at 8 terms (see _row_sum).
        rng = np.random.default_rng(100 * k + B)
        N = 500
        x = rng.uniform(10.0, 300.0, (N, k))
        for n, layout in itertools.product((37, 1, 7, 8), (x, np.asfortranarray(x))):
            y = rng.uniform(50.0, 150.0, N)
            xbar_pop = layout.mean(axis=0)
            alpha = np.full(k, 1.0 / k)
            idx = np.sort(rng.integers(0, N, (B, n)), axis=1)
            xbars = layout[idx].mean(axis=1)
            ybar = y[idx].mean(axis=1)
            for rows in (idx, idx.astype(np.int32), idx.astype(np.uint16)):
                vals, glin = evaluate_batch(y, layout, xbar_pop, 0.3, alpha, rows)
                assert not np.isnan(vals[:, :k + 1]).any()
                assert vals[:, 0].tobytes() == ybar.tobytes()
                for i in range(k):
                    assert np.array_equal(vals[:, 1 + i], ybar * xbar_pop[i] / xbars[:, i])
                assert np.array_equal(glin, 0.3 * left_sum((xbars / xbar_pop - 1.0) * alpha))

    def test_peak_memory_of_one_call(self):
        # Sample means gathered block by block: no whole-chunk copy of the
        # index rows, in intp or transposed. The whole-chunk gather peaked at
        # about 10 MB here, the blocks at about 2.4 MB.
        N, n, rows = 2000, 200, 4000
        rng = np.random.default_rng(5)
        y = rng.uniform(50.0, 150.0, N)
        x = rng.uniform(10.0, 300.0, (N, 2))
        idx = simulation._sample_index_matrix(N, n, rng, rows)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            evaluate_batch(y, x, x.mean(axis=0), 0.3, np.array([0.5, 0.5]), idx)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < 4_000_000

    def test_peak_memory_at_many_auxiliaries(self):
        # mc_many_aux's chunk: each block gathers its (n, rows, k) auxiliaries
        # at once, so the block, not the chunk, must bound them. The bound
        # checks that, not an exact figure: the call peaks at ~8.0 MB (vals,
        # the (B, k) means and one kernel block's work space), a whole-chunk
        # gather at ~79 MB.
        N, n, k, rows = 120, 30, 10, 32_768
        rng = np.random.default_rng(5)
        y = rng.uniform(50.0, 150.0, N)
        x = rng.uniform(10.0, 300.0, (N, k))
        idx = simulation._sample_index_matrix(N, n, rng, rows)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            evaluate_batch(y, x, x.mean(axis=0), 0.3, np.full(k, 1.0 / k), idx)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < 12_000_000


class TestEvaluateBatchKernelBlocks:
    BLOCK = simulation._KERNEL_BLOCK_ROWS

    @staticmethod
    def population(k):
        # Small integers with zeros and negatives: sample means of exactly 0
        # (NaN ratios), a zero or negative ybar (NaN gp and hp), and a zero
        # weight. Every kernel block holds NaN and finite estimates.
        rng = np.random.default_rng(k)
        N = 40
        y = rng.integers(-2, 9, N).astype(float)
        x = rng.integers(-3, 6, (N, k)).astype(float)
        alpha = rng.uniform(0.2, 1.0, k)
        alpha[1] = 0.0
        return y, x, alpha / alpha.sum()

    @pytest.mark.parametrize("k", [3, 10])
    @pytest.mark.parametrize("B", [1, BLOCK, BLOCK + 1, 2 * BLOCK + 3])
    def test_blocks_change_no_row(self, k, B):
        # A row's estimates and linear term depend on that row alone, so the
        # calls may cut the rows anywhere, one row at a time included.
        y, x, alpha = self.population(k)
        xbar_pop = x.mean(axis=0)
        rng = np.random.default_rng(B)
        idx = np.sort(rng.integers(0, y.size, (B, 4)), axis=1)
        idx[[0, -1]] = np.sort(np.argsort(y)[:4])  # ybar < 0: gp and hp NaN, ap finite
        vals, glin = evaluate_batch(y, x, xbar_pop, 0.4, alpha, idx)
        assert vals.shape == (B, k + 5)
        for first in range(0, B, self.BLOCK):  # the kernel's blocks
            est = vals[first:first + self.BLOCK, -4:-1]  # ap, gp, hp
            assert np.isnan(est).any() and np.isfinite(est).any()
        cuts = [0, B]
        if B > 2:
            cuts = sorted({0, B, B - 1, self.BLOCK - 1, *rng.integers(1, B - 1, 4).tolist()})
        parts = [evaluate_batch(y, x, xbar_pop, 0.4, alpha, idx[a:b])
                 for a, b in zip(cuts, cuts[1:])]
        assert vals.tobytes() == np.concatenate([v for v, _ in parts]).tobytes()
        assert glin.tobytes() == np.concatenate([g for _, g in parts]).tobytes()
        # One row at a time, bit for bit.
        for r in (0, B // 2, B - 1):
            one, lin = evaluate_batch(y, x, xbar_pop, 0.4, alpha, idx[r:r + 1])
            assert one.tobytes() == vals[r:r + 1].tobytes()
            assert lin.tobytes() == glin[r:r + 1].tobytes()


def left_sum(a):
    """The columns of a (rows, k) array added from left to right onto 0.0."""
    total = np.zeros(a.shape[0])
    for i in range(a.shape[1]):
        total += a[:, i]
    return total


def _reference_evaluate_batch(y, x, xbar_pop, g, alpha, idx):
    """_evaluate_batch as whole-array expressions over (B, k) operands, with
    every sum over the k auxiliaries added from left to right onto 0.0."""
    k = x.shape[1]
    vals = np.empty((idx.shape[0], k + 5), order="F")
    yb = vals[:, 0, None]
    xb = simulation._sample_means(y, x, idx, vals[:, 0])
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        vals[:, 1:1 + k] = np.where(xb != 0.0, yb * xbar_pop / xb, np.nan)
        xstar = xbar_pop + g * (xbar_pop - xb)
        base = (xstar != 0.0).all(axis=1)
        terms = yb / xstar * xbar_pop
        vals[:, -4] = np.where(base, left_sum(terms * alpha), np.nan)
        pos = base & (terms > 0.0).all(axis=1)
        vals[:, -3] = np.where(pos, np.exp(left_sum(np.log(terms) * alpha)), np.nan)
        recip = left_sum(alpha / terms)
        vals[:, -2] = np.where(pos & (recip != 0.0), 1.0 / recip, np.nan)
        vals[:, -1] = np.where(base, terms.prod(axis=1), np.nan)
        glin = g * left_sum((xb / xbar_pop - 1.0) * alpha)
    return vals, glin


class TestEvaluateBatchColumnFolds:
    BLOCK = simulation._KERNEL_BLOCK_ROWS

    @staticmethod
    def population(k):
        # As TestEvaluateBatchKernelBlocks.population, with every auxiliary
        # mean exactly 1 so that at g = 1 a sample mean of 2 gives xstar = 0,
        # and the zero weight only where k > 1.
        rng = np.random.default_rng(100 + k)
        N = 40
        y = rng.integers(-2, 9, N).astype(float)
        x = rng.integers(-3, 6, (N, k)).astype(float)
        x[-1] += N - x.sum(axis=0)
        alpha = rng.uniform(0.2, 1.0, k)
        alpha[1:2] = 0.0
        return y, x, alpha / alpha.sum()

    @pytest.mark.parametrize("k", [1, 2, 3, 7, 8, 10])
    @pytest.mark.parametrize("B", [1, 2, 5, BLOCK + 1])
    def test_kernel_matches_row_reductions_bit_for_bit(self, k, B):
        y, x, alpha = self.population(k)
        xbar_pop = x.mean(axis=0)
        assert np.array_equal(xbar_pop, np.ones(k))
        rng = np.random.default_rng(B)
        idx = np.sort(rng.integers(0, y.size, (B, 4)), axis=1)
        idx[0] = np.sort(np.argsort(y)[:4])  # ybar < 0
        vals, glin = evaluate_batch(y, x, xbar_pop, 1.0, alpha, idx)
        ref_vals, ref_glin = _reference_evaluate_batch(y, x, xbar_pop, 1.0, alpha, idx)
        assert vals.tobytes() == ref_vals.tobytes()
        assert glin.tobytes() == ref_glin.tobytes()
        if B > self.BLOCK:  # the population reaches each case the kernel masks
            xbars = np.stack([x[r].mean(axis=0) for r in idx])
            assert (xbars == 0.0).any() and (xbars == 2.0).any()
            assert np.isnan(vals[:, -3:-1]).any() and np.isfinite(vals[:, -3:-1]).any()

    @pytest.mark.parametrize("k", range(1, 8))
    def test_numpy_short_row_sum_is_a_column_fold(self, k):
        # _row_sum, and so the study means, rely on this below 8 terms; a
        # numpy that adds short rows in another order fails here.
        rng = np.random.default_rng(k)
        for rows in (1, 5, self.BLOCK + 1):
            a = rng.standard_normal((rows, k)) * 10.0 ** rng.integers(-8, 9, (rows, k))
            a[rng.random((rows, k)) < 0.2] = -0.0
            fold = np.zeros(rows)
            for i in range(k):
                fold += a[:, i]
            assert a.sum(axis=1).tobytes() == fold.tobytes()

    @pytest.mark.parametrize("c", range(1, 13))
    def test_row_sum_is_numpys_row_sum(self, c):
        # The study means add rows through _row_sum: a fold below 8 columns,
        # numpy's row sum from 8.
        rng = np.random.default_rng(50 + c)
        for rows in (1, 5, self.BLOCK + 1):
            a = rng.standard_normal((rows, c)) * 10.0 ** rng.integers(-8, 9, (rows, c))
            a[rng.random((rows, c)) < 0.2] = -0.0
            a[0] = -0.0  # an all-zero row sums to +0.0
            assert simulation._row_sum(a).tobytes() == a.sum(axis=1).tobytes()


class TestStreamPin:
    """sha256 digests of repr(SimResult), so that the random stream and the
    results stay the same from one commit to the next, not only between runs
    of one commit (numpy 2.4.6). MONTE_CARLO_2048_ROWS was taken when the
    sampler began to redraw repeated cells where 4 n < N, and held when it
    began to draw min(n, N - n) labels at every shape (stream version 5).
    MONTE_CARLO, MONTE_CARLO_N_60, MONTE_CARLO_N_300 and MONTE_CARLO_K_10,
    all at N <= 4096, were taken when the sampler began to draw those labels
    as uint16 (stream version 6), which N = 5000 does not. The enumeration
    digests were taken before the sampler moved to a kept identity buffer,
    and ENUMERATION_11_CHUNKS while enumeration still read its chunks from
    itertools.combinations, before any change to how they are built.
    ENUMERATION_9_OF_18 was taken when enumeration began to sum its sample
    means down the prefix tree, which from 8 units can differ in the last bits
    from the row sums before (see Enumeration in the simulation module).
    MONTE_CARLO_K_10 and the three enumeration digests, whose weights are not
    all 0.5, were taken again when every sum over the k auxiliaries became a
    fold in a fixed order (see Sizes there); the others held. A change that
    alters the stream or any result on purpose must update them here and
    declare the change in CHANGES.md."""

    MONTE_CARLO = "e0c46e05de3e1debae795f68645240777c4fc301f45a32346f8ec5dcafc8c141"
    MONTE_CARLO_N_60 = "4a8b39fc0cbfc8bc15c0d83e9444e01da3bd32a874d6347c8c6d1258e44f2355"
    MONTE_CARLO_N_300 = "e4292d2094f8debbe6ff740e418bdd4539927b6c376ece2f82a63ebbe624252c"
    ENUMERATION = "993bc77fb98ce4cfb666b7af9ec715bb98c1a5e38b29a89d888e9e5d99befc81"
    # N=5000 runs 2048-row chunks (N >= 3907).
    MONTE_CARLO_2048_ROWS = "5ff7a7622e14afd68fa71a61198ee5c3941b3b362cf3641fa3503bdd636ec66a"
    MONTE_CARLO_K_10 = "58597375e51b644fa7bc424bc1b46f097142bada481825a4e61b8ad9cde1c1cb"
    # 11 chunks of enumeration (see the class docstring).
    ENUMERATION_11_CHUNKS = "e6bb5645b8c6e84e6f97368624c57688c3d5172a29bb272cc84b29ff1470f947"
    # 9 units of 18, two chunks (see the class docstring).
    ENUMERATION_9_OF_18 = "bdb31b36e7f1a3d3b346ffd056cdbe16580048cfe05a62764ddafdd96d74bf0a"

    @staticmethod
    def digest(result):
        return hashlib.sha256(repr(result).encode()).hexdigest()

    @staticmethod
    def run_n_of_1000(n, workers):
        # N=1000 gives 8000-row chunks: R=10000 is one full chunk and a short one.
        pop = correlated_population(1000, ybar=100.0, xbar=(80.0, 120.0), cv_y=0.15,
                                    cv_x=0.15, rho_yx=0.7, rho_xx=0.4, seed=7)
        return run_monte_carlo(pop, SampleDesign(1000, n), Weights.equal(2), 10_000,
                               seed=123, workers=workers)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_monte_carlo(self, workers, pool_always, process_starts):
        assert self.digest(self.run_n_of_1000(20, workers)) == self.MONTE_CARLO
        assert (len(process_starts) > 0) == (workers > 1)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_monte_carlo_n_60(self, workers, pool_always, process_starts):
        assert self.digest(self.run_n_of_1000(60, workers)) == self.MONTE_CARLO_N_60
        assert (len(process_starts) > 0) == (workers > 1)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_monte_carlo_n_300(self, workers, pool_always, process_starts):
        assert self.digest(self.run_n_of_1000(300, workers)) == self.MONTE_CARLO_N_300
        assert (len(process_starts) > 0) == (workers > 1)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_monte_carlo_2048_row_chunks(self, workers, pool_always, process_starts):
        # N=5000 gives 2048-row chunks: R=5000 is two full chunks and a short one.
        out = run_monte_carlo(census_population(), SampleDesign(5000, 20), Weights.equal(2),
                              5000, seed=321, workers=workers)
        assert simulation._chunk_size(5000) == 2048
        assert self.digest(out) == self.MONTE_CARLO_2048_ROWS
        assert (len(process_starts) > 0) == (workers > 1)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_monte_carlo_k_10(self, workers, pool_always, process_starts):
        # N=120, n=30 gives 32,768-row chunks: R=40,000 is one
        # full chunk and a short one.
        pop = correlated_population(120, ybar=100.0, xbar=tuple(np.linspace(60.0, 150.0, 10)),
                                    cv_y=0.15, cv_x=0.15, rho_yx=0.5, rho_xx=0.3, seed=9)
        out = run_monte_carlo(pop, SampleDesign(120, 30), Weights.equal(10), 40_000, seed=77,
                              workers=workers)
        assert simulation._chunk_size(120) == 32768
        assert self.digest(out) == self.MONTE_CARLO_K_10
        assert (len(process_starts) > 0) == (workers > 1)

    def test_enumeration(self):
        out = enumerate_exact(toy_population(12), SampleDesign(12, 5), Weights([0.3, 0.7]))
        assert self.digest(out) == self.ENUMERATION

    def test_enumeration_across_chunks(self):
        # N=24 gives 32768-row chunks: C(24,7) = 346,104 subsets are ten full
        # chunks and a short one of 18,424 rows.
        pop = correlated_population(24, ybar=100.0, xbar=(80.0, 120.0), cv_y=0.15,
                                    cv_x=0.15, rho_yx=0.7, rho_xx=0.4, seed=7)
        out = enumerate_exact(pop, SampleDesign(24, 7), Weights([0.3, 0.7]))
        assert simulation._chunk_size(24) == 32768
        assert out.requested == 346_104
        assert self.digest(out) == self.ENUMERATION_11_CHUNKS

    def test_enumeration_of_9_units(self):
        # C(18,9) = 48,620 subsets: a full 32,768-row chunk and one of 15,852.
        pop = correlated_population(18, ybar=100.0, xbar=(80.0, 120.0), cv_y=0.15,
                                    cv_x=0.15, rho_yx=0.7, rho_xx=0.4, seed=7)
        out = enumerate_exact(pop, SampleDesign(18, 9), Weights([0.3, 0.7]))
        assert simulation._chunk_size(18) == 32768 and out.requested == 48_620
        assert self.digest(out) == self.ENUMERATION_9_OF_18

    def test_enumeration_chunks_in_a_pool(self, pool_always, process_starts):
        # C(20,6) = 38,760 subsets are two chunks of up to 32,768 rows, one per
        # process; the pool merges them to enumerate_exact's result.
        pop = correlated_population(20, ybar=100.0, xbar=(80.0, 120.0), cv_y=0.15,
                                    cv_x=0.15, rho_yx=0.7, rho_xx=0.4, seed=7)
        design, w = SampleDesign(20, 6), Weights([0.3, 0.7])
        pooled = simulation._run_chunks(pop, design, w, 38_760, None, 2)
        assert len(process_starts) == 2
        serial = enumerate_exact(pop, design, w)
        assert len(process_starts) == 2  # enumerate_exact itself starts none
        assert pooled == serial and repr(pooled) == repr(serial)


# Three runs on populations made with rng.uniform and elementwise arithmetic
# only, so that no BLAS call makes them: Monte Carlo at k = 2 with weights
# (0.3, 0.7), whose products round, and at k = 10, and enumeration.
CORE_FREE_RUNS = """
import hashlib
import numpy as np
from dualratio import Population, SampleDesign, Weights, enumerate_exact, run_monte_carlo

def population(N, k, seed):
    rng = np.random.default_rng(seed)
    x = rng.uniform(50.0, 150.0, (N, k))
    return Population(x[:, 0] * rng.uniform(0.8, 1.2, N) + rng.uniform(0.0, 20.0, N), x)

def digests():
    runs = (run_monte_carlo(population(600, 2, 1), SampleDesign(600, 30), Weights([0.3, 0.7]),
                            20_000, seed=5),
            run_monte_carlo(population(120, 10, 2), SampleDesign(120, 30), Weights.equal(10),
                            20_000, seed=6),
            enumerate_exact(population(24, 2, 3), SampleDesign(24, 7), Weights([0.3, 0.7])))
    return [hashlib.sha256(repr(r).encode()).hexdigest() for r in runs]
"""


@pytest.mark.parametrize("core", ["Haswell", "Sandybridge", "Prescott"])
def test_results_do_not_depend_on_the_openblas_core(core):
    # Each OpenBLAS core adds the products of a gemv in its own order; the
    # harness takes none, so a process on another core gets the same bits.
    # OPENBLAS_CORETYPE is set in the child's environment only.
    namespace = {}
    exec(CORE_FREE_RUNS, namespace)
    src = str(Path(simulation.__file__).parents[1])
    env = {**os.environ, "OPENBLAS_CORETYPE": core, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", CORE_FREE_RUNS + "print(*digests())"],
                         env=env, capture_output=True, text=True, check=True, timeout=300)
    assert out.stdout.split() == namespace["digests"]()


def combinations_rows(N, n, start, rows):
    """Rows [start, start + rows) of itertools.combinations(range(N), n)."""
    block = itertools.islice(itertools.combinations(range(N), n), start, start + rows)
    return np.array(list(block), dtype=np.int64).reshape(rows, n)


def subset_population(N, k):
    """y and k auxiliaries of N units; units 0-3 are -0.0 throughout, so that
    the means of subsets among them show whether a sum starts from 0.0."""
    rng = np.random.default_rng(100 * N + k)
    y, x = rng.uniform(0.5, 2.0, N), rng.uniform(0.5, 2.0, (N, k))
    y[:4] = x[:4] = -0.0
    return y, x


def assert_subset_means(N, n, k, start, rows):
    """_subset_means against _sample_means over the rows of
    itertools.combinations: bit for bit below 8 units, to rounding from 8."""
    y, x = subset_population(N, k)
    ybar, want_ybar = np.empty(rows), np.empty(rows)
    xbars = simulation._subset_means(y, x, n, start, ybar)
    want_xbars = simulation._sample_means(y, x, combinations_rows(N, n, start, rows), want_ybar)
    assert xbars.shape == (rows, k) and xbars.flags.c_contiguous
    if n < 8:
        assert ybar.tobytes() == want_ybar.tobytes()
        assert xbars.tobytes() == want_xbars.tobytes()
    else:  # numpy's row sum keeps 8 partial sums from 8 terms; a prefix sum adds in order
        np.testing.assert_allclose(ybar, want_ybar, rtol=1e-14, atol=0)
        np.testing.assert_allclose(xbars, want_xbars, rtol=1e-14, atol=0)


class TestSubsetMeans:
    """_subset_means against the sample means of itertools.combinations' rows."""

    @pytest.mark.parametrize("k", [1, 2, 10])
    @pytest.mark.parametrize("N, n, rows", [
        (9, 1, 4), (9, 2, 5), (9, 3, 7), (9, 4, 126), (9, 5, 50), (9, 6, 13), (9, 7, 36),
        (9, 8, 4), (9, 9, 1),
        (24, 7, 32768),  # enumerate_exact's chunks: ten full, one of 18,424 rows
        (100, 99, 32768), (100, 99, 7),  # C(99, 50) exceeds int64
    ])
    def test_consecutive_chunks_match(self, N, n, rows, k):
        total = math.comb(N, n)
        for start in range(0, total, rows):
            assert_subset_means(N, n, k, start, min(rows, total - start))

    @pytest.mark.parametrize("k", [1, 2, 10])
    @pytest.mark.parametrize("N, n", [(24, 7), (2000, 2)])
    def test_chunks_from_any_first_rank(self, N, n, k):
        # (2000, 2) is 1,999,000 rows, just under SUBSET_CAP
        total = math.comb(N, n)
        chunk = simulation._chunk_size(N)
        assert total <= simulation.SUBSET_CAP and total % chunk
        last_chunk = total - total % chunk
        spans = [
            (0, chunk),  # the first chunk
            (chunk - 3, 6),  # across the first chunk boundary
            (2 * chunk, chunk),  # a chunk boundary
            (2 * chunk + chunk // 2 + 1, 17),  # mid-chunk
            (last_chunk, total - last_chunk),  # the short final chunk
            (total - 1, 1),  # the last row alone
        ]
        for start, rows in spans:
            assert_subset_means(N, n, k, start, rows)

    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("N, n", [(9, 8), (18, 9), (26, 8), (20, 12)])
    def test_from_8_units_means_agree_to_rounding(self, N, n, k):
        # From 8 units the prefix sums may differ from numpy's row sums in the
        # last bits (seen at (9, 8) and (18, 9)); they stay within rounding.
        total = math.comb(N, n)
        chunk = simulation._chunk_size(N)
        for start in (0, total // 3, total - 1):
            assert_subset_means(N, n, k, start, min(chunk, total - start))


class TestEnumerateExact:
    def test_subset_count(self):
        pop = Population(y=[1.0, 2.0, 3.0, 4.0], x=[[2.0], [3.0], [4.0], [5.0]])
        out = enumerate_exact(pop, SampleDesign(4, 2), Weights([1.0]))
        assert out.requested == 6
        assert out.exact and out.seed is None
        assert all(e.se_bias == 0.0 and e.se_mse == 0.0 for e in out.estimators)

    def test_mean_is_design_unbiased(self, small_pop):
        out = enumerate_exact(small_pop, SampleDesign(7, 3), Weights.equal(2))
        assert abs(out.by_name("mean").bias) <= 1e-12 * abs(small_pop.ybar)

    def test_mean_mse_textbook_identity(self, small_pop):
        # exact MSE of the sample mean = (1/n - 1/N) S_y^2
        out = enumerate_exact(small_pop, SampleDesign(7, 3), Weights.equal(2))
        sy_sq = float(np.var(small_pop.y, ddof=1))
        expected = (1 / 3 - 1 / 7) * sy_sq
        assert out.by_name("mean").mse == pytest.approx(expected, rel=1e-10)

    def test_matches_scalar_brute_force(self, small_pop):
        design = SampleDesign(7, 3)
        w = Weights.equal(2)
        oracle = brute_force_exact(small_pop, design, w)
        out = enumerate_exact(small_pop, design, w)
        for e in out.estimators:
            used, bias, mse = oracle[e.name]
            assert e.used == used
            assert e.bias == pytest.approx(bias, rel=1e-12, abs=1e-12)
            assert e.mse == pytest.approx(mse, rel=1e-12)

    def test_cap(self):
        rng = np.random.default_rng(0)
        pop = Population(y=rng.uniform(1, 2, 40), x=rng.uniform(1, 2, (40, 1)))
        with pytest.raises(TooLarge):
            enumerate_exact(pop, SampleDesign(40, 20), Weights([1.0]))

    def test_deterministic(self, small_pop):
        design = SampleDesign(7, 3)
        w = Weights.equal(2)
        assert enumerate_exact(small_pop, design, w) == enumerate_exact(small_pop, design, w)


def some_invalid_population():
    """The population of the CLI's some_invalid pins: y = -52 in unit 0 makes
    gp and hp undefined on 6 of the C(12, 4) subsets."""
    y = (-52, 12, 15, 18, 20, 22, 25, 28, 30, 33, 35, 40)
    x1 = (5, 11, 14, 17, 19, 23, 24, 27, 31, 32, 36, 41)
    x2 = (60, 30, 25, 35, 40, 28, 45, 50, 38, 55, 42, 48)
    return Population(np.array(y, dtype=float), np.column_stack([x1, x2]).astype(float))


class TestExactSums:
    """An enumeration's chunks leave out the sums that only standard errors
    read, and every figure is that of the full sums."""

    CASES = {
        "24_of_7": lambda: (enumeration_population(7), SampleDesign(24, 7), Weights([0.3, 0.7])),
        "18_of_9": lambda: (correlated_population(18, ybar=100.0, xbar=(80.0, 120.0), cv_y=0.15,
                                                  cv_x=0.15, rho_yx=0.7, rho_xx=0.4, seed=7),
                            SampleDesign(18, 9), Weights([0.3, 0.7])),
        "k_10": lambda: (correlated_population(16, ybar=100.0,
                                               xbar=tuple(np.linspace(60.0, 150.0, 10)),
                                               cv_y=0.15, cv_x=0.15, rho_yx=0.5, rho_xx=0.3,
                                               seed=9),
                         SampleDesign(16, 5), Weights.equal(10)),
        "some_invalid": lambda: (some_invalid_population(), SampleDesign(12, 4),
                                 Weights([0.6, 0.4])),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_enumeration_equals_the_full_sums(self, case, monkeypatch):
        pop, design, w = self.CASES[case]()
        out = enumerate_exact(pop, design, w)
        full = simulation._accumulate
        calls = []

        def accumulate_all(vals, ybar_true, glin, exact=False):
            calls.append(exact)
            return full(vals, ybar_true, glin)

        monkeypatch.setattr(simulation, "_accumulate", accumulate_all)
        assert out == enumerate_exact(pop, design, w)
        assert calls and all(calls)  # the run asked for the exact sums
        for e in out.estimators:
            cv = (e.bias_cv, e.mse_cv, e.se_bias_cv, e.se_mse_cv)
            assert e.se_bias == e.se_mse == 0.0
            if e.name in CV_ESTIMATORS and e.invalid == 0:
                assert None not in cv and cv[2] == cv[3] == 0.0, e.name
            else:
                assert cv == (None,) * 4, e.name
        if case == "some_invalid":
            assert [e.invalid for e in out.estimators] == [0, 0, 0, 0, 6, 6, 0]


def enumeration_population(seed):
    """An N = 24 population: C(24,7) is ten full 32,768-row chunks and a short one."""
    return correlated_population(24, ybar=100.0, xbar=(80.0, 120.0), cv_y=0.15, cv_x=0.15,
                                 rho_yx=0.7, rho_xx=0.4, seed=seed)


# Runs in a fresh interpreter: whether glibc gives freed chunks back to the
# system depends on the heap's history, which the tests before would set.
# argv[2] picks the run: enumeration of C(24,7), or Monte Carlo at
# mc_many_aux's shape (N = 120, n = 30, k = 10) over four 32,768-row chunks.
WARM_RUN_FAULTS = """
import resource, sys
sys.path.insert(0, sys.argv[1])
import numpy as np
from dualratio import SampleDesign, Weights, enumerate_exact, run_monte_carlo
from dualratio.synth import correlated_population
if sys.argv[2] == "enumerate":
    pop = correlated_population(24, ybar=100.0, xbar=(80.0, 120.0), cv_y=0.15, cv_x=0.15,
                                rho_yx=0.7, rho_xx=0.4, seed=7)
    run = lambda: enumerate_exact(pop, SampleDesign(24, 7), Weights([0.3, 0.7]))
else:
    pop = correlated_population(120, ybar=100.0, xbar=tuple(np.linspace(60.0, 150.0, 10)),
                                cv_y=0.15, cv_x=0.15, rho_yx=0.5, rho_xx=0.3, seed=9)
    run = lambda: run_monte_carlo(pop, SampleDesign(120, 30), Weights.equal(10), 4 * 32768,
                                  seed=1)
run()
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
run()
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


def warm_run_faults(kind):
    src = str(Path(simulation.__file__).parents[1])
    out = subprocess.run([sys.executable, "-c", WARM_RUN_FAULTS, src, kind],
                         capture_output=True, text=True, check=True, timeout=300)
    return int(out.stdout)


glibc_only = pytest.mark.skipif(not sys.platform.startswith("linux")
                                or platform.libc_ver()[0] != "glibc",
                                reason="counts glibc's heap pages faulted in on Linux")


class TestRunBuffers:
    """A run makes one vals and one glin, of its first and largest chunk, and
    every chunk, Monte Carlo or enumeration, writes into their first rows (see
    Sizes in the simulation module docstring)."""

    @pytest.mark.parametrize("seed", [None, 3])
    def test_chunks_write_into_the_run_arrays(self, seed, monkeypatch):
        pop = enumeration_population(7)
        prefix = (pop.y, np.ascontiguousarray(pop.x), pop.xbar, pop.ybar, 0.4,
                  np.array([0.3, 0.7]), 24, 7, seed, 32768)
        # NaN-filled here and zero-filled fresh: a cell a chunk left unwritten
        # would change its sums
        vals, glin = np.full((32768, 7), np.nan, order="F"), np.full(32768, np.nan)
        full, shared = simulation._accumulate, []

        def accumulate(v, ybar_true, g, exact=False):
            shared.append(np.shares_memory(v, vals) and np.shares_memory(g, glin))
            return full(v, ybar_true, g, exact)

        monkeypatch.setattr(simulation, "_accumulate", accumulate)
        # the short last chunk first, which a run never makes first
        for c, rows in ((10, 18_424), (0, 32768), (3, 5)):
            sums = simulation._chunk(prefix + (vals, glin), c, rows)
            fresh = simulation._chunk(
                prefix + (np.zeros((rows, 7), order="F"), np.zeros(rows)), c, rows)
            assert sums.tobytes() == fresh.tobytes()
        assert shared == [True, False] * 3

    @glibc_only
    def test_warm_run_takes_few_page_faults(self):
        # Made afresh for every chunk, the buffers took 10,560-14,689 minor
        # faults a run in this script; kept, about 950, most of them the first
        # chunk's.
        assert warm_run_faults("enumerate") < 3000

    @glibc_only
    def test_warm_monte_carlo_run_takes_few_page_faults(self):
        # Made afresh for every chunk, vals and glin took about 8,200 minor
        # faults a run in this script; kept for the run, about 2,500.
        assert warm_run_faults("monte_carlo") < 4000

    def test_concurrent_runs_keep_their_own_buffers(self):
        design, w = SampleDesign(24, 7), Weights([0.3, 0.7])
        pops = [enumeration_population(seed) for seed in (7, 8)]
        serial = [repr(enumerate_exact(pop, design, w)) for pop in pops]
        together = [None, None]

        def run(i):
            together[i] = repr(enumerate_exact(pops[i], design, w))

        threads = [threading.Thread(target=run, args=(i,)) for i in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert serial[0] != serial[1]
        assert together == serial


class TestRunMonteCarlo:
    def test_bit_identical_across_runs_and_workers(self, small_pop, pool_always):
        design = SampleDesign(7, 3)
        w = Weights.equal(2)
        a = run_monte_carlo(small_pop, design, w, 40_000, seed=5)
        b = run_monte_carlo(small_pop, design, w, 40_000, seed=5)
        c = run_monte_carlo(small_pop, design, w, 40_000, seed=5, workers=2)
        assert a == b == c

    def test_pool_starts_no_more_workers_than_chunks(self, monkeypatch):
        import multiprocessing.process

        starts = []
        real_start = multiprocessing.process.BaseProcess.start

        def counting_start(self):
            starts.append(self)
            return real_start(self)

        pop = synthetic_population_2000()
        design = SampleDesign(2000, 50)
        w = Weights.equal(2)
        serial = run_monte_carlo(pop, design, w, 6000, seed=4)  # two 4000-row chunks
        monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", counting_start)
        # Lift the work cap and leave CPUs to spare, so that the chunks bind.
        monkeypatch.setattr(simulation, "_POOL_CELLS_PER_WORKER", 1)
        monkeypatch.setattr(simulation, "_cpus_available", lambda: 3)
        pooled = run_monte_carlo(pop, design, w, 6000, seed=4, workers=3)
        assert 1 <= len(starts) <= 2
        assert pooled == serial

    def test_run_below_the_work_cap_starts_no_process(self, monkeypatch, process_starts):
        monkeypatch.setattr(simulation, "_cpus_available", lambda: 2)
        pop = synthetic_population_2000()
        design = SampleDesign(2000, 50)
        w = Weights.equal(2)
        # two 4000-row chunks of 50-unit samples: 300,000 cells
        assert 6000 * 50 < 2 * simulation._POOL_CELLS_PER_WORKER
        pooled = run_monte_carlo(pop, design, w, 6000, seed=4, workers=2)
        assert len(process_starts) == 0
        assert pooled == run_monte_carlo(pop, design, w, 6000, seed=4)

    def test_run_above_the_work_cap_starts_a_pool(self, monkeypatch, process_starts):
        monkeypatch.setattr(simulation, "_cpus_available", lambda: 2)
        pop = synthetic_population_2000()
        design = SampleDesign(2000, 200)
        w = Weights.equal(2)
        # two 4000-row chunks of 200-unit samples: 1,200,000 cells
        assert 6000 * 200 >= 2 * simulation._POOL_CELLS_PER_WORKER
        pooled = run_monte_carlo(pop, design, w, 6000, seed=4, workers=2)
        assert len(process_starts) >= 2
        assert pooled == run_monte_carlo(pop, design, w, 6000, seed=4)

    @pytest.mark.parametrize("probe", ["sched_getaffinity", "cpu_count"])
    def test_workers_capped_at_cpus_available(self, monkeypatch, process_starts, probe):
        # Eight 2048-row chunks, so that without the CPU cap at most 8 processes start.
        if probe == "sched_getaffinity":
            monkeypatch.setattr(simulation.os, "sched_getaffinity", lambda pid: {0, 1},
                                raising=False)
        else:
            monkeypatch.delattr(simulation.os, "sched_getaffinity", raising=False)
            monkeypatch.setattr(simulation.os, "cpu_count", lambda: 2)
        assert simulation._cpus_available() == 2
        monkeypatch.setattr(simulation, "_POOL_CELLS_PER_WORKER", 1)
        pop = census_population()
        design = SampleDesign(5000, 20)
        w = Weights.equal(2)
        pooled = run_monte_carlo(pop, design, w, 8 * 2048, seed=9, workers=64)
        assert 1 <= len(process_starts) <= 2
        assert pooled == run_monte_carlo(pop, design, w, 8 * 2048, seed=9)

    def test_different_seeds_differ(self, small_pop):
        design = SampleDesign(7, 3)
        w = Weights.equal(2)
        a = run_monte_carlo(small_pop, design, w, 5_000, seed=1)
        b = run_monte_carlo(small_pop, design, w, 5_000, seed=2)
        assert a != b

    def test_constant_auxiliary_makes_ap_track_mean(self):
        pop = Population(y=np.linspace(3.0, 9.0, 8), x=np.full((8, 1), 5.0))
        out = run_monte_carlo(pop, SampleDesign(8, 4), Weights([1.0]), 20_000, seed=3)
        ap, mean = out.by_name("ap"), out.by_name("mean")
        assert ap.bias == pytest.approx(mean.bias, rel=1e-12, abs=1e-12)
        assert ap.mse == pytest.approx(mean.mse, rel=1e-12)

    def test_single_replicate_mse_is_squared_deviation(self, small_pop):
        out = run_monte_carlo(small_pop, SampleDesign(7, 3), Weights.equal(2), 1, seed=9)
        e = out.by_name("mean")
        assert e.used == 1
        assert e.mse == pytest.approx(e.bias**2, rel=1e-12)

    def test_matches_enumeration_within_monte_carlo_error(self, small_pop):
        design = SampleDesign(7, 3)
        w = Weights.equal(2)
        exact = enumerate_exact(small_pop, design, w)
        bad = 0
        for seed in range(20):
            mc = run_monte_carlo(small_pop, design, w, 20_000, seed=seed)
            ok = all(
                abs(mc.by_name(nm).bias - exact.by_name(nm).bias) <= 4 * mc.by_name(nm).se_bias
                and abs(mc.by_name(nm).mse - exact.by_name(nm).mse) <= 4 * mc.by_name(nm).se_mse
                for nm in ("mean", "ratio(1)", "ap", "gp", "hp", "product")
            )
            bad += not ok
        assert bad <= 1

    def test_mse_dominates_squared_bias(self, small_pop):
        out = run_monte_carlo(small_pop, SampleDesign(7, 3), Weights.equal(2), 5_000, seed=4)
        for e in out.estimators:
            assert e.mse >= e.bias**2 - 1e-9 * small_pop.ybar**2

    def test_too_many_invalid(self):
        # g = 1 and x = (-1,-1,1,1,1,1): samples of three +1 units push the
        # dual-transformed mean negative, so GM/HM lose 4/20 = 20% of subsets.
        pop = Population(y=np.full(6, 10.0) + np.arange(6), x=np.array(
            [[-1.0], [-1.0], [1.0], [1.0], [1.0], [1.0]]))
        with pytest.raises(TooManyInvalid):
            run_monte_carlo(pop, SampleDesign(6, 3), Weights([1.0]), 2_000, seed=0)

    def test_invalid_replicates_counted_and_excluded(self):
        pop = Population(y=np.full(6, 10.0) + np.arange(6), x=np.array(
            [[-1.0], [-1.0], [1.0], [1.0], [1.0], [1.0]]))
        out = enumerate_exact(pop, SampleDesign(6, 3), Weights([1.0]))
        gp = out.by_name("gp")
        assert gp.invalid == 4  # C(4,3) all-positive-x subsets
        assert gp.used == 16
        assert out.by_name("mean").invalid == 0

    def test_negative_weights_rejected(self, small_pop):
        with pytest.raises(NegativeWeight):
            run_monte_carlo(small_pop, SampleDesign(7, 3), Weights([1.5, -0.5]), 10, seed=0)

    def test_r_must_be_positive(self, small_pop):
        with pytest.raises(ValueError):
            run_monte_carlo(small_pop, SampleDesign(7, 3), Weights.equal(2), 0, seed=0)

    def test_seed_must_be_nonnegative(self, small_pop):
        with pytest.raises(ValueError, match="seed must be >= 0"):
            run_monte_carlo(small_pop, SampleDesign(7, 3), Weights.equal(2), 10, seed=-1)

    @pytest.mark.parametrize("R,seed,name", [
        (10, 1.7, "seed"), (10, 1.0, "seed"), (10, True, "seed"), (10, "1", "seed"),
        (1000.0, 1, "R"), (True, 1, "R"), (np.float64(10), 1, "R")])
    def test_r_and_seed_must_be_integers(self, small_pop, monkeypatch, R, seed, name):
        # Refused before the run starts: a float seed would be truncated, and
        # a float R would reach range().
        monkeypatch.setattr(simulation, "_run_chunks", None)
        with pytest.raises(ValueError, match=f"^{name} must be an integer, got "):
            run_monte_carlo(small_pop, SampleDesign(7, 3), Weights.equal(2), R, seed=seed)

    def test_numpy_integers_are_integers(self, small_pop):
        design, w = SampleDesign(7, 3), Weights.equal(2)
        out = run_monte_carlo(small_pop, design, w, np.int64(10), seed=np.uint8(3))
        assert out == run_monte_carlo(small_pop, design, w, 10, seed=3)
        assert (type(out.requested), type(out.seed)) == (int, int)


class TestControlVariate:
    @pytest.mark.parametrize("N", [8, 10, 12])
    def test_exact_enumeration_equals_raw(self, N):
        # Sum of L over all subsets is exactly Ybar * C(N, n), so under
        # enumeration the control changes nothing but rounding.
        pop = toy_population(N)
        out = enumerate_exact(pop, SampleDesign(N, N // 2), Weights.equal(2))
        for e in out.estimators:
            if e.name in CV_ESTIMATORS:
                assert e.bias_cv == pytest.approx(e.bias, rel=1e-12)
                assert e.mse_cv == pytest.approx(e.mse, rel=1e-12)
                assert e.se_bias_cv == 0.0 and e.se_mse_cv == 0.0
            else:
                assert (e.bias_cv, e.mse_cv, e.se_bias_cv, e.se_mse_cv) == (None,) * 4

    def test_matches_enumeration_within_monte_carlo_error(self, small_pop):
        design = SampleDesign(7, 3)
        w = Weights.equal(2)
        exact = enumerate_exact(small_pop, design, w)
        bad = 0
        for seed in range(20):
            mc = run_monte_carlo(small_pop, design, w, 20_000, seed=seed)
            ok = True
            for nm in CV_ESTIMATORS:
                e, x = mc.by_name(nm), exact.by_name(nm)
                # the control must actually reduce the noise of the raw estimate
                assert e.se_bias_cv < e.se_bias / 4
                ok &= abs(e.bias_cv - x.bias) <= 4 * e.se_bias_cv
                ok &= abs(e.mse_cv - x.mse) <= 4 * e.se_mse_cv
            bad += not ok
        assert bad <= 1

    @pytest.mark.parametrize("which", ["small", "toy10", "n2000"])
    def test_control_variance_is_first_order_mse(self, small_pop, which):
        pop, n = {
            "small": (small_pop, 3),
            "toy10": (toy_population(10), 5),
            "n2000": (synthetic_population_2000(), 100),
        }[which]
        w = Weights([0.3, 0.7])
        design = SampleDesign(pop.N, n)
        expected = mse_dual_common(compute_moments(pop, design), w)
        assert control_variance(pop, design, w) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("k", [1, 2, 10])
    def test_control_variance_is_the_whole_array_expression(self, k):
        # u's sum over the k auxiliaries is added from left to right onto
        # 0.0, as in the kernel, with x in C and in Fortran order.
        rng = np.random.default_rng(k)
        y = rng.uniform(50.0, 150.0, 300)
        x = rng.uniform(10.0, 300.0, (300, k))
        alpha = rng.uniform(0.1, 1.0, k)
        w = Weights(alpha / alpha.sum())
        design = SampleDesign(300, 40)
        for layout in (x, np.asfortranarray(x)):
            pop = Population(y, layout)
            assert pop.x.flags.f_contiguous == (layout is not x or k == 1)
            u = pop.y + pop.ybar * design.g * left_sum(pop.x / pop.xbar * w.alpha)
            expected = (1.0 / design.n - 1.0 / design.N) * float(np.var(u, ddof=1))
            assert control_variance(pop, design, w) == expected

    def test_absent_when_replicates_invalid(self):
        pop = Population(y=np.full(6, 10.0) + np.arange(6), x=np.array(
            [[-1.0], [-1.0], [1.0], [1.0], [1.0], [1.0]]))
        out = enumerate_exact(pop, SampleDesign(6, 3), Weights([1.0]))
        for e in out.estimators:
            if e.name in CV_ESTIMATORS and e.invalid == 0:
                assert e.bias_cv is not None
            else:
                assert (e.bias_cv, e.mse_cv, e.se_bias_cv, e.se_mse_cv) == (None,) * 4
        assert out.by_name("gp").invalid > 0


class TestEstimatesForSamples:
    def test_pointwise_ordering(self, rng):
        pop = toy_population(10)
        design = SampleDesign(10, 5)
        w = Weights.equal(2)
        idx = np.array([
            np.sort(rng.choice(10, size=5, replace=False)) for _ in range(500)
        ])
        names = estimator_names(pop.k)
        vals, _ = evaluate_batch(pop.y, pop.x, pop.xbar, design.g, w.alpha, idx)
        valid = ~np.isnan(vals)
        iap, igp, ihp = names.index("ap"), names.index("gp"), names.index("hp")
        ok = valid[:, igp] & valid[:, ihp]
        assert ok.any()
        scale = 1e-12 * np.abs(vals[ok, iap])
        assert np.all(vals[ok, ihp] <= vals[ok, igp] + scale)
        assert np.all(vals[ok, igp] <= vals[ok, iap] + scale)

    def test_matches_scalar_estimators(self, small_pop):
        design = SampleDesign(7, 3)
        w = Weights([0.3, 0.7])
        idx = np.array([[0, 2, 5], [1, 3, 6]])
        names = estimator_names(small_pop.k)
        vals, _ = evaluate_batch(small_pop.y, small_pop.x, small_pop.xbar,
                                 design.g, w.alpha, idx)
        valid = ~np.isnan(vals)
        for row, subset in enumerate(((0, 2, 5), (1, 3, 6))):
            ss = Population(small_pop.y[list(subset)], small_pop.x[list(subset)])
            terms = est.dual_terms(ss, small_pop.xbar, design.g)
            expected = {
                "mean": ss.ybar,
                "ratio(1)": est.estimate_classic_ratio(ss, float(small_pop.xbar[0]), 0),
                "ap": est.estimate_arithmetic(terms, w),
                "gp": est.estimate_geometric(terms, w),
                "hp": est.estimate_harmonic(terms, w),
                "product": est.estimate_product(terms),
            }
            for nm, val in expected.items():
                assert valid[row, names.index(nm)]
                assert vals[row, names.index(nm)] == pytest.approx(val, rel=1e-12)


def compress_first_sums(vals, ybar_true, glin):
    """_accumulate's sums as numpy gives them with each column compressed to
    its non-NaN estimates before d is taken, and every product a new array."""
    sums = np.full((vals.shape[1], 8), np.nan)
    with np.errstate(invalid="ignore"):  # inf - inf
        for col, v in enumerate(vals.T):
            d = v[~np.isnan(v)] - ybar_true
            dd = d * d
            sums[col, :4] = (d.size, np.sum(d), np.sum(dd), np.sum(dd * dd))
        lin = (vals[:, 0] - ybar_true) + ybar_true * glin
        for col in simulation._CV_COLUMNS:
            d = vals[:, col] - ybar_true
            c = d - lin
            q = c * (d + lin)
            sums[col, 4:] = (np.sum(c), np.sum(c * c), np.sum(q), np.sum(q * q))
    return sums


def chunk_columns(B, k=2):
    """(B, k+5) estimates in Fortran order with a NaN in some ratio(1) rows
    (none at B = 1), one in gp's row 0, hp all NaN, and +inf and -inf but no
    NaN in ap and in the product (at B = 1 the one cell is -inf)."""
    rng = np.random.default_rng(B)
    vals = np.asfortranarray(rng.uniform(90.0, 110.0, (B, k + 5)))
    vals[1::3, 1] = np.nan
    vals[0, -3] = np.nan
    vals[:, -2] = np.nan
    for col in (-4, -1):
        vals[0, col], vals[-1, col] = np.inf, -np.inf
    return vals, rng.normal(0.0, 0.01, B)


class TestChunkSums:
    """Each chunk reduces to one (k+5, 8) array of sums, and _finalize merges
    the chunks' arrays cell by cell."""

    def test_accumulate_counts_only_defined_estimates(self):
        rng = np.random.default_rng(4)
        names = estimator_names(1)
        vals = rng.uniform(90.0, 110.0, (5, len(names)))
        vals[1, names.index("ratio(1)")] = np.nan
        vals[[0, 3], names.index("gp")] = np.nan
        glin = rng.normal(0.0, 0.01, 5)
        ybar_true = 100.0
        sums = simulation._accumulate(vals, ybar_true, glin)
        assert sums.shape == (len(names), 8)
        for col, nm in enumerate(names):
            d = vals[~np.isnan(vals[:, col]), col] - ybar_true
            assert sums[col, 0] == d.size
            assert sums[col, 1:4] == pytest.approx([d.sum(), (d**2).sum(), (d**4).sum()])
            cv = sums[col, 4:]
            if nm in ("ap", "hp"):
                assert np.isfinite(cv).all()
            else:  # not a CV estimator (mean, ratio, product), or gp with a NaN
                assert np.isnan(cv).all(), nm
        assert sums[names.index("gp"), 0] == 3

    @pytest.mark.parametrize("B", [1, 2, 300])
    def test_accumulate_matches_compress_first(self, B):
        # d is taken for the whole column and compressed only where the
        # column holds a NaN: the same sums, bit for bit, as compressing v.
        rng = np.random.default_rng(B)
        k = 2
        vals = np.asfortranarray(rng.uniform(90.0, 110.0, (B, k + 5)))
        vals[rng.random(B) < 0.3, 1] = np.nan  # some NaN, or none at B = 1
        vals[0, -3] = np.nan  # gp: a NaN in row 0 at every B
        vals[:, -2] = np.nan  # hp: all NaN
        glin = rng.normal(0.0, 0.01, B)
        ybar_true = 100.0
        expected = np.full((k + 5, 8), np.nan)
        for col, v in enumerate(vals.T):
            d = v[~np.isnan(v)] - ybar_true
            dd = d * d
            expected[col, :4] = (d.size, np.sum(d), np.sum(dd), np.sum(dd * dd))
        lin = (vals[:, 0] - ybar_true) + ybar_true * glin
        for col in simulation._CV_COLUMNS:
            d = vals[:, col] - ybar_true
            c = d - lin
            q = c * (d + lin)
            expected[col, 4:] = (np.sum(c), np.sum(c * c), np.sum(q), np.sum(q * q))
        sums = simulation._accumulate(vals, ybar_true, glin)
        assert sums.tobytes() == expected.tobytes()
        assert sums[-2, 0] == 0 and sums[-3, 0] == B - 1

    @pytest.mark.parametrize("B", [1, 2, 300, 32768])
    def test_exact_sums_are_the_full_sums_without_the_se_only_ones(self, B):
        # An enumeration leaves sum d^4, sum c^2 and sum q^2 at 0.0; count,
        # sum d, sum d^2, sum c and sum q are those of the full sums, byte for
        # byte, on columns with some NaN, all NaN, and +inf with -inf.
        vals, glin = chunk_columns(B)
        before = vals.tobytes()
        full = simulation._accumulate(vals, 100.0, glin)
        exact = simulation._accumulate(vals, 100.0, glin, exact=True)
        assert vals.tobytes() == before
        kept = [0, 1, 2, 4, 6]
        assert exact[:, kept].tobytes() == full[:, kept].tobytes()
        cv = list(simulation._CV_COLUMNS)
        assert (exact[:, 3] == 0.0).all() and (exact[cv][:, [5, 7]] == 0.0).all()
        assert np.isnan(np.delete(exact, cv, axis=0)[:, 4:]).all()
        assert exact[1, 0] == B - len(range(1, B, 3)) and exact[-2, 0] == 0
        assert exact[-1, 0] == B and math.isnan(exact[-1, 1]) == (B > 1)

    @pytest.mark.parametrize("B", [1, 2, 300, 32768])
    def test_plus_and_minus_inf_match_compress_first(self, B):
        # sum d of a column holding +inf and -inf is NaN though the column
        # holds no NaN; the scan then finds none and keeps the whole column.
        vals, glin = chunk_columns(B)
        sums = simulation._accumulate(vals, 100.0, glin)
        assert sums.tobytes() == compress_first_sums(vals, 100.0, glin).tobytes()

    def test_finalize_ignores_chunk_order(self, small_pop):
        design = SampleDesign(7, 3)
        w = Weights([0.3, 0.7])
        rng = np.random.default_rng(8)
        partials = []
        for rows in (1, 5, 2, 40, 3, 17, 9, 2):
            idx = simulation._sample_index_matrix(7, 3, rng, rows)
            vals, glin = evaluate_batch(small_pop.y, small_pop.x, small_pop.xbar,
                                        design.g, w.alpha, idx)
            partials.append(simulation._accumulate(vals, small_pop.ybar, glin))

        def finalize(parts):
            return simulation._finalize(small_pop, design, w, parts, 79, 0)

        want = finalize(partials)
        shuffled = [partials[i] for i in np.random.default_rng(9).permutation(len(partials))]
        for parts in (partials[::-1], shuffled):
            got = finalize(parts)
            assert got == want
            assert repr(got) == repr(want)
        assert all(type(e.used) is int and type(e.bias) is float for e in want.estimators)

    def test_overflowing_estimates_are_undefined(self):
        # y near the float64 limit: ap and gp overflow to NaN on every subset,
        # and sums of squares overflow in every column.
        rng = np.random.default_rng(1)
        y = rng.uniform(0.5, 1.5, 10) * 1e307
        x1 = rng.uniform(1, 2, 10)
        x2 = rng.uniform(1, 2, 10) * 1e-2
        pop = Population(y, np.column_stack([x1, x2]))
        with np.errstate(over="ignore", invalid="ignore"):
            out = enumerate_exact(pop, SampleDesign(10, 3), Weights([1.0, 0.0]))
        counts = {e.name: (e.used, e.invalid) for e in out.estimators}
        assert counts == {"mean": (120, 0), "ratio(1)": (120, 0), "ratio(2)": (120, 0),
                          "ap": (0, 120), "gp": (0, 120), "hp": (120, 0), "product": (120, 0)}
        assert math.isnan(out.by_name("product").bias)
        assert all(math.isnan(e.mse) for e in out.estimators)

    def test_merge_of_sums_past_float64_is_nan(self):
        part = np.full((len(estimator_names(2)), 8), 1e308)
        assert np.isnan(simulation._merge([part, part])).all()
        assert simulation._merge([part, -part]).tolist() == np.zeros_like(part).tolist()

    def test_sums_past_float64_leave_the_other_figures(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = run_monte_carlo(overflow_population(1e76), SampleDesign(40, 2),
                                  Weights.equal(2), 100_000, seed=0)
        nan = [(e.name, field) for e in out.estimators
               for field in ("mean_estimate", "bias", "mse")
               if math.isnan(getattr(e, field))]
        assert nan == [("product", "mse")]
        assert all(e.invalid == 0 for e in out.estimators)

    def test_standard_errors_of_sums_past_1e154(self):
        # The sums of d^2 reach ~3e156 here, so their square alone is beyond
        # float64, while the sums of d^4 of mean, ap, gp and hp are finite
        # (~1.6e308). Those of the ratios are not, so their se_mse is NaN.
        out = run_monte_carlo(overflow_population(1e76), SampleDesign(40, 2),
                              Weights.equal(2), 100_000, seed=0)
        for e in out.estimators[:-1]:
            assert 0.0 < e.se_bias < math.inf, e.name
        for name in ("mean", "ap", "gp", "hp"):
            assert 0.0 < out.by_name(name).se_mse < math.inf, name
        assert math.isnan(out.by_name("ratio(1)").se_mse)
        assert math.isnan(out.by_name("ratio(2)").se_mse)

    def test_chunk_sums_overflow_without_warnings(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = run_monte_carlo(overflow_population(3e76), SampleDesign(40, 2),
                                  Weights.equal(2), 10_000, seed=0)
        assert math.isnan(out.by_name("product").mse)
        assert math.isfinite(out.by_name("ap").mse)


class TestCompareAnalyticEmpirical:
    def test_mode_mismatch(self, small_pop):
        design_paper = SampleDesign(7, 3, MomentMode.PAPER_LITERAL)
        m = compute_moments(small_pop, design_paper)
        sim = enumerate_exact(small_pop, SampleDesign(7, 3), Weights.equal(2))
        with pytest.raises(ModeMismatch):
            compare_analytic_empirical(m, sim)

    def test_analytic_values_are_the_signed_compare_all_rows(self):
        # cv_y * rho_yx > cv_x makes the classical-ratio biases negative.
        pop = correlated_population(10, ybar=100.0, xbar=(50.0, 200.0), cv_y=0.3, cv_x=0.1,
                                    rho_yx=0.8, rho_xx=0.3, seed=2)
        design = SampleDesign(10, 4)
        m = compute_moments(pop, design)
        w = Weights.equal(2)
        rows = {r.estimator: r for r in compare_all(m, w).rows}
        assert rows["ratio(1)"].bias == bias_classic_ratio(m, 0) < 0.0
        assert rows["ratio(2)"].bias == bias_classic_ratio(m, 1) < 0.0
        assert rows["ap"].bias == bias_arithmetic(m, w)
        assert rows["gp"].bias == bias_geometric(m, w)
        assert rows["hp"].bias == bias_harmonic(m, w)
        assert rows["product"].bias is None and rows["product"].abs_bias is None
        for row in rows.values():
            if row.bias is not None:
                assert row.abs_bias == abs(row.bias)
        sim = enumerate_exact(pop, design, w)
        gaps = compare_analytic_empirical(m, sim)
        assert [g.estimator for g in gaps] == [e.name for e in sim.estimators]
        assert ({g.estimator for g in gaps if g.analytic_mse is not None}
                == {nm for nm, r in rows.items() if r.mse is not None})
        for g in gaps:
            row = rows[g.estimator]
            assert (g.analytic_bias, g.analytic_mse) == (row.bias, row.mse)

    def test_exact_mean_row_identity(self, small_pop):
        # analytic ybar^2 C0^2 (srswor) equals the enumerated MSE of the mean.
        design = SampleDesign(7, 3)
        m = compute_moments(small_pop, design)
        sim = enumerate_exact(small_pop, design, Weights.equal(2))
        row = {r.estimator: r for r in compare_analytic_empirical(m, sim)}["mean"]
        assert row.analytic_mse == pytest.approx(variance_mean_per_unit(m), rel=1e-15)
        assert abs(row.analytic_mse - row.emp_mse) / abs(row.emp_mse) <= 1e-10
        assert row.mse_gap_se is None  # exact results carry no SE units
        assert row.bias_gap_se is None
        assert row.analytic_bias == 0.0

    def test_zero_variance_auxiliaries_have_zero_dual_gaps(self):
        # Constant auxiliary: every dual estimator degenerates to the mean.
        pop = Population(y=np.linspace(3.0, 9.0, 8), x=np.full((8, 1), 5.0))
        design = SampleDesign(8, 4)
        sim = enumerate_exact(pop, design, Weights([1.0]))
        data = np.column_stack([pop.y, pop.x])
        sy_sq = float(np.cov(data, rowvar=False, ddof=1)[0, 0])
        from dualratio.moments import MomentSet

        m = MomentSet(
            ybar=pop.ybar, xbar=pop.xbar,
            c0_sq=design.theta * sy_sq / pop.ybar**2,
            c0i=np.array([0.0]), cij=np.array([[0.0]]),
            g=design.g, theta=design.theta, mode=MomentMode.SRSWOR_EXACT,
        )
        rows = {r.estimator: r for r in compare_analytic_empirical(m, sim)}
        mean_scale = rows["mean"].emp_mse
        for nm in ("ap", "gp", "hp"):
            assert abs(rows[nm].analytic_mse - rows[nm].emp_mse) <= 1e-9 * mean_scale
            assert abs(rows[nm].analytic_bias - rows[nm].emp_bias) <= 1e-9 * abs(pop.ybar)

    def test_monte_carlo_gaps_in_se_units(self, small_pop):
        design = SampleDesign(7, 3)
        m = compute_moments(small_pop, design)
        sim = run_monte_carlo(small_pop, design, Weights.equal(2), 5000, seed=4)
        table = {r.estimator: r for r in compare_all(m, Weights.equal(2)).rows}
        for row, est in zip(compare_analytic_empirical(m, sim), sim.estimators):
            assert (row.estimator, row.used, row.invalid) == (est.name, est.used, est.invalid)
            assert (row.emp_bias, row.se_bias, row.emp_mse, row.se_mse) == (
                est.bias, est.se_bias, est.mse, est.se_mse)
            if est.name == "product":
                assert row.analytic_bias is row.bias_gap_se is None
                assert row.analytic_mse is row.mse_gap_se is None
                continue
            assert row.bias_gap_se == abs(table[est.name].bias - est.bias) / est.se_bias
            assert row.mse_gap_se == abs(table[est.name].mse - est.mse) / est.se_mse

    def test_first_order_mse_equality_sharpens_with_n(self):
        # ap/gp/hp empirical MSEs coincide to first order; their spread
        # shrinks as n grows at a fixed sampling fraction (fixed g), the
        # regime where the first-order error term actually decays.
        spreads = []
        for N in (16, 32, 64):
            pop = correlated_population(
                N, ybar=100.0, xbar=(80.0, 120.0), cv_y=0.1, cv_x=0.1,
                rho_yx=0.6, rho_xx=0.3, seed=3,
            )
            sim = run_monte_carlo(pop, SampleDesign(N, N // 4), Weights.equal(2),
                                  200_000, seed=9)
            mses = [sim.by_name(nm).mse for nm in ("ap", "gp", "hp")]
            spreads.append(max(mses) - min(mses))
        assert spreads[0] > spreads[1] > spreads[2]


class TestSimResultShape:
    def test_requested_and_weights_recorded(self, small_pop):
        w = Weights([0.25, 0.75])
        out = run_monte_carlo(small_pop, SampleDesign(7, 3), w, 123, seed=17)
        assert out.requested == 123
        assert out.seed == 17
        assert not out.exact
        assert repr(out).startswith("SimResult(requested=123, seed=17, exact=False, ")
        assert out.weights == (0.25, 0.75)
        assert [e.name for e in out.estimators] == [
            "mean", "ratio(1)", "ratio(2)", "ap", "gp", "hp", "product",
        ]

    def test_exact_follows_from_the_seed(self, small_pop):
        out = run_monte_carlo(small_pop, SampleDesign(7, 3), Weights.equal(2), 10, seed=0)
        fields = dict(ybar_true=out.ybar_true, weights=out.weights, estimators=out.estimators)
        assert simulation.SimResult(requested=10, seed=None, **fields).exact
        assert simulation.SimResult(requested=10, seed=0, **fields) == out
        with pytest.raises(TypeError):
            simulation.SimResult(requested=10, seed=0, exact=False, **fields)

    def test_by_name_unknown(self, small_pop):
        out = run_monte_carlo(small_pop, SampleDesign(7, 3), Weights.equal(2), 10, seed=0)
        with pytest.raises(KeyError):
            out.by_name("nope")
