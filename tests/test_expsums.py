"""Prime subsets, exponential sums and FFT spectra, the local model, and the
Fejer-weighted interval polynomial."""
import math
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from primecusps import expsums
from primecusps.arith import CapacityError, build_context
from primecusps.expsums import (
    MOMENT_REACH,
    SWEEP_BUDGET,
    TERM_ERROR,
    IntervalPolynomial,
    PrimeSubset,
    exp_sum,
    exp_sum_at,
    exp_sums_on_progression,
    fejer_interval_polynomial,
    grid_blocks,
    grid_size,
    grid_sums,
    l1_estimate,
    local_model_full,
    mirrored,
    rough_integers,
    spectrum,
    subset_full,
    subset_random,
    subset_sqrt2,
)


def test_subset_full(ctx):
    s = subset_full(ctx, 100_000)
    assert s.N == 100_000
    assert s.size == len(ctx.primes_between(317, 100_000))
    assert int(s.members[0]) ** 2 >= 100_000
    assert s.K == pytest.approx(100_000 / (s.size * math.log(100_000)))
    ind = s.indicator()
    assert ind.shape == (100_001,) and ind.sum() == s.size
    assert np.array_equal(np.flatnonzero(ind), s.members)


def test_subset_sqrt2_membership(ctx):
    s = subset_sqrt2(ctx, 10_000)
    member_set = set(int(p) for p in s.members)
    # fractional-part filter at 1/2; 11 sits just above the cut
    assert 11 not in member_set
    # {p sqrt(2)} <= 1/2 exactly when floor(2 p sqrt(2)) = isqrt(8 p^2) is even
    exact = {int(p) for p in subset_full(ctx, 10_000).members
             if math.isqrt(8 * int(p) ** 2) % 2 == 0}
    assert member_set == exact
    full = subset_full(ctx, 10_000)
    assert 0 < s.size < full.size


def test_subset_random_determinism(ctx):
    a = subset_random(ctx, 10_000, 0.5, seed=42)
    b = subset_random(ctx, 10_000, 0.5, seed=42)
    c = subset_random(ctx, 10_000, 0.5, seed=43)
    assert np.array_equal(a.members, b.members)
    assert not np.array_equal(a.members, c.members)
    full = subset_full(ctx, 10_000)
    assert 0.35 * full.size < a.size < 0.65 * full.size


def test_subset_validation(ctx):
    with pytest.raises(ValueError):
        subset_full(ctx, 50)
    with pytest.raises(ValueError):
        subset_random(ctx, 10_000, 0.0, seed=1)


def test_subset_beyond_table_is_capacity_error():
    # the prime table must cover [2, N]; a short table is never sliced
    with pytest.raises(CapacityError, match="exceeds prime table limit"):
        subset_full(build_context(1000), 5000)


def _piece_length(subset, Q):
    """Most consecutive samples exp_sums_on_progression expands about one
    midpoint: 2 pi W (k_hi - k_lo)/Q <= MOMENT_REACH, W the half width of
    the members."""
    W = (int(subset.members.max()) - int(subset.members.min())) / 2
    return int(MOMENT_REACH * Q / (2 * math.pi * W)) + 1


@pytest.mark.parametrize("kind", ["full", "sqrt2", "random", "all-primes"])
def test_progression_matches_direct(ctx, kind):
    N = 10_000
    # all-primes takes every prime up to N, the even prime 2 included
    subset = {"full": lambda: subset_full(ctx, N),
              "sqrt2": lambda: subset_sqrt2(ctx, N),
              "random": lambda: subset_random(ctx, N, 0.5, seed=11),
              "all-primes": lambda: PrimeSubset(N, ctx.primes_below(N + 1),
                                                "all-primes")}[kind]()
    tol = 1e-9 * subset.size
    Q = 6 * 240 * 4 * N
    step = _piece_length(subset, Q)
    assert 1000 < step < 20_000
    cases = [
        (Q, 3 * 12_345, 1),                         # one sample
        (Q, 3 * 77_777, 3 * step + 40),             # four pieces
        (Q, Q // 2 - 10, 20),                       # wraps past alpha = 1
        (1009, 490, 50),                            # odd Q, wraps too
    ]
    for q, k0, K in cases:
        vals = exp_sums_on_progression(subset, q, np.arange(k0, k0 + K))
        assert vals.shape == (K,)
        # both sides of every piece cut
        cuts = {i for cut in range(step, K, step) for i in range(cut - 2, cut + 2)}
        for k in sorted({0, K - 1, *range(0, K, max(1, K // 25)), *cuts}):
            direct = exp_sum_at(subset, ((2 * (k0 + k) + 1) % q) / q)
            assert abs(vals[k] - direct) <= tol, (q, k0, K, k)


def test_progression_at_gapped_samples(ctx):
    # runs of length 1 and 4, isolated points, and one run several pieces
    # long, so that run is cut into three full pieces and a short one
    s = subset_full(ctx, 10_000)
    Q = 6 * 240 * 4 * s.N
    step = _piece_length(s, Q)
    long_run = np.arange(500, 500 + 3 * step + 40)
    ks = np.concatenate(([3], [7, 8, 9, 10], [40], long_run,
                         [3 * step + 900, 3 * step + 2000],
                         [Q // 2 + 1, Q // 2 + 2, Q // 2 + 3, Q // 2 + 4]))
    vals = exp_sums_on_progression(s, Q, ks)
    assert vals.shape == ks.shape
    # the long run starts at ks[6]; its pieces start every step samples
    cuts = {i for cut in range(6 + step, 6 + len(long_run), step)
            for i in range(cut - 3, cut + 3)}
    checked = sorted({*range(7), *cuts, *range(6, 6 + len(long_run), 997),
                      *range(len(ks) - 6, len(ks))})
    for i in checked:
        direct = exp_sum_at(s, ((2 * int(ks[i]) + 1) % Q) / Q)
        assert abs(vals[i] - direct) <= 1e-9 * s.size, (i, ks[i])


def test_progression_validation(ctx):
    s = subset_full(ctx, 10_000)
    assert exp_sums_on_progression(s, 100, np.arange(0)).shape == (0,)
    with pytest.raises(ValueError):
        exp_sums_on_progression(s, 0, np.arange(5))
    for ks in ([3, 1, 2], [1, 2, 2, 3], [-1, 0, 1]):  # unsorted, repeated, negative
        with pytest.raises(ValueError, match="ascending"):
            exp_sums_on_progression(s, 100, ks)


def test_progression_over_one_member():
    # one member has no width: every sample is e(p (2k + 1)/Q) itself
    p, Q = 9973, 1009
    ks = np.arange(40, 90)
    vals = exp_sums_on_progression(PrimeSubset(10_000, np.array([p]), "one"), Q, ks)
    direct = np.exp(2j * math.pi * p * ((2 * ks + 1) % Q / Q))
    assert np.abs(vals - direct).max() <= 1e-9


def test_progression_past_int64_phases(ctx):
    # past (N + 1)(Q - 1) = 2^63, where p (2k + 1) mod Q would overflow
    # int64, the samples still match direct sums: the expansion reduces
    # only the piece midpoints mod Q, as Python integers
    s = subset_full(ctx, 10_000)
    edge = ((1 << 63) - 1) // (s.N + 1) + 1  # the last Q below that limit
    for Q in (edge + 1, 1 << 50):
        ks = np.arange(5) + (Q - 12_345_678_901) // 2
        vals = exp_sums_on_progression(s, Q, ks)
        for k, val in zip(ks.tolist(), vals):
            direct = exp_sum_at(s, ((2 * k + 1) % Q) / Q)
            assert abs(val - direct) <= 1e-9 * s.size, (Q, k)


def test_progression_does_not_depend_on_the_worker_count(ctx, monkeypatch):
    # one piece a sample at Q = 1009, then pieces of a long run: the
    # moments of every piece are bitwise the same however the midpoints
    # fall to the workers
    s = subset_full(ctx, 10_000)
    Q = 6 * 240 * 4 * s.N
    for q, ks in ((1009, np.arange(490, 540)),
                  (Q, np.arange(500, 500 + 5 * _piece_length(s, Q)))):
        got = []
        for workers in (1, 3):
            monkeypatch.setattr(expsums, "WORKERS", workers)
            got.append(exp_sums_on_progression(s, q, ks))
        assert np.array_equal(got[0], got[1]), q


def test_exp_sum_basics(ctx):
    s = subset_full(ctx, 10_000)
    assert exp_sum_at(s, 0.0) == pytest.approx(s.size)
    # all members odd, so alpha=1/2 flips every phase
    assert exp_sum_at(s, 0.5) == pytest.approx(-s.size, abs=1e-6 * s.size)
    conj = np.conj(exp_sum_at(s, 0.25))
    assert exp_sum_at(s, 0.75) == pytest.approx(conj, abs=1e-6 * s.size)


def test_exp_sum_weight_matrix_matches_complex_dots():
    rng = np.random.default_rng(11)
    ns = np.arange(-3000, 6001)
    W = np.stack((rng.normal(size=ns.size), rng.random(ns.size),
                  (rng.random(ns.size) < 0.1).astype(float)))
    for alpha in (0.0, 0.123, 0.5, 0.987):
        # theta is rounded exactly as in the complex form's imaginary part
        theta = expsums.TWO_PI * alpha * ns
        assert np.array_equal(theta, (expsums.TWO_PI * 1j * alpha * ns).imag)
        got = exp_sum(ns, alpha, W)
        assert got.shape == (3,)
        phases = np.exp(2j * np.pi * alpha * ns)
        for row, value in zip(W, got):
            assert abs(value - np.dot(row.astype(complex), phases)) \
                <= 1e-12 * np.abs(row).sum(), alpha
        # unit rows read single terms back: within TERM_ERROR of e^{i theta},
        # and farther than that from e^{icn} at the unrounded cn, so
        # exp_sum uses that theta (at alpha = 0 the two coincide)
        picks = np.array([0, 1000, 5000, 7000, ns.size - 1])
        rows = np.zeros((picks.size, ns.size))
        rows[np.arange(picks.size), picks] = 1.0
        unit = exp_sum(ns, alpha, rows)
        rounded = theta[picks].astype(np.longdouble)
        assert np.all(np.abs(unit.real - np.cos(rounded)) <= TERM_ERROR), alpha
        assert np.all(np.abs(unit.imag - np.sin(rounded)) <= TERM_ERROR), alpha
        if alpha:
            exact = np.longdouble(expsums.TWO_PI * alpha) * ns[picks]
            assert np.all(np.hypot(unit.real - np.cos(exact),
                                   unit.imag - np.sin(exact)) > TERM_ERROR), alpha
    # past TERM_CHUNK points the terms are formed one pass at a time: unit
    # rows on both sides of each pass boundary still read single terms
    # within TERM_ERROR of e^{i theta}
    chunk = expsums.TERM_CHUNK
    long = np.arange(-3000, 2 * chunk + 5)
    picks = np.array([0, chunk - 1, chunk, chunk + 1, 2 * chunk - 1, 2 * chunk, long.size - 1])
    rows = np.zeros((picks.size, long.size))
    rows[np.arange(picks.size), picks] = 1.0
    for alpha in (0.123, 0.987):
        unit = exp_sum(long, alpha, rows)
        rounded = (expsums.TWO_PI * alpha * long[picks]).astype(np.longdouble)
        assert np.all(np.abs(unit.real - np.cos(rounded)) <= TERM_ERROR), alpha
        assert np.all(np.abs(unit.imag - np.sin(rounded)) <= TERM_ERROR), alpha
    # at an array of alphas, one row per alpha, bitwise the one-alpha rows
    # however the alphas fall to the workers
    for count in (0, 1, expsums.WORKERS + 1, 1000):
        alphas = rng.random(count)
        got = exp_sum(ns, alphas, W)
        assert got.shape == (count, 3)
        loop = np.reshape([exp_sum(ns, a, W) for a in alphas], (count, 3))
        assert np.array_equal(got, loop), count


def test_exp_sum_over_many_alphas_matches_scalar(ctx):
    s = subset_full(ctx, 10_000)
    alphas = np.random.default_rng(12).random(1000)
    # from four points to 65,537, bitwise the one-alpha sums however the
    # alphas fall to the workers
    every = (0, 1, expsums.WORKERS + 1, 1000)
    for ns, counts in ((np.array([2, 4, 6, 8]), every), (s.members[:5000], every),
                       (np.arange(1, 65538), every[:3])):
        for count in counts:
            got = exp_sum(ns, alphas[:count])
            assert got.shape == (count,)
            assert np.array_equal(got, [exp_sum(ns, a) for a in alphas[:count]]), \
                (len(ns), count)


def test_exp_sum_from_more_threads_than_workers():
    # three callers on threads of their own, each call with workers of its
    # own (at most 3 WORKERS at once); every result lands in its own slot
    rng = np.random.default_rng(13)
    ns = np.arange(-500, 1501)
    W = rng.normal(size=(3, ns.size))
    alphas = rng.random(4 * expsums.WORKERS + 1)
    serial = ([exp_sum(ns, a) for a in alphas], [exp_sum(ns, a, W) for a in alphas])
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    callers = ThreadPoolExecutor(3)
    try:
        runs = [callers.submit(lambda: (exp_sum(ns, alphas), exp_sum(ns, alphas, W)))
                for _ in range(12)]
        results = [run.result(timeout=60) for run in runs]
    finally:
        sys.setswitchinterval(interval)
        callers.shutdown(wait=False, cancel_futures=True)
    for plain, weighted in results:
        assert np.array_equal(plain, serial[0]) and np.array_equal(weighted, serial[1])


def test_exp_sum_threads_end_with_the_call(monkeypatch):
    # an alpha-array call runs its pieces on threads it starts and joins
    # before it returns: none is left behind for a later call
    monkeypatch.setattr(expsums, "WORKERS", 3)
    kernel = expsums._kernel
    ran_on = []

    def spy(*args):
        ran_on.append(threading.current_thread().name)
        return kernel(*args)

    monkeypatch.setattr(expsums, "_kernel", spy)
    ns = np.arange(-500, 1501)
    for alphas in (np.random.default_rng(15).random(10), np.zeros(3)):
        assert len(exp_sum(ns, alphas)) == len(alphas)
        # one kernel a piece, each on a worker thread
        assert len(ran_on) == 3 and all(name.startswith("exp_sum") for name in ran_on)
        assert [t.name for t in threading.enumerate() if t.name.startswith("exp_sum")] == []
        ran_on.clear()


@pytest.mark.parametrize("workers", [1, 3, 7])
def test_exp_sum_does_not_depend_on_the_worker_count(monkeypatch, workers):
    # both array forms, bitwise the one-alpha kernel, from no alphas and
    # fewer alphas than workers up to many alphas a worker; over one pass
    # and over three passes of TERM_CHUNK points, the last of 7
    rng = np.random.default_rng(14)
    monkeypatch.setattr(expsums, "WORKERS", workers)
    for ns in (np.arange(-700, 2300), np.arange(-700, 2 * expsums.TERM_CHUNK - 693)):
        W = rng.normal(size=(3, ns.size))
        digits = expsums._digits(ns, expsums._table_shape(ns))
        plain, weighted = expsums._kernel(ns, None, digits), expsums._kernel(ns, W, digits)
        for count in (0, 1, 2, workers + 1, 40):
            alphas = rng.random(count)
            got = exp_sum(ns, alphas)
            assert got.shape == (count,)
            assert np.array_equal(got, [plain(a) for a in alphas]), (ns.size, count)
            got = exp_sum(ns, alphas, W)
            assert got.shape == (count, 3)
            assert np.array_equal(got, np.reshape([weighted(a) for a in alphas],
                                                  (count, 3))), (ns.size, count)


@pytest.mark.parametrize("workers", [1, 3])
def test_exp_sum_direct_blocks_match_one_alpha_sums(monkeypatch, workers):
    # four points take no tables, so a worker sums PLACE_CHUNK/4 = 1024
    # alphas a block: 10,000 alphas cross ten blocks on one worker and four
    # on each of three, where pieces end inside a block.  Every sum is
    # bitwise its alpha's alone, and that is the 1-D sum of libm's terms
    ns = np.array([3, 11, 96, 1001])
    assert expsums._table_shape(ns) is None
    monkeypatch.setattr(expsums, "WORKERS", workers)
    alphas = np.random.default_rng(16).random(10_000) - 0.5
    got = exp_sum(ns, alphas)
    assert np.array_equal(got, [exp_sum(ns, a) for a in alphas])
    for a, value in zip(alphas[::997], got[::997]):
        assert value == np.exp(np.multiply(expsums.TWO_PI * 1j * a, ns)).sum(), a
    W = np.random.default_rng(17).normal(size=(3, ns.size))
    assert np.array_equal(exp_sum(ns, alphas[:3000], W),
                          [exp_sum(ns, a, W) for a in alphas[:3000]])


def test_exp_sum_over_many_alphas_beyond_memory_is_capacity_error(monkeypatch):
    # refused before any worker sums, counting the digit indices shared by a
    # call beside every worker's buffers and the output: on the table path
    # 24 bytes a point and 8 a table entry shared, and a worker 48 a point
    # of its pass (P and Q, or one direct alpha past PHASE_LIMIT), at most
    # TERM_CHUNK of them, and 64 a table entry; on the direct path 16 bytes
    # an entry of a worker's block, its alphas' phases up to PLACE_CHUNK
    # entries.  With room for the indices and buffers but not the output,
    # both forms fail; with room for all, they run
    made = []
    for name in ("_kernel", "_direct"):
        spied = getattr(expsums, name)
        monkeypatch.setattr(expsums, name,
                            lambda *a, spied=spied: made.append(1) or spied(*a))
    monkeypatch.setattr(expsums, "WORKERS", 3)
    alphas = np.zeros(15)  # five alphas a worker
    table = np.arange(4096)  # H = 64, 64 rows: 128 entries
    direct = np.arange(1024) ** 2  # H = 1024: tables longer than the points
    assert expsums._table_shape(table) == (0, 64, 64, 4095)
    assert expsums._table_shape(direct) is None
    # four of a direct worker's five alphas fill a block of PLACE_CHUNK entries
    assert expsums.PLACE_CHUNK == 4 * 1024
    passes = np.arange(2 * expsums.TERM_CHUNK + 7)  # three passes a worker
    _, H, rows, _ = expsums._table_shape(passes)
    entries = H + rows
    for ns, shared, worker, one in ((table, 24 * 4096 + 8 * 128, 48 * 4096 + 64 * 128, None),
                                    (direct, 0, 16 * 4096, 16 * 1024),
                                    (passes, 24 * passes.size + 8 * entries,
                                     48 * expsums.TERM_CHUNK + 64 * entries, None)):
        W = np.ones((3, ns.size))
        for args, output in (((ns, alphas), 16 * alphas.size),
                             ((ns, alphas, W), 48 * alphas.size)):
            room = shared + 3 * worker + output
            monkeypatch.setattr(expsums, "_physical_memory", lambda: room - 1)
            with pytest.raises(CapacityError, match="physical memory"):
                exp_sum(*args)
            assert not made
            monkeypatch.setattr(expsums, "_physical_memory", lambda: room)
            assert len(exp_sum(*args)) == alphas.size
            assert len(made) == 3
            made.clear()
        # one alpha: one worker's buffers (a block of one alpha on the
        # direct path) and its output
        room = shared + (one or worker) + 16
        monkeypatch.setattr(expsums, "_physical_memory", lambda: room - 1)
        with pytest.raises(CapacityError, match="physical memory"):
            exp_sum(ns, 0.25)
        assert not made
        monkeypatch.setattr(expsums, "_physical_memory", lambda: room)
        assert exp_sum(ns, 0.0) == ns.size
        made.clear()
    monkeypatch.setattr(expsums, "_physical_memory", lambda: 1 << 16)
    with pytest.raises(CapacityError, match="physical memory"):
        exp_sum(np.arange(4096), np.zeros(100))
    assert exp_sum(np.arange(4), np.zeros(100)).shape == (100,)


@pytest.mark.parametrize("ns, table", [
    (np.arange(-300, 901), True),                     # H = 64, 19 rows
    (-97 * np.arange(1000, 0, -1), True),             # negative points
    ((1 << 27) - 1 - np.arange(0, 3000, 2), True),    # |n| up to 2^27 - 1
    (1 - (1 << 27) + np.arange(0, 3000, 2), True),
    ((1 << 27) - np.arange(0, 3000, 2), False),       # |n| = 2^27 goes direct
    (-(1 << 27) + np.arange(0, 3000, 2), False),
    (np.arange(1200) ** 2, False),                    # tables longer than ns
    (np.array([5, 5, 5]), True),                      # one row, one column
    (np.array([7, 8]), False),
    (np.array([-12345]), False),                      # one point
    (np.array([], dtype=np.int64), False),
])
def test_table_phases_match_direct_and_long_double(ns, table):
    # each term within TERM_ERROR of e^{i theta} at the rounded theta in long
    # double, on either side of the table/direct choice: the table path
    # where ns qualify and |2 pi alpha| max|n| < PHASE_LIMIT, libm's
    # phases bitwise otherwise
    assert (expsums._table_shape(ns) is not None) == table
    reach = np.abs(ns).max(initial=0)
    eye = np.eye(ns.size)
    for alpha in (0.0, 0.5, -0.3, 0.987, 0.1, -0.15):
        theta = np.multiply(expsums.TWO_PI * alpha, ns)
        cos, sin = np.cos(theta), np.sin(theta)
        wide = theta.astype(np.longdouble)
        terms = exp_sum(ns, alpha, eye)  # row i picks term i
        assert np.all(np.abs(terms.real - np.cos(wide)) <= TERM_ERROR), alpha
        assert np.all(np.abs(terms.imag - np.sin(wide)) <= TERM_ERROR), alpha
        assert np.all(np.abs(terms - (cos + 1j * sin)) <= 2 * TERM_ERROR), alpha
        libm = np.array_equal(terms.real, cos) and np.array_equal(terms.imag, sin)
        tables = table and abs(expsums.TWO_PI * alpha) * reach < expsums.PHASE_LIMIT
        if not tables:
            assert libm, alpha
        elif alpha not in (0.0, 0.5) and ns.size > 3:  # some term rounds apart
            assert not libm, alpha
        total = exp_sum(ns, alpha)
        assert abs(total - np.exp(1j * wide).sum()) <= ns.size * 4 * TERM_ERROR, alpha
        assert exp_sum(ns, np.array([alpha, alpha]))[1] == total


def _shifted(values, shift):
    """values moved up by shift places, zeros below."""
    return np.pad(values, (shift, 0))


def test_grid_sums_match_direct():
    # G below len(values) folds the support mod G; G above zero-pads it.
    # Only the half circle j <= G/2 is returned; the rest is its conjugate.
    base = np.random.default_rng(5).normal(size=300)
    for G, shift in ((64, 0), (100, 37), (101, 5), (300, 0), (512, 120)):
        values = _shifted(base, shift)
        assert grid_sums(values, G).shape == (G // 2 + 1,)
        sums, _ = _half_circle(values, G)
        assert np.array_equal(grid_sums(values, G), sums)
        for j in range(G):
            got = sums[j] if 2 * j <= G else np.conj(sums[G - j])
            direct, = exp_sum(np.arange(len(values)), j / G, values[None])
            assert abs(got - direct) <= 1e-9 * np.abs(values).sum(), (G, j)


def _blocks(values, G):
    """grid_blocks over the nonzero entries of the dense values, as points
    of [0, len(values))."""
    points = np.flatnonzero(values)
    return grid_blocks(points, values[points], len(values), G)


def _half_circle(values, G):
    """The half circle of _blocks(values, G), as _gathered reads it."""
    return _gathered(_blocks(values, G), G)


def _gathered(run, G):
    """The half circle of a sweep run(consume) over a grid of G points,
    gathered from copies of its blocks and of their mirrors, and the number
    of times each j was written; every block's length matches its j."""
    js = np.arange(G // 2 + 1)
    seen = np.zeros(G // 2 + 1, dtype=int)
    sums = np.empty(G // 2 + 1, dtype=complex)

    def gather(j, block, mirror):
        blocks = [(j, block.copy())]
        if mirror:
            j, top, sign = mirror
            blocks.append((j, mirrored(top, sign)))
        return blocks

    for blocks in run(gather):
        for j, block in blocks:
            assert np.array_equal(j.start + j.step * np.arange(len(block)), js[j])
            seen[j] += 1
            sums[j] = block
    return sums, seen


def _assert_sweep(values, G):
    """_blocks(values, G) covers the half circle once, matches
    grid_sums bitwise, and matches the one-shot rfft and the direct sum
    within 1e-9 sum |w|."""
    scale = 1e-9 * np.abs(values).sum()
    sums, seen = _half_circle(values, G)
    assert (seen == 1).all(), (G, len(values))
    assert np.array_equal(grid_sums(values, G), sums)
    folded = np.pad(values, (0, -len(values) % G)).reshape(-1, G).sum(axis=0)
    assert np.abs(sums - np.conj(np.fft.rfft(folded, G))).max() <= scale, (G, len(values))
    ell = np.arange(len(values))
    for j in range(0, G // 2 + 1, max(1, G // 600)):
        direct, = exp_sum(ell, j / G, values[None])
        assert abs(sums[j] - direct) <= scale, (G, len(values), j)


@pytest.mark.parametrize("G", [
    100, 300, 301,      # below, at and just above len(values): R = 1, L = G
    512, 1280,          # R = 1, and G > L with L not dividing it: L = G
    1024, 3 * 512,      # R = 2 and an odd R = 3
    32 * 512])          # R = 32, the residue count of the default grid
def test_sweep_matches_one_shot_and_direct(G):
    # 300 weights, shifted up to 511 places, so L = 512; some zero weights
    # leave the support sparse
    values = np.random.default_rng(8).normal(size=300)
    values[::7] = 0.0
    for shift in (0, 37, 211):
        _assert_sweep(_shifted(values, shift), G)


def _keep_parity(values, parity):
    """values with the entries of the other parity zeroed, for "odd" and
    "even"; values itself otherwise."""
    out = values.copy()
    if parity == "odd":
        out[::2] = 0.0
    elif parity == "even":
        out[1::2] = 0.0
    return out


@pytest.mark.parametrize("G", [512, 1024, 3 * 512, 32 * 512])  # R = 1, 2, 3, 32
@pytest.mark.parametrize("parity", ["odd", "even", "one-point", "zero"])
def test_sweep_on_one_parity_matches_one_shot_and_direct(G, parity):
    # a support of one parity takes half-length transforms (the mixed one of
    # the test above does not); shifts 0, odd and even keep that parity or
    # flip it
    values = np.random.default_rng(9).normal(size=300)
    values[::7] = 0.0
    if parity == "one-point":  # L = 2: too short to halve
        values = values[1:2]
    elif parity == "zero":  # an empty support
        values = np.zeros(300)
    else:
        values = _keep_parity(values, parity)
    for shift in (0, 37, 120):
        _assert_sweep(_shifted(values, shift), G)


def _sparse(size, points, parity, seed):
    """`points` normal weights at distinct random places of [0, size): all
    odd or all even places for parity "odd" or "even", both for "mixed"."""
    rng = np.random.default_rng(seed)
    step, first = (1, 0) if parity == "mixed" else (2, int(parity == "odd"))
    values = np.zeros(size)
    values[first + step * rng.choice(size // step, points, replace=False)] = rng.normal(size=points)
    return values


def _recording_ifft(monkeypatch):
    """The lengths of every np.fft.ifft call from here on, in call order."""
    lengths = []
    ifft = np.fft.ifft

    def recording(a, *args, **kwargs):
        lengths.append(len(a))
        return ifft(a, *args, **kwargs)

    monkeypatch.setattr(np.fft, "ifft", recording)
    return lengths


@pytest.mark.parametrize("parity, points, G, lengths", [
    # about 257 points in [0, 300): the span caps n, L = 512 and R = 32,
    # and n = L/2 when every point has one parity
    pytest.param("odd", None, 1 << 14, [256] * 16, id="odd-256"),
    pytest.param("even", None, 1 << 14, [256] * 16, id="even-256"),
    pytest.param("mixed", None, 1 << 14, [512] * 16, id="mixed-512"),
    # 5000 points over [0, 2^16): n = 2^13, the power of two at or above the
    # point count, so L = 2n = 2^14 and R = 64 on one parity, L = n and
    # R = 128 on both, where the span would give n = 2^15 or 2^16
    pytest.param("odd", 5000, 1 << 20, [1 << 13] * 32, id="odd-8192-by-count"),
    pytest.param("mixed", 5000, 1 << 20, [1 << 13] * 64, id="mixed-8192-by-count")])
def test_sweep_transform_lengths(monkeypatch, parity, points, G, lengths):
    # residues 1..R/2 each take one complex transform
    if points is None:
        values = _keep_parity(np.random.default_rng(10).normal(size=300), parity)
    else:
        values = _sparse(1 << 16, points, parity, seed=10)
    recorded = _recording_ifft(monkeypatch)
    _blocks(values, G)(lambda *block: None)
    assert recorded == lengths


@pytest.mark.parametrize("parity, plans", [
    # 3000 points over [0, 50000): n = PLACE_CHUNK = 4096 and L = n on both
    # parities, L = 2n on one; (G, R) at R = 1 (G = L), 2, 3 and 16 or 8,
    # where the support spans several periods of L and its points collide
    # mod L
    ("mixed", ((4096, 1), (8192, 2), (3 * 4096, 3), (1 << 16, 16))),
    ("odd", ((8192, 1), (16384, 2), (3 * 8192, 3), (1 << 16, 8))),
    ("even", ((8192, 1), (16384, 2), (3 * 8192, 3), (1 << 16, 8)))])
def test_sweep_folds_a_support_longer_than_its_period(monkeypatch, parity, plans):
    assert expsums.PLACE_CHUNK == 4096
    values = _sparse(50_000, 3000, parity, seed=11)
    L = (1 << 16) // plans[-1][1]
    assert len(np.unique(np.flatnonzero(values) % L)) < 3000  # collisions mod L
    # each term is within a few units of roundoff of its value and the
    # transforms add O(u log n) sum |w|: about 5e-17 sum |w| measured
    scale = 1e-12 * np.abs(values).sum()
    for G, R in plans:
        runs = []
        for workers in (1, 3):
            monkeypatch.setattr(expsums, "WORKERS", workers)
            assert _blocks(values, G)(lambda j, *_: j.step)[0] == R
            sums, seen = _half_circle(values, G)
            assert (seen == 1).all(), (G, workers)
            assert np.array_equal(grid_sums(values, G), sums)
            runs.append(sums)
        assert np.array_equal(*runs), G  # bitwise, whatever the worker count
        folded = np.pad(values, (0, -len(values) % G)).reshape(-1, G).sum(axis=0)
        assert np.abs(runs[0] - np.conj(np.fft.rfft(folded, G))).max() <= scale, G


def _longer_than_G(case):
    """(values, G, R) of a support longer than its grid G: every odd point
    of [0, 3G] as in a sup of |S(f_sharp)| (R = 1), every point of [0, 5000)
    at an odd G as in a moment W(m) (R = 1), and 3000 points of [0, G] with
    G itself and 0 among them, as in a spectrum on a grid of N points
    (R = 4)."""
    rng = np.random.default_rng(12)
    if case == "one-parity":
        G = 1 << 13
        values = _keep_parity(rng.normal(size=3 * G + 1), "odd")
        return values, G, 1
    if case == "odd-G":
        return rng.normal(size=5000), 1001, 1
    G = 1 << 14
    values = _sparse(G + 1, 3000, "mixed", seed=12)
    values[[0, G]] = [-0.75, 1.5]
    return values, G, 4


@pytest.mark.parametrize("case", ["one-parity", "odd-G", "grid-of-N"])
def test_sweep_of_a_support_longer_than_G_is_that_of_its_fold(case):
    # the sweep reduces each point mod G as it goes: bitwise the sums of
    # the same values folded in mod G beforehand
    values, G, R = _longer_than_G(case)
    folded = np.pad(values, (0, -len(values) % G)).reshape(-1, G).sum(axis=0)
    for v in (values, folded):
        assert _blocks(v, G)(lambda j, *_: j.step)[0] == R
    assert np.array_equal(grid_sums(values, G), grid_sums(folded, G))
    assert np.array_equal(_half_circle(values, G)[0], _half_circle(folded, G)[0])


@pytest.mark.parametrize("G", [1024, 1 << 14])  # R = 1 (L = G), and 4 at L = 2^12
def test_sweep_of_points_at_an_explicit_length_is_that_of_the_dense_form(G):
    # odd points below 2000 swept at length 3001, as the sup of |S(f_sharp)|
    # sweeps the support of f * rho over [0, 3N]: bitwise the sums of the
    # dense weights over [0, 3001), at an array of weights and at one
    # weight for every point
    rng = np.random.default_rng(13)
    points = np.sort(rng.choice(np.arange(1, 2000, 2), 500, replace=False))
    for weights in (rng.normal(size=500), 1.0):
        dense = np.zeros(3001)
        dense[points] = weights
        sums, seen = _gathered(grid_blocks(points, weights, 3001, G), G)
        assert (seen == 1).all()
        assert np.array_equal(sums, _half_circle(dense, G)[0])
        assert np.array_equal(sums, grid_sums(dense, G))


def test_grid_sums_take_real_weights():
    with pytest.raises(ValueError, match="real weights"):
        grid_blocks(np.arange(3), np.full(3, 1j), 3, 8)
    with pytest.raises(ValueError, match="real weights"):
        grid_sums(np.full(10, 1.0 + 1j), 16)


def test_sweep_of_few_points_takes_place_chunk_transforms(monkeypatch):
    # four points of both parities over [0, 2^13), two of them equal mod
    # 2^12: n = PLACE_CHUNK = 2^12, so L = 2^12 and R = 2^8 at G = 2^20, 128
    # complex transforms, where n = 4 would sweep R = 2^18 residues
    G = 1 << 20
    values = np.zeros(1 << 13)
    values[[0, 1, 4097, 8000]] = [1.0, -2.0, 0.5, 3.0]
    recorded = _recording_ifft(monkeypatch)
    sums, seen = _half_circle(values, G)
    assert recorded == [expsums.PLACE_CHUNK] * (G // expsums.PLACE_CHUNK // 2)
    assert (seen == 1).all()
    assert np.abs(sums - np.conj(np.fft.rfft(values, G))).max() <= 1e-12 * 6.5


def test_sweep_does_not_depend_on_the_worker_count(ctx, monkeypatch):
    # residues 1..R/2 fall to one worker or to three (fewer at R = 2, 3):
    # every sum is bitwise the same, and the sweep's threads end with it
    values = np.random.default_rng(8).normal(size=300)
    values[::7] = 0.0
    subsets = (subset_full(ctx, 10_000), subset_random(ctx, 10_000, 0.5, seed=42))
    runs = []
    for workers in (1, 3):
        monkeypatch.setattr(expsums, "WORKERS", workers)
        ran_on = []

        def on(j, block, mirror):
            ran_on.append(threading.current_thread().name)

        got = []
        for parity in ("mixed", "odd", "even"):
            part = _keep_parity(values, parity)
            for G in (512, 1024, 3 * 512, 32 * 512):  # L = 512: R = 1, 2, 3, 32
                got.append(grid_sums(part, G))
                got += [_half_circle(_shifted(part, shift), G)[0] for shift in (0, 37, 120)]
        for subset in subsets:
            for A in (2, 8):
                grid = spectrum(subset, A)
                got += [grid.index, grid.values]
        _blocks(values, 32 * 512)(on)
        assert [t.name for t in threading.enumerate() if t.name.startswith("sweep")] == []
        # residue 0 on the calling thread; residues 1..16 there too with one
        # worker, else on the sweep's threads
        here = threading.current_thread().name
        assert ran_on[0] == here and len(ran_on) == 17
        assert all(name == here if workers == 1 else name.startswith("sweep")
                   for name in ran_on[1:]), ran_on
        runs.append(got)
    assert len(runs[0]) == len(runs[1])
    for one, three in zip(*runs):
        assert one.dtype == three.dtype and np.array_equal(one, three)


def test_sweep_workers_beyond_memory_is_capacity_error(ctx, monkeypatch):
    # N = 10^4: 1204 odd primes over a span of 2^14, so n is the PLACE_CHUNK
    # floor 2^12 (the count alone gives 2^11, the span 2^13), L = 2n = 2^13
    # and R = 2^19/L = 64: 32 complex transforms and residue 0's real one.
    # A worker takes 48 n bytes, its buffer and pocketfft's two working
    # arrays.  Shared are the twist e(k/L), n entries, and the twiddle
    # tables e(m_lo/G) and e(m_hi 2^10/G) of 2^10 and 2^9 entries, 16 bytes
    # each.  The sweep runs as many of WORKERS as physical memory holds
    # beside the shared tables, and with room for none it refuses before
    # any FFT runs
    s = subset_full(ctx, 10_000)
    n = expsums.PLACE_CHUNK
    assert n == 1 << 12 and s.size == 1204
    monkeypatch.setattr(expsums, "WORKERS", 3)
    transforms, pieces = [], []
    for name in ("rfft", "ifft"):
        def recording(a, *args, fft=getattr(np.fft, name), **kwargs):
            transforms.append(len(a))
            return fft(a, *args, **kwargs)
        monkeypatch.setattr(np.fft, name, recording)
    on_workers = expsums._on_workers
    monkeypatch.setattr(expsums, "_on_workers",
                        lambda task, p, name: pieces.append(len(p)) or on_workers(task, p, name))
    worker = 48 * n
    shared = 16 * (n + (1 << 10) + (1 << 9))
    monkeypatch.setattr(expsums, "_physical_memory", lambda: shared + worker - 1)
    with pytest.raises(CapacityError, match="physical memory"):
        spectrum(s, 4)
    assert not transforms and not pieces
    grids = []
    for room, workers in ((worker, 1), (3 * worker - 1, 2), (3 * worker, 3)):
        monkeypatch.setattr(expsums, "_physical_memory", lambda: shared + room)
        transforms.clear()
        pieces.clear()
        grids.append(spectrum(s, 4))
        assert transforms == [2 * n] + [n] * 32 and pieces == [workers], (room, pieces)
    for grid in grids[1:]:
        assert np.array_equal(grid.index, grids[0].index)
        assert np.array_equal(grid.values, grids[0].values)


def test_spectrum_half_turn(ctx):
    # every member is an odd prime, so T*(1/2 - alpha) = -conj T*(alpha)
    for subset in (subset_full(ctx, 10_000), subset_sqrt2(ctx, 10_000),
                   subset_random(ctx, 10_000, 0.5, seed=42)):
        sums = grid_sums(subset.indicator(), grid_size(subset.N))
        err = np.abs(sums[::-1] + np.conj(sums)).max()
        assert err <= 1e-12 * subset.size, (subset.label, err)


def test_sparse_spectrum_keeps_the_dense_samples_above_its_floor(ctx):
    for subset in (subset_full(ctx, 10_000), subset_random(ctx, 10_000, 0.5, seed=42)):
        dense = grid_sums(subset.indicator(), grid_size(subset.N))
        # at A = 1 the floor is T*(0) itself, which alpha = 0 and 1/2 (odd
        # primes) reach exactly: the floor is kept
        for A in (1, 2, 4, 8, 16):
            grid = spectrum(subset, A)
            assert grid.floor == subset.size / A
            keep = np.flatnonzero(np.abs(dense) >= subset.size / A)
            assert np.array_equal(grid.index, keep)
            assert np.array_equal(grid.values, dense[keep])
            if A == 1:
                assert list(grid.index) == [0, grid.G // 2]


def test_sparse_spectrum_on_a_one_block_grid(ctx):
    # G = L, the power of two at or above N + 1: one residue, no twist
    for N, G in ((1000, 1024), (2000, 2048), (2000, 4096)):
        subset = subset_full(ctx, N)
        dense = grid_sums(subset.indicator(), G)
        for A in (2, 4, 8):
            grid = spectrum(subset, A, G)
            keep = np.flatnonzero(np.abs(dense) >= subset.size / A)
            assert np.array_equal(grid.index, keep), (N, G, A)
            assert np.array_equal(grid.values, dense[keep]), (N, G, A)


def test_sparse_spectrum_tests_long_blocks_whole(monkeypatch):
    # about 33,700 odd primes: n = 2^16, L = 2^17 and R = 4 at G = 2^19, so
    # every block the floor test sees holds more than 2^15 samples
    subset = subset_full(build_context(400_000), 400_000)
    G = 1 << 19
    values = subset.indicator()
    assert min(_blocks(values, G)(lambda j, sums, mirror: len(sums))) > 1 << 15
    dense = grid_sums(values, G)
    for workers in (1, 3):
        monkeypatch.setattr(expsums, "WORKERS", workers)
        for A in (2, 4, 16):
            grid = spectrum(subset, A, G)
            keep = np.flatnonzero(np.abs(dense) >= grid.floor)
            assert np.array_equal(grid.index, keep), (workers, A)
            assert np.array_equal(grid.values, dense[keep]), (workers, A)


def test_sparse_spectrum_beyond_memory_is_capacity_error(ctx, monkeypatch):
    # a floor near zero keeps almost every sample; the kept ones are counted
    # against physical memory as the sweep goes
    s = subset_full(ctx, 10_000)
    monkeypatch.setattr(expsums, "_physical_memory", lambda: 1 << 20)
    assert len(spectrum(s, 4).index) < 1000
    with pytest.raises(CapacityError, match="physical memory"):
        spectrum(s, 1e9)


def test_spectrum_counts_kept_samples_across_workers(ctx, monkeypatch):
    # eight workers, more than most test hosts have CPUs, switching threads
    # every microsecond, add their kept samples to one count: with room for
    # all K of them but one byte less than 56 K, a lost update would let
    # the sweep through
    s = subset_full(ctx, 10_000)
    monkeypatch.setattr(expsums, "WORKERS", 8)
    kept = len(spectrum(s, 1e9).index)
    assert kept == grid_size(s.N) // 2 + 1
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            monkeypatch.setattr(expsums, "_physical_memory", lambda: 56 * kept - 1)
            with pytest.raises(CapacityError, match=f"{kept} samples"):
                spectrum(s, 1e9)
            monkeypatch.setattr(expsums, "_physical_memory", lambda: 56 * kept)
            assert len(spectrum(s, 1e9).index) == kept
    finally:
        sys.setswitchinterval(interval)


def test_sweep_beyond_budget_is_capacity_error(ctx):
    # a sparse sweep holds O(N) memory, so only the point budget stops it
    s = subset_full(ctx, 1000)
    G = 1 << (SWEEP_BUDGET.bit_length())
    with pytest.raises(CapacityError, match="sweep budget"):
        spectrum(s, 4, G)
    with pytest.raises(CapacityError, match="sweep budget"):
        _blocks(np.ones(10), G)


def test_grid_beyond_memory_is_capacity_error():
    # refused before anything of grid size is allocated
    with pytest.raises(CapacityError, match="physical memory"):
        grid_sums(np.ones(10), 1 << 50)


def test_default_grid_size():
    assert grid_size(100_000) == 1 << 22
    assert grid_size(10_000) == 1 << 19
    g = grid_size(300)
    assert g >= 32 * 300 and g & (g - 1) == 0
    assert grid_size(10_000, 1 << 14) == 1 << 14
    with pytest.raises(ValueError, match="below N"):
        grid_size(10_000, 4096)
    with pytest.raises(ValueError, match="power of two"):
        grid_size(10_000, 100_000)


def test_spectrum_matches_direct(ctx):
    s = subset_full(ctx, 10_000)
    G = 1 << 18
    sums = grid_sums(s.indicator(), G)
    assert sums.nbytes == 16 * (G // 2 + 1)
    rng = np.random.default_rng(3)
    for j in rng.integers(0, G, 40):
        direct = exp_sum_at(s, j / G)
        got = sums[j] if 2 * j <= G else np.conj(sums[G - j])
        assert abs(got - direct) <= 1e-6 * s.size
    grid = spectrum(s, 8, G)
    assert grid.values.nbytes == 16 * len(grid.index)
    for j, value in zip(grid.index, grid.values):
        assert abs(value - exp_sum_at(s, j / G)) <= 1e-6 * s.size
    with pytest.raises(ValueError):
        spectrum(s, 8, 4096)     # below N
    with pytest.raises(ValueError):
        spectrum(s, 8, 100_000)  # not a power of two


def test_l1_band(ctx):
    s = subset_full(ctx, 100_000)
    G = 1 << 20
    l1 = l1_estimate(grid_sums(s.indicator(), G), G)
    ratio = l1 / math.sqrt(100_000 / math.log(100_000))
    assert 0.62 <= ratio <= 0.76
    # grid refinement moves the estimate only marginally
    l1b = l1_estimate(grid_sums(s.indicator(), 2 * G), 2 * G)
    assert abs(l1b - l1) <= 1e-3 * l1


def test_rough_integers(ctx):
    r = rough_integers(ctx, 1000, 3)
    assert r[0] == 1
    assert all(n % 2 == 1 for n in r[1:])
    r5 = rough_integers(ctx, 1000, 5)
    assert all(n % 2 and n % 3 for n in r5[1:])
    assert len(r5) < len(r)
    with pytest.raises(CapacityError):
        rough_integers(ctx, ctx.limit + 1, 3)


def test_local_model_full_at_zero(ctx):
    N = 100_000
    model = local_model_full(ctx, N, 7, 0.0)
    # the z0-rough count over V(z0) log N lands near pi(N)
    pi = len(ctx.primes_between(2, N))
    assert abs(model.real - pi) <= 0.15 * pi
    assert abs(model.imag) < 1e-9 * pi


def test_local_model_full_tracks_spectrum(ctx):
    N = 100_000
    s = subset_full(ctx, N)
    t0 = s.size
    # near the main cusp the model carries the right scale
    alphas = (0.0, 1e-6, 2e-6)
    for alpha in alphas:
        t = exp_sum_at(s, alpha)
        m = local_model_full(ctx, N, 3, alpha)
        assert abs(t - m) <= 0.2 * t0
    # at an array of alphas, the one-alpha values up to numpy's complex
    # division, which rounds differently from Python's
    rng = np.random.default_rng(15)
    alphas = np.concatenate((alphas, rng.random(20)))
    got = local_model_full(ctx, N, 3, alphas)
    assert got.shape == alphas.shape
    assert np.allclose(got, [local_model_full(ctx, N, 3, a) for a in alphas],
                       rtol=1e-15, atol=0)


def test_vaaler_zero_coefficient_exact():
    for lo, hi in ((0.0, 0.25), (0.3, 0.8), (0.9, 0.1)):
        poly = fejer_interval_polynomial(lo, hi, 12)
        assert poly.coeff(0) == poly.length
        assert poly.length == (hi - lo) % 1.0


def test_vaaler_envelope_fuzz():
    rng = np.random.default_rng(11)
    for _ in range(300):
        lo = rng.random()
        hi = (lo + rng.random()) % 1.0
        H = int(rng.integers(1, 40))
        poly = fejer_interval_polynomial(lo, hi, H)
        for h in range(-H, H + 1):
            bound = min(poly.length, 1.0 / (math.pi * abs(h))) if h else \
                poly.length
            assert abs(poly.coeff(h)) <= bound + 1e-12


def test_vaaler_values_in_unit_range():
    poly = fejer_interval_polynomial(0.2, 0.45, 30)
    xs = np.linspace(0, 1, 500)
    vals = poly(xs)
    assert vals.min() >= -1e-9 and vals.max() <= 1.0 + 1e-9
    # approximates the indicator away from the edges
    inside = (xs > 0.25) & (xs < 0.4)
    outside = (xs < 0.15) | (xs > 0.5)
    assert vals[inside].mean() > 0.8
    assert vals[outside].mean() < 0.2


def test_interval_polynomial_value_matches_its_coefficients():
    poly = fejer_interval_polynomial(0.9, 0.15, 25)
    hs = np.arange(-25, 26)
    xs = np.random.default_rng(16).random(200)
    direct = (np.exp(2j * np.pi * np.outer(xs, hs)) @ poly.coeffs).real
    assert np.abs(poly(xs) - direct).max() <= 1e-12
    assert isinstance(poly(0.3), float)
    assert poly(0.3) == poly(np.array([0.3]))[0]


def test_vaaler_argument_validation():
    with pytest.raises(ValueError):
        fejer_interval_polynomial(0.1, 0.2, 0)
    poly = fejer_interval_polynomial(0.1, 0.2, 5)
    assert poly.coeff(6) == 0 and poly.coeff(-17) == 0


@settings(max_examples=200, deadline=None)
@given(st.floats(0, 0.999), st.floats(0.001, 0.999), st.integers(1, 60))
def test_vaaler_envelope_property(lo, length, H):
    hi = (lo + length) % 1.0
    poly = fejer_interval_polynomial(lo, hi, H)
    h = H  # the extreme coefficient wears the tightest cap
    assert abs(poly.coeff(h)) <= min(poly.length, 1.0 / (math.pi * h)) + 1e-12
