"""Prime subsets, exponential sums and FFT spectra, the local model, and the
Fejer-weighted interval polynomial."""
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from primecusps import expsums
from primecusps.arith import CapacityError, build_context
from primecusps.expsums import (
    PROGRESSION_BLOCK,
    SWEEP_BUDGET,
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
    rough_integers,
    spectrum,
    subset_full,
    subset_random,
    subset_sqrt2,
)


def test_subset_full(ctx):
    s = subset_full(ctx, 100_000)
    assert s.N == 100_000
    assert s.size == ctx.pi(100_000) - ctx.pi(316)
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


@pytest.mark.parametrize("kind", ["full", "sqrt2", "random", "pmin"])
def test_progression_matches_direct(ctx, kind):
    N = 10_000
    subset = {"full": lambda: subset_full(ctx, N),
              "sqrt2": lambda: subset_sqrt2(ctx, N),
              "random": lambda: subset_random(ctx, N, 0.5, seed=11),
              "pmin": lambda: subset_full(ctx, N, pmin=2)}[kind]()
    tol = 1e-9 * subset.size
    Q = 6 * 240 * 4 * N
    cases = [
        (6 * 12_345 + 1, 2, Q, 1),                        # K = 1
        (6 * 77_777 + 1, 2, Q, PROGRESSION_BLOCK + 40),   # two blocks
        (Q - 7, 2, Q, 20),                                # wraps past alpha = 1
        (5, -3, 1009, 50),                                # negative step
    ]
    for j0, step, q, K in cases:
        vals = exp_sums_on_progression(subset, j0, step, q, np.arange(K))
        assert vals.shape == (K,)
        ks = sorted({0, K - 1, *range(0, K, max(1, K // 25)),
                     *range(max(0, PROGRESSION_BLOCK - 2),
                            min(K, PROGRESSION_BLOCK + 2))})
        for k in ks:
            direct = exp_sum_at(subset, ((j0 + step * k) % q) / q)
            assert abs(vals[k] - direct) <= tol, (j0, step, q, K, k)


def test_progression_at_gapped_samples(ctx):
    # runs of length 1 and 4, isolated points, and one run longer than a
    # block, so that run is cut into a full block and a short one
    s = subset_full(ctx, 10_000)
    Q = 6 * 240 * 4 * s.N
    j0 = 6 * 12_345 + 1
    long_run = np.arange(500, 500 + PROGRESSION_BLOCK + 40)
    ks = np.concatenate(([3], [7, 8, 9, 10], [40], long_run,
                         [PROGRESSION_BLOCK + 900, PROGRESSION_BLOCK + 2000],
                         [Q // 2 + 1, Q // 2 + 2, Q // 2 + 3, Q // 2 + 4]))
    vals = exp_sums_on_progression(s, j0, 2, Q, ks)
    assert vals.shape == ks.shape
    edge = 6 + PROGRESSION_BLOCK  # the first sample of the long run's second block
    checked = sorted({*range(7), *range(edge - 3, edge + 3), *range(6, edge, 997),
                      *range(len(ks) - 6, len(ks))})
    for i in checked:
        direct = exp_sum_at(s, ((j0 + 2 * int(ks[i])) % Q) / Q)
        assert abs(vals[i] - direct) <= 1e-9 * s.size, (i, ks[i])


def test_progression_validation(ctx):
    s = subset_full(ctx, 10_000)
    assert exp_sums_on_progression(s, 1, 2, 100, np.arange(0)).shape == (0,)
    with pytest.raises(ValueError):
        exp_sums_on_progression(s, 1, 2, 0, np.arange(5))
    for ks in ([3, 1, 2], [1, 2, 2, 3], [-1, 0, 1]):  # unsorted, repeated, negative
        with pytest.raises(ValueError, match="ascending"):
            exp_sums_on_progression(s, 1, 2, 100, ks)
    with pytest.raises(CapacityError):
        exp_sums_on_progression(s, 1, 2, 1 << 50, np.arange(5))


def test_progression_capacity_edge(ctx):
    # the largest Q with 2Q(N + K) < 2^63 still reduces phases exactly
    s = subset_full(ctx, 10_000)
    K = 5
    Q = ((1 << 63) - 1) // (2 * (s.N + K))
    j0 = Q - 12_345_678_901
    vals = exp_sums_on_progression(s, j0, 7, Q, np.arange(K))
    for k in range(K):
        direct = exp_sum_at(s, ((j0 + 7 * k) % Q) / Q)
        assert abs(vals[k] - direct) <= 1e-9 * s.size
    with pytest.raises(CapacityError):
        exp_sums_on_progression(s, j0, 7, Q + 1, np.arange(K))


def test_exp_sum_basics(ctx):
    s = subset_full(ctx, 10_000)
    assert exp_sum_at(s, 0.0) == pytest.approx(s.size)
    # all members odd, so alpha=1/2 flips every phase
    assert exp_sum_at(s, 0.5) == pytest.approx(-s.size, abs=1e-6 * s.size)
    conj = np.conj(exp_sum_at(s, 0.25))
    assert exp_sum_at(s, 0.75) == pytest.approx(conj, abs=1e-6 * s.size)


def test_grid_sums_match_direct():
    # G below len(values) folds the support mod G; G above zero-pads it.
    # Only the half circle j <= G/2 is returned; the rest is its conjugate.
    values = np.random.default_rng(5).normal(size=300)
    for G, offset in ((64, 0), (100, 37), (101, 5), (300, 0), (512, 120)):
        sums = grid_sums(values, G, offset)
        assert sums.shape == (G // 2 + 1,)
        ell = np.arange(300) - offset
        for j in range(G):
            got = sums[j] if 2 * j <= G else np.conj(sums[G - j])
            direct, = exp_sum(ell, j / G, values)
            assert abs(got - direct) <= 1e-9 * np.abs(values).sum(), (G, j)


@pytest.mark.parametrize("G", [
    100, 300, 301,      # below, at and just above len(values): R = 1, L = G
    512, 1280,          # R = 1, and G > L with L not dividing it: L = G
    1024, 3 * 512,      # R = 2 and an odd R = 3
    32 * 512])          # R = 32, the residue count of the default grid
def test_sweep_matches_one_shot_and_direct(G):
    # 300 weights, so L = 512; some zero weights leave the support sparse
    values = np.random.default_rng(8).normal(size=300)
    values[::7] = 0.0
    scale = 1e-9 * np.abs(values).sum()
    js = np.arange(G // 2 + 1)
    for offset in (0, 37, 299):
        seen = np.zeros(G // 2 + 1, dtype=int)
        sums = np.empty(G // 2 + 1, dtype=complex)
        for j, block in grid_blocks(values, G, offset):
            assert np.array_equal(j.start + j.step * np.arange(len(block)), js[j])
            seen[j] += 1
            sums[j] = block
        assert (seen == 1).all(), (G, offset)
        assert np.array_equal(grid_sums(values, G, offset), sums)
        folded = np.pad(values, (0, -len(values) % G)).reshape(-1, G).sum(axis=0)
        one_shot = np.conj(np.fft.rfft(folded, G)) * np.exp(-2j * np.pi * (js * offset % G) / G)
        assert np.abs(sums - one_shot).max() <= scale, (G, offset)
        ell = np.arange(300) - offset
        for j in range(0, G // 2 + 1, max(1, G // 600)):
            direct, = exp_sum(ell, j / G, values)
            assert abs(sums[j] - direct) <= scale, (G, offset, j)


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


def test_sparse_spectrum_beyond_memory_is_capacity_error(ctx, monkeypatch):
    # a floor near zero keeps almost every sample; the kept ones are counted
    # against physical memory as the sweep goes
    s = subset_full(ctx, 10_000)
    monkeypatch.setattr(expsums, "_physical_memory", lambda: 1 << 20)
    assert len(spectrum(s, 4).index) < 1000
    with pytest.raises(CapacityError, match="physical memory"):
        spectrum(s, 1e9)


def test_sweep_beyond_budget_is_capacity_error(ctx):
    # a sparse sweep holds O(N) memory, so only the point budget stops it
    s = subset_full(ctx, 1000)
    G = 1 << (SWEEP_BUDGET.bit_length())
    with pytest.raises(CapacityError, match="sweep budget"):
        spectrum(s, 4, G)
    with pytest.raises(CapacityError, match="sweep budget"):
        grid_blocks(np.ones(10), G)


def test_progression_beyond_memory_is_capacity_error():
    # refused before the chirp or the kernel (2^41 entries) is allocated
    huge = PrimeSubset(1 << 40, np.array([3], dtype=np.int64), "huge")
    with pytest.raises(CapacityError, match="physical memory"):
        exp_sums_on_progression(huge, 1, 2, 100, np.arange(5))


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
    assert abs(model.real - ctx.pi(N)) <= 0.15 * ctx.pi(N)
    assert abs(model.imag) < 1e-9 * ctx.pi(N)


def test_local_model_full_tracks_spectrum(ctx):
    N = 100_000
    s = subset_full(ctx, N)
    t0 = s.size
    # near the main cusp the model carries the right scale
    for alpha in (0.0, 1e-6, 2e-6):
        t = exp_sum_at(s, alpha)
        m = local_model_full(ctx, N, 3, alpha)
        assert abs(t - m) <= 0.2 * t0


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
