"""Prime-table, multiplicative-function, and circle-geometry basics."""
import math
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from primecusps import expsums
from primecusps.arith import (
    SIEVE_SEGMENT,
    CapacityError,
    PrimeContext,
    WeightedPoint,
    build_context,
    circle_distance,
    extract_well_spaced,
    farey_points,
)

EULER_GAMMA = 0.5772156649015329


def naive_phi(n):
    return sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)


def naive_mobius(n):
    if n == 1:
        return 1
    m, res = n, 1
    p = 2
    while p * p <= m:
        if m % p == 0:
            m //= p
            if m % p == 0:
                return 0
            res = -res
        p += 1
    if m > 1:
        res = -res
    return res


def eratosthenes(n):
    """The primes up to n by a plain sieve over [0, n]."""
    prime = np.ones(n + 1, dtype=bool)
    prime[:2] = False
    for p in range(2, math.isqrt(n) + 1):
        if prime[p]:
            prime[p * p :: p] = False
    return np.flatnonzero(prime)


def dense_spf(n):
    """Smallest prime factors over [0, n] (0 at 0 and 1), sieved in one go."""
    spf = np.zeros(n + 1, dtype=np.int32)
    for p in range(2, math.isqrt(n) + 1):
        if spf[p] == 0:
            spf[p] = p
            multiples = spf[p * p :: p]
            multiples[multiples == 0] = p
    rest = np.flatnonzero(spf[2:] == 0) + 2
    spf[rest] = rest
    return spf


def test_segmented_primes_match_eratosthenes():
    # small limits around prime squares, a segment's length and its
    # neighbours, and a limit just past the square of the prime whose
    # square lies nearest above a segment edge: it is struck from p^2
    # there, not from the segment's start
    S = SIEVE_SEGMENT
    p = min((q for q in eratosthenes(2 * math.isqrt(S)).tolist() if q * q > S),
            key=lambda q: q * q % S)
    for n in (2, 3, 4, 24, 25, 26, 121, S - 1, S, S + 1, p * p, p * p + 1):
        primes = build_context(n).primes
        assert primes.dtype == np.int64
        assert np.array_equal(primes, eratosthenes(n)), n


def test_spf_table_grows_to_the_query():
    # a fresh context holds no spf table over its limit: each query grows
    # it to the index asked, to at most twice that and never past the
    # limit, and a table grown in steps is the one sieved in one go
    limit = 100_000
    grown, whole = build_context(limit), build_context(limit)
    assert len(grown._spf) == 2
    for n in (10, 97, 3000, 3001, 40_000, limit - 1):
        assert grown.spf(n) == dense_spf(n)[n]
        assert n < len(grown._spf) <= min(2 * n + 1, limit + 1)
    assert grown.factorize(limit) == [(2, 5), (5, 5)]
    assert len(grown._spf) == limit + 1
    whole.sifted_mask(limit, 3)
    assert np.array_equal(grown._spf, dense_spf(limit))
    assert np.array_equal(whole._spf, dense_spf(limit))
    with pytest.raises(ValueError):
        grown.spf(limit + 1)
    with pytest.raises(CapacityError):
        grown.sifted_mask(limit + 1, 3)


def test_spectrum_leaves_the_spf_table_unbuilt():
    ctx = build_context(100_000)
    expsums.spectrum(expsums.subset_full(ctx, 100_000), 4)
    assert len(ctx._spf) == 2


def test_spf_table_race_keeps_factorizations():
    # threads growing one context's table at once each factor correctly,
    # whichever grown table is kept
    limit = 60_000
    spf = dense_spf(limit)
    ns = [n for k in range(1, 16) for n in (2**k + 1, 3 * 2**k - 1) if n <= limit]

    def reference(n):
        out = []
        while n > 1:
            p, e = int(spf[n]), 0
            while n % p == 0:
                n //= p
                e += 1
            out.append((p, e))
        return out

    expected = [reference(n) for n in ns]

    def worker(shared, barrier, order):
        barrier.wait(timeout=60)
        return [shared.factorize(n) for n in order]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(8):
            shared = build_context(limit)
            barrier = threading.Barrier(6)
            with ThreadPoolExecutor(max_workers=6) as pool:
                futures = [pool.submit(worker, shared, barrier, ns) for _ in range(6)]
                results = [f.result(timeout=120) for f in futures]
            assert all(got == expected for got in results)
    finally:
        sys.setswitchinterval(interval)


def test_factorize_and_tables(ctx):
    assert ctx.factorize(360) == [(2, 3), (3, 2), (5, 1)]
    assert ctx.prime_factors(360) == [2, 3, 5]
    for n in range(1, 2000):
        assert ctx.euler_phi(n) == naive_phi(n)
        assert ctx.mobius(n) == naive_mobius(n)


def test_phi_and_squarefree_tables_grow_to_the_query():
    # a fresh context builds each table up to the index asked, not over its
    # limit, and a table grown in steps agrees with the factorization
    small = build_context(100_000)
    for n in (10, 100, 3000):
        phi, mask = small.phi_table(n), small.squarefree_mask(n)
        assert len(phi) == len(mask) == n + 1
        assert len(small._phi_table) <= 2 * n + 1
        assert len(small._squarefree_mask) <= 2 * n + 1
    assert phi.tolist()[1:] == [small.euler_phi(m) for m in range(1, 3001)]
    assert mask.tolist() == [m >= 1 and small.is_squarefree(m) for m in range(3001)]
    assert len(small.phi_table(small.limit)) == small.limit + 1
    with pytest.raises(CapacityError):
        small.phi_table(small.limit + 1)
    with pytest.raises(CapacityError):
        small.squarefree_mask(small.limit + 1)


def test_divisor_sums(ctx):
    for n in range(1, 500):
        divs = [d for d in range(1, n + 1) if n % d == 0]
        assert sum(ctx.euler_phi(d) for d in divs) == n
        assert sum(ctx.mobius(d) for d in divs) == (1 if n == 1 else 0)


def test_ramanujan_sum_values(ctx):
    for n in range(1, 50):
        assert ctx.ramanujan_sum(1, n) == 1
    for q in (2, 3, 4, 6, 10):
        for k in range(1, 5):
            assert ctx.ramanujan_sum(q, q * k) == ctx.euler_phi(q)
    # at a prime argument coprime to q the sum collapses to mu(q)
    for q in range(1, 30):
        for p in (101, 103, 107):
            if math.gcd(p, q) == 1:
                assert ctx.ramanujan_sum(q, p) == ctx.mobius(q)


def test_ramanujan_sum_matches_exponential(ctx):
    for q in range(1, 51):
        for n in range(1, 201, 7):
            direct = sum(
                np.exp(2j * np.pi * n * a / q)
                for a in range(1, q + 1)
                if math.gcd(a, q) == 1
            )
            assert abs(ctx.ramanujan_sum(q, n) - direct) < 1e-6


def test_primorial_and_mertens(ctx):
    assert ctx.primorial(3) == 2
    assert ctx.mertens_product(3) == Fraction(1, 2)
    assert ctx.primorial(8) == 210
    assert ctx.mertens_product(8) == Fraction(1, 2) * Fraction(2, 3) * \
        Fraction(4, 5) * Fraction(6, 7)


def test_mertens_lower_bound_documented_window(ctx):
    """V(z0) >= e^-gamma / log(1.23 z0) holds on (31, 1e5] except for a
    small window right of 31 where the stated bound is measurably false;
    the verification suite reports that window as a fail."""
    lo = math.exp(-EULER_GAMMA)
    bad = []
    z0 = 31.5
    checkpoints = [31.5, 32.0, 32.01, 32.5, 33.0, 37.0, 100.0, 1000.0, 99991.0]
    for z0 in checkpoints:
        ok = float(ctx.mertens_product(z0)) >= lo / math.log(1.23 * z0)
        if not ok:
            bad.append(z0)
    assert bad == [31.5, 32.0, 32.01]


def test_prime_counting_bounds(ctx):
    xs = list(range(17, 1000)) + list(range(1000, ctx.limit, 997))
    for x, pi in zip(xs, np.searchsorted(ctx.primes, xs, side="right")):
        assert pi >= x / math.log(x)
        if x >= 114:
            assert pi <= 1.25 * x / math.log(x)


def test_squarefree_count_lower(ctx):
    # running count of squarefree q <= Q stays above Q/2
    mask = ctx.squarefree_mask(ctx.limit)
    counts = np.cumsum(mask[1:])
    qs = np.arange(1, len(mask))
    assert np.all(counts >= qs / 2.0)


def test_sifted_mask_brute_force(ctx):
    for z0 in (2, 3, 7):
        for d, primes in ((1, ()), (10, (2, 5)), (77, (7, 11))):
            expected = [n >= 1 and all(n % p for p in (2, 3, 5) if p < z0)
                        and math.gcd(n, d) == 1 for n in range(2001)]
            assert ctx.sifted_mask(2000, z0, primes).tolist() == expected
    # primes struck one at a time; a segment [start, n] of the same mask
    expected = [n >= 1 and math.gcd(n, 2 * 3 * 7 * 11 * 13) == 1
                for n in range(2001)]
    assert ctx.sifted_mask(2000, 5, (7, 11, 13)).tolist() == expected
    assert ctx.sifted_mask(2000, 5, (7, 11, 13), start=1234).tolist() == expected[1234:]


def test_farey_points():
    f2 = farey_points(2)
    assert [(fp.numerator, fp.denominator) for fp in f2] == [(0, 1), (1, 2)]
    f5 = farey_points(5)
    assert f5 == sorted(f5)
    assert len(f5) == 10  # 1 + phi(2) + phi(3) + phi(4) + phi(5)
    assert all(0 <= fp < 1 and fp.denominator <= 5 for fp in f5)
    # the next-term recurrence against every reduced a/q, sorted
    for Q in range(1, 41):
        brute = sorted({Fraction(a, q) for q in range(1, Q + 1) for a in range(q)})
        assert farey_points(Q) == brute, Q


def test_circle_distance():
    assert circle_distance(0.05, 0.97) == pytest.approx(0.08)
    assert circle_distance(0.3, 0.3) == 0.0
    assert circle_distance(0.0, 0.5) == 0.5


def test_extract_well_spaced_examples():
    pts = [WeightedPoint(0.0, 2.0), WeightedPoint(0.4, 1.0)]
    assert len(extract_well_spaced(pts, 0.3)) == 2
    pts = [WeightedPoint(0.0, 2.0), WeightedPoint(0.1, 1.0)]
    kept = extract_well_spaced(pts, 0.3)
    assert len(kept) == 1 and kept[0].position == 0.0
    # wrap-around: 0.05 and 0.97 are only 0.08 apart
    pts = [WeightedPoint(0.05, 1.0), WeightedPoint(0.97, 1.0)]
    assert len(extract_well_spaced(pts, 0.1)) == 1
    assert extract_well_spaced([], 0.2) == []


@settings(max_examples=1000, deadline=None)
@given(st.lists(st.tuples(st.floats(0, 0.999999), st.floats(0, 10)),
                max_size=40),
       st.floats(0.01, 0.5))
def test_well_spaced_property(points, delta):
    pts = [WeightedPoint(x, w) for x, w in points]
    kept = extract_well_spaced(pts, delta)
    for i, p in enumerate(kept):
        for q in kept[i + 1:]:
            assert circle_distance(p.position, q.position) >= delta
    # every rejected point is blocked by something kept
    kept_pos = [p.position for p in kept]
    for p in pts:
        if all(abs(p.position - k) > 1e-12 for k in kept_pos):
            assert any(circle_distance(p.position, k) < delta
                       for k in kept_pos)


def test_context_errors(ctx):
    with pytest.raises(ValueError):
        ctx.factorize(0)
    with pytest.raises(ValueError):
        ctx.spf(ctx.limit + 1)
    with pytest.raises(CapacityError):
        build_context(10 ** 12)
