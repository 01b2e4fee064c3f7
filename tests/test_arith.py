"""Prime-table, multiplicative-function, and circle-geometry basics."""
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from primecusps.arith import (
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


def test_factorize_and_tables(ctx):
    assert ctx.factorize(360) == [(2, 3), (3, 2), (5, 1)]
    assert ctx.prime_factors(360) == [2, 3, 5]
    for n in range(1, 2000):
        assert ctx.euler_phi(n) == naive_phi(n)
        assert ctx.mobius(n) == naive_mobius(n)


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


def test_ramanujan_table_matches_scalar(ctx):
    # every residue for q <= 500; beyond, the scalar oracle is called once
    # per gcd(q, r), the only way c_q(r) depends on r
    for q in range(1, 3001):
        table = ctx.ramanujan_table(q)
        assert table.shape == (q,)
        if q <= 500:
            assert table.tolist() == [ctx.ramanujan_sum(q, r) for r in range(q)]
            continue
        g = np.gcd(q, np.arange(q))
        lookup = np.zeros(q + 1, dtype=np.int64)
        for d in np.unique(g).tolist():
            lookup[d] = ctx.ramanujan_sum(q, d)
        assert np.array_equal(table, lookup[g]), q


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
    for x in xs:
        assert ctx.pi(x) >= x / math.log(x)
        if x >= 114:
            assert ctx.pi(x) <= 1.25 * x / math.log(x)


def test_squarefree_count_lower(ctx):
    # running count of squarefree q <= Q stays above Q/2
    mask = ctx.squarefree_mask
    counts = np.cumsum(mask[1:])
    qs = np.arange(1, len(mask))
    assert np.all(counts >= qs / 2.0)


def test_sifted_mask_brute_force(ctx):
    for z0 in (2, 3, 7):
        for d in (1, 10, 77):
            expected = [n >= 1 and all(n % p for p in (2, 3, 5) if p < z0)
                        and math.gcd(n, d) == 1 for n in range(2001)]
            assert ctx.sifted_mask(2000, z0, d).tolist() == expected
    # factors struck one at a time; a segment [start, n] of the same mask
    expected = [n >= 1 and math.gcd(n, 2 * 3 * 7 * 11 * 13) == 1
                for n in range(2001)]
    assert ctx.sifted_mask(2000, 5, (7, 143)).tolist() == expected
    assert ctx.sifted_mask(2000, 5, (7, 143), start=1234).tolist() == expected[1234:]


def test_farey_points():
    f2 = farey_points(2)
    assert [(fp.numerator, fp.denominator) for fp in f2] == [(0, 1), (1, 2)]
    f5 = farey_points(5)
    assert f5 == sorted(f5)
    assert len(f5) == 10  # 1 + phi(2) + phi(3) + phi(4) + phi(5)
    assert all(0 <= fp < 1 and fp.denominator <= 5 for fp in f5)


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
