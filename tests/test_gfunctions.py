"""Exact G-function values, the bracket G_[q] against a per-ell reference,
and the explicit-estimate report."""
import math
import random
import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import numpy as np
import pytest

from primecusps import gfunctions
from primecusps import sieve as sv
from primecusps.arith import CapacityError, build_context
from primecusps.gfunctions import (
    BLOCK,
    G_CONSTANT,
    explicit_estimate_report,
    g_bracket,
    g_profile,
    g_sifted,
    g_value,
    ordered_splits,
)


def test_g_small_values(ctx):
    assert g_value(ctx, 1, 1) == 1
    assert g_value(ctx, 1, Fraction(3, 2)) == 1
    assert g_value(ctx, 1, 3) == Fraction(5, 2)
    # sifted variant: z0=2 removes nothing
    for y in (1, 4, 10, 33):
        assert g_sifted(ctx, 1, y, 2) == g_value(ctx, 1, y)
    assert g_sifted(ctx, 1, 10, 3) == Fraction(23, 12)


#: (d, z0) keys and query points of the checkpoint tests: ints, fractions
#: and floats, below 1, repeated, in no particular order.  The last key's
#: struck primes lie on both sides of most queries
CHECKPOINT_KEYS = ((1, 2), (5, 3), (35, 7), ((5, 7), 3), ((5, 1009, 2999), 3))
CHECKPOINT_YS = (0.5, Fraction(1, 2), 1, 2, 3.7, Fraction(7, 2), 10, 97, 100,
                 Fraction(2001, 2), 1000, 2500.5, 2999, 3000)


def _trial_factor(n):
    """{p: e} for n by trial division."""
    out, p = {}, 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1
    if n > 1:
        out[n] = 1
    return out


def _brute_prefix(d, z0, n):
    """[G_d(m; z0) for m = 0..n] by trial division and Fraction sums."""
    dd = math.prod(d) if isinstance(d, tuple) else d
    out = [Fraction(0)]
    for ell in range(1, n + 1):
        f = _trial_factor(ell)
        ok = all(e == 1 and p >= z0 and dd % p for p, e in f.items())
        out.append(out[-1] + (Fraction(1, math.prod(p - 1 for p in f)) if ok else 0))
    return out


@pytest.fixture(scope="module")
def checkpoint_reference():
    return {key: _brute_prefix(*key, 3000) for key in CHECKPOINT_KEYS}


def _expected(reference, key, y):
    m = math.floor(Fraction(y))
    return reference[key][max(m, 0)]


def test_g_checkpoints_any_order(checkpoint_reference):
    rng = random.Random(0)
    queries = [(key, y) for key in CHECKPOINT_KEYS for y in CHECKPOINT_YS] * 2
    rng.shuffle(queries)
    shared = build_context(3000)
    for (d, z0), y in queries:
        got = g_sifted(shared, d, y, z0)
        assert got == g_sifted(build_context(3000), d, y, z0)
        assert got == _expected(checkpoint_reference, (d, z0), y), (d, z0, y)


def test_g_checkpoints_shared_across_threads(checkpoint_reference):
    # more threads than cores, each in its own order, on one shared context
    # per round; an unguarded insert can leave a key's checkpoints unsorted
    queries = [(key, y) for key in CHECKPOINT_KEYS for y in CHECKPOINT_YS]
    queries += [((1, 2), y) for y in range(1, 3001)]  # many inserts on one key
    orders = [list(range(len(queries))), list(range(len(queries)))[::-1]]
    for seed in (1, 2):
        orders.append(random.Random(seed).sample(orders[0], len(queries)))
    expected = {i: _expected(checkpoint_reference, key, y)
                for i, (key, y) in enumerate(queries)}

    def worker(shared, barrier, order):
        barrier.wait(timeout=60)
        got = {}
        for i in order:
            (d, z0), y = queries[i]
            got[i] = g_sifted(shared, d, y, z0)
        return got

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(4):
            shared = build_context(3000)
            barrier = threading.Barrier(len(orders))
            with ThreadPoolExecutor(max_workers=len(orders)) as pool:
                futures = [pool.submit(worker, shared, barrier, order)
                           for order in orders]
                results = [f.result(timeout=120) for f in futures]
            for got in results:
                assert got == expected
            for points in shared._checkpoints.values():
                ms = [m for m, _ in points]
                assert ms == sorted(set(ms))
    finally:
        sys.setswitchinterval(interval)


def test_g_checkpoints_bound_the_work(monkeypatch):
    # shuffled G(z), G(z^2) queries: every segment summed spans at most one
    # block, and the integers summed in all come to at most the largest m
    # plus one block per query
    ctx = build_context(120 * 120)
    spans = []
    real = ctx.sifted_mask

    def counted(n, z0=2, primes=(), start=0):
        spans.append(n + 1 - start)
        return real(n, z0, primes, start)
    monkeypatch.setattr(ctx, "sifted_mask", counted)
    zs = list(range(2, 121))
    random.Random(3).shuffle(zs)
    ms = [m for z in zs for m in (z, z * z)]
    for m in ms:
        g_value(ctx, 1, m)
    assert max(spans) <= BLOCK
    assert sum(spans) <= max(ms) + len(ms) * BLOCK


def test_g_shares_the_chain_of_primes_above_the_query(monkeypatch):
    # G_{(q, tau)}(y; z0) with every prime of q above y is the exact sum of
    # tau's chain; once that chain reaches y, no such query sums a segment
    ctx = build_context(3000)
    tau, z0, top = 7, 3, 2990
    reference = {q: _brute_prefix((*q, tau), z0, top)
                 for q in ((), (2999,), (1511,), (1511, 2003))}
    spans = []
    real = ctx.sifted_mask

    def counted(n, z0=2, primes=(), start=0):
        spans.append(n + 1 - start)
        return real(n, z0, primes, start)
    monkeypatch.setattr(ctx, "sifted_mask", counted)
    for y in (1, 10, Fraction(2001, 2), 1510.5, 1510, top):
        m = math.floor(y)
        assert g_sifted(ctx, tau, y, z0) == reference[()][m]
        spans.clear()
        for q in ((2999,), (1511,), (1511, 2003)):
            if all(p > y for p in q):
                assert g_sifted(ctx, (*q, tau), y, z0) == reference[q][m] == reference[()][m]
        assert spans == [], y
    # a struck prime at or below y strikes its multiples: a chain of its own
    assert g_sifted(ctx, (1511, tau), top, z0) == reference[(1511,)][top]
    assert spans and max(spans) <= BLOCK


def test_g_reads_tables_only_up_to_its_query():
    # the exact sum up to 1290 and the float profile up to 5000 build phi
    # and the squarefree mask up to the index they read, not over the
    # 10^5 limit, and give what tables built over the whole limit give
    lazy, full = build_context(100_000), build_context(100_000)
    full.phi_table(full.limit)
    full.squarefree_mask(full.limit)
    assert g_sifted(lazy, 1, 1290.99, 3) == g_sifted(full, 1, 1290.99, 3)
    assert max(len(lazy._phi_table), len(lazy._squarefree_mask)) <= 2 * 1290 + 1
    assert np.array_equal(g_profile(lazy, 6, 2, 5000), g_profile(full, 6, 2, 5000))
    assert max(len(lazy._phi_table), len(lazy._squarefree_mask)) <= 2 * 5000 + 1


def test_g_monotonicity(ctx):
    ys = [2, 5, 10, 40, 100]
    for d, z0 in ((1, 2), (1, 3), (7, 2), (6, 5)):
        vals = [g_sifted(ctx, d, y, z0) for y in ys]
        assert vals == sorted(vals)
    # more sifting or a larger coprimality modulus can only shrink the sum
    assert g_sifted(ctx, 1, 50, 3) >= g_sifted(ctx, 1, 50, 5)
    assert g_value(ctx, 1, 50) >= g_value(ctx, 6, 50)
    assert g_value(ctx, 3, 50) >= g_value(ctx, 15, 50)


def test_g_asymptotic_band(ctx):
    for z in (10 ** 3, 10 ** 4, 10 ** 5):
        g = float(g_value(ctx, 1, z))
        assert abs(g - math.log(z) - G_CONSTANT) <= 2.44 / math.sqrt(z)


def test_g_lower_bound_sampled(ctx):
    c = math.exp(-0.5772156649015329)
    for z0, z in ((2, 100), (3, 1000), (5, 317), (7, 10 ** 4), (11, 10 ** 5)):
        g = float(g_sifted(ctx, 1, z, z0))
        assert g >= c * math.log(z) / math.log(2 * z0)


def test_exact_vs_floating_profile(ctx):
    prof = g_profile(ctx, 1, 2, 3000)
    assert len(prof) == 3001
    for y in (2, 10, 100, 999, 3000):
        exact = float(g_value(ctx, 1, y))
        assert abs(prof[y] - exact) <= 1e-12 * exact
    prof5 = g_profile(ctx, 7, 5, 500)
    for y in (10, 250, 500):
        exact = float(g_sifted(ctx, 7, y, 5))
        assert abs(prof5[y] - exact) <= 1e-12 * max(exact, 1.0)
    # a profile past the table is an error, never a shorter profile
    with pytest.raises(CapacityError):
        g_profile(ctx, 1, 2, ctx.limit + 1)


def test_ordered_splits_brute_force(ctx):
    # every divisor triple q1 q2 q3 = q within the bounds, and nothing else
    for q in (1, 2, 30, 210, 2310, 3 * 7 * 11 * 13):
        for y in (Fraction(1, 2), 1, Fraction(15, 2), 40, 300.5, q):
            expected = sorted(
                (q1, q2, q // (q1 * q2))
                for q1 in range(1, q + 1) if q % q1 == 0
                for q2 in range(1, q // q1 + 1) if (q // q1) % q2 == 0
                if q // q2 <= y and q // q1 <= y)
            assert sorted(ordered_splits(ctx.prime_factors(q), y)) == expected


def xi_value(ctx, q, y):
    """The factorization kernel at squarefree q:

        xi_q(y) = sum over q1*q2*q3 = q with q1*q3 <= y and q2*q3 <= y
                  of mu(q3) * prod_{p|q3}(p-2) / prod_{p|q3}(p-1).

    Equals q/phi(q) once y >= q; vanishes for q > 1 when y < smallest
    admissible split.
    """
    if q < 1:
        raise ValueError("q must be >= 1")
    if not ctx.is_squarefree(q):
        raise ValueError(f"q={q} is not squarefree")
    if y >= q:
        return Fraction(q, ctx.euler_phi(q))
    # mu(q3) prod_{p|q3} (p-2)/(p-1) over the common denominator phi(q)
    primes = ctx.prime_factors(q)
    total = 0
    for _, _, q3 in ordered_splits(primes, y):
        term = 1
        for p in primes:
            term *= 2 - p if q3 % p == 0 else p - 1
        total += term
    return Fraction(total, ctx.euler_phi(q))


def per_ell_bracket(ctx, q, z, z0, tau):
    """G_[q](z; z0, tau) as the sum over ell <= z/sqrt(q), (ell, q*tau*P(z0))
    = 1, of mu^2(ell)/phi(ell) * xi_q(z/ell): the definition, one xi value
    per ell, for q squarefree and coprime to tau*P(z0)."""
    zf = Fraction(z)
    if zf < 1:
        return Fraction(0)
    # ell <= z/sqrt(q)  <=>  ell^2 * q <= z^2, decided in exact arithmetic
    lmax = math.isqrt(math.floor(zf * zf / q))
    primes = ctx.prime_factors(q) + ctx.prime_factors(tau)
    mask = ctx.sifted_mask(lmax, z0, primes) & ctx.squarefree_mask(lmax)
    ells = np.flatnonzero(mask)
    total = Fraction(0)
    for ell, phi in zip(ells.tolist(), ctx.phi_table(lmax)[ells].tolist()):
        total += Fraction(1, phi) * xi_value(ctx, q, zf / ell)
    return total


def test_xi_values(ctx):
    for y in (1, Fraction(3, 2), 7, 100):
        assert xi_value(ctx, 1, y) == 1
    # below 1 even the trivial factorization is out of range
    assert xi_value(ctx, 1, Fraction(1, 2)) == 0
    for q in (2, 3, 6, 10, 30):
        assert xi_value(ctx, q, q) == Fraction(q, ctx.euler_phi(q))
        assert xi_value(ctx, q, 10 * q) == Fraction(q, ctx.euler_phi(q))
    for p in (2, 3, 5, 13):
        assert xi_value(ctx, p, p - 1) == 0
        # below 1 there is no admissible factorization at all
        assert xi_value(ctx, p, Fraction(1, 2)) == 0
    with pytest.raises(ValueError):
        xi_value(ctx, 12, 5)


def brute_force_bracket(ctx, q, z, z0, tau):
    """Direct quadruple loop over (q1, q2, q3, l)."""
    total = Fraction(0)
    P = ctx.primorial(z0)
    lmax = math.floor(z / math.sqrt(q)) if q > 1 else math.floor(z)
    for l in range(1, lmax + 1):
        if not ctx.is_squarefree(l):
            continue
        if math.gcd(l, q * tau * P) != 1:
            continue
        y = Fraction(z, l) if not isinstance(z, int) else Fraction(z, l)
        acc = Fraction(0)
        for q1 in range(1, q + 1):
            if q % q1:
                continue
            rest = q // q1
            for q3 in range(1, rest + 1):
                if rest % q3:
                    continue
                q2 = rest // q3
                if q1 * q3 <= y and q2 * q3 <= y:
                    phi2 = 1
                    for p in ctx.prime_factors(q3):
                        phi2 *= p - 2
                    acc += Fraction(ctx.mobius(q3) * phi2, ctx.euler_phi(q3))
        total += Fraction(1, ctx.euler_phi(l)) * acc
    return total


def test_g_bracket_identities(ctx):
    for z0, z, tau in ((2, 20, 1), (3, 50, 1), (2, 30, 7)):
        assert g_bracket(ctx, 1, z, z0, tau) == g_sifted(ctx, tau, z, z0)
    for p, z in ((3, 30), (7, 50)):
        lhs = g_bracket(ctx, p, z, 2, 1)
        rhs = Fraction(p, p - 1) * g_sifted(ctx, p, Fraction(z, p), 2)
        assert lhs == rhs


def test_g_bracket_brute_force(ctx):
    assert g_bracket(ctx, 6, 20, 2, 1) == brute_force_bracket(ctx, 6, 20, 2, 1)
    assert g_bracket(ctx, 10, 35, 2, 1) == brute_force_bracket(ctx, 10, 35, 2, 1)
    assert g_bracket(ctx, 15, 24, 2, 2) == brute_force_bracket(ctx, 15, 24, 2, 2)
    assert g_bracket(ctx, 35, 60, 3, 2) == brute_force_bracket(ctx, 35, 60, 3, 2)
    # q * tau = 4849845 is past the prime table
    assert g_bracket(ctx, 15015, 400, 2, 323) == brute_force_bracket(ctx, 15015, 400, 2, 323)


#: every criterion-1 table and the verify sieve suite's wq-report tables
SIEVE_TABLES = ([(z0, z, tau) for z0 in (2, 3, 5) for z in (20, 30, 50) for tau in (1, 5, 7)]
                + [(3, 50, 1), (29, 100, 1), (37, 150, 1), (2, 75, 1)])


def test_weights_match_per_ell_reference(ctx):
    # w_q = mu(q) G_[q] / (phi(q) G^2) at every stored key, fraction for
    # fraction, with G_[q] summed one ell at a time
    for z0, z, tau in SIEVE_TABLES:
        weights = sv.build_weights(ctx, sv.SieveParams(z0, z, tau))
        Gsq = weights.G_val ** 2
        for q, wq in weights.w.items():
            ref = per_ell_bracket(ctx, q, z, z0, tau)
            assert wq == Fraction(ctx.mobius(q), ctx.euler_phi(q)) * ref / Gsq, (z0, z, tau, q)
    # z off the integers, as a fraction and as a float
    for q in (1, 7, 77, 143, 1001, 7429):
        for z in (Fraction(201, 4), 37.5, Fraction(1, 2)):
            assert g_bracket(ctx, q, z, 5, 3) == per_ell_bracket(ctx, q, z, 5, 3), (q, z)


def test_bracket_preconditions(ctx):
    with pytest.raises(ValueError):
        g_bracket(ctx, 4, 20, 2, 1)       # not squarefree
    with pytest.raises(ValueError):
        g_bracket(ctx, 3, 20, 2, 3)       # shares a prime with tau
    with pytest.raises(ValueError):
        g_bracket(ctx, 2, 20, 3, 1)       # q inside the small-prime block


def test_division_chain_exhaustive(ctx):
    # G_tau(z/q) <= (q/phi(q)) G_{q tau}(z/q) across small squarefree q
    for q in (2, 3, 6, 10, 15, 30):
        for z in (50, 200, 1000):
            lhs = g_sifted(ctx, 1, Fraction(z, q), 2)
            rhs = Fraction(q, ctx.euler_phi(q)) * \
                g_sifted(ctx, q, Fraction(z, q), 2)
            assert lhs <= rhs


def test_square_doubling(ctx):
    for z in range(2, 301):
        assert g_value(ctx, 1, z * z) <= 2 * g_value(ctx, 1, z)


def test_report_statuses(ctx):
    rows = explicit_estimate_report(ctx, 10_000)
    by_status = {}
    for r in rows:
        by_status.setdefault(r.status, []).append(r.lemma)
    # two stated estimates are measurably false and must stay red
    assert sorted(by_status.get("fail", [])) == [
        "mertens-product-lower-refined", "primorial-log-growth"]
    # gated rows must explain themselves
    for r in rows:
        if r.status == "not-applicable":
            assert r.note
    fails = {r.lemma: r for r in rows if r.status == "fail"}
    assert fails["primorial-log-growth"].margin == pytest.approx(
        -4.469522831748996, rel=1e-9)
    assert fails["mertens-product-lower-refined"].margin == pytest.approx(
        -0.0013525373530547669, rel=1e-9)


def test_zmax_beyond_table_is_capacity_error():
    # the scans are never clipped to the table: zmax past it is an error
    with pytest.raises(CapacityError, match="zmax=5000 .* 3000"):
        explicit_estimate_report(build_context(3000), 5000)


def test_report_passing_rows_have_margins(ctx):
    for r in explicit_estimate_report(ctx, 10_000):
        if r.status == "pass" and r.margin is not None:
            assert r.margin >= -1e-9


def _dense_rough_rows(ctx):
    # the rough-count check as one dense scan: the count C at every integer
    # up to Qmax and the margin at every Q of the window
    rows = []
    for band, marker, z0_hi in (("[35, 37]", 35, 37), ("(37, 41]", 38, 41)):
        qmin = math.isqrt(ctx.primorial(marker) - 1) + 1
        qmax = 2 * qmin
        mask = np.ones(qmax + 1, dtype=bool)
        mask[0] = False
        for p in ctx.primes_below(marker):
            mask[p::p] = False
        C = np.cumsum(mask.astype(np.int64))
        ns = np.arange(qmin, qmax + 1)
        m, at = gfunctions._worst(1.1 * ns / math.log(3 * z0_hi) - C[ns], ns)
        rows.append((int(at), -m, m))
    return rows


def test_rough_count_scans_only_binding_points(ctx, monkeypatch):
    # Q, lhs and margin exactly as the dense scan finds them, whether Qmin
    # falls inside a segment (997, and the default) or one segment holds it all
    dense = _dense_rough_rows(ctx)
    assert dense[1] == (2_724_109, -217588.3272974625, 217588.3272974625)
    for segment in (gfunctions.SEGMENT, 997, 1 << 23):
        monkeypatch.setattr(gfunctions, "SEGMENT", segment)
        rows = gfunctions._check_rough_count(ctx)
        assert [(r.params["Q"], r.lhs, r.margin) for r in rows] == dense
        assert all(r.status == "pass" for r in rows)


def test_report_memory_is_bounded_by_the_segment(ctx):
    # the dense rough-count scan held int64 and float64 arrays over its
    # whole window (up to 5.4M integers), tracing a 112.7 MB peak here; the
    # segmented one traces about 2 MB
    explicit_estimate_report(ctx, 10_000)  # the lazy tables, built once
    tracemalloc.start()
    try:
        explicit_estimate_report(ctx, 10_000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16_000_000, peak
