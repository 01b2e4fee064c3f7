"""Normalizing sums of the sieve and their explicit inequality checks.

The central quantity is

    G_d(y; z0) = sum over ell <= y with (ell, d*P(z0)) = 1 of mu^2(ell)/phi(ell)

where P(z0) is the product of the primes below z0.  Exact values are
fractions, summed in blocks of BLOCK integers from checkpoints kept on the
PrimeContext; g_profile gives the float cumulative table the scans read.
g_bracket, the kernel behind the Fourier coefficients of the sieve weights,
is a signed sum of these exact values over the ordered splits of q.

explicit_estimate_report re-checks every explicit inequality the package
leans on, one row per inequality, reporting the worst margin found over the
stated parameter range.  Hypothesis sets that cannot be met within the
prime-table limit come back as not-applicable rather than silently passing,
and inequalities that are genuinely false on part of their stated range are
reported as failures with the offending window in the note.
"""
from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .arith import CapacityError, PrimeContext
from .report import CheckRow, exact_leq_row, leq_row, na_row

EULER_GAMMA = 0.5772156649015329
#: limit of G(z) - log z as z grows
G_CONSTANT = 1.332582275733
#: |G(z) - log z - G_CONSTANT| <= ASYM_SLOPE / sqrt(z)
ASYM_SLOPE = 61.0 / 25.0


def _floor(y) -> int:
    """Exact floor for int, Fraction, or float input (floats taken exactly)."""
    if isinstance(y, float):
        y = Fraction(y)
    return math.floor(y)


#: g_sifted sums whole blocks of this many integers and checkpoints each
#: block boundary, so no segment's lcm of phi values grows with the query
BLOCK = 512


def g_sifted(ctx: PrimeContext, d, y, z0) -> Fraction:
    """Exact G_d(y; z0): sum of 1/phi(ell) over squarefree ell <= y
    coprime to d and free of prime factors below z0.

    d is an int or a tuple of factors, struck one at a time (d * tau may
    pass the table limit).  The sum up to m = floor(y) starts from the
    nearest exact checkpoint at or below m, kept on ctx per set of struck
    primes.  A struck prime above m divides no ell <= m, so the set holds
    only the struck primes in [z0, m]: queries whose extra primes all
    exceed their m extend one shared chain.  It is extended block by block
    to the last multiple of BLOCK at or below m, storing every block
    boundary, and then by the tail up to m, which is stored too.  Each
    block is summed once per set of struck primes, and a query sums at
    most one partial block afresh."""
    factors = d if isinstance(d, tuple) else (d,)
    if any(f < 1 for f in factors):
        raise ValueError("d must be >= 1")
    m = _floor(y)
    if m < 1:
        return Fraction(0)
    # the struck primes: those below z0 (by count) and those of d in [z0, m]
    extra = tuple(sorted({p for f in factors for p in ctx.prime_factors(f) if z0 <= p <= m}))
    key = (len(ctx.primes_below(z0)), extra)
    m0, g = ctx.checkpoint_below(key, m)
    while m0 < m:
        m1 = min(m0 - m0 % BLOCK + BLOCK, m)
        g += _segment_sum(ctx, extra, z0, m0, m1)
        ctx.add_checkpoint(key, m1, g)
        m0 = m1
    return g


def _segment_sum(ctx: PrimeContext, primes: tuple, z0, m0: int, m1: int) -> Fraction:
    """Sum of 1/phi(ell) over the admissible ell in (m0, m1], those free of
    prime factors below z0 and of the struck primes, the equal phi values
    grouped and added over one common denominator: a single reduction
    instead of thousands of fraction additions."""
    mask = (ctx.sifted_mask(m1, z0, primes, start=m0 + 1)
            & ctx.squarefree_mask(m1)[m0 + 1 :])
    phi = ctx.phi_table(m1)[m0 + 1 :][mask]
    values, counts = np.unique(phi, return_counts=True)
    values, counts = values.tolist(), counts.tolist()
    den = math.lcm(*values) if values else 1
    return Fraction(sum(c * (den // v) for v, c in zip(values, counts)), den)


def g_value(ctx: PrimeContext, d: int, y) -> Fraction:
    """Exact G_d(y), no small-prime exemption."""
    return g_sifted(ctx, d, y, 2)


def ordered_splits(primes, y) -> list[tuple[int, int, int]]:
    """Every ordered split q1 q2 q3 of the product of the distinct primes
    with q1 q3 <= y and q2 q3 <= y.  Splits grow one prime at a time, and
    one that already breaks a bound is dropped: the products only grow."""
    m = _floor(y)
    splits = [(1, 1, 1)] if m >= 1 else []
    for p in primes:
        splits = [s for q1, q2, q3 in splits
                  for s in ((q1 * p, q2, q3), (q1, q2 * p, q3), (q1, q2, q3 * p))
                  if s[0] * s[2] <= m and s[1] * s[2] <= m]
    return splits


def g_bracket(ctx: PrimeContext, q: int, z, z0, tau: int) -> Fraction:
    """Exact bracketed sum behind the Fourier weights of the sieve,

        G_[q](z; z0, tau) = (1/phi(q)) sum over q1*q2*q3 = q of
                            t(q3) G_{q tau}(z / max(q1*q3, q2*q3); z0),
        t(q3) = prod over p | q of (2 - p if p | q3 else p - 1).

    This is sum over ell <= z/sqrt(q), (ell, q*tau*P(z0)) = 1, of
    mu^2(ell)/phi(ell) * sum over the splits with q1*q3, q2*q3 <= z/ell of
    t(q3)/phi(q), with the two sums swapped: a split of max m takes the ell
    <= z/m, and m >= sqrt(q q3) >= sqrt(q) keeps those below z/sqrt(q).
    Splits with m > z take G(y < 1) = 0 and are not enumerated.  q must be
    squarefree and coprime to tau*P(z0).
    """
    if q < 1 or not ctx.is_squarefree(q):
        raise ValueError(f"q={q} must be a squarefree positive integer")
    if math.gcd(q, tau) != 1:
        raise ValueError(f"q={q} shares a factor with tau={tau}")
    if q > 1 and ctx.spf(q) < z0:
        raise ValueError(f"q={q} has a prime factor below z0={z0}")
    zf = Fraction(z)
    primes = ctx.prime_factors(q)
    t_at: dict[int, int] = {}  # m -> sum of t(q3) over the splits of max m
    for q1, q2, q3 in ordered_splits(primes, zf):
        m = max(q1, q2) * q3
        t_at[m] = t_at.get(m, 0) + math.prod(2 - p if q3 % p == 0 else p - 1 for p in primes)
    # descending m: each G(z/m) extends the checkpoint the one before stored
    total = sum((t * g_sifted(ctx, (q, tau), zf / m, z0)
                 for m, t in sorted(t_at.items(), reverse=True)), Fraction(0))
    return total / ctx.euler_phi(q)


def g_profile(ctx: PrimeContext, d: int, z0, n: int) -> np.ndarray:
    """Float cumulative table of y -> G_d(y; z0) at one fixed (d, z0): entry
    m holds G_d(m; z0) for 0 <= m <= n.  Raises CapacityError for an n past
    the prime table."""
    mask = ctx.sifted_mask(n, z0, ctx.prime_factors(d)) & ctx.squarefree_mask(n)
    vals = np.zeros(n + 1)
    vals[mask] = 1.0 / ctx.phi_table(n)[mask]
    return np.cumsum(vals)


def _worst(margins: np.ndarray, labels: np.ndarray):
    i = int(np.argmin(margins))
    return float(margins[i]), labels[i]


NA_HYPOTHESES = "hypotheses need z >= 2.0056e11 (z0 >= 35 and primorial(z0) <= z): unsatisfiable at this scale"


#: smallest zmax every scan can take: prime-count-lower compares
#: pi(x) >= x/log x at the plateau right ends x > 17 (its stated range
#: starts at 17), and the scan's last right end is zmax itself, so an
#: integer zmax <= 17 leaves it nothing to compare
MIN_ZMAX = 18


def explicit_estimate_report(ctx: PrimeContext, zmax: int) -> list[CheckRow]:
    """Re-check the explicit inequalities over their stated ranges.

    Scans are binding-point complete: each step function is compared at the
    points where its inequality is tightest over real parameters, so a pass
    here certifies the full stated range up to zmax, which must lie in the
    prime table and be at least MIN_ZMAX.
    """
    if zmax < MIN_ZMAX:
        raise ValueError(f"zmax={zmax} is below {MIN_ZMAX}, where the "
                         f"prime-count-lower scan starts")
    if zmax > ctx.limit:
        raise CapacityError(f"zmax={zmax} exceeds prime table limit {ctx.limit}")
    rows: list[CheckRow] = []
    primes = ctx.primes[ctx.primes <= zmax]
    logs = np.log(primes.astype(float))
    g = g_profile(ctx, 1, 2, zmax)  # plain G, shared by four scans

    rows.append(_check_division_chain(ctx, g[: min(zmax, 10_000) + 1]))
    rows.append(_check_asymptotic_band(g))
    rows.append(_check_square_doubling(ctx))
    rows.append(_check_log_gap_band(g))
    rows.append(_check_lower_log_ratio(ctx, g))

    # the four estimates whose hypothesis set starts at z0 >= 35 with the
    # full primorial below z: smallest admissible z is ~2.0056e11
    rows.append(na_row("g-upper-mertens-log", {"z0_min": 35}, NA_HYPOTHESES))
    rows.append(na_row("g-lower-mertens-log", {"z0_min": 35}, NA_HYPOTHESES))
    rows.append(na_row("g-square-ratio", {"z0_min": 35}, NA_HYPOTHESES))
    rows.append(na_row("g-unsift-ratio", {"z0_min": 35}, NA_HYPOTHESES))

    rows.append(_check_prime_log_sum(primes, logs, zmax))
    rows.append(_check_primorial_log_growth(primes, logs, zmax))
    rows.extend(_check_mertens_product_lower(primes, zmax))
    rows.append(_check_squarefree_count(ctx, zmax))
    rows.extend(_check_rough_count(ctx))
    rows.extend(_check_prime_counts(primes, logs, zmax))
    rows.extend(_check_mertens_ratio(primes, zmax))
    return rows


def _check_division_chain(ctx: PrimeContext, g: np.ndarray) -> CheckRow:
    # G_1(z/q; z0) <= (q/phi(q)) G_q(z/q; z0) <= G_1(z; z0) for every
    # squarefree q <= 30 coprime to the primes below z0, integer z <= zcap;
    # g is plain G to zcap.
    zcap = len(g) - 1
    worst = math.inf
    at = {}
    for z0 in (2, 3, 5):
        base = g if z0 == 2 else g_profile(ctx, 1, z0, zcap)
        zs = np.arange(1, zcap + 1)
        for q in range(2, 31):
            if not ctx.is_squarefree(q):
                continue
            if q > 1 and ctx.spf(q) < z0:
                continue
            prof_q = g_profile(ctx, q, z0, zcap)
            ratio = q / ctx.euler_phi(q)
            idx = zs // q
            lhs = base[idx]
            mid = ratio * prof_q[idx]
            rhs = base[zs]
            m1 = mid - lhs
            m2 = rhs - mid
            m = min(float(m1.min()), float(m2.min()))
            if m < worst:
                worst = m
                j = int(np.argmin(np.minimum(m1, m2)))
                at = {"q": q, "z0": z0, "z": int(zs[j])}
    return leq_row("g-division-chain", at, -worst, 0.0,
                   note=f"both chain links, squarefree q <= 30, integer z <= {zcap}, z0 in (2,3,5)")


def _check_asymptotic_band(cum: np.ndarray) -> CheckRow:
    # |G(z) - log z - c0| <= 2.44/sqrt(z); G steps at integers, so the upper
    # side binds at z = n and the lower side as z -> (n+1)-.
    cap = len(cum) - 1
    ns = np.arange(1, cap + 1).astype(float)
    g = cum[1:cap + 1]
    up = ASYM_SLOPE / np.sqrt(ns) - (g - np.log(ns) - G_CONSTANT)
    dn = ASYM_SLOPE / np.sqrt(ns[:-1] + 1) - (np.log(ns[:-1] + 1) + G_CONSTANT - g[:-1])
    margin, z_at = _worst(np.concatenate([up, dn]), np.concatenate([ns, ns[:-1]]))
    return leq_row("g-asymptotic-band", {"z": int(z_at), "zmax": cap}, -margin, 0.0,
                   note="two-sided band around log z + 1.332582275733, slope 2.44/sqrt(z)")


def _check_square_doubling(ctx: PrimeContext) -> CheckRow:
    # G(z^2) <= 2 G(z): on z in [n, n+1) the left side peaks at G(n^2+2n)
    ncap = min(345, math.isqrt(ctx.limit + 1) - 1)
    g = g_profile(ctx, 1, 2, ncap * ncap + 2 * ncap)
    ns = np.arange(2, ncap + 1)
    margins = 2.0 * g[ns] - g[ns * ns + 2 * ns]
    m, n_at = _worst(margins, ns)
    return leq_row("g-square-doubling", {"z": int(n_at), "zmax": ncap}, -m, 0.0,
                   note="checked on the binding grid G(n^2+2n) <= 2G(n)")


def _check_log_gap_band(cum: np.ndarray) -> CheckRow:
    # 1.2 <= G(z) - log z <= 1.4709 for z >= 10
    cap = len(cum) - 1
    ns = np.arange(10, cap + 1)
    g = cum[ns]
    upper = 1.4709 - (g - np.log(ns))            # binds at z = n
    nxt = np.minimum(ns + 1, cap)                # last interval capped at the scan end
    lower = (g - np.log(nxt)) - 1.2              # binds as z -> (n+1)-
    margin, z_at = _worst(np.concatenate([upper, lower]), np.concatenate([ns, ns]))
    return leq_row("g-log-gap-band", {"z": int(z_at), "zmax": cap}, -margin, 0.0,
                   note="1.2 <= G(z) - log z <= 1.4709 on [10, zmax]")


def _check_lower_log_ratio(ctx: PrimeContext, g: np.ndarray) -> CheckRow:
    # G(z; z0) >= e^-gamma log z / log(2 z0) for 2 <= z0 <= z.  The right
    # side grows as z0 shrinks, so each prime gap (p, p') binds at z0 -> p+,
    # with the profile taken at threshold p', which strikes every prime <= p.
    # g is plain G to the scan's end.
    cap = len(g) - 1
    eg = math.exp(-EULER_GAMMA)
    ps = [int(p) for p in ctx.primes[ctx.primes <= cap]]
    sampled = [p for p in ps if p <= 31]
    step = max(1, len(ps) // 30)
    sampled += ps[len(sampled)::step]
    gaps = sorted(set(sampled))
    nexts = [ps[ps.index(p) + 1] if p < ps[-1] else cap + 1 for p in gaps]
    worst = math.inf
    at = {}
    # threshold 2 (z0 = 2 exactly) strikes nothing: plain G, last
    for p, nxt in zip(gaps + [2], nexts + [2]):
        prof = g if nxt == 2 else g_profile(ctx, 1, nxt, cap)
        ms = np.arange(p, cap + 1)
        zs = np.minimum(ms + 1, cap).astype(float)  # binding z -> (m+1)-
        margins = prof[ms] - eg * np.log(zs) / math.log(2 * p)
        m, m_at = _worst(margins, ms)
        if m < worst:
            worst = m
            where = {"z0": 2} if nxt == 2 else {"z0_gap": (p, min(nxt, cap))}
            at = {**where, "z": int(m_at)}
    return leq_row("g-lower-log-ratio", at, -worst, 0.0,
                   note=f"G(z;z0) >= e^-gamma log z / log 2z0, z0 sampled on prime gaps up to {cap}")


def _check_prime_log_sum(primes: np.ndarray, logs: np.ndarray, cap: int) -> CheckRow:
    # sum_{p < z0} log p/(p-1) >= log z0 - 0.6 for z0 >= 3; the sum is
    # constant on (p_k, p_{k+1}] so each gap binds at its right end.
    cum = np.cumsum(logs / (primes - 1.0))
    rights = np.append(primes[1:].astype(float), float(cap))
    margins = cum - (np.log(rights) - 0.6)
    m, at = _worst(margins, rights)
    return leq_row("prime-log-sum-lower", {"z0": float(at), "z0max": cap}, -m, 0.0,
                   note="binding scan at prime right-endpoints, z0 in [3, z0max]")


def _check_primorial_log_growth(primes: np.ndarray, logs: np.ndarray, cap: int) -> CheckRow:
    # claimed: z0 >= 35 and primorial(z0) <= z imply z0 <= (5/4) log z.
    # Binding z is the primorial itself, so the claim needs
    # z0 <= (5/4) theta(z0-) throughout; false just above 35.
    theta = np.cumsum(logs)
    rights = np.append(primes[1:].astype(float), float(cap))
    keep = rights >= 35.0
    if not keep.any():
        return na_row("primorial-log-growth", {"z0max": cap}, "scan cap below the stated range z0 >= 35")
    margins = 1.25 * theta[keep] - rights[keep]
    m, at = _worst(margins, rights[keep])
    bad = rights[keep][margins < 0]
    note = "claim needs z0 <= 1.25*theta(z0-), theta = log primorial"
    if bad.size:
        note += (f"; counterexamples from z0 = 35 up to z0 = {bad.max():.0f}"
                 f" (theta(35-) = {float(theta[primes < 35][-1]):.3f} < 28); holds beyond")
    return leq_row("primorial-log-growth", {"z0": float(at), "z0max": cap}, -m, 0.0, note=note)


def _check_mertens_product_lower(primes: np.ndarray, cap: int) -> list[CheckRow]:
    # prod_{p < z0} (1 - 1/p) against e^-gamma / log(9 z0/5)  (z0 >= 2)
    # and against e^-gamma / log(1.23 z0)  (z0 > 31).  The product is
    # constant on (p_k, p_{k+1}]; both right sides shrink in z0, so each
    # gap binds at its left end.
    eg = math.exp(-EULER_GAMMA)
    V = np.cumprod(1.0 - 1.0 / primes.astype(float))
    pks = primes.astype(float)
    m1 = np.append(1.0 - eg / math.log(3.6), V - eg / np.log(1.8 * pks))
    lab1 = np.append(2.0, pks)
    a, at = _worst(m1, lab1)
    rows = [leq_row("mertens-product-lower", {"z0": float(at), "z0max": cap}, -a, 0.0,
                    note="denominator log(9 z0/5), z0 >= 2, binding scan at gap left-endpoints")]
    keep = pks >= 31
    if not keep.any():
        rows.append(na_row("mertens-product-lower-refined", {"z0max": cap},
                           "scan cap below the stated range z0 > 31"))
        return rows
    m2 = V[keep] - eg / np.log(1.23 * pks[keep])
    b, bt = _worst(m2, pks[keep])
    note = "denominator log(1.23 z0), stated for z0 > 31"
    if b < 0:
        thr = math.exp(eg / float(V[pks == 31][0])) / 1.23
        note += f"; false on (31, {thr:.3f}) (still negative at z0 = 32), holds beyond"
    rows.append(leq_row("mertens-product-lower-refined", {"z0": float(bt), "z0max": cap}, -b, 0.0, note=note))
    return rows


def _check_squarefree_count(ctx: PrimeContext, cap: int) -> CheckRow:
    # #{q <= Q squarefree} >= Q/2 for real Q >= 1: integer binding 2*S(n) >= n+1
    S = np.cumsum(ctx.squarefree_mask(cap).astype(np.int64))
    ns = np.arange(1, cap + 1)
    margins = 2 * S[ns] - (ns + 1)
    i = int(np.argmin(margins))
    return exact_leq_row("squarefree-count-lower", {"Q": int(ns[i]), "Qmax": cap},
                         int(ns[i] + 1), int(2 * S[ns[i]]),
                         note="integer binding points cover all real Q >= 1")


#: the rough-count check sieves its range this many integers at a time
SEGMENT = 1 << 15


def _check_rough_count(ctx: PrimeContext) -> list[CheckRow]:
    # #{q <= Q, no prime factor < z0} <= 1.1 Q / log(3 z0) once primorial(z0) <= Q^2.
    # Desk-checkable on the first two z0 plateaus; Q window [Qmin, 2 Qmin].
    # The margin 1.1 Q / log(3 z0) - C(Q) rises strictly between rough
    # integers (a step of 1.1 in 1.1 Q is far above an ulp here) and drops
    # only where C(Q) counts one more, so its first minimum lies at Qmin or
    # at a rough Q: only those binding points are evaluated, while [1, Qmax]
    # is sieved SEGMENT integers at a time with a running count of the rough
    # ones, in O(SEGMENT) memory whatever the window.
    rows = []
    # plateau marker: the primorial and the sieving primes are those below it
    for band, marker, z0_hi in (("[35, 37]", 35, 37), ("(37, 41]", 38, 41)):
        P = ctx.primorial(marker)
        s = math.isqrt(P)
        qmin = s if s * s == P else s + 1
        qmax = 2 * qmin
        primes = ctx.primes_below(marker)
        worst, at, count = math.inf, None, 0
        for lo in range(1, qmax + 1, SEGMENT):
            rough = np.ones(min(SEGMENT, qmax + 1 - lo), dtype=bool)
            for p in primes:
                rough[-lo % p :: p] = False
            if lo + len(rough) <= qmin:
                count += int(np.count_nonzero(rough))
                continue
            C = count + np.cumsum(rough)  # C[i] = #rough integers <= lo + i
            count = int(C[-1])
            cut = max(qmin - lo, 0)
            bind = rough[cut:].copy()
            if lo <= qmin:
                bind[0] = True  # the window's left end
            idx = np.flatnonzero(bind) + cut
            ns = lo + idx
            margins = 1.1 * ns / math.log(3 * z0_hi) - C[idx]
            m, n = _worst(margins, ns)
            if m < worst:
                worst, at = m, int(n)
        rows.append(leq_row("rough-count-upper", {"z0": band, "Q": at}, -worst, 0.0,
                            note=f"window Q in [{qmin}, {qmax}], right side at the binding cut z0 = {z0_hi}"))
    return rows


def _check_prime_counts(primes: np.ndarray, logs: np.ndarray, cap: int) -> list[CheckRow]:
    ks = np.arange(1, len(primes) + 1, dtype=float)
    pks = primes.astype(float)
    rows = []
    # pi(x) >= x / log x for x >= 17: constant on [p_k, p_{k+1}), binds at the
    # right; plateaus entirely below 17 are outside the stated range
    rights = np.append(pks[1:], float(cap))
    keep = rights > 17
    margins = ks[keep] - rights[keep] / np.log(rights[keep])
    m, at = _worst(margins, rights[keep])
    rows.append(leq_row("prime-count-lower", {"x": float(at), "xmax": cap}, -m, 0.0,
                        note="pi(x) >= x/log x on [17, xmax]"))
    # pi(x) <= (5/4) x / log x for x >= 114: binds at the left of each plateau
    if cap < 114:
        rows.append(na_row("prime-count-upper", {"xmax": cap}, "scan cap below 114"))
        rows.append(na_row("prime-count-upper-refined", {"xmax": cap}, "scan cap below 114"))
        return rows
    xs = np.append(114.0, pks[pks > 114])
    pi_at = np.searchsorted(primes, xs, side="right").astype(float)
    m54 = 1.25 * xs / np.log(xs) - pi_at
    a, at54 = _worst(m54, xs)
    rows.append(leq_row("prime-count-upper", {"x": float(at54), "xmax": cap}, -a, 0.0,
                        note="pi(x) <= (5/4) x/log x on [114, xmax]"))
    mref = xs / np.log(xs) * (1.0 + 1.5 / np.log(xs)) - pi_at
    b, atr = _worst(mref, xs)
    rows.append(leq_row("prime-count-upper-refined", {"x": float(atr), "xmax": cap}, -b, 0.0,
                        note="pi(x) <= x/log x (1 + 3/(2 log x)) on [114, xmax]"))
    return rows


def _check_mertens_ratio(primes: np.ndarray, cap: int) -> list[CheckRow]:
    eg = math.exp(EULER_GAMMA)
    R = np.cumprod(primes.astype(float) / (primes - 1.0))
    pks = primes.astype(float)
    rows = []
    # e^gamma log x < prod_{p <= x} p/(p-1) <= e^gamma log x + 2 e^gamma/sqrt(x)
    rights = np.append(pks[1:], float(cap))
    lower = R - eg * np.log(rights)
    upper = eg * np.log(pks) + 2.0 * eg / np.sqrt(pks) - R
    margin, at_x = _worst(np.concatenate([lower, upper]), np.concatenate([rights, pks]))
    rows.append(leq_row("mertens-ratio-band", {"x": float(at_x), "xmax": cap}, -margin, 0.0,
                        note="two-sided band on [2, xmax]"))
    if cap < 286:
        rows.append(na_row("mertens-ratio-upper-refined", {"xmax": cap}, "scan cap below 286"))
        return rows
    xs = np.append(286.0, pks[pks > 286])
    Rx = R[np.searchsorted(primes, xs, side="right") - 1]
    lx = np.log(xs)
    mref = eg * lx * (1.0 + 0.5 / (lx * lx)) - Rx
    c, ct = _worst(mref, xs)
    rows.append(leq_row("mertens-ratio-upper-refined", {"x": float(ct), "xmax": cap}, -c, 0.0,
                        note="refined upper bound on [286, xmax]"))
    return rows
