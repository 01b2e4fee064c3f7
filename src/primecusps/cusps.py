"""Cusp detection for prime exponential sums, and the large sieve checks.

An A-cusp is a point alpha with |T*(alpha)| >= T*(0)/A.  The detector
reads the half-circle grid samples at or above the threshold (the
spectrum keeps only those, so the grid costs O(N) memory), finds the runs
on the half circle (merging runs split at grid resolution), seeds the
rational cusps a/q (q squarefree, phi(q) <= A) that fall between grid
samples, reflects each arc to its mirror, and extracts a (1/N)-well
spaced subset whose count is tested against the 19 A^2 K log(2A) bound.
Arc endpoints are bisected and peaks golden-sectioned against the direct
sum by searches that yield the positions they need: _refine runs every
search of a phase in lockstep, one alpha-array exp_sum_at call a round,
and each search takes the path it would take alone.
structure_check finds the arc holding a point by bisection on the arc
starts.
The same module hosts the arithmetic structure checks on the cusp set
(symmetry, rational shifts, companions) and the explicit large sieve
inequalities the counting argument rests on.
"""
from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .arith import PrimeContext, WeightedPoint, circle_distance, extract_well_spaced
from .expsums import TWO_PI, PrimeSubset, SpectrumGrid, exp_sum_at, grid_sums
from .report import CheckRow, exact_leq_row, leq_row, na_row

#: arcs are refined until the endpoint bracket is this fraction of 1/N
ENDPOINT_RESOLUTION = 1.0 / 1024.0
#: a point this close to an arc, as a fraction of 1/N, counts as in it:
#: arc endpoints are bisected to ENDPOINT_RESOLUTION / N
ARC_SLACK = 4.0 * ENDPOINT_RESOLUTION
#: direct re-evaluation tolerance, as a fraction of T*(0)
REEVAL_TOL = 1e-6
#: the A of each large-sieve level-set corollary row
LEVEL_SET_A = (2, 4, 8, 16)
#: the A of the rational-shift row, whose shifts are taken about xi = 0
SHIFT_A = 2.0


@dataclass(frozen=True)
class CuspArc:
    """Closed arc [lo, hi] on R/Z (wraps when hi < lo) with its peak."""
    lo: float
    hi: float
    peak: WeightedPoint

    @property
    def length(self) -> float:
        return (self.hi - self.lo) % 1.0 if self.hi != self.lo else 0.0

    def contains(self, x: float, slack: float) -> bool:
        return ((x - self.lo) % 1.0) <= (self.hi - self.lo) % 1.0 + slack \
            or ((self.lo - x) % 1.0) <= slack


@dataclass(frozen=True, eq=False)
class CuspReport:
    """The A-cusp arcs of subset, in circle order from 0, and their
    (1/N)-well-spaced points."""
    subset: PrimeSubset
    A: float
    arcs: tuple
    wellspaced: tuple

    @property
    def threshold(self) -> float:
        """T*(0)/A."""
        return float(self.subset.size) / self.A

    @property
    def bound(self) -> float:
        """19 A^2 K log(2A), the bound on the well-spaced count."""
        return 19.0 * self.A * self.A * self.subset.K * math.log(2.0 * self.A)

    @property
    def count_ok(self) -> bool:
        return len(self.wellspaced) <= self.bound


def _bisect_crossing(threshold: float, inside: float, outside: float,
                     width: float):
    """Search for the |T*| = threshold crossing between an inside and an
    outside sample, to within `width`: yields each midpoint, as a tuple of
    one position, receives its |T*| and returns the inside-most bracket."""
    while circle_distance(inside, outside) > width:
        mid = (inside + outside) / 2.0  # brackets never wrap after shifting
        value, = yield (mid % 1.0,)
        if value >= threshold:
            inside = mid
        else:
            outside = mid
    return inside % 1.0


def _peak(lo: float, hi: float, best: WeightedPoint, width: float):
    """Golden-section search for the peak of |T*| on [lo, hi] (unwrapped
    reals): yields the positions of each step, the first two together,
    receives their |T*| and returns the peak, or the known point best when
    it is higher."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - (b - a) * invphi
    d = a + (b - a) * invphi
    fc, fd = yield (c % 1.0, d % 1.0)
    while b - a > width:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - (b - a) * invphi
            fc, = yield (c % 1.0,)
        else:
            a, c, fc = c, d, fd
            d = a + (b - a) * invphi
            fd, = yield (d % 1.0,)
    x = (a + b) / 2.0
    value, = yield (x % 1.0,)
    if best.weight > value:  # golden section lost a multimodal bracket
        return best
    return WeightedPoint(x % 1.0, value)


def _refine(subset: PrimeSubset, searches: list) -> list:
    """The return values of the searches, run in lockstep: each round takes
    the positions every live search yields through one _moduli call and
    sends each search its moduli, each bitwise what its alpha gets alone,
    so every search takes the path it would take by itself."""
    results = [None] * len(searches)
    live = [(i, search, None) for i, search in enumerate(searches)]
    while live:
        asked = []
        for i, search, reply in live:
            try:
                asked.append((i, search, search.send(reply)))
            except StopIteration as stop:
                results[i] = stop.value
        if not asked:
            break
        moduli = iter(_moduli(subset, [x for *_, xs in asked for x in xs]))
        live = [(i, search, [next(moduli) for _ in xs]) for i, search, xs in asked]
    return results


def _half_runs(index: np.ndarray, gap: int) -> list[np.ndarray]:
    """Runs of the ascending half-circle indices, cut wherever two
    neighbours are at least `gap` (>= 2) apart."""
    return np.split(index, np.flatnonzero(np.diff(index) >= gap) + 1)


def find_cusps(grid: SpectrumGrid, A: float) -> CuspReport:
    """Detect the A-cusp arcs on the grid and refine them.

    Runs are found and refined on the half circle 0 <= j <= G/2: runs
    separated by less than 1/(4N) are merged, endpoints are bisected to
    circle width 1/(1024 N) and each peak is golden-sectioned between the
    two grid neighbours of the run's best sample.  Every point a/q of
    rational_cusps with 0 < a/q < 1/2 that lies in no run's arc (its arc is
    narrower than the grid step) is seeded as an arc of its own, bisected
    from a/q out to its two grid neighbours and golden-sectioned between
    them.  The refinement runs in two lockstep phases through _refine, the
    runs' searches and then the seeds', so each round of a phase is one
    alpha-array exp_sum_at call: at G = 32N the runs take 11 calls and
    the seeds at most 10, whatever the number of arcs.  The well-spaced
    subset is extracted greedily at delta = 1/N from the refined peaks and
    every above-threshold grid sample.  T*(-alpha) = conj T*(alpha), so
    every arc other than the ones that are their own mirror (around 0 or
    1/2, which bisect one endpoint and reflect it) also gives the mirror
    arc (-hi, -lo).  A threshold T*(0)/A below the grid's floor raises
    ValueError.
    """
    if not 1 <= A < math.inf:
        raise ValueError(f"A={A} must be finite and >= 1")
    subset = grid.subset
    N, G = subset.N, grid.G
    threshold = float(subset.size) / A
    width = ENDPOINT_RESOLUTION / N
    index, absvals = grid.above(threshold)
    gap = max(2, math.ceil(G / (4.0 * N)))  # consecutive indices always share a run

    # phase 1: every run's endpoint bisections and its peak, in lockstep
    runs = _half_runs(index, gap)
    starts = np.cumsum([0] + [len(run) for run in runs])
    plans, searches = [], []
    for run, start in zip(runs, starts):
        mags = absvals[start : start + len(run)]
        at_zero = 2 * run[0] < gap  # its own mirror around 0
        at_half = G - 2 * run[-1] < gap  # its own mirror around 1/2
        if not at_zero:
            searches.append(_bisect_crossing(threshold, run[0] / G, (run[0] - 1) / G, width))
        if not at_half:
            searches.append(_bisect_crossing(threshold, run[-1] / G, (run[-1] + 1) / G, width))
        jstar = run[np.argmax(mags)]
        searches.append(_peak((jstar - 1) / G, (jstar + 1) / G,
                              WeightedPoint(jstar / G, float(mags.max())), width))
        plans.append((run, mags, at_zero, at_half))
    found = iter(_refine(subset, searches))
    half, candidates = [], []  # half: (half-circle position, arc, its own mirror)
    for run, mags, at_zero, at_half in plans:
        lo_u = None if at_zero else next(found)
        hi_u = None if at_half else next(found)
        if at_zero and at_half:  # the whole circle
            lo_u, hi_u = 0.0, 1.0 - 1.0 / G
        elif at_zero:
            lo_u = -hi_u
        elif at_half:
            hi_u = -lo_u
        half.append((run[0] / G, CuspArc(lo_u % 1.0, hi_u % 1.0, next(found)),
                     at_zero or at_half))
        candidates.extend(WeightedPoint(j / G, float(m)) for j, m in zip(run, mags))
        candidates.extend(WeightedPoint((G - j) / G, float(m))
                          for j, m in zip(run, mags) if 0 < 2 * j < G)
    # phase 2: the rational seeds outside every run's arc, in lockstep
    in_runs = _arc_membership([arc for _, arc, _ in half], ARC_SLACK / N)
    seeds = [seed for seed in rational_cusps(subset, A)
             if 0 < 2 * seed.position < 1 and not in_runs(seed.position)]
    searches = []
    for seed in seeds:
        x = seed.position
        j = math.floor(x * G)  # x is no grid point: q is neither 1 nor 2
        searches += [_bisect_crossing(threshold, x, j / G, width),
                     _bisect_crossing(threshold, x, (j + 1) / G, width),
                     _peak(j / G, (j + 1) / G, seed, width)]
    found = iter(_refine(subset, searches))
    for seed in seeds:
        half.append((seed.position, CuspArc(next(found), next(found), next(found)), False))
    half.sort(key=lambda entry: entry[0])
    arcs = [arc for _, arc, _ in half]
    mirrors = [CuspArc((-arc.hi) % 1.0, (-arc.lo) % 1.0,
                       WeightedPoint((-arc.peak.position) % 1.0, arc.peak.weight))
               for _, arc, own in half if not own]
    candidates += [arc.peak for arc in arcs + mirrors]
    arcs += reversed(mirrors)  # so the arcs run in circle order from 0

    wellspaced = extract_well_spaced(candidates, 1.0 / N)
    return CuspReport(subset, float(A), tuple(arcs), tuple(wellspaced))


# -- rational cusps -----------------------------------------------------------


def rational_points(A: float) -> list[Fraction]:
    """The reduced fractions a/q in [0, 1) with q squarefree and
    phi(q) <= A, ascending in q and then a: where the local model puts
    |T*| near T*(0)/phi(q).  phi(q) >= sqrt(q/2), so every such q is at
    most 2 A^2: phi and squarefreeness are sieved once up to there, and
    the reduced residues are built only for the q that pass."""
    Q = math.floor(2 * A * A)
    phi = np.arange(Q + 1)
    free = np.ones(Q + 1, dtype=bool)
    for p in range(2, Q + 1):
        if phi[p] == p:  # no smaller prime divides p
            phi[p::p] -= phi[p::p] // p
            free[p * p :: p * p] = False
    points = []
    for q in np.flatnonzero(free & (phi <= A))[1:].tolist():
        a = np.arange(q)
        points += [Fraction(r, q) for r in a[np.gcd(a, q) == 1].tolist()]
    return points


def rational_cusps(subset: PrimeSubset, A: float) -> list[WeightedPoint]:
    """The points a/q of rational_points(A) where |T*(a/q)| clears T*(0)/A
    by more than its float error, each weighted by |T*(a/q)|.

    With c_r the number of members = r mod q, T*(a/q) = sum_r c_r e(ra/q),
    its phases ra reduced exactly mod q: each term is within about 24 units
    of roundoff u of c_r e(ra/q), and the q-term sum adds at most 2q u
    T*(0), so the error is below (2q + 32) u T*(0)."""
    T0 = float(subset.size)
    threshold = T0 / A
    counts = {}
    cusps = []
    for x in rational_points(A):
        q = x.denominator
        if q not in counts:
            counts[q] = np.bincount(subset.members % q, minlength=q)
        r = np.arange(q)
        value = abs(counts[q] @ np.exp(TWO_PI * 1j * (r * x.numerator % q / q)))
        if value - (2 * q + 32) * 2.0 ** -53 * T0 >= threshold:
            cusps.append(WeightedPoint(float(x), float(value)))
    return cusps


def rational_cusps_row(report: CuspReport) -> CheckRow:
    """rational-cusps-detected: the points of rational_cusps(subset, A)
    outside every detected arc (within ARC_SLACK / N), against 0."""
    subset = report.subset
    in_arcs = _arc_membership(report.arcs, ARC_SLACK / subset.N)
    cusps = rational_cusps(subset, report.A)
    missed = [p.position for p in cusps if not in_arcs(p.position)]
    note = "rational A-cusps a/q (q squarefree, phi(q) <= A) outside every arc"
    if missed:
        note += ": " + ", ".join(f"{x:.6g}" for x in missed)
    return exact_leq_row("rational-cusps-detected",
                         {"subset": subset.label, "N": subset.N, "A": report.A,
                          "points": len(cusps)},
                         len(missed), 0, note)


# -- structure of the cusp set ---------------------------------------------


def _arc_membership(arcs: Sequence[CuspArc], slack: float):
    """The predicate x -> any(arc.contains(x, slack) for arc in arcs), by
    bisection on the arc starts.  find_cusps's arcs are disjoint, so sorted
    by start they are sorted by end too, and only the last arc starting at
    or before x and its two neighbours (cyclically, for the slack across 0)
    can hold x.  An arc that wraps through 0 is tested on its own."""
    wrapping = [arc for arc in arcs if arc.lo > arc.hi]
    plain = sorted((arc for arc in arcs if arc.lo <= arc.hi), key=lambda arc: arc.lo)
    starts = [arc.lo for arc in plain]

    def contains(x: float) -> bool:
        k = bisect.bisect_right(starts, x) - 1
        near = [plain[i % len(plain)] for i in (k - 1, k, k + 1)] if plain else []
        return any(arc.contains(x, slack) for arc in wrapping + near)

    return contains


def _moduli(subset: PrimeSubset, positions: Sequence[float]) -> list[float]:
    """|T*| at each position, from one alpha-array exp_sum_at call: each
    one bitwise what exp_sum_at gives it alone."""
    return [abs(complex(v)) for v in exp_sum_at(subset, positions)]


def structure_check(report: CuspReport) -> CheckRow:
    """Exact consequences on the cusp set, re-verified directly.

    For each well-spaced cusp alpha: |T*| at -alpha and 1/2+alpha must
    clear the threshold (within the re-evaluation tolerance) and both
    points must land inside a detected arc.  A failing row is a genuine
    defect: these are identities, not estimates.
    """
    subset = report.subset
    floor = report.threshold - REEVAL_TOL * float(subset.size)
    in_arcs = _arc_membership(report.arcs, ARC_SLACK / subset.N)
    worst = math.inf
    contained = True
    positions = [pos for pt in report.wellspaced
                 for pos in ((-pt.position) % 1.0, (0.5 + pt.position) % 1.0)]
    for pos, val in zip(positions, _moduli(subset, positions)):
        worst = min(worst, val - floor)
        if not in_arcs(pos):
            contained = False
    ok = worst >= 0 and contained
    return CheckRow("cusp-symmetry",
                    {"subset": subset.label, "N": subset.N, "A": report.A,
                     "points": len(report.wellspaced)},
                    None, None, None if worst is math.inf else float(worst),
                    "pass" if ok else "fail",
                    "re-evaluated |T*| at -alpha and 1/2+alpha, plus arc containment")


def rational_shift_check(ctx: PrimeContext, subset: PrimeSubset, q: int) -> CheckRow:
    """For squarefree q < sqrt(N) with phi(q) <= A |T*(xi)| / T*(0), some
    shift xi + a/q (a mod* q) must itself be an A-cusp.  Checked at xi = 0,
    A = SHIFT_A, where |T*(0)| = T*(0) and the gate reads phi(q) <= A."""
    T0 = float(subset.size)
    params = {"xi": 0.0, "q": q, "A": SHIFT_A, "subset": subset.label}
    if not ctx.is_squarefree(q):
        return na_row("cusp-rational-shift", params, "q not squarefree")
    if q * q >= subset.N:
        return na_row("cusp-rational-shift", params, "q >= sqrt(N)")
    if ctx.euler_phi(q) > SHIFT_A:
        return na_row("cusp-rational-shift", params,
                      "phi(q) above the A |T*(xi)|/T*(0) gate")
    best = max(_moduli(subset, [a / q for a in range(q) if math.gcd(a, q) == 1]))
    margin = (best - (T0 / SHIFT_A - REEVAL_TOL * T0)) / T0
    return CheckRow("cusp-rational-shift", params, float(best), T0 / SHIFT_A,
                    float(margin), "pass" if margin >= 0 else "fail",
                    "max over a mod* q of |T*(xi + a/q)| vs T*(0)/A")


def companion_search(subset: PrimeSubset, xi: float, A: float, B: float) -> dict:
    """Enumerate the companion set F = {xi + a/q : q <= A/B} cap C(A) of a
    B-cusp xi and test its size against A^2 / (6800 B^4 Z^2 K log A).  The
    bound is stated for 1 <= B <= sqrt(A)."""
    if subset.N < 10_000:
        raise ValueError("companion bound is stated for N >= 10^4")
    if not (2 <= A <= math.sqrt(subset.N)):
        raise ValueError(f"A={A} outside [2, sqrt(N)]")
    if not (1 <= B <= math.sqrt(A)):
        raise ValueError(f"B={B} outside [1, sqrt(A)]")
    T0 = float(subset.size)
    positions = [(xi + a / q) % 1.0 for q in range(1, int(A / B) + 1)
                 for a in range(q) if math.gcd(a, q) == 1]
    Txi, *moduli = _moduli(subset, [xi % 1.0] + positions)
    if Txi < T0 / B - REEVAL_TOL * T0:
        raise ValueError(f"xi={xi} is not a B-cusp (B={B})")
    members = [(pos, t) for pos, t in zip(positions, (m / T0 for m in moduli))
               if t >= 1.0 / A]
    Z = max((t for _, t in members), default=0.0)
    bound = 0.0
    if Z > 0:
        bound = A * A / (6800.0 * B ** 4 * Z * Z * subset.K * math.log(A))
    return {
        "xi": xi, "A": A, "B": B, "Z": Z, "K": subset.K,
        "members": members, "size": len(members), "bound": bound,
        "ok": len(members) > bound,
    }


# -- large sieve inequalities ----------------------------------------------


def _check_spacing(positions: Sequence[float], delta: float) -> None:
    xs = sorted(x % 1.0 for x in positions)
    for i in range(len(xs)):
        if len(xs) > 1 and circle_distance(xs[i], xs[(i + 1) % len(xs)]) < delta - 1e-12:
            raise ValueError(f"points are not {delta}-well spaced")


def large_sieve_check(positions: Sequence[float], u: np.ndarray,
                      subset: PrimeSubset, f: np.ndarray) -> list[CheckRow]:
    """Both sides of the explicit prime large sieve inequalities, for
    positions delta-well spaced at delta = 1/N.

    Primal: sum over X of |sum_p u_p e(xp)|^2 against
    19 (N + 1/delta) log(2|X|) sum|u_p|^2 / log N.  Dual: roles of points
    and primes exchanged for the supplied f on X.  The level-set corollary
    is tested for each A in LEVEL_SET_A.
    """
    N = subset.N
    delta = 1.0 / N
    _check_spacing(positions, delta)
    xs = np.asarray([x % 1.0 for x in positions], dtype=float)
    u = np.asarray(u, dtype=complex)
    if len(u) != subset.size:
        raise ValueError("u must assign one coefficient per subset member")
    phases = np.exp(2j * np.pi * np.outer(xs, subset.members))
    Su = phases @ u
    usq = float(np.sum(np.abs(u) ** 2))
    scale = (N + 1.0 / delta) / math.log(N)

    rows = []
    lhs = float(np.sum(np.abs(Su) ** 2))
    rhs = 19.0 * scale * math.log(2.0 * len(xs)) * usq
    rows.append(leq_row("large-sieve-primal",
                        {"n_points": len(xs), "N": N, "delta": delta},
                        lhs, rhs, note="sum over points of |S_u(x)|^2"))

    fv = np.asarray(f, dtype=complex)
    Sf = phases.conj().T @ fv
    f1 = float(np.sum(np.abs(fv)))
    f2 = float(np.sum(np.abs(fv) ** 2))
    lhs = float(np.sum(np.abs(Sf) ** 2))
    rhs = 19.0 * (N + 1.0 / delta) * f2 * math.log(2.0 * f1 * f1 / f2) / math.log(N)
    rows.append(leq_row("large-sieve-dual",
                        {"n_points": len(xs), "N": N, "delta": delta},
                        lhs, rhs, note="sum over primes of |S_f(p)|^2"))

    V = math.sqrt(scale * usq)
    for A in LEVEL_SET_A:
        count = int(np.sum(np.abs(Su) >= V / A))
        rows.append(leq_row("large-sieve-level-sets",
                            {"A": A, "n_points": len(xs), "N": N},
                            float(count), 19.0 * A * A * math.log(2.0 * A),
                            note="#{x : |S_u(x)| >= V/A}"))
    return rows


def _w_moment(u: np.ndarray, m: int) -> float:
    """W(m) = sum over a mod* m of |sum_n u_n e(na/m)|^2 (u indexed from 1).

    a and -a are both reduced residues, and |S(a)|^2 + |S(-a)|^2 =
    2(|X_a|^2 + |Y_a|^2) for the real-weight sums X and Y of Re u and Im u,
    so W(m) sums c_a (|X_a|^2 + |Y_a|^2) over the reduced 0 <= a <= m/2,
    with c_a = 1 when 2a = 0 mod m and 2 otherwise.  The index shift to
    n = 1 is a unit phase and leaves every modulus alone."""
    power = np.abs(grid_sums(u.real, m)) ** 2 + np.abs(grid_sums(u.imag, m)) ** 2
    a = np.arange(len(power))
    c = np.where(2 * a % m == 0, 1.0, 2.0)
    return float(np.sum((c * power)[np.gcd(a, m) == 1]))


def dilated_large_sieve_check(u: np.ndarray, Q1: int, Q2: int, delta: int) -> CheckRow:
    """sum_{Q1 <= q <= Q2} W(q delta)/q <= (N/Q1 + 2 delta Q2) sum|u_n|^2,
    N = len(u)."""
    if not (1 <= Q1 <= Q2) or delta < 1:
        raise ValueError("need 1 <= Q1 <= Q2 and delta >= 1")
    u = np.asarray(u, dtype=complex)
    N = len(u)
    lhs = sum(_w_moment(u, q * delta) / q for q in range(Q1, Q2 + 1))
    rhs = (N / Q1 + 2.0 * delta * Q2) * float(np.sum(np.abs(u) ** 2))
    return leq_row("large-sieve-dilated",
                   {"N": N, "Q1": Q1, "Q2": Q2, "delta": delta},
                   float(lhs), float(rhs),
                   note="rational points with dilated denominators")


def wq_weighted_sieve_report(ctx: PrimeContext, weights, u: np.ndarray) -> list[CheckRow]:
    """The w_q-weighted large sieve bound over u_1..u_N, N = len(u),
    hypothesis-gated.

    Requires z0 >= 35, primorial(z0) <= z, tau <= z^4 and a nonempty z1
    window [z0, sqrt(z)/log z].  The first two cannot be met below a prime
    table of ~2e11, so the usual outcome is a not-applicable row carrying
    the measured weighted sum for the record; the inequality is asserted
    if the hypotheses ever do hold.
    """
    z0, z, tau = weights.params.z0, weights.params.z, weights.params.tau
    u = np.asarray(u, dtype=complex)
    N = len(u)
    params = {"z0": z0, "z": z, "N": N}
    z1_hi = math.sqrt(z) / math.log(z)
    if z1_hi < z0:
        return [na_row("w-weighted-large-sieve", params,
                       "z1 range [z0, sqrt(z)/log z] is empty")]
    z1 = z0
    G = weights.G_val
    lhs = 0.0
    for q, wq in weights.w.items():
        if z1 <= q <= z * z:
            lhs += abs(float(wq * G)) * _w_moment(u, q)
    rhs = 13.0 * (N / z1 + z * z / math.log(3.0 * z0)) * float(np.sum(np.abs(u) ** 2))
    unmet = []
    if z0 < 35:
        unmet.append("z0 >= 35")
    if float(ctx.primorial(z0)) > z:
        unmet.append("primorial(z0) <= z")
    if tau > z ** 4:
        unmet.append("tau <= z^4")
    if unmet:
        return [na_row("w-weighted-large-sieve", {**params, "z1": z1},
                       f"measured weighted sum {lhs:.6g} vs stated bound "
                       f"{rhs:.6g} (record only; unmet: {', '.join(unmet)})")]
    return [leq_row("w-weighted-large-sieve", {**params, "z1": z1}, lhs, rhs,
                    note="weighted rational moments against 13(N/z1 + z^2/log 3z0)")]


# -- rational-cusp census ---------------------------------------------------


def farey_census_report(report: CuspReport) -> CheckRow:
    """Order-of-magnitude comparison of the detected arc count with the
    rational prediction: the ~ A^2/2 points of rational_points(A)."""
    predicted = len(rational_points(report.A))
    observed = len(report.arcs)
    ratio = observed / predicted if predicted else math.inf
    return CheckRow("cusp-farey-census",
                    {"subset": report.subset.label, "N": report.subset.N, "A": report.A},
                    float(observed), float(predicted), None, "pass",
                    f"arc count vs squarefree Farey prediction, ratio {ratio:.2f} "
                    "(order-of-magnitude report)")
