"""Transference: cover of the cusp set, Bohr set, and the decomposition

    f = f_flat / (V(z0) log N) + f_sharp

of the prime indicator, where f_flat = V(z0) log N (f * rho) is sieve-dense
and non-negative and S(f_sharp, alpha) = T*(alpha) (1 - |S_M(alpha)/|B||^2)
is small at every covered cusp.  Each stage holds the stage it was built
from and only what it computes itself: a Cover its CuspReport, a BohrSet
its Cover, and a Decomposition its BohrSet and f * rho on its support
ell in [-N, 2N], which holds every prime (the term b1 = b2 counts p) and
about 9 % of [-N, 2N].  rho = 1_B * 1_{-B} / |B|^2 is never formed:
every Bohr element is a multiple of M, so p + b1 - b2 = p (mod M), and
|B|^2 (f * rho) is one short inverse FFT of F(1_{P_r}) |F(1_{B/M})|^2 per
residue class r mod M that holds primes, at a length near 3N/M, rounded to
the integer counts of p + b1 - b2.  f, f_flat and f_sharp vanish off ell
and are derived on it at every read, and N, A, eps and Nprime are read
through the chain.  The transform identities are re-verified numerically
rather than assumed.  Every off-grid sum here, the transforms of f_sharp
and f* with T* beside them, the Bohr sums S_M and the moments behind the
cover's samples, is one
expsums.exp_sum or exp_sum_at call over an array of alphas, shared out to
the workers; the measured supremum is a grid_blocks sweep.  The cover is
built in whole arrays: its intervals are one np.unique, its samples one
exp_sums_on_progression call at T*((2k + 1)/Q) and each interval's best
one argmax; only its arc peaks and well-spaced points, which keep the |T*|
the cusp report measured, are walked one by one.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .arith import CapacityError, PrimeContext
from .cusps import ENDPOINT_RESOLUTION, REEVAL_TOL, CuspReport, find_cusps
from .expsums import (PrimeSubset, exp_sum, exp_sum_at, exp_sums_on_progression,
                      grid_blocks, require_memory, spectrum)
from .gfunctions import g_sifted
from .report import CheckRow, FLOAT_SLACK, exact_leq_row, leq_row

#: samples per cover interval when hunting the interval maximum
INTERVAL_SAMPLES = 3

#: cover samples re-evaluated directly by cover_sampler_row
COVER_SAMPLER_CHECKS = 64

#: most frequency-by-multiple entries a build_bohr pass holds at once
PHASE_BLOCK = 1 << 16

#: random alphas at which transform_checks re-verifies the f_sharp product
N_ALPHA = 1000

#: fuzzed phases u in the |e(u) - 1| <= 2 pi ||u|| check
N_FUZZ = 10_000


def _nprime(report: CuspReport) -> int:
    """Nprime = 240 A N, the number of cover intervals."""
    return int(round(240 * report.A * report.subset.N))


@dataclass(frozen=True, eq=False)
class Cover:
    """Points y with |T*(y)| >= T*(0)/A, one per short interval, so that
    every A-cusp of the report sits within 1/Nprime of some point, as an
    ascending float64 array.  A built cover keeps the ascending indices of
    the intervals it sampled and |T*| at their INTERVAL_SAMPLES samples,
    one row per interval, from which build_cover takes each interval's
    best sample by one argmax."""
    report: CuspReport
    points: np.ndarray = field(repr=False)
    intervals: np.ndarray = field(repr=False)
    samples: np.ndarray = field(repr=False)

    @property
    def Nprime(self) -> int:
        return _nprime(self.report)

    @property
    def eps(self) -> float:
        """1/(240 A), the Bohr radius."""
        return 1.0 / (240.0 * self.report.A)

    def frequencies(self, M: int) -> np.ndarray:
        """The nonzero M y mod 1, ascending and distinct: the frequencies Xi
        of B_M(eps)."""
        fr = np.unique((M * self.points) % 1.0)
        return fr[fr != 0.0]


@dataclass(frozen=True, eq=False)
class BohrSet:
    """B_M(eps) over the cover's frequencies, as its ascending elements."""
    cover: Cover
    M: int
    elements: np.ndarray = field(repr=False)

    @property
    def size(self) -> int:
        return len(self.elements)


def _sample_positions(idx, s, Nprime: int) -> np.ndarray:
    """Sample s of cover interval idx, elementwise: (idx + (s + 1/2)/S)/Nprime."""
    return idx / Nprime + (s + 0.5) / INTERVAL_SAMPLES / Nprime


def _interval_samples(subset: PrimeSubset, idx, Nprime: int) -> np.ndarray:
    """T* at the INTERVAL_SAMPLES samples of each interval in the ascending
    index list idx, shape (len(idx), S).  Sample s of interval a is
    (2k + 1)/(2S Nprime) at k = S a + s, so the whole cover is one
    exp_sums_on_progression call, from Taylor moments over its runs of
    consecutive samples."""
    S = INTERVAL_SAMPLES
    ks = (S * np.asarray(idx, dtype=np.int64)[:, None] + np.arange(S)).ravel()
    return exp_sums_on_progression(subset, 2 * S * Nprime, ks).reshape(len(idx), S)


def build_cover(report: CuspReport) -> Cover:
    """Select the interval representatives of the report's A-cusp set.

    The circle is cut into Nprime = 240 A N intervals.  Only intervals
    meeting a detected arc (or holding one of its points) can reach the
    threshold: one np.unique, mod Nprime, over each arc's indices
    floor(lo Nprime) + [0, ceil(length Nprime) + 1] and the intervals of
    the report's points.  Their INTERVAL_SAMPLES samples each come from
    one exp_sums_on_progression call, and an interval's best is its first
    maximal sample, by one argmax.  Then the arc peaks in arc order and
    the well-spaced points, at the |T*| the report measured, each replace
    their interval's best when strictly greater.  Every interval whose
    best reaches T*(0)/A contributes that point.
    """
    subset, Nprime = report.subset, _nprime(report)
    arcs = np.array([(arc.lo, arc.length) for arc in report.arcs]).reshape(-1, 2)
    lo = np.floor(arcs[:, 0] * Nprime).astype(np.int64)
    span = np.ceil(arcs[:, 1] * Nprime).astype(np.int64) + 2
    extras = [arc.peak for arc in report.arcs] + list(report.wellspaced)
    at = np.floor(np.array([pt.position for pt in extras]) * Nprime).astype(np.int64)
    # arc i's span_i indices from lo_i, for every arc in one arange
    ranges = np.arange(span.sum()) + np.repeat(lo - (np.cumsum(span) - span), span)
    idx = np.unique(np.concatenate((ranges, at)) % Nprime)
    samples = np.abs(_interval_samples(subset, idx, Nprime))
    s = samples.argmax(axis=1)
    best = samples[np.arange(len(idx)), s]
    points = _sample_positions(idx, s, Nprime)
    for j, pt in zip(np.searchsorted(idx, at % Nprime).tolist(), extras):
        if pt.weight > best[j]:
            best[j], points[j] = pt.weight, pt.position
    return Cover(report, np.sort(points[best >= report.threshold] % 1.0), idx, samples)


def cover_sampler_row(cover: Cover, seed: int) -> CheckRow:
    """Re-evaluate COVER_SAMPLER_CHECKS seeded samples the cover kept, from
    Taylor moments, with the direct sum, all in one exp_sum_at call."""
    zoom = cover.samples.ravel()
    picks = np.random.default_rng(seed).choice(
        zoom.size, min(COVER_SAMPLER_CHECKS, zoom.size), replace=False)
    S, subset = INTERVAL_SAMPLES, cover.report.subset
    direct = exp_sum_at(subset, np.mod(_sample_positions(cover.intervals[picks // S],
                                                         picks % S, cover.Nprime), 1.0))
    worst = np.abs(zoom[picks] - np.abs(direct)).max()
    return leq_row("cover-sampler-vs-direct",
                   {"N": subset.N, "A": cover.report.A, "samples": len(picks)},
                   worst, REEVAL_TOL * float(subset.size),
                   note="max ||T*| moments - |T*| direct| at seeded cover samples")


def check_h1(ctx: PrimeContext, M: int, z0) -> list[str]:
    """Violations of the divisor hypothesis: every prime of M below z0 and
    P(z0) | M."""
    bad = []
    for p in ctx.prime_factors(M):
        if p >= z0:
            bad.append(f"prime {p} of M is >= z0={z0}")
    P = int(ctx.primorial(z0))
    if M % P:
        bad.append(f"primorial(z0)={P} does not divide M={M}")
    return bad


def build_bohr(cover: Cover, M: int) -> BohrSet:
    """{n <= N : M | n, ||y n|| <= eps for y in Xi}, Xi =
    cover.frequencies(M), sieved over the multiples n = k M.

    Each pass tests as many frequencies against the surviving k as fit in
    PHASE_BLOCK entries, at least one: the first tests one frequency
    against all N/M multiples, later ones many frequencies against the few
    survivors, so working memory stays O(N/M).  A test is
    min(fr, 1 - fr) <= eps with fr = (k y) % 1 in floats, the same for
    every order of the passes.  Raises ValueError for M < 1 and for an
    empty set."""
    if M < 1:
        raise ValueError(f"M={M} must be >= 1")
    freqs, eps = cover.frequencies(M), cover.eps
    ks = np.arange(1, cover.report.subset.N // M + 1, dtype=np.int64)
    i = 0
    while i < len(freqs) and len(ks):
        rows = max(1, PHASE_BLOCK // len(ks))
        fr = np.multiply.outer(freqs[i : i + rows], ks)
        np.remainder(fr, 1.0, out=fr)
        np.minimum(fr, 1.0 - fr, out=fr)
        ks = ks[(fr <= eps).all(axis=0)]
        i += rows
    elements = (ks * M).astype(np.int64)
    if len(elements) == 0:
        raise ValueError("empty Bohr set: decomposition impossible at these parameters")
    return BohrSet(cover, M, elements)


def bohr_size_row(bohr: BohrSet) -> CheckRow:
    eps, n_freq = bohr.cover.eps, len(bohr.cover.frequencies(bohr.M))
    rhs = 0.5 * eps ** n_freq * bohr.cover.report.subset.N / bohr.M
    return CheckRow("bohr-size", {"M": bohr.M, "eps": eps, "n_freq": n_freq},
                    float(bohr.size), rhs, float(bohr.size - rhs),
                    "pass" if bohr.size >= rhs else "fail",
                    "|B| against (1/2) eps^|Xi_M| N/M")


def _triple_counts(bohr: BohrSet) -> np.ndarray:
    """counts[ell + N] = #{(p, b1, b2) : p + b1 - b2 = ell} for ell in
    [-N, 2N], p in the subset and b1, b2 in the Bohr set: |B|^2 (f * rho).

    Every element is a multiple of M, so p + b1 - b2 = p (mod M), and the
    counts split into one convolution per residue class r mod M that holds
    primes.  With K = N // M, p = r + M t and b = M c, the class's t are
    placed at t + K, and its counts at ell = r + M (j - K) are entry j of
    the inverse real FFT of F(1_t) |F(1_{B/M})|^2 at a length L > 3K + 1,
    so nothing aliases.  |F(1_{B/M})|^2 is built once; each class takes
    one rfft and one irfft, is rounded to the integers it must equal and
    written into the dense array, which stays 0.0 on the empty classes.
    Raises CapacityError first when its arrays, or the support and f * rho
    on it that decompose gathers beside them, would not fit in physical
    memory, ValueError when M does not divide every element, and
    ArithmeticError when a class's rounding gap exceeds 1e-5."""
    subset, M = bohr.cover.report.subset, bohr.M
    N = subset.N
    K = N // M
    L = 1 << (3 * K + 1).bit_length()
    half = 16 * (L // 2 + 1)
    # the most held at once: the dense counts, |F(1_{B/M})|^2, the primes'
    # quotients, classes and class order, and one class's half spectrum
    # beside its real input or output; and decompose's ell and f * rho, 16
    # bytes a point of at most 3N + 1, beside the counts
    require_memory(24 * (3 * N + 1) + half // 2 + 32 * subset.size + half + 8 * L,
                   f"convolutions of length {L}, one per class mod {M}")
    if (bohr.elements % M).any():
        raise ValueError(f"a Bohr element is not a multiple of M={M}")
    power = np.abs(np.fft.rfft(np.bincount(bohr.elements // M, minlength=K + 1), L))
    np.square(power, out=power)
    t, r = np.divmod(subset.members, M)
    sizes = np.bincount(r, minlength=M)
    by_class = np.split(t[np.argsort(r, kind="stable")], np.cumsum(sizes)[:-1])
    counts = np.zeros(3 * N + 1)
    for cls in np.flatnonzero(sizes).tolist():
        placed = np.zeros(2 * K + 1)
        placed[by_class[cls] + K] = 1.0
        spec = np.fft.rfft(placed, L)
        del placed
        spec *= power
        out = np.fft.irfft(spec, L)
        del spec
        dense = counts[cls + N % M :: M]
        got = out[: len(dense)]
        np.rint(got, out=dense)
        gap = np.abs(np.subtract(got, dense, out=got), out=got).max()
        if gap > 1e-5:
            raise ArithmeticError(f"convolution failed to resolve to integers "
                                  f"(class {cls} mod {M}, gap {gap:.3g})")
    counts += 0.0  # -0.0 + 0.0 = 0.0: no count is a negative zero
    return counts


# -- the decomposition ------------------------------------------------------


@dataclass(frozen=True, eq=False)
class Decomposition:
    bohr: BohrSet
    z: float
    G_val: Fraction
    V_val: Fraction
    ell: np.ndarray = field(repr=False)        # ascending, where f * rho > 0 in [-N, 2N]
    conv: np.ndarray = field(repr=False)       # (f * rho) on ell, so f* = G conv
    h1_violations: list[str]

    @property
    def subset(self) -> PrimeSubset:
        return self.bohr.cover.report.subset

    @property
    def N(self) -> int:
        return self.subset.N

    @property
    def M(self) -> int:
        return self.bohr.M

    @property
    def A(self) -> float:
        return self.bohr.cover.report.A

    @property
    def f(self) -> np.ndarray:
        """The prime indicator on ell, a new array at every read."""
        f = np.zeros(len(self.ell))
        f[np.searchsorted(self.ell, self.subset.members)] = 1.0
        return f

    @property
    def vlog(self) -> float:
        return float(self.V_val) * math.log(self.N)

    @property
    def f_flat(self) -> np.ndarray:
        """V(z0) log N (f * rho) on ell, a new array at every read."""
        return self.vlog * self.conv

    @property
    def f_sharp(self) -> np.ndarray:
        """f - (f * rho) on ell, a new array at every read."""
        return self.f - self.conv

    @property
    def metrics(self) -> dict:
        """The decompose report's metrics, built afresh from the stage.  f
        and f_flat vanish off ell, so the identity residual is taken there
        alone, and max f_flat is V(z0) log N max(f * rho): rounding is
        monotone."""
        vlog, eps = self.vlog, self.bohr.cover.eps
        f, conv = self.f, self.conv
        flat = vlog * conv
        return dict(
            h1_violations=self.h1_violations,
            bohr_size=self.bohr.size,
            cover_size=len(self.bohr.cover.points),
            eps=eps,
            identity_residual=float(np.max(np.abs(flat / vlog + (f - conv) - f))),
            f_flat_max=float(vlog * conv.max()),
            f_flat_bound=2.0 * (1.0 + eps) ** 2,
            # tail of f* beyond N, i.e. the gap between the full-support
            # transform and one truncated at N, measured at alpha = 0
            truncation_gap_at_zero=float(self.G_val) * float(conv[self.ell > self.N].sum()),
            # the guaranteed regime needs log z0 of this size; hopeless, but shown
            guaranteed_log_z0=25000.0 * self.A ** 3 * math.log(2.0 * self.A) ** 2 * self.subset.K
                              - math.log(eps),
        )

    # perfbench/tracer.py wraps these two by name, so they stay methods
    def transform_sharp(self, alpha: float) -> complex:
        return self.transforms(alpha)[0]

    def transform_star(self, alpha: float) -> complex:
        return self.transforms(alpha)[1]

    def transforms(self, alpha):
        """(S(f_sharp, alpha), S(f*, alpha), T*(alpha)) from one set of
        terms at ell (every prime lies in it); at a 1-D array of alphas,
        the list of those triples, the alphas shared out to the exp_sum
        workers."""
        G = float(self.G_val)
        f, conv = self.f, self.conv
        sums = exp_sum(self.ell, alpha, np.stack((f - conv, conv, f)))
        sums = sums.reshape(-1, 3).tolist()
        triples = [(sharp, G * star, primes) for sharp, star, primes in sums]
        return triples[0] if np.ndim(alpha) == 0 else triples


def decompose(ctx: PrimeContext, subset: PrimeSubset, z0, M: int, A: float,
              z=None) -> Decomposition:
    """Build the full decomposition at the given desk-scale parameters:
    spectrum, A-cusp report, cover, Bohr set, then f_flat and f_sharp.

    M must be >= 1.  z defaults to sqrt(N/(M z0)) and may not be below it
    (the sieve window must reach the complement of the primes) nor below
    z0, nor past the prime table; all of it is checked before any spectrum
    work.  Hypothesis (H1) violations on M are reported in the metrics, not
    fatal."""
    if M < 1:
        raise ValueError(f"M={M} must be >= 1")
    N = subset.N
    zmin = math.sqrt(N / (M * z0))
    if z is None:
        z = zmin
    elif z < zmin - 1e-9:
        raise ValueError(f"z={z} is below sqrt(N/(M z0)) = {zmin:.6g}")
    if z < z0:
        raise ValueError(f"z={z} must be >= z0={z0}")
    if math.floor(z) > ctx.limit:
        raise CapacityError(f"z={z} exceeds prime table limit {ctx.limit}")
    cover = build_cover(find_cusps(spectrum(subset, A), A))
    bohr = build_bohr(cover, M)

    G = g_sifted(ctx, 1, z, z0)
    V = ctx.mertens_product(z0)

    counts = _triple_counts(bohr)
    ell = np.flatnonzero(counts)
    conv = counts[ell]
    conv /= float(bohr.size) ** 2
    ell -= N
    return Decomposition(bohr, float(z), G, V, ell, conv, check_h1(ctx, M, z0))


def transform_checks(dec: Decomposition, seed: int) -> list[CheckRow]:
    """Re-verify the three transform identities.

    S(f*, a/M) = G T*(a/M) exactly (the Bohr phases collapse), its gap
    taken relative to G T*(0), the scale of the terms' float error, since
    T*(a/M) itself may vanish; at random alpha, S(f_sharp, alpha) =
    T*(alpha)(1 - |S_M(alpha)/|B||^2); and the non-negativity and support
    constraints on f_flat.  Each alpha takes S(f_sharp), S(f*) and T* from
    one set of terms, and all M + N_ALPHA alphas from one batched call; the
    Bohr sums S_M at the random alphas come from one batched exp_sum."""
    rows = []
    T0 = float(dec.subset.size)
    G = float(dec.G_val)

    rng = np.random.default_rng(seed)
    alphas = rng.random(N_ALPHA)
    sums = dec.transforms(np.concatenate(([a / dec.M for a in range(dec.M)], alphas)))

    worst = 0.0
    for _, lhs, t in sums[: dec.M]:
        worst = max(worst, abs(lhs - G * t) / (G * T0))
    rows.append(leq_row("transform-at-M-fractions", {"M": dec.M},
                        worst, 1e-6, note="relative gap of S(f*, a/M) vs G T*(a/M)"))

    worst = 0.0
    excess_sharp = 0.0  # |S(f_sharp)| - |T*| must stay <= 0
    excess_flat = 0.0
    vlog = dec.vlog
    bohr = (exp_sum(dec.bohr.elements, alphas) / dec.bohr.size).tolist()
    for sm, (lhs, star, t) in zip(bohr, sums[dec.M :]):
        worst = max(worst, abs(lhs - t * (1.0 - abs(sm) ** 2)))
        excess_sharp = max(excess_sharp, abs(lhs) - abs(t))
        flat = vlog * (star / float(dec.G_val))
        excess_flat = max(excess_flat, abs(flat) - abs(t) * vlog)
    rows.append(leq_row("transform-sharp-product", {"n_alpha": N_ALPHA},
                        worst, 1e-6 * T0,
                        note="S(f_sharp, alpha) vs T*(alpha)(1 - |S_M/|B||^2)"))
    rows.append(leq_row("sharp-dominated", {"n_alpha": N_ALPHA},
                        excess_sharp, 1e-6 * T0,
                        note="|S(f_sharp, alpha)| <= |T*(alpha)|"))
    rows.append(leq_row("flat-dominated", {"n_alpha": N_ALPHA},
                        excess_flat, 1e-6 * T0,
                        note="|S(f_flat, alpha)| <= |T*(alpha)| V log N"))

    f_flat = dec.f_flat
    coprime_ok = bool((np.gcd(dec.ell[f_flat > FLOAT_SLACK], dec.M) == 1).all())
    # f_flat vanishes off ell, and ell never holds -N (p + b1 - b2 > -N), so
    # f_flat is 0.0 at -N and its minimum over [-N, 2N] is at most 0.0
    nonneg = min(0.0, float(f_flat.min()))
    ok = coprime_ok and nonneg >= -FLOAT_SLACK
    rows.append(CheckRow("flat-support", {"M": dec.M}, None, None, nonneg,
                         "pass" if ok else "fail",
                         "f_flat >= 0 and vanishes off gcd(ell, M) = 1"))
    return rows


def sharp_sup_report(dec: Decomposition, grid_size: int = 1 << 20) -> dict:
    """Measured sup over a dense grid of |S(f_sharp, alpha)| / T*(0),
    reported against 1/A (the regime where 1/A is guaranteed needs an
    astronomically large z0, so this is a record, not an assertion).  The
    grid is swept block by block, and each residue's maximum is taken on
    its worker, so only one number a residue is kept.  The sweep takes
    f_sharp where it is nonzero, at ell + N in [0, 3N]: the shift turns
    each sum by a unit factor, which leaves |S| as it is."""
    def peak(j, sums, mirror):
        top = float(np.abs(sums).max())
        if mirror and mirror[1] is not sums:  # else the same magnitudes
            top = max(top, float(np.abs(mirror[1]).max()))
        return top

    sharp = dec.f_sharp
    at = sharp != 0.0
    sup = max(grid_blocks(dec.ell[at] + dec.N, sharp[at], 3 * dec.N + 1, grid_size)(peak))
    T0 = float(dec.subset.size)
    return {
        "sup_ratio": sup / T0,
        "target": 1.0 / dec.A,
        "achieved": sup / T0 < 1.0 / dec.A,
        "grid": grid_size,
    }


def cusp_suppression_report(dec: Decomposition, seed: int) -> list[CheckRow]:
    """At every cover point y (and at the eps/N boundary beside it) the
    normalized Bohr sum must sit within 7 eps (resp. 14 eps) of 1; the
    elementary phase bound |e(u) - 1| <= 2 pi ||u|| is fuzzed alongside."""
    rows = []
    cover = dec.bohr.cover
    eps = cover.eps
    B = dec.bohr.size
    pts = cover.points
    # edges[:, i] = y_i -+ eps/N
    edges = np.stack(((pts - eps / dec.N) % 1.0, (pts + eps / dec.N) % 1.0))
    gaps = np.abs(exp_sum(dec.bohr.elements, np.concatenate((pts, edges.ravel()))) / B - 1.0)
    worst_center = float(gaps[: len(pts)].max(initial=0.0))
    worst_edge = float(gaps[len(pts):].max(initial=0.0))
    stride = max(1, len(pts) // 32)  # the transform record is a subsample
    ratios = [abs(sharp) / dec.subset.size
              for sharp, _, _ in dec.transforms(edges[:, ::stride].T.ravel())]
    rows.append(leq_row("bohr-sum-at-cover", {"points": len(pts)},
                        worst_center, 7.0 * eps,
                        note="|S_M(y)/|B| - 1| at the cover points"))
    rows.append(leq_row("bohr-sum-at-cover-edge", {"points": len(pts)},
                        worst_edge, 14.0 * eps,
                        note="same at alpha = y +- eps/N (doubled envelope)"))
    sup = max(ratios) if ratios else 0.0
    rows.append(CheckRow("sharp-at-cover", {"A": dec.A}, sup, 1.0 / dec.A, None,
                         "pass",
                         f"measured |S(f_sharp)|/T*(0) near cover points, max {sup:.4g} "
                         f"vs target 1/A = {1.0 / dec.A:.4g} (report only)"))

    rng = np.random.default_rng(seed)
    us = rng.uniform(-3.0, 3.0, N_FUZZ)
    lhs = np.abs(np.exp(2j * np.pi * us) - 1.0)
    fr = us % 1.0
    norm = np.minimum(fr, 1.0 - fr)
    margin = float(np.min(2.0 * np.pi * norm - lhs))
    rows.append(CheckRow("phase-distance", {"n": N_FUZZ}, None, None, margin,
                         "pass" if margin >= -FLOAT_SLACK else "fail",
                         "|e(u) - 1| <= 2 pi ||u|| on fuzzed u"))
    return rows


def cover_consistency_row(cover: Cover) -> CheckRow:
    """Every well-spaced cusp of the cover's report must lie within
    1/Nprime (plus refinement slack) of some cover point."""
    report = cover.report
    pts = cover.points
    worst = 0.0
    for wp in report.wellspaced:
        d = np.min(np.minimum((pts - wp.position) % 1.0,
                              (wp.position - pts) % 1.0)) if len(pts) else math.inf
        worst = max(worst, d)
    tol = 1.0 / cover.Nprime + ENDPOINT_RESOLUTION / report.subset.N
    return exact_leq_row("cover-of-cusps",
                         {"cusp_points": len(report.wellspaced), "cover_points": len(pts)},
                         worst, tol, "max distance from a well-spaced cusp to the cover")


def decomposition_csv(dec: Decomposition) -> str:
    """Rows n = 1..N of f, f_flat and f_sharp, 0 off ell."""
    inside = (dec.ell >= 1) & (dec.ell <= dec.N)
    cols = np.zeros((3, dec.N + 1))
    cols[:, dec.ell[inside]] = np.stack((dec.f, dec.f_flat, dec.f_sharp))[:, inside]
    f, flat, sharp = cols
    lines = ["n,f,f_flat,f_sharp"] + [f"{n},{f[n]:.0f},{flat[n]:.12g},{sharp[n]:.12g}"
                                      for n in range(1, dec.N + 1)]
    return "\n".join(lines) + "\n"
