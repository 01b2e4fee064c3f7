"""Transference: cover of the cusp set, Bohr set, and the decomposition

    f = f_flat / (V(z0) log N) + f_sharp

of the prime indicator, where f_flat = V(z0) log N (f * rho) is sieve-dense
and non-negative and S(f_sharp, alpha) = T*(alpha) (1 - |S_M(alpha)/|B||^2)
is small at every covered cusp.  Each stage holds the stage it was built
from and only what it computes itself: a Cover its CuspReport, a BohrSet
its Cover, and a Decomposition its BohrSet and f * rho, on the full
convolution support [-N, 2N].  rho = 1_B * 1_{-B} / |B|^2 is never formed:
|B|^2 (f * rho) is one inverse FFT of F(f) |F(1_B)|^2, rounded to the
integer counts of p + b1 - b2.  f, f_flat and f_sharp are derived on every
read, and N, A, eps and Nprime are read through the chain.  The transform
identities are re-verified numerically rather than assumed.  Every
off-grid sum here, the transforms of f_sharp and f* with T* beside them
(their terms gathered from f and f * rho at each call), the Bohr sums S_M
and the moments behind the cover's samples, is one
expsums.exp_sum or exp_sum_at call over an array of alphas, shared out to
the workers; the measured supremum is a grid_blocks sweep, the cover's
samples are one exp_sums_on_progression call at T*((2k + 1)/Q), and its
arc peaks and well-spaced points keep the |T*| the cusp report measured.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .arith import CapacityError, PrimeContext, WeightedPoint
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
    every A-cusp of the report sits within 1/Nprime of some point.  A built
    cover keeps the ascending indices of the intervals it sampled and |T*|
    at their INTERVAL_SAMPLES samples, one row per interval."""
    report: CuspReport
    points: tuple
    intervals: np.ndarray = field(repr=False)
    samples: np.ndarray = field(repr=False)

    @property
    def Nprime(self) -> int:
        return _nprime(self.report)

    @property
    def eps(self) -> float:
        """1/(240 A), the Bohr radius."""
        return 1.0 / (240.0 * self.report.A)

    def frequencies(self, M: int) -> tuple:
        """The nonzero M y mod 1, ascending: the frequencies Xi of B_M(eps)."""
        return tuple(y for y in sorted({(M * y) % 1.0 for y in self.points}) if y != 0.0)


@dataclass(frozen=True, eq=False)
class BohrSet:
    """B_M(eps) over the cover's frequencies, as its ascending elements."""
    cover: Cover
    M: int
    elements: np.ndarray = field(repr=False)

    @property
    def size(self) -> int:
        return len(self.elements)


def _sample_position(a_idx: int, s: int, Nprime: int) -> float:
    """Sample s of cover interval a_idx: (a_idx + (s + 1/2)/S)/Nprime."""
    return a_idx / Nprime + (s + 0.5) / INTERVAL_SAMPLES / Nprime


def _cover_candidates(report: CuspReport, Nprime: int) -> dict[int, list[WeightedPoint]]:
    """Interval index -> extra points (peaks, well-spaced cusps, with |T*|
    as the report measured it) for every interval meeting a detected arc
    or holding one of its points."""
    candidates: dict[int, list[WeightedPoint]] = {}

    def touch(a_idx: int, extra: WeightedPoint = None):
        bucket = candidates.setdefault(a_idx % Nprime, [])
        if extra is not None:
            bucket.append(extra)

    for arc in report.arcs:
        lo_idx = int(math.floor(arc.lo * Nprime))
        span = int(math.ceil(arc.length * Nprime)) + 1
        for k in range(lo_idx, lo_idx + span + 1):
            touch(k)
        touch(int(math.floor(arc.peak.position * Nprime)), arc.peak)
    for pt in report.wellspaced:
        touch(int(math.floor(pt.position * Nprime)), pt)
    return candidates


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
    meeting a detected arc (or holding one of its peaks) can reach the
    threshold, so sampling is confined to those.  The INTERVAL_SAMPLES
    samples per interval come from one exp_sums_on_progression call for
    the whole cover; arc peaks and well-spaced points count at the |T*|
    the report measured for them.  Each kept interval contributes its
    maximizing sample.
    """
    subset, Nprime = report.subset, _nprime(report)
    candidates = _cover_candidates(report, Nprime)
    idx = np.array(sorted(candidates), dtype=np.int64)
    samples = np.abs(_interval_samples(subset, idx, Nprime))
    points = []
    for a_idx, mags in zip(idx.tolist(), samples):
        s = int(np.argmax(mags))
        best, pos = mags[s], _sample_position(a_idx, s, Nprime)
        for pt in candidates[a_idx]:
            if pt.weight > best:
                best, pos = pt.weight, pt.position
        if best >= report.threshold:
            points.append(pos % 1.0)
    return Cover(report, tuple(sorted(points)), idx, samples)


def cover_sampler_row(cover: Cover, seed: int) -> CheckRow:
    """Re-evaluate COVER_SAMPLER_CHECKS seeded samples the cover kept, from
    Taylor moments, with the direct sum, all in one exp_sum_at call."""
    zoom = cover.samples.ravel()
    picks = np.random.default_rng(seed).choice(
        zoom.size, min(COVER_SAMPLER_CHECKS, zoom.size), replace=False)
    S, subset = INTERVAL_SAMPLES, cover.report.subset
    direct = exp_sum_at(subset, np.mod([_sample_position(int(cover.intervals[k // S]),
                                                         k % S, cover.Nprime)
                                        for k in picks], 1.0))
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

    With the primes placed at p + N, the counts are the first 3N + 1
    entries of the inverse real FFT of F(1_P*) |F(1_B)|^2 at a length
    L > 3N, so nothing aliases, rounded to the integers they must equal.
    Raises CapacityError first when its arrays would not fit in physical
    memory, and ArithmeticError when a rounding gap exceeds 1e-5."""
    subset = bohr.cover.report.subset
    N = subset.N
    L = 1 << (3 * N + 2).bit_length()
    # the most held at once: the half spectrum beside the real output, or
    # beside |F(1_B)|^2 and the 2N + 1 shifted primes
    half = 16 * (L // 2 + 1)
    require_memory(half + max(8 * L, half // 2 + 8 * (2 * N + 1)),
                   f"a convolution of length {L}")
    power = np.abs(np.fft.rfft(np.bincount(bohr.elements, minlength=N + 1), L))
    spec = np.fft.rfft(np.pad(subset.indicator(), (N, 0)), L)
    spec *= np.square(power, out=power)
    del power
    counts = np.fft.irfft(spec, L)[: 3 * N + 1]
    del spec
    rounded = np.rint(counts)
    gap = np.abs(np.subtract(counts, rounded, out=counts), out=counts).max()
    if gap > 1e-5:
        raise ArithmeticError(f"convolution failed to resolve to integers (gap {gap:.3g})")
    rounded += 0.0  # -0.0 + 0.0 = 0.0: no count is a negative zero
    return rounded


# -- the decomposition ------------------------------------------------------


@dataclass(frozen=True, eq=False)
class Decomposition:
    bohr: BohrSet
    z: float
    G_val: Fraction
    V_val: Fraction
    conv: np.ndarray = field(repr=False)       # (f * rho) at ell + N, so f* = G conv
    h1_violations: list[str]

    @property
    def subset(self) -> PrimeSubset:
        return self.bohr.cover.report.subset

    @property
    def N(self) -> int:
        return self.subset.N

    @property
    def offset(self) -> int:
        """The index of ell = 0 in f, conv and the arrays made from them."""
        return self.subset.N

    @property
    def M(self) -> int:
        return self.bohr.M

    @property
    def A(self) -> float:
        return self.bohr.cover.report.A

    @property
    def f(self) -> np.ndarray:
        """The prime indicator at ell + N, a new array at every read."""
        return np.pad(self.subset.indicator(), self.N)

    @property
    def vlog(self) -> float:
        return float(self.V_val) * math.log(self.N)

    @property
    def f_flat(self) -> np.ndarray:
        """V(z0) log N (f * rho), a new array at every read."""
        return self.vlog * self.conv

    @property
    def f_sharp(self) -> np.ndarray:
        """f - (f * rho), a new array at every read."""
        return self.f - self.conv

    @property
    def metrics(self) -> dict:
        """The decompose report's metrics, built afresh from the stage.  f
        and f_flat vanish off the support of f * rho, which holds every
        prime (the term b1 = b2 counts p), so the identity residual is
        taken there alone, and max f_flat is V(z0) log N max(f * rho):
        rounding is monotone."""
        vlog, eps = self.vlog, self.bohr.cover.eps
        support = np.flatnonzero(self.conv)
        f, conv = self.f[support], self.conv[support]
        flat = vlog * conv
        return dict(
            h1_violations=self.h1_violations,
            bohr_size=self.bohr.size,
            cover_size=len(self.bohr.cover.points),
            eps=eps,
            identity_residual=float(np.max(np.abs(flat / vlog + (f - conv) - f))),
            f_flat_max=float(vlog * self.conv.max()),
            f_flat_bound=2.0 * (1.0 + eps) ** 2,
            # tail of f* beyond N, i.e. the gap between the full-support
            # transform and one truncated at N, measured at alpha = 0
            truncation_gap_at_zero=float(self.G_val) * float(self.conv[2 * self.N + 1 :].sum()),
            # the guaranteed regime needs log z0 of this size; hopeless, but shown
            guaranteed_log_z0=25000.0 * self.A ** 3 * math.log(2.0 * self.A) ** 2 * self.subset.K
                              - math.log(eps),
        )

    def transform_sharp(self, alpha: float) -> complex:
        return self.transforms(alpha)[0]

    def transform_star(self, alpha: float) -> complex:
        return self.transforms(alpha)[1]

    def transforms(self, alpha):
        """(S(f_sharp, alpha), S(f*, alpha), T*(alpha)) from one set of
        terms over the support of f * rho, gathered at each call (every
        prime lies in it); at a 1-D array of alphas, the list of those
        triples, the alphas shared out to the exp_sum workers."""
        G = float(self.G_val)
        support = np.flatnonzero(self.conv)
        f, conv = self.f[support], self.conv[support]
        sums = exp_sum(support - self.offset, alpha, np.stack((f - conv, conv, f)))
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

    conv = _triple_counts(bohr) / float(bohr.size) ** 2
    return Decomposition(bohr, float(z), G, V, conv, check_h1(ctx, M, z0))


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
    bad_support = np.flatnonzero(f_flat > FLOAT_SLACK)
    coprime_ok = bool((np.gcd(bad_support - dec.offset, dec.M) == 1).all())
    nonneg = float(f_flat.min())
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
    its worker, so only one number a residue is kept.  f_sharp is swept as
    it is indexed, from ell = -N: the shift turns each sum by a unit
    factor, which leaves |S| as it is."""
    def peak(j, sums, mirror):
        top = float(np.abs(sums).max())
        if mirror and mirror[1] is not sums:  # else the same magnitudes
            top = max(top, float(np.abs(mirror[1]).max()))
        return top

    sup = max(grid_blocks(dec.f_sharp, grid_size)(peak))
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
    pts = np.array(cover.points)
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
    pts = np.array(cover.points)
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
    """Rows n = 1..N of f, f_flat and f_sharp."""
    f, flat, sharp = dec.f, dec.f_flat, dec.f_sharp
    lines = ["n,f,f_flat,f_sharp"]
    for n in range(1, dec.N + 1):
        i = n + dec.offset
        lines.append(f"{n},{f[i]:.0f},{flat[i]:.12g},{sharp[i]:.12g}")
    return "\n".join(lines) + "\n"
