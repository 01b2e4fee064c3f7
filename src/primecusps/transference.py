"""Transference: cover of the cusp set, Bohr set, and the decomposition

    f = f_flat / (V(z0) log N) + f_sharp

of the prime indicator, where f_flat = V(z0) log N (f * rho) is sieve-dense
and non-negative and S(f_sharp, alpha) = T*(alpha) (1 - |S_M(alpha)/|B||^2)
is small at every covered cusp.  All three arrays live on the full
convolution support [-N, 2N]; the transform identities are re-verified
numerically rather than assumed.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .arith import CapacityError, PrimeContext
from .cusps import REEVAL_TOL, CuspReport, find_cusps
from .expsums import (PrimeSubset, exp_sum, exp_sum_at, exp_sums_on_progression,
                      grid_blocks, require_memory, spectrum)
from .gfunctions import g_sifted
from .report import CheckRow, FLOAT_SLACK, exact_leq_row, leq_row

#: samples per cover interval when hunting the interval maximum
INTERVAL_SAMPLES = 3

#: chirp-z cover samples re-evaluated directly by cover_sampler_row
COVER_SAMPLER_CHECKS = 64

#: random alphas at which transform_checks re-verifies the f_sharp product
N_ALPHA = 1000

#: fuzzed phases u in the |e(u) - 1| <= 2 pi ||u|| check
N_FUZZ = 10_000


@dataclass(frozen=True)
class Cover:
    """Points y with |T*(y)| >= T*(0)/A, one per short interval, so that
    every A-cusp sits within 1/Nprime of some point."""
    A: float
    N: int
    Nprime: int
    eps: float
    points: tuple

    def reduced(self, M: int) -> tuple:
        return tuple(sorted({(M * y) % 1.0 for y in self.points}))


@dataclass(frozen=True)
class BohrSet:
    M: int
    eps: float
    frequencies: tuple
    elements: np.ndarray = field(repr=False)

    @property
    def size(self) -> int:
        return len(self.elements)


def _sample_position(a_idx: int, s: int, Nprime: int) -> float:
    """Sample s of cover interval a_idx: (a_idx + (s + 1/2)/S)/Nprime."""
    return a_idx / Nprime + (s + 0.5) / INTERVAL_SAMPLES / Nprime


def _cover_candidates(report: CuspReport, Nprime: int) -> dict[int, list[float]]:
    """Interval index -> extra positions (peaks, well-spaced cusps) for
    every interval meeting a detected arc or holding one of its points."""
    candidates: dict[int, list[float]] = {}

    def touch(a_idx: int, extra: float = None):
        bucket = candidates.setdefault(a_idx % Nprime, [])
        if extra is not None:
            bucket.append(extra)

    for arc in report.arcs:
        lo_idx = int(math.floor(arc.lo * Nprime))
        span = int(math.ceil(arc.length * Nprime)) + 1
        for k in range(lo_idx, lo_idx + span + 1):
            touch(k)
        touch(int(math.floor(arc.peak.position * Nprime)), arc.peak.position)
    for pt in report.wellspaced:
        touch(int(math.floor(pt.position * Nprime)), pt.position)
    return candidates


def _interval_samples(subset: PrimeSubset, idx, Nprime: int) -> np.ndarray:
    """T* at the INTERVAL_SAMPLES samples of each interval in the ascending
    index list idx, shape (len(idx), S).  Sample s of interval a is
    (2S a + 2s + 1)/(2S Nprime), term k = S a + s of one arithmetic
    progression with step 2, so the whole cover is one chirp-z call.  When
    its phases would overflow int64 there (N past ~5.7e7/sqrt(A)), every
    sample is summed directly instead."""
    S = INTERVAL_SAMPLES
    idx = np.asarray(idx, dtype=np.int64)
    ks = (S * idx[:, None] + np.arange(S)).ravel()
    try:
        samples = exp_sums_on_progression(subset, 1, 2, 2 * S * Nprime, ks)
    except CapacityError:
        samples = [exp_sum_at(subset, _sample_position(int(a), s, Nprime) % 1.0)
                   for a in idx for s in range(S)]
    return np.reshape(samples, (len(idx), S))


def build_cover(subset: PrimeSubset, report: CuspReport) -> Cover:
    """Select the interval representatives of the report's A-cusp set.

    The circle is cut into Nprime = 240 A N intervals.  Only intervals
    meeting a detected arc (or holding one of its peaks) can reach the
    threshold, so sampling is confined to those.  The INTERVAL_SAMPLES
    samples per interval come from one chirp-z evaluation for the whole
    cover; arc peaks and well-spaced points are evaluated directly.  Each
    kept interval contributes its maximizing sample.
    """
    A, N = report.A, report.N
    Nprime = int(round(240 * A * N))
    eps = 1.0 / (240.0 * A)
    T0 = float(subset.size)
    threshold = T0 / A

    candidates = _cover_candidates(report, Nprime)
    idx = sorted(candidates)
    points = []
    for a_idx, mags in zip(idx, np.abs(_interval_samples(subset, idx, Nprime))):
        s = int(np.argmax(mags))
        best, pos = mags[s], _sample_position(a_idx, s, Nprime)
        for x in candidates[a_idx]:
            val = abs(exp_sum_at(subset, x % 1.0))
            if val > best:
                best, pos = val, x
        if best >= threshold:
            points.append(pos % 1.0)
    return Cover(A, N, Nprime, eps, tuple(sorted(points)))


def cover_sampler_row(subset: PrimeSubset, cover: Cover, report: CuspReport,
                      seed: int) -> CheckRow:
    """Re-evaluate COVER_SAMPLER_CHECKS seeded chirp-z cover samples with
    the direct sum."""
    idx = sorted(_cover_candidates(report, cover.Nprime))
    zoom = np.abs(_interval_samples(subset, idx, cover.Nprime)).ravel()
    picks = np.random.default_rng(seed).choice(
        zoom.size, min(COVER_SAMPLER_CHECKS, zoom.size), replace=False)
    S = INTERVAL_SAMPLES
    worst = max(abs(zoom[k] - abs(exp_sum_at(
        subset, _sample_position(idx[k // S], k % S, cover.Nprime) % 1.0)))
        for k in picks)
    return leq_row("cover-sampler-vs-direct",
                   {"N": cover.N, "A": cover.A, "samples": len(picks)},
                   worst, REEVAL_TOL * float(subset.size),
                   note="max ||T*| chirp-z - |T*| direct| at seeded cover samples")


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


def build_bohr(cover: Cover, M: int, N: int) -> BohrSet:
    """Direct enumeration of {n <= N : M | n, ||y n|| <= eps for y in Xi}."""
    if M < 1:
        raise ValueError(f"M={M} must be >= 1")
    freqs = [y for y in cover.reduced(M) if y != 0.0]
    ks = np.arange(1, N // M + 1, dtype=np.int64)
    for i in range(0, len(freqs), 64):
        ys = np.array(freqs[i : i + 64])
        fr = (ks[None, :] * ys[:, None]) % 1.0
        ok = (np.minimum(fr, 1.0 - fr) <= cover.eps).all(axis=0)
        ks = ks[ok]  # survivors shrink fast, keeping later blocks cheap
        if len(ks) == 0:
            break
    elements = (ks * M).astype(np.int64)
    if len(elements) == 0:
        raise ValueError("empty Bohr set: decomposition impossible at these parameters")
    return BohrSet(M, cover.eps, freqs, elements)


def bohr_size_row(bohr: BohrSet, N: int) -> CheckRow:
    rhs = 0.5 * bohr.eps ** len(bohr.frequencies) * N / bohr.M
    return CheckRow("bohr-size", {"M": bohr.M, "eps": bohr.eps,
                                  "n_freq": len(bohr.frequencies)},
                    float(bohr.size), rhs, float(bohr.size - rhs),
                    "pass" if bohr.size >= rhs else "fail",
                    "|B| against (1/2) eps^|Xi_M| N/M")


def _convolve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Linear convolution of real a and b, in the first len(a) + len(b) - 1
    entries, by real FFTs of length 1 << (len(a) + len(b)).bit_length().
    Raises CapacityError first when they would not fit in physical memory."""
    L = 1 << (len(a) + len(b)).bit_length()
    # two half spectra, their product and the output: about 8 L bytes each
    require_memory(32 * L, f"a convolution of length {L}")
    return np.fft.irfft(np.fft.rfft(a, L) * np.fft.rfft(b, L), L)


def _integer_convolve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The linear convolution of integer-valued a and b, len(a) + len(b) - 1
    entries, by _convolve rounded to the integers it must equal.  Raises
    ArithmeticError when a rounding gap exceeds 1e-5."""
    out = _convolve(a, b)[: len(a) + len(b) - 1]
    rounded = np.rint(out)
    gap = np.abs(np.subtract(out, rounded, out=out), out=out).max()
    if gap > 1e-5:
        raise ArithmeticError(f"convolution failed to resolve to integers (gap {gap:.3g})")
    return rounded


def _difference_counts(bohr: BohrSet, N: int) -> np.ndarray:
    """counts[N + m] = #{(b1, b2) : b1 - b2 = m}, m in [-N, N]: the
    convolution of the indicator with its reverse."""
    ind = np.zeros(N + 1)
    ind[bohr.elements] = 1.0
    return _integer_convolve(ind, ind[::-1])


# -- the decomposition ------------------------------------------------------


@dataclass(frozen=True)
class Decomposition:
    subset: PrimeSubset
    report: CuspReport
    cover: Cover
    bohr: BohrSet
    z0: float
    z: float
    M: int
    G_val: Fraction
    V_val: Fraction
    offset: int
    f: np.ndarray = field(repr=False)
    conv: np.ndarray = field(repr=False)       # (f * rho), so f* = G conv
    f_flat: np.ndarray = field(repr=False)
    f_sharp: np.ndarray = field(repr=False)
    metrics: dict = field(default_factory=dict)
    # ell over the shared support of f_sharp and conv, and both parts on
    # it; the supports differ only where conv = f = 1 at a prime, and a
    # gather per call would cost ~10x the dot product
    _ell: np.ndarray = field(init=False, repr=False, compare=False)
    _sharp: np.ndarray = field(init=False, repr=False, compare=False)
    _star: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        support = np.flatnonzero((self.f_sharp != 0) | (self.conv != 0))
        object.__setattr__(self, "_ell", support - self.offset)
        object.__setattr__(self, "_sharp", self.f_sharp[support])
        object.__setattr__(self, "_star", self.conv[support])

    @property
    def N(self) -> int:
        return self.subset.N

    @property
    def A(self) -> float:
        return self.report.A

    def transform_sharp(self, alpha: float) -> complex:
        return self.transforms(alpha)[0]

    def transform_star(self, alpha: float) -> complex:
        return self.transforms(alpha)[1]

    def transforms(self, alpha: float) -> tuple[complex, complex]:
        """(S(f_sharp, alpha), S(f*, alpha)) from one phase vector over the
        shared support."""
        sharp, star = exp_sum(self._ell, alpha, self._sharp, self._star)
        return sharp, float(self.G_val) * star


def default_z(N: int, M: int, z0) -> float:
    return math.sqrt(N / (M * z0))


def decompose(ctx: PrimeContext, subset: PrimeSubset, z0, M: int, A: float,
              z=None) -> Decomposition:
    """Build the full decomposition at the given desk-scale parameters:
    spectrum, A-cusp report, cover, Bohr set, then f_flat and f_sharp.

    z defaults to sqrt(N/(M z0)) and may not be below it (the sieve window
    must reach the complement of the primes) nor below z0; both are checked
    before any spectrum work.  Hypothesis (H1) violations on M are reported
    in the metrics, not fatal."""
    N = subset.N
    zmin = default_z(N, M, z0)
    if z is None:
        z = zmin
    elif z < zmin - 1e-9:
        raise ValueError(f"z={z} is below sqrt(N/(M z0)) = {zmin:.6g}")
    if z < z0:
        raise ValueError(f"z={z} must be >= z0={z0}")
    report = find_cusps(spectrum(subset, A), A)
    cover = build_cover(subset, report)
    bohr = build_bohr(cover, M, N)

    G = g_sifted(ctx, 1, z, z0)
    V = ctx.mertens_product(z0)

    # counts carries m = j - N, so the linear convolution index k holds
    # ell = k - N; on the support [-N, 2N] it is the integer
    # |B|^2 (f * rho)(ell) = #{(p, b1, b2) : p + b1 - b2 = ell}
    counts = _difference_counts(bohr, N)
    conv = _integer_convolve(subset.indicator(), counts) / float(bohr.size) ** 2

    offset = N
    f = np.zeros(3 * N + 1)
    f[subset.members + offset] = 1.0
    vlog = float(V) * math.log(N)
    f_flat = vlog * conv
    f_sharp = f - conv

    dec = Decomposition(subset, report, cover, bohr, z0, float(z), M, G, V,
                        offset, f, conv, f_flat, f_sharp, {})
    # tail of f* beyond N, i.e. the gap between the full-support
    # transform and one truncated at N, measured at alpha = 0
    tail = float(G) * float(conv[N + offset + 1 :].sum())
    K = subset.K
    dec.metrics.update(
        h1_violations=check_h1(ctx, M, z0),
        bohr_size=bohr.size,
        cover_size=len(cover.points),
        eps=cover.eps,
        identity_residual=_identity_residual(dec, vlog),
        f_flat_max=float(f_flat.max()),
        f_flat_bound=2.0 * (1.0 + cover.eps) ** 2,
        truncation_gap_at_zero=tail,
        # the guaranteed regime needs log z0 of this size; hopeless, but shown
        guaranteed_log_z0=25000.0 * A ** 3 * math.log(2.0 * A) ** 2 * K
                          - math.log(cover.eps),
    )
    return dec


def _identity_residual(dec: Decomposition, vlog: float) -> float:
    recon = dec.f_flat / vlog + dec.f_sharp
    return float(np.max(np.abs(recon - dec.f)))


def transform_checks(dec: Decomposition, seed: int) -> list[CheckRow]:
    """Re-verify the three transform identities.

    S(f*, a/M) = G T*(a/M) exactly (the Bohr phases collapse); at random
    alpha, S(f_sharp, alpha) = T*(alpha)(1 - |S_M(alpha)/|B||^2); and the
    non-negativity and support constraints on f_flat."""
    rows = []
    subset = dec.subset
    T0 = float(subset.size)
    G = float(dec.G_val)

    worst = 0.0
    for a in range(dec.M):
        lhs = dec.transform_star(a / dec.M)
        rhs = G * exp_sum_at(subset, a / dec.M)
        worst = max(worst, abs(lhs - rhs) / abs(rhs))
    rows.append(leq_row("transform-at-M-fractions", {"M": dec.M},
                        worst, 1e-6, note="relative gap of S(f*, a/M) vs G T*(a/M)"))

    rng = np.random.default_rng(seed)
    alphas = rng.random(N_ALPHA)
    worst = 0.0
    excess_sharp = 0.0  # |S(f_sharp)| - |T*| must stay <= 0
    excess_flat = 0.0
    vlog = float(dec.V_val) * math.log(dec.N)
    for a in alphas:
        lhs, star = dec.transforms(a)
        t = exp_sum_at(subset, a)
        sm = exp_sum(dec.bohr.elements, a) / dec.bohr.size
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

    bad_support = np.flatnonzero(dec.f_flat > FLOAT_SLACK)
    coprime_ok = all(math.gcd(int(i - dec.offset), dec.M) == 1 for i in bad_support)
    nonneg = float(dec.f_flat.min())
    ok = coprime_ok and nonneg >= -FLOAT_SLACK
    rows.append(CheckRow("flat-support", {"M": dec.M}, None, None, nonneg,
                         "pass" if ok else "fail",
                         "f_flat >= 0 and vanishes off gcd(ell, M) = 1"))
    return rows


def sharp_sup_report(dec: Decomposition, grid_size: int = 1 << 20) -> dict:
    """Measured sup over a dense grid of |S(f_sharp, alpha)| / T*(0),
    reported against 1/A (the regime where 1/A is guaranteed needs an
    astronomically large z0, so this is a record, not an assertion).  The
    grid is swept block by block and only the running maximum is kept."""
    sup = max(float(np.abs(sums).max())
              for _, sums in grid_blocks(dec.f_sharp, grid_size, dec.offset))
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
    eps = dec.cover.eps
    B = dec.bohr.size
    worst_center = 0.0
    worst_edge = 0.0
    ratios = []
    pts = dec.cover.points
    stride = max(1, len(pts) // 32)  # the transform record is a subsample
    for i, y in enumerate(pts):
        gap = abs(exp_sum(dec.bohr.elements, y) / B - 1.0)
        worst_center = max(worst_center, gap)
        for side in (-1.0, 1.0):
            alpha = (y + side * eps / dec.N) % 1.0
            worst_edge = max(worst_edge, abs(exp_sum(dec.bohr.elements, alpha) / B - 1.0))
            if i % stride == 0:
                ratios.append(abs(dec.transform_sharp(alpha)) / dec.subset.size)
    rows.append(leq_row("bohr-sum-at-cover", {"points": len(dec.cover.points)},
                        worst_center, 7.0 * eps,
                        note="|S_M(y)/|B| - 1| at the cover points"))
    rows.append(leq_row("bohr-sum-at-cover-edge", {"points": len(dec.cover.points)},
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


def cover_consistency_row(cover: Cover, report: CuspReport) -> CheckRow:
    """Every well-spaced cusp must lie within 1/Nprime (plus refinement
    slack) of some cover point."""
    pts = np.array(cover.points)
    worst = 0.0
    for wp in report.wellspaced:
        d = np.min(np.minimum((pts - wp.position) % 1.0,
                              (wp.position - pts) % 1.0)) if len(pts) else math.inf
        worst = max(worst, d)
    tol = 1.0 / cover.Nprime + 1.0 / (1024.0 * cover.N)
    return exact_leq_row("cover-of-cusps",
                         {"cusp_points": len(report.wellspaced), "cover_points": len(pts)},
                         worst, tol, "max distance from a well-spaced cusp to the cover")


def decomposition_csv(dec: Decomposition) -> str:
    """Rows n = 1..N of f, f_flat and f_sharp."""
    lines = ["n,f,f_flat,f_sharp"]
    for n in range(1, dec.N + 1):
        i = n + dec.offset
        lines.append(f"{n},{dec.f[i]:.0f},{dec.f_flat[i]:.12g},{dec.f_sharp[i]:.12g}")
    return "\n".join(lines) + "\n"
