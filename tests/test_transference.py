"""Cover, Bohr set, autocorrelation, and the decomposition identities.

The cheap working configuration is (N=10^4, z0=3, M=2, A=1): two covered
cusps, a full Bohr set, instant decomposition.  The acceptance gate runs
the heavier (10^5, 3, 2, 4) instance.
"""
import math

import numpy as np
import pytest

from primecusps import transference
from primecusps.arith import CapacityError
from primecusps.cusps import find_cusps
from primecusps.expsums import exp_sum, exp_sum_at, spectrum, subset_full
from primecusps.transference import (
    COVER_SAMPLER_CHECKS,
    BohrSet,
    Cover,
    bohr_size_row,
    build_bohr,
    build_cover,
    check_h1,
    cover_consistency_row,
    cover_sampler_row,
    cusp_suppression_report,
    decompose,
    decomposition_csv,
    sharp_sup_report,
    transform_checks,
    _convolve,
    _difference_counts,
    _integer_convolve,
)


@pytest.fixture(scope="module")
def dec1(ctx):
    return decompose(ctx, subset_full(ctx, 10_000), 3, 2, 1)


def test_cover_basics(ctx):
    subset = subset_full(ctx, 10_000)
    report = find_cusps(spectrum(subset, 4), 4)
    cover = build_cover(subset, report)
    assert cover.Nprime == 240 * 4 * 10_000
    assert cover.eps == 1.0 / 960.0
    assert 0.0 in cover.points
    row = cover_consistency_row(cover, report)
    assert row.status == "pass"


def _direct_cover(subset, report, A):
    """The cover with every interval sample taken by exp_sum_at."""
    Nprime = int(round(240 * A * subset.N))
    candidates = {}
    for arc in report.arcs:
        lo = int(math.floor(arc.lo * Nprime))
        for k in range(lo, lo + int(math.ceil(arc.length * Nprime)) + 2):
            candidates.setdefault(k % Nprime, [])
        k = int(math.floor(arc.peak.position * Nprime)) % Nprime
        candidates.setdefault(k, []).append(arc.peak.position)
    for pt in report.wellspaced:
        k = int(math.floor(pt.position * Nprime)) % Nprime
        candidates.setdefault(k, []).append(pt.position)
    points = []
    for a in sorted(candidates):
        samples = [a / Nprime + (s + 0.5) / 3 / Nprime for s in range(3)]
        samples += candidates[a]
        vals = [abs(exp_sum_at(subset, x % 1.0)) for x in samples]
        best = int(np.argmax(vals))
        if vals[best] >= subset.size / A:
            points.append(samples[best] % 1.0)
    return tuple(sorted(points))


@pytest.mark.parametrize("A", [1, 2, 4])
def test_cover_matches_direct_reference(ctx, A):
    subset = subset_full(ctx, 10_000)
    report = find_cusps(spectrum(subset, A), A)
    cover = build_cover(subset, report)
    assert cover.points == _direct_cover(subset, report, A)


def test_cover_falls_back_to_direct_sums(ctx, monkeypatch):
    # a cover the evaluator cannot take (int64 capacity) is summed directly
    subset = subset_full(ctx, 10_000)
    report = find_cusps(spectrum(subset, 2), 2)
    refused = []

    def capped(sub, j0, step, Q, ks):
        refused.append(len(ks))
        raise CapacityError("test cap")

    monkeypatch.setattr(transference, "exp_sums_on_progression", capped)
    cover = build_cover(subset, report)
    assert len(refused) == 1 and refused[0] > 0
    assert cover.points == _direct_cover(subset, report, 2)


def test_cover_sampler_row(ctx):
    subset = subset_full(ctx, 10_000)
    report = find_cusps(spectrum(subset, 2), 2)
    cover = build_cover(subset, report)
    row = cover_sampler_row(subset, cover, report, seed=3)
    assert row.lemma == "cover-sampler-vs-direct"
    assert row.params["samples"] == COVER_SAMPLER_CHECKS == 64
    assert row.status == "pass" and row.margin == row.rhs - row.lhs > 0


def test_cover_points_are_cusps(ctx):
    subset = subset_full(ctx, 10_000)
    cover = build_cover(subset, find_cusps(spectrum(subset, 4), 4))
    thr = subset.size / 4.0
    for y in cover.points[:: max(1, len(cover.points) // 50)]:
        assert abs(exp_sum_at(subset, y)) >= thr - 1e-6 * subset.size


def test_bohr_trivial_frequency(ctx):
    cover = Cover(1.0, 10_000, 2_400_000, 1.0 / 240, (0.0,))
    bohr = build_bohr(cover, 2, 10_000)
    assert bohr.size == 5000
    assert bohr.elements[0] == 2 and bohr.elements[-1] == 10_000
    # a wide eps makes every constraint vacuous
    wide = Cover(1.0, 10_000, 2_400_000, 0.5, (0.0, 0.37, 0.61))
    assert build_bohr(wide, 4, 10_000).size == 2500


def test_bohr_empty_is_domain_error(ctx):
    subset = subset_full(ctx, 10_000)
    cover = build_cover(subset, find_cusps(spectrum(subset, 4), 4))
    with pytest.raises(ValueError, match="empty Bohr set"):
        build_bohr(cover, 2, 10_000)
    with pytest.raises(ValueError, match="empty Bohr set"):
        decompose(ctx, subset, 3, 2, 4)


def test_h1_gate(ctx):
    assert check_h1(ctx, 2, 3) == []
    assert check_h1(ctx, 6, 5) == []
    bad = check_h1(ctx, 10, 3)
    assert any("prime 5" in v for v in bad)
    assert check_h1(ctx, 3, 3)  # primorial(3)=2 does not divide 3


def test_z_parameter_guard(ctx):
    subset = subset_full(ctx, 10_000)
    with pytest.raises(ValueError, match="below"):
        decompose(ctx, subset, 3, 2, 1, z=20.0)


def test_z_below_z0_fails_before_the_spectrum(ctx, monkeypatch):
    # sqrt(N/(M z0)) = 10 at z0 = 50, so z = 20 passes that guard only
    def no_spectrum(*args):
        raise AssertionError("spectrum computed before the z guards")

    monkeypatch.setattr(transference, "spectrum", no_spectrum)
    subset = subset_full(ctx, 10_000)
    for z in (None, 20.0):
        with pytest.raises(ValueError, match="must be >= z0=50"):
            decompose(ctx, subset, 50, 2, 1, z=z)


def test_decomposition_keeps_its_chain(dec1):
    # the report and cover decompose built are the ones the checks read
    assert dec1.A == dec1.report.A == dec1.cover.A == 1.0
    assert dec1.report.N == dec1.cover.N == 10_000
    assert cover_consistency_row(dec1.cover, dec1.report).status == "pass"
    assert cover_sampler_row(dec1.subset, dec1.cover, dec1.report, 0).status == "pass"


def test_rho_properties(dec1):
    bohr = dec1.bohr
    counts = _difference_counts(bohr, 10_000)
    # counts[N + m] / |B|^2 is the probability rho at m, on [-N, N]
    assert counts.sum() == bohr.size ** 2
    assert counts[10_000] == bohr.size
    assert np.array_equal(counts, counts[::-1])
    assert not counts[1::2].any()  # odd differences of even elements


def test_triple_counts_are_exact(dec1):
    # |B|^2 (f * rho)(ell) = #{(p, b1, b2) : p + b1 - b2 = ell}, in integers
    N, bohr = 10_000, dec1.bohr
    counts = _integer_convolve(dec1.subset.indicator(), _difference_counts(bohr, N))
    assert counts.shape == (3 * N + 1,)
    assert np.array_equal(counts, np.rint(counts))
    assert counts.sum() == dec1.subset.size * bohr.size ** 2
    ell = np.arange(3 * N + 1) - N
    assert not counts[np.gcd(ell, dec1.M) > 1].any()
    assert np.array_equal(dec1.conv, counts / float(bohr.size) ** 2)
    # a convolution that is not integer-valued is refused, not rounded
    with pytest.raises(ArithmeticError, match="integers"):
        _integer_convolve(np.array([0.5, 1.0]), np.ones(2))


def test_convolution_beyond_memory_is_capacity_error():
    # zero-stride views of 2^38 entries: refused before any FFT buffer exists
    huge = np.broadcast_to(np.zeros(1), (1 << 38,))
    with pytest.raises(CapacityError, match="physical memory"):
        _convolve(huge, huge)


def test_difference_counts_brute_force():
    elements = np.array([2, 4, 8, 14, 20], dtype=np.int64)
    small = BohrSet(2, 0.1, (0.0,), elements)
    counts = _difference_counts(small, 20)
    # brute force over ordered pairs
    brute = np.zeros(41)
    for a in elements:
        for b in elements:
            brute[a - b + 20] += 1
    assert np.array_equal(counts, brute)
    assert counts[20] == 5
    big = BohrSet(2, 0.1, (0.0,),
                  np.arange(2, 6001, 2, dtype=np.int64))
    cts = _difference_counts(big, 6000)
    assert cts[6000] == 3000           # m = 0
    assert cts[6000 + 2] == 2999       # m = 2
    assert cts[6000 + 5999] == 0       # odd gap impossible


def test_bohr_sum_identity(dec1):
    bohr = dec1.bohr
    counts = _difference_counts(bohr, 10_000)
    B2 = bohr.size ** 2
    for alpha in (0.0, 0.123, 0.5, 0.987):
        s_rho = sum(float(counts[10_000 + m]) / B2 *
                    np.exp(2j * np.pi * alpha * m)
                    for m in range(-10_000, 10_001, 2))
        expected = abs(exp_sum(bohr.elements, alpha)) ** 2 / B2
        assert abs(s_rho - expected) < 1e-6


def test_decomposition_identities(ctx, dec1):
    assert dec1.metrics["identity_residual"] <= 1e-9
    assert dec1.metrics["h1_violations"] == []
    rows = transform_checks(dec1, 1)
    assert all(r.status == "pass" for r in rows)
    assert bohr_size_row(dec1.bohr, 10_000).status == "pass"



def test_transforms_match_direct_sums(dec1):
    # the supported dot products equal the full sums over [-N, 2N]
    ell = np.arange(len(dec1.f)) - dec1.offset
    for alpha in (0.0, 0.123, 0.5, 0.987):
        sharp, star = dec1.transforms(alpha)
        assert (sharp, star) == (dec1.transform_sharp(alpha),
                                 dec1.transform_star(alpha))
        phases = np.exp(2j * np.pi * alpha * ell)
        assert abs(sharp - np.dot(dec1.f_sharp, phases)) <= 1e-9 * dec1.subset.size
        star_full = float(dec1.G_val) * np.dot(dec1.conv, phases)
        assert abs(star - star_full) <= 1e-9 * dec1.subset.size

def test_f_star_support(ctx, dec1):
    # f* = G conv vanishes off gcd(ell, M) = 1 and is non-negative
    idx = np.flatnonzero(dec1.conv)
    assert all(math.gcd(int(i - dec1.offset), 2) == 1 for i in idx)
    assert dec1.conv.min() >= 0.0


def test_suppression_report(ctx, dec1):
    rows = cusp_suppression_report(dec1, 7)
    assert {r.lemma for r in rows} == {
        "bohr-sum-at-cover", "bohr-sum-at-cover-edge", "sharp-at-cover",
        "phase-distance"}
    assert all(r.status == "pass" for r in rows)


def test_sharp_sup_report(dec1):
    sup = sharp_sup_report(dec1, 1 << 16)
    assert 0.0 < sup["sup_ratio"] <= 1.0 + 1e-9
    assert sup["target"] == 1.0


def test_sharp_sup_on_a_grid_below_the_support(dec1):
    # the support [-N, 2N] has 30001 points, far more than the 1024 samples
    assert len(dec1.f_sharp) == 30_001
    sup = sharp_sup_report(dec1, 1024)
    direct = max(abs(dec1.transform_sharp(j / 1024)) for j in range(1024))
    assert abs(sup["sup_ratio"] - direct / dec1.subset.size) <= 1e-9


def test_csv_export(dec1):
    text = decomposition_csv(dec1)
    lines = text.strip().split("\n")
    assert lines[0] == "n,f,f_flat,f_sharp"
    assert len(lines) == 10_001
    n, f, fflat, fsharp = lines[7].split(",")
    assert n == "7"
    recon = float(fflat) / (float(dec1.V_val) * math.log(10_000)) + \
        float(fsharp)
    assert recon == pytest.approx(float(f), abs=1e-6)
