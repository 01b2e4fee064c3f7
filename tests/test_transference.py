"""Cover, Bohr set, autocorrelation, and the decomposition identities.

The cheap working configuration is (N=10^4, z0=3, M=2, A=1): two covered
cusps, a full Bohr set, instant decomposition.  The acceptance gate runs
the heavier (10^5, 3, 2, 4) instance.
"""
import math
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from primecusps import expsums, transference
from primecusps.arith import CapacityError
from primecusps.cusps import CuspReport, find_cusps
from primecusps.expsums import PrimeSubset, exp_sum, exp_sum_at, spectrum, subset_full
from primecusps.transference import (
    COVER_SAMPLER_CHECKS,
    INTERVAL_SAMPLES,
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
    _triple_counts,
)


def _cover(N, eps, points, members=None):
    """A cover of the given points at Bohr radius eps (A = 1/(240 eps)),
    over a stub report of a hand-made subset of [0, N], {N} unless members
    are given, that sampled no intervals."""
    members = np.array([N]) if members is None else members
    report = CuspReport(PrimeSubset(N, members, "stub"), 1.0 / (240.0 * eps), (), ())
    return Cover(report, points, np.empty(0, dtype=np.int64),
                 np.empty((0, INTERVAL_SAMPLES)))


@pytest.fixture(scope="module")
def dec1(ctx):
    return decompose(ctx, subset_full(ctx, 10_000), 3, 2, 1)


def test_cover_basics(ctx):
    subset = subset_full(ctx, 10_000)
    report = find_cusps(spectrum(subset, 4), 4)
    cover = build_cover(report)
    assert cover.Nprime == 240 * 4 * 10_000
    assert cover.eps == 1.0 / 960.0
    assert 0.0 in cover.points
    row = cover_consistency_row(cover)
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
    cover = build_cover(report)
    assert cover.points == _direct_cover(subset, report, A)


def test_cover_beyond_memory_is_capacity_error(ctx, monkeypatch):
    # the cover's moment rows, 8 bytes a member for each of MOMENT_ORDER
    # rows, are checked against physical memory before they are built
    subset = subset_full(ctx, 10_000)
    report = find_cusps(spectrum(subset, 2), 2)
    need = 8 * expsums.MOMENT_ORDER * subset.size
    monkeypatch.setattr(expsums, "_physical_memory", lambda: need - 1)
    with pytest.raises(CapacityError, match="moment rows"):
        build_cover(report)


def test_cover_sampler_row(ctx):
    subset = subset_full(ctx, 10_000)
    report = find_cusps(spectrum(subset, 2), 2)
    cover = build_cover(report)
    # the row re-checks the samples the cover kept, not a second evaluation
    assert list(cover.intervals) == sorted(
        transference._cover_candidates(report, cover.Nprime))
    assert np.array_equal(cover.samples, np.abs(transference._interval_samples(
        subset, cover.intervals, cover.Nprime)))
    row = cover_sampler_row(cover, seed=3)
    assert row.lemma == "cover-sampler-vs-direct"
    assert row.params["samples"] == COVER_SAMPLER_CHECKS == 64
    assert row.status == "pass" and row.margin == row.rhs - row.lhs > 0


def test_cover_points_are_cusps(ctx):
    subset = subset_full(ctx, 10_000)
    cover = build_cover(find_cusps(spectrum(subset, 4), 4))
    thr = subset.size / 4.0
    for y in cover.points[:: max(1, len(cover.points) // 50)]:
        assert abs(exp_sum_at(subset, y)) >= thr - 1e-6 * subset.size


def test_bohr_trivial_frequency(ctx):
    cover = _cover(10_000, 1.0 / 240, (0.0,))
    bohr = build_bohr(cover, 2)
    assert bohr.size == 5000
    assert bohr.elements[0] == 2 and bohr.elements[-1] == 10_000
    # a wide eps makes every constraint vacuous
    wide = _cover(10_000, 0.5, (0.0, 0.37, 0.61))
    assert build_bohr(wide, 4).size == 2500


def _blocked_bohr(cover, M, N):
    """The Bohr set by 64-frequency blocks over every multiple at once, the
    enumeration the survivor sieve replaced: the reference for it."""
    freqs = list(cover.frequencies(M))
    ks = np.arange(1, N // M + 1, dtype=np.int64)
    for i in range(0, len(freqs), 64):
        ys = np.array(freqs[i : i + 64])
        fr = (ks[None, :] * ys[:, None]) % 1.0
        ks = ks[(np.minimum(fr, 1.0 - fr) <= cover.eps).all(axis=0)]
    return ks * M


def _synthetic_cover(rng, N, M, count, eps=0.01):
    """count cover points whose reductions mod M sit within 2e-6 of
    multiples of 1/8 (a few of them exact): the Bohr set keeps multiples of
    8 M up to a cut where the largest offset reaches eps."""
    freqs = rng.integers(0, 8, count) / 8 + rng.uniform(-2e-6, 2e-6, count)
    freqs[:5] = np.arange(5) / 8
    return _cover(N, eps, tuple((freqs % 1.0 / M).tolist()))


@pytest.mark.parametrize("M", [1, 2, 6])
def test_bohr_sieve_matches_blocked_enumeration(M):
    rng = np.random.default_rng(40 + M)
    N = 60_000
    near_eighths = _synthetic_cover(rng, N, M, 1200)
    # at eps just below 1/2 each frequency removes about 0.2 % of what is
    # left, so the first few hundred passes test one frequency each
    wide = _cover(N, 0.499, tuple((rng.random(1200) / M).tolist()))
    for cover in (near_eighths, wide):
        bohr = build_bohr(cover, M)
        assert len(cover.frequencies(M)) >= 1000 and bohr.size > 0
        assert np.array_equal(bohr.elements, _blocked_bohr(cover, M, N))
    # frequencies spread over the circle leave nothing
    spread = _cover(N, 0.01, tuple(rng.random(1200).tolist()))
    assert len(_blocked_bohr(spread, M, N)) == 0
    with pytest.raises(ValueError, match="empty Bohr set"):
        build_bohr(spread, M)


def test_bohr_sieve_memory_is_linear_in_the_multiples():
    # the first pass holds one frequency against all N/M multiples; 64 rows
    # of them at once traced about 77 MB at this size
    N, M = 100_000, 2
    cover = _synthetic_cover(np.random.default_rng(45), N, M, 1200)
    tracemalloc.start()
    try:
        bohr = build_bohr(cover, M)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(cover.frequencies(M)) >= 1000 and bohr.size > 0
    assert peak <= 16 * 8 * (N // M), peak


def test_bohr_empty_is_domain_error(ctx):
    subset = subset_full(ctx, 10_000)
    cover = build_cover(find_cusps(spectrum(subset, 4), 4))
    with pytest.raises(ValueError, match="empty Bohr set"):
        build_bohr(cover, 2)
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
    cover = dec1.bohr.cover
    assert dec1.A == cover.report.A == 1.0
    assert cover.report.subset.N == 10_000
    assert cover_consistency_row(cover).status == "pass"
    assert cover_sampler_row(cover, 0).status == "pass"


def test_each_stage_holds_the_stage_it_was_built_from(ctx, monkeypatch):
    # the chain decompose builds is held, not copied, and every value read
    # through it is bitwise its defining formula
    built = {}

    def keep(fn):
        def kept(*args):
            built[fn.__name__] = out = fn(*args)
            return out
        return kept

    for name in ("find_cusps", "build_cover", "build_bohr"):
        monkeypatch.setattr(transference, name, keep(getattr(transference, name)))
    A, N, M = 1.0, 10_000, 2
    subset = subset_full(ctx, N)
    dec = decompose(ctx, subset, 3, M, A)
    report, cover, bohr = built["find_cusps"], built["build_cover"], built["build_bohr"]
    assert report.subset is subset and cover.report is report
    assert bohr.cover is cover and dec.bohr is bohr
    assert report.threshold == float(subset.size) / A
    assert report.bound == 19.0 * A * A * subset.K * math.log(2.0 * A)
    assert cover.Nprime == int(round(240 * A * N))
    assert cover.eps == 1.0 / (240.0 * A)
    assert cover.frequencies(M) == tuple(
        y for y in sorted({(M * y) % 1.0 for y in cover.points}) if y != 0.0)
    # f is the prime indicator of [-N, 2N] on the support of f * rho, which
    # holds every prime
    f, conv = _dense(dec)
    assert np.array_equal(dec.ell, np.flatnonzero(conv) - N)
    assert np.array_equal(dec.f, f[dec.ell + N])
    assert dec.f.sum() == subset.size


@pytest.fixture(scope="module")
def difference_counts(dec1):
    """|B|^2 rho: #{(b1, b2) : b1 - b2 = m} at m + N, m in [-N, N], exact
    int64 by direct summation."""
    ind = np.zeros(dec1.N + 1, dtype=np.int64)
    ind[dec1.bohr.elements] = 1
    return np.convolve(ind, ind[::-1])


def test_rho_properties(dec1, difference_counts):
    counts, B = difference_counts, dec1.bohr.size
    assert counts.shape == (2 * dec1.N + 1,)
    assert counts.sum() == B ** 2
    assert counts[dec1.N] == B
    assert np.array_equal(counts, counts[::-1])
    assert not counts[1::2].any()  # odd differences of even elements


def test_bohr_sum_identity(dec1, difference_counts):
    # S(rho, alpha) = |S_B(alpha)|^2 / |B|^2
    counts, B = difference_counts, dec1.bohr.size
    m = np.arange(-dec1.N, dec1.N + 1, 2)
    for alpha in (0.0, 0.123, 0.5, 0.987):
        s_rho = np.dot(counts[m + dec1.N] / B ** 2, np.exp(2j * np.pi * alpha * m))
        assert abs(s_rho - abs(exp_sum(dec1.bohr.elements, alpha)) ** 2 / B ** 2) < 1e-6


def _reference_counts(subset, elements):
    """#{(p, b1, b2) : p + b1 - b2 = ell} at ell + N, ell in [-N, 2N], exact
    int64 by direct summation."""
    f = np.zeros(subset.N + 1, dtype=np.int64)
    f[subset.members] = 1
    ind = np.zeros(subset.N + 1, dtype=np.int64)
    ind[elements] = 1
    return np.convolve(f, np.convolve(ind, ind[::-1]))


def _assert_on_support(dec, reference):
    """dec holds the support of the dense counts over [-N, 2N] and f * rho
    on it, bitwise the counts divided by |B|^2; -N is never in it, since
    p + b1 - b2 > -N."""
    N, B = dec.N, dec.bohr.size
    assert dec.ell.tobytes() == (np.flatnonzero(reference) - N).tobytes()
    assert dec.conv.tobytes() == (reference[dec.ell + N] / float(B) ** 2).tobytes()
    assert dec.ell[0] > -N


def test_triple_counts_are_exact(dec1):
    # |B|^2 (f * rho)(ell) = #{(p, b1, b2) : p + b1 - b2 = ell}, in integers
    N, B = dec1.N, dec1.bohr.size
    reference = _reference_counts(dec1.subset, dec1.bohr.elements)
    assert reference.shape == (3 * N + 1,)
    _assert_on_support(dec1, reference)
    assert reference.sum() == dec1.subset.size * B ** 2
    ell = np.arange(3 * N + 1) - N
    assert not reference[np.gcd(ell, dec1.M) > 1].any()


@pytest.mark.parametrize("z0, M, bohr_size, classes", [(7, 30, 2, 8), (5, 6, 11, 2)],
                         ids=["M=30", "M=6"])
def test_triple_counts_are_exact_over_classes(ctx, z0, M, bohr_size, classes):
    # several classes of primes mod M, each its own convolution, against the
    # direct count; the empty classes stay 0.0
    dec = decompose(ctx, subset_full(ctx, 20_000), z0, M, 2)
    assert dec.bohr.size == bohr_size
    assert len(np.unique(dec.subset.members % M)) == classes
    _assert_on_support(dec, _reference_counts(dec.subset, dec.bohr.elements))
    flat_support = [r for r in transform_checks(dec, 1) if r.lemma == "flat-support"]
    assert [(r.margin, r.status) for r in flat_support] == [(0.0, "pass")]


@pytest.mark.parametrize("N", [100, 102, 131])
def test_triple_counts_with_empty_classes(N):
    # stub members in the classes 1, 3, 4 and 5 mod 6, none in 0 and 2; at
    # N = 100 the dense array starts its classes at N mod M = 4, not 0, and
    # at N = 131 class 1 takes 3K + 2 = 65 dense entries while 3K + 1 = 64
    # is a power of two, so the length must exceed 3K + 1
    cover = _cover(N, 0.1, (0.0,), np.array([3, 7, 13, 19, 29, 53, 83, 97, 100]))
    elements = np.array([6, 18, 24, 60, 96], dtype=np.int64)
    counts = _triple_counts(BohrSet(cover, 6, elements))
    reference = _reference_counts(cover.report.subset, elements)
    assert counts.tobytes() == reference.astype(float).tobytes()
    ell = np.arange(3 * N + 1) - N
    assert reference[ell % 6 == 1].any() and not reference[ell % 6 == 2].any()
    with pytest.raises(ValueError, match="multiple of M=6"):
        _triple_counts(BohrSet(cover, 6, np.array([6, 9], dtype=np.int64)))


def test_triple_counts_recounted_without_ffts(dec1):
    # the pair sums p + b1 tallied directly, then summed over b2 at seeded ell
    N, elements = dec1.N, dec1.bohr.elements
    pairs = np.bincount(np.add.outer(dec1.subset.members, elements).ravel(),
                        minlength=2 * N + 1)
    ells = np.random.default_rng(64).integers(-N, 2 * N + 1, 64)
    sums = ells[:, None] + elements
    inside = (sums >= 0) & (sums <= 2 * N)
    recount = np.where(inside, pairs[np.clip(sums, 0, 2 * N)], 0).sum(axis=1)
    assert recount.any()
    dense = np.zeros(3 * N + 1)
    dense[dec1.ell + N] = dec1.conv
    assert np.array_equal(dense[ells + N], recount / float(len(elements)) ** 2)


def test_difference_counts_brute_force():
    # over the stub subset {N}, counts[2N + m] = #{(b1, b2) : b1 - b2 = m}
    elements = np.array([2, 4, 8, 14, 20], dtype=np.int64)
    counts = _triple_counts(BohrSet(_cover(20, 0.1, (0.0,)), 2, elements))
    # brute force over ordered pairs
    brute = np.zeros(41)
    for a in elements:
        for b in elements:
            brute[a - b + 20] += 1
    assert counts.shape == (61,) and not counts[:20].any()
    assert np.array_equal(counts[20:], brute)
    assert counts[40] == 5
    big = BohrSet(_cover(6000, 0.1, (0.0,)), 2, np.arange(2, 6001, 2, dtype=np.int64))
    cts = _triple_counts(big)
    assert cts[12_000] == 3000          # m = 0
    assert cts[12_000 + 2] == 2999      # m = 2
    assert cts[12_000 + 5999] == 0      # odd gap impossible


def test_convolution_beyond_memory_is_capacity_error():
    # N = 2^40 would need 2^46 bytes: refused before any of it is allocated
    bohr = BohrSet(_cover(1 << 40, 0.1, (0.0,)), 2, np.array([2], dtype=np.int64))
    tracemalloc.start()
    try:
        with pytest.raises(CapacityError, match="physical memory"):
            _triple_counts(bohr)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak


def test_convolution_counts_the_support_beside_the_dense_counts(dec1, monkeypatch):
    # the check counts the dense counts and 16 bytes for each of the 3N + 1
    # places the support of f * rho may take beside them, for ell and conv
    N, K = dec1.N, dec1.N // dec1.M
    L = 1 << (3 * K + 1).bit_length()
    half = 16 * (L // 2 + 1)
    need = 24 * (3 * N + 1) + half // 2 + 32 * dec1.subset.size + half + 8 * L
    monkeypatch.setattr(expsums, "_physical_memory", lambda: need - 1)
    with pytest.raises(CapacityError, match="physical memory"):
        _triple_counts(dec1.bohr)
    monkeypatch.setattr(expsums, "_physical_memory", lambda: need)
    assert _triple_counts(dec1.bohr).shape == (3 * N + 1,)


def test_triple_counts_off_the_integers_are_refused(dec1, monkeypatch):
    # a transform that is not integer-valued is refused, not rounded
    irfft = np.fft.irfft
    monkeypatch.setattr(np.fft, "irfft", lambda spec, n: irfft(spec, n) + 0.25)
    with pytest.raises(ArithmeticError, match="integers"):
        _triple_counts(dec1.bohr)


def test_decomposition_identities(ctx, dec1):
    assert dec1.metrics["identity_residual"] <= 1e-9
    assert dec1.metrics["h1_violations"] == []
    rows = transform_checks(dec1, 1)
    assert all(r.status == "pass" for r in rows)
    assert bohr_size_row(dec1.bohr).status == "pass"


def _dense(dec):
    """f and f * rho over [-N, 2N] at ell + N, from the direct counts."""
    f = np.zeros(3 * dec.N + 1)
    f[dec.subset.members + dec.N] = 1.0
    reference = _reference_counts(dec.subset, dec.bohr.elements)
    return f, reference / float(dec.bohr.size) ** 2


def test_metrics_match_the_dense_arrays(ctx, dec1):
    # the metrics read f * rho on its support alone; the dense f_flat over
    # [-N, 2N] gives the same numbers bit for bit, and the same tail of f*
    # past N within float rounding.  The odd primes of subset_full put a
    # cusp at 1/2, so their Bohr sets hold even b only and p + b1 - b2 is
    # odd; with the prime 2 as a member, 1/2 stays below T*(0) at A = 1,
    # the Bohr set at M = 1 is all of [1, N] and the support takes both
    # parities
    N = 10_000
    both = decompose(ctx, PrimeSubset(N, ctx.primes_between(2, N), "all primes"), 2, 1, 1)
    assert {0, 1} <= set((both.ell % 2).tolist())
    for dec in (dec1, both):
        f, conv = _dense(dec)
        flat = dec.vlog * conv
        metrics = dec.metrics
        assert metrics["f_flat_max"] == float(flat.max())
        assert metrics["identity_residual"] == float(
            np.max(np.abs(flat / dec.vlog + (f - conv) - f)))
        tail = float(dec.G_val) * float(conv[2 * N + 1 :].sum())
        assert metrics["truncation_gap_at_zero"] == pytest.approx(tail, rel=1e-14)
        assert np.isin(dec.subset.members, dec.ell).all()


def test_transform_at_M_fractions_where_T_star_vanishes(ctx):
    # as many primes = 1 as = 3 mod 4 in [sqrt(N), N]: T*(1/4) is float
    # noise, so the gap of S(f*, 1/4) to G T*(1/4) is read against G T*(0)
    subset = subset_full(ctx, 26_681)
    assert np.sum(subset.members % 4 == 1) == np.sum(subset.members % 4 == 3)
    assert abs(exp_sum_at(subset, 0.25)) <= 1e-9 * subset.size
    row = transform_checks(decompose(ctx, subset, 3, 4, 2), 1)[0]
    assert row.lemma == "transform-at-M-fractions"
    assert row.status == "pass" and row.lhs <= 1e-12, row.lhs


def test_transforms_match_direct_sums(dec1):
    # the supported dot products equal the full sums over [-N, 2N]
    ell = np.arange(3 * dec1.N + 1) - dec1.N
    f, conv = _dense(dec1)
    for alpha in (0.0, 0.123, 0.5, 0.987):
        sharp, star, _ = dec1.transforms(alpha)
        assert (sharp, star) == (dec1.transform_sharp(alpha),
                                 dec1.transform_star(alpha))
        phases = np.exp(2j * np.pi * alpha * ell)
        assert abs(sharp - np.dot(f - conv, phases)) <= 1e-9 * dec1.subset.size
        star_full = float(dec1.G_val) * np.dot(conv, phases)
        assert abs(star - star_full) <= 1e-9 * dec1.subset.size


def test_transforms_over_many_alphas_match_one_at_a_time(dec1):
    alphas = np.random.default_rng(9).random(37)
    assert dec1.transforms(alphas) == [dec1.transforms(a) for a in alphas.tolist()]
    assert dec1.transforms(np.empty(0)) == []


def test_transform_checks_from_two_threads(dec1):
    # both callers share the exp_sum workers
    serial = transform_checks(dec1, 1)
    with ThreadPoolExecutor(2) as pool:
        runs = [pool.submit(transform_checks, dec1, 1) for _ in range(2)]
        assert [run.result(timeout=120) for run in runs] == [serial, serial]


def test_transforms_carry_the_prime_sum(dec1):
    # T* rides on the phases of f_sharp and f*: every prime is in their support
    size = dec1.subset.size
    for alpha in (0.0, 0.123, 0.5, 0.987, 1 / dec1.M):
        _, _, t = dec1.transforms(alpha)
        assert abs(t - exp_sum_at(dec1.subset, alpha)) <= 1e-12 * size, alpha

def test_f_star_support(ctx, dec1):
    # f* = G conv vanishes off gcd(ell, M) = 1 and is non-negative: the
    # dense counts are zero off ell, and conv is positive on it
    _, conv = _dense(dec1)
    assert not np.delete(conv, dec1.ell + dec1.N).any()
    assert all(math.gcd(int(i), 2) == 1 for i in dec1.ell)
    assert dec1.conv.min() > 0.0
    # f_flat's minimum over [-N, 2N] is the 0.0 at -N, off ell
    flat_support = [r for r in transform_checks(dec1, 1) if r.lemma == "flat-support"]
    assert [(r.margin, r.status) for r in flat_support] == [(0.0, "pass")]


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


def test_sharp_sup_on_a_grid_below_the_support(dec1, monkeypatch):
    # f_sharp spans [-N, 2N], 30001 places, far more than the 1024 samples;
    # the sweep takes its nonzero values at ell + N over that length, the
    # points and weights of the dense f_sharp
    f, conv = _dense(dec1)
    dense = f - conv
    swept = []
    blocks = transference.grid_blocks
    monkeypatch.setattr(transference, "grid_blocks",
                        lambda *args: swept.append(args) or blocks(*args))
    sup = sharp_sup_report(dec1, 1024)
    (points, weights, length, G), = swept
    assert np.array_equal(points, np.flatnonzero(dense))
    assert weights.tobytes() == dense[points].tobytes()
    assert (length, G) == (30_001, 1024)
    direct = max(abs(dec1.transform_sharp(j / 1024)) for j in range(1024))
    assert abs(sup["sup_ratio"] - direct / dec1.subset.size) <= 1e-9


def test_derived_arrays_are_bitwise_those_of_f_and_conv(dec1):
    # on ell, bitwise the dense arrays at ell + N
    vlog = float(dec1.V_val) * math.log(dec1.N)
    f, conv = _dense(dec1)
    at = dec1.ell + dec1.N
    assert len(dec1.f) == len(dec1.f_flat) == len(dec1.f_sharp) == len(dec1.ell)
    assert np.array_equal(dec1.f, f[at])
    assert np.array_equal(dec1.f_flat, (vlog * conv)[at])
    assert np.array_equal(dec1.f_sharp, (f - conv)[at])


def test_csv_matches_the_dense_arrays(dec1):
    # bitwise the CSV of the dense f, f_flat and f_sharp at n = 1..N
    f, conv = _dense(dec1)
    N, flat, sharp = dec1.N, dec1.vlog * conv, f - conv
    lines = ["n,f,f_flat,f_sharp"] + [
        f"{n},{f[n + N]:.0f},{flat[n + N]:.12g},{sharp[n + N]:.12g}" for n in range(1, N + 1)]
    assert decomposition_csv(dec1) == "\n".join(lines) + "\n"


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
