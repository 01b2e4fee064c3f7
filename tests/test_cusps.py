"""Cusp detection geometry and the large-sieve inequality checkers."""
import math
from fractions import Fraction

import numpy as np
import pytest

from primecusps import cusps, expsums
from primecusps.arith import WeightedPoint, build_context, circle_distance
from primecusps.cusps import (
    ENDPOINT_RESOLUTION,
    CuspArc,
    companion_search,
    farey_census_report,
    find_cusps,
    large_sieve_check,
    dilated_large_sieve_check,
    rational_cusps,
    rational_cusps_row,
    rational_points,
    rational_shift_check,
    structure_check,
    wq_weighted_sieve_report,
    _arc_membership,
    _check_spacing,
    _half_runs,
    _w_moment,
)
from primecusps.expsums import SpectrumGrid, exp_sum_at, spectrum, subset_full, subset_random
from primecusps.sieve import SieveParams, build_weights
from primecusps.verify import CUSP_GRID_A


@pytest.fixture(scope="module")
def full4(ctx):
    subset = subset_full(ctx, 10_000)
    grid = spectrum(subset, max(CUSP_GRID_A))
    return subset, grid, find_cusps(grid, 4)


def test_A_must_be_finite_and_at_least_one(full4):
    _, grid, _ = full4
    for A in (0.5, math.nan, math.inf):
        with pytest.raises(ValueError, match="A="):
            find_cusps(grid, A)


def test_arc_geometry(full4):
    subset, grid, report = full4
    assert report.threshold == pytest.approx(subset.size / 4)
    for arc in report.arcs:
        assert 0 <= arc.lo < 1 and 0 <= arc.hi < 1
        assert arc.contains(arc.peak.position, slack=1e-12)
        assert arc.peak.weight >= report.threshold - 1e-6 * subset.size
    # the main cusp at 0 is always present
    assert any(a.contains(0.0, slack=1e-9) for a in report.arcs)


def test_wellspaced_properties(full4):
    subset, grid, report = full4
    pts = report.wellspaced
    assert len(pts) <= report.bound
    assert report.count_ok
    delta = 1.0 / subset.N
    for i, p in enumerate(pts):
        assert p.weight >= report.threshold - 1e-6 * subset.size
        for q in pts[i + 1:]:
            assert circle_distance(p.position, q.position) >= delta


def test_count_bound_formula(full4):
    subset, grid, report = full4
    assert report.bound == pytest.approx(
        19 * 16 * subset.K * math.log(8.0))


def test_structure_rows(ctx, full4):
    subset, grid, report = full4
    row = structure_check(report)
    assert row.lemma == "cusp-symmetry" and row.status == "pass"


def test_symmetry_directly(full4):
    # -alpha and 1/2+alpha re-evaluations stay above threshold
    subset, grid, report = full4
    tol = 1e-6 * subset.size
    for p in report.wellspaced:
        for shifted in ((-p.position) % 1.0, (0.5 + p.position) % 1.0):
            assert abs(exp_sum_at(subset, shifted)) >= report.threshold - tol


def test_monotone_in_A(ctx, full4):
    subset, grid, _ = full4
    c2 = len(find_cusps(grid, 2).wellspaced)
    c8 = len(find_cusps(grid, 8).wellspaced)
    assert c2 <= c8


@pytest.mark.parametrize("N, A", [(10_000, 8), (100_000, 4)])
@pytest.mark.parametrize("random", [False, True])
def test_cusp_set_is_mirror_symmetric(ctx, N, A, random):
    # T*(-alpha) = conj T*(alpha): alpha is an A-cusp exactly when -alpha is
    subset = subset_random(ctx, N, 0.5, seed=42) if random else subset_full(ctx, N)
    report = find_cusps(spectrum(subset, A), A)
    for arc in report.arcs:
        lo, hi = (-arc.hi) % 1.0, (-arc.lo) % 1.0
        assert any(circle_distance(lo, b.lo) <= 1e-12 and circle_distance(hi, b.hi) <= 1e-12
                   for b in report.arcs), (arc.lo, arc.hi)
    for p in report.wellspaced:
        x = (-p.position) % 1.0
        assert any(circle_distance(x, q.position) <= 1e-12 and q.weight == pytest.approx(p.weight)
                   for q in report.wellspaced), p.position


@pytest.mark.parametrize("N, A, arcs, wellspaced", [
    (10_000, 8, 38, 42), (100_000, 4, 10, 10), (1_000_000, 4, 10, 10)])
def test_full_cusp_counts(ctx, N, A, arcs, wellspaced):
    big = ctx if N <= ctx.limit else build_context(N)
    report = find_cusps(spectrum(subset_full(big, N), A), A)
    assert (len(report.arcs), len(report.wellspaced)) == (arcs, wellspaced)


def test_runs_merge_across_zero():
    # the run through 0 (-3..3), a run inside the gap (6..8) and that run's
    # mirror (-8..-6) make one run, which is its own mirror around 0
    G, gap = 1000, 5
    absvals = np.zeros(G // 2 + 1)
    absvals[[0, 1, 2, 3, 6, 7, 8]] = 1.0
    runs = _half_runs(np.flatnonzero(absvals >= 0.5), gap)
    assert [list(r) for r in runs] == [[0, 1, 2, 3, 6, 7, 8]]
    assert 2 * runs[0][0] < gap and G - 2 * runs[0][-1] >= gap


@pytest.mark.parametrize("hole", [None, 10])
def test_all_above_threshold_is_one_arc(ctx, hole):
    # every sample above the threshold (or all but one, inside the 1/(4N)
    # merge gap): one run, its own mirror around 0 and around 1/2, i.e. the
    # whole circle
    subset = subset_full(ctx, 100)
    G = 1024  # merge gap G/(4N) = 2.56 samples
    values = np.full(G // 2 + 1, float(subset.size), dtype=complex)
    if hole is not None:
        values[hole] = 0.0
    report = find_cusps(SpectrumGrid(subset, G, values, np.arange(G // 2 + 1), 0.0), 2.0)
    assert [(arc.lo, arc.hi) for arc in report.arcs] == [(0.0, 1.0 - 1.0 / G)]


def test_threshold_below_the_floor_is_refused(full4):
    subset, _, _ = full4
    grid = spectrum(subset, 4)
    find_cusps(grid, 4)
    with pytest.raises(ValueError, match="floor"):
        find_cusps(grid, 8)


def test_arc_membership_matches_linear_scan(cusp_grid):
    rng = np.random.default_rng(7)
    for key, (subset, _, reports) in cusp_grid[0].items():
        slack = 4.0 * ENDPOINT_RESOLUTION / subset.N
        for A, report in reports.items():
            in_arcs = _arc_membership(report.arcs, slack)
            # the points structure_check asks about
            xs = [x for p in report.wellspaced
                  for x in ((-p.position) % 1.0, (0.5 + p.position) % 1.0)]
            # both edges of the arcs next to 0 and of 40 others, inside and
            # just past the slack
            n = len(report.arcs)
            picks = {0, 1, n - 2, n - 1, *rng.choice(n, min(n, 40), replace=False)}
            for arc in (report.arcs[i] for i in picks if 0 <= i < n):
                for end in (arc.lo, arc.hi):
                    xs += [(end + d) % 1.0 for d in (0.0, -slack, slack, -1.01 * slack,
                                                     1.01 * slack, -0.5 * slack)]
            xs += list(rng.random(200)) + [0.0, 0.5, np.nextafter(1.0, 0.0)]
            for x in xs:
                assert in_arcs(x) == any(arc.contains(x, slack) for arc in report.arcs), \
                    (key, A, x)


def test_rational_shift(ctx):
    subset = subset_full(ctx, 10_000)
    row = rational_shift_check(ctx, subset, 3)
    assert row.params == {"xi": 0.0, "q": 3, "A": 2.0, "subset": "full"}
    assert row.lhs == pytest.approx(602.0099666949058, rel=1e-12)
    assert row.rhs == 602.0 == subset.size / 2
    assert row.margin == pytest.approx(9.277985802147964e-06, abs=1e-12)
    assert row.status == "pass"
    assert row.note == "max over a mod* q of |T*(xi + a/q)| vs T*(0)/A"
    row4 = rational_shift_check(ctx, subset, 4)
    assert row4.params == {"xi": 0.0, "q": 4, "A": 2.0, "subset": "full"}
    assert row4.status == "not-applicable"
    assert row4.note == "q not squarefree"


def test_companions(ctx):
    subset = subset_full(ctx, 100_000)
    out = companion_search(subset, 0.0, 4.0, 2.0)
    assert out["ok"] and out["size"] > out["bound"]
    with pytest.raises(ValueError):
        companion_search(subset_full(ctx, 1000), 0.0, 4.0, 2.0)
    with pytest.raises(ValueError):
        companion_search(subset, 0.0, 1.5, 2.0)   # A below 2
    with pytest.raises(ValueError):
        companion_search(subset, 0.0, 4.0, 8.0)   # B above A
    with pytest.raises(ValueError, match="sqrt"):
        companion_search(subset, 0.0, 4.0, 3.0)   # B above sqrt(A)
    with pytest.raises(ValueError):
        companion_search(subset, 0.137, 4.0, 2.0)  # xi not a B-cusp


def test_spacing_guard():
    _check_spacing([0.1, 0.5, 0.9], 0.2)
    with pytest.raises(ValueError):
        _check_spacing([0.1, 0.15], 0.2)
    with pytest.raises(ValueError):
        _check_spacing([0.05, 0.97], 0.1)  # wraps around


def test_large_sieve_rows(ctx):
    subset = subset_full(ctx, 10_000)
    rng = np.random.default_rng(0)
    xs = [0.05, 0.3, 0.61, 0.93]
    u = rng.normal(size=subset.size) + 1j * rng.normal(size=subset.size)
    rows = large_sieve_check(xs, u, subset, np.ones(len(xs)))
    names = {r.lemma for r in rows}
    assert {"large-sieve-primal", "large-sieve-dual",
            "large-sieve-level-sets"} <= names
    assert all(r.status == "pass" for r in rows)


def test_w_moment_brute_force():
    rng = np.random.default_rng(5)
    u = rng.normal(size=60) + 1j * rng.normal(size=60)
    ns = np.arange(1, 61)
    for m in (1, 2, 3, 5, 8, 12, 97, 150):  # 97 and 150 exceed len(u)
        direct = 0.0
        for a in range(1, m + 1):
            if math.gcd(a, m) == 1:
                direct += abs(np.sum(u * np.exp(2j * np.pi * ns * a / m))) ** 2
        assert _w_moment(u, m) == pytest.approx(direct, rel=1e-9)


def test_dilated_sieve_closed_form():
    # constant u at Q1=Q2=1: W(1) = |sum u|^2 and the bound is N + 2 delta
    u = np.ones(50)
    row = dilated_large_sieve_check(u, 1, 1, 1)
    assert row.status == "pass"
    assert row.lhs == pytest.approx(2500.0)
    rng = np.random.default_rng(9)
    for _ in range(20):
        n = int(rng.integers(30, 200))
        u = rng.normal(size=n) + 1j * rng.normal(size=n)
        row = dilated_large_sieve_check(u, int(rng.integers(1, 5)),
                                        int(rng.integers(5, 25)), int(rng.integers(1, 4)))
        assert row.status == "pass"


def test_weighted_sieve_record_branch(ctx):
    u = np.ones(200)
    w = build_weights(ctx, SieveParams(2, 75, 1))
    rows = wq_weighted_sieve_report(ctx, w, u)
    assert rows[0].status == "not-applicable"
    assert "record only" in rows[0].note and "z0 >= 35" in rows[0].note
    # empty dilation window short-circuits before any measurement
    w_small = build_weights(ctx, SieveParams(3, 30, 1))
    rows2 = wq_weighted_sieve_report(ctx, w_small, u)
    assert rows2[0].status == "not-applicable"
    assert "z1" in rows2[0].note


def test_rational_points():
    # phi(q) <= A over squarefree q: A=1 admits q in {1, 2}, A=2 also 3 and 6,
    # A=4 also 5 and 10, the 14 points cusp-farey-census predicts at A=4
    assert rational_points(1) == [Fraction(0), Fraction(1, 2)]
    assert rational_points(2) == [Fraction(0), Fraction(1, 2), Fraction(1, 3), Fraction(2, 3),
                                  Fraction(1, 6), Fraction(5, 6)]
    assert [x.denominator for x in rational_points(4)] == [1, 2, 3, 3] + [5] * 4 + [6, 6] + [10] * 4
    # against a brute-force scan past the 2 A^2 cut, 2178 at A = 33: phi(q)
    # by counting, squarefreeness by trial squares
    phi = {q: sum(math.gcd(a, q) == 1 for a in range(q)) for q in range(1, 2400)}
    squarefree = [q for q in phi if all(q % (k * k) for k in range(2, math.isqrt(q) + 1))]
    for A in (1, 1.5, 2, 3.5, 4, 7.5, 8, 16, 33):
        brute = [Fraction(a, q) for q in squarefree if phi[q] <= A
                 for a in range(q) if math.gcd(a, q) == 1]
        assert rational_points(A) == brute, A
    # the sieve reaches 2 A^2 = 32768 at A = 128
    assert len(rational_points(128)) == 8290


def test_rational_cusps_match_direct_sums(ctx):
    # the bincount values are |T*(a/q)| as the direct sum gives it, and a
    # point is kept exactly when it clears T*(0)/A
    subset = subset_full(ctx, 10_000)
    for A in (2, 4, 8):
        kept = {p.position: p.weight for p in rational_cusps(subset, A)}
        for x in rational_points(A):
            direct = abs(exp_sum_at(subset, float(x)))
            if float(x) in kept:
                assert kept[float(x)] == pytest.approx(direct, rel=1e-12)
            else:
                assert direct < subset.size / A + 1e-9 * subset.size, (A, x)


def test_arcs_hold_the_rational_cusps_between_grid_samples(cusp_grid):
    # at N = 10^5, A = 2 every member is +-1 mod 6 and |T*(a/6)| =
    # |T*(a/3)| = 0.500003 T*(0) from the class counts alone, yet no sample
    # j/2^22 near them reaches T*(0)/2: the detector seeds those four arcs
    subset, _, reports = cusp_grid[0][("full", 100_000)]
    report = reports[2]
    for x in (1 / 6, 1 / 3, 2 / 3, 5 / 6):
        assert any(arc.contains(x, 0.0) for arc in report.arcs), x
        assert abs(exp_sum_at(subset, x)) >= report.threshold
    assert len(report.arcs) == 6
    assert rational_cusps_row(report).lhs == 0.0
    for (label, N), (subset, _, reports) in cusp_grid[0].items():
        for A, report in reports.items():
            row = rational_cusps_row(report)
            assert row.status == "pass" and row.params["points"] >= 2, (label, N, A)


def _scalar_bisect(subset, threshold, inside, outside, width):
    """The sequential bisection of an arc endpoint, one scalar call a step."""
    while circle_distance(inside, outside) > width:
        mid = (inside + outside) / 2.0
        if abs(exp_sum_at(subset, mid % 1.0)) >= threshold:
            inside = mid
        else:
            outside = mid
    return inside % 1.0


def _scalar_peak(subset, lo, hi, best, width):
    """The sequential golden section for a peak, one scalar call a step."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - (b - a) * invphi
    d = a + (b - a) * invphi
    fc = abs(exp_sum_at(subset, c % 1.0))
    fd = abs(exp_sum_at(subset, d % 1.0))
    while b - a > width:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - (b - a) * invphi
            fc = abs(exp_sum_at(subset, c % 1.0))
        else:
            a, c, fc = c, d, fd
            d = a + (b - a) * invphi
            fd = abs(exp_sum_at(subset, d % 1.0))
    x = (a + b) / 2.0
    value = abs(exp_sum_at(subset, x % 1.0))
    if best.weight > value:
        return best
    return WeightedPoint(x % 1.0, value)


def _finished(value):
    """A search that asks for nothing and returns value."""
    return value
    yield


def test_lockstep_refinement_matches_sequential_scalar_calls(cusp_grid, monkeypatch):
    # every criterion subset at N = 10^4 and each A, and the full subset at
    # N = 10^5, A = 2, whose seeds 1/6 and 1/3 are refined in phase 2: the
    # searches run in lockstep return exactly what the scalar steps return
    grids = cusp_grid[0]
    configs = [(key, A) for key in grids if key[1] == 10_000 for A in CUSP_GRID_A]
    configs.append((("full", 100_000), 2))
    for key, A in configs:
        subset, grid, reports = grids[key]
        with monkeypatch.context() as m:
            m.setattr(cusps, "_bisect_crossing",
                      lambda *args: _finished(_scalar_bisect(subset, *args)))
            m.setattr(cusps, "_peak", lambda *args: _finished(_scalar_peak(subset, *args)))
            expected = find_cusps(grid, A)
        assert reports[A].arcs == expected.arcs, (key, A)
        assert reports[A].wellspaced == expected.wellspaced, (key, A)


def test_refinement_takes_one_alpha_array_call_a_round(cusp_grid, monkeypatch):
    # 5 bisection steps from 1/G to 1/(1024 N) and 11 golden-section rounds
    # from 2/G: 11 array calls at N = 10^5, A = 4, where one scalar call a
    # step took 122
    _, grid, _ = cusp_grid[0][("full", 100_000)]
    shapes = []

    def counted(subset, alpha):
        shapes.append(np.shape(alpha))
        return exp_sum_at(subset, alpha)
    monkeypatch.setattr(cusps, "exp_sum_at", counted)
    find_cusps(grid, 4)
    assert len(shapes) <= 12, shapes
    assert all(len(shape) == 1 for shape in shapes), shapes
    assert sum(shape[0] for shape in shapes) == 122


@pytest.mark.parametrize("workers", [1, 3])
def test_refinement_is_the_same_on_any_worker_count(cusp_grid, monkeypatch, workers):
    _, grid, reports = cusp_grid[0][("full", 100_000)]
    monkeypatch.setattr(expsums, "WORKERS", workers)
    for A in (4, 16):
        report = find_cusps(grid, A)
        assert (report.arcs, report.wellspaced) == (reports[A].arcs, reports[A].wellspaced)


def test_farey_census(full4):
    subset, grid, report = full4
    row = farey_census_report(report)
    assert row.status == "pass" and row.rhs == 14.0
    assert row.note


def test_arc_contains_wraparound():
    arc = CuspArc(0.95, 0.05, WeightedPoint(0.99, 5.0))
    assert arc.contains(0.97, 0.0)
    assert arc.contains(0.03, 0.0)
    assert not arc.contains(0.5, 0.0)
    assert arc.length == pytest.approx(0.1)
