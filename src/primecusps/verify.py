"""Named verification suites over every inequality the package asserts.

Each suite returns CheckRow lists; a suite is clean when every row is a
pass or a gated not-applicable.  The CLI's verify command and the test
suite both run these, so a red row here is a red row everywhere.
"""
from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from .arith import PrimeContext, WeightedPoint, extract_well_spaced
from .report import CheckRow, exact_leq_row, leq_row
from . import cusps as cu
from . import expsums as ex
from . import sieve as sv
from . import transference as tr
from .gfunctions import explicit_estimate_report

#: criterion grid for the cusp suites
CUSP_GRID_A = (2, 4, 8, 16)

#: seeded trials of the primal and dual large sieve in suite_large_sieve
LARGE_SIEVE_TRIALS = 200


def _beta_grid_row(ctx, z0, z, tau, nmax) -> CheckRow:
    weights = sv.build_weights(ctx, sv.SieveParams(z0, z, tau))
    ns = list(range(1, nmax + 1))
    four = sv.beta_fourier_many(ctx, weights, ns)
    bad = sum(1 for n, fv in zip(ns, four)
              if sv.beta_direct(ctx, weights, n) != fv)
    return exact_leq_row("beta-fourier-equality",
                         {"z0": z0, "z": z, "tau": tau, "nmax": nmax}, bad, 0,
                         "exact rational agreement of the square and its expansion")


def _envelope_row(ctx, weights, pmax: int) -> CheckRow:
    z = float(weights.params.z)
    bad = 0
    for p in ctx.primes_between(math.floor(z) + 1, pmax):
        if sv.beta_direct(ctx, weights, int(p)) != 1:
            bad += 1
    return exact_leq_row("beta-envelope-primes", {"z": z, "pmax": pmax}, bad, 0,
                         "beta(p) = 1 above the sieving window")


def suite_sieve(ctx: PrimeContext, seed: int) -> list[CheckRow]:
    rows = []
    for z0, z, tau in ((2, 20, 1), (3, 30, 5), (5, 50, 7)):
        rows.append(_beta_grid_row(ctx, z0, z, tau, 200))
    w350 = sv.build_weights(ctx, sv.SieveParams(3, 50, 1))
    rows.append(_envelope_row(ctx, w350, 2000))
    rows.extend(sv.wq_bound_report(ctx, w350))
    for z0, z in ((29, 100), (37, 150)):
        weights = sv.build_weights(ctx, sv.SieveParams(z0, z, 1))
        rows.extend(sv.wq_bound_report(ctx, weights))
    rng = np.random.default_rng(seed)
    u = rng.normal(size=400) + 1j * rng.normal(size=400)
    w275 = sv.build_weights(ctx, sv.SieveParams(2, 75, 1))
    rows.extend(cu.wq_weighted_sieve_report(ctx, w275, u, len(u)))
    return rows


def _spaced_positions(rng, npts: int, delta: float) -> list[float]:
    pts = [WeightedPoint(x, 1.0) for x in rng.random(npts)]
    return [p.position for p in extract_well_spaced(pts, delta)]


def suite_large_sieve(ctx: PrimeContext, seed: int) -> list[CheckRow]:
    subset = ex.subset_full(ctx, 10_000)
    delta = 1.0 / subset.N
    worst: dict[str, CheckRow] = {}
    for t in range(LARGE_SIEVE_TRIALS):
        rng = np.random.default_rng(seed * 1000 + t)
        xs = _spaced_positions(rng, int(rng.integers(3, 40)), delta)
        u = rng.normal(size=subset.size) + 1j * rng.normal(size=subset.size)
        f = rng.normal(size=len(xs)) + 1j * rng.normal(size=len(xs))
        for row in cu.large_sieve_check(xs, u, subset, delta, f=f):
            cur = worst.get(row.lemma)
            if cur is None or row.margin < cur.margin:
                worst[row.lemma] = row
    rows = [replace(r, params={"trials": LARGE_SIEVE_TRIALS, **r.params},
                    note=f"worst of {LARGE_SIEVE_TRIALS} seeded trials")
            for r in worst.values()]

    worst_dil = None
    for t in range(100):
        rng = np.random.default_rng(seed * 77 + t)
        n = int(rng.integers(50, 400))
        u = rng.normal(size=n) + 1j * rng.normal(size=n)
        q1 = int(rng.integers(1, 8))
        q2 = q1 + int(rng.integers(1, 30))
        row = cu.dilated_large_sieve_check(u, n, q1, q2, int(rng.integers(1, 5)))
        if worst_dil is None or row.margin < worst_dil.margin:
            worst_dil = row
    rows.append(replace(worst_dil, note="worst of 100 seeded trials"))
    return rows


def _criterion_subsets(ctx, N: int):
    return (ex.subset_full(ctx, N), ex.subset_sqrt2(ctx, N),
            ex.subset_random(ctx, N, 0.5, seed=42))


def suite_cusps(ctx: PrimeContext) -> list[CheckRow]:
    """Cusp counts and structure over the criterion subsets.  The suite does
    not read --seed: its random subset is fixed at seed 42."""
    rows = []
    for N in (10_000, 100_000):
        for subset in _criterion_subsets(ctx, N):
            grid = ex.spectrum(subset, max(CUSP_GRID_A))
            for A in CUSP_GRID_A:
                rep = cu.find_cusps(grid, A)
                count = len(rep.wellspaced)
                rows.append(leq_row("cusp-count",
                                    {"subset": subset.label, "N": N, "A": A},
                                    float(count), rep.bound,
                                    note="well-spaced cusps vs 19 A^2 K log(2A)"))
                rows.extend(cu.structure_check(rep, subset))
                if A == 4:
                    rows.append(cu.farey_census_report(ctx, rep))
    full = ex.subset_full(ctx, 10_000)
    rows.append(cu.rational_shift_check(ctx, full, 0.0, 3, 2.0))
    rows.append(cu.rational_shift_check(ctx, full, 0.0, 4, 2.0))
    return rows


def suite_transference(ctx: PrimeContext, seed: int) -> list[CheckRow]:
    subset = ex.subset_full(ctx, 100_000)
    dec = tr.decompose(ctx, subset, 3, 2, 4)
    rows = [tr.cover_consistency_row(dec.cover, dec.report),
            tr.cover_sampler_row(subset, dec.cover, dec.report, seed),
            tr.bohr_size_row(dec.bohr, subset.N),
            leq_row("reconstruction-residual", {"N": subset.N},
                    dec.metrics["identity_residual"], 1e-9,
                    note="max |f - f_flat/(V log N) - f_sharp|")]
    rows.extend(tr.transform_checks(dec, seed + 1))
    rows.extend(tr.cusp_suppression_report(dec, seed + 2))
    sup = tr.sharp_sup_report(dec)
    rows.append(CheckRow("sharp-sup-ratio", {"A": dec.A, "grid": sup["grid"]},
                         sup["sup_ratio"], sup["target"], None, "pass",
                         f"measured sup |S(f_sharp)|/T*(0) = {sup['sup_ratio']:.4f} "
                         f"vs 1/A = {sup['target']:.4f} (report only)"))
    return rows


#: name -> suite(ctx, seed, zmax); only the g-function scan reads zmax
_SUITES = {
    "g-functions": lambda ctx, seed, zmax: explicit_estimate_report(ctx, zmax),
    "sieve": lambda ctx, seed, zmax: suite_sieve(ctx, seed),
    "large-sieve": lambda ctx, seed, zmax: suite_large_sieve(ctx, seed),
    "cusps": lambda ctx, seed, zmax: suite_cusps(ctx),
    "transference": lambda ctx, seed, zmax: suite_transference(ctx, seed),
}
SUITE_NAMES = tuple(_SUITES)


def run_suite(ctx: PrimeContext, name: str, seed: int, zmax: int,
              threads: int) -> list[CheckRow]:
    if name == "all":
        names = list(SUITE_NAMES)
        if threads > 1:
            from concurrent.futures import ThreadPoolExecutor
            with ThreadPoolExecutor(max_workers=threads) as pool:
                parts = list(pool.map(
                    lambda n: run_suite(ctx, n, seed, zmax, 1), names))
        else:
            parts = [run_suite(ctx, n, seed, zmax, 1) for n in names]
        return [row for part in parts for row in part]
    if name not in _SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from "
                         f"{', '.join(SUITE_NAMES)} or all")
    return _SUITES[name](ctx, seed, zmax)
