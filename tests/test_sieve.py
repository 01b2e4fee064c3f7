"""Enveloping-sieve weights: exact identities, envelope property, bounds."""
import dataclasses
import math
import os
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from primecusps.arith import CapacityError
from primecusps.gfunctions import g_sifted
from primecusps import sieve
from primecusps.sieve import (
    SieveParams,
    alpha_local,
    beta_array,
    beta_direct,
    beta_fourier,
    beta_fourier_many,
    beta_mean_value,
    build_weights,
    hardy_partial,
    lambda_table_csv,
    w_table_csv,
    wq_bound_report,
)


@pytest.fixture(scope="module")
def w350(ctx):
    return build_weights(ctx, SieveParams(3, 50, 1))


def test_lambda_normalization(ctx, w350):
    assert w350.lam[1] == 1
    assert w350.w[1] * w350.G_val == 1


def test_lambda_prime_formula(ctx, w350):
    # lambda_p from its defining quotient, reproduced independently
    z, z0 = Fraction(50), 3
    G = g_sifted(ctx, 1, z, z0)
    for p in (3, 7, 23, 47):
        expected = Fraction(-p, p - 1) * g_sifted(ctx, p, z / p, z0) / G
        assert w350.lam[p] == expected


def test_lambda_support(ctx, w350):
    for d in w350.lam:
        assert ctx.is_squarefree(d)
        assert d <= 50
        assert all(3 <= p <= 50 for p in ctx.prime_factors(d))
    for q in w350.w:
        assert q <= 2500
        assert ctx.is_squarefree(q)


def test_beta_envelope(ctx, w350):
    for p in ctx.primes_between(51, 3000):
        assert beta_direct(ctx, w350, int(p)) == 1
    for n in range(1, 400):
        assert beta_direct(ctx, w350, n) >= 0


def test_beta_exact_equality_sample(ctx):
    weights = build_weights(ctx, SieveParams(2, 20, 1))
    ns = list(range(1, 501))
    four = beta_fourier_many(ctx, weights, ns)
    for n, fv in zip(ns, four):
        assert beta_direct(ctx, weights, n) == fv
    assert beta_fourier(ctx, weights, 97) == four[96]


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 100_000))
def test_beta_equality_property(ctx, n):
    weights = build_weights(ctx, SieveParams(3, 30, 5))
    assert beta_direct(ctx, weights, n) == beta_fourier(ctx, weights, n)


def test_alpha_local_cross_check(ctx, w350):
    # alpha_local internally asserts the Ramanujan-expansion identity
    assert alpha_local(ctx, w350, 1) == 1
    for n in (2, 30, 97, 210, 1024):
        alpha_local(ctx, w350, n)


def _tampered(weights):
    lam = dict(weights.lam)
    lam[3] += 1
    return dataclasses.replace(weights, lam=lam)


def test_alpha_local_tamper_raises(ctx, w350):
    with pytest.raises(ArithmeticError, match="local weight mismatch at n=3"):
        alpha_local(ctx, _tampered(w350), 3)


def test_weight_normalization_guard(ctx, monkeypatch):
    real = sieve.g_bracket
    monkeypatch.setattr(sieve, "g_bracket", lambda *a: 2 * real(*a))
    with pytest.raises(ArithmeticError, match="not normalized"):
        build_weights(ctx, SieveParams(3, 30, 1))


def test_guards_survive_optimize():
    # the identity guards must not be asserts that python -O strips
    script = (
        "import dataclasses\n"
        "from primecusps.arith import build_context\n"
        "from primecusps.sieve import SieveParams, alpha_local, build_weights\n"
        "ctx = build_context(1000)\n"
        "w = build_weights(ctx, SieveParams(3, 30, 1))\n"
        "lam = dict(w.lam); lam[3] += 1\n"
        "try:\n"
        "    alpha_local(ctx, dataclasses.replace(w, lam=lam), 3)\n"
        "except ArithmeticError:\n"
        "    print('raised')\n")
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "raised"


def test_beta_array_matches_direct(ctx, w350):
    arr = beta_array(w350, 2000)
    for n in (1, 2, 53, 100, 541, 1999):
        assert arr[n] == pytest.approx(float(beta_direct(ctx, w350, n)),
                                       rel=1e-9)


def test_mean_value_approaches_w(ctx):
    weights = build_weights(ctx, SieveParams(3, 30, 1))
    L = 1_000_000
    m1 = beta_mean_value(weights, L, 0, 1)
    w1 = float(weights.w[1])
    assert abs(m1.real - w1) <= 0.05 * w1 and abs(m1.imag) < 1e-9
    m3 = beta_mean_value(weights, L, 1, 3)
    w3 = float(weights.w[3])
    assert abs(m3.real - w3) <= 0.05 * abs(w3)
    # d outside the admissible key set carries no spectral mass
    m4 = beta_mean_value(weights, L, 1, 4)
    assert abs(m4) <= 1e-3 * w1


def test_mean_value_reduced_fraction_required(ctx):
    weights = build_weights(ctx, SieveParams(3, 30, 1))
    with pytest.raises(ValueError):
        beta_mean_value(weights, 1000, 2, 4)


def test_hardy_partial_bands(ctx):
    target = math.log(2)
    assert abs(hardy_partial(ctx, 4, 4000) - target) <= 0.01
    gaps = [abs(hardy_partial(ctx, 6, Q)) for Q in (100, 200, 500)]
    assert gaps[0] > gaps[1] > gaps[2]
    with pytest.raises(ValueError):
        hardy_partial(ctx, 1, 100)


def test_csv_tables(w350):
    lam_csv = lambda_table_csv(w350)
    lines = lam_csv.strip().split("\n")
    assert lines[0] == "d,numerator,denominator"
    assert lines[1] == "1,1,1"
    w_csv = w_table_csv(w350)
    assert w_csv.startswith("q,numerator,denominator\n")
    assert len(w_csv.strip().split("\n")) == len(w350.w) + 1


def test_bound_report_clean(ctx, w350):
    for row in wq_bound_report(ctx, w350):
        assert row.status in ("pass", "not-applicable")
        if row.status == "not-applicable":
            assert row.note


def test_parameter_validation(ctx):
    with pytest.raises(ValueError):
        SieveParams(1, 30, 1)
    with pytest.raises(ValueError):
        SieveParams(3, 2, 1)
    with pytest.raises(ValueError):
        SieveParams(3, 30, 0)
    with pytest.raises(ValueError):
        SieveParams(3, 30, 1, mode="sloppy")
    with pytest.raises(ValueError):
        build_weights(ctx, SieveParams(3, 30, 2))    # tau hits the block
    with pytest.raises(CapacityError):
        build_weights(ctx, SieveParams(2, 1000, 1))  # z^2 over the table
    with pytest.raises(CapacityError):
        build_weights(ctx, SieveParams(2, 300, 1), cap=50)


def test_floating_mode(ctx):
    weights = build_weights(ctx, SieveParams(3, 30, 1, mode="floating"))
    assert isinstance(weights.lam[3], float)
    arr = beta_array(weights, 100)
    assert arr.min() >= 0
    with pytest.raises(ValueError):
        beta_direct(ctx, weights, 7)
    with pytest.raises(ValueError):
        beta_fourier(ctx, weights, 7)


def test_beta_argument_validation(ctx, w350):
    with pytest.raises(ValueError):
        beta_direct(ctx, w350, 0)
    with pytest.raises(ValueError):
        beta_fourier(ctx, w350, -3)
