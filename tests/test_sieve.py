"""Enveloping-sieve weights: exact identities, envelope property, bounds."""
import math
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from primecusps.arith import CapacityError, PrimeContext, build_context
from primecusps.gfunctions import g_sifted
from primecusps import sieve
from primecusps.report import CheckRow, na_row
from primecusps.sieve import (
    SieveParams,
    SieveWeights,
    beta_direct,
    beta_fourier_many,
    build_weights,
    wq_bound_report,
)


@pytest.fixture(scope="module")
def w350(ctx):
    return build_weights(ctx, SieveParams(3, 50, 1))


def _beta_von_sterneck(ctx, weights, n):
    # sum_q w_q c_q(n) with each c_q(n) by von Sterneck's formula: a Fourier
    # path independent of beta_fourier_many's Kluyver swap
    return sum(wq * ctx.ramanujan_sum(q, n) for q, wq in weights.w.items())


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
    assert beta_fourier_many(ctx, weights, [97]) == [four[96]]


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 100_000))
def test_beta_equality_property(ctx, n):
    weights = build_weights(ctx, SieveParams(3, 30, 5))
    direct = beta_direct(ctx, weights, n)
    assert [direct] == beta_fourier_many(ctx, weights, [n])
    assert direct == _beta_von_sterneck(ctx, weights, n)


def test_beta_fourier_many_uses_no_scalar_sums(ctx, monkeypatch):
    weights = build_weights(ctx, SieveParams(3, 30, 5))
    ns = list(range(1, 301))
    direct = [beta_direct(ctx, weights, n) for n in ns]

    def refuse(self, q, n):
        raise AssertionError("scalar ramanujan_sum called")
    monkeypatch.setattr(PrimeContext, "ramanujan_sum", refuse)
    assert beta_fourier_many(ctx, weights, ns) == direct


def _fourier_cross_check(ctx, weights, ns):
    # the Kluyver path against the scalar von Sterneck path, value by value
    assert beta_fourier_many(ctx, weights, ns) == [
        _beta_von_sterneck(ctx, weights, n) for n in ns]


def test_beta_fourier_many_matches_scalar(ctx):
    weights = build_weights(ctx, SieveParams(3, 30, 5))
    rng = random.Random(0)
    ns = rng.sample(range(1, ctx.limit + 1), 60) + [1, ctx.limit]
    # products of the sieving primes, and with a struck prime beside them
    products = [q for q in weights.w if q > 1]
    ns += products + [5 * q for q in products if 5 * q <= ctx.limit]
    _fourier_cross_check(ctx, weights, ns)


def test_beta_fourier_many_matches_scalar_past_the_table(ctx):
    # tau * 29 passes the 120000 table
    weights = build_weights(ctx, SieveParams(3, 50, 4999))
    ns = [4999, 2 * 4999, 3 * 4999, 21 * 4999, 3 * 7 * 11 * 13 * 17, 29 * 31 * 37]
    ns += random.Random(1).sample(range(1, ctx.limit + 1), 30)
    _fourier_cross_check(ctx, weights, ns)


def test_beta_fourier_many_needs_divisor_closed_keys(ctx, w350):
    for drop in (3, 7 * 11):
        w = {q: v for q, v in w350.w.items() if q != drop}
        open_keys = SieveWeights(w350.params, w350.G_val, w350.lam, w)
        with pytest.raises(ValueError, match="lacks its divisor"):
            beta_fourier_many(ctx, open_keys, [1, 2, 3])
    # a key none of whose primes is a key
    lonely = SieveWeights(w350.params, w350.G_val, w350.lam,
                          {1: w350.w[1], 15: w350.w[15]})
    with pytest.raises(ValueError, match="lacks its divisor"):
        beta_fourier_many(ctx, lonely, [15])


def test_weights_need_the_table_to_reach_z_squared():
    # floor(z)^2 = 400 fits the table, but the keys run to floor(z^2) = 420
    with pytest.raises(CapacityError, match="420"):
        build_weights(build_context(400), SieveParams(2, 20.5, 1))


def _trial_factor(n):
    """{p: e} for n by trial division."""
    out, p = {}, 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1
    if n > 1:
        out[n] = 1
    return out


def _brute_g(d, y, z0):
    """G_d(y; z0) by trial division, one fraction at a time."""
    total = Fraction(0)
    for ell in range(1, math.floor(y) + 1):
        f = _trial_factor(ell)
        if all(e == 1 and p >= z0 and d % p for p, e in f.items()):
            total += Fraction(1, math.prod(p - 1 for p in f))
    return total


def test_weights_at_tau_past_the_table(ctx):
    # 29 * 4999 passes the 120000 table: d and tau are struck apart
    weights = build_weights(ctx, SieveParams(3, 50, 4999))
    ns = list(range(1, 501))
    assert beta_fourier_many(ctx, weights, ns) == [
        beta_direct(ctx, weights, n) for n in ns]
    assert weights.lam[1] == 1
    z = Fraction(50)
    expected = Fraction(-29, 28) * _brute_g(29 * 4999, z / 29, 3) / _brute_g(4999, z, 3)
    assert weights.lam[29] == expected


def test_weight_normalization_guard(ctx, monkeypatch):
    real = sieve.g_bracket
    monkeypatch.setattr(sieve, "g_bracket", lambda *a: 2 * real(*a))
    with pytest.raises(ArithmeticError, match="not normalized"):
        build_weights(ctx, SieveParams(3, 30, 1))


def test_guards_survive_optimize():
    # the identity guards must not be asserts that python -O strips
    script = (
        "from primecusps import sieve\n"
        "from primecusps.arith import build_context\n"
        "ctx = build_context(1000)\n"
        "real = sieve.g_bracket\n"
        "sieve.g_bracket = lambda *a: 2 * real(*a)\n"
        "try:\n"
        "    sieve.build_weights(ctx, sieve.SieveParams(3, 30, 1))\n"
        "except ArithmeticError as err:\n"
        "    print('raised' if 'not normalized' in str(err) else err)\n")
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "raised"


def test_bound_report_clean(ctx, w350):
    rows = wq_bound_report(ctx, w350)
    for row in rows:
        assert row.status in ("pass", "not-applicable")
        if row.status == "not-applicable":
            assert row.note
    # fifty keys tie at margin 0: a tie passes, and the first key is reported
    triple = next(r for r in rows if r.lemma == "w-triple-sum-bound")
    assert (triple.status, triple.params["q"], triple.margin) == ("pass", 715, 0.0)


def test_bound_report_names_failing_key(ctx, w350):
    G = w350.G_val
    w = dict(w350.w)
    w[7] = Fraction(-2) / (G * 6)     # G w_7 (7 - 1) = -2, below the window
    tampered = SieveWeights(w350.params, G, w350.lam, w)
    row = next(r for r in wq_bound_report(ctx, tampered) if r.lemma == "w-prime-window")
    assert (row.status, row.params["q"], row.margin) == ("fail", 7, -1.0)


def test_check_rows_state_every_field():
    # no field has a default, so no row becomes a pass by omission
    with pytest.raises(TypeError):
        CheckRow("x")
    row = na_row("x", {}, "gated")
    assert (row.lhs, row.rhs, row.margin, row.status) == (None, None, None, "not-applicable")


def test_parameter_validation(ctx, monkeypatch):
    with pytest.raises(TypeError):
        SieveParams(3, 30)                            # tau has no default
    with pytest.raises(ValueError):
        SieveParams(1, 30, 1)
    with pytest.raises(ValueError):
        SieveParams(3, 2, 1)
    with pytest.raises(ValueError):
        SieveParams(3, 30, 0)
    with pytest.raises(ValueError):
        build_weights(ctx, SieveParams(3, 30, 2))    # tau hits the block
    with pytest.raises(CapacityError):
        build_weights(ctx, SieveParams(2, 1000, 1))  # z^2 over the table
    monkeypatch.setattr(sieve, "DEFAULT_KEY_CAP", 50)
    with pytest.raises(CapacityError):
        build_weights(ctx, SieveParams(2, 300, 1))


def test_beta_argument_validation(ctx, w350):
    with pytest.raises(ValueError):
        beta_direct(ctx, w350, 0)
    with pytest.raises(ValueError):
        beta_fourier_many(ctx, w350, [-3])
