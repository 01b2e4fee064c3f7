"""The enveloping sieve: lambda weights, beta, and its Fourier side.

With G = G_tau(z; z0), the weights are

    lambda_d = mu(d) d G_{d tau}(z/d; z0) / (phi(d) G)

over squarefree d <= z whose prime factors lie in [z0, z] and avoid tau,
and beta(n) = (sum_{d|n} lambda_d)^2.  beta is non-negative, equals 1 on
integers with no prime factor in the sieving range, and expands exactly as

    beta(n) = sum_q w_q c_q(n),    w_q = mu(q) G_[q](z; z0, tau) / (phi(q) G^2)

over squarefree q <= z^2 built from the same primes (c_q is the Ramanujan
sum).  Everything is kept in exact rational arithmetic; the equality of
beta_direct and beta_fourier is the module's primary oracle, and
wq_bound_report re-checks the pointwise w_q estimates where their
hypotheses hold.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .arith import CapacityError, PrimeContext
from .gfunctions import g_bracket, g_sifted, ordered_splits
from .report import CheckRow, exact_leq_row, na_row

#: keeps the key enumeration from exploding on careless parameters
DEFAULT_KEY_CAP = 500_000


@dataclass(frozen=True)
class SieveParams:
    z0: float
    z: float
    tau: int = 1

    def __post_init__(self):
        if self.z0 < 2:
            raise ValueError(f"z0={self.z0} must be >= 2")
        if self.z < self.z0:
            raise ValueError(f"z={self.z} must be >= z0={self.z0}")
        if self.tau < 1 or int(self.tau) != self.tau:
            raise ValueError(f"tau={self.tau} must be a positive integer")


@dataclass(frozen=True)
class SieveWeights:
    params: SieveParams
    G_val: Fraction
    lam: dict[int, Fraction]
    w: dict[int, Fraction]


def _key_products(primes: list[int], bound) -> list[tuple[int, int, int]]:
    """(product, mobius, phi) for squarefree products of `primes` up to bound."""
    out = [(1, 1, 1)]
    for i, p in enumerate(primes):
        grown = []
        for d, mu, phi in out:
            v = d * p
            if v > bound:
                continue
            grown.append((v, -mu, phi * (p - 1)))
            # larger primes only make the product bigger; no need to retry
        out.extend(grown)
        if len(out) > DEFAULT_KEY_CAP:
            raise CapacityError(f"more than {DEFAULT_KEY_CAP} sieve keys below {bound}")
    return sorted(out)


def build_weights(ctx: PrimeContext, params: SieveParams) -> SieveWeights:
    """Compute both weight tables exactly.  Requires the prime table to
    reach z^2 (the Fourier keys run that far)."""
    z0, z, tau = params.z0, params.z, params.tau
    zf = Fraction(z)
    zi = math.floor(zf)
    if zi * zi > ctx.limit:
        raise CapacityError(f"z^2 = {zi * zi} exceeds prime table limit {ctx.limit}")
    for p in ctx.primes_below(z0):
        if tau % int(p) == 0:
            raise ValueError(f"tau={tau} shares the prime {p} with the small-prime block")

    primes = [int(p) for p in ctx.primes_between(z0, zi) if tau % int(p) != 0]
    G = g_sifted(ctx, tau, zf, z0)

    lam: dict[int, Fraction] = {}
    for d, mu, phi in _key_products(primes, zf):
        lam[d] = Fraction(mu * d, phi) * g_sifted(ctx, (d, tau), zf / d, z0) / G

    Gsq = G * G
    w: dict[int, Fraction] = {}
    for q, mu, phi in _key_products(primes, zf * zf):
        w[q] = Fraction(mu, phi) * g_bracket(ctx, q, zf, z0, tau) / Gsq

    if lam[1] != 1 or w[1] * G != 1:
        raise ArithmeticError(f"weights not normalized: lambda_1 = {lam[1]}, "
                              f"w_1 G = {w[1] * G}")
    return SieveWeights(params, G, lam, w)


# -- beta ---------------------------------------------------------------


def beta_direct(ctx: PrimeContext, weights: SieveWeights, n: int) -> Fraction:
    """(sum_{d|n} lambda_d)^2, the defining square, over the stored keys d."""
    if n < 1:
        raise ValueError(f"n={n} must be >= 1")
    a = sum((lam for d, lam in weights.lam.items() if n % d == 0), Fraction(0))
    return a * a


def beta_fourier(ctx: PrimeContext, weights: SieveWeights, n: int) -> Fraction:
    """sum_q w_q c_q(n) over the stored keys; equals beta_direct exactly."""
    if n < 1:
        raise ValueError(f"n={n} must be >= 1")
    total = Fraction(0)
    for q, wq in weights.w.items():
        total += wq * ctx.ramanujan_sum(q, n)
    return total


def beta_fourier_many(ctx: PrimeContext, weights: SieveWeights,
                      ns) -> list[Fraction]:
    """beta_fourier over many n: one shared denominator, and each key's
    Ramanujan sums gathered from its table c_q(0..q-1) for all n at once."""
    ns = np.asarray(list(ns), dtype=np.int64)
    if ns.size and ns.min() < 1:
        raise ValueError(f"n={int(ns.min())} must be >= 1")
    den = math.lcm(*(wq.denominator for wq in weights.w.values()))
    total = np.zeros(ns.size, dtype=object)
    for q, wq in weights.w.items():
        column = ctx.ramanujan_table(q)[ns % q].astype(object)
        total += wq.numerator * (den // wq.denominator) * column
    return [Fraction(s, den) for s in total.tolist()]


# -- pointwise w_q estimates ---------------------------------------------


def _worst_row(lemma: str, params: dict, margins, note: str, key: str = "q") -> CheckRow:
    """Row for the first smallest exact margin over (key, margin) pairs; it
    passes when that margin is >= 0 (or there are no pairs)."""
    worst = at = None
    for k, margin in margins:
        if worst is None or margin < worst:
            worst, at = margin, k
    return CheckRow(lemma, {**params, key: at}, None, None,
                    None if worst is None else float(worst),
                    "pass" if worst is None or worst >= 0 else "fail", note)


def _window_row(lemma: str, params: dict, lo, vals, hi_for) -> CheckRow:
    """Exact two-sided window check: lo <= value <= hi(key) over key->value."""
    return _worst_row(lemma, params,
                      ((key, min(val - lo, hi_for(key) - val)) for key, val in vals),
                      "exact two-sided comparison over all stored keys")


def wq_bound_report(ctx: PrimeContext, weights: SieveWeights) -> list[CheckRow]:
    """Re-verify the pointwise w_q inequalities at the current parameters.

    Gated estimates report not-applicable when their z0 threshold is not
    met; the scale-free kernel ingredient behind the power-decay bounds is
    checked exactly in integers regardless.
    """
    rows: list[CheckRow] = []
    z0, z, tau = weights.params.z0, weights.params.z, weights.params.tau
    zf = Fraction(z)
    G = weights.G_val
    base = {"z0": z0, "z": z, "tau": tau}

    primes = [(q, v) for q, v in weights.w.items() if q != 1 and len(ctx.prime_factors(q)) == 1]
    rows.append(_window_row("w-prime-window", base, Fraction(-1),
                            [(q, v * G * (q - 1)) for q, v in primes],
                            lambda q: Fraction(0)))

    twos = [(q, v) for q, v in weights.w.items() if len(ctx.prime_factors(q)) == 2]
    rows.append(_window_row("w-two-prime-window", base, Fraction(0),
                            [(q, v * G * ctx.euler_phi(q)) for q, v in twos],
                            lambda q: max(Fraction(2), Fraction(q, ctx.euler_phi(q)))))

    rows.append(_triple_sum_row(ctx, weights, base))
    rows.extend(_power_decay_rows(ctx, weights, base))
    rows.append(_sup_scaling_row(weights, base))
    rows.append(_kernel_ingredient_row(ctx))
    rows.append(na_row("w-large-sieve-weighted", {"z0_min": 35},
                       "hypotheses need z >= 2.0056e11 (z0 >= 35 and primorial(z0) <= z): "
                       "unsatisfiable at this scale"))
    return rows


def _triple_sum_row(ctx: PrimeContext, weights: SieveWeights, base: dict) -> CheckRow:
    # |G w_q| <= G(z^2;z0)/G(z;z0) * sum over ordered factorizations
    # q1 q2 q3 = q with q1 q3 <= z and q2 q3 <= z of 1/(q1 q2 q3), i.e. the
    # number of such splits over q
    z0, tau = weights.params.z0, weights.params.tau
    zf = Fraction(weights.params.z)
    G = weights.G_val
    ratio = g_sifted(ctx, tau, zf * zf, z0) / G

    def margin(q, wq):
        splits = ordered_splits(ctx.prime_factors(q) if q > 1 else [], zf)
        return ratio * Fraction(len(splits), q) - abs(wq * G)
    return _worst_row("w-triple-sum-bound", base,
                      ((q, margin(q, wq)) for q, wq in weights.w.items()),
                      "exact comparison, every stored key")


def _power_decay_rows(ctx: PrimeContext, weights: SieveWeights, base: dict) -> list[CheckRow]:
    rows = []
    z0 = weights.params.z0
    G = weights.G_val
    # |G w_q| <= q^(-2/3), cubed to stay in integers
    if z0 >= 24:
        rows.append(_worst_row("w-power-decay", base, (
            (q, 1 - abs(wq * G) ** 3 * q * q) for q, wq in weights.w.items()),
            "cubed form |Gw|^3 q^2 <= 1, exact"))
    else:
        rows.append(na_row("w-power-decay", base, "needs z0 >= 24"))
    # |G w_q| <= 1.04 / q^(7/10), tenth power
    if z0 >= 35:
        bound = Fraction(26, 25) ** 10
        rows.append(_worst_row("w-power-decay-refined", base, (
            (q, bound - abs(wq * G) ** 10 * q ** 7) for q, wq in weights.w.items()),
            "tenth-power form |Gw|^10 q^7 <= (26/25)^10, exact"))
    else:
        rows.append(na_row("w-power-decay-refined", base, "needs z0 >= 35"))
    return rows


def _sup_scaling_row(weights: SieveWeights, base: dict) -> CheckRow:
    z0 = weights.params.z0
    if z0 < 34:
        return na_row("w-sup-scaling", base, "needs z0 >= 34")
    G = weights.G_val
    sup = max(abs(wq * G) for q, wq in weights.w.items() if q > 1)
    lhs = Fraction(z0) * sup
    rhs = 1 + Fraction(11, 5) / Fraction(z0)
    return exact_leq_row("w-sup-scaling", base, lhs, rhs,
                         "z0 * sup_{q > 1} |G w_q| <= 1 + 2.2/z0, exact")


def _kernel_ingredient_row(ctx: PrimeContext) -> CheckRow:
    # (3p-4) p^(2/3) / (p-1)^2 <= 1 for p > 23, cubed into integers
    # int / int is correctly rounded, so each margin keeps the sign of rhs - lhs
    cap = min(ctx.limit, 100_000)
    return _worst_row("w-kernel-ingredient", {"pmax": cap}, (
        (p, ((p - 1) ** 6 - (3 * p - 4) ** 3 * p * p) / (p - 1) ** 6)
        for p in ctx.primes_between(24, cap).tolist()),
        "(3p-4)^3 p^2 <= (p-1)^6 for 23 < p <= pmax, exact integers", key="p")
