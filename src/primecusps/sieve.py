"""The enveloping sieve: lambda weights, beta, and its Fourier side.

With G = G_tau(z; z0), the weights are

    lambda_d = mu(d) d G_{d tau}(z/d; z0) / (phi(d) G)

over squarefree d <= z whose prime factors lie in [z0, z] and avoid tau,
and beta(n) = (sum_{d|n} lambda_d)^2.  beta is non-negative, equals 1 on
integers with no prime factor in the sieving range, and expands exactly as

    beta(n) = sum_q w_q c_q(n),    w_q = mu(q) G_[q](z; z0, tau) / (phi(q) G^2)

over squarefree q <= z^2 built from the same primes (c_q is the Ramanujan
sum).  Both tables are read from the one exact sum g_sifted: lambda_d
from G_{d tau}(z/d; z0), and the bracket G_[q] (gfunctions.g_bracket) as a
signed sum of G_{q tau}(z/m; z0) over the ordered splits of q.
Everything is kept in exact rational arithmetic; the equality of
beta_direct and beta_fourier_many is the module's primary oracle, and
wq_bound_report re-checks the pointwise w_q estimates where their
hypotheses hold.  beta_fourier_many swaps the sums by Kluyver's formula
c_q(n) = sum_{d | (q, n)} d mu(q/d) into beta(n) = sum_{d | n} W_d, so it
evaluates no Ramanujan sum.

Every key of a table divides the lcm L of its keys, so d | n exactly when
d | gcd(n, L), and each side of beta depends on n only through gcd(n, L)
for its own table: beta_direct through the lambda keys' lcm, and
beta_fourier_many through the w keys' lcm.  Each side sums once per class
and maps n to its class, and the two stay independent oracles.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
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
    tau: int

    def __post_init__(self):
        if self.z0 < 2:
            raise ValueError(f"z0={self.z0} must be >= 2")
        if self.z < self.z0:
            raise ValueError(f"z={self.z} must be >= z0={self.z0}")
        if self.tau < 1 or int(self.tau) != self.tau:
            raise ValueError(f"tau={self.tau} must be a positive integer")


@dataclass(frozen=True)
class SieveWeights:
    """The lambda_d and w_q tables; lam_num holds the integers
    lambda_d * lam_den over the lambdas' common denominator lam_den.
    lam_lcm and w_lcm are the lcms of the lambda and the w keys (Python
    ints: past 2^63 once the keys' primes run from 2 to 53), and beta_memo
    holds beta_direct's values by gcd(n, lam_lcm).  The memo is filled by
    plain dict stores, so threads sharing a table can at worst compute one
    exact value twice."""
    params: SieveParams
    G_val: Fraction
    lam: dict[int, Fraction]
    w: dict[int, Fraction]
    lam_den: int = field(init=False, repr=False, compare=False)
    lam_num: dict[int, int] = field(init=False, repr=False, compare=False)
    lam_lcm: int = field(init=False, repr=False, compare=False)
    w_lcm: int = field(init=False, repr=False, compare=False)
    beta_memo: dict[int, Fraction] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        den = math.lcm(*(lam.denominator for lam in self.lam.values()))
        object.__setattr__(self, "lam_den", den)
        object.__setattr__(self, "lam_num", {
            d: lam.numerator * (den // lam.denominator) for d, lam in self.lam.items()})
        object.__setattr__(self, "lam_lcm", math.lcm(*self.lam))
        object.__setattr__(self, "w_lcm", math.lcm(*self.w))
        object.__setattr__(self, "beta_memo", {})


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
    if math.floor(zf * zf) > ctx.limit:
        raise CapacityError(f"floor(z^2) = {math.floor(zf * zf)} exceeds "
                            f"prime table limit {ctx.limit}")
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
    """(sum_{d|n} lambda_d)^2, the defining square, over the stored keys d,
    summed in integers over the common denominator.  The keys dividing n
    are those dividing g = gcd(n, lam_lcm), so the value is read from the
    table's memo at g, and the scan over the keys runs once per g."""
    if n < 1:
        raise ValueError(f"n={n} must be >= 1")
    g = math.gcd(n, weights.lam_lcm)
    beta = weights.beta_memo.get(g)
    if beta is None:
        a = sum(num for d, num in weights.lam_num.items() if g % d == 0)
        den = weights.lam_den
        beta = weights.beta_memo[g] = Fraction(a * a, den * den)
    return beta


def _kluyver_numerators(ctx: PrimeContext, weights: SieveWeights) -> tuple[dict[int, int], int]:
    """(W, den): the integers W[d] = den * d * sum_{q : d | q} mu(q/d) w_q
    over the common denominator den of the w_q, nonzero ones only.

    By Kluyver's formula c_q(n) = sum_{d | (q, n)} d mu(q/d), beta(n) =
    sum_q w_q c_q(n) = sum_{d | n} W[d] / den.  The inner Mobius sums come
    from one prime-by-prime transform over the keys, F[q/p] -= F[q] for
    each prime key p dividing q, which needs every divisor of every key to
    be a key too."""
    den = math.lcm(*(wq.denominator for wq in weights.w.values()))
    F = {q: weights.w[q].numerator * (den // weights.w[q].denominator)
         for q in sorted(weights.w)}
    for q in F:
        if q > 1 and ctx.spf(q) not in F:
            raise ValueError(f"key {q} lacks its divisor {ctx.spf(q)}")
    for p in [q for q in F if q > 1 and ctx.spf(q) == q]:
        # ascending q: F[q] is read before F[q p] is subtracted from it
        for q in F:
            if q % p == 0:
                if q // p not in F:
                    raise ValueError(f"key {q} lacks its divisor {q // p}")
                F[q // p] -= F[q]
    return {d: d * f for d, f in F.items() if f}, den


def beta_fourier_many(ctx: PrimeContext, weights: SieveWeights,
                      ns) -> list[Fraction]:
    """sum_q w_q c_q(n) over the stored keys for each n, swapped by
    Kluyver's formula into beta(n) = sum_{d | n} W_d: each nonzero W_d is
    added to the classes g = gcd(n, w_lcm) divisible by d, over one common
    denominator, and each n takes its class's Fraction.  The key set must
    be closed under divisors (ValueError otherwise); equals beta_direct
    exactly, and no Ramanujan sum is evaluated."""
    ns = [int(n) for n in ns]
    if ns and min(ns) < 1:
        raise ValueError(f"n={min(ns)} must be >= 1")
    W, den = _kluyver_numerators(ctx, weights)
    # g <= n, so the classes fit the int64 that n does
    classes, at = np.unique(np.array([math.gcd(n, weights.w_lcm) for n in ns],
                                     dtype=np.int64), return_inverse=True)
    total = np.zeros(classes.size, dtype=object)
    for d, wd in W.items():
        total[np.flatnonzero(classes % d == 0)] += wd
    values = [Fraction(s, den) for s in total.tolist()]
    return [values[i] for i in at.tolist()]


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
