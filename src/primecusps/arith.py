"""Arithmetic substrate: prime tables, multiplicative functions, Ramanujan
sums, primorials, Farey fractions, and well-spaced point extraction.

Everything downstream runs over a PrimeContext: the primes and the
smallest-prime-factor table, sieved once up to a fixed limit.  Mobius and
Euler-phi values of single integers are recovered by factoring through the
smallest-prime-factor table; the scalar ramanujan_sum is built on them and
stays the oracle.  Vector paths instead read whole arrays: the sifted mask
(no prime factor below z0, coprime to d) from sifted_mask, and the Mobius,
Euler-phi and squarefree tables, each built on first use.  ramanujan_table
gathers a key's c_q(0..q-1) from them by von Sterneck's formula.  The
context also keeps a lock-guarded store of exact prefix checkpoints, which
gfunctions.g_sifted extends instead of re-summing from 1.
"""

from __future__ import annotations

import bisect
import threading
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from operator import itemgetter
from typing import Iterable

import numpy as np

DEFAULT_LIMIT_CAP = 200_000_000


class CapacityError(ValueError):
    """Requested table or enumeration exceeds the configured memory cap."""


@dataclass(frozen=True)
class WeightedPoint:
    """Point on R/Z with a nonnegative weight; position stored reduced mod 1."""

    position: float
    weight: float

    def __post_init__(self):
        object.__setattr__(self, "position", float(self.position) % 1.0)
        if not (self.weight >= 0.0):
            raise ValueError(f"negative weight {self.weight}")


def circle_distance(x: float, y: float) -> float:
    """Distance |x - y| on R/Z."""
    d = abs(x - y) % 1.0
    return min(d, 1.0 - d)


class PrimeContext:
    """Primality and smallest-prime-factor tables up to `limit`.

    The sieve tables are fixed at construction.  The Mobius, Euler-phi and
    squarefree tables are built on first use; two threads racing to build
    one build the same array, so either result may be kept.  The checkpoint
    store is mutated only under the context's lock.  A context is safe to
    share across threads.
    """

    def __init__(self, limit: int, spf: np.ndarray, primes: np.ndarray):
        self.limit = limit
        self._spf = spf
        self.primes = primes
        self._mobius_table = None
        self._phi_table = None
        self._squarefree_mask = None
        self._checkpoints: dict = {}
        self._lock = threading.Lock()

    # -- factorization ------------------------------------------------

    def _check_range(self, n: int) -> int:
        n = int(n)
        if n < 1 or n > self.limit:
            raise ValueError(f"n={n} outside table range [1, {self.limit}]")
        return n

    def spf(self, n: int) -> int:
        n = self._check_range(n)
        if n == 1:
            raise ValueError("1 has no prime factor")
        return int(self._spf[n])

    def factorize(self, n: int) -> list[tuple[int, int]]:
        """Prime factorization [(p, e), ...] with p ascending."""
        n = self._check_range(n)
        out = []
        while n > 1:
            p = int(self._spf[n])
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out.append((p, e))
        return out

    def prime_factors(self, n: int) -> list[int]:
        return [p for p, _ in self.factorize(n)]

    def is_squarefree(self, n: int) -> bool:
        return all(e == 1 for _, e in self.factorize(n))

    def mobius(self, n: int) -> int:
        f = self.factorize(n)
        if any(e > 1 for _, e in f):
            return 0
        return -1 if len(f) % 2 else 1

    def euler_phi(self, n: int) -> int:
        out = 1
        for p, e in self.factorize(n):
            out *= (p - 1) * p ** (e - 1)
        return out

    # -- prime counting / slicing ---------------------------------------

    def pi(self, x: float) -> int:
        """Number of primes <= x."""
        return int(np.searchsorted(self.primes, x, side="right"))

    def primes_below(self, z: float) -> np.ndarray:
        """Primes p < z (strict)."""
        return self.primes[: np.searchsorted(self.primes, z, side="left")]

    def primes_between(self, lo: float, hi: float) -> np.ndarray:
        """Primes p with lo <= p <= hi."""
        i = np.searchsorted(self.primes, lo, side="left")
        j = np.searchsorted(self.primes, hi, side="right")
        return self.primes[i:j]

    # -- classical sums and products ------------------------------------

    def ramanujan_sum(self, q: int, n: int) -> int:
        """c_q(n) = mu(q/g) phi(q) / phi(q/g) with g = gcd(q, n)."""
        q = self._check_range(q)
        if n < 0:
            raise ValueError(f"n={n} must be nonnegative")
        g = gcd(q, int(n))
        return self.mobius(q // g) * self.euler_phi(q) // self.euler_phi(q // g)

    def ramanujan_table(self, q: int) -> np.ndarray:
        """c_q(r) for r = 0..q-1 in one gather: von Sterneck's formula over
        the Mobius and Euler-phi tables (phi(q/g) divides phi(q))."""
        q = self._check_range(q)
        cof = q // np.gcd(q, np.arange(q))
        phi = self.phi_table
        return self.mobius_table[cof] * (phi[q] // phi[cof])

    def primorial(self, z0: float) -> int:
        """P(z0) = product of primes p < z0; empty product is 1."""
        if z0 < 2:
            raise ValueError(f"z0={z0} must be >= 2")
        out = 1
        for p in self.primes_below(z0):
            out *= int(p)
        return out

    def mertens_product(self, z0: float) -> Fraction:
        """V(z0) = prod_{p < z0} (1 - 1/p), exact."""
        if z0 < 2:
            raise ValueError(f"z0={z0} must be >= 2")
        out = Fraction(1)
        for p in self.primes_below(z0):
            p = int(p)
            out *= Fraction(p - 1, p)
        return out

    # -- shared masks and lazy tables (used by the exact and float G sums) --

    def sifted_mask(self, n: int, z0=2, d=1, start: int = 0) -> np.ndarray:
        """Bool array over [start, n]: True at m >= 1 with no prime factor
        below z0 and gcd(m, d) = 1.  d is an int or a tuple of factors whose
        primes are struck one factor at a time, so their product may pass
        the table limit."""
        if n > self.limit:
            raise CapacityError(f"n={n} exceeds prime table limit {self.limit}")
        mask = np.ones(n + 1 - start, dtype=bool)
        if start == 0:
            mask[0] = False
        if z0 > 2:
            lo = max(start, 2)
            mask[lo - start :] = self._spf[lo : n + 1] >= z0
        for f in d if isinstance(d, tuple) else (d,):
            for p in self.prime_factors(f):
                mask[-start % p :: p] = False
        return mask

    @property
    def mobius_table(self) -> np.ndarray:
        if self._mobius_table is None:
            mu = np.ones(self.limit + 1, dtype=np.int8)
            for p in self.primes:
                mu[p::p] *= -1
            mu[~self.squarefree_mask] = 0
            self._mobius_table = mu
        return self._mobius_table

    @property
    def phi_table(self) -> np.ndarray:
        if self._phi_table is None:
            phi = np.arange(self.limit + 1, dtype=np.int64)
            for p in self.primes:
                phi[p::p] -= phi[p::p] // p
            self._phi_table = phi
        return self._phi_table

    @property
    def squarefree_mask(self) -> np.ndarray:
        if self._squarefree_mask is None:
            mask = np.ones(self.limit + 1, dtype=bool)
            mask[0] = False
            for p in self.primes:
                p = int(p)
                if p * p > self.limit:
                    break
                mask[p * p :: p * p] = False
            self._squarefree_mask = mask
        return self._squarefree_mask

    # -- exact prefix checkpoints (filled by gfunctions.g_sifted) ----------

    def checkpoint_below(self, key, m: int) -> tuple[int, Fraction]:
        """The stored (m0, value) under key with the largest m0 <= m, or
        (0, 0) when there is none."""
        with self._lock:
            points = self._checkpoints.get(key, [])
            i = bisect.bisect_right(points, m, key=itemgetter(0))
            return points[i - 1] if i else (0, Fraction(0))

    def add_checkpoint(self, key, m: int, value: Fraction) -> None:
        """Store (m, value) under key, keeping each key's list sorted by m."""
        with self._lock:
            points = self._checkpoints.setdefault(key, [])
            i = bisect.bisect_left(points, m, key=itemgetter(0))
            if i == len(points) or points[i][0] != m:
                points.insert(i, (m, value))


def build_context(limit: int) -> PrimeContext:
    """Sieve smallest prime factors up to `limit` and wrap them in a context."""
    if limit < 2:
        raise ValueError(f"limit={limit} must be >= 2")
    if limit > DEFAULT_LIMIT_CAP:
        raise CapacityError(f"limit={limit} exceeds cap={DEFAULT_LIMIT_CAP}")
    dtype = np.int32 if limit < 2**31 else np.int64
    spf = np.zeros(limit + 1, dtype=dtype)
    for p in range(2, int(limit**0.5) + 1):
        if spf[p] == 0:
            spf[p] = p
            sl = spf[p * p :: p]
            sl[sl == 0] = p
    rest = np.flatnonzero(spf[2:] == 0) + 2
    spf[rest] = rest
    primes = np.flatnonzero(spf == np.arange(limit + 1, dtype=dtype)).astype(np.int64)
    primes = primes[primes >= 2]
    return PrimeContext(limit, spf, primes)


def farey_points(Q: int) -> list[Fraction]:
    """All reduced fractions a/q with 0 <= a < q <= Q, ascending."""
    if Q < 1:
        raise ValueError(f"Q={Q} must be >= 1")
    return sorted(Fraction(a, q) for q in range(1, Q + 1)
                  for a in range(q) if gcd(a, q) == 1)


def extract_well_spaced(
    points: Iterable[WeightedPoint], delta: float
) -> list[WeightedPoint]:
    """Greedy delta-separated subset, heaviest first (ties: smaller position).

    Every rejected point ends up within delta of some selected point; the
    selected points are pairwise >= delta apart on R/Z.
    """
    if not (0.0 < delta <= 0.5):
        raise ValueError(f"delta={delta} outside (0, 1/2]")
    ranked = sorted(points, key=lambda p: (-p.weight, p.position))
    accepted: list[WeightedPoint] = []
    positions: list[float] = []  # sorted, mirrors accepted
    for cand in ranked:
        x = cand.position
        if positions:
            # nearest accepted point is one of the two circular neighbors
            i = bisect.bisect_left(positions, x)
            left = positions[i - 1]
            right = positions[i % len(positions)]
            if (
                circle_distance(x, left) < delta
                or circle_distance(x, right) < delta
            ):
                continue
        positions.insert(bisect.bisect_left(positions, x), x)
        accepted.append(cand)
    accepted.sort(key=lambda p: p.position)
    return accepted
