"""Arithmetic substrate: prime tables, multiplicative functions, Ramanujan
sums, primorials, Farey fractions, and well-spaced point extraction.

Everything downstream runs over a PrimeContext: the primes up to its limit,
found once by a segmented sieve of Eratosthenes, and tables that grow up to
the largest index a query asks.  The smallest-prime-factor table is one of
them, so a caller that reads only primes, as the cusp path does, never
holds one.  Mobius and Euler-phi values of single integers are recovered by
factoring through the smallest-prime-factor table; the scalar
ramanujan_sum is built on them by von Sterneck's formula and stays the
oracle.  Vector paths instead read whole arrays: the sifted mask (no prime
factor below z0 nor among given primes) from sifted_mask, and the
Euler-phi and squarefree tables.  The context also keeps a
lock-guarded store of exact prefix checkpoints, which gfunctions.g_sifted
extends block by block instead of re-summing from 1.
"""

from __future__ import annotations

import bisect
import math
import threading
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from operator import itemgetter
from typing import Iterable, Iterator

import numpy as np

DEFAULT_LIMIT_CAP = 200_000_000  # below 2^31, so the spf table is int32

# integers struck at a time by build_context's segmented sieve; the primes
# up to sqrt(DEFAULT_LIMIT_CAP) lie in the first segment
SIEVE_SEGMENT = 1 << 20


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
    """The primes up to `limit`, and tables over [0, limit] grown on demand.

    `primes` is fixed at construction.  The smallest-prime-factor table
    grows as queries pass it, one appended segment struck by the primes
    already held; the Euler-phi and squarefree tables grow from it.  Two
    threads racing to grow a table each keep a correct one, so either
    result may be kept.  The checkpoint store is mutated only under the
    context's lock.  A context is safe to share across threads.
    """

    def __init__(self, limit: int, primes: np.ndarray):
        self.limit = limit
        self.primes = primes
        self._spf = np.zeros(2, dtype=np.int32)  # over [0, 1]: no prime factor
        self._phi_table = np.array([0, 1], dtype=np.int64)  # over [0, 1]
        self._squarefree_mask = np.array([False, True])
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
        return int(self._spf_table(n)[n])

    def factorize(self, n: int) -> list[tuple[int, int]]:
        """Prime factorization [(p, e), ...] with p ascending."""
        n = self._check_range(n)
        spf = self._spf_table(n)
        out = []
        while n > 1:
            p = int(spf[n])
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

    # -- prime slicing ------------------------------------------------

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

    def sifted_mask(self, n: int, z0, primes=(), start: int = 0) -> np.ndarray:
        """Bool array over [start, n]: True at m >= 1 with no prime factor
        below z0 nor among `primes` (struck one at a time, so their product
        may pass the table limit)."""
        if n > self.limit:
            raise CapacityError(f"n={n} exceeds prime table limit {self.limit}")
        mask = np.ones(n + 1 - start, dtype=bool)
        if start == 0:
            mask[0] = False
        if z0 > 2:
            lo = max(start, 2)
            mask[lo - start :] = self._spf_table(n)[lo : n + 1] >= z0
        for p in primes:
            mask[-start % p :: p] = False
        return mask

    def _grown(self, name: str, n: int, extend) -> np.ndarray:
        """The table kept as `name`, over [0, n] at least.  Once a query
        passes it, extend(table, size) grows it to at least twice its
        length (at most the limit), so no table outgrows twice the largest
        index asked."""
        if n > self.limit:
            raise CapacityError(f"n={n} exceeds prime table limit {self.limit}")
        table = getattr(self, name)
        if len(table) <= n:
            table = extend(table, min(self.limit + 1, max(n + 1, 2 * len(table))))
            setattr(self, name, table)
        return table

    def _spf_table(self, n: int) -> np.ndarray:
        """Smallest prime factors over [0, n] at least (0 at 0 and 1)."""
        return self._grown("_spf", n, self._sieve_spf)

    def _sieve_spf(self, table: np.ndarray, size: int) -> np.ndarray:
        """table over [0, size): the new segment [len(table), size) is
        struck by the primes p <= sqrt(size - 1), largest first, each from
        its first multiple at or above max(p^2, len(table)), so the
        smallest prime factor of each composite is written last; what is
        left unstruck are the primes of the segment, which are their own."""
        lo = len(table)
        out = np.empty(size, dtype=np.int32)
        out[:lo] = table
        seg = out[lo:]
        for p in self.primes_below(math.isqrt(size - 1) + 1)[::-1].tolist():
            seg[max(p * p, lo + -lo % p) - lo :: p] = p
        own = self.primes_between(lo, size - 1)
        seg[own - lo] = own
        return out

    def _by_spf(self, rule):
        """extend for _grown of a table built by doubling steps: each
        m >= 2 of a step has m/p, p = spf(m), in the table already, and
        rule(table[m/p], p | m/p, p) gives the entries."""
        def extend(table: np.ndarray, size: int) -> np.ndarray:
            spf = self._spf_table(size - 1)
            while len(table) < size:
                m = np.arange(len(table), min(size, 2 * len(table)))
                p = spf[m]
                rest = m // p
                table = np.concatenate((table, rule(table[rest], rest % p == 0, p)))
            return table
        return extend

    def phi_table(self, n: int) -> np.ndarray:
        """Euler phi over [0, n]."""
        return self._grown("_phi_table", n, self._by_spf(
            lambda phi, square, p: phi * np.where(square, p, p - 1)))[: n + 1]

    def squarefree_mask(self, n: int) -> np.ndarray:
        """Bool array over [0, n]: True at the squarefree m >= 1."""
        return self._grown("_squarefree_mask", n, self._by_spf(
            lambda free, square, p: free & ~square))[: n + 1]

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
    """The primes up to `limit`, by a segmented sieve of Eratosthenes, in a
    context.  The primes up to sqrt(limit) come from a plain sieve and
    strike each segment of SIEVE_SEGMENT integers in turn; each segment's
    survivors go into one int64 array sized by pi(x) < 1.25506 x / log x
    for x > 1 (Rosser and Schoenfeld, 1962), trimmed in place at the end.
    So the sieve holds that array and one segment, and no table over the
    limit."""
    if limit < 2:
        raise ValueError(f"limit={limit} must be >= 2")
    if limit > DEFAULT_LIMIT_CAP:
        raise CapacityError(f"limit={limit} exceeds cap={DEFAULT_LIMIT_CAP}")
    root = math.isqrt(limit)
    small = np.ones(root + 1, dtype=bool)
    small[:2] = False
    for p in range(2, math.isqrt(root) + 1):
        if small[p]:
            small[p * p :: p] = False
    small = np.flatnonzero(small).tolist()
    primes = np.empty(int(1.25506 * limit / math.log(limit)) + 1, dtype=np.int64)
    count = 0
    for lo in range(0, limit + 1, SIEVE_SEGMENT):
        seg = np.ones(min(SIEVE_SEGMENT, limit + 1 - lo), dtype=bool)
        top = lo + len(seg) - 1
        for p in small:
            if p * p > top:
                break
            seg[max(p * p, lo + -lo % p) - lo :: p] = False
        if lo == 0:
            seg[:2] = False
        found = np.flatnonzero(seg)
        found += lo
        primes[count : count + len(found)] = found
        count += len(found)
    # no view of primes exists, so it shrinks in place
    primes.resize(count, refcheck=False)
    return PrimeContext(limit, primes)


def farey_pairs(Q: int) -> Iterator[tuple[int, int]]:
    """(a, q) for every reduced fraction a/q with 0 <= a < q <= Q,
    ascending, by the next-term recurrence of the Farey sequence: after
    neighbours a/b < c/d the next term is (kc - a)/(kd - b), k = (Q + b) // d.
    A Q below 1 raises ValueError when the iteration starts."""
    if Q < 1:
        raise ValueError(f"Q={Q} must be >= 1")
    a, b, c, d = 0, 1, 1, Q
    while a < b:
        yield a, b
        k = (Q + b) // d
        a, b, c, d = c, d, k * c - a, k * d - b


def farey_points(Q: int) -> list[Fraction]:
    """All reduced fractions a/q with 0 <= a < q <= Q, ascending."""
    return [Fraction(a, q) for a, q in farey_pairs(Q)]


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
