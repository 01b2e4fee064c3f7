"""Prime exponential sums and their local model.

Every sum of w_n e(alpha n) over integer points is evaluated here, except
the points-by-primes phase matrix of cusps.large_sieve_check, which serves
its primal and its dual side at once.  Off the grid there is one
evaluator, exp_sum: the plain sum sum_n e(alpha n), or for a matrix of
real weight vectors two real matrix-vector products with the terms' real
and imaginary parts.  Every term is e^{i theta_n} at theta_n =
fl(fl(2 pi alpha) n) to within TERM_ERROR = 2^-49.  Where the points are
integers with |n| and |2 pi alpha n| below PHASE_LIMIT = 2^27 and two
tables over the digits of n = lo + H h + l are shorter than the points, a
term is two table entries at exact phases times an exact rounding
correction, with no libm call per point (_kernel, one alpha at a time, its
terms formed and summed TERM_CHUNK points a pass, so a worker's buffers
hold at most TERM_CHUNK points whatever the count, beside the digits the
call shares); elsewhere it is libm's e^{i theta_n} (_direct, a block of
alphas at once).
One alpha is an array of one: the alphas are cut into one contiguous piece
per worker thread, at most WORKERS (one per CPU the process may use), which
the call starts and joins before it returns, and every sum is bitwise the
one its alpha gets alone, whatever the thread count.  exp_sum_at is T*(alpha) =
sum over the prime subset of e(p alpha); the interval polynomial and the
local model go through exp_sum too.  exp_sums_on_progression evaluates
T*((2k + 1)/Q) at any ascending k from Taylor moments about the midpoint
of each piece of consecutive samples, the moments of every piece from one
weighted exp_sum call, so transference evaluates a whole cover in one
call, and grid_blocks every j/G.  grid_blocks(points, weights, length, G)
takes real weights at ascending integer points of [0, length), which
make the sum at -alpha the conjugate of the sum at alpha, so it covers
only the half circle 0 <= j <= G/2, on one path: it sweeps G = R L by the
residues r <= R/2 of j mod R, one real FFT of length L for r = 0 on the
calling thread and one complex FFT of length n for each other r, the
points folded in mod L.  n is the power of two at or above the point
count, at least PLACE_CHUNK and at most what length needs; L = 2n when
every point has one parity, as the primes of every prime subset do,
L = n otherwise, and L = G (R = 1) when that does not divide G.  The
residues r >= 1 are cut into one contiguous piece per worker thread,
each with one buffer it transforms in place, so memory stays O(n) a
worker and no sum depends on the thread count; exp_sum and the sweep
start and join their threads through one helper, _on_workers.  A
consumer reduces each block on the worker's thread, reading the block of
residue R - r from the same buffer as mirrored(top, sign): grid_sums
writes the dense half circle of a dense array of values (the spectrum
command and the moments of cusps), spectrum(subset, A, G) keeps a
SpectrumGrid of only the samples with |T*| >= T*(0)/A, swept from the
members at unit weight, and transference.sharp_sup_report a maximum,
swept from f_sharp on the support of f * rho.  grid_size gives the
default 32N grid or checks a given one.
The local model replaces the primes by z0-rough integers weighted by
1/(V(z0) log N).  fejer_interval_polynomial builds a trigonometric
polynomial for an interval indicator; only acceptance criterion 10 checks
it.
"""
from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass, field

import numpy as np

from .arith import CapacityError, PrimeContext

TWO_PI = 2.0 * np.pi

#: floor(sqrt(2) * 2^128): 128 fractional bits, enough that the membership
#: test {p sqrt(2)} <= 1/2 is exact for any p addressable here
_SQRT2_FIX = math.isqrt(2 << 256)
_FRAC_MASK = (1 << 128) - 1
_HALF_FIX = 1 << 127


@dataclass(frozen=True)
class PrimeSubset:
    """A subset of the primes in [sqrt(N), N] with its exponential sum."""
    N: int
    members: np.ndarray
    label: str

    def __post_init__(self):
        if len(self.members) == 0:
            raise ValueError(f"empty prime subset ({self.label}, N={self.N})")

    @property
    def size(self) -> int:
        return len(self.members)

    @property
    def K(self) -> float:
        """Density defect N / (|P*| log N); equals 1 + o(1) for all primes."""
        return self.N / (self.size * math.log(self.N))

    def indicator(self) -> np.ndarray:
        """1.0 at the members, 0.0 elsewhere on [0, N]."""
        out = np.zeros(self.N + 1)
        out[self.members] = 1.0
        return out


def _range_primes(ctx: PrimeContext, N: int) -> np.ndarray:
    """The primes in [sqrt(N), N]."""
    if N < 100:
        raise ValueError(f"N={N} must be >= 100")
    if N > ctx.limit:
        raise CapacityError(f"N={N} exceeds prime table limit {ctx.limit}")
    ps = ctx.primes_below(N + 1)  # int64
    return ps[ps * ps >= N]


def subset_full(ctx: PrimeContext, N: int) -> PrimeSubset:
    """All primes in [sqrt(N), N]."""
    return PrimeSubset(N, _range_primes(ctx, N), "full")


def subset_sqrt2(ctx: PrimeContext, N: int) -> PrimeSubset:
    """Primes p in range with {p sqrt(2)} <= 1/2, decided in fixed point."""
    ps = _range_primes(ctx, N)
    keep = [((int(p) * _SQRT2_FIX) & _FRAC_MASK) <= _HALF_FIX for p in ps]
    return PrimeSubset(N, ps[np.array(keep)], "sqrt2")


def subset_random(ctx: PrimeContext, N: int, density: float,
                  seed: int) -> PrimeSubset:
    """Seeded random subsequence of the range primes at the given density."""
    if not 0 < density <= 1:
        raise ValueError(f"density={density} must lie in (0, 1]")
    ps = _range_primes(ctx, N)
    rng = np.random.default_rng(seed)
    keep = rng.random(len(ps)) < density
    return PrimeSubset(N, ps[keep], f"random({density}, seed={seed})")


def _cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity on this platform
        return os.cpu_count() or 1


#: threads exp_sum spreads an array of alphas over, and a sweep its
#: residues: the CPUs this process may use
WORKERS = _cpus()


def _split(n: int, parts: int) -> list[tuple[int, int]]:
    """range(n) cut into min(parts, n) contiguous (lo, hi) pieces of near
    equal length."""
    parts = min(parts, n)
    return [(n * i // parts, n * (i + 1) // parts) for i in range(parts)]


def _on_workers(task, pieces, name: str) -> list:
    """[task(piece) for piece in pieces], in piece order.  More than one
    piece runs one a thread, on threads named after `name` that the call
    starts and joins before it returns; a piece's error is raised here.
    The package starts no thread anywhere else."""
    if len(pieces) < 2:
        return [task(piece) for piece in pieces]
    # imported here: a module-level import raises every command's peak
    from concurrent.futures import ThreadPoolExecutor
    with ThreadPoolExecutor(len(pieces), thread_name_prefix=name) as pool:
        return list(pool.map(task, pieces))


#: the table path's reach: every |n| and every |2 pi alpha n| stays below it.
#: Then n has at most 27 bits, so each 26-bit Veltkamp half of 2 pi alpha
#: times n is exact, and theta_n's rounding error delta_n is at most 2^-27,
#: where 1 - i delta_n is e^{-i delta_n} to within delta_n^2/2 <= 2^-55
PHASE_LIMIT = 1 << 27

#: bound on |term - e^{i theta_n}| for every term either path computes,
#: theta_n = fl(fl(2 pi alpha) n): 16 units of roundoff u = 2^-53.  A table
#: entry is within 3.25 u of e^{icx} (2 for libm's ulp a component, 1 for
#: the product with 1 + i delta_x, 1/4 for its truncation), the product of
#: two entries adds sqrt(5) u and the correction 1.25 u: about 10 u at
#: worst, 3.3 u measured.  libm's terms are within a few u.
TERM_ERROR = 2.0 ** -49

#: 2^27 + 1: Veltkamp's splitter, c = c_hi + c_lo in two 26-bit halves
_SPLITTER = 134217729.0


#: entries a worker's temporaries hold at once: the support points a sweep
#: worker twists and places, or the phases of a block of alphas in exp_sum
PLACE_CHUNK = 1 << 12

#: points a pass of the table kernel forms terms for at once, 1 MB of
#: buffers a worker.  Of 2^12 to 2^18, 2^14 and 2^15 measured fastest on
#: the weighted supports of f * rho at N = 10^6 and 10^7, 2^14 by 1-5 %,
#: and 2^15 on the 664,133 primes to 10^7; 2^15 keeps the 25,698-point
#: support at N = 10^5 in one pass
TERM_CHUNK = 1 << 15


def _table_shape(ns: np.ndarray):
    """(lo, H, rows, reach) of the split n = lo + H h + l, 0 <= l < H,
    0 <= h < rows, H = 2^ceil(bits(span)/2), reach = max(|n|, 1), when ns
    are integers below PHASE_LIMIT and the two tables, H + rows entries,
    are shorter than ns; None where every phase goes direct."""
    if len(ns) == 0 or not np.issubdtype(ns.dtype, np.integer):
        return None
    lo, hi = int(ns.min()), int(ns.max())
    reach = max(-lo, hi, 1)
    if reach >= PHASE_LIMIT:
        return None
    span = hi - lo
    H = 1 << -(-span.bit_length() // 2)
    rows = span // H + 1
    return (lo, H, rows, reach) if H + rows < len(ns) else None


def _digits(ns: np.ndarray, shape):
    """What every kernel of one call reads: n as a float, the table points
    0..H-1 then lo + H h, the digits h and l of each n, H and the reach."""
    lo, H, rows, reach = shape
    l = np.subtract(ns, lo, dtype=np.intp)
    h = l >> (H.bit_length() - 1)
    l &= H - 1
    x = np.concatenate((np.arange(H), lo + H * np.arange(rows))).astype(float)
    return ns.astype(float), x, h, l, H, reach


def _direct(ns: np.ndarray, weights, alphas) -> np.ndarray:
    """The sums at each of the alphas, every term libm's e^{i theta_n}.
    Without weights, one complex an alpha: the phases of as many alphas as
    PLACE_CHUNK entries hold (one at least) are exponentiated at once and
    each row is summed on its own, the same pairwise sum as a 1-D sum, so
    each sum is bitwise the one its alpha gets alone.  With a 2-D real
    weight matrix W, the row W @ cos + 1j (W @ sin) an alpha, one alpha at a
    time: a matrix product over a block could round apart.  A worker holds
    at most max(PLACE_CHUNK, len(ns)) complex entries at once."""
    if weights is not None:
        out = np.empty((len(alphas), len(weights)), dtype=complex)
        theta, c = np.empty((2, len(ns)))
        for i, alpha in enumerate(alphas):
            np.multiply(TWO_PI * alpha, ns, out=theta)
            re = weights @ np.cos(theta, out=c)
            out[i] = re + 1j * (weights @ np.sin(theta, out=theta))
        return out
    out = np.empty(len(alphas), dtype=complex)
    step = max(1, PLACE_CHUNK // max(len(ns), 1))
    for lo in range(0, len(alphas), step):
        phases = np.multiply.outer(TWO_PI * 1j * np.asarray(alphas[lo : lo + step]), ns)
        out[lo : lo + step] = np.exp(phases, out=phases).sum(axis=1)
    return out


def _kernel(ns: np.ndarray, weights, digits):
    """The per-alpha evaluator of the table path, over buffers of its own.
    Without weights, alpha -> sum_n e^{i theta_n}, a complex; with a 2-D
    real weight matrix W, alpha -> W @ Re + 1j (W @ Im) of the terms.  Every
    term is e^{i theta_n} at the rounded phase theta_n = fl(fl(2 pi alpha) n)
    to within TERM_ERROR.

    With the digits of _digits and |c| max|n| < PHASE_LIMIT, c = fl(2 pi
    alpha), the terms come from two short tables at exact phases, TL[l] =
    e^{icl} and TH[h] = e^{ic(lo + Hh)}, each entry e^{i fl(cx)} from libm
    times 1 + i delta_x: the term is TH[h] TL[l] (1 - i delta_n), with
    delta_n = cn - fl(cn) exact by Dekker's product on a Veltkamp split of c.
    The tables are built once an alpha; the points are then walked in
    passes of TERM_CHUNK, each pass's terms formed in two buffers of
    min(len(ns), TERM_CHUNK) complex entries (32 bytes a point of a pass)
    and reduced, W[:, a:b] @ Re and @ Im or Re.sum() and Im.sum(), into the
    alpha's total in pass order.  One pass is the whole sum, so at most
    TERM_CHUNK points take no extra operation.  Past PHASE_LIMIT the alpha
    goes to _direct, one pass at a time and added up in the same order."""
    n, x, h, l, H, reach = digits
    P, Q = np.empty((2, min(len(ns), TERM_CHUNK)), dtype=complex)
    # once P holds the product, Q's memory holds delta_n and then the terms
    IM, RE = Q.view(float).reshape(2, -1)
    # each pass's points and weights, its slice of the digits and its buffers
    passes = [(ns[a:b], None if weights is None else weights[:, a:b], n[a:b], h[a:b],
               l[a:b], P[: b - a], Q[: b - a], IM[: b - a], RE[: b - a])
              for a, b in ((a, min(a + TERM_CHUNK, len(ns)))
                           for a in range(0, len(ns), TERM_CHUNK))]

    def at(alpha):
        c = TWO_PI * alpha
        if not abs(c) * reach < PHASE_LIMIT:
            out = None  # each pass's sums, the first as it is, the rest added on
            for points, w, *_ in passes:
                part = _direct(points, w, [alpha])[0]
                out = part if out is None else out + part
            return out
        g = _SPLITTER * c
        c_hi = g - (g - c)
        c_lo = c - c_hi
        # the tables, low digits first: e^{i fl(cx)} (1 + i delta_x)
        phase = x * c
        d = x * c_hi
        d -= phase
        d += x * c_lo
        e = np.exp(phase * 1j) * (1.0 + 1j * d)
        total = None
        for _, w, m, hs, ls, p, q, im, re in passes:
            e[H:].take(hs, out=p, mode="clip")
            e[:H].take(ls, out=q, mode="clip")
            np.multiply(p, q, out=p)
            np.multiply(m, c, out=im)  # delta_n = (c_hi n - fl(cn)) + c_lo n
            np.multiply(m, c_hi, out=re)
            np.subtract(re, im, out=re)
            np.multiply(m, c_lo, out=im)
            np.add(im, re, out=im)
            np.multiply(im, p.imag, out=re)  # P (1 - i delta_n)
            np.multiply(im, p.real, out=im)
            np.add(p.real, re, out=re)
            np.subtract(p.imag, im, out=im)
            part = (re.sum(), im.sum()) if w is None else (w @ re, w @ im)
            total = part if total is None else (total[0] + part[0], total[1] + part[1])
        if weights is None:
            return complex(*total)
        return total[0] + 1j * total[1]
    return at


def exp_sum(ns: np.ndarray, alpha, weights: np.ndarray = None):
    """sum over n in ns of e(alpha n), or sum_n W[i, n] e(alpha n) for each
    row of a 2-D real weight matrix W over ns: at one alpha a complex, or an
    array with one entry per row of W; at a 1-D array of alphas one such
    value per alpha.

    One alpha is an array of one.  The alphas are cut into one contiguous
    piece per worker (at most WORKERS), which sums it with _direct where ns
    take no tables and else loops a _kernel of its own over it, so each sum
    is bitwise the one its alpha gets alone.  More than one piece runs on
    threads of the call's own, joined before it returns, so callers on
    threads of their own share nothing.  The digit indices, built once a
    call and shared read-only (24 bytes a point), the workers' buffers (48
    bytes a point of a TERM_CHUNK pass) and the output are checked against
    physical memory before any is allocated."""
    alphas = np.atleast_1d(np.asarray(alpha, dtype=float))
    ranges = _split(len(alphas), WORKERS)
    most = max((hi - lo for lo, hi in ranges), default=0)  # the most a worker sums
    rows = 1 if weights is None else len(weights)
    shape = _table_shape(ns)
    if shape is None:  # each worker's direct block
        shared, worker = 0, 16 * min(most * len(ns), max(PLACE_CHUNK, len(ns)))
    else:
        # a point's digits and float, shared, and a point of each worker's
        # pass, its P and Q or one direct alpha past PHASE_LIMIT; a table
        # point, shared, and each worker's transient tables
        entries = shape[1] + shape[2]
        shared = 24 * len(ns) + 8 * entries
        worker = 48 * min(len(ns), TERM_CHUNK) + 64 * entries
    require_memory(shared + worker * len(ranges) + 16 * rows * len(alphas),
                   f"{rows} sums at {len(alphas)} alphas over {len(ns)} points")
    digits = None if shape is None else _digits(ns, shape)
    out = np.empty(len(alphas) if weights is None else (len(alphas), rows), dtype=complex)

    def task(piece):
        if digits is None:
            out[slice(*piece)] = _direct(ns, weights, alphas[slice(*piece)])
        else:
            kernel = _kernel(ns, weights, digits)
            for i in range(*piece):
                out[i] = kernel(alphas[i])

    _on_workers(task, ranges, "exp_sum")
    return out if np.ndim(alpha) else out[0]


def exp_sum_at(subset: PrimeSubset, alpha):
    """T*(alpha), at one alpha or at each of a 1-D array of alphas."""
    return exp_sum(subset.members, alpha)


def _physical_memory():
    """Bytes of physical memory, or None where the platform does not say."""
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return None


def require_memory(need: int, what: str) -> None:
    """Raise CapacityError when `need` bytes would not fit in physical
    memory; callers check before they allocate."""
    have = _physical_memory()
    if have is not None and need > have:
        raise CapacityError(f"{what} needs {need} bytes, above the {have} "
                            "bytes of physical memory")


#: most grid points a sweep visits; the 2^29-point grid of N = 10^7 fits,
#: and a grid past it is refused instead of swept for hours
SWEEP_BUDGET = 1 << 32


def _phases(m: np.ndarray, Q: int) -> np.ndarray:
    """e(m/Q) for integers m already reduced mod Q."""
    return np.exp(TWO_PI * 1j * (m / Q))


def grid_blocks(points: np.ndarray, weights, length: int, G: int):
    """sum_s w_s e(s j/G) for 0 <= j <= G/2 over the ascending integer
    points s of [0, length), each with its real weight w_s (an array over
    the points, or one weight for every point), in blocks handed to a
    consumer.

    Checks and plans the sweep and returns run(consume).  run calls
    consume(j, sums, mirror) once per swept residue and returns the list of
    its results in residue order: j is a slice of half-circle indices with
    an explicit step and sums holds the sums at them, so sums[i] belongs to
    j.start + j.step i.  mirror is None or the block of a second residue as
    (j, top, sign), its sums mirrored(top, sign) = sign conj(top[::-1]),
    never materialised; top may be sums itself.  The blocks cover every
    0 <= j <= G/2 once.  sums and top are views of a worker's buffer, valid
    only during the call, and consume runs on the worker's thread, so it
    reduces them there and returns something small.  The weights are real,
    so the sum at j > G/2 is the conjugate of the one at G - j.

    The grid G = R L is swept by residue (the four-step FFT): for
    j = r + R k, the sum is sum_s [w_s e(s r/G)] e(s k/L), one FFT per
    residue of the twisted weights added up at s mod L, with s r reduced
    mod G exactly in int64 and e(m/G) read as e(m_hi 2^b/G) e(m_lo/G) from
    two tables at exact phases, 2^b about sqrt(G).  The transform length n
    is the smallest power of two at or above max(#points, PLACE_CHUNK): the
    count sets the memory, and the floor keeps a few points from taking
    G/4 residues.  n is capped at the power of two at or above length
    (>= 2), or at half of it when every point has one parity c and it is
    at least 4; then L = 2n and s = 2t + c halves it: the FFT has length n
    over the weights added up at t mod n, times e(ck/L), and its top half
    k >= n is (-1)^c times its bottom half.  Otherwise L = n.  L = G (R = 1) when L does not
    divide G.  Points spanning more than L, G included, are folded as they
    are swept: points that share a slot add up, a stretch within one
    period of L at a time, whose slots are distinct.  Residue 0 is one real
    FFT of length L of the weights added up mod L, on the calling thread;
    residue R - r is the mirror of the top half of residue r, so only
    r <= R/2 is transformed.  Residues 1..R/2 are cut into one contiguous
    piece per worker (at most WORKERS, and no more than physical memory
    holds at 48 n bytes each, beside the shared twist and twiddle tables),
    and each worker transforms its residues in place in one buffer of its
    own, allocated once a sweep, so memory stays O(n) a worker whatever G,
    and every sum is bitwise the same whatever the thread count.  Raises
    ValueError for complex weights and for G < 1, and CapacityError, before
    any work, past SWEEP_BUDGET points or when not even one worker would
    fit in physical memory."""
    if np.iscomplexobj(weights):
        raise ValueError("grid sums take real weights")
    if G < 1:
        raise ValueError(f"grid size {G} must be >= 1")
    if G > SWEEP_BUDGET:
        raise CapacityError(f"a grid of {G} points is above the sweep budget "
                            f"of {SWEEP_BUDGET} points")
    weights = np.broadcast_to(weights, points.shape)
    # s r stays in int64 for 0 <= s < length and r <= R/2: either L >= span
    # > s and s r < G/2, or n >= PLACE_CHUNK, so r <= G/2^13 <= 2^19 within
    # the budget and s r < length 2^19 < 2^63 for any length below 2^44.
    # e(s r/G) depends only on s mod G, so points spanning more than G need no
    # fold of their own.  When every s has one parity c, s = 2t + c
    # and sum_s u_s e(sk/L) = e(ck/L) sum_s u_s e(tk/(L/2)): the bottom half
    # is a length-L/2 FFT of the weights at t mod L/2 times e(ck/L), the top
    # half (-1)^c times it
    span = 1 << max(1, (length - 1).bit_length())
    parity = points & 1
    h = int(span >= 4 and len(points) > 0 and bool((parity == parity[0]).all()))
    c = int(parity[0]) if h else 0
    n = min(span >> h, 1 << (max(len(points), PLACE_CHUNK) - 1).bit_length())
    L = n << h
    if G % L:
        L = G
    R = G // L
    half = G // 2 + 1
    # a worker holds its buffer of n complex values, and pocketfft two
    # working arrays as long beside it while it transforms: 48 n bytes.
    # The twist e(k/L), k < n, and the two twiddle tables (e(m/G) for m =
    # m_hi 2^b + m_lo read as their product) are shared.  Residues 1..R/2
    # go to as many workers as that leaves room for, one contiguous piece
    # each
    b = (G.bit_length() + 1) // 2
    need = 48 * n
    shared = 16 * ((1 << b) + ((G - 1) >> b) + 1 + (n if c else 0))
    have = _physical_memory()
    workers = WORKERS if have is None else max(1, min(WORKERS, (have - shared) // need))
    pieces = [(lo + 1, hi + 1) for lo, hi in _split(R // 2, workers)]
    require_memory(shared + need * len(pieces),
                   f"{len(pieces)} sweep workers of {n} points for a grid of {G} points")

    def run(consume):
        # e(sk/L) depends only on s mod L: points that share s mod L add up
        sums = np.fft.rfft(np.bincount(points % L, weights, minlength=L))
        # the FFT carries e(-sk/L)
        done = [consume(slice(0, half, R), np.conj(sums, out=sums), None)]
        del sums
        slots = (points >> h) % n
        # a stretch of points within one period [a L, (a + 1) L),
        # at most PLACE_CHUNK of them, lands on distinct slots; a bound
        # found twice gives an empty stretch, which is skipped
        bounds = np.sort(np.concatenate((
            np.searchsorted(points, np.arange(L, length, L)),
            np.r_[0 : len(points) : PLACE_CHUNK, len(points)]))).tolist()
        stretches = [slice(lo, hi) for lo, hi in zip(bounds, bounds[1:]) if lo < hi]
        # e(m/G) = e(m_hi 2^b/G) e(m_lo/G), each table at exact phases
        low = _phases(np.arange(1 << b), G)
        lo_mask = (1 << b) - 1
        high = _phases(np.arange(((G - 1) >> b) + 1) << b, G)
        twist = _phases(np.arange(n), L) if c else None  # e(k/L), k < L/2
        sign = -1 if c else 1
        # the workers' buffers come from the calling thread: memory freed
        # on a worker stays with that thread's malloc arena, which at
        # N = 10^6 held 16 MB more at the peak
        bufs = np.empty((len(pieces), n), dtype=complex)

        def residues(task):
            piece, buf = task
            block = buf[: L // 2]
            # residue R - r is sign conj(top[::-1]): the top half buf[L/2:],
            # or the block itself at n = L/2
            top = block if h else buf[L // 2:]
            out = []
            for r in range(*piece):
                buf.fill(0.0)
                for at in stretches:
                    m = points[at] * r % G
                    terms = high[m >> b]
                    terms *= low[m & lo_mask]
                    terms *= weights[at]
                    buf[slots[at]] += terms
                np.fft.ifft(buf, norm="forward", out=buf)  # sum_s u_s e(+(s >> h)k/n)
                if c:
                    buf *= twist
                mirror = (slice(R - r, half, R), top, sign) if 2 * r < R else None
                out.append(consume(slice(r, half, R), block, mirror))
            return out

        for part in _on_workers(residues, list(zip(pieces, bufs)), "sweep"):
            done += part
        return done
    return run


def mirrored(top: np.ndarray, sign: int, out: np.ndarray = None) -> np.ndarray:
    """sign conj(top[::-1]): the sums of the mirror block a sweep passes
    as (j, top, sign), written into out when it is given."""
    out = np.conjugate(top[::-1], out=out)
    if sign < 0:
        np.negative(out, out=out)
    return out


def grid_sums(values: np.ndarray, G: int) -> np.ndarray:
    """The dense half circle of grid_blocks: sum_i values[i] e(i j/G) at
    every 0 <= j <= G/2, each block and mirror written into its own
    slice.  Raises CapacityError, before anything of grid size is
    allocated, when the G//2 + 1 outputs would not fit in physical
    memory."""
    require_memory(16 * (G // 2 + 1), f"a grid of {G} points")
    points = np.flatnonzero(values)
    # grid_blocks checks its input before out exists
    run = grid_blocks(points, values[points], len(values), G)
    out = np.empty(G // 2 + 1, dtype=complex)

    def write(j, sums, mirror):
        out[j] = sums
        if mirror:
            j, top, sign = mirror
            mirrored(top, sign, out[j])

    run(write)
    return out


#: most |2 pi W s| a moment expansion reaches, s a sample's offset from its
#: piece's midpoint and W the half width of the support.  A reach of 1
#: keeps the float error's factor e^reach near 2.7 and the moment rows at
#: 19, 8 bytes a member each; a cover piece then spans about 460 A samples
MOMENT_REACH = 1.0

#: terms of a moment expansion: the first m with MOMENT_REACH^m/m! < 2^-53
MOMENT_ORDER = next(m for m in range(1, 200)
                    if MOMENT_REACH ** m / math.factorial(m) < 2.0 ** -53)


def exp_sums_on_progression(subset: PrimeSubset, Q: int, ks) -> np.ndarray:
    """T*((2k + 1)/Q) for each k of the ascending, distinct, non-negative
    sample indices ks, from Taylor moments about c = (min P* + max P*)/2.

    With W = (max P* - min P*)/2, ks is cut into pieces of consecutive k
    with 2 pi W (k_hi - k_lo)/Q <= R = MOMENT_REACH.  About a piece's
    midpoint x = ((k_lo + k_hi + 1) mod Q)/Q, formed from integers, a
    sample is x + s with |2 pi W s| <= R, and with ORDER = MOMENT_ORDER

        T*(x + s) = e(c s) sum_{m < ORDER} mu_m (2 pi i W s)^m / m!,
        mu_m = sum_p e(p x) ((p - c)/W)^m,

    by Horner's rule.  The rows ((p - c)/W)^m, in [-1, 1], are built once
    a call, after a check against physical memory, and the moments of
    every piece come from one exp_sum call at the midpoints, so no sample
    depends on the thread count.  With T0 = |P*| and u = 2^-53, the error
    is at most T0 R^ORDER/ORDER! (ORDER + 1)/(ORDER + 1 - R) < u T0 from
    the truncation, about e^R (TERM_ERROR + ORDER u) T0 from the floats,
    and about 2 pi N u T0 from rounding x to a float alpha, as for
    exp_sum_at.  Raises ValueError for Q < 1 and for bad ks, and
    CapacityError when the rows would not fit in physical memory.
    """
    Q = int(Q)
    ks = np.asarray(ks, dtype=np.int64)
    if Q < 1:
        raise ValueError(f"Q={Q} must be >= 1")
    if len(ks) and (ks[0] < 0 or np.any(np.diff(ks) <= 0)):
        raise ValueError("sample indices must be ascending, distinct and >= 0")
    if len(ks) == 0:
        return np.empty(0, dtype=complex)
    P = subset.members
    lo, hi = int(P.min()), int(P.max())
    c, W = (lo + hi) / 2, max(hi - lo, 1) / 2  # W > 0 for one member too
    # a piece holds at most `step` samples and starts where a run's
    # position is 0 mod step
    step = min(int(MOMENT_REACH * Q / (TWO_PI * W)) + 1, len(ks))
    starts = np.flatnonzero(np.diff(ks, prepend=-2) != 1)  # the runs of ks
    pos = np.arange(len(ks)) - np.repeat(starts, np.diff(starts, append=len(ks)))
    first = pos % step == 0
    k_lo, k_hi = ks[first], ks[np.append(first[1:], True)]
    piece = np.cumsum(first) - 1
    mids = [(a + b + 1) % Q / Q for a, b in zip(k_lo.tolist(), k_hi.tolist())]
    require_memory(8 * MOMENT_ORDER * len(P), f"{MOMENT_ORDER} moment rows over {len(P)} points")
    rows = np.ones((MOMENT_ORDER, len(P)))
    np.cumprod(np.broadcast_to((P - c) / W, rows[1:].shape), axis=0, out=rows[1:])
    mu = exp_sum(P, mids, rows)
    # 2 pi s = 2 pi (2k - k_lo - k_hi)/Q, each difference exact in int64
    t = TWO_PI * (((ks - k_lo[piece]) - (k_hi[piece] - ks)) / float(Q))
    z = 1j * W * t
    acc = mu[piece, MOMENT_ORDER - 1]
    for m in range(MOMENT_ORDER - 1, 0, -1):
        acc = acc * (z / m) + mu[piece, m - 1]
    return np.exp(1j * c * t) * acc


@dataclass(frozen=True)
class SpectrumGrid:
    """The samples of T* on the half circle 0 <= j <= G/2 of the grid j/G,
    G a power of two >= N, with |T*| >= floor: values[i] = T*(index[i]/G)
    in ascending index."""
    subset: PrimeSubset
    G: int
    values: np.ndarray = field(repr=False)
    index: np.ndarray = field(repr=False)
    floor: float

    def above(self, threshold: float) -> tuple[np.ndarray, np.ndarray]:
        """(j, |T*(j/G)|) for every half-circle j with |T*(j/G)| >= threshold,
        ascending in j.  Raises ValueError for a threshold below the floor,
        where samples are missing."""
        if threshold < self.floor:
            raise ValueError(f"threshold {threshold} lies below the grid's "
                             f"floor {self.floor}")
        mags = np.abs(self.values)
        keep = np.flatnonzero(mags >= threshold)
        return self.index[keep], mags[keep]


def grid_size(N: int, G=None) -> int:
    """The grid of a spectrum at N: 32 samples per 1/N arc width, rounded up
    to a power of two, or a given G once it is checked to be a power of two
    at or above N."""
    if G is None:
        return 1 << max(0, (32 * N - 1).bit_length())
    if G < N:
        raise ValueError(f"grid size {G} is below N={N}")
    if G & (G - 1):
        raise ValueError(f"grid size {G} is not a power of two")
    return G


def spectrum(subset: PrimeSubset, A: float, G=None) -> SpectrumGrid:
    """The samples with |T*| >= T*(0)/A on the half circle of the grid j/G
    (grid_size(N, G)), the ones a cusp search at that A or a smaller one
    reads.  The members go to the residue sweep of grid_blocks at unit
    weight, as points of [0, N], with no dense indicator.  Each worker
    tests each block against the floor whole, once for a block and its
    mirror when the mirror reads the block itself, and keeps copies of the
    samples above it; the kept samples are counted against physical memory
    a block at a time as the sweep goes.  Memory stays O(N) whatever
    G, plus the kept samples; raises CapacityError once those would not
    fit in physical memory."""
    G = grid_size(subset.N, G)
    if not 1 <= A < math.inf:
        raise ValueError(f"A={A} must be finite and >= 1")
    floor = float(subset.size) / A
    run = grid_blocks(subset.members, 1.0, subset.N + 1, G)
    lock = threading.Lock()
    kept = 0

    def count(more):
        nonlocal kept
        with lock:
            kept += more
            total = kept
        # a kept sample costs 24 bytes as it is gathered and at most 56 in
        # the sort below; a small floor keeps almost the whole half circle
        require_memory(56 * total, f"{total} samples above T*(0)/{A} of a grid of {G} points")

    def keep(j, sums, mirror):
        at = np.flatnonzero(np.abs(sums) >= floor)
        index, values = [j.start + j.step * at], [sums[at]]
        if mirror:
            jm, top, sign = mirror
            if top is not sums:
                at = np.flatnonzero(np.abs(top) >= floor)
            # top[i] lands at mirror position len(top) - 1 - i
            index.append(jm.start + jm.step * (len(top) - 1 - at[::-1]))
            values.append(mirrored(top[at], sign))
        count(sum(map(len, index)))
        return index, values

    blocks = run(keep)
    index = np.concatenate([i for got, _ in blocks for i in got])
    values = np.concatenate([v for _, got in blocks for v in got])
    order = np.argsort(index)
    return SpectrumGrid(subset, G, values[order], index[order], floor)


def l1_estimate(sums: np.ndarray, G: int) -> float:
    """Riemann sum for the L1 norm of T* from its half circle grid_sums(.., G);
    compare against sqrt(N/log N).  The half circle counts its interior
    samples twice."""
    absvals = np.abs(sums)
    return float((2.0 * absvals.sum() - absvals[0] - absvals[-1]) / G)


# -- local model -----------------------------------------------------------


def rough_integers(ctx: PrimeContext, N: int, z0) -> np.ndarray:
    """Ascending n <= N with no prime factor below z0 (n=1 included)."""
    return np.flatnonzero(ctx.sifted_mask(N, z0)).astype(np.int64)


def local_model_full(ctx: PrimeContext, N: int, z0, alpha):
    """(1 / (V(z0) log N)) sum over z0-rough n <= N of e(n alpha): the
    rough-number proxy for the prime exponential sum, at one alpha or, as
    exp_sum takes them, at a 1-D array of alphas."""
    V = float(ctx.mertens_product(z0))
    return exp_sum(rough_integers(ctx, N, z0), alpha) / (V * math.log(N))


# -- interval polynomial ---------------------------------------------------


@dataclass(frozen=True)
class IntervalPolynomial:
    """Fejer-weighted Fourier truncation of an interval indicator on the
    circle.  coeffs[H + h] = a_H(h); a_H(0) = |I| and
    |a_H(h)| <= min(|I|, 1/(pi |h|))."""
    lo: float
    hi: float
    H: int
    coeffs: np.ndarray = field(repr=False)

    @property
    def length(self) -> float:
        return (self.hi - self.lo) % 1.0

    def coeff(self, h: int) -> complex:
        if abs(h) > self.H:
            return 0j
        return complex(self.coeffs[self.H + h])

    def __call__(self, x):
        """The polynomial's real value at x or at each x of a 1-D array:
        Re sum_h c_h e(h x) = Re S(Re c) - Im S(Im c), both sums from one
        exp_sum."""
        hs = np.arange(-self.H, self.H + 1)
        sums = exp_sum(hs, x, np.stack((self.coeffs.real, self.coeffs.imag)))
        return sums[..., 0].real - sums[..., 1].imag


def fejer_interval_polynomial(lo: float, hi: float, H: int) -> IntervalPolynomial:
    """Interval polynomial of degree H for the arc [lo, hi] (wrap allowed)."""
    if H < 1:
        raise ValueError(f"H={H} must be >= 1")
    length = (hi - lo) % 1.0
    hs = np.arange(-H, H + 1)
    coeffs = np.empty(2 * H + 1, dtype=complex)
    coeffs[H] = length
    nz = hs != 0
    h = hs[nz]
    raw = (np.exp(-TWO_PI * 1j * h * lo) - np.exp(-TWO_PI * 1j * h * (lo + length))) \
        / (TWO_PI * 1j * h)
    coeffs[nz] = raw * (1.0 - np.abs(h) / (H + 1.0))
    return IntervalPolynomial(lo, hi, H, coeffs)
