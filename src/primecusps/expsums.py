"""Prime exponential sums and their local model.

Every sum of w_n e(alpha n) over integer points is evaluated here, except
the phase matrices of cusps.large_sieve_check and
IntervalPolynomial.__call__: exp_sum at one alpha (one phase vector, one
dot product per weight vector), exp_sum_at for T*(alpha) = sum over the
prime subset of e(p alpha), exp_sums_on_progression at any ascending
samples of an arithmetic progression by chirp-z (one kernel serves every
block of consecutive samples, so transference evaluates a whole cover in
one call), and grid_blocks at every j/G.  Real weights make
the sum at -alpha the conjugate of the sum at alpha, so grid_blocks covers
only the half circle 0 <= j <= G/2, on one path: it sweeps G = R L by the
residues r <= R/2 of j mod R, one real FFT for r = 0 and one complex
length-L FFT for each other r, in O(L) memory (L the power of two at or
above the support when that divides G, else L = G and R = 1).  Each
consumer keeps what it needs: grid_sums the dense half circle (the
spectrum command and l1_estimate), spectrum(subset, A, G) a SpectrumGrid
of only the samples with |T*| >= T*(0)/A, and
transference.sharp_sup_report a running maximum.  grid_size gives the
default 32N grid or checks a given one.  The local model replaces the
primes by z0-rough integers weighted by 1/(V(z0) log N).
fejer_interval_polynomial builds a trigonometric polynomial for an interval
indicator; only acceptance criterion 10 checks it.
"""
from __future__ import annotations

import math
import os
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


def _range_primes(ctx: PrimeContext, N: int, pmin=None) -> np.ndarray:
    if N < 100:
        raise ValueError(f"N={N} must be >= 100")
    if N > ctx.limit:
        raise CapacityError(f"N={N} exceeds prime table limit {ctx.limit}")
    ps = ctx.primes_below(N + 1)
    if pmin is None:
        keep = ps.astype(np.int64) ** 2 >= N
    else:
        keep = ps >= pmin
    return ps[keep].astype(np.int64)


def subset_full(ctx: PrimeContext, N: int, pmin=None) -> PrimeSubset:
    """All primes in [sqrt(N), N] (or [pmin, N] when a cutoff is given)."""
    return PrimeSubset(N, _range_primes(ctx, N, pmin), "full")


def subset_sqrt2(ctx: PrimeContext, N: int, pmin=None) -> PrimeSubset:
    """Primes p in range with {p sqrt(2)} <= 1/2, decided in fixed point."""
    ps = _range_primes(ctx, N, pmin)
    keep = [((int(p) * _SQRT2_FIX) & _FRAC_MASK) <= _HALF_FIX for p in ps]
    return PrimeSubset(N, ps[np.array(keep)], "sqrt2")


def subset_random(ctx: PrimeContext, N: int, density: float = 0.5,
                  seed: int = 0, pmin=None) -> PrimeSubset:
    """Seeded random subsequence of the range primes at the given density."""
    if not 0 < density <= 1:
        raise ValueError(f"density={density} must lie in (0, 1]")
    ps = _range_primes(ctx, N, pmin)
    rng = np.random.default_rng(seed)
    keep = rng.random(len(ps)) < density
    return PrimeSubset(N, ps[keep], f"random({density}, seed={seed})")


def exp_sum(ns: np.ndarray, alpha: float, *weights: np.ndarray):
    """sum over n in ns of e(alpha n) as a complex, or, given weight
    vectors, a tuple holding sum_n w_n e(alpha n) for each one.  One phase
    vector serves every weight vector."""
    phases = np.exp(TWO_PI * 1j * alpha * ns)
    if not weights:
        return complex(phases.sum())
    return tuple(complex(np.dot(w, phases)) for w in weights)


def exp_sum_at(subset: PrimeSubset, alpha: float) -> complex:
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


def _residue_blocks(values: np.ndarray, G: int, L: int, offset: int):
    R = G // L
    half = G // 2 + 1
    support = np.flatnonzero(values)
    weights = values[support]
    # |shift| < G and r <= R/2, so |shift r| < G^2/4 <= 2^62 within the budget
    shift = support - offset % G
    # e((i - offset) k/L) depends only on (i - offset) mod L, and the support
    # is distinct mod L: in those slots the FFT carries the offset itself
    slots = shift % L
    real = np.zeros(L)
    real[slots] = weights
    sums = np.fft.rfft(real)
    del real
    yield slice(0, half, R), np.conj(sums, out=sums)  # the FFT carries e(-sk/L)
    del sums
    twisted = np.zeros(L, dtype=complex)  # zero off the slots at every residue
    for r in range(1, R // 2 + 1):
        twisted[slots] = weights * _phases(shift * r % G, G)
        full = np.fft.ifft(twisted, norm="forward")  # sum_s u_s e(+sk/L)
        yield slice(r, half, R), full[: L // 2]
        if 2 * r < R:  # residue R - r: the reversed conjugate of the top half
            yield slice(R - r, half, R), np.conj(full[: L // 2 - 1 : -1])
        del full  # before the next transform allocates its own


def grid_blocks(values: np.ndarray, G: int, offset: int = 0):
    """sum_i values[i] e((i - offset) j/G) for 0 <= j <= G/2, in blocks.

    Returns an iterator of (j, sums) pairs: j is a slice of half-circle
    indices with an explicit step and sums holds the sums at them, so
    sums[i] belongs to j.start + j.step i; the blocks cover every
    0 <= j <= G/2 once.  The weights are real, so the sum at j > G/2 is the
    conjugate of the one at G - j.  A support longer than G is folded in
    mod G first, since e(i j/G) has period G in i.  The grid G = R L is
    swept by residue (the four-step FFT), with L the smallest power of two
    (>= 2) at or above the support when that divides G, and L = G (R = 1)
    otherwise: for j = r + R k, the sum is
    sum_i [values[i] e((i - offset) r/G)] e((i - offset) k/L), one length-L
    FFT per residue of the twisted weights placed at (i - offset) mod L,
    with (i - offset) r reduced mod G exactly in int64.  Residue 0 is one
    real FFT; residue R - r is the reversed conjugate of residue r, so only
    r <= R/2 is transformed, and memory stays O(L).  Raises ValueError for
    complex weights and CapacityError, before any work, past SWEEP_BUDGET
    points."""
    if np.iscomplexobj(values):
        raise ValueError("grid sums take real weights")
    if G < 1:
        raise ValueError(f"grid size {G} must be >= 1")
    if G > SWEEP_BUDGET:
        raise CapacityError(f"a grid of {G} points is above the sweep budget "
                            f"of {SWEEP_BUDGET} points")
    if len(values) > G:
        values = np.pad(values, (0, -len(values) % G)).reshape(-1, G).sum(axis=0)
    L = 1 << max(1, (len(values) - 1).bit_length())
    return _residue_blocks(values, G, G if G % L else L, offset)


def grid_sums(values: np.ndarray, G: int, offset: int = 0) -> np.ndarray:
    """The dense half circle of grid_blocks: sum_i values[i] e((i - offset)
    j/G) at every 0 <= j <= G/2.  Raises CapacityError, before anything of
    grid size is allocated, when the G//2 + 1 outputs would not fit in
    physical memory."""
    require_memory(16 * (G // 2 + 1), f"a grid of {G} points")
    blocks = grid_blocks(values, G, offset)  # checks its input before out exists
    out = np.empty(G // 2 + 1, dtype=complex)
    for j, sums in blocks:
        out[j] = sums
    return out


#: samples per chirp-z block; each block costs FFTs of length >= N + block
PROGRESSION_BLOCK = 1 << 15


def exp_sums_on_progression(subset: PrimeSubset, j0: int, step: int, Q: int,
                            ks) -> np.ndarray:
    """T*((j0 + step k)/Q) for each k of the ascending, distinct, non-negative
    sample indices ks, by Bluestein's chirp-z transform.

    With W = e(step/Q), p k = (p^2 + k^2 - (k - p)^2)/2 turns the sum into
    W^(k^2/2) sum_p [e(p j0/Q) W^(p^2/2)] W^(-(k-p)^2/2): one FFT
    convolution per block of consecutive k.  ks is cut into blocks at every
    gap and every PROGRESSION_BLOCK samples; the chirp and the kernel FFT
    are built once, at the longest block, and each block costs two in-place
    FFTs in one working array, so memory stays O(N + block).  Every phase is
    reduced exactly in int64 to a multiple of 1/(2Q) before exp rounds it,
    so the error does not grow with j0 or k.  Raises CapacityError when
    2Q(N + block) reaches 2^63 or a block would not fit in physical memory.
    """
    j0, step, Q = int(j0), int(step), int(Q)
    ks = np.asarray(ks, dtype=np.int64)
    if Q < 1:
        raise ValueError(f"Q={Q} must be >= 1")
    if len(ks) and (ks[0] < 0 or np.any(np.diff(ks) <= 0)):
        raise ValueError("sample indices must be ascending, distinct and >= 0")
    N = subset.N
    starts = np.flatnonzero(np.diff(ks, prepend=-2) != 1)  # the runs of ks
    ends = np.append(starts[1:], len(ks))
    block = min(int((ends - starts).max(initial=0)), PROGRESSION_BLOCK)
    if 2 * Q * (N + block) >= 1 << 63:
        raise CapacityError(f"phases mod 2Q={2 * Q} at N={N} overflow int64")
    if len(ks) == 0:
        return np.empty(0, dtype=complex)
    L = 1 << (N + block - 1).bit_length()       # L >= N + block: no aliasing
    # the kernel and the working array of L complex values, the chirp and
    # the phases made from it
    require_memory(32 * L + 32 * max(N + 1, block), f"a chirp-z block of length {L}")
    kernel, u = np.empty((2, L), dtype=complex)
    out = np.empty(len(ks), dtype=complex)
    Q2 = 2 * Q
    m = np.arange(max(N + 1, block), dtype=np.int64)
    chirp = (step % Q * m % Q2) * m % Q2        # step m^2 mod 2Q
    kernel[:block] = np.exp(-TWO_PI * 1j * (chirp[:block] / Q2))
    kernel[block : L - N] = 0.0
    kernel[L - N:] = np.exp(-TWO_PI * 1j * (chirp[N:0:-1] / Q2))
    np.fft.fft(kernel, out=kernel)
    P = subset.members
    for lo, hi in zip(starts.tolist(), ends.tolist()):
        for b in range(lo, hi, block):
            kb = min(block, hi - b)
            jb = (j0 + step * int(ks[b])) % Q
            u.fill(0.0)
            u[P] = np.exp(TWO_PI * 1j * (((2 * (P * jb % Q) + chirp[P]) % Q2) / Q2))
            np.fft.fft(u, out=u)
            u *= kernel
            np.fft.ifft(u, out=u)
            out[b : b + kb] = np.exp(TWO_PI * 1j * (chirp[:kb] / Q2)) * u[:kb]
    return out


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
    reads, swept by grid_blocks over the member indicator.  Memory stays
    O(N) whatever G, plus the kept samples; raises CapacityError once those
    would not fit in physical memory."""
    G = grid_size(subset.N, G)
    if not 1 <= A < math.inf:
        raise ValueError(f"A={A} must be finite and >= 1")
    floor = float(subset.size) / A
    index, values, kept = [], [], 0
    for j, sums in grid_blocks(subset.indicator(), G):
        keep = np.flatnonzero(np.abs(sums) >= floor)
        kept += len(keep)
        # a kept sample costs 24 bytes as it is gathered and at most 56 in
        # the sort below; a small floor keeps almost the whole half circle
        require_memory(56 * kept, f"{kept} samples above T*(0)/{A} of a grid of {G} points")
        index.append(j.start + j.step * keep)
        values.append(sums[keep])
    index = np.concatenate(index)
    values = np.concatenate(values)
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


def local_model_full(ctx: PrimeContext, N: int, z0, alpha: float,
                     _rough=None) -> complex:
    """(1 / (V(z0) log N)) sum over z0-rough n <= N of e(n alpha): the
    rough-number proxy for the prime exponential sum."""
    ns = rough_integers(ctx, N, z0) if _rough is None else _rough
    V = float(ctx.mertens_product(z0))
    return exp_sum(ns, alpha) / (V * math.log(N))


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
        hs = np.arange(-self.H, self.H + 1)
        phases = np.exp(TWO_PI * 1j * np.multiply.outer(np.asarray(x, dtype=float), hs))
        return (phases @ self.coeffs).real


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
