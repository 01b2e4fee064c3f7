"""Computational analytic number theory around prime exponential sums.

Exact enveloping-sieve weights and their Ramanujan-sum expansion, FFT
spectra of prime subsets, detection and structure checks of the cusps
where |T*(alpha)| is large, numerically verified large-sieve
inequalities, and the Bohr-set transference decomposition of the prime
indicator into a sieve-dense part plus a spectrally small part.
"""

__version__ = "0.1.0"
