"""Computational analytic number theory around prime exponential sums.

Exact enveloping-sieve weights and their Ramanujan-sum expansion, FFT
spectra of prime subsets, detection and structure checks of the cusps
where |T*(alpha)| is large, numerically verified large-sieve
inequalities, and the Bohr-set transference decomposition of the prime
indicator into a sieve-dense part plus a spectrally small part.
"""

from .arith import (
    CapacityError,
    FareyPoint,
    PrimeContext,
    WeightedPoint,
    build_context,
    circle_distance,
    extract_well_spaced,
    farey_points,
)
from .gfunctions import (
    G_CONSTANT,
    explicit_estimate_report,
    g_bracket,
    g_sifted,
    g_value,
    xi_value,
)
from .sieve import (
    SieveParams,
    SieveWeights,
    beta_direct,
    beta_fourier,
    beta_fourier_many,
    build_weights,
    wq_bound_report,
)
from .expsums import (
    IntervalPolynomial,
    PrimeSubset,
    SpectrumGrid,
    exp_sum,
    exp_sum_at,
    fejer_interval_polynomial,
    grid_sums,
    local_model_full,
    spectrum,
    subset_full,
    subset_random,
    subset_sqrt2,
)
from .cusps import (
    CuspArc,
    CuspReport,
    companion_search,
    find_cusps,
    large_sieve_check,
    dilated_large_sieve_check,
    rational_shift_check,
    structure_check,
)
from .transference import (
    BohrSet,
    Cover,
    Decomposition,
    build_bohr,
    build_cover,
    cusp_suppression_report,
    decompose,
    transform_checks,
)
from .report import CheckRow, all_clean
from .verify import run_suite

__version__ = "0.1.0"

__all__ = [
    "BohrSet", "CapacityError", "CheckRow", "Cover", "CuspArc", "CuspReport",
    "Decomposition", "FareyPoint", "G_CONSTANT", "IntervalPolynomial",
    "PrimeContext", "PrimeSubset", "SieveParams", "SieveWeights",
    "SpectrumGrid", "WeightedPoint", "all_clean", "beta_direct",
    "beta_fourier", "beta_fourier_many", "build_bohr", "build_context",
    "build_cover", "build_weights", "circle_distance", "companion_search",
    "cusp_suppression_report", "decompose", "exp_sum", "exp_sum_at",
    "explicit_estimate_report", "extract_well_spaced", "farey_points",
    "fejer_interval_polynomial", "find_cusps", "g_bracket", "g_sifted",
    "g_value", "grid_sums", "large_sieve_check", "local_model_full",
    "dilated_large_sieve_check", "rational_shift_check", "run_suite",
    "spectrum", "structure_check", "subset_full", "subset_random",
    "subset_sqrt2", "transform_checks", "wq_bound_report", "xi_value",
]
