import time

import pytest

from primecusps import cusps as cu
from primecusps import expsums as ex
from primecusps.arith import build_context
from primecusps.verify import CUSP_GRID_A, _criterion_subsets


@pytest.fixture(scope="session")
def ctx():
    # one shared table; large enough for every test and the acceptance gate
    return build_context(120_000)


@pytest.fixture(scope="session")
def cusp_grid(ctx):
    """The criterion grid of the verify cusp suite: {(label, N): (subset,
    spectrum, {A: report})} over its full, sqrt2 and seed-42 random subsets
    at N = 10^4 and 10^5, one spectrum at max(CUSP_GRID_A) each, plus the
    wall-clock seconds spent inside find_cusps."""
    out = {}
    elapsed = 0.0
    for N in (10_000, 100_000):
        for subset in _criterion_subsets(ctx, N):
            grid = ex.spectrum(subset, max(CUSP_GRID_A))
            t0 = time.monotonic()
            reports = {A: cu.find_cusps(grid, A) for A in CUSP_GRID_A}
            elapsed += time.monotonic() - t0
            out[(subset.label, N)] = (subset, grid, reports)
    return out, elapsed
