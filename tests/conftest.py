import os

# one BLAS thread, set before numpy loads OpenBLAS: tier-1's timing and
# equality checks are measured this way, and threads that share the cores
# with other work slow the budgeted acceptance criteria several-fold
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np
import pytest


@pytest.fixture
def grid_norm_oracle():
    """||e^{A t}||_2 at np.linspace(0, horizon, grid), to 40 digits.

    mpmath's `expm` gives e^{Ah}, h = horizon/(grid - 1), and a chain of
    40-digit products gives e^{Akh}.  Each norm is ||X v|| at 40 digits
    for the unit top right singular vector v of X rounded to floats:
    ||X v|| <= ||X||, short of it by about ||X|| theta^2 for v's angle
    error theta, a few ulps over the relative singular-value gap.
    Returns floats.
    """
    mpmath = pytest.importorskip("mpmath")

    def oracle(a, horizon, grid):
        with mpmath.workdps(40):
            x = mpmath.eye(a.shape[0])
            if grid > 1:
                step = mpmath.expm(mpmath.matrix(a.tolist())
                                   * (mpmath.mpf(horizon) / (grid - 1)))
            norms = []
            for k in range(grid):
                if k:
                    x = x * step
                v = np.linalg.svd(np.array(x.tolist(), dtype=float))[2][0]
                v = mpmath.matrix(v.tolist())
                norms.append(float(mpmath.norm(x * (v / mpmath.norm(v)))))
        return np.array(norms)

    return oracle
