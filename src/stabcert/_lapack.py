"""The package's real Schur and Lyapunov solves, called on LAPACK directly.

`real_schur` is one `dgees` call, and `lyapunov` is that Schur form and
one `dtrsyl` call: the Bartels-Stewart algorithm, with scipy's products
around it, so both return the bytes of `scipy.linalg.schur(a, "real")`
and `scipy.linalg.solve_continuous_lyapunov` on float64 input, without
their per-call wrapping.  `dgees`'s workspace size comes from an
unsorted query made once per matrix order, the size scipy queries on
every call, so its Hessenberg reduction keeps its blocking.  A `trsyl`
that perturbs the equation to solve it (an eigenvalue pair of a summing
to about 0) is reported as a flag, not as a warning.
"""

import functools

import numpy as np
from scipy.linalg import lapack


def _stable(re, im):
    return re < 0.0


@functools.lru_cache(maxsize=None)
def _workspace(n):
    """dgees's optimal lwork at order n; the query reads n alone."""
    work = lapack.dgees(_stable, np.zeros((n, n)), lwork=-1)[-2]
    return int(work[0])


def _require_finite(a):
    if not np.isfinite(a).all():
        raise ValueError("array must not contain infs or NaNs")


def real_schur(a, stable_first):
    """(T, Z, sdim) with a = Z T Z^T, T quasi-upper triangular.

    With `stable_first` the sdim eigenvalues with re < 0.0 lead T (a
    conjugate pair counts 2); otherwise T is unsorted and sdim is 0.
    Raises ValueError on a non-finite entry, before LAPACK runs, and
    np.linalg.LinAlgError where the QR algorithm or the reordering
    fails, with scipy's texts.
    """
    _require_finite(a)
    n = a.shape[0]
    t, sdim, _, _, z, _, info = lapack.dgees(
        _stable, a, sort_t=int(stable_first), lwork=_workspace(n))
    if info == n + 1:
        raise np.linalg.LinAlgError(
            "Eigenvalues could not be separated for reordering.")
    if info == n + 2:
        raise np.linalg.LinAlgError(
            "Leading eigenvalues do not satisfy sort condition.")
    if info > 0:
        raise np.linalg.LinAlgError(
            "Schur form not found. Possibly ill-conditioned.")
    return t, z, sdim


def lyapunov(a, q):
    """(X, perturbed): X solves a X + X a^T = q.

    `perturbed` is `trsyl`'s info == 1: an eigenvalue pair of a sums to
    about 0, and X solves a perturbed equation (scipy warns there).
    Raises as `real_schur` does, q too being checked for non-finite
    entries before LAPACK runs.
    """
    _require_finite(q)
    r, u, _ = real_schur(a, stable_first=False)
    f = u.conj().T.dot(q.dot(u))
    y, scale, info = lapack.dtrsyl(r, r, f, tranb="T")
    y *= scale
    return u.dot(y).dot(u.conj().T), info == 1
