"""Composite Gauss-Legendre quadrature with adaptive panel refinement.

Integrands throughout the package are smooth exponentials (possibly matrix
valued), so fixed-order Gauss-Legendre panels converge extremely fast; the
error estimate is the difference between a run and the same run with the
panel count doubled.  `refine` is that one doubling rule, and every
integral in the package goes through it with an evaluator that takes a
whole refinement level at once: the Gramian and observation energy in
`semigroup` from batched node exponentials, and `integrate_adaptive`'s
callers from the arrays (nodes, weights) of one level.
"""

import functools

import numpy as np

# doublings `refine` tries before it gives up
_MAX_DOUBLINGS = 10


class QuadratureError(RuntimeError):
    """Raised when refinement cannot meet the requested tolerance."""


@functools.lru_cache(maxsize=None)
def gauss_legendre_rule(npts):
    """Nodes and weights on [-1, 1], built once per npts and read-only."""
    rule = np.polynomial.legendre.leggauss(npts)
    for arr in rule:
        arr.setflags(write=False)
    return rule


def panel_nodes(a, b, panels, npts):
    """All nodes and weights for `panels` equal panels of [a, b].

    Returns (nodes, weights) as flat arrays of length panels*npts.
    """
    x, w = gauss_legendre_rule(npts)
    edges = np.linspace(a, b, panels + 1)
    h = (edges[1:] - edges[:-1]) / 2.0
    mid = (edges[1:] + edges[:-1]) / 2.0
    nodes = (mid[:, None] + h[:, None] * x[None, :]).ravel()
    weights = (h[:, None] * w[None, :]).ravel()
    return nodes, weights


def integrate_adaptive(f, a, b, panels=32, npts=8, rel_tol=1e-10):
    """Integrate on [a, b], doubling panels until the estimate settles.

    f(nodes, weights) gets the flat arrays of one level, from
    `panel_nodes(a, b, k, npts)`, and returns that level's weighted sum
    (a scalar or an ndarray); the stopping rule is `refine`'s.  Returns
    (value, error_estimate); an empty interval integrates to zero.
    """
    if b < a:
        raise ValueError("integration interval is reversed")
    return refine(lambda k: f(*panel_nodes(a, b, k, npts)), panels,
                  rel_tol=rel_tol)


def refine(level, panels, rel_tol=1e-10, abs_tol=0.0, first=None):
    """The doubling rule: compare level(k) with level(2k) until they agree.

    level(k) is the composite rule with k panels, a scalar or an ndarray,
    evaluated over all of its nodes at once; `first` is level(panels) if
    already evaluated.
    Convergence requires err <= rel_tol * |value| + abs_tol; the absolute
    term lets callers whose integrand carries evaluation noise (e.g.
    cancellation inside a matrix exponential) declare a floor below which
    disagreement is meaningless.  Returns (value, error_estimate).
    """
    prev = level(panels) if first is None else first
    for _ in range(_MAX_DOUBLINGS):
        panels *= 2
        cur = level(panels)
        err = np.linalg.norm(np.asarray(cur - prev))
        scale = max(np.linalg.norm(np.asarray(cur)), 1e-300)
        if err <= rel_tol * scale + abs_tol:
            return cur, float(err)
        prev = cur
    raise QuadratureError(
        f"quadrature failed to reach rel_tol={rel_tol} after "
        f"{_MAX_DOUBLINGS} refinements (last estimate {err:.3e})")
