"""Composite Gauss-Legendre quadrature with adaptive panel refinement.

Integrands throughout the package are smooth exponentials (possibly matrix
valued), so fixed-order Gauss-Legendre panels converge extremely fast; the
error estimate is the difference between a run and the same run with the
panel count doubled.  `refine` is that one doubling rule.  It takes a
per-level evaluator, so a caller with batched node exponentials (the
Gramian and observation energy in `semigroup`) evaluates a whole level at
once; `integrate_adaptive` feeds it a pointwise integrand node by node.
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


def pointwise_level(f, a, b, npts, vector=False):
    """Per-level evaluator for `refine` that visits the nodes one at a time.

    f maps a scalar t to a scalar (or to an ndarray when vector=True).
    """
    def run(k):
        nodes, weights = panel_nodes(a, b, k, npts)
        if vector:
            acc = None
            for t, w in zip(nodes, weights):
                term = w * f(t)
                acc = term if acc is None else acc + term
            return acc
        return sum(w * f(t) for t, w in zip(nodes, weights))

    return run


def integrate_adaptive(f, a, b, panels=32, npts=8, rel_tol=1e-10,
                       vector=False):
    """Integrate f on [a, b], doubling panels until the estimate settles.

    f maps a scalar t to a scalar (or to an ndarray when vector=True); the
    stopping rule is `refine`'s.  Returns (value, error_estimate).
    """
    if b < a:
        raise ValueError("integration interval is reversed")
    if b == a:
        zero = f(a) * 0.0 if vector else 0.0
        return zero, 0.0
    return refine(pointwise_level(f, a, b, npts, vector), panels,
                  rel_tol=rel_tol)


def refine(level, panels, rel_tol=1e-10, abs_tol=0.0, first=None):
    """The doubling rule: compare level(k) with level(2k) until they agree.

    level(k) is the composite rule with k panels, a scalar or an ndarray;
    callers that can evaluate a whole level at once (batched node values)
    pass it directly, and `first` is level(panels) if already evaluated.
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
