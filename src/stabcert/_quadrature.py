"""Composite Gauss-Legendre quadrature with adaptive panel refinement.

Integrands throughout the package are smooth exponentials (possibly matrix
valued), so fixed-order Gauss-Legendre panels converge extremely fast; the
error estimate is the difference between a run and the same run with the
panel count doubled.  `refine_each` is that one doubling rule, run on
several integrals in lockstep, and `refine` is it on one; every integral
in the package goes through it with an evaluator that takes a whole
refinement level at once: a stack of Gramians in `semigroup` from
batched node exponentials that its horizons share, the observation
energy, and `integrate_adaptive`'s callers from the arrays (nodes,
weights) of one level.
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
    `refine_each` of one integral.
    """
    return refine_each(lambda counts: [level(counts[0])], [panels],
                       rel_tol, abs_tol,
                       None if first is None else [first])[0]


def refine_each(level, panels, rel_tol=1e-10, abs_tol=0.0, first=None):
    """`refine` of several integrals in lockstep, each on its own test.

    level(counts) evaluates one level of every integral at once: counts[i]
    is integral i's panel count, None once it has settled, and the result
    holds its value at every i whose count is not None.  Integral i starts
    at panels[i] and doubles; `first`, if given, is the first level.  Each
    settles when level(2k) agrees with level(k) as in `refine`, and
    returns what `refine` returns for it alone; the first to use up its
    doublings raises its own QuadratureError.  Returns
    [(value, error_estimate)].
    """
    counts = list(panels)
    prev = [None] * len(panels)
    out = [None] * len(panels)
    step = 0
    while True:
        cur = level(counts) if step or first is None else first
        for i, k in enumerate(counts):
            if k is None:
                continue
            if step:
                err = np.linalg.norm(np.asarray(cur[i] - prev[i]))
                scale = max(np.linalg.norm(np.asarray(cur[i])), 1e-300)
                if err <= rel_tol * scale + abs_tol:
                    out[i] = (cur[i], float(err))
                    continue
                if step == _MAX_DOUBLINGS:
                    raise QuadratureError(
                        f"quadrature failed to reach rel_tol={rel_tol} "
                        f"after {_MAX_DOUBLINGS} refinements (last "
                        f"estimate {err:.3e})")
            prev[i] = cur[i]
        if all(out):
            return out
        counts = [None if done else 2 * k for done, k in zip(out, counts)]
        step += 1
