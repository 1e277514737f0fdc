"""Semigroup evaluation, observation energies and observability Gramians.

Dense matrix exponentials go through scipy's scaling-and-squaring Pade
implementation; diagonal systems use exact exponentials.  Gramians come
either from the closed-form diagonal expression or from adaptive composite
Gauss-Legendre quadrature with an embedded error estimate.

The dense quadratures (the Gramian and the observation energy) use batched
node exponentials: equal panels share their Gauss offsets, so the node
t = t_p + h(1 + x_j) has e^{Mt} R = e^{M t_p} (e^{M h(1 + x_j)} R), and
one batched `expm` per chunk of panels gives the offset and panel-start
exponentials of a refinement level that no earlier level computed.  Each
node is formed as these two products, never as a power chain, whose
rounding grows with the panel count.  Diagonal systems take exact
`np.exp` on panels graded towards 0.

Every dense node exponential comes from an `ExpTable`, keyed by the exact
float time: a level of 2P panels finds level P's panel starts there
(horizon * 2p / 2P == horizon * p / P in floating point), the Gramian's
floor and the energy's amplitude probe find eight of their nine times
among the first level's starts, and Gramians of several horizons of one A
(a `weakobs.sweep_alpha` call) share node times such as p/64 and equal
Gauss offsets.  A table computes each miss as one slice of a batched
`expm(M[None] * t)`, and `expm` treats every slice on its own, so a value
read from a table is bit for bit the value a fresh call would give.  A
table lives no longer than the call that builds it: one energy, one
Gramian, one weakobs decision, one sweep, whose table of A also gives
e^{A^T T} as the transpose of its e^{A T} and whose witness energies
share a table of A^T, or one concatenated steering, whose segments'
energies share a table of (A - beta I)^T.  Nothing is cached between
calls.

Every Gramian carries its factor R, G = R^T R, accumulated as
R <- qr([R; S^T]) over the weighted node values S, so a direction v with
v^T e^{At} B = 0 keeps ||R v|| at the QR's rounding (`floor`).  Van Loan's
block exponential yields G, not R, and leaves rounding of about
u ||G|| e^{2T} there: on random dense pairs with an uncontrollable mode at
+1 it failed `GramianResult`'s PSD check at T = 4, and a
base-step-plus-doubling variant certified T = 4 entries that the
quadrature refutes.

Grid norms ||e^{At}||_2 on an equispaced grid t_k = k h, h = T/(grid - 1)
(decay curves, and through `grid_peak` envelope fits and closed-loop
rates) come from one stack: one `expm` gives E = e^{Ah}, and binary
doubling fills the stack level by level, e^{A(f + k)h} = e^{Akh} E_f for
k < f with E_f = e^{Afh}, f = 1, 2, 4, ..., then squares E_2f = E_f^2.
So e^{Akh} is a product of one factor per set bit of k, at most
ceil(log2 grid) (8 for grid = 200), and each factor is at most that many
squarings deep: rounding grows with log2 k, not with k as in a power
chain E^k.  One batched SVD reads the norms; a diagonal A takes the
exact e^{lambda_max t}.  If that SVD fails, or a norm is not finite (an
entry overflowed to inf without any nan), `grid_norms` and `grid_peak`
raise a fresh `LinAlgError` once the stack is dropped, as the one numpy
raises keeps the SVD's frame, and with it the stack, alive in any caller
that keeps the exception.  Arbitrary time lists (bound checks, the
Gramian's floor probe) go through `transition_norms`, one batched `expm`
and one batched SVD per few times, equal to the per-time loop, which
raises on a non-finite norm too.

Envelope fits and closed-loop overshoots need only the peak
max_k ||e^{A t_k}||_2 e^{r t_k}, which `grid_peak` returns as the same
float as the `grid_norms` fold.  It builds the same stack and bounds every
slice X by ||X||_2 <= ||X||_F ||(Y^T Y)^2||_F^(1/4), Y = X/||X||_F (the
right side is ||X||_F (sum sigma_i(Y)^8)^(1/8); scaling by ||X||_F keeps
it from overflowing or underflowing).  Each bound times e^{r t_k} and
1 + 1e-10, which covers the few n u by which the computed bound and
LAPACK's singular value can stray, is at least that slice's folded
value.  The SVD then runs in descending order of bound and stops once no
bound left exceeds the running maximum: every slice passed over holds a
value no larger than the maximum, so the maximizer is never passed over,
and ties return the same float.  A non-finite bound is never passed over,
and a stack with a non-finite entry takes the SVD of every slice, as
`grid_norms` does, which raises.  On `perfbench` feedback jobs 1.3 of 200
slices per closed loop and 4.6 per envelope fit reach the SVD on average;
an orthogonal e^{At}, whose bound n^(1/8) exceeds its norm 1, sends all
200.

Neither is accurate on closed loops with ||A + BK|| of about 1e6 and more
(ROADMAP item 4): on `perfbench` feedback job 1 of seed 11 (n = 10) at
mu = 4, ||A + BK|| = 9.5e6 and the true overshoot is 6.2e8 (50- and
80-digit oracles agree), while the per-time loop reads 4.3e15 and
doubling 7.4e14.
"""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.linalg import expm

from ._quadrature import (QuadratureError, gauss_legendre_rule,
                          panel_nodes, refine)
from .systems import LtiSystem, ProjectionFamily, SpectralSystem

__all__ = [
    "QuadratureSpec",
    "QuadratureError",
    "GramianResult",
    "ExpTable",
    "TailCheckReport",
    "propagate",
    "transition_matrix",
    "transition_norms",
    "grid_norms",
    "grid_peak",
    "observation_energy",
    "observability_gramian",
    "dissipative_tail_check",
]


@dataclass(frozen=True)
class QuadratureSpec:
    panels: int = 32
    nodes_per_panel: int = 8
    rel_tol: float = 1e-10

    def __post_init__(self):
        if self.panels < 1:
            raise ValueError("panels must be >= 1")
        if self.nodes_per_panel < 2:
            raise ValueError("nodes_per_panel must be >= 2")
        if self.rel_tol <= 0:
            raise ValueError("rel_tol must be positive")


DEFAULT_QUAD = QuadratureSpec()

# panels per batched expm call; bounds the exponentials held at once
_CHUNK = 64
# grid times per batched expm and SVD in `transition_norms`.  Small on
# purpose: a caller that keeps a raised exception keeps its traceback's
# frames, and with them the last chunk's stack, until a full collection
_NORM_CHUNK = 8
# slices per bound evaluation in `grid_peak`: bounds the temporaries
_BOUND_CHUNK = 16
# covers the gap, a few n u relative, between the computed bound and
# LAPACK's computed largest singular value
_BOUND_SAFETY = 1.0 + 1e-10


@dataclass(frozen=True)
class GramianResult:
    """Symmetric PSD matrix of the observation-energy quadratic form."""

    matrix: np.ndarray
    horizon: float
    quadrature_error_estimate: float
    factor: np.ndarray      # upper-triangular R with R^T R = matrix
    floor: float            # ||R phi|| at or below this is rounding

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        scale = max(np.abs(m).max(), 1e-300)
        if np.abs(m - m.T).max() > 1e-12 * scale:
            raise ValueError("gramian must be symmetric")
        sym = 0.5 * (m + m.T)
        sym.setflags(write=False)
        object.__setattr__(self, "matrix", sym)
        if self.horizon <= 0:
            raise ValueError("horizon must be positive")
        eigs = np.linalg.eigvalsh(sym)
        if eigs.min() < -1e-12 * max(np.trace(sym), 1e-300):
            raise ValueError("gramian must be positive semidefinite")

    def quad_form(self, phi):
        phi = np.asarray(phi, dtype=float)
        return float(phi @ self.matrix @ phi)


def transition_matrix(sys: LtiSystem, t: float, adjoint: bool = False):
    """e^{A t} (or e^{A^T t}); exact exponentials on diagonal systems."""
    if t < 0:
        raise ValueError("propagation time must be nonnegative")
    a = sys.a_matrix
    if sys.is_diagonal:
        mat = np.diag(np.exp(np.diag(a) * t))
    else:
        mat = expm(a * t)
    return mat.T if adjoint else mat


def transition_norms(sys: LtiSystem, times) -> np.ndarray:
    """||e^{A t}||_2 at every time of a grid.

    Equal to `np.linalg.norm(transition_matrix(sys, t), 2)` time by time:
    each chunk of at most _NORM_CHUNK times is one batched `expm` (or the
    same diagonal stack) and one batched spectral norm.  A failing SVD
    raises `LinAlgError` as the per-time loop does, and so does a norm
    that is not finite.
    """
    times = np.asarray(times, dtype=float)
    if (times < 0).any():
        raise ValueError("propagation time must be nonnegative")
    norms = np.empty(times.size)
    for first in range(0, times.size, _NORM_CHUNK):
        t = times[first:first + _NORM_CHUNK]
        stack = _exp_stack(sys.a_matrix, t, sys.is_diagonal)
        norms[first:first + t.size] = _spectral_norms(stack)
    return norms


def grid_norms(sys: LtiSystem, horizon: float, grid: int) -> np.ndarray:
    """||e^{A t}||_2 at every t of `np.linspace(0, horizon, grid)`.

    Binary doubling from one e^{Ah}, h = horizon/(grid - 1), into one
    stack of grid n x n matrices (see the module docstring), then one
    batched SVD; a diagonal A gives the exact e^{lambda_max t}.  A failing
    SVD or a non-finite norm raises a fresh `LinAlgError` that keeps no
    reference to the stack.
    """
    _check_grid(horizon, grid)
    if sys.is_diagonal:
        return np.exp(np.diag(sys.a_matrix).max()
                      * np.linspace(0.0, horizon, grid))
    return _read_grid_stack(sys, horizon, grid, _spectral_norms)


def grid_peak(sys: LtiSystem, horizon: float, grid: int,
              rate: float) -> float:
    """max_k ||e^{A t_k}||_2 e^{rate t_k} over `np.linspace(0, horizon, grid)`.

    The same float as folding `grid_norms` with
    `max(norm * math.exp(rate * t))`, but the SVD runs only on slices
    whose certified bound can still exceed the running maximum (see the
    module docstring).  A stack with a non-finite entry, and a diagonal A,
    take the full fold, and a failure raises as `grid_norms` does.
    """
    _check_grid(horizon, grid)
    times = np.linspace(0.0, horizon, grid).tolist()

    def fold(norms):
        return float(max(norm * math.exp(rate * t)
                         for t, norm in zip(times, norms)))

    def peak(stack):
        if np.isfinite(stack).all():
            return _pruned_peak(stack, [math.exp(rate * t) for t in times])
        return fold(_spectral_norms(stack))

    if sys.is_diagonal:
        return fold(grid_norms(sys, horizon, grid))
    return _read_grid_stack(sys, horizon, grid, peak)


def _check_grid(horizon, grid):
    if grid < 1:
        raise ValueError("grid must be >= 1")
    if horizon < 0:
        raise ValueError("propagation time must be nonnegative")


def _read_grid_stack(sys, horizon, grid, read):
    """read(stack) of e^{A t} at every t of `np.linspace(0, horizon, grid)`.

    The stack is filled by doubling.  A `LinAlgError` from `read` is
    raised afresh, with its message, once the stack is dropped: numpy's
    own keeps the SVD's frame, and with it the stack, alive in any caller
    that keeps the exception.
    """
    stack = np.empty((grid,) + sys.a_matrix.shape)
    stack[0] = np.eye(sys.n)
    if grid > 1:
        power = transition_matrix(sys, horizon / (grid - 1))
        stack[1] = power
        filled = 2
        while filled < grid:
            power = power @ power
            k = min(filled, grid - filled)
            np.matmul(stack[:k], power, out=stack[filled:filled + k])
            filled += k
    try:
        return read(stack)
    except np.linalg.LinAlgError as exc:
        message = str(exc)
    del stack
    raise np.linalg.LinAlgError(message)


def _spectral_norms(stack):
    """||X||_2 of every slice X; `LinAlgError` if one is not finite."""
    norms = np.linalg.norm(stack, 2, axis=(1, 2))
    if not np.isfinite(norms).all():
        raise np.linalg.LinAlgError("transition matrix norm is not finite")
    return norms


def _pruned_peak(stack, scale):
    """max_k ||stack[k]||_2 scale[k] for a finite stack.

    Bounds every slice by ||X||_F ||(Y^T Y)^2||_F^(1/4), Y = X/||X||_F,
    in chunks of _BOUND_CHUNK slices, then takes SVDs in batches of 1, 2,
    4, ... _NORM_CHUNK slices in descending order of bound until no bound
    left exceeds the maximum.  A non-finite bound is never passed over.
    """
    bound = np.empty(len(stack))
    with np.errstate(over="ignore", invalid="ignore"):
        for first in range(0, len(stack), _BOUND_CHUNK):
            x = stack[first:first + _BOUND_CHUNK]
            fro = np.sqrt(np.einsum("kij,kij->k", x, x))
            y = x / fro[:, None, None]
            g = np.matmul(y.transpose(0, 2, 1), y)
            g2 = np.matmul(g, g)
            bound[first:first + len(x)] = fro * np.einsum(
                "kij,kij->k", g2, g2) ** 0.125
        bound *= np.array(scale) * _BOUND_SAFETY
    bound[np.isnan(bound)] = np.inf
    order = np.argsort(-bound, kind="stable")
    peak, first, size = 0.0, 0, 1
    while first < order.size and bound[order[first]] > peak:
        batch = order[first:first + size]
        for k, norm in zip(batch.tolist(), _spectral_norms(stack[batch])):
            peak = max(peak, norm * scale[k])
        first += size
        size = min(2 * size, _NORM_CHUNK)
    return float(peak)


def _exp_stack(m, times, diagonal):
    """e^{M t} at every t: a batched `expm`, or exact diagonal `np.exp`."""
    if not diagonal:
        return expm(m[None] * times[:, None, None])
    diag = np.arange(m.shape[0])
    stack = np.zeros((times.size,) + m.shape)
    stack[:, diag, diag] = np.exp(np.diag(m)[None] * times[:, None])
    return stack


class ExpTable:
    """e^{M t} for one matrix M, each exact float t exponentiated once.

    `stack(times)` looks every time up and computes the misses in one
    `_exp_stack` call, so a value equals a fresh `_exp_stack` at that t.
    A table holds one n x n matrix per distinct time it was asked for.
    """

    def __init__(self, m, diagonal=False):
        self.matrix = m
        self.diagonal = diagonal
        self._values = {}

    def stack(self, times):
        keys = np.asarray(times, dtype=float).tolist()
        miss = [t for t in dict.fromkeys(keys) if t not in self._values]
        if miss:
            self._values.update(zip(miss, _exp_stack(
                self.matrix, np.array(miss), self.diagonal)))
        return np.stack([self._values[t] for t in keys])


def _own_table(table, m, diagonal, name):
    """`table` if it is an ExpTable of exactly M, a fresh one if None."""
    if table is None:
        return ExpTable(m, diagonal)
    if table.diagonal != diagonal or not np.array_equal(table.matrix, m):
        raise ValueError(f"table is not one of this system's {name}")
    return table


def propagate(sys: LtiSystem, t: float, x, adjoint: bool = False):
    """Evaluate e^{A t} x (adjoint=True gives e^{A^T t} x)."""
    x = np.asarray(x, dtype=float)
    if x.shape[0] != sys.n:
        raise ValueError(f"state dimension {x.shape[0]} != {sys.n}")
    if not np.isfinite(t):
        raise ValueError("propagation time must be finite")
    return transition_matrix(sys, t, adjoint=adjoint) @ x


def observation_energy(sys: LtiSystem, horizon: float, phi,
                       quad: Optional[QuadratureSpec] = None, *,
                       table: Optional[ExpTable] = None) -> float:
    """Integral over [0, horizon] of ||B^T e^{A^T t} phi||^2.

    By the change of variable s = horizon - t this equals the squared
    L^2(0, horizon) norm of the observed adjoint trajectory started from
    phi at the far end.  `table`, an ExpTable of A^T, lets energies of one
    A share node exponentials; values do not depend on it.
    """
    if horizon <= 0:
        raise ValueError("horizon must be positive")
    quad = quad or DEFAULT_QUAD
    phi = np.asarray(phi, dtype=float)
    a_t, bt = sys.a_matrix.T, sys.b_matrix.T
    table = _own_table(table, a_t, sys.is_diagonal, "A^T")
    # the probe times but T are panel starts of the first level
    amp = max(np.linalg.norm(e @ phi)
              for e in table.stack(np.linspace(0.0, horizon, 9)))

    def level(panels):
        total = 0.0
        for f, w in _node_values(a_t, phi[:, None], horizon, panels,
                                 quad.nodes_per_panel, sys.is_diagonal,
                                 table):
            total += float(np.sum((bt @ f) ** 2, axis=0) @ w)
        return total

    # cancellation inside the propagated state caps meaningful resolution:
    # noise delta in y puts 2 ||B^T y|| delta + delta^2 into ||B^T y||^2,
    # at most 2 delta sqrt(T E) + delta^2 T once integrated
    delta = 1e-13 * np.linalg.norm(bt, 2) * amp
    first = level(quad.panels)
    noise_floor = (delta**2 * horizon
                   + 2.0 * delta * np.sqrt(horizon * max(first, 0.0)))
    value, _ = refine(level, quad.panels, rel_tol=quad.rel_tol,
                      abs_tol=noise_floor, first=first)
    return float(value)


def _node_values(m, r, horizon, panels, npts, diagonal=False, table=None):
    """Yield (e^{M t} R at the nodes, node weights) chunk by chunk.

    The nodes are those of `panels` equal Gauss-Legendre panels of
    [0, horizon], at most _CHUNK panels per chunk.  Values come as one
    n x (nodes * r) matrix whose columns i*r .. i*r + r - 1 belong to
    node i.  Per chunk, `table` (an ExpTable of M; call-local if None)
    gives the npts shared offset exponentials and the chunk's panel-start
    exponentials, computing those no earlier level or chunk asked for.

    A diagonal M takes exact exponentials at any node: its panels are equal
    in s, t = horizon s^4, which resolves a stiff decay e^{-|lambda| t} with
    a few dozen panels where equal panels in t need |lambda| horizon.
    """
    n = m.shape[0]
    if diagonal:
        s, ws = panel_nodes(0.0, 1.0, panels, npts)
        for first in range(0, s.size, _CHUNK * npts):
            part = s[first:first + _CHUNK * npts]
            e = np.exp(np.diag(m)[:, None] * (horizon * part**4))
            yield ((e[:, :, None] * r[:, None, :]).reshape(n, -1),
                   ws[first:first + part.size] * 4.0 * horizon * part**3)
        return
    table = ExpTable(m) if table is None else table
    x, w = gauss_legendre_rule(npts)
    h = horizon / (2.0 * panels)
    offsets = h * (1.0 + x)
    for first in range(0, panels, _CHUNK):
        p = np.arange(first, min(first + _CHUNK, panels))
        e = table.stack(np.concatenate([offsets, horizon * p / panels]))
        local = (e[:npts] @ r).transpose(1, 0, 2).reshape(n, -1)
        values = e[npts:] @ local
        yield values.transpose(1, 0, 2).reshape(n, -1), np.tile(h * w, p.size)


def _diagonal_gramian(lam, b, horizon):
    """Closed form for diag(lam): G_ij = <b_i, b_j>(e^{(li+lj)T}-1)/(li+lj)."""
    inner = b @ b.T
    s = lam[:, None] + lam[None, :]
    small = np.abs(s) * horizon < 1e-8
    with np.errstate(divide="ignore", invalid="ignore"):
        factor = (np.exp(s * horizon) - 1.0) / s
    # series limit T + s T^2/2 avoids cancellation near s = 0
    factor = np.where(small, horizon + s * horizon**2 / 2.0, factor)
    return inner * factor


def observability_gramian(sys: LtiSystem, horizon: float,
                          quad: Optional[QuadratureSpec] = None,
                          method: str = "auto", *,
                          table: Optional[ExpTable] = None) -> GramianResult:
    """G(T) = int_0^T e^{A t} B B^T e^{A^T t} dt, with its factor R.

    <G phi, phi> equals observation_energy(sys, T, phi).  method is one of
    "auto" (closed form when A is diagonal), "closed_form", "quadrature";
    it picks the matrix, R always comes from the quadrature, whose levels
    are compared on R^T R (R has a sign ambiguity), and whose level-to-
    level difference is the error estimate either way.  `table`, an
    ExpTable of A, lets Gramians of one A share node exponentials; values
    do not depend on it.  Afterwards it holds e^{A T}.
    """
    if horizon <= 0:
        raise ValueError("horizon must be positive")
    quad = quad or DEFAULT_QUAD
    if method not in ("auto", "closed_form", "quadrature"):
        raise ValueError(f"unknown method {method!r}")
    if method == "closed_form" and not sys.is_diagonal:
        raise ValueError("closed form requires a diagonal system")
    use_closed = method == "closed_form" or (method == "auto"
                                             and sys.is_diagonal)
    a, b, n = sys.a_matrix, sys.b_matrix, sys.n
    table = _own_table(table, a, sys.is_diagonal, "A")
    factor = None

    def level(panels):
        nonlocal factor
        factor = np.zeros((n, n))
        for f, w in _node_values(a, b, horizon, panels,
                                 quad.nodes_per_panel, sys.is_diagonal,
                                 table):
            s = f * np.repeat(np.sqrt(w), b.shape[1])
            factor = np.linalg.qr(np.vstack([factor, s.T]), mode="r")
        return factor.T @ factor

    value, err = refine(level, quad.panels, rel_tol=quad.rel_tol)
    if use_closed:
        value = _diagonal_gramian(np.diag(a), b, horizon)
    # the QR's rounding: n u ||B|| a_T sqrt(T), a_T = max ||e^{At}|| on
    # [0, T], probed where `transition_norms` would; the probe times but T
    # are panel starts of the first level
    probe = table.stack(np.linspace(0.0, horizon, 9))
    a_t = np.linalg.norm(probe, 2, axis=(1, 2)).max()
    floor = n * np.finfo(float).eps * np.linalg.norm(b, 2) * a_t
    return GramianResult(0.5 * (value + value.T), horizon, float(err),
                         factor, float(floor * np.sqrt(horizon)))


@dataclass(frozen=True)
class TailCheckReport:
    worst_ratio: float
    per_k: dict
    violations: tuple

    @property
    def passed(self):
        return len(self.violations) == 0


def dissipative_tail_check(spec: SpectralSystem, fam: ProjectionFamily,
                           t_grid, samples: int = 100,
                           seed: int = 0) -> TailCheckReport:
    """Verify the tail decay bound on random states over a time grid.

    For each projection entry the check evaluates
    ||(I-P_k) e^{A^* t} phi|| / (M_k e^{-alpha_k t} ||phi||) on `samples`
    random unit states and every grid time; violations are reported in the
    result, never raised.
    """
    rng = np.random.default_rng(seed)
    lam = spec.eigenvalues
    n = lam.shape[0]
    t_grid = np.asarray(list(t_grid), dtype=float)
    worst = 0.0
    per_k = {}
    violations = []
    for k in fam.ks:
        m, m_k, alpha_k = fam.entry(k)
        ratios = []
        for _ in range(samples):
            phi = rng.standard_normal(n)
            phi /= np.linalg.norm(phi)
            for t in t_grid:
                tail = np.exp(lam[m:] * t) * phi[m:]
                lhs = np.linalg.norm(tail)
                bound = (m_k * np.exp(-alpha_k * t)
                         if np.isfinite(alpha_k) else 0.0)
                if bound == 0.0:
                    ratio = 0.0 if lhs == 0.0 else np.inf
                else:
                    ratio = lhs / bound
                ratios.append(ratio)
                if ratio > 1.0 + 1e-12:
                    violations.append((k, float(t), float(ratio)))
        per_k[k] = max(ratios)
        worst = max(worst, per_k[k])
    return TailCheckReport(worst_ratio=float(worst), per_k=per_k,
                           violations=tuple(violations))
