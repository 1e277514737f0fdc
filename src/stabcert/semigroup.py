"""Semigroup evaluation, observation energies and observability Gramians.

Dense matrix exponentials go through scipy's scaling-and-squaring Pade
implementation; diagonal systems use exact exponentials.  Gramians come
from adaptive composite Gauss-Legendre quadrature with an embedded error
estimate.

The dense quadratures (the Gramian and the observation energy) use batched
node exponentials: equal panels share their Gauss offsets, so the node
t = t_p + h(1 + x_j) has e^{Mt} R = e^{M t_p} (e^{M h(1 + x_j)} R), and
one batched `expm` per chunk of panels gives the offset and panel-start
exponentials of a refinement level that no earlier level computed.  Each
node is formed as these two products, never as a power chain, whose
rounding grows with the panel count.  Diagonal systems take exact
`np.exp` on panels graded towards 0.

A dense Gramian or energy on [0, T] starts `refine` at
P = min(quad.panels, 2^ceil(log2(T ||M||_F))) panels, 1 when
T ||M||_F <= 1, M being the matrix it exponentiates.  A first-level
panel is then at most 1/||M||_F wide whatever T is, so the first level
meets the integrand's growth or oscillation at one relative scale (the
Gauss-Legendre error on analytic integrands: Trefethen, *Approximation
Theory and Approximation Practice*, Thm 19.3); `refine`'s doubling check
is unchanged, and `quad.panels` is the most a first level uses.  Beyond
T ||M||_F = 16 this is quad.panels; (M, T) -> (2^k M, T/2^k) keeps P.
Diagonal systems start at quad.panels on their graded panels.

Every dense node exponential comes from an `ExpTable`, keyed by the exact
float time: a level of 2P panels finds level P's panel starts there
(horizon * 2p / 2P == horizon * p / P in floating point), the Gramian's
floor and the energy's amplitude probe find eight of their nine times
among the panel starts of any level with 8 panels or more, and Gramians of
several horizons of one A (a `weakobs.sweep_alpha` call) share node times:
dyadic horizons below the cap get one panel width T/P, hence one set of
Gauss offsets and one grid of panel starts.  A table computes each miss as
one slice of a batched `expm(M[None] * t)`, and `expm` treats every slice
on its own, so a value read from such a table is bit for bit the value a
fresh call would give; a lookup is one fancy-index gather from the table's
array of slices.  A view `table.shifted(s)` stands for M + sI and computes
each of its misses as e^{st} times the table's slice, so no (M + sI) t
reaches `expm`; its values are exact only in exact arithmetic, and carry
the rounding of that product besides the slice's own.  A view
`table.transposed()` stands for M^T and computes each miss as the table's
slice transposed, with no arithmetic, so its values are the table's slices
transposed, bit for bit.  A table lives no longer than the call that
builds it: one energy, one Gramian, one weakobs decision, one sweep, whose
table of A also gives e^{A^T T} as the transpose of its e^{A T} and,
through its transposed view, every node exponential of the witness
energies, or one concatenated steering, whose table of A serves the forms'
Gramian and, through a view shifted by -beta, the Gramian of A - beta I
that weights the segments' energies.  A steering that fails drops its
table before the error leaves the call.  Nothing is cached between calls.

A Gramian is its factor R, G = R^T R, accumulated as R <- qr([R; S^T])
over the weighted node values S, so a direction v with v^T e^{At} B = 0
keeps ||R v|| at the QR's rounding (`floor`); G is formed only when read.
Van Loan's block exponential yields G, not R, and leaves rounding of about
u ||G|| e^{2T} there: on random dense pairs with an uncontrollable mode at
+1 its G had eigenvalues below -1e-12 trace(G) at T = 4, and a
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
that keeps the exception.

Envelope fits and closed-loop overshoots need only the peak
max_k ||e^{A t_k}||_2 e^{r t_k}, which `grid_peak` returns as the same
float as the `grid_norms` fold.  It builds the same stack and screens
every slice X by ||X||_2 <= ||X||_F, one einsum over the stack, then
seeds the running maximum with the SVD of the slice of largest screen.
Only the slices whose screen still exceeds that maximum take the
sharper bound ||X||_2 <= ||X||_F ||(Y^T Y)^2||_F^(1/4), Y = X/||X||_F
(the right side is ||X||_F (sum sigma_i(Y)^8)^(1/8); scaling by ||X||_F
keeps it from overflowing or underflowing), in blocks of
`_BOUND_BLOCK_BYTES` of slices, so that each temporary, 6400 float64,
stays in L2 (256 slices at n = 5, 64 at n = 10, 16 at n = 20; on the
stacks of `perfbench` feedback jobs at n = 20, one block of all 200
slices took 1.4 times as long).  Each bound times e^{r t_k} and
1 + 1e-10, which covers the few n u by which the computed bound and
LAPACK's singular value can stray, is at least that slice's folded
value.  The SVD then runs in descending order of bound and stops once no
bound left exceeds the running maximum: every slice passed over holds a
value no larger than the maximum, so the maximizer is never passed over,
and ties return the same float.  A non-finite bound is never passed
over, and a stack with a non-finite entry takes the SVD of every slice,
as `grid_norms` does, which raises.  On `perfbench` feedback jobs (seeds
11-13, 540 jobs) a closed loop sends 3.6 of its 200 slices to the
Schatten-8 bound and 1.3 to the SVD on average, and an envelope fit,
whose weight e^{-delta0 t} leaves most Frobenius norms above the peak,
sends 162 and 5.5; an orthogonal e^{At}, whose bounds sqrt(n) and
n^(1/8) exceed its norm 1, sends all 200 to both.

Neither is accurate on closed loops with ||A + BK|| of about 1e6 and more
(ROADMAP item 3): on `perfbench` feedback job 1 of seed 11 (n = 10) at
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
from .systems import LtiSystem

__all__ = [
    "QuadratureSpec",
    "QuadratureError",
    "GramianResult",
    "ExpTable",
    "propagate",
    "transition_matrix",
    "grid_norms",
    "grid_peak",
    "observation_energy",
    "observability_gramian",
]


@dataclass(frozen=True)
class QuadratureSpec:
    """Composite Gauss-Legendre settings: `panels` is the first level of a
    diagonal system's graded panels and the most a dense first level
    uses (see `_first_panels`); levels double until two agree to
    `rel_tol`."""

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
# the largest batch of slices `_pruned_peak` takes one SVD of
_NORM_CHUNK = 8
# bytes of slices per Schatten-8 bound evaluation in `grid_peak`: each
# temporary, 6400 float64, stays in a core's L2 cache
_BOUND_BLOCK_BYTES = 6400 * 8
# covers the gap, a few n u relative, between the computed bound and
# LAPACK's computed largest singular value
_BOUND_SAFETY = 1.0 + 1e-10


@dataclass(frozen=True)
class GramianResult:
    """The factor R of the observability Gramian G = R^T R.

    ||R phi||^2 is the observation energy of phi, so R^T R is symmetric
    PSD by construction; G itself is formed only when `matrix` is read.
    """

    factor: np.ndarray      # upper-triangular R
    horizon: float
    quadrature_error_estimate: float
    floor: float            # ||R phi|| at or below this is rounding

    def __post_init__(self):
        if self.horizon <= 0:
            raise ValueError("horizon must be positive")

    @property
    def matrix(self):
        """G = R^T R, formed afresh on each read."""
        return self.factor.T @ self.factor

    def quad_form(self, phi):
        """<G phi, phi> as ||R phi||^2."""
        r_phi = self.factor @ np.asarray(phi, dtype=float)
        return float(r_phi @ r_phi)


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

    Screens every slice by ||X||_F and seeds the maximum with the SVD of
    the slice of largest screen value.  The slices whose screen still
    exceeds it are bounded by ||X||_F ||(Y^T Y)^2||_F^(1/4),
    Y = X/||X||_F, `_BOUND_BLOCK_BYTES` of slices at a time; SVDs then run
    in batches of 1, 2, 4, ... _NORM_CHUNK slices in descending order of
    bound until no bound left exceeds the maximum.  A non-finite bound is
    never passed over.
    """
    safe = np.array(scale) * _BOUND_SAFETY
    with np.errstate(over="ignore", invalid="ignore"):
        fro = np.sqrt(np.einsum("kij,kij->k", stack, stack))
        bound = fro * safe
    bound[np.isnan(bound)] = np.inf
    seed = int(np.argmax(bound))
    peak = _spectral_norms(stack[seed:seed + 1])[0] * scale[seed]
    bound[seed] = peak
    rest = np.flatnonzero(bound > peak)
    block = max(1, _BOUND_BLOCK_BYTES // stack[0].nbytes)
    with np.errstate(over="ignore", invalid="ignore"):
        for first in range(0, rest.size, block):
            part = rest[first:first + block]
            y = stack[part] / fro[part, None, None]
            g = np.matmul(y.transpose(0, 2, 1), y)
            g2 = np.matmul(g, g)
            bound[part] = (fro[part] * np.einsum("kij,kij->k", g2, g2)
                           ** 0.125 * safe[part])
    bound[np.isnan(bound)] = np.inf
    order = rest[np.argsort(-bound[rest], kind="stable")]
    first, size = 0, 1
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
    """e^{M t} for one matrix M, each exact float t computed once.

    `stack(times)` computes the misses in one call and returns every
    time's slice as one gather from an array of the values so far, which
    doubles its capacity as it fills.  A table holds one n x n matrix per
    distinct time it was asked for.  A table built here computes its
    misses with one `_exp_stack`, so a value equals a fresh `_exp_stack`
    at that t bit for bit.  A view from `shifted` does not meet that.
    """

    def __init__(self, m, diagonal=False):
        self.matrix = m
        self.diagonal = diagonal
        self._slot = {}          # exact float time -> index into _values
        self._values = np.empty((0,) + np.shape(m))
        self._fresh = lambda times: _exp_stack(m, times, diagonal)

    def transposed(self):
        """A table of M^T whose misses are this table's slices transposed
        (computed here if this table misses them too): no arithmetic, so
        no M^T t reaches `expm`.  Its values are e^{M^T t} in exact
        arithmetic, and the transpose of this table's values bit for bit."""
        view = ExpTable(self.matrix.T, self.diagonal)
        view._fresh = lambda times: self.stack(times).transpose(0, 2, 1)
        return view

    def shifted(self, s):
        """A table of M + sI whose misses are e^{st} times this table's
        slices (computed here if this table misses them too), so no
        (M + sI) t reaches `expm`.  Its values are e^{(M + sI) t} in
        exact arithmetic, and within a few roundings of a fresh call."""
        view = ExpTable(self.matrix + s * np.eye(len(self.matrix)),
                        self.diagonal)
        view._fresh = lambda times: (np.exp(s * times)[:, None, None]
                                     * self.stack(times))
        return view

    def stack(self, times):
        keys = np.asarray(times, dtype=float).tolist()
        miss = [t for t in dict.fromkeys(keys) if t not in self._slot]
        if miss:
            new = self._fresh(np.array(miss))
            held = len(self._slot)
            if held + len(miss) > len(self._values):
                grown = np.empty((max(2 * held, held + len(miss)),)
                                 + new.shape[1:], new.dtype)
                grown[:held] = self._values[:held]
                self._values = grown
            self._values[held:held + len(miss)] = new
            self._slot.update(zip(miss, range(held, held + len(miss))))
        return self._values[[self._slot[t] for t in keys]]


def _own_table(table, m, diagonal, name):
    """`table` if it is an ExpTable of exactly M, a fresh one if None."""
    if table is None:
        return ExpTable(m, diagonal)
    if table.diagonal != diagonal or not np.array_equal(table.matrix, m):
        raise ValueError(f"table is not one of this system's {name}")
    return table


def _first_panels(m, horizon, quad, diagonal):
    """Panels of the first quadrature level on [0, horizon] for e^{M t}.

    Dense: P = min(quad.panels, 2^ceil(log2(T ||M||_F))), 1 when
    T ||M||_F <= 1, so a first-level panel is at most 1/||M||_F wide;
    diagonal systems take quad.panels on their graded panels.
    """
    if diagonal:
        return quad.panels
    scale = horizon * float(np.linalg.norm(m))
    if not scale > 1.0:
        return 1
    if not scale < quad.panels:
        return quad.panels
    mantissa, exponent = math.frexp(scale)
    return min(quad.panels, 1 << (exponent - (mantissa == 0.5)))


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
    phi at the far end.  `table`, an ExpTable of A^T such as the
    `transposed()` view of a table of A, lets energies and Gramians of one
    A share node exponentials; values do not depend on it but for the
    rounding in which expm(A^T t) and expm(A t)^T differ.
    """
    if horizon <= 0:
        raise ValueError("horizon must be positive")
    quad = quad or DEFAULT_QUAD
    phi = np.asarray(phi, dtype=float)
    a_t, bt = sys.a_matrix.T, sys.b_matrix.T
    table = _own_table(table, a_t, sys.is_diagonal, "A^T")
    # the probe times but T are panel starts of every level with 8
    # panels or more
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
    panels = _first_panels(a_t, horizon, quad, sys.is_diagonal)
    first = level(panels)
    noise_floor = (delta**2 * horizon
                   + 2.0 * delta * np.sqrt(horizon * max(first, 0.0)))
    value, _ = refine(level, panels, rel_tol=quad.rel_tol,
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


def observability_gramian(sys: LtiSystem, horizon: float,
                          quad: Optional[QuadratureSpec] = None, *,
                          table: Optional[ExpTable] = None) -> GramianResult:
    """The factor R of G(T) = int_0^T e^{A t} B B^T e^{A^T t} dt.

    ||R phi||^2 equals observation_energy(sys, T, phi).  Quadrature levels
    are compared on R^T R (R has a sign ambiguity), and their last
    difference is the error estimate.  `table`, an ExpTable of A, lets
    Gramians of one A share node exponentials; values do not depend on
    it, except that a shifted view gives them to its rounding.
    Afterwards it holds e^{A T}.
    """
    if horizon <= 0:
        raise ValueError("horizon must be positive")
    quad = quad or DEFAULT_QUAD
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

    _, err = refine(level, _first_panels(a, horizon, quad, sys.is_diagonal),
                    rel_tol=quad.rel_tol)
    # the QR's rounding: n u ||B|| a_T sqrt(T), a_T = max ||e^{At}|| on
    # [0, T], probed at nine equispaced times; all but T are panel starts
    # of every level with 8 panels or more
    probe = table.stack(np.linspace(0.0, horizon, 9))
    a_t = np.linalg.norm(probe, 2, axis=(1, 2)).max()
    floor = n * np.finfo(float).eps * np.linalg.norm(b, 2) * a_t
    return GramianResult(factor, horizon, float(err),
                         float(floor * np.sqrt(horizon)))
