"""Semigroup evaluation, observation energies and observability Gramians.

Every matrix exponential in the package is a slice of one routine,
`_exp_stack`, the one caller of scipy's scaling-and-squaring Pade `expm`;
diagonal systems get exact exponentials there.  Gramians come
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
floor bracket and the energy's amplitude probe find eight of their nine
times among the panel starts of any level with 8 panels or more, and
Gramians of
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
builds it: one energy, one Gramian, one floor, one weakobs decision, one
sweep, whose table of A also gives every floor bracket its probe norms,
e^{A^T T} as the transpose of its e^{A T} and, through its transposed
view, every node exponential of the witness energies, or one
concatenated steering,
whose table of A serves the forms' Gramian and, through a view shifted by
-beta, the Gramian of A - beta I that weights the segments' energies.
That Gramian's first level is sized by ||A - beta I||_F, not ||A||_F, so
the view finds only the node times its levels share with the forms' and
computes the rest as fresh slices of the table.  A steering that fails
drops its table before the error leaves the call.  Nothing is cached
between calls.
The quadrature reads M and its diagonal flag from the table alone.

A sweep's table (`share_nodes`) also keeps node values: for each (panel
width, B), the e^{At}B of the first level it integrates at that width.
The sweep integrates its longest horizon first, and a dyadic horizon's
panel starts are a prefix of a longer one's at the same width, so a
shorter horizon's level slices a prefix of the kept values and forms no
product: the Gramians of a dyadic sweep below the cap evaluate the
longest horizon's panels only.  Each horizon keeps its own `refine` and
its QR per chunk, so its factor and error estimate are bit for bit those
of a single-horizon call.  A single-horizon Gramian, an energy and any
view keep no node values.

A Gramian is its factor R, G = R^T R, accumulated as R <- qr([R; S^T])
over the weighted node values S, so a direction v with v^T e^{At} B = 0
keeps ||R v|| at the QR's rounding, `gramian_floor`: n u ||B||_2 a_T
sqrt(T), a_T the largest ||e^{At}||_2 at nine equispaced probe times.
G is formed only when `matrix` is read.  A decision reads the floor only
through comparisons, x <= floor, and `floor_bracket` decides them from
Frobenius norms: ||M||_F / sqrt(rank M) <= ||M||_2 <= ||M||_F on the
probe slices and on B puts the floor in [lo, hi], hi = n u sqrt(T)
||B||_F max_k ||e^{A t_k}||_F and lo = hi / sqrt(n min(n, m)), each
widened by a stated rounding margin.  A value at or below lo is at the
floor, one above hi is above it, and only when a compared value lies in
(lo, hi] is the floor itself formed, once, by `gramian_floor` on the same
table (`FloorBracket.value`), so every comparison returns what it returns
against the floor.  Every weak-observability decision brackets its floor
(`weakobs._FormStack.dense`); steering and the `stabcert gramian` dump do
neither.  Probe norms of both kinds come from the table through
`ExpTable.norms`, which takes each exact time's norm of each kind once,
and ||B||_2 and ||B||_F from `LtiSystem.b_norm` and `LtiSystem.b_fro`,
each taken once per system.  A sweep takes every bracket's probe norms
(`floor_probe_times`) in one `ExpTable.norms` call before its first
bracket, so the four brackets of a dyadic sweep over T = 0.5, 1, 2, 4
take their 21 distinct Frobenius probe norms, not 36, as one batched norm
whose missing slices are one `expm` call, and no SVD; over the 768 jobs
of perfbench's dense-sweep pools for seeds 1, 2 and 11-20, 5 comparisons
land inside a bracket and form their floor.  A floor is bit for bit that
of a fresh table.
Van Loan's block exponential yields G, not R, and leaves rounding of about
u ||G|| e^{2T} there: on random dense pairs with an uncontrollable mode at
+1 its G had eigenvalues below -1e-12 trace(G) at T = 4, and a
base-step-plus-doubling variant certified T = 4 entries that the
quadrature refutes.

Grid norms ||e^{At}||_2 on an equispaced grid t_k = k h, h = T/(grid - 1)
(decay curves) come from one stack: `transition_matrix` gives E = e^{Ah},
and binary doubling fills the stack level by level, e^{A(f + k)h} =
e^{Akh} E_f for k < f with E_f = e^{Afh}, f = 1, 2, 4, ..., then squares
E_2f = E_f^2.
So e^{Akh} is a product of one factor per set bit of k, at most
ceil(log2 grid) (8 for grid = 200), and each factor is at most that many
squarings deep: rounding grows with log2 k, not with k as in a power
chain E^k.  One batched SVD reads the norms; a diagonal A takes the
exact e^{lambda_max t}.  If that SVD fails, or a norm is not finite (an
entry overflowed to inf without any nan), `grid_norms` raises a fresh
`LinAlgError` once the stack is dropped, as the one numpy raises keeps
the SVD's frame, and with it the stack, alive in any caller that keeps
the exception.

Grid norms are not accurate on closed loops with ||A + BK|| of about 1e6
and more (ROADMAP item 4): on `perfbench` feedback job 1 of seed 11
(n = 10) at mu = 4, ||A + BK|| = 9.5e6 and the true overshoot is 6.2e8
(50- and 80-digit oracles agree), while the per-time loop reads 4.3e15
and doubling 7.4e14.
"""

import functools
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
    "FloorBracket",
    "gramian_floor",
    "floor_bracket",
    "propagate",
    "transition_matrix",
    "grid_norms",
    "observation_energy",
    "observability_gramian",
]


@dataclass(frozen=True)
class QuadratureSpec:
    """Composite Gauss-Legendre settings: `panels` is the first level of a
    diagonal system's graded panels and the most a dense first level
    uses (see `_first_panels`); levels double until two agree to
    `rel_tol`.

    This module is the one place quadrature is set: only
    `observability_gramian` and `observation_energy` take a spec, and
    every caller above them (weak observability, feedback) integrates at
    `DEFAULT_QUAD`.  `stabcert gramian --tol` sets one, and so do
    `verification`'s Gramian oracle and its soundness re-test."""

    panels: int = 32
    nodes_per_panel: int = 8
    rel_tol: float = 1e-10

    def __post_init__(self):
        if self.panels < 1:
            raise ValueError("panels must be >= 1")
        if self.nodes_per_panel < 2:
            raise ValueError("nodes_per_panel must be >= 2")
        if not 0.0 < self.rel_tol < math.inf:
            raise ValueError("rel_tol must be positive and finite")


DEFAULT_QUAD = QuadratureSpec()

# panels per batched expm call; bounds the exponentials held at once
_CHUNK = 64


@dataclass(frozen=True)
class GramianResult:
    """The factor R of the observability Gramian G = R^T R.

    ||R phi||^2 is the observation energy of phi, so R^T R is symmetric
    PSD by construction; G itself is formed only when `matrix` is read.
    The rounding floor of R is not part of the result: `gramian_floor`
    forms it for the callers that read it.
    """

    factor: np.ndarray      # upper-triangular R
    horizon: float
    quadrature_error_estimate: float

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
    """e^{A t} (or e^{A^T t}): one slice of `_exp_stack`."""
    if not 0.0 <= t < math.inf:
        raise ValueError("propagation time must be finite and nonnegative")
    mat = _exp_stack(sys.a_matrix, np.array([t]), sys.is_diagonal)[0]
    return mat.T if adjoint else mat


def grid_norms(sys: LtiSystem, horizon: float, grid: int) -> np.ndarray:
    """||e^{A t}||_2 at every t of `np.linspace(0, horizon, grid)`.

    Binary doubling from one e^{Ah}, h = horizon/(grid - 1), into one
    stack of grid n x n matrices (see the module docstring), then one
    batched SVD; a diagonal A gives the exact e^{lambda_max t}.  A failing
    SVD or a non-finite norm raises a fresh `LinAlgError` that keeps no
    reference to the stack.
    """
    if grid < 1:
        raise ValueError("grid must be >= 1")
    if not 0.0 <= horizon < math.inf:
        raise ValueError("propagation time must be finite and nonnegative")
    if sys.is_diagonal:
        return np.exp(np.diag(sys.a_matrix).max()
                      * np.linspace(0.0, horizon, grid))
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
        norms = np.linalg.norm(stack, 2, axis=(1, 2))
    except np.linalg.LinAlgError as exc:
        message = str(exc)
    else:
        if np.isfinite(norms).all():
            return norms
        message = "transition matrix norm is not finite"
    del stack
    raise np.linalg.LinAlgError(message)


def _check_horizon(horizon):
    # NaN fails every comparison, so it is refused here and not by the
    # quadrature's refinement
    if not 0.0 < horizon < math.inf:
        raise ValueError("horizon must be positive and finite")


def _exp_stack(m, times, diagonal):
    """e^{M t} at every t: a batched `expm`, or exact diagonal `np.exp`.
    The one caller of `expm` in the package."""
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
    doubles its capacity as it fills; `norms(times, ord)` gives their 2- or
    Frobenius norms, each taken once.  A table holds one n x n matrix per
    distinct time it was asked for.  A table built here computes its
    misses with one `_exp_stack`, so a value equals a fresh `_exp_stack`
    at that t bit for bit.  A view from `shifted` does not meet that.
    A table built with `share_nodes` also keeps the node values that
    `_node_values` forms on it (see there); its views keep none.
    """

    def __init__(self, m, diagonal=False, share_nodes=False):
        self.matrix = m
        self.diagonal = diagonal
        self._slot = {}          # exact float time -> index into _values
        self._values = np.empty((0,) + np.shape(m))
        self._fresh = lambda times: _exp_stack(m, times, diagonal)
        self._norms = {}         # ord -> {exact float time -> ||e^{M t}||}
        # (Gauss offsets, R) -> (panel starts, node-value chunks) of the
        # first dense level of that panel width; see _kept_values
        self._nodes = {} if share_nodes else None

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

    def norms(self, times, ord=2):
        """||e^{M t}|| at every t, the 2-norm or (ord="fro") the Frobenius
        norm, each exact float time's norm of each kind taken once: the
        misses' slices come from `stack`, and one batched norm, which
        reduces each slice on its own (a batched SVD for the 2-norm),
        gives theirs."""
        keys = np.asarray(times, dtype=float).tolist()
        known = self._norms.setdefault(ord, {})
        miss = [t for t in dict.fromkeys(keys) if t not in known]
        if miss:
            known.update(zip(miss, np.linalg.norm(
                self.stack(miss), ord, axis=(1, 2)).tolist()))
        return np.array([known[t] for t in keys])


def _own_table(table, m, diagonal, name):
    """`table` if it is an ExpTable of exactly M, a fresh one if None."""
    if table is None:
        return ExpTable(m, diagonal)
    if table.diagonal != diagonal or not np.array_equal(table.matrix, m):
        raise ValueError(f"table is not one of this system's {name}")
    return table


def _first_panels(table, horizon, quad):
    """Panels of the first quadrature level on [0, horizon] for e^{M t},
    M being `table`'s matrix.

    Dense: P = min(quad.panels, 2^ceil(log2(T ||M||_F))), 1 when
    T ||M||_F <= 1, so a first-level panel is at most 1/||M||_F wide;
    diagonal systems take quad.panels on their graded panels.
    """
    if table.diagonal:
        return quad.panels
    scale = horizon * float(np.linalg.norm(table.matrix))
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
    _check_horizon(horizon)
    quad = quad or DEFAULT_QUAD
    phi = np.asarray(phi, dtype=float)
    bt = sys.b_matrix.T
    table = _own_table(table, sys.a_matrix.T, sys.is_diagonal, "A^T")
    # the probe times but T are panel starts of every level with 8
    # panels or more
    amp = max(np.linalg.norm(e @ phi)
              for e in table.stack(np.linspace(0.0, horizon, 9)))

    def level(panels):
        total = 0.0
        for f, w in _node_values(table, phi[:, None], horizon, panels,
                                 quad.nodes_per_panel):
            total += float(np.sum((bt @ f) ** 2, axis=0) @ w)
        return total

    # cancellation inside the propagated state caps meaningful resolution:
    # noise delta in y puts 2 ||B^T y|| delta + delta^2 into ||B^T y||^2,
    # at most 2 delta sqrt(T E) + delta^2 T once integrated
    delta = 1e-13 * np.linalg.norm(bt, 2) * amp
    panels = _first_panels(table, horizon, quad)
    first = level(panels)
    noise_floor = (delta**2 * horizon
                   + 2.0 * delta * np.sqrt(horizon * max(first, 0.0)))
    value, _ = refine(level, panels, rel_tol=quad.rel_tol,
                      abs_tol=noise_floor, first=first)
    return float(value)


def _node_values(table, r, horizon, panels, npts):
    """Yield (e^{M t} R at the nodes, node weights) chunk by chunk, M
    being `table`'s matrix.

    The nodes are those of `panels` equal Gauss-Legendre panels of
    [0, horizon], at most _CHUNK panels per chunk.  Values come as one
    n x (nodes * r) matrix whose columns i*r .. i*r + r - 1 belong to
    node i.  Per chunk, `table` gives the npts shared offset exponentials
    and the chunk's panel-start exponentials, computing those no earlier
    level or chunk asked for.

    On a table built with `share_nodes` the chunks come from
    `_kept_values`: a level whose panel starts are a prefix of those of a
    kept level of the same width (a shorter dyadic horizon's, once the
    longest was integrated) yields the kept chunks cut to its panels.
    Each panel's values are one product of its start's and the offsets'
    exponentials whichever chunk holds it, so the cut values are bit for
    bit those this level would compute, and it computes none.

    A diagonal M takes exact exponentials at any node: its panels are equal
    in s, t = horizon s^4, which resolves a stiff decay e^{-|lambda| t} with
    a few dozen panels where equal panels in t need |lambda| horizon.
    """
    n = table.matrix.shape[0]
    if table.diagonal:
        s, ws = panel_nodes(0.0, 1.0, panels, npts)
        for first in range(0, s.size, _CHUNK * npts):
            part = s[first:first + _CHUNK * npts]
            e = np.exp(np.diag(table.matrix)[:, None]
                       * (horizon * part**4))
            yield ((e[:, :, None] * r[:, None, :]).reshape(n, -1),
                   ws[first:first + part.size] * 4.0 * horizon * part**3)
        return
    x, w = gauss_legendre_rule(npts)
    h = horizon / (2.0 * panels)
    offsets = h * (1.0 + x)
    starts = horizon * np.arange(panels) / panels
    kept = (None if table._nodes is None
            else _kept_values(table, r, offsets, starts))
    for first in range(0, panels, _CHUNK):
        part = starts[first:first + _CHUNK]
        if kept is None:
            values = _panel_values(table, r, offsets, part)
        else:
            values = kept[first // _CHUNK][:, :part.size * npts * r.shape[1]]
        yield values, np.tile(h * w, part.size)


def _kept_values(table, r, offsets, starts):
    """The node-value chunks of the panels beginning at `starts` on a
    `share_nodes` table: the kept chunks of these Gauss offsets (one panel
    width and node count) and R when `starts` is a prefix of their starts,
    else computed, and kept if none were."""
    key = (offsets.tobytes(), r.shape, r.tobytes())
    kept = table._nodes.get(key)
    if (kept is not None and kept[0].size >= starts.size
            and np.array_equal(kept[0][:starts.size], starts)):
        return kept[1]
    chunks = [_panel_values(table, r, offsets, starts[first:first + _CHUNK])
              for first in range(0, starts.size, _CHUNK)]
    table._nodes.setdefault(key, (starts, chunks))
    return chunks


def _panel_values(table, r, offsets, starts):
    """e^{M t} R at the nodes t = start + offset of the panels beginning at
    `starts`, as one n x (nodes * r) matrix in `_node_values`' layout:
    each node is the product of its start's and its offset's exponential."""
    e = table.stack(np.concatenate([offsets, starts]))
    local = (e[:offsets.size] @ r).transpose(1, 0, 2).reshape(len(r), -1)
    values = e[offsets.size:] @ local
    return values.transpose(1, 0, 2).reshape(len(r), -1)


def observability_gramian(sys: LtiSystem, horizon: float,
                          quad: Optional[QuadratureSpec] = None, *,
                          table: Optional[ExpTable] = None) -> GramianResult:
    """The factor R of G(T) = int_0^T e^{A t} B B^T e^{A^T t} dt.

    ||R phi||^2 equals observation_energy(sys, T, phi).  Quadrature levels
    are compared on R^T R (R has a sign ambiguity), and their last
    difference is the error estimate.  `table`, an ExpTable of A, lets
    Gramians of one A share node exponentials; values do not depend on
    it, except that a shifted view gives them to its rounding.
    """
    _check_horizon(horizon)
    quad = quad or DEFAULT_QUAD
    b, n = sys.b_matrix, sys.n
    table = _own_table(table, sys.a_matrix, sys.is_diagonal, "A")
    factor = None

    def level(panels):
        nonlocal factor
        factor = np.zeros((n, n))
        for f, w in _node_values(table, b, horizon, panels,
                                 quad.nodes_per_panel):
            s = f * np.repeat(np.sqrt(w), b.shape[1])
            factor = np.linalg.qr(np.vstack([factor, s.T]), mode="r")
        return factor.T @ factor

    _, err = refine(level, _first_panels(table, horizon, quad),
                    rel_tol=quad.rel_tol)
    return GramianResult(factor, horizon, float(err))


def floor_probe_times(horizon):
    """The nine equispaced times in [0, horizon] whose ||e^{At}||
    `gramian_floor` and `floor_bracket` read; all but T are panel starts
    of every level with 8 panels or more."""
    return np.linspace(0.0, horizon, 9)


def gramian_floor(sys: LtiSystem, horizon: float, *,
                  table: Optional[ExpTable] = None) -> float:
    """||R phi|| at or below this is rounding, R being the factor of the
    Gramian of `sys` on [0, horizon]: the QR's rounding, n u ||B||_2 a_T
    sqrt(T), a_T = max ||e^{At}||_2 over nine equispaced t in [0, T].

    `table`, an ExpTable of A, lets the floors of one A share probe norms
    (`ExpTable.norms`); the floor does not depend on it, except that a
    shifted view gives it to its rounding.  Afterwards it holds e^{A T}.
    """
    _check_horizon(horizon)
    table = _own_table(table, sys.a_matrix, sys.is_diagonal, "A")
    a_t = table.norms(floor_probe_times(horizon)).max()
    floor = sys.n * np.finfo(float).eps * sys.b_norm * a_t
    return float(floor * np.sqrt(horizon))


# the relative margin of `floor_bracket` beyond the norm equivalence: the
# rounding of the Frobenius sums (at most n max(n, m) u relative), of the
# SVD's largest singular value (a small multiple of n u), and of the two
# floors' products (a few u), with room to spare
_BRACKET_ETA = 1e-9


class FloorBracket:
    """lo <= floor <= hi for a Gramian's rounding floor, and comparisons
    against the floor decided from them: a value at or below lo is at the
    floor, one above hi is above it, and the floor itself, `value`, is
    formed (once) only when some compared value lies in (lo, hi] or is
    NaN.  Each comparison returns what it returns against `value`."""

    def __init__(self, lo, hi, exact):
        self.lo, self.hi = lo, hi
        self._exact = exact       # () -> the floor

    @classmethod
    def of(cls, value):
        """The bracket of a known floor, lo = hi = `value`."""
        return cls(value, value, lambda: value)

    @functools.cached_property
    def value(self):
        """The floor, formed on first read."""
        return self._exact()

    def at_or_below(self, x):
        """x <= floor, elementwise."""
        x = np.asarray(x)
        below = x <= self.lo
        if (below | (x > self.hi)).all():
            return below
        return x <= self.value

    def above(self, x):
        """x > floor, elementwise."""
        x = np.asarray(x)
        over = x > self.hi
        if (over | (x <= self.lo)).all():
            return over
        return x > self.value


def floor_bracket(sys: LtiSystem, horizon: float, *,
                  table: Optional[ExpTable] = None) -> FloorBracket:
    """A `FloorBracket` of `gramian_floor(sys, horizon, table=table)` from
    Frobenius norms alone.

    ||M||_F / sqrt(rank M) <= ||M||_2 <= ||M||_F (Golub and Van Loan,
    *Matrix Computations*, 2.3), on the nine probe slices E_k (rank n) and
    on B (rank at most min(n, m)), gives hi = n u sqrt(T) ||B||_F
    max_k ||E_k||_F and lo = hi / sqrt(n min(n, m)), each widened by
    (1 +- eta), eta = _BRACKET_ETA + 4 n max(n, m) u, for the rounding of
    the norms and products on either side.  The floor itself, with its
    batched SVD and ||B||_2, is `gramian_floor` on the same table, formed
    only when a comparison lands inside the bracket.  Where a Frobenius
    sum could leave the normal range (||B||_F <= 1e-150, lo <= 1e-290 or
    hi not finite) the floor is formed at once and lo = hi = floor.
    """
    _check_horizon(horizon)
    table = _own_table(table, sys.a_matrix, sys.is_diagonal, "A")
    n, m = sys.b_matrix.shape
    e_fro = table.norms(floor_probe_times(horizon), "fro").max()
    b_fro = sys.b_fro
    u = np.finfo(float).eps
    nominal = n * u * b_fro * e_fro * math.sqrt(horizon)
    eta = _BRACKET_ETA + 4.0 * n * max(n, m) * u
    hi = nominal * (1.0 + eta)
    lo = nominal / math.sqrt(n * min(n, m)) * (1.0 - eta)

    def exact():
        return gramian_floor(sys, horizon, table=table)

    if b_fro > 1e-150 and lo > 1e-290 and hi < math.inf:
        return FloorBracket(lo, hi, exact)
    return FloorBracket.of(exact())
