"""Semigroup evaluation, observation energies and observability Gramians.

Dense matrix exponentials go through scipy's scaling-and-squaring Pade
implementation; diagonal systems use exact exponentials.  Gramians come
either from the closed-form diagonal expression or from adaptive composite
Gauss-Legendre quadrature with an embedded error estimate.

The dense quadratures (the Gramian and the observation energy) use batched
node exponentials: equal panels share their Gauss offsets, so the node
t = t_p + h(1 + x_j) has e^{Mt} R = e^{M t_p} (e^{M h(1 + x_j)} R), and
one batched `expm` per chunk of panels gives every offset and panel-start
exponential of a refinement level.  Each node is formed as these two
products, never as a power chain, whose rounding grows with the panel
count.  The Gramian stays a weighted sum of squares S S^T of node values
rather than Van Loan's block exponential: a direction v with v^T e^{At} B
= 0 then keeps v^T G v at O(u^2) ||G||, whereas the block exponential
leaves rounding of about u ||G|| e^{2T} there.  Measured on random dense
pairs with an uncontrollable mode at +1, the one-shot block exponential
failed `GramianResult`'s PSD check at T = 4, and a base-step-plus-doubling
variant certified T = 4 entries that the quadrature refutes.

Grid norms ||e^{At}||_2 (envelope fits, closed-loop rates, decay curves)
come from `transition_norms`, one batched `expm` and one batched SVD per
few grid times, equal to the per-time loop.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.linalg import expm

from ._quadrature import (QuadratureError, gauss_legendre_rule,
                          pointwise_level, refine)
from .systems import LtiSystem, ProjectionFamily, SpectralSystem

__all__ = [
    "QuadratureSpec",
    "QuadratureError",
    "GramianResult",
    "TailCheckReport",
    "propagate",
    "transition_matrix",
    "transition_norms",
    "observation_energy",
    "observability_gramian",
    "dissipative_tail_check",
]


@dataclass(frozen=True)
class QuadratureSpec:
    panels: int = 32
    nodes_per_panel: int = 8
    adaptive: bool = True
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


@dataclass(frozen=True)
class GramianResult:
    """Symmetric PSD matrix of the observation-energy quadratic form."""

    matrix: np.ndarray
    horizon: float
    quadrature_error_estimate: float

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
    raises `LinAlgError` as the per-time loop does.
    """
    times = np.asarray(times, dtype=float)
    if (times < 0).any():
        raise ValueError("propagation time must be nonnegative")
    a = sys.a_matrix
    lam = np.diag(a) if sys.is_diagonal else None
    diag = np.arange(sys.n)
    norms = np.empty(times.size)
    for first in range(0, times.size, _NORM_CHUNK):
        t = times[first:first + _NORM_CHUNK]
        if lam is not None:
            stack = np.zeros((t.size, sys.n, sys.n))
            stack[:, diag, diag] = np.exp(lam[None] * t[:, None])
        else:
            stack = expm(a[None] * t[:, None, None])
        norms[first:first + t.size] = np.linalg.norm(stack, 2, axis=(1, 2))
    return norms


def propagate(sys: LtiSystem, t: float, x, adjoint: bool = False):
    """Evaluate e^{A t} x (adjoint=True gives e^{A^T t} x)."""
    x = np.asarray(x, dtype=float)
    if x.shape[0] != sys.n:
        raise ValueError(f"state dimension {x.shape[0]} != {sys.n}")
    if not np.isfinite(t):
        raise ValueError("propagation time must be finite")
    return transition_matrix(sys, t, adjoint=adjoint) @ x


def observation_energy(sys: LtiSystem, horizon: float, phi,
                       quad: Optional[QuadratureSpec] = None) -> float:
    """Integral over [0, horizon] of ||B^T e^{A^T t} phi||^2.

    By the change of variable s = horizon - t this equals the squared
    L^2(0, horizon) norm of the observed adjoint trajectory started from
    phi at the far end.
    """
    if horizon <= 0:
        raise ValueError("horizon must be positive")
    quad = quad or DEFAULT_QUAD
    phi = np.asarray(phi, dtype=float)
    bt = sys.b_matrix.T
    if sys.is_diagonal:
        lam = np.diag(sys.a_matrix)

        def integrand(t):
            return float(np.sum((bt @ (np.exp(lam * t) * phi)) ** 2))

        amp = np.abs(phi).max() * max(1.0, float(np.exp(lam.max() * horizon)))
        level = pointwise_level(integrand, 0.0, horizon,
                                quad.nodes_per_panel)
    else:
        a_t = sys.a_matrix.T
        probe = np.linspace(0.0, horizon, 9)
        amp = max(np.linalg.norm(e @ phi)
                  for e in expm(a_t[None] * probe[:, None, None]))

        def level(panels):
            total = 0.0
            for f, w in _node_values(a_t, phi[:, None], horizon, panels,
                                     quad.nodes_per_panel):
                total += float(np.sum((bt @ f) ** 2, axis=0) @ w)
            return total

    # cancellation inside the propagated state caps meaningful resolution
    noise_floor = (1e-13 * np.linalg.norm(bt, 2) * amp) ** 2 * horizon
    value, _ = refine(level, quad.panels, rel_tol=quad.rel_tol,
                      abs_tol=noise_floor)
    return float(value)


def _node_values(m, r, horizon, panels, npts):
    """Yield (e^{M t} R at the nodes, node weights) chunk by chunk.

    The nodes are those of `panels` equal Gauss-Legendre panels of
    [0, horizon], at most _CHUNK panels per chunk.  Values come as one
    n x (nodes * r) matrix whose columns i*r .. i*r + r - 1 belong to
    node i.  One batched expm per chunk gives the npts shared offset
    exponentials and the chunk's panel-start exponentials.
    """
    x, w = gauss_legendre_rule(npts)
    h = horizon / (2.0 * panels)
    offsets = h * (1.0 + x)
    n = m.shape[0]
    for first in range(0, panels, _CHUNK):
        p = np.arange(first, min(first + _CHUNK, panels))
        times = np.concatenate([offsets, horizon * p / panels])
        e = expm(m[None] * times[:, None, None])
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
                          method: str = "auto") -> GramianResult:
    """G(T) = int_0^T e^{A t} B B^T e^{A^T t} dt.

    <G phi, phi> equals observation_energy(sys, T, phi).  method is one of
    "auto" (closed form when A is diagonal), "closed_form", "quadrature".
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
    if use_closed:
        g = _diagonal_gramian(np.diag(sys.a_matrix), sys.b_matrix, horizon)
        return GramianResult(0.5 * (g + g.T), horizon, 0.0)

    a, b = sys.a_matrix, sys.b_matrix

    def level(panels):
        acc = np.zeros((sys.n, sys.n))
        for f, w in _node_values(a, b, horizon, panels,
                                 quad.nodes_per_panel):
            s = f * np.repeat(np.sqrt(w), b.shape[1])
            acc += s @ s.T
        return acc

    value, err = refine(level, quad.panels, rel_tol=quad.rel_tol)
    return GramianResult(0.5 * (value + value.T), horizon, float(err))


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
