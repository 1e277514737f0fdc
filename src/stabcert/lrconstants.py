"""Certificate-constant formulas and their numerically estimated inputs.

Two explicit routes turn projection-family data into weak-observability
constants (D, C): one through a spectral inequality holding on each
projection range, one through a truncated observability inequality over a
fixed short horizon (with a variant for control operators that are only
bounded after fractional smoothing).  The remaining functions estimate the
inputs those formulas need on concrete truncations: fitted semigroup growth
bounds, spectral-inequality constants, and exponential-family (Fattorini)
distances feeding the point-control heat constant.
"""

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .semigroup import grid_peak, transition_norms
from .systems import (LtiSystem, ProjectionFamily, SpectralSystem,
                      UnboundedConstantsSpec)

__all__ = [
    "SemigroupBound",
    "IllConditionedGramError",
    "ModeVanishesError",
    "fit_semigroup_bound",
    "verify_semigroup_bound",
    "constants_from_spectral_inequality",
    "constants_from_truncated_obs",
    "constants_from_truncated_obs_unbounded",
    "admissibility_constant",
    "estimate_spectral_constant",
    "attach_spectral_constants",
    "fattorini_distance",
    "point_heat_truncated_obs_constant",
    "pick_family_entry",
]

# exponential Gram matrices degrade fast in double precision
DEFAULT_POOL_CAP = 8
GRAM_RCOND = 1e-14


class IllConditionedGramError(RuntimeError):
    """Exponential Gram matrix beyond the regularization threshold."""

    def __init__(self, condition):
        self.condition = condition
        super().__init__(f"exponential Gram matrix condition {condition:.3e} "
                         f"exceeds the regularization threshold")


class ModeVanishesError(ValueError):
    """A required eigenfunction value vanishes at the actuation point."""

    def __init__(self, mode, value):
        self.mode = mode
        self.value = value
        super().__init__(
            f"eigenfunction value at the actuation point vanishes for mode "
            f"j={mode} (sin(j*pi*x0) = {value:.3e}); the truncated "
            f"observability constant does not exist")


@dataclass(frozen=True)
class SemigroupBound:
    """Growth envelope ||e^{A t}|| <= m_big * e^{delta0 t}."""

    m_big: float
    delta0: float

    def __post_init__(self):
        if self.m_big < 1.0:
            raise ValueError("m_big must be >= 1")
        if self.delta0 < 0.0:
            raise ValueError("delta0 must be >= 0")


def fit_semigroup_bound(sys: LtiSystem, t_max: float = 10.0,
                        n_grid: int = 200, slack: float = 1e-9
                        ) -> SemigroupBound:
    """Fit the smallest M with ||e^{A t}|| <= M e^{delta0 t} on a grid.

    delta0 is pinned at max(0, spectral abscissa) + slack, then M is the
    grid maximum of the ratio (always >= 1 because of t = 0).
    """
    abscissa = float(np.max(np.linalg.eigvals(sys.a_matrix).real))
    delta0 = max(0.0, abscissa) + slack
    m_big = max(1.0, grid_peak(sys, t_max, n_grid, -delta0))
    return SemigroupBound(m_big=m_big * (1.0 + 1e-12), delta0=delta0)


def verify_semigroup_bound(sys: LtiSystem, bound: SemigroupBound,
                           t_grid) -> float:
    """Worst ratio ||e^{A t}|| / (M e^{delta0 t}) over the grid (<= 1 ok)."""
    ts = np.asarray(list(t_grid), dtype=float)
    worst = 0.0
    for t, norm in zip(ts, transition_norms(sys, ts)):
        worst = max(worst, norm / (bound.m_big * math.exp(bound.delta0 * t)))
    return worst


# ---------------------------------------------------------------------------
# explicit constant formulas
# ---------------------------------------------------------------------------

def _check_rate_compat(alpha_k, alpha):
    if not alpha_k > alpha:
        raise ValueError(
            f"projection tail rate alpha_k={alpha_k:g} must exceed the "
            f"requested alpha={alpha:g}; pick a larger family index")


def constants_from_spectral_inequality(bound: SemigroupBound, m_k: float,
                                       alpha_k: float, c_k: float,
                                       b_norm: float, alpha: float):
    """(D, C) from a spectral inequality on the projection range.

    Valid for horizons T > 1.  D = sqrt(2) M C_k e^{delta0} and
    C = M M_k e^{delta0 + alpha} sqrt(2 C_k^2 ||B||^2 + 1).
    """
    _check_rate_compat(alpha_k, alpha)
    if c_k < 0 or b_norm < 0 or m_k < 0 or alpha <= 0:
        raise ValueError("constants must be nonnegative and alpha positive")
    d_const = math.sqrt(2.0) * bound.m_big * c_k * math.exp(bound.delta0)
    c_const = (bound.m_big * m_k * math.exp(bound.delta0 + alpha)
               * math.sqrt(2.0 * c_k**2 * b_norm**2 + 1.0))
    return d_const, c_const


def constants_from_truncated_obs(bound: SemigroupBound, t0: float,
                                 c_k_t0: float, m_k: float, alpha_k: float,
                                 b_norm: float, alpha: float):
    """(D, C) from a truncated observability inequality over [0, t0].

    Valid for horizons T >= 2 t0.  D = M e^{delta0 t0} sqrt(C(k, t0)) and
    C = M M_k e^{(delta0+alpha) t0} sqrt(C(k,t0) ||B||^2 t0 e^{2 alpha t0} + 1).
    """
    _check_rate_compat(alpha_k, alpha)
    if t0 <= 0:
        raise ValueError("the short horizon t0 must be positive")
    if c_k_t0 < 0 or b_norm < 0 or m_k < 0 or alpha <= 0:
        raise ValueError("constants must be nonnegative and alpha positive")
    d_const = bound.m_big * math.exp(bound.delta0 * t0) * math.sqrt(c_k_t0)
    c_const = (bound.m_big * m_k * math.exp((bound.delta0 + alpha) * t0)
               * math.sqrt(c_k_t0 * b_norm**2 * t0
                           * math.exp(2.0 * alpha * t0) + 1.0))
    return d_const, c_const


def constants_from_truncated_obs_unbounded(bound: SemigroupBound,
                                           uspec: UnboundedConstantsSpec,
                                           t0: float, c_k_t0: float,
                                           m_k: float, alpha: float):
    """Variant of the truncated-observability route for smoothed control.

    The tail contribution picks up the analytic-semigroup smoothing factor:
    C = M M_k e^{(delta0+alpha) t0} *
        sqrt(C(k,t0) b_norm^2 C(gamma)^2 e^{2(rho0+2 alpha) t0} t0^{1-2 gamma} + 1).
    """
    if t0 <= 0:
        raise ValueError("the short horizon t0 must be positive")
    if c_k_t0 < 0 or m_k < 0 or alpha <= 0:
        raise ValueError("constants must be nonnegative and alpha positive")
    g = uspec.gamma
    d_const = bound.m_big * math.exp(bound.delta0 * t0) * math.sqrt(c_k_t0)
    inner = (c_k_t0 * uspec.b_norm**2 * uspec.c_gamma**2
             * math.exp(2.0 * (uspec.rho0 + 2.0 * alpha) * t0)
             * t0 ** (1.0 - 2.0 * g) + 1.0)
    c_const = (bound.m_big * m_k * math.exp((bound.delta0 + alpha) * t0)
               * math.sqrt(inner))
    return d_const, c_const


def admissibility_constant(uspec: UnboundedConstantsSpec,
                           horizon: float) -> float:
    """Admissibility constant b_norm^2 C(g)^2 e^{2 rho0 T} T^{1-2g}/(1-2g)."""
    if horizon <= 0:
        raise ValueError("horizon must be positive")
    g = uspec.gamma
    if g > 0.499:
        raise ValueError("gamma too close to 1/2: the constant diverges")
    return (uspec.b_norm**2 * uspec.c_gamma**2
            * math.exp(2.0 * uspec.rho0 * horizon)
            * horizon ** (1.0 - 2.0 * g) / (1.0 - 2.0 * g))


# ---------------------------------------------------------------------------
# estimated inputs
# ---------------------------------------------------------------------------

def estimate_spectral_constant(spec: SpectralSystem, fam: ProjectionFamily,
                               k: int) -> float:
    """1 / sigma_min of B* restricted to the range of P_k.

    Returns inf (a reported refutation of the spectral inequality, not an
    error) when the restriction is singular, e.g. a sensor blind to one of
    the retained modes.
    """
    m, _, _ = fam.entry(k)
    if m == 0:
        return 0.0
    restricted = spec.control_rows[:m, :].T      # maps R^m -> R^M
    sing = np.linalg.svd(restricted, compute_uv=False)
    if m > restricted.shape[0]:
        return float("inf")
    smin = sing[-1] if sing.size else 0.0
    if smin <= 1e-12 * max(sing[0] if sing.size else 0.0, 1.0):
        return float("inf")
    return 1.0 / float(smin)


def attach_spectral_constants(spec: SpectralSystem,
                              fam: ProjectionFamily) -> ProjectionFamily:
    """Fill the family's c_k slots with estimated spectral constants."""
    return fam.with_constants(
        c_k=[estimate_spectral_constant(spec, fam, k) for k in fam.ks])


def fattorini_distance(decay_rates: Sequence[float], t0: float, j: int,
                       pool: Sequence[int], cond_limit: float = 1e14
                       ) -> float:
    """L^2(0, t0) distance of exp(-lam_j t) to span{exp(-lam_i t), i in pool}.

    Indices are 1-based into `decay_rates`, which must be positive.  The
    distance comes from least squares on the closed-form exponential Gram
    matrix; a Gram condition number beyond cond_limit raises
    IllConditionedGramError carrying the estimate.
    """
    rates = np.asarray(decay_rates, dtype=float)
    if np.any(rates <= 0):
        raise ValueError("decay rates must be positive")
    if t0 <= 0:
        raise ValueError("t0 must be positive")
    pool = [int(i) for i in pool]
    if j in pool:
        raise ValueError("pool must exclude the target index")
    lam_j = rates[j - 1]

    def gram_entry(a, b):
        s = a + b
        return (1.0 - math.exp(-s * t0)) / s

    norm_sq = gram_entry(lam_j, lam_j)
    if not pool:
        return math.sqrt(norm_sq)
    lam_pool = rates[[i - 1 for i in pool]]
    gram = np.array([[gram_entry(a, b) for b in lam_pool] for a in lam_pool])
    cross = np.array([gram_entry(lam_j, b) for b in lam_pool])
    sing = np.linalg.svd(gram, compute_uv=False)
    cond = sing[0] / max(sing[-1], 1e-300)
    if cond > cond_limit:
        raise IllConditionedGramError(cond)
    coef, *_ = np.linalg.lstsq(gram, cross, rcond=GRAM_RCOND)
    dist_sq = max(norm_sq - float(cross @ coef), 0.0)
    return math.sqrt(dist_sq)


def point_heat_truncated_obs_constant(x0: float, c: float, k: int,
                                      t0: float,
                                      pool_cap: int = DEFAULT_POOL_CAP
                                      ) -> float:
    """Truncated observability constant for the point-controlled heat modes.

    Sum over the first k adjoint modes of e^{-2 lam_j t0} /
    (d_j^2 sin^2(j pi x0)), with lam_j = (j pi)^2 - c and d_j the Fattorini
    distance over the remaining first-k pool.  Modes whose eigenfunction
    vanishes at x0 (rational actuation points) are refused by name; modes
    with nonpositive adjoint decay (j pi)^2 <= c fall outside the formula's
    regime and are refused as well.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    if k == 0:
        return 0.0
    if k > pool_cap:
        raise ValueError(
            f"k={k} exceeds the pool cap {pool_cap}; exponential Gram "
            f"matrices degrade beyond that in double precision")
    if t0 <= 0:
        raise ValueError("t0 must be positive")
    js = np.arange(1, k + 1)
    phi_vals = np.sin(js * np.pi * x0)
    for j, v in zip(js, phi_vals):
        if abs(v) <= 1e-12:
            raise ModeVanishesError(int(j), float(v))
    rates = (js * np.pi) ** 2 - c
    for j, r in zip(js, rates):
        if r <= 0:
            raise ValueError(
                f"mode j={j} has nonpositive adjoint decay rate "
                f"(j*pi)^2 - c = {r:g}; outside the formula's regime")
    total = 0.0
    for j in js:
        pool = [int(i) for i in js if i != j]
        d_j = fattorini_distance(rates, t0, int(j), pool)
        total += (math.exp(-2.0 * rates[j - 1] * t0)
                  / (d_j**2 * phi_vals[j - 1] ** 2))
    return total


def pick_family_entry(fam: ProjectionFamily, alpha: float):
    """Smallest family index whose tail rate exceeds alpha."""
    for k in fam.ks:
        _, _, alpha_k = fam.entry(k)
        if alpha_k > alpha:
            return k
    raise ValueError(f"no family entry has tail rate above alpha={alpha:g}")
