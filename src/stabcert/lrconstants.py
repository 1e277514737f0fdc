"""Certificate-constant formulas and their numerically estimated inputs.

Two explicit routes turn projection-family data into weak-observability
constants (D, C): one through a spectral inequality holding on each
projection range, one through a truncated observability inequality over a
fixed short horizon (with a variant for control operators that are only
bounded after fractional smoothing).  The remaining functions estimate the
inputs those formulas need on concrete truncations: semigroup growth
envelopes from a Lyapunov solve, spectral-inequality constants, and
exponential-family (Fattorini) distances feeding the point-control heat
constant.
"""

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ._lapack import lyapunov
from .systems import (LtiSystem, ProjectionFamily, SpectralSystem,
                      UnboundedConstantsSpec)

__all__ = [
    "SemigroupBound",
    "IllConditionedGramError",
    "ModeVanishesError",
    "fit_semigroup_bound",
    "constants_from_spectral_inequality",
    "constants_from_truncated_obs",
    "constants_from_truncated_obs_unbounded",
    "admissibility_constant",
    "estimate_spectral_constant",
    "fattorini_distance",
    "point_heat_truncated_obs_constant",
    "pick_family_entry",
]

# exponential Gram matrices degrade fast in double precision
DEFAULT_POOL_CAP = 8
GRAM_RCOND = 1e-14
GRAM_COND_LIMIT = 1e14
# the margin of a dense envelope's delta0 above the spectral abscissa: a
# smaller one makes P worse conditioned, so it trades delta0 against M
ENVELOPE_GAMMA = 0.1


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
        # written with `not`, so that NaN (which fails every test) fails
        if not self.m_big >= 1.0:
            raise ValueError("m_big must be >= 1")
        if not self.delta0 >= 0.0:
            raise ValueError("delta0 must be >= 0")


def fit_semigroup_bound(sys: LtiSystem) -> SemigroupBound:
    """Growth envelope ||e^{A t}|| <= M e^{delta0 t} for every t >= 0.

    A diagonal A gives M = 1 and delta0 = max(0, max_i a_ii) exactly.  A
    dense A gives delta0 = max(0, spectral abscissa) + ENVELOPE_GAMMA and
    P solving A_s^T P + P A_s = -I, A_s = A - delta0 I.  If the symmetric
    side is negative definite and P positive definite, x^T P x cannot
    grow along e^{A_s t} x, so M = sqrt(cond P) (Pazy, *Semigroups of
    Linear Operators*, Sec. 4.4).  Both are checked beyond their
    evaluation error, u being the unit roundoff: S = X + X^T,
    X = fl(A_s^T P), misses the exact side by at most
    4 (n + 1) u ||A_s||_F ||P||_F (the product, the sum and the shift's
    rounding), and eigvalsh misses an eigenvalue of S or P by at most
    n u times its Frobenius norm.  A failed check raises
    `np.linalg.LinAlgError` with both margins; M is widened by P's
    eigenvalue error.  P comes from `_lapack.lyapunov`, whose `perturbed`
    flag is ignored: A_s is stable by construction, and the a posteriori
    check decides whatever equation `trsyl` solved.  The abscissa reads
    the eigenvalues of the pair's `spectrum`, the record whose pencil
    Grams the rate-mu PBH test of `feedback` screens.
    """
    a = sys.a_matrix
    if sys.is_diagonal:
        return SemigroupBound(m_big=1.0,
                              delta0=max(0.0, float(np.diag(a).max())))
    n = sys.n
    unit = float(np.finfo(float).eps) / 2.0
    abscissa = float(np.max(sys.spectrum.eigenvalues.real))
    delta0 = max(0.0, abscissa) + ENVELOPE_GAMMA
    a_s = a - delta0 * np.eye(n)
    p, _ = lyapunov(a_s.T, -np.eye(n))
    p = 0.5 * (p + p.T)
    x = a_s.T @ p
    side = x + x.T
    p_norm = np.linalg.norm(p)
    side_err = (4.0 * (n + 1) * unit * np.linalg.norm(a_s) * p_norm
                + n * unit * np.linalg.norm(side))
    side_max = float(np.linalg.eigvalsh(side)[-1])
    p_eig = np.linalg.eigvalsh(p)
    p_err = n * unit * p_norm
    if not (side_max + side_err < 0.0 and p_eig[0] - p_err > 0.0):
        raise np.linalg.LinAlgError(
            f"Lyapunov envelope at delta0={delta0:.6g} not certified: "
            f"lambda_max of the symmetric side {side_max:.3e} (error "
            f"bound {side_err:.3e}), lambda_min(P) {p_eig[0]:.3e} (error "
            f"bound {p_err:.3e})")
    ratio = (p_eig[-1] + p_err) / (p_eig[0] - p_err)
    return SemigroupBound(m_big=math.sqrt(ratio) * (1.0 + 8.0 * unit),
                          delta0=delta0)


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
    if not (c_k >= 0 and b_norm >= 0 and m_k >= 0 and alpha > 0):
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
    if not t0 > 0:
        raise ValueError("the short horizon t0 must be positive")
    if not (c_k_t0 >= 0 and b_norm >= 0 and m_k >= 0 and alpha > 0):
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
    if not t0 > 0:
        raise ValueError("the short horizon t0 must be positive")
    if not (c_k_t0 >= 0 and m_k >= 0 and alpha > 0):
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
    if not horizon > 0:
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


def fattorini_distance(decay_rates: Sequence[float], t0: float, j: int,
                       pool: Sequence[int]) -> float:
    """L^2(0, t0) distance of exp(-lam_j t) to span{exp(-lam_i t), i in pool}.

    Indices are 1-based into `decay_rates`, which must be positive; one
    outside [1, len(decay_rates)] raises ValueError.  The distance comes
    from least squares on the closed-form exponential Gram matrix; a Gram
    condition number beyond GRAM_COND_LIMIT raises IllConditionedGramError
    carrying the estimate.
    """
    rates = np.asarray(decay_rates, dtype=float)
    if np.any(rates <= 0):
        raise ValueError("decay rates must be positive")
    if not 0.0 < t0 < math.inf:
        raise ValueError("t0 must be positive and finite")
    pool = [int(i) for i in pool]
    for index in (j, *pool):
        if not 1 <= index <= len(rates):
            raise ValueError(f"index {index} outside [1, {len(rates)}]")
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
    if cond > GRAM_COND_LIMIT:
        raise IllConditionedGramError(cond)
    coef, *_ = np.linalg.lstsq(gram, cross, rcond=GRAM_RCOND)
    dist_sq = max(norm_sq - float(cross @ coef), 0.0)
    return math.sqrt(dist_sq)


def point_heat_truncated_obs_constant(x0: float, c: float, k: int,
                                      t0: float) -> float:
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
    if k > DEFAULT_POOL_CAP:
        raise ValueError(
            f"k={k} exceeds the pool cap {DEFAULT_POOL_CAP}; exponential "
            f"Gram matrices degrade beyond that in double precision")
    if not 0.0 < t0 < math.inf:
        raise ValueError("t0 must be positive and finite")
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
