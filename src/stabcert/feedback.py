"""Rapid-decay feedback synthesis and minimum-norm steering controls.

Feedback with a prescribed decay rate mu comes from the stabilizing
solution of the shift-by-mu Riccati equation

    (A + mu I)^T P + P (A + mu I) - P B B^T P + I = 0,

solved on the stable invariant subspace of the associated Hamiltonian
matrix (ordered real Schur form) with one Newton refinement.  Undoing the
shift moves every closed-loop eigenvalue of A + BK, K = -B^T P, left of
-mu.  The remaining operations build the minimum-norm controls that steer
into a contraction ball and concatenate them into a geometrically decaying
control with finite exponentially-weighted norm.  Steering reads the
Gramian's factor R, never G: in R's right singular basis the regularized
normal equations are diagonal, so each segment is a scalar root of the
secular equation for the Tikhonov parameter, found by safeguarded Newton
steps with no linear solve.  A concatenated steering exponentiates A
once per node time: the beta-weighted energies are ||R_beta eta||^2, with
R_beta the factor of the Gramian of A - beta I, whose node exponentials
come from a shifted view of the table the forms' Gramian filled.
"""

import math
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np
from scipy.linalg import schur, solve_continuous_lyapunov

from .semigroup import (DEFAULT_QUAD, ExpTable, QuadratureSpec, grid_peak,
                        observability_gramian)
from .systems import LtiSystem
from .weakobs import CertificateFamily, _dense_forms

__all__ = [
    "UnstabilizableError",
    "SteeringError",
    "FeedbackResult",
    "SteeringSegment",
    "ControlSignal",
    "DecayReport",
    "solve_shifted_riccati",
    "closed_loop_rate",
    "min_norm_eps_null",
    "concatenated_control",
    "certificate_to_feedback",
]


class UnstabilizableError(RuntimeError):
    """The shifted pair has an uncontrollable unstable eigenvalue."""

    def __init__(self, eigenvalue):
        self.eigenvalue = eigenvalue
        super().__init__(
            f"shifted pair is not stabilizable: eigenvalue "
            f"{eigenvalue:.6g} with nonnegative real part is invisible "
            f"to the control operator")


class SteeringError(RuntimeError):
    """A requested terminal tolerance cannot be reached."""


@dataclass(frozen=True)
class FeedbackResult:
    """Synthesized feedback with its measured closed-loop behaviour."""

    mu: float
    riccati_p: np.ndarray
    gain_k: np.ndarray
    residual: float
    measured_rate: float
    measured_overshoot: float
    certificate_chain: Optional[dict] = None

    def __post_init__(self):
        p = np.asarray(self.riccati_p, dtype=float)
        scale = max(np.abs(p).max(), 1.0)
        if np.abs(p - p.T).max() > 1e-10 * scale:
            raise ValueError("riccati solution must be symmetric")
        sym = 0.5 * (p + p.T)
        sym.setflags(write=False)
        object.__setattr__(self, "riccati_p", sym)
        if np.linalg.eigvalsh(sym).min() < -1e-10 * scale:
            raise ValueError("riccati solution must be PSD")
        if self.residual > 1e-8 * (1.0 + np.linalg.norm(sym)) ** 2:
            raise ValueError(f"riccati residual {self.residual:.3e} too large")


def _pbh_stabilizable(a_shift, b):
    """PBH test; returns the offending eigenvalue or None.

    The pencil at conj(lam) is the entrywise conjugate of the one at lam,
    with the same singular values, and LAPACK lists the member of a
    conjugate pair with positive imaginary part first: only that one is
    tested.  lam offends where its pencil P = [lam I - A_shift, B] has
    sigma_min(P) <= 1e-10 scale, and the first offender in `eigvals`
    order is returned.

    A batched Cholesky of P P^H - 1e-8 scale^2 I screens the tested
    pencils first.  If every factorization succeeds, sigma_min(P)^2
    exceeds 1e-8 scale^2 less the rounding of the Gram product and of the
    Cholesky, at most about 4 (n + m)^2 u scale^2 as ||P|| <= 2 scale
    (|lam| <= ||A_shift||).  For n + m <= 1000 that leaves sigma_min(P) >
    9.7e-5 scale, and the SVD, whose rounding is a few (n + m) u scale,
    would read no value near the threshold 1e-10 scale: None is returned
    without it.  If one fails, the tested pencils take one batched SVD.
    """
    n = a_shift.shape[0]
    scale = max(np.linalg.norm(a_shift, 2) + np.linalg.norm(b, 2), 1.0)
    lam = np.linalg.eigvals(a_shift)
    lam = lam[(lam.real >= -1e-9 * scale) & (lam.imag >= 0)]
    pencils = np.concatenate(
        [lam[:, None, None] * np.eye(n) - a_shift,
         np.broadcast_to(b.astype(complex), (lam.size,) + b.shape)], axis=2)
    gram = pencils @ pencils.conj().transpose(0, 2, 1)
    try:
        np.linalg.cholesky(gram - 1e-8 * scale**2 * np.eye(n))
        return None
    except np.linalg.LinAlgError:
        pass
    smin = np.linalg.svd(pencils, compute_uv=False)[:, -1]
    bad = np.flatnonzero(smin <= 1e-10 * scale)
    return lam[bad[0]] if bad.size else None


def solve_shifted_riccati(sys: LtiSystem, mu: float,
                          rate_horizon: float = 10.0,
                          rate_grid: int = 200) -> FeedbackResult:
    """Feedback gain pushing every closed-loop eigenvalue left of -mu.

    A closed loop whose spectral rate misses mu raises `RuntimeError`
    with that rate as its `measured_rate` attribute.
    """
    if mu <= 0:
        raise ValueError("target rate mu must be positive")
    if rate_horizon <= 0:
        raise ValueError("horizon must be positive")
    if rate_grid < 1:
        raise ValueError("grid must be >= 1")
    a = sys.a_matrix
    b = sys.b_matrix
    n = sys.n
    a_shift = a + mu * np.eye(n)
    bad = _pbh_stabilizable(a_shift, b)
    if bad is not None:
        raise UnstabilizableError(complex(bad))

    bbt = b @ b.T
    ham = np.block([[a_shift, -bbt],
                    [-np.eye(n), -a_shift.T]])
    _, z, sdim = schur(ham, output="real", sort=lambda re, im: re < 0.0)
    if sdim != n:
        raise UnstabilizableError(complex(np.nan))
    x1 = z[:n, :n]
    x2 = z[n:, :n]
    p = np.linalg.solve(x1.T, x2.T).T
    p = 0.5 * (p + p.T)

    def residual_of(pm):
        return a_shift.T @ pm + pm @ a_shift - pm @ bbt @ pm + np.eye(n)

    # one Newton step: tightens the residual by orders of magnitude
    res = residual_of(p)
    a_cl_shift = a_shift - bbt @ p
    try:
        delta = solve_continuous_lyapunov(a_cl_shift.T, -res)
        p_ref = 0.5 * ((p + delta) + (p + delta).T)
        if np.linalg.norm(residual_of(p_ref)) < np.linalg.norm(res):
            p = p_ref
    except np.linalg.LinAlgError:
        pass
    res_norm = float(np.linalg.norm(residual_of(p)))

    gain = -b.T @ p
    # check the rate before the overshoot grid, whose SVD can fail on a
    # closed loop that already misses mu
    rate = _spectral_rate(a + b @ gain)
    if rate < mu - 1e-8:
        missed = RuntimeError(
            f"synthesis missed the target: measured rate {rate:.6g} < "
            f"mu={mu:.6g}")
        missed.measured_rate = rate
        raise missed
    _, overshoot = closed_loop_rate(sys, gain, horizon=rate_horizon,
                                    grid=rate_grid)
    return FeedbackResult(mu=mu, riccati_p=p, gain_k=gain,
                          residual=res_norm, measured_rate=rate,
                          measured_overshoot=overshoot)


def _spectral_rate(a_cl):
    """Minus the spectral abscissa of a_cl."""
    return -float(np.max(np.linalg.eigvals(a_cl).real))


def closed_loop_rate(sys: LtiSystem, gain, horizon: float = 10.0,
                     grid: int = 200):
    """(rate, overshoot) of A + B K.

    rate is minus the spectral abscissa; overshoot is the grid maximum of
    ||e^{(A+BK) t}|| e^{rate t}, i.e. the transient constant in front of
    the decay.
    """
    if horizon <= 0:
        raise ValueError("horizon must be positive")
    gain = np.atleast_2d(np.asarray(gain, dtype=float))
    a_cl = sys.a_matrix + sys.b_matrix @ gain
    rate = _spectral_rate(a_cl)
    closed = LtiSystem(a_cl, sys.b_matrix, label="closed-loop")
    return rate, grid_peak(closed, horizon, grid, rate)


# ---------------------------------------------------------------------------
# minimum-norm steering
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SteeringSegment:
    """u(t) = -B^T e^{A^T (t_stop - t)} eta on [t_start, t_stop)."""

    t_start: float
    t_stop: float
    eta: np.ndarray


@dataclass(frozen=True)
class ControlSignal:
    """Piecewise steering control with its exact L2 norm."""

    breakpoints: tuple
    segments: tuple
    l2_norm: float


# directions with sigma^2 <= _UNREACHABLE_RTOL * sigma_1^2 are left alone by
# the exact steer: the rcond cut of a least-squares solve on G = R^T R
_UNREACHABLE_RTOL = 1e-13
# Newton steps on the Tikhonov nu stop once a step moves log nu by less
# than _NEWTON_RTOL; _NEWTON_STEPS caps them, enough for bisection alone
# to close any bracket of positive floats
_NEWTON_RTOL = 2.0**-46
_NEWTON_STEPS = 64
_BRACKET = 2.0**-44


def _steer(forms, eps, y0):
    """eta, terminal state and control norm for one steering segment.

    `forms` carries e^{AT} = adj^T and the SVD R = U diag(sig) V^T of the
    Gramian's factor (G = R^T R).  With c = V^T e^{AT} y0 the regularized
    normal equations (G + nu I) eta = e^{AT} y0 are diagonal: eta =
    V c/(sig^2 + nu), terminal = V nu c/(sig^2 + nu), ||R eta|| =
    ||sig c/(sig^2 + nu)||.  nu = 0 (the least-squares steer) when that
    lands within eps * ||y0||; else `_tikhonov_nu` lands the terminal
    norm on, never above, it.
    """
    sig, vt = forms.sig, forms.vt
    z = forms.adj.T @ y0
    target = eps * float(np.linalg.norm(y0))
    c = vt @ z
    norm_c = float(np.linalg.norm(c))
    if norm_c <= target:
        return np.zeros(len(z)), z, 0.0
    s2 = sig**2
    reach = s2 > _UNREACHABLE_RTOL * s2[0]
    stuck = float(np.linalg.norm(c[~reach]))
    if eps == 0.0:
        if stuck > 1e-9 * norm_c:
            raise SteeringError(
                "exact null steering requires a nonsingular controllability "
                "Gramian; the residual component is unreachable")
    elif stuck > target * (1.0 + 1e-9):
        raise SteeringError(
            f"terminal tolerance {eps:g}||y0|| is unreachable: the "
            f"uncontrollable component has norm {stuck:.3e}")
    if stuck >= target:
        eta_c = np.divide(c, s2, out=np.zeros_like(c), where=reach)
        term_c = np.where(reach, 0.0, c)
    else:
        # nu ||c|| / (sig_1^2 + nu) <= ||terminal(nu)||
        #   <= sqrt(nu^2 ||c_reach / sig_reach^2||^2 + stuck^2)
        lo = (math.sqrt((target - stuck) * (target + stuck))
              / float(np.linalg.norm(c[reach] / s2[reach])))
        hi = s2[0] * target / (norm_c - target)
        nu = _tikhonov_nu(c, s2, vt, target, lo, hi)
        eta_c, term_c = c / (s2 + nu), nu * c / (s2 + nu)
    return vt.T @ eta_c, vt.T @ term_c, float(np.linalg.norm(sig * eta_c))


def _tikhonov_nu(c, s2, vt, target, lo, hi):
    """The largest nu in [lo, hi], to the last bits, whose returned
    terminal vt^T (nu c/(s2 + nu)) has norm <= target; lo is returned
    when none does.

    Newton's method in x = log nu on the secular equation
    g(x) = 1/2 log sum c_i^2 nu^2/(s2_i + nu)^2 = log target, whose
    derivative is sum c_i^2 nu^2 s2_i/(s2_i + nu)^3 over the same sum
    (Moré and Sorensen, "Computing a trust region step", SIAM J. Sci.
    Stat. Comput. 4(3), 1983), each step kept inside the bracket that
    the signs of g - log target leave; a step that leaves it bisects.
    Geometric bisection then closes the bracket nu (1 -+ _BRACKET) around
    Newton's root, or all of [lo, hi] where that one fails, verified on
    the norm of the vector returned, not of its coefficients in V, so
    "never above" holds in floating point too.
    """
    def lands(nu):
        return np.linalg.norm(vt.T @ (nu * c / (s2 + nu))) <= target

    scale = float(np.linalg.norm(c))
    c2 = (c / scale)**2
    log_target = math.log(target / scale)
    below, above = lo, hi
    nu = math.sqrt(lo) * math.sqrt(hi)
    for _ in range(_NEWTON_STEPS):
        q = nu / (s2 + nu)
        terms = c2 * q * q
        total = float(terms.sum())
        slope = float(terms @ (s2 / (s2 + nu)))
        gap = 0.5 * math.log(total) - log_target if total > 0.0 else -math.inf
        if gap <= 0.0:
            below = nu
        else:
            above = nu
        step = gap * total / slope if slope > 0.0 else math.inf
        if abs(step) <= _NEWTON_RTOL:
            break
        nu = nu * math.exp(-step) if abs(step) < 700.0 else 0.0
        if not below < nu < above:
            nu = math.sqrt(below) * math.sqrt(above)
            if not below < nu < above:
                break
    down, up = nu * (1.0 - _BRACKET), nu * (1.0 + _BRACKET)
    if lo < down and lands(down) and up < hi and not lands(up):
        lo, hi = down, up
    nu = math.sqrt(lo) * math.sqrt(hi)
    while lo < nu < hi:
        if lands(nu):
            lo = nu
        else:
            hi = nu
        nu = math.sqrt(lo) * math.sqrt(hi)
    return lo


def min_norm_eps_null(sys: LtiSystem, horizon: float, eps: float, y0,
                      quad: Optional[QuadratureSpec] = None) -> ControlSignal:
    """Minimum-norm control steering y0 into the ball eps*||y0|| at time T.

    The control has the closed form u(t) = -B^T e^{A^T (T-t)} eta with eta
    the Tikhonov solution of the Gramian's normal equations, diagonal in
    the right singular basis of its factor R (G = R^T R); its L2 norm is
    ||R eta||, which unlike sqrt(eta^T G eta) does not cancel.
    """
    if horizon <= 0:
        raise ValueError("horizon must be positive")
    if eps < 0:
        raise ValueError("eps must be nonnegative")
    forms = _dense_forms(sys, horizon, quad or DEFAULT_QUAD)
    eta, _, l2 = _steer(forms, eps, np.asarray(y0, dtype=float))
    seg = SteeringSegment(0.0, horizon, eta)
    return ControlSignal(breakpoints=(0.0, horizon), segments=(seg,),
                         l2_norm=l2)


@dataclass(frozen=True)
class DecayReport:
    """Measured contraction of the concatenated steering scheme."""

    seg_length: float
    contraction: float                 # prescribed per-segment factor
    state_norms: tuple                 # ||y(i * seg_length)||
    control_norms: tuple               # L2 norm of each segment control
    fitted_gain: float                 # max ||u_i|| / (contraction^i ||y0||)
    weighted_l2: float                 # L2 norm of e^{beta t} u(t)
    weighted_sum_bound: float          # geometric-series bound on the above
    contraction_ok: bool
    geometric_ok: bool


def concatenated_control(sys: LtiSystem, beta: float, t_seg: float,
                         eps_seg: float, y0, segments: int,
                         quad: Optional[QuadratureSpec] = None):
    """Concatenate per-segment minimum-norm controls into a decaying scheme.

    Each segment steers the current state into the ball eps_seg*||state||;
    the states then contract geometrically, the segment control norms decay
    at the same ratio, and the exponentially weighted control e^{beta t} u
    has finite L2 norm as long as eps_seg <= e^{-2 beta t_seg}.
    """
    if beta <= 0 or t_seg <= 0 or segments < 1:
        raise ValueError("beta, t_seg and segments must be positive")
    if not 0.0 < eps_seg < 1.0:
        raise ValueError("eps_seg must lie in (0, 1)")
    if eps_seg > math.exp(-2.0 * beta * t_seg) * (1.0 + 1e-12):
        raise ValueError(
            f"contraction eps_seg={eps_seg:g} must not exceed "
            f"exp(-2 beta t_seg)={math.exp(-2.0 * beta * t_seg):g}")
    y0 = np.asarray(y0, dtype=float)
    quad = quad or DEFAULT_QUAD
    table = ExpTable(sys.a_matrix, sys.is_diagonal)
    forms = _dense_forms(sys, t_seg, quad, table)

    state = y0
    segs, state_norms, control_norms = [], [float(np.linalg.norm(y0))], []
    try:
        for i in range(segments):
            eta, terminal, l2 = _steer(forms, eps_seg, state)
            segs.append(SteeringSegment(i * t_seg, (i + 1) * t_seg, eta))
            control_norms.append(l2)
            state = terminal
            state_norms.append(float(np.linalg.norm(state)))
    except SteeringError:
        # a caller that keeps the exception keeps this frame: drop the
        # table's slices first
        del table
        raise

    total_l2 = math.sqrt(sum(c**2 for c in control_norms))
    breakpoints = tuple(i * t_seg for i in range(segments + 1))
    signal = ControlSignal(breakpoints=breakpoints, segments=tuple(segs),
                           l2_norm=total_l2)

    ny0 = max(state_norms[0], 1e-300)
    contraction_ok = all(
        state_norms[i] <= eps_seg**i * ny0 * (1.0 + 1e-9)
        for i in range(len(state_norms)))
    fitted_gain = max((c / (eps_seg**i * ny0)
                       for i, c in enumerate(control_norms)), default=0.0)

    # L2 norm of the beta-weighted control, segment by segment: with
    # s = t_stop - t, int e^{2 beta t} ||u||^2 dt is e^{2 beta t_stop} times
    # the observation energy of eta under A - beta I over one segment,
    # ||R_beta eta||^2 with R_beta the factor of that pair's Gramian.  A
    # norm of the factor does not cancel as eta^T G_beta eta does when
    # |eta| is large.  Its node exponentials e^{(A - beta I) t} are
    # e^{-beta t} times the e^{A t} that the forms' Gramian left in the
    # table, so a shifted view of it computes no new expm
    view = table.shifted(-beta)
    shifted = LtiSystem(view.matrix, sys.b_matrix, label="beta-shifted")
    r_beta = observability_gramian(shifted, t_seg, quad, table=view).factor
    weighted_l2 = math.sqrt(sum(
        math.exp(2.0 * beta * seg.t_stop)
        * float(np.linalg.norm(r_beta @ seg.eta))**2 for seg in segs))
    bound = (fitted_gain * ny0 * math.exp(beta * t_seg)
             / (1.0 - math.exp(-beta * t_seg)))
    report = DecayReport(
        seg_length=t_seg, contraction=eps_seg,
        state_norms=tuple(state_norms), control_norms=tuple(control_norms),
        fitted_gain=fitted_gain, weighted_l2=weighted_l2,
        weighted_sum_bound=bound, contraction_ok=contraction_ok,
        geometric_ok=weighted_l2 <= bound * (1.0 + 1e-9))
    return signal, report


def certificate_to_feedback(sys: LtiSystem, family: CertificateFamily,
                            mu: float) -> FeedbackResult:
    """Synthesize rate-mu feedback backed by a certified family entry.

    Picks the smallest certified integer index k with k > mu, selects its
    admissible horizon with `family.sequence_entry(k)` (the rule
    `discrete_sequence` uses), and delegates to the shifted Riccati
    synthesis; the selection is recorded on the result.
    """
    if mu <= 0:
        raise ValueError("target rate mu must be positive")
    candidates = []
    for alpha in family.alphas:
        k = round(alpha) - 1
        if abs(alpha - round(alpha)) < 1e-9 and k >= 1 \
                and family.alpha_certified(alpha):
            candidates.append(k)
    admissible = sorted(k for k in candidates if k > mu)
    if not admissible:
        raise ValueError(
            f"family has no certified integer entry with index above "
            f"mu={mu:g}")
    k = admissible[0]
    pick = family.sequence_entry(k)
    result = solve_shifted_riccati(sys, mu)
    chain = {
        "k": k,
        "alpha": float(k + 1),
        "horizon": pick.horizon,
        "d_const": pick.d_const,
        "c_const": pick.c_const,
        "residual_bound": math.exp(-k * pick.horizon),
    }
    return replace(result, certificate_chain=chain)
