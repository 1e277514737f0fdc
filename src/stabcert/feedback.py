"""Rapid-decay feedback synthesis and minimum-norm steering controls.

Feedback with a prescribed decay rate mu comes from the stabilizing
solution of the shift-by-mu Riccati equation

    (A + mu I)^T P + P (A + mu I) - P B B^T P + I = 0,

solved on the stable invariant subspace of the associated Hamiltonian
matrix (ordered real Schur form) with one Newton refinement, whose
residual norm is formed once per iterate.  One PBH test comes first
(`_pbh_offender`), and its pencils do not depend on mu: the pair's
`LtiSystem.spectrum`, formed once per system, holds their Grams, and each
mu screens them in one batched Cholesky; only where that fails does the
exact test run, one batched SVD of the pencils of A + mu I.  Undoing the
shift moves every closed-loop eigenvalue of A + BK, K = -B^T P, left of
-mu.  A synthesis is returned only when the computed spectral rate
exceeds mu and P is positive definite to working precision, lambda_min(P)
> n u lambda_max(P) with u the unit roundoff.  A P that fails this is
singular in floating point, and its gain is no rate-mu gain however far
left the computed eigenvalues sit (on n = 20 pairs at mu = 2 such gains
reach ||K|| of about 1e8).  The remaining operations build the
minimum-norm controls that steer into a contraction ball and concatenate
them into a geometrically decaying control with finite
exponentially-weighted norm.  Steering reads the Gramian's factor R,
never G and never its rounding floor (`semigroup.gramian_floor`): in
R's right singular basis the regularized normal equations are
diagonal, so each segment is a scalar root of the secular equation for
the Tikhonov parameter, found by safeguarded Newton steps with no linear
solve.  A concatenated steering exponentiates A at most once per node
time: the beta-weighted energies are ||R_beta eta||^2, with R_beta the
factor of the Gramian of A - beta I, whose node exponentials come from a
shifted view of the table the forms' Gramian filled.  That Gramian's
first level is sized by ||A - beta I||_F, so its levels are not the
forms': the view computes the node times they do not share as fresh
slices.  On perfbench's `feedback_jobs(11, 180)` (beta = 1) it starts at 8
panels where the forms start at 4 on 57 of the 60 n = 10 pairs, and
computes 15.2 fresh slices per n = 10 steering and 3.6 per n = 5 one (the
forms' Gramian gathers no floor probes, so their e^{AT} is one slice of
its own and the odd-eighth panel starts are the view's to compute; a job
still takes 33.6 slices in 3.4 `expm` calls).
"""

import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np
from scipy.linalg import schur, solve_continuous_lyapunov

from .semigroup import ExpTable, observability_gramian
from .systems import LtiSystem
from .weakobs import CertificateFamily

__all__ = [
    "UnstabilizableError",
    "SteeringError",
    "FeedbackResult",
    "SteeringSegment",
    "ControlSignal",
    "DecayReport",
    "solve_shifted_riccati",
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
    """Synthesized feedback with its measured closed-loop rate.

    P must be symmetric, positive definite to working precision
    (`np.linalg.LinAlgError`, naming lambda_min/lambda_max, otherwise)
    and a small enough Riccati residual.
    """

    mu: float
    riccati_p: np.ndarray
    gain_k: np.ndarray
    residual: float
    measured_rate: float
    certificate_chain: Optional[dict] = None

    def __post_init__(self):
        p = np.asarray(self.riccati_p, dtype=float)
        scale = max(np.abs(p).max(), 1.0)
        if np.abs(p - p.T).max() > 1e-10 * scale:
            raise ValueError("riccati solution must be symmetric")
        sym = 0.5 * (p + p.T)
        sym.setflags(write=False)
        object.__setattr__(self, "riccati_p", sym)
        eig = np.linalg.eigvalsh(sym)
        if eig[0] < -1e-10 * scale:
            raise ValueError("riccati solution must be PSD")
        if not eig[0] > len(sym) * np.finfo(float).eps / 2.0 * eig[-1]:
            raise np.linalg.LinAlgError(
                f"riccati solution is singular to working precision: "
                f"lambda_min/lambda_max = {eig[0] / eig[-1]:.3e}")
        if self.residual > 1e-8 * (1.0 + np.linalg.norm(sym)) ** 2:
            raise ValueError(f"riccati residual {self.residual:.3e} too large")


def _pbh_offender(sys, mu):
    """The rate-mu PBH test of `sys`: the first eigenvalue lam of A + mu I,
    in `eigvals` order, with Re lam >= -1e-9 scale whose pencil
    P = [lam I - (A + mu I), B] has sigma_min(P) <= 1e-10 scale,
    scale = max(||A + mu I||_2 + ||B||_2, 1); None if there is none.  Of a
    conjugate pair only the member LAPACK lists first, Im lam > 0, is
    tested: the other's pencil is the entrywise conjugate, with the same
    singular values.

    The pair's `spectrum` is screened first: the shifted pencil at
    lam + mu is [lam I - A, B], whose Gram P P^H the record holds at every
    eigenvalue lam of A with Im lam >= 0, formed once for all mu.  One
    batched Cholesky factors P P^H - 1e-8 s^2 I, s = max(||A||_2 + mu +
    ||B||_2, 1) >= scale.  If every factorization succeeds, sigma_min(P)^2
    exceeds 1e-8 s^2 less the rounding of the Gram product and of the
    Cholesky, at most about 4 (n + m)^2 u s^2 as ||P|| <= 2 s.  For
    n + m <= 1000 that leaves sigma_min(P) > 9.7e-5 s at every eigenvalue
    of A, six orders of magnitude above the flag, and None is returned:
    the eigenvalues of A + mu I would have to stray from eig(A) + mu by
    more than 1e-4 s for the exact test to flag one.  Otherwise that test
    runs, with one batched SVD of the tested pencils.
    """
    n = sys.n
    spec = sys.spectrum
    screen = max(spec.a_norm + mu + sys.b_norm, 1.0)
    try:
        np.linalg.cholesky(spec.pencil_grams - 1e-8 * screen**2 * np.eye(n))
        return None
    except np.linalg.LinAlgError:
        pass
    a_shift = sys.a_matrix + mu * np.eye(n)
    b = sys.b_matrix
    scale = max(np.linalg.norm(a_shift, 2) + sys.b_norm, 1.0)
    lam = np.linalg.eigvals(a_shift)
    lam = lam[(lam.real >= -1e-9 * scale) & (lam.imag >= 0)]
    if not lam.size:
        return None
    pencils = np.concatenate(
        [lam[:, None, None] * np.eye(n) - a_shift,
         np.broadcast_to(b.astype(complex), (lam.size,) + b.shape)], axis=2)
    smin = np.linalg.svd(pencils, compute_uv=False)[:, -1]
    bad = np.flatnonzero(smin <= 1e-10 * scale)
    return lam[bad[0]] if bad.size else None


def solve_shifted_riccati(sys: LtiSystem, mu: float) -> FeedbackResult:
    """Feedback gain pushing every closed-loop eigenvalue left of -mu.

    A pair that fails the rate-mu PBH test raises `UnstabilizableError`
    naming the eigenvalue.  A closed loop whose spectral rate is not above
    mu raises `RuntimeError` with that rate as its `measured_rate`
    attribute.  A Hamiltonian whose ordered Schur form does not hold
    exactly n stable eigenvalues, or a P that is not positive definite to
    working precision (see `FeedbackResult`), raises
    `np.linalg.LinAlgError`: PBH passed, so neither names an eigenvalue.
    """
    if not 0.0 < mu < math.inf:
        raise ValueError("target rate mu must be positive and finite")
    a = sys.a_matrix
    b = sys.b_matrix
    n = sys.n
    bad = _pbh_offender(sys, mu)
    if bad is not None:
        raise UnstabilizableError(complex(bad))
    a_shift = a + mu * np.eye(n)

    bbt = b @ b.T
    ham = np.empty((2 * n, 2 * n))
    ham[:n, :n] = a_shift
    ham[:n, n:] = -bbt
    ham[n:, :n] = -np.eye(n)
    ham[n:, n:] = -a_shift.T
    _, z, sdim = schur(ham, output="real", sort=lambda re, im: re < 0.0)
    if sdim != n:
        raise np.linalg.LinAlgError(
            f"hamiltonian splits into sdim = {sdim} stable and "
            f"{2 * n - sdim} unstable eigenvalues, not n = {n} each: no "
            f"stabilizing riccati solution to working precision")
    x1 = z[:n, :n]
    x2 = z[n:, :n]
    p = np.linalg.solve(x1.T, x2.T).T
    p = 0.5 * (p + p.T)

    def residual_of(pm):
        return a_shift.T @ pm + pm @ a_shift - pm @ bbt @ pm + np.eye(n)

    # one Newton step: tightens the residual by orders of magnitude; the
    # residual norm of the P kept is the one its iterate formed
    res = residual_of(p)
    res_norm = float(np.linalg.norm(res))
    a_cl_shift = a_shift - bbt @ p
    try:
        delta = solve_continuous_lyapunov(a_cl_shift.T, -res)
        p_ref = 0.5 * ((p + delta) + (p + delta).T)
        ref_norm = float(np.linalg.norm(residual_of(p_ref)))
        if ref_norm < res_norm:
            p, res_norm = p_ref, ref_norm
    except np.linalg.LinAlgError:
        pass

    gain = -b.T @ p
    rate = _spectral_rate(a + b @ gain)
    if not rate > mu:
        missed = RuntimeError(
            f"synthesis missed the target: measured rate {rate:.6g} <= "
            f"mu={mu:.6g}")
        missed.measured_rate = rate
        raise missed
    return FeedbackResult(mu=mu, riccati_p=p, gain_k=gain,
                          residual=res_norm, measured_rate=rate)


def _spectral_rate(a_cl):
    """Minus the spectral abscissa of a_cl."""
    return -float(np.max(np.linalg.eigvals(a_cl).real))


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


def _steering_basis(sys, horizon, table=None):
    """(adj, sig, vt) of one horizon: adj = e^{A^T T}, the transpose of
    `table`'s e^{AT} (an ExpTable of A, call-local if None), and the SVD
    R = U diag(sig) V^T of the Gramian's factor (G = R^T R).  These are
    all `_steer` reads: the Gramian's floor is never formed."""
    if table is None:
        table = ExpTable(sys.a_matrix, sys.is_diagonal)
    factor = observability_gramian(sys, horizon, table=table).factor
    _, sig, vt = np.linalg.svd(factor)
    return table.stack([horizon])[0].T, sig, vt


def _steer(basis, eps, y0):
    """eta, terminal state and control norm for one steering segment.

    `basis` is a `_steering_basis`: e^{AT} = adj^T and the SVD
    R = U diag(sig) V^T of the Gramian's factor.  With c = V^T e^{AT} y0
    the regularized normal equations (G + nu I) eta = e^{AT} y0 are
    diagonal: eta = V c/(sig^2 + nu), terminal = V nu c/(sig^2 + nu),
    ||R eta|| = ||sig c/(sig^2 + nu)||.  nu = 0 (the least-squares
    steer) when that lands within eps * ||y0||; else `_tikhonov_nu` lands
    the terminal norm on, never above, it.
    """
    adj, sig, vt = basis
    z = adj.T @ y0
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


def min_norm_eps_null(sys: LtiSystem, horizon: float, eps: float,
                      y0) -> ControlSignal:
    """Minimum-norm control steering y0 into the ball eps*||y0|| at time T.

    The control has the closed form u(t) = -B^T e^{A^T (T-t)} eta with eta
    the Tikhonov solution of the Gramian's normal equations, diagonal in
    the right singular basis of its factor R (G = R^T R); its L2 norm is
    ||R eta||, which unlike sqrt(eta^T G eta) does not cancel.
    """
    if horizon <= 0:
        raise ValueError("horizon must be positive")
    if not 0.0 <= eps < math.inf:
        raise ValueError("eps must be finite and nonnegative")
    basis = _steering_basis(sys, horizon)
    eta, _, l2 = _steer(basis, eps, np.asarray(y0, dtype=float))
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
                         eps_seg: float, y0, segments: int):
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
    table = ExpTable(sys.a_matrix, sys.is_diagonal)
    basis = _steering_basis(sys, t_seg, table)

    state = y0
    segs, state_norms, control_norms = [], [float(np.linalg.norm(y0))], []
    try:
        for i in range(segments):
            eta, terminal, l2 = _steer(basis, eps_seg, state)
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
    # e^{-beta t} times the table's e^{A t}, so no (A - beta I) t reaches
    # expm; its levels are sized by ||A - beta I||_F, so the e^{A t} at
    # node times the forms' Gramian did not use are fresh slices
    view = table.shifted(-beta)
    shifted = LtiSystem(view.matrix, sys.b_matrix, label="beta-shifted")
    r_beta = observability_gramian(shifted, t_seg, table=view).factor
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
    if not 0.0 < mu < math.inf:
        raise ValueError("target rate mu must be positive and finite")
    # alpha = k + 1 exactly: the entry `sequence_entry(k)` looks up
    admissible = sorted(int(alpha) - 1 for alpha in family.alphas
                        if float(alpha).is_integer() and alpha - 1 > mu
                        and family.alpha_certified(alpha))
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
