"""Weak-observability certificates: the decision core, checking,
bracketing and sweeping.

A certificate (T, alpha, D, C) claims that for every state phi

    ||e^{A^T T} phi||  <=  D * sqrt(<G(T) phi, phi>)  +  C e^{-alpha T} ||phi||

where G(T) is the observability Gramian.  The decision procedure is
two-sided:

* sufficient (sound) test: the quadratic form
  D^2 G(T) + (C e^{-alpha T})^2 I - e^{A T} e^{A^T T} is PSD.  By
  sqrt(x^2 + y^2) <= x + y this certifies the inequality outright; by
  (x + y)^2 <= 2 x^2 + 2 y^2 it is conservative by at most a factor
  sqrt(2) in (D, C).
* necessary test: maximize the violation ratio
  r(phi) = (||e^{A^T T} phi|| - C e^{-alpha T} ||phi||)_+ / sqrt(<G phi, phi>)
  over random, eigen-directed and locally-ascended unit states; a
  confirmed r(phi) > D refutes with phi stored as the witness.

Between the two the verdict is "inconclusive", never guessed.

Every verdict in the package, `stabcert.periodic` included, goes through
the one decision core here (`Forms`, `slack`, `best_state`, `decide`);
`check_certificate` and `optimal_d_bracket` are thin wrappers over it.
"""

import math
from dataclasses import dataclass, replace
from typing import Callable, NamedTuple, Optional, Sequence, Union

import numpy as np
from scipy.linalg import eigh as generalized_eigh

from .semigroup import (DEFAULT_QUAD, QuadratureSpec, observability_gramian,
                        observation_energy, transition_matrix)
from .systems import LtiSystem

__all__ = [
    "CERTIFIED", "REFUTED", "INCONCLUSIVE",
    "WeakObsCertificate", "CertificateFamily", "SequenceEntry",
    "check_certificate", "optimal_d_bracket", "sweep_alpha",
    "discrete_sequence",
]

CERTIFIED = "certified"
REFUTED = "refuted"
INCONCLUSIVE = "inconclusive"

# relative threshold below which a quadratic form counts as singular
_SINGULAR_RTOL = 1e-13


@dataclass(frozen=True)
class WeakObsCertificate:
    """One weak-observability inequality instance and its verdict."""

    horizon: float
    alpha: float
    d_const: float
    c_const: float
    margin: Optional[float] = None          # smallest sufficient-test slack
    sample_margin: Optional[float] = None   # d_const - best violation ratio
    status: str = "unchecked"
    witness: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.horizon <= 0 or self.alpha <= 0:
            raise ValueError("horizon and alpha must be positive")
        if self.d_const < 0 or self.c_const < 0:
            raise ValueError("certificate constants must be nonnegative")
        for v in (self.horizon, self.alpha, self.d_const, self.c_const):
            if not math.isfinite(v):
                raise ValueError("certificate fields must be finite")

    @property
    def residual(self):
        return self.c_const * math.exp(-self.alpha * self.horizon)


class SequenceEntry(NamedTuple):
    k: int
    horizon: float
    d_const: float


@dataclass(frozen=True)
class CertificateFamily:
    """Certificates over an (alpha, T) grid plus the family verdict."""

    alphas: tuple
    horizons: tuple
    certificates: tuple
    kind: str = "alpha-grid"          # which family statement is instanced
    residual_source: str = "user"     # where C(alpha) came from
    t_zero: float = 0.0

    def __post_init__(self):
        if any(b <= a for a, b in zip(self.alphas, self.alphas[1:])):
            raise ValueError("alpha grid must be strictly increasing")
        if any(b <= a for a, b in zip(self.horizons, self.horizons[1:])):
            raise ValueError("horizon grid must be strictly increasing")
        if any(c.status == "unchecked" for c in self.certificates):
            raise ValueError("family entries must carry a verdict")

    def entries_for_alpha(self, alpha):
        return [c for c in self.certificates if c.alpha == alpha]

    def alpha_certified(self, alpha):
        entries = self.entries_for_alpha(alpha)
        return bool(entries) and all(c.status == CERTIFIED for c in entries)

    @property
    def all_certified(self):
        return all(self.alpha_certified(a) for a in self.alphas)

    @property
    def verdict(self):
        return family_verdict(self.all_certified,
                              [c.status for c in self.certificates])

    def sequence_entry(self, k: int, t_zero: Optional[float] = None):
        """The certified entry at alpha = k+1 with the smallest grid horizon
        T exceeding both t_zero (default: the family's) and ln C(k+1), so
        that C(k+1) e^{-(k+1) T} <= e^{-k T}."""
        if t_zero is None:
            t_zero = self.t_zero
        alpha = float(k + 1)
        entries = [c for c in self.entries_for_alpha(alpha)
                   if c.status == CERTIFIED]
        if not entries:
            raise ValueError(f"family has no certified entries at "
                             f"alpha={alpha:g} (needed for k={k})")
        c_val = entries[0].c_const
        admissible = [c for c in entries
                      if c.horizon > t_zero and c.horizon > math.log(c_val)]
        if not admissible:
            raise ValueError(
                f"no grid horizon exceeds max(t_zero={t_zero:g}, "
                f"ln C={math.log(c_val):.6g}) for k={k}")
        return min(admissible, key=lambda c: c.horizon)


# ---------------------------------------------------------------------------
# the decision core
# ---------------------------------------------------------------------------

class Forms(NamedTuple):
    """G(T) and W = e^{A T} e^{A^T T} as matrices, with adj = e^{A^T T},
    or as diagonals (1-D arrays), with adj None."""

    gram: np.ndarray
    w: np.ndarray
    adj: Optional[np.ndarray] = None


class Decision(NamedTuple):
    status: str
    margin: float                   # smallest eigenvalue of the PSD slack
    sample_margin: float            # D - best sampled violation ratio
    witness: Optional[np.ndarray]   # the confirmed violating state


def slack(forms: Forms, d_const: float, eps: float) -> np.ndarray:
    """The sufficient-test slack D^2 G + eps^2 I - W (a diagonal for
    diagonal forms); the inequality holds when it is PSD."""
    eye = 1.0 if forms.gram.ndim == 1 else np.eye(len(forms.gram))
    return d_const**2 * forms.gram + eps**2 * eye - forms.w


def _margin(s):
    if s.ndim == 1:
        return float(s.min())
    return float(np.linalg.eigvalsh(0.5 * (s + s.T)).min())


def _free_norm(forms, phi):
    """||e^{A^T T} phi||."""
    if forms.adj is None:
        return math.sqrt(float(np.sum(forms.w * phi**2)))
    return np.linalg.norm(forms.adj @ phi)


def _ratio(phi, forms, eps):
    """(||e^{A^T T} phi|| - eps ||phi||)_+ / sqrt(<G phi, phi>)."""
    phi = phi / np.linalg.norm(phi)
    num = _free_norm(forms, phi) - eps
    if num <= 0:
        return 0.0
    gram = forms.gram
    if gram.ndim == 1:
        q, trace = float(np.sum(gram * phi**2)), gram.sum()
    else:
        q, trace = float(phi @ gram @ phi), np.trace(gram)
    if q <= _SINGULAR_RTOL * max(trace, 1e-300):
        return np.inf
    return num / math.sqrt(q)


def best_state(forms: Forms, eps: float, candidates):
    """Best violation ratio over the candidate states, and its state."""
    best_phi, best = None, -np.inf
    for phi in candidates:
        val = _ratio(phi, forms, eps)
        if val > best:
            best_phi, best = phi, val
    return best_phi, best


def decide(forms: Forms, d_const: float, eps: float, search,
           energy: Callable[[np.ndarray], float]) -> Decision:
    """Verdict on ||e^{A^T T} phi|| <= D sqrt(<G phi, phi>) + eps ||phi||.

    `search` is the (state, ratio) found on these forms and eps, whatever
    D is.  Refuted only when that state violates the inequality beyond
    rounding with its observation energy recomputed by `energy`, an
    independent route; else certified iff the PSD margin is >= 0.
    """
    margin = _margin(slack(forms, d_const, eps))
    phi, best = search
    sample_margin = d_const - best if np.isfinite(best) else -np.inf
    if phi is not None and best > d_const:
        unit = phi / np.linalg.norm(phi)
        lhs = _free_norm(forms, unit)
        rhs = d_const * math.sqrt(max(energy(unit), 0.0)) + eps
        if lhs > rhs + 1e-12 * (1.0 + lhs):
            return Decision(REFUTED, margin, sample_margin, phi)
    status = CERTIFIED if margin >= 0.0 else INCONCLUSIVE
    return Decision(status, margin, sample_margin, None)


def family_verdict(all_certified: bool, statuses) -> str:
    """Certified when every claim is, else refuted when some entry is."""
    if all_certified:
        return CERTIFIED
    return REFUTED if REFUTED in statuses else INCONCLUSIVE


def _dense_forms(sys, horizon, quad, gram=None):
    if gram is None:
        gram = observability_gramian(sys, horizon, quad).matrix
    trans = transition_matrix(sys, horizon)
    return Forms(gram, trans @ trans.T, trans.T)


def _candidate_states(n, forms, rng, samples):
    gram, w_mat = forms.gram, forms.w
    cands = [rng.standard_normal(n) for _ in range(samples)]
    cands.extend(np.eye(n))
    _, gv = np.linalg.eigh(gram)
    cands.extend(gv.T)                       # includes near-null directions
    _, wv = np.linalg.eigh(0.5 * (w_mat + w_mat.T))
    cands.extend(wv.T)
    # generalized eigenvectors of (W, G): exact maximizers when eps = 0
    jitter = max(np.trace(gram), 1e-30) / max(n, 1) * 1e-12
    try:
        _, pv = generalized_eigh(0.5 * (w_mat + w_mat.T),
                                 gram + jitter * np.eye(n))
        cands.extend(pv.T)
    except np.linalg.LinAlgError:
        pass
    return [v / np.linalg.norm(v) for v in cands if np.linalg.norm(v) > 0]


def _ascend(phi, objective, iters=20, step=0.1, h=1e-6):
    """Normalized-gradient ascent on the unit sphere (numeric gradient)."""
    phi = phi / np.linalg.norm(phi)
    best = objective(phi)
    if not np.isfinite(best):
        return phi, best
    for _ in range(iters):
        grad = np.zeros_like(phi)
        for i in range(phi.size):
            e = np.zeros_like(phi)
            e[i] = h
            up, dn = objective(phi + e), objective(phi - e)
            if not (np.isfinite(up) and np.isfinite(dn)):
                return phi, best
            grad[i] = (up - dn) / (2 * h)
        norm = np.linalg.norm(grad)
        if norm == 0:
            break
        cand = phi + step * grad / norm
        cand /= np.linalg.norm(cand)
        val = objective(cand)
        if val > best:
            phi, best = cand, val
        else:
            break
    return phi, best


def _violation_search(sys, forms, eps, samples, seed):
    """Seeded search: the best sampled state, then ascent from it."""
    rng = np.random.default_rng(seed)
    phi, best = best_state(forms, eps,
                           _candidate_states(sys.n, forms, rng, samples))
    if phi is not None and np.isfinite(best) and best > 0:
        phi, best = _ascend(phi, lambda v: _ratio(v, forms, eps))
    return phi, best


def _d_bracket(forms, eps, best, d_cap=1e9):
    """(sampled lower bound, bisected sufficient-test upper bound) on D."""
    d_lo = max(best, 0.0)
    if not np.isfinite(d_lo):
        return d_lo, np.inf

    def passes(d_const):
        return _margin(slack(forms, d_const, eps)) >= 0.0

    if passes(0.0):
        return d_lo, 0.0
    hi = 1.0
    while not passes(hi):
        hi *= 4.0
        if hi > d_cap:
            return d_lo, np.inf
    lo = 0.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if passes(mid):
            hi = mid
        else:
            lo = mid
    return d_lo, hi


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------

def check_certificate(sys: LtiSystem, cert: WeakObsCertificate,
                      samples: int = 200, seed: int = 0,
                      quad: Optional[QuadratureSpec] = None,
                      gram: Optional[np.ndarray] = None
                      ) -> WeakObsCertificate:
    """Two-sided decision on one certificate; returns it with a verdict.

    Certified requires the PSD sufficient test to pass AND no sampled
    counterexample to survive independent re-evaluation.  Refuted stores
    the confirmed witness state.  Everything else is inconclusive, with
    both margins reported.
    """
    quad = quad or DEFAULT_QUAD
    forms = _dense_forms(sys, cert.horizon, quad, gram)
    eps = cert.residual
    decision = decide(forms, cert.d_const, eps,
                      _violation_search(sys, forms, eps, samples, seed),
                      lambda phi: observation_energy(sys, cert.horizon, phi,
                                                     quad))
    return replace(cert, **decision._asdict())


def optimal_d_bracket(sys: LtiSystem, horizon: float, eps: float = 0.0,
                      samples: int = 200, seed: int = 0,
                      quad: Optional[QuadratureSpec] = None,
                      d_cap: float = 1e9):
    """Bracket the smallest valid D for a fixed residual eps.

    Returns (d_lo, d_hi): d_lo is the best sampled violation ratio (a true
    lower bound), d_hi the smallest D passing the sufficient quadratic test
    (bisection; a true upper bound).  d_hi is inf when even d_cap fails,
    which happens exactly when some unobserved direction is not covered by
    the residual.
    """
    if horizon <= 0:
        raise ValueError("horizon must be positive")
    if eps < 0:
        raise ValueError("residual must be nonnegative")
    forms = _dense_forms(sys, horizon, quad or DEFAULT_QUAD)
    _, best = _violation_search(sys, forms, eps, samples, seed)
    return _d_bracket(forms, eps, best, d_cap)


def _resolve_residual_rule(residual_rule, alphas):
    if callable(residual_rule):
        return {a: float(residual_rule(a)) for a in alphas}, "formula"
    if isinstance(residual_rule, dict):
        return {a: float(residual_rule[a]) for a in alphas}, "table"
    value = float(residual_rule)
    return {a: value for a in alphas}, "constant"


def sweep_alpha(sys: LtiSystem, alphas: Sequence[float],
                horizons: Sequence[float],
                residual_rule: Union[float, dict, Callable] = 1.0,
                samples: int = 200, seed: int = 0,
                quad: Optional[QuadratureSpec] = None,
                t_zero: float = 0.0) -> CertificateFamily:
    """For each alpha, look for one (D, C(alpha)) certifying every horizon.

    The per-alpha D is the largest sufficient-test bound over the horizon
    grid (with a small safety factor), so certified entries carry strictly
    positive margins.  Entries with an unobserved direction not covered by
    the residual are refuted with a stored witness.

    Each horizon's forms are built once and each (alpha, T) runs one
    violation search, which serves the D bracket and every D checked, and
    each distinct (T, witness) energy is integrated once, so entries equal
    `check_certificate` with the same seed and samples.
    """
    alphas = tuple(sorted(float(a) for a in alphas))
    horizons = tuple(sorted(float(t) for t in horizons))
    if not alphas or not horizons:
        raise ValueError("alpha and horizon grids must be nonempty")
    quad = quad or DEFAULT_QUAD
    c_of_alpha, source = _resolve_residual_rule(residual_rule, alphas)
    forms = {t: _dense_forms(sys, t, quad) for t in horizons}
    energies = {}

    def energy(t, unit):
        # depends on neither alpha nor D: alphas and bump levels that find
        # the same witness share one quadrature
        key = (t, unit.tobytes())
        if key not in energies:
            energies[key] = observation_energy(sys, t, unit, quad)
        return energies[key]

    def check_alpha(alpha):
        c_val = c_of_alpha[alpha]
        eps = {t: c_val * math.exp(-alpha * t) for t in horizons}
        searches = {t: _violation_search(sys, forms[t], eps[t], samples, seed)
                    for t in horizons}
        brackets = {t: _d_bracket(forms[t], eps[t], searches[t][1])
                    for t in horizons}

        def check(t, d_const):
            cert = WeakObsCertificate(horizon=t, alpha=alpha,
                                      d_const=d_const, c_const=c_val)
            decision = decide(forms[t], d_const, eps[t], searches[t],
                              lambda unit: energy(t, unit))
            return replace(cert, **decision._asdict())

        finite = [hi for _, hi in brackets.values() if np.isfinite(hi)]
        if len(finite) == len(horizons):
            # inflate the common D so certified margins sit clear of the
            # eigensolver's floating-point noise; escalate if needed
            for bump in (1e-3, 1e-2, 1e-1, 1.0):
                d_alpha = max(finite) * (1.0 + bump) + 1e-300
                certs = [check(t, d_alpha) for t in horizons]
                if all(c.status == CERTIFIED for c in certs):
                    break
            return certs
        # per-horizon fallback: d_hi, else max(d_lo, 1), else 1
        return [check(t, next(d for d in (d_hi, max(d_lo, 1.0), 1.0)
                              if np.isfinite(d)))
                for t, (d_lo, d_hi) in brackets.items()]

    certificates = tuple(c for alpha in alphas for c in check_alpha(alpha))
    return CertificateFamily(alphas=alphas, horizons=horizons,
                             certificates=certificates,
                             kind="alpha-grid", residual_source=source,
                             t_zero=t_zero)


def discrete_sequence(family: CertificateFamily, k_max: int,
                      t_zero: Optional[float] = None):
    """Select the discrete certificate sequence from a certified family.

    For each k <= k_max this takes `family.sequence_entry(k, t_zero)`, the
    smallest grid horizon T_k exceeding both t_zero and ln C(k+1) among the
    certified entries at alpha = k+1; the returned entries (k, T_k, D(k))
    then satisfy the inequality with residual e^{-k T_k}.
    """
    out = []
    for k in range(1, k_max + 1):
        pick = family.sequence_entry(k, t_zero)
        out.append(SequenceEntry(k=k, horizon=pick.horizon,
                                 d_const=pick.d_const))
    return out
