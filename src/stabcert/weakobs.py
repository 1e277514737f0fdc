"""Weak-observability certificates: the decision core, checking,
bracketing and sweeping.

A certificate (T, alpha, D, C) claims that for every state phi

    ||F phi||  <=  D * ||R phi||  +  eps ||phi||,   eps = C e^{-alpha T},

where F = e^{A^T T} and G(T) = R^T R is the observability Gramian, so
||R phi|| is the L^2(0, T) norm of the observed adjoint trajectory.  The
decision reads the factor R, never G, and is two-sided:

* sufficient (sound) test: the slack D^2 G + eps^2 I - W, W = F^T F, is
  PSD.  In the basis V of R's right singular vectors, directions with
  singular value at or below the factor's rounding floor (and residual-
  covered ones that would swamp the eigensolve, see `_reduce`) form the
  null block N = eps^2 I - W22; the kept block is scaled by Sigma^{-1}: the
  congruent slack is [[D^2 I - K11, -K12], [-K12^T, N]] with
  K = Sigma^{-1} V^T (W - eps^2 I) V Sigma^{-1}.  It is PSD iff N > 0 and
  D^2 >= lambda_max(K11 + K12 N^{-1} K12^T), one symmetric eigensolve and
  no D^2 ||G|| rounding.  By sqrt(x^2 + y^2) <= x + y it certifies the
  inequality; by (x + y)^2 <= 2 x^2 + 2 y^2 it is conservative by at most
  sqrt(2) in (D, C).
* necessary test: maximize r(phi) = (||F phi|| - eps ||phi||)_+ / ||R phi||
  over random, coordinate and eigen-directed unit states; a confirmed
  r(phi) > D refutes with phi stored as the witness.

Between the two the verdict is "inconclusive", never guessed.

Every verdict in the package, `stabcert.periodic` included, goes through
the one decision core here (`Forms`, `best_state`, `decide`);
`check_certificate` and `optimal_d_bracket` are thin wrappers over it.
"""

import math
from dataclasses import dataclass, replace
from typing import Callable, NamedTuple, Optional, Sequence, Union

import numpy as np

from .semigroup import (DEFAULT_QUAD, ExpTable, QuadratureSpec,
                        observability_gramian, observation_energy)
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
    """The observation norm ||factor @ phi|| (at or below `floor`: rounding)
    and the free norm ||adj @ phi||, adj = e^{A^T T}, with the factor's
    SVD (sig, vt) and W = adj^T adj in its right singular basis; build
    with `Forms.of`, which computes these once."""

    factor: np.ndarray
    adj: np.ndarray
    floor: float
    sig: np.ndarray
    vt: np.ndarray
    w_basis: np.ndarray     # V^T W V

    @classmethod
    def of(cls, factor, adj, floor=0.0):
        _, sig, vt = np.linalg.svd(factor)
        fv = adj @ vt.T
        return cls(factor, adj, floor, sig, vt, fv.T @ fv)


class Decision(NamedTuple):
    status: str
    margin: float                   # D^2 - D_min^2, or lambda_min(N)
    sample_margin: float            # D - best sampled violation ratio
    witness: Optional[np.ndarray]   # the confirmed violating state


# residual-covered directions join the null block once their scaled
# surplus exceeds _KAPPA times the bound on D_min^2 (a 1/_KAPPA cost)
_KAPPA = 1e6


def _reduce(forms: Forms, eps: float):
    """(top, lambda_min(N)): the slack is PSD iff D^2 >= top =
    lambda_max(K11 + K12 N^{-1} K12^T); top is inf when N is not positive
    definite and -inf when no direction is kept.

    N starts as the directions with sigma <= floor.  While the eigensolver
    noise n u ||K11 + ...|| exceeds top/_KAPPA, directions whose
    -K_ii = (eps^2 - ||F v_i||^2)/sigma_i^2 dwarfs top + noise join N:
    dropping their observation is conservative, and their huge negative
    entries no longer swamp top."""
    sig = forms.sig
    m = forms.w_basis - eps**2 * np.eye(len(sig))
    null = sig <= forms.floor
    found = (np.inf, -np.inf)
    while True:
        keep = ~null
        lam, q = np.linalg.eigh(-m[np.ix_(null, null)])
        null_min = float(lam[0]) if lam.size else np.inf
        if null_min <= 0.0:
            # a deflation that breaks N > 0 is undone
            return found if np.isfinite(found[0]) else (np.inf, null_min)
        scale = 1.0 / sig[keep]
        k12 = (scale[:, None] * m[np.ix_(keep, null)] @ q) / np.sqrt(lam)
        h = np.linalg.eigvalsh(scale[:, None] * m[np.ix_(keep, keep)] * scale
                               + k12 @ k12.T)
        if not h.size:
            return -np.inf, null_min
        found = (float(h[-1]), null_min)
        bound = h[-1] + len(sig) * np.finfo(float).eps * np.abs(h).max()
        more = np.zeros_like(null)
        more[keep] = -np.diag(m)[keep] * scale**2 > _KAPPA * bound
        if bound <= 0.0 or bound - h[-1] <= h[-1] / _KAPPA or not more.any():
            return found
        null = null | more


def best_state(forms: Forms, eps: float, candidates):
    """Best ratio (||F phi|| - eps)_+ / ||R phi|| over the unit candidate
    states (inf where ||R phi|| <= floor), and its state."""
    units = np.array(candidates) / np.linalg.norm(candidates, axis=1)[:, None]
    num = np.linalg.norm(units @ forms.adj.T, axis=1) - eps
    obs = np.linalg.norm(units @ forms.factor.T, axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(num <= 0.0, 0.0,
                         np.where(obs <= forms.floor, np.inf, num / obs))
    best = int(np.argmax(ratio))
    return candidates[best], float(ratio[best])


def decide(forms: Forms, d_const: float, eps: float, search,
           reduced: tuple,
           energy: Callable[[np.ndarray], float]) -> Decision:
    """Verdict on ||e^{A^T T} phi|| <= D ||R phi|| + eps ||phi||.

    `search` is the (state, ratio) found on these forms and eps, and
    `reduced` is `_reduce(forms, eps)`; neither depends on D.  Refuted
    only when that state violates the inequality beyond rounding with its
    observation energy recomputed by `energy`, an independent route; else
    certified iff the margin, D^2 - top (or lambda_min(N) when N alone
    decides), is >= 0: it has the sign of lambda_min(D^2 G + eps^2 I - W).
    """
    top, null_min = reduced
    margin = null_min if math.isinf(top) else d_const**2 - top
    phi, best = search
    sample_margin = d_const - best if np.isfinite(best) else -np.inf
    if phi is not None and best > d_const:
        unit = phi / np.linalg.norm(phi)
        lhs = np.linalg.norm(forms.adj @ unit)
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


def _dense_forms(sys, horizon, quad, table=None):
    """Forms at one horizon; e^{A^T T} is the transpose of the e^{A T} the
    Gramian left in `table` (an ExpTable of A, call-local if None)."""
    if table is None:
        table = ExpTable(sys.a_matrix, sys.is_diagonal)
    gram = observability_gramian(sys, horizon, quad, table=table)
    return Forms.of(gram.factor, table.stack([horizon])[0].T, gram.floor)


def _candidate_states(forms, samples, seed):
    """The seeded unit states a violation search scores: Gaussian samples,
    the axes, R's right singular vectors, W's eigenvectors and the eps = 0
    maximizers V Sigma^{-1} y, y an eigenvector of K11."""
    n = len(forms.factor)
    rng = np.random.default_rng(seed)
    cands = [rng.standard_normal(n) for _ in range(samples)]
    cands.extend(np.eye(n))
    sig, vt = forms.sig, forms.vt
    cands.extend(vt)                         # includes near-null directions
    _, wv = np.linalg.eigh(forms.adj.T @ forms.adj)
    cands.extend(wv.T)
    # at eps = 0, K11 = X^T X with X = F V1 Sigma1^{-1}
    kept = sig > forms.floor
    _, _, yt = np.linalg.svd((forms.adj @ vt[kept].T) / sig[kept])
    cands.extend(yt / sig[kept] @ vt[kept])
    norms = [np.linalg.norm(v) for v in cands]
    return [v / norm for v, norm in zip(cands, norms) if norm > 0]


def _d_bracket(top, best):
    """(sampled lower bound, smallest D passing the sufficient test), from
    the best sampled ratio and `_reduce`'s top."""
    d_lo = max(best, 0.0)
    if not np.isfinite(d_lo):
        return d_lo, np.inf
    return d_lo, math.sqrt(max(top, 0.0))


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------

def check_certificate(sys: LtiSystem, cert: WeakObsCertificate,
                      samples: int = 200, seed: int = 0,
                      quad: Optional[QuadratureSpec] = None
                      ) -> WeakObsCertificate:
    """Two-sided decision on one certificate; returns it with a verdict.

    Certified requires the sufficient test to pass AND no sampled
    counterexample to survive independent re-evaluation.  Refuted stores
    the confirmed witness state.  Everything else is inconclusive, with
    both margins reported.
    """
    quad = quad or DEFAULT_QUAD
    forms = _dense_forms(sys, cert.horizon, quad)
    eps = cert.residual
    decision = decide(forms, cert.d_const, eps,
                      best_state(forms, eps,
                                 _candidate_states(forms, samples, seed)),
                      _reduce(forms, eps),
                      lambda phi: observation_energy(sys, cert.horizon, phi,
                                                     quad))
    return replace(cert, **decision._asdict())


def optimal_d_bracket(sys: LtiSystem, horizon: float, eps: float = 0.0,
                      samples: int = 200, seed: int = 0,
                      quad: Optional[QuadratureSpec] = None):
    """Bracket the smallest valid D for a fixed residual eps.

    Returns (d_lo, d_hi): d_lo is the best violation ratio over the
    candidate states (a true lower bound), d_hi the smallest D passing the
    sufficient quadratic test (one symmetric eigensolve; a true upper
    bound).  d_hi is inf when no D passes, as when some direction the
    factor cannot see is not covered by the residual.
    """
    if horizon <= 0:
        raise ValueError("horizon must be positive")
    if eps < 0:
        raise ValueError("residual must be nonnegative")
    forms = _dense_forms(sys, horizon, quad or DEFAULT_QUAD)
    _, best = best_state(forms, eps, _candidate_states(forms, samples, seed))
    return _d_bracket(_reduce(forms, eps)[0], best)


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

    Each horizon's forms (Gramian factor, its SVD, e^{A^T T}) and
    candidate states are built once, and every horizon's Gramian draws its
    node exponentials from one ExpTable of A that lives for this call:
    an A t exponentiated for one horizon or refinement level is reused,
    bit for bit, by every other.  Each (alpha, T) runs one violation
    search and one slack reduction, which serve both the D bracket and
    every D checked, and each distinct (T, witness) energy is integrated
    once, its nodes drawn from one ExpTable of A^T, so entries equal
    `check_certificate` with the same seed and samples.
    """
    alphas = tuple(sorted(float(a) for a in alphas))
    horizons = tuple(sorted(float(t) for t in horizons))
    if not alphas or not horizons:
        raise ValueError("alpha and horizon grids must be nonempty")
    quad = quad or DEFAULT_QUAD
    c_of_alpha, source = _resolve_residual_rule(residual_rule, alphas)
    table = ExpTable(sys.a_matrix, sys.is_diagonal)
    forms = {t: _dense_forms(sys, t, quad, table) for t in horizons}
    candidates = {t: _candidate_states(forms[t], samples, seed)
                  for t in horizons}
    adj_table = ExpTable(sys.a_matrix.T, sys.is_diagonal)
    energies = {}

    def energy(t, unit):
        # depends on neither alpha nor D: alphas that find the same
        # witness share one quadrature
        key = (t, unit.tobytes())
        if key not in energies:
            energies[key] = observation_energy(sys, t, unit, quad,
                                               table=adj_table)
        return energies[key]

    def check_alpha(alpha):
        c_val = c_of_alpha[alpha]
        eps = {t: c_val * math.exp(-alpha * t) for t in horizons}
        searches = {t: best_state(forms[t], eps[t], candidates[t])
                    for t in horizons}
        reduced = {t: _reduce(forms[t], eps[t]) for t in horizons}
        brackets = {t: _d_bracket(reduced[t][0], searches[t][1])
                    for t in horizons}

        def check(t, d_const):
            cert = WeakObsCertificate(horizon=t, alpha=alpha,
                                      d_const=d_const, c_const=c_val)
            decision = decide(forms[t], d_const, eps[t], searches[t],
                              reduced[t], lambda unit: energy(t, unit))
            return replace(cert, **decision._asdict())

        finite = [hi for _, hi in brackets.values() if np.isfinite(hi)]
        if len(finite) == len(horizons):
            # the common D sits clear of each D_min's eigensolver noise
            return [check(t, max(finite) * 1.001 + 1e-300) for t in horizons]
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
