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
  covered ones that would swamp the eigensolve, see `_reduce_stack`) form
  the null block N = eps^2 I - W22; the kept block is scaled by
  Sigma^{-1}: the congruent slack is [[D^2 I - K11, -K12], [-K12^T, N]]
  with K = Sigma^{-1} V^T (W - eps^2 I) V Sigma^{-1}.  It is PSD iff
  N > 0 and D^2 >= lambda_max(K11 + K12 N^{-1} K12^T), one symmetric
  eigensolve and no D^2 ||G|| rounding.  By sqrt(x^2 + y^2) <= x + y it
  certifies the inequality; by (x + y)^2 <= 2 x^2 + 2 y^2 it is
  conservative by at most sqrt(2) in (D, C).
* necessary test: maximize r(phi) = (||F phi|| - eps ||phi||)_+ / ||R phi||
  over random, coordinate and eigen-directed unit states; a confirmed
  r(phi) > D refutes with phi stored as the witness.

Between the two the verdict is "inconclusive", never guessed.

The rounding floor enters three comparisons, sigma <= floor (the null
block of `_reduce_stack`), sigma > floor (the kept directions,
`_FormStack.kept`) and ||R u|| <= floor (`_enter`'s search), and each is
asked of the forms' `rounding`, a
`semigroup.FloorBracket`: a Frobenius bracket [lo, hi] of the floor
decides every value outside (lo, hi], and only a value inside forms the
floor itself (its SVD 2-norms and ||B||_2), once per horizon.  The
answers are those of the comparisons against the floor.

Every verdict in the package, `stabcert.periodic` included, goes through
the one decision core here: `decide(inputs, cert)` reads D and eps from a
`WeakObsCertificate` and returns it with its status, margin and witness,
on one horizon's `HorizonInputs` record.  `_horizons` builds the records
of a dense system for `check_certificate`, `optimal_d_bracket` and
`sweep_alpha`; `stabcert.periodic` builds its own from diagonal forms,
with the same candidate rule: `candidate_states` over `shared_states`.

The records of several horizons are built on stacks: after the Gramians,
every step runs once per sweep (or once per group of horizons) as
batched NumPy calls over a leading horizon axis (`_FormStack`).  Batched
`svd`, `eigh`, `eigvalsh` and `matmul` treat each slice on its own, so
each horizon's record is bit for bit the one built for it alone, and a
single horizon (`check_certificate`, `optimal_d_bracket`, `periodic`) is
a stack of one, on the same code.

The search computes each quantity once, at the scope it depends on:

* per call (`_horizons`): one ExpTable of A for every Gramian, every
  floor bracket and, through its transposed view, every witness energy,
  and the seeded Gaussian states and the axes, normalized
  (`shared_states`);
* per (panel width, B) across the horizons of a sweep: the Gramians' node
  values e^{At}B, kept by that table and computed for the longest horizon
  (built first), whose prefixes the shorter horizons slice;
* per horizon: the Gramian's factor and its floor bracket, in turn;
* per sweep, stacked over its horizons (`_FormStack.dense`): the probe
  norms of every floor bracket (one `ExpTable.norms` call, whose misses
  are one `expm` call), e^{A^T T}, R's SVD and W in R's right singular
  basis;
* per group of horizons that keep as many directions (sigma > floor;
  sigma is sorted, so the kept directions are a prefix of V): the
  candidates the forms add (R's right singular vectors, W's
  eigenvectors, the K11 maximizers; `_candidates`) and ||F u||, ||R u||
  over all candidates u (`_scores`), one call each; a sweep whose every
  horizon keeps as many directions is one group;
* per (alpha, T), i.e. per eps: the ratio argmax and the slack reduction
  (`entries`), shared by `bracket` and by `decide` for every D.  A sweep
  asks every horizon for all its eps at once (`_enter`): one (eps x
  state) argmax per horizon and one `_reduce_stack`, whose one batched
  eigensolve covers every (T, eps) whose null block starts empty;
* per (T, witness): the independent energy (`energy`).
"""

import math
from dataclasses import dataclass, replace
from typing import Callable, NamedTuple, Optional, Sequence, Union

import numpy as np

from .semigroup import (ExpTable, FloorBracket, floor_bracket,
                        floor_probe_times, observability_gramian,
                        observation_energy)
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
    residual_source: str              # where C(alpha) came from

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
        return family_verdict([c.status for c in self.certificates])

    def sequence_entry(self, k: int):
        """The certified entry at alpha = k+1 with the smallest grid horizon
        T > ln C(k+1), so that C(k+1) e^{-(k+1) T} <= e^{-k T}; C = 0
        admits every horizon."""
        alpha = float(k + 1)
        entries = [c for c in self.entries_for_alpha(alpha)
                   if c.status == CERTIFIED]
        if not entries:
            raise ValueError(f"family has no certified entries at "
                             f"alpha={alpha:g} (needed for k={k})")
        c_val = entries[0].c_const
        log_c = math.log(c_val) if c_val > 0 else -math.inf
        admissible = [c for c in entries if c.horizon > log_c]
        if not admissible:
            raise ValueError(f"no grid horizon exceeds ln C={log_c:.6g} "
                             f"for k={k}")
        return min(admissible, key=lambda c: c.horizon)


# ---------------------------------------------------------------------------
# the decision core
# ---------------------------------------------------------------------------

class Forms(NamedTuple):
    """The observation norm ||factor @ phi|| (at or below the rounding
    floor that `rounding` brackets: rounding) and the free norm
    ||adj @ phi||, adj = e^{A^T T}, with the factor's SVD (sig, vt) and
    W = adj^T adj in its right singular basis; build with `Forms.of` or
    `Forms.dense`, the stacks of one of `_FormStack`."""

    factor: np.ndarray
    adj: np.ndarray
    rounding: FloorBracket
    sig: np.ndarray
    vt: np.ndarray
    w_basis: np.ndarray     # V^T W V

    @property
    def floor(self):
        """The rounding floor itself, formed on first read; the decision
        compares against `rounding` and never reads it."""
        return self.rounding.value

    @classmethod
    def of(cls, factor, adj, floor=0.0):
        """`floor` is a float or a `FloorBracket`."""
        if not isinstance(floor, FloorBracket):
            floor = FloorBracket.of(floor)
        return _FormStack.of(np.asarray(factor)[None], np.asarray(adj)[None],
                             [floor]).records()[0]

    @classmethod
    def dense(cls, sys, horizon, table=None):
        """The forms of a dense system at one horizon (`_FormStack.dense`),
        from `table`, an ExpTable of A, call-local if None."""
        if table is None:
            table = ExpTable(sys.a_matrix, sys.is_diagonal)
        return _FormStack.dense(sys, [horizon], table).records()[0]


class _FormStack(NamedTuple):
    """The `Forms` of several horizons of one system: each array field
    carries a leading horizon axis and `rounding` is a tuple.  Batched
    `svd`, `eigh`, `eigvalsh` and products treat each slice on its own, so
    every step run on a stack gives each horizon what it gives that
    horizon's stack of one, bit for bit."""

    factor: np.ndarray
    adj: np.ndarray
    rounding: tuple
    sig: np.ndarray
    vt: np.ndarray
    w_basis: np.ndarray

    @classmethod
    def of(cls, factor, adj, rounding):
        """One batched SVD of the factors, and W in each V's basis."""
        _, sig, vt = np.linalg.svd(factor)
        fv = adj @ vt.transpose(0, 2, 1)
        return cls(factor, adj, tuple(rounding), sig, vt,
                   fv.transpose(0, 2, 1) @ fv)

    @classmethod
    def one(cls, forms):
        """The stack of one of `forms`."""
        return cls(*(f[None] if isinstance(f, np.ndarray) else (f,)
                     for f in forms))

    @classmethod
    def dense(cls, sys, horizons, table):
        """The forms of a dense system at `horizons` from `table`, an
        ExpTable of A: every Gramian's factor, built in this order, then
        every `floor_bracket`, whose probe norms one `ExpTable.norms` call
        takes first, and e^{A^T T}, the transposes of the e^{A T} those
        probes left in the table."""
        factor = np.stack([observability_gramian(sys, t, table=table).factor
                           for t in horizons])
        table.norms(np.concatenate([floor_probe_times(t) for t in horizons]),
                    "fro")
        rounding = [floor_bracket(sys, t, table=table) for t in horizons]
        return cls.of(factor, table.stack(horizons).transpose(0, 2, 1),
                      rounding)

    def take(self, index):
        """The stack of the horizons at `index`."""
        if len(index) == len(self.rounding):
            return self
        return _FormStack(*(tuple(f[i] for i in index)
                            if isinstance(f, tuple) else f[index]
                            for f in self))

    def records(self):
        """The `Forms` of each horizon."""
        return [Forms(*fields) for fields in zip(*self)]

    def kept(self):
        """Each horizon's count of kept directions, sigma > floor: as sigma
        is sorted, they lead V."""
        return [int(r.above(s).sum()) for r, s in zip(self.rounding, self.sig)]


# residual-covered directions join the null block once their scaled
# surplus exceeds _KAPPA times the bound on D_min^2 (a 1/_KAPPA cost)
_KAPPA = 1e6


def _reduce(forms: Forms, eps: Sequence[float]):
    """`_reduce_stack` of one horizon."""
    return _reduce_stack([(forms, eps)])[0]


def _reduce_stack(requests):
    """For each (forms, eps) of `requests`, [(top, lambda_min(N))] for each
    eps: the slack is PSD iff D^2 >= top = lambda_max(K11 + K12 N^{-1}
    K12^T); top is inf when N is not positive definite and -inf when no
    direction is kept.

    N starts as the directions with sigma <= floor.  While the eigensolver
    noise n u ||K11 + ...|| exceeds top/_KAPPA, directions whose
    -K_ii = (eps^2 - ||F v_i||^2)/sigma_i^2 dwarfs top + noise join N:
    dropping their observation is conservative, and their huge negative
    entries no longer swamp top.  One batched eigensolve of K11 reduces
    every (horizon, eps) whose N starts empty; an eps that deflates, or
    every eps of a horizon whose N does not start empty, continues in
    `_deflate` on its own."""
    counts = [len(eps) for _, eps in requests]
    sig = np.repeat([forms.sig for forms, _ in requests], counts, axis=0)
    null = np.repeat([forms.rounding.at_or_below(forms.sig)
                      for forms, _ in requests], counts, axis=0)
    squares = np.array([e**2 for _, eps in requests for e in eps])
    m = (np.repeat([forms.w_basis for forms, _ in requests], counts, axis=0)
         - squares[:, None, None] * np.eye(sig.shape[-1]))
    empty = ~null.any(axis=-1)
    found = iter(())
    if empty.any():
        scale = 1.0 / sig[empty]
        m_empty = m[empty]
        h = np.linalg.eigvalsh(scale[:, :, None] * m_empty * scale[:, None, :])
        found = iter(zip(h[:, -1].tolist(), *_settled(
            h, np.diagonal(m_empty, axis1=1, axis2=2), scale,
            sig.shape[-1])))
    out = []
    for s, mi, ni, starts_empty in zip(sig, m, null, empty):
        if not starts_empty:
            out.append(_deflate(s, mi, ni, (np.inf, -np.inf)))
            continue
        top, done, deflate = next(found)
        out.append((top, np.inf) if done
                   else _deflate(s, mi, deflate, (top, np.inf)))
    bounds = np.cumsum([0] + counts).tolist()
    return [out[a:b] for a, b in zip(bounds, bounds[1:])]


def _settled(h, diag, scale, n):
    """(settled, more) for the spectrum h of one K or of a stack: with
    top = h[-1] and the bound top + n u max |h|, settled when the bound is
    not positive, when its noise is at most top/_KAPPA or when no kept
    direction would join N; `more` marks those that would.  `diag` is the
    kept diagonal of W - eps^2 I and `scale` its 1/sigma."""
    top = h[..., -1]
    bound = top + n * np.finfo(float).eps * np.abs(h).max(axis=-1)
    more = -diag * scale**2 > _KAPPA * bound[..., None]
    return (bound <= 0.0) | (bound - top <= top / _KAPPA) | ~more.any(-1), more


def _deflate(sig, m, null, found):
    """`_reduce_stack` of one eps from null block `null` on, `found` being
    the last (top, lambda_min(N)) with a positive definite N."""
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
        settled, more = _settled(h, np.diag(m)[keep], scale, len(sig))
        if settled:
            return found
        null = null.copy()
        null[keep] = more


class HorizonInputs:
    """What every alpha and D checked at one horizon share: the forms, the
    candidate states, each scored once as a unit u by the free norm
    ||F u|| and the observation norm ||R u|| (the forms' `floor` and below
    counting as rounding), and `energy_of`, an independent route to
    ||R u||^2 that confirms a violation.  `scores`, the (free, obs) arrays
    that `_scores` gave on a stack, are scored as a stack of one when not
    given.  `entries`, `entry`, `bracket` and `energy` are memoized: each
    eps is searched and reduced once, each witness integrated once."""

    def __init__(self, forms: Forms, states,
                 energy_of: Callable[[np.ndarray], float], scores=None):
        states = np.asarray(states, dtype=float)
        if scores is None:
            scores = [s[0] for s in _scores(_FormStack.one(forms),
                                            states[None])]
        self.forms = forms
        self.states = states
        self.free, self.obs = scores
        self.energy_of = energy_of
        self._entries = {}
        self._energies = {}

    def entries(self, eps_values: Sequence[float]):
        """[((state, ratio), reduction)] for each eps of `eps_values`: the
        best ratio (||F u|| - eps)_+ / ||R u|| over the scored states (inf
        where ||R u|| <= floor) with its state, and the eps's slack
        reduction; neither depends on D.  `_enter` of this horizon."""
        _enter([(self, eps_values)])
        return [self._entries[eps] for eps in eps_values]

    def entry(self, eps: float):
        """`entries` of one eps."""
        if eps not in self._entries:
            _enter([(self, [eps])])
        return self._entries[eps]

    def bracket(self, eps: float):
        """(sampled lower bound, smallest D passing the sufficient test) at
        eps."""
        (_, best), (top, _) = self.entry(eps)
        d_lo = max(best, 0.0)
        if not np.isfinite(d_lo):
            return d_lo, np.inf
        return d_lo, math.sqrt(max(top, 0.0))

    def energy(self, unit: np.ndarray) -> float:
        """`energy_of(unit)`, once per unit state."""
        key = unit.tobytes()
        if key not in self._energies:
            self._energies[key] = self.energy_of(unit)
        return self._energies[key]


def _enter(requests):
    """Search and reduce the eps not met before of each (inputs,
    eps_values) of `requests`: per horizon one (eps x state) ratio array
    and its argmax, and one `_reduce_stack` over every horizon."""
    new = []
    for inputs, eps_values in requests:
        eps = [e for e in dict.fromkeys(eps_values)
               if e not in inputs._entries]
        if eps:
            new.append((inputs, eps))
    if not new:
        return
    reduced = _reduce_stack([(inputs.forms, eps) for inputs, eps in new])
    for (inputs, eps), reductions in zip(new, reduced):
        num = inputs.free - np.array(eps)[:, None]
        unseen = inputs.forms.rounding.at_or_below(inputs.obs)
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(num <= 0.0, 0.0,
                             np.where(unseen, np.inf, num / inputs.obs))
        best = np.argmax(ratio, axis=1)
        for e, i, row, reduction in zip(eps, best, ratio, reductions):
            inputs._entries[e] = ((inputs.states[i], float(row[i])),
                                  reduction)


def decide(inputs: HorizonInputs,
           cert: WeakObsCertificate) -> WeakObsCertificate:
    """`cert` with its verdict on ||e^{A^T T} phi|| <= D ||R phi|| + eps
    ||phi||, D = cert.d_const and eps = cert.residual, on the inputs of
    cert's horizon.  Refuted only when the best searched state violates
    the inequality beyond rounding with its observation energy recomputed
    by `inputs.energy`, an independent route; else certified iff the
    margin, D^2 - top (or lambda_min(N) when N alone decides), is >= 0: it
    has the sign of lambda_min(D^2 G + eps^2 I - W).
    """
    d_const, eps = cert.d_const, cert.residual
    (phi, best), (top, null_min) = inputs.entry(eps)
    margin = null_min if math.isinf(top) else d_const**2 - top
    if best > d_const:
        unit = phi / np.linalg.norm(phi)
        lhs = np.linalg.norm(inputs.forms.adj @ unit)
        rhs = d_const * math.sqrt(max(inputs.energy(unit), 0.0)) + eps
        if lhs > rhs + 1e-12 * (1.0 + lhs):
            return replace(cert, status=REFUTED, margin=margin, witness=phi)
    return replace(cert, status=CERTIFIED if margin >= 0.0 else INCONCLUSIVE,
                   margin=margin, witness=None)


def family_verdict(statuses) -> str:
    """Certified when there are claims and every one is, else refuted when
    some entry is."""
    if statuses and all(s == CERTIFIED for s in statuses):
        return CERTIFIED
    return REFUTED if REFUTED in statuses else INCONCLUSIVE


def _unit_rows(block):
    """The rows of `block`, or of each slice of a stack, divided by their
    norms; a row whose norm is not positive (in some slice) is dropped.
    A row's norm is the BLAS dot that `np.linalg.norm` takes of a lone
    vector, so a row equals that vector normalized on its own, bit for
    bit."""
    block = np.ascontiguousarray(block, dtype=float)
    norms = np.sqrt((block[..., None, :] @ block[..., :, None])[..., 0, 0])
    keep = (norms > 0).all(axis=tuple(range(norms.ndim - 1)))
    return block[..., keep, :] / norms[..., keep, None]


def shared_states(n, samples, seed):
    """The unit states every horizon's search shares: `samples` seeded
    Gaussian states, then the axes."""
    gauss = np.random.default_rng(seed).standard_normal((samples, n))
    return np.vstack([_unit_rows(gauss), np.eye(n)])


def candidate_states(forms, shared):
    """The unit states a violation search scores on these forms: the
    `shared_states` block, R's right singular vectors, W's eigenvectors
    and the eps = 0 maximizers V Sigma^{-1} y, y an eigenvector of K11;
    `_candidates` of a stack of one."""
    stack = _FormStack.one(forms)
    return _candidates(stack, stack.kept()[0], shared)[0]


def _candidates(forms: _FormStack, kept, shared):
    """`candidate_states` of each horizon of `forms`, whose every horizon
    keeps its `kept` leading directions (`_FormStack.kept`), as one
    (horizon x state x n) array."""
    vt, adj = forms.vt, forms.adj
    _, wv = np.linalg.eigh(adj.transpose(0, 2, 1) @ adj)
    # at eps = 0, K11 = X^T X with X = F V1 Sigma1^{-1}
    v1, sig = vt[:, :kept], forms.sig[:, None, :kept]
    _, _, yt = np.linalg.svd((adj @ v1.transpose(0, 2, 1)) / sig)
    # vt includes near-null directions
    own = _unit_rows(np.concatenate(
        [vt, wv.transpose(0, 2, 1), yt / sig @ v1], axis=1))
    return np.concatenate(
        [np.broadcast_to(shared, (len(own),) + shared.shape), own], axis=1)


def _scores(forms: _FormStack, states):
    """(||F u||, ||R u||) over the unit rows u of `states`, one
    (horizon x state) array each."""
    units = states / np.linalg.norm(states, axis=-1)[..., None]
    return (np.linalg.norm(units @ forms.adj.transpose(0, 2, 1), axis=-1),
            np.linalg.norm(units @ forms.factor.transpose(0, 2, 1), axis=-1))


def _horizons(sys, horizons, samples, seed):
    """{T: HorizonInputs} of a dense system, built longest horizon first.
    Every horizon's Gramian draws its node exponentials from one ExpTable
    of A, e^{A^T T} is its e^{A T} transposed and the witness energies
    read it through one transposed view, so no A^T t is exponentiated; the
    Gaussian and axis states are drawn once for all horizons.  With more
    than one horizon the table keeps node values (`share_nodes`), which
    the shorter horizons slice.

    After the Gramians every step runs on stacks (`_FormStack.dense`):
    the horizons are grouped by their count of kept directions, and each
    group's candidates and scores are one `_candidates` and one `_scores`
    call.  `horizons` holds no horizon twice."""
    table = ExpTable(sys.a_matrix, sys.is_diagonal,
                     share_nodes=len(horizons) > 1)
    adj_table = table.transposed()
    shared = shared_states(sys.n, samples, seed)
    order = sorted(horizons, reverse=True)
    stack = _FormStack.dense(sys, order, table)
    groups = {}
    for i, k in enumerate(stack.kept()):
        groups.setdefault(k, []).append(i)
    inputs = {}
    for k, index in groups.items():
        group = stack.take(index)
        states = _candidates(group, k, shared)
        for i, forms, st, free, obs in zip(index, group.records(), states,
                                           *_scores(group, states)):
            t = order[i]
            inputs[t] = HorizonInputs(
                forms, st, lambda unit, t=t: observation_energy(
                    sys, t, unit, table=adj_table), (free, obs))
    return {t: inputs[t] for t in order}


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------

def check_certificate(sys: LtiSystem, cert: WeakObsCertificate,
                      samples: int = 200, seed: int = 0
                      ) -> WeakObsCertificate:
    """Two-sided decision on one certificate; returns it with a verdict.

    Certified requires the sufficient test to pass AND no sampled
    counterexample to survive independent re-evaluation.  Refuted stores
    the confirmed witness state.  Everything else is inconclusive, with
    the sufficient test's margin reported.
    """
    inputs = _horizons(sys, [cert.horizon], samples, seed)
    return decide(inputs[cert.horizon], cert)


def optimal_d_bracket(sys: LtiSystem, horizon: float, eps: float = 0.0,
                      samples: int = 200, seed: int = 0):
    """Bracket the smallest valid D for a fixed residual eps.

    Returns (d_lo, d_hi): d_lo is the best violation ratio over the
    candidate states (a true lower bound), d_hi the smallest D passing the
    sufficient quadratic test (one symmetric eigensolve; a true upper
    bound).  d_hi is inf when no D passes, as when some direction the
    factor cannot see is not covered by the residual.
    """
    if horizon <= 0:
        raise ValueError("horizon must be positive")
    if not 0.0 <= eps < math.inf:
        raise ValueError("residual must be finite and nonnegative")
    return _horizons(sys, [horizon], samples, seed)[horizon].bracket(eps)


def _resolve_residual_rule(residual_rule, alphas):
    """({alpha: C(alpha)}, source); every C(alpha) must be finite and
    >= 0, checked before any Gramian is formed."""
    if isinstance(residual_rule, dict):
        missing = [a for a in alphas if a not in residual_rule]
        if missing:
            raise ValueError("residual table has no C(alpha) for alpha = "
                             + ", ".join(map(repr, missing)))
        c_of_alpha = {a: float(residual_rule[a]) for a in alphas}
        source = "table"
    else:
        value = float(residual_rule)
        c_of_alpha = {a: value for a in alphas}
        source = "constant"
    for a, c_val in c_of_alpha.items():
        if not 0.0 <= c_val < math.inf:
            raise ValueError(f"C(alpha) = {c_val!r} for alpha = {a!r} must "
                             f"be finite and nonnegative")
    return c_of_alpha, source


def _grid(name, values):
    """`values` as a sorted tuple of floats, refused unless each is finite
    and positive and no two are equal."""
    grid = [float(v) for v in values]
    for v in grid:
        if not 0.0 < v < math.inf:
            raise ValueError(f"{name} grid must hold finite positive "
                             f"values, not {v!r}")
    grid.sort()
    for a, b in zip(grid, grid[1:]):
        if b == a:
            raise ValueError(f"{name} grid must be strictly increasing once "
                             f"sorted: {a!r} repeats")
    return tuple(grid)


def sweep_alpha(sys: LtiSystem, alphas: Sequence[float],
                horizons: Sequence[float],
                residual_rule: Union[float, dict] = 1.0,
                samples: int = 200, seed: int = 0) -> CertificateFamily:
    """For each alpha, look for one (D, C(alpha)) certifying every horizon.

    The per-alpha D is the largest sufficient-test bound over the horizon
    grid (with a small safety factor), so certified entries carry strictly
    positive margins.  Entries with an unobserved direction not covered by
    the residual are refuted with a stored witness.

    Its inputs are one `HorizonInputs` per horizon from `_horizons`, the
    builder `check_certificate` uses for its one horizon, so entries equal
    `check_certificate` with the same seed and samples.  Every horizon's
    Gramian and witness energies read one ExpTable of A, so each A t is
    exponentiated once over all horizons and levels, and no A^T t at all;
    the Gramians' node values are formed once per panel width.  Per
    (alpha, T) only eps changes: every eps of every horizon is searched
    and reduced in one `_enter` call, whose entry serves the D bracket and
    every D checked, and each (T, witness) energy is integrated once.

    Each grid must hold finite positive values, no two equal; a grid that
    does not is refused, by name, before any Gramian is formed.
    """
    alphas = _grid("alpha", alphas)
    horizons = _grid("horizon", horizons)
    if not alphas or not horizons:
        raise ValueError("alpha and horizon grids must be nonempty")
    c_of_alpha, source = _resolve_residual_rule(residual_rule, alphas)
    inputs = _horizons(sys, horizons, samples, seed)
    # every eps the sweep asks of every T, searched and reduced at once
    _enter([(inputs[t], [c_of_alpha[a] * math.exp(-a * t) for a in alphas])
            for t in horizons])

    def check_alpha(alpha):
        c_val = c_of_alpha[alpha]
        # each eps is the float cert.residual: decide reuses its entry
        brackets = {t: inputs[t].bracket(c_val * math.exp(-alpha * t))
                    for t in horizons}

        def check(t, d_const):
            return decide(inputs[t], WeakObsCertificate(
                horizon=t, alpha=alpha, d_const=d_const, c_const=c_val))

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
                             residual_source=source)


def discrete_sequence(family: CertificateFamily, k_max: int):
    """Select the discrete certificate sequence from a certified family.

    For each k <= k_max this takes `family.sequence_entry(k)`, the
    smallest grid horizon T_k > ln C(k+1) among the certified entries at
    alpha = k+1; the returned entries (k, T_k, D(k)) then satisfy the
    inequality with residual e^{-k T_k}.
    """
    out = []
    for k in range(1, k_max + 1):
        pick = family.sequence_entry(k)
        out.append(SequenceEntry(k=k, horizon=pick.horizon,
                                 d_const=pick.d_const))
    return out
