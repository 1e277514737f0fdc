"""System representations and the bundled benchmark systems.

Everything here is a finite truncation: a real matrix pair (A, B), or its
diagonal special case holding the leading modes of a diagonalizable
generator.  The module also builds the four benchmark families used across
the package (fractional heat on an interval, Hermite heat on the line,
point-controlled heat with a continued-fraction actuation point, and -- in
`periodic` -- a time-multiplexed diagonal system).
"""

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Sequence

import numpy as np

from ._quadrature import integrate_adaptive

__all__ = [
    "LtiSystem",
    "PairSpectrum",
    "SpectralSystem",
    "ContinuedFractionPoint",
    "UnboundedConstantsSpec",
    "ProjectionFamily",
    "build_system",
    "truncate",
    "point_control_heat",
    "hermite_heat",
    "fractional_heat",
    "continued_fraction_point",
    "spectral_projection_family",
    "system_from_spec",
]


def _readonly(a, dtype=float):
    arr = np.array(a, dtype=dtype)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class PairSpectrum:
    """What the PBH test of (A + mu I, B) reads that does not depend on mu.

    The Hautus pencil of the shifted pair at an eigenvalue lam + mu of
    A + mu I is [lam I - A, B], so one pair has one set of pencils for
    every rate mu.  `eigenvalues` is `np.linalg.eigvals(A)` in LAPACK
    order, and `pencil_grams` stacks P P^H, P = [lam I - A, B], at each
    of them with Im lam >= 0: the other member of a conjugate pair has the
    conjugate pencil, with the same singular values.
    """

    eigenvalues: np.ndarray
    pencil_grams: np.ndarray
    a_norm: float           # ||A||_2


@dataclass(frozen=True)
class LtiSystem:
    """A finite pair y' = A y + B u with A (N x N) and B (N x M).

    Instances are immutable; the arrays are stored read-only so values are
    safe to share across threads.  `b_norm`, `b_fro` and `spectrum` are
    formed on first read and kept on the instance, so they live and die
    with the system.
    """

    a_matrix: np.ndarray
    b_matrix: np.ndarray
    label: str = ""

    def __post_init__(self):
        a = _readonly(np.atleast_2d(self.a_matrix))
        b = _readonly(np.atleast_2d(self.b_matrix))
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"a_matrix must be square, got shape {a.shape}")
        if b.ndim != 2 or b.shape[0] != a.shape[0]:
            raise ValueError(
                f"b_matrix rows ({b.shape[0]}) must match a_matrix size "
                f"({a.shape[0]})")
        if a.shape[0] < 1 or b.shape[1] < 1:
            raise ValueError("state and control dimensions must be >= 1")
        if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
            raise ValueError("system matrices must have finite entries")
        object.__setattr__(self, "a_matrix", a)
        object.__setattr__(self, "b_matrix", b)

    @property
    def n(self):
        return self.a_matrix.shape[0]

    @property
    def m(self):
        return self.b_matrix.shape[1]

    @property
    def is_diagonal(self):
        a = self.a_matrix
        return np.count_nonzero(a - np.diag(np.diag(a))) == 0

    @functools.cached_property
    def b_norm(self):
        """||B||_2, taken once."""
        return float(np.linalg.norm(self.b_matrix, 2))

    @functools.cached_property
    def b_fro(self):
        """||B||_F, taken once."""
        return float(np.linalg.norm(self.b_matrix))

    @functools.cached_property
    def spectrum(self):
        """The pair's `PairSpectrum`: A's eigenvalues, the pencil Grams
        at those with Im lam >= 0 and ||A||_2, formed once."""
        a, b = self.a_matrix, self.b_matrix
        lam = np.linalg.eigvals(a)
        lam.setflags(write=False)
        upper = lam[lam.imag >= 0]
        pencils = np.concatenate(
            [upper[:, None, None] * np.eye(self.n) - a,
             np.broadcast_to(b.astype(complex), (upper.size,) + b.shape)],
            axis=2)
        grams = pencils @ pencils.conj().transpose(0, 2, 1)
        grams.setflags(write=False)
        return PairSpectrum(
            eigenvalues=lam, pencil_grams=grams,
            a_norm=float(np.linalg.norm(a, 2)))


@dataclass(frozen=True)
class SpectralSystem:
    """Diagonal system given by generator eigenvalues and sensor rows.

    Modes evolve as exp(eigenvalues[j] * t); control_rows[j] is the action
    of B* on the j-th (orthonormal) eigenfunction.  Eigenvalues are kept in
    descending order (least stable first) so coordinate projections are
    deterministic.
    """

    eigenvalues: np.ndarray
    control_rows: np.ndarray
    basis_label: str = ""

    def __post_init__(self):
        lam = _readonly(np.atleast_1d(self.eigenvalues))
        rows = np.atleast_1d(np.asarray(self.control_rows, dtype=float))
        if rows.ndim == 1:
            rows = rows[:, None]
        rows = _readonly(rows)
        if lam.ndim != 1 or rows.shape[0] != lam.shape[0]:
            raise ValueError("control_rows must have one row per eigenvalue")
        if np.any(np.diff(lam) > 0):
            raise ValueError("eigenvalues must be sorted descending")
        if not (np.all(np.isfinite(lam)) and np.all(np.isfinite(rows))):
            raise ValueError("spectral data must be finite")
        object.__setattr__(self, "eigenvalues", lam)
        object.__setattr__(self, "control_rows", rows)

    @property
    def n(self):
        return self.eigenvalues.shape[0]


@dataclass(frozen=True)
class UnboundedConstantsSpec:
    """Constants describing a control operator bounded only after smoothing.

    gamma is the fractional smoothing order (strictly inside (0, 1/2)),
    c_gamma the analytic-semigroup constant, rho0 the resolvent shift and
    b_norm the norm of the smoothed control operator.
    """

    gamma: float
    rho0: float
    c_gamma: float
    b_norm: float

    def __post_init__(self):
        if not 0.0 < self.gamma < 0.5:
            raise ValueError("gamma must lie strictly inside (0, 1/2)")
        if not self.c_gamma > 0:
            raise ValueError("c_gamma must be positive")
        if not self.b_norm >= 0:
            raise ValueError("b_norm must be nonnegative")


def build_system(a_matrix, b_matrix, label=""):
    """Validate and wrap a matrix pair as an LtiSystem."""
    return LtiSystem(a_matrix, b_matrix, label=label)


def truncate(spec: SpectralSystem, n: int) -> LtiSystem:
    """Keep the leading n modes of a spectral system as a diagonal LtiSystem."""
    if not 1 <= n <= spec.n:
        raise ValueError(f"truncation order {n} outside [1, {spec.n}]")
    lam = spec.eigenvalues[:n]
    rows = spec.control_rows[:n, :]
    label = f"{spec.basis_label}[trunc n={n}]"
    return LtiSystem(np.diag(lam), rows, label=label)


# ---------------------------------------------------------------------------
# benchmark spectral systems
# ---------------------------------------------------------------------------

def point_control_heat(x0: float, c: float, n: int) -> SpectralSystem:
    """1-D Dirichlet heat generator with a point actuator at x0.

    Modes: eigenvalues -(j*pi)^2 + c, sensor row sqrt(2)*sin(j*pi*x0) in the
    orthonormal basis sqrt(2) sin(j*pi*x).
    """
    if not 0.0 < x0 < 1.0:
        raise ValueError(f"actuation point x0={x0} must lie strictly in (0,1)")
    if n < 1:
        raise ValueError("need at least one mode")
    j = np.arange(1, n + 1)
    lam = -(j * np.pi) ** 2 + c
    rows = np.sqrt(2.0) * np.sin(j * np.pi * x0)
    return SpectralSystem(lam, rows[:, None],
                          basis_label=f"point-heat(x0={x0:.12g}, c={c:g})")


# the Hermite control Gram matrix is integrated to this relative tolerance
HERMITE_REL_TOL = 1e-12


def _hermite_values(k_max, x):
    """Orthonormal Hermite function values h_0..h_{k_max-1} at points x."""
    x = np.asarray(x, dtype=float)
    h = np.zeros((k_max, x.size))
    h[0] = np.pi ** (-0.25) * np.exp(-x * x / 2.0)
    if k_max > 1:
        h[1] = np.sqrt(2.0) * x * h[0]
    for k in range(1, k_max - 1):
        h[k + 1] = (np.sqrt(2.0 / (k + 1)) * x * h[k]
                    - np.sqrt(k / (k + 1.0)) * h[k - 1])
    return h


def hermite_heat(c: float, control_set: Sequence, n: int) -> SpectralSystem:
    """1-D harmonic-oscillator heat system observed on a union of intervals.

    Eigenvalues are -(2k+1)+c for k = 0..n-1; the control matrix is the
    Gram matrix of the indicator of `control_set` in the orthonormal
    Hermite-function basis, integrated panel-wise to machine precision:
    each refinement level is one h = `_hermite_values(n, nodes)` over all
    of its nodes and one product (h * w) @ h.T.  Intervals may be
    half-infinite (use +/-inf endpoints).
    """
    if c < 1.0:
        raise ValueError("shift c must be >= 1 (the space dimension)")
    if n < 1:
        raise ValueError("need at least one mode")
    intervals = [(float(a), float(b)) for a, b in control_set]
    if not intervals:
        raise ValueError("control set must contain at least one interval")
    # Hermite functions of order < n are negligible beyond this radius.
    x_cut = math.sqrt(2.0 * (2 * n + 1)) + 12.0
    gram = np.zeros((n, n))

    def level(nodes, weights):
        h = _hermite_values(n, nodes)
        return (h * weights) @ h.T

    for a, b in intervals:
        if b <= a:
            raise ValueError(f"empty or reversed interval ({a}, {b})")
        a = max(a, -x_cut)
        b = min(b, x_cut)
        if b <= a:
            continue
        panels = max(8, int(math.ceil((b - a) * max(1.0, n / 4.0))))
        part, _ = integrate_adaptive(level, a, b, panels=panels, npts=10,
                                     rel_tol=HERMITE_REL_TOL)
        gram += part
    gram = 0.5 * (gram + gram.T)
    k = np.arange(n)
    lam = -(2.0 * k + 1.0) + c
    return SpectralSystem(lam, gram, basis_label=f"hermite-heat(c={c:g})")


def fractional_heat(s: float, c: float, control_set: Sequence,
                    n: int) -> SpectralSystem:
    """Fractional Dirichlet heat system on (0,1) observed on intervals.

    Eigenvalues are -(j*pi)^s + c; control entries are the exact integrals
    2*int_E sin(j pi x) sin(k pi x) dx from the closed-form antiderivative,
    evaluated for all (j, k) at once.
    """
    if not 0.0 < s < 1.0:
        raise ValueError(f"fractional order s={s} must lie in (0, 1)")
    if c < 0:
        raise ValueError("shift c must be nonnegative")
    if n < 1:
        raise ValueError("need at least one mode")
    intervals = [(float(a), float(b)) for a, b in control_set]
    for a, b in intervals:
        if not (0.0 <= a < b <= 1.0):
            raise ValueError(f"interval ({a}, {b}) must sit inside (0, 1)")

    jj = np.arange(1, n + 1)
    diff = jj[:, None] - jj[None, :]
    total = jj[:, None] + jj[None, :]

    def anti(x):
        # 2 sin(j pi x) sin(k pi x) = cos((j-k) pi x) - cos((j+k) pi x),
        # whose j == k term integrates to x
        with np.errstate(invalid="ignore"):
            first = np.where(diff == 0, x,
                             np.sin(diff * np.pi * x) / (diff * np.pi))
        return first - np.sin(total * np.pi * x) / (total * np.pi)

    gram = np.zeros((n, n))
    for a, b in intervals:
        gram += anti(b) - anti(a)
    # exactly symmetric, whatever the sine's rounding at negative arguments
    gram = np.triu(gram) + np.triu(gram, 1).T
    lam = -(jj * np.pi) ** s + c
    return SpectralSystem(lam, gram,
                          basis_label=f"fractional-heat(s={s:g}, c={c:g})")


# ---------------------------------------------------------------------------
# continued-fraction actuation point
# ---------------------------------------------------------------------------

# Partial quotients stay exact integers while q^3 fits the double exponent
# range; beyond that only logarithms are meaningful anyway.
OVERFLOW_GUARD = 700.0


@dataclass(frozen=True)
class ContinuedFractionPoint:
    """A point in (0,1) whose continued fraction has explosive denominators.

    The expansion starts 0, 2 and then feeds each denominator back through
    a_{n+1} = floor(exp(q_{n+1}^3)) + 1, which makes the point irrational
    and extraordinarily well approximated by its convergents.  Exact
    integers are kept while representable; past the overflow guard the
    partial quotients are tracked through their logarithms
    (ln a_{n+1} = q_{n+1}^3 up to a vanishing floor correction).
    """

    partial_quotients: tuple            # exact a_0 .. a_r
    log_partial_quotients: tuple        # ln a_n for the overflowed tail
    convergents: tuple                  # exact Fractions p_n/q_n, n = 1..
    log_q: tuple                        # ln q_n for every computed index
    depth: int

    @property
    def x0(self) -> float:
        """Float value (the last exact convergent; error far below 1 ulp)."""
        return float(self.convergents[-1])

    def value_bracket(self):
        """Exact rational (lo, hi) with lo < x0 < hi.

        Uses the last exact convergent and a crude lower bound on the first
        overflowed partial quotient; the enclosure width is below 1e-300.
        """
        p_last, q_last = (self.convergents[-1].numerator,
                          self.convergents[-1].denominator)
        if len(self.convergents) >= 2:
            p_prev = self.convergents[-2].numerator
            q_prev = self.convergents[-2].denominator
        else:
            p_prev, q_prev = 0, 1
        big = 10 ** 300
        inner = Fraction(p_last, q_last)
        outer = Fraction(big * p_last + p_prev, big * q_last + q_prev)
        return (inner, outer) if inner < outer else (outer, inner)


def continued_fraction_point(depth: int) -> ContinuedFractionPoint:
    """Expand the benchmark actuation point to the requested depth.

    Recurrences: q_{n+1} = a_n q_n + q_{n-1} with seeds a_0=0, a_1=2,
    q_0=0, q_1=1, and a_{n+1} = floor(exp(q_{n+1}^3)) + 1.  Indices run
    until a_depth is known (exactly or through its logarithm).
    """
    if depth < 2:
        raise ValueError("depth must be at least 2")
    a_exact = [0, 2]
    log_a_tail = []                     # ln a_n for n >= len(a_exact)
    q = [0, 1]
    p = [1, 0]
    log_q = [float("-inf"), 0.0]
    convergents = [Fraction(0, 1)]      # p_1/q_1
    for n in range(1, depth):
        exact = n < len(a_exact) and not log_a_tail
        if exact:
            q_next = a_exact[n] * q[n] + q[n - 1]
            p_next = a_exact[n] * p[n] + p[n - 1]
            q.append(q_next)
            p.append(p_next)
            log_q.append(math.log(q_next))
            convergents.append(Fraction(p_next, q_next))
            cube = float(q_next) ** 3
            if cube <= OVERFLOW_GUARD:
                # floor(e^cube) is exact for the small q reachable here
                a_exact.append(int(math.floor(math.exp(cube))) + 1)
            else:
                # the floor and +1 shift ln a by less than e^-cube
                log_a_tail.append(cube)
        else:
            # q_{n+1} = a_n q_n + q_{n-1} with a_n astronomically dominant
            ln_a_n = log_a_tail[n - len(a_exact)]
            ln_q_next = ln_a_n + log_q[-1]
            log_q.append(ln_q_next)
            triple = 3.0 * ln_q_next
            log_a_tail.append(math.exp(triple) if triple < 709.0
                              else float("inf"))
    return ContinuedFractionPoint(
        partial_quotients=tuple(a_exact),
        log_partial_quotients=tuple(log_a_tail),
        convergents=tuple(convergents),
        log_q=tuple(log_q),
        depth=depth,
    )


# ---------------------------------------------------------------------------
# spectral projection families
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ProjectionFamily:
    """Nested coordinate projections with their dissipative tail data.

    Entry k keeps the first mode_counts[k] coordinates; the tail decays
    like m_k[k] * exp(-alpha_k[k] * t) where alpha_k is minus the first
    discarded eigenvalue (+inf when nothing is discarded).
    """

    ks: tuple
    mode_counts: tuple
    m_k: tuple
    alpha_k: tuple

    def __post_init__(self):
        if len({len(self.ks), len(self.mode_counts), len(self.m_k),
                len(self.alpha_k)}) != 1:
            raise ValueError("family fields must have equal length")
        finite = [a for a in self.alpha_k if np.isfinite(a)]
        # stagnant cut rules may repeat a tail rate, but never shrink it
        if any(b < a for a, b in zip(finite, finite[1:])):
            raise ValueError("alpha_k must be nondecreasing")
        if any(b < a for a, b in zip(self.mode_counts, self.mode_counts[1:])):
            raise ValueError("projection ranges must be nested")

    def entry(self, k):
        i = self.ks.index(k)
        return self.mode_counts[i], self.m_k[i], self.alpha_k[i]


def spectral_projection_family(spec: SpectralSystem,
                               cut_rule: Optional[Callable[[int], float]] = None,
                               k_max: Optional[int] = None) -> ProjectionFamily:
    """Build coordinate projections P_k keeping modes with decay <= cut_rule(k).

    cut_rule(k) is a threshold on the decay rate -lambda; the default is the
    identity (keep modes no faster than e^{-k t}).  The tail bound is exact
    for a diagonal system: M_k = 1 and alpha_k = -(first discarded
    eigenvalue).
    """
    if cut_rule is None:
        cut_rule = float
    lam = spec.eigenvalues
    n = lam.shape[0]
    if k_max is None:
        k_max = n
    ks, counts, alphas = [], [], []
    for k in range(1, k_max + 1):
        thr = float(cut_rule(k))
        m = int(np.count_nonzero(-lam <= thr))
        ks.append(k)
        counts.append(m)
        alphas.append(float(-lam[m]) if m < n else float("inf"))
    if all(m == 0 for m in counts) or all(m == n for m in counts):
        raise ValueError("cut rule selects no modes or all modes for every k; "
                         "the family is degenerate")
    return ProjectionFamily(ks=tuple(ks), mode_counts=tuple(counts),
                            m_k=tuple(1.0 for _ in ks),
                            alpha_k=tuple(alphas))


# ---------------------------------------------------------------------------
# JSON spec loading (matrix / spectral kinds; the CLI dispatches)
# ---------------------------------------------------------------------------

def system_from_spec(spec: dict):
    """Build a system from the JSON system-spec schema.

    Supported kinds: "matrix", "point_heat", "hermite", "fractional"; any
    other kind raises ValueError.  The periodic benchmark ("periodic_l2")
    is not one of them: the CLI runs it only through `periodic` and
    `example periodic-l2`.
    """
    kind = spec.get("kind")
    if kind == "matrix":
        return build_system(spec["a"], spec["b"], label=spec.get("label", ""))
    if kind == "point_heat":
        x0 = spec["x0"]
        if x0 == "cf":
            x0 = continued_fraction_point(int(spec.get("depth", 3))).x0
        return point_control_heat(float(x0), float(spec.get("c", 0.0)),
                                  int(spec["modes"]))
    if kind == "hermite":
        return hermite_heat(float(spec.get("c", 1.0)), spec["intervals"],
                            int(spec["modes"]))
    if kind == "fractional":
        return fractional_heat(float(spec["s"]), float(spec.get("c", 0.0)),
                               spec["intervals"], int(spec["modes"]))
    raise ValueError(f"unknown system kind {kind!r}")
