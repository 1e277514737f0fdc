"""Periodic evolutions with time-multiplexed observation channels.

The benchmark system here is diagonal with decay rates 1, 2, ..., N and a
1-periodic control operator that opens, for mode n, an exclusive window
(tau_n, tau_{n-1}) inside each period; the window widths shrink like
e^{-n^2}.  Because every channel is scalar and disjoint, observation
energies have exact per-mode closed forms, which the generic certificate
checker cross-validates by panel quadrature split at the switch times.

A periodic certificate is a `WeakObsCertificate`: the claim
||Phi(n_k,0)^* psi|| <= c_k ||obs|| + e^{-k n_k} ||psi|| is the one with
horizon n_k periods, alpha = k, D = c_k and C = 1.  Only what is periodic
lives here: the per-mode energies g, the decayed norms w = e^{2 lambda T}
and the quadrature confirmation.  The claim holds iff
sqrt(w_n) <= c_k sqrt(g_n) + e^{-k n_k} for every mode n, which
`weakobs.DiagonalInputs` decides exactly, drawing no random state; margin,
threshold and verdict come from the decision core in `stabcert.weakobs`.
"""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ._quadrature import integrate_adaptive
from .weakobs import DiagonalInputs, WeakObsCertificate, decide

__all__ = [
    "PeriodicSystem",
    "build_multiplexed_system",
    "periodic_observation_energy",
    "periodic_observation_energy_quadrature",
    "noncontrollability_witness",
    "multiplexed_stabilizability_check",
    "periodic_weakobs_check",
]

@dataclass(frozen=True)
class PeriodicSystem:
    """Diagonal `period`-periodic system with one observation window per
    mode, given as a fraction of the period."""

    period: float
    a_diag: np.ndarray
    windows: tuple                      # per mode: (lo, hi) inside [0, 1]
    switch_times: Optional[tuple] = None   # tau_0 = 1 > tau_1 > ... (benchmark)
    alpha_series: Optional[float] = None   # normalizer of the window widths
    series_terms: Optional[int] = None
    tail_bound: Optional[float] = None

    def __post_init__(self):
        if self.period <= 0:
            raise ValueError("period must be positive")
        lam = np.asarray(self.a_diag, dtype=float)
        lam.setflags(write=False)
        object.__setattr__(self, "a_diag", lam)
        if len(self.windows) != lam.shape[0]:
            raise ValueError("need one window per mode")
        for lo, hi in self.windows:
            if not (0.0 <= lo <= hi <= 1.0):
                raise ValueError(f"window ({lo}, {hi}) outside [0, 1]")
        if self.switch_times is not None:
            taus = np.asarray(self.switch_times)
            if taus[0] != 1.0:
                raise ValueError("tau_0 must be exactly 1")
            if np.any(np.diff(taus) >= 0) or np.any(taus <= 0):
                raise ValueError("switch times must be strictly decreasing "
                                 "and positive")
        if self.alpha_series is not None and not 0 < self.alpha_series < 1:
            raise ValueError("alpha_series must lie in (0, 1)")

    @property
    def n(self):
        return self.a_diag.shape[0]


def build_multiplexed_system(n: int, series_terms: int = 12
                             ) -> PeriodicSystem:
    """Benchmark system: decay rates 1..n, windows of width e^{-k^2}/alpha.

    tau_j = (1/alpha) sum_{k>j} e^{-k^2} with alpha the full (truncated)
    sum, so tau_0 = 1 exactly by telescoping; the recorded tail bound
    e^{-(series_terms+1)^2} certifies the truncation.
    """
    if n < 1:
        raise ValueError("need at least one mode")
    if series_terms < n + 2:
        raise ValueError(
            f"series_terms={series_terms} too small for n={n} modes; "
            f"need at least n+2")
    ks = np.arange(1, series_terms + 1)
    a_k = np.exp(-ks.astype(float) ** 2)
    alpha = float(a_k.sum())
    taus = [float(a_k[j:].sum() / alpha) for j in range(n + 1)]  # tau_0..tau_n
    windows = tuple((taus[m], taus[m - 1]) for m in range(1, n + 1))
    return PeriodicSystem(
        period=1.0,
        a_diag=-np.arange(1, n + 1, dtype=float),
        windows=windows,
        switch_times=tuple(taus),
        alpha_series=alpha,
        series_terms=series_terms,
        tail_bound=math.exp(-float(series_terms + 1) ** 2),
    )


def _mode_energies(sys: PeriodicSystem, m: int) -> list:
    """int_0^{m period} of each windowed squared adjoint mode, closed form.

    A mode contributes e^{2 lam (m period - t)} whenever the fractional
    part of t/period lies in its window (lo, hi).  With t = period tau this
    is period times the unit-period integral of rate lam period; summing the
    per-period integrals gives sum_{j=1..m} (e^{-s(j-hi)} - e^{-s(j-lo)})/s
    with s = -2 lam period, each term taken as
    -e^{-s(j-hi)} expm1(-s(hi-lo))/s, which keeps the digits that the
    difference cancels on a narrow window.
    """
    energies = []
    for lam, (lo, hi) in zip(sys.a_diag, sys.windows):
        s = -2.0 * lam * sys.period
        total = 0.0
        for j in range(1, m + 1):
            if abs(s) < 1e-12:
                total += hi - lo
            else:
                total -= (math.exp(-s * (j - hi)) * math.expm1(-s * (hi - lo))
                          / s)
        energies.append(sys.period * total)
    return energies


def _checked_state(sys: PeriodicSystem, horizon_periods: int, psi):
    """psi as a float array, once the horizon and the state's shape pass."""
    if horizon_periods < 1:
        raise ValueError("need at least one period")
    psi = np.asarray(psi, dtype=float)
    if psi.shape != (sys.n,):
        raise ValueError(f"state of shape {psi.shape} does not match the "
                         f"truncation of {sys.n} modes")
    return psi


def periodic_observation_energy(sys: PeriodicSystem, horizon_periods: int,
                                psi) -> float:
    """||B(.)^* Phi(m period, .)^* psi||^2 over m periods, mode by mode."""
    psi = _checked_state(sys, horizon_periods, psi)
    return float(sum(p**2 * e for p, e in
                     zip(psi, _mode_energies(sys, horizon_periods))))


# relative tolerance of each panel of the quadrature cross-check
QUADRATURE_REL_TOL = 1e-11


def periodic_observation_energy_quadrature(sys: PeriodicSystem,
                                           horizon_periods: int,
                                           psi) -> float:
    """Quadrature cross-check of the closed-form energy.

    Integrates the pointwise observed norm in tau = t/period, with rates
    lam period and panels split at every switch time, where the integrand
    is smooth, then scales by the period.  Each level evaluates the
    windowed squared modes at all of its nodes as one (modes x nodes)
    masked array.
    """
    psi = _checked_state(sys, horizon_periods, psi)
    m = horizon_periods
    lam = sys.a_diag * sys.period
    lo, hi = np.array(sys.windows).T

    def level(t, weights):
        frac = t - np.floor(t)
        inside = (lo[:, None] < frac) & (frac < hi[:, None])
        amp = psi[:, None] * np.exp(lam[:, None] * (m - t))
        return np.where(inside, amp ** 2, 0.0).sum(axis=0) @ weights

    cuts = sorted({float(i + w) for i in range(m)
                   for pair in sys.windows for w in pair}
                  | {float(i) for i in range(m + 1)})
    total = 0.0
    for a, b in zip(cuts, cuts[1:]):
        if b - a < 1e-15:
            continue
        val, _ = integrate_adaptive(level, a, b, panels=4, npts=8,
                                    rel_tol=QUADRATURE_REL_TOL)
        total += val
    return float(sys.period * total)


def noncontrollability_witness(sys: PeriodicSystem, m: int, big_c: float):
    """Mode index defeating every steering bound with constant big_c.

    Returns (n, lhs, rhs) where lhs = e^{-n m} is the free adjoint norm of
    mode n at time 0 and rhs = big_c * sqrt(observation energy over m
    periods); the index solves
    n >= m + sqrt(m^2 + 2 ln C + ln(2/alpha)), which forces lhs > rhs and
    so refutes null controllability over [0, m].  A witness index beyond
    the truncation is read from a multiplexed system extended to reach it.
    """
    if not 1.0 < big_c < math.inf:
        raise ValueError(f"the constant C = {big_c!r} must be finite and "
                         f"exceed 1")
    if m < 1:
        raise ValueError("need at least one period")
    if sys.alpha_series is None or sys.period != 1.0:
        raise ValueError("witness formula requires the multiplexed "
                         "benchmark construction")
    alpha = sys.alpha_series
    threshold = m + math.sqrt(m**2 + 2.0 * math.log(big_c)
                              + math.log(2.0 / alpha))
    n = int(math.ceil(threshold))
    work = sys
    if n > sys.n:
        terms = max(sys.series_terms or 12, n + 2)
        work = build_multiplexed_system(n, terms)
    lhs = math.exp(-n * m)
    energy = periodic_observation_energy(
        work, m, np.eye(work.n)[n - 1])
    rhs = big_c * math.sqrt(energy)
    if not lhs > rhs:
        raise RuntimeError("witness construction failed its own inequality")
    return n, lhs, rhs


def periodic_weakobs_check(sys: PeriodicSystem, k: int, n_k: int,
                           c_k: float) -> WeakObsCertificate:
    """Decide ||Phi(n_k,0)^* psi|| <= c_k ||obs|| + e^{-k n_k} ||psi||.

    That is the certificate (T, alpha, D, C) = (n_k period, k, c_k, 1),
    decided mode by mode (`weakobs.DiagonalInputs`): the margin is
    c_k^2 - D_min^2, and a refutation's witness, the worst mode's axis, is
    confirmed through the quadrature energy.
    """
    if k < 1 or n_k < 1:
        raise ValueError("k and n_k must be positive integers")
    cert = WeakObsCertificate(horizon=n_k * sys.period, alpha=k,
                              d_const=c_k, c_const=1.0)
    g = np.array(_mode_energies(sys, n_k))
    w = np.exp(2.0 * sys.a_diag * cert.horizon)
    return decide(DiagonalInputs(
        g, w, lambda psi: periodic_observation_energy_quadrature(sys, n_k,
                                                                 psi)), cert)


def multiplexed_stabilizability_check(sys: PeriodicSystem,
                                      k: int) -> WeakObsCertificate:
    """Benchmark certificate with c_k = sqrt(alpha) e^{k^2/2} over one
    period: e^{k^2} a_n >= 1 for n <= k, so the first k channels carry
    the decayed modes."""
    if sys.alpha_series is None:
        raise ValueError("requires the multiplexed benchmark construction")
    return periodic_weakobs_check(
        sys, k, 1, math.sqrt(sys.alpha_series) * math.exp(k**2 / 2.0))
