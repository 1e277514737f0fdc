"""Acceptance checks: one callable per criterion, shared by CLI and tests.

Each check returns a CriterionResult with a pass flag, the measured
duration against the stated budget, and a short detail string.  Checks
never raise; failures are captured in the result.
"""

import math
import time
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import feedback, lrconstants, periodic, systems, weakobs
from .semigroup import QuadratureSpec, observability_gramian, \
    observation_energy, transition_matrix

__all__ = ["CriterionResult", "run_all", "ALL_CRITERIA"]


@dataclass(frozen=True)
class CriterionResult:
    name: str
    passed: bool
    duration: float
    budget: float
    detail: str

    @property
    def line(self):
        mark = "PASS" if self.passed else "FAIL"
        return (f"[{mark}] {self.name} ({self.duration:.2f}s / "
                f"budget {self.budget:.0f}s): {self.detail}")


def _wrap(name, budget, fn):
    start = time.perf_counter()
    try:
        detail = fn()
        passed = True
    except AssertionError as exc:
        detail, passed = f"assertion failed: {exc}", False
    except Exception as exc:  # noqa: BLE001 - report, never crash the table
        detail, passed = f"{type(exc).__name__}: {exc}", False
    duration = time.perf_counter() - start
    if passed and duration > budget:
        # the time is in `line`; `detail` goes into report.json
        passed, detail = False, f"over budget: {detail}"
    return CriterionResult(name=name, passed=passed, duration=duration,
                           budget=budget, detail=detail)


# ---------------------------------------------------------------------------
# criterion bodies
# ---------------------------------------------------------------------------

def _scalar_riccati(seed):
    s = systems.build_system([[0.0]], [[1.0]])
    fb = feedback.solve_shifted_riccati(s, 1.0)
    root2 = math.sqrt(2.0)
    assert abs(fb.riccati_p[0, 0] - (1.0 + root2)) <= 1e-10
    assert abs(fb.measured_rate - (1.0 + root2)) <= 1e-10, \
        f"rate {fb.measured_rate}"
    # the shifted-system rate is sqrt((a+mu)^2+b^2) = sqrt(2) here
    assert abs((fb.measured_rate - fb.mu) - root2) <= 1e-10
    rng = np.random.default_rng(seed)
    for _ in range(50):
        a = float(rng.uniform(-2.0, 2.0))
        b = float(rng.uniform(0.1, 2.0)) * (1 if rng.random() < 0.5 else -1)
        mu = float(rng.uniform(0.1, 2.0))
        res = feedback.solve_shifted_riccati(
            systems.build_system([[a]], [[b]]), mu)
        p = res.riccati_p[0, 0]
        analytic = mu + math.sqrt((a + mu) ** 2 + b**2)
        assert abs(res.measured_rate - analytic) <= 1e-10, \
            f"(a,b,mu)=({a},{b},{mu}): {res.measured_rate} vs {analytic}"
        assert abs(res.measured_rate - (-(a - b**2 * p))) <= 1e-10
    return "scalar closed forms reproduced to 1e-10 on 50 random triples"


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


def _gramian_oracle(seed):
    rng = np.random.default_rng(seed)
    quad = QuadratureSpec(panels=8, nodes_per_panel=10, rel_tol=1e-11)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 21))
        m = int(rng.integers(1, 4))
        lam = rng.uniform(-3.0, 1.0, size=n)
        b = rng.standard_normal((n, m))
        sys_d = systems.build_system(np.diag(lam), b)
        horizon = float(rng.uniform(0.2, 3.0))
        closed = _diagonal_gramian(lam, b, horizon)
        quadr = observability_gramian(sys_d, horizon, quad).matrix
        rel = np.linalg.norm(quadr - closed) / max(np.linalg.norm(closed),
                                                   1e-300)
        worst = max(worst, rel)
        assert rel <= 1e-9, f"relative error {rel:.3e} at N={n}, T={horizon}"
    return f"100 diagonal Gramians, worst closed-vs-quadrature rel {worst:.2e}"


def _random_controllable(rng, n_max=6):
    while True:
        n = int(rng.integers(2, n_max + 1))
        m = int(rng.integers(1, 3))
        a = rng.standard_normal((n, n))
        b = rng.standard_normal((n, m))
        ctrb = np.hstack([np.linalg.matrix_power(a, i) @ b for i in range(n)])
        s = np.linalg.svd(ctrb, compute_uv=False)
        if s[-1] > 1e-4 * s[0]:
            return systems.build_system(a, b)


def _unobservable_unstable(rng, n=4):
    """Orthogonally diagonalizable A with eigenvalue +1 invisible to B."""
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    lam = np.concatenate([[1.0], rng.uniform(-3.0, -0.5, size=n - 1)])
    a = q @ np.diag(lam) @ q.T
    b = rng.standard_normal((n, 2))
    v = q[:, 0]
    b = b - np.outer(v, v @ b)          # left eigenvector v now satisfies v^T B = 0
    return systems.build_system(a, b)


def _equivalence(seed):
    rng = np.random.default_rng(seed)
    alphas = [1.0, 2.0, 4.0, 8.0]
    horizons = [0.5, 1.0, 2.0, 4.0]
    for i in range(30):
        sys_c = _random_controllable(rng)
        fam = weakobs.sweep_alpha(sys_c, alphas, horizons, residual_rule=1.0,
                                  samples=60, seed=seed + i)
        assert fam.all_certified, \
            f"controllable pair #{i} not certified everywhere"
        for mu in (1.0, 2.0, 4.0):
            res = feedback.certificate_to_feedback(sys_c, fam, mu)
            assert res.measured_rate > mu, \
                f"pair #{i}: rate {res.measured_rate} <= mu={mu}"
    for i in range(10):
        sys_u = _unobservable_unstable(rng)
        fam = weakobs.sweep_alpha(sys_u, [2.0], horizons, residual_rule=1.0,
                                  samples=60, seed=seed + i)
        assert not fam.alpha_certified(2.0), f"bad pair #{i} was certified"
        assert any(c.status == weakobs.REFUTED for c in fam.certificates), \
            f"bad pair #{i} not refuted"
        try:
            feedback.solve_shifted_riccati(sys_u, 2.0)
            raise AssertionError(f"bad pair #{i}: synthesis did not fail")
        except feedback.UnstabilizableError:
            pass
    return ("30 controllable pairs certified + stabilized at mu in {1,2,4}; "
            "10 engineered pairs refuted and unstabilizable")


def _constants_end_to_end(seed):
    x0 = 1.0 / math.sqrt(2.0)
    c = 5.0
    spec = systems.point_control_heat(x0, c, 16)
    lti = systems.truncate(spec, 16)
    bound = lrconstants.fit_semigroup_bound(lti)
    fam = systems.spectral_projection_family(
        spec, cut_rule=lambda k: (k * np.pi) ** 2 - c + 1e-9, k_max=8)
    horizons = [0.5, 1.0, 2.0, 4.0]
    checked = 0
    for alpha in (1.0, 2.0):
        k = lrconstants.pick_family_entry(fam, alpha)
        _, m_k, alpha_k = fam.entry(k)
        c_k = lrconstants.estimate_spectral_constant(spec, fam, k)
        d1, c1 = lrconstants.constants_from_spectral_inequality(
            bound, m_k, alpha_k, c_k, lti.b_norm, alpha)
        for t in [t for t in horizons if t > 1.0]:
            cert = weakobs.WeakObsCertificate(horizon=t, alpha=alpha,
                                              d_const=d1, c_const=c1)
            out = weakobs.check_certificate(lti, cert, samples=60, seed=seed)
            assert out.status == weakobs.CERTIFIED, \
                f"spectral route not certified at alpha={alpha}, T={t}: " \
                f"{out.status}"
            checked += 1
        t0 = 0.5
        ck_t0 = lrconstants.point_heat_truncated_obs_constant(x0, c, k, t0)
        d2, c2 = lrconstants.constants_from_truncated_obs(
            bound, t0, ck_t0, m_k, alpha_k, lti.b_norm, alpha)
        for t in [t for t in horizons if t >= 2 * t0]:
            cert = weakobs.WeakObsCertificate(horizon=t, alpha=alpha,
                                              d_const=d2, c_const=c2)
            out = weakobs.check_certificate(lti, cert, samples=60, seed=seed)
            assert out.status == weakobs.CERTIFIED, \
                f"truncated-obs route not certified at alpha={alpha}, " \
                f"T={t}: {out.status}"
            checked += 1
    return f"both constant routes certified {checked} (alpha, T) pairs"


def _multiplexed_numbers(seed):
    sys_p = periodic.build_multiplexed_system(10)
    alpha = sys_p.alpha_series
    assert abs(alpha - 0.3863186) <= 5e-8, f"alpha={alpha!r}"
    assert sys_p.tail_bound < 1e-70
    assert sys_p.switch_times[0] == 1.0
    n, lhs, rhs = periodic.noncontrollability_witness(sys_p, 1, 10.0)
    assert n == 4 and lhs > rhs
    assert abs(lhs - math.exp(-4.0)) <= 1e-12
    energy = periodic.periodic_observation_energy(sys_p, 1, np.eye(10)[3])
    assert energy <= 2.0 / alpha * math.exp(-16.0), "bound violated"
    assert abs(rhs - 10.0 * math.sqrt(energy)) <= 1e-9 * rhs
    cert1 = periodic.multiplexed_stabilizability_check(sys_p, 1, seed=seed)
    assert cert1.status == weakobs.CERTIFIED
    assert abs(cert1.d_const - math.sqrt(alpha) * math.exp(0.5)) <= 1e-9
    for k in range(1, 6):
        cert = periodic.multiplexed_stabilizability_check(sys_p, k, seed=seed)
        assert cert.status == weakobs.CERTIFIED, f"k={k}: {cert.status}"
        # e^{k^2} a_n >= 1 for n <= k: the first k channels carry the modes
        assert all(math.exp(k**2 - n**2) >= 1.0 for n in range(1, k + 1))
    return (f"alpha={alpha:.7f}, witness n=4 with e^-4 > 10*sqrt(energy), "
            f"k=1..5 certified")


def _continued_fraction(seed):
    cf = systems.continued_fraction_point(3)
    assert cf.partial_quotients == (0, 2, 2981)
    assert cf.convergents[1] == Fraction(1, 2)
    assert cf.convergents[2] == Fraction(2981, 5963)
    assert abs(cf.log_partial_quotients[0] - 5963.0**3) <= 1.0
    lo, hi = cf.value_bracket()
    # |x0 - p_n/q_n| < 1/(q_n q_{n+1}) for the exact indices n = 1, 2
    qs = [1, 2, 5963]
    for idx, (p_over_q, q_n, q_next) in enumerate(
            zip(cf.convergents[:-1], qs[:-1], qs[1:])):
        bound = Fraction(1, q_n * q_next)
        sup = max(abs(lo - p_over_q), abs(hi - p_over_q))
        assert sup <= bound, f"bound fails at convergent {idx + 1}"
    try:
        lrconstants.point_heat_truncated_obs_constant(0.5, 0.0, 2, 1.0)
        raise AssertionError("rational actuation point was not refused")
    except lrconstants.ModeVanishesError as exc:
        assert exc.mode == 2 and "j=2" in str(exc)
    return "q2=2, a2=2981, q3=5963 exact; bounds hold; x0=1/2 refused at j=2"


def _concatenated(seed):
    s = systems.build_system([[0.0]], [[1.0]])
    eps = math.exp(-2.0)
    _, rep = feedback.concatenated_control(s, beta=1.0, t_seg=1.0,
                                           eps_seg=eps, y0=[1.0], segments=6)
    for i, norm in enumerate(rep.state_norms):
        assert norm <= math.exp(-2.0 * i) * (1.0 + 1e-9), \
            f"state {i}: {norm} > e^-{2*i}"
    for u0, u1 in zip(rep.control_norms, rep.control_norms[1:]):
        assert u1 <= u0 * eps * (1.0 + 1e-6), f"ratio {u1/u0} > e^-2"
    assert rep.geometric_ok and math.isfinite(rep.weighted_l2)
    return (f"6 segments contract at e^-2; weighted control norm "
            f"{rep.weighted_l2:.4f} within its geometric bound")


def _soundness(seed):
    rng = np.random.default_rng(seed)
    pool = []
    for _ in range(8):
        pool.append(_random_controllable(rng, n_max=5))
    for _ in range(4):
        n = int(rng.integers(2, 6))
        pool.append(systems.build_system(
            np.diag(rng.uniform(-2.0, 0.5, size=n)),
            rng.standard_normal((n, 1))))
    for _ in range(3):
        pool.append(_unobservable_unstable(rng))
    for _ in range(3):
        n = int(rng.integers(1, 4))
        pool.append(systems.build_system(np.diag(rng.uniform(-2.0, 0.2, n)),
                                         np.zeros((n, 1))))
    for _ in range(2):
        pool.append(systems.build_system(
            np.diag(rng.uniform(-3.0, -0.5, size=3)),
            np.zeros((3, 1))))
    assert len(pool) == 20

    grams = {}
    counts = {weakobs.CERTIFIED: 0, weakobs.REFUTED: 0,
              weakobs.INCONCLUSIVE: 0}
    # the decisions run at the shipped quadrature; the re-test's Gramian
    # and witness energies are re-evaluated on a finer, independent one
    quad = QuadratureSpec(panels=8, nodes_per_panel=10, rel_tol=1e-11)
    for i in range(200):
        sys_i = pool[int(rng.integers(0, len(pool)))]
        horizon = float(rng.choice([0.5, 1.0, 2.0]))
        alpha = float(rng.choice([0.5, 1.0, 2.0, 4.0]))
        c_val = float(rng.choice([0.5, 1.0, 5.0]))
        key = (id(sys_i), horizon)
        if key not in grams:
            grams[key] = observability_gramian(sys_i, horizon, quad).matrix
        gram = grams[key]
        d_lo, d_hi = weakobs.optimal_d_bracket(sys_i, horizon,
                                               eps=c_val
                                               * math.exp(-alpha * horizon),
                                               samples=40, seed=seed + i)
        if np.isfinite(d_lo):
            pickers = [0.5 * d_lo, 0.9 * d_lo,
                       (d_hi * 1.05 if np.isfinite(d_hi)
                        else 2.0 * d_lo + 1.0),
                       float(rng.uniform(0.0, 3.0))]
        else:
            # no finite D can work; any candidate probes the refutation path
            pickers = [0.5, 1.0, 10.0, float(rng.uniform(0.0, 3.0))]
        d_val = max(float(rng.choice(pickers)), 0.0)
        cert = weakobs.WeakObsCertificate(horizon=horizon, alpha=alpha,
                                          d_const=d_val, c_const=c_val)
        out = weakobs.check_certificate(sys_i, cert, samples=60,
                                        seed=seed + i)
        counts[out.status] += 1

        if out.status == weakobs.CERTIFIED:
            trans = transition_matrix(sys_i, horizon)
            adj = trans.T
            eps = out.residual
            # 1e4 adversarial directions, vectorized
            states = rng.standard_normal((sys_i.n, 10_000))
            states /= np.linalg.norm(states, axis=0)
            lhs = np.linalg.norm(adj @ states, axis=0)
            rhs = (out.d_const
                   * np.sqrt(np.maximum(np.einsum("in,in->n", states,
                                                  gram @ states), 0.0))
                   + eps)
            bad = lhs > rhs + 1e-9 * (1.0 + lhs)
            assert not bad.any(), \
                f"cert #{i} violated by {int(bad.sum())} adversarial states"
        elif out.status == weakobs.REFUTED:
            phi = out.witness / np.linalg.norm(out.witness)
            lhs = float(np.linalg.norm(
                transition_matrix(sys_i, horizon, adjoint=True) @ phi))
            energy = observation_energy(sys_i, horizon, phi, quad)
            rhs = out.d_const * math.sqrt(max(energy, 0.0)) + out.residual
            assert lhs > rhs, f"cert #{i}: witness fails re-evaluation"
    assert counts[weakobs.CERTIFIED] >= 20 and counts[weakobs.REFUTED] >= 20, \
        f"status mix too thin: {counts}"
    return (f"200 certificates: {counts[weakobs.CERTIFIED]} certified all "
            f"survived 1e4-sample re-test, {counts[weakobs.REFUTED]} refuted "
            f"witnesses re-violate, {counts[weakobs.INCONCLUSIVE]} "
            f"inconclusive")


ALL_CRITERIA = (
    ("scalar-riccati-oracle", 1.0, _scalar_riccati),
    ("gramian-oracle", 5.0, _gramian_oracle),
    ("rapid-stabilizability-equivalence", 30.0, _equivalence),
    ("certificate-constants-end-to-end", 10.0, _constants_end_to_end),
    ("multiplexed-periodic-numbers", 5.0, _multiplexed_numbers),
    ("continued-fraction-point", 1.0, _continued_fraction),
    ("concatenated-control", 2.0, _concatenated),
    ("weakobs-decision-soundness", 60.0, _soundness),
)


def run_all(seed: int = 0):
    return [_wrap(name, budget, lambda fn=fn: fn(seed))
            for name, budget, fn in ALL_CRITERIA]


def run_one(name: str, seed: int = 0):
    for cname, budget, fn in ALL_CRITERIA:
        if cname == name:
            return _wrap(cname, budget, lambda: fn(seed))
    raise KeyError(name)
