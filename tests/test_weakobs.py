import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stabcert import feedback, semigroup, systems, verification, weakobs
from stabcert.weakobs import (CERTIFIED, INCONCLUSIVE, REFUTED,
                              WeakObsCertificate)

SCALAR_01 = systems.build_system([[0.0]], [[1.0]])
SCALAR_11 = systems.build_system([[1.0]], [[1.0]])

# frozen closed-form values for (a, b, T) = (1, 1, 1)
D_OPT_EPS0 = 1.5208666231788148          # e / sqrt((e^2-1)/2)
D_HI_ALPHA2 = 1.5189805279366466         # sqrt((e^2 - e^-4) / G)
D_LO_ALPHA2 = 1.4451471326322087         # (e - e^-2) / sqrt(G)


def recheck_inequality(sys, cert, phi):
    """Direct evaluation of the certificate inequality at one state."""
    phi = np.asarray(phi, dtype=float)
    phi = phi / np.linalg.norm(phi)
    lhs = np.linalg.norm(semigroup.propagate(sys, cert.horizon, phi,
                                             adjoint=True))
    energy = semigroup.observation_energy(sys, cert.horizon, phi)
    rhs = cert.d_const * math.sqrt(max(energy, 0.0)) + cert.residual
    return lhs, rhs


# ---------------------------------------------------------------------------
# check_certificate
# ---------------------------------------------------------------------------

def test_stability_alone_certifies():
    sys2 = systems.build_system(np.diag([-2.0, -2.0]), np.zeros((2, 1)))
    for horizon in (0.5, 1.0, 3.0):
        cert = WeakObsCertificate(horizon=horizon, alpha=1.0, d_const=7.0,
                                  c_const=1.0)
        assert weakobs.check_certificate(sys2, cert).status == CERTIFIED


def test_undamped_unobserved_refuted():
    sys0 = systems.build_system([[0.0]], [[0.0]])
    cert = WeakObsCertificate(horizon=2.0, alpha=1.0, d_const=10.0,
                              c_const=1.0)
    out = weakobs.check_certificate(sys0, cert)
    assert out.status == REFUTED
    lhs, rhs = recheck_inequality(sys0, out, out.witness)
    assert lhs > rhs


def test_scalar_growth_certificate_two_sided():
    # (a, b, T, alpha, C) = (1, 1, 1, 2, 1): the smallest D passing the
    # quadratic test is 1.51898...; D = 1 is directly violated at phi = 1.
    cert_low = WeakObsCertificate(horizon=1.0, alpha=2.0, d_const=1.0,
                                  c_const=1.0)
    out = weakobs.check_certificate(SCALAR_11, cert_low)
    assert out.status == REFUTED
    lhs, rhs = recheck_inequality(SCALAR_11, out, out.witness)
    assert lhs > rhs

    cert_high = WeakObsCertificate(horizon=1.0, alpha=2.0,
                                   d_const=D_HI_ALPHA2 * (1 + 1e-9),
                                   c_const=1.0)
    assert weakobs.check_certificate(SCALAR_11, cert_high).status == CERTIFIED

    # inside the bracket the decision is honest: inconclusive, never a guess
    cert_mid = WeakObsCertificate(horizon=1.0, alpha=2.0,
                                  d_const=0.5 * (D_LO_ALPHA2 + D_HI_ALPHA2),
                                  c_const=1.0)
    mid = weakobs.check_certificate(SCALAR_11, cert_mid)
    assert mid.status == INCONCLUSIVE
    assert mid.margin < 0
    # above the best sampled violation ratio, d_lo
    assert mid.d_const > weakobs.optimal_d_bracket(SCALAR_11, 1.0,
                                                   cert_mid.residual)[0]


def test_certificate_validation():
    with pytest.raises(ValueError):
        WeakObsCertificate(horizon=0.0, alpha=1.0, d_const=1.0, c_const=1.0)
    with pytest.raises(ValueError):
        WeakObsCertificate(horizon=1.0, alpha=1.0, d_const=-1.0, c_const=1.0)
    with pytest.raises(ValueError):
        WeakObsCertificate(horizon=1.0, alpha=1.0, d_const=np.inf,
                           c_const=1.0)


@given(scale_d=st.floats(min_value=1.0, max_value=50.0),
       scale_c=st.floats(min_value=1.0, max_value=50.0))
@settings(max_examples=20, deadline=None)
def test_certified_is_monotone_in_constants(scale_d, scale_c):
    base = WeakObsCertificate(horizon=1.0, alpha=2.0,
                              d_const=D_HI_ALPHA2 * (1 + 1e-9), c_const=1.0)
    assert weakobs.check_certificate(SCALAR_11, base).status == CERTIFIED
    bigger = WeakObsCertificate(horizon=1.0, alpha=2.0,
                                d_const=base.d_const * scale_d,
                                c_const=base.c_const * scale_c)
    assert weakobs.check_certificate(SCALAR_11, bigger).status == CERTIFIED


# ---------------------------------------------------------------------------
# optimal_d_bracket
# ---------------------------------------------------------------------------

def test_bracket_residual_absorbs_everything():
    sys0 = systems.build_system(np.diag([-1.0, -3.0]), np.zeros((2, 1)))
    eps = 1.1 * math.exp(-1.0)        # above ||e^{A^T}|| = e^-1
    d_lo, d_hi = weakobs.optimal_d_bracket(sys0, 1.0, eps=eps)
    assert d_lo == 0.0 and d_hi == 0.0


@pytest.mark.parametrize("eps", [math.nan, math.inf, -1.0])
def test_bracket_refuses_a_non_finite_or_negative_residual(eps):
    # nan used to return (nan, inf) and inf (0.0, nan) on the rotation pair
    rotation = systems.build_system([[0.0, 1.0], [-1.0, 0.0]],
                                    [[0.0], [1.0]])
    for s in (SCALAR_01, rotation):
        with pytest.raises(ValueError, match="finite and nonnegative"):
            weakobs.optimal_d_bracket(s, 1.0, eps=eps)


def test_bracket_scalar_unit():
    d_lo, d_hi = weakobs.optimal_d_bracket(SCALAR_01, 1.0, eps=0.0)
    assert d_lo == pytest.approx(1.0, abs=1e-9)
    assert d_hi == pytest.approx(1.0, abs=1e-9)


def test_bracket_scalar_growth():
    d_lo, d_hi = weakobs.optimal_d_bracket(SCALAR_11, 1.0, eps=0.0)
    assert d_lo == pytest.approx(D_OPT_EPS0, abs=1e-9)
    assert d_hi == pytest.approx(D_OPT_EPS0, abs=1e-9)
    d_lo2, d_hi2 = weakobs.optimal_d_bracket(SCALAR_11, 1.0,
                                             eps=math.exp(-2.0))
    assert d_lo2 == pytest.approx(D_LO_ALPHA2, abs=1e-9)
    assert d_hi2 == pytest.approx(D_HI_ALPHA2, abs=1e-9)


def test_bracket_orders_on_random_systems():
    rng = np.random.default_rng(9)
    for i in range(8):
        n = int(rng.integers(1, 5))
        s = systems.build_system(rng.standard_normal((n, n)),
                                 rng.standard_normal((n, 1)))
        d_lo, d_hi = weakobs.optimal_d_bracket(s, 1.0, eps=0.1, seed=i)
        assert d_lo <= d_hi * (1 + 1e-12)


def test_bracket_scaling_in_b():
    rng = np.random.default_rng(2)
    a = rng.standard_normal((3, 3))
    b = rng.standard_normal((3, 1))
    s1 = systems.build_system(a, b)
    s4 = systems.build_system(a, 4.0 * b)
    lo1, hi1 = weakobs.optimal_d_bracket(s1, 0.8, eps=0.05, seed=0)
    lo4, hi4 = weakobs.optimal_d_bracket(s4, 0.8, eps=0.05, seed=0)
    assert lo4 == pytest.approx(lo1 / 4.0, rel=1e-9)
    assert hi4 == pytest.approx(hi1 / 4.0, rel=1e-9)


def test_bracket_gap_on_diagonal_systems():
    rng = np.random.default_rng(21)
    for _ in range(6):
        n = int(rng.integers(2, 6))
        s = systems.build_system(np.diag(rng.uniform(-2.0, 1.0, n)),
                                 rng.standard_normal((n, 1)))
        d_lo, d_hi = weakobs.optimal_d_bracket(s, 1.0, eps=0.0)
        assert d_hi <= 1.5 * d_lo


def _ill_pair():
    """n = 10, m = 2 with A ~ N(0, 1/n): cond(R(0.5)) is about 3e6 and
    cond(G(0.5)) about 9e12."""
    rng = np.random.default_rng(0)
    rng.standard_normal((5, 5))
    rng.standard_normal((5, 2))
    return (rng.standard_normal((10, 10)) / math.sqrt(10),
            rng.standard_normal((10, 2)))


def _d_min_oracle(mpmath, a, b, horizon, eps):
    """sqrt(lambda_max(L^{-1} (W - eps^2 I) L^{-T})), G = L L^T, from Van
    Loan's block exponential at the working precision."""
    n = a.shape[0]
    a_mp = mpmath.matrix(a.tolist())
    b_mp = mpmath.matrix(b.tolist())
    bbt = b_mp * b_mp.T
    block = mpmath.zeros(2 * n, 2 * n)
    for i in range(n):
        for j in range(n):
            block[i, j] = -a_mp[i, j]
            block[i, n + j] = bbt[i, j]
            block[n + i, n + j] = a_mp[j, i]
    e = mpmath.expm(block * horizon)
    f12 = mpmath.matrix(n, n)
    f22 = mpmath.matrix(n, n)           # e^{A^T T}
    for i in range(n):
        for j in range(n):
            f12[i, j] = e[i, n + j]
            f22[i, j] = e[n + i, n + j]
    gram = f22.T * f12
    inv = mpmath.cholesky((gram + gram.T) / 2) ** -1
    slack = f22.T * f22 - mpmath.mpf(eps) ** 2 * mpmath.eye(n)
    top = max(mpmath.eigsy(inv * slack * inv.T, eigvals_only=True))
    return float(mpmath.sqrt(top))


@pytest.mark.parametrize("alpha", [1.0, 8.0])
def test_bracket_on_the_factor_matches_high_precision_oracle(alpha):
    # the squared Gramian loses this pair's small eigenvalues below any
    # relative floor; the factor keeps D_min to about 1e-11 (599950.64 at
    # alpha = 1 and 871383.29 at alpha = 8 with 50 digits)
    mpmath = pytest.importorskip("mpmath")
    a, b = _ill_pair()
    eps = math.exp(-alpha * 0.5)
    _, d_hi = weakobs.optimal_d_bracket(systems.build_system(a, b), 0.5,
                                        eps=eps, samples=20)
    with mpmath.workdps(50):
        oracle = _d_min_oracle(mpmath, a, b, 0.5, eps)
    assert abs(d_hi - oracle) <= 1e-6 * oracle


def test_ill_conditioned_controllable_pair_certifies_everywhere():
    fam = weakobs.sweep_alpha(systems.build_system(*_ill_pair()),
                              [1.0, 2.0, 4.0, 8.0], [0.5, 1.0, 2.0, 4.0],
                              samples=60)
    assert {c.status for c in fam.certificates} == {CERTIFIED}


def test_bracket_residual_covers_weakly_observed_decayed_modes():
    # heat-like modes far below the residual yet barely observed scale to
    # -eps^2/sigma^2 ~ -1e21 entries; they leave the kept block, so D = 0
    # is found exactly rather than inside the eigensolver's noise
    x0 = systems.continued_fraction_point(3).x0
    spec = systems.point_control_heat(x0, 5.0, 16)
    s = systems.truncate(spec, spec.n)
    for horizon in (0.5, 2.0, 4.0):
        _, d_hi = weakobs.optimal_d_bracket(s, horizon,
                                            eps=math.exp(-0.5 * horizon),
                                            samples=20)
        assert d_hi == 0.0


def _scaling_pairs(kind):
    if kind == "unobservable":
        return [verification._unobservable_unstable(np.random.default_rng(k))
                for k in range(5)]
    # 30 dense n = 4 pairs on which D = d_hi certifies with margins at
    # rounding level: where rounding can decide, an exact map must not
    pairs = []
    for k in range(30):
        rng = np.random.default_rng([1, k])
        pairs.append(systems.build_system(rng.standard_normal((4, 4)) / 2,
                                          rng.standard_normal((4, 1 + k % 2))))
    return pairs


@pytest.mark.parametrize("kind", ["dense", "unobservable"])
def test_time_scaling_is_exact(kind):
    # (A, B, T, alpha) -> (4A, 2B, T/4, 4 alpha) multiplies every node time,
    # weight and exponent by a power of two and leaves eps = C e^{-alpha T}
    # alone, so the Gramian, the bracket and every verdict repeat bit for bit
    statuses = set()
    for i, s in enumerate(_scaling_pairs(kind)):
        fast = systems.build_system(4.0 * s.a_matrix, 2.0 * s.b_matrix)
        assert weakobs.optimal_d_bracket(fast, 0.25, eps=0.3) == \
            weakobs.optimal_d_bracket(s, 1.0, eps=0.3)
        slow = weakobs.sweep_alpha(s, [0.5, 1.0, 2.0], [0.5, 1.0, 2.0],
                                   samples=60, seed=i)
        quick = weakobs.sweep_alpha(fast, [2.0, 4.0, 8.0],
                                    [0.125, 0.25, 0.5], samples=60, seed=i)
        for c, q in zip(slow.certificates, quick.certificates):
            assert (q.status, q.d_const, q.margin) == \
                (c.status, c.d_const, c.margin)
            assert (q.alpha, q.horizon) == (4.0 * c.alpha, c.horizon / 4.0)
            statuses.add(c.status)
    assert statuses == {CERTIFIED if kind == "dense" else REFUTED}


def _orthogonal(rng, n):
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def test_bracket_is_invariant_under_orthogonal_maps():
    # (A, B) -> (Q^T A Q, Q^T B) and B -> B U map G and e^{A^T T} by exact
    # congruences, and B -> 1e3 B scales D_min by 1e-3: d_hi moves by
    # rounding only (at most 2.3e-13, 5.0e-15 and 4.4e-13 relative on these
    # pairs).  A stated error bound on d_hi would replace the 1e-11.
    for k, s in enumerate(_scaling_pairs("dense")):
        rng = np.random.default_rng([2, k])
        a, b = s.a_matrix, s.b_matrix
        q, u = _orthogonal(rng, 4), _orthogonal(rng, b.shape[1])
        _, d_hi = weakobs.optimal_d_bracket(s, 1.0, eps=0.3, samples=20)
        assert 0.0 < d_hi < np.inf
        for mapped, scale in (((q.T @ a @ q, q.T @ b), 1.0),
                              ((a, b @ u), 1.0), ((a, 1e3 * b), 1e3)):
            _, hi = weakobs.optimal_d_bracket(systems.build_system(*mapped),
                                              1.0, eps=0.3, samples=20)
            assert abs(scale * hi - d_hi) <= 1e-11 * d_hi


# ---------------------------------------------------------------------------
# sweep_alpha and the discrete sequence
# ---------------------------------------------------------------------------

def test_sweep_controllable_scalar():
    fam = weakobs.sweep_alpha(SCALAR_01, [1.0, 2.0, 4.0], [0.5, 1.0, 2.0])
    assert fam.all_certified
    assert fam.verdict == CERTIFIED
    # one D per alpha across the whole horizon grid
    for alpha in fam.alphas:
        ds = {c.d_const for c in fam.entries_for_alpha(alpha)}
        assert len(ds) == 1


def test_sweep_unobservable_fails_everywhere():
    sys0 = systems.build_system([[0.0]], [[0.0]])
    fam = weakobs.sweep_alpha(sys0, [1.0, 2.0], [0.5, 1.0])
    assert fam.verdict == REFUTED
    assert not any(fam.alpha_certified(a) for a in fam.alphas)


def test_sweep_partially_observed_two_modes():
    s = systems.build_system(np.diag([1.0, -10.0]),
                             np.array([[1.0], [0.0]]))
    fam = weakobs.sweep_alpha(s, [1.0, 2.0, 4.0, 8.0], [0.5, 1.0, 2.0, 4.0])
    assert fam.all_certified
    # beyond the hidden mode's decay rate no constant family can work
    fam12 = weakobs.sweep_alpha(s, [12.0], [0.5, 1.0, 2.0])
    assert fam12.verdict == REFUTED


def test_sweep_residual_sources():
    fam_t = weakobs.sweep_alpha(SCALAR_01, [1.0], [0.5, 1.0],
                                residual_rule={1.0: 2.0})
    assert fam_t.residual_source == "table"
    # a table without some alpha of the grid is a ValueError naming it
    with pytest.raises(ValueError, match=r"no C\(alpha\) for alpha = "
                                         r"2\.0, 8\.0$"):
        weakobs.sweep_alpha(SCALAR_01, [1.0, 2.0, 4.0, 8.0], [1.0],
                            residual_rule={1.0: 2.0, 4.0: 1.0})


@pytest.mark.parametrize("rule", [math.inf, math.nan, -1.0, {2.0: math.inf}],
                         ids=["inf", "nan", "negative", "table-inf"])
def test_sweep_refuses_a_bad_c_alpha_before_any_gramian(rule, monkeypatch):
    def no_gramian(*args, **kwargs):
        raise AssertionError("a Gramian was formed")

    monkeypatch.setattr(weakobs, "observability_gramian", no_gramian)
    with pytest.raises(ValueError, match=r"^C\(alpha\) = .* for alpha = "
                       r"2\.0 must be finite and nonnegative$"):
        weakobs.sweep_alpha(_dense_pair("dense"), [2.0], [0.5, 1.0],
                            residual_rule=rule)


def _dense_pair(kind, n=4, seed=5):
    """A random dense pair, or one whose unstable mode B cannot see."""
    rng = np.random.default_rng(seed)
    if kind == "dense":
        return systems.build_system(rng.standard_normal((n, n)),
                                    rng.standard_normal((n, 1)))
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    lam = np.concatenate([[1.0], rng.uniform(-3.0, -0.5, size=n - 1)])
    b = rng.standard_normal((n, 2))
    b -= np.outer(q[:, 0], q[:, 0] @ b)
    return systems.build_system(q @ np.diag(lam) @ q.T, b)


def test_sweep_builds_each_horizon_gramian_once(monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[1])
        return semigroup.observability_gramian(*args, **kwargs)

    monkeypatch.setattr(weakobs, "observability_gramian", counted)
    horizons = [0.5, 1.0, 2.0, 4.0]
    weakobs.sweep_alpha(_dense_pair("dense"), [1.0, 2.0, 4.0, 8.0],
                        horizons, samples=20)
    assert len(calls) == len(horizons)


def test_sweep_builds_each_horizon_candidates_once(monkeypatch):
    original = weakobs.candidate_states
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(weakobs, "candidate_states", counted)
    horizons = [0.5, 1.0, 2.0, 4.0]
    weakobs.sweep_alpha(_dense_pair("dense"), [1.0, 2.0, 4.0, 8.0],
                        horizons, samples=20)
    assert len(calls) == len(horizons)


def test_sweep_scores_each_horizon_once(monkeypatch):
    # the Gaussian and axis states are drawn once per sweep and each
    # horizon's candidates are scored once, not once per (alpha, T)
    shared, scored = [], []
    original_shared = weakobs.shared_states
    original_init = weakobs.HorizonInputs.__init__

    def counted_shared(*args):
        shared.append(args)
        return original_shared(*args)

    def counted_init(self, *args):
        scored.append(args)
        original_init(self, *args)

    monkeypatch.setattr(weakobs, "shared_states", counted_shared)
    monkeypatch.setattr(weakobs.HorizonInputs, "__init__", counted_init)
    fam = weakobs.sweep_alpha(_dense_pair("dense"), [1.0, 2.0, 4.0, 8.0],
                              [0.5, 1.0, 2.0, 4.0], samples=20, seed=3)
    assert len(fam.certificates) == 16
    assert shared == [(4, 20, 3)]
    assert len(scored) == 4


def _old_candidate_states(forms, samples, seed):
    """The per-horizon candidate list, each state normalized on its own."""
    n = len(forms.factor)
    rng = np.random.default_rng(seed)
    cands = [rng.standard_normal(n) for _ in range(samples)]
    cands.extend(np.eye(n))
    sig, vt = forms.sig, forms.vt
    cands.extend(vt)
    _, wv = np.linalg.eigh(forms.adj.T @ forms.adj)
    cands.extend(wv.T)
    kept = sig > forms.floor
    _, _, yt = np.linalg.svd((forms.adj @ vt[kept].T) / sig[kept])
    cands.extend(yt / sig[kept] @ vt[kept])
    norms = [np.linalg.norm(v) for v in cands]
    return [v / norm for v, norm in zip(cands, norms) if norm > 0]


def _old_best_state(forms, eps, candidates):
    """The search on a candidate list, scoring every state at each eps."""
    units = np.array(candidates) / np.linalg.norm(candidates, axis=1)[:, None]
    num = np.linalg.norm(units @ forms.adj.T, axis=1) - eps
    obs = np.linalg.norm(units @ forms.factor.T, axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(num <= 0.0, 0.0,
                         np.where(obs <= forms.floor, np.inf, num / obs))
    best = int(np.argmax(ratio))
    return candidates[best], float(ratio[best])


@pytest.mark.parametrize("kind, n", [("dense", 4), ("dense", 7),
                                     ("unobservable", 6)])
def test_hoisted_scores_match_the_list_search(kind, n):
    s = _dense_pair(kind, n=n)
    for horizon in (0.5, 2.0):
        inputs = weakobs._horizons(s, [horizon], 30, 7)[horizon]
        forms = inputs.forms
        old = _old_candidate_states(forms, 30, 7)
        assert inputs.states.tobytes() == np.array(old).tobytes()
        for eps in (0.0, 1e-3, 0.1, 0.7, 5.0):
            (state, ratio), _ = inputs.entry(eps)
            old_state, old_ratio = _old_best_state(forms, eps, old)
            assert ratio == old_ratio
            assert state.tobytes() == old_state.tobytes()


def test_hoisted_scores_match_the_list_search_on_diagonal_forms():
    # periodic-style forms: diagonal factor and adjoint, raw candidates
    rng = np.random.default_rng(4)
    g, w = rng.uniform(1e-3, 2.0, 6), rng.uniform(1e-2, 3.0, 6)
    forms = weakobs.Forms.of(np.diag(np.sqrt(g)), np.diag(np.sqrt(w)))
    cands = list(np.eye(6))
    cands.extend(rng.standard_normal((40, 6)))
    inputs = weakobs.HorizonInputs(forms, cands, None)
    for eps in (0.0, 0.05, 0.5, 1.0, 2.0):
        (state, ratio), _ = inputs.entry(eps)
        old_state, old_ratio = _old_best_state(forms, eps, cands)
        assert ratio == old_ratio
        assert state.tobytes() == old_state.tobytes()


def _spy_expm_slices(monkeypatch):
    seen = []
    original = semigroup.expm

    def spy(m):
        m = np.asarray(m)
        seen.extend(sl.tobytes() for sl in (m[None] if m.ndim == 2 else m))
        return original(m)

    monkeypatch.setattr(semigroup, "expm", spy)
    return seen


def test_sweep_exponentiates_each_slice_once(monkeypatch):
    # one table of A serves every horizon, level and floor probe, and
    # e^{A^T T} is its e^{A T} transposed
    seen = _spy_expm_slices(monkeypatch)
    fam = weakobs.sweep_alpha(_dense_pair("dense", n=5),
                              [1.0, 2.0, 4.0, 8.0], [0.5, 1.0, 2.0, 4.0],
                              samples=20)
    assert fam.verdict == CERTIFIED
    assert seen
    assert len(seen) == len(set(seen))


def test_sweep_takes_each_floor_probe_norm_once(monkeypatch):
    # the four floor brackets of a dyadic sweep probe 36 times, 21 of them
    # distinct: each distinct time's Frobenius norm is taken once, and
    # where every comparison falls outside a bracket no 2-norm is taken,
    # neither of a probe slice nor of B; each bracket holds the floor of
    # a fresh table, bit for bit
    s = _dense_pair("dense", n=5)
    horizons = [0.5, 1.0, 2.0, 4.0]
    probes, two_norms, brackets = [], [], {}
    norm, bracket_of = np.linalg.norm, weakobs.floor_bracket

    def norm_spy(x, ord=None, axis=None, keepdims=False):
        if ord == "fro" and np.ndim(x) == 3:
            probes.append(len(x))
        if ord == 2:
            two_norms.append(np.shape(x))
        return norm(x, ord, axis, keepdims)

    def bracket_spy(sys, horizon, *, table=None):
        brackets[horizon] = bracket_of(sys, horizon, table=table)
        return brackets[horizon]

    monkeypatch.setattr(np.linalg, "norm", norm_spy)
    monkeypatch.setattr(weakobs, "floor_bracket", bracket_spy)
    fam = weakobs.sweep_alpha(s, [1.0, 2.0, 4.0, 8.0], horizons, samples=20)
    monkeypatch.undo()
    assert fam.verdict == CERTIFIED
    assert sum(probes) == 21 and two_norms == []
    assert sorted(brackets) == horizons
    assert not any("value" in vars(b) for b in brackets.values())
    fresh = systems.build_system(s.a_matrix, s.b_matrix)
    for t in horizons:
        floor = weakobs.Forms.dense(fresh, t).floor
        assert brackets[t].value == floor
        assert brackets[t].lo <= floor <= brackets[t].hi


def _benchmark_workloads():
    """perfbench's workload module, loaded from its file."""
    path = (Path(__file__).resolve().parent.parent / "perfbench"
            / "workloads.py")
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _sweep_job(workloads, job):
    """The `sweep_alpha` of one dense-sweep benchmark job."""
    argv = job.inputs["argv"]
    return weakobs.sweep_alpha(
        systems.build_system(job.inputs["a"], job.inputs["b"]),
        workloads.ALPHAS, workloads.HORIZONS, 1.0,
        samples=workloads.SWEEP_SAMPLES,
        seed=int(argv[argv.index("--seed") + 1]))


def test_a_bracketed_sweep_takes_no_two_norm(monkeypatch):
    # benchmark pairs (dense, ill-conditioned n = 10, dense, unobservable)
    # whose every comparison the brackets decide: no floor is formed, so
    # no batched 2-norm of probe slices and no ||B||_2 is taken; each
    # family equals the one decided against the exact floor
    workloads = _benchmark_workloads()
    for job in workloads.dense_jobs(11, 64)[:8]:
        two_norms, floors = [], []
        norm, floor_of = np.linalg.norm, semigroup.gramian_floor

        def norm_spy(x, ord=None, axis=None, keepdims=False):
            if ord == 2 and np.ndim(x) == 3:
                two_norms.append(np.shape(x))
            return norm(x, ord, axis, keepdims)

        def floor_spy(*args, **kwargs):
            floors.append(1)
            return floor_of(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "norm", norm_spy)
        monkeypatch.setattr(semigroup, "gramian_floor", floor_spy)
        fam = _sweep_job(workloads, job)
        monkeypatch.undo()
        assert two_norms == [] and floors == []

        def exact(sys, horizon, *, table=None):
            return semigroup.FloorBracket.of(
                semigroup.gramian_floor(sys, horizon, table=table))

        monkeypatch.setattr(weakobs, "floor_bracket", exact)
        forced = _sweep_job(workloads, job)
        monkeypatch.undo()
        assert fam.verdict == forced.verdict
        for c, f in zip(fam.certificates, forced.certificates, strict=True):
            assert (c.horizon, c.alpha, c.d_const, c.c_const, c.status,
                    c.margin) == (f.horizon, f.alpha, f.d_const, f.c_const,
                                  f.status, f.margin)
            assert (c.witness is None) == (f.witness is None)
            assert c.witness is None or c.witness.tobytes() == \
                f.witness.tobytes()


def test_sweep_energies_exponentiate_each_slice_once(monkeypatch):
    # the witness energies of every horizon read the Gramians' table of A
    # through its transposed view, so no nonzero slice is exponentiated
    # twice (test_sweep_exponentiates_only_a_once_witnesses_included
    # checks the times themselves)
    energies = []

    def counted(sys, horizon, phi, quad=None, **kwargs):
        energies.append(horizon)
        return semigroup.observation_energy(sys, horizon, phi, quad,
                                            **kwargs)

    monkeypatch.setattr(weakobs, "observation_energy", counted)
    seen = _spy_expm_slices(monkeypatch)
    fam = weakobs.sweep_alpha(_dense_pair("unobservable", n=5),
                              [1.0, 2.0, 4.0, 8.0], [0.5, 1.0, 2.0, 4.0],
                              samples=20)
    assert fam.verdict == REFUTED
    assert len(set(energies)) > 1
    nonzero = [sl for sl in seen if np.frombuffer(sl).any()]
    assert len(nonzero) == len(set(nonzero))


def test_sweep_exponentiates_only_a_once_witnesses_included(monkeypatch):
    # the witness energies read the forms' table of A through its
    # transposed view: no A^T t reaches _exp_stack, and no time twice
    s = _dense_pair("unobservable", n=5)
    a = s.a_matrix
    assert not np.array_equal(a, a.T)
    energies, calls = [], []

    def counted(sys, horizon, phi, quad=None, **kwargs):
        energies.append(horizon)
        return semigroup.observation_energy(sys, horizon, phi, quad,
                                            **kwargs)

    def spy(m, times, diagonal, original=semigroup._exp_stack):
        calls.append((m, times.tolist()))
        return original(m, times, diagonal)

    monkeypatch.setattr(weakobs, "observation_energy", counted)
    monkeypatch.setattr(semigroup, "_exp_stack", spy)
    fam = weakobs.sweep_alpha(s, [1.0, 2.0, 4.0, 8.0], [0.5, 1.0, 2.0, 4.0],
                              samples=60)
    assert fam.verdict == REFUTED
    assert len(set(energies)) > 1
    assert all(np.array_equal(m, a) for m, _ in calls)
    times = [t for _, chunk in calls for t in chunk]
    assert len(times) == len(set(times))


@pytest.mark.parametrize("kind", ["dense", "ill", "unobservable"])
def test_sweep_statuses_do_not_depend_on_the_first_level(kind, monkeypatch):
    # aim 3: a verdict does not hang on the quadrature's settings; two
    # first-level panels are at least 1/||A||_F wide at every T here, and
    # the soundness re-test's settings are the other coarse first level
    s = {"dense": lambda: _dense_pair("dense", n=5),
         "ill": lambda: systems.build_system(*_ill_pair()),
         "unobservable": lambda: _dense_pair("unobservable", n=5)}[kind]()
    grid = ([1.0, 2.0, 4.0, 8.0], [0.5, 1.0, 2.0, 4.0])

    def statuses(quad):
        with monkeypatch.context() as m:
            m.setattr(semigroup, "DEFAULT_QUAD", quad)
            fam = weakobs.sweep_alpha(s, *grid, samples=60)
        return [c.status for c in fam.certificates]

    fine = statuses(semigroup.DEFAULT_QUAD)
    for coarse in (semigroup.QuadratureSpec(panels=2),
                   semigroup.QuadratureSpec(panels=8, nodes_per_panel=10,
                                            rel_tol=1e-11)):
        assert statuses(coarse) == fine


def test_sweep_reduces_each_entry_once(monkeypatch):
    original = weakobs._reduce
    calls = []

    def counted(forms, eps):
        calls.append((id(forms), sorted(eps)))
        return original(forms, eps)

    monkeypatch.setattr(weakobs, "_reduce", counted)
    alphas, horizons = [1.0, 2.0, 4.0, 8.0], [0.5, 1.0, 2.0, 4.0]
    fam = weakobs.sweep_alpha(_dense_pair("dense"), alphas, horizons,
                              samples=20)
    # every bracket is finite: one common D per alpha
    assert len({(c.alpha, c.d_const) for c in fam.certificates}) == 4
    # one reduction per horizon, whose eps cover its 4 entries once each
    assert len({forms for forms, _ in calls}) == len(calls) == len(horizons)
    assert (sorted(eps for _, eps in calls)
            == sorted(sorted(c.residual for c in fam.certificates
                             if c.horizon == t) for t in horizons))


def _reduce_one_eps(forms, eps):
    """The slack reduction of one eps as a loop from the null block
    sigma <= floor on: the reference `_reduce`'s batched pass must equal."""
    sig = forms.sig
    m = forms.w_basis - eps**2 * np.eye(len(sig))
    null = sig <= forms.floor
    found = (np.inf, -np.inf)
    while True:
        keep = ~null
        lam, q = np.linalg.eigh(-m[np.ix_(null, null)])
        null_min = float(lam[0]) if lam.size else np.inf
        if null_min <= 0.0:
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
        more[keep] = -np.diag(m)[keep] * scale**2 > weakobs._KAPPA * bound
        if bound <= 0.0 or bound - h[-1] <= h[-1] / weakobs._KAPPA \
                or not more.any():
            return found
        null = null | more


@pytest.mark.parametrize("kind", ["dense", "unobservable", "deflating"])
def test_batched_reduction_equals_the_per_eps_reduction(kind, monkeypatch):
    if kind == "deflating":
        # n = 10, m = 1: at T = 2, residual-covered directions join N
        rng = np.random.default_rng(0)
        s = systems.build_system(rng.standard_normal((10, 10)) / math.sqrt(10),
                                 rng.standard_normal((10, 1)))
    else:
        s = _dense_pair(kind)
    deflated = []
    original = weakobs._deflate

    def seen(sig, m, null, found):
        deflated.append(np.isfinite(found[0]))
        return original(sig, m, null, found)

    monkeypatch.setattr(weakobs, "_deflate", seen)
    eps = [0.0, 1e-6, 1e-3, 0.1, 0.5, 1.0, 3.0]
    for horizon in (0.5, 2.0, 4.0):
        forms = weakobs.Forms.dense(s, horizon)
        assert (weakobs._reduce(forms, eps)
                == [_reduce_one_eps(forms, e) for e in eps])
        if kind == "unobservable":
            assert (forms.sig <= forms.floor).any()
    # the null block runs every eps on its own; a deflation continues the
    # batched pass
    assert {"dense": not deflated, "unobservable": deflated and
            not any(deflated), "deflating": any(deflated)}[kind]


def test_sweep_integrates_each_witness_energy_once(monkeypatch):
    calls = []

    def counted(sys, horizon, phi, quad=None, **kwargs):
        calls.append((horizon, np.asarray(phi).tobytes()))
        return semigroup.observation_energy(sys, horizon, phi, quad,
                                            **kwargs)

    monkeypatch.setattr(weakobs, "observation_energy", counted)
    fam = weakobs.sweep_alpha(_dense_pair("unobservable"),
                              [1.0, 2.0, 4.0, 8.0], [0.5, 1.0, 2.0, 4.0],
                              samples=60)
    assert fam.verdict == REFUTED
    assert calls
    assert len(calls) == len(set(calls))


def test_unobservable_direction_stays_out_of_the_gramian():
    # the quadrature Gramian is a sum of squares, so the direction v that
    # B cannot see keeps v^T G v at rounding squared even where e^{2T} is
    # large; every entry is then refuted by a stored witness
    s = _dense_pair("unobservable")
    v = np.linalg.eigh(s.a_matrix)[1][:, -1]      # the eigenvalue +1
    g = semigroup.observability_gramian(s, 4.0).matrix
    assert v @ g @ v <= 1e-13 * np.trace(g)
    fam = weakobs.sweep_alpha(s, [1.0, 2.0, 4.0, 8.0], [0.5, 1.0, 2.0, 4.0],
                              samples=60)
    assert fam.verdict == REFUTED
    for entry in fam.certificates:
        assert entry.status == REFUTED
        assert entry.witness is not None


@pytest.mark.parametrize("kind", ["dense", "unobservable"])
def test_sweep_entries_equal_check_certificate(kind):
    s = _dense_pair(kind)
    horizons = [0.5, 1.0, 2.0]
    fam = weakobs.sweep_alpha(s, [1.0, 2.0, 4.0], horizons,
                              samples=30, seed=3)
    shared = weakobs._horizons(s, horizons, 30, 3)
    if kind == "unobservable":
        assert fam.verdict == REFUTED
    for entry in fam.certificates:
        cert = WeakObsCertificate(horizon=entry.horizon, alpha=entry.alpha,
                                  d_const=entry.d_const,
                                  c_const=entry.c_const)
        alone = weakobs.check_certificate(s, cert, samples=30, seed=3)
        assert alone.status == entry.status
        assert alone.margin == entry.margin
        # the best sampled ratio of the sweep's records and of one horizon's
        assert (weakobs.optimal_d_bracket(s, entry.horizon, cert.residual,
                                          samples=30, seed=3)[0]
                == shared[entry.horizon].bracket(cert.residual)[0])
        if entry.witness is None:
            assert alone.witness is None
        else:
            assert np.array_equal(alone.witness, entry.witness)


def test_ill_pair_sweep_entries_equal_check_certificate():
    # the sweep shares one exponential table and one reduction per entry;
    # check_certificate builds its forms alone, yet every value agrees
    s = systems.build_system(*_ill_pair())
    horizons = [0.5, 1.0, 2.0, 4.0]
    fam = weakobs.sweep_alpha(s, [1.0, 2.0, 4.0, 8.0], horizons, samples=60)
    shared = weakobs._horizons(s, horizons, 60, 0)
    for entry in fam.certificates:
        d_his = [weakobs.optimal_d_bracket(s, t, math.exp(-entry.alpha * t),
                                           samples=60)[1] for t in horizons]
        assert entry.d_const == max(d_his) * 1.001 + 1e-300
        cert = WeakObsCertificate(horizon=entry.horizon, alpha=entry.alpha,
                                  d_const=entry.d_const,
                                  c_const=entry.c_const)
        alone = weakobs.check_certificate(s, cert, samples=60)
        assert alone.status == entry.status
        assert alone.d_const == entry.d_const
        assert alone.margin == entry.margin
        # the best sampled ratio of the sweep's records and of one horizon's
        assert (weakobs.optimal_d_bracket(s, entry.horizon, cert.residual,
                                          samples=60)[0]
                == shared[entry.horizon].bracket(cert.residual)[0])
        if entry.witness is None:
            assert alone.witness is None
        else:
            assert np.array_equal(alone.witness, entry.witness)


def test_discrete_sequence_picks_smallest_admissible():
    fam = weakobs.sweep_alpha(SCALAR_01, [2.0, 3.0], [0.5, 1.0, 2.0, 4.0])
    seq = weakobs.discrete_sequence(fam, 2)
    assert [e.k for e in seq] == [1, 2]
    # C = 1 makes every horizon T > ln C = 0 admissible
    assert seq[0].horizon == 0.5


def test_discrete_sequence_respects_large_residual_constant():
    fam = weakobs.sweep_alpha(SCALAR_01, [2.0], [0.5, 1.0, 2.0, 4.0],
                              residual_rule=math.exp(3.0))
    seq = weakobs.discrete_sequence(fam, 1)
    # needs e^{-2T} * e^3 <= e^{-T}, i.e. T > 3: only T = 4 qualifies
    assert seq[0].horizon == 4.0


def test_discrete_sequence_admits_every_horizon_at_zero_residual():
    # C = 0: ln C = -inf, so the smallest certified horizon is T_k
    s = systems.build_system([[0.0]], [[1.0]])
    fam = weakobs.sweep_alpha(s, [2.0, 3.0], [0.5, 1.0, 2.0],
                              residual_rule=0.0)
    assert all(c.status == CERTIFIED for c in fam.certificates)
    assert [e.horizon for e in weakobs.discrete_sequence(fam, 2)] == [0.5,
                                                                      0.5]
    result = feedback.certificate_to_feedback(s, fam, 1.0)
    assert result.certificate_chain["horizon"] == 0.5


def test_discrete_sequence_requires_certified_entries():
    fam = weakobs.sweep_alpha(systems.build_system([[0.0]], [[0.0]]),
                              [2.0], [0.5, 1.0])
    with pytest.raises(ValueError):
        weakobs.discrete_sequence(fam, 1)


def test_discrete_sequence_realizes_residual_form():
    # chain the certified entry into the e^{-k T_k} residual inequality
    fam = weakobs.sweep_alpha(SCALAR_01, [2.0], [0.5, 1.0, 2.0])
    entry = weakobs.discrete_sequence(fam, 1)[0]
    t_k = entry.horizon
    phi = np.array([1.0])
    lhs = np.linalg.norm(semigroup.propagate(SCALAR_01, t_k, phi,
                                             adjoint=True))
    energy = semigroup.observation_energy(SCALAR_01, t_k, phi)
    rhs = entry.d_const * math.sqrt(energy) + math.exp(-entry.k * t_k)
    assert lhs <= rhs * (1 + 1e-12)


def test_decisions_never_form_the_gramian(monkeypatch):
    # every verdict and the steering read R alone: G = R^T R is never built
    def unread(self):
        raise AssertionError("GramianResult.matrix was read")

    monkeypatch.setattr(semigroup.GramianResult, "matrix", property(unread))
    rng = np.random.default_rng(14)
    dense = systems.build_system(rng.standard_normal((4, 4)),
                                 rng.standard_normal((4, 1)))
    with pytest.raises(AssertionError, match="matrix was read"):
        semigroup.observability_gramian(dense, 1.0).matrix
    heat = systems.truncate(systems.point_control_heat(0.3, 5.0, 8), 8)
    cert = WeakObsCertificate(horizon=1.0, alpha=1.0, d_const=2.0,
                              c_const=1.0)
    for s in (dense, heat):
        fam = weakobs.sweep_alpha(s, [1.0, 2.0], [0.5, 1.0], samples=20)
        assert len(fam.certificates) == 4
        assert weakobs.check_certificate(s, cert, samples=20).status \
            in (CERTIFIED, REFUTED, INCONCLUSIVE)
    _, rep = feedback.concatenated_control(dense, 1.0, 1.0, math.exp(-2.0),
                                           np.ones(4), 3)
    assert len(rep.state_norms) == 4


def test_family_grid_validation():
    with pytest.raises(ValueError):
        weakobs.sweep_alpha(SCALAR_01, [], [1.0])
    with pytest.raises(ValueError):
        weakobs.CertificateFamily(alphas=(2.0, 1.0), horizons=(1.0,),
                                  certificates=(), residual_source="table")


# ---------------------------------------------------------------------------
# decision soundness (light version of the acceptance batch)
# ---------------------------------------------------------------------------

def test_refuted_witnesses_revalidate():
    rng = np.random.default_rng(33)
    refuted = 0
    for i in range(20):
        n = int(rng.integers(1, 5))
        s = systems.build_system(rng.standard_normal((n, n)),
                                 rng.standard_normal((n, 1)))
        cert = WeakObsCertificate(horizon=1.0,
                                  alpha=float(rng.uniform(0.5, 3.0)),
                                  d_const=float(rng.uniform(0.0, 0.5)),
                                  c_const=float(rng.uniform(0.1, 1.0)))
        out = weakobs.check_certificate(s, cert, samples=80, seed=i)
        if out.status == REFUTED:
            refuted += 1
            lhs, rhs = recheck_inequality(s, out, out.witness)
            assert lhs > rhs
    assert refuted >= 5
