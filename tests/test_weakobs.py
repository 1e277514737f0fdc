import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stabcert import semigroup, systems, weakobs
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
    assert mid.margin < 0 < mid.sample_margin


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
    fam_f = weakobs.sweep_alpha(SCALAR_01, [1.0], [0.5, 1.0],
                                residual_rule=lambda a: 1.0 + a)
    assert fam_f.residual_source == "formula"


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
    original = weakobs._candidate_states
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(weakobs, "_candidate_states", counted)
    horizons = [0.5, 1.0, 2.0, 4.0]
    weakobs.sweep_alpha(_dense_pair("dense"), [1.0, 2.0, 4.0, 8.0],
                        horizons, samples=20)
    assert len(calls) == len(horizons)


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


def test_sweep_energies_exponentiate_each_slice_once(monkeypatch):
    # the witness energies of every horizon share one table of A^T; A t
    # and A^T t are distinct slices except at t = 0, which both tables
    # exponentiate
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


def test_sweep_reduces_each_entry_once(monkeypatch):
    original = weakobs._reduce
    calls = []

    def counted(forms, eps):
        calls.append(eps)
        return original(forms, eps)

    monkeypatch.setattr(weakobs, "_reduce", counted)
    alphas, horizons = [1.0, 2.0, 4.0, 8.0], [0.5, 1.0, 2.0, 4.0]
    fam = weakobs.sweep_alpha(_dense_pair("dense"), alphas, horizons,
                              samples=20)
    # every bracket is finite: one common D per alpha
    assert len({(c.alpha, c.d_const) for c in fam.certificates}) == 4
    assert len(calls) == len(alphas) * len(horizons)


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
    fam = weakobs.sweep_alpha(s, [1.0, 2.0, 4.0], [0.5, 1.0, 2.0],
                              samples=30, seed=3)
    if kind == "unobservable":
        assert fam.verdict == REFUTED
    for entry in fam.certificates:
        cert = WeakObsCertificate(horizon=entry.horizon, alpha=entry.alpha,
                                  d_const=entry.d_const,
                                  c_const=entry.c_const)
        alone = weakobs.check_certificate(s, cert, samples=30, seed=3)
        assert alone.status == entry.status
        assert alone.margin == entry.margin
        assert alone.sample_margin == entry.sample_margin
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
        assert alone.sample_margin == entry.sample_margin
        if entry.witness is None:
            assert alone.witness is None
        else:
            assert np.array_equal(alone.witness, entry.witness)


def test_discrete_sequence_picks_smallest_admissible():
    fam = weakobs.sweep_alpha(SCALAR_01, [2.0, 3.0], [0.5, 1.0, 2.0, 4.0])
    seq = weakobs.discrete_sequence(fam, 2)
    assert [e.k for e in seq] == [1, 2]
    # C = 1 makes every horizon beyond t_zero = 0 admissible
    assert seq[0].horizon == 0.5


def test_discrete_sequence_respects_large_residual_constant():
    fam = weakobs.sweep_alpha(SCALAR_01, [2.0], [0.5, 1.0, 2.0, 4.0],
                              residual_rule=math.exp(3.0))
    seq = weakobs.discrete_sequence(fam, 1)
    # needs e^{-2T} * e^3 <= e^{-T}, i.e. T > 3: only T = 4 qualifies
    assert seq[0].horizon == 4.0


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


def test_family_grid_validation():
    with pytest.raises(ValueError):
        weakobs.sweep_alpha(SCALAR_01, [], [1.0])
    with pytest.raises(ValueError):
        weakobs.CertificateFamily(alphas=(2.0, 1.0), horizons=(1.0,),
                                  certificates=())


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
