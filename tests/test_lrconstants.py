import math

import numpy as np
import pytest
from scipy.linalg import expm

from stabcert import lrconstants as lrc
from stabcert import systems
from stabcert.lrconstants import SemigroupBound

E = math.e
UNIT_BOUND = SemigroupBound(m_big=1.0, delta0=0.0)


# ---------------------------------------------------------------------------
# explicit formulas
# ---------------------------------------------------------------------------

def test_spectral_route_unit_constants():
    d, c = lrc.constants_from_spectral_inequality(
        UNIT_BOUND, m_k=1.0, alpha_k=5.0, c_k=1.0, b_norm=1.0, alpha=1.0)
    assert d == pytest.approx(math.sqrt(2.0), abs=1e-15)
    assert c == pytest.approx(E * math.sqrt(3.0), abs=1e-12)
    assert c == pytest.approx(4.708202236182293, abs=1e-12)


def test_spectral_route_ck_limit():
    d, c = lrc.constants_from_spectral_inequality(
        UNIT_BOUND, m_k=2.0, alpha_k=5.0, c_k=0.0, b_norm=3.0, alpha=1.0)
    assert d == 0.0
    assert c == pytest.approx(2.0 * math.exp(1.0), abs=1e-12)


def test_spectral_route_rate_compatibility():
    with pytest.raises(ValueError):
        lrc.constants_from_spectral_inequality(
            UNIT_BOUND, m_k=1.0, alpha_k=1.0, c_k=1.0, b_norm=1.0, alpha=1.0)


def test_truncated_route_unit_constants():
    d, c = lrc.constants_from_truncated_obs(
        UNIT_BOUND, t0=1.0, c_k_t0=1.0, m_k=1.0, alpha_k=5.0, b_norm=1.0,
        alpha=1.0)
    assert d == pytest.approx(1.0, abs=1e-15)
    assert c == pytest.approx(E * math.sqrt(E**2 + 1.0), abs=1e-12)
    assert c == pytest.approx(7.873195420671004, abs=1e-12)


def test_truncated_route_ck_limit_and_t0_guard():
    d, c = lrc.constants_from_truncated_obs(
        UNIT_BOUND, t0=1.0, c_k_t0=0.0, m_k=1.0, alpha_k=5.0, b_norm=1.0,
        alpha=1.0)
    assert d == 0.0 and c == pytest.approx(E, abs=1e-12)
    with pytest.raises(ValueError):
        lrc.constants_from_truncated_obs(
            UNIT_BOUND, t0=0.0, c_k_t0=1.0, m_k=1.0, alpha_k=5.0,
            b_norm=1.0, alpha=1.0)


def test_unbounded_route_unit_constants():
    bound = SemigroupBound(m_big=1.0, delta0=1.0)
    uspec = systems.UnboundedConstantsSpec(gamma=0.25, rho0=0.0, c_gamma=1.0,
                                           b_norm=1.0)
    d, c = lrc.constants_from_truncated_obs_unbounded(
        bound, uspec, t0=1.0, c_k_t0=1.0, m_k=1.0, alpha=1.0)
    assert d == pytest.approx(E, abs=1e-12)
    assert c == pytest.approx(E**2 * math.sqrt(E**4 + 1.0), abs=1e-9)
    assert c == pytest.approx(55.095881307724554, abs=1e-9)


def test_unbounded_route_bnorm_limit():
    bound = SemigroupBound(m_big=1.0, delta0=0.0)
    uspec = systems.UnboundedConstantsSpec(gamma=0.25, rho0=0.0, c_gamma=1.0,
                                           b_norm=0.0)
    _, c = lrc.constants_from_truncated_obs_unbounded(
        bound, uspec, t0=1.0, c_k_t0=1.0, m_k=1.5, alpha=1.0)
    assert c == pytest.approx(1.5 * E, abs=1e-12)


def test_unbounded_gamma_range_enforced():
    with pytest.raises(ValueError):
        systems.UnboundedConstantsSpec(gamma=0.5, rho0=0.0, c_gamma=1.0,
                                       b_norm=1.0)


def test_admissibility_constant():
    uspec = systems.UnboundedConstantsSpec(gamma=0.25, rho0=0.0, c_gamma=1.0,
                                           b_norm=1.0)
    assert lrc.admissibility_constant(uspec, 1.0) == pytest.approx(2.0)
    assert lrc.admissibility_constant(uspec, 1e-9) < 1e-4
    near_half = systems.UnboundedConstantsSpec(gamma=0.4995, rho0=0.0,
                                               c_gamma=1.0, b_norm=1.0)
    with pytest.raises(ValueError):
        lrc.admissibility_constant(near_half, 1.0)


def test_formulas_monotone_in_alpha():
    alphas = np.linspace(0.5, 6.0, 12)
    prev = (0.0, 0.0)
    for a in alphas:
        d, c = lrc.constants_from_spectral_inequality(
            UNIT_BOUND, 1.0, 50.0, 1.0, 1.0, a)
        assert d >= prev[0] - 1e-15 and c >= prev[1]
        prev = (d, c)
    prev = (0.0, 0.0)
    for a in alphas:
        d, c = lrc.constants_from_truncated_obs(
            UNIT_BOUND, 0.5, 1.0, 1.0, 50.0, 1.0, a)
        assert d >= prev[0] - 1e-15 and c >= prev[1]
        prev = (d, c)


# ---------------------------------------------------------------------------
# fitted semigroup bound
# ---------------------------------------------------------------------------

def test_fitted_bound_on_stable_diagonal():
    s = systems.build_system(np.diag([-1.0, -2.0]), np.ones((2, 1)))
    bound = lrc.fit_semigroup_bound(s)
    assert bound.m_big == pytest.approx(1.0, rel=1e-9)
    assert bound.delta0 == pytest.approx(0.0, abs=1e-8)
    assert lrc.verify_semigroup_bound(s, bound,
                                      np.linspace(0, 10, 50)) <= 1.0


def test_fitted_bound_on_transient_growth():
    s = systems.build_system(np.array([[-1.0, 4.0], [0.0, -1.0]]),
                             np.ones((2, 1)))
    bound = lrc.fit_semigroup_bound(s)
    assert bound.m_big > 1.0          # non-normal transient needs M > 1
    assert lrc.verify_semigroup_bound(s, bound,
                                      np.linspace(0, 10, 97)) <= 1.0


def test_fitted_bound_equals_per_time_loop(grid_norm_oracle):
    # delta0 is exact; M's grid norms come from doubling, so it is held
    # to a 40-digit oracle, and the bound check stays the per-time loop
    rng = np.random.default_rng(3)
    a = rng.standard_normal((6, 6)) / math.sqrt(6)
    s = systems.build_system(a, rng.standard_normal((6, 2)))
    delta0 = max(0.0, float(np.linalg.eigvals(a).real.max())) + 1e-9
    m_big = max(1.0, max(norm * math.exp(-delta0 * t) for t, norm in zip(
        np.linspace(0.0, 10.0, 200), grid_norm_oracle(a, 10.0, 200))))
    bound = lrc.fit_semigroup_bound(s)
    assert bound.delta0 == delta0
    assert bound.m_big == pytest.approx(m_big * (1.0 + 1e-12), rel=1e-13)
    grid = [0.0, 0.3, 1.7, 5.0, 9.25]
    worst = 0.0
    for t in grid:
        worst = max(worst, np.linalg.norm(expm(a * t), 2)
                    / (bound.m_big * math.exp(bound.delta0 * t)))
    assert lrc.verify_semigroup_bound(s, bound, grid) == worst


def test_fit_validates_its_grid():
    s = systems.build_system(np.array([[-1.0]]), np.ones((1, 1)))
    with pytest.raises(ValueError, match="grid"):
        lrc.fit_semigroup_bound(s, n_grid=0)


def test_bound_validation():
    with pytest.raises(ValueError):
        SemigroupBound(m_big=0.5, delta0=0.0)
    with pytest.raises(ValueError):
        SemigroupBound(m_big=1.0, delta0=-0.1)


# ---------------------------------------------------------------------------
# spectral-inequality constants
# ---------------------------------------------------------------------------

def _family(spec, k_max):
    return systems.spectral_projection_family(spec, k_max=k_max)


def test_spectral_constant_identity_sensor():
    spec = systems.SpectralSystem(-np.arange(1.0, 5.0), np.eye(4))
    fam = _family(spec, 3)
    for k in fam.ks:
        assert lrc.estimate_spectral_constant(spec, fam, k) == 1.0


def test_spectral_constant_blind_mode_is_infinite():
    spec = systems.point_control_heat(0.5, 0.0, 6)
    fam = systems.spectral_projection_family(
        spec, cut_rule=lambda k: (k * np.pi) ** 2 + 1e-9, k_max=4)
    assert math.isfinite(lrc.estimate_spectral_constant(spec, fam, 1))
    for k in (2, 3, 4):
        assert lrc.estimate_spectral_constant(spec, fam, k) == math.inf


def test_spectral_constant_scalar_reciprocal():
    spec = systems.SpectralSystem(np.array([-1.0]), np.array([[0.5]]))
    fam = systems.ProjectionFamily(ks=(1,), mode_counts=(1,), m_k=(1.0,),
                                   alpha_k=(math.inf,))
    assert lrc.estimate_spectral_constant(spec, fam, 1) == pytest.approx(2.0)


def test_spectral_constant_antitone_in_sensors():
    rng = np.random.default_rng(4)
    lam = -np.arange(1.0, 6.0)
    rows = rng.standard_normal((5, 1))
    extra = rng.standard_normal((5, 1))
    spec1 = systems.SpectralSystem(lam, rows)
    spec2 = systems.SpectralSystem(lam, np.hstack([rows, extra]))
    fam = _family(spec1, 4)
    for k in fam.ks:
        c1 = lrc.estimate_spectral_constant(spec1, fam, k)
        c2 = lrc.estimate_spectral_constant(spec2, fam, k)
        assert c2 <= c1 * (1 + 1e-12)


def test_attach_spectral_constants():
    spec = systems.SpectralSystem(-np.arange(1.0, 5.0), np.eye(4))
    fam = lrc.attach_spectral_constants(spec, _family(spec, 3))
    assert fam.c_k == (1.0, 1.0, 1.0)


# ---------------------------------------------------------------------------
# Fattorini distances
# ---------------------------------------------------------------------------

def test_fattorini_empty_pool_is_norm():
    lam = [2.0]
    d = lrc.fattorini_distance(lam, 1.0, 1, [])
    assert d == pytest.approx(math.sqrt((1 - math.exp(-4.0)) / 4.0),
                              abs=1e-14)


def test_fattorini_two_rates_schur_form():
    d = lrc.fattorini_distance([1.0, 2.0], 1.0, 1, [2])
    g11 = (1 - math.exp(-2.0)) / 2.0
    g12 = (1 - math.exp(-3.0)) / 3.0
    g22 = (1 - math.exp(-4.0)) / 4.0
    assert d**2 == pytest.approx(g11 - g12**2 / g22, abs=1e-14)
    assert d**2 == pytest.approx(0.02355438850376701, abs=1e-14)


def test_fattorini_duplicate_rate_gives_zero():
    d = lrc.fattorini_distance([1.0, 1.0], 1.0, 1, [2])
    assert d <= 1e-7


def test_fattorini_pool_growth_shrinks_distance():
    rates = [1.0, 2.0, 3.5, 5.0]
    d0 = lrc.fattorini_distance(rates, 1.0, 1, [])
    d1 = lrc.fattorini_distance(rates, 1.0, 1, [2])
    d2 = lrc.fattorini_distance(rates, 1.0, 1, [2, 3])
    d3 = lrc.fattorini_distance(rates, 1.0, 1, [2, 3, 4])
    assert d0 >= d1 >= d2 >= d3 > 0


def test_fattorini_validation():
    with pytest.raises(ValueError):
        lrc.fattorini_distance([1.0, -1.0], 1.0, 1, [2])
    with pytest.raises(ValueError):
        lrc.fattorini_distance([1.0, 2.0], 1.0, 1, [1, 2])


def test_fattorini_ill_conditioned_flagged():
    # nearly coincident pool rates drive the Gram condition number over
    rates = [1.0] + [2.0 + i * 1e-12 for i in range(6)]
    with pytest.raises(lrc.IllConditionedGramError) as err:
        lrc.fattorini_distance(rates, 1.0, 1, [2, 3, 4, 5, 6, 7])
    assert err.value.condition > 1e14


# ---------------------------------------------------------------------------
# point-heat truncated observability constant
# ---------------------------------------------------------------------------

def test_point_heat_constant_single_mode():
    x0 = 1.0 / math.sqrt(2.0)
    t0 = 1.0
    lam1 = math.pi**2
    d1 = lrc.fattorini_distance([lam1], t0, 1, [])
    expected = math.exp(-2.0 * lam1 * t0) / (d1**2
                                             * math.sin(math.pi * x0) ** 2)
    got = lrc.point_heat_truncated_obs_constant(x0, 0.0, 1, t0)
    assert got == pytest.approx(expected, rel=1e-12)


def test_point_heat_constant_refuses_vanishing_mode():
    with pytest.raises(lrc.ModeVanishesError) as err:
        lrc.point_heat_truncated_obs_constant(0.5, 0.0, 2, 1.0)
    assert err.value.mode == 2
    assert "j=2" in str(err.value)


def test_point_heat_constant_empty_sum():
    assert lrc.point_heat_truncated_obs_constant(0.3, 0.0, 0, 1.0) == 0.0


def test_point_heat_constant_guards():
    with pytest.raises(ValueError):
        lrc.point_heat_truncated_obs_constant(0.3, 0.0, 9, 1.0)  # pool cap
    with pytest.raises(ValueError):
        # mode 1 has (pi)^2 - c <= 0: outside the decay regime
        lrc.point_heat_truncated_obs_constant(0.3, 12.0, 1, 1.0)


def test_pick_family_entry():
    spec = systems.point_control_heat(0.3, 5.0, 12)
    fam = systems.spectral_projection_family(
        spec, cut_rule=lambda k: (k * np.pi) ** 2 - 5.0 + 1e-9, k_max=4)
    assert lrc.pick_family_entry(fam, 2.0) == 1
    assert lrc.pick_family_entry(fam, 40.0) == 2
    with pytest.raises(ValueError):
        lrc.pick_family_entry(fam, 1e6)
