import math

import numpy as np
import pytest

from stabcert import periodic, weakobs
from stabcert.periodic import PeriodicSystem


@pytest.fixture(scope="module")
def bench10():
    return periodic.build_multiplexed_system(10)


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------

def test_alpha_partial_sum(bench10):
    ks = np.arange(1.0, 13.0)
    expected = np.exp(-ks**2).sum()
    assert bench10.alpha_series == expected
    assert abs(bench10.alpha_series - 0.3863186) <= 5e-8


def test_tau_values(bench10):
    taus = bench10.switch_times
    assert taus[0] == 1.0                       # telescoping, exact
    alpha = bench10.alpha_series
    assert taus[1] == pytest.approx(1.0 - math.exp(-1.0) / alpha, abs=1e-14)
    assert all(b < a for a, b in zip(taus, taus[1:]))
    assert all(t > 0 for t in taus)


def test_decay_rates_are_one_to_n(bench10):
    assert np.array_equal(bench10.a_diag, -np.arange(1.0, 11.0))


def test_windows_cover_heads_of_period(bench10):
    for n, (lo, hi) in enumerate(bench10.windows, start=1):
        assert lo == bench10.switch_times[n]
        assert hi == bench10.switch_times[n - 1]


def test_series_terms_guard():
    with pytest.raises(ValueError):
        periodic.build_multiplexed_system(11, series_terms=12)


def test_periodic_system_validation():
    with pytest.raises(ValueError):
        PeriodicSystem(period=1.0, a_diag=np.array([-1.0]),
                       windows=((0.0, 1.5),))
    with pytest.raises(ValueError):
        PeriodicSystem(period=1.0, a_diag=np.array([-1.0]),
                       windows=((0.0, 1.0),), switch_times=(0.9, 0.5))


# ---------------------------------------------------------------------------
# observation energies
# ---------------------------------------------------------------------------

def test_energy_single_mode_closed_form(bench10):
    # integrate e^{-2n(1-t)} over the mode's window, one period
    for n in (1, 2, 4):
        lo, hi = bench10.windows[n - 1]
        expected = (math.exp(-2 * n * (1 - hi))
                    - math.exp(-2 * n * (1 - lo))) / (2 * n)
        got = periodic.periodic_observation_energy(bench10, 1,
                                                   np.eye(10)[n - 1])
        assert got == pytest.approx(expected, rel=1e-12)


def test_energy_zero_state(bench10):
    assert periodic.periodic_observation_energy(bench10, 1,
                                                np.zeros(10)) == 0.0


def test_energy_dimension_guard(bench10):
    with pytest.raises(ValueError):
        periodic.periodic_observation_energy(bench10, 1, np.ones(11))


@pytest.mark.parametrize("energy", [
    periodic.periodic_observation_energy,
    periodic.periodic_observation_energy_quadrature],
    ids=["closed-form", "quadrature"])
@pytest.mark.parametrize("periods, size, message", [
    (1, 3, "does not match"),
    (1, 6, "does not match"),
    (1, 1, "does not match"),
    (0, 4, "at least one period")],
    ids=["short", "long", "length-1", "zero-periods"])
def test_energies_reject_a_bad_horizon_or_state(energy, periods, size,
                                                message):
    # both energies run one check; a length-1 state would otherwise
    # broadcast across the quadrature's (modes x nodes) array
    sys4 = periodic.build_multiplexed_system(4)
    with pytest.raises(ValueError, match=message):
        energy(sys4, periods, np.ones(size))


def test_energy_closed_form_vs_quadrature(bench10):
    rng = np.random.default_rng(1)
    for _ in range(50):
        psi = rng.standard_normal(10)
        m = int(rng.integers(1, 4))
        closed = periodic.periodic_observation_energy(bench10, m, psi)
        quad = periodic.periodic_observation_energy_quadrature(bench10, m,
                                                               psi)
        assert quad == pytest.approx(closed, rel=1e-9)


def test_energy_mode_four_paper_bound(bench10):
    energy = periodic.periodic_observation_energy(bench10, 1, np.eye(10)[3])
    assert energy <= 2.0 / bench10.alpha_series * math.exp(-16.0)


def test_energies_and_check_scale_with_the_period():
    # period 2, observed over the whole period: one period's energy of
    # e^{-(2 - t)} is (1 - e^{-4})/2 = 0.4908, not the unit period's 0.4323
    sys2 = PeriodicSystem(period=2.0, a_diag=np.array([-1.0]),
                          windows=((0.0, 1.0),))
    due = (1.0 - math.exp(-4.0)) / 2.0
    assert due == pytest.approx(0.4908, abs=1e-4)
    assert periodic.periodic_observation_energy(sys2, 1, [1.0]) == \
        pytest.approx(due, rel=1e-14)
    assert periodic.periodic_observation_energy_quadrature(sys2, 1, [1.0]) \
        == pytest.approx(due, rel=1e-10)
    assert periodic.periodic_observation_energy(sys2, 3, [1.0]) == \
        pytest.approx((1.0 - math.exp(-12.0)) / 2.0, rel=1e-14)
    # k = 2 over one period: eps^2 = e^{-8} and w = e^{-4}, so the smallest
    # D is sqrt((w - eps^2)/g) = sqrt(2) e^{-2} = 0.1914; a unit-period g
    # would make it 0.2039 and leave D = 0.195 unproven
    cert = periodic.periodic_weakobs_check(sys2, 2, 1, 0.195)
    assert cert.status == weakobs.CERTIFIED
    assert cert.margin == pytest.approx(0.195**2 - 2.0 * math.exp(-4.0),
                                        rel=1e-12)


def test_energy_undamped_mode_limit():
    sys0 = PeriodicSystem(period=1.0, a_diag=np.array([0.0]),
                          windows=((0.25, 0.75),))
    assert periodic.periodic_observation_energy(sys0, 3, [2.0]) == \
        pytest.approx(4.0 * 3 * 0.5, rel=1e-12)


# ---------------------------------------------------------------------------
# null-controllability refutation witness
# ---------------------------------------------------------------------------

def test_witness_headline_numbers(bench10):
    n, lhs, rhs = periodic.noncontrollability_witness(bench10, 1, 10.0)
    assert n == 4
    assert lhs == pytest.approx(math.exp(-4.0), abs=1e-15)
    assert rhs == pytest.approx(9.885386626935562e-05, rel=1e-9)
    assert lhs > rhs


def test_witness_grid_all_strict(bench10):
    for m in (1, 2, 3):
        for big_c in (2.0, 10.0, 100.0):
            n, lhs, rhs = periodic.noncontrollability_witness(bench10, m,
                                                              big_c)
            assert lhs > rhs, (m, big_c, n)


def test_witness_monotone_in_constant(bench10):
    for m in (1, 2, 3):
        ns = [periodic.noncontrollability_witness(bench10, m, c)[0]
              for c in (2.0, 10.0, 100.0)]
        assert ns == sorted(ns)


def test_witness_small_constant_limit(bench10):
    n, _, _ = periodic.noncontrollability_witness(bench10, 1, 1.0 + 1e-12)
    assert n == 3


def test_witness_auto_extends_truncation():
    small = periodic.build_multiplexed_system(3)
    n, lhs, rhs = periodic.noncontrollability_witness(small, 1, 10.0)
    assert n == 4 and lhs > rhs


def test_witness_requires_constant_above_one(bench10):
    with pytest.raises(ValueError):
        periodic.noncontrollability_witness(bench10, 1, 1.0)


# ---------------------------------------------------------------------------
# stabilizability certificates
# ---------------------------------------------------------------------------

def test_benchmark_certificate_k1(bench10):
    cert = periodic.multiplexed_stabilizability_check(bench10, 1)
    assert cert.status == weakobs.CERTIFIED
    assert cert.d_const == pytest.approx(
        math.sqrt(bench10.alpha_series) * math.exp(0.5), abs=1e-12)
    assert cert.d_const == pytest.approx(1.0247550131303769, abs=1e-12)
    assert cert.margin > 0


def test_benchmark_certificates_k1_to_k5(bench10):
    for k in range(1, 6):
        cert = periodic.multiplexed_stabilizability_check(bench10, k)
        assert cert.status == weakobs.CERTIFIED, f"k={k}"
        # the key fact e^{k^2} a_n >= 1 for n <= k, with equality at n = k
        key = [math.exp(k**2 - n**2) for n in range(1, k + 1)]
        assert all(v >= 1.0 for v in key)
        assert key[-1] == 1.0


@pytest.mark.parametrize("k, n_k, c_k", [(1, 1, 1.5), (2, 3, 0.25),
                                         (3, 2, 40.0)])
def test_periodic_certificate_is_a_weakobs_certificate(bench10, k, n_k,
                                                       c_k):
    cert = periodic.periodic_weakobs_check(bench10, k, n_k, c_k)
    assert isinstance(cert, weakobs.WeakObsCertificate)
    assert cert.alpha == k
    assert cert.horizon == n_k * bench10.period
    assert cert.c_const == 1.0
    assert cert.d_const == c_k
    assert cert.residual == math.exp(-k * n_k * bench10.period)
    assert cert.status in (weakobs.CERTIFIED, weakobs.REFUTED,
                           weakobs.INCONCLUSIVE)


def test_tail_mode_covered_by_residual(bench10):
    # the mode just past the certificate index is carried by the e^{-k}
    # residual alone: its margin c_k^2 g_n + e^{-2k} - w_n stays positive
    # even with zero energy
    k = 3
    cert = periodic.multiplexed_stabilizability_check(bench10, k)
    assert cert.status == weakobs.CERTIFIED
    g = np.array([periodic.periodic_observation_energy(bench10, 1, e)
                  for e in np.eye(bench10.n)])
    w = np.exp(2.0 * bench10.a_diag)
    margins = cert.d_const**2 * g + math.exp(-2 * k) - w
    assert np.all(margins > 0)
    assert margins[k] >= math.exp(-2 * k) - math.exp(-2 * (k + 1))


def test_generic_checker_full_observation():
    sys1 = PeriodicSystem(period=1.0, a_diag=-np.ones(3),
                          windows=((0.0, 1.0),) * 3)
    cert = periodic.periodic_weakobs_check(sys1, 1, 1, 1.0)
    assert cert.status == weakobs.CERTIFIED


def test_generic_checker_refutes_unobserved_undamped():
    sys0 = PeriodicSystem(period=1.0, a_diag=np.array([0.0]),
                          windows=((0.3, 0.3),))
    cert = periodic.periodic_weakobs_check(sys0, 1, 1, 5.0)
    assert cert.status == weakobs.REFUTED
    assert cert.witness is not None


@pytest.mark.parametrize("samples, seed", [(100, 0), (40, 3)])
def test_periodic_record_scores_the_dense_candidate_rule(bench10, samples,
                                                         seed, monkeypatch):
    # the periodic check scores the states every dense horizon scores, and
    # its Gaussians are the first draws of default_rng(seed), as before
    records = []

    class Recorded(weakobs.HorizonInputs):
        def __init__(self, *args):
            super().__init__(*args)
            records.append(self)

    monkeypatch.setattr(periodic, "HorizonInputs", Recorded)
    periodic.multiplexed_stabilizability_check(bench10, 2, samples=samples,
                                               seed=seed)
    (record,) = records
    rule = weakobs.candidate_states(
        record.forms, weakobs.shared_states(bench10.n, samples, seed))
    assert record.states.tobytes() == rule.tobytes()
    gauss = np.random.default_rng(seed).standard_normal((samples, bench10.n))
    np.testing.assert_allclose(
        record.states[:samples],
        gauss / np.linalg.norm(gauss, axis=1)[:, None], rtol=1e-15)
    assert np.allclose(np.linalg.norm(record.states, axis=1), 1.0)


def test_benchmark_delegates_to_generic(bench10):
    k = 2
    c_k = math.sqrt(bench10.alpha_series) * math.exp(k**2 / 2.0)
    direct = periodic.periodic_weakobs_check(bench10, k, 1, c_k)
    wrapped = periodic.multiplexed_stabilizability_check(bench10, k)
    assert direct.witness is None and wrapped.witness is None
    assert direct == wrapped
