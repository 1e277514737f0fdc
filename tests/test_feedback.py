import gc
import math
import types

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.linalg import expm, solve_continuous_are

from stabcert import (feedback, lrconstants, semigroup, systems,
                      verification, weakobs)
from stabcert._quadrature import integrate_adaptive
from stabcert.semigroup import observability_gramian

from oracles import per_node, tikhonov_root_mp, van_loan_gramian_mp

SCALAR_01 = systems.build_system([[0.0]], [[1.0]])


def _control_at(sys, signal, t):
    """u(t) = -B^T e^{A^T (t_stop - t)} eta on the segment holding t; the
    last segment holds its stop time, and u = 0 outside the signal."""
    for seg in signal.segments:
        if seg.t_start <= t < seg.t_stop or (t == seg.t_stop
                                             and seg is signal.segments[-1]):
            back = semigroup.transition_matrix(sys, seg.t_stop - t,
                                               adjoint=True)
            return -(sys.b_matrix.T @ back @ seg.eta)
    return np.zeros(sys.m)


def simulate_terminal(sys, signal, y0, horizon):
    def rhs(t, y):
        return sys.a_matrix @ y + sys.b_matrix @ _control_at(sys, signal, t)

    sol = solve_ivp(rhs, [0.0, horizon], np.asarray(y0, dtype=float),
                    rtol=1e-11, atol=1e-13)
    return sol.y[:, -1]


# ---------------------------------------------------------------------------
# shifted Riccati synthesis
# ---------------------------------------------------------------------------

def test_scalar_riccati_closed_form():
    res = feedback.solve_shifted_riccati(SCALAR_01, 1.0)
    root2 = math.sqrt(2.0)
    assert res.riccati_p[0, 0] == pytest.approx(1.0 + root2, abs=1e-10)
    assert res.gain_k[0, 0] == pytest.approx(-(1.0 + root2), abs=1e-10)
    assert res.measured_rate == pytest.approx(1.0 + root2, abs=1e-10)
    # the shifted loop decays at exactly sqrt(2)
    assert res.measured_rate - res.mu == pytest.approx(root2, abs=1e-10)
    assert res.residual <= 1e-12


def test_scalar_lyapunov_case():
    res = feedback.solve_shifted_riccati(
        systems.build_system([[-3.0]], [[0.0]]), 1.0)
    assert res.riccati_p[0, 0] == pytest.approx(0.25, abs=1e-12)
    assert res.gain_k[0, 0] == 0.0
    assert res.measured_rate == pytest.approx(3.0, abs=1e-12)


def test_unstabilizable_mode_reported():
    with pytest.raises(feedback.UnstabilizableError) as err:
        feedback.solve_shifted_riccati(systems.build_system([[0.0]], [[0.0]]),
                                       1.0)
    assert err.value.eigenvalue.real >= 0.9


def _pbh_every_eigenvalue(a_shift, b):
    """Reference PBH test: one pencil SVD per eigenvalue, conjugates too."""
    n = a_shift.shape[0]
    scale = max(np.linalg.norm(a_shift, 2) + np.linalg.norm(b, 2), 1.0)
    for lam in np.linalg.eigvals(a_shift):
        if lam.real < -1e-9 * scale:
            continue
        pencil = np.hstack([lam * np.eye(n) - a_shift, b.astype(complex)])
        if np.linalg.svd(pencil, compute_uv=False)[-1] <= 1e-10 * scale:
            return lam
    return None


def _hidden_rotation(rng, n=6, coupling=0.0):
    """Dense pair whose unstable eigenvalues 0.5 +- 2i B cannot reach, or
    reaches through a block of size `coupling`."""
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    block = np.zeros((n, n))
    block[:2, :2] = [[0.5, 2.0], [-2.0, 0.5]]
    block[2:, 2:] = rng.standard_normal((n - 2, n - 2))
    # block lower triangular in q's basis: q[:, :2] spans a left
    # invariant subspace, and B has no component in it
    block[2:, :2] = rng.standard_normal((n - 2, 2))
    b = np.zeros((n, 2))
    b[2:] = rng.standard_normal((n - 2, 2))
    if coupling:
        b[:2] = coupling * rng.standard_normal((2, 2))
    return systems.build_system(q @ block @ q.T, q @ b)


@pytest.mark.parametrize("kind", ["dense", "unobservable", "rotation"])
def test_pbh_skips_conjugates_without_changing_the_answer(kind):
    rng = np.random.default_rng(["dense", "unobservable",
                                 "rotation"].index(kind))
    for _ in range(10):
        if kind == "dense":
            n = int(rng.integers(2, 9))
            s = systems.build_system(rng.standard_normal((n, n)),
                                     rng.standard_normal((n, 1 + n % 2)))
        elif kind == "unobservable":
            s = verification._unobservable_unstable(rng)
        else:
            s = _hidden_rotation(rng)
        for mu in (1.0, 2.0, 4.0):
            a_shift = s.a_matrix + mu * np.eye(s.n)
            got = feedback._pbh_offender(s, mu)
            want = _pbh_every_eigenvalue(a_shift, s.b_matrix)
            assert (got is None) == (want is None)
            assert got is None or got == want
            if kind != "dense":
                assert got is not None


def _pencil_svds(monkeypatch):
    """Count the batched (3-d) SVDs: the pencils' fallback."""
    calls = []
    svd = np.linalg.svd

    def spy(a, *args, **kwargs):
        if np.ndim(a) == 3:
            calls.append(len(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", spy)
    return calls


def _coupled_hidden_mode(rng, kind, delta):
    """A pair whose unstable modes B reaches only through a coupling of
    size delta along their left invariant subspace."""
    if kind == "rotation":
        return _hidden_rotation(rng, coupling=delta)
    s = verification._unobservable_unstable(rng)
    # A is symmetric, and +1 is its largest eigenvalue
    v = np.linalg.eigh(s.a_matrix)[1][:, -1]
    return systems.build_system(
        s.a_matrix, s.b_matrix + delta * np.outer(v, rng.standard_normal(2)))


@pytest.mark.parametrize("kind", ["real", "rotation"])
def test_pbh_screen_gives_the_reference_answer(kind, monkeypatch):
    # across the threshold 1e-10 scale: the pair's Cholesky screen decides
    # far from it, the shifted SVD near it and below
    rng = np.random.default_rng(["real", "rotation"].index(kind))
    calls = _pencil_svds(monkeypatch)
    outcomes = set()
    for _ in range(6):
        for delta in 10.0 ** np.arange(-16, 1):
            s = _coupled_hidden_mode(rng, kind, delta)
            for mu in (0.0, 1.0, 4.0):
                a_shift = s.a_matrix + mu * np.eye(s.n)
                before = len(calls)
                got = feedback._pbh_offender(s, mu)
                want = _pbh_every_eigenvalue(a_shift, s.b_matrix)
                assert (got is None) == (want is None)
                assert got is None or got == want
                outcomes.add((len(calls) > before, got is None))
    assert outcomes == {(False, True), (True, True), (True, False)}


def test_pbh_screen_takes_no_svd_on_a_controllable_pair(monkeypatch):
    rng = np.random.default_rng(5)
    calls = _pencil_svds(monkeypatch)
    for n in (5, 10, 20):
        s = systems.build_system(rng.standard_normal((n, n)) / math.sqrt(n),
                                 rng.standard_normal((n, 2)))
        for mu in (1.0, 2.0, 4.0):
            assert feedback._pbh_offender(s, mu) is None
    assert calls == []
    s = verification._unobservable_unstable(rng)
    assert feedback._pbh_offender(s, 1.0) is not None
    assert len(calls) == 1


def _jordan_pair(rng, size, lam, delta):
    """Dense pair holding a Jordan block of `size` at lam that B reaches
    only through the chain's last row, at size delta."""
    n = size + 2
    block = np.zeros((n, n))
    block[:size, :size] = lam * np.eye(size) + np.eye(size, k=1)
    block[size:, size:] = rng.standard_normal((2, 2))
    # block lower triangular: e_size is the block's left eigenvector
    block[size:, :size] = rng.standard_normal((2, size))
    b = np.zeros((n, 2))
    b[size - 1] = delta * rng.standard_normal(2)
    b[size:] = rng.standard_normal((2, 2))
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return systems.build_system(q @ block @ q.T, q @ b)


def _graded_pair(rng, n, delta):
    """Upper triangular A graded over n decades, whose last mode B
    reaches at size delta."""
    grade = 10.0 ** -np.arange(n)
    a = np.triu(rng.standard_normal((n, n))) * np.sqrt(np.outer(grade, grade))
    b = rng.standard_normal((n, 2))
    b[-1] *= delta
    return systems.build_system(a, b)


def _adversarial_pairs(rng):
    """Pairs whose PBH answer sits near the threshold: Jordan blocks up to
    size 8, modes B reaches at 1e-14 .. 1e-2, graded triangular A."""
    for delta in 10.0 ** np.arange(-14, -1):
        for size in range(2, 9):
            for lam in (-2.0, 0.3):
                yield _jordan_pair(rng, size, lam, delta)
        for n in (4, 8):
            yield _graded_pair(rng, n, delta)
        for kind in ("real", "rotation"):
            yield _coupled_hidden_mode(rng, kind, delta)


def test_a_pbh_screen_pass_agrees_with_the_shifted_test(monkeypatch):
    # a pass of the pair's screen skips the shifted SVD: the skipped test
    # must have found no offender, and a failed screen leaves the answer,
    # eigenvalue and all, to the shifted test
    rng = np.random.default_rng(27)
    calls = _pencil_svds(monkeypatch)
    outcomes = set()
    for s in _adversarial_pairs(rng):
        for mu in (0.5, 1.0, 2.0, 4.0):
            before = len(calls)
            got = feedback._pbh_offender(s, mu)
            want = _pbh_every_eigenvalue(s.a_matrix + mu * np.eye(s.n),
                                         s.b_matrix)
            assert (got is None) == (want is None)
            assert got is None or got == want
            outcomes.add((len(calls) == before, want is None))
    # the corpus reaches both sides of the screen and of the threshold
    assert outcomes == {(True, True), (False, True), (False, False)}


def test_a_pair_forms_its_pbh_pencils_once(monkeypatch):
    # the envelope fit and three rates read one record: A's eigenvalues
    # and the pencil Grams are formed once, and no pencil SVD runs
    rng = np.random.default_rng(5)
    s = systems.build_system(rng.standard_normal((5, 5)) / math.sqrt(5),
                             rng.standard_normal((5, 2)))
    eigvals, records, shifted = [], [], []
    real_eigvals, real_record = np.linalg.eigvals, systems.PairSpectrum

    def eigvals_spy(m):
        if np.array_equal(m, s.a_matrix):
            eigvals.append(1)
        if any(np.array_equal(m, s.a_matrix + mu * np.eye(5))
               for mu in (1.0, 2.0, 4.0)):
            shifted.append(1)
        return real_eigvals(m)

    def record_spy(**fields):
        records.append(1)
        return real_record(**fields)

    monkeypatch.setattr(np.linalg, "eigvals", eigvals_spy)
    monkeypatch.setattr(systems, "PairSpectrum", record_spy)
    svds = _pencil_svds(monkeypatch)
    lrconstants.fit_semigroup_bound(s)
    for mu in (1.0, 2.0, 4.0):
        assert feedback.solve_shifted_riccati(s, mu).measured_rate > mu
    assert (eigvals, records, shifted, svds) == ([1], [1], [], [])


def test_a_failed_screen_leaves_the_answer_to_the_shifted_test(
        monkeypatch):
    # B = e_2 cannot reach the mode -3: the screen fails at every rate,
    # and the shifted test flags the mode only where mu moves it past 0
    s = systems.build_system([[-3.0, 0.0], [0.0, -0.5]], [[0.0], [1.0]])
    calls = _pencil_svds(monkeypatch)
    for mu in (1.0, 2.0, 4.0):
        got = feedback._pbh_offender(s, mu)
        assert got == _pbh_every_eigenvalue(s.a_matrix + mu * np.eye(2),
                                             s.b_matrix)
    assert len(calls) == 3
    res = feedback.solve_shifted_riccati(s, 1.0)
    assert res.measured_rate == pytest.approx(1.0 + math.sqrt(1.25),
                                              rel=1e-12)
    with pytest.raises(feedback.UnstabilizableError) as err:
        feedback.solve_shifted_riccati(s, 4.0)
    assert err.value.eigenvalue == 1.0


# a 45-degree rotation of diag(-1 - 3.1e-9, 1) whose mode -1 - 3.1e-9 B
# cannot reach: PBH passes at mu = 1, but that mode puts the shifted
# Hamiltonian's eigenvalues +-3.1e-9 so near the imaginary axis that they
# come out as a pair with real part about +2e-16, and the ordered Schur
# form finds one stable eigenvalue, not two
NEAR_SPLIT = systems.build_system(
    [[-1.550000105876432e-09, -1.00000000155],
     [-1.00000000155, -1.5499998378448836e-09]],
    [[-0.7071067811865475], [0.7071067811865476]])


def test_a_hamiltonian_that_does_not_split_names_no_eigenvalue():
    assert feedback._pbh_offender(NEAR_SPLIT, 1.0) is None
    with pytest.raises(np.linalg.LinAlgError,
                       match=r"^hamiltonian splits into sdim = 1 stable and "
                             r"3 unstable eigenvalues, not n = 2 each"):
        feedback.solve_shifted_riccati(NEAR_SPLIT, 1.0)


def test_dense_riccati_invariants():
    rng = np.random.default_rng(17)
    for mu in (0.5, 1.0, 3.0):
        for _ in range(5):
            n = int(rng.integers(2, 7))
            s = systems.build_system(rng.standard_normal((n, n)),
                                     rng.standard_normal((n, 2)))
            res = feedback.solve_shifted_riccati(s, mu)
            p = res.riccati_p
            assert np.abs(p - p.T).max() <= 1e-10 * max(np.abs(p).max(), 1)
            assert np.linalg.eigvalsh(p).min() >= -1e-10 * np.abs(p).max()
            assert res.residual <= 1e-8 * (1.0 + np.linalg.norm(p) ** 2)
            a_cl = s.a_matrix + s.b_matrix @ res.gain_k
            assert np.max(np.linalg.eigvals(a_cl).real) <= -mu + 1e-8


def test_missed_rate_is_reported_before_the_overshoot_grid():
    # the synthesized loop misses mu = 2 (rate about -4.97); the miss
    # must be named, whatever the later checks on P would say
    rng = np.random.default_rng([11, 2])
    s = systems.build_system(rng.standard_normal((20, 20)) / math.sqrt(20),
                             rng.standard_normal((20, 2)))
    with pytest.raises(RuntimeError, match="missed the target"):
        feedback.solve_shifted_riccati(s, 2.0)


def test_riccati_matches_scipy_reference():
    rng = np.random.default_rng(8)
    n = 5
    a = rng.standard_normal((n, n))
    b = rng.standard_normal((n, 2))
    s = systems.build_system(a, b)
    mu = 1.5
    res = feedback.solve_shifted_riccati(s, mu)
    ref = solve_continuous_are(a + mu * np.eye(n), b, np.eye(n), np.eye(2))
    assert np.allclose(res.riccati_p, ref, rtol=1e-8, atol=1e-9)


def test_unshift_identity():
    rng = np.random.default_rng(23)
    s = systems.build_system(rng.standard_normal((4, 4)),
                             rng.standard_normal((4, 1)))
    mu = 2.0
    res = feedback.solve_shifted_riccati(s, mu)
    a_cl = s.a_matrix + s.b_matrix @ res.gain_k
    a_cl_shift = (s.a_matrix + mu * np.eye(4)) + s.b_matrix @ res.gain_k
    # the unshift identity holds at matrix level: the loops differ by mu*I
    scale = max(np.abs(a_cl).max(), 1.0)
    assert np.abs((a_cl_shift - a_cl) - mu * np.eye(4)).max() <= 1e-12 * scale
    # the spectra then shift exactly, up to the eigenproblem's conditioning
    ev = np.sort_complex(np.linalg.eigvals(a_cl))
    ev_shift = np.sort_complex(np.linalg.eigvals(a_cl_shift)) - mu
    _, vecs = np.linalg.eig(a_cl)
    tol = 1e-13 * scale * max(np.linalg.cond(vecs), 1.0)
    assert np.max(np.abs(ev - ev_shift)) <= tol


# ---------------------------------------------------------------------------
# closed-loop rate and the checks on a synthesis
# ---------------------------------------------------------------------------

def test_rate_of_normal_stable_matrix():
    # B = 0: the gain is zero, and the rate is the open loop's, exactly
    s = systems.build_system(np.diag([-1.0, -2.0]), np.zeros((2, 1)))
    res = feedback.solve_shifted_riccati(s, 0.5)
    assert np.array_equal(res.gain_k, np.zeros((1, 2)))
    assert res.measured_rate == 1.0


def test_rate_matches_riccati_eigenvalue():
    rng = np.random.default_rng(4)
    s = systems.build_system(rng.standard_normal((5, 5)) / math.sqrt(5),
                             rng.standard_normal((5, 2)))
    res = feedback.solve_shifted_riccati(s, 1.0)
    a_cl = s.a_matrix + s.b_matrix @ res.gain_k
    assert res.measured_rate == -float(np.linalg.eigvals(a_cl).real.max())
    assert res.measured_rate > res.mu


def test_rate_equal_to_mu_is_a_miss(monkeypatch):
    # every closed-loop eigenvalue must lie strictly left of -mu
    monkeypatch.setattr(feedback, "_spectral_rate", lambda a_cl: 1.0)
    with pytest.raises(RuntimeError, match="missed the target") as missed:
        feedback.solve_shifted_riccati(SCALAR_01, 1.0)
    assert missed.value.measured_rate == 1.0


def test_fast_stable_loop_is_synthesized():
    # rate * 10 is above 709: a synthesis that weighted a decay curve on
    # [0, 10] by exp(rate * t) would overflow
    s = systems.build_system([[-80.0, 1.0], [0.0, -90.0]], [[1.0], [1.0]])
    res = feedback.solve_shifted_riccati(s, 1.0)
    assert res.measured_rate > 80.0
    assert np.linalg.eigvalsh(res.riccati_p)[0] > 0.0


def test_singular_riccati_solution_is_refused():
    # an n = 20 pair drawn as the feedback-synthesis benchmark draws it:
    # at mu = 2 the computed rate clears mu, but ||K|| is about 1e8 and
    # lambda_min(P)/lambda_max(P) about 1e-16, below n u
    rng = np.random.default_rng([11, 17])
    s = systems.build_system(rng.standard_normal((20, 20)) / math.sqrt(20),
                             rng.standard_normal((20, 2)))
    with pytest.raises(np.linalg.LinAlgError,
                       match=r"lambda_min/lambda_max = \d\.\d+e-1[5-7]"):
        feedback.solve_shifted_riccati(s, 2.0)


def test_feedback_result_refuses_a_singular_p():
    with pytest.raises(np.linalg.LinAlgError, match="lambda_min/lambda_max"):
        feedback.FeedbackResult(mu=1.0, riccati_p=np.diag([1.0, 0.0]),
                                gain_k=np.zeros((1, 2)), residual=0.0,
                                measured_rate=2.0)
    with pytest.raises(ValueError, match="PSD"):
        feedback.FeedbackResult(mu=1.0, riccati_p=np.diag([1.0, -1.0]),
                                gain_k=np.zeros((1, 2)), residual=0.0,
                                measured_rate=2.0)


# ---------------------------------------------------------------------------
# minimum-norm steering
# ---------------------------------------------------------------------------

def test_exact_null_scalar():
    sig = feedback.min_norm_eps_null(SCALAR_01, 1.0, 0.0, [1.0])
    assert _control_at(SCALAR_01, sig, 0.3)[0] == pytest.approx(-1.0,
                                                                abs=1e-12)
    assert sig.l2_norm == pytest.approx(1.0, abs=1e-12)
    terminal = simulate_terminal(SCALAR_01, sig, [1.0], 1.0)
    assert abs(terminal[0]) <= 1e-9


def test_free_dynamics_suffice():
    s = systems.build_system([[-1.0]], [[1.0]])
    sig = feedback.min_norm_eps_null(s, 1.0, 0.9, [1.0])
    assert sig.l2_norm == 0.0
    assert np.all(_control_at(s, sig, 0.5) == 0.0)


def test_two_mode_exact_null_simulated():
    s = systems.build_system(np.diag([-1.0, -2.0]), np.array([[1.0], [1.0]]))
    y0 = [1.0, -0.4]
    sig = feedback.min_norm_eps_null(s, 1.0, 0.0, y0)
    terminal = simulate_terminal(s, sig, y0, 1.0)
    assert np.linalg.norm(terminal) <= 1e-9


def test_partial_steering_hits_target_from_below():
    s = systems.build_system(np.diag([0.3, -0.5]), np.array([[1.0], [0.7]]))
    y0 = np.array([1.0, 1.0])
    eps = 0.25
    sig = feedback.min_norm_eps_null(s, 1.0, eps, y0)
    terminal = simulate_terminal(s, sig, y0, 1.0)
    assert np.linalg.norm(terminal) <= eps * np.linalg.norm(y0) * (1 + 1e-7)


def test_control_norm_monotone_in_eps():
    s = systems.build_system(np.diag([0.2, -1.0]), np.array([[1.0], [1.0]]))
    y0 = [1.0, 0.5]
    norms = [feedback.min_norm_eps_null(s, 1.0, eps, y0).l2_norm
             for eps in (0.0, 0.05, 0.2, 0.5, 0.9)]
    assert all(b <= a + 1e-12 for a, b in zip(norms, norms[1:]))


def test_min_norm_local_optimality():
    rng = np.random.default_rng(12)
    s = systems.build_system(np.diag([0.4, -0.8]), np.array([[1.0], [1.0]]))
    y0 = np.array([1.0, -1.0])
    horizon, eps = 1.0, 0.3
    sig = feedback.min_norm_eps_null(s, horizon, eps, y0)
    gram = observability_gramian(s, horizon).matrix
    z = np.array([math.exp(0.4), -math.exp(-0.8)])
    eta = sig.segments[0].eta
    eta0 = np.linalg.solve(gram, z)          # exact-null interior point
    target = eps * np.linalg.norm(y0)
    base = eta @ gram @ eta
    found = 0
    trials = 0
    while found < 20 and trials < 400:
        trials += 1
        w = rng.standard_normal(2)
        cand = eta + 0.05 * w + 0.1 * rng.random() * (eta0 - eta)
        if np.linalg.norm(z - gram @ cand) <= target:
            found += 1
            assert cand @ gram @ cand >= base * (1 - 1e-9)
    assert found == 20


def test_steering_errors():
    s0 = systems.build_system([[0.0]], [[0.0]])
    with pytest.raises(feedback.SteeringError):
        feedback.min_norm_eps_null(s0, 1.0, 0.0, [1.0])     # singular Gramian
    with pytest.raises(feedback.SteeringError):
        feedback.min_norm_eps_null(s0, 1.0, 0.5, [1.0])     # unreachable ball


@pytest.mark.parametrize("eps", [math.nan, math.inf, -1.0])
def test_steering_refuses_a_non_finite_or_negative_eps(eps):
    # a nan eps used to return a control whose eta and l2_norm were nan
    with pytest.raises(ValueError, match="finite and nonnegative"):
        feedback.min_norm_eps_null(SCALAR_01, 1.0, eps, [1.0])


def _l2_norm_by_quadrature(sys, signal):
    """The control's L2 norm integrated node by node, segment by segment."""
    def power(t):
        return float(np.sum(_control_at(sys, signal, t) ** 2))

    total = 0.0
    for seg in signal.segments:
        val, _ = integrate_adaptive(per_node(power), seg.t_start, seg.t_stop,
                                    panels=16, npts=8, rel_tol=1e-10)
        total += val
    return math.sqrt(total)


def test_l2_norm_consistent_with_quadrature():
    s = systems.build_system(np.diag([0.1, -1.5]), np.array([[1.0], [0.5]]))
    sig = feedback.min_norm_eps_null(s, 1.2, 0.1, [1.0, 1.0])
    assert _l2_norm_by_quadrature(s, sig) == pytest.approx(sig.l2_norm,
                                                           rel=1e-9)


# ---------------------------------------------------------------------------
# concatenated control
# ---------------------------------------------------------------------------

def test_concatenated_scalar_contraction():
    eps = math.exp(-2.0)
    sig, rep = feedback.concatenated_control(SCALAR_01, 1.0, 1.0, eps,
                                             [1.0], 6)
    for i, norm in enumerate(rep.state_norms):
        assert norm <= eps**i * (1.0 + 1e-9)
    for u0, u1 in zip(rep.control_norms, rep.control_norms[1:]):
        assert u1 <= u0 * eps * (1 + 1e-6)
    assert rep.contraction_ok and rep.geometric_ok
    assert math.isfinite(rep.weighted_l2)
    assert len(sig.segments) == 6
    assert sig.breakpoints == tuple(float(i) for i in range(7))


def test_concatenated_free_decay_needs_no_control():
    s = systems.build_system([[-3.0]], [[1.0]])
    eps = math.exp(-2.0)       # free decay e^-3 beats the target e^-2
    _, rep = feedback.concatenated_control(s, 1.0, 1.0, eps, [1.0], 4)
    assert all(c == 0.0 for c in rep.control_norms)
    assert rep.state_norms[-1] == pytest.approx(math.exp(-12.0), rel=1e-12)


def _weighted_l2_per_node(sys, signal, beta):
    """The beta-weighted control norm integrated node by node."""
    total = 0.0
    for seg in signal.segments:
        def integrand(t, seg=seg):
            u = _control_at(sys, signal, t)
            return math.exp(2.0 * beta * t) * float(np.sum(u**2))
        val, _ = integrate_adaptive(per_node(integrand), seg.t_start,
                                    seg.t_stop, panels=8, npts=8,
                                    rel_tol=1e-9)
        total += val
    return math.sqrt(total)


def test_weighted_l2_matches_per_node_reference():
    rng = np.random.default_rng(8)
    s = systems.build_system(rng.standard_normal((5, 5)) / math.sqrt(5),
                             rng.standard_normal((5, 2)))
    sig, rep = feedback.concatenated_control(s, 1.0, 1.0, math.exp(-2.0),
                                             rng.standard_normal(5), 4)
    ref = _weighted_l2_per_node(s, sig, 1.0)
    assert abs(rep.weighted_l2 - ref) <= 1e-10 * ref


def test_weighted_l2_against_high_precision_oracle():
    # |eta| reaches about 1e11 on this ill-conditioned pair; the energy
    # eta^T G_beta eta through the shifted Gramian is off by about 1e-4
    # relative here, while ||R_beta eta||^2 through its factor stays a sum
    # of squares.  Likewise each segment's control norm ||R eta|| is a
    # norm of the Gramian's factor, where sqrt(eta^T G eta) was off by
    # about 4e-5.
    # The first segment's eta is the Tikhonov root, which solves of
    # G + nu I (cond(G) about 1e12) missed by about 1e-5 relative
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng([11, 142])
    n, beta, t_seg, eps = 10, 1.0, 1.0, math.exp(-2.0)
    a = rng.standard_normal((n, n)) / math.sqrt(n)
    b = rng.standard_normal((n, 2))
    y0 = rng.standard_normal(n)
    sig, rep = feedback.concatenated_control(systems.build_system(a, b),
                                             beta, t_seg, eps, y0, 4)
    with mpmath.workdps(60):
        a_mp = mpmath.matrix(a.tolist())
        b_mp = mpmath.matrix(b.tolist())
        gram = van_loan_gramian_mp(mpmath, a_mp, b_mp, t_seg)
        gram_beta = van_loan_gramian_mp(mpmath, a_mp - beta * mpmath.eye(n),
                                        b_mp, t_seg)
        total = mpmath.mpf(0)
        seg_norms = []
        for seg in sig.segments:
            eta = mpmath.matrix(seg.eta.tolist())
            total += (mpmath.exp(2 * beta * seg.t_stop)
                      * (eta.T * gram_beta * eta)[0, 0])
            seg_norms.append(float(mpmath.sqrt((eta.T * gram * eta)[0, 0])))
        oracle = float(mpmath.sqrt(total))
        y0_mp = mpmath.matrix(y0.tolist())
        eta1, terminal1 = tikhonov_root_mp(
            mpmath, gram, mpmath.expm(a_mp * t_seg) * y0_mp,
            mpmath.exp(-2) * mpmath.norm(y0_mp))
        eta1 = np.array([float(v) for v in eta1])
        terminal1 = float(mpmath.norm(terminal1))
    assert abs(rep.weighted_l2 - oracle) <= 1e-10 * oracle
    for norm, ref in zip(rep.control_norms, seg_norms):
        assert abs(norm - ref) <= 1e-9 * ref
    eta = sig.segments[0].eta
    assert np.linalg.norm(eta - eta1) <= 1e-9 * np.linalg.norm(eta1)
    assert abs(rep.state_norms[1] - terminal1) <= 1e-12 * terminal1


def _with_hidden_mode(rng, n, decay):
    """Dense pair with one stable mode e^{decay t} that B cannot reach."""
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    block = np.zeros((n, n))
    block[:-1, :-1] = rng.standard_normal((n - 1, n - 1)) / math.sqrt(n)
    block[-1, -1] = decay
    b = np.zeros((n, 2))
    b[:-1] = rng.standard_normal((n - 1, 2))
    return systems.build_system(q @ block @ q.T, q @ b)


def test_regularized_segments_land_on_the_target():
    # the hidden-mode pairs leave an unreachable component 0 < stuck <
    # target in every segment, which the Tikhonov root's lower bound reads
    rng = np.random.default_rng(29)
    landed = hidden = 0
    cases = [(n, eps, False) for n in range(2, 11)
             for eps in (0.5, 0.1, 1e-3, 1e-6)]
    cases += [(n, eps, True) for n in range(3, 11) for eps in (0.5, 0.1)]
    for n, eps, hide in cases:
        if hide:
            s = _with_hidden_mode(rng, n, -3.0)
            forms = weakobs.Forms.dense(s, 1.0)
            assert forms.sig[-1]**2 <= feedback._UNREACHABLE_RTOL * \
                forms.sig[0]**2
        else:
            s = systems.build_system(rng.standard_normal((n, n)) / math.sqrt(n),
                                     rng.standard_normal((n, 2)))
        _, rep = feedback.concatenated_control(
            s, 0.1, 1.0, eps, rng.standard_normal(n), 3)
        for before, after, control in zip(rep.state_norms,
                                          rep.state_norms[1:],
                                          rep.control_norms):
            if control > 0.0:
                target = eps * before
                assert target * (1.0 - 1e-12) <= after <= target
                landed += 1
                hidden += hide
    assert landed >= 130 and hidden >= 45


def _tikhonov_nu_by_bisection(c, s2, vt, target, lo, hi):
    """Reference: the same nu by geometric bisection over [lo, hi]."""
    nu = math.sqrt(lo) * math.sqrt(hi)
    while lo < nu < hi:
        if np.linalg.norm(vt.T @ (nu * c / (s2 + nu))) <= target:
            lo = nu
        else:
            hi = nu
        nu = math.sqrt(lo) * math.sqrt(hi)
    return lo


def test_tikhonov_nu_agrees_with_bisection():
    rng = np.random.default_rng(31)
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(2, 12))
        vt, _ = np.linalg.qr(rng.standard_normal((n, n)))
        s2 = np.sort(10.0 ** rng.uniform(-12, 2, n))[::-1]
        c = rng.standard_normal(n) * 10.0 ** rng.uniform(-3, 3)
        target = rng.uniform(0.01, 0.99) * np.linalg.norm(c)
        lo = target / np.linalg.norm(c / s2)
        hi = s2[0] * target / (np.linalg.norm(c) - target)
        nu = feedback._tikhonov_nu(c, s2, vt, target, lo, hi)
        ref = _tikhonov_nu_by_bisection(c, s2, vt, target, lo, hi)
        assert np.linalg.norm(vt.T @ (nu * c / (s2 + nu))) <= target
        worst = max(worst, abs(nu - ref) / ref)
    assert worst <= 1e-13


def test_concatenated_control_exponentiates_a_t_seg_once(monkeypatch):
    rng = np.random.default_rng(3)
    n, t_seg = 5, 0.7
    a = rng.standard_normal((n, n)) / math.sqrt(n)
    s = systems.build_system(a, rng.standard_normal((n, 2)))
    hits = []

    def spy(m, real=semigroup.expm):
        hits.extend(np.array_equal(x, a * t_seg)
                    for x in np.reshape(m, (-1, n, n)))
        return real(m)

    monkeypatch.setattr(semigroup, "expm", spy)
    _, rep = feedback.concatenated_control(s, 0.5, t_seg, math.exp(-1.0),
                                           rng.standard_normal(n), 4)
    assert len(rep.control_norms) == 4 and all(rep.control_norms)
    assert sum(hits) == 1


def _multiple_of(x, m):
    """Whether x = m t for some scalar t, to rounding."""
    t = float(np.vdot(m, x) / np.vdot(m, m))
    return np.allclose(x, m * t, rtol=1e-12, atol=0.0)


def test_concatenated_control_exponentiates_each_slice_once(monkeypatch):
    # the segments' weighted energies read a shifted view of the forms'
    # table of A: no (A - beta I) t, or its transpose, reaches expm
    rng = np.random.default_rng(3)
    n, beta = 5, 0.5
    s = systems.build_system(rng.standard_normal((n, n)) / math.sqrt(n),
                             rng.standard_normal((n, 2)))
    shifted = s.a_matrix - beta * np.eye(n)
    seen = []

    def spy(m, real=semigroup.expm):
        seen.extend(x.tobytes() for x in np.reshape(m, (-1, n, n)))
        return real(m)

    monkeypatch.setattr(semigroup, "expm", spy)
    _, rep = feedback.concatenated_control(s, beta, 0.7, math.exp(-1.0),
                                           rng.standard_normal(n), 4)
    assert len(rep.control_norms) == 4 and rep.weighted_l2 > 0.0
    nonzero = [x for x in seen if np.frombuffer(x).any()]
    assert len(nonzero) == len(set(nonzero))
    for x in nonzero:
        x = np.frombuffer(x).reshape(n, n)
        assert not _multiple_of(x, shifted)
        assert not _multiple_of(x, shifted.T)
        assert _multiple_of(x, s.a_matrix)


def test_steering_never_forms_the_gramian_floor(monkeypatch):
    # steering reads the factor's SVD and e^{AT}, never the floor; the
    # decisions' forms still do.  Every floor takes its probe norms
    # through `ExpTable.norms`, whatever name it is called by
    def unread(self, times):
        raise AssertionError("a Gramian floor was read")

    monkeypatch.setattr(semigroup.ExpTable, "norms", unread)
    rng = np.random.default_rng(31)
    s = systems.build_system(rng.standard_normal((5, 5)) / math.sqrt(5),
                             rng.standard_normal((5, 2)))
    y0 = rng.standard_normal(5)
    with pytest.raises(AssertionError, match="floor was read"):
        weakobs.Forms.dense(s, 1.0)
    _, rep = feedback.concatenated_control(s, 1.0, 1.0, math.exp(-2.0),
                                           y0, 3)
    assert rep.contraction_ok and rep.geometric_ok
    assert feedback.min_norm_eps_null(s, 1.0, 0.1, y0).l2_norm > 0.0


def _tables_in_frames(tb):
    """ExpTables reachable from the locals of a traceback's frames."""
    skip = (type, types.ModuleType, types.FunctionType, types.FrameType,
            types.TracebackType, types.BuiltinFunctionType)
    todo = []
    while tb is not None:
        todo.extend(tb.tb_frame.f_locals.values())
        tb = tb.tb_next
    seen, found = set(), []
    while todo:
        obj = todo.pop()
        if id(obj) in seen or isinstance(obj, skip):
            continue
        seen.add(id(obj))
        if isinstance(obj, semigroup.ExpTable):
            found.append(obj)
        todo.extend(gc.get_referents(obj))
    return found


def test_no_table_survives_a_steering_failure():
    # a caller that keeps the exception keeps every frame of its traceback
    rng = np.random.default_rng([11, 2])
    n = 20
    dense = systems.build_system(rng.standard_normal((n, n)) / math.sqrt(n),
                                 rng.standard_normal((n, 2)))
    pairs = [(systems.build_system([[0.0]], [[0.0]]), [1.0]),
             (dense, rng.standard_normal(n))]
    for s, y0 in pairs:
        with pytest.raises(feedback.SteeringError) as kept:
            feedback.concatenated_control(s, 1.0, 1.0, math.exp(-2.0), y0, 4)
        assert _tables_in_frames(kept.value.__traceback__.tb_next) == []


def test_concatenated_contraction_precondition():
    with pytest.raises(ValueError):
        feedback.concatenated_control(SCALAR_01, 1.0, 1.0,
                                      1.5 * math.exp(-2.0), [1.0], 3)


# ---------------------------------------------------------------------------
# certificate-backed synthesis
# ---------------------------------------------------------------------------

def test_certificate_to_feedback_selects_index():
    fam = weakobs.sweep_alpha(SCALAR_01, [1.0, 2.0, 4.0, 8.0],
                              [0.5, 1.0, 2.0, 4.0])
    res = feedback.certificate_to_feedback(SCALAR_01, fam, 1.5)
    assert res.certificate_chain["k"] == 3
    assert res.certificate_chain["alpha"] == 4.0
    assert res.measured_rate >= 1.5
    res_low = feedback.certificate_to_feedback(SCALAR_01, fam, 0.5)
    assert res_low.certificate_chain["k"] == 1


@pytest.mark.parametrize("mu", [math.nan, math.inf, 0.0, -1.0])
def test_rate_must_be_positive_and_finite(mu):
    rotation = systems.build_system([[0.0, 1.0], [-1.0, 0.0]], [[0.0], [1.0]])
    fam = weakobs.sweep_alpha(rotation, [2.0], [1.0])
    message = "target rate mu must be positive and finite"
    with pytest.raises(ValueError, match=message):
        feedback.solve_shifted_riccati(rotation, mu)
    with pytest.raises(ValueError, match=message):
        feedback.certificate_to_feedback(rotation, fam, mu)


def test_certificate_to_feedback_requires_entries():
    fam = weakobs.sweep_alpha(SCALAR_01, [2.0], [0.5, 1.0])
    with pytest.raises(ValueError):
        feedback.certificate_to_feedback(SCALAR_01, fam, 5.0)


def test_certificate_to_feedback_reads_only_exact_integer_alphas():
    # alpha = 3.0000000001 is certified but is not alpha = k + 1 for any k,
    # so no entry backs k = 2; sequence_entry would find none either
    near = 3.0000000001
    fam = weakobs.sweep_alpha(SCALAR_01, [near], [0.5, 1.0, 2.0, 4.0])
    assert fam.alpha_certified(near)
    with pytest.raises(ValueError, match="no certified integer entry"):
        feedback.certificate_to_feedback(SCALAR_01, fam, 1.0)
    fam = weakobs.sweep_alpha(SCALAR_01, [near, 4.0], [0.5, 1.0, 2.0, 4.0])
    res = feedback.certificate_to_feedback(SCALAR_01, fam, 1.0)
    assert res.certificate_chain["k"] == 3
