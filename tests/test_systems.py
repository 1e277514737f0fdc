import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stabcert import systems
from stabcert._quadrature import integrate_adaptive

from oracles import hermite_gram_mp, per_node


def test_build_system_scalar():
    s = systems.build_system([[0.0]], [[1.0]])
    assert s.n == 1 and s.m == 1
    assert s.is_diagonal


def test_build_system_two_by_one():
    s = systems.build_system(np.diag([-1.0, -2.0]), [[1.0], [0.0]])
    assert s.n == 2 and s.m == 1


def test_build_system_dimension_mismatch():
    with pytest.raises(ValueError):
        systems.build_system(np.zeros((3, 3)), np.zeros((2, 1)))
    with pytest.raises(ValueError):
        systems.build_system(np.zeros((2, 3)), np.zeros((2, 1)))


def test_build_system_rejects_nonfinite():
    with pytest.raises(ValueError):
        systems.build_system([[np.nan]], [[1.0]])


def test_system_arrays_are_readonly():
    s = systems.build_system([[0.0]], [[1.0]])
    with pytest.raises(ValueError):
        s.a_matrix[0, 0] = 1.0


# ---------------------------------------------------------------------------
# truncation
# ---------------------------------------------------------------------------

def test_truncate_identity():
    spec = systems.point_control_heat(0.3, 0.0, 50)
    lti = systems.truncate(spec, 50)
    assert np.array_equal(np.diag(lti.a_matrix), spec.eigenvalues)
    assert np.array_equal(lti.b_matrix, spec.control_rows)


def test_truncate_first_mode_of_point_heat():
    x0, c = 1.0 / math.sqrt(2.0), 3.0
    lti = systems.truncate(systems.point_control_heat(x0, c, 8), 1)
    assert lti.a_matrix[0, 0] == pytest.approx(-np.pi**2 + c, abs=1e-14)
    assert lti.b_matrix[0, 0] == pytest.approx(
        math.sqrt(2.0) * math.sin(math.pi * x0), abs=1e-14)


def test_truncate_out_of_range():
    spec = systems.point_control_heat(0.3, 0.0, 5)
    with pytest.raises(ValueError):
        systems.truncate(spec, 0)
    with pytest.raises(ValueError):
        systems.truncate(spec, 6)


@given(n=st.integers(min_value=1, max_value=12),
       m=st.integers(min_value=1, max_value=12))
@settings(max_examples=30, deadline=None)
def test_truncate_composes(n, m):
    spec = systems.point_control_heat(0.29, 1.5, 12)
    if m > n:
        n, m = m, n
    once = systems.truncate(spec, m)
    via_lti = systems.truncate(spec, n)
    assert np.array_equal(np.diag(via_lti.a_matrix)[:m],
                          np.diag(once.a_matrix))
    assert np.array_equal(via_lti.b_matrix[:m], once.b_matrix)


# ---------------------------------------------------------------------------
# point-controlled heat
# ---------------------------------------------------------------------------

def test_point_heat_even_modes_vanish_at_half():
    spec = systems.point_control_heat(0.5, 0.0, 8)
    rows = spec.control_rows[:, 0]
    assert abs(rows[1]) < 1e-12          # j = 2
    assert abs(rows[3]) < 1e-12          # j = 4
    assert abs(rows[0]) > 1.0


def test_point_heat_unstable_mode():
    spec = systems.point_control_heat(0.5, 2.0 * np.pi**2, 4)
    assert spec.eigenvalues[0] == pytest.approx(np.pi**2, rel=1e-14)


def test_point_heat_irrational_point_sees_every_mode():
    spec = systems.point_control_heat(1.0 / math.sqrt(2.0), 0.0, 40)
    assert np.all(np.abs(spec.control_rows[:, 0]) > 1e-6)


def test_point_heat_row_vanishes_iff_jx0_integer():
    spec = systems.point_control_heat(1.0 / 3.0, 0.0, 9)
    rows = np.abs(spec.control_rows[:, 0])
    for j in range(1, 10):
        if j % 3 == 0:
            assert rows[j - 1] < 1e-12
        else:
            assert rows[j - 1] > 1e-3


def test_point_heat_boundary_rejected():
    with pytest.raises(ValueError):
        systems.point_control_heat(0.0, 0.0, 3)
    with pytest.raises(ValueError):
        systems.point_control_heat(1.0, 0.0, 3)


# ---------------------------------------------------------------------------
# Hermite heat
# ---------------------------------------------------------------------------

def test_hermite_whole_line_gram_is_identity():
    spec = systems.hermite_heat(1.0, [(-np.inf, np.inf)], 6)
    assert np.allclose(spec.control_rows, np.eye(6), atol=1e-10)


def test_hermite_marginal_mode():
    spec = systems.hermite_heat(1.0, [(0.0, np.inf)], 3)
    assert spec.eigenvalues[0] == 0.0
    assert spec.eigenvalues[1] == -2.0


def test_hermite_half_line_diagonal_is_half():
    spec = systems.hermite_heat(1.0, [(0.0, np.inf)], 5)
    # even-parity products integrate to exactly half their full-line value
    for k in range(5):
        assert spec.control_rows[k, k] == pytest.approx(0.5, abs=1e-12)


def test_hermite_gram_between_zero_and_identity():
    spec = systems.hermite_heat(2.0, [(0.5, 3.0)], 6)
    eigs = np.linalg.eigvalsh(spec.control_rows)
    assert eigs.min() > -1e-10 and eigs.max() < 1.0 + 1e-10


def test_hermite_validation():
    with pytest.raises(ValueError):
        systems.hermite_heat(0.5, [(0.0, np.inf)], 3)     # c below dimension
    with pytest.raises(ValueError):
        systems.hermite_heat(1.0, [], 3)                  # empty control set
    with pytest.raises(ValueError):
        systems.hermite_heat(1.0, [(2.0, 1.0)], 3)        # reversed interval


@pytest.mark.parametrize("a, b", [(-1.0, 2.5), (0.0, math.inf)])
def test_hermite_gram_matches_a_40_digit_oracle(a, b):
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        ref = np.array(hermite_gram_mp(mpmath, 8, a, b).tolist(),
                       dtype=float)
    gram = systems.hermite_heat(1.0, [(a, b)], 8).control_rows
    assert np.abs(gram - ref).max() <= 4e-16


def _hermite_gram_per_node(n, intervals):
    """`hermite_heat`'s Gram with its cut, panels and tolerance, each
    level accumulated one node at a time."""
    x_cut = math.sqrt(2.0 * (2 * n + 1)) + 12.0

    def integrand(t):
        h = systems._hermite_values(n, np.array([t]))[:, 0]
        return np.outer(h, h)

    gram = np.zeros((n, n))
    for a, b in intervals:
        a, b = max(a, -x_cut), min(b, x_cut)
        panels = max(8, int(math.ceil((b - a) * max(1.0, n / 4.0))))
        part, _ = integrate_adaptive(per_node(integrand), a, b,
                                     panels=panels, npts=10,
                                     rel_tol=systems.HERMITE_REL_TOL)
        gram += part
    return 0.5 * (gram + gram.T)


@pytest.mark.parametrize("n", [6, 12, 20, 40])
def test_hermite_gram_matches_the_per_node_reference(n):
    intervals = [(0.0, math.inf)]
    gram = systems.hermite_heat(1.0, intervals, n).control_rows
    ref = _hermite_gram_per_node(n, intervals)
    assert np.abs(gram - ref).max() <= 2e-15


# ---------------------------------------------------------------------------
# fractional heat
# ---------------------------------------------------------------------------

def _fractional_gram_per_entry(n, intervals):
    """`fractional_heat`'s Gram filled one closed-form entry at a time."""
    def pair_integral(j, k, a, b):
        def anti(x):
            if j == k:
                first = x
            else:
                first = np.sin((j - k) * np.pi * x) / ((j - k) * np.pi)
            return first - np.sin((j + k) * np.pi * x) / ((j + k) * np.pi)

        return anti(b) - anti(a)

    gram = np.zeros((n, n))
    for a, b in intervals:
        for j in range(1, n + 1):
            for k in range(j, n + 1):
                v = pair_integral(j, k, a, b)
                gram[j - 1, k - 1] += v
                if k != j:
                    gram[k - 1, j - 1] += v
    return gram


@pytest.mark.parametrize("n", [8, 16, 32, 64])
@pytest.mark.parametrize("intervals", [[(0.3, 0.8)],
                                       [(0.1, 0.35), (0.5, 1.0)]])
def test_fractional_gram_equals_the_per_entry_closed_form(n, intervals):
    gram = systems.fractional_heat(0.5, 2.0, intervals, n).control_rows
    assert np.array_equal(gram, _fractional_gram_per_entry(n, intervals))


def test_fractional_limit_toward_one():
    spec = systems.fractional_heat(1.0 - 1e-9, 1.0, [(0.0, 1.0)], 6)
    j = np.arange(1, 7)
    assert np.allclose(spec.eigenvalues, -j * np.pi + 1.0, atol=1e-6)


def test_fractional_half_order_unstable_mode():
    spec = systems.fractional_heat(0.5, 2.0, [(0.0, 1.0)], 3)
    assert spec.eigenvalues[0] == pytest.approx(2.0 - math.sqrt(np.pi),
                                                abs=1e-12)
    assert spec.eigenvalues[0] == pytest.approx(0.22754614909448412,
                                                abs=1e-12)


def test_fractional_full_observation_is_identity():
    spec = systems.fractional_heat(0.5, 0.0, [(0.0, 1.0)], 8)
    assert np.allclose(spec.control_rows, np.eye(8), atol=1e-12)


def test_fractional_order_out_of_range():
    for s in (0.0, 1.0, 1.5, -0.2):
        with pytest.raises(ValueError):
            systems.fractional_heat(s, 0.0, [(0.0, 1.0)], 3)


# ---------------------------------------------------------------------------
# continued fraction point
# ---------------------------------------------------------------------------

def test_continued_fraction_exact_prefix():
    cf = systems.continued_fraction_point(3)
    assert cf.partial_quotients == (0, 2, 2981)
    assert cf.convergents == (Fraction(0, 1), Fraction(1, 2),
                              Fraction(2981, 5963))
    assert cf.log_partial_quotients[0] == pytest.approx(5963.0**3, rel=1e-12)


def test_continued_fraction_log_q_increasing():
    cf = systems.continued_fraction_point(6)
    logs = [v for v in cf.log_q[1:] if math.isfinite(v)]
    assert len(logs) >= 3
    assert all(b > a for a, b in zip(logs, logs[1:]))
    # denominators past the float exponent range saturate to +inf
    tail = cf.log_q[1 + len(logs):]
    assert all(v == math.inf for v in tail)


def test_continued_fraction_depth_validation():
    with pytest.raises(ValueError):
        systems.continued_fraction_point(1)


def test_continued_fraction_bracket_encloses_value():
    cf = systems.continued_fraction_point(4)
    lo, hi = cf.value_bracket()
    assert 0 < lo < hi < 1
    assert lo <= Fraction(cf.x0).limit_denominator(10**9) <= hi or \
        abs(float(lo) - cf.x0) < 1e-12


def test_continued_fraction_convergent_error_bound():
    cf = systems.continued_fraction_point(3)
    lo, hi = cf.value_bracket()
    qs = [1, 2, 5963]
    for conv, q_n, q_next in zip(cf.convergents[:-1], qs[:-1], qs[1:]):
        bound = Fraction(1, q_n * q_next)
        assert max(abs(lo - conv), abs(hi - conv)) <= bound


# ---------------------------------------------------------------------------
# projection families
# ---------------------------------------------------------------------------

def _diag_spectral(lams, rows=None):
    lams = np.asarray(lams, dtype=float)
    if rows is None:
        rows = np.ones((lams.size, 1))
    return systems.SpectralSystem(lams, rows)


def test_family_count_rule_on_integer_spectrum():
    spec = _diag_spectral(-np.arange(1.0, 9.0))
    fam = systems.spectral_projection_family(spec, k_max=5)
    assert fam.mode_counts == (1, 2, 3, 4, 5)
    assert fam.alpha_k == (2.0, 3.0, 4.0, 5.0, 6.0)
    assert fam.m_k == (1.0,) * 5


def test_family_point_heat_tail_rates():
    c = 5.0
    spec = systems.point_control_heat(0.3, c, 12)
    fam = systems.spectral_projection_family(
        spec, cut_rule=lambda k: (k * np.pi) ** 2 - c + 1e-9, k_max=4)
    for k in fam.ks:
        m, _, alpha_k = fam.entry(k)
        assert m == k
        assert alpha_k == pytest.approx(((k + 1) * np.pi) ** 2 - c, rel=1e-12)


def test_family_hermite_cut_rule_matches_index_set():
    c = 3.0
    spec = systems.hermite_heat(c, [(0.0, np.inf)], 12)
    fam = systems.spectral_projection_family(spec, k_max=6)
    for k in fam.ks:
        m, _, _ = fam.entry(k)
        # modes j = 0.. with 2j+1-c <= k, i.e. j <= (k+c-1)/2
        expected = sum(1 for j in range(12) if 2 * j + 1 - c <= k)
        assert m == expected


def _projection_matrix(fam, k):
    """The orthogonal projection onto the family's first modes at k."""
    m = fam.mode_counts[fam.ks.index(k)]
    return np.diag((np.arange(max(fam.mode_counts)) < m).astype(float))


def test_family_projections_are_orthogonal_and_nested():
    spec = _diag_spectral(-np.arange(1.0, 7.0))
    fam = systems.spectral_projection_family(spec, k_max=4)
    prev = None
    for k in fam.ks:
        p = _projection_matrix(fam, k)
        assert np.array_equal(p, p.T)
        assert np.array_equal(p @ p, p)
        if prev is not None:
            assert np.array_equal(prev @ p, prev)   # ranges nested
        prev = p


def test_family_degenerate_cut_rule_rejected():
    spec = _diag_spectral(-np.arange(1.0, 5.0))
    with pytest.raises(ValueError):
        systems.spectral_projection_family(spec, cut_rule=lambda k: -1.0)
    with pytest.raises(ValueError):
        systems.spectral_projection_family(spec, cut_rule=lambda k: 100.0)


def test_spectral_to_lti_exact():
    spec = _diag_spectral([-1.0, -2.5], np.array([[1.0], [2.0]]))
    # truncation to every mode is the exact conversion
    lti = systems.truncate(spec, spec.n)
    assert np.array_equal(lti.a_matrix, np.diag([-1.0, -2.5]))
    assert np.array_equal(lti.b_matrix, spec.control_rows)


def test_eigenvalues_must_descend():
    with pytest.raises(ValueError):
        systems.SpectralSystem(np.array([-2.0, -1.0]), np.ones((2, 1)))


# ---------------------------------------------------------------------------
# JSON spec loading
# ---------------------------------------------------------------------------

def test_system_from_spec_matrix():
    s = systems.system_from_spec(
        {"kind": "matrix", "a": [[0.0]], "b": [[1.0]], "label": "demo"})
    assert s.label == "demo"


def test_system_from_spec_point_heat_cf():
    spec = systems.system_from_spec(
        {"kind": "point_heat", "x0": "cf", "depth": 3, "c": 5.0, "modes": 4})
    assert spec.n == 4
    assert spec.eigenvalues[0] == pytest.approx(-np.pi**2 + 5.0)


def test_system_from_spec_unknown_kind():
    with pytest.raises(ValueError):
        systems.system_from_spec({"kind": "mystery"})
