import json
import math
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import expm

from stabcert import cli, feedback, lrconstants, semigroup, systems, \
    verification, weakobs
from stabcert._quadrature import QuadratureError, gauss_legendre_rule, \
    integrate_adaptive, panel_nodes, refine
from stabcert.semigroup import QuadratureSpec

from oracles import per_node


def taylor_expm(a, t, terms=40, squarings=None):
    """Independent oracle: Taylor series with scaling and repeated squaring."""
    a = np.asarray(a, dtype=float) * t
    if squarings is None:
        squarings = max(0, int(np.ceil(np.log2(max(np.linalg.norm(a, 1),
                                                   1e-16)))) + 4)
    small = a / 2.0**squarings
    acc = np.eye(a.shape[0])
    term = np.eye(a.shape[0])
    for k in range(1, terms + 1):
        term = term @ small / k
        acc = acc + term
    for _ in range(squarings):
        acc = acc @ acc
    return acc


def test_propagate_zero_generator():
    s = systems.build_system([[0.0]], [[1.0]])
    assert semigroup.propagate(s, 5.0, [1.0])[0] == 1.0


def test_propagate_diagonal_exact():
    s = systems.build_system(np.diag([-1.0, -2.0]), np.ones((2, 1)))
    out = semigroup.propagate(s, 1.0, [1.0, 1.0])
    assert out[0] == math.exp(-1.0) and out[1] == math.exp(-2.0)


def test_propagate_matches_taylor_oracle():
    rng = np.random.default_rng(42)
    for _ in range(5):
        a = rng.standard_normal((4, 4))
        s = systems.build_system(a, np.ones((4, 1)))
        x = rng.standard_normal(4)
        t = float(rng.uniform(0.1, 2.0))
        ours = semigroup.propagate(s, t, x)
        oracle = taylor_expm(a, t) @ x
        assert np.linalg.norm(ours - oracle) <= 1e-10 * np.linalg.norm(oracle)
        ours_adj = semigroup.propagate(s, t, x, adjoint=True)
        assert np.allclose(ours_adj, taylor_expm(a.T, t) @ x, rtol=1e-10)


def test_propagate_negative_time_rejected():
    s = systems.build_system([[0.0]], [[1.0]])
    with pytest.raises(ValueError):
        semigroup.propagate(s, -0.1, [1.0])


_ROTATION = systems.build_system([[0.0, 1.0], [-1.0, 0.0]], [[0.0], [1.0]])


@pytest.mark.parametrize("t", [math.nan, math.inf, -1.0])
@pytest.mark.parametrize("call, message", [
    (lambda t: semigroup.transition_matrix(_ROTATION, t),
     "propagation time must be finite and nonnegative"),
    (lambda t: lrconstants.fattorini_distance([1.0, 4.0, 9.0], t, 1, [2, 3]),
     "t0 must be positive and finite"),
    (lambda t: lrconstants.point_heat_truncated_obs_constant(0.3, 5.0, 3, t),
     "t0 must be positive and finite"),
], ids=["transition_matrix", "fattorini_distance",
        "point_heat_truncated_obs_constant"])
def test_a_non_finite_or_negative_time_is_refused(call, message, t):
    # nan once passed every check, and inf reached the arithmetic
    with pytest.raises(ValueError, match=f"^{message}$"):
        call(t)


def test_semigroup_property():
    rng = np.random.default_rng(7)
    a = rng.standard_normal((5, 5))
    s = systems.build_system(a, np.ones((5, 1)))
    x = rng.standard_normal(5)
    t1, t2 = 0.7, 1.1
    once = semigroup.propagate(s, t1 + t2, x)
    twice = semigroup.propagate(s, t1, semigroup.propagate(s, t2, x))
    assert np.linalg.norm(once - twice) <= 1e-10 * np.linalg.norm(once)


# ---------------------------------------------------------------------------
# observation energy
# ---------------------------------------------------------------------------

def test_energy_constant_integrand():
    s = systems.build_system([[0.0]], [[1.0]])
    assert semigroup.observation_energy(s, 2.0, [1.0]) == pytest.approx(2.0)


def test_energy_scalar_closed_form():
    s = systems.build_system([[-1.0]], [[1.0]])
    assert semigroup.observation_energy(s, 1.0, [1.0]) == pytest.approx(
        0.43233235838169365, abs=1e-12)


def test_energy_null_observation():
    s = systems.build_system(np.diag([-1.0, 2.0]), np.zeros((2, 1)))
    assert semigroup.observation_energy(s, 1.0, [1.0, 1.0]) == 0.0


# ---------------------------------------------------------------------------
# gramians
# ---------------------------------------------------------------------------

def test_gramian_zero_rate_limit():
    s = systems.build_system([[0.0]], [[1.0]])
    g = semigroup.observability_gramian(s, 3.0)
    assert g.matrix[0, 0] == pytest.approx(3.0, abs=1e-12)


def test_gramian_scalar_closed_form():
    s = systems.build_system([[1.0]], [[2.0]])
    g = semigroup.observability_gramian(s, 1.0)
    assert g.matrix[0, 0] == pytest.approx(12.778112197861299, abs=1e-9)


def test_gramian_cross_term():
    s = systems.build_system(np.diag([-1.0, -2.0]), np.ones((2, 1)))
    g = semigroup.observability_gramian(s, 1.0)
    assert g.matrix[0, 1] == pytest.approx(0.3167376438773787, abs=1e-12)


def test_gramian_closed_vs_quadrature():
    rng = np.random.default_rng(3)
    for _ in range(5):
        n = int(rng.integers(1, 8))
        s = systems.build_system(np.diag(rng.uniform(-3, 1, n)),
                                 rng.standard_normal((n, 2)))
        horizon = float(rng.uniform(0.3, 2.0))
        closed = verification._diagonal_gramian(np.diag(s.a_matrix),
                                                s.b_matrix, horizon)
        quad = semigroup.observability_gramian(
            s, horizon, QuadratureSpec(panels=8, rel_tol=1e-11)).matrix
        assert np.linalg.norm(closed - quad) <= 1e-9 * np.linalg.norm(closed)


# the heat benchmarks at their example parameters, by truncation order
_HEAT = {
    "point-heat": lambda n: systems.point_control_heat(
        systems.continued_fraction_point(3).x0, 5.0, n),
    "hermite-heat": lambda n: systems.hermite_heat(1.0, [[0.0, math.inf]], n),
    "fractional-heat": lambda n: systems.fractional_heat(0.5, 2.0,
                                                         [[0.3, 0.8]], n),
}


@pytest.mark.parametrize("name, n", [
    *(("point-heat", n) for n in (8, 16, 30, 60)),
    *(("hermite-heat", n) for n in (6, 12, 20)),
    *(("fractional-heat", n) for n in (8, 16, 32)),
])
def test_diagonal_factor_matches_the_closed_form(name, n):
    # the diagonal quadrature's R^T R against verification's closed-form
    # reference on the heat benchmarks' spectral truncations
    s = systems.truncate(_HEAT[name](n), n)
    for horizon in (0.5, 1.0, 2.0):
        g = semigroup.observability_gramian(s, horizon)
        closed = verification._diagonal_gramian(np.diag(s.a_matrix),
                                                s.b_matrix, horizon)
        assert np.linalg.norm(g.matrix - closed) \
            <= 1e-14 * np.linalg.norm(closed)


def test_gramian_quadratic_form_matches_energy():
    rng = np.random.default_rng(11)
    for _ in range(100):
        n = int(rng.integers(1, 6))
        dense = rng.random() < 0.4
        a = (rng.standard_normal((n, n)) if dense
             else np.diag(rng.uniform(-2, 0.5, n)))
        s = systems.build_system(a, rng.standard_normal((n, 1)))
        horizon = float(rng.uniform(0.2, 2.0))
        phi = rng.standard_normal(n)
        g = semigroup.observability_gramian(s, horizon)
        direct = semigroup.observation_energy(s, horizon, phi)
        assert g.quad_form(phi) == pytest.approx(direct, rel=1e-9,
                                                 abs=1e-12)


def test_gramian_psd_and_monotone():
    rng = np.random.default_rng(5)
    a = rng.standard_normal((4, 4))
    s = systems.build_system(a, rng.standard_normal((4, 2)))
    g1 = semigroup.observability_gramian(s, 0.7).matrix
    g2 = semigroup.observability_gramian(s, 1.9).matrix
    tol = 1e-10 * np.trace(g2)
    assert np.linalg.eigvalsh(g1).min() >= -tol
    assert np.linalg.eigvalsh(g2 - g1).min() >= -tol


@pytest.mark.parametrize("n", [2, 5, 10])
def test_batched_node_values_match_per_node_expm(n):
    rng = np.random.default_rng(n)
    a = rng.standard_normal((n, n)) / math.sqrt(n)
    r = rng.standard_normal((n, 2))
    horizon = 2.0
    for panels in (32, 48, 64, 65, 1024):
        chunks = list(semigroup._node_values(semigroup.ExpTable(a), r, horizon,
                                            panels, 8))
        assert len(chunks) == -(-panels // 64)
        values = np.hstack([v for v, _ in chunks])
        weights = np.concatenate([w for _, w in chunks])
        nodes, ref_weights = panel_nodes(0.0, horizon, panels, 8)
        assert np.allclose(weights, ref_weights, rtol=1e-14, atol=0.0)
        for i, t in enumerate(nodes):
            value = values[:, 2 * i:2 * i + 2]
            ref = expm(a * t) @ r
            assert np.linalg.norm(value - ref) <= 1e-13 * np.linalg.norm(ref)


def _per_node_gramian(s, horizon, quad):
    def integrand(t):
        eb = expm(s.a_matrix * t) @ s.b_matrix
        return eb @ eb.T

    value, _ = integrate_adaptive(per_node(integrand), 0.0, horizon,
                                  panels=quad.panels,
                                  npts=quad.nodes_per_panel,
                                  rel_tol=quad.rel_tol)
    return value


def _per_node_energy(s, horizon, phi, quad):
    a_t, bt = s.a_matrix.T, s.b_matrix.T
    amp = max(np.linalg.norm(expm(a_t * t) @ phi)
              for t in np.linspace(0.0, horizon, 9))
    floor = (1e-13 * np.linalg.norm(bt, 2) * amp) ** 2 * horizon

    def integrand(t):
        return float(np.sum((bt @ (expm(a_t * t) @ phi)) ** 2))

    def level(panels):
        return per_node(integrand)(*panel_nodes(0.0, horizon, panels,
                                                quad.nodes_per_panel))

    value, _ = refine(level, quad.panels, rel_tol=quad.rel_tol,
                      abs_tol=floor)
    return value


@pytest.mark.parametrize("n", [2, 5, 10])
def test_batched_quadratures_match_per_node_reference(n):
    rng = np.random.default_rng(100 + n)
    s = systems.build_system(rng.standard_normal((n, n)) / math.sqrt(n),
                             rng.standard_normal((n, 2)))
    for horizon in (0.5, 2.0, 4.0):
        for quad in (semigroup.DEFAULT_QUAD, QuadratureSpec(panels=48)):
            ref = _per_node_gramian(s, horizon, quad)
            g = semigroup.observability_gramian(s, horizon, quad).matrix
            assert np.linalg.norm(g - ref) <= 1e-12 * np.linalg.norm(ref)
            phi = rng.standard_normal(n)
            ref = _per_node_energy(s, horizon, phi, quad)
            energy = semigroup.observation_energy(s, horizon, phi, quad)
            assert abs(energy - ref) <= 1e-12 * ref


def test_energy_raises_when_refinement_cannot_settle():
    # a rotation at 1e5 rad/s leaves ~16 periods in each of 1024 panels
    omega = 1e5
    s = systems.build_system([[0.0, omega], [-omega, 0.0]], [[1.0], [0.0]])
    with pytest.raises(QuadratureError, match="failed to reach rel_tol"):
        semigroup.observation_energy(s, 1.0, [1.0, 0.0],
                                     QuadratureSpec(panels=1))


def test_energy_floor_carries_the_cross_term(monkeypatch):
    # a witness state of a dense n=7, m=1 pair whose observed trajectory
    # is small, not zero: its evaluation noise enters ||B^T y||^2 through
    # the cross term 2 ||B^T y|| delta, which the floor must admit, or the
    # levels disagree by chance and refinement runs to 4096 panels
    rng = np.random.default_rng([11, 38])
    s = systems.build_system(rng.standard_normal((7, 7)) / math.sqrt(7),
                             rng.standard_normal((7, 1)))
    witness = np.array([-0.1441452108886402, 0.341589912497847,
                        -0.18850651473315985, 0.6754255912809101,
                        -0.5871877441592982, 0.07493663214910226,
                        0.1428254482745899])
    panels = []
    original = semigroup._node_values

    def counted(*args):
        panels.append(args[3])
        return original(*args)

    monkeypatch.setattr(semigroup, "_node_values", counted)
    energy = semigroup.observation_energy(s, 2.0, witness)
    # refinement stops at the first doubling
    assert max(panels) == 2 * min(panels)
    assert energy == pytest.approx(2.7539854791650e-14, rel=1e-6)


def test_first_level_panels_follow_t_times_frobenius_norm():
    # P = min(quad.panels, 2^ceil(log2(T ||M||_F))), 1 up to T ||M||_F = 1:
    # a first-level panel is at most 1/||M||_F wide
    m = np.array([[0.0, 1.0], [0.0, 0.0]])      # ||M||_F = 1: T ||M||_F = T
    quad = semigroup.DEFAULT_QUAD

    def first(t, q=quad, scale=1.0):
        return semigroup._first_panels(semigroup.ExpTable(scale * m), t, q)

    for t, panels in [(0.25, 1), (1.0, 1), (1.5, 2), (2.0, 2), (2.5, 4),
                      (4.0, 4), (9.0, 16), (16.0, 16), (16.5, 32),
                      (32.0, 32), (40.0, 32), (1e300, 32)]:
        assert first(t) == panels
        # (M, T) -> (2^k M, T/2^k) keeps T ||M||_F, so it keeps P
        for k in (-3, 5):
            assert first(t / 2.0**k, scale=2.0**k) == panels
    # quad.panels caps the count, a power of two or not
    for t, panels in [(1.5, 2), (2.5, 4), (16.5, 4), (1e300, 4)]:
        assert first(t, QuadratureSpec(panels=4)) == panels
    for t, panels in [(16.5, 32), (40.0, 48), (64.0, 48)]:
        assert first(t, QuadratureSpec(panels=48)) == panels
    # diagonal systems keep their graded panels
    for t in (1e-6, 1.0, 1e3):
        table = semigroup.ExpTable(np.diag([-1e3, 1.0]), diagonal=True)
        assert semigroup._first_panels(table, t, quad) == quad.panels


def test_first_level_reaches_node_values(monkeypatch):
    rng = np.random.default_rng(15)
    dense = systems.build_system(rng.standard_normal((5, 5)) / math.sqrt(5),
                                 rng.standard_normal((5, 2)))
    diag = systems.build_system(np.diag(-np.arange(1.0, 6.0)),
                                rng.standard_normal((5, 1)))
    phi = rng.standard_normal(5)
    norm = np.linalg.norm(dense.a_matrix)
    panels = []
    original = semigroup._node_values

    def counted(*args):
        panels.append(args[3])
        return original(*args)

    monkeypatch.setattr(semigroup, "_node_values", counted)
    # T ||A||_F > 16 keeps the 32 then 64 panels of quad.panels
    for scale, want in ((20.0, 32), (3.0, 4), (0.5, 1)):
        for run in (lambda t: semigroup.observability_gramian(dense, t),
                    lambda t: semigroup.observation_energy(dense, t, phi)):
            panels.clear()
            run(scale / norm)
            assert panels[:2] == [want, 2 * want]
            if want == 32:
                assert panels == [32, 64]
    for run in (lambda: semigroup.observability_gramian(diag, 0.01),
                lambda: semigroup.observation_energy(diag, 0.01, phi)):
        panels.clear()
        run()
        assert panels[0] == semigroup.DEFAULT_QUAD.panels


def test_gramian_factor_squares_to_the_matrix():
    rng = np.random.default_rng(4)
    dense = systems.build_system(rng.standard_normal((5, 5)) / math.sqrt(5),
                                 rng.standard_normal((5, 2)))
    diag = systems.build_system(np.diag(-np.arange(1.0, 6.0)),
                                rng.standard_normal((5, 1)))
    for s in (dense, diag):
        g = semigroup.observability_gramian(s, 1.5)
        r = g.factor
        assert np.allclose(r, np.triu(r))
        gap = np.linalg.norm(r.T @ r - g.matrix)
        assert gap <= 1e-10 * np.linalg.norm(g.matrix)


def test_gramian_factor_floor_separates_the_unobserved_direction():
    # an eigenvalue +1 whose left eigenvector annihilates B: ||R v|| stays
    # under the factor's rounding floor, every other direction far above
    rng = np.random.default_rng(5)
    q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
    a = q @ np.diag([1.0, -0.5, -1.5, -3.0]) @ q.T
    b = rng.standard_normal((4, 2))
    b -= np.outer(q[:, 0], q[:, 0] @ b)
    s = systems.build_system(a, b)
    g = semigroup.observability_gramian(s, 4.0)
    floor = semigroup.gramian_floor(s, 4.0)
    sig = np.linalg.svd(g.factor, compute_uv=False)
    assert np.linalg.norm(g.factor @ q[:, 0]) <= floor
    assert sig[-1] <= floor < 1e3 * floor < sig[-2]


def test_diagonal_gramian_keeps_the_quadrature_error_estimate():
    # the estimate is the last level-to-level difference of R^T R, which
    # met the refinement's stopping rule
    rng = np.random.default_rng(8)
    s = systems.build_system(np.diag(-np.arange(1.0, 6.0)),
                             rng.standard_normal((5, 2)))
    g = semigroup.observability_gramian(s, 1.5)
    assert 0.0 < g.quadrature_error_estimate \
        <= semigroup.DEFAULT_QUAD.rel_tol * np.linalg.norm(g.matrix)


@pytest.mark.parametrize("n", [3, 6, "diagonal"])
def test_gramian_floor_reads_the_transition_norm_probe(n):
    rng = np.random.default_rng(9)
    if n == "diagonal":
        s = systems.build_system(np.diag(rng.standard_normal(4)),
                                 rng.standard_normal((4, 2)))
    else:
        s = systems.build_system(rng.standard_normal((n, n)),
                                 rng.standard_normal((n, 1)))
    for horizon in (0.5, 1.7, 4.0):
        a_t = _per_time_norms(s, np.linspace(0.0, horizon, 9)).max()
        assert semigroup.gramian_floor(s, horizon) == (
            s.n * np.finfo(float).eps * np.linalg.norm(s.b_matrix, 2) * a_t
            * np.sqrt(horizon))


def test_shared_table_leaves_gramians_bit_identical():
    rng = np.random.default_rng(10)
    s = systems.build_system(rng.standard_normal((5, 5)) / math.sqrt(5),
                             rng.standard_normal((5, 2)))
    table = semigroup.ExpTable(s.a_matrix)
    for horizon in (0.5, 1.0, 2.0, 4.0):
        shared = semigroup.observability_gramian(s, horizon, table=table)
        alone = semigroup.observability_gramian(s, horizon)
        assert np.array_equal(shared.factor, alone.factor)
        assert np.array_equal(shared.matrix, alone.matrix)
        assert (semigroup.gramian_floor(s, horizon, table=table)
                == semigroup.gramian_floor(s, horizon))
        assert (shared.quadrature_error_estimate
                == alone.quadrature_error_estimate)
        assert np.array_equal(table.stack([horizon])[0],
                              semigroup.transition_matrix(s, horizon))
    with pytest.raises(ValueError, match="table"):
        semigroup.observability_gramian(s, 1.0,
                                        table=semigroup.ExpTable(-s.a_matrix))


def _bracket_probes(floor, lo, hi):
    """Values at and around a floor and its bracket's ends."""
    u = np.finfo(float).eps
    around = [floor * (1.0 + k * u) for k in range(-8, 9)]
    ends = [v for e in (lo, hi)
            for v in (e, np.nextafter(e, 0.0), np.nextafter(e, np.inf),
                      e * (1.0 - 1e-3), e * (1.0 + 1e-3))]
    return np.array(around + ends + [0.0, np.inf, np.nan])


@pytest.mark.parametrize("kind, n, m", [
    ("dense", 1, 1), ("dense", 1, 4), ("dense", 3, 5), ("dense", 6, 2),
    ("diagonal", 1, 1), ("diagonal", 2, 5), ("diagonal", 5, 2),
    ("tiny-b", 3, 2)])
def test_floor_bracket_decides_as_the_exact_floor(kind, n, m, monkeypatch):
    # every comparison through the bracket returns x <= floor (or x >
    # floor) of the exact floor, on values at the floor (1 +- k u), at
    # the bracket's ends and just past them, 0, inf and nan; a compared
    # array wholly outside (lo, hi] forms no floor
    rng = np.random.default_rng([30, n, m])
    if kind == "diagonal":
        a = np.diag(rng.uniform(-3.0, 1.0, n))
    else:
        a = rng.standard_normal((n, n)) / math.sqrt(n)
    b = rng.standard_normal((n, m)) * (1e-200 if kind == "tiny-b" else 1.0)
    s = systems.build_system(a, b)
    assert s.is_diagonal or kind != "diagonal"
    formed = []
    floor_of = semigroup.gramian_floor

    def counted(*args, **kwargs):
        formed.append(1)
        return floor_of(*args, **kwargs)

    for horizon in (0.3, 1.0, 4.0):
        floor = semigroup.gramian_floor(s, horizon)
        bracket = semigroup.floor_bracket(s, horizon)
        assert bracket.lo <= floor <= bracket.hi
        if n == 1:
            # rank 1: lo = hi up to the margin
            assert bracket.hi <= bracket.lo * (1.0 + 1e-8)
        if kind == "tiny-b":
            # ||B||_F below the normal range of its square: the floor is
            # formed at once
            assert bracket.lo == bracket.hi == floor
        values = _bracket_probes(floor, bracket.lo, bracket.hi)
        for x in values:
            assert bracket.at_or_below(x) == (x <= floor)
            assert bracket.above(x) == (x > floor)
        assert np.array_equal(bracket.at_or_below(values), values <= floor)
        assert np.array_equal(bracket.above(values), values > floor)
        outside = values[(values <= bracket.lo) | (values > bracket.hi)]
        monkeypatch.setattr(semigroup, "gramian_floor", counted)
        fresh = semigroup.floor_bracket(s, horizon)
        assert np.array_equal(fresh.at_or_below(outside), outside <= floor)
        assert np.array_equal(fresh.above(outside), outside > floor)
        monkeypatch.undo()
        assert len(formed) == (kind == "tiny-b")
        formed.clear()


def test_a_known_floor_brackets_itself():
    # Forms.of's float floor: lo = hi = floor, and only nan forms nothing
    # new
    bracket = semigroup.FloorBracket.of(0.25)
    values = np.array([0.0, 0.25, np.nextafter(0.25, 1.0), np.inf, np.nan])
    assert np.array_equal(bracket.at_or_below(values), values <= 0.25)
    assert np.array_equal(bracket.above(values), values > 0.25)
    assert bracket.value == 0.25


def test_shared_table_leaves_energies_bit_identical():
    rng = np.random.default_rng(10)
    s = systems.build_system(rng.standard_normal((5, 5)) / math.sqrt(5),
                             rng.standard_normal((5, 2)))
    table = semigroup.ExpTable(s.a_matrix.T)
    for horizon in (0.5, 1.0, 2.0):
        for phi in rng.standard_normal((3, 5)):
            assert (semigroup.observation_energy(s, horizon, phi,
                                                 table=table)
                    == semigroup.observation_energy(s, horizon, phi))
    with pytest.raises(ValueError, match="table"):
        semigroup.observation_energy(s, 1.0, phi,
                                     table=semigroup.ExpTable(s.a_matrix))


def _rotating_pair(speed):
    """n = 4, m = 2: a rotation of Frobenius norm `speed` decaying at 0.5,
    so long horizons need many panels without overflowing."""
    rng = np.random.default_rng(3)
    g = rng.standard_normal((4, 4))
    skew = (g - g.T) / np.linalg.norm(g - g.T)
    return systems.build_system(speed * skew - 0.5 * np.eye(4),
                                rng.standard_normal((4, 2)))


def _sweep_gramians(monkeypatch, s, horizons):
    """{T: (the GramianResult, the floor bracket) a weakobs sweep over
    `horizons` formed}."""
    built, brackets = {}, {}

    def kept(sys, horizon, quad=None, *, table=None):
        built[horizon] = semigroup.observability_gramian(sys, horizon, quad,
                                                         table=table)
        return built[horizon]

    def kept_bracket(sys, horizon, *, table=None):
        brackets[horizon] = semigroup.floor_bracket(sys, horizon,
                                                    table=table)
        return brackets[horizon]

    monkeypatch.setattr(weakobs, "observability_gramian", kept)
    monkeypatch.setattr(weakobs, "floor_bracket", kept_bracket)
    weakobs.sweep_alpha(s, [1.0, 2.0], horizons, samples=10)
    return {t: (built[t], brackets[t]) for t in built}


def _first_widths(s, horizons):
    return [t / semigroup._first_panels(semigroup.ExpTable(s.a_matrix), t,
                                        semigroup.DEFAULT_QUAD)
            for t in horizons]


@pytest.mark.parametrize("case", ["dyadic", "cap", "third-doubling",
                                  "non-dyadic", "diagonal", "48-cap"])
def test_sweep_gramians_equal_single_horizon_calls(case, monkeypatch):
    # a sweep's Gramians share node values between horizons; each must
    # still be bit for bit the Gramian of a fresh single-horizon call
    rng = np.random.default_rng(21)
    t = 1.0010030090270812
    horizons = {"dyadic": (0.5, 1.0, 2.0, 4.0), "cap": (2.0, 4.0, 8.0),
                "third-doubling": (2.0, 4.0, 8.0), "non-dyadic": (0.7, 1.3),
                "diagonal": (0.5, 1.0, 2.0, 4.0), "48-cap": (t, 3 * t)}[case]
    if case == "dyadic":
        s = systems.build_system(rng.standard_normal((5, 5)) / math.sqrt(5),
                                 rng.standard_normal((5, 2)))
    elif case == "cap":
        s = _rotating_pair(6.0)
        # T = 8 starts at the 32-panel cap, twice as wide as T = 4's panels
        widths = _first_widths(s, horizons)
        assert widths[2] == 2 * widths[1] == 2 * widths[0]
    elif case == "third-doubling":
        s = _rotating_pair(50.0)
    elif case == "non-dyadic":
        s = systems.build_system(rng.standard_normal((4, 4)) / 2.0,
                                 rng.standard_normal((4, 1)))
    elif case == "diagonal":
        s = systems.build_system(np.diag(-rng.uniform(0.1, 5.0, 5)),
                                 rng.standard_normal((5, 2)))
        assert s.is_diagonal
    else:
        # a 48-panel cap: T starts at 16 panels and 3T at 48 of the same
        # float width, but 3T's panel starts are not T's, so nothing is
        # shared
        monkeypatch.setattr(semigroup, "DEFAULT_QUAD",
                            QuadratureSpec(panels=48))
        s = _rotating_pair(12.0)
        assert _first_widths(s, horizons)[0] == _first_widths(s, horizons)[1]
        assert not np.array_equal(t * np.arange(16) / 16,
                                  3 * t * np.arange(16) / 48)
    panels = []
    original = semigroup._node_values

    def counted(table, r, horizon, count, npts):
        panels.append(count)
        return original(table, r, horizon, count, npts)

    monkeypatch.setattr(semigroup, "_node_values", counted)
    built = _sweep_gramians(monkeypatch, s, horizons)
    if case == "third-doubling":
        assert max(panels) == 4 * 64
    assert sorted(built) == list(horizons)
    for horizon, (shared, bracket) in built.items():
        alone = semigroup.observability_gramian(s, horizon)
        assert np.array_equal(shared.factor, alone.factor)
        assert (shared.quadrature_error_estimate
                == alone.quadrature_error_estimate)
        # the floor the bracket forms on the sweep's table, when read
        floor = semigroup.gramian_floor(s, horizon)
        assert bracket.value == floor
        assert bracket.lo <= floor <= bracket.hi


def test_sweep_evaluates_each_panel_width_once(monkeypatch):
    # a dyadic 4-horizon sweep: the longest horizon is integrated first,
    # and every shorter horizon's levels slice its node values
    rng = np.random.default_rng(21)
    s = systems.build_system(rng.standard_normal((5, 5)) / math.sqrt(5),
                             rng.standard_normal((5, 2)))
    horizons = (0.5, 1.0, 2.0, 4.0)
    levels, evaluated = [], []
    node_values = semigroup._node_values
    panel_values = semigroup._panel_values

    def levels_seen(table, r, horizon, panels, npts):
        levels.append((horizon, panels))
        return node_values(table, r, horizon, panels, npts)

    def evaluated_seen(table, r, offsets, starts):
        evaluated.extend((offsets.tobytes(), t) for t in starts)
        return panel_values(table, r, offsets, starts)

    monkeypatch.setattr(semigroup, "_node_values", levels_seen)
    monkeypatch.setattr(semigroup, "_panel_values", evaluated_seen)
    weakobs._horizons(s, horizons, 10, 0)
    assert {t for t, _ in levels} == set(horizons)
    assert levels[0][0] == 4.0
    # every width of a shorter horizon's levels is one of the longest's
    assert len(set(_first_widths(s, horizons))) == 1
    x, _ = gauss_legendre_rule(semigroup.DEFAULT_QUAD.nodes_per_panel)
    longest = {((4.0 / (2.0 * p) * (1.0 + x)).tobytes(), 4.0 * k / p)
               for t, p in levels if t == 4.0 for k in range(p)}
    assert len(evaluated) == len(set(evaluated))
    assert set(evaluated) == longest


@pytest.mark.parametrize("diagonal", [False, True])
def test_exp_table_gathers_fresh_slices(diagonal):
    rng = np.random.default_rng(12)
    m = (np.diag(rng.standard_normal(4)) if diagonal
         else rng.standard_normal((4, 4)))
    table = semigroup.ExpTable(m, diagonal)
    asked = set()
    # unsorted, duplicated, overlapping calls, enough to grow the store
    for times in ([0.5, 0.0, 0.5, 2.0], [2.0, 0.25, 3.0, 0.25],
                  list(rng.uniform(0.0, 4.0, 9)) + [0.5, 0.5],
                  [3.0, 0.0], list(np.linspace(0.0, 4.0, 17))):
        times = np.array(times)
        got = table.stack(times)
        fresh = semigroup._exp_stack(m, times, diagonal)
        assert got.shape == fresh.shape
        assert got.tobytes() == fresh.tobytes()
        asked.update(times.tolist())
        assert len(table._slot) == len(asked)
    # a lookup is a copy: writing to it leaves the table as it was
    got[:] = 0.0
    assert (table.stack([3.0]).tobytes()
            == semigroup._exp_stack(m, np.array([3.0]), diagonal).tobytes())


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_shifted_view_matches_a_fresh_expm(seed, monkeypatch):
    rng = np.random.default_rng([13, seed])
    n = 3 + 2 * seed
    m = rng.standard_normal((n, n)) / math.sqrt(n)
    table = semigroup.ExpTable(m)
    table.stack([0.5, 1.0])                 # hits and misses of the parent
    for s in (-1.0, 0.3, -2.5):
        view = table.shifted(s)
        assert np.array_equal(view.matrix, m + s * np.eye(n))
        times = np.array([0.0, 0.25, 0.5, 1.0, 1.7, 3.0])
        got = view.stack(times)
        assert np.array_equal(got, np.exp(s * times)[:, None, None]
                              * table.stack(times))
        # beyond t = 1.7 the two differ by expm's own error: at t = 3 on
        # seed 0 the parent's expm(3 M) is 1.9e-13 off a 40-digit value
        for slice_, t in zip(got[:-1], times[:-1]):
            fresh = expm((m + s * np.eye(n)) * t)
            assert (np.linalg.norm(slice_ - fresh)
                    <= 1e-13 * np.linalg.norm(fresh))
    # a fresh view of a filled parent computes no exponential at all
    monkeypatch.setattr(semigroup, "expm", None)
    table.shifted(-1.0).stack([0.5, 1.0, 1.7])


def test_transposed_view_transposes_the_table(monkeypatch):
    rng = np.random.default_rng(16)
    s = systems.build_system(rng.standard_normal((4, 4)) / 2.0,
                             rng.standard_normal((4, 1)))
    table = semigroup.ExpTable(s.a_matrix)
    table.stack([0.5, 1.0])                 # hits and misses of the parent
    view = table.transposed()
    assert np.array_equal(view.matrix, s.a_matrix.T)
    times = np.array([0.0, 0.25, 0.5, 1.0, 1.7])
    assert np.array_equal(view.stack(times),
                          table.stack(times).transpose(0, 2, 1))
    phi = rng.standard_normal(4)
    through_view = semigroup.observation_energy(s, 1.5, phi, table=view)
    assert through_view == pytest.approx(
        semigroup.observation_energy(s, 1.5, phi), rel=1e-13)
    # a fresh view of a filled parent computes no exponential at all
    monkeypatch.setattr(semigroup, "_exp_stack", None)
    table.transposed().stack(times)


def test_shifted_view_of_a_diagonal_table():
    lam = np.array([-3.0, -0.5, 0.2, 1.0])
    table = semigroup.ExpTable(np.diag(lam), diagonal=True)
    view = table.shifted(-1.0)
    assert view.diagonal
    times = np.array([0.0, 0.5, 2.0])
    want = semigroup._exp_stack(np.diag(lam - 1.0), times, True)
    np.testing.assert_allclose(view.stack(times), want, rtol=1e-15, atol=0)
    g = semigroup.observability_gramian(
        systems.build_system(np.diag(lam - 1.0), np.ones((4, 1))), 1.0,
        table=view)
    alone = semigroup.observability_gramian(
        systems.build_system(np.diag(lam - 1.0), np.ones((4, 1))), 1.0)
    np.testing.assert_allclose(g.matrix, alone.matrix, rtol=1e-14, atol=0)


def test_own_table_takes_a_shifted_view_for_the_shifted_system_only():
    rng = np.random.default_rng(14)
    a = rng.standard_normal((4, 4)) / 2.0
    table = semigroup.ExpTable(a)
    view = table.shifted(-1.0)
    shifted = a - 1.0 * np.eye(4)
    assert semigroup._own_table(view, shifted, False, "A") is view
    with pytest.raises(ValueError, match="table"):
        semigroup._own_table(view, a, False, "A")
    with pytest.raises(ValueError, match="table"):
        semigroup._own_table(table, shifted, False, "A")


def test_gauss_legendre_rule_is_built_once_and_read_only():
    x, w = gauss_legendre_rule(8)
    again = gauss_legendre_rule(8)
    assert again[0] is x and again[1] is w
    assert not x.flags.writeable and not w.flags.writeable
    ref_x, ref_w = np.polynomial.legendre.leggauss(8)
    assert np.array_equal(x, ref_x) and np.array_equal(w, ref_w)


def test_transition_matrix_and_grid_norms_reach_exp_stack(monkeypatch):
    # `_exp_stack` is the one caller of `expm`: a transition matrix is one
    # of its slices, bit for bit a fresh expm(A t) or the exact diagonal
    calls = []
    original = semigroup._exp_stack

    def spy(m, times, diagonal):
        calls.append((id(m), times.tolist(), diagonal))
        return original(m, times, diagonal)

    monkeypatch.setattr(semigroup, "_exp_stack", spy)
    rng = np.random.default_rng(3)
    for n in (2, 4, 9):
        dense = systems.build_system(rng.standard_normal((n, n)),
                                     rng.standard_normal((n, 1)))
        diag = systems.build_system(np.diag(rng.standard_normal(n)),
                                    rng.standard_normal((n, 1)))
        for t in (0.0, 0.3, 2.7):
            calls.clear()
            fresh = expm(dense.a_matrix * t)
            for adjoint in (False, True):
                got = semigroup.transition_matrix(dense, t, adjoint=adjoint)
                want = fresh.T if adjoint else fresh
                assert got.tobytes() == want.tobytes()
            exact = np.diag(np.exp(np.diag(diag.a_matrix) * t))
            assert (semigroup.transition_matrix(diag, t).tobytes()
                    == exact.tobytes())
            assert calls == [(id(dense.a_matrix), [t], False)] * 2 + [
                (id(diag.a_matrix), [t], True)]
        calls.clear()
        semigroup.grid_norms(dense, 10.0, 200)
        assert calls == [(id(dense.a_matrix), [10.0 / 199], False)]


def _per_time_norms(s, times):
    return np.array([np.linalg.norm(semigroup.transition_matrix(s, t), 2)
                     for t in times])


def _grid_system(n):
    rng = np.random.default_rng(7)
    if n == "diagonal":
        return systems.build_system(np.diag(rng.standard_normal(7)),
                                    rng.standard_normal((7, 2)))
    return systems.build_system(rng.standard_normal((n, n)) / math.sqrt(n),
                                rng.standard_normal((n, 2)))


def _overflowing_system():
    # e^{At} overflows on [0, 10], and the SVD of its norms' stack fails
    rng = np.random.default_rng(20)
    return systems.build_system(30.0 * rng.standard_normal((20, 20)),
                                rng.standard_normal((20, 2)))


@pytest.mark.parametrize("n", [2, 5, 10, 20, "diagonal"])
def test_grid_norms_against_high_precision_oracle(n, grid_norm_oracle):
    s = _grid_system(n)
    for grid in (1, 2, 9, 200):
        norms = semigroup.grid_norms(s, 10.0, grid)
        assert norms.shape == (grid,) and norms[0] == 1.0
        np.testing.assert_allclose(
            norms, grid_norm_oracle(s.a_matrix, 10.0, grid), rtol=1e-13)


def test_grid_norms_validate_their_grid():
    s = _grid_system(2)
    for grid in (0, -3):
        with pytest.raises(ValueError, match="grid"):
            semigroup.grid_norms(s, 10.0, grid)
    with pytest.raises(ValueError):
        semigroup.grid_norms(s, -1.0, 5)
    assert np.array_equal(semigroup.grid_norms(s, 0.0, 3), np.ones(3))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_grid_norms_raise_where_the_loop_does():
    s = _overflowing_system()
    with pytest.raises(np.linalg.LinAlgError):
        _per_time_norms(s, np.linspace(0.0, 10.0, 200))
    with pytest.raises(np.linalg.LinAlgError):
        semigroup.grid_norms(s, 10.0, 200)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_kept_grid_norms_error_does_not_keep_the_stack():
    s = _overflowing_system()
    stack_bytes = 200 * s.n * s.n * 8
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        with pytest.raises(np.linalg.LinAlgError) as kept:
            semigroup.grid_norms(s, 10.0, 200)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert kept.value.__context__ is None
    assert held < stack_bytes / 8



def _folded_peak(s, horizon, grid, rate):
    """The fold `stabilize` makes of the decay curve it writes: the peak
    of ||e^{At}|| e^{rate t} over the grid of `grid_norms`."""
    times = np.linspace(0.0, horizon, grid)
    return float(max(norm * math.exp(rate * t) for t, norm in
                     zip(times.tolist(), semigroup.grid_norms(s, horizon,
                                                              grid))))


def _peak_system(kind):
    rng = np.random.default_rng(9)
    if kind == "jordan":
        a = -0.5 * np.eye(6) + np.eye(6, k=1)
    elif kind == "skew":
        # e^{At} is orthogonal: every norm ties at 1
        g = rng.standard_normal((6, 6))
        a = g - g.T
    else:
        return _grid_system(kind)
    return systems.build_system(a, rng.standard_normal((6, 2)))


@pytest.mark.parametrize("kind", [2, 5, 10, 20, "jordan", "skew",
                                  "diagonal"])
def test_grid_peak_equals_the_full_curve_fold(kind, grid_norm_oracle):
    # the grid peak against the same fold of the 40-digit curve
    s = _peak_system(kind)
    for grid in (1, 2, 3, 200):
        times = np.linspace(0.0, 10.0, grid).tolist()
        exact = grid_norm_oracle(s.a_matrix, 10.0, grid)
        for rate in (-0.7, 0.0, 0.3):
            peak = _folded_peak(s, 10.0, grid, rate)
            assert type(peak) is float
            assert peak == pytest.approx(
                max(norm * math.exp(rate * t)
                    for t, norm in zip(times, exact)), rel=1e-13)
    # math.exp(1000 t) overflows from t = 0.71 on
    with pytest.raises(OverflowError):
        _folded_peak(s, 10.0, 200, 1000.0)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("n", [5, 10, 20])
def test_grid_peak_equals_the_fold_on_feedback_loops(n, tmp_path):
    # every closed loop `solve_shifted_riccati` synthesizes at mu = 1, 2, 4:
    # `stabilize` reports the fold of its curve at the measured rate, or
    # exits 3 where the fold raises
    rng = np.random.default_rng([20, n])
    loops = 0
    for pair in range(4):
        a = rng.standard_normal((n, n)) / math.sqrt(n)
        b = rng.standard_normal((n, 2))
        s = systems.build_system(a, b)
        spec = json.dumps({"kind": "matrix", "a": a.tolist(),
                           "b": b.tolist()})
        for mu in (1.0, 2.0, 4.0):
            try:
                res = feedback.solve_shifted_riccati(s, mu)
            except (RuntimeError, np.linalg.LinAlgError):
                continue
            loops += 1
            closed = systems.build_system(a + b @ res.gain_k, b)
            out = tmp_path / f"{pair}-{mu}"
            code = cli.main(["stabilize", "--system", spec, "--mu", str(mu),
                             "--out", str(out)])
            try:
                peak = _folded_peak(closed, 10.0, 200, res.measured_rate)
            except (np.linalg.LinAlgError, OverflowError):
                assert code == 3
                continue
            assert code == 0
            report = json.loads((out / "report.json").read_text())
            assert report["measured_rate"] == res.measured_rate
            assert report["measured_overshoot"] == peak
    assert loops >= 4

def _positive_overflow_system():
    # all entries of e^{At} are positive: the doubling overflows to inf
    # and forms no 0 * inf, so the stack holds inf but no nan
    return systems.build_system(np.array([[700.0, 1.0], [1.0, 700.0]]),
                                np.ones((2, 1)))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_norms_of_an_overflowed_stack_without_nan_raise():
    s = _positive_overflow_system()
    with pytest.raises(np.linalg.LinAlgError):
        semigroup.grid_norms(s, 10.0, 200)


def test_gramian_result_rejects_nonpositive_horizon():
    for horizon in (0.0, -1.0):
        with pytest.raises(ValueError, match="horizon"):
            semigroup.GramianResult(np.eye(2), horizon, 0.0)


def test_gramian_result_forms_the_matrix_from_its_factor():
    r = np.array([[2.0, -1.0], [0.0, 0.5]])
    g = semigroup.GramianResult(r, 1.0, 0.0)
    assert np.array_equal(g.matrix, r.T @ r)
    phi = np.array([0.3, -1.2])
    assert g.quad_form(phi) == pytest.approx(phi @ r.T @ r @ phi, rel=1e-15)


def test_quadrature_spec_validation():
    with pytest.raises(ValueError):
        QuadratureSpec(panels=0)
    for rel_tol in (0.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="rel_tol"):
            QuadratureSpec(rel_tol=rel_tol)


# ---------------------------------------------------------------------------
# dissipative tail bound
# ---------------------------------------------------------------------------

def _worst_tail_ratio(spec, fam, t_grid):
    """max over entries and times of sup ||(I - P_k) e^{A* t} phi|| over
    unit phi, which for a diagonal A is max_{j >= m} e^{lambda_j t}, over
    the bound M_k e^{-alpha_k t}."""
    worst = 0.0
    for k in fam.ks:
        m, m_k, alpha_k = fam.entry(k)
        for t in t_grid:
            tail = float(np.exp(spec.eigenvalues[m:] * t).max(initial=0.0))
            bound = m_k * math.exp(-alpha_k * t) if math.isfinite(alpha_k) \
                else 0.0
            worst = max(worst, 0.0 if tail == 0.0 else tail / bound)
    return worst


def test_tail_check_integer_spectrum():
    spec = systems.SpectralSystem(-np.arange(1.0, 7.0), np.ones((6, 1)))
    fam = systems.spectral_projection_family(spec, k_max=4)
    worst = _worst_tail_ratio(spec, fam, np.linspace(0, 3, 7))
    assert worst == pytest.approx(1.0, rel=1e-14)


def test_tail_check_saturates_on_first_discarded_mode():
    spec = systems.SpectralSystem(-np.arange(1.0, 4.0), np.ones((3, 1)))
    fam = systems.spectral_projection_family(spec, k_max=1)
    # a state concentrated on the first discarded mode achieves ratio 1
    lam = spec.eigenvalues
    m, m_k, alpha_k = fam.entry(1)
    t = 0.8
    lhs = abs(math.exp(lam[m] * t))
    assert lhs == pytest.approx(m_k * math.exp(-alpha_k * t), rel=1e-14)


def test_tail_check_point_heat_family():
    spec = systems.point_control_heat(0.31, 1.0, 10)
    fam = systems.spectral_projection_family(
        spec, cut_rule=lambda k: (k * np.pi) ** 2 - 1.0 + 1e-9, k_max=4)
    worst = _worst_tail_ratio(spec, fam, np.linspace(0.0, 2.0, 9))
    assert worst <= 1.0 + 1e-12


def test_tail_vanishes_on_projected_states():
    # a state inside the projection range leaves nothing in the tail
    spec = systems.SpectralSystem(-np.arange(1.0, 5.0), np.ones((4, 1)))
    fam = systems.spectral_projection_family(spec, k_max=2)
    m, _, _ = fam.entry(2)
    phi = np.zeros(4)
    phi[:m] = [0.6, -0.8]
    tail = np.exp(spec.eigenvalues[m:] * 1.3) * phi[m:]
    assert np.linalg.norm(tail) == 0.0


def test_adaptive_quadrature_reports_failure():
    rng = np.random.default_rng(0)

    def noisy(t):
        return 1.0 + rng.standard_normal()      # never settles

    with pytest.raises(QuadratureError):
        integrate_adaptive(per_node(noisy), 0.0, 1.0, panels=2, npts=4,
                           rel_tol=1e-12)
