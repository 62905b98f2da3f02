import math

import numpy as np
import pytest

from helpers import rk4_fundamental_loop, spectral_matrix_reference
from saext import spectral
from saext.boundary import BoundaryCondition, random_unitary
from saext.geometry import IntervalSet
from saext.potentials import (
    CallablePotential,
    ConstantPotential,
    PotentialError,
    SampledPotential,
    ZeroPotential,
)
from saext.spectral import (
    FundamentalTraces,
    TraceIntegrationError,
    find_spectrum,
    fundamental_traces,
    odot,
    secular_matrix,
    spectral_det,
    spectral_det_closed_1,
    spectral_det_parametrized,
    spectral_matrix,
    unitary_from_su2_phase,
)

TWO_PI = 2 * math.pi
GEOM = IntervalSet([(0.0, TWO_PI)])
FREE = ZeroPotential()


# ------------------------------------------------------------ hadamard algebra

def test_odot_against_direct_blocks():
    rng = np.random.default_rng(3)
    for n in (1, 3):
        u = random_unitary(2 * n, rng)
        psi = rng.standard_normal((2 * n, 2)) + 1j * rng.standard_normal((2 * n, 2))
        out = odot(u, psi)
        u11, u12 = u[:n, :n], u[:n, n:]
        u21, u22 = u[n:, :n], u[n:, n:]
        pl, pr = psi[:n], psi[n:]
        for col in (0, 1):
            top = u11 * pl[:, col][None, :] + u12 * pr[:, col][None, :]
            bottom = u21 * pl[:, col][None, :] + u22 * pr[:, col][None, :]
            assert np.array_equal(out[:n, col * n:(col + 1) * n], top)
            assert np.array_equal(out[n:, col * n:(col + 1) * n], bottom)


def test_hadamard_matrix_defining_property():
    # each column block of odot is a Hadamard matrix T . X with
    # (T . X) y = T (X . y), X . y the componentwise product
    rng = np.random.default_rng(1)
    n = 2
    t = rng.standard_normal((2 * n, 2 * n)) + 1j * rng.standard_normal((2 * n, 2 * n))
    psi = rng.standard_normal((2 * n, 2)) + 1j * rng.standard_normal((2 * n, 2))
    out = odot(t, psi)
    for col in (0, 1):
        y = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        lhs = out[:, col * n:(col + 1) * n] @ y
        rhs = t @ (psi[:, col] * np.concatenate([y, y]))
        assert np.max(np.abs(lhs - rhs)) <= 1e-13


def test_odot_shape_checks():
    with pytest.raises(ValueError):
        odot(np.eye(3), np.ones((3, 2)))
    with pytest.raises(ValueError):
        odot(np.eye(4), np.ones((4, 3)))


# ------------------------------------------------------------------- traces

def _paper_wronskians(lam):
    """Closed-form trace determinants for the free particle on [0, 2pi]
    with mass factor 1/2 in the exponential basis."""
    k = np.sqrt(complex(2 * lam))
    s, c = np.sin(TWO_PI * k), np.cos(TWO_PI * k)
    return {
        ("l", "r", -1, -1): -2j * (1 + 2 * lam) * s - 4 * k * c,
        ("l", "l", +1, -1): 4 * k,
        ("r", "r", -1, +1): 4 * k,
        ("r", "l", -1, +1): 2j * (1 - 2 * lam) * s,
        ("r", "l", +1, -1): 2j * (1 - 2 * lam) * s,
        ("l", "r", +1, +1): -2j * (1 + 2 * lam) * s + 4 * k * c,
    }


def _w(traces, side1, side2, sign1, sign2):
    from saext.spectral import _w_combo

    return _w_combo(traces, side1, side2, sign1, sign2)


@pytest.mark.parametrize("lam", [0.3, 1.7, 4.9, 8.25])
def test_exponential_traces_reproduce_trace_determinants(lam):
    traces = fundamental_traces(FREE, GEOM, lam, mu=0.5, basis="exponential")
    for key, expected in _paper_wronskians(lam).items():
        got = _w(traces, *key)
        assert abs(got - expected) <= 1e-12 * max(1.0, abs(expected))


def test_normalized_traces_at_zero_energy():
    # limit basis {1, x}: finite traces, unit wronskian
    traces = fundamental_traces(FREE, GEOM, 0.0, mu=1.0)
    assert traces.psi_l[0, 0] == 1.0
    assert traces.dpsi_l[0, 0] == 0.0
    assert traces.psi_r[0, 0] == 1.0
    assert traces.dpsi_r[0, 0] == 0.0
    assert traces.psi_l[0, 1] == 0.0
    assert traces.dpsi_l[0, 1] == -1.0
    assert traces.psi_r[0, 1] == pytest.approx(TWO_PI)
    assert traces.dpsi_r[0, 1] == 1.0
    assert traces.wronskians()[0] == pytest.approx(1.0)


def test_exponential_basis_rejected_at_degeneracy():
    with pytest.raises(ValueError, match="degenerates"):
        fundamental_traces(FREE, GEOM, 0.0, mu=1.0, basis="exponential")


def test_below_plateau_traces_are_real_growing():
    # constant V = 5, lam = 1 < 5: hyperbolic solutions, nonzero wronskian
    pot = ConstantPotential([5.0])
    traces = fundamental_traces(pot, GEOM, 1.0, mu=1.0)
    kappa = math.sqrt(4.0)
    length = TWO_PI
    assert traces.psi_r[0, 0] == pytest.approx(math.cosh(kappa * length), rel=1e-12)
    assert traces.psi_r[0, 1] == pytest.approx(
        math.sinh(kappa * length) / kappa, rel=1e-12
    )
    assert abs(traces.wronskians()[0] - 1.0) <= 1e-12
    # oracle: the closed forms satisfy the differential equation; check the
    # second difference of cosh against (V - lam) / mu times the value
    x = 1.3
    dd = (math.cosh(kappa * (x + 1e-4)) - 2 * math.cosh(kappa * x)
          + math.cosh(kappa * (x - 1e-4))) / 1e-8
    assert dd == pytest.approx((5.0 - 1.0) / 1.0 * math.cosh(kappa * x), rel=1e-6)


def test_integrated_traces_match_closed_form():
    # same constant potential via the generic integrator
    closed = fundamental_traces(ConstantPotential([1.5]), GEOM, 3.2, mu=1.0)
    integrated = fundamental_traces(
        CallablePotential(lambda x: np.full_like(x, 1.5)), GEOM, 3.2, mu=1.0
    )
    for attr in ("psi_l", "dpsi_l", "psi_r", "dpsi_r"):
        a = getattr(closed, attr)
        b = getattr(integrated, attr)
        assert np.max(np.abs(a - b)) <= 1e-9 * max(1.0, np.max(np.abs(a)))


def test_integrated_traces_multi_interval_constant_mix():
    geom = IntervalSet([(0.0, 1.0), (0.0, 2.0)])
    closed = fundamental_traces(ConstantPotential([0.0, 2.0]), geom, 1.1, mu=0.5)
    integrated = fundamental_traces(
        CallablePotential(lambda x: np.zeros_like(x)), geom, 1.1, mu=0.5
    )
    # only interval 0 matches (the callable is zero everywhere)
    assert np.max(np.abs(closed.psi_r[0] - integrated.psi_r[0])) <= 1e-9


@pytest.mark.parametrize("lam", [-1e5, -5.06e4])
def test_closed_form_overflow_reported(lam):
    # L sqrt(-lam) on (0, pi): 993 makes cmath overflow; 706.7 keeps cos and
    # sin finite but k^2 sin(kL)/k overflows
    with pytest.raises(TraceIntegrationError, match="overflow"):
        fundamental_traces(FREE, IntervalSet([(0.0, math.pi)]), lam, mu=1.0)


@pytest.mark.filterwarnings("ignore:overflow encountered")
@pytest.mark.filterwarnings("ignore:invalid value encountered")
def test_integration_failure_reported(monkeypatch):
    import saext.spectral as spectral

    # a stiff potential the capped step-halving cannot resolve
    monkeypatch.setattr(spectral, "_MAX_ODE_STEPS", 4096)
    stiff = CallablePotential(lambda x: np.full_like(x, 1e12))
    with pytest.raises(TraceIntegrationError, match="did not reach"):
        fundamental_traces(stiff, IntervalSet([(0.0, 1.0)]), 0.5, mu=1.0)


def _sampled_potential(seed, length=TWO_PI / 2, points=17):
    # table knots fall on RK4 step nodes for power-of-two step counts on
    # (0, length), so step halving converges there at fourth order
    rng = np.random.default_rng(seed)
    return SampledPotential(np.linspace(0.0, length, points),
                            rng.uniform(0.0, 2.0, points))


@pytest.mark.parametrize("steps", [1, 3, 1023])
@pytest.mark.parametrize("seed", range(3))
def test_transfer_matrix_rk4_matches_stepping_loop(seed, steps):
    # V ranges over [0, 2]: lambda below, inside and above that range, two
    # intervals of the shared table, mu != 1
    pot = _sampled_potential(seed)
    for alpha, (a, b) in enumerate([(0.0, 1.2), (0.5, 3.0)]):
        for lam in (-3.0, 0.7, 25.0):
            for mu in (1.0, 0.35):
                ref = rk4_fundamental_loop(pot, alpha, a, b, lam, mu, steps)
                got = spectral._rk4_fundamental(pot, alpha, a, b, lam, mu, steps)
                assert got.dtype == complex and got.shape == (2, 2)
                assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_transfer_matrix_rk4_nodes_match_stepping_loop():
    # V is tabulated at exactly the abscissae the stepping loop visits
    seen = []

    def record(x):
        seen.append(np.array(x, copy=True))
        return np.zeros_like(x)

    a, b, steps = 0.1, 2.9, 777
    spectral._rk4_fundamental(CallablePotential(record), 0, a, b, 1.0, 1.0, steps)
    assert len(seen) == 3
    h = (b - a) / steps
    x, left, mid, right = a, [], [], []
    for _ in range(steps):
        left.append(x)
        mid.append(x + h / 2)
        right.append(x + h)
        x += h
    for got, ref in zip(seen, (left, mid, right)):
        assert np.array_equal(got, np.array(ref))


def test_sampled_traces_tabulate_v_three_times_per_integration():
    calls = []
    pot = _sampled_potential(4)

    def count(x):
        calls.append(x.size)
        return pot.value(0, x)

    fundamental_traces(CallablePotential(count), IntervalSet([(0.0, TWO_PI / 2)]), 1.3)
    # coarse (2048 steps) and fine (4096) integration, three node sets each
    assert calls == [2048] * 3 + [4096] * 3


def test_non_finite_potential_in_rk4_raises_potential_error():
    nan_tail = CallablePotential(lambda x: np.where(x > 0.8, np.nan, 1.0))
    with pytest.raises(PotentialError, match="not finite"):
        fundamental_traces(nan_tail, IntervalSet([(0.0, 1.0)]), 0.5)


def test_sampled_find_spectrum_is_deterministic():
    pot = _sampled_potential(2)
    bc = BoundaryCondition.from_matrix(random_unitary(2, np.random.default_rng(2)))
    geom = IntervalSet([(0.0, TWO_PI / 2)])
    first, second = (
        find_spectrum(bc, pot, geom, (1.5, 2.5), mu=0.5, grid_points=48)
        for _ in range(2)
    )
    assert first.size > 0
    assert first.tobytes() == second.tobytes()


# ------------------------------------------------------------ determinant paths

@pytest.mark.parametrize("seed", range(10))
def test_block_path_equals_closed_form(seed):
    rng = np.random.default_rng(seed)
    bc = BoundaryCondition.from_matrix(random_unitary(2, rng))
    lam = float(rng.uniform(-2.0, 12.0))
    traces = fundamental_traces(FREE, GEOM, lam, mu=1.0)
    d_block = spectral_det(bc, traces)
    d_closed = spectral_det_closed_1(bc, traces)
    scale = max(1.0, float(np.max(np.abs(traces.psi_r))) ** 2)
    assert abs(d_block - d_closed) <= 1e-12 * scale


@pytest.mark.parametrize("seed", range(10))
def test_parametrized_form_equals_closed_form(seed):
    rng = np.random.default_rng(100 + seed)
    theta = float(rng.uniform(0, 2 * math.pi))
    alpha = rng.standard_normal() + 1j * rng.standard_normal()
    beta = rng.standard_normal() + 1j * rng.standard_normal()
    norm = math.hypot(abs(alpha), abs(beta))
    alpha, beta = alpha / norm, beta / norm
    u = unitary_from_su2_phase(theta, alpha, beta)
    bc = BoundaryCondition.from_matrix(u, ordering="block")
    lam = float(rng.uniform(0.05, 10.0))
    traces = fundamental_traces(FREE, GEOM, lam, mu=0.5, basis="exponential")
    d1 = spectral_det_closed_1(bc, traces)
    d2 = spectral_det_parametrized(theta, alpha, beta, traces)
    assert abs(d1 - d2) <= 1e-12 * max(1.0, abs(d1))


def test_worked_free_particle_formula():
    # mass 1/2 on [0, 2pi], exponential basis: the determinant reduces to
    # a trigonometric expression in sqrt(2 lam).
    rng = np.random.default_rng(5)
    for _ in range(10):
        theta = float(rng.uniform(0, 2 * math.pi))
        alpha = rng.standard_normal() + 1j * rng.standard_normal()
        beta = rng.standard_normal() + 1j * rng.standard_normal()
        norm = math.hypot(abs(alpha), abs(beta))
        alpha, beta = alpha / norm, beta / norm
        lam = float(rng.uniform(0.05, 9.0))
        k = np.sqrt(complex(2 * lam))
        s, c = np.sin(TWO_PI * k), np.cos(TWO_PI * k)
        formula = (
            -2j * (1 + 2 * lam) * s - 4 * k * c
            + np.exp(1j * theta / 2)
            * (4j * alpha.real * (1 - 2 * lam) * s + 8j * beta.imag * k)
            + np.exp(1j * theta) * (-2j * (1 + 2 * lam) * s + 4 * k * c)
        )
        traces = fundamental_traces(FREE, GEOM, lam, mu=0.5, basis="exponential")
        bc = BoundaryCondition.from_matrix(
            unitary_from_su2_phase(theta, alpha, beta), ordering="block"
        )
        value = spectral_det(bc, traces)
        assert abs(value - formula) <= 1e-11 * max(1.0, abs(formula))


def test_spectral_matrix_shape_and_det():
    traces = fundamental_traces(FREE, GEOM, 0.7, mu=1.0)
    bc = BoundaryCondition.dirichlet(1)
    sm = spectral_matrix(bc, traces)
    assert sm.m.shape == (2, 2)
    assert sm.detval == pytest.approx(np.linalg.det(sm.m))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_spectral_matrix_equals_index_arithmetic_reference(n):
    rng = np.random.default_rng(70 + n)
    geom = IntervalSet([(2.0 * k, 2.0 * k + rng.uniform(0.5, 1.9))
                        for k in range(n)])
    for case in range(100):
        bc = BoundaryCondition.from_matrix(random_unitary(2 * n, rng),
                                           ordering="block")
        if case % 2:
            traces = fundamental_traces(ConstantPotential(rng.uniform(-2.0, 2.0, n)),
                                        geom, rng.uniform(-5.0, 30.0), mu=1.0)
        else:
            lam, mu = rng.uniform(-5.0, 30.0), 1.0
            psi_l, dpsi_l, psi_r, dpsi_r = (
                rng.standard_normal((n, 2)) + 1j * rng.standard_normal((n, 2))
                for _ in range(4))
            traces = FundamentalTraces(lam, mu, psi_l, dpsi_l, psi_r, dpsi_r)
        m = spectral_matrix(bc, traces).m
        assert np.array_equal(m, spectral_matrix_reference(bc, traces))


# ----------------------------------------------------------------- root finding

def test_dirichlet_roots_quarter_squares():
    roots = find_spectrum(
        BoundaryCondition.dirichlet(1), FREE, GEOM, (0.1, 5.0), mu=1.0
    )
    assert np.allclose(roots, [0.25, 1.0, 2.25, 4.0], atol=1e-8)


def test_dirichlet_roots_half_mass():
    roots = find_spectrum(
        BoundaryCondition.dirichlet(1), FREE, GEOM, (0.05, 1.3), mu=0.5
    )
    assert np.allclose(roots, [0.125, 0.5, 1.125], atol=1e-8)


def test_periodic_roots_with_multiplicity():
    roots = find_spectrum(
        BoundaryCondition.quasi_periodic(0.0), FREE, GEOM, (-0.5, 4.5), mu=1.0
    )
    assert roots.size == 5
    assert abs(roots[0]) <= 1e-8
    assert np.allclose(roots[1:], [1.0, 1.0, 4.0, 4.0], atol=1e-8)


def test_empty_range_is_empty():
    roots = find_spectrum(
        BoundaryCondition.dirichlet(1), FREE, GEOM, (-10.0, -5.0), mu=1.0
    )
    assert roots.size == 0


def test_roots_stable_under_grid_halving():
    bc = BoundaryCondition.dirichlet(1)
    coarse = find_spectrum(bc, FREE, GEOM, (0.1, 5.0), mu=1.0, grid_points=4000)
    fine = find_spectrum(bc, FREE, GEOM, (0.1, 5.0), mu=1.0, grid_points=8000)
    assert coarse.size == fine.size
    assert np.max(np.abs(coarse - fine)) <= 10 * 1e-10 * np.maximum(
        1.0, np.abs(coarse)
    ).max()


@pytest.mark.parametrize("hi", [6.2, 6.3])
def test_range_end_is_exact(hi):
    # the root 6.25 sits just outside, then just inside the range
    roots = find_spectrum(
        BoundaryCondition.dirichlet(1), FREE, GEOM, (0.1, hi), mu=1.0
    )
    expected = [k * k / 4 for k in range(1, 6) if k * k / 4 < hi]
    assert roots.size == len(expected)
    assert np.allclose(roots, expected, atol=1e-8)


def test_scan_output_has_raw_determinant():
    roots, scan = find_spectrum(
        BoundaryCondition.dirichlet(1), FREE, GEOM, (0.1, 2.0),
        mu=1.0, grid_points=256, return_scan=True,
    )
    assert scan.lam.size == 256
    assert np.all(scan.absdet >= 0)
    assert np.allclose(np.hypot(scan.redet, scan.imdet), scan.absdet, rtol=1e-12)


def test_constant_potential_shifts_roots():
    # Dirichlet with V = 2: lambda = 2 + k^2/4
    pot = ConstantPotential([2.0])
    roots = find_spectrum(
        BoundaryCondition.dirichlet(1), pot, GEOM, (2.1, 6.1), mu=1.0
    )
    assert np.allclose(roots, [2.25, 3.0, 4.25, 6.0], atol=1e-8)


def test_fem_cross_check_single_random_extension():
    from saext.boundary import assemble_boundary_system, solve_boundary_values
    from saext.eigen import solve_pencil
    from saext.fem import assemble_pencil
    from saext.geometry import build_mesh

    bc = BoundaryCondition.from_matrix(random_unitary(2, np.random.default_rng(3)))
    mesh = build_mesh(GEOM, 800)
    vals = solve_boundary_values(assemble_boundary_system(bc, mesh))
    sol = solve_pencil(assemble_pencil(mesh, bc, vals), count=5)
    fem = sol.eigenvalues
    lo = fem[0] - max(0.1, 0.01 * abs(fem[0]))
    roots = find_spectrum(bc, FREE, GEOM, (lo, fem[-1] + 0.5), mu=1.0)
    assert roots.size >= 5
    rel = np.abs(roots[:5] - fem) / np.maximum(1.0, np.abs(roots[:5]))
    assert np.max(rel) <= 1e-3


# ------------------------------------------------------------ eigenphase flow

def _ring_levels(theta):
    return np.sort([(m + theta / TWO_PI) ** 2 for m in range(-3, 4)])


@pytest.mark.parametrize("theta", [1e-3, 1e-4])
def test_split_periodic_pairs_are_all_found(theta):
    # the pairs (m +- theta / 2 pi)^2 are 6e-4 and 6e-5 apart near 1
    roots = find_spectrum(
        BoundaryCondition.quasi_periodic(theta), FREE, GEOM, (-0.5, 10.0)
    )
    assert roots.size == 7
    assert np.max(np.abs(roots - _ring_levels(theta))) <= 1e-8


@pytest.mark.parametrize("theta", [0.0, 1e-3, 1e-4])
def test_root_count_stable_under_grid_halving(theta):
    # down to 12 points, where a scan cell holds two levels and the phase
    # of det W advances by more than 2 pi across it: the cells are halved
    # until their counts are exact
    bc = BoundaryCondition.quasi_periodic(theta)
    for grid in (3000, 1500, 750, 375, 188, 94, 47, 24, 12):
        roots = find_spectrum(bc, FREE, GEOM, (-0.5, 10.0), grid_points=grid)
        assert roots.size == 7
        assert np.max(np.abs(roots - _ring_levels(theta))) <= 1e-8


def test_refinement_needs_few_trace_evaluations_per_root(monkeypatch):
    # regula falsi on the crossing eigenphase; bisection alone needs ~29
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[2])
        return fundamental_traces(*args, **kwargs)

    monkeypatch.setattr(spectral, "fundamental_traces", counted)
    roots = find_spectrum(
        BoundaryCondition.dirichlet(1), FREE, GEOM, (0.1, 5.0), grid_points=64
    )
    assert roots.size == 4
    assert len(calls) - 64 <= 10 * roots.size


def test_deep_level_is_reported_once():
    # two intervals of length 2, zero V, a level near -74.63 whose traces
    # grow like e^17: FEM's inertia count has exactly one level there
    from saext.boundary import assemble_boundary_system, solve_boundary_values
    from saext.eigen import _count_below, solve_pencil
    from saext.fem import assemble_pencil
    from saext.geometry import build_mesh

    bc = BoundaryCondition.from_matrix(random_unitary(4, np.random.default_rng(1285)))
    geom = IntervalSet([(0.0, 2.0), (3.0, 5.0)])
    lo, hi = -76.0, -73.5
    roots = find_spectrum(bc, FREE, geom, (lo, hi))
    mesh = build_mesh(geom, 400)
    pencil = assemble_pencil(
        mesh, bc, solve_boundary_values(assemble_boundary_system(bc, mesh)))
    assert roots.size == _count_below(pencil, hi) - _count_below(pencil, lo) == 1
    # conforming FEM lies above the exact level
    fem = solve_pencil(pencil, count=1).eigenvalues[0]
    assert roots[0] <= fem <= roots[0] + 2e-3 * abs(roots[0])


def _secular(bc, potential, geom, lam, mu=1.0):
    return secular_matrix(bc, fundamental_traces(potential, geom, lam, mu=mu))


@pytest.mark.parametrize("lam", [-2000.0, -300.0, -75.0, 0.0, 5.5])
def test_secular_matrix_is_unitary(lam):
    # the transfer-matrix entries reach 1e122 at -2000 on the ring
    cases = [
        (BoundaryCondition.quasi_periodic(1e-3), GEOM),
        (BoundaryCondition.from_matrix(random_unitary(4, np.random.default_rng(7))),
         IntervalSet([(0.0, 1.0), (0.0, 2.6)])),
    ]
    for bc, geom in cases:
        w = _secular(bc, FREE, geom, lam)
        assert np.max(np.abs(w.conj().T @ w - np.eye(w.shape[0]))) <= 1e-12


def test_secular_matrix_eigenvalue_one_at_the_levels():
    # Dirichlet on (0, 2 pi): W has eigenvalue 1 exactly at k^2 / 4
    bc = BoundaryCondition.dirichlet(1)
    for lam, ones in ((0.25, 1), (1.0, 1), (0.6, 0)):
        phases = np.angle(np.linalg.eigvals(_secular(bc, FREE, GEOM, lam)))
        assert np.sum(np.abs(phases) <= 1e-12) == ones


@pytest.mark.parametrize("seed", range(3))
def test_secular_matrix_eigenvalue_one_where_det_m_vanishes(seed):
    # at each root the scan reports, W has eigenvalue 1 and det M, built
    # from the same traces through the block algebra, vanishes
    rng = np.random.default_rng(40 + seed)
    bc = BoundaryCondition.from_matrix(random_unitary(4, rng))
    geom = IntervalSet([(0.0, 1.0), (0.0, 2.6)])
    for root in find_spectrum(bc, FREE, geom, (-3.0, 12.0)):
        traces = fundamental_traces(FREE, geom, root)
        phases = np.angle(np.linalg.eigvals(secular_matrix(bc, traces)))
        assert np.min(np.abs(phases)) <= 1e-8
        # each term of det M carries two traces per interval
        scale = np.prod(np.abs(traces.psi_r).max(axis=1) + 1.0) ** 2
        assert abs(spectral_det(bc, traces)) <= 1e-9 * scale


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("kind", ["zero", "constant", "sampled"])
def test_eigenphases_increase_with_lambda(seed, kind):
    # -i W^H dW/dlambda is hermitian positive definite, so every
    # eigenphase of W increases; checked by central differences
    rng = np.random.default_rng(500 + seed)
    n = 1 + seed % 2
    geom = GEOM if n == 1 else IntervalSet([(0.0, 1.0), (0.0, 2.0)])
    bc = BoundaryCondition.from_matrix(random_unitary(2 * n, rng))
    potential = {
        "zero": FREE,
        "constant": ConstantPotential(rng.uniform(-2.0, 3.0, n)),
        "sampled": _sampled_potential(seed, length=TWO_PI),
    }[kind]
    h = 1e-5
    for lam in rng.uniform(-20.0, 15.0, 6):
        w = _secular(bc, potential, geom, lam)
        dw = (_secular(bc, potential, geom, lam + h)
              - _secular(bc, potential, geom, lam - h)) / (2 * h)
        gen = -1j * w.conj().T @ dw
        herm = (gen + gen.conj().T) / 2
        assert np.max(np.abs(gen - herm)) <= 1e-6 * np.max(np.abs(herm))
        assert np.min(np.linalg.eigvalsh(herm)) > 0


@pytest.mark.parametrize("mu", [0.0, -1.0, math.nan, math.inf])
def test_fundamental_traces_rejects_bad_mass_factor(mu):
    with pytest.raises(ValueError, match="mu"):
        fundamental_traces(FREE, GEOM, 1.0, mu=mu)


@pytest.mark.parametrize("mu", [0.0, -1.0, math.nan])
def test_find_spectrum_rejects_bad_mass_factor(mu):
    with pytest.raises(ValueError, match="mu"):
        find_spectrum(BoundaryCondition.dirichlet(1), FREE, GEOM, (0.0, 2.0), mu=mu)
