import math

import numpy as np
import pytest

from helpers import permutation_matrix
from saext.boundary import (
    BoundaryCondition,
    BoundaryError,
    ConditionFailure,
    assemble_boundary_system,
    condition_report,
    endpoint_to_block_permutation,
    random_unitary,
    retry_mesh_on_bad_conditioning,
    solve_boundary_values,
)
from saext.fem import assemble_pencil
from saext.geometry import IntervalSet, build_mesh
from saext.potentials import ConstantPotential

TWO_PI = 2 * math.pi


def _mesh(n=1, resolution=40):
    if n == 1:
        geom = IntervalSet([(0.0, TWO_PI)])
    else:
        geom = IntervalSet([(0.0, 1.0 + 0.4 * k) for k in range(n)])
    return geom, build_mesh(geom, resolution)


# ---------------------------------------------------------------- presets

def test_dirichlet_preset():
    for n in (1, 2):
        bc = BoundaryCondition.dirichlet(n)
        assert np.array_equal(bc.u_endpoint, -np.eye(2 * n))
        assert np.array_equal(bc.u_block, -np.eye(2 * n))
        assert bc.unitarity_defect == 0.0


def test_neumann_preset():
    bc = BoundaryCondition.neumann(1)
    assert np.array_equal(bc.u_endpoint, np.eye(2))
    assert bc.unitarity_defect == 0.0


def test_quasi_periodic_preset():
    periodic = BoundaryCondition.quasi_periodic(0.0)
    assert np.allclose(periodic.u_endpoint, [[0, 1], [1, 0]])
    anti = BoundaryCondition.quasi_periodic(math.pi)
    assert np.allclose(anti.u_endpoint, [[0, -1], [-1, 0]], atol=1e-15)


def test_dirichlet_traces_admissible():
    bc = BoundaryCondition.dirichlet(2)
    rng = np.random.default_rng(0)
    psid = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    assert bc.admissibility_defect(np.zeros(4), psid) == pytest.approx(0.0, abs=1e-14)


def test_neumann_traces_admissible():
    bc = BoundaryCondition.neumann(1)
    assert bc.admissibility_defect([1.3, -0.2], [0.0, 0.0]) == pytest.approx(0.0)


def test_periodic_traces_admissible():
    bc = BoundaryCondition.quasi_periodic(0.0)
    # u(0) = u(2pi) = v, u'(0) = u'(2pi) = d; normal derivatives (-d, d).
    # (for n = 1 the endpoint and block orders coincide)
    v, d = 0.7 - 0.2j, 1.1 + 0.4j
    assert bc.admissibility_defect([v, v], [-d, d]) <= 1e-12


def test_quasi_periodic_traces_admissible():
    theta = 0.83
    bc = BoundaryCondition.quasi_periodic(theta)
    u_right, du_right = 0.3 + 0.9j, -0.5 + 0.1j
    u_left = np.exp(1j * theta) * u_right
    du_left = np.exp(1j * theta) * du_right
    defect = bc.admissibility_defect(
        np.array([u_left, u_right]), np.array([-du_left, du_right])
    )
    assert defect <= 1e-14


# ---------------------------------------------------- orderings / from_matrix

def test_identity_same_in_both_orderings():
    bc = BoundaryCondition.from_matrix(np.eye(4), ordering="endpoint")
    assert np.array_equal(bc.u_block, np.eye(4))


def test_n1_orderings_coincide():
    rng = np.random.default_rng(5)
    u = random_unitary(2, rng)
    bc = BoundaryCondition.from_matrix(u)
    assert np.array_equal(bc.u_endpoint, bc.u_block)


def test_endpoint_slot_two_maps_to_block_slot_three():
    # n = 2: the value at b_1 (endpoint slot 1, 0-based) lands in the first
    # right-end block slot (block slot 2, 0-based).
    sigma = endpoint_to_block_permutation(2)
    assert sigma[1] == 2
    assert list(sigma) == [0, 2, 1, 3]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_ordering_against_permutation_matrix_oracle(n):
    rng = np.random.default_rng(n)
    u = random_unitary(2 * n, rng)
    bc = BoundaryCondition.from_matrix(u, ordering="endpoint")
    p = permutation_matrix(endpoint_to_block_permutation(n))
    assert np.allclose(bc.u_block, p @ u @ p.T, atol=0)
    # round trip is exact
    back = BoundaryCondition.from_matrix(bc.u_block, ordering="block")
    assert np.array_equal(back.u_endpoint, u)


def test_from_matrix_rejects_non_unitary():
    bad = np.eye(2) * 1.1
    with pytest.raises(BoundaryError, match="not unitary"):
        BoundaryCondition.from_matrix(bad)
    try:
        BoundaryCondition.from_matrix(bad)
    except BoundaryError as exc:
        assert "e-01" in str(exc) or "0.1" in str(exc) or "e+00" in str(exc)


def test_from_matrix_rejects_nan():
    with pytest.raises(BoundaryError, match="not unitary"):
        BoundaryCondition.from_matrix([[math.nan, 0.0], [0.0, 1.0]])


def test_from_matrix_rejects_odd_or_nonsquare():
    with pytest.raises(BoundaryError, match="square"):
        BoundaryCondition.from_matrix(np.ones((2, 3)))
    with pytest.raises(BoundaryError, match="even"):
        BoundaryCondition.from_matrix(np.eye(3))


@pytest.mark.parametrize("seed", range(20))
def test_random_unitary_is_unitary_and_deterministic(seed):
    u1 = random_unitary(4, np.random.default_rng(seed))
    u2 = random_unitary(4, np.random.default_rng(seed))
    assert np.array_equal(u1, u2)
    assert np.linalg.norm(u1.conj().T @ u1 - np.eye(4)) <= 1e-12


# ----------------------------------------------------------- system assembly

def test_dirichlet_system_is_trivial():
    _, mesh = _mesh()
    sys = assemble_boundary_system(BoundaryCondition.dirichlet(1), mesh)
    assert np.array_equal(sys.f, 2.0 * np.eye(2))
    assert np.array_equal(sys.c, np.zeros((2, 2)))


def test_neumann_system_closed_form():
    _, mesh = _mesh()
    h = mesh.h[0]
    sys = assemble_boundary_system(BoundaryCondition.neumann(1), mesh)
    assert np.allclose(sys.f, -2j / h * np.eye(2), atol=0)
    assert np.allclose(sys.c, -2j / h * np.eye(2), atol=0)


@pytest.mark.parametrize("n,seed", [(1, 0), (2, 1), (3, 2)])
def test_system_matches_componentwise_formulas(n, seed):
    # Oracle: direct loop over the displayed entries.
    geom, mesh = _mesh(n=n, resolution=10 * n)
    u = random_unitary(2 * n, np.random.default_rng(seed))
    bc = BoundaryCondition.from_matrix(u)
    sys = assemble_boundary_system(bc, mesh)
    h = mesh.h_endpoint
    # the vectorized assembly and this scalar loop may round the last ulp
    # differently; anything beyond that is a real discrepancy
    tol = 1e-14 * (1.0 + float(np.max(1.0 / h)))
    for l in range(2 * n):
        for j in range(2 * n):
            f_lj = (1 - 1j / h[j]) * (l == j) - u[l, j] * (1 + 1j / h[j])
            c_lj = -1j / h[j] * ((l == j) + u[l, j])
            assert abs(sys.f[l, j] - f_lj) <= tol
            assert abs(sys.c[l, j] - c_lj) <= tol


def test_mismatched_n_rejected():
    _, mesh = _mesh(n=2, resolution=20)
    with pytest.raises(BoundaryError, match="n ="):
        assemble_boundary_system(BoundaryCondition.dirichlet(1), mesh)


# ----------------------------------------------------------------- solving

def test_dirichlet_solution_exactly_zero():
    _, mesh = _mesh()
    sys = assemble_boundary_system(BoundaryCondition.dirichlet(1), mesh)
    vals = solve_boundary_values(sys)
    assert np.array_equal(vals.v, np.zeros((2, 2)))


def test_neumann_solution_is_identity():
    _, mesh = _mesh()
    sys = assemble_boundary_system(BoundaryCondition.neumann(1), mesh)
    vals = solve_boundary_values(sys)
    assert np.max(np.abs(vals.v - np.eye(2))) <= 1e-12


def test_periodic_solution_hand_derived():
    # F V = C with F = [[1-i/h, -(1+i/h)], [-(1+i/h), 1-i/h]] and
    # C = (-i/h) ones(2,2) gives V = ones(2,2)/2 by symmetry.
    _, mesh = _mesh()
    sys = assemble_boundary_system(BoundaryCondition.quasi_periodic(0.0), mesh)
    vals = solve_boundary_values(sys)
    assert np.max(np.abs(vals.v - 0.5 * np.ones((2, 2)))) <= 1e-12


@pytest.mark.parametrize("seed", range(15))
def test_solution_constraint_and_traces(seed):
    n = 1 + seed % 2
    geom, mesh = _mesh(n=n, resolution=11 * n + seed)
    u = random_unitary(2 * n, np.random.default_rng(seed))
    bc = BoundaryCondition.from_matrix(u)
    sys = assemble_boundary_system(bc, mesh)
    vals = solve_boundary_values(sys)

    # weighted hermiticity holds exactly
    assert np.array_equal(vals.g, vals.g.conj().T)

    # residual gate
    assert np.linalg.norm(sys.f @ vals.v - sys.c) <= 1e-10 * np.linalg.norm(sys.c)

    # every column is an admissible trace; oracle = direct substitution
    beta_dot = vals.normal_derivatives()
    for i in range(2 * n):
        defect = bc.admissibility_defect(vals.v[:, i], beta_dot[:, i])
        assert defect <= 1e-8


def test_normal_derivative_formula():
    _, mesh = _mesh()
    sys = assemble_boundary_system(BoundaryCondition.neumann(1), mesh)
    vals = solve_boundary_values(sys)
    # V = I: derivative matrix -(1/h)(delta - V) vanishes
    assert np.max(np.abs(vals.normal_derivatives())) <= 1e-12


# -------------------------------------------------------------- conditioning

def test_condition_report_dirichlet():
    _, mesh = _mesh()
    sys = assemble_boundary_system(BoundaryCondition.dirichlet(1), mesh)
    report = condition_report(sys)
    assert report.kappa_estimate == pytest.approx(1.0)
    # U0 = -diag(d/conj(d)); oracle gap computed directly
    h = mesh.h_endpoint
    d = 1 + 1j / h
    gap = np.min(np.abs(1 + d / np.conj(d)))
    assert report.spectrum_gap == pytest.approx(gap, rel=1e-12)
    assert report.kappa_estimate <= report.bound
    assert not report.incompatible


@pytest.mark.parametrize("n,resolution", [(1, 30), (2, 25), (2, 60)])
def test_kappa_within_bound_random(n, resolution):
    geom, mesh = _mesh(n=n, resolution=resolution)
    rng = np.random.default_rng(resolution)
    for _ in range(25):
        bc = BoundaryCondition.from_matrix(random_unitary(2 * n, rng))
        sys = assemble_boundary_system(bc, mesh)
        report = condition_report(sys)
        assert report.kappa_estimate <= report.bound * (1 + 1e-9)


def _degenerate_bc(mesh):
    # U = conj(D) D^{-1} makes U0 = I, so 1 is in the spectrum and F = 0.
    h = mesh.h_endpoint
    d = 1 + 1j / h
    return BoundaryCondition.from_matrix(np.diag(np.conj(d) / d))


def test_degenerate_system_flagged():
    _, mesh = _mesh()
    bc = _degenerate_bc(mesh)
    sys = assemble_boundary_system(bc, mesh)
    report = condition_report(sys)
    assert report.incompatible
    assert report.spectrum_gap < 1e-12
    assert "incompatible" in report.note
    with pytest.raises(ConditionFailure):
        solve_boundary_values(sys)


def test_perturbed_degenerate_gap_opens():
    # A unitary perturbation with nonzero diagonal expectation moves the
    # eigenvalue away from 1.
    _, mesh = _mesh()
    bc = _degenerate_bc(mesh)
    rng = np.random.default_rng(4)
    k = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    k = (k + k.conj().T) / 2
    # ensure a nonzero diagonal expectation in every eigenvector of U0 = I
    k += 0.5 * np.eye(2)
    for eps in (1e-6, 1e-4):
        u_pert = bc.u_endpoint @ _expm_unitary(1j * eps * k)
        sys = assemble_boundary_system(
            BoundaryCondition.from_matrix(u_pert), mesh
        )
        report = condition_report(sys)
        assert report.spectrum_gap > 1e-12


def _expm_unitary(anti_hermitian):
    import scipy.linalg

    return scipy.linalg.expm(anti_hermitian)


# -------------------------------------------------------------------- retry

def test_retry_keeps_good_resolution():
    geom, _ = _mesh()
    bc = BoundaryCondition.dirichlet(1)
    mesh, sys, vals = retry_mesh_on_bad_conditioning(bc, geom, 40)
    assert mesh.resolution == 40
    assert np.array_equal(vals.v, np.zeros((2, 2)))


def test_retry_steps_past_degenerate_resolution():
    geom = IntervalSet([(0.0, TWO_PI)])
    mesh_bad = build_mesh(geom, 40)
    bc = _degenerate_bc(mesh_bad)
    mesh, sys, vals = retry_mesh_on_bad_conditioning(bc, geom, 40, kappa_max=1e8)
    assert mesh.resolution == 41
    report = condition_report(sys)
    assert report.kappa_estimate <= 1e8


def test_retry_exhaustion_reports_history():
    geom = IntervalSet([(0.0, TWO_PI)])
    bc = BoundaryCondition.dirichlet(1)
    with pytest.raises(ConditionFailure) as err:
        retry_mesh_on_bad_conditioning(geom=geom, bc=bc, resolution=40,
                                       kappa_max=0.0, max_retries=5)
    assert err.value.history is not None
    assert len(err.value.history) == 6
    assert [n for n, _ in err.value.history] == list(range(40, 46))
    for n, kappa in err.value.history:
        system = assemble_boundary_system(bc, build_mesh(geom, n))
        assert kappa == condition_report(system).kappa_estimate
    # a step vector at which the system is incompatible enters as inf
    geom, mesh = _mesh()
    with pytest.raises(ConditionFailure) as err:
        retry_mesh_on_bad_conditioning(geom=geom, bc=_degenerate_bc(mesh),
                                       resolution=40, max_retries=0)
    assert err.value.history == [(40, math.inf)]


@pytest.mark.parametrize("kwargs, match", [
    ({"kappa_max": math.nan}, "NaN"),
    ({"max_retries": -1}, "max_retries"),
], ids=["nan-kappa-max", "negative-retries"])
def test_retry_rejects_bad_settings(kwargs, match):
    geom = IntervalSet([(0.0, TWO_PI)])
    with pytest.raises(ValueError, match=match):
        retry_mesh_on_bad_conditioning(BoundaryCondition.dirichlet(1), geom, 40,
                                       **kwargs)


def test_solve_values_rejects_nan_kappa_max():
    mesh = build_mesh(IntervalSet([(0.0, TWO_PI)]), 40)
    system = assemble_boundary_system(BoundaryCondition.dirichlet(1), mesh)
    with pytest.raises(ValueError, match="NaN"):
        solve_boundary_values(system, kappa_max=math.nan)


# ------------------------------------------------ LAPACK drivers of the solve

def _reflection(dim, rng):
    """A real symmetric orthogonal U (a Householder reflection): on
    intervals of one length it gives a symmetric, non-diagonal F."""
    v = rng.standard_normal(dim)
    return np.eye(dim) - 2.0 * np.outer(v, v) / (v @ v)


def _solve_cases():
    from saext.cli import nearest_unitary

    ring = IntervalSet([(0.0, TWO_PI)])
    periodic = BoundaryCondition.quasi_periodic(0.0)
    generator = np.array([[0.0, 1.0], [-1.0, 0.0]])
    cases = {
        "ring-16": (periodic, ring, 16),
        "ring-250": (periodic, ring, 250),
        "ring-2000": (periodic, ring, 2000),
        "dirichlet": (BoundaryCondition.dirichlet(1), ring, 100),
        "neumann": (BoundaryCondition.neumann(1), ring, 100),
        "neumann-3": (BoundaryCondition.neumann(3),
                      IntervalSet([(0.0, 1.0), (2.0, 4.0), (5.0, 5.5)]), 90),
        "quasi-periodic-0.7": (BoundaryCondition.quasi_periodic(0.7), ring, 300),
        # exp(i pi) rounds to -1 + 1.2e-16 i: U is not exactly symmetric
        "antiperiodic": (BoundaryCondition.quasi_periodic(math.pi), ring, 16),
        # b_1 glued to a_2 and b_2 to a_1: a symmetric permutation U makes
        # a ring of two unequal intervals
        "gluing-unequal": (BoundaryCondition.from_matrix(np.eye(4)[[3, 2, 1, 0]]),
                           IntervalSet([(0.0, 1.0), (2.0, 4.5)]), 150),
    }
    for eps in (1e-5, 4.7e-4, 1e-3):  # criterion 10's U_eps
        [u_eps], _ = nearest_unitary(
            (periodic.u_endpoint + 1j * eps * generator)[None])
        cases[f"u-eps-{eps:g}"] = (BoundaryCondition.from_matrix(u_eps), ring, 250)
    for seed in range(6):
        rng = np.random.default_rng(seed)
        n = 1 + seed % 3
        geom = IntervalSet([(3.0 * k, 3.0 * k + rng.uniform(1.0, 3.0))
                            for k in range(n)])
        cases[f"random-{n}-intervals-{seed}"] = (
            BoundaryCondition.from_matrix(random_unitary(2 * n, rng)), geom,
            int(rng.integers(60, 300)))
        equal = IntervalSet([(3.0 * k, 3.0 * k + 2.0) for k in range(n)])
        cases[f"reflection-{n}-intervals-{seed}"] = (
            BoundaryCondition.from_matrix(_reflection(2 * n, rng)), equal, 120)
    return cases


@pytest.mark.parametrize("name", list(_solve_cases()))
def test_boundary_values_match_scipy_solve_bitwise(name):
    # one general LAPACK solve (zgesv) for every U: a U that is not exactly
    # symmetric gives boundary values bit-identical to scipy.linalg.solve's
    # after the weighted-hermitian projection; a symmetric U keeps the real
    # part of the general solve, bit for bit, and no imaginary part
    import scipy.linalg

    bc, geom, resolution = _solve_cases()[name]
    system = assemble_boundary_system(bc, build_mesh(geom, resolution))
    got = solve_boundary_values(system)
    symmetric = np.array_equal(bc.u_endpoint, bc.u_endpoint.T)
    assert symmetric == name.startswith(("ring", "dirichlet", "neumann",
                                         "reflection", "gluing"))
    if symmetric:
        x = scipy.linalg.lapack.zgesv(system.f, system.c)[2].real.astype(complex)
    else:
        x = scipy.linalg.solve(system.f, system.c)
    inv_h = 1.0 / system.h
    g = inv_h[:, None] * x
    g = (g + g.conj().T) / 2.0
    v = system.h[:, None] * g
    assert got.v.tobytes() == v.tobytes()
    assert got.g.tobytes() == g.tobytes()
    assert symmetric == (not np.any(v.imag))


@pytest.mark.parametrize("name", list(_solve_cases()))
def test_symmetric_u_gives_a_real_pencil(name):
    # U == U^T exactly makes the boundary values real by rule, so the
    # pencil is stored and solved in float64 at any resolution
    bc, geom, resolution = _solve_cases()[name]
    mesh = build_mesh(geom, resolution)
    values = solve_boundary_values(assemble_boundary_system(bc, mesh))
    pencil = assemble_pencil(mesh, bc, values, ConstantPotential([0.7] * geom.n))
    symmetric = np.array_equal(bc.u_endpoint, bc.u_endpoint.T)
    assert pencil.a.dtype == pencil.b.dtype == (np.float64 if symmetric
                                                else np.complex128)
