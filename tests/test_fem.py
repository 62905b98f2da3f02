import dataclasses
import math

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse

from helpers import (
    REFERENCE_MESHES,
    assemble_pencil_reference,
    assert_conjugate_mirror,
    basis_enumeration_reference,
    boundary_index,
    bulk_index,
    eval_boundary,
    pencil_two_step_reference,
    quad_complex,
    template_gather_pencil,
    weighted_hermitian_values,
)
from saext import fem
from saext.boundary import (
    BoundaryCondition,
    BoundaryValues,
    assemble_boundary_system,
    random_unitary,
    solve_boundary_values,
)
from saext.fem import (
    AssemblyError,
    BulkAssembly,
    assemble_pencil,
    boundary_indices,
)
from saext.geometry import IntervalSet, build_mesh
from saext.potentials import (
    CallablePotential,
    ConstantPotential,
    SampledPotential,
    ZeroPotential,
)

TWO_PI = 2 * math.pi


def _setup(bc_factory=BoundaryCondition.dirichlet, n=1, resolution=16):
    if n == 1:
        geom = IntervalSet([(0.0, TWO_PI)])
    else:
        geom = IntervalSet([(0.0, 1.0 + 0.3 * k) for k in range(n)])
    mesh = build_mesh(geom, resolution)
    bc = bc_factory(n) if bc_factory in (
        BoundaryCondition.dirichlet, BoundaryCondition.neumann
    ) else bc_factory
    sys = assemble_boundary_system(bc, mesh)
    vals = solve_boundary_values(sys)
    return geom, mesh, bc, vals


def _values_from_matrix(mesh, v):
    h = mesh.h_endpoint
    g = (1.0 / h)[:, None] * v
    g = (g + g.conj().T) / 2
    v = h[:, None] * g
    return BoundaryValues(v=v, g=g, h=h)


# ----------------------------------------------------------- basis ordering

def test_basis_ordering_single_interval():
    _, mesh, _, _ = _setup(resolution=8)
    r = mesh.r[0]
    assert mesh.dim == r
    assert boundary_indices(mesh).tolist() == [0, r - 1]


def test_basis_ordering_two_intervals():
    geom = IntervalSet([(0.0, 1.0), (0.0, 3.0)])
    mesh = build_mesh(geom, 8)  # r = (3, 7)
    assert mesh.dim == 10
    kinds = ["bulk"] * 10
    for a in boundary_indices(mesh):
        kinds[a] = "boundary"
    assert kinds == ["boundary", "bulk", "boundary",
                     "boundary", "bulk", "bulk", "bulk", "bulk", "bulk", "boundary"]
    assert boundary_indices(mesh).tolist() == [0, 2, 3, 9]


@pytest.mark.parametrize("intervals, resolution, r", REFERENCE_MESHES)
def test_basis_map_matches_enumeration(intervals, resolution, r):
    mesh = build_mesh(IntervalSet(intervals), resolution)
    assert mesh.r == r
    reference = basis_enumeration_reference(mesh)
    assert mesh.dim == len(reference)
    by_function = sorted((i, a) for a, (kind, _, _, i) in enumerate(reference)
                         if kind == "boundary")
    assert [i for i, _ in by_function] == list(range(2 * mesh.n))
    assert boundary_indices(mesh).tolist() == [a for _, a in by_function]


# -------------------------------------------------------------- evaluation

def test_boundary_function_dirichlet_is_clamped_hat():
    _, mesh, _, vals = _setup(BoundaryCondition.dirichlet, resolution=12)
    x = mesh.nodes[0]
    assert eval_boundary(mesh, vals, 0, 0, x[1]) == 1.0
    assert eval_boundary(mesh, vals, 0, 0, x[0]) == 0.0
    assert eval_boundary(mesh, vals, 0, 0, x[2]) == 0.0
    mid = 0.5 * (x[0] + x[1])
    assert eval_boundary(mesh, vals, 0, 0, mid) == pytest.approx(0.5)


def test_boundary_function_neumann_is_flat_at_end():
    _, mesh, _, vals = _setup(BoundaryCondition.neumann, resolution=12)
    x = mesh.nodes[0]
    assert eval_boundary(mesh, vals, 0, 0, x[0]) == pytest.approx(1.0, abs=1e-12)
    assert eval_boundary(mesh, vals, 0, 0, x[1]) == pytest.approx(1.0, abs=1e-12)
    mid = 0.5 * (x[0] + x[1])
    assert eval_boundary(mesh, vals, 0, 0, mid) == pytest.approx(1.0, abs=1e-12)


def test_boundary_function_generic_endpoint_values():
    rng = np.random.default_rng(3)
    bc = BoundaryCondition.from_matrix(random_unitary(2, rng))
    _, mesh, _, vals = _setup(bc, resolution=12)
    x = mesh.nodes[0]
    r = mesh.r[0]
    for i in range(2):
        assert eval_boundary(mesh, vals, i, 0, x[0]) == vals.v[0, i]
        assert eval_boundary(mesh, vals, i, 0, x[-1]) == vals.v[1, i]
        assert eval_boundary(mesh, vals, i, 0, x[1]) == (1.0 if i == 0 else 0.0)
        assert eval_boundary(mesh, vals, i, 0, x[r]) == (1.0 if i == 1 else 0.0)
        # vanish on the interior plateau
        assert eval_boundary(mesh, vals, i, 0, x[3]) == 0.0


# ---------------------------------------------------- reference corner blocks

def test_free_particle_interior_rows():
    _, mesh, bc, vals = _setup(BoundaryCondition.dirichlet, resolution=16)
    pencil = assemble_pencil(mesh, bc, vals)
    h = mesh.h[0]
    a, b = pencil.a, pencil.b
    mid = pencil.dim // 2
    assert a[mid, mid] == pytest.approx(2.0 / h, rel=1e-14)
    assert a[mid, mid - 1] == pytest.approx(-1.0 / h, rel=1e-14)
    assert a[mid, mid + 1] == pytest.approx(-1.0 / h, rel=1e-14)
    assert b[mid, mid] == pytest.approx(2.0 * h / 3.0, rel=1e-14)
    assert b[mid, mid - 1] == pytest.approx(h / 6.0, rel=1e-14)
    assert b[mid, mid + 1] == pytest.approx(h / 6.0, rel=1e-14)


def _corner_blocks(pencil):
    last = pencil.dim - 1
    a_corner = np.array([
        [pencil.a[0, 0], pencil.a[0, last]],
        [pencil.a[last, 0], pencil.a[last, last]],
    ])
    b_corner = np.array([
        [pencil.b[0, 0], pencil.b[0, last]],
        [pencil.b[last, 0], pencil.b[last, last]],
    ])
    return a_corner, b_corner


@pytest.mark.parametrize("seed", range(8))
def test_free_particle_corner_blocks_reference_formulas(seed):
    # Random boundary values satisfying the weighted symmetry; the corner
    # blocks must equal the known closed-form free-particle expressions.
    geom = IntervalSet([(0.0, TWO_PI)])
    mesh = build_mesh(geom, 14)
    rng = np.random.default_rng(seed)
    v = weighted_hermitian_values(1, mesh.h_endpoint, rng)
    vals = _values_from_matrix(mesh, v)
    bc = BoundaryCondition.dirichlet(1)  # any bc with matching n; not used in entries
    pencil = assemble_pencil(mesh, bc, vals)
    h = mesh.h[0]
    v = vals.v

    a_corner, b_corner = _corner_blocks(pencil)
    a_expect = np.array([
        [2 - v[0, 0], -v[0, 1]],
        [-v[1, 0], 2 - v[1, 1]],
    ]) / h
    b_expect = h * np.array([
        [2 / 3 + (abs(v[0, 0]) ** 2 + abs(v[1, 0]) ** 2) / 3 + v[0, 0] / 3,
         (np.conj(v[0, 0]) * v[0, 1] + np.conj(v[1, 0]) * v[1, 1]) / 3 + v[0, 1] / 3],
        [(np.conj(v[1, 1]) * v[1, 0] + np.conj(v[0, 1]) * v[0, 0]) / 3 + v[1, 0] / 3,
         2 / 3 + (abs(v[1, 1]) ** 2 + abs(v[0, 1]) ** 2) / 3 + v[1, 1] / 3],
    ])
    assert np.max(np.abs(a_corner - a_expect)) <= 1e-14 * (1 + 1 / h)
    assert np.max(np.abs(b_corner - b_expect)) <= 1e-14


def test_dirichlet_corner_blocks():
    _, mesh, bc, vals = _setup(BoundaryCondition.dirichlet, resolution=16)
    pencil = assemble_pencil(mesh, bc, vals)
    h = mesh.h[0]
    a_corner, b_corner = _corner_blocks(pencil)
    assert np.allclose(a_corner, (2.0 / h) * np.eye(2), atol=1e-14 / h)
    assert np.allclose(b_corner, (2.0 * h / 3.0) * np.eye(2), atol=1e-14)


def test_neumann_corner_blocks():
    _, mesh, bc, vals = _setup(BoundaryCondition.neumann, resolution=16)
    pencil = assemble_pencil(mesh, bc, vals)
    h = mesh.h[0]
    assert pencil.a[0, 0] == pytest.approx(1.0 / h, rel=1e-12)
    assert pencil.b[0, 0] == pytest.approx(4.0 * h / 3.0, rel=1e-12)


# ------------------------------------------------------ integral brute force

def test_boundary_overlaps_against_adaptive_quadrature():
    rng = np.random.default_rng(11)
    geom = IntervalSet([(0.0, TWO_PI)])
    mesh = build_mesh(geom, 9)
    v = weighted_hermitian_values(1, mesh.h_endpoint, rng)
    vals = _values_from_matrix(mesh, v)
    bc = BoundaryCondition.dirichlet(1)
    pencil = assemble_pencil(mesh, bc, vals)
    a0, b0 = geom.intervals[0]

    for i in range(2):
        for j in range(2):
            gi = boundary_index(mesh, i)
            gj = boundary_index(mesh, j)
            mass_quad = quad_complex(
                lambda x: np.conj(eval_boundary(mesh, vals, i, 0, x))
                * eval_boundary(mesh, vals, j, 0, x),
                a0, b0, limit=200,
            )
            assert abs(pencil.b[gi, gj] - mass_quad) <= 1e-10


def test_constant_potential_shifts_by_mass_matrix():
    # 3-point Gauss is exact for linear*linear*constant, so A(V=c) must be
    # A(V=0) + c B to roundoff.
    rng = np.random.default_rng(2)
    bc = BoundaryCondition.from_matrix(random_unitary(2, rng))
    _, mesh, _, vals = _setup(bc, resolution=20)
    p0 = assemble_pencil(mesh, bc, vals, ZeroPotential())
    c = 2.7
    pc = assemble_pencil(mesh, bc, vals, ConstantPotential([c]))
    a0, b0 = p0.a.toarray(), p0.b.toarray()
    assert np.max(np.abs(pc.a.toarray() - (a0 + c * b0))) <= 1e-12 * np.max(np.abs(a0))
    assert np.array_equal(pc.b.toarray(), b0)


def test_quadrature_order_convergence_quartic():
    geom = IntervalSet([(0.0, TWO_PI)])
    mesh = build_mesh(geom, 600)
    bc = BoundaryCondition.quasi_periodic(0.0)
    sys = assemble_boundary_system(bc, mesh)
    vals = solve_boundary_values(sys)
    quartic = CallablePotential(lambda x: (x / math.pi - 1.0) ** 4)
    # assembly's three-point rule against the six-point element loop
    p3 = assemble_pencil(mesh, bc, vals, quartic)
    a6, _ = assemble_pencil_reference(mesh, vals, quartic, quadrature_order=6)
    assert np.max(np.abs(p3.a.toarray() - a6.toarray())) < 1e-10


def test_sampled_potential_matches_callable_on_linear():
    # a linear potential is reproduced exactly by its sample table
    geom = IntervalSet([(0.0, 2.0)])
    mesh = build_mesh(geom, 12)
    bc = BoundaryCondition.dirichlet(1)
    sys = assemble_boundary_system(bc, mesh)
    vals = solve_boundary_values(sys)
    lin = CallablePotential(lambda x: 3.0 * x - 1.0)
    tab = SampledPotential([0.0, 2.0], [-1.0, 5.0])
    p1 = assemble_pencil(mesh, bc, vals, lin)
    p2 = assemble_pencil(mesh, bc, vals, tab)
    assert np.max(np.abs(p1.a.toarray() - p2.a.toarray())) <= 1e-12


# ------------------------------------------------- hermiticity / definiteness

@pytest.mark.parametrize("seed", range(12))
def test_hermitian_and_positive_definite_random(seed):
    # the CSR arrays built from the arrow blocks must equal the element-loop
    # reference, stored entries and their order included; seed % 3 picks a
    # zero, a constant or a sampled V, so each meets one and two intervals
    n = 1 + seed % 2
    geom = (IntervalSet([(0.0, TWO_PI)]) if n == 1
            else IntervalSet([(0.0, 1.0), (0.5, 2.1)]))
    mesh = build_mesh(geom, 14 + seed)
    rng = np.random.default_rng(seed)
    bc = BoundaryCondition.from_matrix(random_unitary(2 * n, rng))
    potential = (
        ZeroPotential(),
        ConstantPotential(rng.uniform(-2.0, 3.0, n)),
        SampledPotential(np.linspace(-0.5, 7.0, 17), rng.uniform(-2.0, 3.0, 17)),
    )[seed % 3]
    sys = assemble_boundary_system(bc, mesh)
    vals = solve_boundary_values(sys)
    pencil = assemble_pencil(mesh, bc, vals, potential)
    reference = assemble_pencil_reference(mesh, vals, potential)
    for got, ref in zip((pencil.a, pencil.b), reference):
        assert np.array_equal(got.indptr, ref.indptr)
        assert np.array_equal(got.indices, ref.indices)
        assert np.array_equal(got.data, ref.data)
    a, b = pencil.a.toarray(), pencil.b.toarray()
    assert np.array_equal(a, a.conj().T)
    assert np.array_equal(b, b.conj().T)
    scipy.linalg.cholesky(b, lower=True)  # must not raise


# ------------------------------------------------------------- arrow blocks

def _arrow_pencil(seed, resolution=30):
    """Random U and sampled V on 1 to 3 intervals; seed 2 has an interval
    without bulk functions (r = 2)."""
    rng = np.random.default_rng(seed)
    n = 1 + seed % 3
    geom = IntervalSet([(3.0 * k, 3.0 * k + (0.2 if seed == 2 and k == 0 else 2.0))
                        for k in range(n)])
    mesh = build_mesh(geom, resolution)
    potential = SampledPotential(np.linspace(0.0, 9.0, 7), rng.uniform(-2.0, 4.0, 7))
    bc = BoundaryCondition.from_matrix(random_unitary(2 * n, rng))
    vals = solve_boundary_values(assemble_boundary_system(bc, mesh))
    return mesh, potential, bc, vals


@pytest.mark.parametrize("seed", range(6))
def test_arrow_blocks_rebuild_the_csr_matrices(seed):
    mesh, potential, bc, vals = _arrow_pencil(seed)
    if seed == 2:
        assert min(mesh.r) == 2
    pencil = assemble_pencil(mesh, bc, vals, potential, mu=0.7)
    bnd = boundary_indices(mesh)
    bulk = np.setdiff1d(np.arange(pencil.dim), bnd)
    a, b, x = pencil.a.toarray(), pencil.b.toarray(), 2.3
    arrow = pencil.arrow
    for dense, (diag, upper, border, corner) in (
        (a, arrow.a), (b, arrow.b), (a - x * b, arrow.minus(x))
    ):
        tri = np.diag(diag) + np.diag(upper, 1) + np.diag(upper, -1)
        assert np.array_equal(dense[np.ix_(bulk, bulk)], tri)
        assert np.array_equal(dense[np.ix_(bulk, bnd)], border)
        assert np.array_equal(dense[np.ix_(bnd, bulk)], border.T)
        assert np.array_equal(dense[np.ix_(bnd, bnd)], corner)
        for part in (diag, upper, border):
            assert part.dtype == np.float64
        assert corner.dtype == pencil.a.dtype


@pytest.mark.parametrize("seed", range(6))
def test_arrow_solve_matches_dense_shifted_solve(seed):
    # (A - x B)^{-1} rhs by block elimination, in global basis order, for a
    # complex and a real right-hand side
    mesh, potential, bc, vals = _arrow_pencil(seed)
    pencil = assemble_pencil(mesh, bc, vals, potential, mu=0.7)
    rng = np.random.default_rng(seed)
    shifted = pencil.a.toarray() - 2.3 * pencil.b.toarray()
    for rhs in (rng.standard_normal(pencil.dim) + 1j * rng.standard_normal(pencil.dim),
                rng.standard_normal(pencil.dim)):
        got = pencil.arrow.solve(2.3, rhs)
        want = scipy.linalg.solve(shifted, rhs)
        assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))


def _diagonal_arrow(t_diag, c_diag):
    """Arrow blocks of A = diag(t_diag, c_diag) with B = I and no border."""
    bulk, two_n = len(t_diag), len(c_diag)
    border = np.zeros((bulk, two_n))
    return fem.ArrowBlocks(
        a=(np.array(t_diag, float), np.zeros(bulk - 1), border, np.diag(c_diag) + 0j),
        b=(np.ones(bulk), np.zeros(bulk - 1), border, np.eye(two_n) + 0j),
        order=np.arange(bulk + two_n), v_min=0.0)


@pytest.mark.parametrize("x, match", [(1.0, "bulk block"), (3.0, "Schur complement")])
def test_arrow_solve_raises_on_an_exactly_singular_shift(x, match):
    arrow = _diagonal_arrow([1.0, 2.0], [3.0, 5.0])
    with pytest.raises(np.linalg.LinAlgError, match=match):
        arrow.solve(x, np.ones(4))
    assert np.allclose(arrow.solve(1.5, np.ones(4)), 1.0 / (np.array([1, 2, 3, 5]) - 1.5))


@pytest.mark.parametrize("seed", range(6))
def test_boundary_response_solves_the_bulk_rows(seed):
    # (A - x B) R(x) vanishes on the bulk rows to rounding, equals the Schur
    # complement S(x) on the boundary rows, and R(x) is I there
    mesh, potential, bc, vals = _arrow_pencil(seed)
    pencil = assemble_pencil(mesh, bc, vals, potential, mu=0.7)
    bnd = boundary_indices(mesh)
    bulk = np.setdiff1d(np.arange(pencil.dim), bnd)
    x = 2.3
    response = pencil.arrow.boundary_response(x)
    assert response.shape == (pencil.dim, bnd.size)
    assert response.dtype == np.float64
    assert np.array_equal(response[bnd], np.eye(bnd.size))
    shifted = pencil.a.toarray() - x * pencil.b.toarray()
    product = shifted @ response
    scale = np.max(np.abs(shifted)) * np.max(np.abs(response))
    assert np.max(np.abs(product[bulk]), initial=0.0) <= 1e-13 * scale
    schur, *_ = fem.arrow_schur(*pencil.arrow.minus(x))
    assert np.max(np.abs(product[bnd] - schur)) <= 1e-13 * scale


def test_boundary_response_raises_on_an_exactly_singular_bulk_block():
    arrow = _diagonal_arrow([1.0, 2.0], [3.0, 5.0])
    with pytest.raises(np.linalg.LinAlgError, match="bulk block"):
        arrow.boundary_response(2.0)
    # no border: the responses are the boundary unit vectors
    assert np.array_equal(arrow.boundary_response(3.0), np.eye(4)[:, 2:])


def test_bulk_assembly_serves_a_sweep_over_u():
    # one bulk part, pencils for several U: each bit-identical to a full
    # assembly, real and complex alike, complex ones stored as exact
    # conjugate mirrors, and the shared part left as it was; the arrow
    # blocks alone are those of the pencil, in its dtype, on the same bands
    mesh, potential, _, _ = _arrow_pencil(1)
    boundary = boundary_indices(mesh)
    bulk = BulkAssembly(mesh, potential, mu=1.3)
    complex_pencils = 0
    first = bulk.pencil(*_boundary(mesh, -np.eye(4))).arrow
    shared = [m.copy() for blocks in (first.a, first.b) for m in blocks[:3]]
    for u in (random_unitary(4, np.random.default_rng(7)), -np.eye(4),
              np.diag(np.exp(1j * np.arange(4.0))),
              random_unitary(4, np.random.default_rng(8))):
        bc, vals = _boundary(mesh, u)
        got = bulk.pencil(bc, vals)
        want = assemble_pencil(mesh, bc, vals, potential, mu=1.3)
        assert got.arrow.v_min == want.arrow.v_min
        for g, w in ((got.a, want.a), (got.b, want.b)):
            assert g.dtype == w.dtype
            assert np.array_equal(g.indptr, w.indptr)
            assert np.array_equal(g.indices, w.indices)
            assert g.data.tobytes() == w.data.tobytes()
            if g.dtype == np.complex128:
                complex_pencils += 1
                coo = g.tocoo()
                assert_conjugate_mirror(coo.row, coo.col, coo.data, boundary)
        alone = bulk.arrow(bc, vals)
        for blocks, in_pencil, in_first in zip((alone.a, alone.b),
                                               (got.arrow.a, got.arrow.b),
                                               (first.a, first.b)):
            assert all(x is y is z for x, y, z
                       in zip(blocks[:3], in_pencil[:3], in_first[:3]))
            assert blocks[3].dtype == got.a.dtype
            assert blocks[3].tobytes() == in_pencil[3].tobytes()
    assert complex_pencils == 4  # A and B of both random U
    after = [m for blocks in (got.arrow.a, got.arrow.b) for m in blocks[:3]]
    assert all(np.array_equal(x, y) for x, y in zip(shared, after))
    with pytest.raises(ValueError):
        after[0][0] = 1.0  # shared by every pencil of the sweep: read-only


def _boundary(mesh, u):
    bc = BoundaryCondition.from_matrix(u)
    return bc, solve_boundary_values(assemble_boundary_system(bc, mesh))


@pytest.mark.parametrize("case", ["ring 250", "ring 2000", "theta 0.7",
                                  "random u on three intervals", "robin pair",
                                  "r = 2", "sampled v"])
def test_pencil_csr_arrays_match_the_template_gather(case):
    # the CSR arrays built from the arrow blocks are, byte for byte, those
    # the template gather of the bulk assembly gave
    ring = IntervalSet([(0.0, TWO_PI)])
    potential, mu = None, 1.0
    if case.startswith("ring"):
        mesh = build_mesh(ring, int(case.split()[1]))
        u = BoundaryCondition.quasi_periodic(0.0).u_endpoint
    elif case == "theta 0.7":
        mesh = build_mesh(ring, 400)
        u = BoundaryCondition.quasi_periodic(0.7).u_endpoint
    elif case == "random u on three intervals":
        mesh = build_mesh(IntervalSet([(0.0, 1.5), (2.0, 3.0), (4.0, 6.5)]), 200)
        u = random_unitary(6, np.random.default_rng(2))
        potential, mu = ConstantPotential([0.5, -1.0, 2.0]), 0.8
    elif case == "robin pair":
        mesh = build_mesh(IntervalSet([(0.0, 2.0), (3.0, 5.5)]), 240)
        u = np.diag(np.exp(1j * np.array([0.3, 1.1, 2.0, 2.9])))
    elif case == "r = 2":
        mesh = build_mesh(IntervalSet([(0.0, 1.0), (0.0, 6.0)]), 12)
        assert mesh.r[0] == 2
        u = random_unitary(4, np.random.default_rng(1))
    else:
        mesh = build_mesh(ring, 300)
        u = BoundaryCondition.quasi_periodic(0.3).u_endpoint
        potential = SampledPotential([0.0, 1.0, 2.0, TWO_PI], [0.0, 20.0, -5.0, 10.0])
    bc, vals = _boundary(mesh, u)
    got = BulkAssembly(mesh, potential, mu).pencil(bc, vals)
    want = template_gather_pencil(mesh, bc, vals, potential, mu)
    for g, w in ((got.a, want.a), (got.b, want.b)):
        for name in ("data", "indices", "indptr"):
            x, y = getattr(g, name), getattr(w, name)
            assert x.dtype == y.dtype and x.tobytes() == y.tobytes()
    assert got.a.dtype == (np.float64 if case in ("ring 250", "ring 2000", "robin pair")
                           else np.complex128)


# ------------------------------------------------------------ storage dtype

@pytest.mark.parametrize("n, u, dtype", [
    (1, -np.eye(2), np.float64),
    (1, np.eye(2), np.float64),
    (1, np.diag([1.0, -1.0]), np.float64),
    (2, -np.eye(4), np.float64),
    (1, np.diag(np.exp(1j * np.array([0.3, 1.1]))), np.float64),
    (1, random_unitary(2, np.random.default_rng(3)), np.complex128),
], ids=["dirichlet", "neumann", "neumann-dirichlet", "dirichlet-two-intervals",
        "robin", "random"])
def test_pencil_dtype_follows_boundary_condition(n, u, dtype):
    # diagonal U, real orthogonal or Robin, give real boundary values, so A
    # and B are stored and solved in float64; a generic U does not (for a
    # symmetric, non-diagonal U see test_boundary's
    # test_symmetric_u_gives_a_real_pencil)
    _, mesh, bc, vals = _setup(BoundaryCondition.from_matrix(u), n=n)
    pencil = assemble_pencil(mesh, bc, vals, ConstantPotential([0.7] * n))
    assert pencil.a.dtype == pencil.b.dtype == dtype


def test_hand_built_pencil_dtype_follows_imaginary_parts():
    a = np.array([[2.0, 1.0 + 0.0j], [1.0, 3.0]])
    b = np.eye(2, dtype=complex)
    real = fem.Pencil(a=a, b=b)
    assert real.a.dtype == real.b.dtype == np.float64
    assert np.array_equal(real.a.toarray(), a.real)
    a[0, 1], a[1, 0] = 1.0 + 0.5j, 1.0 - 0.5j
    complex_ = fem.Pencil(a=a, b=b)
    # one imaginary part in A keeps both matrices complex
    assert complex_.a.dtype == complex_.b.dtype == np.complex128
    # a pencil is (A, B); only assembly attaches arrow blocks, which must
    # match the CSR arrays
    assert [f.name for f in dataclasses.fields(fem.Pencil) if f.init] == ["a", "b"]
    assert real.arrow is complex_.arrow is None
    with pytest.raises(TypeError):
        fem.Pencil(a=a, b=b, arrow=None)


@pytest.mark.parametrize("form", ["dense", "csr", "coo"])
@pytest.mark.parametrize("kind", ["int", "float32", "float64",
                                  "complex without imaginary part", "complex"])
def test_pencil_converts_like_the_two_step_reference(kind, form):
    # each matrix is converted once to its final dtype; its arrays are
    # bitwise those of the two-step conversion through complex128, and
    # none of them is the caller's
    rng = np.random.default_rng(11)
    entries = rng.integers(-4, 5, (2, 6, 6)) * (rng.random((2, 6, 6)) < 0.5)
    matrices = {
        "int": entries,
        "float32": (entries / 3.0).astype(np.float32),
        "float64": entries / 3.0,
        "complex without imaginary part": (entries / 3.0).astype(complex),
        "complex": entries / 3.0 + 1j * entries[::-1] / 7.0,
    }[kind]
    given = [m if form == "dense" else getattr(scipy.sparse, f"{form}_array")(m)
             for m in matrices]
    pencil = fem.Pencil(*given)
    assert pencil.a.dtype == (np.complex128 if kind == "complex" else np.float64)
    for got, want, m in zip((pencil.a, pencil.b), pencil_two_step_reference(*given),
                            given):
        assert isinstance(got, scipy.sparse.csr_array)
        arrays = (got.data, got.indices, got.indptr)
        for x, y in zip(arrays, (want.data, want.indices, want.indptr)):
            assert x.dtype == y.dtype and x.tobytes() == y.tobytes()
        inputs = ([m] if form == "dense" else
                  [m.data, *(m.coords if form == "coo" else (m.indices, m.indptr))])
        assert not any(np.shares_memory(x, y) for x in arrays for y in inputs)


def test_assembly_rejects_constraint_violation():
    geom = IntervalSet([(0.0, TWO_PI)])
    mesh = build_mesh(geom, 12)
    bc = BoundaryCondition.dirichlet(1)
    h = mesh.h_endpoint
    v = np.array([[0.3, 0.1], [0.9, 0.4]], dtype=complex)
    g = (1.0 / h)[:, None] * v  # deliberately not hermitian
    bad = BoundaryValues(v=v, g=g, h=h)
    with pytest.raises(AssemblyError, match="hermiticity"):
        assemble_pencil(mesh, bc, bad)


@pytest.mark.parametrize("mu", [0.0, -1.0, math.nan, math.inf])
def test_assembly_rejects_bad_mass_factor(mu):
    _, mesh, bc, vals = _setup(BoundaryCondition.dirichlet, resolution=12)
    with pytest.raises(AssemblyError, match="mu"):
        assemble_pencil(mesh, bc, vals, mu=mu)


def test_assembly_rejects_non_finite_quadrature_values():
    _, mesh, bc, vals = _setup(BoundaryCondition.dirichlet, resolution=12)
    pole = CallablePotential(lambda x: np.where(x > 3.0, np.nan, 0.0))
    with pytest.raises(AssemblyError, match="not finite"):
        assemble_pencil(mesh, bc, vals, pole)


def test_assembly_hermiticity_gate_rejects_nan():
    # NaN endpoint values with an exactly hermitian G reach the raw
    # boundary block; NaN must fail the gate, not slip past a `>` test.
    geom = IntervalSet([(0.0, TWO_PI)])
    mesh = build_mesh(geom, 12)
    h = mesh.h_endpoint
    g = np.array([[0.3, 0.1], [0.1, 0.4]], dtype=complex)
    v = h[:, None] * g
    v[0, 1] = np.nan
    bad = BoundaryValues(v=v, g=g, h=h)
    with pytest.raises(AssemblyError, match="non-hermitian"):
        assemble_pencil(mesh, BoundaryCondition.dirichlet(1), bad)


def test_assembly_rejects_foreign_mesh():
    geom = IntervalSet([(0.0, TWO_PI)])
    mesh_a = build_mesh(geom, 12)
    mesh_b = build_mesh(geom, 13)
    bc = BoundaryCondition.dirichlet(1)
    vals = solve_boundary_values(assemble_boundary_system(bc, mesh_a))
    with pytest.raises(AssemblyError, match="different mesh"):
        assemble_pencil(mesh_b, bc, vals)


# ------------------------------------------------------------------ sparsity

def test_sparsity_pattern_and_case_analysis():
    geom = IntervalSet([(0.0, 1.0), (0.0, 3.0)])
    mesh = build_mesh(geom, 12)  # r = (4, 10)
    bc = BoundaryCondition.from_matrix(
        random_unitary(4, np.random.default_rng(0))
    )
    sys = assemble_boundary_system(bc, mesh)
    vals = solve_boundary_values(sys)
    pencil = assemble_pencil(mesh, bc, vals)
    # stored entries of A and B: tridiagonal plus the boundary rows/columns
    pattern = np.zeros((pencil.dim, pencil.dim), dtype=bool)
    for m in (pencil.a.tocoo(), pencil.b.tocoo()):
        pattern[m.row, m.col] = True

    bidx = set(boundary_indices(mesh).tolist())
    # interior bulk couples only to neighbors
    g = bulk_index(mesh, 1, 5)
    allowed = {g - 1, g, g + 1}
    assert set(np.nonzero(pattern[g])[0].tolist()) <= allowed
    # extreme bulk couples to its boundary function and the next bulk
    g2 = bulk_index(mesh, 0, 2)
    assert set(np.nonzero(pattern[g2])[0].tolist()) <= {
        boundary_index(mesh, 0), g2, g2 + 1
    }
    # boundary functions couple to all boundary functions and one extreme bulk
    gb = boundary_index(mesh, 2)
    neighbors = set(np.nonzero(pattern[gb])[0].tolist())
    assert bidx <= neighbors
    assert bulk_index(mesh, 1, 2) in neighbors
    # O(N) storage: at most three entries per bulk row, 2n + 2 per boundary row
    n_bnd = len(bidx)
    assert pencil.a.nnz <= 3 * (pencil.dim - n_bnd) + n_bnd * (n_bnd + 2)


def test_empty_bulk_interval_assembles():
    # r = (2, 11): the first interval carries no bulk functions at all.
    geom = IntervalSet([(0.0, 1.0), (0.0, 6.0)])
    mesh = build_mesh(geom, 12)
    assert mesh.r[0] == 2
    bc = BoundaryCondition.from_matrix(
        random_unitary(4, np.random.default_rng(1))
    )
    sys = assemble_boundary_system(bc, mesh)
    vals = solve_boundary_values(sys)
    pencil = assemble_pencil(mesh, bc, vals)
    assert pencil.dim == mesh.dim
    a = pencil.a.toarray()
    assert np.array_equal(a, a.conj().T)
    scipy.linalg.cholesky(pencil.b.toarray(), lower=True)


def test_mass_factor_scales_kinetic_part():
    _, mesh, bc, vals = _setup(BoundaryCondition.dirichlet, resolution=16)
    p1 = assemble_pencil(mesh, bc, vals, mu=1.0)
    p2 = assemble_pencil(mesh, bc, vals, mu=0.5)
    a1 = p1.a.toarray()
    assert np.max(np.abs(p2.a.toarray() - 0.5 * a1)) <= 1e-14 * np.max(np.abs(a1))
    assert np.array_equal(p2.b.toarray(), p1.b.toarray())
