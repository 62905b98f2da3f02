import logging
import math

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg

from helpers import (
    REFERENCE_MESHES,
    boundary_index,
    bulk_index,
    charpoly_eigenvalues,
    cholesky_pencil_reference,
    h1_error_two_pass_reference,
    node_value_arrays_loop,
    random_hermitian,
    random_spd,
    residual_tolerances,
    weighted_hermitian_values,
)
from saext import eigen
from saext.boundary import (
    BoundaryCondition,
    BoundaryValues,
    assemble_boundary_system,
    random_unitary,
    retry_mesh_on_bad_conditioning,
    solve_boundary_values,
)
from saext.eigen import (
    RESIDUAL_RTOL,
    EigenSolution,
    EigenSolveError,
    PositiveDefinitenessError,
    _arpack_block,
    _is_hermitian,
    _negative_count,
    _one_blas_thread,
    _openblas_libraries,
    _phase_reference,
    _SearchSpace,
    _solve_dense,
    eigenfunction_samples,
    h1_error,
    solve_pencil,
)
from saext.fem import Pencil, assemble_pencil, node_values
from saext.geometry import IntervalSet, build_mesh
from saext.potentials import ConstantPotential, SampledPotential, ZeroPotential

TWO_PI = 2 * math.pi


def _solve_setup(bc, resolution, mu=1.0, count=None, geom=None):
    if geom is None:
        geom = IntervalSet([(0.0, TWO_PI)])
    mesh = build_mesh(geom, resolution)
    sys = assemble_boundary_system(bc, mesh)
    vals = solve_boundary_values(sys)
    pencil = assemble_pencil(mesh, bc, vals, mu=mu)
    sol = solve_pencil(pencil, count=count)
    return mesh, vals, pencil, sol


def test_diagonal_two_by_two():
    a = np.diag([1.0, 2.0]).astype(complex)
    b = np.eye(2, dtype=complex)
    sol = solve_pencil(Pencil(a, b))
    assert np.allclose(sol.eigenvalues, [1.0, 2.0])
    assert np.allclose(np.abs(sol.eigenvectors), np.eye(2), atol=1e-14)


@pytest.mark.parametrize("seed", range(30))
def test_matches_characteristic_polynomial_oracle(seed):
    rng = np.random.default_rng(seed)
    a = random_hermitian(6, rng)
    b = random_spd(6, rng)
    sol = solve_pencil(Pencil(a, b))
    reference = charpoly_eigenvalues(a, b)
    assert np.max(np.abs(sol.eigenvalues - reference)
                  / np.maximum(1.0, np.abs(reference))) <= 1e-8


@pytest.mark.parametrize("seed", range(10))
def test_shift_consistency(seed):
    rng = np.random.default_rng(100 + seed)
    a = random_hermitian(7, rng)
    b = random_spd(7, rng)
    shift = float(rng.uniform(-5, 5))
    base = solve_pencil(Pencil(a, b))
    shifted = solve_pencil(Pencil((a + shift * b + (a + shift * b).conj().T) / 2, b))
    assert np.max(np.abs(shifted.eigenvalues - (base.eigenvalues + shift))) <= 1e-9 * (
        1 + np.max(np.abs(base.eigenvalues))
    )


def test_b_orthonormality_and_residuals_random():
    rng = np.random.default_rng(42)
    a = random_hermitian(20, rng)
    b = random_spd(20, rng)
    pencil = Pencil(a, b)
    sol = solve_pencil(pencil)
    gram = sol.eigenvectors.conj().T @ b @ sol.eigenvectors
    assert np.max(np.abs(gram - np.eye(20))) <= 1e-10
    assert np.all(sol.residuals <= residual_tolerances(pencil, sol.eigenvalues))


def test_degenerate_pair_orthonormal(resolution=120):
    # periodic free particle has exactly degenerate excited pairs
    bc = BoundaryCondition.quasi_periodic(0.0)
    mesh, vals, pencil, sol = _solve_setup(bc, resolution, count=7)
    gram = sol.eigenvectors.conj().T @ pencil.b @ sol.eigenvectors
    assert np.max(np.abs(gram - np.eye(7))) <= 1e-10
    # pairs (1,2) and (3,4) are nearly degenerate
    assert abs(sol.eigenvalues[1] - sol.eigenvalues[2]) <= 1e-3
    assert abs(sol.eigenvalues[3] - sol.eigenvalues[4]) <= 1e-2


def test_degenerate_pair_orthonormal_at_n2000():
    # the sparse path's Rayleigh-Ritz step keeps the pairs B-orthonormal
    test_degenerate_pair_orthonormal(resolution=2000)


def test_degenerate_cluster_grouping():
    sol = EigenSolution(
        eigenvalues=np.array([0.0, 1.0, 1.0 + 5e-10, 4.0]),
        eigenvectors=np.zeros((4, 4), dtype=complex),
        residuals=np.zeros(4),
    )
    assert sol.degenerate_clusters() == [[0], [1, 2], [3]]
    # a cluster splits only at a gap between neighbours: a chain of close
    # eigenvalues stays one cluster however wide it spans
    chained = EigenSolution(
        eigenvalues=np.array([0.0, 1.0, 1.0 + 0.7e-9, 1.0 + 1.4e-9, 4.0]),
        eigenvectors=np.zeros((5, 5), dtype=complex),
        residuals=np.zeros(5),
    )
    assert chained.degenerate_clusters() == [[0], [1, 2, 3], [4]]


def test_phase_fixing_reference_inner_product_real_positive():
    rng = np.random.default_rng(7)
    a = random_hermitian(9, rng)
    b = random_spd(9, rng)
    sol = solve_pencil(Pencil(a, b))
    inner = _phase_reference(9) @ sol.eigenvectors
    assert np.all(inner.real > 0)
    assert np.all(np.abs(inner.imag) <= 1e-14 * np.abs(inner))


def test_phase_reference_is_drawn_once_per_dimension():
    first = _phase_reference(251)
    assert _phase_reference(251) is first
    assert not first.flags.writeable
    fresh = np.random.default_rng(1103).random(251)
    assert first.tobytes() == fresh.tobytes()


def test_phase_fixing_agrees_between_sparse_and_dense_paths(caplog):
    # criterion 10's ring: each excited level is a pair split by ~3e-6, whose
    # eigenfunctions tie in largest coefficient; the two paths must still
    # turn every eigenfunction the same way
    bc = BoundaryCondition.quasi_periodic(0.0)
    with caplog.at_level(logging.WARNING, logger="saext"):
        mesh, vals, pencil, sparse = _solve_setup(bc, 250, count=9)
    assert not caplog.records  # the certified sparse path answered
    dense = _solve_dense(pencil, None)
    for k in range(8):
        _, v_sparse = eigenfunction_samples(sparse, mesh, vals, k)
        _, v_dense = eigenfunction_samples(dense, mesh, vals, k)
        assert (np.max(np.abs(v_sparse - v_dense))
                <= 1e-6 * np.max(np.abs(v_dense))), k


def test_dirichlet_free_particle_spectrum():
    bc = BoundaryCondition.dirichlet(1)
    _, _, _, sol = _solve_setup(bc, 800, count=5)
    analytic = np.array([k * k / 4 for k in range(1, 6)])
    assert abs(sol.eigenvalues[0] - 0.25) <= 1e-5
    assert np.max(np.abs(sol.eigenvalues - analytic) / analytic) <= 1e-4


def test_periodic_ground_level_is_zero():
    bc = BoundaryCondition.quasi_periodic(0.0)
    _, _, _, sol = _solve_setup(bc, 200, count=1)
    assert abs(sol.eigenvalues[0]) <= 1e-8


def test_count_subset_matches_full():
    bc = BoundaryCondition.dirichlet(1)
    _, _, _, full = _solve_setup(bc, 60)
    _, _, _, part = _solve_setup(bc, 60, count=4)
    assert np.allclose(part.eigenvalues, full.eigenvalues[:4], atol=1e-12)


def test_rejects_non_hermitian():
    a = np.array([[1.0, 2.0], [0.5, 1.0]], dtype=complex)
    b = np.eye(2, dtype=complex)
    with pytest.raises(EigenSolveError, match="hermitian"):
        solve_pencil(Pencil(a, b))


def _csr_arrays(m):
    return [x.copy() for x in (m.data, m.indptr, m.indices)]


def test_explicit_zero_mirrored_by_structural_zero_is_hermitian():
    # A stores an explicit zero at (0, 1); its mirror (1, 0) is not stored
    a = scipy.sparse.csr_array((np.array([2.0, 0.0, 3.0]), np.array([0, 1, 1]),
                                np.array([0, 2, 3])), shape=(2, 2))
    pencil = Pencil(a, np.eye(2))
    assert pencil.a.nnz == 3
    stored = _csr_arrays(pencil.a)
    assert np.array_equal(solve_pencil(pencil).eigenvalues, [2.0, 3.0])
    for got, want in zip(_csr_arrays(pencil.a), stored):
        assert got.dtype == want.dtype and np.array_equal(got, want)


@pytest.mark.parametrize("real", [False, True])
@pytest.mark.parametrize("which", ["A", "B"])
def test_one_ulp_asymmetry_is_not_hermitian(which, real):
    pencil, count = _random_pencil(4, real=real)
    a, b = pencil.a.copy(), pencil.b.copy()
    m = a if which == "A" else b
    rows = np.repeat(np.arange(m.shape[0]), np.diff(m.indptr))
    k = np.flatnonzero(m.indices > rows)[0]  # one entry above the diagonal
    m.data[k] += np.spacing(m.data[k].real)
    with pytest.raises(EigenSolveError, match=f"^{which} is not hermitian$"):
        solve_pencil(Pencil(a, b), count=count)


def _csr(dim, rows, cols, values):
    """A CSR array with exactly the given entries stored, in row order and
    in the given order within each row (duplicates and explicit zeros
    kept)."""
    rows = np.asarray(rows)
    order = np.argsort(rows, kind="stable")
    indptr = np.searchsorted(rows[order], np.arange(dim + 1))
    return scipy.sparse.csr_array(
        (np.asarray(values, dtype=complex)[order], np.asarray(cols)[order], indptr),
        shape=(dim, dim))


@pytest.mark.parametrize("seed", range(6))
def test_hermitian_check_accepts_what_the_entrywise_comparison_accepts(seed):
    # a hand-built pencil with the variant as A (B = I) or as a positive
    # definite B (A = I) is solved when the variant equals its conjugate
    # transpose entry by entry, and otherwise refused by name on the dense
    # path; the pencil's arrays are left as they were
    rng = np.random.default_rng(seed)
    dim = 7
    full = random_hermitian(dim, rng) * (rng.random((dim, dim)) < 0.4)
    full = full + full.conj().T + np.diag(rng.standard_normal(dim))
    full[0, dim - 1] = full[dim - 1, 0] = 0.0
    for which, m in (("A", full), ("B", full + (np.abs(full).sum() + 1.0) * np.eye(dim))):
        rows, cols = np.nonzero(m)
        values = m[rows, cols]
        upper = np.flatnonzero(rows < cols)[0]  # an entry above the diagonal
        swapped = np.arange(rows.size)
        swapped[[0, 1]] = [1, 0]
        variants = {
            "hermitian": (rows, cols, values),
            # every entry stored twice, as two halves
            "duplicates": (np.r_[rows, rows], np.r_[cols, cols],
                           np.r_[values, values] / 2.0),
            "unsorted indices": (rows[swapped], cols[swapped], values[swapped]),
            "explicit zero": (np.r_[rows, 0], np.r_[cols, dim - 1], np.r_[values, 0.0]),
            "signed zero": (np.r_[rows, 0, dim - 1], np.r_[cols, dim - 1, 0],
                            np.r_[values, -0.0, 0.0]),
            "one ulp": (rows, cols, values + np.spacing(values.real)
                        * (np.arange(rows.size) == upper)),
            "imaginary diagonal": (np.r_[rows, 0], np.r_[cols, 0], np.r_[values, 1j]),
            "unmirrored entry": (np.r_[rows, cols[upper]], np.r_[cols, rows[upper]],
                                 np.r_[values, 1.0]),
        }
        decided = {}
        for name, entries in variants.items():
            complex_m = _csr(dim, *entries)
            decided[name] = []
            for variant in (complex_m, complex_m.real.copy()):
                pencil = (Pencil(variant, np.eye(dim)) if which == "A"
                          else Pencil(np.eye(dim), variant))
                stored = [_csr_arrays(m) for m in (pencil.a, pencil.b)]
                try:
                    solve_pencil(pencil)
                    decided[name].append(True)
                except EigenSolveError as exc:
                    assert str(exc) == f"{which} is not hermitian", name
                    decided[name].append(False)
                for m, arrays in zip((pencil.a, pencil.b), stored):
                    for got, want in zip(_csr_arrays(m), arrays):
                        assert np.array_equal(got, want), name
        for name in ("hermitian", "duplicates", "unsorted indices", "explicit zero",
                     "signed zero"):
            assert decided[name] == [True, True], (which, name)
        for name in ("one ulp", "unmirrored entry"):
            assert decided[name] == [False, False], (which, name)
        assert decided["imaginary diagonal"] == [False, True], which


def test_only_the_dense_path_checks_hermiticity(monkeypatch):
    # the sparse and warm paths take an assembled pencil, hermitian by
    # construction, without a comparison; the dense path, whose LAPACK
    # driver reads one triangle, compares A and B each
    bc = BoundaryCondition.quasi_periodic(0.7)
    _, _, pencil, sol = _solve_setup(bc, 200, count=6)

    def forbidden(m):
        raise AssertionError("hermiticity checked off the dense path")

    monkeypatch.setattr(eigen, "_is_hermitian", forbidden)
    partial = solve_pencil(pencil, count=4)
    assert np.allclose(partial.eigenvalues, sol.eigenvalues[:4], rtol=0, atol=1e-10)
    warm = _SearchSpace(pencil.arrow, sol.eigenvectors).solve_stack([pencil.arrow], 4)
    assert np.allclose(warm[0], sol.eigenvalues[:4], rtol=0, atol=1e-10)
    checked = []

    def recording(m):
        checked.append(m)
        return _is_hermitian(m)

    monkeypatch.setattr(eigen, "_is_hermitian", recording)
    assert solve_pencil(pencil).count == pencil.dim
    assert len(checked) == 2
    assert checked[0] is pencil.a and checked[1] is pencil.b


def test_reports_failing_pivot():
    a = np.eye(3, dtype=complex)
    b = np.diag([1.0, -1.0, 1.0]).astype(complex)
    with pytest.raises(PositiveDefinitenessError) as err:
        solve_pencil(Pencil(a, b))
    assert err.value.pivot == 2


@pytest.mark.parametrize("which", ["A", "B"])
@pytest.mark.parametrize("bad, message", [
    (np.ones((3, 2)), "{which} is not square"),
    (np.eye(2), "A and B differ in shape"),
    (np.diag([2.0, np.nan, 4.0]), "{which} has a non-finite entry"),
    (np.diag([2.0, 3.0, np.inf]), "{which} has a non-finite entry"),
], ids=["not-square", "shape-mismatch", "nan", "inf"])
def test_rejects_bad_hand_built_matrix(which, bad, message):
    # the error names the bad matrix and its defect
    good = np.diag([2.0, 3.0, 4.0])
    a, b = (bad, good) if which == "A" else (good, bad)
    with pytest.raises(EigenSolveError, match="^" + message.format(which=which)):
        solve_pencil(Pencil(a, b))


def _assert_matches_cholesky_reduction(sol, a, b, count):
    """Eigenvalues within 1e-10 of the Cholesky-reduction reference,
    relative to the largest |lambda| of the pencil, and B-orthonormal
    eigenvectors to 1e-12."""
    w_ref, _ = cholesky_pencil_reference(a, b, count)
    scale = max(1.0, float(np.max(np.abs(cholesky_pencil_reference(a, b)[0]))))
    assert sol.count == w_ref.size
    assert np.max(np.abs(sol.eigenvalues - w_ref)) <= 1e-10 * scale
    gram = sol.eigenvectors.conj().T @ (b @ sol.eigenvectors)
    assert np.max(np.abs(gram - np.eye(sol.count))) <= 1e-12


@pytest.mark.parametrize("count", [None, 4])
@pytest.mark.parametrize("seed", range(8))
def test_dense_path_matches_cholesky_reduction(seed, count):
    rng = np.random.default_rng(500 + seed)
    dim = 5 + 3 * seed
    a = random_hermitian(dim, rng)
    b = random_spd(dim, rng)
    sol = solve_pencil(Pencil(a, b), count=count)
    _assert_matches_cholesky_reduction(sol, a, b, count)


def test_dense_failure_with_definite_mass_is_not_a_pivot_error(monkeypatch):
    def fail(*args, **kwargs):
        raise scipy.linalg.LinAlgError("forced failure")

    monkeypatch.setattr(scipy.linalg, "eigh", fail)
    with pytest.raises(EigenSolveError, match="forced failure") as err:
        solve_pencil(Pencil(np.eye(3, dtype=complex),
                            np.eye(3, dtype=complex)))
    assert not isinstance(err.value, PositiveDefinitenessError)


@pytest.mark.parametrize("where", ["toarray", "eigh"])
def test_dense_path_out_of_memory_is_typed(monkeypatch, where):
    # forming or solving the N x N arrays runs out of memory: the error
    # names the dimension and the size of one array
    def no_memory(*args, **kwargs):
        raise MemoryError("no memory")

    if where == "toarray":
        monkeypatch.setattr(scipy.sparse.csr_array, "toarray", no_memory)
    else:
        monkeypatch.setattr(scipy.linalg, "eigh", no_memory)
    complex_a = np.array([[2.0, 1j, 0.0], [-1j, 2.0, 0.0], [0.0, 0.0, 2.0]])
    for a, size in ((np.eye(3), 72), (complex_a, 144)):
        with pytest.raises(EigenSolveError, match=(
                f"^out of memory for the dense solve of dimension 3: each N x N "
                f"array takes {size} bytes ")) as err:
            solve_pencil(Pencil(a, np.eye(3)))
        assert isinstance(err.value.__cause__, MemoryError)


# ------------------------------------------------------ sparse partial path

def _random_pencil(seed, real=False):
    """Random U on 1-3 intervals with zero, constant or sampled V; with
    ``real``, a random Robin U = diag(e^{i alpha}), whose pencil is real."""
    rng = np.random.default_rng(seed)
    n = 1 + seed % 3
    geom = IntervalSet([(3.0 * k, 3.0 * k + rng.uniform(1.0, 3.0))
                        for k in range(n)])
    potential = (
        ZeroPotential(),
        ConstantPotential(rng.uniform(-3.0, 5.0, n)),
        SampledPotential(np.linspace(0.0, 9.0, 13), rng.uniform(-2.0, 4.0, 13)),
    )[seed // 3 % 3]
    bc = BoundaryCondition.from_matrix(
        np.diag(np.exp(1j * rng.uniform(0.0, TWO_PI, 2 * n))) if real
        else random_unitary(2 * n, rng))
    mesh, _, vals = retry_mesh_on_bad_conditioning(
        bc, geom, int(rng.integers(60, 300))
    )
    pencil = assemble_pencil(mesh, bc, vals, potential,
                             mu=float(rng.uniform(0.3, 2.0)))
    return pencil, 1 + seed % 12


def _sparse_fallbacks(caplog):
    return [r for r in caplog.records if "dense fallback" in r.getMessage()]


@pytest.mark.parametrize("seed", range(24))
def test_sparse_path_matches_dense(seed, caplog):
    pencil, count = _random_pencil(seed)
    with caplog.at_level(logging.WARNING, logger="saext"):
        part = solve_pencil(pencil, count=count)
    assert not _sparse_fallbacks(caplog)  # the certified sparse path answered
    full = solve_pencil(pencil).eigenvalues[:count]
    assert part.count == count
    assert np.max(np.abs(part.eigenvalues - full)
                  / np.maximum(1.0, np.abs(full))) <= 1e-8
    assert np.all(part.residuals <= residual_tolerances(pencil, part.eigenvalues))
    gram = part.eigenvectors.conj().T @ (pencil.b @ part.eigenvectors)
    assert np.max(np.abs(gram - np.eye(count))) <= 1e-10


@pytest.mark.parametrize("seed", range(12))
def test_real_sparse_path_matches_dense(seed, caplog):
    pencil, count = _random_pencil(seed, real=True)
    assert pencil.a.dtype == pencil.b.dtype == np.float64
    with caplog.at_level(logging.WARNING, logger="saext"):
        part = solve_pencil(pencil, count=count)
    assert not _sparse_fallbacks(caplog)  # the certified sparse path answered
    full = _solve_dense(pencil, None)
    assert part.eigenvectors.dtype == full.eigenvectors.dtype == np.float64
    assert np.max(np.abs(part.eigenvalues - full.eigenvalues[:count])
                  / np.maximum(1.0, np.abs(full.eigenvalues[:count]))) <= 1e-10
    assert np.all(part.residuals <= residual_tolerances(pencil, part.eigenvalues))
    gram = part.eigenvectors.T @ (pencil.b @ part.eigenvectors)
    assert np.max(np.abs(gram - np.eye(count))) <= 1e-10


@pytest.mark.parametrize("count", [None, 6])
@pytest.mark.parametrize("seed", range(0, 24, 5))
def test_dense_path_matches_cholesky_reduction_on_assembled_pencils(seed, count):
    pencil, _ = _random_pencil(seed)
    _assert_matches_cholesky_reduction(_solve_dense(pencil, count),
                                       pencil.a.toarray(), pencil.b.toarray(),
                                       count)


def test_sparse_path_certifies_cluster_straddling_the_count(caplog):
    # three identical Dirichlet intervals: every level is a triple
    geom = IntervalSet([(0.0, 2.0), (3.0, 5.0), (6.0, 8.0)])
    bc = BoundaryCondition.dirichlet(3)
    _, _, pencil, _ = _solve_setup(bc, 300, count=1, geom=geom)
    full = solve_pencil(pencil).eigenvalues
    for count in (1, 2, 4):
        with caplog.at_level(logging.WARNING, logger="saext"):
            part = solve_pencil(pencil, count=count)
        assert np.allclose(part.eigenvalues, full[:count], rtol=1e-10, atol=0)
    assert not _sparse_fallbacks(caplog)


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_real_ritz_pairs_cover_complex_ritz_vectors(k):
    # a triple level makes real ARPACK return some Ritz vectors as complex
    # conjugate pairs, whose real parts alone span too little: the search
    # space takes their real span, and the k pairs must still all come
    # back, accurate
    geom = IntervalSet([(0.0, 2.0), (3.0, 5.0), (6.0, 8.0)])
    _, _, pencil, _ = _solve_setup(BoundaryCondition.dirichlet(3), 300,
                                   count=1, geom=geom)
    block = _arpack_block(pencil, k, pencil.arrow.v_min - 1.0)
    solution = _SearchSpace(pencil.arrow, block).steps([pencil.arrow], k)[0].solution
    full = _solve_dense(pencil, k).eigenvalues
    w, vectors = solution.eigenvalues, solution.eigenvectors
    assert w.shape == (k,) and vectors.shape == (pencil.dim, k)
    assert vectors.dtype == np.float64
    assert np.allclose(w, full, rtol=1e-10, atol=0)


@pytest.mark.parametrize("case", ["real ring", "complex random U",
                                  "widened triple"])
def test_cold_path_is_the_search_space_step_on_arpacks_block(case, monkeypatch):
    # one Rayleigh-Ritz implementation: the cold solve is the search space's
    # step on ARPACK's last block (widened once when a triple level
    # straddles the count), byte for byte, and its residuals are the CSR
    # pencil's ||A v - lambda B v||
    if case == "real ring":
        _, _, pencil, _ = _solve_setup(BoundaryCondition.quasi_periodic(0.0),
                                       250, count=1)
        count = 8
    elif case == "complex random U":
        pencil, count = _random_pencil(7)
    else:
        geom = IntervalSet([(0.0, 2.0), (3.0, 5.0), (6.0, 8.0)])
        _, _, pencil, _ = _solve_setup(BoundaryCondition.dirichlet(3), 300,
                                       count=1, geom=geom)
        count = 2
    blocks = []

    def recording(*args):
        blocks.append(_arpack_block(*args))
        return blocks[-1]

    monkeypatch.setattr(eigen, "_arpack_block", recording)
    cold = solve_pencil(pencil, count=count)
    assert len(blocks) == (2 if case == "widened triple" else 1)
    assert blocks[-1] is not None
    with _one_blas_thread:
        [step] = _SearchSpace(pencil.arrow, blocks[-1]).steps([pencil.arrow], count)
    assert step.converged
    want = step.solution
    for name in ("eigenvalues", "eigenvectors", "residuals"):
        got, expected = getattr(cold, name), getattr(want, name)
        assert got.dtype == expected.dtype and got.tobytes() == expected.tobytes()
    vectors, w = cold.eigenvectors, cold.eigenvalues
    residuals = np.linalg.norm(pencil.a @ vectors - (pencil.b @ vectors) * w, axis=0)
    tolerances = residual_tolerances(pencil, w)
    assert np.all(np.abs(cold.residuals - residuals) <= 1e-3 * tolerances)


def test_missed_eigenvalue_falls_back_to_dense(monkeypatch, caplog):
    bc = BoundaryCondition.quasi_periodic(0.0)
    _, _, pencil, reference = _solve_setup(bc, 300, count=None)
    real_eigs = scipy.sparse.linalg.eigs

    def skipping_eigs(op, k, **kwargs):
        # one more pair than asked for, minus the second lowest level (the
        # second largest shift-inverted value): a plausible ARPACK run that
        # missed one member of the first degenerate pair
        theta, x = real_eigs(op, k=k + 1, **kwargs)
        keep = np.argsort(-theta.real)[np.arange(k + 1) != 1]
        return theta[keep], x[:, keep]

    monkeypatch.setattr(scipy.sparse.linalg, "eigs", skipping_eigs)
    with caplog.at_level(logging.WARNING, logger="saext"):
        sol = solve_pencil(pencil, count=6)
    assert any("certificate failed" in r.getMessage() for r in caplog.records)
    assert np.allclose(sol.eigenvalues, reference.eigenvalues[:6], rtol=0, atol=1e-10)


def test_certificate_tries_deeper_in_the_gap(monkeypatch, caplog):
    # the Robin-like U = e^{ia} I_2, kappa = -tan(a / 2) = 1000, on
    # (0, 2 pi) at N = 6000: T(tau) is numerically singular at the first tau,
    # just above the fourth Ritz value, and nu is trusted 1% into the gap,
    # so the partial solve certifies there instead of a dense fallback.
    # Each tau is counted once: after the shift search's last count (0),
    # the first tau (None), then the 1% point (4).
    u = np.exp(-2j * math.atan(1000.0)) * np.eye(2)
    _, _, pencil, _ = _solve_setup(BoundaryCondition.from_matrix(u), 6000,
                                   count=1)
    counts = []
    negative_counts = eigen._negative_counts

    def recording(*blocks):
        found = negative_counts(*blocks)
        counts.append(found if found is None else found.tolist())
        return found

    monkeypatch.setattr(eigen, "_negative_counts", recording)
    with caplog.at_level(logging.WARNING, logger="saext"):
        solution = solve_pencil(pencil, count=4)
    assert not caplog.records
    assert counts[-3:] == [[0], None, [4]]
    assert solution.count == 4
    assert np.all(solution.residuals <= residual_tolerances(pencil,
                                                            solution.eigenvalues))


def test_certificate_tries_the_next_tau_on_an_undercount(monkeypatch, caplog):
    # the complex ring (theta = 0.7, V = 0) at N = 150000, count 8: just
    # above the eighth Ritz value nu(tau) reads 7, one short by rounding,
    # as Ritz values bound their eigenvalues from above; the certificate
    # moves on as from a singular T(tau) and certifies at 1% of the gap.
    # The dense path, with its N x N arrays, must not be reached.
    def no_dense(pencil, count):
        raise AssertionError("dense path reached")

    monkeypatch.setattr(eigen, "_solve_dense", no_dense)
    mesh = build_mesh(IntervalSet([(0.0, TWO_PI)]), 150000)
    bc = BoundaryCondition.quasi_periodic(0.7)
    pencil = assemble_pencil(mesh, bc, solve_boundary_values(
        assemble_boundary_system(bc, mesh)))
    counts = []
    negative_counts = eigen._negative_counts

    def recording(*blocks):
        found = negative_counts(*blocks)
        counts.append(found if found is None else found.tolist())
        return found

    monkeypatch.setattr(eigen, "_negative_counts", recording)
    with caplog.at_level(logging.WARNING, logger="saext"):
        solution = solve_pencil(pencil, count=8)
    assert not caplog.records
    assert counts == [[0], [7], [8]]
    assert solution.count == 8
    assert np.all(solution.residuals <= residual_tolerances(pencil,
                                                            solution.eigenvalues))


def test_full_spectrum_never_takes_sparse_path(monkeypatch):
    bc = BoundaryCondition.quasi_periodic(0.0)
    _, _, pencil, _ = _solve_setup(bc, 200, count=3)

    def forbidden(*args, **kwargs):
        raise AssertionError("ARPACK called for a full spectrum")

    monkeypatch.setattr(scipy.sparse.linalg, "eigs", forbidden)
    assert solve_pencil(pencil).count == pencil.dim


@pytest.mark.parametrize("seed", range(0, 24, 3))
def test_inertia_count_matches_dense_spectrum(seed):
    # nu(x) from the arrow blocks equals the number of dense eigenvalues
    # below x, between every pair of the lowest levels and far above them
    pencil, _ = _random_pencil(seed)
    w = _solve_dense(pencil, None).eigenvalues
    xs = np.concatenate([[w[0] - 1.0], (w[:12] + w[1:13]) / 2.0,
                         [w[pencil.dim // 2] + 0.5]])
    for x in xs:
        assert _negative_count(*pencil.arrow.minus(x)) == np.count_nonzero(w < x)


@pytest.mark.parametrize("seed, real", [(0, False), (4, False), (8, False),
                                        (1, True), (5, True)])
def test_residual_tolerances_use_the_matrix_one_norm(seed, real):
    pencil, _ = _random_pencil(seed, real)
    lam = np.array([-3.5, 0.0, 2.0, 40.0])
    a_norm, b_norm = (scipy.sparse.linalg.norm(m, 1) for m in (pencil.a, pencil.b))
    assert np.array_equal(residual_tolerances(pencil, lam),
                          RESIDUAL_RTOL * (a_norm + np.abs(lam) * b_norm))


def _bump_pencil():
    """A random U on one interval with a potential bump of 1e6 inside it:
    A's largest column sum is a bulk column away from the border."""
    mesh = build_mesh(IntervalSet([(0.0, 3.0)]), 120)
    bump = SampledPotential([0.0, 1.4, 1.5, 1.6, 3.0], [0.0, 0.0, 1e6, 0.0, 0.0])
    bc = BoundaryCondition.from_matrix(random_unitary(2, np.random.default_rng(3)))
    vals = solve_boundary_values(assemble_boundary_system(bc, mesh))
    return assemble_pencil(mesh, bc, vals, bump)


@pytest.mark.parametrize("seed, real", [(0, False), (4, False), (8, False),
                                        (1, True), (5, True), (None, False)])
def test_search_space_tolerances_use_the_matrix_one_norm(seed, real):
    # the warm path sums the 1-norms over the arrow blocks, not the CSR
    # entries: the same norms up to the order of the sums
    pencil = _bump_pencil() if seed is None else _random_pencil(seed, real)[0]
    block = np.random.default_rng(seed).standard_normal((pencil.dim, 6))
    [ritz] = eigen._SearchSpace(pencil.arrow, block).steps([pencil.arrow], 4)
    want = residual_tolerances(pencil, ritz.solution.eigenvalues)
    assert np.allclose(ritz.tolerances, want, rtol=1e-14, atol=0)


def test_inertia_count_rejects_singular_bulk_block():
    # T = [[1, 1], [1, 1]] has the eigenvalue 0: no count is trusted, also
    # not for an eigenvalue within the relative singularity tolerance
    border, corner = np.zeros((2, 1)), np.ones((1, 1))
    assert _negative_count(np.ones(2), np.ones(1), border, corner) is None
    assert _negative_count(np.ones(2) + 1e-12, np.ones(1), border, corner) is None
    assert _negative_count(np.ones(2) + 1e-6, np.ones(1), border, corner) == 0
    assert _negative_count(np.ones(2) - 1e-6, np.ones(1), border, -corner) == 2


def test_partial_solves_repeat_bytewise():
    pencil, _ = _random_pencil(5)
    first = solve_pencil(pencil, count=9)
    second = solve_pencil(pencil, count=9)
    assert first.eigenvalues.tobytes() == second.eigenvalues.tobytes()
    assert first.eigenvectors.tobytes() == second.eigenvectors.tobytes()


# -------------------------------------------------------------- BLAS threads

def _blas_threads():
    return [get() for get, _ in _openblas_libraries()]


needs_openblas = pytest.mark.skipif(
    not _openblas_libraries(),
    reason="no OpenBLAS thread-count functions in this process "
           "(another BLAS, such as MKL or Accelerate, or no /proc/self/maps)")


@pytest.fixture(params=[1, 2], ids=["caller-1", "caller-2"])
def caller_threads(request):
    """Every OpenBLAS set to the parameter's thread count for the test, so
    that a limiter restoring a fixed count fails at one of them."""
    libraries = _openblas_libraries()
    saved = _blas_threads()
    for _, set_ in libraries:
        set_(request.param)
    yield _blas_threads()
    for (_, set_), threads in zip(libraries, saved):
        set_(threads)


@needs_openblas
@pytest.mark.parametrize("case", ["warm", "cold", "dense fallback",
                                  "warm raises", "full spectrum"])
def test_one_blas_thread_scope(case, caller_threads, monkeypatch):
    # the warm and sparse paths run with every OpenBLAS at one thread, the
    # dense path at the caller's counts, which every solve gives back
    pencil, _ = _random_pencil(7)
    start = solve_pencil(pencil, count=9).eigenvectors
    before = _blas_threads()
    assert before == caller_threads
    inside, dense = [], []

    def recording(function, record):
        def wrapper(*args, **kwargs):
            record.append(_blas_threads())
            return function(*args, **kwargs)
        return wrapper

    # the Rayleigh-Ritz steps of the warm and the sparse path
    monkeypatch.setattr(eigen._SearchSpace, "steps",
                        recording(eigen._SearchSpace.steps, inside))
    monkeypatch.setattr(eigen, "_arpack_block",
                        recording(eigen._arpack_block, inside))
    monkeypatch.setattr(eigen, "_solve_dense", recording(eigen._solve_dense, dense))
    if case == "dense fallback":
        # no residual meets a zero tolerance, on the warm or the sparse path
        monkeypatch.setattr(eigen, "RESIDUAL_RTOL", 0.0)
    if case == "warm raises":
        def failing(*args):
            inside.append(_blas_threads())
            raise RuntimeError("warm path broke")
        monkeypatch.setattr(eigen._SearchSpace, "steps", failing)
        with pytest.raises(RuntimeError, match="warm path broke"):
            eigen._SearchSpace(pencil.arrow, start).solve_stack([pencil.arrow], 9)
    elif case in ("warm", "dense fallback"):
        # a dense fallback is the cold path's, after the warm path's scope
        eigen._SearchSpace(pencil.arrow, start).solve_stack([pencil.arrow], 9)
    else:
        solve_pencil(pencil, count=None if case == "full spectrum" else 9)
    assert _blas_threads() == before
    assert dense == ([before] if case in ("dense fallback", "full spectrum") else [])
    if case == "full spectrum":
        assert not inside
    else:
        assert inside and all(threads == [1] * len(before) for threads in inside)


@needs_openblas
def test_one_blas_thread_nests(caller_threads):
    before = _blas_threads()
    with _one_blas_thread:
        with _one_blas_thread:
            assert _blas_threads() == [1] * len(before)
        assert _blas_threads() == [1] * len(before)
    assert _blas_threads() == before


# ----------------------------------------------------------------- sampling

def test_dirichlet_ground_state_samples_match_sine():
    bc = BoundaryCondition.dirichlet(1)
    mesh, vals, _, sol = _solve_setup(bc, 400, count=1)
    x, values = eigenfunction_samples(sol, mesh, vals, 0)
    reference = np.sin(x / 2) / math.sqrt(math.pi)
    assert np.max(np.abs(values - reference)) <= 1e-3
    assert np.max(np.abs(values.imag)) <= 1e-10


def test_neumann_ground_state_is_constant():
    bc = BoundaryCondition.neumann(1)
    mesh, vals, _, sol = _solve_setup(bc, 150, count=1)
    x, values = eigenfunction_samples(sol, mesh, vals, 0)
    assert np.max(np.abs(values - values[0])) <= 1e-8


def test_zero_vector_gives_zero_samples():
    bc = BoundaryCondition.dirichlet(1)
    mesh, vals, _, sol = _solve_setup(bc, 30, count=2)
    zeroed = EigenSolution(
        eigenvalues=sol.eigenvalues,
        eigenvectors=np.zeros_like(sol.eigenvectors),
        residuals=sol.residuals,
    )
    x, values = eigenfunction_samples(zeroed, mesh, vals, 1)
    assert np.array_equal(values, np.zeros_like(values))


@pytest.mark.parametrize("intervals, resolution, r", REFERENCE_MESHES)
def test_node_value_arrays_match_per_node_loop(intervals, resolution, r):
    rng = np.random.default_rng(resolution)
    mesh = build_mesh(IntervalSet(intervals), resolution)
    assert mesh.r == r
    h = mesh.h_endpoint
    v = weighted_hermitian_values(mesh.n, h, rng)
    bvals = BoundaryValues(v=v, g=(1.0 / h)[:, None] * v, h=h)
    coeffs = rng.standard_normal(mesh.dim) + 1j * rng.standard_normal(mesh.dim)
    coeffs[boundary_index(mesh, 0)] = 0.0  # a zero boundary coefficient
    coeffs[bulk_index(mesh, mesh.n - 1, 2)] = complex(-0.0, -0.0)
    # complex eigenvectors, and the real ones of a real pencil
    for c in (coeffs, coeffs.real.copy()):
        got = node_values(mesh, bvals, c)
        expected = node_value_arrays_loop(c, mesh, bvals)
        assert len(got) == len(expected) == mesh.n
        for g, e in zip(got, expected):
            assert g.tobytes() == e.tobytes()


def test_sample_index_out_of_range():
    bc = BoundaryCondition.dirichlet(1)
    mesh, vals, _, sol = _solve_setup(bc, 30, count=2)
    with pytest.raises(IndexError):
        eigenfunction_samples(sol, mesh, vals, 2)


# ----------------------------------------------------------------- h1 error

@pytest.mark.parametrize("which", [-1, 3])
def test_h1_error_index_out_of_range(which):
    bc = BoundaryCondition.dirichlet(1)
    mesh, vals, _, sol = _solve_setup(bc, 30, count=3)
    with pytest.raises(IndexError, match=r"eigenpair index .* out of range \[0, 3\)"):
        h1_error(sol, which, mesh, vals, (np.sin, np.cos))


def test_h1_error_vanishes_against_itself():
    bc = BoundaryCondition.dirichlet(1)
    mesh, vals, _, sol = _solve_setup(bc, 40, count=1)
    x, values = eigenfunction_samples(sol, mesh, vals, 0)

    def fem_value(xq):
        re = np.interp(np.asarray(xq, dtype=float), x, values.real)
        im = np.interp(np.asarray(xq, dtype=float), x, values.imag)
        return re + 1j * im

    h = mesh.h[0]
    slopes = (values[1:] - values[:-1]) / h

    def fem_slope(xq):
        idx = np.clip(((np.asarray(xq) - x[0]) / h).astype(int), 0, slopes.size - 1)
        return slopes[idx]

    err = h1_error(sol, 0, mesh, vals, (fem_value, fem_slope))
    assert err <= 1e-12


def _dirichlet_reference():
    amp = 1.0 / math.sqrt(math.pi)

    def psi(x):
        return amp * np.sin(np.asarray(x) / 2)

    def dpsi(x):
        return 0.5 * amp * np.cos(np.asarray(x) / 2)

    return psi, dpsi


def test_h1_error_halves_with_resolution():
    bc = BoundaryCondition.dirichlet(1)
    reference = _dirichlet_reference()
    errors = {}
    for resolution in (100, 200, 400):
        mesh, vals, _, sol = _solve_setup(bc, resolution, count=1)
        errors[resolution] = h1_error(sol, 0, mesh, vals, reference)
    assert errors[100] / errors[200] == pytest.approx(2.0, rel=0.1)
    assert errors[200] / errors[400] == pytest.approx(2.0, rel=0.1)


def test_h1_error_constant_tracks_sobolev2_bound():
    # ||psi||_{H2}^2 = 1 + 1/4 + 1/16 for the normalized ground state;
    # the ratio N * error / ||psi||_{H2} should be stable across N.
    bc = BoundaryCondition.dirichlet(1)
    reference = _dirichlet_reference()
    h2_norm = math.sqrt(1 + 0.25 + 0.0625)
    ratios = []
    for resolution in (100, 200, 400):
        mesh, vals, _, sol = _solve_setup(bc, resolution, count=1)
        err = h1_error(sol, 0, mesh, vals, reference)
        ratios.append(resolution * err / h2_norm)
    assert max(ratios) / min(ratios) <= 1.1


@pytest.mark.parametrize("intervals, resolution, r", REFERENCE_MESHES)
def test_h1_error_matches_two_pass_reference(intervals, resolution, r):
    rng = np.random.default_rng(900 + resolution)
    mesh = build_mesh(IntervalSet(intervals), resolution)
    h = mesh.h_endpoint
    v = weighted_hermitian_values(mesh.n, h, rng)
    bvals = BoundaryValues(v=v, g=(1.0 / h)[:, None] * v, h=h)
    vectors = rng.standard_normal((mesh.dim, 2)) + 1j * rng.standard_normal((mesh.dim, 2))
    sol = EigenSolution(eigenvalues=np.zeros(2), eigenvectors=vectors,
                        residuals=np.zeros(2))
    reference = (lambda x: np.exp(0.3j * x) * np.sin(x),
                 lambda x: np.exp(0.3j * x) * (np.cos(x) + 0.3j * np.sin(x)))
    per_interval = node_values(mesh, bvals, vectors[:, 1])
    assert h1_error(sol, 1, mesh, bvals, reference) == \
        h1_error_two_pass_reference(per_interval, mesh, reference)


def test_h1_error_phase_alignment():
    # multiplying the eigenvector by a phase must not change the error
    bc = BoundaryCondition.dirichlet(1)
    mesh, vals, _, sol = _solve_setup(bc, 60, count=1)
    reference = _dirichlet_reference()
    base = h1_error(sol, 0, mesh, vals, reference)
    rotated = EigenSolution(
        eigenvalues=sol.eigenvalues,
        eigenvectors=sol.eigenvectors * np.exp(0.7j),
        residuals=sol.residuals,
    )
    assert h1_error(rotated, 0, mesh, vals, reference) == pytest.approx(base, rel=1e-10)
