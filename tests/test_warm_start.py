"""The warm path of the eigensolver: Rayleigh-Ritz from a start block with
inverse steps by the arrow blocks, under the sparse path's certificate."""

import dataclasses
import logging
import math
import types

import numpy as np
import pytest
import scipy.linalg

from helpers import residual_tolerances
from saext import eigen, fem
from saext.boundary import (
    BoundaryCondition,
    assemble_boundary_system,
    random_unitary,
    solve_boundary_values,
)
from saext.cli import _sweep_start, nearest_unitary
from saext.eigen import (
    EigenSolveError,
    _phase_reference,
    _SearchSpace,
    _solve_dense,
    solve_pencil,
)
from saext.fem import BulkAssembly
from saext.geometry import IntervalSet, build_mesh
from saext.potentials import ConstantPotential

TWO_PI = 2 * math.pi


def _pencil_for(bulk, u):
    bc = BoundaryCondition.from_matrix(u)
    values = solve_boundary_values(assemble_boundary_system(bc, bulk.mesh))
    return bulk.pencil(bc, values)


def _fallbacks(caplog):
    return [r.getMessage() for r in caplog.records if "fallback" in r.getMessage()]


def _warm(pencil, count, start):
    """The eigenvalues ``_SearchSpace.solve_stack`` gives ``pencil`` alone
    in the search space of ``start``."""
    [eigenvalues] = _SearchSpace(pencil.arrow, start).solve_stack([pencil.arrow], count)
    return eigenvalues


def _warm_solution(pencil, count, start):
    """The certified solution of the warm path of ``solve_stack`` for
    ``pencil`` alone, with its vectors, or None where the cold path would
    answer."""
    space = _SearchSpace(pencil.arrow, start)
    ritz = space._rounds(pencil.arrow, count, space.steps([pencil.arrow], count)[0])
    if ritz is None or not eigen._certify_stack([pencil.arrow], count, [ritz],
                                                "cold")[0]:
        return None
    return ritz.solution


def _relative(got, want):
    return float(np.max(np.abs(got - want) / np.maximum(1.0, np.abs(want))))


def _enriched_start(pencil, solution):
    """The stability study's start block: the eigenvectors of ``solution``
    with the boundary responses of ``pencil`` at its level clusters."""
    return _sweep_start(pencil, solution, solution.degenerate_clusters(rtol=1e-3))


@pytest.fixture(scope="module")
def criterion_10():
    """The base solution, 100 perturbed pencils and the sweep's start block
    of criterion 10: the periodic ring at N = 250, U_eps the nearest unitary
    to U + i eps [[0, 1], [-1, 0]], eps = 1e-5 .. 1e-3."""
    bulk = BulkAssembly(build_mesh(IntervalSet([(0.0, TWO_PI)]), 250))
    ring = BoundaryCondition.quasi_periodic(0.0).u_endpoint
    base_pencil = _pencil_for(bulk, ring)
    base = solve_pencil(base_pencil, count=9)
    generator = np.array([[0.0, 1.0], [-1.0, 0.0]])
    eps = 1e-5 * np.arange(1, 101)
    u, _ = nearest_unitary(ring + 1j * eps[:, None, None] * generator)
    pencils = [_pencil_for(bulk, m) for m in u]
    return base, pencils, _enriched_start(base_pencil, base)


def test_warm_matches_cold_and_dense_on_criterion_10(criterion_10, caplog,
                                                     inverse_steps):
    base, pencils, _ = criterion_10
    warm = []
    for pencil in pencils:
        caplog.clear()
        inverse_steps.clear()
        with caplog.at_level(logging.WARNING, logger="saext"):
            warm.append(_warm_solution(pencil, 9, base.eigenvectors))
        assert not _fallbacks(caplog)  # certified on the warm path
        assert len(inverse_steps) == 9  # in one round
        gram = warm[-1].eigenvectors.conj().T @ (pencil.b @ warm[-1].eigenvectors)
        assert np.max(np.abs(gram - np.eye(9))) <= 1e-10
    # the references run after all warm solves: alternating the two paths
    # slows both, as their BLAS thread pools contend; the dense one on every
    # tenth pencil keeps the test short
    cold = [solve_pencil(pencil, count=9).eigenvalues for pencil in pencils]
    assert max(map(_relative, (w.eigenvalues for w in warm), cold)) <= 1e-11
    dense = [_solve_dense(pencil, 9).eigenvalues for pencil in pencils[::10]]
    assert max(map(_relative, (w.eigenvalues for w in warm[::10]), dense)) <= 1e-11


def test_sweep_start_certifies_criterion_10_without_inverse_steps(
        criterion_10, caplog, inverse_steps):
    # the base eigenvectors with the boundary responses at the five level
    # clusters: 9 + 5 * 2 columns, one Rayleigh-Ritz step a pencil
    base, pencils, start = criterion_10
    assert start.shape == (pencils[0].dim, 19)
    assert start[:, :9].tobytes() == base.eigenvectors.tobytes()
    with caplog.at_level(logging.WARNING, logger="saext"):
        warm = [_warm(pencil, 9, start) for pencil in pencils]
    assert not _fallbacks(caplog)
    assert not inverse_steps
    cold = [solve_pencil(pencil, count=9).eigenvalues for pencil in pencils]
    assert max(map(_relative, warm, cold)) <= 1e-11
    dense = [_solve_dense(pencil, 9).eigenvalues for pencil in pencils[::10]]
    assert max(map(_relative, warm[::10], dense)) <= 1e-11


def test_search_space_certifies_criterion_10_in_one_step(criterion_10, caplog,
                                                         inverse_steps):
    # the sweep's start block projected once: each pencil takes its boundary
    # block and one Rayleigh-Ritz step, whose vectors are B-orthonormal and
    # turned by the phase rule, and whose residuals and tolerances are those
    # its CSR arrays give (eigenvalues against the cold and dense paths:
    # test_stability's test_sweep_solves_criterion_10_in_its_search_space)
    _, pencils, start = criterion_10
    space = _SearchSpace(pencils[0].arrow, start)  # only its bands count
    with caplog.at_level(logging.WARNING, logger="saext"):
        for pencil in pencils:
            [ritz] = space.steps([pencil.arrow], 9)
            solution = ritz.solution
            vectors, w = solution.eigenvectors, solution.eigenvalues
            assert vectors.dtype == np.complex128
            gram = vectors.conj().T @ (pencil.b @ vectors)
            assert np.max(np.abs(gram - np.eye(9))) <= 1e-10
            inner = _phase_reference(pencil.dim) @ vectors
            assert np.all(inner.real > 0)
            assert np.all(np.abs(inner.imag) <= 1e-13 * inner.real)
            residuals = np.linalg.norm(pencil.a @ vectors - (pencil.b @ vectors) * w,
                                       axis=0)
            tolerances = residual_tolerances(pencil, w)
            assert np.all(np.abs(solution.residuals - residuals) <= 1e-3 * tolerances)
            assert np.all(solution.residuals <= tolerances)
            # the 1-norms summed over the arrow blocks, not the CSR entries
            assert np.allclose(ritz.tolerances, tolerances, rtol=1e-14, atol=0)
        # and the stacked solve answers each pencil by that step
        answers = space.solve_stack([pencil.arrow for pencil in pencils], 9)
        for pencil, answer in zip(pencils, answers):
            step = space.steps([pencil.arrow], 9)[0].eigenvalues
            assert answer.tobytes() == step.tobytes()
    assert not _fallbacks(caplog)
    assert not inverse_steps


def test_search_space_rejects_the_blocks_of_another_assembly(criterion_10):
    _, pencils, start = criterion_10
    space = _SearchSpace(pencils[0].arrow, start)
    other = BulkAssembly(build_mesh(IntervalSet([(0.0, TWO_PI)]), 250))
    ring = BoundaryCondition.quasi_periodic(0.0).u_endpoint
    # equal bands, but not the same arrays
    twin = _pencil_for(other, ring).arrow
    assert all(np.array_equal(x, y) for x, y in zip(twin.a, pencils[0].arrow.a[:3]))
    with pytest.raises(EigenSolveError, match="another assembly"):
        space.steps([twin], 9)
    with pytest.raises(EigenSolveError, match="another assembly"):
        space.solve_stack([twin], 9)


@pytest.mark.parametrize("odd", ["nan corner", "failed cholesky", "real corner"])
def test_one_pencil_of_a_stack_is_taken_alone(criterion_10, caplog, monkeypatch,
                                              odd):
    # the middle pencil of a stack of seven is odd.  A real boundary block
    # among complex ones is taken alone, in a stack of its own: every
    # pencil's step and eigenvalues are bit for bit what it gets alone.
    # A NaN in its boundary block or a Q^H B Q that is not positive
    # definite is not: the stacked step raises, the whole stack goes to
    # the cold path, which takes its pencils one by one, and that of the
    # faulty pencil raises its typed error.
    _, pencils, start = criterion_10
    space = _SearchSpace(pencils[0].arrow, start)
    arrows = [pencil.arrow for pencil in pencils[:7]]
    middle = arrows[3]
    if odd == "nan corner":
        corner = middle.a[3].copy()
        corner[0, 1] = np.nan
        arrows[3] = dataclasses.replace(middle, a=(*middle.a[:3], corner))
    elif odd == "failed cholesky":
        arrows[3] = dataclasses.replace(middle, b=(*middle.b[:3], -1e3 * middle.b[3]))
    else:
        arrows[3] = dataclasses.replace(
            middle, a=(*middle.a[:3], middle.a[3].real.copy()),
            b=(*middle.b[:3], middle.b[3].real.copy()))
    cold = []

    def recording(pencil, count=None):
        cold.append(pencil)
        return solve_pencil(pencil, count=count)

    monkeypatch.setattr(eigen, "solve_pencil", recording)
    with caplog.at_level(logging.WARNING, logger="saext"):
        if odd == "real corner":
            answers = space.solve_stack(arrows, 9)
        else:
            with pytest.raises(EigenSolveError, match="non-finite" if odd == "nan corner"
                               else "not positive definite"):
                space.solve_stack(arrows, 9)
    messages = _fallbacks(caplog)
    if odd == "real corner":
        assert not messages and not cold
        steps = space.steps(arrows, 9)
        assert steps[3].solution.eigenvectors.dtype == np.float64
        for arrow, step, answer in zip(arrows, steps, answers):
            [alone] = space.steps([arrow], 9)
            assert step.w.tobytes() == alone.w.tobytes()
            assert step.residuals.tobytes() == alone.residuals.tobytes()
            assert (step.solution.eigenvectors.tobytes()
                    == alone.solution.eigenvectors.tobytes())
            assert step.b_vectors.tobytes() == alone.b_vectors.tobytes()
            [single] = space.solve_stack([arrow], 9)
            assert answer.tobytes() == single.tobytes()
        return
    assert messages[0].startswith("warm path failed (")
    assert messages[0].endswith("); cold fallback")
    assert [pencil.arrow for pencil in cold] == arrows[:4]


def _stack_in_own_vectors(bulk, matrices, count):
    """The pencils of the boundary matrices ``matrices`` on ``bulk`` and the
    search space of the lowest count + 3 cold eigenvectors of each: every
    pencil's first step certifies, and its Ritz values are its levels."""
    pencils = [_pencil_for(bulk, u) for u in matrices]
    start = np.column_stack([solve_pencil(p, count + 3).eigenvectors for p in pencils])
    return pencils, _SearchSpace(pencils[0].arrow, start)


@pytest.mark.parametrize("case", ["gap excludes tau", "another below",
                                  "singular T(tau)"])
def test_shared_certificate_falls_back_pencil_by_pencil(case, caplog, monkeypatch):
    # a pencil the taus of its group's common gap cannot certify is
    # certified alone ("own"), at taus of its own gap; a pencil with
    # another number of Ritz values below its gap makes a group of its own;
    # a group whose T(tau) is numerically singular tries deeper taus of its
    # common gap.  Either way each pencil gets bitwise the eigenvalues it
    # gets alone.
    bulk = BulkAssembly(build_mesh(IntervalSet([(0.0, TWO_PI)]), 250))
    ring = BoundaryCondition.quasi_periodic(0.0).u_endpoint
    if case == "gap excludes tau":
        # levels 9 and 10 at 20.27 and 25.03 for Dirichlet, at 14.35 and
        # 18.56 for an attracting Robin condition: the Robin gap ends below
        # the shared tau
        matrices, count, alone = [-np.eye(2), np.exp(-2.5j) * np.eye(2)], 9, [1]
    elif case == "another below":
        # a strongly attracting Robin condition binds a pair of levels
        # degenerate to rounding: the first gap at count 1 lies above two
        # Ritz values, not one as for the ring
        matrices, count, alone = [ring, np.exp(-2.9j) * np.eye(2)], 1, []
    else:
        # T(tau) is numerically singular at the group's first tau and 1% up
        # its common gap, not at 10%
        generator = np.array([[0.0, 1.0], [-1.0, 0.0]])
        matrices, _ = nearest_unitary(
            ring + 1j * np.array([1e-3, 2e-3, 3e-3])[:, None, None] * generator)
        count, alone = 9, []
        monkeypatch.setattr(eigen, "_SINGULAR_RTOL", 5e-5)
    pencils, space = _stack_in_own_vectors(bulk, matrices, count)
    arrows = [pencil.arrow for pencil in pencils]
    certify_stack, labels = eigen._certify_stack, {}

    def recording(arrows, count, ritzes, fallback):
        # the chunk's labels under its size; a retry is a stack of one
        labels[len(arrows)] = certify_stack(arrows, count, ritzes, fallback)
        return labels[len(arrows)]

    negative_counts, counts = eigen._negative_counts, []

    def counting(*blocks):
        counts.append(negative_counts(*blocks))
        return counts[-1]

    monkeypatch.setattr(eigen, "_certify_stack", recording)
    monkeypatch.setattr(eigen, "_negative_counts", counting)
    with caplog.at_level(logging.INFO, logger="saext"):
        answers = space.solve_stack(arrows, count)
    monkeypatch.setattr(eigen, "_negative_counts", negative_counts)
    monkeypatch.setattr(eigen, "_certify_stack", certify_stack)
    assert not _fallbacks(caplog)
    if case == "singular T(tau)":
        # one count of the group at each tau: None at the first and 1% up
        # the common gap, nine for each pencil at 10%
        assert [c if c is None else c.tolist() for c in counts] == [
            None, None, [9, 9, 9]]
    [record] = [r for r in caplog.records if r.getMessage().startswith("warm solve of")]
    assert record.args[1:] == (len(arrows), 0, 0, len(arrows) - len(alone))
    assert [i for i, label in enumerate(labels[len(arrows)]) if label == "own"] == alone
    assert None not in labels[len(arrows)]
    if case == "another below":
        below = [eigen._first_gap(step.w, count)[0] for step in space.steps(arrows, count)]
        assert below == [1, 2]
    for arrow, answer in zip(arrows, answers):
        [single] = space.solve_stack([arrow], count)
        assert answer.tobytes() == single.tobytes()
    assert _relative(answers[-1], _solve_dense(pencils[-1], count).eigenvalues) <= 1e-11


def test_shared_certificate_counts_a_missed_eigenvalue(caplog):
    # Ritz values that miss the Robin pencil's tenth eigenvalue (18.56) put
    # its gap, from its ninth (14.35) to its eleventh (23.28), around the
    # Dirichlet gap's lower end (20.27): the shared tau lies in both gaps,
    # and there the Robin count is ten, not nine.  The Robin pencil is
    # certified alone, at its own tau below the missed eigenvalue, where
    # the count is nine: its lowest nine pairs are right.
    bulk = BulkAssembly(build_mesh(IntervalSet([(0.0, TWO_PI)]), 250))
    pencils, space = _stack_in_own_vectors(
        bulk, [-np.eye(2), np.exp(-2.5j) * np.eye(2)], 9)
    arrows = [pencil.arrow for pencil in pencils]
    dirichlet, robin = space.steps(arrows, 9)
    missed = types.SimpleNamespace(w=np.delete(robin.w, 9), converged=True)
    (_, low, high), (_, shared_low, _) = (eigen._first_gap(ritz.w, 9)
                                         for ritz in (missed, dirichlet))
    assert low < robin.w[9] < shared_low < high
    with caplog.at_level(logging.WARNING, logger="saext"):
        assert eigen._certify_stack(arrows, 9, [dirichlet, missed], "cold") == [
            "shared", "own"]
    assert not _fallbacks(caplog)


@pytest.mark.parametrize("case", ["no gap", "missed eigenvalue", "residuals"])
def test_certificate_logs_why_a_pencil_falls_back(case, caplog, monkeypatch):
    # the three reasons the certificate gives, with the fallback path named:
    # Ritz values without a gap above the ninth; Ritz values that miss the
    # Robin pencil's ninth eigenvalue (14.35), so that nu is ten just above
    # the ninth Ritz value (its tenth eigenvalue, 18.56); and residuals over
    # their tolerances, reported without an inertia count, also where the
    # count would fail
    bulk = BulkAssembly(build_mesh(IntervalSet([(0.0, TWO_PI)]), 250))
    [pencil], space = _stack_in_own_vectors(bulk, [np.exp(-2.5j) * np.eye(2)], 9)
    [ritz] = space.steps([pencil.arrow], 9)
    missed = np.delete(ritz.w, 8)
    _, low, high = eigen._first_gap(missed, 9)
    tau = low + 0.5 * eigen.DEGENERACY_RTOL * max(1.0, abs(high))
    w, converged, message = {
        "no gap": (np.full_like(ritz.w, ritz.w[8]), True,
                   "no gap above eigenvalue 9; dense fallback"),
        "missed eigenvalue": (missed, True,
                              f"inertia certificate failed: nu({tau:.17g}) = 10 "
                              f"(None: singular bulk block), expected 9; dense "
                              f"fallback"),
        "residuals": (missed, False,
                      "Ritz residuals exceed their tolerances; dense fallback"),
    }[case]
    negative_counts, counts = eigen._negative_counts, []

    def counting(*blocks):
        counts.append(negative_counts(*blocks))
        return counts[-1]

    monkeypatch.setattr(eigen, "_negative_counts", counting)
    step = types.SimpleNamespace(w=w, converged=converged)
    with caplog.at_level(logging.WARNING, logger="saext"):
        assert eigen._certify_stack([pencil.arrow], 9, [step], "dense") == [None]
    assert [r.getMessage() for r in caplog.records] == [message]
    assert len(counts) == (case == "missed eigenvalue")


def test_sweep_start_drops_a_cluster_on_an_exactly_singular_bulk_block(
        criterion_10, caplog, monkeypatch, inverse_steps):
    # T(sigma_c) with an exactly zero pivot at the second cluster: its two
    # responses are left out, and the warm path's inverse steps find the
    # levels they would have given
    base, pencils, start = criterion_10
    dgtsv = scipy.linalg.lapack.dgtsv
    calls = []

    def singular_on_second_call(dl, d, du, b):
        calls.append(d)
        if len(calls) == 2:
            return dl, d, du, b, 1
        return dgtsv(dl, d, du, b)

    clusters = base.degenerate_clusters(rtol=1e-3)
    with monkeypatch.context() as patch:
        patch.setattr(scipy.linalg.lapack, "dgtsv", singular_on_second_call)
        dropped = _sweep_start(pencils[0], base, clusters)
    assert len(calls) == len(clusters)
    assert dropped.tobytes() == np.delete(start, [11, 12], axis=1).tobytes()
    with caplog.at_level(logging.WARNING, logger="saext"):
        warm = _warm(pencils[40], 9, dropped)
    assert not _fallbacks(caplog)
    assert len(inverse_steps) == 9  # in one round
    assert _relative(warm, _solve_dense(pencils[40], 9).eigenvalues) <= 1e-11


def _three_interval_rounds(caplog, inverse_steps, enriched):
    """Rounds of inverse steps the warm path takes on a random 6x6 U on
    three intervals turned by expm(i eps H), eps = 1e-5 .. 1e-1, from the
    base eigenvectors alone or with their boundary responses; every solve
    is checked against the dense path and must not fall back."""
    rng = np.random.default_rng(2)
    mesh = build_mesh(IntervalSet([(0.0, 1.5), (2.0, 3.0), (4.0, 6.5)]), 200)
    bulk = BulkAssembly(mesh, ConstantPotential([0.5, -1.0, 2.0]), mu=0.8)
    u0 = random_unitary(6, rng)
    h = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    h = (h + h.conj().T) / 2.0
    count = 8
    base_pencil = _pencil_for(bulk, u0)
    base = solve_pencil(base_pencil, count=count)
    start = _enriched_start(base_pencil, base) if enriched else base.eigenvectors
    rounds = []
    for eps in (1e-5, 1e-4, 1e-3, 1e-2, 1e-1):
        pencil = _pencil_for(bulk, scipy.linalg.expm(1j * eps * h) @ u0)
        inverse_steps.clear()
        with caplog.at_level(logging.WARNING, logger="saext"):
            warm = _warm(pencil, count, start)
        assert not _fallbacks(caplog)
        rounds.append(len(inverse_steps) // count)
        assert _relative(warm, _solve_dense(pencil, count).eigenvalues) <= 1e-11
    return rounds


def test_warm_follows_a_perturbed_three_interval_u(caplog, inverse_steps):
    # one round while the turn is small, at most all three rounds as it
    # grows, never a fallback
    rounds = _three_interval_rounds(caplog, inverse_steps, enriched=False)
    assert rounds[:2] == [1, 1]
    assert all(1 <= r <= 3 for r in rounds)
    assert rounds == sorted(rounds)


def test_sweep_start_follows_a_perturbed_three_interval_u(caplog, inverse_steps):
    # the boundary responses save the smallest turn its round and never
    # cost one; no fallback
    plain = _three_interval_rounds(caplog, inverse_steps, enriched=False)
    rounds = _three_interval_rounds(caplog, inverse_steps, enriched=True)
    assert rounds[0] == 0
    assert all(r <= p for r, p in zip(rounds, plain))


def test_warm_path_keeps_a_real_pencil_real(caplog):
    # Robin conditions give real pencils; a complex start block enters by
    # its real span
    mesh = build_mesh(IntervalSet([(0.0, 2.0), (3.0, 5.5)]), 240)
    bulk = BulkAssembly(mesh, ConstantPotential([1.0, -0.5]))
    angles = np.array([0.3, 1.1, 2.0, 2.9])
    base = solve_pencil(_pencil_for(bulk, np.diag(np.exp(1j * angles))), count=6)
    pencil = _pencil_for(bulk, np.diag(np.exp(1j * (angles + 1e-3))))
    assert pencil.a.dtype == base.eigenvectors.dtype == np.float64
    dense = _solve_dense(pencil, 6)
    for start in (base.eigenvectors, base.eigenvectors * np.exp(0.4j)):
        with caplog.at_level(logging.WARNING, logger="saext"):
            warm = _warm_solution(pencil, 6, start)
        assert not _fallbacks(caplog)
        assert warm.eigenvectors.dtype == np.float64
        assert _relative(warm.eigenvalues, dense.eigenvalues) <= 1e-11


def test_random_start_falls_back_to_the_cold_result(criterion_10, caplog):
    _, pencils, _ = criterion_10
    pencil = pencils[40]
    start = np.random.default_rng(5).standard_normal((pencil.dim, 9))
    with caplog.at_level(logging.WARNING, logger="saext"):
        assert _warm_solution(pencil, 9, start) is None
        [fallback] = _SearchSpace(pencil.arrow, start).solve_stack([pencil.arrow], 9)
    assert any("cold fallback" in m for m in _fallbacks(caplog))
    cold = solve_pencil(pencil, count=9)
    assert fallback.tobytes() == cold.eigenvalues.tobytes()


def test_exactly_singular_shift_is_nudged(criterion_10, caplog, monkeypatch):
    # an inverse step whose shift makes A - theta B exactly singular is
    # taken a few ulps away, and the solve still certifies
    base, pencils, _ = criterion_10
    solve = fem.ArrowBlocks.solve
    shifts = []

    def singular_on_first_try(self, x, rhs):
        shifts.append(x)
        if len(shifts) % 2:
            raise np.linalg.LinAlgError("bulk block is singular: pivot 1 is zero")
        return solve(self, x, rhs)

    monkeypatch.setattr(fem.ArrowBlocks, "solve", singular_on_first_try)
    with caplog.at_level(logging.WARNING, logger="saext"):
        warm = _warm(pencils[0], 9, base.eigenvectors)
    assert not _fallbacks(caplog)
    assert len(shifts) == 18
    for theta, nudged in zip(shifts[::2], shifts[1::2]):
        assert theta < nudged <= theta + 8 * np.finfo(float).eps * max(1.0, abs(theta))
    assert _relative(warm, _solve_dense(pencils[0], 9).eigenvalues) <= 1e-11


def test_singular_shifted_pencil_falls_back(criterion_10, caplog, monkeypatch):
    base, pencils, _ = criterion_10

    def singular(self, x, rhs):
        raise np.linalg.LinAlgError("boundary Schur complement is singular")

    monkeypatch.setattr(fem.ArrowBlocks, "solve", singular)
    space = _SearchSpace(pencils[0].arrow, base.eigenvectors)
    with caplog.at_level(logging.WARNING, logger="saext"):
        [fallback] = space.solve_stack([pencils[0].arrow], 9)
    assert any("inverse step" in m and "cold fallback" in m
               for m in _fallbacks(caplog))
    monkeypatch.undo()
    cold = solve_pencil(pencils[0], count=9)
    assert fallback.tobytes() == cold.eigenvalues.tobytes()


def test_non_finite_inverse_step_falls_back(criterion_10, caplog, monkeypatch):
    # an inverse step that overflows ends the warm path, not the solve
    base, pencils, _ = criterion_10
    monkeypatch.setattr(fem.ArrowBlocks, "solve",
                        lambda self, x, rhs: np.full(rhs.shape, np.inf))
    space = _SearchSpace(pencils[0].arrow, base.eigenvectors)
    with caplog.at_level(logging.WARNING, logger="saext"):
        [fallback] = space.solve_stack([pencils[0].arrow], 9)
    assert any("is not finite" in m and "cold fallback" in m
               for m in _fallbacks(caplog))
    monkeypatch.undo()
    cold = solve_pencil(pencils[0], count=9)
    assert fallback.tobytes() == cold.eigenvalues.tobytes()


@pytest.mark.parametrize("shape, fill, message", [
    (lambda dim: (dim - 1, 3), 1.0, "shape"),
    (lambda dim: (dim,), 1.0, "shape"),
    (lambda dim: (dim, 2), np.nan, "non-finite"),
], ids=["rows", "one-dimensional", "nan"])
def test_search_space_rejects_bad_start_block(criterion_10, shape, fill, message):
    _, pencils, _ = criterion_10
    start = np.full(shape(pencils[0].dim), fill)
    with pytest.raises(EigenSolveError, match=message):
        _SearchSpace(pencils[0].arrow, start)


@pytest.mark.parametrize("case", ["periodic ring", "neumann", "random u"])
def test_own_eigenvectors_certify_warm(case, caplog):
    # a start block of the pencil's own converged eigenvectors: the inverse
    # steps add only rounding noise, so Ritz value 9 stays far above
    # eigenvalue 9, and tau must sit just above Ritz value 8 for nu(tau)
    # to certify
    if case == "periodic ring":
        mesh = build_mesh(IntervalSet([(0.0, TWO_PI)]), 250)
        u = BoundaryCondition.quasi_periodic(0.0).u_endpoint
    elif case == "neumann":
        mesh = build_mesh(IntervalSet([(0.0, math.pi)]), 200)
        u = np.eye(2)
    else:
        mesh = build_mesh(IntervalSet([(0.0, 1.5), (2.0, 4.5)]), 300)
        u = random_unitary(4, np.random.default_rng(9))
    pencil = _pencil_for(BulkAssembly(mesh), u)
    cold = solve_pencil(pencil, count=9)
    with caplog.at_level(logging.WARNING, logger="saext"):
        warm = _warm(pencil, 9, cold.eigenvectors)
    assert not _fallbacks(caplog)
    assert _relative(warm, cold.eigenvalues) <= 1e-11
