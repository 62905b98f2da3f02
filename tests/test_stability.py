"""The stability study: input validation, level clusters and the
variable-projection power-law fit."""

import dataclasses
import logging
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

import saext
from saext import cli, eigen, fem
from helpers import (
    certify_alone_reference,
    power_law_fit_multistart,
    power_law_fits_row_by_row,
    stability_k_rows_loop,
)
from saext.boundary import assemble_boundary_system, solve_boundary_values
from saext.boundary import BoundaryCondition, BoundaryError, BoundaryValues
from saext.boundary import ConditionFailure
from saext.cli import (
    EXIT_CONDITIONING,
    EXIT_CONFIG,
    EXIT_SOLVER,
    _power_law_fits,
    main,
    nearest_unitary,
    stability_study,
)
from saext.config import SCHEMA_HEADER, build_problem, parse_config
from saext.eigen import _solve_dense, solve_pencil
from saext.fem import assemble_pencil
from saext.geometry import build_mesh

TWO_PI = 2 * math.pi

# criterion 10's problem: the periodic ring at N = 250
CRITERION_10_CONFIG = (
    SCHEMA_HEADER
    + f"\ngeometry.intervals = 0 {TWO_PI!r}"
    + "\nboundary.kind = quasi_periodic"
    + "\nboundary.theta = 0"
    + "\nresolution = 250\n"
)

EPS = 1e-5 * np.arange(1, 101)  # criterion 10's epsilon grid


def _cost(eps, k_vals, fit):
    """Squared residual of a fit K = a eps^b + c, and a bound on its
    float64 rounding error: each residual carries at most 4 roundings of
    its largest term (power, product, two sums), and the dot product one
    per term."""
    a, b, c = fit
    terms = a * eps ** b
    resid = terms + c - k_vals
    error = 4.0 * np.finfo(float).eps * (np.abs(terms) + abs(c) + np.abs(k_vals))
    cost = float(resid @ resid)
    noise = float(2.0 * np.abs(resid) @ error + error @ error
                  + resid.size * np.finfo(float).eps * cost)
    return cost, noise


# ------------------------------------------------------------------- the fit

@pytest.mark.parametrize("b", [-0.9, -0.03, 0.03, 0.3])
@pytest.mark.parametrize("a, c", [(0.7, -0.2), (-0.45, 0.3)])
def test_fit_recovers_exact_power_law(a, b, c):
    fit = _power_law_fits(EPS, (a * EPS ** b + c)[None])[0]
    assert fit[0] == pytest.approx(a, rel=1e-8)
    assert fit[1] == pytest.approx(b, abs=1e-8)
    assert fit[2] == pytest.approx(c, rel=1e-8, abs=1e-8)


def test_fit_matches_multistart_reference_on_criterion_10():
    rows, fits, _ = stability_study(parse_config(CRITERION_10_CONFIG))
    for lev in (1, 2, 3, 4):
        eps = np.array([r[1] for r in rows if r[0] == "K" and r[2] == lev])
        k_vals = np.array([r[3] for r in rows if r[0] == "K" and r[2] == lev])
        assert eps.size == 100
        reference = power_law_fit_multistart(eps, k_vals)
        assert fits[lev] == _power_law_fits(eps, k_vals[None])[0]
        # the two optima agree to about 5e-15 relative at level 1, below the
        # rounding of the cost itself: compare within that rounding
        (cost, noise), (ref_cost, ref_noise) = (
            _cost(eps, k_vals, fit) for fit in (fits[lev], reference))
        assert cost <= ref_cost + noise + ref_noise
        assert abs(fits[lev][1] - reference[1]) <= 1e-5


def test_fit_is_the_row_by_row_scan_bitwise_on_criterion_10():
    # the first scan centres eps**b once for all levels: the same bits as
    # centring it again for each level
    rows, fits, _ = stability_study(parse_config(CRITERION_10_CONFIG))
    eps = np.array([r[1] for r in rows if r[0] == "K" and r[2] == 1])
    k_rows = np.array([[r[3] for r in rows if r[0] == "K" and r[2] == lev]
                       for lev in (1, 2, 3, 4)])
    assert k_rows.shape == (4, 100)
    reference = power_law_fits_row_by_row(eps, k_rows)
    for got in (_power_law_fits(eps, k_rows), [fits[lev] for lev in (1, 2, 3, 4)]):
        assert np.array(got).tobytes() == np.array(reference).tobytes()


def test_fit_of_all_nan_data_is_none():
    assert _power_law_fits(EPS, np.full((1, EPS.size), np.nan))[0] is None


def test_fit_logs_exponent_on_grid_edge(caplog):
    with caplog.at_level(logging.WARNING, logger="saext"):
        fit = _power_law_fits(EPS, (2.0 * (EPS / EPS[-1]) ** 6.0 + 1.0)[None])[0]
    assert fit is not None
    assert any("edge of the search grid" in r.getMessage() for r in caplog.records)


def test_cli_import_leaves_scipy_optimize_out():
    src = str(Path(saext.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    probe = "import sys, saext, saext.cli; print('scipy.optimize' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True, timeout=60)
    assert out.stdout.strip() == "False"


# --------------------------------------------------------------- the sweep

def test_nearest_unitary_is_the_scipy_polar_factor_bitwise():
    ring = BoundaryCondition.quasi_periodic(0.0).u_endpoint
    generator = np.array([[0.0, 1.0], [-1.0, 0.0]])
    rng = np.random.default_rng(11)
    matrices = [ring + 1j * eps * generator for eps in EPS] + [
        rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        for n in (2, 4, 6) for _ in range(5)]
    for matrix in matrices:
        [u], [distance] = nearest_unitary(matrix[None])
        want, _ = scipy.linalg.polar(matrix)
        assert u.tobytes() == want.tobytes()
        assert distance == float(np.linalg.norm(matrix - want))


def _recorded_sweep(monkeypatch, cfg):
    """Runs ``stability_study(cfg)`` and returns its result with what it
    did: the (pencil, solution) of each ``solve_pencil`` call, the base's
    and those of the cold path, the (arrow, block) of each search space it
    built, the (space, bulk assembly, bc, values, eigenvalues) of each
    pencil its stacked solve in a space took, and the number of CSR
    pencils it built.  The sweep carries its U and their boundary values
    as stacks; the bc and values of each pencil are built here from the U
    it gave the boundary solve and the (V, G) it gave ``_arrow_stack``.
    Each space keeps the Ritz step of each pencil its stacked steps took
    in ``stacked``."""
    calls, boundary, stacks, spaces, solves, pencils = [], [], [], [], [], []
    solve = eigen.solve_pencil
    boundary_values = cli._boundary_values_stack
    arrow_stack = fem.BulkAssembly._arrow_stack
    pencil = fem.ArrowBlocks.pencil

    def recording_solve(pencil, count=None):
        solution = solve(pencil, count=count)
        calls.append((pencil, solution))
        return solution

    def recording_boundary_values(u, mesh, kappa_max):
        boundary.append((u, mesh))
        return boundary_values(u, mesh, kappa_max)

    def recording_arrow_stack(self, v, g):
        blocks = arrow_stack(self, v, g)
        stacks.append((self, v, g, blocks))
        return blocks

    def recording_pencil(self):
        pencils.append(self)
        return pencil(self)

    class RecordingSpace(cli._SearchSpace):
        def __init__(self, blocks, block):
            super().__init__(blocks, block)
            spaces.append((blocks, block))
            self.stacked = []

        def steps(self, blocks, count):
            ritzes = super().steps(blocks, count)
            self.stacked.extend(ritzes)
            return ritzes

        def solve_stack(self, blocks, count):
            answers = super().solve_stack(blocks, count)
            bulk, v, g, made = stacks[-1]
            assert made is blocks
            [(u, mesh)] = boundary
            solves.extend(
                (self, bulk, BoundaryCondition.from_matrix(u_i),
                 BoundaryValues(v=v_i, g=g_i, h=mesh.h_endpoint), answer)
                for u_i, v_i, g_i, answer in zip(u, v, g, answers, strict=True))
            return answers

    monkeypatch.setattr(cli, "solve_pencil", recording_solve)
    monkeypatch.setattr(eigen, "solve_pencil", recording_solve)
    monkeypatch.setattr(cli, "_boundary_values_stack", recording_boundary_values)
    monkeypatch.setattr(fem.BulkAssembly, "_arrow_stack", recording_arrow_stack)
    monkeypatch.setattr(fem.ArrowBlocks, "pencil", recording_pencil)
    monkeypatch.setattr(cli, "_SearchSpace", RecordingSpace)
    return stability_study(cfg), calls, spaces, solves, len(pencils)


def _fallbacks(caplog):
    return [r.getMessage() for r in caplog.records if "fallback" in r.getMessage()]


def _relative(got, want):
    return float(np.max(np.abs(got - want) / np.maximum(1.0, np.abs(want))))


def _paths(caplog):
    """The (stacked step, inverse-step rounds, cold path) counts of each
    warm solve record on the saext logger."""
    return [tuple(record.args[1:4]) for record in caplog.records
            if record.getMessage().startswith("warm solve of")]


def test_sweep_starts_every_solve_from_the_base_eigenvectors(monkeypatch, caplog):
    # one search space for the whole sweep, built from the base pencil's
    # arrow blocks and one start block: the base eigenvectors, bit for bit,
    # then the boundary responses.  Every perturbed pencil is solved in it
    # and certifies, so the base is the one CSR pencil and the one
    # solve_pencil call.
    cfg = parse_config(CRITERION_10_CONFIG + "stability.eps_start = 1e-4\n"
                       "stability.eps_stop = 1e-3\nstability.eps_step = 1e-4\n")
    with caplog.at_level(logging.WARNING, logger="saext"):
        _, calls, spaces, solves, pencils = _recorded_sweep(monkeypatch, cfg)
    assert not _fallbacks(caplog)
    assert pencils == 1
    [(base_pencil, base)] = calls
    [(blocks, start)] = spaces
    assert blocks is base_pencil.arrow
    assert start.shape[1] > base.count
    assert start[:, :base.count].tobytes() == base.eigenvectors.tobytes()
    assert len(solves) == 10
    assert all(space is solves[0][0] for space, *_ in solves)


def test_sweep_solves_criterion_10_in_its_search_space(monkeypatch, caplog,
                                                       inverse_steps):
    # all 100 perturbed pencils certify after one Rayleigh-Ritz step, with no
    # inverse step and no CSR pencil but the base, and agree with the cold
    # and dense paths on the same pencils
    with caplog.at_level(logging.WARNING, logger="saext"):
        _, calls, spaces, solves, pencils = _recorded_sweep(
            monkeypatch, parse_config(CRITERION_10_CONFIG))
    assert not _fallbacks(caplog)
    assert not inverse_steps
    assert (len(calls), len(spaces), pencils, len(solves)) == (1, 1, 1, 100)
    warm = [eigenvalues for *_, eigenvalues in solves]
    pencils = [bulk.pencil(bc, values) for _, bulk, bc, values, _ in solves]
    cold = [solve_pencil(pencil, count=9).eigenvalues for pencil in pencils]
    dense = [_solve_dense(pencil, 9).eigenvalues for pencil in pencils[::10]]
    assert max(map(_relative, warm, cold)) <= 1e-11
    assert max(map(_relative, warm[::10], dense)) <= 1e-11


def test_sweep_random_start_falls_back_to_the_cold_path(monkeypatch, caplog):
    # a start block that misses the levels fails the search space's
    # certificate on every pencil, after its rounds of inverse steps: the
    # stacked solve builds each as a CSR pencil and answers it by the cold
    # path
    def random_start(pencil, solution, clusters):
        return np.random.default_rng(5).standard_normal((pencil.dim, 19))

    monkeypatch.setattr(cli, "_sweep_start", random_start)
    cfg = parse_config(CRITERION_10_CONFIG + "stability.eps_start = 1e-4\n"
                       "stability.eps_stop = 3e-4\nstability.eps_step = 1e-4\n")
    with caplog.at_level(logging.INFO, logger="saext"):
        _, calls, spaces, solves, pencils = _recorded_sweep(monkeypatch, cfg)
    messages = _fallbacks(caplog)
    assert _paths(caplog) == [(0, 0, 3)]
    assert sum("warm fallback" in m for m in messages) == 0
    assert sum("cold fallback" in m for m in messages) == 3
    assert pencils == len(calls) == 4
    assert len(spaces) == 1
    for (pencil, solution), (*_, eigenvalues) in zip(calls[1:], solves, strict=True):
        cold = solve_pencil(pencil, count=9)
        assert eigenvalues.tobytes() == solution.eigenvalues.tobytes()
        assert eigenvalues.tobytes() == cold.eigenvalues.tobytes()


def test_sweep_recovers_by_inverse_step_rounds(monkeypatch, caplog,
                                               inverse_steps):
    # at eps = 0.02 .. 0.06 the first Rayleigh-Ritz step in the sweep's
    # search space misses; one round of inverse steps in the same solve
    # certifies each pencil, with no fallback and no CSR pencil but the
    # base, and agrees with the cold and dense paths on the same pencils
    cfg = parse_config(CRITERION_10_CONFIG + "stability.eps_start = 0.02\n"
                       "stability.eps_stop = 0.06\nstability.eps_step = 0.02\n")
    with caplog.at_level(logging.WARNING, logger="saext"):
        _, calls, spaces, solves, pencils = _recorded_sweep(monkeypatch, cfg)
    assert not _fallbacks(caplog)
    assert (len(calls), len(spaces), pencils, len(solves)) == (1, 1, 1, 3)
    assert len(inverse_steps) == 3 * 9  # one round of 9 steps a pencil
    warm = [eigenvalues for *_, eigenvalues in solves]
    pencils = [bulk.pencil(bc, values) for _, bulk, bc, values, _ in solves]
    cold = [solve_pencil(pencil, count=9).eigenvalues for pencil in pencils]
    dense = [_solve_dense(pencil, 9).eigenvalues for pencil in pencils]
    assert max(map(_relative, warm, cold)) <= 1e-11
    assert max(map(_relative, warm, dense)) <= 1e-11


def test_sweep_non_finite_boundary_block_exits_solver(monkeypatch, tmp_path, caplog,
                                                     capsys):
    # a NaN in the first perturbed boundary block fails the stacked step,
    # which hands its whole chunk to the cold path, and the CSR pencil built
    # there for the first U fails solve_pencil's input check
    arrow_stack = fem.BulkAssembly._arrow_stack
    made = []

    def poisoned(self, v, g):
        blocks = arrow_stack(self, v, g)
        made.append(blocks)
        if len(made) == 1:  # the base pencil
            return blocks
        corner = blocks[0].a[3].copy()
        corner[0, 0] = np.nan
        return [dataclasses.replace(blocks[0], a=(*blocks[0].a[:3], corner)),
                *blocks[1:]]

    monkeypatch.setattr(fem.BulkAssembly, "_arrow_stack", poisoned)
    cfg_path = tmp_path / "job.cfg"
    cfg_path.write_text(CRITERION_10_CONFIG + "stability.eps_start = 1e-4\n"
                        "stability.eps_stop = 3e-4\nstability.eps_step = 1e-4\n")
    with caplog.at_level(logging.WARNING, logger="saext"):
        code = main(["stability", "--config", str(cfg_path),
                     "--out", str(tmp_path / "o")])
    assert code == EXIT_SOLVER
    # the base, then the perturbed stack
    assert [len(blocks) for blocks in made] == [1, 3]
    assert _fallbacks(caplog) == ["warm path failed (boundary block has a "
                                  "non-finite entry); cold fallback"]
    assert "solver failure: A has a non-finite entry" in capsys.readouterr().err


@pytest.mark.parametrize("lines, paths, shared", [
    ("", (100, 0, 0), 100),
    ("stability.eps_start = 0.02\nstability.eps_stop = 0.06\n"
     "stability.eps_step = 0.02\n", (0, 3, 0), 3),
], ids=["criterion-10", "rounds"])
def test_sweep_logs_the_path_of_each_pencil(caplog, lines, paths, shared):
    # one record a sweep, from its one stacked solve: the pencils the
    # stacked step certified, those that took inverse-step rounds and those
    # the cold path answered, and how many of the certified ones their
    # chunk's shared tau certified
    with caplog.at_level(logging.INFO, logger="saext"):
        stability_study(parse_config(CRITERION_10_CONFIG + lines))
    assert _paths(caplog) == [paths]
    [message] = [r.getMessage() for r in caplog.records
                 if r.getMessage().startswith("warm solve of")]
    assert message == (
        f"warm solve of {sum(paths)} pencils: {paths[0]} certified by the "
        f"stacked Rayleigh-Ritz step, {paths[1]} after inverse-step rounds, "
        f"{paths[2]} by the cold path; {shared} certified at their chunk's "
        f"shared tau")


@pytest.mark.parametrize("lines, chunks", [
    ("", 5),
    ("stability.eps_start = 1e-3\nstability.eps_stop = 0.2\n"
     "stability.eps_step = 1e-3\n", 10),
], ids=["criterion-10", "eps-1e-3-to-0.2"])
def test_shared_certificate_decides_as_each_pencil_alone(monkeypatch, lines, chunks):
    # each chunk of the sweep is certified at the taus of its common gap:
    # every pencil it certifies, the certificate of that pencil alone at
    # taus of its own gap certifies too, and no other
    certify_stack, recorded = eigen._certify_stack, []

    def recording(arrows, count, ritzes, fallback):
        decisions = certify_stack(arrows, count, ritzes, fallback)
        recorded.append((arrows, count, ritzes, fallback, decisions))
        return decisions

    monkeypatch.setattr(eigen, "_certify_stack", recording)
    stability_study(parse_config(CRITERION_10_CONFIG + lines))
    warm = [parts for *parts, fallback, _ in recorded if fallback == "cold"]
    decisions = [decision for *_, fallback, made in recorded if fallback == "cold"
                 for decision in made]
    assert len(warm) == chunks and len(decisions) == 20 * chunks
    assert decisions == ["shared"] * len(decisions)
    alone = [certify_alone_reference(arrow, count, ritz)
             for arrows, count, ritzes in warm for arrow, ritz in zip(arrows, ritzes)]
    assert alone == [decision is not None for decision in decisions]


def test_sweep_stacks_match_single_pencil_solves(monkeypatch):
    # 47 perturbed pencils, 2 full chunks of the stacked solve and a short
    # one: each boundary solve, boundary block, stacked step (its Ritz
    # values and residuals) and eigenvalue list is bitwise the one the
    # single-pencil calls give
    cfg = parse_config(CRITERION_10_CONFIG + "stability.eps_start = 1e-5\n"
                       "stability.eps_stop = 4.7e-4\nstability.eps_step = 1e-5\n")
    _, _, [(blocks, block)], solves, _ = _recorded_sweep(monkeypatch, cfg)
    assert len(solves) == 47 and len(solves) % eigen._SWEEP_CHUNK
    assert len(solves) > 2 * eigen._SWEEP_CHUNK
    stacked = solves[0][0].stacked
    assert len(stacked) == len(solves)
    space = eigen._SearchSpace(blocks, block)
    for (_, bulk, bc, values, eigenvalues), step in zip(solves, stacked):
        alone = solve_boundary_values(assemble_boundary_system(bc, bulk.mesh))
        assert alone.v.tobytes() == values.v.tobytes()
        assert alone.g.tobytes() == values.g.tobytes()
        arrow = bulk.arrow(bc, alone)
        [single] = space.steps([arrow], 9)
        assert step.w.tobytes() == single.w.tobytes()
        assert step.residuals.tobytes() == single.residuals.tobytes()
        [single] = space.solve_stack([arrow], 9)
        assert eigenvalues.tobytes() == single.tobytes()


@pytest.mark.parametrize("case", ["index", "nearest", "skipped-level"])
def test_sweep_k_table_is_the_loop_bitwise(monkeypatch, case):
    # the K table, one array expression per level, gives the rows of the
    # loop over eps and levels bit for bit: matched by index, by nearest
    # value (on the geodesic family), and with level 1 moved to 0 by a
    # constant potential, so that its ratio is skipped
    lines = ("stability.eps_start = 1e-4\nstability.eps_stop = 2e-3\n"
             "stability.eps_step = 1e-4\n")
    if case == "nearest":
        lines += "stability.mode = geodesic\nstability.matching = nearest\n"
    elif case == "skipped-level":
        level_1 = float(solve_pencil(_base_pencil(), count=9).eigenvalues[1])
        lines += f"potential.kind = constant\npotential.values = {-level_1!r}\n"
    cfg = parse_config(CRITERION_10_CONFIG + lines)
    (rows, fits, distances), calls, _, solves, _ = _recorded_sweep(monkeypatch, cfg)
    base = calls[0][1]
    reference = stability_k_rows_loop(
        [eps for eps, _ in distances], [answer for *_, answer in solves],
        base.eigenvalues, base.degenerate_clusters(rtol=1e-3),
        cfg.stability_levels, cfg.stability_matching)
    assert len(rows) == 20 * 4
    assert repr(rows) == repr(reference)
    skipped = [row for row in rows if row[0] == "skipped"]
    if case == "skipped-level":
        assert [row[2] for row in skipped] == [1] * 20
        assert fits[1] is None and all(fits[lev] for lev in (2, 3, 4))
    else:
        assert not skipped


def _base_pencil():
    """The assembled pencil of criterion 10's periodic ring."""
    cfg = parse_config(CRITERION_10_CONFIG)
    geom, bc, potential = build_problem(cfg)
    mesh = build_mesh(geom, cfg.resolution)
    values = solve_boundary_values(assemble_boundary_system(bc, mesh))
    return assemble_pencil(mesh, bc, values, potential)


def test_sweep_skips_epsilon_zero():
    # eps = 0 gives the first row, skipped_epsilon, and no K, distance or
    # solve; a sweep of eps = 0 alone gives that row only
    skipped = ("skipped_epsilon", 0.0, "", "K undefined at epsilon = 0")
    rows, fits, distances = stability_study(parse_config(
        CRITERION_10_CONFIG + "stability.eps_start = 0\n"
        "stability.eps_stop = 3e-4\nstability.eps_step = 1e-4\n"))
    assert rows[0] == skipped
    eps_list = [i * 1e-4 for i in (1, 2, 3)]
    assert [eps for eps, _ in distances] == eps_list
    assert sorted({eps for _, eps, *_ in rows[1:]}) == eps_list
    assert len(rows) == 1 + 3 * 4 and all(row[0] == "K" for row in rows[1:])
    rows, fits, distances = stability_study(parse_config(
        CRITERION_10_CONFIG + "stability.eps_start = 0\nstability.eps_stop = 0\n"))
    assert rows == [skipped] and distances == []
    assert all(fit is None for fit in fits.values())


@pytest.mark.parametrize("kind", ["incompatible", "kappa"])
@pytest.mark.parametrize("k", [0, 25, 46])
def test_sweep_condition_failure_at_one_eps_exits_conditioning(
        monkeypatch, tmp_path, capsys, kind, k):
    # the k-th perturbed U makes F V = C incompatible or too ill-conditioned:
    # the sweep exits 3 with the message the single boundary solve raises
    mesh = build_mesh(build_problem(parse_config(CRITERION_10_CONFIG))[0], 250)
    d = 1.0 + 1j / mesh.h_endpoint
    turns = [0.0, 0.0] if kind == "incompatible" else [1e-10, 1.0]
    bad = np.diag(np.conj(d) / d * np.exp(1j * np.array(turns)))
    with pytest.raises(ConditionFailure) as failure:
        solve_boundary_values(assemble_boundary_system(
            BoundaryCondition.from_matrix(bad), mesh))
    unitary, seen = cli.nearest_unitary, []

    def bad_at_k(matrices):
        # the sweep's one call, on the stack of its perturbed matrices
        seen.extend(matrices)
        u, distances = unitary(matrices)
        u[k] = bad
        return u, distances

    monkeypatch.setattr(cli, "nearest_unitary", bad_at_k)
    cfg_path = tmp_path / "job.cfg"
    cfg_path.write_text(CRITERION_10_CONFIG + "stability.eps_start = 1e-5\n"
                        "stability.eps_stop = 4.7e-4\nstability.eps_step = 1e-5\n")
    code = main(["stability", "--config", str(cfg_path),
                 "--out", str(tmp_path / "o")])
    assert code == EXIT_CONDITIONING
    assert len(seen) > k
    err = capsys.readouterr().err
    assert err == f"saext: conditioning failure: {failure.value}\n"
    assert ("incompatible" if kind == "incompatible" else "exceeds kappa_max") in err


@pytest.mark.parametrize("k", [0, 25, 46])
def test_sweep_non_unitary_u_at_one_eps_raises_as_from_matrix(monkeypatch, k):
    # the k-th perturbed U, and the last, are not unitary: the sweep's
    # unitarity check on its stack of U raises the error that the first of
    # them raises alone in BoundaryCondition.from_matrix, before any solve
    ring = BoundaryCondition.quasi_periodic(0.0).u_endpoint

    def scaled(i):
        return (1.0 + 1e-6 * (i + 1)) * ring

    with pytest.raises(BoundaryError) as failure:
        BoundaryCondition.from_matrix(scaled(k))
    unitary = cli.nearest_unitary

    def non_unitary_at_k(matrices):
        u, distances = unitary(matrices)
        for i in {k, len(u) - 1}:
            u[i] = scaled(i)
        return u, distances

    arrow_stack, built = fem.BulkAssembly._arrow_stack, []

    def recording(self, v, g):
        built.append(len(v))
        return arrow_stack(self, v, g)

    monkeypatch.setattr(cli, "nearest_unitary", non_unitary_at_k)
    monkeypatch.setattr(fem.BulkAssembly, "_arrow_stack", recording)
    with pytest.raises(BoundaryError) as swept:
        stability_study(parse_config(
            CRITERION_10_CONFIG + "stability.eps_start = 1e-5\n"
            "stability.eps_stop = 4.7e-4\nstability.eps_step = 1e-5\n"))
    assert str(swept.value) == str(failure.value)
    assert "not unitary" in str(swept.value)
    assert built == [1]  # the base pencil's blocks only


# ------------------------------------------------------------ level clusters

def test_criterion_10_base_levels_cluster_in_pairs():
    cfg = parse_config(CRITERION_10_CONFIG)
    geom, bc, potential = build_problem(cfg)
    mesh = build_mesh(geom, cfg.resolution)
    values = solve_boundary_values(assemble_boundary_system(bc, mesh))
    solution = solve_pencil(assemble_pencil(mesh, bc, values, potential),
                            count=9)
    assert solution.degenerate_clusters(rtol=1e-3) == [
        [0], [1, 2], [3, 4], [5, 6], [7, 8]
    ]


# ------------------------------------------------------------------ bad input

@pytest.mark.parametrize("lines, extra_args", [
    ("stability.eps_step = 0", []),
    ("stability.eps_step = nan", []),
    ("stability.eps_step = -1e-5", []),
    ("stability.eps_start = -1e-4", []),
    ("stability.eps_start = 1e-3\nstability.eps_stop = 1e-4", []),
    ("stability.eps_stop = inf", []),
    ("stability.eps_step = 5e-324", []),
    ("", ["--levels", "-1"]),
    ("", ["--levels", "0"]),
], ids=["zero-step", "nan-step", "negative-step", "negative-start",
        "start-above-stop", "infinite-stop", "overflowing-step",
        "negative-levels", "zero-levels"])
def test_bad_stability_input_exits_config(tmp_path, lines, extra_args):
    cfg_path = tmp_path / "job.cfg"
    cfg_path.write_text(
        SCHEMA_HEADER
        + f"\ngeometry.intervals = 0 {TWO_PI!r}"
        + "\nboundary.kind = quasi_periodic"
        + "\nboundary.theta = 0"
        + "\nresolution = 40\n"
        + lines + "\n"
    )
    code = main(["stability", "--config", str(cfg_path),
                 "--out", str(tmp_path / "o")] + extra_args)
    assert code == EXIT_CONFIG
