"""Acceptance suite: every criterion runs at its stated tolerance and
reports one pass/fail line (collected in the terminal summary)."""

import math

import numpy as np
import pytest
import scipy.linalg

from conftest import record_criterion
from helpers import (
    _column_scales,
    charpoly_eigenvalues,
    exponential_traces,
    random_hermitian,
    random_spd,
    residual_tolerances,
    spectral_det_closed_1,
    spectral_det_parametrized,
    unitary_from_su2_phase,
    w_combo,
)
from saext.boundary import (
    BoundaryCondition,
    assemble_boundary_system,
    condition_report,
    random_unitary,
    solve_boundary_values,
)
from saext.cli import stability_study
from saext.config import SCHEMA_HEADER, parse_config
from saext.eigen import h1_error, solve_pencil
from saext.fem import Pencil, assemble_pencil
from saext.geometry import IntervalSet, build_mesh
from saext.potentials import ZeroPotential
from saext.spectral import find_spectrum, fundamental_traces, spectral_matrix

TWO_PI = 2 * math.pi
GEOM = IntervalSet([(0.0, TWO_PI)])
FREE = ZeroPotential()
SWEEP = (50, 100, 200, 400, 800)


def _solve(bc, resolution, count=None, geom=GEOM, mu=1.0):
    mesh = build_mesh(geom, resolution)
    system = assemble_boundary_system(bc, mesh)
    values = solve_boundary_values(system)
    pencil = assemble_pencil(mesh, bc, values, mu=mu)
    solution = solve_pencil(pencil, count=count)
    return mesh, values, pencil, solution


def _loglog_slope(xs, ys):
    logx = np.log(np.asarray(xs, dtype=float))
    logy = np.log(np.asarray(ys, dtype=float))
    design = np.vstack([logx, np.ones(logx.size)]).T
    coeffs, *_ = np.linalg.lstsq(design, logy, rcond=None)
    return float(coeffs[0])


@pytest.fixture(scope="module")
def dirichlet_sweep():
    """Ground-state solves of the hard-wall free particle over the sweep;
    returns ({N: (lambda_0, h1_error)}, elapsed seconds)."""
    import time

    start = time.perf_counter()
    bc = BoundaryCondition.dirichlet(1)
    amp = 1.0 / math.sqrt(math.pi)
    reference = (
        lambda x: amp * np.sin(np.asarray(x) / 2),
        lambda x: 0.5 * amp * np.cos(np.asarray(x) / 2),
    )
    out = {}
    for resolution in SWEEP:
        mesh, values, pencil, solution = _solve(bc, resolution, count=1)
        err = h1_error(solution, 0, mesh, values, reference)
        out[resolution] = (solution.eigenvalues[0], err)
    return out, time.perf_counter() - start


def test_criterion_01_dirichlet_boundary_solve():
    mesh = build_mesh(GEOM, 40)
    system = assemble_boundary_system(BoundaryCondition.dirichlet(1), mesh)
    values = solve_boundary_values(system)
    ok = bool(np.array_equal(values.v, np.zeros((2, 2), dtype=complex)))
    record_criterion(1, "Dirichlet boundary solve: V = 0 exactly", ok)


def test_criterion_02_neumann_boundary_solve():
    mesh = build_mesh(GEOM, 40)
    system = assemble_boundary_system(BoundaryCondition.neumann(1), mesh)
    values = solve_boundary_values(system)
    defect = float(np.max(np.abs(values.v - np.eye(2))))
    ok = defect <= 1e-12
    record_criterion(2, "Neumann boundary solve: V = I to 1e-12", ok,
                     f"defect {defect:.2e}")


def test_criterion_03_convergence_slope(dirichlet_sweep):
    sweep, elapsed = dirichlet_sweep
    errors = [sweep[n][1] for n in SWEEP]
    slope = _loglog_slope(SWEEP, errors)
    ok = abs(slope - (-1.0)) <= 0.05 and elapsed < 120.0
    record_criterion(3, "H1 convergence slope -1.0 +- 0.05", ok,
                     f"slope {slope:+.4f}, sweep took {elapsed:.1f}s")


def test_criterion_04_eigenvalue_accuracy(dirichlet_sweep):
    sweep, _ = dirichlet_sweep
    bc = BoundaryCondition.dirichlet(1)
    _, _, _, solution = _solve(bc, 1000, count=5)
    analytic = np.array([k * k / 4.0 for k in range(1, 6)])
    abs_ok = abs(solution.eigenvalues[0] - 0.25) <= 1e-3
    rel = np.abs(solution.eigenvalues - analytic) / analytic
    rel_ok = bool(np.max(rel) <= 1e-3)

    errors = [abs(sweep[n][0] - 0.25) for n in SWEEP]
    slope = _loglog_slope(SWEEP, errors)
    slope_ok = abs(slope - (-2.0)) <= 0.15
    ok = abs_ok and rel_ok and slope_ok
    record_criterion(
        4, "eigenvalue accuracy at N=1000 and O(N^-2) error decay", ok,
        f"worst rel {np.max(rel):.2e}, error slope {slope:+.3f}",
    )


def test_criterion_05_periodic_spectrum():
    bc = BoundaryCondition.quasi_periodic(0.0)
    _, _, _, solution = _solve(bc, 500, count=7)
    lam = solution.eigenvalues
    ground_ok = -1e-6 <= lam[0] <= 1e-4
    gaps = [
        abs(lam[1] - lam[2]) / abs(lam[1]),
        abs(lam[3] - lam[4]) / abs(lam[3]),
        abs(lam[5] - lam[6]) / abs(lam[5]),
    ]
    pairs_ok = max(gaps) <= 1e-3
    ok = ground_ok and pairs_ok
    record_criterion(
        5, "periodic spectrum: zero ground level, degenerate pairs", ok,
        f"lambda_0 {lam[0]:+.2e}, worst pair gap {max(gaps):.2e}",
    )


def test_criterion_06_oracle_fem_cross_validation():
    worst = 0.0
    ok = True
    detail = []
    for seed in range(10):
        bc = BoundaryCondition.from_matrix(
            random_unitary(2, np.random.default_rng(seed))
        )
        _, _, _, solution = _solve(bc, 800, count=5)
        fem = solution.eigenvalues
        kept = fem[np.abs(fem) <= 1e4]
        lo = kept[0] - max(0.1, 0.01 * abs(kept[0]))
        hi = kept[-1] + 0.5
        roots = find_spectrum(bc, FREE, GEOM, (lo, hi), mu=1.0)
        if roots.size < kept.size:
            ok = False
            detail.append(f"seed {seed}: missing roots")
            continue
        rel = np.abs(roots[: kept.size] - kept) / np.maximum(
            1.0, np.abs(roots[: kept.size])
        )
        worst = max(worst, float(np.max(rel)))
        if np.max(rel) > 1e-3:
            ok = False
            detail.append(f"seed {seed}: rel {np.max(rel):.2e}")
    record_criterion(
        6, "oracle vs FEM lowest five levels for 10 random extensions", ok,
        "; ".join(detail) if detail else f"worst rel {worst:.2e}",
    )


def _free_particle_trace_terms(lam):
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


def test_criterion_07_oracle_internal_consistency():
    rng = np.random.default_rng(2024)
    worst = 0.0
    ok = True
    # 100 samples: half in the entire-basis path across negative and
    # positive energies, half in the exponential basis of the worked
    # example.  Comparisons are scaled by the trace magnitudes, which is
    # the precision the determinant supports where its terms cancel.
    for trial in range(100):
        theta = float(rng.uniform(0, 2 * math.pi))
        alpha = rng.standard_normal() + 1j * rng.standard_normal()
        beta = rng.standard_normal() + 1j * rng.standard_normal()
        norm = math.hypot(abs(alpha), abs(beta))
        alpha, beta = alpha / norm, beta / norm
        bc = BoundaryCondition.from_matrix(
            unitary_from_su2_phase(theta, alpha, beta), ordering="block"
        )
        if trial % 2 == 0:
            lam = float(rng.uniform(-2.0, 12.0))
            traces = fundamental_traces(FREE, GEOM, lam, mu=1.0)
        else:
            lam = float(rng.uniform(0.05, 12.0))
            traces = exponential_traces(GEOM, lam, 0.5, [0.0])
        scales = _column_scales(traces)
        scale = max(1.0, float(scales[0] * scales[1]))
        d_block = spectral_matrix(bc, traces).detval
        d_closed = spectral_det_closed_1(bc, traces)
        d_param = spectral_det_parametrized(theta, alpha, beta, traces)
        dev = max(abs(d_block - d_closed), abs(d_closed - d_param)) / scale
        worst = max(worst, dev)
        ok = ok and dev <= 1e-12

    # worked free-particle formula, term by term and assembled
    term_worst = 0.0
    for lam in (0.37, 1.21, 3.8, 7.6):
        traces = exponential_traces(GEOM, lam, 0.5, [0.0])
        for key, expected in _free_particle_trace_terms(lam).items():
            got = w_combo(traces, *key)
            term_worst = max(
                term_worst, abs(got - expected) / max(1.0, abs(expected))
            )
        theta, alpha, beta = 0.9, 0.6 + 0.48j, -0.4 + 0.5j
        k = np.sqrt(complex(2 * lam))
        s, c = np.sin(TWO_PI * k), np.cos(TWO_PI * k)
        assembled = (
            -2j * (1 + 2 * lam) * s - 4 * k * c
            + np.exp(1j * theta / 2)
            * (4j * alpha.real * (1 - 2 * lam) * s + 8j * beta.imag * k)
            + np.exp(1j * theta) * (-2j * (1 + 2 * lam) * s + 4 * k * c)
        )
        got = spectral_det_parametrized(theta, alpha, beta, traces)
        term_worst = max(term_worst, abs(got - assembled) / max(1.0, abs(assembled)))
    ok = ok and term_worst <= 1e-11
    record_criterion(
        7, "oracle paths agree to 1e-12; worked formula reproduced", ok,
        f"worst path dev {worst:.2e}, worked-formula dev {term_worst:.2e}",
    )


def test_criterion_08_conditioning_bound():
    geom2 = IntervalSet([(0.0, 1.0), (0.0, 2.6)])
    mesh1 = build_mesh(GEOM, 40)
    mesh2 = build_mesh(geom2, 30)
    rng = np.random.default_rng(77)
    ok = True
    worst_margin = 0.0
    for _ in range(100):
        for mesh, dim in ((mesh1, 2), (mesh2, 4)):
            bc = BoundaryCondition.from_matrix(random_unitary(dim, rng))
            report = condition_report(assemble_boundary_system(bc, mesh))
            margin = report.kappa_estimate / report.bound
            worst_margin = max(worst_margin, margin)
            ok = ok and report.kappa_estimate <= report.bound * (1 + 1e-9)
    record_criterion(
        8, "measured condition numbers within the closed-form bound", ok,
        f"worst kappa/bound {worst_margin:.3f}",
    )


def test_criterion_09_hermiticity_and_definiteness():
    rng = np.random.default_rng(9)
    geom2 = IntervalSet([(0.0, 1.0), (0.5, 2.7)])
    ok = True
    worst_resid = 0.0
    for trial in range(50):
        if trial % 2 == 0:
            geom, n, resolution = GEOM, 1, 60
        else:
            geom, n, resolution = geom2, 2, 40
        bc = BoundaryCondition.from_matrix(random_unitary(2 * n, rng))
        mesh = build_mesh(geom, resolution)
        values = solve_boundary_values(assemble_boundary_system(bc, mesh))
        pencil = assemble_pencil(mesh, bc, values)
        a, b = pencil.a.toarray(), pencil.b.toarray()
        herm = np.array_equal(a, a.conj().T) and np.array_equal(b, b.conj().T)
        try:
            scipy.linalg.cholesky(b, lower=True)
            chol = True
        except scipy.linalg.LinAlgError:
            chol = False
        solution = solve_pencil(pencil)
        tols = residual_tolerances(pencil, solution.eigenvalues)
        resid_ok = bool(np.all(solution.residuals <= tols))
        worst_resid = max(worst_resid, float(np.max(solution.residuals / tols)))
        ok = ok and herm and chol and resid_ok
    record_criterion(
        9, "assembled pencils exactly hermitian, B positive definite, "
        "residuals within bound", ok, f"worst residual/tol {worst_resid:.3f}",
    )


def test_criterion_10_stability_exponents():
    text = (
        SCHEMA_HEADER
        + f"\ngeometry.intervals = 0 {TWO_PI!r}"
        + "\nboundary.kind = quasi_periodic"
        + "\nboundary.theta = 0"
        + "\nresolution = 250\n"
    )
    cfg = parse_config(text)
    _, fits, _ = stability_study(cfg)
    exponents = [fits[lev][1] for lev in (1, 2, 3, 4)]
    reference = (-0.89, -0.42, -0.03, 0.28)
    within = all(
        abs(got - ref) <= 0.15 for got, ref in zip(exponents, reference)
    )
    ordered = all(a < b for a, b in zip(exponents, exponents[1:]))
    ok = within and ordered
    record_criterion(
        10, "quasi-periodic stability exponents", ok,
        "measured (" + ", ".join(f"{b:+.3f}" for b in exponents)
        + ") vs reference (-0.89, -0.42, -0.03, +0.28); "
        + f"within 0.15: {within}, ordered: {ordered}",
    )


def test_criterion_11_small_scale_eigensolver_oracle():
    worst = 0.0
    ok = True
    for seed in range(200):
        rng = np.random.default_rng(seed)
        a = random_hermitian(6, rng)
        b = random_spd(6, rng)
        pencil = Pencil(a=a, b=b)
        solution = solve_pencil(pencil)
        reference = charpoly_eigenvalues(a, b)
        dev = float(
            np.max(np.abs(solution.eigenvalues - reference)
                   / np.maximum(1.0, np.abs(reference)))
        )
        worst = max(worst, dev)
        ok = ok and dev <= 1e-8
    record_criterion(
        11, "eigensolver matches characteristic-polynomial oracle (200 pencils)",
        ok, f"worst rel dev {worst:.2e}",
    )
