"""The stability study: input validation, level clusters and the
variable-projection power-law fit."""

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
from saext import cli
from helpers import power_law_fit_multistart
from saext.boundary import assemble_boundary_system, solve_boundary_values
from saext.boundary import BoundaryCondition
from saext.cli import (
    EXIT_CONFIG,
    _power_law_fit,
    main,
    nearest_unitary,
    stability_study,
)
from saext.config import SCHEMA_HEADER, build_problem, parse_config
from saext.eigen import solve_pencil
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
    fit = _power_law_fit(EPS, a * EPS ** b + c)
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
        assert fits[lev] == _power_law_fit(eps, k_vals)
        # the two optima agree to about 5e-15 relative at level 1, below the
        # rounding of the cost itself: compare within that rounding
        (cost, noise), (ref_cost, ref_noise) = (
            _cost(eps, k_vals, fit) for fit in (fits[lev], reference))
        assert cost <= ref_cost + noise + ref_noise
        assert abs(fits[lev][1] - reference[1]) <= 1e-5


def test_fit_of_all_nan_data_is_none():
    assert _power_law_fit(EPS, np.full(EPS.size, np.nan)) is None


def test_fit_logs_exponent_on_grid_edge(caplog):
    with caplog.at_level(logging.WARNING, logger="saext"):
        fit = _power_law_fit(EPS, 2.0 * (EPS / EPS[-1]) ** 6.0 + 1.0)
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
        u, distance = nearest_unitary(matrix)
        want, _ = scipy.linalg.polar(matrix)
        assert u.tobytes() == want.tobytes()
        assert distance == float(np.linalg.norm(matrix - want))


def test_sweep_starts_every_solve_from_the_base_eigenvectors(monkeypatch, caplog):
    # every perturbed pencil is solved warm from one shared start block, not
    # from its neighbour's solution: the base eigenvectors, bit for bit,
    # then the boundary responses; each certifies without fallback
    calls = []
    solve = cli.solve_pencil

    def recording(pencil, count=None, start=None):
        solution = solve(pencil, count=count, start=start)
        calls.append((start, solution))
        return solution

    monkeypatch.setattr(cli, "solve_pencil", recording)
    cfg = parse_config(CRITERION_10_CONFIG + "stability.eps_start = 1e-4\n"
                       "stability.eps_stop = 1e-3\nstability.eps_step = 1e-4\n")
    with caplog.at_level(logging.WARNING, logger="saext"):
        stability_study(cfg)
    assert not [r for r in caplog.records if "fallback" in r.getMessage()]
    (base_start, base), *perturbed = calls
    assert base_start is None and len(perturbed) == 10
    start = perturbed[0][0]
    assert all(s is start for s, _ in perturbed)
    count = base.count
    assert start.shape[1] > count
    assert start[:, :count].tobytes() == base.eigenvectors.tobytes()


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
    ("", ["--levels", "-1"]),
    ("", ["--levels", "0"]),
], ids=["zero-step", "nan-step", "negative-step", "negative-start",
        "start-above-stop", "infinite-stop", "negative-levels", "zero-levels"])
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
