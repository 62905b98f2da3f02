"""Command-line front end.

Subcommands
-----------
solve        eigenvalues (and optional eigenfunction samples) of one problem
oracle       eigenvalues from the spectral-determinant scan
convergence  Sobolev-1 error of the ground state against the resolution
stability    sensitivity of the spectrum to boundary-condition perturbations
condition    conditioning report of the boundary matrix

Every setting reaches a subcommand through the configuration: ``--mu``
overrides ``mu`` and, for stability, ``--levels`` overrides
``stability.levels``; for solve, ``--levels`` is the number of
``eigenfunction_<k>.csv`` files (>= 0); no other subcommand takes it.
Outputs are CSV files (RFC-4180 style, header row, 17 significant digits)
plus ``resolved_config.txt``, the echo of the fully resolved configuration
that ran.  The stability study fits K(eps) = a eps^b + c per level by
variable projection: a and c are linear least-squares coefficients for each
b, and b minimizes the remaining residual (a scan of [-4, 4], then finer scans
around the best point).  Exit codes: 0 success,
2 configuration validation, 3 conditioning failure, 4 solver failure,
5 I/O failure.  The oracle needs finite oracle.lambda_min < oracle.lambda_max
and oracle.grid_points >= 0 (0 chooses the grid density automatically).
"""

from __future__ import annotations

import argparse
import functools
import logging
import math
import sys
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from .boundary import (
    BoundaryCondition,
    BoundarySolveError,
    ConditionFailure,
    assemble_boundary_system,
    _boundary_values_stack,
    _quasi_periodic_matrix,
    condition_report,
    retry_mesh_on_bad_conditioning,
    solve_boundary_values,
)
from .config import (
    REAL_FORMAT,
    ConfigError,
    JobConfig,
    build_problem,
    format_real,
    parse_config,
    render_config,
)
from .eigen import (
    EigenSolveError,
    _SearchSpace,
    eigenfunction_samples,
    h1_error,
    solve_pencil,
)
from .fem import AssemblyError, BulkAssembly, assemble_pencil
from .geometry import GeometryError, build_mesh
from .potentials import PotentialError
from .spectral import TraceIntegrationError, find_spectrum

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_CONDITIONING = 3
EXIT_SOLVER = 4
EXIT_IO = 5

_LOG = logging.getLogger(__name__)

# Exponent grid of the power-law fit.  Its spacing 8/799 keeps b = 0 off the
# grid: there eps**b is constant and a is undetermined.
_FIT_EXPONENTS = np.linspace(-4.0, 4.0, 800)


def _write_table(path: Path, header: list[str], columns) -> None:
    """Write a CSV table, the bytes csv.writer writes for it: the header
    row, then row m of the columns, integer cells as %d, float cells as
    REAL_FORMAT and text cells as they are, every row rendered by one
    %-format call.  Text cells are never quoted, so they hold no comma,
    quote or line break.  A list or tuple whose first cell is a str is a
    text column and is written as it is, without a numpy round trip."""
    formats, values = [], []
    for col in columns:
        if isinstance(col, (list, tuple)) and col and isinstance(col[0], str):
            formats.append("%s")
            values.append(col)
            continue
        array = np.asarray(col)
        formats.append("%d" if array.dtype.kind in "iu" else
                       "%s" if array.dtype.kind in "OU" else REAL_FORMAT)
        values.append(array.tolist())
    rows, width = len(values[0]), len(values)
    cells = [None] * (rows * width)
    for j, column in enumerate(values):
        cells[j::width] = column
    body = ((",".join(formats) + "\r\n") * rows) % tuple(cells)
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n" + body)


def _solve_problem(cfg: JobConfig, resolution: int, count: int | None):
    """(mesh, boundary values, pencil, solution) of the configured problem,
    its lowest ``count`` pairs (None: all) at ``resolution`` or at the first
    higher resolution that passes the conditioning gate."""
    geom, bc, potential = build_problem(cfg)
    mesh, _, values = retry_mesh_on_bad_conditioning(
        bc, geom, resolution, kappa_max=cfg.kappa_max,
        max_retries=cfg.kappa_retries,
    )
    pencil = assemble_pencil(mesh, bc, values, potential, mu=cfg.mu)
    return mesh, values, pencil, solve_pencil(pencil, count=count)


def _dump_matrix(path: Path, matrix) -> None:
    """Write the nonzero entries of a sparse matrix in row-major order."""
    coo = matrix.tocoo()
    order = np.lexsort((coo.col, coo.row))
    order = order[coo.data[order] != 0]
    data = coo.data[order]
    _write_table(path, ["i", "j", "re", "im"],
                 [coo.row[order], coo.col[order], data.real, data.imag])


def cmd_solve(cfg: JobConfig, out_dir: Path, args: argparse.Namespace) -> None:
    if args.levels < 0:
        raise ConfigError(f"--levels must be >= 0, got {args.levels}")
    mesh, values, pencil, solution = _solve_problem(
        cfg, cfg.resolution, cfg.eigen_count if cfg.eigen_count > 0 else None
    )
    _write_table(out_dir / "spectrum.csv", ["index", "lambda", "residual"],
                 [range(solution.count), solution.eigenvalues, solution.residuals])
    x_text = None  # the abscissae are the same in every file: format them once
    for k in range(min(args.levels, solution.count)):
        x, vals = eigenfunction_samples(solution, mesh, values, k)
        if x_text is None:
            x_text = [REAL_FORMAT % v for v in x.tolist()]
        _write_table(out_dir / f"eigenfunction_{k}.csv", ["x", "re", "im"],
                     [x_text, vals.real, vals.imag])
    if args.dump_pencil:
        _dump_matrix(out_dir / "pencil_a.csv", pencil.a)
        _dump_matrix(out_dir / "pencil_b.csv", pencil.b)


def cmd_oracle(cfg: JobConfig, out_dir: Path, args: argparse.Namespace) -> None:
    geom, bc, potential = build_problem(cfg)
    lo, hi = cfg.oracle_lambda_min, cfg.oracle_lambda_max
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise ConfigError("oracle needs finite oracle.lambda_min < "
                          f"oracle.lambda_max, got ({lo}, {hi})")
    if cfg.oracle_grid_points < 0:
        raise ConfigError("oracle.grid_points must be >= 0 (0 = automatic), "
                          f"got {cfg.oracle_grid_points}")
    grid = cfg.oracle_grid_points if cfg.oracle_grid_points > 0 else None
    result = find_spectrum(
        bc, potential, geom,
        (lo, hi),
        grid_points=grid, mu=cfg.mu, return_scan=cfg.oracle_scan_output,
    )
    if cfg.oracle_scan_output:
        roots, scan = result
        _write_table(out_dir / "scan.csv",
                     ["lambda", "abs_Lambda", "re_Lambda", "im_Lambda"],
                     [scan.lam, scan.absdet, scan.redet, scan.imdet])
    else:
        roots = result
    _write_table(out_dir / "roots.csv", ["index", "lambda"],
                 [range(len(roots)), roots])


def _ground_state_reference(geom):
    """Unit-norm ground state of the Dirichlet problem on a single interval."""
    if geom.n != 1:
        raise ConfigError("the convergence study needs a single interval")
    a, b = geom.intervals[0]
    length = b - a
    amp = math.sqrt(2.0 / length)
    freq = math.pi / length

    def psi(x):
        return amp * np.sin(freq * (np.asarray(x) - a))

    def dpsi(x):
        return amp * freq * np.cos(freq * (np.asarray(x) - a))

    return psi, dpsi


def _centred(p):
    """(mean p, p - mean p, |p - mean p|^2) along the last axis of p, the
    part of :func:`_linear_lstsq` that does not depend on k."""
    with np.errstate(all="ignore"):
        p_mean = p.mean(axis=-1)
        p_c = p - p_mean[..., None]
        return p_mean, p_c, np.sum(p_c * p_c, axis=-1)


def _linear_lstsq(p, k, centred=None):
    """Centred linear least squares k ~ a p + c along the last axis,
    vectorized over the leading axes of p and k, which broadcast:
    a = <p - mean p, k - mean k> / |p - mean p|^2 and c = mean k - a mean p.
    ``centred`` is :func:`_centred` of p, computed here unless given.
    Returns (a, c, squared residual), the residual +inf where it is not
    finite."""
    p_mean, p_c, p_norm2 = _centred(p) if centred is None else centred
    k_mean = k.mean(axis=-1)
    k_c = k - k_mean[..., None]
    with np.errstate(all="ignore"):
        a = np.sum(p_c * k_c, axis=-1) / p_norm2
        resid = k_c - a[..., None] * p_c
        cost = np.sum(resid * resid, axis=-1)
    return a, k_mean - a * p_mean, np.where(np.isfinite(cost), cost, np.inf)


def _fit_loglog(ns, errors):
    """Least-squares slope of log(error) vs log(N) and its standard error,
    nan with fewer than three points (no residual degree of freedom)."""
    logn = np.log(np.asarray(ns, dtype=float))
    slope, _, cost = _linear_lstsq(logn, np.log(np.asarray(errors, dtype=float)))
    m = logn.size
    if m < 3:
        return float(slope), math.nan
    return float(slope), math.sqrt(cost / (m - 2) / np.sum((logn - logn.mean()) ** 2))


def cmd_convergence(cfg: JobConfig, out_dir: Path, args: argparse.Namespace) -> None:
    geom, _, _ = build_problem(cfg)
    if cfg.boundary_kind != "dirichlet":
        raise ConfigError(
            "the convergence study uses the built-in Dirichlet reference; "
            f"boundary.kind is {cfg.boundary_kind!r}"
        )
    if cfg.potential_kind not in ("zero", "constant"):
        # the free sine is an eigenfunction only where V is constant
        raise ConfigError(
            "the convergence study's Dirichlet sine reference needs a zero or "
            f"constant potential; potential.kind is {cfg.potential_kind!r}"
        )
    reference = _ground_state_reference(geom)
    resolutions = list(cfg.convergence_resolutions)
    if not resolutions:
        raise ConfigError("convergence.resolutions is empty")
    if len(set(resolutions)) != len(resolutions):
        raise ConfigError("convergence.resolutions must be distinct, got "
                          + " ".join(map(str, resolutions)))

    errors = []
    for n_res in resolutions:
        mesh, values, _, solution = _solve_problem(cfg, n_res, 1)
        errors.append(h1_error(solution, 0, mesh, values, reference))
    rows = [[str(n), format_real(e)] for n, e in zip(resolutions, errors)]
    if len(resolutions) >= 2:
        slope, stderr = _fit_loglog(resolutions, errors)
        rows.append(["slope", format_real(slope)])
        rows.append(["slope_stderr", format_real(stderr)])
    else:
        rows.append(["fit_status", "insufficient-data"])
    _write_table(out_dir / "convergence.csv", ["N", "h1_error"], zip(*rows))


def nearest_unitary(matrices: np.ndarray):
    """The polar factor of each matrix of a stack (m, d, d), as an array,
    and their distances to the matrices, as an array.

    The polar factor is W V^H from the thin SVD W S V^H by LAPACK's
    ``gesdd``, looked up once and called directly, once per matrix: the
    factor ``scipy.linalg.polar`` computes, bit for bit, without its
    wrapper layer.
    """
    matrices = np.asarray(matrices)
    gesdd, = scipy.linalg.get_lapack_funcs(("gesdd",), (matrices,))
    factors, distances = [], []
    for m in matrices:
        w, _, vh, info = gesdd(m, compute_uv=1, full_matrices=0)
        if info:
            raise EigenSolveError(f"SVD for the nearest unitary failed: gesdd info {info}")
        u = w @ vh
        factors.append(u)
        distances.append(float(np.linalg.norm(m - u)))
    return np.array(factors), np.array(distances)


def _power_law_fits(eps: np.ndarray, k_rows: np.ndarray) -> list:
    """Fit K(eps) = a * eps**b + c by variable projection to each row of
    ``k_rows`` (levels x eps), all rows in one pass.

    The model is linear in a and c, so they are eliminated in closed form
    (Golub & Pereyra, SIAM J. Numer. Anal. 10, 1973) and the fit reduces to
    a 1-D minimization of the remaining residual over b: a scan of
    _FIT_EXPONENTS, then rescans of 41 exponents on the bracket around the
    best point until their spacing is below 1e-12.  Each row gets the same
    arithmetic as alone: the first scan shares eps**b and its centring
    (:func:`_centred`) and takes the rows one at a time, and each rescan
    takes all rows still refining at once, each on its own bracket.
    Returns (a, b, c) per row, or None for a row whose residual is finite
    for no b.
    """
    k = np.asarray(k_rows)
    grid = _FIT_EXPONENTS
    with np.errstate(all="ignore"):
        powers = eps ** grid[:, None]
    # row by row: a (rows, grid, eps) stack would triple the fit's peak memory
    centred = _centred(powers)
    a, c, costs = (np.array(parts) for parts
                   in zip(*(_linear_lstsq(powers, row, centred) for row in k)))
    k = k[:, None, :]
    rows = np.arange(k.shape[0])
    i = np.argmin(costs, axis=-1)
    fits = np.isfinite(costs[rows, i])
    for j in np.flatnonzero(fits & ((i == 0) | (i == grid.size - 1))):
        _LOG.warning("power-law fit: best exponent %g lies on the edge of the "
                     "search grid [%g, %g]", grid[i[j]], grid[0], grid[-1])
    best = [a[rows, i], grid[i], c[rows, i]]
    low, high = grid[np.maximum(i - 1, 0)], grid[np.minimum(i + 1, grid.size - 1)]
    active = fits & (grid[1] - grid[0] >= 1e-12)
    while np.any(active):
        grid = np.linspace(low[active], high[active], 41, axis=-1)
        with np.errstate(all="ignore"):
            a, c, costs = _linear_lstsq(eps ** grid[..., None], k[active])
        rows = np.arange(grid.shape[0])
        i = np.argmin(costs, axis=-1)
        for value, new in zip(best, (a[rows, i], grid[rows, i], c[rows, i])):
            value[active] = new
        low[active] = grid[rows, np.maximum(i - 1, 0)]
        high[active] = grid[rows, np.minimum(i + 1, grid.shape[1] - 1)]
        active[active] = grid[:, 1] - grid[:, 0] >= 1e-12
    return [tuple(map(float, abc)) if fit else None
            for fit, *abc in zip(fits, *best)]


def _sweep_start(pencil, solution, clusters) -> np.ndarray:
    """The start block of every perturbed solve of a stability sweep: the
    base eigenvectors, then the boundary responses R(sigma_c)
    (:meth:`~saext.fem.ArrowBlocks.boundary_response`) at the mean sigma_c
    of each cluster of base eigenvalues.

    Only the boundary block of the pencil depends on U, so the bulk part of
    a perturbed eigenvector near sigma_c lies close to the span of
    R(sigma_c), and the base eigenvectors carry the rest.  A cluster whose
    T(sigma_c) has an exactly zero pivot gives no responses; the warm path's
    inverse steps then find its levels.
    """
    columns = [solution.eigenvectors]
    for members in clusters:
        sigma = float(np.mean(solution.eigenvalues[members]))
        try:
            columns.append(pencil.arrow.boundary_response(sigma))
        except np.linalg.LinAlgError as exc:
            _LOG.debug("no boundary responses at %.17g (%s)", sigma, exc)
    return np.column_stack(columns)


def stability_study(cfg: JobConfig):
    """Relative eigenvalue sensitivity under boundary perturbations.

    The base boundary condition must be periodic.  For each epsilon the
    perturbed matrix U + i eps A (A = [[0, 1], [-1, 0]]) is replaced by its
    nearest unitary before solving ('linear' mode), or the exactly unitary
    member u(a) = e^{i eps} u(b) of the same family is used ('geodesic'
    mode).

    Levels 1 .. stability.levels are tracked.  Level m is the m-th excited
    energy level, i.e. the m-th near-degenerate cluster above the ground
    level; in the periodic case these are the double levels 1, 4, 9, 16, ...
    K averages |delta lambda| / (eps |lambda|) over the cluster members,
    matched to the unperturbed members by sorted index (or by nearest value
    with stability.matching = nearest).

    Every perturbed pencil is solved from one start block
    (:func:`_sweep_start`): the base eigenvectors and the boundary responses
    at each base level cluster.  Only the boundary block depends on U, so
    the span of the block is projected once
    (:class:`~saext.eigen._SearchSpace`).  The sweep carries its perturbed
    U as one (m, 2, 2) array: one :func:`nearest_unitary` call, one
    boundary solve of the stack with its unitarity check and gates
    (:func:`~saext.boundary._boundary_values_stack`), so a failure at any
    eps is reported before any eigensolve, one build of their boundary
    blocks (``BulkAssembly._arrow_stack``) and one
    :meth:`~saext.eigen._SearchSpace.solve_stack`, which certifies the
    pencils of each chunk with the same number of Ritz values below their
    gaps at the taus of their common gap, certifies in a stack of its own
    a pencil they do not, and hands one it cannot certify to the cold
    path.  Each U gets bit for bit the eigenvalues it gets alone, so no
    result depends on the order of the sweep, unless the stacked step of
    its chunk raises (a non-finite boundary block or a failed Cholesky
    factorization), when every pencil of that chunk takes the cold path,
    or unless its chunk's tau and its own decide its certificate
    differently, which no sweep tested does.  K is one array
    expression per level over all eps, with the operations of the ratio
    of one eps.

    Returns (rows, fits, distances): per-epsilon per-level ratios K,
    per-level power-law fits K = a eps^b + c, and the re-unitarization
    distances.  Raises ConfigError unless eps_step is finite and positive,
    0 <= eps_start <= eps_stop (both finite), their number of steps
    (eps_stop - eps_start) / eps_step is finite and stability.levels >= 1.
    """
    start, stop, step = (cfg.stability_eps_start, cfg.stability_eps_stop,
                         cfg.stability_eps_step)
    if not (math.isfinite(step) and step > 0):
        raise ConfigError("stability.eps_step must be positive and finite, "
                          f"got {step}")
    if not (math.isfinite(start) and math.isfinite(stop) and 0 <= start <= stop):
        raise ConfigError("stability needs finite 0 <= eps_start <= eps_stop, "
                          f"got eps_start = {start}, eps_stop = {stop}")
    steps = (stop - start) / step
    if not math.isfinite(steps):
        raise ConfigError(f"stability.eps_step = {step} is too small: "
                          "(eps_stop - eps_start) / eps_step overflows")
    levels = cfg.stability_levels
    if levels < 1:
        raise ConfigError(f"stability.levels must be at least 1, got {levels}")
    geom, bc, potential = build_problem(cfg)
    periodic = BoundaryCondition.quasi_periodic(0.0)
    if geom.n != 1 or np.max(np.abs(bc.u_endpoint - periodic.u_endpoint)) > 1e-12:
        raise ConfigError("the stability study requires the periodic "
                          "boundary condition on a single interval")
    if cfg.stability_mode not in ("linear", "geodesic"):
        raise ConfigError(f"unknown stability.mode {cfg.stability_mode!r}")
    if cfg.stability_matching not in ("index", "nearest"):
        raise ConfigError(f"unknown stability.matching {cfg.stability_matching!r}")

    # worst case all tracked levels are double plus a simple ground level
    count = 2 * levels + 1
    mesh = build_mesh(geom, cfg.resolution)
    # only the boundary block of the pencil depends on U: assemble the rest
    # once for the whole sweep
    bulk = BulkAssembly(mesh, potential, mu=cfg.mu)

    base_pencil = bulk.pencil(bc, solve_boundary_values(
        assemble_boundary_system(bc, mesh), kappa_max=cfg.kappa_max))
    base_solution = solve_pencil(base_pencil, count=count)
    base = base_solution.eigenvalues
    # distinct energy levels: the periodic ring has a simple ground level and
    # double levels split only at discretization-error size
    clusters = base_solution.degenerate_clusters(rtol=1e-3)
    if len(clusters) < levels + 1:
        raise ConfigError(
            f"only {len(clusters)} distinct levels available, "
            f"need {levels + 1} (ground + {levels})"
        )
    space = _SearchSpace(base_pencil.arrow,
                         _sweep_start(base_pencil, base_solution, clusters))

    n_steps = int(round(steps)) + 1
    eps_list = [start + i * step for i in range(n_steps)]
    eps_list = [e for e in eps_list if e <= stop * (1 + 1e-12)]
    rows = []  # (record, epsilon, level, value)
    if eps_list[0] == 0.0:  # only the first eps can be 0
        rows.append(("skipped_epsilon", eps_list.pop(0), "",
                     "K undefined at epsilon = 0"))

    eps = np.array(eps_list)
    distances, spectra = [], np.empty((0, count))
    if eps_list:  # a stack holds at least one U
        if cfg.stability_mode == "linear":
            generator = np.array([[0.0, 1.0], [-1.0, 0.0]])
            u, distance = nearest_unitary(bc.u_endpoint
                                          + 1j * eps[:, None, None] * generator)
            distances = list(zip(eps_list, distance.tolist()))
        else:
            u = np.array([_quasi_periodic_matrix(e) for e in eps_list])
            distances = [(e, 0.0) for e in eps_list]
        values = _boundary_values_stack(u, mesh, kappa_max=cfg.kappa_max)
        spectra = np.array(space.solve_stack(bulk._arrow_stack(*values), count))

    # K over eps of each level whose ratio is well conditioned: the skipped
    # rule depends on the level alone, so every such level has every eps
    k_table = {}
    for lev in range(1, levels + 1):
        members = clusters[lev]
        lam_base = base[members]
        if np.any(np.abs(lam_base) < 1e-6):
            continue
        if cfg.stability_matching == "index":
            lam = spectra[:, members]
        else:
            nearest = np.argmin(np.abs(spectra[:, None, :] - lam_base[:, None]), axis=-1)
            lam = np.take_along_axis(spectra, nearest, axis=-1)
        ratios = np.abs(lam - lam_base) / (eps[:, None] * np.abs(lam_base))
        k_table[lev] = np.mean(ratios, axis=-1).tolist()
    for i, eps_i in enumerate(eps_list):
        rows += [("K", eps_i, lev, k_table[lev][i]) if lev in k_table
                 else ("skipped", eps_i, lev, "ill-conditioned ratio")
                 for lev in range(1, levels + 1)]

    fits = dict.fromkeys(range(1, levels + 1))
    fitted = list(k_table) if eps.size >= 4 else []
    if fitted:
        k_rows = np.array([k_table[lev] for lev in fitted])
        fits.update(zip(fitted, _power_law_fits(eps, k_rows)))
    return rows, fits, distances


def cmd_stability(cfg: JobConfig, out_dir: Path, args: argparse.Namespace) -> None:
    rows, fits, distances = stability_study(cfg)
    csv_rows = []
    for record, eps, lev, value in rows:
        rendered = format_real(value) if isinstance(value, float) else str(value)
        csv_rows.append([record, format_real(eps), str(lev), rendered])
    for lev in sorted(fits):
        fit = fits[lev]
        if fit is None:
            csv_rows.append(["fit_status", "", str(lev), "insufficient-data"])
        else:
            a, b, c = fit
            csv_rows.append(["fit_a", "", str(lev), format_real(a)])
            csv_rows.append(["fit_b", "", str(lev), format_real(b)])
            csv_rows.append(["fit_c", "", str(lev), format_real(c)])
    for eps, distance in distances:
        csv_rows.append(["unitarization_distance", format_real(eps), "",
                         format_real(distance)])
    _write_table(out_dir / "stability.csv", ["record", "epsilon", "level", "value"],
                 zip(*csv_rows))


def cmd_condition(cfg: JobConfig, out_dir: Path, args: argparse.Namespace) -> None:
    geom, bc, _ = build_problem(cfg)
    mesh = build_mesh(geom, cfg.resolution)
    system = assemble_boundary_system(bc, mesh)
    report = condition_report(system)
    print(f"kappa_estimate = {format_real(report.kappa_estimate)}")
    print(f"bound = {format_real(report.bound)}")
    print(f"spectrum_gap = {format_real(report.spectrum_gap)}")
    if report.incompatible:
        print(f"note = {report.note}")
    _write_table(
        out_dir / "condition.csv",
        ["kappa_estimate", "bound", "spectrum_gap", "incompatible"],
        [[report.kappa_estimate], [report.bound], [report.spectrum_gap],
         ["true" if report.incompatible else "false"]],
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="saext",
        description="Spectra of 1D Schrodinger operators under arbitrary "
        "self-adjoint boundary conditions",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    # Subcommand <name> runs cmd_<name>.  An option whose dest names a
    # JobConfig field overrides that field (see _run).
    for name, help_text in {
        "solve": "solve the eigenvalue problem and write spectrum.csv",
        "oracle": "locate eigenvalues with the spectral-determinant scan",
        "convergence": "ground-state Sobolev-1 error vs resolution",
        "stability": "eigenvalue sensitivity to boundary perturbations",
        "condition": "conditioning report for the boundary matrix",
    }.items():
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", required=True, help="configuration file")
        cmd.add_argument("--out", default=".", help="output directory")
        cmd.add_argument("--mu", type=float, help="override mu")
        if name == "solve":
            cmd.add_argument("--levels", type=int, default=0,
                             help="number of eigenfunction_<k>.csv files")
            cmd.add_argument("--dump-pencil", action="store_true",
                             help="write the nonzero entries of A and B "
                             "as CSV for debugging")
        elif name == "stability":
            cmd.add_argument("--levels", type=int, dest="stability_levels",
                             help="tracked levels (overrides stability.levels)")
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing leaves it
    unchanged, and each parse returns a new namespace."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    out_dir = Path(args.out)
    # the directories this run creates, deepest first: a failed run removes
    # those it leaves empty
    created = [p for p in (out_dir, *out_dir.parents) if not p.exists()]
    status = None
    try:
        status = _run(args, out_dir)
        return status
    finally:
        if status != EXIT_OK:
            for path in created:
                try:
                    path.rmdir()
                except OSError:  # not empty, or never created
                    break


def _run(args: argparse.Namespace, out_dir: Path) -> int:
    """Run the parsed command; the exit code."""
    try:
        try:
            text = Path(args.config).read_text()
        except OSError as exc:
            print(f"saext: cannot read config: {exc}", file=sys.stderr)
            return EXIT_IO
        cfg = parse_config(text)
        # command-line overrides go into the configuration, so that the
        # echo written below shows what ran
        for name, value in vars(args).items():
            if value is not None and hasattr(cfg, name):
                setattr(cfg, name, value)
        try:
            out_dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            print(f"saext: cannot create output directory: {exc}", file=sys.stderr)
            return EXIT_IO
        # looked up on each call, so that a test can replace a handler
        globals()[f"cmd_{args.command}"](cfg, out_dir, args)
        (out_dir / "resolved_config.txt").write_text(render_config(cfg))
        return EXIT_OK
    except (ConfigError, GeometryError, PotentialError) as exc:
        print(f"saext: configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ConditionFailure as exc:
        print(f"saext: conditioning failure: {exc}", file=sys.stderr)
        return EXIT_CONDITIONING
    except (EigenSolveError, AssemblyError, BoundarySolveError,
            TraceIntegrationError) as exc:
        print(f"saext: solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except OSError as exc:
        print(f"saext: I/O failure: {exc}", file=sys.stderr)
        return EXIT_IO


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
