import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import saext
from helpers import (
    assemble_pencil_reference,
    assert_conjugate_mirror,
    write_csv_reference,
    write_text_csv_reference,
)
from saext.boundary import DEFAULT_KAPPA_MAX, DEFAULT_MAX_RETRIES, random_unitary
from saext.cli import (
    EXIT_CONDITIONING,
    EXIT_CONFIG,
    EXIT_IO,
    EXIT_OK,
    EXIT_SOLVER,
    _dump_matrix,
    _fit_loglog,
    _solve_problem,
    _write_table,
    console_main,
    main,
    nearest_unitary,
)
from saext.config import (
    ConfigError,
    SCHEMA_HEADER,
    build_problem,
    parse_config,
    render_config,
)
from saext.eigen import eigenfunction_samples
from saext.fem import boundary_indices

TWO_PI = 2 * math.pi

DIRICHLET_CONFIG = f"""\
{SCHEMA_HEADER}
# free particle with hard walls
geometry.intervals = 0 {TWO_PI!r}
boundary.kind = dirichlet
resolution = 120
eigen.count = 5
"""


def _write(tmp_path, text, name="job.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return path


# ------------------------------------------------------------------ parsing

def test_parse_and_defaults():
    cfg = parse_config(DIRICHLET_CONFIG)
    assert cfg.boundary_kind == "dirichlet"
    assert cfg.resolution == 120
    assert cfg.eigen_count == 5
    assert cfg.mu == 1.0
    assert cfg.kappa_max == 1e8
    # the CLI's conditioning defaults are the library's
    assert (cfg.kappa_max, cfg.kappa_retries) == (DEFAULT_KAPPA_MAX,
                                                  DEFAULT_MAX_RETRIES)


def test_removed_seed_key_accepted_and_ignored():
    # configs echoed before the unused seed key was removed still load
    cfg = parse_config(DIRICHLET_CONFIG + "seed = 7\n")
    assert cfg == parse_config(DIRICHLET_CONFIG)
    assert "seed" not in render_config(cfg)


def test_schema_header_required():
    with pytest.raises(ConfigError, match="schema header"):
        parse_config("geometry.intervals = 0 1\n")


def test_unknown_key_rejected():
    text = SCHEMA_HEADER + "\nnot.a.key = 3\n"
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config(text)


def test_duplicate_key_rejected():
    text = SCHEMA_HEADER + "\nresolution = 3\nresolution = 4\n"
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config(text)


def test_complex_entries_roundtrip():
    text = (
        SCHEMA_HEADER
        + "\ngeometry.intervals = 0 1"
        + "\nboundary.kind = matrix"
        + "\nboundary.matrix = 0,0 1,0 1,0 0,0"
        + "\nresolution = 10\n"
    )
    cfg = parse_config(text)
    assert cfg.boundary_matrix == (0j, 1 + 0j, 1 + 0j, 0j)
    geom, bc, _ = build_problem(cfg)
    assert np.allclose(bc.u_endpoint, [[0, 1], [1, 0]])


def test_malformed_complex_entry():
    text = (
        SCHEMA_HEADER
        + "\ngeometry.intervals = 0 1"
        + "\nboundary.kind = matrix"
        + "\nboundary.matrix = 1 0 0 1"
        + "\nresolution = 10\n"
    )
    with pytest.raises(ConfigError, match="re,im"):
        parse_config(text)


def test_render_parse_roundtrip():
    cfg = parse_config(DIRICHLET_CONFIG)
    text = render_config(cfg)
    cfg2 = parse_config(text)
    assert cfg == cfg2
    assert text.startswith(SCHEMA_HEADER)
    # all keys materialized
    assert "stability.eps_start" in text
    assert "oracle.lambda_min" in text


def test_non_unitary_matrix_rejected_with_defect():
    text = (
        SCHEMA_HEADER
        + "\ngeometry.intervals = 0 1"
        + "\nboundary.kind = matrix"
        + "\nboundary.matrix = 1.1,0 0,0 0,0 1.1,0"
        + "\nresolution = 10\n"
    )
    cfg = parse_config(text)
    with pytest.raises(ConfigError, match="not unitary"):
        build_problem(cfg)


def test_potential_validation():
    text = (
        SCHEMA_HEADER
        + "\ngeometry.intervals = 0 1 2 3"
        + "\nboundary.kind = neumann"
        + "\npotential.kind = constant"
        + "\npotential.values = 1.5"
        + "\nresolution = 10\n"
    )
    cfg = parse_config(text)
    with pytest.raises(ConfigError, match="one value per interval"):
        build_problem(cfg)


# --------------------------------------------------------------------- solve

def test_cmd_solve_dirichlet(tmp_path, capsys):
    cfg_path = _write(tmp_path, DIRICHLET_CONFIG)
    out = tmp_path / "out"
    code = main(["solve", "--config", str(cfg_path), "--out", str(out)])
    assert code == EXIT_OK
    spectrum = (out / "spectrum.csv").read_text().splitlines()
    assert spectrum[0] == "index,lambda,residual"
    first = spectrum[1].split(",")
    assert first[0] == "0"
    assert abs(float(first[1]) - 0.25) <= 1e-3
    assert (out / "resolved_config.txt").exists()


def test_cmd_solve_reproducible(tmp_path):
    cfg_path = _write(tmp_path, DIRICHLET_CONFIG)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["solve", "--config", str(cfg_path), "--out", str(out1)]) == 0
    assert main(["solve", "--config", str(cfg_path), "--out", str(out2)]) == 0
    assert (out1 / "spectrum.csv").read_bytes() == (out2 / "spectrum.csv").read_bytes()


def test_cmd_solve_eigenfunctions(tmp_path):
    cfg_path = _write(tmp_path, DIRICHLET_CONFIG)
    out = tmp_path / "out"
    code = main(["solve", "--config", str(cfg_path), "--out", str(out),
                 "--levels", "2"])
    assert code == EXIT_OK
    lines = (out / "eigenfunction_0.csv").read_text().splitlines()
    assert lines[0] == "x,re,im"
    assert len(lines) == 1 + 120 + 1 + 2  # r + 2 node samples
    assert (out / "eigenfunction_1.csv").exists()


@pytest.mark.parametrize("command", ["oracle", "convergence", "condition"])
def test_levels_only_on_solve_and_stability(tmp_path, command):
    cfg_path = _write(tmp_path, DIRICHLET_CONFIG)
    with pytest.raises(SystemExit) as err:
        main([command, "--config", str(cfg_path), "--out", str(tmp_path / "o"),
              "--levels", "3"])
    assert err.value.code == EXIT_CONFIG


def test_cmd_solve_rejects_negative_levels(tmp_path, capsys):
    cfg_path = _write(tmp_path, DIRICHLET_CONFIG)
    out = tmp_path / "out"
    code = main(["solve", "--config", str(cfg_path), "--out", str(out),
                 "--levels", "-1"])
    assert code == EXIT_CONFIG
    assert "--levels" in capsys.readouterr().err
    assert not (out / "spectrum.csv").exists()


def test_cmd_solve_dump_pencil(tmp_path):
    cfg_path = _write(tmp_path, DIRICHLET_CONFIG)
    out = tmp_path / "out"
    code = main(["solve", "--config", str(cfg_path), "--out", str(out),
                 "--dump-pencil"])
    assert code == EXIT_OK
    lines = (out / "pencil_a.csv").read_text().splitlines()
    assert lines[0] == "i,j,re,im"
    # tridiagonal plus boundary couplings: roughly 3 per row
    assert len(lines) > 3 * 119
    assert (out / "pencil_b.csv").exists()


# fem-ring's problem in the benchmark: the periodic ring at N = 2000
RING_CONFIG = f"""\
{SCHEMA_HEADER}
geometry.intervals = 0 {TWO_PI!r}
boundary.kind = matrix
boundary.ordering = endpoint
boundary.matrix = 0,0 1,0 1,0 0,0
potential.kind = zero
resolution = 2000
eigen.count = 8
"""


def test_real_ring_dump_matches_complex_storage(tmp_path):
    # the ring's pencil is real and stored as float64; its dump equals the
    # dump of the complex matrices of the element-loop assembly, up to the
    # sign of the imaginary zeros (a complex pencil's signs are pinned in
    # test_complex_dump_is_an_exact_conjugate_mirror)
    cfg_path = _write(tmp_path, RING_CONFIG)
    out, ref = tmp_path / "out", tmp_path / "ref"
    assert main(["solve", "--config", str(cfg_path), "--out", str(out),
                 "--dump-pencil"]) == EXIT_OK
    ref.mkdir()
    mesh, values, pencil, _ = _solve_problem(parse_config(RING_CONFIG), 2000, 8)
    assert pencil.a.dtype == pencil.b.dtype == np.float64
    built = assemble_pencil_reference(mesh, values)
    assert [m.dtype for m in built] == [np.complex128, np.complex128]
    for name, matrix in zip(("pencil_a", "pencil_b"), built):
        _dump_matrix(ref / f"{name}.csv", matrix)
        got = [line.split(",") for line in
               (out / f"{name}.csv").read_text().splitlines()[1:]]
        want = [line.split(",") for line in
                (ref / f"{name}.csv").read_text().splitlines()[1:]]
        assert [g[:3] for g in got] == [w[:3] for w in want]
        assert {g[3] for g in got} == {"0"}
        assert {w[3] for w in want} <= {"0", "-0"}


# the quasi-periodic ring: a complex pencil
QUASI_RING_CONFIG = f"""\
{SCHEMA_HEADER}
geometry.intervals = 0 {TWO_PI!r}
boundary.kind = quasi_periodic
boundary.theta = 0.7
potential.kind = zero
resolution = 200
eigen.count = 4
"""


def test_complex_dump_is_an_exact_conjugate_mirror(tmp_path):
    # a complex pencil is dumped with the bits assembly stores: the lower
    # triangle is the exact conjugate of the upper one, so the imaginary
    # zeros of the bands read 0 above the diagonal and -0 below it
    cfg_path = _write(tmp_path, QUASI_RING_CONFIG)
    out = tmp_path / "out"
    assert main(["solve", "--config", str(cfg_path), "--out", str(out),
                 "--dump-pencil"]) == EXIT_OK
    mesh, _, pencil, _ = _solve_problem(parse_config(QUASI_RING_CONFIG), 200, 4)
    assert pencil.a.dtype == pencil.b.dtype == np.complex128
    boundary = boundary_indices(mesh)
    for name in ("pencil_a", "pencil_b"):
        lines = [line.split(",") for line in
                 (out / f"{name}.csv").read_text().splitlines()[1:]]
        rows, cols = (np.array([int(w[k]) for w in lines]) for k in (0, 1))
        data = np.array([complex(float(w[2]), float(w[3])) for w in lines])
        assert_conjugate_mirror(rows, cols, data, boundary)
        bands = [w for w in lines if not (int(w[0]) in boundary
                                          and int(w[1]) in boundary)]
        assert {w[3] for w in bands if int(w[0]) > int(w[1])} == {"-0"}
        assert {w[3] for w in bands if int(w[0]) <= int(w[1])} == {"0"}


def test_real_problem_eigenfunctions_have_zero_imaginary_part(tmp_path):
    cfg_path = _write(tmp_path, DIRICHLET_CONFIG)
    out = tmp_path / "out"
    assert main(["solve", "--config", str(cfg_path), "--out", str(out),
                 "--levels", "5"]) == EXIT_OK
    for k in range(5):
        rows = (out / f"eigenfunction_{k}.csv").read_text().splitlines()[1:]
        assert {row.split(",")[2] for row in rows} == {"0"}, k


@pytest.mark.parametrize("argv, line", [
    (["--levels", "-1"], ""),
    ([], "kappa.retries = -1\n"),
], ids=["negative-levels", "negative-retries"])
def test_failed_run_leaves_no_new_directory(tmp_path, argv, line):
    cfg_path = _write(tmp_path, DIRICHLET_CONFIG + line)
    out = tmp_path / "new" / "nested" / "out"
    assert main(["solve", "--config", str(cfg_path), "--out", str(out),
                 *argv]) == EXIT_CONFIG
    assert sorted(p.name for p in tmp_path.iterdir()) == ["job.cfg"]
    # a directory that existed before the run stays
    kept = tmp_path / "kept"
    kept.mkdir()
    assert main(["solve", "--config", str(cfg_path), "--out", str(kept / "out"),
                 *argv]) == EXIT_CONFIG
    assert kept.is_dir() and not any(kept.iterdir())


def test_table_writer_matches_csv_writer_on_special_values(tmp_path):
    floats = np.array([math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324,
                       -5e-324, 1e308, 1.7976931348623157e308, 1.0, -2.0,
                       3e16, 12345678901234567.0, 0.1, 1.0 / 3.0])
    columns = [np.arange(floats.size), np.arange(floats.size, dtype=np.int32),
               floats, floats[::-1], -floats]
    header = ["k", "j", "a", "b", "c"]
    _write_table(tmp_path / "new.csv", header, columns)
    write_csv_reference(tmp_path / "ref.csv", header, columns)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
    # a table without rows is its header
    _write_table(tmp_path / "empty.csv", ["index", "lambda"],
                 [range(0), np.zeros(0)])
    assert (tmp_path / "empty.csv").read_bytes() == b"index,lambda\r\n"


def test_cmd_solve_outputs_match_reference_writer(tmp_path):
    u = random_unitary(4, np.random.default_rng(41))
    entries = " ".join(f"{float(z.real)!r},{float(z.imag)!r}" for z in u.ravel())
    text = (
        SCHEMA_HEADER
        + "\ngeometry.intervals = 0 1 2 3.5"
        + "\nboundary.kind = matrix"
        + f"\nboundary.matrix = {entries}"
        + "\nresolution = 400"
        + "\neigen.count = 8\n"
    )
    cfg_path = _write(tmp_path, text)
    out, ref = tmp_path / "out", tmp_path / "ref"
    assert main(["solve", "--config", str(cfg_path), "--out", str(out),
                 "--levels", "8", "--dump-pencil"]) == EXIT_OK

    ref.mkdir()
    mesh, values, pencil, solution = _solve_problem(parse_config(text), 400, 8)
    write_csv_reference(
        ref / "spectrum.csv", ["index", "lambda", "residual"],
        [range(solution.count), solution.eigenvalues, solution.residuals],
    )
    for k in range(8):
        x, vals = eigenfunction_samples(solution, mesh, values, k)
        write_csv_reference(ref / f"eigenfunction_{k}.csv", ["x", "re", "im"],
                            [x, vals.real, vals.imag])
    for name, matrix in (("pencil_a", pencil.a), ("pencil_b", pencil.b)):
        csr = matrix.tocsr(copy=True)
        csr.sort_indices()  # row-major order
        rows = np.repeat(np.arange(csr.shape[0]), np.diff(csr.indptr))
        keep = csr.data != 0
        data = csr.data[keep]
        write_csv_reference(ref / f"{name}.csv", ["i", "j", "re", "im"],
                            [rows[keep], csr.indices[keep], data.real, data.imag])

    written = sorted(p.name for p in out.glob("*.csv"))
    assert written == sorted(p.name for p in ref.glob("*.csv"))
    assert len(written) == 11
    for name in written:
        assert (out / name).read_bytes() == (ref / name).read_bytes(), name


def test_console_main_exits_with_main_code(tmp_path, monkeypatch):
    cfg_path = _write(tmp_path, DIRICHLET_CONFIG)
    out = tmp_path / "out"
    for config, code in ((cfg_path, EXIT_OK), (tmp_path / "missing.cfg", EXIT_IO)):
        monkeypatch.setattr(sys, "argv", ["saext", "solve", "--config",
                                          str(config), "--out", str(out)])
        with pytest.raises(SystemExit) as exc:
            console_main()
        assert exc.value.code == code
    assert (out / "spectrum.csv").exists()


def test_cmd_solve_rejects_non_unitary(tmp_path, capsys):
    bad = (
        SCHEMA_HEADER
        + "\ngeometry.intervals = 0 6.28"
        + "\nboundary.kind = matrix"
        + "\nboundary.matrix = 1.05,0 0,0 0,0 1.05,0"
        + "\nresolution = 30\n"
    )
    cfg_path = _write(tmp_path, bad)
    code = main(["solve", "--config", str(cfg_path), "--out", str(tmp_path / "o")])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "not unitary" in err


@pytest.mark.parametrize("command", ["solve", "oracle"])
def test_cmd_rejects_nan_boundary_matrix(tmp_path, capsys, command):
    bad = (
        SCHEMA_HEADER
        + "\ngeometry.intervals = 0 6.28"
        + "\nboundary.kind = matrix"
        + "\nboundary.matrix = nan,0 0,0 0,0 1,0"
        + "\nresolution = 30\n"
    )
    cfg_path = _write(tmp_path, bad)
    code = main([command, "--config", str(cfg_path), "--out", str(tmp_path / "o")])
    assert code == EXIT_CONFIG
    assert "not unitary" in capsys.readouterr().err


_RING_HEAD = (f"{SCHEMA_HEADER}\ngeometry.intervals = 0 {TWO_PI!r}\n"
              "boundary.kind = quasi_periodic\nresolution = 40\n")


@pytest.mark.parametrize("command, text, fragment", [
    ("solve", DIRICHLET_CONFIG + "mu = fast\n", "expected a real number"),
    ("solve", DIRICHLET_CONFIG.replace("eigen.count = 5", "eigen.count = 2.5"),
     "expected an integer"),
    ("oracle", DIRICHLET_CONFIG + "oracle.scan_output = yes\n",
     "expected true or false"),
    ("solve", "# only a comment\n", "empty configuration"),
    ("solve", DIRICHLET_CONFIG + "mu 0.5\n", "expected 'key = value'"),
    ("solve", f"{SCHEMA_HEADER}\nboundary.kind = dirichlet\nresolution = 40\n",
     "geometry.intervals is required"),
    ("solve", DIRICHLET_CONFIG.replace(f"0 {TWO_PI!r}", "0 1 2"), "even token count"),
    ("solve", DIRICHLET_CONFIG.replace(f"0 {TWO_PI!r}", "0 inf"),
     "non-finite endpoints"),
    ("solve", _RING_HEAD.replace(f"0 {TWO_PI!r}", "0 1 2 3"), "need n = 1"),
    ("solve", DIRICHLET_CONFIG.replace("dirichlet", "matrix")
     + "boundary.matrix = 1,0 0,0 0,0\n", "needs 4 entries"),
    ("solve", DIRICHLET_CONFIG.replace("dirichlet", "matrix")
     + "boundary.matrix = 1,0 0,0 0,0 1,0\nboundary.ordering = row\n",
     "endpoint or block"),
    ("solve", DIRICHLET_CONFIG.replace("dirichlet", "robin"),
     "boundary.kind must be"),
    ("oracle", DIRICHLET_CONFIG + "potential.kind = harmonic\n",
     "potential.kind must be"),
    ("solve", DIRICHLET_CONFIG.replace("eigen.count = 5", "eigen.count = -2"),
     "eigen.count must be >= 0"),
    ("stability", _RING_HEAD + "stability.mode = cubic\n", "unknown stability.mode"),
    ("stability", _RING_HEAD + "stability.matching = closest\n",
     "unknown stability.matching"),
    ("convergence", DIRICHLET_CONFIG + "convergence.resolutions =\n",
     "convergence.resolutions is empty"),
    ("convergence", DIRICHLET_CONFIG + "convergence.resolutions = 100 100 100\n",
     "must be distinct"),
    ("convergence", DIRICHLET_CONFIG + "convergence.resolutions = 50 50\n",
     "must be distinct"),
    ("convergence", DIRICHLET_CONFIG + "convergence.resolutions = 40 80 80\n",
     "must be distinct"),
    ("convergence", SCHEMA_HEADER + f"\ngeometry.intervals = 0 {math.pi!r}\n"
     "boundary.kind = dirichlet\nresolution = 50\n"
     "convergence.resolutions = 50 100 200 400\npotential.kind = sampled\n"
     f"potential.samples_x = 0 1 2 {math.pi!r}\npotential.samples_v = 0 20 -5 10\n",
     "needs a zero or constant potential"),
], ids=["not-a-real", "not-an-integer", "not-a-bool", "empty", "no-equals",
        "no-intervals", "odd-tokens", "non-finite-endpoint", "quasi-periodic-n2",
        "matrix-entry-count", "bad-ordering", "unknown-boundary-kind",
        "unknown-potential-kind", "negative-eigen-count", "unknown-stability-mode",
        "unknown-stability-matching", "empty-resolutions", "resolutions-all-equal",
        "resolutions-pair-equal", "resolutions-repeated", "convergence-sampled-v"])
def test_config_errors_exit_2(tmp_path, capsys, command, text, fragment):
    cfg_path = _write(tmp_path, text)
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg_path), "--out", str(out)]) == EXIT_CONFIG
    assert fragment in capsys.readouterr().err
    assert not out.exists()


def test_cmd_solve_conditioning_exhaustion(tmp_path):
    text = (
        SCHEMA_HEADER
        + f"\ngeometry.intervals = 0 {TWO_PI!r}"
        + "\nboundary.kind = dirichlet"
        + "\nresolution = 30"
        + "\nkappa.max = 0.5"
        + "\nkappa.retries = 2\n"
    )
    cfg_path = _write(tmp_path, text)
    code = main(["solve", "--config", str(cfg_path), "--out", str(tmp_path / "o")])
    assert code == EXIT_CONDITIONING


@pytest.mark.parametrize("line, key", [
    ("kappa.max = nan", "kappa.max"),
    ("kappa.max = 0", "kappa.max"),
    ("kappa.max = -1e8", "kappa.max"),
    ("kappa.retries = -1", "kappa.retries"),
], ids=["max-nan", "max-zero", "max-negative", "retries-negative"])
def test_bad_kappa_settings_are_config_errors(tmp_path, capsys, line, key):
    cfg_path = _write(tmp_path, DIRICHLET_CONFIG + line + "\n")
    code = main(["solve", "--config", str(cfg_path), "--out", str(tmp_path / "o")])
    assert code == EXIT_CONFIG
    assert key in capsys.readouterr().err


def test_missing_config_is_io_error(tmp_path):
    code = main(["solve", "--config", str(tmp_path / "nope.cfg"),
                 "--out", str(tmp_path)])
    assert code == EXIT_IO


def test_eigensolver_failure_exit_code(tmp_path, monkeypatch):
    from saext import cli
    from saext.eigen import EigenSolveError

    def boom(*args, **kwargs):
        raise EigenSolveError("forced failure")

    # the parser is built by the first call and kept; the handler is
    # looked up at each dispatch, so replacing it afterwards takes effect
    cfg_path = _write(tmp_path, DIRICHLET_CONFIG)
    assert main(["solve", "--config", str(cfg_path),
                 "--out", str(tmp_path / "ok")]) == EXIT_OK
    monkeypatch.setattr(cli, "cmd_solve", boom)
    code = main(["solve", "--config", str(cfg_path), "--out", str(tmp_path / "o")])
    assert code == EXIT_SOLVER


def test_dense_solve_out_of_memory_exit_code(tmp_path, monkeypatch, capsys):
    # a pencil too small for ARPACK takes the dense path, whose LAPACK call
    # is made to run out of memory: a typed solver failure, not a traceback
    import scipy.linalg

    def no_memory(*args, **kwargs):
        raise MemoryError("no memory")

    monkeypatch.setattr(scipy.linalg, "eigh", no_memory)
    cfg_path = _write(tmp_path, DIRICHLET_CONFIG.replace("resolution = 120",
                                                         "resolution = 12"))
    code = main(["solve", "--config", str(cfg_path), "--out", str(tmp_path / "o")])
    assert code == EXIT_SOLVER
    assert "out of memory for the dense solve of dimension" in capsys.readouterr().err


def test_unwritable_out_dir_is_io_error(tmp_path):
    cfg_path = _write(tmp_path, DIRICHLET_CONFIG)
    blocker = tmp_path / "blocked"
    blocker.write_text("a file, not a directory")
    code = main(["solve", "--config", str(cfg_path), "--out", str(blocker)])
    assert code == EXIT_IO


# -------------------------------------------------------------------- oracle

def test_cmd_oracle_half_mass(tmp_path):
    text = (
        SCHEMA_HEADER
        + f"\ngeometry.intervals = 0 {TWO_PI!r}"
        + "\nboundary.kind = dirichlet"
        + "\nresolution = 10"
        + "\noracle.lambda_min = 0.05"
        + "\noracle.lambda_max = 1.3\n"
    )
    cfg_path = _write(tmp_path, text)
    out = tmp_path / "out"
    code = main(["oracle", "--config", str(cfg_path), "--out", str(out),
                 "--mu", "0.5"])
    assert code == EXIT_OK
    lines = (out / "roots.csv").read_text().splitlines()
    got = [float(line.split(",")[1]) for line in lines[1:]]
    assert np.allclose(got, [0.125, 0.5, 1.125], atol=1e-8)


def test_cmd_oracle_mu_one(tmp_path):
    text = (
        SCHEMA_HEADER
        + f"\ngeometry.intervals = 0 {TWO_PI!r}"
        + "\nboundary.kind = dirichlet"
        + "\nresolution = 10"
        + "\noracle.lambda_min = 0.1"
        + "\noracle.lambda_max = 1.3\n"
    )
    cfg_path = _write(tmp_path, text)
    out = tmp_path / "out"
    assert main(["oracle", "--config", str(cfg_path), "--out", str(out)]) == 0
    lines = (out / "roots.csv").read_text().splitlines()
    got = [float(line.split(",")[1]) for line in lines[1:]]
    assert np.allclose(got, [0.25, 1.0], atol=1e-8)


def test_cmd_oracle_empty_range(tmp_path):
    text = (
        SCHEMA_HEADER
        + f"\ngeometry.intervals = 0 {TWO_PI!r}"
        + "\nboundary.kind = dirichlet"
        + "\nresolution = 10"
        + "\noracle.lambda_min = -9"
        + "\noracle.lambda_max = -5\n"
    )
    cfg_path = _write(tmp_path, text)
    out = tmp_path / "out"
    assert main(["oracle", "--config", str(cfg_path), "--out", str(out)]) == 0
    lines = (out / "roots.csv").read_text().splitlines()
    assert lines == ["index,lambda"]


def test_cmd_oracle_scan_output(tmp_path):
    text = (
        SCHEMA_HEADER
        + f"\ngeometry.intervals = 0 {TWO_PI!r}"
        + "\nboundary.kind = dirichlet"
        + "\nresolution = 10"
        + "\noracle.lambda_min = 0.1"
        + "\noracle.lambda_max = 1.3"
        + "\noracle.grid_points = 300"
        + "\noracle.scan_output = true\n"
    )
    cfg_path = _write(tmp_path, text)
    out = tmp_path / "out"
    assert main(["oracle", "--config", str(cfg_path), "--out", str(out)]) == 0
    lines = (out / "scan.csv").read_text().splitlines()
    assert lines[0] == "lambda,abs_Lambda,re_Lambda,im_Lambda"
    assert len(lines) == 301


@pytest.mark.parametrize("keys", [
    pytest.param("oracle.lambda_min = 2\noracle.lambda_max = 1", id="min-above-max"),
    pytest.param("oracle.lambda_min = 1\noracle.lambda_max = 1", id="min-equals-max"),
    "oracle.lambda_min = nan",
    "oracle.lambda_max = inf",
    "oracle.grid_points = -4",
])
def test_cmd_oracle_rejects_bad_range(tmp_path, capsys, keys):
    text = (
        SCHEMA_HEADER
        + f"\ngeometry.intervals = 0 {TWO_PI!r}"
        + "\nboundary.kind = dirichlet"
        + "\nresolution = 10\n"
        + keys + "\n"
    )
    cfg_path = _write(tmp_path, text)
    out = tmp_path / "out"
    assert main(["oracle", "--config", str(cfg_path), "--out", str(out)]) == EXIT_CONFIG
    assert "configuration error" in capsys.readouterr().err
    assert not (out / "roots.csv").exists()


def test_cmd_oracle_overflow_is_solver_failure(tmp_path, capsys):
    # the closed-form and the integrated traces overflow far below the
    # potential
    text = (
        SCHEMA_HEADER
        + f"\ngeometry.intervals = 0 {math.pi!r}"
        + "\nboundary.kind = dirichlet"
        + "\nresolution = 10"
        + "\noracle.lambda_min = -100000"
        + "\noracle.lambda_max = -90000\n"
    )
    sampled = ("potential.kind = sampled\npotential.samples_x = 0 1 2 4"
               "\npotential.samples_v = 0 1 0.5 2\n")
    for name, body in (("closed", text), ("sampled", text + sampled)):
        cfg_path = _write(tmp_path, body, f"{name}.cfg")
        out = tmp_path / name
        assert main(["oracle", "--config", str(cfg_path), "--out", str(out)]) == EXIT_SOLVER
        assert "overflow" in capsys.readouterr().err
        assert not (out / "roots.csv").exists()


def _oracle_config(tmp_path, lo, hi, grid, extra=""):
    text = (
        SCHEMA_HEADER
        + f"\ngeometry.intervals = 0 {math.pi!r}"
        + "\nboundary.kind = dirichlet"
        + "\nresolution = 10"
        + f"\noracle.lambda_min = {lo!r}"
        + f"\noracle.lambda_max = {hi!r}"
        + f"\noracle.grid_points = {grid}\n"
        + extra
    )
    return _write(tmp_path, text)


def test_cmd_oracle_scan_overflow_names_first_lambda(tmp_path, capsys):
    # the 17-point table of the benchmark's sampled oracle, a scan down to
    # lambda = -1e5: the batch of grid traces overflows at its lowest lambda
    rng = np.random.default_rng(0)
    table = ("potential.kind = sampled\npotential.samples_x = "
             + " ".join(repr(float(x)) for x in np.linspace(0.0, math.pi, 17))
             + "\npotential.samples_v = "
             + " ".join(repr(float(v)) for v in rng.uniform(0.0, 2.0, 17)) + "\n")
    cfg_path = _oracle_config(tmp_path, -1e5, 10.0, 64, table)
    out = tmp_path / "out"
    assert main(["oracle", "--config", str(cfg_path), "--out", str(out)]) == EXIT_SOLVER
    s = -math.sqrt(1e5)
    assert f"overflow float64 at lambda = {-(s * s)!r}" in capsys.readouterr().err
    assert not (out / "roots.csv").exists()


@pytest.mark.parametrize("case, code, message", [
    ("nan-node", EXIT_CONFIG, "not finite"),
    ("did-not-reach", EXIT_SOLVER, "did not reach"),
])
def test_cmd_oracle_batch_failures_keep_exit_codes(tmp_path, capsys, monkeypatch,
                                                  case, code, message):
    # a callable V with one NaN among the nodes of a batch, and one whose
    # jump keeps the step halving from converging under a patched cap
    from saext import cli, spectral
    from saext.potentials import CallablePotential

    def one_nan(x):
        v = np.ones_like(x)
        v[x.size // 3] = np.nan
        return v

    def jump(x):
        return np.where(x > 1.0 / 3.0, 50.0, 0.0)

    def with_callable(cfg):
        geom, bc, _ = build_problem(cfg)
        return geom, bc, CallablePotential(one_nan if case == "nan-node" else jump)

    monkeypatch.setattr(cli, "build_problem", with_callable)
    monkeypatch.setattr(spectral, "_MAX_ODE_STEPS", 4096)
    cfg_path = _oracle_config(tmp_path, 0.5, 60.0, 16)
    out = tmp_path / "out"
    assert main(["oracle", "--config", str(cfg_path), "--out", str(out)]) == code
    assert message in capsys.readouterr().err
    assert not (out / "roots.csv").exists()


# --------------------------------------------------------------- convergence

def test_cmd_convergence_small(tmp_path):
    text = (
        SCHEMA_HEADER
        + f"\ngeometry.intervals = 0 {TWO_PI!r}"
        + "\nboundary.kind = dirichlet"
        + "\nresolution = 40"
        + "\nconvergence.resolutions = 40 80 160\n"
    )
    cfg_path = _write(tmp_path, text)
    out = tmp_path / "out"
    assert main(["convergence", "--config", str(cfg_path), "--out", str(out)]) == 0
    lines = (out / "convergence.csv").read_text().splitlines()
    assert lines[0] == "N,h1_error"
    slope_line = [l for l in lines if l.startswith("slope,")]
    assert slope_line
    slope = float(slope_line[0].split(",")[1])
    assert slope == pytest.approx(-1.0, abs=0.1)


def test_cmd_convergence_constant_potential(tmp_path):
    # a constant V shifts the levels and leaves the Dirichlet sine the
    # ground state, so the study still measures the FEM's H1 rate
    text = (
        SCHEMA_HEADER
        + f"\ngeometry.intervals = 0 {TWO_PI!r}"
        + "\nboundary.kind = dirichlet"
        + "\npotential.kind = constant"
        + "\npotential.values = 1.5"
        + "\nresolution = 40"
        + "\nconvergence.resolutions = 40 80 160\n"
    )
    out = tmp_path / "out"
    assert main(["convergence", "--config", str(_write(tmp_path, text)),
                 "--out", str(out)]) == EXIT_OK
    [slope] = [line for line in (out / "convergence.csv").read_text().splitlines()
               if line.startswith("slope,")]
    assert float(slope.split(",")[1]) == pytest.approx(-1.0, abs=0.1)


def test_cmd_convergence_single_point(tmp_path):
    text = (
        SCHEMA_HEADER
        + f"\ngeometry.intervals = 0 {TWO_PI!r}"
        + "\nboundary.kind = dirichlet"
        + "\nresolution = 40"
        + "\nconvergence.resolutions = 40\n"
    )
    cfg_path = _write(tmp_path, text)
    out = tmp_path / "out"
    assert main(["convergence", "--config", str(cfg_path), "--out", str(out)]) == 0
    lines = (out / "convergence.csv").read_text().splitlines()
    assert "fit_status,insufficient-data" in lines


def test_cmd_convergence_two_points_stderr_is_nan(tmp_path):
    # no residual degree of freedom: the standard error is undefined
    cfg_path = _write(tmp_path, DIRICHLET_CONFIG + "convergence.resolutions = 50 100\n")
    out = tmp_path / "out"
    assert main(["convergence", "--config", str(cfg_path), "--out", str(out)]) == 0
    lines = (out / "convergence.csv").read_text().splitlines()
    assert len(lines) == 5
    assert lines[3].startswith("slope,")
    assert lines[4] == "slope_stderr,nan"


def test_fit_loglog_recovers_exact_power_law():
    ns = np.array([50, 100, 200, 400, 800])
    slope, stderr = _fit_loglog(ns, 3.0 / ns)
    assert slope == pytest.approx(-1.0, rel=1e-13)
    assert stderr < 1e-13


@pytest.mark.parametrize("ns", [[40, 80, 160], [30, 50, 90, 200],
                                [25, 50, 100, 200, 400]])
def test_fit_loglog_matches_textbook_formulas(ns):
    m = len(ns)
    noise = np.exp(np.random.default_rng(m).normal(0.0, 0.05, m))
    errors = 2.0 * np.asarray(ns, dtype=float) ** -1.1 * noise
    x, y = np.log(np.asarray(ns, dtype=float)), np.log(errors)
    x_mean, y_mean = math.fsum(x) / m, math.fsum(y) / m
    sxx = math.fsum((x - x_mean) ** 2)
    slope = math.fsum((x - x_mean) * (y - y_mean)) / sxx
    resid = y - (y_mean + slope * (x - x_mean))
    stderr = math.sqrt(math.fsum(resid ** 2) / (m - 2) / sxx)
    fit = _fit_loglog(ns, errors)
    assert fit[0] == pytest.approx(slope, rel=1e-12)
    assert fit[1] == pytest.approx(stderr, rel=1e-12)


def test_cmd_convergence_wrong_bc(tmp_path):
    text = (
        SCHEMA_HEADER
        + f"\ngeometry.intervals = 0 {TWO_PI!r}"
        + "\nboundary.kind = neumann"
        + "\nresolution = 40\n"
    )
    cfg_path = _write(tmp_path, text)
    code = main(["convergence", "--config", str(cfg_path),
                 "--out", str(tmp_path / "o")])
    assert code == EXIT_CONFIG


# ----------------------------------------------------------------- stability

def test_nearest_unitary_polar():
    rng = np.random.default_rng(0)
    base = np.array([[0, 1], [1, 0]], dtype=complex)
    eps = 1e-3
    perturbed = base + 1j * eps * np.array([[0, 1], [-1, 0]])
    [u], [distance] = nearest_unitary(perturbed[None])
    assert np.linalg.norm(u.conj().T @ u - np.eye(2)) <= 1e-14
    # the polar factor of this family is exactly quasi-periodic at atan(eps)
    theta = math.atan(eps)
    expect = np.array([[0, np.exp(1j * theta)], [np.exp(-1j * theta), 0]])
    assert np.max(np.abs(u - expect)) <= 1e-14
    assert distance == pytest.approx(
        np.linalg.norm(perturbed - expect), rel=1e-10
    )


def _stability_config(mode="linear"):
    return (
        SCHEMA_HEADER
        + f"\ngeometry.intervals = 0 {TWO_PI!r}"
        + "\nboundary.kind = quasi_periodic"
        + "\nboundary.theta = 0"
        + "\nresolution = 60"
        + "\nstability.eps_start = 0.0001"
        + "\nstability.eps_stop = 0.0004"
        + "\nstability.eps_step = 0.0001"
        + f"\nstability.mode = {mode}"
        + "\nstability.levels = 2\n"
    )


def test_cmd_stability_small(tmp_path):
    cfg_path = _write(tmp_path, _stability_config())
    out = tmp_path / "out"
    assert main(["stability", "--config", str(cfg_path), "--out", str(out)]) == 0
    lines = (out / "stability.csv").read_text().splitlines()
    assert lines[0] == "record,epsilon,level,value"
    krows = [l for l in lines if l.startswith("K,")]
    assert len(krows) == 4 * 2  # 4 epsilons, 2 levels
    assert any(l.startswith("unitarization_distance,") for l in lines)
    # fits need >= 4 points per level
    assert any(l.startswith("fit_b,") for l in lines)


@pytest.mark.parametrize("argv, echoed, k_rows", [
    (["stability", "--levels", "1"], "stability.levels = 1", 4),
    (["stability", "--levels", "3"], "stability.levels = 3", 12),
    (["solve", "--mu", "0.5"], "mu = 0.5", 0),
], ids=["stability-levels-1", "stability-levels-3", "solve-mu"])
def test_command_line_overrides_are_echoed(tmp_path, argv, echoed, k_rows):
    # the configuration file says stability.levels = 2 and leaves mu at 1
    cfg_path = _write(tmp_path, _stability_config())
    out = tmp_path / "out"
    assert main(argv + ["--config", str(cfg_path), "--out", str(out)]) == EXIT_OK
    assert echoed in (out / "resolved_config.txt").read_text().splitlines()
    if argv[0] == "stability":
        lines = (out / "stability.csv").read_text().splitlines()
        assert sum(l.startswith("K,") for l in lines) == k_rows


@pytest.mark.parametrize("first, second", [
    (["solve", "--mu", "0.5"], ["solve"]),
    (["solve", "--levels", "2"], ["stability"]),
], ids=["mu-then-no-mu", "solve-levels-then-stability"])
def test_second_call_keeps_nothing_of_the_first(tmp_path, first, second):
    # main parses with one parser per process: the first call's options
    # reach neither the second call's run nor its echo
    text = _stability_config()
    cfg_path = _write(tmp_path, text)
    outs = [tmp_path / "first", tmp_path / "second"]
    for argv, out in zip((first, second), outs):
        assert main(argv + ["--config", str(cfg_path), "--out", str(out)]) == EXIT_OK
    assert ((outs[0] / "resolved_config.txt").read_text()
            != render_config(parse_config(text))) == (first[1] == "--mu")
    assert (outs[1] / "resolved_config.txt").read_text() == render_config(
        parse_config(text))
    if second[0] == "stability":
        lines = (outs[1] / "stability.csv").read_text().splitlines()
        assert sum(l.startswith("K,") for l in lines) == 4 * 2


def test_stability_nearest_matching_equals_index_matching_on_ring(tmp_path):
    # the periodic ring's clusters are ordered pairs that move by far less
    # than their spacing, so both matchings pick the same partners
    ring = (
        SCHEMA_HEADER
        + f"\ngeometry.intervals = 0 {TWO_PI!r}"
        + "\nboundary.kind = quasi_periodic"
        + "\nresolution = 40"
        + "\nstability.eps_start = 1e-4"
        + "\nstability.eps_stop = 3e-4"
        + "\nstability.eps_step = 1e-4"
        + "\nstability.levels = 3"
    )
    outputs = []
    for matching in ("index", "nearest"):
        cfg_path = _write(tmp_path, ring + f"\nstability.matching = {matching}\n",
                          f"{matching}.cfg")
        out = tmp_path / matching
        assert main(["stability", "--config", str(cfg_path), "--out", str(out)]) == 0
        outputs.append((out / "stability.csv").read_bytes())
    assert outputs[0] == outputs[1]
    assert outputs[0].count(b"\r\nK,") == 3 * 3


def test_stability_modes_agree_to_first_order(tmp_path):
    out_lin, out_geo = tmp_path / "lin", tmp_path / "geo"
    cfg_lin = _write(tmp_path, _stability_config("linear"), "lin.cfg")
    cfg_geo = _write(tmp_path, _stability_config("geodesic"), "geo.cfg")
    assert main(["stability", "--config", str(cfg_lin), "--out", str(out_lin)]) == 0
    assert main(["stability", "--config", str(cfg_geo), "--out", str(out_geo)]) == 0

    def k_values(path):
        rows = {}
        for line in (path / "stability.csv").read_text().splitlines():
            if line.startswith("K,"):
                _, eps, lev, val = line.split(",")
                rows[(float(eps), int(lev))] = float(val)
        return rows

    lin = k_values(out_lin)
    geo = k_values(out_geo)
    assert lin.keys() == geo.keys()
    for key, v_lin in lin.items():
        # atan(eps) vs eps: identical to first order in eps
        assert v_lin == pytest.approx(geo[key], rel=1e-4, abs=1e-4)


def test_stability_requires_periodic_base(tmp_path):
    text = (
        SCHEMA_HEADER
        + f"\ngeometry.intervals = 0 {TWO_PI!r}"
        + "\nboundary.kind = dirichlet"
        + "\nresolution = 50\n"
    )
    cfg_path = _write(tmp_path, text)
    code = main(["stability", "--config", str(cfg_path),
                 "--out", str(tmp_path / "o")])
    assert code == EXIT_CONFIG


# ----------------------------------------------------------------- condition

def test_cmd_condition(tmp_path, capsys):
    cfg_path = _write(tmp_path, DIRICHLET_CONFIG)
    out = tmp_path / "out"
    assert main(["condition", "--config", str(cfg_path), "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "kappa_estimate = 1" in printed
    lines = (out / "condition.csv").read_text().splitlines()
    assert lines[0] == "kappa_estimate,bound,spectrum_gap,incompatible"
    fields = lines[1].split(",")
    assert float(fields[0]) == pytest.approx(1.0)
    assert fields[3] == "false"


def _convergence_config():
    return (
        SCHEMA_HEADER
        + f"\ngeometry.intervals = 0 {TWO_PI!r}"
        + "\nboundary.kind = dirichlet"
        + "\nresolution = 40"
        + "\nconvergence.resolutions = 40 80 160\n"
    )


@pytest.mark.parametrize("command", ["stability", "convergence", "condition"])
def test_text_tables_match_csv_writer(tmp_path, monkeypatch, command):
    # record the table each command hands to _write_table and write it again
    # row by row with csv.writer, float cells as the CLI formatted them
    # before they went through _write_table
    from saext import cli

    config = {"stability": _stability_config(),
              "convergence": _convergence_config(),
              "condition": DIRICHLET_CONFIG}[command]

    tables = []

    def recording(path, header, columns):
        columns = [list(col) for col in columns]
        tables.append((path, header, columns))
        write_table(path, header, columns)

    write_table = cli._write_table
    monkeypatch.setattr(cli, "_write_table", recording)
    cfg_path = _write(tmp_path, config)
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg_path), "--out", str(out)]) == EXIT_OK
    [(path, header, columns)] = tables
    assert path == out / f"{command}.csv"
    rows = [[cell if isinstance(cell, str) else "%.17g" % cell for cell in row]
            for row in zip(*columns)]
    write_text_csv_reference(tmp_path / "ref.csv", header, rows)
    assert path.read_bytes() == (tmp_path / "ref.csv").read_bytes()


def _run_cli_process(argv, threads: str) -> None:
    """Run the CLI in a fresh interpreter with OpenBLAS at ``threads``
    threads (OpenBLAS reads its thread count once, at load time)."""
    src = str(Path(saext.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=src)
    code = "import sys; from saext.cli import main; sys.exit(main(sys.argv[1:]))"
    subprocess.run([sys.executable, "-c", code, *argv], env=env, check=True,
                   timeout=300)


def test_threads_env_does_not_change_output(tmp_path):
    # the real path rounds the same at one and at two BLAS threads, and the
    # sparse and warm paths run on one BLAS thread whatever the caller's
    # count, so the outputs of real and complex pencils are byte-identical
    convergence = _write(tmp_path, DIRICHLET_CONFIG.replace(
        "resolution = 120", "resolution = 40\nconvergence.resolutions = 40 60 80 100"))
    ring = _write(tmp_path, RING_CONFIG, "ring.cfg")
    # criterion 10's ring and base solve: its symmetric U makes the pencil real
    criterion_10 = f"""\
{SCHEMA_HEADER}
geometry.intervals = 0 {TWO_PI!r}
boundary.kind = quasi_periodic
boundary.theta = 0
resolution = 250
"""
    ring_250 = _write(tmp_path, criterion_10 + "eigen.count = 9\n", "ring-250.cfg")
    # criterion 10's sweep: 100 complex pencils on the warm path
    stability = _write(tmp_path, criterion_10, "stability.cfg")
    # a random U on two intervals: a complex pencil on the cold sparse path
    u = random_unitary(4, np.random.default_rng(2011))
    entries = " ".join(f"{float(z.real)!r},{float(z.imag)!r}" for z in u.ravel())
    random_u = _write(tmp_path, f"""\
{SCHEMA_HEADER}
geometry.intervals = 0 1 2 3.5
boundary.kind = matrix
boundary.matrix = {entries}
resolution = 400
eigen.count = 8
""", "random-u.cfg")
    # the oracle on a seeded 2x2 U and a 17-knot table: Magnus traces whose
    # step counts share one stacked pairwise reduction, and the scan record
    rng = np.random.default_rng(17)
    u = random_unitary(2, rng)
    entries = " ".join(f"{float(z.real)!r},{float(z.imag)!r}" for z in u.ravel())
    xs = " ".join(repr(float(x)) for x in np.linspace(0.0, math.pi, 17))
    vs = " ".join(repr(float(v)) for v in rng.uniform(0.0, 2.0, 17))
    oracle = _write(tmp_path, f"""\
{SCHEMA_HEADER}
geometry.intervals = 0 {math.pi!r}
boundary.kind = matrix
boundary.matrix = {entries}
potential.kind = sampled
potential.samples_x = {xs}
potential.samples_v = {vs}
oracle.lambda_min = 0.5
oracle.lambda_max = 40
oracle.grid_points = 64
oracle.scan_output = true
""", "oracle.cfg")
    outputs = {}
    for threads in ("1", "2"):
        out = tmp_path / f"threads-{threads}"
        _run_cli_process(["convergence", "--config", str(convergence),
                          "--out", str(out / "convergence")], threads)
        for name, cfg in (("ring", ring), ("ring-250", ring_250)):
            _run_cli_process(["solve", "--levels", "8", "--config", str(cfg),
                              "--out", str(out / name)], threads)
        _run_cli_process(["stability", "--config", str(stability),
                          "--out", str(out / "stability")], threads)
        _run_cli_process(["solve", "--levels", "4", "--dump-pencil", "--config",
                          str(random_u), "--out", str(out / "random-u")], threads)
        _run_cli_process(["oracle", "--config", str(oracle),
                          "--out", str(out / "oracle")], threads)
        outputs[threads] = {path.relative_to(out): path.read_bytes()
                            for path in sorted(out.rglob("*.csv"))}
    # convergence; per ring a spectrum and 8 eigenfunctions; stability; and
    # for the random U a spectrum, 4 eigenfunctions and the two matrices;
    # for the oracle its roots and scan
    assert len(outputs["1"]) == 29
    assert outputs["1"][Path("oracle", "roots.csv")].count(b"\n") > 5
    assert outputs["1"] == outputs["2"]


def test_python_m_runs_the_cli(tmp_path):
    # ``python -m saext.cli`` runs the same entry point as the saext script
    good = _write(tmp_path, DIRICHLET_CONFIG)
    bad = _write(tmp_path, DIRICHLET_CONFIG.replace("eigen.count = 5", "eigen.count = -1"),
                 "bad.cfg")
    env = dict(os.environ, PYTHONPATH=str(Path(saext.__file__).resolve().parents[1]))

    def run(cfg, out):
        return subprocess.run([sys.executable, "-m", "saext.cli", "solve", "--config",
                               str(cfg), "--out", str(tmp_path / out)],
                              env=env, capture_output=True, text=True, timeout=300)

    ok = run(good, "D")
    assert ok.returncode == EXIT_OK, ok.stderr
    assert (tmp_path / "D" / "spectrum.csv").is_file()
    failed = run(bad, "E")
    assert failed.returncode == EXIT_CONFIG
    assert "eigen.count must be >= 0" in failed.stderr
    assert not (tmp_path / "E").exists()


@pytest.mark.parametrize("command", ["solve", "oracle"])
def test_cmd_rejects_nan_mass_factor(tmp_path, command):
    cfg_path = _write(tmp_path, DIRICHLET_CONFIG)
    code = main([command, "--config", str(cfg_path), "--out",
                 str(tmp_path / "o"), "--mu", "nan"])
    assert code == EXIT_CONFIG
