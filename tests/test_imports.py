"""Which scipy subpackages a fresh process loads.

saext imports only the top-level ``scipy`` package; scipy loads
``scipy.linalg`` and ``scipy.sparse`` on the first attribute access, which
only the FEM paths make.  So the oracle starts without them, and each FEM
path must work in a process that has loaded nothing but ``import saext``.
Every check runs in a fresh interpreter, since the test process has loaded
everything already.
"""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import saext
from saext.boundary import random_unitary
from saext.config import SCHEMA_HEADER

SRC = str(Path(saext.__file__).resolve().parents[1])
FEM_SUBPACKAGES = ("scipy.linalg", "scipy.sparse", "scipy.sparse.linalg")

# prints which of FEM_SUBPACKAGES are loaded, as a JSON list
_LOADED = ("print(json.dumps([m for m in %r if m in sys.modules]))"
           % (FEM_SUBPACKAGES,))


def _python(*args, cwd=None):
    """Run the interpreter on ``args`` with this checkout's saext."""
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run([sys.executable, *args], env=env, cwd=cwd,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return done


def _probe(code: str) -> list:
    """Run ``import saext`` and ``code`` in a fresh interpreter; the
    FEM_SUBPACKAGES loaded at its end."""
    done = _python("-c", "import json, sys\nimport saext\n" + code + "\n" + _LOADED)
    return json.loads(done.stdout.splitlines()[-1])


def _sampled_oracle_config(tmp_path) -> Path:
    # a sampled V and a seeded 2x2 U, as in the oracle-sampled benchmark
    u = random_unitary(2, np.random.default_rng(7))
    entries = " ".join(f"{float(z.real)!r},{float(z.imag)!r}" for z in u.ravel())
    path = tmp_path / "oracle.cfg"
    path.write_text(f"""\
{SCHEMA_HEADER}
geometry.intervals = 0 {math.pi!r}
boundary.kind = matrix
boundary.matrix = {entries}
potential.kind = sampled
potential.samples_x = 0 1 2 {math.pi!r}
potential.samples_v = 0 20 -5 10
oracle.lambda_min = -10
oracle.lambda_max = 40
oracle.grid_points = 200
""")
    return path


def test_cli_oracle_loads_no_fem_subpackage(tmp_path):
    # -X importtime lists every module the process imports, at any time
    out = tmp_path / "out"
    done = _python("-X", "importtime", "-m", "saext.cli", "oracle", "--config",
                   str(_sampled_oracle_config(tmp_path)), "--out", str(out))
    assert (out / "roots.csv").read_text().count("\n") > 1
    imported = {line.rsplit("|", 1)[1].strip() for line in done.stderr.splitlines()
                if line.startswith("import time:")}
    assert "scipy" in imported and "numpy" in imported
    assert not [m for m in imported
                if m.startswith(("scipy.linalg", "scipy.sparse"))]


def test_find_spectrum_loads_no_fem_subpackage():
    loaded = _probe("""\
roots = saext.find_spectrum(
    saext.BoundaryCondition.dirichlet(1),
    saext.SampledPotential([0.0, 1.0, 2.0, 3.141592653589793], [0.0, 20.0, -5.0, 10.0]),
    saext.IntervalSet([(0.0, 3.141592653589793)]), (-10.0, 40.0), grid_points=200)
assert len(roots) >= 3, roots""")
    assert loaded == []


_RING = """\
geom = saext.IntervalSet([(0.0, 6.283185307179586)])
bc = saext.BoundaryCondition.quasi_periodic(0.0)
mesh, _, values = saext.retry_mesh_on_bad_conditioning(bc, geom, %d)
pencil = saext.assemble_pencil(mesh, bc, values, saext.ZeroPotential())
"""


def test_cold_sparse_solve_after_import_saext():
    # the ARPACK path: N = 400, the lowest 8 levels 0, 1, 1, 4, 4, 9, 9, 16
    loaded = _probe(_RING % 400 + """\
w = saext.solve_pencil(pencil, count=8).eigenvalues
assert abs(w[0]) < 1e-8, w
assert max(abs(w[1:] / [1, 1, 4, 4, 9, 9, 16] - 1)) < 1e-3, w""")
    assert loaded == list(FEM_SUBPACKAGES)


def test_cold_dense_solve_after_import_saext():
    loaded = _probe(_RING % 30 + """\
solution = saext.solve_pencil(pencil)
assert solution.count == pencil.dim, solution.count
assert abs(solution.eigenvalues[0]) < 1e-8, solution.eigenvalues[:3]""")
    assert "scipy.linalg" in loaded


def test_cold_cli_solve(tmp_path):
    cfg = tmp_path / "dirichlet.cfg"
    cfg.write_text(f"{SCHEMA_HEADER}\ngeometry.intervals = 0 {math.pi!r}\n"
                   "boundary.kind = dirichlet\nresolution = 120\neigen.count = 5\n")
    out = tmp_path / "out"
    _python("-m", "saext.cli", "solve", "--levels", "1", "--config", str(cfg),
            "--out", str(out))
    rows = (out / "spectrum.csv").read_text().splitlines()
    assert len(rows) == 6 and abs(float(rows[1].split(",")[1]) - 1.0) < 1e-3
    assert (out / "eigenfunction_0.csv").is_file()


def test_openblas_lookup_sees_scipys_library():
    # the one-time lookup of the OpenBLAS thread controls must find scipy's
    # library even when it runs before anything has loaded scipy.linalg
    done = _python("-c", """\
import saext
from saext import eigen
first = len(eigen._openblas_libraries())
import scipy.linalg, scipy.sparse.linalg
eigen._openblas_libraries.cache_clear()
print(first, len(eigen._openblas_libraries()))""")
    first, after = map(int, done.stdout.split())
    if after == 0:
        pytest.skip("no OpenBLAS thread control in this process")
    assert first == after
