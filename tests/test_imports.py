"""Which modules a fresh process loads.

``import saext`` loads numpy and the oracle's modules only: the FEM side
(``saext.fem``, ``saext.eigen`` and scipy) loads on the first FEM command
or on the first access to one of its names, through PEP 562 module
``__getattr__`` in ``saext`` and ``saext.cli``.  So the oracle runs
without it, each FEM path must work in a process that has loaded nothing
but ``import saext``, and a name of ``saext.cli`` replaced before the FEM
side loads stays replaced.  Every check runs in a fresh interpreter, since
the test process has loaded everything already.
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
# the modules a cold sparse solve loads
FEM_MODULES = ("saext.eigen", "saext.fem", "scipy.linalg", "scipy.sparse",
               "scipy.sparse.linalg")
# the package's modules an oracle run loads, the package itself included
ORACLE_MODULES = ["saext", "saext.boundary", "saext.cli", "saext.config",
                  "saext.geometry", "saext.potentials", "saext.spectral"]


def _fem_side(modules) -> list:
    """The modules of the FEM side among ``modules``, sorted: saext.eigen,
    saext.fem, scipy and every scipy.* module."""
    return sorted(m for m in modules if m in ("saext.eigen", "saext.fem", "scipy")
                  or m.startswith("scipy."))


# prints every loaded module, as a JSON list
_LOADED = "print(json.dumps(list(sys.modules)))"


def _python(*args, cwd=None):
    """Run the interpreter on ``args`` with this checkout's saext."""
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run([sys.executable, *args], env=env, cwd=cwd,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return done


def _probe(code: str) -> list:
    """Run ``import saext`` and ``code`` in a fresh interpreter; the
    FEM-side modules loaded at its end."""
    done = _python("-c", "import json, sys\nimport saext\n" + code + "\n" + _LOADED)
    return _fem_side(json.loads(done.stdout.splitlines()[-1]))


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
    # -X importtime lists every module the process imports, at any time;
    # the command runs as the console entry point runs it
    out = tmp_path / "out"
    done = _python("-X", "importtime", "-c",
                   "import sys, saext.cli; sys.exit(saext.cli.main(sys.argv[1:]))",
                   "oracle", "--config", str(_sampled_oracle_config(tmp_path)),
                   "--out", str(out))
    assert (out / "roots.csv").read_text().count("\n") > 1
    imported = {line.rsplit("|", 1)[1].strip() for line in done.stderr.splitlines()
                if line.startswith("import time:")}
    assert "numpy" in imported
    assert _fem_side(imported) == []
    assert sorted(m for m in imported if m.split(".")[0] == "saext") == ORACLE_MODULES


def test_find_spectrum_loads_no_fem_subpackage():
    loaded = _probe("""\
roots = saext.find_spectrum(
    saext.BoundaryCondition.dirichlet(1),
    saext.SampledPotential([0.0, 1.0, 2.0, 3.141592653589793], [0.0, 20.0, -5.0, 10.0]),
    saext.IntervalSet([(0.0, 3.141592653589793)]), (-10.0, 40.0), grid_points=200)
assert len(roots) >= 3, roots""")
    assert loaded == []


def test_star_import_gives_every_public_name():
    # from-import reads each name of __all__, the FEM ones through the
    # package's __getattr__; each FEM error class is one object everywhere
    done = _python("-c", """\
from saext import *
import saext
from saext import boundary, eigen, fem
missing = [name for name in saext.__all__ if name not in globals()]
assert not missing, missing
assert EigenSolveError is eigen.EigenSolveError is boundary.EigenSolveError
assert PositiveDefinitenessError is eigen.PositiveDefinitenessError
assert AssemblyError is fem.AssemblyError is boundary.AssemblyError
assert solve_pencil is eigen.solve_pencil and Pencil is fem.Pencil
assert set(saext.__all__) <= set(dir(saext))
print(len(saext.__all__))""")
    assert done.stdout.split() == ["37"]


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
    assert set(FEM_MODULES) <= set(loaded)


def test_cold_dense_solve_after_import_saext():
    loaded = _probe(_RING % 30 + """\
solution = saext.solve_pencil(pencil)
assert solution.count == pencil.dim, solution.count
assert abs(solution.eigenvalues[0]) < 1e-8, solution.eigenvalues[:3]""")
    assert "scipy.linalg" in loaded


def _dirichlet_config(tmp_path) -> Path:
    cfg = tmp_path / "dirichlet.cfg"
    cfg.write_text(f"{SCHEMA_HEADER}\ngeometry.intervals = 0 {math.pi!r}\n"
                   "boundary.kind = dirichlet\nresolution = 120\neigen.count = 5\n")
    return cfg


def test_cold_cli_solve(tmp_path):
    out = tmp_path / "out"
    _python("-m", "saext.cli", "solve", "--levels", "1", "--config",
            str(_dirichlet_config(tmp_path)), "--out", str(out))
    rows = (out / "spectrum.csv").read_text().splitlines()
    assert len(rows) == 6 and abs(float(rows[1].split(",")[1]) - 1.0) < 1e-3
    assert (out / "eigenfunction_0.csv").is_file()


def test_cli_name_replaced_before_the_fem_side_loads_is_kept(tmp_path):
    # a plain setattr on saext.cli, made before anything loaded saext.eigen,
    # is the solve_pencil that `saext solve` calls: loading the FEM side
    # binds only the names that are not yet set
    done = _python("-c", f"""\
import sys
import saext.cli
assert "saext.eigen" not in sys.modules
calls = []

def recording(pencil, count=None):
    from saext.eigen import solve_pencil
    calls.append(count)
    return solve_pencil(pencil, count=count)

saext.cli.solve_pencil = recording
code = saext.cli.main(["solve", "--config", {str(_dirichlet_config(tmp_path))!r},
                       "--out", {str(tmp_path / "out")!r}])
assert code == 0, code
assert saext.cli.solve_pencil is recording
assert saext.cli.assemble_pencil is sys.modules["saext.fem"].assemble_pencil
print(calls)""")
    assert done.stdout.split() == ["[5]"]


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
