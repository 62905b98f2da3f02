"""The benchmark's workloads: seeded inputs, FEM references and output checks.

Every random input (boundary unitaries, potential tables and values) is
drawn from the run's seed; saext itself only receives the config files
written here.  ``fem-ring`` and ``stability-sweep`` have fixed inputs
because their checks are analytic.  The oracle workloads are checked
against an FEM solve of the same problem, computed once per run, outside
every timed region.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path

import numpy as np
import saext
from saext.config import build_problem, parse_config

# Names are final: later changes cite them.  BENCHMARK.json lists all but
# oracle-multi, whose run-to-run spread on a shared 2-core host came close
# to the largest bound allowed (see README.md); it still runs by name and
# with --workload all.
WORKLOADS = {
    "fem-ring": (
        "one large dense solve (periodic ring, N=2000, 8 levels): eigensolve "
        "~75-87%, assembly ~10%; the dense pencil sets peak memory; periodic "
        "doubles are the hard case for iterative solvers"),
    "stability-sweep": (
        "criterion-10 sweep: 101 small solves (N=250) on one mesh, another U "
        "each: assembly ~35%, eigensolve ~55%, boundary ~2%; reusing the "
        "U-independent bulk block would show here"),
    "oracle-multi": (
        "closed-form oracle, 3 intervals, seeded 6x6 U, range (-1, 100): 22000 "
        "scan points, ~500 refinement evaluations, ~15 roots; spectral matrix "
        "and determinant dominate, no RK4"),
    "oracle-sampled": (
        "RK4 oracle, seeded sampled potential and 2x2 U, 8 grid points around "
        "one FEM level: ~52 trace evaluations, ~44 in golden-section "
        "refinement; RK4 traces are ~99% of the job"),
}

# Workloads whose job times are rescaled to a reference core speed (see
# worker.calibrate): the oracles, whose time is spent in the interpreter on
# the main thread, where the calibration probe samples the core's speed.
# The FEM workloads spend theirs in LAPACK on two threads, which the probe
# cannot sample and which a busy host slows less (about 1.4x against 1.8x).
RESCALED = ("oracle-multi", "oracle-sampled")

SCHEMA_HEADER = "saext-config v1"
TWO_PI = 2.0 * math.pi

RING_LEVELS = (0.0, 1.0, 1.0, 4.0, 4.0, 9.0, 9.0, 16.0)
LEVEL_RTOL = 1e-3
# Criterion 10 of the acceptance suite: exponents within 0.15, strictly ordered.
STABILITY_EXPONENTS = (-0.89, -0.42, -0.03, 0.28)
STABILITY_ATOL = 0.15
# Criterion 6's rule: oracle roots within 1e-3 relative of the FEM levels.
ROOT_RTOL = 1e-3
# FEM levels this close (relative) to a range end may fall on either side of
# it, so the oracle may or may not report them.
EDGE_RTOL = 1e-2
# Far more FEM levels than either oracle range holds.
REFERENCE_COUNT = 48

MULTI_INTERVALS = (0.0, 1.0, 2.0, 3.5, 4.0, 6.0)
MULTI_RANGE = (-1.0, 100.0)
SAMPLED_LENGTH = math.pi
SAMPLED_TABLE_POINTS = 17
SAMPLED_GRID_POINTS = 8
# The sampled-oracle range is s_c * (1 -+ SAMPLED_WINDOW) in
# s = sign(lambda) sqrt(|lambda|) around one FEM level s_c**2 >= 2 (see
# _sampled_range); a fixed relative width keeps the golden-section
# iteration count, and so the work, nearly the same for every seed.
SAMPLED_WINDOW = 0.03
SAMPLED_MIN_LEVEL = 2.0


def _reals(values) -> str:
    return " ".join(repr(float(v)) for v in values)


def _complexes(matrix) -> str:
    return " ".join(f"{float(z.real)!r},{float(z.imag)!r}"
                    for z in np.asarray(matrix).ravel())


def _config(keys: dict) -> str:
    lines = [SCHEMA_HEADER] + [f"{k} = {v}" for k, v in keys.items()]
    return "\n".join(lines) + "\n"


def _rng(name: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([seed % 2**63, list(WORKLOADS).index(name)])


def fem_levels(text: str, resolution: int, count: int) -> np.ndarray:
    """Lowest ``count`` FEM eigenvalues of the problem a config describes."""
    cfg = parse_config(text)
    geom, bc, potential = build_problem(cfg)
    mesh, _, values = saext.retry_mesh_on_bad_conditioning(
        bc, geom, resolution, kappa_max=cfg.kappa_max,
        max_retries=cfg.kappa_retries)
    pencil = saext.assemble_pencil(mesh, bc, values, potential, mu=cfg.mu)
    return saext.solve_pencil(pencil, count=count).eigenvalues


def _levels_near(levels: np.ndarray, lo: float, hi: float) -> list[float]:
    """The FEM levels a root check on (lo, hi) needs: those in the range and
    in the edge zones just outside it."""
    margin = EDGE_RTOL * max(1.0, abs(lo), abs(hi))
    if levels[-1] <= hi + margin:
        raise RuntimeError(f"the lowest {levels.size} FEM levels end below {hi}")
    return [float(e) for e in levels if lo - margin < e < hi + margin]


def _ring(seed, smoke):
    def text(resolution):
        return _config({"geometry.intervals": f"0 {TWO_PI!r}",
                        "boundary.kind": "matrix",
                        "boundary.ordering": "endpoint",
                        "boundary.matrix": "0,0 1,0 1,0 0,0",
                        "potential.kind": "zero",
                        "resolution": resolution,
                        "eigen.count": 8})
    return {
        "job": (text(400 if smoke else 2000), ["solve", "--levels", "8"]),
        "warmup": (text(60), ["solve", "--levels", "2"]),
        "check": {"kind": "levels", "expected": list(RING_LEVELS)},
        "inputs": {},
    }


def _stability(seed, smoke):
    def text(resolution, start, stop, step, levels):
        return _config({"geometry.intervals": f"0 {TWO_PI!r}",
                        "boundary.kind": "quasi_periodic",
                        "boundary.theta": 0,
                        "resolution": resolution,
                        "stability.eps_start": start,
                        "stability.eps_stop": stop,
                        "stability.eps_step": step,
                        "stability.levels": levels})
    job = (text(120, 1e-4, 5e-4, 1e-4, 4) if smoke
           else text(250, 1e-5, 1e-3, 1e-5, 4))
    # Criterion 10's gate only holds for the full sweep; a smoke run checks
    # that every level was fitted.
    return {
        "job": (job, ["stability"]),
        "warmup": (text(40, 1e-4, 3e-4, 1e-4, 2), ["stability"]),
        "check": {"kind": "exponents",
                  "expected": None if smoke else list(STABILITY_EXPONENTS)},
        "inputs": {},
    }


def _multi(seed, smoke):
    rng = _rng("oracle-multi", seed)
    u = saext.random_unitary(6, rng)
    plateaus = rng.uniform(0.0, 5.0, 3)
    lo, hi = (-1.0, 10.0) if smoke else MULTI_RANGE
    ref_n = 600 if smoke else 1200

    def text(lam_lo, lam_hi, grid):
        return _config({"geometry.intervals": _reals(MULTI_INTERVALS),
                        "boundary.kind": "matrix",
                        "boundary.ordering": "endpoint",
                        "boundary.matrix": _complexes(u),
                        "potential.kind": "constant",
                        "potential.values": _reals(plateaus),
                        "resolution": ref_n,
                        "oracle.lambda_min": repr(lam_lo),
                        "oracle.lambda_max": repr(lam_hi),
                        "oracle.grid_points": grid})
    job = text(lo, hi, 2000 if smoke else 0)
    return {
        "job": (job, ["oracle"]),
        "warmup": (text(-1.0, 1.0, 64), ["oracle"]),
        "check": {"kind": "roots", "range": [lo, hi],
                  "reference": _levels_near(fem_levels(job, ref_n, REFERENCE_COUNT),
                                            lo, hi)},
        "inputs": {"potential_values": plateaus.tolist(),
                   "reference_resolution": ref_n},
    }


def _sampled(seed, smoke):
    rng = _rng("oracle-sampled", seed)
    u = saext.random_unitary(2, rng)
    xs = np.linspace(0.0, SAMPLED_LENGTH, SAMPLED_TABLE_POINTS)
    vs = rng.uniform(0.0, 2.0, SAMPLED_TABLE_POINTS)
    ref_n = 800

    def text(lam_lo, lam_hi, grid, potential):
        return _config({"geometry.intervals": f"0 {SAMPLED_LENGTH!r}",
                        "boundary.kind": "matrix",
                        "boundary.ordering": "endpoint",
                        "boundary.matrix": _complexes(u),
                        "resolution": ref_n,
                        "oracle.lambda_min": repr(lam_lo),
                        "oracle.lambda_max": repr(lam_hi),
                        "oracle.grid_points": grid,
                        **potential})
    sampled = {"potential.kind": "sampled",
               "potential.samples_x": _reals(xs),
               "potential.samples_v": _reals(vs)}
    # The FEM levels do not depend on the lambda range in the config.
    levels = fem_levels(text(0.0, 1.0, SAMPLED_GRID_POINTS, sampled), ref_n,
                        REFERENCE_COUNT)
    lo, hi = _sampled_range(levels, smoke)
    job = text(lo, hi, SAMPLED_GRID_POINTS, sampled)
    mean_v = {"potential.kind": "constant",
              "potential.values": repr(float(np.mean(vs)))}
    return {
        "job": (job, ["oracle"]),
        "warmup": (text(lo, hi, 64, mean_v), ["oracle"]),
        "check": {"kind": "roots", "range": [lo, hi],
                  "reference": _levels_near(levels, lo, hi)},
        "inputs": {"samples_x": xs.tolist(), "samples_v": vs.tolist(),
                   "reference_resolution": ref_n},
    }


def _sampled_range(levels: np.ndarray, smoke: bool) -> tuple[float, float]:
    """A lambda range around one FEM level (between two in smoke mode).

    In s = sign(lambda) sqrt(|lambda|) the range is s_c -+ w, where s_c is
    the first level >= SAMPLED_MIN_LEVEL and w = SAMPLED_WINDOW * s_c,
    narrowed to a quarter of the distance to the nearest other level so
    that the determinant has one minimum in the range.  A smoke run centres
    the range between that level and the next: eight trace evaluations and
    no refinement.
    """
    s = np.sign(levels) * np.sqrt(np.abs(levels))
    k = int(np.argmax(levels >= SAMPLED_MIN_LEVEL))
    if smoke:
        centre, gap = (s[k] + s[k + 1]) / 2.0, (s[k + 1] - s[k]) / 2.0
    else:
        centre = s[k]
        gap = min(s[k + 1] - s[k], s[k] - s[k - 1] if k > 0 else np.inf)
    w = min(SAMPLED_WINDOW * centre, gap / 4.0)
    return float((centre - w) ** 2), float((centre + w) ** 2)


_BUILDERS = {"fem-ring": _ring, "stability-sweep": _stability,
             "oracle-multi": _multi, "oracle-sampled": _sampled}


def generate(name: str, seed: int, run_dir: Path, smoke: bool) -> dict:
    """Write a workload's config files into ``run_dir`` and return its spec.

    The spec holds the argv of the timed job and of the warm-up job (both
    for ``saext.cli.main``), the job's output directory and the check.
    """
    built = _BUILDERS[name](seed, smoke)
    spec = {"workload": name, "seed": seed, "smoke": smoke,
            "rescale": name in RESCALED,
            "check": built["check"], "inputs": built["inputs"]}
    for role in ("job", "warmup"):
        text, argv = built[role]
        cfg = run_dir / f"{role}.cfg"
        cfg.write_text(text)
        out = run_dir / f"{role}_out"
        spec[f"{role}_argv"] = [argv[0], "--config", str(cfg),
                                "--out", str(out), *argv[1:]]
        spec[f"{role}_out"] = str(out)
    return spec


def _column(path: Path, name: str) -> list[str]:
    with open(path, newline="") as fh:
        return [row[name] for row in csv.DictReader(fh)]


def _check_levels(spec, out: Path):
    got = [float(v) for v in _column(out / "spectrum.csv", "lambda")]
    expected = spec["expected"]
    if len(got) != len(expected):
        return False, f"{len(got)} levels, expected {len(expected)}"
    worst = max(abs(g - e) / max(1.0, abs(e)) for g, e in zip(got, expected))
    return worst <= LEVEL_RTOL, f"levels worst rel dev {worst:.2e}"


def _check_exponents(spec, out: Path):
    exponents = {}
    with open(out / "stability.csv", newline="") as fh:
        for row in csv.DictReader(fh):
            if row["record"] == "fit_b":
                exponents[int(row["level"])] = float(row["value"])
    got = [exponents.get(lev, math.nan) for lev in (1, 2, 3, 4)]
    shown = ", ".join(f"{b:+.3f}" for b in got)
    if not all(math.isfinite(b) for b in got):
        return False, f"missing fits: ({shown})"
    expected = spec["expected"]
    if expected is None:
        return True, f"exponents ({shown}), gate not applied at smoke size"
    within = all(abs(b - r) <= STABILITY_ATOL for b, r in zip(got, expected))
    ordered = all(a < b for a, b in zip(got, got[1:]))
    return within and ordered, (f"exponents ({shown}); within "
                                f"{STABILITY_ATOL}: {within}, ordered: {ordered}")


def match_roots(roots, reference, lo: float, hi: float):
    """Criterion 6's rule on a range: every oracle root matches its own FEM
    level within ROOT_RTOL, and every FEM level clear of the range ends is
    matched.  Levels within EDGE_RTOL of an end may be missing."""
    def tol(e, rtol):
        return rtol * max(1.0, abs(e))

    levels = [(e, lo + tol(e, EDGE_RTOL) < e < hi - tol(e, EDGE_RTOL))
              for e in reference]
    i = 0
    for r in sorted(roots):
        while i < len(levels) and levels[i][0] < r - tol(levels[i][0], ROOT_RTOL):
            if levels[i][1]:
                return False, f"no root for FEM level {levels[i][0]:.6g}"
            i += 1
        if i == len(levels) or abs(r - levels[i][0]) > tol(levels[i][0], ROOT_RTOL):
            return False, f"root {r:.6g} matches no FEM level"
        i += 1
    missing = [e for e, inner in levels[i:] if inner]
    if missing:
        return False, f"no root for FEM level {missing[0]:.6g}"
    return True, f"{len(roots)} roots match FEM within {ROOT_RTOL:g}"


def _check_roots(spec, out: Path):
    roots = [float(v) for v in _column(out / "roots.csv", "lambda")]
    return match_roots(roots, spec["reference"], *spec["range"])


_CHECKS = {"levels": _check_levels, "exponents": _check_exponents,
           "roots": _check_roots}


def check(spec: dict, out: Path) -> tuple[bool, str]:
    """Check one job's CSV output against its workload's expectation."""
    try:
        return _CHECKS[spec["kind"]](spec, Path(out))
    except (OSError, KeyError, ValueError) as exc:
        return False, f"unreadable output: {exc!r}"
