"""Flat, typed configuration files for the command-line front end.

The format is line oriented and diff friendly: a mandatory schema header
followed by ``key = value`` lines.  Values are typed per key: integers,
reals, strings, arrays (whitespace-separated tokens) and complex numbers
written as ``re,im`` pairs.  Unknown keys are rejected.  Every run echoes
the fully resolved configuration, defaults included, next to its outputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import get_args, get_origin, get_type_hints

import numpy as np

from .boundary import DEFAULT_KAPPA_MAX, DEFAULT_MAX_RETRIES, BoundaryCondition
from .geometry import IntervalSet
from .potentials import ConstantPotential, SampledPotential, ZeroPotential

SCHEMA_HEADER = "saext-config v1"


class ConfigError(ValueError):
    """Malformed or inconsistent configuration."""


# 17 significant digits: every float64 round-trips through its text.
REAL_FORMAT = "%.17g"


def format_real(x) -> str:
    return REAL_FORMAT % float(x)


def _format_complex(z) -> str:
    z = complex(z)
    return f"{format_real(z.real)},{format_real(z.imag)}"


def _parse_real(token: str, key: str) -> float:
    try:
        return float(token)
    except ValueError:
        raise ConfigError(f"key {key!r}: expected a real number, got {token!r}")


def _parse_int(token: str, key: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise ConfigError(f"key {key!r}: expected an integer, got {token!r}")


def _parse_complex(token: str, key: str) -> complex:
    parts = token.split(",")
    if len(parts) != 2:
        raise ConfigError(
            f"key {key!r}: complex entries are written re,im; got {token!r}"
        )
    return complex(
        _parse_real(parts[0], key), _parse_real(parts[1], key)
    )


def _parse_bool(token: str, key: str) -> bool:
    if token == "true":
        return True
    if token == "false":
        return False
    raise ConfigError(f"key {key!r}: expected true or false, got {token!r}")


@dataclass
class JobConfig:
    """Fully resolved job description; every field has an explicit value.

    The fields are the configuration schema: field ``a_b`` is key ``a.b``
    (the first ``_`` read as ``.``), a ``tuple[T, ...]`` field is an array
    of whitespace-separated ``T`` tokens, and keys render in field order.
    """

    geometry_intervals: tuple[float, ...] = ()
    boundary_kind: str = ""
    boundary_theta: float = 0.0
    boundary_matrix: tuple[complex, ...] = ()
    boundary_ordering: str = "endpoint"
    potential_kind: str = "zero"
    potential_values: tuple[float, ...] = ()
    potential_samples_x: tuple[float, ...] = ()
    potential_samples_v: tuple[float, ...] = ()
    resolution: int = 0
    mu: float = 1.0
    eigen_count: int = 0  # 0 means all
    oracle_lambda_min: float = -1.0
    oracle_lambda_max: float = 10.0
    oracle_grid_points: int = 0  # 0 means automatic density
    oracle_scan_output: bool = False
    kappa_max: float = DEFAULT_KAPPA_MAX
    kappa_retries: int = DEFAULT_MAX_RETRIES
    convergence_resolutions: tuple[int, ...] = (50, 100, 200, 400, 800)
    stability_eps_start: float = 1e-5
    stability_eps_stop: float = 1e-3
    stability_eps_step: float = 1e-5
    stability_levels: int = 4
    stability_mode: str = "linear"
    stability_matching: str = "index"


# scalar type -> (parse one token, render one value)
_KINDS = {
    int: (_parse_int, lambda v: str(int(v))),
    float: (_parse_real, format_real),
    complex: (_parse_complex, _format_complex),
    bool: (_parse_bool, lambda v: "true" if v else "false"),
    str: (lambda token, key: token, str),
}

# key name -> (attribute, scalar type, array), derived from JobConfig
_KEYS: dict[str, tuple[str, type, bool]] = {
    attr.replace("_", ".", 1): (
        (attr, get_args(hint)[0], True) if get_origin(hint) is tuple
        else (attr, hint, False))
    for attr, hint in get_type_hints(JobConfig).items()
}


def parse_config(text: str) -> JobConfig:
    lines = text.splitlines()
    body: list[tuple[int, str]] = []
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        body.append((lineno, line))
    if not body:
        raise ConfigError("empty configuration")
    first_lineno, first = body[0]
    if first != SCHEMA_HEADER:
        raise ConfigError(
            f"line {first_lineno}: expected schema header {SCHEMA_HEADER!r}, "
            f"got {first!r}"
        )

    cfg = JobConfig()
    seen: set[str] = set()
    for lineno, line in body[1:]:
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key == "seed":  # removed, unused key; echoed configs still carry it
            continue
        if key not in _KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in seen:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        seen.add(key)
        attr, scalar, array = _KEYS[key]
        parse = _KINDS[scalar][0]
        setattr(cfg, attr, tuple(parse(t, key) for t in value.split()) if array
                else parse(value, key))
    return cfg


def render_config(cfg: JobConfig) -> str:
    """Canonical text form of a configuration, all defaults materialized."""
    out = [SCHEMA_HEADER]
    for key, (attr, scalar, array) in _KEYS.items():
        value, render = getattr(cfg, attr), _KINDS[scalar][1]
        rendered = " ".join(map(render, value)) if array else render(value)
        out.append(f"{key} = {rendered}")
    return "\n".join(out) + "\n"


def build_geometry(cfg: JobConfig) -> IntervalSet:
    flat = cfg.geometry_intervals
    if len(flat) == 0:
        raise ConfigError("geometry.intervals is required")
    if len(flat) % 2 != 0:
        raise ConfigError(
            "geometry.intervals must hold endpoint pairs (even token count)"
        )
    pairs = [(flat[2 * i], flat[2 * i + 1]) for i in range(len(flat) // 2)]
    try:
        return IntervalSet(pairs)
    except ValueError as exc:
        raise ConfigError(str(exc))


def build_boundary_condition(cfg: JobConfig, n: int) -> BoundaryCondition:
    kind = cfg.boundary_kind
    try:
        if kind == "dirichlet":
            return BoundaryCondition.dirichlet(n)
        if kind == "neumann":
            return BoundaryCondition.neumann(n)
        if kind == "quasi_periodic":
            if n != 1:
                raise ConfigError("quasi_periodic boundary conditions need n = 1")
            return BoundaryCondition.quasi_periodic(cfg.boundary_theta)
        if kind == "matrix":
            entries = cfg.boundary_matrix
            dim = 2 * n
            if len(entries) != dim * dim:
                raise ConfigError(
                    f"boundary.matrix needs {dim * dim} entries for n = {n}, "
                    f"got {len(entries)}"
                )
            matrix = np.array(entries, dtype=complex).reshape(dim, dim)
            return BoundaryCondition.from_matrix(matrix, ordering=cfg.boundary_ordering)
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(str(exc))
    raise ConfigError(
        f"boundary.kind must be dirichlet, neumann, quasi_periodic or matrix, "
        f"got {kind!r}"
    )


def build_potential(cfg: JobConfig, n: int):
    kind = cfg.potential_kind
    if kind == "zero":
        return ZeroPotential()
    if kind == "constant":
        if len(cfg.potential_values) != n:
            raise ConfigError(
                f"potential.values needs one value per interval ({n}), "
                f"got {len(cfg.potential_values)}"
            )
        return ConstantPotential(cfg.potential_values)
    if kind == "sampled":
        try:
            return SampledPotential(cfg.potential_samples_x, cfg.potential_samples_v)
        except ValueError as exc:
            raise ConfigError(str(exc))
    raise ConfigError(
        f"potential.kind must be zero, constant or sampled, got {kind!r}"
    )


def build_problem(cfg: JobConfig):
    """Validate and construct the (geometry, boundary condition, potential)
    triple described by the configuration."""
    geom = build_geometry(cfg)
    bc = build_boundary_condition(cfg, geom.n)
    potential = build_potential(cfg, geom.n)
    if not (np.isfinite(cfg.mu) and cfg.mu > 0):
        raise ConfigError(f"mu must be positive and finite, got {cfg.mu}")
    if cfg.eigen_count < 0:
        raise ConfigError(f"eigen.count must be >= 0, got {cfg.eigen_count}")
    if not cfg.kappa_max > 0:
        raise ConfigError(f"kappa.max must be positive, got {cfg.kappa_max}")
    if cfg.kappa_retries < 0:
        raise ConfigError(f"kappa.retries must be >= 0, got {cfg.kappa_retries}")
    return geom, bc, potential
