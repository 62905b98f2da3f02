"""Spectra of 1D Schrodinger operators -mu Psi'' + V Psi = lambda Psi on a
disjoint union of compact intervals, for the self-adjoint realization
selected by a unitary boundary matrix U, with an independent
spectral-determinant cross-check."""

__version__ = "0.1.0"

import importlib

from .boundary import (
    AssemblyError,
    BoundaryCondition,
    BoundarySystem,
    BoundaryValues,
    ConditionFailure,
    ConditionReport,
    EigenSolveError,
    PositiveDefinitenessError,
    assemble_boundary_system,
    condition_report,
    endpoint_to_block_permutation,
    random_unitary,
    retry_mesh_on_bad_conditioning,
    solve_boundary_values,
)
from .geometry import GeometryError, IntervalSet, Mesh, build_mesh
from .potentials import (
    CallablePotential,
    ConstantPotential,
    Potential,
    PotentialError,
    SampledPotential,
    ZeroPotential,
)
from .spectral import (
    FundamentalTraces,
    SpectralMatrix,
    find_spectrum,
    fundamental_traces,
    odot,
    spectral_matrix,
)

__all__ = [
    "__version__",
    "AssemblyError",
    "BoundaryCondition",
    "BoundarySystem",
    "BoundaryValues",
    "CallablePotential",
    "ConditionFailure",
    "ConditionReport",
    "ConstantPotential",
    "EigenSolution",
    "EigenSolveError",
    "FundamentalTraces",
    "GeometryError",
    "IntervalSet",
    "Mesh",
    "Pencil",
    "Potential",
    "PotentialError",
    "PositiveDefinitenessError",
    "SampledPotential",
    "SpectralMatrix",
    "ZeroPotential",
    "assemble_boundary_system",
    "assemble_pencil",
    "build_mesh",
    "condition_report",
    "eigenfunction_samples",
    "endpoint_to_block_permutation",
    "find_spectrum",
    "fundamental_traces",
    "h1_error",
    "odot",
    "random_unitary",
    "retry_mesh_on_bad_conditioning",
    "solve_boundary_values",
    "solve_pencil",
    "spectral_matrix",
]

# The FEM side (saext.fem, saext.eigen and the scipy subpackages they use)
# loads on the first access to one of its names, so that the oracle runs
# without it (PEP 562).
_FEM_NAMES = {
    "EigenSolution": "eigen",
    "eigenfunction_samples": "eigen",
    "h1_error": "eigen",
    "solve_pencil": "eigen",
    "Pencil": "fem",
    "assemble_pencil": "fem",
}


def __getattr__(name):
    if name not in _FEM_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_FEM_NAMES[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_FEM_NAMES))
