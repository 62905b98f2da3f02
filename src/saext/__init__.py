"""Spectra of 1D Schrodinger operators -mu Psi'' + V Psi = lambda Psi on a
disjoint union of compact intervals, for the self-adjoint realization
selected by a unitary boundary matrix U, with an independent
spectral-determinant cross-check."""

__version__ = "0.1.0"

from .boundary import (
    BoundaryCondition,
    BoundarySystem,
    BoundaryValues,
    ConditionFailure,
    ConditionReport,
    assemble_boundary_system,
    condition_report,
    endpoint_to_block_permutation,
    random_unitary,
    retry_mesh_on_bad_conditioning,
    solve_boundary_values,
)
from .eigen import (
    EigenSolution,
    EigenSolveError,
    PositiveDefinitenessError,
    eigenfunction_samples,
    h1_error,
    solve_pencil,
)
from .fem import (
    AssemblyError,
    Pencil,
    assemble_pencil,
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
