"""The public names of the package, pinned: adding or dropping a re-export
is a deliberate change to this list."""

import saext

PUBLIC_NAMES = [
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


def test_public_names_are_pinned():
    assert saext.__all__ == PUBLIC_NAMES
    assert len(PUBLIC_NAMES) == 37
    for name in PUBLIC_NAMES:
        assert hasattr(saext, name), name
