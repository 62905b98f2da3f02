"""The public names of the package, pinned: adding or dropping a re-export
is a deliberate change to this list.  And the private names the benchmark's
tracer wraps, which must keep resolving."""

import ast
import importlib
from pathlib import Path

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


def test_benchmark_tracer_targets_resolve():
    # perfbench/tracing.py wraps each (module, attribute) of SPAN_TARGETS
    # in a span and only lists a missing one among its untraced functions,
    # so a renamed or deleted name would go unnoticed.  The table is read
    # from the source, without importing the benchmark.
    source = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    tree = ast.parse(source.read_text())
    targets = [ast.literal_eval(node.value) for node in tree.body
               if isinstance(node, ast.Assign)
               and [getattr(t, "id", None) for t in node.targets] == ["SPAN_TARGETS"]]
    assert len(targets) == 1 and targets[0]
    for module, attribute, _ in targets[0]:
        assert hasattr(importlib.import_module(module), attribute), (module, attribute)
