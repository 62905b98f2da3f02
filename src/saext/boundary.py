"""Self-adjoint boundary conditions encoded by a unitary matrix.

A self-adjoint realization of -mu d^2/dx^2 + V on n intervals is fixed by a
unitary 2n x 2n matrix U acting on boundary data: a function belongs to the
domain iff its endpoint values psi and outward normal derivatives psid
satisfy  psi - i psid = U (psi + i psid).

Two orderings of the 2n boundary slots are used.  Endpoint order interleaves
the intervals, (a_1, b_1, a_2, b_2, ...); block order stacks all left ends
before all right ends, (a_1..a_n, b_1..b_n).  The permutation relating them
is stored explicitly as an index array, never recomputed inline.

This module also builds and solves the linear system F V = C whose solution
column i holds the endpoint values of the i-th boundary basis function, and
monitors the conditioning of F.  A symmetric U (U == U^T) is a real
condition: conjugation maps its domain onto itself, its exact V is real,
and the solve keeps V real by rule, so its pencil is real too.

Every step from U to V also takes a stack of U (m, 2n, 2n) as one array:
the unitarity check, F and C and the solve with its gates
(:func:`_boundary_values_stack`, as the stability sweep uses it).
:meth:`BoundaryCondition.from_matrix`, :func:`assemble_boundary_system`
and :func:`solve_boundary_values` are its stacks of one, so each U of a
stack gets bit for bit the F, C, V and G it gets alone.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .geometry import Mesh, build_mesh

UNITARITY_TOL = 1e-12
DEFAULT_KAPPA_MAX = 1e8
DEFAULT_MAX_RETRIES = 8

# Residual gates for the boundary-value solve.
_SOLVE_RTOL = 1e-10
_ZERO_RHS_TOL = 1e-12
_TRACE_TOL = 1e-8


class BoundaryError(ValueError):
    """Invalid boundary-condition data (non-unitary matrix, bad shapes)."""


class BoundarySolveError(RuntimeError):
    """The boundary-value system was solved but failed its residual gates."""


# The errors of assembly and the eigensolver live here, the module that fem
# and eigen both build on, so that the CLI can catch them without importing
# the FEM side; saext.fem and saext.eigen export the same classes.
class AssemblyError(RuntimeError):
    """Inconsistent inputs detected while building the pencil."""


class EigenSolveError(RuntimeError):
    """The pencil could not be solved (bad inputs or failed factorization)."""


class PositiveDefinitenessError(EigenSolveError):
    """B is not positive definite.

    Attributes
    ----------
    pivot : int
        1-based index of the first failing Cholesky pivot.
    """

    def __init__(self, pivot: int):
        super().__init__(
            f"mass matrix is not positive definite: Cholesky failed at "
            f"pivot {pivot}"
        )
        self.pivot = pivot


class ConditionFailure(RuntimeError):
    """Boundary matrix too ill-conditioned to trust the solve.

    Attributes
    ----------
    kappa_estimate : float
        Condition number estimate that triggered the failure; inf when the
        system is incompatible at its step vector, where the estimate is
        meaningless.
    spectrum_gap : float
        Distance from 1 to the spectrum of U0 = U D conj(D)^-1.
    history : list of (int, float)
        (resolution, kappa) pairs tried, when raised by the retry loop.
    """

    def __init__(self, message, kappa_estimate=None, spectrum_gap=None, history=None):
        super().__init__(message)
        self.kappa_estimate = kappa_estimate
        self.spectrum_gap = spectrum_gap
        self.history = history


def endpoint_to_block_permutation(n: int) -> np.ndarray:
    """Index array sigma with sigma[e] = block slot of endpoint slot e.

    Left ends (even endpoint slots) map to 0..n-1, right ends (odd slots)
    to n..2n-1.
    """
    sigma = np.empty(2 * n, dtype=np.intp)
    sigma[0::2] = np.arange(n)
    sigma[1::2] = n + np.arange(n)
    return sigma


def _matrix_endpoint_to_block(m: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    out = np.empty_like(m)
    out[np.ix_(sigma, sigma)] = m
    return out


def _matrix_block_to_endpoint(m: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    return m[np.ix_(sigma, sigma)]


def _frozen(a: np.ndarray) -> np.ndarray:
    a = np.array(a)
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class BoundaryCondition:
    """A unitary boundary condition in both slot orderings.

    Attributes
    ----------
    n : int
        Number of intervals; the matrices are 2n x 2n.
    u_endpoint : ndarray
        U in endpoint ordering (a_1, b_1, a_2, b_2, ...).
    u_block : ndarray
        The same operator in block ordering (left ends first).
    unitarity_defect : float
        Frobenius norm of U^H U - I at construction time.
    """

    n: int
    u_endpoint: np.ndarray
    u_block: np.ndarray
    unitarity_defect: float

    @classmethod
    def from_matrix(cls, entries, ordering: str = "endpoint") -> "BoundaryCondition":
        """Build from an explicit 2n x 2n unitary matrix.

        ``ordering`` says how the rows/columns of ``entries`` are indexed;
        the other ordering is derived through the slot permutation.
        """
        u = np.asarray(entries, dtype=complex)
        if u.ndim != 2 or u.shape[0] != u.shape[1]:
            raise BoundaryError(f"boundary matrix must be square, got shape {u.shape}")
        dim = u.shape[0]
        if dim % 2 != 0 or dim == 0:
            raise BoundaryError(f"boundary matrix must have even dimension, got {dim}")
        n = dim // 2
        defect = float(_unitarity_defects(u[None])[0])
        sigma = endpoint_to_block_permutation(n)
        if ordering == "endpoint":
            u_e = u
            u_b = _matrix_endpoint_to_block(u, sigma)
        elif ordering == "block":
            u_b = u
            u_e = _matrix_block_to_endpoint(u, sigma)
        else:
            raise BoundaryError(f"unknown ordering {ordering!r}")
        return cls(
            n=n,
            u_endpoint=_frozen(u_e),
            u_block=_frozen(u_b),
            unitarity_defect=defect,
        )

    @classmethod
    def dirichlet(cls, n: int) -> "BoundaryCondition":
        """U = -I: functions vanish at every endpoint."""
        return cls.from_matrix(-np.eye(2 * n, dtype=complex))

    @classmethod
    def neumann(cls, n: int) -> "BoundaryCondition":
        """U = +I: normal derivatives vanish at every endpoint."""
        return cls.from_matrix(np.eye(2 * n, dtype=complex))

    @classmethod
    def quasi_periodic(cls, theta: float) -> "BoundaryCondition":
        """Single interval with u(a) = e^{i theta} u(b), u'(a) = e^{i theta} u'(b).

        theta = 0 gives periodic, theta = pi antiperiodic boundary conditions.
        """
        return cls.from_matrix(_quasi_periodic_matrix(theta))

    def admissibility_defect(self, values, normal_derivatives) -> float:
        """Norm of (psi - i psid) - U (psi + i psid) for one boundary trace
        in endpoint order."""
        psi = np.asarray(values, dtype=complex)
        psid = np.asarray(normal_derivatives, dtype=complex)
        if psi.shape != (2 * self.n,) or psid.shape != (2 * self.n,):
            raise BoundaryError("trace vectors must have length 2n")
        return float(np.linalg.norm(
            (psi - 1j * psid) - self.u_endpoint @ (psi + 1j * psid)))


def _quasi_periodic_matrix(theta: float) -> np.ndarray:
    """U = [[0, e^{i theta}], [e^{-i theta}, 0]] of
    :meth:`BoundaryCondition.quasi_periodic`."""
    theta = float(theta)
    return np.array(
        [[0.0, cmath.exp(1j * theta)], [cmath.exp(-1j * theta), 0.0]],
        dtype=complex,
    )


def _adjoint(m: np.ndarray) -> np.ndarray:
    """The conjugate transpose of each matrix of a stack."""
    return m.conj().swapaxes(-1, -2)


def _unitarity_defects(u: np.ndarray) -> np.ndarray:
    """||U^H U - I|| (Frobenius) of each matrix of a stack (m, d, d).

    Raises
    ------
    BoundaryError
        For the first matrix whose defect exceeds UNITARITY_TOL (or is NaN).
    """
    defects = np.linalg.norm(_adjoint(u) @ u - np.eye(u.shape[-1]), axis=(-2, -1))
    bad = ~(defects <= UNITARITY_TOL)
    if np.any(bad):
        raise BoundaryError(
            f"matrix is not unitary: ||U^H U - I|| = {defects[np.argmax(bad)]:.3e} "
            f"exceeds {UNITARITY_TOL:.1e}"
        )
    return defects


@dataclass(frozen=True)
class BoundarySystem:
    """The linear system F V = C fixing the boundary-function endpoint values.

    All matrices and the step vector ``h`` use endpoint ordering, with
    h[2 alpha] = h[2 alpha + 1] = h_alpha.
    """

    f: np.ndarray
    c: np.ndarray
    h: np.ndarray
    u: np.ndarray  # boundary unitary, endpoint ordering


@dataclass(frozen=True)
class BoundaryValues:
    """Endpoint values of the boundary basis functions.

    Column i of ``v`` holds the 2n endpoint values of the i-th boundary
    function.  ``g`` is the weighted matrix diag(1/h) v, hermitian exactly
    after the projection applied by :func:`solve_boundary_values`; consumers
    that need (1/h_l) V[l, i] read it from ``g`` so the hermiticity carries
    through assembly without re-rounding.
    """

    v: np.ndarray
    g: np.ndarray
    h: np.ndarray

    @property
    def n(self) -> int:
        return self.v.shape[0] // 2

    def normal_derivatives(self) -> np.ndarray:
        """Matrix whose column i holds the outward normal derivatives of
        boundary function i at the 2n endpoints (endpoint ordering)."""
        return _normal_derivatives(self.g, self.h)


def _normal_derivatives(g: np.ndarray, h: np.ndarray) -> np.ndarray:
    """G - diag(1/h), the normal derivatives of boundary values with
    weighted matrix ``g`` and step vector ``h``, also for stacks of them."""
    return g - np.eye(h.shape[-1]) * (1.0 / h)[..., None, :]


@dataclass(frozen=True)
class ConditionReport:
    """Conditioning diagnostics for a boundary system."""

    kappa_estimate: float
    bound: float
    spectrum_gap: float
    incompatible: bool
    note: str = ""


def assemble_boundary_system(bc: BoundaryCondition, mesh: Mesh) -> BoundarySystem:
    """Form F = diag(1 - i/h) - U diag(1 + i/h) and C = -i (I + U) diag(1/h)."""
    f, c = _boundary_matrices(bc.u_endpoint[None], mesh)
    return BoundarySystem(f=_frozen(f[0]), c=_frozen(c[0]), h=_frozen(mesh.h_endpoint),
                          u=bc.u_endpoint)


def _boundary_matrices(u: np.ndarray, mesh: Mesh) -> tuple[np.ndarray, np.ndarray]:
    """The F and C of :func:`assemble_boundary_system` for each U of a stack
    (m, 2n, 2n) in endpoint ordering, as two stacks.

    Raises
    ------
    BoundaryError
        When the U are not 2n x 2n for the mesh's n intervals.
    """
    if u.shape[-1] != 2 * mesh.n:
        raise BoundaryError(
            f"boundary condition has n = {u.shape[-1] // 2} but mesh has n = {mesh.n}"
        )
    inv_h = 1.0 / mesh.h_endpoint
    f = np.diag(1.0 - 1j * inv_h) - u * (1.0 + 1j * inv_h)
    c = -1j * (np.eye(inv_h.size) + u) * inv_h
    return f, c


def _boundary_values_stack(u: np.ndarray, mesh: Mesh,
                           kappa_max: float = DEFAULT_KAPPA_MAX
                           ) -> tuple[np.ndarray, np.ndarray]:
    """The boundary values (V, G) of each U of a stack (m, 2n, 2n) in
    endpoint ordering on ``mesh``, as two stacks: the unitarity check of
    :meth:`BoundaryCondition.from_matrix`, then :func:`assemble_boundary_system`
    and :func:`solve_boundary_values` of the whole stack, with no object per
    U.  Each U gets bit for bit the V and G it gets alone, and the first U
    that fails a gate raises the error it raises alone; a unitarity
    failure anywhere is raised before any solve.

    Raises
    ------
    BoundaryError
        As :meth:`BoundaryCondition.from_matrix` and
        :func:`assemble_boundary_system`.
    ValueError, ConditionFailure, BoundarySolveError
        As :func:`solve_boundary_values`.
    """
    _unitarity_defects(u)
    f, c = _boundary_matrices(u, mesh)
    return _solve_boundary_stack(f, c, u, mesh.h_endpoint, kappa_max)


def condition_report(sys: BoundarySystem) -> ConditionReport:
    """Condition number of F, the closed-form bound, and the spectrum gap.

    The bound is (h_max / h_min) * 2 / min |1 - spec(U0)| with
    U0 = U D conj(D)^{-1}, D = I + i diag(1/h).  A gap below 1e-12 means 1
    is (numerically) in the spectrum of U0 and the system is incompatible
    at this step vector.
    """
    kappa, bound, gap = (float(x[0]) for x
                         in _condition_arrays(sys.f[None], sys.u[None], sys.h))
    return ConditionReport(
        kappa_estimate=kappa,
        bound=bound,
        spectrum_gap=gap,
        incompatible=gap < 1e-12,
        note="system incompatible at this h" if gap < 1e-12 else "",
    )


def _condition_arrays(f: np.ndarray, u: np.ndarray, h: np.ndarray):
    """The (kappa, bound, gap) of :func:`condition_report` for each system
    of a stack of F and U (m, 2n, 2n) on the step vector ``h``, as arrays,
    by one batched SVD of the F and one batched eigenvalue call on the U0;
    LAPACK factors each matrix of a stack as it factors it alone."""
    svals = np.linalg.svd(f, compute_uv=False)
    smin = svals[:, -1]
    with np.errstate(divide="ignore", invalid="ignore"):
        kappa = np.where(smin > 0, svals[:, 0] / smin, np.inf)

    d = 1.0 + 1j / h
    u0 = u * (d / np.conj(d))
    gap = np.min(np.abs(1.0 - np.linalg.eigvals(u0)), axis=-1)
    ratio = np.max(h) / np.min(h)
    with np.errstate(divide="ignore", invalid="ignore"):
        bound = np.where(gap > 0, ratio * 2.0 / gap, np.inf)
    return kappa, bound, gap


def _check_kappa_max(kappa_max: float) -> None:
    if math.isnan(kappa_max):
        raise ValueError("kappa_max must not be NaN")


def solve_boundary_values(
    sys: BoundarySystem, kappa_max: float = DEFAULT_KAPPA_MAX
) -> BoundaryValues:
    """Solve F V = C and project V onto the weighted-hermitian constraint.

    The solve is LAPACK's general ``zgesv`` for every U.  When U == U^T
    exactly, V keeps only its real part: then conj(U) = U^{-1}, so
    -U conj(F) = F and -U conj(C) = C, and conj(V) solves the same
    nonsingular system, i.e. the exact V is real (conjugation maps the
    domain of a symmetric U onto itself).  The projection replaces
    G = diag(1/h) V by its hermitian part; this is the minimal symmetric
    correction in the correctly weighted variable and is what keeps the
    assembled pencil hermitian exactly.

    Raises
    ------
    ValueError
        If ``kappa_max`` is NaN.
    ConditionFailure
        If the condition estimate of F exceeds ``kappa_max``.
    BoundarySolveError
        If the residual or the per-column admissibility gate fails.
    """
    v, g = _solve_boundary_stack(sys.f[None], sys.c[None], sys.u[None], sys.h,
                                 kappa_max)
    return BoundaryValues(v=_frozen(v[0]), g=_frozen(g[0]), h=sys.h)


def _solve_boundary_stack(
    f: np.ndarray, c: np.ndarray, u: np.ndarray, h: np.ndarray,
    kappa_max: float = DEFAULT_KAPPA_MAX,
) -> tuple[np.ndarray, np.ndarray]:
    """The (V, G) of :func:`solve_boundary_values` for each system of a
    stack of F, C and U (m, 2n, 2n) on the step vector ``h``, as two
    stacks.  ``zgesv`` runs once per system; the condition report, the
    projection and the residual and trace gates run once over the stack.
    The first system that fails a gate raises the error it raises alone,
    the gates read in the order :func:`solve_boundary_values` has them.

    Raises
    ------
    As :func:`solve_boundary_values`.
    """
    # loaded here, so that the oracle, which never solves F V = C, runs
    # without scipy
    import scipy.linalg

    _check_kappa_max(kappa_max)
    kappa, _, gap = _condition_arrays(f, u, h)
    zgesv = scipy.linalg.lapack.zgesv
    solved = [zgesv(f_i, c_i) for f_i, c_i in zip(f, c)]
    v_raw = np.stack([x for *_, x, _ in solved])
    info = np.array([i for *_, i in solved])
    # a symmetric U gives a real V by rule
    v_raw.imag[np.all(u == u.swapaxes(-1, -2), axis=(-2, -1))] = 0.0
    inv_h = 1.0 / h
    g = inv_h[:, None] * v_raw
    g = (g + _adjoint(g)) / 2.0
    v = h[:, None] * g
    c_norms = np.linalg.norm(c, axis=(-2, -1))
    residuals = np.linalg.norm(f @ v - c, axis=(-2, -1))
    v_norms = np.linalg.norm(v, axis=(-2, -1))
    # Per-column admissibility: each boundary function must satisfy the
    # boundary condition within the trace tolerance.
    beta_dot = _normal_derivatives(g, h)
    lhs = (v - 1j * beta_dot) - u @ (v + 1j * beta_dot)
    worst = np.max(np.linalg.norm(lhs, axis=-2), axis=-1)

    incompatible = gap < 1e-12
    with np.errstate(invalid="ignore"):
        residual_ok = np.where(c_norms == 0.0, v_norms <= _ZERO_RHS_TOL,
                               residuals <= _SOLVE_RTOL * c_norms)
    failed = (incompatible | ~(kappa <= kappa_max) | (info != 0) | ~residual_ok
              | ~(worst <= _TRACE_TOL))
    if not np.any(failed):
        return v, g
    i = int(np.argmax(failed))
    if incompatible[i]:
        # With 1 in the spectrum of U0 the matrix F is (numerically) zero,
        # which leaves the condition estimate meaningless: refuse outright.
        raise ConditionFailure(
            f"boundary system incompatible at this step vector "
            f"(spectrum gap {gap[i]:.3e})",
            kappa_estimate=float("inf"),
            spectrum_gap=float(gap[i]),
        )
    if not kappa[i] <= kappa_max:
        raise ConditionFailure(
            f"boundary matrix condition estimate {kappa[i]:.3e} "
            f"exceeds kappa_max = {kappa_max:.3e} "
            f"(spectrum gap {gap[i]:.3e})",
            kappa_estimate=float(kappa[i]),
            spectrum_gap=float(gap[i]),
        )
    if info[i] > 0:
        raise BoundarySolveError(
            f"boundary matrix is singular: pivot {info[i]} is zero")
    if info[i] < 0:
        raise ValueError(f"LAPACK rejected argument {-info[i]}")
    if not residual_ok[i]:
        if c_norms[i] == 0.0:
            raise BoundarySolveError(
                "homogeneous boundary system produced a nonzero solution"
            )
        raise BoundarySolveError(
            f"boundary solve residual {residuals[i]:.3e} exceeds "
            f"{_SOLVE_RTOL:.1e} * ||C|| = {_SOLVE_RTOL * c_norms[i]:.3e}"
        )
    raise BoundarySolveError(
        f"boundary-function trace defect {worst[i]:.3e} exceeds "
        f"{_TRACE_TOL:.1e}"
    )


def retry_mesh_on_bad_conditioning(
    bc: BoundaryCondition,
    geom,
    resolution: int,
    kappa_max: float = DEFAULT_KAPPA_MAX,
    max_retries: int = DEFAULT_MAX_RETRIES,
):
    """Increase the resolution until the boundary matrix is well conditioned.

    Tries N, N+1, ..., N+max_retries and returns the first triple
    (mesh, system, values) whose condition estimate passes kappa_max.

    Raises
    ------
    ValueError
        If ``kappa_max`` is NaN or ``max_retries`` is negative.
    ConditionFailure
        After exhausting the retries; carries the full kappa history.
    """
    _check_kappa_max(kappa_max)
    if max_retries < 0:
        raise ValueError(f"max_retries must be >= 0, got {max_retries}")

    history: list[tuple[int, float]] = []
    for n_try in range(int(resolution), int(resolution) + int(max_retries) + 1):
        mesh = build_mesh(geom, n_try)
        sys = assemble_boundary_system(bc, mesh)
        try:
            return mesh, sys, solve_boundary_values(sys, kappa_max=kappa_max)
        except ConditionFailure as exc:
            history.append((n_try, exc.kappa_estimate))
    raise ConditionFailure(
        f"no resolution in [{resolution}, {resolution + max_retries}] met "
        f"kappa_max = {kappa_max:.3e}; history: "
        + ", ".join(f"N={n}: {k:.3e}" for n, k in history),
        history=history,
    )


def random_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-like random unitary: QR of a complex Gaussian matrix with the
    R diagonal phase-fixed.  Deterministic for a seeded generator."""
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))[None, :]
