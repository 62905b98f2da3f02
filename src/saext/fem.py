"""Piecewise-linear basis adapted to the boundary condition, and assembly
of the hermitian matrix pencil (A, B).

Two families of basis functions span the approximation space.  Bulk
functions are the usual interior hat functions, indexed by their peak node
k = 2 .. r_alpha - 1; they vanish at and next to every endpoint, so they
satisfy any boundary condition trivially.  Boundary functions are
delocalized: function i peaks (value 1) at the node adjacent to endpoint i
and takes endpoint values from column i of the solved boundary-value
matrix, so the span satisfies the boundary condition non-trivially.

Global ordering per interval: left boundary function, bulk functions in
node order, right boundary function; intervals concatenated.  With this
ordering A and B are tridiagonal except for the rows and columns of the
2n boundary functions: an arrow matrix with O(N) nonzeros, assembled and
stored as ``scipy.sparse`` CSR arrays in vectorized numpy.

The quadratic form behind A is
    Q(f, g) = mu * (<f', g'> - [conj(f) g']_boundary) + <f, V g>,
where the boundary bracket sums conj(f) g' over right endpoints minus left
endpoints with one-sided slopes.  B is the exact mass matrix.  Given the
weighted-hermiticity constraint on the boundary values, Q is hermitian;
assembly mirrors the upper triangle so A = A^H holds exactly, and aborts
if the raw (un-mirrored) boundary block deviates beyond roundoff.
"""

from __future__ import annotations

import bisect
import itertools
from dataclasses import dataclass

import numpy as np
import scipy.sparse

from .boundary import BoundaryCondition, BoundaryValues
from .geometry import Mesh
from .potentials import Potential, ZeroPotential

DEFAULT_QUADRATURE_ORDER = 3

# Raw assembly asymmetry beyond this (relative to the largest entry) means
# the inputs were inconsistent, not mere roundoff.
_CONSISTENCY_TOL = 1e-12


class AssemblyError(RuntimeError):
    """Inconsistent inputs detected while building the pencil."""


@dataclass(frozen=True)
class BasisIndex:
    """Tag of one global basis index: kind is 'bulk' or 'boundary'.

    For bulk: alpha is the interval, k the peak node (2 <= k <= r-1).
    For boundary: i in 0..2n-1, i = 2 alpha for the left end of interval
    alpha, i = 2 alpha + 1 for its right end (k is unused, set to -1).
    """

    kind: str
    alpha: int
    k: int = -1
    i: int = -1


class BasisMap:
    """Bijection between global indices 0..|r|-1 and basis tags.

    Interval alpha owns the r_alpha consecutive indices from its start
    offset on: left boundary function, bulk functions k = 2 .. r_alpha - 1,
    right boundary function.  Only the n start offsets are stored; every
    lookup is arithmetic on them.
    """

    def __init__(self, mesh: Mesh) -> None:
        self.mesh = mesh
        self._starts = (0, *itertools.accumulate(mesh.r[:-1]))

    @property
    def size(self) -> int:
        return self.mesh.dim

    def tag(self, a: int) -> BasisIndex:
        if not 0 <= a < self.size:
            raise IndexError(f"basis index {a} out of range [0, {self.size})")
        alpha = bisect.bisect_right(self._starts, a) - 1
        offset = a - self._starts[alpha]
        if offset == 0:
            return BasisIndex("boundary", alpha, i=2 * alpha)
        if offset == self.mesh.r[alpha] - 1:
            return BasisIndex("boundary", alpha, i=2 * alpha + 1)
        return BasisIndex("bulk", alpha, k=offset + 1)

    def bulk_index(self, alpha: int, k: int) -> int:
        r_alpha = self.mesh.r[alpha]
        if not 2 <= k <= r_alpha - 1:
            raise IndexError(
                f"bulk node k = {k} out of range [2, {r_alpha - 1}] on interval {alpha}"
            )
        return self._starts[alpha] + (k - 1)

    def bulk_slice(self, alpha: int) -> slice:
        """Global indices of the bulk functions k = 2 .. r_alpha - 1 of
        interval alpha, in node order."""
        start = self._starts[alpha]
        return slice(start + 1, start + self.mesh.r[alpha] - 1)

    def boundary_index(self, i: int) -> int:
        n = self.mesh.n
        if not 0 <= i < 2 * n:
            raise IndexError(f"boundary function index {i} out of range [0, {2 * n})")
        alpha, side = divmod(i, 2)
        if side == 0:
            return self._starts[alpha]
        return self._starts[alpha] + self.mesh.r[alpha] - 1

    def boundary_indices(self) -> np.ndarray:
        return np.array([self.boundary_index(i) for i in range(2 * self.mesh.n)])


@dataclass(frozen=True)
class Pencil:
    """Hermitian generalized eigenvalue problem A Phi = lambda B Phi.

    ``a`` and ``b`` are always ``scipy.sparse`` CSR arrays; dense inputs of
    hand-built pencils are converted on construction.  Both are float64
    when neither has an entry with a nonzero imaginary part, and
    complex128 otherwise; the eigensolver works in their dtype.  ``basis``
    is None for hand-built pencils that do not come from an assembly; the
    eigensolver then uses its dense path.  ``v_min`` is the smallest value
    of V at the quadrature points (0 for V = 0 and for hand-built
    pencils); the sparse eigensolver starts its shift search below it.
    """

    a: scipy.sparse.csr_array
    b: scipy.sparse.csr_array
    mesh: Mesh
    basis: BasisMap | None
    mu: float
    v_min: float = 0.0

    def __post_init__(self) -> None:
        a, b = (scipy.sparse.csr_array(m, dtype=complex) for m in (self.a, self.b))
        if not (np.any(a.data.imag) or np.any(b.data.imag)):
            # copies: .real is a view that would keep the complex data alive
            a, b = a.real.copy(), b.real.copy()
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    @property
    def dim(self) -> int:
        return self.a.shape[0]


def eval_bulk(mesh: Mesh, alpha: int, k: int, x):
    """Value of the bulk hat function peaking at node k of interval alpha."""
    r_alpha = mesh.r[alpha]
    if not 2 <= k <= r_alpha - 1:
        raise IndexError(
            f"bulk node k = {k} out of range [2, {r_alpha - 1}] on interval {alpha}"
        )
    a, b = mesh.parent.intervals[alpha]
    x = np.asarray(x, dtype=float)
    if np.any(x < a) or np.any(x > b):
        raise ValueError(f"coordinate outside interval {alpha} = [{a}, {b}]")
    h = mesh.h[alpha]
    xk = mesh.nodes[alpha][k]
    return np.maximum(0.0, 1.0 - np.abs(x - xk) / h)


def boundary_node_values(mesh: Mesh, bvals: BoundaryValues, i: int,
                         alpha: int) -> np.ndarray:
    """Node values of boundary function i restricted to interval alpha."""
    r_alpha = mesh.r[alpha]
    vals = np.zeros(r_alpha + 2, dtype=complex)
    vals[0] = bvals.v[2 * alpha, i]
    vals[r_alpha + 1] = bvals.v[2 * alpha + 1, i]
    if i == 2 * alpha:
        vals[1] = 1.0
    if i == 2 * alpha + 1:
        vals[r_alpha] = 1.0
    return vals


def eval_boundary(mesh: Mesh, bvals: BoundaryValues, i: int, alpha: int, x):
    """Value of boundary function i at coordinates x inside interval alpha."""
    n = mesh.n
    if not 0 <= i < 2 * n:
        raise IndexError(f"boundary function index {i} out of range [0, {2 * n})")
    a, b = mesh.parent.intervals[alpha]
    x = np.asarray(x, dtype=float)
    if np.any(x < a) or np.any(x > b):
        raise ValueError(f"coordinate outside interval {alpha} = [{a}, {b}]")
    vals = boundary_node_values(mesh, bvals, i, alpha)
    h = mesh.h[alpha]
    s = (x - a) / h
    j = np.clip(np.floor(s).astype(int), 0, mesh.r[alpha])
    t = s - j
    return vals[j] * (1.0 - t) + vals[j + 1] * t


def _element_potential(potential: Potential, mesh: Mesh, alpha: int,
                       t_ref: np.ndarray, gauss_w: np.ndarray):
    """Gauss-quadrature moments int V phi_a phi_b of every element of
    interval alpha, with phi_0 = 1 - t and phi_1 = t the two linear shapes.

    V is evaluated once on the (elements x points) array of abscissae.
    Returns (p00, p01, p11, min V), each moment an array over elements.
    """
    h = mesh.h[alpha]
    xq = mesh.nodes[alpha][:-1, None] + h * t_ref[None, :]
    vq = np.asarray(potential.value(alpha, xq), dtype=float)
    if not np.all(np.isfinite(vq)):
        raise AssemblyError(
            f"potential is not finite at a quadrature point of interval {alpha}"
        )
    wv = (h / 2.0) * gauss_w[None, :] * vq
    return (wv @ (1.0 - t_ref) ** 2, wv @ ((1.0 - t_ref) * t_ref),
            wv @ t_ref ** 2, float(np.min(vq)))


def _hermitian_from_upper(rows, cols, vals, dim: int) -> scipy.sparse.csr_array:
    """Exactly hermitian CSR matrix from upper-triangle entries (duplicates
    summed): the strict upper part, its conjugate mirror and the real part
    of the diagonal, built in one COO -> CSR pass.  Entries that sum to zero
    are not stored."""
    upper = scipy.sparse.coo_array(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(dim, dim),
    )
    upper.sum_duplicates()
    r, c, v = upper.row, upper.col, upper.data
    strict = (r < c) & (v != 0)
    diag = (r == c) & (v.real != 0)
    return scipy.sparse.csr_array(
        (np.concatenate([v[strict], v[strict].conj(), v[diag].real]),
         (np.concatenate([r[strict], c[strict], r[diag]]),
          np.concatenate([c[strict], r[strict], c[diag]]))),
        shape=(dim, dim),
    )


def assemble_pencil(
    mesh: Mesh,
    bc: BoundaryCondition,
    bvals: BoundaryValues,
    potential: Potential | None = None,
    quadrature_order: int = DEFAULT_QUADRATURE_ORDER,
    mu: float = 1.0,
) -> Pencil:
    """Assemble the hermitian pencil (A, B) for -mu d^2/dx^2 + V.

    The potential term uses Gauss-Legendre quadrature of the given order on
    every subinterval; stiffness and mass use the exact closed forms for
    piecewise-linear elements.

    The interior elements 1 .. r_alpha - 1 of each interval join two nodes
    owned by consecutive basis functions and give the tridiagonal part.  The
    two extreme elements carry every boundary function; they and the
    Lagrange bracket give the dense 2n x 2n boundary block, which is the
    only part checked for raw hermiticity (the tridiagonal part is real
    symmetric by construction).  A and B are built from their upper
    triangles and mirrored, so A = A^H and B = B^H hold exactly.

    Raises
    ------
    AssemblyError
        On mismatched inputs, a mass factor that is not a positive finite
        number, a potential that is not finite at a quadrature point, a
        violated weighted-hermiticity constraint, or a raw boundary block
        that is not hermitian to roundoff.
    """
    if potential is None:
        potential = ZeroPotential()
    if not (np.isfinite(mu) and mu > 0):
        raise AssemblyError(f"mass factor mu must be positive and finite, got {mu}")
    mu = float(mu)
    if bc.n != mesh.n:
        raise AssemblyError(f"boundary condition n = {bc.n}, mesh n = {mesh.n}")
    if bvals.v.shape != (2 * mesh.n, 2 * mesh.n):
        raise AssemblyError(
            f"boundary values have shape {bvals.v.shape}, expected "
            f"{(2 * mesh.n, 2 * mesh.n)}"
        )
    if not np.array_equal(bvals.h, mesh.h_endpoint):
        raise AssemblyError("boundary values were solved on a different mesh")
    if not np.array_equal(bvals.g, bvals.g.conj().T):
        raise AssemblyError(
            "boundary values violate the weighted hermiticity constraint; "
            "solve them through solve_boundary_values"
        )

    basis = BasisMap(mesh)
    two_n = 2 * mesh.n
    unit = np.eye(two_n)
    skip_potential = isinstance(potential, ZeroPotential)
    if not skip_potential:
        gauss_x, gauss_w = np.polynomial.legendre.leggauss(int(quadrature_order))
        t_ref = (gauss_x + 1.0) / 2.0  # quadrature abscissae on [0, 1]
    v_min = 0.0 if skip_potential else np.inf

    # Lagrange boundary bracket, nonzero only on the boundary block:
    # [conj(beta_l) beta_m']_boundary = (G^H V - G^H)[l, m] = (G V - G)[l, m]
    # since G is exactly hermitian.
    a_block = -mu * (bvals.g @ bvals.v - bvals.g)
    b_block = np.zeros((two_n, two_n), dtype=complex)
    rows, cols, a_tri, b_tri = [], [], [], []
    for alpha, r_alpha in enumerate(mesh.r):
        h = mesh.h[alpha]
        if skip_potential:
            p00 = p01 = p11 = np.zeros(r_alpha + 1)
        else:
            p00, p01, p11, v_low = _element_potential(
                potential, mesh, alpha, t_ref, gauss_w
            )
            v_min = min(v_min, v_low)
        stiff = mu / h

        # Element e = 1 .. r_alpha - 1 joins nodes e and e + 1, whose hats are
        # the basis functions start + e - 1 and start + e.
        idx = basis.boundary_index(2 * alpha) + np.arange(r_alpha)
        a_diag = np.zeros(r_alpha)
        a_diag[:-1] += stiff + p00[1:-1]
        a_diag[1:] += stiff + p11[1:-1]
        b_diag = np.zeros(r_alpha)
        b_diag[:-1] += 2.0 * h / 6.0
        b_diag[1:] += 2.0 * h / 6.0
        rows += [idx, idx[:-1]]
        cols += [idx, idx[1:]]
        a_tri += [a_diag, -stiff + p01[1:-1]]
        b_tri += [b_diag, np.full(r_alpha - 1, h / 6.0)]

        # Element 0 runs from the endpoint values V[2 alpha, :] to the unit
        # peak of function 2 alpha; element r_alpha from the peak of
        # function 2 alpha + 1 to the endpoint values V[2 alpha + 1, :].
        for e, left, right in (
            (0, bvals.v[2 * alpha], unit[2 * alpha]),
            (r_alpha, unit[2 * alpha + 1], bvals.v[2 * alpha + 1]),
        ):
            lc, rc = left.conj(), right.conj()
            ll, lr = np.outer(lc, left), np.outer(lc, right)
            rl, rr = np.outer(rc, left), np.outer(rc, right)
            b_block += (h / 6.0) * (2.0 * ll + lr + rl + 2.0 * rr)
            a_block += (stiff * (ll - lr - rl + rr) + p00[e] * ll
                        + p01[e] * (lr + rl) + p11[e] * rr)

    for name, raw, tri in (("A", a_block, a_tri), ("B", b_block, b_tri)):
        scale = max(1.0, float(np.max(np.abs(raw))),
                    max(float(np.max(np.abs(t))) for t in tri))
        defect = float(np.max(np.abs(raw - raw.conj().T)))
        if not defect <= _CONSISTENCY_TOL * scale:
            raise AssemblyError(
                f"raw {name} assembly is non-hermitian beyond roundoff "
                f"(defect {defect:.3e}, scale {scale:.3e})"
            )

    bidx = basis.boundary_indices()
    iu, ju = np.triu_indices(two_n)
    rows.append(bidx[iu])
    cols.append(bidx[ju])
    a = _hermitian_from_upper(rows, cols, a_tri + [a_block[iu, ju]], basis.size)
    b = _hermitian_from_upper(rows, cols, b_tri + [b_block[iu, ju]], basis.size)
    return Pencil(a=a, b=b, mesh=mesh, basis=basis, mu=mu, v_min=float(v_min))
