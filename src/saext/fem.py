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
ordering A and B are arrow matrices with O(N) nonzeros: the bulk functions
form a real symmetric tridiagonal block, joined by a real border (one entry
next to each boundary function's peak) to the hermitian 2n x 2n block of
the boundary functions.  This module alone knows that order
(:func:`boundary_indices`, :func:`node_values`).  Assembly returns these
blocks, their basis order and min V as :class:`ArrowBlocks`, which the
eigensolver uses for its inertia count and its shifted solves (they
eliminate the blocks, :func:`arrow_schur`).  :meth:`ArrowBlocks.pencil`
builds the ``scipy.sparse`` CSR arrays of the pencil from the blocks, for
factorizations, matrix-vector products, the dense path and
``--dump-pencil``, and the pencil carries the blocks.

Only the boundary block depends on U.  The bands, the border, the
potential moments of the extreme elements and min V depend only on the
mesh, V and mu: :class:`BulkAssembly` computes them once.
:meth:`BulkAssembly.arrow` builds the boundary block of one set of boundary
values and returns it with the shared bands as :class:`ArrowBlocks`;
:meth:`BulkAssembly.pencil` is its :meth:`ArrowBlocks.pencil`.
:func:`assemble_pencil` builds the bulk part and one pencil in one call.
The stability sweep builds the boundary blocks of all its U at once, from
the (m, 2n, 2n) stacks of their boundary values
(``BulkAssembly._arrow_stack``, of which :meth:`BulkAssembly.arrow` is the
stack of one), and CSR arrays only for its base pencil and for a perturbed
pencil that the eigensolver hands to its cold path.

The quadratic form behind A is
    Q(f, g) = mu * (<f', g'> - [conj(f) g']_boundary) + <f, V g>,
where the boundary bracket sums conj(f) g' over right endpoints minus left
endpoints with one-sided slopes.  B is the exact mass matrix.  Given the
weighted-hermiticity constraint on the boundary values, Q is hermitian;
assembly mirrors the upper triangle of the boundary block so A = A^H holds
exactly, and aborts if the raw (un-mirrored) boundary block deviates
beyond roundoff.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy

from .boundary import AssemblyError, BoundaryCondition, BoundaryValues, _adjoint
from .geometry import Mesh
from .potentials import Potential, ZeroPotential

# Raw assembly asymmetry beyond this (relative to the largest entry) means
# the inputs were inconsistent, not mere roundoff.
_CONSISTENCY_TOL = 1e-12


def boundary_indices(mesh: Mesh) -> np.ndarray:
    """Global indices of the boundary functions i = 0 .. 2n - 1.

    Interval alpha owns r_alpha consecutive indices: its left boundary
    function, its bulk functions k = 2 .. r_alpha - 1 in node order, its
    right boundary function.  So the coefficient of the function peaking at
    interior node k of interval alpha is the global coefficient
    sum(r[:alpha]) + k - 1.
    """
    ends = np.cumsum(mesh.r)
    return np.column_stack([ends - mesh.r, ends - 1]).ravel()


def node_values(mesh: Mesh, bvals: BoundaryValues,
                coeffs: np.ndarray) -> list[np.ndarray]:
    """Node values of sum_a coeffs[a] f_a on every interval, endpoints
    included.

    The interior node values are the coefficients themselves, in global
    order; the endpoint values are sum_i c_i V[:, i] over the boundary
    coefficients c_i != 0.
    """
    boundary = coeffs[boundary_indices(mesh)]
    ends = np.zeros(2 * mesh.n, dtype=complex)
    for i in np.flatnonzero(boundary):
        ends += boundary[i] * bvals.v[:, i]
    interior = np.zeros(mesh.dim, dtype=complex)
    interior += coeffs  # -0 parts read +0, as in a sum over basis functions
    return [np.concatenate(([ends[2 * alpha]], part, [ends[2 * alpha + 1]]))
            for alpha, part in enumerate(np.split(interior, np.cumsum(mesh.r)[:-1]))]


def arrow_schur(diag, upper, border, corner, rhs=None):
    """Eliminate the bulk block of the hermitian arrow matrix
    [[T, E], [E^T, C]] with T = tridiag(upper, diag, upper) and E real.

    Returns (S, T^{-1} E, T^{-1} rhs) with S = C - E^T T^{-1} E; ``rhs``,
    one vector over the bulk rows, is optional, and without it the last
    entry is None.  One LAPACK ``dgtsv`` call (Gaussian elimination with
    partial pivoting) solves for the border and the real and imaginary
    parts of ``rhs`` as its columns.

    Raises
    ------
    numpy.linalg.LinAlgError
        When T has an exactly zero pivot.
    """
    if not diag.size:
        return corner, border, rhs
    columns = [border]
    if rhs is not None:
        columns += [rhs.real, rhs.imag] if np.iscomplexobj(rhs) else [rhs]
    *_, solved, info = scipy.linalg.lapack.dgtsv(upper, diag, upper,
                                                 np.column_stack(columns))
    if info > 0:
        raise np.linalg.LinAlgError(f"bulk block is singular: pivot {info} is zero")
    if info < 0:
        raise ValueError(f"dgtsv rejected argument {-info}")
    two_n = border.shape[1]
    t_border = solved[:, :two_n]
    schur = corner - border.T @ t_border
    if rhs is None:
        return schur, t_border, None
    t_rhs = solved[:, two_n]
    if np.iscomplexobj(rhs):
        t_rhs = t_rhs + 1j * solved[:, two_n + 1]
    return schur, t_border, t_rhs


@dataclass(frozen=True, eq=False)
class ArrowBlocks:
    """An assembled pencil (A, B) as its arrow blocks, with the basis order
    they use and min V; :meth:`pencil` builds the CSR arrays of A and B.

    ``a`` and ``b`` each hold the blocks (diag, upper, border, corner) of
    one hermitian arrow matrix.  ``diag`` and ``upper`` are the diagonal
    and superdiagonal of the real symmetric tridiagonal block T of the bulk
    functions, in global order (``upper`` is 0 between the last bulk
    function of one interval and the first of the next).  ``border`` is the
    real bulk x boundary block E and ``corner`` the hermitian 2n x 2n
    boundary block C, both with boundary functions in order
    i = 0 .. 2n - 1; C has the pencil's dtype.  Every set of blocks one
    :class:`BulkAssembly` builds holds the same read-only arrays for
    diag, upper and border.  ``order`` lists the global
    index of every row of the arrow matrix: the bulk functions, then the
    boundary functions.  ``v_min`` is the smallest value of V at the
    quadrature points (0 for V = 0).
    """

    a: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]
    b: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]
    order: np.ndarray
    v_min: float

    def minus(self, x: float) -> tuple[np.ndarray, ...]:
        """The blocks (diag, upper, border, corner) of A - x B."""
        return tuple(p - x * q for p, q in zip(self.a, self.b))

    def solve(self, x: float, rhs: np.ndarray) -> np.ndarray:
        """(A - x B)^{-1} rhs for one vector ``rhs`` in global basis order.

        :func:`arrow_schur` eliminates the bulk block T(x) of A - x B; the
        2n x 2n Schur complement S(x) is then solved by LAPACK's ``gesv``
        and the bulk part recovered from T(x)^{-1} rhs - T(x)^{-1} E z.

        Raises
        ------
        numpy.linalg.LinAlgError
            When T(x) or S(x) has an exactly zero pivot.
        """
        diag, upper, border, corner = self.minus(x)
        arrow_rhs = rhs[self.order]
        bulk = diag.size
        schur, t_border, t_rhs = arrow_schur(diag, upper, border, corner,
                                             arrow_rhs[:bulk])
        tail = arrow_rhs[bulk:] - border.T @ t_rhs
        gesv = (scipy.linalg.lapack.zgesv if np.iscomplexobj(schur)
                or np.iscomplexobj(tail) else scipy.linalg.lapack.dgesv)
        *_, z, info = gesv(schur, tail)
        if info > 0:
            raise np.linalg.LinAlgError(
                f"boundary Schur complement is singular: pivot {info} is zero")
        if info < 0:
            raise ValueError(f"gesv rejected argument {-info}")
        out = np.empty(rhs.shape, dtype=z.dtype)
        out[self.order] = np.concatenate([t_rhs - t_border @ z, z])
        return out

    def boundary_response(self, x: float) -> np.ndarray:
        """The real dim x 2n block R(x) = [-T(x)^{-1} E(x); I] of the
        boundary responses, with rows in global basis order.

        Column i has the boundary coefficients e_i and the bulk part that
        makes the bulk rows of (A - x B) R(x) vanish; the boundary rows of
        (A - x B) R(x) are the Schur complement S(x) of :func:`arrow_schur`.
        The bulk part x_b of an eigenvector at level lambda solves
        T(lambda) x_b = -E(lambda) x_c, so the eigenvector is R(lambda) x_c.
        Only T and E enter, and they do not depend on U.

        Raises
        ------
        numpy.linalg.LinAlgError
            When T(x) has an exactly zero pivot.
        """
        _, t_border, _ = arrow_schur(*self.minus(x))
        two_n = t_border.shape[1]
        out = np.empty((self.order.size, two_n))
        out[self.order] = np.vstack([-t_border, np.eye(two_n)])
        return out

    def pencil(self) -> Pencil:
        """The pencil of these blocks: the CSR arrays of A and B, which
        carry the blocks as their ``arrow``.

        Each entry of the bands and the border is written once, at
        (min, max) of its global (row, col), and its mirror as its
        conjugate; the boundary block is written whole.  Entries that are
        exactly zero are dropped.
        """
        bulk = self.a[0].size
        rows = np.arange(bulk)
        bidx = self.order[bulk:]
        matrices = []
        for diag, upper, border, corner in (self.a, self.b):
            side_row, side_col = np.nonzero(border)
            i = self.order[np.concatenate([rows, rows[:-1], side_row])]
            j = self.order[np.concatenate([rows, rows[1:], bulk + side_col])]
            i, j = np.minimum(i, j), np.maximum(i, j)
            vals = np.concatenate([diag, upper, border[side_row, side_col]])
            vals = vals.astype(corner.dtype)
            strict = i != j
            matrix = scipy.sparse.csr_array(
                (np.concatenate([vals, vals[strict].conj(), corner.ravel()]),
                 (np.concatenate([i, j[strict], np.repeat(bidx, bidx.size)]),
                  np.concatenate([j, i[strict], np.tile(bidx, bidx.size)]))),
                shape=(self.order.size,) * 2)
            matrix.eliminate_zeros()
            matrices.append(matrix)
        # the arrays are new, and the corner gave them the dtype that
        # Pencil's rule picks: the pencil takes them without Pencil's copy
        pencil = object.__new__(Pencil)
        for name, value in zip(("a", "b", "arrow"), (*matrices, self)):
            object.__setattr__(pencil, name, value)
        return pencil


@dataclass(frozen=True)
class Pencil:
    """Hermitian generalized eigenvalue problem A Phi = lambda B Phi.

    ``a`` and ``b`` are always ``scipy.sparse`` CSR arrays of their own:
    construction copies each input once (converting a dense or other
    sparse one), with its stored entries as given, and
    :meth:`ArrowBlocks.pencil` hands over the arrays it has just built
    without that copy.  Both are float64
    when neither has an entry with a nonzero imaginary part, and
    complex128 otherwise; the eigensolver works in their dtype.  ``arrow``
    holds the :class:`ArrowBlocks` from which :meth:`ArrowBlocks.pencil`
    built the CSR arrays; only assembly sets it, and it is None for
    hand-built pencils, which the eigensolver solves on its dense path.
    """

    a: scipy.sparse.csr_array
    b: scipy.sparse.csr_array
    arrow: ArrowBlocks | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        a, b = (scipy.sparse.csr_array(m, copy=True) for m in (self.a, self.b))
        real = not any(np.iscomplexobj(m.data) and np.any(m.data.imag) for m in (a, b))
        for name, m in (("a", a), ("b", b)):
            # .real of complex data is a view, which would keep it alive
            m.data = np.ascontiguousarray(m.data.real if real else m.data,
                                          dtype=float if real else complex)
            object.__setattr__(self, name, m)

    @property
    def dim(self) -> int:
        return self.a.shape[0]


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


def _frozen(array: np.ndarray) -> np.ndarray:
    """``array``, made read-only: the bands are shared by every pencil of a
    sweep, and every block must keep matching its pencil's CSR arrays."""
    array.flags.writeable = False
    return array


class BulkAssembly:
    """The part of the pencil (A, B) for -mu d^2/dx^2 + V that does not
    depend on U, built once for one mesh, potential and mass factor.

    The potential term uses three-point Gauss-Legendre quadrature on every
    subinterval; stiffness and mass use the exact closed forms for
    piecewise-linear elements.  The interior elements 1 .. r_alpha - 1 of
    each interval join two nodes owned by consecutive basis functions and
    give the tridiagonal bands: the bulk block, the border and the
    U-independent entries of the boundary block.  The two extreme
    elements carry every boundary function through its endpoint values;
    their potential moments are kept for :meth:`arrow`, which adds them and
    the Lagrange bracket as the boundary block of one set of boundary
    values.

    :class:`Pencil` chooses the dtype, and the boundary blocks follow it.

    Raises
    ------
    AssemblyError
        On a mass factor that is not a positive finite number or a
        potential that is not finite at a quadrature point.
    """

    def __init__(
        self,
        mesh: Mesh,
        potential: Potential | None = None,
        mu: float = 1.0,
    ) -> None:
        if potential is None:
            potential = ZeroPotential()
        if not (np.isfinite(mu) and mu > 0):
            raise AssemblyError(f"mass factor mu must be positive and finite, got {mu}")
        self.mesh = mesh
        self.mu = mu = float(mu)
        bidx = boundary_indices(mesh)
        gauss_x, gauss_w = np.polynomial.legendre.leggauss(3)
        t_ref = (gauss_x + 1.0) / 2.0  # quadrature abscissae on [0, 1]
        v_min = np.inf

        # per interval: h, mu / h and the moments (p00, p01, p11) of the
        # elements 0 and r_alpha
        self._ends = []
        rows, cols, a_tri, b_tri = [], [], [], []
        for alpha, r_alpha in enumerate(mesh.r):
            h = mesh.h[alpha]
            p00, p01, p11, v_low = _element_potential(potential, mesh, alpha,
                                                      t_ref, gauss_w)
            v_min = min(v_min, v_low)
            stiff = mu / h
            self._ends.append((h, stiff, p00[[0, -1]], p01[[0, -1]], p11[[0, -1]]))

            # Element e = 1 .. r_alpha - 1 joins nodes e and e + 1, whose hats
            # are the basis functions start + e - 1 and start + e, from the
            # interval's left boundary function start = bidx[2 alpha] on.
            idx = bidx[2 * alpha] + np.arange(r_alpha)
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
        self.v_min = float(v_min)

        # rows, cols and the band values list the upper triangle of the
        # tridiagonal part the interior elements give.  Split it by where
        # row and column lie: bulk block, border or boundary block.
        dim = mesh.dim
        local = np.full(dim, -1)
        local[bidx] = np.arange(bidx.size)
        bulk = np.flatnonzero(local < 0)
        position = np.zeros(dim, dtype=int)
        position[bulk] = np.arange(bulk.size)
        rows, cols = np.concatenate(rows), np.concatenate(cols)
        bulk_row, bulk_col = local[rows] < 0, local[cols] < 0
        in_corner = ~bulk_row & ~bulk_col
        on_diag = bulk_row & bulk_col & (rows == cols)
        on_upper = bulk_row & bulk_col & (rows != cols)
        row_side = bulk_row & ~bulk_col  # bulk row, boundary column
        col_side = ~bulk_row & bulk_col
        self._tri_corner = (local[rows[in_corner]], local[cols[in_corner]])
        self._upper = np.triu_indices(bidx.size, 1)
        self._diagonal = np.diag_indices(bidx.size)
        self._order = _frozen(np.concatenate([bulk, bidx]))

        # per matrix, A's then B's: the (diag, upper, border) of its arrow
        # blocks, its band entries inside the boundary block and, for the
        # hermiticity gate, max(1, largest band entry)
        self._bands, corner_from_bands, scale_floor = [], [], []
        for tri in (a_tri, b_tri):
            vals = np.concatenate(tri)
            diag = np.zeros(bulk.size)
            diag[position[rows[on_diag]]] = vals[on_diag]
            upper = np.zeros(max(bulk.size - 1, 0))
            upper[position[rows[on_upper]]] = vals[on_upper]
            border = np.zeros((bulk.size, bidx.size))
            border[position[rows[row_side]], local[cols[row_side]]] = vals[row_side]
            border[position[cols[col_side]], local[rows[col_side]]] = vals[col_side]
            self._bands.append(tuple(_frozen(m) for m in (diag, upper, border)))
            corner_from_bands.append(vals[in_corner])
            scale_floor.append(max(1.0, *(float(np.max(np.abs(t))) for t in tri)))
        self._corner_from_bands = np.array(corner_from_bands)[:, None, :]
        self._scale_floor = np.array(scale_floor)[:, None]

    def arrow(self, bc: BoundaryCondition, bvals: BoundaryValues) -> ArrowBlocks:
        """The arrow blocks of the pencil of boundary condition ``bc`` with
        its solved boundary values ``bvals``: this bulk part's bands, shared
        by every set of blocks it builds, and the boundary block of
        ``bvals``.

        The boundary block is the Lagrange bracket plus the two extreme
        elements of every interval; it is the only part checked for raw
        hermiticity (the rest is real symmetric by construction), and it is
        built from its upper triangle and mirrored, so A = A^H and B = B^H
        hold exactly.  Both corners are float64 when neither has an entry
        with a nonzero imaginary part, the dtype :class:`Pencil` picks for
        the CSR arrays of :meth:`ArrowBlocks.pencil`, and complex128
        otherwise.

        Raises
        ------
        AssemblyError
            On boundary values of another mesh or size, a violated
            weighted-hermiticity constraint, or a raw boundary block that is
            not hermitian to roundoff.
        """
        mesh, two_n = self.mesh, 2 * self.mesh.n
        if bc.n != mesh.n:
            raise AssemblyError(f"boundary condition n = {bc.n}, mesh n = {mesh.n}")
        if bvals.v.shape != (two_n, two_n):
            raise AssemblyError(
                f"boundary values have shape {bvals.v.shape}, expected "
                f"{(two_n, two_n)}"
            )
        if not np.array_equal(bvals.h, mesh.h_endpoint):
            raise AssemblyError("boundary values were solved on a different mesh")
        return self._arrow_stack(bvals.v[None], bvals.g[None])[0]

    def _arrow_stack(self, v: np.ndarray, g: np.ndarray) -> list[ArrowBlocks]:
        """:meth:`arrow` of each set of boundary values (V, G) of the
        stacks ``v`` and ``g`` (m, 2n, 2n), solved on this mesh, with the
        boundary blocks built as one stack: the same operations as for one
        set, element by element, so each set of blocks is bitwise the one
        :meth:`arrow` gives.  The weighted-hermiticity check runs over the
        stack before the build, and the raw hermiticity gate after it.

        Raises
        ------
        AssemblyError
            As :meth:`arrow`'s gates on G and on the raw boundary block,
            for the first set of values that fails.
        """
        mesh, mu = self.mesh, self.mu
        two_n = 2 * mesh.n
        if not np.array_equal(g, _adjoint(g)):
            raise AssemblyError(
                "boundary values violate the weighted hermiticity constraint; "
                "solve them through solve_boundary_values"
            )

        unit = np.eye(two_n)
        # Lagrange boundary bracket, nonzero only on the boundary block:
        # [conj(beta_l) beta_m']_boundary = (G^H V - G^H)[l, m] = (G V - G)[l, m]
        # since G is exactly hermitian.
        a_block = -mu * (g @ v - g)
        b_block = np.zeros(v.shape, dtype=complex)
        for alpha, (h, stiff, p00, p01, p11) in enumerate(self._ends):
            # Element 0 runs from the endpoint values V[2 alpha, :] to the
            # unit peak of function 2 alpha; element r_alpha from the peak of
            # function 2 alpha + 1 to the endpoint values V[2 alpha + 1, :].
            for e, left, right in (
                (0, v[:, 2 * alpha], unit[2 * alpha]),
                (1, unit[2 * alpha + 1], v[:, 2 * alpha + 1]),
            ):
                lc, rc = left.conj()[..., :, None], right.conj()[..., :, None]
                left, right = left[..., None, :], right[..., None, :]
                ll, lr, rl, rr = lc * left, lc * right, rc * left, rc * right
                b_block += (h / 6.0) * (2.0 * ll + lr + rl + 2.0 * rr)
                a_block += (stiff * (ll - lr - rl + rr) + p00[e] * ll
                            + p01[e] * (lr + rl) + p11[e] * rr)

        raws = np.stack([a_block, b_block])  # A's, then B's
        # the scale max(1, largest band entry, max |raw|), a NaN left out
        scales = np.fmax(np.max(np.abs(raws), axis=(-2, -1)), self._scale_floor)
        defects = np.max(np.abs(raws - _adjoint(raws)), axis=(-2, -1))
        passed = defects <= _CONSISTENCY_TOL * scales
        if not passed.all():
            i = int(np.argmin(passed.all(axis=0)))  # the first failing pencil
            k = int(np.argmin(passed[:, i]))  # A before B
            raise AssemblyError(
                f"raw {'AB'[k]} assembly is non-hermitian beyond roundoff "
                f"(defect {defects[k, i]:.3e}, scale {scales[k, i]:.3e})"
            )

        (iu, ju), (di, dj) = self._upper, self._diagonal
        tri_i, tri_j = self._tri_corner
        raws[..., tri_i, tri_j] += self._corner_from_bands
        corners = np.zeros_like(raws)
        corners[..., iu, ju] = raws[..., iu, ju]
        corners[..., ju, iu] = raws[..., iu, ju].conj()
        corners[..., di, dj] = raws[..., di, dj].real

        real = ~np.any(corners.imag, axis=(0, -2, -1))
        a_bands, b_bands = self._bands
        out = []
        for i, is_real in enumerate(real):
            a, b = corners[:, i].real.copy() if is_real else corners[:, i]
            out.append(ArrowBlocks((*a_bands, _frozen(a)), (*b_bands, _frozen(b)),
                                   self._order, self.v_min))
        return out

    def pencil(self, bc: BoundaryCondition, bvals: BoundaryValues) -> Pencil:
        """The pencil of boundary condition ``bc`` with its solved boundary
        values ``bvals``: :meth:`ArrowBlocks.pencil` of :meth:`arrow`.

        Raises
        ------
        AssemblyError
            As :meth:`arrow`.
        """
        return self.arrow(bc, bvals).pencil()


def assemble_pencil(
    mesh: Mesh,
    bc: BoundaryCondition,
    bvals: BoundaryValues,
    potential: Potential | None = None,
    mu: float = 1.0,
) -> Pencil:
    """Assemble the hermitian pencil (A, B) for -mu d^2/dx^2 + V: the
    :class:`BulkAssembly` of (mesh, V, mu) completed with the boundary
    block of ``bvals``.

    Raises
    ------
    AssemblyError
        On mismatched inputs, a mass factor that is not a positive finite
        number, a potential that is not finite at a quadrature point, a
        violated weighted-hermiticity constraint, or a raw boundary block
        that is not hermitian to roundoff.
    """
    return BulkAssembly(mesh, potential, mu).pencil(bc, bvals)
