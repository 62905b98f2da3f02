"""Independent oracles and generators shared by the test modules.

These deliberately avoid the library's own code paths wherever they are
used to check one: the characteristic-polynomial eigenvalue solver, the
permutation-matrix ordering oracle and the brute-force quadrature all go
through generic numpy/scipy machinery only.
"""

from __future__ import annotations

import cmath
import csv
import math
import warnings

import numpy as np
import scipy.integrate
import scipy.linalg
import scipy.optimize
import scipy.sparse

from saext import eigen, fem, spectral
from saext.eigen import DEGENERACY_RTOL, RESIDUAL_RTOL
from saext.potentials import ZeroPotential
from saext.spectral import FundamentalTraces


def hermitize(m: np.ndarray) -> np.ndarray:
    """Exactly hermitian part of a matrix (exact in IEEE arithmetic)."""
    return (m + m.conj().T) / 2.0


def random_hermitian(dim: int, rng: np.random.Generator) -> np.ndarray:
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return hermitize(z)


def random_spd(dim: int, rng: np.random.Generator, shift: float = 0.5) -> np.ndarray:
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return hermitize(z @ z.conj().T) + shift * np.eye(dim)


def charpoly_eigenvalues(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Generalized eigenvalues as roots of det(A - t B).

    det(A - t B) is a polynomial of degree dim in t; it is recovered by
    exact interpolation at Chebyshev points, fed to the companion-matrix
    root finder, and each root is polished by Newton iteration on the
    determinant (Jacobi's formula: d/dt log det(A - tB) = -tr((A-tB)^-1 B)).
    For a hermitian pencil with B positive definite the roots are real.
    """
    dim = a.shape[0]
    bound = float(np.linalg.norm(np.linalg.solve(b, a), 2)) * 1.25 + 1.0
    ts = np.cos(np.pi * (2 * np.arange(dim + 1) + 1) / (2 * (dim + 1))) * bound
    vals = np.array([np.linalg.det(a - t * b) for t in ts])
    assert np.max(np.abs(vals.imag)) <= 1e-8 * np.max(np.abs(vals))
    coeffs = np.polynomial.polynomial.polyfit(ts, vals.real, dim)
    roots = np.polynomial.polynomial.polyroots(coeffs)
    assert np.max(np.abs(roots.imag)) <= 1e-6 * max(1.0, np.max(np.abs(roots)))
    polished = []
    for t in roots.real:
        for _ in range(8):
            m = a - t * b
            f0 = abs(np.linalg.det(m))
            if f0 == 0.0:
                break
            trace = np.trace(np.linalg.solve(m, b)).real
            if trace == 0.0 or not np.isfinite(trace):
                break
            step = 1.0 / trace
            # a start already at a root makes the solve meaningless and can
            # produce a wild step; genuine polish moves are interp-error sized
            if abs(step) > 1e-4 * (1.0 + abs(t)):
                break
            if abs(np.linalg.det(a - (t + step) * b)) >= f0:
                break
            t = t + step
            if abs(step) <= 1e-14 * max(1.0, abs(t)):
                break
        polished.append(t)
    return np.sort(np.asarray(polished))


def _column_scales(traces: FundamentalTraces) -> np.ndarray:
    """Magnitude scale of each column of M, taken from the traces alone.

    Column (sigma, alpha) of M is a combination of the four traces of
    solution sigma on interval alpha with unitary (hence bounded) weights,
    so their absolute sum bounds the column.  Scaling by this, rather than
    by the columns of M itself, keeps the gate meaningful both where the
    traces grow exponentially and at multiple eigenvalues, where M can
    collapse entirely.
    """
    n = traces.n
    # np.hypot rounds like the scalar abs(complex); np.abs differs in the last bit.
    t_minus, t_plus = (np.hypot(t.real, t.imag)
                       for t in (traces.trace_matrix(-1), traces.trace_matrix(+1)))
    # (n, 2) sums indexed [alpha, sigma]; column sigma * n + alpha of M.
    scales = t_minus[:n] + t_minus[n:] + t_plus[:n] + t_plus[n:]
    return np.maximum(scales.T.ravel(), np.finfo(float).tiny)


def permutation_matrix(sigma: np.ndarray) -> np.ndarray:
    """P with P[sigma[e], e] = 1, so P x_endpoint = x_block."""
    dim = sigma.size
    p = np.zeros((dim, dim))
    p[sigma, np.arange(dim)] = 1.0
    return p


def quad_complex(f, a: float, b: float, **kwargs) -> complex:
    """Adaptive quadrature of a complex-valued integrand."""
    re, _ = scipy.integrate.quad(lambda x: f(x).real, a, b, **kwargs)
    im, _ = scipy.integrate.quad(lambda x: f(x).imag, a, b, **kwargs)
    return complex(re, im)


def weighted_hermitian_values(
    n: int, h_endpoint: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """Random boundary-value matrix satisfying the weighted symmetry
    (1/h_j) conj(V[j, i]) = (1/h_i) V[i, j] exactly."""
    g = random_hermitian(2 * n, rng)
    return h_endpoint[:, None] * g


def rk4_fundamental_loop(potential, alpha, a, b, lam, mu, steps):
    """Fixed-step RK4 for the 2x2 fundamental system, one step at a time.

    The reference for ``rk4_fundamental``: a plain stepping loop with one
    scalar ``potential.value`` call per stage.
    Returns the complex state with rows Psi, Psi' after ``steps`` steps.
    """
    h = (b - a) / steps
    state = np.array([[1.0, 0.0], [0.0, 1.0]], dtype=complex)

    def deriv(x, s):
        q = (float(potential.value(alpha, x)) - lam) / mu
        return np.array([s[1], q * s[0]])

    x = a
    for _ in range(steps):
        k1 = deriv(x, state)
        k2 = deriv(x + h / 2, state + (h / 2) * k1)
        k3 = deriv(x + h / 2, state + (h / 2) * k2)
        k4 = deriv(x + h, state + h * k3)
        state = state + (h / 6) * (k1 + 2 * k2 + 2 * k3 + k4)
        x += h
    return state


def rk4_fundamental(potential, alpha, a, b, lam, mu, steps):
    """Fixed-step RK4 for the 2x2 fundamental system as one product of
    step matrices.

    V is tabulated with one vectorized ``potential.value`` call each at
    x_n, x_n + h/2 and x_n + h (x_n accumulates x += h from a, as
    ``rk4_fundamental_loop`` does).  With A(q) = [[0, 1], [q, 0]] and
    q = (V - lam) / mu at those nodes, one step is the exact linear map
    M_n = I + h/6 (K1 + 2 K2 + 2 K3 + K4), K1 = A(q0),
    K2 = A(q1)(I + h/2 K1), K3 = A(q1)(I + h/2 K2), K4 = A(q2)(I + h K3),
    multiplied out below; the maps are multiplied pairwise in order.
    Returns the complex state with rows Psi, Psi' after ``steps`` steps.
    """
    h = (b - a) / steps
    x = np.add.accumulate(np.concatenate(([a], np.full(steps - 1, h))))
    q0, q1, q2 = ((np.asarray(potential.value(alpha, nodes), dtype=float) - lam) / mu
                  for nodes in (x, x + h / 2, x + h))
    h2 = h * h
    c = 1.0 + (h2 / 4.0) * q0
    d = 1.0 + (h2 / 4.0) * q1
    e = 1.0 + (h2 / 2.0) * q1
    mats = np.empty((steps, 2, 2))
    mats[:, 0, 0] = 1.0 + (h2 / 6.0) * (q0 + q1 + q1 * c)
    mats[:, 0, 1] = h + (h * h2 / 6.0) * q1
    mats[:, 1, 0] = (h / 6.0) * (q0 + 2.0 * q1 + 2.0 * q1 * c + q2 * e)
    mats[:, 1, 1] = 1.0 + (h2 / 6.0) * (2.0 * q1 + q2 * d)
    while mats.shape[0] > 1:
        if mats.shape[0] % 2:
            mats = np.concatenate((mats, np.eye(2)[None]))
        mats = mats[1::2] @ mats[0::2]
    return mats[0].astype(complex)


def rk4_piecewise(potential, alpha, a, b, lam, mu, steps_per_piece):
    """``rk4_fundamental`` run piece by piece between the knots of a
    sampled table inside (a, b), so that no RK4 step straddles a kink of
    V; the pieces' states are multiplied in order."""
    knots = potential.x[(potential.x > a) & (potential.x < b)]
    edges = np.concatenate(([a], knots, [b]))
    state = np.eye(2, dtype=complex)
    for left, right in zip(edges[:-1], edges[1:]):
        state = rk4_fundamental(potential, alpha, left, right, lam, mu,
                                steps_per_piece) @ state
    return state


def magnus6_step_reference(q, h):
    """One sixth-order Magnus step map for Psi' = [[0, 1], [q(x), 0]] Psi,
    from the commutator formula as published and ``scipy.linalg.expm``.

    ``q`` holds q at the step's Gauss nodes 1/2 -+ sqrt(15)/10 and 1/2
    (order: left, middle, right).  With A_i = A(q_i), a1 = h A_2,
    a2 = sqrt(15) h / 3 (A_3 - A_1), a3 = 10 h / 3 (A_3 - 2 A_2 + A_1),
    C1 = [a1, a2], C2 = -[a1, 2 a3 + C1] / 60 and
    Omega = a1 + a3 / 12 + [-20 a1 - a3 + C1, a2 + C2] / 240
    (Blanes, Casas & Ros, BIT 40, 2000); the map is exp(Omega).
    """
    def a(qi):
        return np.array([[0.0, 1.0], [qi, 0.0]])

    def bracket(x, y):
        return x @ y - y @ x

    a_1, a_2, a_3 = (a(qi) for qi in q)
    a1 = h * a_2
    a2 = (np.sqrt(15.0) * h / 3.0) * (a_3 - a_1)
    a3 = (10.0 * h / 3.0) * (a_3 - 2.0 * a_2 + a_1)
    c1 = bracket(a1, a2)
    c2 = -bracket(a1, 2.0 * a3 + c1) / 60.0
    omega = a1 + a3 / 12.0 + bracket(-20.0 * a1 - a3 + c1, a2 + c2) / 240.0
    return scipy.linalg.expm(omega)


def hermitian_from_upper_reference(rows, cols, vals, dim: int):
    """Hermitian CSR matrix from upper-triangle entries by sparse-matrix
    algebra: sum duplicates in a CSR array, then strict upper part plus its
    conjugate transpose plus the real diagonal."""
    upper = scipy.sparse.csr_array(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(dim, dim),
    )
    strict = scipy.sparse.triu(upper, k=1)
    diagonal = scipy.sparse.diags_array(upper.diagonal().real)
    return (strict + strict.conj().T + diagonal).tocsr()


def assert_conjugate_mirror(rows, cols, data, boundary) -> None:
    """Assert the bits of a complex hermitian matrix as assembly stores it,
    given as (row, column, value) entries: every entry below the diagonal
    is the exact conjugate of its mirror image, signs of zero included; the
    diagonal's imaginary parts are +0; and outside the boundary block (row
    or column not in ``boundary``) every entry is real, with imaginary part
    +0 above the diagonal and -0 below."""
    rows, cols, data = np.asarray(rows), np.asarray(cols), np.asarray(data)
    dim = int(max(rows.max(), cols.max())) + 1
    keys = rows * dim + cols
    order = np.argsort(keys)
    lower = np.flatnonzero(rows > cols)
    assert lower.size == np.count_nonzero(rows < cols)
    mirror_keys = cols[lower] * dim + rows[lower]
    mirror = order[np.searchsorted(keys[order], mirror_keys)]
    assert np.array_equal(keys[mirror], mirror_keys)
    assert data[lower].tobytes() == data[mirror].conj().tobytes()
    on_diagonal = data[rows == cols].imag
    assert not np.any(on_diagonal) and not np.any(np.signbit(on_diagonal))
    outside = ~(np.isin(rows, boundary) & np.isin(cols, boundary))
    assert not np.any(data[outside].imag)
    assert np.array_equal(np.signbit(data[outside].imag),
                          rows[outside] > cols[outside])


def assemble_pencil_reference(mesh, bvals, potential=None, quadrature_order=3,
                              mu=1.0):
    """(A, B) as complex128 CSR arrays, by the element loop
    ``saext.fem.assemble_pencil`` ran before it kept the arrow blocks: the
    upper triangle of every interval's tridiagonal part and of the boundary
    block as COO entries, mirrored by ``hermitian_from_upper_reference``.
    Inputs are not validated."""
    two_n = 2 * mesh.n
    unit = np.eye(two_n)
    starts = np.concatenate([[0], np.cumsum(mesh.r[:-1])]).astype(int)
    a_block = -mu * (bvals.g @ bvals.v - bvals.g)
    b_block = np.zeros((two_n, two_n), dtype=complex)
    gauss_x, gauss_w = np.polynomial.legendre.leggauss(int(quadrature_order))
    t_ref = (gauss_x + 1.0) / 2.0
    rows, cols, a_tri, b_tri = [], [], [], []
    for alpha, r_alpha in enumerate(mesh.r):
        h = mesh.h[alpha]
        if potential is None:
            p00 = p01 = p11 = np.zeros(r_alpha + 1)
        else:
            xq = mesh.nodes[alpha][:-1, None] + h * t_ref[None, :]
            wv = (h / 2.0) * gauss_w[None, :] * np.asarray(
                potential.value(alpha, xq), dtype=float)
            p00, p01, p11 = (wv @ (1.0 - t_ref) ** 2, wv @ ((1.0 - t_ref) * t_ref),
                             wv @ t_ref ** 2)
        stiff = mu / h
        idx = starts[alpha] + np.arange(r_alpha)
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
    bidx = np.sort(np.concatenate([starts, starts + np.asarray(mesh.r) - 1]))
    iu, ju = np.triu_indices(two_n)
    rows.append(bidx[iu])
    cols.append(bidx[ju])
    return tuple(
        hermitian_from_upper_reference(rows, cols, tri + [block[iu, ju]], mesh.dim)
        for tri, block in ((a_tri, a_block), (b_tri, b_block))
    )


def template_gather_pencil(mesh, bc, bvals, potential=None, mu=1.0):
    """The pencil as ``saext.fem.BulkAssembly.pencil`` built it before
    ``ArrowBlocks.pencil``: one complex data template per matrix (the band
    values outside the boundary block, then their conjugate mirrors) and
    the boundary block of ``BulkAssembly.arrow``, gathered into a CSR
    pattern that one scipy COO-to-CSR conversion laid out, explicit zeros
    dropped, then passed through ``Pencil``.  Inputs are not validated."""
    bulk = fem.BulkAssembly(mesh, potential, mu)
    arrow = bulk.arrow(bc, bvals)
    if potential is None:
        potential = ZeroPotential()
    bidx = fem.boundary_indices(mesh)
    gauss_x, gauss_w = np.polynomial.legendre.leggauss(3)
    t_ref = (gauss_x + 1.0) / 2.0
    rows, cols, a_tri, b_tri = [], [], [], []
    for alpha, r_alpha in enumerate(mesh.r):
        h = mesh.h[alpha]
        p00, p01, p11, _ = fem._element_potential(potential, mesh, alpha,
                                                  t_ref, gauss_w)
        stiff = mu / h
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
    dim = mesh.dim
    rows, cols = np.concatenate(rows), np.concatenate(cols)
    outside = ~(np.isin(rows, bidx) & np.isin(cols, bidx))
    strict = outside & (rows != cols)
    coords = (
        np.concatenate([rows[outside], cols[strict], np.repeat(bidx, bidx.size)]),
        np.concatenate([cols[outside], rows[strict], np.tile(bidx, bidx.size)]),
    )
    pattern = scipy.sparse.csr_array(
        (np.arange(1.0, coords[0].size + 1.0), coords), shape=(dim, dim)
    )
    take = pattern.data.astype(int) - 1
    matrices = []
    for tri, blocks in ((a_tri, arrow.a), (b_tri, arrow.b)):
        vals = np.concatenate(tri)
        template = np.concatenate([vals[outside], vals[strict].astype(complex).conj()])
        data = np.concatenate([template, blocks[-1].ravel()])[take]
        matrix = scipy.sparse.csr_array(
            (data, pattern.indices.copy(), pattern.indptr.copy()), shape=(dim, dim)
        )
        matrix.eliminate_zeros()
        matrices.append(matrix)
    return fem.Pencil(a=matrices[0], b=matrices[1])


def power_law_fit_multistart(eps: np.ndarray, k_vals: np.ndarray):
    """Fit K(eps) = a * eps**b + c by Levenberg-Marquardt (``curve_fit``)
    from ten deterministic starts; the best residual wins.

    The reference for the library's variable-projection fit.  Returns
    (a, b, c) or None when every start fails.
    """

    def model(x, a, b, c):
        return a * np.power(x, b) + c

    best = None
    best_cost = np.inf
    k0 = float(k_vals[0])
    k1 = float(k_vals[-1])
    e0 = float(eps[0])
    for b0 in (-1.0, -0.5, -0.1, 0.1, 0.5):
        a0 = (k0 - k1) * e0 ** (-b0)
        if not np.isfinite(a0) or a0 == 0.0:
            a0 = 1.0
        for c0 in (k1, 0.0):
            try:
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", scipy.optimize.OptimizeWarning)
                    params, _ = scipy.optimize.curve_fit(
                        model, eps, k_vals, p0=(a0, b0, c0), maxfev=20000
                    )
            except (RuntimeError, ValueError):
                continue
            resid = model(eps, *params) - k_vals
            cost = float(resid @ resid)
            if cost < best_cost:
                best_cost = cost
                best = tuple(float(p) for p in params)
    return best


def power_law_fits_row_by_row(eps: np.ndarray, k_rows: np.ndarray) -> list:
    """``saext.cli._power_law_fits`` as it was before its first scan
    centred eps**b once for all rows: the centred least squares of each
    row against the whole exponent grid recomputes mean p, p - mean p and
    |p - mean p|^2, then the rescans refine every row on its own bracket.
    The reference for the fit's bits."""
    def lstsq(p, k):
        k_mean = k.mean(axis=-1)
        k_c = k - k_mean[..., None]
        with np.errstate(all="ignore"):
            p_mean = p.mean(axis=-1)
            p_c = p - p_mean[..., None]
            a = np.sum(p_c * k_c, axis=-1) / np.sum(p_c * p_c, axis=-1)
            resid = k_c - a[..., None] * p_c
            cost = np.sum(resid * resid, axis=-1)
        return a, k_mean - a * p_mean, np.where(np.isfinite(cost), cost, np.inf)

    k = np.asarray(k_rows)
    grid = np.linspace(-4.0, 4.0, 800)
    with np.errstate(all="ignore"):
        powers = eps ** grid[:, None]
    a, c, costs = (np.array(parts) for parts in zip(*(lstsq(powers, row) for row in k)))
    k = k[:, None, :]
    rows = np.arange(k.shape[0])
    i = np.argmin(costs, axis=-1)
    fits = np.isfinite(costs[rows, i])
    best = [a[rows, i], grid[i], c[rows, i]]
    low, high = grid[np.maximum(i - 1, 0)], grid[np.minimum(i + 1, grid.size - 1)]
    active = fits & (grid[1] - grid[0] >= 1e-12)
    while np.any(active):
        grid = np.linspace(low[active], high[active], 41, axis=-1)
        with np.errstate(all="ignore"):
            a, c, costs = lstsq(eps ** grid[..., None], k[active])
        rows = np.arange(grid.shape[0])
        i = np.argmin(costs, axis=-1)
        for value, new in zip(best, (a[rows, i], grid[rows, i], c[rows, i])):
            value[active] = new
        low[active] = grid[rows, np.maximum(i - 1, 0)]
        high[active] = grid[rows, np.minimum(i + 1, grid.shape[1] - 1)]
        active[active] = grid[:, 1] - grid[:, 0] >= 1e-12
    return [tuple(map(float, abc)) if fit else None for fit, *abc in zip(fits, *best)]


def stability_k_rows_loop(eps_list, spectra, base, clusters, levels, matching):
    """The ("K" or "skipped", eps, level, value) rows of the stability
    study as ``saext.cli.stability_study`` formed them before its K table
    became one array expression per level: a loop over eps and levels, the
    ratio of each cluster member in Python scalars and ``np.mean`` of each
    list of ratios.  The reference for the K table's bits."""
    rows = []
    for eps, lam_eps in zip(eps_list, spectra):
        for lev in range(1, levels + 1):
            members = clusters[lev]
            if any(abs(base[i]) < 1e-6 for i in members):
                rows.append(("skipped", eps, lev, "ill-conditioned ratio"))
                continue
            ratios = []
            for i in members:
                if matching == "index":
                    lam_p = lam_eps[i]
                else:
                    lam_p = lam_eps[int(np.argmin(np.abs(lam_eps - base[i])))]
                ratios.append(abs(lam_p - base[i]) / (eps * abs(base[i])))
            rows.append(("K", eps, lev, float(np.mean(ratios))))
    return rows


def write_text_csv_reference(path, header, rows) -> None:
    """The CLI's writer of tables whose cells are already text, as it was
    before text columns went through ``saext.cli._write_table``: one
    ``csv.writer`` row at a time."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def cholesky_pencil_reference(a: np.ndarray, b: np.ndarray, count=None):
    """(eigenvalues, B-orthonormal eigenvectors) of the hermitian pencil
    A x = lambda B x by the reduction the dense path ran before it called
    the generalized LAPACK driver: B = L L^H, the dense hermitian
    eigensolver on L^{-1} A L^{-H}, back-transformation by L^{-H}.  The
    lowest ``count`` pairs, or all with ``count=None``."""
    potrf, = scipy.linalg.get_lapack_funcs(("potrf",), (b,))
    l_factor, info = potrf(b, lower=1, clean=1, overwrite_a=0)
    assert info == 0, f"Cholesky factorization failed (info = {info})"

    x = scipy.linalg.solve_triangular(l_factor, a, lower=True)
    c = scipy.linalg.solve_triangular(l_factor, x.conj().T, lower=True).conj().T

    if count is None:
        w, y = scipy.linalg.eigh(c)
    else:
        w, y = scipy.linalg.eigh(c, subset_by_index=(0, count - 1))

    vectors = scipy.linalg.solve_triangular(l_factor, y, trans="C", lower=True)
    return w, vectors


def pencil_two_step_reference(a, b):
    """The CSR arrays (A, B) as ``fem.Pencil`` converted them in two steps
    before it converted each matrix once: both to complex128, then, when
    neither has an entry with a nonzero imaginary part, a real copy of
    each."""
    a, b = (scipy.sparse.csr_array(m, dtype=complex) for m in (a, b))
    if not (np.any(a.data.imag) or np.any(b.data.imag)):
        a, b = a.real.copy(), b.real.copy()
    return a, b


def residual_tolerances(pencil, eigenvalues: np.ndarray) -> np.ndarray:
    """Per-pair residual bound RESIDUAL_RTOL * (||A|| + |lambda| ||B||),
    with the matrix 1-norm, the largest absolute column sum (summed over
    the CSR entries, about 20x faster than ``scipy.sparse.linalg.norm``;
    the library's solver sums the arrow blocks instead): the rule the
    sparse path gated by before both partial paths took the arrow blocks'
    norms."""
    a_norm, b_norm = (
        np.bincount(m.indices, weights=np.abs(m.data), minlength=m.shape[1]).max()
        for m in (pencil.a, pencil.b)
    )
    return RESIDUAL_RTOL * (a_norm + np.abs(eigenvalues) * b_norm)


def certify_alone_reference(arrow, count: int, ritz) -> bool:
    """Whether the lowest ``count`` pairs of the Rayleigh-Ritz step
    ``ritz`` of the pencil with arrow blocks ``arrow`` are certified, by
    the certificate of one pencil alone at taus of its own gap: a gap
    wider than DEGENERACY_RTOL above Ritz value ``count``, nu(tau) equal to
    the number of Ritz values below the gap at the first tau half of
    DEGENERACY_RTOL above its lower end or, while T(tau) is numerically
    singular, at the points ``eigen._GAP_FRACTIONS`` of the way up the
    gap, and every residual within its tolerance."""
    gap = eigen._first_gap(ritz.w, count)
    if gap is None:
        return False
    below, low, high = gap
    for tau in (low + 0.5 * DEGENERACY_RTOL * max(1.0, abs(high)),
                *(low + fraction * (high - low) for fraction in eigen._GAP_FRACTIONS)):
        found = eigen._negative_count(*arrow.minus(tau))
        if found is not None:
            break
    return found == below and ritz.converged


def spectral_matrix_reference(bc, traces) -> np.ndarray:
    """M(U, lambda) = I . [psi_-] - U . [psi_+] by the index arithmetic
    ``saext.spectral.spectral_matrix`` used before it called ``odot``:
    the U term column block by column block, then the traces of psi_- added
    on the two block diagonals."""
    n = bc.n
    t_minus = traces.trace_matrix(-1)
    t_plus = traces.trace_matrix(+1)
    u = bc.u_block
    m = np.hstack([
        -(u[:, :n] * t_plus[:n, sigma] + u[:, n:] * t_plus[n:, sigma])
        for sigma in (0, 1)
    ])
    rows = np.arange(2 * n)
    for sigma in (0, 1):
        m[rows, sigma * n + rows % n] += t_minus[:, sigma]
    return m


def h1_error_two_pass_reference(per_interval, mesh, reference, quad_order=5):
    """Sobolev-1 distance between the finite element function with node
    values ``per_interval`` and a reference (psi, dpsi), as
    ``saext.eigen.h1_error`` computed it before it formed the quadrature
    points and values once: the phase pass and the error pass each build
    them again."""
    psi_ref, dpsi_ref = reference
    gauss_x, gauss_w = np.polynomial.legendre.leggauss(int(quad_order))
    t_ref = (gauss_x + 1.0) / 2.0

    inner = 0.0 + 0.0j
    for alpha, vals in enumerate(per_interval):
        h = mesh.h[alpha]
        x0 = mesh.nodes[alpha][:-1]
        xq = x0[:, None] + h * t_ref[None, :]
        fem_q = vals[:-1, None] * (1.0 - t_ref)[None, :] + vals[1:, None] * t_ref[None, :]
        ref_q = np.asarray(psi_ref(xq), dtype=complex)
        inner += (h / 2.0) * np.sum(gauss_w[None, :] * np.conj(ref_q) * fem_q)
    phase = np.conj(inner) / abs(inner) if abs(inner) > 0 else 1.0

    total = 0.0
    for alpha, vals in enumerate(per_interval):
        h = mesh.h[alpha]
        x0 = mesh.nodes[alpha][:-1]
        xq = x0[:, None] + h * t_ref[None, :]
        fem_q = vals[:-1, None] * (1.0 - t_ref)[None, :] + vals[1:, None] * t_ref[None, :]
        slope = (vals[1:] - vals[:-1]) / h
        diff_val = np.asarray(psi_ref(xq), dtype=complex) - phase * fem_q
        diff_slope = np.asarray(dpsi_ref(xq), dtype=complex) - phase * slope[:, None]
        total += (h / 2.0) * np.sum(
            gauss_w[None, :] * (np.abs(diff_val) ** 2 + np.abs(diff_slope) ** 2)
        )
    return float(np.sqrt(total))


def write_csv_reference(path, header, columns) -> None:
    """The CLI's numeric CSV writer as it was before rows were rendered by
    one %-format call: ``str(k)`` for integer cells, ``f"{x:.17g}"`` for
    float cells, one ``csv.writer`` row at a time.  The reference for
    ``saext.cli._write_table``."""
    cells = [
        [str(int(v)) for v in col] if np.asarray(col).dtype.kind in "iu"
        else [f"{float(v):.17g}" for v in col]
        for col in columns
    ]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(zip(*cells))


# (intervals, resolution, interior-node counts r) of the meshes the basis
# reference tests run on: 1 to 3 intervals, two of them with an r = 2
# interval, which has no bulk function.
REFERENCE_MESHES = (
    ([(0.0, 2.0 * np.pi)], 2, (3,)),
    ([(0.0, 2.0 * np.pi)], 16, (17,)),
    ([(0.0, 1.0), (0.0, 5.0)], 6, (2, 6)),
    ([(0.0, 1.0), (0.0, 3.0)], 8, (3, 7)),
    ([(0.0, 0.5), (1.0, 3.0), (4.0, 8.0)], 13, (2, 5, 9)),
)


def basis_enumeration_reference(mesh):
    """Every global basis index of ``mesh`` as a (kind, alpha, k, i) tuple,
    in index order, by the per-index loop the basis map used to run: per
    interval the left boundary function, the bulk functions by peak node,
    the right boundary function."""
    tags = []
    for alpha, r_alpha in enumerate(mesh.r):
        tags.append(("boundary", alpha, -1, 2 * alpha))
        tags.extend(("bulk", alpha, k, -1) for k in range(2, r_alpha))
        tags.append(("boundary", alpha, -1, 2 * alpha + 1))
    return tags


def boundary_index(mesh, i: int) -> int:
    """Global index of boundary function i (at endpoint i of interval
    i // 2), looked up in ``basis_enumeration_reference``."""
    return basis_enumeration_reference(mesh).index(("boundary", i // 2, -1, i))


def bulk_index(mesh, alpha: int, k: int) -> int:
    """Global index of the bulk function peaking at node k of interval
    alpha, looked up in ``basis_enumeration_reference``."""
    return basis_enumeration_reference(mesh).index(("bulk", alpha, k, -1))


def boundary_node_values(mesh, bvals, i: int, alpha: int) -> np.ndarray:
    """Node values of boundary function i restricted to interval alpha,
    endpoints included: its endpoint values from column i of V, and 1 at
    its peak node."""
    r_alpha = mesh.r[alpha]
    vals = np.zeros(r_alpha + 2, dtype=complex)
    vals[0] = bvals.v[2 * alpha, i]
    vals[r_alpha + 1] = bvals.v[2 * alpha + 1, i]
    if i == 2 * alpha:
        vals[1] = 1.0
    if i == 2 * alpha + 1:
        vals[r_alpha] = 1.0
    return vals


def eval_boundary(mesh, bvals, i: int, alpha: int, x):
    """Value of boundary function i at coordinates x inside interval alpha,
    interpolated linearly between its node values."""
    vals = boundary_node_values(mesh, bvals, i, alpha)
    s = (np.asarray(x, dtype=float) - mesh.parent.intervals[alpha][0]) / mesh.h[alpha]
    j = np.clip(np.floor(s).astype(int), 0, mesh.r[alpha])
    t = s - j
    return vals[j] * (1.0 - t) + vals[j + 1] * t


def node_value_arrays_loop(coeffs, mesh, bvals):
    """Per-interval node values of sum_a coeffs[a] f_a, summed function by
    function with one index lookup each, as the eigensolver's post-processing
    used to: the reference for ``saext.fem.node_values``."""
    out = []
    for alpha, r_alpha in enumerate(mesh.r):
        vals = np.zeros(r_alpha + 2, dtype=complex)
        for i in range(2 * mesh.n):
            c = coeffs[boundary_index(mesh, i)]
            if c != 0:
                vals += c * boundary_node_values(mesh, bvals, i, alpha)
        for k in range(2, r_alpha):
            vals[k] += coeffs[bulk_index(mesh, alpha, k)]
        out.append(vals)
    return out

def magnus_fundamental_reference(potential, alpha, edges, per_piece, lam, mu):
    """The 2x2 state (rows Psi, Psi') across ``edges`` with ``per_piece[i]``
    equal Magnus steps on piece i, at one lambda, as the oracle computed
    it before it was batched over lambda: V tabulated afresh with one
    ``potential.value`` call at the three Gauss nodes of every step, the
    steps laid out one piece at a time."""
    h, left = [], []
    for lo, hi, count in zip(edges[:-1], edges[1:], per_piece):
        width = hi - lo
        h.append(np.full(count, width / count))
        left.append(lo + width * (np.arange(count) / count))
    h, left = np.concatenate(h), np.concatenate(left)
    nodes = left + np.multiply.outer(spectral._GAUSS_NODES, h)
    v = np.asarray(potential.value(alpha, nodes.ravel()), dtype=float)
    if not np.all(np.isfinite(v)):
        raise spectral.PotentialError(
            f"potential is not finite on interval {alpha} ({edges[0]}, {edges[-1]})"
        )
    z = ((v - lam) / mu).reshape(nodes.shape) * (h * h)
    with np.errstate(over="ignore", invalid="ignore"):
        return ordered_product_reference(spectral._magnus_step_maps(z, h))


def ordered_product_reference(mats):
    """M_{m-1} ... M_0 of one (..., m, 2, 2) stack, multiplied pairwise in
    order along the step axis, the stack padded by the identity at every
    odd level: the reduction of one step count alone, as it ran before the
    step counts of a batch shared one reduction."""
    while mats.shape[-3] > 1:
        if mats.shape[-3] % 2:
            identity = np.broadcast_to(np.eye(2), mats.shape[:-3] + (1, 2, 2))
            mats = np.concatenate((mats, identity), axis=-3)
        mats = mats[..., 1::2, :, :] @ mats[..., 0::2, :, :]
    return mats[..., 0, :, :]


def scattering_matrix_reference(psi_r, dpsi_r):
    """``saext.spectral._scattering_matrix`` as it scaled T entry by entry:
    the scale from a list of the four entries, then four divisions."""
    t00, t01 = psi_r[..., 0].real, psi_r[..., 1].real
    t10, t11 = dpsi_r[..., 0].real, dpsi_r[..., 1].real
    scale = np.maximum(1.0, np.max(np.abs([t00, t01, t10, t11]), axis=0))
    t00, t01, t10, t11 = (t / scale for t in (t00, t01, t10, t11))
    den = (t01 - t10) + 1j * (t00 + t11)
    n = t00.shape[-1]
    s = np.zeros(t00.shape[:-1] + (2 * n, 2 * n), dtype=complex)
    left, right = np.arange(n), np.arange(n, 2 * n)
    s[..., left, left] = ((t01 + t10) + 1j * (t11 - t00)) / den
    s[..., right, right] = ((t01 + t10) + 1j * (t00 - t11)) / den
    s[..., left, right] = s[..., right, left] = 2j / (scale * den)
    return s


def integrated_traces_reference(potential, geom, lam, mu):
    """(psi_l, dpsi_l, psi_r, dpsi_r) of the normalized basis at one lambda
    by the scalar step-halving loop: per interval, the step count doubles
    until m and 2m steps agree to the oracle's rtol."""
    n = geom.n
    psi_l = np.zeros((n, 2), dtype=complex)
    dpsi_l = np.zeros((n, 2), dtype=complex)
    psi_r = np.zeros((n, 2), dtype=complex)
    dpsi_r = np.zeros((n, 2), dtype=complex)
    for alpha, (a, b) in enumerate(geom.intervals):
        edges, per_piece = spectral._pieces(potential, alpha, a, b)
        coarse = magnus_fundamental_reference(potential, alpha, edges, per_piece,
                                              lam, mu)
        while True:
            if not np.all(np.isfinite(coarse)):
                raise spectral.TraceIntegrationError(
                    f"fundamental solutions on interval {alpha} overflow "
                    f"float64 at lambda = {lam!r}"
                )
            per_piece = 2 * per_piece
            if per_piece.sum() > spectral._MAX_ODE_STEPS:
                raise spectral.TraceIntegrationError(
                    f"fundamental-solution integration on interval {alpha} "
                    "did not reach rtol"
                )
            fine = magnus_fundamental_reference(potential, alpha, edges,
                                                per_piece, lam, mu)
            scale = max(1.0, float(np.max(np.abs(fine))))
            if float(np.max(np.abs(fine - coarse))) <= spectral._ODE_RTOL * scale:
                break
            coarse = fine
        psi_l[alpha] = (1.0, 0.0)
        dpsi_l[alpha] = (0.0, -1.0)
        psi_r[alpha] = fine[0]
        dpsi_r[alpha] = fine[1]
    return psi_l, dpsi_l, psi_r, dpsi_r


def closed_form_traces_reference(geom, lam, mu, constants):
    """(psi_l, dpsi_l, psi_r, dpsi_r) of the normalized basis for constant V
    at one lambda, in ``cmath``: cos(k x') and sin(k x') / k."""
    n = geom.n
    psi_l = np.zeros((n, 2), dtype=complex)
    dpsi_l = np.zeros((n, 2), dtype=complex)
    psi_r = np.zeros((n, 2), dtype=complex)
    dpsi_r = np.zeros((n, 2), dtype=complex)
    for alpha, (a, b) in enumerate(geom.intervals):
        length = b - a
        k = cmath.sqrt(complex(lam - constants[alpha]) / mu)
        try:
            cos_l = cmath.cos(k * length)
            sin_over_k = length if k == 0 else cmath.sin(k * length) / k
        except OverflowError as exc:
            raise spectral.TraceIntegrationError(
                f"fundamental traces overflow at lambda = {lam!r}: {exc}"
            ) from exc
        psi_l[alpha] = (1.0, 0.0)
        dpsi_l[alpha] = (0.0, -1.0)
        psi_r[alpha] = (cos_l, sin_over_k)
        dpsi_r[alpha] = (-(k * k) * sin_over_k, cos_l)
    if not np.isfinite(dpsi_r).all():
        raise spectral.TraceIntegrationError(
            f"fundamental traces overflow at lambda = {lam!r}")
    return psi_l, dpsi_l, psi_r, dpsi_r


def fundamental_traces_reference(potential, geom, lam, mu=1.0):
    """Normalized-basis ``FundamentalTraces`` at one lambda by the scalar
    closed form or the scalar step-halving loop."""
    constants = [potential.constant_value(alpha) for alpha in range(geom.n)]
    if all(c is not None for c in constants):
        arrays = closed_form_traces_reference(geom, lam, mu, constants)
    else:
        arrays = integrated_traces_reference(potential, geom, lam, mu)
    return FundamentalTraces(lam, mu, *arrays)


# Degeneracy bound of the exponential basis: |k| L below it is rejected.
EXP_DEGENERACY_TOL = 1e-9


def exponential_traces(geom, lam, mu, constants) -> FundamentalTraces:
    """Traces of the basis exp(+- i k x') for constant V at one lambda.

    The basis of the paper's single-interval closed forms; it degenerates
    as k -> 0, so it is rejected there (``ValueError``).  The library only
    uses the normalized basis, which differs from this one by a
    nondegenerate change of basis per interval.
    """
    n = geom.n
    psi_l = np.ones((n, 2), dtype=complex)
    dpsi_l = np.zeros((n, 2), dtype=complex)
    psi_r = np.zeros((n, 2), dtype=complex)
    dpsi_r = np.zeros((n, 2), dtype=complex)
    for alpha, (a, b) in enumerate(geom.intervals):
        length = b - a
        k = cmath.sqrt(complex(lam - constants[alpha]) / mu)
        if abs(k) * length < EXP_DEGENERACY_TOL:
            raise ValueError(
                "exponential fundamental basis degenerates as k -> 0; "
                "use the normalized basis near lambda = V"
            )
        try:
            e_plus = cmath.exp(1j * k * length)
            e_minus = cmath.exp(-1j * k * length)
        except OverflowError as exc:
            raise spectral.TraceIntegrationError(
                f"fundamental traces overflow at lambda = {lam!r}: {exc}"
            ) from exc
        dpsi_l[alpha] = (-1j * k, 1j * k)  # -Psi'(a)
        psi_r[alpha] = (e_plus, e_minus)
        dpsi_r[alpha] = (1j * k * e_plus, -1j * k * e_minus)
    if not np.isfinite(dpsi_r).all():
        raise spectral.TraceIntegrationError(
            f"fundamental traces overflow at lambda = {lam!r}")
    return FundamentalTraces(lam, mu, psi_l, dpsi_l, psi_r, dpsi_r)


def w_combo(traces: FundamentalTraces, side1: str, side2: str,
            sign1: int, sign2: int) -> complex:
    """Single-interval 2x2 determinant of (psi_{side1, sign1}, psi_{side2, sign2})."""
    if traces.n != 1:
        raise ValueError("W combinations are defined for a single interval")

    def vec(side, sign):
        psi = traces.psi_l if side == "l" else traces.psi_r
        dpsi = traces.dpsi_l if side == "l" else traces.dpsi_r
        return (psi + 1j * sign * dpsi)[0]

    u = vec(side1, sign1)
    v = vec(side2, sign2)
    return u[0] * v[1] - u[1] * v[0]


def spectral_det_closed_1(bc, traces: FundamentalTraces) -> complex:
    """Closed-form spectral function for a single interval.

    Expands det M(U, lambda) into the six trace determinants weighted by
    the entries of U; an independent code path from the block assembly.
    """
    if bc.n != 1 or traces.n != 1:
        raise ValueError("closed form requires a single interval")
    u = bc.u_block
    w = lambda s1, s2, g1, g2: w_combo(traces, s1, s2, g1, g2)
    return (
        w("l", "r", -1, -1)
        + u[0, 0] * w("r", "l", -1, +1)
        + u[1, 1] * w("r", "l", +1, -1)
        + u[0, 1] * w("r", "r", -1, +1)
        + u[1, 0] * w("l", "l", +1, -1)
        + complex(np.linalg.det(u)) * w("l", "r", +1, +1)
    )


def unitary_from_su2_phase(theta: float, alpha: complex, beta: complex) -> np.ndarray:
    """U(2) element e^{i theta/2} [[alpha, beta], [-conj(beta), conj(alpha)]]
    with |alpha|^2 + |beta|^2 = 1."""
    norm = abs(alpha) ** 2 + abs(beta) ** 2
    if abs(norm - 1.0) > 1e-12:
        raise ValueError(f"|alpha|^2 + |beta|^2 = {norm} must be 1")
    phase = cmath.exp(1j * theta / 2.0)
    return phase * np.array(
        [[alpha, beta], [-np.conj(beta), np.conj(alpha)]], dtype=complex
    )


def spectral_det_parametrized(
    theta: float, alpha: complex, beta: complex, traces: FundamentalTraces
) -> complex:
    """Spectral function under the phase/SU(2) parametrization of U(2).

    Every term linear in the entries of U carries the overall phase
    e^{i theta/2}; the determinant term carries e^{i theta}.
    """
    w = lambda s1, s2, g1, g2: w_combo(traces, s1, s2, g1, g2)
    half = cmath.exp(1j * theta / 2.0)
    return (
        w("l", "r", -1, -1)
        + half
        * (
            alpha * w("r", "l", -1, +1)
            + np.conj(alpha) * w("r", "l", +1, -1)
            + beta * w("r", "r", -1, +1)
            - np.conj(beta) * w("l", "l", +1, -1)
        )
        + cmath.exp(1j * theta) * w("l", "r", +1, +1)
    )


def crossings_reference(ph_a, ph_b):
    """Eigenphase crossings and advance of arg det W between two samples,
    one cell at a time with ``math.remainder``."""
    change = float(ph_b.sum() - ph_a.sum())
    advance = math.remainder(change, 2.0 * math.pi)
    return round((advance - change) / (2.0 * math.pi)), advance


def find_spectrum_reference(bc, potential, geom, lambda_range, grid_points=None,
                            mu=1.0, return_scan=False):
    """``saext.spectral.find_spectrum`` as it ran one trial lambda at a time:
    one scalar trace evaluation per grid point and per split point, one
    recursive ``located`` call per grid cell, det M one matrix at a time."""
    two_pi = 2.0 * math.pi
    lo, hi = float(lambda_range[0]), float(lambda_range[1])

    def s_of(lam):
        return np.sign(lam) * np.sqrt(np.abs(lam))

    def lam_of(s):
        return np.sign(s) * s * s

    s_lo, s_hi = s_of(lo), s_of(hi)
    if grid_points is None:
        grid_points = max(64, int(np.ceil(spectral.DEFAULT_GRID_DENSITY
                                          * (s_hi - s_lo))))
    grid_points = max(int(grid_points), 8)
    lam_grid = lam_of(np.linspace(s_lo, s_hi, grid_points))

    def width(lam):
        return spectral.REFINE_WIDTH * max(1.0, abs(lam))

    def phases_at(lam):
        traces = fundamental_traces_reference(potential, geom, lam, mu)
        return spectral._wrapped_phases(spectral.secular_matrix(bc, traces))

    right_traces = np.empty((2, grid_points, geom.n, 2))
    raw_det = np.empty(grid_points, dtype=complex)
    for i, lam in enumerate(lam_grid):
        traces = fundamental_traces_reference(potential, geom, lam, mu)
        right_traces[:, i] = traces.psi_r.real, traces.dpsi_r.real
        if return_scan:
            raw_det[i] = spectral.spectral_matrix(bc, traces).detval
    grid_phases = spectral._wrapped_phases(
        bc.u_block.conj().T @ spectral._scattering_matrix(*right_traces))

    def located(a, ph_a, b, ph_b, kept=0):
        # kept: -k when the last k splits kept a, +k when they kept b
        count, advance = crossings_reference(ph_a, ph_b)
        exact = abs(advance) <= math.pi / 2
        if exact and count <= 0:
            return []
        single = exact and count == 1
        x = 0.5 * (a + b)
        if single:
            fa, fb = ph_a.max() - two_pi, ph_b.min()
            if kept < -1:
                fa = fa * 0.5 ** (-kept - 1)
            elif kept > 1:
                fb = fb * 0.5 ** (kept - 1)
            x = a - fa * (b - a) / (fb - fa)
        if b - a <= width(b):
            return [x] * max(count, 0)
        if single:
            x = min(max(x, a + 0.5 * width(x)), b - 0.5 * width(x))
        ph_x = phases_at(x)
        return (located(a, ph_a, x, ph_x, min(kept, 0) - 1)
                + located(x, ph_x, b, ph_b, max(kept, 0) + 1))

    roots = []
    for i in range(grid_points - 1):
        roots += located(lam_grid[i], grid_phases[i],
                         lam_grid[i + 1], grid_phases[i + 1])
    result = np.array(sorted(roots))
    if return_scan:
        return result, (lam_grid, raw_det)
    return result
