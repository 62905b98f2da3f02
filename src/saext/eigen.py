"""Deterministic solver for the hermitian pencil A Phi = lambda B Phi.

Two paths share one result type, and both run in the pencil's dtype:
:class:`~saext.fem.Pencil` stores A and B as float64 when neither has an
entry with a nonzero imaginary part and as complex128 otherwise.  A real
pencil is solved in real arithmetic (LAPACK ``dsygv*``, real ``splu``,
real ARPACK ``dnaupd``) and has real eigenvectors; a complex one in
complex arithmetic (``zhegv*``, ``znaupd``).  Before either path runs,
:func:`solve_pencil` checks that A and B are square, of one shape and
finite; the dense path also checks that both are exactly hermitian, as
LAPACK reads one triangle of each.  So a bad hand-built pencil gets an
:class:`EigenSolveError` that names the matrix and its defect.  The sparse
and warm paths take an assembled pencil, which
:meth:`~saext.fem.ArrowBlocks.pencil` makes hermitian by construction.

The dense path is one call of LAPACK's hermitian-definite generalized
driver (``scipy.linalg.eigh(A, B)``: ``*gvd`` for full spectra, ``*gvx``
for the lowest ``count``), which reduces B by a Cholesky factorization
instead of running a general QZ iteration and returns B-orthonormal
eigenvectors.  When the driver fails, a Cholesky factorization of B alone
tells a mass matrix that is not positive definite (with its failing
pivot) from any other failure, and running out of memory for the
N x N arrays raises :class:`EigenSolveError` with their size.  The dense
path answers full spectra (``count=None``), pencils too small for ARPACK
and hand-built pencils, which carry no arrow blocks.

The sparse path answers the lowest ``count`` pairs of an assembled pencil
by shift-invert ARPACK (Lehoucq, Sorensen & Yang, ARPACK Users' Guide,
SIAM 1998) on OP = (A - sigma B)^{-1} B with a shift sigma below the
spectrum.  ARPACK's block goes through the one Rayleigh-Ritz step of the
module, that of :class:`_SearchSpace` on the pencil's arrow blocks, so the
eigenvectors are again B-orthonormal, and every partial solve has one
residual rule: RESIDUAL_RTOL * (||A|| + |lambda| ||B||), with the matrix
1-norms summed over the arrow blocks.  The count is certified by
Sylvester's law of inertia: with B positive definite, the number nu(x) of
eigenvalues below x is the number of negative eigenvalues of A - x B.  An
assembled pencil carries the arrow blocks of A and B and min V
(:class:`~saext.fem.ArrowBlocks`, which gives the blocks of A - x B), and
Haynsworth's additivity (Linear Algebra Appl. 1, 1968) gives

    nu(x) = In_-(T) + In_-(C - E^T T^{-1} E)

with T the real tridiagonal bulk block of A - x B, E its real border and C
its 2n x 2n boundary block: O(N) work per evaluation, one ``dgtsv`` for
T^{-1} E (:func:`~saext.fem.arrow_schur`).  In_-(T), and
whether T is numerically singular (then the count is not trusted), come
from Sturm counts of T by LAPACK's bisection (``stebz``), without
computing eigenvalues.  sigma steps down from min V - 1 until
nu(sigma) = 0, and the widened block of a straddling cluster takes 2n
from the size of C.  A partial solve is returned only when every
residual is within its tolerance and nu(tau) equals the number of
computed eigenvalues below tau, for tau in the first gap above the last
wanted eigenvalue (a point deeper in the gap where T(tau) is numerically
singular or nu(tau) reads below that number, which only rounding can
give): :func:`_certify_stack`, the one certificate of the module, of a
stack of one pencil.  Otherwise the reason is logged on the ``saext``
logger and the dense path answers, so a wrong count is never returned.

The warm path answers the lowest ``count`` eigenvalues of a stack of
assembled pencils that share their bands from one start block, such as
the eigenvectors of a nearby pencil.  Its one entry point is
:meth:`_SearchSpace.solve_stack`, and it answers every pencil: where the
warm path fails it hands the pencil to the cold path, :func:`solve_pencil`
on the CSR arrays built from its blocks.  A Rayleigh-Ritz step on the span
of the start block gives Ritz pairs (theta_j, v_j).  When the block has
more than ``count`` columns and every wanted residual is already within
its tolerance, that step is the answer.  Otherwise each round adds one
inverse step w_j = (A - theta_j B)^{-1} B v_j for every wanted pair to the
block and takes a Rayleigh-Ritz step on its span, that of [V, W]
(Parlett, The Symmetric Eigenvalue Problem, SIAM 1998, ch. 4 and 11), for
at most three rounds, until every wanted residual is within its
tolerance.  The inverse step eliminates the arrow blocks
(:meth:`~saext.fem.ArrowBlocks.solve`): one ``dgtsv`` on T(theta) with the
border and the right-hand side as columns, then a 2n x 2n Schur solve; a
shift on which either is exactly singular is moved by a few ulps.  Every
Rayleigh-Ritz step projects its span through :class:`_SearchSpace`, which
works on the arrow blocks: only the 2n x 2n boundary block C depends on U,
so the space keeps its orthonormal basis Q, the products of A and B with C
left out, their projections and Q's boundary rows, and a step adds
Q_c^H C Q_c and takes its residuals from the stored products plus
C Q_c y.  The first step takes a chunk of the stack at once: the boundary
blocks stacked, one batched ``cholesky``, ``inv`` and ``eigh`` and stacked
residuals, each pencil with the same LAPACK calls and products as alone,
and no eigenvector is formed.  So no result depends on the stack, unless
the chunk's step raises: that chunk then goes to the cold path whole, and
its healthy pencils get cold eigenvalues, not their warm ones.  The
inverse-step rounds run pencil by pencil, and the warm results have to
pass the sparse path's certificate (the residual gate, the gap and
nu(tau)), which takes a chunk at once: its pencils with the same number
of Ritz values below their gaps are counted at the taus of their common
gap, so In_-(T(tau)) and E^T T(tau)^{-1} E are taken once per tau and
each pencil adds one 2n x 2n ``eigvalsh``, and a pencil its group does
not certify is certified in a stack of its own, at the taus of its own
gap, as the cold path certifies.  Any tau inside a pencil's gap
certifies its lowest pairs, so the group and the pencil alone decide
alike unless an eigenvalue missed by the Ritz values lies between their
taus, T is numerically singular at one and not the other, or the counts
round differently.  On criterion 10's sweep and on eps 1e-3 .. 0.2 every
decision is the pencil's own.  The stability study builds one such space
per sweep from the base eigenvectors and the boundary responses
R(sigma) = [-T(sigma)^{-1} E(sigma); I] at each base level
(:meth:`~saext.fem.ArrowBlocks.boundary_response`) and solves all its
perturbed pencils in it from their arrow blocks.  The bulk part of an
eigenvector at lambda is -T(lambda)^{-1} E(lambda) times its boundary
part, and T and E do not depend on U, so on criterion 10's sweep the first
step certifies every pencil.  The Rayleigh-Ritz step is numpy; the
tridiagonal solves and Sturm counts are direct ``scipy.linalg.lapack``
calls, and the sparse path's LU factor and ARPACK are
``scipy.sparse.linalg``'s.

The warm and sparse paths run with every OpenBLAS of the process (numpy
and scipy each load their own) at one thread, and give each its previous
count back on return, also on an exception: their dense work is small and
bound by call overhead, so more threads only add cost, and at one thread
their results do not depend on the caller's thread count.  The dense path
keeps the caller's count, as it is the one large BLAS job.  Where no
OpenBLAS thread control is found (MKL, Accelerate, another OS), BLAS keeps
its thread count.

Eigenvector phases are fixed by making the inner product <w, Phi> with a
fixed generic vector w of positive entries real and positive.  Unlike the
largest-magnitude coefficient, which ties between symmetric coefficients,
<w, Phi> is nonzero for every eigenvector with probability one, so both
paths and every platform turn an eigenvector the same way.  As w is real,
the eigenvectors of a real pencil come out real, and as w is positive, a
ground state without nodes comes out positive.
"""

from __future__ import annotations

import ctypes
import functools
import logging
import threading
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np
import scipy

from .boundary import BoundaryValues, _adjoint
from .fem import ArrowBlocks, Pencil, arrow_schur, node_values

RESIDUAL_RTOL = 1e-10
DEGENERACY_RTOL = 1e-9  # eigenvalues this close count as one cluster

# A bulk block with an eigenvalue within this fraction of its Gershgorin
# bound of zero is numerically singular: its Schur complement is not
# trusted for an inertia count.
_SINGULAR_RTOL = 1e-10
# The shift search gives up after sigma = min V - 2**63, far below any
# spectrum a finite pencil can have.
_MAX_SHIFT_STEPS = 64
_START_SEED = 1103  # fixed ARPACK start vector, so solves are reproducible
# A warm solve takes at most this many rounds of inverse steps.
_WARM_ROUNDS = 3
# The warm solver takes a stack of pencils in chunks of this many: one
# stacked Rayleigh-Ritz step and one shared-tau certificate per chunk,
# whose (chunk, dim, count) products grow with it.
_SWEEP_CHUNK = 20
# Where nu(tau) is not trusted just above the last wanted Ritz value, the
# certificate tries these fractions of the way up the gap above it.
_GAP_FRACTIONS = (1e-2, 1e-1, 0.5)
# A shift on which A - theta B is exactly singular moves up by this many
# ulps of max(1, |theta|).
_NUDGE_ULPS = 4.0
# The (prefix, suffix) of OpenBLAS's thread-count functions: plain builds
# export openblas_*, the numpy and scipy wheels scipy_openblas_*, and builds
# with 64-bit integers append 64_.
_OPENBLAS_NAMES = (("openblas_", ""), ("openblas_", "64_"),
                   ("scipy_openblas_", ""), ("scipy_openblas_", "64_"))

_LOG = logging.getLogger(__name__)


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


@dataclass(frozen=True)
class EigenSolution:
    """Sorted, B-orthonormal eigenpairs of a hermitian pencil.

    eigenvalues are real ascending; eigenvectors[:, j] holds the basis
    coefficients of pair j, in the pencil's dtype; residuals[j] = ||A Phi_j - lambda_j B Phi_j||.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    residuals: np.ndarray

    @property
    def count(self) -> int:
        return self.eigenvalues.size

    def degenerate_clusters(self, rtol: float = DEGENERACY_RTOL) -> list[list[int]]:
        """Indices grouped into clusters split at the gaps of
        :func:`_gaps`; B-orthonormality holds within clusters because the
        solve orthonormalizes globally."""
        splits = np.flatnonzero(_gaps(self.eigenvalues, rtol)) + 1
        return [c.tolist() for c in np.split(np.arange(self.count), splits) if c.size]


def _gaps(w: np.ndarray, rtol: float) -> np.ndarray:
    """gaps[j] tells whether ascending eigenvalues w[j] and w[j + 1] lie in
    different clusters: they do when they differ by more than
    rtol * max(1, |w[j + 1]|)."""
    return np.diff(w) > rtol * np.maximum(1.0, np.abs(w[1:]))


@functools.cache
def _phase_reference(dim: int) -> np.ndarray:
    """The fixed vector w of the phase rule: uniform entries in [0, 1),
    drawn once per dimension and read-only."""
    w = np.random.default_rng(_START_SEED).random(dim)
    w.flags.writeable = False
    return w


def _phase_factors(inner: np.ndarray) -> np.ndarray:
    """The unit factors that turn each column with inner product ``inner``
    with w so that it is real and positive (1 where it is 0)."""
    return np.divide(inner.conj(), np.abs(inner), out=np.ones_like(inner),
                     where=inner != 0)


def _arpack_ncv(k: int) -> int:
    """ARPACK basis size for k wanted pairs (scipy's default choice)."""
    return max(2 * k + 1, 20)


@functools.cache
def _openblas_libraries() -> tuple:
    """The (get, set) thread-count functions of every OpenBLAS mapped into
    the process, looked up once per process in ``/proc/self/maps``; empty
    where that file or the functions are missing (MKL, Accelerate, another
    OS).  numpy and scipy each bring their own OpenBLAS; scipy maps its
    own with ``scipy.linalg``, which ``import scipy`` leaves unloaded, so
    it is loaded here before the lookup."""
    import scipy.linalg

    try:
        with open("/proc/self/maps") as maps:
            # address, permissions, offset, device, inode, path
            paths = sorted({line.split(None, 5)[-1].strip() for line in maps
                            if "openblas" in line.lower()})
    except OSError:
        paths = []
    found = []
    for path in paths:
        try:
            library = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix, suffix in _OPENBLAS_NAMES:
            get = getattr(library, f"{prefix}get_num_threads{suffix}", None)
            set_ = getattr(library, f"{prefix}set_num_threads{suffix}", None)
            if get is not None and set_ is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                found.append((get, set_))
                break
    if not found:
        _LOG.debug("no OpenBLAS thread control found; BLAS keeps its "
                   "thread count")
    return tuple(found)


class _OneBlasThread:
    """Context manager that runs its block with every OpenBLAS of the
    process at one thread and gives each its previous count back on exit,
    also on an exception.  The thread count is process-wide, so entries
    nest and may come from several threads: the first entry saves and
    sets, the last exit restores."""

    def __init__(self):
        self._lock = threading.Lock()
        self._depth = 0
        self._saved = ()

    def __enter__(self):
        with self._lock:
            if self._depth == 0:
                self._saved = tuple((set_, get())
                                    for get, set_ in _openblas_libraries())
                for set_, _ in self._saved:
                    set_(1)
            self._depth += 1

    def __exit__(self, *exc_info):
        with self._lock:
            self._depth -= 1
            if self._depth == 0:
                for set_, threads in self._saved:
                    set_(threads)


_one_blas_thread = _OneBlasThread()


def _is_hermitian(m) -> bool:
    """Whether the CSR array ``m`` equals its conjugate transpose exactly,
    entry by entry."""
    return not (m != m.conj().T).nnz


def solve_pencil(pencil: Pencil, count: int | None = None) -> EigenSolution:
    """Solve A Phi = lambda B Phi for all (or the lowest ``count``) pairs.

    Partial spectra of assembled pencils large enough for ARPACK take the
    certified sparse path; everything else, and every partial solve whose
    certificate fails, takes the dense path (see the module docstring).
    Partial solves from a block of vectors near the wanted eigenvectors
    take the warm path, :meth:`_SearchSpace.solve_stack`, instead.

    Raises
    ------
    EigenSolveError
        If A or B is not square, their shapes differ, or either has a
        non-finite entry; on the dense path, also if either is not
        hermitian (exact check) or its N x N arrays do not fit in memory.
        Assembled pencils are square, finite and hermitian by construction.
    PositiveDefinitenessError
        If the Cholesky factorization of B fails; carries the pivot index.
    """
    a, b = pencil.a, pencil.b
    for name, m in (("A", a), ("B", b)):
        if m.shape[0] != m.shape[1]:
            raise EigenSolveError(f"{name} is not square: shape {m.shape}")
    if a.shape != b.shape:
        raise EigenSolveError(f"A and B differ in shape: {a.shape} and {b.shape}")
    for name, m in (("A", a), ("B", b)):
        if not np.all(np.isfinite(m.data)):
            raise EigenSolveError(f"{name} has a non-finite entry")
    dim = pencil.dim
    if count is not None:
        count = int(count)
        if count < 1:
            raise EigenSolveError(f"count must be positive, got {count}")
        count = min(count, dim)
        if pencil.arrow is not None and _arpack_ncv(count + 1) < dim:
            with _one_blas_thread:
                solution = _solve_partial(pencil, count)
            if solution is not None:
                return solution
    return _solve_dense(pencil, count)


def _solve_dense(pencil: Pencil, count: int | None) -> EigenSolution:
    """LAPACK's hermitian-definite driver on A and B as N x N arrays, with
    the phase rule applied.  It reads one triangle of each, so a pencil
    that is not exactly hermitian is refused here, where it would quietly
    solve another pencil."""
    for name, m in (("A", pencil.a), ("B", pencil.b)):
        if not _is_hermitian(m):
            raise EigenSolveError(f"{name} is not hermitian")
    subset = None if count is None else (0, count - 1)
    try:
        b = pencil.b.toarray()
        w, vectors = scipy.linalg.eigh(pencil.a.toarray(), b,
                                       subset_by_index=subset)
    except MemoryError as exc:
        size = pencil.dim ** 2 * pencil.a.dtype.itemsize
        raise EigenSolveError(f"out of memory for the dense solve of dimension "
                              f"{pencil.dim}: each N x N array takes {size} bytes "
                              f"({size / 2**30:.3g} GiB)") from exc
    except scipy.linalg.LinAlgError as exc:
        potrf, = scipy.linalg.get_lapack_funcs(("potrf",), (b,))
        info = potrf(b, lower=1)[1]
        if info > 0:
            raise PositiveDefinitenessError(int(info)) from exc
        raise EigenSolveError(f"generalized eigensolve failed: {exc}") from exc
    vectors *= _phase_factors(_phase_reference(pencil.dim) @ vectors)
    residuals = np.linalg.norm(pencil.a @ vectors - (pencil.b @ vectors) * w, axis=0)
    return EigenSolution(eigenvalues=w, eigenvectors=vectors, residuals=residuals)


def _tridiagonal_count(d, e, low: float, high: float, bound: float) -> int:
    """Number of eigenvalues of tridiag(e, d, e) in the half-open
    (low, high], all of whose eigenvalues lie in [-bound, bound].

    LAPACK's bisection (``stebz``) takes this count from Sturm counts at
    the two ends; with the whole spectrum's width as its tolerance it
    does not refine the eigenvalues, which are not used.
    """
    found, *_, info = scipy.linalg.lapack.dstebz(
        d, e, 1, low, high, 1, 1, 2.0 * bound + 1.0, "E"
    )
    if info:
        raise EigenSolveError(f"Sturm count failed: dstebz info {info}")
    return found


def _negative_count(d, e, border, corner) -> int | None:
    """Negative eigenvalues of the hermitian arrow matrix
    [[T, E], [E^T, C]] with T = tridiag(e, d, e) and E real, as In_-(T)
    plus In_-(C - E^T T^{-1} E) (:func:`~saext.fem.arrow_schur`); None
    when T is numerically singular.  The stack of one of
    :func:`_negative_counts`."""
    counts = _negative_counts(d, e, border, corner[None])
    return None if counts is None else int(counts[0])


def _negative_counts(d, e, border, corners) -> np.ndarray | None:
    """:func:`_negative_count` of the arrow matrix with each boundary
    block C of the stack ``corners`` (m, 2n, 2n) and the shared T and E:
    In_-(T), the singularity test of T and E^T T^{-1} E once, then one
    batched ``eigvalsh`` of the Schur complements; None when T is
    numerically singular."""
    negatives = 0
    if d.size:
        radius = np.abs(d)
        radius[:-1] += np.abs(e)
        radius[1:] += np.abs(e)
        bound = float(np.max(radius))
        tol = _SINGULAR_RTOL * bound
        if _tridiagonal_count(d, e, -tol, tol, bound):
            return None
        negatives = _tridiagonal_count(d, e, -bound - 1.0, -tol, bound)
    try:
        schur, *_ = arrow_schur(d, e, border, corners)
    except np.linalg.LinAlgError:
        return None
    s = np.linalg.eigvalsh((schur + _adjoint(schur)) / 2.0)
    return negatives + np.count_nonzero(s < 0, axis=-1)


def _arpack_block(pencil: Pencil, k: int, shift: float) -> np.ndarray | None:
    """ARPACK's block of the k Ritz vectors nearest ``shift`` by shift-invert
    ARPACK, or None (with the reason logged) on failure.

    ARPACK iterates on OP = (A - shift B)^{-1} B in its standard mode,
    as scipy's generalized shift-invert mode (``eigsh(A, M=B, sigma=...)``)
    keeps each call's workspace and factorization of a complex pencil in a
    reference cycle until the cyclic garbage collector runs.

    A real pencil is factored and iterated in real arithmetic.  Real
    ARPACK returns a degenerate cluster's Ritz vectors as complex
    combinations, so the block of a real pencil can be complex; the
    Rayleigh-Ritz step (:class:`_SearchSpace`) takes its real span.
    """
    # the only user of scipy.sparse.linalg: loaded on the first cold solve
    import scipy.sparse.linalg

    b = pencil.b
    real = not np.iscomplexobj(b)
    start = np.random.default_rng(_START_SEED).standard_normal((2, pencil.dim))
    try:
        shifted = scipy.sparse.linalg.splu((pencil.a - shift * b).tocsc())
        op = scipy.sparse.linalg.LinearOperator(
            b.shape, matvec=lambda x: shifted.solve(b @ x), dtype=b.dtype
        )
        _, block = scipy.sparse.linalg.eigs(
            op, k=k, v0=start[0] if real else start[0] + 1j * start[1],
            ncv=_arpack_ncv(k)
        )
    except RuntimeError as exc:  # ARPACK failure or singular shifted factor
        _LOG.warning("shift-invert ARPACK failed (%s); dense fallback", exc)
        return None
    return block


def _solve_partial(pencil: Pencil, count: int) -> EigenSolution | None:
    """Certified lowest ``count`` pairs by shift-invert ARPACK and a
    Rayleigh-Ritz step on its block in a :class:`_SearchSpace`, or None
    (with the reason logged) when the dense path has to answer.

    The certificate needs a gap wider than DEGENERACY_RTOL above eigenvalue
    ``count``.  When a cluster straddles the count, the block is widened
    once by 2n, the most eigenvalues one cluster of a problem on n
    intervals has in the continuum.
    """
    arrow = pencil.arrow
    for step in range(_MAX_SHIFT_STEPS):
        shift = arrow.v_min - 2.0 ** step
        if _negative_count(*arrow.minus(shift)) == 0:
            break
    else:
        _LOG.warning("no shift below the spectrum found; dense fallback")
        return None

    two_n = arrow.a[-1].shape[0]  # the boundary block is 2n x 2n
    for k in (count + 1, count + 1 + two_n):
        if _arpack_ncv(k) >= pencil.dim:
            break
        block = _arpack_block(pencil, k, shift)
        if block is None:
            return None
        try:
            ritz = _SearchSpace(arrow, block).steps([arrow], count)[0]
        except np.linalg.LinAlgError as exc:
            _LOG.warning("Rayleigh-Ritz step failed (%s); dense fallback", exc)
            return None
        # a real span has up to 2k Ritz values: the first k decide
        if _first_gap(ritz.w[:k], count) is not None:
            break
    if _certify_stack([arrow], count, [ritz], "dense")[0]:
        return ritz.solution
    return None


def _certify_stack(arrows: Sequence[ArrowBlocks], count: int,
                   ritzes: Sequence[_Ritz], fallback: str) -> list[str | None]:
    """The certificate of the lowest ``count`` pairs of each Rayleigh-Ritz
    step in ``ritzes``, of the pencil with its arrow blocks in ``arrows``,
    all of which share their bands: "shared" for a pencil certified with
    its group, "own" for one certified in a stack of its own after its
    group failed it and None (with the reason logged, the ``fallback``
    path named) for one that is not certified.

    The certificate: every residual within its tolerance,
    RESIDUAL_RTOL * (||A|| + |lambda| ||B||) with the matrix 1-norms
    summed over the arrow blocks (:meth:`_SearchSpace.steps`); a gap wider
    than DEGENERACY_RTOL above Ritz value ``count`` of the ascending
    ``ritz.w``; nu(tau) equal to the number ``below`` of Ritz values below
    tau, for a tau inside that gap.  Ritz values bound the eigenvalues of
    their index from above, so nu(tau) is at least ``below``, and equals it
    only when no eigenvalue below tau was missed; any tau inside the gap
    certifies.  A count below ``below`` is rounding, and one above it a
    missed eigenvalue.

    The pencils with a gap and passing residuals are grouped by ``below``
    and the dtype of their boundary blocks, and each group is counted at
    one tau at a time in its common gap, from the highest lower end L to
    the lowest upper end H of its members' gaps: first half of
    DEGENERACY_RTOL above L, where tau also certifies a Ritz value above
    the gap that lies far above its eigenvalue, as after inverse steps
    from converged vectors; then the points _GAP_FRACTIONS of the way from
    L to H.  The next tau is tried only while T(tau) is numerically
    singular, so that nu(tau) is not trusted, a member's count is below
    ``below``, or no member's gap holds tau.  Haynsworth's count takes
    In_-(T(tau)), the singularity test of T(tau) and E^T T(tau)^{-1} E
    once, as only the boundary block C depends on U, and each pencil whose
    gap holds tau one ``eigvalsh`` of its 2n x 2n Schur complement
    (:func:`_negative_counts`).  A member
    that a group of two or more does not certify is certified in a stack
    of its own, at the taus of its own gap.  A pencil without a gap or
    with a residual over its tolerance takes no inertia count.
    """
    out: list[str | None] = [None] * len(arrows)
    groups: dict[tuple, list] = {}
    for i, ritz in enumerate(ritzes):
        gap = _first_gap(ritz.w, count)
        if gap is None:
            _LOG.warning("no gap above eigenvalue %d; %s fallback", count, fallback)
        elif not ritz.converged:
            _LOG.warning("Ritz residuals exceed their tolerances; %s fallback",
                         fallback)
        else:
            below, low, high = gap
            key = (below, np.iscomplexobj(arrows[i].a[3]))
            groups.setdefault(key, []).append((i, low, high))
    for (below, _), members in groups.items():
        _, lows, highs = zip(*members)
        low, high = max(lows), min(highs)
        counts: dict[int, int] = {}
        for tau in (low + 0.5 * DEGENERACY_RTOL * max(1.0, abs(high)),
                    *(low + fraction * (high - low) for fraction in _GAP_FRACTIONS)):
            inside = [i for i, lo, hi in members if lo < tau < hi]
            if not inside:
                continue
            corners = (np.stack([arrows[i].a[3] for i in inside])
                       - tau * np.stack([arrows[i].b[3] for i in inside]))
            found = _negative_counts(*arrows[inside[0]].minus(tau)[:3], corners)
            counts = {} if found is None else dict(zip(inside, found.tolist()))
            if counts and min(counts.values()) >= below:
                break
        for i, _, _ in members:
            if counts.get(i) == below:
                out[i] = "shared"
            elif len(members) == 1:
                _LOG.warning("inertia certificate failed: nu(%.17g) = %s (None: "
                             "singular bulk block), expected %d; %s fallback",
                             tau, counts.get(i), below, fallback)
            elif _certify_stack([arrows[i]], count, [ritzes[i]], fallback)[0]:
                out[i] = "own"
    return out


def _first_gap(w: np.ndarray, count: int) -> tuple[int, float, float] | None:
    """(below, low, high) of the first gap wider than DEGENERACY_RTOL above
    Ritz value ``count`` of the ascending ``w``: the number of Ritz values
    below it and its ends; None when there is none."""
    wide = _gaps(w[count - 1:], DEGENERACY_RTOL)
    if not np.any(wide):
        return None
    below = count + int(np.argmax(wide))
    return below, w[below - 1], w[below]


def _free_product(blocks, q: np.ndarray, bulk: int) -> np.ndarray:
    """M_f Q for the arrow matrix M with blocks (diag, upper, border,
    corner) and its boundary block left out, Q in arrow row order: the
    bulk rows T Q_b + E Q_c and the boundary rows E^T Q_b."""
    diag, upper, border, _ = blocks
    q_b, q_c = q[:bulk], q[bulk:]
    out = np.empty_like(q)
    t_q = diag[:, None] * q_b
    t_q[:-1] += upper[:, None] * q_b[1:]
    t_q[1:] += upper[:, None] * q_b[:-1]
    out[:bulk] = t_q + border @ q_c
    out[bulk:] = border.T @ q_b
    return out


class _Ritz:
    """A Rayleigh-Ritz step of one pencil on the :class:`_SearchSpace`
    ``space``: all ascending Ritz values ``w``, the projected coefficients
    ``y`` of the lowest ``count`` pairs (phases fixed), B times their
    vectors in arrow row order, their residuals and the residual
    tolerances.  The vectors in global order are formed on first use of
    :attr:`solution` or :attr:`b_vectors`; a caller that reads only the
    eigenvalues never forms them."""

    def __init__(self, space: "_SearchSpace", w: np.ndarray, y: np.ndarray,
                 bv: np.ndarray, residuals: np.ndarray, tolerances: np.ndarray):
        self.space, self.w, self._y, self._bv = space, w, y, bv
        self.residuals, self.tolerances = residuals, tolerances

    @property
    def eigenvalues(self) -> np.ndarray:
        return self.w[:self._y.shape[1]]

    @property
    def converged(self) -> bool:
        return bool(np.all(self.residuals <= self.tolerances))

    @functools.cached_property
    def solution(self) -> EigenSolution:
        vectors = np.empty_like(self._bv)
        vectors[self.space._order] = self.space._q @ self._y
        return EigenSolution(eigenvalues=self.eigenvalues, eigenvectors=vectors,
                             residuals=self.residuals)

    @functools.cached_property
    def b_vectors(self) -> np.ndarray:
        """B times the wanted Ritz vectors, in global order."""
        out = np.empty_like(self._bv)
        out[self.space._order] = self._bv
        return out


class _SearchSpace:
    """The span of a start block, projected once for every pencil whose
    arrow blocks share the bands of ``arrow``.

    Only the 2n x 2n boundary block C of an assembled pencil depends on U;
    the bands and the border come from one :class:`~saext.fem.BulkAssembly`.
    So all the rest is kept here, in arrow row order (bulk rows, then
    boundary rows): the orthonormal basis Q of the block, the products
    A_f Q and B_f Q with the boundary block left out, which the bands and
    the border give, Q^H A_f Q and Q^H B_f Q, and Q's boundary rows Q_c.
    A Rayleigh-Ritz step (:meth:`steps`) adds Q_c^H C Q_c to each
    projection, and its residuals come from the stored products plus
    C Q_c y.  It takes a stack of pencils at once: their boundary blocks
    stacked, one batched call each of ``cholesky``, ``inv`` and ``eigh``
    and stacked residuals, where each pencil gets the same LAPACK call and
    the same products as alone, so its result does not depend on the
    stack.  ``steps([arrow], count)[0]`` is the step of one pencil.

    The columns of the block, scaled to unit norm so that none is lost
    beside a longer one, are orthonormalized by Householder QR, which keeps
    the span of nearly dependent columns such as a converged vector and its
    inverse step.  A real pencil keeps real vectors: for a real ``arrow`` a
    complex block, such as real ARPACK's Ritz vectors of a degenerate
    cluster (complex combinations whose real parts can be linearly
    dependent), is replaced by its real and imaginary parts.  That real
    span of k columns has k to 2k dimensions and contains their complex
    span, so by Cauchy interlacing its lowest k Ritz values are no worse
    than those of the k-dimensional complex span.  All of it is numpy.

    Raises
    ------
    EigenSolveError
        When ``block`` is not a finite 2-D block with one row per basis
        function.
    """

    def __init__(self, arrow: ArrowBlocks, block: np.ndarray) -> None:
        order = arrow.order
        block = np.asarray(block)
        if block.ndim != 2 or block.shape[0] != order.size:
            raise EigenSolveError(f"start block has shape {block.shape}, "
                                  f"expected ({order.size}, k)")
        if not np.all(np.isfinite(block)):
            raise EigenSolveError("start block has a non-finite entry")
        if np.iscomplexobj(block) and not np.iscomplexobj(arrow.b[-1]):
            block = np.hstack([block.real, block.imag])
        self.block = block
        basis = block[order]
        norms = np.linalg.norm(basis, axis=0)
        q, _ = np.linalg.qr(basis[:, norms > 0] / norms[norms > 0])
        bulk = arrow.a[0].size
        self._bands = (*arrow.a[:3], *arrow.b[:3])
        self._order, self._bulk, self._q, self._q_c = order, bulk, q, q[bulk:]
        self._free = [_free_product(blocks, q, bulk) for blocks in (arrow.a, arrow.b)]
        self._projected = [q.conj().T @ free for free in self._free]
        self._reference = _phase_reference(order.size)[order] @ q
        # the band part of each matrix's absolute column sums: the largest
        # over the bulk columns, and the border's over the boundary columns
        self._column_sums = []
        for diag, upper, border, _ in (arrow.a, arrow.b):
            bulk_sums = np.abs(diag) + np.abs(border).sum(axis=1)
            bulk_sums[:-1] += np.abs(upper)
            bulk_sums[1:] += np.abs(upper)
            self._column_sums.append((bulk_sums.max(initial=0.0),
                                      np.abs(border).sum(axis=0)))

    def steps(self, arrows: Sequence[ArrowBlocks], count: int) -> list[_Ritz]:
        """The Rayleigh-Ritz step on this space of each pencil with arrow
        blocks in ``arrows``, with its lowest ``count`` pairs, taken for the
        whole stack at once.  Boundary blocks of one dtype make one stack;
        a stack that mixes real and complex ones is taken as two.

        The projected pencil (Q^H A Q, Q^H B Q) is reduced to standard form
        by the Cholesky factor of Q^H B Q, which is as well conditioned as
        the mass matrix.  The phases of the wanted vectors are fixed before
        their residuals are taken.

        Raises
        ------
        EigenSolveError
            When the bands of an ``arrow`` are not this space's, as for the
            blocks of another assembly.
        numpy.linalg.LinAlgError
            When a C has a non-finite entry or a Q^H B Q is not numerically
            positive definite, for the whole stack.
        """
        for arrow in arrows:
            if any(mine is not theirs for mine, theirs
                   in zip(self._bands, (*arrow.a[:3], *arrow.b[:3]))):
                raise EigenSolveError("arrow blocks of another assembly: their "
                                      "bands are not this search space's")
        kinds = [np.iscomplexobj(arrow.a[3]) for arrow in arrows]
        if len(set(kinds)) > 1:  # real and complex blocks: a stack each
            out = [None] * len(arrows)
            for kind in (False, True):
                where = [i for i, k in enumerate(kinds) if k == kind]
                for i, ritz in zip(where, self.steps([arrows[i] for i in where],
                                                     count)):
                    out[i] = ritz
            return out

        corners = [np.stack([arrow.a[3] for arrow in arrows]),
                   np.stack([arrow.b[3] for arrow in arrows])]
        if not all(np.all(np.isfinite(c)) for c in corners):
            raise np.linalg.LinAlgError("boundary block has a non-finite entry")
        q_c = self._q_c
        c_q = [c @ q_c for c in corners]
        a_proj, b_proj = (p + q_c.conj().T @ cq
                          for p, cq in zip(self._projected, c_q))
        inverse = np.linalg.inv(np.linalg.cholesky(
            (b_proj + _adjoint(b_proj)) / 2.0))
        reduced = inverse @ a_proj @ _adjoint(inverse)
        w, z = np.linalg.eigh((reduced + _adjoint(reduced)) / 2.0)
        y = _adjoint(inverse) @ z[:, :, :count]
        y *= _phase_factors(self._reference @ y)[:, None, :]

        av, bv = (free @ y for free in self._free)
        av[:, self._bulk:] += c_q[0] @ y
        bv[:, self._bulk:] += c_q[1] @ y
        low = w[:, :count]
        av -= bv * low[:, None, :]
        residuals = np.linalg.norm(av, axis=-2)
        a_norm, b_norm = (
            np.maximum(bulk_max, np.max(sums + np.abs(c).sum(axis=-2), axis=-1))
            for (bulk_max, sums), c in zip(self._column_sums, corners))
        tolerances = _tolerances(a_norm[:, None], b_norm[:, None], low)
        return [_Ritz(self, *parts) for parts in zip(w, y, bv, residuals, tolerances)]

    def solve_stack(self, arrows: Sequence[ArrowBlocks],
                    count: int) -> list[np.ndarray]:
        """The certified lowest ``count`` eigenvalues of each pencil with
        arrow blocks in ``arrows``.

        The pencils are taken in chunks of _SWEEP_CHUNK, each at one BLAS
        thread.  One stacked step on this space (:meth:`steps`) gives each
        pencil of a chunk its Ritz pairs (theta_j, v_j).  Then, pencil by
        pencil, each round adds one inverse step
        w_j = (A - theta_j B)^{-1} B v_j for every j < ``count`` to the
        block and takes a Rayleigh-Ritz step on its span, that of [V, W]
        (Parlett, The Symmetric Eigenvalue Problem, SIAM 1998, ch. 4 and
        11).  Rounds stop once the lowest ``count`` residuals are within
        their tolerances, or after _WARM_ROUNDS.  A block of more than
        ``count`` columns that already holds the wanted pairs, such as the
        stability study's base eigenvectors with their boundary responses,
        takes no round at all.  One of ``count`` columns always takes one:
        the certificate needs a Ritz value above the gap.  The chunk's
        results then have to pass the certificate of :func:`_certify_stack`,
        which counts each group of them at the taus of its common gap and
        certifies in a stack of its own only a pencil its group does not
        certify.

        A pencil that fails, and every pencil of a chunk whose stacked step
        raises (a non-finite boundary block, a failed Cholesky
        factorization), is answered by the cold path, :func:`solve_pencil`
        on the CSR arrays of its blocks
        (:meth:`~saext.fem.ArrowBlocks.pencil`), with the reason logged.
        The cold path runs after the chunk's one-thread scope, so a dense
        fallback keeps the caller's BLAS threads.  One INFO record on the
        ``saext`` logger counts the pencils the stacked step, the rounds
        and the cold path answered, and those of the first two certified
        at their chunk's shared tau.

        Raises
        ------
        EigenSolveError
            When the bands of an ``arrow`` are not this space's, or as
            :func:`solve_pencil` for a pencil on the cold path.
        """
        answers = []
        paths = {"stacked": 0, "rounds": 0, "cold": 0, "shared": 0}
        for first in range(0, len(arrows), _SWEEP_CHUNK):
            answers += self._solve_chunk(arrows[first:first + _SWEEP_CHUNK],
                                         count, paths)
        _LOG.info("warm solve of %d pencils: %d certified by the stacked "
                  "Rayleigh-Ritz step, %d after inverse-step rounds, %d by the "
                  "cold path; %d certified at their chunk's shared tau",
                  len(arrows), *paths.values())
        return answers

    def _solve_chunk(self, arrows: Sequence[ArrowBlocks], count: int,
                     paths: dict) -> list[np.ndarray]:
        """:meth:`solve_stack` of one chunk, with the path of each pencil
        counted in ``paths``; the chunk's steps are released on return."""
        with _one_blas_thread:
            try:
                steps = self.steps(arrows, count)
            except np.linalg.LinAlgError as exc:
                _LOG.warning("warm path failed (%s); cold fallback", exc)
                steps = [None] * len(arrows)
            steps = [None if ritz is None else self._rounds(arrow, count, ritz)
                     for arrow, ritz in zip(arrows, steps)]
            warm = [i for i, ritz in enumerate(steps) if ritz is not None]
            certified = dict(zip(warm, _certify_stack(
                [arrows[i] for i in warm], count, [steps[i] for i in warm], "cold")))
        out = []
        for i, (arrow, ritz) in enumerate(zip(arrows, steps)):
            if certified.get(i) is None:
                paths["cold"] += 1
                out.append(solve_pencil(arrow.pencil(), count).eigenvalues)
            else:
                paths["stacked" if ritz.space is self else "rounds"] += 1
                paths["shared"] += certified[i] == "shared"
                out.append(ritz.eigenvalues)
        return out

    def _rounds(self, arrow: ArrowBlocks, count: int, ritz: _Ritz) -> _Ritz | None:
        """The inverse-step rounds of :meth:`solve_stack` for one pencil
        from its first step ``ritz``: the last step, or None (with the
        reason logged) when an inverse step or a step fails."""
        try:
            space = self
            done = ritz.w.size > count and ritz.converged
            for _ in range(0 if done else _WARM_ROUNDS):
                steps = [_inverse_step(arrow, theta, ritz.b_vectors[:, j])
                         for j, theta in enumerate(ritz.w[:count])]
                space = _SearchSpace(arrow, np.column_stack([space.block, *steps]))
                ritz = space.steps([arrow], count)[0]
                if ritz.converged:
                    break
        except np.linalg.LinAlgError as exc:
            _LOG.warning("warm path failed (%s); cold fallback", exc)
            return None
        return ritz


def _inverse_step(arrow: ArrowBlocks, theta: float, rhs: np.ndarray) -> np.ndarray:
    """(A - theta B)^{-1} rhs by the arrow blocks.

    A shift on an eigenvalue, a Ritz value that has converged exactly, can
    make a pivot exactly zero; it is then moved by _NUDGE_ULPS, which keeps
    the inverse step pointing along the eigenvector.

    Raises
    ------
    numpy.linalg.LinAlgError
        When A - theta B is exactly singular at the nudged shift too, or
        the step overflows (a search space takes finite blocks only).
    """
    try:
        step = arrow.solve(theta, rhs)
    except np.linalg.LinAlgError:
        nudged = theta + _NUDGE_ULPS * np.finfo(float).eps * max(1.0, abs(theta))
        try:
            step = arrow.solve(nudged, rhs)
        except np.linalg.LinAlgError as exc:
            raise np.linalg.LinAlgError(f"inverse step at {theta!r}: {exc}") from exc
    if not np.all(np.isfinite(step)):
        raise np.linalg.LinAlgError(f"inverse step at {theta!r} is not finite")
    return step


def _tolerances(a_norm: float, b_norm: float, eigenvalues: np.ndarray) -> np.ndarray:
    """RESIDUAL_RTOL * (||A|| + |lambda| ||B||) for each eigenvalue."""
    return RESIDUAL_RTOL * (a_norm + np.abs(eigenvalues) * b_norm)


def eigenfunction_samples(
    sol: EigenSolution,
    mesh,
    bvals: BoundaryValues,
    which: int,
):
    """Sample eigenfunction ``which`` at the mesh nodes.

    Returns (x, values) with both arrays concatenated over the intervals.
    Endpoint samples include the boundary-function contributions.  Raises
    ``IndexError`` when ``which`` is not in [0, count).
    """
    if not 0 <= which < sol.count:
        raise IndexError(f"eigenpair index {which} out of range [0, {sol.count})")
    per_interval = node_values(mesh, bvals, sol.eigenvectors[:, which])
    return np.concatenate(mesh.nodes), np.concatenate(per_interval)


def h1_error(
    sol: EigenSolution,
    which: int,
    mesh,
    bvals: BoundaryValues,
    reference,
) -> float:
    """Sobolev-1 distance between eigenfunction ``which`` and a reference.

    ``reference`` is a pair of callables (psi, dpsi) evaluated at global
    coordinates.  The finite element function is linear on every
    subinterval, so the integral is accumulated per subinterval with
    five-point Gauss-Legendre quadrature.  Before differencing, the
    eigenfunction is multiplied by the unit-modulus phase maximizing the
    real inner product with the reference.  Raises ``IndexError`` when
    ``which`` is not in [0, count).
    """
    if not 0 <= which < sol.count:
        raise IndexError(f"eigenpair index {which} out of range [0, {sol.count})")
    psi_ref, dpsi_ref = reference
    per_interval = node_values(mesh, bvals, sol.eigenvectors[:, which])

    gauss_x, gauss_w = np.polynomial.legendre.leggauss(5)
    t_ref = (gauss_x + 1.0) / 2.0

    # Per interval: step, node values, quadrature points, and the finite
    # element and reference values there.
    quad = []
    for alpha, vals in enumerate(per_interval):
        h = mesh.h[alpha]
        xq = mesh.nodes[alpha][:-1, None] + h * t_ref[None, :]
        fem_q = vals[:-1, None] * (1.0 - t_ref)[None, :] + vals[1:, None] * t_ref[None, :]
        quad.append((h, vals, xq, fem_q, np.asarray(psi_ref(xq), dtype=complex)))

    # Phase alignment: c = conj(<psi_ref, Phi>) / |<psi_ref, Phi>|.
    inner = 0.0 + 0.0j
    for h, _, _, fem_q, ref_q in quad:
        inner += (h / 2.0) * np.sum(gauss_w[None, :] * np.conj(ref_q) * fem_q)
    phase = np.conj(inner) / abs(inner) if abs(inner) > 0 else 1.0

    total = 0.0
    for h, vals, xq, fem_q, ref_q in quad:
        slope = (vals[1:] - vals[:-1]) / h
        diff_val = ref_q - phase * fem_q
        diff_slope = np.asarray(dpsi_ref(xq), dtype=complex) - phase * slope[:, None]
        total += (h / 2.0) * np.sum(
            gauss_w[None, :] * (np.abs(diff_val) ** 2 + np.abs(diff_slope) ** 2)
        )
    return float(np.sqrt(total))
