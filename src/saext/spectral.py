"""Spectral-determinant method: an eigenvalue solver independent of the
finite element discretization, used to cross-validate it.

For each trial lambda, every interval carries a two-dimensional space of
solutions of -mu Psi'' + V Psi = lambda Psi.  Their boundary traces are
combined with the boundary unitary U into a 2n x 2n matrix M(U, lambda)
through a Hadamard-product block algebra; lambda is an eigenvalue exactly
when det M(U, lambda) = 0.  The same traces give the unitary scattering
matrix S(lambda) of each interval, and lambda is an eigenvalue exactly when
W = U^H S has eigenvalue 1.  The eigenphases of W increase with lambda, so
``find_spectrum`` counts eigenvalues as eigenphase crossings of 0 and
refines each crossing inside its bracket by the Illinois variant of
regula falsi.

Fundamental-solution basis
--------------------------
Every interval carries the normalized pair, with initial data (1, 0) and
(0, 1) at its left endpoint.  For constant potentials these are cos(k x')
and sin(k x')/k in the local coordinate x', entire in lambda, so the
determinant has no spurious zero or branch point anywhere on the real
axis, including at lambda equal to the potential plateau.  The numerical
integrator produces the same basis, which makes the two paths directly
comparable.  Any other nondegenerate basis, such as the exponential one
of the paper's worked example, only multiplies the determinant by a
nonzero factor and moves no zeros.

Numerical integration
---------------------
Non-constant potentials are integrated by a sixth-order Magnus method
(Iserles & Norsett, Phil. Trans. R. Soc. A 357, 1999; Blanes, Casas &
Ros, BIT 40, 2000).  Each step takes V at its three Gauss points, forms
the traceless 2x2 exponent Omega of Psi' = A(x) Psi in closed form and
maps the state by exp(Omega) = c I + s Omega, with c, s = cosh w,
sinh(w) / w (or cos w, sin(w) / w) of w = sqrt(|det Omega|).  The step is
exact for constant V and keeps its order where V is smooth.  The steps
end on every knot of V inside the interval (``Potential.knots``: the
abscissae of a ``SampledPotential``), so each step lies on one linear
piece.  The widest piece starts with 8 equal steps (fewer when more than
8192 pieces would put the doubled count over the cap) and every other
piece with a count in proportion to its width, rounded up, so the steps
are about equally wide and equal pieces get 8 each; a V that declares no
knots starts with 2048 steps across the interval.  The state is the
ordered product of the step maps, multiplied pairwise.  A result is
accepted when m and 2m steps agree to 1e-9; every piece's step count
doubles, up to 2**17 steps in all, before ``TraceIntegrationError``.  A
state that is not finite (the solutions overflow float64, far below V)
raises ``TraceIntegrationError`` at once, and a non-finite tabulated V
raises ``PotentialError``.

Batches over lambda
-------------------
Every trace computation takes an array of trial lambdas.  Closed forms
run elementwise over a (lambda, interval) array.  The Magnus method
forms a (lambda, step) stack of step maps and reduces it along the step
axis.  The first comparison's m and 2m steps are formed in one stack and
share one pairwise reduction: the 2m maps are paired once, and from there
on both step counts are paired together, one matmul call a level.  Every
operation is elementwise over lambda, and every product pairs the same
two maps as a step count reduced alone, so each lambda's state rounds
exactly as it would alone.  V does not depend on lambda: it is
tabulated with one vectorized ``potential.value`` call per (interval,
step count) and reused by every later trial lambda of the same
``find_spectrum`` call.  The step count doubles per lambda: the lambdas
whose m and 2m steps agree are done, the others go on to 4m.  A batch
holds at most ``_BATCH_ELEMENTS`` lambda-steps, so memory stays bounded
on any grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .boundary import BoundaryCondition
from .geometry import IntervalSet
from .potentials import Potential, PotentialError

_ODE_STEPS = 2048  # first step count of the halving comparison without knots
_PIECE_STEPS = 8  # first step count per linear piece of a table
_ODE_RTOL = 1e-9
_MAX_ODE_STEPS = 1 << 17
# lambda-steps per batch of Magnus step maps; a batch peaks near 13 MiB
_BATCH_ELEMENTS = 1 << 16

DEFAULT_GRID_DENSITY = 2000  # scan points per unit of sign(lam)*sqrt(|lam|)
REFINE_WIDTH = 1e-10  # relative width of the bracket a root is reported from
_TWO_PI = 2.0 * math.pi


class TraceIntegrationError(RuntimeError):
    """The fundamental traces could not be computed: the integrator did not
    reach its tolerance, or the traces overflow float64."""


def odot(u, psi):
    """Block extension of the Hadamard product.

    ``u`` is 2n x 2n in block ordering, ``psi`` a 2n x 2 matrix whose
    columns stack (left traces; right traces) for the two fundamental
    solutions, or a stack of them with shape (..., 2n, 2).  The result is
    the 2n x 2n matrix (or the stack of them) with n x n blocks
    B[Ij] = u^{I1} . psi_l^j + u^{I2} . psi_r^j, built as its two column
    blocks u[:, :n] . psi_l^j + u[:, n:] . psi_r^j (j = 1, 2).
    """
    u = np.asarray(u)
    psi = np.asarray(psi)
    if u.ndim != 2 or u.shape[0] != u.shape[1] or u.shape[0] % 2 != 0:
        raise ValueError(f"u must be square of even dimension, got {u.shape}")
    n = u.shape[0] // 2
    if psi.shape[-2:] != (2 * n, 2):
        raise ValueError(f"psi must have shape (..., {2 * n}, 2), got {psi.shape}")
    return np.concatenate([u[:, :n] * psi[..., None, :n, col]
                           + u[:, n:] * psi[..., None, n:, col]
                           for col in (0, 1)], axis=-1)


@dataclass(frozen=True)
class FundamentalTraces:
    """Boundary traces of the two fundamental solutions per interval.

    Arrays have shape (..., n, 2), indexed [..., alpha, sigma]; leading
    axes, when present, run over the trial lambdas in ``lam``.  ``dpsi_l``
    and ``dpsi_r`` hold outward normal derivatives: -Psi'(a) on the left,
    +Psi'(b) on the right.
    """

    lam: float | np.ndarray
    mu: float
    psi_l: np.ndarray
    dpsi_l: np.ndarray
    psi_r: np.ndarray
    dpsi_r: np.ndarray

    @property
    def n(self) -> int:
        return self.psi_l.shape[-2]

    def trace_matrix(self, sign: int) -> np.ndarray:
        """The 2n x 2 matrix stacking psi_{l,sign} over psi_{r,sign}."""
        if sign not in (+1, -1):
            raise ValueError("sign must be +1 or -1")
        top = self.psi_l + 1j * sign * self.dpsi_l
        bottom = self.psi_r + 1j * sign * self.dpsi_r
        return np.concatenate([top, bottom], axis=-2)


def _normalized_traces(lam, mu, psi_r, dpsi_r) -> FundamentalTraces:
    """Traces of the normalized basis, initial data (1, 0) and (0, 1) at
    the left endpoint, from its real right traces of shape (..., n, 2)."""
    shape = psi_r.shape
    return FundamentalTraces(
        lam=lam, mu=mu,
        psi_l=np.broadcast_to(np.array([1.0, 0.0], dtype=complex), shape),
        dpsi_l=np.broadcast_to(np.array([0.0, -1.0], dtype=complex), shape),
        psi_r=psi_r.astype(complex), dpsi_r=dpsi_r.astype(complex),
    )


def _closed_form_traces(lengths, constants, lam, mu):
    """Right traces (psi_r, dpsi_r) of the normalized basis for constant V,
    real arrays of shape (lambda, n, 2): cos(k x') and sin(k x') / k, with
    k = sqrt((lambda - V) / mu) on each interval.  They are not finite
    where they overflow float64."""
    with np.errstate(over="ignore", invalid="ignore"):
        k = np.sqrt((lam[:, None] - constants) / mu + 0j)
        kl = k * lengths
        cos_kl = np.cos(kl).real
        sin_kl = np.sin(kl)
        # k and sin(kL) are both real or both imaginary, so sin(kL) / k
        # divides their nonzero parts: one real division (numpy's complex
        # division multiplies by a reciprocal, a rounding more)
        sin_over_k = np.divide(sin_kl.real + sin_kl.imag, k.real + k.imag,
                               out=np.broadcast_to(lengths, k.shape).copy(),
                               where=k != 0)
        psi_r = np.stack((cos_kl, sin_over_k), axis=-1)
        dpsi_r = np.stack(((-(k * k) * sin_over_k).real, cos_kl), axis=-1)
    return psi_r, dpsi_r


# Gauss-Legendre nodes of one step, as fractions of it
_GAUSS_NODES = (0.5 - math.sqrt(15.0) / 10.0, 0.5, 0.5 + math.sqrt(15.0) / 10.0)


def _magnus_step_maps(z, h):
    """The (..., m, 2, 2) stack of sixth-order Magnus step maps for
    Psi' = A Psi.

    A = [[0, 1], [q, 0]] with q = (V - lambda) / mu; ``z`` is (3, ..., m),
    the values of h^2 q at the three Gauss nodes of each step of width
    ``h``, for any number of leading (lambda) axes.
    With A_i = A(q_i), a1 = h A_2, a2 = sqrt(15) h / 3 (A_3 - A_1) and
    a3 = 10 h / 3 (A_3 - 2 A_2 + A_1), the step's exponent is
    Omega = a1 + a3 / 12 + [-20 a1 - a3 + C1, a2 + C2] / 240 with
    C1 = [a1, a2] and C2 = -[a1, 2 a3 + C1] / 60 (Blanes, Casas & Ros,
    BIT 40, 2000).  a2 and a3 are multiples of E = [[0, 0], [1, 0]], and
    the brackets close on F = [[0, 1], [0, 0]], E and H = [F, E] =
    diag(1, -1); multiplied out, Omega = [[p, h r], [s / h, -p]] below,
    with d2 = sqrt(15) / 3 (z_3 - z_1) and d3 = 10 / 3 (z_3 - 2 z_2 + z_1).
    Omega is traceless, so Omega^2 = (p^2 + r s) I and
    exp(Omega) = cosh(w) I + (sinh(w) / w) Omega with w = sqrt(p^2 + r s),
    in cos and sin of sqrt(-(p^2 + r s)) when that is negative.  Exact
    for constant q; sixth order on each step where q is smooth, which a
    linear piece of a sampled table is.  Every operation is elementwise,
    so a stack over lambda rounds each map as a stack of one does.
    """
    z1, z2, z3 = z
    d2 = (math.sqrt(15.0) / 3.0) * (z3 - z1)
    d3 = (10.0 / 3.0) * (z3 - 2.0 * z2 + z1)
    d2_sq = d2 * d2
    p = d2 * ((1.0 / 180.0) * z2 + d3 / 7200.0 - 1.0 / 12.0)
    r = 1.0 + (d2_sq - 20.0 * d3) / 3600.0
    s = z2 + d3 / 12.0 + (d3 * (20.0 * z2 + d3) - d2_sq * (30.0 - z2)) / 3600.0
    det = p * p + r * s
    w = np.sqrt(np.abs(det))
    grows = det > 0
    # a batch whose steps all grow, or all oscillate, evaluates one branch
    if grows.all():
        cos_w, sin_w = np.cosh(w), np.sinh(w)
    elif grows.any():
        cos_w = np.where(grows, np.cosh(w), np.cos(w))
        sin_w = np.where(grows, np.sinh(w), np.sin(w))
    else:
        cos_w, sin_w = np.cos(w), np.sin(w)
    sinc_w = np.divide(sin_w, w, out=np.ones_like(w), where=w > 0)
    sinc_p = sinc_w * p
    maps = np.empty(w.shape + (2, 2))
    np.add(cos_w, sinc_p, out=maps[..., 0, 0])
    np.multiply(sinc_w * r, h, out=maps[..., 0, 1])
    np.divide(sinc_w * s, h, out=maps[..., 1, 0])
    np.subtract(cos_w, sinc_p, out=maps[..., 1, 1])
    return maps


def _paired(mats):
    """One level of the pairwise product of an (..., m, 2, 2) stack:
    M_{2j+1} M_{2j}, the last map of an odd stack times the identity."""
    if mats.shape[-3] % 2:
        identity = np.broadcast_to(np.eye(2), mats.shape[:-3] + (1, 2, 2))
        mats = np.concatenate((mats, identity), axis=-3)
    return mats[..., 1::2, :, :] @ mats[..., 0::2, :, :]


def _ordered_product(stacks):
    """M_{m-1} ... M_0 of each (..., m, 2, 2) stack of ``stacks``, multiplied
    pairwise in order along its step axis, as one (stack, ..., 2, 2) array.

    The longest stack is reduced by a level until all have one length, and
    then all of them are reduced together, one matmul call per level: m and
    2m steps take the levels of 2m alone, not those of both.  Every product
    pairs the same two maps as the stack's reduction alone would."""
    stacks = list(stacks)
    lengths = [mats.shape[-3] for mats in stacks]
    while min(lengths) < max(lengths):
        longest = lengths.index(max(lengths))
        stacks[longest] = _paired(stacks[longest])
        lengths[longest] = stacks[longest].shape[-3]
    mats = np.stack(stacks)
    while mats.shape[-3] > 1:
        mats = _paired(mats)
    return mats[..., 0, :, :]


def _pieces(potential, alpha, a, b):
    """Edges of the pieces of (a, b) between V's knots, and the first
    step count of each piece.  For a table, whose pieces are linear, the
    widest piece gets ``_PIECE_STEPS`` (fewer when twice that on every
    piece would pass the cap) and every other piece a count in proportion
    to its width, rounded up, so the steps are about equally wide; equal
    pieces get equal counts.  A V that declares no knots gets
    ``_ODE_STEPS``."""
    knots = potential.knots(alpha)
    if knots is None:
        return np.array([a, b]), np.array([_ODE_STEPS])
    knots = np.asarray(knots, dtype=float)
    edges = np.concatenate(([a], knots[(knots > a) & (knots < b)], [b]))
    widths = np.diff(edges)
    widest = max(1, min(_PIECE_STEPS, _MAX_ODE_STEPS // (2 * widths.size)))
    # widths / max <= 1 rounds to at most 1, so no count passes ``widest``
    return edges, np.ceil(widest * (widths / widths.max())).astype(int)


def _accepted(coarse, fine):
    """Which of the (lambda, 2, 2) states ``fine`` agree with ``coarse``, of
    half the steps, to ``_ODE_RTOL`` of their scale."""
    scale = np.maximum(1.0, np.abs(fine).max(axis=(1, 2)))
    return np.abs(fine - coarse).max(axis=(1, 2)) <= _ODE_RTOL * scale


class _RightTraces:
    """Right traces of the normalized fundamental system of one problem,
    for 1-D arrays of trial lambda.

    Calling it with lambda returns real (lambda, n, 2) arrays psi_r and
    dpsi_r.  Constant V takes the closed form, which is faster than the
    Magnus steps that would also be exact for it; any other V is
    integrated by the Magnus method on every interval, the step count
    doubling per lambda until two counts agree.  V is tabulated once per
    (interval, step count), at the first call that needs it, and reused by
    every later call.  Raises ``PotentialError`` for a V that is not finite
    at a node, and ``TraceIntegrationError`` naming the first lambda of the
    batch whose traces overflow float64, or when the step halving does not
    converge.
    """

    def __init__(self, potential: Potential, geom: IntervalSet, mu: float) -> None:
        self.potential = potential
        self.mu = mu
        constants = [potential.constant_value(alpha) for alpha in range(geom.n)]
        self.closed = None not in constants
        self.constants = np.array(constants, dtype=float) if self.closed else None
        self.lengths = np.array([b - a for a, b in geom.intervals])
        self.pieces = [_pieces(potential, alpha, a, b)
                       for alpha, (a, b) in enumerate(geom.intervals)]
        # (alpha, step-count factors) -> (V, h, h^2, step slice per factor)
        self.tables = {}

    def __call__(self, lam):
        lam = np.asarray(lam, dtype=float)
        if self.closed:
            psi_r, dpsi_r = _closed_form_traces(self.lengths, self.constants,
                                                lam, self.mu)
            finite = np.isfinite(dpsi_r).all(axis=(1, 2))
            if not finite.all():
                raise TraceIntegrationError(
                    "fundamental traces overflow float64 at lambda = "
                    f"{float(lam[np.argmin(finite)])!r}"
                )
            return psi_r, dpsi_r
        states = np.empty((lam.size, self.lengths.size, 2, 2))
        for alpha in range(self.lengths.size):
            states[:, alpha] = self._integrated(alpha, lam)
        return states[:, :, 0], states[:, :, 1]

    def _integrated(self, alpha, lam):
        """The (lambda, 2, 2) states on interval ``alpha``, rows Psi, Psi'
        at its right end: each lambda's from the first step count that
        agrees with half of it to ``_ODE_RTOL``."""
        coarse, out = self._states(alpha, (1, 2), lam)
        done = _accepted(coarse, out)
        if done.all():
            return out
        todo = np.flatnonzero(~done)
        coarse, factor = out[todo], 2
        while todo.size:
            factor *= 2
            fine, = self._states(alpha, (factor,), lam[todo])
            done = _accepted(coarse, fine)
            out[todo[done]] = fine[done]
            todo, coarse = todo[~done], fine[~done]
        return out

    def _states(self, alpha, factors, lam):
        """The (lambda, 2, 2) Magnus states across interval ``alpha``, one
        for each multiple in ``factors`` of the first step counts of its
        pieces.  The step maps of all factors are formed together, in
        batches of at most ``_BATCH_ELEMENTS`` lambda-steps, and reduced by
        one pairwise product.  Raises ``TraceIntegrationError`` as
        ``_table`` does, and, naming the first such lambda, when a state is
        not finite."""
        v, h, h_sq, steps = self._table(alpha, factors)
        states = np.empty((len(factors), lam.size, 2, 2))
        chunk = max(1, _BATCH_ELEMENTS // h.size)
        for start in range(0, lam.size, chunk):
            part = slice(start, start + chunk)
            with np.errstate(over="ignore", invalid="ignore"):
                z = ((v[:, None] - lam[part, None]) / self.mu) * h_sq
                maps = _magnus_step_maps(z, h)
                states[:, part] = _ordered_product(
                    [maps[..., one, :, :] for one in steps])
            finite = np.isfinite(states[:, part]).all(axis=(0, 2, 3))
            if not finite.all():
                raise TraceIntegrationError(
                    f"fundamental solutions on interval {alpha} overflow "
                    f"float64 at lambda = {float(lam[part][np.argmin(finite)])!r}"
                )
        return states

    def _table(self, alpha, factors):
        """V at the three Gauss nodes of every step, shape (3, steps), with
        the step widths h and h^2 and the slice of the steps of each factor,
        for each multiple in ``factors`` of the first step count of each
        piece, in equal steps, the factors one after another: one
        ``potential.value`` call per (interval, factor).  Raises
        ``TraceIntegrationError`` when a factor would take more than
        ``_MAX_ODE_STEPS`` steps."""
        key = (alpha, tuple(factors))
        if key not in self.tables:
            edges, first = self.pieces[alpha]
            if max(factors) * first.sum() > _MAX_ODE_STEPS:
                raise TraceIntegrationError(
                    f"fundamental-solution integration on interval {alpha} "
                    f"did not reach rtol {_ODE_RTOL:.1e} within "
                    f"{_MAX_ODE_STEPS} steps"
                )
            widths = np.diff(edges)
            tables, steps, end = [], [], 0
            for factor in factors:
                counts = factor * first
                h = np.repeat(widths / counts, counts)
                # step j of a piece of c steps starts at a fraction j / c of it
                starts = np.cumsum(counts) - counts
                step = np.arange(counts.sum()) - np.repeat(starts, counts)
                left = (np.repeat(edges[:-1], counts)
                        + np.repeat(widths, counts) * (step / np.repeat(counts, counts)))
                nodes = left + np.multiply.outer(_GAUSS_NODES, h)
                v = np.asarray(self.potential.value(alpha, nodes.ravel()), dtype=float)
                if not np.all(np.isfinite(v)):
                    raise PotentialError(
                        f"potential is not finite on interval {alpha} "
                        f"({edges[0]}, {edges[-1]})"
                    )
                tables.append((v.reshape(nodes.shape), h, h * h))
                steps.append(slice(end, end + h.size))
                end += h.size
            v, h, h_sq = (np.concatenate(parts, axis=-1) for parts in zip(*tables))
            self.tables[key] = v, h, h_sq, steps
        return self.tables[key]


def _positive_mu(mu) -> float:
    mu = float(mu)
    if not (np.isfinite(mu) and mu > 0):
        raise ValueError(f"mass factor mu must be positive and finite, got {mu}")
    return mu


def fundamental_traces(
    potential: Potential,
    geom: IntervalSet,
    lam: float,
    mu: float = 1.0,
) -> FundamentalTraces:
    """Boundary traces of the normalized fundamental system at trial
    eigenvalue ``lam``.

    They are the one-lambda view of the batched traces that
    ``find_spectrum`` uses: constant (including zero) potentials take
    closed forms; other potentials are integrated from the left endpoint
    with initial data (1, 0) and (0, 1) by the sixth-order Magnus method
    of the module docstring, on steps that end on every knot of V inside
    the interval (at first 8 on the widest linear piece of a table and
    about as wide on the others, 2048 across the interval for a V without
    knots), accepted only when a step-halving comparison agrees to 1e-9
    within 2**17 steps.  Raises ``PotentialError`` when V is not finite at
    an integration node and ``TraceIntegrationError`` when the step
    halving does not converge or the traces overflow float64, in closed
    form or integrated (lambda far below V on a long interval), and
    ``ValueError`` for a ``lam`` that is not finite or a mass factor that
    is not positive and finite.
    """
    lam = float(lam)
    if not np.isfinite(lam):
        raise ValueError(f"trial eigenvalue lam must be finite, got {lam}")
    mu = _positive_mu(mu)
    psi_r, dpsi_r = _RightTraces(potential, geom, mu)(np.array([lam]))
    return _normalized_traces(lam, mu, psi_r[0], dpsi_r[0])


@dataclass(frozen=True)
class SpectralMatrix:
    """M(U, lambda) together with its determinant; a stack of them, and
    an array of determinants, for traces with a leading lambda axis."""

    m: np.ndarray
    lam: float | np.ndarray
    detval: complex | np.ndarray


def spectral_matrix(bc: BoundaryCondition, traces: FundamentalTraces) -> SpectralMatrix:
    """Assemble M(U, lambda) = I . [psi_-] - U . [psi_+] in block ordering,
    both terms by :func:`odot`."""
    if bc.n != traces.n:
        raise ValueError(f"boundary condition n = {bc.n}, traces n = {traces.n}")
    m = (odot(np.eye(2 * bc.n), traces.trace_matrix(-1))
         - odot(bc.u_block, traces.trace_matrix(+1)))
    return SpectralMatrix(m=m, lam=traces.lam, detval=np.linalg.det(m))


def _scattering_matrix(psi_r: np.ndarray, dpsi_r: np.ndarray) -> np.ndarray:
    """The unitary 2n x 2n scattering matrix S(lambda) in block ordering.

    S maps phi + i phi' to phi - i phi' for every solution (boundary values
    phi, outward derivatives phi').  From right traces of the normalized
    basis (shape (..., n, 2)), per interval T = [[t00, t01], [t10, t11]],
    t0j = psi_r[j], t1j = dpsi_r[j], det T = 1, and S is the Cayley
    transform (t I - i K)(t I + i K)^{-1} of the Dirichlet-to-Neumann map
    K / t, t = t01, K = [[t00, -1], [-1, t11]].  Multiplied out with
    det T = 1 it divides by no t01 (zero at Dirichlet levels):
    S = [[t01 + t10 + i (t11 - t00), 2i], [2i, t01 + t10 + i (t00 - t11)]]
    / (t01 - t10 + i (t00 + t11)), whose |denominator|^2 = |T|_F^2 + 2.
    All t are scaled by max(1, |t_ij|) against overflow below V.
    """
    t = np.stack((psi_r[..., 0], psi_r[..., 1], dpsi_r[..., 0], dpsi_r[..., 1])).real
    scale = np.maximum(1.0, np.abs(t).max(axis=0))
    t /= scale
    t00, t01, t10, t11 = t
    den = (t01 - t10) + 1j * (t00 + t11)
    n = t00.shape[-1]
    s = np.zeros(t00.shape[:-1] + (2 * n, 2 * n), dtype=complex)
    # entry (k, l) of S is entry 2n k + l of its rows laid end to end:
    # (k, k), (n + k, n + k), (k, n + k) and (n + k, k) for k = 0 .. n - 1
    # are strided slices of that flat view
    flat, stride = s.reshape(t00.shape[:-1] + (4 * n * n,)), 2 * n + 1
    flat[..., :n * stride:stride] = ((t01 + t10) + 1j * (t11 - t00)) / den
    flat[..., n * stride::stride] = ((t01 + t10) + 1j * (t00 - t11)) / den
    flat[..., n:n * stride:stride] = flat[..., 2 * n * n::stride] = 2j / (scale * den)
    return s


def secular_matrix(bc: BoundaryCondition, traces: FundamentalTraces) -> np.ndarray:
    """W(lambda) = U^H S(lambda) from normalized-basis traces.

    W is unitary for real lambda; lambda is an eigenvalue of multiplicity m
    exactly when W has eigenvalue 1 with multiplicity m, and every
    eigenphase of W increases with lambda (the unitary secular equation of
    quantum graphs: Kottos & Smilansky, PRL 79, 1997; Berkolaiko &
    Kuchment, Introduction to Quantum Graphs, AMS 2013).
    """
    if bc.n != traces.n:
        raise ValueError(f"boundary condition n = {bc.n}, traces n = {traces.n}")
    return bc.u_block.conj().T @ _scattering_matrix(traces.psi_r, traces.dpsi_r)


def _wrapped_phases(w: np.ndarray) -> np.ndarray:
    """Eigenphases of the unitary stack ``w``, each wrapped into [0, 2 pi)."""
    return np.mod(np.angle(np.linalg.eigvals(w)), _TWO_PI)


def _crossings(ph_a: np.ndarray, ph_b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Crossings of 0 by the eigenphases between pairs of samples of their
    wrapped values (rows of ``ph_a`` and ``ph_b``), and the advance of
    arg det W.  Each eigenphase increases, so
    advance = sum(ph_b) - sum(ph_a) + 2 pi * crossings; the advance is read
    modulo 2 pi nearest to 0, exact while it is below pi.
    """
    change = ph_b.sum(axis=-1) - ph_a.sum(axis=-1)
    # the IEEE remainder, as math.remainder: fmod is exact, and so is the
    # shift by 2 pi of a value beyond pi
    advance = np.fmod(change, _TWO_PI)
    advance = np.where(advance > math.pi, advance - _TWO_PI,
                       np.where(advance < -math.pi, advance + _TWO_PI, advance))
    return np.rint((advance - change) / _TWO_PI).astype(int), advance


def find_spectrum(
    bc: BoundaryCondition,
    potential: Potential,
    geom: IntervalSet,
    lambda_range: tuple[float, float],
    grid_points: int | None = None,
    mu: float = 1.0,
    return_scan: bool = False,
):
    """Eigenvalues in ``lambda_range`` as eigenphase crossings of
    W(lambda) = U^H S(lambda) (``secular_matrix``).

    The eigenvalues in a cell (a, b], with multiplicity, are the eigenphases
    of W that cross 0 there (``_crossings``), so the count rests on no
    threshold on a function value.  The grid is uniform in
    s = sign(lam) * sqrt(|lam|), which roughly equalizes the root spacing;
    a cell is halved while the phase of det W advances by more than pi / 2
    across it, the resolution at which its count is exact.  A cell with
    several crossings is bisected on the count until each bracket holds
    one, which the Illinois variant of regula falsi on the crossing
    eigenphase (Dowell & Jarratt, BIT 11, 1971) then narrows to
    REFINE_WIDTH * max(1, |lambda|): when a bracket keeps the same
    endpoint k > 1 times in a row, the phase there counts 2**(1 - k) in
    the next estimate, so the estimates land on both sides of the root
    instead of creeping up on it from one side.  A bracket that reaches
    that width still holding c crossings (a degenerate level) is reported
    c times.

    The work is batched over lambda: the grid's traces come from one
    call, and refinement runs in rounds, each splitting every open cell
    at once with one trace call for all the split points.  V is tabulated
    once per (interval, step count) for the whole call.

    ``grid_points`` is the number of scan points, at least 8 (a count of
    1 to 7 is raised to 8); None chooses it from the range.  Raises
    ``ValueError`` for a count below 1, a mass factor that is not positive
    and finite, or an empty or non-finite ``lambda_range``.

    Returns the ascending array of roots; with ``return_scan`` also a
    (lambda, |det|, Re det, Im det) record of det M(U, lambda) on the grid.
    """
    lo, hi = float(lambda_range[0]), float(lambda_range[1])
    if not (np.isfinite(lo) and np.isfinite(hi)) or not lo < hi:
        raise ValueError(f"invalid lambda range ({lo}, {hi})")
    mu = _positive_mu(mu)

    def s_of(lam):
        return np.sign(lam) * np.sqrt(np.abs(lam))

    def lam_of(s):
        return np.sign(s) * s * s

    s_lo, s_hi = s_of(lo), s_of(hi)
    if grid_points is None:
        grid_points = max(64, int(np.ceil(DEFAULT_GRID_DENSITY * (s_hi - s_lo))))
    elif grid_points < 1:
        raise ValueError(f"grid_points must be at least 1, got {grid_points}")
    grid_points = max(int(grid_points), 8)

    s_grid = np.linspace(s_lo, s_hi, grid_points)
    lam_grid = lam_of(s_grid)
    traces = _RightTraces(potential, geom, mu)
    u_h = bc.u_block.conj().T

    def width(lam):
        return REFINE_WIDTH * np.maximum(1.0, np.abs(lam))

    psi_r, dpsi_r = traces(lam_grid)
    grid_phases = _wrapped_phases(u_h @ _scattering_matrix(psi_r, dpsi_r))
    if return_scan:
        raw_det = spectral_matrix(
            bc, _normalized_traces(lam_grid, mu, psi_r, dpsi_r)).detval

    # Every cell (a, b] still open is split each round.  A cell closes when
    # its count is exact and zero, or when it is no wider than ``width``,
    # with its crossings as roots at x.  A single crossing is estimated by
    # regula falsi on its eigenphase (the largest wrapped phase less 2 pi
    # left of it, the smallest right of it) and split there, half a width
    # inside; other cells split at the midpoint.  ``ends`` holds each cell's
    # endpoints a and b as rows (lambda, wrapped phases).  ``kept`` records
    # which endpoint the splits that made a cell kept, and how many times in
    # a row: -k for a, +k for b, 0 for a grid cell.  The phase at an endpoint
    # kept k > 1 times counts 2**(1 - k) (the Illinois step).
    points = np.column_stack((lam_grid, grid_phases))
    ends = np.stack((points[:-1], points[1:]), axis=1)
    kept = np.zeros(len(ends), dtype=int)
    roots = []
    while True:
        a, b = ends[:, 0, 0], ends[:, 1, 0]
        ph_a, ph_b = ends[:, 0, 1:], ends[:, 1, 1:]
        count, advance = _crossings(ph_a, ph_b)
        exact = np.abs(advance) <= math.pi / 2
        single = exact & (count == 1)
        fa, fb = ph_a.max(axis=-1) - _TWO_PI, ph_b.min(axis=-1)
        fa = np.ldexp(fa, np.minimum(kept + 1, 0))
        fb = np.ldexp(fb, np.minimum(1 - kept, 0))
        x = np.where(single, a - fa * (b - a) / (fb - fa), 0.5 * (a + b))
        narrow = b - a <= width(b)
        roots.append(np.repeat(x[narrow], np.maximum(count[narrow], 0)))
        split = ~narrow & (~exact | (count > 0))
        if not split.any():
            break
        half = 0.5 * width(x)
        x = np.where(single, np.minimum(np.maximum(x, a + half), b - half), x)
        ends, kept, x = ends[split], kept[split], x[split]
        # the left halves (a, x] first, then the right halves (x, b]
        ph_x = _wrapped_phases(u_h @ _scattering_matrix(*traces(x)))
        point = np.column_stack((x, ph_x))
        ends = np.concatenate((ends, ends))
        ends[:x.size, 1], ends[x.size:, 0] = point, point
        kept = np.concatenate((np.minimum(kept, 0) - 1, np.maximum(kept, 0) + 1))
    result = np.sort(np.concatenate(roots))
    if return_scan:
        scan = np.rec.fromarrays(
            [lam_grid, np.abs(raw_det), raw_det.real, raw_det.imag],
            names=["lam", "absdet", "redet", "imdet"],
        )
        return result, scan
    return result
