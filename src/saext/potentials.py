"""Potential descriptors for the operator -mu d^2/dx^2 + V(x).

Potentials must be real valued (this is what keeps the assembled stiffness
matrix hermitian), finite and bounded on the domain.
"""

from __future__ import annotations

import numpy as np


class PotentialError(ValueError):
    """Invalid potential data (complex values, bad tables, ...)."""


class Potential:
    """Base class; subclasses evaluate V on one interval at a time."""

    def value(self, alpha: int, x):
        """Evaluate V at coordinates ``x`` lying inside interval ``alpha``."""
        raise NotImplementedError

    def constant_value(self, alpha: int):
        """Constant value of V on interval ``alpha``, or None if non-constant."""
        return None

    def knots(self, alpha: int):
        """Abscissae between which V is linear on interval ``alpha``, or
        None when V declares no such pieces."""
        return None


class ZeroPotential(Potential):
    """The free particle, V = 0."""

    def value(self, alpha, x):
        return np.zeros_like(np.asarray(x, dtype=float))

    def constant_value(self, alpha):
        return 0.0


class ConstantPotential(Potential):
    """Piecewise constant, one value per interval."""

    def __init__(self, values) -> None:
        self.values = tuple(float(c) for c in values)
        if not all(np.isfinite(self.values)):
            raise PotentialError(f"potential values must be finite, got {self.values}")

    def value(self, alpha, x):
        return np.full_like(np.asarray(x, dtype=float), self.values[alpha])

    def constant_value(self, alpha):
        return self.values[alpha]


class SampledPotential(Potential):
    """Table (x_i, v_i) with linear interpolation between samples.

    The table is shared by all intervals and must cover every queried
    coordinate; values outside the table clamp to the end samples, which
    matches ``numpy.interp`` semantics.
    """

    def __init__(self, x, v) -> None:
        x = np.asarray(x, dtype=float)
        v = np.asarray(v, dtype=float)
        if x.ndim != 1 or x.shape != v.shape or x.size < 2:
            raise PotentialError("sample table needs matching 1d arrays, >= 2 points")
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(v))):
            raise PotentialError("sample table entries must be finite")
        order = np.argsort(x, kind="stable")
        self.x = x[order]
        self.v = v[order]
        if np.any(np.diff(self.x) <= 0):
            raise PotentialError("sample abscissae must be distinct")

    def value(self, alpha, x):
        return np.interp(np.asarray(x, dtype=float), self.x, self.v)

    def knots(self, alpha):
        return self.x


class CallablePotential(Potential):
    """Host-supplied V(x); must return real values."""

    def __init__(self, fn) -> None:
        self.fn = fn

    def value(self, alpha, x):
        x = np.asarray(x, dtype=float)
        out = np.asarray(self.fn(x))
        if np.iscomplexobj(out):
            if np.any(out.imag != 0):
                raise PotentialError("potential callable returned complex values")
            out = out.real
        out = np.asarray(out, dtype=float)
        if out.shape != x.shape:
            out = np.broadcast_to(out, x.shape).copy()
        return out
