"""Dirichlet Laplacian on an interval in sine-spectral form.

States live on a uniform grid over [0, L] with zero boundary values and,
equivalently, as coefficients on the first K Dirichlet eigenfunctions
sqrt(2/L) sin(k pi xi / L).  The trapezoid projection is exact for fields
band-limited to K modes (discrete sine orthogonality), so the two
representations are interchangeable at round-off.

The heat semigroup acts diagonally: mode k is damped by exp(-lambda_k t)
with lambda_k = (k pi / L)^2.  In the sup norm it decays at rate lambda_1 but
with a prefactor M above 1: min(1, 20 x (1 - x)) settles onto its first mode
and reads 1.2675 against exp(-lambda_1 t) on 16 and 64 modes.  The
decay-bound checker reports the worst observed ratio against M = 1.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .util import open_new


class SpectralBasis:
    """Sine eigenbasis of the Dirichlet Laplacian on (0, L).

    Parameters
    ----------
    length : float
        Interval length L.
    modes : int
        Number of retained eigenmodes K.
    grid : int
        Number of grid intervals N; the grid has N + 1 nodes including both
        boundary points.  Requires N >= 4 K so the highest mode is resolved.
    """

    def __init__(self, length=1.0, modes=16, grid=None):
        if not 0 < length < np.inf:
            raise ValueError(f"interval length must be positive and finite, got {length!r}")
        if modes < 1:
            raise ValueError("need at least one mode")
        grid = 4 * modes if grid is None else int(grid)
        if grid < 4 * modes:
            raise ValueError(f"grid intervals N = {grid} below resolution guard 4K = {4 * modes}")
        self.length = float(length)
        self.modes = int(modes)
        self.grid = grid
        self.xi = np.linspace(0.0, self.length, grid + 1)
        k = np.arange(1, modes + 1)
        self.eigenvalues = (k * np.pi / self.length) ** 2
        # Sampled eigenfunctions, boundary columns pinned to exact zeros.
        self.eigenfunctions = np.sqrt(2.0 / self.length) * np.sin(
            np.outer(k * np.pi / self.length, self.xi))
        self.eigenfunctions[:, 0] = 0.0
        self.eigenfunctions[:, -1] = 0.0
        h = self.length / grid
        self.weights = np.full(grid + 1, h)
        self.weights[0] = 0.5 * h
        self.weights[-1] = 0.5 * h
        self._projection = self.eigenfunctions * self.weights[None, :]

    @property
    def lambda1(self):
        return float(self.eigenvalues[0])

    def project(self, values):
        """Grid values -> K mode coefficients (trapezoid projection)."""
        return self._projection @ np.asarray(values, dtype=float)

    def synthesize(self, coeffs):
        """K mode coefficients -> grid values (boundary zeros exact)."""
        return np.asarray(coeffs, dtype=float) @ self.eigenfunctions

    def compatible(self, other):
        return (self.length == other.length and self.modes == other.modes
                and self.grid == other.grid)


def assemble_basis(length=1.0, modes=16, grid=None):
    """Alias of SpectralBasis, kept while bench/tracing.py traces it."""
    return SpectralBasis(length=length, modes=modes, grid=grid)


class Field:
    """A spatial state: grid values and spectral coefficients, lazily synced.

    Construct from one representation; the other is computed on demand and
    cached.  Fields are immutable: operations return new Fields.
    """

    def __init__(self, basis, values=None, coeffs=None):
        if values is None and coeffs is None:
            raise ValueError("need grid values or coefficients")
        self.basis = basis
        self._values = None if values is None else np.array(values, dtype=float)
        self._coeffs = None if coeffs is None else np.array(coeffs, dtype=float)
        if self._values is not None and self._values.shape != (basis.grid + 1,):
            raise ValueError("grid values have wrong shape for basis")
        if self._coeffs is not None and self._coeffs.shape != (basis.modes,):
            raise ValueError("coefficient vector has wrong shape for basis")

    @property
    def values(self):
        if self._values is None:
            self._values = self.basis.synthesize(self._coeffs)
        return self._values

    @property
    def coeffs(self):
        if self._coeffs is None:
            self._coeffs = self.basis.project(self._values)
        return self._coeffs

    def sup_norm(self):
        return float(np.max(np.abs(self.values)))

    def __add__(self, other):
        self._require_same_basis(other)
        return Field(self.basis, coeffs=self.coeffs + other.coeffs)

    def __sub__(self, other):
        self._require_same_basis(other)
        return Field(self.basis, coeffs=self.coeffs - other.coeffs)

    def __mul__(self, scalar):
        return Field(self.basis, coeffs=self.coeffs * float(scalar))

    __rmul__ = __mul__

    def _require_same_basis(self, other):
        if not self.basis.compatible(other.basis):
            raise ValueError("fields live on incompatible bases")


def field_from_function(basis, fn):
    """Sample a function of xi on the grid (boundary values forced to 0)."""
    vals = np.asarray(fn(basis.xi), dtype=float)
    vals = vals.copy()
    vals[0] = 0.0
    vals[-1] = 0.0
    return Field(basis, values=vals)


def mode_field(basis, mode, amplitude=1.0):
    """A single eigenmode: amplitude * sqrt(2/L) sin(mode pi xi / L)."""
    c = np.zeros(basis.modes)
    c[mode - 1] = amplitude
    return Field(basis, coeffs=c)


def apply_semigroup(f, t):
    """Heat semigroup: damp mode k by exp(-lambda_k t); t = 0 is identity."""
    if t < 0:
        raise ValueError("semigroup is defined for t >= 0 only")
    if t == 0:
        return Field(f.basis, coeffs=f.coeffs.copy())
    return Field(f.basis, coeffs=f.coeffs * np.exp(-f.basis.eigenvalues * t))


@dataclass
class DecayReport:
    """Observed sup-norm decay against the exp(-lambda1 t) envelope."""

    times: np.ndarray
    ratios: np.ndarray
    max_ratio: float
    lambda1: float

    @property
    def within_bound(self):
        return self.max_ratio <= 1.0 + 1e-10


def decay_bound_check(f, times):
    """Ratio of the sup norm of T(t) f to the decay envelope at each time.

    Ratios at or below 1 show this field within the envelope with M = 1;
    other fields exceed it (see the module docstring).
    """
    if f.sup_norm() == 0.0:
        raise ValueError("decay check needs a nonzero field")
    lambda1 = f.basis.lambda1
    times = np.asarray(times, dtype=float)
    base = f.sup_norm()
    ratios = np.array([
        apply_semigroup(f, t).sup_norm() / (np.exp(-lambda1 * t) * base)
        for t in times
    ])
    return DecayReport(times=times, ratios=ratios,
                       max_ratio=float(np.max(ratios)), lambda1=lambda1)


def spectral_tail_mass(f, first_mode):
    """Sum of squared coefficients from ``first_mode`` (1-based) upward."""
    return float(np.sum(f.coeffs[first_mode - 1:] ** 2))


@lru_cache(maxsize=4)
def _field_csv_template(basis):
    """A field CSV with xi formatted and a ``%.15g`` slot per value."""
    return (f"# basis L={basis.length!r} K={basis.modes} N={basis.grid}\nxi,value\n"
            + "".join(f"{x:.15g},%.15g\n" for x in basis.xi.tolist()))


def save_field_csv(f, path):
    """Write (xi, value) rows with an L/K/N metadata header comment."""
    with open_new(path) as fh:
        fh.write(_field_csv_template(f.basis) % tuple(f.values.tolist()))
