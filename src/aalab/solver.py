"""Time stepping for x' = A x + G(x) + H(t) by variation of constants.

Each step applies the heat semigroup exactly per mode and integrates the
forcing and nonlinearity along the step, with the nonlinearity profile
supplied by a per-step fixed-point (Picard) iteration:

    x(t + dt) = T(dt) x(t) + integral_t^{t+dt} T(t + dt - s) f(s, xhat(s)) ds

The default profile of g is constant in s (frozen at the current iterate,
starting from x(t)); the optional refinement interpolates g linearly between
the step endpoints (an ETD2-type update), which raises the observed
convergence order from one to two.  Either way the kernel exp(-lambda_k
(dt - s)) is integrated in closed form against the profile, so the
nonlinearity is evaluated once per Picard sweep, on the iterate's grid
values.  With L_R the Lipschitz constant of g on the radius s and gain the
grid-sup norm of the step's weight operator, each sweep contracts by
q = L_R gain < 1/2.  A step ends at the first application whose move d
of the grid values meets q / (1 - q) d <= picard_tol at order one, or d <=
picard_tol at order two; at order one a state whose nonlinear term, at most
gain (|g(0)| + L_R s), is within it takes the linear step (no g) instead.

``solve`` marches by one entry, ``Stepper.step``, which it hands the forcing
terms of the rest of the current forcing block; a call takes as many of
those rows as its start allows.  A start whose first row passes the
linear-step test takes linear steps: with no forcing every row that passes
it, T(dt)^j x as one running product with the floats of the steps, and with
forcing one row.  Otherwise a forced order-one march solves PICARD_BLOCK
rows together, as one Picard iteration over the block (waveform relaxation:
Lelarasmee, Ruehli and Sangiovanni-Vincentelli, IEEE TCAD 1982; Miekkala
and Nevanlinna, SIAM J. Sci. Stat. Comput. 1987).  The block's linear part
Z, T(dt)^m x plus the causal sum of its forcing terms, is formed once; each
sweep synthesizes the b iterates with one product, applies g once to their
(b, N + 1) grid values, projects with one product and sets Y = Z + L(wy P
g), with L the per-mode causal Toeplitz operator of decay^(m - i).  Its
factor is q_b = L_R gain_b, gain_b the grid-sup norm of the block's
nonlinear half over its rows (``Stepper.block_gains``), and it stops once
q_b / (1 - q_b) d <= picard_tol, d the move of all its grid values: then
every row lies within picard_tol of the block's fixed point, the solution of
the implicit step equations over the block.  A block whose margin or Picard
budget fails halves.  Unforced marches, order two and a block halved to one
row sweep a single step from its ``base``.

Spike-train forcing is integrated with breakpoint-aware subdivision, so a
narrow spike crossing a step boundary is never under-resolved.

The forcing, a sum of rank-one parts (``ForcingSpec.parts``), does not depend
on the state, so its half of the step integral is computed ahead of the steps,
FORCING_BLOCK at a time: one breakpoint query per block, each part's signals
evaluated once on the block's nodes, summed node by node against the cached
factors D * w and scaled by the part's coefficients.  ``Stepper.forcing_blocks``
is the only place the forcing is integrated, and a step's term is the same
float in a block as alone; against the full product (D * H(t + rel)) @ w it
replaced, the terms moved by at most 3.7e-16 of the largest (T = 50
reference run).  ``Stepper.base`` and ``Stepper.step_map`` write a single
step's map: ``Stepper.step_frozen`` and ``mild_residual`` apply it to a base
formed once per step, and the Picard kernel ``Stepper._sweeps`` takes that
base as the Z of a block of one, whose sweep Y = Z + wy P g is the map.
The step length is always ``SolverConfig.dt``.
"""

from dataclasses import dataclass, field
import functools
import math
import os
import re
import zipfile

import numpy as np

from .quadrature import quadrature_nodes, gauss_nodes
from .signals import (FunctionSignal, SpikeTrainSignal, StepanovConfig,
                      reciprocal_sine_signal, stepanov_norm)
from .spectral import Field, SpectralBasis, field_from_function, save_field_csv
from .util import open_new


#: Steps whose forcing terms are computed together, and so the most rows one
#: ``Stepper.step`` call takes.  It bounds the node and contraction buffers
#: (0.5 MB each at 64 modes and 8 nodes) and a call's grid values (0.26 MB
#: at 257 points) whatever the horizon, and is large enough that per-call
#: overhead is negligible.
FORCING_BLOCK = 128
#: Forced order-one steps solved together by one Picard iteration, a power
#: of two dividing FORCING_BLOCK, so blocks tile a forcing block and halve
#: down to 1.  On the T = 6 reference march 16 took 0.072-0.074 s in
#: process and 32 took 0.082-0.086 s: 32 makes more sweeps per block (its
#: factor is twice as large) and four times the work in the causal product.
PICARD_BLOCK = 16
_TINY = np.finfo(float).tiny  # linear steps flush coefficients below it to 0


class NonContractionError(RuntimeError):
    """Estimated per-step contraction factor reached 1/2: dt too large."""

    def __init__(self, t, radius, factor):
        super().__init__(
            f"contraction factor {factor:.3g} >= 0.5 at t = {t:g} "
            f"(state radius {radius:.3g}); reduce dt"
        )
        self.t = t
        self.radius = radius
        self.factor = factor


class PicardError(RuntimeError):
    """Per-step iteration failed to meet tolerance within the budget."""


# ---------------------------------------------------------------------------
# Nonlinearities
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NonlinearitySpec:
    """Pointwise reaction term g with its local Lipschitz estimator, which
    takes a radius or an array of radii."""

    name: str
    fn: callable
    lipschitz: callable

    def __call__(self, r):
        return self.fn(r)

    def growth_margin(self):
        """Numerical stand-in for limsup of g(r)/r as |r| grows.

        Maximum of g(r)/r over 61 log-spaced radii from 1 to 1e6, of both
        signs; compare the result against lambda_1 of the operator.
        """
        r = np.logspace(0.0, 6.0, 61)
        with np.errstate(over="ignore"):
            ratios = np.concatenate([self.fn(r) / r, self.fn(-r) / (-r)])
        ratios = ratios[np.isfinite(ratios)]
        return float(np.max(ratios)) if ratios.size else -np.inf


def _cube(r):
    """r^3 as a product: exactly odd, within one ulp of ``r ** 3``, and as fast
    on negative values as on positive ones (numpy's power is not)."""
    r = np.asarray(r, dtype=float)
    return r * r * r


def make_nonlinearity(ident):
    """Registry: ``zero``, ``cubic`` (-r^3), ``cubic-unstable`` (+r^3),
    ``logistic:<lam>`` (lam r (1 - r))."""
    if ident == "zero":
        return NonlinearitySpec("zero", lambda r: np.zeros_like(np.asarray(r, dtype=float)),
                                lambda R: 0.0)
    if ident == "cubic":
        return NonlinearitySpec("cubic", lambda r: -_cube(r), lambda R: 3.0 * R * R)
    if ident == "cubic-unstable":
        return NonlinearitySpec("cubic-unstable", _cube, lambda R: 3.0 * R * R)
    m = re.fullmatch(r"logistic:([-+0-9.eE]+)", ident)
    if m:
        lam = float(m.group(1))
        return NonlinearitySpec(f"logistic:{lam:g}",
                                lambda r, lam=lam: lam * np.asarray(r, dtype=float) * (1.0 - np.asarray(r, dtype=float)),
                                lambda R, lam=lam: abs(lam) * (1.0 + 2.0 * R))
    raise KeyError(f"unknown nonlinearity id {ident!r}")


# ---------------------------------------------------------------------------
# Forcing
# ---------------------------------------------------------------------------

class ForcingSpec:
    """Time-dependent forcing H(t) = sum over ``parts`` (signals, coeffs) of
    the sum of the signals at t times the mode vector coeffs.

    The boundary mode is decided here.  ``profiled`` is one part, the bounded
    and spike-train signals on the profile, which keeps every forcing field
    in the Dirichlet class.  ``literal`` puts the spike train on a second
    part, the sine-basis projection of 1 (``flat_coeffs``); that oscillates
    near the ends (Gibbs) and is for comparison, never the default.
    """

    def __init__(self, basis, profile=None, bounded=None, spiky=None,
                 boundary_mode="profiled"):
        if boundary_mode not in ("profiled", "literal"):
            raise ValueError(f"unknown boundary mode {boundary_mode!r}")
        self.basis = basis
        self.bounded = bounded
        self.spiky = spiky
        self.profile_coeffs = (np.zeros(basis.modes) if profile is None
                               else np.array(profile.coeffs, dtype=float))
        self.flat_coeffs = basis.project(np.ones(basis.grid + 1))
        if boundary_mode == "profiled":
            parts = [([bounded, spiky], self.profile_coeffs)]
        else:
            parts = [([bounded], self.profile_coeffs), ([spiky], self.flat_coeffs)]
        parts = [([s for s in signals if s is not None], coeffs) for signals, coeffs in parts]
        self.parts = [(signals, coeffs) for signals, coeffs in parts if signals]

    # constructors ---------------------------------------------------------

    @classmethod
    def modulated(cls, basis, signal, profile):
        """H(t) = signal(t) * profile."""
        return cls(basis, profile=profile, bounded=signal)

    @classmethod
    def reference(cls, basis, profile, spike_spec, boundary_mode="profiled"):
        """The benchmark forcing: reciprocal-sine oscillation plus spike train."""
        return cls(basis, profile=profile,
                   bounded=reciprocal_sine_signal(),
                   spiky=SpikeTrainSignal(spike_spec),
                   boundary_mode=boundary_mode)

    # evaluation -----------------------------------------------------------

    @property
    def is_zero(self):
        return not self.parts

    def mode_values(self, t):
        """Mode coefficients of H at each time in ``t``: shape (K, len(t))."""
        t = np.atleast_1d(np.asarray(t, dtype=float))
        out = np.zeros((self.basis.modes, t.size))
        for signals, coeffs in self.parts:
            out += np.outer(coeffs, sum(sig.eval(t) for sig in signals))
        return out

    def grid_values(self, t):
        """Grid values of H at each time: shape (len(t), grid + 1)."""
        return self.mode_values(t).T @ self.basis.eigenfunctions

    def breakpoints(self, lo, hi):
        pts = [np.asarray(sig.breakpoints(lo, hi), dtype=float)
               for signals, _ in self.parts for sig in signals]
        return np.concatenate(pts) if pts else np.empty(0)

    def sup_signal(self):
        """The scalar signal t -> sup-norm of H(t), for windowed norms: |h(t)|
        times the grid peak of one part's coefficients, else the grid maximum."""
        if len(self.parts) == 1:
            [(signals, coeffs)] = self.parts
            peak = float(np.max(np.abs(self.basis.synthesize(coeffs))))

            def fn(t):
                return np.abs(sum(sig.eval(t) for sig in signals)) * peak
        else:
            def fn(t):
                return np.max(np.abs(self.grid_values(t)), axis=-1)
        return FunctionSignal(fn, name="forcing-sup", breakpoint_fn=self.breakpoints)


# ---------------------------------------------------------------------------
# Stepping
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SolverConfig:
    """Step size, horizon, Picard control, forcing quadrature order, blow-up cap."""

    dt: float = 1e-3
    horizon: float = 1.0
    picard_tol: float = 1e-10
    picard_max_iter: int = 25
    forcing_nodes: int = 8
    blowup_cap: float = 1e6
    order2: bool = False

    def __post_init__(self):
        if not (0 < self.dt < math.inf and 0 < self.horizon < math.inf):
            raise ValueError(f"dt and horizon must be positive and finite, got dt = "
                             f"{self.dt!r}, horizon = {self.horizon!r}")
        if not 0 < self.picard_tol < math.inf:
            raise ValueError(f"Picard tolerance must be positive and finite, got "
                             f"{self.picard_tol!r}")
        if self.picard_max_iter < 1:
            raise ValueError("Picard budget must allow at least one refinement")
        if self.forcing_nodes < 1:
            raise ValueError("forcing quadrature needs at least one node")
        if not self.blowup_cap > 0:
            raise ValueError(f"blow-up cap must be positive, got {self.blowup_cap!r}")


@dataclass
class Trajectory:
    """A solved path: stamps, mode coefficients, sup-norm trace, step metadata.

    ``picard_counts`` are refinements per step (-1: a linear step, no g); a
    step solved in a block carries the block's refinements.
    ``spiky`` marks the steps with a forcing breakpoint strictly inside them,
    which were therefore integrated on their own subdivided quadrature layout.
    """

    basis: SpectralBasis
    stamps: np.ndarray
    coeffs: np.ndarray
    sup_trace: np.ndarray
    picard_counts: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=int))
    blown_up: bool = False
    blowup_time: float | None = None
    spiky: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=bool))

    def __post_init__(self):
        if np.any(np.diff(self.stamps) <= 0):
            raise ValueError("trajectory stamps must be strictly increasing")

    def __len__(self):
        return len(self.stamps)

    @property
    def spiky_steps(self):
        return int(np.count_nonzero(self.spiky))

    @property
    def dt(self):
        if len(self.stamps) < 2:
            raise ValueError(f"dt needs two stamps; the trajectory has {len(self.stamps)}")
        return float(self.stamps[1] - self.stamps[0])

    def field(self, i):
        return Field(self.basis, coeffs=self.coeffs[i])

    def grid_values(self):
        """All snapshots on the grid: shape (len(stamps), grid + 1)."""
        return self.coeffs @ self.basis.eigenfunctions

    def index_at(self, t):
        """The index of the stamp nearest t, which must lie in the span (up
        to the 1e-12 that ``restrict`` allows) or ValueError."""
        if not self.stamps[0] - 1e-12 <= t <= self.stamps[-1] + 1e-12:
            raise ValueError(f"t = {t:g} lies outside the trajectory's span "
                             f"[{self.stamps[0]:g}, {self.stamps[-1]:g}]")
        return int(np.argmin(np.abs(self.stamps - t)))

    def restrict(self, t0, t1):
        mask = (self.stamps >= t0 - 1e-12) & (self.stamps <= t1 + 1e-12)
        idx = np.nonzero(mask)[0]
        if idx.size == 0:
            raise ValueError(f"window [{t0:g}, {t1:g}] holds no stamp of the trajectory's "
                             f"span [{self.stamps[0]:g}, {self.stamps[-1]:g}]")
        counts = self.picard_counts[idx[0]:idx[-1]] if self.picard_counts.size else self.picard_counts
        spiky = self.spiky[idx[0]:idx[-1]] if self.spiky.size else self.spiky
        return Trajectory(self.basis, self.stamps[mask], self.coeffs[mask],
                          self.sup_trace[mask], counts,
                          self.blown_up, self.blowup_time, spiky)

    def as_signal(self):
        from .signals import SampledSignal
        return SampledSignal(self.stamps, self.grid_values(), name="trajectory")


#: Below this lambda * dt the weight w2 is summed from its Taylor series; the
#: closed form loses about 2 eps / (lambda dt) to cancellation, 4.4e-16 here.
_SERIES_BELOW = 1.0
#: Terms of that series: the first one left out is at most 1.1e-18 of the sum.
_SERIES_TERMS = 18


def etd_weights(lam, dt):
    """Closed-form weights of the nonlinear half of a step of length ``dt``.

    Per eigenvalue ``lam``: w1 = int_0^dt exp(-lam (dt - s)) ds, the weight
    of a profile constant in s, and w2 = int_0^dt exp(-lam (dt - s)) s / dt ds,
    the weight of a profile rising linearly from 0 to 1 across the step.
    With z = lam dt, w1 = -expm1(-z) / lam and w2 = dt (z + expm1(-z)) / z^2;
    for z below _SERIES_BELOW, w2 comes from the series
    dt sum_k (-z)^k / (k + 2)! instead.
    """
    lam = np.asarray(lam, dtype=float)
    z = lam * dt
    w1 = -np.expm1(-z) / lam
    small = z < _SERIES_BELOW
    zb = z[~small]
    phi2 = np.empty_like(z)
    phi2[~small] = (zb + np.expm1(-zb)) / (zb * zb)
    zs = z[small]
    acc = np.zeros_like(zs)
    for k in range(_SERIES_TERMS - 1, -1, -1):
        acc = acc * -zs + 1.0 / math.factorial(k + 2)
    phi2[small] = acc
    return w1, dt * phi2


def _node_sum(h, Dw):
    """(n, K) sum_i h[:, i] Dw[:, i] in node order: each row the same floats
    whatever n, which a BLAS (n, q) @ (q, K) product does not promise."""
    acc = h[:, :1] * Dw[:, 0]
    for i in range(1, Dw.shape[1]):
        acc += h[:, i:i + 1] * Dw[:, i]
    return acc


class Stepper:
    """The step engine for steps of the configured ``dt``, with
    ``decay`` = exp(-lam dt), the weights ``wx`` and ``wy`` of ``base`` and
    ``step_map`` (dealiased) and ``gain`` = ||E^T diag(wy) P||_inf computed
    once; ``block_gains`` and the block operators are computed on a block's
    first use."""

    def __init__(self, basis, nonlinearity, forcing=None, config=None):
        self.basis = basis
        self.g = nonlinearity
        self.forcing = forcing if forcing is not None else ForcingSpec(basis)
        self.config = config if config is not None else SolverConfig()
        self.lam = basis.eigenvalues
        self.E = basis.eigenfunctions
        self.P = basis._projection
        dt = self.config.dt
        self.decay = np.exp(-self.lam * dt)
        dealias = np.zeros(basis.modes)
        dealias[:max(1, (2 * basis.modes) // 3)] = 1.0  # P g is cut to the lowest 2K/3 modes
        w1, w2 = etd_weights(self.lam, dt)
        if self.config.order2:
            self.wx, self.wy = dealias * (w1 - w2), dealias * w2
        else:
            self.wx, self.wy = None, dealias * w1
        # 32 grid rows at a time: a 257 x 257 temporary raised the peak RSS
        rows = self.E.T
        self.gain = max(float(np.abs((rows[i:i + 32] * self.wy) @ self.P).sum(axis=1).max())
                        for i in range(0, rows.shape[0], 32))
        x, w = gauss_nodes(self.config.forcing_nodes)
        self._rel = 0.5 * dt * (x + 1.0)  # the cached layout's nodes and (K, q) D * w
        self._Dw = np.exp(-np.outer(self.lam, dt - self._rel)) * (0.5 * dt * w)
        self._g0 = None  # sup |g(0)|, evaluated when a linear step is first tried
        self._flush_err = basis.modes * math.sqrt(2.0 / basis.length) * _TINY  # its grid move

    @functools.cached_property
    def _powers(self):
        """decay^m for m = 0, ..., PICARD_BLOCK, (PICARD_BLOCK + 1, K)."""
        return np.cumprod(np.vstack([np.ones(self.basis.modes)] + [self.decay] * PICARD_BLOCK),
                          axis=0)

    @functools.cached_property
    def _toeplitz(self):
        """The causal Toeplitz factors decay^(m - i) of a block, 0 for i > m,
        (PICARD_BLOCK, PICARD_BLOCK, K)."""
        lag = np.subtract.outer(np.arange(PICARD_BLOCK), np.arange(PICARD_BLOCK))
        return np.where((lag >= 0)[:, :, None], self._powers[np.maximum(lag, 0)], 0.0)

    @functools.cached_property
    def block_gains(self):
        """{b: the largest row sum of sum_{m < b} |E^T diag(decay^m wy) P|}
        on the halving ladder b = PICARD_BLOCK, PICARD_BLOCK / 2, ..., 1: the
        grid-sup norm of the nonlinear half of a block of b steps, over its
        rows.  b = 1 is ``gain``; the others are computed once per stepper,
        from the modes that ``wy`` keeps, 32 grid rows at a time."""
        live = np.flatnonzero(self.wy)
        rows, P = self.E.T[:, live], self.P[live]
        w = self.wy[live] * self._powers[:PICARD_BLOCK, live]
        out = {PICARD_BLOCK >> i: 0.0 for i in range(PICARD_BLOCK.bit_length())}
        for i in range(0, rows.shape[0], 32):
            acc = 0.0  # the row sums of the operators 0 to m
            for m in range(PICARD_BLOCK):
                acc = acc + np.abs((rows[i:i + 32] * w[m]) @ P).sum(axis=1)
                if m + 1 in out:
                    out[m + 1] = max(out[m + 1], float(acc.max()))
        out[1] = self.gain  # the same norm, with the floats of a single step
        return out

    def nonlinear(self, values):
        """Mode coefficients of g at the grid ``values``: P g(values)."""
        return self.P @ self.g.fn(values)

    def forcing_blocks(self, starts, ends=None):
        """Forcing integrals of the steps of length dt from ``starts`` to
        ``ends``, FORCING_BLOCK steps at a time; ``ends`` defaults to starts +
        dt, and ``solve`` passes the successor stamps, which that sum can miss
        by a rounding.

        Yields one (spiky, terms) pair of arrays per block, (n,) and (n, K):
        a step's term is the forcing part of its step integral (0 for a zero
        forcing), the sum over the parts of coeffs times sum_i h(t + rel_i)
        (D * wts)[:, i] on the step's layout (rel, wts), D = exp(-lam (dt -
        rel)).  ``spiky`` tells whether a forcing breakpoint lies strictly
        inside the step, which then gets its own layout split there; every
        other step shares the cached one.  A consumer that stops early wastes
        at most one block; a step's term is the same in any.
        """
        starts = np.asarray(starts, dtype=float)
        ends = starts + self.config.dt if ends is None else np.asarray(ends, dtype=float)
        for b0 in range(0, starts.size, FORCING_BLOCK):
            block = slice(b0, b0 + FORCING_BLOCK)
            yield self._forcing_block(starts[block], ends[block])

    def _forcing_block(self, starts, ends):
        terms = np.zeros((starts.size, self.basis.modes))
        if self.forcing.is_zero:
            return np.zeros(starts.size, dtype=bool), terms
        cfg = self.config
        bps = np.sort(self.forcing.breakpoints(starts[0], ends[-1]))
        # spiky: a breakpoint strictly inside the step, the only kind
        # quadrature_nodes subdivides at
        spiky = (np.searchsorted(bps, starts, side="right")
                 < np.searchsorted(bps, ends, side="left"))
        own, smooth = np.flatnonzero(spiky), np.flatnonzero(~spiky)
        layouts = {}
        for j in own:
            pts, wts = quadrature_nodes(starts[j], ends[j], bps, cfg.forcing_nodes)
            rel = pts - starts[j]
            layouts[j] = (rel, np.exp(-np.outer(self.lam, cfg.dt - rel)) * wts)
        times = np.concatenate([(starts[smooth, None] + self._rel).ravel()]
                               + [starts[j] + layouts[j][0] for j in own])
        n, q = smooth.size, self._rel.size
        for signals, coeffs in self.forcing.parts:
            h = sum(sig.eval(times) for sig in signals)  # each signal once per block
            terms[smooth] += _node_sum(h[:n * q].reshape(n, q), self._Dw) * coeffs
            col = n * q
            for j in own:
                rel, Dw = layouts[j]
                terms[j] += _node_sum(h[None, col:col + rel.size], Dw)[0] * coeffs
                col += rel.size
        return spiky, terms

    def base(self, coeffs, term, gx):
        """The part of a step fixed by its start: T(dt) coeffs plus the forcing
        term, plus with ``order2`` the share wx P g(x(t)) of the nonlinear
        integral, where ``gx`` is ``nonlinear`` at the grid values of ``coeffs``.
        """
        out = self.decay * coeffs + term
        return out if self.wx is None else out + self.wx * gx

    def step_map(self, base, gy):
        """The variation-of-constants step map: ``base`` plus wy P g(xhat(t + dt)),
        with ``gy`` the ``nonlinear`` values of the iterate at the step's end.

        At order one g is frozen at the iterate across the step; with
        ``order2`` it runs linearly from g(x(t)) (inside ``base``) to the
        iterate's.  The Picard iteration applies this map to its own output.
        """
        return base + self.wy * gy

    def step(self, coeffs, t, terms=None, values=None, sup=None, distances=None):
        """The march's one entry: steps from (t, coeffs), one per row of the
        forcing ``terms`` taken, the rest of the step's forcing block from
        ``forcing_blocks`` (default: the step at t alone).  ``values`` are
        the grid values of ``coeffs`` and ``sup`` their sup, if the caller
        holds them.

        q = L_R ``gain`` is checked at the incoming radius, and
        ``_linear_rows`` is asked once for linear steps: an order-one start
        whose first row passes the linear-step test takes its rows (no g, -1
        refinements).  Otherwise a forced order-one march solves
        min(len(terms), PICARD_BLOCK) rows together by ``_sweeps``, g frozen
        at x(t) for the first sweep, with the gain of the smallest rung of
        ``block_gains`` at or above their number, halving where the margin or
        the Picard budget fails; an unforced march, order two and a block
        halved to one row sweep one step from ``base``, appending each
        refinement's move of the grid values to ``distances`` if given, and
        raise its NonContractionError and PicardError.  Returns (coeffs,
        refinements, grid values, sups) of the rows taken, (m, K), an int for
        every row, (m, N + 1) and (m,).
        """
        if terms is None:
            _, terms = next(self.forcing_blocks([t]))
        values = coeffs @ self.E if values is None else values
        radius = float(np.abs(values).max()) if sup is None else float(sup)
        q = self._check_contraction(t, radius)
        rows = self._linear_rows(coeffs, t, terms, radius, q)
        if rows is not None:
            Y, V, S = rows
            return Y, -1, V, S
        # the frozen application uses g(x(t)), which order 2 also puts in the base
        gx = self.nonlinear(values)
        b = min(len(terms), 1 if self.config.order2 or self.forcing.is_zero else PICARD_BLOCK)
        while b > 1:
            gain = self.block_gains[1 << (b - 1).bit_length()]
            try:
                Z = self._powers[1:b + 1] * coeffs + self._causal(terms[:b])
                return self._sweeps(t, Z, gx, values, radius,
                                    self._check_contraction(t, radius, gain), gain)
            except (NonContractionError, PicardError):
                b //= 2
        return self._sweeps(t, self.base(coeffs, terms[0], gx), gx, values, radius, q,
                            self.gain, distances)

    def _causal(self, U):
        """L U over a block of b = len(U) > 1 steps: row m is sum_{i <= m}
        decay^(m - i) U_i per mode, one (b, b, K) contraction."""
        b = len(U)
        return np.einsum("mik,ik->mk", self._toeplitz[:b, :b], U)

    def _sweeps(self, t, Z, G, values, radius, q, gain, distances=None):
        """The Picard iteration of a block of b steps, ``step``'s one kernel.

        ``Z`` (b, K), or (K,) for a single step, holds each step's part
        fixed by the start: T(dt)^m x plus the causal sum of the forcing
        terms (a single step's ``base``).
        Each sweep sets Y = Z + L(wy G), synthesizes the b iterates with one
        product, and projects g of them with one, G (K,) for the frozen
        first sweep from ``values``, the incoming grid values.  q = L_R
        ``gain`` is the factor at the running ``radius``, rechecked when a
        sweep's sup raises it; the iteration stops once q / (1 - q) d <=
        ``picard_tol`` (d <= it with ``order2``), d the sweep's move of the
        grid values over the block.  A single step synthesizes and projects
        with vector products, the floats of ``step_map`` and ``nonlinear``.
        Returns (Y, refinements, grid values, their row sups) as rows, (b, K),
        an int, (b, N + 1) and (b,); raises NonContractionError and
        PicardError with the start's t.
        """
        cfg = self.config
        tol, order2, E, P, g = cfg.picard_tol, cfg.order2, self.E, self.P, self.g.fn
        top = np.maximum.reduce  # a ufunc method: .max() costs a Python-level wrapper a call
        single = Z.ndim == 1
        for application in range(cfg.picard_max_iter + 1):
            wG = self.wy * G
            Y = Z + (wG if single else self._causal(np.broadcast_to(wG, Z.shape)))
            V = Y @ E
            d = float(top(np.abs(V - values), axis=None))
            S = top(np.abs(V), axis=-1, keepdims=single)
            s = float(S[0] if single else top(S))
            if s > radius:
                radius = s
                q = self._check_contraction(t, radius, gain)
            values = V
            if distances is not None and application > 0:
                distances.append(d)
            if (d if order2 else q / (1.0 - q) * d) <= tol:
                return (Y[None], application, V[None], S) if single else (Y, application, V, S)
            G = (P @ g(V).T).T
        raise PicardError(
            f"no convergence in {cfg.picard_max_iter} refinements at t = {t:g} "
            f"(last distance {d:.3g}, tol {cfg.picard_tol:g})"
        )

    def _linear_bound(self, q, radius, flush_err=0.0):
        """(q r + gain |g(0)| + flush_err) / (1 - q): with q the factor at
        the radius r, a bound on how far the linear step of a state of grid
        sup r (``flush_err`` the grid move of its flush) lies from the step
        map's fixed point.  Elementwise on arrays of q and r."""
        return (q * radius + self.gain * self._g0 + flush_err) / (1.0 - q)

    def _linear_rows(self, coeffs, t, terms, radius, q):
        """Linear steps, no g, at order one from (t, coeffs) of grid sup
        ``radius`` and factor ``q`` there.  With forcing one row, T(dt)
        coeffs + ``terms[0]``; with none one per row of ``terms``, T(dt)^j
        coeffs as one running product flushed once (a coefficient below
        _TINY stays below it under decay < 1) and synthesized row by row: the
        floats of a step at a time.  Each row is held to the test at its
        incoming radius R and at its own sup, q recomputed where that sup
        raises R, both factors below 1/2.  The first row's test at R =
        ``radius`` is made before any row is formed, and g(0) is evaluated
        when it can first pass.  Returns (coeffs, grid values, sups) of the
        longest passing prefix, None if the first row fails; raises
        NonContractionError if the first row's sup takes q to 1/2."""
        tol = self.config.picard_tol
        if self.config.order2 or not q * radius / (1.0 - q) <= tol:
            return None  # fails whatever g(0) is
        if self._g0 is None:
            self._g0 = float(np.abs(self.g.fn(np.zeros(self.E.shape[1]))).max())
        if not self._linear_bound(q, radius) <= tol:
            return None
        if self.forcing.is_zero:
            Y = np.empty((len(terms) + 1, self.basis.modes))
            Y[0], Y[1:] = coeffs, self.decay
            Y = np.cumprod(Y, axis=0, out=Y)[1:]
        else:
            Y = self.base(coeffs, terms[0], None)[None]
        Y[np.abs(Y) < _TINY] = 0.0  # decay would round them back to themselves
        V = np.matmul(Y[:, None, :], self.E)[:, 0]  # rows of y @ E; a batched Y @ E differs
        S = np.abs(V).max(axis=1)
        if S[0] > radius:
            self._check_contraction(t, float(S[0]))
        R = np.concatenate(([radius], S[:-1]))  # each row's incoming radius
        q = self.g.lipschitz(R) * self.gain
        q0 = np.where(S > R, self.g.lipschitz(S) * self.gain, q)  # q again at a raised radius
        ok = ((q < 0.5) & (q0 < 0.5) & (self._linear_bound(q, R) <= tol)
              & (self._linear_bound(q0, S, self._flush_err) <= tol))
        n = len(ok) if ok.all() else int(np.argmin(ok))
        return (Y[:n], V[:n], S[:n]) if n else None

    def step_frozen(self, coeffs, t):
        """Single application with the profile frozen at the incoming state."""
        _, terms = next(self.forcing_blocks([t]))
        gx = self.nonlinear(coeffs @ self.E)
        return self.step_map(self.base(coeffs, terms[0], gx), gx)

    def _check_contraction(self, t, radius, gain=None):
        """The factor L_R ``gain`` at ``radius`` (a block's gain if given), if
        it is below 1/2."""
        factor = self.g.lipschitz(radius) * (self.gain if gain is None else gain)
        if factor >= 0.5:
            raise NonContractionError(t, radius, factor)
        return factor


def step_picard(x, t, nonlinearity, forcing=None, config=None):
    """One Picard-refined step of ``config.dt`` from the field ``x`` at t by
    ``Stepper.step``; returns (field, refinements, distances), the moves of
    the grid values, one per refinement: 0 or -1 refinements and no
    distances for an accepted frozen or linear step."""
    stepper = Stepper(x.basis, nonlinearity, forcing, config)
    distances = []
    Y, refinements, _, _ = stepper.step(x.coeffs, t, distances=distances)
    return Field(x.basis, coeffs=Y[0]), refinements, distances


def solve(x0, config, nonlinearity, forcing=None, t0=0.0):
    """March the mild-solution stepper over [t0, t0 + horizon].

    The horizon is rounded to a whole number of steps of ``config.dt``; one
    that rounds to none (below dt/2) raises ValueError, and so does one
    whose output arrays cannot be allocated.  Stops early with
    the blow-up flag set if the sup-norm trace exceeds the configured cap;
    that detector is a proxy for the maximal-solution alternative, not a
    statement about the continuum equation.  The forcing terms are read a
    forcing block at a time, and each ``Stepper.step`` call is handed the
    rest of the block; the first row it returns above the cap ends the
    march, and the rows after it are dropped.
    """
    steps = round(config.horizon / config.dt, 0)  # a float, inf if the ratio overflows
    if steps < 1:
        raise ValueError(f"horizon {config.horizon:g} is less than half a step "
                         f"of dt = {config.dt:g}")
    stepper = Stepper(x0.basis, nonlinearity, forcing, config)
    try:
        n_steps = int(steps)
        stamps = t0 + config.dt * np.arange(n_steps + 1)
        coeffs = np.empty((n_steps + 1, x0.basis.modes))
        sup_trace = np.empty(n_steps + 1)
        counts = np.zeros(n_steps, dtype=int)
        spiky = np.zeros(n_steps, dtype=bool)
    except (OverflowError, ValueError, MemoryError) as exc:
        need = 8.0 * (steps + 1) * (x0.basis.modes + 2) + 9.0 * steps
        raise ValueError(f"n_steps = {steps:.6g} at dt = {config.dt:g} needs "
                         f"{need:.3g} bytes of output arrays") from exc
    coeffs[0] = x0.coeffs
    values = x0.coeffs @ stepper.E
    sup = sup_trace[0] = float(np.abs(values).max())
    cap = config.blowup_cap
    j = 0  # the steps taken
    blocks = stepper.forcing_blocks(stamps[:-1], stamps[1:])
    for b0, (block_spiky, terms) in zip(range(0, n_steps, FORCING_BLOCK), blocks):
        spiky[b0:b0 + len(terms)] = block_spiky
        while j < b0 + len(terms):
            Y, k, V, S = stepper.step(coeffs[j], stamps[j], terms[j - b0:], values, sup)
            m = len(S)
            coeffs[j + 1:j + 1 + m], sup_trace[j + 1:j + 1 + m], counts[j:j + m] = Y, S, k
            if max(S.tolist()) > cap:  # the march ends at the first row above the cap
                n = j + 1 + int(np.argmax(S > cap))
                return Trajectory(x0.basis, stamps[:n + 1], coeffs[:n + 1], sup_trace[:n + 1],
                                  counts[:n], True, float(stamps[n]), spiky[:n])
            values, sup = V[-1], S[-1]
            j += m
    return Trajectory(x0.basis, stamps, coeffs, sup_trace, counts, spiky=spiky)


# ---------------------------------------------------------------------------
# Bounds and diagnostics
# ---------------------------------------------------------------------------

def global_bound_estimate(forcing, companion, p=1.0, scan=(0.0, 12.0), M=1.0):
    """A-priori sup bound: companion sup plus the forcing tail term.

    ``companion`` is a zero-forcing run from the same initial data.  The
    forcing contribution is M e^{3 lambda1} / (e^{lambda1} - 1) times the
    windowed L^p norm of t -> sup-norm of H(t), scanned over ``scan`` at
    the ``StepanovConfig`` stride and nodes.
    """
    sup_u = float(np.max(companion.sup_trace))
    if forcing is None or forcing.is_zero:
        return sup_u
    lam1 = forcing.basis.lambda1
    cfg = StepanovConfig(p=p, t_min=scan[0], t_max=scan[1])
    h_norm = stepanov_norm(forcing.sup_signal(), cfg)
    return sup_u + M * np.exp(3.0 * lam1) / (np.exp(lam1) - 1.0) * h_norm


def holder_increment_bound(delta, k_p, lambda1, p, semigroup_gap, M=1.0):
    """Increment envelope for solutions with range in a compact cloud.

    bound(delta) = semigroup_gap + k_p M (delta + 3)^{1/p}
                   (integral_0^delta e^{q w s} ds)^{1/q},  w = -lambda1.

    ``semigroup_gap`` is sup over the cloud of ||T(delta) y - y||; ``k_p``
    the uniform windowed norm of the right-hand side over the cloud.
    """
    if p <= 1.0:
        raise ValueError("the increment envelope needs p > 1")
    q = p / (p - 1.0)
    integral = (1.0 - np.exp(-q * lambda1 * delta)) / (q * lambda1)
    return semigroup_gap + k_p * M * (delta + 3.0) ** (1.0 / p) * integral ** (1.0 / q)


def semigroup_gap(cloud_coeffs, basis, delta):
    """sup over cloud rows of ||T(delta) y - y|| in the grid sup norm."""
    damp = np.exp(-basis.eigenvalues * delta) - 1.0
    diff = (cloud_coeffs * damp) @ basis.eigenfunctions
    return float(np.max(np.abs(diff)))


@dataclass
class ExtensionReport:
    """Cauchy diagnostics for the translation ladder of a one-sided solution."""

    shifts: np.ndarray
    window: float
    pairwise: np.ndarray
    successive: np.ndarray

    @property
    def cauchy_defect(self):
        return float(self.successive[-1])


def translation_extension(traj, ladder, half_window):
    """Windowed translates u_n(t) = x(t + t_n) on [-T_c, T_c], with defects.

    Snaps each ladder entry to the stamp grid, reports the sup-distance
    matrix of the windowed translates (each window synthesized once, the
    distances taken between grid values), and returns the last translate as the
    two-sided candidate.  A shrinking defect sequence is evidence for (never
    a verification of) a two-sided extension.
    """
    ladder = np.asarray(ladder, dtype=float)
    dt = traj.dt
    half_idx = int(round(half_window / dt))
    windows = []
    shifts = []
    for t_n in np.sort(ladder):
        center = int(round((t_n - traj.stamps[0]) / dt))
        lo, hi = center - half_idx, center + half_idx
        if lo < 0 or hi >= len(traj.stamps):
            raise ValueError(
                f"trajectory span too short for shift {t_n:g} with half-window {half_window:g}"
            )
        windows.append(traj.coeffs[lo:hi + 1])
        shifts.append(traj.stamps[center])
    shifts = np.asarray(shifts)
    n = len(windows)
    values = [w @ traj.basis.eigenfunctions for w in windows]  # each window once
    pairwise = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            pairwise[i, j] = pairwise[j, i] = float(np.max(np.abs(values[i] - values[j])))
    successive = np.array([pairwise[i, i + 1] for i in range(n - 1)])
    tau = dt * np.arange(-half_idx, half_idx + 1)
    candidate = Trajectory(traj.basis, tau, windows[-1],
                           np.max(np.abs(values[-1]), axis=1))
    report = ExtensionReport(shifts=shifts, window=half_window,
                             pairwise=pairwise, successive=successive)
    return candidate, report


def mild_residual(traj, i_from, i_to, nonlinearity, forcing=None, config=None):
    """Defect of the variation-of-constants identity between two stamps.

    Re-integrates the stored trajectory from stamp ``i_from`` to ``i_to`` as
    ``solve`` did, in steps of ``config.dt`` (default: the first stamp gap)
    that end at the successor stamps, and returns the sup-norm gap against
    the stored endpoint.  Requires 0 <= i_from < i_to < len(traj) and stamp
    gaps equal to ``config.dt`` up to rounding (else ValueError).
    """
    if not 0 <= i_from < i_to < len(traj):
        raise ValueError(f"need 0 <= i_from < i_to < {len(traj)}, "
                         f"got i_from = {i_from}, i_to = {i_to}")
    config = config if config is not None else SolverConfig(dt=traj.dt)
    stamps = traj.stamps[i_from:i_to + 1]
    # t0 + j dt rounds by at most 1.5 eps max|t|, so any gap, traj.dt too, by 3 eps max|t|
    worst = float(np.max(np.abs(np.diff(stamps) - config.dt)))
    if worst > 8.0 * np.finfo(float).eps * float(np.max(np.abs(stamps))):
        raise ValueError(f"stamp gaps between {i_from} and {i_to} are not steps of "
                         f"dt = {config.dt:g} (off by up to {worst:.3g})")
    stepper = Stepper(traj.basis, nonlinearity, forcing, config)
    c = traj.coeffs[i_from]
    gx = stepper.nonlinear(c @ stepper.E)
    j = i_from
    for _, terms in stepper.forcing_blocks(stamps[:-1], stamps[1:]):
        for term in terms:
            j += 1
            gy = stepper.nonlinear(traj.coeffs[j] @ stepper.E)
            c = stepper.step_map(stepper.base(c, term, gx), gy)
            gx = gy
    gap = (c - traj.coeffs[i_to]) @ stepper.E
    return float(np.max(np.abs(gap)))


# ---------------------------------------------------------------------------
# Persistence
# ---------------------------------------------------------------------------

def save_trajectory(traj, outdir):
    """Write the whole trajectory to trajectory.npz, which load_trajectory
    reads, plus trace.csv, about 400 field snapshots and trajectory.txt for
    people to read.  Each file is created new (``util.open_new``), and the
    snapshots of an earlier save that this one does not list are deleted."""
    os.makedirs(outdir, exist_ok=True)
    b = traj.basis
    with open_new(os.path.join(outdir, "trajectory.npz"), "wb") as fh:
        np.savez(fh,
                 basis=np.array([b.length, b.modes, b.grid], dtype=float),
                 stamps=traj.stamps, coeffs=traj.coeffs, sup_trace=traj.sup_trace,
                 picard_counts=traj.picard_counts, spiky=traj.spiky,
                 blown_up=traj.blown_up,
                 blowup_time=np.nan if traj.blowup_time is None else traj.blowup_time)
    snap_dir = os.path.join(outdir, "snapshots")
    os.makedirs(snap_dir, exist_ok=True)
    n = len(traj.stamps)
    idx = list(range(0, n, max(1, (n - 1) // 400)))
    if idx[-1] != n - 1:
        idx.append(n - 1)
    names = [f"snap_{i:08d}.csv" for i in idx]
    for stale in set(filter(re.compile(r"snap_\d{8}\.csv").fullmatch,
                            os.listdir(snap_dir))).difference(names):
        os.unlink(os.path.join(snap_dir, stale))
    with open_new(os.path.join(outdir, "trace.csv")) as fh:
        fh.write("t,sup_norm\n")
        fh.writelines(map("%.15g,%.15g\n".__mod__,
                          zip(traj.stamps.tolist(), traj.sup_trace.tolist())))
    for i, name in zip(idx, names):
        save_field_csv(traj.field(i), os.path.join(snap_dir, name))
    with open_new(os.path.join(outdir, "snapshots.csv")) as fh:
        fh.write("index,t,file\n")
        fh.writelines("%d,%.15g,snapshots/%s\n" % row
                      for row in zip(idx, traj.stamps[idx].tolist(), names))
    with open_new(os.path.join(outdir, "trajectory.txt")) as fh:
        fh.write("basis.L = %.15g\nbasis.K = %d\nbasis.N = %d\nstamps = %d\ndt = %.15g\n"
                 "blown_up = %s\n" % (b.length, b.modes, b.grid, n, traj.dt, traj.blown_up))
        if traj.blowup_time is not None:
            fh.write("blowup_time = %.15g\n" % traj.blowup_time)


def load_trajectory(outdir):
    """Rebuild the saved Trajectory, every field exactly, from trajectory.npz.

    Raises FileNotFoundError if there is no archive and ValueError if it
    cannot be read as one (truncated, not a zip archive, members missing).
    """
    path = os.path.join(outdir, "trajectory.npz")
    try:
        # np.load(path) would leave the file of a damaged archive to the collector
        with open(path, "rb") as fh:
            z = np.load(fh, allow_pickle=False)
            if not isinstance(z, np.lib.npyio.NpzFile):
                raise ValueError("a single array, not an archive")
            with z:
                length, modes, grid = z["basis"]
                blowup_time = float(z["blowup_time"])
                return Trajectory(SpectralBasis(length=length, modes=int(modes), grid=int(grid)),
                                  z["stamps"], z["coeffs"], z["sup_trace"], z["picard_counts"],
                                  blown_up=bool(z["blown_up"]),
                                  blowup_time=None if np.isnan(blowup_time) else blowup_time,
                                  spiky=z["spiky"])
    except (zipfile.BadZipFile, EOFError, KeyError, ValueError) as exc:
        raise ValueError(f"{path} is not a readable trajectory archive") from exc


def reference_initial_field(basis, profile="mode1", amplitude=1.0):
    """Initial-data registry: ``mode<k>`` sine profiles or ``zero``, scaled
    by a finite ``amplitude``."""
    if not math.isfinite(amplitude):
        raise ValueError(f"initial amplitude must be finite, got {amplitude!r}")
    if profile == "zero":
        return Field(basis, coeffs=np.zeros(basis.modes))
    m = re.fullmatch(r"mode(\d+)", profile)
    if not m:
        raise KeyError(f"unknown initial/forcing profile {profile!r}")
    k = int(m.group(1))
    if not 1 <= k <= basis.modes:
        raise ValueError(f"profile mode {k} outside 1..{basis.modes}")
    return field_from_function(
        basis, lambda xi: amplitude * np.sin(k * np.pi * xi / basis.length))
