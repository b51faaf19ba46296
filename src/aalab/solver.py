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
gain (|g(0)| + L_R s), is within it takes the linear step (no g) first.
On an unforced order-one march the steps after a linear step are taken as
runs of up to FORCING_BLOCK, T(dt)^j x as one running product held row by
row to the same test (``Stepper.linear_run``), with the floats of the steps.

Spike-train forcing is integrated with breakpoint-aware subdivision, so a
narrow spike crossing a step boundary is never under-resolved.

The forcing, a sum of rank-one parts (``ForcingSpec.parts``), does not depend
on the state, so its half of the step integral is computed ahead of the steps,
FORCING_BLOCK at a time: one breakpoint query per block, each part's signals
evaluated once on the block's nodes, summed node by node against the cached
factors D * w and scaled by the part's coefficients.  ``Stepper.forcing_steps``
is the only place the forcing is integrated, and a step's term is the same
float in a block as alone; against the full product (D * H(t + rel)) @ w it
replaced, the terms moved by at most 3.7e-16 of the largest (T = 50
reference run).  ``Stepper.base`` and ``Stepper.step_map`` are likewise the
only places the nonlinearity enters a step: the Picard iteration, the
single-step helpers and the residual all apply the map to a base formed once
per step.
"""

import collections
from dataclasses import dataclass, field, replace
import itertools
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


#: Steps whose forcing terms are computed together, and the longest run of
#: linear steps.  It bounds the node and contraction buffers (0.5 MB each at
#: 64 modes and 8 nodes) and a run's grid values (0.26 MB at 257 points)
#: whatever the horizon, and is large enough that per-call overhead is
#: negligible.
FORCING_BLOCK = 128
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

    def growth_margin(self, r_lo=1.0, r_hi=1e6, count=61):
        """Numerical stand-in for limsup of g(r)/r as |r| grows.

        Maximum of g(r)/r over a log-spaced grid of both signs; compare the
        result against lambda_1 of the operator.
        """
        r = np.logspace(np.log10(r_lo), np.log10(r_hi), count)
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
        if self.dt <= 0 or self.horizon <= 0:
            raise ValueError("dt and horizon must be positive")
        if self.picard_tol <= 0:
            raise ValueError("Picard tolerance must be positive")
        if self.picard_max_iter < 1:
            raise ValueError("Picard budget must allow at least one refinement")
        if self.forcing_nodes < 1:
            raise ValueError("forcing quadrature needs at least one node")
        if self.blowup_cap <= 0:
            raise ValueError("blow-up cap must be positive")


@dataclass
class Trajectory:
    """A solved path: stamps, mode coefficients, sup-norm trace, step metadata.

    ``picard_counts`` are refinements per step (-1: a linear step, no g).
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
        i = int(np.argmin(np.abs(self.stamps - t)))
        return i

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

    def as_signal(self, name="trajectory"):
        from .signals import SampledSignal
        return SampledSignal(self.stamps, self.grid_values(), name=name)


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
    """Single-step engine for steps of the configured ``dt``, with ``decay`` =
    exp(-lam dt), the weights ``wx`` and ``wy`` of ``base`` and ``step_map``
    (dealiased) and ``gain`` = ||E^T diag(wy) P||_inf computed once."""

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
        # scratch of every Picard sweep: P g of the iterate, |grid difference|
        self._g_buf = np.empty(basis.modes)
        self._v_buf = np.empty(self.E.shape[1])
        self._g0 = None  # sup |g(0)|, evaluated when a linear step is first tried
        self._flush_err = basis.modes * math.sqrt(2.0 / basis.length) * _TINY  # its grid move

    def nonlinear(self, values):
        """Mode coefficients of g at the grid ``values``: P g(values)."""
        return self.P @ self.g.fn(values)

    def forcing_steps(self, starts, ends=None):
        """Forcing integrals of the steps of length dt from ``starts`` to
        ``ends``, in order; ``ends`` defaults to starts + dt, and ``solve``
        passes the successor stamps, which that sum can miss by a rounding.

        Yields one (spiky, term) pair per step: ``term`` is the forcing part
        of the step integral (0.0 for a zero forcing), the sum over the parts
        of coeffs times sum_i h(t + rel_i) (D * wts)[:, i] on the step's
        layout (rel, wts), D = exp(-lam (dt - rel)).  ``spiky`` tells whether
        a forcing breakpoint lies strictly inside the step, which then gets
        its own layout split there; every other step shares the cached one.
        Steps are computed FORCING_BLOCK at a time, so a consumer that stops
        early wastes at most one block; a step's term is the same in any.
        """
        starts = np.asarray(starts, dtype=float)
        ends = starts + self.config.dt if ends is None else np.asarray(ends, dtype=float)
        for b0 in range(0, starts.size, FORCING_BLOCK):
            block = slice(b0, b0 + FORCING_BLOCK)
            yield from self._forcing_block(starts[block], ends[block])

    def _forcing_block(self, starts, ends):
        if self.forcing.is_zero:
            for _ in range(starts.size):
                yield False, 0.0
            return
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
        terms = np.zeros((starts.size, self.basis.modes))
        for signals, coeffs in self.forcing.parts:
            h = sum(sig.eval(times) for sig in signals)  # each signal once per block
            terms[smooth] += _node_sum(h[:n * q].reshape(n, q), self._Dw) * coeffs
            col = n * q
            for j in own:
                rel, Dw = layouts[j]
                terms[j] += _node_sum(h[None, col:col + rel.size], Dw)[0] * coeffs
                col += rel.size
        for j in range(starts.size):
            yield spiky[j], terms[j]

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

    def step(self, coeffs, t, collect_distances=False, prepared=None, values=None, sup=None):
        """One Picard-refined step from (t, coeffs) to t + dt.

        ``prepared`` is the pair ``forcing_steps`` yields for this step;
        without it the step is integrated as a block of one.  ``values`` are
        the grid values of ``coeffs`` and ``sup`` their sup norm, if the
        caller holds them.  At order one every application, the frozen one
        from x(t) included, stops the iteration once q / (1 - q) d <=
        ``picard_tol``, with d its move of the grid values and q = L_R
        ``gain`` < 1/2 at the running radius r: then the iterate is within
        the tolerance of the fixed point.  With ``order2``, once d <= it.  At
        order one, if (q r + gain |g(0)|) / (1 - q) <= ``picard_tol``, the
        linear step ``base`` (subnormals flushed to 0) is tried first and kept
        if the same bound holds at its sup.  Returns (new_coeffs, iterations,
        distances, new_values, new_sup): refinements after the frozen one (0
        if that one was accepted, -1 for a linear step), their
        successive-iterate sup distances (empty unless requested), and the
        last sweep's synthesis and its sup norm.  The sweeps work in buffers
        kept on the stepper, never returned, and recompute q, checking the
        margin, only when a sup raises the radius.
        """
        cfg = self.config
        _, term = prepared if prepared is not None else next(self.forcing_steps([t]))
        E, P, g, v_buf, tol = self.E, self.P, self.g.fn, self._v_buf, cfg.picard_tol
        gain, order2 = self.gain, cfg.order2
        vy = coeffs @ E if values is None else values
        radius = float(np.abs(vy).max()) if sup is None else float(sup)
        q = self._check_contraction(t, radius)

        # the linear step, no g: |E^T wy P g(v0)| <= gain (|g(0)| + L_R s0)
        if not order2 and q * radius / (1.0 - q) <= tol:
            if self._g0 is None:
                self._g0 = float(np.abs(g(np.zeros_like(vy))).max())
            if self._linear_bound(q, radius) <= tol:
                y = self.base(coeffs, term, None)
                y[np.abs(y) < _TINY] = 0.0  # decay would round them back to themselves
                v0 = y @ E
                s0 = float(np.maximum.reduce(np.abs(v0, out=v_buf)))
                q0 = q if s0 <= radius else self._check_contraction(t, s0)
                if self._linear_bound(q0, s0, self._flush_err) <= tol:
                    return y, -1, [], v0, s0
        # the frozen application uses g(x(t)), which order 2 also puts in the base
        gy = np.dot(P, g(vy), out=self._g_buf)
        base = self.base(coeffs, term, gy)
        distances = []
        for application in range(cfg.picard_max_iter + 1):
            y = self.step_map(base, gy)
            v_new = y @ E
            d = float(np.maximum.reduce(np.abs(np.subtract(v_new, vy, out=v_buf), out=v_buf)))
            s = float(np.maximum.reduce(np.abs(v_new, out=v_buf)))
            if s > radius:
                radius = s
                q = self._check_contraction(t, radius)
            vy = v_new
            if collect_distances and application > 0:
                distances.append(d)
            if (d if order2 else q / (1.0 - q) * d) <= tol:
                return y, application, distances, vy, s
            np.dot(P, g(vy), out=gy)
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

    def linear_run(self, coeffs, sup, rows, cap):
        """Up to ``rows`` linear steps of an unforced order-one march after a
        linear step to ``coeffs`` (grid sup ``sup``), as one running product
        T(dt)^j coeffs, flushed once and synthesized row by row: each row is
        the floats ``step`` gives, since a coefficient below _TINY stays below
        it under decay < 1.  Returns the coefficients, grid values and sups of
        the longest prefix that passes ``step``'s linear-step test with sups
        at most ``cap``; the first row that fails is left to ``step``."""
        Y = np.empty((rows + 1, self.basis.modes))
        Y[0], Y[1:] = coeffs, self.decay
        Y = np.cumprod(Y, axis=0, out=Y)[1:]
        Y[np.abs(Y) < _TINY] = 0.0
        V = np.matmul(Y[:, None, :], self.E)[:, 0]  # rows of y @ E; a batched Y @ E differs
        S = np.abs(V).max(axis=1)
        R = np.concatenate(([sup], S[:-1]))  # each row's incoming radius
        q = self.g.lipschitz(R) * self.gain
        q0 = np.where(S > R, self.g.lipschitz(S) * self.gain, q)  # q again at a raised radius
        tol = self.config.picard_tol
        ok = ((q < 0.5) & (q0 < 0.5) & (self._linear_bound(q, R) <= tol)
              & (self._linear_bound(q0, S, self._flush_err) <= tol) & (S <= cap))
        n = rows if ok.all() else int(np.argmin(ok))
        return Y[:n], V[:n], S[:n]

    def step_frozen(self, coeffs, t):
        """Single application with the profile frozen at the incoming state."""
        _, term = next(self.forcing_steps([t]))
        gx = self.nonlinear(coeffs @ self.E)
        return self.step_map(self.base(coeffs, term, gx), gx)

    def _check_contraction(self, t, radius):
        """The factor L_R ``gain`` at ``radius``, if it is below 1/2."""
        factor = self.g.lipschitz(radius) * self.gain
        if factor >= 0.5:
            raise NonContractionError(t, radius, factor)
        return factor


def step_exponential(x, t, dt, nonlinearity, forcing=None, config=None, iterate=None):
    """One application of the step map to ``x``, with the nonlinearity profile
    ending at ``iterate`` (default: ``x`` itself, the zeroth Picard iterate).

    At order one g is frozen at ``iterate``; with ``order2`` it runs linearly
    from g(x) to g(iterate).  ``dt`` overrides the step length of ``config``.
    """
    config = SolverConfig(dt=dt) if config is None else replace(config, dt=dt)
    stepper = Stepper(x.basis, nonlinearity, forcing, config)
    _, term = next(stepper.forcing_steps([t]))
    gx = stepper.nonlinear(x.values)
    gy = gx if iterate is None else stepper.nonlinear(iterate.values)
    out = stepper.step_map(stepper.base(x.coeffs, term, gx), gy)
    return Field(x.basis, coeffs=out)


def step_picard(x, t, dt, nonlinearity, forcing=None, config=None,
                collect_distances=False):
    """Picard-refined step; returns (field, iterations[, distances]): 0 or -1
    iterations and no distances for an accepted frozen or linear step.
    ``dt`` overrides the step length of ``config``."""
    config = SolverConfig(dt=dt) if config is None else replace(config, dt=dt)
    stepper = Stepper(x.basis, nonlinearity, forcing, config)
    coeffs, iterations, distances, _, _ = stepper.step(x.coeffs, t, collect_distances)
    out = Field(x.basis, coeffs=coeffs)
    if collect_distances:
        return out, iterations, distances
    return out, iterations


def solve(x0, config, nonlinearity, forcing=None, t0=0.0):
    """March the mild-solution stepper over [t0, t0 + horizon].

    The horizon is rounded to a whole number of steps of ``config.dt``; one
    that rounds to none (below dt/2) raises ValueError.  Stops early with
    the blow-up flag set if the sup-norm trace exceeds the configured cap;
    that detector is a proxy for the maximal-solution alternative, not a
    statement about the continuum equation.  With no forcing, at order one,
    the steps after a linear step are taken as runs (``Stepper.linear_run``)
    up to the first that fails, which is stepped alone: the same floats.
    """
    n_steps = int(round(config.horizon / config.dt))
    if n_steps < 1:
        raise ValueError(f"horizon {config.horizon:g} is less than half a step "
                         f"of dt = {config.dt:g}")
    stepper = Stepper(x0.basis, nonlinearity, forcing, config)
    stamps = t0 + config.dt * np.arange(n_steps + 1)
    coeffs = np.empty((n_steps + 1, x0.basis.modes))
    sup_trace = np.empty(n_steps + 1)
    counts = np.zeros(n_steps, dtype=int)
    spiky = np.zeros(n_steps, dtype=bool)
    coeffs[0] = x0.coeffs
    values = x0.coeffs @ stepper.E
    sup = sup_trace[0] = float(np.abs(values).max())
    blown_up = False
    blowup_time = None
    last = n_steps
    runs = stepper.forcing.is_zero and not config.order2
    steps = enumerate(stepper.forcing_steps(stamps[:-1], stamps[1:]))
    for j, prepared in steps:
        spiky[j] = prepared[0]
        coeffs[j + 1], counts[j], _, values, sup = stepper.step(
            coeffs[j], stamps[j], prepared=prepared, values=values, sup=sup)
        sup_trace[j + 1] = sup
        if sup_trace[j + 1] > config.blowup_cap:
            blown_up = True
            blowup_time = float(stamps[j + 1])
            last = j + 1
            break
        if runs and counts[j] == -1:
            k = j + 1  # the first step of the next run
            while k < n_steps:
                rows = min(FORCING_BLOCK, n_steps - k)
                Y, V, S = stepper.linear_run(coeffs[k], sup, rows, config.blowup_cap)
                n = len(Y)
                coeffs[k + 1:k + 1 + n], sup_trace[k + 1:k + 1 + n] = Y, S
                counts[k:k + n] = -1
                if n:
                    values, sup = V[-1], S[-1]
                k += n
                if n < rows:
                    break
            collections.deque(itertools.islice(steps, k - j - 1), maxlen=0)
    sl = slice(0, last + 1)
    return Trajectory(x0.basis, stamps[sl], coeffs[sl], sup_trace[sl],
                      counts[:last], blown_up, blowup_time, spiky[:last])


# ---------------------------------------------------------------------------
# Bounds and diagnostics
# ---------------------------------------------------------------------------

def global_bound_estimate(forcing, companion, p=1.0, scan=(0.0, 12.0),
                          stride=0.125, nodes=32, M=1.0):
    """A-priori sup bound: companion sup plus the forcing tail term.

    ``companion`` is a zero-forcing run from the same initial data.  The
    forcing contribution is M e^{3 lambda1} / (e^{lambda1} - 1) times the
    windowed L^p norm of t -> sup-norm of H(t), scanned over ``scan``.
    """
    sup_u = float(np.max(companion.sup_trace))
    if forcing is None or forcing.is_zero:
        return sup_u
    lam1 = forcing.basis.lambda1
    cfg = StepanovConfig(p=p, nodes=nodes, t_min=scan[0], t_max=scan[1], stride=stride)
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
    matrix of the windowed translates, and returns the last translate as the
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
    pairwise = np.zeros((n, n))
    E = traj.basis.eigenfunctions
    for i in range(n):
        for j in range(i + 1, n):
            gap = float(np.max(np.abs((windows[i] - windows[j]) @ E)))
            pairwise[i, j] = pairwise[j, i] = gap
    successive = np.array([pairwise[i, i + 1] for i in range(n - 1)])
    tau = dt * np.arange(-half_idx, half_idx + 1)
    values = windows[-1] @ E
    candidate = Trajectory(traj.basis, tau, windows[-1],
                           np.max(np.abs(values), axis=1))
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
    for j, (_, term) in zip(range(i_from, i_to), stepper.forcing_steps(stamps[:-1], stamps[1:])):
        gy = stepper.nonlinear(traj.coeffs[j + 1] @ stepper.E)
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
    """Initial-data registry: ``mode<k>`` sine profiles or ``zero``."""
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
