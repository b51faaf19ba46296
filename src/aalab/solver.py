"""Time stepping for x' = A x + G(x) + H(t) by variation of constants.

Each step applies the heat semigroup exactly per mode and quadratures the
forcing and nonlinearity along the step, with the integrand profile supplied
by a per-step fixed-point (Picard) iteration:

    x(t + dt) = T(dt) x(t) + integral_t^{t+dt} T(t + dt - s) f(s, xhat(s)) ds

The default iterate profile is constant in s (frozen at the current iterate,
starting from x(t)); an optional refinement interpolates linearly between the
step endpoints, which raises the observed convergence order from one to two.
The per-step map is a contraction whenever M * L_R * dt < 1/2, where L_R is
the local Lipschitz constant of the nonlinearity on the current radius; the
stepper enforces that margin and reports the iterate distances so contraction
can be observed, not assumed.

Spike-train forcing is integrated with breakpoint-aware subdivision, so a
narrow spike crossing a step boundary is never under-resolved.

The forcing half of the step integral does not depend on the state, so it is
computed ahead of the steps that use it, FORCING_BLOCK steps at a time: one
breakpoint query and one forcing evaluation per block, contracted against the
cached quadrature factors.  ``Stepper.forcing_steps`` is the only place the
forcing is integrated; the march, single steps and the mild-solution residual
all take their forcing terms from it, bit-identical to integrating each step
on its own.  ``Stepper.step_map`` is likewise the only place the nonlinearity
enters a step: the Picard iteration, the single-step helpers and the residual
all apply it to a base T(dt) x(t) plus forcing term formed once per step.
"""

from dataclasses import dataclass, field
import os
import re

import numpy as np

from .quadrature import quadrature_nodes, gauss_nodes
from .signals import (FunctionSignal, SpikeTrainSignal, StepanovConfig,
                      constant_signal, reciprocal_sine_signal, stepanov_norm)
from .spectral import Field, SpectralBasis, field_from_function, load_field_csv, save_field_csv
from .util import fmt15


#: Steps whose forcing terms are computed together.  It bounds the node and
#: contraction buffers (0.5 MB each at 64 modes and 8 nodes) whatever the
#: horizon, and is large enough that per-call overhead is negligible.
FORCING_BLOCK = 128


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
    """Pointwise reaction term g with its local Lipschitz estimator."""

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


def make_nonlinearity(ident):
    """Registry: ``zero``, ``cubic`` (-r^3), ``cubic-unstable`` (+r^3),
    ``logistic:<lam>`` (lam r (1 - r))."""
    if ident == "zero":
        return NonlinearitySpec("zero", lambda r: np.zeros_like(np.asarray(r, dtype=float)),
                                lambda R: 0.0)
    if ident == "cubic":
        return NonlinearitySpec("cubic", lambda r: -np.asarray(r, dtype=float) ** 3,
                                lambda R: 3.0 * R * R)
    if ident == "cubic-unstable":
        return NonlinearitySpec("cubic-unstable", lambda r: np.asarray(r, dtype=float) ** 3,
                                lambda R: 3.0 * R * R)
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
    """Time-dependent forcing H(t) built from a spatial profile and signals.

    The bounded temporal part and the spike-train part combine in one of two
    boundary modes.  ``profiled`` multiplies their sum by the profile, which
    keeps every forcing field in the Dirichlet class.  ``literal``
    instead adds the spike train as a spatial constant, realized through the
    sine-basis projection of 1; that projection oscillates near the ends
    (Gibbs) and is provided for comparison, flagged, never as the default.
    """

    def __init__(self, basis, profile=None, bounded=None, spiky=None,
                 boundary_mode="profiled"):
        if boundary_mode not in ("profiled", "literal"):
            raise ValueError(f"unknown boundary mode {boundary_mode!r}")
        self.basis = basis
        self.profile = profile
        self.bounded = bounded
        self.spiky = spiky
        self.boundary_mode = boundary_mode
        self.profile_coeffs = (np.zeros(basis.modes) if profile is None
                               else np.array(profile.coeffs, dtype=float))
        ones = np.ones(basis.grid + 1)
        self.flat_coeffs = basis.project(ones)

    # constructors ---------------------------------------------------------

    @classmethod
    def none(cls, basis):
        return cls(basis)

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
        return self.bounded is None and self.spiky is None

    def mode_values(self, t):
        """Mode coefficients of H at each time in ``t``: shape (K, len(t))."""
        t = np.atleast_1d(np.asarray(t, dtype=float))
        K = self.basis.modes
        if self.is_zero:
            return np.zeros((K, t.size))
        b_vals = self.bounded.eval(t) if self.bounded is not None else np.zeros(t.size)
        a_vals = self.spiky.eval(t) if self.spiky is not None else np.zeros(t.size)
        if self.boundary_mode == "profiled":
            return np.outer(self.profile_coeffs, b_vals + a_vals)
        return (np.outer(self.profile_coeffs, b_vals)
                + np.outer(self.flat_coeffs, a_vals))

    def grid_values(self, t):
        """Grid values of H at each time: shape (len(t), grid + 1)."""
        t = np.atleast_1d(np.asarray(t, dtype=float))
        if self.is_zero:
            return np.zeros((t.size, self.basis.grid + 1))
        return (self.mode_values(t).T @ self.basis.eigenfunctions)

    def breakpoints(self, lo, hi):
        pts = []
        for sig in (self.bounded, self.spiky):
            if sig is not None:
                pts.append(np.asarray(sig.breakpoints(lo, hi), dtype=float))
        return np.concatenate(pts) if pts else np.empty(0)

    def has_breakpoints(self, lo, hi):
        """Per interval [lo[i], hi[i]]: whether ``breakpoints`` reports any point."""
        hit = np.zeros(np.shape(lo), dtype=bool)
        for sig in (self.bounded, self.spiky):
            if sig is not None:
                hit |= sig.has_breakpoints(lo, hi)
        return hit

    def sup_signal(self):
        """The scalar signal t -> sup-norm of H(t), for windowed norms."""
        if self.is_zero:
            return constant_signal(0.0)
        if self.boundary_mode == "profiled":
            peak = float(np.max(np.abs(self.basis.synthesize(self.profile_coeffs))))

            def fn(t):
                t = np.asarray(t, dtype=float)
                b_vals = self.bounded.eval(t) if self.bounded is not None else 0.0
                a_vals = self.spiky.eval(t) if self.spiky is not None else 0.0
                return np.abs(b_vals + a_vals) * peak
        else:
            def fn(t):
                return np.max(np.abs(self.grid_values(t)), axis=-1)
        return FunctionSignal(fn, name="forcing-sup", breakpoint_fn=self.breakpoints)


# ---------------------------------------------------------------------------
# Stepping
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SolverConfig:
    """Step size, horizon, Picard control, quadrature order, blow-up cap."""

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

    ``spiky`` marks the steps whose forcing reported breakpoints, and which
    were therefore integrated on their own subdivided quadrature layout.
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
        counts = self.picard_counts[idx[0]:idx[-1]] if self.picard_counts.size else self.picard_counts
        spiky = self.spiky[idx[0]:idx[-1]] if self.spiky.size else self.spiky
        return Trajectory(self.basis, self.stamps[mask], self.coeffs[mask],
                          self.sup_trace[mask], counts,
                          self.blown_up, self.blowup_time, spiky)

    def as_signal(self, name="trajectory"):
        from .signals import SampledSignal
        return SampledSignal(self.stamps, self.grid_values(), name=name)


class Stepper:
    """Reusable single-step engine with cached quadrature factors."""

    def __init__(self, basis, nonlinearity, forcing=None, config=None):
        self.basis = basis
        self.g = nonlinearity
        self.forcing = forcing if forcing is not None else ForcingSpec.none(basis)
        self.config = config if config is not None else SolverConfig()
        self.lam = basis.eigenvalues
        self.E = basis.eigenfunctions
        self.P = basis._projection
        k_active = max(1, (2 * basis.modes) // 3)
        self.dealias = np.zeros(basis.modes)
        self.dealias[:k_active] = 1.0
        dt = self.config.dt
        self.decay_dt = np.exp(-self.lam * dt)
        x, w = gauss_nodes(self.config.forcing_nodes)
        rel = 0.5 * dt * (x + 1.0)
        self._default_rel = rel
        self._default_w = 0.5 * dt * w
        self._default_D = np.exp(-np.outer(self.lam, dt - rel))
        self._default_S = self._default_D @ self._default_w

    def forcing_steps(self, starts, gaps):
        """Forcing integrals of the steps [starts[j], starts[j] + gaps[j]], in order.

        Yields one (spiky, term, layout) triple per step: ``layout`` holds the
        quadrature factors (rel, wts, D, S) of the step, ``term`` is
        (D * H(t + rel)) @ wts, the forcing part of the step integral (0.0
        for a zero forcing), and ``spiky`` tells whether the forcing reported
        breakpoints on the step, which then gets its own subdivided layout.
        Steps are computed FORCING_BLOCK at a time, so a consumer that stops
        early wastes at most one block.
        """
        starts = np.asarray(starts, dtype=float)
        gaps = np.broadcast_to(np.asarray(gaps, dtype=float), starts.shape)
        for b0 in range(0, starts.size, FORCING_BLOCK):
            block = slice(b0, b0 + FORCING_BLOCK)
            yield from self._forcing_block(starts[block], gaps[block])

    def _forcing_block(self, starts, gaps):
        cfg = self.config
        ends = starts + gaps
        zero = self.forcing.is_zero
        spiky = (np.zeros(starts.size, dtype=bool) if zero
                 else self.forcing.has_breakpoints(starts, ends))
        bps = self.forcing.breakpoints(starts[0], ends[-1]) if spiky.any() else np.empty(0)
        own_layout = spiky | (gaps != cfg.dt)
        own, smooth = np.flatnonzero(own_layout), np.flatnonzero(~own_layout)
        layouts = [(self._default_rel, self._default_w, self._default_D, self._default_S)] * starts.size
        for j in own:
            # quadrature_nodes keeps only the breakpoints inside the step
            pts, wts = quadrature_nodes(starts[j], ends[j], bps if spiky[j] else (),
                                        cfg.forcing_nodes)
            rel = pts - starts[j]
            D = np.exp(-np.outer(self.lam, gaps[j] - rel))
            layouts[j] = (rel, wts, D, D @ wts)
        if zero:
            for j in range(starts.size):
                yield spiky[j], 0.0, layouts[j]
            return
        q = self._default_rel.size
        F = self.forcing.mode_values(np.concatenate(
            [(starts[smooth, None] + self._default_rel).ravel()]
            + [starts[j] + layouts[j][0] for j in own]))
        # Smooth steps: one (K, q) @ (q,) product per step, stacked, exactly
        # the product a step integrated on its own would form.
        K, n = self.basis.modes, smooth.size
        weighted = np.empty((n, K, q))
        np.multiply(self._default_D, F[:, :n * q].reshape(K, n, q).transpose(1, 0, 2),
                    out=weighted)
        terms = np.empty((starts.size, K))
        terms[smooth] = weighted @ self._default_w
        col = n * q
        for j in own:
            rel, wts, D, _ = layouts[j]
            terms[j] = (D * F[:, col:col + rel.size]) @ wts
            col += rel.size
        for j in range(starts.size):
            yield spiky[j], terms[j], layouts[j]

    def base(self, coeffs, dt, term):
        """T(dt) coeffs plus the forcing term: the state-independent part of a step."""
        decay = self.decay_dt if dt == self.config.dt else np.exp(-self.lam * dt)
        return decay * coeffs + term

    def step_map(self, base, layout, dt, vx, vy):
        """The variation-of-constants step map: ``base`` plus the nonlinearity
        integrated along the step on ``layout`` (rel, wts, D, S).

        ``vx`` and ``vy`` are the grid values of the iterate profile at the
        step's ends.  At order one the profile is frozen at ``vy``; with
        ``order2`` it runs linearly from ``vx`` to ``vy``.  This is the only
        place the nonlinearity enters a step.
        """
        rel, wts, D, S = layout
        if self.config.order2:
            profile = vx[None, :] + (rel / dt)[:, None] * (vy - vx)[None, :]
            Gm = self.dealias[:, None] * (self.P @ self.g.fn(profile).T)
            return base + (D * Gm) @ wts
        return base + S * (self.dealias * (self.P @ self.g.fn(vy)))

    def step(self, coeffs, t, dt=None, collect_distances=False, prepared=None):
        """One Picard-refined step from (t, coeffs) to t + dt.

        ``prepared`` is the triple ``forcing_steps`` yields for this step;
        without it the step is integrated as a block of one.  Returns
        (new_coeffs, iterations, distances); ``iterations`` counts
        refinement applications after the initial frozen one, and
        ``distances`` the successive-iterate sup distances (empty unless
        requested).
        """
        cfg = self.config
        dt = cfg.dt if dt is None else float(dt)
        if dt > cfg.dt * (1.0 + 1e-12):
            raise ValueError("step dt exceeds the configured dt")
        if prepared is None:
            prepared = next(self.forcing_steps([t], [dt]))
        _, term, layout = prepared
        base = self.base(coeffs, dt, term)

        vx = coeffs @ self.E
        radius = float(np.max(np.abs(vx)))
        self._check_contraction(t, radius, dt)

        vy = vx
        distances = []
        for application in range(cfg.picard_max_iter + 1):
            y = self.step_map(base, layout, dt, vx, vy)
            v_new = y @ self.E
            d = float(np.max(np.abs(v_new - vy)))
            radius = max(radius, float(np.max(np.abs(v_new))))
            self._check_contraction(t, radius, dt)
            vy = v_new
            if application == 0:
                continue  # frozen application: seeds the iteration
            if collect_distances:
                distances.append(d)
            if d <= cfg.picard_tol:
                return y, application, distances
        raise PicardError(
            f"no convergence in {cfg.picard_max_iter} refinements at t = {t:g} "
            f"(last distance {d:.3g}, tol {cfg.picard_tol:g})"
        )

    def step_frozen(self, coeffs, t, dt=None):
        """Single application with the profile frozen at the incoming state."""
        dt = self.config.dt if dt is None else float(dt)
        _, term, layout = next(self.forcing_steps([t], [dt]))
        v = coeffs @ self.E
        return self.step_map(self.base(coeffs, dt, term), layout, dt, v, v)

    def _check_contraction(self, t, radius, dt):
        factor = self.g.lipschitz(radius) * dt  # M = 1 for this semigroup
        if factor >= 0.5:
            raise NonContractionError(t, radius, factor)


def step_exponential(x, t, dt, nonlinearity, forcing=None, config=None, iterate=None):
    """One application of the step map to ``x``, with the nonlinearity profile
    ending at ``iterate`` (default: ``x`` itself, the zeroth Picard iterate).

    At order one the profile is frozen at ``iterate``; with ``order2`` it runs
    linearly from ``x`` to ``iterate``.
    """
    config = config if config is not None else SolverConfig(dt=dt)
    stepper = Stepper(x.basis, nonlinearity, forcing, config)
    frozen = x if iterate is None else iterate
    _, term, layout = next(stepper.forcing_steps([t], [dt]))
    out = stepper.step_map(stepper.base(x.coeffs, dt, term), layout, dt,
                           x.values, frozen.values)
    return Field(x.basis, coeffs=out)


def step_picard(x, t, dt, nonlinearity, forcing=None, config=None,
                collect_distances=False):
    """Picard-refined step; returns (field, iterations[, distances])."""
    config = config if config is not None else SolverConfig(dt=dt)
    stepper = Stepper(x.basis, nonlinearity, forcing, config)
    coeffs, iterations, distances = stepper.step(x.coeffs, t, dt, collect_distances)
    out = Field(x.basis, coeffs=coeffs)
    if collect_distances:
        return out, iterations, distances
    return out, iterations


def solve(x0, config, nonlinearity, forcing=None, t0=0.0):
    """March the mild-solution stepper over [t0, t0 + horizon].

    Stops early with the blow-up flag set if the sup-norm trace exceeds the
    configured cap; that detector is a proxy for the maximal-solution
    alternative, not a statement about the continuum equation.
    """
    stepper = Stepper(x0.basis, nonlinearity, forcing, config)
    n_steps = int(round(config.horizon / config.dt))
    stamps = t0 + config.dt * np.arange(n_steps + 1)
    coeffs = np.empty((n_steps + 1, x0.basis.modes))
    sup_trace = np.empty(n_steps + 1)
    counts = np.zeros(n_steps, dtype=int)
    spiky = np.zeros(n_steps, dtype=bool)
    coeffs[0] = x0.coeffs
    sup_trace[0] = x0.sup_norm()
    blown_up = False
    blowup_time = None
    last = n_steps
    for j, prepared in enumerate(stepper.forcing_steps(stamps[:-1], config.dt)):
        spiky[j] = prepared[0]
        coeffs[j + 1], counts[j], _ = stepper.step(coeffs[j], stamps[j], prepared=prepared)
        sup_trace[j + 1] = float(np.max(np.abs(coeffs[j + 1] @ stepper.E)))
        if sup_trace[j + 1] > config.blowup_cap:
            blown_up = True
            blowup_time = float(stamps[j + 1])
            last = j + 1
            break
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

    Re-integrates the stored trajectory from stamp ``i_from`` to ``i_to``
    with the same per-step quadrature and iterate profile the solver used,
    and returns the sup-norm gap against the stored endpoint.  Requires
    0 <= i_from < i_to < len(traj).
    """
    if not 0 <= i_from < i_to < len(traj):
        raise ValueError(f"need 0 <= i_from < i_to < {len(traj)}, "
                         f"got i_from = {i_from}, i_to = {i_to}")
    config = config if config is not None else SolverConfig(dt=traj.dt)
    stepper = Stepper(traj.basis, nonlinearity, forcing, config)
    c = traj.coeffs[i_from]
    gaps = np.diff(traj.stamps[i_from:i_to + 1])
    steps = stepper.forcing_steps(traj.stamps[i_from:i_to], gaps)
    vx = c @ stepper.E
    for j, dt, (_, term, layout) in zip(range(i_from, i_to), gaps, steps):
        vy = traj.coeffs[j + 1] @ stepper.E
        c = stepper.step_map(stepper.base(c, dt, term), layout, dt, vx, vy)
        vx = vy
    gap = (c - traj.coeffs[i_to]) @ stepper.E
    return float(np.max(np.abs(gap)))


# ---------------------------------------------------------------------------
# Persistence
# ---------------------------------------------------------------------------

def save_trajectory(traj, outdir, snapshot_stride=None):
    """Write trace.csv, strided field snapshots, and an index manifest."""
    os.makedirs(outdir, exist_ok=True)
    snap_dir = os.path.join(outdir, "snapshots")
    os.makedirs(snap_dir, exist_ok=True)
    n = len(traj.stamps)
    if snapshot_stride is None:
        snapshot_stride = max(1, (n - 1) // 400)
    idx = list(range(0, n, snapshot_stride))
    if idx[-1] != n - 1:
        idx.append(n - 1)
    with open(os.path.join(outdir, "trace.csv"), "w", encoding="utf-8") as fh:
        fh.write("t,sup_norm\n")
        for t, s in zip(traj.stamps, traj.sup_trace):
            fh.write(f"{fmt15(t)},{fmt15(s)}\n")
    with open(os.path.join(outdir, "snapshots.csv"), "w", encoding="utf-8") as fh:
        fh.write("index,t,file\n")
        for i in idx:
            fname = f"snap_{i:08d}.csv"
            save_field_csv(traj.field(i), os.path.join(snap_dir, fname))
            fh.write(f"{i},{fmt15(traj.stamps[i])},snapshots/{fname}\n")
    with open(os.path.join(outdir, "trajectory.txt"), "w", encoding="utf-8") as fh:
        b = traj.basis
        fh.write(f"basis.L = {fmt15(b.length)}\n")
        fh.write(f"basis.K = {b.modes}\n")
        fh.write(f"basis.N = {b.grid}\n")
        fh.write(f"stamps = {n}\n")
        fh.write(f"dt = {fmt15(traj.dt)}\n")
        fh.write(f"snapshot_stride = {snapshot_stride}\n")
        fh.write(f"blown_up = {traj.blown_up}\n")
        if traj.blowup_time is not None:
            fh.write(f"blowup_time = {fmt15(traj.blowup_time)}\n")


def load_trajectory(outdir):
    """Rebuild a (snapshot-resolution) Trajectory from a saved directory."""
    meta = {}
    with open(os.path.join(outdir, "trajectory.txt"), "r", encoding="utf-8") as fh:
        for line in fh:
            if "=" in line:
                key, val = line.split("=", 1)
                meta[key.strip()] = val.strip()
    basis = SpectralBasis(length=float(meta["basis.L"]), modes=int(meta["basis.K"]),
                          grid=int(meta["basis.N"]))
    stamps = []
    fields = []
    with open(os.path.join(outdir, "snapshots.csv"), "r", encoding="utf-8") as fh:
        next(fh)
        for line in fh:
            _, t, fname = line.strip().split(",")
            stamps.append(float(t))
            fields.append(load_field_csv(os.path.join(outdir, fname), basis))
    coeffs = np.stack([f.coeffs for f in fields])
    sup = np.array([f.sup_norm() for f in fields])
    blowup_time = float(meta["blowup_time"]) if "blowup_time" in meta else None
    return Trajectory(basis, np.asarray(stamps), coeffs, sup,
                      blown_up=meta.get("blown_up") == "True",
                      blowup_time=blowup_time)


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
