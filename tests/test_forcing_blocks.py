"""The blocked forcing precompute and the step kernel against per-step oracles.

The forcing oracle integrates each step's forcing on its own, part by part:
look up the step's breakpoints, keep those strictly inside it, lay out its
quadrature (split at them, or the cached layout if there are none), and for
each rank-one part of the forcing sum its signals at the nodes, contract
them node by node against D * wts and scale by the part's coefficients.
The step-map oracle writes the nonlinear half of the step from the basis
alone, with the closed-form weights of the exact semigroup.  The
Picard-loop oracle writes the sweeps out with a contraction check, its
factor from the dense weight operator, and the stopping test on every one,
so ``Stepper.step``, its check on a growing radius only, its acceptance of
the frozen application and the sup it takes and hands back are each held
to it.  At order one it first tries the linear step, with no g, and its
a-priori acceptance test.
Forcing blocks, the shared base, the single synthesis per sweep and the
linear steps a ``Stepper.step`` call takes together change no arithmetic,
so those checks are exact equality, not a tolerance; so are unforced and
order-two marches, one row per call where they sweep.  A forced order-one
march solves up to PICARD_BLOCK steps per call as one Picard block, whose
batched products round differently from a step's: it is held to the
contract of tests/test_discrete_solution.py instead, within (picard_tol +
TIGHT) S of the per-step oracle march at TIGHT, and each block's rows are
held to the block's fixed point.  The comparison with the forcing formula
the per-part contraction replaced has a bound, derived from the operation
counts of both.
"""

from dataclasses import replace
import functools
import math
import tracemalloc

import numpy as np
import pytest

from aalab import config as cfgmod
from aalab import solver as sv
from aalab import spectral as sp
from aalab.quadrature import gauss_nodes, quadrature_nodes
from aalab.signals import SpikeTrainSpec, sine_signal

from test_discrete_solution import TIGHT, semigroup_sum


def inside_breakpoints(forcing, t, t_next):
    """The step's own breakpoint query, cut to the open step (t, t_next)."""
    bps = forcing.breakpoints(t, t_next)
    return bps[(bps > t) & (bps < t_next)]


def step_layout(stepper, t, t_next):
    """The step's own quadrature layout (rel, wts) and its open breakpoints."""
    cfg = stepper.config
    inside = inside_breakpoints(stepper.forcing, t, t_next)
    if inside.size == 0:
        x, w = gauss_nodes(cfg.forcing_nodes)
        return 0.5 * cfg.dt * (x + 1.0), 0.5 * cfg.dt * w, inside
    pts, wts = quadrature_nodes(t, t_next, inside, cfg.forcing_nodes)
    return pts - t, wts, inside


def oracle_forcing_step(stepper, t, t_next=None):
    """(spiky, term) of the step [t, t_next] of the stepper's dt, integrated
    on its own; t_next defaults to t + dt.  The term is the sum over the
    forcing's parts of coeffs times sum_i h(t + rel_i) (D * wts)[:, i], the
    node sum taken in node order, with h the sum of the part's signals and
    D = exp(-lam (dt - rel)); 0.0 for a forcing of no parts."""
    t_next = t + stepper.config.dt if t_next is None else t_next
    rel, wts, inside = step_layout(stepper, t, t_next)
    Dw = np.exp(-np.outer(stepper.lam, stepper.config.dt - rel)) * wts
    term = 0.0
    for signals, coeffs in stepper.forcing.parts:
        h = sum(sig.eval(t + rel) for sig in signals)
        term = term + sum(h[i] * Dw[:, i] for i in range(rel.size)) * coeffs
    return inside.size > 0, term


def oracle_weights(basis, dt):
    """w1 = int_0^dt e^{-lam (dt - s)} ds and w2 = the same with the factor
    s / dt, in closed form from the eigenvalues; w2 = dt phi2(-lam dt), its
    Taylor series (18 terms, Horner) below lam dt = 1 against cancellation."""
    lam = basis.eigenvalues
    z = lam * dt
    w1 = -np.expm1(-z) / lam
    series = np.zeros_like(z)
    for k in reversed(range(18)):
        series = series * -z + 1.0 / math.factorial(k + 2)
    with np.errstate(divide="ignore", invalid="ignore"):
        closed = (z + np.expm1(-z)) / (z * z)
    return w1, dt * np.where(z < 1.0, series, closed)


def oracle_step_map(basis, g, order2, base, dt, vx, vy):
    """``base`` (T(dt) x + forcing term) plus the nonlinear half of the step
    integral, written from the basis alone: g projected and cut to the
    lowest 2K/3 modes (dealiasing), frozen at ``vy`` or, with ``order2``,
    linear in time from g(vx) to g(vy), integrated exactly against the
    semigroup kernel."""
    k_active = max(1, (2 * basis.modes) // 3)
    w1, w2 = oracle_weights(basis, dt)
    Gy = basis.project(g.fn(vy))
    Gy[k_active:] = 0.0
    if order2:
        Gx = basis.project(g.fn(vx))
        Gx[k_active:] = 0.0
        return (base + (w1 - w2) * Gx) + w2 * Gy
    return base + w1 * Gy


@functools.lru_cache(maxsize=None)
def oracle_gain(basis, order2, dt):
    """The weight operator E^T diag(wy) P from grid values of g to the grid
    values of a step's nonlinear term, built densely from the basis and the
    oracle weights (dealiased), and its grid-sup norm: the largest row sum.
    Cached, as the dense product is the slow part of the oracle march."""
    k_active = max(1, (2 * basis.modes) // 3)
    w1, w2 = oracle_weights(basis, dt)
    wy = (w2 if order2 else w1).copy()
    wy[k_active:] = 0.0
    E = basis.eigenfunctions
    return float(np.max(np.abs(E.T @ np.diag(wy) @ basis._projection).sum(axis=1)))


def oracle_check_contraction(stepper, t, radius):
    cfg = stepper.config
    factor = stepper.g.lipschitz(radius) * oracle_gain(stepper.basis, cfg.order2, cfg.dt)
    if factor >= 0.5:
        raise sv.NonContractionError(t, radius, factor)
    return factor


def oracle_linear_step(stepper, coeffs, t, term, radius, q):
    """The order-one linear step written out: T(dt) x plus the forcing term,
    no g, every coefficient below the smallest normal float set to 0.  Tried
    when (q r + gain |g(0)|) / (1 - q) <= tol at the incoming radius r, and
    accepted when (q s0 + gain |g(0)| + K sqrt(2 / L) tiny) / (1 - q) <= tol,
    with s0 its sup and q the factor at the larger of r and s0.  Returns
    (coeffs, -1, [], values, sup), -1 applications of g, or None."""
    basis, tol, tiny = stepper.basis, stepper.config.picard_tol, np.finfo(float).tiny
    dt = stepper.config.dt
    gain = oracle_gain(basis, False, dt)
    g0 = float(np.max(np.abs(stepper.g.fn(np.zeros(basis.grid + 1)))))
    if not (q * radius + gain * g0) / (1.0 - q) <= tol:
        return None
    y = np.exp(-basis.eigenvalues * dt) * coeffs + term
    y = np.where(np.abs(y) < tiny, 0.0, y)
    values = y @ stepper.E
    sup = float(np.max(np.abs(values)))
    q = oracle_check_contraction(stepper, t, max(radius, sup))
    flush = basis.modes * math.sqrt(2.0 / basis.length) * tiny
    if (q * sup + gain * g0 + flush) / (1.0 - q) <= tol:
        return y, -1, [], values, sup
    return None


def oracle_step(stepper, coeffs, t, term):
    """The Picard loop written out on its own: at order one the linear step
    first, then each sweep applies the step map, synthesizes the iterate,
    measures its distance d to the last one (x(t) for the frozen
    application) and checks the contraction margin at the running radius,
    every sweep; the first iterate that passes the stopping test is
    accepted, the frozen one too.  The test is q / (1 - q) d <= tol at order
    one, with q the factor at the running radius, and d <= tol at order two.
    Returns (coeffs, iterations, distances, values, sup) of the step,
    refinement distances always collected."""
    cfg, E = stepper.config, stepper.E
    vx = coeffs @ E
    radius = float(np.max(np.abs(vx)))
    q = oracle_check_contraction(stepper, t, radius)
    linear = None if cfg.order2 else oracle_linear_step(stepper, coeffs, t, term, radius, q)
    if linear is not None:
        return linear
    gy = stepper.nonlinear(vx)
    base = stepper.base(coeffs, term, gy)
    previous, distances = vx, []
    for application in range(cfg.picard_max_iter + 1):
        y = stepper.step_map(base, gy)
        values = y @ E
        d = float(np.max(np.abs(values - previous)))
        sup = float(np.max(np.abs(values)))
        radius = max(radius, sup)
        q = oracle_check_contraction(stepper, t, radius)
        previous = values
        if application > 0:
            distances.append(d)
        bound = d if cfg.order2 else q / (1.0 - q) * d
        if bound <= cfg.picard_tol:
            return y, application, distances, values, sup
        gy = stepper.nonlinear(values)
    raise sv.PicardError(
        f"no convergence in {cfg.picard_max_iter} refinements at t = {t:g} "
        f"(last distance {d:.3g}, tol {cfg.picard_tol:g})")


def oracle_solve(x0, config, nonlinearity, forcing, t0=0.0):
    """The march of ``solve`` with every forcing term and every step from
    the oracles."""
    stepper = sv.Stepper(x0.basis, nonlinearity, forcing, config)
    n_steps = int(round(config.horizon / config.dt))
    stamps = t0 + config.dt * np.arange(n_steps + 1)
    coeffs, counts, spiky = [x0.coeffs], [], []
    sup = [float(np.max(np.abs(x0.coeffs @ stepper.E)))]
    for j in range(n_steps):
        prepared = oracle_forcing_step(stepper, stamps[j], stamps[j + 1])
        c, k, _, _, _ = oracle_step(stepper, coeffs[-1], stamps[j], prepared[1])
        coeffs.append(c)
        sup.append(float(np.max(np.abs(c @ stepper.E))))
        counts.append(k)
        spiky.append(prepared[0])
        if sup[-1] > config.blowup_cap:
            break
    return np.array(coeffs), np.array(sup), np.array(counts, dtype=int), np.array(spiky)


def assert_same_march(traj, oracle):
    coeffs, sup, counts, spiky = oracle
    assert np.array_equal(traj.coeffs, coeffs)
    assert np.array_equal(traj.sup_trace, sup)
    assert np.array_equal(traj.picard_counts, counts)
    assert np.array_equal(traj.spiky, spiky)


def contract_bound(basis, cfg, steps):
    """(picard_tol + TIGHT) S over ``steps`` steps: how far a march whose
    steps each end within picard_tol of their fixed point may lie from the
    discrete solution, given to rounding by a march at TIGHT
    (tests/test_discrete_solution.py)."""
    return (cfg.picard_tol + TIGHT) * semigroup_sum(basis.length, basis.modes, basis.grid,
                                                    cfg.dt, steps)


def assert_within_contract(traj, x0, cfg, nonlinearity, forcing, t0=0.0):
    """An order-one march, whose steps are solved in blocks, against the
    per-step march of the oracles at picard_tol = TIGHT: the same stamps,
    blow-up stamp and spiky mask, and every state and sup within the
    contract bound in the grid sup norm."""
    tight = replace(cfg, picard_tol=TIGHT, picard_max_iter=sv.SolverConfig.picard_max_iter)
    coeffs, sup, _, spiky = oracle_solve(x0, tight, nonlinearity, forcing, t0=t0)
    assert len(traj.coeffs) == len(coeffs)
    assert np.array_equal(traj.spiky, spiky)
    bound = contract_bound(traj.basis, cfg, len(coeffs) - 1)
    assert np.max(np.abs((traj.coeffs - coeffs) @ traj.basis.eigenfunctions)) <= bound
    assert np.max(np.abs(traj.sup_trace - sup)) <= bound


@pytest.fixture(scope="module")
def forcings(ref_basis):
    h0 = sp.field_from_function(ref_basis, lambda x: np.sin(np.pi * x))
    out = {mode: sv.ForcingSpec.reference(ref_basis, h0, SpikeTrainSpec(n_max=4),
                                          boundary_mode=mode)
           for mode in ("profiled", "literal")}
    out["sine"] = sv.ForcingSpec.modulated(ref_basis, sine_signal(), h0)
    return out


# Each window holds a spike centre of the given top level (levels 1..4 share
# the centre 81) and the right edge of its level-1 bump.  At dt = 1e-3 the
# level-1 and level-2 edges and centres fall on stamps, so only the windows
# at 27 and 81 (level-3 edges 27 +- 1/18) hold subdivided steps.  The sine
# forcing's zero crossings, every 0.5, fall inside steps of dt = 7e-4, so
# the function-signal breakpoints are covered too.  650 and 929 steps: not
# block multiples.
@pytest.mark.parametrize("center", [3.0, 9.0, 27.0, 81.0])
@pytest.mark.parametrize("mode", ["profiled", "literal", "sine"])
@pytest.mark.parametrize("order2", [False, True])
def test_march_bit_identical_to_per_step_forcing(ref_basis, forcings, center, mode, order2):
    dt = 7e-4 if mode == "sine" else 1e-3
    cfg = sv.SolverConfig(dt=dt, horizon=0.65, order2=order2)
    assert round(cfg.horizon / dt) % sv.FORCING_BLOCK != 0
    x0 = sv.reference_initial_field(ref_basis, "mode1", 0.5)
    cubic = sv.make_nonlinearity("cubic")
    t0 = center - 0.1
    traj = sv.solve(x0, cfg, cubic, forcings[mode], t0=t0)
    subdivided = mode == "sine" or center in (27.0, 81.0)
    assert (traj.spiky_steps > 0) == subdivided
    assert traj.spiky_steps < len(traj.picard_counts)
    if order2:
        assert_same_march(traj, oracle_solve(x0, cfg, cubic, forcings[mode], t0=t0))
    else:  # blocks
        assert_within_contract(traj, x0, cfg, cubic, forcings[mode], t0=t0)


def test_blowup_mid_block_bit_identical(ref_basis, forcings):
    """The level-1 spike at 3 lifts the sup trace over the cap inside a
    forcing block and inside a Picard block: the march stops at the first
    row above it, the stamp of the per-step march at its own tolerance and
    at TIGHT, and is within the contract bound of the latter."""
    cfg = sv.SolverConfig(dt=1e-3, horizon=1.0, blowup_cap=0.1)
    x0 = sv.reference_initial_field(ref_basis, "zero")
    cubic = sv.make_nonlinearity("cubic")
    traj = sv.solve(x0, cfg, cubic, forcings["profiled"], t0=2.3)
    assert traj.blown_up
    assert len(traj.picard_counts) % sv.FORCING_BLOCK != 0
    assert len(traj.picard_counts) % sv.PICARD_BLOCK != 0
    assert traj.spiky_steps == 0  # the level-1 edges and centre fall on stamps
    assert len(oracle_solve(x0, cfg, cubic, forcings["profiled"], t0=2.3)[0]) == len(traj)
    assert_within_contract(traj, x0, cfg, cubic, forcings["profiled"], t0=2.3)


def test_unforced_march_bit_identical(ref_basis):
    cfg = sv.SolverConfig(dt=1e-3, horizon=0.3)
    x0 = sv.reference_initial_field(ref_basis, "mode2", 0.4)
    cubic = sv.make_nonlinearity("cubic")
    traj = sv.solve(x0, cfg, cubic, sv.ForcingSpec(ref_basis))
    assert traj.spiky_steps == 0
    assert_same_march(traj, oracle_solve(x0, cfg, cubic, sv.ForcingSpec(ref_basis)))


@pytest.mark.parametrize("profile, amplitude", [("mode1", 1e-9), ("mode3", 0.8)])
@pytest.mark.parametrize("order2", [False, True])
def test_decaying_march_accepts_frozen_steps_bit_identical(ref_basis, profile, amplitude, order2):
    """Unforced marches whose steps take no refinement once the state has
    decayed: from amplitude 1e-9 every step, from 0.8 * mode 3 the later
    ones.  At order one such steps are linear (-1), at order two frozen (0)."""
    cfg = sv.SolverConfig(dt=1e-3, horizon=1.0, order2=order2)
    x0 = sv.reference_initial_field(ref_basis, profile, amplitude)
    cubic = sv.make_nonlinearity("cubic")
    traj = sv.solve(x0, cfg, cubic)
    no_refinement = traj.picard_counts == (0 if order2 else -1)
    assert np.any(no_refinement)
    assert np.all(no_refinement) == (amplitude < 1e-6)
    assert_same_march(traj, oracle_solve(x0, cfg, cubic, sv.ForcingSpec(ref_basis)))


def fixed_point_values(stepper, base, values, sweeps=30):
    """Grid values of the fixed point of the step map with ``base``, reached
    by applying the map from ``values`` until it stops moving them (or for
    ``sweeps`` applications, far past rounding at these factors)."""
    for _ in range(sweeps):
        nxt = stepper.step_map(base, stepper.nonlinear(values)) @ stepper.E
        if np.array_equal(nxt, values):
            break
        values = nxt
    return values


def planted_subnormals(basis):
    """A decayed state, 1e-150 of mode 1, with subnormal coefficients on
    modes 2 to 7: there a step's decay rounds them back to themselves."""
    c = sv.reference_initial_field(basis, "mode1", 1e-150).coeffs.copy()
    c[1:7] = 5e-324 * np.array([3.0, -5.0, 1.0, 2.0, -1.0, 4.0])
    return c


def record_steps(monkeypatch):
    """The (start t, rows taken) of every ``Stepper.step`` call that returns
    from here on, in order."""
    calls = []
    step = sv.Stepper.step

    def recorded(self, coeffs, t, *args, **kwargs):
        out = step(self, coeffs, t, *args, **kwargs)
        calls.append((t, len(out[0])))
        return out

    monkeypatch.setattr(sv.Stepper, "step", recorded)
    return calls


@pytest.mark.parametrize("order2, start, steps", [(False, "mode1", 300), (True, "mode2", 200)])
def test_one_step_call_per_swept_step(ref_basis, monkeypatch, order2, start, steps):
    """Unforced marches at order one and order two sweep one row per
    ``Stepper.step`` call, so they make one call per step that is not
    linear.  From the companion's data, 0.5 * mode 1 at order one (no step
    before t = 0.512 is linear) and 0.3 * mode 2 at order two, T = 0.3 and
    0.2 make the 300 + 200 calls the benchmark traces."""
    cfg = sv.SolverConfig(dt=1e-3, horizon=steps * 1e-3, order2=order2)
    x0 = sv.reference_initial_field(ref_basis, start, 0.5 if start == "mode1" else 0.3)
    calls = record_steps(monkeypatch)
    traj = sv.solve(x0, cfg, sv.make_nonlinearity("cubic"))
    monkeypatch.undo()
    assert len(traj.picard_counts) == steps and np.all(traj.picard_counts >= 0)
    assert calls == [(t, 1) for t in traj.stamps[:-1]]


def test_forced_step_calls_stay_in_a_forcing_block(ref_basis, forcings, monkeypatch):
    """A forced order-one march: each ``Stepper.step`` call takes at most
    PICARD_BLOCK rows, all in one forcing block, and the calls tile the
    march.  From 3.5 * mode 1 the first block halves to 8 rows, so the blocks
    of 16 after it start 8 rows off the forcing blocks' grid, and the call
    at step 120 takes the 8 rows left in its forcing block."""
    cfg = sv.SolverConfig(dt=1e-3, horizon=0.3)
    x0 = sv.reference_initial_field(ref_basis, "mode1", 3.5)
    calls = record_steps(monkeypatch)
    traj = sv.solve(x0, cfg, sv.make_nonlinearity("cubic"), forcings["profiled"])
    monkeypatch.undo()
    rows = [n for _, n in calls]
    firsts = np.cumsum([0] + rows)
    assert firsts[-1] == len(traj.picard_counts) == 300
    assert [t for t, _ in calls] == list(traj.stamps[firsts[:-1]])
    assert max(rows) == sv.PICARD_BLOCK
    for j, n in zip(firsts, rows):
        assert j // sv.FORCING_BLOCK == (j + n - 1) // sv.FORCING_BLOCK
    assert (sv.FORCING_BLOCK - 8, 8) in zip(firsts, rows)


@pytest.mark.parametrize("start, g, horizon", [("mode1", "cubic", 1.3), ("subnormal", "cubic", 0.4),
                                              ("mode1", "zero", 0.4)])
def test_linear_runs_bit_identical(ref_basis, monkeypatch, start, g, horizon):
    """Unforced order-one marches whose linear steps are taken as runs, one
    ``Stepper.step`` call from the first linear step to the end of its
    forcing block and one per forcing block after it: from 0.5 * mode 1
    (the companion's data) the 788 steps from t = 0.512 on, a block start:
    6 full blocks + 20; from the decayed state with subnormal coefficients,
    and with g = 0, where q = 0, all 400 steps, 3 full blocks + 16.  In
    each, decaying high modes pass through the subnormal range inside the
    runs, where the run's one flush must set the zeros of a flush per step.
    Only the steps before the first linear one are taken alone."""
    cfg = sv.SolverConfig(dt=1e-3, horizon=horizon)
    x0 = (sp.Field(ref_basis, coeffs=planted_subnormals(ref_basis)) if start == "subnormal"
          else sv.reference_initial_field(ref_basis, start, 0.5))
    nonlinearity = sv.make_nonlinearity(g)
    calls = record_steps(monkeypatch)
    traj = sv.solve(x0, cfg, nonlinearity)
    monkeypatch.undo()
    linear = np.flatnonzero(traj.picard_counts == -1)
    n = len(traj.picard_counts)
    assert linear.size > 3 * sv.FORCING_BLOCK and n % sv.FORCING_BLOCK != 0
    assert np.all(traj.picard_counts[linear[0]:] == -1)
    starts = [j for j in range(n) if j <= linear[0] or j % sv.FORCING_BLOCK == 0]
    assert [t for t, _ in calls] == list(traj.stamps[starts])
    unflushed = np.exp(-ref_basis.eigenvalues * cfg.dt) * traj.coeffs[linear[0] + 1:-1]
    assert np.any((unflushed != 0.0) & (np.abs(unflushed) < np.finfo(float).tiny))
    assert_same_march(traj, oracle_solve(x0, cfg, nonlinearity, sv.ForcingSpec(ref_basis)))


#: Coefficients on 16 modes (64 intervals) whose grid sup rises over steps 1
#: to 5 of dt = 3e-6 under the semigroup alone, by about 1e-5 of itself a
#: step: the continuum sup falls, but the grid catches more of it.
RISING = [0.43, -0.51, -0.49, -0.26, -1.0, -0.34, -0.89, -0.72,
          0.01, 0.79, -0.43, -0.15, 0.26, -0.03, 0.34, -0.73]


@pytest.mark.parametrize("cut", ["cap", "post-check", "q-recompute"])
def test_run_cut_at_a_rising_sup(monkeypatch, cut):
    """A run of linear steps that reaches state 4, whose grid sup s4 rises
    above s3 and every sup after the initial one; the run must end before
    the step from stamp 3 to 4, or the march there:
    - ``cap``: g = 0 and the blow-up cap between s3 and s4.  Every step is
      linear, so one ``Stepper.step`` call takes all 40 rows, and ``solve``
      writes them up to state 4, the first above the cap, and stops.
    - ``post-check``: cubic g at 0.005 times the field, and ``picard_tol``
      between the bound at the incoming radius s3 and the bound at s4 with
      the factor q(s3), so s4 fails only the check at its own sup.
    - ``q-recompute``: ``picard_tol`` between that bound and the one with
      q(s4), so s4 fails only because its sup raises the radius.
    In the last two, step 0 from the larger s0 takes a sweep, the call at
    step 1 takes the linear states 2 and 3, and step 3 takes a sweep."""
    basis = sp.SpectralBasis(length=1.0, modes=16, grid=64)
    dt = 3e-6
    amplitude = 1.0 if cut == "cap" else 0.005
    x0 = sp.Field(basis, coeffs=amplitude * np.array(RISING))
    decay = np.exp(-basis.eigenvalues * dt)
    s = [float(np.max(np.abs((x0.coeffs * decay ** j) @ basis.eigenfunctions)))
         for j in range(6)]
    assert s[1] < s[2] < s[3] < s[4] < s[0]
    if cut == "cap":
        g = sv.make_nonlinearity("zero")
        cfg = sv.SolverConfig(dt=dt, horizon=40 * dt, blowup_cap=0.5 * (s[3] + s[4]))
    else:
        g = sv.make_nonlinearity("cubic")
        gain = oracle_gain(basis, False, dt)
        q3, q4 = g.lipschitz(s[3]) * gain, g.lipschitz(s[4]) * gain
        pre, post_q3, post_q4 = q3 * s[3] / (1 - q3), q3 * s[4] / (1 - q3), q4 * s[4] / (1 - q4)
        assert pre < post_q3 < post_q4
        lo, hi = (pre, post_q3) if cut == "post-check" else (post_q3, post_q4)
        cfg = sv.SolverConfig(dt=dt, horizon=40 * dt, picard_tol=math.sqrt(lo * hi))
    calls = record_steps(monkeypatch)
    traj = sv.solve(x0, cfg, g)
    monkeypatch.undo()
    assert calls[:3] == ([(0.0, 40)] if cut == "cap" else [(0.0, 1), (dt, 2), (3 * dt, 1)])
    if cut == "cap":
        assert traj.blown_up and len(traj.picard_counts) == 4
    else:
        assert traj.picard_counts[3] == 0 and np.all(traj.picard_counts[1:3] == -1)
    assert_same_march(traj, oracle_solve(x0, cfg, g, sv.ForcingSpec(basis)))


def test_run_keeps_the_pre_check_for_any_estimator(ref_basis, monkeypatch):
    """g = 0, for which any Lipschitz estimate is valid, with one that is 0
    down to a radius a and L beyond it: the first row whose incoming radius
    s_k is below a fails the check there, q s_k / (1 - q) > tol, though its
    own sup s_{k+1} passes the check after it, (q s_{k+1} + flush) / (1 - q)
    <= tol.  With a nondecreasing estimate the last row's check implies the
    next one's at its incoming radius; with this one it does not, and the
    run must end before that row, which the next ``Stepper.step`` call
    sweeps."""
    cfg = sv.SolverConfig(dt=1e-3, horizon=0.3)
    x0 = sv.reference_initial_field(ref_basis, "mode1", 0.5)
    zero = sv.make_nonlinearity("zero")
    _, s, counts, _ = oracle_solve(x0, cfg, zero, sv.ForcingSpec(ref_basis))
    assert np.all(counts == -1)
    k = 200
    a = 0.5 * (s[k - 1] + s[k])
    # q / (1 - q) = tol / alpha with alpha between s_{k+1} and s_k
    q = cfg.picard_tol / (0.5 * (s[k] + s[k + 1]) + cfg.picard_tol)
    L = q / oracle_gain(ref_basis, False, cfg.dt)
    g = sv.NonlinearitySpec("zero", zero.fn, lambda R: L * (np.asarray(R) < a))
    calls = record_steps(monkeypatch)
    traj = sv.solve(x0, cfg, g)
    monkeypatch.undo()
    assert (k * cfg.dt, 1) in calls
    assert traj.picard_counts[k] == 0 and np.all(np.delete(traj.picard_counts, k) == -1)
    assert_same_march(traj, oracle_solve(x0, cfg, g, sv.ForcingSpec(ref_basis)))


@pytest.mark.parametrize("order2, start, horizon", [
    pytest.param(False, "mode2", 0.6, id="False"), pytest.param(True, "mode2", 0.6, id="True"),
    pytest.param(False, "subnormal", 0.05, id="False-subnormal")])
def test_accepted_step_is_within_picard_tol_of_its_fixed_point(ref_basis, order2, start,
                                                                horizon):
    """The contract of ``picard_tol``: every accepted iterate's grid values
    lie within the tolerance of the step map's fixed point.  Checked on
    every step of unforced marches, with the fixed point iterated out from
    the accepted iterate: from 0.4 * mode 2 the steps take 2 refinements
    down to none, and at order one the decayed ones are linear (-1); from a
    state with subnormal coefficients every step is linear and flushes them."""
    cfg = sv.SolverConfig(dt=1e-3, horizon=horizon, order2=order2)
    cubic = sv.make_nonlinearity("cubic")
    stepper = sv.Stepper(ref_basis, cubic, None, cfg)
    E = ref_basis.eigenfunctions
    c = (planted_subnormals(ref_basis) if start == "subnormal"
         else sv.reference_initial_field(ref_basis, start, 0.4).coeffs)
    counts = []
    for j in range(int(round(cfg.horizon / cfg.dt))):
        [y], iterations, [vy], _ = stepper.step(c, j * cfg.dt)
        base = stepper.base(c, 0.0, stepper.nonlinear(c @ E))
        fixed = fixed_point_values(stepper, base, vy)
        assert float(np.max(np.abs(fixed - vy))) <= cfg.picard_tol
        counts.append(iterations)
        c = y
    if start == "subnormal":
        assert set(counts) == {-1}
        assert not np.any((c != 0.0) & (np.abs(c) < np.finfo(float).tiny))
    else:
        assert 0 in counts and max(counts) > 0
        assert (-1 in counts) != order2


def block_fixed_point_values(stepper, coeffs, terms):
    """Grid values of the fixed point of a block from ``coeffs``: the
    implicit step equations y_{m+1} = T(dt) y_m + f_m + wy P g(E^T y_{m+1})
    solved row after row, each step map applied until it stops moving the
    grid values (or 30 times)."""
    E, rows = stepper.E, []
    y, values = coeffs, coeffs @ E
    for term in terms:
        base = stepper.base(y, term, None)
        for _ in range(30):
            y = stepper.step_map(base, stepper.nonlinear(values))
            nxt = y @ E
            if np.array_equal(nxt, values):
                break
            values = nxt
        rows.append(values)
    return np.array(rows)


@pytest.mark.parametrize("forced, t0, start", [(True, 2.9, "mode1"), (True, 26.9, "mode3"),
                                               (False, 0.0, "mode2")])
def test_accepted_block_rows_are_within_picard_tol_of_the_fixed_point(ref_basis, forcings,
                                                                     forced, t0, start):
    """The contract of ``picard_tol`` for a block: every row of every
    accepted block lies within the tolerance of the block's fixed point in
    the grid sup norm.  Checked on the blocks of marches over the spike at
    3, over the spiky step at 26.944 (mode 3 data, 0.8) and, with a forcing
    whose profile is 0 and whose terms are therefore 0, from 0.4 * mode 2,
    one forcing block each.  Each ``Stepper.step`` call is handed the rest
    of the forcing block's terms from ``forcing_blocks`` and takes one
    Picard block, and the fixed point is solved out row by row."""
    cfg = sv.SolverConfig(dt=1e-3)
    none = sv.ForcingSpec.modulated(ref_basis, sine_signal(),
                                    sp.Field(ref_basis, coeffs=np.zeros(ref_basis.modes)))
    stepper = sv.Stepper(ref_basis, sv.make_nonlinearity("cubic"),
                         forcings["profiled"] if forced else none, cfg)
    c = sv.reference_initial_field(ref_basis, start, 0.8 if start == "mode3" else 0.4).coeffs
    values = c @ stepper.E
    sup = float(np.max(np.abs(values)))
    stamps = t0 + cfg.dt * np.arange(sv.FORCING_BLOCK + 1)
    [(spiky, terms)] = stepper.forcing_blocks(stamps[:-1], stamps[1:])
    assert spiky.any() == (t0 > 20.0)
    refinements = []
    assert forced or not np.any(terms)
    for i in range(0, sv.FORCING_BLOCK, sv.PICARD_BLOCK):
        Y, k, V, S = stepper.step(c, stamps[i], terms[i:], values, sup)
        assert len(Y) == sv.PICARD_BLOCK and k >= 1
        fixed = block_fixed_point_values(stepper, c, terms[i:i + sv.PICARD_BLOCK])
        assert float(np.max(np.abs(fixed - V))) <= cfg.picard_tol
        assert np.array_equal(S, np.max(np.abs(V), axis=1))
        c, values, sup = Y[-1], V[-1], S[-1]
        refinements.append(k)
    assert max(refinements) > 1


@pytest.mark.parametrize("amplitude, linear", [(1e-9, True), (0.4, False)])
def test_block_start_takes_an_accepted_linear_step_alone(ref_basis, forcings, amplitude,
                                                         linear):
    """``Stepper.step`` makes the linear-step decision once per call: from
    1e-9 * mode 1 under the reference forcing the linear step passes both of
    its checks and is the call's one row (-1 refinements), the floats of the
    per-step oracle; from 0.4 it is not tried, and the call solves a block
    of PICARD_BLOCK rows."""
    cfg = sv.SolverConfig(dt=1e-3)
    stepper = sv.Stepper(ref_basis, sv.make_nonlinearity("cubic"), forcings["profiled"], cfg)
    c = sv.reference_initial_field(ref_basis, "mode1", amplitude).coeffs
    values = c @ stepper.E
    sup = float(np.max(np.abs(values)))
    stamps = 2.9 + cfg.dt * np.arange(sv.PICARD_BLOCK + 1)
    [(_, terms)] = stepper.forcing_blocks(stamps[:-1], stamps[1:])
    Y, k, V, S = stepper.step(c, stamps[0], terms, values, sup)
    y, iterations, _, v, s = oracle_step(stepper, c, stamps[0], terms[0])
    assert (k == iterations == -1) == linear
    if linear:
        assert len(Y) == 1
        assert np.array_equal(Y[0], y) and np.array_equal(V[0], v) and S[0] == s
    else:
        assert len(Y) == sv.PICARD_BLOCK and k >= 0


@pytest.mark.parametrize("amplitude, rows", [(3.0, 16), (4.0, 8), (4.5, 8)])
def test_block_halves_where_the_margin_fails(ref_basis, forcings, monkeypatch, amplitude,
                                             rows):
    """Cubic damping from amplitude r * mode 1, where q_b = 3 r^2 gain_b:
    at r = 3 q_16 = 0.43 and the block keeps its 16 rows; at r = 4 and 4.5
    q_16 = 0.77 and 0.97 fail the margin while q_8 = 0.39 and 0.49 meet it,
    so the block halves once and takes 8 rows, each within ``picard_tol``
    of the fixed point, on zero forcing terms.  The forced march from there (the reference forcing
    from t = 0) halves the same way, then takes full blocks as the state
    decays, and stays within the contract bound of the per-step one."""
    cfg = sv.SolverConfig(dt=1e-3, horizon=0.2)
    cubic = sv.make_nonlinearity("cubic")
    stepper = sv.Stepper(ref_basis, cubic, forcings["profiled"], cfg)
    x0 = sv.reference_initial_field(ref_basis, "mode1", amplitude)
    values = x0.coeffs @ stepper.E
    sup = float(np.max(np.abs(values)))
    factors = {b: cubic.lipschitz(sup) * gain for b, gain in stepper.block_gains.items()}
    assert (factors[16] >= 0.5) == (rows < 16) and factors[8] < 0.5
    terms = np.zeros((sv.PICARD_BLOCK, ref_basis.modes))
    Y, _, V, _ = stepper.step(x0.coeffs, 0.0, terms, values, sup)
    assert len(Y) == rows
    fixed = block_fixed_point_values(stepper, x0.coeffs, terms[:rows])
    assert float(np.max(np.abs(fixed - V))) <= cfg.picard_tol
    blocks = record_steps(monkeypatch)
    traj = sv.solve(x0, cfg, cubic, forcings["profiled"])
    monkeypatch.undo()
    assert blocks[0] == (0.0, rows) and sv.PICARD_BLOCK in {n for _, n in blocks[1:]}
    assert_within_contract(traj, x0, cfg, cubic, forcings["profiled"])


def test_block_halves_where_the_picard_budget_runs_out(monkeypatch):
    """The reference scenario at T = 1 with a budget of 2 refinements: the
    per-step march needs at most 2, but some blocks of 16 need 3 or 4, so
    they halve; the march stays within the contract bound."""
    scenario = cfgmod.load_scenario(cfgmod.builtin_config_path("reference"))
    basis = scenario.basis()
    cfg = replace(scenario.solver_config(), horizon=1.0, picard_max_iter=2)
    args = (scenario.initial_field(basis), cfg, scenario.nonlinearity(),
            scenario.forcing(basis))
    blocks = record_steps(monkeypatch)
    traj = sv.solve(*args)
    monkeypatch.undo()
    assert max(traj.picard_counts) == 2
    assert any(rows < sv.PICARD_BLOCK for _, rows in blocks)
    assert_within_contract(traj, *args)


@pytest.mark.parametrize("amplitude, budget, error", [(4.0, 25, sv.NonContractionError),
                                                      (4.0, 6, sv.PicardError),
                                                      (8.0, 25, sv.NonContractionError)])
def test_block_march_raises_where_the_per_step_march_raises(ref_basis, forcings, monkeypatch,
                                                          amplitude, budget, error):
    """The growth cubic from amplitude r * mode 1 under the reference
    forcing from t = 0, cap out of reach: the march halves its blocks as
    the state grows, down to single steps, and raises where the per-step
    march raises, at the same t.  From r = 4 the margin fails at t = 0.063;
    with a budget of 6 refinements the Picard iteration gives out first,
    at t = 0.023 (the same message); from 8 the margin fails at t = 0.004.
    Radius and factor agree to the contract bound's order (the states
    differ by at most that)."""
    cfg = sv.SolverConfig(dt=1e-3, horizon=1.0, blowup_cap=1e9, picard_max_iter=budget)
    g = sv.make_nonlinearity("cubic-unstable")
    x0 = sv.reference_initial_field(ref_basis, "mode1", amplitude)
    with pytest.raises(error) as expected:
        oracle_solve(x0, cfg, g, forcings["profiled"])
    blocks = record_steps(monkeypatch)
    with pytest.raises(error) as got:
        sv.solve(x0, cfg, g, forcings["profiled"])
    monkeypatch.undo()
    assert 1 in {rows for _, rows in blocks}
    if error is sv.PicardError:
        assert str(got.value) == str(expected.value)
        return
    assert got.value.t == expected.value.t
    assert got.value.radius == pytest.approx(expected.value.radius, rel=1e-7)
    assert got.value.factor == pytest.approx(expected.value.factor, rel=1e-7)


def test_forced_blowup_stops_at_the_per_step_stamp(monkeypatch):
    """The bundled ``blowup`` scenario (growth cubic from 5 * mode 1, 16
    modes, dt = 1e-4, cap 10) under the reference forcing, as CI runs it:
    its blocks halve to 8 as the margin tightens, and the sup crosses the
    cap at stamp 243, inside a block.  The march stops there, as the
    per-step march does, within the contract bound of it."""
    env = {"AALAB_FORCING__TEMPORAL": "reference", "AALAB_FORCING__PROFILE": "mode1"}
    scenario = cfgmod.load_scenario(cfgmod.builtin_config_path("blowup"), environ=env)
    basis = scenario.basis()
    cfg = scenario.solver_config()
    args = (scenario.initial_field(basis), cfg, scenario.nonlinearity(),
            scenario.forcing(basis))
    blocks = record_steps(monkeypatch)
    traj = sv.solve(*args)
    monkeypatch.undo()
    assert traj.blown_up and len(traj) == 244
    assert {rows for _, rows in blocks} == {sv.PICARD_BLOCK, sv.PICARD_BLOCK // 2}
    t_last, rows = blocks[-1]
    assert traj.stamps[-1] < t_last + rows * cfg.dt - 0.5 * cfg.dt  # rows past the cap were cut
    assert len(oracle_solve(*args)[0]) == 244
    assert_within_contract(traj, *args)


@pytest.mark.parametrize("order2", [False, True])
@pytest.mark.parametrize("dt", [1e-3, 4e-4])
def test_gain_matches_dense_row_sums(ref_basis, order2, dt):
    """``Stepper.gain`` against the largest row sum of the dense operator
    E^T diag(wy) P, one stepper per dt; the grid operator's factor is not the
    continuum's dt: about 1.04 dt and 1.13 dt at order one, 0.54 dt and
    0.62 dt at order two on 64 modes."""
    stepper = sv.Stepper(ref_basis, sv.make_nonlinearity("cubic"), None,
                         sv.SolverConfig(dt=dt, order2=order2))
    gain = stepper.gain
    assert gain == oracle_gain(ref_basis, order2, dt)
    expected = {(False, 1e-3): 1.04, (False, 4e-4): 1.13,
                (True, 1e-3): 0.54, (True, 4e-4): 0.62}[order2, dt]
    assert gain / dt == pytest.approx(expected, abs=0.01)


@pytest.mark.parametrize("dt", [1e-3, 4e-4])
def test_block_gains_match_dense_row_sums(ref_basis, dt):
    """``Stepper.block_gains`` against the largest row sum of sum_{m < b}
    |E^T diag(exp(-lam m dt) wy) P|, built densely from the basis and the
    oracle weights (dealiased), on every rung of the halving ladder; rung 1
    is ``gain`` itself.  A block of b steps reads about b dt: 16.01 dt and
    8.04 dt at dt = 1e-3, 16.13 dt and 8.13 dt at 4e-4, where one step's
    reads 1.04 dt and 1.13 dt."""
    stepper = sv.Stepper(ref_basis, sv.make_nonlinearity("cubic"), None, sv.SolverConfig(dt=dt))
    wy = oracle_weights(ref_basis, dt)[0]
    wy[max(1, (2 * ref_basis.modes) // 3):] = 0.0
    E, P, lam = ref_basis.eigenfunctions, ref_basis._projection, ref_basis.eigenvalues
    rungs = [sv.PICARD_BLOCK >> i for i in range(sv.PICARD_BLOCK.bit_length())]
    assert set(stepper.block_gains) == set(rungs) and rungs[-1] == 1
    total, expected = 0.0, {}
    for m in range(sv.PICARD_BLOCK):
        total = total + np.abs(E.T @ np.diag(np.exp(-lam * m * dt) * wy) @ P)
        if m + 1 in rungs:
            expected[m + 1] = float(np.max(total.sum(axis=1)))
    assert stepper.block_gains[1] == stepper.gain == oracle_gain(ref_basis, False, dt)
    for b in rungs:
        assert stepper.block_gains[b] == pytest.approx(expected[b], rel=1e-12)
    expected_16 = {1e-3: 16.01, 4e-4: 16.13}[dt]
    assert stepper.block_gains[16] / dt == pytest.approx(expected_16, abs=0.01)


@pytest.mark.parametrize("order2", [False, True])
def test_mild_residual_bit_identical(ref_basis, forcings, order2):
    """The residual over stamps whose gaps differ from dt in the last bit,
    integrated as ``solve`` integrates them: steps of dt, each ending at the
    successor stamp."""
    forcing = forcings["literal"]
    cfg = sv.SolverConfig(dt=1e-3, horizon=0.3, order2=order2)
    cubic = sv.make_nonlinearity("cubic")
    traj = sv.solve(sv.reference_initial_field(ref_basis, "mode1", 0.5), cfg, cubic,
                    forcing, t0=3.35)
    gaps = np.diff(traj.stamps)
    assert np.any(gaps != cfg.dt)
    stepper = sv.Stepper(ref_basis, cubic, forcing, cfg)
    E = ref_basis.eigenfunctions
    c = traj.coeffs[0].copy()
    for j in range(len(gaps)):
        _, term = oracle_forcing_step(stepper, traj.stamps[j], traj.stamps[j + 1])
        base = np.exp(-ref_basis.eigenvalues * cfg.dt) * c + term
        c = oracle_step_map(ref_basis, cubic, order2, base, cfg.dt,
                            traj.coeffs[j] @ E, traj.coeffs[j + 1] @ E)
    expected = float(np.max(np.abs((c - traj.coeffs[-1]) @ E)))
    assert sv.mild_residual(traj, 0, len(traj) - 1, cubic, forcing, cfg) == expected


@pytest.mark.parametrize("order2", [False, True])
def test_mild_residual_computes_the_weights_once(ref_basis, forcings, order2, monkeypatch):
    """One ``etd_weights`` call per residual, at the configured dt, although
    some stamp gaps differ from it in the last bit."""
    forcing = forcings["literal"]
    cfg = sv.SolverConfig(dt=1e-3, horizon=0.3, order2=order2)
    cubic = sv.make_nonlinearity("cubic")
    traj = sv.solve(sv.reference_initial_field(ref_basis, "mode1", 0.5), cfg, cubic,
                    forcing, t0=3.35)
    assert np.any(np.diff(traj.stamps) != cfg.dt)
    calls = []
    etd_weights = sv.etd_weights
    monkeypatch.setattr(sv, "etd_weights", lambda lam, dt: calls.append(dt) or etd_weights(lam, dt))
    sv.mild_residual(traj, 0, len(traj) - 1, cubic, forcing, cfg)
    assert calls == [cfg.dt]


def test_mild_residual_needs_steps_of_config_dt(ref_basis):
    """A stride-2 sample of a dt = 1e-3 run is not a march of steps of 1e-3,
    so the residual raises under that config; with no config the sample's
    own spacing is the step."""
    cfg = sv.SolverConfig(dt=1e-3, horizon=0.2)
    cubic = sv.make_nonlinearity("cubic")
    traj = sv.solve(sv.reference_initial_field(ref_basis, "mode1", 0.5), cfg, cubic)
    sample = sv.Trajectory(ref_basis, traj.stamps[::2], traj.coeffs[::2], traj.sup_trace[::2])
    with pytest.raises(ValueError, match="not steps of dt = 0.001"):
        sv.mild_residual(sample, 0, len(sample) - 1, cubic, config=cfg)
    # 9.4e-6: the stored states solve steps of 1e-3, not of 2e-3
    assert 0.0 < sv.mild_residual(sample, 0, len(sample) - 1, cubic) < 1e-4


def test_step_map_bit_identical_per_dt(ref_basis):
    """A stepper built at each step length, the configured one's last-bit
    neighbour included, against the test-local oracle."""
    cubic = sv.make_nonlinearity("cubic")
    x = sv.reference_initial_field(ref_basis, "mode1", 0.5)
    y = sv.reference_initial_field(ref_basis, "mode2", 0.2)
    for dt in (4e-4, 7e-4, 1e-3, 1e-3 * (1 - 2 ** -52)):
        stepper = sv.Stepper(ref_basis, cubic, None, sv.SolverConfig(dt=dt, order2=True))
        base = stepper.base(x.coeffs, 0.0, stepper.nonlinear(x.values))
        got = stepper.step_map(base, stepper.nonlinear(y.values))
        expected = oracle_step_map(ref_basis, cubic, True,
                                   np.exp(-ref_basis.eigenvalues * dt) * x.coeffs,
                                   dt, x.values, y.values)
        assert np.array_equal(got, expected)


def step_map_at(stepper, x, t, iterate):
    """The step map at the field ``x`` and t, g ending at the field
    ``iterate``: ``base`` and ``step_map`` on the grid values the fields hold."""
    _, terms = next(stepper.forcing_blocks([t]))
    gx = stepper.nonlinear(x.values)
    return stepper.step_map(stepper.base(x.coeffs, terms[0], gx),
                            stepper.nonlinear(iterate.values))


def check_single_steps(basis, forcing, t, order2):
    """The step map, step_frozen and step against the test-local oracles."""
    cubic = sv.make_nonlinearity("cubic")
    cfg = sv.SolverConfig(dt=1e-3, order2=order2)
    x = sv.reference_initial_field(basis, "mode1", 0.5)
    y = sv.reference_initial_field(basis, "mode2", 0.2)
    stepper = sv.Stepper(basis, cubic, forcing, cfg)
    _, term = oracle_forcing_step(stepper, t)
    base = np.exp(-basis.eigenvalues * 1e-3) * x.coeffs + term
    expected = oracle_step_map(basis, cubic, order2, base, 1e-3, x.values, x.values)
    assert np.array_equal(step_map_at(stepper, x, t, x), expected)
    expected = oracle_step_map(basis, cubic, order2, base, 1e-3, x.values, y.values)
    assert np.array_equal(step_map_at(stepper, x, t, y), expected)
    v = x.coeffs @ basis.eigenfunctions
    frozen = oracle_step_map(basis, cubic, order2, base, 1e-3, v, v)
    assert np.array_equal(stepper.step_frozen(x.coeffs, t), frozen)
    oracle = stepper.step(x.coeffs, t, oracle_forcing_step(stepper, t)[1][None])
    out = stepper.step(x.coeffs, t)
    assert np.array_equal(out[0], oracle[0]) and out[1] == oracle[1] and len(out[0]) == 1
    assert np.array_equal(out[2], out[0] @ basis.eigenfunctions)


@pytest.mark.parametrize("t", [0.25, 2.5, 3.0, 80.9999])
def test_single_steps_bit_identical(ref_basis, forcings, t):
    check_single_steps(ref_basis, forcings["profiled"], t, order2=False)


@pytest.mark.parametrize("t", [0.25, 2.5, 3.0, 80.9999])
def test_single_steps_order2_bit_identical(ref_basis, forcings, t):
    check_single_steps(ref_basis, forcings["profiled"], t, order2=True)


def single_step(stepper, coeffs, t, **held):
    """``Stepper.step`` on the step at t alone, as the oracles return it:
    (coeffs, iterations, distances, values, sup), one row."""
    distances = []
    [y], iterations, [values], [sup] = stepper.step(coeffs, t, distances=distances, **held)
    return y, iterations, distances, values, sup


def assert_same_step(got, expected):
    coeffs, iterations, distances, values, sup = got
    assert np.array_equal(coeffs, expected[0])
    assert iterations == expected[1]
    assert distances == expected[2]
    assert np.array_equal(values, expected[3])
    assert sup == expected[4]


@pytest.mark.parametrize("order2", [False, True])
@pytest.mark.parametrize("forced", [False, True])
@pytest.mark.parametrize("dt", [1e-3, 4e-4])
def test_step_matches_picard_oracle(ref_basis, forcings, order2, forced, dt):
    """Coefficients, iteration count, distances, grid values and sup of
    ``Stepper.step`` against the loop written out, one stepper per dt, from
    states of a forced run, one of them starting the spiky step at 26.944 at
    dt = 1e-3; unforced, also from a decayed state, which the linear step
    (order one) or the frozen application (order two) already puts within
    the tolerance of the fixed point."""
    forcing = forcings["profiled"] if forced else None
    cubic = sv.make_nonlinearity("cubic")
    stepper = sv.Stepper(ref_basis, cubic, forcing, sv.SolverConfig(dt=dt, order2=order2))
    states = [(0.25, sv.reference_initial_field(ref_basis, "mode1", 0.5).coeffs),
              (26.944, sv.reference_initial_field(ref_basis, "mode3", -0.8).coeffs),
              (3.0, sv.reference_initial_field(ref_basis, "mode2", 1.5).coeffs)]
    if not forced:
        states.append((5.0, sv.reference_initial_field(ref_basis, "mode1", 1e-9).coeffs))
    for t, c in states:
        _, term = oracle_forcing_step(stepper, t)
        expected = oracle_step(stepper, c, t, term)
        decayed = float(np.max(np.abs(c))) < 1e-6
        if decayed:
            assert expected[1] == (0 if order2 else -1) and expected[2] == []
        else:
            assert expected[1] > 1
        assert_same_step(single_step(stepper, c, t), expected)
        values = c @ ref_basis.eigenfunctions
        got = single_step(stepper, c, t, values=values, sup=float(np.max(np.abs(values))))
        assert_same_step(got, expected)


@pytest.mark.parametrize("amplitude", [12.5, 12.8])
def test_step_raises_oracle_noncontraction(ref_basis, amplitude):
    """The margin fails inside the sweeps after the incoming radius passed
    (amplitude 12.5), or at the incoming radius (12.8): the same t, radius
    and factor as the loop that checks every sweep, with and without the
    caller's grid values and sup.  With the gain at 1.04 dt the margin
    is reached at radius 12.66."""
    g = sv.make_nonlinearity("cubic-unstable")
    stepper = sv.Stepper(ref_basis, g, None, sv.SolverConfig(dt=1e-3))
    c = sv.reference_initial_field(ref_basis, "mode1", amplitude).coeffs
    values = c @ ref_basis.eigenfunctions
    sup = float(np.max(np.abs(values)))
    with pytest.raises(sv.NonContractionError) as expected:
        oracle_step(stepper, c, 1.5, 0.0)
    assert (expected.value.radius > sup) == (amplitude == 12.5)
    for held in ({}, {"values": values, "sup": sup}):
        with pytest.raises(sv.NonContractionError) as got:
            stepper.step(c, 1.5, **held)
        assert (got.value.t, got.value.radius, got.value.factor) == (
            expected.value.t, expected.value.radius, expected.value.factor)


def test_linear_step_raises_oracle_noncontraction_at_its_sup():
    """A linear step whose own sup takes the factor to 1/2 raises there,
    with the oracle's radius and factor, rather than sweeping: g constant
    at 1e-6 (gain |g(0)| about 3e-12, so the step is tried) with an
    estimate that is 0 up to a and 0.75 / gain past it, a between the
    grid sups s1 < s2 of states 1 and 2 of the RISING data."""
    basis = sp.SpectralBasis(length=1.0, modes=16, grid=64)
    dt = 3e-6
    decay = np.exp(-basis.eigenvalues * dt)
    c1 = np.array(RISING) * decay
    s1, s2 = (float(np.max(np.abs(c @ basis.eigenfunctions))) for c in (c1, c1 * decay))
    assert s1 < s2
    L = 0.75 / oracle_gain(basis, False, dt)
    g = sv.NonlinearitySpec("constant", lambda r: np.full(np.shape(r), 1e-6),
                            lambda R: L * (np.asarray(R) > 0.5 * (s1 + s2)))
    stepper = sv.Stepper(basis, g, None, sv.SolverConfig(dt=dt))
    with pytest.raises(sv.NonContractionError) as expected:
        oracle_step(stepper, c1, 0.5, 0.0)
    assert expected.value.radius == s2
    with pytest.raises(sv.NonContractionError) as got:
        stepper.step(c1, 0.5)
    assert (got.value.t, got.value.radius, got.value.factor) == (
        expected.value.t, expected.value.radius, expected.value.factor)


def test_step_raises_oracle_picard_error(ref_basis, forcings):
    cfg = sv.SolverConfig(dt=1e-3, picard_max_iter=1, picard_tol=1e-300)
    stepper = sv.Stepper(ref_basis, sv.make_nonlinearity("cubic"), forcings["profiled"], cfg)
    c = sv.reference_initial_field(ref_basis, "mode1", 0.5).coeffs
    with pytest.raises(sv.PicardError) as expected:
        oracle_step(stepper, c, 2.5, oracle_forcing_step(stepper, 2.5)[1])
    with pytest.raises(sv.PicardError) as got:
        stepper.step(c, 2.5)
    assert str(got.value) == str(expected.value)


@pytest.mark.parametrize("order2", [False, True])
def test_step_results_survive_the_next_step(ref_basis, order2):
    """The sweep buffers stay on the stepper: a second step leaves every
    array the first one returned as it was."""
    stepper = sv.Stepper(ref_basis, sv.make_nonlinearity("cubic"), None,
                         sv.SolverConfig(dt=1e-3, order2=order2))
    c = sv.reference_initial_field(ref_basis, "mode1", 0.5).coeffs
    first = single_step(stepper, c, 0.0)
    kept = [np.copy(a) for a in first[:4]]
    single_step(stepper, sv.reference_initial_field(ref_basis, "mode2", 0.9).coeffs, 0.0)
    for a, b in zip(first[:4], kept):
        assert np.array_equal(a, b)


def test_spiky_steps_match_per_step_breakpoints(run_main, ref_parts):
    """The block classification marks exactly the steps with a breakpoint of
    their own query strictly between their stamps, over the whole T = 50
    reference run: none in the first 12 000 steps, where every level-1 and
    level-2 edge and centre falls on a stamp, and only the two holding a
    level-3 edge (26.944 and 27.055) in all."""
    traj, _ = run_main
    forcing = ref_parts["forcing"]
    per_step = np.array([inside_breakpoints(forcing, t, t_next).size > 0
                         for t, t_next in zip(traj.stamps[:-1], traj.stamps[1:])])
    assert np.array_equal(traj.spiky, per_step)
    assert traj.spiky[:12000].sum() == 0
    assert traj.spiky_steps == 2


def test_zero_forcing_queries_and_evaluates_nothing(ref_basis, monkeypatch):
    forcing = sv.ForcingSpec(ref_basis)

    def forbidden(*args, **kwargs):
        raise AssertionError("zero forcing was queried")

    for name in ("breakpoints", "mode_values"):
        monkeypatch.setattr(forcing, name, forbidden)
    traj = sv.solve(sv.reference_initial_field(ref_basis, "mode1", 0.5),
                    sv.SolverConfig(dt=1e-3, horizon=0.2), sv.make_nonlinearity("cubic"),
                    forcing)
    assert len(traj.picard_counts) == 200


def test_forcing_evaluated_once_per_block(ref_parts, monkeypatch):
    forcing = ref_parts["forcing"]
    [(signals, _)] = forcing.parts  # profiled: both signals on the profile
    assert len(signals) == 2
    evals = [0] * len(signals)
    for i, sig in enumerate(signals):
        def counted(t, _i=i, _eval=sig.eval):
            evals[_i] += 1
            return _eval(t)

        monkeypatch.setattr(sig, "eval", counted)
    queries = []
    breakpoints = forcing.breakpoints
    monkeypatch.setattr(forcing, "breakpoints",
                        lambda lo, hi: queries.append(lo) or breakpoints(lo, hi))
    stepper = sv.Stepper(ref_parts["basis"], ref_parts["nonlinearity"], forcing,
                         sv.SolverConfig(dt=1e-3))
    n = 3 * sv.FORCING_BLOCK + 7
    stamps = 2.2 + 1e-3 * np.arange(n)
    assert sum(len(terms) for _, terms in stepper.forcing_blocks(stamps)) == n
    # one breakpoint query per block, and each signal evaluated once per
    # block on all its node times, smooth or not
    assert evals == [4, 4]
    assert len(queries) == 4


# (dt, t0) of windows of 2 FORCING_BLOCK + 30 steps, with spiky steps: the
# level-3 edges at 26.944 and 27.055, one in each of the first two blocks,
# and the sine's zero crossing at 27.0, inside a step of 7e-4.
FORCING_WINDOWS = {"profiled": (1e-3, 26.9), "literal": (1e-3, 26.9), "sine": (7e-4, 26.95)}


def window_stamps(mode, n=2 * sv.FORCING_BLOCK + 30):
    dt, t0 = FORCING_WINDOWS[mode]
    return dt, t0 + dt * np.arange(n + 1)


@pytest.mark.parametrize("mode", ["profiled", "literal", "sine"])
def test_block_terms_equal_single_step_terms(ref_basis, forcings, mode):
    """A step's forcing term is the same float computed in a block of
    FORCING_BLOCK steps as alone, spiky steps and both blocks included."""
    dt, stamps = window_stamps(mode)
    stepper = sv.Stepper(ref_basis, sv.make_nonlinearity("cubic"), forcings[mode],
                         sv.SolverConfig(dt=dt))
    blocks = list(stepper.forcing_blocks(stamps[:-1], stamps[1:]))
    spiky = np.concatenate([s for s, _ in blocks])
    terms = np.concatenate([terms for _, terms in blocks])
    assert spiky.any()
    for j, (s, term) in enumerate(zip(spiky, terms)):
        [([alone_s], [alone])] = stepper.forcing_blocks(stamps[j:j + 1], stamps[j + 1:j + 2])
        assert s == alone_s
        assert np.array_equal(term, alone)


def gamma(n):
    """Higham's gamma_n = n u / (1 - n u): a product of n factors (1 + d),
    |d| <= u, is 1 + theta with |theta| <= gamma_n."""
    u = np.finfo(float).eps / 2
    return n * u / (1 - n * u)


@pytest.mark.parametrize("mode", ["profiled", "literal", "sine"])
def test_terms_move_from_the_old_formula_within_rounding(ref_basis, forcings, mode):
    """Each term against the formula the per-part contraction replaced,
    (D * mode_values(t + rel)) @ wts.  Both round the exact sum over parts p
    and nodes i of c_p h_p(t_i) D_i w_i (per mode) from the same c, h, D, w.
    The old one rounds each node's term up to 4 times (c h per part, their
    sum, times D, times w) and sums q nodes in some order (q - 1 more); the
    new one rounds D w, h (D w), c times the node sum, and sums q nodes and
    then the parts (q - 1 + 1 more).  So each is within gamma_{q+3} A of the
    exact sum, A = sum_p |c_p| (|h_p| @ (D w)^T), and within twice that of
    the other; A as computed is at least 1 - gamma_{q+2} of the exact one."""
    dt, stamps = window_stamps(mode)
    forcing = forcings[mode]
    stepper = sv.Stepper(ref_basis, sv.make_nonlinearity("cubic"), forcing,
                         sv.SolverConfig(dt=dt))
    blocks = stepper.forcing_blocks(stamps[:-1], stamps[1:])
    for j, term in enumerate(np.concatenate([terms for _, terms in blocks])):
        rel, wts, _ = step_layout(stepper, stamps[j], stamps[j + 1])
        D = np.exp(-np.outer(ref_basis.eigenvalues, dt - rel))
        old = (D * forcing.mode_values(stamps[j] + rel)) @ wts
        A = sum(np.abs(coeffs) * (np.abs(sum(sig.eval(stamps[j] + rel) for sig in signals))
                                  @ (D * wts).T)
                for signals, coeffs in forcing.parts)
        q = rel.size
        bound = 2.0 * gamma(q + 3) * A / (1.0 - gamma(q + 2))
        assert np.all(np.abs(term - old) <= bound)


def _peak_solve_bytes(x0, cfg, nonlinearity, forcing):
    tracemalloc.start()
    try:
        traj = sv.solve(x0, cfg, nonlinearity, forcing)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak, traj


def test_solve_memory_grows_only_with_outputs(ref_parts):
    """Peak allocation in solve grows with the returned arrays, not with the
    forcing precompute: T = 8 over T = 2 on the reference forcing."""
    x0 = sv.reference_initial_field(ref_parts["basis"], "mode1", 0.5)
    args = (ref_parts["nonlinearity"], ref_parts["forcing"])
    peak_short, short = _peak_solve_bytes(x0, sv.SolverConfig(dt=1e-3, horizon=2.0), *args)
    peak_long, long_ = _peak_solve_bytes(x0, sv.SolverConfig(dt=1e-3, horizon=8.0), *args)

    def output_bytes(traj):
        return sum(a.nbytes for a in (traj.stamps, traj.coeffs, traj.sup_trace,
                                      traj.picard_counts, traj.spiky))

    # a block of 128 steps: its node values, products and quadrature factors,
    # 4 arrays of 128 x 8 x K doubles (2 MB); a literal, so that a larger
    # FORCING_BLOCK must pass this bound too
    block_slack = 4 * 128 * 8 * ref_parts["basis"].modes * 8
    assert peak_long - peak_short <= output_bytes(long_) - output_bytes(short) + block_slack
