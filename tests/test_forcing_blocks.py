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
so the step's reused buffers, its check on a growing radius only, its
acceptance of the frozen application and the sup it takes and hands back
are each held to it.  At order one it first tries the linear step, with no
g, and its a-priori acceptance test.
Blocking, the shared base and the single synthesis per sweep change no
arithmetic, so every check is exact equality, not a tolerance.  Only the
comparison with the forcing formula the per-part contraction replaced has
a bound, derived from the operation counts of both.
"""

import functools
import math
import tracemalloc

import numpy as np
import pytest

from aalab import solver as sv
from aalab import spectral as sp
from aalab.quadrature import gauss_nodes, quadrature_nodes
from aalab.signals import SpikeTrainSpec, sine_signal


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
    with s0 its sup and q the factor at the larger of r and s0.  Returns what
    ``Stepper.step`` returns, with -1 applications of g, or None."""
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
    Returns what ``Stepper.step`` returns, refinement distances always
    collected."""
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
    assert_same_march(traj, oracle_solve(x0, cfg, cubic, forcings[mode], t0=t0))


def test_blowup_mid_block_bit_identical(ref_basis, forcings):
    # the level-1 spike at 3 lifts the sup trace over the cap inside a block
    cfg = sv.SolverConfig(dt=1e-3, horizon=1.0, blowup_cap=0.1)
    x0 = sv.reference_initial_field(ref_basis, "zero")
    cubic = sv.make_nonlinearity("cubic")
    traj = sv.solve(x0, cfg, cubic, forcings["profiled"], t0=2.3)
    assert traj.blown_up
    assert len(traj.picard_counts) % sv.FORCING_BLOCK != 0
    assert traj.spiky_steps == 0  # the level-1 edges and centre fall on stamps
    assert_same_march(traj, oracle_solve(x0, cfg, cubic, forcings["profiled"], t0=2.3))


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


def count_steps(monkeypatch):
    """The t of every ``Stepper.step`` call from here on, in order."""
    calls = []
    step = sv.Stepper.step
    monkeypatch.setattr(sv.Stepper, "step",
                        lambda self, coeffs, t, *a, **k: calls.append(t) or step(self, coeffs, t, *a, **k))
    return calls


@pytest.mark.parametrize("start, g, horizon", [("mode1", "cubic", 1.3), ("subnormal", "cubic", 0.4),
                                              ("mode1", "zero", 0.4)])
def test_linear_runs_bit_identical(ref_basis, monkeypatch, start, g, horizon):
    """Unforced order-one marches whose linear steps are taken as runs of up
    to FORCING_BLOCK after the first: from 0.5 * mode 1 (the companion's
    data) the 788 steps from t = 0.512 on, 1 + 6 full runs + 19; from the
    decayed state with subnormal coefficients, and with g = 0, where q = 0,
    all 400 steps, 1 + 3 full runs + 15.  In each, decaying high
    modes pass through the subnormal range inside the runs, where the run's
    one flush must set the zeros of a flush per step.  Only the steps up to
    the first linear one are taken alone."""
    cfg = sv.SolverConfig(dt=1e-3, horizon=horizon)
    x0 = (sp.Field(ref_basis, coeffs=planted_subnormals(ref_basis)) if start == "subnormal"
          else sv.reference_initial_field(ref_basis, start, 0.5))
    nonlinearity = sv.make_nonlinearity(g)
    calls = count_steps(monkeypatch)
    traj = sv.solve(x0, cfg, nonlinearity)
    monkeypatch.undo()
    linear = np.flatnonzero(traj.picard_counts == -1)
    assert linear.size > 3 * sv.FORCING_BLOCK and len(traj.picard_counts) % sv.FORCING_BLOCK != 0
    assert np.all(traj.picard_counts[linear[0]:] == -1)
    assert len(calls) == linear[0] + 1
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
    """A run cut at state 4, whose grid sup s4 rises above s3 and every sup
    after the initial one; the step from stamp 3 to 4 must be left to
    ``Stepper.step``:
    - ``cap``: g = 0 and the blow-up cap between s3 and s4.  Step 0 is
      linear, the run after it takes states 2 and 3, and the march stops at
      stamp 4.
    - ``post-check``: cubic g at 0.005 times the field, and ``picard_tol``
      between the bound at the incoming radius s3 and the bound at s4 with
      the factor q(s3), so s4 fails only the check at its own sup.
    - ``q-recompute``: ``picard_tol`` between that bound and the one with
      q(s4), so s4 fails only because its sup raises the radius.
    In the last two, step 0 from the larger s0 takes a sweep, step 1 is
    linear, the run after it takes state 3, and step 3 takes a sweep."""
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
    calls = count_steps(monkeypatch)
    traj = sv.solve(x0, cfg, g)
    monkeypatch.undo()
    assert calls[:3] == ([0.0, 3 * dt] if cut == "cap" else [0.0, dt, 3 * dt])
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
    run must leave that row to ``Stepper.step``."""
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
    calls = count_steps(monkeypatch)
    traj = sv.solve(x0, cfg, g)
    monkeypatch.undo()
    assert k * cfg.dt in calls
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
        y, iterations, _, vy, _ = stepper.step(c, j * cfg.dt)
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


def check_single_steps(basis, forcing, t, order2):
    """step_exponential, step_frozen and step against the test-local oracles."""
    cubic = sv.make_nonlinearity("cubic")
    cfg = sv.SolverConfig(dt=1e-3, order2=order2)
    x = sv.reference_initial_field(basis, "mode1", 0.5)
    y = sv.reference_initial_field(basis, "mode2", 0.2)
    stepper = sv.Stepper(basis, cubic, forcing, cfg)
    _, term = oracle_forcing_step(stepper, t)
    base = np.exp(-basis.eigenvalues * 1e-3) * x.coeffs + term
    expected = oracle_step_map(basis, cubic, order2, base, 1e-3, x.values, x.values)
    assert np.array_equal(sv.step_exponential(x, t, 1e-3, cubic, forcing, cfg).coeffs, expected)
    expected = oracle_step_map(basis, cubic, order2, base, 1e-3, x.values, y.values)
    assert np.array_equal(
        sv.step_exponential(x, t, 1e-3, cubic, forcing, cfg, iterate=y).coeffs, expected)
    v = x.coeffs @ basis.eigenfunctions
    frozen = oracle_step_map(basis, cubic, order2, base, 1e-3, v, v)
    assert np.array_equal(stepper.step_frozen(x.coeffs, t), frozen)
    oracle = stepper.step(x.coeffs, t, prepared=oracle_forcing_step(stepper, t))
    out = stepper.step(x.coeffs, t)
    assert np.array_equal(out[0], oracle[0]) and out[1] == oracle[1]
    assert np.array_equal(out[3], out[0] @ basis.eigenfunctions)


@pytest.mark.parametrize("t", [0.25, 2.5, 3.0, 80.9999])
def test_single_steps_bit_identical(ref_basis, forcings, t):
    check_single_steps(ref_basis, forcings["profiled"], t, order2=False)


@pytest.mark.parametrize("t", [0.25, 2.5, 3.0, 80.9999])
def test_single_steps_order2_bit_identical(ref_basis, forcings, t):
    check_single_steps(ref_basis, forcings["profiled"], t, order2=True)


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
        assert_same_step(stepper.step(c, t, collect_distances=True), expected)
        values = c @ ref_basis.eigenfunctions
        got = stepper.step(c, t, collect_distances=True, values=values,
                           sup=float(np.max(np.abs(values))))
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
    first = stepper.step(c, 0.0, collect_distances=True)
    kept = [np.copy(a) for a in first[:4]]
    stepper.step(sv.reference_initial_field(ref_basis, "mode2", 0.9).coeffs, 0.0,
                 collect_distances=True)
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
    assert sum(1 for _ in stepper.forcing_steps(stamps)) == n
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
    blocked = list(stepper.forcing_steps(stamps[:-1], stamps[1:]))
    spiky = np.array([s for s, _ in blocked])
    assert spiky.any()
    for j, (s, term) in enumerate(blocked):
        [(alone_s, alone)] = stepper.forcing_steps(stamps[j:j + 1], stamps[j + 1:j + 2])
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
    for j, (_, term) in enumerate(stepper.forcing_steps(stamps[:-1], stamps[1:])):
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
