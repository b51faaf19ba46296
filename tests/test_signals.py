import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from aalab import signals as sg

# Bump area, frozen from an adaptive-quadrature oracle (see test below).
I_H = 0.6034501612189382


@pytest.fixture(scope="module")
def spikes():
    return sg.SpikeTrainSpec(n_max=4)


# ---------------------------------------------------------------------------
# bump and spike train values
# ---------------------------------------------------------------------------

def test_bump_peak_and_support():
    assert sg.bump_value(0.0) == 1.0
    assert sg.bump_value(0.5) == 0.0
    assert sg.bump_value(-0.5) == 0.0
    assert sg.bump_value(0.7) == 0.0
    s = np.linspace(-0.6, 0.6, 401)
    vals = sg.bump_value(s)
    assert np.all(vals >= 0.0)
    assert np.all(vals[np.abs(s) >= 0.5] == 0.0)


def test_bump_integral_matches_adaptive_oracle():
    oracle, err = quad(lambda s: float(sg.bump_value(np.float64(s))),
                       -0.5, 0.5, epsabs=1e-12, epsrel=1e-12, limit=200)
    assert err < 1e-10
    assert abs(oracle - I_H) < 1e-12
    assert abs(sg.bump_integral() - oracle) < 1e-9


def _brute_force_train(spec, t):
    """Independent oracle: enumerate every center within [t-1, t+1]."""
    total = 0.0
    for level in range(1, spec.n_max + 1):
        for center in sg.level_centers(level, t - 1.0, t + 1.0):
            total += sg.bump_value(level * level * (t - center))
    return total


def test_spike_level_examples():
    assert sg.spike_level_value(1, 3.0) == 1.0
    assert sg.spike_level_value(2, 3.0) == 0.0
    assert sg.spike_level_value(1, 0.0) == 0.0


def test_spike_train_examples(spikes):
    assert sg.spike_train_value(spikes, 9.0) == 2.0
    assert sg.spike_train_value(spikes, 27.0) == 3.0
    assert sg.spike_train_value(spikes, 0.0) == 0.0


def test_spike_train_matches_brute_force_exactly(spikes):
    rng = np.random.default_rng(7)
    ts = rng.uniform(-200.0, 200.0, size=500)
    lazy = sg.spike_train_value(spikes, ts)
    brute = np.array([_brute_force_train(spikes, t) for t in ts])
    assert np.array_equal(lazy, brute)


def test_spike_train_unbounded_on_growing_spans(spikes):
    for k in range(1, spikes.n_max):
        centers = np.concatenate([sg.level_centers(lv, 0.0, 3.0 ** k)
                                  for lv in range(1, spikes.n_max + 1)])
        peak = float(np.max(sg.spike_train_value(spikes, centers)))
        assert peak >= k


def test_staleness_warning(spikes):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sg.spike_train_value(spikes, 100.0)  # inside the exact region: silent
    with pytest.warns(sg.TruncationWarning):
        sg.spike_train_value(spikes, spikes.stale_beyond + 1.0)


def test_reciprocal_sine_values():
    assert sg.reciprocal_sine_value(0.0) == pytest.approx(np.sin(0.25), abs=1e-15)
    t = np.linspace(0.0, 200.0, 20001)
    v = sg.reciprocal_sine_value(t)
    assert np.all(v >= -1.0) and np.all(v <= 1.0)


def _span_slope(span_hi, delta):
    """Dense-grid oracle: worst centered finite-difference slope at step
    ``delta``, scanned globally and again around the smallest denominator."""
    coarse = np.arange(0.0, span_hi, 1e-2)
    den = 2.0 + np.cos(coarse) + np.cos(np.sqrt(2.0) * coarse)
    t0 = float(coarse[int(np.argmin(den))])
    t = np.arange(max(t0 - 1.0, delta), min(t0 + 1.0, span_hi - delta), delta / 4.0)
    local = np.abs(sg.reciprocal_sine_value(t + delta)
                   - sg.reciprocal_sine_value(t - delta)) / (2.0 * delta)
    tg = np.arange(delta, span_hi - delta, 5e-3)
    coarse_slopes = np.abs(sg.reciprocal_sine_value(tg + delta)
                           - sg.reciprocal_sine_value(tg - delta)) / (2.0 * delta)
    return max(float(np.max(local)), float(np.max(coarse_slopes)))


def test_reciprocal_sine_slope_grows_with_span():
    # at increment scale 10^-k the worst slope over [0, 10^k] keeps growing:
    # the increments stay order one however small the step gets
    slopes = [_span_slope(10.0 ** k, 10.0 ** (-k)) for k in range(1, 5)]
    assert all(s1 < s2 for s1, s2 in zip(slopes, slopes[1:]))
    assert slopes[-1] > 1e3 * slopes[0]


# ---------------------------------------------------------------------------
# Stepanov norms
# ---------------------------------------------------------------------------

def test_stepanov_norm_constant():
    cfg = sg.StepanovConfig(p=3.0, t_min=0.0, t_max=4.0)
    assert sg.stepanov_norm(sg.constant_signal(-2.5), cfg) == pytest.approx(2.5, abs=1e-12)


def test_stepanov_norm_sine_closed_form():
    cfg = sg.StepanovConfig(p=1.0, t_min=0.0, t_max=3.0)
    assert sg.stepanov_norm(sg.sine_signal(), cfg) == pytest.approx(2 / np.pi, abs=1e-12)


def test_stepanov_norm_spike_train_bounded(spikes):
    cfg = sg.StepanovConfig(p=1.0, t_min=0.0, t_max=85.0)
    norm = sg.stepanov_norm(sg.SpikeTrainSignal(spikes), cfg)
    assert norm <= (np.pi ** 2 / 6) * I_H + 1e-9
    # the four-level coincidence window is in range, so most of the budget is used
    assert norm >= I_H * (1 + 1 / 4 + 1 / 9 + 1 / 16) - 1e-9


def test_stepanov_scan_monotone_in_range(spikes):
    a = sg.SpikeTrainSignal(spikes)
    narrow = sg.stepanov_norm(a, sg.StepanovConfig(t_min=0.0, t_max=5.0))
    wide = sg.stepanov_norm(a, sg.StepanovConfig(t_min=0.0, t_max=30.0))
    assert wide >= narrow


@settings(max_examples=25, deadline=None)
@given(p1=st.floats(1.0, 4.0), p2=st.floats(1.0, 4.0), t=st.floats(0.0, 5.0))
def test_window_norm_monotone_in_exponent(p1, p2, t):
    if p1 > p2:
        p1, p2 = p2, p1
    sig = sg.sine_signal()
    lo = sg.window_lp_norm(sig, t, p1)
    hi = sg.window_lp_norm(sig, t, p2)
    assert lo <= hi + 1e-10


def sampled_orbit(states=1801, dim=5, seed=3):
    """A vector orbit sampled at uneven times, with sign changes."""
    rng = np.random.default_rng(seed)
    times = np.cumsum(rng.uniform(0.5, 1.0, states)) * 0.02
    values = (np.sin(times)[:, None] * rng.standard_normal(dim)
              + 0.1 * rng.standard_normal((states, dim)))
    return sg.SampledSignal(times, values)


SCAN_SIGNALS = {
    "a": lambda: sg.resolve_signal("a", n_max=4),
    "beta": lambda: sg.resolve_signal("beta", level=2),
    "sin": lambda: sg.resolve_signal("sin"),
    "bump": lambda: sg.resolve_signal("bump"),
    "const": lambda: sg.resolve_signal("const:-1.5"),
    "orbit": sampled_orbit,
    "orbit-scalar": lambda: sg.SampledSignal(sampled_orbit().times,
                                             sampled_orbit().values[:, 0]),
}


@pytest.mark.parametrize("p", [1.0, 2.0, 4.0])
@pytest.mark.parametrize("name", sorted(SCAN_SIGNALS))
def test_batched_scan_equals_window_norms(name, p):
    sig = SCAN_SIGNALS[name]()
    t_min = 0.3 if name.startswith("orbit") else -3.1
    # more windows than one evaluation block, a stride that does not divide
    # the range, and windows meeting spike centres and edges
    cfg = sg.StepanovConfig(p=p, t_min=t_min, t_max=t_min + 20.0, stride=0.0625 * 1.5)
    ts = np.arange(cfg.t_min, cfg.t_max + 0.5 * cfg.stride, cfg.stride)
    assert ts.size > sg.SCAN_BLOCK
    windows = [sg.window_lp_norm(sig, t, p, cfg.nodes) for t in ts]
    assert sg.stepanov_norm(sig, cfg) == float(np.max(windows))
    # every single window too, so no window hides behind the maximum
    for t, want in zip(ts[::7], windows[::7]):
        one = sg.StepanovConfig(p=p, t_min=t, t_max=t, stride=cfg.stride)
        assert sg.stepanov_norm(sig, one) == want


def test_batched_scan_past_stale_beyond_warns():
    spec = sg.SpikeTrainSpec(n_max=2)  # exact only below |t| = 26
    a = sg.SpikeTrainSignal(spec)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sg.stepanov_norm(a, sg.StepanovConfig(t_min=0.0, t_max=spec.stale_beyond - 2.0))
    with pytest.warns(sg.TruncationWarning):
        sg.stepanov_norm(a, sg.StepanovConfig(t_min=0.0, t_max=spec.stale_beyond + 3.0))


def test_sampled_signal_span_enforced():
    sig = sg.SampledSignal(np.linspace(0, 2, 21), np.linspace(0, 2, 21) ** 2)
    with pytest.raises(sg.SpanError):
        sg.stepanov_norm(sig, sg.StepanovConfig(t_min=0.0, t_max=1.5))
    sg.stepanov_norm(sig, sg.StepanovConfig(t_min=0.0, t_max=1.0))  # fits


def test_invalid_configs_rejected():
    with pytest.raises(ValueError):
        sg.StepanovConfig(p=0.5)
    with pytest.raises(ValueError):
        sg.StepanovConfig(nodes=8)
    with pytest.raises(ValueError):
        sg.StepanovConfig(t_min=1.0, t_max=0.0)


# ---------------------------------------------------------------------------
# Bochner windows
# ---------------------------------------------------------------------------

def test_bochner_window_shift():
    ramp = sg.FunctionSignal(lambda t: t, name="ramp")
    win = sg.bochner_transform(ramp, 2.0)
    s = np.linspace(0, 1, 11)
    assert np.allclose(win(s), 2.0 + s)
    assert np.allclose(win.values, 2.0 + win.s)


def test_bochner_window_constant():
    win = sg.bochner_transform(sg.constant_signal(3.0), -5.0)
    assert np.allclose(win.values, 3.0)


def test_bochner_identity_random_triples():
    rng = np.random.default_rng(3)
    for sig in (sg.sine_signal(), sg.reciprocal_sine_signal(),
                sg.SpikeTrainSignal(sg.SpikeTrainSpec(n_max=4))):
        for _ in range(200):
            t = rng.uniform(0.0, 80.0)
            s = rng.uniform(0.0, 1.0)
            tau = rng.uniform(s - 1.0, s)
            assert sg.bochner_identity_residual(sig, t, s, tau) <= 1e-9


def test_bochner_identity_domain_check():
    with pytest.raises(ValueError):
        sg.bochner_identity_residual(sg.sine_signal(), 0.0, 0.2, 0.9)


# ---------------------------------------------------------------------------
# translation distances and recurrence tests
# ---------------------------------------------------------------------------

def test_translation_distance_zero_shift():
    sig = sg.sine_signal()
    assert sg.sp_translation_distance(sig, sig, 0.0, 1.3, 2.0) <= 1e-9


def test_translation_distance_exact_period():
    sig = sg.sine_signal()
    assert sg.sp_translation_distance(sig, sig, 3.0, 0.7, 1.0) <= 1e-12


def test_spike_train_recurrence_bound(spikes):
    a = sg.SpikeTrainSignal(spikes)
    windows = [0.0, 2.5, 8.5, 26.5]
    for m in (1, 2, 3):
        shift = 2.0 * 3.0 ** m
        bound = 2.0 * I_H * sum(1.0 / n ** 2 for n in range(m + 1, 60)) + 1e-9
        worst = max(sg.sp_translation_distance(a, a, shift, t, 1.0) for t in windows)
        assert worst <= bound


def test_aa_translation_test_constant():
    cfg = sg.StepanovConfig(t_min=0.0, t_max=2.0)
    report = sg.aa_translation_test(sg.constant_signal(4.0), [1.0, 2.0, 3.0],
                                    cfg, windows=[0.0, 1.5])
    assert np.all(report.distances <= 1e-12)
    assert report.consistent
    assert report.verdict == "recurrence-consistent"


def test_aa_translation_test_integer_ladder_sine():
    cfg = sg.StepanovConfig(t_min=0.0, t_max=2.0)
    report = sg.aa_translation_test(sg.sine_signal(), [1.0, 2.0, 3.0, 4.0],
                                    cfg, windows=[0.0, 0.5])
    assert np.all(report.distances <= 1e-10)


def test_aa_translation_test_spike_train(spikes):
    a = sg.SpikeTrainSignal(spikes)
    cfg = sg.StepanovConfig(p=1.0, threshold=0.2, t_min=0.0, t_max=9.0)
    report = sg.aa_translation_test(a, sg.power_shift_ladder(4), cfg,
                                    windows=[0.0, 2.5, 8.5])
    assert np.all(np.diff(report.tail) <= 1e-12)
    assert np.all(np.diag(report.distances) <= 1e-12)
    assert report.consistent


def test_aa_translation_needs_three_shifts():
    cfg = sg.StepanovConfig()
    with pytest.raises(ValueError):
        sg.aa_translation_test(sg.constant_signal(1.0), [1.0, 2.0], cfg, [0.0])


def test_sqrt2_ladder_recurrence_for_reciprocal_sine():
    b = sg.reciprocal_sine_signal()
    cfg = sg.StepanovConfig(p=1.0, threshold=0.05, t_min=0.0, t_max=2.0)
    report = sg.aa_translation_test(b, sg.sqrt2_shift_ladder(6), cfg,
                                    windows=[0.0, 1.0])
    # distances between deep ladder entries shrink as the denominators grow
    assert report.tail[-1] < report.tail[0]
    assert report.tail[-1] < 0.05


AA_SIGNALS = {
    "a": (lambda: sg.resolve_signal("a", n_max=6), lambda: sg.power_shift_ladder(6),
          [0.3, 2.7, 5.1, 7.9]),
    "b": (lambda: sg.resolve_signal("b"), lambda: sg.sqrt2_shift_ladder(6), [0.0, 1.0, 3.3, 4.4]),
    "sin": (lambda: sg.resolve_signal("sin"), lambda: [0.5, 1.3, 2.0, 3.7, 4.1, 5.5],
            [0.25, 1.1, 2.6, 3.0]),
    "orbit": (sampled_orbit, lambda: [0.5, 1.3, 2.0, 3.7, 4.1, 5.5], [6.0, 9.4, 11.2, 14.0]),
}


@pytest.mark.parametrize("p", [1.0, 2.0])
@pytest.mark.parametrize("name", sorted(AA_SIGNALS))
def test_aa_translation_test_equals_per_pair_distances(name, p):
    make, ladder, windows = AA_SIGNALS[name]
    f, shifts = make(), np.asarray(ladder(), dtype=float)
    assert shifts.size ** 2 * len(windows) > sg.SCAN_BLOCK
    cfg = sg.StepanovConfig(p=p, t_min=windows[0], t_max=windows[-1])
    report = sg.aa_translation_test(f, shifts, cfg, windows)
    want = np.array([[max(sg.sp_translation_distance(f, f, tau_n - tau_m, t, p, cfg.nodes)
                          for t in np.asarray(windows)) for tau_m in shifts]
                     for tau_n in shifts])
    assert np.array_equal(report.distances, want)


def test_aa_translation_test_span_is_the_shift_spread():
    """Pairs shift by differences of the ladder, so a positive ladder on a
    sampled signal needs only its spread around the windows: [10, 11, 12]
    at window 5 reads [3, 8] of a signal on [0, 20]."""
    times = np.linspace(0.0, 20.0, 401)
    f = sg.SampledSignal(times, np.sin(1.7 * times) + 0.3 * np.cos(5.1 * times))
    shifts, windows = np.array([10.0, 11.0, 12.0]), [5.0]
    cfg = sg.StepanovConfig(t_min=5.0, t_max=5.0)
    report = sg.aa_translation_test(f, shifts, cfg, windows)
    want = np.array([[sg.sp_translation_distance(f, f, tau_n - tau_m, 5.0, cfg.p, cfg.nodes)
                      for tau_m in shifts] for tau_n in shifts])
    assert np.array_equal(report.distances, want)
    assert np.all(report.distances[~np.eye(3, dtype=bool)] > 0)


def test_aa_translation_test_spread_past_the_span_raises_before_evaluating(monkeypatch):
    times = np.linspace(0.0, 20.0, 401)
    f = sg.SampledSignal(times, np.sin(times))

    def forbidden(*args, **kwargs):
        raise AssertionError("the signal was evaluated")

    for name in ("eval", "breakpoints"):
        monkeypatch.setattr(f, name, forbidden)
    with pytest.raises(sg.SpanError):
        # spread 14 around the window [5, 6]: needs [-9, 20]
        sg.aa_translation_test(f, [10.0, 11.0, 24.0], sg.StepanovConfig(), [5.0])


def test_aa_translation_test_evaluates_once_per_block(monkeypatch):
    f = sg.sine_signal()
    calls = {"eval": 0, "breakpoints": 0}
    for name in calls:
        original = getattr(f, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(f, name, counted)
    shifts, windows = [1.0, 2.0, 3.5, 4.0, 5.25, 6.0], [0.0, 0.5, 1.25, 2.0]
    items = len(shifts) ** 2 * len(windows)  # 144 (pair, window) items: two blocks
    sg.aa_translation_test(f, shifts, sg.StepanovConfig(t_min=0.0, t_max=2.0), windows)
    blocks = -(-items // sg.SCAN_BLOCK)
    assert blocks == 2
    # shifted and unshifted nodes once per block; one breakpoint query per
    # window and one per (shift pair, window) item
    assert calls["eval"] == 2 * blocks
    assert calls["breakpoints"] == len(windows) + items


def test_magnitude_is_the_max_over_components():
    rng = np.random.default_rng(5)
    values = rng.standard_normal((7, 3, 4))
    values[2, 1, 3] = np.nan
    values[4, 0] = -0.0
    got = sg.magnitude(values)
    assert got.shape == (7, 3)
    assert np.array_equal(got, np.max(np.abs(values), axis=-1), equal_nan=True)
    assert np.signbit(got).sum() == 0


# ---------------------------------------------------------------------------
# uniform continuity modulus
# ---------------------------------------------------------------------------

def test_modulus_constant_zero():
    table = sg.uniform_continuity_modulus(sg.constant_signal(2.0),
                                          [0.01, 0.1], span=(0.0, 3.0))
    assert np.all(table[:, 1] == 0.0)


def test_modulus_unit_lipschitz_sine():
    sig = sg.FunctionSignal(lambda t: np.sin(t), name="slow-sine")
    table = sg.uniform_continuity_modulus(sig, [0.01, 0.05, 0.2], span=(0.0, 10.0))
    assert np.all(np.diff(table[:, 1]) >= 0.0)
    assert np.all(table[:, 1] <= table[:, 0])


def test_modulus_rejects_undersampled_delta():
    sig = sg.SampledSignal(np.linspace(0, 1, 11), np.zeros(11))
    with pytest.raises(ValueError):
        sg.uniform_continuity_modulus(sig, [0.05])


def test_modulus_table_equals_per_delta_brute_force():
    sig = sampled_orbit()
    spacing = float(np.max(np.diff(sig.times)))
    deltas = np.array([0.4, 3.0 * spacing, 0.13, 1e6, 0.4, 0.05])  # unsorted, repeated, huge
    table = sg.uniform_continuity_modulus(sig, deltas)
    assert np.array_equal(table[:, 0], np.sort(deltas))
    n = len(sig.times)
    for delta, omega in table:
        width = min(int(np.floor(delta / spacing + 1e-9)), n - 1)
        brute = max(float(np.max(np.abs(sig.values[k:] - sig.values[:n - k])))
                    for k in range(1, width + 1))
        assert omega == brute


def test_modulus_vector_valued_uses_sup_metric():
    times = np.linspace(0, 1, 101)
    values = np.stack([times, -2.0 * times], axis=1)
    sig = sg.SampledSignal(times, values)
    table = sg.uniform_continuity_modulus(sig, [0.1])
    assert table[0, 1] == pytest.approx(0.2, abs=1e-12)


# ---------------------------------------------------------------------------
# registry and sampled CSV
# ---------------------------------------------------------------------------

def test_registry_ids(tmp_path):
    assert sg.resolve_signal("a", n_max=3).eval(3.0) == 1.0
    assert sg.resolve_signal("b").eval(0.0) == pytest.approx(np.sin(0.25))
    assert sg.resolve_signal("const:2.5").eval(9.0) == 2.5
    assert sg.resolve_signal("beta", level=2).eval(9.0) == 1.0
    path = tmp_path / "sig.csv"
    path.write_text("t,value\n0.0,1.0\n1.0,3.0\n2.0,5.0\n")
    sig = sg.resolve_signal(f"sampled:{path}")
    assert sig.eval(0.5) == 2.0
    with pytest.raises(KeyError):
        sg.resolve_signal("nope")


def test_sampled_csv_requires_increasing_times(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("0.0,1.0\n0.0,2.0\n")
    with pytest.raises(ValueError):
        sg.load_sampled_csv(str(path))
