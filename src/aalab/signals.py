"""Scalar and vector signals on the real line with windowed L^p analysis.

The module provides:

* a small signal framework (closed-form and sampled signals, both carrying
  the breakpoint sets their window quadratures must respect),
* the one fixed smooth bump ``bump_value`` (peak 1 at 0, support
  (-1/2, 1/2)) and its area ``bump_integral``,
* the spike-train construction ``a`` built from that bump, rescaled to
  half-width 1/(2 n^2) on the lattices 3^n (2Z + 1): pointwise unbounded,
  yet bounded in every windowed L^p sense,
* the bounded oscillation ``b(t) = sin(1 / (2 + cos t + cos sqrt(2) t))``,
  which is continuous but not uniformly continuous,
* Stepanov window norms, Bochner window transforms, translation distances,
  a translation-ladder recurrence test, and a uniform-continuity modulus.

All evaluations are deterministic and signals are immutable once built.
"""

from dataclasses import dataclass
from functools import cache
import math
import warnings

import numpy as np

from .quadrature import quadrature_layouts, quadrature_nodes

#: Window length of all windowed norms (fixed by definition).
WINDOW = 1.0
#: Windows per batched layout and signal evaluation in ``stepanov_norm`` and
#: ``aa_translation_test``; bounds the scratch memory of a scan.
SCAN_BLOCK = 128
#: Run starts per block of ``uniform_continuity_modulus``.
SAMPLE_BLOCK = 256


class SpanError(ValueError):
    """Evaluation or scan requested outside a sampled signal's span."""


class TruncationWarning(UserWarning):
    """A truncated spike train was evaluated where dropped levels matter."""


def magnitude(values):
    """Pointwise norm of signal values: |.| for scalars, max-abs for vectors."""
    values = np.asarray(values, dtype=float)
    if values.ndim <= 1:
        return np.abs(values)
    # component by component: max is exact, so this is the max over the last
    # axis, and several times faster than reducing along that short axis
    out = np.abs(values[..., 0])
    for j in range(1, values.shape[-1]):
        np.maximum(out, np.abs(values[..., j]), out=out)
    return out


# ---------------------------------------------------------------------------
# Bumps and spike trains
# ---------------------------------------------------------------------------

def bump_value(s):
    """The smooth bump ``exp(1 - 1/(1 - 4 s^2))`` at ``s`` (scalar or array):
    nonnegative, 1 at 0, exactly 0 for |s| >= 1/2."""
    s = np.asarray(s, dtype=float)
    out = np.zeros_like(s)
    inside = np.abs(s) < 0.5
    si = s[inside]
    with np.errstate(over="ignore", divide="ignore"):
        out[inside] = np.exp(1.0 - 1.0 / (1.0 - 4.0 * si * si))
    return out if out.ndim else float(out)


@cache
def bump_integral():
    """Area under the bump, from 96-node Gauss-Legendre per half-support.

    Peak height, smoothness and compact support are what everything
    downstream relies on, so no unit-mass normalization is imposed."""
    pts, wts = quadrature_nodes(-0.5, 0.5, breakpoints=[0.0], nodes=96)
    return float(np.dot(wts, bump_value(pts)))


@dataclass(frozen=True)
class SpikeTrainSpec:
    """Truncated sum of narrowing bump trains on sparsifying lattices.

    Level n contributes bumps of half-width 1/(2 n^2) centered on the odd
    multiples of 3^n.  Levels 1..n_max are kept; the truncation is exact
    until |t| reaches the first center of level n_max + 1.
    """

    n_max: int = 6

    def __post_init__(self):
        if self.n_max < 1:
            raise ValueError("n_max must be >= 1")

    @property
    def stale_beyond(self):
        """Smallest |t| at which dropped levels could contribute."""
        return 3.0 ** (self.n_max + 1) - 1.0


def level_half_width(level):
    """Half-width of a level's bumps: 1/(2 level^2)."""
    return 0.5 / (level * level)


def level_centers(level, lo, hi):
    """All bump centers of a level inside [lo, hi] (odd multiples of 3^level)."""
    base = 3.0 ** level
    k_lo = math.ceil((lo / base - 1.0) / 2.0)
    k_hi = math.floor((hi / base - 1.0) / 2.0)
    if k_hi < k_lo:
        return np.empty(0)
    return base * (2.0 * np.arange(k_lo, k_hi + 1) + 1.0)


def level_breakpoints(level, lo, hi):
    """Support edges and centers (c - w, c, c + w) of a level's bumps meeting
    [lo, hi], w the half-width."""
    w = level_half_width(level)
    centers = level_centers(level, lo - w, hi + w)
    if not centers.size:
        return centers
    return np.concatenate([centers - w, centers, centers + w])


def spike_level_value(level, t):
    """Evaluate one level of the train at ``t``.

    Bumps are located lazily: the only center that can contribute is the
    nearest lattice point, because the half-width 1/(2 level^2) is far below
    the lattice spacing 2 * 3^level.  No series is ever materialized.
    """
    if level < 1:
        raise ValueError("level must be >= 1")
    t = np.asarray(t, dtype=float)
    base = 3.0 ** level
    nearest = base * (2.0 * np.round((t / base - 1.0) / 2.0) + 1.0)
    return bump_value(level * level * (t - nearest))


def spike_train_value(spec, t):
    """Evaluate the full truncated train: sum of levels 1..n_max at ``t``."""
    t = np.asarray(t, dtype=float)
    if t.size and float(np.max(np.abs(t))) >= spec.stale_beyond:
        warnings.warn(
            f"evaluating truncated spike train at |t| >= {spec.stale_beyond:g}; "
            f"levels above {spec.n_max} would contribute there",
            TruncationWarning,
            stacklevel=2,
        )
    out = np.zeros_like(t)
    for level in range(1, spec.n_max + 1):
        out = out + spike_level_value(level, t)
    return out if out.ndim else float(out)


def spike_train_breakpoints(spec, lo, hi):
    """Support edges and centers of every bump meeting [lo, hi]."""
    return np.concatenate([level_breakpoints(level, lo, hi)
                           for level in range(1, spec.n_max + 1)])


def reciprocal_sine_value(t):
    """sin(1 / (2 + cos t + cos(sqrt(2) t))); bounded by 1, never uniformly
    continuous because the denominator comes arbitrarily close to 0."""
    t = np.asarray(t, dtype=float)
    out = np.sin(1.0 / (2.0 + np.cos(t) + np.cos(np.sqrt(2.0) * t)))
    return out if out.ndim else float(out)


# ---------------------------------------------------------------------------
# Signal framework
# ---------------------------------------------------------------------------

class Signal:
    """A deterministic function of time with quadrature metadata.

    Subclasses implement ``eval`` (vectorized), report their definition
    ``span``, and may expose ``breakpoints``: points inside a window where
    the integrand |f|^p is not smooth (spike edges, kinks, sample nodes).
    """

    name = "signal"
    span = (-np.inf, np.inf)

    def eval(self, t):
        raise NotImplementedError

    def __call__(self, t):
        return self.eval(t)

    def breakpoints(self, lo, hi):
        return np.empty(0)

    def require_span(self, lo, hi):
        if lo < self.span[0] or hi > self.span[1]:
            raise SpanError(
                f"{self.name}: needs [{lo:g}, {hi:g}] but is defined on "
                f"[{self.span[0]:g}, {self.span[1]:g}]"
            )


class FunctionSignal(Signal):
    """Closed-form signal wrapping a vectorized callable, defined on the whole line."""

    def __init__(self, fn, name="signal", breakpoint_fn=None):
        self._fn = fn
        self.name = name
        self._breakpoint_fn = breakpoint_fn

    def eval(self, t):
        return self._fn(np.asarray(t, dtype=float))

    def breakpoints(self, lo, hi):
        if self._breakpoint_fn is None:
            return np.empty(0)
        return np.asarray(self._breakpoint_fn(lo, hi), dtype=float)


class SampledSignal(Signal):
    """Uniformly interpretable sampled signal with linear interpolation.

    Defined only on [times[0], times[-1]]; evaluation outside raises
    SpanError.  Sample nodes and (for scalar signals) sign-change crossings
    are reported as breakpoints so |f|^p quadratures stay exact per piece.
    """

    def __init__(self, times, values, name="sampled"):
        times = np.asarray(times, dtype=float)
        values = np.asarray(values, dtype=float)
        if times.ndim != 1 or len(times) < 2:
            raise ValueError("need at least two samples")
        if np.any(np.diff(times) <= 0):
            raise ValueError("sample times must be strictly increasing")
        if values.shape[0] != times.shape[0]:
            raise ValueError("times and values length mismatch")
        self.times = times
        self.values = values
        self.name = name
        self.dim = 1 if values.ndim == 1 else values.shape[1]
        self.span = (float(times[0]), float(times[-1]))

    def eval(self, t):
        t = np.asarray(t, dtype=float)
        if t.size:
            self.require_span(float(np.min(t)), float(np.max(t)))
        if self.values.ndim == 1:
            out = np.interp(t, self.times, self.values)
        else:
            out = np.empty(t.shape + (self.dim,))
            for j in range(self.dim):
                out[..., j] = np.interp(t, self.times, self.values[:, j])
        return out

    def breakpoints(self, lo, hi):
        inside = self.times[(self.times > lo) & (self.times < hi)]
        if self.values.ndim != 1:
            return inside
        v = self.values
        sign_change = np.nonzero(v[:-1] * v[1:] < 0)[0]
        if sign_change.size == 0:
            return inside
        t0, t1 = self.times[sign_change], self.times[sign_change + 1]
        v0, v1 = v[sign_change], v[sign_change + 1]
        crossings = t0 - v0 * (t1 - t0) / (v1 - v0)
        crossings = crossings[(crossings > lo) & (crossings < hi)]
        return np.concatenate([inside, crossings])


class SpikeTrainSignal(Signal):
    """The truncated spike train as a signal (registry id ``a``)."""

    def __init__(self, spec=None):
        self.spec = spec if spec is not None else SpikeTrainSpec()
        self.name = "a"

    def eval(self, t):
        return spike_train_value(self.spec, t)

    def breakpoints(self, lo, hi):
        return spike_train_breakpoints(self.spec, lo, hi)


class SpikeLevelSignal(Signal):
    """A single level of the spike train (registry id ``beta``)."""

    def __init__(self, level):
        self.level = int(level)
        self.name = f"beta:{level}"

    def eval(self, t):
        return spike_level_value(self.level, t)

    def breakpoints(self, lo, hi):
        return level_breakpoints(self.level, lo, hi)


def bump_signal():
    """A single bump centered at 0 (registry id ``bump``)."""
    def edges(lo, hi):
        return np.array([-0.5, 0.0, 0.5])

    return FunctionSignal(bump_value, name="bump", breakpoint_fn=edges)


def sine_signal():
    """sin(2 pi t), with zero crossings reported as breakpoints."""
    def fn(t):
        return np.sin(2.0 * np.pi * t)

    def zeros(lo, hi):
        return np.arange(np.ceil(2.0 * lo), np.floor(2.0 * hi) + 1) * 0.5

    return FunctionSignal(fn, name="sin", breakpoint_fn=zeros)


def constant_signal(value):
    return FunctionSignal(lambda t: np.full_like(np.asarray(t, dtype=float), value),
                          name=f"const:{value:g}")


def reciprocal_sine_signal():
    return FunctionSignal(reciprocal_sine_value, name="b")


def load_sampled_csv(path):
    """Load a two-column (t, value) CSV with strictly increasing t."""
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split(",")
            try:
                rows.append([float(p) for p in parts[:2]])
            except ValueError:
                if rows:
                    raise
                continue  # header row
    data = np.asarray(rows, dtype=float)
    if data.ndim != 2 or data.shape[1] < 2:
        raise ValueError(f"{path}: expected two numeric columns")
    return SampledSignal(data[:, 0], data[:, 1], name=f"sampled:{path}")


def resolve_signal(ident, n_max=6, level=1):
    """Resolve a registry id to a Signal.

    Known ids: ``bump``, ``beta``, ``a``, ``b``, ``sin``, ``const`` (1.0),
    ``const:<c>``, ``sampled:<path>``.
    """
    if ident == "bump":
        return bump_signal()
    if ident == "beta":
        return SpikeLevelSignal(level)
    if ident == "a":
        return SpikeTrainSignal(SpikeTrainSpec(n_max=n_max))
    if ident == "b":
        return reciprocal_sine_signal()
    if ident == "sin":
        return sine_signal()
    if ident == "const":
        return constant_signal(1.0)
    if ident.startswith("const:"):
        return constant_signal(float(ident.split(":", 1)[1]))
    if ident.startswith("sampled:"):
        return load_sampled_csv(ident.split(":", 1)[1])
    raise KeyError(f"unknown signal id {ident!r}")


# ---------------------------------------------------------------------------
# Windowed norms and transforms
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StepanovConfig:
    """Parameters for windowed L^p scans.

    ``nodes`` is the Gauss-Legendre order used on each smooth piece of a
    unit window after breakpoint subdivision.  The scan stride makes the
    reported supremum a lower bound of the true one.
    """

    p: float = 1.0
    nodes: int = 32
    t_min: float = 0.0
    t_max: float = 10.0
    stride: float = 0.125
    threshold: float = 1e-3

    def __post_init__(self):
        if self.p < 1.0:
            raise ValueError("exponent p must be >= 1")
        if self.nodes < 16:
            raise ValueError("need at least 16 quadrature nodes per window")
        if self.t_max < self.t_min:
            raise ValueError("empty scan range")
        if self.stride <= 0:
            raise ValueError("stride must be positive")


def window_lp_norm(f, t, p=1.0, nodes=32):
    """(integral_t^{t+1} |f|^p)^(1/p) via breakpoint-aware Gauss-Legendre."""
    f.require_span(t, t + WINDOW)
    pts, wts = quadrature_nodes(t, t + WINDOW, f.breakpoints(t, t + WINDOW), nodes)
    vals = magnitude(f.eval(pts))
    acc = float(np.dot(wts, vals ** p))
    return max(acc, 0.0) ** (1.0 / p)


def stepanov_norm(f, cfg):
    """Scan sup over t of the windowed L^p norm on [t_min, t_max].

    The supremum over the real line is approached from below: only the
    configured range is scanned, at the configured stride.  Each window is
    integrated exactly as ``window_lp_norm`` integrates it, bit for bit, but
    the breakpoints are queried once for the whole scan, and the layouts are
    built and ``f`` is evaluated once per SCAN_BLOCK windows.
    """
    ts = np.arange(cfg.t_min, cfg.t_max + 0.5 * cfg.stride, cfg.stride)
    f.require_span(cfg.t_min, max(cfg.t_max, ts[-1]) + WINDOW)
    bps = np.sort(f.breakpoints(ts[0], ts[-1] + WINDOW))
    # the breakpoints strictly inside each window, the only ones the
    # subdivision keeps
    first = np.searchsorted(bps, ts, side="right")
    last = np.searchsorted(bps, ts + WINDOW, side="left")
    norms = []
    for b0 in range(0, ts.size, SCAN_BLOCK):
        block = slice(b0, b0 + SCAN_BLOCK)
        inside = [bps[i:j] for i, j in zip(first[block], last[block])]
        pts, wts, sizes = quadrature_layouts(ts[block], ts[block] + WINDOW, inside, cfg.nodes)
        norms.extend(_window_integrals(wts, magnitude(f.eval(pts)) ** cfg.p, sizes, cfg.p))
    return float(np.max(norms))


def _window_integrals(wts, vals, sizes, p):
    """(sum of w * v over each window's layout)^(1/p), one np.dot per window,
    so each is the float the single-window functions give."""
    out = []
    col = 0
    for size in sizes:
        acc = float(np.dot(wts[col:col + size], vals[col:col + size]))
        out.append(max(acc, 0.0) ** (1.0 / p))
        col += size
    return out


class WindowFunction:
    """One Bochner window: s in [0, 1] mapped to f(t + s).

    Carries a uniform sampling for serialization and plotting; calling the
    object defers to the parent signal, so values at arbitrary s are as
    exact as the signal itself.
    """

    def __init__(self, signal, t, samples=129):
        signal.require_span(t, t + WINDOW)
        self.signal = signal
        self.t = float(t)
        self.s = np.linspace(0.0, WINDOW, samples)
        self.values = signal.eval(self.t + self.s)

    def __call__(self, s):
        s = np.asarray(s, dtype=float)
        if np.any(s < 0.0) or np.any(s > WINDOW):
            raise SpanError("window argument outside [0, 1]")
        return self.signal.eval(self.t + s)


def bochner_transform(f, t, samples=129):
    """The window-valued transform of ``f`` at ``t``: s -> f(t + s)."""
    return WindowFunction(f, t, samples)


def bochner_identity_residual(f, t, s, tau):
    """|phi(t + tau, s - tau) - phi(t, s)| for phi(t, s) = f(t + s).

    ``tau`` must lie in [s - 1, s] so both window arguments stay in [0, 1].
    """
    if tau < s - WINDOW or tau > s:
        raise ValueError("tau must lie in [s - 1, s]")
    lhs = bochner_transform(f, t + tau)(s - tau)
    rhs = bochner_transform(f, t)(s)
    return float(np.max(np.abs(lhs - rhs)))


def sp_translation_distance(f, g, tau, t, p=1.0, nodes=32):
    """Windowed L^p distance between f(. + tau) and g on [t, t + 1]."""
    f.require_span(t + tau, t + tau + WINDOW)
    g.require_span(t, t + WINDOW)
    bps = np.concatenate([
        np.asarray(g.breakpoints(t, t + WINDOW), dtype=float),
        np.asarray(f.breakpoints(t + tau, t + tau + WINDOW), dtype=float) - tau,
    ])
    pts, wts = quadrature_nodes(t, t + WINDOW, bps, nodes)
    diff = magnitude(f.eval(pts + tau) - g.eval(pts))
    acc = float(np.dot(wts, diff ** p))
    return max(acc, 0.0) ** (1.0 / p)


@dataclass
class TranslationTestReport:
    """Pairwise translation distances along a shift ladder, plus a verdict.

    ``distances[n, m]`` is the worst windowed L^p distance between the
    signal shifted by ``shifts[n] - shifts[m]`` and itself.  ``tail[k]`` is
    the worst off-diagonal entry among pairs with min(n, m) >= k; recurrence
    shows up as a shrinking tail.  The verdict is diagnostic evidence only,
    never a proof of almost automorphy.
    """

    shifts: np.ndarray
    windows: np.ndarray
    p: float
    distances: np.ndarray
    tail: np.ndarray
    threshold: float
    consistent: bool
    verdict: str


def aa_translation_test(f, ladder, cfg, windows):
    """Fill the pairwise translation-distance matrix over a shift ladder.

    Verdict is "recurrence-consistent" when the tail maxima shrink
    monotonically (within quadrature noise) and end below the configured
    threshold.
    """
    shifts = np.asarray(ladder, dtype=float)
    if shifts.size < 3:
        raise ValueError("ladder needs at least 3 entries")
    windows = np.asarray(windows, dtype=float)
    # every pair shifts by a difference of shifts, at most their spread
    spread = float(np.max(shifts) - np.min(shifts))
    f.require_span(float(np.min(windows)) - spread, float(np.max(windows)) + WINDOW + spread)

    # one item per (shift pair, window), pair (n, m) shifted by
    # shifts[n] - shifts[m]; each item is sp_translation_distance(f, f, tau, t)
    taus = np.repeat((shifts[:, None] - shifts[None, :]).ravel(), windows.size)
    starts = np.tile(windows, shifts.size ** 2)
    own = [np.asarray(f.breakpoints(t, t + WINDOW), dtype=float) for t in windows]
    d = np.empty(taus.size)
    for b0 in range(0, taus.size, SCAN_BLOCK):
        block = slice(b0, b0 + SCAN_BLOCK)
        bps = []
        for j, tau, t in zip(range(b0, taus.size), taus[block], starts[block]):
            shifted = np.asarray(f.breakpoints(t + tau, t + tau + WINDOW), dtype=float)
            bps.append(np.concatenate([own[j % windows.size], shifted - tau]))
        pts, wts, sizes = quadrature_layouts(starts[block], starts[block] + WINDOW, bps, cfg.nodes)
        diff = magnitude(f.eval(pts + np.repeat(taus[block], sizes)) - f.eval(pts))
        d[block] = _window_integrals(wts, diff ** cfg.p, sizes, cfg.p)
    d = np.max(d.reshape(shifts.size, shifts.size, windows.size), axis=2)

    tail = np.empty(shifts.size - 1)
    for k in range(shifts.size - 1):
        block = d[k:, k:].copy()
        np.fill_diagonal(block, 0.0)
        tail[k] = float(np.max(block))
    shrinking = bool(np.all(np.diff(tail) <= 1e-12)) if tail.size > 1 else True
    consistent = shrinking and tail[-1] <= cfg.threshold
    verdict = "recurrence-consistent" if consistent else "inconclusive"

    return TranslationTestReport(shifts=shifts, windows=windows, p=cfg.p,
                                 distances=d, tail=tail, threshold=cfg.threshold,
                                 consistent=consistent, verdict=verdict)


def power_shift_ladder(count=5):
    """Default recurrence ladder for spike trains: shifts 2 * 3^m, m = 1..count."""
    return np.array([2.0 * 3.0 ** m for m in range(1, count + 1)])


# Continued-fraction denominators of sqrt(2); 2*pi times these are
# simultaneous near-periods of cos(t) and cos(sqrt(2) t).
_SQRT2_DENOMINATORS = (1, 2, 5, 12, 29, 70, 169, 408, 985, 2378)


def sqrt2_shift_ladder(count=6):
    """Recurrence ladder for the reciprocal-sine oscillation."""
    if count > len(_SQRT2_DENOMINATORS):
        raise ValueError(f"at most {len(_SQRT2_DENOMINATORS)} ladder entries available")
    return 2.0 * np.pi * np.asarray(_SQRT2_DENOMINATORS[:count], dtype=float)


# ---------------------------------------------------------------------------
# Uniform continuity
# ---------------------------------------------------------------------------

def uniform_continuity_modulus(x, deltas, span=None):
    """Table of (delta, omega(delta)) with omega the sampled modulus.

    omega(delta) is the largest value gap over sample pairs at time distance
    at most delta inside the span.  Closed-form signals are sampled at
    min(deltas)/4; sampled signals use their own grid, and deltas
    below twice the grid spacing are rejected.
    """
    deltas = np.sort(np.asarray(deltas, dtype=float))
    if deltas.size == 0 or deltas[0] <= 0:
        raise ValueError("deltas must be positive")
    if isinstance(x, SampledSignal):
        lo = x.span[0] if span is None else max(span[0], x.span[0])
        hi = x.span[1] if span is None else min(span[1], x.span[1])
        keep = slice(np.searchsorted(x.times, lo, side="left"),
                     np.searchsorted(x.times, hi, side="right"))  # a view, not a copy
        times = x.times[keep]
        values = x.values[keep]
        spacing = float(np.max(np.diff(times)))
    else:
        if span is None:
            raise ValueError("span is required for closed-form signals")
        lo, hi = float(span[0]), float(span[1])
        spacing = deltas[0] / 4
        times = np.arange(lo, hi + 0.5 * spacing, spacing)
        values = np.asarray(x.eval(times), dtype=float)
    if deltas[0] < 2.0 * spacing - 1e-12:
        raise ValueError(
            f"smallest delta {deltas[0]:g} is below twice the sample spacing "
            f"{spacing:g}; sample more densely"
        )
    # omega(delta) is the largest spread over runs of `run` consecutive
    # samples.  Run starts are taken SAMPLE_BLOCK at a time, each block with
    # the halo of the longest run, so the temporaries stay in cache.  Within
    # a block a sparse table is carried across the sorted deltas: upper[i]
    # and lower[i] are the componentwise max and min of the samples
    # i .. i + level - 1, and two overlapping level-runs make up each run.
    # Max and min are exact, so the blocking does not change a bit.
    v = values if values.ndim == 2 else values[:, None]
    n = v.shape[0]
    runs = [min(int(np.floor(delta / spacing + 1e-9)), n - 1) + 1 for delta in deltas]
    omega = np.zeros(deltas.size)
    for b0 in range(0, n, SAMPLE_BLOCK):
        upper = lower = v[b0:b0 + SAMPLE_BLOCK + runs[-1] - 1]
        m, level = upper.shape[0], 1
        for i, run in enumerate(runs):
            if run > m:
                break
            if run == 1:  # a single sample spreads nothing
                continue
            while 2 * level <= run:
                upper = np.maximum(upper[:-level], upper[level:])
                lower = np.minimum(lower[:-level], lower[level:])
                level *= 2
            off = run - level
            spread = np.maximum(upper[:m - level + 1 - off], upper[off:])
            spread -= np.minimum(lower[:m - level + 1 - off], lower[off:])
            omega[i] = np.maximum(omega[i], np.max(spread))
    return np.column_stack([deltas, omega])
