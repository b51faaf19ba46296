"""Outside-in tracing of aalab: span-recording wrappers around public entry
points, and the per-layer metrics computed from the spans.

The wrappers are installed at run time by rebinding every aalab module
attribute that refers to the original object (``solver`` and ``signals``
hold their own ``quadrature_nodes``, ``signals`` and ``compactness`` their
own ``ordered_map``), or by replacing the method on its class.  No file of
the package changes.  A target that no longer exists is listed in
``Tracer.missing`` and its metrics are left out; it never fails the run.
"""

import dataclasses
import os
import sys
import time

import numpy as np


def _dir_size(path):
    files = [os.path.join(r, f) for r, _, fs in os.walk(path) for f in fs]
    return len(files), sum(os.path.getsize(f) for f in files)


class Tracer:
    """Spans (name, start, end, parent, self time) of one pass at a time,
    plus counters; ``take`` closes the pass and returns its arrays."""

    def __init__(self):
        self.names = []
        self.spans = []     # (name id, start, end, parent index, self seconds)
        self.stack = []     # [span index, covered child seconds]
        self.counts = {}
        self.deferred = []  # (counter, args, kwargs, result) run at pass end
        self.missing = []
        self._undo = []

    def wrap(self, name, fn, count=None, deferred=False):
        """Return ``fn`` wrapped in a span named ``name``.

        ``count(counts, args, kwargs, result)`` adds to the counters, right
        after the call or, with ``deferred``, when the pass is taken (for
        counters that read files or whole trajectories).
        """
        nid = self.declare(name)
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            parent = stack[-1][0] if stack else -1
            spans.append(None)
            frame = [idx, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                if stack:
                    stack[-1][1] += end - start
                spans[idx] = (nid, start, end, parent, end - start - frame[1])
            if count is not None:
                if deferred:
                    self.deferred.append((count, args, kwargs, result))
                else:
                    count(self.counts, args, kwargs, result)
            return result

        return traced

    def declare(self, name):
        """Register a span name (its metrics then read 0 until it is called)."""
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def patch(self, name, module, attr, count=None, deferred=False, result_hook=None):
        """Wrap ``module.attr`` (``Class.method`` allowed) in every aalab binding."""
        mod = sys.modules.get(module)
        owner_name, _, leaf = attr.rpartition(".")
        owner = getattr(mod, owner_name, None) if owner_name else mod
        original = getattr(owner, leaf, None) if owner is not None else None
        if original is None:
            if f"{module}.{attr}" not in self.missing:
                self.missing.append(f"{module}.{attr}")
            return
        fn = original
        if result_hook is not None:
            def fn(*args, **kwargs):
                return result_hook(original(*args, **kwargs))
        traced = self.wrap(name, fn, count, deferred)
        if owner_name:
            self._rebind(owner, leaf, traced)
            return
        for mname, m in list(sys.modules.items()):
            if m is not None and (mname == "aalab" or mname.startswith("aalab.")):
                for key, val in list(vars(m).items()):
                    if val is original:
                        self._rebind(m, key, traced)

    def _rebind(self, owner, key, value):
        self._undo.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def restore(self):
        for owner, key, value in reversed(self._undo):
            setattr(owner, key, value)
        self._undo.clear()

    def take(self):
        """Close the current pass: run deferred counters, return its spans."""
        for count, args, kwargs, result in self.deferred:
            count(self.counts, args, kwargs, result)
        rows = self.spans
        spans = {
            "name": np.array([r[0] for r in rows], dtype=np.int32),
            "start": np.array([r[1] for r in rows]),
            "end": np.array([r[2] for r in rows]),
            "parent": np.array([r[3] for r in rows], dtype=np.int64),
            "self": np.array([r[4] for r in rows]),
        }
        counts = self.counts
        self.spans.clear()
        self.deferred = []
        self.counts = {}
        return Pass(self.names, spans, counts)


def _add(counts, key, value):
    counts[key] = counts.get(key, 0) + value


# ---------------------------------------------------------------------------
# Counters
# ---------------------------------------------------------------------------

def _count_solve(counts, args, kwargs, traj):
    config = args[1] if len(args) > 1 else kwargs["config"]
    steps = len(traj.picard_counts)
    sweeps = int(np.sum(traj.picard_counts)) + steps  # the frozen application counts
    K, n_grid = traj.basis.modes, traj.basis.grid + 1
    # Per sweep: one synthesis and one projection per profile node (one
    # node at order 1); per step: the incoming-state and sup-trace syntheses.
    per_sweep = 1 + (config.forcing_nodes if config.order2 else 1)
    _add(counts, "solver.matmul_flops", 2 * K * n_grid * (per_sweep * sweeps + 2 * steps))
    _add(counts, "solver.sweeps", sweeps)
    _add(counts, "solver.steps", steps)
    c = np.abs(traj.coeffs)
    subnormal = np.any((c > 0) & (c < np.finfo(float).tiny), axis=1)
    _add(counts, "solver.states", len(traj.coeffs))
    _add(counts, "solver.subnormal_states", int(np.sum(subnormal)))


def _count_points(key, index):
    def count(counts, args, kwargs, result):
        _add(counts, key, int(np.size(args[index])))
    return count


def _count_breakpoints(counts, args, kwargs, result):
    _add(counts, "solver.breakpoints.nonempty", int(np.size(result) > 0))


def _count_segments(counts, args, kwargs, result):
    nodes = kwargs.get("nodes", args[3] if len(args) > 3 else 32)
    _add(counts, "quadrature.segments", len(result[0]) // int(nodes))


def _count_dir(prefix, index):
    def count(counts, args, kwargs, result):
        files, size = _dir_size(args[index])
        _add(counts, f"{prefix}.files", files)
        _add(counts, f"{prefix}.bytes", size)
    return count


def _count_pairs(counts, args, kwargs, result):
    _add(counts, "signals.aa_test.pairs", int(result.distances.size))


def _count_uc_samples(counts, args, kwargs, result):
    times = getattr(args[0], "times", None)
    if times is not None:
        _add(counts, "signals.uc_modulus.samples", len(times))


def _count_cover(counts, args, kwargs, result):
    centers = len(result[0])
    _add(counts, "compactness.cover.centers", centers)
    _add(counts, "compactness.cover.distance_rows", centers * len(args[0]))


def install(tracer):
    """Wrap every traced entry point; nonlinearities are wrapped as built."""

    def wrap_nonlinearity(spec):
        return dataclasses.replace(
            spec,
            fn=tracer.wrap("solver.g", spec.fn, _count_points("solver.g.points", 0)),
            lipschitz=tracer.wrap("solver.lipschitz", spec.lipschitz))

    for name, module, attr, kw in (
        ("cli.simulate", "aalab.cli", "cmd_simulate", {}),
        ("config.load", "aalab.config", "load_scenario", {}),
        ("spectral.basis", "aalab.spectral", "SpectralBasis.__init__", {}),
        ("spectral.assemble_basis", "aalab.spectral", "assemble_basis", {}),
        ("solver.make_nonlinearity", "aalab.solver", "make_nonlinearity",
         {"result_hook": wrap_nonlinearity}),
        ("solver.solve", "aalab.solver", "solve", {"count": _count_solve, "deferred": True}),
        ("solver.step", "aalab.solver", "Stepper.step", {}),
        ("solver.step_frozen", "aalab.solver", "Stepper.step_frozen", {}),
        ("solver.forcing", "aalab.solver", "ForcingSpec.mode_values",
         {"count": _count_points("solver.forcing.points", 1)}),
        ("solver.breakpoints", "aalab.solver", "ForcingSpec.breakpoints",
         {"count": _count_breakpoints}),
        ("solver.save", "aalab.solver", "save_trajectory",
         {"count": _count_dir("solver.save", 1), "deferred": True}),
        ("solver.load", "aalab.solver", "load_trajectory",
         {"count": _count_dir("solver.load", 0), "deferred": True}),
        ("quadrature", "aalab.quadrature", "quadrature_nodes", {"count": _count_segments}),
        ("signals.spike_train", "aalab.signals", "spike_train_value",
         {"count": _count_points("signals.spike_train.points", 1)}),
        ("signals.reciprocal_sine", "aalab.signals", "reciprocal_sine_value", {}),
        ("signals.stepanov", "aalab.signals", "stepanov_norm", {}),
        ("signals.window", "aalab.signals", "window_lp_norm", {}),
        ("signals.aa_test", "aalab.signals", "aa_translation_test", {"count": _count_pairs}),
        ("signals.uc_modulus", "aalab.signals", "uniform_continuity_modulus",
         {"count": _count_uc_samples}),
        ("util.ordered_map", "aalab.util", "ordered_map", {}),
        ("compactness.report", "aalab.compactness", "range_compactness_report", {}),
        ("compactness.cover", "aalab.compactness", "greedy_cover", {"count": _count_cover}),
        ("compactness.energy", "aalab.compactness", "energy_monotonicity_check", {}),
        ("compactness.subvariant", "aalab.compactness", "minimal_solution_select", {}),
    ):
        tracer.patch(name, module, attr, **kw)
    if "aalab.solver.make_nonlinearity" not in tracer.missing:
        tracer.declare("solver.g")
        tracer.declare("solver.lipschitz")


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------

class Pass:
    """Spans and counters of one traced pass (or of the traced set-up)."""

    def __init__(self, names, spans, counts):
        self.names = list(names)
        self.spans = spans
        self.counts = counts

    def _mask(self, name):
        if name not in self.names:
            return None
        return self.spans["name"] == self.names.index(name)

    def calls(self, name):
        m = self._mask(name)
        return None if m is None else int(np.sum(m))

    def total(self, name):
        m = self._mask(name)
        return None if m is None else float(np.sum(self.spans["end"][m] - self.spans["start"][m]))

    def self_time(self, name):
        m = self._mask(name)
        return None if m is None else float(np.sum(self.spans["self"][m]))

    def durations(self, name):
        m = self._mask(name)
        return None if m is None else self.spans["end"][m] - self.spans["start"][m]

    def count(self, key, span=None):
        """A counter; 0 when the traced target ran no call, None when missing."""
        if span is not None and span not in self.names:
            return None
        return self.counts.get(key, 0)

    def ratio(self, key, denominator_key, span):
        num, den = self.count(key, span), self.count(denominator_key, span)
        if num is None:
            return None
        return num / den if den else 0.0


def _step_percentile(q):
    def value(passes):
        durs = [p.durations("solver.step") for p in passes]
        if any(d is None for d in durs):
            return None
        pooled = np.concatenate(durs)
        return float(np.percentile(pooled, q)) * 1e6 if pooled.size else 0.0
    return value


def _per_pass(fn):
    """Median over traced passes of a per-pass value."""
    def value(passes):
        vals = [fn(p) for p in passes]
        return None if any(v is None for v in vals) else float(np.median(vals))
    return value


# (name, unit, function of the traced passes).  Spans include the children
# they cover; "self" subtracts them.  See bench/README.md for which
# end-to-end metric each is expected to move, on which workload.
PER_LAYER = [
    ("solver.step.count", "count", _per_pass(lambda p: p.calls("solver.step"))),
    ("solver.step.self_s", "s", _per_pass(lambda p: p.self_time("solver.step"))),
    ("solver.step.us_p50", "us", _step_percentile(50)),
    ("solver.step.us_p99", "us", _step_percentile(99)),
    ("solver.picard.sweeps_per_step", "sweeps",
     _per_pass(lambda p: p.ratio("solver.sweeps", "solver.steps", "solver.solve"))),
    ("solver.forcing.calls", "count", _per_pass(lambda p: p.calls("solver.forcing"))),
    ("solver.forcing.points", "count",
     _per_pass(lambda p: p.count("solver.forcing.points", "solver.forcing"))),
    ("solver.forcing.s", "s", _per_pass(lambda p: p.total("solver.forcing"))),
    ("solver.breakpoints.calls", "count", _per_pass(lambda p: p.calls("solver.breakpoints"))),
    ("solver.breakpoints.s", "s", _per_pass(lambda p: p.total("solver.breakpoints"))),
    ("solver.spiky_step_frac", "fraction",
     _per_pass(lambda p: p.ratio("solver.breakpoints.nonempty", "solver.steps",
                                 "solver.breakpoints"))),
    ("solver.g.calls", "count", _per_pass(lambda p: p.calls("solver.g"))),
    ("solver.g.points", "count", _per_pass(lambda p: p.count("solver.g.points", "solver.g"))),
    ("solver.g.s", "s", _per_pass(lambda p: p.total("solver.g"))),
    ("solver.subnormal_state_frac", "fraction",
     _per_pass(lambda p: p.ratio("solver.subnormal_states", "solver.states", "solver.solve"))),
    ("solver.save.s", "s", _per_pass(lambda p: p.total("solver.save"))),
    ("solver.save.bytes", "B", _per_pass(lambda p: p.count("solver.save.bytes", "solver.save"))),
    ("solver.save.files", "count",
     _per_pass(lambda p: p.count("solver.save.files", "solver.save"))),
    ("solver.load.s", "s", _per_pass(lambda p: p.total("solver.load"))),
    ("solver.load.bytes", "B", _per_pass(lambda p: p.count("solver.load.bytes", "solver.load"))),
    ("solver.matmul_flops", "flop.computed",
     _per_pass(lambda p: p.count("solver.matmul_flops", "solver.solve"))),
    ("quadrature.calls", "count", _per_pass(lambda p: p.calls("quadrature"))),
    ("quadrature.segments", "count",
     _per_pass(lambda p: p.count("quadrature.segments", "quadrature"))),
    ("quadrature.s", "s", _per_pass(lambda p: p.total("quadrature"))),
    ("signals.spike_train.points", "count",
     _per_pass(lambda p: p.count("signals.spike_train.points", "signals.spike_train"))),
    ("signals.spike_train.s", "s", _per_pass(lambda p: p.total("signals.spike_train"))),
    ("signals.reciprocal_sine.s", "s", _per_pass(lambda p: p.total("signals.reciprocal_sine"))),
    ("signals.stepanov.windows", "count", _per_pass(lambda p: p.calls("signals.window"))),
    ("signals.stepanov.s", "s", _per_pass(lambda p: p.total("signals.stepanov"))),
    ("signals.aa_test.pairs", "count",
     _per_pass(lambda p: p.count("signals.aa_test.pairs", "signals.aa_test"))),
    ("signals.aa_test.s", "s", _per_pass(lambda p: p.total("signals.aa_test"))),
    ("signals.uc_modulus.samples", "count",
     _per_pass(lambda p: p.count("signals.uc_modulus.samples", "signals.uc_modulus"))),
    ("signals.uc_modulus.s", "s", _per_pass(lambda p: p.total("signals.uc_modulus"))),
    ("compactness.cover.centers", "count",
     _per_pass(lambda p: p.count("compactness.cover.centers", "compactness.cover"))),
    ("compactness.cover.distance_rows", "count",
     _per_pass(lambda p: p.count("compactness.cover.distance_rows", "compactness.cover"))),
    ("compactness.cover.s", "s", _per_pass(lambda p: p.total("compactness.cover"))),
    ("compactness.energy.s", "s", _per_pass(lambda p: p.total("compactness.energy"))),
    ("compactness.subvariant.s", "s", _per_pass(lambda p: p.total("compactness.subvariant"))),
    ("config.load.s", "s", _per_pass(lambda p: p.total("config.load"))),
    ("cli.simulate.self_s", "s", _per_pass(lambda p: p.self_time("cli.simulate"))),
]
# Measured on the traced set-up rather than the passes.
SETUP_LAYER = [("spectral.basis.s", "s", lambda setup: setup.total("spectral.basis"))]
OVERHEAD = ("trace.overhead_frac", "fraction")


def layer_metrics(passes, setup, overhead):
    """Per-layer metrics by name; missing targets leave their metric out."""
    out = {}
    for name, unit, fn in PER_LAYER:
        value = fn(passes)
        if value is not None:
            out[name] = {"value": value, "unit": unit}
    for name, unit, fn in SETUP_LAYER:
        value = fn(setup)
        if value is not None:
            out[name] = {"value": value, "unit": unit}
    out[OVERHEAD[0]] = {"value": overhead, "unit": OVERHEAD[1]}
    return out


def save_spans(path, passes):
    """Write every traced pass's spans to one .npz (pass index as a column)."""
    cols = {k: np.concatenate([p.spans[k] for p in passes]) for k in passes[0].spans}
    cols["pass"] = np.concatenate([np.full(p.spans["name"].size, i)
                                   for i, p in enumerate(passes)])
    np.savez(path, names=np.array(passes[-1].names), **cols)
