"""Command-line experiment driver: ``simulate``, ``signal``, ``diagnose``.

Exit codes: 0 success, 1 configuration or usage error (a solve that needs
a smaller ``dt`` among them), 2 blow-up detected, 3 a diagnostic printed a
FAIL verdict.
All quantitative output is CSV with 15-significant-digit floats; each run
directory gets exactly one manifest echoing the effective configuration, so
every verdict can be recomputed from the emitted files alone.
"""

import argparse
from dataclasses import replace
import os
import sys
import time

import numpy as np

from . import __version__
from .compactness import (energy_monotonicity_check, minimal_solution_select,
                          range_compactness_report, subvariant_eval)
from .config import ConfigError, builtin_config_path, load_scenario
from .signals import (StepanovConfig, aa_translation_test, resolve_signal,
                      power_shift_ladder, sqrt2_shift_ladder, stepanov_norm,
                      uniform_continuity_modulus)
from .solver import (NonContractionError, PicardError, load_trajectory, save_trajectory,
                     solve)
from .util import fmt15


def _resolve_config_path(name):
    if os.path.exists(name):
        return name
    try:
        return builtin_config_path(name)
    except ConfigError:
        raise ConfigError(f"config not found: {name!r} (not a file, not bundled)")


def _manifest_header(kind, echo):
    lines = [f"command = {kind}",
             f"version.aalab = {__version__}",
             f"version.numpy = {np.__version__}"]
    lines += [f"{k} = {v}" for k, v in sorted(echo.items())]
    return lines


def _emit(lines, out_path):
    """Write ``lines`` to the file ``out_path``, or to stdout without one."""
    text = "\n".join(lines) + "\n"
    if out_path is None:
        sys.stdout.write(text)
    else:
        os.makedirs(os.path.dirname(out_path) or ".", exist_ok=True)
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def _counting(nonlinearity, points):
    """``nonlinearity`` adding the number of values of each evaluation to
    ``points[0]``: the grid points g is applied to, whatever the batching."""
    def fn(r):
        points[0] += np.size(r)
        return nonlinearity.fn(r)
    return replace(nonlinearity, fn=fn)


def cmd_simulate(args):
    path = _resolve_config_path(args.config)
    scenario = load_scenario(path)
    outdir = args.out or scenario["output.dir"]
    basis = scenario.basis()
    cfg = scenario.solver_config()
    nonlinearity = scenario.nonlinearity()
    forcing = scenario.forcing(basis)
    x0 = scenario.initial_field(basis)

    points = [0]
    start = time.time()
    traj = solve(x0, cfg, _counting(nonlinearity, points), forcing)
    wall = time.time() - start
    save_trajectory(traj, outdir)
    save_clock = time.time() - start - wall

    lines = _manifest_header("simulate", scenario.values)
    lines.append(f"config_file = {path}")
    lines.append(f"stamps = {len(traj.stamps)}")
    lines.append(f"spiky_steps = {traj.spiky_steps}")
    lines.append(f"picard_max = {traj.picard_counts.max(initial=0)}")
    lines.append(f"picard_sweeps = {points[0] // (basis.grid + 1)}")
    lines.append(f"linear_steps = {np.count_nonzero(traj.picard_counts == -1)}")
    lines.append(f"sup_trace_max = {fmt15(np.max(traj.sup_trace))}")
    lines.append(f"blown_up = {traj.blown_up}")
    if traj.blowup_time is not None:
        lines.append(f"blowup_time = {fmt15(traj.blowup_time)}")
    lines.append(f"wall_clock_s = {wall:.3f}")
    lines.append(f"save_clock_s = {save_clock:.3f}")
    _emit(lines, os.path.join(outdir, "manifest.txt"))

    if traj.blown_up:
        print(f"BLOWUP at t = {fmt15(traj.blowup_time)} (cap {fmt15(cfg.blowup_cap)})")
        return 2
    print(f"OK {len(traj.stamps)} stamps, sup-norm max {fmt15(np.max(traj.sup_trace))}, "
          f"artifacts in {outdir}")
    return 0


# ---------------------------------------------------------------------------
# signal
# ---------------------------------------------------------------------------

def cmd_signal(args):
    sig = resolve_signal(args.id, n_max=args.nmax, level=args.level)
    if args.signal_cmd == "eval":
        ts = [float(tok) for tok in args.t.split(",")]
        rows = ["t,value"]
        for t in ts:
            rows.append(f"{fmt15(t)},{fmt15(sig.eval(np.float64(t)))}")
        _emit(rows, args.out)
        return 0
    if args.signal_cmd == "norm":
        cfg = StepanovConfig(p=args.p, nodes=args.nodes, t_min=args.tmin,
                             t_max=args.tmax, stride=args.stride)
        value = stepanov_norm(sig, cfg)
        _emit(["id,p,t_min,t_max,stride,value",
               f"{args.id},{fmt15(args.p)},{fmt15(args.tmin)},{fmt15(args.tmax)},"
               f"{fmt15(args.stride)},{fmt15(value)}"], args.out)
        return 0
    # aa-test
    if args.ladder == "pow3":
        ladder = power_shift_ladder(args.ladder_size)
    elif args.ladder == "sqrt2":
        ladder = sqrt2_shift_ladder(args.ladder_size)
    else:
        ladder = np.array([float(tok) for tok in args.ladder.split(",")])
    windows = np.array([float(tok) for tok in args.windows.split(",")])
    cfg = StepanovConfig(p=args.p, nodes=args.nodes, threshold=args.threshold)
    report = aa_translation_test(sig, ladder, cfg, windows)
    rows = ["n,m,shift_n,shift_m,distance"]
    for n in range(len(ladder)):
        for m in range(len(ladder)):
            rows.append(f"{n},{m},{fmt15(ladder[n])},{fmt15(ladder[m])},"
                        f"{fmt15(report.distances[n, m])}")
    _emit(rows, args.out)
    print(f"verdict {report.verdict} tail {','.join(fmt15(x) for x in report.tail)}")
    return 0


# ---------------------------------------------------------------------------
# diagnose
# ---------------------------------------------------------------------------

def cmd_diagnose(args):
    sub = args.diag_cmd
    outdir = args.out

    if sub == "energy":
        u = load_trajectory(args.trajdirs[0])
        v = load_trajectory(args.trajdirs[1])
        trace = energy_monotonicity_check(u, v, tolerance=args.tolerance)
        rows = ["t,energy_diff"]
        rows += [f"{fmt15(t)},{fmt15(e)}" for t, e in zip(trace.stamps, trace.values)]
        _emit(rows, os.path.join(outdir, "energy.csv") if outdir else None)
        verdict = trace.verdict
        print(f"{verdict} max forward jump {fmt15(trace.max_forward_jump)} "
              f"{'<=' if trace.passed else '>'} {fmt15(trace.tolerance)}")

    elif sub == "compactness":
        traj = load_trajectory(args.trajdirs[0])
        eps = [float(tok) for tok in args.eps.split(",")]
        report = range_compactness_report(traj, eps, strides=(2, 1))
        rows = ["stride,eps,n_balls"]
        for i, stride in enumerate(report.strides):
            for j, e in enumerate(report.epsilons):
                rows.append(f"{stride},{fmt15(e)},{report.counts[i, j]}")
        _emit(rows, os.path.join(outdir, "compactness.csv") if outdir else None)
        verdict = "PASS" if report.stable else "FAIL"
        print(f"{verdict} cover counts "
              f"{'stable' if report.stable else 'changed'} across densities: "
              + ";".join(",".join(str(c) for c in row) for row in report.counts))

    elif sub == "subvariant":
        trajs = [load_trajectory(d) for d in args.trajdirs]
        report = minimal_solution_select(trajs, args.functional)
        rows = ["candidate,value"]
        rows += [f"{i},{fmt15(v)}" for i, v in enumerate(report.values)]
        _emit(rows, os.path.join(outdir, "subvariant.csv") if outdir else None)
        gap = "" if report.parallelogram_gap is None else \
            f" parallelogram gap {fmt15(report.parallelogram_gap)}"
        print(f"PASS argmin {report.argmin} ({report.verdict}){gap}"
              + (" tie" if report.tied else ""))
        verdict = "PASS"

    else:  # uc-modulus
        traj = load_trajectory(args.trajdirs[0])
        deltas = [float(tok) for tok in args.deltas.split(",")]
        table = uniform_continuity_modulus(traj.as_signal(), deltas)
        rows = ["delta,omega"]
        rows += [f"{fmt15(d)},{fmt15(w)}" for d, w in table]
        _emit(rows, os.path.join(outdir, "uc_modulus.csv") if outdir else None)
        nondecreasing = bool(np.all(np.diff(table[:, 1]) >= -1e-15))
        verdict = "PASS" if nondecreasing else "FAIL"
        print(f"{verdict} omega table "
              f"{'nondecreasing' if nondecreasing else 'NOT monotone'}; "
              f"omega({fmt15(table[0, 0])}) = {fmt15(table[0, 1])}")

    if outdir:
        lines = _manifest_header(f"diagnose {sub}", {})
        lines.append(f"trajdirs = {';'.join(args.trajdirs)}")
        lines.append(f"verdict = {verdict}")
        _emit(lines, os.path.join(outdir, "manifest.txt"))
    return 3 if verdict == "FAIL" else 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", default=None, help="output file or directory")

    parser = argparse.ArgumentParser(prog="aalab",
                                     description="almost-automorphy laboratory")
    sub = parser.add_subparsers(dest="cmd", required=True)

    sim = sub.add_parser("simulate", parents=[common],
                         help="run a scenario config and persist the trajectory")
    sim.add_argument("--config", required=True,
                     help="scenario file path or bundled name (decay, reference, blowup)")
    sim.set_defaults(fn=cmd_simulate)

    sig = sub.add_parser("signal", help="signal registry operations")
    sig_sub = sig.add_subparsers(dest="signal_cmd", required=True)
    for name in ("eval", "norm", "aa-test"):
        p = sig_sub.add_parser(name, parents=[common])
        p.add_argument("id", help="signal id: bump, beta, a, b, sin, const:<c>, sampled:<path>")
        p.add_argument("--nmax", type=int, default=6, help="spike-train level cutoff")
        p.add_argument("--level", type=int, default=1, help="level for the beta signal")
        if name == "eval":
            p.add_argument("--t", required=True, help="time(s), comma separated")
        else:
            p.add_argument("--nodes", type=int, default=32)
            p.add_argument("--p", type=float, default=1.0)
        if name == "norm":
            p.add_argument("--tmin", type=float, default=0.0)
            p.add_argument("--tmax", type=float, default=10.0)
            p.add_argument("--stride", type=float, default=0.125)
        if name == "aa-test":
            p.add_argument("--ladder", default="pow3",
                           help="pow3, sqrt2, or comma-separated shifts")
            p.add_argument("--ladder-size", type=int, default=5)
            p.add_argument("--windows", default="0.0,2.5,8.5",
                           help="window left endpoints, comma separated")
            p.add_argument("--threshold", type=float, default=1e-3)
        p.set_defaults(fn=cmd_signal)

    diag = sub.add_parser("diagnose", help="trajectory diagnostics")
    diag_sub = diag.add_subparsers(dest="diag_cmd", required=True)
    for name, nargs in (("compactness", 1), ("energy", 2), ("subvariant", "+"),
                        ("uc-modulus", 1)):
        p = diag_sub.add_parser(name, parents=[common])
        p.add_argument("trajdirs", nargs=nargs, help="trajectory director(ies)")
        if name == "compactness":
            p.add_argument("--eps", default="0.2,0.1,0.05")
        if name == "energy":
            p.add_argument("--tolerance", type=float, default=1e-8)
        if name == "subvariant":
            p.add_argument("--functional", default="sup-norm",
                           choices=("sup-norm", "energy-sup"))
        if name == "uc-modulus":
            p.add_argument("--deltas", default="1e-2,2e-2,5e-2,1e-1")
        p.set_defaults(fn=cmd_diagnose)

    return parser


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse uses 2 for usage errors; here 2 means blow-up
        return 0 if exc.code == 0 else 1
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (FileNotFoundError, KeyError, ValueError, NonContractionError, PicardError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
