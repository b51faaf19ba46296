"""aalab benchmark: one closed-loop client, three workloads, checked outputs.

Usage, from the root of a checkout:

    python3 bench/run.py --workload ref-march --seed 1 --seconds 20 --trace 0

``setup_s`` is the median, over several fresh processes, of the time from
starting the interpreter to having the seeded inputs built (imports, basis,
scenario, forcing, orbits).  Passes then repeat, serially, until ``--seconds`` have
elapsed; ``wall_s`` is their median.  Every pass is checked (see
workloads.py).  With ``--trace 1`` traced and untraced passes alternate and the
per-layer metrics replace the end-to-end ones.  The last line of standard output is the result JSON; the
line before it records the environment, output digests and any failures.
Scratch files, the result record and the spans go to ``.bench_work/``.
"""

import argparse
import os
import sys
import time

# One BLAS thread, fixed across runs and at most nproc; set before numpy loads.
BLAS_THREADS = "1"
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = BLAS_THREADS
# The seed alone decides the inputs: drop scenario overrides from the environment.
for _var in [v for v in os.environ if v.startswith("AALAB_")]:
    del os.environ[_var]

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SETUP_REPEATS = 5
MIN_PASSES = 3


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def measure_setup(args):
    """Wall time of fresh processes that import, build the inputs and exit."""
    import subprocess

    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-only"]
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        # No timeout: with one, Popen.wait polls in steps of up to 50 ms.
        subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - start)
    return times


def environment(seed):
    import hashlib
    import platform
    import numpy as np

    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    src = os.path.join(ROOT, "src", "aalab")
    h = hashlib.sha256()
    for dirpath, dirnames, files in sorted(os.walk(src)):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for f in sorted(files):
            with open(os.path.join(dirpath, f), "rb") as fh:
                h.update(f.encode() + fh.read())
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_threads": BLAS_THREADS,
        "git_commit": _git_commit(),
        "source_sha256": h.hexdigest(),
    }


def _git_commit():
    """HEAD of the checkout when it is a git work tree, read without git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


class Runner:
    """Times and checks passes; a pass whose output digest matches an
    already-checked one is accepted without re-running the oracles."""

    def __init__(self, workload, inputs):
        self.workload = workload
        self.inputs = inputs
        self.checked = set()
        self.digests = []
        self.failures = []
        self.attempted = 0

    def run_pass(self):
        import traceback

        self.attempted += 1
        start = time.perf_counter()
        try:
            out = self.workload.run(self.inputs)
        except Exception:  # a raising operation is a failed one; keep measuring
            self.failures.append(traceback.format_exc(limit=3))
            return time.perf_counter() - start
        wall = time.perf_counter() - start
        digest = self.workload.digest(out)
        self.digests.append(digest)
        if digest not in self.checked:
            fails = self.workload.check(self.inputs, out)
            if fails:
                self.failures.append("; ".join(fails))
            else:
                self.checked.add(digest)
        return wall

    def run_for(self, seconds):
        walls = []
        deadline = time.perf_counter() + seconds
        while len(walls) < MIN_PASSES or time.perf_counter() < deadline:
            walls.append(self.run_pass())
        return walls


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "aalab", "__init__.py")):
        print(f"error: no aalab sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))

    import json
    import resource
    import statistics

    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"known: {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workdir = os.path.join(ROOT, ".bench_work")
    workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
    if args.setup_only:
        workload.setup()
        return 0

    setups = measure_setup(args)
    runner = Runner(workload, workload.setup())
    record = {"workload": args.workload, "trace": args.trace,
              "env": environment(args.seed), "setup_runs_s": setups}
    if args.trace:
        # Traced and untraced passes alternate, so drifts in machine speed
        # cancel out of trace.overhead_frac.  The traced set-up rebuilds the
        # inputs so objects made at set-up carry the wrappers too.
        plain_inputs, tracer = runner.inputs, tracing.Tracer()
        tracing.install(tracer)
        traced_inputs = workload.setup()
        setup_pass = tracer.take()
        tracer.restore()
        walls, traced, passes = [], [], []
        deadline = time.perf_counter() + args.seconds
        while len(traced) < MIN_PASSES or time.perf_counter() < deadline:
            runner.inputs = plain_inputs
            walls.append(runner.run_pass())
            tracing.install(tracer)
            runner.inputs = traced_inputs
            traced.append(runner.run_pass())
            passes.append(tracer.take())
            tracer.restore()
        overhead = statistics.median(traced) / statistics.median(walls) - 1.0
        metrics = tracing.layer_metrics(passes, setup_pass, overhead)
        record.update(missing_targets=tracer.missing, traced_walls_s=traced)
        tracing.save_spans(os.path.join(workdir, f"spans-{args.workload}.npz"), passes)
    else:
        walls = runner.run_for(args.seconds)
        wall = statistics.median(walls)
        metrics = {
            "wall_s": {"value": wall, "unit": "s"},
            "steps_per_s": {"value": workload.states / wall, "unit": "1/s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                            "unit": "MB"},
        }
    failed = len(runner.failures)
    record.update(walls_s=walls, digests=sorted(set(runner.digests)),
                  failures=runner.failures, fail_frac=failed / runner.attempted)
    result = {"correct": failed == 0, "attempted": runner.attempted, "failed": failed,
              "metrics": metrics}
    os.makedirs(os.path.join(workdir, "results"), exist_ok=True)
    with open(os.path.join(workdir, "results",
                           f"{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump({**record, "result": result}, fh, indent=1, default=float)
    print(json.dumps(record, default=float))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
