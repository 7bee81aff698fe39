#!/usr/bin/env python3
"""magbern benchmark: drive the CLI in-process on seeded workloads.

Run from the repository root:

    python3 bench/run.py --workload torus-spectral --seed 0 --seconds 30 --trace 0

One process, one client, closed loop: each `magbern.cli.main(argv)` call
starts after the previous one returns.  The workload's invocations form a
pass.  A run makes one full pass, then keeps cycling through the
invocations while the next one still fits in --seconds; `wall_s` is the sum
of each invocation's median time, i.e. the time of one pass.  Every
invocation's outputs
are checked (see checks.py).  With --trace 0 the last stdout line holds the
end-to-end metrics; with --trace 1 it holds the per-layer metrics of a run
that makes one untraced and one traced pass.  Scratch files go to
.bench_out/ under the current directory.  See README.md for the workloads,
metrics and baseline.
"""

from __future__ import annotations

import argparse
import contextlib
import glob
import hashlib
import io
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
import warnings
from pathlib import Path

HERE = Path(__file__).resolve().parent
OUT = Path(".bench_out")
SETUP_REPS = 5
COMMANDS = ("specineq", "control", "thickness", "wegner", "bernstein", "remez",
            "weyl-verify", "fm")

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}

CALLS_AND_SELF = (
    "lattice.eigensolve", "lattice.assemble", "lattice.matrix",
    "disorder.window_counts_for_trials", "landau.LadderField.eval",
    "inequality.remez_check", "inequality.kovrijkine_check",
    "inequality.sup_abs_on_interval", "inequality.sup_abs_on_intervals",
    "inequality.empirical_constant", "inequality.theoretical_constant_log",
    "control.hum_control", "control.gramian", "control.masked_form",
    "control.state_trajectory", "control.cost_bound_log",
    "geometry.read_pbm", "geometry.thickness_scan", "geometry.window_counts",
    "algebra.verify_recursion", "algebra.weyl3d_reduction", "algebra.f_poly",
    "algebra.bernstein_constant",
)
SELF_ONLY = (
    "landau.sample_ladder", "landau.magnetic_derivative", "landau.bernstein_sum",
    "landau.l1_bernstein_sum", "landau.mod2_derivative_word", "landau.norm2",
    "landau.boundary_mass_fraction", "cli.parse_config", "cli",
)
MODULES = ("cli", "algebra", "landau", "lattice", "geometry", "inequality", "control",
           "disorder")
COUNTERS = {
    "lattice.eigensolve.dense_calls": "count",
    "lattice.eigensolve.arpack_calls": "count",
    "lattice.eigensolve.pairs": "count",
    "lattice.eigensolve.residual_max": "ratio",
    "disorder.window_counts_for_trials.trials": "count",
    "disorder.window_counts_for_trials.eigs_computed": "count",
    "disorder.window_counts_for_trials.window_hits": "count",
    "landau.LadderField.eval.points": "count",
    "landau.envelope_evals": "count",
    "inequality.sup_grid_points": "count",
    "control.gramian_condition_max": "ratio",
    "geometry.cells_scanned": "count",
    "cli.bytes_written": "bytes",
}
PER_LAYER = {
    **{f"{n}.{k}": u for n in CALLS_AND_SELF for k, u in (("calls", "count"), ("self_s", "s"))},
    **{f"{n}.self_s": "s" for n in SELF_ONLY},
    **COUNTERS,
    "disorder.useful_ratio": "ratio",
    "landau.envelope_distinct": "count",
    "landau.envelope_useful_ratio": "ratio",
    **{f"{m}.total_self_s": "s" for m in MODULES},
    **{f"{c.replace('-', '_')}_s": "s" for c in COMMANDS},
    "cli.fail_frac": "ratio",
    "trace.overhead_ratio": "ratio",
}


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-reference", action="store_true",
                    help="run one pass and add its outputs to reference/<workload>.json")
    return ap.parse_args(argv)


# -- measurement -------------------------------------------------------------------


class Measurement:
    """Per-invocation timings and the failures of a run of the workload."""

    def __init__(self, invocations):
        self.invocations = invocations
        self.times = {inv.key: [] for inv in invocations}
        self.attempted = 0
        self.failures = []  # (key, problems)
        self.records = {}  # reference key -> record

    def pass_seconds(self, command=None) -> float:
        """Time of one pass (or of one command's calls in it): the sum over
        invocations of the median of each invocation's timings."""
        return sum(statistics.median(self.times[inv.key]) for inv in self.invocations
                   if command in (None, inv.command))


def run_invocation(cli, argv, tracer=None, key=""):
    """(exit code, seconds, captured output) of one in-process CLI call."""
    sink = io.StringIO()
    with warnings.catch_warnings(record=True), contextlib.redirect_stdout(sink), \
            contextlib.redirect_stderr(sink):
        warnings.simplefilter("always")
        start = time.perf_counter()
        try:
            if tracer is None:
                code = cli.main(argv)
            else:
                with tracer.root(key):
                    code = cli.main(argv)
        except Exception:  # a crash is a failed invocation, not a failed benchmark
            code = -1
            traceback.print_exc(file=sink)
        elapsed = time.perf_counter() - start
    return code, elapsed, sink.getvalue()


def measure(cli, invocations, out_root, checker, seconds=0.0, tracer=None) -> Measurement:
    """Cycle through the invocations: one full pass, then more invocations
    while the next one's last timing still fits in `seconds`."""
    import checks

    m = Measurement(invocations)
    start = time.perf_counter()
    for i in itertools.count():
        inv = invocations[i % len(invocations)]
        if i >= len(invocations) and (
                time.perf_counter() - start + m.times[inv.key][-1] > seconds):
            break
        shutil.rmtree(out_root / inv.key, ignore_errors=True)
        argv = inv.full_argv(out_root)
        code, elapsed, output = run_invocation(cli, argv, tracer, inv.key)
        m.times[inv.key].append(elapsed)
        m.attempted += 1
        try:
            rec = checks.extract(argv, out_root / inv.key, code)
            problems = checker.check(argv, rec)
            m.records[checks.reference_key(argv)] = rec
        except (OSError, KeyError, ValueError, IndexError) as exc:
            problems = [f"unreadable output: {exc!r}"]
        if problems:
            m.failures.append((inv.key, problems + [output[-2000:]]))
    return m


# -- set-up ----------------------------------------------------------------------------


def measure_setup(warm, out_root, src) -> float:
    """Median wall time of a fresh interpreter importing magbern.cli and
    running each warm-up invocation once."""
    env = dict(os.environ, PYTHONPATH=str(src))
    argvs = json.dumps([inv.full_argv(out_root) for inv in warm])
    times = []
    for _ in range(SETUP_REPS):
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, str(HERE / "setup_probe.py"), argvs],
                              env=env, capture_output=True, text=True, timeout=150)
        times.append(time.perf_counter() - start)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed ({proc.returncode}): {proc.stderr[-2000:]}")
    return statistics.median(times)


# -- environment -------------------------------------------------------------------------


def _blas_threads() -> dict:
    """Thread count of each bundled OpenBLAS (numpy's and scipy's)."""
    import ctypes

    import numpy
    import scipy

    out = {}
    for pkg in (numpy, scipy):
        libs = Path(pkg.__file__).parent.parent / f"{pkg.__name__}.libs"
        for path in glob.glob(str(libs / "*openblas*")):
            lib = ctypes.CDLL(path)
            for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                        "openblas_get_num_threads"):
                fn = getattr(lib, sym, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    out[pkg.__name__] = fn()
                    break
    return out


def _git_rev(root: Path) -> str:
    if not (root / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                              text=True, timeout=10, check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def environment(args, root, src, invocations, out_root) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    digest = hashlib.sha256()
    for path in sorted((src / "magbern").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
        "git_rev": _git_rev(root),
        "src_sha256": digest.hexdigest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "argv": [inv.full_argv(out_root) for inv in invocations],
    }


# -- metrics --------------------------------------------------------------------------------


def layer_metrics(tracer, untraced: Measurement, traced: Measurement) -> dict:
    import tracing

    table = tracing.layer_table(tracer.spans)
    table.pop(tracing.OBSERVE, None)
    c = tracer.counts
    m = {}
    empty = {"calls": 0, "self_s": 0.0}
    for name in CALLS_AND_SELF:
        m[f"{name}.calls"] = table.get(name, empty)["calls"]
    for name in CALLS_AND_SELF + SELF_ONLY:
        m[f"{name}.self_s"] = table.get(name, empty)["self_s"]
    for name in COUNTERS:
        m[name] = tracer.maxima.get(name, c.get(name, 0))
    distinct = len(tracer.distinct["landau.envelope_distinct"])
    m["landau.envelope_distinct"] = distinct
    m["landau.envelope_useful_ratio"] = _ratio(distinct, c["landau.envelope_evals"])
    m["disorder.useful_ratio"] = _ratio(c["disorder.window_counts_for_trials.window_hits"],
                                        c["disorder.window_counts_for_trials.eigs_computed"])
    for mod in MODULES:
        m[f"{mod}.total_self_s"] = sum(row["self_s"] for name, row in table.items()
                                       if name.split(".")[0] == mod)
    for cmd in COMMANDS:
        m[f"{cmd.replace('-', '_')}_s"] = untraced.pass_seconds(cmd)
    failed = len(untraced.failures) + len(traced.failures)
    m["cli.fail_frac"] = _ratio(failed, untraced.attempted + traced.attempted)
    m["trace.overhead_ratio"] = traced.pass_seconds() / untraced.pass_seconds()
    return m


def _ratio(num: float, den: float) -> float:
    return float(num) / den if den else 0.0


def _report(values: dict, units: dict) -> dict:
    return {k: {"value": float(values[k]), "unit": u} for k, u in units.items()}


# -- main -------------------------------------------------------------------------------------


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    src = root / "src"
    if not (src / "magbern" / "cli.py").is_file():
        print("bench: src/magbern/cli.py not found; run from the repository root",
              file=sys.stderr)
        return 2
    # BLAS threads <= cores, fixed before numpy is first imported
    os.environ.setdefault("OPENBLAS_NUM_THREADS", str(min(2, len(os.sched_getaffinity(0)))))
    sys.path.insert(0, str(src))

    import checks
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    work = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    invocations = workloads.generate(args.workload, args.seed, work / "inputs")
    warm = workloads.warmups(args.workload, work / "inputs")
    reference_path = HERE / "reference" / f"{args.workload}.json"
    checker = checks.Checker(reference_path)
    checker_problems = checks.self_test(checker.references)

    import magbern.cli as cli

    for inv in warm:
        code, _, output = run_invocation(cli, inv.full_argv(work / "warmup"))
        if code != 0:
            print(f"bench: warm-up {inv.argv} failed ({code}):\n{output}", file=sys.stderr)
            return 1
    env = environment(args, root, src, invocations, work / "out")

    if args.record_reference:
        p = measure(cli, invocations, work / "out", checker)
        if p.failures:
            print(json.dumps(p.failures, indent=1), file=sys.stderr)
            return 1
        stored = json.loads(reference_path.read_text()) if reference_path.exists() else {
            "float_rtol": checks.FLOAT_RTOL, "seeds": [], "entries": {}}
        stored["seeds"] = sorted(set(stored["seeds"]) | {args.seed})
        stored["entries"].update(p.records)
        reference_path.write_text(json.dumps(stored, indent=1, sort_keys=True) + "\n")
        print(f"recorded {len(p.records)} invocations for seed {args.seed}")
        return 0

    if args.trace:
        import tracing

        untraced = measure(cli, invocations, work / "out", checker)
        tracer = tracing.Tracer()
        with tracer.install():
            traced = measure(cli, invocations, work / "out", checker, tracer=tracer)
        tracing.write_spans(tracer.spans, work / "spans.jsonl")
        runs = [untraced, traced]
        metrics = _report(layer_metrics(tracer, untraced, traced), PER_LAYER)
    else:
        setup_s = measure_setup(warm, work / "setup", src)
        runs = [measure(cli, invocations, work / "out", checker, args.seconds)]
        values = {
            "setup_s": setup_s,
            "wall_s": runs[0].pass_seconds(),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = _report(values, END_TO_END)

    attempted = sum(r.attempted for r in runs)
    failures = [f for r in runs for f in r.failures]
    env.update(timings=[r.times for r in runs], reference_hits=checker.reference_hits,
               checker_self_test=checker_problems or "ok",
               failures=[{"invocation": k, "problems": pr} for k, pr in failures])
    (work / "run_info.json").write_text(json.dumps(env, indent=1) + "\n")
    for key, problems in failures:
        print(f"bench: {key} failed: {problems}", file=sys.stderr)
    for problem in checker_problems:
        print(f"bench: checker self-test: {problem}", file=sys.stderr)
    print(json.dumps({"env": env}))
    print(json.dumps({
        "correct": not failures and not checker_problems,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
