"""Benchmark entry point for monoratio.

    python3 perfbench/run.py --workload certify --seed 0 --seconds 25 --trace 0

Run it from the root of a source checkout: it imports the package from
`src/` and refuses to run without it. One invocation runs one workload (see
`workloads.py`) in this single process, with BLAS pinned to one thread and
sweeps at the default `jobs=1`:

1. set-up: several fresh interpreters each import monoratio and generate the
   workload's inputs; `setup_s` is their median;
2. one warm-up job, then the fixed job repeated until `--seconds` have
   passed. Every job's outputs are checked, and its digest must match the
   warm-up's. The workload's calibration kernel runs between consecutive
   jobs and probes, and each time is reported relative to the kernel runs
   on either side of it (`Calibrated.normalize`);
3. with `--trace 0` the last stdout line holds the end-to-end metrics; with
   `--trace 1` untraced and traced jobs alternate and it holds the
   per-layer metrics.

`--workload all` runs every workload, each in its own child process. Details
(provenance, failed tasks, tail ranks, absent trace targets) go to
`perfbench/out/`, as do the spans of one traced job.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

from tracing import Counters, LayerSummary, Tracer  # noqa: E402  (standard library only)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
NAMES = ("sweeps", "certify", "quadratic_curves")
SETUP_PROBES = 5
CHILD_TIMEOUT_S = 170
SPANS_WRITTEN = 20000

perf = time.perf_counter


def import_package():
    """Import monoratio from this checkout's `src/`, or exit with code 2."""
    if not os.path.isfile(os.path.join(SRC, "monoratio", "__init__.py")):
        print(f"perfbench: no src/monoratio under {ROOT}; run from a source checkout",
              file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, SRC)
    import monoratio
    if not os.path.abspath(monoratio.__file__).startswith(SRC + os.sep):
        print(f"perfbench: imported monoratio from {monoratio.__file__}, not {SRC}",
              file=sys.stderr)
        sys.exit(2)
    import workloads
    return monoratio, workloads


def setup_probe(name: str, seed: int) -> None:
    """Child side of the set-up measurement: import and generate, print time."""
    t0 = perf()
    _, workloads = import_package()
    workloads.WORKLOADS[name].setup(seed)
    print(repr(perf() - t0))


class Calibrated:
    """Times measured between runs of a workload's calibration kernel.

    `normalize` scales a time by `ref_s` over the mean of the two kernel
    timings that bracket it: the time the work would take with the kernel
    running at its reference speed.
    """

    def __init__(self, kernel, ref_s: float):
        self.kernel, self.ref_s = kernel, ref_s
        self.kernel_s: list[float] = []
        self.mark()

    def mark(self) -> float:
        """Time the kernel once; the next `normalize` starts from here."""
        t0 = perf()
        self.kernel()
        self.last = perf() - t0
        self.kernel_s.append(self.last)
        return self.last

    def normalize(self, seconds: float) -> float:
        before = self.last
        return seconds * self.ref_s / ((before + self.mark()) / 2)


def measure_setup(name: str, seed: int, calibrated: Calibrated) -> tuple[float, list]:
    """(median normalized set-up time, raw probe times)."""
    raw, norm = [], []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--setup-probe",
             "--workload", name, "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
            check=True)
        raw.append(float(done.stdout.strip().splitlines()[-1]))
        norm.append(calibrated.normalize(raw[-1]))
    return statistics.median(norm), raw


def provenance(seed: int, args) -> dict:
    import numpy
    import scipy
    commit = None
    if os.path.exists(os.path.join(ROOT, ".git")):  # never search parent directories
        try:
            done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                  capture_output=True, text=True, timeout=10)
            if done.returncode == 0:
                commit = done.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    src = hashlib.sha256()
    pkg = os.path.join(SRC, "monoratio")
    for fname in sorted(os.listdir(pkg)):
        if fname.endswith(".py"):
            with open(os.path.join(pkg, fname), "rb") as fh:
                src.update(fname.encode() + fh.read())
    return {
        "workload": args.workload, "seed": seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "blas_threads": {v: os.environ[v] for v in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "machine": platform.machine(), "git_commit": commit,
        "source_sha256": src.hexdigest(),
    }


class Runner:
    """Runs, times and checks the jobs of one workload."""

    def __init__(self, workloads, name: str, seed: int):
        self.wl = workloads.WORKLOADS[name]
        self.ctx = self.wl.setup(seed)
        self.ref = self.wl.reference(self.ctx)
        self.counters = Counters()
        self.counters.install()
        self.attempted = 0
        self.failures: list[tuple[str, str]] = []
        self.digest = None
        self.last = None

    def job(self, tracer=None):
        """One timed job; returns (wall seconds, oracle calls)."""
        self.counters.reset()
        gc.collect()
        patch = None
        if tracer is not None:
            # hundreds of thousands of span records would otherwise trigger
            # cyclic-GC passes that the untraced job never pays for
            gc.disable()
            patch = tracer.install()
        outs = {}
        t0 = perf()
        for group, fn in self.wl.groups(self.ctx):
            if tracer is not None:
                tracer.task = group
            try:
                outs[group] = fn()
            except Exception as exc:  # a failed task is reported, not fatal
                traceback.print_exc(file=sys.stderr)
                outs[group] = exc
        wall = perf() - t0
        if patch is not None:
            patch.restore()
            gc.enable()
        calls = self.counters.oracle_calls()
        verdict = self.wl.check(self.ctx, self.ref, outs, self.counters.fw_runs)
        if self.digest is None:
            self.digest = verdict.hexdigest
        verdict.task("determinism", verdict.hexdigest == self.digest,
                     "digest differs from the first job")
        self.attempted += len(verdict.tasks)
        self.failures += [(name, note) for name, ok, note in verdict.tasks if not ok]
        self.last = verdict
        return wall, calls


def run_workload(args) -> dict:
    _, workloads = import_package()
    name, seed = args.workload, args.seed
    runner = Runner(workloads, name, seed)
    calibrated = Calibrated(runner.wl.calibrate, workloads.CALIBRATION_REF_S)
    setup_s, setup_raw = measure_setup(name, seed, calibrated)
    runner.job()  # warm-up: lazy imports inside scipy, first-call caches

    tracer = Tracer() if args.trace else None
    summary = LayerSummary()
    spans_dump = None
    if tracer is not None:
        for _ in range(3):
            tracer.reset()
            tracer.task = "setup"
            patch = tracer.install()
            runner.wl.setup(seed)
            patch.restore()
            summary.add_setup(tracer.spans)

    walls, traced_walls, raw_walls, calls = [], [], [], []
    deadline = perf() + args.seconds
    calibrated.mark()  # the first job starts right after a kernel timing
    while perf() < deadline or len(walls) < 2 or (tracer and len(traced_walls) < 2):
        traced = tracer is not None and len(walls) > len(traced_walls)
        if traced:
            tracer.reset()
            wall, _ = runner.job(tracer)
            traced_walls.append(calibrated.normalize(wall))
            summary.add_job(tracer, wall)
            if spans_dump is None:
                spans_dump = tracer.spans
        else:
            wall, n_calls = runner.job()
            raw_walls.append(wall)
            walls.append(calibrated.normalize(wall))
            calls.append(n_calls)

    failed = len(runner.failures)
    attempted = runner.attempted
    detail = {"provenance": provenance(seed, args), "jobs": len(walls),
              "wall_raw_s": statistics.median(raw_walls),
              "calibration_kernel_s": calibrated.kernel_s,
              "traced_jobs": len(traced_walls), "digest": runner.digest,
              "tasks_per_job": len(runner.last.tasks),
              "tasks_failed_frac": failed / attempted,
              "absent_counters": runner.counters.patcher.absent,
              "failed_tasks": runner.failures[:20]}
    if tracer is None:
        fractions = runner.last.fractions  # every job checks the same outputs
        metrics = {
            "setup_s": (setup_s, "s"),
            "wall_s": (statistics.median(walls), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "oracle_calls": (float(statistics.median(calls)), "count"),
            "quality": (sum(fractions) / len(fractions) if fractions else 0.0, "frac"),
            "tasks_ok_frac": (1.0 - failed / attempted, "frac"),
        }
        detail.update(wall_s_all=walls, wall_raw_s_all=raw_walls, setup_raw_s=setup_raw)
    else:
        overhead = statistics.median(traced_walls) / statistics.median(walls) - 1.0
        layer = summary.metrics(overhead)
        metrics = {key: (value, _unit(key)) for key, value in layer.items()}
        detail.update(tail_ranks=summary.tail_ranks, absent=tracer.absent,
                      baseline_n7=summary.baseline_figures(),
                      untraced_wall_s=walls, traced_wall_s=traced_walls)
    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, f"{name}-seed{seed}-trace{args.trace}")
    with open(stem + ".json", "w") as fh:
        json.dump({**detail, "metrics": {k: v for k, (v, _) in metrics.items()}},
                  fh, indent=1, default=str)
    if spans_dump is not None:
        # parents open before their children, so any prefix is self-contained
        with open(stem + "-spans.jsonl", "w") as fh:
            fh.write(json.dumps({"fields": ["name", "start", "end", "parent", "task"],
                                 "spans": len(spans_dump), "written": min(
                                     len(spans_dump), SPANS_WRITTEN)}) + "\n")
            for s in spans_dump[:SPANS_WRITTEN]:
                fh.write(json.dumps(s[:5]) + "\n")

    print("provenance " + json.dumps(detail["provenance"]))
    print(f"{name}: digest {runner.digest}, {len(walls)} untraced + "
          f"{len(traced_walls)} traced jobs, {failed}/{attempted} tasks failed "
          f"(tasks_failed_frac {failed / attempted}), raw job median "
          f"{detail['wall_raw_s']:.6g} s, calibration kernel median "
          f"{statistics.median(calibrated.kernel_s):.6g} s")
    for task, note in runner.failures[:10]:
        print(f"FAILED {task}: {note}")
    for key, (value, unit) in metrics.items():
        print(f"{name} {key} {value:.6g} {unit}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def _unit(key: str) -> str:
    for suffix, unit in (("_us_p50", "us"), ("_us_tail", "us"), ("_ms_p50", "ms"),
                         ("_ms_tail", "ms"), ("_s_p50", "s"), ("_s", "s"),
                         ("_frac", "frac"), (".share", "frac")):
        if key.endswith(suffix):
            return unit
    return "count"


def run_all(args) -> dict:
    """Each workload in its own child process, one after another."""
    results = {}
    for name in NAMES:
        done = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, check=True)
        lines = done.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        results[name] = json.loads(lines[-1])
    return results


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all", choices=NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return
    result = run_all(args) if args.workload == "all" else run_workload(args)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
