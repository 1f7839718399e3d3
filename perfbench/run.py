"""siglab benchmark: one workload per process, closed loop, one job at a time.

    python3 perfbench/run.py --workload graph-large --seed 0 --seconds 36 --trace 0

Run from the repository root; siglab is imported from ``src/``. The run sets
up its inputs several times, then cycles through the workload's jobs until
``--seconds`` would be exceeded, checking every job's output outside the
timed region.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json: wall_s is one
pass over the job list with each job at its median time, peak_rss_mb the
process's RSS high-water mark, and setup_s the median import of numpy and
siglab in a fresh interpreter plus the median set-up (input generation, file
writes, warm-up). ``--trace 1`` repeats untraced, traced and memory-traced
passes and reports the per-layer metrics (see ``spans.py``, ``metrics.json``).

The last line of standard output is the result as JSON; the lines before it
stamp the machine and give per-job times. error_rate, failed jobs over jobs
attempted, is carried by the result's ``failed`` and ``attempted``.
"""

import argparse
import gc
import hashlib
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
import tracemalloc
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BLAS_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
SETUP_REPS = 5
IMPORT_REPS = 3
# stage rows of the ROADMAP baseline table, and the pair giving the growth exponent
ROWS = {"l2_m2000": "l2-m2000", "l2_m4000": "l2-m4000"}
GROWTH = ("l2-m2000", "l2-m4000")
WORKLOAD_NAMES = ("graph-large", "verify-many-small", "theta-search")


def _cap_blas_threads(nproc: int) -> dict[str, str]:
    """Cap BLAS/OpenMP pools at nproc before numpy loads; returns what was set."""
    for var in BLAS_THREAD_VARS:
        try:
            wanted = int(os.environ.get(var, nproc))
        except ValueError:
            wanted = nproc
        os.environ[var] = str(max(1, min(wanted, nproc)))
    return {var: os.environ[var] for var in BLAS_THREAD_VARS}


def _git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git; None outside a clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _cpu() -> dict:
    info = {"model": platform.processor() or None, "l2": None, "l3": None}
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                info["model"] = line.split(":", 1)[1].strip()
                break
        for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
            level = (index / "level").read_text().strip()
            if level in ("2", "3"):
                info[f"l{level}"] = (index / "size").read_text().strip()
    except OSError:
        pass
    return info


def _stamp(args, nproc: int, blas: dict, numpy_version: str) -> dict:
    sources = sorted((ROOT / "src" / "siglab").glob("*.py"))
    digest = hashlib.sha256()
    for path in sources:
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "commit": _git_commit(),
        "src_sha256": digest.hexdigest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "traced": bool(args.trace),
        "nproc": nproc,
        "cpu": _cpu(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "blas_threads": blas,
    }


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


class Runner:
    """Runs passes over one workload's jobs and keeps the error tally."""

    def __init__(self, jobs, reference: dict | None):
        self.jobs = jobs
        self.reference = reference
        self.first = {}
        self.attempted = 0
        self.failed = 0
        self.job_times = {job.name: [] for job in jobs}

    def run_job(self, job, tracer=None) -> float:
        """Run one job, check its output outside the timed region; returns its time."""
        record, problems = None, []
        start = time.perf_counter()
        try:
            if tracer is None:
                record = job.run()
            else:
                tracer.job = job.name
                record = tracer.span("bench.job", "bench", job.run)
        except Exception:  # a job that raises is a failed job, not a crashed benchmark
            problems.append(traceback.format_exc(limit=3).strip().splitlines()[-1])
        elapsed = time.perf_counter() - start
        if tracer is None:
            self.job_times[job.name].append(elapsed)
        if record is not None:
            problems += self._check(job, record)
        self.attempted += 1
        if problems:
            self.failed += 1
            print(f"FAILED {job.name}: {problems[0]}", file=sys.stderr)
        return elapsed

    def run_pass(self, tracer=None) -> float:
        gc.collect()
        return sum(self.run_job(job, tracer) for job in self.jobs)

    def run_until(self, deadline: float):
        """Cycle through the jobs, starting one only if its last time still fits
        before the deadline; every job runs at least once."""
        while True:
            gc.collect()
            for job in self.jobs:
                times = self.job_times[job.name]
                if times and time.perf_counter() + times[-1] > deadline:
                    return
                self.run_job(job)

    def _check(self, job, record) -> list[str]:
        problems = job.check(record)
        if problems:
            return problems
        outputs = {key: record.get(key) for key in job.reference_keys}
        if job.name not in self.first:
            self.first[job.name] = outputs
        elif outputs != self.first[job.name]:
            problems.append("output differs from this run's first pass")
        if self.reference is not None:
            want = self.reference.get(job.name)
            if want is None:
                problems.append("no reference recorded for this job")
            else:
                problems += job.compare(record, want)
        return problems


def _traced_pass(runner, tracer, memory: bool) -> float:
    """One traced pass. tracemalloc slows allocation-heavy Python several-fold,
    so allocation peaks come from their own pass and times from one without."""
    tracer.reset()
    tracer.memory = memory
    tracer.install()
    if memory:
        tracemalloc.start()
    try:
        return runner.run_pass(tracer)
    finally:
        if memory:
            tracemalloc.stop()
        tracer.uninstall()


def bootstrap() -> tuple[int, dict[str, str]]:
    """Make the checkout's siglab importable, with BLAS pools capped; returns (nproc, caps)."""
    src = ROOT / "src"
    if not (src / "siglab" / "__init__.py").is_file():
        raise FileNotFoundError(f"siglab sources not found under {src}")
    nproc = len(os.sched_getaffinity(0))
    blas = _cap_blas_threads(nproc)
    os.environ.pop("SIGLAB_SEED", None)  # siglab's own default seed, not the caller's
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    return nproc, blas


def _fresh_import_seconds() -> float:
    """Median time to import numpy and siglab in a new interpreter."""
    code = "import time; t = time.perf_counter(); import numpy, siglab; print(time.perf_counter() - t)"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]))
    times = [
        float(
            subprocess.run(
                [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True, timeout=60
            ).stdout
        )
        for _ in range(IMPORT_REPS)
    ]
    return statistics.median(times)


def load_reference(seed: int, workload: str) -> dict | None:
    """Reference outputs of the workload's jobs for this seed, if recorded."""
    path = HERE / "references" / f"seed-{seed}.json"
    return json.loads(path.read_text()).get(workload, {}) if path.is_file() else None


def main(argv=None) -> int:
    args = _parse_args(argv)
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    try:
        nproc, blas = bootstrap()
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    import numpy as np

    import siglab  # noqa: F401
    import spans
    import workloads

    import_s = _fresh_import_seconds() if not args.trace else 0.0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    stamp = _stamp(args, nproc, blas, np.__version__)
    print("stamp " + json.dumps(stamp, sort_keys=True))

    reference = load_reference(args.seed, args.workload)
    make_jobs = workloads.WORKLOADS[args.workload]
    tracer = spans.Tracer() if args.trace else None
    missing = []

    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    try:
        setup_times, generator_times = [], []
        for _ in range(SETUP_REPS):
            shutil.rmtree(workdir, ignore_errors=True)
            workdir.mkdir(parents=True)
            if tracer is not None:
                tracer.reset()
                missing = tracer.install()
            start = time.perf_counter()
            jobs = make_jobs(args.seed, workdir)
            for job in make_jobs(args.seed, workdir, warmup=True):
                job.check(job.run())
            setup_times.append(time.perf_counter() - start)
            if tracer is not None:
                tracer.uninstall()
                generator_times.append(
                    sum(t.total_s for (_, k), t in tracer.totals.items() if k == "generators.generate_points")
                )

        for name in missing:
            print(f"warning: {name} not found; the counts it gives read 0", file=sys.stderr)
        runner = Runner(jobs, reference)
        deadline = time.perf_counter() + args.seconds
        untraced, traced, layer_runs, memory_runs = [], [], [], []
        if tracer is None:
            runner.run_until(deadline)
        while tracer is not None:
            start = time.perf_counter()
            untraced.append(runner.run_pass())
            traced.append(_traced_pass(runner, tracer, memory=False))
            layer_runs.append(spans.pass_metrics(tracer, traced[-1], ROWS, GROWTH))
            wall = _traced_pass(runner, tracer, memory=True)
            memory_runs.append(spans.pass_metrics(tracer, wall, ROWS, GROWTH))
            now = time.perf_counter()
            if now + (now - start) > deadline:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass

    job_medians = {name: statistics.median(t) for name, t in runner.job_times.items()}
    for name, times in runner.job_times.items():
        print(f"job {name}: median {job_medians[name]:.4f} s of " + " ".join(f"{t:.4f}" for t in times))
    print(
        f"error_rate {runner.failed}/{runner.attempted} = {runner.failed / runner.attempted:.4f}"
        + ("" if reference is not None else f" (no reference for seed {args.seed}; invariants only)")
    )

    if tracer is None:
        values = {
            # each job's median over the passes, summed: one pass over the job list
            "wall_s": sum(job_medians.values()),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / spans.MB,
            "setup_s": import_s + statistics.median(setup_times),
        }
        entries = spec["end_to_end"]
    else:
        values = {
            key: statistics.median(
                run[key] for run in (memory_runs if key.endswith("peak_alloc_mb") else layer_runs)
            )
            for key in layer_runs[0]
        }
        values["generators.s"] = statistics.median(generator_times)
        values["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(untraced) - 1.0
        entries = spec["per_layer"]
        for prefix in ROWS:
            print(
                f"row {prefix}: radii {values[prefix + '.radii_s']:.3f} s, "
                f"build {values[prefix + '.build_s']:.3f} s, "
                f"aux+colour {values[prefix + '.aux_color_s']:.3f} s, "
                f"peak alloc {values[prefix + '.peak_alloc_mb']:.0f} MB"
            )
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {e["name"]: {"value": values[e["name"]], "unit": e["unit"]} for e in entries},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
