"""drgcert benchmark: one workload as a seeded closed loop in this process.

    python3 perfbench/run.py --workload ekr-search --seed 1 --seconds 30 --trace 0

One client sends the next job when the previous one has finished; a job is
one user-level verdict (see workloads.py).  The loop runs whole rounds, each
round a seeded permutation of the workload's pool, until `--seconds` have
passed and at least MIN_JOBS jobs are done, so every run has the same job
mix.  Every verdict is checked; a job that raises or fails its check counts
as failed.

--trace 0 prints the end-to-end metrics, with job times scaled to a host of
fixed speed by `host_probe` (the raw times are printed too).  --trace 1
alternates an untraced and a traced round of the same order, prints
per-layer self times and counts per round, each layer's share of traced job
wall time, and the tracing overhead, and writes the spans to
.perfbench/trace-<workload>-seed<n>.jsonl.

The last line of stdout is one JSON object: correct, attempted, failed,
metrics.  The program is imported from src/ next to this directory; without
it the benchmark exits with code 2 and prints no result.
"""
from __future__ import annotations

import os

# before numpy is imported: one thread, as in a single-threaded service
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import json
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"
WORKLOADS = ("ekr-search", "drg-build", "param-tier")

#: child processes timed for setup_s; the median is reported
SETUP_PROBES = 7

#: a run goes on past --seconds until this many jobs are done, so that at
#: least ten lie beyond the 90th percentile
MIN_JOBS = 100

#: time of `host_probe` on the 2-core Xeon host the benchmark was defined
#: on, in its faster periods: job times are reported in seconds of a host
#: running at that speed
REF_PROBE_S = 0.004

END_TO_END_UNITS = {
    "verdicts_per_s": "1/s",
    "job_p50_s": "s",
    "job_p90_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

LAYERS = ("ekr_search", "graphs", "exact", "scheme", "subsets", "lp_cert", "cli")

#: per-layer metrics: self times and counts are per round of the pool
SELF_TIMES = (
    "ekr_search.max_clique", "ekr_search.threshold_graph",
    "ekr_search.enumerate_descendent_families", "ekr_search.verify_descendent_family",
    "ekr_search.verify_theorem",
    "graphs.build", "graphs.distance_census", "graphs.check_distance_regular",
    "graphs.twisted_x2_distance_counts",
    "exact.solve_linear_exact", "exact.ExactMatrix.inverse", "exact.rref_gf",
    "scheme.eigensystem_from_array", "scheme.krein_parameters",
    "scheme.materialize_idempotents", "scheme.krein_cross_check",
    "subsets.inner_distribution",
    "lp_cert.solve_certificate", "lp_cert.hamming_certificate", "lp_cert.certify_subset",
    "cli.main",
)
COUNTS = {
    "ekr_search.nodes": "count", "ekr_search.maximizers": "count",
    "graphs.vertices": "count", "graphs.edges": "count", "graphs.x2_pairs": "count",
    "exact.rref_gf.calls": "count", "scheme.root_candidates": "count",
    "subsets.pairs": "count",
    "cli.cache_bytes_written": "bytes", "cli.cache_bytes_verified": "bytes",
}


def import_program():
    """Import drgcert from this checkout's src/, never from elsewhere."""
    if not (SRC / "drgcert" / "__init__.py").is_file():
        raise ImportError(f"no drgcert package under {SRC}")
    sys.path[:0] = [str(SRC), str(BENCH_DIR)]
    import drgcert

    if Path(drgcert.__file__).resolve().parent != SRC / "drgcert":
        raise ImportError(f"drgcert was imported from {drgcert.__file__}, not {SRC}")
    import workloads

    return workloads


def measure_setup(args) -> float:
    """Median wall time of fresh processes that start, import drgcert and
    generate the workload's jobs, then exit."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
            "--seed", str(args.seed), "--setup-only"]
    times = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        subprocess.run(argv, check=True, stdout=subprocess.DEVNULL, timeout=120)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def host_probe() -> float:
    """Seconds taken by a fixed piece of pure-Python work (ints, bit
    operations, Fractions, lists, dicts), the kinds of work drgcert does.

    On a shared virtual machine the speed other tenants leave to the
    benchmark can change by a third from one second to the next.  Probing
    right before and right after each job measures the speed that job ran
    at, so its wall time can be scaled to a host of fixed speed;
    the program cannot influence the probe, and the collector is off so
    that garbage the job left does not count against the host."""
    gc.disable()
    try:
        return _probe_work()
    finally:
        gc.enable()


def _probe_work() -> float:
    start = time.perf_counter()
    counts: dict[int, int] = {}
    acc = 0
    for i in range(3000):
        m = (i * 2654435761) & 0xFFFFFFFF
        acc += (m & -m).bit_length() + bin(m).count("1")
        counts[m % 257] = counts.get(m % 257, 0) + 1
    total = Fraction(0)
    for i in range(1, 300):
        total += Fraction(i, i * i + 1)
    rows = [[(i * j) % 7 for j in range(40)] for i in range(40)]
    acc += sum(map(sum, rows)) + len(counts) + total.numerator % 7
    return time.perf_counter() - start


class Loop:
    """Runs rounds of jobs, one at a time, and keeps what the metrics need."""

    def __init__(self, jobs, seed: int, workdir: Path):
        self.jobs = jobs
        self.order_rng = random.Random(f"order-{seed}")
        self.workdir = workdir
        #: job wall times, raw and scaled to the reference host speed
        self.walls: list[float] = []
        self.scaled: list[float] = []
        self.attempted = 0
        self.failed = 0
        self._next_id = 0

    def next_order(self) -> list[int]:
        return self.order_rng.sample(range(len(self.jobs)), len(self.jobs))

    def run_round(self, order, tracer=None, counts=None) -> float:
        """Run one round; returns the summed wall time of its jobs."""
        total = 0.0
        for index in order:
            job = self.jobs[index]
            job_dir = self.workdir / str(self._next_id)
            job_dir.mkdir()
            self.attempted += 1
            try:
                if tracer is None:
                    before = host_probe()
                    start = time.perf_counter()
                    result = job.run(job_dir)
                    wall = time.perf_counter() - start
                    speed = 2 * REF_PROBE_S / (before + host_probe())
                else:
                    with tracer.job(self._next_id):
                        start = time.perf_counter()
                        result = job.run(job_dir)
                        wall = time.perf_counter() - start
                measured = job.check(result)
            except Exception:  # a failed verdict is counted, and the loop goes on
                self.failed += 1
                print(f"FAILED {job.name}:\n{traceback.format_exc()}", file=sys.stderr)
            else:
                total += wall
                if tracer is None:
                    self.walls.append(wall)
                    self.scaled.append(wall * speed)
                if counts is not None and measured:
                    for key, value in measured.items():
                        counts[key] = counts.get(key, 0) + value
            finally:
                shutil.rmtree(job_dir, ignore_errors=True)
                self._next_id += 1
        return total


def end_to_end(loop: Loop, elapsed: float, setup_s: float) -> dict:
    """Job times scaled to the reference host speed; the raw wall times are
    printed beside them."""
    for name, walls in (("raw", loop.walls), ("scaled", loop.scaled)):
        cuts = statistics.quantiles(walls, n=10)
        print(f"{name}: verdicts_per_s {len(walls) / sum(walls)} "
              f"job_p50_s {statistics.median(walls)} job_p90_s {cuts[8]}")
    beyond = sum(w > cuts[8] for w in loop.scaled)
    print(f"jobs {loop.attempted} in {elapsed:.3f} s; {beyond} jobs beyond p90; "
          f"fail_ratio {loop.failed}/{loop.attempted}")
    return {
        "verdicts_per_s": len(loop.scaled) / sum(loop.scaled),
        "job_p50_s": statistics.median(loop.scaled),
        "job_p90_s": cuts[8],
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def traced(loop: Loop, seconds: float, workload: str, seed: int):
    """Alternate untraced and traced rounds of the same order; returns the
    per-layer metrics with units."""
    from spans import JOB, Tracer

    tracer = Tracer()
    counts: dict[str, int] = {}
    plain_s = traced_s = 0.0
    rounds = 0
    start = time.perf_counter()
    while rounds == 0 or time.perf_counter() - start < seconds:
        order = loop.next_order()
        plain_s += loop.run_round(order)
        tracer.install()
        try:
            traced_s += loop.run_round(order, tracer, counts)
        finally:
            tracer.uninstall()
        rounds += 1
    self_s = tracer.self_times()
    counts.update(tracer.counts)
    OUT_DIR.mkdir(exist_ok=True)
    tracer.write(OUT_DIR / f"trace-{workload}-seed{seed}.jsonl")

    job_wall = tracer.job_wall_s()
    metrics = {}
    for name in SELF_TIMES:
        metrics[f"{name}.self_s"] = (self_s.get(name, 0.0) / rounds, "s")
    for name, unit in COUNTS.items():
        metrics[name] = (counts.get(name, 0) // rounds, unit)
    for layer in LAYERS:
        layer_s = sum(v for k, v in self_s.items() if k.split(".")[0] == layer)
        metrics[f"{layer}.self_share"] = (layer_s / job_wall, "ratio")
    metrics["unattributed.self_share"] = (self_s.get(JOB, 0.0) / job_wall, "ratio")
    metrics["trace.job_wall_s"] = (job_wall / rounds, "s")
    metrics["trace.untraced_job_wall_s"] = (plain_s / rounds, "s")
    metrics["trace.overhead"] = (traced_s / plain_s - 1, "ratio")
    metrics["trace.spans"] = (len(tracer.spans) // rounds, "count")
    metrics["trace.rounds"] = (rounds, "count")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    try:
        workloads = import_program()
    except ImportError as exc:
        print(f"cannot import the program: {exc}", file=sys.stderr)
        return 2
    jobs = workloads.make_jobs(args.workload, args.seed)
    if args.setup_only:
        return 0

    import numpy

    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} "
          f"trace {args.trace}; {len(jobs)} jobs per round; nproc {os.cpu_count()}; "
          f"python {platform.python_version()}; numpy {numpy.__version__}")
    OUT_DIR.mkdir(exist_ok=True)
    workdir = OUT_DIR / f"work-{os.getpid()}"
    workdir.mkdir()
    loop = Loop(jobs, args.seed, workdir)
    try:
        if args.trace:
            metrics = traced(loop, args.seconds, args.workload, args.seed)
        else:
            setup_s = measure_setup(args)
            start = time.perf_counter()
            while time.perf_counter() - start < args.seconds or loop.attempted < MIN_JOBS:
                loop.run_round(loop.next_order())
            elapsed = time.perf_counter() - start
            if len(loop.walls) < 2:
                raise RuntimeError("fewer than two jobs passed")
            metrics = {name: (value, END_TO_END_UNITS[name]) for name, value in
                       end_to_end(loop, elapsed, setup_s).items()}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for name, (value, unit) in metrics.items():
        print(f"{name} {value} {unit}")
    print(json.dumps({
        "correct": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
