"""Run one workload of the rayform benchmark and print its metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; rayform is imported from its src/.  The
workload's jobs are drawn from the seed and run one at a time in a closed
loop, in whole passes, until S seconds have gone and the tail percentile has
ten jobs beyond it.  Every output goes through the correctness gate.

The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics.  With --trace 0 the metrics are the end_to_end metrics of
BENCHMARK.json, measured without tracing; times are scaled to the reference
speed of pace.py.  With --trace 1 they are its per_layer metrics, from one
untraced pass followed by traced passes (see spans.py).  The line before it
is a report: the machine stamp, unscaled wall times, the workload-specific
metrics and the first failures.
"""

from __future__ import annotations

import argparse
import gzip
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans
from pace import Pace, pin_to_one_cpu

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_REPEATS = 7
IMPORT_REPEATS = 7
STAT_FIELDS = {"calls": 0, "self_s": 2}


def fail(message: str) -> None:
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def require_checkout() -> None:
    """Import rayform from this checkout's src/, and from nowhere else."""
    package = ROOT / "src" / "rayform"
    if not (package / "__init__.py").is_file():
        fail(f"no rayform package under {package}; run from a full checkout")
    if not (ROOT / "BENCHMARK.json").is_file():
        fail("BENCHMARK.json is missing from the checkout root")
    sys.path.insert(0, str(ROOT / "src"))
    import rayform

    if Path(rayform.__file__).resolve().parent != package.resolve():
        fail(f"rayform was imported from {rayform.__file__}, not from {package}")


def git_commit() -> str:
    """HEAD of the checkout's git repository, read without running git."""
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
    return "unknown"


def stamp(seed: int, trace: bool) -> dict:
    import mpmath

    return {
        "python": platform.python_version(),
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
        "commit": git_commit(),
        "trace": trace,
    }


def child(cmd: list[str]) -> subprocess.CompletedProcess:
    return subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)


def measure_setup(workload: str, seed: int) -> tuple[float, float]:
    """Median time, scaled and unscaled, for a fresh interpreter to import
    rayform and build the workload's inputs."""
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
           "--seed", str(seed), "--setup-only"]
    intervals = []
    pace = Pace()
    for _ in range(SETUP_REPEATS):
        pace.probe()
        start = time.perf_counter()
        proc = child(cmd)
        intervals.append((start, time.perf_counter()))
        if proc.returncode != 0:
            fail(f"set-up failed: {proc.stderr.strip()}")
    pace.probe()
    scaled = [(end - start) * pace.factor(start, end) for start, end in intervals]
    return statistics.median(scaled), statistics.median(end - start for start, end in intervals)


def measure_import() -> float:
    """Median in-process time of `import rayform.cli` in a fresh interpreter."""
    from workloads import LAUNCH, parse_status

    times = []
    for _ in range(IMPORT_REPEATS):
        proc = child([sys.executable, str(LAUNCH), "--import-only"])
        status = parse_status(proc.stderr)
        if proc.returncode != 0 or status is None:
            fail(f"import failed: {proc.stderr.strip()}")
        times.append(status["import_s"])
    return statistics.median(times)


def tail_rank(n: int, percentile: int) -> int:
    """1-based nearest rank of the percentile among n sorted samples."""
    return max(1, math.ceil(percentile / 100 * n))


class Worker:
    """The child process that runs an in-process workload's jobs (worker.py)."""

    def __init__(self, workload, trace: bool):
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH / "worker.py"), workload.name, str(workload.seed),
             "1" if trace else "0"],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, cwd=ROOT,
        )
        if self.proc.stdout.readline().strip() != "ready":
            self.close()
            raise RuntimeError("job worker failed to start")

    def run(self, index: int, job_id: int) -> tuple[float, float, str | None]:
        self.proc.stdin.write(f"{index} {job_id}\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("job worker exited")
        return tuple(json.loads(line))

    def close(self) -> dict | None:
        """End input, read the final status and wait for the worker to exit."""
        self.proc.stdin.close()
        line = self.proc.stdout.readline()
        self.proc.wait()
        self.proc.stdout.close()
        return json.loads(line) if line else None


class Run:
    """The closed loop: one job at a time, whole passes, every output gated.

    Jobs run in a child process (the job worker, or one `rayform` process per
    job); this process takes speed probes between them."""

    def __init__(self, workload, trace: bool = False):
        self.w = workload
        self.trace = trace
        self.pace = Pace()
        self.worker = None
        self.final = None  # the job worker's final status
        self.done: list[tuple] = []  # (start, end, job, child status) per correct job
        self.attempted = 0
        self.failures: list[str] = []
        self.passes = 0

    def __enter__(self) -> "Run":
        if self.w.in_process:
            self.worker = Worker(self.w, self.trace)
        return self

    def __exit__(self, *exc) -> None:
        if self.worker is not None:
            self.final = self.worker.close()

    def one_pass(self) -> None:
        for k, job in enumerate(self.w.jobs):
            job_id = self.passes * len(self.w.jobs) + k
            status = None
            self.pace.tick()
            if self.worker is not None:
                t0, t1, problem = self.worker.run(k, job_id)
            else:
                t0 = time.perf_counter()
                output, status = self.w.run(job, job_id, self.trace)
                t1 = time.perf_counter()
                problem = self.w.check(job, output)
            self.attempted += 1
            if problem is None:
                self.done.append((t0, t1, job, status))
            else:
                self.failures.append(f"job {job_id} {job.args[:1]}: {problem}")
        self.pace.probe()
        self.passes += 1

    def until(self, seconds: float, percentile: int | None = None) -> None:
        """Whole passes until the clock and the tail sample count are both met."""
        start = time.perf_counter()
        while True:
            self.one_pass()
            n = len(self.done)
            if n == 0:  # every job failed; the gate has already counted them
                return
            enough = percentile is None or n - tail_rank(n, percentile) >= 10
            if enough and time.perf_counter() - start >= seconds:
                return

    def statuses(self) -> list[dict]:
        """Final statuses of the child processes that ran the jobs."""
        if self.final is not None:
            return [self.final]
        return [status for *_, status in self.done if status is not None]

    def scaled(self) -> list[tuple[float, float, object]]:
        """(scaled seconds, wall seconds, job) per correct job."""
        return [
            ((t1 - t0) * self.pace.factor(t0, t1), t1 - t0, job)
            for t0, t1, job, _ in self.done
        ]


def summarize(times: list[float], cells: int, percentile: int) -> dict:
    ordered = sorted(times) or [math.nan]
    busy = sum(times)
    return {
        "job_p50_ms": 1000 * statistics.median(ordered),
        "job_tail_ms": 1000 * ordered[tail_rank(len(times), percentile) - 1],
        "jobs_per_s": len(times) / busy if busy else 0.0,
        "table_cells_per_s": cells / busy if busy else 0.0,
    }


def end_to_end(w, seconds: float, percentile: int, setup: tuple) -> tuple[Run, dict, dict]:
    with Run(w) as run:
        run.until(seconds, percentile)
    rows = run.scaled()
    cells = sum(job.cells for _, _, job in rows)
    scaled = summarize([s for s, _, _ in rows], cells, percentile)
    wall = summarize([t for _, t, _ in rows], cells, percentile)
    rss_kb = max((status["rss_kb"] for status in run.statuses()), default=0)
    metrics = {
        "setup_s": setup[0],
        "job_p50_ms": scaled["job_p50_ms"],
        "job_tail_ms": scaled["job_tail_ms"],
        "jobs_per_s": scaled["jobs_per_s"],
        "peak_rss_mb": rss_kb / 1024,
    }
    n = len(rows)
    extra = {
        "tail_percentile": percentile,
        "tail_samples_beyond": n - tail_rank(n, percentile),
        "fail_ratio": len(run.failures) / run.attempted,
        "passes": run.passes,
        "jobs_per_pass": len(w.jobs),
        "speed_factor": statistics.median(s / t for s, t, _ in rows) if rows else math.nan,
        "wall": {"setup_s": setup[1], **wall},
    }
    if cells:
        extra["table_cells_per_s"] = scaled["table_cells_per_s"]
    for digits in sorted({job.args[2] for _, _, job in rows if job.kind == "eval"}):
        values = [s for s, _, job in rows if job.kind == "eval" and job.args[2] == digits]
        extra[f"eval{digits}_ms"] = 1000 * statistics.median(values)
    return run, metrics, extra


def merge_stats(statuses: list[dict]) -> dict:
    """Span statistics per name, summed over the processes that ran jobs."""
    merged: dict[str, list] = {}
    for status in statuses:
        for name, row in status.get("stats", {}).items():
            acc = merged.setdefault(name, [0, 0.0, 0.0, 0])
            for k, value in enumerate(row):
                acc[k] += value
    return merged


def stats_row(stats: dict, name: str) -> list:
    """[calls, total_s, self_s, non-None results] of one span name."""
    return stats.get(name, [0, 0.0, 0.0, 0])


def per_layer(w, seconds: float, names: list[str], spans_path: Path) -> tuple[Run, dict, dict]:
    with Run(w) as base:
        base.one_pass()
    with Run(w, trace=True) as run:
        run.until(seconds)
    untraced_s = sum(s for s, _, _ in base.scaled())
    traced_pass_s = sum(s for s, _, _ in run.scaled()) / run.passes
    statuses = run.statuses()
    stats = merge_stats(statuses)
    every = [span for status in statuses for span in status["spans"]]
    kept = every[:spans.SPAN_CAP]
    dropped = sum(status["dropped"] for status in statuses) + len(every) - len(kept)
    process_s = []
    for t0, t1, _, status in run.done:
        if status is not None:
            main = stats_row(status["stats"], "cli.main")
            process_s.append(t1 - t0 - status["import_s"] - (main[1] - main[2]))
    equivalent = stats_row(stats, "rayclass.equivalent")
    pass_cells = sum(job.cells for job in w.jobs)
    special = {
        "cli.import_s": measure_import(),
        "cli.process_s": statistics.median(process_s) if process_s else 0.0,
        "trace.overhead_s": traced_pass_s - untraced_s,
        "trace.overhead_ratio": traced_pass_s / untraced_s - 1,
        "rayclass.equivalent.hit_ratio": equivalent[3] / equivalent[0] if equivalent[0] else 0.0,
        "rayclass.equivalent.per_cell": (
            equivalent[0] / (pass_cells * run.passes) if pass_cells else 0.0
        ),
    }
    metrics = {}
    for name in names:
        if name in special:
            metrics[name] = special[name]
            continue
        fn, _, field = name.rpartition(".")
        value = stats_row(stats, fn)[STAT_FIELDS[field]] / run.passes
        metrics[name] = round(value) if field == "calls" and value == round(value) else value
    write_spans(spans_path, stats, kept, dropped)
    run.attempted += base.attempted
    run.failures = base.failures + run.failures
    extra = {
        "traced_passes": run.passes,
        "untraced_pass_busy_s": untraced_s,
        "traced_pass_busy_s": traced_pass_s,
        "spans_file": str(spans_path.relative_to(ROOT)),
        "spans_kept": len(kept),
        "spans_dropped": dropped,
    }
    return run, metrics, extra


def write_spans(path: Path, stats: dict, kept: list, dropped: int) -> None:
    path.parent.mkdir(exist_ok=True)
    payload = {
        "span_fields": ["id", "name", "start", "end", "parent", "job"],
        "stats_fields": ["calls", "total_s", "self_s", "non_none"],
        "stats": stats,
        "spans": kept,
        "dropped": dropped,
    }
    with gzip.open(path, "wt") as fh:
        json.dump(payload, fh)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.seconds <= 0:
        fail("--seconds must be positive")

    require_checkout()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        fail(f"unknown workload {args.workload!r}; choose from {workloads.WORKLOADS}")
    if args.setup_only:
        workloads.Workload(args.workload, args.seed)
        return 0

    pin_to_one_cpu()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    percentile = workloads.TAIL_PERCENTILE[args.workload]
    setup = None if args.trace else measure_setup(args.workload, args.seed)
    w = workloads.Workload(args.workload, args.seed)
    if args.trace:
        listed = spec["per_layer"]
        spans_path = ROOT / ".bench_out" / f"spans-{args.workload}-s{args.seed}.json.gz"
        run, values, extra = per_layer(w, args.seconds, [m["name"] for m in listed], spans_path)
    else:
        listed = spec["end_to_end"]
        run, values, extra = end_to_end(w, args.seconds, percentile, setup)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}
    report = {
        "workload": args.workload,
        **stamp(args.seed, bool(args.trace)),
        "jobs": len(run.done),
        **extra,
        "failures": run.failures[:5],
    }
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
