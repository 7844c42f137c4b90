"""Job worker for the in-process workloads.

    python3 bench/worker.py WORKLOAD SEED TRACE

Builds the workload's inputs, warms up, optionally installs the span
wrappers, prints "ready", then reads one "INDEX JOB_ID" line per job from
stdin.  For each it runs the job, gates the output and prints
[start, end, problem] as a JSON line, with problem null when the output is
correct.  At end of input it prints a final status object: peak RSS and,
when traced, the span statistics and kept spans.
"""

import json
import resource
import sys
import time

import workloads


def main() -> int:
    name, seed, trace = sys.argv[1], int(sys.argv[2]), sys.argv[3] == "1"
    sys.path.insert(0, str(workloads.SRC))
    w = workloads.Workload(name, seed)
    w.warm_up()
    rec = None
    if trace:
        import spans

        rec = spans.Recorder()
        spans.install(rec)
    print("ready", flush=True)
    for line in sys.stdin:
        index, job_id = (int(x) for x in line.split())
        job = w.jobs[index]
        if rec is not None:
            rec.job = job_id
        start = time.perf_counter()
        try:
            output, _ = w.run(job, job_id, False)
            end = time.perf_counter()
            problem = w.check(job, output)
        except Exception as exc:  # a job that raises is a failed job
            end = time.perf_counter()
            problem = f"{type(exc).__name__}: {exc}"
        print(json.dumps([start, end, problem]), flush=True)
    status = {"rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    if rec is not None:
        status.update(stats=rec.summary(), spans=rec.spans(), dropped=rec.dropped)
    print(json.dumps(status), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
