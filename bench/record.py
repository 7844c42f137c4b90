"""Record sets of benchmark runs and compare two recorded sets.

    python3 bench/record.py run OUT.json --seeds 1-10 [--workloads A,B] [--trace 1]
    python3 bench/record.py compare FIRST.json SECOND.json

`run` calls bench/run.py once per workload and seed, one run at a time, and
writes every run's report and result plus, per workload and metric, the
median, the quartiles and the spread (interquartile distance over the
median, as statistics.quantiles(values, n=4) gives them).  `compare` prints,
per workload and end-to-end metric, how far the second set's median moved
against the first in the metric's worse direction, next to its bound, and
exits 1 when a move exceeds the bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds_arg(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out += range(int(lo), int(hi or lo) + 1)
    return out


def spread(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "values": values}


def record(out: Path, workloads: list[str], seeds: list[int], trace: int) -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    runs = []
    for workload in workloads:
        for seed in seeds:
            cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                                     "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=600)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or len(lines) < 2:
                sys.exit(f"{' '.join(cmd)} failed:\n{proc.stderr}")
            report, result = json.loads(lines[-2])["report"], json.loads(lines[-1])
            runs.append({"workload": workload, "seed": seed, "report": report, "result": result})
            print(workload, seed, "correct" if result["correct"] else "INCORRECT", file=sys.stderr)
    summary = {}
    for workload in workloads:
        mine = [r["result"] for r in runs if r["workload"] == workload]
        summary[workload] = {
            name: spread([m["metrics"][name]["value"] for m in mine])
            for name in mine[0]["metrics"]
        }
        summary[workload]["fail_ratio"] = spread(
            [m["failed"] / m["attempted"] for m in mine]
        )
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({"runs": runs, "summary": summary}, indent=1) + "\n")


def compare(first: Path, second: Path) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    a = json.loads(first.read_text())["summary"]
    b = json.loads(second.read_text())["summary"]
    worst = 0
    for workload in a:
        for metric in spec["end_to_end"]:
            name = metric["name"]
            m1, m2 = a[workload][name]["median"], b[workload][name]["median"]
            worse = (m2 - m1) / m1 if metric["better"] == "lower" else (m1 - m2) / m1
            ok = worse <= metric["bound"]
            worst += not ok
            print(f"{workload:12s} {name:12s} {m1:12.5g} -> {m2:12.5g}  worse by {worse:+.3f}"
                  f"  bound {metric['bound']}  spreads {a[workload][name]['spread']:.3f}"
                  f"/{b[workload][name]['spread']:.3f}  {'ok' if ok else 'EXCEEDS'}")
    return 1 if worst else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="cmd", required=True)
    p = sub.add_parser("run")
    p.add_argument("out", type=Path)
    p.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    p.add_argument("--workloads", default=None)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p = sub.add_parser("compare")
    p.add_argument("first", type=Path)
    p.add_argument("second", type=Path)
    args = parser.parse_args()
    if args.cmd == "compare":
        return compare(args.first, args.second)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    record(args.out, names, args.seeds, args.trace)
    return 0


if __name__ == "__main__":
    sys.exit(main())
