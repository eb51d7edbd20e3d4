"""Self-test: run every workload once, traced, and print all metrics.

    python3 perfbench/suite.py [--seed 0] [--seconds 0]

For each workload this runs ``run.py --trace 1``, which makes untraced and
traced passes with the same inputs, and prints the end-to-end metrics of the
untraced passes, the per-layer metrics and dominant stage of the traced
ones, and the tracing overhead.  A workload fails when an output is wrong or
when its traced and untraced passes disagree.  It also checks that
BENCHMARK.json names exactly the workloads and metrics the benchmark prints.
"""
from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

sys.dont_write_bytecode = True
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from run import END_TO_END, WORKLOADS
from tracer import LAYER_METRICS


def run_workload(workload: str, seed: int, seconds: float) -> bool:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=400)
    if proc.returncode != 0:
        print(f"{workload}: run.py exited with {proc.returncode}\n{proc.stderr[-2000:]}")
        return False
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    report = json.loads((ROOT / ".perfbench_runs" / f"{workload}-trace1" / "result.json").read_text())
    print(f"== {workload} (seed {seed}, {report['passes']} pass pairs, {report['ops_per_pass']} ops/pass, "
          f"op_tail_ms at p{report['tail_percentile']:.2f})")
    for name, value in report["end_to_end"].items():
        print(f"  {name:40s} {value:14.4f} {END_TO_END[name]}")
    print(f"  {'fail_ratio':40s} {line['failed']}/{line['attempted']}")
    print(f"  dominant stage: {report['dominant_stage']}")
    print(f"  {'traced minus untraced wall_s':40s} {report['traced_minus_untraced_wall_s']:14.4f} s")
    for name, metric in line["metrics"].items():
        if metric["value"]:
            print(f"  {name:40s} {metric['value']:14.4f} {metric['unit']}")
    if not line["correct"]:
        print(f"  WRONG: {json.dumps(report['problems'])[:1000]} digests_agree={report['digests_agree']}")
    return line["correct"]


def check_names() -> bool:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ok = [m["name"] for m in bench["end_to_end"]] == list(END_TO_END)
    ok &= [m["name"] for m in bench["per_layer"]] == [*LAYER_METRICS, "trace.overhead_s"]
    ok &= [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    print(f"BENCHMARK.json names match the benchmark: {ok}")
    return ok


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=0)
    args = ap.parse_args(argv)
    ok = check_names()
    for workload in WORKLOADS:
        ok &= run_workload(workload, args.seed, args.seconds)
    print("all workloads correct" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
