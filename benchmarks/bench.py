"""Alternating parent/change pairs of perfbench runs, written to BENCH_<label>.json.

    python3 benchmarks/bench.py --parent ../parent --label NAME [--seconds 30]
        [--seed 0] [WORKLOAD=PAIRS ...]

``--parent`` is a checkout to compare against (``git worktree add ../parent
HEAD~``); the change is the checkout holding this script.  Each pair runs
``perfbench/run.py --trace 0`` once in each, the parent first in even pairs,
so a drift in the host's speed falls on both.  WORKLOAD=PAIRS sets a pair
count (default: 3 of each workload).  The file keeps every pair's metrics
and failed ops, the medians, the parent's interquartile range, the pairs in
which the change was lower, each side's sha256 of ``src/`` and line count of
``src/cellform`` (as ``wc -l``) and the machine.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("enumerate", "conj1_cold", "catalog_mixed", "congruences")


def src_digest(root: Path) -> str:
    h = hashlib.sha256()
    for f in sorted((root / "src").rglob("*.py")):
        h.update(f.relative_to(root).as_posix().encode() + b"\0" + f.read_bytes())
    return h.hexdigest()


def src_lines(root: Path) -> int:
    return sum(f.read_bytes().count(b"\n") for f in (root / "src" / "cellform").rglob("*.py"))


def run(root: Path, workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=root, capture_output=True, text=True, check=True).stdout.splitlines()
    line = json.loads(out[-1])
    machine = json.loads(next(s for s in out if s.startswith("machine: "))[len("machine: "):])
    metrics = {name: m["value"] for name, m in line["metrics"].items()}
    return {"metrics": metrics, "attempted": line["attempted"], "failed": line["failed"]}, machine


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, type=Path)
    ap.add_argument("--label", required=True)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("pairs", nargs="*", help="WORKLOAD=PAIRS")
    args = ap.parse_args(argv)
    counts = dict.fromkeys(WORKLOADS, 3) if not args.pairs else {
        w: int(n) for w, n in (item.split("=") for item in args.pairs)}
    sides = {"parent": args.parent.resolve(), "change": ROOT}
    report = {"label": args.label, "seed": args.seed, "seconds": args.seconds,
              "src_sha256": {side: src_digest(root) for side, root in sides.items()},
              "src_lines": {side: src_lines(root) for side, root in sides.items()}, "workloads": {}}
    for workload, n in counts.items():
        pairs = []
        for i in range(n):
            pair = {}
            for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
                pair[side], report["machine"] = run(sides[side], workload, args.seed, args.seconds)
                print(workload, i, side, json.dumps(pair[side]), flush=True)
            pairs.append(pair)
        summary = {"pairs": pairs, "median": {}, "parent_iqr": {}, "change_better": {}}
        for metric in pairs[0]["parent"]["metrics"]:  # each lower is better
            values = {side: [p[side]["metrics"][metric] for p in pairs] for side in sides}
            summary["median"][metric] = {side: statistics.median(v) for side, v in values.items()}
            q = statistics.quantiles(values["parent"], n=4) if n > 1 else [0, 0, 0]
            summary["parent_iqr"][metric] = q[2] - q[0]
            summary["change_better"][metric] = sum(c < p for p, c in zip(values["parent"], values["change"]))
        report["workloads"][workload] = summary
    (ROOT / f"BENCH_{args.label}.json").write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
